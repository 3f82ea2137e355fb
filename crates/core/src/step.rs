//! Time stepping: refit, selective recompute, and DAG reuse.
//!
//! [`ResidentFmm::step`] turns the one-shot evaluator into a stepping
//! engine.  Per step:
//!
//! 1. **Refit** — sparse displacements and charge updates are applied to
//!    the resident [`RefitTree`]: points that stay inside their leaf are
//!    updated in place, leaf-crossers are re-binned, and only boxes whose
//!    occupancy crossed the refinement threshold split or merge.
//! 2. **Dirty propagation** — leaves with membership/geometry/charge
//!    changes are marked and the marks climb ancestor chains, so the set
//!    of boxes whose multipole can differ from a from-scratch rebuild is
//!    known exactly.
//! 3. **Selective upward pass** — dirty leaves re-project (`S→M`), dirty
//!    interiors re-gather **all** children (`M→M`), deepest level first.
//!    Re-gathering keeps the accumulation order identical to a full
//!    build, so clean boxes stay *bitwise* equal to the rebuild and dirty
//!    boxes differ only by in-leaf summation order (≪ 1e-12).
//! 4. **List patching** — interaction lists are re-derived only for
//!    targets whose parent is adjacent to a structurally changed box's
//!    parent ([`StepLists::patch`]); a content-only step reuses every
//!    list untouched.
//! 5. **DAG reuse** — the persistent step DAG (upward edges plus every
//!    list-driven operator edge) survives content-only steps verbatim;
//!    the forward closure from dirty `S`/`M` nodes
//!    ([`dashmm_dag::Invalidator`]) is the invalidated subgraph, and the
//!    per-operator invalidated/reused split is the step's reuse
//!    accounting (fed to `dashmm_sim`'s step-cost model by the bench).
//!
//! The returned [`StepReport`] carries the refit stats, the dirty
//! fraction, the expansion recompute counts and the DAG reuse report —
//! everything `BENCH_timestep.json` and the CI gate consume.

use dashmm_dag::{Dag, DagBuilder, EdgeOp, InvalidationReport, NodeClass};
use dashmm_kernels::Kernel;
use dashmm_refit::{ChargeUpdate, DirtySet, Displacement, RefitStats, RefitTree, StepLists};

use crate::resident::ResidentFmm;

/// The persistent task DAG of a stepping engine, with maps from tree box
/// slots to DAG node ids so per-step dirty boxes can seed invalidation.
pub struct StepDag {
    dag: Dag,
    /// `S` node of each leaf slot (`-1` for interiors/dead slots).
    s_node: Vec<i32>,
    /// `M` node of each live slot.
    m_node: Vec<i32>,
    /// `L` node of each live slot.
    l_node: Vec<i32>,
    /// `T` node of each leaf slot.
    t_node: Vec<i32>,
}

impl StepDag {
    /// Assemble the DAG over the tree's current structure: `S→M` at
    /// leaves, `M→M`/`L→L` along the hierarchy, `L→T` at leaves, and one
    /// edge per interaction-list entry (`M→L` for L2, `S→T` for L1,
    /// `M→T` for L3, `S→L` for L4).
    pub fn assemble(tree: &RefitTree, lists: &StepLists, n_exp: usize) -> Self {
        let slots = tree.num_slots();
        let exp_bytes = (8 * n_exp) as u32;
        let mut b = DagBuilder::new();
        let mut s_node = vec![-1i32; slots];
        let mut m_node = vec![-1i32; slots];
        let mut l_node = vec![-1i32; slots];
        let mut t_node = vec![-1i32; slots];
        for id in tree.alive_ids() {
            let n = tree.node(id);
            let level = n.key.level;
            m_node[id as usize] = b.add_node(NodeClass::M, id, level, exp_bytes) as i32;
            l_node[id as usize] = b.add_node(NodeClass::L, id, level, exp_bytes) as i32;
            if n.is_leaf() {
                let pt_bytes = (24 * n.count) as u32;
                s_node[id as usize] = b.add_node(NodeClass::S, id, level, pt_bytes) as i32;
                t_node[id as usize] = b.add_node(NodeClass::T, id, level, pt_bytes) as i32;
            }
        }
        for id in tree.alive_ids() {
            let n = tree.node(id);
            let (m, l) = (m_node[id as usize] as u32, l_node[id as usize] as u32);
            if n.is_leaf() {
                b.add_edge(s_node[id as usize] as u32, EdgeOp::S2M, m, exp_bytes, 0);
                b.add_edge(l, EdgeOp::L2T, t_node[id as usize] as u32, exp_bytes, 0);
            }
            if n.parent >= 0 {
                let p = n.parent as usize;
                let oct = n.key.octant() as u32;
                b.add_edge(m, EdgeOp::M2M, m_node[p] as u32, exp_bytes, oct);
                b.add_edge(l_node[p] as u32, EdgeOp::L2L, l, exp_bytes, oct);
            }
            let bl = lists.of(id);
            for e in &bl.l2 {
                b.add_edge(
                    m_node[e.source as usize] as u32,
                    EdgeOp::M2L,
                    l,
                    exp_bytes,
                    e.direction.index() as u32,
                );
            }
            for &src in &bl.l1 {
                b.add_edge(
                    s_node[src as usize] as u32,
                    EdgeOp::S2T,
                    t_node[id as usize] as u32,
                    tree.node(src).count as u32 * 24,
                    0,
                );
            }
            for &src in &bl.l3 {
                b.add_edge(
                    m_node[src as usize] as u32,
                    EdgeOp::M2T,
                    t_node[id as usize] as u32,
                    exp_bytes,
                    0,
                );
            }
            for &src in &bl.l4 {
                b.add_edge(s_node[src as usize] as u32, EdgeOp::S2L, l, exp_bytes, 0);
            }
        }
        StepDag {
            dag: b.finish(),
            s_node,
            m_node,
            l_node,
            t_node,
        }
    }

    /// The underlying DAG.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Seed node ids for invalidation: the `M` node of every dirty live
    /// box plus the `S` node of every dirty leaf.  Seeding `M` (not only
    /// `S`) matters for deleted subtrees: their ancestors are dirty but
    /// no live dirty leaf may remain below them.
    pub fn seeds(&self, tree: &RefitTree, dirty: &DirtySet, out: &mut Vec<u32>) {
        out.clear();
        for id in dirty.dirty_boxes(tree) {
            if let Some(&m) = self.m_node.get(id as usize) {
                if m >= 0 {
                    out.push(m as u32);
                }
            }
            if let Some(&s) = self.s_node.get(id as usize) {
                if s >= 0 {
                    out.push(s as u32);
                }
            }
        }
    }

    /// `L` node of a live box slot (tests/diagnostics).
    pub fn l_node_of(&self, id: u32) -> i32 {
        self.l_node[id as usize]
    }

    /// `T` node of a live leaf slot (tests/diagnostics).
    pub fn t_node_of(&self, id: u32) -> i32 {
        self.t_node[id as usize]
    }
}

/// What stepping keeps between steps: the interaction lists and the step
/// DAG over the current structure.  The first step builds it from the
/// tree as built, so an engine that only answers queries never holds it.
pub(crate) struct Stepping {
    pub(crate) lists: StepLists,
    pub(crate) dag: StepDag,
}

impl Stepping {
    fn build(tree: &RefitTree, n_exp: usize) -> Self {
        let lists = StepLists::build(tree);
        let dag = StepDag::assemble(tree, &lists, n_exp);
        Stepping { lists, dag }
    }
}

/// Everything one call to [`ResidentFmm::step`] did.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// What the refit did to the tree.
    pub refit: RefitStats,
    /// Dirty live boxes after ancestor propagation.
    pub dirty_boxes: usize,
    /// Live boxes in the tree.
    pub total_boxes: usize,
    /// Leaf expansions re-projected (`S→M`).
    pub recomputed_leaves: usize,
    /// Interior expansions re-gathered (`M→M`).
    pub recomputed_interiors: usize,
    /// Expansions reused bitwise from the previous step.
    pub reused_expansions: usize,
    /// Interaction-list targets re-derived (0 on content-only steps).
    pub lists_recomputed: usize,
    /// Whether the persistent DAG had to be re-assembled (structure
    /// changed); false means the whole graph was reused.
    pub dag_rebuilt: bool,
    /// Forward-closure invalidation over the (possibly reused) DAG.
    pub dag: InvalidationReport,
    /// Wall time of the tree refit (rebin, split/merge, dirty marking).
    pub refit_us: f64,
    /// Wall time of the selective upward pass (`S→M` + `M→M` refresh).
    pub recompute_us: f64,
    /// Wall time of the interaction-list patch.
    pub lists_us: f64,
    /// Wall time of DAG reassembly (structural steps) + invalidation BFS.
    pub dag_us: f64,
}

impl StepReport {
    /// Fraction of live boxes that were dirty this step.
    pub fn dirty_fraction(&self) -> f64 {
        if self.total_boxes == 0 {
            0.0
        } else {
            self.dirty_boxes as f64 / self.total_boxes as f64
        }
    }
}

impl<K: Kernel> ResidentFmm<K> {
    /// Advance the resident state by one time step: apply sparse
    /// `moves`/`charges`, refit the tree, and recompute exactly the
    /// expansions reachable from dirty leaves.  Queries issued after
    /// `step` returns see the updated ensemble; results match a
    /// from-scratch [`ResidentFmm::build_in_domain`] over the current
    /// positions (same domain) to better than 1e-12 relative error.
    pub fn step(&mut self, moves: &[Displacement], charges: &[ChargeUpdate]) -> StepReport {
        if self.stepping.is_none() {
            self.stepping = Some(Stepping::build(&self.tree, self.n_exp));
        }
        let t0 = std::time::Instant::now();
        let refit = self.tree.apply_step(moves, charges, &mut self.dirty);
        self.dirty.propagate(&self.tree);
        let refit_us = t0.elapsed().as_secs_f64() * 1e6;
        let t1 = std::time::Instant::now();

        // A step that deepens the tree brings its new levels' tables.
        while self.levels.len() <= self.tree.depth() as usize {
            self.levels.push(self.lib.tables(self.levels.len() as u8));
        }

        // The arena is indexed by node slot and only ever grows; slot
        // reuse is safe because recycled slots are always dirty (CREATED).
        let need = self.tree.num_slots() * self.n_exp;
        if self.multipoles.len() < need {
            self.multipoles.resize(need, 0.0);
        }

        // Selective upward pass, deepest level first so every dirty
        // parent re-gathers finalized children (clean children are cached
        // and already final).
        self.recompute_scratch.clear();
        self.recompute_scratch
            .extend(self.dirty.dirty_boxes(&self.tree));
        {
            let tree = &self.tree;
            self.recompute_scratch
                .sort_unstable_by_key(|&id| std::cmp::Reverse(tree.node(id).key.level));
        }
        let n_exp = self.n_exp;
        let mut recomputed_leaves = 0;
        let mut recomputed_interiors = 0;
        for i in 0..self.recompute_scratch.len() {
            let id = self.recompute_scratch[i];
            let node = *self.tree.node(id);
            let t = &self.levels[node.key.level as usize];
            if node.is_leaf() {
                let (pts, q) = self.tree.leaf_points(id);
                let out = &mut self.multipoles[id as usize * n_exp..(id as usize + 1) * n_exp];
                dashmm_expansion::ops::s2m(
                    self.lib.kernel(),
                    t,
                    self.tree.center_of(id),
                    pts,
                    q,
                    &mut self.upward_ws,
                    out,
                );
                recomputed_leaves += 1;
            } else {
                // Gather the children's cached expansions, then re-
                // accumulate in ascending octant order — identical to the
                // from-scratch build's order.
                self.child_scratch.clear();
                let mut octs = [0u8; 8];
                let mut nc = 0;
                for c in node.child_ids() {
                    octs[nc] = self.tree.node(c).key.octant();
                    self.child_scratch.extend_from_slice(
                        &self.multipoles[c as usize * n_exp..(c as usize + 1) * n_exp],
                    );
                    nc += 1;
                }
                let empty: &[f64] = &[];
                let mut children: [(u8, &[f64]); 8] = [(0, empty); 8];
                for k in 0..nc {
                    children[k] = (octs[k], &self.child_scratch[k * n_exp..(k + 1) * n_exp]);
                }
                let out = &mut self.multipoles[id as usize * n_exp..(id as usize + 1) * n_exp];
                dashmm_expansion::ops::m2m_refresh(t, &children[..nc], out);
                recomputed_interiors += 1;
            }
        }

        let recompute_us = t1.elapsed().as_secs_f64() * 1e6;
        let t2 = std::time::Instant::now();
        let st = self
            .stepping
            .as_mut()
            .expect("built at the top of the step");
        let lists_recomputed = st.lists.patch(&self.tree, &refit.changed_keys);
        let lists_us = t2.elapsed().as_secs_f64() * 1e6;

        let t3 = std::time::Instant::now();
        let dag_rebuilt = refit.structural();
        if dag_rebuilt {
            st.dag = StepDag::assemble(&self.tree, &st.lists, n_exp);
        }
        let mut seeds = std::mem::take(&mut self.seed_scratch);
        st.dag.seeds(&self.tree, &self.dirty, &mut seeds);
        let dag_report = self.invalidator.run(st.dag.dag(), seeds.iter().copied());
        self.seed_scratch = seeds;
        let dag_us = t3.elapsed().as_secs_f64() * 1e6;

        let dirty_boxes = self.recompute_scratch.len();
        let total_boxes = self.tree.num_alive_boxes();
        StepReport {
            refit,
            dirty_boxes,
            total_boxes,
            recomputed_leaves,
            recomputed_interiors,
            reused_expansions: total_boxes - dirty_boxes,
            lists_recomputed,
            dag_rebuilt,
            dag: dag_report,
            refit_us,
            recompute_us,
            lists_us,
            dag_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::ResidentConfig;
    use dashmm_expansion::BatchWorkspace;
    use dashmm_kernels::Laplace;
    use dashmm_tree::{uniform_cube, Domain};

    fn charges(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn stepped_engine_matches_fresh_build_to_1e12() {
        let n = 4000;
        let sources = uniform_cube(n, 31);
        let q = charges(n);
        let cfg = ResidentConfig::default();
        let domain = Domain::containing(&[&sources], cfg.pad);
        let mut fmm = ResidentFmm::build_in_domain(Laplace, &sources, &q, cfg, domain);
        let probes = uniform_cube(64, 77);
        let mut ws = BatchWorkspace::new();

        for step in 0..4 {
            // A deterministic block of points drifts; a few charges flip.
            let scale = 0.03 * domain.side() * (1.0 + step as f64 * 0.5);
            let moves: Vec<Displacement> = (0..n)
                .step_by(7)
                .map(|i| Displacement {
                    index: i as u32,
                    delta: [
                        scale * (0.3 + (i % 5) as f64 * 0.1),
                        -scale * (0.2 + (i % 3) as f64 * 0.1),
                        scale * 0.25,
                    ],
                })
                .collect();
            let flips: Vec<ChargeUpdate> = (0..n)
                .step_by(101)
                .map(|i| ChargeUpdate {
                    index: i as u32,
                    charge: 2.0,
                })
                .collect();
            let report = fmm.step(&moves, &flips);
            assert!(report.dirty_boxes > 0);
            assert!(report.dirty_boxes <= report.total_boxes);

            let fresh = ResidentFmm::build_in_domain(
                Laplace,
                &fmm.current_sources(),
                &fmm.current_charges(),
                cfg,
                domain,
            );
            let mut got = vec![0.0; probes.len()];
            let mut want = vec![0.0; probes.len()];
            fmm.eval_points(&probes, &mut ws, &mut got);
            fresh.eval_points(&probes, &mut ws, &mut want);
            for i in 0..probes.len() {
                let scale = want[i].abs().max(1.0);
                assert!(
                    (got[i] - want[i]).abs() / scale <= 1e-12,
                    "step {step} probe {i}: stepped {} vs fresh {}",
                    got[i],
                    want[i]
                );
            }
        }
    }

    #[test]
    fn content_only_step_reuses_whole_dag_and_lists() {
        let n = 3000;
        let sources = uniform_cube(n, 13);
        let q = charges(n);
        let mut fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let lists = StepLists::build(fmm.tree());
        let edges_total = StepDag::assemble(fmm.tree(), &lists, fmm.expansion_len())
            .dag()
            .num_edges() as u64;
        // Charge-only step: no motion at all.
        let report = fmm.step(
            &[],
            &[ChargeUpdate {
                index: 0,
                charge: 3.0,
            }],
        );
        assert!(!report.dag_rebuilt, "charge step must not rebuild the DAG");
        assert_eq!(report.lists_recomputed, 0);
        assert!(!report.refit.structural());
        assert_eq!(
            report.dag.invalidated_edges + report.dag.reused_edges,
            edges_total
        );
        // The downward side floods (every local expansion consuming one of
        // the dirty chain's M2L products re-gathers), but the upward pass
        // — the expensive projections — must be almost entirely reused.
        let up_reused = report.dag.reused(EdgeOp::S2M) + report.dag.reused(EdgeOp::M2M);
        let up_invalid = report.dag.invalidated(EdgeOp::S2M) + report.dag.invalidated(EdgeOp::M2M);
        assert!(
            up_reused > 4 * up_invalid.max(1),
            "one dirty leaf must reuse nearly the whole upward pass \
             ({up_reused} reused vs {up_invalid} invalidated)"
        );
        assert!(report.dag.reused_edges > 0);
        assert!(report.dirty_fraction() < 0.5);
        assert_eq!(
            report.recomputed_leaves + report.recomputed_interiors,
            report.dirty_boxes
        );
    }

    #[test]
    fn step_dag_matches_tree_shape() {
        let n = 2000;
        let sources = uniform_cube(n, 3);
        let q = charges(n);
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let tree = fmm.tree();
        let lists = StepLists::build(tree);
        let step_dag = StepDag::assemble(tree, &lists, fmm.expansion_len());
        let dag = step_dag.dag();
        let leaves = tree
            .alive_ids()
            .filter(|&id| tree.node(id).is_leaf())
            .count();
        // M + L per box, S + T per leaf.
        assert_eq!(
            dag.num_nodes(),
            2 * tree.num_alive_boxes() + 2 * leaves,
            "node classes must cover the tree"
        );
        dag.validate().expect("step DAG must validate");
    }
}

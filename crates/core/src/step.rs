//! Time stepping: a refit, then one batched upward pass.
//!
//! [`ResidentFmm::step`] turns the one-shot evaluator into a stepping
//! engine.  Per step:
//!
//! 1. **Refit** — sparse displacements and charge updates are applied to
//!    the resident [`dashmm_refit::RefitTree`], in list order: the moves
//!    are grouped by leaf, each touched leaf block is updated in place and
//!    re-sorted once, the points whose final position left their leaf are
//!    re-binned, and only boxes whose occupancy crossed the refinement
//!    threshold split or merge.  Leaves whose contents changed are marked
//!    dirty and the marks climb their ancestor chains, so the set of boxes
//!    whose multipole can differ from a from-scratch rebuild is known
//!    exactly.
//! 2. **Upward pass** — the build's own batched pass
//!    (`ResidentFmm::upward_pass`, see the `resident` module docs) runs
//!    over the dirty boxes only, on every core: all dirty leaves in one
//!    parallel sweep, one `uc2ue` GEMM per chunk, then the dirty interiors
//!    level by level, deepest first, eight `M→M` GEMMs per chunk.  Each
//!    expansion is computed exactly as the build computes it, whatever the
//!    thread count, so a stepped engine equals a rebuild bitwise, and
//!    every clean box keeps its expansion untouched.
//!
//! Queries descend the tree under the acceptance criterion and read the
//! arena directly, so nothing else is kept between steps.  The returned
//! [`StepReport`] carries the refit stats, the dirty fraction and the
//! recomputed/reused expansion counts.

use dashmm_kernels::Kernel;
use dashmm_refit::{ChargeUpdate, Displacement, RefitStats};

use crate::resident::{host_threads, ResidentFmm};

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
    /// Wall time of the tree refit (rebin, split/merge, dirty marking).
    pub refit_us: f64,
    /// Wall time of the upward pass over the dirty boxes.
    pub recompute_us: f64,
    /// Retired: a step patches no interaction lists.  Always 0, kept for
    /// readers of the old report shape.
    pub lists_us: f64,
    /// Retired: a step builds and walks no DAG.  Always 0, kept for
    /// readers of the old report shape.
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
    /// expansions of dirty boxes.  Queries issued after `step` returns see
    /// the updated ensemble, bitwise as a from-scratch
    /// [`ResidentFmm::build_in_domain`] over the current positions (same
    /// domain) answers them.
    pub fn step(&mut self, moves: &[Displacement], charges: &[ChargeUpdate]) -> StepReport {
        self.step_on(moves, charges, host_threads())
    }

    /// [`step`](Self::step) with an upward pass on at most `threads`
    /// threads.
    pub(crate) fn step_on(
        &mut self,
        moves: &[Displacement],
        charges: &[ChargeUpdate],
        threads: usize,
    ) -> StepReport {
        let t0 = std::time::Instant::now();
        let refit = self.tree.apply_step(moves, charges, &mut self.dirty);
        self.dirty.propagate(&self.tree);
        let refit_us = t0.elapsed().as_secs_f64() * 1e6;

        let t1 = std::time::Instant::now();
        self.upward.order.clear();
        self.upward.order.extend(self.dirty.dirty_boxes(&self.tree));
        let (recomputed_leaves, recomputed_interiors) = self.upward_pass(threads);
        let recompute_us = t1.elapsed().as_secs_f64() * 1e6;

        let dirty_boxes = recomputed_leaves + recomputed_interiors;
        let total_boxes = self.tree.num_alive_boxes();
        StepReport {
            refit,
            dirty_boxes,
            total_boxes,
            recomputed_leaves,
            recomputed_interiors,
            reused_expansions: total_boxes - dirty_boxes,
            refit_us,
            recompute_us,
            lists_us: 0.0,
            dag_us: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resident::{ResidentConfig, UPWARD_CHUNK};
    use dashmm_expansion::{ops, BatchWorkspace};
    use dashmm_kernels::Laplace;
    use dashmm_linalg::Matrix;
    use dashmm_tree::{uniform_cube, BuildParams, Domain, Point3};
    use std::collections::HashMap;

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
    fn charge_only_step_recomputes_one_ancestor_chain() {
        let n = 3000;
        let sources = uniform_cube(n, 13);
        let q = charges(n);
        let mut fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let leaf = fmm.tree().leaf_of(0);
        let depth = fmm.tree().node(leaf).key.level as usize;
        assert!(depth > 0, "the test needs a refined tree");
        let report = fmm.step(
            &[],
            &[ChargeUpdate {
                index: 0,
                charge: 3.0,
            }],
        );
        assert!(!report.refit.structural());
        assert_eq!(report.recomputed_leaves, 1);
        assert_eq!(report.recomputed_interiors, depth);
        assert_eq!(report.dirty_boxes, depth + 1);
        assert_eq!(
            report.reused_expansions,
            report.total_boxes - report.dirty_boxes
        );
        assert_eq!((report.lists_us, report.dag_us), (0.0, 0.0));
    }

    /// `y += |a|·|x|`: the magnitude a product's rounding scales with.
    fn abs_acc(a: &Matrix, x: &[f64], y: &mut [f64]) {
        for (j, &xj) in x.iter().enumerate() {
            for (yi, aij) in y.iter_mut().zip(a.col(j)) {
                *yi += (aij * xj).abs();
            }
        }
    }

    /// What the per-box upward pass makes of box `id`'s inputs (`S→M` of
    /// a leaf; `M→M` of each child's cached expansion, ascending
    /// octant order, for an interior), and the norm of `|operator|·|input|`
    /// summed the same way: ± charges cancel, so an expansion can be far
    /// smaller than the terms whose rounding it carries.
    fn per_box_multipole(
        fmm: &ResidentFmm<Laplace>,
        id: u32,
        ws: &mut BatchWorkspace,
    ) -> (Vec<f64>, f64) {
        let tree = fmm.tree();
        let node = tree.node(id);
        let t = &fmm.levels[node.key.level as usize];
        let mut m = vec![0.0; fmm.expansion_len()];
        let mut mag = vec![0.0; fmm.expansion_len()];
        if node.is_leaf() {
            let (pts, q) = tree.leaf_points(id);
            let mut check = vec![0.0; t.uc().len()];
            ops::s2m_check(&Laplace, t.uc(), tree.center_of(id), pts, q, ws, &mut check);
            abs_acc(t.uc2ue(), &check, &mut mag);
            ops::s2m(&Laplace, t, tree.center_of(id), pts, q, ws, &mut m);
        } else {
            for c in node.child_ids() {
                let oct = tree.node(c).key.octant();
                ops::m2m(t, oct, fmm.multipole(c), &mut m);
                abs_acc(t.m2m(oct), fmm.multipole(c), &mut mag);
            }
        }
        (m, mag.iter().map(|x| x * x).sum::<f64>().sqrt())
    }

    #[test]
    fn partial_chunks_equal_rebuild_bitwise_and_per_box_reference() {
        let n = 20_000;
        let cfg = ResidentConfig {
            build: BuildParams {
                threshold: 30,
                ..BuildParams::default()
            },
            ..ResidentConfig::default()
        };
        let sources = uniform_cube(n, 7);
        let domain = Domain::containing(&[&sources], cfg.pad);
        let mut fmm = ResidentFmm::build_in_domain(Laplace, &sources, &charges(n), cfg, domain);
        // Nudge every 40th point within its leaf and flip a few charges:
        // a strict subset of every wide level goes dirty.
        let moves: Vec<Displacement> = (0..n)
            .step_by(40)
            .map(|i| Displacement {
                index: i as u32,
                delta: [1e-9 * domain.side(), 0.0, 0.0],
            })
            .collect();
        let flips: Vec<ChargeUpdate> = (5..n)
            .step_by(211)
            .map(|i| ChargeUpdate {
                index: i as u32,
                charge: 0.5,
            })
            .collect();
        let report = fmm.step(&moves, &flips);

        let tree = fmm.tree();
        let mut wide = HashMap::<u8, (usize, usize)>::new();
        for id in tree.alive_ids() {
            let e = wide.entry(tree.node(id).key.level).or_default();
            e.0 += 1;
            e.1 += fmm.dirty_reason(id).min(1) as usize;
        }
        assert!(
            wide.values()
                .any(|&(all, dirty)| all > UPWARD_CHUNK && dirty > 0 && dirty < all),
            "no level wider than a chunk was partly dirty: {wide:?}"
        );
        assert!(report.dirty_boxes < report.total_boxes);

        let fresh = ResidentFmm::build_in_domain(
            Laplace,
            &fmm.current_sources(),
            &fmm.current_charges(),
            cfg,
            domain,
        );
        let by_key: HashMap<_, _> = fresh
            .tree()
            .alive_ids()
            .map(|id| (fresh.tree().node(id).key, id))
            .collect();
        let mut ws = BatchWorkspace::new();
        for id in tree.alive_ids() {
            let got = fmm.multipole(id);
            let want = fresh.multipole(by_key[&tree.node(id).key]);
            assert!(
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "box {id}: stepped expansion differs from the rebuild's"
            );
            let (r, norm) = per_box_multipole(&fmm, id, &mut ws);
            let diff = got
                .iter()
                .zip(&r)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(
                diff <= 1e-13 * norm,
                "box {id}: batched vs per-box diff {:.3e} of the terms' magnitude",
                diff / norm
            );
        }
    }

    /// A rebuild in the same domain over the stepped engine's current
    /// sources and charges has the same boxes, every leaf holds its points
    /// in the same order, and every multipole is equal bit for bit.
    fn assert_bitwise_rebuild(fmm: &ResidentFmm<Laplace>, cfg: ResidentConfig, what: &str) {
        let fresh = ResidentFmm::build_in_domain(
            Laplace,
            &fmm.current_sources(),
            &fmm.current_charges(),
            cfg,
            *fmm.domain(),
        );
        let (tree, fresh_tree) = (fmm.tree(), fresh.tree());
        let by_key: HashMap<_, _> = fresh_tree
            .alive_ids()
            .map(|id| (fresh_tree.node(id).key, id))
            .collect();
        assert_eq!(
            tree.num_alive_boxes(),
            fresh_tree.num_alive_boxes(),
            "{what}"
        );
        for id in tree.alive_ids() {
            let node = tree.node(id);
            let fid = by_key[&node.key];
            if node.is_leaf() {
                assert_eq!(
                    tree.leaf_ids(id),
                    fresh_tree.leaf_ids(fid),
                    "{what}: leaf order"
                );
            }
            let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(fmm.multipole(id)),
                bits(fresh.multipole(fid)),
                "{what}: box {:?}",
                node.key
            );
        }
    }

    #[test]
    fn repeated_indices_step_equal_rebuild_bitwise() {
        let n = 3000;
        let cfg = ResidentConfig {
            build: BuildParams {
                threshold: 20,
                ..BuildParams::default()
            },
            ..ResidentConfig::default()
        };
        let sources = uniform_cube(n, 19);
        let domain = Domain::containing(&[&sources], cfg.pad);
        let mut fmm = ResidentFmm::build_in_domain(Laplace, &sources, &charges(n), cfg, domain);
        let side = domain.side();
        for step in 0..3 {
            // Every 11th point moves twice (far, then back part of the
            // way), and a few a third time, in one list.
            let mut moves = Vec::new();
            for round in 0..3 {
                for i in (step..n).step_by(11 * (round + 1)) {
                    let s = if round == 1 { -0.6 } else { 1.0 };
                    moves.push(Displacement {
                        index: i as u32,
                        delta: [s * 0.1 * side, 0.03 * side, -s * 0.05 * side],
                    });
                }
            }
            let report = fmm.step(&moves, &[]);
            assert!(report.refit.rebinned > 0);
            assert_bitwise_rebuild(&fmm, cfg, &format!("step {step}"));
        }
    }

    #[test]
    fn coincident_points_step_equal_rebuild_bitwise() {
        // Dyadic coordinates and deltas: every sum is exact, so a twin
        // moved away and back coincides with its partner again.
        let grid = |x: f64| (x * 1024.0).round() / 1024.0;
        let mut sources: Vec<Point3> = uniform_cube(600, 3)
            .iter()
            .map(|p| Point3::new(grid(p.x), grid(p.y), grid(p.z)))
            .collect();
        for t in 0..40 {
            sources[300 + t] = sources[t];
        }
        let cfg = ResidentConfig {
            build: BuildParams {
                threshold: 8,
                ..BuildParams::default()
            },
            ..ResidentConfig::default()
        };
        let q: Vec<f64> = (0..sources.len()).map(|i| 1.0 + (i % 7) as f64).collect();
        let domain = Domain::containing(&[&sources], cfg.pad);
        let mut fmm = ResidentFmm::build_in_domain(Laplace, &sources, &q, cfg, domain);
        for twin in [0, 300] {
            let away: Vec<Displacement> = (twin..twin + 40)
                .map(|i| Displacement {
                    index: i as u32,
                    delta: [0.25, -0.125, 0.5],
                })
                .collect();
            let back: Vec<Displacement> = away
                .iter()
                .map(|m| Displacement {
                    index: m.index,
                    delta: [-0.25, 0.125, -0.5],
                })
                .collect();
            fmm.step(&away, &[]);
            assert_bitwise_rebuild(&fmm, cfg, &format!("twins {twin}.. away"));
            fmm.step(&back, &[]);
            assert_bitwise_rebuild(&fmm, cfg, &format!("twins {twin}.. back"));
            assert_eq!(fmm.current_sources(), sources, "the twins are back");
        }
    }

    /// The arena slots of every live box, as bits.
    fn arena_bits(fmm: &ResidentFmm<Laplace>) -> Vec<(u32, Vec<u64>)> {
        fmm.tree()
            .alive_ids()
            .map(|id| (id, fmm.multipole(id).iter().map(|x| x.to_bits()).collect()))
            .collect()
    }

    #[test]
    fn upward_pass_is_bitwise_at_any_thread_count() {
        let n = 20_000;
        let cfg = ResidentConfig {
            build: BuildParams {
                threshold: 30,
                ..BuildParams::default()
            },
            ..ResidentConfig::default()
        };
        let sources = uniform_cube(n, 11);
        let q = charges(n);
        let domain = Domain::containing(&[&sources], cfg.pad);
        let build =
            |threads| ResidentFmm::build_in_domain_on(Laplace, &sources, &q, cfg, domain, threads);
        let (mut one, mut three) = (build(1), build(3));
        let tree = one.tree();
        let leaves = tree.alive_ids().filter(|&id| tree.node(id).is_leaf());
        assert!(
            leaves.count() > 3 * UPWARD_CHUNK,
            "three threads need leaf chunks to share"
        );
        assert_eq!(arena_bits(&one), arena_bits(&three), "after the build");

        // Every 9th point moves a tenth of the domain: leaves split and
        // merge, and a strict subset of the boxes goes dirty.
        let side = domain.side();
        let moves: Vec<Displacement> = (0..n)
            .step_by(9)
            .map(|i| Displacement {
                index: i as u32,
                delta: [0.1 * side * ((i % 3) as f64 - 1.0), 0.05 * side, 0.0],
            })
            .collect();
        let a = one.step_on(&moves, &[], 1);
        let b = three.step_on(&moves, &[], 3);
        assert!(a.refit.structural(), "the step must split or merge");
        assert!(a.dirty_boxes < a.total_boxes);
        assert_eq!(
            (a.recomputed_leaves, a.recomputed_interiors),
            (b.recomputed_leaves, b.recomputed_interiors)
        );
        assert_eq!(arena_bits(&one), arena_bits(&three), "after the step");

        // A spawned thread's scratch lives for one pass: the engine keeps
        // only the caller's, so both hold the same bytes.
        assert_eq!(three.resident_bytes(), one.resident_bytes());
    }
}

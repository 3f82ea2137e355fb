//! Resident FMM state: build the source tree and its upward-pass
//! expansions **once**, then answer arbitrary target-batch queries against
//! the cached multipoles.
//!
//! The one-shot pipeline ([`crate::DashmmBuilder`]) couples sources and
//! targets: the DAG it assembles bakes the target leaves in, so a new
//! target set means a full re-assembly.  A long-lived evaluation service
//! has the opposite shape — one source ensemble, an open-ended stream of
//! small target batches — so [`ResidentFmm`] splits the work:
//!
//! 1. **Build** (once): octree over the sources, converted to refit form,
//!    then one batched upward pass over every box (see
//!    "Upward pass" below).  The flat multipole arena
//!    (`node slots × expansion_len`) is the cached state.
//! 2. **Query** (per batch): a treecode descent from the root under the
//!    same `θ` acceptance criterion the one-shot Barnes–Hut assembly uses,
//!    batching accepted boxes through `M→T` and leaf neighbours through
//!    `S→T` with the vectorized kernel rows.  The descent is one
//!    `(node, range)` stack over an index arena in a per-thread query
//!    workspace, the tables are resolved per level when the engine
//!    is built, and `M→T` reads the level's equivalent surface with the
//!    box's cached multipole as weights, so a warm query allocates nothing.
//! 3. **Step** (optional, see [`crate::step`]): sparse displacements and
//!    charge updates refit the tree in place, and the same upward pass
//!    runs over the dirty boxes only; the tree buffers, the arena and the
//!    pass's scratch are reused verbatim.
//!
//! **Upward pass.**  One routine serves the build and every step: the
//! boxes to (re)compute, deepest level first, leaves before interiors of a
//! level, in chunks of at most [`UPWARD_CHUNK`] boxes.  A chunk of leaves
//! writes its check-surface potentials into a panel ([`ops::s2m_check`])
//! and solves them with one `uc2ue` GEMM; a chunk of interiors runs eight
//! `M→M` GEMMs in ascending octant order into a zeroed panel, each reading
//! the children's expansions where they lie in the arena (a shared zero
//! column for an absent child).  That is the per-box accumulation order,
//! and the GEMM computes each column independently of the others in its
//! panel (`dashmm_linalg::gemm`), so an expansion does not depend on how
//! many boxes were dirty with it: a stepped engine stays bitwise equal to
//! a rebuild over the same points.
//!
//! The tree lives in refit form ([`RefitTree`]) from the start: per-leaf
//! point blocks whose initial order is exactly the builder's Morton
//! order, so a never-stepped engine is bit-for-bit the old one-shot
//! resident engine, and the multipole arena is indexed by node *slot* so
//! stepping never moves an expansion.
//!
//! **Batch-composition invariance** is the load-bearing property: each
//! target's (box, operator) interaction set and accumulation order is a
//! function of that target's position alone — the descent partitions the
//! active target set per node, it never lets one target's acceptance
//! decision steer another's path, and the kernel rows compute each target
//! with arithmetic that does not depend on the other targets of its call
//! (`dashmm_kernels::simd`, "Block invariance").  A service may therefore
//! fuse requests from different clients into one tile and still hand every
//! client bitwise what a single-shot evaluation of its own batch produces.

use std::cell::RefCell;
use std::sync::Arc;

use dashmm_expansion::{ops, AccuracyParams, BatchWorkspace, LevelTables, OperatorLibrary};
use dashmm_kernels::Kernel;
use dashmm_linalg::{gemm_acc_cols, gemm_acc_panels};
use dashmm_refit::{DirtySet, RefitTree};
use dashmm_tree::{BuildParams, Domain, Octree, Point3};

/// Boxes per panel of the upward pass: bounds its scratch (two
/// expansion-sized panels) whatever the number of boxes.
pub(crate) const UPWARD_CHUNK: usize = 64;

/// Configuration of a resident evaluation engine.
#[derive(Clone, Copy, Debug)]
pub struct ResidentConfig {
    /// Barnes–Hut acceptance parameter (smaller = more accurate).
    pub theta: f64,
    /// Expansion accuracy preset.
    pub accuracy: AccuracyParams,
    /// Octree refinement parameters.
    pub build: BuildParams,
    /// Relative padding of the bounding domain.
    pub pad: f64,
}

impl Default for ResidentConfig {
    fn default() -> Self {
        ResidentConfig {
            theta: 0.5,
            accuracy: AccuracyParams::three_digit(),
            build: BuildParams::default(),
            pad: 0.05,
        }
    }
}

/// Per-thread scratch of resident queries: the operators' workspace and
/// the descent's.  Every buffer keeps its capacity, so once warm a query
/// allocates nothing.
#[derive(Default)]
struct QueryWorkspace {
    ops: BatchWorkspace,
    descent: Descent,
}

/// The descent's `(node, range)` stack over an index arena.
#[derive(Default)]
struct Descent {
    /// Active target indices: the root's range, then each visited node's
    /// near subset, appended behind the ranges still on the stack.
    arena: Vec<u32>,
    /// Boxes still to visit, each with its range of `arena`.
    stack: Vec<(u32, u32, u32)>,
    /// Targets that accept the box being visited.
    far: Vec<u32>,
    /// One box's operator results, before they are added to the output.
    vals: Vec<f64>,
}

impl QueryWorkspace {
    /// Bytes currently reserved across every buffer.
    #[cfg(test)]
    fn reserved_bytes(&self) -> usize {
        let d = &self.descent;
        self.ops.scratch_bytes()
            + 4 * (d.arena.capacity() + d.far.capacity())
            + 12 * d.stack.capacity()
            + 8 * d.vals.capacity()
    }
}

thread_local! {
    /// So concurrent query threads of a service share the cached
    /// expansions without sharing scratch.
    static QUERY_WS: RefCell<QueryWorkspace> = RefCell::new(QueryWorkspace::default());
}

/// Where one evaluation's time went, split by operator family, plus the
/// interaction volume that explains it (telemetry for the service plane).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EvalProfile {
    /// Microseconds spent in batched far-field `M→T` applications.
    pub m2t_us: f64,
    /// Microseconds spent in batched near-field `S→T` (`P2P`) sums.
    pub p2p_us: f64,
    /// Far-field (target, accepted box) interactions evaluated.
    pub far_pairs: u64,
    /// Near-field (target, source) pairs summed directly.
    pub near_pairs: u64,
}

/// The cached source-side state of a resident FMM evaluation service.
pub struct ResidentFmm<K: Kernel> {
    pub(crate) tree: RefitTree,
    pub(crate) lib: OperatorLibrary<K>,
    /// The tables of every level of the tree, resolved at build and grown
    /// when a step deepens it.
    pub(crate) levels: Vec<Arc<LevelTables>>,
    pub(crate) theta: f64,
    /// Flat multipole arena: node slot `i`'s expansion is
    /// `multipoles[i*n_exp .. (i+1)*n_exp]` (stale for dead slots).
    pub(crate) multipoles: Vec<f64>,
    pub(crate) n_exp: usize,
    /// Dirty flags of the most recent step (empty before any step).
    pub(crate) dirty: DirtySet,
    pub(crate) upward: Upward,
}

/// Scratch of the upward pass, bounded by one chunk.
#[derive(Default)]
pub(crate) struct Upward {
    /// The boxes of the current pass.
    pub(crate) order: Vec<u32>,
    /// A chunk's check-surface potentials, one column per leaf.
    check: Vec<f64>,
    /// A chunk's expansions, one column per box.
    panel: Vec<f64>,
    /// The column of an absent child.
    zero: Vec<f64>,
    ws: BatchWorkspace,
}

impl Upward {
    fn bytes(&self) -> usize {
        4 * self.order.capacity()
            + 8 * (self.check.capacity() + self.panel.capacity() + self.zero.capacity())
            + self.ws.scratch_bytes()
    }
}

impl<K: Kernel> ResidentFmm<K> {
    /// Build the tree over the smallest padded cube containing the
    /// sources and run the upward pass; everything a query needs is
    /// cached on return.
    pub fn build(kernel: K, sources: &[Point3], charges: &[f64], cfg: ResidentConfig) -> Self {
        assert!(!sources.is_empty(), "at least one source required");
        let domain = Domain::containing(&[sources], cfg.pad);
        Self::build_in_domain(kernel, sources, charges, cfg, domain)
    }

    /// Build inside an explicit `domain` (ignoring `cfg.pad`).  Stepping
    /// verification depends on this: a from-scratch rebuild over the
    /// *same* fixed domain is the reference a stepped engine is compared
    /// against, box for box.
    pub fn build_in_domain(
        kernel: K,
        sources: &[Point3],
        charges: &[f64],
        cfg: ResidentConfig,
        domain: Domain,
    ) -> Self {
        assert_eq!(sources.len(), charges.len(), "one charge per source");
        assert!(!sources.is_empty(), "at least one source required");
        assert!(cfg.theta > 0.0, "theta must be positive");
        let octree = Octree::build(domain, sources, cfg.build);
        let lib = OperatorLibrary::new(kernel, cfg.accuracy, domain.side(), false);
        let n_exp = cfg.accuracy.surface_points();
        let mut fmm = ResidentFmm {
            tree: RefitTree::from_octree(&octree, charges),
            lib,
            levels: Vec::new(),
            theta: cfg.theta,
            multipoles: Vec::new(),
            n_exp,
            dirty: DirtySet::new(),
            upward: Upward::default(),
        };
        drop(octree);
        fmm.upward.order.extend(fmm.tree.alive_ids());
        fmm.upward_pass();
        fmm
    }

    /// Recompute the expansion of every box in `self.upward.order` (see
    /// "Upward pass" in the module docs), returning how many leaves and
    /// interiors it computed.  Every box's children must be in the set or
    /// already final.
    pub(crate) fn upward_pass(&mut self) -> (usize, usize) {
        // A step that deepens the tree brings its new levels' tables.
        while self.levels.len() <= self.tree.depth() as usize {
            self.levels.push(self.lib.tables(self.levels.len() as u8));
        }
        // The arena is indexed by node slot and only ever grows; slot
        // reuse is safe because recycled slots are always recomputed.
        let n_exp = self.n_exp;
        let need = self.tree.num_slots() * n_exp;
        if self.multipoles.len() < need {
            self.multipoles.resize(need, 0.0);
        }
        let ResidentFmm {
            tree,
            lib,
            levels,
            multipoles,
            upward,
            ..
        } = self;
        let Upward {
            order,
            check,
            panel,
            zero,
            ws,
        } = upward;
        order.sort_unstable_by_key(|&id| {
            let n = tree.node(id);
            (std::cmp::Reverse(n.key.level), !n.is_leaf())
        });
        zero.resize(n_exp, 0.0);
        panel.resize(UPWARD_CHUNK * n_exp, 0.0);
        let (mut leaves, mut interiors) = (0, 0);
        let mut rest = &order[..];
        while let Some(&first) = rest.first() {
            let (level, leaf) = (tree.node(first).key.level, tree.node(first).is_leaf());
            let run = rest
                .iter()
                .position(|&id| {
                    let n = tree.node(id);
                    n.key.level != level || n.is_leaf() != leaf
                })
                .unwrap_or(rest.len());
            let t = &levels[level as usize];
            for chunk in rest[..run].chunks(UPWARD_CHUNK) {
                let out = &mut panel[..chunk.len() * n_exp];
                out.fill(0.0);
                if leaf {
                    let n_check = t.uc().len();
                    check.resize(UPWARD_CHUNK * n_check, 0.0);
                    for (&id, col) in chunk.iter().zip(check.chunks_exact_mut(n_check)) {
                        let (pts, q) = tree.leaf_points(id);
                        ops::s2m_check(lib.kernel(), t, tree.center_of(id), pts, q, ws, col);
                    }
                    gemm_acc_panels(t.uc2ue(), &check[..chunk.len() * n_check], out);
                } else {
                    let mut cols = [&zero[..]; UPWARD_CHUNK];
                    for octant in 0..8u8 {
                        for (&id, col) in chunk.iter().zip(cols.iter_mut()) {
                            let c = tree.node(id).children[octant as usize];
                            *col = if c >= 0 {
                                &multipoles[c as usize * n_exp..(c as usize + 1) * n_exp]
                            } else {
                                &zero[..]
                            };
                        }
                        gemm_acc_cols(t.m2m(octant), &cols[..chunk.len()], out);
                    }
                }
                for (&id, col) in chunk.iter().zip(out.chunks_exact(n_exp)) {
                    multipoles[id as usize * n_exp..(id as usize + 1) * n_exp].copy_from_slice(col);
                }
            }
            if leaf {
                leaves += run;
            } else {
                interiors += run;
            }
            rest = &rest[run..];
        }
        (leaves, interiors)
    }

    /// Number of cached sources.
    pub fn num_sources(&self) -> usize {
        self.tree.num_points()
    }

    /// Depth of the cached tree.
    pub fn depth(&self) -> u8 {
        self.tree.depth()
    }

    /// Live boxes in the cached tree.
    pub fn num_nodes(&self) -> usize {
        self.tree.num_alive_boxes()
    }

    /// Length of one cached multipole expansion.
    pub fn expansion_len(&self) -> usize {
        self.n_exp
    }

    /// The acceptance parameter queries run under.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The resident tree in refit form.
    pub fn tree(&self) -> &RefitTree {
        &self.tree
    }

    /// The fixed computational domain.
    pub fn domain(&self) -> &Domain {
        self.tree.domain()
    }

    /// The cached multipole expansion of a (live) box slot.
    pub fn multipole(&self, id: u32) -> &[f64] {
        &self.multipoles[id as usize * self.n_exp..(id as usize + 1) * self.n_exp]
    }

    /// Dirty-reason bits of a box from the most recent
    /// [`step`](Self::step) (0 = clean / never stepped).
    pub fn dirty_reason(&self, id: u32) -> u8 {
        self.dirty.reason(id)
    }

    /// Current source positions in original index order.
    pub fn current_sources(&self) -> Vec<Point3> {
        (0..self.tree.num_points() as u32)
            .map(|i| self.tree.position_of(i))
            .collect()
    }

    /// Current charges in original index order.
    pub fn current_charges(&self) -> Vec<f64> {
        (0..self.tree.num_points() as u32)
            .map(|i| self.tree.charge_of(i))
            .collect()
    }

    /// Bytes of held capacity across every persistent structure of the
    /// engine (the step-loop footprint-stability probe).
    pub fn resident_bytes(&self) -> usize {
        self.tree.footprint_bytes()
            + self.dirty.scratch_bytes()
            + 8 * self.multipoles.capacity()
            + self.upward.bytes()
    }

    /// Evaluate the potential at each target, overwriting `out`
    /// (`out.len() == targets.len()`), using the caller's workspace for
    /// the operators and this thread's query workspace for the descent.
    pub fn eval_points(&self, targets: &[Point3], ws: &mut BatchWorkspace, out: &mut [f64]) {
        QUERY_WS.with(|q| {
            let d = &mut q.borrow_mut().descent;
            self.descend::<false>(targets.len(), |i| targets[i as usize], ws, d, out);
        });
    }

    /// Evaluate at raw `[x, y, z]` targets (the service wire shape),
    /// overwriting `out`.  Uses this thread's query workspace, so a
    /// server may call this from several worker threads concurrently.
    pub fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]) {
        self.evaluate_impl::<false>(targets, out);
    }

    /// [`evaluate`](Self::evaluate) with the operator-level time and
    /// interaction-volume breakdown a serving layer forwards into its
    /// telemetry plane.  The unprofiled path pays nothing: clock reads are
    /// compiled out unless the profile is requested.
    pub fn evaluate_profiled(&self, targets: &[[f64; 3]], out: &mut [f64]) -> EvalProfile {
        self.evaluate_impl::<true>(targets, out)
    }

    fn evaluate_impl<const PROFILE: bool>(
        &self,
        targets: &[[f64; 3]],
        out: &mut [f64],
    ) -> EvalProfile {
        let at = |i: u32| {
            let [x, y, z] = targets[i as usize];
            Point3::new(x, y, z)
        };
        QUERY_WS.with(|q| {
            let QueryWorkspace { ops, descent } = &mut *q.borrow_mut();
            self.descend::<PROFILE>(targets.len(), at, ops, descent, out)
        })
    }

    /// The treecode descent over targets `0..n` (positions from `at`),
    /// overwriting `out`.  Each node's range of the arena is partitioned
    /// into the targets accepting the box (one `M→T`) and the rest, which
    /// go on to the leaf's `S→T` or are appended once as the children's
    /// shared range.  Every acceptance decision reads one target's position
    /// and one box, so each target follows the path it would follow alone —
    /// the invariance the module docs promise.
    fn descend<const PROFILE: bool>(
        &self,
        n: usize,
        at: impl Fn(u32) -> Point3,
        ws: &mut BatchWorkspace,
        d: &mut Descent,
        out: &mut [f64],
    ) -> EvalProfile {
        let mut profile = EvalProfile::default();
        assert_eq!(n, out.len(), "one output per target");
        out.fill(0.0);
        if n == 0 {
            return profile;
        }
        let kernel = self.lib.kernel();
        let Descent {
            arena,
            stack,
            far,
            vals,
        } = d;
        arena.clear();
        arena.extend(0..n as u32);
        stack.clear();
        stack.push((0, 0, n as u32));
        while let Some((s, a, b)) = stack.pop() {
            // The ranges still on the stack end at or before this one: what
            // lies past it was a finished subtree's.
            arena.truncate(b as usize);
            let node = self.tree.node(s);
            let sc = self.tree.center_of(s);
            let sh = self.tree.half_of(s);
            far.clear();
            for k in a as usize..b as usize {
                let ti = arena[k];
                let delta = sc - at(ti);
                // Point targets: the max-norm gap test of the one-shot BH
                // assembly with a zero target half-width.
                let gap = delta.x.abs().max(delta.y.abs()).max(delta.z.abs());
                if gap >= 2.96 * sh && 2.0 * sh <= self.theta * delta.norm() {
                    far.push(ti);
                } else {
                    arena.push(ti);
                }
            }
            let near = b as usize..arena.len();
            if !far.is_empty() {
                // Well-separated: one `M→T` of the accepted targets against
                // this box's cached multipole.
                let t0 = PROFILE.then(std::time::Instant::now);
                let t = &self.levels[node.key.level as usize];
                vals.clear();
                vals.resize(far.len(), 0.0);
                let m = self.multipole(s);
                ops::m2t(kernel, t, sc, m, far.iter().map(|&i| at(i)), ws, vals);
                add_at(out, far, vals);
                if let Some(t0) = t0 {
                    profile.m2t_us += t0.elapsed().as_secs_f64() * 1e6;
                    profile.far_pairs += far.len() as u64;
                }
            }
            if near.is_empty() {
                continue;
            }
            if node.is_leaf() {
                let (pts, q) = self.tree.leaf_points(s);
                let near = &arena[near];
                let t0 = PROFILE.then(std::time::Instant::now);
                vals.clear();
                vals.resize(near.len(), 0.0);
                ops::p2p(kernel, pts, q, near.iter().map(|&i| at(i)), ws, vals);
                add_at(out, near, vals);
                if let Some(t0) = t0 {
                    profile.p2p_us += t0.elapsed().as_secs_f64() * 1e6;
                    profile.near_pairs += (near.len() * pts.len()) as u64;
                }
            } else {
                for c in node.child_ids() {
                    if self.tree.node(c).count > 0 {
                        stack.push((c, near.start as u32, near.end as u32));
                    }
                }
            }
        }
        profile
    }
}

/// `out[idx[k]] += vals[k]`: one box's results into the targets' outputs.
fn add_at(out: &mut [f64], idx: &[u32], vals: &[f64]) {
    for (&i, v) in idx.iter().zip(vals) {
        out[i as usize] += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_kernels::{direct_sum, Laplace, Yukawa};
    use dashmm_tree::uniform_cube;

    fn rel_err(approx: &[f64], exact: &[f64]) -> f64 {
        let num: f64 = approx
            .iter()
            .zip(exact)
            .map(|(a, e)| (a - e) * (a - e))
            .sum();
        let den: f64 = exact.iter().map(|e| e * e).sum();
        (num / den).sqrt()
    }

    fn charges(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect()
    }

    fn raw(pts: &[Point3]) -> Vec<[f64; 3]> {
        pts.iter().map(|p| [p.x, p.y, p.z]).collect()
    }

    #[test]
    fn matches_direct_sum_laplace() {
        let n = 1500;
        let sources = uniform_cube(n, 11);
        let q = charges(n);
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let targets = uniform_cube(200, 99);
        let mut ws = BatchWorkspace::new();
        let mut got = vec![0.0; targets.len()];
        fmm.eval_points(&targets, &mut ws, &mut got);
        let want = direct_sum(&Laplace, &raw(&sources), &q, &raw(&targets), 1);
        assert!(
            rel_err(&got, &want) < 5e-3,
            "rel err {} over BH tolerance",
            rel_err(&got, &want)
        );
    }

    #[test]
    fn matches_direct_sum_yukawa() {
        let n = 800;
        let sources = uniform_cube(n, 3);
        let q = charges(n);
        let fmm = ResidentFmm::build(Yukawa::new(1.0), &sources, &q, ResidentConfig::default());
        let targets = uniform_cube(100, 7);
        let mut ws = BatchWorkspace::new();
        let mut got = vec![0.0; targets.len()];
        fmm.eval_points(&targets, &mut ws, &mut got);
        let want = direct_sum(&Yukawa::new(1.0), &raw(&sources), &q, &raw(&targets), 1);
        assert!(
            rel_err(&got, &want) < 5e-3,
            "rel err {} over BH tolerance",
            rel_err(&got, &want)
        );
    }

    #[test]
    fn batch_composition_invariant() {
        let n = 1000;
        let sources = uniform_cube(n, 5);
        let q = charges(n);
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let targets: Vec<[f64; 3]> = uniform_cube(96, 21)
            .iter()
            .map(|p| [p.x, p.y, p.z])
            .collect();

        // One fused batch.
        let mut fused = vec![0.0; targets.len()];
        fmm.evaluate(&targets, &mut fused);

        // The same targets one at a time.
        let mut single = vec![0.0; targets.len()];
        for (i, t) in targets.iter().enumerate() {
            let mut one = [0.0];
            fmm.evaluate(std::slice::from_ref(t), &mut one);
            single[i] = one[0];
        }

        // And in ragged sub-batches.
        let mut ragged = vec![0.0; targets.len()];
        let mut off = 0;
        for chunk in [7usize, 1, 30, 19, 39] {
            let mut part = vec![0.0; chunk];
            fmm.evaluate(&targets[off..off + chunk], &mut part);
            ragged[off..off + chunk].copy_from_slice(&part);
            off += chunk;
        }
        assert_eq!(off, targets.len());

        for i in 0..targets.len() {
            assert_eq!(
                fused[i].to_bits(),
                single[i].to_bits(),
                "target {i}: fused vs single"
            );
            assert_eq!(
                fused[i].to_bits(),
                ragged[i].to_bits(),
                "target {i}: fused vs ragged"
            );
        }
    }

    /// `probe`'s answer at every slot of batches of 1 to 9 is bitwise
    /// its single-shot answer.
    fn probe_every_position<K: Kernel>(fmm: &ResidentFmm<K>, others: &[[f64; 3]], probe: [f64; 3]) {
        let mut alone = [0.0];
        fmm.evaluate(&[probe], &mut alone);
        for len in 1..=9 {
            for pos in 0..len {
                let mut batch = others[..len].to_vec();
                batch[pos] = probe;
                let mut out = vec![0.0; len];
                fmm.evaluate(&batch, &mut out);
                assert_eq!(
                    out[pos].to_bits(),
                    alone[0].to_bits(),
                    "len {len} pos {pos}"
                );
            }
        }
    }

    #[test]
    fn every_block_position_is_bitwise_single_shot() {
        // The kernel rows take targets four at a time with a remainder
        // block: a target's answer must not depend on which block or slot
        // it lands in, nor on its neighbours.
        let n = 1000;
        let sources = uniform_cube(n, 9);
        let q = charges(n);
        let laplace = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let yukawa = ResidentFmm::build(Yukawa::new(1.5), &sources, &q, ResidentConfig::default());
        let others = raw(&uniform_cube(9, 41));
        for probe in raw(&uniform_cube(6, 43)) {
            probe_every_position(&laplace, &others, probe);
            probe_every_position(&yukawa, &others, probe);
        }
    }

    #[test]
    fn repeated_queries_reserve_nothing_new() {
        // A warm query allocates nothing: after one pass over the batches,
        // further passes leave the query workspace's reservation unchanged.
        let n = 2000;
        let sources = uniform_cube(n, 15);
        let q = charges(n);
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let batches: Vec<Vec<[f64; 3]>> = (0..4).map(|s| raw(&uniform_cube(16, 50 + s))).collect();
        let mut out = vec![0.0; 16];
        let reserved = || QUERY_WS.with(|ws| ws.borrow().reserved_bytes());
        for b in &batches {
            fmm.evaluate(b, &mut out);
            fmm.evaluate_profiled(b, &mut out);
        }
        let warm = reserved();
        assert!(warm > 0, "the warm-up must have sized the workspace");
        for _ in 0..3 {
            for b in &batches {
                fmm.evaluate(b, &mut out);
                fmm.evaluate_profiled(b, &mut out);
                assert_eq!(reserved(), warm, "a warm query grew the workspace");
            }
        }
    }

    #[test]
    fn profiled_eval_matches_plain_and_counts_pairs() {
        let n = 1200;
        let sources = uniform_cube(n, 17);
        let q = charges(n);
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let targets = raw(&uniform_cube(64, 33));
        let mut plain = vec![0.0; targets.len()];
        fmm.evaluate(&targets, &mut plain);
        let mut profiled = vec![0.0; targets.len()];
        let prof = fmm.evaluate_profiled(&targets, &mut profiled);
        assert_eq!(plain, profiled, "profiling must not change the numbers");
        assert!(prof.far_pairs > 0, "a deep tree yields far-field work");
        assert!(prof.near_pairs > 0, "leaf neighbours yield near-field work");
        assert!(prof.m2t_us >= 0.0 && prof.p2p_us >= 0.0);
        // An empty batch reports an empty profile.
        let mut none: [f64; 0] = [];
        assert_eq!(
            fmm.evaluate_profiled(&[], &mut none),
            EvalProfile::default()
        );
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let sources = uniform_cube(100, 1);
        let q = charges(100);
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        let mut out: [f64; 0] = [];
        fmm.evaluate(&[], &mut out);
    }

    #[test]
    fn single_leaf_tree_uses_pure_s2t() {
        // A tree that never refines (few points) serves queries straight
        // from the leaf's sources; targets inside the box must be exact.
        let sources = vec![
            Point3::new(0.1, 0.2, 0.3),
            Point3::new(-0.4, 0.1, -0.2),
            Point3::new(0.3, -0.3, 0.0),
        ];
        let q = [2.0, -1.0, 0.5];
        let fmm = ResidentFmm::build(Laplace, &sources, &q, ResidentConfig::default());
        assert_eq!(fmm.depth(), 0, "three points must not refine");
        let target = [0.05, 0.05, 0.05];
        let mut out = [0.0];
        fmm.evaluate(&[target], &mut out);
        let want = dashmm_kernels::direct_sum_at(&Laplace, &raw(&sources), &q, &target);
        assert!(
            (out[0] - want).abs() <= 1e-12 * want.abs().max(1.0),
            "pure S→T must be exact: got {}, want {want}",
            out[0]
        );
    }
}

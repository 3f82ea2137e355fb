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
//! **Upward pass.**  One routine serves the build and every step, on
//! every core of the host.  The boxes to (re)compute are sorted so that
//! every leaf, at every level, comes first: leaves depend on nothing, so
//! they are one parallel sweep.  The interiors follow, deepest level
//! first, with one barrier before each interior level.  Each level's run
//! is cut into chunks of at most `UPWARD_CHUNK` boxes, and the threads
//! claim chunks from one atomic counter.  A chunk of leaves writes its
//! check-surface potentials into a panel ([`ops::s2m_check`]) and solves
//! them with one `uc2ue` GEMM; a chunk of interiors runs eight `M→M` GEMMs
//! in ascending octant order into a zeroed panel, each reading the
//! children's expansions where they lie in the arena (a shared zero column
//! for an absent child).  The thread then copies the panel's columns into
//! the boxes' arena slots.  Every thread owns its scratch; the engine
//! keeps the calling thread's, and a spawned thread's lives for one pass.
//!
//! That is the per-box accumulation order, and the GEMM computes each
//! column independently of the others in its panel
//! (`dashmm_linalg::gemm`), so an expansion depends neither on how many
//! boxes were dirty with it, nor on its chunk, nor on the thread that
//! claimed the chunk: a stepped engine stays bitwise equal to a rebuild
//! over the same points at any thread count.  The thread count is the
//! host's parallelism, capped at the number of leaf chunks.  With one
//! thread the same code runs inline on the caller and spawns nothing.
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
use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

use dashmm_expansion::{ops, AccuracyParams, BatchWorkspace, LevelTables, OperatorLibrary};
use dashmm_kernels::Kernel;
use dashmm_linalg::{gemm_acc_cols, gemm_acc_panels};
use dashmm_refit::{DirtySet, RefitTree};
use dashmm_tree::{BuildParams, Domain, Octree, Point3};

/// Boxes per panel of the upward pass: bounds each thread's scratch (two
/// expansion-sized panels) whatever the number of boxes.
pub(crate) const UPWARD_CHUNK: usize = 64;

/// The threads an upward pass may use: the host's parallelism.
pub(crate) fn host_threads() -> usize {
    static N: OnceLock<usize> = OnceLock::new();
    *N.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

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

/// The upward pass's order and the calling thread's scratch, kept across
/// passes.  A thread the pass spawns gets scratch for that pass only, so
/// an engine holds one thread's scratch whatever the host's parallelism.
#[derive(Default)]
pub(crate) struct Upward {
    /// The boxes of the current pass.
    pub(crate) order: Vec<u32>,
    /// The chunks, as ranges of `order`: boxes of one level, all leaves or
    /// all interiors.
    chunks: Vec<(u32, u32)>,
    /// Where each phase ends in `chunks`: the leaves, then one phase per
    /// interior level, deepest first.
    phases: Vec<usize>,
    /// The column of an absent child, read by every thread.
    zero: Vec<f64>,
    /// The calling thread's scratch.
    scratch: Scratch,
}

/// One thread's scratch, bounded by one chunk.
#[derive(Default)]
struct Scratch {
    /// A chunk's check-surface potentials, one column per leaf.
    check: Vec<f64>,
    /// A chunk's expansions, one column per box.
    panel: Vec<f64>,
    ws: BatchWorkspace,
}

impl Scratch {
    /// Size for any chunk of a pass: check surfaces of up to `n_check`
    /// points, expansions of `n_exp` terms, leaves of up to `max_leaf`
    /// points.
    fn fit(&mut self, n_check: usize, n_exp: usize, max_leaf: usize) {
        self.check.resize(UPWARD_CHUNK * n_check, 0.0);
        self.panel.resize(UPWARD_CHUNK * n_exp, 0.0);
        self.ws.reserve_sources(max_leaf);
    }
}

impl Upward {
    fn bytes(&self) -> usize {
        let s = &self.scratch;
        4 * self.order.capacity()
            + 8 * (self.chunks.capacity() + self.phases.capacity() + self.zero.capacity())
            + 8 * (s.check.capacity() + s.panel.capacity())
            + s.ws.scratch_bytes()
    }
}

/// The multipole arena as the threads of one pass share it.
///
/// A pass writes the slots of the boxes in its order, each box in exactly
/// one chunk and each chunk claimed by exactly one thread, so no two
/// threads write one slot.  A chunk reads only its interiors' children:
/// leaves, or interiors one level deeper, whose chunks were finished
/// before the barrier ahead of its phase, or clean boxes no pass writes.
#[derive(Clone, Copy)]
struct Arena {
    base: *mut f64,
    n_exp: usize,
}

// SAFETY: `n_exp` is never written; `base` is only read, and the threads
// of a pass touch the memory behind it only through `slot` and `write`,
// under the access rule of the type docs.
unsafe impl Sync for Arena {}

impl Arena {
    /// Slot `id`'s expansion.
    ///
    /// # Safety
    ///
    /// `id` is a slot of the arena, and no thread writes it while the
    /// borrow lives.
    unsafe fn slot(&self, id: u32) -> &[f64] {
        std::slice::from_raw_parts(self.base.add(id as usize * self.n_exp), self.n_exp)
    }

    /// Overwrite slot `id` with `col`.
    ///
    /// # Safety
    ///
    /// `id` is a slot of the arena, `col` is one expansion long, and no
    /// other thread reads or writes the slot meanwhile.
    unsafe fn write(&self, id: u32, col: &[f64]) {
        debug_assert_eq!(col.len(), self.n_exp);
        let dst = self.base.add(id as usize * self.n_exp);
        std::ptr::copy_nonoverlapping(col.as_ptr(), dst, self.n_exp);
    }
}

/// What every thread of one upward pass reads.
struct Pass<'a, K: Kernel> {
    tree: &'a RefitTree,
    kernel: &'a K,
    levels: &'a [Arc<LevelTables>],
    order: &'a [u32],
    chunks: &'a [(u32, u32)],
    zero: &'a [f64],
    arena: Arena,
}

impl<K: Kernel> Pass<'_, K> {
    /// Compute chunk `c` and write its expansions into their arena slots.
    fn run(&self, c: usize, s: &mut Scratch) {
        let Scratch { check, panel, ws } = s;
        let n_exp = self.arena.n_exp;
        let (a, b) = self.chunks[c];
        let ids = &self.order[a as usize..b as usize];
        let node = self.tree.node(ids[0]);
        let t = &self.levels[node.key.level as usize];
        let out = &mut panel[..ids.len() * n_exp];
        out.fill(0.0);
        if node.is_leaf() {
            let n_check = t.uc().len();
            for (&id, col) in ids.iter().zip(check.chunks_exact_mut(n_check)) {
                let (pts, q) = self.tree.leaf_points(id);
                let center = self.tree.center_of(id);
                ops::s2m_check(self.kernel, t.uc(), center, pts, q, ws, col);
            }
            gemm_acc_panels(t.uc2ue(), &check[..ids.len() * n_check], out);
        } else {
            let mut cols = [self.zero; UPWARD_CHUNK];
            for octant in 0..8u8 {
                for (&id, col) in ids.iter().zip(cols.iter_mut()) {
                    let child = self.tree.node(id).children[octant as usize];
                    *col = if child >= 0 {
                        // SAFETY: a child is a leaf or a deeper interior,
                        // finished before this phase's barrier (`Arena`).
                        unsafe { self.arena.slot(child as u32) }
                    } else {
                        self.zero
                    };
                }
                gemm_acc_cols(t.m2m(octant), &cols[..ids.len()], out);
            }
        }
        for (&id, col) in ids.iter().zip(out.chunks_exact(n_exp)) {
            // SAFETY: box `id` is in this chunk alone, the chunk was
            // claimed by this thread alone, and no box of this phase reads
            // it (`Arena`).
            unsafe { self.arena.write(id, col) };
        }
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
        Self::build_in_domain_on(kernel, sources, charges, cfg, domain, host_threads())
    }

    /// [`build_in_domain`](Self::build_in_domain) with an upward pass on at
    /// most `threads` threads.
    pub(crate) fn build_in_domain_on(
        kernel: K,
        sources: &[Point3],
        charges: &[f64],
        cfg: ResidentConfig,
        domain: Domain,
        threads: usize,
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
        fmm.upward_pass(threads);
        fmm
    }

    /// Recompute the expansion of every box in `self.upward.order` (see
    /// "Upward pass" in the module docs) on at most `threads` threads,
    /// returning how many leaves and interiors it computed.  Every box's
    /// children must be in the set or already final.
    pub(crate) fn upward_pass(&mut self, threads: usize) -> (usize, usize) {
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
            chunks,
            phases,
            zero,
            scratch,
        } = upward;
        order.sort_unstable_by_key(|&id| {
            let n = tree.node(id);
            (!n.is_leaf(), Reverse(n.key.level))
        });
        chunks.clear();
        phases.clear();
        let (mut leaves, mut interiors, mut max_leaf) = (0, 0, 0);
        let mut start = 0;
        while start < order.len() {
            let first = tree.node(order[start]);
            let (level, leaf) = (first.key.level, first.is_leaf());
            let end = order[start..]
                .iter()
                .position(|&id| {
                    let n = tree.node(id);
                    n.key.level != level || n.is_leaf() != leaf
                })
                .map_or(order.len(), |run| start + run);
            for a in (start..end).step_by(UPWARD_CHUNK) {
                chunks.push((a as u32, end.min(a + UPWARD_CHUNK) as u32));
            }
            if leaf {
                leaves += end - start;
                for &id in &order[start..end] {
                    max_leaf = max_leaf.max(tree.leaf_points(id).0.len());
                }
            } else {
                interiors += end - start;
            }
            // All leaves are one phase; every interior level is its own.
            match phases.last_mut() {
                Some(last) if leaf => *last = chunks.len(),
                _ => phases.push(chunks.len()),
            }
            start = end;
        }
        let leaf_chunks = if leaves > 0 { phases[0] } else { 0 };
        let threads = threads.min(leaf_chunks).max(1);

        let n_check = levels.iter().map(|t| t.uc().len()).max().unwrap_or(0);
        scratch.fit(n_check, n_exp, max_leaf);
        zero.resize(n_exp, 0.0);

        let pass = Pass {
            tree,
            kernel: lib.kernel(),
            levels,
            order,
            chunks,
            zero,
            arena: Arena {
                base: multipoles.as_mut_ptr(),
                n_exp,
            },
        };
        // The counter only hands out chunk indices (`Relaxed`); the
        // barriers and the scope's join order the arena's writes before
        // their reads.  On one thread the barrier returns at once and the
        // scope spawns nothing: the pass runs inline on the caller.
        let next = AtomicUsize::new(0);
        let barrier = Barrier::new(threads);
        let work = |s: &mut Scratch| {
            let mut c = next.fetch_add(1, Ordering::Relaxed);
            for (p, &end) in phases.iter().enumerate() {
                while c < end {
                    pass.run(c, s);
                    c = next.fetch_add(1, Ordering::Relaxed);
                }
                // Every chunk of this phase has been claimed, and each
                // thread arrives only after finishing its own.
                if p + 1 < phases.len() {
                    barrier.wait();
                }
            }
        };
        let work = &work;
        // A spawned thread's scratch is allocated here, by the caller, and
        // freed with the pass.
        let mut spawned: Vec<Scratch> = (1..threads)
            .map(|_| {
                let mut s = Scratch::default();
                s.fit(n_check, n_exp, max_leaf);
                s
            })
            .collect();
        std::thread::scope(|sc| {
            for s in &mut spawned {
                sc.spawn(move || work(s));
            }
            work(scratch);
        });
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

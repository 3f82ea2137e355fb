//! The implicit DAG: a network of runtime LCOs mirroring the explicit DAG.
//!
//! Each expansion node becomes one user-defined LCO (paper §IV, Figure 2):
//! its stored data is the expansion, arriving inputs *reduce* into it
//! (element-wise addition, or offset-addressed addition into the stored
//! slots of an `Is` node), and when the final input lands the runtime
//! spawns one continuation that processes the node's out-edge list.  Local
//! edges are transformed and set sequentially; remote edges are coalesced
//! into a single parcel per destination locality carrying the expansion
//! data and the edge descriptors, evaluated as normal on arrival.
//!
//! An `Is` node stores only the own-direction windows something reads
//! after its `M→I` flush: a translation into an `It`, or a merge shift into
//! a parent on another locality.  Every merge shift into a parent on the
//! same locality is applied inside that flush, from the fresh six-direction
//! panel, so its window is never stored (`stored_mask`).
//!
//! An `It` node stores nothing.  Its LCO is a gate that counts its `I→I`
//! in-edges; their sources, the fired `Is` payloads (or a bundle's copy of
//! them), are published at the locality that holds them.  When the gate's
//! last input lands, one task gathers every in-edge's translation into a
//! fresh buffer, in edge order, and hands it to the node's `I→L`.
//!
//! The network is built once per [`crate::Evaluation`] and re-armed for
//! every later evaluation ([`ExecCtx::rearm`]): the paper's iterative use
//! case pays for allocation, the batch plan and the action table once.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Weak};

use dashmm_amt::codec::{read_body, write_body, BodyCursor, BodyError};
use dashmm_amt::{
    ActionId, EdgeBatcher, GlobalAddress, LcoOp, LcoSpec, Parcel, ProgressLedger, Runtime, TaskCtx,
    CLASS_RECOVERY, DEFAULT_BATCH_THRESHOLD,
};
use dashmm_dag::{Dag, DagEdge, EdgeOp, NodeClass};
use dashmm_expansion::{batch as opbatch, ops, BatchWorkspace, LevelTables, OperatorLibrary};
use dashmm_kernels::Kernel;
use dashmm_tree::Point3;
use parking_lot::{Mutex, RwLock};

use crate::assemble::{unpack_i2i, Assembly};
use crate::problem::Problem;

/// Operator identity shared by a batch of edges: what the build sweep
/// numbers each distinct key by.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum BatchKey {
    /// `M→M` into parents at `level` from children in `octant`.
    M2M { level: u8, octant: u8 },
    /// Same-level `M→L` at `level` for one integer box offset.
    M2L { level: u8, offset: (i8, i8, i8) },
    /// `L→L` into children at `level` in `octant`.
    L2L { level: u8, octant: u8 },
    /// `M→I` at `level`: the six directions' stacked table.
    M2I { level: u8 },
    /// `I→L` at `level`: the six directions' stacked table.
    I2L { level: u8 },
    /// Diagonal `I→I` at basis `level`, direction `dir`, quarter-box-side
    /// quantised translation `delta`.
    I2I {
        level: u8,
        dir: u8,
        delta: (i16, i16, i16),
    },
    /// Near-field `S→T` into the target leaf DAG node `dst`: all source
    /// leaves of one target block fuse into a single SoA evaluation.
    S2T { dst: u32 },
}

/// What every flush of one batch key applies, resolved when the graph is
/// built so a flush looks nothing up: the tables of the key's level, then
/// the key's own fields — or for `I→I` the factor vector itself.
enum KeyOp {
    M2M(Arc<LevelTables>, u8),
    M2L(Arc<LevelTables>, (i8, i8, i8)),
    L2L(Arc<LevelTables>, u8),
    M2I(Arc<LevelTables>),
    I2L(Arc<LevelTables>),
    I2I(Arc<Vec<f64>>),
    S2T(u32),
}

impl KeyOp {
    /// The operator's trace class.
    fn class(&self) -> u8 {
        let op = match self {
            KeyOp::M2M(..) => EdgeOp::M2M,
            KeyOp::M2L(..) => EdgeOp::M2L,
            KeyOp::L2L(..) => EdgeOp::L2L,
            KeyOp::M2I(..) => EdgeOp::M2I,
            KeyOp::I2L(..) => EdgeOp::I2L,
            KeyOp::I2I(..) => EdgeOp::I2I,
            KeyOp::S2T(..) => EdgeOp::S2T,
        };
        op.index() as u8
    }
}

/// The dense batch plan: each distinct [`BatchKey`] numbered once, in edge
/// order, so the batchers are indexed rather than hashed.
struct BatchPlan {
    /// Per key: what its flushes apply.
    ops: Vec<KeyOp>,
    /// Per flat DAG edge: its key, `None` for the per-edge operators.
    edge_key: Vec<Option<u32>>,
}

/// What a run still brings under the owner column ([`ExecCtx::due`]).
struct Due {
    /// Per locality, per batch key: the deposits due.  Zero at the
    /// localities another process hosts — their edges drain there.
    deposits: Vec<Vec<u32>>,
    /// Per DAG node: the LCO inputs due.
    inputs: Vec<u32>,
}

/// The `I→I` edges no batcher carries, listed by the build sweep with
/// their factors resolved once per key: what each `It` gathers when its
/// gate fires, and the merge shifts each `Is`'s `M→I` flush applies.
struct ShiftPlan {
    /// Per `It`, its in-edges in edge order.  An edge order groups the
    /// edges of one source together, so a gather reads each distinct
    /// source once.
    gather: Rows<GatherEdge>,
    /// Per `Is`, its merge shifts into parents, in edge order.
    merge: Rows<MergeEdge>,
    /// Per distinct `(level, direction, translation)`: the direction (the
    /// window read and the window or slot it lands in), and its diagonal
    /// factors.
    factors: Vec<(u8, Arc<Vec<f64>>)>,
}

/// Entries grouped by DAG node, one CSR: every node has a row, most of
/// them empty.
struct Rows<T> {
    /// Per DAG node, its first entry in `items`; then `items.len()`.
    first: Vec<u32>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    /// `entries`, each `(node, entry)`, grouped into the rows of `n` nodes
    /// by a counting pass; a row keeps the order its entries came in.
    fn new(n: usize, entries: Vec<(u32, T)>) -> Self {
        let mut first = vec![0u32; n + 1];
        for &(row, _) in &entries {
            first[row as usize + 1] += 1;
        }
        for i in 1..first.len() {
            first[i] += first[i - 1];
        }
        let mut next = first.clone();
        let mut placed: Vec<Option<T>> = (0..entries.len()).map(|_| None).collect();
        for (row, entry) in entries {
            let at = &mut next[row as usize];
            placed[*at as usize] = Some(entry);
            *at += 1;
        }
        let items = placed
            .into_iter()
            .map(|e| e.expect("every slot placed"))
            .collect();
        Rows { first, items }
    }

    /// Node `id`'s row.
    fn of(&self, id: u32) -> &[T] {
        &self.items[self.first[id as usize] as usize..self.first[id as usize + 1] as usize]
    }
}

/// One `I→I` edge into an `It`.
struct GatherEdge {
    /// Source `Is` node.
    src: u32,
    /// The source slot, as the edge's tag holds it: 0 for the own window
    /// of the factor's direction, `k + 1` for merged slot `k`.
    slot: u32,
    /// Index into [`ShiftPlan::factors`].
    fac: u32,
    /// Flat DAG edge index, tagged onto the edge's span.
    eid: u32,
}

/// One merge shift: an own window of an `Is` into a merged slot of its
/// parent's.
struct MergeEdge {
    /// Flat DAG edge index.
    eid: u32,
    /// The parent's `Is` node.
    dst: u32,
    /// The parent's merged slot.
    slot: u32,
    /// Index into [`ShiftPlan::factors`].
    fac: u32,
}

/// One deposited edge awaiting its batch.
struct BatchEntry {
    /// Flat DAG edge index, tagged onto the flush span so the observed
    /// critical path can attribute batched work to individual edges.
    eid: u32,
    /// Source expansion: the fired LCO's own payload, shared between all of
    /// the node's deposited edges.
    src: Arc<[f64]>,
    /// Window of `src` the operator consumes (an `I→I` slot; the whole
    /// vector for the dense operators).
    off: usize,
    len: usize,
    /// Destination LCO.
    dst: GlobalAddress,
    /// Destination offset prefix for a merge shift (the offset-add `Is`
    /// LCOs); unused otherwise.
    slot: f64,
    /// Source-tree box of the edge's source node (`S→T` gathers particle
    /// blocks from the tree rather than from `src`); unused otherwise.
    src_box: u32,
}

thread_local! {
    /// Per-worker gather/result buffers for batched operator application.
    static BATCH_WS: RefCell<BatchWorkspace> = RefCell::new(BatchWorkspace::new());
    /// Per-worker result buffer for the per-edge operators, so the hot
    /// path stops allocating one `Vec` per applied edge.
    static EDGE_OUT: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Per-worker list of the merge shifts one `M→I` flush applies.
    static FUSED: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the worker's operator workspace and a zeroed result
/// buffer of `len` elements.  Both retain capacity across edges, so
/// steady-state operator application performs no heap allocation.
fn with_scratch<R>(len: usize, f: impl FnOnce(&mut BatchWorkspace, &mut Vec<f64>) -> R) -> R {
    BATCH_WS.with(|ws| {
        EDGE_OUT.with(|out| {
            let out = &mut *out.borrow_mut();
            out.clear();
            out.resize(len, 0.0);
            f(&mut ws.borrow_mut(), out)
        })
    })
}

/// One node's data as published at one locality, for the `It` gathers.
type SourceSlot = Mutex<Option<Arc<[f64]>>>;

/// The built evaluation graph: the LCO network of one DAG on one runtime,
/// with everything a task needs to transform an expansion along an edge.
pub struct ExecCtx<K: Kernel> {
    /// The problem (trees + build-time charges).
    pub problem: Arc<Problem>,
    /// Operator tables.
    pub lib: Arc<OperatorLibrary<K>>,
    /// The tables the per-edge operators apply, by level, resolved at
    /// build ([`BatchPlan::build`]) so applying an edge looks nothing up.
    levels: Levels,
    /// The explicit DAG and box correspondence.
    pub asm: Arc<Assembly>,
    /// Also compute field gradients at the targets.
    pub gradients: bool,
    /// This evaluation's charges in source-tree Morton order, swapped in
    /// by [`ExecCtx::rearm`].
    charges: RwLock<Vec<f64>>,
    /// LCO address per DAG node, packed: the owner column.  Its locality
    /// is where the node lives, an `S` node's index a placeholder.  Filled
    /// from the DAG at build and rewritten only by recovery, between runs:
    /// spawning a run's workers orders those writes before every read, so
    /// the loads are relaxed.
    lcos: Vec<AtomicU64>,
    /// Action evaluating a coalesced remote-edge parcel.
    remote_action: ActionId,
    batch: BatchPlan,
    shifts: ShiftPlan,
    /// Per DAG node: the own-direction windows an `Is` LCO stores, one bit
    /// per direction ([`stored_mask`]); 0 for every other class.  Set with
    /// the node's LCO, at build and by recovery, between runs only.
    stored: Vec<AtomicU8>,
    /// Per hosted locality, per DAG node: the `Is` data the `It` gathers
    /// there read — the fired payload where it fired, a bundle's scattered
    /// copy elsewhere.  Kept until [`ExecCtx::rearm`], for recovery's
    /// re-gather; empty for the localities another process hosts.
    published: Vec<Box<[SourceSlot]>>,
    /// Every `It` continuation's gathered buffer, for the tests to compare.
    #[cfg(test)]
    fired_its: Mutex<Vec<(u32, Arc<[f64]>)>>,
    /// Per-locality edge batchers grouping out-edges by shared operator,
    /// refilled from `expected` at every re-arm so the last deposit of
    /// every key always flushes.
    batchers: Vec<EdgeBatcher<BatchEntry>>,
    /// Per locality, per batch key: the deposits a whole run brings under
    /// the owner column ([`ExecCtx::due`]); recomputed by recovery.
    expected: Mutex<Vec<Vec<u32>>>,
    /// One byte per flat DAG edge, set when the edge's contribution is
    /// committed at its apply locality (inline application, or deposit into
    /// a batcher).  Replay after a locality loss re-fires whole out-edge
    /// lists; this bitmap absorbs the re-sends so every LCO input is
    /// counted exactly once.  Recovery clears the bits of the entries it
    /// drains from the batchers, which it deposits again.
    applied: Vec<AtomicU8>,
    /// Replayed edge applications suppressed by the `applied` bitmap.
    dedup_skipped: AtomicU64,
    /// Remote-edge parcels dropped: their bytes were no bundle of this DAG.
    malformed_parcels: AtomicU64,
    /// Durable progress ledger, handed to the transport for heartbeat
    /// gossip and cleared at every re-arm.
    ledger: Arc<ProgressLedger>,
}

/// What one call to [`ExecCtx::prepare_recovery`] re-owned and replayed,
/// for the recovery section of run reports and `BENCH_recovery.json`.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// DAG nodes re-owned away from the dead locality.
    pub reowned_nodes: u64,
    /// Locally fired sources replayed because an out-edge points into a
    /// re-owned destination.
    pub replayed_sources: u64,
    /// Edges re-fired toward re-owned destinations (plus the full
    /// out-edge lists of re-owned seed nodes this process re-seeds).
    pub replayed_edges: u64,
    /// Untriggered local LCOs whose expected-input count was re-armed.
    pub rearmed_lcos: u64,
    /// Parked batches drained and deposited again in the recovery run.
    pub parked_batches: u64,
}

impl<K: Kernel> ExecCtx<K> {
    /// Build the graph on `rt`: number the batch keys and resolve their
    /// operators, register the coalesced-parcel action, hand the transport
    /// a progress ledger, fill the owner column from the DAG's assignment,
    /// count what a run brings under it, and allocate one LCO per DAG node
    /// at its owner.  Every SPMD process builds it in the same order, so
    /// the addresses and the action id agree.  [`ExecCtx::rearm`] before
    /// each run.
    pub fn new(
        problem: Arc<Problem>,
        lib: Arc<OperatorLibrary<K>>,
        asm: Arc<Assembly>,
        gradients: bool,
        rt: &Runtime,
    ) -> Arc<Self> {
        let dag = &asm.dag;
        let n_loc = rt.num_localities();
        let (batch, shifts, levels) = BatchPlan::build(&problem, &lib, &asm);
        let batchers = (0..n_loc)
            .map(|_| EdgeBatcher::new(batch.ops.len(), DEFAULT_BATCH_THRESHOLD))
            .collect();
        // The durable progress ledger: one fired-node watermark per rank,
        // gossiped by the transport on its heartbeat path so survivors can
        // account a dead rank's cemented work.
        let transport = rt.transport();
        let ledger = Arc::new(ProgressLedger::new(
            transport.rank(),
            dag.num_nodes(),
            transport.num_ranks(),
        ));
        transport.set_ledger(Arc::clone(&ledger));
        let (n_nodes, n_edges) = (dag.num_nodes(), dag.edges().len());
        let published = (0..n_loc)
            .map(|loc| {
                let hosted = if rt.is_local(loc) { n_nodes } else { 0 };
                (0..hosted).map(|_| Mutex::new(None)).collect()
            })
            .collect();
        // The owner column, every node a placeholder at its owner until its
        // LCO is allocated.
        let lcos = (0..n_nodes as u32)
            .map(|id| {
                let owner = dag.node(id).locality.min(n_loc - 1);
                AtomicU64::new(GlobalAddress::new(owner, u32::MAX).pack())
            })
            .collect();
        let exec = Arc::new_cyclic(|this: &Weak<Self>| {
            let this = Weak::clone(this);
            let remote_action = rt.register_action(Arc::new(move |ctx, _target, payload| {
                if let Some(this) = this.upgrade() {
                    this.remote_parcel(ctx, payload);
                }
            }));
            ExecCtx {
                problem,
                lib,
                levels,
                asm,
                gradients,
                charges: RwLock::new(Vec::new()),
                lcos,
                remote_action,
                batch,
                shifts,
                stored: (0..n_nodes).map(|_| AtomicU8::new(0)).collect(),
                published,
                #[cfg(test)]
                fired_its: Mutex::new(Vec::new()),
                batchers,
                expected: Mutex::new(Vec::new()),
                applied: (0..n_edges).map(|_| AtomicU8::new(0)).collect(),
                dedup_skipped: AtomicU64::new(0),
                malformed_parcels: AtomicU64::new(0),
                ledger,
            }
        });
        let (dag, owner) = (&exec.asm.dag, |id: u32| exec.owner(id));
        for (id, stored) in exec.stored.iter().enumerate() {
            stored.store(stored_mask(dag, id as u32, owner), Ordering::Relaxed);
        }
        let whole = exec.due(rt, false);
        for id in (0..n_nodes as u32).filter(|&id| dag.node(id).class != NodeClass::S) {
            let addr = rt.lco_new(owner(id), exec.node_spec(id, whole.inputs[id as usize]));
            exec.lcos[id as usize].store(addr.pack(), Ordering::Relaxed);
        }
        *exec.expected.lock() = whole.deposits;
        exec
    }

    /// Arm the graph for one evaluation with `charges` (source-tree Morton
    /// order): every published source dropped, every batch a run cut short
    /// by a lost peer left parked dropped, every LCO back to its installed
    /// input count ([`Runtime::rearm`]), the `applied` bitmap cleared, every
    /// batcher refilled with what a whole run brings, the ledger and the
    /// per-evaluation counters zeroed.  Between runs only; must precede
    /// [`ExecCtx::seed`].
    pub fn rearm(&self, rt: &Runtime, charges: Vec<f64>) {
        assert_eq!(
            charges.len(),
            self.problem.tree.source().points().len(),
            "one charge per source"
        );
        *self.charges.write() = charges;
        // The published payloads and the parked batch entries share the
        // LCOs' data, which the runtime re-arms only once nothing else
        // holds it.
        for slot in self.published.iter().flat_map(|p| p.iter()) {
            *slot.lock() = None;
        }
        for b in &self.batchers {
            b.drain_parked();
        }
        rt.rearm();
        for a in &self.applied {
            a.store(0, Ordering::Relaxed);
        }
        for (b, expected) in self.batchers.iter().zip(self.expected.lock().iter()) {
            b.refill(expected);
        }
        self.ledger.clear();
        self.dedup_skipped.store(0, Ordering::Relaxed);
        self.malformed_parcels.store(0, Ordering::Relaxed);
    }

    /// Replayed edge applications suppressed by the dedup bitmap.
    pub fn dedup_skipped(&self) -> u64 {
        self.dedup_skipped.load(Ordering::Relaxed)
    }

    /// Remote-edge parcels dropped as malformed; anything but zero means a
    /// peer sent bytes this build cannot produce, and the result is partial.
    pub fn malformed_parcels(&self) -> u64 {
        self.malformed_parcels.load(Ordering::Relaxed)
    }

    /// The LCO address of DAG node `id`.
    fn lco(&self, id: u32) -> GlobalAddress {
        GlobalAddress::unpack(self.lcos[id as usize].load(Ordering::Relaxed))
    }

    /// The locality DAG node `id` lives at, read off the owner column.
    fn owner(&self, id: u32) -> u32 {
        self.lco(id).locality
    }

    /// Whether any DAG node lives at `locality`.  Once recovery has re-owned
    /// a lost peer's nodes, a later run that sees the peer lost again lost
    /// nothing of this graph.
    pub fn uses(&self, locality: u32) -> bool {
        (0..self.lcos.len() as u32).any(|id| self.owner(id) == locality)
    }

    /// What a run still brings under the owner column: per locality this
    /// process hosts and batch key, the deposits due; per node, the LCO
    /// inputs due.  With `resume` unset, a whole run; set, the rest of a
    /// run a lost peer cut short, whose committed edges the `applied`
    /// bitmap holds.
    ///
    /// A flushed `S→T` batch is one input to its target leaf, so `e`
    /// near-field deposits bring `⌈e/threshold⌉` inputs.  A merge shift
    /// into a parent at its member's locality is applied by the member's
    /// `M→I` flush, not deposited, while that flush is still to come.
    fn due(&self, rt: &Runtime, resume: bool) -> Due {
        let dag = &self.asm.dag;
        let n = dag.num_nodes();
        let n_loc = rt.num_localities() as usize;
        let mut deposits = vec![vec![0u32; self.batch.ops.len()]; n_loc];
        let mut inputs = vec![0u32; n];
        let mut s2t = vec![0u32; n];
        let applied = |eid: usize| resume && self.applied[eid].load(Ordering::Acquire) != 0;
        // Per `Is`: whether its `M→I` flush has run.
        let mut flushed = vec![false; n];
        for (eid, e) in dag.edges().iter().enumerate() {
            if e.op == EdgeOp::M2I && applied(eid) {
                flushed[e.dst as usize] = true;
            }
        }
        let owner = |id: u32| self.owner(id);
        for id in 0..n as u32 {
            let first = dag.node(id).first_edge as usize;
            for (eid, e) in (first..).zip(dag.out_edges(id)) {
                if applied(eid) {
                    continue;
                }
                let dst = e.dst as usize;
                if e.op == EdgeOp::S2T {
                    s2t[dst] += 1;
                } else {
                    inputs[dst] += 1;
                }
                let apply = owner(e.dst);
                let deposited = !merged_in_flush(dag, id, e, owner) || flushed[id as usize];
                match self.batch.edge_key[eid] {
                    Some(k) if deposited && rt.is_local(apply) => {
                        deposits[apply as usize][k as usize] += 1;
                    }
                    _ => {}
                }
            }
        }
        for (inputs, &e) in inputs.iter_mut().zip(&s2t) {
            *inputs += e.div_ceil(DEFAULT_BATCH_THRESHOLD as u32);
        }
        Due { deposits, inputs }
    }

    /// The LCO specification of non-`S` DAG node `id`, expecting `inputs`
    /// inputs, shared between the build and the fresh allocations recovery
    /// makes for re-owned nodes.  An `It` is a gate over its `I→I` in-edges
    /// whose continuation gathers them ([`ExecCtx::gather`]), so it holds no
    /// payload.
    fn node_spec(self: &Arc<Self>, id: u32, inputs: u32) -> LcoSpec {
        let node = self.asm.dag.node(id);
        if node.class == NodeClass::It {
            let this = Arc::clone(self);
            return LcoSpec::and_gate(inputs).with_trigger(Box::new(move |ctx, _| {
                let data = this.gather(ctx.locality, id, Some(ctx));
                #[cfg(test)]
                this.fired_its.lock().push((id, Arc::clone(&data)));
                this.process_out_edges(ctx, id, &data);
            }));
        }
        let op = match node.class {
            NodeClass::Is => LcoOp::Custom(Box::new(offset_add)),
            _ => LcoOp::Add,
        };
        let mut spec = LcoSpec {
            size: self.data_len(id),
            inputs,
            op,
            on_trigger: None,
        };
        if node.out_degree > 0 {
            let this = Arc::clone(self);
            spec = spec.with_trigger(Box::new(move |ctx, data| {
                this.process_out_edges(ctx, id, data);
            }));
        }
        spec
    }

    /// Over this process's batchers: deposits still expected, entries
    /// parked, and how many edges the sweep keyed `M→I` or `I→L`.
    #[cfg(test)]
    pub(crate) fn batch_audit(&self) -> (usize, usize, usize) {
        let planewave = |k: &&Option<u32>| {
            k.is_some_and(|k| matches!(self.batch.ops[k as usize], KeyOp::M2I(_) | KeyOp::I2L(_)))
        };
        (
            self.batchers.iter().map(|b| b.remaining()).sum(),
            self.batchers.iter().map(|b| b.parked()).sum(),
            self.batch.edge_key.iter().filter(planewave).count(),
        )
    }

    /// LCO payload bytes allocated at the localities this process hosts,
    /// by node class.
    pub(crate) fn payload_bytes(&self, rt: &Runtime) -> [u64; 6] {
        let mut bytes = [0u64; 6];
        for id in 0..self.lcos.len() as u32 {
            let addr = self.lco(id);
            if addr.index != u32::MAX && rt.is_local(addr.locality) {
                let len = rt.lco_len(addr);
                bytes[self.asm.dag.node(id).class.index()] += 8 * len as u64;
            }
        }
        bytes
    }

    /// Whether every LCO of the graph has triggered.
    #[cfg(test)]
    pub(crate) fn all_triggered(&self, rt: &Runtime) -> bool {
        (0..self.lcos.len() as u32)
            .map(|id| self.lco(id))
            .all(|addr| addr.index == u32::MAX || rt.lco_triggered(addr))
    }

    /// Data length (in `f64`s) of a node's expansion: what its LCO holds,
    /// or for an `It`, what its gather builds and a bundle of it carries.
    fn data_len(&self, id: u32) -> usize {
        let node = self.asm.dag.node(id);
        match node.class {
            NodeClass::S => 0,
            NodeClass::M | NodeClass::L => self.lib.params().surface_points(),
            NodeClass::Is => {
                let layout = self.asm.is_layout[id as usize];
                let own = self.stored(id).count_ones() * layout.own_w;
                (own + layout.n_merged * layout.merged_w) as usize
            }
            NodeClass::It => 6 * self.tables(node.level).planewave_len(),
            NodeClass::T => {
                let per = if self.gradients { 4 } else { 1 };
                per * self.problem.tree.target().node(node.box_id).count
            }
        }
    }

    /// The tables of `level`, resolved at build.
    fn tables(&self, level: u8) -> &LevelTables {
        self.levels[level as usize]
            .as_deref()
            .expect("every per-edge operator's tables are resolved at build")
    }

    /// The window of node `src_id`'s data that edge `e` reads — one own or
    /// merged slot of an `Is` node for `I→I`, all of it otherwise: what
    /// [`ExecCtx::apply_edge`] hands the operator and a bundle has to carry.
    fn source_range(&self, src_id: u32, e: &DagEdge) -> Range<usize> {
        if e.op != EdgeOp::I2I {
            return 0..self.data_len(src_id);
        }
        let (dir, src_slot, _) = unpack_i2i(e.tag);
        let layout = self.asm.is_layout[src_id as usize];
        let w = if src_slot == 0 {
            layout.own_w
        } else {
            layout.merged_w
        };
        let at = self.slot_offset(src_id, dir, src_slot);
        at..at + w as usize
    }

    /// The own windows `Is` node `id`'s LCO stores ([`stored_mask`]).
    fn stored(&self, id: u32) -> u8 {
        self.stored[id as usize].load(Ordering::Relaxed)
    }

    /// Where slot `src_slot` of `Is` node `id` starts in its data, the slot
    /// numbered as an `I→I` tag numbers it: 0 for the own window of
    /// direction `dir`, `k + 1` for merged slot `k`.  The stored own
    /// windows come first, in direction order, then the merged slots.
    fn slot_offset(&self, id: u32, dir: usize, src_slot: u32) -> usize {
        let layout = self.asm.is_layout[id as usize];
        let mask = self.stored(id);
        match src_slot {
            0 => {
                debug_assert!(mask & 1 << dir != 0, "Is {id} stores no window {dir}");
                (mask & ((1 << dir) - 1)).count_ones() as usize * layout.own_w as usize
            }
            k => {
                let own = mask.count_ones() * layout.own_w;
                (own + (k - 1) * layout.merged_w) as usize
            }
        }
    }

    /// Seed the evaluation: spawn the zero-input nodes' continuations.
    pub fn seed(self: &Arc<Self>, rt: &Runtime) {
        for id in self.asm.seeds() {
            let this = Arc::clone(self);
            rt.seed(self.owner(id), move |ctx| {
                // Each seed its own (empty) payload: batch entries clone
                // it, so sharing one would share its reference count.
                this.process_out_edges(ctx, id, &Arc::from(Vec::new()));
            });
        }
    }

    /// Re-own the orphaned DAG slice after locality `dead` was convicted
    /// and fenced, positioning the runtime for one more [`Runtime::run`]
    /// that completes the evaluation on the survivors.  Must run between
    /// runs (no tasks in flight), on every surviving process, with the
    /// same `dead`; every step is deterministic over replicated state, so
    /// the survivors reach identical re-ownership and identical fresh LCO
    /// addresses without a coordination round.  The graph stays usable:
    /// later re-arms run it on the new ownership.
    ///
    /// Steps: (1) every node the dead locality owned is re-owned to a
    /// survivor picked by a stable hash of its Morton key, in the owner
    /// column; (2) each gets a fresh LCO there, expecting what a whole run
    /// brings (`ExecCtx::due`), an `Is` storing the windows the new
    /// ownership leaves unfused (`stored_mask`), and later re-arms refill
    /// the batchers with the whole run's deposits; (3) the parked batches
    /// are drained and their edges taken out of the `applied` bitmap, the
    /// batchers refilled and the untriggered local LCOs re-armed with what
    /// the rest of the run brings; (4) a seeded recovery task deposits the
    /// drained entries again, fired local sources with an out-edge into a
    /// re-owned destination are replayed,
    /// and re-owned seed nodes are re-seeded at their new owner.  The
    /// `applied` bitmap absorbs every duplicate the replay re-fires, so
    /// LCO accounting stays exact.
    pub fn prepare_recovery(self: &Arc<Self>, rt: &Runtime, dead: u32) -> RecoveryStats {
        let dag = &self.asm.dag;
        let n_loc = rt.num_localities();
        assert!(
            dead != 0 && dead < n_loc,
            "recovery covers losing a non-root locality (lost rank {dead} of {n_loc})"
        );
        let survivors: Vec<u32> = (0..n_loc).filter(|&r| r != dead).collect();
        let n = dag.num_nodes() as u32;
        let orig_owner: Vec<u32> = (0..n).map(|id| self.owner(id)).collect();
        let is_reowned = |id: u32| orig_owner[id as usize] == dead;
        let reowned: Vec<u32> = (0..n).filter(|&id| is_reowned(id)).collect();
        let mut stats = RecoveryStats {
            reowned_nodes: reowned.len() as u64,
            ..RecoveryStats::default()
        };

        // (1) Every owner is settled first: a re-owned `Is`'s stored
        // windows depend on where its parents now live.
        let stree = self.problem.tree.source();
        let ttree = self.problem.tree.target();
        for &id in &reowned {
            let node = dag.node(id);
            let (key, salt) = match node.class {
                NodeClass::S => (stree.node(node.box_id).key, 1u64),
                NodeClass::M => (stree.node(node.box_id).key, 2),
                NodeClass::Is => (stree.node(node.box_id).key, 3),
                NodeClass::It => (ttree.node(node.box_id).key, 4),
                NodeClass::L => (ttree.node(node.box_id).key, 5),
                NodeClass::T => (ttree.node(node.box_id).key, 6),
            };
            let h = splitmix64(key.code() ^ ((key.level as u64) << 48) ^ (salt << 56));
            let owner = survivors[(h % survivors.len() as u64) as usize];
            self.lcos[id as usize].store(
                GlobalAddress::new(owner, u32::MAX).pack(),
                Ordering::Relaxed,
            );
        }

        // (2) Fresh LCOs, in node-id order so the SPMD-mirrored allocation
        // yields identical addresses on every surviving process.
        let whole = self.due(rt, false);
        let owner = |id: u32| self.owner(id);
        for &id in reowned
            .iter()
            .filter(|&&id| dag.node(id).class != NodeClass::S)
        {
            self.set_stored(id, stored_mask(dag, id, owner));
            let addr = rt.lco_new(owner(id), self.node_spec(id, whole.inputs[id as usize]));
            self.lcos[id as usize].store(addr.pack(), Ordering::Relaxed);
        }
        *self.expected.lock() = whole.deposits;

        // (3) The batches parked behind deposits that will never come (their
        // sources died, or applied at the dead locality) are drained, and
        // their edges uncommitted: they are deposited again with the rest.
        let hosted: Vec<u32> = survivors.into_iter().filter(|&l| rt.is_local(l)).collect();
        let drained: Vec<_> = hosted
            .iter()
            .map(|&loc| (loc, self.batchers[loc as usize].drain_parked()))
            .collect();
        let entries = drained.iter().flat_map(|(_, batches)| batches);
        for b in entries.flat_map(|(_, entries)| entries) {
            self.applied[b.eid as usize].store(0, Ordering::Relaxed);
        }
        let due = self.due(rt, true);
        for &loc in &hosted {
            self.batchers[loc as usize].refill(&due.deposits[loc as usize]);
        }
        for id in 0..n {
            let addr = self.lco(id);
            if addr.index == u32::MAX || !rt.is_local(addr.locality) || rt.lco_triggered(addr) {
                continue;
            }
            match due.inputs[id as usize] {
                0 => debug_assert_eq!(
                    dag.node(id).in_degree,
                    0,
                    "untriggered LCO {id} with nothing left to arrive"
                ),
                remaining => {
                    rt.lco_rearm(addr, remaining);
                    stats.rearmed_lcos += 1;
                }
            }
        }

        // (4a) Deposit the drained entries again, inside the run.
        for (loc, batches) in drained.into_iter().filter(|(_, b)| !b.is_empty()) {
            stats.parked_batches += batches.len() as u64;
            let this = Arc::clone(self);
            rt.seed(loc, move |ctx| {
                ctx.record_instant(CLASS_RECOVERY);
                for (key, entries) in batches {
                    for b in entries.into_iter().filter(|b| this.commit(b.eid)) {
                        this.deposit(ctx, key, b);
                    }
                }
            });
        }
        for &loc in &hosted {
            // (4b) Replay fired local sources feeding a re-owned
            // destination; the dedup bitmap swallows the edges that
            // already landed elsewhere.
            for id in (0..n).filter(|&id| orig_owner[id as usize] == loc) {
                let into_reowned = dag
                    .out_edges(id)
                    .iter()
                    .filter(|e| is_reowned(e.dst))
                    .count() as u64;
                if into_reowned == 0 {
                    continue;
                }
                let Some(data) = self.fired_data(rt, loc, id) else {
                    continue; // will fire on its own in the recovery run
                };
                stats.replayed_sources += 1;
                stats.replayed_edges += into_reowned;
                let this = Arc::clone(self);
                rt.seed(loc, move |ctx| {
                    ctx.record_instant(CLASS_RECOVERY);
                    this.process_out_edges(ctx, id, &data);
                });
            }

            // (4c) Re-seed the re-owned seed nodes this locality adopted.
            for &id in reowned.iter().filter(|&&id| owner(id) == loc) {
                let node = dag.node(id);
                if node.in_degree != 0 || node.out_degree == 0 {
                    continue;
                }
                stats.replayed_sources += 1;
                stats.replayed_edges += node.out_degree as u64;
                let this = Arc::clone(self);
                rt.seed(loc, move |ctx| {
                    ctx.record_instant(CLASS_RECOVERY);
                    this.process_out_edges(ctx, id, &Arc::from(Vec::new()));
                });
            }
        }
        stats
    }

    /// Give `Is` node `id` the stored windows `mask`, as recovery re-owns it
    /// with a fresh LCO, and re-lay the copies of it published here for the
    /// `It` gathers: a window both masks store keeps its values, and every
    /// window a gather reads is one.
    fn set_stored(&self, id: u32, mask: u8) {
        let old = self.stored(id);
        self.stored[id as usize].store(mask, Ordering::Relaxed);
        if mask == old {
            return;
        }
        let layout = self.asm.is_layout[id as usize];
        let w = layout.own_w as usize;
        let merged = (layout.n_merged * layout.merged_w) as usize;
        let offset = |mask: u8, dir: usize| (mask & ((1 << dir) - 1)).count_ones() as usize * w;
        for slot in self.published.iter().filter_map(|p| p.get(id as usize)) {
            let mut slot = slot.lock();
            let Some(data) = slot.as_ref() else {
                continue;
            };
            let mut moved = vec![0.0; self.data_len(id)];
            for dir in (0..6).filter(|dir| old & mask & 1 << dir != 0) {
                let (from, to) = (offset(old, dir), offset(mask, dir));
                moved[to..to + w].copy_from_slice(&data[from..from + w]);
            }
            let (from, to) = (offset(old, 6), offset(mask, 6));
            moved[to..to + merged].copy_from_slice(&data[from..from + merged]);
            *slot = Some(moved.into());
        }
    }

    /// The data node `id` fired with in the run just ended at `loc`, its
    /// owner, for a replay; `None` if it has not fired.  Seeds (zero-input
    /// nodes) all fired; everything else fired iff its LCO triggered.  An
    /// `It` stores nothing, but its sources stay published until the next
    /// re-arm, so it is gathered again.
    fn fired_data(&self, rt: &Runtime, loc: u32, id: u32) -> Option<Arc<[f64]>> {
        let node = self.asm.dag.node(id);
        let addr = self.lco(id);
        if node.in_degree == 0 {
            Some(Arc::from(Vec::new()))
        } else if node.class == NodeClass::It {
            rt.lco_triggered(addr).then(|| self.gather(loc, id, None))
        } else {
            rt.lco_get(addr).map(Arc::from)
        }
    }

    /// Read back the potentials (and gradients, when enabled) in
    /// target-tree Morton order.
    pub fn extract(&self, rt: &Runtime) -> (Vec<f64>, Option<Vec<[f64; 3]>>) {
        let tgt = self.problem.tree.target();
        let n = tgt.points().len();
        let mut pot = vec![0.0; n];
        let mut grad = if self.gradients {
            Some(vec![[0.0; 3]; n])
        } else {
            None
        };
        for (tbox, &tid) in self.asm.t_of.iter().enumerate() {
            if tid < 0 {
                continue;
            }
            let node = tgt.node(tbox as u32);
            let addr = self.lco(tid as u32);
            if addr.index == u32::MAX {
                continue;
            }
            if let Some(data) = rt.lco_get(addr) {
                if let Some(g) = grad.as_mut() {
                    for i in 0..node.count {
                        pot[node.first + i] = data[4 * i];
                        g[node.first + i] = [data[4 * i + 1], data[4 * i + 2], data[4 * i + 3]];
                    }
                } else {
                    pot[node.first..node.first + node.count].copy_from_slice(&data);
                }
            }
        }
        (pot, grad)
    }

    /// The continuation of a triggered node: transform the stored data
    /// along every out-edge; local edges inline, remote edges coalesced
    /// into one parcel per destination locality.  A fired `Is` is first
    /// published here, for the `It` gathers of this locality.  A local edge
    /// already committed is skipped: the merge shifts its `M→I` flush
    /// applied, or a replay's duplicate.
    fn process_out_edges(&self, ctx: &TaskCtx, id: u32, data: &Arc<[f64]>) {
        self.ledger.note_fired(id);
        let dag = &self.asm.dag;
        let node = dag.node(id);
        self.publish(ctx.locality, id, data);
        // (locality, edge flat indices)
        let mut remote: Vec<(u32, Vec<u32>)> = Vec::new();
        for (i, e) in dag.out_edges(id).iter().enumerate() {
            let eid = node.first_edge + i as u32;
            let dst_loc = self.owner(e.dst);
            if dst_loc == ctx.locality {
                if self.applied[eid as usize].load(Ordering::Acquire) == 0 {
                    self.apply_edge(ctx, id, eid, e, data);
                }
            } else {
                match remote.iter_mut().find(|(l, _)| *l == dst_loc) {
                    Some((_, v)) => v.push(eid),
                    None => remote.push((dst_loc, vec![eid])),
                }
            }
        }
        for (loc, edge_ids) in remote {
            let ranges = self.bundle_ranges(id, &edge_ids);
            let payload = encode_bundle(id, &edge_ids, data, &ranges);
            ctx.send(Parcel::new(
                self.remote_action,
                GlobalAddress::new(loc, 0),
                payload,
            ));
        }
    }

    /// The windows of node `id`'s data that the edges `eids` read — what a
    /// bundle carries.  Both ends derive them from the edge list alone.
    fn bundle_ranges(&self, id: u32, eids: &[u32]) -> Vec<Range<usize>> {
        let edges = self.asm.dag.edges();
        let read = |&eid: &u32| self.source_range(id, &edges[eid as usize]);
        distinct(eids.iter().map(read).collect())
    }

    /// Evaluate a coalesced parcel at its destination locality.  The bytes
    /// came off a wire: anything but a bundle of this DAG — truncated, an
    /// unknown node, an edge that is not the node's or does not apply here,
    /// a value count other than those edges read — is dropped and counted.
    fn remote_parcel(&self, ctx: &TaskCtx, payload: &[u8]) {
        let dag = &self.asm.dag;
        let bundle = decode_bundle(payload, |id, eids| {
            let node = dag.nodes().get(id as usize)?;
            let own = node.first_edge..node.first_edge + node.out_degree;
            let here = |eid: u32| self.owner(dag.edges()[eid as usize].dst);
            let valid = |&eid: &u32| own.contains(&eid) && here(eid) == ctx.locality;
            eids.iter().all(valid).then_some(())?;
            Some((self.data_len(id), self.bundle_ranges(id, eids)))
        });
        let Ok((id, eids, data)) = bundle else {
            self.malformed_parcels.fetch_add(1, Ordering::Relaxed);
            return;
        };
        self.publish(ctx.locality, id, &data);
        for eid in eids {
            let e = dag.edges()[eid as usize];
            self.apply_edge(ctx, id, eid, &e, &data);
        }
    }

    /// Apply one edge: transform `data` and set the destination LCO.  An
    /// `I→I` edge into an `It` only signals the gate.
    ///
    /// The operators that share one matrix per (operator, level) —
    /// `M→M`, `M→L`, `L→L`, `M→I`, the `I→I` merge shifts, `I→L` — and the
    /// near-field `S→T` edges (which share a target leaf) are not applied
    /// here; they deposit into this locality's [`EdgeBatcher`] and the
    /// whole batch is flushed through the blocked multi-RHS (or fused SoA
    /// near-field) path when full (or when its last expected edge
    /// arrives).  Each batched contribution is bitwise independent of
    /// which batch the edge lands in, so only the LCO reduction *order* can
    /// differ — exactly the freedom concurrent per-edge application already
    /// had.
    fn apply_edge(&self, ctx: &TaskCtx, src_id: u32, eid: u32, e: &DagEdge, data: &Arc<[f64]>) {
        if !self.commit(eid) {
            return;
        }
        let dag = &self.asm.dag;
        let src_node = dag.node(src_id);
        let dst_node = dag.node(e.dst);
        let dst = self.lco(e.dst);
        let kernel = self.lib.kernel();
        let n = self.lib.params().surface_points();
        let stree = self.problem.tree.source();
        let ttree = self.problem.tree.target();
        if e.op == EdgeOp::I2I && dst_node.class == NodeClass::It {
            // The translation itself runs in the gate's gather.
            ctx.lco_set(dst, &[]);
            return;
        }
        if let Some(key) = self.batch.edge_key[eid as usize] {
            let window = self.source_range(src_id, e);
            let slot = if e.op == EdgeOp::I2I {
                let (dir, _, dst_slot) = unpack_i2i(e.tag);
                self.slot_offset(e.dst, dir, dst_slot + 1) as f64
            } else {
                0.0
            };
            let entry = BatchEntry {
                eid,
                src: Arc::clone(data),
                off: window.start,
                len: window.len(),
                dst,
                slot,
                src_box: src_node.box_id,
            };
            // Batched edges are traced at flush time only: the flush's
            // chained per-edge spans are the single account of each edge
            // (exactly one event per DAG edge, no double-counted busy
            // time in Eq. 2).  The deposit itself is untraced.
            self.deposit(ctx, key as usize, entry);
            return;
        }
        ctx.traced_tagged(e.op.index() as u8, eid, || match e.op {
            EdgeOp::S2M => {
                let sb = stree.node(src_node.box_id);
                let pts = stree.points_of(src_node.box_id);
                let charges = self.charges.read();
                let q = &charges[sb.first..sb.first + sb.count];
                let t = self.tables(src_node.level);
                with_scratch(n, |ws, m| {
                    ops::s2m(kernel, t, stree.center_of(src_node.box_id), pts, q, ws, m);
                    ctx.lco_set(dst, m);
                });
            }
            EdgeOp::M2M
            | EdgeOp::M2L
            | EdgeOp::L2L
            | EdgeOp::M2I
            | EdgeOp::I2I
            | EdgeOp::I2L
            | EdgeOp::S2T => {
                unreachable!("batched operators are deposited above")
            }
            EdgeOp::S2L => {
                let sb = stree.node(src_node.box_id);
                let pts = stree.points_of(src_node.box_id);
                let charges = self.charges.read();
                let q = &charges[sb.first..sb.first + sb.count];
                let t = self.tables(dst_node.level);
                with_scratch(n, |ws, out| {
                    ops::s2l(kernel, t, ttree.center_of(dst_node.box_id), pts, q, ws, out);
                    ctx.lco_set(dst, out);
                });
            }
            EdgeOp::L2T => {
                let t = self.tables(src_node.level);
                let pts = ttree.points_of(dst_node.box_id);
                let center = ttree.center_of(src_node.box_id);
                if self.gradients {
                    with_scratch(4 * pts.len(), |ws, out| {
                        ops::l2t_grad(kernel, t, center, data, pts, ws, out);
                        ctx.lco_set(dst, out);
                    });
                } else {
                    with_scratch(pts.len(), |ws, out| {
                        ops::l2t(kernel, t, center, data, pts, ws, out);
                        ctx.lco_set(dst, out);
                    });
                }
            }
            EdgeOp::M2T => {
                let t = self.tables(src_node.level);
                let pts = ttree.points_of(dst_node.box_id);
                let center = stree.center_of(src_node.box_id);
                if self.gradients {
                    with_scratch(4 * pts.len(), |ws, out| {
                        ops::m2t_grad(kernel, t, center, data, pts, ws, out);
                        ctx.lco_set(dst, out);
                    });
                } else {
                    with_scratch(pts.len(), |ws, out| {
                        ops::m2t(kernel, t, center, data, pts, ws, out);
                        ctx.lco_set(dst, out);
                    });
                }
            }
        });
    }

    /// Commit edge `eid` at its apply locality: the exactly-once point.  The
    /// first application (or batch deposit) wins; recovery replay re-fires
    /// whole out-edge lists, and every duplicate is counted and refused
    /// here before it can reach (and over-subscribe) the destination LCO.
    fn commit(&self, eid: u32) -> bool {
        let first = self.applied[eid as usize].swap(1, Ordering::AcqRel) == 0;
        if !first {
            self.dedup_skipped.fetch_add(1, Ordering::Relaxed);
        }
        first
    }

    /// Deposit `entry` into this locality's batcher under `key`, and flush
    /// the batch it completes.
    fn deposit(&self, ctx: &TaskCtx, key: usize, entry: BatchEntry) {
        if let Some(batch) = self.batchers[ctx.locality as usize].deposit(key, entry) {
            self.flush_batch(ctx, &self.batch.ops[key], &batch);
        }
    }

    /// Publish node `id`'s data at `locality` for the `It` gathers there,
    /// if it is an `Is`.  A later publication (a recovery replay) replaces
    /// the earlier one; it reads a superset of the same values.
    fn publish(&self, locality: u32, id: u32, data: &Arc<[f64]>) {
        if self.asm.dag.node(id).class == NodeClass::Is {
            *self.published[locality as usize][id as usize].lock() = Some(Arc::clone(data));
        }
    }

    /// `It` node `id`'s incoming expansion, gathered at `locality`: every
    /// in-edge's diagonal shift of its published source, accumulated in
    /// edge order into a zeroed buffer, so the result does not depend on
    /// the schedule.  With a task context, each edge is traced as one
    /// `I→I` span, the gather's interval split evenly between them: the
    /// shifts are equal work, and a clock read per edge would add a
    /// measurable share to each.
    fn gather(&self, locality: u32, id: u32, ctx: Option<&TaskCtx>) -> Arc<[f64]> {
        let len = self.data_len(id);
        let w = len / 6;
        let mut data: Arc<[f64]> = std::iter::repeat_n(0.0, len).collect();
        let buf = Arc::get_mut(&mut data).expect("not shared yet");
        let published = &self.published[locality as usize];
        let ctx = ctx.filter(|ctx| ctx.obs_level().enabled());
        let start = ctx.map_or(0, TaskCtx::now_ns);
        let edges = self.shifts.gather.of(id);
        for run in edges.chunk_by(|a, b| a.src == b.src) {
            let src = published[run[0].src as usize]
                .lock()
                .clone()
                .expect("every source of a fired It is published where it fires");
            for g in run {
                let (dir, fac) = &self.shifts.factors[g.fac as usize];
                let dir = *dir as usize;
                let off = self.slot_offset(g.src, dir, g.slot);
                ops::i2i_apply(fac, &src[off..off + w], &mut buf[dir * w..(dir + 1) * w]);
            }
        }
        if let Some(ctx) = ctx {
            let class = EdgeOp::I2I.index() as u8;
            let eids = edges.iter().map(|g| g.eid);
            record_split_spans(ctx, class, start, ctx.now_ns(), eids);
        }
        data
    }

    /// Hand `Is` node `id` its `M→I` contribution from `panel`, its six
    /// fresh own windows: the windows it stores through `set`, then every
    /// merge shift into a parent at this locality, shifted and offset-added
    /// into the parent's merged slot, its span closed with `close`.  The
    /// windows go first, so the span that opens with the batch's product is
    /// the `M→I` edge's.  The shifts are committed through `applied` before
    /// that, as the node can fire on it and its continuation must skip
    /// them; the rest go out from the stored windows.
    fn flush_m2i(
        &self,
        ctx: &TaskCtx,
        id: u32,
        panel: &[f64],
        set: impl FnOnce(&[f64]),
        close: &impl Fn(u8, u32),
    ) {
        let merges = self.shifts.merge.of(id);
        let w = self.asm.is_layout[id as usize].own_w as usize;
        let mask = self.stored(id);
        let (dag, owner) = (&self.asm.dag, |x: u32| self.owner(x));
        FUSED.with(|fused| {
            let fused = &mut *fused.borrow_mut();
            fused.clear();
            for (k, m) in merges.iter().enumerate() {
                let e = &dag.edges()[m.eid as usize];
                if merged_in_flush(dag, id, e, owner) && self.commit(m.eid) {
                    fused.push(k as u32);
                }
            }
            EDGE_OUT.with(|out| {
                let out = &mut *out.borrow_mut();
                out.clear();
                out.push(0.0);
                for dir in (0..6).filter(|dir| mask & 1 << dir != 0) {
                    out.extend_from_slice(&panel[dir * w..(dir + 1) * w]);
                }
                set(out);
                let class = EdgeOp::I2I.index() as u8;
                for &k in fused.iter() {
                    let m = &merges[k as usize];
                    let (dir, fac) = &self.shifts.factors[m.fac as usize];
                    let dir = *dir as usize;
                    out.resize(1 + w, 0.0);
                    out[0] = self.slot_offset(m.dst, dir, m.slot + 1) as f64;
                    ops::i2i_write(fac, &panel[dir * w..(dir + 1) * w], &mut out[1..]);
                    ctx.lco_set(self.lco(m.dst), out);
                    close(class, m.eid);
                }
            });
        });
    }

    /// Apply one full batch of same-operator edges through the blocked
    /// multi-RHS path and set every destination LCO.  The batch's wall
    /// time is split into chained per-edge spans (each starting where the
    /// previous ended), so traces attribute batched work to individual
    /// DAG edges without double-counting busy time.
    fn flush_batch(&self, ctx: &TaskCtx, op: &KeyOp, batch: &[BatchEntry]) {
        let class = op.class();
        // `record_span` drops everything with observability off; spare the
        // clock reads (one per edge) as well.
        let timed = ctx.obs_level().enabled();
        let clock = || if timed { ctx.now_ns() } else { 0 };
        let prev = Cell::new(clock());
        let start = prev.get();
        // Close edge `eid`'s span of `class` where the previous edge's ended.
        let close = |class: u8, eid: u32| {
            let now = clock();
            ctx.record_span(class, eid, prev.replace(now), now);
        };
        // Hand edge `i`'s contribution to its destination and close its span.
        let mut set = |i: usize, data: &[f64]| {
            ctx.lco_set(batch[i].dst, data);
            close(class, batch[i].eid);
        };
        // A batch never exceeds the flush threshold, so the source windows
        // fit a fixed array: no per-flush allocation.
        let mut refs: [&[f64]; DEFAULT_BATCH_THRESHOLD] = [&[]; DEFAULT_BATCH_THRESHOLD];
        for (r, b) in refs.iter_mut().zip(batch) {
            *r = &b.src[b.off..b.off + b.len];
        }
        let refs = &refs[..batch.len()];
        BATCH_WS.with(|ws| {
            let ws = &mut *ws.borrow_mut();
            match op {
                KeyOp::M2M(t, octant) => opbatch::m2m_batch(t, *octant, refs, ws, &mut set),
                KeyOp::L2L(t, octant) => opbatch::l2l_batch(t, *octant, refs, ws, &mut set),
                KeyOp::M2L(t, offset) => {
                    opbatch::m2l_batch(self.lib.kernel(), t, *offset, refs, ws, &mut set);
                }
                // The offset-add destinations take `[offset, values…]`:
                // their operators leave `buf[0]` free for the offset.
                KeyOp::M2I(t) => opbatch::m2i_batch(t, refs, ws, |i, buf| {
                    let id = self.asm.dag.edges()[batch[i].eid as usize].dst;
                    self.flush_m2i(ctx, id, &buf[1..], |own| set(i, own), &close);
                }),
                KeyOp::I2L(t) => opbatch::i2l_batch(t, refs, ws, &mut set),
                KeyOp::I2I(fac) => opbatch::i2i_batch_prefixed(fac, refs, ws, |i, buf| {
                    buf[0] = batch[i].slot;
                    set(i, buf);
                }),
                KeyOp::S2T(dst) => {
                    // All entries share one target leaf: gather every
                    // source block into the workspace's SoA buffers and
                    // evaluate the fused near field in one pass, then make
                    // a single LCO contribution for the whole batch (the
                    // LCO's input count was reduced accordingly in
                    // `node_spec`).  The fused evaluation is one
                    // indivisible interval, so it is attributed to the
                    // edges as evenly split chained spans.
                    let kernel = self.lib.kernel();
                    let stree = self.problem.tree.source();
                    let dst_node = self.asm.dag.node(*dst);
                    let tpts = self.problem.tree.target().points_of(dst_node.box_id);
                    let charges = self.charges.read();
                    let blocks = batch.iter().map(|b| {
                        let sb = stree.node(b.src_box);
                        (
                            stree.points_of(b.src_box),
                            &charges[sb.first..sb.first + sb.count],
                        )
                    });
                    let per = if self.gradients { 4 } else { 1 };
                    EDGE_OUT.with(|out| {
                        let out = &mut *out.borrow_mut();
                        out.clear();
                        out.resize(per * tpts.len(), 0.0);
                        if self.gradients {
                            ops::p2p_grad_fused(kernel, blocks, tpts, ws, out);
                        } else {
                            ops::p2p_fused(kernel, blocks, tpts, ws, out);
                        }
                        ctx.lco_set(batch[0].dst, out);
                    });
                    let eids = batch.iter().map(|b| b.eid);
                    record_split_spans(ctx, class, start, clock(), eids);
                }
            }
        });
    }
}

impl BatchKey {
    /// Dense slots per level: `M→M` and `L→L` by octant, `M→L` by offset
    /// (each axis in `-3..=3`), `M→I`, `I→L`.
    const LEVEL_SLOTS: usize = 8 + 8 + 343 + 2;

    /// The key's slot in a dense index that leads with one `S→T` slot per
    /// DAG node of the `n_nodes`; `None` for `I→I`, whose keys are hashed.
    fn dense_slot(self, n_nodes: usize) -> Option<usize> {
        let (level, within) = match self {
            BatchKey::S2T { dst } => return Some(dst as usize),
            BatchKey::M2M { level, octant } => (level, octant as usize),
            BatchKey::L2L { level, octant } => (level, 8 + octant as usize),
            BatchKey::M2L { level, offset } => {
                let axis = |o: i8| {
                    assert!(
                        (-3..=3).contains(&o),
                        "M→L offset {offset:?} beyond 3 boxes"
                    );
                    (o + 3) as usize
                };
                let (x, y, z) = (axis(offset.0), axis(offset.1), axis(offset.2));
                (level, 16 + (x * 7 + y) * 7 + z)
            }
            BatchKey::M2I { level } => (level, Self::LEVEL_SLOTS - 2),
            BatchKey::I2L { level } => (level, Self::LEVEL_SLOTS - 1),
            BatchKey::I2I { .. } => return None,
        };
        Some(n_nodes + level as usize * Self::LEVEL_SLOTS + within)
    }
}

/// An `I→I` key packed into one word, for [`WordHasher`].
fn pack_i2i_key(level: u8, dir: u8, delta: (i16, i16, i16)) -> u64 {
    (level as u64) << 56
        | (dir as u64) << 48
        | (delta.0 as u16 as u64) << 32
        | (delta.1 as u16 as u64) << 16
        | delta.2 as u16 as u64
}

/// A one-multiply hasher for keys that are already one word.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, word: u64) {
        let h = word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Operator tables by level, `None` for a level nobody asked for.
pub(crate) type Levels = Vec<Option<Arc<LevelTables>>>;

/// Each level's tables, resolved from the library on a level's first use,
/// then by index.
pub(crate) struct LevelIndex<'a, K: Kernel> {
    lib: &'a OperatorLibrary<K>,
    tables: Levels,
}

impl<'a, K: Kernel> LevelIndex<'a, K> {
    pub(crate) fn new(lib: &'a OperatorLibrary<K>) -> Self {
        LevelIndex {
            lib,
            tables: Vec::new(),
        }
    }

    pub(crate) fn get(&mut self, level: u8) -> &Arc<LevelTables> {
        let l = level as usize;
        if self.tables.len() <= l {
            self.tables.resize(l + 1, None);
        }
        let lib = self.lib;
        self.tables[l].get_or_insert_with(|| lib.tables(level))
    }

    /// The levels resolved so far.
    pub(crate) fn into_tables(self) -> Levels {
        self.tables
    }
}

impl BatchPlan {
    /// Sweep the DAG once: number every distinct key of a batched edge and
    /// resolve what its flushes apply; [`ExecCtx::due`] counts the deposits
    /// each key's batcher expects.  The `I→I` edges into an `It` are not
    /// batched: the same sweep lists them per `It`, with their factors
    /// resolved once per key, in the [`ShiftPlan`].  So are the merge
    /// shifts, per member `Is`; they keep a key, for the merges the `M→I`
    /// flush does not apply.  Keys and factors are numbered in edge order,
    /// looked up densely by destination or `(level, octant | offset)`, and
    /// hashed by one word for `I→I`.
    ///
    /// The sweep also resolves the tables the per-edge operators apply:
    /// `S→M`, `M→T` and `L→T` read their source node's level, `S→L` its
    /// destination's, and an `It` node's length is its level's plane-wave
    /// length.  Only levels some node or edge uses are resolved, so the
    /// build builds no table the evaluation would not.
    fn build<K: Kernel>(
        problem: &Problem,
        lib: &OperatorLibrary<K>,
        asm: &Assembly,
    ) -> (BatchPlan, ShiftPlan, Levels) {
        let dag = &asm.dag;
        let n_nodes = dag.num_nodes();
        let mut levels = LevelIndex::new(lib);
        // Every dense key's level is one of its edge's nodes' levels.
        let n_levels = dag.nodes().iter().map(|n| n.level as usize + 1).max();
        let n_levels = n_levels.unwrap_or(0);
        let mut dense = vec![NO_ID; n_nodes + n_levels * BatchKey::LEVEL_SLOTS];
        // Per `I→I` key: its factor id, and its key id (`NO_ID` until a
        // merge shift uses it).
        let mut i2i: HashMap<u64, (u32, u32), BuildHasherDefault<WordHasher>> = HashMap::default();
        let mut ops = Vec::new();
        let mut edge_key = vec![None; dag.edges().len()];
        let mut factors = Vec::new();
        // (destination, edge) and (source, edge), in edge order.
        let mut gathered: Vec<(u32, GatherEdge)> = Vec::new();
        let mut merges: Vec<(u32, MergeEdge)> = Vec::new();
        for id in 0..n_nodes as u32 {
            let node = dag.node(id);
            if node.class == NodeClass::It {
                levels.get(node.level);
            }
            let first = node.first_edge as usize;
            for (i, e) in dag.out_edges(id).iter().enumerate() {
                match e.op {
                    EdgeOp::S2M | EdgeOp::M2T | EdgeOp::L2T => {
                        levels.get(node.level);
                    }
                    EdgeOp::S2L => {
                        levels.get(dag.node(e.dst).level);
                    }
                    _ => {}
                }
                let Some(key) = batch_key(problem, lib, asm, id, e) else {
                    continue;
                };
                let eid = (first + i) as u32;
                let k = if let BatchKey::I2I { level, dir, delta } = key {
                    let ids = i2i
                        .entry(pack_i2i_key(level, dir, delta))
                        .or_insert((NO_ID, NO_ID));
                    if ids.0 == NO_ID {
                        factors.push((dir, i2i_factor(levels.get(level), dir, delta)));
                        ids.0 = factors.len() as u32 - 1;
                    }
                    let fac = ids.0;
                    let (_, src_slot, dst_slot) = unpack_i2i(e.tag);
                    if dag.node(e.dst).class == NodeClass::It {
                        let g = GatherEdge {
                            src: id,
                            slot: src_slot,
                            fac,
                            eid,
                        };
                        gathered.push((e.dst, g));
                        continue;
                    }
                    let m = MergeEdge {
                        eid,
                        dst: e.dst,
                        slot: dst_slot,
                        fac,
                    };
                    merges.push((id, m));
                    if ids.1 == NO_ID {
                        ops.push(KeyOp::I2I(Arc::clone(&factors[fac as usize].1)));
                        ids.1 = ops.len() as u32 - 1;
                    }
                    ids.1
                } else {
                    let slot = key.dense_slot(n_nodes).expect("a dense key");
                    if dense[slot] == NO_ID {
                        ops.push(key_op(&mut levels, key));
                        dense[slot] = ops.len() as u32 - 1;
                    }
                    dense[slot]
                };
                edge_key[eid as usize] = Some(k);
            }
        }
        let batch = BatchPlan { ops, edge_key };
        let shifts = ShiftPlan {
            gather: Rows::new(n_nodes, gathered),
            merge: Rows::new(n_nodes, merges),
            factors,
        };
        (batch, shifts, levels.into_tables())
    }
}

/// No id assigned yet, in the build sweep's dense and hashed indexes.
const NO_ID: u32 = u32::MAX;

/// Batching key for an edge whose operator is applied batched, `None`
/// for the per-edge operators (the particle-facing `S→M`, `S→L`,
/// `M→T`, `L→T`).  Near-field `S→T` edges batch per target leaf so one
/// fused SoA evaluation covers all of its source boxes.  Evaluated once
/// per edge, by the [`BatchPlan::build`] sweep.
fn batch_key<K: Kernel>(
    problem: &Problem,
    lib: &OperatorLibrary<K>,
    asm: &Assembly,
    src_id: u32,
    e: &DagEdge,
) -> Option<BatchKey> {
    let dag = &asm.dag;
    let src_node = dag.node(src_id);
    let dst_node = dag.node(e.dst);
    let stree = problem.tree.source();
    let ttree = problem.tree.target();
    match e.op {
        EdgeOp::M2M => Some(BatchKey::M2M {
            level: dst_node.level,
            octant: e.tag as u8,
        }),
        EdgeOp::L2L => Some(BatchKey::L2L {
            level: dst_node.level,
            octant: e.tag as u8,
        }),
        EdgeOp::M2L => {
            let o = ttree
                .node(dst_node.box_id)
                .key
                .offset(&stree.node(src_node.box_id).key);
            Some(BatchKey::M2L {
                level: src_node.level,
                offset: (o.0 as i8, o.1 as i8, o.2 as i8),
            })
        }
        EdgeOp::M2I => Some(BatchKey::M2I {
            level: src_node.level,
        }),
        EdgeOp::I2L => Some(BatchKey::I2L {
            level: src_node.level,
        }),
        EdgeOp::S2T => Some(BatchKey::S2T { dst: e.dst }),
        EdgeOp::I2I => {
            let (dir_idx, src_slot, _) = unpack_i2i(e.tag);
            let level = if src_slot == 0 {
                src_node.level
            } else {
                src_node.level + 1
            };
            // The side a level's tables are built for.
            let quarter = lib.side_at(level) * 0.25;
            let center = |class: NodeClass, box_id: u32| match class {
                NodeClass::S | NodeClass::M | NodeClass::Is => stree.center_of(box_id),
                _ => ttree.center_of(box_id),
            };
            let delta =
                center(dst_node.class, dst_node.box_id) - center(src_node.class, src_node.box_id);
            let quant = |x: f64| (x / quarter).round() as i16;
            Some(BatchKey::I2I {
                level,
                dir: dir_idx as u8,
                delta: (quant(delta.x), quant(delta.y), quant(delta.z)),
            })
        }
        _ => None,
    }
}

/// What every flush of `key`, any key but `I→I`'s, applies: its level's
/// tables and its own fields.
fn key_op<K: Kernel>(levels: &mut LevelIndex<'_, K>, key: BatchKey) -> KeyOp {
    let mut tables = |level: u8| Arc::clone(levels.get(level));
    match key {
        BatchKey::M2M { level, octant } => KeyOp::M2M(tables(level), octant),
        BatchKey::M2L { level, offset } => KeyOp::M2L(tables(level), offset),
        BatchKey::L2L { level, octant } => KeyOp::L2L(tables(level), octant),
        BatchKey::M2I { level } => KeyOp::M2I(tables(level)),
        BatchKey::I2L { level } => KeyOp::I2L(tables(level)),
        BatchKey::S2T { dst } => KeyOp::S2T(dst),
        BatchKey::I2I { .. } => unreachable!("an I→I key's operator is its factor"),
    }
}

/// The diagonal factors of the `I→I` key `(dir, delta)` at the level of
/// `t`, from the tables' factor cache.
fn i2i_factor(t: &LevelTables, dir: u8, delta: (i16, i16, i16)) -> Arc<Vec<f64>> {
    let quarter = t.side() * 0.25;
    let delta = Point3::new(
        delta.0 as f64 * quarter,
        delta.1 as f64 * quarter,
        delta.2 as f64 * quarter,
    );
    t.i2i(dashmm_tree::Direction::ALL[dir as usize], delta)
}

/// Whether `e`, an out-edge of node `src`, is a merge shift into a parent
/// at the member's own locality under the ownership `owner`: the member's
/// `M→I` flush applies it from the fresh panel, so it is never deposited
/// and reads no stored window.
fn merged_in_flush(dag: &Dag, src: u32, e: &DagEdge, owner: impl Fn(u32) -> u32) -> bool {
    e.op == EdgeOp::I2I && dag.node(e.dst).class == NodeClass::Is && owner(src) == owner(e.dst)
}

/// The own windows `Is` node `id` stores under the ownership `owner`, one
/// bit per direction (0 for any other class): those a translation into an
/// `It` reads, and those a merge shift its `M→I` flush does not apply
/// reads.
fn stored_mask(dag: &Dag, id: u32, owner: impl Fn(u32) -> u32 + Copy) -> u8 {
    if dag.node(id).class != NodeClass::Is {
        return 0;
    }
    let mut mask = 0;
    for e in dag.out_edges(id) {
        let (dir, src_slot, _) = unpack_i2i(e.tag);
        if src_slot == 0 && !merged_in_flush(dag, id, e, owner) {
            mask |= 1 << dir;
        }
    }
    mask
}

/// Attribute `[start, end)` to the edges `eids` as chained spans of equal
/// length, one per edge: the account of an interval that did their work
/// together.
fn record_split_spans(
    ctx: &TaskCtx,
    class: u8,
    start: u64,
    end: u64,
    eids: impl ExactSizeIterator<Item = u32>,
) {
    let m = eids.len() as u64;
    for (i, eid) in eids.enumerate() {
        let a = start + (end - start) * i as u64 / m;
        let z = start + (end - start) * (i as u64 + 1) / m;
        ctx.record_span(class, eid, a, z);
    }
}

/// `reads` sorted, duplicates dropped.  Two edges of one node read the same
/// window or disjoint ones, so this is their union.
fn distinct(mut reads: Vec<Range<usize>>) -> Vec<Range<usize>> {
    reads.sort_by_key(|r| r.start);
    reads.dedup();
    reads
}

/// Encode node `id`'s remote-edge bundle for one destination locality —
/// `id u32 | n_edges u32 | eid u32 × n_edges | data[range] f64s, per range`:
/// the expansion travels once, and only what the bundled edges read of it.
pub fn encode_bundle(id: u32, eids: &[u32], data: &[f64], ranges: &[Range<usize>]) -> Vec<u8> {
    let n_values: usize = ranges.iter().map(Range::len).sum();
    write_body(8 + 4 * eids.len() + 8 * n_values, |w| {
        w.u32(id).u32(eids.len() as u32);
        for &eid in eids {
            w.u32(eid);
        }
        for r in ranges {
            w.f64s(&data[r.clone()]);
        }
    })
}

/// A decoded bundle: node id, edge ids and the node's data.
pub type Bundle = (u32, Vec<u32>, Arc<[f64]>);

/// Decode a bundle: its node id and edge ids, then the values those edges
/// read, scattered into a zeroed node — the allocation the batch entries
/// will share.  `layout` names the node's length and the windows read, or
/// refuses (`None`) ids that are not a bundle here.
pub fn decode_bundle(
    body: &[u8],
    layout: impl FnOnce(u32, &[u32]) -> Option<(usize, Vec<Range<usize>>)>,
) -> Result<Bundle, BodyError> {
    read_body(body, |c| {
        let (id, n_edges) = (c.u32()?, c.u32()? as usize);
        let eids = c.records(n_edges, usize::MAX, 4, BodyCursor::u32)?;
        let (data_len, ranges) = layout(id, &eids).ok_or(BodyError::Malformed)?;
        let mut data: Arc<[f64]> = std::iter::repeat_n(0.0, data_len).collect();
        let buf = Arc::get_mut(&mut data).expect("not shared yet");
        for r in ranges {
            c.f64s_into(&mut buf[r])?;
        }
        Ok((id, eids, data))
    })
}

/// The splitmix64 finalizer: the stable mixer behind coordination-free
/// re-ownership.  Every survivor evaluates it over the same replicated
/// Morton keys and reaches the same assignment without exchanging a
/// message.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Offset-addressed addition: `input[0]` is the destination offset, the
/// rest is added element-wise there (the reduction of the multi-slot `Is`
/// LCOs).
fn offset_add(data: &mut [f64], input: &[f64]) {
    let off = input[0] as usize;
    let vals = &input[1..];
    assert!(off + vals.len() <= data.len(), "offset-add out of bounds");
    for (d, v) in data[off..off + vals.len()].iter_mut().zip(vals) {
        *d += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_add_places_values() {
        let mut data = vec![0.0; 6];
        offset_add(&mut data, &[2.0, 1.0, 10.0]);
        assert_eq!(data, vec![0.0, 0.0, 1.0, 10.0, 0.0, 0.0]);
        offset_add(&mut data, &[2.0, 1.0, 1.0]);
        assert_eq!(data, vec![0.0, 0.0, 2.0, 11.0, 0.0, 0.0]);
    }

    fn values(n: usize) -> Vec<f64> {
        (0..n).map(|i| 1.0 + i as f64 * 0.25).collect()
    }

    proptest::proptest! {
        /// Any `Is` layout, any subset of its slots read any number of
        /// times: the windows shipped are exactly the union of the reads,
        /// and scattering them back reproduces every value some edge reads
        /// and zeros everywhere else.
        #[test]
        fn bundle_round_trips_the_union_of_its_reads(
            id in proptest::prelude::any::<u32>(),
            own_w in 0usize..40,
            merged_w in 0usize..30,
            n_merged in 0usize..9,
            picks in proptest::collection::vec(proptest::prelude::any::<usize>(), 0..24),
            whole in proptest::prelude::any::<bool>(),
        ) {
            // The slots of the layout: six own windows, then the merged ones.
            let slots: Vec<Range<usize>> = (0..6)
                .map(|d| d * own_w..(d + 1) * own_w)
                .chain((0..n_merged).map(|k| 6 * own_w + k * merged_w..6 * own_w + (k + 1) * merged_w))
                .collect();
            let data_len = 6 * own_w + n_merged * merged_w;
            let data = values(data_len);
            // One read per edge: a slot each, or (any other operator) all.
            let reads: Vec<Range<usize>> = picks
                .iter()
                .map(|p| if whole { 0..data_len } else { slots[p % slots.len()].clone() })
                .collect();
            let eids: Vec<u32> = picks.iter().map(|&p| p as u32).collect();
            let mut read = vec![false; data_len];
            for r in &reads {
                read[r.clone()].fill(true);
            }
            let ranges = distinct(reads);
            // Sorted, disjoint where non-empty, and covering exactly the marks.
            let mut covered = vec![false; data_len];
            for r in &ranges {
                proptest::prop_assert!(covered[r.clone()].iter().all(|c| !c), "overlap at {:?}", r);
                covered[r.clone()].fill(true);
            }
            proptest::prop_assert!(ranges.windows(2).all(|w| w[0].start <= w[1].start));
            proptest::prop_assert_eq!(&covered, &read);

            let payload = encode_bundle(id, &eids, &data, &ranges);
            let n_values = read.iter().filter(|&&r| r).count();
            proptest::prop_assert_eq!(payload.len(), 8 + 4 * eids.len() + 8 * n_values);
            let layout = |_: u32, _: &[u32]| Some((data_len, ranges.clone()));
            let (got_id, got_eids, got) = decode_bundle(&payload, layout).expect("own encoding");
            proptest::prop_assert_eq!((got_id, &got_eids), (id, &eids));
            proptest::prop_assert_eq!(got.len(), data_len);
            for i in 0..data_len {
                proptest::prop_assert_eq!(got[i], if read[i] { data[i] } else { 0.0 });
            }
            // Neither a value short nor a byte long decodes.
            let longer = [&payload[..], &[0]].concat();
            proptest::prop_assert!(decode_bundle(&longer, layout).is_err());
            if n_values > 0 {
                let short = &payload[..payload.len() - 8];
                proptest::prop_assert!(decode_bundle(short, layout).is_err());
            }
            // A bundle cut anywhere inside its descriptors does not decode.
            for cut in 0..8 + 4 * eids.len() {
                let cut_short = decode_bundle(&payload[..cut], layout);
                proptest::prop_assert!(cut_short.is_err(), "cut at {}", cut);
            }
        }
    }

    /// Bytes off the wire that are not a bundle of this DAG — truncated,
    /// out of range, inconsistent or plain garbage — are each counted and
    /// dropped: nothing panics, nothing is published for a gather, no gate
    /// moves, and the answer does not move.
    #[test]
    fn malformed_bundles_are_counted_dropped_and_harmless() {
        use crate::{DashmmBuilder, Method};
        use dashmm_kernels::Laplace;
        use dashmm_tree::uniform_cube;
        let n = 1200;
        let (sources, targets) = (uniform_cube(n, 3), uniform_cube(n, 4));
        let charges: Vec<f64> = (0..n).map(|i| 1.0 - (i % 3) as f64).collect();
        let eval = DashmmBuilder::new(Laplace)
            .method(Method::AdvancedFmm)
            .threshold(20)
            .machine(2, 1)
            .build(&sources, &charges, &targets);
        let clean = eval.evaluate();
        assert_eq!(clean.malformed_parcels, 0);

        let rt = eval.runtime();
        let exec = eval.armed_graph();
        let dag = eval.dag();
        // A genuine bundle to damage: an `Is` node at locality 0 with
        // `I→I` edges into locality 1.
        let into_1 = |id: u32, e: &DagEdge| {
            dag.node(id).locality == 0 && e.op == EdgeOp::I2I && dag.node(e.dst).locality == 1
        };
        let id = (0..dag.num_nodes() as u32)
            .find(|&id| dag.out_edges(id).iter().any(|e| into_1(id, e)))
            .expect("an Is node with remote I→I edges");
        let first = dag.node(id).first_edge;
        let (mut eids, mut local_eid) = (Vec::new(), None);
        for (i, e) in dag.out_edges(id).iter().enumerate() {
            if into_1(id, e) {
                eids.push(first + i as u32);
            } else if dag.node(e.dst).locality == 0 {
                local_eid = Some(first + i as u32);
            }
        }
        let data = values(exec.data_len(id));
        let ranges = exec.bundle_ranges(id, &eids);
        assert!(ranges.iter().map(Range::len).sum::<usize>() < data.len());
        let good = encode_bundle(id, &eids, &data, &ranges);

        let with_eids = |eids: &[u32]| encode_bundle(id, eids, &data, &ranges);
        let patched = |at: usize, v: u32| {
            let mut p = good.clone();
            p[at..at + 4].copy_from_slice(&v.to_le_bytes());
            p
        };
        let whole = [0..data.len(), 0..0];
        let mut table: Vec<(&str, Vec<u8>)> = vec![
            ("empty", Vec::new()),
            ("three bytes", vec![1, 2, 3]),
            ("half a header", good[..4].to_vec()),
            ("cut inside the edge list", good[..10].to_vec()),
            ("no values", good[..8 + 4 * eids.len()].to_vec()),
            ("a value short", good[..good.len() - 8].to_vec()),
            ("ragged tail", good[..good.len() - 3].to_vec()),
            ("trailing byte", [&good[..], &[0]].concat()),
            ("a value long", [&good[..], &[0; 8]].concat()),
            ("the whole node", encode_bundle(id, &eids, &data, &whole)),
            ("node id past the DAG", patched(0, dag.num_nodes() as u32)),
            ("node id u32::MAX", patched(0, u32::MAX)),
            ("another node's id", patched(0, id + 1)),
            ("edge count u32::MAX", patched(4, u32::MAX)),
            ("edge count one too many", patched(4, eids.len() as u32 + 1)),
            ("edge count one too few", patched(4, eids.len() as u32 - 1)),
            (
                "edge id past the DAG",
                with_eids(&[dag.edges().len() as u32]),
            ),
            ("edge id u32::MAX", with_eids(&[eids[0], u32::MAX])),
            (
                "another node's edge",
                with_eids(&[first + dag.node(id).out_degree]),
            ),
        ];
        if let Some(eid) = local_eid {
            table.push(("an edge that applies elsewhere", with_eids(&[eid])));
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in [1usize, 7, 8, 16, 33, 257, 4096] {
            let garbage = (0..len).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            });
            table.push(("garbage", garbage.collect()));
        }

        // The gates of the `It`s the genuine bundle would signal.
        let gates: Vec<GlobalAddress> = eids
            .iter()
            .map(|&eid| dag.edges()[eid as usize].dst)
            .filter(|&dst| dag.node(dst).class == NodeClass::It)
            .map(|dst| exec.lco(dst))
            .collect();
        assert!(!gates.is_empty(), "the bundle feeds no It");
        let armed: Vec<u32> = gates.iter().map(|&g| rt.lco_remaining(g)).collect();

        let action = exec.remote_action;
        let sent = table.len() as u64;
        for (what, payload) in table {
            rt.seed(0, move |ctx| {
                ctx.send(Parcel::new(action, GlobalAddress::new(1, 0), payload));
            });
            rt.run();
            let published = exec.published[1].iter().filter(|p| p.lock().is_some());
            assert_eq!(published.count(), 0, "{what}: published at locality 1");
            let now: Vec<u32> = gates.iter().map(|&g| rt.lco_remaining(g)).collect();
            assert_eq!(now, armed, "{what}: moved a gate");
        }
        exec.seed(rt);
        rt.run();
        assert_eq!(exec.malformed_parcels(), sent);
        let got = eval.problem().unsort_potentials(&exec.extract(rt).0);
        let worst = got
            .iter()
            .zip(&clean.potentials)
            .map(|(a, b)| (a - b).abs() / b.abs().max(1.0))
            .fold(0.0, f64::max);
        assert!(
            worst <= 1e-12,
            "dropped garbage moved the answer: {worst:.2e}"
        );
    }

    /// Build, run on the re-armed graph, and keep it for inspection.
    fn ran<K: Kernel>(
        kernel: K,
        sphere: bool,
        machine: (usize, usize),
    ) -> (crate::Evaluation<K>, Arc<ExecCtx<K>>) {
        use dashmm_tree::{sphere_surface, uniform_cube};
        let n = 1500;
        let (sources, targets) = if sphere {
            (sphere_surface(n, 5), sphere_surface(n, 6))
        } else {
            (uniform_cube(n, 5), uniform_cube(n, 6))
        };
        let charges: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let eval = crate::DashmmBuilder::new(kernel)
            .method(crate::Method::AdvancedFmm)
            .threshold(20)
            .machine(machine.0, machine.1)
            .build(&sources, &charges, &targets);
        let exec = eval.armed_graph();
        exec.seed(eval.runtime());
        eval.runtime().run();
        (eval, exec)
    }

    fn bitwise(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// Every `It`'s buffer, from the continuation, from a recovery replay
    /// and from the per-edge reference, is the same bits; and given the same
    /// sources it does not depend on the number of workers.
    fn gather_case<K: Kernel + Clone>(kernel: K, sphere: bool) {
        let (eval, exec) = ran(kernel.clone(), sphere, (1, 2));
        let (rt, dag) = (eval.runtime(), eval.dag());
        let (stree, ttree) = (eval.problem().tree.source(), eval.problem().tree.target());
        // The in-edges of every node, in edge order, straight from the DAG.
        let mut into: Vec<Vec<(u32, DagEdge)>> = vec![Vec::new(); dag.num_nodes()];
        for id in 0..dag.num_nodes() as u32 {
            for e in dag.out_edges(id) {
                into[e.dst as usize].push((id, *e));
            }
        }
        let fired: HashMap<u32, Arc<[f64]>> = exec.fired_its.lock().iter().cloned().collect();
        let its: Vec<u32> = (0..dag.num_nodes() as u32)
            .filter(|&id| dag.node(id).class == NodeClass::It)
            .collect();
        assert_eq!(fired.len(), its.len(), "every It fired once");
        let (mut own, mut merged) = (0, 0);
        for &id in &its {
            let len = exec.data_len(id);
            let w = len / 6;
            let (mut want, mut shifted) = (vec![0.0; len], vec![0.0; w]);
            for (src, e) in &into[id as usize] {
                let (dir, src_slot, _) = unpack_i2i(e.tag);
                let src_node = dag.node(*src);
                let level = src_node.level + u8::from(src_slot != 0);
                let delta = ttree.center_of(dag.node(id).box_id) - stree.center_of(src_node.box_id);
                let fac = exec
                    .lib
                    .tables(level)
                    .i2i(dashmm_tree::Direction::ALL[dir], delta);
                let data = rt.lco_get(exec.lco(*src)).expect("every Is fired");
                ops::i2i_write(&fac, &data[exec.source_range(*src, e)], &mut shifted);
                for (d, v) in want[dir * w..(dir + 1) * w].iter_mut().zip(&shifted) {
                    *d += v;
                }
                if src_slot == 0 {
                    own += 1;
                } else {
                    merged += 1;
                }
            }
            let got = &fired[&id];
            assert!(bitwise(got, &want), "It {id}: not the per-edge sum");
            let replay = exec.fired_data(rt, 0, id).expect("a fired It replays");
            assert!(bitwise(&replay, got), "It {id}: the replay differs");
        }
        assert!(own > 0 && merged > 0, "own {own}, merged {merged}");

        // One worker: each `Is` sums its inputs in another order, so feed
        // the two-worker graph the one-worker sources, then gather again.
        let (eval1, exec1) = ran(kernel, sphere, (1, 1));
        let scale = fired
            .values()
            .flat_map(|b| b.iter())
            .fold(0.0, |m, v| f64::max(m, v.abs()));
        for (id, one) in exec1.fired_its.lock().iter() {
            let d = one
                .iter()
                .zip(fired[id].iter())
                .fold(0.0, |m, (a, b)| f64::max(m, (a - b).abs()));
            assert!(d <= 1e-12 * scale, "It {id}: one worker vs two {d:.2e}");
        }
        for id in 0..dag.num_nodes() as u32 {
            if dag.node(id).class == NodeClass::Is {
                let data = eval1
                    .runtime()
                    .lco_get(exec1.lco(id))
                    .expect("every Is fired");
                exec.publish(0, id, &Arc::from(data));
            }
        }
        for (id, one) in exec1.fired_its.lock().iter() {
            assert!(
                bitwise(&exec.gather(0, *id, None), one),
                "It {id}: depends on the workers"
            );
        }
    }

    #[test]
    fn gather_equals_the_per_edge_reference_laplace_cube() {
        gather_case(dashmm_kernels::Laplace, false);
    }

    #[test]
    fn gather_equals_the_per_edge_reference_yukawa_sphere() {
        gather_case(dashmm_kernels::Yukawa::new(1.0), true);
    }

    /// After a run no `It` holds a payload, an `Is` only the own windows a
    /// translation or a merge shift into another locality reads plus its
    /// merged slots, and every other class exactly its expansions.  The
    /// `Is` bytes are counted from the DAG and its localities alone.
    #[test]
    fn no_it_payload_is_resident() {
        use std::collections::HashSet;
        for machine in [(1, 2), (2, 2)] {
            let (eval, exec) = ran(dashmm_kernels::Laplace, false, machine);
            let (dag, asm) = (eval.dag(), eval.assembly());
            let mut want = [0u64; 6];
            for id in 0..dag.num_nodes() as u32 {
                let node = dag.node(id);
                want[node.class.index()] += match node.class {
                    NodeClass::S | NodeClass::It => 0,
                    NodeClass::Is => {
                        let read: HashSet<usize> = dag
                            .out_edges(id)
                            .iter()
                            .filter(|e| unpack_i2i(e.tag).1 == 0)
                            .filter(|e| {
                                let dst = dag.node(e.dst);
                                dst.class == NodeClass::It || dst.locality != node.locality
                            })
                            .map(|e| unpack_i2i(e.tag).0)
                            .collect();
                        let l = asm.is_layout[id as usize];
                        8 * (read.len() as u64 * l.own_w as u64 + (l.n_merged * l.merged_w) as u64)
                    }
                    _ => 8 * exec.data_len(id) as u64,
                };
            }
            let got = exec.payload_bytes(eval.runtime());
            assert_eq!(got, want, "{machine:?}: payload bytes by class");
            let is = want[NodeClass::Is.index()];
            assert!(is > 0 && want[NodeClass::T.index()] > 0);
            let message =
                dashmm_dag::DagStats::compute(dag).nodes[NodeClass::Is.index()].size_total;
            assert!(
                2 * is < message,
                "{machine:?}: Is holds {is} B of its {message} B of messages"
            );
        }
    }

    /// Every merged slot of every `Is` after a run is the sum over its
    /// members of the member's `M→I` window shifted to the parent, made here
    /// per edge: whether the member's flush applied the shift (a parent on
    /// its locality) or a bundle carried the window (one on another).  No
    /// fused shift counts as a replay.
    fn fused_merges_case<K: Kernel + Clone>(kernel: K, sphere: bool) {
        use dashmm_tree::Direction;
        for machine in [(1, 2), (2, 2)] {
            let (eval, exec) = ran(kernel.clone(), sphere, machine);
            let (rt, dag, asm) = (eval.runtime(), eval.dag(), eval.assembly());
            let stree = eval.problem().tree.source();
            assert_eq!(exec.dedup_skipped(), 0, "{machine:?}: replays counted");
            // Per (parent, merged slot): its members' shifted windows.
            let mut want: HashMap<(u32, u32), Vec<f64>> = HashMap::new();
            let (mut fused, mut bundled) = (0, 0);
            for id in 0..dag.num_nodes() as u32 {
                let node = dag.node(id);
                let merges = dag.out_edges(id).iter().filter(|e| {
                    node.class == NodeClass::Is && dag.node(e.dst).class == NodeClass::Is
                });
                for e in merges {
                    let (dir, _, slot) = unpack_i2i(e.tag);
                    let d = Direction::ALL[dir];
                    let t = exec.lib.tables(node.level);
                    let m_id = asm.m_of[node.box_id as usize] as u32;
                    let m = rt.lco_get(exec.lco(m_id)).expect("every M fired");
                    let w = asm.is_layout[id as usize].own_w as usize;
                    let (mut window, mut shifted) = (vec![0.0; w], vec![0.0; w]);
                    ops::m2i(&t, d, &m, &mut window);
                    let parent = dag.node(e.dst);
                    let delta = stree.center_of(parent.box_id) - stree.center_of(node.box_id);
                    ops::i2i_write(&t.i2i(d, delta), &window, &mut shifted);
                    let sum = want.entry((e.dst, slot)).or_insert_with(|| vec![0.0; w]);
                    sum.iter_mut().zip(&shifted).for_each(|(s, v)| *s += v);
                    if parent.locality == node.locality {
                        fused += 1;
                    } else {
                        bundled += 1;
                    }
                }
            }
            assert!(fused > 0, "{machine:?}: no merge shift was fused");
            assert!(
                machine.0 == 1 || bundled > 0,
                "{machine:?}: none was bundled"
            );
            for (&(id, slot), want) in &want {
                let data = rt.lco_get(exec.lco(id)).expect("every Is fired");
                let at = exec.slot_offset(id, 0, slot + 1);
                let got = &data[at..at + want.len()];
                let scale = want.iter().fold(0.0, |m, v| f64::max(m, v.abs()));
                let d = got
                    .iter()
                    .zip(want)
                    .fold(0.0, |m, (a, b)| f64::max(m, (a - b).abs()));
                assert!(
                    d <= 1e-13 * scale,
                    "{machine:?}: Is {id} slot {slot} off by {d:.2e} of {scale:.2e}"
                );
            }
        }
    }

    #[test]
    fn fused_merges_equal_the_per_edge_reference_laplace_cube() {
        fused_merges_case(dashmm_kernels::Laplace, false);
    }

    #[test]
    fn fused_merges_equal_the_per_edge_reference_yukawa_sphere() {
        fused_merges_case(dashmm_kernels::Yukawa::new(1.0), true);
    }

    /// The stored-window rule on hand-set owners: a merge shift into a
    /// parent with the member's owner stores nothing, one into another
    /// owner's parent stores its window, and re-owning one end onto the
    /// other's locality stores nothing again.
    #[test]
    fn stored_windows_follow_the_merge_parents_owner() {
        let (eval, _) = ran(dashmm_kernels::Laplace, false, (1, 1));
        let dag = eval.dag();
        // A member, its parent, and a direction only merge shifts read.
        let (member, parent, dir) = (0..dag.num_nodes() as u32)
            .filter(|&id| dag.node(id).class == NodeClass::Is)
            .find_map(|id| {
                let own = |e: &&DagEdge| unpack_i2i(e.tag).1 == 0;
                let edges = || dag.out_edges(id).iter().filter(own);
                let into = |e: &DagEdge| dag.node(e.dst).class;
                let m = edges().find(|e| into(e) == NodeClass::Is)?;
                let dir = unpack_i2i(m.tag).0;
                let read = |e: &&DagEdge| unpack_i2i(e.tag).0 == dir && into(e) == NodeClass::It;
                edges().find(read).is_none().then_some((id, m.dst, dir))
            })
            .expect("a direction only merges read");
        let bit = 1u8 << dir;
        let owners = |m: u32, p: u32| {
            move |id: u32| match id {
                _ if id == member => m,
                _ if id == parent => p,
                _ => 0,
            }
        };
        for (m, p, want, case) in [
            (0, 0, 0, "same owner"),
            (0, 1, bit, "split owners"),
            (1, 1, 0, "the member re-owned onto its parent's locality"),
            (2, 1, bit, "the member re-owned elsewhere"),
        ] {
            assert_eq!(stored_mask(dag, member, owners(m, p)) & bit, want, "{case}");
        }
    }

    /// Recovery gives a re-owned `Is` a new stored mask; a copy of it
    /// published for the gathers is re-laid to match, every window both
    /// masks store and every merged slot keeping its values.
    #[test]
    fn a_new_stored_mask_relays_the_published_copies() {
        let (eval, exec) = ran(dashmm_kernels::Laplace, false, (1, 2));
        let dag = eval.dag();
        let id = (0..dag.num_nodes() as u32)
            .find(|&id| {
                let l = eval.assembly().is_layout[id as usize];
                dag.node(id).class == NodeClass::Is && l.own_w > 0 && l.n_merged > 0
            })
            .expect("an Is with own windows and merged slots");
        let old = exec.stored(id);
        let before = exec.published[0][id as usize]
            .lock()
            .clone()
            .expect("published");
        // The windows of `dirs`, then the merged slots, where they sit now.
        let l = eval.assembly().is_layout[id as usize];
        let windows = |dirs: u8| {
            let own = (0..6).filter(|d| dirs & 1 << d != 0);
            own.map(|d| exec.slot_offset(id, d, 0)..exec.slot_offset(id, d, 0) + l.own_w as usize)
                .chain((1..=l.n_merged).map(|k| {
                    let at = exec.slot_offset(id, 0, k);
                    at..at + l.merged_w as usize
                }))
                .collect::<Vec<_>>()
        };
        let mask = old ^ 0b10_1010;
        let from = windows(old & mask);
        exec.set_stored(id, mask);
        let to = windows(old & mask);
        let after = exec.published[0][id as usize]
            .lock()
            .clone()
            .expect("published");
        assert_eq!(after.len(), exec.data_len(id));
        assert_eq!(from.len(), to.len());
        for (a, b) in from.into_iter().zip(to) {
            assert!(bitwise(&after[b], &before[a]), "a window moved wrong");
        }
    }

    #[test]
    #[should_panic]
    fn offset_add_bounds_checked() {
        let mut data = vec![0.0; 2];
        offset_add(&mut data, &[1.0, 1.0, 1.0]);
    }

    /// FNV-1a over a stream of words.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Self {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn put(&mut self, word: u64) -> &mut Self {
            for b in word.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
            self
        }
    }

    /// The DAG's CSR: every node's class, box, level, locality and size,
    /// then every edge's `(src, op, dst, bytes, tag)`, in id order.
    fn dag_hash(dag: &Dag) -> u64 {
        let mut h = Fnv::new();
        for n in dag.nodes() {
            h.put(n.class.index() as u64)
                .put(n.box_id as u64)
                .put(n.level as u64)
                .put(n.locality as u64)
                .put(n.size_bytes as u64);
        }
        for id in 0..dag.num_nodes() as u32 {
            for e in dag.out_edges(id) {
                h.put(id as u64)
                    .put(e.op.index() as u64)
                    .put(e.dst as u64)
                    .put(e.bytes as u64)
                    .put(e.tag as u64);
            }
        }
        h.0
    }

    /// The batch plan: every edge's key id, every key's operator in id
    /// order (an `I→I` key by its factor's id), every factor's direction
    /// and length in id order, and the gather and merge rows.
    fn plan_hash<K: Kernel>(exec: &ExecCtx<K>) -> u64 {
        let mut h = Fnv::new();
        for k in &exec.batch.edge_key {
            h.put(k.map_or(u64::MAX, u64::from));
        }
        let factors = &exec.shifts.factors;
        for op in &exec.batch.ops {
            h.put(op.class() as u64);
            match op {
                KeyOp::M2M(t, o) | KeyOp::L2L(t, o) => h.put(t.level() as u64).put(*o as u64),
                KeyOp::M2L(t, (x, y, z)) => h
                    .put(t.level() as u64)
                    .put(*x as u8 as u64)
                    .put(*y as u8 as u64)
                    .put(*z as u8 as u64),
                KeyOp::M2I(t) | KeyOp::I2L(t) => h.put(t.level() as u64),
                KeyOp::I2I(f) => {
                    let fac = factors.iter().position(|(_, g)| Arc::ptr_eq(f, g));
                    h.put(fac.expect("an I→I key's factor is listed") as u64)
                }
                KeyOp::S2T(dst) => h.put(*dst as u64),
            };
        }
        for (dir, f) in factors {
            h.put(*dir as u64).put(f.len() as u64);
        }
        for &at in exec
            .shifts
            .gather
            .first
            .iter()
            .chain(&exec.shifts.merge.first)
        {
            h.put(at as u64);
        }
        for g in &exec.shifts.gather.items {
            h.put(g.src as u64)
                .put(g.slot as u64)
                .put(g.fac as u64)
                .put(g.eid as u64);
        }
        for m in &exec.shifts.merge.items {
            h.put(m.eid as u64)
                .put(m.dst as u64)
                .put(m.slot as u64)
                .put(m.fac as u64);
        }
        h.0
    }

    /// Build `n` sources and `n` targets, from a cube or a sphere, on two
    /// localities at `threshold`; hash the DAG and the batch plan, evaluate
    /// once and count the operator levels built: `(dag, plan, levels)`.
    fn set_up<K: Kernel>(
        kernel: K,
        method: crate::Method,
        sphere: bool,
        n: usize,
        threshold: usize,
    ) -> (u64, u64, usize) {
        use dashmm_tree::{sphere_surface, uniform_cube};
        let (sources, targets) = if sphere {
            (sphere_surface(n, 31), sphere_surface(n, 32))
        } else {
            (uniform_cube(n, 31), uniform_cube(n, 32))
        };
        let charges: Vec<f64> = (0..n).map(|i| ((i * 3) % 7) as f64 - 3.0).collect();
        let eval = crate::DashmmBuilder::new(kernel)
            .method(method)
            .threshold(threshold)
            .machine(2, 1)
            .build(&sources, &charges, &targets);
        let dag = dag_hash(eval.dag());
        let plan = plan_hash(&eval.armed_graph());
        eval.evaluate();
        (dag, plan, eval.library().built_levels())
    }

    // The constants below were computed by this code when lists 3 and 4
    // began to take the cheaper side (`assemble::goes_direct`).  All three
    // 8 000-point problems at threshold 20 have list-3/4 entries whose far
    // side is a small leaf, on the cube too, so those entries are now
    // `S→T` edges and the DAG and the batch plan hash differently from
    // the parent's.  The operator levels built are the parent's.

    #[test]
    fn pinned_setup_advanced_laplace_cube() {
        let got = set_up(
            dashmm_kernels::Laplace,
            crate::Method::AdvancedFmm,
            false,
            8000,
            20,
        );
        assert_eq!(got, (12163682139162686636, 13631758037319125050, 3));
    }

    #[test]
    fn pinned_setup_advanced_yukawa_sphere() {
        let got = set_up(
            dashmm_kernels::Yukawa::new(2.0),
            crate::Method::AdvancedFmm,
            true,
            8000,
            20,
        );
        assert_eq!(got, (18343621556059769480, 3725832570762186627, 4));
    }

    #[test]
    fn pinned_setup_basic_laplace_cube() {
        let got = set_up(
            dashmm_kernels::Laplace,
            crate::Method::BasicFmm,
            false,
            8000,
            20,
        );
        assert_eq!(got, (8522845954241082168, 16682424400672492430, 3));
    }

    /// The benchmark's cubes keep their DAG: a 20 000-point cube at
    /// threshold 60 has no list-3 or list-4 entry, so the cost rule has
    /// nothing to choose.  The constants were computed at the parent of
    /// the change that made lists 3 and 4 take the cheaper side.
    #[test]
    fn pinned_setup_cube_at_threshold_60_keeps_its_dag() {
        use dashmm_tree::{uniform_cube, BuildParams, DualTree};
        let (n, threshold) = (20_000, 60);
        let tree = DualTree::build(
            &uniform_cube(n, 31),
            &uniform_cube(n, 32),
            BuildParams {
                threshold,
                max_level: 20,
            },
        );
        let lists = tree.interaction_lists();
        for t in 0..lists.len() as u32 {
            let bl = lists.of(t);
            assert!(
                bl.l3.is_empty() && bl.l4.is_empty(),
                "target {t} has a list-3/4 entry"
            );
        }
        let (dag, plan, _) = set_up(
            dashmm_kernels::Laplace,
            crate::Method::AdvancedFmm,
            false,
            n,
            threshold,
        );
        assert_eq!((dag, plan), (6691477883788811422, 1890433625553691161));
    }
}

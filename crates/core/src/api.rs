//! The user-facing DASHMM API.
//!
//! End users configure a kernel, a method, accuracy, and a (virtual)
//! machine; no knowledge of the runtime is required — the second design
//! objective of DASHMM (paper §I).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dashmm_amt::{ObsLevel, PeerFailure, RunReport, Runtime, RuntimeConfig, Transport};
use dashmm_dag::{
    BlockPolicy, Dag, DagStats, DistributionPolicy, FmmPolicy, NodeClass, SingleLocality,
};
use dashmm_expansion::{AccuracyParams, OperatorLibrary};
use dashmm_kernels::Kernel;
use dashmm_tree::{BuildParams, Point3};
use parking_lot::Mutex;

use crate::assemble::{assemble, Assembly};
use crate::exec::{ExecCtx, RecoveryStats};
use crate::problem::{block_owner, Method, Problem};

/// Which distribution policy assigns DAG nodes to localities.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Everything on locality 0.
    Single,
    /// Nodes follow their box owner.
    Block,
    /// The paper's FMM policy (leaf pinning + communication-aware `It`
    /// placement).
    Fmm,
}

/// Builder for a DASHMM evaluation.
pub struct DashmmBuilder<K: Kernel> {
    kernel: K,
    method: Method,
    accuracy: AccuracyParams,
    threshold: usize,
    localities: usize,
    workers: usize,
    obs: ObsLevel,
    gradients: bool,
    policy: Policy,
    transport: Option<Arc<dyn Transport>>,
    recover: bool,
}

impl<K: Kernel> DashmmBuilder<K> {
    /// Start a builder with the paper's defaults: advanced FMM, 3-digit
    /// accuracy, refinement threshold 60, one locality with two workers.
    pub fn new(kernel: K) -> Self {
        DashmmBuilder {
            kernel,
            method: Method::AdvancedFmm,
            accuracy: AccuracyParams::three_digit(),
            threshold: 60,
            localities: 1,
            workers: 2,
            obs: ObsLevel::Off,
            gradients: false,
            policy: Policy::Fmm,
            transport: None,
            recover: false,
        }
    }

    /// Select the method.
    pub fn method(mut self, m: Method) -> Self {
        self.method = m;
        self
    }

    /// Select the accuracy preset.
    pub fn accuracy(mut self, a: AccuracyParams) -> Self {
        self.accuracy = a;
        self
    }

    /// Tree refinement threshold (paper: 60).
    pub fn threshold(mut self, t: usize) -> Self {
        assert!(t >= 1);
        self.threshold = t;
        self
    }

    /// Number of localities and workers per locality.
    pub fn machine(mut self, localities: usize, workers_per_locality: usize) -> Self {
        assert!(localities >= 1 && workers_per_locality >= 1);
        self.localities = localities;
        self.workers = workers_per_locality;
        self
    }

    /// Record operator traces (paper §V-B).  Shorthand for
    /// [`DashmmBuilder::obs`] with [`ObsLevel::Full`] / [`ObsLevel::Off`].
    pub fn tracing(mut self, on: bool) -> Self {
        self.obs = if on { ObsLevel::Full } else { ObsLevel::Off };
        self
    }

    /// Select the observability level: `Off` (no instrumentation),
    /// `Counters` (per-class tallies, no spans), or `Full` (span traces
    /// for timeline export and critical-path analysis).
    pub fn obs(mut self, level: ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Also compute field gradients (∂φ/∂x, ∂φ/∂y, ∂φ/∂z) at the targets.
    /// Only the target-side evaluation operators change; the expansions and
    /// the DAG are identical.
    pub fn gradients(mut self, on: bool) -> Self {
        self.gradients = on;
        self
    }

    /// Select the distribution policy.
    pub fn policy(mut self, p: Policy) -> Self {
        self.policy = p;
        self
    }

    /// Survive a locality failure: when the transport convicts and fences
    /// a dead peer mid-run, re-own its DAG nodes across the survivors,
    /// replay the orphaned slice, and finish the evaluation with correct
    /// results instead of returning partial output; later evaluations of
    /// the same [`Evaluation`] run on the survivors.  Requires a fencing
    /// transport (e.g. `dashmm-net`'s socket transport), whose recovery
    /// mode [`DashmmBuilder::build`] sets from this flag, so it is the
    /// one switch; losing rank 0 or a second rank during recovery is out
    /// of scope.
    pub fn recover(mut self, on: bool) -> Self {
        self.recover = on;
        self
    }

    /// Run the localities over an explicit [`Transport`] (e.g. a
    /// `dashmm-net` socket transport in a multi-process run).  Overrides
    /// the locality count given to [`DashmmBuilder::machine`] with the
    /// transport's world size; every process must build the identical
    /// evaluation (SPMD), and each hosts only its own rank's workers.
    pub fn transport(mut self, t: Arc<dyn Transport>) -> Self {
        self.localities = t.num_ranks() as usize;
        self.transport = Some(t);
        self
    }

    /// Build the trees, assemble and distribute the explicit DAG, and stand
    /// up the runtime.  The returned [`Evaluation`] can be evaluated
    /// repeatedly (the paper's iterative use case).
    pub fn build(self, sources: &[Point3], charges: &[f64], targets: &[Point3]) -> Evaluation<K> {
        let t0 = Instant::now();
        let problem = Arc::new(Problem::new(
            sources,
            charges,
            targets,
            BuildParams {
                threshold: self.threshold,
                max_level: 20,
            },
        ));
        let tree_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let lib = Arc::new(OperatorLibrary::new(
            self.kernel,
            self.accuracy,
            problem.tree.domain().side(),
            self.method.uses_planewave(),
        ));
        let mut asm = assemble(&problem, self.method, &lib);
        let dag_ms = t1.elapsed().as_secs_f64() * 1e3;

        // Distribution.
        let n_loc = self.localities as u32;
        {
            let problem = Arc::clone(&problem);
            let owner = move |class: NodeClass, box_id: u32| -> u32 {
                let (tree, n) = match class {
                    NodeClass::S | NodeClass::M | NodeClass::Is => {
                        (problem.tree.source(), problem.tree.source().points().len())
                    }
                    _ => (problem.tree.target(), problem.tree.target().points().len()),
                };
                block_owner(tree.node(box_id).first, n, n_loc)
            };
            match self.policy {
                Policy::Single => SingleLocality.assign(&mut asm.dag, n_loc, &owner),
                Policy::Block => BlockPolicy.assign(&mut asm.dag, n_loc, &owner),
                Policy::Fmm => FmmPolicy::default().assign(&mut asm.dag, n_loc, &owner),
            }
        }

        let rt_cfg = RuntimeConfig {
            localities: self.localities,
            workers_per_locality: self.workers,
            obs: self.obs,
        };
        let runtime = match self.transport {
            Some(t) => {
                t.set_recover(self.recover);
                Runtime::with_transport(rt_cfg, t)
            }
            None => Runtime::new(rt_cfg),
        };
        Evaluation {
            problem,
            lib,
            asm: Arc::new(asm),
            runtime,
            gradients: self.gradients,
            recover: self.recover,
            graph: Mutex::new(None),
            network_ms: OnceLock::new(),
            tree_ms,
            dag_ms,
        }
    }
}

/// Fold a fenced first run's counters into its recovery run's report so
/// the caller sees one evaluation's totals.  The recovery run's trace is
/// kept (the fenced run's spans are dropped); the wall-clock anchor stays
/// the first run's.
fn merge_reports(first: &RunReport, mut second: RunReport) -> RunReport {
    second.wall_ns += first.wall_ns;
    second.tasks += first.tasks;
    second.messages += first.messages;
    second.bytes += first.bytes;
    second.trace_dropped += first.trace_dropped;
    second.dropped_parcels += first.dropped_parcels;
    for (s, f) in second.counters.0.iter_mut().zip(first.counters.0.iter()) {
        s.count += f.count;
        s.total_ns += f.total_ns;
    }
    second.run_start_unix_ns = first.run_start_unix_ns;
    second
}

/// A ready-to-run DASHMM evaluation.
pub struct Evaluation<K: Kernel> {
    problem: Arc<Problem>,
    lib: Arc<OperatorLibrary<K>>,
    asm: Arc<Assembly>,
    runtime: Arc<Runtime>,
    gradients: bool,
    recover: bool,
    /// The LCO network on `runtime`: built by the first `evaluate()` and
    /// re-armed by every later one, on the ownership a recovery left.
    graph: Mutex<Option<Arc<ExecCtx<K>>>>,
    /// Milliseconds spent building the network, once it is built.
    network_ms: OnceLock<f64>,
    /// Milliseconds spent building the dual tree.
    pub tree_ms: f64,
    /// Milliseconds spent assembling the explicit DAG.
    pub dag_ms: f64,
}

/// What a completed recovery did (see [`DashmmBuilder::recover`]).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryInfo {
    /// The convicted peer: rank, termination epoch and conviction reason.
    pub failure: PeerFailure,
    /// DAG slice rebuilt on this process.
    pub stats: RecoveryStats,
    /// Duplicate edge applications swallowed by the exactly-once bitmap.
    pub dedup_skipped: u64,
    /// Milliseconds of the fenced first run (detection included).
    pub first_run_ms: f64,
    /// Milliseconds from conviction handling to recovered quiescence
    /// (re-ownership, replay, and the recovery run).
    pub recovery_ms: f64,
}

/// The result of one evaluation.
pub struct EvalOutput {
    /// Potentials, one per target, in the caller's original order.
    pub potentials: Vec<f64>,
    /// Field gradients per target (when requested via
    /// [`DashmmBuilder::gradients`]).
    pub gradients: Option<Vec<[f64; 3]>>,
    /// Runtime statistics (tasks, messages, trace).
    pub report: RunReport,
    /// Milliseconds from the start of the run to quiescence, recovery
    /// included; building or re-arming the LCO network and reading the
    /// results back are not counted.
    pub eval_ms: f64,
    /// Present when a locality failed mid-run and the survivors recovered
    /// the evaluation ([`DashmmBuilder::recover`]): the potentials are
    /// complete despite `report.lost_peer` being set.  `None` with
    /// `report.lost_peer` set means the output is partial.  A peer an
    /// earlier evaluation recovered from is not reported again: later
    /// evaluations run on the survivors alone and complete with both `None`.
    pub recovery: Option<RecoveryInfo>,
    /// Parcels this process dropped because their bytes did not describe a
    /// bundle of its DAG, or any valid runtime call
    /// ([`RunReport::dropped_parcels`]).  Zero in any run between processes
    /// of one build; otherwise the potentials miss those contributions.
    pub malformed_parcels: u64,
}

impl<K: Kernel> Evaluation<K> {
    /// Run one DAG evaluation with the charges given at build time.
    pub fn evaluate(&self) -> EvalOutput {
        self.evaluate_morton(self.problem.charges.clone())
    }

    /// Re-run the evaluation with *new* charges — the paper's iterative use
    /// case (§IV): the trees, interaction lists, operator tables, explicit
    /// DAG, distribution and the LCO network itself are all reused; the
    /// network is only re-armed (input counts restored, payloads zeroed by
    /// their first input).  `charges` are in the caller's original source
    /// order.
    pub fn evaluate_with_charges(&self, charges: &[f64]) -> EvalOutput {
        assert_eq!(
            charges.len(),
            self.problem.tree.source().points().len(),
            "one charge per source"
        );
        let permuted: Vec<f64> = self
            .problem
            .tree
            .source()
            .permutation()
            .iter()
            .map(|&i| charges[i as usize])
            .collect();
        self.evaluate_morton(permuted)
    }

    fn evaluate_morton(&self, charges_morton: Vec<f64>) -> EvalOutput {
        // Held for the whole evaluation: one evaluation at a time runs on
        // the network.
        let mut graph = self.graph.lock();
        let exec = self.armed(&mut graph, charges_morton);
        exec.seed(&self.runtime);
        let t0 = Instant::now();
        let mut report = self.runtime.run();
        // A peer an earlier evaluation recovered from owns nothing of the
        // network any more: this run lost nothing.
        report.lost_peer = report.lost_peer.filter(|f| exec.uses(f.rank));
        let mut recovery = None;
        if self.recover && report.fenced {
            if let Some(failure) = report.lost_peer {
                let first_run_ms = t0.elapsed().as_secs_f64() * 1e3;
                let tr = Instant::now();
                let stats = exec.prepare_recovery(&self.runtime, failure.rank);
                let rep2 = self.runtime.run();
                // A *different* rank dying during recovery is out of
                // scope: report the partial run.  Re-observing the same
                // dead rank in the recovery run is benign (the conviction
                // poll can race survivor quiescence).
                let second_failure = rep2.lost_peer.is_some_and(|f2| f2.rank != failure.rank);
                let merged = merge_reports(&report, rep2);
                report = merged;
                if second_failure {
                    eprintln!(
                        "dashmm: second locality failure during recovery ({}); giving up",
                        report.lost_peer.map(|f| f.rank).unwrap_or(u32::MAX)
                    );
                } else {
                    report.lost_peer = Some(failure);
                    report.fenced = true;
                    recovery = Some(RecoveryInfo {
                        failure,
                        stats,
                        dedup_skipped: exec.dedup_skipped(),
                        first_run_ms,
                        recovery_ms: tr.elapsed().as_secs_f64() * 1e3,
                    });
                }
            }
        }
        let eval_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (pot, grad) = exec.extract(&self.runtime);
        let malformed_parcels = exec.malformed_parcels() + report.dropped_parcels;
        EvalOutput {
            potentials: self.problem.unsort_potentials(&pot),
            gradients: grad.map(|g| {
                let mut out = vec![[0.0; 3]; g.len()];
                for (sorted_idx, &orig) in
                    self.problem.tree.target().permutation().iter().enumerate()
                {
                    out[orig as usize] = g[sorted_idx];
                }
                out
            }),
            report,
            eval_ms,
            recovery,
            malformed_parcels,
        }
    }

    /// The LCO network in `graph` — built first if there is none — armed
    /// with `charges`.
    fn armed(&self, graph: &mut Option<Arc<ExecCtx<K>>>, charges: Vec<f64>) -> Arc<ExecCtx<K>> {
        let exec = self.built(graph);
        exec.rearm(&self.runtime, charges);
        Arc::clone(exec)
    }

    /// The LCO network in `graph`, built first if there is none.
    fn built<'g>(&self, graph: &'g mut Option<Arc<ExecCtx<K>>>) -> &'g Arc<ExecCtx<K>> {
        graph.get_or_insert_with(|| {
            let t0 = Instant::now();
            let exec = ExecCtx::new(
                Arc::clone(&self.problem),
                Arc::clone(&self.lib),
                Arc::clone(&self.asm),
                self.gradients,
                &self.runtime,
            );
            let _ = self.network_ms.set(t0.elapsed().as_secs_f64() * 1e3);
            exec
        })
    }

    /// Milliseconds the first `evaluate()` spent building the LCO network
    /// (the batch plan, the owner column and one LCO per DAG node), or
    /// `None` before any evaluation.  [`Evaluation::resident_payload`]
    /// builds the network too, and then pays this instead.
    pub fn network_ms(&self) -> Option<f64> {
        self.network_ms.get().copied()
    }

    /// Payload bytes by node class ([`NodeClass::index`]) that the LCO
    /// network holds at the localities this process hosts: what an
    /// evaluation keeps resident of its expansions.  An `It` holds none and
    /// an `Is` only the windows read after its `M→I` flush.  Builds the
    /// network if no evaluation has; runs nothing.
    pub fn resident_payload(&self) -> [u64; 6] {
        self.built(&mut self.graph.lock())
            .payload_bytes(&self.runtime)
    }

    /// The explicit DAG.
    pub fn dag(&self) -> &Dag {
        &self.asm.dag
    }

    /// The assembled DAG with its box correspondence and `Is` layouts.
    pub fn assembly(&self) -> &Assembly {
        &self.asm
    }

    /// DAG statistics (paper Tables I and II).
    pub fn dag_stats(&self) -> DagStats {
        DagStats::compute(&self.asm.dag)
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The operator library.
    pub fn library(&self) -> &OperatorLibrary<K> {
        &self.lib
    }

    /// The runtime (for custom inspection).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    /// The first steps of `evaluate_morton` — the network built or kept,
    /// armed with the build-time charges, not yet seeded — keeping it in
    /// hand.
    #[cfg(test)]
    pub(crate) fn armed_graph(&self) -> Arc<ExecCtx<K>> {
        self.armed(&mut self.graph.lock(), self.problem.charges.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_kernels::{direct_sum, Laplace, Yukawa};
    use dashmm_tree::{sphere_surface, uniform_cube};

    fn p3(points: &[Point3]) -> Vec<[f64; 3]> {
        points.iter().map(|p| [p.x, p.y, p.z]).collect()
    }

    /// Relative L2 error of `got` versus the direct oracle.
    fn rel_err(got: &[f64], want: &[f64]) -> f64 {
        let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
        let den: f64 = want.iter().map(|b| b * b).sum();
        (num / den).sqrt()
    }

    fn accuracy_case<K: Kernel>(kernel: K, method: Method, n: usize, sphere: bool) -> f64 {
        let sources = if sphere {
            sphere_surface(n, 11)
        } else {
            uniform_cube(n, 11)
        };
        let targets = if sphere {
            sphere_surface(n, 22)
        } else {
            uniform_cube(n, 22)
        };
        let charges: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 0 { 1.0 } else { -0.5 })
            .collect();
        let eval = DashmmBuilder::new(kernel.clone())
            .method(method)
            .threshold(20)
            .machine(2, 2)
            .build(&sources, &charges, &targets);
        let out = eval.evaluate();
        let want = direct_sum(&kernel, &p3(&sources), &charges, &p3(&targets), 0);
        rel_err(&out.potentials, &want)
    }

    #[test]
    fn advanced_fmm_laplace_cube_three_digits() {
        let e = accuracy_case(Laplace, Method::AdvancedFmm, 1500, false);
        assert!(e < 1e-3, "relative error {e:.2e}");
    }

    #[test]
    fn advanced_fmm_yukawa_cube() {
        let e = accuracy_case(Yukawa::new(1.0), Method::AdvancedFmm, 1500, false);
        assert!(e < 1e-3, "relative error {e:.2e}");
    }

    #[test]
    fn basic_fmm_laplace_sphere() {
        let e = accuracy_case(Laplace, Method::BasicFmm, 1500, true);
        assert!(e < 1e-3, "relative error {e:.2e}");
    }

    #[test]
    fn barnes_hut_moderate_accuracy() {
        let e = accuracy_case(Laplace, Method::BarnesHut { theta: 0.5 }, 1200, false);
        // BH with multipole-only expansions: coarser than FMM but controlled.
        assert!(e < 5e-3, "relative error {e:.2e}");
    }

    /// `M→I` and `I→L` ride the edge batcher: after a complete run no
    /// deposit is outstanding and nothing is parked, on one locality and
    /// on two (where their remote edges batch at the destination), and the
    /// two machines agree.
    #[test]
    fn planewave_edges_drain_through_the_batcher_on_one_and_two_localities() {
        let n = 1500;
        let sources = uniform_cube(n, 5);
        let targets = uniform_cube(n, 6);
        let charges: Vec<f64> = (0..n).map(|i| 1.0 - (i % 4) as f64 * 0.5).collect();
        let run = |localities: usize| {
            let eval = DashmmBuilder::new(Laplace)
                .method(Method::AdvancedFmm)
                .threshold(20)
                .machine(localities, 2)
                .build(&sources, &charges, &targets);
            let exec = eval.armed_graph();
            exec.seed(&eval.runtime);
            eval.runtime.run();
            let (remaining, parked, planewave_edges) = exec.batch_audit();
            assert_eq!((remaining, parked), (0, 0), "{localities} localities");
            assert!(planewave_edges > 0, "no M→I/I→L edge was keyed");
            eval.problem
                .unsort_potentials(&exec.extract(&eval.runtime).0)
        };
        let one = run(1);
        let two = run(2);
        let e = rel_err(&two, &one);
        assert!(e <= 1e-12, "2 localities vs 1: {e:.2e}");
        let want = direct_sum(&Laplace, &p3(&sources), &charges, &p3(&targets), 0);
        for (got, what) in [(&one, "1 locality"), (&two, "2 localities")] {
            let e = rel_err(got, &want);
            assert!(e <= 1e-3, "{what} vs direct sum: {e:.2e}");
        }
    }

    /// A bundle ships the union of what its edges read, exactly: the run
    /// report's byte count equals a sum made here from the DAG alone, one
    /// marked-index bitmap per (node, remote locality), and is strictly
    /// below what shipping every node whole would cost.
    #[test]
    fn two_locality_bytes_are_the_referenced_regions_exactly() {
        use crate::assemble::unpack_i2i;
        use dashmm_dag::{EdgeOp, NodeClass};
        let n = 1500;
        let sources = uniform_cube(n, 5);
        let targets = uniform_cube(n, 6);
        let charges: Vec<f64> = (0..n).map(|i| 1.0 - (i % 4) as f64 * 0.5).collect();
        let eval = DashmmBuilder::new(Laplace)
            .method(Method::AdvancedFmm)
            .threshold(20)
            .machine(2, 2)
            .build(&sources, &charges, &targets);
        let report = eval.evaluate().report;

        let dag = eval.dag();
        let data_len = |id: u32| {
            let node = dag.node(id);
            match node.class {
                NodeClass::S | NodeClass::T => 0,
                NodeClass::M | NodeClass::L => eval.lib.params().surface_points(),
                NodeClass::Is => eval.asm.is_layout[id as usize].total_len(),
                NodeClass::It => 6 * eval.lib.tables(node.level).planewave_len(),
            }
        };
        let (mut sliced, mut whole, mut bundles) = (0u64, 0u64, 0u64);
        for id in 0..dag.num_nodes() as u32 {
            let home = dag.node(id).locality;
            // Per remote locality: its edge count and which values they read.
            let mut per_dest: Vec<(usize, Vec<bool>)> = vec![(0, vec![false; data_len(id)]); 2];
            for e in dag.out_edges(id) {
                let (edges, read) = &mut per_dest[dag.node(e.dst).locality as usize];
                *edges += 1;
                let window = if e.op == EdgeOp::I2I {
                    let layout = eval.asm.is_layout[id as usize];
                    let (dir, src_slot, _) = unpack_i2i(e.tag);
                    let (own, merged) = (layout.own_w as usize, layout.merged_w as usize);
                    match src_slot {
                        0 => dir * own..(dir + 1) * own,
                        k => {
                            let at = 6 * own + (k as usize - 1) * merged;
                            at..at + merged
                        }
                    }
                } else {
                    0..read.len()
                };
                read[window].fill(true);
            }
            for (dest, (edges, read)) in per_dest.iter().enumerate() {
                if dest as u32 == home || *edges == 0 {
                    continue;
                }
                let values = read.iter().filter(|&&r| r).count();
                // Parcel header, then id | n_edges | eids, then the values.
                sliced += (16 + 4 * (2 + edges) + 8 * values) as u64;
                whole += (16 + 4 * (2 + edges) + 8 * read.len()) as u64;
                bundles += 1;
            }
        }
        assert_eq!(report.messages, bundles);
        assert_eq!(report.bytes, sliced, "bytes sent vs the DAG's own sum");
        assert!(
            sliced < whole,
            "regions ({sliced} B) must undercut whole nodes ({whole} B)"
        );
    }

    #[test]
    fn multi_locality_matches_single() {
        let n = 1000;
        let sources = uniform_cube(n, 7);
        let targets = uniform_cube(n, 8);
        let charges: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let single = DashmmBuilder::new(Laplace)
            .threshold(25)
            .machine(1, 2)
            .build(&sources, &charges, &targets)
            .evaluate();
        let multi = DashmmBuilder::new(Laplace)
            .threshold(25)
            .machine(4, 1)
            .build(&sources, &charges, &targets)
            .evaluate();
        let e = rel_err(&multi.potentials, &single.potentials);
        assert!(e < 1e-12, "distribution must not change results: {e:.2e}");
        assert!(
            multi.report.messages > 0,
            "multi-locality run must communicate"
        );
        assert_eq!(single.report.messages, 0);
    }

    #[test]
    fn tracing_produces_operator_events() {
        let n = 600;
        let sources = uniform_cube(n, 3);
        let targets = uniform_cube(n, 4);
        let charges = vec![1.0; n];
        let out = DashmmBuilder::new(Laplace)
            .threshold(20)
            .tracing(true)
            .build(&sources, &charges, &targets)
            .evaluate();
        assert!(!out.report.trace.is_empty(), "trace events expected");
        // The trace must contain up-sweep, bridge and down-sweep classes.
        let classes: std::collections::HashSet<u8> =
            out.report.trace.all_events().map(|e| e.class).collect();
        assert!(
            classes.len() >= 4,
            "expected several operator classes, got {classes:?}"
        );
    }

    /// One built network, re-armed four times with alternating charges:
    /// on one worker every output is bitwise a fresh build's, on two
    /// localities within 1e-12, and after every call each batcher has
    /// drained and each LCO has triggered.
    #[test]
    fn a_rearmed_graph_matches_a_fresh_build() {
        let n = 1500;
        let sources = uniform_cube(n, 9);
        let targets = uniform_cube(n, 10);
        let qa: Vec<f64> = (0..n).map(|i| 1.0 - (i % 3) as f64).collect();
        let qb: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.5).collect();
        for ((localities, workers), tol) in [((1, 1), 0.0), ((2, 2), 1e-12)] {
            let build = || {
                DashmmBuilder::new(Laplace)
                    .method(Method::AdvancedFmm)
                    .threshold(20)
                    .machine(localities, workers)
                    .build(&sources, &qa, &targets)
            };
            let fresh = |q: &[f64]| build().evaluate_with_charges(q).potentials;
            let want = [fresh(&qa), fresh(&qb)];
            let eval = build();
            for call in 0..5 {
                let q = if call % 2 == 0 { &qa } else { &qb };
                let got = eval.evaluate_with_charges(q).potentials;
                let want = &want[call % 2];
                if tol == 0.0 {
                    let same = got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(same, "call {call}: not bitwise a fresh build's");
                } else {
                    let e = rel_err(&got, want);
                    assert!(e <= tol, "call {call} on {localities} localities: {e:.2e}");
                }
                let graph = eval.graph.lock().clone().expect("the graph is kept");
                let (remaining, parked, _) = graph.batch_audit();
                assert_eq!((remaining, parked), (0, 0), "call {call}");
                assert!(graph.all_triggered(&eval.runtime), "call {call}");
            }
        }
    }

    #[test]
    fn repeated_evaluation_is_deterministic() {
        let n = 500;
        let sources = uniform_cube(n, 5);
        let targets = uniform_cube(n, 6);
        let charges = vec![1.0; n];
        let eval = DashmmBuilder::new(Laplace)
            .threshold(20)
            .build(&sources, &charges, &targets);
        assert_eq!(eval.network_ms(), None, "no network before an evaluation");
        let a = eval.evaluate();
        let built = eval
            .network_ms()
            .expect("the first evaluation builds the network");
        let b = eval.evaluate();
        assert_eq!(
            eval.network_ms(),
            Some(built),
            "later evaluations re-arm it"
        );
        for (x, y) in a.potentials.iter().zip(&b.potentials) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}

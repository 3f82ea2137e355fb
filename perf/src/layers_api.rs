//! Every call the traced binary makes into the program beyond `api.rs`.
//!
//! [`LayerProbe`] is the recorder a traced run passes through `api.rs`: it
//! opens a span around each call, switches the runtime's per-class counters
//! on, and reads per-layer figures off the values the calls return.  The
//! rest of the file is the probes that price one layer alone: the set-up
//! replayed stage by stage, an empty-kernel DAG through the runtime, a GEMM
//! panel, a kernel tile.

use std::any::Any;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use dashmm::dag::{Dag, DistributionPolicy, EdgeOp, FmmPolicy, NodeClass};
use dashmm::expansion::{AccuracyParams, OperatorLibrary};
use dashmm::kernels::{Laplace, Yukawa};
use dashmm::linalg::{gemm_acc_panels, Matrix};
use dashmm::runtime::{LcoSpec, ObsLevel, Runtime, RuntimeConfig, Transport};
use dashmm::tree::BuildParams;
use dashmm::{assemble, block_owner, DashmmBuilder, EvalOutput, Method, Problem, StepReport};
use dashmm_net::{EvalResponseMsg, EvalServer, SocketTransport};

use dashmm_perf::api::{self, FmmProblem, KernelSpec};
use dashmm_perf::probe::Probe;
use dashmm_perf::stats;
use dashmm_perf::trace::{Guard, Recorder};

/// The operator classes of the paper's Table II, as metric name parts.
pub fn op_names() -> Vec<String> {
    EdgeOp::ALL.iter().map(|op| format!("{op:?}")).collect()
}

fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

#[derive(Default)]
struct Seen {
    /// Warm evaluations seen, and over them: per operator class the count
    /// and busy nanoseconds, the tasks run, and the phases of `evaluate()`.
    evals: u64,
    op_count: [u64; EdgeOp::COUNT],
    op_busy_ns: [u64; EdgeOp::COUNT],
    tasks: u64,
    install_ns: u64,
    run_ns: u64,
    extract_ns: u64,
    /// Warm steps seen, and over them the phases and the reuse.
    steps: u64,
    refit_us: [f64; 4],
    reused: u64,
    recomputed: u64,
    dirty_fraction: f64,
    /// Per request: queue, fuse, compute, reply, wire, in seconds.
    svc_phases: [Vec<f64>; 5],
    /// Parcels, bytes, frames sent and frames retransmitted by this rank.
    net: Option<[u64; 4]>,
    /// Mean requests per tile, requests shed.
    server: Option<(f64, u64)>,
}

pub struct LayerProbe {
    pub rec: Recorder,
    /// The recorder's zero on the realtime clock, to place the runtime's
    /// own run-start stamp among the spans.
    epoch_unix_ns: u64,
    /// Workers the measured runtime schedules on.
    workers: u64,
    seen: Mutex<Seen>,
}

impl LayerProbe {
    pub fn new(workers: u64) -> Self {
        let rec = Recorder::new();
        let epoch_unix_ns = unix_ns().saturating_sub(rec.now_ns());
        LayerProbe {
            rec,
            epoch_unix_ns,
            workers,
            seen: Mutex::new(Seen::default()),
        }
    }

    fn seen(&self) -> std::sync::MutexGuard<'_, Seen> {
        self.seen.lock().expect("probe lock")
    }

    /// One `evaluate()`: split its span into install, run and extract with
    /// the runtime's own stamps, and add up the per-class counters.
    fn saw_eval(&self, out: &EvalOutput, op_id: u64) {
        let parent = self.rec.current();
        let now = self.rec.now_ns();
        let start = parent.map_or(now, |p| self.rec.start_of(p));
        let run_start = out
            .report
            .run_start_unix_ns
            .saturating_sub(self.epoch_unix_ns)
            .clamp(start, now);
        let run_end = (run_start + out.report.wall_ns).min(now);
        self.rec
            .record("core.install", start, run_start - start, parent, op_id);
        self.rec
            .record("amt.run", run_start, run_end - run_start, parent, op_id);
        self.rec
            .record("core.extract", run_end, now - run_end, parent, op_id);
        if op_id == 0 {
            // The cold operation belongs to set-up.
            return;
        }
        let mut seen = self.seen();
        seen.evals += 1;
        seen.tasks += out.report.tasks;
        seen.install_ns += run_start - start;
        seen.run_ns += run_end - run_start;
        seen.extract_ns += now - run_end;
        for i in 0..EdgeOp::COUNT {
            seen.op_count[i] += out.report.counters.0[i].count;
            seen.op_busy_ns[i] += out.report.counters.0[i].total_ns;
        }
    }

    /// One `step()`: its four phases, back to back, as the report times them.
    fn saw_step(&self, report: &StepReport, op_id: u64) {
        let parent = self.rec.current();
        let phases = [
            ("refit.rebin", report.refit_us),
            ("refit.recompute", report.recompute_us),
            ("refit.lists", report.lists_us),
            ("refit.dag", report.dag_us),
        ];
        let mut at = parent.map_or(self.rec.now_ns(), |p| self.rec.start_of(p));
        for (name, us) in phases {
            let ns = (us * 1e3) as u64;
            self.rec.record(name, at, ns, parent, op_id);
            at += ns;
        }
        if op_id == 0 {
            return;
        }
        let mut seen = self.seen();
        seen.steps += 1;
        for (acc, (_, us)) in seen.refit_us.iter_mut().zip(phases) {
            *acc += us;
        }
        seen.reused += report.reused_expansions as u64;
        seen.recomputed += (report.recomputed_leaves + report.recomputed_interiors) as u64;
        seen.dirty_fraction += report.dirty_fraction();
    }

    /// One reply: the server's four phases, and what is left of the round
    /// trip as time on the wire and in the client.
    fn saw_reply(&self, resp: &EvalResponseMsg, op_id: u64) {
        let parent = self.rec.current();
        let now = self.rec.now_ns();
        let start = parent.map_or(now, |p| self.rec.start_of(p));
        let p = &resp.phases;
        let server = [p.queue_us, p.fuse_us, p.compute_us, p.reply_us].map(|us| us as f64 * 1e-6);
        let rtt = (now - start) as f64 * 1e-9;
        let wire = (rtt - server.iter().sum::<f64>()).max(0.0);
        // Where the server's interval sits inside the round trip is not
        // observable from the client: centre it.
        let mut at = start + (wire * 0.5e9) as u64;
        for (name, s) in [
            "net.svc.queue",
            "net.svc.fuse",
            "net.svc.compute",
            "net.svc.reply",
        ]
        .into_iter()
        .zip(server)
        {
            self.rec.record(name, at, (s * 1e9) as u64, parent, op_id);
            at += (s * 1e9) as u64;
        }
        if op_id == 0 {
            return;
        }
        let mut seen = self.seen();
        for (acc, s) in seen
            .svc_phases
            .iter_mut()
            .zip(server.into_iter().chain([wire]))
        {
            acc.push(s);
        }
    }

    fn saw_transport(&self, net: &SocketTransport) {
        let stats = net.stats();
        self.seen().net = Some([
            stats.parcels_sent,
            stats.bytes_sent,
            stats.frames_sent,
            net.metrics().retransmit_frames,
        ]);
    }

    fn saw_server(&self, server: &EvalServer) {
        let stats = server.stats();
        self.seen().server = Some((stats.mean_tile_requests(), stats.totals.shed_requests));
    }
}

impl Probe for LayerProbe {
    fn enter(&self, name: &'static str, op_id: u64) -> Option<Guard<'_>> {
        Some(self.rec.enter(name, op_id))
    }

    fn saw<T: 'static>(&self, value: &T, op_id: u64) {
        let value = value as &dyn Any;
        if let Some(out) = value.downcast_ref::<EvalOutput>() {
            self.saw_eval(out, op_id);
        } else if let Some(report) = value.downcast_ref::<StepReport>() {
            self.saw_step(report, op_id);
        } else if let Some(resp) = value.downcast_ref::<EvalResponseMsg>() {
            self.saw_reply(resp, op_id);
        } else if let Some(net) = value.downcast_ref::<Arc<SocketTransport>>() {
            self.saw_transport(net);
        } else if let Some(server) = value.downcast_ref::<EvalServer>() {
            self.saw_server(server);
        } else {
            // A value of a type this file does not know means the program
            // changed under the benchmark: say so instead of reporting zeros.
            panic!("perf-layers: unknown value {}", std::any::type_name::<T>());
        }
    }

    fn tune<T: 'static>(&self, builder: T) -> T {
        let mut slot = Some(builder);
        let any = &mut slot as &mut dyn Any;
        if let Some(b) = any.downcast_mut::<Option<DashmmBuilder<Laplace>>>() {
            *b = b.take().map(|b| b.obs(ObsLevel::Counters));
        } else if let Some(b) = any.downcast_mut::<Option<DashmmBuilder<Yukawa>>>() {
            *b = b.take().map(|b| b.obs(ObsLevel::Counters));
        } else {
            panic!(
                "perf-layers: unknown builder {}",
                std::any::type_name::<T>()
            );
        }
        slot.expect("builder put back")
    }

    /// Per warm operation unless the name says otherwise; seconds, counts
    /// and shares under the names `perf/README.md` lists.
    fn layers(&self) -> Vec<(String, f64)> {
        let seen = self.seen();
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
        if seen.evals > 0 {
            let per_op = 1.0 / seen.evals as f64;
            put("core.install_s", seen.install_ns as f64 * 1e-9 * per_op);
            put("amt.run_s", seen.run_ns as f64 * 1e-9 * per_op);
            put("core.extract_s", seen.extract_ns as f64 * 1e-9 * per_op);
            put("amt.tasks", seen.tasks as f64 * per_op);
            let capacity_ns = (self.workers * seen.run_ns) as f64;
            let busy_ns: u64 = seen.op_busy_ns.iter().sum();
            // Equation 1 of the paper: the share of worker time spent in
            // operators while the runtime was running.
            put("amt.busy_frac", busy_ns as f64 / capacity_ns);
            for (i, op) in op_names().iter().enumerate() {
                put(
                    &format!("expansion.op.{op}.count"),
                    seen.op_count[i] as f64 * per_op,
                );
                put(
                    &format!("expansion.op.{op}.busy_s"),
                    seen.op_busy_ns[i] as f64 * 1e-9 * per_op,
                );
                put(
                    &format!("expansion.op.{op}.busy_frac"),
                    seen.op_busy_ns[i] as f64 / capacity_ns,
                );
            }
            if let Some([parcels, bytes, frames, rtx]) = seen.net {
                // The cold evaluation sent its share too.
                let per_eval = 1.0 / (seen.evals + 1) as f64;
                put("net.parcels", parcels as f64 * per_eval);
                put("net.bytes", bytes as f64 * per_eval);
                put("net.frames", frames as f64 * per_eval);
                put(
                    "net.parcels_per_frame",
                    parcels as f64 / frames.max(1) as f64,
                );
                put("net.retransmit_frac", rtx as f64 / frames.max(1) as f64);
            }
        }
        if seen.steps > 0 {
            let per_step = 1.0 / seen.steps as f64;
            for (name, us) in ["rebin", "recompute", "lists", "dag"]
                .iter()
                .zip(seen.refit_us)
            {
                put(&format!("refit.{name}_s"), us * 1e-6 * per_step);
            }
            put(
                "refit.reuse_ratio",
                seen.reused as f64 / (seen.reused + seen.recomputed).max(1) as f64,
            );
            put("refit.dirty_frac", seen.dirty_fraction * per_step);
        }
        if !seen.svc_phases[0].is_empty() {
            for (name, samples) in ["queue", "fuse", "compute", "reply", "wire"]
                .iter()
                .zip(&seen.svc_phases)
            {
                put(&format!("net.svc.{name}_s"), stats::median(samples));
            }
        }
        if let Some((per_tile, shed)) = seen.server {
            put("net.svc.requests_per_tile", per_tile);
            put("net.svc.shed", shed as f64);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Set-up, stage by stage
// ---------------------------------------------------------------------------

/// Counts that must repeat exactly from run to run.
pub struct SetupCounts {
    pub boxes: usize,
    pub depth: u8,
    pub dag_nodes: usize,
    pub dag_edges: usize,
}

/// What `DashmmBuilder::build` does, one stage at a time under a span each:
/// dual tree, operator tables, explicit DAG, distribution over
/// `localities`.  Returns the DAG for [`empty_dag_task_ns`].
pub fn setup_replay(rec: &Recorder, p: &FmmProblem, localities: u32) -> (SetupCounts, Dag) {
    let (sources, targets) = (api::points(p.sources), api::points(p.targets));
    let problem = {
        let _span = rec.enter("tree.build", 0);
        Arc::new(Problem::new(
            &sources,
            p.charges,
            &targets,
            BuildParams {
                threshold: p.threshold,
                max_level: 20,
            },
        ))
    };
    let depth = problem
        .tree
        .source()
        .depth()
        .max(problem.tree.target().depth());
    macro_rules! assemble_with {
        ($kernel:expr) => {{
            let lib = OperatorLibrary::new(
                $kernel,
                AccuracyParams::three_digit(),
                problem.tree.domain().side(),
                true,
            );
            {
                // The levels that carry far-field work; assembling the DAG
                // would otherwise build them on first use.
                let _span = rec.enter("expansion.tables", 0);
                for level in 2..=depth {
                    lib.tables(level);
                }
            }
            let _span = rec.enter("dag.assemble", 0);
            assemble(&problem, Method::AdvancedFmm, &lib)
        }};
    }
    let mut asm = match p.kernel {
        KernelSpec::Laplace => assemble_with!(Laplace),
        KernelSpec::Yukawa(lambda) => assemble_with!(Yukawa::new(lambda)),
    };
    {
        let _span = rec.enter("dag.distribute", 0);
        let tree = &problem.tree;
        let owner = |class: NodeClass, box_id: u32| -> u32 {
            let octree = match class {
                NodeClass::S | NodeClass::M | NodeClass::Is => tree.source(),
                _ => tree.target(),
            };
            block_owner(octree.node(box_id).first, octree.points().len(), localities)
        };
        FmmPolicy::default().assign(&mut asm.dag, localities, &owner);
    }
    let counts = SetupCounts {
        boxes: problem.tree.source().num_nodes() + problem.tree.target().num_nodes(),
        depth,
        dag_nodes: asm.dag.num_nodes(),
        dag_edges: asm.dag.num_edges(),
    };
    (counts, asm.dag)
}

// ---------------------------------------------------------------------------
// One layer alone
// ---------------------------------------------------------------------------

/// Nanoseconds of wall time per task when `dag` runs through the runtime
/// with and-gate LCOs and triggers that only signal their out-edges: the
/// price of the runtime itself at the real DAG shape, on two workers.
/// The best of `repeats` runs.
pub fn empty_dag_task_ns(dag: &Dag, repeats: usize) -> f64 {
    let rt = Runtime::new(RuntimeConfig {
        localities: 1,
        workers_per_locality: 2,
        ..Default::default()
    });
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        rt.reset();
        let addrs = Arc::new(OnceLock::new());
        let made: Vec<_> = (0..dag.num_nodes() as u32)
            .map(|id| {
                let dsts: Vec<u32> = dag.out_edges(id).iter().map(|e| e.dst).collect();
                let addrs = Arc::clone(&addrs);
                let signal = move |ctx: &dashmm::runtime::TaskCtx| {
                    let addrs: &Vec<_> = addrs.get().expect("addresses published before the run");
                    for &dst in &dsts {
                        ctx.lco_set(addrs[dst as usize], &[]);
                    }
                };
                let inputs = dag.node(id).in_degree;
                if inputs == 0 {
                    // A source has nothing to wait for: seed its signals.
                    rt.seed(0, signal);
                    rt.lco_new(0, LcoSpec::and_gate(0))
                } else {
                    rt.lco_new(
                        0,
                        LcoSpec::and_gate(inputs).with_trigger(Box::new(move |ctx, _| signal(ctx))),
                    )
                }
            })
            .collect();
        addrs.set(made).expect("published once");
        let report = rt.run();
        best = best.min(report.wall_ns as f64 / report.tasks.max(1) as f64);
    }
    best
}

/// GFLOP/s of `ys += a · xs` with `a` the size of one operator matrix
/// (`n_exp × n_exp`) against 256 right-hand sides.  The best of `repeats`.
/// Also returns the flops and the bytes one call touches, computed from
/// the array sizes.
pub fn gemm_gflops(repeats: usize) -> (f64, f64, f64) {
    const RHS: usize = 256;
    let n = AccuracyParams::three_digit().surface_points();
    let a = Matrix::from_fn(n, n, |i, j| 1.0 / (1 + i + 2 * j) as f64);
    let xs: Vec<f64> = (0..n * RHS).map(|i| (i % 7) as f64 - 3.0).collect();
    let mut ys = vec![0.0; n * RHS];
    let flops = 2.0 * (n * n * RHS) as f64;
    let bytes = 8.0 * (n * n + 3 * n * RHS) as f64;
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        gemm_acc_panels(std::hint::black_box(&a), std::hint::black_box(&xs), &mut ys);
        std::hint::black_box(&mut ys);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (flops / best * 1e-9, flops, bytes)
}

/// Kernel evaluations per second of the direct sum over one leaf's worth
/// of sources (60), target by target.  The best of `repeats`.
pub fn pairs_per_s(kernel: KernelSpec, repeats: usize) -> f64 {
    const TILE: usize = 60;
    const TARGETS: usize = 4096;
    let point = |i: usize, shift: f64| {
        let x = i as f64;
        [(x * 0.37).sin() + shift, (x * 0.91).cos(), (x * 0.13).sin()]
    };
    let sources: Vec<[f64; 3]> = (0..TILE).map(|i| point(i, 0.0)).collect();
    let charges: Vec<f64> = (0..TILE).map(|i| 0.5 + (i % 3) as f64 * 0.5).collect();
    let targets: Vec<[f64; 3]> = (0..TARGETS).map(|i| point(i, 3.0)).collect();
    let mut best = f64::INFINITY;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut sum = 0.0;
        for t in &targets {
            sum += api::direct_at(kernel, &sources, &charges, t);
        }
        std::hint::black_box(sum);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (TILE * TARGETS) as f64 / best
}

//! The six workloads: what each one builds, what its operation is, and how
//! its outputs are checked.
//!
//! Every workload sets up `setups` times (build plus the first, cold
//! operation), keeps the last set-up, and then repeats its warm operation
//! until `seconds` of operations have been timed.  Checks run outside the
//! timed intervals.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::api::{self, FmmProblem, KernelSpec, ResidentSpec, P3};
use crate::gen::{self, Drift, Geometry};
use crate::host;
use crate::json::{self, obj, Value};
use crate::probe::Probe;

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// `evaluate()` with fixed charges, one locality, two workers.
    Fmm(Geometry, KernelSpec),
    /// `evaluate_with_charges()` with fresh charges on every operation.
    Iter,
    /// `evaluate()` across two processes over loopback sockets.
    Dist,
    /// Request round trips against the in-process evaluation server.
    Svc,
    /// `step()` on the resident engine.
    Step,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Sources (and, for the batch workloads, as many targets).
    pub points: usize,
    /// The percentile reported as `op_tail_s`; 100 is the slowest operation
    /// and is used where a run has fewer than forty operations.
    pub tail_percentile: u32,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "fmm-cube-100k",
        why: "uniform deep tree: M2L/I2I in expansion and linalg dominate, net is idle; the paper's headline geometry",
        kind: Kind::Fmm(Geometry::Cube, KernelSpec::Laplace),
        points: 100_000,
        tail_percentile: 100,
    },
    Spec {
        name: "fmm-sphere-yukawa-50k",
        why: "adaptive tree, scale-variant kernel: lists 3/4 and the near field in kernels weigh more, per-level tables make set-up heavier",
        kind: Kind::Fmm(Geometry::Sphere, KernelSpec::Yukawa(1.0)),
        points: 50_000,
        tail_percentile: 100,
    },
    Spec {
        name: "iter-cube-20k",
        why: "iterative use at small N: per-evaluation fixed costs in core and amt (reset, LCO install, extract, idle polling) are the largest share",
        kind: Kind::Iter,
        points: 20_000,
        tail_percentile: 75,
    },
    Spec {
        name: "dist-cube-20k-2rank",
        why: "two processes over loopback: the only workload with net transport, coalescing and retransmit on the blocking path",
        kind: Kind::Dist,
        points: 20_000,
        tail_percentile: 75,
    },
    Spec {
        name: "svc-b16-2conn",
        why: "closed loop of 16-target requests on 2 connections: framing, aggregation, admission and wake-ups in net::service outweigh compute",
        kind: Kind::Svc,
        points: 20_000,
        // p99 has the samples but, on a shared two-core host, not the
        // steadiness: it moved by a fifth from run to run.
        tail_percentile: 90,
    },
    Spec {
        name: "step-cube-50k",
        why: "writes beside reads on resident state: refit and dirty-subtree recompute dominate, amt and net are idle",
        kind: Kind::Step,
        points: 50_000,
        tail_percentile: 90,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// End-to-end metrics: name, unit, bound.  All are better when lower.
/// `BENCHMARK.json` carries the same table; a test holds them together.
pub const END_TO_END: [(&str, &str, f64); 4] = [
    ("setup_s", "s", 0.25),
    ("op_s", "s", 0.25),
    ("op_tail_s", "s", 0.25),
    ("peak_rss_mb", "MiB", 0.20),
];

/// The operator classes of the paper's Table II, as the traced run names
/// them in `expansion.op.<class>.*`.
pub const OPS: [&str; 11] = [
    "S2T", "S2M", "M2M", "M2I", "I2I", "I2L", "L2L", "L2T", "M2L", "S2L", "M2T",
];

/// Per-layer metrics of the traced run: name and unit, in the order
/// `BENCHMARK.json` lists them.  Shares are of the traced operation (or of
/// the traced set-up for the four set-up stages) and are 0 where a
/// workload does not reach the layer.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut put = |names: &[&str], unit: &'static str| {
        v.extend(names.iter().map(|n| (n.to_string(), unit)));
    };
    put(&["traced.op_s", "traced.setup_s"], "s");
    put(&["obs.overhead_frac"], "frac");
    put(
        &[
            "tree.build_frac",
            "expansion.tables_frac",
            "dag.assemble_frac",
            "dag.distribute_frac",
        ],
        "frac",
    );
    put(
        &["tree.boxes", "tree.depth", "dag.nodes", "dag.edges"],
        "count",
    );
    put(
        &["core.install_frac", "amt.run_frac", "core.extract_frac"],
        "frac",
    );
    put(&["amt.tasks"], "count");
    put(&["amt.busy_frac", "amt.busy_frac.rank1"], "frac");
    for op in OPS {
        put(&[&format!("expansion.op.{op}.count")], "count");
        put(&[&format!("expansion.op.{op}.busy_frac")], "frac");
    }
    put(&["amt.empty_dag_task_ns"], "ns");
    put(&["linalg.gemm_gflops"], "Gflop/s");
    put(
        &["kernels.pairs_per_s.laplace", "kernels.pairs_per_s.yukawa"],
        "1/s",
    );
    put(&["net.parcels", "net.frames"], "count");
    put(&["net.bytes"], "B");
    put(&["net.parcels_per_frame"], "ratio");
    put(&["net.retransmit_frac"], "frac");
    put(
        &[
            "net.svc.queue_frac",
            "net.svc.fuse_frac",
            "net.svc.compute_frac",
            "net.svc.reply_frac",
            "net.svc.wire_frac",
        ],
        "frac",
    );
    put(&["net.svc.rtt_floor_s"], "s");
    put(&["net.svc.requests_per_tile"], "ratio");
    put(&["net.svc.shed"], "count");
    put(
        &[
            "refit.rebin_frac",
            "refit.recompute_frac",
            "refit.lists_frac",
            "refit.dag_frac",
        ],
        "frac",
    );
    put(&["refit.reuse_ratio"], "ratio");
    put(&["refit.dirty_frac"], "frac");
    v
}

pub const THRESHOLD: usize = 60;
/// Targets compared with the direct sum (relative L2 at most 1e-3).
const DIRECT_SAMPLE: usize = 256;
const DIRECT_LIMIT: f64 = 1e-3;
/// Results that must repeat agree to this relative L2.
const REPEAT_LIMIT: f64 = 1e-12;
const MIN_OPS: u64 = 3;
const REQUEST_TARGETS: usize = 16;
const CONNECTIONS: u64 = 2;
/// A fixed domain a little larger than the cube the points start in; the
/// drift reflects at its walls so every rebuild bins into the same grid.
const STEP_DOMAIN_HALF: f64 = 1.05;
/// Per-step displacement, as a share of the domain side.
const STEP_SPEED: f64 = 0.002;
/// One twentieth of the points moves per step.
const STEP_STRIDE: usize = 20;
const STEP_VERIFY_EVERY: u64 = 100;
const STEP_PROBES: usize = 64;
/// Seconds after which a hung launch of the two-process workload is killed.
const DIST_WATCHDOG_SECS: u64 = 100;

pub struct RunOpts {
    pub seed: u64,
    /// Seconds of warm operations to time.
    pub seconds: f64,
    /// Shrinks point counts and `seconds` for smoke runs; 1 for real runs.
    pub scale: f64,
    pub setups: usize,
    pub out_dir: PathBuf,
    /// When this process started, for the two-process workload's set-up.
    pub started: Instant,
}

impl RunOpts {
    pub fn points(&self, full: usize) -> usize {
        if self.scale >= 1.0 {
            full
        } else {
            ((full as f64 * self.scale) as usize).max(2_000)
        }
    }
}

/// The worst value one kind of check saw against its limit.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: String,
    pub worst: f64,
    pub limit: f64,
    pub count: u64,
}

#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub op_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub rss_kb: u64,
    /// Per-layer figures of a traced run.
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    /// Count one operation; it failed unless `value <= limit`.
    fn check(&mut self, name: &str, value: f64, limit: f64) {
        self.attempted += 1;
        self.verify(name, value, limit);
    }

    /// Record a check on operations already counted; one of them failed
    /// unless `value <= limit`.
    fn verify(&mut self, name: &str, value: f64, limit: f64) {
        // A NaN must fail.
        let ok = value <= limit;
        if !ok {
            self.failed += 1;
        }
        self.fold_check(&Check {
            name: name.to_string(),
            worst: value,
            limit,
            count: 1,
        });
    }

    fn fold_check(&mut self, check: &Check) {
        match self.checks.iter_mut().find(|c| c.name == check.name) {
            Some(c) => {
                c.count += check.count;
                // A NaN, once seen, stays the worst.
                if check.worst.is_nan() || check.worst > c.worst {
                    c.worst = check.worst;
                }
            }
            None => self.checks.push(check.clone()),
        }
    }

    /// Add another outcome's samples, counts and checks to this one.
    pub fn absorb(&mut self, other: &Outcome) {
        self.setup_s.extend(&other.setup_s);
        self.op_s.extend(&other.op_s);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for c in &other.checks {
            self.fold_check(c);
        }
    }

    /// Count operations that could not be carried out at all.
    fn lost(&mut self, ops: u64, why: &str) {
        eprintln!("perf: {ops} operation(s) failed: {why}");
        self.attempted += ops;
        self.failed += ops;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && !self.op_s.is_empty()
    }

    pub fn to_json(&self) -> Value {
        obj(vec![
            ("setup_s", self.setup_s.clone().into()),
            ("op_s", self.op_s.clone().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            (
                "checks",
                Value::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", c.name.as_str().into()),
                                ("worst", c.worst.into()),
                                ("limit", c.limit.into()),
                                ("count", c.count.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("rss_kb", self.rss_kb.into()),
            (
                "layers",
                Value::Obj(
                    self.layers
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Outcome> {
        let nums = |key: &str| -> Option<Vec<f64>> {
            v.get(key)?.as_arr().iter().map(Value::as_f64).collect()
        };
        Some(Outcome {
            setup_s: nums("setup_s")?,
            op_s: nums("op_s")?,
            attempted: v.get("attempted")?.as_f64()? as u64,
            failed: v.get("failed")?.as_f64()? as u64,
            checks: v
                .get("checks")?
                .as_arr()
                .iter()
                .map(|c| {
                    Some(Check {
                        name: c.get("name")?.as_str()?.to_string(),
                        // A NaN is written as null.
                        worst: c.get("worst")?.as_f64().unwrap_or(f64::NAN),
                        limit: c.get("limit")?.as_f64()?,
                        count: c.get("count")?.as_f64()? as u64,
                    })
                })
                .collect::<Option<_>>()?,
            rss_kb: v.get("rss_kb")?.as_f64()? as u64,
            layers: v
                .get("layers")?
                .as_obj()
                .iter()
                .map(|(k, x)| Some((k.clone(), x.as_f64()?)))
                .collect::<Option<_>>()?,
        })
    }
}

/// Relative L2 distance of `got` from `want`.
pub fn rel_l2(got: &[f64], want: &[f64]) -> f64 {
    if got.len() != want.len() {
        return f64::NAN;
    }
    let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = want.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

/// The generated inputs of a batch evaluation.
pub struct FmmInputs {
    pub kernel: KernelSpec,
    pub sources: Vec<P3>,
    pub targets: Vec<P3>,
    pub charges: Vec<f64>,
    /// Targets compared with the direct sum.
    sample: Vec<usize>,
}

impl FmmInputs {
    pub fn new(geometry: Geometry, kernel: KernelSpec, n: usize, seed: u64) -> Self {
        FmmInputs {
            kernel,
            sources: gen::sources(geometry, n, seed),
            targets: gen::targets(geometry, n, seed),
            charges: gen::charges(n, seed, 0),
            sample: gen::sample_indices(n, DIRECT_SAMPLE, seed),
        }
    }

    pub fn problem(&self, workers: usize) -> FmmProblem<'_> {
        FmmProblem {
            kernel: self.kernel,
            sources: &self.sources,
            charges: &self.charges,
            targets: &self.targets,
            threshold: THRESHOLD,
            workers,
        }
    }

    /// Relative L2 error of `potentials` at the sampled targets against
    /// the direct sum of `charges` over all sources.
    fn direct_error(&self, charges: &[f64], potentials: &[f64]) -> f64 {
        if potentials.len() != self.targets.len() {
            return f64::NAN;
        }
        let got: Vec<f64> = self.sample.iter().map(|&i| potentials[i]).collect();
        let want: Vec<f64> = self
            .sample
            .iter()
            .map(|&i| api::direct_at(self.kernel, &self.sources, charges, &self.targets[i]))
            .collect();
        rel_l2(&got, &want)
    }
}

/// Run one workload in this process.  The two-process workload re-executes
/// this binary; in such a copy this call does not return.
pub fn run(spec: &Spec, opts: &RunOpts, probe: &impl Probe) -> Outcome {
    let mut out = match spec.kind {
        Kind::Fmm(geometry, kernel) => run_fmm(spec, geometry, kernel, false, opts, probe),
        Kind::Iter => run_fmm(spec, Geometry::Cube, KernelSpec::Laplace, true, opts, probe),
        Kind::Dist => run_dist(spec, opts, probe),
        Kind::Svc => run_svc(spec, opts, probe),
        Kind::Step => run_step(spec, opts, probe),
    };
    if spec.kind != Kind::Dist {
        out.rss_kb = host::peak_rss_kb();
        out.layers = probe.layers();
    }
    out
}

// ---------------------------------------------------------------------------
// Batch evaluation, fixed or fresh charges
// ---------------------------------------------------------------------------

fn run_fmm(
    spec: &Spec,
    geometry: Geometry,
    kernel: KernelSpec,
    fresh_charges: bool,
    opts: &RunOpts,
    probe: &impl Probe,
) -> Outcome {
    let n = opts.points(spec.points);
    let inputs = FmmInputs::new(geometry, kernel, n, opts.seed);
    let problem = inputs.problem(2);
    let mut out = Outcome::default();

    let mut built = None;
    for _ in 0..opts.setups {
        // One evaluation resident at a time, as a user would hold.
        drop(built.take());
        let t0 = Instant::now();
        let fmm = api::fmm_build(probe, &problem, None);
        let cold = api::fmm_eval(probe, &fmm, None, 0);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let err = inputs.direct_error(&inputs.charges, &cold);
        out.check("cold_vs_direct_rel_l2", err, DIRECT_LIMIT);
        built = Some((fmm, cold));
    }
    let (fmm, cold) = built.expect("at least one set-up");

    let mut timed = 0.0;
    let mut op = 0;
    while timed < opts.seconds || op < MIN_OPS {
        op += 1;
        let fresh = fresh_charges.then(|| gen::charges(n, opts.seed, op));
        let t0 = Instant::now();
        let potentials = api::fmm_eval(probe, &fmm, fresh.as_deref(), op);
        let dt = t0.elapsed().as_secs_f64();
        out.op_s.push(dt);
        timed += dt;
        match &fresh {
            // Fresh charges have no earlier result to repeat: every tenth
            // operation is checked against the direct sum instead.
            Some(q) if op % 10 == 0 => {
                let err = inputs.direct_error(q, &potentials);
                out.check("warm_vs_direct_rel_l2", err, DIRECT_LIMIT);
            }
            Some(_) => {
                let finite = potentials.len() == n && potentials.iter().all(|p| p.is_finite());
                out.check("warm_not_finite", if finite { 0.0 } else { 1.0 }, 0.0);
            }
            None => out.check(
                "warm_vs_cold_rel_l2",
                rel_l2(&potentials, &cold),
                REPEAT_LIMIT,
            ),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Two processes over loopback
// ---------------------------------------------------------------------------

const ENV_DIST_DIR: &str = "PERF_DIST_DIR";
const ENV_DIST_WARM: &str = "PERF_DIST_WARM";
/// Set by the benchmark's own test: rank 1 sleeps instead of joining.
pub const ENV_TEST_HANG: &str = "PERF_TEST_HANG";

fn rank_file(dir: &Path, rank: u32) -> PathBuf {
    dir.join(format!("rank{rank}.json"))
}

fn run_dist(spec: &Spec, opts: &RunOpts, probe: &impl Probe) -> Outcome {
    if let Some(rank) = api::spawned_rank() {
        let code = match dist_rank(spec, rank, opts, probe) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("perf: locality failed: {e}");
                1
            }
        };
        std::process::exit(code);
    }

    api::default_net_timeout(DIST_WATCHDOG_SECS);
    let dir = opts.out_dir.join(format!("dist.{}", std::process::id()));
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.lost(1, &format!("cannot create {}: {e}", dir.display()));
        return out;
    }
    std::env::set_var(ENV_DIST_DIR, &dir);
    for launch in 0..opts.setups {
        let warm = launch + 1 == opts.setups;
        std::env::set_var(ENV_DIST_WARM, if warm { "1" } else { "0" });
        for rank in 0..2 {
            let _ = std::fs::remove_file(rank_file(&dir, rank));
        }
        let _ = std::fs::remove_file(dir.join("stop"));
        let launched = match api::net_join(2) {
            Ok(api::Joined::Launcher { all_ok: true }) => Ok(()),
            Ok(api::Joined::Launcher { all_ok: false }) => {
                Err("a locality exited with an error".to_string())
            }
            Ok(api::Joined::Rank(_)) => Err("launcher was handed a rank".to_string()),
            Err(e) => Err(format!("launch failed: {e}")),
        };
        let ranks = launched.and_then(|()| {
            (0..2)
                .map(|rank| {
                    let path = rank_file(&dir, rank);
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    Outcome::from_json(&json::parse(&text)?)
                        .ok_or_else(|| format!("{}: not a rank result", path.display()))
                })
                .collect::<Result<Vec<_>, String>>()
        });
        match ranks {
            Ok(ranks) => merge_ranks(&mut out, &ranks),
            Err(why) => {
                // A hung or broken launch loses its cold operation and, if
                // it was the measured one, the warm operations too.
                out.lost(if warm { 1 + MIN_OPS } else { 1 }, &why);
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Fold one launch's per-rank results into the workload's outcome: timings
/// and checks come from rank 0, memory is summed over the ranks.
fn merge_ranks(out: &mut Outcome, ranks: &[Outcome]) {
    let rank0 = &ranks[0];
    out.absorb(rank0);
    out.rss_kb = out.rss_kb.max(ranks.iter().map(|r| r.rss_kb).sum());
    if !rank0.layers.is_empty() {
        out.layers = rank0.layers.clone();
        for (rank, r) in ranks.iter().enumerate().skip(1) {
            for (name, value) in &r.layers {
                if name == "amt.busy_frac" {
                    out.layers.push((format!("{name}.rank{rank}"), *value));
                }
            }
        }
    }
}

fn dist_rank(spec: &Spec, rank: u32, opts: &RunOpts, probe: &impl Probe) -> std::io::Result<()> {
    if std::env::var_os(ENV_TEST_HANG).is_some() && rank == 1 {
        std::thread::sleep(Duration::from_secs(3600));
    }
    let net = match api::net_join(2)? {
        api::Joined::Rank(net) => net,
        api::Joined::Launcher { .. } => unreachable!("a spawned locality cannot be the launcher"),
    };
    let joined_s = opts.started.elapsed().as_secs_f64();
    let dir = PathBuf::from(std::env::var_os(ENV_DIST_DIR).expect("launcher sets the directory"));
    let warm = std::env::var(ENV_DIST_WARM).as_deref() == Ok("1");

    let n = opts.points(spec.points);
    let inputs = FmmInputs::new(Geometry::Cube, KernelSpec::Laplace, n, opts.seed);
    let problem = inputs.problem(1);
    let mut out = Outcome::default();

    let t0 = Instant::now();
    let fmm = api::fmm_build(probe, &problem, Some(&net));
    let part = api::fmm_eval(probe, &fmm, None, 0);
    // Process start to mesh connected, then build and the cold operation.
    out.setup_s.push(joined_s + t0.elapsed().as_secs_f64());
    // Each rank holds the potentials of its own target boxes.
    let cold = api::net_gather_sum(&net, &part)?;
    if let Some(cold) = &cold {
        let err = inputs.direct_error(&inputs.charges, cold);
        out.check("cold_vs_direct_rel_l2", err, DIRECT_LIMIT);
    }

    let stop = dir.join("stop");
    let mut timed = 0.0;
    let mut op = 0;
    // Only the last launch goes on to the warm operations.
    loop {
        // Rank 0 decides when enough has been timed; the barrier orders
        // its decision before the other rank's look at the file.
        if rank == 0 && (!warm || (timed >= opts.seconds && op >= MIN_OPS)) {
            std::fs::write(&stop, b"")?;
        }
        api::net_barrier(&net)?;
        if stop.exists() {
            break;
        }
        op += 1;
        let t0 = Instant::now();
        let part = api::fmm_eval(probe, &fmm, None, op);
        let dt = t0.elapsed().as_secs_f64();
        timed += dt;
        if let (Some(sum), Some(cold)) = (api::net_gather_sum(&net, &part)?, &cold) {
            out.op_s.push(dt);
            out.check("warm_vs_cold_rel_l2", rel_l2(&sum, cold), REPEAT_LIMIT);
        }
    }

    api::net_shutdown(probe, &net);
    out.rss_kb = host::peak_rss_kb();
    out.layers = probe.layers();
    std::fs::write(rank_file(&dir, rank), out.to_json().to_line())
}

// ---------------------------------------------------------------------------
// Evaluation service, closed loop
// ---------------------------------------------------------------------------

struct Reply {
    rtt_s: f64,
    potentials: Result<Vec<f64>, String>,
}

fn run_svc(spec: &Spec, opts: &RunOpts, probe: &impl Probe) -> Outcome {
    let n = opts.points(spec.points);
    let sources = gen::sources(Geometry::Cube, n, opts.seed);
    let charges = gen::charges(n, opts.seed, 0);
    let rspec = ResidentSpec {
        threshold: THRESHOLD,
        theta: 0.5,
        domain_half: None,
    };
    let mut out = Outcome::default();

    let mut live = None;
    for _ in 0..opts.setups {
        if let Some((server, _, _)) = live.take() {
            api::server_stop(probe, server);
        }
        let t0 = Instant::now();
        let resident = Arc::new(api::resident_build(&sources, &charges, &rspec));
        let started = api::serve(resident.clone()).and_then(|server| {
            let port = api::server_port(&server);
            let clients = (0..CONNECTIONS)
                .map(|_| api::connect(port))
                .collect::<Result<Vec<_>, _>>()?;
            Ok((server, clients))
        });
        let (server, mut clients) = match started {
            Ok(x) => x,
            Err(e) => {
                out.lost(1 + MIN_OPS, &format!("cannot serve: {e}"));
                return out;
            }
        };
        let cold_targets = gen::request_targets(opts.seed, 0, 0, REQUEST_TARGETS);
        let cold = Reply {
            potentials: api::request(probe, &mut clients[0], &cold_targets, 0),
            rtt_s: 0.0,
        };
        out.setup_s.push(t0.elapsed().as_secs_f64());
        let err = reply_errors(&resident, opts.seed, 0, 0, std::slice::from_ref(&cold))[0];
        out.check("cold_vs_local_rel_l2", err, REPEAT_LIMIT);
        live = Some((server, clients, resident));
    }
    let (server, clients, resident) = live.expect("at least one set-up");

    // Each connection keeps one request outstanding and sends the next
    // only when the reply is in: a closed loop of two callers.
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let seed = opts.seed;
    let replies: Vec<Vec<Reply>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                scope.spawn(move || {
                    let conn = conn as u64;
                    let mut replies = Vec::new();
                    let mut index = 0;
                    while Instant::now() < deadline || index < MIN_OPS {
                        index += 1;
                        let targets = gen::request_targets(seed, conn, index, REQUEST_TARGETS);
                        let op_id = index * CONNECTIONS + conn;
                        let t0 = Instant::now();
                        let potentials = api::request(probe, &mut client, &targets, op_id);
                        replies.push(Reply {
                            rtt_s: t0.elapsed().as_secs_f64(),
                            potentials,
                        });
                    }
                    replies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    api::server_stop(probe, server);

    // Every reply is compared with a local evaluation of the same targets,
    // many requests to a call so that checking stays short.
    let errors: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = replies
            .iter()
            .enumerate()
            .map(|(conn, replies)| {
                let resident = &resident;
                scope.spawn(move || reply_errors(resident, seed, conn as u64, 1, replies))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("checking thread"))
            .collect()
    });
    for (replies, errors) in replies.iter().zip(&errors) {
        for (reply, &err) in replies.iter().zip(errors) {
            out.op_s.push(reply.rtt_s);
            if let Err(why) = &reply.potentials {
                eprintln!("perf: request failed: {why}");
            }
            out.check("reply_vs_local_rel_l2", err, REPEAT_LIMIT);
        }
    }
    out
}

/// Relative L2 error of each reply of one connection against a local
/// evaluation of its targets; NaN for a request that got no potentials.
/// `replies[i]` answers request `first_index + i`.
fn reply_errors(
    resident: &api::Resident,
    seed: u64,
    conn: u64,
    first_index: u64,
    replies: &[Reply],
) -> Vec<f64> {
    const REQUESTS_PER_CALL: usize = 64;
    let mut errors = Vec::with_capacity(replies.len());
    for (chunk_no, chunk) in replies.chunks(REQUESTS_PER_CALL).enumerate() {
        let base = first_index + (chunk_no * REQUESTS_PER_CALL) as u64;
        let targets: Vec<P3> = (0..chunk.len() as u64)
            .flat_map(|i| gen::request_targets(seed, conn, base + i, REQUEST_TARGETS))
            .collect();
        let mut want = vec![0.0; targets.len()];
        api::resident_eval(resident, &targets, &mut want);
        for (reply, want) in chunk.iter().zip(want.chunks(REQUEST_TARGETS)) {
            errors.push(match &reply.potentials {
                Ok(got) => rel_l2(got, want),
                Err(_) => f64::NAN,
            });
        }
    }
    errors
}

// ---------------------------------------------------------------------------
// Steps on the resident engine
// ---------------------------------------------------------------------------

fn run_step(spec: &Spec, opts: &RunOpts, probe: &impl Probe) -> Outcome {
    let n = opts.points(spec.points);
    let sources = gen::sources(Geometry::Cube, n, opts.seed);
    let charges = gen::charges(n, opts.seed, 0);
    let probes = gen::targets(Geometry::Cube, STEP_PROBES, opts.seed);
    let rspec = ResidentSpec {
        threshold: THRESHOLD,
        theta: 0.5,
        domain_half: Some(STEP_DOMAIN_HALF),
    };
    let speed = STEP_SPEED * 2.0 * STEP_DOMAIN_HALF;
    let mut out = Outcome::default();

    let mut live = None;
    for _ in 0..opts.setups {
        drop(live.take());
        let mut drift = Drift::new(
            sources.clone(),
            speed,
            STEP_DOMAIN_HALF,
            STEP_STRIDE,
            opts.seed,
        );
        let first = drift.step(0);
        let t0 = Instant::now();
        let mut resident = api::resident_build(&sources, &charges, &rspec);
        api::resident_step(probe, &mut resident, &first, 0);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        live = Some((resident, drift));
    }
    let (mut resident, mut drift) = live.expect("at least one set-up");

    let mut timed = 0.0;
    let mut op = 0;
    while timed < opts.seconds || op < MIN_OPS {
        op += 1;
        let moves = drift.step(op as usize);
        let t0 = Instant::now();
        api::resident_step(probe, &mut resident, &moves, op);
        let dt = t0.elapsed().as_secs_f64();
        out.op_s.push(dt);
        timed += dt;
        out.attempted += 1;
        if op % STEP_VERIFY_EVERY == 0 {
            let err = step_error(&resident, &drift, &rspec, &probes);
            out.verify("step_vs_rebuild_rel_l2", err, REPEAT_LIMIT);
        }
    }
    // The final state answers for every step since the last check.
    let err = step_error(&resident, &drift, &rspec, &probes);
    out.verify("step_vs_rebuild_rel_l2", err, REPEAT_LIMIT);
    out
}

/// The stepped engine against one built from scratch over the same domain
/// from the engine's own current state, which must also be where the drift
/// says the points are.
fn step_error(resident: &api::Resident, drift: &Drift, rspec: &ResidentSpec, probes: &[P3]) -> f64 {
    let (sources, charges) = api::resident_snapshot(resident);
    if sources != drift.pos {
        return f64::NAN;
    }
    let fresh = api::resident_build(&sources, &charges, rspec);
    let mut got = vec![0.0; probes.len()];
    let mut want = vec![0.0; probes.len()];
    api::resident_eval(resident, probes, &mut got);
    api::resident_eval(&fresh, probes, &mut want);
    rel_l2(&got, &want)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_round_trips_through_the_rank_file_format() {
        let mut out = Outcome::default();
        out.setup_s.push(2.345_678_901_234_5);
        out.op_s.extend([1.1, 1.2]);
        out.check("a", 1e-4, 1e-3);
        out.check("a", 5e-4, 1e-3);
        out.check("b", f64::NAN, 1e-12);
        out.rss_kb = 123_456;
        out.layers.push(("amt.tasks".into(), 42.0));
        assert_eq!(out.attempted, 3);
        assert_eq!(out.failed, 1);
        assert_eq!(out.checks[0].worst, 5e-4);
        let back = Outcome::from_json(&json::parse(&out.to_json().to_line()).unwrap()).unwrap();
        assert!(back.checks[1].worst.is_nan());
        let strip = |mut o: Outcome| {
            o.checks[1].worst = 0.0;
            o
        };
        assert_eq!(strip(back), strip(out));
    }

    #[test]
    fn rel_l2_flags_length_mismatch_and_measures_distance() {
        assert!(rel_l2(&[1.0], &[1.0, 2.0]).is_nan());
        assert_eq!(rel_l2(&[3.0, 4.0], &[3.0, 4.0]), 0.0);
        assert!((rel_l2(&[3.0, 4.5], &[3.0, 4.0]) - 0.1).abs() < 1e-15);
    }

    #[test]
    fn names_are_unique_and_fit_the_contract() {
        for (i, s) in SPECS.iter().enumerate() {
            assert!(s.name.len() <= 64 && s.why.len() <= 200, "{}", s.name);
            assert!(!s.why.contains('\n'));
            assert!(SPECS[..i].iter().all(|other| other.name != s.name));
            assert!(matches!(s.tail_percentile, 75 | 90 | 99 | 100));
        }
    }
}

//! Shared harness machinery for the table/figure binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` for the experiment index).  They share workload
//! construction, a tiny CLI, cost-model calibration from traced runs, and
//! the paper's reference numbers for side-by-side printing.

pub mod obsout;
pub mod opbench;
pub mod report;
pub mod service;
pub mod socket;

use std::sync::Arc;

use dashmm_amt::ObsLevel;
use dashmm_core::{assemble, per_op_avg_us, Assembly, Method, Problem};
use dashmm_dag::{DistributionPolicy, FmmPolicy, NodeClass};
use dashmm_expansion::{AccuracyParams, OperatorLibrary};
use dashmm_kernels::{Kernel, KernelKind, Laplace, Yukawa};
use dashmm_sim::CostModel;
use dashmm_tree::{BuildParams, Distribution, Point3};

/// Command-line options shared by the harness binaries.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Number of sources (= number of targets), default scaled for a
    /// single-host run; the paper used 30–60 M on a Cray.
    pub n: usize,
    /// Point distribution.
    pub dist: Distribution,
    /// Interaction kernel.
    pub kernel: KernelKind,
    /// Refinement threshold (paper: 60).
    pub threshold: usize,
    /// RNG seed.
    pub seed: u64,
    /// Disable parcel coalescing (ablation).
    pub no_coalesce: bool,
    /// Cost-model selection for the simulator binaries.
    pub cost: CostMode,
    /// Localities for a measured (multi-process) run.
    pub localities: usize,
    /// Workers per locality for a measured run.
    pub workers: usize,
    /// How localities are realised in a measured run.
    pub transport: TransportMode,
    /// Observability level for measured runs (`--obs off|counters|full`).
    pub obs: ObsLevel,
    /// Maximum tolerated full-tracing overhead in percent (`--obs-gate`);
    /// the observability self-check exits nonzero beyond it.
    pub obs_gate: Option<f64>,
    /// Fault-plan spec for measured runs (`--faults SPEC`, see
    /// `dashmm_amt::FaultPlan`); exported as `DASHMM_FAULTS` so the
    /// re-executed rank processes inherit it.
    pub faults: Option<String>,
    /// Wall-clock budget in seconds for chaos runs (`--budget-s`); a
    /// watchdog aborts the process beyond it so a faulty run never hangs.
    pub budget_s: Option<u64>,
    /// Survive a mid-run locality kill (`--recover`, chaos only): fence
    /// the dead rank, re-own its DAG slice, and gate on the *recovered*
    /// answer instead of on a clean abort.
    pub recover: bool,
    /// Promote the pipelined-scheduling shape checks (utilization troughs,
    /// critical-path shortening) to hard failures (`--trough-gate`).  Kept
    /// separate from `--obs-gate` because the trough shapes only hold at
    /// realistic problem sizes, while the tracing-overhead gate runs on
    /// tiny smoke workloads.
    pub trough_gate: bool,
}

/// How localities are realised when a binary actually evaluates (rather
/// than simulates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportMode {
    /// All localities inside this process (threads only).
    Shared,
    /// One OS process per locality over loopback TCP (`dashmm-net`).
    Socket,
}

impl TransportMode {
    /// Parse `shared` / `socket`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "shared" => Some(TransportMode::Shared),
            "socket" => Some(TransportMode::Socket),
            _ => None,
        }
    }
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            n: 200_000,
            dist: Distribution::Cube,
            kernel: KernelKind::Laplace,
            threshold: 60,
            seed: 42,
            no_coalesce: false,
            cost: CostMode::Paper,
            localities: 2,
            workers: 2,
            transport: TransportMode::Shared,
            obs: ObsLevel::Off,
            obs_gate: None,
            faults: None,
            budget_s: None,
            recover: false,
            trough_gate: false,
        }
    }
}

impl Opts {
    /// Parse `--n`, `--dist`, `--kernel`, `--threshold`, `--seed`,
    /// `--no-coalesce`, `--cost`, `--localities`, `--workers`,
    /// `--transport`, `--obs`, `--obs-gate`, `--faults`, `--budget-s`,
    /// `--recover` from `std::env::args`.  Invalid usage prints a message
    /// and exits with status 2.
    pub fn parse() -> Self {
        let mut o = Opts::default();
        let args: Vec<String> = std::env::args().collect();
        let usage = |msg: &str| -> ! {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: {} [--n N] [--dist cube|sphere|plummer] \
       [--kernel laplace|yukawa[:λ]] [--threshold T] [--seed S] \
       [--cost paper|measured|paper-refreshed] [--no-coalesce] \
       [--localities L] [--workers W] [--transport shared|socket] \
       [--obs off|counters|full] [--obs-gate PCT] \
       [--faults SPEC] [--budget-s SECS] [--recover] [--trough-gate]",
                args.first().map(String::as_str).unwrap_or("bench")
            );
            std::process::exit(2);
        };
        let mut i = 1;
        let value = |i: usize, flag: &str| -> &str {
            match args.get(i + 1) {
                Some(v) => v,
                None => usage(&format!("{flag} expects a value")),
            }
        };
        while i < args.len() {
            match args[i].as_str() {
                "--n" => {
                    o.n = value(i, "--n")
                        .parse()
                        .unwrap_or_else(|_| usage("--n expects an integer"));
                    i += 2;
                }
                "--dist" => {
                    o.dist = Distribution::parse(value(i, "--dist"))
                        .unwrap_or_else(|| usage("--dist expects cube|sphere|plummer"));
                    i += 2;
                }
                "--kernel" => {
                    o.kernel = KernelKind::parse(value(i, "--kernel"))
                        .unwrap_or_else(|| usage("--kernel expects laplace|yukawa[:λ]"));
                    i += 2;
                }
                "--threshold" => {
                    o.threshold = value(i, "--threshold")
                        .parse()
                        .unwrap_or_else(|_| usage("--threshold expects an integer"));
                    i += 2;
                }
                "--seed" => {
                    o.seed = value(i, "--seed")
                        .parse()
                        .unwrap_or_else(|_| usage("--seed expects an integer"));
                    i += 2;
                }
                "--no-coalesce" => {
                    o.no_coalesce = true;
                    i += 1;
                }
                "--cost" => {
                    o.cost = CostMode::parse(value(i, "--cost"))
                        .unwrap_or_else(|| usage("--cost expects paper|measured|paper-refreshed"));
                    i += 2;
                }
                "--localities" => {
                    o.localities = value(i, "--localities")
                        .parse()
                        .unwrap_or_else(|_| usage("--localities expects an integer"));
                    i += 2;
                }
                "--workers" => {
                    o.workers = value(i, "--workers")
                        .parse()
                        .unwrap_or_else(|_| usage("--workers expects an integer"));
                    i += 2;
                }
                "--transport" => {
                    o.transport = TransportMode::parse(value(i, "--transport"))
                        .unwrap_or_else(|| usage("--transport expects shared|socket"));
                    i += 2;
                }
                "--obs" => {
                    o.obs = ObsLevel::parse(value(i, "--obs"))
                        .unwrap_or_else(|| usage("--obs expects off|counters|full"));
                    i += 2;
                }
                "--obs-gate" => {
                    o.obs_gate = Some(
                        value(i, "--obs-gate")
                            .parse()
                            .unwrap_or_else(|_| usage("--obs-gate expects a percentage")),
                    );
                    i += 2;
                }
                "--faults" => {
                    let spec = value(i, "--faults");
                    if let Err(e) = dashmm_amt::FaultPlan::parse(spec) {
                        usage(&format!("--faults: {e}"));
                    }
                    o.faults = Some(spec.to_string());
                    i += 2;
                }
                "--budget-s" => {
                    o.budget_s = Some(
                        value(i, "--budget-s")
                            .parse()
                            .unwrap_or_else(|_| usage("--budget-s expects seconds")),
                    );
                    i += 2;
                }
                "--recover" => {
                    o.recover = true;
                    i += 1;
                }
                "--trough-gate" => {
                    o.trough_gate = true;
                    i += 1;
                }
                other => usage(&format!("unknown option {other}")),
            }
        }
        o
    }

    /// Generate the two (distinct) ensembles, as in the paper: same size,
    /// same distribution, different draws.
    pub fn ensembles(&self) -> (Vec<Point3>, Vec<Point3>, Vec<f64>) {
        let sources = self.dist.generate(self.n, self.seed);
        let targets = self.dist.generate(self.n, self.seed + 1);
        let charges: Vec<f64> = (0..self.n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        (sources, targets, charges)
    }
}

/// A fully assembled (advanced-FMM) workload: problem, tables, DAG.
pub struct Workload {
    /// The problem (dual tree + charges).
    pub problem: Arc<Problem>,
    /// The explicit DAG assembly.
    pub asm: Assembly,
    /// Description string for report headers.
    pub label: String,
}

/// Build the advanced-FMM explicit DAG for the options, distributing over
/// `localities` with the paper's FMM policy.
pub fn build_workload(opts: &Opts, localities: u32) -> Workload {
    match opts.kernel {
        KernelKind::Laplace => build_workload_k(opts, localities, Laplace),
        KernelKind::Yukawa(lam) => build_workload_k(opts, localities, Yukawa::new(lam)),
    }
}

fn build_workload_k<K: Kernel>(opts: &Opts, localities: u32, kernel: K) -> Workload {
    let (sources, targets, charges) = opts.ensembles();
    let problem = Arc::new(Problem::new(
        &sources,
        &charges,
        &targets,
        BuildParams {
            threshold: opts.threshold,
            max_level: 20,
        },
    ));
    let kernel_name = kernel.name();
    let lib = OperatorLibrary::new(
        kernel,
        AccuracyParams::three_digit(),
        problem.tree.domain().side(),
        true,
    );
    let mut asm = assemble(&problem, Method::AdvancedFmm, &lib);
    distribute(&problem, &mut asm, localities);
    let label = format!(
        "{:?} {} n={} threshold={}",
        opts.dist, kernel_name, opts.n, opts.threshold
    );
    Workload {
        problem,
        asm,
        label,
    }
}

/// (Re-)distribute an assembly over a locality count with the FMM policy.
pub fn distribute(problem: &Problem, asm: &mut Assembly, localities: u32) {
    let src_n = problem.tree.source().points().len();
    let tgt_n = problem.tree.target().points().len();
    let owner = |class: NodeClass, box_id: u32| -> u32 {
        match class {
            NodeClass::S | NodeClass::M | NodeClass::Is => dashmm_core::block_owner(
                problem.tree.source().node(box_id).first,
                src_n,
                localities,
            ),
            _ => dashmm_core::block_owner(
                problem.tree.target().node(box_id).first,
                tgt_n,
                localities,
            ),
        }
    };
    FmmPolicy::default().assign(&mut asm.dag, localities, &owner);
}

/// How the simulator's per-operator costs are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostMode {
    /// The paper's Table II timings as the Laplace baseline; for Yukawa the
    /// baseline is scaled per operator by the *measured* Yukawa/Laplace
    /// ratio of this implementation.  This keeps absolute task granularity
    /// faithful to the paper's machine (so starvation widths are
    /// comparable) while the grain-size contrast between kernels comes
    /// from real measurements.
    Paper,
    /// Costs measured entirely on this host from traced execution.  Note
    /// that this implementation's plane-wave quadratures are several times
    /// longer than the hand-optimised tables of the original (see
    /// DESIGN.md), which makes the bridge operators relatively heavier.
    Measured,
    /// The paper baseline with the particle-class rows (`S2T`, `S2M`,
    /// `S2L`, `L2T`, `M2T`) replaced by this host's measured SoA-engine
    /// costs at the workload's leaf occupancy — the vectorized near-field
    /// engine changes exactly those entries, so this mode shows how the
    /// paper's machine balance shifts under the batched particle path
    /// while keeping the expansion-operator granularity comparable.
    PaperRefreshed,
}

impl CostMode {
    /// Parse `paper` / `measured` / `paper-refreshed`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "paper" => Some(CostMode::Paper),
            "measured" => Some(CostMode::Measured),
            "paper-refreshed" => Some(CostMode::PaperRefreshed),
            _ => None,
        }
    }
}

/// Measure the particle-class operators through the kernel rows at
/// leaf occupancy `leaf` and splice the per-edge costs into `base` (the
/// simulator's particle-cost recalibration; see
/// [`CostModel::with_particle_us`] for which rows change).
pub fn refresh_particle_costs(base: CostModel, kernel: KernelKind, leaf: usize) -> CostModel {
    // Few repetitions: this runs at simulation setup, not in a bench loop.
    let reps = opbench::default_reps().min(7);
    let cases = match kernel {
        KernelKind::Laplace => opbench::particle_kernel_cases(&Laplace, "laplace", leaf, reps),
        KernelKind::Yukawa(lam) => {
            opbench::particle_kernel_cases(&Yukawa::new(lam), "yukawa", leaf, reps)
        }
    };
    let us_per_edge = |op: &str| -> f64 {
        let c = cases.iter().find(|c| c.op == op).expect("case present");
        // `S→T` measures a whole fused near-field list; the simulator
        // charges per DAG edge (one source box), so divide by the list
        // length implied by the pair count.
        let edges = if op == "S2T" {
            c.pairs / (c.points * c.points)
        } else {
            1
        };
        c.batched_ns / edges as f64 / 1000.0
    };
    base.with_particle_us(us_per_edge("S2T"), us_per_edge("S2M"), us_per_edge("L2T"))
}

/// Produce the simulator cost model for a workload under a [`CostMode`].
pub fn cost_model(opts: &Opts, mode: CostMode) -> CostModel {
    match mode {
        CostMode::Measured => calibrate_cost_model(opts, 30_000),
        CostMode::PaperRefreshed => {
            let base = cost_model(opts, CostMode::Paper);
            refresh_particle_costs(base, opts.kernel, opts.threshold)
        }
        CostMode::Paper => {
            let base = CostModel::paper_table2();
            match opts.kernel {
                KernelKind::Laplace => base,
                KernelKind::Yukawa(_) => {
                    // Measured per-operator grain-size ratios.
                    let lap = calibrate_cost_model(
                        &Opts {
                            kernel: KernelKind::Laplace,
                            ..opts.clone()
                        },
                        20_000,
                    );
                    let yuk = calibrate_cost_model(opts, 20_000);
                    let mut scaled = base.clone();
                    for i in 0..scaled.op_us.len() {
                        let ratio = (yuk.op_us[i] / lap.op_us[i]).clamp(1.0, 8.0);
                        scaled.op_us[i] *= ratio;
                    }
                    scaled
                }
            }
        }
    }
}

/// Calibrate a [`CostModel`] by running a smaller traced evaluation of the
/// same kernel/distribution on the real runtime and averaging per-operator
/// execution times.  Classes the run never exercised fall back to the
/// paper's Table II values.
pub fn calibrate_cost_model(opts: &Opts, calib_n: usize) -> CostModel {
    let calib = Opts {
        n: calib_n.min(opts.n),
        ..opts.clone()
    };
    let (sources, targets, charges) = calib.ensembles();
    let out = match calib.kernel {
        KernelKind::Laplace => dashmm_core::DashmmBuilder::new(Laplace)
            .method(Method::AdvancedFmm)
            .threshold(calib.threshold)
            .machine(1, 1)
            .tracing(true)
            .build(&sources, &charges, &targets)
            .evaluate(),
        KernelKind::Yukawa(lam) => dashmm_core::DashmmBuilder::new(Yukawa::new(lam))
            .method(Method::AdvancedFmm)
            .threshold(calib.threshold)
            .machine(1, 1)
            .tracing(true)
            .build(&sources, &charges, &targets)
            .evaluate(),
    };
    let mut measured = per_op_avg_us(&out.report.trace);
    let fallback = CostModel::paper_table2();
    for (i, m) in measured.iter_mut().enumerate() {
        if *m == 0.0 {
            *m = fallback.op_us[i];
        }
    }
    CostModel::measured(measured, 1.0)
}

/// Print a header block for a harness binary.
pub fn banner(title: &str, detail: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("{detail}");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_opts_sane() {
        let o = Opts::default();
        assert_eq!(o.threshold, 60, "paper's refinement threshold");
        assert_eq!(o.dist, Distribution::Cube);
    }

    #[test]
    fn cost_mode_parses_refreshed() {
        assert_eq!(
            CostMode::parse("paper-refreshed"),
            Some(CostMode::PaperRefreshed)
        );
    }

    #[test]
    fn particle_refresh_changes_only_particle_rows() {
        use dashmm_dag::EdgeOp;
        let base = CostModel::paper_table2();
        // Tiny leaf so the measurement stays cheap in the test suite.
        let m = refresh_particle_costs(base.clone(), KernelKind::Laplace, 16);
        for op in [
            EdgeOp::S2T,
            EdgeOp::S2M,
            EdgeOp::S2L,
            EdgeOp::L2T,
            EdgeOp::M2T,
        ] {
            assert!(m.edge_us(op) > 0.0, "{op:?} cost must be positive");
        }
        for op in [
            EdgeOp::M2M,
            EdgeOp::M2L,
            EdgeOp::L2L,
            EdgeOp::M2I,
            EdgeOp::I2I,
            EdgeOp::I2L,
        ] {
            assert_eq!(
                m.edge_us(op),
                base.edge_us(op),
                "{op:?} row must be untouched"
            );
        }
    }

    #[test]
    fn ensembles_distinct_same_size() {
        let o = Opts {
            n: 1000,
            ..Opts::default()
        };
        let (s, t, q) = o.ensembles();
        assert_eq!(s.len(), 1000);
        assert_eq!(t.len(), 1000);
        assert_eq!(q.len(), 1000);
        assert_ne!(s[0], t[0], "source and target ensembles are distinct");
    }

    #[test]
    fn workload_builds_and_validates() {
        let o = Opts {
            n: 3000,
            ..Opts::default()
        };
        let w = build_workload(&o, 4);
        w.asm.dag.validate().expect("valid DAG");
        // All localities used.
        let locs: std::collections::HashSet<u32> =
            w.asm.dag.nodes().iter().map(|n| n.locality).collect();
        assert!(locs.len() > 1, "expected multiple localities, got {locs:?}");
    }

    #[test]
    fn calibration_produces_positive_costs() {
        let o = Opts {
            n: 2000,
            ..Opts::default()
        };
        let cm = calibrate_cost_model(&o, 2000);
        for (i, &c) in cm.op_us.iter().enumerate() {
            assert!(c > 0.0, "op {i} has zero cost");
        }
    }
}

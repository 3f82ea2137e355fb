//! `perf-layers`: the traced run.  Runs a workload traced for half of
//! `--seconds` between two untraced quarters, replays its set-up stage by
//! stage, prices the layers that can be priced alone, and prints the
//! per-layer metrics.  End-to-end metrics never come from here.

mod layers_api;

use std::collections::BTreeMap;
use std::time::Instant;

use dashmm_perf::api::{self, KernelSpec, ResidentSpec};
use dashmm_perf::cli::{self, Cmd};
use dashmm_perf::gen::{self, Geometry};
use dashmm_perf::json::{obj, Value};
use dashmm_perf::probe::NoProbe;
use dashmm_perf::report::{self, Metric};
use dashmm_perf::trace::{self, Recorder};
use dashmm_perf::workloads::{
    self, FmmInputs, Kind, Outcome, RunOpts, Spec, OPS, SPECS, THRESHOLD,
};
use dashmm_perf::{host, stats};

use layers_api::LayerProbe;

/// Tells the localities of the two-process workload which half this is.
const ENV_TRACED: &str = "PERF_LAYERS_TRACED";

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let single = match cli::parse(&args) {
        Ok(Cmd::Single(single)) => single,
        Ok(_) => {
            eprintln!("error: perf-layers runs one workload\n{}", cli::USAGE);
            std::process::exit(2);
        }
        Err(why) => {
            eprintln!("error: {why}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let Some(spec) = workloads::spec(&single.workload) else {
        eprintln!("error: unknown workload {}", single.workload);
        std::process::exit(2);
    };
    assert_eq!(
        layers_api::op_names(),
        OPS,
        "operator classes changed under the benchmark"
    );
    let scaled = single.scale < 1.0;
    let opts = |share: f64| RunOpts {
        seed: single.seed,
        seconds: single.seconds * single.scale * share,
        scale: single.scale,
        setups: 1,
        out_dir: cli::out_dir(),
        started,
    };

    if api::spawned_rank().is_some() {
        // A locality of the two-process workload; `run` does not return.
        if std::env::var(ENV_TRACED).as_deref() == Ok("1") {
            workloads::run(spec, &opts(0.5), &LayerProbe::new(1));
        } else {
            workloads::run(spec, &opts(0.25), &NoProbe);
        }
        unreachable!("a locality exits inside run");
    }

    // Untraced before and after the traced half, so that a process still
    // warming up, or a host drifting, does not pass for tracing overhead.
    std::env::set_var(ENV_TRACED, "0");
    let mut plain = workloads::run(spec, &opts(0.25), &NoProbe);
    std::env::set_var(ENV_TRACED, "1");
    let probe = LayerProbe::new(2);
    let traced = workloads::run(spec, &opts(0.5), &probe);
    std::env::set_var(ENV_TRACED, "0");
    let after = workloads::run(spec, &opts(0.25), &NoProbe);
    plain.absorb(&after);

    let replay = Recorder::new();
    let setup = replay_setup(spec, &opts(1.0), &replay);
    let repeats = if scaled { 1 } else { 5 };
    let (gemm_gflops, gemm_flops, gemm_bytes) = layers_api::gemm_gflops(4 * repeats);
    let probes = [
        (
            "amt.empty_dag_task_ns",
            layers_api::empty_dag_task_ns(&setup.cube_dag, repeats),
        ),
        ("linalg.gemm_gflops", gemm_gflops),
        ("linalg.gemm_flops_per_call", gemm_flops),
        ("linalg.gemm_bytes_per_call_computed", gemm_bytes),
        (
            "kernels.pairs_per_s.laplace",
            layers_api::pairs_per_s(KernelSpec::Laplace, 4 * repeats),
        ),
        (
            "kernels.pairs_per_s.yukawa",
            layers_api::pairs_per_s(KernelSpec::Yukawa(1.0), 4 * repeats),
        ),
        (
            "net.svc.rtt_floor_s",
            rtt_floor_s(single.seed, 60 * repeats),
        ),
    ];

    // What the program reported, under the names of perf/README.md.
    let mut layers: BTreeMap<String, f64> = traced.layers.iter().cloned().collect();
    for (name, totals) in trace::totals_by_name(&replay.spans()) {
        layers.insert(format!("{name}_s"), totals.total_ns as f64 * 1e-9);
    }
    layers.extend(setup.counts.iter().map(|(k, v)| (k.to_string(), *v)));
    layers.extend(probes.iter().map(|(k, v)| (k.to_string(), *v)));

    let metrics = per_layer_metrics(&plain, &traced, &layers);
    let correct = plain.correct() && traced.correct();
    print_human(spec, &single, &layers, &metrics, &plain, &traced);

    let mut spans = probe.rec.spans();
    spans.extend(replay.spans());
    let file = obj(vec![
        ("workload", spec.name.into()),
        ("seed", single.seed.into()),
        ("scaled", scaled.into()),
        ("nproc", host::nproc().into()),
        (
            "layers",
            Value::Obj(
                layers
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "self_time_by_span",
            Value::Obj(
                trace::totals_by_name(&spans)
                    .into_iter()
                    .map(|(name, t)| {
                        (
                            name.to_string(),
                            obj(vec![
                                ("count", t.count.into()),
                                ("total_s", (t.total_ns as f64 * 1e-9).into()),
                                ("self_s", (t.self_ns as f64 * 1e-9).into()),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        ("spans", trace::spans_to_json(&spans)),
    ]);
    let out_dir = cli::out_dir();
    let path = out_dir.join(format!("{}.trace.json", spec.name));
    let written =
        std::fs::create_dir_all(&out_dir).and_then(|()| std::fs::write(&path, file.to_line()));
    match written {
        Ok(()) => println!("trace: {} spans -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("perf-layers: cannot write {}: {e}", path.display()),
    }

    let mut both = plain;
    both.absorb(&traced);
    println!("{}", report::contract_line(&both, &metrics));
    std::process::exit(if correct { 0 } else { 1 });
}

struct SetupReplay {
    /// `tree.boxes`, `tree.depth`, `dag.nodes`, `dag.edges` of the workload
    /// (empty for the resident-engine workloads).
    counts: Vec<(&'static str, f64)>,
    /// The DAG of the first workload's geometry, for the empty-kernel probe.
    cube_dag: dashmm::dag::Dag,
}

/// Replay the workload's set-up under `rec`, one span per stage.
fn replay_setup(spec: &Spec, opts: &RunOpts, rec: &Recorder) -> SetupReplay {
    let replay = |geometry, kernel, points: usize, localities: u32, rec: &Recorder| {
        let inputs = FmmInputs::new(geometry, kernel, opts.points(points), opts.seed);
        layers_api::setup_replay(rec, &inputs.problem(2), localities)
    };
    // Geometry, kernel and localities of the workload's own evaluation.
    let shape = match spec.kind {
        Kind::Fmm(geometry, kernel) => Some((geometry, kernel, 1)),
        Kind::Iter => Some((Geometry::Cube, KernelSpec::Laplace, 1)),
        Kind::Dist => Some((Geometry::Cube, KernelSpec::Laplace, 2)),
        Kind::Svc | Kind::Step => None,
    };
    let own = shape.map(|(geometry, kernel, localities)| {
        replay(geometry, kernel, spec.points, localities, rec)
    });
    let counts = own.as_ref().map_or(Vec::new(), |(c, _)| {
        vec![
            ("tree.boxes", c.boxes as f64),
            ("tree.depth", c.depth as f64),
            ("dag.nodes", c.dag_nodes as f64),
            ("dag.edges", c.dag_edges as f64),
        ]
    });
    let cube_dag = match own {
        Some((_, dag)) if spec.name == SPECS[0].name => dag,
        // Off the record: only the shape is wanted.
        _ => {
            let Kind::Fmm(geometry, kernel) = SPECS[0].kind else {
                unreachable!("the first workload is a batch evaluation");
            };
            replay(geometry, kernel, SPECS[0].points, 1, &Recorder::new()).1
        }
    };
    SetupReplay { counts, cube_dag }
}

/// Median round trip of a one-target request to an otherwise idle server
/// over a small resident engine: what the service costs before any work.
fn rtt_floor_s(seed: u64, requests: usize) -> f64 {
    let sources = gen::sources(Geometry::Cube, 2_000, seed);
    let charges = gen::charges(sources.len(), seed, 0);
    let rspec = ResidentSpec {
        threshold: THRESHOLD,
        theta: 0.5,
        domain_half: None,
    };
    let resident = std::sync::Arc::new(api::resident_build(&sources, &charges, &rspec));
    let rtts = api::serve(resident).and_then(|server| {
        let mut client = api::connect(api::server_port(&server))?;
        let rtts: Vec<f64> = (0..requests as u64)
            .filter_map(|i| {
                let target = gen::request_targets(seed, 9, i, 1);
                let t0 = Instant::now();
                api::request(&NoProbe, &mut client, &target, i).ok()?;
                Some(t0.elapsed().as_secs_f64())
            })
            .collect();
        drop(client);
        api::server_stop(&NoProbe, server);
        Ok(rtts)
    });
    match rtts {
        Ok(rtts) if !rtts.is_empty() => stats::median(&rtts),
        _ => f64::NAN,
    }
}

/// The per-layer metrics of `BENCHMARK.json`, in its order.
fn per_layer_metrics(
    plain: &Outcome,
    traced: &Outcome,
    layers: &BTreeMap<String, f64>,
) -> Vec<Metric> {
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let median = |v: &[f64]| {
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(v)
        }
    };
    // The same estimate of one operation's time as the end-to-end `op_s`.
    let (op_time, op_mean) = (report::op_time(&traced.op_s), stats::mean(&traced.op_s));
    let setup = median(&traced.setup_s);
    workloads::per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = match name.as_str() {
                "traced.op_s" => op_time,
                "traced.setup_s" => setup,
                "obs.overhead_frac" => op_time / report::op_time(&plain.op_s) - 1.0,
                // Medians of per-request phases, so against the median.
                n if n.starts_with("net.svc.") && n.ends_with("_frac") => {
                    get(&n.replace("_frac", "_s")) / median(&traced.op_s)
                }
                // Stages of the set-up, replayed once.
                "tree.build_frac"
                | "expansion.tables_frac"
                | "dag.assemble_frac"
                | "dag.distribute_frac" => get(&name.replace("_frac", "_s")) / setup,
                // Means per operation, so against the mean.
                "core.install_frac"
                | "amt.run_frac"
                | "core.extract_frac"
                | "refit.rebin_frac"
                | "refit.recompute_frac"
                | "refit.lists_frac"
                | "refit.dag_frac" => get(&name.replace("_frac", "_s")) / op_mean,
                _ => get(&name),
            };
            Metric::new(&name, value, unit, traced.op_s.len())
        })
        .collect()
}

fn print_human(
    spec: &Spec,
    single: &cli::Single,
    layers: &BTreeMap<String, f64>,
    metrics: &[Metric],
    plain: &Outcome,
    traced: &Outcome,
) {
    println!(
        "workload {}  seed {}  traced run{}",
        spec.name,
        single.seed,
        if single.scale < 1.0 {
            "  SCALED: not comparable"
        } else {
            ""
        }
    );
    println!(
        "  untraced: {} ops, {} failed; traced: {} ops, {} failed",
        plain.op_s.len(),
        plain.failed,
        traced.op_s.len(),
        traced.failed
    );
    println!("  reported by the program, per warm operation unless named otherwise:");
    for (name, value) in layers {
        println!("    {name:<40} {value:>18.9}");
    }
    println!("  per-layer metrics:");
    for m in metrics {
        println!("    {:<40} {:>18.9} {}", m.name, m.value, m.unit);
    }
    report::print_checks(&plain.checks);
    report::print_checks(&traced.checks);
}

//! `serve` — the resident FMM evaluation server.
//!
//! Builds the deterministic service workload (tree + upward-pass
//! expansions) once, binds a TCP port, prints the ready line
//! (`SERVE ready port=<p> ...`) and serves evaluation requests until a
//! client sends the administrative shutdown frame.  On exit it prints the
//! service counters and, with `--summary PATH`, writes the build time and
//! the final stats snapshot as JSON.
//!
//! With `--stats-interval S` the server also polls its own stats
//! endpoint every `S` seconds over a loopback client connection and
//! prints a one-line digest to stderr (note: each poll advances the
//! snapshot's rate window, so leave this off when an external poller
//! owns the window).  The final snapshot (`dashmm-stats-v2`, the
//! server's one record) lands in the `--summary` JSON under
//! `"telemetry"`.
//!
//! ```text
//! serve [--points N] [--seed S] [--theta X] [--threshold T]
//!       [--port P] [--tile N] [--workers W]
//!       [--max-tenant-targets N] [--max-total-targets N]
//!       [--stats-interval S] [--summary PATH]
//! ```

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use dashmm_bench::service::{ServiceWorkload, READY_PREFIX};
use dashmm_core::ResidentFmm;
use dashmm_kernels::Laplace;
use dashmm_net::service::{
    AdmissionConfig, EngineBreakdown, EvalClient, EvalEngine, EvalServer, ServiceConfig,
};
use dashmm_obs::json::{obj, Value};
use dashmm_obs::summary::write_summary;

struct Args {
    workload: ServiceWorkload,
    port: u16,
    tile: usize,
    workers: usize,
    admission: AdmissionConfig,
    stats_interval_s: f64,
    summary: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: ServiceWorkload::default(),
        port: 0,
        tile: 1024,
        workers: 2,
        admission: AdmissionConfig::default(),
        stats_interval_s: 0.0,
        summary: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let usage = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: {} [--points N] [--seed S] [--theta X] [--threshold T] \
             [--port P] [--tile N] [--workers W] [--max-tenant-targets N] \
             [--max-total-targets N] [--stats-interval S] [--summary PATH]",
            argv.first().map(String::as_str).unwrap_or("serve")
        );
        std::process::exit(2);
    };
    let mut i = 1;
    while i < argv.len() {
        let value = |flag: &str| -> &str {
            match argv.get(i + 1) {
                Some(v) => v,
                None => usage(&format!("{flag} expects a value")),
            }
        };
        macro_rules! num {
            ($flag:expr) => {
                value($flag)
                    .parse()
                    .unwrap_or_else(|_| usage(concat!($flag, " expects a number")))
            };
        }
        match argv[i].as_str() {
            "--points" => a.workload.points = num!("--points"),
            "--seed" => a.workload.seed = num!("--seed"),
            "--theta" => a.workload.theta = num!("--theta"),
            "--threshold" => a.workload.threshold = num!("--threshold"),
            "--port" => a.port = num!("--port"),
            "--tile" => a.tile = num!("--tile"),
            "--workers" => a.workers = num!("--workers"),
            "--max-tenant-targets" => a.admission.max_tenant_targets = num!("--max-tenant-targets"),
            "--max-total-targets" => a.admission.max_total_targets = num!("--max-total-targets"),
            "--stats-interval" => a.stats_interval_s = num!("--stats-interval"),
            "--summary" => a.summary = Some(PathBuf::from(value("--summary"))),
            other => usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    a
}

/// Adapter giving the shared engine to the server's worker threads.
struct Resident(ResidentFmm<Laplace>);

impl EvalEngine for Resident {
    fn evaluate(&self, targets: &[[f64; 3]], out: &mut [f64]) {
        self.0.evaluate(targets, out)
    }

    fn evaluate_traced(&self, targets: &[[f64; 3]], out: &mut [f64]) -> EngineBreakdown {
        let prof = self.0.evaluate_profiled(targets, out);
        EngineBreakdown {
            m2t_us: prof.m2t_us,
            p2p_us: prof.p2p_us,
            far_pairs: prof.far_pairs,
            near_pairs: prof.near_pairs,
        }
    }
}

fn main() {
    let args = parse_args();
    let t0 = std::time::Instant::now();
    let fmm = args.workload.build_engine();
    let build_s = t0.elapsed().as_secs_f64();
    eprintln!(
        "serve: resident state up in {build_s:.2}s ({} sources, depth {}, {} boxes)",
        fmm.num_sources(),
        fmm.depth(),
        fmm.num_nodes()
    );
    let cfg = ServiceConfig {
        tile_targets: args.tile,
        admission: args.admission,
        eval_workers: args.workers,
    };
    let depth = fmm.depth();
    let points = fmm.num_sources();
    let engine: Arc<dyn EvalEngine> = Arc::new(Resident(fmm));
    let mut server = EvalServer::bind(&format!("127.0.0.1:{}", args.port), engine, cfg)
        .unwrap_or_else(|e| {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        });
    // The ready line the load tester parses; flush so a piped reader sees
    // it immediately.
    println!(
        "{}{} points={points} depth={depth}",
        READY_PREFIX,
        server.port()
    );
    std::io::stdout().flush().expect("flush ready line");

    // Self-polling digest loop: a loopback stats client, so the printed
    // numbers travel the same wire path any external poller would use.
    let poller = (args.stats_interval_s > 0.0).then(|| {
        let addr = format!("127.0.0.1:{}", server.port());
        let interval = std::time::Duration::from_secs_f64(args.stats_interval_s);
        std::thread::spawn(move || {
            let Ok(mut client) = EvalClient::connect(&addr) else {
                return;
            };
            loop {
                std::thread::sleep(interval);
                let Ok(snap) = client.stats() else { break };
                let n = |path: [&str; 2]| {
                    snap.get(path[0])
                        .and_then(|s| s.get(path[1]))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                };
                let interval_s = n(["window", "interval_us"]) / 1e6;
                let rate = if interval_s > 0.0 {
                    n(["window", "completed_requests"]) / interval_s
                } else {
                    0.0
                };
                let p99 = snap
                    .get("latency")
                    .and_then(|l| l.get("total"))
                    .and_then(|t| t.get("p99_us"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0);
                eprintln!(
                    "serve: stats completed={} shed={} queued={} rate={rate:.0}req/s p99={p99:.0}us",
                    n(["totals", "completed_requests"]),
                    n(["totals", "shed_requests"]),
                    n(["queues", "queued_requests"]),
                );
            }
        })
    });

    server.wait();
    // The last snapshot is taken before shutdown tears the hub down.
    let telemetry = dashmm_obs::json::parse(&server.stats_json())
        .unwrap_or_else(|e| panic!("serve: own stats snapshot failed to parse: {e}"));
    server.shutdown();
    if let Some(p) = poller {
        let _ = p.join();
    }
    let stats = server.stats();
    eprintln!(
        "serve: done — {} requests ({} shed, {} bad) over {} tiles \
         ({:.1} requests/tile), {} targets, p99 {:.0}us",
        stats.totals.completed_requests,
        stats.totals.shed_requests,
        stats.totals.bad_requests,
        stats.totals.tiles,
        stats.mean_tile_requests(),
        stats.totals.evaluated_targets,
        stats.latency.p99_us,
    );
    if let Some(path) = args.summary {
        let summary = obj(vec![
            ("build_s", Value::from(build_s)),
            ("telemetry", telemetry),
        ]);
        if let Err(e) = write_summary(&path, &summary) {
            eprintln!("serve: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    // The reset path must be clean after every disconnect the run saw;
    // this asserts the accounting reconciles (the mid-batch-disconnect
    // regression guard, exercised on every server exit).
    server.reset();
}

//! Measured multi-process runs for the harness binaries.
//!
//! With `--transport socket` a binary stops simulating localities and
//! becomes them: [`maybe_run`] re-executes the binary once per locality
//! (via `dashmm_net::bootstrap`), every rank builds the identical
//! evaluation SPMD-style and runs its share over the real socket
//! transport, the per-rank partial potentials are gathered and summed at
//! rank 0, and rank 0 verifies the merged result against a single-process
//! reference.  The communication metrics (parcels/bytes per destination,
//! batch histogram, flush reasons) are printed per rank, and — for the
//! figure binaries — compared against the simulator's prediction for the
//! same locality count and coalescing configuration.

use std::sync::Arc;
use std::time::Instant;

use dashmm_amt::{CoalesceConfig, Transport};
use dashmm_core::{DashmmBuilder, Method, SchedPlan};
use dashmm_kernels::{Kernel, KernelKind, Laplace, Yukawa};
use dashmm_net::{bootstrap, merge_sum_f64, Role, SocketTransport};
use dashmm_obs::codec::encode_f64s;
use dashmm_obs::json::{obj, Value};
use dashmm_obs::summary::{utilization_section, write_summary};
use dashmm_obs::{encode_rank_trace, merged_chrome_trace, validate_chrome_trace};
use dashmm_sim::{simulate, NetworkModel, SimConfig};

use crate::{cost_model, Opts, TransportMode};

/// Relative L2 error of `got` versus `want`.
fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = want.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

/// If the options ask for the socket transport, run the measured
/// multi-process evaluation and return `true` (the caller should stop);
/// rank children never return.  With `with_sim`, rank 0 also prints the
/// simulator's prediction for the same machine next to the measurement.
/// `name` labels the exported observability artifacts (`--obs full`).
pub fn maybe_run(name: &str, opts: &Opts, with_sim: bool) -> bool {
    if opts.transport != TransportMode::Socket {
        return false;
    }
    if opts.localities < 2 {
        eprintln!("error: --transport socket needs --localities 2 or more");
        std::process::exit(2);
    }
    // The launcher re-executes this binary once per rank with the
    // environment inherited, so exporting the plan here reaches every
    // rank's transport.
    if let Some(spec) = &opts.faults {
        std::env::set_var(dashmm_amt::ENV_FAULTS, spec);
    }
    let cfg = if opts.no_coalesce {
        CoalesceConfig::disabled()
    } else {
        CoalesceConfig::default()
    };
    match bootstrap(opts.localities as u32, cfg) {
        Ok(Role::Launcher(report)) => {
            for (rank, st) in &report.statuses {
                if !st.success() {
                    eprintln!("locality {rank} failed: {st}");
                }
            }
            if !report.success() {
                std::process::exit(1);
            }
            println!(
                "all {} localities exited cleanly ({} workers each)",
                opts.localities, opts.workers
            );
            true
        }
        Ok(Role::Rank(transport)) => rank_main(name, opts, transport, with_sim),
        Err(e) => {
            eprintln!("multi-process bootstrap failed: {e}");
            std::process::exit(1);
        }
    }
}

fn rank_main(name: &str, opts: &Opts, transport: Arc<SocketTransport>, with_sim: bool) -> ! {
    let ok = match opts.kernel {
        KernelKind::Laplace => rank_eval(name, opts, &transport, with_sim, Laplace),
        KernelKind::Yukawa(lam) => rank_eval(name, opts, &transport, with_sim, Yukawa::new(lam)),
    };
    // Every rank holds its sockets open until all are done comparing.
    transport.barrier().expect("final barrier");
    transport.shutdown();
    std::process::exit(if ok { 0 } else { 1 });
}

fn rank_eval<K: Kernel>(
    name: &str,
    opts: &Opts,
    transport: &Arc<SocketTransport>,
    with_sim: bool,
    kernel: K,
) -> bool {
    let rank = transport.rank();
    let (sources, targets, charges) = opts.ensembles();
    let eval = DashmmBuilder::new(kernel.clone())
        .method(Method::AdvancedFmm)
        .threshold(opts.threshold)
        .machine(opts.localities, opts.workers)
        .obs(opts.obs)
        .transport(Arc::clone(transport) as Arc<dyn Transport>)
        .build(&sources, &charges, &targets);
    let t0 = Instant::now();
    let out = eval.evaluate();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Merge the partial potentials (each rank holds only its T boxes).
    let mut part = Vec::new();
    encode_f64s(&out.potentials, &mut part);
    let parts = transport.gather(&part).expect("potential gather");
    // Total measured traffic across ranks.
    let m = transport.metrics();
    let mut my_traffic = Vec::new();
    encode_f64s(
        &[
            transport.stats().parcels_sent as f64,
            m.per_dest.iter().map(|d| d.bytes).sum::<u64>() as f64,
        ],
        &mut my_traffic,
    );
    let traffic = transport.gather(&my_traffic).expect("traffic gather");
    println!("{}", m.digest(rank));

    // Gather every rank's span trace at rank 0 (collective, so all ranks
    // participate even though only rank 0 keeps the result).  Each rank
    // records against its own monotonic clock; the unix-epoch anchor
    // captured at run start aligns them into one merged timeline.
    let trace_parts = if opts.obs.spans() {
        let blob = encode_rank_trace(rank, out.report.run_start_unix_ns, &out.report.trace);
        transport.gather(&blob).expect("trace gather")
    } else {
        None
    };

    let mut ok = true;
    if let Some(parts) = parts {
        // Rank 0: verify and report.
        // A part of the wrong length merges to NaNs: a mismatch, reported.
        let merged = merge_sum_f64(&parts).unwrap_or_else(|e| {
            println!("[rank 0] gathered potentials: {e} [MISMATCH]");
            vec![f64::NAN; out.potentials.len()]
        });
        let reference = DashmmBuilder::new(kernel)
            .method(Method::AdvancedFmm)
            .threshold(opts.threshold)
            .machine(1, opts.workers)
            .build(&sources, &charges, &targets)
            .evaluate();
        let e = rel_err(&merged, &reference.potentials);
        ok &= e < 1e-12;
        println!(
            "[rank 0] merged potentials vs single-process: rel err {e:.2e} [{}]",
            if e < 1e-12 { "ok" } else { "MISMATCH" }
        );
        let communicated = m.per_dest.iter().any(|d| d.parcels > 0 && d.frames > 0);
        ok &= communicated;
        println!(
            "[rank 0] per-destination comm metrics nonzero [{}]",
            if communicated { "ok" } else { "MISMATCH" }
        );
        if !opts.no_coalesce {
            // The batching *ratio* depends on how bursty the run is (small
            // problems drain parcels one at a time), so the check is that
            // the coalescer itself produced the frames — no Unbatched
            // flushes — not a ratio threshold.
            use dashmm_net::FlushReason;
            let unbatched = m.flush_reasons[FlushReason::Unbatched as usize];
            let coalesced: u64 = m.flush_reasons.iter().sum::<u64>() - unbatched;
            let batched = coalesced > 0 && unbatched == 0;
            ok &= batched;
            println!(
                "[rank 0] coalescing active: {:.1} parcels/frame, {coalesced} coalesced flushes [{}]",
                m.mean_batch(),
                if batched { "ok" } else { "MISMATCH" }
            );
        }
        let sums =
            merge_sum_f64(&traffic.expect("rank 0 gets traffic parts")).unwrap_or_else(|e| {
                println!("[rank 0] gathered traffic: {e} [MISMATCH]");
                ok = false;
                vec![0.0; 2]
            });
        let (msgs, bytes) = (sums[0] as u64, sums[1] as u64);
        println!("[rank 0] measured: {wall_ms:.1} ms wall, {msgs} parcels, {bytes} payload bytes");
        if let Some(blobs) = trace_parts {
            let _ = std::fs::create_dir_all("results");
            let path = std::path::Path::new("results").join(format!("{name}_socket_trace.json"));
            match merged_chrome_trace(&blobs) {
                Ok(json) => {
                    let valid = validate_chrome_trace(&json).is_ok();
                    ok &= valid;
                    let written = std::fs::write(&path, &json).is_ok();
                    ok &= written;
                    println!(
                        "[rank 0] merged {}-rank clock-aligned trace -> {} [{}]",
                        opts.localities,
                        path.display(),
                        if valid && written { "ok" } else { "MISMATCH" }
                    );
                }
                Err(e) => {
                    ok = false;
                    println!("[rank 0] trace merge failed: {e} [MISMATCH]");
                }
            }
        }
        if opts.obs.enabled() {
            let mut sections = vec![
                (
                    "workload",
                    obj(vec![
                        ("name", Value::from(name)),
                        ("n", Value::from(opts.n)),
                        ("localities", Value::from(opts.localities)),
                        ("workers", Value::from(opts.workers)),
                        ("wall_ms", Value::from(wall_ms)),
                    ]),
                ),
                ("comm", m.to_json()),
            ];
            if opts.obs.spans() {
                sections.push(("utilization", utilization_section(&out.report.trace, 100)));
            }
            let path = std::path::Path::new("results").join(format!("{name}_socket_summary.json"));
            match write_summary(&path, &obj(sections)) {
                Ok(()) => println!("[rank 0] wrote {}", path.display()),
                Err(e) => eprintln!("[rank 0] failed to write {}: {e}", path.display()),
            }
        }
        if with_sim {
            let cost = cost_model(opts, opts.cost);
            let mut net = NetworkModel::gemini();
            net.coalesce = transport.coalesce_config();
            let sim_cfg = SimConfig {
                localities: opts.localities,
                cores_per_locality: opts.workers,
                trace: false,
                levelwise: false,
            };
            let plan = SchedPlan::flat(eval.dag());
            let sim = simulate(eval.dag(), &plan, &cost, &net, &sim_cfg);
            println!(
                "[rank 0] simulated: {:.1} ms makespan, {} messages, {} bytes \
                 (same DAG, distribution and coalescing config; FIFO plan)",
                sim.makespan_us / 1e3,
                sim.messages,
                sim.bytes
            );
            // The model prices a bundle at its whole source node; the
            // runtime ships only the regions the bundled edges read — a
            // subset, so measured may fall below simulated, never above.
            let within = bytes <= sim.bytes;
            ok &= within;
            println!(
                "[rank 0] payload bytes measured / simulated: {bytes} / {} = {:.3} [{}]",
                sim.bytes,
                bytes as f64 / sim.bytes as f64,
                if within { "ok" } else { "MISMATCH" }
            );
        }
    }
    ok
}

//! **Chaos** — the fig4-style workload run under a seeded fault plan.
//!
//! Two OS-process localities (or more with `--localities`) evaluate the
//! cube/Laplace workload over loopback TCP while the transport injects the
//! faults described by `--faults SPEC` (see `dashmm_amt::FaultPlan`):
//! frame drop / duplicate / corrupt / delay / reorder, plus an optional
//! locality kill or stall.  The run then has to prove the robustness
//! claims:
//!
//! - **Loss plans** (drop/dup/corrupt/delay/reorder/stall): the merged
//!   potentials must match the fault-free single-process reference to
//!   machine precision (rel err ≤ 1e-12) — retransmission and duplicate
//!   suppression make the faults invisible to the answer.
//! - **Kill plans** (`kill=R@MS`): the victim exits with the kill code,
//!   every survivor detects the dead peer, writes a partial
//!   `results/chaos_partial_summary.json` naming the lost work, and exits
//!   with the degraded code — nobody hangs.  The launcher verifies that
//!   exit-code pattern and exits 0 when the clean abort is confirmed.
//! - **Recovery** (`--recover`, implies a kill plan — one is added if the
//!   spec has none): the survivors fence the dead rank, re-own its DAG
//!   slice, replay the orphaned work, and must produce the *complete*
//!   answer (rel err ≤ 1e-12 vs the fault-free reference) and exit 0.
//!   Each survivor then evaluates once more on the same network, which
//!   must recover nothing and give the same answer.  Rank 0 writes
//!   `results/BENCH_recovery.json` with the measured recovery latency,
//!   replayed-edge counts, the recompute cost next to the fault-free
//!   wall-clock, and the simulator's recovery estimate.
//! - **Parity** (sim/runtime): the simulator replays the same seeded plan
//!   over the same DAG and its retransmit rate must land within a
//!   tolerance band of the measured one.
//!
//! A wall-clock watchdog (`--budget-s`, default 55 s) aborts every
//! process past the budget, so a wedged run fails loudly instead of
//! hanging CI.
//!
//! Run: `cargo run --release -p dashmm-bench --bin chaos -- --n 3000 \
//!       --faults "seed=7,drop=0.02,dup=0.01,stall=1@50+100"`

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dashmm_amt::{CoalesceConfig, FaultPlan, PeerFailure, Transport, ENV_FAULTS};
use dashmm_bench::{banner, cost_model, Opts, TransportMode};
use dashmm_core::{DashmmBuilder, Method, SchedPlan};
use dashmm_kernels::{Kernel, KernelKind, Laplace, Yukawa};
use dashmm_net::{
    bootstrap, merge_sum_f64, CommMetrics, LaunchReport, Role, SocketTransport, KILL_EXIT_CODE,
};
use dashmm_obs::codec::encode_f64s;
use dashmm_obs::json::{obj, Value};
use dashmm_obs::summary::write_summary;
use dashmm_sim::{simulate, NetworkModel, SimConfig};

/// Exit code of a surviving rank that aborted because a peer died.
const DEGRADED_EXIT_CODE: i32 = 75;
/// Exit code when the wall-clock watchdog fires.
const WATCHDOG_EXIT_CODE: i32 = 99;
/// Plan used when `--faults` is not given: 2% drop, 1% duplication, and a
/// 100 ms stall of rank 1 — the acceptance scenario (≥1% drop + one
/// stall) the answer must survive bit-for-bit.
const DEFAULT_SPEC: &str = "seed=7,drop=0.02,dup=0.01,stall=1@50+100";
const DEFAULT_BUDGET_S: u64 = 55;

fn main() {
    let mut opts = Opts::parse();
    // This binary is only meaningful as a measured multi-process run.
    opts.transport = TransportMode::Socket;
    if opts.localities < 2 {
        opts.localities = 2;
    }
    let mut spec = opts
        .faults
        .clone()
        .unwrap_or_else(|| DEFAULT_SPEC.to_string());
    let mut plan = match FaultPlan::parse(&spec) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: --faults `{spec}`: {e}");
            std::process::exit(2);
        }
    };
    if opts.recover {
        if plan.kill.is_none() {
            // Recovery is only provable against an actual death: kill the
            // last rank mid-run (never rank 0 — losing the coordinator is
            // out of recovery's scope).
            spec = format!("{spec},kill={}@15", opts.localities - 1);
            plan = FaultPlan::parse(&spec).expect("augmented fault spec parses");
        }
        let kill = plan.kill.expect("recover mode has a kill");
        if kill.rank == 0 || kill.rank as usize >= opts.localities {
            eprintln!(
                "error: --recover needs a kill of rank 1..{} (got {})",
                opts.localities - 1,
                kill.rank
            );
            std::process::exit(2);
        }
    }
    // Every process (launcher and re-executed ranks alike) arms its own
    // watchdog: a chaos run may abort, but it must never hang.
    let budget_s = opts.budget_s.unwrap_or(DEFAULT_BUDGET_S);
    std::thread::spawn(move || {
        std::thread::sleep(Duration::from_secs(budget_s));
        eprintln!("chaos: wall-clock budget of {budget_s}s exceeded, aborting");
        std::process::exit(WATCHDOG_EXIT_CODE);
    });
    // The launcher re-executes this binary once per rank with the
    // environment inherited, so exporting the plan here reaches every
    // rank's transport.
    std::env::set_var(ENV_FAULTS, &spec);
    let cfg = if opts.no_coalesce {
        CoalesceConfig::disabled()
    } else {
        CoalesceConfig::default()
    };
    match bootstrap(opts.localities as u32, cfg) {
        Ok(Role::Launcher(report)) => {
            banner(
                "Chaos — fig4-style workload under an injected fault plan",
                &format!(
                    "plan: {plan}  |  {} localities, n={}, budget {budget_s}s",
                    opts.localities, opts.n
                ),
            );
            std::process::exit(verdict(&report, &plan, opts.recover));
        }
        Ok(Role::Rank(transport)) => rank_main(&opts, plan, transport),
        Err(e) => {
            eprintln!("multi-process bootstrap failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Judge the per-rank exit codes against the plan.  Returns the launcher's
/// exit code: 0 when the run proved what it had to (clean completion, or —
/// under a kill — the victim died with the kill code and every survivor
/// degraded gracefully, or, with `recover`, *completed* despite the
/// death), 1 otherwise.
fn verdict(report: &LaunchReport, plan: &FaultPlan, recover: bool) -> i32 {
    let Some(kill) = plan.kill else {
        return if report.success() {
            println!("[ok] all localities exited cleanly under plan `{plan}`");
            0
        } else {
            for (rank, st) in &report.statuses {
                if !st.success() {
                    println!("[MISMATCH] locality {rank} failed ({st}) with no kill scheduled");
                }
            }
            1
        };
    };
    let mut ok = true;
    for (rank, st) in &report.statuses {
        let code = st.code();
        if *rank == kill.rank {
            let died = code == Some(KILL_EXIT_CODE);
            ok &= died;
            println!(
                "[{}] victim locality {rank} exited with the kill code {KILL_EXIT_CODE} (got {st})",
                if died { "ok" } else { "MISMATCH" }
            );
        } else if recover {
            // Recovery mode gates on the *complete* answer: every
            // survivor must verify the recovered potentials and exit 0.
            let recovered = code == Some(0);
            ok &= recovered;
            println!(
                "[{}] survivor locality {rank} exited {} (0 required: recovery must complete)",
                if recovered { "ok" } else { "MISMATCH" },
                code.map_or_else(|| "by signal".to_string(), |c| c.to_string()),
            );
        } else {
            // A survivor either degraded gracefully or — if termination
            // won the race against the kill — completed normally.
            let graceful = matches!(code, Some(0) | Some(DEGRADED_EXIT_CODE));
            ok &= graceful;
            println!(
                "[{}] survivor locality {rank} exited {} (0 or {DEGRADED_EXIT_CODE} expected)",
                if graceful { "ok" } else { "MISMATCH" },
                code.map_or_else(|| "by signal".to_string(), |c| c.to_string()),
            );
        }
    }
    if ok {
        println!(
            "[ok] {}",
            if recover {
                "recovery verified: the survivors completed the evaluation without the dead locality"
            } else {
                "clean abort verified: no survivor hung on the dead locality"
            }
        );
        0
    } else {
        1
    }
}

fn rank_main(opts: &Opts, plan: FaultPlan, transport: Arc<SocketTransport>) -> ! {
    let mut code = match opts.kernel {
        KernelKind::Laplace => rank_eval(opts, plan, &transport, Laplace),
        KernelKind::Yukawa(lam) => rank_eval(opts, plan, &transport, Yukawa::new(lam)),
    };
    if code != DEGRADED_EXIT_CODE {
        // Every rank holds its sockets open until all are done comparing —
        // even after a failed check, or the peers would block on a barrier
        // nobody joins.  Under a kill plan the barrier itself may observe
        // the death.
        if transport.barrier().is_err() {
            code = if transport.failed_peer().is_some() {
                DEGRADED_EXIT_CODE
            } else {
                code.max(1)
            };
        }
    }
    transport.shutdown();
    std::process::exit(code);
}

fn rank_eval<K: Kernel>(
    opts: &Opts,
    plan: FaultPlan,
    transport: &Arc<SocketTransport>,
    kernel: K,
) -> i32 {
    let rank = transport.rank();
    let (sources, targets, charges) = opts.ensembles();
    let eval = DashmmBuilder::new(kernel.clone())
        .method(Method::AdvancedFmm)
        .threshold(opts.threshold)
        .machine(opts.localities, opts.workers)
        .transport(Arc::clone(transport) as Arc<dyn Transport>)
        .recover(opts.recover)
        .build(&sources, &charges, &targets);
    let t0 = Instant::now();
    let out = eval.evaluate();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let m = transport.metrics();
    println!("{}", m.digest(rank));

    if let Some(failure) = out.report.lost_peer {
        match &out.recovery {
            Some(info) => println!(
                "[rank {rank}] survived {failure}: {} nodes re-owned, \
                 {} sources replayed ({} edges), {} LCOs re-armed, \
                 {} duplicates absorbed, recovery {:.1} ms",
                info.stats.reowned_nodes,
                info.stats.replayed_sources,
                info.stats.replayed_edges,
                info.stats.rearmed_lcos,
                info.dedup_skipped,
                info.recovery_ms,
            ),
            None => return degraded(rank, failure, opts, &plan, &eval, &m, wall_ms),
        }
    }

    // Under `--recover` every survivor evaluates once more on the same
    // network.  A recovered loss stays recovered: its nodes keep their new
    // owners, so this evaluation must recover nothing.
    let mut code = 0;
    let again = opts.recover.then(|| eval.evaluate());
    if let Some(again) = &again {
        if let (Some(failure), None) = (again.report.lost_peer, &again.recovery) {
            return degraded(rank, failure, opts, &plan, &eval, &m, wall_ms);
        }
        let recovered_again = out.recovery.is_some() && again.recovery.is_some();
        if recovered_again {
            code = 1;
        }
        println!(
            "[{}] rank {rank}: the second evaluation on the same network {}",
            if recovered_again { "MISMATCH" } else { "ok" },
            if again.recovery.is_some() {
                "recovered a loss"
            } else {
                "recovered nothing"
            }
        );
    }

    // The answer under faults must match the fault-free single-process
    // reference bit-for-bit (to merge rounding): gather and verify.  In a
    // recovered run the dead rank's gather slot is empty — drop it before
    // merging.
    let gather = |potentials: &[f64]| {
        let mut part = Vec::new();
        encode_f64s(potentials, &mut part);
        transport.gather(&part).map_err(|_| {
            transport.failed_peer_info().map_or(1, |dead| {
                degraded(rank, dead, opts, &plan, &eval, &m, wall_ms)
            })
        })
    };
    let parts = match gather(&out.potentials) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let again_parts = match again.as_ref().map(|again| gather(&again.potentials)) {
        Some(Ok(p)) => p,
        Some(Err(code)) => return code,
        None => None,
    };
    let mut my_rel = Vec::new();
    encode_f64s(
        &[
            m.retransmit_frames as f64,
            m.per_dest.iter().map(|d| d.frames).sum::<u64>() as f64,
            m.injected_total() as f64,
            m.dup_frames_rx as f64,
        ],
        &mut my_rel,
    );
    let rel_parts = match transport.gather(&my_rel) {
        Ok(p) => p,
        Err(_) => {
            return transport.failed_peer_info().map_or(1, |dead| {
                degraded(rank, dead, opts, &plan, &eval, &m, wall_ms)
            })
        }
    };

    let Some(parts) = parts else { return code };
    // Rank 0: verify, print the reliability story, check sim parity.  A
    // part of the wrong length merges to NaNs: a mismatch, reported.
    let merged = |parts: Vec<Vec<u8>>| {
        let parts: Vec<_> = parts.into_iter().filter(|p| !p.is_empty()).collect();
        merge_sum_f64(&parts).unwrap_or_else(|e| {
            println!("[rank 0] gathered potentials: {e} [MISMATCH]");
            vec![f64::NAN; out.potentials.len()]
        })
    };
    let t_ref = Instant::now();
    let reference = DashmmBuilder::new(kernel)
        .method(Method::AdvancedFmm)
        .threshold(opts.threshold)
        .machine(1, opts.workers)
        .build(&sources, &charges, &targets)
        .evaluate();
    let reference_ms = t_ref.elapsed().as_secs_f64() * 1e3;
    let e = rel_err(&merged(parts), &reference.potentials);
    let exact = e < 1e-12;
    if !exact {
        code = 1;
    }
    println!(
        "[rank 0] merged potentials vs fault-free single-process reference: \
         rel err {e:.2e} [{}]",
        if exact { "ok" } else { "MISMATCH" }
    );
    if let Some(parts) = again_parts {
        let e = rel_err(&merged(parts), &reference.potentials);
        let exact = e < 1e-12;
        if !exact {
            code = 1;
        }
        println!(
            "[rank 0] second evaluation's merged potentials vs the same reference: \
             rel err {e:.2e} [{}]",
            if exact { "ok" } else { "MISMATCH" }
        );
    }
    let rel_parts: Vec<_> = rel_parts
        .expect("rank 0 gets reliability parts")
        .into_iter()
        .filter(|p| !p.is_empty())
        .collect();
    let sums = merge_sum_f64(&rel_parts).unwrap_or_else(|e| {
        println!("[rank 0] gathered reliability counters: {e} [MISMATCH]");
        code = 1;
        vec![0.0; 4]
    });
    let (rtx, frames, injected, dups) = (
        sums[0] as u64,
        sums[1] as u64,
        sums[2] as u64,
        sums[3] as u64,
    );
    println!(
        "[rank 0] measured: {wall_ms:.1} ms wall, {frames} parcel frames, \
         {injected} faults injected, {rtx} retransmit frames, \
         {dups} duplicate frames suppressed"
    );
    let lossy = plan.drop > 0.0 || plan.corrupt > 0.0 || plan.dup > 0.0 || plan.reorder > 0.0;
    if lossy && frames > 200 && injected == 0 {
        code = 1;
        println!("[MISMATCH] an active loss plan injected nothing over {frames} frames");
    }

    // Sim/runtime parity: replay the same seeded plan over the same DAG in
    // the simulator and compare retransmit *rates* (the sim coalesces per
    // task, the transport across tasks, so absolute frame counts differ).
    let cost = cost_model(opts, opts.cost);
    let mut net = NetworkModel::gemini().with_faults(plan);
    net.coalesce = transport.coalesce_config();
    let sim = simulate(
        eval.dag(),
        &SchedPlan::flat(eval.dag()),
        &cost,
        &net,
        &SimConfig {
            localities: opts.localities,
            cores_per_locality: opts.workers,
            trace: false,
            levelwise: false,
        },
    );
    let rate_m = rtx as f64 / frames.max(1) as f64;
    let rate_s = sim.retransmits as f64 / sim.messages.max(1) as f64;
    let tol = 0.5 * rate_m.max(rate_s) + 0.02;
    // The band is only meaningful for pure frame-fate plans: a stall is
    // runtime-only (the sim cannot see it) and causes legitimate
    // timeout-driven retransmits the sim will never count — and so is a
    // kill, whose recovery replay re-sends parcels the sim never models.
    // With few loss events on either side the rates are too noisy to
    // compare either.
    let enforced = plan.stall.is_none() && plan.kill.is_none();
    let parity = (rate_m - rate_s).abs() <= tol || rtx + sim.retransmits < 10;
    if enforced && !parity {
        code = 1;
    }
    println!(
        "[rank 0] parity: simulated {} retransmits / {} messages ({:.4}/frame) \
         vs measured {rtx} / {frames} ({rate_m:.4}/frame), band ±{tol:.4} [{}]",
        sim.retransmits,
        sim.messages,
        rate_s,
        if !enforced {
            "info only: stall plans retransmit on timeouts the sim cannot model"
        } else if parity {
            "ok"
        } else {
            "MISMATCH"
        }
    );

    // Recovery bench artifact: the measured recovery next to the fault-free
    // wall-clock and the simulator's analytic estimate of the same loss.
    if let Some(info) = out.recovery {
        let suspicion_ms: f64 = std::env::var("DASHMM_SUSPICION_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1_000.0);
        let est = dashmm_sim::estimate_recovery(
            eval.dag(),
            &cost,
            &NetworkModel::gemini(),
            &SimConfig {
                localities: opts.localities,
                cores_per_locality: opts.workers,
                trace: false,
                levelwise: false,
            },
            info.failure.rank,
            suspicion_ms * 1e3,
        );
        // The sim derives the re-owned set from the same distribution rule
        // the runtime fences on, so the node counts must agree exactly.
        let counts_agree = est.reowned_nodes == info.stats.reowned_nodes;
        if !counts_agree {
            code = 1;
        }
        println!(
            "[rank 0] recovery: {} re-owned, replayed {} edges in {:.1} ms \
             (fault-free reference {reference_ms:.1} ms, overhead x{:.2}); \
             sim estimates {} re-owned / {} edges, {:.1} ms total [{}]",
            info.stats.reowned_nodes,
            info.stats.replayed_edges,
            info.recovery_ms,
            wall_ms / reference_ms.max(1e-9),
            est.reowned_nodes,
            est.replayed_edges,
            est.total_us / 1e3,
            if counts_agree { "ok" } else { "MISMATCH" }
        );
        let _ = std::fs::create_dir_all("results");
        let path = Path::new("results").join("BENCH_recovery.json");
        let bench = obj(vec![
            (
                "workload",
                obj(vec![
                    ("name", Value::from("chaos_recovery")),
                    ("n", Value::from(opts.n)),
                    ("localities", Value::from(opts.localities)),
                    ("workers", Value::from(opts.workers)),
                    ("fault_plan", Value::from(plan.to_string())),
                ]),
            ),
            (
                "failure",
                obj(vec![
                    ("rank", Value::from(info.failure.rank as u64)),
                    ("epoch", Value::from(info.failure.epoch as u64)),
                    ("conviction", Value::from(info.failure.reason.name())),
                ]),
            ),
            (
                "measured",
                obj(vec![
                    ("first_run_ms", Value::from(info.first_run_ms)),
                    ("recovery_ms", Value::from(info.recovery_ms)),
                    ("wall_ms", Value::from(wall_ms)),
                    ("fault_free_reference_ms", Value::from(reference_ms)),
                    (
                        "overhead_vs_fault_free",
                        Value::from(wall_ms / reference_ms.max(1e-9)),
                    ),
                    ("reowned_nodes", Value::from(info.stats.reowned_nodes)),
                    ("replayed_sources", Value::from(info.stats.replayed_sources)),
                    ("replayed_edges", Value::from(info.stats.replayed_edges)),
                    ("rearmed_lcos", Value::from(info.stats.rearmed_lcos)),
                    ("parked_batches", Value::from(info.stats.parked_batches)),
                    ("dedup_skipped", Value::from(info.dedup_skipped)),
                ]),
            ),
            (
                "simulated",
                obj(vec![
                    ("detect_us", Value::from(est.detect_us)),
                    ("recompute_us", Value::from(est.recompute_us)),
                    ("replay_comm_us", Value::from(est.replay_comm_us)),
                    ("total_us", Value::from(est.total_us)),
                    ("reowned_nodes", Value::from(est.reowned_nodes)),
                    ("replayed_edges", Value::from(est.replayed_edges)),
                ]),
            ),
        ]);
        match write_summary(&path, &bench) {
            Ok(()) => println!("[rank 0] wrote {}", path.display()),
            Err(e) => eprintln!("[rank 0] failed to write {}: {e}", path.display()),
        }
    }
    code
}

/// A peer died mid-run: name the lost work, write the partial summary
/// (rank 0), and hand back the degraded exit code.
fn degraded<K: Kernel>(
    rank: u32,
    dead: PeerFailure,
    opts: &Opts,
    plan: &FaultPlan,
    eval: &dashmm_core::Evaluation<K>,
    m: &CommMetrics,
    wall_ms: f64,
) -> i32 {
    let lost = eval
        .dag()
        .nodes()
        .iter()
        .filter(|n| n.locality == dead.rank)
        .count();
    let total = eval.dag().nodes().len();
    println!(
        "[rank {rank}] peer {dead} died mid-run; \
         {lost}/{total} DAG nodes were assigned to it — aborting cleanly"
    );
    if rank == 0 {
        let _ = std::fs::create_dir_all("results");
        let path = Path::new("results").join("chaos_partial_summary.json");
        let summary = obj(vec![
            (
                "workload",
                obj(vec![
                    ("name", Value::from("chaos")),
                    ("n", Value::from(opts.n)),
                    ("localities", Value::from(opts.localities)),
                    ("workers", Value::from(opts.workers)),
                    ("wall_ms", Value::from(wall_ms)),
                ]),
            ),
            ("fault_plan", Value::from(plan.to_string())),
            (
                "aborted",
                obj(vec![
                    ("completed", Value::from(false)),
                    ("lost_locality", Value::from(dead.rank as u64)),
                    ("failure_epoch", Value::from(dead.epoch as u64)),
                    ("conviction", Value::from(dead.reason.name())),
                    ("lost_dag_nodes", Value::from(lost)),
                    ("total_dag_nodes", Value::from(total)),
                ]),
            ),
            ("comm", m.to_json()),
        ]);
        match write_summary(&path, &summary) {
            Ok(()) => println!(
                "[rank 0] wrote partial {} naming the lost work",
                path.display()
            ),
            Err(e) => eprintln!("[rank 0] failed to write {}: {e}", path.display()),
        }
    }
    DEGRADED_EXIT_CODE
}

/// Relative L2 error of `got` versus `want`.
fn rel_err(got: &[f64], want: &[f64]) -> f64 {
    let num: f64 = got.iter().zip(want).map(|(a, b)| (a - b) * (a - b)).sum();
    let den: f64 = want.iter().map(|b| b * b).sum();
    (num / den).sqrt()
}

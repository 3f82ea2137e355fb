//! **Ablation** — asynchronous dataflow vs strict levelwise execution.
//!
//! The paper's central premise (§I): conventional SPMD implementations
//! execute the DAG "in a strict levelwise fashion", but "inputs to each
//! vertex in the DAG come from multiple levels and some inputs can be
//! processed earlier than in a levelwise schedule.  Thus strict levelwise
//! implementations cannot exploit all of the available parallelism,
//! limiting their strong scaling behavior."
//!
//! This ablation quantifies that claim: the same explicit DAG is replayed
//! through the simulator under the AMT dataflow schedule and under a
//! barrier-synchronised levelwise schedule, across core counts.
//!
//! Run: `cargo run --release -p dashmm-bench --bin ablation_levelwise [--n N]`

use dashmm_bench::{banner, build_workload, cost_model, distribute, Opts};
use dashmm_dag::SchedPlan;
use dashmm_kernels::KernelKind;
use dashmm_sim::{simulate, NetworkModel, SimConfig};
use dashmm_tree::Distribution;

const CORES_PER_LOCALITY: usize = 32;

fn main() {
    let base = Opts::parse();
    banner(
        "Ablation — AMT dataflow vs strict levelwise (BSP) execution",
        &format!("n={} threshold={}", base.n, base.threshold),
    );
    let configs = [
        (Distribution::Cube, KernelKind::Laplace, "cube laplace"),
        (Distribution::Sphere, KernelKind::Laplace, "sphere laplace"),
    ];
    let net = NetworkModel::gemini();
    let mut advantages = Vec::new();
    for (dist, kernel, label) in configs {
        let opts = Opts {
            dist,
            kernel,
            ..base.clone()
        };
        let mut w = build_workload(&opts, 1);
        let cost = cost_model(&opts, opts.cost);
        println!("\n### {label}");
        println!(
            "{:>6}  {:>14}  {:>14}  {:>14}",
            "cores", "dataflow [ms]", "levelwise [ms]", "AMT advantage"
        );
        for localities in [1usize, 4, 16, 64, 128] {
            distribute(&w.problem, &mut w.asm, localities as u32);
            let run = |levelwise| {
                let cfg = SimConfig {
                    localities,
                    cores_per_locality: CORES_PER_LOCALITY,
                    trace: false,
                    levelwise,
                };
                simulate(&w.asm.dag, &SchedPlan::flat(&w.asm.dag), &cost, &net, &cfg)
            };
            let df = run(false);
            let lw = run(true);
            let adv = lw.makespan_us / df.makespan_us - 1.0;
            println!(
                "{:>6}  {:>14.2}  {:>14.2}  {:>13.1}%",
                localities * CORES_PER_LOCALITY,
                df.makespan_us / 1e3,
                lw.makespan_us / 1e3,
                adv * 100.0
            );
            if localities >= 16 {
                advantages.push(adv);
            }
        }
    }
    println!("\n--- shape checks ---");
    let best = advantages.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "best dataflow advantage at ≥ 512 cores: {:.1}%",
        best * 100.0
    );
    check(
        "dataflow is never slower than levelwise",
        advantages.iter().all(|&a| a >= -1e-9),
    );
    check(
        "dataflow advantage is material at scale (≥ 10%)",
        best >= 0.10,
    );
}

fn check(what: &str, ok: bool) {
    println!("[{}] {}", if ok { "ok" } else { "MISMATCH" }, what);
}

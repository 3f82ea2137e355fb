//! **Ablation** — per-destination parcel coalescing (paper §IV).
//!
//! DASHMM examines each triggered node's out-edge list and sends a single
//! coalesced active-message parcel per destination locality instead of one
//! message per edge.  This ablation quantifies what that buys: message
//! count, network bytes and makespan, FIFO scheduling, cube Laplace.
//!
//! Run: `cargo run --release -p dashmm-bench --bin ablation_coalesce [--n N]`

use dashmm_bench::{banner, build_workload, cost_model, distribute, Opts};
use dashmm_dag::SchedPlan;
use dashmm_sim::{simulate, CoalesceConfig, NetworkModel, SimConfig};

const CORES_PER_LOCALITY: usize = 32;

fn main() {
    let opts = Opts::parse();
    banner(
        "Ablation — coalesced vs per-edge remote parcels",
        &format!("workload: {:?} {:?} n={}", opts.dist, opts.kernel, opts.n),
    );
    let mut w = build_workload(&opts, 1);
    let cost = cost_model(&opts, opts.cost);

    println!(
        "\n{:>6}  {:>10}  {:>12}  {:>10}  {:>12}  {:>10}  {:>8}",
        "cores", "msgs", "bytes", "t [ms]", "msgs(off)", "bytes(off)", "slowdown"
    );
    let mut checked = false;
    for localities in [2usize, 4, 16, 64] {
        distribute(&w.problem, &mut w.asm, localities as u32);
        let run = |coalesce: bool| {
            let net = NetworkModel {
                coalesce: if coalesce {
                    CoalesceConfig::default()
                } else {
                    CoalesceConfig::disabled()
                },
                ..NetworkModel::gemini()
            };
            let cfg = SimConfig {
                localities,
                cores_per_locality: CORES_PER_LOCALITY,
                trace: false,
                levelwise: false,
            };
            simulate(&w.asm.dag, &SchedPlan::flat(&w.asm.dag), &cost, &net, &cfg)
        };
        let on = run(true);
        let off = run(false);
        println!(
            "{:>6}  {:>10}  {:>12}  {:>10.2}  {:>12}  {:>12}  {:>7.2}x",
            localities * CORES_PER_LOCALITY,
            on.messages,
            on.bytes,
            on.makespan_us / 1e3,
            off.messages,
            off.bytes,
            off.makespan_us / on.makespan_us
        );
        if localities == 16 {
            checked = true;
            check(
                "coalescing sends far fewer messages",
                off.messages > 2 * on.messages,
            );
            check("coalescing sends fewer bytes", off.bytes > on.bytes);
            check(
                "coalescing is not slower",
                off.makespan_us >= on.makespan_us * 0.99,
            );
        }
    }
    assert!(checked);
}

fn check(what: &str, ok: bool) {
    println!("[{}] {}", if ok { "ok" } else { "MISMATCH" }, what);
}

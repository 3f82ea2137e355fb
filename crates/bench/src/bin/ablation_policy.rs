//! **Ablation** — distribution policies.
//!
//! The paper (§IV) lets the *distribution policy* decide where the nodes of
//! the implicit DAG live, with the single constraint that leaf data stays
//! with its owners; the evaluated policy additionally places incoming
//! intermediate nodes to minimise communication.  This ablation compares
//! the policies shipped in `dashmm-dag` on remote traffic, load balance,
//! and simulated makespan — including the instructive negative result that
//! communication-oblivious work balancing loses to owner pinning.
//!
//! Run: `cargo run --release -p dashmm-bench --bin ablation_policy [--n N]`

use dashmm_bench::{banner, build_workload, cost_model, Opts};
use dashmm_core::block_owner;
use dashmm_dag::{
    BlockPolicy, DistributionPolicy, FmmPolicy, ItPlacement, LoadBalancedPolicy, NodeClass,
    SchedPlan,
};
use dashmm_sim::{simulate, NetworkModel, SimConfig};

const LOCALITIES: usize = 16;

fn main() {
    let opts = Opts::parse();
    banner(
        "Ablation — distribution policies (16 localities × 32 cores)",
        &format!("workload: {:?} {:?} n={}", opts.dist, opts.kernel, opts.n),
    );
    let mut w = build_workload(&opts, 1);
    let cost = cost_model(&opts, opts.cost);
    let net = NetworkModel::gemini();

    let src_n = w.problem.tree.source().points().len();
    let tgt_n = w.problem.tree.target().points().len();
    let problem = &w.problem;
    let owner = |class: NodeClass, box_id: u32| -> u32 {
        match class {
            NodeClass::S | NodeClass::M | NodeClass::Is => block_owner(
                problem.tree.source().node(box_id).first,
                src_n,
                LOCALITIES as u32,
            ),
            _ => block_owner(
                problem.tree.target().node(box_id).first,
                tgt_n,
                LOCALITIES as u32,
            ),
        }
    };

    let policies: Vec<(&str, Box<dyn DistributionPolicy>)> = vec![
        ("block (owner)", Box::new(BlockPolicy)),
        (
            "fmm/target-it",
            Box::new(FmmPolicy {
                it_placement: ItPlacement::TargetOwner,
            }),
        ),
        ("fmm/majority-it", Box::new(FmmPolicy::default())),
        ("load-balanced", Box::new(LoadBalancedPolicy)),
    ];

    println!(
        "\n{:<16} {:>12} {:>14} {:>12} {:>12}",
        "policy", "remote edges", "remote MB", "t [ms]", "imbalance"
    );
    let mut results = Vec::new();
    for (name, policy) in policies {
        policy.assign(&mut w.asm.dag, LOCALITIES as u32, &owner);
        let remote = w.asm.dag.remote_edge_count();
        let mb = w.asm.dag.remote_bytes() as f64 / 1e6;
        let cfg = SimConfig {
            localities: LOCALITIES,
            cores_per_locality: 32,
            trace: false,
            levelwise: false,
        };
        let r = simulate(&w.asm.dag, &SchedPlan::flat(&w.asm.dag), &cost, &net, &cfg);
        let max_busy = r.busy_us.iter().cloned().fold(0.0f64, f64::max);
        let mean_busy: f64 = r.busy_us.iter().sum::<f64>() / LOCALITIES as f64;
        let imbalance = max_busy / mean_busy - 1.0;
        println!(
            "{:<16} {:>12} {:>14.1} {:>12.2} {:>11.1}%",
            name,
            remote,
            mb,
            r.makespan_us / 1e3,
            imbalance * 100.0
        );
        results.push((name, remote, mb, r.makespan_us, imbalance));
    }

    println!("\n--- shape checks ---");
    let get = |n: &str| *results.iter().find(|(x, ..)| *x == n).unwrap();
    let majority = get("fmm/majority-it");
    let target = get("fmm/target-it");
    check(
        "communication-aware It placement reduces remote bytes",
        majority.2 <= target.2 * 1.001,
    );
    let block = get("block (owner)");
    check(
        "every policy keeps the makespan within 2x of the best",
        results.iter().all(|r| r.3 <= 2.0 * block.3.min(majority.3)),
    );
    // The instructive negative result: balancing task *degrees* without
    // communication awareness breaks the spatial co-location of source and
    // target blocks, multiplying remote traffic — which is exactly why the
    // paper's policy pins nodes to their data owners and only then
    // optimises placement at the margins.
    let lb = get("load-balanced");
    check(
        "naive degree balancing pays more communication than owner pinning",
        lb.2 > majority.2,
    );
    check(
        "owner pinning beats naive balancing end to end",
        majority.3 <= lb.3,
    );
}

fn check(what: &str, ok: bool) {
    println!("[{}] {}", if ok { "ok" } else { "MISMATCH" }, what);
}

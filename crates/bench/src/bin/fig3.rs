//! **Figure 3** — strong scaling: evaluation time `t_n` and speedup
//! `t_32/t_n` for core counts 32…4096, for the four configurations
//! cube/sphere × Laplace/Yukawa.
//!
//! The paper ran 60 M (cube) / 42 M (sphere) points on Big Red II
//! (32 cores per node, Gemini interconnect).  Here the explicit DAG is
//! assembled for a host-sized problem and replayed through the
//! discrete-event runtime simulator with a Gemini-like network and a cost
//! model calibrated from traced execution on this host (see DESIGN.md's
//! substitution table).
//!
//! Run: `cargo run --release -p dashmm-bench --bin fig3 [--n N] [--no-coalesce]`

use dashmm_bench::report::write_csv;
use dashmm_bench::{banner, build_workload, cost_model, distribute, Opts};
use dashmm_dag::SchedPlan;
use dashmm_kernels::KernelKind;
use dashmm_sim::{simulate, NetworkModel, SimConfig};
use dashmm_tree::Distribution;

const CORES_PER_LOCALITY: usize = 32;
const CORE_COUNTS: [usize; 8] = [32, 64, 128, 256, 512, 1024, 2048, 4096];

/// Final scaling efficiencies at 4096 cores reported by the paper (§V-A).
const PAPER_EFF: [(&str, f64); 4] = [
    ("cube laplace", 0.60),
    ("cube yukawa", 0.74),
    ("sphere laplace", 0.62),
    ("sphere yukawa", 0.69),
];

fn main() {
    let base = Opts::parse();
    banner(
        "Figure 3 — strong scaling t_n and speedup t_32/t_n (simulated cluster)",
        &format!(
            "n={} threshold={} network=Gemini-like coalesce={}",
            base.n, base.threshold, !base.no_coalesce
        ),
    );

    let configs = [
        (Distribution::Cube, KernelKind::Laplace, "cube laplace"),
        (Distribution::Cube, KernelKind::Yukawa(1.0), "cube yukawa"),
        (Distribution::Sphere, KernelKind::Laplace, "sphere laplace"),
        (
            Distribution::Sphere,
            KernelKind::Yukawa(1.0),
            "sphere yukawa",
        ),
    ];

    let mut net = NetworkModel::gemini();
    net.coalesce.enabled = !base.no_coalesce;

    let mut final_eff = Vec::new();
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for (dist, kernel, label) in configs {
        // Sphere data is denser locally; the paper correspondingly used a
        // smaller sphere problem (42 M vs 60 M).
        let n = if dist == Distribution::Sphere {
            base.n * 7 / 10
        } else {
            base.n
        };
        let opts = Opts {
            n,
            dist,
            kernel,
            ..base.clone()
        };
        eprintln!("[{label}] building DAG (n={n})…");
        let mut w = build_workload(&opts, 1);
        eprintln!("[{label}] preparing cost model…");
        let cost = cost_model(&opts, opts.cost);

        println!("\n### {label} (n={n})");
        println!(
            "{:>6}  {:>12}  {:>9}  {:>10}",
            "cores", "t_n [ms]", "speedup", "efficiency"
        );
        let mut t32 = 0.0;
        let mut last_eff = 0.0;
        for &cores in &CORE_COUNTS {
            let localities = cores / CORES_PER_LOCALITY;
            distribute(&w.problem, &mut w.asm, localities as u32);
            let cfg = SimConfig {
                localities,
                cores_per_locality: CORES_PER_LOCALITY,
                trace: false,
                levelwise: false,
            };
            let r = simulate(&w.asm.dag, &SchedPlan::flat(&w.asm.dag), &cost, &net, &cfg);
            if cores == 32 {
                t32 = r.makespan_us;
            }
            let speedup = t32 / r.makespan_us;
            let eff = speedup / (cores / 32) as f64;
            last_eff = eff;
            println!(
                "{:>6}  {:>12.2}  {:>9.2}  {:>9.1}%",
                cores,
                r.makespan_us / 1e3,
                speedup,
                eff * 100.0
            );
            csv_rows.push(vec![
                label.to_string(),
                cores.to_string(),
                format!("{:.3}", r.makespan_us / 1e3),
                format!("{:.4}", speedup),
                format!("{:.4}", eff),
            ]);
        }
        final_eff.push((label, last_eff));
    }
    let csv = std::path::Path::new("results/fig3_strong_scaling.csv");
    if write_csv(
        csv,
        &["config", "cores", "t_ms", "speedup", "efficiency"],
        csv_rows,
    )
    .is_ok()
    {
        eprintln!("wrote {}", csv.display());
    }

    println!("\n--- final efficiency at 4096 cores: this run vs paper ---");
    for ((label, eff), (plabel, peff)) in final_eff.iter().zip(PAPER_EFF.iter()) {
        assert_eq!(label, plabel);
        println!(
            "{label:<16} measured {:>5.1}%   paper {:>5.1}%",
            eff * 100.0,
            peff * 100.0
        );
    }
    println!("\n--- shape checks ---");
    let eff = |l: &str| final_eff.iter().find(|(x, _)| *x == l).unwrap().1;
    check(
        "Yukawa scales better than Laplace (heavier grain size)",
        eff("cube yukawa") > eff("cube laplace") && eff("sphere yukawa") > eff("sphere laplace"),
    );
    check(
        "scaling efficiency degrades by 4096 cores",
        final_eff.iter().all(|(_, e)| *e < 0.98),
    );
    check(
        "all configurations retain real speedup",
        final_eff.iter().all(|(_, e)| *e > 0.05),
    );
}

fn check(what: &str, ok: bool) {
    println!("[{}] {}", if ok { "ok" } else { "MISMATCH" }, what);
}

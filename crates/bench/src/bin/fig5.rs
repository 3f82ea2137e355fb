//! **Figure 5** — per-operator-class utilization fractions `f_k^{(i)}` for
//! the 128-core run, in the paper's three panels:
//!
//! * top: operations up the source tree (`S→M`, `M→M`),
//! * middle: operations bridging the trees (`M→I`, `I→I`, `I→L`),
//! * bottom: operations producing final values (`S→T`, `L→L`, `L→T`).
//!
//! The paper's finding this reproduces: with a priority-oblivious
//! scheduler, the small amount of critical up-sweep work is smeared across
//! most of the execution (up to ~83%), gating the final `L→L`/`L→T` burst
//! and causing the under-utilized window of Figure 4.
//!
//! Run: `cargo run --release -p dashmm-bench --bin fig5 [--n N]`

use dashmm_amt::{utilization_by_class, utilization_total};
use dashmm_bench::report::write_csv;
use dashmm_bench::{banner, build_workload, cost_model, distribute, Opts};
use dashmm_dag::{EdgeOp, SchedPlan};
use dashmm_sim::{simulate, NetworkModel, SimConfig};

const INTERVALS: usize = 100;

fn main() {
    let opts = Opts::parse();
    banner(
        "Figure 5 — per-class utilization fractions, 128-core run",
        &format!("workload: cube laplace n={} (paper: 30 M)", opts.n),
    );
    let mut w = build_workload(&opts, 4);
    let cost = cost_model(&opts, opts.cost);
    distribute(&w.problem, &mut w.asm, 4);
    let cfg = SimConfig {
        localities: 4,
        cores_per_locality: 32,
        trace: true,
        levelwise: false,
    };
    let r = simulate(
        &w.asm.dag,
        &SchedPlan::flat(&w.asm.dag),
        &cost,
        &NetworkModel::gemini(),
        &cfg,
    );
    let by = utilization_by_class(&r.trace, INTERVALS, EdgeOp::COUNT);
    let total = utilization_total(&r.trace, INTERVALS);

    let panels: [(&str, &[EdgeOp]); 3] = [
        ("up the source tree", &[EdgeOp::S2M, EdgeOp::M2M]),
        (
            "source tree → target tree",
            &[EdgeOp::M2I, EdgeOp::I2I, EdgeOp::I2L],
        ),
        (
            "final values at targets",
            &[EdgeOp::S2T, EdgeOp::L2L, EdgeOp::L2T],
        ),
    ];
    for (title, ops) in panels {
        println!("\n### {title}");
        print!("  k ");
        for o in ops {
            print!("  {:>8}", o.name());
        }
        println!();
        for k in 0..INTERVALS {
            print!("{k:>3} ");
            for o in ops {
                print!("  {:>8.4}", by[o.index()][k]);
            }
            println!();
        }
    }

    let csv = std::path::Path::new("results/fig5_by_class.csv");
    let mut header = vec!["interval".to_string()];
    for o in EdgeOp::ALL {
        header.push(o.name().to_string());
    }
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows = (0..INTERVALS).map(|k| {
        let mut row = vec![k.to_string()];
        for o in EdgeOp::ALL {
            row.push(format!("{:.6}", by[o.index()][k]));
        }
        row
    });
    if write_csv(csv, &header_refs, rows).is_ok() {
        eprintln!("wrote {}", csv.display());
    }

    // Machine-readable summary in the shared run_summary.json schema.
    {
        use dashmm_obs::json::{obj, Value};
        use dashmm_obs::summary::{
            per_op_section, per_op_stats, utilization_section, write_summary,
        };
        let mut counters = dashmm_obs::ClassCounters::default();
        r.trace.all_events().for_each(|e| counters.add(e));
        let summary = obj(vec![
            (
                "workload",
                obj(vec![
                    ("name", Value::from("fig5")),
                    ("n", Value::from(opts.n)),
                    ("cores", Value::from(128u64)),
                ]),
            ),
            ("utilization", utilization_section(&r.trace, INTERVALS)),
            ("per_op", per_op_section(&per_op_stats(&counters))),
        ]);
        let path = std::path::Path::new("results/fig5_run_summary.json");
        if write_summary(path, &summary).is_ok() {
            eprintln!("wrote {}", path.display());
        }
    }

    println!("\n--- shape checks ---");
    // 1. Up-sweep work is smeared late into the run under FIFO scheduling.
    let upsweep_last = last_active(&by[EdgeOp::S2M.index()], &by[EdgeOp::M2M.index()]);
    println!("up-sweep work still executing at {upsweep_last}% of the run");
    check(
        "up-sweep work persists past 40% of the run (paper: ~83%)",
        upsweep_last >= 40,
    );
    // 2. The up-sweep's absolute share is small.
    let up_total: f64 = (0..INTERVALS)
        .map(|k| by[EdgeOp::S2M.index()][k] + by[EdgeOp::M2M.index()][k])
        .sum();
    let all_total: f64 = total.iter().sum();
    println!(
        "up-sweep share of all work: {:.1}%",
        100.0 * up_total / all_total
    );
    check(
        "up-sweep is a small fraction of total work",
        up_total / all_total < 0.2,
    );
    // 3. The final L→L/L→T burst concentrates at the end.
    let l2t = &by[EdgeOp::L2T.index()];
    let late: f64 = l2t[INTERVALS * 3 / 4..].iter().sum();
    let early: f64 = l2t[..INTERVALS / 4].iter().sum();
    check(
        "L→T work concentrates in the last quarter of the run",
        late > early,
    );
    // 4. I→I holds a sustained plateau before the dip (latency well hidden).
    let i2i = &by[EdgeOp::I2I.index()];
    let mid: f64 = i2i[30..60].iter().sum::<f64>() / 30.0;
    check("I→I runs at a sustained utilization mid-run", mid > 0.01);
}

/// Last interval (as a percentage of the run) where either class is active.
fn last_active(a: &[f64], b: &[f64]) -> usize {
    let mut last = 0;
    for k in 0..a.len() {
        if a[k] > 1e-9 || b[k] > 1e-9 {
            last = k;
        }
    }
    last * 100 / a.len()
}

fn check(what: &str, ok: bool) {
    println!("[{}] {}", if ok { "ok" } else { "MISMATCH" }, what);
}

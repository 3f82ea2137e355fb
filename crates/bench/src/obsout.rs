//! The measured observability study shared by the harness binaries.
//!
//! With `--obs counters|full` a binary runs the workload on the *real*
//! runtime at the requested observability level and exports:
//!
//! * `results/<name>_trace.json` — Chrome Trace Event JSON (Perfetto /
//!   `chrome://tracing`), one track per worker (`--obs full` only),
//! * `results/<name>_run_summary.json` — the machine-readable run report
//!   (utilization Eq. 1–2, per-operator statistics, critical path, comm),
//! * a printed critical-path attribution over the executed DAG,
//! * a tracing-overhead self-check: interleaved best-of-N wall time at
//!   `--obs off` versus `--obs full`, gated by `--obs-gate PCT` in CI.

use std::path::PathBuf;

use dashmm_amt::ObsLevel;
use dashmm_core::{DashmmBuilder, EvalOutput, Method};
use dashmm_kernels::{Kernel, KernelKind, Laplace, Yukawa};
use dashmm_obs::json::{obj, Value};
use dashmm_obs::summary::{
    critical_path_section, per_op_section, per_op_stats, utilization_section, write_summary,
};
use dashmm_obs::{chrome_trace, critical_path, validate_chrome_trace};

use crate::Opts;

/// Intervals for the exported utilization section (paper: 100).
const INTERVALS: usize = 100;

/// Wall-time repetitions for the overhead self-check.
const OVERHEAD_REPS: usize = 3;

/// Run the observability study for `name` ("fig4", …) and return `false`
/// if the `--obs-gate` overhead threshold was exceeded (callers exit
/// nonzero).  No-op at `--obs off`.
pub fn obs_study(name: &str, opts: &Opts) -> bool {
    if !opts.obs.enabled() {
        return true;
    }
    match opts.kernel {
        KernelKind::Laplace => obs_study_k(name, opts, Laplace),
        KernelKind::Yukawa(lam) => obs_study_k(name, opts, Yukawa::new(lam)),
    }
}

fn obs_study_k<K: Kernel>(name: &str, opts: &Opts, kernel: K) -> bool {
    println!("\n--- observability (measured run, --obs {}) ---", opts.obs);
    let (sources, targets, charges) = opts.ensembles();
    let build = |obs: ObsLevel| {
        DashmmBuilder::new(kernel.clone())
            .method(Method::AdvancedFmm)
            .threshold(opts.threshold)
            .machine(1, opts.workers)
            .obs(obs)
            .build(&sources, &charges, &targets)
    };
    let eval = build(opts.obs);
    let out = eval.evaluate();
    println!(
        "n={} workers={}: {:.1} ms eval, {} tasks, {} span events ({} dropped)",
        opts.n,
        opts.workers,
        out.eval_ms,
        out.report.tasks,
        out.report.trace.all_events().count(),
        out.report.trace_dropped,
    );

    let stats = per_op_stats(&out.report.counters);
    let mut sections: Vec<(&str, Value)> = vec![
        (
            "workload",
            obj(vec![
                ("name", Value::from(name)),
                ("n", Value::from(opts.n)),
                ("kernel", Value::from(format!("{:?}", opts.kernel))),
                ("dist", Value::from(format!("{:?}", opts.dist))),
                ("threshold", Value::from(opts.threshold)),
                ("workers", Value::from(opts.workers)),
                ("obs", Value::from(opts.obs.to_string())),
            ]),
        ),
        (
            "run",
            obj(vec![
                ("eval_ms", Value::from(out.eval_ms)),
                ("tasks", Value::from(out.report.tasks)),
                ("messages", Value::from(out.report.messages)),
                ("bytes", Value::from(out.report.bytes)),
                ("trace_dropped", Value::from(out.report.trace_dropped)),
            ]),
        ),
        ("per_op", per_op_section(&stats)),
    ];

    if opts.obs.spans() {
        let trace_path = results_path(&format!("{name}_trace.json"));
        let json = chrome_trace(&out.report.trace);
        match validate_chrome_trace(&json) {
            Ok(st) => {
                if std::fs::write(&trace_path, &json).is_ok() {
                    println!(
                        "wrote {} ({} spans, {} tracks)",
                        trace_path.display(),
                        st.spans,
                        st.processes
                    );
                }
            }
            Err(e) => eprintln!("chrome trace failed validation: {e}"),
        }
        sections.push((
            "utilization",
            utilization_section(&out.report.trace, INTERVALS),
        ));
        match critical_path(eval.dag(), &out.report.trace) {
            Some(cp) => {
                print!("{}", cp.render());
                sections.push(("critical_path", critical_path_section(&cp)));
            }
            None => println!("critical path: no edge-tagged spans in trace"),
        }
    }

    let summary_path = results_path(&format!("{name}_run_summary.json"));
    let summary = obj(sections.into_iter().collect());
    match write_summary(&summary_path, &summary) {
        Ok(()) => println!("wrote {}", summary_path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", summary_path.display()),
    }

    if opts.obs.spans() {
        // Interleave off/full repetitions so slow clock drift (CPU
        // frequency, page cache, a shared-runner neighbour) hits both
        // sides equally, then compare best-of-N.
        let off_eval = build(ObsLevel::Off);
        let mut off_ms = f64::INFINITY;
        let mut full_ms = f64::INFINITY;
        let _ = (off_eval.evaluate(), eval.evaluate()); // warm-up pair
        for _ in 0..OVERHEAD_REPS {
            off_ms = off_ms.min(off_eval.evaluate().eval_ms);
            full_ms = full_ms.min(eval.evaluate().eval_ms);
        }
        overhead_check(opts, off_ms, full_ms)
    } else {
        true
    }
}

/// Compare full-tracing wall time against `--obs off`; enforce
/// `--obs-gate` when given.
fn overhead_check(opts: &Opts, off_ms: f64, full_ms: f64) -> bool {
    let overhead = (full_ms / off_ms - 1.0) * 100.0;
    println!(
        "tracing overhead: best-of-{OVERHEAD_REPS} {:.1} ms (off) vs {:.1} ms (full) = {overhead:+.1}%",
        off_ms, full_ms
    );
    match opts.obs_gate {
        Some(gate) if overhead > gate => {
            println!("[MISMATCH] full tracing overhead {overhead:.1}% exceeds gate {gate:.1}%");
            false
        }
        Some(gate) => {
            println!("[ok] full tracing overhead within the {gate:.1}% gate");
            true
        }
        None => true,
    }
}

/// A path under `results/`, creating the directory on demand.
fn results_path(file: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(file)
}

/// Side channel for binaries that already hold an [`EvalOutput`] (table2):
/// write the shared `run_summary.json` sections from it.
pub fn write_measured_summary(name: &str, opts: &Opts, out: &EvalOutput) {
    let stats = per_op_stats(&out.report.counters);
    let mut sections = vec![
        (
            "workload",
            obj(vec![
                ("name", Value::from(name)),
                ("n", Value::from(opts.n)),
                ("kernel", Value::from(format!("{:?}", opts.kernel))),
                ("threshold", Value::from(opts.threshold)),
            ]),
        ),
        ("per_op", per_op_section(&stats)),
    ];
    if !out.report.trace.is_empty() {
        sections.push((
            "utilization",
            utilization_section(&out.report.trace, INTERVALS),
        ));
    }
    let path = results_path(&format!("{name}_run_summary.json"));
    let summary = obj(sections);
    match write_summary(&path, &summary) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

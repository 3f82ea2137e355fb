//! `perf`: the end-to-end benchmark.  Measures with observability off.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use dashmm_perf::cli::{self, Cmd, RunAll, Single};
use dashmm_perf::json::{self, obj, Value};
use dashmm_perf::probe::NoProbe;
use dashmm_perf::workloads::{self, RunOpts, SPECS};
use dashmm_perf::{api, diff, host, report};

/// Prefix of the line that carries a run's full record to `perf run`.
const DETAIL: &str = "detail ";

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match cli::parse(&args) {
        Ok(Cmd::Single(single)) => run_single(&single, started),
        Ok(Cmd::Run(all)) => run_all(&all),
        Ok(Cmd::Diff(a, b)) => run_diff(&a, &b),
        Ok(Cmd::List) => {
            for s in &SPECS {
                println!("{:<24} {}", s.name, s.why);
            }
            0
        }
        Ok(Cmd::Manifest) => {
            print!("{}", report::manifest().to_pretty());
            0
        }
        Err(why) => {
            eprintln!("error: {why}\n{}", cli::USAGE);
            2
        }
    };
    std::process::exit(code);
}

fn run_single(single: &Single, started: Instant) -> i32 {
    if single.trace {
        eprintln!(
            "error: per-layer metrics come from the perf-layers binary (perf/run.sh picks it)"
        );
        return 2;
    }
    let Some(spec) = workloads::spec(&single.workload) else {
        eprintln!(
            "error: unknown workload {}; try `perf list`",
            single.workload
        );
        return 2;
    };
    let scaled = single.scale < 1.0;
    let opts = RunOpts {
        seed: single.seed,
        seconds: single.seconds * single.scale,
        scale: single.scale,
        setups: if scaled { 1 } else { cli::SETUPS },
        out_dir: cli::out_dir(),
        started,
    };
    let out = workloads::run(spec, &opts, &NoProbe);
    let metrics = report::end_to_end(spec, &out);
    report::print_human(spec, single.seed, scaled, &out, &metrics);
    let record = report::run_record(spec, single.seed, scaled, &out, &metrics);
    println!("{DETAIL}{}", record.to_line());
    println!("{}", report::contract_line(&out, &metrics));
    if out.correct() {
        0
    } else {
        1
    }
}

/// One child process per workload and seed, so that each run's memory peak
/// is its own; their records go into one result file.
fn run_all(all: &RunAll) -> i32 {
    let t0 = Instant::now();
    let loadavg_start = host::loadavg();
    let names: Vec<&str> = if all.workloads.is_empty() {
        SPECS.iter().map(|s| s.name).collect()
    } else {
        all.workloads.iter().map(String::as_str).collect()
    };
    let exe = std::env::current_exe().expect("own path");
    let mut runs = Vec::new();
    let mut failed = 0;
    for repeat in 0..all.repeat {
        for name in &names {
            let seed = all.seed + repeat;
            let mut child = Command::new(&exe)
                .args(["--workload", name, "--trace", "0"])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &all.seconds.to_string()])
                .args(["--scale", &all.scale.to_string()])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a run");
            let mut record = None;
            let mut last = String::new();
            for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
                let line = line.expect("read a run's output");
                match line.strip_prefix(DETAIL) {
                    Some(detail) => record = json::parse(detail).ok(),
                    None => {
                        if !last.is_empty() {
                            println!("{last}");
                        }
                        last = line;
                    }
                }
            }
            let status = child.wait().expect("wait for a run");
            if !status.success() || record.is_none() {
                failed += 1;
            }
            match record {
                Some(r) => runs.push(r),
                None => eprintln!("error: {name} seed {seed} produced no record ({status})"),
            }
        }
    }
    let file = obj(vec![
        ("schema", "perf-results-1".into()),
        ("label", all.label.as_str().into()),
        ("run_seconds", all.seconds.into()),
        ("scaled", (all.scale < 1.0).into()),
        (
            "host",
            host::fingerprint(loadavg_start, api::kernel_flags()),
        ),
        ("runs", Value::Arr(runs)),
    ]);
    let path = all
        .out
        .clone()
        .unwrap_or_else(|| cli::out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, file.to_pretty()) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return 1;
    }
    println!(
        "wrote {} ({} runs, {failed} failed) in {:.1} s",
        path.display(),
        names.len() as u64 * all.repeat,
        t0.elapsed().as_secs_f64()
    );
    if host::is_noisy(loadavg_start, host::nproc()) {
        println!("note: load average {loadavg_start} at start: results flagged noisy");
    }
    i32::from(failed > 0)
}

fn run_diff(a: &std::path::Path, b: &std::path::Path) -> i32 {
    let read = |p: &std::path::Path| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    match read(a).and_then(|a| read(b).and_then(|b| diff::compare(&a, &b))) {
        Ok(rows) => {
            diff::print(&rows);
            i32::from(rows.iter().any(|r| r.verdict == diff::Verdict::Outside))
        }
        Err(why) => {
            eprintln!("error: {why}");
            2
        }
    }
}

//! Tests of the benchmark itself: that it matches `BENCHMARK.json`, keeps
//! to its seam, runs every workload clean at a small scale, and turns a hung
//! launch into failed operations.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

use dashmm_perf::json::{self, Value};
use dashmm_perf::report;
use dashmm_perf::workloads::{per_layer, SPECS};

fn perf_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch directory of this test's own under the build directory.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

fn run(bin: &str, args: &[&str], out_dir: &Path, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args).env("PERF_OUT_DIR", out_dir);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run the benchmark binary")
}

fn last_line_json(out: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("some output");
    json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"))
}

#[test]
fn benchmark_json_is_what_the_code_measures() {
    let path = perf_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        report::manifest(),
        "regenerate with `perf manifest > BENCHMARK.json`"
    );
    let bounds: Vec<f64> = on_disk
        .get("end_to_end")
        .unwrap()
        .as_arr()
        .iter()
        .map(|m| m.get("bound").unwrap().as_f64().unwrap())
        .collect();
    assert!(bounds.iter().all(|b| *b > 0.0 && *b <= 0.25));
}

/// Every mention of the program's crates in Rust source: the body of each
/// `use dashmm...;` and each `dashmm...::path` elsewhere in code, spaces and
/// trailing commas removed.
fn program_mentions(text: &str) -> Vec<String> {
    let code: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join(" ");
    let mut mentions = Vec::new();
    for statement in code.split(';') {
        let st: String = statement.split_whitespace().collect::<Vec<_>>().join(" ");
        if let Some(used) = st.strip_prefix("use ") {
            if used.starts_with("dashmm") && !used.starts_with("dashmm_perf") {
                mentions.push(used.replace(' ', "").replace(",}", "}"));
            }
            continue;
        }
        for (i, _) in st.match_indices("dashmm") {
            let path: String = st[i..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == ':')
                .collect();
            if !path.starts_with("dashmm_perf") {
                mentions.push(path);
            }
        }
    }
    mentions
}

#[test]
fn only_the_seam_names_the_program() {
    // The end-to-end binary may name these and nothing else of the program.
    let allowed = [
        "dashmm::kernels::{direct_sum_at,Laplace,Yukawa}",
        "dashmm::tree::{BuildParams,Domain,Point3}",
        "dashmm::{DashmmBuilder,Evaluation,Method,ResidentConfig,ResidentFmm}",
        "dashmm_net::{bootstrap,EvalClient,EvalServer,RespStatus,Role,ServiceConfig,SocketTransport}",
        "dashmm_refit::{ChargeUpdate,Displacement}",
        // The host fingerprint's two flags.
        "dashmm::linalg::fma_kernel_active",
        "dashmm::kernels::simd_kernels_active",
    ];
    for entry in std::fs::read_dir(perf_dir().join("src")).expect("perf/src") {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        for banned in ["dashmm_sim", "dashmm_bench", "criterion", "::metrics::"] {
            assert!(!text.contains(banned), "{name} mentions {banned}");
        }
        // Only the traced binary's two files may go deeper.
        if name == "layers_api.rs" || name == "main_layers.rs" {
            continue;
        }
        let mentions = program_mentions(&text);
        if name == "api.rs" {
            for m in &mentions {
                assert!(
                    allowed.contains(&m.as_str()),
                    "api.rs names `{m}`, outside the seam"
                );
            }
            assert_eq!(mentions.len(), allowed.len(), "{mentions:?}");
        } else {
            assert!(
                mentions.is_empty(),
                "{name} names the program: {mentions:?}"
            );
        }
    }
}

#[test]
fn every_workload_runs_clean_at_a_small_scale() {
    let dir = scratch("suite");
    let results = dir.join("results.json");
    let out = run(
        env!("CARGO_BIN_EXE_perf"),
        &[
            "run",
            "--all",
            "--scale",
            "0.02",
            "--out",
            results.to_str().unwrap(),
        ],
        &dir,
        &[],
    );
    assert!(
        out.status.success(),
        "perf run failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let file = json::parse(&std::fs::read_to_string(&results).unwrap()).unwrap();
    assert_eq!(file.get("scaled").unwrap().as_bool(), Some(true));
    assert!(file.get("host").unwrap().get("cpu_model").is_some());
    let runs = file.get("runs").unwrap().as_arr();
    assert_eq!(runs.len(), SPECS.len());
    for (run, spec) in runs.iter().zip(&SPECS) {
        assert_eq!(run.get("workload").unwrap().as_str(), Some(spec.name));
        assert_eq!(
            run.get("ops_failed").unwrap().as_f64(),
            Some(0.0),
            "{}",
            spec.name
        );
        assert!(run.get("ops_attempted").unwrap().as_f64().unwrap() >= 4.0);
        for metric in ["setup_s", "op_s", "op_tail_s", "peak_rss_mb"] {
            let v = run
                .get("metrics")
                .unwrap()
                .get(metric)
                .unwrap()
                .get("value")
                .unwrap();
            assert!(v.as_f64().unwrap() > 0.0, "{}: {metric}", spec.name);
        }
    }
    // Scaled results are refused by diff.
    let diff = run_diff(&results, &results);
    assert_eq!(diff.status.code(), Some(2));
}

fn run_diff(a: &Path, b: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("run perf diff")
}

#[test]
fn the_committed_ledger_pair_agrees_within_bounds() {
    let ledger = perf_dir().join("ledger");
    let out = run_diff(&ledger.join("pr11.a.json"), &ledger.join("pr11.b.json"));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "perf diff:\n{text}");
    assert!(!text.contains("unresolved:"), "perf diff:\n{text}");
    assert!(
        text.contains("0 outside, 0 unresolved"),
        "perf diff:\n{text}"
    );
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    let dir = scratch("traced");
    for spec in &SPECS {
        let out = run(
            env!("CARGO_BIN_EXE_perf-layers"),
            &["trace", "--workload", spec.name, "--scale", "0.02"],
            &dir,
            &[],
        );
        assert!(
            out.status.success(),
            "{}:\n{}\n{}",
            spec.name,
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line_json(&out);
        assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
        let metrics = line.get("metrics").unwrap().as_obj();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let want = per_layer();
        assert_eq!(
            names,
            want.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
        for ((_, m), (name, unit)) in metrics.iter().zip(&want) {
            assert_eq!(m.get("unit").unwrap().as_str(), Some(*unit), "{name}");
            assert!(
                m.get("value").unwrap().as_f64().is_some(),
                "{}: {name}",
                spec.name
            );
        }
        let value = |name: &str| {
            line.get("metrics")
                .unwrap()
                .get(name)
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        // Measured in every traced run, whatever the workload.
        for always in [
            "traced.op_s",
            "traced.setup_s",
            "amt.empty_dag_task_ns",
            "linalg.gemm_gflops",
            "net.svc.rtt_floor_s",
        ] {
            assert!(value(always) > 0.0, "{}: {always}", spec.name);
        }
        let trace = std::fs::read_to_string(dir.join(format!("{}.trace.json", spec.name))).unwrap();
        let trace = json::parse(&trace).unwrap();
        assert!(!trace.get("spans").unwrap().as_arr().is_empty());
        assert!(trace
            .get("layers")
            .unwrap()
            .get("linalg.gemm_flops_per_call")
            .is_some());
    }
}

#[test]
fn a_hung_launch_becomes_failed_operations() {
    let dir = scratch("hang");
    let t0 = Instant::now();
    let out = run(
        env!("CARGO_BIN_EXE_perf"),
        &["--workload", "dist-cube-20k-2rank", "--scale", "0.02"],
        &dir,
        &[("PERF_TEST_HANG", "1"), ("DASHMM_NET_TIMEOUT_SECS", "3")],
    );
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "the watchdog did not fire"
    );
    assert_eq!(out.status.code(), Some(1));
    let line = last_line_json(&out);
    assert_eq!(line.get("correct").unwrap().as_bool(), Some(false));
    assert!(line.get("failed").unwrap().as_f64().unwrap() >= 1.0);
    // Nothing of the launch is left behind.
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none());
}

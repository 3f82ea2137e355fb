//! Batched vs per-edge operator microbenchmark → `BENCH_operators.json`.
//!
//! Measures every batched expansion operator (M2L, M2M, L2L, M2I, I2I, I2L) for
//! Laplace and Yukawa against the per-edge loop the runtime used to run,
//! plus the particle-class operators (S2T, S2M, L2T) as scalar per-pair
//! replicas vs the kernel rows, prints a table, and writes the
//! machine-readable JSON artifact.
//!
//! Gates (each exits non-zero on failure):
//! - `--min-m2l-speedup X`: every M2L case must reach `X`× batched speedup.
//! - `--min-m2i-speedup X` / `--min-i2l-speedup X`: likewise for the stacked
//!   plane-wave operators; they lean on the register-tiled GEMM, so they
//!   self-skip without AVX2+FMA like the particle gates.
//! - `--min-p2p-speedup X`: every S2T case must reach `X`×.
//! - `--min-s2m-speedup X` / `--min-l2t-speedup X`: likewise for S2M/L2T.
//!
//! The particle gates compare the vectorized (AVX2+FMA) kernel path
//! against scalar per-pair evaluation, so on hardware without those
//! features they are skipped with a notice instead of failing — the
//! batched path degenerates to the same scalar loop there.
//!
//! `DASHMM_BENCH_FAST=1` shrinks the repetition count for smoke runs.

use std::path::PathBuf;

use dashmm_bench::{banner, opbench};

struct Args {
    edges: usize,
    leaf: usize,
    out: PathBuf,
    min_m2l_speedup: Option<f64>,
    min_m2i_speedup: Option<f64>,
    min_i2l_speedup: Option<f64>,
    min_p2p_speedup: Option<f64>,
    min_s2m_speedup: Option<f64>,
    min_l2t_speedup: Option<f64>,
}

fn parse_args() -> Args {
    let mut a = Args {
        edges: 1024,
        leaf: 60,
        out: PathBuf::from("BENCH_operators.json"),
        min_m2l_speedup: None,
        min_m2i_speedup: None,
        min_i2l_speedup: None,
        min_p2p_speedup: None,
        min_s2m_speedup: None,
        min_l2t_speedup: None,
    };
    let argv: Vec<String> = std::env::args().collect();
    let usage = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: {} [--edges N] [--leaf N] [--out PATH] [--min-m2l-speedup X] \
             [--min-m2i-speedup X] [--min-i2l-speedup X] \
             [--min-p2p-speedup X] [--min-s2m-speedup X] [--min-l2t-speedup X]",
            argv.first()
                .map(String::as_str)
                .unwrap_or("bench_operators")
        );
        std::process::exit(2);
    };
    let mut i = 1;
    while i < argv.len() {
        let value = |flag: &str| -> &str {
            match argv.get(i + 1) {
                Some(v) => v,
                None => usage(&format!("{flag} expects a value")),
            }
        };
        let parse_f64 = |flag: &str| -> f64 {
            value(flag)
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag} expects a number")))
        };
        match argv[i].as_str() {
            "--edges" => {
                a.edges = value("--edges")
                    .parse()
                    .unwrap_or_else(|_| usage("--edges expects an integer"));
                i += 2;
            }
            "--leaf" => {
                a.leaf = value("--leaf")
                    .parse()
                    .unwrap_or_else(|_| usage("--leaf expects an integer"));
                i += 2;
            }
            "--out" => {
                a.out = PathBuf::from(value("--out"));
                i += 2;
            }
            "--min-m2l-speedup" => {
                a.min_m2l_speedup = Some(parse_f64("--min-m2l-speedup"));
                i += 2;
            }
            "--min-m2i-speedup" => {
                a.min_m2i_speedup = Some(parse_f64("--min-m2i-speedup"));
                i += 2;
            }
            "--min-i2l-speedup" => {
                a.min_i2l_speedup = Some(parse_f64("--min-i2l-speedup"));
                i += 2;
            }
            "--min-p2p-speedup" => {
                a.min_p2p_speedup = Some(parse_f64("--min-p2p-speedup"));
                i += 2;
            }
            "--min-s2m-speedup" => {
                a.min_s2m_speedup = Some(parse_f64("--min-s2m-speedup"));
                i += 2;
            }
            "--min-l2t-speedup" => {
                a.min_l2t_speedup = Some(parse_f64("--min-l2t-speedup"));
                i += 2;
            }
            other => usage(&format!("unknown option {other}")),
        }
    }
    a
}

fn main() {
    let args = parse_args();
    let fast = std::env::var("DASHMM_BENCH_FAST").is_ok_and(|v| v == "1");
    let reps = opbench::default_reps();
    let simd = dashmm_kernels::simd_kernels_active();
    banner(
        "Operator hot paths: per-edge loops vs batched GEMM + SoA particle engine",
        &format!(
            "edges={} leaf={} reps={} fast_mode={} simd_kernels={}",
            args.edges, args.leaf, reps, fast, simd
        ),
    );

    let cases = opbench::run_all(args.edges, reps);
    let particle = opbench::particle_run_all(args.leaf, reps);

    println!(
        "{:<10} {:<10} {:>8} {:>14} {:>14} {:>9}",
        "op", "kernel", "edges", "per-edge ns", "batched ns", "speedup"
    );
    for c in &cases {
        println!(
            "{:<10} {:<10} {:>8} {:>14.1} {:>14.1} {:>8.2}x",
            c.op,
            c.kernel,
            c.edges,
            c.per_edge_ns,
            c.batched_ns,
            c.speedup()
        );
    }
    println!();
    println!(
        "{:<10} {:<10} {:>8} {:>14} {:>14} {:>12} {:>9}",
        "op", "kernel", "pairs", "scalar ns", "batched ns", "per-pair ns", "speedup"
    );
    for c in &particle {
        println!(
            "{:<10} {:<10} {:>8} {:>14.1} {:>14.1} {:>12.3} {:>8.2}x",
            c.op,
            c.kernel,
            c.pairs,
            c.scalar_ns,
            c.batched_ns,
            c.per_pair_ns(),
            c.speedup()
        );
    }

    opbench::write_json(&args.out, &cases, &particle, args.edges, args.leaf, fast)
        .expect("write BENCH_operators.json");
    println!("\nwrote {}", args.out.display());

    let mut failed = false;
    // The stacked plane-wave operators lean on the register-tiled GEMM
    // (the portable fallback is the per-edge loop); M2L is gated anywhere.
    for (flag, op, needs_fma) in [
        (args.min_m2l_speedup, "M2L", false),
        (args.min_m2i_speedup, "M2I", true),
        (args.min_i2l_speedup, "I2L", true),
    ] {
        let Some(min) = flag else { continue };
        if needs_fma && !dashmm_linalg::fma_kernel_active() {
            println!(
                "GATE SKIP: {op} speedup gate skipped — register-tiled GEMM \
                 unavailable on this host (no AVX2+FMA)"
            );
            continue;
        }
        for c in cases.iter().filter(|c| c.op == op) {
            if c.speedup() < min {
                eprintln!(
                    "GATE FAIL: {}/{} batched speedup {:.2}x below required {:.2}x",
                    c.op,
                    c.kernel,
                    c.speedup(),
                    min
                );
                failed = true;
            } else {
                println!(
                    "GATE OK:   {}/{} batched speedup {:.2}x >= {:.2}x",
                    c.op,
                    c.kernel,
                    c.speedup(),
                    min
                );
            }
        }
    }
    // Particle gates measure the vectorized kernel path; without AVX2+FMA
    // the batched path is the same scalar loop, so skip with a notice.
    for (flag, op) in [
        (args.min_p2p_speedup, "S2T"),
        (args.min_s2m_speedup, "S2M"),
        (args.min_l2t_speedup, "L2T"),
    ] {
        let Some(min) = flag else { continue };
        if !simd {
            println!(
                "GATE SKIP: {op} speedup gate skipped — vectorized kernels \
                 unavailable on this host (no AVX2+FMA)"
            );
            continue;
        }
        for c in particle.iter().filter(|c| c.op == op) {
            if c.speedup() < min {
                eprintln!(
                    "GATE FAIL: {}/{} SoA speedup {:.2}x below required {:.2}x",
                    c.op,
                    c.kernel,
                    c.speedup(),
                    min
                );
                failed = true;
            } else {
                println!(
                    "GATE OK:   {}/{} SoA speedup {:.2}x >= {:.2}x",
                    c.op,
                    c.kernel,
                    c.speedup(),
                    min
                );
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

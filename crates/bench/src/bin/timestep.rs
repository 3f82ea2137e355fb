//! `timestep` — drive the incremental stepping engine through a leapfrog
//! drift and gate on correctness *and* step cost → `BENCH_timestep.json`.
//!
//! Step 1 builds the resident engine from scratch (that build time is the
//! baseline every later step is compared against).  Each following step
//! kicks a deterministic `--move-frac` subset of the sources along
//! per-point velocities (magnitude `--vel` in units of the domain side,
//! reflecting off the domain walls so the fixed domain stays valid),
//! flips a sprinkling of charges, and calls `ResidentFmm::step`.  Every
//! stepped state is verified against a from-scratch
//! `ResidentFmm::build_in_domain` over the same domain at `--probes`
//! random targets.
//!
//! Gates (each exits non-zero):
//! - any step's max relative error vs the rebuild over `--rel-err`
//!   (default 1e-12; a step equals a rebuild bitwise, so CI passes 0),
//! - mean cost of steps 2..N over `--gate-ratio` × the step-1 build time
//!   (default 0.5 — an incremental step must beat half a rebuild).
//!
//! ```text
//! timestep [--n N] [--steps S] [--move-frac F] [--vel V] [--seed S]
//!          [--theta X] [--threshold T] [--probes P] [--gate-ratio R]
//!          [--rel-err E] [--no-verify] [--out PATH]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use dashmm_core::{ResidentConfig, ResidentFmm};
use dashmm_kernels::Laplace;
use dashmm_obs::json::{obj, Value};
use dashmm_obs::refit::{refit_section, StepObs};
use dashmm_obs::summary::write_summary;
use dashmm_obs::LogHistogram;
use dashmm_refit::{ChargeUpdate, Displacement};
use dashmm_tree::{uniform_cube, BuildParams, Domain, Point3};
use rand::distributions::{Distribution as _, Uniform};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    n: usize,
    steps: u32,
    move_frac: f64,
    vel: f64,
    seed: u64,
    theta: f64,
    threshold: usize,
    probes: usize,
    gate_ratio: f64,
    rel_err: f64,
    verify: bool,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut a = Args {
        n: 20_000,
        steps: 8,
        move_frac: 0.05,
        vel: 0.002,
        seed: 42,
        theta: 0.5,
        threshold: 60,
        probes: 64,
        gate_ratio: 0.5,
        rel_err: 1e-12,
        verify: true,
        out: PathBuf::from("BENCH_timestep.json"),
    };
    let argv: Vec<String> = std::env::args().collect();
    let usage = |msg: &str| -> ! {
        eprintln!("error: {msg}");
        eprintln!(
            "usage: {} [--n N] [--steps S] [--move-frac F] [--vel V] [--seed S] \
             [--theta X] [--threshold T] [--probes P] [--gate-ratio R] \
             [--rel-err E] [--no-verify] [--out PATH]",
            argv.first().map(String::as_str).unwrap_or("timestep")
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
        macro_rules! num {
            ($flag:expr) => {
                value($flag)
                    .parse()
                    .unwrap_or_else(|_| usage(concat!($flag, " expects a number")))
            };
        }
        match argv[i].as_str() {
            "--n" => a.n = num!("--n"),
            "--steps" => a.steps = num!("--steps"),
            "--move-frac" => a.move_frac = num!("--move-frac"),
            "--vel" => a.vel = num!("--vel"),
            "--seed" => a.seed = num!("--seed"),
            "--theta" => a.theta = num!("--theta"),
            "--threshold" => a.threshold = num!("--threshold"),
            "--probes" => a.probes = num!("--probes"),
            "--gate-ratio" => a.gate_ratio = num!("--gate-ratio"),
            "--rel-err" => a.rel_err = num!("--rel-err"),
            "--out" => a.out = PathBuf::from(value("--out")),
            "--no-verify" => {
                a.verify = false;
                i += 1;
                continue;
            }
            other => usage(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    if a.n == 0 || a.steps == 0 {
        usage("--n and --steps must be positive");
    }
    if !(0.0..=1.0).contains(&a.move_frac) {
        usage("--move-frac must be in [0, 1]");
    }
    a
}

fn resident_cfg(args: &Args) -> ResidentConfig {
    ResidentConfig {
        theta: args.theta,
        build: BuildParams {
            threshold: args.threshold,
            ..BuildParams::default()
        },
        ..ResidentConfig::default()
    }
}

/// Max relative error of the stepped engine vs a from-scratch rebuild in
/// the same domain, over the probe targets.
fn verify_against_rebuild(engine: &ResidentFmm<Laplace>, args: &Args, probes: &[[f64; 3]]) -> f64 {
    let fresh = ResidentFmm::build_in_domain(
        Laplace,
        &engine.current_sources(),
        &engine.current_charges(),
        resident_cfg(args),
        *engine.domain(),
    );
    let mut got = vec![0.0; probes.len()];
    let mut want = vec![0.0; probes.len()];
    engine.evaluate(probes, &mut got);
    fresh.evaluate(probes, &mut want);
    got.iter()
        .zip(&want)
        .map(|(g, w)| (g - w).abs() / w.abs().max(1.0))
        .fold(0.0, f64::max)
}

fn main() {
    let args = parse_args();

    let sources = uniform_cube(args.n, args.seed);
    let charges: Vec<f64> = (0..args.n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    // Fixed padded domain: the drift reflects off its walls, so every
    // refit and every verification rebuild bins into the same grid.
    let domain = Domain::containing(&[&sources], 0.05);

    // Deterministic per-point velocities, |v| ~ vel × side per step.
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x7665_6c6f);
    let u = Uniform::new_inclusive(-1.0, 1.0);
    let speed = args.vel * domain.side();
    let mut vel: Vec<[f64; 3]> = (0..args.n)
        .map(|_| {
            let v = [u.sample(&mut rng), u.sample(&mut rng), u.sample(&mut rng)];
            let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt().max(1e-12);
            [
                v[0] / norm * speed,
                v[1] / norm * speed,
                v[2] / norm * speed,
            ]
        })
        .collect();
    let mut pos = sources.clone();
    let probes = uniform_cube(args.probes.max(1), args.seed ^ 0x7072_6f62)
        .iter()
        .map(|p| [p.x, p.y, p.z])
        .collect::<Vec<_>>();

    eprintln!(
        "timestep: building resident engine ({} points, theta {}, threshold {})",
        args.n, args.theta, args.threshold
    );
    let t0 = Instant::now();
    let mut engine =
        ResidentFmm::build_in_domain(Laplace, &sources, &charges, resident_cfg(&args), domain);
    let step1_us = t0.elapsed().as_secs_f64() * 1e6;
    eprintln!(
        "timestep: step 1 (build) {:.0}us, {} boxes, depth {}",
        step1_us,
        engine.num_nodes(),
        engine.depth()
    );
    let mut rows = vec![StepObs {
        step: 1,
        total_us: step1_us,
        dirty_fraction: 1.0,
        verify_rel_err: f64::NAN,
        ..StepObs::default()
    }];

    // Every `stride`-th point moves each step, with the active subset
    // rotating so all points eventually drift.
    let stride = if args.move_frac > 0.0 {
        ((1.0 / args.move_frac).round() as usize).max(1)
    } else {
        usize::MAX
    };
    let lo = domain.center() - Point3::new(domain.half(), domain.half(), domain.half());
    let hi = domain.center() + Point3::new(domain.half(), domain.half(), domain.half());

    // Streaming per-phase histograms over steps 2..N (step 1 is a full
    // build, a different regime, and would skew every percentile).
    let hist_refit = LogHistogram::new();
    let hist_recompute = LogHistogram::new();
    let hist_total = LogHistogram::new();
    let mut reused_total = 0u64;
    let mut recomputed_total = 0u64;

    let mut worst: Option<String> = None;
    for step in 2..=args.steps {
        // Leapfrog drift of the active subset, reflecting at the walls.
        let mut moves: Vec<Displacement> = Vec::new();
        if stride != usize::MAX {
            for i in ((step as usize - 2) % stride..args.n).step_by(stride) {
                let v = &mut vel[i];
                let p = &mut pos[i];
                let mut delta = [0.0; 3];
                let (lo, hi) = ([lo.x, lo.y, lo.z], [hi.x, hi.y, hi.z]);
                let cur = [p.x, p.y, p.z];
                for ax in 0..3 {
                    let mut next = cur[ax] + v[ax];
                    if next < lo[ax] || next > hi[ax] {
                        v[ax] = -v[ax];
                        next = (cur[ax] + v[ax]).clamp(lo[ax], hi[ax]);
                    }
                    delta[ax] = next - cur[ax];
                }
                p.x += delta[0];
                p.y += delta[1];
                p.z += delta[2];
                moves.push(Displacement {
                    index: i as u32,
                    delta,
                });
            }
        }
        // Flip a sprinkling of charges, rotating with the step.
        let updates: Vec<ChargeUpdate> = (((step as usize) * 37) % 101..args.n)
            .step_by(101)
            .map(|i| ChargeUpdate {
                index: i as u32,
                charge: if (i + step as usize).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                },
            })
            .collect();

        let t = Instant::now();
        let report = engine.step(&moves, &updates);
        let total_us = t.elapsed().as_secs_f64() * 1e6;
        hist_refit.record_us(report.refit_us);
        hist_recompute.record_us(report.recompute_us);
        hist_total.record_us(total_us);
        reused_total += report.reused_expansions as u64;
        recomputed_total += report.dirty_boxes as u64;

        let verify_rel_err = if args.verify {
            let e = verify_against_rebuild(&engine, &args, &probes);
            if e > args.rel_err && worst.is_none() {
                worst = Some(format!(
                    "step {step}: rel err {e:.3e} over the {:.1e} bound",
                    args.rel_err
                ));
            }
            e
        } else {
            f64::NAN
        };

        eprintln!(
            "timestep: step {step} {:.0}us (refit {:.0} recompute {:.0}) \
             dirty {:.1}% reused {} expansions{}",
            total_us,
            report.refit_us,
            report.recompute_us,
            report.dirty_fraction() * 100.0,
            report.reused_expansions,
            if args.verify {
                format!(" err {verify_rel_err:.1e}")
            } else {
                String::new()
            }
        );
        rows.push(StepObs {
            step,
            refit_us: report.refit_us,
            recompute_us: report.recompute_us,
            total_us,
            dirty_fraction: report.dirty_fraction(),
            moved: report.refit.moved as u64,
            rebinned: report.refit.rebinned as u64,
            splits: report.refit.splits as u64,
            merges: report.refit.merges as u64,
            recomputed_expansions: report.dirty_boxes as u64,
            reused_expansions: report.reused_expansions as u64,
            verify_rel_err,
        });
    }

    let section = refit_section(&rows);
    let mean_step_us = section
        .get("mean_step_us")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let ratio = section
        .get("mean_step_over_step1")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let max_err = section
        .get("max_verify_rel_err")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);

    println!("== incremental time-stepping ==");
    println!(
        "step 1 (build): {:.0}us; mean step 2..{}: {:.0}us (ratio {:.3}, gate {})",
        step1_us, args.steps, mean_step_us, ratio, args.gate_ratio
    );
    if args.verify {
        println!("max rel err vs rebuild: {max_err:.3e}");
    }

    let summary = obj(vec![
        (
            "params",
            obj(vec![
                ("n", Value::from(args.n)),
                ("steps", Value::from(u64::from(args.steps))),
                ("move_frac", Value::from(args.move_frac)),
                ("vel", Value::from(args.vel)),
                ("seed", Value::from(args.seed)),
                ("theta", Value::from(args.theta)),
                ("threshold", Value::from(args.threshold)),
                ("probes", Value::from(args.probes)),
                ("gate_ratio", Value::from(args.gate_ratio)),
                ("verified", Value::from(args.verify)),
            ]),
        ),
        ("timestep", section),
        (
            "telemetry",
            obj(vec![
                (
                    "step_phases",
                    obj(vec![
                        ("refit_us", hist_refit.snapshot().to_json()),
                        ("recompute_us", hist_recompute.snapshot().to_json()),
                        ("total_us", hist_total.snapshot().to_json()),
                    ]),
                ),
                ("reused_expansions", Value::from(reused_total)),
                ("recomputed_expansions", Value::from(recomputed_total)),
                (
                    "reuse_ratio",
                    Value::from(if reused_total + recomputed_total > 0 {
                        reused_total as f64 / (reused_total + recomputed_total) as f64
                    } else {
                        0.0
                    }),
                ),
            ]),
        ),
    ]);
    if let Err(e) = write_summary(&args.out, &summary) {
        eprintln!("timestep: failed to write {}: {e}", args.out.display());
        std::process::exit(1);
    }
    eprintln!("timestep: wrote {}", args.out.display());

    let mut failed = false;
    if let Some(w) = worst {
        eprintln!("FAIL: {w}");
        failed = true;
    }
    if args.steps > 1 && mean_step_us > args.gate_ratio * step1_us {
        eprintln!(
            "FAIL: mean step cost {mean_step_us:.0}us over {} x step-1 {step1_us:.0}us",
            args.gate_ratio
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}

//! The iterative use case (paper §IV): "the FMM is widely used in an
//! iterative procedure where the same DAG is evaluated multiple times for
//! different inputs.  In this use case, the cost of any initial setup can
//! be amortized over the many evaluations."
//!
//! This example runs a damped self-consistency loop: charges are relaxed
//! toward a target potential profile, re-evaluating with
//! `evaluate_with_charges` each sweep — trees, interaction lists, operator
//! tables, the explicit DAG, its distribution and its LCO network are all
//! built once.
//!
//! Run: `cargo run --release --example iterative_field`

use dashmm::kernels::Yukawa;
use dashmm::tree::uniform_cube;
use dashmm::{DashmmBuilder, Method};
use std::time::Instant;

fn main() {
    let n = 8_000;
    let points = uniform_cube(n, 77);
    let mut charges = vec![1.0; n];

    let t0 = Instant::now();
    let eval = DashmmBuilder::new(Yukawa::new(1.0))
        .method(Method::AdvancedFmm)
        .threshold(60)
        .machine(1, 2)
        .build(&points, &charges, &points);
    let setup_ms = t0.elapsed().as_secs_f64() * 1e3;
    println!("setup (trees + tables + DAG): {setup_ms:.1} ms");

    // Relax charges so every point's potential approaches the mean —
    // a toy counterion-equilibration sweep.
    let mut eval_ms_total = 0.0;
    for sweep in 0..6 {
        let out = eval.evaluate_with_charges(&charges);
        eval_ms_total += out.eval_ms;
        let mean = out.potentials.iter().sum::<f64>() / n as f64;
        let spread = out
            .potentials
            .iter()
            .map(|p| (p - mean) * (p - mean))
            .sum::<f64>()
            .sqrt()
            / n as f64;
        println!(
            "sweep {sweep}: eval {:.1} ms, potential spread {:.4e}",
            out.eval_ms, spread
        );
        let damping = 0.35;
        for i in 0..n {
            charges[i] *= 1.0 - damping * (out.potentials[i] - mean) / mean;
        }
    }
    println!(
        "\n6 evaluations: {eval_ms_total:.1} ms total — setup ({setup_ms:.1} ms) amortised \
         {:.1}x per evaluation",
        setup_ms / (eval_ms_total / 6.0)
    );
}

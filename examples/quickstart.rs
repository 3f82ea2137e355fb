//! Quickstart: evaluate gravitational potentials with the advanced FMM.
//!
//! Builds two distinct 20 000-point ensembles (as in the paper, the source
//! and target ensembles are the same size and distribution but different
//! draws), evaluates all pairwise `1/r` interactions in O(N) time on the
//! AMT runtime, and validates a sample of targets against exact direct
//! summation.
//!
//! Run: `cargo run --release --example quickstart`

use dashmm::kernels::{direct_sum_at, Laplace};
use dashmm::tree::uniform_cube;
use dashmm::{DashmmBuilder, Method};

fn main() {
    let n = 20_000;
    let sources = uniform_cube(n, 1);
    let targets = uniform_cube(n, 2);
    // Unit masses.
    let charges = vec![1.0; n];

    println!("building trees + operator tables + DAG for n = {n}…");
    let eval = DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm) // the paper's merge-and-shift FMM
        .threshold(60) // the paper's refinement threshold
        .machine(1, 2) // one locality, two workers
        .build(&sources, &charges, &targets);
    println!(
        "tree build: {:.1} ms,  DAG assembly: {:.1} ms,  {} nodes / {} edges",
        eval.tree_ms,
        eval.dag_ms,
        eval.dag().num_nodes(),
        eval.dag().num_edges()
    );

    let out = eval.evaluate();
    println!(
        "LCO network: {:.1} ms,  evaluation: {:.1} ms  ({} tasks, {} inter-locality messages)",
        eval.network_ms()
            .expect("the first evaluation builds the network"),
        out.eval_ms,
        out.report.tasks,
        out.report.messages
    );

    // Spot-check ten targets against the O(N²) oracle.
    let src_arr: Vec<[f64; 3]> = sources.iter().map(|p| [p.x, p.y, p.z]).collect();
    let mut worst: f64 = 0.0;
    for i in (0..n).step_by(n / 10) {
        let t = [targets[i].x, targets[i].y, targets[i].z];
        let exact = direct_sum_at(&Laplace, &src_arr, &charges, &t);
        let rel = ((out.potentials[i] - exact) / exact).abs();
        worst = worst.max(rel);
        println!(
            "  phi[{i:>5}] = {:>12.6}   exact {:>12.6}   rel.err {rel:.2e}",
            out.potentials[i], exact
        );
    }
    println!("worst sampled relative error: {worst:.2e} (target: 1e-3)");
    assert!(worst < 1e-3, "accuracy regression");
}

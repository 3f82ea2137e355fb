//! Invariance properties of the full evaluator: the *answer* must not
//! depend on how the evaluation is parallelised, distributed, or which
//! policy placed the DAG — only on the mathematical problem.

use dashmm::kernels::Laplace;
use dashmm::tree::{uniform_cube, Point3};
use dashmm::{api::Policy, DashmmBuilder, Method};
use proptest::prelude::*;

fn evaluate(
    sources: &[Point3],
    targets: &[Point3],
    charges: &[f64],
    localities: usize,
    workers: usize,
    policy: Policy,
) -> Vec<f64> {
    DashmmBuilder::new(Laplace)
        .method(Method::AdvancedFmm)
        .threshold(20)
        .machine(localities, workers)
        .policy(policy)
        .build(sources, charges, targets)
        .evaluate()
        .potentials
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Scale for comparing potentials (they are O(N) in magnitude).
fn scale(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).fold(0.0, f64::max).max(1.0)
}

#[test]
fn invariant_under_machine_shape() {
    let n = 700;
    let sources = uniform_cube(n, 31);
    let targets = uniform_cube(n, 32);
    let charges: Vec<f64> = (0..n).map(|i| ((i % 7) as f64 - 3.0) / 3.0).collect();
    let base = evaluate(&sources, &targets, &charges, 1, 1, Policy::Fmm);
    for (loc, wrk) in [(1, 3), (2, 2), (4, 1), (3, 2)] {
        let other = evaluate(&sources, &targets, &charges, loc, wrk, Policy::Fmm);
        let d = max_abs_diff(&base, &other) / scale(&base);
        assert!(
            d < 1e-12,
            "machine ({loc},{wrk}) changed results by {d:.2e}"
        );
    }
}

#[test]
fn invariant_under_policy() {
    let n = 700;
    let sources = uniform_cube(n, 33);
    let targets = uniform_cube(n, 34);
    let charges = vec![0.5; n];
    let base = evaluate(&sources, &targets, &charges, 3, 1, Policy::Single);
    for policy in [Policy::Block, Policy::Fmm] {
        let other = evaluate(&sources, &targets, &charges, 3, 1, policy);
        let d = max_abs_diff(&base, &other) / scale(&base);
        assert!(d < 1e-12, "policy {policy:?} changed results by {d:.2e}");
    }
}

#[test]
fn rebuilt_evaluations_are_bitwise_identical() {
    // DAG assembly is deterministic (ordered containers throughout), so two
    // independent builds of the same problem must agree bit for bit when
    // executed on a single worker, where the reduction order is also
    // deterministic.  (Across threads the floating-point reduction order
    // may legitimately vary at the 1e-15 level; see the other tests.)
    let n = 600;
    let sources = uniform_cube(n, 91);
    let targets = uniform_cube(n, 92);
    let charges = vec![1.0; n];
    let a = evaluate(&sources, &targets, &charges, 1, 1, Policy::Fmm);
    let b = evaluate(&sources, &targets, &charges, 1, 1, Policy::Fmm);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

#[test]
fn linearity_in_charges() {
    // φ(q1 + q2) = φ(q1) + φ(q2): the whole pipeline is linear.
    let n = 500;
    let sources = uniform_cube(n, 37);
    let targets = uniform_cube(n, 38);
    let q1: Vec<f64> = (0..n).map(|i| (i % 3) as f64).collect();
    let q2: Vec<f64> = (0..n).map(|i| ((i + 1) % 4) as f64 * 0.25).collect();
    let qs: Vec<f64> = q1.iter().zip(&q2).map(|(a, b)| a + b).collect();
    let f1 = evaluate(&sources, &targets, &q1, 1, 2, Policy::Fmm);
    let f2 = evaluate(&sources, &targets, &q2, 1, 2, Policy::Fmm);
    let fs = evaluate(&sources, &targets, &qs, 1, 2, Policy::Fmm);
    for i in 0..n {
        let want = f1[i] + f2[i];
        assert!(
            (fs[i] - want).abs() < 1e-9 * scale(&fs),
            "linearity violated at {i}: {} vs {}",
            fs[i],
            want
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random clustered point sets: evaluation on different machines must
    /// agree bit-for-bit-ish regardless of geometry pathologies.
    #[test]
    fn invariance_on_random_clustered_data(seed in 0u64..1000, clusters in 1usize..4) {
        let mut sources = Vec::new();
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for c in 0..clusters {
            let center = Point3::new(next() * 2.0, next() * 2.0, next() * 2.0);
            let spread = 0.05 + 0.3 * ((c + 1) as f64 / clusters as f64);
            for _ in 0..150 {
                sources.push(center + Point3::new(next(), next(), next()) * spread);
            }
        }
        let targets: Vec<Point3> = sources.iter().map(|p| *p + Point3::new(0.01, -0.02, 0.015)).collect();
        let charges = vec![1.0; sources.len()];
        let a = evaluate(&sources, &targets, &charges, 1, 2, Policy::Fmm);
        let b = evaluate(&sources, &targets, &charges, 3, 1, Policy::Block);
        let d = max_abs_diff(&a, &b) / scale(&a);
        prop_assert!(d < 1e-12, "distribution changed results by {d:.2e}");
    }
}

//! Property tests for the batched operator entry points, for random edge
//! sets across levels and for both kernels.
//!
//! Two distinct promises are checked:
//!
//! * **Composition independence (bitwise).**  However the runtime groups
//!   edges into batches, each edge's output is bit-for-bit the same — the
//!   invariant the edge batcher relies on, asserted with `==` on `f64`.
//! * **Per-edge agreement (to rounding).**  Each batched column matches the
//!   per-edge `matvec_into` to a tight relative tolerance; it is bitwise
//!   equal when the portable GEMM kernel is active, and differs only by the
//!   fused rounding of each multiply-add when the AVX2+FMA kernel runs.
//!   The diagonal `i2i_batch` shares the per-edge code path, so it stays
//!   exactly bitwise.  For the stacked `m2i_batch` / `i2l_batch` the
//!   per-edge reference is the per-direction `ops::m2i` / `ops::i2l`.

use std::sync::OnceLock;

use dashmm_expansion::batch::{
    i2i_batch, i2l_batch, l2l_batch, m2i_batch, m2l_batch, m2m_batch, BatchWorkspace,
};
use dashmm_expansion::{ops, AccuracyParams, LevelTables};
use dashmm_kernels::{Laplace, Yukawa};
use dashmm_linalg::Matrix;
use dashmm_tree::{Direction, Point3};
use proptest::prelude::*;

/// One shared table set per kernel; building them involves SVD-based
/// pseudo-inverses, far too slow to redo per proptest case.
fn laplace_tables() -> &'static [LevelTables; 2] {
    static T: OnceLock<[LevelTables; 2]> = OnceLock::new();
    T.get_or_init(|| {
        let p = AccuracyParams::three_digit();
        [
            LevelTables::build(&Laplace, &p, 2, 1.0, true),
            LevelTables::build(&Laplace, &p, 3, 0.5, true),
        ]
    })
}

fn yukawa_tables() -> &'static [LevelTables; 2] {
    static T: OnceLock<[LevelTables; 2]> = OnceLock::new();
    T.get_or_init(|| {
        let p = AccuracyParams::three_digit();
        let k = Yukawa::new(1.1);
        [
            LevelTables::build(&k, &p, 2, 1.0, true),
            LevelTables::build(&k, &p, 3, 0.5, true),
        ]
    })
}

/// Random well-separated M2L offsets: at least one axis with |offset| >= 2.
fn offset_strategy() -> impl Strategy<Value = (i8, i8, i8)> {
    (0usize..3, 2i64..4, 0u64..2, -1i64..2, -1i64..2).prop_map(|(axis, major, neg, a, b)| {
        let major = if neg == 1 { -major } else { major } as i8;
        let (a, b) = (a as i8, b as i8);
        match axis {
            0 => (major, a, b),
            1 => (a, major, b),
            _ => (a, b, major),
        }
    })
}

/// `n` random expansion vectors of length `len`, deterministic in `seed`.
fn edge_sources(n: usize, len: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..n)
        .map(|_| (0..len).map(|_| next() * 4.0).collect())
        .collect()
}

/// Assert element-wise agreement to rounding (relative 1e-13, absolute for
/// small magnitudes).
fn prop_assert_cols_close(got: &[f64], want: &[f64], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let scale = 1.0_f64.max(w.abs());
        prop_assert!(
            (g - w).abs() <= 1e-13 * scale,
            "{}[{}]: {} vs {}",
            what,
            i,
            g,
            w
        );
    }
    Ok(())
}

fn collect_batch(run: impl FnOnce(&mut dyn FnMut(usize, &[f64])), n_edges: usize) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); n_edges];
    run(&mut |i, col| cols[i] = col.to_vec());
    cols
}

fn check_m2l<K: dashmm_kernels::Kernel>(
    kernel: &K,
    t: &LevelTables,
    offset: (i8, i8, i8),
    n_edges: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = t.expansion_len();
    let srcs = edge_sources(n_edges, n, seed);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut ws = BatchWorkspace::new();
    let cols = collect_batch(
        |sink| m2l_batch(kernel, t, offset, &refs, &mut ws, |i, c| sink(i, c)),
        n_edges,
    );
    let op = t.m2l(kernel, offset);
    for (e, (s, col)) in srcs.iter().zip(&cols).enumerate() {
        let mut want = vec![0.0; n];
        op.matvec_into(s, &mut want);
        prop_assert_cols_close(
            col,
            &want,
            &format!("m2l edge {} of {} at level {}", e, n_edges, t.level()),
        )?;
    }
    Ok(())
}

/// Bitwise composition independence: one whole batch vs the same edges cut
/// into sub-batches of width `split`.
fn check_m2l_composition<K: dashmm_kernels::Kernel>(
    kernel: &K,
    t: &LevelTables,
    offset: (i8, i8, i8),
    n_edges: usize,
    split: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let n = t.expansion_len();
    let srcs = edge_sources(n_edges, n, seed);
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let mut ws = BatchWorkspace::new();
    let whole = collect_batch(
        |sink| m2l_batch(kernel, t, offset, &refs, &mut ws, |i, c| sink(i, c)),
        n_edges,
    );
    let mut pieces: Vec<Vec<f64>> = vec![Vec::new(); n_edges];
    let mut start = 0;
    while start < n_edges {
        let end = (start + split).min(n_edges);
        m2l_batch(kernel, t, offset, &refs[start..end], &mut ws, |i, c| {
            pieces[start + i] = c.to_vec()
        });
        start = end;
    }
    for (e, (w, p)) in whole.iter().zip(&pieces).enumerate() {
        prop_assert_eq!(w, p, "edge {} split {} differs from whole batch", e, split);
    }
    Ok(())
}

/// `Σ_k |a_ik| |x_k|` per row: the magnitude a contraction's rounding
/// error is relative to.  The stacked operators sum thousands of terms
/// that cancel against each other for random coefficients, so their
/// columns are compared relative to what was summed, not to what is left.
fn summed_magnitude(a: &Matrix, x: &[f64]) -> Vec<f64> {
    let mut mag = vec![0.0; a.rows()];
    for (k, xk) in x.iter().enumerate() {
        for (o, c) in mag.iter_mut().zip(a.col(k)) {
            *o += c.abs() * xk.abs();
        }
    }
    mag
}

fn prop_assert_cols_close_rel(
    got: &[f64],
    want: &[f64],
    mag: &[f64],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            (g - w).abs() <= 1e-13 * mag[i],
            "{}[{}]: {} vs {} (summed magnitude {})",
            what,
            i,
            g,
            w,
            mag[i]
        );
    }
    Ok(())
}

/// Run `batch` over `refs` cut into consecutive sub-batches of width
/// `split`, collecting every edge's column.
fn collect_split(
    refs: &[&[f64]],
    split: usize,
    mut batch: impl FnMut(&[&[f64]], &mut dyn FnMut(usize, &[f64])),
) -> Vec<Vec<f64>> {
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); refs.len()];
    for (piece, chunk) in refs.chunks(split).enumerate() {
        batch(chunk, &mut |i, c| cols[piece * split + i] = c.to_vec());
    }
    cols
}

/// One stacked plane-wave operator: every column of one whole batch agrees
/// with the per-direction per-edge `reference` to rounding, and is bitwise
/// what any re-splitting of the batch computes.
fn check_stacked_op(
    what: &str,
    table: &Matrix,
    srcs: &[Vec<f64>],
    mut batch: impl FnMut(&[&[f64]], &mut dyn FnMut(usize, &[f64])),
    reference: impl Fn(&[f64]) -> Vec<f64>,
) -> Result<(), TestCaseError> {
    let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
    let whole = collect_split(&refs, refs.len(), &mut batch);
    for (e, (s, col)) in srcs.iter().zip(&whole).enumerate() {
        let mag = summed_magnitude(table, s);
        prop_assert_cols_close_rel(col, &reference(s), &mag, &format!("{what} edge {e}"))?;
    }
    for split in [1usize, 2, 5, 8, 32] {
        let pieces = collect_split(&refs, split, &mut batch);
        prop_assert_eq!(&whole, &pieces, "{} split {}", what, split);
    }
    Ok(())
}

fn check_stacked(t: &LevelTables, n_edges: usize, seed: u64) -> Result<(), TestCaseError> {
    let (n, w) = (t.expansion_len(), t.planewave_len());
    let dir = |d: Direction| d.index() * w..(d.index() + 1) * w;
    let mut ws = BatchWorkspace::new();
    check_stacked_op(
        "m2i",
        t.m2i(),
        &edge_sources(n_edges, n, seed),
        |chunk, sink| m2i_batch(t, chunk, &mut ws, |i, buf| sink(i, &buf[1..])),
        |s| {
            let mut want = vec![0.0; 6 * w];
            for d in Direction::ALL {
                ops::m2i(t, d, s, &mut want[dir(d)]);
            }
            want
        },
    )?;
    check_stacked_op(
        "i2l",
        t.i2l(),
        &edge_sources(n_edges, 6 * w, seed ^ 0x5bd1_e995),
        |chunk, sink| i2l_batch(t, chunk, &mut ws, |i, c| sink(i, c)),
        |s| {
            let mut want = vec![0.0; n];
            for d in Direction::ALL {
                ops::i2l(t, d, &s[dir(d)], &mut want);
            }
            want
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn m2i_i2l_batch_match_per_edge_and_any_split(
        n_edges in 1usize..40,
        level in 0usize..2,
        yukawa in proptest::any::<bool>(),
        seed in any::<u64>(),
    ) {
        let t = if yukawa { &yukawa_tables()[level] } else { &laplace_tables()[level] };
        check_stacked(t, n_edges, seed)?;
    }

    #[test]
    fn m2l_batch_matches_per_edge_laplace(
        offset in offset_strategy(),
        n_edges in 1usize..40,
        level in 0usize..2,
        seed in any::<u64>(),
    ) {
        let t = &laplace_tables()[level];
        check_m2l(&Laplace, t, offset, n_edges, seed)?;
    }

    #[test]
    fn m2l_batch_matches_per_edge_yukawa(
        offset in offset_strategy(),
        n_edges in 1usize..40,
        level in 0usize..2,
        seed in any::<u64>(),
    ) {
        let t = &yukawa_tables()[level];
        check_m2l(&Yukawa::new(1.1), t, offset, n_edges, seed)?;
    }

    #[test]
    fn m2m_l2l_batch_match_per_edge(
        octant in 0u8..8,
        n_edges in 1usize..40,
        level in 0usize..2,
        yukawa in proptest::any::<bool>(),
        seed in any::<u64>(),
    ) {
        let t = if yukawa { &yukawa_tables()[level] } else { &laplace_tables()[level] };
        let n = t.expansion_len();
        let srcs = edge_sources(n_edges, n, seed);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();

        let cols = collect_batch(
            |sink| m2m_batch(t, octant, &refs, &mut ws, |i, c| sink(i, c)),
            n_edges,
        );
        for (s, col) in srcs.iter().zip(&cols) {
            let mut want = vec![0.0; n];
            t.m2m(octant).matvec_into(s, &mut want);
            prop_assert_cols_close(col, &want, &format!("m2m octant {octant}"))?;
        }

        let cols = collect_batch(
            |sink| l2l_batch(t, octant, &refs, &mut ws, |i, c| sink(i, c)),
            n_edges,
        );
        for (s, col) in srcs.iter().zip(&cols) {
            let mut want = vec![0.0; n];
            t.l2l(octant).matvec_into(s, &mut want);
            prop_assert_cols_close(col, &want, &format!("l2l octant {octant}"))?;
        }
    }

    #[test]
    fn m2l_batch_composition_is_bitwise_invariant(
        offset in offset_strategy(),
        n_edges in 2usize..40,
        split in 1usize..12,
        level in 0usize..2,
        yukawa in proptest::any::<bool>(),
        seed in any::<u64>(),
    ) {
        if yukawa {
            check_m2l_composition(&Yukawa::new(1.1), &yukawa_tables()[level], offset, n_edges, split, seed)?;
        } else {
            check_m2l_composition(&Laplace, &laplace_tables()[level], offset, n_edges, split, seed)?;
        }
    }

    #[test]
    fn i2i_batch_matches_per_edge(
        dir in 0usize..6,
        n_edges in 1usize..24,
        level in 0usize..2,
        yukawa in proptest::any::<bool>(),
        steps in (-4i64..5, -4i64..5, 1i64..5),
        seed in any::<u64>(),
    ) {
        let t = if yukawa { &yukawa_tables()[level] } else { &laplace_tables()[level] };
        let d = Direction::ALL[dir];
        let q = t.side() * 0.25;
        let delta = Point3::new(steps.0 as f64 * q, steps.1 as f64 * q, steps.2 as f64 * q);
        let fac = t.i2i(d, delta);
        let srcs = edge_sources(n_edges, t.planewave_len(), seed);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let cols = collect_batch(
            |sink| i2i_batch(&fac, &refs, &mut ws, |i, c| sink(i, c)),
            n_edges,
        );
        for (s, col) in srcs.iter().zip(&cols) {
            let mut want = vec![0.0; t.planewave_len()];
            ops::i2i_apply(&fac, s, &mut want);
            prop_assert_eq!(col, &want, "direction {:?}", d);
        }
    }
}

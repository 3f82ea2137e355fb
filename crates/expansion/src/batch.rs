//! Batched application of translation operators.
//!
//! The evaluation DAG applies one per-level operator matrix to many
//! independent edges.  These entry points take the edges' source
//! expansions where they lie, run one blocked multi-RHS product
//! ([`dashmm_linalg::Matrix::matvec_batch_acc_cols`]), and hand each output
//! column to a caller-supplied sink for scatter into the destination
//! accumulators.  Every expansion-to-expansion operator goes through here:
//! `M→M`, `M→L`, `L→L`, the diagonal `I→I`, and `M→I` / `I→L`, whose
//! tables are stacked over the six plane-wave directions so one product
//! produces (consumes) a box's whole intermediate expansion.
//!
//! Determinism contract: every output column is computed from a zeroed
//! accumulator by an ascending-`k` contraction that does not depend on the
//! batch's width or composition, so each edge's contribution is **bitwise
//! identical no matter how the runtime groups edges into batches** — the
//! invariant the edge batcher relies on.  Relative to the per-edge path
//! (`matvec_into` for the dense operators, [`ops::m2i`] / [`ops::i2l`] per
//! direction for the stacked ones, [`ops::i2i_apply`] for the diagonal
//! one) the results are bitwise equal under the portable GEMM kernel and
//! differ only by the fused rounding of each multiply-add (O(ulp),
//! deterministic per machine) when the AVX2+FMA register-tiled kernel is
//! active; see `dashmm_linalg`'s `gemm` module docs.
//!
//! The **fused near-field** path (`ops::p2p_fused`) is the one batched
//! operator whose output depends on batch composition: it sums all source
//! blocks of a target leaf in one row per target, in deposit order, so
//! grouping S→T edges differently reorders the floating-point accumulation
//! (O(ulp) per contribution).  That is exactly the freedom the destination LCOs'
//! unordered reduction already grants every per-edge operator, so the
//! executor's determinism tolerances are unchanged.

use dashmm_kernels::Kernel;
use dashmm_linalg::Matrix;

use crate::ops;
use crate::tables::LevelTables;

/// Reusable gather/result buffers for batched operator application.
///
/// One workspace per worker thread avoids both allocation on the hot path
/// and false sharing between workers.  Besides the column panels of the
/// matrix operators it owns the SoA buffers the particle-facing operators
/// gather their point sources into (`ops::p2p`, `ops::s2m`, …) and the
/// check-surface potentials of `S→M` / `S→L` — after the first call at a
/// given problem shape, repeat applications perform zero allocations
/// (pinned by `scratch_bytes` and the capacity-stability test in
/// `tests/particle_ops_proptest.rs`).
#[derive(Default)]
pub struct BatchWorkspace {
    /// Result panel of the matrix operators: one cell, then the output
    /// columns back to back.
    pub(crate) ys: Vec<f64>,
    /// SoA coordinates and weights of gathered point sources.
    pub(crate) sx: Vec<f64>,
    pub(crate) sy: Vec<f64>,
    pub(crate) sz: Vec<f64>,
    pub(crate) sw: Vec<f64>,
    /// Check-surface potentials for `s2m`/`s2l`.
    pub(crate) check: Vec<f64>,
}

impl BatchWorkspace {
    /// Fresh, empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve the gather buffers for `n` point sources, so a caller that
    /// hands one workspace leaves of up to `n` points sizes it once,
    /// whichever of those leaves it is handed.
    pub fn reserve_sources(&mut self, n: usize) {
        for v in [&mut self.sx, &mut self.sy, &mut self.sz, &mut self.sw] {
            v.clear();
            v.reserve(n);
        }
    }

    /// Total bytes currently reserved across all scratch buffers.  Test
    /// hook for the zero-per-edge-allocation contract: once warmed up at a
    /// problem shape, repeat operator applications must leave this value
    /// unchanged.
    pub fn scratch_bytes(&self) -> usize {
        8 * (self.ys.capacity()
            + self.sx.capacity()
            + self.sy.capacity()
            + self.sz.capacity()
            + self.sw.capacity()
            + self.check.capacity())
    }

    /// Run `op · [srcs]` and pass each output column to
    /// `sink(edge_index, buf)` with one writable cell in front of it:
    /// `buf[1..]` is the column, `buf[0]` is the caller's to set (the
    /// offset-addressed destinations take `[offset, values…]`, so their
    /// contribution needs no copy).  The cell overlays the last element of
    /// the previous column, which has been handed out by then.
    fn run_prefixed(
        &mut self,
        op: &Matrix,
        srcs: &[&[f64]],
        sink: &mut dyn FnMut(usize, &mut [f64]),
    ) {
        let m = op.rows();
        self.ys.clear();
        self.ys.resize(1 + m * srcs.len(), 0.0);
        op.matvec_batch_acc_cols(srcs, &mut self.ys[1..]);
        for j in 0..srcs.len() {
            sink(j, &mut self.ys[j * m..=(j + 1) * m]);
        }
    }

    /// Run `op · [srcs]` and pass each output column to
    /// `sink(edge_index, column)`.
    fn run(&mut self, op: &Matrix, srcs: &[&[f64]], sink: &mut dyn FnMut(usize, &[f64])) {
        self.run_prefixed(op, srcs, &mut |j, buf| sink(j, &buf[1..]));
    }
}

/// Batched `M→L`: apply one cached same-offset translation matrix to many
/// source multipoles.  `sink(i, col)` receives edge `i`'s contribution to
/// its target local expansion (caller scatter-adds).
pub fn m2l_batch<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    offset: (i8, i8, i8),
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &[f64]),
) {
    if srcs.is_empty() {
        return;
    }
    let op = t.m2l(kernel, offset);
    ws.run(&op, srcs, &mut sink);
}

/// Batched `M→M`: one child octant's shift matrix applied to many child
/// multipoles.  `t` is the *parent* level's tables.
pub fn m2m_batch(
    t: &LevelTables,
    octant: u8,
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &[f64]),
) {
    if srcs.is_empty() {
        return;
    }
    ws.run(t.m2m(octant), srcs, &mut sink);
}

/// Batched `L→L`: one octant's push-down matrix applied to many parent
/// locals.  `t` is the *child* level's tables.
pub fn l2l_batch(
    t: &LevelTables,
    octant: u8,
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &[f64]),
) {
    if srcs.is_empty() {
        return;
    }
    ws.run(t.l2l(octant), srcs, &mut sink);
}

/// Batched `M→I`: the level's stacked six-direction table applied to many
/// multipoles, one product for the whole batch.  `sink(i, buf)` receives
/// edge `i`'s outgoing intermediate expansion as `buf[1..]` — all six
/// directions, in the layout of the intermediate node's own region — with
/// `buf[0]` free for the destination offset.
pub fn m2i_batch(
    t: &LevelTables,
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &mut [f64]),
) {
    ws.run_prefixed(t.m2i(), srcs, &mut sink);
}

/// Batched `I→L`: the level's stacked six-direction table applied to many
/// incoming intermediate expansions (each `6w` long, read in place).
/// `sink(i, col)` receives edge `i`'s contribution to its local expansion.
pub fn i2l_batch(
    t: &LevelTables,
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &[f64]),
) {
    ws.run(t.i2l(), srcs, &mut sink);
}

/// Batched `I→I`: apply one cached diagonal factor vector to many
/// plane-wave coefficient vectors.  The diagonal operator has no GEMM to
/// win, but batching amortises the factor-cache lookup and keeps `fac`
/// cache-hot across edges.  `sink(i, buf)` receives edge `i`'s translated
/// coefficients as `buf[1..]`, with `buf[0]` free for the destination
/// offset (see [`m2i_batch`]).
pub fn i2i_batch_prefixed(
    fac: &[f64],
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &mut [f64]),
) {
    ws.ys.clear();
    ws.ys.resize(1 + fac.len(), 0.0);
    for (j, s) in srcs.iter().enumerate() {
        ops::i2i_write(fac, s, &mut ws.ys[1..]);
        sink(j, &mut ws.ys);
    }
}

/// [`i2i_batch_prefixed`] handing out the coefficients alone.
pub fn i2i_batch(
    fac: &[f64],
    srcs: &[&[f64]],
    ws: &mut BatchWorkspace,
    mut sink: impl FnMut(usize, &[f64]),
) {
    i2i_batch_prefixed(fac, srcs, ws, |j, buf| sink(j, &buf[1..]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AccuracyParams;
    use dashmm_kernels::Laplace;
    use dashmm_tree::{Direction, Point3};

    fn tables(pw: bool) -> LevelTables {
        LevelTables::build(&Laplace, &AccuracyParams::three_digit(), 3, 0.5, pw)
    }

    fn sources(n: usize, len: usize, salt: u64) -> Vec<Vec<f64>> {
        let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n)
            .map(|_| (0..len).map(|_| next() * 3.0).collect())
            .collect()
    }

    fn assert_cols_close(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = 1.0_f64.max(w.abs());
            assert!((g - w).abs() <= 1e-13 * scale, "{what}[{i}]: {g} vs {w}");
        }
    }

    #[test]
    fn m2l_batch_matches_per_edge_to_rounding() {
        let t = tables(false);
        let k = Laplace;
        let offset = (2i8, -1i8, 0i8);
        let n = t.expansion_len();
        let srcs = sources(11, n, 1);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
        m2l_batch(&k, &t, offset, &refs, &mut ws, |i, col| {
            cols[i] = col.to_vec()
        });
        let op = t.m2l(&k, offset);
        for (s, col) in srcs.iter().zip(&cols) {
            let mut want = vec![0.0; n];
            op.matvec_into(s, &mut want);
            assert_cols_close(col, &want, "m2l");
        }
    }

    #[test]
    fn m2l_batch_composition_is_bitwise_invariant() {
        let t = tables(false);
        let k = Laplace;
        let offset = (3i8, 0i8, -1i8);
        let n = t.expansion_len();
        let srcs = sources(13, n, 4);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut whole: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
        m2l_batch(&k, &t, offset, &refs, &mut ws, |i, col| {
            whole[i] = col.to_vec()
        });
        for split in [1usize, 2, 5, 8] {
            let mut pieces: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
            let mut start = 0;
            while start < refs.len() {
                let end = (start + split).min(refs.len());
                m2l_batch(&k, &t, offset, &refs[start..end], &mut ws, |i, col| {
                    pieces[start + i] = col.to_vec()
                });
                start = end;
            }
            assert_eq!(whole, pieces, "split={split}");
        }
    }

    #[test]
    fn m2m_and_l2l_batch_match_per_edge_to_rounding() {
        let t = tables(false);
        let n = t.expansion_len();
        let srcs = sources(9, n, 2);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        for oct in [0u8, 5, 7] {
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
            m2m_batch(&t, oct, &refs, &mut ws, |i, col| cols[i] = col.to_vec());
            for (s, col) in srcs.iter().zip(&cols) {
                let mut want = vec![0.0; n];
                t.m2m(oct).matvec_into(s, &mut want);
                assert_cols_close(col, &want, &format!("m2m octant {oct}"));
            }
            let mut cols: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
            l2l_batch(&t, oct, &refs, &mut ws, |i, col| cols[i] = col.to_vec());
            for (s, col) in srcs.iter().zip(&cols) {
                let mut want = vec![0.0; n];
                t.l2l(oct).matvec_into(s, &mut want);
                assert_cols_close(col, &want, &format!("l2l octant {oct}"));
            }
        }
    }

    #[test]
    fn i2i_batch_bitwise_matches_per_edge() {
        let t = tables(true);
        let side = t.side();
        let fac = t.i2i(Direction::Up, Point3::new(side, 0.0, 2.0 * side));
        let srcs = sources(6, t.planewave_len(), 3);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut cols: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
        i2i_batch(&fac, &refs, &mut ws, |i, col| cols[i] = col.to_vec());
        for (s, col) in srcs.iter().zip(&cols) {
            let mut want = vec![0.0; t.planewave_len()];
            ops::i2i_apply(&fac, s, &mut want);
            assert_eq!(col, &want);
        }
    }

    /// The offset cell in front of a column overlays the previous column's
    /// last element: writing it must not reach any column still to come.
    #[test]
    fn prefix_cell_is_writable_without_disturbing_columns() {
        let t = tables(true);
        let srcs = sources(5, t.expansion_len(), 7);
        let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
        let mut ws = BatchWorkspace::new();
        let mut plain: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
        m2i_batch(&t, &refs, &mut ws, |i, buf| plain[i] = buf[1..].to_vec());
        let mut scribbled: Vec<Vec<f64>> = vec![Vec::new(); srcs.len()];
        m2i_batch(&t, &refs, &mut ws, |i, buf| {
            buf[0] = 1e300;
            assert_eq!(buf.len(), 1 + 6 * t.planewave_len());
            scribbled[i] = buf[1..].to_vec();
        });
        assert_eq!(plain, scribbled);
    }

    #[test]
    fn empty_batch_is_noop() {
        let t = tables(true);
        let mut ws = BatchWorkspace::new();
        let mut called = false;
        m2l_batch(&Laplace, &t, (2, 0, 0), &[], &mut ws, |_, _| called = true);
        m2m_batch(&t, 0, &[], &mut ws, |_, _| called = true);
        l2l_batch(&t, 0, &[], &mut ws, |_, _| called = true);
        m2i_batch(&t, &[], &mut ws, |_, _| called = true);
        i2l_batch(&t, &[], &mut ws, |_, _| called = true);
        assert!(!called);
    }

    #[test]
    fn workspace_is_reusable_across_shapes() {
        let t = tables(false);
        let n = t.expansion_len();
        let mut ws = BatchWorkspace::new();
        for count in [1usize, 9, 3] {
            let srcs = sources(count, n, count as u64);
            let refs: Vec<&[f64]> = srcs.iter().map(|s| s.as_slice()).collect();
            let mut seen = 0;
            m2m_batch(&t, 2, &refs, &mut ws, |_, col| {
                assert_eq!(col.len(), n);
                seen += 1;
            });
            assert_eq!(seen, count);
        }
    }
}

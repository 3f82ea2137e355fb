//! Blocked multi-RHS GEMM micro-kernel for the operator hot path.
//!
//! The FMM evaluation phase applies one per-level operator matrix `A` to many
//! independent source vectors (one per DAG edge).  Applying them one
//! `matvec_acc` at a time is bound by memory traffic: every multiply needs a
//! fresh element of `A` and a read-modify-write of the output, so a single
//! right-hand side can never amortise the loads.  A panel `Y += A·X` reuses
//! each loaded element of `A` across all right-hand sides of a register
//! tile, which is where the batched path's speedup comes from.  On x86-64
//! with AVX2+FMA (detected at runtime) an 8-row × 4-column register-tiled
//! kernel carries the accumulators in registers through a `k` block, inside
//! a cache-blocked loop nest that streams the operator from memory once per
//! 32-column panel — the plane-wave tables are megabytes, not the 25 KB of
//! an `M→L` matrix; elsewhere a portable panel kernel is used.
//!
//! Determinism contract: for every output element, the contraction is
//! evaluated from that element's existing accumulator value in ascending-`k`
//! order, identically in every tile shape and remainder path of a kernel.
//! Batched output is therefore **bitwise independent of how edges are
//! grouped into panels** — runtime scheduling may batch differently across
//! worker counts or distribution policies without perturbing results.
//! Relative to the per-edge [`Matrix::matvec_acc`] loop, the portable kernel
//! is bitwise identical; the FMA kernel differs only by the fused rounding
//! of each multiply-add (O(ulp) per element, deterministic per machine).

use crate::matrix::Matrix;

/// Number of right-hand sides processed per block of the portable kernel.
pub const NR: usize = 8;

/// `ys += a · xs` on raw column-major panels.
///
/// `a` is `m × k`, `xs` is `k × n`, `ys` is `m × n`, all column-major and
/// densely packed.  Dispatches to the register-tiled FMA kernel when the
/// CPU supports it, else to [`gemm_acc_portable`].
pub fn gemm_acc_panels(a: &Matrix, xs: &[f64], ys: &mut [f64]) {
    let (m, k) = (a.rows(), a.cols());
    if k == 0 || m == 0 {
        assert!(
            xs.is_empty() || k != 0,
            "xs must be empty when a has no columns"
        );
        return;
    }
    assert_eq!(xs.len() % k, 0, "xs length must be a multiple of a.cols()");
    let n = xs.len() / k;
    assert_eq!(ys.len(), m * n, "ys length must equal a.rows() * n");

    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        let xp = xs.as_ptr();
        // SAFETY: AVX2+FMA presence was just checked; `xs` holds `n`
        // columns of `k` values and `ys` is `m × n`, validated above.
        unsafe { fma::gemm_acc(m, k, a.data(), n, |j| xp.add(j * k), ys) };
        return;
    }
    gemm_acc_portable(a, xs, ys);
}

/// `ys += a · [x_0 … x_{n-1}]` with every right-hand side its own slice.
///
/// The gather-free form of [`gemm_acc_panels`]: the batched operators hand
/// over the edges' source expansions where they lie instead of copying
/// them into a packed panel first.  `ys` is `m × n` column-major, densely
/// packed; each output column is bitwise what [`gemm_acc_panels`] computes
/// for the same right-hand side.
pub fn gemm_acc_cols(a: &Matrix, xs: &[&[f64]], ys: &mut [f64]) {
    let (m, k) = (a.rows(), a.cols());
    for x in xs {
        assert_eq!(x.len(), k, "right-hand side length must equal a.cols()");
    }
    assert_eq!(ys.len(), m * xs.len(), "ys length must equal a.rows() * n");
    if k == 0 || m == 0 {
        return;
    }

    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        // SAFETY: AVX2+FMA presence was just checked; every column is `k`
        // long and `ys` is `m × n`, validated above.
        unsafe { fma::gemm_acc(m, k, a.data(), xs.len(), |j| xs[j].as_ptr(), ys) };
        return;
    }
    // The portable kernel's contract is per-column `matvec_acc`.
    for (x, y) in xs.iter().zip(ys.chunks_exact_mut(m)) {
        a.matvec_acc(x, y);
    }
}

/// Portable panel kernel: `ys += a · xs` with each output column bitwise
/// identical to `a.matvec_acc(x_j, y_j)` (`k` ascending, skipping zero
/// entries of `x`, `i` ascending).
pub fn gemm_acc_portable(a: &Matrix, xs: &[f64], ys: &mut [f64]) {
    let (m, k) = (a.rows(), a.cols());
    if k == 0 || m == 0 {
        assert!(
            xs.is_empty() || k != 0,
            "xs must be empty when a has no columns"
        );
        return;
    }
    assert_eq!(xs.len() % k, 0, "xs length must be a multiple of a.cols()");
    let n = xs.len() / k;
    assert_eq!(ys.len(), m * n, "ys length must equal a.rows() * n");
    let adata = a.data();

    let mut j = 0;
    while j + NR <= n {
        let xblk = &xs[j * k..(j + NR) * k];
        let yblk = &mut ys[j * m..(j + NR) * m];
        for kk in 0..k {
            let acol = &adata[kk * m..(kk + 1) * m];
            for jj in 0..NR {
                let xkj = xblk[jj * k + kk];
                if xkj == 0.0 {
                    continue;
                }
                let ocol = &mut yblk[jj * m..(jj + 1) * m];
                for i in 0..m {
                    ocol[i] += acol[i] * xkj;
                }
            }
        }
        j += NR;
    }
    while j < n {
        let x = &xs[j * k..(j + 1) * k];
        let y = &mut ys[j * m..(j + 1) * m];
        a.matvec_acc(x, y);
        j += 1;
    }
}

/// Whether the register-tiled FMA kernel is in use on this machine.
pub fn fma_kernel_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        fma::available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod fma {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Depth of one `k` block.  An 8-row strip of `a` over one block is
    /// `KC` cache lines (16 KB), so it stays in L1 while every column of
    /// the panel is swept past it; a 56-row operator's block is ~112 KB
    /// and stays in L2 across the row strips.
    const KC: usize = 256;
    /// Width of one column panel: the `KC × NC` block of right-hand sides
    /// (64 KB) is re-read once per row strip and stays in L2.
    const NC: usize = 32;

    /// Runtime AVX2+FMA detection, cached.
    pub(super) fn available() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// Cache-blocked, register-tiled `ys += a · xs`: 8-row × 4-column tiles
    /// of fused multiply-adds, accumulators held in registers across a `k`
    /// block.  The loop nest is column panel → `k` block → row strip →
    /// column tile, so a tall operator (`M→I`, 6w × n) streams from memory
    /// once per panel and a wide one (`I→L`, n × 6w) once per panel in
    /// L2-sized blocks, instead of once per four right-hand sides.
    ///
    /// Every output element — in the main tile, the 4-row tile, the scalar
    /// row tail and the column remainder alike — is computed as the same
    /// ascending-`k` chain of `fma(a, x, acc)` from its existing value
    /// (parked in `ys`, exactly, between `k` blocks), so results are
    /// bitwise independent of panel width, tile position and blocking.
    ///
    /// # Safety
    /// Requires AVX2 and FMA.  `a` must be `m × k` column-major,
    /// `ys.len() == m * n`, and `xcol(j)` for `j < n` must point to `k`
    /// readable `f64`s.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_acc(
        m: usize,
        k: usize,
        a: &[f64],
        n: usize,
        xcol: impl Fn(usize) -> *const f64,
        ys: &mut [f64],
    ) {
        let yp = ys.as_mut_ptr();
        for j0 in (0..n).step_by(NC) {
            let j1 = (j0 + NC).min(n);
            for k0 in (0..k).step_by(KC) {
                let kc = KC.min(k - k0);
                let ap = a.as_ptr().add(k0 * m);
                let x = |j: usize| xcol(j).add(k0);
                let mut i = 0;
                while i + 8 <= m {
                    let mut j = j0;
                    while j + 4 <= j1 {
                        tile_8x4(
                            ap.add(i),
                            m,
                            kc,
                            [x(j), x(j + 1), x(j + 2), x(j + 3)],
                            yp.add(j * m + i),
                        );
                        j += 4;
                    }
                    while j < j1 {
                        tile_4x1(ap.add(i), m, kc, x(j), yp.add(j * m + i));
                        tile_4x1(ap.add(i + 4), m, kc, x(j), yp.add(j * m + i + 4));
                        j += 1;
                    }
                    i += 8;
                }
                while i + 4 <= m {
                    let mut j = j0;
                    while j + 4 <= j1 {
                        tile_4x4(
                            ap.add(i),
                            m,
                            kc,
                            [x(j), x(j + 1), x(j + 2), x(j + 3)],
                            yp.add(j * m + i),
                        );
                        j += 4;
                    }
                    while j < j1 {
                        tile_4x1(ap.add(i), m, kc, x(j), yp.add(j * m + i));
                        j += 1;
                    }
                    i += 4;
                }
                while i < m {
                    for j in j0..j1 {
                        let xp = x(j);
                        let y = yp.add(j * m + i);
                        let mut acc = *y;
                        for kk in 0..kc {
                            acc = (*ap.add(kk * m + i)).mul_add(*xp.add(kk), acc);
                        }
                        *y = acc;
                    }
                    i += 1;
                }
            }
        }
    }

    /// 8 rows × 4 columns: `y[c*m + 0..8] += a[0..8, 0..kc] · x[c][0..kc]`.
    /// `a` points at the strip's first row in column 0 (column stride `m`),
    /// `y` at the strip's first row in the tile's first output column.
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tile_8x4(a: *const f64, m: usize, kc: usize, x: [*const f64; 4], y: *mut f64) {
        let (y0, y1, y2, y3) = (y, y.add(m), y.add(2 * m), y.add(3 * m));
        let mut c00 = _mm256_loadu_pd(y0);
        let mut c01 = _mm256_loadu_pd(y0.add(4));
        let mut c10 = _mm256_loadu_pd(y1);
        let mut c11 = _mm256_loadu_pd(y1.add(4));
        let mut c20 = _mm256_loadu_pd(y2);
        let mut c21 = _mm256_loadu_pd(y2.add(4));
        let mut c30 = _mm256_loadu_pd(y3);
        let mut c31 = _mm256_loadu_pd(y3.add(4));
        for kk in 0..kc {
            let col = a.add(kk * m);
            // The strip below this one is `m` doubles away per column — a
            // stride no hardware prefetcher follows on a tall operator —
            // so ask for its line now; it is needed a panel-sweep later.
            _mm_prefetch::<_MM_HINT_T0>(col.wrapping_add(8) as *const i8);
            let a0 = _mm256_loadu_pd(col);
            let a1 = _mm256_loadu_pd(col.add(4));
            let b0 = _mm256_set1_pd(*x[0].add(kk));
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c01 = _mm256_fmadd_pd(a1, b0, c01);
            let b1 = _mm256_set1_pd(*x[1].add(kk));
            c10 = _mm256_fmadd_pd(a0, b1, c10);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let b2 = _mm256_set1_pd(*x[2].add(kk));
            c20 = _mm256_fmadd_pd(a0, b2, c20);
            c21 = _mm256_fmadd_pd(a1, b2, c21);
            let b3 = _mm256_set1_pd(*x[3].add(kk));
            c30 = _mm256_fmadd_pd(a0, b3, c30);
            c31 = _mm256_fmadd_pd(a1, b3, c31);
        }
        _mm256_storeu_pd(y0, c00);
        _mm256_storeu_pd(y0.add(4), c01);
        _mm256_storeu_pd(y1, c10);
        _mm256_storeu_pd(y1.add(4), c11);
        _mm256_storeu_pd(y2, c20);
        _mm256_storeu_pd(y2.add(4), c21);
        _mm256_storeu_pd(y3, c30);
        _mm256_storeu_pd(y3.add(4), c31);
    }

    /// 4 rows × 4 columns; arguments as [`tile_8x4`].
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tile_4x4(a: *const f64, m: usize, kc: usize, x: [*const f64; 4], y: *mut f64) {
        let (y0, y1, y2, y3) = (y, y.add(m), y.add(2 * m), y.add(3 * m));
        let mut c0 = _mm256_loadu_pd(y0);
        let mut c1 = _mm256_loadu_pd(y1);
        let mut c2 = _mm256_loadu_pd(y2);
        let mut c3 = _mm256_loadu_pd(y3);
        for kk in 0..kc {
            let a0 = _mm256_loadu_pd(a.add(kk * m));
            c0 = _mm256_fmadd_pd(a0, _mm256_set1_pd(*x[0].add(kk)), c0);
            c1 = _mm256_fmadd_pd(a0, _mm256_set1_pd(*x[1].add(kk)), c1);
            c2 = _mm256_fmadd_pd(a0, _mm256_set1_pd(*x[2].add(kk)), c2);
            c3 = _mm256_fmadd_pd(a0, _mm256_set1_pd(*x[3].add(kk)), c3);
        }
        _mm256_storeu_pd(y0, c0);
        _mm256_storeu_pd(y1, c1);
        _mm256_storeu_pd(y2, c2);
        _mm256_storeu_pd(y3, c3);
    }

    /// 4 rows × 1 column (the column remainder of a panel).
    #[target_feature(enable = "avx2,fma")]
    #[inline]
    unsafe fn tile_4x1(a: *const f64, m: usize, kc: usize, x: *const f64, y: *mut f64) {
        let mut c0 = _mm256_loadu_pd(y);
        for kk in 0..kc {
            let a0 = _mm256_loadu_pd(a.add(kk * m));
            c0 = _mm256_fmadd_pd(a0, _mm256_set1_pd(*x.add(kk)), c0);
        }
        _mm256_storeu_pd(y, c0);
    }
}

impl Matrix {
    /// `c += self · b`, blocked over columns of `b`.
    pub fn matmul_acc_into(&self, b: &Matrix, c: &mut Matrix) {
        assert_eq!(self.cols(), b.rows(), "inner dimensions must agree");
        assert_eq!(c.rows(), self.rows(), "c rows must equal self.rows()");
        assert_eq!(c.cols(), b.cols(), "c cols must equal b.cols()");
        gemm_acc_panels(self, b.data(), c.data_mut());
    }

    /// `c = self · b` into a caller-owned matrix.
    pub fn matmul_into(&self, b: &Matrix, c: &mut Matrix) {
        c.data_mut().fill(0.0);
        self.matmul_acc_into(b, c);
    }

    /// Multi-RHS `ys += self · xs` on packed column-major panels.
    ///
    /// `xs` holds `n` source vectors of length `self.cols()` back to back;
    /// `ys` holds `n` accumulators of length `self.rows()`.  This is the
    /// batched-edge entry point: each output column is bitwise independent
    /// of the panel's width and composition (see the module docs for the
    /// exact relation to per-edge [`Matrix::matvec_acc`]).
    pub fn matvec_batch_acc(&self, xs: &[f64], ys: &mut [f64]) {
        gemm_acc_panels(self, xs, ys);
    }

    /// [`Matrix::matvec_batch_acc`] with each source vector its own slice
    /// (no packed panel to gather into); same per-column bits.
    pub fn matvec_batch_acc_cols(&self, xs: &[&[f64]], ys: &mut [f64]) {
        gemm_acc_cols(self, xs, ys);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_matrix(m: usize, k: usize) -> Matrix {
        Matrix::from_fn(m, k, |i, j| {
            let v = ((i * 31 + j * 17) % 23) as f64 - 11.0;
            v * 0.173 + (i as f64) * 1e-3
        })
    }

    fn test_panel(k: usize, n: usize, zeros: bool) -> Vec<f64> {
        (0..k * n)
            .map(|t| {
                if zeros && t % 7 == 0 {
                    0.0
                } else {
                    ((t * 131 % 53) as f64 - 26.0) * 0.059
                }
            })
            .collect()
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = 1.0_f64.max(w.abs());
            assert!((g - w).abs() <= 1e-13 * scale, "{what}[{i}]: {g} vs {w}");
        }
    }

    /// The portable kernel's contract: batched output is bitwise equal to
    /// per-edge matvec_acc, for panel widths around the NR blocking boundary.
    #[test]
    fn portable_batch_bitwise_matches_per_edge() {
        let (m, k) = (13, 9);
        let a = test_matrix(m, k);
        for n in [0, 1, NR - 1, NR, NR + 1, 2 * NR, 2 * NR + 3] {
            for zeros in [false, true] {
                let xs = test_panel(k, n, zeros);
                let mut ys = vec![0.1; m * n];
                gemm_acc_portable(&a, &xs, &mut ys);
                for j in 0..n {
                    let mut yref = vec![0.1; m];
                    a.matvec_acc(&xs[j * k..(j + 1) * k], &mut yref);
                    assert_eq!(&ys[j * m..(j + 1) * m], &yref[..], "n={n} col={j}");
                }
            }
        }
    }

    /// The dispatcher's contract: output per column matches per-edge
    /// matvec_acc to rounding (exactly, unless the FMA kernel is active).
    #[test]
    fn dispatched_batch_matches_per_edge_to_rounding() {
        for (m, k) in [(13, 9), (8, 8), (56, 56), (3, 5), (17, 2)] {
            let a = test_matrix(m, k);
            for n in [1, 3, 4, 5, NR, 2 * NR + 3] {
                let xs = test_panel(k, n, true);
                let mut ys = vec![0.0; m * n];
                a.matvec_batch_acc(&xs, &mut ys);
                for j in 0..n {
                    let mut yref = vec![0.0; m];
                    a.matvec_acc(&xs[j * k..(j + 1) * k], &mut yref);
                    assert_close(&ys[j * m..(j + 1) * m], &yref, "col");
                }
            }
        }
    }

    /// The contract the runtime batcher relies on: splitting a panel into
    /// arbitrary sub-panels gives bitwise identical columns, whichever
    /// kernel is active.
    #[test]
    fn batch_composition_does_not_change_bits() {
        let (m, k) = (21, 14);
        let a = test_matrix(m, k);
        let n = 23;
        let xs = test_panel(k, n, true);
        let mut whole = vec![0.0; m * n];
        a.matvec_batch_acc(&xs, &mut whole);
        for split in [1usize, 2, 3, 4, 7, 8, 11] {
            let mut pieces = vec![0.0; m * n];
            let mut j = 0;
            while j < n {
                let e = (j + split).min(n);
                a.matvec_batch_acc(&xs[j * k..e * k], &mut pieces[j * m..e * m]);
                j = e;
            }
            assert_eq!(whole, pieces, "split={split}");
        }
    }

    /// Shapes that cross the kernel's cache blocking — more than one `k`
    /// block, more than one column panel, both with remainders — keep both
    /// contracts: per-edge to rounding, sub-panels bitwise.
    #[test]
    fn blocked_shapes_keep_both_contracts() {
        for (m, k, n) in [(13, 600, 5), (9, 20, 71), (12, 530, 37)] {
            let a = test_matrix(m, k);
            let xs = test_panel(k, n, true);
            let mut whole = vec![0.0; m * n];
            a.matvec_batch_acc(&xs, &mut whole);
            for j in 0..n {
                let mut yref = vec![0.0; m];
                a.matvec_acc(&xs[j * k..(j + 1) * k], &mut yref);
                assert_close(&whole[j * m..(j + 1) * m], &yref, "col");
            }
            for split in [1usize, 3, 32, 33] {
                let mut pieces = vec![0.0; m * n];
                let mut j = 0;
                while j < n {
                    let e = (j + split).min(n);
                    a.matvec_batch_acc(&xs[j * k..e * k], &mut pieces[j * m..e * m]);
                    j = e;
                }
                assert_eq!(whole, pieces, "{m}x{k}x{n} split={split}");
            }
        }
    }

    /// The gather-free entry point computes the packed one's bits.
    #[test]
    fn separate_columns_match_packed_panel_bitwise() {
        for (m, k, n) in [(21, 14, 23), (13, 600, 5), (9, 20, 71)] {
            let a = test_matrix(m, k);
            let xs = test_panel(k, n, true);
            let mut packed = vec![0.5; m * n];
            a.matvec_batch_acc(&xs, &mut packed);
            let cols: Vec<&[f64]> = xs.chunks_exact(k).collect();
            let mut separate = vec![0.5; m * n];
            a.matvec_batch_acc_cols(&cols, &mut separate);
            assert_eq!(packed, separate, "{m}x{k}x{n}");
        }
    }

    #[test]
    #[should_panic]
    fn short_column_panics() {
        let a = test_matrix(5, 3);
        let mut ys = vec![0.0; 5];
        a.matvec_batch_acc_cols(&[&[1.0, 2.0]], &mut ys);
    }

    #[test]
    fn fma_kernel_matches_portable_to_rounding() {
        if !fma_kernel_active() {
            return;
        }
        let (m, k) = (19, 11);
        let a = test_matrix(m, k);
        let n = 13;
        let xs = test_panel(k, n, true);
        let mut fast = vec![0.25; m * n];
        a.matvec_batch_acc(&xs, &mut fast);
        let mut slow = vec![0.25; m * n];
        gemm_acc_portable(&a, &xs, &mut slow);
        assert_close(&fast, &slow, "fma vs portable");
    }

    #[test]
    fn matmul_acc_into_accumulates() {
        let a = test_matrix(6, 4);
        let b = Matrix::from_col_major(4, 10, test_panel(4, 10, true));
        let mut c = Matrix::from_fn(6, 10, |i, j| (i + j) as f64 * 0.5);
        let base = c.clone();
        a.matmul_acc_into(&b, &mut c);
        let prod = a.matmul(&b);
        for j in 0..10 {
            for i in 0..6 {
                // Accumulating onto a non-zero base reorders the additions
                // relative to base + (product from zero), so compare with a
                // tolerance rather than bitwise.
                assert!((c[(i, j)] - (base[(i, j)] + prod[(i, j)])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matmul_into_matches_matmul() {
        let a = test_matrix(7, 5);
        let b = Matrix::from_col_major(5, 9, test_panel(5, 9, false));
        let mut c = Matrix::zeros(7, 9);
        a.matmul_into(&b, &mut c);
        assert_eq!(c, a.matmul(&b));
    }

    #[test]
    fn empty_panels_are_noops() {
        let a = test_matrix(5, 3);
        let mut ys: Vec<f64> = vec![];
        a.matvec_batch_acc(&[], &mut ys);
        assert!(ys.is_empty());
    }

    #[test]
    #[should_panic]
    fn ragged_panel_panics() {
        let a = test_matrix(5, 3);
        let mut ys = vec![0.0; 5];
        a.matvec_batch_acc(&[1.0, 2.0], &mut ys);
    }

    #[test]
    #[should_panic]
    fn wrong_output_len_panics() {
        let a = test_matrix(5, 3);
        let mut ys = vec![0.0; 4];
        a.matvec_batch_acc(&[1.0, 2.0, 3.0], &mut ys);
    }
}

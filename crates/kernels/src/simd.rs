//! The AVX2+FMA loops behind the built-in kernels.
//!
//! Every particle-facing evaluation has one of two shapes.  `S→T`, `M→T`,
//! `L→T`, the direct-sum oracle and the resident query are **rows**: one
//! target summed over a run of SoA sources ([`Kernel::potential_rows`],
//! [`Kernel::field_rows`]).  `S→M` and `S→L` are **surface columns**: every
//! point of a check surface summed over one leaf's sources
//! ([`Kernel::surface_potentials`]).  This module holds the vector loop of
//! each shape; the built-in kernels route both through it.
//!
//! **Rows.**
//!
//! * targets go in blocks of four; each source vector is loaded once per
//!   block, and every target keeps its sums in registers, so no separation,
//!   kernel-value or displacement tile is stored and read back;
//! * the last `n mod 4` sources take the scalar pair path after the
//!   horizontal reduction.
//!
//! **Surface columns.**  A leaf has a dozen or so sources, so a row per
//! check point would be mostly set-up, reduction and scalar tail.  Instead
//! the points go in the lanes: four points per vector, four vectors per
//! block, and each source is broadcast once per block.  Every point sums the
//! sources in order in its own lane, so there is no reduction and no tail;
//! the last vector of the surface is padded with a copy of its last point,
//! whose lanes are computed and dropped.
//!
//! In both loops, lanes outside the vector estimate's range — `r² = 0` (the
//! excluded self-interaction), below the normal-f32 floor the `rsqrt`
//! estimate needs, past the kernel's underflow cutoff — are recomputed by
//! the scalar [`Kernel::eval`] / [`Kernel::deriv`] and blended in before
//! the multiply-add, so correctness never depends on the estimate's domain.
//!
//! A kernel supplies only its lane function (`Lane`): **Laplace** the
//! 12-bit hardware `rsqrt` estimate refined by a Newton step and a
//! third-order step (no `sqrt`, no divide); **Yukawa** `sqrt`, a vector
//! `exp` and a divide;
//! **Gauss** the vector `exp` alone.  The `exp` is a Cody–Waite range
//! reduction, a degree-13 Horner polynomial and exponent-bit scaling.
//!
//! **Block invariance.**  The block width is a const generic: a remainder
//! block of one to three targets (of one to three surface vectors) is its
//! own instantiation, not a padded full block.  Each target (each surface
//! point) has one accumulator per value, walks the sources in order and is
//! reduced the same way at every width and slot, so its value is bitwise
//! the same whichever targets share its call, and a surface point's value
//! is bitwise the same on any prefix of its surface — what keeps the
//! resident engine batch-composition invariant to 0 ulp.
//!
//! Dispatch follows `dashmm_linalg`'s `gemm` module: AVX2+FMA presence is
//! detected once at runtime and cached, and the scalar trait default is
//! the portable fallback on every other machine.  The vector loops agree
//! with the scalar ones to ≤ 1e-14 of `Σ|w·K|` (`tests/batched_kernels.rs`).

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

use crate::kernel::{scalar_rows, scalar_surface, Gauss, Kernel, Laplace, Sources, Yukawa};

/// Whether the vectorized kernel rows are in use on this machine.
pub fn simd_kernels_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        avx2::active()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Squared separations a lane function may see: the `rsqrt` estimate needs
/// its input representable as a positive normal f32.  Zero and
/// denormal-range values fall below the floor and take the scalar fix-up.
const R2_MIN: f64 = 1.2e-38;
const R2_MAX: f64 = 3.0e38;

/// A kernel's vector lane function: four squared separations in
/// `[R2_MIN, r2_max()]` to `K(r)` (and `K'(r)/r`).
///
/// # Safety
///
/// `potential` and `field` may be called only where AVX2+FMA is present.
pub(crate) trait Lane: Kernel {
    /// Largest squared separation the lane function evaluates.
    fn r2_max(&self) -> f64 {
        R2_MAX
    }

    /// `K(r)` at `r = √r2`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn potential(&self, r2: __m256d) -> __m256d;

    /// `(K(r), K'(r)/r)` at `r = √r2`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn field(&self, r2: __m256d) -> (__m256d, __m256d);
}

/// The rows of a kernel with a lane function: the vector loop where
/// AVX2+FMA is present, the scalar default elsewhere.
pub(crate) fn rows<K: Lane, const FIELD: bool>(
    k: &K,
    targets: impl IntoIterator<Item = [f64; 3]>,
    s: Sources<'_>,
    out: &mut [f64],
) {
    let n = s.w.len();
    assert!(
        s.x.len() == n && s.y.len() == n && s.z.len() == n,
        "one position per source weight"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2::active() {
        // SAFETY: AVX2+FMA presence was just checked and the source slices
        // have one length.
        unsafe { avx2::rows::<K, FIELD>(k, targets, s, out) };
        return;
    }
    scalar_rows::<K, FIELD>(k, targets, s, out);
}

/// The surface potentials of a kernel with a lane function: the vector
/// loop where AVX2+FMA is present, the scalar default elsewhere.
pub(crate) fn surface<K: Lane>(
    k: &K,
    p: [&[f64]; 3],
    c: [f64; 3],
    s: Sources<'_>,
    out: &mut [f64],
) {
    let (m, n) = (p[0].len(), s.w.len());
    assert!(
        p[1].len() == m && p[2].len() == m && out.len() == m,
        "one output per surface point"
    );
    assert!(
        s.x.len() == n && s.y.len() == n && s.z.len() == n,
        "one position per source weight"
    );
    #[cfg(target_arch = "x86_64")]
    if avx2::active() {
        // SAFETY: AVX2+FMA presence was just checked, the surface
        // coordinates and `out` have one length and the source slices
        // another.
        unsafe { avx2::surface(k, p, c, s, out) };
        return;
    }
    scalar_surface(k, p, c, s, out);
}

impl Lane for Laplace {
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn potential(&self, r2: __m256d) -> __m256d {
        avx2::rsqrt_nr(r2)
    }

    /// `K'(r)/r = −1/r³`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn field(&self, r2: __m256d) -> (__m256d, __m256d) {
        let rinv = avx2::rsqrt_nr(r2);
        let rinv3 = _mm256_mul_pd(_mm256_mul_pd(rinv, rinv), rinv);
        (rinv, _mm256_mul_pd(rinv3, _mm256_set1_pd(-1.0)))
    }
}

/// `r` comes from the correctly rounded `sqrt`, so the `exp` argument is
/// bitwise the scalar path's; otherwise the `λr`-scaled sensitivity of the
/// exponential would eat the error budget.
impl Lane for Yukawa {
    /// Past this `e^{−λr}` underflows anyway: the scalar path decides, and
    /// the vector `exp` stays off the subnormal-result range.
    fn r2_max(&self) -> f64 {
        ((700.0 / self.lambda) * (700.0 / self.lambda)).min(R2_MAX)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn potential(&self, r2: __m256d) -> __m256d {
        let r = _mm256_sqrt_pd(r2);
        let e = avx2::exp_nonpos(_mm256_mul_pd(_mm256_set1_pd(-self.lambda), r));
        _mm256_div_pd(e, r)
    }

    /// `K'(r)/r = −(1+λr)·e^{−λr}/r³`, grouped as the scalar `−(t/r²)/r`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn field(&self, r2: __m256d) -> (__m256d, __m256d) {
        let r = _mm256_sqrt_pd(r2);
        let e = avx2::exp_nonpos(_mm256_mul_pd(_mm256_set1_pd(-self.lambda), r));
        let t = _mm256_mul_pd(
            _mm256_fmadd_pd(_mm256_set1_pd(self.lambda), r, _mm256_set1_pd(1.0)),
            e,
        );
        let d = _mm256_div_pd(_mm256_div_pd(t, r2), r);
        (_mm256_div_pd(e, r), _mm256_sub_pd(_mm256_setzero_pd(), d))
    }
}

/// The exponent is formed from the rounded square `(√r2)²`, bitwise the
/// scalar path's argument: at deep decay that double rounding is the whole
/// error budget.  No reciprocal and no divide anywhere.
impl Lane for Gauss {
    /// Keeps the `exp` argument above the underflow fix-up threshold.
    fn r2_max(&self) -> f64 {
        (690.0 / self.inv_s2()).min(R2_MAX)
    }

    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn potential(&self, r2: __m256d) -> __m256d {
        let r = _mm256_sqrt_pd(r2);
        let x = _mm256_mul_pd(_mm256_set1_pd(-self.inv_s2()), _mm256_mul_pd(r, r));
        avx2::exp_nonpos(x)
    }

    /// `K'(r)/r = −2/σ²·e^{−r²/σ²}`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn field(&self, r2: __m256d) -> (__m256d, __m256d) {
        let e = self.potential(r2);
        (e, _mm256_mul_pd(_mm256_set1_pd(-2.0 * self.inv_s2()), e))
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    use super::{Lane, R2_MIN};
    use crate::kernel::{pair, Sources};

    /// Runtime AVX2+FMA detection, cached.
    pub(super) fn active() -> bool {
        static AVAIL: OnceLock<bool> = OnceLock::new();
        *AVAIL.get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }

    /// `1/√x` for four positive normal-f32-range lanes: the hardware
    /// 12-bit estimate, one Newton–Raphson step `y ← y·(3/2 − x/2·y²)`
    /// (24 bits), then one third-order step `y ← y + y·e·(1/2 + 3/8·e)`
    /// with `e = 1 − x·y²` (72 bits, so rounding-limited).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn rsqrt_nr(x: __m256d) -> __m256d {
        let y = _mm256_cvtps_pd(_mm_rsqrt_ps(_mm256_cvtpd_ps(x)));
        let half_x = _mm256_mul_pd(_mm256_set1_pd(0.5), x);
        let y = _mm256_mul_pd(
            y,
            _mm256_fnmadd_pd(half_x, _mm256_mul_pd(y, y), _mm256_set1_pd(1.5)),
        );
        let e = _mm256_fnmadd_pd(x, _mm256_mul_pd(y, y), _mm256_set1_pd(1.0));
        let c = _mm256_mul_pd(
            e,
            _mm256_fmadd_pd(e, _mm256_set1_pd(0.375), _mm256_set1_pd(0.5)),
        );
        _mm256_fmadd_pd(y, c, y)
    }

    /// `exp(x)` for non-positive lanes (the kernels only need decaying
    /// exponentials); lanes below the f64 underflow threshold flush to 0.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn exp_nonpos(x: __m256d) -> __m256d {
        const LOG2E: f64 = std::f64::consts::LOG2_E;
        // Cody–Waite split of ln 2: the high part is exact in 32 bits, so
        // `x − n·LN2_HI` is exact and the reduced argument keeps full
        // precision even for |n| up to ~1024.
        const LN2_HI: f64 = 6.931_457_519_531_25e-1;
        const LN2_LO: f64 = 1.428_606_820_309_417_2e-6;
        const UNDERFLOW: f64 = -708.0;
        // n = round(x / ln 2)
        let n = _mm256_round_pd(
            _mm256_mul_pd(x, _mm256_set1_pd(LOG2E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        // r = x − n·ln2, |r| ≤ ln2/2
        let r = _mm256_fnmadd_pd(
            n,
            _mm256_set1_pd(LN2_LO),
            _mm256_fnmadd_pd(n, _mm256_set1_pd(LN2_HI), x),
        );
        // exp(r) by a degree-13 Horner polynomial (truncation ~4e-18 on
        // the reduced range, below f64 rounding).
        const C: [f64; 14] = [
            1.0 / 6_227_020_800.0, // 1/13!
            1.0 / 479_001_600.0,
            1.0 / 39_916_800.0,
            1.0 / 3_628_800.0,
            1.0 / 362_880.0,
            1.0 / 40_320.0,
            1.0 / 5_040.0,
            1.0 / 720.0,
            1.0 / 120.0,
            1.0 / 24.0,
            1.0 / 6.0,
            0.5,
            1.0,
            1.0,
        ];
        let mut p = _mm256_set1_pd(C[0]);
        for &c in &C[1..] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c));
        }
        // 2^n through the exponent bits: (n + 1023) << 52.  n ∈ [−1022, 0]
        // for arguments above the underflow cutoff, so the biased exponent
        // stays in the normal range.
        let ni = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n));
        let pow2 = _mm256_castsi256_pd(_mm256_slli_epi64(
            _mm256_add_epi64(ni, _mm256_set1_epi64x(1023)),
            52,
        ));
        let y = _mm256_mul_pd(p, pow2);
        // Flush underflowed lanes to zero.
        let keep = _mm256_cmp_pd(x, _mm256_set1_pd(UNDERFLOW), _CMP_GE_OQ);
        _mm256_and_pd(y, keep)
    }

    /// Rows in blocks of four targets, the remainder block at its own width.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be present and every slice of `s` must have the
    /// length of `s.w`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn rows<K: Lane, const FIELD: bool>(
        k: &K,
        targets: impl IntoIterator<Item = [f64; 3]>,
        s: Sources<'_>,
        out: &mut [f64],
    ) {
        let per = if FIELD { 4 } else { 1 };
        let mut targets = targets.into_iter();
        let mut done = 0;
        loop {
            let mut t = [[0.0; 3]; 4];
            let mut b = 0;
            while b < 4 {
                let Some(p) = targets.next() else { break };
                t[b] = p;
                b += 1;
            }
            let o = &mut out[per * done..per * (done + b)];
            match b {
                4 => block::<K, 4, FIELD>(k, &t, s, o),
                3 => block::<K, 3, FIELD>(k, &t, s, o),
                2 => block::<K, 2, FIELD>(k, &t, s, o),
                1 => block::<K, 1, FIELD>(k, &t, s, o),
                _ => {}
            }
            if b < 4 {
                return;
            }
            done += b;
        }
    }

    /// The first `B` targets of `t` against every source, `out` holding
    /// their rows.  Each target's arithmetic is independent of `B` and of
    /// its slot.
    ///
    /// # Safety
    ///
    /// As for [`rows`].
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn block<K: Lane, const B: usize, const FIELD: bool>(
        k: &K,
        t: &[[f64; 3]; 4],
        s: Sources<'_>,
        out: &mut [f64],
    ) {
        let n = s.w.len();
        let zero = _mm256_setzero_pd();
        let mut tv = [[zero; 3]; B];
        for b in 0..B {
            for a in 0..3 {
                tv[b][a] = _mm256_set1_pd(t[b][a]);
            }
        }
        let mut acc = [[zero; 4]; B];
        let mut j = 0;
        while j + 4 <= n {
            // SAFETY: j + 4 ≤ n, and every source slice has length n.
            let sx = _mm256_loadu_pd(s.x.as_ptr().add(j));
            let sy = _mm256_loadu_pd(s.y.as_ptr().add(j));
            let sz = _mm256_loadu_pd(s.z.as_ptr().add(j));
            let sw = _mm256_loadu_pd(s.w.as_ptr().add(j));
            let (mut d, mut r2, mut kv, mut dv) = ([[zero; 3]; B], [zero; B], [zero; B], [zero; B]);
            let mut ok = _mm256_cmp_pd(zero, zero, _CMP_TRUE_UQ);
            for b in 0..B {
                d[b] = [
                    _mm256_sub_pd(tv[b][0], sx),
                    _mm256_sub_pd(tv[b][1], sy),
                    _mm256_sub_pd(tv[b][2], sz),
                ];
                let [dx, dy, dz] = d[b];
                r2[b] = _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
                (kv[b], dv[b]) = if FIELD {
                    k.field(r2[b])
                } else {
                    (k.potential(r2[b]), zero)
                };
                ok = _mm256_and_pd(ok, in_range(k, r2[b]));
            }
            if _mm256_movemask_pd(ok) != 0xf {
                (kv, dv) = fix_up::<K, B, FIELD>(k, r2, kv, dv);
            }
            for b in 0..B {
                let a = &mut acc[b];
                a[0] = _mm256_fmadd_pd(sw, kv[b], a[0]);
                if FIELD {
                    let c = _mm256_mul_pd(sw, dv[b]);
                    for v in 0..3 {
                        a[1 + v] = _mm256_fmadd_pd(c, d[b][v], a[1 + v]);
                    }
                }
            }
            j += 4;
        }
        let per = if FIELD { 4 } else { 1 };
        for b in 0..B {
            let mut sum = [0.0; 4];
            for v in 0..per {
                let mut l = [0.0; 4];
                _mm256_storeu_pd(l.as_mut_ptr(), acc[b][v]);
                sum[v] = (l[0] + l[1]) + (l[2] + l[3]);
            }
            for i in j..n {
                let d = [t[b][0] - s.x[i], t[b][1] - s.y[i], t[b][2] - s.z[i]];
                pair::<K, FIELD>(k, d, s.w[i], &mut sum);
            }
            for v in 0..per {
                out[per * b + v] += sum[v];
            }
        }
    }

    /// Surface columns in blocks of four vectors of four points, the
    /// remainder block at its own width.
    ///
    /// # Safety
    ///
    /// AVX2+FMA must be present, the three coordinate slices of `p` and
    /// `out` must have one length, and every slice of `s` the length of
    /// `s.w`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn surface<K: Lane>(
        k: &K,
        p: [&[f64]; 3],
        c: [f64; 3],
        s: Sources<'_>,
        out: &mut [f64],
    ) {
        let m = out.len();
        let mut i = 0;
        while i < m {
            let o = &mut out[i..];
            match (m - i).div_ceil(4) {
                1 => column_block::<K, 1>(k, p, c, i, s, o),
                2 => column_block::<K, 2>(k, p, c, i, s, o),
                3 => column_block::<K, 3>(k, p, c, i, s, o),
                _ => column_block::<K, 4>(k, p, c, i, s, o),
            }
            i += 16;
        }
    }

    /// Surface points `i0 .. i0 + 4V` (the last vector padded with copies
    /// of point `m − 1`) against every source, adding to `out[..]` from
    /// the block's first point.  Each lane's arithmetic is independent of
    /// `V`, of its vector and of its lane.
    ///
    /// # Safety
    ///
    /// As for [`surface`]; `i0` is below the surface length.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn column_block<K: Lane, const V: usize>(
        k: &K,
        p: [&[f64]; 3],
        c: [f64; 3],
        i0: usize,
        s: Sources<'_>,
        out: &mut [f64],
    ) {
        let m = p[0].len();
        let zero = _mm256_setzero_pd();
        let mut tv = [[zero; 3]; V];
        for v in 0..V {
            let i = i0 + 4 * v;
            for a in 0..3 {
                let x = if i + 4 <= m {
                    // SAFETY: i + 4 ≤ m, the length of every coordinate slice.
                    _mm256_loadu_pd(p[a].as_ptr().add(i))
                } else {
                    let l: [f64; 4] = std::array::from_fn(|q| p[a][(i + q).min(m - 1)]);
                    _mm256_loadu_pd(l.as_ptr())
                };
                tv[v][a] = _mm256_add_pd(x, _mm256_set1_pd(c[a]));
            }
        }
        let mut acc = [zero; V];
        let sources = s.x.iter().zip(s.y).zip(s.z).zip(s.w);
        for (((x, y), z), w) in sources {
            let (sx, sy) = (_mm256_broadcast_sd(x), _mm256_broadcast_sd(y));
            let (sz, sw) = (_mm256_broadcast_sd(z), _mm256_broadcast_sd(w));
            let (mut r2, mut kv) = ([zero; V], [zero; V]);
            let mut ok = _mm256_cmp_pd(zero, zero, _CMP_TRUE_UQ);
            for v in 0..V {
                let dx = _mm256_sub_pd(tv[v][0], sx);
                let dy = _mm256_sub_pd(tv[v][1], sy);
                let dz = _mm256_sub_pd(tv[v][2], sz);
                r2[v] = _mm256_fmadd_pd(dz, dz, _mm256_fmadd_pd(dy, dy, _mm256_mul_pd(dx, dx)));
                kv[v] = k.potential(r2[v]);
                ok = _mm256_and_pd(ok, in_range(k, r2[v]));
            }
            if _mm256_movemask_pd(ok) != 0xf {
                (kv, _) = fix_up::<K, V, false>(k, r2, kv, [zero; V]);
            }
            for v in 0..V {
                acc[v] = _mm256_fmadd_pd(sw, kv[v], acc[v]);
            }
        }
        for v in 0..V {
            let mut l = [0.0; 4];
            _mm256_storeu_pd(l.as_mut_ptr(), acc[v]);
            for (o, x) in out.iter_mut().skip(4 * v).take(4).zip(l) {
                *o += x;
            }
        }
    }

    /// Lanes whose squared separation the lane function may evaluate.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn in_range<K: Lane>(k: &K, r2: __m256d) -> __m256d {
        _mm256_and_pd(
            _mm256_cmp_pd(r2, _mm256_set1_pd(R2_MIN), _CMP_GE_OQ),
            _mm256_cmp_pd(r2, _mm256_set1_pd(k.r2_max()), _CMP_LE_OQ),
        )
    }

    /// Recompute the lanes out of range by the scalar `eval` / `deriv` and
    /// blend them into `kv` (and `dv` for a field row).  Off the hot path:
    /// its arguments travel by value, so nothing of the caller's
    /// accumulation has to live in memory.
    #[cold]
    #[inline(never)]
    #[target_feature(enable = "avx2,fma")]
    fn fix_up<K: Lane, const B: usize, const FIELD: bool>(
        k: &K,
        r2: [__m256d; B],
        mut kv: [__m256d; B],
        mut dv: [__m256d; B],
    ) -> ([__m256d; B], [__m256d; B]) {
        for b in 0..B {
            let ok = _mm256_movemask_pd(in_range(k, r2[b]));
            let (mut d2, mut kl, mut dl) = ([0.0; 4], [0.0; 4], [0.0; 4]);
            // SAFETY: each array holds exactly one vector.
            unsafe {
                _mm256_storeu_pd(d2.as_mut_ptr(), r2[b]);
                _mm256_storeu_pd(kl.as_mut_ptr(), kv[b]);
                _mm256_storeu_pd(dl.as_mut_ptr(), dv[b]);
            }
            for l in (0..4).filter(|l| ok & (1 << l) == 0) {
                let r = d2[l].sqrt();
                kl[l] = k.eval(r);
                if FIELD {
                    dl[l] = if r > 0.0 { k.deriv(r) / r } else { 0.0 };
                }
            }
            // SAFETY: as above.
            unsafe {
                kv[b] = _mm256_loadu_pd(kl.as_ptr());
                dv[b] = _mm256_loadu_pd(dl.as_ptr());
            }
        }
        (kv, dv)
    }
}

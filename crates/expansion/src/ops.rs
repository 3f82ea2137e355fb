//! Application of the translation operators.
//!
//! These free functions are the computational payload of the DAG tasks: the
//! runtime schedules them, the tables supply the matrices, and the buffers
//! are owned by the caller (expansion LCOs), so the hot path allocates
//! nothing beyond what the operator caches build once per level.
//!
//! The particle-facing operators (`p2p`, `s2m`, `s2l`, `m2t`, `l2t` and
//! their gradient variants) are calls into the kernel's vectorized sums
//! (AVX2+FMA on capable hardware), each value formed in registers.  What
//! is a target and what is a source:
//!
//! * `S→T`: the tree's points are the targets of rows
//!   ([`Kernel::potential_rows`] / [`Kernel::field_rows`]); the source
//!   leaves are gathered once into the workspace's SoA buffers.
//! * `S→M` / `S→L`: the level's check surface is summed as surface
//!   columns ([`Kernel::surface_potentials`]): its SoA coordinates are read
//!   in place ([`Surface::coords`]) and placed at the box center lane by
//!   lane; the leaf's points are gathered as the sources.  Both go through
//!   [`s2m_check`], on the upward or the downward check surface.
//! * `M→T` / `L→T`: the level's equivalent surface is read in place as the
//!   sources of rows, the expansion being its weights
//!   ([`Surface::sources`]); the targets are taken relative to the box
//!   center.  Nothing is gathered, and `ws` is not touched.
//!
//! All scratch comes from the caller's per-worker [`BatchWorkspace`]; no
//! per-call `vec!` remains on the hot path.

use std::borrow::Borrow;

use dashmm_kernels::{Kernel, Sources};
use dashmm_tree::{Direction, Point3};

use crate::batch::BatchWorkspace;
use crate::surface::Surface;
use crate::tables::LevelTables;

/// Gather point blocks and their weights into the workspace's SoA source
/// buffers.  Capacity is retained across calls, so steady-state gathers
/// allocate nothing.
fn gather<'w, 'a>(
    ws: &'w mut BatchWorkspace,
    blocks: impl IntoIterator<Item = (&'a [Point3], &'a [f64])>,
) -> Sources<'w> {
    ws.sx.clear();
    ws.sy.clear();
    ws.sz.clear();
    ws.sw.clear();
    for (pts, weights) in blocks {
        debug_assert_eq!(pts.len(), weights.len());
        ws.sx.extend(pts.iter().map(|p| p.x));
        ws.sy.extend(pts.iter().map(|p| p.y));
        ws.sz.extend(pts.iter().map(|p| p.z));
        ws.sw.extend_from_slice(weights);
    }
    Sources {
        x: &ws.sx,
        y: &ws.sy,
        z: &ws.sz,
        w: &ws.sw,
    }
}

/// `targets` as row targets relative to `origin`.
fn rel(
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    origin: Point3,
) -> impl Iterator<Item = [f64; 3]> {
    targets.into_iter().map(move |p| {
        let p = p.borrow();
        [p.x - origin.x, p.y - origin.y, p.z - origin.z]
    })
}

/// `S→M`: project the sources of a leaf box onto its upward equivalent
/// densities.  `sources` are world positions; `out` (length
/// `expansion_len`) is overwritten.
pub fn s2m<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    center: Point3,
    sources: &[Point3],
    charges: &[f64],
    ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), t.expansion_len());
    let mut check = std::mem::take(&mut ws.check);
    check.resize(t.uc().len(), 0.0);
    s2m_check(kernel, t.uc(), center, sources, charges, ws, &mut check);
    t.uc2ue().matvec_into(&check, out);
    ws.check = check;
}

/// The potentials of a leaf's `sources` on a check `surface` placed at
/// `center`, written to `check` (length `surface.len()`): the right-hand
/// side `S→M` solves with `uc2ue` on the upward check surface, and `S→L`
/// with `dc2de` on the downward one.  The batched upward pass stacks one
/// column per leaf into a panel and solves them all with one GEMM.
pub fn s2m_check<K: Kernel>(
    kernel: &K,
    surface: &Surface,
    center: Point3,
    sources: &[Point3],
    charges: &[f64],
    ws: &mut BatchWorkspace,
    check: &mut [f64],
) {
    debug_assert_eq!(sources.len(), charges.len());
    check.fill(0.0);
    kernel.surface_potentials(
        surface.coords(),
        [center.x, center.y, center.z],
        gather(ws, [(sources, charges)]),
        check,
    );
}

/// `M→M`: accumulate a child multipole into its parent.  `t` is the
/// *parent* level's tables.
pub fn m2m(t: &LevelTables, octant: u8, child_m: &[f64], parent_m: &mut [f64]) {
    t.m2m(octant).matvec_acc(child_m, parent_m);
}

/// `M→L`: accumulate a same-level well-separated multipole into a target
/// local expansion.  `offset` is the integer grid offset (source minus
/// target) in box widths.
pub fn m2l<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    offset: (i8, i8, i8),
    src_m: &[f64],
    tgt_l: &mut [f64],
) {
    t.m2l(kernel, offset).matvec_acc(src_m, tgt_l);
}

/// `L→L`: accumulate a parent local expansion into a child.  `t` is the
/// *child* level's tables.
pub fn l2l(t: &LevelTables, octant: u8, parent_l: &[f64], child_l: &mut [f64]) {
    t.l2l(octant).matvec_acc(parent_l, child_l);
}

/// `S→L`: accumulate far sources (an `L4` leaf) directly into a target
/// box's local expansion.  `t` is the *target* level's tables.
pub fn s2l<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    tgt_center: Point3,
    sources: &[Point3],
    charges: &[f64],
    ws: &mut BatchWorkspace,
    tgt_l: &mut [f64],
) {
    let mut check = std::mem::take(&mut ws.check);
    check.resize(t.dc().len(), 0.0);
    s2m_check(kernel, t.dc(), tgt_center, sources, charges, ws, &mut check);
    t.dc2de().matvec_acc(&check, tgt_l);
    ws.check = check;
}

/// `M→T`: evaluate a multipole expansion at target points (`L3`), adding
/// to `out` (one value per target).  `t` is the *source* level's tables;
/// `ws` is not touched.
pub fn m2t<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    src_center: Point3,
    m: &[f64],
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    _ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    kernel.potential_rows(rel(targets, src_center), t.ue().sources(m), out);
}

/// `L→T`: evaluate a local expansion at the targets of a leaf box, adding
/// to `out`.  `t` is the *target* level's tables; `ws` is not touched.
pub fn l2t<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    tgt_center: Point3,
    l: &[f64],
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    _ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    kernel.potential_rows(rel(targets, tgt_center), t.de().sources(l), out);
}

/// `S→T`: direct near-field interaction (`L1`).
pub fn p2p<K: Kernel>(
    kernel: &K,
    sources: &[Point3],
    charges: &[f64],
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    p2p_fused(kernel, [(sources, charges)], targets, ws, out);
}

/// Fused `S→T`: one near-field evaluation of *several* source leaves
/// against a single target block.  The executor's S2T batcher routes all
/// near-field edges of a target leaf here, so the sources are gathered
/// into one SoA run and each target makes one row over all of them.
///
/// Summation order follows block deposit order, so results may differ
/// from edge-at-a-time accumulation by O(ulp) — the same freedom the
/// LCOs' unordered contribution reduction already has.
pub fn p2p_fused<'a, K: Kernel>(
    kernel: &K,
    blocks: impl IntoIterator<Item = (&'a [Point3], &'a [f64])>,
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    kernel.potential_rows(rel(targets, Point3::ZERO), gather(ws, blocks), out);
}

/// `S→T` with gradients.  `out` holds 4 values per target, accumulated as
/// `(φ, ∂φ/∂x, ∂φ/∂y, ∂φ/∂z)`.  The expansion representations are the
/// same as for the potential: only the final evaluation at the targets
/// differentiates the kernel ([`Kernel::field_rows`]).
pub fn p2p_grad<K: Kernel>(
    kernel: &K,
    sources: &[Point3],
    charges: &[f64],
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    p2p_grad_fused(kernel, [(sources, charges)], targets, ws, out);
}

/// Fused `S→T` with gradients — the 4-wide companion of [`p2p_fused`].
pub fn p2p_grad_fused<'a, K: Kernel>(
    kernel: &K,
    blocks: impl IntoIterator<Item = (&'a [Point3], &'a [f64])>,
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    kernel.field_rows(rel(targets, Point3::ZERO), gather(ws, blocks), out);
}

/// `M→T` with gradients: evaluate the multipole's equivalent sources.
pub fn m2t_grad<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    src_center: Point3,
    m: &[f64],
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    _ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    kernel.field_rows(rel(targets, src_center), t.ue().sources(m), out);
}

/// `L→T` with gradients: evaluate the local expansion's equivalent sources.
pub fn l2t_grad<K: Kernel>(
    kernel: &K,
    t: &LevelTables,
    tgt_center: Point3,
    l: &[f64],
    targets: impl IntoIterator<Item = impl Borrow<Point3>>,
    _ws: &mut BatchWorkspace,
    out: &mut [f64],
) {
    kernel.field_rows(rel(targets, tgt_center), t.de().sources(l), out);
}

/// `M→I` for one direction, per edge: form the outgoing plane-wave
/// coefficients of a box from its multipole (up-equivalent) densities.
/// `w` is the stacked `[Re; Im]` coefficient buffer and is overwritten.
///
/// The evaluation applies `M→I` batched over all six directions at once
/// ([`crate::batch::m2i_batch`]); this is the reference it is tested and
/// benchmarked against, reading direction `d`'s row block of the same
/// stacked table.
pub fn m2i(t: &LevelTables, d: Direction, m: &[f64], w: &mut [f64]) {
    let a = t.m2i();
    let rows = d.index() * w.len()..(d.index() + 1) * w.len();
    assert_eq!(m.len(), a.cols(), "multipole length must equal the table's");
    w.fill(0.0);
    for (k, &mk) in m.iter().enumerate() {
        for (o, c) in w.iter_mut().zip(&a.col(k)[rows.clone()]) {
            *o += c * mk;
        }
    }
}

/// `I→I`: translate plane-wave coefficients by the cached diagonal factors
/// and accumulate.  `fac` is `[re…; im…]`; `src`/`dst` are stacked
/// `[Re; Im]` — three unit-stride streams per half.
pub fn i2i_apply(fac: &[f64], src: &[f64], dst: &mut [f64]) {
    i2i_kernel::<true>(fac, src, dst);
}

/// [`i2i_apply`] into a buffer whose previous contents are discarded: the
/// same products, without the read of (and the zero-fill of) `dst`.
pub fn i2i_write(fac: &[f64], src: &[f64], dst: &mut [f64]) {
    i2i_kernel::<false>(fac, src, dst);
}

#[inline]
fn i2i_kernel<const ACC: bool>(fac: &[f64], src: &[f64], dst: &mut [f64]) {
    let t = src.len() / 2;
    assert_eq!(fac.len(), 2 * t, "factor length must equal the source's");
    assert_eq!(
        dst.len(),
        2 * t,
        "destination length must equal the source's"
    );
    let (fre, fim) = fac.split_at(t);
    let (sre, sim) = src.split_at(t);
    let (dre, dim) = dst.split_at_mut(t);
    for k in 0..t {
        let re = sre[k] * fre[k] - sim[k] * fim[k];
        let im = sre[k] * fim[k] + sim[k] * fre[k];
        if ACC {
            dre[k] += re;
            dim[k] += im;
        } else {
            dre[k] = re;
            dim[k] = im;
        }
    }
}

/// `I→L` for one direction, per edge: convert a direction's accumulated
/// incoming plane-wave coefficients into the box's local (down-equivalent)
/// densities, accumulating into `l`.
///
/// Reference for [`crate::batch::i2l_batch`], reading direction `d`'s
/// column block of the same stacked table.
pub fn i2l(t: &LevelTables, d: Direction, w: &[f64], l: &mut [f64]) {
    let a = t.i2l();
    assert_eq!(l.len(), a.rows(), "local length must equal the table's");
    for (k, &wk) in w.iter().enumerate() {
        for (o, c) in l.iter_mut().zip(a.col(d.index() * w.len() + k)) {
            *o += c * wk;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::AccuracyParams;
    use crate::tables::LevelTables;
    use dashmm_kernels::{direct_sum_at, Kernel, Laplace, Yukawa};

    const SIDE: f64 = 0.5;

    fn tb<K: Kernel>(kernel: &K, pw: bool) -> LevelTables {
        LevelTables::build(kernel, &AccuracyParams::three_digit(), 3, SIDE, pw)
    }

    /// Pseudo-random points in a box of side `side` around `center`.
    fn cloud(center: Point3, side: f64, n: usize, salt: u64) -> (Vec<Point3>, Vec<f64>) {
        let mut state = salt.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let pts = (0..n)
            .map(|_| center + Point3::new(next() * side, next() * side, next() * side))
            .collect();
        let charges = (0..n).map(|_| next() * 2.0).collect();
        (pts, charges)
    }

    fn as_arr(p: &Point3) -> [f64; 3] {
        [p.x, p.y, p.z]
    }

    fn direct<K: Kernel>(k: &K, src: &[Point3], q: &[f64], t: &Point3) -> f64 {
        let s: Vec<[f64; 3]> = src.iter().map(as_arr).collect();
        direct_sum_at(k, &s, q, &as_arr(t))
    }

    /// |error| relative to the kernel scale at closest valid separation.
    fn check_err(got: f64, want: f64, scale: f64, tol: f64, what: &str) {
        let err = (got - want).abs() / scale;
        assert!(err < tol, "{what}: got {got}, want {want}, err {err:.2e}");
    }

    #[test]
    fn s2m_check_is_the_right_hand_side_s2m_solves() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let t = tb(&k, false);
        let c = Point3::new(0.25, 0.25, 0.25);
        let (src, q) = cloud(c, SIDE, 40, 1);
        // A stale column must be overwritten, not added to.
        let mut check = vec![1.0; t.uc().len()];
        s2m_check(&k, t.uc(), c, &src, &q, &mut ws, &mut check);
        let mut via_check = vec![0.0; t.expansion_len()];
        t.uc2ue().matvec_into(&check, &mut via_check);
        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, c, &src, &q, &mut ws, &mut m);
        assert_eq!(via_check, m);
    }

    #[test]
    fn s2m_then_m2t_matches_direct_laplace() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let t = tb(&k, false);
        let c = Point3::new(0.25, 0.25, 0.25);
        let (src, q) = cloud(c, SIDE, 40, 1);
        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, c, &src, &q, &mut ws, &mut m);
        // Evaluate at points ≥ 2 boxes away (the L2/L3 validity region).
        for (i, tp) in [
            Point3::new(0.25 + 2.0 * SIDE, 0.25, 0.25),
            Point3::new(0.25, 0.25 - 2.5 * SIDE, 0.25 + SIDE),
            Point3::new(0.25 + 3.0 * SIDE, 0.25 + 3.0 * SIDE, 0.25 - 3.0 * SIDE),
        ]
        .iter()
        .enumerate()
        {
            let mut out = [0.0];
            m2t(&k, &t, c, &m, [*tp], &mut ws, &mut out);
            let want = direct(&k, &src, &q, tp);
            let qsum: f64 = q.iter().map(|x| x.abs()).sum();
            check_err(out[0], want, qsum / SIDE, 2e-3, &format!("target {i}"));
        }
    }

    #[test]
    fn m2m_preserves_far_field() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let parent_t = tb(&k, false);
        let child_t = LevelTables::build(&k, &AccuracyParams::three_digit(), 4, SIDE * 0.5, false);
        let pc = Point3::new(0.0, 0.0, 0.0);
        // Sources in child octant 5 (x+, y-, z+).
        let cc = pc + crate::tables::octant_offset(5, SIDE * 0.25);
        let (src, q) = cloud(cc, SIDE * 0.5, 30, 2);
        let mut child_m = vec![0.0; child_t.expansion_len()];
        s2m(&k, &child_t, cc, &src, &q, &mut ws, &mut child_m);
        let mut parent_m = vec![0.0; parent_t.expansion_len()];
        m2m(&parent_t, 5, &child_m, &mut parent_m);
        let tp = Point3::new(2.2 * SIDE, -1.1 * SIDE, 2.0 * SIDE);
        let mut out = [0.0];
        m2t(&k, &parent_t, pc, &parent_m, [tp], &mut ws, &mut out);
        let want = direct(&k, &src, &q, &tp);
        let qsum: f64 = q.iter().map(|x| x.abs()).sum();
        check_err(out[0], want, qsum / SIDE, 2e-3, "m2m far field");
    }

    fn m2l_case<K: Kernel>(k: K, name: &str) {
        let t = tb(&k, false);
        let mut ws = BatchWorkspace::default();
        // Source box two boxes east, one south, three up of the target box.
        let tc = Point3::new(0.1, 0.2, -0.3);
        let src_offset = (2i8, -1i8, 3i8);
        let sc = Point3::new(
            tc.x + src_offset.0 as f64 * SIDE,
            tc.y + src_offset.1 as f64 * SIDE,
            tc.z + src_offset.2 as f64 * SIDE,
        );
        let (src, q) = cloud(sc, SIDE, 35, 3);
        let (tgt, _) = cloud(tc, SIDE, 10, 4);
        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, sc, &src, &q, &mut ws, &mut m);
        let mut l = vec![0.0; t.expansion_len()];
        m2l(&k, &t, src_offset, &m, &mut l);
        let mut out = vec![0.0; tgt.len()];
        l2t(&k, &t, tc, &l, &tgt, &mut ws, &mut out);
        let qsum: f64 = q.iter().map(|x| x.abs()).sum();
        let scale = qsum * k.eval(SIDE);
        for (i, tp) in tgt.iter().enumerate() {
            let want = direct(&k, &src, &q, tp);
            check_err(out[i], want, scale, 2e-3, &format!("{name} t{i}"));
        }
    }

    #[test]
    fn m2l_then_l2t_matches_direct() {
        m2l_case(Laplace, "laplace");
        m2l_case(Yukawa::new(1.2), "yukawa");
    }

    #[test]
    fn l2l_preserves_local_field() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let parent_t = tb(&k, false);
        let child_t = LevelTables::build(&k, &AccuracyParams::three_digit(), 4, SIDE * 0.5, false);
        let pc = Point3::ZERO;
        // Far sources: ≥ 3 parent-halves away from the parent center.
        let far_c = Point3::new(2.5 * SIDE, 0.0, -2.0 * SIDE);
        let (src, q) = cloud(far_c, SIDE, 30, 5);
        // Build the parent local directly from the far sources.
        let mut parent_l = vec![0.0; parent_t.expansion_len()];
        s2l(&k, &parent_t, pc, &src, &q, &mut ws, &mut parent_l);
        // Push down to child octant 3 and evaluate at its targets.
        let cc = pc + crate::tables::octant_offset(3, SIDE * 0.25);
        let mut child_l = vec![0.0; child_t.expansion_len()];
        l2l(&child_t, 3, &parent_l, &mut child_l);
        let (tgt, _) = cloud(cc, SIDE * 0.5, 8, 6);
        let mut out = vec![0.0; tgt.len()];
        l2t(&k, &child_t, cc, &child_l, &tgt, &mut ws, &mut out);
        let qsum: f64 = q.iter().map(|x| x.abs()).sum();
        for (i, tp) in tgt.iter().enumerate() {
            let want = direct(&k, &src, &q, tp);
            check_err(out[i], want, qsum / SIDE, 3e-3, &format!("l2l t{i}"));
        }
    }

    #[test]
    fn planewave_chain_matches_direct() {
        // M→I, I→I, I→L across an Up-direction pair must reproduce the
        // direct potential to the same accuracy as dense M→L.
        planewave_case(Laplace, "laplace");
        planewave_case(Yukawa::new(1.0), "yukawa");
    }

    fn planewave_case<K: Kernel>(k: K, name: &str) {
        let t = tb(&k, true);
        let mut ws = BatchWorkspace::default();
        let sc = Point3::new(0.0, 0.0, 0.0);
        let d = Direction::Up;
        // Target 2 boxes up, 1 east: direction Up offset (1, 0, 2).
        let tc = Point3::new(SIDE, 0.0, 2.0 * SIDE);
        let (src, q) = cloud(sc, SIDE, 30, 7);
        let (tgt, _) = cloud(tc, SIDE, 8, 8);

        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, sc, &src, &q, &mut ws, &mut m);
        let mut w = vec![0.0; t.planewave_len()];
        m2i(&t, d, &m, &mut w);
        let mut w_in = vec![0.0; t.planewave_len()];
        let fac = t.i2i(d, tc - sc);
        i2i_apply(&fac, &w, &mut w_in);
        let mut l = vec![0.0; t.expansion_len()];
        i2l(&t, d, &w_in, &mut l);
        let mut out = vec![0.0; tgt.len()];
        l2t(&k, &t, tc, &l, &tgt, &mut ws, &mut out);

        let qsum: f64 = q.iter().map(|x| x.abs()).sum();
        let scale = qsum * k.eval(SIDE) * SIDE / SIDE; // kernel at one box side
        for (i, tp) in tgt.iter().enumerate() {
            let want = direct(&k, &src, &q, tp);
            check_err(out[i], want, scale, 3e-3, &format!("{name} pw t{i}"));
        }
    }

    #[test]
    fn merge_and_shift_is_exact_algebra() {
        let mut ws = BatchWorkspace::default();
        // Shifting a child's outgoing expansion to the parent center and
        // translating from there must equal translating directly.
        let k = Laplace;
        let t = tb(&k, true);
        let d = Direction::Up;
        let cc = Point3::new(0.1, -0.2, 0.3);
        let pc = cc + Point3::new(SIDE * 0.5, SIDE * 0.5, -SIDE * 0.5);
        let tc = cc + Point3::new(0.0, SIDE, 3.0 * SIDE);
        let (src, q) = cloud(cc, SIDE, 20, 9);
        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, cc, &src, &q, &mut ws, &mut m);
        let mut w = vec![0.0; t.planewave_len()];
        m2i(&t, d, &m, &mut w);

        // Path A: direct translation child → target.
        let mut wa = vec![0.0; t.planewave_len()];
        i2i_apply(&t.i2i(d, tc - cc), &w, &mut wa);
        // Path B: merge shift child → parent, then parent → target.
        let mut wp = vec![0.0; t.planewave_len()];
        i2i_apply(&t.i2i(d, pc - cc), &w, &mut wp);
        let mut wb = vec![0.0; t.planewave_len()];
        i2i_apply(&t.i2i(d, tc - pc), &wp, &mut wb);

        for (a, b) in wa.iter().zip(&wb) {
            assert!((a - b).abs() <= 1e-12 * (1.0 + a.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn all_six_directions_reproduce_the_kernel() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let t = tb(&k, true);
        let sc = Point3::ZERO;
        let (src, q) = cloud(sc, SIDE, 15, 10);
        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, sc, &src, &q, &mut ws, &mut m);
        let qsum: f64 = q.iter().map(|x| x.abs()).sum();
        for d in Direction::ALL {
            // Target center 2 boxes along the direction axis.
            let mut tc = [0.0f64; 3];
            tc[d.axis()] = d.sign() * 2.0 * SIDE;
            let tc = Point3::new(tc[0], tc[1], tc[2]);
            let mut w = vec![0.0; t.planewave_len()];
            m2i(&t, d, &m, &mut w);
            let mut w_in = vec![0.0; t.planewave_len()];
            i2i_apply(&t.i2i(d, tc - sc), &w, &mut w_in);
            let mut l = vec![0.0; t.expansion_len()];
            i2l(&t, d, &w_in, &mut l);
            let tp = tc + Point3::new(0.1 * SIDE, -0.15 * SIDE, 0.05 * SIDE);
            let mut out = [0.0];
            l2t(&k, &t, tc, &l, [tp], &mut ws, &mut out);
            let want = direct(&k, &src, &q, &tp);
            check_err(out[0], want, qsum / SIDE, 3e-3, &format!("direction {d:?}"));
        }
    }

    #[test]
    fn s2l_matches_direct() {
        let mut ws = BatchWorkspace::default();
        let k = Yukawa::new(0.8);
        let t = tb(&k, false);
        let tc = Point3::new(-0.1, 0.05, 0.2);
        // Sources at ≥ 3 target-halves (an L4-style configuration).
        let far = Point3::new(tc.x + 2.4 * SIDE, tc.y - 1.8 * SIDE, tc.z);
        let (src, q) = cloud(far, SIDE, 25, 11);
        let mut l = vec![0.0; t.expansion_len()];
        s2l(&k, &t, tc, &src, &q, &mut ws, &mut l);
        let (tgt, _) = cloud(tc, SIDE * 0.9, 6, 12);
        let mut out = vec![0.0; tgt.len()];
        l2t(&k, &t, tc, &l, &tgt, &mut ws, &mut out);
        let qsum: f64 = q.iter().map(|x| x.abs()).sum();
        for (i, tp) in tgt.iter().enumerate() {
            let want = direct(&k, &src, &q, tp);
            check_err(
                out[i],
                want,
                qsum * k.eval(SIDE),
                3e-3,
                &format!("s2l t{i}"),
            );
        }
    }

    #[test]
    fn p2p_is_exact() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let (src, q) = cloud(Point3::ZERO, 1.0, 20, 13);
        let (tgt, _) = cloud(Point3::new(0.2, 0.0, 0.1), 1.0, 7, 14);
        let mut out = vec![0.0; tgt.len()];
        p2p(&k, &src, &q, &tgt, &mut ws, &mut out);
        for (i, tp) in tgt.iter().enumerate() {
            let want = direct(&k, &src, &q, tp);
            assert!((out[i] - want).abs() < 1e-12 * (1.0 + want.abs()));
        }
    }

    #[test]
    fn gradient_ops_match_finite_differences() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let t = tb(&k, false);
        let sc = Point3::ZERO;
        let (src, q) = cloud(sc, SIDE, 25, 15);
        let mut m = vec![0.0; t.expansion_len()];
        s2m(&k, &t, sc, &src, &q, &mut ws, &mut m);
        let tp = Point3::new(2.2 * SIDE, 0.4 * SIDE, -1.9 * SIDE);
        // m2t_grad potential must agree with m2t, gradient with central FD.
        let mut g = vec![0.0; 4];
        m2t_grad(&k, &t, sc, &m, [tp], &mut ws, &mut g);
        let mut p = [0.0];
        m2t(&k, &t, sc, &m, [tp], &mut ws, &mut p);
        assert!((g[0] - p[0]).abs() < 1e-12);
        let h = 1e-5;
        for axis in 0..3 {
            let mut dp = Point3::ZERO;
            match axis {
                0 => dp.x = h,
                1 => dp.y = h,
                _ => dp.z = h,
            }
            let (mut a, mut b) = ([0.0], [0.0]);
            m2t(&k, &t, sc, &m, [tp + dp], &mut ws, &mut a);
            m2t(&k, &t, sc, &m, [tp + dp * -1.0], &mut ws, &mut b);
            let fd = (a[0] - b[0]) / (2.0 * h);
            assert!(
                (g[1 + axis] - fd).abs() < 1e-5 * (1.0 + fd.abs()),
                "axis {axis}: {} vs fd {fd}",
                g[1 + axis]
            );
        }
    }

    #[test]
    fn p2p_grad_matches_analytic_two_body() {
        let mut ws = BatchWorkspace::default();
        let k = Laplace;
        let src = vec![Point3::ZERO];
        let q = vec![2.0];
        let tp = Point3::new(2.0, 0.0, 0.0);
        let mut out = vec![0.0; 4];
        p2p_grad(&k, &src, &q, [tp], &mut ws, &mut out);
        assert!((out[0] - 1.0).abs() < 1e-14); // 2/2
        assert!((out[1] + 0.5).abs() < 1e-14); // d(2/r)/dx = -2/r² = -0.5
        assert!(out[2].abs() < 1e-14 && out[3].abs() < 1e-14);
    }

    #[test]
    fn i2i_apply_accumulates() {
        let fac = vec![0.5, 1.0, 0.5, 0.0]; // re = [0.5, 1], im = [0.5, 0]
        let src = vec![1.0, 2.0, 3.0, 4.0]; // Re = [1,2], Im = [3,4]
        let mut dst = vec![10.0, 10.0, 10.0, 10.0];
        i2i_apply(&fac, &src, &mut dst);
        // term0: (1+3i)(0.5+0.5i) = 0.5+0.5i+1.5i-1.5 = -1+2i
        assert!((dst[0] - 9.0).abs() < 1e-14);
        assert!((dst[2] - 12.0).abs() < 1e-14);
        // term1: (2+4i)(1+0i) = 2+4i
        assert!((dst[1] - 12.0).abs() < 1e-14);
        assert!((dst[3] - 14.0).abs() < 1e-14);
    }
}

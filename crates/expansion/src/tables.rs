//! Per-level operator tables.
//!
//! Every translation operator of the FMM is a dense matrix acting on
//! equivalent-density or plane-wave coefficient vectors.  All matrices for
//! boxes of one tree level are identical (they depend only on the box side
//! and the relative geometry), so they are assembled once per level and
//! cached.  For the scale-invariant Laplace kernel the tables of different
//! levels differ only by a known scaling, but we simply build them per level
//! — the same code path then serves the scale-variant Yukawa kernel, whose
//! tables (and plane-wave expansion lengths) genuinely depend on depth.

use std::collections::HashMap;
use std::sync::Arc;

use dashmm_kernels::{Kernel, PlaneWaveQuad, QuadSpec};
use dashmm_linalg::{pinv_tikhonov, Matrix};
use dashmm_tree::{Direction, Point3};
use parking_lot::Mutex;

use crate::params::AccuracyParams;
use crate::surface::{surface_lattice, Surface};

/// Diagonal translation factors keyed by (direction, quantised offset).
type I2iCache = HashMap<(u8, i16, i16, i16), Arc<Vec<f64>>>;

/// Rotate a displacement into the frame of a direction (the direction axis
/// becomes `+w`).  The same map is used by `M→I`, `I→I` and `I→L`, which is
/// all that consistency requires.
#[inline]
pub fn rotate_into(d: Direction, p: Point3) -> (f64, f64, f64) {
    match d {
        Direction::Up => (p.x, p.y, p.z),
        Direction::Down => (p.y, p.x, -p.z),
        Direction::North => (p.z, p.x, p.y),
        Direction::South => (p.x, p.z, -p.y),
        Direction::East => (p.y, p.z, p.x),
        Direction::West => (p.z, p.y, -p.x),
    }
}

/// Operator tables for one tree level.
pub struct LevelTables {
    level: u8,
    side: f64,
    n: usize,
    /// Upward equivalent surface, relative to the box center.
    ue: Surface,
    /// Upward check surface.
    uc: Surface,
    /// Downward equivalent surface.
    de: Surface,
    /// Downward check surface.
    dc: Surface,
    /// Regularised inverse mapping upward-check potentials to upward
    /// equivalent densities.
    uc2ue: Matrix,
    /// Regularised inverse mapping downward-check potentials to downward
    /// equivalent densities.
    dc2de: Matrix,
    /// Child octant multipole-to-multipole operators (child is one level
    /// deeper than this table's level).
    m2m: [Matrix; 8],
    /// Child octant local-to-local operators (this table's level is the
    /// *child* level; the source expansion belongs to the parent).
    l2l: [Matrix; 8],
    /// Plane-wave quadrature (present when intermediate expansions are on);
    /// levels with the same scaled screening share one rule.
    quad: Option<Arc<PlaneWaveQuad>>,
    /// `M→I`, the six directions stacked by rows (`6w × n`, `w` =
    /// [`LevelTables::planewave_len`], direction `d` in rows `d·w..(d+1)·w`):
    /// maps up-equivalent densities to every direction's `[Re; Im]`
    /// outgoing plane-wave coefficients at once — the layout of an
    /// intermediate node's own region.  `0 × n` without plane waves.
    m2i: Matrix,
    /// `I→L`, the six directions stacked by columns (`n × 6w`): maps a
    /// target box's accumulated incoming coefficients of all directions
    /// directly to downward equivalent densities (check evaluation and
    /// inverse fused).
    i2l: Matrix,
    /// Lazily built `M→L` matrices per integer box offset.
    m2l_cache: Mutex<HashMap<(i8, i8, i8), Arc<Matrix>>>,
    /// Lazily built diagonal `I→I` factors per (direction, quarter-box
    /// quantised offset): `[re…; im…]`, matching the `[Re; Im]` stacking
    /// of the coefficients they multiply.
    i2i_cache: Mutex<I2iCache>,
}

impl LevelTables {
    /// Assemble the tables for boxes of side `side` at `level`, building
    /// this level's own plane-wave rule when `with_planewave`.
    pub fn build<K: Kernel>(
        kernel: &K,
        params: &AccuracyParams,
        level: u8,
        side: f64,
        with_planewave: bool,
    ) -> Self {
        let quad = with_planewave.then(|| Arc::new(Self::planewave_rule(kernel, params, side)));
        Self::build_with(kernel, params, level, side, quad)
    }

    /// The plane-wave rule a level of box side `side` needs: it depends on
    /// the accuracy and the screening scaled to the box, nothing else.
    pub(crate) fn planewave_rule<K: Kernel>(
        kernel: &K,
        params: &AccuracyParams,
        side: f64,
    ) -> PlaneWaveQuad {
        PlaneWaveQuad::build(QuadSpec::for_l2(params.eps, kernel.scaled_screening(side)))
    }

    /// Assemble the tables around a plane-wave rule built elsewhere (`None`
    /// disables intermediate expansions); `quad` must be
    /// [`LevelTables::planewave_rule`] for this kernel, accuracy and side.
    pub(crate) fn build_with<K: Kernel>(
        kernel: &K,
        params: &AccuracyParams,
        level: u8,
        side: f64,
        quad: Option<Arc<PlaneWaveQuad>>,
    ) -> Self {
        let h = side * 0.5;
        let q = params.surface_q;
        let ue_pts = surface_lattice(q, params.inner_scale * h);
        let uc_pts = surface_lattice(q, params.outer_scale * h);
        let de_pts = surface_lattice(q, params.outer_scale * h);
        let dc_pts = surface_lattice(q, params.inner_scale * h);
        let n = ue_pts.len();

        let uc2ue = pinv_tikhonov(&eval_matrix(kernel, &uc_pts, &ue_pts), params.tikhonov);
        let dc2de = pinv_tikhonov(&eval_matrix(kernel, &dc_pts, &de_pts), params.tikhonov);

        // M2M: child up-equivalent densities (child surface, child octant
        // offset) -> parent check potentials -> parent equivalent densities.
        let child_h = h * 0.5;
        let child_ue = surface_lattice(q, params.inner_scale * child_h);
        let m2m: [Matrix; 8] = std::array::from_fn(|oct| {
            let off = octant_offset(oct, child_h);
            let shifted: Vec<Point3> = child_ue.iter().map(|p| *p + off).collect();
            uc2ue.matmul(&eval_matrix(kernel, &uc_pts, &shifted))
        });

        // L2L: parent downward equivalent densities -> child check
        // potentials -> child equivalent densities.  This table's level is
        // the child; the parent surface is twice the scale and the child
        // center is offset from the parent center.
        let parent_de = surface_lattice(q, params.outer_scale * h * 2.0);
        let l2l: [Matrix; 8] = std::array::from_fn(|oct| {
            // Parent center as seen from the child center.
            let off = octant_offset(oct, h) * -1.0;
            let shifted: Vec<Point3> = parent_de.iter().map(|p| *p + off).collect();
            dc2de.matmul(&eval_matrix(kernel, &dc_pts, &shifted))
        });

        let (m2i, i2l) = if let Some(quad) = &quad {
            let t = quad.num_terms();
            let mut m2i = Matrix::zeros(6 * 2 * t, n);
            let mut ev = Matrix::zeros(n, 6 * 2 * t);
            for d in Direction::ALL {
                let base = d.index() * 2 * t;
                // Outgoing coefficients from up-equivalent densities:
                // W_t = (w_t / side) Σ_i q_i e^{+s_t w_i} e^{-iλ_t(u_i c + v_i s)}.
                for (i, p) in ue_pts.iter().enumerate() {
                    let (u, v, w) = rotate_into(d, *p);
                    let (u, v, w) = (u / side, v / side, w / side);
                    for k in 0..t {
                        let phase = quad.lambda[k] * (u * quad.cos_a[k] + v * quad.sin_a[k]);
                        let amp = quad.w[k] / side * (quad.s[k] * w).exp();
                        m2i[(base + k, i)] = amp * phase.cos();
                        m2i[(base + t + k, i)] = -amp * phase.sin();
                    }
                }

                // Incoming coefficients to down-check potentials:
                // φ(p) = Σ_t [Re W_t·e^{-s w}cos φ_p − Im W_t·e^{-s w}sin φ_p].
                for (i, p) in dc_pts.iter().enumerate() {
                    let (u, v, w) = rotate_into(d, *p);
                    let (u, v, w) = (u / side, v / side, w / side);
                    for k in 0..t {
                        let phase = quad.lambda[k] * (u * quad.cos_a[k] + v * quad.sin_a[k]);
                        let amp = (-quad.s[k] * w).exp();
                        ev[(i, base + k)] = amp * phase.cos();
                        ev[(i, base + t + k)] = -amp * phase.sin();
                    }
                }
            }
            // Fuse the check-to-equivalent inverse into the evaluation.
            (m2i, dc2de.matmul(&ev))
        } else {
            (Matrix::zeros(0, n), Matrix::zeros(n, 0))
        };

        LevelTables {
            level,
            side,
            n,
            ue: Surface::new(&ue_pts),
            uc: Surface::new(&uc_pts),
            de: Surface::new(&de_pts),
            dc: Surface::new(&dc_pts),
            uc2ue,
            dc2de,
            m2m,
            l2l,
            quad,
            m2i,
            i2l,
            m2l_cache: Mutex::new(HashMap::new()),
            i2i_cache: Mutex::new(HashMap::new()),
        }
    }

    /// Tree level these tables serve.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Box side at this level.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Length of an M or L expansion (surface point count).
    pub fn expansion_len(&self) -> usize {
        self.n
    }

    /// Length of one direction's intermediate expansion as stored
    /// (stacked `[Re; Im]`), or 0 when plane waves are disabled.
    pub fn planewave_len(&self) -> usize {
        self.quad.as_ref().map(|q| 2 * q.num_terms()).unwrap_or(0)
    }

    /// The plane-wave quadrature, if built.
    pub fn quad(&self) -> Option<&PlaneWaveQuad> {
        self.quad.as_deref()
    }

    /// Upward equivalent surface (box-center relative): the sources of
    /// `M→T`, weighted by the multipole.
    pub fn ue(&self) -> &Surface {
        &self.ue
    }

    /// Upward check surface: the targets of `S→M`.
    pub fn uc(&self) -> &Surface {
        &self.uc
    }

    /// Downward equivalent surface: the sources of `L→T`, weighted by the
    /// local expansion.
    pub fn de(&self) -> &Surface {
        &self.de
    }

    /// Downward check surface: the targets of `S→L`.
    pub fn dc(&self) -> &Surface {
        &self.dc
    }

    /// Upward check surface points, gathered (references and tests).
    pub fn uc_pts(&self) -> Vec<Point3> {
        self.uc.points()
    }

    /// Upward check-to-equivalent inverse.
    pub fn uc2ue(&self) -> &Matrix {
        &self.uc2ue
    }

    /// Downward check-to-equivalent inverse.
    pub fn dc2de(&self) -> &Matrix {
        &self.dc2de
    }

    /// `M→M` matrix for a child in `octant` (child one level deeper).
    pub fn m2m(&self, octant: u8) -> &Matrix {
        &self.m2m[octant as usize]
    }

    /// `L→L` matrix for this level as the child in `octant` of its parent.
    pub fn l2l(&self, octant: u8) -> &Matrix {
        &self.l2l[octant as usize]
    }

    /// `M→I` for all six directions, stacked by rows (`6w × n`): one
    /// product yields a box's whole outgoing intermediate expansion.
    pub fn m2i(&self) -> &Matrix {
        &self.m2i
    }

    /// Fused `I→L` for all six directions, stacked by columns (`n × 6w`):
    /// one product consumes a box's whole incoming intermediate expansion.
    pub fn i2l(&self) -> &Matrix {
        &self.i2l
    }

    /// `M→L` matrix for the same-level integer box offset
    /// (target-to-source), built on first use and cached.
    pub fn m2l<K: Kernel>(&self, kernel: &K, offset: (i8, i8, i8)) -> Arc<Matrix> {
        if let Some(m) = self.m2l_cache.lock().get(&offset) {
            return m.clone();
        }
        let shift = Point3::new(
            offset.0 as f64 * self.side,
            offset.1 as f64 * self.side,
            offset.2 as f64 * self.side,
        );
        let shifted: Vec<Point3> = self.ue.points().iter().map(|p| *p + shift).collect();
        let m = Arc::new(
            self.dc2de
                .matmul(&eval_matrix(kernel, &self.dc.points(), &shifted)),
        );
        self.m2l_cache.lock().insert(offset, m.clone());
        m
    }

    /// Diagonal `I→I` factors for a translation of `delta` (world units,
    /// target center minus source center) in direction `d`.  `delta` must be
    /// a multiple of a quarter box side per axis, which covers box-to-box
    /// translations (integer sides) and the half-side merge shifts.
    pub fn i2i(&self, d: Direction, delta: Point3) -> Arc<Vec<f64>> {
        let quant = |x: f64| -> i16 {
            let q = x / (self.side * 0.25);
            let r = q.round();
            debug_assert!(
                (q - r).abs() < 1e-6,
                "I→I offset {x} is not a multiple of a quarter box side {}",
                self.side * 0.25
            );
            r as i16
        };
        let key = (
            d.index() as u8,
            quant(delta.x),
            quant(delta.y),
            quant(delta.z),
        );
        if let Some(v) = self.i2i_cache.lock().get(&key) {
            return v.clone();
        }
        let quad = self.quad.as_ref().expect("I→I requires plane-wave tables");
        let (du, dv, dw) = rotate_into(d, delta);
        let (du, dv, dw) = (du / self.side, dv / self.side, dw / self.side);
        let t = quad.num_terms();
        let mut fac = vec![0.0; 2 * t];
        for k in 0..t {
            let amp = (-quad.s[k] * dw).exp();
            let phase = quad.lambda[k] * (du * quad.cos_a[k] + dv * quad.sin_a[k]);
            fac[k] = amp * phase.cos();
            fac[t + k] = amp * phase.sin();
        }
        let fac = Arc::new(fac);
        self.i2i_cache.lock().insert(key, fac.clone());
        fac
    }

    /// Number of cached `M→L` matrices (statistics / tests).
    pub fn m2l_cache_len(&self) -> usize {
        self.m2l_cache.lock().len()
    }
}

/// Offset of a child-octant center from its parent center, given the child
/// half-width.
#[inline]
pub fn octant_offset(oct: usize, child_h: f64) -> Point3 {
    Point3::new(
        if oct & 1 != 0 { child_h } else { -child_h },
        if oct & 2 != 0 { child_h } else { -child_h },
        if oct & 4 != 0 { child_h } else { -child_h },
    )
}

/// Kernel evaluation matrix `A[i][j] = K(|rows[i] − cols[j]|)`.
pub fn eval_matrix<K: Kernel>(kernel: &K, rows: &[Point3], cols: &[Point3]) -> Matrix {
    Matrix::from_fn(rows.len(), cols.len(), |i, j| {
        kernel.eval(rows[i].dist(&cols[j]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_kernels::{Laplace, Yukawa};

    fn tables(with_pw: bool) -> LevelTables {
        LevelTables::build(&Laplace, &AccuracyParams::three_digit(), 3, 0.25, with_pw)
    }

    #[test]
    fn surfaces_have_expected_radii() {
        let t = tables(false);
        let h = t.side() * 0.5;
        let p = AccuracyParams::three_digit();
        for pt in t.ue().points() {
            assert!((pt.norm_max() - p.inner_scale * h).abs() < 1e-12);
        }
        for pt in t.uc_pts() {
            assert!((pt.norm_max() - p.outer_scale * h).abs() < 1e-12);
        }
        assert_eq!(t.expansion_len(), p.surface_points());
    }

    #[test]
    fn uc2ue_is_an_approximate_inverse() {
        // Applying the forward evaluation after the inverse must reproduce
        // smooth check potentials (those generated by interior sources).
        let t = tables(false);
        let k = Laplace;
        let src = [Point3::new(0.03, -0.05, 0.02)];
        let check: Vec<f64> = t.uc_pts().iter().map(|p| k.eval(p.dist(&src[0]))).collect();
        let mut m = vec![0.0; t.expansion_len()];
        t.uc2ue().matvec_into(&check, &mut m);
        // Reconstruct the check potentials from the equivalent densities.
        let a = eval_matrix(&k, &t.uc_pts(), &t.ue().points());
        let back = a.matvec(&m);
        for (b, c) in back.iter().zip(&check) {
            assert!((b - c).abs() < 1e-6 * c.abs().max(1.0), "{b} vs {c}");
        }
    }

    #[test]
    fn m2l_cache_reuses() {
        let t = tables(false);
        let a = t.m2l(&Laplace, (2, 0, 0));
        let b = t.m2l(&Laplace, (2, 0, 0));
        assert!(Arc::ptr_eq(&a, &b));
        let _ = t.m2l(&Laplace, (0, 2, 1));
        assert_eq!(t.m2l_cache_len(), 2);
    }

    #[test]
    fn planewave_tables_built_on_request() {
        let without = tables(false);
        assert_eq!(without.planewave_len(), 0);
        assert!(without.quad().is_none());
        let with = tables(true);
        assert!(with.planewave_len() > 0);
        assert_eq!(with.planewave_len() % 2, 0);
    }

    #[test]
    fn i2i_zero_offset_is_identity_phase() {
        let t = tables(true);
        let fac = t.i2i(Direction::Up, Point3::ZERO);
        let (re, im) = fac.split_at(fac.len() / 2);
        for (re, im) in re.iter().zip(im) {
            assert!((re - 1.0).abs() < 1e-12);
            assert!(im.abs() < 1e-12);
        }
    }

    #[test]
    fn i2i_composition_equals_combined_shift() {
        // Translating by a then b must equal translating by a+b (diagonal
        // translations form a group).
        let t = tables(true);
        let s = t.side();
        let a = Point3::new(0.25 * s, -0.5 * s, s);
        let b = Point3::new(0.5 * s, 0.25 * s, 0.75 * s);
        let fa = t.i2i(Direction::North, a);
        let fb = t.i2i(Direction::North, b);
        let fab = t.i2i(Direction::North, a + b);
        let h = fa.len() / 2;
        for i in 0..h {
            let re = fa[i] * fb[i] - fa[h + i] * fb[h + i];
            let im = fa[i] * fb[h + i] + fa[h + i] * fb[i];
            assert!((re - fab[i]).abs() < 1e-9 * (1.0 + re.abs()));
            assert!((im - fab[h + i]).abs() < 1e-9 * (1.0 + im.abs()));
        }
    }

    #[test]
    fn yukawa_tables_differ_per_level() {
        let p = AccuracyParams::three_digit();
        let k = Yukawa::new(3.0);
        let shallow = LevelTables::build(&k, &p, 2, 1.0, true);
        let deep = LevelTables::build(&k, &p, 5, 0.125, true);
        // Scale-variant kernel: plane-wave expansion lengths may differ and
        // the normalised operators are genuinely different.
        assert!(shallow.quad().unwrap().spec().kappa > deep.quad().unwrap().spec().kappa);
    }

    #[test]
    fn octant_offsets_are_the_eight_corners() {
        let mut seen = std::collections::HashSet::new();
        for oct in 0..8 {
            let o = octant_offset(oct, 1.0);
            assert_eq!(o.x.abs(), 1.0);
            assert_eq!(o.y.abs(), 1.0);
            assert_eq!(o.z.abs(), 1.0);
            seen.insert((o.x as i8, o.y as i8, o.z as i8));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn eval_matrix_symmetry() {
        let pts = surface_lattice(3, 1.0);
        let a = eval_matrix(&Laplace, &pts, &pts);
        for i in 0..pts.len() {
            assert_eq!(a[(i, i)], 0.0, "diagonal is the excluded self-interaction");
            for j in 0..pts.len() {
                assert_eq!(a[(i, j)], a[(j, i)]);
            }
        }
    }
}

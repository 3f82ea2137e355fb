//! The interaction-kernel abstraction and the built-in kernels.

/// A radially symmetric interaction kernel `K(r)`.
///
/// The potential at a target `t` due to sources `{(sᵢ, qᵢ)}` is
/// `φ(t) = Σᵢ qᵢ K(|t − sᵢ|)`, with the self-interaction (`r = 0`)
/// conventionally excluded (it evaluates to `0`).
pub trait Kernel: Clone + Send + Sync + 'static {
    /// Human-readable name, used by traces and the benchmark harness.
    fn name(&self) -> &'static str;

    /// Evaluate `K(r)`; must return `0` at `r = 0`.
    fn eval(&self, r: f64) -> f64;

    /// Radial derivative `dK/dr`; must return `0` at `r = 0`.  The field
    /// (negative gradient of the potential) at a target `t` due to a source
    /// `s` is `-q·K'(r)·(t−s)/r`.
    fn deriv(&self, r: f64) -> f64;

    /// Potential rows: `out[i] += Σⱼ wⱼ·K(|tᵢ − sⱼ|)` for each target `tᵢ`
    /// over the SoA `sources`, one output per target.  Coincident pairs
    /// contribute `K(0) = 0`, the self-interaction exclusion.
    ///
    /// The default is the portable scalar loop over [`Kernel::eval`]; the
    /// built-in kernels override it with the AVX2+FMA row loop
    /// ([`crate::simd`]), which sums each target in registers and agrees
    /// with this loop to ≤ 1e-14 of `Σ|wⱼ·K|`.  Either way each target's
    /// sum depends on that target and the sources alone, not on the others.
    fn potential_rows(
        &self,
        targets: impl IntoIterator<Item = [f64; 3]>,
        sources: Sources<'_>,
        out: &mut [f64],
    ) {
        scalar_rows::<Self, false>(self, targets, sources, out);
    }

    /// Field rows: four values per target, `(φ, ∂φ/∂x, ∂φ/∂y, ∂φ/∂z)`
    /// added to `out[4i..4i + 4]`, where `∇φ = Σⱼ wⱼ·K'(r)·(tᵢ − sⱼ)/r`;
    /// coincident pairs contribute nothing.  Same contract as
    /// [`Kernel::potential_rows`], scalar default over [`Kernel::deriv`].
    fn field_rows(
        &self,
        targets: impl IntoIterator<Item = [f64; 3]>,
        sources: Sources<'_>,
        out: &mut [f64],
    ) {
        scalar_rows::<Self, true>(self, targets, sources, out);
    }

    /// Surface potentials: `out[i] += Σⱼ wⱼ·K(|pᵢ − sⱼ|)` at each point
    /// `pᵢ = surface[·][i] + center` of a lattice stored as SoA coordinates
    /// relative to `center` (a check surface), one output per point.  The
    /// displacement is formed as `(surface + center) − source`, exactly as
    /// a row target placed at `center` would form it.
    ///
    /// The shape of `S→M` / `S→L`: many points against a short run of
    /// sources.  Rows would pay their per-target set-up for every point, so
    /// the built-in kernels override the scalar default with a loop that
    /// puts the points in the vector lanes and broadcasts each source
    /// ([`crate::simd`], "Surface columns").  Either way each point sums the
    /// sources in order, with arithmetic that depends on that point and the
    /// sources alone.
    fn surface_potentials(
        &self,
        surface: [&[f64]; 3],
        center: [f64; 3],
        sources: Sources<'_>,
        out: &mut [f64],
    ) {
        scalar_surface(self, surface, center, sources, out);
    }

    /// Whether the kernel is scale-variant (Yukawa: operator tables and
    /// plane-wave quadratures depend on the tree level, paper §V-A).
    fn scale_variant(&self) -> bool;

    /// The screening parameter scaled to a box of side `side`; `0` for
    /// scale-invariant kernels.  The Sommerfeld quadrature of a level works
    /// in box-normalised coordinates, so this is the `κ` it must embed.
    fn scaled_screening(&self, side: f64) -> f64;

    /// Relative "grain size" of this kernel's operations compared to
    /// Laplace.  Used only as a descriptive statistic by the harness; the
    /// measured per-operator timings are what the cost models consume.
    fn relative_weight(&self) -> f64 {
        1.0
    }
}

/// Sources of a row evaluation as structure of arrays: positions `x`, `y`,
/// `z` and weights `w`, all of one length.
#[derive(Clone, Copy, Debug)]
pub struct Sources<'a> {
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
    pub w: &'a [f64],
}

/// One source's contribution to a target's row accumulator `acc`
/// (`[φ]`, or `[φ, ∇φ]` for a field row) at displacement `d = t − s`.
/// The scalar default and the vector loop's source tail both go through
/// here.
#[inline]
pub(crate) fn pair<K: Kernel, const FIELD: bool>(k: &K, d: [f64; 3], w: f64, acc: &mut [f64; 4]) {
    let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
    acc[0] += w * k.eval(r);
    if FIELD && r > 0.0 {
        let c = w * k.deriv(r) / r;
        for a in 0..3 {
            acc[1 + a] += c * d[a];
        }
    }
}

/// The portable row loop: one target at a time, its sources in order.
pub(crate) fn scalar_rows<K: Kernel, const FIELD: bool>(
    k: &K,
    targets: impl IntoIterator<Item = [f64; 3]>,
    s: Sources<'_>,
    out: &mut [f64],
) {
    let mut rows = out.chunks_exact_mut(if FIELD { 4 } else { 1 });
    for t in targets {
        let row = rows.next().expect("one output row per target");
        let mut acc = [0.0; 4];
        for j in 0..s.w.len() {
            let d = [t[0] - s.x[j], t[1] - s.y[j], t[2] - s.z[j]];
            pair::<K, FIELD>(k, d, s.w[j], &mut acc);
        }
        for (o, a) in row.iter_mut().zip(acc) {
            *o += a;
        }
    }
}

/// The portable surface loop: one point at a time, the sources in order.
pub(crate) fn scalar_surface<K: Kernel>(
    k: &K,
    p: [&[f64]; 3],
    c: [f64; 3],
    s: Sources<'_>,
    out: &mut [f64],
) {
    let m = p[0].len();
    assert!(
        p[1].len() == m && p[2].len() == m && out.len() == m,
        "one output per surface point"
    );
    for (i, o) in out.iter_mut().enumerate() {
        let t = [p[0][i] + c[0], p[1][i] + c[1], p[2][i] + c[2]];
        let mut acc = [0.0; 4];
        for j in 0..s.w.len() {
            let d = [t[0] - s.x[j], t[1] - s.y[j], t[2] - s.z[j]];
            pair::<K, false>(k, d, s.w[j], &mut acc);
        }
        *o += acc[0];
    }
}

/// The row and surface API of a kernel with a vector lane function
/// ([`crate::simd::Lane`]).
macro_rules! vector_rows {
    () => {
        fn potential_rows(
            &self,
            targets: impl IntoIterator<Item = [f64; 3]>,
            sources: Sources<'_>,
            out: &mut [f64],
        ) {
            crate::simd::rows::<_, false>(self, targets, sources, out);
        }

        fn field_rows(
            &self,
            targets: impl IntoIterator<Item = [f64; 3]>,
            sources: Sources<'_>,
            out: &mut [f64],
        ) {
            crate::simd::rows::<_, true>(self, targets, sources, out);
        }

        fn surface_potentials(
            &self,
            surface: [&[f64]; 3],
            center: [f64; 3],
            sources: Sources<'_>,
            out: &mut [f64],
        ) {
            crate::simd::surface(self, surface, center, sources, out);
        }
    };
}

/// Enumerates the built-in kernels for CLIs and trace labels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelKind {
    /// `1/r`.
    Laplace,
    /// `e^{-λr}/r` with the given `λ > 0`.
    Yukawa(f64),
}

impl KernelKind {
    /// Parse harness names: `laplace`, or `yukawa` (λ = 1) / `yukawa:<λ>`.
    pub fn parse(s: &str) -> Option<KernelKind> {
        if s == "laplace" {
            Some(KernelKind::Laplace)
        } else if s == "yukawa" {
            Some(KernelKind::Yukawa(1.0))
        } else if let Some(rest) = s.strip_prefix("yukawa:") {
            rest.parse().ok().map(KernelKind::Yukawa)
        } else {
            None
        }
    }
}

/// The scale-invariant Laplace kernel `1/r` — the typical potential of
/// electrostatics or Newtonian gravitation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Laplace;

impl Kernel for Laplace {
    fn name(&self) -> &'static str {
        "laplace"
    }

    #[inline]
    fn eval(&self, r: f64) -> f64 {
        if r > 0.0 {
            1.0 / r
        } else {
            0.0
        }
    }

    #[inline]
    fn deriv(&self, r: f64) -> f64 {
        if r > 0.0 {
            -1.0 / (r * r)
        } else {
            0.0
        }
    }

    vector_rows!();

    fn scale_variant(&self) -> bool {
        false
    }

    fn scaled_screening(&self, _side: f64) -> f64 {
        0.0
    }
}

/// The scale-variant Yukawa kernel `e^{-λr}/r` — the screened Coulomb
/// potential.  Its operations are heavier than Laplace's and their cost
/// varies with depth in the hierarchy (paper §V-A).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Yukawa {
    /// Screening parameter `λ > 0`.
    pub lambda: f64,
}

impl Yukawa {
    /// Construct with screening `lambda`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0 && lambda.is_finite(), "Yukawa requires λ > 0");
        Yukawa { lambda }
    }
}

impl Kernel for Yukawa {
    fn name(&self) -> &'static str {
        "yukawa"
    }

    #[inline]
    fn eval(&self, r: f64) -> f64 {
        if r > 0.0 {
            (-self.lambda * r).exp() / r
        } else {
            0.0
        }
    }

    #[inline]
    fn deriv(&self, r: f64) -> f64 {
        if r > 0.0 {
            -(1.0 + self.lambda * r) * (-self.lambda * r).exp() / (r * r)
        } else {
            0.0
        }
    }

    vector_rows!();

    fn scale_variant(&self) -> bool {
        true
    }

    fn scaled_screening(&self, side: f64) -> f64 {
        self.lambda * side
    }

    fn relative_weight(&self) -> f64 {
        // exp() per evaluation plus longer plane-wave expansions.
        2.0
    }
}

/// The Gaussian kernel `e^{−r²/σ²}` — the interaction of fast-Gauss-
/// transform style workloads (kernel density estimation, smoothing).
///
/// Unlike Laplace/Yukawa it is not a fundamental solution, so the
/// equivalent-surface expansion machinery does not apply; it is provided
/// for the **near-field paths only** (`p2p`, `direct_sum` and the row
/// APIs), where its reciprocal-free evaluation makes it the cheapest of
/// the vectorized kernels.  `eval(0) = 0` keeps
/// the trait's self-interaction-exclusion convention.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Gauss {
    /// Bandwidth `σ > 0`.
    pub sigma: f64,
}

impl Gauss {
    /// Construct with bandwidth `sigma`.
    pub fn new(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "Gauss requires σ > 0");
        Gauss { sigma }
    }

    #[inline]
    pub(crate) fn inv_s2(&self) -> f64 {
        1.0 / (self.sigma * self.sigma)
    }
}

impl Kernel for Gauss {
    fn name(&self) -> &'static str {
        "gauss"
    }

    #[inline]
    fn eval(&self, r: f64) -> f64 {
        if r > 0.0 {
            (-(r * r) * self.inv_s2()).exp()
        } else {
            0.0
        }
    }

    #[inline]
    fn deriv(&self, r: f64) -> f64 {
        if r > 0.0 {
            -2.0 * r * self.inv_s2() * (-(r * r) * self.inv_s2()).exp()
        } else {
            0.0
        }
    }

    vector_rows!();

    fn scale_variant(&self) -> bool {
        false
    }

    fn scaled_screening(&self, _side: f64) -> f64 {
        0.0
    }

    fn relative_weight(&self) -> f64 {
        // exp() per evaluation but no sqrt or divide.
        1.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace_values() {
        let k = Laplace;
        assert_eq!(k.eval(2.0), 0.5);
        assert_eq!(k.eval(0.0), 0.0);
        assert!(!k.scale_variant());
        assert_eq!(k.scaled_screening(0.25), 0.0);
    }

    #[test]
    fn yukawa_values() {
        let k = Yukawa::new(2.0);
        assert!((k.eval(1.0) - (-2.0f64).exp()).abs() < 1e-15);
        assert_eq!(k.eval(0.0), 0.0);
        assert!(k.scale_variant());
        assert!((k.scaled_screening(0.5) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn yukawa_decays_faster_than_laplace() {
        let l = Laplace;
        let y = Yukawa::new(1.0);
        for r in [0.5, 1.0, 2.0, 5.0] {
            assert!(y.eval(r) < l.eval(r));
        }
    }

    #[test]
    #[should_panic]
    fn yukawa_rejects_nonpositive_lambda() {
        let _ = Yukawa::new(0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for r in [0.3, 1.0, 2.5] {
            let l = Laplace;
            let fd = (l.eval(r + h) - l.eval(r - h)) / (2.0 * h);
            assert!((l.deriv(r) - fd).abs() < 1e-6 * fd.abs().max(1.0));
            let y = Yukawa::new(1.7);
            let fd = (y.eval(r + h) - y.eval(r - h)) / (2.0 * h);
            assert!((y.deriv(r) - fd).abs() < 1e-6 * fd.abs().max(1.0));
        }
        assert_eq!(Laplace.deriv(0.0), 0.0);
        assert_eq!(Yukawa::new(1.0).deriv(0.0), 0.0);
    }

    #[test]
    fn kind_parsing() {
        assert_eq!(KernelKind::parse("laplace"), Some(KernelKind::Laplace));
        assert_eq!(KernelKind::parse("yukawa"), Some(KernelKind::Yukawa(1.0)));
        assert_eq!(
            KernelKind::parse("yukawa:2.5"),
            Some(KernelKind::Yukawa(2.5))
        );
        assert_eq!(KernelKind::parse("coulomb"), None);
    }
}

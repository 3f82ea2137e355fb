//! Plane-wave (Sommerfeld) discretisation of the Laplace and Yukawa kernels.
//!
//! Both kernels of the paper admit a Sommerfeld integral representation for
//! `z > 0`:
//!
//! ```text
//!   1/r        = (1/2π) ∫₀^∞        ∫₀^{2π} e^{-λz} e^{iλ(x cosα + y sinα)} dα dλ
//!   e^{-κr}/r  = (1/2π) ∫₀^∞ (λ/s)  ∫₀^{2π} e^{-sz} e^{iλ(x cosα + y sinα)} dα dλ,
//!                 s = √(λ² + κ²)
//! ```
//!
//! Discretising the outer integral with a rule in `s` and `α` with the
//! trapezoid rule yields a finite sum of **exponential basis functions**
//! in which *translation is diagonal* — the property the merge-and-shift
//! technique exploits (the paper's `M→I`, `I→I`, `I→L` operators).  This is
//! the same structure as the exponential expansions of Cheng–Greengard–
//! Rokhlin (Laplace) and Greengard–Huang (Yukawa); we use a generic,
//! numerically *self-validated* quadrature rather than their hand-optimised
//! tables, so correctness never rests on constants.
//!
//! **The rule.**  With `s` as the variable (`(λ/s) dλ = ds`) and `α`
//! integrated out, both kernels read `∫_κ^∞ e^{-sz} J₀(ρ√(s²−κ²)) ds`,
//! whose integrand is entire in `s` — so one Gauss–Legendre panel on
//! `[κ, κ + (ln(1/ε)+1)/z_min]` converges spectrally for every screening
//! and `κ = 0` is not a special case.  [`PlaneWaveQuad::build`] takes the
//! fewest such nodes whose own error is under half of `ε`, then shortens
//! the rule by node elimination: drop the least significant node, refit
//! every `(s_k, w_k)` to the kernel by damped Gauss–Newton, and keep going
//! while the error holds — a generalized Gaussian rule in the manner of
//! Cheng–Greengard–Rokhlin, fitted to exactly this family of integrands
//! (16 → 10 nodes at three digits).  Node `k` then needs `M_k` trapezoid
//! angles; by Jacobi–Anger the `M`-point trapezoid leaves the alias
//! `2·w_k e^{-s_k z}·Σ_{p≥1} ±J_{pM}(λ_k ρ) cos(pMφ)`, so `M_k` is the
//! smallest even count whose leading term stays under the node's share of
//! what is left of `ε`.  That count tracks `λ_k ρ_max` only while the
//! node's weight `w_k e^{-s_k z_min}` is worth resolving: a node in the
//! exponentially damped tail collapses to `M = 2`, as in CGR's tables
//! (Gauss–Legendre's last few nodes were such a tail; the fit leaves none).
//! Finally the counts are trimmed against the modelled residual itself
//! (which knows the signs the bound ignores), and the assembled terms are
//! validated on a finer sweep; a rule that fails steps back one node along
//! the elimination.
//!
//! All coordinates are normalised to the box side of the tree level in
//! question; the validity region `z ∈ [1, 4]`, `ρ ≤ 4√2` covers exactly the
//! geometry of directional `L2` interactions.  For Yukawa the scaled
//! screening `κ·side` enters the rule, making the expansion length
//! level-dependent (the paper's "length of the intermediate expansion
//! depends on the depth in the hierarchy").

use crate::gauss::gauss_legendre;
use dashmm_linalg::{cholesky, Matrix};

/// Requirements for a plane-wave quadrature.
#[derive(Clone, Copy, Debug)]
pub struct QuadSpec {
    /// Target relative accuracy over the validity region.
    pub eps: f64,
    /// Minimum `z` separation, in box units (directional `L2` ⇒ 1).
    pub z_min: f64,
    /// Maximum `z` separation (offset 3 plus one box of spread ⇒ 4).
    pub z_max: f64,
    /// Maximum transverse distance (offsets ≤ 3 plus spread ⇒ 4√2).
    pub rho_max: f64,
    /// Screening parameter scaled to the box side (0 ⇒ Laplace).
    pub kappa: f64,
}

impl QuadSpec {
    /// The spec for directional `L2` interactions at the given accuracy and
    /// (scaled) screening.
    ///
    /// Center offsets along the direction axis are 2–3 box sides and ≤ 3
    /// transversally; the expansions are formed from and evaluated at
    /// surface points up to `0.525` sides from the box centers, so the
    /// region is padded accordingly (z ∈ [0.9, 4.1], ρ ≤ 4.1·√2).
    pub fn for_l2(eps: f64, kappa: f64) -> Self {
        QuadSpec {
            eps,
            z_min: 0.9,
            z_max: 4.1,
            rho_max: 4.1 * std::f64::consts::SQRT_2,
            kappa,
        }
    }

    /// Upper end of the `s` integral: past it `e^{-(s−κ) z_min}` is below
    /// `ε/e`, the share of the budget given to truncation.
    fn s_max(&self) -> f64 {
        self.kappa + ((1.0 / self.eps).ln() + 1.0) / self.z_min
    }

    /// `λ = √(s² − κ²)`.
    fn lambda(&self, s: f64) -> f64 {
        ((s - self.kappa) * (s + self.kappa)).sqrt()
    }

    /// `λ` at [`QuadSpec::s_max`].
    fn lambda_max(&self) -> f64 {
        self.lambda(self.s_max())
    }

    /// Exact kernel in normalised coordinates.
    fn exact(&self, r: f64) -> f64 {
        if self.kappa > 0.0 {
            (-self.kappa * r).exp() / r
        } else {
            1.0 / r
        }
    }
}

/// Samples per period of the error's fastest oscillation, along `ρ` and
/// along the azimuth, in the sweep the angular counts are trimmed against.
const TRIM_DENSITY: f64 = 4.0;
/// [`PlaneWaveQuad::validate`] sweeps twice as fine as the trim did.
const VALIDATE_DENSITY: f64 = 2.0 * TRIM_DENSITY;
/// Fraction of `ε` the trim may spend; the rest is headroom for what lies
/// between its samples, which the finer validation sweep then measures.
const TRIM_TARGET: f64 = 0.9;
/// Fraction of `ε` the `s` rule alone (angular integral exact) may spend.
const RADIAL_SHARE: f64 = 0.5;
/// Fraction of that share a fitted `s` rule may spend on the grid it is
/// fitted on; the rest is headroom for what lies between its `ρ` samples,
/// where a fit is free to let its error bulge.
const FIT_TARGET: f64 = 0.9;
// What the `s` rule leaves of the trim's target is shared out to the angles.
const _: () = assert!(RADIAL_SHARE < TRIM_TARGET);
/// `sup_x |J_M(x)| < 0.6749·M^{-1/3}` (Landau).
const BESSEL_ENVELOPE: f64 = 0.675;
/// Most `s` nodes [`PlaneWaveQuad::build`] will try; six digits take 31.
const MAX_NODES: usize = 128;

/// A validated plane-wave quadrature: a set of exponential basis terms
/// `w · e^{-s z} · e^{iλ(x cosα + y sinα)}` whose real part reproduces the
/// kernel over the validity region.
///
/// Terms are stored structure-of-arrays, node by node in increasing `λ`;
/// only the half circle of angles is kept (the other half contributes the
/// complex conjugate, so the final evaluation takes `2·Re`, already folded
/// into the weights).
#[derive(Clone, Debug)]
pub struct PlaneWaveQuad {
    spec: QuadSpec,
    /// λ of each term.
    pub lambda: Vec<f64>,
    /// Decay rate `s(λ)` of each term.
    pub s: Vec<f64>,
    /// Combined weight of each term (includes the `2/M_k` trapezoid factor).
    pub w: Vec<f64>,
    /// cos α of each term.
    pub cos_a: Vec<f64>,
    /// sin α of each term.
    pub sin_a: Vec<f64>,
    /// Terms of each `λ` node (half its trapezoid angles), in term order.
    node_len: Vec<usize>,
    /// Worst relative error observed during validation.
    pub validated_error: f64,
}

impl PlaneWaveQuad {
    /// Build a quadrature satisfying `spec`: the shortest Gauss–Legendre
    /// rule in `s` whose own error leaves room for the angles, shortened by
    /// node elimination into a rule fitted to the kernel, the smallest
    /// angular count per node the aliasing model allows, trimmed against
    /// the measured residual, and validated term by term on a finer sweep.
    /// Panics only if no rule passes, which indicates an unsatisfiable spec.
    ///
    /// ```
    /// use dashmm_kernels::{PlaneWaveQuad, QuadSpec};
    ///
    /// let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
    /// // The discretised kernel reproduces 1/r inside the validity region.
    /// let approx = q.eval(0.5, -0.25, 2.0);
    /// let exact = 1.0 / (0.5f64 * 0.5 + 0.25 * 0.25 + 4.0).sqrt();
    /// assert!((approx - exact).abs() < 1e-3);
    /// ```
    pub fn build(spec: QuadSpec) -> Self {
        assert!(spec.eps > 0.0 && spec.eps < 0.5, "eps must be in (0, 0.5)");
        assert!(spec.z_min > 0.0 && spec.z_max > spec.z_min);
        let sweep = Sweep::new(&spec, TRIM_DENSITY);
        let cos_m = sweep.cos_multiples(negligible_order(spec.lambda_max() * spec.rho_max));
        let fit = RadialFit::new(&spec, &sweep);
        let share = RADIAL_SHARE * spec.eps;
        let mut last_err = f64::INFINITY;
        for n in 2..=MAX_NODES {
            let (s, w) = gauss_legendre(n, spec.kappa, spec.s_max());
            let start = Radial { s, w };
            let radial = fit.sup(&start);
            if radial > share {
                last_err = radial;
                continue;
            }
            // Shortest first: a rule that fails validation steps back one
            // node along the chain, down to the Gauss–Legendre rule itself.
            for radial in fit.eliminate(start, FIT_TARGET * share).iter().rev() {
                match Self::attempt(spec, &sweep, &cos_m, radial) {
                    Ok(q) => return q,
                    Err(err) => last_err = err,
                }
            }
        }
        panic!(
            "plane-wave quadrature failed to reach eps={} (best error {last_err:.3e})",
            spec.eps
        );
    }

    /// Angles for the `s` rule `radial`: the smallest counts the aliasing
    /// model allows, trimmed against the residual, validated on the finer
    /// sweep.  Returns the error that rejected it otherwise.
    fn attempt(spec: QuadSpec, sweep: &Sweep, cos_m: &[f64], radial: &Radial) -> Result<Self, f64> {
        let target = TRIM_TARGET * spec.eps;
        let mut model = ErrorModel::new(&spec, sweep, cos_m, radial);
        let n = radial.s.len();
        // The angles need a positive share of what the `s` rule leaves.
        let left = target - sup_abs(&model.residual);
        if left <= 0.0 {
            return Err(target - left);
        }
        let mut counts = model.angular_counts(left / n as f64);
        for k in 0..n {
            let alias = model.alias(k, counts[k]);
            model.deposit(k, &alias);
        }
        // The counts bound each node's leading alias only; the residual
        // has the last word.
        let err = sup_abs(&model.residual);
        if err > target {
            return Err(err);
        }
        model.trim(&mut counts, target);
        let mut q = Self::assemble(spec, &model, &counts);
        q.validated_error = q.validate();
        if q.validated_error <= spec.eps {
            Ok(q)
        } else {
            Err(q.validated_error)
        }
    }

    /// The rule with `counts[k]` trapezoid angles on the model's node `k`.
    fn assemble(spec: QuadSpec, model: &ErrorModel, counts: &[usize]) -> Self {
        let total = counts.iter().sum::<usize>() / 2;
        let mut q = PlaneWaveQuad {
            spec,
            lambda: Vec::with_capacity(total),
            s: Vec::with_capacity(total),
            w: Vec::with_capacity(total),
            cos_a: Vec::with_capacity(total),
            sin_a: Vec::with_capacity(total),
            node_len: counts.iter().map(|m| m / 2).collect(),
            validated_error: f64::NAN,
        };
        for (k, &m) in counts.iter().enumerate() {
            let term_w = 2.0 * model.weight[k] / m as f64;
            for j in 0..m / 2 {
                let alpha = std::f64::consts::TAU * j as f64 / m as f64;
                q.lambda.push(model.lambda[k]);
                q.s.push(model.s[k]);
                q.w.push(term_w);
                q.cos_a.push(alpha.cos());
                q.sin_a.push(alpha.sin());
            }
        }
        q
    }

    /// Number of exponential basis terms (the length of an intermediate
    /// expansion in one direction).
    pub fn num_terms(&self) -> usize {
        self.lambda.len()
    }

    /// The spec this rule was built for.
    pub fn spec(&self) -> &QuadSpec {
        &self.spec
    }

    /// Evaluate the discretised kernel at the (normalised) displacement.
    ///
    /// Used by tests and by the operator-table constructors; the FMM hot
    /// path works with the per-term complex coefficients directly.
    pub fn eval(&self, x: f64, y: f64, z: f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..self.lambda.len() {
            let phase = self.lambda[i] * (x * self.cos_a[i] + y * self.sin_a[i]);
            acc += self.w[i] * (-self.s[i] * z).exp() * phase.cos();
        }
        acc
    }

    /// Worst error of the stored terms over a deterministic sweep of the
    /// validity region, twice as fine per axis as the one the angular counts
    /// were trimmed against, measured relative to the kernel at the closest
    /// possible separation (`r = z_min`) — the error measure of
    /// Cheng–Greengard–Rokhlin, which is what bounds the final potential
    /// error of the FMM.  A pointwise *relative* criterion would be
    /// unattainable for strong screening, where the exact kernel underflows
    /// at the far corner of the region.
    ///
    /// The trapezoid-in-α discretisation makes the error azimuthally
    /// structured; the sweep covers the full quadrant (every rule is
    /// mirror-symmetric about both transverse axes).
    fn validate(&self) -> f64 {
        self.sup_error(&Sweep::new(&self.spec, VALIDATE_DENSITY))
    }

    /// The term ranges of the `λ` nodes.
    fn nodes(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.node_len.iter().scan(0, |start, &len| {
            let run = *start..*start + len;
            *start = run.end;
            Some(run)
        })
    }

    /// `sup |rule − kernel| / kernel(z_min)` over the sweep, evaluating the
    /// stored terms.  Along a ray of fixed azimuth a term's phase is linear
    /// in the (uniform) `ρ` index, so its cosines follow from one `cos` by
    /// the Chebyshev recurrence — run for every azimuth at once, which keeps
    /// the inner loop free of dependencies; `e^{-s z}` factors out per node.
    fn sup_error(&self, sweep: &Sweep) -> f64 {
        let (n_rho, n_phi) = (sweep.rho.len(), sweep.phi.len());
        let d_rho = sweep.rho[1] - sweep.rho[0];
        let azimuth: Vec<(f64, f64)> = sweep.phi.iter().map(|phi| phi.sin_cos()).collect();
        // The rule's value `[z][ρ][φ]`, and one node's angular sum `[ρ][φ]`.
        let mut value = vec![0.0; sweep.z.len() * n_rho * n_phi];
        let mut ring = vec![0.0; n_rho * n_phi];
        let (mut prev, mut cur, mut twice) = (vec![0.0; n_phi], vec![0.0; n_phi], vec![0.0; n_phi]);
        for run in self.nodes() {
            let s = self.s[run.start];
            ring.fill(0.0);
            for i in run {
                for (l, (sin_p, cos_p)) in azimuth.iter().enumerate() {
                    let along = cos_p * self.cos_a[i] + sin_p * self.sin_a[i];
                    twice[l] = 2.0 * (self.lambda[i] * d_rho * along).cos();
                    (prev[l], cur[l]) = (0.5 * twice[l], 1.0);
                }
                for row in ring.chunks_exact_mut(n_phi) {
                    for l in 0..n_phi {
                        row[l] += self.w[i] * cur[l];
                        (prev[l], cur[l]) = (cur[l], twice[l] * cur[l] - prev[l]);
                    }
                }
            }
            for (plane, z) in value.chunks_exact_mut(ring.len()).zip(&sweep.z) {
                let decay = (-s * z).exp();
                for (v, a) in plane.iter_mut().zip(&ring) {
                    *v += decay * a;
                }
            }
        }
        let mut worst = 0.0f64;
        for (plane, z) in value.chunks_exact(ring.len()).zip(&sweep.z) {
            for (row, rho) in plane.chunks_exact(n_phi).zip(&sweep.rho) {
                let exact = self.spec.exact((rho * rho + z * z).sqrt());
                worst = row.iter().fold(worst, |m, v| m.max((v - exact).abs()));
            }
        }
        worst / self.spec.exact(self.spec.z_min)
    }
}

/// A deterministic sweep of the validity region: uniform in `z`, in `ρ`
/// (from 0) and in the azimuth over one quadrant, end points included.
struct Sweep {
    z: Vec<f64>,
    rho: Vec<f64>,
    phi: Vec<f64>,
}

impl Sweep {
    /// A sweep with `density` samples per period of the error's fastest
    /// oscillation: `J_M(λρ)` runs through `λ_max ρ_max / 2π` periods in
    /// `ρ`, and `cos Mφ` with `M ≈ λ_max ρ_max` through a quarter as many
    /// as `M` over the quadrant.  In `z` the error is a sum of decaying
    /// exponentials; `2·density` intervals resolve it.
    fn new(spec: &QuadSpec, density: f64) -> Self {
        let x_max = spec.lambda_max() * spec.rho_max;
        let grid = |a: f64, b: f64, intervals: f64| -> Vec<f64> {
            let n = intervals.ceil().max(1.0);
            (0..=n as usize)
                .map(|i| a + (b - a) * i as f64 / n)
                .collect()
        };
        Sweep {
            z: grid(spec.z_min, spec.z_max, 2.0 * density),
            rho: grid(0.0, spec.rho_max, density * x_max / std::f64::consts::TAU),
            phi: grid(0.0, std::f64::consts::FRAC_PI_2, density * x_max / 4.0),
        }
    }

    /// `cos(m φ)` for `m = 0..=top` at every azimuth, `[m · n_phi + l]`.
    fn cos_multiples(&self, top: usize) -> Vec<f64> {
        (0..=top)
            .flat_map(|m| self.phi.iter().map(move |&phi| (m as f64 * phi).cos()))
            .collect()
    }
}

fn sup_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |m, x| m.max(x.abs()))
}

/// Order past which `J_m(x)` is negligible (`< 1e-13`): `m − x` a few
/// widths `x^{1/3}` of the transition region beyond the turning point.
fn negligible_order(x: f64) -> usize {
    (x + 10.0 * x.cbrt()).ceil() as usize + 10
}

/// `J_0(x), …, J_n(x)` for `x ≥ 0` by Miller's backward recurrence,
/// normalised with `J_0 + 2 Σ J_{2k} = 1`.
fn bessel_j(n: usize, x: f64) -> Vec<f64> {
    let mut j = vec![0.0; n + 1];
    // Below this every order but the zeroth underflows any tolerance, and
    // the recurrence's growth `2k/x` per step would overflow.
    if x < 1e-100 {
        j[0] = 1.0;
        return j;
    }
    const BIG: f64 = 1e150;
    let start = negligible_order((n as f64).max(x)).next_multiple_of(2);
    let (mut above, mut cur) = (0.0, 1.0 / BIG);
    let mut norm = 0.0;
    let two_over_x = 2.0 / x;
    for k in (1..=start).rev() {
        (above, cur) = (cur, k as f64 * two_over_x * cur - above);
        if cur.abs() > BIG {
            above /= BIG;
            cur /= BIG;
            norm /= BIG;
            j.iter_mut().for_each(|v| *v /= BIG);
        }
        let order = k - 1;
        if order <= n {
            j[order] = cur;
        }
        if order % 2 == 0 {
            norm += if order == 0 { cur } else { 2.0 * cur };
        }
    }
    j.iter_mut().for_each(|v| *v /= norm);
    j
}

/// `J_0(j h)` and `J_1(j h)` for `j = 0..j0.len()`.  The `M`-angle
/// trapezoid rule on `J_0(x) = (1/2π)∫ cos(x sin θ) dθ` and
/// `J_1(x) = (1/2π)∫ sin θ sin(x sin θ) dθ` leaves, by Jacobi–Anger, only
/// orders `pM` and `pM ± 1`, negligible once `M` passes
/// [`negligible_order`] of the largest argument; both integrands are even
/// about `θ = 0` and `θ = π/2`, so a quarter of the angles carry the sum.
/// Along the grid an angle's phase `j h sin θ` is linear in `j`, so its
/// cosines and sines follow from one `sin_cos` by the Chebyshev
/// recurrence, run for four angles at once so that no step waits on the
/// one before.
fn bessel_j01_grid(h: f64, j0: &mut [f64], j1: &mut [f64]) {
    const LANES: usize = 4;
    let m = (negligible_order(h * (j0.len() - 1) as f64) + 1).next_multiple_of(4);
    let quarter = m / 4;
    j0.fill(0.0);
    j1.fill(0.0);
    for first in (0..=quarter).step_by(LANES) {
        // Per lane: the weights of `cos` and `sin`, `2 cos(h sin θ)`, and the
        // recurrence's state at `j − 1` and `j`.  Idle lanes weigh nothing.
        let (mut wc, mut ws, mut twice) = ([0.0; LANES], [0.0; LANES], [0.0; LANES]);
        let (mut c_prev, mut c, mut s_prev, mut s) =
            ([0.0; LANES], [1.0; LANES], [0.0; LANES], [0.0; LANES]);
        for (l, i) in (first..=quarter).take(LANES).enumerate() {
            let sin_t = (std::f64::consts::TAU * i as f64 / m as f64).sin();
            let weight = if i == 0 || i == quarter { 2.0 } else { 4.0 } / m as f64;
            let (sin_p, cos_p) = (h * sin_t).sin_cos();
            (wc[l], ws[l], twice[l]) = (weight, weight * sin_t, 2.0 * cos_p);
            (c_prev[l], s_prev[l]) = (cos_p, -sin_p);
        }
        for (a, b) in j0.iter_mut().zip(j1.iter_mut()) {
            for l in 0..LANES {
                *a += wc[l] * c[l];
                *b += ws[l] * s[l];
                (c_prev[l], c[l]) = (c[l], twice[l] * c[l] - c_prev[l]);
                (s_prev[l], s[l]) = (s[l], twice[l] * s[l] - s_prev[l]);
            }
        }
    }
}

/// The error of a rule under construction, on one sweep, split the way it
/// arises.  Integrating `α` out exactly leaves the `s` rule's own
/// (*radial*) error `Σ_k w_k e^{-s_k z} J_0(λ_k ρ) − K`; the `M`-point
/// trapezoid on node `k` then adds the Jacobi–Anger *alias*
/// `w_k e^{-s_k z} · 2 Σ_{p≥1} (−1)^{pM/2} J_{pM}(λ_k ρ) cos(pMφ)`,
/// whose leading term `2 w_k e^{-s_k z_min} sup_ρ |J_M(λ_k ρ)|` sizes
/// `M`.  Both are read off one Bessel table per (node, `ρ`), so changing
/// one node's `M` costs no trigonometry and no pass over the other nodes.
struct ErrorModel<'a> {
    sweep: &'a Sweep,
    s: Vec<f64>,
    lambda: Vec<f64>,
    /// Weight in `s` (which carries the Yukawa `λ/s`).
    weight: Vec<f64>,
    /// `weight[k] e^{-s_k z} / K(z_min)`, `[k][z]`.
    decay: Vec<Vec<f64>>,
    /// `J_0..(λ_k ρ)`, `[k · n_rho + r]`, each to its negligible order.
    bessel: Vec<Vec<f64>>,
    /// `cos(m φ)`, `[m · n_phi + l]`.
    cos_m: &'a [f64],
    /// Current error relative to `K(z_min)`, `[z][ρ][φ]`; the radial part
    /// alone until aliases are deposited.
    residual: Vec<f64>,
}

impl<'a> ErrorModel<'a> {
    /// The `s` rule `radial` with every angular integral exact.
    fn new(spec: &QuadSpec, sweep: &'a Sweep, cos_m: &'a [f64], radial: &Radial) -> Self {
        let Radial { s, w: weight } = radial.clone();
        let n = s.len();
        let lambda: Vec<f64> = s.iter().map(|&s| spec.lambda(s)).collect();
        let scale = spec.exact(spec.z_min);
        let decay: Vec<Vec<f64>> = (0..n)
            .map(|k| {
                sweep
                    .z
                    .iter()
                    .map(|z| weight[k] * (-s[k] * z).exp() / scale)
                    .collect()
            })
            .collect();
        let bessel: Vec<Vec<f64>> = lambda
            .iter()
            .flat_map(|&l| {
                sweep
                    .rho
                    .iter()
                    .map(move |&rho| bessel_j(negligible_order(l * rho), l * rho))
            })
            .collect();
        let (n_rho, n_phi) = (sweep.rho.len(), sweep.phi.len());
        let mut residual = Vec::with_capacity(sweep.z.len() * n_rho * n_phi);
        for (iz, &z) in sweep.z.iter().enumerate() {
            for (r, &rho) in sweep.rho.iter().enumerate() {
                let rule: f64 = (0..n)
                    .map(|k| decay[k][iz] * bessel[k * n_rho + r][0])
                    .sum();
                let err = rule - spec.exact((rho * rho + z * z).sqrt()) / scale;
                residual.extend(std::iter::repeat_n(err, n_phi));
            }
        }
        ErrorModel {
            sweep,
            s,
            lambda,
            weight,
            decay,
            bessel,
            cos_m,
            residual,
        }
    }

    /// The smallest even `M` per node whose leading alias, at its worst
    /// over the region, stays under `share`.  `J_M(λ_k ρ)` rises
    /// monotonically on `ρ ≤ ρ_max` once `M > λ_k ρ_max`; below that only
    /// the envelope bounds it — so a node light enough for the envelope
    /// gets `M = 2` however large its `λ`.
    fn angular_counts(&self, share: f64) -> Vec<usize> {
        let n_rho = self.sweep.rho.len();
        (0..self.s.len())
            .map(|k| {
                let at_rho_max = &self.bessel[(k + 1) * n_rho - 1];
                let x_max = self.lambda[k] * self.sweep.rho[n_rho - 1];
                let lead = 2.0 * self.decay[k][0].abs();
                (2..)
                    .step_by(2)
                    .find(|&m| {
                        let sup = if m as f64 <= x_max {
                            BESSEL_ENVELOPE / (m as f64).cbrt()
                        } else {
                            at_rho_max.get(m).map_or(0.0, |j| j.abs())
                        };
                        lead * sup <= share
                    })
                    .expect("J_M vanishes past the table")
            })
            .collect()
    }

    /// Node `k`'s alias with `m` angles, per unit `decay`, `[ρ][φ]`.
    fn alias(&self, k: usize, m: usize) -> Vec<f64> {
        let (n_rho, n_phi) = (self.sweep.rho.len(), self.sweep.phi.len());
        let mut out = vec![0.0; n_rho * n_phi];
        for (r, row) in out.chunks_exact_mut(n_phi).enumerate() {
            let table = &self.bessel[k * n_rho + r];
            for order in (m..table.len()).step_by(m) {
                let coef = if order / 2 % 2 == 0 { 2.0 } else { -2.0 } * table[order];
                let cos = &self.cos_m[order * n_phi..(order + 1) * n_phi];
                for (o, c) in row.iter_mut().zip(cos) {
                    *o += coef * c;
                }
            }
        }
        out
    }

    /// `residual += decay[k] ⊗ field`.
    fn deposit(&mut self, k: usize, field: &[f64]) {
        for (plane, &d) in self
            .residual
            .chunks_exact_mut(field.len())
            .zip(&self.decay[k])
        {
            for (r, f) in plane.iter_mut().zip(field) {
                *r += d * f;
            }
        }
    }

    /// Whether depositing `field` on node `k` would keep the residual
    /// within `target` everywhere.
    fn fits(&self, k: usize, field: &[f64], target: f64) -> bool {
        self.residual
            .chunks_exact(field.len())
            .zip(&self.decay[k])
            .all(|(plane, &d)| {
                plane
                    .iter()
                    .zip(field)
                    .all(|(r, f)| (r + d * f).abs() <= target)
            })
    }

    /// Lower one node's count by two while the residual allows, heaviest
    /// `λ` first: those nodes buy the most terms per unit of error.
    fn trim(&mut self, counts: &mut [usize], target: f64) {
        for k in (0..counts.len()).rev() {
            let mut current = self.alias(k, counts[k]);
            while counts[k] > 2 {
                let trial = self.alias(k, counts[k] - 2);
                let step: Vec<f64> = trial.iter().zip(&current).map(|(t, c)| t - c).collect();
                if !self.fits(k, &step, target) {
                    break;
                }
                self.deposit(k, &step);
                current = trial;
                counts[k] -= 2;
            }
        }
    }
}

/// A rule in `s`: nodes and weights, with every angular integral exact.
#[derive(Clone, Debug)]
struct Radial {
    s: Vec<f64>,
    w: Vec<f64>,
}

impl Radial {
    /// `|w_k| e^{-s_k z}`: what node `k` contributes at its strongest.
    fn significance(&self, k: usize, z: f64) -> f64 {
        self.w[k].abs() * (-self.s[k] * z).exp()
    }

    /// The nodes in increasing `s`, which a refit may have reordered.
    fn sorted(self) -> Self {
        let mut by_s: Vec<usize> = (0..self.s.len()).collect();
        by_s.sort_by(|&a, &b| self.s[a].total_cmp(&self.s[b]));
        Radial {
            s: by_s.iter().map(|&i| self.s[i]).collect(),
            w: by_s.iter().map(|&i| self.w[i]).collect(),
        }
    }

    fn without(&self, k: usize) -> Self {
        let keep = |v: &[f64]| [&v[..k], &v[k + 1..]].concat();
        Radial {
            s: keep(&self.s),
            w: keep(&self.w),
        }
    }
}

/// Most Gauss–Newton steps one refit takes.
const FIT_STEPS: usize = 40;
/// A refit stops once a step gains less than this fraction of the sum of
/// squares.
const FIT_STALL: f64 = 1e-3;
/// `z` samples of the fit per e-fold of the fastest term, `e^{-s_max z}`.
const FIT_Z_PER_EFOLD: f64 = 2.0;

/// The `s` rule's own error, `Σ_k w_k e^{-s_k z} J_0(λ_k ρ) − K`, relative
/// to `K(z_min)` (it does not depend on the azimuth), and the node
/// elimination that shortens a rule against it: a generalized Gaussian rule
/// fitted to this family of integrands, as in Cheng–Greengard–Rokhlin,
/// rather than Gauss–Legendre's polynomials.  The grid is the trim sweep's
/// `ρ` and a `z` fine enough for the fastest decay: on the sweep's own
/// eight `z` intervals a fit moves its error between the samples.
struct RadialFit<'a> {
    spec: &'a QuadSpec,
    z: Vec<f64>,
    rho: &'a [f64],
    /// `K(z, ρ) / K(z_min)`, `[z][ρ]`.
    kernel: Vec<f64>,
}

/// Each node's terms are separable in `(z, ρ)`, and so are their
/// derivatives: `∂/∂w_k = e_k ⊗ a_k` and `∂/∂s_k = −w_k (z e_k ⊗ a_k +
/// e_k ⊗ b_k)`, with `e_k = e^{-s_k z}/K(z_min)`, `a_k = J_0(λ_k ρ)` and
/// `b_k = −∂_s J_0(λ_k ρ) = (s_k/λ_k) ρ J_1(λ_k ρ)`.
struct Factors {
    /// `e_k`, `[k][z]`.
    e: Vec<f64>,
    /// `a_k`, `[k][ρ]`.
    a: Vec<f64>,
    /// `b_k`, `[k][ρ]`.
    b: Vec<f64>,
}

fn dot(u: &[f64], v: &[f64]) -> f64 {
    u.iter().zip(v).map(|(x, y)| x * y).sum()
}

impl<'a> RadialFit<'a> {
    fn new(spec: &'a QuadSpec, sweep: &'a Sweep) -> Self {
        let span = spec.z_max - spec.z_min;
        let intervals = (FIT_Z_PER_EFOLD * span * spec.s_max()).ceil();
        let z: Vec<f64> = (0..=intervals as usize)
            .map(|i| spec.z_min + span * i as f64 / intervals)
            .collect();
        let scale = spec.exact(spec.z_min);
        let kernel = z
            .iter()
            .flat_map(|z| {
                sweep
                    .rho
                    .iter()
                    .map(move |rho| spec.exact(rho.hypot(*z)) / scale)
            })
            .collect();
        RadialFit {
            spec,
            z,
            rho: &sweep.rho,
            kernel,
        }
    }

    /// `sup |residual|` of `rule`.
    fn sup(&self, rule: &Radial) -> f64 {
        let mut residual = vec![0.0; self.kernel.len()];
        self.residual(rule, &mut residual);
        sup_abs(&residual)
    }

    /// The residual of `rule` into `out`, `[z][ρ]`, and the factors of its
    /// terms.
    fn residual(&self, rule: &Radial, out: &mut [f64]) -> Factors {
        let (n_z, n_rho) = (self.z.len(), self.rho.len());
        let scale = self.spec.exact(self.spec.z_min);
        let mut f = Factors {
            e: Vec::with_capacity(rule.s.len() * n_z),
            a: vec![0.0; rule.s.len() * n_rho],
            b: vec![0.0; rule.s.len() * n_rho],
        };
        let d_rho = self.rho[1] - self.rho[0];
        for (k, &s) in rule.s.iter().enumerate() {
            f.e.extend(self.z.iter().map(|z| (-s * z).exp() / scale));
            let lambda = self.spec.lambda(s);
            let (a, b) = (
                &mut f.a[k * n_rho..][..n_rho],
                &mut f.b[k * n_rho..][..n_rho],
            );
            bessel_j01_grid(lambda * d_rho, a, b);
            // `(s/λ) ρ J_1(λρ) → s ρ²/2` as `λ → 0`.
            for (b, &rho) in b.iter_mut().zip(self.rho) {
                *b = if lambda > 0.0 {
                    s / lambda * rho * *b
                } else {
                    0.5 * s * rho * rho
                };
            }
        }
        for ((row, kernel), iz) in out
            .chunks_exact_mut(n_rho)
            .zip(self.kernel.chunks_exact(n_rho))
            .zip(0..)
        {
            row.iter_mut().zip(kernel).for_each(|(o, k)| *o = -k);
            for (k, &w) in rule.w.iter().enumerate() {
                let we = w * f.e[k * n_z + iz];
                for (o, a) in row.iter_mut().zip(&f.a[k * n_rho..][..n_rho]) {
                    *o += we * a;
                }
            }
        }
        f
    }

    /// `JᵀJ` (lower triangle) and `Jᵀr` of the residual `r` in the
    /// parameters `(s_0…s_{n−1}, w_0…w_{n−1})`, from inner products of the
    /// factors along `z` and along `ρ`.
    fn normal_equations(&self, rule: &Radial, f: &Factors, r: &[f64]) -> (Matrix, Vec<f64>) {
        let (n, n_z, n_rho) = (rule.s.len(), self.z.len(), self.rho.len());
        let z = &self.z;
        let e = |k: usize| &f.e[k * n_z..][..n_z];
        let (a, b) = (
            |k: usize| &f.a[k * n_rho..][..n_rho],
            |k: usize| &f.b[k * n_rho..][..n_rho],
        );
        let w = &rule.w;
        let mut normal = Matrix::zeros(2 * n, 2 * n);
        for k in 0..n {
            for l in 0..=k {
                let (mut ee, mut ez, mut zz) = (0.0, 0.0, 0.0);
                for ((ek, el), z) in e(k).iter().zip(e(l)).zip(z) {
                    ee += ek * el;
                    ez += z * ek * el;
                    zz += z * z * ek * el;
                }
                let (aa, ab, ba, bb) = (
                    dot(a(k), a(l)),
                    dot(a(k), b(l)),
                    dot(b(k), a(l)),
                    dot(b(k), b(l)),
                );
                normal[(k, l)] = w[k] * w[l] * (zz * aa + ez * (ab + ba) + ee * bb);
                normal[(n + k, n + l)] = ee * aa;
                normal[(n + k, l)] = -w[l] * (ez * aa + ee * ab);
                normal[(n + l, k)] = -w[k] * (ez * aa + ee * ba);
            }
        }
        let mut gradient = vec![0.0; 2 * n];
        for k in 0..n {
            for ((row, &ek), z) in r.chunks_exact(n_rho).zip(e(k)).zip(z) {
                let (ra, rb) = (dot(row, a(k)), dot(row, b(k)));
                gradient[k] -= w[k] * ek * (z * ra + rb);
                gradient[n + k] += ek * ra;
            }
        }
        (normal, gradient)
    }

    /// Refit every `(s_k, w_k)` of `rule` by damped Gauss–Newton
    /// (Levenberg–Marquardt) on the sum of squares, each `s` kept in
    /// `[κ, s_max]`, until the sup of the residual is `good_enough` or a
    /// step stalls.  Returns that sup.
    fn refit(&self, rule: &mut Radial, good_enough: f64) -> f64 {
        let n = rule.s.len();
        let mut residual = vec![0.0; self.kernel.len()];
        let mut factors = self.residual(rule, &mut residual);
        let mut sse = dot(&residual, &residual);
        let mut trial_residual = residual.clone();
        let mut damping = 1e-3;
        for _ in 0..FIT_STEPS {
            if sup_abs(&residual) <= good_enough {
                break;
            }
            let (normal, gradient) = self.normal_equations(rule, &factors, &residual);
            let floor = 1e-12 * (0..2 * n).map(|j| normal[(j, j)]).fold(0.0, f64::max);
            let mut gained = None;
            while damping < 1e12 {
                let mut damped = normal.clone();
                for j in 0..2 * n {
                    damped[(j, j)] += damping * normal[(j, j)].max(floor);
                }
                let Some(factor) = cholesky(&damped) else {
                    damping *= 10.0;
                    continue;
                };
                let mut step: Vec<f64> = gradient.iter().map(|g| -g).collect();
                factor.solve_in_place(&mut step);
                let trial = Radial {
                    s: (0..n)
                        .map(|k| (rule.s[k] + step[k]).clamp(self.spec.kappa, self.spec.s_max()))
                        .collect(),
                    w: (0..n).map(|k| rule.w[k] + step[n + k]).collect(),
                };
                let trial_factors = self.residual(&trial, &mut trial_residual);
                let trial_sse = dot(&trial_residual, &trial_residual);
                if trial_sse < sse {
                    gained = Some(sse - trial_sse);
                    (*rule, factors, sse) = (trial, trial_factors, trial_sse);
                    std::mem::swap(&mut residual, &mut trial_residual);
                    damping = (damping * 0.3).max(1e-12);
                    break;
                }
                damping *= 4.0;
            }
            match gained {
                Some(gain) if gain > FIT_STALL * (sse + gain) => {}
                _ => break,
            }
        }
        sup_abs(&residual)
    }

    /// Shorten `rule` one node at a time while the refitted residual stays
    /// within `target`, removing the least significant node at `z_min`
    /// each time, then refit the shortest rule until a step stalls and keep
    /// that if it still holds.  Returns the chain of accepted rules, `rule`
    /// first, each sorted by `s`.
    fn eliminate(&self, rule: Radial, target: f64) -> Vec<Radial> {
        let mut chain = vec![rule];
        loop {
            let rule = chain.last().expect("the chain starts non-empty");
            if rule.s.len() == 1 {
                break;
            }
            let z_min = self.spec.z_min;
            let least = (0..rule.s.len())
                .min_by(|&a, &b| {
                    rule.significance(a, z_min)
                        .total_cmp(&rule.significance(b, z_min))
                })
                .expect("the rule is non-empty");
            let mut trial = rule.without(least);
            if self.refit(&mut trial, target) > target {
                break;
            }
            chain.push(trial.sorted());
        }
        let last = chain.last_mut().expect("the chain starts non-empty");
        let mut polished = last.clone();
        if self.refit(&mut polished, 0.0) <= target {
            *last = polished.sorted();
        }
        chain
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laplace_three_digit_rule_validates() {
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        assert!(q.validated_error <= 1e-3, "err = {}", q.validated_error);
        assert!(q.num_terms() > 0);
    }

    #[test]
    fn laplace_six_digit_rule_validates_and_is_longer() {
        let q3 = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        let q6 = PlaneWaveQuad::build(QuadSpec::for_l2(1e-6, 0.0));
        assert!(q6.validated_error <= 1e-6);
        assert!(q6.num_terms() > q3.num_terms());
    }

    #[test]
    fn yukawa_rule_validates() {
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.8));
        assert!(q.validated_error <= 1e-3, "err = {}", q.validated_error);
    }

    #[test]
    fn yukawa_scale_variance_changes_rule() {
        // Different scaled screenings (different tree levels) produce
        // genuinely different rules — the paper's scale-variant behaviour.
        let shallow = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 2.0));
        let deep = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.25));
        let x = (1.5, 0.3, 2.0);
        let a = shallow.eval(x.0, x.1, x.2);
        let b = deep.eval(x.0, x.1, x.2);
        assert!((a - b).abs() > 1e-6, "rules for different κ must differ");
    }

    #[test]
    fn spot_accuracy_on_axis() {
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        // On-axis at z = 2: K = 0.5.
        let got = q.eval(0.0, 0.0, 2.0);
        assert!((got - 0.5).abs() < 1e-3 * 0.5, "got {got}");
    }

    #[test]
    fn spot_accuracy_off_axis_yukawa() {
        let kappa = 1.3;
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, kappa));
        let (x, y, z) = (2.0f64, -1.0, 3.0);
        let r = (x * x + y * y + z * z).sqrt();
        let exact = (-kappa * r).exp() / r;
        let got = q.eval(x, y, z);
        // Error is bounded relative to the kernel at closest separation.
        let scale = (-kappa * 1.0f64).exp() / 1.0;
        assert!((got - exact).abs() <= 1e-3 * scale);
    }

    #[test]
    fn translation_is_diagonal() {
        // Shifting the evaluation point multiplies every term by a phase:
        // eval(x+dx, y+dy, z+dz) equals the term-wise translated sum.
        let q = PlaneWaveQuad::build(QuadSpec::for_l2(1e-3, 0.0));
        let (x, y, z) = (0.7, -0.4, 1.6);
        let (dx, dy, dz) = (0.5, 0.25, 0.8);
        // Direct evaluation at the shifted point.
        let direct = q.eval(x + dx, y + dy, z + dz);
        // Term-wise: accumulate with translated complex coefficients.
        let mut acc = 0.0;
        for i in 0..q.num_terms() {
            let lam = q.lambda[i];
            let ph0 = lam * (x * q.cos_a[i] + y * q.sin_a[i]);
            let phd = lam * (dx * q.cos_a[i] + dy * q.sin_a[i]);
            let decay = (-q.s[i] * (z + dz)).exp();
            acc += q.w[i] * decay * (ph0 + phd).cos();
        }
        assert!((acc - direct).abs() < 1e-12);
    }

    const EPS: [f64; 2] = [1e-3, 1e-6];
    const KAPPAS: [f64; 8] = [0.0, 0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0];

    /// The rule of every `EPS × KAPPAS` spec, built once for all the tests
    /// that only read it.
    fn rules() -> &'static [PlaneWaveQuad] {
        static RULES: std::sync::OnceLock<Vec<PlaneWaveQuad>> = std::sync::OnceLock::new();
        RULES.get_or_init(|| {
            EPS.iter()
                .flat_map(|&eps| KAPPAS.map(|kappa| QuadSpec::for_l2(eps, kappa)))
                .map(PlaneWaveQuad::build)
                .collect()
        })
    }

    /// `(terms, λ, weight e^{-s z_min} / K(z_min))` of each node.
    fn weights(q: &PlaneWaveQuad) -> Vec<(usize, f64, f64)> {
        let spec = q.spec;
        q.nodes()
            .map(|run| {
                let weight = q.w[run.start] * run.len() as f64;
                let damped = weight * (-q.s[run.start] * spec.z_min).exp();
                (
                    run.len(),
                    q.lambda[run.start],
                    damped / spec.exact(spec.z_min),
                )
            })
            .collect()
    }

    /// [`PlaneWaveQuad::sup_error`] without its shortcuts: every term's
    /// cosine at every `(ρ, φ)`, summed per node, combined per `z`.
    fn naive_sup_error(q: &PlaneWaveQuad, sweep: &Sweep) -> f64 {
        let spec = q.spec;
        let nodes: Vec<_> = q.nodes().collect();
        let mut worst = 0.0f64;
        for &rho in &sweep.rho {
            for &phi in &sweep.phi {
                let (x, y) = (rho * phi.cos(), rho * phi.sin());
                let angular: Vec<f64> = nodes
                    .iter()
                    .map(|run| {
                        run.clone()
                            .map(|i| {
                                q.w[i] * (q.lambda[i] * (x * q.cos_a[i] + y * q.sin_a[i])).cos()
                            })
                            .sum()
                    })
                    .collect();
                for &z in &sweep.z {
                    let got: f64 = nodes
                        .iter()
                        .zip(&angular)
                        .map(|(run, a)| a * (-q.s[run.start] * z).exp())
                        .sum();
                    let exact = spec.exact((rho * rho + z * z).sqrt());
                    worst = worst.max((got - exact).abs());
                }
            }
        }
        worst / spec.exact(spec.z_min)
    }

    /// The sweep with every interval of every axis cut in three.
    fn thirds(sweep: &Sweep) -> Sweep {
        let cut = |axis: &[f64]| -> Vec<f64> {
            let mut out: Vec<f64> = axis
                .windows(2)
                .flat_map(|p| (0..3).map(move |i| p[0] + (p[1] - p[0]) * i as f64 / 3.0))
                .collect();
            out.push(*axis.last().unwrap());
            out
        };
        Sweep {
            z: cut(&sweep.z),
            rho: cut(&sweep.rho),
            phi: cut(&sweep.phi),
        }
    }

    /// Every rule holds on a sweep three times finer per axis than the
    /// one `validate()` passed it on.  That sweep is 27× denser, which takes
    /// the naive evaluator ~40 s at six digits, so the fast one measures it —
    /// after the naive one has vouched for it on `validate()`'s own sweep.
    #[test]
    fn rules_hold_on_a_sweep_three_times_finer_than_validation() {
        for q in rules() {
            let QuadSpec { eps, kappa, .. } = q.spec;
            assert!(q.validated_error <= eps);
            let validated = Sweep::new(&q.spec, VALIDATE_DENSITY);
            let naive = naive_sup_error(q, &validated);
            assert!(
                (naive - q.validated_error).abs() <= 1e-6 * eps,
                "eps {eps} kappa {kappa}: {naive} vs {}",
                q.validated_error
            );
            let err = q.sup_error(&thirds(&validated));
            assert!(err <= eps, "eps {eps} kappa {kappa}: sup error {err}");
        }
    }

    /// The fitted `s` rule alone, every angular integral exact, holds its
    /// share of `ε` between the points it was fitted on: the trim sweep's
    /// `(z, ρ)` grid with every interval cut in three.  An overfitted rule
    /// would meet the share only on the grid.
    #[test]
    fn radial_rule_holds_its_share_between_fit_points() {
        for q in rules() {
            let spec = q.spec;
            let sweep = thirds(&Sweep::new(&spec, TRIM_DENSITY));
            let nodes: Vec<(f64, f64, f64)> = q
                .nodes()
                .map(|run| (q.s[run.start], q.lambda[run.start], q.w[run].iter().sum()))
                .collect();
            let mut worst = 0.0f64;
            for &z in &sweep.z {
                for &rho in &sweep.rho {
                    let rule: f64 = nodes
                        .iter()
                        .map(|&(s, lambda, w)| w * (-s * z).exp() * bessel_j(0, lambda * rho)[0])
                        .sum();
                    worst = worst.max((rule - spec.exact(rho.hypot(z))).abs());
                }
            }
            let err = worst / spec.exact(spec.z_min);
            assert!(
                err <= RADIAL_SHARE * spec.eps,
                "eps {} kappa {}: radial error {err}",
                spec.eps,
                spec.kappa
            );
        }
    }

    #[test]
    fn build_is_deterministic() {
        for a in rules().iter().step_by(3) {
            let b = PlaneWaveQuad::build(a.spec);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (u, v) in [
                (&a.lambda, &b.lambda),
                (&a.s, &b.s),
                (&a.w, &b.w),
                (&a.cos_a, &b.cos_a),
                (&a.sin_a, &b.sin_a),
            ] {
                assert_eq!(bits(u), bits(v));
            }
            assert_eq!(a.node_len, b.node_len);
            assert_eq!(a.validated_error.to_bits(), b.validated_error.to_bits());
        }
    }

    /// The rule this module built before angular counts knew about weights:
    /// three-plus uniform Gauss–Legendre panels in `λ`, split at `κ`, and
    /// `M_k ≈ λ_k ρ_max + ln(1/ε) + 4` angles on every node.  Kept as the
    /// baseline the length guard measures against.
    fn legacy_candidate(spec: QuadSpec, mult: f64) -> PlaneWaveQuad {
        let safety = 1.0 + 2.0 * mult;
        let lam_max = ((1.0 / spec.eps).ln() + safety) / spec.z_min;
        let osc_wavelength = std::f64::consts::TAU / spec.rho_max.max(1.0);
        let panel_w = (4.0 * osc_wavelength).min(lam_max / 2.0);
        let n_panels = (lam_max / panel_w).ceil() as usize;
        let per_panel = ((8.0 * mult).ceil() as usize).max(3);
        let mut edges: Vec<f64> = (0..=n_panels)
            .map(|p| p as f64 * lam_max / n_panels as f64)
            .collect();
        if spec.kappa > 0.0 && spec.kappa < lam_max {
            edges.push(spec.kappa);
            edges.sort_by(f64::total_cmp);
            edges.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        }
        let log_eps = (1.0 / spec.eps).ln();
        let mut q = PlaneWaveQuad {
            spec,
            lambda: Vec::new(),
            s: Vec::new(),
            w: Vec::new(),
            cos_a: Vec::new(),
            sin_a: Vec::new(),
            node_len: Vec::new(),
            validated_error: f64::NAN,
        };
        for pair in edges.windows(2) {
            let (xs, ws) = gauss_legendre(per_panel, pair[0], pair[1]);
            for (&lk, &wk) in xs.iter().zip(&ws) {
                let sk = (lk * lk + spec.kappa * spec.kappa).sqrt();
                let gk = if spec.kappa > 0.0 { lk / sk } else { 1.0 };
                let need = (lk * spec.rho_max + log_eps + 4.0) * mult.max(0.8);
                let m_full = 2 * ((need / 2.0).ceil() as usize).max(2);
                q.node_len.push(m_full / 2);
                for j in 0..m_full / 2 {
                    let alpha = std::f64::consts::TAU * j as f64 / m_full as f64;
                    q.lambda.push(lk);
                    q.s.push(sk);
                    q.w.push(2.0 * wk * gk / m_full as f64);
                    q.cos_a.push(alpha.cos());
                    q.sin_a.push(alpha.sin());
                }
            }
        }
        q
    }

    /// The legacy rule's own acceptance sweep: 8 × 10 × 8 points.
    fn legacy_validate(q: &PlaneWaveQuad) -> f64 {
        let spec = q.spec;
        let mut worst = 0.0f64;
        for iz in 0..=7 {
            let z = spec.z_min + (spec.z_max - spec.z_min) * iz as f64 / 7.0;
            for ir in 0..=9 {
                let rho = spec.rho_max * ir as f64 / 9.0;
                for ia in 0..8 {
                    let (sin, cos) = (std::f64::consts::FRAC_PI_2 * ia as f64 / 7.0).sin_cos();
                    let exact = spec.exact((rho * rho + z * z).sqrt());
                    worst = worst.max((q.eval(rho * cos, rho * sin, z) - exact).abs());
                }
            }
        }
        worst / spec.exact(spec.z_min)
    }

    /// What `build` returned before: the first rung of the legacy ladder
    /// its own sweep accepted.
    fn legacy_terms(spec: QuadSpec) -> usize {
        [0.35, 0.42, 0.5, 0.6, 0.7, 0.85, 1.0, 1.2, 1.4, 1.7, 2.0]
            .into_iter()
            .map(|mult| legacy_candidate(spec, mult))
            .find(|q| legacy_validate(q) <= spec.eps)
            .expect("the legacy ladder reaches three digits")
            .num_terms()
    }

    /// Three-digit lengths.  The legacy baseline is pinned to the counts
    /// recorded before the change (Laplace and the four levels of
    /// `fmm-sphere-yukawa-50k`), so the "half" it grants cannot drift.
    #[test]
    fn rules_are_at_most_half_the_legacy_length() {
        for (kappa, recorded) in [
            (0.0, 526),
            (0.0625, 878),
            (0.125, 577),
            (0.25, 582),
            (0.5, 586),
        ] {
            assert_eq!(legacy_terms(QuadSpec::for_l2(1e-3, kappa)), recorded);
        }
        let three_digit = &rules()[..KAPPAS.len()];
        assert!(three_digit[0].num_terms() <= 130);
        for q in three_digit.iter().filter(|q| q.spec.kappa <= 0.5) {
            assert!(
                q.num_terms() <= 135,
                "kappa {}: {} terms",
                q.spec.kappa,
                q.num_terms()
            );
        }
        for q in three_digit {
            let (new, old) = (q.num_terms(), legacy_terms(q.spec));
            assert!(
                2 * new <= old,
                "kappa {}: {new} terms against {old}",
                q.spec.kappa
            );
        }
        let six_digit = &rules()[KAPPAS.len()..];
        assert!(six_digit[0].num_terms() <= 671);
        for (q3, q6) in three_digit.iter().zip(six_digit) {
            assert!(q6.num_terms() > q3.num_terms());
        }
    }

    #[test]
    fn bessel_j_matches_tables_and_identities() {
        // Reference values: the ascending series summed in 120-digit
        // decimal arithmetic (they agree with Abramowitz & Stegun 9.1–9.3).
        for (order, x, want) in [
            (0, 1.0, 0.765_197_686_557_966_6),
            (1, 1.0, 0.440_050_585_744_933_5),
            (2, 1.0, 0.114_903_484_931_900_5),
            (0, 10.0, -0.245_935_764_451_348_3),
            (1, 10.0, 0.043_472_746_168_861_44),
            (5, 10.0, -0.234_061_528_186_793_6),
            (10, 10.0, 0.207_486_106_633_358_9),
            (20, 10.0, 1.151_336_924_781_34e-5),
            (30, 1.0, 3.482_869_794_251_482e-42),
            (0, 50.0, 0.055_812_327_669_251_8),
            (40, 50.0, -0.138_176_281_201_161_4),
            (60, 50.0, 1.048_519_599_531_418e-3),
            (3, 0.1, 2.082_031_575_475_626e-5),
            (0, 100.0, 0.019_985_850_304_223_12),
            (100, 100.0, 0.096_366_673_295_861_56),
        ] {
            let got = bessel_j(order, x)[order];
            assert!(
                (got - want).abs() <= 1e-13 * want.abs().max(1e-3),
                "J_{order}({x}) = {got}, want {want}"
            );
        }
        // x = 0, and an argument small enough to overflow a naive recurrence.
        assert_eq!(bessel_j(4, 0.0), [1.0, 0.0, 0.0, 0.0, 0.0]);
        let tiny = bessel_j(3, 1e-80);
        assert_eq!(tiny[0], 1.0);
        assert!((tiny[1] - 0.5e-80).abs() <= 1e-93 && tiny[3].abs() < 1e-200);
        // Recurrence, Σ J² = 1 and the order-sum, across M < x, M ≈ x, M ≫ x.
        for x in [0.3, 2.0, 17.5, 60.0, 140.0] {
            let top = negligible_order(x);
            let j = bessel_j(top, x);
            for m in 1..top {
                let lhs = j[m - 1] + j[m + 1];
                let rhs = 2.0 * m as f64 / x * j[m];
                assert!(
                    (lhs - rhs).abs() <= 1e-12 * (1.0 + rhs.abs()),
                    "x {x} m {m}"
                );
            }
            let squares = j[0] * j[0] + 2.0 * j[1..].iter().map(|v| v * v).sum::<f64>();
            assert!((squares - 1.0).abs() < 1e-12, "x {x}: {squares}");
            assert!(j[top].abs() < 1e-13, "x {x}: J_{top} = {}", j[top]);
            // Asking for fewer orders returns the same leading values.
            let short = bessel_j(3, x);
            for m in 0..=3 {
                assert!((short[m] - j[m]).abs() <= 1e-13);
            }
        }
    }

    #[test]
    fn bessel_j01_on_a_grid_matches_bessel_j() {
        for h in [0.0, 1e-9, 0.3, 0.85, 1.7] {
            let (mut j0, mut j1) = (vec![0.0; 90], vec![0.0; 90]);
            bessel_j01_grid(h, &mut j0, &mut j1);
            for (j, (a, b)) in j0.iter().zip(&j1).enumerate() {
                let want = bessel_j(1, h * j as f64);
                assert!(
                    (a - want[0]).abs() <= 1e-13,
                    "J_0({h}·{j}): {a} vs {}",
                    want[0]
                );
                assert!(
                    (b - want[1]).abs() <= 1e-13,
                    "J_1({h}·{j}): {b} vs {}",
                    want[1]
                );
            }
        }
    }

    /// The damped tail.  The threshold is `ε/5`, not the `ε/4` one might
    /// hope for: two angles on a node of damped weight `d` alias up to
    /// `2 sup|J_2| d = 0.97 d`, a Gauss–Legendre tail's weights roughly
    /// halve from node to node (three digits: … 0.48, 0.24, 0.11, 0.04 `ε`),
    /// so a tail starting below `t` costs `≈ 2 t`, and the trim has
    /// `(TRIM_TARGET − RADIAL_SHARE) ε = 0.4 ε` to spend: `t ≈ ε/5`.  The
    /// fitted rules' lightest nodes weigh more than `ε` and keep their
    /// angles; the bound still holds for any node that is that light.
    #[test]
    fn damped_tail_collapses_to_two_angles() {
        for q in rules() {
            let QuadSpec { eps, kappa, .. } = q.spec;
            let nodes = weights(q);
            for &(terms, lambda, weight) in &nodes {
                assert!(
                    weight >= eps / 5.0 || terms == 1,
                    "eps {eps} kappa {kappa}: λ = {lambda} weighs {weight} and has {terms} terms"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn absurd_spec_rejected() {
        let _ = PlaneWaveQuad::build(QuadSpec {
            eps: 0.9,
            ..QuadSpec::for_l2(1e-3, 0.0)
        });
    }
}

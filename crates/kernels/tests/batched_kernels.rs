//! Property tests: the kernel row APIs (`potential_rows`, `field_rows`)
//! match a per-pair scalar `eval` / `deriv` reference to ≤ 1e-14 of
//! `Σ|w·K|` (`Σ|w·K'|` for the gradient) for every built-in kernel, over
//! 1–9 targets and source runs with 0–7 tail sources behind whole vectors,
//! including coincident pairs (the `r = 0` exclusion) and pairs the vector
//! lanes hand to the scalar fix-up: separations below the normal-f32 floor,
//! past Yukawa's underflow cutoff and past the f32 range.
//!
//! The surface columns (`surface_potentials`) are held to the same bound
//! against the same reference, on lattices whose length is not a multiple
//! of the vector block, with coincident and beyond-cutoff sources, and
//! every point's value must not change when the surface is cut short.
//!
//! On machines without AVX2+FMA the rows are the scalar default and these
//! tests degenerate to summation-order identities; they are unconditional
//! so the contract is pinned on every platform.

use dashmm_kernels::{Gauss, Kernel, Laplace, Sources, Yukawa};
use proptest::prelude::*;

/// SoA source positions and weights.
struct Soa {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    w: Vec<f64>,
}

impl Soa {
    fn view(&self) -> Sources<'_> {
        Sources {
            x: &self.x,
            y: &self.y,
            z: &self.z,
            w: &self.w,
        }
    }
}

fn rng(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// `nt` targets and `ns` sources in a unit cube, the sources salted with
/// the adversarial cases: exact coincidences with targets, sub-f32-normal
/// separations, and sources so far away that the vector lanes decline them.
fn case(nt: usize, ns: usize, seed: u64) -> (Vec<[f64; 3]>, Soa) {
    let mut next = rng(seed);
    let mut targets: Vec<[f64; 3]> = (0..nt).map(|_| [next(), next(), next()]).collect();
    // Near the origin, so a sub-f32-normal separation is representable.
    targets[0] = [1e-21, -2e-21, 0.0];
    let mut src = Soa {
        x: Vec::new(),
        y: Vec::new(),
        z: Vec::new(),
        w: Vec::new(),
    };
    for j in 0..ns {
        let t = targets[j % nt];
        let p = match (seed as usize + j) % 7 {
            0 => t,
            1 => [3e-20, 1e-20, -2e-20],
            2 => [t[0] + 1e4, t[1], t[2]],
            3 => [t[0], t[1] - 3e19, t[2]],
            _ => [next(), next(), next()],
        };
        src.x.push(p[0]);
        src.y.push(p[1]);
        src.z.push(p[2]);
        src.w.push(2.0 * next());
    }
    (targets, src)
}

/// Per-pair reference rows and their scales `Σ|w·K|`, `Σ|w·K'|`.
fn reference<K: Kernel>(k: &K, targets: &[[f64; 3]], s: &Soa) -> (Vec<f64>, Vec<[f64; 2]>) {
    let mut out = vec![0.0; 4 * targets.len()];
    let mut scale = vec![[0.0; 2]; targets.len()];
    for (i, t) in targets.iter().enumerate() {
        for j in 0..s.w.len() {
            let d = [t[0] - s.x[j], t[1] - s.y[j], t[2] - s.z[j]];
            let r = (d[0] * d[0] + d[1] * d[1] + d[2] * d[2]).sqrt();
            if r == 0.0 {
                continue;
            }
            let (kv, dv) = (k.eval(r), k.deriv(r));
            out[4 * i] += s.w[j] * kv;
            for a in 0..3 {
                out[4 * i + 1 + a] += s.w[j] * dv * d[a] / r;
            }
            scale[i][0] += (s.w[j] * kv).abs();
            scale[i][1] += (s.w[j] * dv).abs();
        }
    }
    (out, scale)
}

fn check_rows<K: Kernel>(k: &K, nt: usize, ns: usize, seed: u64) {
    let (targets, src) = case(nt, ns, seed);
    let (want, scale) = reference(k, &targets, &src);
    let close = |got: f64, want: f64, scale: f64, what: &str| {
        let err = (got - want).abs();
        assert!(
            err <= 1e-14 * scale || got.to_bits() == want.to_bits(),
            "{} {what} nt={nt} ns={ns} seed={seed}: got {got:e}, want {want:e}, err {:e}",
            k.name(),
            err / scale
        );
    };
    let mut pot = vec![0.0; nt];
    k.potential_rows(targets.iter().copied(), src.view(), &mut pot);
    let mut field = vec![0.0; 4 * nt];
    k.field_rows(targets.iter().copied(), src.view(), &mut field);
    for i in 0..nt {
        close(pot[i], want[4 * i], scale[i][0], "potential");
        close(field[4 * i], want[4 * i], scale[i][0], "field φ");
        for a in 1..4 {
            close(field[4 * i + a], want[4 * i + a], scale[i][1], "field ∇φ");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn laplace_rows_match_scalar(nt in 1usize..10, vecs in 0usize..12, tail in 0usize..8, seed in any::<u64>()) {
        check_rows(&Laplace, nt, 4 * vecs + tail, seed);
    }

    #[test]
    fn yukawa_rows_match_scalar(nt in 1usize..10, vecs in 0usize..12, tail in 0usize..8, seed in any::<u64>(), lambda in 0.2f64..4.0) {
        check_rows(&Yukawa::new(lambda), nt, 4 * vecs + tail, seed);
    }

    #[test]
    fn gauss_rows_match_scalar(nt in 1usize..10, vecs in 0usize..12, tail in 0usize..8, seed in any::<u64>(), sigma in 0.3f64..3.0) {
        check_rows(&Gauss::new(sigma), nt, 4 * vecs + tail, seed);
    }
}

/// A target's row is bitwise the same alone, in a remainder block, and at
/// every slot of a full block: other targets never change its arithmetic.
fn block_invariance<K: Kernel>(k: &K) {
    let (others, src) = case(9, 4 * 9 + 3, 77);
    let probe = [0.11, -0.23, 0.31];
    let mut alone = [0.0; 4];
    k.field_rows([probe], src.view(), &mut alone);
    for len in 1..=9 {
        for pos in 0..len {
            let mut targets = others[..len].to_vec();
            targets[pos] = probe;
            let mut pot = vec![0.0; len];
            k.potential_rows(targets.iter().copied(), src.view(), &mut pot);
            let mut field = vec![0.0; 4 * len];
            k.field_rows(targets.iter().copied(), src.view(), &mut field);
            assert_eq!(
                pot[pos].to_bits(),
                alone[0].to_bits(),
                "{} len={len} pos={pos}",
                k.name()
            );
            assert_eq!(
                field[4 * pos..4 * pos + 4],
                alone,
                "{} len={len} pos={pos}",
                k.name()
            );
        }
    }
}

#[test]
fn rows_are_block_invariant() {
    block_invariance(&Laplace);
    block_invariance(&Yukawa::new(1.3));
    block_invariance(&Gauss::new(0.7));
}

#[test]
fn coincident_sources_contribute_nothing() {
    let t = [[0.25, -0.5, 0.75]; 6];
    let src = Soa {
        x: vec![0.25; 9],
        y: vec![-0.5; 9],
        z: vec![0.75; 9],
        w: vec![1.5; 9],
    };
    let mut out = vec![0.0; 4 * 6];
    Laplace.field_rows(t.iter().copied(), src.view(), &mut out);
    assert!(out.iter().all(|&x| x == 0.0));
    let mut out = vec![0.0; 6];
    Yukawa::new(1.0).potential_rows(t.iter().copied(), src.view(), &mut out);
    Gauss::new(1.0).potential_rows(t.iter().copied(), src.view(), &mut out);
    assert!(out.iter().all(|&x| x == 0.0));
}

#[test]
fn rows_accumulate_into_out() {
    let (targets, src) = case(5, 11, 3);
    let mut once = vec![0.0; 5];
    Laplace.potential_rows(targets.iter().copied(), src.view(), &mut once);
    let mut twice = vec![1.0; 5];
    Laplace.potential_rows(targets.iter().copied(), src.view(), &mut twice);
    for (a, b) in once.iter().zip(&twice) {
        assert_eq!(a + 1.0, *b);
    }
}

#[test]
fn underflowing_yukawa_lanes_are_finite() {
    // λr far past the underflow cutoff: the vector lanes must come back 0
    // through the fix-up, never NaN or garbage.
    let src = Soa {
        x: vec![1e6, 1.0, 2e5, 1.5],
        y: vec![0.0; 4],
        z: vec![0.0; 4],
        w: vec![1.0, 0.0, 1.0, 0.0],
    };
    let mut out = [0.0; 4];
    Yukawa::new(2.0).field_rows([[0.0; 3]], src.view(), &mut out);
    assert_eq!(out, [0.0; 4]);
}

/// The `q × q × q` lattice points on the boundary of `[-r, r]³`, as SoA
/// coordinates (the layout of a check surface).
fn lattice(q: usize, r: f64) -> [Vec<f64>; 3] {
    let step = 2.0 * r / (q - 1) as f64;
    let mut p = [Vec::new(), Vec::new(), Vec::new()];
    for i in 0..q {
        for j in 0..q {
            for k in 0..q {
                if [i, j, k].iter().any(|&x| x == 0 || x == q - 1) {
                    for (a, x) in [i, j, k].into_iter().enumerate() {
                        p[a].push(-r + x as f64 * step);
                    }
                }
            }
        }
    }
    p
}

/// A `q`-lattice around a center and `ns` sources salted with a source on
/// a surface point (`r² = 0`), sources past the vector lanes' range and
/// past Yukawa's underflow cutoff, and random sources inside the box.
fn surface_case(q: usize, ns: usize, seed: u64) -> ([Vec<f64>; 3], [f64; 3], Soa) {
    let mut next = rng(seed);
    let p = lattice(q, 0.4);
    let c = [next(), next(), next()];
    let m = p[0].len();
    let mut src = Soa {
        x: Vec::new(),
        y: Vec::new(),
        z: Vec::new(),
        w: Vec::new(),
    };
    for j in 0..ns {
        let i = (7 * j + seed as usize) % m;
        let on = [p[0][i] + c[0], p[1][i] + c[1], p[2][i] + c[2]];
        let s = match (seed as usize + j) % 6 {
            0 => on,
            1 => [on[0] + 1e4, on[1], on[2]],
            2 => [on[0], on[1] - 3e19, on[2]],
            _ => [
                c[0] + 0.3 * next(),
                c[1] + 0.3 * next(),
                c[2] + 0.3 * next(),
            ],
        };
        src.x.push(s[0]);
        src.y.push(s[1]);
        src.z.push(s[2]);
        src.w.push(2.0 * next());
    }
    (p, c, src)
}

fn coords(p: &[Vec<f64>; 3], len: usize) -> [&[f64]; 3] {
    [&p[0][..len], &p[1][..len], &p[2][..len]]
}

fn check_surface<K: Kernel>(k: &K, q: usize, ns: usize, seed: u64) {
    let (p, c, src) = surface_case(q, ns, seed);
    let m = p[0].len();
    // The reference places each point as the vector loop does,
    // `surface + center`, and skips coincident pairs.
    let targets: Vec<[f64; 3]> = (0..m)
        .map(|i| [p[0][i] + c[0], p[1][i] + c[1], p[2][i] + c[2]])
        .collect();
    let (want, scale) = reference(k, &targets, &src);
    let mut got = vec![0.0; m];
    k.surface_potentials(coords(&p, m), c, src.view(), &mut got);
    for i in 0..m {
        let (w, err) = (want[4 * i], (got[i] - want[4 * i]).abs());
        assert!(
            err <= 1e-14 * scale[i][0] || got[i].to_bits() == w.to_bits(),
            "{} q={q} ns={ns} seed={seed} point {i}: got {:e}, want {w:e}, err {:e}",
            k.name(),
            got[i],
            err / scale[i][0]
        );
    }
    // Cut to any prefix, every remaining point keeps its bits.
    for len in 1..m {
        let mut cut = vec![0.0; len];
        k.surface_potentials(coords(&p, len), c, src.view(), &mut cut);
        for i in 0..len {
            assert_eq!(
                cut[i].to_bits(),
                got[i].to_bits(),
                "{} q={q} point {i} of a {len}-point prefix",
                k.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn laplace_surface_matches_scalar(q in 2usize..7, ns in 0usize..40, seed in any::<u64>()) {
        check_surface(&Laplace, q, ns, seed);
    }

    #[test]
    fn yukawa_surface_matches_scalar(q in 2usize..7, ns in 0usize..40, seed in any::<u64>(), lambda in 0.2f64..4.0) {
        check_surface(&Yukawa::new(lambda), q, ns, seed);
    }

    #[test]
    fn gauss_surface_matches_scalar(q in 2usize..7, ns in 0usize..40, seed in any::<u64>(), sigma in 0.3f64..3.0) {
        check_surface(&Gauss::new(sigma), q, ns, seed);
    }
}

#[test]
fn surface_of_98_points_with_every_fix_up_lane() {
    // q = 5: 98 points, six full blocks and a remainder of two points in
    // one padded vector; 18 sources cover every salt at several lanes.
    for seed in 0..6 {
        check_surface(&Laplace, 5, 18, seed);
        check_surface(&Yukawa::new(1.0), 5, 18, seed);
        check_surface(&Gauss::new(0.7), 5, 18, seed);
    }
}

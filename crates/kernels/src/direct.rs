//! Exact O(N²) direct summation — the accuracy oracle.
//!
//! Every multipole method in this workspace is validated against this
//! routine.  It is parallelised over target chunks with scoped threads so
//! the oracle itself stays usable at a few hundred thousand points, and it
//! sums through the same kernel rows ([`Kernel::potential_rows`]) as the
//! near-field operator, so the `kernels.pairs_per_s` probe that times
//! [`direct_sum_at`] measures the loop `S→T` runs.

use std::cell::RefCell;

use crate::kernel::{Kernel, Sources};

/// Position triple used by the oracle (kept independent of `dashmm-tree` to
/// avoid a dependency cycle; the core crate converts transparently).
pub type P3 = [f64; 3];

/// Sources gathered to SoA per row call: big enough to amortise the call,
/// small enough that the gathered coordinates stay in L1.
const CHUNK: usize = 1024;

thread_local! {
    /// Gathered source coordinates, kept across calls so a gather writes
    /// each value once and allocates nothing.
    static SOA: RefCell<[Vec<f64>; 3]> = RefCell::new(Default::default());
}

/// Add the potentials of `targets` due to all sources to `out`: the
/// sources go through the rows one gathered chunk at a time.
fn sum_into<K: Kernel>(
    kernel: &K,
    sources: &[P3],
    charges: &[f64],
    targets: &[P3],
    out: &mut [f64],
) {
    debug_assert_eq!(targets.len(), out.len());
    SOA.with(|soa| {
        let [x, y, z] = &mut *soa.borrow_mut();
        for (src, w) in sources.chunks(CHUNK).zip(charges.chunks(CHUNK)) {
            for (v, a) in [&mut *x, &mut *y, &mut *z].into_iter().zip(0..3) {
                v.clear();
                v.extend(src.iter().map(|s| s[a]));
            }
            let s = Sources { x, y, z, w };
            kernel.potential_rows(targets.iter().copied(), s, out);
        }
    });
}

/// Potential at a single target due to all sources.
pub fn direct_sum_at<K: Kernel>(kernel: &K, sources: &[P3], charges: &[f64], target: &P3) -> f64 {
    debug_assert_eq!(sources.len(), charges.len());
    let mut out = [0.0];
    sum_into(
        kernel,
        sources,
        charges,
        std::slice::from_ref(target),
        &mut out,
    );
    out[0]
}

/// Potentials at every target due to every source, in parallel.
///
/// `threads = 0` selects the available parallelism of the host.
pub fn direct_sum<K: Kernel>(
    kernel: &K,
    sources: &[P3],
    charges: &[f64],
    targets: &[P3],
    threads: usize,
) -> Vec<f64> {
    assert_eq!(sources.len(), charges.len(), "one charge per source");
    let nthreads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut out = vec![0.0f64; targets.len()];
    if nthreads <= 1 || targets.len() < 256 {
        sum_into(kernel, sources, charges, targets, &mut out);
        return out;
    }
    let chunk = targets.len().div_ceil(nthreads);
    crossbeam::thread::scope(|scope| {
        for (ochunk, tchunk) in out.chunks_mut(chunk).zip(targets.chunks(chunk)) {
            scope.spawn(move |_| sum_into(kernel, sources, charges, tchunk, ochunk));
        }
    })
    .expect("direct summation worker panicked");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Gauss, Laplace, Yukawa};

    fn dist2(a: &P3, b: &P3) -> f64 {
        let dx = a[0] - b[0];
        let dy = a[1] - b[1];
        let dz = a[2] - b[2];
        dx * dx + dy * dy + dz * dz
    }

    #[test]
    fn two_body_laplace() {
        let sources = vec![[0.0, 0.0, 0.0]];
        let charges = vec![3.0];
        let phi = direct_sum(&Laplace, &sources, &charges, &[[2.0, 0.0, 0.0]], 1);
        assert_eq!(phi, vec![1.5]);
    }

    #[test]
    fn self_interaction_excluded() {
        let pts = vec![[0.5, 0.5, 0.5], [1.0, 0.0, 0.0]];
        let charges = vec![1.0, 2.0];
        let phi = direct_sum(&Laplace, &pts, &charges, &pts, 1);
        let d = dist2(&pts[0], &pts[1]).sqrt();
        assert!((phi[0] - 2.0 / d).abs() < 1e-14);
        assert!((phi[1] - 1.0 / d).abs() < 1e-14);
    }

    #[test]
    fn parallel_matches_serial() {
        let n = 600;
        let sources: Vec<P3> = (0..n)
            .map(|i| {
                let f = i as f64;
                [f.sin(), (2.0 * f).cos(), (0.1 * f).sin()]
            })
            .collect();
        let charges: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 / 11.0 - 0.4).collect();
        let targets: Vec<P3> = (0..n).map(|i| sources[(i + 13) % n]).collect();
        let k = Yukawa::new(0.7);
        let serial = direct_sum(&k, &sources, &charges, &targets, 1);
        let parallel = direct_sum(&k, &sources, &charges, &targets, 4);
        for (a, b) in serial.iter().zip(&parallel) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn batched_path_matches_per_pair_reference() {
        // The tiled oracle vs the naive scalar loop it replaced, across
        // source counts straddling the tile boundary and all kernels.
        let mut state = 0xfeed_beef_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for n in [1usize, 7, CHUNK - 1, CHUNK, CHUNK + 3] {
            let sources: Vec<P3> = (0..n).map(|_| [next(), next(), next()]).collect();
            let charges: Vec<f64> = (0..n).map(|_| next() * 2.0).collect();
            let t = [0.3, -0.1, 0.2];
            fn reference<K: Kernel>(k: &K, s: &[P3], q: &[f64], t: &P3) -> f64 {
                s.iter()
                    .zip(q)
                    .map(|(s, &q)| q * k.eval(dist2(s, t).sqrt()))
                    .sum()
            }
            for (name, got, want) in [
                (
                    "laplace",
                    direct_sum_at(&Laplace, &sources, &charges, &t),
                    reference(&Laplace, &sources, &charges, &t),
                ),
                (
                    "yukawa",
                    direct_sum_at(&Yukawa::new(1.1), &sources, &charges, &t),
                    reference(&Yukawa::new(1.1), &sources, &charges, &t),
                ),
                (
                    "gauss",
                    direct_sum_at(&Gauss::new(0.8), &sources, &charges, &t),
                    reference(&Gauss::new(0.8), &sources, &charges, &t),
                ),
            ] {
                let scale = want.abs().max(1.0);
                assert!(
                    (got - want).abs() <= 1e-12 * scale,
                    "{name} n={n}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn superposition_linearity() {
        let sources = vec![[0.1, 0.2, 0.3], [-0.4, 0.5, -0.6]];
        let t = [[1.0, 1.0, 1.0]];
        let k = Laplace;
        let a = direct_sum(&k, &sources, &[1.0, 0.0], &t, 1)[0];
        let b = direct_sum(&k, &sources, &[0.0, 1.0], &t, 1)[0];
        let ab = direct_sum(&k, &sources, &[1.0, 1.0], &t, 1)[0];
        assert!((a + b - ab).abs() < 1e-14);
    }

    #[test]
    fn empty_targets_ok() {
        let phi = direct_sum(&Laplace, &[[0.0; 3]], &[1.0], &[], 2);
        assert!(phi.is_empty());
    }
}

//! Lazily built, cached per-level operator tables for one kernel.

use std::collections::HashMap;
use std::sync::Arc;

use dashmm_kernels::{Kernel, PlaneWaveQuad};
use parking_lot::Mutex;

use crate::params::AccuracyParams;
use crate::tables::LevelTables;

/// All operator tables of one FMM instance: one [`LevelTables`] per tree
/// level, built on first use.  Shared (via `Arc`) by every task of the
/// evaluation, so construction cost is paid once and amortised over the
/// many evaluations of the iterative use case the paper targets (§IV).
pub struct OperatorLibrary<K: Kernel> {
    kernel: K,
    params: AccuracyParams,
    root_side: f64,
    with_planewave: bool,
    levels: Mutex<HashMap<u8, Arc<LevelTables>>>,
    /// Plane-wave rules by the bits of the scaled screening they were built
    /// for (the accuracy is the library's): one for every level of a
    /// scale-invariant kernel, one per level otherwise.
    rules: Mutex<HashMap<u64, Arc<PlaneWaveQuad>>>,
}

impl<K: Kernel> OperatorLibrary<K> {
    /// Create a library for a tree whose root box has side `root_side`.
    /// `with_planewave` enables the intermediate-expansion tables used by
    /// the advanced (merge-and-shift) method.
    pub fn new(kernel: K, params: AccuracyParams, root_side: f64, with_planewave: bool) -> Self {
        assert!(root_side > 0.0 && root_side.is_finite());
        OperatorLibrary {
            kernel,
            params,
            root_side,
            with_planewave,
            levels: Mutex::new(HashMap::new()),
            rules: Mutex::new(HashMap::new()),
        }
    }

    /// The kernel served by this library.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Accuracy parameters.
    pub fn params(&self) -> &AccuracyParams {
        &self.params
    }

    /// Whether intermediate-expansion tables are built.
    pub fn with_planewave(&self) -> bool {
        self.with_planewave
    }

    /// Box side at a level.
    pub fn side_at(&self, level: u8) -> f64 {
        self.root_side / (1u64 << level) as f64
    }

    /// Tables for one level, building them on first request.
    pub fn tables(&self, level: u8) -> Arc<LevelTables> {
        get_or_build(&self.levels, level, || {
            let side = self.side_at(level);
            let rule = self.with_planewave.then(|| self.rule(side));
            LevelTables::build_with(&self.kernel, &self.params, level, side, rule)
        })
    }

    /// The plane-wave rule for boxes of side `side`, built on first request.
    fn rule(&self, side: f64) -> Arc<PlaneWaveQuad> {
        let key = self.kernel.scaled_screening(side).to_bits();
        get_or_build(&self.rules, key, || {
            LevelTables::planewave_rule(&self.kernel, &self.params, side)
        })
    }

    /// Number of levels built so far.
    pub fn built_levels(&self) -> usize {
        self.levels.lock().len()
    }
}

/// The cached value for `key`, built on first request.  The build runs
/// outside the lock: it is expensive and lookups of other keys must not
/// stall behind it.  A racing builder for the same key wastes one build; the
/// first insert wins.
fn get_or_build<Q: std::hash::Hash + Eq, V>(
    cache: &Mutex<HashMap<Q, Arc<V>>>,
    key: Q,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(v) = cache.lock().get(&key) {
        return v.clone();
    }
    let v = Arc::new(build());
    Arc::clone(cache.lock().entry(key).or_insert(v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dashmm_kernels::{Laplace, Yukawa};

    #[test]
    fn tables_cached_per_level() {
        let lib = OperatorLibrary::new(Laplace, AccuracyParams::three_digit(), 2.0, false);
        let a = lib.tables(3);
        let b = lib.tables(3);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(lib.built_levels(), 1);
        let _ = lib.tables(4);
        assert_eq!(lib.built_levels(), 2);
    }

    #[test]
    fn sides_halve() {
        let lib = OperatorLibrary::new(Laplace, AccuracyParams::three_digit(), 2.0, false);
        assert_eq!(lib.side_at(0), 2.0);
        assert_eq!(lib.side_at(1), 1.0);
        assert_eq!(lib.side_at(4), 0.125);
        assert_eq!(lib.tables(4).side(), 0.125);
    }

    #[test]
    fn yukawa_levels_have_distinct_planewave_specs() {
        let lib = OperatorLibrary::new(Yukawa::new(2.0), AccuracyParams::three_digit(), 2.0, true);
        let t2 = lib.tables(2);
        let t4 = lib.tables(4);
        let k2 = t2.quad().unwrap().spec().kappa;
        let k4 = t4.quad().unwrap().spec().kappa;
        assert!(
            (k2 - 1.0).abs() < 1e-12,
            "level 2 side 0.5 → κ̂ = 1, got {k2}"
        );
        assert!(
            (k4 - 0.25).abs() < 1e-12,
            "level 4 side 0.125 → κ̂ = 0.25, got {k4}"
        );
    }

    #[test]
    fn laplace_levels_share_one_planewave_rule() {
        let lib = OperatorLibrary::new(Laplace, AccuracyParams::three_digit(), 2.0, true);
        let rules: Vec<_> = (2..=6).map(|l| lib.tables(l)).collect();
        let first = rules[0].quad().unwrap();
        for t in &rules[1..] {
            assert!(std::ptr::eq(first, t.quad().unwrap()));
        }
        assert_eq!(lib.rules.lock().len(), 1);

        let lib = OperatorLibrary::new(Yukawa::new(2.0), AccuracyParams::three_digit(), 2.0, true);
        let (a, b) = (lib.tables(2), lib.tables(4));
        assert!(!std::ptr::eq(a.quad().unwrap(), b.quad().unwrap()));
        assert_eq!(lib.rules.lock().len(), 2);
    }

    #[test]
    fn planewave_flag_respected() {
        let lib = OperatorLibrary::new(Laplace, AccuracyParams::three_digit(), 1.0, false);
        assert_eq!(lib.tables(2).planewave_len(), 0);
        let lib2 = OperatorLibrary::new(Laplace, AccuracyParams::three_digit(), 1.0, true);
        assert!(lib2.tables(2).planewave_len() > 0);
    }
}

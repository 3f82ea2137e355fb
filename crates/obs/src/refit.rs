//! Per-step observability for the incremental time-stepping engine.
//!
//! Each call to `ResidentFmm::step` produces one [`StepObs`] row: wall
//! times of the two step phases (refit, upward pass), the refit's
//! structural counters, the recomputed/reused expansion counts, and the
//! verification error against a from-scratch rebuild.
//! [`refit_section`] turns the rows into the `"timestep"` section of
//! `BENCH_timestep.json` — per-step detail plus the aggregates the CI
//! gate reads (mean steady-state cost vs the step-1 build cost).

use crate::json::{obj, Value};

/// Everything observed about one incremental step.
#[derive(Clone, Debug, Default)]
pub struct StepObs {
    /// Step index (step 1 is the initial from-scratch build).
    pub step: u32,
    /// Wall time of the tree refit (rebin, split/merge, dirty marking).
    pub refit_us: f64,
    /// Wall time of the upward pass over the dirty boxes.
    pub recompute_us: f64,
    /// Total wall time of the step.
    pub total_us: f64,
    /// Fraction of alive boxes dirtied this step.
    pub dirty_fraction: f64,
    /// Points whose position changed.
    pub moved: u64,
    /// Moved points that crossed a leaf boundary.
    pub rebinned: u64,
    /// Leaf splits performed by the refit.
    pub splits: u64,
    /// Subtree merges performed by the refit.
    pub merges: u64,
    /// Expansions recomputed by the upward pass.
    pub recomputed_expansions: u64,
    /// Expansions reused bitwise from the previous step.
    pub reused_expansions: u64,
    /// Max relative error of the stepped engine vs a from-scratch rebuild
    /// over the probe set (NaN when the step was not verified).
    pub verify_rel_err: f64,
}

/// The `"timestep"` section of the bench JSON: per-step rows plus the
/// aggregates the CI gate consumes.  `steps[0]` is expected to be the
/// initial build (step 1); the steady-state mean is taken over the rest.
pub fn refit_section(steps: &[StepObs]) -> Value {
    let rows: Vec<Value> = steps.iter().map(step_row).collect();
    let step1_us = steps.first().map_or(0.0, |s| s.total_us);
    let steady: Vec<&StepObs> = steps.iter().skip(1).collect();
    let mean = |f: fn(&StepObs) -> f64| -> f64 {
        if steady.is_empty() {
            0.0
        } else {
            steady.iter().map(|s| f(s)).sum::<f64>() / steady.len() as f64
        }
    };
    let mean_step_us = mean(|s| s.total_us);
    let ratio = if step1_us > 0.0 {
        mean_step_us / step1_us
    } else {
        0.0
    };
    obj(vec![
        ("steps", Value::Arr(rows)),
        ("step1_us", Value::from(step1_us)),
        ("mean_step_us", Value::from(mean_step_us)),
        ("mean_step_over_step1", Value::from(ratio)),
        (
            "mean_dirty_fraction",
            Value::from(mean(|s| s.dirty_fraction)),
        ),
        (
            "reused_expansions_total",
            Value::from(steady.iter().map(|s| s.reused_expansions).sum::<u64>()),
        ),
        (
            "recomputed_expansions_total",
            Value::from(steady.iter().map(|s| s.recomputed_expansions).sum::<u64>()),
        ),
        (
            "max_verify_rel_err",
            Value::from(
                steps
                    .iter()
                    .map(|s| s.verify_rel_err)
                    .filter(|e| e.is_finite())
                    .fold(0.0, f64::max),
            ),
        ),
    ])
}

fn step_row(s: &StepObs) -> Value {
    obj(vec![
        ("step", Value::from(s.step as u64)),
        ("refit_us", Value::from(s.refit_us)),
        ("recompute_us", Value::from(s.recompute_us)),
        ("total_us", Value::from(s.total_us)),
        ("dirty_fraction", Value::from(s.dirty_fraction)),
        ("moved", Value::from(s.moved)),
        ("rebinned", Value::from(s.rebinned)),
        ("splits", Value::from(s.splits)),
        ("merges", Value::from(s.merges)),
        (
            "recomputed_expansions",
            Value::from(s.recomputed_expansions),
        ),
        ("reused_expansions", Value::from(s.reused_expansions)),
        (
            "verify_rel_err",
            if s.verify_rel_err.is_finite() {
                Value::from(s.verify_rel_err)
            } else {
                Value::Null
            },
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(step: u32, total_us: f64) -> StepObs {
        StepObs {
            step,
            total_us,
            dirty_fraction: 0.1,
            reused_expansions: 900,
            recomputed_expansions: 100,
            verify_rel_err: 1.0e-15,
            ..StepObs::default()
        }
    }

    #[test]
    fn section_aggregates_steady_state_vs_step1() {
        let steps = vec![step(1, 1000.0), step(2, 200.0), step(3, 300.0)];
        let v = refit_section(&steps);
        let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap();
        assert_eq!(num("step1_us"), 1000.0);
        assert_eq!(num("mean_step_us"), 250.0);
        assert_eq!(num("mean_step_over_step1"), 0.25);
        assert_eq!(num("reused_expansions_total"), 1800.0);
        assert_eq!(num("recomputed_expansions_total"), 200.0);
        assert_eq!(num("max_verify_rel_err"), 1.0e-15);
        assert_eq!(v.get("steps").and_then(Value::as_arr).unwrap().len(), 3);
        // The section must serialize.
        assert!(v.to_json().contains("mean_step_over_step1"));
    }

    #[test]
    fn empty_and_unverified_rows_are_safe() {
        let v = refit_section(&[]);
        assert!(v.to_json().contains("\"steps\":[]"));
        let s = StepObs {
            step: 2,
            verify_rel_err: f64::NAN,
            ..StepObs::default()
        };
        let row = refit_section(&[s]);
        assert!(row.to_json().contains("\"verify_rel_err\":null"));
    }
}

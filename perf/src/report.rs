//! From a run's samples to named metrics, printed for people and for the
//! driver.

use crate::json::{obj, Value};
use crate::stats;
use crate::workloads::{Check, Kind, Outcome, Spec, END_TO_END};

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many samples the value rests on.
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &str, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
        }
    }
}

/// Consecutive stretches a run's operations are cut into.
const STRETCHES: usize = 10;
/// Operations a stretch needs before a tail percentile is taken of it alone.
const STRETCH_MIN_OPS: usize = 40;

/// `f` of each of ten consecutive stretches of the run (sorted), in order.
fn per_stretch(samples: &[f64], f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let len = samples.len().div_ceil(STRETCHES).max(1);
    samples.chunks(len).map(|c| f(&stats::sorted(c))).collect()
}

/// The time of one operation: the mean over ten consecutive stretches of
/// the run of each stretch's median.  The median sheds outliers inside a
/// stretch.  The mean across stretches is for hosts that alternate between
/// two speeds for seconds at a time: it moves in proportion to the time
/// spent at each, where a median over the whole run would jump from one
/// speed to the other, and runs would differ by the whole gap.
pub fn op_time(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    stats::mean(&per_stretch(samples, stats::median_sorted))
}

/// The `percentile`-th percentile of the operations (100: the slowest),
/// taken stretch by stretch and averaged like [`op_time`] when every
/// stretch has forty operations to take it from.
pub fn op_tail(samples: &[f64], percentile: u32) -> f64 {
    if samples.is_empty() {
        f64::NAN
    } else if samples.len() >= STRETCHES * STRETCH_MIN_OPS {
        stats::mean(&per_stretch(samples, |v| {
            stats::percentile_sorted(v, percentile)
        }))
    } else {
        stats::percentile_sorted(&stats::sorted(samples), percentile)
    }
}

/// The four end-to-end metrics of one run, in `END_TO_END` order.
pub fn end_to_end(spec: &Spec, out: &Outcome) -> Vec<Metric> {
    let values = [
        (
            if out.setup_s.is_empty() {
                f64::NAN
            } else {
                stats::median(&out.setup_s)
            },
            out.setup_s.len(),
        ),
        (op_time(&out.op_s), out.op_s.len()),
        (op_tail(&out.op_s, spec.tail_percentile), out.op_s.len()),
        (out.rss_kb as f64 / 1024.0, 1),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), (value, samples))| Metric::new(name, value, unit, samples))
        .collect()
}

/// The last line of standard output: what the driver reads.
pub fn contract_line(out: &Outcome, metrics: &[Metric]) -> String {
    obj(vec![
        ("correct", out.correct().into()),
        ("attempted", out.attempted.max(1).into()),
        ("failed", out.failed.into()),
        ("metrics", metrics_json(metrics, false)),
    ])
    .to_line()
}

/// `name → {value, unit}`, with the sample count for the result files.
fn metrics_json(metrics: &[Metric], with_samples: bool) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut fields = vec![("value", m.value.into()), ("unit", m.unit.as_str().into())];
                if with_samples {
                    fields.push(("samples", m.samples.into()));
                }
                (m.name.clone(), obj(fields))
            })
            .collect(),
    )
}

/// One run as the result files keep it.
pub fn run_record(
    spec: &Spec,
    seed: u64,
    scaled: bool,
    out: &Outcome,
    metrics: &[Metric],
) -> Value {
    obj(vec![
        ("workload", spec.name.into()),
        ("seed", seed.into()),
        ("scaled", scaled.into()),
        ("correct", out.correct().into()),
        ("ops_attempted", out.attempted.into()),
        ("ops_failed", out.failed.into()),
        ("tail_percentile", (spec.tail_percentile as u64).into()),
        // The highest of p99, p90, p75 with ten samples beyond it in a run
        // of this many operations; null when there are too few for any.
        (
            "highest_percentile_with_ten_beyond",
            stats::highest_supported_percentile(out.op_s.len())
                .map_or(Value::Null, |p| (p as u64).into()),
        ),
        ("metrics", metrics_json(metrics, true)),
        (
            "checks",
            out.to_json().get("checks").cloned().unwrap_or(Value::Null),
        ),
        // Medians of ten consecutive stretches of the run, in order: a
        // host that changed speed under the run shows here.
        (
            "op_s_over_time",
            per_stretch(&out.op_s, stats::median_sorted).into(),
        ),
        ("op_s_quantiles", quantiles(&out.op_s)),
    ])
}

fn quantiles(samples: &[f64]) -> Value {
    if samples.is_empty() {
        return Value::Null;
    }
    let v = stats::sorted(samples);
    Value::Obj(
        [1, 10, 25, 50, 75, 90, 99, 100]
            .into_iter()
            .map(|p| (format!("p{p}"), stats::percentile_sorted(&v, p).into()))
            .collect(),
    )
}

/// `BENCHMARK.json`, from the tables this crate measures by.
pub fn manifest() -> Value {
    obj(vec![
        ("command", vec!["bash", "perf/run.sh"].into()),
        ("paths", vec!["perf"].into()),
        ("run_seconds", crate::cli::RUN_SECONDS.into()),
        (
            "workloads",
            Value::Arr(
                crate::workloads::SPECS
                    .iter()
                    .map(|s| obj(vec![("name", s.name.into()), ("why", s.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, bound)| {
                        obj(vec![
                            ("name", name.into()),
                            ("unit", unit.into()),
                            ("better", "lower".into()),
                            ("bound", bound.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                crate::workloads::per_layer()
                    .into_iter()
                    .map(|(name, unit)| {
                        let better = match unit {
                            "Gflop/s" | "1/s" => "higher",
                            _ if name == "amt.busy_frac" || name == "refit.reuse_ratio" => "higher",
                            _ => "lower",
                        };
                        obj(vec![
                            ("name", name.into()),
                            ("unit", unit.into()),
                            ("better", better.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Work per second, for people; a function of `op_s`, so not gated.
fn throughput(spec: &Spec, op_s: f64) -> Option<(f64, &'static str)> {
    if op_s.is_nan() || op_s <= 0.0 {
        return None;
    }
    Some(match spec.kind {
        Kind::Fmm(..) | Kind::Iter | Kind::Dist => (spec.points as f64 / op_s, "target points/s"),
        // Two connections, one request outstanding on each.
        Kind::Svc => (2.0 / op_s, "requests/s"),
        // One twentieth of the points moves per step.
        Kind::Step => (spec.points as f64 / 20.0 / op_s, "moved points/s"),
    })
}

/// Every metric by name with unit, sample count and bound, then the checks.
pub fn print_human(spec: &Spec, seed: u64, scaled: bool, out: &Outcome, metrics: &[Metric]) {
    println!(
        "workload {}  seed {seed}{}",
        spec.name,
        if scaled {
            "  SCALED: not comparable"
        } else {
            ""
        }
    );
    println!("  why: {}", spec.why);
    for m in metrics {
        let bound = END_TO_END
            .iter()
            .find(|(name, _, _)| *name == m.name)
            .map(|(_, _, b)| format!("  bound {:.0}%", b * 100.0))
            .unwrap_or_default();
        let note = if m.name == "op_tail_s" {
            if spec.tail_percentile == 100 {
                "  (slowest operation)".to_string()
            } else {
                format!("  (p{})", spec.tail_percentile)
            }
        } else {
            String::new()
        };
        println!(
            "  {:<28} {:>14.6} {:<8} n={}{bound}{note}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(op) = metrics.iter().find(|m| m.name == "op_s") {
        if let Some((rate, what)) = throughput(spec, op.value).filter(|_| !scaled) {
            println!(
                "  {:<28} {:>14.1} {what} (from op_s, not gated)",
                "throughput", rate
            );
        }
    }
    if !out.op_s.is_empty() {
        let v = stats::sorted(&out.op_s);
        let q = |p| stats::percentile_sorted(&v, p);
        println!(
            "  op_s p1 {:.6}  p25 {:.6}  p75 {:.6}  p90 {:.6}  p99 {:.6}  max {:.6}",
            q(1),
            q(25),
            q(75),
            q(90),
            q(99),
            q(100)
        );
    }
    println!("  setup_s samples {:?}", out.setup_s);
    println!(
        "  ops_attempted {}  ops_failed {}",
        out.attempted, out.failed
    );
    print_checks(&out.checks);
}

pub fn print_checks(checks: &[Check]) {
    for c in checks {
        println!(
            "  check {:<28} worst {:.3e}  limit {:.1e}  n={}  {}",
            c.name,
            c.worst,
            c.limit,
            c.count,
            if c.worst <= c.limit { "ok" } else { "FAILED" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::SPECS;

    fn outcome() -> Outcome {
        Outcome {
            setup_s: vec![3.0, 2.0, 4.0],
            op_s: (1..=200).map(|i| i as f64 * 1e-3).collect(),
            attempted: 203,
            failed: 0,
            rss_kb: 2048,
            ..Outcome::default()
        }
    }

    #[test]
    fn end_to_end_metrics_are_two_times_a_tail_and_the_memory_peak() {
        let svc = &SPECS[4];
        assert_eq!(svc.tail_percentile, 90);
        let m = end_to_end(svc, &outcome());
        let names: Vec<_> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "op_s", "op_tail_s", "peak_rss_mb"]);
        assert_eq!(m[0].value, 3.0);
        assert!((m[1].value - 0.1005).abs() < 1e-15);
        assert_eq!(m[2].value, 0.18);
        assert_eq!(m[3].value, 2.0);
        assert_eq!((m[0].samples, m[1].samples), (3, 200));
        // The slowest operation where the percentile is 100.
        assert_eq!(end_to_end(&SPECS[0], &outcome())[2].value, 0.2);
    }

    #[test]
    fn a_host_with_two_speeds_moves_the_time_in_proportion() {
        // Three stretches at full speed, seven a quarter slower; every
        // fifth operation takes twice as long.
        let samples: Vec<f64> = (0..1000)
            .map(|i| {
                let host = if i < 300 { 1.0 } else { 1.25 };
                host * if i % 5 == 4 { 2.0 } else { 1.0 }
            })
            .collect();
        assert_eq!(stats::median(&samples), 1.25);
        assert!((op_time(&samples) - 1.175).abs() < 1e-12);
        assert!((op_tail(&samples, 90) - 2.35).abs() < 1e-12);
        // Too few operations for a tail of each stretch: of the whole run.
        assert_eq!(op_tail(&samples[..399], 90), 2.0);
        assert_eq!(op_tail(&samples[..399], 100), 2.5);
        // Fewer operations than stretches: their mean.
        assert_eq!(op_time(&[1.0, 2.0, 6.0]), 3.0);
        assert!(op_time(&[]).is_nan() && op_tail(&[], 90).is_nan());
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let out = outcome();
        let line = contract_line(&out, &end_to_end(&SPECS[4], &out));
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<_> = v.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        let op = v.get("metrics").unwrap().get("op_s").unwrap();
        assert_eq!(op.get("value").unwrap().as_f64(), Some(op_time(&out.op_s)));
        assert_eq!(op.get("unit").unwrap().as_str(), Some("s"));
    }
}

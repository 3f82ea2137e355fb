//! `perf diff A.json B.json`: compare two result files metric by metric
//! against the bounds the benchmark fixed.

use std::collections::BTreeMap;

use crate::json::Value;
use crate::stats;
use crate::workloads::{END_TO_END, SPECS};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Within,
    /// B's median is worse than A's by more than the bound.
    Outside,
    /// The run-to-run spread of a side is wider than the bound, so the
    /// medians cannot be told apart at this bound.
    Unresolved,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: f64,
    pub b: f64,
    pub runs: (usize, usize),
    /// The wider of the two sides' spreads; `None` with one run a side.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// `workload → metric → values`, one value per run.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn table(file: &Value, label: &str) -> Result<Table, String> {
    let runs = file
        .get("runs")
        .ok_or_else(|| format!("{label}: no \"runs\""))?
        .as_arr();
    let mut t = Table::new();
    for run in runs {
        let field = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{label}: a run lacks {k:?}"))
        };
        if field("scaled")?.as_bool() != Some(false) {
            return Err(format!("{label}: scaled results are not comparable"));
        }
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        if field("correct")?.as_bool() != Some(true) {
            return Err(format!("{label}: {workload} has failed operations"));
        }
        for (metric, m) in field("metrics")?.as_obj() {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{label}: {workload}.{metric} has no value"))?;
            t.entry(workload.clone())
                .or_default()
                .entry(metric.clone())
                .or_default()
                .push(value);
        }
    }
    Ok(t)
}

/// Quartile distance over the median with four runs or more, the whole
/// range over the median with two or three.
fn spread(values: &[f64]) -> Option<f64> {
    match values.len() {
        0 | 1 => None,
        2 | 3 => {
            let v = stats::sorted(values);
            Some((v[v.len() - 1] - v[0]) / stats::median_sorted(&v))
        }
        _ => Some(stats::quartile_spread(values)),
    }
}

pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (ta, tb) = (table(a, "A")?, table(b, "B")?);
    let mut rows = Vec::new();
    for spec in &SPECS {
        let (Some(ma), Some(mb)) = (ta.get(spec.name), tb.get(spec.name)) else {
            continue;
        };
        for &(metric, unit, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (ma.get(metric), mb.get(metric)) else {
                return Err(format!("{}: {metric} is missing on one side", spec.name));
            };
            let (a, b) = (stats::median(va), stats::median(vb));
            let spread = match (spread(va), spread(vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            // Every end-to-end metric is better when lower.
            let verdict = if spread.is_some_and(|s| s > bound) {
                Verdict::Unresolved
            } else if b > a * (1.0 + bound) {
                Verdict::Outside
            } else {
                Verdict::Within
            };
            rows.push(Row {
                workload: spec.name.to_string(),
                metric: metric.to_string(),
                unit: unit.to_string(),
                a,
                b,
                runs: (va.len(), vb.len()),
                spread,
                bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".into());
    }
    Ok(rows)
}

/// One row per (workload, metric); the ratio is B over its base A.
pub fn print(rows: &[Row]) {
    println!(
        "{:<24} {:<12} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "B/A", "spread", "bound"
    );
    for r in rows {
        println!(
            "{:<24} {:<12} {:>14.6} {:>14.6} {:>9.4} {:>8} {:>6.0}%  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.a,
            r.b,
            r.b / r.a,
            r.spread
                .map_or("n/a".to_string(), |s| format!("{:.1}%", s * 100.0)),
            r.bound * 100.0,
            match r.verdict {
                Verdict::Within => "within".to_string(),
                Verdict::Outside => format!("OUTSIDE (runs {}+{})", r.runs.0, r.runs.1),
                Verdict::Unresolved => "unresolved: spread exceeds bound".to_string(),
            }
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} within, {} outside, {} unresolved",
        count(Verdict::Within),
        count(Verdict::Outside),
        count(Verdict::Unresolved)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{obj, parse};

    fn file(op_s: &[f64]) -> Value {
        let runs = op_s
            .iter()
            .map(|&op| {
                let metric = |v: f64| obj(vec![("value", v.into()), ("unit", "s".into())]);
                obj(vec![
                    ("workload", "iter-cube-20k".into()),
                    ("scaled", false.into()),
                    ("correct", true.into()),
                    (
                        "metrics",
                        obj(vec![
                            ("setup_s", metric(0.4)),
                            ("op_s", metric(op)),
                            ("op_tail_s", metric(0.2)),
                            ("peak_rss_mb", metric(100.0)),
                        ]),
                    ),
                ])
            })
            .collect();
        // Through text, as the files on disk go.
        parse(&obj(vec![("runs", Value::Arr(runs))]).to_pretty()).unwrap()
    }

    fn op_row(a: &[f64], b: &[f64]) -> Row {
        let rows = compare(&file(a), &file(b)).unwrap();
        assert_eq!(rows.len(), 4);
        rows.into_iter().find(|r| r.metric == "op_s").unwrap()
    }

    #[test]
    fn within_outside_and_unresolved() {
        // The bound on op_s is a quarter.
        let steady = [0.100, 0.101, 0.102, 0.103, 0.104];
        let r = op_row(&steady, &[0.118, 0.119, 0.120, 0.121, 0.122]);
        assert_eq!(r.verdict, Verdict::Within);
        assert_eq!((r.a, r.b, r.runs), (0.102, 0.120, (5, 5)));
        let r = op_row(&steady, &[0.128, 0.129, 0.130, 0.131, 0.132]);
        assert_eq!(r.verdict, Verdict::Outside);
        // Faster is never a regression.
        assert_eq!(op_row(&steady, &[0.05; 5]).verdict, Verdict::Within);
        // B's quartiles are 0.085 and 0.1275, 35% of its median apart.
        let r = op_row(&steady, &[0.08, 0.09, 0.12, 0.125, 0.13]);
        assert_eq!(r.verdict, Verdict::Unresolved);
        assert!((r.spread.unwrap() - 0.0425 / 0.12).abs() < 1e-12);
        // One run a side has no spread to judge by.
        let r = op_row(&[0.1], &[0.105]);
        assert_eq!((r.spread, r.verdict), (None, Verdict::Within));
    }

    #[test]
    fn scaled_or_failed_results_are_refused() {
        /// A one-run file with the run's `key` set to `value`.
        fn with(key: &str, value: bool) -> Value {
            let mut bad = file(&[0.1]);
            let Value::Obj(pairs) = &mut bad else {
                panic!()
            };
            let Value::Arr(runs) = &mut pairs[0].1 else {
                panic!()
            };
            let Value::Obj(run) = &mut runs[0] else {
                panic!()
            };
            run.iter_mut().find(|(k, _)| k == key).unwrap().1 = value.into();
            bad
        }
        let good = file(&[0.1]);
        assert!(compare(&with("scaled", true), &good)
            .unwrap_err()
            .contains("scaled"));
        assert!(compare(&good, &with("correct", false))
            .unwrap_err()
            .contains("failed"));
    }
}

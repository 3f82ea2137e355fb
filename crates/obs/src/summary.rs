//! `run_summary.json`: the machine-readable run report shared by the
//! harness binaries (fig4/fig5/table2).
//!
//! The summary is an ordinary JSON object assembled from sections; the
//! helpers here build the sections every binary shares — utilization
//! (paper Eq. 1–2), per-operator statistics (Table II) and the
//! critical-path attribution — so the binaries only add their
//! workload-specific fields.

use dashmm_dag::EdgeOp;

use crate::critical::{CriticalPathReport, SLACK_BUCKETS_US};
use crate::event::class_name;
use crate::json::{obj, Value};
use crate::recorder::{ClassCounters, ClassStat};
use crate::trace::TraceSet;
use crate::{utilization_by_class, utilization_total};

/// Count and mean time per operator class.
pub struct OpStat {
    /// Operator display name ("S→M" style).
    pub name: &'static str,
    /// Number of recorded executions.
    pub count: u64,
    /// Mean execution time, µs.
    pub avg_us: f64,
    /// Total time, ms.
    pub total_ms: f64,
}

/// Per-operator statistics from a run's per-class counters, which every
/// level but `off` fills and which stay whole when a span ring wraps.
pub fn per_op_stats(counters: &ClassCounters) -> Vec<OpStat> {
    EdgeOp::ALL
        .iter()
        .map(|&op| {
            let ClassStat { count, total_ns } = counters.0[op.index()];
            OpStat {
                name: op.name(),
                count,
                avg_us: if count > 0 {
                    total_ns as f64 / 1e3 / count as f64
                } else {
                    0.0
                },
                total_ms: total_ns as f64 / 1e6,
            }
        })
        .collect()
}

/// The `"utilization"` section: Eq. 2 totals and Eq. 1 per-class rows over
/// `m` uniform intervals.
pub fn utilization_section(trace: &TraceSet, m: usize) -> Value {
    let total = utilization_total(trace, m);
    let by_class = utilization_by_class(trace, m, EdgeOp::COUNT);
    let rows: Vec<Value> = EdgeOp::ALL
        .iter()
        .map(|&op| {
            obj(vec![
                ("op", Value::from(op.name())),
                ("fractions", Value::from(by_class[op.index()].clone())),
            ])
        })
        .collect();
    obj(vec![
        ("intervals", Value::from(m)),
        ("workers", Value::from(trace.num_workers())),
        ("span_ms", Value::from(trace.span_ns() as f64 / 1e6)),
        ("total", Value::from(total)),
        ("by_class", Value::Arr(rows)),
    ])
}

/// The `"per_op"` section (Table II shape).
pub fn per_op_section(stats: &[OpStat]) -> Value {
    Value::Arr(
        stats
            .iter()
            .filter(|s| s.count > 0)
            .map(|s| {
                obj(vec![
                    ("op", Value::from(s.name)),
                    ("count", Value::from(s.count)),
                    ("avg_us", Value::from(s.avg_us)),
                    ("total_ms", Value::from(s.total_ms)),
                ])
            })
            .collect(),
    )
}

/// The `"critical_path"` section.
pub fn critical_path_section(report: &CriticalPathReport) -> Value {
    let by_class: Vec<Value> = report
        .dominant_classes()
        .into_iter()
        .map(|(class, ns)| {
            obj(vec![
                ("class", Value::from(class_name(class))),
                ("ms", Value::from(ns as f64 / 1e6)),
            ])
        })
        .collect();
    let hist: Vec<Value> = report
        .slack_hist
        .iter()
        .zip(SLACK_BUCKETS_US.iter())
        .map(|(&n, &hi)| {
            obj(vec![
                (
                    "lt_us",
                    if hi.is_infinite() {
                        Value::Null
                    } else {
                        Value::from(hi)
                    },
                ),
                ("count", Value::from(n)),
            ])
        })
        .collect();
    obj(vec![
        ("ops", Value::from(report.len())),
        ("wall_ms", Value::from(report.wall_ns as f64 / 1e6)),
        ("slack_ms", Value::from(report.slack_ns as f64 / 1e6)),
        ("by_class_ms", Value::Arr(by_class)),
        ("slack_hist", Value::Arr(hist)),
    ])
}

/// Write a summary object to disk (pretty enough: one compact line).
pub fn write_summary(path: &std::path::Path, summary: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, summary.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::json::parse;

    #[test]
    fn per_op_stats_average() {
        let mut c = ClassCounters::default();
        for e in [
            TraceEvent::span(0, 0, 2_000),
            TraceEvent::span(0, 0, 4_000),
            TraceEvent::span(3, 0, 1_000),
            TraceEvent::span(12, 0, 9_000), // net-rx: not an operator
        ] {
            c.add(&e);
        }
        let stats = per_op_stats(&c);
        assert_eq!(stats.len(), EdgeOp::COUNT);
        assert_eq!(stats[0].count, 2);
        assert!((stats[0].avg_us - 3.0).abs() < 1e-12);
        assert_eq!(stats[3].count, 1);
        assert_eq!(stats[5].count, 0);
    }

    #[test]
    fn sections_serialize_and_parse() {
        let mut t = TraceSet::new(2);
        t.push_worker(vec![TraceEvent::span(1, 0, 1_000)]);
        let mut c = ClassCounters::default();
        t.all_events().for_each(|e| c.add(e));
        let summary = obj(vec![
            ("utilization", utilization_section(&t, 4)),
            ("per_op", per_op_section(&per_op_stats(&c))),
        ]);
        let v = parse(&summary.to_json()).unwrap();
        let util = v.get("utilization").unwrap();
        assert_eq!(util.get("intervals").unwrap().as_f64(), Some(4.0));
        assert_eq!(util.get("total").unwrap().as_arr().unwrap().len(), 4);
        let per_op = v.get("per_op").unwrap().as_arr().unwrap();
        assert_eq!(per_op.len(), 1);
        assert_eq!(per_op[0].get("op").unwrap().as_str(), Some("S→M"));
    }
}

//! Minimal schema validation for exported trace files — the CI smoke
//! check behind the `obs-validate` binary.

use crate::json::{parse, Value};

/// What a valid Chrome trace contained.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Complete ("X") span events.
    pub spans: usize,
    /// Instant ("i") events.
    pub instants: usize,
    /// Metadata ("M") events.
    pub metadata: usize,
    /// Distinct pids seen.
    pub processes: usize,
}

/// Validate Chrome Trace Event JSON against the minimal schema Perfetto
/// needs: a `traceEvents` array whose members each carry `name`, a known
/// `ph`, numeric non-negative `ts` (except metadata), and `pid`/`tid`;
/// "X" events additionally need a non-negative `dur`.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let v = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = v
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_arr()
        .ok_or("\"traceEvents\" is not an array")?;
    if events.is_empty() {
        return Err("empty traceEvents".into());
    }
    let mut stats = TraceStats::default();
    let mut pids = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        if !e.is_obj() {
            return Err(at("not an object"));
        }
        e.get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing string \"name\""))?;
        let ph = e
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| at("missing string \"ph\""))?;
        let pid = e
            .get("pid")
            .and_then(Value::as_f64)
            .ok_or_else(|| at("missing numeric \"pid\""))?;
        e.get("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| at("missing numeric \"tid\""))?;
        if !pids.contains(&(pid as i64)) {
            pids.push(pid as i64);
        }
        match ph {
            "M" => stats.metadata += 1,
            "X" | "i" => {
                let ts = e
                    .get("ts")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| at("missing numeric \"ts\""))?;
                if ts < 0.0 {
                    return Err(at("negative ts"));
                }
                if ph == "X" {
                    let dur = e
                        .get("dur")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| at("missing numeric \"dur\""))?;
                    if dur < 0.0 {
                        return Err(at("negative dur"));
                    }
                    stats.spans += 1;
                } else {
                    stats.instants += 1;
                }
            }
            other => return Err(at(&format!("unknown ph {other:?}"))),
        }
    }
    stats.processes = pids.len();
    Ok(stats)
}

/// Validate a `run_summary.json`: must be a JSON object carrying at least
/// a `"utilization"` section with Eq.-2 fractions in `[0, 1]`.
pub fn validate_run_summary(text: &str) -> Result<(), String> {
    let v = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    if !v.is_obj() {
        return Err("summary is not a JSON object".into());
    }
    let util = v
        .get("utilization")
        .ok_or("missing \"utilization\" section")?;
    let total = util
        .get("total")
        .and_then(Value::as_arr)
        .ok_or("utilization.total is not an array")?;
    if total.is_empty() {
        return Err("utilization.total is empty".into());
    }
    for (k, f) in total.iter().enumerate() {
        let f = f
            .as_f64()
            .ok_or_else(|| format!("utilization.total[{k}] not a number"))?;
        if !(0.0..=1.0 + 1e-9).contains(&f) {
            return Err(format!("utilization.total[{k}] = {f} outside [0, 1]"));
        }
    }
    Ok(())
}

/// What a valid telemetry snapshot contained.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshotStats {
    /// Latency/engine histograms validated.
    pub histograms: usize,
    /// Requests the total-phase histogram has seen.
    pub total_requests: u64,
    /// Tenant rows validated.
    pub tenants: usize,
}

/// Validate one serialized histogram: sparse `[lo, hi, count]` buckets
/// must be half-open, strictly ordered and non-overlapping, their counts
/// must sum to `count` exactly, and the reported percentiles must be
/// monotone and bracketed by `min_us`/`max_us`.
fn validate_histogram(h: &Value, name: &str) -> Result<u64, String> {
    let num = |k: &str| {
        h.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: missing numeric {k:?}"))
    };
    let count = num("count")?;
    let saturated = num("saturated")?;
    if count < 0.0 || saturated < 0.0 {
        return Err(format!("{name}: negative count"));
    }
    let buckets = h
        .get("buckets")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{name}: missing buckets array"))?;
    let mut bucket_total = 0.0f64;
    let mut prev_hi = f64::NEG_INFINITY;
    for (i, b) in buckets.iter().enumerate() {
        let triple = b
            .as_arr()
            .ok_or_else(|| format!("{name}: bucket {i} not an array"))?;
        if triple.len() != 3 {
            return Err(format!("{name}: bucket {i} is not [lo, hi, count]"));
        }
        let lo = triple[0]
            .as_f64()
            .ok_or_else(|| format!("{name}: bucket {i} lo not a number"))?;
        let hi = triple[1]
            .as_f64()
            .ok_or_else(|| format!("{name}: bucket {i} hi not a number"))?;
        let n = triple[2]
            .as_f64()
            .ok_or_else(|| format!("{name}: bucket {i} count not a number"))?;
        if lo >= hi {
            return Err(format!("{name}: bucket {i} [{lo}, {hi}) is empty-width"));
        }
        if lo < prev_hi {
            return Err(format!(
                "{name}: bucket {i} lo {lo} overlaps previous hi {prev_hi}"
            ));
        }
        if n < 1.0 {
            return Err(format!("{name}: bucket {i} emitted with count {n}"));
        }
        prev_hi = hi;
        bucket_total += n;
    }
    if bucket_total != count {
        return Err(format!(
            "{name}: bucket counts sum to {bucket_total}, count says {count}"
        ));
    }
    if count > 0.0 {
        let (min, max) = (num("min_us")?, num("max_us")?);
        let (p50, p95) = (num("p50_us")?, num("p95_us")?);
        let (p99, p999) = (num("p99_us")?, num("p999_us")?);
        for (label, lo, hi) in [
            ("min<=p50", min, p50),
            ("p50<=p95", p50, p95),
            ("p95<=p99", p95, p99),
            ("p99<=p999", p99, p999),
            ("p999<=max", p999, max),
        ] {
            if lo > hi {
                return Err(format!("{name}: percentile order violated ({label})"));
            }
        }
    }
    Ok(count as u64)
}

/// Validate a `dashmm-stats-v2` telemetry snapshot: schema tag, non-
/// negative counters, per-tenant request conservation
/// (`admitted + shed == received`), balanced queue accounting, histogram
/// invariants (see `validate_histogram`) for every latency phase and
/// engine operator, and a present rate window.
/// A `BENCH_service.json` wrapping the snapshot under `"server_stats"`
/// is unwrapped first, so CI can point at either file.
pub fn validate_stats_snapshot(text: &str) -> Result<StatsSnapshotStats, String> {
    let top = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let v = if top.get("schema").is_some() {
        &top
    } else {
        top.get("server_stats")
            .ok_or("neither a snapshot (no \"schema\") nor a wrapper (no \"server_stats\")")?
    };
    match v.get("schema").and_then(Value::as_str) {
        Some("dashmm-stats-v2") => {}
        Some(other) => return Err(format!("unknown schema {other:?}")),
        None => return Err("missing string \"schema\"".into()),
    }
    let mut out = StatsSnapshotStats::default();

    for key in ["seq", "uptime_us"] {
        let n = v
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("missing numeric {key:?}"))?;
        if n < 0.0 {
            return Err(format!("{key} is negative"));
        }
    }

    let totals = v.get("totals").ok_or("missing \"totals\"")?;
    for key in [
        "admitted_requests",
        "shed_requests",
        "completed_requests",
        "evaluated_targets",
        "tiles",
        "bad_requests",
        "step_requests",
        "connections",
        "protocol_errors",
    ] {
        let n = totals
            .get(key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("totals: missing numeric {key:?}"))?;
        if n < 0.0 {
            return Err(format!("totals.{key} is negative"));
        }
    }

    let tenants = v
        .get("tenants")
        .and_then(Value::as_arr)
        .ok_or("missing \"tenants\" array")?;
    for (i, t) in tenants.iter().enumerate() {
        let num = |k: &str| {
            t.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("tenant {i}: missing numeric {k:?}"))
        };
        let received = num("received_requests")?;
        let admitted = num("admitted_requests")?;
        let shed = num("shed_requests")?;
        if admitted + shed != received {
            return Err(format!(
                "tenant {i}: admitted {admitted} + shed {shed} != received {received}"
            ));
        }
        let completed = num("completed_requests")?;
        let errored = num("errored_requests")?;
        if completed + errored > admitted {
            return Err(format!(
                "tenant {i}: completed {completed} + errored {errored} exceeds admitted {admitted}"
            ));
        }
        out.tenants += 1;
    }

    let queues = v.get("queues").ok_or("missing \"queues\"")?;
    let qn = |k: &str| {
        queues
            .get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("queues: missing numeric {k:?}"))
    };
    let (enq, drained) = (qn("enqueued_targets")?, qn("drained_targets")?);
    let (purged, queued) = (qn("purged_targets")?, qn("queued_targets")?);
    if enq != drained + purged + queued {
        return Err(format!(
            "queues: enqueued {enq} != drained {drained} + purged {purged} + queued {queued}"
        ));
    }
    match queues.get("balanced").map(Value::to_json) {
        Some(b) if b == "true" => {}
        Some(b) => return Err(format!("queues.balanced is {b}")),
        None => return Err("queues: missing \"balanced\"".into()),
    }

    let latency = v.get("latency").ok_or("missing \"latency\"")?;
    for phase in ["queue", "fuse", "compute", "reply", "total"] {
        let h = latency
            .get(phase)
            .ok_or_else(|| format!("latency: missing phase {phase:?}"))?;
        let count = validate_histogram(h, &format!("latency.{phase}"))?;
        if phase == "total" {
            out.total_requests = count;
        }
        out.histograms += 1;
    }
    let engine = v.get("engine").ok_or("missing \"engine\"")?;
    for op in ["m2t_us", "p2p_us"] {
        let h = engine
            .get(op)
            .ok_or_else(|| format!("engine: missing {op:?}"))?;
        validate_histogram(h, &format!("engine.{op}"))?;
        out.histograms += 1;
    }

    v.get("step").ok_or("missing \"step\"")?;
    let window = v.get("window").ok_or("missing \"window\"")?;
    let interval = window
        .get("interval_us")
        .and_then(Value::as_f64)
        .ok_or("window: missing numeric \"interval_us\"")?;
    if interval < 0.0 {
        return Err("window.interval_us is negative".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chrome::chrome_trace;
    use crate::event::TraceEvent;
    use crate::trace::TraceSet;

    #[test]
    fn accepts_our_exporter_output() {
        let mut t = TraceSet::new(1);
        t.push_worker(vec![
            TraceEvent::span(0, 0, 1_000),
            TraceEvent::instant(14, 500),
        ]);
        let stats = validate_chrome_trace(&chrome_trace(&t)).unwrap();
        assert_eq!(
            stats,
            TraceStats {
                spans: 1,
                instants: 1,
                metadata: 2,
                processes: 1,
            }
        );
    }

    #[test]
    fn rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        // X event without dur.
        let bad = "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":1}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn summary_schema() {
        assert!(validate_run_summary("{\"utilization\":{\"total\":[0.5,1.0]}}").is_ok());
        assert!(validate_run_summary("{\"utilization\":{\"total\":[1.5]}}").is_err());
        assert!(validate_run_summary("{}").is_err());
        assert!(validate_run_summary("[1]").is_err());
    }

    /// A minimal well-formed snapshot, with real histograms from the
    /// telemetry module (so the validator exercises the exact emission
    /// format the service produces).
    fn sample_snapshot() -> String {
        let h = crate::telemetry::LogHistogram::new();
        h.record(120);
        h.record(4_000);
        let hist = h.snapshot().to_json().to_json();
        format!(
            concat!(
                "{{\"schema\":\"dashmm-stats-v2\",\"seq\":1,\"uptime_us\":100.0,",
                "\"totals\":{{\"admitted_requests\":2,\"shed_requests\":0,",
                "\"completed_requests\":2,\"evaluated_targets\":10,\"tiles\":1,",
                "\"bad_requests\":0,\"step_requests\":0,\"connections\":1,",
                "\"protocol_errors\":0}},",
                "\"tenants\":[{{\"tenant\":0,\"received_requests\":2,",
                "\"admitted_requests\":2,\"shed_requests\":0,",
                "\"completed_requests\":2,\"errored_requests\":0}}],",
                "\"queues\":{{\"queued_requests\":0,\"queued_targets\":0,",
                "\"enqueued_targets\":10,\"drained_targets\":10,",
                "\"purged_targets\":0,\"balanced\":true}},",
                "\"latency\":{{\"queue\":{h},\"fuse\":{h},\"compute\":{h},",
                "\"reply\":{h},\"total\":{h}}},",
                "\"engine\":{{\"m2t_us\":{h},\"p2p_us\":{h},",
                "\"far_pairs\":1,\"near_pairs\":2}},",
                "\"step\":{{}},",
                "\"window\":{{\"interval_us\":100.0}}}}"
            ),
            h = hist
        )
    }

    #[test]
    fn stats_snapshot_accepts_well_formed() {
        let stats = validate_stats_snapshot(&sample_snapshot()).unwrap();
        assert_eq!(stats.histograms, 7);
        assert_eq!(stats.total_requests, 2);
        assert_eq!(stats.tenants, 1);
        // A BENCH_service.json wrapper is unwrapped transparently.
        let wrapped = format!("{{\"server_stats\":{}}}", sample_snapshot());
        assert_eq!(validate_stats_snapshot(&wrapped).unwrap(), stats);
    }

    #[test]
    fn stats_snapshot_rejects_violations() {
        assert!(validate_stats_snapshot("not json").is_err());
        assert!(validate_stats_snapshot("{}").is_err());
        // Tenant conservation: admitted + shed must equal received.
        let bad = sample_snapshot().replace("\"received_requests\":2", "\"received_requests\":3");
        assert!(validate_stats_snapshot(&bad)
            .unwrap_err()
            .contains("tenant"));
        // Queue accounting must reconcile.
        let bad = sample_snapshot().replace("\"drained_targets\":10", "\"drained_targets\":9");
        assert!(validate_stats_snapshot(&bad)
            .unwrap_err()
            .contains("queues"));
        assert!(validate_stats_snapshot(
            &sample_snapshot().replace("\"balanced\":true", "\"balanced\":false")
        )
        .is_err());
        // Histogram count conservation: sum of buckets must equal count.
        let bad = sample_snapshot().replace("\"count\":2", "\"count\":3");
        assert!(validate_stats_snapshot(&bad)
            .unwrap_err()
            .contains("bucket counts"));
        // Unknown schema tag.
        let bad = sample_snapshot().replace("dashmm-stats-v2", "dashmm-stats-v1");
        assert!(validate_stats_snapshot(&bad)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn stats_snapshot_rejects_broken_histograms() {
        // Overlapping buckets: hand-build a histogram whose second bucket
        // starts below the first one's hi, and splice it in as the queue
        // phase.
        let broken = "{\"count\":2,\"sum_us\":10,\"min_us\":1,\"max_us\":9,\
                      \"mean_us\":5.0,\"p50_us\":1,\"p95_us\":9,\"p99_us\":9,\
                      \"p999_us\":9,\"saturated\":0,\
                      \"buckets\":[[0,4,1],[2,8,1]]}";
        let marker = "\"latency\":{\"queue\":";
        let base = sample_snapshot();
        assert!(base.contains(marker), "sample emission format drifted");
        let tail = &base[base.find(marker).unwrap() + marker.len()..];
        let good_hist_len = {
            // The queue histogram runs until its matching close brace.
            let mut depth = 0usize;
            let mut end = 0;
            for (i, c) in tail.char_indices() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = i + 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            end
        };
        let snap = base.replacen(&tail[..good_hist_len], broken, 1);
        assert!(validate_stats_snapshot(&snap)
            .unwrap_err()
            .contains("overlaps"));
    }
}

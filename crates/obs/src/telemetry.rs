//! Live telemetry instruments for long-lived servers: monotonic
//! counters, gauges, and log-bucketed (HDR-style) latency histograms
//! with mergeable snapshots.
//!
//! Everything here is designed for continuous operation: recording is
//! lock-free (relaxed atomics), allocation-free, and O(1); memory is
//! bounded by construction (a histogram is a fixed array of buckets,
//! never a sample vector).  Snapshots are plain integer vectors, so
//! merging them is exact elementwise addition — associative and
//! commutative — which lets per-thread or per-process histograms be
//! combined without loss.
//!
//! ## Bucket scheme
//!
//! Values (microseconds) are bucketed HDR-style: below
//! [`SUB_BUCKET_COUNT`] every integer gets its own width-1 bucket;
//! above, each power-of-two octave is split into [`SUB_BUCKET_COUNT`]
//! linear sub-buckets.  Relative bucket width is therefore at most
//! `1/SUB_BUCKET_COUNT` (~3% with 32 sub-buckets), so any quantile read
//! from the histogram is within one bucket width of the exact
//! nearest-rank value.  Values above [`MAX_TRACKED`] (~12.7 days in µs)
//! saturate into the last bucket and bump a saturation counter.

use crate::json::{obj, Value};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BUCKET_BITS: u32 = 5;
/// Linear sub-buckets per octave (32 → ≤3.2% relative bucket width).
pub const SUB_BUCKET_COUNT: u64 = 1 << SUB_BUCKET_BITS;
/// Largest exactly-tracked value; larger records saturate.
pub const MAX_TRACKED: u64 = (1 << 40) - 1;
const OCTAVES: usize = 40 - SUB_BUCKET_BITS as usize;
/// Total bucket count of a [`LogHistogram`].
pub const NUM_BUCKETS: usize = (SUB_BUCKET_COUNT as usize) * (OCTAVES + 1);

/// Bucket index for a value (values past [`MAX_TRACKED`] clamp to the
/// last bucket).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    let v = v.min(MAX_TRACKED);
    if v < SUB_BUCKET_COUNT {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let octave = (msb - SUB_BUCKET_BITS) as usize;
    let sub = ((v >> (msb - SUB_BUCKET_BITS)) & (SUB_BUCKET_COUNT - 1)) as usize;
    (octave + 1) * SUB_BUCKET_COUNT as usize + sub
}

/// Half-open `[lo, hi)` value range of bucket `i`.
#[inline]
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    let sc = SUB_BUCKET_COUNT as usize;
    if i < sc {
        return (i as u64, i as u64 + 1);
    }
    let octave = i / sc - 1;
    let sub = (i % sc) as u64;
    let width = 1u64 << octave;
    let lo = (SUB_BUCKET_COUNT + sub) * width;
    (lo, lo + width)
}

/// Monotonic counter (relaxed atomics; cheap enough for hot paths).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed level (queue depths, resident bytes, ...).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrite the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Fixed-size log-bucketed latency histogram with atomic buckets.
///
/// Recording is lock-free and allocation-free; readers take
/// [`LogHistogram::snapshot`]s, which are mergeable and carry exact
/// bucket counts (the snapshot's total count is *derived* from the
/// bucket counts, so count conservation holds by construction even
/// under concurrent recording).
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    saturated: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// Empty histogram (fixed [`NUM_BUCKETS`] buckets, ~9 KiB).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        LogHistogram {
            buckets,
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }

    /// Record one value (microseconds).  O(1), lock-free.
    #[inline]
    pub fn record(&self, v: u64) {
        if v > MAX_TRACKED {
            self.saturated.fetch_add(1, Ordering::Relaxed);
        }
        let clamped = v.min(MAX_TRACKED);
        self.buckets[bucket_index(clamped)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(clamped, Ordering::Relaxed);
        self.min.fetch_min(clamped, Ordering::Relaxed);
        self.max.fetch_max(clamped, Ordering::Relaxed);
    }

    /// Record a microsecond duration given as `f64` (negative and
    /// non-finite inputs clamp to zero).
    #[inline]
    pub fn record_us(&self, us: f64) {
        let v = if us.is_finite() && us > 0.0 {
            us.round() as u64
        } else {
            0
        };
        self.record(v);
    }

    /// Consistent-enough point-in-time copy (bucket counts are read
    /// individually; the derived total equals their sum exactly).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
        }
    }

    /// Zero every bucket and statistic.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.saturated.store(0, Ordering::Relaxed);
    }
}

/// Plain-integer snapshot of a [`LogHistogram`]: mergeable, queryable,
/// serialisable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    sum: u64,
    min: u64,
    max: u64,
    saturated: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot::empty()
    }
}

impl HistSnapshot {
    /// Snapshot with every bucket zero.
    pub fn empty() -> Self {
        HistSnapshot {
            counts: vec![0; NUM_BUCKETS],
            sum: 0,
            min: u64::MAX,
            max: 0,
            saturated: 0,
        }
    }

    /// Total recorded count (sum of bucket counts — exact).
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of recorded values (µs).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.max == 0 && self.min == u64::MAX {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Records that exceeded [`MAX_TRACKED`].
    pub fn saturated(&self) -> u64 {
        self.saturated
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Per-bucket counts (dense, [`NUM_BUCKETS`] long).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Merge another snapshot into this one.  Exact integer addition:
    /// associative and commutative, so merge order never changes the
    /// result.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += *b;
        }
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.saturated += other.saturated;
    }

    /// Nearest-rank quantile (`q` in [0, 1]).  Returns the upper edge
    /// minus one of the bucket holding the rank — exact for width-1
    /// buckets, within one bucket width (≤1/[`SUB_BUCKET_COUNT`]
    /// relative) otherwise.  0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (_, hi) = bucket_bounds(i);
                return (hi - 1).min(self.max);
            }
        }
        self.max
    }

    /// JSON form: scalar stats, nearest-rank percentiles, and the
    /// non-empty buckets as `[lo, hi, count]` triples (sparse — a
    /// latency distribution rarely occupies more than a few dozen of
    /// the ~1.2k buckets).
    pub fn to_json(&self) -> Value {
        let buckets: Vec<Value> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = bucket_bounds(i);
                Value::Arr(vec![Value::from(lo), Value::from(hi), Value::from(c)])
            })
            .collect();
        obj(vec![
            ("count", Value::from(self.count())),
            ("sum_us", Value::from(self.sum)),
            ("min_us", Value::from(self.min())),
            ("max_us", Value::from(self.max)),
            ("mean_us", Value::from(self.mean())),
            ("p50_us", Value::from(self.quantile(0.50))),
            ("p95_us", Value::from(self.quantile(0.95))),
            ("p99_us", Value::from(self.quantile(0.99))),
            ("p999_us", Value::from(self.quantile(0.999))),
            ("saturated", Value::from(self.saturated)),
            ("buckets", Value::Arr(buckets)),
        ])
    }
}

/// The five per-request phases every serviced request is decomposed
/// into.  `queue + fuse + compute + reply == total` telescopes exactly
/// by construction (each boundary is a single timestamp).
pub const PHASES: [&str; 5] = ["queue", "fuse", "compute", "reply", "total"];

/// One histogram per request phase.
#[derive(Debug, Default)]
pub struct PhaseHists {
    /// Admission → tile drain.
    pub queue: LogHistogram,
    /// Tile drain → engine start (SoA fusion + buffer setup).
    pub fuse: LogHistogram,
    /// Engine evaluation (tile-shared, attributed per request).
    pub compute: LogHistogram,
    /// Engine end → response written.
    pub reply: LogHistogram,
    /// Admission → response written.
    pub total: LogHistogram,
}

impl PhaseHists {
    /// Empty phase set.
    pub fn new() -> Self {
        PhaseHists::default()
    }

    /// Record one request's breakdown (µs per phase).
    pub fn record(&self, queue: f64, fuse: f64, compute: f64, reply: f64, total: f64) {
        self.queue.record_us(queue);
        self.fuse.record_us(fuse);
        self.compute.record_us(compute);
        self.reply.record_us(reply);
        self.total.record_us(total);
    }

    /// `{phase: histogram}` JSON object over [`PHASES`].
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("queue", self.queue.snapshot().to_json()),
            ("fuse", self.fuse.snapshot().to_json()),
            ("compute", self.compute.snapshot().to_json()),
            ("reply", self.reply.snapshot().to_json()),
            ("total", self.total.snapshot().to_json()),
        ])
    }
}

/// Latency distribution summary (microseconds, nearest-rank percentiles).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples the percentiles were computed over.
    pub count: usize,
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
    /// Maximum.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarise a set of latency samples (sorts `samples` in place).
    ///
    /// This is the exact O(n log n) path; long-lived servers should use
    /// [`LatencySummary::from_snapshot`] on a streaming histogram
    /// instead, which is O(buckets) and bounded-memory.
    pub fn from_samples(samples: &mut [f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let n = samples.len();
        let rank = |p: f64| -> f64 {
            // Nearest-rank: the smallest sample with at least p·n samples
            // at or below it.
            let k = ((p * n as f64).ceil() as usize).clamp(1, n);
            samples[k - 1]
        };
        LatencySummary {
            count: n,
            mean_us: samples.iter().sum::<f64>() / n as f64,
            p50_us: rank(0.50),
            p95_us: rank(0.95),
            p99_us: rank(0.99),
            p999_us: rank(0.999),
            max_us: samples[n - 1],
        }
    }

    /// Summarise a histogram snapshot.  Percentiles are within one
    /// bucket width (≤1/[`SUB_BUCKET_COUNT`]
    /// relative) of the exact nearest-rank values.
    pub fn from_snapshot(s: &HistSnapshot) -> LatencySummary {
        LatencySummary {
            count: s.count() as usize,
            mean_us: s.mean(),
            p50_us: s.quantile(0.50) as f64,
            p95_us: s.quantile(0.95) as f64,
            p99_us: s.quantile(0.99) as f64,
            p999_us: s.quantile(0.999) as f64,
            max_us: s.max() as f64,
        }
    }

    /// JSON object for summaries (`{count, mean_us, p50_us, ...}`).
    pub fn to_json(&self) -> Value {
        obj(vec![
            ("count", Value::from(self.count)),
            ("mean_us", Value::from(self.mean_us)),
            ("p50_us", Value::from(self.p50_us)),
            ("p95_us", Value::from(self.p95_us)),
            ("p99_us", Value::from(self.p99_us)),
            ("p999_us", Value::from(self.p999_us)),
            ("max_us", Value::from(self.max_us)),
        ])
    }
}

/// Shared telemetry plane for a resident server: phase histograms,
/// engine-internal breakdown, step-engine reuse counters, and uptime.
/// Everything is atomic — the hub lives outside the server's core lock
/// and is safe to record into from any thread.
#[derive(Debug)]
pub struct TelemetryHub {
    started: Instant,
    /// Per-request phase latency histograms.
    pub phases: PhaseHists,
    /// Engine time spent in batched far-field (M2T) evaluation per tile.
    pub engine_m2t_us: LogHistogram,
    /// Engine time spent in batched near-field (P2P) evaluation per tile.
    pub engine_p2p_us: LogHistogram,
    /// Target–box pairs routed through the far-field path.
    pub far_pairs: Counter,
    /// Target–box pairs routed through the near-field path.
    pub near_pairs: Counter,
    /// Incremental steps applied by the stepping engine.
    pub steps: Counter,
    /// Expansions reused bitwise across steps.
    pub reused_expansions: Counter,
    /// Expansions recomputed by the steps' upward passes.
    pub recomputed_expansions: Counter,
    /// Wall time per incremental step.
    pub step_total_us: LogHistogram,
    /// Stats snapshots served.
    pub stats_polls: Counter,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub::new()
    }
}

impl TelemetryHub {
    /// Fresh hub; uptime counts from now.
    pub fn new() -> Self {
        TelemetryHub {
            started: Instant::now(),
            phases: PhaseHists::new(),
            engine_m2t_us: LogHistogram::new(),
            engine_p2p_us: LogHistogram::new(),
            far_pairs: Counter::new(),
            near_pairs: Counter::new(),
            steps: Counter::new(),
            reused_expansions: Counter::new(),
            recomputed_expansions: Counter::new(),
            step_total_us: LogHistogram::new(),
            stats_polls: Counter::new(),
        }
    }

    /// Microseconds since the hub was created.
    pub fn uptime_us(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e6
    }

    /// Record one engine-tile breakdown.
    pub fn record_engine(&self, m2t_us: f64, p2p_us: f64, far_pairs: u64, near_pairs: u64) {
        self.engine_m2t_us.record_us(m2t_us);
        self.engine_p2p_us.record_us(p2p_us);
        self.far_pairs.add(far_pairs);
        self.near_pairs.add(near_pairs);
    }

    /// Record one incremental step's expansion reuse.
    pub fn record_step(&self, reused_expansions: u64, recomputed_expansions: u64, total_us: f64) {
        self.steps.inc();
        self.reused_expansions.add(reused_expansions);
        self.recomputed_expansions.add(recomputed_expansions);
        self.step_total_us.record_us(total_us);
    }

    /// `"engine"` snapshot section (per-tile M2T/P2P histograms and
    /// pair counters).
    pub fn engine_json(&self) -> Value {
        obj(vec![
            ("m2t_us", self.engine_m2t_us.snapshot().to_json()),
            ("p2p_us", self.engine_p2p_us.snapshot().to_json()),
            ("far_pairs", Value::from(self.far_pairs.get())),
            ("near_pairs", Value::from(self.near_pairs.get())),
        ])
    }

    /// `"step"` snapshot section (expansion reuse ratio across all steps
    /// served).
    pub fn step_json(&self) -> Value {
        let reused = self.reused_expansions.get();
        let recomputed = self.recomputed_expansions.get();
        let ratio = if reused + recomputed > 0 {
            reused as f64 / (reused + recomputed) as f64
        } else {
            0.0
        };
        obj(vec![
            ("steps", Value::from(self.steps.get())),
            ("reused_expansions", Value::from(reused)),
            ("recomputed_expansions", Value::from(recomputed)),
            ("reuse_ratio", Value::from(ratio)),
            ("step_total_us", self.step_total_us.snapshot().to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut prev_hi = 0u64;
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi, "bucket {i} empty range");
            assert_eq!(lo, prev_hi, "gap before bucket {i}");
            prev_hi = hi;
        }
        assert_eq!(prev_hi, MAX_TRACKED + 1);
    }

    #[test]
    fn bucket_index_inverts_bounds() {
        for i in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi - 1), i);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LogHistogram::new();
        for v in 0..SUB_BUCKET_COUNT * 2 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), SUB_BUCKET_COUNT * 2);
        // All values below 2*SUB_BUCKET_COUNT land in width-1 buckets,
        // so every quantile is the exact nearest-rank value.
        assert_eq!(s.quantile(0.5), SUB_BUCKET_COUNT - 1);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), SUB_BUCKET_COUNT * 2 - 1);
    }

    #[test]
    fn relative_bucket_width_is_bounded() {
        for i in SUB_BUCKET_COUNT as usize..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            let width = (hi - lo) as f64;
            assert!(
                width / lo as f64 <= 1.0 / SUB_BUCKET_COUNT as f64 + 1e-12,
                "bucket {i}: width {width} lo {lo}"
            );
        }
    }

    #[test]
    fn saturation_counts_and_clamps() {
        let h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(MAX_TRACKED);
        let s = h.snapshot();
        assert_eq!(s.count(), 2);
        assert_eq!(s.saturated(), 1);
        assert_eq!(s.max(), MAX_TRACKED);
        assert_eq!(s.counts()[NUM_BUCKETS - 1], 2);
    }

    #[test]
    fn merge_adds_exactly() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        for v in [1u64, 10, 100, 1000] {
            a.record(v);
        }
        for v in [5u64, 50, 500, 5000] {
            b.record(v);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 8);
        assert_eq!(m.sum(), 1111 + 5555);
        assert_eq!(m.min(), 1);
        assert_eq!(m.max(), 5000);
    }

    #[test]
    fn quantile_within_one_bucket_of_exact() {
        // Deterministic pseudo-random samples via splitmix64.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x = x.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let h = LogHistogram::new();
        let mut vals: Vec<u64> = (0..10_000).map(|_| next() % 2_000_000).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        let s = h.snapshot();
        for q in [0.5, 0.95, 0.99, 0.999] {
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1];
            let approx = s.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                approx >= lo && approx <= hi,
                "q={q}: approx {approx} not within bucket [{lo},{hi}) of exact {exact}"
            );
        }
    }

    #[test]
    fn concurrent_recording_conserves_count() {
        use std::sync::Arc;
        let h = Arc::new(LogHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1000 + i % 997);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn json_has_schema_fields_and_sparse_buckets() {
        let h = LogHistogram::new();
        h.record(10);
        h.record(1000);
        let v = h.snapshot().to_json();
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(2.0));
        let buckets = v.get("buckets").and_then(Value::as_arr).unwrap();
        assert_eq!(buckets.len(), 2);
        let first = buckets[0].as_arr().unwrap();
        assert_eq!(first.len(), 3);
        assert_eq!(first[0].as_f64(), Some(10.0));
    }

    #[test]
    fn counters_and_gauges() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn hub_step_section_reports_reuse_ratio() {
        let hub = TelemetryHub::new();
        hub.record_step(900, 100, 1234.0);
        hub.record_step(800, 200, 2345.0);
        let v = hub.step_json();
        assert_eq!(v.get("steps").and_then(Value::as_f64), Some(2.0));
        assert_eq!(
            v.get("reused_expansions").and_then(Value::as_f64),
            Some(1700.0)
        );
        assert_eq!(
            v.get("recomputed_expansions").and_then(Value::as_f64),
            Some(300.0)
        );
        let ratio = v.get("reuse_ratio").and_then(Value::as_f64).unwrap();
        assert!((ratio - 0.85).abs() < 1e-12);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let mut s: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let l = LatencySummary::from_samples(&mut s);
        assert_eq!(l.count, 100);
        assert_eq!(l.p50_us, 50.0);
        assert_eq!(l.p95_us, 95.0);
        assert_eq!(l.p99_us, 99.0);
        assert_eq!(l.p999_us, 100.0);
        assert_eq!(l.max_us, 100.0);
        assert!((l.mean_us - 50.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_everywhere() {
        let mut s = vec![7.0];
        let l = LatencySummary::from_samples(&mut s);
        assert_eq!(
            (l.p50_us, l.p95_us, l.p99_us, l.max_us),
            (7.0, 7.0, 7.0, 7.0)
        );
    }

    #[test]
    fn empty_summary_is_zero() {
        let l = LatencySummary::from_samples(&mut []);
        assert_eq!(l.count, 0);
        assert_eq!(l.p99_us, 0.0);
    }

    #[test]
    fn histogram_summary_tracks_exact_within_one_bucket() {
        // The satellite acceptance check: histogram p99 must be within
        // one bucket width of the exact nearest-rank p99.
        let h = LogHistogram::new();
        let mut samples: Vec<f64> = Vec::new();
        let mut x = 123456789u64;
        for _ in 0..50_000 {
            // xorshift64 samples spread over ~3 decades.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1_000_000) as f64;
            h.record_us(v);
            samples.push(v);
        }
        let exact = LatencySummary::from_samples(&mut samples);
        let approx = LatencySummary::from_snapshot(&h.snapshot());
        assert_eq!(approx.count, exact.count);
        for (a, e) in [
            (approx.p50_us, exact.p50_us),
            (approx.p95_us, exact.p95_us),
            (approx.p99_us, exact.p99_us),
            (approx.p999_us, exact.p999_us),
        ] {
            let (lo, hi) = bucket_bounds(bucket_index(e as u64));
            assert!(
                a >= lo as f64 && a <= hi as f64,
                "histogram {a} outside bucket [{lo},{hi}] of exact {e}"
            );
        }
        assert_eq!(approx.max_us, exact.max_us);
    }
}

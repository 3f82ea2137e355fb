//! The low-overhead span recorder used on the runtime's hot path.
//!
//! Each worker owns one [`SpanRing`]: a fixed-capacity ring buffer of
//! [`TraceEvent`]s plus per-class counters.  The full buffer is allocated
//! once at construction, so recording never allocates; when the ring is
//! full the *oldest* events are overwritten (the tail of the run is what
//! the critical-path walk and the terminal-dip analysis need) and a drop
//! counter records how much history was lost.  With the `obs` cargo
//! feature disabled, [`SpanRing::record`] compiles to a no-op.

use crate::event::{TraceEvent, CLASS_COUNT};

/// How much the runtime records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ObsLevel {
    /// Record nothing (the production fast path).
    #[default]
    Off,
    /// Per-class counters only: counts and total nanoseconds, no spans.
    Counters,
    /// Counters plus full span rings for timeline export.
    Full,
}

impl ObsLevel {
    /// Parse a `--obs` argument value.
    pub fn parse(s: &str) -> Option<ObsLevel> {
        match s {
            "off" => Some(ObsLevel::Off),
            "counters" => Some(ObsLevel::Counters),
            "full" => Some(ObsLevel::Full),
            _ => None,
        }
    }

    /// Whether any recording happens at this level.
    pub fn enabled(self) -> bool {
        self != ObsLevel::Off
    }

    /// Whether spans are kept (not just counters).
    pub fn spans(self) -> bool {
        self == ObsLevel::Full
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ObsLevel::Off => "off",
            ObsLevel::Counters => "counters",
            ObsLevel::Full => "full",
        })
    }
}

/// Count and total busy time per trace class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStat {
    /// Number of recorded events of the class.
    pub count: u64,
    /// Total span nanoseconds (0 for instants).
    pub total_ns: u64,
}

/// Aggregated per-class counters for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClassCounters(pub [ClassStat; CLASS_COUNT]);

impl ClassCounters {
    /// Merge another set of counters into this one.
    pub fn merge(&mut self, other: &ClassCounters) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            a.count += b.count;
            a.total_ns += b.total_ns;
        }
    }

    /// Count one event under its class (the last class takes any beyond).
    #[inline]
    pub fn add(&mut self, e: &TraceEvent) {
        let stat = &mut self.0[(e.class as usize).min(CLASS_COUNT - 1)];
        stat.count += 1;
        stat.total_ns += e.dur_ns();
    }

    /// Total events across all classes.
    pub fn total_count(&self) -> u64 {
        self.0.iter().map(|s| s.count).sum()
    }
}

/// Default per-worker ring capacity (events). 24 B/event → ~6 MiB/worker.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 18;

/// A fixed-capacity, overwrite-oldest ring of trace events with per-class
/// counters.
#[derive(Debug)]
pub struct SpanRing {
    level: ObsLevel,
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest event once the ring has wrapped.
    oldest: usize,
    wrapped: bool,
    dropped: u64,
    counters: ClassCounters,
}

impl SpanRing {
    /// A ring for the given level; `Full` preallocates `capacity` events,
    /// other levels allocate nothing.
    pub fn new(level: ObsLevel, capacity: usize) -> Self {
        let cap = if level.spans() { capacity.max(1) } else { 0 };
        SpanRing {
            level,
            buf: Vec::with_capacity(cap),
            cap,
            oldest: 0,
            wrapped: false,
            dropped: 0,
            counters: ClassCounters::default(),
        }
    }

    /// A ring with the default capacity.
    pub fn with_level(level: ObsLevel) -> Self {
        Self::new(level, DEFAULT_RING_CAPACITY)
    }

    /// A disabled ring (records nothing).
    pub fn disabled() -> Self {
        Self::new(ObsLevel::Off, 0)
    }

    /// The recording level.
    pub fn level(&self) -> ObsLevel {
        self.level
    }

    /// Record one event.  No-op when the level is `Off` or the `obs`
    /// feature is compiled out.
    #[inline]
    pub fn record(&mut self, e: TraceEvent) {
        #[cfg(feature = "obs")]
        {
            if !self.level.enabled() {
                return;
            }
            self.counters.add(&e);
            if self.level.spans() {
                if self.buf.len() < self.cap {
                    self.buf.push(e);
                } else {
                    self.buf[self.oldest] = e;
                    self.oldest = (self.oldest + 1) % self.cap;
                    self.wrapped = true;
                    self.dropped += 1;
                }
            }
        }
        #[cfg(not(feature = "obs"))]
        {
            let _ = e;
        }
    }

    /// Record a span.
    #[inline]
    pub fn record_span(&mut self, class: u8, tag: u32, start_ns: u64, end_ns: u64) {
        self.record(TraceEvent::tagged(class, tag, start_ns, end_ns));
    }

    /// Record an instant marker.
    #[inline]
    pub fn record_instant(&mut self, class: u8, at_ns: u64) {
        self.record(TraceEvent::instant(class, at_ns));
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many old events were overwritten.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The per-class counters.
    pub fn counters(&self) -> &ClassCounters {
        &self.counters
    }

    /// Drain into a chronologically ordered event vector (oldest first),
    /// plus the counters and drop count.
    pub fn into_parts(mut self) -> (Vec<TraceEvent>, ClassCounters, u64) {
        if self.wrapped {
            self.buf.rotate_left(self.oldest);
        }
        (self.buf, self.counters, self.dropped)
    }
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut r = SpanRing::disabled();
        r.record_span(0, 1, 0, 10);
        assert!(r.is_empty());
        assert_eq!(r.counters().total_count(), 0);
    }

    #[test]
    fn counters_level_counts_without_spans() {
        let mut r = SpanRing::with_level(ObsLevel::Counters);
        r.record_span(2, 0, 0, 100);
        r.record_span(2, 1, 100, 250);
        assert!(r.is_empty());
        assert_eq!(r.counters().0[2].count, 2);
        assert_eq!(r.counters().0[2].total_ns, 250);
    }

    #[test]
    fn full_keeps_spans_in_order() {
        let mut r = SpanRing::new(ObsLevel::Full, 8);
        for i in 0..5u64 {
            r.record_span(0, i as u32, i * 10, i * 10 + 5);
        }
        let (events, counters, dropped) = r.into_parts();
        assert_eq!(events.len(), 5);
        assert_eq!(dropped, 0);
        assert_eq!(counters.0[0].count, 5);
        assert!(events.windows(2).all(|w| w[0].start_ns <= w[1].start_ns));
    }

    #[test]
    fn overflow_drops_oldest_keeps_tail() {
        let mut r = SpanRing::new(ObsLevel::Full, 4);
        for i in 0..10u64 {
            r.record_span(0, i as u32, i, i + 1);
        }
        assert_eq!(r.dropped(), 6);
        let (events, counters, dropped) = r.into_parts();
        assert_eq!(dropped, 6);
        // Counters still saw everything.
        assert_eq!(counters.0[0].count, 10);
        // The surviving events are the newest four, oldest first.
        let tags: Vec<u32> = events.iter().map(|e| e.tag).collect();
        assert_eq!(tags, vec![6, 7, 8, 9]);
    }

    #[test]
    fn out_of_range_class_clamps() {
        let mut r = SpanRing::with_level(ObsLevel::Counters);
        r.record_span(250, 0, 0, 1);
        assert_eq!(r.counters().0[CLASS_COUNT - 1].count, 1);
    }
}

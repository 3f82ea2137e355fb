//! Observability for the DASHMM reproduction: one subsystem owning span
//! recording, utilization analysis (paper §V-B, Eq. 1–2), timeline export
//! and critical-path attribution.
//!
//! The layers above record into [`SpanRing`]s (fixed-capacity, no
//! allocation on the hot path; compiled out without the `obs` feature),
//! drain them into [`TraceSet`]s, and export:
//!
//! - [`chrome_trace`] / [`merged_chrome_trace`] — Chrome Trace Event JSON
//!   loadable in Perfetto or chrome://tracing,
//! - [`summary`] — the machine-readable `run_summary.json` sections,
//! - [`critical_path`] — the observed critical path over the executed DAG
//!   (the quantitative form of the paper's Figure-4 "long tail"
//!   diagnosis),
//! - [`validate_chrome_trace`] — the schema check CI runs on emitted
//!   files.
//!
//! It also holds [`codec`], the one little-endian body codec every decoder
//! of bytes that crossed a socket reads through (this crate is the one
//! every layer that touches a socket already depends on).

pub mod chrome;
pub mod codec;
pub mod critical;
pub mod event;
pub mod json;
pub mod merge;
pub mod recorder;
pub mod refit;
pub mod summary;
pub mod telemetry;
pub mod trace;
pub mod validate;

pub use chrome::{chrome_trace, chrome_trace_parts, ChromePart};
pub use critical::{critical_path, CriticalPathReport, PathStep, SLACK_BUCKETS_US};
pub use event::{
    class_name, TraceEvent, CLASS_COUNT, CLASS_LCO_TRIGGER, CLASS_NET_ACK, CLASS_NET_HEARTBEAT,
    CLASS_NET_RETRANSMIT, CLASS_NET_RX, CLASS_NET_TX, CLASS_NONE, CLASS_PARCEL_FLUSH,
    CLASS_RECOVERY, NO_TAG,
};
pub use merge::{
    align_ranks, decode_rank_trace, encode_rank_trace, merged_chrome_trace, RankTrace,
};
pub use recorder::{ClassCounters, ClassStat, ObsLevel, SpanRing, DEFAULT_RING_CAPACITY};
pub use refit::{refit_section, StepObs};
pub use telemetry::{
    bucket_bounds, bucket_index, Counter, Gauge, HistSnapshot, LatencySummary, LogHistogram,
    PhaseHists, TelemetryHub, MAX_TRACKED, NUM_BUCKETS, PHASES, SUB_BUCKET_COUNT,
};
pub use trace::{utilization_by_class, utilization_total, TraceSet};
pub use validate::{
    validate_chrome_trace, validate_run_summary, validate_stats_snapshot, StatsSnapshotStats,
    TraceStats,
};

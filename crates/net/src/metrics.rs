//! Communication metrics: what the transport did, per destination.
//!
//! The counters answer the questions the paper's coalescing ablation asks
//! of a real run: how many parcels went where, how well did they coalesce
//! (batch-size histogram), why did buffers flush, and how deep did the
//! send queue get under backpressure.

use dashmm_amt::PeerFailure;

/// Why a coalescing buffer was flushed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum FlushReason {
    /// The byte threshold (`CoalesceConfig::max_bytes`) was reached.
    Size = 0,
    /// The oldest parcel aged past `CoalesceConfig::max_delay_us`.
    Interval = 1,
    /// The locality went idle with parcels still buffered.
    Idle = 2,
    /// Coalescing disabled: every parcel ships alone.
    Unbatched = 3,
    /// Transport shutdown drained the buffer.
    Shutdown = 4,
}

/// Number of [`FlushReason`] variants.
pub const FLUSH_REASONS: usize = 5;

const REASON_NAMES: [&str; FLUSH_REASONS] = ["size", "interval", "idle", "unbatched", "shutdown"];

/// Log₂ histogram buckets for parcels-per-frame.
pub const BATCH_HIST_BUCKETS: usize = 16;

/// Per-destination send counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DestMetrics {
    /// Parcels queued toward this destination.
    pub parcels: u64,
    /// Encoded parcel bytes (frame headers excluded).
    pub bytes: u64,
    /// Frames shipped.
    pub frames: u64,
}

/// A snapshot of the transport's communication counters.
#[derive(Clone, Debug, Default)]
pub struct CommMetrics {
    /// Send counters indexed by destination rank (the own-rank slot stays
    /// zero).
    pub per_dest: Vec<DestMetrics>,
    /// Histogram of parcels per coalesced frame: bucket `i` counts frames
    /// carrying `[2^i, 2^(i+1))` parcels (last bucket is open-ended).
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Flush counts indexed by [`FlushReason`].
    pub flush_reasons: [u64; FLUSH_REASONS],
    /// High-water mark of bytes queued toward peers awaiting socket writes.
    pub max_queued_bytes: usize,
    /// Times a sender blocked on the bounded queue.
    pub backpressure_stalls: u64,
    /// Parcel frames received.
    pub rx_frames: u64,
    /// Parcels delivered into the scheduler.
    pub rx_parcels: u64,
    /// Parcel body bytes received.
    pub rx_bytes: u64,
    /// Parcel frames retransmitted after ack timeout.
    pub retransmit_frames: u64,
    /// Standalone cumulative-ack frames sent (piggybacked acks excluded).
    pub acks_tx: u64,
    /// Duplicate parcel frames suppressed by the receive sequencer.
    pub dup_frames_rx: u64,
    /// Checksum-failed frames discarded by the decoder (injected
    /// corruption downgraded to loss).
    pub corrupt_frames_rx: u64,
    /// Frames rejected for declaring a body over the decoder's cap.
    pub oversize_rejected: u64,
    /// Idle/aged coalescer flushes deferred because the destination's
    /// write queue was over budget (send-side backpressure: an unwritable
    /// socket must not grow the queue without bound).
    pub idle_deferrals: u64,
    /// Liveness heartbeats sent.
    pub heartbeats_tx: u64,
    /// Fault-injector decisions taken on this rank's outbound frames:
    /// `[drops, dups, corrupts, delays, reorders]`.
    pub injected: [u64; 5],
    /// High-water mark of unacked body bytes across the per-destination
    /// retransmit queues (the quantity bounded by
    /// `RetransmitConfig::max_unacked_bytes`).
    pub retransmit_queue_peak: u64,
    /// Times a sender blocked on the bounded retransmit queue.
    pub arq_backpressure_stalls: u64,
    /// Parcels dropped because their destination was convicted dead and
    /// fenced (recovery re-derives their work at the DAG level).
    pub fenced_dropped_parcels: u64,
    /// The conviction record if a peer was declared down: rank, run epoch
    /// at conviction, and reason (heartbeat timeout vs dirty close).
    pub failure: Option<PeerFailure>,
}

impl CommMetrics {
    /// Metrics for a transport spanning `ranks` destinations.
    pub fn new(ranks: usize) -> Self {
        CommMetrics {
            per_dest: vec![DestMetrics::default(); ranks],
            ..CommMetrics::default()
        }
    }

    /// Record one frame of `count` parcels flushed for `reason`.
    pub fn record_flush(&mut self, dest: usize, count: u64, reason: FlushReason) {
        self.per_dest[dest].frames += 1;
        self.flush_reasons[reason as usize] += 1;
        let bucket = (63 - count.max(1).leading_zeros() as usize).min(BATCH_HIST_BUCKETS - 1);
        self.batch_hist[bucket] += 1;
    }

    /// Total parcels sent across destinations.
    pub fn parcels_sent(&self) -> u64 {
        self.per_dest.iter().map(|d| d.parcels).sum()
    }

    /// Total frames sent across destinations.
    pub fn frames_sent(&self) -> u64 {
        self.per_dest.iter().map(|d| d.frames).sum()
    }

    /// Mean parcels per sent frame.
    pub fn mean_batch(&self) -> f64 {
        let frames = self.frames_sent();
        if frames == 0 {
            0.0
        } else {
            self.parcels_sent() as f64 / frames as f64
        }
    }

    /// Total fault-injector decisions across fault kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// One-line digest of the run's communication, for end-of-run output.
    pub fn digest(&self, rank: u32) -> String {
        let tx_bytes: u64 = self.per_dest.iter().map(|d| d.bytes).sum();
        let reasons: Vec<String> = self
            .flush_reasons
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("{}:{c}", REASON_NAMES[i]))
            .collect();
        let mut line = format!(
            "[rank {rank}] comm: tx {} parcels / {} frames ({:.1}/frame, {} B), \
             rx {} parcels / {} frames ({} B), flushes {}, max queued {} B, {} stalls",
            self.parcels_sent(),
            self.frames_sent(),
            self.mean_batch(),
            tx_bytes,
            self.rx_parcels,
            self.rx_frames,
            self.rx_bytes,
            if reasons.is_empty() {
                "-".to_string()
            } else {
                reasons.join(" ")
            },
            self.max_queued_bytes,
            self.backpressure_stalls,
        );
        if self.retransmit_frames + self.dup_frames_rx + self.corrupt_frames_rx + self.acks_tx > 0 {
            line.push_str(&format!(
                ", rtx {} / dup {} / corrupt {} / acks {}",
                self.retransmit_frames, self.dup_frames_rx, self.corrupt_frames_rx, self.acks_tx
            ));
        }
        if self.injected_total() > 0 {
            line.push_str(&format!(
                ", injected d:{} u:{} c:{} y:{} r:{}",
                self.injected[0],
                self.injected[1],
                self.injected[2],
                self.injected[3],
                self.injected[4]
            ));
        }
        if self.idle_deferrals > 0 {
            line.push_str(&format!(", {} idle deferrals", self.idle_deferrals));
        }
        if self.retransmit_queue_peak > 0 {
            line.push_str(&format!(", arq peak {} B", self.retransmit_queue_peak));
        }
        if self.arq_backpressure_stalls > 0 {
            line.push_str(&format!(", {} arq stalls", self.arq_backpressure_stalls));
        }
        if self.fenced_dropped_parcels > 0 {
            line.push_str(&format!(
                ", {} parcels dropped at fence",
                self.fenced_dropped_parcels
            ));
        }
        if let Some(f) = &self.failure {
            line.push_str(&format!(", peer down: {f}"));
        }
        line
    }

    /// Machine-readable form for `run_summary.json`.
    pub fn to_json(&self) -> dashmm_obs::json::Value {
        use dashmm_obs::json::{obj, Value};
        let dests: Vec<Value> = self
            .per_dest
            .iter()
            .enumerate()
            .filter(|(_, d)| d.parcels > 0 || d.frames > 0)
            .map(|(rank, d)| {
                obj(vec![
                    ("rank", Value::from(rank)),
                    ("parcels", Value::from(d.parcels)),
                    ("bytes", Value::from(d.bytes)),
                    ("frames", Value::from(d.frames)),
                ])
            })
            .collect();
        let reasons: Vec<Value> = REASON_NAMES
            .iter()
            .zip(&self.flush_reasons)
            .map(|(name, &count)| {
                obj(vec![
                    ("reason", Value::from(*name)),
                    ("count", Value::from(count)),
                ])
            })
            .collect();
        obj(vec![
            ("parcels_sent", Value::from(self.parcels_sent())),
            ("frames_sent", Value::from(self.frames_sent())),
            ("mean_batch", Value::from(self.mean_batch())),
            ("per_dest", Value::Arr(dests)),
            ("batch_hist", Value::from(self.batch_hist.to_vec())),
            ("flush_reasons", Value::Arr(reasons)),
            ("max_queued_bytes", Value::from(self.max_queued_bytes)),
            ("backpressure_stalls", Value::from(self.backpressure_stalls)),
            ("rx_frames", Value::from(self.rx_frames)),
            ("rx_parcels", Value::from(self.rx_parcels)),
            ("rx_bytes", Value::from(self.rx_bytes)),
            ("retransmit_frames", Value::from(self.retransmit_frames)),
            ("acks_tx", Value::from(self.acks_tx)),
            ("dup_frames_rx", Value::from(self.dup_frames_rx)),
            ("corrupt_frames_rx", Value::from(self.corrupt_frames_rx)),
            ("oversize_rejected", Value::from(self.oversize_rejected)),
            ("idle_deferrals", Value::from(self.idle_deferrals)),
            ("heartbeats_tx", Value::from(self.heartbeats_tx)),
            ("injected", Value::from(self.injected.to_vec())),
            (
                "retransmit_queue_peak",
                Value::from(self.retransmit_queue_peak),
            ),
            (
                "arq_backpressure_stalls",
                Value::from(self.arq_backpressure_stalls),
            ),
            (
                "fenced_dropped_parcels",
                Value::from(self.fenced_dropped_parcels),
            ),
            (
                "failure",
                match &self.failure {
                    Some(f) => obj(vec![
                        ("rank", Value::from(f.rank as u64)),
                        ("epoch", Value::from(f.epoch as u64)),
                        ("reason", Value::from(f.reason.name())),
                    ]),
                    None => Value::Null,
                },
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut m = CommMetrics::new(2);
        m.record_flush(1, 1, FlushReason::Size);
        m.record_flush(1, 2, FlushReason::Size);
        m.record_flush(1, 3, FlushReason::Interval);
        m.record_flush(1, 17, FlushReason::Idle);
        assert_eq!(m.batch_hist[0], 1);
        assert_eq!(m.batch_hist[1], 2);
        assert_eq!(m.batch_hist[4], 1);
        assert_eq!(m.flush_reasons[FlushReason::Size as usize], 2);
        assert_eq!(m.per_dest[1].frames, 4);
    }

    #[test]
    fn digest_is_one_line() {
        let mut m = CommMetrics::new(2);
        m.per_dest[1].parcels = 8;
        m.record_flush(1, 8, FlushReason::Size);
        let d = m.digest(0);
        assert_eq!(d.lines().count(), 1);
        assert!(d.contains("tx 8 parcels / 1 frames"));
        assert!(d.contains("size:1"));
    }

    #[test]
    fn reliability_counters_surface_in_digest_and_json() {
        let mut m = CommMetrics::new(2);
        m.retransmit_frames = 3;
        m.dup_frames_rx = 2;
        m.injected = [5, 1, 0, 0, 0];
        m.idle_deferrals = 4;
        let d = m.digest(1);
        assert!(d.contains("rtx 3"), "digest missing retransmits: {d}");
        assert!(d.contains("injected d:5"), "digest missing injection: {d}");
        assert!(
            d.contains("4 idle deferrals"),
            "digest missing deferrals: {d}"
        );
        let back = dashmm_obs::json::parse(&m.to_json().to_json()).expect("valid JSON");
        assert_eq!(
            back.get("retransmit_frames").and_then(|v| v.as_f64()),
            Some(3.0)
        );
        assert_eq!(
            back.get("injected")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(5)
        );
        // A fault-free run keeps the digest terse.
        let clean = CommMetrics::new(2).digest(0);
        assert!(!clean.contains("rtx"));
        assert!(!clean.contains("injected"));
    }

    #[test]
    fn failure_and_arq_peak_surface_in_digest_and_json() {
        use dashmm_amt::ConvictionReason;
        let mut m = CommMetrics::new(3);
        m.retransmit_queue_peak = 4096;
        m.arq_backpressure_stalls = 2;
        m.fenced_dropped_parcels = 7;
        m.failure = Some(PeerFailure {
            rank: 2,
            epoch: 5,
            reason: ConvictionReason::DirtyClose,
        });
        let d = m.digest(0);
        assert!(d.contains("arq peak 4096 B"), "digest missing peak: {d}");
        assert!(
            d.contains("peer down: rank 2 (dirty_close, epoch 5)"),
            "digest missing failure: {d}"
        );
        let back = dashmm_obs::json::parse(&m.to_json().to_json()).expect("valid JSON");
        assert_eq!(
            back.get("retransmit_queue_peak").and_then(|v| v.as_f64()),
            Some(4096.0)
        );
        let f = back.get("failure").expect("failure object");
        assert_eq!(f.get("rank").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(f.get("epoch").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(
            f.get("reason").and_then(|v| v.as_str()),
            Some("dirty_close")
        );
        // Clean runs keep the digest terse and the failure null.
        let clean = CommMetrics::new(2);
        assert!(!clean.digest(0).contains("peer down"));
        let cb = dashmm_obs::json::parse(&clean.to_json().to_json()).unwrap();
        assert!(matches!(
            cb.get("failure"),
            Some(dashmm_obs::json::Value::Null)
        ));
    }

    #[test]
    fn json_round_trips_counters() {
        let mut m = CommMetrics::new(3);
        m.per_dest[2].parcels = 5;
        m.per_dest[2].bytes = 500;
        m.record_flush(2, 5, FlushReason::Idle);
        m.rx_parcels = 4;
        let v = m.to_json();
        let text = v.to_json();
        let back = dashmm_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(back.get("parcels_sent").and_then(|v| v.as_f64()), Some(5.0));
        assert_eq!(back.get("rx_parcels").and_then(|v| v.as_f64()), Some(4.0));
        let dests = back.get("per_dest").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(dests.len(), 1);
        assert_eq!(dests[0].get("rank").and_then(|v| v.as_f64()), Some(2.0));
    }
}

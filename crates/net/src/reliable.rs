//! Reliable delivery: per-destination sequencing, cumulative acks,
//! retransmission with capped exponential backoff, and exactly-once
//! in-order receive.
//!
//! TCP already gives the transport a reliable byte stream, but the fault
//! injector deliberately breaks that promise at the frame level (dropped,
//! duplicated, corrupted, reordered parcel frames) to model a lossy
//! interconnect — so parcel frames ([`FrameKind::SeqParcels`]) carry their
//! own ARQ layer, built here as pure bookkeeping the progress thread
//! drives:
//!
//! * [`SeqSender`] numbers outbound parcel frames `1, 2, 3, …` per
//!   destination, keeps every unacked frame in a retransmit queue, and
//!   resends when a frame ages past its due time.  Each resend doubles the
//!   timeout (capped) and applies deterministic jitter so synchronized
//!   retransmit storms decorrelate.
//! * [`SeqReceiver`] accepts frames in any order: in-sequence frames
//!   deliver immediately (plus any buffered successors), future frames
//!   wait in a bounded reorder buffer, and already-delivered sequence
//!   numbers are suppressed as duplicates.  Its cumulative ack — the
//!   highest `n` with `1..=n` all delivered — piggybacks on reverse-path
//!   parcel frames or ships standalone.
//!
//! Safra termination stays loss-safe because the transport only reports a
//! rank's `sent` count from [`SeqSender::acked_parcels`]: a dropped frame
//! keeps its parcels out of Σsent *and* Σrecv (instead of only Σrecv),
//! so the counts cannot spuriously balance while repair is outstanding.
//!
//! [`FrameKind::SeqParcels`]: crate::wire::FrameKind::SeqParcels

use std::collections::{BTreeMap, VecDeque};

use crate::wire::SharedFrame;

/// Retransmission tuning knobs (documented in `FAULTS.md`).
#[derive(Clone, Copy, Debug)]
pub struct RetransmitConfig {
    /// Initial retransmit timeout in microseconds.  The default is
    /// deliberately lax for a loopback transport: the receiver delivers
    /// parcels inline on its progress thread, so the effective ack RTT
    /// under load is dominated by delivery time, not the wire — a tight
    /// timeout turns ordinary queueing into spurious retransmission storms.
    pub timeout_us: u64,
    /// Backoff cap: no retransmit interval exceeds this.
    pub max_backoff_us: u64,
    /// Jitter fraction applied to each interval (`0.2` → ±20%).
    pub jitter_frac: f64,
    /// Reorder-buffer capacity in frames; frames beyond the window are
    /// dropped (the sender's retransmit repairs them once in range).
    pub reorder_window: usize,
    /// High-water mark on bytes held in one destination's retransmit
    /// queue.  A worker blocks in `SocketTransport::send` once the queue
    /// holds this many unacked body bytes, so a stalled peer bounds the
    /// sender's memory instead of growing it without limit.
    pub max_unacked_bytes: usize,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            timeout_us: 25_000,
            max_backoff_us: 400_000,
            jitter_frac: 0.2,
            reorder_window: 1024,
            max_unacked_bytes: 16 << 20,
        }
    }
}

/// One unacknowledged parcel frame awaiting ack or retransmission.
#[derive(Clone, Debug)]
struct Pending {
    seq: u64,
    /// The frame as it went out: the same allocation the write queue holds.
    body: SharedFrame,
    parcels: u64,
    attempts: u32,
    due_ns: u64,
}

/// A frame due for retransmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Retransmit {
    /// Original sequence number (unchanged across attempts).
    pub seq: u64,
    /// A copy of the retained frame, for the caller to re-seal under a fresh ack.
    pub body: Vec<u8>,
    /// Retransmission attempt count (1 = first resend).
    pub attempt: u32,
}

/// Send side of the ARQ layer for one destination.
#[derive(Debug, Default)]
pub struct SeqSender {
    next_seq: u64,
    unacked: VecDeque<Pending>,
    acked_parcels: u64,
    acked_seq: u64,
    retransmits: u64,
    unacked_bytes: usize,
    peak_unacked_bytes: usize,
}

impl SeqSender {
    /// Fresh sender; the first frame is sequence 1.
    pub fn new() -> Self {
        SeqSender::default()
    }

    /// Register an outbound frame carrying `parcels` parcels at time
    /// `now_ns`; returns its sequence number — [`SeqSender::frames_sent`]
    /// plus one, so the caller can have stamped it into the frame already.
    pub fn on_send(
        &mut self,
        body: impl Into<SharedFrame>,
        parcels: u64,
        now_ns: u64,
        cfg: &RetransmitConfig,
    ) -> u64 {
        let body = body.into();
        self.next_seq += 1;
        let seq = self.next_seq;
        self.unacked_bytes += body.len();
        self.peak_unacked_bytes = self.peak_unacked_bytes.max(self.unacked_bytes);
        self.unacked.push_back(Pending {
            seq,
            body,
            parcels,
            attempts: 0,
            due_ns: now_ns + cfg.timeout_us * 1_000,
        });
        seq
    }

    /// Apply a cumulative ack: every frame with `seq <= ack` is delivered
    /// and its parcels become termination-countable.
    pub fn on_ack(&mut self, ack: u64) {
        while let Some(front) = self.unacked.front() {
            if front.seq > ack {
                break;
            }
            let p = self.unacked.pop_front().unwrap();
            self.acked_parcels += p.parcels;
            self.unacked_bytes -= p.body.len();
        }
        self.acked_seq = self.acked_seq.max(ack.min(self.next_seq));
    }

    /// Frames past their due time at `now_ns`.  Each is rescheduled with
    /// doubled (capped) timeout plus deterministic jitter keyed on
    /// `(seq, attempt)`, so two ranks retransmitting the same workload do
    /// not stay lock-step.
    pub fn due_retransmits(&mut self, now_ns: u64, cfg: &RetransmitConfig) -> Vec<Retransmit> {
        let mut out = Vec::new();
        for p in &mut self.unacked {
            if p.due_ns > now_ns {
                continue;
            }
            p.attempts += 1;
            self.retransmits += 1;
            let backoff_us =
                (cfg.timeout_us << p.attempts.min(20)).min(cfg.max_backoff_us.max(cfg.timeout_us));
            // splitmix64-flavoured hash → jitter in [-jitter_frac, +jitter_frac].
            let mut h = p.seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((p.attempts as u64) << 32);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 31;
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let scale = 1.0 + cfg.jitter_frac * (2.0 * unit - 1.0);
            p.due_ns = now_ns + ((backoff_us as f64 * scale) as u64).max(1) * 1_000;
            out.push(Retransmit {
                seq: p.seq,
                body: Vec::clone(&p.body),
                attempt: p.attempts,
            });
        }
        out
    }

    /// Earliest retransmit deadline among unacked frames, if any.
    pub fn next_due_ns(&self) -> Option<u64> {
        self.unacked.iter().map(|p| p.due_ns).min()
    }

    /// Whether every sent frame has been acknowledged.
    pub fn all_acked(&self) -> bool {
        self.unacked.is_empty()
    }

    /// Parcels covered by received acks (the loss-safe `sent` count).
    pub fn acked_parcels(&self) -> u64 {
        self.acked_parcels
    }

    /// Highest cumulatively acked sequence number.
    pub fn acked_seq(&self) -> u64 {
        self.acked_seq
    }

    /// Frames ever queued (== highest sequence number assigned).
    pub fn frames_sent(&self) -> u64 {
        self.next_seq
    }

    /// Total retransmission attempts.
    pub fn retransmits(&self) -> u64 {
        self.retransmits
    }

    /// Body bytes currently awaiting acknowledgement (the bounded
    /// quantity; see [`RetransmitConfig::max_unacked_bytes`]).
    pub fn unacked_bytes(&self) -> usize {
        self.unacked_bytes
    }

    /// High-water mark of [`SeqSender::unacked_bytes`] over the sender's
    /// lifetime.
    pub fn peak_unacked_bytes(&self) -> usize {
        self.peak_unacked_bytes
    }

    /// Discard every unacked frame without acking it: `(frames, parcels,
    /// bytes)` dropped.  Used when the destination is declared dead and
    /// fenced — its lane will never ack, and recovery re-derives the lost
    /// work at the DAG level instead of retransmitting it.
    pub fn drain_unacked(&mut self) -> (u64, u64, usize) {
        let frames = self.unacked.len() as u64;
        let parcels = self.unacked.iter().map(|p| p.parcels).sum();
        let bytes = self.unacked_bytes;
        self.unacked.clear();
        self.unacked_bytes = 0;
        (frames, parcels, bytes)
    }
}

/// What the receiver did with one arriving frame.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct RxOutcome {
    /// The frame was the next in sequence: under [`SeqReceiver::accept`]
    /// the caller delivers the body it still holds, then `deliver`.
    pub in_order: bool,
    /// Parcel bodies now deliverable, in sequence order.
    pub deliver: Vec<Vec<u8>>,
    /// The frame repeated an already-delivered sequence number.
    pub duplicate: bool,
    /// The frame was beyond the reorder window and had to be discarded
    /// (the sender will retransmit it).
    pub overflow: bool,
}

/// Receive side of the ARQ layer for one source.
#[derive(Debug)]
pub struct SeqReceiver {
    next_expected: u64,
    held: BTreeMap<u64, Vec<u8>>,
    duplicates: u64,
    overflows: u64,
}

impl Default for SeqReceiver {
    fn default() -> Self {
        SeqReceiver::new()
    }
}

impl SeqReceiver {
    /// Fresh receiver expecting sequence 1.
    pub fn new() -> Self {
        SeqReceiver {
            next_expected: 1,
            held: BTreeMap::new(),
            duplicates: 0,
            overflows: 0,
        }
    }

    /// Accept frame `seq` whose inner parcels body is `body`.  An in-order
    /// body is not copied: the outcome says `in_order` and lists only the
    /// held successors it released.  Only a frame that has to wait is
    /// copied, into the reorder buffer.
    pub fn accept(&mut self, seq: u64, body: &[u8], cfg: &RetransmitConfig) -> RxOutcome {
        let mut out = RxOutcome::default();
        if seq < self.next_expected || self.held.contains_key(&seq) {
            self.duplicates += 1;
            out.duplicate = true;
        } else if seq >= self.next_expected + cfg.reorder_window.max(1) as u64 {
            self.overflows += 1;
            out.overflow = true;
        } else if seq > self.next_expected {
            self.held.insert(seq, body.to_vec());
        } else {
            out.in_order = true;
            self.next_expected += 1;
            while let Some(body) = self.held.remove(&self.next_expected) {
                self.next_expected += 1;
                out.deliver.push(body);
            }
        }
        out
    }

    /// [`SeqReceiver::accept`] for a caller that hands the body over: an
    /// in-order one leads `deliver`, unmoved.
    pub fn on_frame(&mut self, seq: u64, body: Vec<u8>, cfg: &RetransmitConfig) -> RxOutcome {
        let mut out = self.accept(seq, &body, cfg);
        if out.in_order {
            out.deliver.insert(0, body);
        }
        out
    }

    /// Cumulative ack: every sequence `1..=cum_ack()` has been delivered.
    pub fn cum_ack(&self) -> u64 {
        self.next_expected - 1
    }

    /// Duplicate frames suppressed.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Frames discarded for exceeding the reorder window.
    pub fn overflows(&self) -> u64 {
        self.overflows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RetransmitConfig {
        RetransmitConfig::default()
    }

    #[test]
    fn in_order_frames_deliver_immediately() {
        let mut rx = SeqReceiver::new();
        for seq in 1..=3u64 {
            let out = rx.on_frame(seq, vec![seq as u8], &cfg());
            assert_eq!(out.deliver, vec![vec![seq as u8]]);
            assert!(!out.duplicate);
        }
        assert_eq!(rx.cum_ack(), 3);
    }

    #[test]
    fn reordered_frames_deliver_in_sequence() {
        let mut rx = SeqReceiver::new();
        assert!(rx.on_frame(2, vec![2], &cfg()).deliver.is_empty());
        assert!(rx.on_frame(3, vec![3], &cfg()).deliver.is_empty());
        assert_eq!(rx.cum_ack(), 0);
        let out = rx.on_frame(1, vec![1], &cfg());
        assert_eq!(out.deliver, vec![vec![1], vec![2], vec![3]]);
        assert_eq!(rx.cum_ack(), 3);
    }

    #[test]
    fn duplicates_suppressed_everywhere() {
        let mut rx = SeqReceiver::new();
        rx.on_frame(1, vec![1], &cfg());
        assert!(rx.on_frame(1, vec![1], &cfg()).duplicate); // already delivered
        rx.on_frame(3, vec![3], &cfg());
        assert!(rx.on_frame(3, vec![3], &cfg()).duplicate); // held duplicate
        assert_eq!(rx.duplicates(), 2);
    }

    #[test]
    fn reorder_window_bounds_buffering() {
        let small = RetransmitConfig {
            reorder_window: 4,
            ..cfg()
        };
        let mut rx = SeqReceiver::new();
        let out = rx.on_frame(100, vec![0], &small);
        assert!(out.overflow);
        assert_eq!(rx.overflows(), 1);
        // An in-window frame still works afterwards.
        assert_eq!(rx.on_frame(1, vec![1], &small).deliver.len(), 1);
    }

    #[test]
    fn acks_trim_queue_and_count_parcels() {
        let mut tx = SeqSender::new();
        let c = cfg();
        assert_eq!(tx.on_send(vec![1], 10, 0, &c), 1);
        assert_eq!(tx.on_send(vec![2], 20, 0, &c), 2);
        assert_eq!(tx.on_send(vec![3], 30, 0, &c), 3);
        assert!(!tx.all_acked());
        tx.on_ack(2);
        assert_eq!(tx.acked_parcels(), 30);
        assert_eq!(tx.acked_seq(), 2);
        tx.on_ack(2); // idempotent
        assert_eq!(tx.acked_parcels(), 30);
        tx.on_ack(3);
        assert!(tx.all_acked());
        assert_eq!(tx.acked_parcels(), 60);
    }

    #[test]
    fn retransmits_fire_after_timeout_with_growing_backoff() {
        let mut tx = SeqSender::new();
        let c = cfg();
        tx.on_send(vec![9], 1, 0, &c);
        assert!(tx.due_retransmits(c.timeout_us * 1_000 - 1, &c).is_empty());
        let first = tx.due_retransmits(c.timeout_us * 1_000, &c);
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].seq, 1);
        assert_eq!(first[0].attempt, 1);
        let due1 = tx.next_due_ns().unwrap();
        // Next interval roughly doubles (± jitter).
        let gap_us = (due1 - c.timeout_us * 1_000) / 1_000;
        assert!(
            gap_us >= (2 * c.timeout_us) * 7 / 10 && gap_us <= (2 * c.timeout_us) * 13 / 10,
            "backoff gap {gap_us}µs not ~2x timeout"
        );
        assert_eq!(tx.retransmits(), 1);
        tx.on_ack(1);
        assert!(tx.due_retransmits(u64::MAX / 2, &c).is_empty());
    }

    #[test]
    fn backoff_is_capped() {
        let c = RetransmitConfig {
            timeout_us: 1_000,
            max_backoff_us: 8_000,
            jitter_frac: 0.0,
            ..cfg()
        };
        let mut tx = SeqSender::new();
        tx.on_send(vec![0], 1, 0, &c);
        let mut now = 0u64;
        for _ in 0..12 {
            now = tx.next_due_ns().unwrap();
            assert_eq!(tx.due_retransmits(now, &c).len(), 1);
        }
        let gap_us = (tx.next_due_ns().unwrap() - now) / 1_000;
        assert_eq!(gap_us, 8_000, "backoff must cap at max_backoff_us");
    }

    #[test]
    fn retransmission_keeps_sequence_number() {
        let mut tx = SeqSender::new();
        let c = cfg();
        let seq = tx.on_send(vec![4, 5], 2, 0, &c);
        let again = tx.due_retransmits(u64::MAX / 2, &c);
        assert_eq!(again[0].seq, seq);
        assert_eq!(again[0].body, vec![4, 5]);
    }

    #[test]
    fn unacked_bytes_track_queue_and_peak() {
        let mut tx = SeqSender::new();
        let c = cfg();
        tx.on_send(vec![0; 100], 1, 0, &c);
        tx.on_send(vec![0; 300], 1, 0, &c);
        assert_eq!(tx.unacked_bytes(), 400);
        assert_eq!(tx.peak_unacked_bytes(), 400);
        tx.on_ack(1);
        assert_eq!(tx.unacked_bytes(), 300);
        assert_eq!(tx.peak_unacked_bytes(), 400, "peak is monotone");
        tx.on_send(vec![0; 50], 1, 0, &c);
        assert_eq!(tx.unacked_bytes(), 350);
        assert_eq!(tx.peak_unacked_bytes(), 400);
        tx.on_ack(3);
        assert_eq!(tx.unacked_bytes(), 0);
        assert!(tx.all_acked());
    }

    #[test]
    fn drain_unacked_discards_without_acking() {
        let mut tx = SeqSender::new();
        let c = cfg();
        tx.on_send(vec![0; 10], 2, 0, &c);
        tx.on_send(vec![0; 30], 3, 0, &c);
        let (frames, parcels, bytes) = tx.drain_unacked();
        assert_eq!((frames, parcels, bytes), (2, 5, 40));
        assert!(tx.all_acked(), "drained queue reads as empty");
        assert_eq!(tx.unacked_bytes(), 0);
        assert_eq!(
            tx.acked_parcels(),
            0,
            "discard must not count toward the loss-safe sent count"
        );
        assert_eq!(tx.peak_unacked_bytes(), 40, "peak survives the drain");
    }

    #[test]
    fn lossy_link_converges_end_to_end() {
        // Drive sender → lossy channel → receiver until everything lands.
        let c = RetransmitConfig {
            timeout_us: 10,
            max_backoff_us: 50,
            ..cfg()
        };
        let mut tx = SeqSender::new();
        let mut rx = SeqReceiver::new();
        let mut delivered: Vec<Vec<u8>> = Vec::new();
        let mut now = 0u64;
        for i in 0..40u64 {
            let seq = tx.on_send(vec![i as u8], 1, now, &c);
            // Drop every third first transmission.
            if i % 3 != 0 {
                delivered.extend(rx.on_frame(seq, vec![i as u8], &c).deliver);
            }
            tx.on_ack(rx.cum_ack());
        }
        let mut spins = 0;
        while !tx.all_acked() {
            now = tx.next_due_ns().unwrap();
            for r in tx.due_retransmits(now, &c) {
                delivered.extend(rx.on_frame(r.seq, r.body, &c).deliver);
            }
            tx.on_ack(rx.cum_ack());
            spins += 1;
            assert!(spins < 1_000, "retransmission failed to converge");
        }
        let want: Vec<Vec<u8>> = (0..40u64).map(|i| vec![i as u8]).collect();
        assert_eq!(delivered, want, "exactly-once in-order delivery violated");
        assert_eq!(tx.acked_parcels(), 40);
    }
}

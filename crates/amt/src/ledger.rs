//! Durable progress ledger and peer-failure descriptors.
//!
//! Recovery from a lost locality (FAULTS.md §Recovery) needs every
//! survivor to know, without asking anyone, how far each peer had
//! progressed before it died.  The [`ProgressLedger`] is that record: a
//! cementation-style watermark per locality — which DAG nodes have fired
//! their continuation, and how many outbound parcels toward each peer have
//! been cumulatively acknowledged by the ARQ layer.  Ranks gossip compact
//! [`LedgerSnapshot`]s on the existing heartbeat path, so at conviction
//! time every survivor holds a recent view of the dead rank's progress.
//!
//! The invariants the ledger guarantees (property-tested in
//! `tests/ledger_proptest.rs`, after the rsnano confirmation-height
//! discipline):
//!
//! * **Monotonicity** — fired bits never clear and acked watermarks never
//!   move backwards, locally or through [`ProgressLedger::merge_peer`].
//!   Out-of-order or duplicated gossip cannot regress a peer view.  (The
//!   one exception is [`ProgressLedger::clear`], between two evaluations
//!   of the same DAG.)
//! * **No phantom cementing** — a peer view only ever contains state the
//!   peer itself published.  A snapshot truncated mid-wire (crash during
//!   gossip) fails to decode and mutates nothing.
//! * **Conservation** — `fired_count` always equals the popcount of the
//!   fired bitmap, both locally and in every decoded snapshot.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use dashmm_obs::codec::{read_body, BodyCursor, BodyError, BodyWriter};
use parking_lot::Mutex;

/// Why a peer was convicted dead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvictionReason {
    /// No heartbeat (or any other frame) within the suspicion window.
    HeartbeatTimeout,
    /// The peer's stream hung up or corrupted mid-run without a Bye.
    DirtyClose,
}

impl ConvictionReason {
    /// Stable lower-case name for JSON summaries.
    pub fn name(&self) -> &'static str {
        match self {
            ConvictionReason::HeartbeatTimeout => "heartbeat_timeout",
            ConvictionReason::DirtyClose => "dirty_close",
        }
    }
}

impl fmt::Display for ConvictionReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A convicted peer: who, in which termination epoch, and why.
///
/// Carried by `RunReport::lost_peer` instead of a bare rank id so partial
/// summaries and the metrics digest can name the failure precisely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerFailure {
    /// The dead locality.
    pub rank: u32,
    /// Safra termination epoch at conviction time (0 when the transport
    /// does not track epochs).
    pub epoch: u32,
    /// What convicted it.
    pub reason: ConvictionReason,
}

impl fmt::Display for PeerFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rank {} ({}, epoch {})",
            self.rank, self.reason, self.epoch
        )
    }
}

/// One rank's published progress: an immutable, wire-encodable snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerSnapshot {
    /// The publishing rank.
    pub rank: u32,
    /// Publisher's mutation counter at snapshot time; newer snapshots from
    /// the same rank carry strictly larger generations.
    pub generation: u64,
    /// Cumulative acked-parcel watermark toward each peer rank (index =
    /// destination rank; the publisher's own slot stays 0).
    pub acked: Vec<u64>,
    /// Fired-node bitmap, one bit per DAG node id, LSB-first within each
    /// 64-bit word.
    pub fired: Vec<u64>,
    /// Number of DAG nodes the bitmap covers (trailing bits of the last
    /// word are zero).
    pub num_nodes: u32,
}

impl LedgerSnapshot {
    /// Fired nodes in this snapshot (always the bitmap popcount).
    pub fn fired_count(&self) -> u64 {
        self.fired.iter().map(|w| w.count_ones() as u64).sum()
    }

    /// Whether node `id` had fired at snapshot time.
    pub fn is_fired(&self, id: u32) -> bool {
        let w = (id / 64) as usize;
        w < self.fired.len() && (self.fired[w] >> (id % 64)) & 1 == 1
    }

    /// Append the wire encoding: `rank u32 | generation u64 | num_nodes u32
    /// | n_ranks u32 | acked u64 × n_ranks | fired u64 × ⌈num_nodes / 64⌉`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = BodyWriter(out);
        w.u32(self.rank).u64(self.generation).u32(self.num_nodes);
        w.u32(self.acked.len() as u32);
        for &v in self.acked.iter().chain(&self.fired) {
            w.u64(v);
        }
    }

    /// Decode one snapshot.  Returns `None` on any truncation or
    /// inconsistency — a crash mid-gossip yields a prefix, and a prefix
    /// must not partially apply.
    pub fn decode(bytes: &[u8]) -> Option<LedgerSnapshot> {
        // Caps on the declared counts: a corrupt header must not trigger a
        // giant allocation.
        const MAX_RANKS: usize = 1 << 16;
        const MAX_NODES: u32 = 1 << 28;
        read_body(bytes, |c| {
            let (rank, generation, num_nodes) = (c.u32()?, c.u64()?, c.u32()?);
            let n_ranks = c.u32()? as usize;
            if num_nodes > MAX_NODES || rank as usize >= n_ranks {
                return Err(BodyError::Malformed);
            }
            let words = (num_nodes as usize).div_ceil(64);
            let snap = LedgerSnapshot {
                rank,
                generation,
                acked: c.records(n_ranks, MAX_RANKS, 8, BodyCursor::u64)?,
                fired: c.records(words, words, 8, BodyCursor::u64)?,
                num_nodes,
            };
            // Trailing bits past num_nodes must be clear; set ones mean the
            // header and bitmap disagree (bit-level corruption the CRC let
            // through, or a malformed sender).
            let bits = num_nodes % 64;
            match snap.fired.last() {
                Some(last) if bits != 0 && last >> bits != 0 => Err(BodyError::Malformed),
                _ => Ok(snap),
            }
        })
        .ok()
    }
}

/// The local half of the ledger: this rank's own fired/acked record plus
/// the latest gossiped snapshot of every peer.
///
/// All mutators are lock-cheap and callable from the executor hot path
/// (`note_fired`) and the transport's progress thread (`note_acked`,
/// `merge_peer`) concurrently.
pub struct ProgressLedger {
    rank: u32,
    num_nodes: u32,
    generation: AtomicU64,
    fired: Mutex<Vec<u64>>,
    fired_count: AtomicU64,
    acked: Vec<AtomicU64>,
    peers: Mutex<Vec<Option<LedgerSnapshot>>>,
}

impl ProgressLedger {
    /// Ledger for `rank` over a DAG of `num_nodes` nodes across
    /// `num_ranks` localities.
    pub fn new(rank: u32, num_nodes: usize, num_ranks: u32) -> Self {
        ProgressLedger {
            rank,
            num_nodes: num_nodes as u32,
            generation: AtomicU64::new(0),
            fired: Mutex::new(vec![0u64; num_nodes.div_ceil(64)]),
            fired_count: AtomicU64::new(0),
            acked: (0..num_ranks).map(|_| AtomicU64::new(0)).collect(),
            peers: Mutex::new(vec![None; num_ranks as usize]),
        }
    }

    /// This rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// Record that DAG node `id` fired its continuation here.  Idempotent.
    pub fn note_fired(&self, id: u32) {
        debug_assert!(id < self.num_nodes);
        let mut fired = self.fired.lock();
        let w = &mut fired[(id / 64) as usize];
        let bit = 1u64 << (id % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.fired_count.fetch_add(1, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Start over for another evaluation of the same DAG: no node has
    /// fired, no peer view is held.  The acked watermarks count the
    /// transport's whole life and stay.  Between runs only.
    pub fn clear(&self) {
        self.fired.lock().fill(0);
        self.fired_count.store(0, Ordering::Relaxed);
        self.peers.lock().fill(None);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise the cumulative acked-parcel watermark toward `peer` to at
    /// least `cum` (monotone; stale values are ignored).
    pub fn note_acked(&self, peer: u32, cum: u64) {
        let slot = &self.acked[peer as usize];
        let mut cur = slot.load(Ordering::Relaxed);
        while cum > cur {
            match slot.compare_exchange_weak(cur, cum, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => {
                    self.generation.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Nodes fired locally so far.
    pub fn fired_count(&self) -> u64 {
        self.fired_count.load(Ordering::Relaxed)
    }

    /// Whether node `id` has fired locally.
    pub fn is_fired(&self, id: u32) -> bool {
        let fired = self.fired.lock();
        (fired[(id / 64) as usize] >> (id % 64)) & 1 == 1
    }

    /// Publish the current local state as an immutable snapshot.
    pub fn snapshot(&self) -> LedgerSnapshot {
        // Lock order: fired first, then reads of the atomics; generation
        // is sampled before the bitmap so a concurrent mutation can only
        // make the snapshot look *older* than it is, never newer.
        let generation = self.generation.load(Ordering::Relaxed);
        let fired = self.fired.lock().clone();
        LedgerSnapshot {
            rank: self.rank,
            generation,
            acked: self
                .acked
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            fired,
            num_nodes: self.num_nodes,
        }
    }

    /// Fold a gossiped peer snapshot into the peer table.  Merging is
    /// monotone per field — fired bits OR, watermarks max, generation max —
    /// so duplicated or reordered gossip can never regress a view.  A
    /// snapshot for this rank itself, or with a mismatched node count, is
    /// rejected.  Returns whether anything was stored.
    pub fn merge_peer(&self, snap: &LedgerSnapshot) -> bool {
        if snap.rank == self.rank
            || snap.num_nodes != self.num_nodes
            || snap.acked.len() != self.acked.len()
        {
            return false;
        }
        let mut peers = self.peers.lock();
        let slot = &mut peers[snap.rank as usize];
        match slot {
            None => *slot = Some(snap.clone()),
            Some(cur) => {
                cur.generation = cur.generation.max(snap.generation);
                for (c, s) in cur.acked.iter_mut().zip(&snap.acked) {
                    *c = (*c).max(*s);
                }
                for (c, s) in cur.fired.iter_mut().zip(&snap.fired) {
                    *c |= *s;
                }
            }
        }
        true
    }

    /// Latest merged view of `peer`'s progress, if any gossip arrived.
    pub fn peer(&self, peer: u32) -> Option<LedgerSnapshot> {
        self.peers.lock().get(peer as usize).and_then(|s| s.clone())
    }

    /// Nodes known (via gossip) to have fired at `peer` — the work of the
    /// dead rank that is provably cemented and will not be recomputed
    /// blindly by accounting alone.
    pub fn cemented(&self, peer: u32) -> u64 {
        self.peer(peer).map(|s| s.fired_count()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fired_bits_are_idempotent_and_counted() {
        let l = ProgressLedger::new(0, 130, 2);
        l.note_fired(0);
        l.note_fired(64);
        l.note_fired(129);
        l.note_fired(64);
        assert_eq!(l.fired_count(), 3);
        assert!(l.is_fired(64) && !l.is_fired(1));
        let s = l.snapshot();
        assert_eq!(s.fired_count(), 3);
        assert!(s.is_fired(129) && !s.is_fired(128));
    }

    #[test]
    fn clear_forgets_fired_nodes_and_peers_but_keeps_acks() {
        let l = ProgressLedger::new(0, 70, 2);
        l.note_fired(3);
        l.note_acked(1, 9);
        let peer = ProgressLedger::new(1, 70, 2);
        peer.note_fired(5);
        assert!(l.merge_peer(&peer.snapshot()));
        let before = l.snapshot().generation;
        l.clear();
        let s = l.snapshot();
        assert_eq!((l.fired_count(), s.fired_count()), (0, 0));
        assert!(!l.is_fired(3) && l.peer(1).is_none());
        assert_eq!(s.acked, vec![0, 9]);
        assert!(s.generation > before);
    }

    #[test]
    fn acked_watermark_is_monotone() {
        let l = ProgressLedger::new(0, 8, 3);
        l.note_acked(1, 10);
        l.note_acked(1, 7); // stale: ignored
        l.note_acked(2, 3);
        let s = l.snapshot();
        assert_eq!(s.acked, vec![0, 10, 3]);
    }

    #[test]
    fn snapshot_roundtrips_through_wire_encoding() {
        let l = ProgressLedger::new(1, 100, 3);
        l.note_fired(5);
        l.note_fired(99);
        l.note_acked(0, 42);
        let s = l.snapshot();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        assert_eq!(LedgerSnapshot::decode(&buf), Some(s));
    }

    #[test]
    fn truncated_snapshot_rejected_whole() {
        let l = ProgressLedger::new(1, 100, 3);
        l.note_fired(5);
        let mut buf = Vec::new();
        l.snapshot().encode(&mut buf);
        for cut in 0..buf.len() {
            assert_eq!(LedgerSnapshot::decode(&buf[..cut]), None, "cut at {cut}");
        }
        buf.push(0);
        assert_eq!(LedgerSnapshot::decode(&buf), None, "trailing garbage");
    }

    #[test]
    fn merge_is_monotone_under_reordered_gossip() {
        let sender = ProgressLedger::new(1, 70, 2);
        let old = sender.snapshot();
        sender.note_fired(3);
        sender.note_acked(0, 9);
        let new = sender.snapshot();
        let l = ProgressLedger::new(0, 70, 2);
        assert!(l.merge_peer(&new));
        assert!(l.merge_peer(&old)); // arrives late: stored but cannot regress
        let view = l.peer(1).unwrap();
        assert!(view.is_fired(3));
        assert_eq!(view.acked[0], 9);
        assert_eq!(l.cemented(1), 1);
    }

    #[test]
    fn own_and_mismatched_snapshots_rejected() {
        let l = ProgressLedger::new(0, 70, 2);
        assert!(!l.merge_peer(&l.snapshot()));
        let other = ProgressLedger::new(1, 71, 2).snapshot();
        assert!(!l.merge_peer(&other));
    }

    #[test]
    fn peer_failure_formats_for_summaries() {
        let f = PeerFailure {
            rank: 2,
            epoch: 5,
            reason: ConvictionReason::DirtyClose,
        };
        assert_eq!(f.to_string(), "rank 2 (dirty_close, epoch 5)");
        assert_eq!(
            ConvictionReason::HeartbeatTimeout.name(),
            "heartbeat_timeout"
        );
    }
}

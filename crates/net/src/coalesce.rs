//! Per-destination parcel coalescing (paper §IV).
//!
//! Remote parcels are encoded into a per-destination buffer and shipped as
//! one [`FrameKind::Parcels`](crate::wire::FrameKind::Parcels) frame when
//! the buffer reaches the byte threshold, when its oldest parcel ages past
//! the flush interval, when the locality goes idle, or at shutdown.  The
//! thresholds come from the [`CoalesceConfig`] the simulator's network
//! model shares, so predicted and measured runs coalesce identically.
//!
//! The coalescer is pure bookkeeping — no sockets, no clock of its own —
//! which keeps it unit-testable; the transport's progress engine owns the
//! I/O and feeds it timestamps.

use dashmm_amt::{CoalesceConfig, Parcel};

use crate::metrics::FlushReason;
use crate::wire::{encode_parcel, parcel_wire_len, seal_parcels, PARCELS_AT};

/// One parcel buffer the coalescer decided to ship.  The transport finishes
/// it as a frame in place — stamping the reliability layer's sequence
/// number and piggybacked ack at transmission time, which is why the
/// coalescer emits sealed buffers rather than finished frames.
#[derive(Debug)]
pub struct Flush {
    /// Destination rank.
    pub dest: u32,
    /// [`PARCELS_AT`] bytes of frame room (its `epoch | count` tail
    /// stamped), then the encoded parcels.
    pub frame: Vec<u8>,
    /// Parcels inside.
    pub parcels: u32,
    /// What triggered the flush.
    pub reason: FlushReason,
}

struct DestBuf {
    /// Frame room, then the parcels encoded so far.
    frame: Vec<u8>,
    count: u32,
    first_ns: u64,
}

impl DestBuf {
    /// An empty buffer with room for `parcel_bytes` of encoded parcels.
    fn with_room(parcel_bytes: usize) -> Self {
        let mut frame = Vec::with_capacity(PARCELS_AT + parcel_bytes);
        frame.resize(PARCELS_AT, 0);
        DestBuf {
            frame,
            count: 0,
            first_ns: 0,
        }
    }

    fn encoded_len(&self) -> usize {
        self.frame.len() - PARCELS_AT
    }

    fn push(&mut self, parcel: &Parcel) {
        encode_parcel(parcel, &mut self.frame);
        self.count += 1;
    }

    fn seal(self, dest: u32, epoch: u32, reason: FlushReason) -> Flush {
        let mut frame = self.frame;
        seal_parcels(&mut frame, epoch, self.count);
        Flush {
            dest,
            frame,
            parcels: self.count,
            reason,
        }
    }
}

/// Per-destination coalescing buffers.
pub struct Coalescer {
    cfg: CoalesceConfig,
    epoch: u32,
    bufs: Vec<DestBuf>,
}

impl Coalescer {
    /// Buffers for `ranks` destinations, sending as `rank` (the sender
    /// identity is stamped by the transport's framing, not here).
    pub fn new(ranks: u32, _rank: u32, cfg: CoalesceConfig) -> Self {
        Coalescer {
            cfg,
            epoch: 0,
            bufs: (0..ranks).map(|_| DestBuf::with_room(0)).collect(),
        }
    }

    /// Stamp subsequent frames with a new run epoch.  Must only be called
    /// with all buffers empty (epochs never straddle a frame).
    pub fn set_epoch(&mut self, epoch: u32) {
        debug_assert!(self.is_empty(), "epoch change with parcels buffered");
        self.epoch = epoch;
    }

    /// Ship `dest`'s standing buffer; its successor starts with the
    /// capacity a full one needs, so steady-state pushes never regrow it.
    fn seal(&mut self, dest: u32, reason: FlushReason) -> Flush {
        let next = DestBuf::with_room(self.cfg.max_bytes);
        std::mem::replace(&mut self.bufs[dest as usize], next).seal(dest, self.epoch, reason)
    }

    /// Add one parcel bound for `dest`.  Returns the frames (0, 1 or 2)
    /// this push forces out: with coalescing disabled the parcel ships
    /// alone; otherwise a push that would overflow `max_bytes` first seals
    /// the standing buffer, and a parcel that alone reaches the threshold
    /// ships immediately.
    pub fn push(&mut self, dest: u32, parcel: &Parcel, now_ns: u64) -> Vec<Flush> {
        debug_assert_eq!(dest, parcel.target.locality);
        let mut out = Vec::new();
        let add = parcel_wire_len(parcel);
        if !self.cfg.enabled {
            let mut alone = DestBuf::with_room(add);
            alone.push(parcel);
            out.push(alone.seal(dest, self.epoch, FlushReason::Unbatched));
            return out;
        }
        let buf = &self.bufs[dest as usize];
        if buf.count > 0 && buf.encoded_len() + add > self.cfg.max_bytes {
            out.push(self.seal(dest, FlushReason::Size));
        }
        let buf = &mut self.bufs[dest as usize];
        if buf.count == 0 {
            buf.first_ns = now_ns;
        }
        buf.push(parcel);
        if buf.encoded_len() >= self.cfg.max_bytes {
            out.push(self.seal(dest, FlushReason::Size));
        }
        out
    }

    /// Seal every buffer whose oldest parcel is older than the flush
    /// interval, in destination order.
    pub fn flush_aged(&mut self, now_ns: u64) -> Vec<Flush> {
        let deadline = self.cfg.max_delay_us * 1_000;
        let due: Vec<u32> = (0..self.bufs.len() as u32)
            .filter(|&d| {
                let b = &self.bufs[d as usize];
                b.count > 0 && now_ns.saturating_sub(b.first_ns) >= deadline
            })
            .collect();
        due.into_iter()
            .map(|d| self.seal(d, FlushReason::Interval))
            .collect()
    }

    /// Seal every non-empty buffer (idle or shutdown drain), in
    /// destination order.
    pub fn flush_all(&mut self, reason: FlushReason) -> Vec<Flush> {
        let due: Vec<u32> = (0..self.bufs.len() as u32)
            .filter(|&d| self.bufs[d as usize].count > 0)
            .collect();
        due.into_iter().map(|d| self.seal(d, reason)).collect()
    }

    /// Whether every buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bufs.iter().all(|b| b.count == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::decode_parcels_body;
    use dashmm_amt::{ActionId, GlobalAddress};

    /// The `epoch | count | parcels` body inside a sealed buffer.
    fn body(f: &Flush) -> &[u8] {
        &f.frame[PARCELS_AT - 8..]
    }

    fn parcel(dest: u32, len: usize) -> Parcel {
        Parcel::new(ActionId(1), GlobalAddress::new(dest, 0), vec![0xAA; len])
    }

    fn cfg(max_bytes: usize) -> CoalesceConfig {
        CoalesceConfig {
            max_bytes,
            ..CoalesceConfig::default()
        }
    }

    #[test]
    fn small_parcels_accumulate_until_size_flush() {
        let mut c = Coalescer::new(2, 0, cfg(200));
        let mut flushes = Vec::new();
        for _ in 0..10 {
            flushes.extend(c.push(1, &parcel(1, 30), 0));
        }
        // 46 encoded bytes each: four fit under 200, the fifth overflows.
        assert!(!flushes.is_empty());
        let f = &flushes[0];
        assert_eq!(f.dest, 1);
        assert_eq!(f.reason, FlushReason::Size);
        assert!(f.parcels >= 2, "coalesced {} parcels", f.parcels);
        let (_, ps) = decode_parcels_body(body(f)).unwrap();
        assert_eq!(ps.len() as u32, f.parcels);
    }

    #[test]
    fn disabled_ships_every_parcel_alone() {
        let mut c = Coalescer::new(2, 0, CoalesceConfig::disabled());
        for _ in 0..3 {
            let fs = c.push(1, &parcel(1, 8), 0);
            assert_eq!(fs.len(), 1);
            assert_eq!(fs[0].parcels, 1);
            assert_eq!(fs[0].reason, FlushReason::Unbatched);
        }
        assert!(c.is_empty());
    }

    #[test]
    fn aged_buffers_flush_on_interval() {
        let mut c = Coalescer::new(3, 0, cfg(1 << 20));
        assert!(c.push(2, &parcel(2, 8), 1_000).is_empty());
        assert!(c.flush_aged(10_000).is_empty(), "not yet aged");
        let aged = c.flush_aged(1_000 + 200 * 1_000);
        assert_eq!(aged.len(), 1);
        assert_eq!(aged[0].reason, FlushReason::Interval);
        assert!(c.is_empty());
    }

    #[test]
    fn oversize_parcel_seals_standing_buffer_first() {
        let mut c = Coalescer::new(2, 0, cfg(100));
        assert!(c.push(1, &parcel(1, 10), 0).is_empty());
        // 200-byte payload exceeds max_bytes on its own: the 10-byte
        // buffer seals, then the big parcel ships alone.
        let fs = c.push(1, &parcel(1, 200), 0);
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0].parcels, 1);
        assert_eq!(fs[1].parcels, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn flushes_ship_in_destination_order() {
        // Buffers filled out of index order, some aged and some not: both
        // drains seal destinations in index order, whatever the push order.
        let mut c = Coalescer::new(5, 0, cfg(1 << 20));
        for (dest, at) in [(3, 0), (1, 5_000_000), (4, 0), (0, 0)] {
            assert!(c.push(dest, &parcel(dest, 16), at).is_empty());
        }
        let dests = |fs: &[Flush]| fs.iter().map(|f| f.dest).collect::<Vec<u32>>();
        let aged = c.flush_aged(1_000_000);
        assert_eq!(dests(&aged), vec![0, 3, 4], "aged buffers, index order");
        for dest in [4, 2] {
            c.push(dest, &parcel(dest, 16), 2_000_000);
        }
        assert_eq!(dests(&c.flush_all(FlushReason::Idle)), vec![1, 2, 4]);
        assert!(c.is_empty());
    }

    /// The frame the send path finishes in place is, byte for byte, the one
    /// the copying chain builds — and re-sealing it for a retransmission
    /// changes the piggybacked ack and the checksum, nothing else.
    #[test]
    fn frame_sealed_in_place_equals_the_copying_chain() {
        use crate::wire::{
            decode_frame_exact, decode_seq_parcels_body, encode_frame, parcels_body,
            seal_seq_parcels, seq_parcels_body, FrameKind,
        };
        let parcels: Vec<Parcel> = (0..5u8)
            .map(|i| {
                let mut p = parcel(1, 3 + 40 * i as usize);
                p.payload.iter_mut().for_each(|b| *b = i.wrapping_mul(37));
                p
            })
            .collect();
        for enabled in [true, false] {
            let mut c = Coalescer::new(
                2,
                0,
                if enabled {
                    cfg(1 << 20)
                } else {
                    CoalesceConfig::disabled()
                },
            );
            c.set_epoch(9);
            let mut flushes: Vec<Flush> = parcels.iter().flat_map(|p| c.push(1, p, 0)).collect();
            flushes.extend(c.flush_all(FlushReason::Idle));
            assert_eq!(flushes.len(), if enabled { 1 } else { parcels.len() });
            let mut next = parcels.iter();
            for (i, f) in flushes.into_iter().enumerate() {
                let mut encoded = Vec::new();
                for p in next.by_ref().take(f.parcels as usize) {
                    encode_parcel(p, &mut encoded);
                }
                let chain = |seq, ack| {
                    let inner = parcels_body(9, f.parcels, &encoded);
                    encode_frame(
                        FrameKind::SeqParcels,
                        7,
                        &seq_parcels_body(seq, ack, &inner),
                    )
                };
                let seq = 11 + i as u64;
                let mut frame = f.frame;
                seal_seq_parcels(&mut frame, 7, seq, 4);
                assert_eq!(frame, chain(seq, 4));
                // The retransmission: a newer ack patched in, re-checksummed.
                seal_seq_parcels(&mut frame, 7, seq, 6);
                assert_eq!(frame, chain(seq, 6));
                let decoded = decode_frame_exact(&frame).expect("CRC holds after the patch");
                let (s, a, inner) = decode_seq_parcels_body(&decoded.body).unwrap();
                assert_eq!((s, a), (seq, 6));
                assert_eq!(
                    decode_parcels_body(inner).unwrap().1.len() as u32,
                    f.parcels
                );
            }
        }
    }

    #[test]
    fn epoch_stamped_into_frames() {
        let mut c = Coalescer::new(2, 1, cfg(1 << 20));
        c.set_epoch(7);
        c.push(0, &parcel(0, 4), 0);
        let fs = c.flush_all(FlushReason::Shutdown);
        let (epoch, ps) = decode_parcels_body(body(&fs[0])).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(ps.len(), 1);
    }
}

//! Cross-process trace collection: per-rank encoding, clock alignment and
//! the merged multi-locality timeline.
//!
//! Each locality records its spans against its own monotonic clock,
//! rebased to the start of its run.  To merge, every rank also captures a
//! realtime anchor (`run_start_unix_ns`, taken at the same instant the
//! monotonic run clock starts — the same epoch the Hello/PortMap
//! rendezvous synchronised the processes on).  Rank 0 gathers the encoded
//! blobs with the transport's `gather` collective and shifts rank *r* by
//! `anchor_r − min(anchors)`: all ranks of a run share the host clock, so
//! this aligns the per-rank monotonic timelines onto one axis.

use crate::chrome::{chrome_trace_parts, ChromePart};
use crate::codec::{read_body, write_body, BodyError};
use crate::event::TraceEvent;
use crate::trace::TraceSet;

const MAGIC: u32 = 0x4f42_5354; // "OBST"
/// Bytes of one encoded event: class, tag, start and end.
const EVENT_BYTES: usize = 21;

/// One rank's recorded trace plus its clock anchor.
#[derive(Debug)]
pub struct RankTrace {
    /// Locality rank.
    pub rank: u32,
    /// Realtime clock at run start (ns since the unix epoch).
    pub anchor_unix_ns: u64,
    /// The recorded lanes.
    pub trace: TraceSet,
}

/// Encode one rank's trace for the gather collective: `magic | rank |
/// anchor | n_workers | n_lanes | (label | n_events | event*)*`.
pub fn encode_rank_trace(rank: u32, anchor_unix_ns: u64, trace: &TraceSet) -> Vec<u8> {
    let lanes: Vec<_> = trace.lanes().collect();
    write_body(64 + trace.len() * EVENT_BYTES, |w| {
        w.u32(MAGIC).u32(rank).u64(anchor_unix_ns);
        w.u32(trace.num_workers() as u32).u32(lanes.len() as u32);
        for (label, events) in lanes {
            w.u32(label.len() as u32).bytes(label.as_bytes());
            w.u32(events.len() as u32);
            for e in events {
                w.u8(e.class).u32(e.tag).u64(e.start_ns).u64(e.end_ns);
            }
        }
    })
}

/// Decode a blob produced by [`encode_rank_trace`].
pub fn decode_rank_trace(buf: &[u8]) -> Result<RankTrace, String> {
    read_body(buf, |c| {
        if c.u32()? != MAGIC {
            return Err(BodyError::Malformed);
        }
        let (rank, anchor_unix_ns) = (c.u32()?, c.u64()?);
        let mut trace = TraceSet::new(c.u32()? as usize);
        for _ in 0..c.u32()? {
            let len = c.u32()? as usize;
            let label = std::str::from_utf8(c.bytes(len)?).map_err(|_| BodyError::Malformed)?;
            let n_events = c.u32()? as usize;
            let events = c.records(n_events, usize::MAX, EVENT_BYTES, |e| {
                let (class, tag) = (e.u8()?, e.u32()?);
                Ok(TraceEvent::tagged(class, tag, e.u64()?, e.u64()?))
            })?;
            trace.push_lane(label, events);
        }
        Ok(RankTrace {
            rank,
            anchor_unix_ns,
            trace,
        })
    })
    .map_err(|e| format!("rank trace blob: {e:?}"))
}

/// Decode every rank's blob and compute the per-rank shift that puts all
/// timelines on the earliest rank's clock.
pub fn align_ranks(blobs: &[Vec<u8>]) -> Result<Vec<(RankTrace, u64)>, String> {
    let mut ranks: Vec<RankTrace> = blobs
        .iter()
        .map(|b| decode_rank_trace(b))
        .collect::<Result<_, _>>()?;
    ranks.sort_by_key(|r| r.rank);
    let base = ranks
        .iter()
        .map(|r| r.anchor_unix_ns)
        .min()
        .ok_or_else(|| "no ranks to merge".to_string())?;
    Ok(ranks
        .into_iter()
        .map(|r| {
            let shift = r.anchor_unix_ns - base;
            (r, shift)
        })
        .collect())
}

/// One clock-aligned Chrome trace for a gathered multi-process run.
pub fn merged_chrome_trace(blobs: &[Vec<u8>]) -> Result<String, String> {
    let aligned = align_ranks(blobs)?;
    let parts: Vec<ChromePart<'_>> = aligned
        .iter()
        .map(|(r, shift)| ChromePart {
            pid: r.rank,
            name: format!("locality {}", r.rank),
            shift_ns: *shift,
            trace: &r.trace,
        })
        .collect();
    Ok(chrome_trace_parts(&parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn rank_trace(rank: u32, anchor: u64, start: u64) -> Vec<u8> {
        let mut t = TraceSet::new(1);
        t.push_worker(vec![TraceEvent::span(0, start, start + 100)]);
        encode_rank_trace(rank, anchor, &t)
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut t = TraceSet::new(3);
        t.push_worker(vec![TraceEvent::tagged(4, 9, 10, 20)]);
        t.push_lane("net", vec![TraceEvent::instant(13, 15)]);
        let blob = encode_rank_trace(7, 123_456, &t);
        let back = decode_rank_trace(&blob).unwrap();
        assert_eq!(back.rank, 7);
        assert_eq!(back.anchor_unix_ns, 123_456);
        assert_eq!(back.trace.num_workers(), 3);
        let lanes: Vec<_> = back.trace.lanes().collect();
        assert_eq!(lanes[0].0, "w0");
        assert_eq!(lanes[1].0, "net");
        assert_eq!(lanes[0].1[0], TraceEvent::tagged(4, 9, 10, 20));
    }

    #[test]
    fn decode_rejects_corrupt_blobs() {
        assert!(decode_rank_trace(&[1, 2, 3]).is_err());
        let mut blob = rank_trace(0, 0, 0);
        blob.truncate(blob.len() - 3);
        assert!(decode_rank_trace(&blob).is_err());
    }

    #[test]
    fn merge_aligns_clocks() {
        // Rank 1 started its run 2 µs after rank 0 (later anchor): its
        // events shift right by 2000 ns in the merged timeline.
        let blobs = vec![rank_trace(0, 1_000_000, 0), rank_trace(1, 1_002_000, 0)];
        let aligned = align_ranks(&blobs).unwrap();
        assert_eq!(aligned[0].1, 0);
        assert_eq!(aligned[1].1, 2_000);
        let text = merged_chrome_trace(&blobs).unwrap();
        let v = parse(&text).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        let ts: Vec<(f64, f64)> = events
            .iter()
            .filter(|e| e.get("ph").unwrap().as_str() == Some("X"))
            .map(|e| {
                (
                    e.get("pid").unwrap().as_f64().unwrap(),
                    e.get("ts").unwrap().as_f64().unwrap(),
                )
            })
            .collect();
        assert_eq!(ts, vec![(0.0, 0.0), (1.0, 2.0)]);
    }
}

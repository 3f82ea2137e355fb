//! The versioned little-endian wire format.
//!
//! Everything crossing a socket is a length-prefixed **frame**:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "DNET" (0x444E4554, little endian on the wire)
//!      4     1  format version (1)
//!      5     1  frame kind
//!      6     2  source rank
//!      8     4  body length in bytes
//!     12     4  CRC-32 (IEEE) of the body
//!     16     …  body
//! ```
//!
//! Parcel-carrying frames ([`FrameKind::Parcels`]) hold a run epoch, a
//! parcel count, and that many encoded parcels:
//!
//! ```text
//! body:    epoch u32 | count u32 | parcel*
//! parcel:  action u32 | target u64 | payload_len u32 | payload
//! ```
//!
//! Decoding never panics: malformed input of any kind maps to a
//! [`WireError`].  Every body — and the frame header — is read and written
//! through `dashmm_obs::codec`, the one body codec of peer bytes, whose
//! errors become [`WireError::Truncated`], [`WireError::Oversize`] and
//! [`WireError::BadParcel`]; this module keeps the framing.  A frame's
//! integrity is protected end to end — a flipped bit anywhere in the
//! body fails the checksum, and a corrupted length field either exceeds
//! [`MAX_FRAME_BODY`] (rejected as [`WireError::Oversize`]) or misaligns
//! the magic of the following frame.

use std::fmt;
use std::io::Read;

use dashmm_amt::{ActionId, GlobalAddress, Parcel};
use dashmm_obs::codec::{read_body, write_body, BodyCursor, BodyError, BodyWriter};

pub use dashmm_amt::PARCEL_HEADER_BYTES;

/// Frame magic: "DNET" read as a little-endian `u32`.
pub const MAGIC: u32 = 0x444E_4554;
/// Wire-format version this build speaks.
pub const VERSION: u8 = 1;
/// Bytes in a frame header.
pub const HEADER_BYTES: usize = 16;
/// Upper bound on a frame body; larger lengths are treated as corruption
/// rather than honoured as allocations.
pub const MAX_FRAME_BODY: usize = 64 << 20;

/// What a frame carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Rendezvous/mesh handshake: `rank u32 | listen_port u16`.
    Hello = 1,
    /// Launcher → rank: `count u32 | port u16 × count`.
    PortMap = 2,
    /// Coalesced parcels (see module docs).
    Parcels = 3,
    /// Termination report to rank 0: `epoch u32 | seq u64 | sent u64 |
    /// recv u64` (see [`decode_status_body`]).
    Status = 4,
    /// Rank 0 → all: the epoch in the body (`epoch u32`) has quiesced
    /// globally.
    Done = 5,
    /// Barrier arrival at rank 0: `generation u32`.
    Barrier = 6,
    /// Rank 0 → all: barrier generation released: `generation u32`.
    BarrierRelease = 7,
    /// Gather contribution to rank 0: `generation u32 | len u32 | bytes`
    /// (see [`gather_body`]).
    Gather = 8,
    /// Orderly connection close.
    Bye = 9,
    /// Reliable coalesced parcels: `seq u64 | ack u64 | parcels-body`.
    /// `seq` numbers this sender→receiver parcel frame; `ack` piggybacks
    /// the cumulative highest in-order `seq` the sender has received on the
    /// reverse link.
    SeqParcels = 10,
    /// Standalone cumulative acknowledgement: `ack u64`.
    Ack = 11,
    /// Liveness beacon (empty body); absence beyond the suspicion timeout
    /// marks the peer down.
    Heartbeat = 12,
    /// Service query (client → server): `req_id u64 | tenant u32 |
    /// count u32 | (x, y, z) f64 × count` (see `service::encode_request`).
    EvalRequest = 13,
    /// Service reply (server → client): `req_id u64 | status u8 |
    /// (queue, fuse, compute, reply, total) f32 | count u32 |
    /// potential f64 × count` (see `service::encode_response`).
    EvalResponse = 14,
    /// Administrative shutdown of a resident evaluation server (empty
    /// body); the server finishes in-flight work and exits its run loop.
    Shutdown = 15,
    /// Incremental source update (client → server): `req_id u64 |
    /// tenant u32 | n_moves u32 | n_charges u32 | (idx u32, dx, dy, dz
    /// f64) × n_moves | (idx u32, q f64) × n_charges` (see
    /// `service::encode_step_request`).  Answered with an empty
    /// [`FrameKind::EvalResponse`] carrying the outcome status.
    StepSources = 16,
    /// Telemetry poll (client → server): `req_id u64` (see
    /// `service::encode_stats_request`).  Any client may poll a running
    /// server for its live stats snapshot.
    StatsRequest = 17,
    /// Telemetry snapshot (server → client): `req_id u64 | len u32 |
    /// snapshot JSON (UTF-8) × len` (see `service::encode_stats_response`).
    StatsResponse = 18,
    /// Progress-ledger gossip on the heartbeat path: a
    /// `dashmm_amt::LedgerSnapshot` in its own encoding (see
    /// `ledger::LedgerSnapshot::encode`).  Best-effort: a malformed body
    /// is dropped, never fatal.
    Ledger = 19,
}

impl FrameKind {
    fn from_u8(v: u8) -> Option<FrameKind> {
        Some(match v {
            1 => FrameKind::Hello,
            2 => FrameKind::PortMap,
            3 => FrameKind::Parcels,
            4 => FrameKind::Status,
            5 => FrameKind::Done,
            6 => FrameKind::Barrier,
            7 => FrameKind::BarrierRelease,
            8 => FrameKind::Gather,
            9 => FrameKind::Bye,
            10 => FrameKind::SeqParcels,
            11 => FrameKind::Ack,
            12 => FrameKind::Heartbeat,
            13 => FrameKind::EvalRequest,
            14 => FrameKind::EvalResponse,
            15 => FrameKind::Shutdown,
            16 => FrameKind::StepSources,
            17 => FrameKind::StatsRequest,
            18 => FrameKind::StatsResponse,
            19 => FrameKind::Ledger,
            _ => return None,
        })
    }
}

/// Decode failure.  Every variant is an error return, never a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The magic bytes are wrong — the stream is misaligned or foreign.
    BadMagic,
    /// A version this build does not speak.
    BadVersion(u8),
    /// Unknown frame kind.
    BadKind(u8),
    /// Body length exceeds [`MAX_FRAME_BODY`].
    Oversize(usize),
    /// Checksum mismatch.
    Corrupt,
    /// The input ends mid-structure (only a terminal condition for whole
    /// buffers; the streaming decoder just waits for more bytes).
    Truncated,
    /// A frame body's fields disagree with its length, or a parcel inside
    /// a `Parcels` body is malformed.
    BadParcel,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => write!(f, "frame body of {n} bytes exceeds limit"),
            WireError::Corrupt => write!(f, "frame checksum mismatch"),
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadParcel => write!(f, "malformed frame body"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<BodyError> for WireError {
    fn from(e: BodyError) -> Self {
        match e {
            BodyError::Truncated => WireError::Truncated,
            BodyError::Oversize(n) => WireError::Oversize(n),
            BodyError::Malformed => WireError::BadParcel,
        }
    }
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Frame kind.
    pub kind: FrameKind,
    /// Sending rank.
    pub src: u16,
    /// Frame body.
    pub body: Vec<u8>,
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding frame
/// bodies.  Implemented locally (the workspace builds offline) as
/// slicing-by-8: eight independent table lookups retire eight input bytes
/// per step of the dependency chain through `crc`, not one.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for i in 0..256 {
            t[0][i] = (0..8).fold(i as u32, |c, _| {
                (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg())
            });
        }
        // t[k][i]: the CRC of byte `i` followed by `k` zero bytes.
        for k in 1..8 {
            for i in 0..256 {
                t[k][i] = t[0][(t[k - 1][i] & 0xFF) as usize] ^ (t[k - 1][i] >> 8);
            }
        }
        t
    });
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ crc as u64;
        crc = (0..8).fold(0, |x, k| x ^ t[7 - k][(w >> (8 * k)) as usize & 0xFF]);
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Write the header of the frame held in `frame`, whose body already sits
/// behind [`HEADER_BYTES`] of reserved room: length and checksum are taken
/// over the body in place.
pub fn seal_frame(kind: FrameKind, src: u16, frame: &mut [u8]) {
    let (header, body) = frame.split_at_mut(HEADER_BYTES);
    assert!(
        body.len() <= MAX_FRAME_BODY,
        "frame body over the wire limit"
    );
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = VERSION;
    header[5] = kind as u8;
    header[6..8].copy_from_slice(&src.to_le_bytes());
    header[8..12].copy_from_slice(&(body.len() as u32).to_le_bytes());
    header[12..].copy_from_slice(&crc32(body).to_le_bytes());
}

/// Encode one frame (header + body) into a fresh buffer.
pub fn encode_frame(kind: FrameKind, src: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
    out.resize(HEADER_BYTES, 0);
    out.extend_from_slice(body);
    seal_frame(kind, src, &mut out);
    out
}

/// Validate the frame at the front of `buf` without copying it:
/// `Ok(Some((kind, src, body_len)))` once header, length and checksum hold
/// (the body follows the [`HEADER_BYTES`]), `Ok(None)` when `buf` is a valid
/// prefix that needs more bytes.  A declared length over `max_body` is
/// rejected the moment the header arrives — a peer advertising a huge frame
/// must fail the connection, not commit the receiver to buffering it.
fn peek_frame(buf: &[u8], max_body: usize) -> Result<Option<(FrameKind, u16, usize)>, WireError> {
    if buf.len() < HEADER_BYTES {
        // Reject garbage early even before a full header arrives.
        if !MAGIC.to_le_bytes().starts_with(&buf[..buf.len().min(4)]) {
            return Err(WireError::BadMagic);
        }
        return Ok(None);
    }
    let mut h = BodyCursor::new(buf);
    if h.u32()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = h.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = h.u8()?;
    let kind = FrameKind::from_u8(kind).ok_or(WireError::BadKind(kind))?;
    let (src, len, crc) = (h.u16()?, h.u32()? as usize, h.u32()?);
    if len > max_body.min(MAX_FRAME_BODY) {
        return Err(WireError::Oversize(len));
    }
    match h.bytes(len) {
        Err(_) => Ok(None),
        Ok(body) if crc32(body) != crc => Err(WireError::Corrupt),
        Ok(_) => Ok(Some((kind, src, len))),
    }
}

/// Decode one frame from the front of `buf`.  `Ok(Some((frame, consumed)))`
/// on success, `Ok(None)` when `buf` holds a valid prefix that needs more
/// bytes, `Err` on structural corruption.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
    Ok(peek_frame(buf, MAX_FRAME_BODY)?.map(|(kind, src, len)| {
        let body = buf[HEADER_BYTES..HEADER_BYTES + len].to_vec();
        (Frame { kind, src, body }, HEADER_BYTES + len)
    }))
}

/// Decode a complete buffer holding exactly one frame; trailing input or a
/// partial frame is an error (the strict form the property tests exercise).
pub fn decode_frame_exact(buf: &[u8]) -> Result<Frame, WireError> {
    match decode_frame(buf)? {
        Some((f, used)) if used == buf.len() => Ok(f),
        Some(_) => Err(WireError::BadMagic), // trailing bytes: misframed
        None => Err(WireError::Truncated),
    }
}

/// A frame's kind, source rank and body, the body still in the receive buffer.
pub type FrameRef<'a> = (FrameKind, u16, &'a [u8]);

/// Most bytes one [`FrameDecoder::read_from`] call takes off a stream.
const READ_CHUNK: usize = 256 * 1024;

/// Streaming frame decoder: feed arbitrary chunks, take whole frames out.
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    max_body: usize,
    poisoned: Option<WireError>,
    skip_corrupt: bool,
    corrupt_skipped: u64,
    oversize_rejected: u64,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// Empty decoder with the wire-format default body cap.
    pub fn new() -> Self {
        FrameDecoder::with_max_body(MAX_FRAME_BODY)
    }

    /// Empty decoder rejecting declared bodies over `max_body` bytes (the
    /// effective cap never exceeds [`MAX_FRAME_BODY`]).
    pub fn with_max_body(max_body: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            pos: 0,
            max_body: max_body.min(MAX_FRAME_BODY),
            poisoned: None,
            skip_corrupt: false,
            corrupt_skipped: 0,
            oversize_rejected: 0,
        }
    }

    /// Tolerate body-checksum failures by discarding the offending frame
    /// and resynchronising on the next header (possible because the length
    /// field still framed the stream).  This is how injected corruption
    /// degrades to a loss the retransmit layer repairs, instead of killing
    /// the connection.  Structural damage (bad magic/version/kind,
    /// oversize) remains fatal.
    pub fn set_skip_corrupt(&mut self, skip: bool) {
        self.skip_corrupt = skip;
    }

    /// Drop consumed bytes: free when all were (the common case, a peer
    /// writes whole frames), otherwise lazily, bounding the buffer.
    fn compact(&mut self) {
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }

    /// Append received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Read up to `READ_CHUNK` bytes from `r` straight into the buffer's
    /// spare capacity and return how many arrived; `Ok(0)` is end of stream.
    /// An error (`WouldBlock` included) surfaces only if no byte preceded it.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        self.compact();
        self.buf.reserve(READ_CHUNK);
        let before = self.buf.len();
        let res = r
            .by_ref()
            .take(READ_CHUNK as u64)
            .read_to_end(&mut self.buf);
        match self.buf.len() - before {
            0 => res,
            n => Ok(n),
        }
    }

    /// Take the next complete frame, `Ok(None)` when more bytes are needed.
    /// After an `Err` the decoder is poisoned and keeps returning the same
    /// error (TCP does not lose bytes, so misalignment means corruption,
    /// not loss) — except checksum failures under
    /// [`FrameDecoder::set_skip_corrupt`], which are skipped and counted.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        Ok(self.next_ref()?.map(|(kind, src, body)| Frame {
            kind,
            src,
            body: body.to_vec(),
        }))
    }

    /// [`FrameDecoder::next_frame`] without the copy: `(kind, src, body)`
    /// with the body borrowed from the receive buffer until the next call.
    pub fn next_ref(&mut self) -> Result<Option<FrameRef<'_>>, WireError> {
        if let Some(e) = self.poisoned {
            return Err(e);
        }
        loop {
            match peek_frame(&self.buf[self.pos..], self.max_body) {
                Ok(Some((kind, src, len))) => {
                    let at = self.pos + HEADER_BYTES;
                    self.pos = at + len;
                    return Ok(Some((kind, src, &self.buf[at..at + len])));
                }
                Ok(None) => return Ok(None),
                Err(WireError::Corrupt) if self.skip_corrupt => {
                    // The header (magic/version/kind/length) validated, so
                    // the frame's extent is trustworthy: hop over it.
                    let len = BodyCursor::new(&self.buf[self.pos + 8..]).u32()?;
                    self.pos += HEADER_BYTES + len as usize;
                    self.corrupt_skipped += 1;
                }
                Err(e) => {
                    if matches!(e, WireError::Oversize(_)) {
                        self.oversize_rejected += 1;
                    }
                    self.poisoned = Some(e);
                    return Err(e);
                }
            }
        }
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checksum-failed frames discarded under corrupt-skip.
    pub fn corrupt_skipped(&self) -> u64 {
        self.corrupt_skipped
    }

    /// Frames rejected for declaring a body over the configured cap.
    pub fn oversize_rejected(&self) -> u64 {
        self.oversize_rejected
    }
}

/// Encoded size of one parcel.
pub fn parcel_wire_len(p: &Parcel) -> usize {
    PARCEL_HEADER_BYTES + p.payload.len()
}

/// Append one encoded parcel.
pub fn encode_parcel(p: &Parcel, out: &mut Vec<u8>) {
    out.reserve(parcel_wire_len(p));
    BodyWriter(out)
        .u32(p.action.0)
        .u64(p.target.pack())
        .u32(p.payload.len() as u32)
        .bytes(&p.payload);
}

/// Take one parcel off `c`.
fn take_parcel(c: &mut BodyCursor) -> Result<Parcel, BodyError> {
    let action = ActionId(c.u32()?);
    let target = GlobalAddress::unpack(c.u64()?);
    let len = c.u32()? as usize;
    Ok(Parcel::new(action, target, c.bytes(len)?.to_vec()))
}

/// Decode one parcel from the front of `buf`; returns it plus the bytes
/// consumed.
pub fn decode_parcel(buf: &[u8]) -> Result<(Parcel, usize), WireError> {
    let p = take_parcel(&mut BodyCursor::new(buf))?;
    let used = parcel_wire_len(&p);
    Ok((p, used))
}

/// Build a [`FrameKind::Parcels`] body around already-encoded parcels.
pub fn parcels_body(epoch: u32, count: u32, encoded: &[u8]) -> Vec<u8> {
    write_body(8 + encoded.len(), |w| {
        w.u32(epoch).u32(count).bytes(encoded);
    })
}

/// Decode a [`FrameKind::Parcels`] body into its epoch and parcels.
pub fn decode_parcels_body(body: &[u8]) -> Result<(u32, Vec<Parcel>), WireError> {
    read_body(body, |c| {
        let (epoch, count) = (c.u32()?, c.u32()? as usize);
        let mut parcels = Vec::with_capacity(count.min(body.len() / PARCEL_HEADER_BYTES));
        for _ in 0..count {
            parcels.push(take_parcel(c)?);
        }
        Ok((epoch, parcels))
    })
}

/// Bytes prefixed to a [`FrameKind::SeqParcels`] body ahead of the inner
/// parcels body: `seq u64 | ack u64`.
pub const SEQ_HEADER_BYTES: usize = 16;

/// Build a [`FrameKind::SeqParcels`] body: sequence number, piggybacked
/// cumulative ack, then an ordinary parcels body.  The copying form of
/// [`seal_seq_parcels`], kept as its oracle.
#[cfg(test)]
pub(crate) fn seq_parcels_body(seq: u64, ack: u64, parcels: &[u8]) -> Vec<u8> {
    write_body(SEQ_HEADER_BYTES + parcels.len(), |w| {
        w.u64(seq).u64(ack).bytes(parcels);
    })
}

/// Split a [`FrameKind::SeqParcels`] body into `(seq, ack, parcels body)`.
pub fn decode_seq_parcels_body(body: &[u8]) -> Result<(u64, u64, &[u8]), WireError> {
    read_body(body, |c| Ok((c.u64()?, c.u64()?, c.rest())))
}

/// Room a parcel frame built in place keeps ahead of its first parcel: the
/// frame header, `seq | ack`, then `epoch | count`.  Parcels are encoded
/// behind it, so sealing, sequencing and checksumming never move them.
pub const PARCELS_AT: usize = HEADER_BYTES + SEQ_HEADER_BYTES + 8;

/// A finished frame: one allocation for write queue and retransmit queue.
pub type SharedFrame = std::sync::Arc<Vec<u8>>;

/// Stamp `epoch | count` into the room just ahead of [`PARCELS_AT`].
pub fn seal_parcels(frame: &mut [u8], epoch: u32, count: u32) {
    frame[PARCELS_AT - 8..PARCELS_AT - 4].copy_from_slice(&epoch.to_le_bytes());
    frame[PARCELS_AT - 4..PARCELS_AT].copy_from_slice(&count.to_le_bytes());
}

/// Finish a sealed parcel buffer as a [`FrameKind::SeqParcels`] frame in
/// place: stamp `seq | ack`, then the header over the body as it lies.  A
/// retransmission repeats it with a fresher ack: a patch and a re-checksum.
pub fn seal_seq_parcels(frame: &mut [u8], src: u16, seq: u64, ack: u64) {
    frame[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&seq.to_le_bytes());
    frame[HEADER_BYTES + 8..HEADER_BYTES + 16].copy_from_slice(&ack.to_le_bytes());
    seal_frame(FrameKind::SeqParcels, src, frame);
}

/// Build a [`FrameKind::Ack`] body.
pub fn ack_body(ack: u64) -> Vec<u8> {
    write_body(8, |w| {
        w.u64(ack);
    })
}

/// Decode a [`FrameKind::Ack`] body (exactly eight bytes).
pub fn decode_ack_body(body: &[u8]) -> Result<u64, WireError> {
    Ok(read_body(body, BodyCursor::u64)?)
}

/// Build the `epoch u32` / `generation u32` body of a [`FrameKind::Done`],
/// [`FrameKind::Barrier`] or [`FrameKind::BarrierRelease`] frame.
pub fn u32_body(v: u32) -> Vec<u8> {
    write_body(4, |w| {
        w.u32(v);
    })
}

/// Decode the `epoch u32` / `generation u32` body of a [`FrameKind::Done`],
/// [`FrameKind::Barrier`] or [`FrameKind::BarrierRelease`] frame.
pub fn decode_u32_body(body: &[u8]) -> Result<u32, WireError> {
    Ok(read_body(body, BodyCursor::u32)?)
}

/// Build a [`FrameKind::Status`] body.
pub fn status_body(epoch: u32, seq: u64, sent: u64, recv: u64) -> Vec<u8> {
    write_body(28, |w| {
        w.u32(epoch).u64(seq).u64(sent).u64(recv);
    })
}

/// Decode a [`FrameKind::Status`] body into `(epoch, seq, sent, recv)`.
pub fn decode_status_body(body: &[u8]) -> Result<(u32, u64, u64, u64), WireError> {
    read_body(body, |c| Ok((c.u32()?, c.u64()?, c.u64()?, c.u64()?)))
}

/// Build a [`FrameKind::Gather`] body around one rank's contribution.
pub fn gather_body(generation: u32, part: &[u8]) -> Vec<u8> {
    write_body(8 + part.len(), |w| {
        w.u32(generation).u32(part.len() as u32).bytes(part);
    })
}

/// Decode a [`FrameKind::Gather`] body into `(generation, part)`; the
/// declared length must match the bytes that follow it exactly.
pub fn decode_gather_body(body: &[u8]) -> Result<(u32, &[u8]), WireError> {
    read_body(body, |c| {
        let (generation, len) = (c.u32()?, c.u32()? as usize);
        Ok((generation, c.bytes(len)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parcel(payload: Vec<u8>) -> Parcel {
        Parcel::new(ActionId(7), GlobalAddress::new(3, 41), payload)
    }

    /// The textbook one-table, one-byte-per-step CRC-32: the oracle the
    /// sliced implementation must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// A buffer holding `len` pseudo-random bytes from the returned offset
    /// on, the first of them at an address ≡ `align` (mod 8).
    fn aligned_bytes(seed: u64, align: usize, len: usize) -> (Vec<u8>, usize) {
        let mut x = seed | 1;
        let buf: Vec<u8> = (0..len + 8)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect();
        let off = (align + 8 - buf.as_ptr() as usize % 8) % 8;
        (buf, off)
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_sliced_matches_bytewise_at_every_short_length_and_alignment() {
        for len in 0..=70 {
            for align in 0..8 {
                let (buf, off) = aligned_bytes((len * 8 + align) as u64, align, len);
                let b = &buf[off..off + len];
                assert_eq!(crc32(b), crc32_bytewise(b), "len {len} align {align}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        #[test]
        fn crc32_sliced_matches_bytewise_up_to_a_mebibyte(
            seed in proptest::prelude::any::<u64>(),
            align in 0usize..8,
            len in 0usize..=(1 << 20),
        ) {
            let (buf, off) = aligned_bytes(seed, align, len);
            let b = &buf[off..off + len];
            proptest::prop_assert_eq!(crc32(b), crc32_bytewise(b));
        }
    }

    #[test]
    fn frame_roundtrip() {
        let buf = encode_frame(FrameKind::Status, 5, &[1, 2, 3]);
        let f = decode_frame_exact(&buf).unwrap();
        assert_eq!(f.kind, FrameKind::Status);
        assert_eq!(f.src, 5);
        assert_eq!(f.body, vec![1, 2, 3]);
    }

    #[test]
    fn corrupt_body_detected() {
        let mut buf = encode_frame(FrameKind::Parcels, 0, &[9; 32]);
        buf[HEADER_BYTES + 7] ^= 0x10;
        assert_eq!(decode_frame_exact(&buf), Err(WireError::Corrupt));
    }

    #[test]
    fn bad_magic_version_kind() {
        let good = encode_frame(FrameKind::Done, 0, &[0, 0, 0, 0]);
        let mut b = good.clone();
        b[0] ^= 1;
        assert_eq!(decode_frame_exact(&b), Err(WireError::BadMagic));
        let mut b = good.clone();
        b[4] = 9;
        assert_eq!(decode_frame_exact(&b), Err(WireError::BadVersion(9)));
        let mut b = good.clone();
        b[5] = 200;
        assert_eq!(decode_frame_exact(&b), Err(WireError::BadKind(200)));
    }

    #[test]
    fn oversize_length_rejected_not_allocated() {
        let mut buf = encode_frame(FrameKind::Parcels, 0, &[]);
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame_exact(&buf),
            Err(WireError::Oversize(_))
        ));
    }

    #[test]
    fn parcel_roundtrip() {
        let p = parcel(vec![1, 2, 3, 4, 5]);
        let mut buf = Vec::new();
        encode_parcel(&p, &mut buf);
        assert_eq!(buf.len(), parcel_wire_len(&p));
        assert_eq!(buf.len() as u64, p.wire_bytes());
        let (q, used) = decode_parcel(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(q.action, p.action);
        assert_eq!(q.target, p.target);
        assert_eq!(q.payload, p.payload);
    }

    #[test]
    fn parcels_body_roundtrip() {
        let ps = [parcel(vec![1; 9]), parcel(vec![]), parcel(vec![7; 100])];
        let mut blob = Vec::new();
        for p in &ps {
            encode_parcel(p, &mut blob);
        }
        let body = parcels_body(42, ps.len() as u32, &blob);
        let (epoch, out) = decode_parcels_body(&body).unwrap();
        assert_eq!(epoch, 42);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].payload, vec![1; 9]);
        assert_eq!(out[2].payload.len(), 100);
    }

    #[test]
    fn parcels_body_trailing_bytes_rejected() {
        let body = parcels_body(1, 0, &[0xAB]);
        assert_eq!(
            decode_parcels_body(&body).unwrap_err(),
            WireError::BadParcel
        );
    }

    #[test]
    fn streaming_decoder_reassembles_split_frames() {
        let a = encode_frame(FrameKind::Status, 1, &[1; 40]);
        let b = encode_frame(FrameKind::Done, 1, &[2; 4]);
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            dec.push(chunk);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].kind, FrameKind::Status);
        assert_eq!(got[1].kind, FrameKind::Done);
        assert_eq!(dec.pending_bytes(), 0);
    }

    /// A non-blocking stream in miniature: would-block, then at most seven
    /// bytes, then would-block again…, and end of stream once drained.
    struct Trickle<'a>(&'a [u8], bool);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = !self.1;
            if self.1 && !self.0.is_empty() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = self.0.len().min(7).min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn read_from_takes_what_is_there_and_borrowed_frames_match_owned_ones() {
        let mut stream = encode_frame(FrameKind::Status, 1, &[1; 40]);
        stream.extend_from_slice(&encode_frame(FrameKind::Done, 2, &[2; 4]));
        let mut src = Trickle(&stream, false);
        let mut dec = FrameDecoder::new();
        let mut owned = FrameDecoder::new();
        owned.push(&stream);
        let (mut got, mut dry) = (0, 0);
        loop {
            match dec.read_from(&mut src) {
                Ok(0) => break,
                Ok(n) => assert!(n <= 7, "one short read per call"),
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock);
                    dry += 1;
                }
            }
            while let Some((kind, from, body)) = dec.next_ref().unwrap() {
                let want = owned.next_frame().unwrap().unwrap();
                assert_eq!((kind, from, body), (want.kind, want.src, &want.body[..]));
                got += 1;
            }
        }
        assert_eq!(got, 2);
        assert!(dry > 0, "a dry stream reports would-block");
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn streaming_decoder_flags_garbage() {
        let mut dec = FrameDecoder::new();
        dec.push(&[0xFF, 0xFF, 0xFF]);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn hostile_declared_length_rejected_at_header() {
        // A header declaring a body far over the configured cap must fail
        // the moment the 16 header bytes arrive — no buffering of the
        // claimed payload, no waiting for bytes that may never come.
        let mut dec = FrameDecoder::with_max_body(1024);
        let mut hostile = encode_frame(FrameKind::Parcels, 0, &[]);
        hostile[8..12].copy_from_slice(&(8u32 << 20).to_le_bytes());
        dec.push(&hostile[..HEADER_BYTES]);
        assert!(matches!(dec.next_frame(), Err(WireError::Oversize(_))));
        assert_eq!(dec.oversize_rejected(), 1);
        // Poisoned: the connection is dead, every further poll fails.
        dec.push(&[0u8; 64]);
        assert!(matches!(dec.next_frame(), Err(WireError::Oversize(_))));
        assert_eq!(dec.oversize_rejected(), 1);
    }

    #[test]
    fn decoder_cap_admits_frames_under_it() {
        let mut dec = FrameDecoder::with_max_body(1024);
        dec.push(&encode_frame(FrameKind::Status, 2, &[7; 512]));
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.body.len(), 512);
        assert_eq!(dec.oversize_rejected(), 0);
    }

    #[test]
    fn corrupt_skip_resynchronises_on_next_frame() {
        let mut bad = encode_frame(FrameKind::SeqParcels, 0, &[5; 64]);
        bad[HEADER_BYTES + 10] ^= 0x40; // body bit-flip; header intact
        let good = encode_frame(FrameKind::Status, 0, &[1, 2, 3]);
        let mut dec = FrameDecoder::new();
        dec.set_skip_corrupt(true);
        dec.push(&bad);
        dec.push(&good);
        let f = dec.next_frame().unwrap().unwrap();
        assert_eq!(f.kind, FrameKind::Status);
        assert_eq!(dec.corrupt_skipped(), 1);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn corrupt_without_skip_stays_fatal() {
        let mut bad = encode_frame(FrameKind::SeqParcels, 0, &[5; 64]);
        bad[HEADER_BYTES + 10] ^= 0x40;
        let mut dec = FrameDecoder::new();
        dec.push(&bad);
        assert_eq!(dec.next_frame(), Err(WireError::Corrupt));
    }

    #[test]
    fn service_frame_kinds_roundtrip() {
        for kind in [
            FrameKind::EvalRequest,
            FrameKind::EvalResponse,
            FrameKind::Shutdown,
            FrameKind::StatsRequest,
            FrameKind::StatsResponse,
        ] {
            let buf = encode_frame(kind, 3, &[1, 2, 3, 4]);
            let f = decode_frame_exact(&buf).unwrap();
            assert_eq!(f.kind, kind);
        }
    }

    #[test]
    fn seq_parcels_body_roundtrip() {
        let inner = parcels_body(3, 0, &[]);
        let body = seq_parcels_body(42, 17, &inner);
        let (seq, ack, rest) = decode_seq_parcels_body(&body).unwrap();
        assert_eq!((seq, ack), (42, 17));
        assert_eq!(rest, &inner[..]);
        assert_eq!(
            decode_seq_parcels_body(&body[..8]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn ack_body_roundtrip() {
        assert_eq!(decode_ack_body(&ack_body(u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode_ack_body(&[1, 2]), Err(WireError::Truncated));
    }

    #[test]
    fn fixed_size_bodies_are_exact() {
        // Every fixed-size body: one byte short is `Truncated`, one byte
        // long is `BadParcel`.
        use crate::service::{decode_stats_request, encode_stats_request};
        type Decode = fn(&[u8]) -> Result<(), WireError>;
        let rows: [(&str, Vec<u8>, Decode); 4] = [
            ("Ack", ack_body(7), |b| decode_ack_body(b).map(drop)),
            (
                "Done/Barrier/BarrierRelease",
                7u32.to_le_bytes().to_vec(),
                |b| decode_u32_body(b).map(drop),
            ),
            ("Status", status_body(1, 2, 3, 4), |b| {
                decode_status_body(b).map(drop)
            }),
            ("StatsRequest", encode_stats_request(9), |b| {
                decode_stats_request(b).map(drop)
            }),
        ];
        for (name, body, decode) in rows {
            assert_eq!(decode(&body), Ok(()), "{name}");
            let short = &body[..body.len() - 1];
            assert_eq!(decode(short), Err(WireError::Truncated), "{name} short");
            let mut long = body;
            long.push(0);
            assert_eq!(decode(&long), Err(WireError::BadParcel), "{name} long");
        }
    }

    #[test]
    fn coordination_bodies_roundtrip() {
        assert_eq!(decode_u32_body(&7u32.to_le_bytes()), Ok(7));
        assert_eq!(
            decode_status_body(&status_body(3, 9, 100, 99)),
            Ok((3, 9, 100, 99))
        );
        assert_eq!(
            decode_gather_body(&gather_body(5, &[1, 2, 3])),
            Ok((5, &[1u8, 2, 3][..]))
        );
        assert_eq!(decode_gather_body(&gather_body(6, &[])), Ok((6, &[][..])));
    }

    #[test]
    fn hostile_coordination_bodies_are_errors_not_panics() {
        // Empty and truncated bodies.
        for len in 0..4 {
            assert_eq!(decode_u32_body(&[0; 4][..len]), Err(WireError::Truncated));
        }
        let status = status_body(1, 2, 3, 4);
        for len in 0..status.len() {
            assert_eq!(
                decode_status_body(&status[..len]),
                Err(WireError::Truncated)
            );
        }
        let gather = gather_body(1, &[9; 5]);
        for len in 0..gather.len() {
            assert_eq!(
                decode_gather_body(&gather[..len]),
                Err(WireError::Truncated),
                "cut at {len}"
            );
        }
        // Overlong bodies: bytes past the fields.
        assert_eq!(decode_u32_body(&[0; 5]), Err(WireError::BadParcel));
        let mut long = status.clone();
        long.push(0);
        assert_eq!(decode_status_body(&long), Err(WireError::BadParcel));
        let mut long = gather.clone();
        long.push(0);
        assert_eq!(decode_gather_body(&long), Err(WireError::BadParcel));
        // A declared length that overruns the body, up to u32::MAX.
        for declared in [6u32, 1 << 20, u32::MAX] {
            let mut b = gather.clone();
            b[4..8].copy_from_slice(&declared.to_le_bytes());
            assert_eq!(decode_gather_body(&b), Err(WireError::Truncated));
        }
    }
}

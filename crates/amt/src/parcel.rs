//! Parcels: the active messages of the runtime.

use crate::addr::GlobalAddress;

/// Identifier of an action registered with the runtime before execution.
/// Parcels carry action ids rather than function pointers so that a parcel
/// is, in principle, serialisable — the discipline that keeps the runtime's
/// shared-memory and distributed semantics identical (paper §III).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ActionId(pub u32);

/// Bytes of a parcel's fixed header on the wire: action `u32`, target
/// `u64`, payload length `u32`.  The socket codec writes exactly this
/// header, so [`Parcel::wire_bytes`] counts what a socket carries.
pub const PARCEL_HEADER_BYTES: usize = 16;

/// An active message: an action to perform at a global address, with
/// argument data.
#[derive(Clone, Debug)]
pub struct Parcel {
    /// Registered action to invoke.
    pub action: ActionId,
    /// Address the action operates on; its locality is where the parcel is
    /// delivered and the lightweight thread spawned.
    pub target: GlobalAddress,
    /// Argument bytes.
    pub payload: Vec<u8>,
}

impl Parcel {
    /// Construct a parcel.
    pub fn new(action: ActionId, target: GlobalAddress, payload: Vec<u8>) -> Self {
        Parcel {
            action,
            target,
            payload,
        }
    }

    /// Total bytes on the wire (header + payload), the quantity the
    /// network statistics count.
    pub fn wire_bytes(&self) -> u64 {
        (PARCEL_HEADER_BYTES + self.payload.len()) as u64
    }
}

/// Append `f64` values to a byte buffer (little endian): one growth, then
/// one pass the compiler turns into a bulk copy on little-endian targets.
pub fn encode_f64s(values: &[f64], out: &mut Vec<u8>) {
    let start = out.len();
    out.resize(start + values.len() * 8, 0);
    for (c, v) in out[start..].chunks_exact_mut(8).zip(values) {
        c.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian `f64`s from `bytes` off a wire into `out`; `false`,
/// with `out` untouched, unless `bytes` is exactly `out.len()` values long.
#[must_use]
pub fn decode_f64s_into(bytes: &[u8], out: &mut [f64]) -> bool {
    if bytes.len() != std::mem::size_of_val(out) {
        return false;
    }
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *v = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
    true
}

/// Decode a byte slice as little-endian `f64`s.  Panics when the length is
/// not a multiple of 8 — for the runtime's own parcels, whose framing is
/// the sender's responsibility.
pub fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    assert_eq!(bytes.len() % 8, 0, "payload is not a whole number of f64s");
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_roundtrip() {
        let vals = [0.0, -1.5, std::f64::consts::PI, f64::MAX, f64::MIN_POSITIVE];
        let mut buf = Vec::new();
        encode_f64s(&vals, &mut buf);
        assert_eq!(buf.len(), 40);
        assert_eq!(decode_f64s(&buf), vals);
    }

    #[test]
    #[should_panic]
    fn ragged_payload_rejected() {
        let _ = decode_f64s(&[1, 2, 3]);
    }

    #[test]
    fn decode_into_checks_the_length_and_leaves_out_alone() {
        let mut buf = Vec::new();
        encode_f64s(&[1.5, -2.0], &mut buf);
        let mut out = [9.0; 2];
        assert!(!decode_f64s_into(&buf[..15], &mut out));
        assert!(!decode_f64s_into(&buf, &mut out[..1]));
        assert_eq!(out, [9.0; 2]);
        assert!(decode_f64s_into(&buf, &mut out));
        assert_eq!(out, [1.5, -2.0]);
        assert!(decode_f64s_into(&[], &mut []));
    }

    #[test]
    fn wire_bytes_include_header() {
        let p = Parcel::new(ActionId(1), GlobalAddress::new(0, 0), vec![0; 24]);
        assert_eq!(p.wire_bytes(), 40);
    }
}

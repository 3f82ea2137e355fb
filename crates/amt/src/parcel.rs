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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_include_header() {
        let p = Parcel::new(ActionId(1), GlobalAddress::new(0, 0), vec![0; 24]);
        assert_eq!(p.wire_bytes(), 40);
    }
}

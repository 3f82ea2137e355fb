//! Global addresses.

/// A global address: which locality owns the object and its slot there.
///
/// Mirrors HPX-5's global address space at the granularity this workspace
/// needs: LCOs are registered into per-locality slabs and
/// addressed uniformly from anywhere; the runtime routes operations on
/// non-local addresses through parcels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalAddress {
    /// Owning locality.
    pub locality: u32,
    /// Slot within the owning locality's object table.
    pub index: u32,
}

impl GlobalAddress {
    /// Construct an address.
    pub const fn new(locality: u32, index: u32) -> Self {
        GlobalAddress { locality, index }
    }

    /// Pack into a `u64` (for embedding in parcel payloads).
    pub fn pack(&self) -> u64 {
        ((self.locality as u64) << 32) | self.index as u64
    }

    /// Unpack from a `u64`.
    pub fn unpack(v: u64) -> Self {
        GlobalAddress {
            locality: (v >> 32) as u32,
            index: v as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        for a in [
            GlobalAddress::new(0, 0),
            GlobalAddress::new(3, 17),
            GlobalAddress::new(u32::MAX, u32::MAX),
        ] {
            assert_eq!(GlobalAddress::unpack(a.pack()), a);
        }
    }

    #[test]
    fn ordering_by_locality_then_index() {
        assert!(GlobalAddress::new(0, 5) < GlobalAddress::new(1, 0));
        assert!(GlobalAddress::new(1, 0) < GlobalAddress::new(1, 1));
    }
}

//! What a run lets an observer see.
//!
//! `api.rs` calls the program through a [`Probe`].  The end-to-end binary
//! passes [`NoProbe`], which compiles to nothing.  The traced binary passes
//! a recorder that opens a span around each call and reads per-layer
//! figures off the values the program returns.  `api.rs` hands those values
//! over without naming their types, so the end-to-end binary depends on no
//! more of the program than it measures.

use crate::trace::Guard;

pub trait Probe: Sync {
    /// Open a span around a call into the program.
    fn enter(&self, _name: &'static str, _op_id: u64) -> Option<Guard<'_>> {
        None
    }

    /// A value the program returned from the call of operation `op_id`.
    fn saw<T: 'static>(&self, _value: &T, _op_id: u64) {}

    /// A builder on its way into the program; may switch on counters.
    fn tune<T: 'static>(&self, builder: T) -> T {
        builder
    }

    /// Per-layer figures gathered so far, by metric name.
    fn layers(&self) -> Vec<(String, f64)> {
        Vec::new()
    }
}

/// The probe of an untraced run.
pub struct NoProbe;

impl Probe for NoProbe {}

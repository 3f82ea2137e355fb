//! Pluggable inter-locality transport.
//!
//! The runtime routes every parcel whose target locality is not hosted by
//! this process through a [`Transport`].  Two implementations exist:
//!
//! * [`SharedMem`] (here) — every locality lives in this process as a
//!   thread group; "remote" sends never reach the transport.  This is the
//!   historical single-process behaviour and the default.
//! * `SocketTransport` (crate `dashmm-net`) — each locality is an OS
//!   process; parcels cross real sockets in a versioned wire format with
//!   per-destination coalescing, the configuration the paper actually
//!   benchmarks (§III, §VI).
//!
//! The trait is deliberately narrow: the runtime only needs to know which
//! localities are local, how to hand a parcel to the wire, and when the
//! *distributed* computation has quiesced.  Everything else (framing,
//! coalescing, progress threads, rendezvous) stays behind the trait.

use std::sync::Arc;

use dashmm_obs::TraceEvent;

use crate::ledger::{ConvictionReason, PeerFailure, ProgressLedger};
use crate::parcel::Parcel;

/// Coalescing parameters shared verbatim by the real transport
/// (`dashmm-net`'s per-destination coalescer) and the simulator's
/// `NetworkModel` — one struct so measured runs and simulated predictions
/// are parameterised identically (the paper's coalescing ablation, §IV).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CoalesceConfig {
    /// Coalesce remote parcels per destination locality; `false` sends one
    /// frame per parcel (the ablation configuration).
    pub enabled: bool,
    /// Flush a destination buffer once its encoded parcels reach this many
    /// bytes.
    pub max_bytes: usize,
    /// Flush a destination buffer once its oldest parcel has waited this
    /// long, even if under `max_bytes`.
    pub max_delay_us: u64,
    /// Backpressure bound: a sender blocks once this many bytes are queued
    /// toward peers and not yet written, so a slow peer cannot OOM it.
    pub max_queue_bytes: usize,
}

impl Default for CoalesceConfig {
    fn default() -> Self {
        CoalesceConfig {
            enabled: true,
            max_bytes: 16 * 1024,
            max_delay_us: 200,
            max_queue_bytes: 4 << 20,
        }
    }
}

impl CoalesceConfig {
    /// The ablation configuration: one frame per parcel.
    pub fn disabled() -> Self {
        CoalesceConfig {
            enabled: false,
            ..CoalesceConfig::default()
        }
    }
}

/// Cumulative transport-level counters (monotone over the transport's
/// lifetime; callers difference two snapshots to scope a run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Parcels handed to the wire.
    pub parcels_sent: u64,
    /// Payload-carrying bytes sent (frame headers included).
    pub bytes_sent: u64,
    /// Frames sent (coalescing makes this ≤ `parcels_sent`).
    pub frames_sent: u64,
    /// Parcels delivered into the local scheduler from the wire.
    pub parcels_received: u64,
    /// Bytes received in parcel-carrying frames.
    pub bytes_received: u64,
}

/// Callbacks the runtime installs into a transport at construction.
///
/// The transport's progress machinery must not hold a strong reference to
/// the runtime (the runtime owns the transport), so these closures
/// typically capture a `Weak`.
pub struct TransportHooks {
    /// Deliver one inbound parcel into the local scheduler.  Bumps the
    /// runtime's pending-task counter, so quiescence accounting holds.
    pub deliver: Box<dyn Fn(Parcel) + Send + Sync>,
    /// Exact local-idle probe: `true` iff no local task is queued or
    /// executing *at the instant of the call*.  Used by distributed
    /// termination detection; staleness here would terminate runs early.
    pub locally_idle: Box<dyn Fn() -> bool + Send + Sync>,
    /// Nanoseconds since the runtime epoch — the timebase trace events
    /// share with worker-side spans.
    pub now_ns: Box<dyn Fn() -> u64 + Send + Sync>,
}

/// Inter-locality parcel transport.
pub trait Transport: Send + Sync {
    /// Total localities across all participating processes.
    fn num_ranks(&self) -> u32;

    /// The locality this process hosts (transports hosting every locality
    /// report 0).
    fn rank(&self) -> u32;

    /// Whether `locality` is hosted by this process.
    fn is_local(&self, locality: u32) -> bool;

    /// Install the runtime callbacks.  Called exactly once, before any
    /// send or poll.
    fn attach(&self, hooks: TransportHooks);

    /// Mark the start of one `Runtime::run` (a new run epoch).  Parcels
    /// that arrived early for this epoch are delivered here.
    fn begin_run(&self);

    /// Queue one parcel toward a remote locality.  May block on
    /// backpressure ([`CoalesceConfig::max_queue_bytes`]).
    fn send(&self, parcel: Parcel);

    /// Poll for global quiescence.  `locally_idle` is the caller's
    /// pending-count probe at the time of the call; a distributed
    /// transport combines it with peer state, the shared-memory transport
    /// returns it unchanged.  `true` ends the run.
    fn poll_quiescence(&self, locally_idle: bool) -> bool;

    /// Counter snapshot.
    fn stats(&self) -> TransportStats;

    /// Drain transport-side trace events (communication spans on the
    /// runtime timebase).  Default: none.
    fn drain_trace(&self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// The first peer locality declared dead (heartbeat suspicion expired
    /// or mid-run hangup), if any.  The runtime polls this alongside
    /// quiescence so a dead peer aborts the run cleanly instead of hanging
    /// it.  Default: peers never fail (in-process transports).
    fn failed_peer(&self) -> Option<u32> {
        None
    }

    /// Full conviction record for [`Transport::failed_peer`]: rank plus
    /// the termination epoch and reason.  Default: wraps `failed_peer`
    /// with a heartbeat-timeout reason at epoch 0, for transports that do
    /// not track either.
    fn failed_peer_info(&self) -> Option<PeerFailure> {
        self.failed_peer().map(|rank| PeerFailure {
            rank,
            epoch: 0,
            reason: ConvictionReason::HeartbeatTimeout,
        })
    }

    /// Fence a convicted peer so the survivors can run recovery: stop
    /// expecting it in termination detection and collectives, discard its
    /// staged traffic, and let `poll_quiescence` converge over the
    /// survivor set.  Returns `true` iff the transport fenced the peer —
    /// the runtime then keeps running toward survivor quiescence instead
    /// of aborting.  Default: unsupported (`false`, today's clean abort).
    fn fence_peer(&self, _dead: u32) -> bool {
        false
    }

    /// Switch recovery mode on or off: with it on, a fencing transport's
    /// [`Transport::fence_peer`] accepts a convicted peer instead of
    /// refusing.  `DashmmBuilder::build` sets it from the builder's one
    /// `recover` flag.  Default: no-op (nothing to fence).
    fn set_recover(&self, _on: bool) {}

    /// Install the progress ledger the transport should update with ARQ
    /// ack watermarks and gossip to peers on the heartbeat path.  Called
    /// by the executor once per built evaluation graph (re-armed between
    /// evaluations with [`ProgressLedger::clear`]); transports without a wire
    /// (or without gossip support) may ignore it.
    fn set_ledger(&self, _ledger: Arc<ProgressLedger>) {}
}

/// The in-process transport: all localities are thread groups in this
/// process, so nothing ever reaches the wire.  Preserves the runtime's
/// historical single-process behaviour exactly.
pub struct SharedMem {
    localities: u32,
}

impl SharedMem {
    /// Transport spanning `localities` in-process localities.
    pub fn new(localities: u32) -> Self {
        assert!(localities >= 1);
        SharedMem { localities }
    }
}

impl Transport for SharedMem {
    fn num_ranks(&self) -> u32 {
        self.localities
    }

    fn rank(&self) -> u32 {
        0
    }

    fn is_local(&self, locality: u32) -> bool {
        debug_assert!(locality < self.localities);
        true
    }

    fn attach(&self, _hooks: TransportHooks) {}

    fn begin_run(&self) {}

    fn send(&self, parcel: Parcel) {
        unreachable!(
            "SharedMem transport asked to send to locality {} — every locality is local",
            parcel.target.locality
        );
    }

    fn poll_quiescence(&self, locally_idle: bool) -> bool {
        locally_idle
    }

    fn stats(&self) -> TransportStats {
        TransportStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mem_hosts_everything() {
        let t = SharedMem::new(4);
        assert_eq!(t.num_ranks(), 4);
        assert_eq!(t.rank(), 0);
        for loc in 0..4 {
            assert!(t.is_local(loc));
        }
        assert_eq!(t.stats(), TransportStats::default());
        assert!(t.drain_trace().is_empty());
    }

    #[test]
    fn shared_mem_quiescence_mirrors_local_idle() {
        let t = SharedMem::new(2);
        t.begin_run();
        assert!(!t.poll_quiescence(false));
        assert!(t.poll_quiescence(true));
    }

    #[test]
    fn coalesce_config_defaults() {
        let c = CoalesceConfig::default();
        assert!(c.enabled && c.max_bytes > 0 && c.max_queue_bytes > c.max_bytes);
        assert!(!CoalesceConfig::disabled().enabled);
    }
}

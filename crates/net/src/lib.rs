//! dashmm-net: a real multi-process transport for the DASHMM runtime.
//!
//! The simulator (`dashmm-sim`) predicts what distributed runs would do;
//! this crate actually does it, on one machine: each locality is an OS
//! process, parcels travel as length-prefixed checksummed frames over
//! loopback TCP, and a per-locality progress thread coalesces, ships and
//! delivers them (paper §IV's network model, made concrete).
//!
//! - [`wire`] — the versioned little-endian frame and parcel encoding.
//! - [`coalesce`] — per-destination buffers with byte-size and
//!   flush-interval thresholds, sharing [`CoalesceConfig`] with the
//!   simulator's network model.
//! - [`transport`] — [`SocketTransport`]: the progress engine,
//!   backpressure, distributed termination detection, barrier and gather.
//! - [`launcher`] — [`bootstrap`]: self-re-execution, rendezvous and mesh
//!   construction.
//! - [`metrics`] — per-destination parcel/byte/frame counters, the
//!   coalesced-batch histogram and flush-reason tallies.
//! - [`service`] — the resident multi-tenant evaluation server: request
//!   aggregation into fused tiles, per-tenant admission control with
//!   shed-on-overload, and the framed query protocol.
//!
//! A binary becomes multi-process by calling [`bootstrap`] early and
//! handing the returned transport to
//! `dashmm_amt::Runtime::with_transport` (or the `dashmm-core` builder):
//!
//! ```no_run
//! use dashmm_amt::CoalesceConfig;
//! use dashmm_net::{bootstrap, Role};
//!
//! match bootstrap(2, CoalesceConfig::default()).unwrap() {
//!     Role::Launcher(report) => assert!(report.success()),
//!     Role::Rank(transport) => {
//!         // ... build the runtime on `transport`, run, then:
//!         transport.barrier().unwrap();
//!         transport.shutdown();
//!     }
//! }
//! ```

pub mod coalesce;
pub mod launcher;
pub mod metrics;
pub mod reliable;
pub mod service;
pub mod transport;
pub mod wire;

pub use coalesce::{Coalescer, Flush};
pub use dashmm_amt::{CoalesceConfig, FaultPlan};
pub use launcher::{bootstrap, env_rank, net_timeout, LaunchReport, Role};
pub use metrics::{CommMetrics, DestMetrics, FlushReason};
pub use reliable::{RetransmitConfig, SeqReceiver, SeqSender};
pub use service::{
    decode_request, decode_response, decode_stats_request, decode_stats_response,
    decode_step_request, encode_request, encode_response, encode_stats_request,
    encode_stats_response, encode_step_request, AdmissionConfig, EngineBreakdown, EvalClient,
    EvalEngine, EvalRequestMsg, EvalResponseMsg, EvalServer, PhaseBreakdown, RespStatus,
    ServiceConfig, ServiceStats, StepEngine, StepOutcome, StepRequestMsg, MAX_REQUEST_TARGETS,
    MAX_STEP_UPDATES, STATS_MAX_SNAPSHOT_BYTES,
};
pub use transport::{
    SocketTransport, KILL_EXIT_CODE, TRACE_CLASS_ACK, TRACE_CLASS_HEARTBEAT,
    TRACE_CLASS_RETRANSMIT, TRACE_CLASS_RX, TRACE_CLASS_TX,
};
pub use wire::{FrameKind, WireError};

use dashmm_obs::codec::read_body;

/// Element-wise sum of per-rank partial results gathered as `f64` bodies
/// (`dashmm_obs::codec::encode_f64s`; the reduction used to merge
/// distributed potentials).  A part of another length than the first is an
/// error, not a panic.
pub fn merge_sum_f64(parts: &[Vec<u8>]) -> Result<Vec<f64>, WireError> {
    let n = parts.first().map_or(0, |p| p.len() / 8);
    let (mut acc, mut values) = (vec![0.0f64; n], vec![0.0f64; n]);
    for part in parts {
        read_body(part, |c| c.f64s_into(&mut values))?;
        for (a, v) in acc.iter_mut().zip(&values) {
            *a += v;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    use dashmm_obs::codec::encode_f64s;

    fn part(values: &[f64]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_f64s(values, &mut out);
        out
    }

    #[test]
    fn merge_sums_elementwise() {
        let (a, b) = (part(&[1.0, 2.0, 3.0]), part(&[0.5, -2.0, 10.0]));
        assert_eq!(merge_sum_f64(&[a, b]), Ok(vec![1.5, 0.0, 13.0]));
    }

    #[test]
    fn parts_of_differing_lengths_are_errors() {
        let (a, b) = (part(&[1.0, 2.0]), part(&[1.0]));
        assert_eq!(
            merge_sum_f64(&[a.clone(), b.clone()]),
            Err(WireError::Truncated)
        );
        assert_eq!(merge_sum_f64(&[b, a.clone()]), Err(WireError::BadParcel));
        assert_eq!(
            merge_sum_f64(&[a[..15].to_vec()]),
            Err(WireError::BadParcel)
        );
    }
}

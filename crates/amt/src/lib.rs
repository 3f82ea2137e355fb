//! An asynchronous many-tasking (AMT) runtime modelled on HPX-5.
//!
//! The paper (§III) characterises HPX-5 as: diffusive, message-driven
//! computation made of lightweight threads and **parcels** (active
//! messages), executing within a **global address space**, synchronising
//! through **LCOs** (local control objects) — event-driven, globally
//! addressable objects that co-locate data and control: they reduce inputs,
//! evaluate a trigger predicate, and run a continuation as a new
//! lightweight thread.  *Sending a parcel is the only way of spawning a
//! thread*; in shared memory it simply happens that every target address is
//! local.
//!
//! This crate reproduces that model:
//!
//! * [`GlobalAddress`] — `(locality, index)` pairs addressing LCOs across
//!   [`Runtime`] localities (threads standing in for the paper's
//!   MPI-rank-like localities),
//! * [`Parcel`]s carrying a registered action, a target address and a byte
//!   payload; remote work may *only* travel as parcels (closures are
//!   restricted to the local locality, keeping the code honest about what
//!   could execute distributed),
//! * [`LcoSpec`] / LCO cells — input slots, a reduction, a trigger
//!   predicate (all inputs arrived) and a trigger closure as the
//!   continuation, exactly the machinery DASHMM builds its implicit DAG
//!   from (paper §IV, Figure 2),
//! * a per-locality scheduler with one shared injector, per-worker deques
//!   and randomized work stealing — the priority-oblivious scheduler the
//!   paper measured (its proposed priorities are studied in `dashmm-sim`),
//! * low-overhead event tracing and the utilization-fraction analysis of
//!   §V-B (Equations 1–2).

pub mod addr;
pub mod batch;
pub mod fault;
pub mod lco;
pub mod ledger;
pub mod parcel;
pub mod runtime;
pub mod transport;

pub use addr::GlobalAddress;
pub use batch::{EdgeBatcher, DEFAULT_BATCH_THRESHOLD};
pub use dashmm_obs::codec;
pub use dashmm_obs::{
    class_name, utilization_by_class, utilization_total, ClassCounters, ObsLevel, TraceEvent,
    TraceSet, CLASS_LCO_TRIGGER, CLASS_NET_ACK, CLASS_NET_HEARTBEAT, CLASS_NET_RETRANSMIT,
    CLASS_NET_RX, CLASS_NET_TX, CLASS_NONE, CLASS_PARCEL_FLUSH, CLASS_RECOVERY, NO_TAG,
};
pub use fault::{FaultPlan, FrameFate, KillSpec, StallSpec, ENV_FAULTS};
pub use lco::{LcoOp, LcoSpec};
pub use ledger::{ConvictionReason, LedgerSnapshot, PeerFailure, ProgressLedger};
pub use parcel::{ActionId, Parcel, PARCEL_HEADER_BYTES};
pub use runtime::{RunReport, Runtime, RuntimeConfig, TaskCtx};
pub use transport::{CoalesceConfig, SharedMem, Transport, TransportHooks, TransportStats};

//! Discrete-event simulation of the AMT runtime at cluster scale.
//!
//! The paper's strong-scaling study ran on 2–128 nodes of a Cray XE6 (32
//! cores each, Gemini interconnect).  This crate replays an *explicit DAG*
//! through a virtual-time model of the same runtime mechanics so those
//! experiments are reproducible on any host:
//!
//! * every DAG node is an LCO; when its last input arrives, its
//!   continuation (the out-edge processor) becomes a ready task at the
//!   node's locality,
//! * each locality owns `cores` workers pulling from per-class ready
//!   queues, most urgent first; which class a task carries, and whether a
//!   fired node splits its out-edges, is read from the same
//!   `dashmm_dag::SchedPlan` the measured executor runs — a flat plan is
//!   the priority-oblivious FIFO the paper measures,
//! * out-edges are processed sequentially inside the task (paper §VI);
//!   local edges deliver inputs as they complete, remote edges are
//!   **coalesced into one parcel per destination locality** and evaluated
//!   at the destination after a latency + bandwidth delay,
//! * per-edge execution costs come from a [`CostModel`] — either the
//!   paper's Table II timings or timings measured on this host by the
//!   benchmark harness,
//! * every edge execution emits a virtual trace event, so the utilization
//!   analysis of Figures 4 and 5 applies unchanged.

pub mod cost;
pub mod engine;
pub mod recovery;

pub use cost::{CostModel, NetworkModel};
pub use dashmm_amt::CoalesceConfig;
pub use engine::{simulate, SimConfig, SimResult};
pub use recovery::{estimate_recovery, RecoveryEstimate};

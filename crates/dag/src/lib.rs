//! The explicit dataflow DAG of an HMM evaluation.
//!
//! DASHMM builds two representations of the evaluation DAG (paper §IV): an
//! *explicit* DAG used for partitioning, distribution and analysis, and an
//! *implicit* DAG of runtime LCOs that actually executes.  This crate is the
//! explicit one: node classes `S, M, Is, It, L, T` (paper Table I), edge
//! operator classes (paper Table II), byte sizes, degrees, distribution
//! policies that assign nodes to localities, and the statistics the paper
//! reports.
//!
//! The structure is deliberately independent of the kernel and expansion
//! machinery — the simulator consumes it directly, and `dashmm-core`
//! instantiates the matching LCO network from it.

pub mod dist;
pub mod graph;
pub mod plan;
pub mod stats;

pub use dist::{
    BlockPolicy, DistributionPolicy, FmmPolicy, ItPlacement, LoadBalancedPolicy, SingleLocality,
};
pub use graph::{Dag, DagBuilder, DagEdge, DagNode, EdgeOp, NodeClass};
pub use plan::{EdgePart, Fire, LatticeHint, SchedPlan, NORMAL_CLASS, PRIORITY_CLASSES};
pub use stats::{DagStats, EdgeClassStats, NodeClassStats};

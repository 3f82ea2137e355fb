//! DASHMM — the Dynamic Adaptive System for Hierarchical Multipole Methods.
//!
//! The paper's framework, reproduced end to end: a *generic* HMM evaluator
//! where the concrete method (Barnes–Hut, basic FMM, or the advanced FMM
//! with merge-and-shift intermediate expansions), the interaction kernel
//! (Laplace, Yukawa), the accuracy, and the data distribution are all
//! parameters, and the evaluation itself is expressed as a dataflow DAG
//! executed by the asynchronous many-tasking runtime of `dashmm-amt`
//! (paper §IV):
//!
//! 1. the source and target ensembles are partitioned into a dual tree and
//!    the interaction lists are computed (`dashmm-tree`),
//! 2. an **explicit DAG** is assembled — node classes `S, M, Is, It, L, T`
//!    with every operator edge of Figure 1c, including the merged
//!    plane-wave translations — and a distribution policy assigns nodes to
//!    localities (`dashmm-dag`),
//! 3. an **implicit DAG** of runtime LCOs mirrors it: each expansion is an
//!    LCO that reduces its inputs and, on its final input, runs one
//!    continuation that transforms its data along each out-edge — remote
//!    edges coalesced into one parcel per destination locality,
//! 4. target potentials are read back in the caller's original order, and
//!    an execution trace supports the utilization analysis of §V.
//!
//! ```no_run
//! use dashmm_core::{DashmmBuilder, Method};
//! use dashmm_kernels::Laplace;
//! use dashmm_tree::uniform_cube;
//!
//! let sources = uniform_cube(10_000, 1);
//! let targets = uniform_cube(10_000, 2);
//! let charges = vec![1.0; sources.len()];
//! let eval = DashmmBuilder::new(Laplace)
//!     .method(Method::AdvancedFmm)
//!     .build(&sources, &charges, &targets);
//! let out = eval.evaluate();
//! println!("phi[0] = {}", out.potentials[0]);
//! ```

pub mod api;
pub mod assemble;
pub mod exec;
pub mod measure;
pub mod problem;
pub mod resident;
pub mod step;
pub mod verify;

pub use api::{DashmmBuilder, EvalOutput, Evaluation, Policy, RecoveryInfo};
pub use assemble::{assemble, Assembly};
pub use dashmm_dag::{LatticeHint, SchedPlan};
pub use exec::RecoveryStats;
pub use measure::per_op_avg_us;
pub use problem::{block_owner, Method, Problem};
pub use resident::{EvalProfile, ResidentConfig, ResidentFmm};
pub use step::StepReport;
pub use verify::{check_accuracy, AccuracyReport};

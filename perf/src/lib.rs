//! The repository's benchmark: six workloads, four end-to-end metrics, and
//! a separate traced run for per-layer figures.  See `perf/README.md`.
//!
//! Everything here measures the program from outside, through its public
//! functions.  `api.rs` holds every call the end-to-end binary makes;
//! `layers_api.rs`, compiled only into `perf-layers`, goes deeper.

pub mod api;
pub mod cli;
pub mod diff;
pub mod gen;
pub mod host;
pub mod json;
pub mod probe;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

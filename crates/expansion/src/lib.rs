//! Expansions and translation operators for hierarchical multipole methods.
//!
//! The paper's FMM uses three kinds of expansion (§II, Figure 1c):
//!
//! * **multipole (M)** — represents a source box's influence in
//!   well-separated regions,
//! * **local (L)** — represents well-separated sources' influence inside a
//!   target box,
//! * **intermediate (I)** — directional plane-wave expansions in which the
//!   `M→L` translation factors into the diagonal `M→I`, `I→I`, `I→L` chain
//!   of the merge-and-shift technique.
//!
//! We realise M and L with *kernel-independent* equivalent/check surface
//! representations (Ying–Biros–Zorin): an expansion is a vector of
//! equivalent densities on a cubic surface around the box, and every
//! operator is a small dense matrix assembled from kernel evaluations plus a
//! Tikhonov-regularised inverse.  The I expansions are the Sommerfeld
//! plane-wave discretisations from `dashmm-kernels`, whose translations are
//! exact diagonal phase multiplications.  Both constructions work unchanged
//! for Laplace and Yukawa; for the scale-variant Yukawa every tree level
//! gets its own tables (and its own expansion length — the paper's
//! depth-dependent intermediate expansions).
//!
//! All operators of Figure 1c are provided: `S→M`, `M→M`, `M→L`, `L→L`,
//! `S→L`, `M→T`, `L→T`, `S→T` plus the advanced `M→I`, `I→I`, `I→L`.
//!
//! The [`batch`] module adds multi-edge entry points (`m2l_batch`,
//! `m2m_batch`, `l2l_batch`, `m2i_batch`, `i2l_batch`, `i2i_batch`) that
//! apply one shared operator matrix to many edges through a single
//! blocked GEMM; each edge's
//! contribution is bitwise independent of how the runtime groups edges
//! into batches, and matches the per-edge loop to rounding (see `batch`).

pub mod batch;
pub mod library;
pub mod ops;
pub mod params;
pub mod surface;
pub mod tables;

pub use batch::BatchWorkspace;
pub use library::OperatorLibrary;
pub use params::AccuracyParams;
pub use surface::surface_lattice;
pub use tables::LevelTables;

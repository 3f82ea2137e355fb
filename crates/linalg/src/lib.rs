//! Dense linear algebra for `dashmm-rs`.
//!
//! The equivalent/check-surface expansions used by the multipole operators
//! reduce every field translation to small dense matrix products, and the
//! construction of those operators requires a regularised pseudo-inverse of a
//! (mildly ill-conditioned) check-to-equivalent evaluation matrix.  This crate
//! provides exactly that machinery, implemented from scratch:
//!
//! * [`Matrix`] — a column-major dense matrix of `f64` with the usual
//!   products and slicing helpers,
//! * [`gemm_acc_panels`] / [`Matrix::matvec_batch_acc`] (right-hand sides
//!   packed) and [`gemm_acc_cols`] / [`Matrix::matvec_batch_acc_cols`]
//!   (each its own slice) — a cache-blocked multi-RHS kernel
//!   (register-tiled AVX2+FMA when the CPU has it, a portable panel
//!   kernel otherwise) whose per-column results are bitwise
//!   independent of how edges are grouped into panels (see `gemm.rs` for
//!   the determinism contract the batched operator path relies on),
//! * [`cholesky`] / [`CholeskyFactor`] — SPD factorisation and solves,
//! * [`svd_jacobi`] — a one-sided Jacobi SVD, accurate for the small
//!   (≲ 1000²) operator matrices used here,
//! * [`pinv`] / [`pinv_tikhonov`] — truncated and Tikhonov-regularised
//!   pseudo-inverses built on the SVD.
//!
//! Everything is deliberately allocation-conscious: hot paths
//! ([`Matrix::matvec_into`], [`Matrix::matvec_acc`]) write into caller-owned
//! buffers so the evaluation phase of the FMM performs no heap traffic.

mod cholesky;
mod gemm;
mod matrix;
mod svd;

pub use cholesky::{cholesky, CholeskyFactor};
pub use gemm::{fma_kernel_active, gemm_acc_cols, gemm_acc_panels, gemm_acc_portable, NR};
pub use matrix::Matrix;
pub use svd::{pinv, pinv_tikhonov, svd_jacobi, Svd};

//! Interaction kernels and numerical quadratures for `dashmm-rs`.
//!
//! The paper evaluates two interaction types (§V-A): the scale-invariant
//! **Laplace** kernel `1/r` (electrostatics / Newtonian gravity) and the
//! scale-variant **Yukawa** kernel `e^{-λr}/r` (screened Coulomb).  This
//! crate provides:
//!
//! * the [`Kernel`] trait with [`Laplace`], [`Yukawa`] and [`Gauss`]
//!   implementations — including the row APIs (`potential_rows`,
//!   `field_rows`) and the surface columns (`surface_potentials`) every
//!   particle-facing operator sums through, over SoA [`Sources`], with
//!   runtime-detected AVX2+FMA loops ([`simd`]) and the portable scalar
//!   defaults,
//! * a parallel **direct summation** oracle ([`direct::direct_sum`]) used to
//!   validate every multipole method against the exact O(N²) answer,
//! * [`gauss::gauss_legendre`] nodes/weights,
//! * [`sommerfeld::PlaneWaveQuad`] — a numerically *self-validating*
//!   discretisation of the Sommerfeld integral representation of both
//!   kernels, which is the mathematical substrate of the plane-wave
//!   (intermediate, `I`) expansions of the merge-and-shift technique.

pub mod direct;
pub mod gauss;
pub mod kernel;
pub mod simd;
pub mod sommerfeld;

pub use direct::{direct_sum, direct_sum_at};
pub use gauss::gauss_legendre;
pub use kernel::{Gauss, Kernel, KernelKind, Laplace, Sources, Yukawa};
pub use simd::simd_kernels_active;
pub use sommerfeld::{PlaneWaveQuad, QuadSpec};

//! Kernel density estimation and least-squares cross-validation bandwidth
//! selection — the extension the paper names explicitly ("the methods
//! developed here for least-squares cross-validation can be applied to …
//! optimal bandwidth selection for kernel density estimation").
//!
//! The LSCV objective is
//!
//! ```text
//! LSCV(h) = ∫ f̂² − (2/n) Σ_i f̂_{-i}(X_i)
//!         = [Σ_i Σ_{l≠i} K̄(d_il/h) + n·K̄(0)] / (n²h)
//!           − 2 · Σ_i Σ_{l≠i} K(d_il/h) / (n(n−1)h)
//! ```
//!
//! where `K̄ = K∗K` is the convolution kernel. For the Epanechnikov kernel
//! both `K` (radius 1, degree 2) and `K̄` (radius 2, degree 5) are
//! polynomials in `|u|`, so the paper's sorted sweep applies verbatim with
//! two advancing pointers per observation.

mod kde;
mod lscv;

pub use kde::Kde;
pub use lscv::{lscv_profile_naive, lscv_profile_sorted, LscvProfile, LscvSelector};

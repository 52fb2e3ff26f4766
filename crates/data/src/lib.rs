//! # kcv-data — synthetic data for the kernelcv workspace
//!
//! The paper evaluates on randomly generated data: `X ~ U(0,1)` and
//! `Y = 0.5·X + 10·X² + u` with `u ~ U(0, 0.5)` (§IV). [`PaperDgp`]
//! reproduces that process exactly; additional processes exercise shapes
//! (discontinuities, oscillation, heteroskedasticity) the paper's smooth
//! DGP does not.
//!
//! ```
//! use kcv_data::{Dgp, PaperDgp};
//!
//! let sample = PaperDgp.sample(1_000, 42);
//! assert_eq!(sample.len(), 1_000);
//! // X ~ U(0,1); Y bounded by the DGP's construction.
//! assert!(sample.x.iter().all(|&v| (0.0..1.0).contains(&v)));
//! assert!((PaperDgp.truth(0.5) - (0.25 + 2.5 + 0.25)).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod csv;
pub mod datasets;
pub mod dgp;

pub use dgp::{Dgp, DopplerDgp, HeteroskedasticDgp, PaperDgp, Sample, SineDgp, StepDgp};

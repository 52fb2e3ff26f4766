//! # kcv-np — an `np`-style numerical-optimisation bandwidth selector
//!
//! The paper's benchmark Program 1 is `npregbw` from the R package `np`
//! (Racine & Hayfield): least-squares cross-validation minimised with
//! derivative-free numerical optimisation and optional random restarts
//! (`nmulti`). Program 2 is the author's multicore R variant of the same
//! computation. This crate reimplements that *algorithmic* content behind an
//! R-flavoured interface:
//!
//! * [`npregbw`] — bandwidth selection: the `O(n²)`-per-evaluation
//!   local-constant Epanechnikov CV objective minimised by Nelder–Mead
//!   with `nmulti` restarts (sequential ⇒ Program 1; `parallel = true`
//!   evaluates the objective across cores ⇒ Program 2);
//! * [`NpRegBw::summary`] — an `np`-style text summary.
//!
//! Fitting at the selected bandwidth is `kcv-core`'s `NadarayaWatson`,
//! and its fit quality is `kcv_core::diagnostics`.
//!
//! As the paper (and the np manual itself) note, the CV objective is not
//! concave, so this selector can return non-global minima depending on the
//! restart draws — the defect the paper's grid search removes.
//!
//! ```
//! use kcv_np::{npregbw, NpRegBwOptions};
//!
//! let x: Vec<f64> = (0..120).map(|i| i as f64 / 119.0).collect();
//! let y: Vec<f64> = x.iter().map(|&v| (4.0 * v).sin()).collect();
//! let bws = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
//! assert!(bws.bw > 0.0 && bws.bw <= 1.0);
//! assert!(bws.restart_fvals.iter().all(|&f| bws.fval <= f));
//! println!("{}", bws.summary());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod nelder_mead;
mod objective;
mod regbw;

pub use objective::{cv_objective, cv_objective_parallel};
pub use regbw::{npregbw, NpRegBw, NpRegBwOptions};

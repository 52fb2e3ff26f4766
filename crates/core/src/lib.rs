//! # kcv-core — optimal bandwidth selection for kernel regression
//!
//! Core library of the `kernelcv` workspace: a Rust reproduction of
//! *"Optimal Bandwidth Selection for Kernel Regression Using a Fast Grid
//! Search and a GPU"* (Rohlfs & Zahran, IPPS 2017).
//!
//! The paper's problem: pick the smoothing bandwidth `h` of a
//! Nadaraya–Watson kernel regression by minimising the leave-one-out
//! cross-validation score
//!
//! ```text
//! CV_lc(h) = (1/n) Σ_i (Y_i − ĝ_{-i}(X_i))² M(X_i)
//! ```
//!
//! over a grid of candidates — reliably (no numerical optimisation on a
//! non-concave surface) and fast (a sorting trick turns the `O(k·n²)` grid
//! search into `O(n² log n)`, and the per-observation work is SPMD-parallel).
//!
//! ## Paper notation → public API
//!
//! * `CV_lc(h)` — the local-constant leave-one-out objective above;
//!   computed for a whole grid by [`cv::cv_profile_naive`] /
//!   [`cv::cv_profile_sorted`] / [`cv::cv_profile_prefix`] (one
//!   [`cv::CvProfile`] entry per `h`), and
//!   point-wise by [`cv::cv_score_single`]. The local-linear
//!   variant `CV_ll(h)` lives in [`cv::cv_profile_sorted_ll`].
//! * `ĝ_{-i}(X_i)` — the leave-one-out Nadaraya–Watson fit at `X_i`
//!   ([`estimate::RegressionEstimator::loo_predict`]).
//! * `M(X_i)` — the indicator that observation `i` has a defined
//!   leave-one-out fit at this bandwidth (some neighbour inside the kernel
//!   support). `CvProfile::included` counts `Σ_i M(X_i)` per bandwidth,
//!   and [`cv::CvProfile::argmin_with_min_included`] guards against
//!   bandwidths so small that `M` discards the sample.
//! * **Sorted-sweep invariant** — for a compactly supported polynomial
//!   kernel, every leave-one-out term inside the support at bandwidth `h₁`
//!   is inside it at every `h₂ > h₁`; after sorting each observation's
//!   neighbour distances ([`sort::sort_with_aux`]) one ascending pass over
//!   the grid maintains running power sums `Σ dⱼ^p`, `Σ Yⱼ dⱼ^p`, absorbing
//!   each neighbour **at most once** regardless of the grid size `k`. This
//!   is the paper's `O(k·n²) → O(n² log n)` saving; the `metrics` feature
//!   (below) counts it.
//!
//! ## Quick start
//!
//! ```
//! use kcv_core::prelude::*;
//!
//! // The paper's data-generating process.
//! let mut rng = kcv_core::util::SplitMix64::new(7);
//! let x: Vec<f64> = (0..200).map(|_| rng.next_f64()).collect();
//! let y: Vec<f64> = x.iter()
//!     .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
//!     .collect();
//!
//! // Sorted grid search over 50 bandwidths (paper defaults), in parallel.
//! let selector = SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(50));
//! let selection = selector.select(&x, &y).unwrap();
//! assert!(selection.bandwidth > 0.0 && selection.bandwidth <= 1.0);
//!
//! // Fit the regression at the selected bandwidth.
//! let fit = NadarayaWatson::new(&x, &y, Epanechnikov, selection.bandwidth).unwrap();
//! let g_half = fit.predict(0.5).unwrap();
//! assert!((g_half - (0.5 * 0.5 + 10.0 * 0.25 + 0.25)).abs() < 0.5);
//! ```
//!
//! ## Module map
//!
//! * [`kernels`] — Epanechnikov (the paper's), Uniform, Triangular,
//!   Quartic, Triweight, Cosine, Gaussian; convolution kernels for KDE-LSCV.
//! * [`sort`] — the iterative quicksort (explicit stack, co-sorted
//!   auxiliary array) the paper runs per GPU thread.
//! * [`grid`] — bandwidth grids with the paper's defaults and the §IV-A
//!   zoom refinement.
//! * [`estimate`] — Nadaraya–Watson and local-linear estimators with
//!   leave-one-out variants.
//! * [`cv`] — the CV profile: naive `O(k·n²)` (the oracle), sorted
//!   `O(n² log n)` (the paper's sweep), prefix-moment
//!   `O(n log n + n·k·deg²)` amortised (one global argsort, no
//!   per-neighbour scan) and the sliding window that re-selects through
//!   it; every batch
//!   profile runs sequentially or rayon-parallel (SPMD) through one
//!   observation fold; local-constant and local-linear.
//! * [`select`] — grid-search, bagged and rule-of-thumb selectors behind
//!   one trait (the np-style numerical-optimisation baseline is `kcv-np`'s
//!   `npregbw`).
//! * [`density`] — KDE + least-squares CV bandwidths (paper's named
//!   extension) using the same sorted sweep.
//! * [`multi`] — multivariate product-kernel regression (paper's §I grid
//!   "or matrix" remark), selected by the dimension-recursive
//!   fast-sum-updating CV engine in [`multi::fast`] (zero kernel
//!   evaluations at d ≤ 2).
//! * [`diagnostics`] — fit quality summaries used by tests and benches.
//!
//! ## Feature `metrics`
//!
//! Builds the `kcv-obs` observability layer in live mode: the CV
//! strategies, the sort, and the selectors then count kernel evaluations,
//! sort comparisons, and compact-support skips, and time their phases
//! (`cv.sort`, `cv.sweep`, `select.argmin`, …). Off by default and
//! genuinely zero-cost when off — every counter call compiles to an empty
//! inline stub. See the `kcv-obs` crate docs and
//! `results/BENCH_report.json` (written by `kcv-bench`'s `experiments`
//! binary) for the consumption side.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cv;
pub mod density;
pub mod diagnostics;
pub mod error;
pub mod estimate;
pub mod grid;
pub mod kernels;
pub mod multi;
pub mod select;
pub mod sort;
pub mod util;

pub mod prelude;

pub use error::{Error, Result};

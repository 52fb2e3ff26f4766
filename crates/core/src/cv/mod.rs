//! Least-squares leave-one-out cross-validation for bandwidth selection.
//!
//! The objective (paper Eq. 1, Li & Racine §2.3) is
//!
//! ```text
//! CV_lc(h) = (1/n) Σ_i (Y_i − ĝ_{-i}(X_i))² M(X_i)
//! ```
//!
//! with `ĝ_{-i}` the leave-one-out Nadaraya–Watson estimator (Eq. 2) and
//! `M(X_i)` the indicator that its denominator is non-zero.
//!
//! Four evaluation strategies compute the profile `{CV_lc(h) : h ∈ grid}`,
//! each kept for one reason:
//!
//! | module | role | complexity | applies to |
//! |---|---|---|---|
//! | [`naive`] | oracle | `O(k·n²)` | any kernel |
//! | [`sorted`] | the paper's reproduction | `O(n² log n)` total (`O(n log n + n·deg + k·deg)` per obs.) | [`PolynomialKernel`]s |
//! | [`prefix`] | production, batch | `O(n log n + n·k·deg²)` amortised total (window cursors over prefix moments) | [`PolynomialKernel`]s, 1-D `x` |
//! | [`incremental`] | production, streaming | `O(log n)` insert/remove, `O(n·log n·(deg+3) + k·n·deg²)` reselect (Fenwick moment tree read into a flat table) | [`PolynomialKernel`]s, 1-D `x` |
//!
//! `sorted` is the paper's first contribution; `prefix` drops the
//! per-observation sort and the per-neighbour scan, answering each
//! `(observation, bandwidth)` cell from compensated global moment prefix
//! sums. `prefix` and `incremental` share one cell kernel (private module
//! `window`): monotone per-bandwidth window cursors and the kernel
//! polynomial precombined about each observation.
//!
//! Every batch profile — the local-constant ones above and the
//! local-linear ones in [`sorted_ll`] and [`prefix`] — folds its
//! observations through one observation fold, sequentially or split across host
//! cores (the `_par` entry points; the paper's SPMD parallelisation, whose
//! simulated-GPU form lives in the `kcv-gpu` crate).
//!
//! Exactness caveat: `sorted` classifies *and* scores bit-comparably to
//! `naive` (1e-9-level agreement); `prefix` shares the bit-identical
//! support classification but its scores carry the prefix-differencing
//! error documented in [`prefix`] (1e-8-relative agreement on the paper
//! DGP, identical argmin).
//!
//! [`PolynomialKernel`]: crate::kernels::PolynomialKernel

mod fold;
pub mod incremental;
pub mod naive;
pub mod prefix;
pub mod sorted;
pub mod sorted_ll;
mod window;

pub use incremental::{IncrementalSelector, SlidingWindowSelector};
pub use naive::{cv_profile_naive, cv_profile_naive_par, cv_score_single};
pub use prefix::{
    cv_profile_prefix, cv_profile_prefix_ll, cv_profile_prefix_ll_par, cv_profile_prefix_par,
};
pub use sorted::{cv_profile_sorted, cv_profile_sorted_par};
pub use sorted_ll::{cv_profile_naive_ll, cv_profile_sorted_ll, cv_profile_sorted_ll_par};
pub use window::MAX_KERNEL_DEGREE;

use crate::error::{Error, Result};

/// The cross-validation scores over a bandwidth grid, plus per-bandwidth
/// diagnostic counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CvProfile {
    /// The candidate bandwidths, ascending.
    pub bandwidths: Vec<f64>,
    /// `CV_lc(h)` for each bandwidth.
    pub scores: Vec<f64>,
    /// Number of observations with `M(X_i) = 1` (non-degenerate
    /// leave-one-out fit) at each bandwidth.
    pub included: Vec<usize>,
    /// Sample size the profile was computed from.
    pub n: usize,
}

impl CvProfile {
    /// The grid optimum under the paper's raw semantics: the index, bandwidth
    /// and score of the minimal `CV_lc(h)`; ties resolve to the smallest
    /// bandwidth. Errors only if every bandwidth excluded every observation.
    pub fn argmin(&self) -> Result<CvOptimum> {
        self.argmin_with_min_included(1)
    }

    /// The grid optimum restricted to bandwidths whose leave-one-out fit was
    /// defined for at least `min_included` observations.
    ///
    /// The raw objective rewards bandwidths so small that most observations
    /// are *excluded* (each excluded observation contributes 0); requiring
    /// e.g. `min_included = n` (or `(0.95·n)`) guards against selecting such
    /// a degenerate bandwidth on sparse designs.
    pub fn argmin_with_min_included(&self, min_included: usize) -> Result<CvOptimum> {
        let mut best: Option<CvOptimum> = None;
        for (idx, ((&h, &score), &inc)) in self
            .bandwidths
            .iter()
            .zip(&self.scores)
            .zip(&self.included)
            .enumerate()
        {
            if inc < min_included {
                continue;
            }
            let better = match &best {
                None => true,
                Some(b) => score < b.score,
            };
            if better {
                best = Some(CvOptimum { index: idx, bandwidth: h, score, included: inc });
            }
        }
        best.ok_or(Error::NoValidBandwidth)
    }

    /// Number of candidate bandwidths `k`.
    pub fn len(&self) -> usize {
        self.bandwidths.len()
    }

    /// True when the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.bandwidths.is_empty()
    }
}

/// The result of minimising a [`CvProfile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CvOptimum {
    /// Index into the grid.
    pub index: usize,
    /// The optimal bandwidth.
    pub bandwidth: f64,
    /// Its cross-validation score.
    pub score: f64,
    /// Observations with a defined leave-one-out fit at this bandwidth.
    pub included: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(scores: &[f64], included: &[usize]) -> CvProfile {
        CvProfile {
            bandwidths: (1..=scores.len()).map(|i| i as f64 * 0.1).collect(),
            scores: scores.to_vec(),
            included: included.to_vec(),
            n: 10,
        }
    }

    #[test]
    fn argmin_picks_global_minimum() {
        let p = profile(&[3.0, 1.0, 2.0], &[10, 10, 10]);
        let opt = p.argmin().unwrap();
        assert_eq!(opt.index, 1);
        assert!((opt.bandwidth - 0.2).abs() < 1e-15);
        assert_eq!(opt.score, 1.0);
    }

    #[test]
    fn argmin_ties_resolve_to_smallest_bandwidth() {
        let p = profile(&[2.0, 1.0, 1.0], &[10, 10, 10]);
        assert_eq!(p.argmin().unwrap().index, 1);
    }

    #[test]
    fn argmin_skips_all_excluded_bandwidths() {
        // First bandwidth excluded everyone → score 0, but must not win.
        let p = profile(&[0.0, 1.5, 2.0], &[0, 10, 10]);
        let opt = p.argmin().unwrap();
        assert_eq!(opt.index, 1);
    }

    #[test]
    fn argmin_min_included_filters() {
        let p = profile(&[0.1, 1.5, 2.0], &[3, 8, 10]);
        assert_eq!(p.argmin_with_min_included(5).unwrap().index, 1);
        assert_eq!(p.argmin_with_min_included(9).unwrap().index, 2);
        assert!(p.argmin_with_min_included(11).is_err());
    }

    #[test]
    fn argmin_errors_when_nothing_valid() {
        let p = profile(&[0.0, 0.0], &[0, 0]);
        assert_eq!(p.argmin().unwrap_err(), Error::NoValidBandwidth);
    }
}

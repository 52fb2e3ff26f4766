//! Bandwidth selectors.
//!
//! * [`grid_search`] — the paper's reliable approach: evaluate `CV_lc(h)` on
//!   a grid (sorted sweep or naive, sequential or parallel) and take the
//!   minimum. Guaranteed to return the *grid* optimum.
//! * [`bagged`] — Barreiro-Ures et al.'s subsampled bagging: run the
//!   prefix-sweep grid search on `B` seeded subsamples of size `r ≪ n`, combine, and
//!   rescale by `(r/n)^{1/5}` — cost independent of `n` at fixed `(B, r)`.
//! * [`rule_of_thumb`] — the ad hoc shortcuts practitioners fall back on to
//!   avoid CV entirely (Silverman/Scott style plug-ins).

pub mod bagged;
pub mod grid_search;
pub mod rule_of_thumb;

pub use bagged::{BagCombiner, BagOutcome, BaggedSelection, BaggedSelector};
pub use grid_search::{GridSpec, NaiveGridSearch, SortedGridSearch, Strategy, ZoomGridSearch};
pub use rule_of_thumb::{scott_bandwidth, silverman_bandwidth, Rule, RuleOfThumbSelector};

use crate::cv::CvProfile;
use crate::error::Result;

/// The outcome of a bandwidth selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// The selected bandwidth.
    pub bandwidth: f64,
    /// The CV score at the selected bandwidth (`NaN` for rule-of-thumb
    /// selectors, which never evaluate the objective).
    pub score: f64,
    /// How many single-bandwidth objective evaluations the selector spent:
    /// the grid size `k` for a grid search (summed over the rounds of a
    /// zoomed one), `B·k` for `B` bags, and 0 for a rule of thumb. The
    /// numerical-optimisation baseline, `kcv_np::npregbw`, reports its
    /// iteration-dependent count in `NpRegBw::evaluations`.
    pub evaluations: usize,
    /// The full CV profile, when the selector computed one (grid searches).
    pub profile: Option<CvProfile>,
}

/// Anything that can pick a bandwidth for a regression sample.
pub trait BandwidthSelector {
    /// Selects a bandwidth for the sample `(x, y)`.
    fn select(&self, x: &[f64], y: &[f64]) -> Result<Selection>;

    /// Human-readable selector name (used by the benchmark harness).
    fn name(&self) -> String;
}

/// One-call bandwidth selection with the paper's recommended machinery:
/// parallel sorted grid search, Epanechnikov kernel, a 200-point
/// paper-default grid, and the degenerate-bandwidth guard enabled
/// (every observation must keep a defined leave-one-out fit).
///
/// ```
/// let mut rng = kcv_core::util::SplitMix64::new(3);
/// let x: Vec<f64> = (0..200).map(|_| rng.next_f64()).collect();
/// let y: Vec<f64> = x.iter().map(|&v| v * v + 0.1 * rng.next_f64()).collect();
/// let h = kcv_core::select::select_bandwidth(&x, &y).unwrap();
/// assert!(h > 0.0 && h <= 1.0);
/// ```
pub fn select_bandwidth(x: &[f64], y: &[f64]) -> Result<f64> {
    use crate::kernels::Epanechnikov;
    let selection = SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(200))
        .with_min_included(x.len())
        .select(x, y)
        .or_else(|err| match err {
            // On sparse designs even the widest grid bandwidth may exclude
            // an isolated observation; fall back to the raw objective.
            crate::error::Error::NoValidBandwidth => {
                SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(200)).select(x, y)
            }
            other => Err(other),
        })?;
    Ok(selection.bandwidth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::SplitMix64;

    #[test]
    fn one_call_selection_on_paper_dgp() {
        let mut rng = SplitMix64::new(71);
        let x: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        let h = select_bandwidth(&x, &y).unwrap();
        assert!(h > 0.0 && h <= 1.0);
    }

    #[test]
    fn one_call_selection_handles_isolated_points() {
        // A far-away outlier only joins the fit at near-domain bandwidths;
        // selection must still succeed (via the guard or the raw fallback).
        let x = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 1_000.0];
        let y = [1.0, 2.0, 3.0, 2.0, 1.0, 2.0, 5.0];
        let h = select_bandwidth(&x, &y).unwrap();
        assert!(h > 0.0);
    }

    #[test]
    fn one_call_selection_rejects_junk() {
        assert!(select_bandwidth(&[1.0], &[1.0]).is_err());
        assert!(select_bandwidth(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }
}

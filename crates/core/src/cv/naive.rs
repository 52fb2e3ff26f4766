//! The naive `O(k·n²)` cross-validation profile: re-evaluates the full
//! leave-one-out double sum for every candidate bandwidth.
//!
//! This is the reference implementation (and the only option for kernels,
//! like the Gaussian or Cosine, that are not polynomial in `|u|`). The
//! sorted sweep is tested against it.

use super::fold::fold_observations;
use super::CvProfile;
use crate::error::{validate_bandwidth, validate_sample, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::Kernel;

/// Computes the CV profile by direct evaluation of Eqs. (1)–(2) at every
/// grid bandwidth.
pub fn cv_profile_naive<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid.values(), kernel, false)
}

/// Parallel naive CV profile — the analogue of the paper's "Multicore R"
/// Program 2: the `O(k·n²)` objective, split across cores by observation.
pub fn cv_profile_naive_par<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid.values(), kernel, true)
}

pub(crate) fn profile<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    parallel: bool,
) -> Result<CvProfile> {
    let n = validate_sample(x, y, 2)?;
    let _sweep = kcv_obs::phase("cv.naive");
    Ok(fold_observations(
        n,
        hs,
        parallel,
        || (),
        |i, _, sq, inc| accumulate_observation(i, x, y, hs, kernel, sq, inc),
    ))
}

/// Evaluates `CV_lc(h)` at a single bandwidth, returning the score and the
/// number of observations with a defined leave-one-out fit.
///
/// This is the objective `kcv-np`'s numerical-optimisation baseline
/// minimises; its `cv_objective` is tested against this function.
pub fn cv_score_single<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    h: f64,
    kernel: &K,
) -> (f64, usize) {
    debug_assert!(validate_bandwidth(h).is_ok());
    let hs = [h];
    let p = fold_observations(
        x.len(),
        &hs,
        false,
        || (),
        |i, _, sq, inc| accumulate_observation(i, x, y, &hs, kernel, sq, inc),
    );
    (p.scores[0], p.included[0])
}

/// Adds observation `i`'s `(Y_i − ĝ_{-i}(X_i))² M(X_i)` at every bandwidth
/// in `hs` into `sq_sums`/`included`, evaluating the kernel for every
/// `l ≠ i`.
fn accumulate_observation<K: Kernel + ?Sized>(
    i: usize,
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let n = x.len();
    let xi = x[i];
    let mut evals = kcv_obs::LocalCounter::new(kcv_obs::Counter::KernelEvals);
    for (m, &h) in hs.iter().enumerate() {
        let inv_h = 1.0 / h;
        let mut num = 0.0;
        let mut den = 0.0;
        for (l, (&xl, &yl)) in x.iter().zip(y).enumerate() {
            if l == i {
                continue;
            }
            let w = kernel.eval((xi - xl) * inv_h);
            num += yl * w;
            den += w;
        }
        evals.incr(n as u64 - 1);
        if den > 0.0 {
            let resid = y[i] - num / den;
            sq_sums[m] += resid * resid;
            included[m] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{NadarayaWatson, RegressionEstimator};
    use crate::kernels::{Epanechnikov, Gaussian};
    use crate::util::SplitMix64;

    fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        (x, y)
    }

    #[test]
    fn profile_matches_estimator_cv_score() {
        let (x, y) = paper_dgp(60, 1);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        for (m, &h) in grid.values().iter().enumerate() {
            let est = NadarayaWatson::new(&x, &y, Epanechnikov, h).unwrap();
            assert!(
                (profile.scores[m] - est.cv_score()).abs() < 1e-12,
                "bandwidth {h}: {} vs {}",
                profile.scores[m],
                est.cv_score()
            );
        }
    }

    #[test]
    fn all_observations_included_with_gaussian() {
        let (x, y) = paper_dgp(40, 2);
        let grid = BandwidthGrid::linear(0.01, 0.5, 8).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Gaussian).unwrap();
        for &inc in &profile.included {
            assert_eq!(inc, 40);
        }
    }

    #[test]
    fn tiny_bandwidth_excludes_isolated_points() {
        let x = [0.0, 0.001, 0.5, 1.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let grid = BandwidthGrid::from_values(vec![0.01]).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        // Only the two nearby points have a neighbour within h = 0.01.
        assert_eq!(profile.included[0], 2);
    }

    #[test]
    fn cv_is_high_at_extreme_bandwidths_on_curved_truth() {
        // CV at the domain-wide bandwidth (over-smoothing a strongly curved
        // function) should exceed the minimum over a sensible grid.
        let (x, y) = paper_dgp(200, 3);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        let opt = profile.argmin().unwrap();
        let last = *profile.scores.last().unwrap();
        assert!(
            opt.score < last,
            "optimum {} should beat max-bandwidth score {last}",
            opt.score
        );
        // And the optimum should not be at either grid edge for this DGP.
        assert!(opt.index > 0 && opt.index < profile.len() - 1);
    }

    #[test]
    fn single_score_agrees_with_profile() {
        let (x, y) = paper_dgp(50, 4);
        let grid = BandwidthGrid::linear(0.05, 0.8, 5).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        for (m, &h) in grid.values().iter().enumerate() {
            let (s, inc) = cv_score_single(&x, &y, h, &Epanechnikov);
            assert_eq!(s, profile.scores[m]);
            assert_eq!(inc, profile.included[m]);
        }
    }

    #[test]
    fn rejects_undersized_samples() {
        let grid = BandwidthGrid::from_values(vec![0.1]).unwrap();
        assert!(cv_profile_naive(&[1.0], &[1.0], &grid, &Epanechnikov).is_err());
    }
}

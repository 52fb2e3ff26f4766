//! Pairs-bootstrap inference for kernel regression.
//!
//! Complements the asymptotic bands in [`crate::ci`]: resample `(Xᵢ, Yᵢ)`
//! pairs with replacement, refit at the same bandwidth, and take pointwise
//! percentile intervals. Distribution-free (no variance formula), at
//! `O(B·n²)` cost; replicates run in parallel with rayon. (The paper's §II
//! literature review cites GPU-accelerated bootstrapping as a neighbouring
//! application of the same SPMD parallelism.)

use crate::error::{Error, Result};
use crate::estimate::{NadarayaWatson, RegressionEstimator};
use crate::kernels::Kernel;
use crate::util::{quantile_sorted, SplitMix64};
use rayon::prelude::*;

/// A pointwise percentile-bootstrap band.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapBand {
    /// Evaluation points.
    pub points: Vec<f64>,
    /// The full-sample point estimates (`NaN` where undefined).
    pub estimates: Vec<f64>,
    /// Lower percentile limits.
    pub lower: Vec<f64>,
    /// Upper percentile limits.
    pub upper: Vec<f64>,
    /// Bootstrap replicates drawn.
    pub replicates: usize,
    /// Replicates with a defined estimate, per evaluation point.
    pub defined_counts: Vec<usize>,
}

/// Builds a `level` (e.g. 0.95) pairs-bootstrap band for the
/// Nadaraya–Watson fit at bandwidth `h` with `replicates` resamples.
#[allow(clippy::too_many_arguments)]
pub fn bootstrap_band<K: Kernel + Clone + Sync>(
    x: &[f64],
    y: &[f64],
    kernel: &K,
    h: f64,
    points: &[f64],
    level: f64,
    replicates: usize,
    seed: u64,
) -> Result<BootstrapBand> {
    if !(0.0 < level && level < 1.0) {
        return Err(Error::InvalidGrid("confidence level must be in (0,1)"));
    }
    if replicates < 10 {
        return Err(Error::InvalidGrid("need at least 10 bootstrap replicates"));
    }
    let n = crate::error::validate_sample(x, y, 2)?;
    let base = NadarayaWatson::new(x, y, kernel.clone(), h)?;
    let estimates: Vec<f64> = points
        .iter()
        .map(|&p| base.predict(p).unwrap_or(f64::NAN))
        .collect();

    // One replicate: resample indices, refit, evaluate at all points.
    let replicate_rows: Vec<Vec<f64>> = (0..replicates)
        .into_par_iter()
        .map(|b| {
            let mut rng = SplitMix64::new(seed ^ (b as u64).wrapping_mul(0x9E37_79B9));
            let mut xb = Vec::with_capacity(n);
            let mut yb = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = rng.next_index(n);
                xb.push(x[idx]);
                yb.push(y[idx]);
            }
            match NadarayaWatson::new(&xb, &yb, kernel.clone(), h) {
                Ok(fit) => points
                    .iter()
                    .map(|&p| fit.predict(p).unwrap_or(f64::NAN))
                    .collect(),
                Err(_) => vec![f64::NAN; points.len()],
            }
        })
        .collect();

    let alpha = (1.0 - level) / 2.0;
    let mut lower = Vec::with_capacity(points.len());
    let mut upper = Vec::with_capacity(points.len());
    let mut defined_counts = Vec::with_capacity(points.len());
    for (j, _) in points.iter().enumerate() {
        let mut column: Vec<f64> = replicate_rows
            .iter()
            .map(|row| row[j])
            .filter(|v| v.is_finite())
            .collect();
        defined_counts.push(column.len());
        if column.is_empty() {
            lower.push(f64::NAN);
            upper.push(f64::NAN);
            continue;
        }
        column.sort_by(|a, b| a.total_cmp(b));
        lower.push(quantile_sorted(&column, alpha));
        upper.push(quantile_sorted(&column, 1.0 - alpha));
    }

    Ok(BootstrapBand {
        points: points.to_vec(),
        estimates,
        lower,
        upper,
        replicates,
        defined_counts,
    })
}

/// Bootstrap distribution of the *selected bandwidth* itself: reselects via
/// the sorted grid search on each resample, quantifying how stable the
/// CV choice is (a diagnostic the numerical-optimisation baseline cannot
/// honestly provide, since its answer also varies with its restarts).
pub fn bootstrap_bandwidth_distribution(
    x: &[f64],
    y: &[f64],
    grid_size: usize,
    replicates: usize,
    seed: u64,
) -> Result<Vec<f64>> {
    use crate::kernels::Epanechnikov;
    let n = crate::error::validate_sample(x, y, 2)?;
    if replicates == 0 {
        return Err(Error::InvalidGrid("need at least 1 replicate"));
    }
    let draws: Vec<Option<f64>> = (0..replicates)
        .into_par_iter()
        .map(|b| {
            let mut rng = SplitMix64::new(seed ^ (b as u64).wrapping_mul(0xBF58_476D));
            let mut xb = Vec::with_capacity(n);
            let mut yb = Vec::with_capacity(n);
            for _ in 0..n {
                let idx = rng.next_index(n);
                xb.push(x[idx]);
                yb.push(y[idx]);
            }
            let grid = crate::grid::BandwidthGrid::paper_default(&xb, grid_size).ok()?;
            let profile = crate::cv::cv_profile_sorted(&xb, &yb, &grid, &Epanechnikov).ok()?;
            profile.argmin().ok().map(|o| o.bandwidth)
        })
        .collect();
    let mut hs: Vec<f64> = draws.into_iter().flatten().collect();
    if hs.is_empty() {
        return Err(Error::NoValidBandwidth);
    }
    hs.sort_by(|a, b| a.total_cmp(b));
    Ok(hs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;

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
    fn band_brackets_the_point_estimate() {
        let (x, y) = paper_dgp(300, 401);
        let points = [0.25, 0.5, 0.75];
        let band = bootstrap_band(&x, &y, &Epanechnikov, 0.1, &points, 0.95, 200, 7).unwrap();
        for j in 0..points.len() {
            assert!(band.lower[j] <= band.estimates[j] + 1e-9, "point {j}");
            assert!(band.estimates[j] <= band.upper[j] + 1e-9, "point {j}");
            assert!(band.defined_counts[j] > 150);
        }
    }

    #[test]
    fn band_mostly_covers_the_truth() {
        let (x, y) = paper_dgp(600, 402);
        let points: Vec<f64> = (2..=18).map(|i| i as f64 / 20.0).collect();
        let band = bootstrap_band(&x, &y, &Epanechnikov, 0.06, &points, 0.95, 250, 8).unwrap();
        let truth = |v: f64| 0.5 * v + 10.0 * v * v + 0.25;
        let covered = points
            .iter()
            .enumerate()
            .filter(|&(j, &p)| band.lower[j] <= truth(p) && truth(p) <= band.upper[j])
            .count();
        assert!(
            covered as f64 / points.len() as f64 > 0.6,
            "covered {covered}/{}",
            points.len()
        );
    }

    #[test]
    fn reproducible_for_a_seed() {
        let (x, y) = paper_dgp(150, 403);
        let a = bootstrap_band(&x, &y, &Epanechnikov, 0.1, &[0.5], 0.9, 64, 5).unwrap();
        let b = bootstrap_band(&x, &y, &Epanechnikov, 0.1, &[0.5], 0.9, 64, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bandwidth_distribution_concentrates() {
        let (x, y) = paper_dgp(250, 404);
        let hs = bootstrap_bandwidth_distribution(&x, &y, 50, 60, 11).unwrap();
        assert!(hs.len() >= 55);
        // The interquartile spread of the reselected bandwidths should be
        // a small fraction of the domain.
        let q1 = hs[hs.len() / 4];
        let q3 = hs[3 * hs.len() / 4];
        assert!(q3 - q1 < 0.2, "IQR {} too wide", q3 - q1);
    }

    #[test]
    fn validates_parameters() {
        let (x, y) = paper_dgp(50, 405);
        assert!(bootstrap_band(&x, &y, &Epanechnikov, 0.1, &[0.5], 1.5, 100, 1).is_err());
        assert!(bootstrap_band(&x, &y, &Epanechnikov, 0.1, &[0.5], 0.9, 5, 1).is_err());
        assert!(bootstrap_bandwidth_distribution(&x, &y, 20, 0, 1).is_err());
    }
}

//! Fit diagnostics: residual summaries, R², and oracle comparisons against
//! a known truth function (used throughout the test-suite and the
//! benchmark harness's correctness checks).

use crate::estimate::RegressionEstimator;
use crate::util::mean;

/// Summary statistics of a fitted kernel regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitDiagnostics {
    /// Mean squared in-sample residual (over defined fits).
    pub mse: f64,
    /// In-sample R² (1 − SSR/SST over defined fits).
    pub r_squared: f64,
    /// Mean squared leave-one-out residual (over defined LOO fits).
    pub loo_mse: f64,
    /// Number of observations with a defined in-sample fit.
    pub fitted_count: usize,
    /// Number of observations with a defined leave-one-out fit.
    pub loo_count: usize,
}

/// Computes [`FitDiagnostics`] for `estimator` against responses `y`.
pub fn diagnostics<E: RegressionEstimator>(estimator: &E, y: &[f64]) -> FitDiagnostics {
    assert_eq!(estimator.len(), y.len(), "estimator and y length mismatch");
    let fitted = estimator.fitted();
    let mut ssr = 0.0;
    let mut defined_y = Vec::new();
    let mut fitted_count = 0usize;
    for (f, &yi) in fitted.iter().zip(y) {
        if let Some(g) = f {
            ssr += (yi - g) * (yi - g);
            defined_y.push(yi);
            fitted_count += 1;
        }
    }
    let mse = if fitted_count > 0 {
        ssr / fitted_count as f64
    } else {
        f64::NAN
    };
    let ybar = mean(&defined_y);
    let sst: f64 = defined_y.iter().map(|&v| (v - ybar) * (v - ybar)).sum();
    let r_squared = if sst > 0.0 { 1.0 - ssr / sst } else { f64::NAN };

    let mut loo_ssr = 0.0;
    let mut loo_count = 0usize;
    for r in estimator.loo_residuals().into_iter().flatten() {
        loo_ssr += r * r;
        loo_count += 1;
    }
    let loo_mse = if loo_count > 0 {
        loo_ssr / loo_count as f64
    } else {
        f64::NAN
    };

    FitDiagnostics {
        mse,
        r_squared,
        loo_mse,
        fitted_count,
        loo_count,
    }
}

/// Mean squared error of the estimator against a known truth function over
/// `points` (skipping undefined fits); used for oracle checks that
/// CV-selected bandwidths beat badly misspecified ones.
pub fn oracle_mse<E: RegressionEstimator>(
    estimator: &E,
    points: &[f64],
    truth: impl Fn(f64) -> f64,
) -> f64 {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &p in points {
        if let Some(g) = estimator.predict(p) {
            let t = truth(p);
            sum += (g - t) * (g - t);
            count += 1;
        }
    }
    if count == 0 {
        f64::NAN
    } else {
        sum / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::NadarayaWatson;
    use crate::kernels::Epanechnikov;
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
    fn good_fit_has_high_r_squared() {
        let (x, y) = paper_dgp(500, 91);
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.08).unwrap();
        let d = diagnostics(&fit, &y);
        assert!(d.r_squared > 0.95, "R² {}", d.r_squared);
        assert!(d.mse < d.loo_mse, "in-sample MSE should beat LOO MSE");
        assert_eq!(d.fitted_count, 500);
    }

    #[test]
    fn oversmoothing_hurts_oracle_mse() {
        let (x, y) = paper_dgp(500, 92);
        let points: Vec<f64> = (5..=95).map(|i| i as f64 / 100.0).collect();
        let truth = |v: f64| 0.5 * v + 10.0 * v * v + 0.25;
        let good = NadarayaWatson::new(&x, &y, Epanechnikov, 0.08).unwrap();
        let bad = NadarayaWatson::new(&x, &y, Epanechnikov, 1.0).unwrap();
        assert!(oracle_mse(&good, &points, truth) < oracle_mse(&bad, &points, truth));
    }

    #[test]
    fn undersmoothing_hurts_loo_mse() {
        let (x, y) = paper_dgp(500, 93);
        let tight = NadarayaWatson::new(&x, &y, Epanechnikov, 0.002).unwrap();
        let good = NadarayaWatson::new(&x, &y, Epanechnikov, 0.08).unwrap();
        let dt = diagnostics(&tight, &y);
        let dg = diagnostics(&good, &y);
        assert!(dt.loo_mse > dg.loo_mse || dt.loo_count < dg.loo_count);
    }

    #[test]
    fn empty_fits_produce_nans_not_panics() {
        let x = [0.0, 10.0];
        let y = [1.0, 2.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.5).unwrap();
        let d = diagnostics(&fit, &y);
        // Each point sees only itself in-sample; LOO sees nothing.
        assert_eq!(d.loo_count, 0);
        assert!(d.loo_mse.is_nan());
    }
}

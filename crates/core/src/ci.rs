//! Leave-one-out cross-validated confidence intervals for kernel
//! regression — the second extension the paper names ("the estimation of
//! leave-one-out cross-validated confidence intervals for kernel density
//! estimates and kernel regressions").
//!
//! The pointwise asymptotic variance of the Nadaraya–Watson estimate is
//! `Var(ĝ(x)) ≈ σ²(x) R(K) / (n h f(x))`; we estimate the residual variance
//! `σ²` from the leave-one-out residuals at the selected bandwidth (which
//! is exactly what the CV machinery already produces) and `f(x)` with a KDE
//! at the same bandwidth.

use crate::density::Kde;
use crate::error::{Error, Result};
use crate::estimate::{NadarayaWatson, RegressionEstimator};
use crate::kernels::Kernel;

/// A pointwise confidence band over a set of evaluation points.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfidenceBand {
    /// Evaluation points.
    pub points: Vec<f64>,
    /// Point estimates `ĝ(x)`; `NaN` where undefined.
    pub estimates: Vec<f64>,
    /// Lower band limits.
    pub lower: Vec<f64>,
    /// Upper band limits.
    pub upper: Vec<f64>,
    /// The residual variance estimate used.
    pub sigma_sq: f64,
    /// The normal critical value used.
    pub z: f64,
}

/// Normal quantile via the Acklam rational approximation (|error| < 1.2e-9),
/// sufficient for critical values.
#[allow(clippy::excessive_precision)]
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "p must be in (0,1)");
    // Coefficients for the central and tail regions.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -normal_quantile(1.0 - p)
    }
}

/// Estimates `σ²` as the mean squared leave-one-out residual at bandwidth
/// `h` (observations with undefined LOO fits are skipped).
pub fn loo_residual_variance<K: Kernel + Clone>(
    x: &[f64],
    y: &[f64],
    kernel: &K,
    h: f64,
) -> Result<f64> {
    let fit = NadarayaWatson::new(x, y, kernel.clone(), h)?;
    let residuals = fit.loo_residuals();
    let mut sum = 0.0;
    let mut count = 0usize;
    for r in residuals.into_iter().flatten() {
        sum += r * r;
        count += 1;
    }
    if count == 0 {
        return Err(Error::NoValidBandwidth);
    }
    Ok(sum / count as f64)
}

/// Builds the pointwise `level` (e.g. 0.95) confidence band for the
/// Nadaraya–Watson fit at bandwidth `h`, over `points`.
pub fn confidence_band<K: Kernel + Clone>(
    x: &[f64],
    y: &[f64],
    kernel: &K,
    h: f64,
    points: &[f64],
    level: f64,
) -> Result<ConfidenceBand> {
    if !(0.0 < level && level < 1.0) {
        return Err(Error::InvalidGrid("confidence level must be in (0,1)"));
    }
    let n = x.len() as f64;
    let sigma_sq = loo_residual_variance(x, y, kernel, h)?;
    let z = normal_quantile(0.5 + level / 2.0);
    let roughness = kernel.roughness();

    let fit = NadarayaWatson::new(x, y, kernel.clone(), h)?;
    let kde = Kde::new(x, kernel.clone(), h)?;

    let mut estimates = Vec::with_capacity(points.len());
    let mut lower = Vec::with_capacity(points.len());
    let mut upper = Vec::with_capacity(points.len());
    for &p in points {
        match fit.predict(p) {
            Some(g) => {
                let f_hat = kde.evaluate(p).max(f64::MIN_POSITIVE);
                let se = (sigma_sq * roughness / (n * h * f_hat)).sqrt();
                estimates.push(g);
                lower.push(g - z * se);
                upper.push(g + z * se);
            }
            None => {
                estimates.push(f64::NAN);
                lower.push(f64::NAN);
                upper.push(f64::NAN);
            }
        }
    }
    Ok(ConfidenceBand {
        points: points.to_vec(),
        estimates,
        lower,
        upper,
        sigma_sq,
        z,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;
    use crate::util::SplitMix64;

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.975) - 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.5)).abs() < 1e-9);
        assert!((normal_quantile(0.025) + 1.959_963_985).abs() < 1e-6);
        assert!((normal_quantile(0.995) - 2.575_829_3).abs() < 1e-5);
        // Tail region branch.
        assert!((normal_quantile(0.001) + 3.090_232_3).abs() < 1e-4);
    }

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
    fn residual_variance_close_to_noise_variance() {
        // u ~ U(0, 0.5) has variance 0.25/12 ≈ 0.0208.
        let (x, y) = paper_dgp(2_000, 81);
        let v = loo_residual_variance(&x, &y, &Epanechnikov, 0.05).unwrap();
        assert!(
            (v - 0.25 / 12.0).abs() < 0.01,
            "variance estimate {v} vs true {}",
            0.25 / 12.0
        );
    }

    #[test]
    fn band_contains_point_estimate_and_orders_correctly() {
        let (x, y) = paper_dgp(300, 82);
        let points: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();
        let band = confidence_band(&x, &y, &Epanechnikov, 0.1, &points, 0.95).unwrap();
        for i in 0..points.len() {
            assert!(band.lower[i] <= band.estimates[i]);
            assert!(band.estimates[i] <= band.upper[i]);
        }
        assert!((band.z - 1.96).abs() < 0.001);
    }

    #[test]
    fn band_mostly_covers_true_function() {
        // With n = 1000 and a sensible h, the 95% band should cover the true
        // conditional mean g(x) = 0.5x + 10x² + 0.25 at the large majority
        // of interior evaluation points.
        // h is chosen on the undersmoothed side (standard for inference: it
        // shrinks the smoothing bias the first-order band ignores).
        let (x, y) = paper_dgp(1_000, 83);
        let points: Vec<f64> = (5..=95).map(|i| i as f64 / 100.0).collect();
        let band = confidence_band(&x, &y, &Epanechnikov, 0.04, &points, 0.95).unwrap();
        let mut covered = 0usize;
        for (i, &p) in points.iter().enumerate() {
            let truth = 0.5 * p + 10.0 * p * p + 0.25;
            if band.lower[i] <= truth && truth <= band.upper[i] {
                covered += 1;
            }
        }
        let rate = covered as f64 / points.len() as f64;
        // Smoothing bias makes exact nominal coverage unattainable; require
        // a solid majority.
        assert!(rate > 0.6, "coverage {rate} too low");
    }

    #[test]
    fn wider_level_gives_wider_band() {
        let (x, y) = paper_dgp(200, 84);
        let points = [0.5];
        let b90 = confidence_band(&x, &y, &Epanechnikov, 0.1, &points, 0.90).unwrap();
        let b99 = confidence_band(&x, &y, &Epanechnikov, 0.1, &points, 0.99).unwrap();
        assert!(b99.upper[0] - b99.lower[0] > b90.upper[0] - b90.lower[0]);
    }

    #[test]
    fn undefined_points_are_nan() {
        let x = [0.0, 0.1, 0.2];
        let y = [1.0, 2.0, 3.0];
        let band = confidence_band(&x, &y, &Epanechnikov, 0.15, &[5.0], 0.95).unwrap();
        assert!(band.estimates[0].is_nan());
        assert!(band.lower[0].is_nan());
    }

    #[test]
    fn invalid_level_rejected() {
        let (x, y) = paper_dgp(50, 85);
        assert!(confidence_band(&x, &y, &Epanechnikov, 0.1, &[0.5], 0.0).is_err());
        assert!(confidence_band(&x, &y, &Epanechnikov, 0.1, &[0.5], 1.0).is_err());
    }
}

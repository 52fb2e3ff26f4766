//! The Nadaraya–Watson (local-constant) estimator.

use super::RegressionEstimator;
use crate::error::{validate_bandwidth, validate_sample, Result};
use crate::kernels::Kernel;

/// The Nadaraya–Watson estimator
/// `ĝ(x) = Σ_l Y_l K((x − X_l)/h) / Σ_l K((x − X_l)/h)`.
///
/// Borrowed data; the struct is cheap to construct per bandwidth.
///
/// ```
/// use kcv_core::estimate::{NadarayaWatson, RegressionEstimator};
/// use kcv_core::kernels::Epanechnikov;
///
/// let x = [0.0, 0.25, 0.5, 0.75, 1.0];
/// let y = [0.0, 0.5, 1.0, 1.5, 2.0];
/// let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.6).unwrap();
/// let g = fit.predict(0.5).unwrap();
/// assert!((g - 1.0).abs() < 0.2);
/// ```
#[derive(Debug, Clone)]
pub struct NadarayaWatson<'a, K: Kernel> {
    x: &'a [f64],
    y: &'a [f64],
    kernel: K,
    bandwidth: f64,
}

impl<'a, K: Kernel> NadarayaWatson<'a, K> {
    /// Constructs the estimator, validating data and bandwidth.
    pub fn new(x: &'a [f64], y: &'a [f64], kernel: K, bandwidth: f64) -> Result<Self> {
        validate_sample(x, y, 1)?;
        validate_bandwidth(bandwidth)?;
        Ok(Self {
            x,
            y,
            kernel,
            bandwidth,
        })
    }

    /// The bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &K {
        &self.kernel
    }

    /// Weighted sums `(Σ Y_l K, Σ K)` at `x0`, optionally skipping one index.
    fn sums(&self, x0: f64, skip: Option<usize>) -> (f64, f64) {
        let inv_h = 1.0 / self.bandwidth;
        let mut num = 0.0;
        let mut den = 0.0;
        for (l, (&xl, &yl)) in self.x.iter().zip(self.y).enumerate() {
            if Some(l) == skip {
                continue;
            }
            let w = self.kernel.eval((x0 - xl) * inv_h);
            num += yl * w;
            den += w;
        }
        (num, den)
    }
}

impl<K: Kernel> RegressionEstimator for NadarayaWatson<'_, K> {
    fn predict(&self, x0: f64) -> Option<f64> {
        let (num, den) = self.sums(x0, None);
        (den > 0.0).then(|| num / den)
    }

    fn loo_predict(&self, i: usize) -> Option<f64> {
        assert!(i < self.x.len(), "loo index {i} out of bounds");
        let (num, den) = self.sums(self.x[i], Some(i));
        (den > 0.0).then(|| num / den)
    }

    fn len(&self) -> usize {
        self.x.len()
    }

    fn fitted(&self) -> Vec<Option<f64>> {
        self.x.iter().map(|&p| self.predict(p)).collect()
    }

    fn loo_residuals(&self) -> Vec<Option<f64>> {
        (0..self.len())
            .map(|i| self.loo_predict(i).map(|g| self.y[i] - g))
            .collect()
    }

    fn cv_score(&self) -> f64 {
        let n = self.len() as f64;
        self.loo_residuals()
            .iter()
            .map(|r| r.map_or(0.0, |e| e * e))
            .sum::<f64>()
            / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Gaussian, Uniform};

    #[test]
    fn constant_response_is_recovered_exactly() {
        let x = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
        let y = [3.0; 6];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.5).unwrap();
        for &p in &x {
            assert!((fit.predict(p).unwrap() - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn prediction_is_local_average_with_uniform_kernel() {
        // With the box kernel and h = 0.3, predicting at 0.5 averages the
        // y-values of x in [0.2, 0.8].
        let x = [0.0, 0.3, 0.5, 0.7, 1.0];
        let y = [100.0, 1.0, 2.0, 3.0, 100.0];
        let fit = NadarayaWatson::new(&x, &y, Uniform, 0.3).unwrap();
        assert!((fit.predict(0.5).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_neighbourhood_yields_none() {
        let x = [0.0, 1.0];
        let y = [1.0, 2.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.1).unwrap();
        assert_eq!(fit.predict(0.5), None);
    }

    #[test]
    fn loo_excludes_own_observation() {
        // Two points within bandwidth of each other: the LOO prediction at
        // point 0 must equal y[1].
        let x = [0.0, 0.05];
        let y = [10.0, 20.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.2).unwrap();
        assert!((fit.loo_predict(0).unwrap() - 20.0).abs() < 1e-12);
        assert!((fit.loo_predict(1).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn loo_none_when_isolated() {
        let x = [0.0, 10.0, 20.0];
        let y = [1.0, 2.0, 3.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 1.0).unwrap();
        assert_eq!(fit.loo_predict(0), None);
        assert_eq!(fit.loo_residuals(), vec![None, None, None]);
        // CV treats excluded points as contributing zero (M(X_i) = 0).
        assert_eq!(fit.cv_score(), 0.0);
    }

    #[test]
    fn gaussian_kernel_rarely_degenerate() {
        // With infinite support the denominator is positive wherever the
        // kernel has not underflowed to 0 in f64 (|u| ≲ 38).
        let x = [0.0, 5.0];
        let y = [1.0, 5.0];
        let fit = NadarayaWatson::new(&x, &y, Gaussian, 0.5).unwrap();
        assert!(fit.predict(2.5).is_some());
        assert!(fit.loo_predict(0).is_some());
        // Far beyond underflow range the estimate genuinely degenerates.
        assert_eq!(fit.predict(1.0e6), None);
    }

    #[test]
    fn cv_score_matches_hand_calculation() {
        // x evenly spaced, h small enough that each LOO fit sees only the
        // two adjacent points (uniform kernel, h = 0.15, spacing 0.1).
        let x = [0.0, 0.1, 0.2, 0.3];
        let y = [1.0, 2.0, 4.0, 8.0];
        let fit = NadarayaWatson::new(&x, &y, Uniform, 0.15).unwrap();
        // LOO fits: g-0 = y1 = 2; g-1 = (1+4)/2 = 2.5; g-2 = (2+8)/2 = 5; g-3 = y2 = 4.
        let expected = ((1.0f64 - 2.0).powi(2)
            + (2.0f64 - 2.5).powi(2)
            + (4.0f64 - 5.0).powi(2)
            + (8.0f64 - 4.0).powi(2))
            / 4.0;
        assert!((fit.cv_score() - expected).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_input() {
        assert!(NadarayaWatson::new(&[1.0], &[1.0, 2.0], Epanechnikov, 0.5).is_err());
        assert!(NadarayaWatson::new(&[1.0], &[1.0], Epanechnikov, 0.0).is_err());
        assert!(NadarayaWatson::new(&[1.0], &[1.0], Epanechnikov, -2.0).is_err());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn loo_out_of_range_panics() {
        let x = [0.0, 1.0];
        let y = [0.0, 1.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.5).unwrap();
        let _ = fit.loo_predict(5);
    }
}

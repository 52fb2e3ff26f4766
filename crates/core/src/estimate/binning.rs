//! Linear-binning acceleration for kernel regression.
//!
//! A standard approximation (Fan & Marron's "fast implementations"): spread
//! each observation's mass linearly over the two nearest points of a
//! uniform grid of `G` bins, then evaluate the Nadaraya–Watson sums over
//! bins instead of observations — `O(G · window)` per prediction
//! independent of `n`. For smooth designs a few hundred bins reproduce the
//! exact estimator to several digits; accuracy is measured against the
//! exact fit in this module's tests.
//!
//! This is a complementary speed/accuracy trade-off to the paper's exact
//! sorted sweep: binning approximates, the sweep is exact.

use super::RegressionEstimator;
use crate::error::{validate_bandwidth, validate_sample, Error, Result};
use crate::kernels::Kernel;
use crate::util::min_max;

/// A Nadaraya–Watson estimator over linearly binned data.
#[derive(Debug, Clone)]
pub struct BinnedNadarayaWatson<K: Kernel> {
    /// Bin centres (uniform grid).
    centres: Vec<f64>,
    /// Total binned weight (count mass) per bin.
    weight: Vec<f64>,
    /// Binned response mass per bin (`Σ wᵢ·Yᵢ`).
    response: Vec<f64>,
    kernel: K,
    bandwidth: f64,
    bin_width: f64,
    n: usize,
}

impl<K: Kernel> BinnedNadarayaWatson<K> {
    /// Bins `(x, y)` onto `bins` uniform grid points spanning the data and
    /// prepares the estimator at bandwidth `h`.
    pub fn new(x: &[f64], y: &[f64], kernel: K, bandwidth: f64, bins: usize) -> Result<Self> {
        let n = validate_sample(x, y, 2)?;
        validate_bandwidth(bandwidth)?;
        if bins < 2 {
            return Err(Error::InvalidGrid("need at least 2 bins"));
        }
        let (lo, hi) = min_max(x).expect("validated non-empty");
        if hi <= lo {
            return Err(Error::DegenerateDomain);
        }
        let bin_width = (hi - lo) / (bins - 1) as f64;
        let centres: Vec<f64> = (0..bins).map(|g| lo + g as f64 * bin_width).collect();
        let mut weight = vec![0.0; bins];
        let mut response = vec![0.0; bins];
        for (&xi, &yi) in x.iter().zip(y) {
            // Linear binning: split mass between the straddling grid points.
            let pos = (xi - lo) / bin_width;
            let g = (pos.floor() as usize).min(bins - 2);
            let frac = (pos - g as f64).clamp(0.0, 1.0);
            weight[g] += 1.0 - frac;
            weight[g + 1] += frac;
            response[g] += (1.0 - frac) * yi;
            response[g + 1] += frac * yi;
        }
        Ok(Self {
            centres,
            weight,
            response,
            kernel,
            bandwidth,
            bin_width,
            n,
        })
    }

    /// The bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of grid bins.
    pub fn bins(&self) -> usize {
        self.centres.len()
    }

    /// Predicts `E[Y | X = x0]` from the binned sums; `None` on zero mass.
    pub fn predict(&self, x0: f64) -> Option<f64> {
        let inv_h = 1.0 / self.bandwidth;
        // Restrict to the kernel window when the support is compact.
        let (g_lo, g_hi) = match self.kernel.support() {
            Some(r) => {
                let lo = self.centres[0];
                let span = r * self.bandwidth;
                let a = ((x0 - span - lo) / self.bin_width).floor().max(0.0) as usize;
                let b = (((x0 + span - lo) / self.bin_width).ceil() as usize)
                    .min(self.centres.len() - 1);
                if a > b {
                    return None;
                }
                (a, b)
            }
            None => (0, self.centres.len() - 1),
        };
        let mut num = 0.0;
        let mut den = 0.0;
        for g in g_lo..=g_hi {
            if self.weight[g] == 0.0 {
                continue;
            }
            let w = self.kernel.eval((x0 - self.centres[g]) * inv_h);
            num += self.response[g] * w;
            den += self.weight[g] * w;
        }
        (den > 0.0).then(|| num / den)
    }

    /// Predictions at each of `points`.
    pub fn predict_many(&self, points: &[f64]) -> Vec<Option<f64>> {
        points.iter().map(|&p| self.predict(p)).collect()
    }

    /// Maximum absolute deviation from the exact estimator over `points`
    /// (skipping points where either estimate is undefined) — a cheap
    /// accuracy certificate for a chosen bin count.
    pub fn max_deviation_from_exact(&self, x: &[f64], y: &[f64], points: &[f64]) -> Result<f64>
    where
        K: Clone,
    {
        let exact = super::NadarayaWatson::new(x, y, self.kernel.clone(), self.bandwidth)?;
        let mut worst = 0.0f64;
        for &p in points {
            if let (Some(a), Some(b)) = (self.predict(p), exact.predict(p)) {
                worst = worst.max((a - b).abs());
            }
        }
        Ok(worst)
    }

    /// Number of original observations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when constructed from an empty sample (impossible by
    /// construction; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::NadarayaWatson;
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
    fn binned_tracks_exact_estimator() {
        let (x, y) = paper_dgp(2_000, 301);
        let h = 0.08;
        let binned = BinnedNadarayaWatson::new(&x, &y, Epanechnikov, h, 400).unwrap();
        let points: Vec<f64> = (5..=95).map(|i| i as f64 / 100.0).collect();
        let worst = binned.max_deviation_from_exact(&x, &y, &points).unwrap();
        assert!(worst < 0.01, "max deviation {worst}");
    }

    #[test]
    fn accuracy_improves_with_bin_count() {
        let (x, y) = paper_dgp(1_000, 302);
        let points: Vec<f64> = (10..=90).map(|i| i as f64 / 100.0).collect();
        let dev = |bins: usize| {
            BinnedNadarayaWatson::new(&x, &y, Epanechnikov, 0.1, bins)
                .unwrap()
                .max_deviation_from_exact(&x, &y, &points)
                .unwrap()
        };
        let coarse = dev(25);
        let fine = dev(800);
        assert!(fine < coarse, "fine {fine} vs coarse {coarse}");
        assert!(fine < 2e-3, "fine grid should be accurate: {fine}");
    }

    #[test]
    fn binned_mass_is_conserved() {
        let (x, y) = paper_dgp(500, 303);
        let binned = BinnedNadarayaWatson::new(&x, &y, Epanechnikov, 0.1, 100).unwrap();
        let total_w: f64 = binned.weight.iter().sum();
        let total_r: f64 = binned.response.iter().sum();
        assert!((total_w - 500.0).abs() < 1e-9);
        assert!((total_r - y.iter().sum::<f64>()).abs() < 1e-9);
    }

    #[test]
    fn gaussian_kernel_scans_all_bins() {
        let (x, y) = paper_dgp(300, 304);
        let binned = BinnedNadarayaWatson::new(&x, &y, Gaussian, 0.1, 100).unwrap();
        let exact = NadarayaWatson::new(&x, &y, Gaussian, 0.1).unwrap();
        use crate::estimate::RegressionEstimator;
        let a = binned.predict(0.5).unwrap();
        let b = exact.predict(0.5).unwrap();
        assert!((a - b).abs() < 0.01, "{a} vs {b}");
    }

    #[test]
    fn empty_window_gives_none() {
        let x = [0.0, 0.1, 1.0];
        let y = [1.0, 2.0, 3.0];
        let binned = BinnedNadarayaWatson::new(&x, &y, Epanechnikov, 0.05, 50).unwrap();
        assert_eq!(binned.predict(0.5), None);
    }

    #[test]
    fn validates_inputs() {
        let (x, y) = paper_dgp(10, 305);
        assert!(BinnedNadarayaWatson::new(&x, &y, Epanechnikov, 0.1, 1).is_err());
        assert!(BinnedNadarayaWatson::new(&x, &y, Epanechnikov, 0.0, 10).is_err());
        assert!(
            BinnedNadarayaWatson::new(&[1.0, 1.0], &[1.0, 2.0], Epanechnikov, 0.1, 10).is_err()
        );
    }
}

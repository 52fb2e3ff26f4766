//! The kernel density estimator.

use crate::error::{validate_bandwidth, Error, Result};
use crate::kernels::Kernel;

/// A kernel density estimate `f̂(x) = (1/nh) Σ_l K((x − X_l)/h)`.
#[derive(Debug, Clone)]
pub struct Kde<'a, K: Kernel> {
    x: &'a [f64],
    kernel: K,
    bandwidth: f64,
}

impl<'a, K: Kernel> Kde<'a, K> {
    /// Constructs the estimator.
    pub fn new(x: &'a [f64], kernel: K, bandwidth: f64) -> Result<Self> {
        if x.is_empty() {
            return Err(Error::SampleTooSmall { n: 0, required: 1 });
        }
        if let Some(i) = x.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteData {
                which: "x",
                index: i,
            });
        }
        validate_bandwidth(bandwidth)?;
        Ok(Self {
            x,
            kernel,
            bandwidth,
        })
    }

    /// The bandwidth `h`.
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Density estimate at `x0`.
    pub fn evaluate(&self, x0: f64) -> f64 {
        let inv_h = 1.0 / self.bandwidth;
        let sum: f64 = self
            .x
            .iter()
            .map(|&xl| self.kernel.eval((x0 - xl) * inv_h))
            .sum();
        sum * inv_h / self.x.len() as f64
    }

    /// Density estimates over `count` evenly spaced points on `[lo, hi]`,
    /// returned as `(points, densities)`.
    pub fn evaluate_grid(&self, lo: f64, hi: f64, count: usize) -> (Vec<f64>, Vec<f64>) {
        let points: Vec<f64> = if count <= 1 {
            vec![lo]
        } else {
            let step = (hi - lo) / (count - 1) as f64;
            (0..count).map(|i| lo + step * i as f64).collect()
        };
        let densities = points.iter().map(|&p| self.evaluate(p)).collect();
        (points, densities)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Gaussian};
    use crate::util::SplitMix64;

    #[test]
    fn density_is_nonnegative_and_integrates_to_one() {
        let mut rng = SplitMix64::new(61);
        let x: Vec<f64> = (0..200).map(|_| rng.next_f64()).collect();
        let kde = Kde::new(&x, Epanechnikov, 0.1).unwrap();
        let (points, dens) = kde.evaluate_grid(-0.5, 1.5, 2001);
        assert!(dens.iter().all(|&d| d >= 0.0));
        let step = points[1] - points[0];
        let integral: f64 = dens.iter().sum::<f64>() * step;
        assert!((integral - 1.0).abs() < 0.01, "integral {integral}");
    }

    #[test]
    fn density_peaks_where_data_concentrates() {
        let x = [0.0, 0.01, 0.02, 0.03, 1.0];
        let kde = Kde::new(&x, Gaussian, 0.05).unwrap();
        assert!(kde.evaluate(0.015) > kde.evaluate(0.5));
        assert!(kde.evaluate(0.015) > kde.evaluate(1.0));
    }

    #[test]
    fn single_point_density_is_scaled_kernel() {
        let x = [0.5];
        let kde = Kde::new(&x, Epanechnikov, 0.2).unwrap();
        // f̂(0.5) = K(0)/h = 0.75/0.2.
        assert!((kde.evaluate(0.5) - 0.75 / 0.2).abs() < 1e-12);
        assert_eq!(kde.evaluate(2.0), 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Kde::new(&[], Epanechnikov, 0.1).is_err());
        assert!(Kde::new(&[f64::NAN], Epanechnikov, 0.1).is_err());
        assert!(Kde::new(&[1.0], Epanechnikov, 0.0).is_err());
    }
}

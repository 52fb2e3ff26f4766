//! Pointwise confidence intervals for kernel density estimates — the
//! remaining extension the paper names ("leave-one-out cross-validated
//! confidence intervals for kernel density estimates").
//!
//! The asymptotic pointwise variance of the KDE is
//! `Var(f̂(x)) ≈ f(x)·R(K)/(n·h)`; plugging in `f̂(x)` gives the standard
//! first-order band. The bandwidth is expected to come from the LSCV
//! machinery in this module's parent.

use super::Kde;
use crate::ci::normal_quantile;
use crate::error::{Error, Result};
use crate::kernels::Kernel;

/// A pointwise confidence band for a density estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct DensityBand {
    /// Evaluation points.
    pub points: Vec<f64>,
    /// Density estimates.
    pub densities: Vec<f64>,
    /// Lower band limits (clamped at 0 — densities are non-negative).
    pub lower: Vec<f64>,
    /// Upper band limits.
    pub upper: Vec<f64>,
    /// The normal critical value used.
    pub z: f64,
}

/// Builds the pointwise `level` confidence band for the KDE of `x` at
/// bandwidth `h`, over `points`.
pub fn density_band<K: Kernel + Clone>(
    x: &[f64],
    kernel: &K,
    h: f64,
    points: &[f64],
    level: f64,
) -> Result<DensityBand> {
    if !(0.0 < level && level < 1.0) {
        return Err(Error::InvalidGrid("confidence level must be in (0,1)"));
    }
    let kde = Kde::new(x, kernel.clone(), h)?;
    let n = x.len() as f64;
    let z = normal_quantile(0.5 + level / 2.0);
    let roughness = kernel.roughness();
    let mut densities = Vec::with_capacity(points.len());
    let mut lower = Vec::with_capacity(points.len());
    let mut upper = Vec::with_capacity(points.len());
    for &p in points {
        let f_hat = kde.evaluate(p);
        let se = (f_hat * roughness / (n * h)).sqrt();
        densities.push(f_hat);
        lower.push((f_hat - z * se).max(0.0));
        upper.push(f_hat + z * se);
    }
    Ok(DensityBand {
        points: points.to_vec(),
        densities,
        lower,
        upper,
        z,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;
    use crate::util::SplitMix64;

    fn uniform_sample(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64()).collect()
    }

    #[test]
    fn band_brackets_the_estimate() {
        let x = uniform_sample(500, 1);
        let points: Vec<f64> = (1..10).map(|i| i as f64 / 10.0).collect();
        let band = density_band(&x, &Epanechnikov, 0.1, &points, 0.95).unwrap();
        for i in 0..points.len() {
            assert!(band.lower[i] <= band.densities[i]);
            assert!(band.densities[i] <= band.upper[i]);
            assert!(band.lower[i] >= 0.0);
        }
    }

    #[test]
    fn band_mostly_covers_the_uniform_density() {
        // True density is 1 on [0,1]; interior coverage should be high.
        let x = uniform_sample(2_000, 2);
        let points: Vec<f64> = (15..=85).map(|i| i as f64 / 100.0).collect();
        let band = density_band(&x, &Epanechnikov, 0.08, &points, 0.95).unwrap();
        let covered = points
            .iter()
            .enumerate()
            .filter(|&(i, _)| band.lower[i] <= 1.0 && 1.0 <= band.upper[i])
            .count();
        let rate = covered as f64 / points.len() as f64;
        assert!(rate > 0.8, "coverage {rate}");
    }

    #[test]
    fn band_is_zero_width_where_there_is_no_mass() {
        let x = uniform_sample(100, 3);
        let band = density_band(&x, &Epanechnikov, 0.05, &[10.0], 0.95).unwrap();
        assert_eq!(band.densities[0], 0.0);
        assert_eq!(band.lower[0], 0.0);
        assert_eq!(band.upper[0], 0.0);
    }

    #[test]
    fn band_tightens_with_n() {
        let width = |n: usize| {
            let x = uniform_sample(n, 4);
            let band = density_band(&x, &Epanechnikov, 0.1, &[0.5], 0.95).unwrap();
            band.upper[0] - band.lower[0]
        };
        assert!(width(4_000) < width(250) / 2.0);
    }

    #[test]
    fn invalid_level_rejected() {
        let x = uniform_sample(50, 5);
        assert!(density_band(&x, &Epanechnikov, 0.1, &[0.5], 1.5).is_err());
    }
}

//! The local-linear estimator.

use super::RegressionEstimator;
use crate::error::{validate_bandwidth, validate_sample, Result};
use crate::kernels::Kernel;

/// Threshold below which the weighted-design determinant is treated as
/// degenerate, relative to `S0² · h²` scaling.
const DEGENERACY_REL_TOL: f64 = 1e-12;

/// The local-linear estimator: at each evaluation point `x0` it fits the
/// weighted least-squares line `Y ≈ a + b(X − x0)` with weights
/// `K((x0 − X_l)/h)` and reports `a`.
///
/// It removes the boundary bias of Nadaraya–Watson at the cost of possible
/// degeneracy when all in-window regressors coincide. Its leave-one-out
/// fit is the oracle of the local-linear CV sweeps (`cv_profile_naive_ll`).
#[derive(Debug, Clone)]
pub struct LocalLinear<'a, K: Kernel> {
    x: &'a [f64],
    y: &'a [f64],
    kernel: K,
    bandwidth: f64,
}

impl<'a, K: Kernel> LocalLinear<'a, K> {
    /// Constructs the estimator, validating data and bandwidth.
    pub fn new(x: &'a [f64], y: &'a [f64], kernel: K, bandwidth: f64) -> Result<Self> {
        validate_sample(x, y, 2)?;
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

    /// Weighted moment sums at `x0`:
    /// `S_j = Σ K (X−x0)^j` (j = 0,1,2), `T_j = Σ K Y (X−x0)^j` (j = 0,1),
    /// optionally skipping one index.
    fn moments(&self, x0: f64, skip: Option<usize>) -> [f64; 5] {
        let inv_h = 1.0 / self.bandwidth;
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        let mut t0 = 0.0;
        let mut t1 = 0.0;
        for (l, (&xl, &yl)) in self.x.iter().zip(self.y).enumerate() {
            if Some(l) == skip {
                continue;
            }
            let d = xl - x0;
            let w = self.kernel.eval(d * inv_h);
            if w == 0.0 {
                continue;
            }
            s0 += w;
            s1 += w * d;
            s2 += w * d * d;
            t0 += w * yl;
            t1 += w * yl * d;
        }
        [s0, s1, s2, t0, t1]
    }
}

/// Solves the local-linear system given the weighted moments
/// `[S0, S1, S2, T0, T1]` (see [`LocalLinear`]); `None` when the weight
/// mass is not positive (NaN included) or the solution is not finite,
/// local-constant fallback when the design is degenerate.
///
/// Shared with the sorted-sweep and prefix cross-validation paths so every
/// strategy agrees exactly on degeneracy decisions. Once `(1/h)^j`
/// overflows, the sweeps' moments turn NaN or infinite where the naive
/// oracle's kernel weights are all zero; both cases exclude the
/// observation.
pub(crate) fn solve_local_linear(m: [f64; 5], h: f64) -> Option<f64> {
    let [s0, s1, s2, t0, t1] = m;
    if s0.is_nan() || s0 <= 0.0 {
        return None;
    }
    let det = s0 * s2 - s1 * s1;
    // Scale-aware degeneracy check: det has units of K²·x², compare
    // against S0²h² (the natural magnitude when points are spread).
    let g = if det <= DEGENERACY_REL_TOL * s0 * s0 * h * h {
        // Fall back to the local-constant estimate when only one
        // distinct x is in the window (standard practice).
        t0 / s0
    } else {
        (s2 * t0 - s1 * t1) / det
    };
    g.is_finite().then_some(g)
}

impl<K: Kernel> RegressionEstimator for LocalLinear<'_, K> {
    fn predict(&self, x0: f64) -> Option<f64> {
        solve_local_linear(self.moments(x0, None), self.bandwidth)
    }

    fn loo_predict(&self, i: usize) -> Option<f64> {
        assert!(i < self.x.len(), "loo index {i} out of bounds");
        solve_local_linear(self.moments(self.x[i], Some(i)), self.bandwidth)
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
    use crate::kernels::{Epanechnikov, Gaussian};

    #[test]
    fn recovers_exact_lines() {
        // Local-linear is exact for linear truth regardless of design.
        let x: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 + 3.0 * v).collect();
        let fit = LocalLinear::new(&x, &y, Epanechnikov, 0.2).unwrap();
        for &p in &[0.0, 0.1, 0.5, 0.9, 1.0] {
            let g = fit.predict(p).unwrap();
            assert!((g - (2.0 + 3.0 * p)).abs() < 1e-10, "at {p}: {g}");
        }
    }

    #[test]
    fn no_boundary_bias_on_lines_unlike_nw() {
        use crate::estimate::NadarayaWatson;
        let x: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| 10.0 * v).collect();
        let ll = LocalLinear::new(&x, &y, Epanechnikov, 0.3).unwrap();
        let nw = NadarayaWatson::new(&x, &y, Epanechnikov, 0.3).unwrap();
        let ll_err = (ll.predict(0.0).unwrap() - 0.0).abs();
        let nw_err = (nw.predict(0.0).unwrap() - 0.0).abs();
        assert!(ll_err < 1e-10);
        assert!(
            nw_err > 0.1,
            "NW should be biased at the boundary: {nw_err}"
        );
    }

    #[test]
    fn degenerate_window_falls_back_to_local_constant() {
        // All in-window x identical → determinant 0 → local average.
        let x = [0.5, 0.5, 0.5, 5.0];
        let y = [1.0, 2.0, 3.0, 100.0];
        let fit = LocalLinear::new(&x, &y, Epanechnikov, 0.2).unwrap();
        assert!((fit.predict(0.5).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_yields_none() {
        let x = [0.0, 1.0];
        let y = [1.0, 2.0];
        let fit = LocalLinear::new(&x, &y, Epanechnikov, 0.05).unwrap();
        assert_eq!(fit.predict(0.5), None);
    }

    #[test]
    fn loo_excludes_own_observation_on_lines() {
        let x: Vec<f64> = (0..30).map(|i| i as f64 / 29.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| 1.0 - 2.0 * v).collect();
        let fit = LocalLinear::new(&x, &y, Gaussian, 0.2).unwrap();
        // On exact lines, LOO residuals are ~0 everywhere.
        for r in fit.loo_residuals() {
            assert!(r.unwrap().abs() < 1e-9);
        }
        assert!(fit.cv_score() < 1e-18);
    }

    #[test]
    fn requires_at_least_two_points() {
        assert!(LocalLinear::new(&[1.0], &[1.0], Epanechnikov, 0.5).is_err());
    }
}

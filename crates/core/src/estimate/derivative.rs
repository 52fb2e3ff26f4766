//! Derivative (marginal-effect) estimation.
//!
//! The local-linear fit at `x0` estimates both the level `a = ĝ(x0)` and
//! the slope `b = ĝ′(x0)` — the *marginal effect*, which is what applied
//! econometrics usually wants from a nonparametric regression (np exposes
//! it as `gradients(npreg(...))`). This module returns the slope from the
//! same weighted least-squares system the level comes from.

use crate::error::{validate_bandwidth, validate_sample, Result};
use crate::kernels::Kernel;

/// Local-linear level-and-slope estimates at a point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFit {
    /// The level estimate `ĝ(x0)`.
    pub level: f64,
    /// The slope estimate `ĝ′(x0)` (the marginal effect).
    pub slope: f64,
}

/// Estimates `(ĝ(x0), ĝ′(x0))` by a local-linear fit at `x0`; `None` when
/// the window is empty or the design is locally degenerate (a slope needs
/// two distinct regressor values in the window).
pub fn local_fit<K: Kernel>(
    x: &[f64],
    y: &[f64],
    kernel: &K,
    h: f64,
    x0: f64,
) -> Result<Option<LocalFit>> {
    validate_sample(x, y, 2)?;
    validate_bandwidth(h)?;
    let inv_h = 1.0 / h;
    let mut s0 = 0.0;
    let mut s1 = 0.0;
    let mut s2 = 0.0;
    let mut t0 = 0.0;
    let mut t1 = 0.0;
    for (&xl, &yl) in x.iter().zip(y) {
        let d = xl - x0;
        let w = kernel.eval(d * inv_h);
        if w == 0.0 {
            continue;
        }
        s0 += w;
        s1 += w * d;
        s2 += w * d * d;
        t0 += w * yl;
        t1 += w * yl * d;
    }
    if s0 <= 0.0 {
        return Ok(None);
    }
    let det = s0 * s2 - s1 * s1;
    if det <= 1e-12 * s0 * s0 * h * h {
        return Ok(None); // level would exist, but no identifiable slope
    }
    Ok(Some(LocalFit {
        level: (s2 * t0 - s1 * t1) / det,
        slope: (s0 * t1 - s1 * t0) / det,
    }))
}

/// Marginal effects over a set of evaluation points: `ĝ′(p)` for each `p`
/// (`None` where not identified).
pub fn marginal_effects<K: Kernel>(
    x: &[f64],
    y: &[f64],
    kernel: &K,
    h: f64,
    points: &[f64],
) -> Result<Vec<Option<f64>>> {
    points
        .iter()
        .map(|&p| Ok(local_fit(x, y, kernel, h, p)?.map(|f| f.slope)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Gaussian};
    use crate::util::SplitMix64;

    #[test]
    fn slope_is_exact_on_lines() {
        let x: Vec<f64> = (0..60).map(|i| i as f64 / 59.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| 4.0 - 3.0 * v).collect();
        for &p in &[0.1, 0.5, 0.9] {
            let fit = local_fit(&x, &y, &Epanechnikov, 0.25, p).unwrap().unwrap();
            assert!(
                (fit.slope + 3.0).abs() < 1e-10,
                "slope at {p}: {}",
                fit.slope
            );
            assert!((fit.level - (4.0 - 3.0 * p)).abs() < 1e-10);
        }
    }

    #[test]
    fn slope_tracks_the_derivative_of_the_paper_dgp() {
        // g(x) = 0.5x + 10x² + E[u] → g′(x) = 0.5 + 20x.
        let mut rng = SplitMix64::new(801);
        let x: Vec<f64> = (0..3_000).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        for &p in &[0.3, 0.5, 0.7] {
            let truth = 0.5 + 20.0 * p;
            let fit = local_fit(&x, &y, &Gaussian, 0.05, p).unwrap().unwrap();
            assert!(
                (fit.slope - truth).abs() < 0.8,
                "g'({p}) = {} vs truth {truth}",
                fit.slope
            );
        }
    }

    #[test]
    fn marginal_effects_increase_along_a_convex_curve() {
        let mut rng = SplitMix64::new(802);
        let x: Vec<f64> = (0..2_000).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x.iter().map(|&v| v * v + 0.05 * rng.next_f64()).collect();
        let points = [0.2, 0.5, 0.8];
        let effects = marginal_effects(&x, &y, &Epanechnikov, 0.1, &points).unwrap();
        let slopes: Vec<f64> = effects.into_iter().map(|e| e.unwrap()).collect();
        assert!(slopes[0] < slopes[1] && slopes[1] < slopes[2], "{slopes:?}");
    }

    #[test]
    fn degenerate_windows_yield_none() {
        let x = [0.0, 0.0, 1.0];
        let y = [1.0, 2.0, 3.0];
        // Window around 0 sees two identical x values → no slope.
        assert_eq!(local_fit(&x, &y, &Epanechnikov, 0.2, 0.0).unwrap(), None);
        // Empty window.
        assert_eq!(local_fit(&x, &y, &Epanechnikov, 0.2, 0.5).unwrap(), None);
    }

    #[test]
    fn validates_inputs() {
        assert!(local_fit(&[1.0], &[1.0], &Epanechnikov, 0.1, 0.5).is_err());
        assert!(local_fit(&[1.0, 2.0], &[1.0, 2.0], &Epanechnikov, 0.0, 0.5).is_err());
    }
}

//! Kernel regression estimators.
//!
//! * [`NadarayaWatson`] — the local-constant estimator the paper uses
//!   (its §IV: "the most commonly used kernel regression estimator and the
//!   default in the common R package np").
//! * [`LocalLinear`] — the local-linear estimator, provided because the `np`
//!   baseline exposes both regression types.
//!
//! Both expose plain prediction and the leave-one-out variant that the
//! cross-validation objective is built on.

pub(crate) mod local_linear;
mod nw;

pub use local_linear::LocalLinear;
pub use nw::NadarayaWatson;

use crate::error::Result;

/// Common interface of the regression estimators.
pub trait RegressionEstimator {
    /// Predicts `E[Y | X = x0]`, or `None` when the local weight mass is
    /// zero/degenerate at `x0` (the `M(X_i) = 0` case of the paper's Eq. 1).
    fn predict(&self, x0: f64) -> Option<f64>;

    /// Leave-one-out prediction at sample point `i`: the fit at `X_i` with
    /// observation `i` removed (the `ĝ_{-i}(X_i)` of the paper's Eq. 2).
    fn loo_predict(&self, i: usize) -> Option<f64>;

    /// Number of observations.
    fn len(&self) -> usize;

    /// True when the sample is empty (cannot occur through constructors).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Predictions at each of `points`.
    fn predict_many(&self, points: &[f64]) -> Vec<Option<f64>> {
        points.iter().map(|&p| self.predict(p)).collect()
    }

    /// In-sample fitted values `ĝ(X_i)`.
    fn fitted(&self) -> Vec<Option<f64>>;

    /// Leave-one-out residuals `Y_i − ĝ_{-i}(X_i)`; `None` where the
    /// leave-one-out denominator vanishes.
    fn loo_residuals(&self) -> Vec<Option<f64>>;

    /// The leave-one-out cross-validation score
    /// `CV = (1/n) Σ (Y_i − ĝ_{-i}(X_i))² M(X_i)` — a direct (slow)
    /// reference implementation of the paper's Eq. 1 for one bandwidth.
    fn cv_score(&self) -> f64;
}

/// A fitted curve: evaluation points paired with estimates, convenient for
/// plotting and for example binaries.
#[derive(Debug, Clone, PartialEq)]
pub struct FittedCurve {
    /// Evaluation points.
    pub points: Vec<f64>,
    /// Estimates; `None` where the estimator was degenerate.
    pub estimates: Vec<Option<f64>>,
}

impl FittedCurve {
    /// Evaluates `estimator` over `count` evenly spaced points spanning
    /// `[lo, hi]`.
    pub fn evaluate<E: RegressionEstimator>(
        estimator: &E,
        lo: f64,
        hi: f64,
        count: usize,
    ) -> Result<Self> {
        let points: Vec<f64> = if count <= 1 {
            vec![lo]
        } else {
            let step = (hi - lo) / (count - 1) as f64;
            (0..count).map(|i| lo + step * i as f64).collect()
        };
        let estimates = estimator.predict_many(&points);
        Ok(Self { points, estimates })
    }

    /// Fraction of evaluation points where the estimate was defined.
    pub fn coverage(&self) -> f64 {
        if self.estimates.is_empty() {
            return 0.0;
        }
        self.estimates.iter().filter(|e| e.is_some()).count() as f64 / self.estimates.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;

    #[test]
    fn fitted_curve_spans_and_covers() {
        let x: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v).collect();
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.2).unwrap();
        let curve = FittedCurve::evaluate(&fit, 0.0, 1.0, 21).unwrap();
        assert_eq!(curve.points.len(), 21);
        assert_eq!(curve.points[0], 0.0);
        assert_eq!(*curve.points.last().unwrap(), 1.0);
        assert_eq!(curve.coverage(), 1.0);
    }

    #[test]
    fn fitted_curve_reports_partial_coverage() {
        let x = [0.0, 0.1, 1.0];
        let y = [1.0, 2.0, 3.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 0.15).unwrap();
        // Points around 0.5 have empty windows.
        let curve = FittedCurve::evaluate(&fit, 0.0, 1.0, 11).unwrap();
        assert!(curve.coverage() < 1.0);
        assert!(curve.coverage() > 0.0);
    }

    #[test]
    fn single_point_curve() {
        let x = [0.0, 1.0];
        let y = [1.0, 2.0];
        let fit = NadarayaWatson::new(&x, &y, Epanechnikov, 2.0).unwrap();
        let curve = FittedCurve::evaluate(&fit, 0.5, 0.9, 1).unwrap();
        assert_eq!(curve.points, vec![0.5]);
    }
}

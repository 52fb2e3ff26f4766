//! `npreg` — fitting the regression at a selected bandwidth.

use crate::regbw::{CKerType, NpRegBw, RegType};
use kcv_core::diagnostics::{diagnostics, FitDiagnostics};
use kcv_core::error::Result;
use kcv_core::estimate::{LocalLinear, NadarayaWatson, RegressionEstimator};
use kcv_core::kernels::{Epanechnikov, Gaussian, Uniform};

/// The fitted regression object — the analogue of R's `npregression`.
#[derive(Debug, Clone)]
pub struct NpReg {
    /// The bandwidth used.
    pub bw: f64,
    /// Fitted values `ĝ(X_i)` (`None` where degenerate).
    pub fitted: Vec<Option<f64>>,
    /// In-sample residuals (`None` where degenerate).
    pub residuals: Vec<Option<f64>>,
    /// Fit diagnostics (MSE, R², LOO MSE).
    pub diagnostics: FitDiagnostics,
}

impl NpReg {
    /// An np-style text summary.
    pub fn summary(&self) -> String {
        format!(
            "Regression Data: {} training points\n\
             Bandwidth: {:.6}\n\
             Kernel Regression Estimator\n\n\
             Residual standard error: {:.6}\n\
             R-squared: {:.6}\n",
            self.fitted.len(),
            self.bw,
            self.diagnostics.mse.sqrt(),
            self.diagnostics.r_squared,
        )
    }
}

/// Fits the regression implied by a [`NpRegBw`] object on `(x, y)` —
/// `npreg(bws)` in R.
pub fn npreg(bws: &NpRegBw, x: &[f64], y: &[f64]) -> Result<NpReg> {
    macro_rules! fit_with {
        ($kernel:expr) => {{
            match bws.options.regtype {
                RegType::Lc => {
                    let fit = NadarayaWatson::new(x, y, $kernel, bws.bw)?;
                    (fit.fitted(), diagnostics(&fit, y))
                }
                RegType::Ll => {
                    let fit = LocalLinear::new(x, y, $kernel, bws.bw)?;
                    (fit.fitted(), diagnostics(&fit, y))
                }
            }
        }};
    }
    let (fitted, diag) = match bws.options.ckertype {
        CKerType::Epanechnikov => fit_with!(Epanechnikov),
        CKerType::Gaussian => fit_with!(Gaussian),
        CKerType::Uniform => fit_with!(Uniform),
    };
    let residuals = fitted
        .iter()
        .zip(y)
        .map(|(f, &yi)| f.map(|g| yi - g))
        .collect();
    Ok(NpReg {
        bw: bws.bw,
        fitted,
        residuals,
        diagnostics: diag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regbw::{npregbw, NpRegBwOptions};
    use kcv_core::util::SplitMix64;

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
    fn end_to_end_fit_is_good_on_paper_dgp() {
        let (x, y) = paper_dgp(300, 11);
        let bws = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
        let fit = npreg(&bws, &x, &y).unwrap();
        assert!(
            fit.diagnostics.r_squared > 0.95,
            "R² {}",
            fit.diagnostics.r_squared
        );
        assert_eq!(fit.fitted.len(), 300);
        // Residuals consistent with fitted values.
        for ((f, r), &yi) in fit.fitted.iter().zip(&fit.residuals).zip(&y) {
            match (f, r) {
                (Some(g), Some(res)) => assert!((yi - g - res).abs() < 1e-12),
                (None, None) => {}
                other => panic!("inconsistent fit/residual: {other:?}"),
            }
        }
    }

    #[test]
    fn local_linear_fit_works() {
        let (x, y) = paper_dgp(150, 12);
        let bws = npregbw(
            &x,
            &y,
            NpRegBwOptions {
                regtype: RegType::Ll,
                ..Default::default()
            },
        )
        .unwrap();
        let fit = npreg(&bws, &x, &y).unwrap();
        assert!(fit.diagnostics.r_squared > 0.95);
    }

    #[test]
    fn summary_is_printable() {
        let (x, y) = paper_dgp(80, 13);
        let bws = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
        let fit = npreg(&bws, &x, &y).unwrap();
        let s = fit.summary();
        assert!(s.contains("R-squared"));
        assert!(s.contains("Bandwidth"));
    }
}

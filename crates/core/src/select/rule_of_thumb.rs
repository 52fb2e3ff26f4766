//! Rule-of-thumb bandwidths — the ad hoc shortcuts the paper's introduction
//! says practitioners use *instead of* optimal cross-validation (citing
//! Sheather–Jones and Silverman for the density case).
//!
//! These never evaluate the CV objective; they plug sample spread into an
//! asymptotic formula derived for Gaussian data. They are provided as
//! baselines.

use super::{BandwidthSelector, Selection};
use crate::error::{validate_sample, Error, Result};
use crate::kernels::Kernel;
use crate::util::{interquartile_range, std_dev};

/// Silverman's rule of thumb:
/// `h = 0.9 · min(σ̂, IQR/1.34) · n^{-1/5}`,
/// rescaled by the kernel's canonical bandwidth ratio relative to the
/// Gaussian (`δ₀(K)/δ₀(φ)`), so it is usable with any kernel.
pub fn silverman_bandwidth<K: Kernel>(x: &[f64], kernel: &K) -> Result<f64> {
    spread_rule(x, kernel, 0.9, true)
}

/// Scott's rule of thumb: `h = 1.06 · σ̂ · n^{-1/5}`, similarly rescaled.
pub fn scott_bandwidth<K: Kernel>(x: &[f64], kernel: &K) -> Result<f64> {
    spread_rule(x, kernel, 1.06, false)
}

fn spread_rule<K: Kernel>(x: &[f64], kernel: &K, c: f64, robust: bool) -> Result<f64> {
    if x.len() < 2 {
        return Err(Error::SampleTooSmall {
            n: x.len(),
            required: 2,
        });
    }
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteData {
            which: "x",
            index: i,
        });
    }
    let sigma = std_dev(x);
    let spread = if robust {
        let iqr = interquartile_range(x) / 1.34;
        if iqr > 0.0 {
            sigma.min(iqr)
        } else {
            sigma
        }
    } else {
        sigma
    };
    if spread <= 0.0 {
        return Err(Error::DegenerateDomain);
    }
    // δ₀(Gaussian) = (R/κ₂²)^{1/5} = (1/(2√π))^{1/5}.
    let gaussian_delta = (0.5 / std::f64::consts::PI.sqrt()).powf(0.2);
    let ratio = kernel.canonical_bandwidth() / gaussian_delta;
    Ok(c * spread * (x.len() as f64).powf(-0.2) * ratio)
}

/// Which rule the [`RuleOfThumbSelector`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Silverman's `0.9·min(σ, IQR/1.34)·n^{-1/5}`.
    Silverman,
    /// Scott's `1.06·σ·n^{-1/5}`.
    Scott,
}

/// A [`BandwidthSelector`] wrapping the plug-in rules. Its `score` field is
/// `NaN`: rules of thumb never look at the objective — that is precisely the
/// shortcoming the paper's fast grid search removes the excuse for.
#[derive(Debug, Clone)]
pub struct RuleOfThumbSelector<K: Kernel> {
    kernel: K,
    rule: Rule,
}

impl<K: Kernel> RuleOfThumbSelector<K> {
    /// Creates a selector applying `rule` with `kernel`'s canonical rescale.
    pub fn new(kernel: K, rule: Rule) -> Self {
        Self { kernel, rule }
    }
}

impl<K: Kernel> BandwidthSelector for RuleOfThumbSelector<K> {
    fn select(&self, x: &[f64], y: &[f64]) -> Result<Selection> {
        validate_sample(x, y, 2)?;
        let h = match self.rule {
            Rule::Silverman => silverman_bandwidth(x, &self.kernel)?,
            Rule::Scott => scott_bandwidth(x, &self.kernel)?,
        };
        Ok(Selection {
            bandwidth: h,
            score: f64::NAN,
            evaluations: 0,
            profile: None,
        })
    }

    fn name(&self) -> String {
        let r = match self.rule {
            Rule::Silverman => "silverman",
            Rule::Scott => "scott",
        };
        format!("rot-{r}-{}", self.kernel.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Gaussian};
    use crate::util::SplitMix64;

    fn uniform_x(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n).map(|_| rng.next_f64()).collect()
    }

    #[test]
    fn silverman_gaussian_matches_textbook_formula() {
        let x = uniform_x(500, 51);
        let h = silverman_bandwidth(&x, &Gaussian).unwrap();
        let sigma = std_dev(&x);
        let iqr = interquartile_range(&x) / 1.34;
        let expected = 0.9 * sigma.min(iqr) * 500f64.powf(-0.2);
        assert!((h - expected).abs() < 1e-12);
    }

    #[test]
    fn epanechnikov_rule_is_wider_than_gaussian() {
        // δ₀(Epa)/δ₀(Gauss) ≈ 1.7188/0.7764 ≈ 2.214 > 1.
        let x = uniform_x(200, 52);
        let hg = silverman_bandwidth(&x, &Gaussian).unwrap();
        let he = silverman_bandwidth(&x, &Epanechnikov).unwrap();
        assert!(he > 2.0 * hg && he < 2.5 * hg, "ratio {}", he / hg);
    }

    #[test]
    fn bandwidth_shrinks_with_sample_size() {
        let small = silverman_bandwidth(&uniform_x(100, 53), &Gaussian).unwrap();
        let large = silverman_bandwidth(&uniform_x(10_000, 53), &Gaussian).unwrap();
        assert!(large < small);
        // n^{-1/5} scaling: factor ≈ 100^{-0.2} ≈ 0.398.
        let ratio = large / small;
        assert!(ratio > 0.3 && ratio < 0.5, "ratio {ratio}");
    }

    #[test]
    fn scott_exceeds_silverman_on_gaussian_like_data() {
        // 1.06σ ≥ 0.9·min(σ, IQR/1.34) always when IQR/1.34 ≈ σ.
        let x = uniform_x(300, 54);
        let scott = scott_bandwidth(&x, &Gaussian).unwrap();
        let silv = silverman_bandwidth(&x, &Gaussian).unwrap();
        assert!(scott > silv);
    }

    #[test]
    fn selector_wrapper_reports_nan_score() {
        let x = uniform_x(100, 55);
        let y: Vec<f64> = x.iter().map(|v| v * 2.0).collect();
        let sel = RuleOfThumbSelector::new(Epanechnikov, Rule::Silverman)
            .select(&x, &y)
            .unwrap();
        assert!(sel.score.is_nan());
        assert_eq!(sel.evaluations, 0);
        assert!(sel.bandwidth > 0.0);
    }

    #[test]
    fn degenerate_data_is_rejected() {
        let x = [2.0, 2.0, 2.0, 2.0];
        assert!(silverman_bandwidth(&x, &Gaussian).is_err());
    }
}

//! Bandwidth grids for the grid search.
//!
//! The paper considers an evenly spaced array of `k` candidate bandwidths.
//! By default the largest is the domain of `X` (max − min) and the smallest
//! is that domain divided by `k`. Section IV-A also suggests running the
//! optimisation "multiple times with progressively smaller ranges" when more
//! precision is needed than the constant-memory limit of 2 048 bandwidths
//! allows; [`BandwidthGrid::refine_around`] implements that zoom step.

use crate::error::{Error, Result};
use crate::util::min_max;

/// An ascending array of candidate bandwidths.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthGrid {
    values: Vec<f64>,
}

impl BandwidthGrid {
    /// Builds an evenly spaced grid of `count` bandwidths on `[min, max]`
    /// (inclusive of both endpoints; `count == 1` yields just `min`).
    pub fn linear(min: f64, max: f64, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(Error::InvalidGrid("count must be positive"));
        }
        if !(min.is_finite() && max.is_finite()) || min <= 0.0 || max < min {
            return Err(Error::InvalidGrid("need 0 < min <= max, both finite"));
        }
        if count == 1 {
            return Ok(Self { values: vec![min] });
        }
        let step = (max - min) / (count - 1) as f64;
        let mut values: Vec<f64> = (0..count).map(|i| min + step * i as f64).collect();
        // `min + step·(count−1)` can drift an ulp away from (and past) `max`;
        // the grid promises inclusive endpoints, so pin the last value.
        values[count - 1] = max;
        Ok(Self { values })
    }

    /// Builds a log-spaced grid of `count` bandwidths on `[min, max]` —
    /// useful when the plausible bandwidths span orders of magnitude.
    pub fn log(min: f64, max: f64, count: usize) -> Result<Self> {
        if count == 0 {
            return Err(Error::InvalidGrid("count must be positive"));
        }
        if !(min.is_finite() && max.is_finite()) || min <= 0.0 || max < min {
            return Err(Error::InvalidGrid("need 0 < min <= max, both finite"));
        }
        if count == 1 {
            return Ok(Self { values: vec![min] });
        }
        let (lmin, lmax) = (min.ln(), max.ln());
        let step = (lmax - lmin) / (count - 1) as f64;
        let mut values: Vec<f64> = (0..count).map(|i| (lmin + step * i as f64).exp()).collect();
        // exp(ln(max)) need not round-trip; pin the endpoint like `linear`.
        values[count - 1] = max;
        Ok(Self { values })
    }

    /// The paper's default grid for a regressor sample: `count` evenly spaced
    /// bandwidths with `max = max(x) − min(x)` (the domain) and
    /// `min = domain / count`.
    pub fn paper_default(x: &[f64], count: usize) -> Result<Self> {
        // Reject non-finite regressors up front: a NaN would flow through
        // `min_max` into a misleading "need 0 < min <= max" grid error.
        if let Some(index) = x.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteData { which: "x", index });
        }
        let (lo, hi) = min_max(x).ok_or(Error::InvalidGrid("empty sample"))?;
        let domain = hi - lo;
        if domain <= 0.0 {
            return Err(Error::DegenerateDomain);
        }
        Self::linear(domain / count as f64, domain, count)
    }

    /// Wraps an explicit, strictly increasing, positive bandwidth array.
    pub fn from_values(values: Vec<f64>) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::InvalidGrid("empty grid"));
        }
        if values.iter().any(|v| !v.is_finite() || *v <= 0.0) {
            return Err(Error::InvalidGrid("bandwidths must be finite and positive"));
        }
        if values.windows(2).any(|w| w[0] >= w[1]) {
            return Err(Error::InvalidGrid("bandwidths must be strictly increasing"));
        }
        Ok(Self { values })
    }

    /// The candidate bandwidths, ascending.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of candidates `k`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the grid is empty (never, by construction, but included for
    /// API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Smallest candidate.
    pub fn min(&self) -> f64 {
        self.values[0]
    }

    /// Largest candidate.
    pub fn max(&self) -> f64 {
        *self.values.last().expect("grid is never empty")
    }

    /// Grid spacing between the first two candidates (0 for a single-point
    /// grid). For linear grids this is the uniform step.
    pub fn step(&self) -> f64 {
        if self.values.len() < 2 {
            0.0
        } else {
            self.values[1] - self.values[0]
        }
    }

    /// Produces a finer grid of `count` points spanning ± one current step
    /// around `center` (clamped to stay positive) — the "progressively
    /// smaller ranges" zoom of §IV-A.
    pub fn refine_around(&self, center: f64, count: usize) -> Result<Self> {
        // The zoom target must be a usable bandwidth; a NaN/∞/non-positive
        // center would otherwise surface as an opaque grid-construction
        // error (or, for subnormal spans, silently clamp to nonsense).
        if !center.is_finite() || center <= 0.0 {
            return Err(Error::InvalidBandwidth(center));
        }
        let span = if self.values.len() < 2 {
            center * 0.5
        } else {
            self.step()
        };
        let lo = (center - span)
            .max(f64::MIN_POSITIVE.sqrt())
            .max(center * 1e-6);
        let hi = center + span;
        Self::linear(lo, hi, count)
    }
}

impl<'a> IntoIterator for &'a BandwidthGrid {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_grid_endpoints_and_count() {
        let g = BandwidthGrid::linear(0.1, 1.0, 10).unwrap();
        assert_eq!(g.len(), 10);
        assert!((g.min() - 0.1).abs() < 1e-15);
        assert!((g.max() - 1.0).abs() < 1e-15);
        assert!((g.step() - 0.1).abs() < 1e-15);
    }

    #[test]
    fn linear_grid_is_evenly_spaced() {
        let g = BandwidthGrid::linear(0.02, 1.0, 50).unwrap();
        let diffs: Vec<f64> = g.values().windows(2).map(|w| w[1] - w[0]).collect();
        for d in &diffs {
            assert!((d - diffs[0]).abs() < 1e-12);
        }
    }

    #[test]
    fn single_point_grid() {
        let g = BandwidthGrid::linear(0.5, 1.0, 1).unwrap();
        assert_eq!(g.values(), &[0.5]);
        assert_eq!(g.step(), 0.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(BandwidthGrid::linear(0.1, 1.0, 0).is_err());
        assert!(BandwidthGrid::linear(0.0, 1.0, 5).is_err());
        assert!(BandwidthGrid::linear(-0.1, 1.0, 5).is_err());
        assert!(BandwidthGrid::linear(2.0, 1.0, 5).is_err());
        assert!(BandwidthGrid::linear(f64::NAN, 1.0, 5).is_err());
    }

    #[test]
    fn linear_grid_last_element_is_exactly_max() {
        // Awkward (min, max, count) triples where min + step·(count−1)
        // drifts an ulp off max (upward or downward) without the pin.
        let cases: &[(f64, f64, usize)] = &[
            (0.1, 0.3, 3),
            (0.1, 1.0, 7),
            (1e-9, 1.0, 49),
            (0.02, 0.9999999999999999, 1000),
            (0.3333333333333333, 2.7081828459, 11),
            (f64::MIN_POSITIVE.sqrt(), 1e-100, 17),
            (0.1, 1e300, 23),
        ];
        for &(min, max, count) in cases {
            let g = BandwidthGrid::linear(min, max, count).unwrap();
            assert_eq!(
                g.max().to_bits(),
                max.to_bits(),
                "linear({min}, {max}, {count}) last element drifted"
            );
            assert_eq!(g.min().to_bits(), min.to_bits());
            assert!(
                g.values().windows(2).all(|w| w[0] < w[1]),
                "linear({min}, {max}, {count}) not ascending"
            );
        }
    }

    #[test]
    fn log_grid_last_element_is_exactly_max() {
        let g = BandwidthGrid::log(0.007, 3.15149, 9).unwrap();
        assert_eq!(g.max().to_bits(), 3.15149f64.to_bits());
    }

    #[test]
    fn paper_default_matches_section_iv() {
        // X uniform on [0,1] → domain 1, min = 1/k, max = 1.
        let x = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let g = BandwidthGrid::paper_default(&x, 50).unwrap();
        assert_eq!(g.len(), 50);
        assert!((g.min() - 1.0 / 50.0).abs() < 1e-15);
        assert!((g.max() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn paper_default_rejects_degenerate_domain() {
        assert_eq!(
            BandwidthGrid::paper_default(&[2.0, 2.0, 2.0], 10).unwrap_err(),
            Error::DegenerateDomain
        );
    }

    #[test]
    fn paper_default_rejects_non_finite_x_precisely() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                BandwidthGrid::paper_default(&[0.0, bad, 1.0], 10).unwrap_err(),
                Error::NonFiniteData {
                    which: "x",
                    index: 1
                }
            );
        }
    }

    #[test]
    fn refine_around_rejects_bad_center() {
        let g = BandwidthGrid::linear(0.02, 1.0, 50).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.3] {
            match g.refine_around(bad, 20) {
                Err(Error::InvalidBandwidth(c)) => {
                    assert!(c.is_nan() && bad.is_nan() || c == bad);
                }
                other => panic!("refine_around({bad}) returned {other:?}"),
            }
        }
    }

    #[test]
    fn log_grid_endpoints() {
        let g = BandwidthGrid::log(0.01, 1.0, 5).unwrap();
        assert!((g.min() - 0.01).abs() < 1e-12);
        assert!((g.max() - 1.0).abs() < 1e-12);
        // Multiplicative spacing is constant.
        let ratios: Vec<f64> = g.values().windows(2).map(|w| w[1] / w[0]).collect();
        for r in &ratios {
            assert!((r - ratios[0]).abs() < 1e-10);
        }
    }

    #[test]
    fn from_values_validates() {
        assert!(BandwidthGrid::from_values(vec![]).is_err());
        assert!(BandwidthGrid::from_values(vec![0.2, 0.1]).is_err());
        assert!(BandwidthGrid::from_values(vec![0.1, 0.1]).is_err());
        assert!(BandwidthGrid::from_values(vec![-0.1, 0.5]).is_err());
        let g = BandwidthGrid::from_values(vec![0.1, 0.5, 2.0]).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn refine_around_zooms_in() {
        let g = BandwidthGrid::linear(0.02, 1.0, 50).unwrap();
        let fine = g.refine_around(0.3, 50).unwrap();
        assert!(fine.min() > 0.0);
        assert!(fine.max() - fine.min() < g.max() - g.min());
        assert!(fine.min() <= 0.3 && 0.3 <= fine.max());
        assert!(fine.step() < g.step());
    }

    #[test]
    fn refine_around_stays_positive_near_zero() {
        let g = BandwidthGrid::linear(0.02, 1.0, 50).unwrap();
        let fine = g.refine_around(0.01, 20).unwrap();
        assert!(fine.min() > 0.0);
    }

    #[test]
    fn iterates_in_ascending_order() {
        let g = BandwidthGrid::linear(0.1, 1.0, 7).unwrap();
        let collected: Vec<f64> = (&g).into_iter().copied().collect();
        assert_eq!(collected, g.values());
    }
}

//! Summary statistics for samples (used by examples and the harness).

use crate::dgp::Sample;

/// Five-number-style summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleStats {
    /// Observation count.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
}

impl SampleStats {
    /// Computes the summary of a slice; `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Self> {
        let n = values.len();
        if n == 0 {
            return None;
        }
        let mut min = values[0];
        let mut max = values[0];
        let mut sum = 0.0;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
            sum += v;
        }
        let mean = sum / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1) as f64
        };
        Some(Self {
            n,
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        })
    }

    /// The domain (max − min).
    pub fn domain(&self) -> f64 {
        self.max - self.min
    }
}

/// Summaries of both variables of a regression sample.
pub fn describe(sample: &Sample) -> Option<(SampleStats, SampleStats)> {
    Some((SampleStats::of(&sample.x)?, SampleStats::of(&sample.y)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dgp::{Dgp, PaperDgp};

    #[test]
    fn stats_of_known_values() {
        let s = SampleStats::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.n, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-15);
        assert!((s.std_dev - 1.0).abs() < 1e-15);
        assert!((s.domain() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn empty_input_yields_none() {
        assert!(SampleStats::of(&[]).is_none());
    }

    #[test]
    fn paper_sample_statistics_are_plausible() {
        let sample = PaperDgp.sample(50_000, 2);
        let (xs, ys) = describe(&sample).unwrap();
        // X ~ U(0,1): mean ≈ 0.5, sd ≈ 1/√12 ≈ 0.2887.
        assert!((xs.mean - 0.5).abs() < 0.01);
        assert!((xs.std_dev - 0.2887).abs() < 0.01);
        // E[Y] = 0.5·0.5 + 10/3 + 0.25 ≈ 3.833.
        assert!((ys.mean - (0.25 + 10.0 / 3.0 + 0.25)).abs() < 0.05);
    }
}

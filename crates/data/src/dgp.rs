//! Data-generating processes.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A paired regression sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Regressor values.
    pub x: Vec<f64>,
    /// Response values.
    pub y: Vec<f64>,
}

impl Sample {
    /// Number of observations.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the sample is empty.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// The sample as `f32` vectors (the paper's CUDA program is
    /// single-precision throughout).
    pub fn to_f32(&self) -> (Vec<f32>, Vec<f32>) {
        (
            self.x.iter().map(|&v| v as f32).collect(),
            self.y.iter().map(|&v| v as f32).collect(),
        )
    }
}

/// A reproducible data-generating process.
pub trait Dgp {
    /// Draws `n` observations with the given seed.
    fn sample(&self, n: usize, seed: u64) -> Sample;

    /// The true conditional mean `E[Y | X = x]`.
    fn truth(&self, x: f64) -> f64;

    /// Name used in reports.
    fn name(&self) -> &'static str;
}

/// The paper's §IV process: `X ~ U(0,1)`,
/// `Y = 0.5·X + 10·X² + u`, `u ~ U(0, 0.5)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperDgp;

impl Dgp for PaperDgp {
    fn sample(&self, n: usize, seed: u64) -> Sample {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.random::<f64>())
            .collect();
        Sample { x, y }
    }

    fn truth(&self, x: f64) -> f64 {
        // E[u] = 0.25.
        0.5 * x + 10.0 * x * x + 0.25
    }

    fn name(&self) -> &'static str {
        "paper"
    }
}

/// Oscillating truth: `Y = sin(2π·f·X) + σ·ε`, `X ~ U(0,1)` —
/// small optimal bandwidths, stressing the fine end of the grid.
#[derive(Debug, Clone, Copy)]
pub struct SineDgp {
    /// Number of full periods over `[0, 1]`.
    pub frequency: f64,
    /// Gaussian noise standard deviation.
    pub noise: f64,
}

impl Default for SineDgp {
    fn default() -> Self {
        Self {
            frequency: 3.0,
            noise: 0.2,
        }
    }
}

impl Dgp for SineDgp {
    fn sample(&self, n: usize, seed: u64) -> Sample {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| self.truth(v) + self.noise * gaussian(&mut rng))
            .collect();
        Sample { x, y }
    }

    fn truth(&self, x: f64) -> f64 {
        (2.0 * std::f64::consts::PI * self.frequency * x).sin()
    }

    fn name(&self) -> &'static str {
        "sine"
    }
}

/// Discontinuous truth: a step at `X = 0.5` — kernel smoothing's worst case,
/// where CV should pick a *small* bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct StepDgp {
    /// Jump height.
    pub jump: f64,
    /// Gaussian noise standard deviation.
    pub noise: f64,
}

impl Default for StepDgp {
    fn default() -> Self {
        Self {
            jump: 2.0,
            noise: 0.25,
        }
    }
}

impl Dgp for StepDgp {
    fn sample(&self, n: usize, seed: u64) -> Sample {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| self.truth(v) + self.noise * gaussian(&mut rng))
            .collect();
        Sample { x, y }
    }

    fn truth(&self, x: f64) -> f64 {
        if x < 0.5 {
            0.0
        } else {
            self.jump
        }
    }

    fn name(&self) -> &'static str {
        "step"
    }
}

/// The Donoho–Johnstone doppler function: increasing oscillation towards
/// `x = 0`, a standard hard case for fixed-bandwidth smoothers.
#[derive(Debug, Clone, Copy)]
pub struct DopplerDgp {
    /// Gaussian noise standard deviation.
    pub noise: f64,
}

impl Default for DopplerDgp {
    fn default() -> Self {
        Self { noise: 0.1 }
    }
}

impl Dgp for DopplerDgp {
    fn sample(&self, n: usize, seed: u64) -> Sample {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| self.truth(v) + self.noise * gaussian(&mut rng))
            .collect();
        Sample { x, y }
    }

    fn truth(&self, x: f64) -> f64 {
        let eps = 0.05;
        (x * (1.0 - x)).max(0.0).sqrt()
            * ((2.0 * std::f64::consts::PI * (1.0 + eps)) / (x + eps)).sin()
    }

    fn name(&self) -> &'static str {
        "doppler"
    }
}

/// Heteroskedastic noise: the paper DGP's mean with `σ(x) = σ₀·(1 + 3x)` —
/// exercises the variance-estimation parts of the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct HeteroskedasticDgp {
    /// Base noise level `σ₀`.
    pub base_noise: f64,
}

impl Default for HeteroskedasticDgp {
    fn default() -> Self {
        Self { base_noise: 0.1 }
    }
}

impl Dgp for HeteroskedasticDgp {
    fn sample(&self, n: usize, seed: u64) -> Sample {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.random::<f64>()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| self.truth(v) + self.base_noise * (1.0 + 3.0 * v) * gaussian(&mut rng))
            .collect();
        Sample { x, y }
    }

    fn truth(&self, x: f64) -> f64 {
        0.5 * x + 10.0 * x * x
    }

    fn name(&self) -> &'static str {
        "heteroskedastic"
    }
}

/// One standard normal draw via Box–Muller.
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_dgps() -> Vec<Box<dyn Dgp>> {
        vec![
            Box::new(PaperDgp),
            Box::new(SineDgp::default()),
            Box::new(StepDgp::default()),
            Box::new(DopplerDgp::default()),
            Box::new(HeteroskedasticDgp::default()),
        ]
    }

    #[test]
    fn samples_are_reproducible_and_sized() {
        for dgp in all_dgps() {
            let a = dgp.sample(200, 42);
            let b = dgp.sample(200, 42);
            assert_eq!(a, b, "{} not reproducible", dgp.name());
            assert_eq!(a.len(), 200);
            let c = dgp.sample(200, 43);
            assert_ne!(a, c, "{} ignores seed", dgp.name());
        }
    }

    #[test]
    fn paper_dgp_ranges_match_section_iv() {
        let s = PaperDgp.sample(20_000, 1);
        assert!(s.x.iter().all(|&v| (0.0..1.0).contains(&v)));
        for (&x, &y) in s.x.iter().zip(&s.y) {
            let base = 0.5 * x + 10.0 * x * x;
            assert!(y >= base && y <= base + 0.5, "u outside [0, 0.5]");
        }
    }

    #[test]
    fn paper_truth_includes_mean_noise() {
        assert!((PaperDgp.truth(0.0) - 0.25).abs() < 1e-15);
        assert!((PaperDgp.truth(1.0) - 10.75).abs() < 1e-15);
    }

    #[test]
    fn residuals_center_on_truth() {
        for dgp in all_dgps() {
            let s = dgp.sample(50_000, 7);
            let mean_resid: f64 =
                s.x.iter()
                    .zip(&s.y)
                    .map(|(&x, &y)| y - dgp.truth(x))
                    .sum::<f64>()
                    / s.len() as f64;
            assert!(
                mean_resid.abs() < 0.02,
                "{}: mean residual {mean_resid}",
                dgp.name()
            );
        }
    }

    #[test]
    fn step_dgp_actually_jumps() {
        let d = StepDgp::default();
        assert_eq!(d.truth(0.49), 0.0);
        assert_eq!(d.truth(0.51), 2.0);
    }

    #[test]
    fn f32_conversion_round_trips_approximately() {
        let s = PaperDgp.sample(100, 3);
        let (x32, y32) = s.to_f32();
        for (a, b) in s.x.iter().zip(&x32) {
            assert!((a - *b as f64).abs() < 1e-6);
        }
        assert_eq!(y32.len(), 100);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f64 = draws.iter().sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }
}

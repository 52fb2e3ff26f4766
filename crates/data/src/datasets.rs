//! Canned example datasets, generated deterministically.
//!
//! Real survey microdata cannot be redistributed with the repository, so
//! these are *synthetic lookalikes* of datasets classic in the
//! nonparametric-econometrics literature (the np package ships the real
//! ones): plausible marginals and conditional shapes, fixed seeds, small
//! sizes. They exist so examples and docs can speak in applied terms.

use crate::dgp::Sample;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A cps71-style dataset: log wage against age for prime-age workers
/// (n = 205, like the original Canadian cross-section). The conditional
/// mean rises steeply through the twenties, plateaus in middle age, and
/// dips toward retirement — the canonical kernel-regression illustration.
pub fn cps71_like() -> Sample {
    let mut rng = StdRng::seed_from_u64(1971);
    let n = 205;
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let age = 21.0 + 44.0 * rng.random::<f64>(); // 21–65
        let peak = 13.2;
        let curve =
            peak - 0.4 * ((age - 47.0) / 10.0).powi(2) - 0.6 * (-((age - 21.0) / 6.0)).exp();
        let wage = curve + 0.45 * gaussian(&mut rng);
        x.push(age);
        y.push(wage);
    }
    Sample { x, y }
}

/// A motorcycle-style dataset: head acceleration against time after impact
/// (n = 133, like Silverman's motorcycle data) — sharply varying curvature
/// and heteroskedastic noise, a classic stress test for fixed bandwidths.
pub fn motorcycle_like() -> Sample {
    let mut rng = StdRng::seed_from_u64(1985);
    let n = 133;
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let t = 60.0 * rng.random::<f64>(); // milliseconds
        let mean = if t < 14.0 {
            0.0
        } else {
            // Damped oscillation after impact.
            -120.0 * (-(t - 14.0) / 12.0).exp() * ((t - 14.0) / 5.5).sin()
        };
        let noise_sd = if t < 14.0 { 3.0 } else { 18.0 };
        x.push(t);
        y.push(mean + noise_sd * gaussian(&mut rng));
    }
    Sample { x, y }
}

/// An Italy-GDP-style panel slice: regional GDP growth proxy against a
/// year index (n = 150) with a gentle trend — a smooth, low-noise case
/// where wide bandwidths win.
pub fn gdp_like() -> Sample {
    let mut rng = StdRng::seed_from_u64(1951);
    let n = 150;
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let year = 50.0 * rng.random::<f64>();
        let mean = 8.0 + 2.5 * (year / 50.0) + 1.2 * (year / 12.0).sin() * 0.2;
        x.push(year);
        y.push(mean + 0.35 * gaussian(&mut rng));
    }
    Sample { x, y }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_have_documented_sizes_and_are_deterministic() {
        assert_eq!(cps71_like().len(), 205);
        assert_eq!(motorcycle_like().len(), 133);
        assert_eq!(gdp_like().len(), 150);
        assert_eq!(cps71_like(), cps71_like());
        assert_eq!(motorcycle_like(), motorcycle_like());
    }

    #[test]
    fn cps71_shape_is_plausible() {
        let s = cps71_like();
        assert!(s.x.iter().all(|&a| (21.0..=65.0).contains(&a)));
        // Mean log-wage of the 40s cohort exceeds the early-20s cohort.
        let cohort_mean = |lo: f64, hi: f64| {
            let vals: Vec<f64> =
                s.x.iter()
                    .zip(&s.y)
                    .filter(|(&a, _)| a >= lo && a < hi)
                    .map(|(_, &w)| w)
                    .collect();
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        assert!(cohort_mean(40.0, 50.0) > cohort_mean(21.0, 26.0));
    }

    #[test]
    fn motorcycle_is_quiet_before_impact() {
        let s = motorcycle_like();
        let pre: Vec<f64> =
            s.x.iter()
                .zip(&s.y)
                .filter(|(&t, _)| t < 13.0)
                .map(|(_, &a)| a.abs())
                .collect();
        let post: Vec<f64> =
            s.x.iter()
                .zip(&s.y)
                .filter(|(&t, _)| (16.0..30.0).contains(&t))
                .map(|(_, &a)| a.abs())
                .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&pre) < mean(&post),
            "{} vs {}",
            mean(&pre),
            mean(&post)
        );
    }
}

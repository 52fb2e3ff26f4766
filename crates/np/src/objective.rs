//! The local-constant least-squares CV objective, evaluated the way the R
//! baselines do: the full `O(n²)` double sum per candidate bandwidth, with
//! a large penalty when every observation is trimmed (np's behaviour on
//! degenerate bandwidths).

use kcv_core::estimate::{NadarayaWatson, RegressionEstimator};
use kcv_core::kernels::Kernel;
use rayon::prelude::*;

/// Penalty for bandwidths at which no observation has a defined
/// leave-one-out fit (mirrors np's `.Machine$double.xmax`-style penalty).
pub const DEGENERATE_PENALTY: f64 = f64::MAX / 4.0;

/// The local-constant objective, sequential — the paper's Program 1.
pub fn cv_objective<K: Kernel + Clone>(x: &[f64], y: &[f64], h: f64, kernel: &K) -> f64 {
    let Ok(fit) = NadarayaWatson::new(x, y, kernel.clone(), h) else {
        return DEGENERATE_PENALTY;
    };
    mean_square(
        (0..x.len()).map(|i| fit.loo_predict(i).map(|g| y[i] - g)),
        x.len(),
    )
}

/// The same objective with the per-observation leave-one-out fits computed
/// across cores — the paper's "Multicore R" Program 2.
pub fn cv_objective_parallel<K: Kernel + Clone + Sync>(
    x: &[f64],
    y: &[f64],
    h: f64,
    kernel: &K,
) -> f64 {
    let Ok(fit) = NadarayaWatson::new(x, y, kernel.clone(), h) else {
        return DEGENERATE_PENALTY;
    };
    let residuals: Vec<Option<f64>> = (0..x.len())
        .into_par_iter()
        .map(|i| fit.loo_predict(i).map(|g| y[i] - g))
        .collect();
    mean_square(residuals, x.len())
}

/// How many observations have a defined leave-one-out fit at `h` — the
/// observations the objective's sum includes; 0 where no fit is defined.
pub(crate) fn included<K: Kernel + Clone>(x: &[f64], y: &[f64], h: f64, kernel: &K) -> usize {
    NadarayaWatson::new(x, y, kernel.clone(), h).map_or(0, |fit| {
        (0..x.len())
            .filter(|&i| fit.loo_predict(i).is_some())
            .count()
    })
}

/// `Σ r² / n` over the defined leave-one-out residuals, summed in
/// observation order; the penalty when none is defined.
fn mean_square(residuals: impl IntoIterator<Item = Option<f64>>, n: usize) -> f64 {
    let mut sum = 0.0;
    let mut included = 0usize;
    for r in residuals.into_iter().flatten() {
        sum += r * r;
        included += 1;
    }
    if included == 0 {
        DEGENERATE_PENALTY
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_core::cv::cv_score_single;
    use kcv_core::kernels::{Epanechnikov, Gaussian};
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
    fn matches_core_objective_for_local_constant() {
        let (x, y) = paper_dgp(80, 1);
        for &h in &[0.05, 0.1, 0.3, 0.9] {
            let ours = cv_objective(&x, &y, h, &Epanechnikov);
            let (core, _) = cv_score_single(&x, &y, h, &Epanechnikov);
            assert!((ours - core).abs() < 1e-12, "h={h}: {ours} vs {core}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (x, y) = paper_dgp(120, 2);
        for &h in &[0.05, 0.2, 0.6] {
            let s = cv_objective(&x, &y, h, &Gaussian);
            let p = cv_objective_parallel(&x, &y, h, &Gaussian);
            assert!(
                (s - p).abs() <= 1e-12 * s.abs().max(1.0),
                "h={h}: {s} vs {p}"
            );
        }
    }

    #[test]
    fn degenerate_bandwidth_penalised() {
        let x = [0.0, 1.0, 2.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(cv_objective(&x, &y, 0.1, &Epanechnikov), DEGENERATE_PENALTY);
    }
}

//! The least-squares CV objective, evaluated the way the R baselines do:
//! the full `O(n²)` double sum per candidate bandwidth, with a large
//! penalty when every observation is trimmed (np's behaviour on degenerate
//! bandwidths).

use kcv_core::estimate::{LocalLinear, NadarayaWatson, RegressionEstimator};
use kcv_core::kernels::Kernel;
use rayon::prelude::*;

/// Penalty for bandwidths at which no observation has a defined
/// leave-one-out fit (mirrors np's `.Machine$double.xmax`-style penalty).
pub const DEGENERATE_PENALTY: f64 = f64::MAX / 4.0;

/// Local-constant or local-linear objective, sequential.
pub fn cv_objective<K: Kernel + Clone>(
    x: &[f64],
    y: &[f64],
    h: f64,
    kernel: &K,
    local_linear: bool,
) -> f64 {
    let n = x.len();
    let mut sum = 0.0;
    let mut included = 0usize;
    if local_linear {
        let Ok(fit) = LocalLinear::new(x, y, kernel.clone(), h) else {
            return DEGENERATE_PENALTY;
        };
        for (i, &yi) in y.iter().enumerate() {
            if let Some(g) = fit.loo_predict(i) {
                let r = yi - g;
                sum += r * r;
                included += 1;
            }
        }
    } else {
        let Ok(fit) = NadarayaWatson::new(x, y, kernel.clone(), h) else {
            return DEGENERATE_PENALTY;
        };
        for (i, &yi) in y.iter().enumerate() {
            if let Some(g) = fit.loo_predict(i) {
                let r = yi - g;
                sum += r * r;
                included += 1;
            }
        }
    }
    if included == 0 {
        DEGENERATE_PENALTY
    } else {
        sum / n as f64
    }
}

/// The same objective with the per-observation leave-one-out fits computed
/// across cores — the paper's "Multicore R" Program 2.
pub fn cv_objective_parallel<K: Kernel + Clone + Sync>(
    x: &[f64],
    y: &[f64],
    h: f64,
    kernel: &K,
    local_linear: bool,
) -> f64 {
    let n = x.len();
    let fold = |residuals: Vec<Option<f64>>| -> f64 {
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
    };
    if local_linear {
        let Ok(fit) = LocalLinear::new(x, y, kernel.clone(), h) else {
            return DEGENERATE_PENALTY;
        };
        fold(
            (0..n)
                .into_par_iter()
                .map(|i| fit.loo_predict(i).map(|g| y[i] - g))
                .collect(),
        )
    } else {
        let Ok(fit) = NadarayaWatson::new(x, y, kernel.clone(), h) else {
            return DEGENERATE_PENALTY;
        };
        fold(
            (0..n)
                .into_par_iter()
                .map(|i| fit.loo_predict(i).map(|g| y[i] - g))
                .collect(),
        )
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
            let ours = cv_objective(&x, &y, h, &Epanechnikov, false);
            let (core, _) = cv_score_single(&x, &y, h, &Epanechnikov);
            assert!((ours - core).abs() < 1e-12, "h={h}: {ours} vs {core}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let (x, y) = paper_dgp(120, 2);
        for ll in [false, true] {
            for &h in &[0.05, 0.2, 0.6] {
                let s = cv_objective(&x, &y, h, &Gaussian, ll);
                let p = cv_objective_parallel(&x, &y, h, &Gaussian, ll);
                assert!(
                    (s - p).abs() <= 1e-12 * s.abs().max(1.0),
                    "ll={ll} h={h}: {s} vs {p}"
                );
            }
        }
    }

    #[test]
    fn degenerate_bandwidth_penalised() {
        let x = [0.0, 1.0, 2.0];
        let y = [1.0, 2.0, 3.0];
        assert_eq!(
            cv_objective(&x, &y, 0.1, &Epanechnikov, false),
            DEGENERATE_PENALTY
        );
    }

    #[test]
    fn local_linear_objective_prefers_reasonable_bandwidths() {
        let (x, y) = paper_dgp(150, 3);
        let mid = cv_objective(&x, &y, 0.1, &Epanechnikov, true);
        let wide = cv_objective(&x, &y, 1.0, &Epanechnikov, true);
        // Local-linear handles curvature better than NW but still prefers
        // a sub-domain bandwidth on this strongly curved DGP.
        assert!(mid < wide, "mid {mid} vs wide {wide}");
    }
}

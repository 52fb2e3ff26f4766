//! The naive `O(k·n²)` cross-validation profile: re-evaluates the full
//! leave-one-out double sum for every candidate bandwidth.
//!
//! This is the reference implementation (and the only option for kernels,
//! like the Gaussian or Cosine, that are not polynomial in `|u|`). The
//! sorted sweep is tested against it.
//!
//! Every `(observation, bandwidth)` cell is independent, and no work is
//! shared across bandwidths, so a large profile splits its grid into one
//! contiguous bandwidth block per core (`cv::fold`): each bandwidth still
//! sums its observations in order, and the scores are bit-identical to one
//! thread at any core count.

use super::fold::{blocks_for, fold_bandwidth_blocks};
use super::CvProfile;
use crate::error::{validate_bandwidth, validate_sample, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::Kernel;

/// Kernel evaluations (`n·(n−1)·k`) below which a naive profile stays on
/// the calling thread. A naive cell costs `n − 1` evaluations where a
/// prefix cell costs one window query, so the split pays back its thread
/// start-up far below the prefix engine's cell threshold. Read off the
/// naive rows of `split_crossover_table` (EXPERIMENTS.md SPLIT, k = 100 on
/// a 2-core host): the split breaks even at 3.1·10⁵ evaluations (n = 56)
/// and wins 1.08× at 6.3·10⁵ (n = 80) and 1.34× at 2.5·10⁶ (n = 160).
const SPLIT_MIN_EVALS: usize = 1 << 19;

/// Computes the CV profile by direct evaluation of Eqs. (1)–(2) at every
/// grid bandwidth. From 2¹⁹ kernel evaluations (`n·(n−1)·k`) the grid is
/// cut into one contiguous block per core, with scores bit-identical to
/// one thread.
pub fn cv_profile_naive<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid.values(), kernel)
}

/// [`cv_profile_naive`] over the bandwidth list `hs`, split into bandwidth
/// blocks by work size.
pub(crate) fn profile<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
) -> Result<CvProfile> {
    profile_in_blocks(x, y, hs, kernel, block_count(x.len(), hs.len()))
}

/// The number of bandwidth blocks a naive profile of `n` observations over
/// `k` bandwidths runs in: [`blocks_for`] its `n·(n−1)·k` kernel
/// evaluations against [`SPLIT_MIN_EVALS`].
fn block_count(n: usize, k: usize) -> usize {
    let evals = n.saturating_mul(n.saturating_sub(1)).saturating_mul(k);
    blocks_for(evals, SPLIT_MIN_EVALS, k)
}

/// [`profile`] in exactly `blocks` contiguous bandwidth blocks (clamped to
/// `1..=k`); the profile is bit-identical at every count. One block runs on
/// the calling thread, the form for callers that already run on parallel
/// workers, such as bagged selection's bags.
pub(crate) fn profile_in_blocks<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    blocks: usize,
) -> Result<CvProfile> {
    validate_sample(x, y, 2)?;
    let _sweep = kcv_obs::phase("cv.naive");
    Ok(fold_profile(x, y, hs, kernel, blocks))
}

/// The naive profile of a validated sample over `hs`, in `blocks` blocks.
fn fold_profile<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    blocks: usize,
) -> CvProfile {
    fold_bandwidth_blocks(
        x.len(),
        hs,
        blocks,
        |block| block,
        |i, block, sq, inc| accumulate_observation(i, x, y, &hs[block.clone()], kernel, sq, inc),
    )
}

/// Evaluates `CV_lc(h)` at a single bandwidth, returning the score and the
/// number of observations with a defined leave-one-out fit.
///
/// This is the objective `kcv-np`'s numerical-optimisation baseline
/// minimises; its `cv_objective` is tested against this function.
pub fn cv_score_single<K: Kernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    h: f64,
    kernel: &K,
) -> (f64, usize) {
    debug_assert!(validate_bandwidth(h).is_ok());
    let p = fold_profile(x, y, &[h], kernel, 1);
    (p.scores[0], p.included[0])
}

/// Adds observation `i`'s `(Y_i − ĝ_{-i}(X_i))² M(X_i)` at every bandwidth
/// in `hs` into `sq_sums`/`included`, evaluating the kernel for every
/// `l ≠ i`.
fn accumulate_observation<K: Kernel + ?Sized>(
    i: usize,
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let n = x.len();
    let xi = x[i];
    let mut evals = kcv_obs::LocalCounter::new(kcv_obs::Counter::KernelEvals);
    for (m, &h) in hs.iter().enumerate() {
        let inv_h = 1.0 / h;
        let mut num = 0.0;
        let mut den = 0.0;
        for (l, (&xl, &yl)) in x.iter().zip(y).enumerate() {
            if l == i {
                continue;
            }
            let w = kernel.eval((xi - xl) * inv_h);
            num += yl * w;
            den += w;
        }
        evals.incr(n as u64 - 1);
        if den > 0.0 {
            let resid = y[i] - num / den;
            sq_sums[m] += resid * resid;
            included[m] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{NadarayaWatson, RegressionEstimator};
    use crate::kernels::{Epanechnikov, Gaussian};
    use crate::util::SplitMix64;

    fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        (x, y)
    }

    /// The naive split follows its kernel evaluations, not its cells: a
    /// profile of 8 000 cells (n = 80, k = 100) already splits, one of
    /// 5 600 cells (n = 56) does not.
    #[test]
    fn block_count_follows_the_kernel_evaluations() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(block_count(56, 100), 1);
        assert_eq!(block_count(80, 100), cores.min(100));
        assert_eq!(block_count(320, 100), cores.min(100));
        assert_eq!(block_count(1_000, 1), 1);
        assert_eq!(block_count(2, 3), 1);
        assert_eq!(block_count(usize::MAX, 3), cores.min(3));
    }

    #[test]
    fn profile_matches_estimator_cv_score() {
        let (x, y) = paper_dgp(60, 1);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        for (m, &h) in grid.values().iter().enumerate() {
            let est = NadarayaWatson::new(&x, &y, Epanechnikov, h).unwrap();
            assert!(
                (profile.scores[m] - est.cv_score()).abs() < 1e-12,
                "bandwidth {h}: {} vs {}",
                profile.scores[m],
                est.cv_score()
            );
        }
    }

    #[test]
    fn all_observations_included_with_gaussian() {
        let (x, y) = paper_dgp(40, 2);
        let grid = BandwidthGrid::linear(0.01, 0.5, 8).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Gaussian).unwrap();
        for &inc in &profile.included {
            assert_eq!(inc, 40);
        }
    }

    #[test]
    fn tiny_bandwidth_excludes_isolated_points() {
        let x = [0.0, 0.001, 0.5, 1.0];
        let y = [1.0, 2.0, 3.0, 4.0];
        let grid = BandwidthGrid::from_values(vec![0.01]).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        // Only the two nearby points have a neighbour within h = 0.01.
        assert_eq!(profile.included[0], 2);
    }

    #[test]
    fn cv_is_high_at_extreme_bandwidths_on_curved_truth() {
        // CV at the domain-wide bandwidth (over-smoothing a strongly curved
        // function) should exceed the minimum over a sensible grid.
        let (x, y) = paper_dgp(200, 3);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        let opt = profile.argmin().unwrap();
        let last = *profile.scores.last().unwrap();
        assert!(
            opt.score < last,
            "optimum {} should beat max-bandwidth score {last}",
            opt.score
        );
        // And the optimum should not be at either grid edge for this DGP.
        assert!(opt.index > 0 && opt.index < profile.len() - 1);
    }

    #[test]
    fn single_score_agrees_with_profile() {
        let (x, y) = paper_dgp(50, 4);
        let grid = BandwidthGrid::linear(0.05, 0.8, 5).unwrap();
        let profile = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        for (m, &h) in grid.values().iter().enumerate() {
            let (s, inc) = cv_score_single(&x, &y, h, &Epanechnikov);
            assert_eq!(s, profile.scores[m]);
            assert_eq!(inc, profile.included[m]);
        }
    }

    /// Asserts that every block count — one, dividing `k`, not dividing
    /// it, equal to it and above it — gives each bandwidth's one-bandwidth
    /// fold ([`cv_score_single`]) bit for bit, for a compactly supported
    /// and an everywhere-positive kernel.
    fn assert_blocks_bit_identical(case: &str, x: &[f64], y: &[f64], hs: &[f64]) {
        let k = hs.len();
        let kernels: [&dyn Kernel; 2] = [&Epanechnikov, &Gaussian];
        for kernel in kernels {
            let single: Vec<(f64, usize)> = hs
                .iter()
                .map(|&h| cv_score_single(x, y, h, kernel))
                .collect();
            for blocks in [1, 2, 3, 7, k, k + 5] {
                let at = format!("{case} {} in {blocks} blocks", kernel.name());
                let p = profile_in_blocks(x, y, hs, kernel, blocks).unwrap();
                for (m, &(score, included)) in single.iter().enumerate() {
                    assert_eq!(
                        p.scores[m].to_bits(),
                        score.to_bits(),
                        "{at}, h = {}",
                        hs[m]
                    );
                    assert_eq!(p.included[m], included, "{at}, h = {}", hs[m]);
                }
                assert_eq!(p.bandwidths, hs, "{at}");
                assert_eq!(p.n, x.len(), "{at}");
            }
        }
    }

    #[test]
    fn bandwidth_blocks_are_bit_identical_on_the_paper_dgp() {
        for (n, k) in [(2, 1), (2, 3), (3, 3), (17, 3), (17, 100), (150, 37)] {
            let (x, y) = paper_dgp(n, 300 + n as u64);
            let hs = BandwidthGrid::paper_default(&x, k)
                .unwrap()
                .values()
                .to_vec();
            assert_blocks_bit_identical(&format!("n = {n}, k = {k}"), &x, &y, &hs);
        }
    }

    /// The boundary-tie lattice: spacing 0.25 with exact binary `y`, so
    /// power-of-two bandwidths put neighbours exactly on the support edge,
    /// plus bandwidths that include nobody and everybody.
    #[test]
    fn bandwidth_blocks_are_bit_identical_on_boundary_ties() {
        let x = [0.0, 0.25, 0.5, 0.75, 1.0];
        let y = [1.0, 2.0, -1.0, 0.5, 3.0];
        for hs in [
            vec![0.25, 0.5],
            vec![0.125, 1.0],
            vec![0.0625, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0, 2.0, 4.0],
        ] {
            assert_blocks_bit_identical(&format!("lattice {hs:?}"), &x, &y, &hs);
        }
    }

    #[test]
    fn rejects_undersized_samples() {
        let grid = BandwidthGrid::from_values(vec![0.1]).unwrap();
        assert!(cv_profile_naive(&[1.0], &[1.0], &grid, &Epanechnikov).is_err());
    }
}

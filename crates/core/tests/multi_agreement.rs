//! Fast-vs-naive agreement for the multivariate fast-sum-updating CV
//! engine (ISSUE 8).
//!
//! `kcv_core::multi::fast` answers every `(bandwidth vector, observation)`
//! cell from prefix-moment structures instead of the naive product-kernel
//! double loop, so these tests pin the contract the selectors rely on:
//!
//! * **Scores** match the [`MultiNadarayaWatson`] oracle within the
//!   documented degree-scaled tolerance (same tiers as the univariate
//!   prefix strategy: the binomial recombination loses ~`deg` digits of
//!   cancellation headroom per axis).
//! * **Inclusion** (which observations have a defined leave-one-out fit)
//!   matches exactly on random data and on the adversarial lattices —
//!   the support predicate runs on the original coordinates in both
//!   engines.
//! * **Selection**: the first strict minimum over the shared grid is the
//!   same point, pinned on fixed seeds for d ∈ {1, 2, 3} and property
//!   tested across all polynomial kernels.
//! * **d = 1 degeneracy**: a one-column fast profile is *bit-for-bit* the
//!   univariate `cv_profile_prefix` over the same ascending grid.

use kcv_core::cv::cv_profile_prefix;
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{polynomial_kernels, Epanechnikov, PolynomialKernel, Quartic};
use kcv_core::multi::{
    fast::cv_scores_fast, select_full_grid, select_full_grid_naive, MultiNadarayaWatson,
};
use kcv_core::util::{approx_eq, SplitMix64};
use proptest::prelude::*;

/// Random columns on (0,1) with a smooth anisotropic response.
fn dgp(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let cols: Vec<Vec<f64>> = (0..d)
        .map(|_| (0..n).map(|_| rng.next_f64()).collect())
        .collect();
    let y: Vec<f64> = (0..n)
        .map(|i| {
            cols.iter()
                .enumerate()
                .map(|(j, c)| (j + 1) as f64 * c[i] * c[i])
                .sum::<f64>()
                + 0.1 * rng.next_f64()
        })
        .collect();
    (cols, y)
}

/// Scores every bandwidth vector with the naive estimator — one
/// `cv_score_included` pass per grid point.
fn naive_scores<K: PolynomialKernel + Clone>(
    cols: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    h_vectors: &[Vec<f64>],
) -> (Vec<f64>, Vec<usize>) {
    h_vectors
        .iter()
        .map(|hs| {
            MultiNadarayaWatson::new(cols, y, kernel.clone(), hs.clone())
                .unwrap()
                .cv_score_included()
        })
        .unzip()
}

/// Cartesian product of one per-dimension bandwidth list, mirroring the
/// selector's mixed-radix order (first grid least significant).
fn cartesian(per_dim: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let total: usize = per_dim.iter().map(Vec::len).product();
    (0..total)
        .map(|mut idx| {
            per_dim
                .iter()
                .map(|g| {
                    let h = g[idx % g.len()];
                    idx /= g.len();
                    h
                })
                .collect()
        })
        .collect()
}

/// First strict minimum among grid points with someone included — the
/// selectors' tie-breaking rule, applied to an explicit score vector.
fn first_min(scores: &[f64], included: &[usize]) -> Option<usize> {
    let mut best: Option<usize> = None;
    for g in 0..scores.len() {
        if included[g] == 0 {
            continue;
        }
        if best.is_none_or(|b| scores[g] < scores[b]) {
            best = Some(g);
        }
    }
    best
}

/// The documented degree-scaled relative tolerance for fast-vs-naive
/// scores (absolute floor 1e-9).
fn score_tol(deg: usize) -> f64 {
    match deg {
        0..=2 => 1e-6,
        3..=4 => 1e-4,
        _ => 1e-2,
    }
}

/// The smallest positive leave-one-out denominator mass across the
/// sample at one bandwidth vector, computed directly from kernel weights.
///
/// The documented tolerance applies to cells with non-negligible weight
/// mass: when every in-box neighbour sits at the support edge, the
/// product weight vanishes like `δ^(deg·d)` and the moment-differencing
/// engine's absolute roundoff in `num`/`den` is amplified arbitrarily in
/// the LOO ratio (same knife-edge for any moment-based sweep; the naive
/// engine computes `y_l` exactly there only because it sums the single
/// weight directly). Grid points whose minimum mass falls below the
/// threshold are compared on *inclusion* only.
fn min_positive_den(cols: &[Vec<f64>], kernel: &dyn PolynomialKernel, hs: &[f64]) -> f64 {
    let n = cols[0].len();
    let mut min_den = f64::INFINITY;
    for i in 0..n {
        let mut den = 0.0;
        for l in 0..n {
            if l == i {
                continue;
            }
            let mut w = 1.0;
            for (j, c) in cols.iter().enumerate() {
                w *= kernel.eval((c[i] - c[l]) / hs[j]);
            }
            den += w;
        }
        if den > 0.0 {
            min_den = min_den.min(den);
        }
    }
    min_den
}

#[test]
fn pinned_selection_is_identical_across_dimensions() {
    // Fixed seeds, Epanechnikov + Quartic: the fast selector must pick the
    // exact bandwidth vector the naive selector picks (the acceptance
    // criterion's "identical bandwidth vector").
    for d in 1..=3usize {
        let (cols, y) = dgp(90, d, 40 + d as u64);
        let grid: Vec<f64> = (1..=4).map(|i| i as f64 * 0.09).collect();
        let per_dim: Vec<Vec<f64>> = vec![grid; d];
        let fast = select_full_grid(&cols, &y, &Epanechnikov, &per_dim).unwrap();
        let naive = select_full_grid_naive(&cols, &y, &Epanechnikov, &per_dim).unwrap();
        assert_eq!(fast.bandwidths, naive.bandwidths, "d = {d}");

        let fast_q = select_full_grid(&cols, &y, &Quartic, &per_dim).unwrap();
        let naive_q = select_full_grid_naive(&cols, &y, &Quartic, &per_dim).unwrap();
        assert_eq!(fast_q.bandwidths, naive_q.bandwidths, "quartic, d = {d}");
    }
}

#[test]
fn d1_fast_path_is_bitwise_the_univariate_prefix_profile() {
    let (cols, y) = dgp(150, 1, 50);
    let grid = BandwidthGrid::paper_default(&cols[0], 25).unwrap();
    let profile = cv_profile_prefix(&cols[0], &y, &grid, &Epanechnikov).unwrap();
    let h_vectors: Vec<Vec<f64>> = grid.values().iter().map(|&h| vec![h]).collect();
    let (scores, included) = cv_scores_fast(&cols, &y, &Epanechnikov, &h_vectors).unwrap();
    assert_eq!(scores, profile.scores, "scores must be bit-for-bit");
    assert_eq!(included, profile.included);

    // And the d = 1 selector lands on the profile's argmin, bit-for-bit.
    let sel = select_full_grid(&cols, &y, &Epanechnikov, &[grid.values().to_vec()]).unwrap();
    let opt = profile.argmin().unwrap();
    assert_eq!(sel.bandwidths[0], opt.bandwidth);
    assert_eq!(sel.score, opt.score);
}

#[test]
fn d1_fast_path_unpermutes_a_shuffled_bandwidth_list() {
    // The d = 1 delegation sorts the requested bandwidths before running
    // the monotone univariate core; results must come back in input order.
    let (cols, y) = dgp(80, 1, 51);
    let hs = [0.3, 0.05, 0.6, 0.12, 0.3];
    let h_vectors: Vec<Vec<f64>> = hs.iter().map(|&h| vec![h]).collect();
    let (scores, included) = cv_scores_fast(&cols, &y, &Epanechnikov, &h_vectors).unwrap();
    let grid = BandwidthGrid::from_values(vec![0.05, 0.12, 0.3, 0.6]).unwrap();
    let profile = cv_profile_prefix(&cols[0], &y, &grid, &Epanechnikov).unwrap();
    for (g, &h) in hs.iter().enumerate() {
        let r = grid.values().iter().position(|&v| v == h).unwrap();
        assert_eq!(scores[g], profile.scores[r], "bandwidth {h}");
        assert_eq!(included[g], profile.included[r]);
    }
}

#[test]
fn duplicate_coordinate_lattice_agrees_exactly() {
    // Every coordinate on a dyadic 1/8 lattice with heavy duplication:
    // kernel weights, moments, and window predicates are all exact dyadic
    // arithmetic, so inclusion must match and scores stay at f64 noise.
    let n = 48;
    let mut rng = SplitMix64::new(52);
    let cols: Vec<Vec<f64>> = (0..2)
        .map(|_| (0..n).map(|_| (rng.next_u64() % 9) as f64 / 8.0).collect())
        .collect();
    let y: Vec<f64> = (0..n).map(|_| (rng.next_u64() % 16) as f64 / 4.0).collect();
    // Dyadic bandwidths, including ones placing lattice points exactly on
    // the support boundary (|Δ| = h·r with r = 1).
    let per_dim = vec![vec![0.125, 0.25, 0.5, 1.0], vec![0.125, 0.25, 0.5, 1.0]];
    let h_vectors = cartesian(&per_dim);
    let (fast_s, fast_i) = cv_scores_fast(&cols, &y, &Epanechnikov, &h_vectors).unwrap();
    let (naive_s, naive_i) = naive_scores(&cols, &y, &Epanechnikov, &h_vectors);
    assert_eq!(
        fast_i, naive_i,
        "inclusion must be exact on the dyadic lattice"
    );
    for g in 0..h_vectors.len() {
        assert!(
            approx_eq(fast_s[g], naive_s[g], 1e-12, 1e-14),
            "lattice grid point {g}: {} vs {}",
            fast_s[g],
            naive_s[g]
        );
    }
}

#[test]
fn boundary_tie_lattice_agrees_for_every_polynomial_kernel() {
    // A regular 6×8 grid of points with spacing exactly h/2 at the largest
    // bandwidth: many |Δ| == h·radius ties per cell in both dimensions.
    let mut cols = vec![Vec::new(), Vec::new()];
    let mut y = Vec::new();
    for i in 0..6 {
        for j in 0..8 {
            cols[0].push(i as f64 * 0.25);
            cols[1].push(j as f64 * 0.25);
            y.push((i * 8 + j) as f64 / 8.0);
        }
    }
    let h_vectors = cartesian(&[vec![0.25, 0.5], vec![0.25, 0.5]]);
    for kernel in polynomial_kernels() {
        let (fast_s, fast_i) = cv_scores_fast(&cols, &y, &*kernel, &h_vectors).unwrap();
        let (naive_s, naive_i): (Vec<f64>, Vec<usize>) = h_vectors
            .iter()
            .map(|hs| {
                MultiNadarayaWatson::new(&cols, &y, &*kernel, hs.clone())
                    .unwrap()
                    .cv_score_included()
            })
            .unzip();
        assert_eq!(
            fast_i,
            naive_i,
            "{}: boundary ties must classify identically",
            kernel.name()
        );
        let tol = score_tol(kernel.coeffs().len() - 1);
        for g in 0..h_vectors.len() {
            assert!(
                approx_eq(fast_s[g], naive_s[g], tol, 1e-9),
                "{} grid point {g}: {} vs {}",
                kernel.name(),
                fast_s[g],
                naive_s[g]
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fast scores track the naive oracle across dimensions and kernels,
    /// and the first-strict-minimum selection computed from the fast
    /// profile is (up to score tolerance) as good as the naive optimum.
    #[test]
    fn prop_fast_matches_naive_across_dims_and_kernels(
        seed in 0u64..10_000,
        d in 1usize..4,
        n in 8usize..40,
        s in 2usize..4,
    ) {
        let (cols, y) = dgp(n, d, seed);
        let grid: Vec<f64> = (1..=s).map(|i| i as f64 * 0.11).collect();
        let per_dim: Vec<Vec<f64>> = vec![grid; d];
        let h_vectors = cartesian(&per_dim);
        for kernel in polynomial_kernels() {
            let (fast_s, fast_i) = cv_scores_fast(&cols, &y, &*kernel, &h_vectors).unwrap();
            let (naive_s, naive_i): (Vec<f64>, Vec<usize>) = h_vectors
                .iter()
                .map(|hs| {
                    MultiNadarayaWatson::new(&cols, &y, &*kernel, hs.clone())
                        .unwrap()
                        .cv_score_included()
                })
                .unzip();
            prop_assert!(fast_i == naive_i, "{}: inclusion mismatch", kernel.name());
            let tol = score_tol(kernel.coeffs().len() - 1);
            // Weight-mass guard (see `min_positive_den`): cells whose
            // denominator mass nearly vanishes are inclusion-checked only.
            let mass: Vec<f64> = h_vectors
                .iter()
                .map(|hs| min_positive_den(&cols, &*kernel, hs))
                .collect();
            for g in 0..h_vectors.len() {
                if mass[g] < 1e-2 {
                    continue;
                }
                prop_assert!(
                    approx_eq(fast_s[g], naive_s[g], tol, 1e-9),
                    "{} grid point {}: {} vs {} (mass {})",
                    kernel.name(), g, fast_s[g], naive_s[g], mass[g]
                );
            }
            // Selection agreement, robust to near-ties: the naive score at
            // the fast argmin must match the naive optimum within the same
            // tolerance (exact argmin equality is pinned on fixed seeds).
            if let (Some(f), Some(nv)) =
                (first_min(&fast_s, &fast_i), first_min(&naive_s, &naive_i))
            {
                if mass[f] >= 1e-2 && mass[nv] >= 1e-2 {
                    prop_assert!(
                        approx_eq(naive_s[f], naive_s[nv], tol, 1e-9),
                        "{}: fast argmin {} scores {} vs naive optimum {} at {}",
                        kernel.name(), f, naive_s[f], naive_s[nv], nv
                    );
                }
            }
        }
    }
}

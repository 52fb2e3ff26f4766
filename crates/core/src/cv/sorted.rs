//! The sorting-based grid sweep — the paper's first contribution (§III).
//!
//! For a kernel `K(u) = Σ_j c_j |u|^j` on `|u| ≤ r`, the leave-one-out
//! numerator and denominator at bandwidth `h` are
//!
//! ```text
//! N_i(h) = Σ_j (c_j / h^j) · Σ_{l≠i, d_il ≤ r·h} Y_l · d_il^j
//! D_i(h) = Σ_j (c_j / h^j) · Σ_{l≠i, d_il ≤ r·h} d_il^j
//! ```
//!
//! with `d_il = |X_i − X_l|`. For `h₂ > h₁` every term of the `h₁` sums
//! appears in the `h₂` sums, so after sorting each observation's distances
//! once (`O(n log n)`), one ascending pass over the bandwidth grid maintains
//! the inner power sums incrementally: per observation the whole grid costs
//! `O(n log n + (n + k)·deg)` instead of the naive `O(k·n)`.
//!
//! The Epanechnikov case (`c = [0.75, 0, −0.75]`, the paper's) reduces to
//! exactly the three running sums the paper describes: `Σ Y_l`,
//! `Σ Y_l·d²` and `Σ d²`.
//!
//! ## Numerical note
//!
//! The monomial expansion trades accuracy for speed at high degree: a
//! neighbour sitting near the support edge has a tiny true weight (e.g.
//! `(1−u²)³ ≈ 0` for the Triweight) that the sweep reconstructs by
//! cancelling `O(1)` monomial terms, so when a window contains only a few
//! near-edge neighbours the leave-one-out denominator can lose several
//! digits relative to direct evaluation. For the degree ≤ 2 kernels the
//! paper uses this is negligible (≲1e-8 relative on the CV score); for
//! Quartic (degree 4) and Triweight (degree 6) expect up to ~1e-4 / ~1e-2
//! relative drift in the sparse-window regime. The naive profile remains
//! the arbitrarily-accurate reference.

use super::fold::fold_observations;
use super::CvProfile;
use crate::error::{validate_sample, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::sort::sort_with_aux;

/// Reusable per-observation workspace for the sweep (distance and response
/// buffers plus the running power sums), so the hot loop never allocates.
#[derive(Debug, Clone)]
pub struct SweepScratch {
    dist: Vec<f64>,
    yval: Vec<f64>,
    /// Running `Σ d^j` for `j = 0..=deg`.
    s: Vec<f64>,
    /// Running `Σ Y·d^j` for `j = 0..=deg`.
    sy: Vec<f64>,
}

impl SweepScratch {
    /// Creates a workspace for samples of at most `n` observations and a
    /// kernel polynomial of degree `deg`.
    pub fn new(n: usize, deg: usize) -> Self {
        Self {
            dist: Vec::with_capacity(n.saturating_sub(1)),
            yval: Vec::with_capacity(n.saturating_sub(1)),
            s: vec![0.0; deg + 1],
            sy: vec![0.0; deg + 1],
        }
    }
}

/// Adds observation `i`'s contribution — `(Y_i − ĝ_{-i}(X_i))² M(X_i)` at
/// every grid bandwidth — into `sq_sums`/`included`.
///
/// This is the per-thread body of the paper's main GPU kernel, in host form.
#[allow(clippy::too_many_arguments)]
pub(crate) fn accumulate_observation(
    i: usize,
    x: &[f64],
    y: &[f64],
    coeffs: &[f64],
    radius: f64,
    hs: &[f64],
    scratch: &mut SweepScratch,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let deg = coeffs.len() - 1;
    let xi = x[i];
    let yi = y[i];

    // Fill the leave-one-out distance / response arrays. Two branch-free
    // passes over `x[..i]` and `x[i+1..]` instead of one pass testing
    // `l == i` on every element.
    scratch.dist.clear();
    scratch.yval.clear();
    for (&xl, &yl) in x[..i].iter().zip(&y[..i]) {
        scratch.dist.push((xi - xl).abs());
        scratch.yval.push(yl);
    }
    for (&xl, &yl) in x[i + 1..].iter().zip(&y[i + 1..]) {
        scratch.dist.push((xi - xl).abs());
        scratch.yval.push(yl);
    }

    // The paper's per-thread sort: distances ascending, responses co-sorted.
    {
        let _sort = kcv_obs::phase("cv.sort");
        sort_with_aux(&mut scratch.dist, &mut scratch.yval);
    }

    // Reset running power sums.
    scratch.s[..=deg].fill(0.0);
    scratch.sy[..=deg].fill(0.0);

    let m_count = scratch.dist.len();
    let mut p = 0usize;
    // Each neighbour enters the running sums exactly once across the whole
    // grid — that is the sweep's saving versus the naive k·(n−1) kernel
    // evaluations per observation; terms beyond the support are never read.
    let mut absorbed = kcv_obs::LocalCounter::new(kcv_obs::Counter::KernelEvals);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    for (m, &h) in hs.iter().enumerate() {
        let inv_h = 1.0 / h;
        // Absorb every not-yet-seen neighbour within the kernel support.
        // The predicate `d·(1/h) ≤ r` is bitwise-identical to the one the
        // pointwise kernel evaluation uses (`|u| > r → 0` with
        // `u = (x_i − x_l)·(1/h)`), so boundary observations — which carry a
        // discrete weight for the Uniform kernel — are classified the same
        // way by every CV strategy. Monotone in h, so the pointer never
        // needs to retreat.
        let p_before = p;
        while p < m_count && scratch.dist[p] * inv_h <= radius {
            let d = scratch.dist[p];
            let yl = scratch.yval[p];
            let mut pw = 1.0;
            for j in 0..=deg {
                scratch.s[j] += pw;
                scratch.sy[j] += yl * pw;
                pw *= d;
            }
            p += 1;
        }
        absorbed.incr((p - p_before) as u64);
        skipped.incr((m_count - p) as u64);
        // Assemble N and D from the power sums: Σ_j c_j h^{-j} · S_j. An
        // exactly-zero power sum is skipped: when only `d = 0` neighbours
        // are inside the support, `S_j` is 0 for j ≥ 1 while `(1/h)^j` may
        // already be `inf`, and `inf·0` would turn the cell into NaN.
        // Wherever `(1/h)^j` is finite the skipped term is ±0, which leaves
        // the `+0.0`-started sums unchanged.
        let mut hp = 1.0;
        let mut num = 0.0;
        let mut den = 0.0;
        for ((&cf, &s_j), &sy_j) in coeffs.iter().zip(&scratch.s).zip(&scratch.sy) {
            if sy_j != 0.0 {
                num += cf * hp * sy_j;
            }
            if s_j != 0.0 {
                den += cf * hp * s_j;
            }
            hp *= inv_h;
        }
        if den > 0.0 {
            let resid = yi - num / den;
            sq_sums[m] += resid * resid;
            included[m] += 1;
        }
    }
}

/// Computes the CV profile with the sorted sweep, sequentially — the
/// algorithm of the paper's "Sequential C" Program 3.
pub fn cv_profile_sorted<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid, kernel, false)
}

/// Parallel sorted-sweep CV profile — the algorithmic content of the
/// paper's Program 4 (CUDA), run on host cores. One logical "GPU thread"
/// per observation, exactly as §IV-B assigns them.
pub fn cv_profile_sorted_par<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid, kernel, true)
}

pub(crate) fn profile<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
    parallel: bool,
) -> Result<CvProfile> {
    let n = validate_sample(x, y, 2)?;
    let coeffs = kernel.coeffs();
    let radius = kernel.radius();
    let hs = grid.values();

    let _sweep = kcv_obs::phase("cv.sweep");
    Ok(fold_observations(
        n,
        hs,
        parallel,
        || SweepScratch::new(n, coeffs.len() - 1),
        |i, scratch, sq, inc| accumulate_observation(i, x, y, coeffs, radius, hs, scratch, sq, inc),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::cv_profile_naive;
    use crate::kernels::{
        polynomial_kernels, Epanechnikov, Quartic, Triangular, Triweight, Uniform,
    };
    use crate::util::{approx_eq, SplitMix64};
    use proptest::prelude::*;

    fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        (x, y)
    }

    fn assert_profiles_agree(a: &CvProfile, b: &CvProfile, tol: f64) {
        assert_eq!(a.len(), b.len());
        for m in 0..a.len() {
            assert_eq!(
                a.included[m], b.included[m],
                "included mismatch at h={}",
                a.bandwidths[m]
            );
            assert!(
                approx_eq(a.scores[m], b.scores[m], tol, tol),
                "score mismatch at h={}: {} vs {}",
                a.bandwidths[m],
                a.scores[m],
                b.scores[m]
            );
        }
    }

    #[test]
    fn sorted_matches_naive_epanechnikov() {
        let (x, y) = paper_dgp(150, 11);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let sorted = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        assert_profiles_agree(&sorted, &naive, 1e-9);
    }

    #[test]
    fn sorted_matches_naive_for_every_polynomial_kernel() {
        let (x, y) = paper_dgp(80, 12);
        let grid = BandwidthGrid::paper_default(&x, 23).unwrap();
        macro_rules! check {
            ($k:expr) => {{
                let sorted = cv_profile_sorted(&x, &y, &grid, &$k).unwrap();
                let naive = cv_profile_naive(&x, &y, &grid, &$k).unwrap();
                assert_profiles_agree(&sorted, &naive, 1e-9);
            }};
        }
        check!(Epanechnikov);
        check!(Uniform);
        check!(Triangular);
        check!(Quartic);
        check!(Triweight);
    }

    #[test]
    fn sorted_matches_naive_on_clustered_design() {
        // Clusters + outliers: exercises empty windows and M(X_i) = 0.
        let mut rng = SplitMix64::new(13);
        let mut x = Vec::new();
        for c in [0.0, 0.1, 5.0] {
            for _ in 0..20 {
                x.push(c + 0.01 * rng.next_f64());
            }
        }
        x.push(100.0); // isolated point
        let y: Vec<f64> = x.iter().map(|&v| v.sin() + rng.next_f64()).collect();
        let grid = BandwidthGrid::linear(0.005, 2.0, 40).unwrap();
        let sorted = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        assert_profiles_agree(&sorted, &naive, 1e-9);
        // The isolated point must be excluded at every grid bandwidth.
        assert!(sorted.included.iter().all(|&c| c < x.len()));
    }

    #[test]
    fn argmin_identical_between_strategies() {
        for seed in 0..5 {
            let (x, y) = paper_dgp(120, 100 + seed);
            let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
            let a = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
            let b = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
            assert_eq!(a.argmin().unwrap().index, b.argmin().unwrap().index);
        }
    }

    #[test]
    fn convolution_kernel_radius_two_supported() {
        use crate::kernels::EpanechnikovConvolution;
        let (x, y) = paper_dgp(60, 15);
        let grid = BandwidthGrid::linear(0.02, 0.5, 12).unwrap();
        let sorted = cv_profile_sorted(&x, &y, &grid, &EpanechnikovConvolution).unwrap();
        let naive = cv_profile_naive(&x, &y, &grid, &EpanechnikovConvolution).unwrap();
        assert_profiles_agree(&sorted, &naive, 1e-9);
    }

    #[test]
    fn works_with_two_observations() {
        let x = [0.0, 0.5];
        let y = [1.0, 3.0];
        let grid = BandwidthGrid::linear(0.1, 1.0, 5).unwrap();
        let profile = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
        // Below h = 0.5 nothing is included; at h ≥ 0.5 LOO fit is the other y.
        for (m, &h) in grid.values().iter().enumerate() {
            if h < 0.5 {
                assert_eq!(profile.included[m], 0);
            } else {
                assert_eq!(profile.included[m], 2);
                // residuals ±2 → CV = (4 + 4)/2 = 4.
                assert!((profile.scores[m] - 4.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unsorted_input_data_is_handled() {
        // x is deliberately unsorted; results must match a sorted copy.
        let (mut x, mut y) = paper_dgp(90, 16);
        let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
        let unsorted = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
        // Co-sort (x, y) by x and recompute: scores are order-independent.
        let perm = crate::sort::argsort(&x);
        x = crate::sort::apply_permutation(&x, &perm);
        y = crate::sort::apply_permutation(&y, &perm);
        let sorted_input = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            assert!(approx_eq(
                unsorted.scores[m],
                sorted_input.scores[m],
                1e-10,
                1e-12
            ));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_sorted_equals_naive(
            seed in 0u64..10_000,
            n in 5usize..60,
            k in 1usize..30,
        ) {
            let (x, y) = paper_dgp(n, seed);
            let grid = BandwidthGrid::paper_default(&x, k).unwrap();
            for kernel in polynomial_kernels() {
                let sorted_scores: Vec<f64> = {
                    let mut sq = vec![0.0; k];
                    let mut inc = vec![0usize; k];
                    let mut scratch = SweepScratch::new(n, kernel.coeffs().len() - 1);
                    for i in 0..n {
                        accumulate_observation(
                            i, &x, &y, kernel.coeffs(), kernel.radius(),
                            grid.values(), &mut scratch, &mut sq, &mut inc,
                        );
                    }
                    sq.iter().map(|s| s / n as f64).collect()
                };
                let naive = cv_profile_naive(&x, &y, &grid, &*kernel).unwrap();
                // Degree-scaled tolerance (see the module-level numerical
                // note): the monomial sweep loses digits reconstructing
                // near-zero edge weights of high-degree kernels in the
                // sparse-window regime. Real inclusion/exclusion bugs show
                // up at 1e-1 or larger on these data.
                let deg = kernel.coeffs().len() - 1;
                let tol = match deg {
                    0..=2 => 1e-6,
                    3..=4 => 1e-4,
                    _ => 1e-2,
                };
                for (m, (&ours, &theirs)) in
                    sorted_scores.iter().zip(&naive.scores).enumerate()
                {
                    prop_assert!(
                        approx_eq(ours, theirs, tol, 1e-9),
                        "kernel {} (deg {deg}) h={}: {ours} vs {theirs}",
                        kernel.name(), grid.values()[m]
                    );
                }
            }
        }
    }
}

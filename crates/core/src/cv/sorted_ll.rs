//! The sorted sweep extended to the *local-linear* estimator — one of the
//! "many similar problems in nonparametric estimation" (§II) the paper's
//! least-squares-CV machinery applies to.
//!
//! The local-linear fit at `X_i` needs the weighted moments
//!
//! ```text
//! S_j(h) = Σ_{l≠i} K(e_l/h) · e_l^j   (j = 0, 1, 2)
//! T_j(h) = Σ_{l≠i} K(e_l/h) · Y_l · e_l^j   (j = 0, 1)
//! ```
//!
//! with *signed* offsets `e_l = X_l − X_i`. For a polynomial kernel
//! `K(u) = Σ_p c_p |u|^p` each moment decomposes as
//! `S_j(h) = Σ_p c_p h^{-p} · A_{p,j}` with
//! `A_{p,j} = Σ_{|e_l| ≤ r·h} |e_l|^p · e_l^j`, so sorting once by `|e_l|`
//! and keeping running sums `A_{p,j}` (and the `Y`-weighted `B_{p,j}`)
//! yields all moments for the whole ascending bandwidth grid — the same
//! `O(n log n + (n + k)·deg)` per observation as the local-constant sweep,
//! with 5 running sums per polynomial power instead of 2.

use super::fold::fold_observations;
use super::CvProfile;
use crate::error::{validate_sample, Result};
use crate::estimate::local_linear::solve_local_linear;
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::sort::{apply_permutation, argsort};

/// Per-observation accumulation for the local-linear sweep.
#[allow(clippy::too_many_arguments)]
fn accumulate_observation_ll(
    i: usize,
    x: &[f64],
    y: &[f64],
    coeffs: &[f64],
    radius: f64,
    hs: &[f64],
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let deg = coeffs.len() - 1;
    let xi = x[i];
    let yi = y[i];

    // Leave-one-out signed offsets, sorted by |e|.
    let mut abs_e = Vec::with_capacity(x.len() - 1);
    let mut signed = Vec::with_capacity(x.len() - 1);
    let mut yv = Vec::with_capacity(x.len() - 1);
    for (l, (&xl, &yl)) in x.iter().zip(y).enumerate() {
        if l == i {
            continue;
        }
        abs_e.push((xl - xi).abs());
        signed.push(xl - xi);
        yv.push(yl);
    }
    let perm = argsort(&abs_e);
    let abs_e = apply_permutation(&abs_e, &perm);
    let signed = apply_permutation(&signed, &perm);
    let yv = apply_permutation(&yv, &perm);

    // Running sums A[p][j] = Σ |e|^p e^j  (j = 0,1,2) and
    // B[p][j] = Σ |e|^p e^j y  (j = 0,1), for p = 0..=deg.
    let mut a = vec![[0.0f64; 3]; deg + 1];
    let mut b = vec![[0.0f64; 2]; deg + 1];

    let mut p = 0usize;
    let mut absorbed = kcv_obs::LocalCounter::new(kcv_obs::Counter::KernelEvals);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    for (m, &h) in hs.iter().enumerate() {
        let inv_h = 1.0 / h;
        let p_before = p;
        // Same support predicate as the pointwise evaluation (see
        // `cv::sorted`), so boundary classifications agree with the naive
        // reference.
        while p < abs_e.len() && abs_e[p] * inv_h <= radius {
            let d = abs_e[p];
            let e = signed[p];
            let yl = yv[p];
            let e2 = e * e;
            let mut pw = 1.0;
            for q in 0..=deg {
                a[q][0] += pw;
                a[q][1] += pw * e;
                a[q][2] += pw * e2;
                b[q][0] += pw * yl;
                b[q][1] += pw * yl * e;
                pw *= d;
            }
            p += 1;
        }
        absorbed.incr((p - p_before) as u64);
        skipped.incr((abs_e.len() - p) as u64);
        // Assemble the five weighted moments.
        let mut hp = 1.0;
        let mut s0 = 0.0;
        let mut s1 = 0.0;
        let mut s2 = 0.0;
        let mut t0 = 0.0;
        let mut t1 = 0.0;
        for q in 0..=deg {
            let c = coeffs[q] * hp;
            s0 += c * a[q][0];
            s1 += c * a[q][1];
            s2 += c * a[q][2];
            t0 += c * b[q][0];
            t1 += c * b[q][1];
            hp *= inv_h;
        }
        if let Some(g) = solve_local_linear([s0, s1, s2, t0, t1], h) {
            let r = yi - g;
            sq_sums[m] += r * r;
            included[m] += 1;
        }
    }
}

/// Local-linear CV profile via the sorted sweep, sequential.
pub fn cv_profile_sorted_ll<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid, kernel, false)
}

/// Local-linear CV profile via the sorted sweep, parallel over observations.
pub fn cv_profile_sorted_ll_par<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid, kernel, true)
}

fn profile<K: PolynomialKernel + ?Sized>(
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
    Ok(fold_observations(
        n,
        hs,
        parallel,
        || (),
        |i, _, sq, inc| accumulate_observation_ll(i, x, y, coeffs, radius, hs, sq, inc),
    ))
}

/// Naive local-linear CV profile (`O(k·n²)`), the reference the sweep is
/// tested against; accepts any kernel.
pub fn cv_profile_naive_ll<K: crate::kernels::Kernel + Clone>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    use crate::estimate::{LocalLinear, RegressionEstimator};
    let n = validate_sample(x, y, 2)?;
    let k = grid.len();
    let mut scores = vec![0.0; k];
    let mut included = vec![0usize; k];
    for (m, &h) in grid.values().iter().enumerate() {
        let fit = LocalLinear::new(x, y, kernel.clone(), h)?;
        let mut sum = 0.0;
        let mut inc = 0usize;
        for (i, &yi) in y.iter().enumerate() {
            if let Some(g) = fit.loo_predict(i) {
                let r = yi - g;
                sum += r * r;
                inc += 1;
            }
        }
        scores[m] = sum / n as f64;
        included[m] = inc;
    }
    Ok(CvProfile { bandwidths: grid.values().to_vec(), scores, included, n })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Quartic, Triangular, Uniform};
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

    #[test]
    fn sorted_ll_matches_naive_ll() {
        let (x, y) = paper_dgp(120, 201);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let sorted = cv_profile_sorted_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            assert_eq!(sorted.included[m], naive.included[m], "h index {m}");
            assert!(
                approx_eq(sorted.scores[m], naive.scores[m], 1e-8, 1e-10),
                "h={}: {} vs {}",
                grid.values()[m],
                sorted.scores[m],
                naive.scores[m]
            );
        }
    }

    #[test]
    fn sorted_ll_matches_naive_for_more_kernels() {
        let (x, y) = paper_dgp(70, 202);
        let grid = BandwidthGrid::paper_default(&x, 15).unwrap();
        macro_rules! check {
            ($k:expr) => {{
                let sorted = cv_profile_sorted_ll(&x, &y, &grid, &$k).unwrap();
                let naive = cv_profile_naive_ll(&x, &y, &grid, &$k).unwrap();
                for m in 0..grid.len() {
                    assert_eq!(sorted.included[m], naive.included[m]);
                    assert!(
                        approx_eq(sorted.scores[m], naive.scores[m], 1e-7, 1e-9),
                        "{} h={}: {} vs {}",
                        stringify!($k),
                        grid.values()[m],
                        sorted.scores[m],
                        naive.scores[m]
                    );
                }
            }};
        }
        check!(Uniform);
        check!(Triangular);
        check!(Quartic);
    }

    #[test]
    fn local_linear_cv_is_zero_on_exact_lines() {
        // LL reproduces lines exactly, so every LOO residual vanishes and
        // the profile is ~0 wherever enough neighbours exist.
        let x: Vec<f64> = (0..60).map(|i| i as f64 / 59.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| 3.0 - 2.0 * v).collect();
        let grid = BandwidthGrid::linear(0.1, 1.0, 10).unwrap();
        let profile = cv_profile_sorted_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        for (m, &s) in profile.scores.iter().enumerate() {
            assert!(s < 1e-16, "h={}: {s}", profile.bandwidths[m]);
        }
    }

    #[test]
    fn ll_optimum_is_wider_than_lc_on_curved_truth() {
        // Local-linear absorbs curvature through its slope term, so CV can
        // afford a wider bandwidth than local-constant on the paper DGP.
        let (x, y) = paper_dgp(400, 204);
        let grid = BandwidthGrid::paper_default(&x, 100).unwrap();
        let lc = super::super::cv_profile_sorted(&x, &y, &grid, &Epanechnikov)
            .unwrap()
            .argmin()
            .unwrap();
        let ll = cv_profile_sorted_ll(&x, &y, &grid, &Epanechnikov)
            .unwrap()
            .argmin()
            .unwrap();
        assert!(
            ll.bandwidth >= lc.bandwidth,
            "LL optimum {} should be ≥ LC optimum {}",
            ll.bandwidth,
            lc.bandwidth
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_sorted_ll_equals_naive_ll(seed in 0u64..5_000, n in 5usize..50, k in 1usize..20) {
            let (x, y) = paper_dgp(n, seed);
            let grid = BandwidthGrid::paper_default(&x, k).unwrap();
            let sorted = cv_profile_sorted_ll(&x, &y, &grid, &Epanechnikov).unwrap();
            let naive = cv_profile_naive_ll(&x, &y, &grid, &Epanechnikov).unwrap();
            for m in 0..k {
                prop_assert_eq!(sorted.included[m], naive.included[m]);
                prop_assert!(
                    approx_eq(sorted.scores[m], naive.scores[m], 1e-6, 1e-9),
                    "h={}: {} vs {}", grid.values()[m], sorted.scores[m], naive.scores[m]
                );
            }
        }
    }
}

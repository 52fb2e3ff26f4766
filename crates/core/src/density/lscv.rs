//! Least-squares cross-validation for KDE bandwidths via the sorted sweep.

use crate::error::{validate_bandwidth, Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::{Epanechnikov, EpanechnikovConvolution, Kernel, PolynomialKernel};
use crate::sort::sort_with_aux;

/// The LSCV scores over a bandwidth grid.
#[derive(Debug, Clone, PartialEq)]
pub struct LscvProfile {
    /// Candidate bandwidths, ascending.
    pub bandwidths: Vec<f64>,
    /// `LSCV(h)` for each candidate (can be negative; smaller is better).
    pub scores: Vec<f64>,
    /// Sample size.
    pub n: usize,
}

impl LscvProfile {
    /// The grid optimum (ties resolve to the smallest bandwidth).
    pub fn argmin(&self) -> Result<(usize, f64, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, (&h, &s)) in self.bandwidths.iter().zip(&self.scores).enumerate() {
            if !s.is_finite() {
                continue;
            }
            if best.is_none_or(|(_, _, bs)| s < bs) {
                best = Some((i, h, s));
            }
        }
        best.ok_or(Error::NoValidBandwidth)
    }
}

fn validate_x(x: &[f64]) -> Result<usize> {
    if x.len() < 2 {
        return Err(Error::SampleTooSmall {
            n: x.len(),
            required: 2,
        });
    }
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteData {
            which: "x",
            index: i,
        });
    }
    Ok(x.len())
}

/// Naive `O(k·n²)` LSCV profile for any kernel/convolution pair — the
/// reference the sorted version is tested against, and the only option for
/// the Gaussian.
pub fn lscv_profile_naive<K: Kernel, C: Kernel>(
    x: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
    convolution: &C,
) -> Result<LscvProfile> {
    let n = validate_x(x)?;
    let nf = n as f64;
    let mut scores = Vec::with_capacity(grid.len());
    for &h in grid.values() {
        validate_bandwidth(h)?;
        let inv_h = 1.0 / h;
        let mut sum_k = 0.0;
        let mut sum_c = 0.0;
        for i in 0..n {
            for l in 0..n {
                if l == i {
                    continue;
                }
                let u = (x[i] - x[l]) * inv_h;
                sum_k += kernel.eval(u);
                sum_c += convolution.eval(u);
            }
        }
        let integral_fhat_sq = (sum_c + nf * convolution.eval(0.0)) / (nf * nf * h);
        let loo_term = 2.0 * sum_k / (nf * (nf - 1.0) * h);
        scores.push(integral_fhat_sq - loo_term);
    }
    Ok(LscvProfile {
        bandwidths: grid.values().to_vec(),
        scores,
        n,
    })
}

/// Sorted-sweep LSCV profile: `O(n log n + (n + k)·deg)` per observation —
/// the paper's grid-search trick applied to the density problem it names as
/// future work. Requires both the kernel and its self-convolution to be
/// polynomial in `|u|` (true for Epanechnikov, Uniform, Triangular, …).
pub fn lscv_profile_sorted<K: PolynomialKernel, C: PolynomialKernel>(
    x: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
    convolution: &C,
) -> Result<LscvProfile> {
    let n = validate_x(x)?;
    let nf = n as f64;
    let k_coeffs = kernel.coeffs();
    let c_coeffs = convolution.coeffs();
    let k_radius = kernel.radius();
    let c_radius = convolution.radius();
    let k_deg = k_coeffs.len() - 1;
    let c_deg = c_coeffs.len() - 1;
    let hs = grid.values();
    let kk = hs.len();

    // Pairwise totals Σ_i Σ_{l≠i} K and Σ_i Σ_{l≠i} K̄ per bandwidth.
    let mut total_k = vec![0.0; kk];
    let mut total_c = vec![0.0; kk];

    let mut dist: Vec<f64> = Vec::with_capacity(n - 1);
    let mut dummy: Vec<f64> = Vec::with_capacity(n - 1);
    let mut sk = vec![0.0; k_deg + 1];
    let mut sc = vec![0.0; c_deg + 1];

    for i in 0..n {
        dist.clear();
        dummy.clear();
        for (l, &xl) in x.iter().enumerate() {
            if l != i {
                dist.push((x[i] - xl).abs());
                dummy.push(0.0);
            }
        }
        sort_with_aux(&mut dist, &mut dummy);
        sk.fill(0.0);
        sc.fill(0.0);
        let mut pk = 0usize;
        let mut pc = 0usize;
        for (m, &h) in hs.iter().enumerate() {
            let inv_h = 1.0 / h;
            // Same support predicate as pointwise evaluation (`d·(1/h) ≤ r`)
            // so boundary points are classified identically to the naive
            // path; see `cv::sorted` for the rationale.
            while pk < dist.len() && dist[pk] * inv_h <= k_radius {
                let d = dist[pk];
                let mut pw = 1.0;
                for s in sk.iter_mut() {
                    *s += pw;
                    pw *= d;
                }
                pk += 1;
            }
            while pc < dist.len() && dist[pc] * inv_h <= c_radius {
                let d = dist[pc];
                let mut pw = 1.0;
                for s in sc.iter_mut() {
                    *s += pw;
                    pw *= d;
                }
                pc += 1;
            }
            // An exactly-zero power sum is skipped: when only `d = 0`
            // neighbours are inside the support, `Σ d^j` is 0 for j ≥ 1
            // while `(1/h)^j` may already be `inf`, and `inf·0` would turn
            // the cell into NaN. Wherever `(1/h)^j` is finite the skipped
            // term is ±0, which leaves the `+0.0`-started sum unchanged.
            let mut hp = 1.0;
            let mut acc_k = 0.0;
            for (&c, &p) in k_coeffs.iter().zip(&sk) {
                if p != 0.0 {
                    acc_k += c * hp * p;
                }
                hp *= inv_h;
            }
            let mut hp = 1.0;
            let mut acc_c = 0.0;
            for (&c, &p) in c_coeffs.iter().zip(&sc) {
                if p != 0.0 {
                    acc_c += c * hp * p;
                }
                hp *= inv_h;
            }
            total_k[m] += acc_k;
            total_c[m] += acc_c;
        }
    }

    let c_zero = convolution.eval(0.0);
    let scores = hs
        .iter()
        .enumerate()
        .map(|(m, &h)| {
            let integral_fhat_sq = (total_c[m] + nf * c_zero) / (nf * nf * h);
            let loo_term = 2.0 * total_k[m] / (nf * (nf - 1.0) * h);
            integral_fhat_sq - loo_term
        })
        .collect();

    Ok(LscvProfile {
        bandwidths: hs.to_vec(),
        scores,
        n,
    })
}

/// LSCV bandwidth selector for the Epanechnikov KDE, using the sorted sweep.
#[derive(Debug, Clone)]
pub struct LscvSelector {
    grid_size: usize,
}

impl LscvSelector {
    /// Creates a selector evaluating `grid_size` candidate bandwidths on the
    /// paper-default grid.
    pub fn new(grid_size: usize) -> Self {
        Self { grid_size }
    }

    /// Selects the LSCV-optimal Epanechnikov bandwidth for sample `x`.
    pub fn select(&self, x: &[f64]) -> Result<(f64, LscvProfile)> {
        let grid = BandwidthGrid::paper_default(x, self.grid_size)?;
        let profile = lscv_profile_sorted(x, &grid, &Epanechnikov, &EpanechnikovConvolution)?;
        let (_, h, _) = profile.argmin()?;
        Ok((h, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::{cv_profile_naive, cv_profile_sorted, cv_profile_sorted_par};
    use crate::kernels::{Gaussian, GaussianConvolution};
    use crate::util::{approx_eq, SplitMix64};

    fn gaussian_mixture(n: usize, seed: u64) -> Vec<f64> {
        // Box–Muller bimodal mixture on which LSCV has a clear optimum.
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let u1: f64 = rng.next_f64().max(1e-12);
                let u2: f64 = rng.next_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                if i % 2 == 0 {
                    z * 0.3
                } else {
                    2.0 + z * 0.3
                }
            })
            .collect()
    }

    #[test]
    fn sorted_matches_naive_epanechnikov() {
        let x = gaussian_mixture(120, 71);
        let grid = BandwidthGrid::linear(0.05, 1.5, 40).unwrap();
        let sorted =
            lscv_profile_sorted(&x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
        let naive = lscv_profile_naive(&x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
        for m in 0..grid.len() {
            assert!(
                approx_eq(sorted.scores[m], naive.scores[m], 1e-9, 1e-11),
                "h={}: {} vs {}",
                grid.values()[m],
                sorted.scores[m],
                naive.scores[m]
            );
        }
    }

    #[test]
    fn lscv_optimum_is_interior_for_mixture_data() {
        let x = gaussian_mixture(300, 72);
        let grid = BandwidthGrid::linear(0.02, 3.0, 60).unwrap();
        let profile =
            lscv_profile_sorted(&x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
        let (idx, h, _) = profile.argmin().unwrap();
        assert!(idx > 0 && idx < grid.len() - 1, "optimum at edge: h={h}");
        // A bimodal mixture with modes 2 apart needs h well below 2.
        assert!(h < 1.0, "h={h} too wide");
    }

    #[test]
    fn gaussian_lscv_works_via_naive_path() {
        let x = gaussian_mixture(80, 73);
        let grid = BandwidthGrid::linear(0.05, 1.0, 15).unwrap();
        let profile = lscv_profile_naive(&x, &grid, &Gaussian, &GaussianConvolution).unwrap();
        let (_, h, s) = profile.argmin().unwrap();
        assert!(h > 0.0 && s.is_finite());
    }

    #[test]
    fn lscv_score_approximates_ise_ranking() {
        // LSCV(h) + ∫f² estimates ISE(h); the LSCV-ranked best bandwidth
        // should yield a visibly better density estimate than a 10× wider
        // one. We check via the LSCV scores themselves (monotone proxy).
        let x = gaussian_mixture(200, 74);
        let grid = BandwidthGrid::linear(0.05, 3.0, 30).unwrap();
        let profile =
            lscv_profile_sorted(&x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
        let (idx, _, best) = profile.argmin().unwrap();
        let last = *profile.scores.last().unwrap();
        assert!(best < last, "optimum must beat over-smoothed edge");
        assert!(idx < grid.len() - 1);
    }

    #[test]
    fn selector_end_to_end() {
        let x = gaussian_mixture(150, 75);
        let (h, profile) = LscvSelector::new(50).select(&x).unwrap();
        assert!(h > 0.0);
        assert_eq!(profile.bandwidths.len(), 50);
    }

    /// Duplicate keys at a bandwidth so small that `(1/h)^j` overflows:
    /// only the `d = 0` pairs are inside the support, so every power sum
    /// but the count is exactly zero and must not meet the infinite power.
    #[test]
    fn sorted_scores_duplicate_keys_at_tiny_bandwidths_like_naive() {
        let x = [0.0, 0.0, 0.5, 0.5, 1.0];
        let grids = [
            BandwidthGrid::from_values(vec![1e-300, 1e-150, 0.3]).unwrap(),
            BandwidthGrid::log(1e-300, 1.0, 8).unwrap(),
        ];
        for grid in grids {
            let sorted =
                lscv_profile_sorted(&x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
            let naive =
                lscv_profile_naive(&x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
            for (m, (&s, &v)) in sorted.scores.iter().zip(&naive.scores).enumerate() {
                assert!(
                    s.is_finite() && approx_eq(s, v, 1e-9, 0.0),
                    "{m}: {s} vs {v}"
                );
            }
            assert_eq!(sorted.argmin().unwrap().0, naive.argmin().unwrap().0);
            assert_eq!(sorted.argmin().unwrap().0, 0);
            // The regression sweep assembles its power sums the same way.
            let y = [1.0, 3.0, 2.0, 5.0, 4.0];
            let naive = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
            for sorted in [
                cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap(),
                cv_profile_sorted_par(&x, &y, &grid, &Epanechnikov).unwrap(),
            ] {
                assert_eq!(sorted.included, naive.included);
                for (m, (&s, &v)) in sorted.scores.iter().zip(&naive.scores).enumerate() {
                    assert!(approx_eq(s, v, 1e-9, 0.0), "{m}: {s} vs {v}");
                }
                assert_eq!(sorted.argmin().unwrap(), naive.argmin().unwrap());
            }
        }
    }

    #[test]
    fn rejects_tiny_samples() {
        let grid = BandwidthGrid::from_values(vec![0.1]).unwrap();
        assert!(
            lscv_profile_sorted(&[1.0], &grid, &Epanechnikov, &EpanechnikovConvolution).is_err()
        );
    }
}

//! Multivariate kernel regression with product kernels — the paper's §I
//! "evenly-spaced grid or matrix in multivariate contexts". The weight of
//! observation `l` at point `x` is `Π_j K((x_j − X_lj)/h_j)` with one
//! bandwidth per regressor.
//!
//! Two engines score the CV grid:
//!
//! * [`fast`] — the dimension-recursive fast-sum-updating engine for
//!   product **polynomial** kernels (zero kernel evaluations on the d ≤ 2
//!   hot path; see the module docs for the per-dimension dispatch and
//!   complexity). [`select_multiplier_grid`] and [`select_full_grid`] run
//!   on it, which is what makes the full Cartesian grid — `O(kᵈ·n²)` under
//!   the naive estimator — practical at realistic sizes.
//! * the naive [`MultiNadarayaWatson`] double loop, kept as the agreement
//!   oracle and as the selector for non-polynomial kernels (Gaussian,
//!   Cosine) via [`select_multiplier_grid_naive`] /
//!   [`select_full_grid_naive`].
//!
//! The scalar-multiplier search (one rule-of-thumb base vector, a 1-D grid
//! of multipliers) remains the cheap default when a full per-dimension
//! grid is not needed.

pub mod fast;

use crate::error::{validate_bandwidth, Error, Result};
use crate::kernels::{Kernel, PolynomialKernel};
use crate::select::rule_of_thumb::silverman_bandwidth;

/// Validates a d ≥ 1 regression sample and its bandwidth vectors, in the
/// order every multivariate entry point reports them: at least one column,
/// `n ≥ 2`, each column's length and finiteness, finite `y`, then each
/// vector's dimension and bandwidths.
pub(crate) fn validate_multi_sample<'h>(
    columns: &[Vec<f64>],
    y: &[f64],
    h_vectors: impl IntoIterator<Item = &'h [f64]>,
) -> Result<()> {
    let d = columns.len();
    if d == 0 {
        return Err(Error::DimensionMismatch {
            expected: 1,
            found: 0,
        });
    }
    let n = y.len();
    if n < 2 {
        return Err(Error::SampleTooSmall { n, required: 2 });
    }
    for col in columns {
        if col.len() != n {
            return Err(Error::LengthMismatch {
                x_len: col.len(),
                y_len: n,
            });
        }
        if let Some(i) = col.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteData {
                which: "x",
                index: i,
            });
        }
    }
    if let Some(i) = y.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteData {
            which: "y",
            index: i,
        });
    }
    for hs in h_vectors {
        if hs.len() != d {
            return Err(Error::DimensionMismatch {
                expected: d,
                found: hs.len(),
            });
        }
        for &h in hs {
            validate_bandwidth(h)?;
        }
    }
    Ok(())
}

/// Multivariate product-kernel Nadaraya–Watson estimator.
#[derive(Debug, Clone)]
pub struct MultiNadarayaWatson<'a, K: Kernel> {
    columns: &'a [Vec<f64>],
    y: &'a [f64],
    kernel: K,
    bandwidths: Vec<f64>,
}

impl<'a, K: Kernel> MultiNadarayaWatson<'a, K> {
    /// Constructs the estimator from `d` regressor columns (each of length
    /// `n`), responses, and a per-dimension bandwidth vector.
    pub fn new(
        columns: &'a [Vec<f64>],
        y: &'a [f64],
        kernel: K,
        bandwidths: Vec<f64>,
    ) -> Result<Self> {
        validate_multi_sample(columns, y, [bandwidths.as_slice()])?;
        Ok(Self {
            columns,
            y,
            kernel,
            bandwidths,
        })
    }

    /// Number of regressors `d`.
    pub fn dim(&self) -> usize {
        self.columns.len()
    }

    /// Number of observations `n`.
    pub fn len(&self) -> usize {
        self.y.len()
    }

    /// True when the sample is empty (cannot occur through the constructor).
    pub fn is_empty(&self) -> bool {
        self.y.is_empty()
    }

    /// Product-kernel weight of observation `l` at `point`, tallying one
    /// kernel evaluation per factor actually computed into `evals`.
    fn weight_evals(&self, point: &[f64], l: usize, evals: &mut u64) -> f64 {
        let mut w = 1.0;
        for (j, col) in self.columns.iter().enumerate() {
            *evals += 1;
            w *= self.kernel.eval((point[j] - col[l]) / self.bandwidths[j]);
            if w == 0.0 {
                return 0.0;
            }
        }
        w
    }

    /// Product-kernel weight of observation `l` at `point`.
    fn weight(&self, point: &[f64], l: usize) -> f64 {
        let mut evals = 0;
        self.weight_evals(point, l, &mut evals)
    }

    /// Predicts `E[Y | X = point]`; `None` on zero weight mass.
    pub fn predict(&self, point: &[f64]) -> Result<Option<f64>> {
        if point.len() != self.dim() {
            return Err(Error::DimensionMismatch {
                expected: self.dim(),
                found: point.len(),
            });
        }
        let mut num = 0.0;
        let mut den = 0.0;
        for l in 0..self.len() {
            let w = self.weight(point, l);
            num += self.y[l] * w;
            den += w;
        }
        Ok((den > 0.0).then(|| num / den))
    }

    /// Leave-one-out prediction at sample point `i`.
    pub fn loo_predict(&self, i: usize) -> Option<f64> {
        let mut evals = 0;
        self.loo_predict_evals(i, &mut evals)
    }

    fn loo_predict_evals(&self, i: usize, evals: &mut u64) -> Option<f64> {
        assert!(i < self.len(), "loo index {i} out of bounds");
        let point: Vec<f64> = self.columns.iter().map(|c| c[i]).collect();
        let mut num = 0.0;
        let mut den = 0.0;
        for l in 0..self.len() {
            if l == i {
                continue;
            }
            let w = self.weight_evals(&point, l, evals);
            num += self.y[l] * w;
            den += w;
        }
        (den > 0.0).then(|| num / den)
    }

    /// The CV score `(1/n) Σ (Y_i − ĝ_{-i})² M_i` together with the number
    /// of observations whose leave-one-out fit is defined — one LOO pass
    /// for both quantities (the selectors need `included` to reject
    /// bandwidths that exclude everyone, and re-running `loo_predict` per
    /// observation just to count them doubled the naive CV cost).
    ///
    /// Kernel evaluations performed by the pass are reported to the
    /// `kernel_evals` counter (one per product factor actually computed).
    pub fn cv_score_included(&self) -> (f64, usize) {
        let n = self.len();
        let mut counter = kcv_obs::LocalCounter::new(kcv_obs::Counter::KernelEvals);
        let mut evals = 0u64;
        let mut sum = 0.0;
        let mut included = 0usize;
        for i in 0..n {
            if let Some(g) = self.loo_predict_evals(i, &mut evals) {
                let r = self.y[i] - g;
                sum += r * r;
                included += 1;
            }
        }
        counter.incr(evals);
        (sum / n as f64, included)
    }

    /// The CV score `(1/n) Σ (Y_i − ĝ_{-i})² M_i` for this bandwidth vector.
    pub fn cv_score(&self) -> f64 {
        self.cv_score_included().0
    }
}

/// Result of the scalar-multiplier multivariate bandwidth search.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSelection {
    /// The selected per-dimension bandwidths.
    pub bandwidths: Vec<f64>,
    /// The scalar multiplier applied to the base vector.
    pub multiplier: f64,
    /// The CV score at the optimum.
    pub score: f64,
}

/// Picks the first strict minimum among grid points with at least one
/// included observation (score exactly 0 with nobody included would
/// otherwise win spuriously).
fn best_index(scores: &[f64], included: &[usize]) -> Option<usize> {
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

/// Validates the Cartesian grid, returning the total number of points.
fn validate_full_grid(d: usize, per_dim_grids: &[Vec<f64>]) -> Result<usize> {
    if per_dim_grids.len() != d {
        return Err(Error::DimensionMismatch {
            expected: d,
            found: per_dim_grids.len(),
        });
    }
    let mut total = 1usize;
    for g in per_dim_grids {
        if g.is_empty() {
            return Err(Error::InvalidGrid("empty per-dimension grid"));
        }
        if g.iter().any(|&h| !(h.is_finite() && h > 0.0)) {
            return Err(Error::InvalidGrid("bandwidths must be finite and positive"));
        }
        total = total
            .checked_mul(g.len())
            .ok_or(Error::InvalidGrid("grid product overflows"))?;
    }
    if total > 1_000_000 {
        return Err(Error::InvalidGrid(
            "full grid exceeds 1e6 points; use the multiplier search",
        ));
    }
    Ok(total)
}

/// Decodes Cartesian-grid point `idx` by mixed-radix decoding (first grid
/// is the least-significant digit).
fn decode_grid_point(per_dim_grids: &[Vec<f64>], mut idx: usize) -> Vec<f64> {
    let mut hs = Vec::with_capacity(per_dim_grids.len());
    for g in per_dim_grids {
        hs.push(g[idx % g.len()]);
        idx /= g.len();
    }
    hs
}

/// Selects per-dimension bandwidths by grid-searching a scalar multiplier
/// `c ∈ [c_min, c_max]` of the per-dimension Silverman base vector,
/// scoring every multiplier with the fast-sum-updating engine
/// ([`fast::cv_scores_fast`] — zero kernel evaluations for d ≤ 2).
///
/// For non-polynomial kernels use [`select_multiplier_grid_naive`].
pub fn select_multiplier_grid<K: PolynomialKernel + ?Sized>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    multipliers: &[f64],
) -> Result<MultiSelection> {
    if multipliers.is_empty() {
        return Err(Error::InvalidGrid("empty multiplier grid"));
    }
    if multipliers.iter().any(|&c| !(c.is_finite() && c > 0.0)) {
        return Err(Error::InvalidGrid(
            "multipliers must be finite and positive",
        ));
    }
    let base: Vec<f64> = columns
        .iter()
        .map(|col| silverman_bandwidth(col, &kernel))
        .collect::<Result<_>>()?;
    let h_vectors: Vec<Vec<f64>> = multipliers
        .iter()
        .map(|&c| base.iter().map(|&b| b * c).collect())
        .collect();
    let (scores, included) = fast::cv_scores_fast(columns, y, kernel, &h_vectors)?;
    let g = best_index(&scores, &included).ok_or(Error::NoValidBandwidth)?;
    Ok(MultiSelection {
        bandwidths: h_vectors[g].clone(),
        multiplier: multipliers[g],
        score: scores[g],
    })
}

/// Naive-oracle variant of [`select_multiplier_grid`]: scores every
/// multiplier with the `O(n²·d)` [`MultiNadarayaWatson`] double loop.
/// Works for any [`Kernel`] (Gaussian, Cosine, …).
pub fn select_multiplier_grid_naive<K: Kernel + Clone>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    multipliers: &[f64],
) -> Result<MultiSelection> {
    if multipliers.is_empty() {
        return Err(Error::InvalidGrid("empty multiplier grid"));
    }
    let base: Vec<f64> = columns
        .iter()
        .map(|col| silverman_bandwidth(col, kernel))
        .collect::<Result<_>>()?;
    let _phase = kcv_obs::phase("cv.multi");
    let mut best: Option<MultiSelection> = None;
    for &c in multipliers {
        if !(c.is_finite() && c > 0.0) {
            return Err(Error::InvalidGrid(
                "multipliers must be finite and positive",
            ));
        }
        let hs: Vec<f64> = base.iter().map(|&b| b * c).collect();
        let est = MultiNadarayaWatson::new(columns, y, kernel.clone(), hs.clone())?;
        let (score, included) = est.cv_score_included();
        if included == 0 {
            continue;
        }
        if best.as_ref().is_none_or(|b| score < b.score) {
            best = Some(MultiSelection {
                bandwidths: hs,
                multiplier: c,
                score,
            });
        }
    }
    best.ok_or(Error::NoValidBandwidth)
}

/// Selects per-dimension bandwidths over the *full* Cartesian grid — the
/// "evenly-spaced grid or matrix in multivariate contexts" of the paper's
/// §I — scored with the fast-sum-updating engine
/// ([`fast::cv_scores_fast`]): `O(g·n·(log n·(deg+1)² + deg⁴))` for d = 2
/// with `g` total grid points and **zero kernel evaluations**, instead of
/// the naive `O(g·n²·d)`. Grid points run in parallel with rayon.
///
/// For non-polynomial kernels use [`select_full_grid_naive`].
pub fn select_full_grid<K: PolynomialKernel + ?Sized>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    per_dim_grids: &[Vec<f64>],
) -> Result<MultiSelection> {
    let total = validate_full_grid(columns.len(), per_dim_grids)?;
    let h_vectors: Vec<Vec<f64>> = (0..total)
        .map(|idx| decode_grid_point(per_dim_grids, idx))
        .collect();
    let (scores, included) = fast::cv_scores_fast(columns, y, kernel, &h_vectors)?;
    let g = best_index(&scores, &included).ok_or(Error::NoValidBandwidth)?;
    Ok(MultiSelection {
        bandwidths: h_vectors[g].clone(),
        multiplier: f64::NAN,
        score: scores[g],
    })
}

/// Naive-oracle variant of [`select_full_grid`]: every grid point costs an
/// `O(n²·d)` product-kernel double loop, so the total is `O(kᵈ·n²·d)` —
/// practical only for small `d`, `k`, and `n`. Grid points are evaluated
/// in parallel with rayon. Works for any [`Kernel`].
pub fn select_full_grid_naive<K: Kernel + Clone + Sync>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    per_dim_grids: &[Vec<f64>],
) -> Result<MultiSelection> {
    use rayon::prelude::*;
    let total = validate_full_grid(columns.len(), per_dim_grids)?;
    let _phase = kcv_obs::phase("cv.multi");
    let scope = kcv_obs::scope();
    let scored = (0..total)
        .into_par_iter()
        .map(|idx| {
            let _in_scope = scope.enter();
            let hs = decode_grid_point(per_dim_grids, idx);
            let est = MultiNadarayaWatson::new(columns, y, kernel.clone(), hs.clone())?;
            let (score, included) = est.cv_score_included();
            Ok((hs, score, included))
        })
        .collect::<Result<Vec<_>>>()?;
    let best = scored
        .into_iter()
        .filter(|(_, _, included)| *included > 0)
        .min_by(|a, b| a.1.total_cmp(&b.1));

    match best {
        Some((bandwidths, score, _)) => Ok(MultiSelection {
            bandwidths,
            multiplier: f64::NAN,
            score,
        }),
        None => Err(Error::NoValidBandwidth),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Gaussian};
    use crate::util::SplitMix64;

    fn dgp2(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x1: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let x2: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x1
            .iter()
            .zip(&x2)
            .map(|(&a, &b)| a + 2.0 * b * b + 0.1 * rng.next_f64())
            .collect();
        (vec![x1, x2], y)
    }

    #[test]
    fn constant_response_recovered() {
        let (cols, _) = dgp2(50, 101);
        let y = vec![7.0; 50];
        let est = MultiNadarayaWatson::new(&cols, &y, Gaussian, vec![0.3, 0.3]).unwrap();
        let g = est.predict(&[0.5, 0.5]).unwrap().unwrap();
        assert!((g - 7.0).abs() < 1e-10);
    }

    #[test]
    fn univariate_case_matches_scalar_estimator() {
        use crate::estimate::{NadarayaWatson, RegressionEstimator};
        let mut rng = SplitMix64::new(102);
        let x: Vec<f64> = (0..60).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x.iter().map(|&v| v * v + rng.next_f64() * 0.1).collect();
        let cols = vec![x.clone()];
        let multi = MultiNadarayaWatson::new(&cols, &y, Epanechnikov, vec![0.2]).unwrap();
        let scalar = NadarayaWatson::new(&x, &y, Epanechnikov, 0.2).unwrap();
        for &p in &[0.1, 0.5, 0.9] {
            let a = multi.predict(&[p]).unwrap();
            let b = scalar.predict(p);
            match (a, b) {
                (Some(ga), Some(gb)) => assert!((ga - gb).abs() < 1e-12),
                (None, None) => {}
                other => panic!("disagreement at {p}: {other:?}"),
            }
        }
        assert!((multi.cv_score() - scalar.cv_score()).abs() < 1e-12);
    }

    #[test]
    fn prediction_tracks_truth_on_smooth_surface() {
        let (cols, y) = dgp2(800, 103);
        let est = MultiNadarayaWatson::new(&cols, &y, Gaussian, vec![0.07, 0.07]).unwrap();
        let truth = |a: f64, b: f64| a + 2.0 * b * b + 0.05;
        for &(a, b) in &[(0.3, 0.3), (0.5, 0.7), (0.7, 0.2)] {
            let g = est.predict(&[a, b]).unwrap().unwrap();
            assert!(
                (g - truth(a, b)).abs() < 0.15,
                "at ({a},{b}): {g} vs {}",
                truth(a, b)
            );
        }
    }

    #[test]
    fn multiplier_search_finds_interior_optimum() {
        let (cols, y) = dgp2(200, 104);
        let multipliers: Vec<f64> = (1..=20).map(|i| i as f64 * 0.25).collect();
        let sel = select_multiplier_grid(&cols, &y, &Epanechnikov, &multipliers).unwrap();
        assert_eq!(sel.bandwidths.len(), 2);
        assert!(sel.score.is_finite() && sel.score >= 0.0);
        // The optimum should beat the extremes of the multiplier grid.
        let at = |c: f64| {
            let base: Vec<f64> = cols
                .iter()
                .map(|col| silverman_bandwidth(col, &Epanechnikov).unwrap() * c)
                .collect();
            MultiNadarayaWatson::new(&cols, &y, Epanechnikov, base)
                .unwrap()
                .cv_score()
        };
        assert!(sel.score <= at(0.25) + 1e-12);
        assert!(sel.score <= at(5.0) + 1e-12);
    }

    #[test]
    fn full_grid_beats_or_matches_the_multiplier_search() {
        // The full Cartesian grid explores strictly more bandwidth vectors
        // than the scalar-multiplier path built on the same values.
        let (cols, y) = dgp2(120, 106);
        let g1: Vec<f64> = (1..=6).map(|i| i as f64 * 0.05).collect();
        let g2 = g1.clone();
        let full = select_full_grid_naive(&cols, &y, &Gaussian, &[g1.clone(), g2]).unwrap();
        assert_eq!(full.bandwidths.len(), 2);
        // Any single point of the grid can't beat the full-grid optimum.
        for &h1 in &g1 {
            for &h2 in &g1 {
                let est = MultiNadarayaWatson::new(&cols, &y, Gaussian, vec![h1, h2]).unwrap();
                assert!(full.score <= est.cv_score() + 1e-12);
            }
        }
    }

    #[test]
    fn full_grid_can_pick_anisotropic_bandwidths() {
        // Truth varies fast in x2 (quadratic ×2) and slowly in x1: the
        // selected h2 should not exceed h1.
        let (cols, y) = dgp2(400, 107);
        let grid: Vec<f64> = (1..=8).map(|i| i as f64 * 0.04).collect();
        let sel = select_full_grid(&cols, &y, &Epanechnikov, &[grid.clone(), grid]).unwrap();
        assert!(
            sel.bandwidths[1] <= sel.bandwidths[0] + 0.04,
            "expected tighter smoothing along the curved dimension: {:?}",
            sel.bandwidths
        );
    }

    #[test]
    fn full_grid_validates_inputs() {
        let (cols, y) = dgp2(30, 108);
        assert!(select_full_grid_naive(&cols, &y, &Gaussian, &[vec![0.1]]).is_err());
        assert!(select_full_grid_naive(&cols, &y, &Gaussian, &[vec![0.1], vec![]]).is_err());
        assert!(select_full_grid_naive(&cols, &y, &Gaussian, &[vec![0.1], vec![-0.1]]).is_err());
        let huge: Vec<f64> = (1..=1_001).map(|i| i as f64 * 1e-3).collect();
        assert!(
            select_full_grid_naive(&cols, &y, &Gaussian, &[huge.clone(), huge.clone()]).is_err()
        );
        assert!(select_full_grid(&cols, &y, &Epanechnikov, &[vec![0.1]]).is_err());
        assert!(select_full_grid(&cols, &y, &Epanechnikov, &[vec![0.1], vec![]]).is_err());
        assert!(select_full_grid(&cols, &y, &Epanechnikov, &[vec![0.1], vec![-0.1]]).is_err());
        assert!(select_full_grid(&cols, &y, &Epanechnikov, &[huge.clone(), huge]).is_err());
    }

    #[test]
    fn fast_selectors_agree_with_the_naive_variants() {
        let (cols, y) = dgp2(150, 109);
        let grid: Vec<f64> = (1..=5).map(|i| i as f64 * 0.06).collect();
        let fast =
            select_full_grid(&cols, &y, &Epanechnikov, &[grid.clone(), grid.clone()]).unwrap();
        let naive =
            select_full_grid_naive(&cols, &y, &Epanechnikov, &[grid.clone(), grid]).unwrap();
        assert_eq!(fast.bandwidths, naive.bandwidths);
        assert!((fast.score - naive.score).abs() <= 1e-8 * naive.score.abs().max(1.0));

        let multipliers: Vec<f64> = (1..=12).map(|i| i as f64 * 0.4).collect();
        let fast_m = select_multiplier_grid(&cols, &y, &Epanechnikov, &multipliers).unwrap();
        let naive_m = select_multiplier_grid_naive(&cols, &y, &Epanechnikov, &multipliers).unwrap();
        assert_eq!(fast_m.bandwidths, naive_m.bandwidths);
        assert_eq!(fast_m.multiplier, naive_m.multiplier);
    }

    #[test]
    fn cv_score_included_matches_the_separate_passes() {
        let (cols, y) = dgp2(80, 110);
        let est = MultiNadarayaWatson::new(&cols, &y, Epanechnikov, vec![0.05, 0.05]).unwrap();
        let (score, included) = est.cv_score_included();
        assert_eq!(score, est.cv_score());
        let recount = (0..y.len())
            .filter(|&i| est.loo_predict(i).is_some())
            .count();
        assert_eq!(included, recount);
        assert!(included < y.len(), "tiny bandwidth should exclude someone");
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let (cols, y) = dgp2(30, 105);
        assert!(MultiNadarayaWatson::new(&cols, &y, Gaussian, vec![0.1]).is_err());
        let est = MultiNadarayaWatson::new(&cols, &y, Gaussian, vec![0.1, 0.1]).unwrap();
        assert!(est.predict(&[0.5]).is_err());
    }

    #[test]
    fn empty_columns_rejected() {
        let y = vec![1.0, 2.0];
        let cols: Vec<Vec<f64>> = vec![];
        assert!(MultiNadarayaWatson::new(&cols, &y, Gaussian, vec![]).is_err());
    }
}

//! Grid-search bandwidth selectors built on the CV profile strategies.

use super::{BandwidthSelector, Selection};
use crate::cv::{naive, prefix, sorted, CvProfile};
use crate::error::Result;
use crate::grid::BandwidthGrid;
use crate::kernels::{Kernel, PolynomialKernel};

/// Which sweep implementation a [`SortedGridSearch`] runs.
///
/// All strategies compute the same `CV_lc` profile under the bit-identical
/// support predicate `d/h ≤ r`, so they agree exactly on which neighbours
/// participate at every bandwidth; they differ in how the windowed power
/// sums are obtained, and (for [`Strategy::PrefixMoments`]) in the rounding
/// path the scores take — see `kcv_core::cv::prefix` for the documented
/// tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// The paper's per-observation distance sort + ascending grid sweep:
    /// `O(n² log n)` total. The general-position fallback — it is the form
    /// that extends to multivariate regressors, where no global ordering of
    /// `x` exists.
    #[default]
    SortedSweep,
    /// One global argsort plus compensated prefix sums of `x^m`/`y·x^m`,
    /// then per `(observation, bandwidth)` cell a binary-search support
    /// window and an `O(deg²)` binomial assembly:
    /// `O(n log n + n·k·(log n + deg²))` total — no per-neighbour scan at
    /// all. Requires a one-dimensional regressor.
    PrefixMoments,
}

/// How the selector derives its candidate grid from the data.
#[derive(Debug, Clone)]
pub enum GridSpec {
    /// The paper's default: `k` evenly spaced bandwidths with
    /// `max = domain(x)`, `min = domain(x)/k`.
    PaperDefault(usize),
    /// A fixed, caller-supplied grid.
    Explicit(BandwidthGrid),
}

impl GridSpec {
    pub(crate) fn resolve(&self, x: &[f64]) -> Result<BandwidthGrid> {
        match self {
            GridSpec::PaperDefault(k) => BandwidthGrid::paper_default(x, *k),
            GridSpec::Explicit(g) => Ok(g.clone()),
        }
    }
}

/// Grid search with the paper's sorted sweep (`O(n² log n)` total) for
/// polynomial kernels. `parallel = true` uses the rayon SPMD execution.
///
/// The sweep relies on the sorted-sweep invariant: with a compactly
/// supported polynomial kernel, every leave-one-out term inside the
/// support at bandwidth `h₁` stays inside it at every `h₂ > h₁`, so after
/// one per-observation sort a single ascending pass absorbs each neighbour
/// into the running power sums at most once — the whole `k`-point grid
/// costs barely more than one `CV_lc` evaluation.
///
/// # Examples
///
/// ```
/// use kcv_core::prelude::*;
///
/// // Paper DGP: X ~ U(0,1), Y = 0.5X + 10X² + u.
/// let mut rng = kcv_core::util::SplitMix64::new(42);
/// let x: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
/// let y: Vec<f64> = x.iter()
///     .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
///     .collect();
///
/// // Sequential Program 3 and SPMD Program 4 select identically.
/// let seq = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50))
///     .select(&x, &y)
///     .unwrap();
/// let par = SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(50))
///     .select(&x, &y)
///     .unwrap();
/// assert_eq!(seq.bandwidth, par.bandwidth);
/// assert_eq!(seq.evaluations, 50);
/// ```
#[derive(Debug, Clone)]
pub struct SortedGridSearch<K: PolynomialKernel> {
    kernel: K,
    grid: GridSpec,
    strategy: Strategy,
    parallel: bool,
    min_included: usize,
}

impl<K: PolynomialKernel> SortedGridSearch<K> {
    /// Sequential sorted grid search (the paper's Program 3).
    pub fn new(kernel: K, grid: GridSpec) -> Self {
        Self { kernel, grid, strategy: Strategy::SortedSweep, parallel: false, min_included: 1 }
    }

    /// Parallel (SPMD) sorted grid search (the algorithm of Program 4).
    pub fn parallel(kernel: K, grid: GridSpec) -> Self {
        Self { kernel, grid, strategy: Strategy::SortedSweep, parallel: true, min_included: 1 }
    }

    /// Sequential prefix-moment grid search ([`Strategy::PrefixMoments`]):
    /// the per-neighbour scan replaced by window queries over global
    /// compensated moment prefix sums — `O(n log n + n·k·(log n + deg²))`
    /// instead of the sorted sweep's `O(n² log n)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use kcv_core::prelude::*;
    ///
    /// // Paper DGP: X ~ U(0,1), Y = 0.5X + 10X² + u.
    /// let mut rng = kcv_core::util::SplitMix64::new(42);
    /// let x: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
    /// let y: Vec<f64> = x.iter()
    ///     .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
    ///     .collect();
    ///
    /// // The prefix sweep selects the same bandwidth as the paper's sorted
    /// // sweep: support classification is bit-identical, and the documented
    /// // score tolerance never moves the argmin on this DGP.
    /// let sorted = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50))
    ///     .select(&x, &y)
    ///     .unwrap();
    /// let prefix = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(50))
    ///     .select(&x, &y)
    ///     .unwrap();
    /// assert_eq!(sorted.bandwidth, prefix.bandwidth);
    /// ```
    pub fn prefix(kernel: K, grid: GridSpec) -> Self {
        Self { kernel, grid, strategy: Strategy::PrefixMoments, parallel: false, min_included: 1 }
    }

    /// Parallel prefix-moment grid search (rayon over observations against
    /// the shared read-only prefix tables).
    pub fn prefix_par(kernel: K, grid: GridSpec) -> Self {
        Self { kernel, grid, strategy: Strategy::PrefixMoments, parallel: true, min_included: 1 }
    }

    /// Selects the sweep implementation (see [`Strategy`]).
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Requires at least `count` observations to have a defined leave-one-out
    /// fit for a bandwidth to be eligible (guards against degenerate tiny
    /// bandwidths on sparse designs; see [`CvProfile::argmin_with_min_included`]).
    pub fn with_min_included(mut self, count: usize) -> Self {
        self.min_included = count.max(1);
        self
    }

    /// Computes the full CV profile without selecting.
    pub fn profile(&self, x: &[f64], y: &[f64]) -> Result<CvProfile> {
        let grid = self.grid.resolve(x)?;
        match self.strategy {
            Strategy::SortedSweep => sorted::profile(x, y, &grid, &self.kernel, self.parallel),
            Strategy::PrefixMoments => {
                prefix::profile(x, y, grid.values(), &self.kernel, self.parallel)
            }
        }
    }
}

impl<K: PolynomialKernel> BandwidthSelector for SortedGridSearch<K> {
    /// Runs the sweep and returns the grid argmin of `CV_lc(h)`.
    ///
    /// The returned [`Selection`] carries the full [`CvProfile`] so callers
    /// can inspect the whole objective curve, not just the optimum.
    ///
    /// # Examples
    ///
    /// ```
    /// use kcv_core::grid::BandwidthGrid;
    /// use kcv_core::prelude::*;
    ///
    /// let x = vec![0.0, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 1.0];
    /// let y = vec![0.1, 0.2, 0.6, 1.4, 3.7, 6.0, 8.4, 10.4];
    /// let grid = BandwidthGrid::from_values(vec![0.2, 0.4, 0.8]).unwrap();
    ///
    /// let sel = SortedGridSearch::new(Epanechnikov, GridSpec::Explicit(grid))
    ///     .select(&x, &y)
    ///     .unwrap();
    /// assert!([0.2, 0.4, 0.8].contains(&sel.bandwidth));
    /// // The profile records CV_lc at all three candidates.
    /// assert_eq!(sel.profile.unwrap().len(), 3);
    /// ```
    fn select(&self, x: &[f64], y: &[f64]) -> Result<Selection> {
        let profile = self.profile(x, y)?;
        let _argmin = kcv_obs::phase("select.argmin");
        let opt = profile.argmin_with_min_included(self.min_included)?;
        Ok(Selection {
            bandwidth: opt.bandwidth,
            score: opt.score,
            evaluations: profile.len(),
            profile: Some(profile),
        })
    }

    fn name(&self) -> String {
        format!(
            "{}-grid-{}-{}",
            match self.strategy {
                Strategy::SortedSweep => "sorted",
                Strategy::PrefixMoments => "prefix",
            },
            if self.parallel { "par" } else { "seq" },
            self.kernel.name()
        )
    }
}

/// Grid search with the naive `O(k·n²)` profile — works with any kernel
/// (Gaussian, Cosine, …).
#[derive(Debug, Clone)]
pub struct NaiveGridSearch<K: Kernel> {
    kernel: K,
    grid: GridSpec,
    parallel: bool,
    min_included: usize,
}

impl<K: Kernel> NaiveGridSearch<K> {
    /// Sequential naive grid search.
    pub fn new(kernel: K, grid: GridSpec) -> Self {
        Self { kernel, grid, parallel: false, min_included: 1 }
    }

    /// Parallel naive grid search.
    pub fn parallel(kernel: K, grid: GridSpec) -> Self {
        Self { kernel, grid, parallel: true, min_included: 1 }
    }

    /// See [`SortedGridSearch::with_min_included`].
    pub fn with_min_included(mut self, count: usize) -> Self {
        self.min_included = count.max(1);
        self
    }

    /// Computes the full CV profile without selecting.
    pub fn profile(&self, x: &[f64], y: &[f64]) -> Result<CvProfile> {
        let grid = self.grid.resolve(x)?;
        naive::profile(x, y, grid.values(), &self.kernel, self.parallel)
    }
}

impl<K: Kernel> BandwidthSelector for NaiveGridSearch<K> {
    fn select(&self, x: &[f64], y: &[f64]) -> Result<Selection> {
        let profile = self.profile(x, y)?;
        let _argmin = kcv_obs::phase("select.argmin");
        let opt = profile.argmin_with_min_included(self.min_included)?;
        Ok(Selection {
            bandwidth: opt.bandwidth,
            score: opt.score,
            evaluations: profile.len(),
            profile: Some(profile),
        })
    }

    fn name(&self) -> String {
        format!(
            "naive-grid-{}-{}",
            if self.parallel { "par" } else { "seq" },
            self.kernel.name()
        )
    }
}

/// Iteratively refined ("zoom") grid search: run the sorted grid search,
/// then re-grid around the optimum with progressively smaller ranges —
/// §IV-A's recipe for exceeding the 2 048-bandwidth constant-memory limit
/// without a larger grid.
#[derive(Debug, Clone)]
pub struct ZoomGridSearch<K: PolynomialKernel> {
    kernel: K,
    initial: usize,
    rounds: usize,
    parallel: bool,
}

impl<K: PolynomialKernel> ZoomGridSearch<K> {
    /// `initial` bandwidths per round, `rounds` refinement rounds (≥ 1).
    pub fn new(kernel: K, initial: usize, rounds: usize) -> Self {
        Self { kernel, initial, rounds: rounds.max(1), parallel: false }
    }

    /// Uses the parallel sweep inside each round.
    pub fn parallel(mut self) -> Self {
        self.parallel = true;
        self
    }
}

impl<K: PolynomialKernel> BandwidthSelector for ZoomGridSearch<K> {
    fn select(&self, x: &[f64], y: &[f64]) -> Result<Selection> {
        let mut grid = BandwidthGrid::paper_default(x, self.initial)?;
        let mut evaluations = 0usize;
        let mut last: Option<(CvProfile, crate::cv::CvOptimum)> = None;
        for _ in 0..self.rounds {
            let profile = sorted::profile(x, y, &grid, &self.kernel, self.parallel)?;
            evaluations += profile.len();
            let opt = profile.argmin()?;
            grid = grid.refine_around(opt.bandwidth, self.initial)?;
            last = Some((profile, opt));
        }
        let (profile, opt) = last.expect("rounds >= 1");
        Ok(Selection {
            bandwidth: opt.bandwidth,
            score: opt.score,
            evaluations,
            profile: Some(profile),
        })
    }

    fn name(&self) -> String {
        format!("zoom-grid-{}x{}-{}", self.initial, self.rounds, self.kernel.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn sorted_and_naive_grid_searches_agree() {
        let (x, y) = paper_dgp(150, 31);
        let spec = GridSpec::PaperDefault(50);
        let a = SortedGridSearch::new(Epanechnikov, spec.clone()).select(&x, &y).unwrap();
        let b = NaiveGridSearch::new(Epanechnikov, spec).select(&x, &y).unwrap();
        assert!((a.bandwidth - b.bandwidth).abs() < 1e-12);
        assert_eq!(a.evaluations, 50);
    }

    #[test]
    fn parallel_variants_agree_with_sequential() {
        let (x, y) = paper_dgp(200, 32);
        let spec = GridSpec::PaperDefault(50);
        let seq = SortedGridSearch::new(Epanechnikov, spec.clone()).select(&x, &y).unwrap();
        let par = SortedGridSearch::parallel(Epanechnikov, spec).select(&x, &y).unwrap();
        assert!((seq.bandwidth - par.bandwidth).abs() < 1e-12);
    }

    #[test]
    fn prefix_strategy_agrees_with_sorted_and_naive() {
        let (x, y) = paper_dgp(180, 37);
        let spec = GridSpec::PaperDefault(50);
        let sorted = SortedGridSearch::new(Epanechnikov, spec.clone()).select(&x, &y).unwrap();
        let prefix = SortedGridSearch::prefix(Epanechnikov, spec.clone()).select(&x, &y).unwrap();
        let prefix_par =
            SortedGridSearch::prefix_par(Epanechnikov, spec.clone()).select(&x, &y).unwrap();
        let naive = NaiveGridSearch::new(Epanechnikov, spec).select(&x, &y).unwrap();
        assert_eq!(prefix.bandwidth, sorted.bandwidth);
        assert_eq!(prefix.bandwidth, naive.bandwidth);
        assert_eq!(prefix.bandwidth, prefix_par.bandwidth);
        assert_eq!(prefix.evaluations, 50);
    }

    #[test]
    fn prefix_strategy_via_builder_matches_constructor() {
        let (x, y) = paper_dgp(120, 39);
        let spec = GridSpec::PaperDefault(30);
        let direct = SortedGridSearch::prefix(Epanechnikov, spec.clone()).select(&x, &y).unwrap();
        let built = SortedGridSearch::new(Epanechnikov, spec)
            .with_strategy(Strategy::PrefixMoments)
            .select(&x, &y)
            .unwrap();
        assert_eq!(direct.bandwidth, built.bandwidth);
        assert_eq!(direct.score, built.score);
    }

    #[test]
    fn explicit_grid_is_respected() {
        let (x, y) = paper_dgp(80, 33);
        let grid = BandwidthGrid::from_values(vec![0.2, 0.3, 0.4]).unwrap();
        let sel = SortedGridSearch::new(Epanechnikov, GridSpec::Explicit(grid))
            .select(&x, &y)
            .unwrap();
        assert!([0.2, 0.3, 0.4].iter().any(|&h| (h - sel.bandwidth).abs() < 1e-12));
        assert_eq!(sel.evaluations, 3);
    }

    #[test]
    fn naive_grid_search_supports_gaussian() {
        let (x, y) = paper_dgp(60, 34);
        let sel = NaiveGridSearch::new(Gaussian, GridSpec::PaperDefault(20))
            .select(&x, &y)
            .unwrap();
        assert!(sel.bandwidth > 0.0);
        let profile = sel.profile.unwrap();
        assert!(profile.included.iter().all(|&c| c == 60));
    }

    #[test]
    fn zoom_refines_beyond_initial_grid_resolution() {
        let (x, y) = paper_dgp(150, 35);
        let coarse = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(10))
            .select(&x, &y)
            .unwrap();
        let zoomed = ZoomGridSearch::new(Epanechnikov, 10, 4).select(&x, &y).unwrap();
        // The zoom's final score can only be ≤ the coarse grid's optimum
        // (it starts from the same grid and only ever narrows around minima).
        assert!(zoomed.score <= coarse.score + 1e-12);
        assert_eq!(zoomed.evaluations, 40);
    }

    #[test]
    fn min_included_guards_against_degenerate_selection() {
        // A sparse design where tiny bandwidths exclude most points.
        let mut rng = SplitMix64::new(36);
        let x: Vec<f64> = (0..30).map(|_| rng.next_f64() * 10.0).collect();
        let y: Vec<f64> = x.iter().map(|&v| v.sin() + 0.1 * rng.next_f64()).collect();
        let grid = BandwidthGrid::linear(0.001, 5.0, 200).unwrap();
        let strict = SortedGridSearch::new(Epanechnikov, GridSpec::Explicit(grid.clone()))
            .with_min_included(30)
            .select(&x, &y)
            .unwrap();
        let lax = SortedGridSearch::new(Epanechnikov, GridSpec::Explicit(grid))
            .select(&x, &y)
            .unwrap();
        // The strict selector can never pick a bandwidth that excluded anyone.
        assert!(strict.profile.as_ref().unwrap().included[..].iter().max().unwrap() >= &30);
        assert!(strict.bandwidth >= lax.bandwidth);
    }

    #[test]
    fn selector_names_are_informative() {
        assert_eq!(
            SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(5)).name(),
            "sorted-grid-seq-epanechnikov"
        );
        assert_eq!(
            NaiveGridSearch::parallel(Gaussian, GridSpec::PaperDefault(5)).name(),
            "naive-grid-par-gaussian"
        );
        assert_eq!(
            SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(5)).name(),
            "prefix-grid-seq-epanechnikov"
        );
        assert_eq!(
            SortedGridSearch::prefix_par(Epanechnikov, GridSpec::PaperDefault(5)).name(),
            "prefix-grid-par-epanechnikov"
        );
    }
}

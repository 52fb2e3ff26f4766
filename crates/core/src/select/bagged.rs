//! Bagged cross-validated bandwidth selection for samples far past the
//! paper's ceiling (Barreiro-Ures, Cao & Francisco-Fernández).
//!
//! Every strategy in this crate — even the `O(n log n + n·k·deg²)`
//! prefix-moment sweep — still touches all `n` observations per selection,
//! so at `n` in the millions a single full-data CV pass dominates the run.
//! Barreiro-Ures et al. ("Bagging cross-validated bandwidth selection in
//! nonparametric regression estimation with applications to large-sized
//! samples", PAPERS.md) break that dependence: select on subsamples and
//! *rescale*.
//!
//! # Paper notation
//!
//! In their notation, with `n` the full sample size:
//!
//! * draw `N` subsamples of size `r ≪ n` without replacement — here
//!   [`BaggedSelector`]'s `bags` is their `N` and `bag_size` is their `r`;
//! * on each subsample compute the cross-validated bandwidth
//!   `ĥ_CV(r)` — here one per-bag grid search with the prefix-moment
//!   sweep, the fast engine, so the whole run is
//!   `O(B·r·(log r + k·deg²))`;
//! * combine the per-bag selections (their `\bar h(r, N)` is the mean;
//!   a median combiner is provided as a robust alternative —
//!   [`BagCombiner`]);
//! * rescale by `(r/n)^{1/5}`.
//!
//! # Why the exponent is 1/5
//!
//! For a second-order kernel the AMISE-optimal bandwidth of a univariate
//! kernel regression is `h_opt(m) = C_h · m^{−1/5}`, where the constant
//! `C_h` depends on the design density, the error variance, and the
//! curvature of the regression function — but **not** on the sample size
//! `m`. A bandwidth selected on `r` observations therefore estimates
//! `C_h · r^{−1/5}`; multiplying by
//!
//! ```text
//! (r/n)^{1/5}  =  n^{−1/5} / r^{−1/5}
//! ```
//!
//! converts it into an estimate of `C_h · n^{−1/5}`, the bandwidth the full
//! sample wants. Averaging over `N` bags shrinks the subsample noise of the
//! `C_h` estimate by `≈ 1/√N` (the bags overlap, so not exactly), which is
//! the "bagging" part.
//!
//! # Cost
//!
//! Each bag costs one `r`-point selection; the whole run costs at most
//! `B ×` the single-bag bound **independent of `n`** (the only `O(n)` work
//! is the `O(B·r)` index draws — the sparse partial Fisher–Yates in
//! `vendor/rand` never materialises `0..n`). Bags are embarrassingly
//! parallel: with more than one bag they run on the rayon pool, each bag's
//! sweep on its worker's thread, so `B` bags never spawn nested workers (a
//! single bag splits its own grid across cores as the sweep does outside a
//! bag). Peak memory is one bag's footprint times the worker count (see
//! [`bag_footprint_bound_bytes`]), both enforced by `perf_gate`.

use super::grid_search::GridSpec;
use super::{BandwidthSelector, Selection};
use crate::cv::{cv_profile_prefix, prefix};
use crate::error::{validate_sample, Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use rand::rngs::StdRng;
use rand::{seq, SeedableRng};
use rayon::prelude::*;

/// How per-bag bandwidths are aggregated before rescaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BagCombiner {
    /// The arithmetic mean — Barreiro-Ures et al.'s `\bar h(r, N)`.
    #[default]
    Mean,
    /// The median (midpoint of the two central values for even `N`):
    /// robust to the occasional bag whose subsample lands a degenerate
    /// optimum at a grid edge.
    Median,
}

impl BagCombiner {
    /// The snake_case name used in reports and selector names.
    pub fn label(self) -> &'static str {
        match self {
            BagCombiner::Mean => "mean",
            BagCombiner::Median => "median",
        }
    }

    fn combine(self, values: &[f64]) -> f64 {
        debug_assert!(!values.is_empty());
        match self {
            BagCombiner::Mean => values.iter().sum::<f64>() / values.len() as f64,
            BagCombiner::Median => {
                let mut sorted = values.to_vec();
                sorted.sort_by(f64::total_cmp);
                let mid = sorted.len() / 2;
                if sorted.len() % 2 == 1 {
                    sorted[mid]
                } else {
                    0.5 * (sorted[mid - 1] + sorted[mid])
                }
            }
        }
    }
}

/// One bag's selection outcome.
#[derive(Debug, Clone)]
pub struct BagOutcome {
    /// Bag index in `0..bags`.
    pub bag: usize,
    /// The bandwidth `ĥ_CV(r)` the bag's grid search selected — **before**
    /// the `(r/n)^{1/5}` rescaling.
    pub bandwidth: f64,
    /// The CV score at that bandwidth, on the bag's subsample.
    pub score: f64,
}

/// The full outcome of a bagged selection — everything
/// [`BaggedSelector::select`] folds into a [`Selection`], plus the per-bag
/// detail the scaling study and the convergence tests inspect.
#[derive(Debug, Clone)]
pub struct BaggedSelection {
    /// The final bandwidth: `combined × rescale`.
    pub bandwidth: f64,
    /// The combined per-bag bandwidth `\bar h(r, N)` before rescaling.
    pub combined: f64,
    /// The `(r/n)^{1/5}` factor applied to `combined` (exactly `1.0` when
    /// `bag_size == n`).
    pub rescale: f64,
    /// Per-bag outcomes, in bag order (deterministic: bag `b`'s subsample
    /// depends only on the selector seed and `b`, never on scheduling).
    pub bags: Vec<BagOutcome>,
    /// Total single-bandwidth objective evaluations across bags (`B · k`).
    pub evaluations: usize,
}

/// Bagged CV bandwidth selector: `bags` seeded without-replacement
/// subsamples of `bag_size`, one prefix-sweep grid search per bag,
/// combined and rescaled by `(bag_size/n)^{1/5}` — see the
/// [module docs](self) for the derivation and the Barreiro-Ures et al.
/// notation map.
///
/// With more than one bag, the bags run in parallel on the vendored rayon
/// pool; each bag executes under a `cv.bag` phase scope and bumps the
/// `bags_run` counter, attributed to the caller's `kcv-obs` recorder.
///
/// # Examples
///
/// Bagged selection tracks the full-data answer at a fraction of the cost:
///
/// ```
/// use kcv_core::prelude::*;
///
/// // Paper DGP: X ~ U(0,1), Y = 0.5X + 10X² + u.
/// let mut rng = kcv_core::util::SplitMix64::new(42);
/// let x: Vec<f64> = (0..4000).map(|_| rng.next_f64()).collect();
/// let y: Vec<f64> = x.iter()
///     .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
///     .collect();
///
/// // N = 8 bags of r = 500 (their notation), prefix engine, mean combiner.
/// let bagged = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(50), 8, 500)
///     .select(&x, &y)
///     .unwrap();
/// let full = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(50))
///     .select(&x, &y)
///     .unwrap();
/// assert!((bagged.bandwidth - full.bandwidth).abs() < 0.04);
/// ```
///
/// With `bags = 1` and `bag_size = n` the "subsample" is the full sample in
/// original order and the rescale factor is exactly `1`, so the selection
/// is bit-identical to the underlying engine's:
///
/// ```
/// use kcv_core::prelude::*;
///
/// let mut rng = kcv_core::util::SplitMix64::new(7);
/// let x: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
/// let y: Vec<f64> = x.iter().map(|&v| v * v + 0.1 * rng.next_f64()).collect();
///
/// let degenerate = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(40), 1, x.len())
///     .select(&x, &y)
///     .unwrap();
/// let direct = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(40))
///     .select(&x, &y)
///     .unwrap();
/// assert_eq!(degenerate.bandwidth, direct.bandwidth);
/// assert_eq!(degenerate.score, direct.score);
/// ```
#[derive(Debug, Clone)]
pub struct BaggedSelector<K: PolynomialKernel> {
    kernel: K,
    grid: GridSpec,
    bags: usize,
    bag_size: usize,
    seed: u64,
    combiner: BagCombiner,
    min_included: usize,
}

impl<K: PolynomialKernel> BaggedSelector<K> {
    /// Creates a bagged selector with `bags` subsamples of `bag_size`
    /// (their `N` and `r`), the mean combiner and seed `0`. `bags` is
    /// clamped to ≥ 1 and `bag_size` to ≥ 2. The grid spec is resolved **once from the full
    /// sample** and the resulting grid is shared by every bag — a
    /// [`GridSpec::PaperDefault`] therefore spans the full sample's
    /// domain (not each subsample's), which saves `B − 1` grid
    /// resolutions and makes per-bag CV profiles directly comparable:
    /// every bag scores the same candidate bandwidths.
    pub fn new(kernel: K, grid: GridSpec, bags: usize, bag_size: usize) -> Self {
        Self {
            kernel,
            grid,
            bags: bags.max(1),
            bag_size: bag_size.max(2),
            seed: 0,
            combiner: BagCombiner::default(),
            min_included: 1,
        }
    }

    /// Selects the per-bag aggregation rule.
    pub fn with_combiner(mut self, combiner: BagCombiner) -> Self {
        self.combiner = combiner;
        self
    }

    /// Sets the subsampling seed. Bag `b` draws its indices from a
    /// generator seeded with a SplitMix-style mix of `seed` and `b`, so the
    /// whole selection is a pure function of `(seed, x, y)` — independent
    /// of thread scheduling.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// See [`super::SortedGridSearch::with_min_included`]; applied within
    /// each bag (against the bag's `bag_size`-point subsample).
    pub fn with_min_included(mut self, count: usize) -> Self {
        self.min_included = count.max(1);
        self
    }

    /// The subsample for bag `b`: `bag_size` observations drawn without
    /// replacement via the seeded sparse partial Fisher–Yates. When
    /// `bag_size == n` the "subsample" is the full sample in original
    /// order (sampling `n` of `n` without replacement is the full sample
    /// as a set; keeping the original order makes `bags = 1,
    /// bag_size = n` bit-identical to the underlying engine).
    fn bag_sample(&self, x: &[f64], y: &[f64], bag: usize) -> (Vec<f64>, Vec<f64>) {
        let n = x.len();
        if self.bag_size == n {
            return (x.to_vec(), y.to_vec());
        }
        // Decorrelate per-bag streams: the raw seed+index sum would give
        // adjacent bags adjacent SplitMix states one increment apart.
        let bag_seed = self
            .seed
            .wrapping_add((bag as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = StdRng::seed_from_u64(bag_seed);
        let idx = seq::index::sample(&mut rng, n, self.bag_size);
        let bx: Vec<f64> = idx.iter().map(|&i| x[i]).collect();
        let by: Vec<f64> = idx.iter().map(|&i| y[i]).collect();
        (bx, by)
    }

    fn run_bag(
        &self,
        x: &[f64],
        y: &[f64],
        grid: &BandwidthGrid,
        bag: usize,
    ) -> Result<(BagOutcome, usize)> {
        let _bag_phase = kcv_obs::phase("cv.bag");
        let (bx, by) = self.bag_sample(x, y, bag);
        // Bags that run on parallel workers keep their sweeps on the
        // worker's thread; a lone bag splits its grid like any sweep.
        let profile = if self.bags > 1 {
            prefix::profile_in_blocks(&bx, &by, grid.values(), &self.kernel, 1)?
        } else {
            cv_profile_prefix(&bx, &by, grid, &self.kernel)?
        };
        let opt = profile.argmin_with_min_included(self.min_included)?;
        kcv_obs::add(kcv_obs::Counter::BagsRun, 1);
        Ok((
            BagOutcome {
                bag,
                bandwidth: opt.bandwidth,
                score: opt.score,
            },
            profile.len(),
        ))
    }

    /// Runs the full bagged selection and returns the per-bag detail.
    ///
    /// Errors if the sample is invalid, if `bag_size > n`
    /// ([`Error::SampleTooSmall`]), or if any bag's grid search fails.
    pub fn select_bagged(&self, x: &[f64], y: &[f64]) -> Result<BaggedSelection> {
        let n = validate_sample(x, y, 2)?;
        if self.bag_size > n {
            return Err(Error::SampleTooSmall {
                n,
                required: self.bag_size,
            });
        }
        // One grid resolution from the full sample, shared by every bag —
        // every bag then scores the same candidate bandwidths, so per-bag
        // profiles are directly comparable.
        let grid = self.grid.resolve(x)?;

        let outcomes: Vec<Result<(BagOutcome, usize)>> = if self.bags > 1 {
            let scope = kcv_obs::scope();
            (0..self.bags)
                .into_par_iter()
                .map(|b| {
                    let _in_scope = scope.enter();
                    self.run_bag(x, y, &grid, b)
                })
                .collect()
        } else {
            vec![self.run_bag(x, y, &grid, 0)]
        };

        let mut bags = Vec::with_capacity(self.bags);
        let mut evaluations = 0usize;
        for outcome in outcomes {
            let (bag, evals) = outcome?;
            bags.push(bag);
            evaluations += evals;
        }

        let per_bag: Vec<f64> = bags.iter().map(|b| b.bandwidth).collect();
        let combined = self.combiner.combine(&per_bag);
        // h_opt(m) = C_h · m^{−1/5}: converts the r-sample estimate of
        // C_h · r^{−1/5} into the n-sample target C_h · n^{−1/5}.
        let rescale = (self.bag_size as f64 / n as f64).powf(0.2);
        Ok(BaggedSelection {
            bandwidth: combined * rescale,
            combined,
            rescale,
            bags,
            evaluations,
        })
    }
}

impl<K: PolynomialKernel> BandwidthSelector for BaggedSelector<K> {
    /// Runs [`BaggedSelector::select_bagged`] and returns the rescaled
    /// combined bandwidth. `score` is the combiner applied to the per-bag
    /// CV scores — a diagnostic (each score is `CV_lc` on its own
    /// subsample at the *unrescaled* bag bandwidth), not the objective at
    /// the returned bandwidth. No single profile exists, so `profile` is
    /// `None`.
    fn select(&self, x: &[f64], y: &[f64]) -> Result<Selection> {
        let bagged = self.select_bagged(x, y)?;
        let scores: Vec<f64> = bagged.bags.iter().map(|b| b.score).collect();
        Ok(Selection {
            bandwidth: bagged.bandwidth,
            score: self.combiner.combine(&scores),
            evaluations: bagged.evaluations,
            profile: None,
        })
    }

    fn name(&self) -> String {
        format!(
            "bagged-{}x{}-prefix-{}-{}",
            self.bags,
            self.bag_size,
            self.combiner.label(),
            self.kernel.name()
        )
    }
}

/// Documented upper bound, in bytes, on one bag's transient heap
/// allocation with the prefix-moment engine at kernel degree ≤ 2.
///
/// Accounting (`r = bag_size`, `k` grid points, 8-byte floats): subsample
/// copies `2·8r`, the sparse Fisher–Yates index map and index vector
/// `≈ 28r`, the engine's argsort permutation `8r`, permuted copies `2·8r`,
/// the centred copy `8r`, two `(deg+1)×(r+1)` prefix-moment tables `48r`,
/// and `≈ 24k` of profile vectors — about `124r + 24k` live at peak. The
/// bound doubles that and adds a fixed 64 KiB allowance for allocator and
/// scheduling slop, so it stays safely above real peaks while remaining
/// `O(r + k)` — **independent of the full sample size `n`**, which is the
/// invariant the bagged memory perf gate divides the measured peak into
/// (one bag's bound × worker count ≥ whole-run peak).
pub fn bag_footprint_bound_bytes(bag_size: usize, k: usize) -> u64 {
    256 * bag_size as u64 + 64 * k as u64 + (1 << 16)
}

/// The number of rayon workers a `bags`-bag run can occupy at once: bags
/// are chunked over `available_parallelism` threads, and at most one bag
/// per worker is live at any instant (each bag's subsample and tables drop
/// before the worker starts its next bag).
pub fn bag_workers(bags: usize) -> u64 {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(bags.max(1)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;
    use crate::select::SortedGridSearch;
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
    fn bagged_selection_is_deterministic_and_schedule_independent() {
        // Bag `b`'s subsample depends only on the seed and `b`: the first
        // three bags of a six-bag run equal a three-bag run's, whichever
        // worker ran them.
        let (x, y) = paper_dgp(1_200, 11);
        let selector = |bags| {
            BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(30), bags, 300).with_seed(9)
        };
        let six = selector(6).select_bagged(&x, &y).unwrap();
        let three = selector(3).select_bagged(&x, &y).unwrap();
        let again = selector(6).select_bagged(&x, &y).unwrap();
        assert_eq!(six.bandwidth.to_bits(), again.bandwidth.to_bits());
        for (a, b) in six.bags.iter().zip(&three.bags) {
            assert_eq!(a.bag, b.bag);
            assert_eq!(a.bandwidth.to_bits(), b.bandwidth.to_bits());
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
    }

    #[test]
    fn different_seeds_draw_different_bags() {
        let (x, y) = paper_dgp(800, 12);
        let a = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(40), 4, 200)
            .with_seed(1)
            .select_bagged(&x, &y)
            .unwrap();
        let b = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(40), 4, 200)
            .with_seed(2)
            .select_bagged(&x, &y)
            .unwrap();
        // Same DGP, different subsamples: per-bag selections should differ
        // somewhere even if the combined answers land close.
        assert!(
            a.bags
                .iter()
                .zip(&b.bags)
                .any(|(p, q)| p.bandwidth != q.bandwidth),
            "seeds 1 and 2 produced identical per-bag selections"
        );
    }

    #[test]
    fn full_size_single_bag_is_bit_identical_to_the_engine() {
        let (x, y) = paper_dgp(400, 13);
        let bagged = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(30), 1, x.len())
            .select(&x, &y)
            .unwrap();
        let direct = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(30))
            .select(&x, &y)
            .unwrap();
        assert_eq!(bagged.bandwidth.to_bits(), direct.bandwidth.to_bits());
        assert_eq!(bagged.score.to_bits(), direct.score.to_bits());
    }

    #[test]
    fn bags_score_the_shared_full_sample_grid() {
        // The grid is resolved once from the full sample: every bag's
        // selected bandwidth must be bitwise a member of that grid, even
        // though each subsample spans a narrower domain.
        let (x, y) = paper_dgp(1_000, 18);
        let grid = GridSpec::PaperDefault(30).resolve(&x).unwrap();
        let sel = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(30), 6, 250)
            .with_seed(3)
            .select_bagged(&x, &y)
            .unwrap();
        for bag in &sel.bags {
            assert!(
                grid.values().contains(&bag.bandwidth),
                "bag {} selected {} outside the shared full-sample grid",
                bag.bag,
                bag.bandwidth
            );
        }
    }

    #[test]
    fn rescale_factor_follows_the_one_fifth_law() {
        let (x, y) = paper_dgp(1_000, 14);
        let sel = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(25), 3, 250)
            .select_bagged(&x, &y)
            .unwrap();
        assert_eq!(sel.rescale, 0.25f64.powf(0.2));
        assert_eq!(sel.bandwidth, sel.combined * sel.rescale);
        assert_eq!(sel.bags.len(), 3);
        assert_eq!(sel.evaluations, 3 * 25);
    }

    #[test]
    fn combiners_aggregate_as_documented() {
        assert_eq!(BagCombiner::Mean.combine(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(BagCombiner::Median.combine(&[6.0, 1.0, 2.0]), 2.0);
        assert_eq!(BagCombiner::Median.combine(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(BagCombiner::Median.combine(&[5.0]), 5.0);
    }

    #[test]
    fn median_combiner_shrugs_off_an_outlier_bag() {
        let (x, y) = paper_dgp(900, 15);
        let median = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(30), 9, 300)
            .with_combiner(BagCombiner::Median)
            .select_bagged(&x, &y)
            .unwrap();
        let mean = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(30), 9, 300)
            .select_bagged(&x, &y)
            .unwrap();
        // Both land in the plausible range for the paper DGP; identical bag
        // sets, different aggregation.
        assert!(median.bandwidth > 0.0 && median.bandwidth < 1.0);
        assert!((median.combined - mean.combined).abs() < 0.1);
    }

    #[test]
    fn oversized_bags_are_rejected() {
        let (x, y) = paper_dgp(50, 16);
        let err = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(10), 2, 100)
            .select_bagged(&x, &y)
            .unwrap_err();
        assert_eq!(
            err,
            Error::SampleTooSmall {
                n: 50,
                required: 100
            }
        );
    }

    #[test]
    fn selector_name_is_informative() {
        let name = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(10), 25, 2_000)
            .with_combiner(BagCombiner::Median)
            .name();
        assert_eq!(name, "bagged-25x2000-prefix-median-epanechnikov");
    }

    #[test]
    fn footprint_bound_is_independent_of_n() {
        // The bound is a function of (r, k) only — the memory gate's point.
        assert_eq!(
            bag_footprint_bound_bytes(2_000, 50),
            256 * 2_000 + 64 * 50 + 65_536
        );
        assert!(bag_workers(25) >= 1);
        assert!(bag_workers(1) == 1);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn bags_run_counter_and_phase_attribute_to_the_caller_scope() {
        let (x, y) = paper_dgp(600, 17);
        let recorder = kcv_obs::Recorder::new();
        {
            let _scope = recorder.install();
            BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(20), 5, 150)
                .select_bagged(&x, &y)
                .unwrap();
        }
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("bags_run"), 5);
        let bag_phase = snap.phases.iter().find(|p| p.name == "cv.bag").unwrap();
        assert_eq!(bag_phase.calls, 5);
        // Prefix engine: one window query per (obs, bandwidth) cell per
        // bag, zero kernel evals — the B × single-bag work bound.
        assert_eq!(snap.counter("window_queries"), 5 * 150 * 20);
        assert_eq!(snap.counter("kernel_evals"), 0);
    }
}

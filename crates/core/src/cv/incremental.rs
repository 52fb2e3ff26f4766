//! The streaming engine: a sliding window re-selected by the prefix sweep.
//!
//! [`SlidingWindowSelector`] keeps the last `W` observations of a stream in
//! arrival order, in one deque: an arrival is a `push_back`, `O(1)`, and
//! once the window is full the oldest observation leaves by `pop_front`.
//! Every `cadence` arrivals it re-selects by handing the window, as it
//! stands, to [`cv_profile_prefix`] — the paper's sort once, then sweep. A
//! streaming re-selection therefore *is* the batch profile of the window:
//! every score, `included` count and the optimum equal
//! `cv_profile_prefix` on the window's observations in arrival order,
//! `to_bits`, with zero kernel evaluations. The prefix engine decides its
//! own bandwidth split; the serve and benchmark windows (`W·k` below
//! 65 536 cells) stay on the calling thread.
//!
//! Each re-selection adds one to the `reselects` counter and the window's
//! length to `tree_updates` (the table rows the prefix pass writes, one
//! per observation); perf gate 14 holds the total under
//! `(inserts + removes)·⌈log₂ W⌉·(deg + 3)` for the streaming replay. The
//! amortised per-arrival cost is `O(1)` plus one
//! `O(W log W + W·k·deg²)` re-selection per `cadence` arrivals — the
//! `streaming` bench binary measures the resulting throughput against
//! recompute-from-scratch per arrival.

use std::collections::VecDeque;

use super::{cv_profile_prefix, CvOptimum, CvProfile};
use crate::error::{Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;

/// A fixed-capacity sliding window over a stream of observations,
/// re-selecting the bandwidth every `cadence` arrivals with
/// [`cv_profile_prefix`] over the window.
///
/// [`push`](Self::push) evicts the oldest observation once the window is
/// full (a `pop_front`), appends the arrival, and — when the cadence fires
/// and at least two observations are live — re-selects, caching the
/// optimum for [`current`](Self::current).
#[derive(Debug, Clone)]
pub struct SlidingWindowSelector<K> {
    kernel: K,
    grid: BandwidthGrid,
    /// The window's `x` in arrival order.
    xs: VecDeque<f64>,
    /// The window's `y`, co-indexed with `xs`.
    ys: VecDeque<f64>,
    capacity: usize,
    cadence: usize,
    since_reselect: usize,
    last: Option<CvOptimum>,
}

impl<K: PolynomialKernel> SlidingWindowSelector<K> {
    /// Creates an empty window of `capacity` observations re-selecting
    /// every `cadence` arrivals over `grid`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `capacity < 2` (a window must be able
    /// to hold the two observations cross-validation needs) or
    /// `cadence == 0` (the cadence counts arrivals between re-selections,
    /// so zero would demand a re-selection before any arrival exists).
    pub fn new(kernel: K, grid: BandwidthGrid, capacity: usize, cadence: usize) -> Result<Self> {
        if capacity < 2 {
            return Err(Error::InvalidParameter {
                name: "capacity",
                requirement: "at least 2 (cross-validation needs two observations)",
            });
        }
        if cadence == 0 {
            return Err(Error::InvalidParameter {
                name: "cadence",
                requirement: "positive (arrivals between re-selections)",
            });
        }
        Ok(Self {
            kernel,
            grid,
            xs: VecDeque::with_capacity(capacity),
            ys: VecDeque::with_capacity(capacity),
            capacity,
            cadence,
            since_reselect: 0,
            last: None,
        })
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The window capacity `W` fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The re-selection cadence fixed at construction.
    pub fn cadence(&self) -> usize {
        self.cadence
    }

    /// The optimum from the most recent re-selection, if any has run.
    pub fn current(&self) -> Option<CvOptimum> {
        self.last
    }

    /// Pushes one arrival: evict-oldest if at capacity, append, and
    /// re-select when the cadence fires. Returns the fresh optimum on
    /// re-selection turns, `None` otherwise.
    ///
    /// The arrival is validated **before** the oldest observation is
    /// evicted, so a failed `push` (non-finite `x`/`y`,
    /// [`Error::NonFiniteData`]) leaves the window exactly as it was — the
    /// stream may discard the bad arrival and keep going, and the next
    /// cadence re-selection scores the intact surviving window.
    pub fn push(&mut self, x: f64, y: f64) -> Result<Option<CvOptimum>> {
        if self.push_deferred(x, y)? {
            return self.reselect_now().map(Some);
        }
        Ok(None)
    }

    /// [`push`](Self::push) without the re-selection: applies the arrival
    /// (same validation, eviction, and cadence clock) and returns whether
    /// the cadence is now due — i.e. whether `push` would have re-selected
    /// on this arrival. Callers that batch arrivals (the `kcv-serve`
    /// shards) apply a burst through this method and then run one
    /// [`reselect_now`](Self::reselect_now) for the whole burst; calling
    /// `reselect_now` exactly when this returns `true` reproduces `push`'s
    /// behaviour operation-for-operation.
    pub fn push_deferred(&mut self, x: f64, y: f64) -> Result<bool> {
        for (which, v) in [("x", x), ("y", y)] {
            if !v.is_finite() {
                return Err(Error::NonFiniteData { which, index: 0 });
            }
        }
        if self.xs.len() == self.capacity {
            self.xs.pop_front();
            self.ys.pop_front();
        }
        self.xs.push_back(x);
        self.ys.push_back(y);
        self.since_reselect += 1;
        Ok(self.since_reselect >= self.cadence && self.xs.len() >= 2)
    }

    /// Forces a re-selection immediately (also resets the cadence clock).
    ///
    /// # Errors
    /// As [`cv_profile_prefix`] on the window: [`Error::SampleTooSmall`]
    /// below two observations, [`Error::KernelDegreeTooHigh`] for a kernel
    /// above [`MAX_KERNEL_DEGREE`](super::MAX_KERNEL_DEGREE); and
    /// [`Error::NoValidBandwidth`] when every bandwidth excluded every
    /// observation.
    pub fn reselect_now(&mut self) -> Result<CvOptimum> {
        self.since_reselect = 0;
        let opt = self.profile()?.argmin()?;
        self.last = Some(opt);
        Ok(opt)
    }

    /// The prefix profile of the window in arrival order, counted as one
    /// re-selection writing one table row per observation.
    fn profile(&mut self) -> Result<CvProfile> {
        let (x, y) = (self.xs.make_contiguous(), self.ys.make_contiguous());
        let profile = cv_profile_prefix(x, y, &self.grid, &self.kernel)?;
        kcv_obs::add(kcv_obs::Counter::Reselects, 1);
        kcv_obs::add(kcv_obs::Counter::TreeUpdates, profile.n as u64);
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{Epanechnikov, Quartic, Triweight, Uniform};
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

    /// The window's profile equals a fresh prefix profile of `(x, y)`
    /// `to_bits`, scores and `included` alike.
    fn assert_window_is_prefix<K: PolynomialKernel>(
        win: &mut SlidingWindowSelector<K>,
        x: &[f64],
        y: &[f64],
    ) {
        let fresh = cv_profile_prefix(x, y, &win.grid, &win.kernel).unwrap();
        let ours = win.profile().unwrap();
        let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(ours.n, fresh.n);
        assert_eq!(ours.included, fresh.included);
        assert_eq!(bits(&ours), bits(&fresh));
    }

    /// Fills a window of capacity `n` with `(x, y)`.
    fn filled<K: PolynomialKernel>(
        kernel: K,
        grid: BandwidthGrid,
        x: &[f64],
        y: &[f64],
    ) -> SlidingWindowSelector<K> {
        let mut win = SlidingWindowSelector::new(kernel, grid, x.len(), x.len()).unwrap();
        for (&xi, &yi) in x.iter().zip(y) {
            win.push_deferred(xi, yi).unwrap();
        }
        win
    }

    #[test]
    fn batch_insert_matches_fresh_prefix() {
        let (x, y) = paper_dgp(400, 31);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let mut win = filled(Epanechnikov, grid, &x, &y);
        assert_eq!(win.len(), 400);
        assert_window_is_prefix(&mut win, &x, &y);
    }

    #[test]
    fn removals_after_fold_stay_bit_identical_on_selection() {
        // A re-selection, then 100 evictions past it: the window holds
        // the last 300 arrivals and profiles like them.
        let (x, y) = paper_dgp(400, 32);
        let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
        let mut win = filled(Epanechnikov, grid, &x[..300], &y[..300]);
        win.reselect_now().unwrap();
        for (&xi, &yi) in x.iter().zip(&y).skip(300) {
            win.push_deferred(xi, yi).unwrap();
        }
        assert_eq!(win.len(), 300);
        assert_window_is_prefix(&mut win, &x[100..], &y[100..]);
    }

    /// Keys whose every observation the window evicted, between live ones:
    /// a gap the cursors step across.
    #[test]
    fn a_run_of_dead_slots_reselects_like_a_fresh_profile() {
        let (x, y) = paper_dgp(300, 37);
        let gone = |v: f64| (0.30..0.42).contains(&v) || (0.7..0.71).contains(&v);
        // The keys in the gap arrive first and are evicted by the rest.
        let obs: Vec<(f64, f64)> = x.iter().copied().zip(y.iter().copied()).collect();
        let (early, late): (Vec<_>, Vec<_>) = obs.iter().partition(|&&(v, _)| gone(v));
        let (xs, ys): (Vec<f64>, Vec<f64>) = late.iter().copied().unzip();
        assert!(early.len() > 8, "too few keys emptied");
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let mut win = SlidingWindowSelector::new(Epanechnikov, grid, xs.len(), 16).unwrap();
        for (xi, yi) in early.into_iter().chain(late) {
            win.push(xi, yi).unwrap();
        }
        assert_window_is_prefix(&mut win, &xs, &ys);
    }

    /// A window whose evictions emptied some lattice keys and thinned the
    /// others profiles like a fresh pool of the survivors.
    #[test]
    fn dead_slots_reselect_like_a_fresh_pool_of_survivors() {
        // Two rounds over 40 lattice keys, then a third without every
        // fifth key: the window keeps the last 20 of round two, so keys
        // 0, 5, 10 and 15 empty and the others keep one or two copies.
        let keys: Vec<f64> = (0..40).map(|j| j as f64 / 40.0 + 0.003).collect();
        let mut rng = SplitMix64::new(40);
        let obs: Vec<(f64, f64)> = (0..120)
            .filter(|&i| i < 80 || i % 5 != 0)
            .map(|i| {
                let key = keys[i % keys.len()];
                (key, 0.5 * key + 10.0 * key * key + 0.5 * rng.next_f64())
            })
            .collect();
        let x: Vec<f64> = obs.iter().map(|o| o.0).collect();
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let keep = 52;
        let (xs, ys): (Vec<f64>, Vec<f64>) = obs[obs.len() - keep..].iter().copied().unzip();
        assert!(!xs.contains(&keys[15]) && xs.contains(&keys[16]));
        for kernel in [&Epanechnikov as &dyn PolynomialKernel, &Triweight, &Uniform] {
            let mut win = SlidingWindowSelector::new(kernel, grid.clone(), keep, 13).unwrap();
            for &(xi, yi) in &obs {
                win.push(xi, yi).unwrap();
            }
            assert_window_is_prefix(&mut win, &xs, &ys);
        }
    }

    #[test]
    fn higher_degree_kernels_agree() {
        let (x, y) = paper_dgp(250, 34);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        assert_window_is_prefix(&mut filled(Quartic, grid.clone(), &x, &y), &x, &y);
        assert_window_is_prefix(&mut filled(Triweight, grid.clone(), &x, &y), &x, &y);
        assert_window_is_prefix(&mut filled(Uniform, grid, &x, &y), &x, &y);
    }

    #[test]
    fn sliding_window_tracks_the_trailing_observations() {
        let (x, y) = paper_dgp(600, 36);
        let grid = BandwidthGrid::log(0.01, 0.5, 20).unwrap();
        let mut win = SlidingWindowSelector::new(Epanechnikov, grid.clone(), 200, 50).unwrap();
        let mut fired = 0usize;
        for (&xi, &yi) in x.iter().zip(&y) {
            if win.push(xi, yi).unwrap().is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 600 / 50);
        assert_eq!(win.len(), 200);
        // The cached optimum matches a fresh prefix run over the current
        // window *as of the last cadence firing* — which here is the final
        // arrival, so the live window is exactly the last 200 observations.
        let lx = &x[400..];
        let ly = &y[400..];
        let fresh = cv_profile_prefix(lx, ly, &grid, &Epanechnikov)
            .unwrap()
            .argmin()
            .unwrap();
        let cur = win.current().unwrap();
        assert_eq!(cur.bandwidth.to_bits(), fresh.bandwidth.to_bits());
        assert_eq!(cur.included, fresh.included);
    }

    #[test]
    fn zero_capacity_or_cadence_is_rejected_at_construction() {
        let grid = BandwidthGrid::log(0.01, 0.5, 5).unwrap();
        for cap in [0usize, 1] {
            assert!(matches!(
                SlidingWindowSelector::new(Epanechnikov, grid.clone(), cap, 10),
                Err(Error::InvalidParameter {
                    name: "capacity",
                    ..
                })
            ));
        }
        assert!(matches!(
            SlidingWindowSelector::new(Epanechnikov, grid.clone(), 10, 0),
            Err(Error::InvalidParameter {
                name: "cadence",
                ..
            })
        ));
        assert!(SlidingWindowSelector::new(Epanechnikov, grid, 2, 1).is_ok());
    }

    #[test]
    fn failed_push_leaves_the_window_untouched() {
        // A NaN arrival mid-stream must error cleanly *without* evicting
        // the oldest observation: the next cadence re-selection still
        // matches a fresh prefix run over the intact surviving window.
        let (x, y) = paper_dgp(260, 38);
        let grid = BandwidthGrid::log(0.01, 0.5, 20).unwrap();
        let mut win = SlidingWindowSelector::new(Epanechnikov, grid.clone(), 100, 40).unwrap();
        for (&xi, &yi) in x.iter().zip(&y).take(250) {
            win.push(xi, yi).unwrap();
        }
        assert_eq!(win.len(), 100);
        assert!(matches!(
            win.push(f64::NAN, 1.0),
            Err(Error::NonFiniteData { which: "x", .. })
        ));
        assert!(matches!(
            win.push(0.5, f64::INFINITY),
            Err(Error::NonFiniteData { which: "y", .. })
        ));
        assert_eq!(win.len(), 100, "failed pushes must not evict");
        for (&xi, &yi) in x.iter().zip(&y).skip(250) {
            win.push(xi, yi).unwrap();
        }
        let opt = win.reselect_now().unwrap();
        // Surviving window: the last 100 good arrivals, bad ones dropped.
        let lx = &x[160..];
        let ly = &y[160..];
        let fresh = cv_profile_prefix(lx, ly, &grid, &Epanechnikov)
            .unwrap()
            .argmin()
            .unwrap();
        assert_eq!(opt.bandwidth.to_bits(), fresh.bandwidth.to_bits());
        assert_eq!(opt.included, fresh.included);
    }

    #[test]
    fn push_deferred_with_due_reselects_reproduces_push() {
        let (x, y) = paper_dgp(300, 39);
        let grid = BandwidthGrid::log(0.01, 0.5, 15).unwrap();
        let mut a = SlidingWindowSelector::new(Epanechnikov, grid.clone(), 80, 30).unwrap();
        let mut b = SlidingWindowSelector::new(Epanechnikov, grid, 80, 30).unwrap();
        for (&xi, &yi) in x.iter().zip(&y) {
            let via_push = a.push(xi, yi).unwrap();
            let due = b.push_deferred(xi, yi).unwrap();
            let via_deferred = if due {
                Some(b.reselect_now().unwrap())
            } else {
                None
            };
            assert_eq!(via_push, via_deferred);
        }
        assert_eq!(a.current(), b.current());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn reselect_spends_zero_kernel_evals_and_counts_tree_updates() {
        let (x, y) = paper_dgp(320, 37);
        let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
        let run = kcv_obs::Recorder::new();
        {
            let _scope = run.install();
            let mut win = SlidingWindowSelector::new(Epanechnikov, grid, 256, 320).unwrap();
            for (&xi, &yi) in x.iter().zip(&y) {
                win.push(xi, yi).unwrap();
            }
            // A failed re-selection writes no rows and counts none.
            assert!(SlidingWindowSelector::new(
                Epanechnikov,
                BandwidthGrid::log(0.1, 0.5, 3).unwrap(),
                4,
                4
            )
            .unwrap()
            .reselect_now()
            .is_err());
        }
        let snap = run.snapshot();
        assert_eq!(snap.counter("kernel_evals"), 0);
        assert_eq!(snap.counter("reselects"), 1);
        // One table row per window observation.
        assert_eq!(snap.counter("tree_updates"), 256);
        assert_eq!(snap.counter("window_queries"), 256 * 25);
    }
}

//! Incremental prefix-moment CV — the streaming engine.
//!
//! [`super::prefix`] answers every `(observation, bandwidth)` cell from
//! global prefix sums of moments over the sorted sample. This module keeps
//! the sample as it arrives — one deque of live observations in arrival
//! order — and sorts it only when a re-selection asks for those prefix
//! sums, the way the paper's program sorts and then sweeps:
//!
//! * [`IncrementalSelector::insert`] is a `push_back`, `O(1)`;
//! * [`IncrementalSelector::remove`] deletes the earliest matching
//!   arrival: `O(1)` for the oldest observation (a sliding window's
//!   eviction), `O(n)` for any other;
//! * [`IncrementalSelector::reselect`] makes a stable sort of a copy of the
//!   sample by key, `O(n log n)`. Equal keys form one *slot*, holding their
//!   `y` values in arrival order. One linear compensated pass over the
//!   slots builds a flat table — the same row builder the prefix sweep runs
//!   (`cv::window::moment_rows`), each slot adding `cnt·x^m` and
//!   `(Σy)·x^m`. The prefix sweep's own cell kernel (`cv::window`) then
//!   answers every cell: per-bandwidth window cursors on the distinct keys
//!   with the bit-identical `d·(1/h) ≤ r` support predicate, the
//!   precombined kernel polynomial against table rows, plus the closed-form
//!   duplicate-key term. `O(n log n + n·(deg+1) + k·n·deg²)` in all, and
//!   zero kernel evaluations, like the prefix sweep.
//!
//! Every table row the re-selection writes (one per slot) counts into the
//! `tree_updates` counter; perf gate 14 holds the total under
//! `(inserts + removes)·⌈log₂ W⌉·(deg + 3)` for the streaming replay.
//!
//! ## Agreement with the fresh prefix sweep
//!
//! Support classification is bit-identical to [`super::prefix`] by
//! construction: the support predicate runs on the original keys, and the
//! `m = 0` moments sum integer counts, which compensated summation holds
//! exactly. Duplicate-key neighbours are folded in closed form
//! (`(x_l − x_i)^j = 0` for `j > 0`), so only the *scores* differ from a
//! fresh [`super::prefix::cv_profile_prefix`] run, for two reasons. Duplicates
//! are grouped into one slot. And the moments are taken about `0.0`, where
//! the prefix sweep centres at the sample midrange, which a stream cannot
//! know in advance; centring affects score rounding, never the support
//! classification. The selected bandwidth matches bit-for-bit
//! (`crates/core/tests/incremental_agreement.rs` pins this over random
//! interleaved insert/remove sequences, duplicate keys, and boundary-tie
//! lattices for every polynomial kernel). On distinct keys whose midrange
//! is exactly `0.0` a single-observation slot performs exactly the prefix
//! pass's operations, so the whole profile matches a fresh run `to_bits`.
//! The table depends only on the live observations in arrival order, not
//! on the insert/remove history, so a selector after removals re-selects
//! `to_bits`-identically to a fresh selector fed only the survivors in
//! their arrival order.
//!
//! [`SlidingWindowSelector`] wraps the engine for the streaming use case:
//! capacity `W`, evict-oldest, and a configurable re-selection cadence that
//! amortises one `O(W log W + W·(deg+1) + k·W·deg²)` re-selection across
//! many `O(1)` arrivals — the `streaming` bench binary measures the
//! resulting throughput against recompute-from-scratch per arrival.

use std::collections::VecDeque;

use super::window::{dispatch_width, moment_rows, with_sentinels, LcCell, WindowCursors};
use super::{CvOptimum, CvProfile};
use crate::error::{Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::util::NeumaierSum;

/// Rejects a non-finite `x` or `y` with [`Error::NonFiniteData`].
fn check_finite(x: f64, y: f64) -> Result<()> {
    for (which, v) in [("x", x), ("y", y)] {
        if !v.is_finite() {
            return Err(Error::NonFiniteData { which, index: 0 });
        }
    }
    Ok(())
}

/// The compensated sum of one slot's `y` values.
fn slot_sum(slot: &[(f64, f64)]) -> f64 {
    let mut sum = NeumaierSum::new();
    for &(_, y) in slot {
        sum.add(y);
    }
    sum.value()
}

/// [`IncrementalSelector::reselect`]'s sweep at table width `W = deg + 1`:
/// a stable sort of the sample by key, one flat-table pass and one
/// sentinel-padded copy of the distinct keys, then one cursor sweep per
/// slot, plus the closed-form duplicate-key term. Takes the kernel as
/// `coeffs` and `radius` so it compiles once per width, not per kernel.
fn reselect_sorted<const W: usize>(
    obs: &VecDeque<(f64, f64)>,
    coeffs: &'static [f64],
    radius: f64,
    hs: &[f64],
) -> CvProfile {
    let _reselect = kcv_obs::phase("cv.reselect");
    kcv_obs::add(kcv_obs::Counter::Reselects, 1);
    let n = obs.len();
    let mut sample: Vec<(f64, f64)> = obs.iter().copied().collect();
    // Keys are finite (`insert` rejects the rest), so `partial_cmp` is
    // total here; `±0.0` compare equal and share a slot keyed by the
    // earlier arrival.
    sample.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite keys"));
    let slots: Vec<&[(f64, f64)]> = sample.chunk_by(|a, b| a.0 == b.0).collect();
    let sums: Vec<f64> = slots.iter().map(|slot| slot_sum(slot)).collect();
    kcv_obs::add(kcv_obs::Counter::TreeUpdates, slots.len() as u64);
    let rows = moment_rows::<W>(
        slots
            .iter()
            .zip(&sums)
            .map(|(slot, &sy)| (slot[0].0, slot.len() as f64, sy)),
    );
    let keys = with_sentinels(slots.iter().map(|slot| slot[0].0));

    let inv_hs: Vec<f64> = hs.iter().map(|&h| 1.0 / h).collect();
    let k = hs.len();
    let mut sq_sums = vec![0.0; k];
    let mut included = vec![0usize; k];
    let mut cursors = WindowCursors::new(k);
    let mut cell = LcCell::<W>::new(coeffs);
    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    for (s, (slot, &sy_slot)) in slots.iter().zip(&sums).enumerate() {
        let cnt = slot.len();
        cell.prepare(slot[0].0, &rows[s], &rows[s + 1]);
        let dup_cnt = (cnt - 1) as f64;
        cursors.sweep(&keys, s, &inv_hs, radius, |m, inv_h, lo, hi| {
            // Exact counts per side: the m = 0 row only ever accumulated
            // integer counts, so these are integers.
            let left_cnt = rows[s].p[0] - rows[lo].p[0];
            let right_cnt = rows[hi].p[0] - rows[s + 1].p[0];
            let in_window = left_cnt + right_cnt + dup_cnt;
            queries.incr(cnt as u64);
            skipped.incr(cnt as u64 * (n - 1).saturating_sub(in_window as usize) as u64);
            if in_window == 0.0 {
                // Empty leave-one-out window: excluded, exactly as a fresh
                // prefix run classifies it.
                return;
            }
            let (num, den) = cell.eval(inv_h, &rows[lo], &rows[hi]);
            // Same-key neighbours in closed form: each sits at u = 0 with
            // weight c_0 and contributes its own y.
            let den = den + coeffs[0] * dup_cnt;
            if den > 0.0 {
                for &(_, yi) in *slot {
                    let resid = yi - (num + coeffs[0] * (sy_slot - yi)) / den;
                    sq_sums[m] += resid * resid;
                    included[m] += 1;
                }
            }
        });
    }
    // The counters flush to the recorder when they fall out of scope.
    let scores = sq_sums.into_iter().map(|v| v / n as f64).collect();
    CvProfile {
        bandwidths: hs.to_vec(),
        scores,
        included,
        n,
    }
}

/// The incremental prefix-moment selector: a dynamic observation multiset
/// with `O(1)` insert and full-grid re-selection with zero kernel
/// evaluations (see the module docs).
///
/// The bandwidth grid is fixed at construction; the observation set
/// evolves through [`insert`](Self::insert) / [`remove`](Self::remove),
/// and [`reselect`](Self::reselect) scores the current live set over the
/// whole grid.
#[derive(Debug, Clone)]
pub struct IncrementalSelector<K> {
    kernel: K,
    grid: BandwidthGrid,
    /// The live observations in arrival order.
    obs: VecDeque<(f64, f64)>,
}

impl<K: PolynomialKernel> IncrementalSelector<K> {
    /// Creates an empty selector scoring over `grid` (ascending by
    /// construction).
    pub fn new(kernel: K, grid: BandwidthGrid) -> Self {
        Self {
            kernel,
            grid,
            obs: VecDeque::new(),
        }
    }

    /// Number of live observations.
    pub fn len(&self) -> usize {
        self.obs.len()
    }

    /// True when no live observation is held.
    pub fn is_empty(&self) -> bool {
        self.obs.is_empty()
    }

    /// The bandwidth grid every `reselect` scores.
    pub fn grid(&self) -> &BandwidthGrid {
        &self.grid
    }

    /// Appends one observation, `O(1)`.
    ///
    /// Non-finite `x` or `y` is rejected with [`Error::NonFiniteData`]
    /// **before** any mutation: a failed `insert` leaves the live set
    /// exactly as it was, so a stream may drop the bad arrival and
    /// continue.
    pub fn insert(&mut self, x: f64, y: f64) -> Result<()> {
        check_finite(x, y)?;
        let _update = kcv_obs::phase("cv.update");
        self.obs.push_back((x, y));
        Ok(())
    }

    /// Removes the earliest-arrived observation equal (`==`) to `(x, y)`,
    /// returning whether one was found: `O(1)` when it is the oldest live
    /// observation, `O(n)` otherwise.
    pub fn remove(&mut self, x: f64, y: f64) -> bool {
        let _update = kcv_obs::phase("cv.update");
        match self.obs.iter().position(|&(a, b)| a == x && b == y) {
            Some(at) => self.obs.remove(at).is_some(),
            None => false,
        }
    }

    /// Re-scores the whole bandwidth grid over the current live set — a
    /// stable sort by key, one compensated prefix pass over the slots into
    /// a flat table, then an amortised `O(deg²)` cell per live observation
    /// and bandwidth, `O(n log n + n·(deg+1) + k·n·deg²)` in all, zero
    /// kernel evaluations — and returns the CV profile.
    ///
    /// # Errors
    /// [`Error::SampleTooSmall`] below two live observations;
    /// [`Error::KernelDegreeTooHigh`] for a kernel above
    /// [`MAX_KERNEL_DEGREE`](super::MAX_KERNEL_DEGREE).
    pub fn reselect(&self) -> Result<CvProfile> {
        let n = self.obs.len();
        if n < 2 {
            return Err(Error::SampleTooSmall { n, required: 2 });
        }
        let coeffs = self.kernel.coeffs();
        let (obs, radius, hs) = (&self.obs, self.kernel.radius(), self.grid.values());
        dispatch_width!(coeffs, 0, reselect_sorted(obs, coeffs, radius, hs))
    }

    /// [`reselect`](Self::reselect) followed by the paper's raw argmin.
    pub fn reselect_optimum(&self) -> Result<CvOptimum> {
        self.reselect()?.argmin()
    }
}

/// A fixed-capacity sliding window over a stream of observations, re-selecting
/// the bandwidth every `cadence` arrivals through an [`IncrementalSelector`]
/// whose live set is the window.
///
/// [`push`](Self::push) evicts the oldest observation once the window is
/// full (a `pop_front`), appends the arrival, and — when the cadence fires
/// and at least two observations are live — runs a full
/// [`IncrementalSelector::reselect`], caching the optimum for
/// [`current`](Self::current). The amortised per-arrival cost is `O(1)`
/// plus `O((W log W + W·(deg+1) + k·W·deg²)/cadence)`.
#[derive(Debug, Clone)]
pub struct SlidingWindowSelector<K> {
    inner: IncrementalSelector<K>,
    capacity: usize,
    cadence: usize,
    since_reselect: usize,
    last: Option<CvOptimum>,
}

impl<K: PolynomialKernel> SlidingWindowSelector<K> {
    /// Creates an empty window of `capacity` observations re-selecting
    /// every `cadence` arrivals.
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
        let mut inner = IncrementalSelector::new(kernel, grid);
        inner.obs.reserve_exact(capacity);
        Ok(Self {
            inner,
            capacity,
            cadence,
            since_reselect: 0,
            last: None,
        })
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
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

    /// Pushes one arrival: evict-oldest if at capacity, insert, and
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
        check_finite(x, y)?;
        if self.inner.len() == self.capacity {
            self.inner.obs.pop_front();
        }
        self.inner.insert(x, y)?;
        self.since_reselect += 1;
        Ok(self.since_reselect >= self.cadence && self.inner.len() >= 2)
    }

    /// Forces a re-selection immediately (also resets the cadence clock).
    pub fn reselect_now(&mut self) -> Result<CvOptimum> {
        self.since_reselect = 0;
        let opt = self.inner.reselect_optimum()?;
        self.last = Some(opt);
        Ok(opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::cv_profile_prefix;
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

    /// Degree-scaled score tolerance, matching the prefix sweep's
    /// documented accuracy on the paper DGP.
    fn score_tol(deg: usize) -> (f64, f64) {
        match deg {
            0..=2 => (1e-8, 1e-10),
            3..=4 => (1e-5, 1e-7),
            _ => (1e-2, 1e-4),
        }
    }

    fn assert_agrees<K: PolynomialKernel>(
        sel: &IncrementalSelector<K>,
        x: &[f64],
        y: &[f64],
        kernel: &K,
    ) {
        let grid = sel.grid().clone();
        let fresh = cv_profile_prefix(x, y, &grid, kernel).unwrap();
        let inc = sel.reselect().unwrap();
        assert_eq!(inc.n, fresh.n);
        assert_eq!(inc.included, fresh.included, "classification diverged");
        let deg = kernel.coeffs().len() - 1;
        let (rel, abs) = score_tol(deg);
        for m in 0..grid.len() {
            assert!(
                crate::util::approx_eq(inc.scores[m], fresh.scores[m], rel, abs),
                "h={}: {} vs {}",
                grid.values()[m],
                inc.scores[m],
                fresh.scores[m]
            );
        }
        let a = inc.argmin().unwrap();
        let b = fresh.argmin().unwrap();
        assert_eq!(a.index, b.index, "selected index diverged");
        assert_eq!(
            a.bandwidth.to_bits(),
            b.bandwidth.to_bits(),
            "selection not bit-identical"
        );
    }

    #[test]
    fn batch_insert_matches_fresh_prefix() {
        let (x, y) = paper_dgp(400, 31);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid);
        for (&xi, &yi) in x.iter().zip(&y) {
            sel.insert(xi, yi).unwrap();
        }
        assert_eq!(sel.len(), 400);
        assert_agrees(&sel, &x, &y, &Epanechnikov);
    }

    #[test]
    fn removals_after_fold_stay_bit_identical_on_selection() {
        // Insert everything, reselect, then remove the last third: the
        // removals reach past the oldest observation.
        let (x, y) = paper_dgp(300, 32);
        let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid);
        for (&xi, &yi) in x.iter().zip(&y) {
            sel.insert(xi, yi).unwrap();
        }
        sel.reselect().unwrap();
        let keep = 200;
        for (&xi, &yi) in x.iter().zip(&y).skip(keep) {
            assert!(sel.remove(xi, yi));
        }
        assert_eq!(sel.len(), keep);
        assert_agrees(&sel, &x[..keep], &y[..keep], &Epanechnikov);
    }

    #[test]
    fn duplicate_keys_are_handled_in_closed_form() {
        let mut x = Vec::new();
        let mut y = Vec::new();
        let mut rng = SplitMix64::new(33);
        for i in 0..60 {
            let key = (i % 20) as f64 / 20.0; // every key triplicated
            x.push(key);
            y.push(rng.next_f64());
        }
        let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid);
        for (&xi, &yi) in x.iter().zip(&y) {
            sel.insert(xi, yi).unwrap();
        }
        assert_agrees(&sel, &x, &y, &Epanechnikov);
    }

    /// Three observations at each of the 40 `keys`, then a reselect; then
    /// every observation of each fifth key leaves (emptied keys) and one
    /// copy of each other key leaves (shrunken duplicate slots). Returns
    /// the selector and the survivors in arrival order.
    fn thinned<K: PolynomialKernel>(
        kernel: K,
        keys: &[f64],
    ) -> (IncrementalSelector<K>, Vec<(f64, f64)>) {
        let mut rng = SplitMix64::new(40);
        let obs: Vec<(f64, f64)> = (0..3 * keys.len())
            .map(|i| {
                let key = keys[i % keys.len()];
                (key, 0.5 * key + 10.0 * key * key + 0.5 * rng.next_f64())
            })
            .collect();
        let x: Vec<f64> = obs.iter().map(|o| o.0).collect();
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let mut sel = IncrementalSelector::new(kernel, grid);
        for &(xi, yi) in &obs {
            sel.insert(xi, yi).unwrap();
        }
        sel.reselect().unwrap();
        let mut live = Vec::new();
        for (i, &(xi, yi)) in obs.iter().enumerate() {
            if i % 5 == 0 || i < keys.len() {
                assert!(sel.remove(xi, yi));
            } else {
                live.push((xi, yi));
            }
        }
        assert_eq!(sel.len(), live.len());
        (sel, live)
    }

    fn lattice_keys() -> Vec<f64> {
        (0..40).map(|j| j as f64 / 40.0 + 0.003).collect()
    }

    #[test]
    fn reselect_reads_dead_slots_and_duplicates_in_place() {
        let (sel, live) = thinned(Epanechnikov, &lattice_keys());
        let (x, y): (Vec<f64>, Vec<f64>) = live.into_iter().unzip();
        assert_agrees(&sel, &x, &y, &Epanechnikov);
    }

    /// Reselects a thinned selector and a fresh one fed only the
    /// survivors, and requires `to_bits`-identical profiles.
    fn matches_fresh_survivors<K: PolynomialKernel + Clone>(kernel: K, keys: &[f64]) {
        let (sel, live) = thinned(kernel.clone(), keys);
        let mut fresh = IncrementalSelector::new(kernel, sel.grid().clone());
        for &(xi, yi) in &live {
            fresh.insert(xi, yi).unwrap();
        }
        let a = sel.reselect().unwrap();
        let b = fresh.reselect().unwrap();
        assert_eq!(a.n, b.n);
        assert_eq!(a.included, b.included);
        let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a),
            bits(&b),
            "emptied or shrunken slots moved a score"
        );
    }

    #[test]
    fn dead_slots_reselect_like_a_fresh_pool_of_survivors() {
        let mut rng = SplitMix64::new(41);
        let continuous: Vec<f64> = (0..40).map(|_| rng.next_f64()).collect();
        for keys in [lattice_keys(), continuous] {
            matches_fresh_survivors(Epanechnikov, &keys);
            matches_fresh_survivors(Triweight, &keys);
            matches_fresh_survivors(Uniform, &keys);
        }
    }

    /// A run of emptied keys between live ones: removals from the middle
    /// of the arrival order, and a window gap the cursors step across.
    #[test]
    fn a_run_of_dead_slots_reselects_like_a_fresh_profile() {
        let (x, y) = paper_dgp(300, 37);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid);
        for (&xi, &yi) in x.iter().zip(&y) {
            sel.insert(xi, yi).unwrap();
        }
        sel.reselect().unwrap();
        let gone = |v: f64| (0.30..0.42).contains(&v) || (0.7..0.71).contains(&v);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (&xi, &yi) in x.iter().zip(&y) {
            if gone(xi) {
                assert!(sel.remove(xi, yi));
            } else {
                xs.push(xi);
                ys.push(yi);
            }
        }
        assert!(xs.len() + 8 < x.len(), "too few keys emptied");
        assert_eq!(sel.len(), xs.len());
        assert_agrees(&sel, &xs, &ys, &Epanechnikov);
    }

    #[test]
    fn higher_degree_kernels_agree() {
        let (x, y) = paper_dgp(250, 34);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let mut q = IncrementalSelector::new(Quartic, grid.clone());
        let mut t = IncrementalSelector::new(Triweight, grid.clone());
        let mut u = IncrementalSelector::new(Uniform, grid);
        for (&xi, &yi) in x.iter().zip(&y) {
            q.insert(xi, yi).unwrap();
            t.insert(xi, yi).unwrap();
            u.insert(xi, yi).unwrap();
        }
        assert_agrees(&q, &x, &y, &Quartic);
        assert_agrees(&t, &x, &y, &Triweight);
        assert_agrees(&u, &x, &y, &Uniform);
    }

    #[test]
    fn insert_validates_and_remove_reports_absence() {
        let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid);
        assert!(sel.insert(f64::NAN, 1.0).is_err());
        assert!(sel.insert(1.0, f64::INFINITY).is_err());
        sel.insert(0.5, 1.0).unwrap();
        assert!(!sel.remove(0.5, 2.0));
        assert!(!sel.remove(0.25, 1.0));
        assert!(sel.remove(0.5, 1.0));
        assert!(sel.is_empty());
        assert!(matches!(
            sel.reselect(),
            Err(Error::SampleTooSmall { n: 0, required: 2 })
        ));
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
        let (x, y) = paper_dgp(256, 37);
        let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
        let run = kcv_obs::Recorder::new();
        {
            let _scope = run.install();
            let mut sel = IncrementalSelector::new(Epanechnikov, grid);
            for (&xi, &yi) in x.iter().zip(&y) {
                sel.insert(xi, yi).unwrap();
            }
            for (&xi, &yi) in x.iter().zip(&y).take(64) {
                assert!(sel.remove(xi, yi));
            }
            sel.reselect().unwrap();
        }
        let snap = run.snapshot();
        assert_eq!(snap.counter("kernel_evals"), 0);
        assert_eq!(snap.counter("reselects"), 1);
        let updates = snap.counter("tree_updates");
        assert!(updates > 0, "tree updates not counted");
        // Gate 14's budget at W = n: the table rows the reselect writes
        // fit in (U+R)·⌈log₂ W⌉·(deg+3).
        let ops = (256 + 64) as u64;
        let log2w = (256f64).log2().ceil() as u64;
        let deg = 2u64;
        assert!(
            updates <= ops * log2w * (deg + 3),
            "tree_updates {updates} exceeds the gate-14 budget"
        );
        assert!(snap.counter("window_queries") >= 256 * 25 - 64 * 25);
    }
}

//! Incremental prefix-moment CV — the streaming engine.
//!
//! [`super::prefix`] answers every `(observation, bandwidth)` cell from
//! global prefix sums of centred moments over the sorted sample. This
//! module keeps the sample itself *dynamic* — a sorted **key pool** that
//! observations enter and leave one at a time — and rebuilds those prefix
//! sums only when a re-selection asks for them:
//!
//! * [`IncrementalSelector::insert`] / [`IncrementalSelector::remove`] are
//!   a binary search plus a `Vec` edit — no moments are touched;
//! * [`IncrementalSelector::reselect`] builds a flat slot table in one
//!   linear compensated pass over the pool — the same row builder the
//!   prefix sweep runs (`cv::window::moment_rows`), each slot adding
//!   `cnt·x'^m` and `(Σy)·x'^m` — and then answers every cell with the
//!   prefix sweep's own cell kernel (`cv::window`): per-bandwidth window
//!   cursors on the **original** sorted keys with the bit-identical
//!   `d·(1/h) ≤ r` support predicate, and the precombined kernel
//!   polynomial against table rows, plus the closed-form duplicate-key
//!   term. Zero kernel evaluations, like the prefix sweep.
//!
//! ## The key pool and amortised folding
//!
//! A stream of continuous regressors presents previously unseen keys that
//! belong in the middle of the sorted order. The engine therefore keeps a
//! **pool** of sorted distinct keys (duplicate `x` values share one slot,
//! holding the slot's live `y` values) plus a small sorted **pending** run
//! of not-yet-pooled arrivals:
//!
//! * inserting an existing pool key (or removing any pooled observation)
//!   edits that slot's `y` list in place — removals never restructure the
//!   pool, they may only leave a *dead* (empty) slot behind;
//! * inserting a brand-new key goes into the pending run (`O(log n)`
//!   compares); pending runs **fold** into the pool — one `O(n)` merge that
//!   also compacts dead slots — when the run outgrows `max(64, slots/8)` or
//!   at the next `reselect()`, so folding is amortised `O(1)` moves per
//!   arrival and never changes `reselect`'s complexity.
//!
//! Every table row the re-selection writes (one per pooled slot) counts
//! into the `tree_updates` counter; perf gate 14 holds the total under
//! `(inserts + removes)·⌈log₂ W⌉·(deg + 3)` for the streaming replay.
//!
//! ## Agreement with the fresh prefix sweep
//!
//! Support classification is bit-identical to [`super::prefix`] by
//! construction: the support predicate runs on the original keys, dead
//! slots add nothing to the table (their rows repeat the previous one),
//! and the `m = 0` moments sum integer counts, which compensated summation
//! holds exactly, so a side whose live count is zero contributes
//! exactly-zero moments just as an empty prefix range does. Duplicate-key
//! neighbours are folded in closed form (`(x_l − x_i)^j = 0` for `j > 0`),
//! so only the *scores* differ from a fresh
//! [`super::prefix::cv_profile_prefix`] run — by grouping duplicates into
//! one slot and by the centring shift — while the selected bandwidth
//! matches bit-for-bit (`crates/core/tests/incremental_agreement.rs` pins
//! this over random interleaved insert/remove sequences, duplicate keys,
//! and boundary-tie lattices for every polynomial kernel). On distinct
//! keys centred at the sample midrange a single-observation slot performs
//! exactly the prefix pass's operations, so the whole profile matches a
//! fresh run `to_bits`. The table depends only on the live `y` values at
//! each key, not on the insert/remove history, so dead slots and shrunken
//! duplicate slots re-select `to_bits`-identically to a fresh selector fed
//! only the survivors in their arrival order.
//!
//! One intentional difference: the centring shift is **fixed at
//! construction** ([`IncrementalSelector::with_center`]) instead of the
//! sample midrange, which a stream cannot know in advance. Centring only
//! affects score rounding, never the support classification.
//!
//! [`SlidingWindowSelector`] wraps the engine for the streaming use case:
//! capacity `W`, evict-oldest, and a configurable re-selection cadence that
//! amortises one `O(W·(deg+1) + k·W·deg²)` re-selection across many
//! `O(log W)`-search arrivals — the `streaming` bench binary measures the
//! resulting throughput against recompute-from-scratch per arrival.

use std::collections::VecDeque;

use super::window::{dispatch_width, moment_rows, with_sentinels, LcCell, Row, WindowCursors};
use super::{CvOptimum, CvProfile};
use crate::error::{Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::util::NeumaierSum;

/// The compensated sum of one slot's `y` values.
fn slot_sum(ys: &[f64]) -> f64 {
    let mut sum = NeumaierSum::new();
    for &v in ys {
        sum.add(v);
    }
    sum.value()
}

/// The kernel-independent state of an [`IncrementalSelector`]: the key
/// pool and the pending run (see the module docs). Kept apart from the
/// kernel type so the width-generic re-selection sweep ([`reselect_pool`])
/// compiles once per kernel width, not once per kernel.
#[derive(Debug, Clone, Default)]
struct KeyPool {
    center: f64,
    /// Sorted distinct pooled keys (may include dead slots).
    keys: Vec<f64>,
    /// Live `y` values per pooled slot, parallel to `keys`, in arrival
    /// order. A slot with an empty list is *dead*: still in the pool,
    /// adding nothing to the table.
    ys: Vec<Vec<f64>>,
    /// Number of dead slots currently in the pool.
    dead_slots: usize,
    /// Sorted (by key, then arrival) run of inserts whose keys are not yet
    /// pooled.
    pending: Vec<(f64, f64)>,
    /// Total live observations (pooled + pending).
    live_obs: usize,
}

impl KeyPool {
    /// Pool slot of `x`, if pooled (live or dead).
    fn pool_slot(&self, x: f64) -> Option<usize> {
        let s = self.keys.partition_point(|&k| k < x);
        (s < self.keys.len() && self.keys[s] == x).then_some(s)
    }

    /// Inserts one validated observation (see
    /// [`IncrementalSelector::insert`]).
    fn insert(&mut self, x: f64, y: f64) {
        if let Some(s) = self.pool_slot(x) {
            if self.ys[s].is_empty() {
                self.dead_slots -= 1;
            }
            self.ys[s].push(y);
        } else {
            let at = self.pending.partition_point(|&(k, _)| k <= x);
            self.pending.insert(at, (x, y));
        }
        self.live_obs += 1;
        if self.pending.len() > 64.max(self.keys.len() / 8) {
            self.fold();
        }
    }

    /// Removes one observation matching `(x, y)` exactly (see
    /// [`IncrementalSelector::remove`]).
    fn remove(&mut self, x: f64, y: f64) -> bool {
        if let Some(s) = self.pool_slot(x) {
            let Some(at) = self.ys[s].iter().position(|&v| v == y) else {
                return false;
            };
            self.ys[s].remove(at);
            if self.ys[s].is_empty() {
                self.dead_slots += 1;
            }
            self.live_obs -= 1;
            return true;
        }
        let lo = self.pending.partition_point(|&(k, _)| k < x);
        let hi = self.pending.partition_point(|&(k, _)| k <= x);
        if let Some(at) = self.pending[lo..hi].iter().position(|&(_, v)| v == y) {
            self.pending.remove(lo + at);
            self.live_obs -= 1;
            return true;
        }
        false
    }

    /// Folds before a re-selection when arrivals are pending or dead slots
    /// outnumber half the live ones (see [`IncrementalSelector::reselect`]).
    fn fold_if_stale(&mut self) {
        if !self.pending.is_empty()
            || self.dead_slots > 64.max((self.keys.len() - self.dead_slots) / 2)
        {
            self.fold();
        }
    }

    /// Merges the pending run into the pool and drops dead slots (linear
    /// in the pool size).
    fn fold(&mut self) {
        let live_slots = self.keys.len() - self.dead_slots;
        // Upper bound: every pending entry is a new distinct key.
        let mut keys = Vec::with_capacity(live_slots + self.pending.len());
        let mut ys: Vec<Vec<f64>> = Vec::with_capacity(keys.capacity());
        let mut pool = self
            .keys
            .iter()
            .zip(std::mem::take(&mut self.ys))
            .filter(|(_, sy)| !sy.is_empty())
            .map(|(&k, sy)| (k, sy))
            .peekable();
        let mut pend = std::mem::take(&mut self.pending).into_iter().peekable();
        loop {
            // Pending keys are never pooled (insert checks the pool first),
            // so strict comparison fully orders the two runs.
            let take_pool = match (pool.peek(), pend.peek()) {
                (Some((pk, _)), Some(&(nk, _))) => *pk < nk,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_pool {
                let (k, sy) = pool.next().expect("peeked");
                keys.push(k);
                ys.push(sy);
            } else {
                let (k, v) = pend.next().expect("peeked");
                if keys.last() == Some(&k) {
                    ys.last_mut().expect("non-empty").push(v);
                } else {
                    keys.push(k);
                    ys.push(vec![v]);
                }
            }
        }
        self.keys = keys;
        self.ys = ys;
        self.dead_slots = 0;
    }

    /// The flat slot table: row `t` holds the local-constant prefix
    /// moments `Σ cnt·x'^m` (`p[m]`) and `Σ (Σy)·x'^m` (`q[m]`), `m < W`,
    /// of slots `[0, t)`, for every boundary `t = 0..=slots` — one
    /// [`moment_rows`] pass, `O(slots·W)`, counting one `tree_updates` per
    /// slot row.
    fn flat_table<const W: usize>(&self) -> Vec<Row<W>> {
        kcv_obs::add(kcv_obs::Counter::TreeUpdates, self.keys.len() as u64);
        let entries = self
            .keys
            .iter()
            .zip(&self.ys)
            .map(|(&k, ys)| (k - self.center, ys.len() as f64, slot_sum(ys)));
        moment_rows(entries)
    }
}

/// [`IncrementalSelector::reselect`]'s sweep at table width `W = deg + 1`:
/// one flat-table pass and one sentinel-padded key copy of the pool, then
/// one cursor sweep per live slot, plus the closed-form duplicate-key term.
fn reselect_pool<const W: usize>(
    pool: &KeyPool,
    coeffs: &'static [f64],
    radius: f64,
    hs: &[f64],
) -> CvProfile {
    let _reselect = kcv_obs::phase("cv.reselect");
    kcv_obs::add(kcv_obs::Counter::Reselects, 1);
    let n = pool.live_obs;
    let inv_hs: Vec<f64> = hs.iter().map(|&h| 1.0 / h).collect();
    let k = hs.len();
    let rows = pool.flat_table::<W>();
    let keys = with_sentinels(pool.keys.iter().copied());

    let mut sq_sums = vec![0.0; k];
    let mut included = vec![0usize; k];
    let mut cursors = WindowCursors::new(k);
    let mut cell = LcCell::<W>::new(coeffs);
    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    for (s, ys) in pool.ys.iter().enumerate() {
        let cnt = ys.len();
        if cnt == 0 {
            continue;
        }
        let sy_slot = slot_sum(ys);
        cell.prepare(pool.keys[s] - pool.center, &rows[s], &rows[s + 1]);
        let dup_cnt = (cnt - 1) as f64;
        // Dead slots are skipped, so s may jump: the cursors still only
        // step right.
        cursors.sweep(&keys, s, &inv_hs, radius, |m, inv_h, lo, hi| {
            // Exact live counts per side: the m = 0 row only ever
            // accumulated integer counts, so these are integers and a dead
            // slot contributes exactly nothing.
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
                for &yi in ys {
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
/// with binary-search insert/remove and full-grid re-selection with zero
/// kernel evaluations (see the module docs).
///
/// The bandwidth grid and centring shift are fixed at construction; the
/// observation set evolves through [`insert`](Self::insert) /
/// [`remove`](Self::remove), and [`reselect`](Self::reselect) scores the
/// current live set over the whole grid.
#[derive(Debug, Clone)]
pub struct IncrementalSelector<K> {
    kernel: K,
    grid: BandwidthGrid,
    pool: KeyPool,
}

impl<K: PolynomialKernel> IncrementalSelector<K> {
    /// Creates an empty selector scoring over `grid` (ascending by
    /// construction), centred at `0.0`.
    pub fn new(kernel: K, grid: BandwidthGrid) -> Self {
        Self {
            kernel,
            grid,
            pool: KeyPool::default(),
        }
    }

    /// Sets the centring shift for the stored moments (conditioning only —
    /// scores round differently, classification and selection semantics are
    /// unchanged). Must be called before any insert.
    ///
    /// # Panics
    /// If observations have already been inserted.
    pub fn with_center(mut self, center: f64) -> Self {
        assert!(
            self.pool.live_obs == 0 && self.pool.keys.is_empty(),
            "with_center must be called on an empty selector"
        );
        assert!(center.is_finite(), "center must be finite");
        self.pool.center = center;
        self
    }

    /// Number of live observations.
    pub fn len(&self) -> usize {
        self.pool.live_obs
    }

    /// True when no live observation is held.
    pub fn is_empty(&self) -> bool {
        self.pool.live_obs == 0
    }

    /// The bandwidth grid every `reselect` scores.
    pub fn grid(&self) -> &BandwidthGrid {
        &self.grid
    }

    /// Inserts one observation: a binary search for `x` in the pool, then
    /// an append to its slot when `x` is already pooled, otherwise an
    /// insert into the pending run (folded into the pool amortised-`O(1)`;
    /// see the module docs).
    ///
    /// Non-finite `x` or `y` is rejected with [`Error::NonFiniteData`]
    /// **before** any mutation: a failed `insert` leaves the selector
    /// state (pool, pending run, live count) exactly as it was, so a
    /// stream may drop the bad arrival and continue.
    pub fn insert(&mut self, x: f64, y: f64) -> Result<()> {
        if !x.is_finite() {
            return Err(Error::NonFiniteData {
                which: "x",
                index: 0,
            });
        }
        if !y.is_finite() {
            return Err(Error::NonFiniteData {
                which: "y",
                index: 0,
            });
        }
        let _update = kcv_obs::phase("cv.update");
        self.pool.insert(x, y);
        Ok(())
    }

    /// Removes one observation matching `(x, y)` exactly, returning whether
    /// one was found: a binary search plus a `Vec` edit. A slot whose last
    /// observation leaves stays in the pool as a dead slot (adding nothing
    /// to the table) until the next fold compacts it.
    pub fn remove(&mut self, x: f64, y: f64) -> bool {
        let _update = kcv_obs::phase("cv.update");
        self.pool.remove(x, y)
    }

    /// Re-scores the whole bandwidth grid over the current live set —
    /// one compensated prefix pass over the pool into a flat table, then an
    /// amortised `O(deg²)` cell per live observation and bandwidth,
    /// `O(W·(deg+1) + k·W·deg²)` in all, zero kernel evaluations — and
    /// returns the CV profile. Folds any pending arrivals first, so the
    /// sweep always runs against a compact pool unless only removals
    /// happened since the last fold (in which case dead slots add nothing
    /// to the table and the sweep proceeds in place).
    ///
    /// # Errors
    /// [`Error::SampleTooSmall`] below two live observations;
    /// [`Error::KernelDegreeTooHigh`] for a kernel above
    /// [`MAX_KERNEL_DEGREE`](super::MAX_KERNEL_DEGREE).
    pub fn reselect(&mut self) -> Result<CvProfile> {
        self.pool.fold_if_stale();
        let n = self.pool.live_obs;
        if n < 2 {
            return Err(Error::SampleTooSmall { n, required: 2 });
        }
        let coeffs = self.kernel.coeffs();
        let (pool, radius, hs) = (&self.pool, self.kernel.radius(), self.grid.values());
        dispatch_width!(coeffs, 0, reselect_pool(pool, coeffs, radius, hs))
    }

    /// [`reselect`](Self::reselect) followed by the paper's raw argmin.
    pub fn reselect_optimum(&mut self) -> Result<CvOptimum> {
        self.reselect()?.argmin()
    }
}

/// A fixed-capacity sliding window over a stream of observations, re-selecting
/// the bandwidth every `cadence` arrivals through an [`IncrementalSelector`].
///
/// [`push`](Self::push) evicts the oldest observation once the window is
/// full (one pool removal), inserts the arrival, and — when the cadence
/// fires and at least two observations are live — runs a full
/// [`IncrementalSelector::reselect`], caching the optimum for
/// [`current`](Self::current). The amortised per-arrival cost is one pool
/// search and edit plus `O((W·(deg+1) + k·W·deg²)/cadence)`.
#[derive(Debug, Clone)]
pub struct SlidingWindowSelector<K> {
    inner: IncrementalSelector<K>,
    window: VecDeque<(f64, f64)>,
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
        Ok(Self {
            inner: IncrementalSelector::new(kernel, grid),
            window: VecDeque::with_capacity(capacity),
            capacity,
            cadence,
            since_reselect: 0,
            last: None,
        })
    }

    /// Sets the moment-centring shift (see
    /// [`IncrementalSelector::with_center`]). Must precede the first push.
    pub fn with_center(mut self, center: f64) -> Self {
        self.inner = self.inner.with_center(center);
        self
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The window capacity `W` fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The re-selection cadence fixed at construction.
    pub fn cadence(&self) -> usize {
        self.cadence
    }

    /// Arrivals applied since the last re-selection (the cadence clock).
    pub fn since_reselect(&self) -> usize {
        self.since_reselect
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
    /// [`Error::NonFiniteData`]) leaves the window and the underlying
    /// selector exactly as they were — the stream may discard the bad
    /// arrival and keep going, and the next cadence re-selection scores
    /// the intact surviving window.
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
        if !x.is_finite() {
            return Err(Error::NonFiniteData {
                which: "x",
                index: 0,
            });
        }
        if !y.is_finite() {
            return Err(Error::NonFiniteData {
                which: "y",
                index: 0,
            });
        }
        if self.window.len() == self.capacity {
            let (ox, oy) = self.window.pop_front().expect("window at capacity");
            let evicted = self.inner.remove(ox, oy);
            debug_assert!(evicted, "window and selector out of sync");
        }
        self.inner.insert(x, y)?;
        self.window.push_back((x, y));
        self.since_reselect += 1;
        Ok(self.since_reselect >= self.cadence && self.window.len() >= 2)
    }

    /// Forces a re-selection immediately (also resets the cadence clock).
    pub fn reselect_now(&mut self) -> Result<CvOptimum> {
        self.since_reselect = 0;
        let opt = self.inner.reselect_optimum()?;
        self.last = Some(opt);
        Ok(opt)
    }

    /// The underlying incremental selector (e.g. for a full-profile
    /// [`IncrementalSelector::reselect`]).
    pub fn selector_mut(&mut self) -> &mut IncrementalSelector<K> {
        &mut self.inner
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
        sel: &mut IncrementalSelector<K>,
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
        assert_agrees(&mut sel, &x, &y, &Epanechnikov);
    }

    #[test]
    fn removals_after_fold_stay_bit_identical_on_selection() {
        // Insert everything, reselect (folds), then remove a third — the
        // remove-only path reselects with dead slots in the pool.
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
        assert_agrees(&mut sel, &x[..keep], &y[..keep], &Epanechnikov);
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
        assert_agrees(&mut sel, &x, &y, &Epanechnikov);
    }

    /// Three observations at each of the 40 `keys`, folded by a reselect;
    /// then every observation of each fifth key leaves (dead slots) and one
    /// copy of each other key leaves (shrunken duplicate slots). Returns
    /// the selector, dead slots still pooled, and the survivors in arrival
    /// order.
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
        assert!(
            sel.pool.dead_slots > 0 && sel.pool.pending.is_empty(),
            "no dead slots to read"
        );
        (sel, live)
    }

    fn lattice_keys() -> Vec<f64> {
        (0..40).map(|j| j as f64 / 40.0 + 0.003).collect()
    }

    #[test]
    fn reselect_reads_dead_slots_and_duplicates_in_place() {
        let (mut sel, live) = thinned(Epanechnikov, &lattice_keys());
        let (x, y): (Vec<f64>, Vec<f64>) = live.into_iter().unzip();
        assert_agrees(&mut sel, &x, &y, &Epanechnikov);
        assert!(
            sel.pool.dead_slots > 0,
            "reselect folded the dead slots away"
        );
    }

    /// Reselects a thinned selector (dead slots in place) and a fresh one
    /// fed only the survivors, and requires `to_bits`-identical profiles.
    fn matches_fresh_survivors<K: PolynomialKernel + Clone>(kernel: K, keys: &[f64]) {
        let (mut sel, live) = thinned(kernel.clone(), keys);
        let mut fresh = IncrementalSelector::new(kernel, sel.grid().clone());
        for &(xi, yi) in &live {
            fresh.insert(xi, yi).unwrap();
        }
        let a = sel.reselect().unwrap();
        assert!(
            sel.pool.dead_slots > 0,
            "reselect folded the dead slots away"
        );
        let b = fresh.reselect().unwrap();
        assert_eq!(a.n, b.n);
        assert_eq!(a.included, b.included);
        let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "dead or shrunken slots moved a score");
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

    /// A sorted run of dead slots between live ones: the sweep's slot
    /// index jumps over them, and every cursor with it.
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
        assert!(sel.pool.dead_slots > 8, "too few dead slots to jump");
        assert_agrees(&mut sel, &xs, &ys, &Epanechnikov);
        assert!(
            sel.pool.dead_slots > 8,
            "reselect folded the dead slots away"
        );
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
        assert_agrees(&mut q, &x, &y, &Quartic);
        assert_agrees(&mut t, &x, &y, &Triweight);
        assert_agrees(&mut u, &x, &y, &Uniform);
    }

    #[test]
    fn center_shift_changes_scores_only_within_tolerance() {
        let (x, y) = paper_dgp(200, 35);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid.clone()).with_center(0.5);
        for (&xi, &yi) in x.iter().zip(&y) {
            sel.insert(xi, yi).unwrap();
        }
        assert_agrees(&mut sel, &x, &y, &Epanechnikov);
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

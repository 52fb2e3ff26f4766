//! Incremental prefix-moment CV — the streaming engine.
//!
//! [`super::prefix`] answers every `(observation, bandwidth)` cell from
//! global prefix sums of centred moments, but those tables are immutable:
//! one inserted or removed observation forces a full `O(n·deg)` rebuild.
//! This module makes the same representation *dynamic* by storing the
//! moments in an order-statistic **Fenwick tree** over the sorted distinct
//! keys of the live sample:
//!
//! * each tree node holds a block of `2·(max_m + 1)` Neumaier-compensated
//!   sums — the centred moments `Σ x'^m` and `Σ y·x'^m`, `m ≤ deg + 2` —
//!   over its Fenwick range of key slots;
//! * [`IncrementalSelector::insert`] / [`IncrementalSelector::remove`] fold
//!   an observation into (out of) the `O(log n)` nodes on its update path;
//! * [`IncrementalSelector::reselect`] first reads the tree into a flat
//!   slot table — one `O(log n)` descent per slot boundary — and then
//!   answers every cell with the prefix sweep's own cell kernel
//!   (`cv::window`): per-bandwidth window cursors on the **original**
//!   sorted keys with the bit-identical `d·(1/h) ≤ r` support predicate,
//!   and the precombined kernel polynomial against flat-table rows, plus
//!   the closed-form duplicate-key term. Zero kernel evaluations, like the
//!   prefix sweep.
//!
//! ## The key pool and amortised folding
//!
//! A Fenwick tree indexes *fixed* positions, but a stream of continuous
//! regressors presents previously unseen keys that belong in the middle of
//! the sorted order. The engine therefore keeps a **pool** of sorted
//! distinct keys (duplicate `x` values share one slot, holding the slot's
//! live `y` values) plus a small sorted **pending** run of not-yet-pooled
//! arrivals:
//!
//! * inserting an existing pool key (or removing any pooled observation) is
//!   a true `O(log n)` Fenwick point update — removals never restructure
//!   the pool, they only subtract the observation's moments back out and
//!   possibly leave a *dead* (zero-count) slot behind;
//! * inserting a brand-new key appends to the pending run (`O(log n)`
//!   compares); pending runs **fold** into the pool — one `O(n)` merge +
//!   linear-time tree rebuild that also compacts dead slots and discards
//!   their rounding residue — when the run outgrows `max(64, slots/8)` or
//!   at the next `reselect()`, so folding is amortised `O(1)` node writes
//!   per arrival and never changes `reselect`'s complexity (the rebuild is
//!   dominated by the sweep it precedes).
//!
//! Every tree-node visit (point updates and rebuild writes alike) counts
//! into the `tree_updates` counter; perf gate 14 holds the total under
//! `(inserts + removes)·⌈log₂ W⌉·(deg + 3)` for the streaming replay.
//!
//! ## Agreement with the fresh prefix sweep
//!
//! Support classification is bit-identical to [`super::prefix`] by
//! construction: the support predicate runs on the original keys, dead
//! slots carry an **exactly zero** count (the `m = 0` moment row only ever
//! accumulates `±1.0`, which Neumaier summation tracks exactly), and a
//! side whose live count is zero contributes exactly-zero moments just as
//! an empty prefix range does. Duplicate-key neighbours are folded in
//! closed form (`(x_l − x_i)^j = 0` for `j > 0`), so only the *scores*
//! differ from a fresh [`super::prefix::cv_profile_prefix`] run — by the
//! regrouping of the same compensated sums, within the PR 4 documented
//! tolerance — while the selected bandwidth matches bit-for-bit
//! (`crates/core/tests/incremental_agreement.rs` pins this over random
//! interleaved insert/remove sequences, duplicate keys, and boundary-tie
//! lattices for every polynomial kernel).
//!
//! One intentional difference: the centring shift is **fixed at
//! construction** ([`IncrementalSelector::with_center`]) instead of the
//! sample midrange, which a stream cannot know in advance. Centring only
//! affects score rounding, never the support classification.
//!
//! [`SlidingWindowSelector`] wraps the engine for the streaming use case:
//! capacity `W`, evict-oldest, and a configurable re-selection cadence that
//! amortises one `O(W·log W·(deg+3) + k·W·deg²)` re-selection across many
//! `O(log W)` arrivals — the `streaming` bench binary measures the resulting
//! throughput against recompute-from-scratch per arrival.

use std::collections::VecDeque;

use super::window::{dispatch_width, LcCell, Row, WindowCursors};
use super::{CvOptimum, CvProfile};
use crate::error::{Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::util::NeumaierSum;

/// Lowest set bit of a Fenwick index.
#[inline]
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

/// The kernel-independent state of an [`IncrementalSelector`]: the key
/// pool, the pending run and the Fenwick moment tree (see the module docs).
/// Kept apart from the kernel type so the width-generic re-selection sweep
/// ([`reselect_pool`]) compiles once per kernel width, not once per kernel.
#[derive(Debug, Clone)]
struct KeyPool {
    center: f64,
    /// Highest stored moment (`deg + 2`, matching the prefix tables'
    /// local-linear capacity; the local-constant sweep uses `j ≤ deg`).
    max_m: usize,
    /// Sorted distinct pooled keys (may include dead slots).
    keys: Vec<f64>,
    /// Live `y` values per pooled slot, parallel to `keys`. A slot with an
    /// empty list is *dead*: still indexed by the tree, count exactly zero.
    ys: Vec<Vec<f64>>,
    /// Number of dead slots currently in the pool.
    dead_slots: usize,
    /// Flattened Fenwick tree: node `i` (1-indexed, `i ≤ keys.len()`) owns
    /// the block `tree[i·B .. (i+1)·B]` with `B = 2·(max_m+1)` — x-moments
    /// then y-moments.
    tree: Vec<NeumaierSum>,
    /// Sorted (by key, then arrival) run of inserts whose keys are not yet
    /// pooled.
    pending: Vec<(f64, f64)>,
    /// Total live observations (pooled + pending).
    live_obs: usize,
}

impl KeyPool {
    fn new(max_m: usize) -> Self {
        Self {
            center: 0.0,
            max_m,
            keys: Vec::new(),
            ys: Vec::new(),
            dead_slots: 0,
            tree: vec![NeumaierSum::new(); 2 * (max_m + 1)],
            pending: Vec::new(),
            live_obs: 0,
        }
    }

    /// Block width of one tree node (`2·(max_m+1)` compensated sums).
    fn block(&self) -> usize {
        2 * (self.max_m + 1)
    }

    /// Pool slot of `x`, if pooled (live or dead).
    fn pool_slot(&self, x: f64) -> Option<usize> {
        let s = self.keys.partition_point(|&k| k < x);
        (s < self.keys.len() && self.keys[s] == x).then_some(s)
    }

    /// Folds `±(x, y)` into the tree nodes covering slot `s`, counting one
    /// `tree_updates` per node visited.
    fn point_update(&mut self, s: usize, x: f64, y: f64, sign: f64) {
        let mm = self.max_m;
        let b = self.block();
        let xc = x - self.center;
        let p = self.keys.len();
        let mut visited = 0u64;
        let mut i = s + 1;
        while i <= p {
            let off = i * b;
            let mut pw = sign;
            for m in 0..=mm {
                self.tree[off + m].add(pw);
                self.tree[off + mm + 1 + m].add(y * pw);
                pw *= xc;
            }
            visited += 1;
            i += lowbit(i);
        }
        kcv_obs::add(kcv_obs::Counter::TreeUpdates, visited);
    }

    /// Inserts one validated observation (see
    /// [`IncrementalSelector::insert`]).
    fn insert(&mut self, x: f64, y: f64) {
        if let Some(s) = self.pool_slot(x) {
            if self.ys[s].is_empty() {
                self.dead_slots -= 1;
            }
            self.ys[s].push(y);
            self.point_update(s, x, y, 1.0);
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
            self.point_update(s, x, y, -1.0);
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

    /// Merges the pending run into the pool, drops dead slots, and rebuilds
    /// the tree from freshly recomputed per-slot base moments (linear in
    /// the pool size; every node write counts into `tree_updates`).
    fn fold(&mut self) {
        let mm = self.max_m;
        let b = self.block();
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

        let p = self.keys.len();
        // A fresh exact-size tree: resizing in place would keep the Vec's
        // amortised-growth slack (up to 2× per selector), and how much of it
        // accrues depends on how often folds happen to run.
        self.tree = vec![NeumaierSum::new(); (p + 1) * b];
        let mut writes = 0u64;
        for s in 0..p {
            let off = (s + 1) * b;
            let xc = self.keys[s] - self.center;
            let cnt = self.ys[s].len() as f64;
            let mut sy = NeumaierSum::new();
            for &v in &self.ys[s] {
                sy.add(v);
            }
            let sy = sy.value();
            let mut pw = 1.0;
            for m in 0..=mm {
                self.tree[off + m].add(cnt * pw);
                self.tree[off + mm + 1 + m].add(sy * pw);
                pw *= xc;
            }
            writes += 1;
        }
        // Standard linear Fenwick construction: push each node's total into
        // its parent once, in index order.
        for i in 1..=p {
            let j = i + lowbit(i);
            if j <= p {
                for t in 0..b {
                    let v = self.tree[i * b + t].value();
                    self.tree[j * b + t].add(v);
                }
                writes += 1;
            }
        }
        kcv_obs::add(kcv_obs::Counter::TreeUpdates, writes);
    }

    /// The prefix moments `Σ x'^m` (`p[m]`) and `Σ y·x'^m` (`q[m]`),
    /// `m < W`, of slots `[0, t)`: one `O(log n)` Fenwick descent.
    fn prefix_row<const W: usize>(&self, t: usize) -> Row<W> {
        let mm = self.max_m;
        let b = self.block();
        let mut row = Row::ZERO;
        let mut i = t;
        while i > 0 {
            let off = i * b;
            for m in 0..W {
                row.p[m] += self.tree[off + m].value();
                row.q[m] += self.tree[off + mm + 1 + m].value();
            }
            i -= lowbit(i);
        }
        row
    }

    /// Reads the Fenwick tree into a flat slot table: row `t` holds the
    /// local-constant prefix moments ([`prefix_row`](Self::prefix_row)) of
    /// slots `[0, t)` for every boundary `t = 0..=slots`, one descent each,
    /// `O(W·log W·(deg+3))`.
    fn flat_table<const W: usize>(&self) -> Vec<Row<W>> {
        (0..=self.keys.len()).map(|t| self.prefix_row(t)).collect()
    }
}

/// [`IncrementalSelector::reselect`]'s sweep at table width `W = deg + 1`:
/// one flat-table read of the tree, then one fused cursor-and-cell pass per
/// live slot, plus the closed-form duplicate-key term.
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
        let mut sy_slot = NeumaierSum::new();
        for &v in ys {
            sy_slot.add(v);
        }
        let sy_slot = sy_slot.value();
        cell.prepare(pool.keys[s] - pool.center, &rows[s], &rows[s + 1]);
        let dup_cnt = (cnt - 1) as f64;
        // Dead slots are skipped, so s may jump: the cursors still only
        // step right.
        cursors.sweep(&pool.keys, s, &inv_hs, radius, |m, inv_h, lo, hi| {
            // Exact live counts per side: the m = 0 row only ever
            // accumulated ±1.0, so these are integers and a dead or removed
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
    CvProfile { bandwidths: hs.to_vec(), scores, included, n }
}

/// The incremental prefix-moment selector: a dynamic observation multiset
/// with `O(log n)` insert/remove and full-grid re-selection with zero
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
        // Moments up to deg + 2 = coeffs.len() + 1.
        let max_m = kernel.coeffs().len() + 1;
        Self { kernel, grid, pool: KeyPool::new(max_m) }
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

    /// Inserts one observation in `O(log n)`: a Fenwick point update when
    /// `x` is already pooled, otherwise an append to the pending run
    /// (folded into the pool amortised-`O(1)`; see the module docs).
    ///
    /// Non-finite `x` or `y` is rejected with [`Error::NonFiniteData`]
    /// **before** any tree mutation: a failed `insert` leaves the selector
    /// state (pool, pending run, live count, every compensated moment)
    /// exactly as it was, so a stream may drop the bad arrival and
    /// continue.
    pub fn insert(&mut self, x: f64, y: f64) -> Result<()> {
        if !x.is_finite() {
            return Err(Error::NonFiniteData { which: "x", index: 0 });
        }
        if !y.is_finite() {
            return Err(Error::NonFiniteData { which: "y", index: 0 });
        }
        let _update = kcv_obs::phase("cv.update");
        self.pool.insert(x, y);
        Ok(())
    }

    /// Removes one observation matching `(x, y)` exactly, returning whether
    /// one was found. Pooled removals are `O(log n)` Fenwick point updates;
    /// a slot whose last observation leaves stays in the pool as a dead
    /// slot (count exactly zero) until the next fold compacts it.
    pub fn remove(&mut self, x: f64, y: f64) -> bool {
        let _update = kcv_obs::phase("cv.update");
        self.pool.remove(x, y)
    }

    /// Re-scores the whole bandwidth grid over the current live set —
    /// one flat-table read of the tree, then an amortised `O(deg²)` cell per
    /// live observation and bandwidth, `O(W·log W·(deg+3) + k·W·deg²)` in
    /// all, zero kernel evaluations — and returns the CV profile. Folds any
    /// pending arrivals first, so the sweep always runs against a compact,
    /// residue-free tree unless only removals happened since the last fold
    /// (in which case dead slots contribute exactly-zero counts and the
    /// sweep proceeds in place).
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
/// full (one `O(log n)` tree update), inserts the arrival, and — when the
/// cadence fires and at least two observations are live — runs a full
/// [`IncrementalSelector::reselect`], caching the optimum for
/// [`current`](Self::current). The amortised per-arrival cost is
/// `O(log W + (W·log W·(deg+3) + k·W·deg²)/cadence)`.
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
            return Err(Error::NonFiniteData { which: "x", index: 0 });
        }
        if !y.is_finite() {
            return Err(Error::NonFiniteData { which: "y", index: 0 });
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
        assert_eq!(a.bandwidth.to_bits(), b.bandwidth.to_bits(), "selection not bit-identical");
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
        // remove-only path queries the live tree with dead-slot residue.
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

    #[test]
    fn flat_table_reads_the_tree_bit_for_bit_with_dead_slots_and_duplicates() {
        // 40 distinct keys, each held three times; after a fold, every
        // observation of each fifth key leaves (dead slots) and one copy of
        // each other key leaves (shrunken duplicate slots).
        let mut rng = SplitMix64::new(40);
        let obs: Vec<(f64, f64)> = (0..120)
            .map(|i| {
                let key = (i % 40) as f64 / 40.0 + 0.003;
                (key, 0.5 * key + 10.0 * key * key + 0.5 * rng.next_f64())
            })
            .collect();
        let x: Vec<f64> = obs.iter().map(|o| o.0).collect();
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let mut sel = IncrementalSelector::new(Epanechnikov, grid);
        for &(xi, yi) in &obs {
            sel.insert(xi, yi).unwrap();
        }
        sel.reselect().unwrap();
        let mut live = Vec::new();
        for (i, &(xi, yi)) in obs.iter().enumerate() {
            if i % 5 == 0 || i < 40 {
                assert!(sel.remove(xi, yi));
            } else {
                live.push((xi, yi));
            }
        }
        assert_eq!(sel.len(), live.len());
        let pool = &sel.pool;
        assert!(pool.dead_slots > 0 && pool.pending.is_empty(), "no dead slots to read");

        // Oracle: a full-width Fenwick descent per boundary, as each cell
        // once ran it, truncated to the local-constant moments.
        let rows = pool.flat_table::<3>();
        assert_eq!(rows.len(), pool.keys.len() + 1);
        let (mm, b) = (pool.max_m, pool.block());
        for (t, row) in rows.iter().enumerate() {
            let (mut dp, mut dq) = (vec![0.0; mm + 1], vec![0.0; mm + 1]);
            let mut i = t;
            while i > 0 {
                for m in 0..=mm {
                    dp[m] += pool.tree[i * b + m].value();
                    dq[m] += pool.tree[i * b + mm + 1 + m].value();
                }
                i -= lowbit(i);
            }
            for m in 0..3 {
                assert_eq!(row.p[m].to_bits(), dp[m].to_bits(), "row {t}, P_{m}");
                assert_eq!(row.q[m].to_bits(), dq[m].to_bits(), "row {t}, Q_{m}");
            }
        }

        // The reselect reads the same unfolded tree (dead slots in place).
        let (x, y): (Vec<f64>, Vec<f64>) = live.into_iter().unzip();
        assert_agrees(&mut sel, &x, &y, &Epanechnikov);
        assert!(sel.pool.dead_slots > 0, "reselect folded the dead slots away");
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
        let mut sel =
            IncrementalSelector::new(Epanechnikov, grid.clone()).with_center(0.5);
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
        let mut win =
            SlidingWindowSelector::new(Epanechnikov, grid.clone(), 200, 50).unwrap();
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
                Err(Error::InvalidParameter { name: "capacity", .. })
            ));
        }
        assert!(matches!(
            SlidingWindowSelector::new(Epanechnikov, grid.clone(), 10, 0),
            Err(Error::InvalidParameter { name: "cadence", .. })
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
        let mut win =
            SlidingWindowSelector::new(Epanechnikov, grid.clone(), 100, 40).unwrap();
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
            let via_deferred = if due { Some(b.reselect_now().unwrap()) } else { None };
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
        // Gate 14's budget at W = n: every insert/remove plus amortised
        // rebuild writes fit in (U+R)·⌈log₂ W⌉·(deg+3).
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

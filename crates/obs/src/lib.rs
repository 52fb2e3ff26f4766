//! # kcv-obs — zero-cost observability for the kernelcv workspace
//!
//! The paper's headline claims are *operation counts*: the sorted sweep does
//! `O(n² log n)` work where the naive grid search does `O(k·n²)`, and the
//! GPU wins by the volume of memory transactions it avoids. This crate makes
//! those counts observable: **op-counters** ([`Counter`]), scoped **phase
//! timers** ([`phase`]), and a machine-readable [`Snapshot`] that `kcv-bench`
//! serialises into `results/BENCH_report.json` so perf can be diffed
//! PR-over-PR.
//!
//! ## Zero cost by default
//!
//! Everything here is behind the `metrics` cargo feature. Without it, every
//! function in this crate is an empty `#[inline(always)]` stub: a counted
//! hot loop carries no atomic traffic, no timer syscalls, and (after
//! optimisation) no residual arithmetic. Downstream crates forward the
//! feature (`kcv-core/metrics`, `kcv-gpu-sim/metrics`,
//! `kcv-bench/metrics`), so one `--features metrics` at the top enables the
//! whole pipeline.
//!
//! ## Scoped recorders
//!
//! Counts land in the innermost **[`Recorder`]** on the current thread's
//! scope stack; with none installed they are dropped. A recorder owns its
//! own counter array and phase table, so two instrumented runs in one
//! process — concurrent tests, a batch-selection service handling parallel
//! requests — each see exactly their own operations instead of an
//! interleaved delta:
//!
//! ```
//! use kcv_obs::{add, phase, Counter, LocalCounter, Recorder};
//!
//! let run = Recorder::new();
//! {
//!     let _scope = run.install(); // instrumentation below lands in `run`
//!     let _sweep = phase("cv.sweep");
//!     let mut evals = LocalCounter::new(Counter::KernelEvals);
//!     for _ in 0..100 {
//!         evals.incr(1); // no atomic traffic here
//!     }
//!     add(Counter::SortComparisons, 42);
//! } // LocalCounter, the phase guard, and the scope flush on drop
//!
//! let snap = run.snapshot();
//! // With `--features metrics` the snapshot holds this run's counts alone;
//! // without it the calls above compiled to nothing and it is empty.
//! if kcv_obs::enabled() {
//!     assert_eq!(snap.counter("kernel_evals"), 100);
//!     assert_eq!(snap.counter("sort_comparisons"), 42);
//! } else {
//!     assert_eq!(snap.counter("kernel_evals"), 0);
//! }
//! assert!(snap.to_json().starts_with('{'));
//! ```
//!
//! Scopes are thread-local. Code that fans work out across threads (the
//! rayon-parallel CV strategies, the GPU simulator's launcher) re-installs
//! the calling thread's scope on each worker: capture a handle with
//! [`scope`] before spawning and [`Scope::enter`] inside the worker
//! closure. Both are cheap (an `Arc` clone and two thread-local
//! operations) and no-ops when no recorder is installed.
//!
//! ## Counting discipline
//!
//! Hot loops must not hit a shared atomic per iteration. Batch with
//! [`LocalCounter`] (one flush on drop) or accumulate a local `u64` and
//! [`add`] it once per call.
//!
//! ## Phase-timer semantics
//!
//! Phase totals are *summed over scopes*. When same-name scopes overlap on
//! different rayon workers the total is **CPU time**, which legitimately
//! exceeds wall-clock — the per-observation `cv.sort` phase and the
//! per-subsample `cv.bag` phase (one scope per bag, bags spread across
//! workers) are the canonical examples. [`Snapshot::to_json`] therefore labels the field
//! `cpu_seconds`, not `seconds`. The workspace convention: top-level
//! parallel regions (`cv.sweep`, `cv.window`, `cv.naive`,
//! `cv.multi`, `gpu.launch`) are timed **once on the calling thread**, so their
//! `cpu_seconds` approximates wall time; phases opened inside worker
//! closures accumulate CPU time across workers. Wall-clock per strategy is
//! reported separately (`wall_seconds` in `BENCH_report.json`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt;

/// The operation classes the CV pipeline counts.
///
/// The names map to the paper's cost analysis (§III–§IV): kernel
/// evaluations are the unit of the naive `O(k·n²)` bound, sort comparisons
/// the `O(n log n)` per-observation sort, skipped LOO terms the saving from
/// compact support, and memory transactions the currency of the GPU cost
/// model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Pointwise kernel-weight evaluations `K((X_i − X_l)/h)` (naive
    /// strategies) or absorbed neighbour terms (sorted sweep — each
    /// neighbour enters the running power sums exactly once per
    /// observation, which is the sweep's whole point).
    KernelEvals = 0,
    /// Key comparisons performed by the per-observation distance sorts
    /// (host quicksort and the simulated device sort).
    SortComparisons = 1,
    /// Leave-one-out sum terms *never touched* because the kernel's compact
    /// support excluded them — work the naive evaluation would have spent
    /// multiplying by zero.
    LooTermsSkipped = 2,
    /// Simulated global-memory transactions reported by the GPU cost model
    /// (uncoalesced reads + writes + coalesced accesses).
    MemTransactions = 3,
    /// Simulated device cycles folded in from `kcv-gpu-sim` launch reports
    /// (rounded to u64).
    GpuSimCycles = 4,
    /// Support-window resolutions performed by the prefix-moment strategy:
    /// one per `(observation, bandwidth)` cell (on the simulated GPU each
    /// costs at most `2·(⌈log₂ n⌉ + 2)` edge-search probes into the
    /// globally sorted `x`).
    /// The prefix strategy touches no per-neighbour terms, so its
    /// `KernelEvals` stays zero while this counter carries its `O(n·k)`
    /// cost — the contrast the perf gate asserts.
    WindowQueries = 5,
    /// Individual edge-search probes spent resolving support windows — the
    /// device-side refinement of [`Counter::WindowQueries`]. Each edge
    /// search probes the edge the previous bandwidth's move predicts, one
    /// bracket beside it, then bisects the rest: one probe for an edge that
    /// did not move, at most `⌈log₂ n⌉ + 2` per edge. Each probe is one
    /// divergent global-memory read on the simulated GPU. The windowed GPU
    /// program's traffic gate is stated in these terms.
    BinarySearchProbes = 6,
    /// Completed bags in a bagged CV selection (Barreiro-Ures et al.): one
    /// increment per subsample whose per-bag grid search finished. At fixed
    /// `(B, r)` the bagged selector's total work is at most `B ×` the
    /// single-bag bound regardless of the full sample size `n` — the
    /// invariant the bagged perf gate divides this counter into. Each bag
    /// also runs under a `cv.bag` phase scope; bags execute on rayon
    /// workers, so the phase's `cpu_seconds` sums per-bag CPU time and
    /// legitimately exceeds wall-clock (see *Phase-timer semantics*).
    BagsRun = 7,
    /// Sorted-axis sweeps performed by the multivariate fast-sum-updating
    /// CV engine (`kcv-core::multi::fast`): one increment per
    /// `(grid point, dimension)` pair, so a full run adds
    /// `grid_points × d`. Together with [`Counter::WindowQueries`]
    /// (`d` per `(observation, grid point)` cell) this carries the fast
    /// multivariate path's cost while its `KernelEvals` stays zero on the
    /// d ≤ 2 hot path — the contrast the multivariate perf gates assert.
    DimSweeps = 8,
    /// Moment-table rows written by the streaming window's re-selections
    /// (`kcv-core::cv::incremental`): each re-selection is the prefix
    /// sweep over the window, which writes one row per window
    /// observation, and adds that count (the `tree_updates` name stays
    /// because reports and the benchmark read it). Arrivals and evictions
    /// write no rows, so a window of capacity `W` re-selected every `c`
    /// arrivals writes at most `W` rows per `c` arrivals; perf gate 14
    /// holds the total under `(inserts + removes)·⌈log₂ W⌉·(deg+3)`.
    TreeUpdates = 9,
    /// Completed re-selections of the streaming window: one increment per
    /// full grid re-selection over the window. The sliding-window
    /// amortisation story is `reselects ≪ arrivals`; each runs under the
    /// prefix sweep's `cv.argsort`, `cv.prefix` and `cv.window` phases.
    Reselects = 10,
    /// Recorder-scope re-entries performed inside worker closures
    /// ([`Scope::enter`]): the bookkeeping cost of propagating an installed
    /// recorder across a parallel region. Under the vendored rayon's
    /// `fold_with_setup` chunk hook each parallel strategy pays one entry
    /// per worker *chunk* (at most `available_parallelism`) instead of one
    /// per observation — the delta `BENCH_report.json` shows between a
    /// parallel strategy and its sequential twin (whose count is zero: no
    /// scope ever needs re-entering on the calling thread).
    ScopeEnters = 11,
    /// Requests processed by the multi-stream bandwidth service
    /// (`kcv-serve`): one increment per queue entry a shard worker drained
    /// and executed — stream opens, arrivals, and closes alike.
    RequestsServed = 12,
    /// Arrivals the service applied as part of a same-stream burst beyond
    /// the first (`burst_len − 1` per coalesced burst): each one rode an
    /// already-drained batch instead of paying its own wakeup, and bursts
    /// that cross re-selection boundaries fund the conflated single
    /// `reselect()` the serving perf gates assert.
    CoalescedArrivals = 13,
    /// High-water mark of a shard's bounded request queue (maximum queued
    /// entries observed). **Max-semantics**: recorded via [`record_max`],
    /// so across shards the meaningful aggregate is the maximum, not the
    /// sum — `kcv-serve` merges shard snapshots accordingly.
    QueueHighWater = 14,
    /// Requests rejected with `Overloaded` because a shard's bounded queue
    /// was full — the backpressure contract's visible cost (shed load
    /// instead of unbounded buffering).
    ShedRequests = 15,
}

/// Number of counters (array sizing).
const NUM_COUNTERS: usize = 16;

impl Counter {
    /// Every counter, in serialisation order.
    pub const ALL: [Counter; NUM_COUNTERS] = [
        Counter::KernelEvals,
        Counter::SortComparisons,
        Counter::LooTermsSkipped,
        Counter::MemTransactions,
        Counter::GpuSimCycles,
        Counter::WindowQueries,
        Counter::BinarySearchProbes,
        Counter::BagsRun,
        Counter::DimSweeps,
        Counter::TreeUpdates,
        Counter::Reselects,
        Counter::ScopeEnters,
        Counter::RequestsServed,
        Counter::CoalescedArrivals,
        Counter::QueueHighWater,
        Counter::ShedRequests,
    ];

    /// The snake_case name used in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::KernelEvals => "kernel_evals",
            Counter::SortComparisons => "sort_comparisons",
            Counter::LooTermsSkipped => "loo_terms_skipped",
            Counter::MemTransactions => "mem_transactions",
            Counter::GpuSimCycles => "gpu_sim_cycles",
            Counter::WindowQueries => "window_queries",
            Counter::BinarySearchProbes => "binary_search_probes",
            Counter::BagsRun => "bags_run",
            Counter::DimSweeps => "dim_sweeps",
            Counter::TreeUpdates => "tree_updates",
            Counter::Reselects => "reselects",
            Counter::ScopeEnters => "scope_enters",
            Counter::RequestsServed => "requests_served",
            Counter::CoalescedArrivals => "coalesced_arrivals",
            Counter::QueueHighWater => "queue_high_water",
            Counter::ShedRequests => "shed_requests",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Time statistics for one named phase.
///
/// `nanos` sums the durations of every completed scope with this name —
/// across threads, so overlapping scopes on rayon workers produce CPU
/// time, not wall time (see the crate-level *Phase-timer semantics*).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as passed to [`phase`] (e.g. `"cv.sort"`).
    pub name: String,
    /// Number of completed phase scopes.
    pub calls: u64,
    /// Total nanoseconds spent inside the phase, summed over all scopes
    /// (CPU time when scopes overlapped on different threads).
    pub nanos: u64,
}

/// A point-in-time copy of every counter and phase timer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for each [`Counter`], in [`Counter::ALL`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// Per-phase timing totals, in first-use order.
    pub phases: Vec<PhaseStat>,
}

impl Snapshot {
    /// Value of the named counter, `0` when absent (e.g. metrics disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Total nanoseconds of the named phase, `0` when absent.
    pub fn phase_nanos(&self, name: &str) -> u64 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.nanos)
    }

    /// Serialises the snapshot as a JSON object:
    /// `{"counters": {name: value, …}, "phases": {name: {"calls": c,
    /// "cpu_seconds": s}, …}}`. The phase field is named `cpu_seconds`
    /// because overlapping same-name scopes on different threads sum to CPU
    /// time (see the crate-level *Phase-timer semantics*). Hand-rolled (the
    /// build environment has no serde); all names are static identifiers,
    /// so no string escaping is needed beyond what [`json_escape`]
    /// provides.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{value}"));
        }
        out.push_str("},\"phases\":{");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"calls\":{},\"cpu_seconds\":{:.9}}}",
                json_escape(&p.name),
                p.calls,
                p.nanos as f64 * 1e-9
            ));
        }
        out.push_str("}}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(feature = "metrics")]
mod imp {
    use super::{Counter, PhaseStat, Snapshot, NUM_COUNTERS};
    use std::cell::RefCell;
    use std::marker::PhantomData;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Instant;

    /// One counter array plus one phase table: the storage behind every
    /// [`Recorder`].
    struct Store {
        counters: [AtomicU64; NUM_COUNTERS],
        phases: Mutex<Vec<PhaseStat>>,
    }

    impl Store {
        fn new() -> Self {
            Store {
                counters: std::array::from_fn(|_| AtomicU64::new(0)),
                phases: Mutex::new(Vec::new()),
            }
        }

        #[inline]
        fn add(&self, counter: Counter, n: u64) {
            self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }

        #[inline]
        fn max(&self, counter: Counter, v: u64) {
            self.counters[counter as usize].fetch_max(v, Ordering::Relaxed);
        }

        #[inline]
        fn get(&self, counter: Counter) -> u64 {
            self.counters[counter as usize].load(Ordering::Relaxed)
        }

        fn record_phase(&self, name: &'static str, nanos: u64) {
            let mut ps = self.phases.lock().expect("phase registry poisoned");
            if let Some(p) = ps.iter_mut().find(|p| p.name == name) {
                p.calls += 1;
                p.nanos += nanos;
            } else {
                ps.push(PhaseStat {
                    name: name.to_string(),
                    calls: 1,
                    nanos,
                });
            }
        }

        fn snapshot(&self) -> Snapshot {
            Snapshot {
                counters: Counter::ALL
                    .iter()
                    .map(|&c| (c.name(), self.get(c)))
                    .collect(),
                phases: self.phases.lock().expect("phase registry poisoned").clone(),
            }
        }
    }

    thread_local! {
        /// The scope stack: recorders installed on this thread, innermost
        /// last. Writes go to the innermost entry.
        static SCOPES: RefCell<Vec<Arc<Store>>> = const { RefCell::new(Vec::new()) };
    }

    /// The innermost recorder installed on this thread, if any.
    #[inline]
    fn current() -> Option<Arc<Store>> {
        SCOPES.with(|s| s.borrow().last().cloned())
    }

    fn push_scope(store: Arc<Store>) -> ScopeGuard {
        SCOPES.with(|s| s.borrow_mut().push(store));
        ScopeGuard {
            installed: true,
            _not_send: PhantomData,
        }
    }

    /// A scoped metric sink: a private counter array and phase table that
    /// receive every instrumentation event issued while the recorder is
    /// [installed](Recorder::install). Cloning is shallow — clones share the same
    /// storage, which is how a recorder handle travels into rayon workers.
    #[derive(Clone)]
    pub struct Recorder {
        store: Arc<Store>,
    }

    impl Recorder {
        /// Creates a recorder with all counters zero and no phases.
        pub fn new() -> Self {
            Recorder {
                store: Arc::new(Store::new()),
            }
        }

        /// Installs the recorder as the innermost scope on the *current
        /// thread* until the returned guard drops. Nesting is allowed;
        /// events go to the innermost installed recorder only. The guard is
        /// `!Send`: it must drop on the
        /// thread that created it.
        #[must_use = "the recorder only receives events while this guard is alive"]
        pub fn install(&self) -> ScopeGuard {
            push_scope(Arc::clone(&self.store))
        }

        /// Current value of one of this recorder's counters.
        #[inline]
        pub fn get(&self, counter: Counter) -> u64 {
            self.store.get(counter)
        }

        /// Copies this recorder's counters and phase timers.
        pub fn snapshot(&self) -> Snapshot {
            self.store.snapshot()
        }
    }

    impl Default for Recorder {
        fn default() -> Self {
            Self::new()
        }
    }

    impl std::fmt::Debug for Recorder {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Recorder").finish_non_exhaustive()
        }
    }

    /// RAII guard for an installed scope ([`Recorder::install`] /
    /// [`Scope::enter`]); dropping it pops the scope stack.
    #[must_use = "the scope is active only while this guard is alive"]
    pub struct ScopeGuard {
        installed: bool,
        /// Pop must happen on the installing thread, so the guard is !Send.
        _not_send: PhantomData<*const ()>,
    }

    impl Drop for ScopeGuard {
        fn drop(&mut self) {
            if self.installed {
                SCOPES.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
    }

    /// A `Send + Sync` handle to the innermost recorder installed at
    /// [`scope`](crate::scope) time (or to nothing, when none was
    /// installed). Captured on the calling thread and
    /// [entered](Scope::enter) inside worker closures so parallel
    /// strategies attribute counts to the run that spawned them.
    #[derive(Clone)]
    pub struct Scope {
        store: Option<Arc<Store>>,
    }

    impl Scope {
        /// Re-installs the captured recorder on the current thread until
        /// the returned guard drops. A no-op (but still cheap and safe)
        /// when no recorder was installed at capture time.
        #[must_use = "the scope is active only while this guard is alive"]
        pub fn enter(&self) -> ScopeGuard {
            match &self.store {
                Some(store) => {
                    let guard = push_scope(Arc::clone(store));
                    // Counted after installation so the increment lands in
                    // the re-entered recorder itself.
                    crate::add(crate::Counter::ScopeEnters, 1);
                    guard
                }
                None => ScopeGuard {
                    installed: false,
                    _not_send: PhantomData,
                },
            }
        }
    }

    /// Captures the current thread's innermost recorder as a [`Scope`].
    pub fn scope() -> Scope {
        Scope { store: current() }
    }

    #[inline]
    pub fn add(counter: Counter, n: u64) {
        if n > 0 {
            if let Some(r) = current() {
                r.add(counter, n);
            }
        }
    }

    #[inline]
    pub fn record_max(counter: Counter, v: u64) {
        if v > 0 {
            if let Some(r) = current() {
                r.max(counter, v);
            }
        }
    }

    pub fn record_phase(name: &'static str, nanos: u64) {
        if let Some(r) = current() {
            r.record_phase(name, nanos);
        }
    }

    /// RAII phase scope.
    #[must_use = "the phase is timed until this guard drops"]
    pub struct PhaseGuard {
        name: &'static str,
        start: Instant,
    }

    pub fn phase(name: &'static str) -> PhaseGuard {
        PhaseGuard {
            name,
            start: Instant::now(),
        }
    }

    impl Drop for PhaseGuard {
        fn drop(&mut self) {
            record_phase(self.name, self.start.elapsed().as_nanos() as u64);
        }
    }

    /// Batching counter: increments locally, flushes one shared add on drop.
    pub struct LocalCounter {
        counter: Counter,
        n: u64,
    }

    impl LocalCounter {
        /// Starts batching for `counter`.
        #[inline(always)]
        pub fn new(counter: Counter) -> Self {
            Self { counter, n: 0 }
        }

        /// Adds `n` to the local batch (no shared-memory traffic).
        #[inline(always)]
        pub fn incr(&mut self, n: u64) {
            self.n += n;
        }
    }

    impl Drop for LocalCounter {
        fn drop(&mut self) {
            add(self.counter, self.n);
        }
    }

    pub const ENABLED: bool = true;
}

#[cfg(not(feature = "metrics"))]
mod imp {
    //! No-op twins: every function is an empty `#[inline(always)]` stub the
    //! optimiser erases, so instrumentation costs nothing when disabled.
    #![allow(clippy::missing_const_for_fn)]

    use super::{Counter, Snapshot};

    #[inline(always)]
    pub fn add(_counter: Counter, _n: u64) {}

    #[inline(always)]
    pub fn record_max(_counter: Counter, _v: u64) {}

    /// Inert recorder (metrics disabled): installing it does nothing and
    /// its snapshot is always empty.
    #[derive(Debug, Clone, Default)]
    pub struct Recorder;

    impl Recorder {
        /// Creates an inert recorder (metrics disabled).
        #[inline(always)]
        pub fn new() -> Self {
            Recorder
        }

        /// Returns an inert guard (metrics disabled).
        #[inline(always)]
        #[must_use = "the recorder only receives events while this guard is alive"]
        pub fn install(&self) -> ScopeGuard {
            ScopeGuard
        }

        /// Always `0` (metrics disabled).
        #[inline(always)]
        pub fn get(&self, _counter: Counter) -> u64 {
            0
        }

        /// Always the empty snapshot (metrics disabled).
        #[inline(always)]
        pub fn snapshot(&self) -> Snapshot {
            Snapshot::default()
        }
    }

    /// Unit-like scope guard; dropping it does nothing.
    #[must_use = "the scope is active only while this guard is alive"]
    pub struct ScopeGuard;

    /// Unit-like scope handle (metrics disabled).
    #[derive(Debug, Clone)]
    pub struct Scope;

    impl Scope {
        /// Returns an inert guard (metrics disabled).
        #[inline(always)]
        #[must_use = "the scope is active only while this guard is alive"]
        pub fn enter(&self) -> ScopeGuard {
            ScopeGuard
        }
    }

    /// Captures nothing (metrics disabled).
    #[inline(always)]
    pub fn scope() -> Scope {
        Scope
    }

    /// Unit-like guard; dropping it does nothing.
    #[must_use = "the phase is timed until this guard drops"]
    pub struct PhaseGuard;

    #[inline(always)]
    pub fn phase(_name: &'static str) -> PhaseGuard {
        PhaseGuard
    }

    /// Unit-like local counter; `incr` compiles away.
    pub struct LocalCounter;

    impl LocalCounter {
        /// Creates an inert counter (metrics disabled).
        #[inline(always)]
        pub fn new(_counter: Counter) -> Self {
            Self
        }

        /// Discards the increment (metrics disabled).
        #[inline(always)]
        pub fn incr(&mut self, _n: u64) {}
    }

    pub const ENABLED: bool = false;
}

/// RAII guard returned by [`phase`]; the scope is timed until it drops.
pub use imp::PhaseGuard;

/// Batching counter for hot loops: increment locally with
/// [`LocalCounter::incr`], pay one shared add when it drops. A no-op type
/// without the `metrics` feature.
pub use imp::LocalCounter;

/// A scoped metric sink owning its own counter array and phase table.
///
/// Create one per measured run, [`install`](Recorder::install) it for the
/// duration of the run, and read the run's private totals with
/// [`Recorder::snapshot`]/[`Recorder::get`] — immune to whatever other
/// instrumented code executes concurrently in the process. An inert unit
/// type without the `metrics` feature.
pub use imp::Recorder;

/// A `Send + Sync` handle for carrying the current scope into worker
/// threads; see [`scope`].
pub use imp::Scope;

/// RAII guard holding a scope installed ([`Recorder::install`] /
/// [`Scope::enter`]); `!Send`, pops the scope stack on drop.
pub use imp::ScopeGuard;

/// Adds `n` to a counter of the innermost installed [`Recorder`] on this
/// thread, if any. A no-op without the `metrics` feature.
#[inline(always)]
pub fn add(counter: Counter, n: u64) {
    imp::add(counter, n);
}

/// Raises a **max-semantics** counter (e.g. [`Counter::QueueHighWater`]) to
/// at least `v`: the innermost installed [`Recorder`] on this thread (if
/// any) takes `max(current, v)` instead of adding. Such counters aggregate across recorders by maximum, not sum. A
/// no-op without the `metrics` feature.
#[inline(always)]
pub fn record_max(counter: Counter, v: u64) {
    imp::record_max(counter, v);
}

/// Starts timing a named phase; the scope ends when the returned guard
/// drops. Nested and concurrent scopes of the same name accumulate — see
/// the crate-level *Phase-timer semantics* for why concurrent scopes sum
/// to CPU time. The elapsed time is recorded against the innermost
/// [`Recorder`] installed *when the guard drops*.
#[inline(always)]
pub fn phase(name: &'static str) -> PhaseGuard {
    imp::phase(name)
}

/// Captures the innermost [`Recorder`] installed on the current thread as
/// a cheap `Send + Sync` [`Scope`] handle. Capture it before fanning work
/// out to rayon workers and [`Scope::enter`] it inside each worker closure
/// so the workers' counts land in the same recorder as the calling
/// thread's.
#[inline(always)]
pub fn scope() -> Scope {
    imp::scope()
}

/// True when the `metrics` feature is compiled in.
#[inline(always)]
pub const fn enabled() -> bool {
    imp::ENABLED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_shape_is_stable() {
        let snap = Snapshot {
            counters: vec![("kernel_evals", 12), ("sort_comparisons", 3)],
            phases: vec![PhaseStat {
                name: "cv.sort".into(),
                calls: 2,
                nanos: 1_500_000,
            }],
        };
        let json = snap.to_json();
        assert!(json.contains("\"kernel_evals\":12"));
        assert!(json.contains("\"cv.sort\":{\"calls\":2,\"cpu_seconds\":0.001500000"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn counter_lookup_defaults_to_zero() {
        let snap = Snapshot::default();
        assert_eq!(snap.counter("kernel_evals"), 0);
        assert_eq!(snap.phase_nanos("cv.sort"), 0);
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn recorder_captures_adds_local_counters_and_phases() {
        let run = Recorder::new();
        {
            let _scope = run.install();
            add(Counter::KernelEvals, 5);
            add(Counter::KernelEvals, 7);
            {
                let mut local = LocalCounter::new(Counter::SortComparisons);
                local.incr(3);
                local.incr(4);
            }
            for _ in 0..3 {
                let _p = phase("test.phase");
                std::hint::black_box(0u64);
            }
        }
        assert_eq!(run.get(Counter::KernelEvals), 12);
        assert_eq!(run.get(Counter::SortComparisons), 7);
        let snap = run.snapshot();
        assert_eq!(snap.counter("kernel_evals"), 12);
        let stat = snap.phases.iter().find(|p| p.name == "test.phase").unwrap();
        assert_eq!(stat.calls, 3);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn events_outside_the_scope_do_not_reach_the_recorder() {
        let run = Recorder::new();
        add(Counter::LooTermsSkipped, 100); // before install
        {
            let _scope = run.install();
            add(Counter::LooTermsSkipped, 1);
        }
        add(Counter::LooTermsSkipped, 100); // after the guard dropped
        assert_eq!(run.get(Counter::LooTermsSkipped), 1);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn nested_recorders_route_to_the_innermost() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _og = outer.install();
        add(Counter::BagsRun, 2);
        {
            let _ig = inner.install();
            add(Counter::BagsRun, 40);
        }
        add(Counter::BagsRun, 300);
        assert_eq!(inner.get(Counter::BagsRun), 40);
        assert_eq!(outer.get(Counter::BagsRun), 302);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn scope_carries_the_recorder_across_threads() {
        let run = Recorder::new();
        let _guard = run.install();
        let scope = scope();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let _in_scope = scope.enter();
                    for _ in 0..1000 {
                        add(Counter::MemTransactions, 1);
                    }
                });
            }
        });
        assert_eq!(run.get(Counter::MemTransactions), 8_000);
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn concurrent_recorders_do_not_interleave() {
        let totals: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    s.spawn(move || {
                        let run = Recorder::new();
                        let _g = run.install();
                        for _ in 0..500 {
                            add(Counter::KernelEvals, t + 1);
                        }
                        run.get(Counter::KernelEvals)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(totals, vec![500, 1000, 1500, 2000]);
    }

    #[cfg(not(feature = "metrics"))]
    #[test]
    fn disabled_metrics_are_inert() {
        assert!(!enabled());

        let run = Recorder::new();
        let _g = run.install();
        add(Counter::KernelEvals, 99);
        assert_eq!(run.get(Counter::KernelEvals), 0);
        assert!(run.snapshot().counters.is_empty());
        let _in = scope().enter();
    }
}

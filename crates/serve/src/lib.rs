//! # kcv-serve — the sharded multi-stream bandwidth service
//!
//! The ROADMAP's "heavy traffic" front-end over the incremental CV engine:
//! many concurrent arrival streams, each owning a
//! [`SlidingWindowSelector`](kcv_core::cv::incremental::SlidingWindowSelector),
//! multiplexed across a fixed set of worker **shards**.
//!
//! ## Architecture
//!
//! * **Sharding** — every stream id hashes (FNV-1a) to one of
//!   [`ServeConfig::shards`] shards; a shard is one worker thread owning
//!   its streams' selectors outright, so no selector is ever touched by
//!   two threads and no per-stream locking exists.
//! * **Backpressure** — each shard drains a bounded MPMC request queue
//!   ([`queue::BoundedQueue`]). [`BandwidthService::send`] refuses with
//!   [`ServeError::Overloaded`] when the shard's queue is full (the shed
//!   is counted) instead of buffering without bound;
//!   [`BandwidthService::send_blocking`] waits for space when the caller
//!   prefers lossless replay over latency.
//! * **Coalescing** — a worker drains whole batches and groups each
//!   stream's pending arrivals into one tree-update **burst**. With
//!   [`ServeConfig::conflate`] on, a burst that crosses one or more
//!   re-selection boundaries funds a **single** cadence `reselect()` at
//!   the end of the burst — under load this is where the service's
//!   throughput over a global-lock stream map comes from, because the
//!   `O(W·log W·(deg+3) + k·W·deg²)` re-selection dominates the `O(log W)`
//!   per-arrival tree update. With `conflate` off the worker re-selects
//!   exactly when a sequential
//!   [`SlidingWindowSelector::push`](kcv_core::cv::incremental::SlidingWindowSelector::push)
//!   would, so
//!   every per-stream [`CvOptimum`] sequence is **bit-identical** to
//!   driving that stream's selector sequentially (the determinism suite
//!   pins this under 2/4/8 shards).
//! * **Lifecycle** — streams are opened and closed explicitly
//!   ([`BandwidthService::open`] / [`BandwidthService::close`], the latter
//!   returning the stream's [`StreamReport`] after a final re-selection);
//!   [`BandwidthService::shutdown`] closes the queues, drains every
//!   remaining request, closes surviving streams, and returns the merged
//!   [`ServiceReport`].
//! * **Metrics** — each shard worker installs its own [`kcv_obs::Recorder`]
//!   scope, so engine counters (`tree_updates`, `reselects`, zero
//!   `kernel_evals`) and the serving counters (`requests_served`,
//!   `coalesced_arrivals`, `queue_high_water`, `shed_requests`) are
//!   attributed per shard and merged by [`merge_snapshots`]
//!   (`queue_high_water` merges by **max**, everything else sums);
//!   [`BandwidthService::metrics`] is the live endpoint. Workers run
//!   `serve.batch`/`serve.reselect` phases and callers `serve.enqueue`.
//!
//! The `serve` bench binary (`crates/bench`) replays 256 concurrent
//! paper-DGP streams × 10⁴ arrivals through 8 shards against a
//! single-global-lock baseline ([`GlobalLockService`]); perf gates 16–18
//! hold the serving contract (schema v7, zero kernel evaluations with
//! coalescing observed, ≥ 4× throughput at identical per-stream final
//! bandwidths).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baseline;
pub mod queue;
pub mod service;

pub use baseline::GlobalLockService;
pub use service::{BandwidthService, ServiceReport, StreamReport};

use std::fmt;

use kcv_core::cv::CvOptimum;
use kcv_core::error::Error as CoreError;
use kcv_obs::{PhaseStat, Snapshot};

/// Identifier of one arrival stream (e.g. a user or sensor id).
pub type StreamId = u64;

/// Errors produced by the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The target shard's bounded queue is full; the request was shed
    /// (backpressure instead of unbounded buffering). Retry later or use
    /// the blocking send.
    Overloaded {
        /// The shard whose queue refused the request.
        shard: usize,
    },
    /// The stream is not open on its shard.
    UnknownStream(StreamId),
    /// [`BandwidthService::open`] on an already-open stream.
    DuplicateStream(StreamId),
    /// The service is shutting down; no further requests are accepted.
    ShuttingDown,
    /// An error surfaced by the underlying `kcv-core` engine.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { shard } => {
                write!(f, "shard {shard} queue full: request shed (backpressure)")
            }
            ServeError::UnknownStream(id) => write!(f, "stream {id} is not open"),
            ServeError::DuplicateStream(id) => write!(f, "stream {id} is already open"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Core(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

/// Convenience alias for serving-layer results.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Configuration of a [`BandwidthService`] (and, window/cadence-wise, of
/// the [`GlobalLockService`] baseline).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (threads); streams hash here. Must be positive.
    pub shards: usize,
    /// Bounded request-queue capacity per shard. Must be positive.
    pub queue_capacity: usize,
    /// Sliding-window capacity `W` of every stream's selector (≥ 2).
    pub window: usize,
    /// Re-selection cadence in arrivals (> 0).
    pub cadence: usize,
    /// Conflate re-selections within a burst: a burst crossing one or more
    /// cadence boundaries runs **one** `reselect()` at its end instead of
    /// one per boundary. Off = per-stream results bit-identical to
    /// sequential replay; on = the throughput mode the serve bench gates.
    pub conflate: bool,
    /// Record every fired [`CvOptimum`] per stream in its
    /// [`StreamOutcome::optima`] (the
    /// determinism suite's evidence; off for long benchmark replays).
    pub log_optima: bool,
}

impl ServeConfig {
    /// A service of `shards` shards with window `window` and cadence
    /// `cadence`, a 1 024-deep queue per shard, conflation on, and optima
    /// logging off.
    pub fn new(shards: usize, window: usize, cadence: usize) -> Self {
        Self { shards, queue_capacity: 1024, window, cadence, conflate: true, log_optima: false }
    }

    /// Validates every field, mirroring the engine's constructor contract.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(CoreError::InvalidParameter {
                name: "shards",
                requirement: "positive (streams hash to worker shards)",
            }
            .into());
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidParameter {
                name: "queue_capacity",
                requirement: "positive (a shard must be able to queue a request)",
            }
            .into());
        }
        if self.window < 2 {
            return Err(CoreError::InvalidParameter {
                name: "capacity",
                requirement: "at least 2 (cross-validation needs two observations)",
            }
            .into());
        }
        if self.cadence == 0 {
            return Err(CoreError::InvalidParameter {
                name: "cadence",
                requirement: "positive (arrivals between re-selections)",
            }
            .into());
        }
        Ok(())
    }
}

/// The shard a stream id hashes to: FNV-1a over the id's little-endian
/// bytes, reduced mod `shards`. Cheap, deterministic, and spreads
/// sequential ids instead of striping them.
pub fn shard_of(stream: StreamId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Merges per-shard [`Snapshot`]s into one service-wide snapshot: counters
/// sum, except `queue_high_water` which is **max**-semantics (the deepest
/// single queue observed, not a meaningless sum of depths); phases sum
/// calls and nanos by name.
pub fn merge_snapshots(snaps: &[Snapshot]) -> Snapshot {
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    let mut phases: Vec<PhaseStat> = Vec::new();
    for snap in snaps {
        for &(name, value) in &snap.counters {
            match counters.iter_mut().find(|(n, _)| *n == name) {
                Some((_, total)) => {
                    if name == "queue_high_water" {
                        *total = (*total).max(value);
                    } else {
                        *total += value;
                    }
                }
                None => counters.push((name, value)),
            }
        }
        for p in &snap.phases {
            match phases.iter_mut().find(|q| q.name == p.name) {
                Some(q) => {
                    q.calls += p.calls;
                    q.nanos += p.nanos;
                }
                None => phases.push(p.clone()),
            }
        }
    }
    Snapshot { counters, phases }
}

/// Per-stream outcome returned by a close (explicit or at shutdown).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    /// The stream's final optimum (a fresh re-selection over the surviving
    /// window at close time), when the window held ≥ 2 observations.
    pub final_optimum: Option<CvOptimum>,
    /// Arrivals applied to the window.
    pub arrivals: u64,
    /// Arrivals rejected (non-finite `x`/`y`); the window was untouched.
    pub rejected: u64,
    /// Re-selections performed (including the final one).
    pub reselects: u64,
    /// Every fired optimum in order, when optima logging was on.
    pub optima: Vec<CvOptimum>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_hash_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 7, 8] {
            for id in 0..64u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards));
            }
        }
        // Sequential ids spread: 64 ids over 8 shards should hit them all.
        let mut hit = [false; 8];
        for id in 0..64u64 {
            hit[shard_of(id, 8)] = true;
        }
        assert!(hit.iter().all(|&h| h), "FNV spread left a shard empty");
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        assert!(ServeConfig::new(0, 64, 16).validate().is_err());
        assert!(ServeConfig { queue_capacity: 0, ..ServeConfig::new(2, 64, 16) }
            .validate()
            .is_err());
        assert!(ServeConfig::new(2, 1, 16).validate().is_err());
        assert!(ServeConfig::new(2, 64, 0).validate().is_err());
        assert!(ServeConfig::new(2, 64, 16).validate().is_ok());
    }

    #[test]
    fn snapshot_merge_sums_except_high_water() {
        let a = Snapshot {
            counters: vec![("reselects", 3), ("queue_high_water", 10)],
            phases: vec![PhaseStat { name: "serve.batch".into(), calls: 2, nanos: 100 }],
        };
        let b = Snapshot {
            counters: vec![("reselects", 4), ("queue_high_water", 7)],
            phases: vec![PhaseStat { name: "serve.batch".into(), calls: 1, nanos: 50 }],
        };
        let m = merge_snapshots(&[a, b]);
        assert_eq!(m.counter("reselects"), 7);
        assert_eq!(m.counter("queue_high_water"), 10, "max, not sum");
        let p = &m.phases[0];
        assert_eq!((p.calls, p.nanos), (3, 150));
    }

    #[test]
    fn serve_errors_display() {
        let errs = [
            ServeError::Overloaded { shard: 3 },
            ServeError::UnknownStream(9),
            ServeError::DuplicateStream(9),
            ServeError::ShuttingDown,
            ServeError::Core(CoreError::DegenerateDomain),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

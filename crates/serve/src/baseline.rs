//! The comparison point the serve bench and perf gate 18 measure against:
//! one global `Mutex` around a plain stream map, every arrival processed
//! synchronously on the caller's thread with a full
//! [`SlidingWindowSelector::push`] — no queues, no batching, no
//! coalescing, a re-selection at **every** cadence boundary.
//!
//! Close always runs a final re-selection over the surviving window. That
//! is the reference for [`crate::BandwidthService`]'s close, which returns
//! the same optimum bit for bit but reuses it, without a re-selection,
//! when no arrival changed the window since the last one. So per-stream
//! final bandwidths are directly comparable — the identity gate 18
//! asserts — and a stream whose last arrival fired a re-selection counts
//! one more in `reselects` here than in the service.

use std::collections::HashMap;
use std::sync::Mutex;

use kcv_core::cv::{CvOptimum, SlidingWindowSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::PolynomialKernel;

use crate::{Result, ServeConfig, ServeError, StreamId, StreamOutcome};

struct StreamState<K> {
    selector: SlidingWindowSelector<K>,
    arrivals: u64,
    rejected: u64,
    reselects: u64,
    optima: Vec<CvOptimum>,
}

/// A single-global-lock multi-stream selector map (the baseline).
pub struct GlobalLockService<K> {
    kernel: K,
    grid: BandwidthGrid,
    config: ServeConfig,
    streams: Mutex<HashMap<StreamId, StreamState<K>>>,
}

impl<K: PolynomialKernel + Clone> GlobalLockService<K> {
    /// A baseline service; only `window`, `cadence`, and `log_optima` of
    /// `config` apply (there are no shards or queues to configure).
    pub fn new(kernel: K, grid: BandwidthGrid, config: ServeConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            kernel,
            grid,
            config,
            streams: Mutex::new(HashMap::new()),
        })
    }

    /// Opens a stream under the global lock.
    pub fn open(&self, stream: StreamId) -> Result<()> {
        let mut streams = self.streams.lock().expect("stream map poisoned");
        if streams.contains_key(&stream) {
            return Err(ServeError::DuplicateStream(stream));
        }
        let selector = SlidingWindowSelector::new(
            self.kernel.clone(),
            self.grid.clone(),
            self.config.window,
            self.config.cadence,
        )?;
        streams.insert(
            stream,
            StreamState {
                selector,
                arrivals: 0,
                rejected: 0,
                reselects: 0,
                optima: Vec::new(),
            },
        );
        Ok(())
    }

    /// Applies one arrival synchronously: the lock is held across the pool
    /// update *and* any cadence re-selection — the convoy the sharded
    /// service exists to avoid.
    pub fn send(&self, stream: StreamId, x: f64, y: f64) -> Result<Option<CvOptimum>> {
        let mut streams = self.streams.lock().expect("stream map poisoned");
        let state = streams
            .get_mut(&stream)
            .ok_or(ServeError::UnknownStream(stream))?;
        match state.selector.push(x, y) {
            Ok(fired) => {
                state.arrivals += 1;
                if let Some(opt) = fired {
                    state.reselects += 1;
                    if self.config.log_optima {
                        state.optima.push(opt);
                    }
                }
                Ok(fired)
            }
            Err(_) => {
                state.rejected += 1;
                Ok(None)
            }
        }
    }

    /// Closes a stream: final re-selection over the surviving window, the
    /// optimum the sharded service's close returns.
    pub fn close(&self, stream: StreamId) -> Result<StreamOutcome> {
        let mut streams = self.streams.lock().expect("stream map poisoned");
        let state = streams
            .remove(&stream)
            .ok_or(ServeError::UnknownStream(stream))?;
        Ok(close_state(state))
    }

    /// Closes every surviving stream in id order and returns
    /// `(stream, outcome)` pairs — the baseline's shutdown.
    pub fn shutdown(self) -> Vec<(StreamId, StreamOutcome)> {
        let mut streams = self.streams.into_inner().expect("stream map poisoned");
        let mut ids: Vec<StreamId> = streams.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| (id, close_state(streams.remove(&id).expect("listed above"))))
            .collect()
    }
}

fn close_state<K: PolynomialKernel + Clone>(mut state: StreamState<K>) -> StreamOutcome {
    let final_optimum = if state.selector.len() >= 2 {
        match state.selector.reselect_now() {
            Ok(opt) => {
                state.reselects += 1;
                Some(opt)
            }
            Err(_) => state.selector.current(),
        }
    } else {
        state.selector.current()
    };
    StreamOutcome {
        final_optimum,
        arrivals: state.arrivals,
        rejected: state.rejected,
        reselects: state.reselects,
        optima: state.optima,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_core::kernels::Epanechnikov;
    use kcv_core::util::SplitMix64;

    #[test]
    fn baseline_reselects_at_every_cadence_boundary() {
        let grid = BandwidthGrid::log(0.01, 0.5, 10).unwrap();
        let config = ServeConfig {
            log_optima: true,
            ..ServeConfig::new(1, 64, 16)
        };
        let svc = GlobalLockService::new(Epanechnikov, grid, config).unwrap();
        svc.open(5).unwrap();
        assert!(matches!(svc.open(5), Err(ServeError::DuplicateStream(5))));
        let mut rng = SplitMix64::new(44);
        let mut fired = 0;
        for _ in 0..80 {
            if svc
                .send(5, rng.next_f64(), rng.next_f64())
                .unwrap()
                .is_some()
            {
                fired += 1;
            }
        }
        assert_eq!(fired, 5);
        let outcome = svc.close(5).unwrap();
        assert_eq!(outcome.arrivals, 80);
        assert_eq!(outcome.reselects, 6, "five cadence firings plus the close");
        assert_eq!(outcome.optima.len(), 5);
        assert!(matches!(svc.close(5), Err(ServeError::UnknownStream(5))));
    }
}

//! Cooperative (single-block, barrier-synchronised) kernels.
//!
//! CUDA reductions interleave shared-memory phases with `__syncthreads()`.
//! The simulator models this with *barrier phases*: [`CooperativeBlock::step`]
//! runs one closure per thread against a snapshot of shared memory taken at
//! the last barrier, buffers every shared-memory write, and applies the
//! writes when all threads finish — which is exactly the semantics a
//! *correct* CUDA program (no intra-phase races) relies on. As a bonus the
//! simulator detects intra-phase write conflicts and reports them as
//! [`SimError::SharedMemoryRace`] instead of silently producing one of the
//! racy outcomes.
//!
//! A block's threads run one after another, in thread order, on the calling
//! thread: a phase is a few shared-memory operations per thread, far less
//! than starting a host worker costs, and the buffered writes make the
//! result independent of the order anyway. A phase allocates nothing: each
//! thread charges its block-lifetime counters in place, and the block
//! reuses one write buffer and one race map (stamped with the phase that
//! wrote each cell) for all its phases.

use crate::cost::{CostModel, LaunchReport, ThreadCounters};
use crate::device::DeviceSpec;
use crate::error::{Result, SimError};
use crate::launch::{build_report, charge, LaunchConfig};
use std::time::Instant;

/// The shared-memory writes of one barrier phase, buffered until the
/// barrier. The block reuses one buffer for every phase.
#[derive(Debug, Default)]
pub struct SharedWrites {
    /// The thread whose body is running.
    tid: usize,
    /// `(thread, index, value)` in the order the threads wrote them.
    writes: Vec<(usize, usize, f32)>,
}

impl SharedWrites {
    /// Schedules `shared[index] = value` to take effect at the next barrier.
    pub fn write(&mut self, index: usize, value: f32) {
        self.writes.push((self.tid, index, value));
    }
}

/// A single thread block executing barrier-separated phases over a shared
/// memory array.
#[derive(Debug)]
pub struct CooperativeBlock<'a> {
    spec: &'a DeviceSpec,
    cost: &'a CostModel,
    threads: usize,
    shared: Vec<f32>,
    counters: Vec<ThreadCounters>,
    /// The phase's buffered writes.
    writes: SharedWrites,
    /// Per shared cell, the phase that last wrote it and the writing
    /// thread: a cell whose phase is not the current one is unwritten.
    writer: Vec<(u64, usize)>,
    /// Barrier phases run so far.
    phase: u64,
    started: Instant,
}

impl<'a> CooperativeBlock<'a> {
    /// Creates a block of `threads` threads with `shared_len` f32 cells of
    /// shared memory (zero-initialised).
    pub fn new(
        spec: &'a DeviceSpec,
        cost: &'a CostModel,
        threads: usize,
        shared_len: usize,
    ) -> Result<Self> {
        if threads == 0 {
            return Err(SimError::InvalidLaunch("block has zero threads".into()));
        }
        if threads > spec.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "block size {threads} exceeds device maximum {}",
                spec.max_threads_per_block
            )));
        }
        Ok(Self {
            spec,
            cost,
            threads,
            shared: vec![0.0; shared_len],
            counters: vec![ThreadCounters::default(); threads],
            writes: SharedWrites::default(),
            writer: vec![(0, 0); shared_len],
            phase: 0,
            started: Instant::now(),
        })
    }

    /// Number of threads in the block.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Read-only view of shared memory as of the last barrier.
    pub fn shared(&self) -> &[f32] {
        &self.shared
    }

    /// Runs one barrier phase: `body(tid, shared, counters, writes)` for
    /// every thread, in thread order on the calling thread, against the
    /// current shared snapshot, then applies the buffered writes and charges
    /// one `__syncthreads` per thread. Each thread's operations are charged
    /// straight to its counters.
    ///
    /// Returns an error if two different threads wrote the same cell (data
    /// race) or any write was out of bounds.
    pub fn step<F>(&mut self, body: F) -> Result<()>
    where
        F: Fn(usize, &[f32], &mut ThreadCounters, &mut SharedWrites),
    {
        self.phase += 1;
        self.writes.writes.clear();
        for (tid, c) in self.counters.iter_mut().enumerate() {
            self.writes.tid = tid;
            body(tid, &self.shared, c, &mut self.writes);
            c.sync();
        }

        // Apply writes in thread order, detecting cross-thread conflicts.
        let len = self.shared.len();
        for &(tid, idx, val) in &self.writes.writes {
            if idx >= len {
                return Err(SimError::SharedMemoryOutOfBounds { index: idx, len });
            }
            let (phase, prev) = self.writer[idx];
            if phase == self.phase && prev != tid {
                return Err(SimError::SharedMemoryRace {
                    index: idx,
                    threads: (prev, tid),
                });
            }
            self.writer[idx] = (self.phase, tid);
            self.shared[idx] = val;
        }
        Ok(())
    }

    /// Finishes the block, returning the final shared memory and the cost
    /// report (single block ⇒ `threads_per_block = threads`).
    pub fn finish(self) -> (Vec<f32>, LaunchReport) {
        let config = LaunchConfig::new(self.threads, self.threads);
        let host_seconds = self.started.elapsed().as_secs_f64();
        let mut cycles = vec![0.0; self.threads];
        let totals = charge(&self.counters, self.cost, &mut cycles);
        let report = build_report(totals, &cycles, config, self.spec, host_seconds);
        (self.shared, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tesla() -> (DeviceSpec, CostModel) {
        (DeviceSpec::tesla_s10(), CostModel::default())
    }

    #[test]
    fn phases_see_previous_phase_writes() {
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 4, 4).unwrap();
        block
            .step(|tid, _s, c, w| {
                c.shared_access(1);
                w.write(tid, tid as f32);
            })
            .unwrap();
        assert_eq!(block.shared(), &[0.0, 1.0, 2.0, 3.0]);
        block
            .step(|tid, s, c, w| {
                c.shared_access(2);
                w.write(tid, s[tid] * 10.0);
            })
            .unwrap();
        assert_eq!(block.shared(), &[0.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn intra_phase_snapshot_semantics() {
        // Thread 0 writes cell 1; thread 1 reads cell 1 in the SAME phase
        // and must see the pre-phase value (0), not the new one.
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 2, 3).unwrap();
        block
            .step(|tid, s, _c, w| {
                if tid == 0 {
                    w.write(1, 42.0);
                } else {
                    w.write(2, s[1] + 1.0);
                }
            })
            .unwrap();
        assert_eq!(block.shared(), &[0.0, 42.0, 1.0]);
    }

    #[test]
    fn phases_run_on_the_calling_thread() {
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 64, 64).unwrap();
        let ids = std::sync::Mutex::new(Vec::new());
        block
            .step(|tid, _s, _c, w| {
                ids.lock().unwrap().push(std::thread::current().id());
                w.write(tid, 1.0);
            })
            .unwrap();
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 64);
        let caller = std::thread::current().id();
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn cross_thread_write_conflict_is_a_race() {
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 2, 1).unwrap();
        let err = block.step(|_tid, _s, _c, w| w.write(0, 1.0)).unwrap_err();
        assert!(matches!(err, SimError::SharedMemoryRace { index: 0, .. }));
    }

    #[test]
    fn same_thread_may_rewrite_a_cell() {
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 1, 1).unwrap();
        block
            .step(|_tid, _s, _c, w| {
                w.write(0, 1.0);
                w.write(0, 2.0);
            })
            .unwrap();
        assert_eq!(block.shared(), &[2.0]);
    }

    #[test]
    fn out_of_bounds_write_is_reported() {
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 1, 2).unwrap();
        let err = block.step(|_t, _s, _c, w| w.write(5, 0.0)).unwrap_err();
        assert_eq!(err, SimError::SharedMemoryOutOfBounds { index: 5, len: 2 });
    }

    #[test]
    fn sync_cost_charged_per_phase() {
        let (spec, cost) = tesla();
        let mut block = CooperativeBlock::new(&spec, &cost, 8, 8).unwrap();
        block.step(|_t, _s, _c, _w| {}).unwrap();
        block.step(|_t, _s, _c, _w| {}).unwrap();
        let (_, report) = block.finish();
        assert_eq!(report.totals.syncs, 16); // 8 threads × 2 barriers
    }

    #[test]
    fn oversized_block_rejected() {
        let (spec, cost) = tesla();
        assert!(CooperativeBlock::new(&spec, &cost, 513, 1).is_err());
        assert!(CooperativeBlock::new(&spec, &cost, 0, 1).is_err());
    }
}

//! Independent-kernel launches: SPMD execution with no intra-block
//! coordination — the model for the paper's main bandwidth kernel ("this
//! main kernel does not use shared memory or coordination across threads").
//!
//! Each simulated thread receives its thread id, its block's
//! caller-prepared workspace (for instance the block's group of per-thread
//! rows of the global-memory matrices, or a block accumulator), and a
//! [`ThreadCounters`] to report its operations. Blocks run in parallel on
//! host cores via rayon, one pass per launch. With [`launch_blocks`] a
//! block's threads run in thread order on the block's worker; with
//! [`launch_block_kernel`] the kernel gets the whole block and may
//! interleave its threads' steps (a warp's threads stepping together),
//! each thread still charging its own counters.
//!
//! The host keeps per thread only what the cost model needs: one cycle
//! count (8 bytes), written by the thread's block into the launch's cycle
//! array. A block's counters are summed into one total per block. The cost
//! model then replays the cycle counts through the warp/SM schedule of the
//! target [`DeviceSpec`] ([`aggregate_cycles`]).

use crate::cost::{aggregate_cycles, CostModel, LaunchReport, ThreadCounters};
use crate::device::DeviceSpec;
use crate::error::{Result, SimError};
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;

/// Grid configuration for a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Total threads in the grid (the paper sets this to `n`).
    pub threads: usize,
    /// Threads per block (the paper found 512 — the device maximum — best).
    pub threads_per_block: usize,
}

impl LaunchConfig {
    /// One thread per work item with the given block size.
    pub fn new(threads: usize, threads_per_block: usize) -> Self {
        Self {
            threads,
            threads_per_block,
        }
    }

    fn validate(&self, spec: &DeviceSpec) -> Result<()> {
        if self.threads == 0 {
            return Err(SimError::InvalidLaunch("grid has zero threads".into()));
        }
        if self.threads_per_block == 0 {
            return Err(SimError::InvalidLaunch("block has zero threads".into()));
        }
        if self.threads_per_block > spec.max_threads_per_block {
            return Err(SimError::InvalidLaunch(format!(
                "block size {} exceeds device maximum {}",
                self.threads_per_block, spec.max_threads_per_block
            )));
        }
        Ok(())
    }
}

/// Launches an independent (no shared memory, no synchronisation) kernel
/// block by block: `workspaces` holds one workspace per block, and the
/// threads of a block run one after another in thread order against it, so
/// a kernel can fold its results into its block's workspace in a fixed
/// order — the model of a block's shared-memory accumulator — or index a
/// per-thread part of it by `tid % threads_per_block`. Blocks run in
/// parallel, each re-entering the caller's `kcv_obs` recorder scope once,
/// so events a kernel emits (e.g. the device sort's comparisons) land in
/// the launching run's recorder. Returns each thread's output in thread
/// order plus the cost report.
pub fn launch_blocks<W, R, F>(
    spec: &DeviceSpec,
    cost: &CostModel,
    config: LaunchConfig,
    workspaces: Vec<W>,
    kernel: F,
) -> Result<(Vec<R>, LaunchReport)>
where
    W: Send,
    R: Send,
    F: Fn(usize, &mut W, &mut ThreadCounters) -> R + Sync,
{
    run_blocks(spec, cost, config, workspaces, |tids, ws, counters| {
        tids.zip(counters)
            .map(|(tid, c)| kernel(tid, ws, c))
            .collect()
    })
}

/// Launches an independent kernel a whole block at a time:
/// `kernel(tids, workspace, counters)` runs the block of threads `tids`
/// against its workspace and charges thread `tids.start + i` to
/// `counters[i]`. The kernel may interleave its threads' steps in any
/// order that keeps each thread's own work — the host's model of a block's
/// warps running side by side — and the cost model sees the same
/// per-thread counts as from [`launch_blocks`]. Blocks run in parallel as
/// in [`launch_blocks`].
pub fn launch_block_kernel<W, F>(
    spec: &DeviceSpec,
    cost: &CostModel,
    config: LaunchConfig,
    workspaces: Vec<W>,
    kernel: F,
) -> Result<LaunchReport>
where
    W: Send,
    F: Fn(Range<usize>, &mut W, &mut [ThreadCounters]) + Sync,
{
    let (_, report) = run_blocks(spec, cost, config, workspaces, |tids, ws, counters| {
        kernel(tids, ws, counters);
        Vec::<()>::new()
    })?;
    Ok(report)
}

/// Runs `block(tids, workspace, counters)` for every block, in parallel,
/// and builds the report from the threads' counters. A block keeps no
/// per-thread record beyond its outputs and its threads' counters; it
/// writes their cycle counts into the launch's one cycle array and sums
/// them into one total.
fn run_blocks<W, R, F>(
    spec: &DeviceSpec,
    cost: &CostModel,
    config: LaunchConfig,
    workspaces: Vec<W>,
    block: F,
) -> Result<(Vec<R>, LaunchReport)>
where
    W: Send,
    R: Send,
    F: Fn(Range<usize>, &mut W, &mut [ThreadCounters]) -> Vec<R> + Sync,
{
    config.validate(spec)?;
    let tpb = config.threads_per_block;
    let blocks = config.threads.div_ceil(tpb);
    if workspaces.len() != blocks {
        return Err(SimError::InvalidLaunch(format!(
            "{} workspaces for {blocks} blocks",
            workspaces.len()
        )));
    }
    let _launch = kcv_obs::phase("gpu.launch");
    let scope = kcv_obs::scope();
    let start = Instant::now();
    let mut cycles = vec![0.0f64; config.threads];
    let items: Vec<(usize, (W, &mut [f64]))> = workspaces
        .into_iter()
        .zip(cycles.chunks_mut(tpb))
        .enumerate()
        .collect();
    let per_block: Vec<(Vec<R>, ThreadCounters)> = items
        .into_par_iter()
        .map(|(b, (mut ws, block_cycles))| {
            let _in_scope = scope.enter();
            let tids = b * tpb..b * tpb + block_cycles.len();
            let mut counters = vec![ThreadCounters::default(); tids.len()];
            let outputs = block(tids, &mut ws, &mut counters);
            (outputs, charge(&counters, cost, block_cycles))
        })
        .collect();
    let host_seconds = start.elapsed().as_secs_f64();
    let mut totals = ThreadCounters::default();
    let mut outputs = Vec::with_capacity(per_block.iter().map(|(o, _)| o.len()).sum());
    for (block_outputs, block_totals) in per_block {
        totals.absorb(&block_totals);
        outputs.extend(block_outputs);
    }
    let report = build_report(totals, &cycles, config, spec, host_seconds);
    Ok((outputs, report))
}

/// Writes each thread's cycle count under `cost` into `cycles` and
/// returns the threads' counter total.
pub(crate) fn charge(
    counters: &[ThreadCounters],
    cost: &CostModel,
    cycles: &mut [f64],
) -> ThreadCounters {
    let mut totals = ThreadCounters::default();
    for (slot, c) in cycles.iter_mut().zip(counters) {
        *slot = c.cycles(cost);
        totals.absorb(c);
    }
    totals
}

/// The cost report of a launch whose threads' counters sum to `totals` and
/// whose thread `t` took `cycles[t]` cycles.
pub(crate) fn build_report(
    totals: ThreadCounters,
    cycles: &[f64],
    config: LaunchConfig,
    spec: &DeviceSpec,
    host_seconds: f64,
) -> LaunchReport {
    let simulated_cycles = aggregate_cycles(cycles, config.threads_per_block, spec);
    // Fold the launch totals into the workspace-wide observability counters
    // so BENCH_report.json sees device traffic next to host-side op counts:
    // one memory transaction per global word the kernel touched.
    kcv_obs::add(
        kcv_obs::Counter::MemTransactions,
        totals.global_reads + totals.global_writes + totals.global_coalesced,
    );
    kcv_obs::add(kcv_obs::Counter::GpuSimCycles, simulated_cycles as u64);
    LaunchReport {
        threads: config.threads,
        threads_per_block: config.threads_per_block,
        totals,
        simulated_cycles,
        simulated_seconds: simulated_cycles / spec.clock_hz,
        host_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tesla() -> (DeviceSpec, CostModel) {
        (DeviceSpec::tesla_s10(), CostModel::default())
    }

    /// A workspace-free launch: one unit workspace per block.
    fn launch<R: Send>(
        spec: &DeviceSpec,
        cost: &CostModel,
        config: LaunchConfig,
        kernel: impl Fn(usize, &mut ThreadCounters) -> R + Sync,
    ) -> Result<(Vec<R>, LaunchReport)> {
        let blocks = config.threads.div_ceil(config.threads_per_block);
        launch_blocks(spec, cost, config, vec![(); blocks], |tid, _, c| {
            kernel(tid, c)
        })
    }

    #[test]
    fn kernel_mutates_workspaces_in_parallel() {
        let (spec, cost) = tesla();
        let mut data = vec![0.0f32; 1000];
        // 100 threads of 10 cells in blocks of 32: each block's workspace
        // is its group of per-thread rows.
        let workspaces: Vec<Vec<&mut [f32]>> = data
            .chunks_mut(10 * 32)
            .map(|block| block.chunks_mut(10).collect())
            .collect();
        let cfg = LaunchConfig::new(100, 32);
        let (out, report) = launch_blocks(&spec, &cost, cfg, workspaces, |tid, rows, c| {
            for (j, v) in rows[tid % 32].iter_mut().enumerate() {
                *v = (tid * 10 + j) as f32;
                c.global_write(1);
            }
            tid * 3
        })
        .unwrap();
        assert_eq!(out, (0..100).map(|t| t * 3).collect::<Vec<_>>());
        assert_eq!(report.totals.global_writes, 1000);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
    }

    #[test]
    fn outputs_come_back_in_thread_order() {
        let (spec, cost) = tesla();
        let cfg = LaunchConfig::new(64, 64);
        let (out, report) = launch(&spec, &cost, cfg, |tid, c| {
            c.flop(tid as u64);
            tid * 2
        })
        .unwrap();
        assert_eq!(out, (0..64).map(|t| t * 2).collect::<Vec<_>>());
        assert_eq!(report.totals.flops, (0..64).sum::<usize>() as u64);
        assert!(report.simulated_seconds > 0.0);
    }

    /// An independent map: each thread owns one slot of its block's group,
    /// writes it and returns a value, with no thread reading another's slot.
    #[test]
    fn launch_independent_map_mutates_and_returns() {
        let (spec, cost) = tesla();
        let mut data = vec![0.0f32; 64];
        let workspaces: Vec<Vec<&mut f32>> = data
            .chunks_mut(32)
            .map(|block| block.iter_mut().collect())
            .collect();
        let cfg = LaunchConfig::new(64, 32);
        let (out, report) = launch_blocks(&spec, &cost, cfg, workspaces, |tid, slots, c| {
            *slots[tid % 32] = tid as f32;
            c.global_write(1);
            tid * 3
        })
        .unwrap();
        assert_eq!(out, (0..64).map(|t| t * 3).collect::<Vec<_>>());
        assert_eq!(report.totals.global_writes, 64);
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i as f32);
        }
        // One workspace per thread instead of per block is rejected.
        let r = launch_blocks(&spec, &cost, cfg, vec![(); 64], |_, _, _| 0u32);
        assert!(r.is_err());
    }

    #[test]
    fn launch_blocks_runs_each_block_in_thread_order() {
        let (spec, cost) = tesla();
        // 70 threads in blocks of 32: two full blocks and one of 6.
        let cfg = LaunchConfig::new(70, 32);
        let mut seen = vec![Vec::new(); 3];
        let workspaces: Vec<&mut Vec<usize>> = seen.iter_mut().collect();
        let (out, report) = launch_blocks(&spec, &cost, cfg, workspaces, |tid, block, c| {
            block.push(tid);
            c.flop(1);
            tid * 2
        })
        .unwrap();
        assert_eq!(out, (0..70).map(|t| t * 2).collect::<Vec<_>>());
        assert_eq!(
            seen,
            [
                (0..32).collect(),
                (32..64).collect(),
                (64..70).collect::<Vec<_>>()
            ]
        );
        assert_eq!(report.totals.flops, 70);
        // One workspace per block, not per thread.
        let r = launch_blocks(&spec, &cost, cfg, vec![(); 70], |_, _, _| ());
        assert!(r.is_err());
    }

    #[test]
    fn block_kernel_charges_each_thread_its_own_counters() {
        let (spec, cost) = tesla();
        // 70 threads in blocks of 32; thread t does t flops. The block
        // kernel steps its threads round-robin, two flops at a time, and
        // must cost what the thread-at-a-time launch costs.
        let cfg = LaunchConfig::new(70, 32);
        let mut seen = vec![Vec::new(); 3];
        let workspaces: Vec<&mut Vec<usize>> = seen.iter_mut().collect();
        let report = launch_block_kernel(&spec, &cost, cfg, workspaces, |tids, block, cs| {
            assert_eq!(tids.len(), cs.len());
            block.extend(tids.clone());
            for round in 0..70u64 {
                for (tid, c) in tids.clone().zip(cs.iter_mut()) {
                    c.flop((tid as u64).saturating_sub(2 * round).min(2));
                }
            }
        })
        .unwrap();
        let (_, serial) = launch(&spec, &cost, cfg, |tid, c| c.flop(tid as u64)).unwrap();
        assert_eq!(report.totals, serial.totals);
        assert_eq!(
            report.simulated_cycles.to_bits(),
            serial.simulated_cycles.to_bits()
        );
        assert_eq!(seen[2], (64..70).collect::<Vec<_>>());
        let r = launch_block_kernel(&spec, &cost, cfg, vec![(); 70], |_, _, _| ());
        assert!(r.is_err());
    }

    #[test]
    fn launch_validation() {
        let (spec, cost) = tesla();
        // Zero threads.
        let r = launch(&spec, &cost, LaunchConfig::new(0, 32), |_, _| ());
        assert!(r.is_err());
        // Oversized block.
        let r = launch(&spec, &cost, LaunchConfig::new(10, 1024), |_, _| ());
        assert!(r.is_err());
        // Workspace mismatch: one block of 4 threads, two workspaces.
        let r = launch_blocks(
            &spec,
            &cost,
            LaunchConfig::new(4, 4),
            vec![(), ()],
            |_, _, _| (),
        );
        assert!(r.is_err());
    }

    #[test]
    fn divergent_thread_raises_simulated_time() {
        let (spec, cost) = tesla();
        let cfg = LaunchConfig::new(32, 32);
        let (_, uniform) = launch(&spec, &cost, cfg, |_, c| c.flop(100)).unwrap();
        let (_, divergent) = launch(&spec, &cost, cfg, |tid, c| {
            c.flop(if tid == 0 { 3200 } else { 100 })
        })
        .unwrap();
        assert!(divergent.simulated_cycles > uniform.simulated_cycles * 10.0);
    }

    #[test]
    fn simulated_time_scales_down_with_more_parallelism_than_work() {
        // Same total work split over many blocks beats one serial block
        // chain on a multi-SM device.
        let (spec, cost) = tesla();
        let many_blocks = launch(&spec, &cost, LaunchConfig::new(960, 32), |_, c| {
            c.flop(1000)
        })
        .unwrap()
        .1;
        let one_block = launch(&spec, &cost, LaunchConfig::new(960, 512), |_, c| {
            c.flop(1000)
        })
        .unwrap()
        .1;
        // 30 blocks of one warp spread over 30 SMs; 2 blocks of 16 warps
        // pile onto 2 SMs.
        assert!(many_blocks.simulated_cycles < one_block.simulated_cycles);
    }
}

//! The first-order cost model: per-thread operation counters, warp-level
//! lockstep aggregation, and SM scheduling into simulated cycles.
//!
//! Device code is *instrumented*, CUDA-profiler style: kernels report their
//! operations through [`ThreadCounters`] and the model converts counts into
//! cycles. The model is deliberately first-order — it captures the
//! magnitudes that drive the paper's results (arithmetic volume, global
//! traffic, warp lockstep, core count) without simulating pipelines.

use crate::device::DeviceSpec;
use crate::error::{Result, SimError};

/// Cycle costs per operation class (loosely Tesla-era figures).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Cycles per floating-point operation.
    pub flop: f64,
    /// Cycles per *uncoalesced* global-memory access: the warp's lanes hit
    /// scattered addresses, so each lane pays a full transaction.
    pub global_access: f64,
    /// Cycles per *coalesced* global-memory access: the warp's lanes hit
    /// consecutive addresses and share transactions (Tesla-era hardware
    /// made this an order-of-magnitude difference — the reason for the
    /// paper's §IV-B index switch).
    pub global_access_coalesced: f64,
    /// Cycles per shared-memory access.
    pub shared_access: f64,
    /// Cycles per constant-memory access (cache-resident).
    pub constant_access: f64,
    /// Cycles per branch/compare.
    pub branch: f64,
    /// Cycles per `__syncthreads` barrier.
    pub sync: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            flop: 1.0,
            global_access: 200.0,
            global_access_coalesced: 25.0,
            shared_access: 2.0,
            constant_access: 1.0,
            branch: 1.0,
            sync: 20.0,
        }
    }
}

/// Per-thread operation counts, filled in by instrumented device code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// Floating-point operations.
    pub flops: u64,
    /// Global-memory reads (uncoalesced).
    pub global_reads: u64,
    /// Global-memory writes (uncoalesced).
    pub global_writes: u64,
    /// Coalesced global-memory accesses (reads or writes where the warp's
    /// lanes touch consecutive addresses).
    pub global_coalesced: u64,
    /// Shared-memory accesses.
    pub shared_accesses: u64,
    /// Constant-memory reads.
    pub constant_reads: u64,
    /// Branches / comparisons.
    pub branches: u64,
    /// Barrier synchronisations.
    pub syncs: u64,
}

impl ThreadCounters {
    /// Records `n` floating-point operations.
    #[inline]
    pub fn flop(&mut self, n: u64) {
        self.flops += n;
    }
    /// Records `n` global-memory reads.
    #[inline]
    pub fn global_read(&mut self, n: u64) {
        self.global_reads += n;
    }
    /// Records `n` global-memory writes.
    #[inline]
    pub fn global_write(&mut self, n: u64) {
        self.global_writes += n;
    }
    /// Records `n` coalesced global-memory accesses.
    #[inline]
    pub fn global_coalesced(&mut self, n: u64) {
        self.global_coalesced += n;
    }
    /// Records `n` shared-memory accesses.
    #[inline]
    pub fn shared_access(&mut self, n: u64) {
        self.shared_accesses += n;
    }
    /// Records `n` constant-memory reads.
    #[inline]
    pub fn constant_read(&mut self, n: u64) {
        self.constant_reads += n;
    }
    /// Records `n` branches/comparisons.
    #[inline]
    pub fn branch(&mut self, n: u64) {
        self.branches += n;
    }
    /// Records a barrier synchronisation.
    #[inline]
    pub fn sync(&mut self) {
        self.syncs += 1;
    }

    /// Merges another counter set into this one.
    pub fn absorb(&mut self, other: &ThreadCounters) {
        self.flops += other.flops;
        self.global_reads += other.global_reads;
        self.global_writes += other.global_writes;
        self.global_coalesced += other.global_coalesced;
        self.shared_accesses += other.shared_accesses;
        self.constant_reads += other.constant_reads;
        self.branches += other.branches;
        self.syncs += other.syncs;
    }

    /// Converts the counts to cycles under `model`.
    pub fn cycles(&self, model: &CostModel) -> f64 {
        self.flops as f64 * model.flop
            + (self.global_reads + self.global_writes) as f64 * model.global_access
            + self.global_coalesced as f64 * model.global_access_coalesced
            + self.shared_accesses as f64 * model.shared_access
            + self.constant_reads as f64 * model.constant_access
            + self.branches as f64 * model.branch
            + self.syncs as f64 * model.sync
    }
}

/// Cost summary for one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchReport {
    /// Threads launched.
    pub threads: usize,
    /// Threads per block used.
    pub threads_per_block: usize,
    /// Aggregate operation counts over all threads.
    pub totals: ThreadCounters,
    /// Simulated device cycles for the launch (warp-lockstep, SM-scheduled).
    pub simulated_cycles: f64,
    /// Simulated seconds (`cycles / clock`).
    pub simulated_seconds: f64,
    /// Host wall-clock seconds the simulation itself took (for harness
    /// bookkeeping; not a device-time estimate).
    pub host_seconds: f64,
}

impl std::fmt::Display for ThreadCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flops={} global_r={} global_w={} coalesced={} shared={} constant={} branches={} syncs={}",
            self.flops,
            self.global_reads,
            self.global_writes,
            self.global_coalesced,
            self.shared_accesses,
            self.constant_reads,
            self.branches,
            self.syncs
        )
    }
}

impl std::fmt::Display for LaunchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "launch: {} threads × {} per block",
            self.threads, self.threads_per_block
        )?;
        writeln!(f, "  ops     : {}", self.totals)?;
        writeln!(
            f,
            "  device  : {:.3e} cycles = {:.6} s simulated",
            self.simulated_cycles, self.simulated_seconds
        )?;
        write!(f, "  host    : {:.3} s to simulate", self.host_seconds)
    }
}

/// Aggregates per-thread cycle counts into device cycles:
///
/// 1. threads are grouped into blocks of `threads_per_block` consecutive
///    ids, and each block's threads into warps of `warp_size` consecutive
///    ids (a block whose size is not a multiple of the warp size ends in a
///    partial warp; no warp takes threads of two blocks); a warp executes
///    in lockstep, so its cost is the *maximum* over its threads (divergent
///    threads make the whole warp wait — the SIMT penalty), and a block's
///    cost is the sum of its warps';
/// 2. blocks are distributed round-robin over the SMs; each SM issues one
///    warp's lanes over `warp_size / cores_per_sm` passes (8 cores per SM on
///    Tesla ⇒ 4 passes per 32-wide warp);
/// 3. device time is the busiest SM.
pub fn aggregate_cycles(
    per_thread_cycles: &[f64],
    threads_per_block: usize,
    spec: &DeviceSpec,
) -> f64 {
    if per_thread_cycles.is_empty() {
        return 0.0;
    }
    let warp = spec.warp_size.max(1);
    let lane_passes = (warp as f64 / spec.cores_per_sm as f64).max(1.0);

    // Round-robin blocks over SMs; device time = busiest SM, degraded by
    // the occupancy efficiency of the chosen block size (few resident
    // warps → exposed memory latency; the paper's 512-thread tuning).
    let num_sms = spec.num_sms.max(1);
    let mut sm_loads = vec![0.0_f64; num_sms];
    for (b, block) in per_thread_cycles
        .chunks(threads_per_block.max(1))
        .enumerate()
    {
        // Warp cost = max over member threads; block cost = sum of warps.
        sm_loads[b % num_sms] += block
            .chunks(warp)
            .map(|c| c.iter().copied().fold(0.0_f64, f64::max) * lane_passes)
            .sum::<f64>();
    }
    let busiest = sm_loads.into_iter().fold(0.0_f64, f64::max);
    busiest / spec.occupancy_efficiency(threads_per_block)
}

/// The fastest entry of a `(threads_per_block, simulated_time)` tuning
/// table: minimal time, ties resolved to the **larger** block size (the
/// paper's §IV-B preference for "the maximum possible on the GPU being
/// used").
///
/// # Errors
/// [`SimError::InvalidLaunch`] when the table is empty — callers sweeping a
/// configurable block-size list must not assume it is populated.
pub fn fastest_timing(times: &[(usize, f64)]) -> Result<(usize, f64)> {
    times
        .iter()
        .copied()
        .min_by(|a, b| a.1.total_cmp(&b.1).then(b.0.cmp(&a.0)))
        .ok_or_else(|| SimError::InvalidLaunch("empty block-size timing table".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_convert_to_cycles() {
        let model = CostModel::default();
        let mut c = ThreadCounters::default();
        c.flop(10);
        c.global_read(2);
        c.global_write(1);
        c.global_coalesced(4);
        c.shared_access(5);
        c.constant_read(3);
        c.branch(4);
        c.sync();
        let expected = 10.0 + 3.0 * 200.0 + 4.0 * 25.0 + 5.0 * 2.0 + 3.0 + 4.0 + 20.0;
        assert!((c.cycles(&model) - expected).abs() < 1e-12);
    }

    #[test]
    fn coalesced_access_is_much_cheaper() {
        let model = CostModel::default();
        let mut strided = ThreadCounters::default();
        strided.global_read(100);
        let mut coalesced = ThreadCounters::default();
        coalesced.global_coalesced(100);
        assert!(strided.cycles(&model) >= 4.0 * coalesced.cycles(&model));
    }

    #[test]
    fn absorb_sums_counts() {
        let mut a = ThreadCounters {
            flops: 1,
            ..Default::default()
        };
        let b = ThreadCounters {
            flops: 2,
            global_reads: 5,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.flops, 3);
        assert_eq!(a.global_reads, 5);
    }

    #[test]
    fn warp_lockstep_takes_the_max() {
        // One slow thread in a warp dominates the whole warp.
        let spec = DeviceSpec::tesla_s10();
        let mut cycles = vec![1.0; 32];
        let uniform = aggregate_cycles(&cycles, 32, &spec);
        cycles[7] = 100.0;
        let divergent = aggregate_cycles(&cycles, 32, &spec);
        assert!((divergent / uniform - 100.0).abs() < 1e-9);
    }

    #[test]
    fn warps_never_straddle_blocks() {
        // Blocks of 48 threads on one SM, so the device time is the sum of
        // every warp's cost. Each block is one full warp and one of 16
        // threads: 96 threads make four warps, not the three a grid-wide
        // chunking into 32s would make.
        let spec = DeviceSpec {
            num_sms: 1,
            ..DeviceSpec::tesla_s10()
        };
        let (passes, efficiency) = (4.0, spec.occupancy_efficiency(48));
        let uniform = vec![1.0; 96];
        let t = aggregate_cycles(&uniform, 48, &spec) * efficiency;
        assert!((t - 4.0 * passes).abs() < 1e-9, "got {t}");
        // A slow thread of block 1 (id 48) slows block 1's first warp
        // only; block 0's warps {0..32} and {32..48} stay at 1 each.
        let mut slow = uniform.clone();
        slow[48] = 100.0;
        let t = aggregate_cycles(&slow, 48, &spec) * efficiency;
        assert!(
            (t - (1.0 + 1.0 + 100.0 + 1.0) * passes).abs() < 1e-9,
            "got {t}"
        );
        // At a multiple of the warp size the grouping is the grid-wide one.
        let t = aggregate_cycles(&slow, 32, &spec) * spec.occupancy_efficiency(32);
        assert!((t - (1.0 + 100.0 + 1.0) * passes).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn more_sms_reduce_device_time() {
        // 60 blocks of one warp each, uniform cost.
        let cycles = vec![1.0; 60 * 32];
        let tesla = aggregate_cycles(&cycles, 32, &DeviceSpec::tesla_s10());
        let more_sms = DeviceSpec {
            num_sms: 60,
            ..DeviceSpec::tesla_s10()
        };
        let wider = aggregate_cycles(&cycles, 32, &more_sms);
        assert!(wider < tesla, "60 SMs {wider} vs 30 SMs {tesla}");
    }

    #[test]
    fn lane_passes_model_quarter_warp_issue() {
        // Tesla: 8 cores/SM → a 32-wide warp needs 4 passes (raw 40 cycles);
        // a 32-thread block reaches only 8 resident warps of the 24 needed
        // to hide latency, so the occupancy model triples the time.
        let spec = DeviceSpec::tesla_s10();
        let cycles = vec![10.0; 32];
        let t = aggregate_cycles(&cycles, 32, &spec);
        assert!((t - 120.0).abs() < 1e-9, "got {t}");
        // At the paper's 512-thread blocks, occupancy is full: raw cost.
        let cycles512 = vec![10.0; 512];
        let t512 = aggregate_cycles(&cycles512, 512, &spec);
        assert!((t512 - 16.0 * 40.0).abs() < 1e-9, "got {t512}");
    }

    #[test]
    fn paper_block_size_tuning_512_is_fastest() {
        // §IV-B: "The fastest performance was found with threads per block
        // set to 512, the maximum possible on the GPU being used." At the
        // paper's scale (one thread per observation, n in the tens of
        // thousands) every SM is saturated with blocks, so the occupancy
        // effect — small blocks leave too few resident warps to hide
        // memory latency — is what differentiates block sizes.
        let spec = DeviceSpec::tesla_s10();
        let cycles = vec![100.0; 30 * 1024];
        let times: Vec<(usize, f64)> = [32usize, 64, 128, 256, 512]
            .iter()
            .map(|&tpb| (tpb, aggregate_cycles(&cycles, tpb, &spec)))
            .collect();
        let (best_tpb, t512) = fastest_timing(&times).expect("non-empty sweep");
        assert_eq!(best_tpb, 512, "fastest block size should be 512: {times:?}");
        for &(tpb, t) in &times {
            assert!(
                t512 <= t + 1e-9,
                "512 should be no slower than {tpb}: {times:?}"
            );
        }
        let t64 = times[1].1;
        assert!(t512 < t64, "512 should strictly beat 64: {times:?}");
        // And the ranking is monotone in block size here.
        for w in times.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "times: {times:?}");
        }
    }

    #[test]
    fn empty_launch_costs_nothing() {
        assert_eq!(aggregate_cycles(&[], 32, &DeviceSpec::tesla_s10()), 0.0);
    }

    #[test]
    fn fastest_timing_rejects_an_empty_table_and_breaks_ties_upward() {
        assert!(matches!(
            fastest_timing(&[]),
            Err(SimError::InvalidLaunch(_))
        ));
        // Exact tie between 128 and 512: the paper's "maximum possible"
        // preference picks the larger block size.
        let tied = [(64usize, 3.0), (128, 1.0), (512, 1.0)];
        assert_eq!(fastest_timing(&tied).unwrap(), (512, 1.0));
    }

    #[test]
    fn reports_render_for_humans() {
        let mut totals = ThreadCounters::default();
        totals.flop(5);
        totals.global_coalesced(3);
        let report = LaunchReport {
            threads: 64,
            threads_per_block: 32,
            totals,
            simulated_cycles: 1234.5,
            simulated_seconds: 9.5e-7,
            host_seconds: 0.01,
        };
        let text = report.to_string();
        assert!(text.contains("64 threads"));
        assert!(text.contains("flops=5"));
        assert!(text.contains("coalesced=3"));
        assert!(text.contains("simulated"));
    }

    #[test]
    fn blocks_balance_across_sms() {
        let spec = DeviceSpec::tesla_s10(); // 30 SMs
                                            // 30 blocks of one warp → one block per SM → device time = 1 block.
        let one_per_sm = vec![1.0; 30 * 32];
        let t1 = aggregate_cycles(&one_per_sm, 32, &spec);
        // 31 blocks → one SM gets two.
        let uneven = vec![1.0; 31 * 32];
        let t2 = aggregate_cycles(&uneven, 32, &spec);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}

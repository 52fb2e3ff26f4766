//! Device specifications.

/// Static properties of a simulated GPU.
///
/// The default preset, [`DeviceSpec::tesla_s10`], mirrors the paper's
/// testbed: a Tesla S10-class part with 240 streaming cores, 4 GB of device
/// memory, an 8 KB constant-cache working set, and a 512-thread block limit.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Global (device) memory capacity in bytes.
    pub global_mem_bytes: usize,
    /// Constant-memory *cache working set* in bytes (the paper's 8 KB limit
    /// that caps the bandwidth grid at 2 048 f32 values).
    pub constant_cache_bytes: usize,
    /// Maximum threads per block.
    pub max_threads_per_block: usize,
    /// Streaming-processor cores per multiprocessor.
    pub cores_per_sm: usize,
    /// Number of multiprocessors.
    pub num_sms: usize,
    /// SIMT warp width.
    pub warp_size: usize,
    /// Maximum threads resident on one SM at a time (occupancy limit).
    pub max_resident_threads_per_sm: usize,
    /// Maximum blocks resident on one SM at a time (occupancy limit).
    pub max_resident_blocks_per_sm: usize,
    /// Warps an SM needs resident to fully hide memory latency; with fewer,
    /// throughput degrades proportionally (0 disables the occupancy model).
    /// This is what makes small blocks slow — and why the paper found 512
    /// threads per block fastest.
    pub latency_hiding_warps: usize,
    /// Core clock in Hz (used to convert simulated cycles to seconds).
    pub clock_hz: f64,
    /// Host↔device transfer bandwidth in bytes/second (PCIe-era figure).
    pub transfer_bytes_per_sec: f64,
}

impl DeviceSpec {
    /// The paper's GPU: Tesla S10-class, 240 cores (30 SMs × 8 SPs), 4 GB,
    /// 8 KB constant cache, 512 threads/block, ~1.3 GHz shader clock,
    /// PCIe-2 x16 (~6 GB/s effective).
    pub fn tesla_s10() -> Self {
        Self {
            name: "Tesla S10 (simulated)",
            global_mem_bytes: 4 * 1024 * 1024 * 1024,
            constant_cache_bytes: 8 * 1024,
            max_threads_per_block: 512,
            cores_per_sm: 8,
            num_sms: 30,
            warp_size: 32,
            max_resident_threads_per_sm: 1024,
            max_resident_blocks_per_sm: 8,
            latency_hiding_warps: 24,
            clock_hz: 1.3e9,
            transfer_bytes_per_sec: 6.0e9,
        }
    }

    /// Total streaming cores (`cores_per_sm × num_sms`).
    pub fn total_cores(&self) -> usize {
        self.cores_per_sm * self.num_sms
    }

    /// Maximum number of f32 elements that fit in the constant-cache
    /// working set — the paper's 2 048-bandwidth ceiling.
    pub fn max_constant_f32(&self) -> usize {
        self.constant_cache_bytes / std::mem::size_of::<f32>()
    }

    /// Occupancy efficiency in `(0, 1]` for a given block size: how much of
    /// full throughput the SM reaches once residency limits cap the number
    /// of warps available to hide memory latency.
    pub fn occupancy_efficiency(&self, threads_per_block: usize) -> f64 {
        if self.latency_hiding_warps == 0 {
            return 1.0;
        }
        let tpb = threads_per_block.max(1);
        let resident_blocks = (self.max_resident_threads_per_sm / tpb)
            .min(self.max_resident_blocks_per_sm)
            .max(1);
        let warps_per_block = tpb.div_ceil(self.warp_size);
        let resident_warps = resident_blocks * warps_per_block;
        (resident_warps as f64 / self.latency_hiding_warps as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tesla_matches_paper_figures() {
        let d = DeviceSpec::tesla_s10();
        assert_eq!(d.total_cores(), 240);
        assert_eq!(d.global_mem_bytes, 4 << 30);
        assert_eq!(d.max_constant_f32(), 2048);
        assert_eq!(d.max_threads_per_block, 512);
        assert_eq!(d.warp_size, 32);
    }

    #[test]
    fn occupancy_full_at_512_on_tesla() {
        let d = DeviceSpec::tesla_s10();
        assert_eq!(d.occupancy_efficiency(512), 1.0);
        // 2 resident 256-thread blocks… no: 1024/256 = 4, capped at 8 → 4
        // blocks × 8 warps = 32 warps → still full.
        assert_eq!(d.occupancy_efficiency(256), 1.0);
        // 64-thread blocks: 8 resident × 2 warps = 16 < 24 → degraded.
        let e64 = d.occupancy_efficiency(64);
        assert!((e64 - 16.0 / 24.0).abs() < 1e-12);
        // 32-thread blocks: 8 × 1 = 8 warps.
        let e32 = d.occupancy_efficiency(32);
        assert!((e32 - 8.0 / 24.0).abs() < 1e-12);
        assert!(e32 < e64);
    }

    #[test]
    fn occupancy_disabled_when_hiding_warps_zero() {
        let mut d = DeviceSpec::tesla_s10();
        d.latency_hiding_warps = 0;
        assert_eq!(d.occupancy_efficiency(1), 1.0);
        assert_eq!(d.occupancy_efficiency(512), 1.0);
    }
}

//! Configuration of the GPU pipeline.

use kcv_gpu_sim::{CostModel, DeviceSpec};

/// Configuration for the GPU bandwidth-selection program.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// The simulated device (default: the paper's Tesla S10).
    pub spec: DeviceSpec,
    /// The cycle cost model.
    pub cost: CostModel,
    /// Threads per block for the main kernel. The paper reports the fastest
    /// performance at 512, the device maximum.
    pub threads_per_block: usize,
    /// Ablation switch: store the squared residuals observation-major
    /// (i.e. *without* the paper's §IV-B index switch), making the residual
    /// stores and reduction loads strided instead of coalesced. Results are
    /// identical; only the simulated memory cost changes.
    pub obs_major_residuals: bool,
}

impl Default for GpuConfig {
    fn default() -> Self {
        let spec = DeviceSpec::tesla_s10();
        Self {
            threads_per_block: spec.max_threads_per_block,
            cost: CostModel::default(),
            obs_major_residuals: false,
            spec,
        }
    }
}

impl GpuConfig {
    /// Overrides the main-kernel block size.
    pub fn with_threads_per_block(mut self, t: usize) -> Self {
        self.threads_per_block = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = GpuConfig::default();
        assert_eq!(c.threads_per_block, 512);
        assert_eq!(c.spec.total_cores(), 240);
    }

    #[test]
    fn builders_apply() {
        let c = GpuConfig::default().with_threads_per_block(128);
        assert_eq!(c.threads_per_block, 128);
        let bigger = GpuConfig {
            spec: DeviceSpec {
                global_mem_bytes: 24 << 30,
                ..DeviceSpec::tesla_s10()
            },
            ..c
        };
        assert_eq!(bigger.threads_per_block, 128);
        assert!(bigger.spec.global_mem_bytes > GpuConfig::default().spec.global_mem_bytes);
    }
}

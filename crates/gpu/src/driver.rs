//! The driver every simulated-GPU program runs through.
//!
//! The paper's program (§IV) allocates device memory, runs one thread per
//! observation, reduces the squared residuals per bandwidth and then takes
//! the minimum, all on one device. [`run_program`] is that sequence. It
//! validates the input and creates the device's [`MemoryPool`]. A program
//! ([`DeviceProgram`]) prepares its host data, allocates, uploads and
//! launches its main kernel. The driver then runs one summation reduction
//! per bandwidth on the device, reads the `k` sums back, runs the
//! min-with-payload reduction and does all byte and simulated-time
//! accounting.

use crate::config::GpuConfig;
use crate::error::{GpuError, Result};
use crate::gpu_kernel_type::GpuKernel;
use kcv_core::error::validate_sample;
use kcv_core::grid::BandwidthGrid;
use kcv_gpu_sim::{
    min_payload_reduction, sum_reduction, sum_reduction_strided, ConstantMemory, DeviceBuffer,
    LaunchReport, MemoryPool, SimError, ThreadCounters,
};
use std::time::Instant;

/// Cost and traffic accounting for one run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Sample size.
    pub n: usize,
    /// Grid size.
    pub k: usize,
    /// Device-kernel polynomial degree.
    pub deg: usize,
    /// Peak device memory allocated (bytes).
    pub device_bytes_peak: usize,
    /// Host→device bytes transferred.
    pub h2d_bytes: u64,
    /// Device→host bytes transferred.
    pub d2h_bytes: u64,
    /// Simulated transfer time (bytes / device transfer bandwidth).
    pub transfer_seconds: f64,
    /// Main kernel launch report.
    pub main_kernel: LaunchReport,
    /// Aggregate operation counts over the `k` summation reductions and the
    /// final minimum reduction.
    pub reduction_totals: ThreadCounters,
    /// Simulated seconds spent in the reductions.
    pub reduction_seconds: f64,
    /// Total simulated device seconds (kernels + reductions + transfers).
    pub total_simulated_seconds: f64,
    /// Wall-clock seconds the simulation took on the host.
    pub host_seconds: f64,
}

/// Result of a GPU bandwidth selection.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// The selected (CV-minimal) bandwidth.
    pub bandwidth: f64,
    /// The cross-validation score at the optimum.
    pub score: f64,
    /// The f32 grid the device searched.
    pub bandwidths: Vec<f32>,
    /// The f32 CV score per grid bandwidth (`Σ residual² / n`).
    pub scores: Vec<f32>,
    /// Cost accounting.
    pub report: PipelineReport,
}

/// Where a program's main kernel left the values that each bandwidth's
/// summation reduction adds up.
pub(crate) struct Residuals<'a> {
    /// `k` groups of values, one per bandwidth.
    pub values: &'a [f32],
    /// `true`: `k` contiguous rows, one per bandwidth (the §IV-B index
    /// switch, so the reduction reads coalesce). `false`: one row of `k`
    /// per observation, bandwidth `m` at stride `k`, so its reduction reads
    /// scatter (the index-switch ablation).
    pub bandwidth_major: bool,
}

/// What a [`DeviceProgram`] knows about its device and its launch.
pub(crate) struct Device<'a> {
    /// The device and launch configuration.
    pub config: &'a GpuConfig,
    /// The device kernel.
    pub kernel: &'a GpuKernel,
    /// Main-kernel block size, clamped to the device maximum.
    pub tpb: usize,
    /// Grid size.
    pub k: usize,
}

/// One program's device work: everything between creating the device's
/// memory pool and its per-bandwidth reductions.
pub(crate) trait DeviceProgram: Sized {
    /// Prepares the host data for `(x, y)`, allocates the program's
    /// buffers on `pool` and uploads its inputs.
    fn allocate(x: &[f64], y: &[f64], pool: &MemoryPool, device: &Device<'_>) -> Result<Self>;

    /// Runs the main kernel over every observation against the
    /// constant-memory `bandwidths`.
    fn launch(
        &mut self,
        device: &Device<'_>,
        bandwidths: &[f32],
    ) -> Result<(LaunchReport, Residuals<'_>)>;
}

/// Allocates a device buffer on `pool` and copies `host` into it.
pub(crate) fn upload<T: Copy + Default>(pool: &MemoryPool, host: &[T]) -> Result<DeviceBuffer<T>> {
    let mut buffer = pool.alloc(host.len())?;
    buffer.copy_from_host(host)?;
    Ok(buffer)
}

/// Rejects values the f32 device cannot hold: every `x`, `y` and bandwidth
/// must narrow to a finite f32, and every bandwidth to a non-zero one.
fn check_f32(x: &[f64], y: &[f64], bandwidths: &[f64]) -> Result<()> {
    for (array, values) in [("x", x), ("y", y), ("bandwidths", bandwidths)] {
        let bad = |v: f64| {
            let narrow = v as f32;
            !narrow.is_finite() || (array == "bandwidths" && narrow == 0.0)
        };
        if let Some(index) = values.iter().position(|&v| bad(v)) {
            return Err(GpuError::NotF32 {
                array,
                index,
                value: values[index],
            });
        }
    }
    Ok(())
}

/// Selects the CV-optimal bandwidth for `(x, y)` over `grid` with program
/// `P` on the simulated device.
pub(crate) fn run_program<P: DeviceProgram>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
    kernel: &GpuKernel,
) -> Result<GpuRun> {
    kernel.validate()?;
    let n = validate_sample(x, y, 2)?;
    let k = grid.len();
    let max_k = config.spec.max_constant_f32();
    if k > max_k {
        return Err(GpuError::TooManyBandwidths {
            requested: k,
            max: max_k,
        });
    }
    check_f32(x, y, grid.values())?;
    let wall_start = Instant::now();
    let spec = &config.spec;
    let tpb = config.threads_per_block.min(spec.max_threads_per_block);
    // Rejected before `allocate`: the windowed program sizes its block
    // partials by ⌈n/tpb⌉. The error is the main launch's own.
    if tpb == 0 {
        return Err(SimError::InvalidLaunch("block has zero threads".into()).into());
    }
    // The summation and minimum reductions each run one block of the
    // device's maximum size.
    let max_block = spec.max_threads_per_block;
    let h32: Vec<f32> = grid.values().iter().map(|&v| v as f32).collect();
    let device = Device {
        config,
        kernel,
        tpb,
        k,
    };

    let pool = MemoryPool::for_device(spec);
    let mut reduction_totals = ThreadCounters::default();
    let mut cycles = 0.0;
    // The program's device and host buffers are freed at the end of this
    // block, before the minimum.
    let (main_kernel, mut scores) = {
        let mut program = P::allocate(x, y, &pool, &device)?;
        let mut sums_dev = pool.alloc::<f32>(k)?;
        let bandwidths = ConstantMemory::new(spec, &h32)?;
        let (main, residuals) = program.launch(&device, bandwidths.as_slice())?;

        // k summation reductions, one per bandwidth.
        for (m, slot) in sums_dev.as_mut_slice().iter_mut().enumerate() {
            let values = residuals.values;
            let (sum, report) = if residuals.bandwidth_major {
                let len = values.len() / k;
                let row = &values[m * len..(m + 1) * len];
                sum_reduction(spec, &config.cost, max_block, row)?
            } else {
                // The strided reduction charges the scattered loads; the
                // gather only adapts the access pattern for the simulator.
                let column: Vec<f32> = values.iter().skip(m).step_by(k).copied().collect();
                sum_reduction_strided(spec, &config.cost, max_block, &column)?
            };
            *slot = sum;
            reduction_totals.absorb(&report.totals);
            cycles += report.simulated_cycles;
        }
        // The k sums travel device→host for the minimum: a charged copy.
        let mut sums = vec![0.0f32; k];
        sums_dev.copy_to_host(&mut sums)?;
        (main, sums)
    };

    // The CV score per bandwidth: its sum over n.
    for s in &mut scores {
        *s /= n as f32;
    }
    let ((min_score, best_h), min_report) =
        min_payload_reduction(spec, &config.cost, max_block, &scores, &h32)?;
    reduction_totals.absorb(&min_report.totals);
    let (h2d_bytes, d2h_bytes) = (pool.h2d_bytes(), pool.d2h_bytes());
    let transfer_seconds = (h2d_bytes + d2h_bytes) as f64 / spec.transfer_bytes_per_sec;
    let reduction_seconds = (cycles + min_report.simulated_cycles) / spec.clock_hz;
    let total_simulated_seconds =
        main_kernel.simulated_seconds + reduction_seconds + transfer_seconds;
    let report = PipelineReport {
        n,
        k,
        deg: kernel.degree(),
        device_bytes_peak: pool.peak(),
        h2d_bytes,
        d2h_bytes,
        transfer_seconds,
        main_kernel,
        reduction_totals,
        reduction_seconds,
        total_simulated_seconds,
        host_seconds: wall_start.elapsed().as_secs_f64(),
    };
    Ok(GpuRun {
        bandwidth: best_h as f64,
        score: min_score as f64,
        bandwidths: h32,
        scores,
        report,
    })
}

//! The shard driver every simulated-GPU program runs through.
//!
//! The paper's program (§IV) allocates device memory, runs one thread per
//! observation, reduces the squared residuals per bandwidth and then takes
//! the minimum; its testbed had two Tesla S10s (§IV-C). [`run_shards`] is
//! that sequence on `D ≥ 1` identical devices. It validates the input,
//! splits the observations into `D` contiguous shards and gives each device
//! its own [`MemoryPool`]. A program ([`ShardBody`]) allocates, uploads and
//! launches its main kernel on a shard. The driver then runs one summation
//! reduction per bandwidth on the device, reads the `k` sums back, combines
//! them on the host, runs the single min-with-payload reduction and does
//! all byte and simulated-time accounting. One device is the single-GPU
//! program.

use crate::config::GpuConfig;
use crate::error::{GpuError, Result};
use crate::gpu_kernel_type::GpuKernel;
use kcv_core::error::validate_sample;
use kcv_core::grid::BandwidthGrid;
use kcv_gpu_sim::{
    min_payload_reduction, sum_reduction, sum_reduction_strided, ConstantMemory, DeviceBuffer,
    LaunchReport, MemoryPool, SimError, ThreadCounters,
};
use std::ops::Range;
use std::time::Instant;

/// Cost and traffic accounting for one run. With several devices, byte and
/// operation counts are summed over devices, the peak is the largest
/// device peak, and the launch report and the times are those of the device
/// that finishes last.
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

/// Where a shard's main kernel left the values that each bandwidth's
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

/// What a [`ShardBody`] knows about its device and its slice of the work.
pub(crate) struct Shard<'a> {
    /// The device and launch configuration.
    pub config: &'a GpuConfig,
    /// The device kernel.
    pub kernel: &'a GpuKernel,
    /// Main-kernel block size, clamped to the device maximum.
    pub tpb: usize,
    /// The observations (or sorted positions) this device answers.
    pub rows: Range<usize>,
    /// Grid size.
    pub k: usize,
}

/// One program's device work on one shard: everything between creating
/// the device's memory pool and its per-bandwidth reductions.
pub(crate) trait ShardBody: Sized {
    /// The device buffers a shard keeps allocated until the driver has read
    /// back its sums.
    type Resident;

    /// Host-side preparation for a kernel of degree `deg`, once per
    /// selection, after input validation.
    fn prepare(x: &[f64], y: &[f64], deg: usize) -> Self;

    /// Allocates the shard's buffers on `pool` and uploads its inputs.
    fn allocate(&self, pool: &MemoryPool, shard: &Shard<'_>) -> Result<Self::Resident>;

    /// Runs the main kernel over the shard against the constant-memory
    /// `bandwidths`.
    fn launch<'r>(
        &self,
        resident: &'r mut Self::Resident,
        shard: &Shard<'_>,
        bandwidths: &[f32],
    ) -> Result<(LaunchReport, Residuals<'r>)>;
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
/// `B`, its observations sharded over `devices` identical simulated GPUs
/// (clamped to `1..=n`). Returns the run and the device count used.
pub(crate) fn run_shards<B: ShardBody>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
    kernel: &GpuKernel,
    devices: usize,
) -> Result<(GpuRun, usize)> {
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
    let devices = devices.clamp(1, n);
    let tpb = config
        .threads_per_block
        .min(config.spec.max_threads_per_block);
    // Rejected before `prepare`: the windowed program sizes its block
    // partials by ⌈rows/tpb⌉. The error is the main launch's own.
    if tpb == 0 {
        return Err(SimError::InvalidLaunch("block has zero threads".into()).into());
    }
    // Clamp once so the summation and minimum reductions cannot diverge.
    let reduction_threads = config
        .reduction_threads
        .min(config.spec.max_threads_per_block);
    let body = B::prepare(x, y, kernel.degree());
    let h32: Vec<f32> = grid.values().iter().map(|&v| v as f32).collect();

    // Device d answers [start(d), start(d + 1)); the first n mod D shards
    // take one extra observation.
    let start = |d: usize| d * (n / devices) + d.min(n % devices);
    let (clock, rate) = (config.spec.clock_hz, config.spec.transfer_bytes_per_sec);
    // Per-bandwidth squared-residual sums, combined across devices. Sized
    // after the first launch, so it is not part of the launch's heap peak.
    let mut totals = Vec::new();
    let mut reduction_totals = ThreadCounters::default();
    let (mut peak, mut h2d_bytes, mut d2h_bytes) = (0usize, 0u64, 0u64);
    // The device that finishes last: its seconds, main launch, reduction
    // cycles and transfer seconds.
    let mut busiest: Option<(f64, LaunchReport, f64, f64)> = None;
    for d in 0..devices {
        let shard = Shard {
            config,
            kernel,
            tpb,
            rows: start(d)..start(d + 1),
            k,
        };
        let pool = MemoryPool::for_device(&config.spec);
        let mut resident = body.allocate(&pool, &shard)?;
        let mut sums_dev = pool.alloc::<f32>(k)?;
        let bandwidths = ConstantMemory::new(&config.spec, &h32)?;
        let (main, residuals) = body.launch(&mut resident, &shard, bandwidths.as_slice())?;
        totals.resize(k, 0.0f32);

        // k summation reductions, one per bandwidth.
        let mut reduction_cycles = 0.0;
        for (m, slot) in sums_dev.as_mut_slice().iter_mut().enumerate() {
            let values = residuals.values;
            let (sum, report) = if residuals.bandwidth_major {
                let len = values.len() / k;
                let row = &values[m * len..(m + 1) * len];
                sum_reduction(&config.spec, &config.cost, reduction_threads, row)?
            } else {
                // The strided reduction charges the scattered loads; the
                // gather only adapts the access pattern for the simulator.
                let column: Vec<f32> = values.iter().skip(m).step_by(k).copied().collect();
                sum_reduction_strided(&config.spec, &config.cost, reduction_threads, &column)?
            };
            *slot = sum;
            reduction_totals.absorb(&report.totals);
            reduction_cycles += report.simulated_cycles;
        }
        // The k sums travel device→host for the combine: a charged copy.
        let mut sums_host = vec![0.0f32; k];
        sums_dev.copy_to_host(&mut sums_host)?;
        for (total, &s) in totals.iter_mut().zip(&sums_host) {
            *total += s;
        }

        peak = peak.max(pool.peak());
        h2d_bytes += pool.h2d_bytes();
        d2h_bytes += pool.d2h_bytes();
        let transfer = (pool.h2d_bytes() + pool.d2h_bytes()) as f64 / rate;
        let finish = main.simulated_seconds + reduction_cycles / clock + transfer;
        if busiest.as_ref().is_none_or(|b| finish > b.0) {
            busiest = Some((finish, main, reduction_cycles, transfer));
        }
    }

    let scores: Vec<f32> = totals.iter().map(|&s| s / n as f32).collect();
    let ((min_score, best_h), min_report) =
        min_payload_reduction(&config.spec, &config.cost, reduction_threads, &scores, &h32)?;
    reduction_totals.absorb(&min_report.totals);
    // Devices run concurrently; the final minimum is charged to the last.
    let (_, main_kernel, cycles, transfer) = busiest.expect("at least one device");
    let reduction_seconds = (cycles + min_report.simulated_cycles) / clock;
    let total_simulated_seconds = main_kernel.simulated_seconds + reduction_seconds + transfer;
    let report = PipelineReport {
        n,
        k,
        deg: kernel.degree(),
        device_bytes_peak: peak,
        h2d_bytes,
        d2h_bytes,
        transfer_seconds: (h2d_bytes + d2h_bytes) as f64 / rate,
        main_kernel,
        reduction_totals,
        reduction_seconds,
        total_simulated_seconds,
        host_seconds: wall_start.elapsed().as_secs_f64(),
    };
    let (bandwidth, score) = (best_h as f64, min_score as f64);
    Ok((
        GpuRun {
            bandwidth,
            score,
            bandwidths: h32,
            scores,
            report,
        },
        devices,
    ))
}

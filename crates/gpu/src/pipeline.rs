//! The full GPU program, step for step as the paper's §IV describes it:
//! allocate, copy in, main kernel (fill → sort → sweep → residuals),
//! per-bandwidth summation reductions, minimum reduction, copy out. This
//! module is the allocation and main kernel; the driver does the rest.
//!
//! §IV-B's *index switch*: the squared residuals are produced "indexed as
//! k separate groups of n" (bandwidth-major) rather than the n-groups-of-k
//! order the sweep naturally emits, so that the per-bandwidth summation
//! reductions read consecutive addresses — coalesced on the device. The
//! pipeline models that layout by charging the residual writes and the
//! reduction reads at the coalesced rate; [`GpuConfig::obs_major_residuals`]
//! turns the optimisation *off* (everything charged at the scattered rate)
//! as a measurable ablation of the paper's design choice.

use crate::config::GpuConfig;
use crate::driver::{run_program, upload, Device, DeviceProgram, GpuRun, Residuals};
use crate::error::Result;
use crate::gpu_kernel_type::GpuKernel;
use crate::kernel::{main_kernel, MainWorkspace};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_gpu_sim::{launch_blocks, DeviceBuffer, LaunchConfig, LaunchReport, MemoryPool};

/// Runs the paper's GPU program on the simulated device: selects the
/// CV-optimal Epanechnikov bandwidth for `(x, y)` over `grid`.
pub fn select_bandwidth_gpu(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
) -> Result<GpuRun> {
    select_bandwidth_gpu_kernel(x, y, grid, config, &GpuKernel::from_core(&Epanechnikov))
}

/// [`select_bandwidth_gpu`] with an explicit device kernel — the paper's
/// "straightforward to add additional \[kernels\] in the future".
pub fn select_bandwidth_gpu_kernel(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
    kernel: &GpuKernel,
) -> Result<GpuRun> {
    run_program::<Classic>(x, y, grid, config, kernel)
}

/// The classic program: the §IV-A allocation and the fill → sort → sweep
/// main kernel, in single precision (the paper's programs generate and
/// process f32 data). Its device buffers are the full `x` and `y`, the two
/// `n×n` matrices and the `n×k` sum and residual matrices.
pub(crate) struct Classic {
    x: DeviceBuffer<f32>,
    y: DeviceBuffer<f32>,
    dist: DeviceBuffer<f32>,
    y_mat: DeviceBuffer<f32>,
    num: DeviceBuffer<f32>,
    den: DeviceBuffer<f32>,
    sqres: DeviceBuffer<f32>,
}

impl DeviceProgram for Classic {
    fn allocate(x: &[f64], y: &[f64], pool: &MemoryPool, device: &Device<'_>) -> Result<Self> {
        let narrow = |v: &[f64]| -> Vec<f32> { v.iter().map(|&v| v as f32).collect() };
        let (n, k) = (x.len(), device.k);
        Ok(Self {
            x: upload(pool, &narrow(x))?,
            y: upload(pool, &narrow(y))?,
            dist: pool.alloc(n * n)?,
            y_mat: pool.alloc(n * n)?,
            num: pool.alloc(n * k)?,
            den: pool.alloc(n * k)?,
            sqres: pool.alloc(n * k)?,
        })
    }

    fn launch(
        &mut self,
        device: &Device<'_>,
        bandwidths: &[f32],
    ) -> Result<(LaunchReport, Residuals<'_>)> {
        let (n, k) = (self.x.len(), device.k);
        let config = device.config;
        let coalesced_layout = !config.obs_major_residuals;
        // Main kernel: one thread per observation, over each thread's rows,
        // launched block by block with each block's group of rows as its
        // workspace. The squared residuals come back per thread and land in
        // the device matrix below in whatever physical layout the
        // configuration charges for.
        let (x, y, tpb) = (self.x.as_slice(), self.y.as_slice(), device.tpb);
        let mut rows_of_threads = self
            .dist
            .as_mut_slice()
            .chunks_mut(n)
            .zip(self.y_mat.as_mut_slice().chunks_mut(n))
            .zip(self.num.as_mut_slice().chunks_mut(k))
            .zip(self.den.as_mut_slice().chunks_mut(k))
            .map(|(((dist, yrow), num), den)| MainWorkspace {
                dist,
                yrow,
                num,
                den,
            });
        // A zero block size groups by one, for `launch_blocks` to reject.
        let group_len = tpb.max(1);
        let groups: Vec<Vec<MainWorkspace<'_>>> = (0..n.div_ceil(group_len))
            .map(|_| rows_of_threads.by_ref().take(group_len).collect())
            .collect();
        let (coeffs, radius) = (device.kernel.coeffs.as_slice(), device.kernel.radius);
        let (sqres_rows, report) = launch_blocks(
            &config.spec,
            &config.cost,
            LaunchConfig::new(n, tpb),
            groups,
            |tid, group, c| {
                main_kernel(
                    tid,
                    x,
                    y,
                    bandwidths,
                    coeffs,
                    radius,
                    coalesced_layout,
                    &mut group[tid % tpb],
                    c,
                )
            },
        )?;

        // Place each thread's residuals into the *pool-backed* residual
        // matrix in the physical layout whose stores the kernel charged:
        // bandwidth-major `[m·n + j]` under the §IV-B index switch (so the
        // per-bandwidth reductions read consecutive device addresses),
        // observation-major `[j·k + m]` in the ablation. No host-side shadow
        // copy: the reductions read this device memory directly.
        let sqres = self.sqres.as_mut_slice();
        for (j, row) in sqres_rows.iter().enumerate() {
            for (m, &v) in row.iter().enumerate() {
                if coalesced_layout {
                    sqres[m * n + j] = v;
                } else {
                    sqres[j * k + m] = v;
                }
            }
        }
        let values = self.sqres.as_slice();
        Ok((
            report,
            Residuals {
                values,
                bandwidth_major: coalesced_layout,
            },
        ))
    }
}

/// Device memory the pipeline needs for a given `(n, k)`, in bytes — useful
/// for predicting the paper's n ≈ 20 000 wall without running anything.
pub fn required_device_bytes(n: usize, k: usize) -> usize {
    let f = std::mem::size_of::<f32>();
    // x, y, two n×n, three n×k (num, den, sqres) + the k sums.
    (2 * n + 2 * n * n + 3 * n * k + k) * f
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_data(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * next())
            .collect();
        (x, y)
    }

    use crate::error::GpuError;

    #[test]
    fn gpu_profile_matches_f64_cpu_reference() {
        let (x, y) = paper_data(120, 1);
        let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
        let run = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let cpu = kcv_core::cv::cv_profile_sorted(&x, &y, &grid, &kcv_core::kernels::Epanechnikov)
            .unwrap();
        for m in 0..grid.len() {
            let gpu_s = run.scores[m] as f64;
            let cpu_s = cpu.scores[m];
            assert!(
                (gpu_s - cpu_s).abs() <= 1e-3 * cpu_s.abs().max(1e-6),
                "h={}: gpu {gpu_s} vs cpu {cpu_s}",
                grid.values()[m]
            );
        }
        // The selected bandwidth should agree (or sit one grid step away if
        // two near-equal minima flip under f32).
        let cpu_opt = cpu.argmin().unwrap().bandwidth;
        assert!(
            (run.bandwidth - cpu_opt).abs() <= grid.step() + 1e-9,
            "gpu {} vs cpu {cpu_opt}",
            run.bandwidth
        );
    }

    #[test]
    fn gpu_supports_every_polynomial_kernel() {
        use kcv_core::kernels::polynomial_kernels;
        let (x, y) = paper_data(90, 6);
        let grid = BandwidthGrid::paper_default(&x, 15).unwrap();
        for core_kernel in polynomial_kernels() {
            let device_kernel = GpuKernel::from_core(&*core_kernel);
            let run =
                select_bandwidth_gpu_kernel(&x, &y, &grid, &GpuConfig::default(), &device_kernel)
                    .unwrap();
            let cpu = kcv_core::cv::cv_profile_sorted(&x, &y, &grid, &*core_kernel).unwrap();
            for m in 0..grid.len() {
                let gpu_s = run.scores[m] as f64;
                let cpu_s = cpu.scores[m];
                assert!(
                    (gpu_s - cpu_s).abs() <= 2e-3 * cpu_s.abs().max(1e-6),
                    "{} h={}: gpu {gpu_s} vs cpu {cpu_s}",
                    core_kernel.name(),
                    grid.values()[m]
                );
            }
        }
    }

    #[test]
    fn invalid_device_kernels_rejected() {
        let (x, y) = paper_data(10, 7);
        let grid = BandwidthGrid::paper_default(&x, 5).unwrap();
        let bad = GpuKernel {
            name: "deg9",
            coeffs: vec![0.1; 10],
            radius: 1.0,
        };
        assert!(select_bandwidth_gpu_kernel(&x, &y, &grid, &GpuConfig::default(), &bad).is_err());
    }

    #[test]
    fn constant_memory_limit_enforced_before_allocation() {
        let (x, y) = paper_data(10, 2);
        let grid = BandwidthGrid::linear(0.001, 1.0, 2049).unwrap();
        let err = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap_err();
        assert_eq!(
            err,
            GpuError::TooManyBandwidths {
                requested: 2049,
                max: 2048
            }
        );
    }

    #[test]
    fn memory_wall_reproduces_papers_n_limit() {
        // The paper's program runs at n = 20 000 and fails beyond. With the
        // full allocation set (incl. the n×k matrices at k = 50) the
        // predicted requirement crosses 4 GB past 20 000.
        let four_gb = 4usize << 30;
        assert!(required_device_bytes(20_000, 50) < four_gb);
        assert!(required_device_bytes(25_000, 50) > four_gb);
        // And the pipeline actually refuses: use a *scaled-down* device so
        // the test does not allocate gigabytes of host RAM (1 MB device,
        // n = 400 needs 2·400²·4 B = 1.28 MB > 1 MB).
        let mut config = GpuConfig::default();
        config.spec.global_mem_bytes = 1 << 20;
        let (x, y) = paper_data(400, 3);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let err = select_bandwidth_gpu(&x, &y, &grid, &config).unwrap_err();
        assert!(matches!(
            err,
            GpuError::Sim(kcv_gpu_sim::SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn report_accounts_traffic_and_time() {
        let (x, y) = paper_data(80, 4);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let run = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let r = &run.report;
        assert_eq!(r.n, 80);
        assert_eq!(r.k, 10);
        // Peak memory ≥ the two n×n matrices.
        assert!(r.device_bytes_peak >= 2 * 80 * 80 * 4);
        // H2D: x and y (80 f32 each).
        assert_eq!(r.h2d_bytes, 2 * 80 * 4);
        // D2H: the k per-bandwidth sums.
        assert_eq!(r.d2h_bytes, 10 * 4);
        assert!(r.total_simulated_seconds > 0.0);
        assert!(r.main_kernel.totals.flops > 0);
        assert!(
            r.main_kernel.totals.global_coalesced > 0,
            "residual writes are coalesced"
        );
        assert!(r.reduction_totals.syncs > 0);
    }

    #[test]
    fn residual_matrix_lives_in_the_pool_peak_is_exactly_the_formula() {
        // Regression: the bandwidth-major residual gather used to run
        // through a host `Vec` shadow of the residual matrix, bypassing the
        // memory pool — under-reporting `device_bytes_peak` and hiding an
        // uncharged device→host transfer. The residuals must live in the
        // pool-backed matrix, so the peak equals the §IV-A formula exactly
        // and the only transfers are x/y in and the k scores out.
        let (x, y) = paper_data(150, 11);
        let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
        for config in [
            GpuConfig::default(),
            GpuConfig {
                obs_major_residuals: true,
                ..GpuConfig::default()
            },
        ] {
            let run = select_bandwidth_gpu(&x, &y, &grid, &config).unwrap();
            assert_eq!(run.report.device_bytes_peak, required_device_bytes(150, 20));
            assert_eq!(run.report.h2d_bytes, 2 * 150 * 4);
            assert_eq!(run.report.d2h_bytes, 20 * 4);
        }
    }

    #[test]
    fn obs_major_ablation_same_answer_higher_cost() {
        // Turning off the §IV-B index switch must not change any result,
        // only raise the simulated memory cost — the measurable value of
        // the paper's layout optimisation.
        let (x, y) = paper_data(300, 8);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let with_switch = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let ablated_config = GpuConfig {
            obs_major_residuals: true,
            ..GpuConfig::default()
        };
        let without_switch = select_bandwidth_gpu(&x, &y, &grid, &ablated_config).unwrap();
        assert_eq!(with_switch.scores, without_switch.scores);
        assert_eq!(with_switch.bandwidth, without_switch.bandwidth);
        assert!(
            without_switch.report.total_simulated_seconds
                > with_switch.report.total_simulated_seconds,
            "strided layout should cost more: {} vs {}",
            without_switch.report.total_simulated_seconds,
            with_switch.report.total_simulated_seconds
        );
    }

    #[test]
    fn block_size_does_not_change_the_answer() {
        let (x, y) = paper_data(100, 5);
        let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
        let a = select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let b = select_bandwidth_gpu(
            &x,
            &y,
            &grid,
            &GpuConfig::default().with_threads_per_block(64),
        )
        .unwrap();
        assert_eq!(a.bandwidth, b.bandwidth);
        assert_eq!(a.scores, b.scores);
        // But it can change the simulated schedule/time.
        assert_eq!(a.report.main_kernel.totals, b.report.main_kernel.totals);
    }

    #[test]
    fn degenerate_input_rejected() {
        let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
        assert!(select_bandwidth_gpu(&[1.0], &[1.0], &grid, &GpuConfig::default()).is_err());
    }
}

//! The windowed GPU program — the prefix-moment strategy ported to the
//! device, breaking the paper's n ≈ 20 000 memory wall.
//!
//! The paper's program (see [`crate::select_bandwidth_gpu`]) materialises two `n×n` f32
//! matrices so that each thread can sort its own distance row; on the 4 GB
//! Tesla S10 that refuses past n ≈ 23 000 (§IV-A/§V). But the CPU-side
//! prefix-moment strategy (`kcv_core::cv::cv_profile_prefix`, PR 4) already
//! proved no per-observation state is needed: with the sample globally
//! argsorted, every windowed power sum expands binomially into differences
//! of **global** prefix-moment tables, and each `(observation, bandwidth)`
//! cell costs two edge searches plus, for each window edge that moved, one
//! table row and an `O(deg²)` recombination.
//!
//! This module runs exactly that plan on the simulated device. The device
//! holds only
//!
//! * the sorted `x` and co-sorted `y` (`2n` f32),
//! * the two prefix-moment tables `P_m`/`Q_m` for `m = 0..=deg`
//!   (`2·(deg+1)·(n+1)` entries at 8 bytes each — see *Precision* below),
//! * `⌈n/tpb⌉·k` block-partial slots and the `k` per-bandwidth sums,
//!
//! i.e. `O(n·(deg+2) + k)` bytes and **no n×n or n×k matrix anywhere** —
//! at the paper's k = 50 an n = 100 000 problem needs ~5.6 MB where the
//! classic layout would demand ~80 GB. One thread per observation answers
//! its `k` cells. It reads its two self rows once, then per bandwidth
//! advances its [`kcv_gpu_sim::SupportWindow`] (each edge search starts at
//! the edge the previous move predicts; the windows only grow across the
//! ascending sweep) and reads only the row of an edge that moved. Its
//! block folds the squared residuals into a shared partial row in thread
//! order, and the rows feed the shard driver's standard Harris reductions,
//! which produce the score profile and the argmin.
//!
//! ## Precision
//!
//! The paper's device is single-precision, but a naive f32 prefix table
//! would be useless at n = 100 000: `P_0[t]` reaches 10⁵, so a window
//! difference `P_0[b] − P_0[a]` of a few units would carry ~1e-2 relative
//! error — catastrophic cancellation. The tables are therefore built on the
//! **host in f64** with Neumaier compensation (over midrange-centred
//! coordinates, like the CPU strategy) and stored on the device as
//! **compensated f32 pairs** `(hi, lo)` with `hi + lo ≈ v` — the classic
//! double-f32 ("float-float") technique of the era. The device computes
//! window differences as `(hi_b − hi_a) + (lo_b − lo_a)`, whose error
//! scales with the *difference* magnitude (~1 ulp of f32), not the prefix
//! magnitude; the rest of the per-cell assembly runs in plain f32.
//!
//! The pair scheme has a degree limit: the per-cell assembly multiplies the
//! `j`-th window moment by `h^{−j}`, amplifying its ~2⁻²⁴ residual error by
//! up to `h_min^{−deg}`. Through degree 4 (quartic) the amplified error
//! stays a few percent of the score at the paper-default grids; at degree
//! 5+ (e.g. triweight's degree 6, `h^{−6} ≈ 3·10⁷` at the smallest
//! bandwidths) it reaches O(1). Kernels of degree 5 and above therefore
//! get true f64 tables and f64 assembly, chosen from the kernel degree
//! alone. An f64 entry takes the same 8 bytes as a pair, so the memory
//! footprint (and the perf gate on it) does not depend on the precision.
//! `tests/windowed_agreement.rs` pins both regimes.

use crate::config::GpuConfig;
use crate::driver::{run_shards, upload, GpuRun, PipelineReport, Residuals, Shard, ShardBody};
use crate::error::Result;
use crate::gpu_kernel_type::{GpuKernel, MAX_DEVICE_DEGREE};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::sort::{apply_permutation, argsort};
use kcv_core::util::NeumaierSum;
use kcv_gpu_sim::{
    launch_blocks, DeviceBuffer, LaunchConfig, LaunchReport, MemoryPool, SupportWindow,
    ThreadCounters,
};

/// The windowed program's report: the same fields as the classic one.
pub type WindowedReport = PipelineReport;

/// The windowed program's result: the same fields as the classic one.
pub type WindowedRun = GpuRun;

/// Lowest kernel degree whose windowed tables are stored as true f64 (see
/// *Precision* in the module docs).
const F64_TABLE_DEGREE: usize = 5;

/// The host-built global tables the windowed device program uploads:
/// sorted/centred sample and f64 master prefix moments.
pub(crate) struct WindowedTables {
    /// `x` sorted ascending, as f32 (the device's support predicate runs on
    /// these).
    pub xs32: Vec<f32>,
    /// `y` co-sorted, as f32.
    pub ys32: Vec<f32>,
    /// Midrange of the sorted sample (f64; the device uses it as f32 or f64
    /// per the precision mode).
    pub center: f64,
    /// `(deg+1) × (n+1)` Neumaier-compensated prefix sums of `xc^m`, f64
    /// master copy (stride `n+1`).
    pub px: Vec<f64>,
    /// Same layout, `y`-weighted.
    pub py: Vec<f64>,
    /// `(deg+1)²` Pascal triangle, `binom[j·(deg+1)+m] = C(j,m)`.
    pub binom: Vec<f64>,
}

impl WindowedTables {
    /// Argsorts `(x, y)` and builds the compensated f64 prefix-moment
    /// tables up to moment `deg`, mirroring the CPU strategy's build.
    pub(crate) fn build(x: &[f64], y: &[f64], deg: usize) -> Self {
        let perm = argsort(x);
        let xs = apply_permutation(x, &perm);
        let ys = apply_permutation(y, &perm);
        let n = xs.len();
        let center = 0.5 * (xs[0] + xs[n - 1]);

        let stride = n + 1;
        let mut px = vec![0.0f64; (deg + 1) * stride];
        let mut py = vec![0.0f64; (deg + 1) * stride];
        // Neumaier-compensated running sums, one per moment.
        let mut sx = vec![NeumaierSum::new(); deg + 1];
        let mut sy = vec![NeumaierSum::new(); deg + 1];
        for t in 0..n {
            let v = xs[t] - center;
            let yv = ys[t];
            let mut pw = 1.0f64;
            for m in 0..=deg {
                sx[m].add(pw);
                sy[m].add(yv * pw);
                px[m * stride + t + 1] = sx[m].value();
                py[m * stride + t + 1] = sy[m].value();
                pw *= v;
            }
        }

        let bw = deg + 1;
        let mut binom = vec![0.0f64; bw * bw];
        for j in 0..=deg {
            binom[j * bw] = 1.0;
            for m in 1..=j {
                binom[j * bw + m] =
                    binom[(j - 1) * bw + m - 1] + if m < j { binom[(j - 1) * bw + m] } else { 0.0 };
            }
        }

        Self {
            xs32: xs.iter().map(|&v| v as f32).collect(),
            ys32: ys.iter().map(|&v| v as f32).collect(),
            center,
            px,
            py,
            binom,
        }
    }

    /// Splits an f64 master table into the device's compensated f32 pair
    /// representation: `hi = f32(v)`, `lo = f32(v − hi)`.
    pub(crate) fn split_pair(table: &[f64]) -> (Vec<f32>, Vec<f32>) {
        let mut hi = Vec::with_capacity(table.len());
        let mut lo = Vec::with_capacity(table.len());
        for &v in table {
            let h = v as f32;
            hi.push(h);
            lo.push((v - h as f64) as f32);
        }
        (hi, lo)
    }
}

/// Read-only device views of the uploaded prefix tables, in either
/// precision mode. Both represent each entry in 8 device bytes.
pub(crate) enum TableView<'a> {
    /// Compensated f32 pairs (kernel degree ≤ 4, period-authentic).
    PairF32 {
        /// High f32 words of `P_m`.
        px_hi: &'a [f32],
        /// Low (compensation) words of `P_m`.
        px_lo: &'a [f32],
        /// High words of `Q_m`.
        py_hi: &'a [f32],
        /// Low words of `Q_m`.
        py_lo: &'a [f32],
    },
    /// True f64 tables (kernel degree 5 and above).
    F64 {
        /// `P_m` table.
        px: &'a [f64],
        /// `Q_m` table.
        py: &'a [f64],
    },
}

/// One position of both prefix tables, held in a thread's registers:
/// `P_m` and `Q_m` for `m = 0..=deg`, `4·(deg+1)` words in either
/// precision.
#[derive(Clone, Copy)]
enum Row {
    /// `[P_hi, P_lo, Q_hi, Q_lo]` per moment.
    Pair([[f32; 4]; MAX_DEVICE_DEGREE + 1]),
    /// `[P, Q]` per moment.
    F64([[f64; 2]; MAX_DEVICE_DEGREE + 1]),
}

impl TableView<'_> {
    /// Reads the tables' row at position `t` (stride `n + 1`), charging its
    /// `4·(deg+1)` divergent words: neighbouring threads read rows at
    /// different window edges.
    fn row(&self, t: usize, deg: usize, stride: usize, c: &mut ThreadCounters) -> Row {
        c.global_read(4 * (deg as u64 + 1));
        match self {
            TableView::PairF32 {
                px_hi,
                px_lo,
                py_hi,
                py_lo,
            } => {
                let mut row = [[0.0f32; 4]; MAX_DEVICE_DEGREE + 1];
                for (m, r) in row.iter_mut().enumerate().take(deg + 1) {
                    let i = m * stride + t;
                    *r = [px_hi[i], px_lo[i], py_hi[i], py_lo[i]];
                }
                Row::Pair(row)
            }
            TableView::F64 { px, py } => {
                let mut row = [[0.0f64; 2]; MAX_DEVICE_DEGREE + 1];
                for (m, r) in row.iter_mut().enumerate().take(deg + 1) {
                    *r = [px[m * stride + t], py[m * stride + t]];
                }
                Row::F64(row)
            }
        }
    }
}

/// The windowed main kernel: one thread per observation (sorted position
/// `si`), answering all `k` of its cells.
///
/// The thread reads its two self rows `si` and `si + 1` once. Per
/// bandwidth (ascending) it advances its [`SupportWindow`]: each edge
/// search starts from the edge the previous bandwidth's move predicts.
/// The window splits at `si`, which excludes the self observation. A side
/// whose edge did not move keeps its windowed power sums `S_j`/`SY_j` from
/// the previous bandwidth. A side whose edge moved reads only the new edge
/// row, differences it against its self row for every moment of both
/// tables, and binomially recombines the differences. The thread then
/// assembles `N/D` exactly like every other strategy and adds the squared
/// residual to its block's accumulator `acc`, the block's shared partial
/// row (the launch runs a block's threads in thread order; the block
/// leader's coalesced flush of the row is charged here).
///
/// `kcv-gpu-sim` has no register-file model, so the words a thread keeps
/// live are not charged. Besides the per-side sums `S_j`/`SY_j`, a thread
/// keeps its two self rows live across the sweep: `8·(deg+1)` extra words
/// (24 for the quadratic kernel, 56 at degree 6).
#[allow(clippy::too_many_arguments)]
pub(crate) fn windowed_kernel(
    si: usize,
    xs: &[f32],
    ys: &[f32],
    view: &TableView<'_>,
    center: f64,
    binom: &[f64],
    bandwidths: &[f32],
    coeffs: &[f32],
    radius: f32,
    deg: usize,
    n: usize,
    acc: &mut [f32],
    c: &mut ThreadCounters,
) -> u64 {
    debug_assert!(deg <= MAX_DEVICE_DEGREE);
    let stride = n + 1;
    let bw = deg + 1;
    let xi = xs[si];
    let yi = ys[si];
    c.global_read(2);

    // Powers of −xc_i, in the working precision.
    let xci = match view {
        TableView::PairF32 { .. } => (xi - center as f32) as f64,
        TableView::F64 { .. } => xi as f64 - center,
    };
    let mut npow = [0.0f64; MAX_DEVICE_DEGREE + 1];
    npow[0] = 1.0;
    for m in 1..=deg {
        npow[m] = match view {
            TableView::PairF32 { .. } => (npow[m - 1] as f32 * -xci as f32) as f64,
            TableView::F64 { .. } => npow[m - 1] * -xci,
        };
    }
    c.flop(deg as u64);

    // Windowed moments of one side `[a, b)` from its two boundary rows:
    // prefix differencing + binomial recombination, in the view's
    // precision. Charges the assembly flops.
    let side = |a: &Row, b: &Row, w: &mut [f64], wy: &mut [f64], c: &mut ThreadCounters| {
        let mut dp = [0.0f64; MAX_DEVICE_DEGREE + 1];
        let mut dq = [0.0f64; MAX_DEVICE_DEGREE + 1];
        for m in 0..=deg {
            match (a, b) {
                (Row::Pair(a), Row::Pair(b)) => {
                    // Difference of compensated pairs in f32: the error
                    // tracks the window magnitude, not the prefix magnitude.
                    let ([ph_a, pl_a, qh_a, ql_a], [ph_b, pl_b, qh_b, ql_b]) = (a[m], b[m]);
                    dp[m] = ((ph_b - ph_a) + (pl_b - pl_a)) as f64;
                    dq[m] = ((qh_b - qh_a) + (ql_b - ql_a)) as f64;
                }
                (Row::F64(a), Row::F64(b)) => {
                    dp[m] = b[m][0] - a[m][0];
                    dq[m] = b[m][1] - a[m][1];
                }
                _ => unreachable!("one view's rows share its precision"),
            }
        }
        c.flop(6 * (deg as u64 + 1));
        for j in 0..=deg {
            let row = &binom[j * bw..j * bw + j + 1];
            let (mut s, mut sy) = (0.0f64, 0.0f64);
            for (m, &cf) in row.iter().enumerate() {
                match view {
                    TableView::PairF32 { .. } => {
                        let coeff = (cf as f32) * (npow[j - m] as f32);
                        s = (s as f32 + coeff * dp[m] as f32) as f64;
                        sy = (sy as f32 + coeff * dq[m] as f32) as f64;
                    }
                    TableView::F64 { .. } => {
                        let coeff = cf * npow[j - m];
                        s += coeff * dp[m];
                        sy += coeff * dq[m];
                    }
                }
            }
            w[j] = s;
            wy[j] = sy;
            c.flop(5 * (j as u64 + 1));
        }
    };

    // The self rows bound the left side [lo, si) and the right side
    // [si+1, hi); both sides start empty.
    let self_left = view.row(si, deg, stride, c);
    let self_right = view.row(si + 1, deg, stride, c);
    let mut wl = [0.0f64; MAX_DEVICE_DEGREE + 1];
    let mut wyl = [0.0f64; MAX_DEVICE_DEGREE + 1];
    let mut wr = [0.0f64; MAX_DEVICE_DEGREE + 1];
    let mut wyr = [0.0f64; MAX_DEVICE_DEGREE + 1];
    side(&self_left, &self_left, &mut wl, &mut wyl, c);
    side(&self_right, &self_right, &mut wr, &mut wyr, c);

    let mut probes_total = 0u64;
    let mut window = SupportWindow::new(si);
    for (m, &h) in bandwidths.iter().enumerate() {
        c.constant_read(1);
        let inv_h = 1.0 / h;
        c.flop(1);
        let (lo_prev, hi_prev) = (window.lo, window.hi);
        let [l, r] = window.advance(xs, xi, inv_h, radius, c);
        probes_total += u64::from(l + r);
        if window.lo != lo_prev {
            let edge = view.row(window.lo, deg, stride, c);
            side(&edge, &self_left, &mut wl, &mut wyl, c);
        }
        if window.hi != hi_prev {
            let edge = view.row(window.hi, deg, stride, c);
            side(&self_right, &edge, &mut wr, &mut wyr, c);
        }

        // d = x_i − x_l on the left, x_l − x_i on the right:
        // S_j = W_j^right + (−1)^j·W_j^left, then the standard
        // N/D = Σ_j c_j·h^{-j}·{SY_j, S_j} assembly.
        let (num, den) = match view {
            TableView::PairF32 { .. } => {
                let inv = inv_h;
                let (mut hp, mut num, mut den, mut sign) = (1.0f32, 0.0f32, 0.0f32, 1.0f32);
                for (j, &cf) in coeffs.iter().enumerate() {
                    let s_j = wr[j] as f32 + sign * wl[j] as f32;
                    let sy_j = wyr[j] as f32 + sign * wyl[j] as f32;
                    num += cf * hp * sy_j;
                    den += cf * hp * s_j;
                    hp *= inv;
                    sign = -sign;
                }
                (num, den)
            }
            TableView::F64 { .. } => {
                let inv = inv_h as f64;
                let (mut hp, mut num, mut den, mut sign) = (1.0f64, 0.0f64, 0.0f64, 1.0f64);
                for (j, &cf) in coeffs.iter().enumerate() {
                    let s_j = wr[j] + sign * wl[j];
                    let sy_j = wyr[j] + sign * wyl[j];
                    num += cf as f64 * hp * sy_j;
                    den += cf as f64 * hp * s_j;
                    hp *= inv;
                    sign = -sign;
                }
                (num as f32, den as f32)
            }
        };
        c.flop(7 * (deg as u64 + 1));
        c.branch(1);
        acc[m] += if den > 0.0 {
            let r = yi - num / den;
            c.flop(3);
            r * r
        } else {
            // M(X_i) = 0 at this h: the observation contributes nothing.
            0.0
        };
        // Accumulate into the block's shared partial row.
        c.shared_access(1);
    }
    c.sync();
    probes_total
}

/// Runs the windowed (O(n)-memory) GPU program on the simulated device:
/// selects the CV-optimal Epanechnikov bandwidth for `(x, y)` over `grid`.
pub fn select_bandwidth_gpu_windowed(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
) -> Result<WindowedRun> {
    select_bandwidth_gpu_windowed_kernel(x, y, grid, config, &GpuKernel::from_core(&Epanechnikov))
}

/// [`select_bandwidth_gpu_windowed`] with an explicit device kernel.
pub fn select_bandwidth_gpu_windowed_kernel(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
    kernel: &GpuKernel,
) -> Result<WindowedRun> {
    Ok(run_shards::<Windowed>(x, y, grid, config, kernel, 1)?.0)
}

/// The windowed program's shard body: the host-built prefix tables, the
/// windowed kernel and the block fold.
pub(crate) struct Windowed {
    tables: WindowedTables,
}

/// The device-resident prefix tables, in the precision the kernel degree
/// calls for; both spend 8 device bytes per entry.
enum TableBuffers {
    Pair {
        px_hi: DeviceBuffer<f32>,
        px_lo: DeviceBuffer<f32>,
        py_hi: DeviceBuffer<f32>,
        py_lo: DeviceBuffer<f32>,
    },
    F64 {
        px: DeviceBuffer<f64>,
        py: DeviceBuffer<f64>,
    },
}

/// A windowed shard's device buffers: the full sorted sample and tables,
/// and the shard's bandwidth-major block partials.
pub(crate) struct WindowedResident {
    xs: DeviceBuffer<f32>,
    ys: DeviceBuffer<f32>,
    tables: TableBuffers,
    partials: DeviceBuffer<f32>,
}

impl ShardBody for Windowed {
    type Resident = WindowedResident;

    fn prepare(x: &[f64], y: &[f64], deg: usize) -> Self {
        Self {
            tables: WindowedTables::build(x, y, deg),
        }
    }

    fn allocate(&self, pool: &MemoryPool, shard: &Shard<'_>) -> Result<WindowedResident> {
        let t = &self.tables;
        let xs = upload(pool, &t.xs32)?;
        let ys = upload(pool, &t.ys32)?;
        let tables = if shard.kernel.degree() >= F64_TABLE_DEGREE {
            TableBuffers::F64 {
                px: upload(pool, &t.px)?,
                py: upload(pool, &t.py)?,
            }
        } else {
            // Split each f64 master entry into (hi, lo) f32 words; the host
            // split is dropped once uploaded.
            let (hx, lx) = WindowedTables::split_pair(&t.px);
            let (hy, ly) = WindowedTables::split_pair(&t.py);
            TableBuffers::Pair {
                px_hi: upload(pool, &hx)?,
                px_lo: upload(pool, &lx)?,
                py_hi: upload(pool, &hy)?,
                py_lo: upload(pool, &ly)?,
            }
        };
        // Block partials, bandwidth-major so the per-bandwidth reductions
        // read consecutive addresses.
        let partials = pool.alloc::<f32>(shard.rows.len().div_ceil(shard.tpb) * shard.k)?;
        Ok(WindowedResident {
            xs,
            ys,
            tables,
            partials,
        })
    }

    fn launch<'r>(
        &self,
        resident: &'r mut WindowedResident,
        shard: &Shard<'_>,
        bandwidths: &[f32],
    ) -> Result<(LaunchReport, Residuals<'r>)> {
        let (rows, k, tpb, lo) = (shard.rows.len(), shard.k, shard.tpb, shard.rows.start);
        let (t, deg, n) = (&self.tables, shard.kernel.degree(), self.tables.xs32.len());
        // Each block's shared partial row, one after another.
        let num_blocks = rows.div_ceil(tpb);
        let mut block_rows = vec![0.0f32; num_blocks * k];
        let (xs, ys) = (resident.xs.as_slice(), resident.ys.as_slice());
        let view = match &resident.tables {
            TableBuffers::Pair {
                px_hi,
                px_lo,
                py_hi,
                py_lo,
            } => TableView::PairF32 {
                px_hi: px_hi.as_slice(),
                px_lo: px_lo.as_slice(),
                py_hi: py_hi.as_slice(),
                py_lo: py_lo.as_slice(),
            },
            TableBuffers::F64 { px, py } => TableView::F64 {
                px: px.as_slice(),
                py: py.as_slice(),
            },
        };
        let (coeffs, radius) = (shard.kernel.coeffs.as_slice(), shard.kernel.radius);
        // Main kernel: one thread per sorted position of the shard, a
        // block's threads in thread order so each folds its residuals into
        // the block's row in the same order.
        let (probes, report) = launch_blocks(
            &shard.config.spec,
            &shard.config.cost,
            LaunchConfig::new(rows, tpb),
            block_rows.chunks_mut(k).collect(),
            // Thread tid of this device answers sorted position lo + tid.
            |tid, acc: &mut &mut [f32], c| {
                let probes = windowed_kernel(
                    lo + tid,
                    xs,
                    ys,
                    &view,
                    t.center,
                    &t.binom,
                    bandwidths,
                    coeffs,
                    radius,
                    deg,
                    n,
                    acc,
                    c,
                );
                // Each block's leader flushes the block's accumulated partial
                // row to the device partial matrix — k consecutive
                // bandwidth-major slots per block, a coalesced store.
                if tid % tpb == 0 {
                    c.global_coalesced(k as u64);
                }
                probes
            },
        )?;
        kcv_obs::add(kcv_obs::Counter::WindowQueries, (rows * k) as u64);
        kcv_obs::add(kcv_obs::Counter::BinarySearchProbes, probes.iter().sum());

        // The flushes: block b's row lands in slot b of every bandwidth's
        // row of the partial matrix.
        let partials = resident.partials.as_mut_slice();
        for (b, row) in block_rows.chunks(k).enumerate() {
            for (m, &v) in row.iter().enumerate() {
                partials[m * num_blocks + b] = v;
            }
        }
        let values = resident.partials.as_slice();
        Ok((
            report,
            Residuals {
                values,
                bandwidth_major: true,
            },
        ))
    }
}

/// Device memory the windowed pipeline needs for a given configuration, in
/// bytes: `2n` f32 for the sorted sample, `2·(deg+1)·(n+1)` table entries
/// at 8 bytes each (f32 pair or f64 — identical), the `⌈n/tpb⌉·k` block
/// partials, and the `k` per-bandwidth sums. `O(n·(deg+2) + k)` — **no n²
/// term**, so the paper's 4 GB wall moves out past n = 10⁸.
pub fn required_device_bytes_windowed(
    n: usize,
    k: usize,
    deg: usize,
    threads_per_block: usize,
) -> usize {
    let f = std::mem::size_of::<f32>();
    let num_blocks = n.div_ceil(threads_per_block.max(1));
    2 * n * f + 2 * (deg + 1) * (n + 1) * 2 * f + num_blocks * k * f + k * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::GpuError;
    use kcv_core::cv::cv_profile_prefix;
    use kcv_core::kernels::Triweight;

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

    #[test]
    fn windowed_matches_prefix_cpu_reference() {
        let (x, y) = paper_data(300, 1);
        let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let cpu = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            let gpu_s = run.scores[m] as f64;
            let cpu_s = cpu.scores[m];
            assert!(
                (gpu_s - cpu_s).abs() <= 2e-3 * cpu_s.abs().max(1e-6),
                "h={}: gpu {gpu_s} vs cpu {cpu_s}",
                grid.values()[m]
            );
        }
        let cpu_opt = cpu.argmin().unwrap().bandwidth;
        assert!(
            (run.bandwidth - cpu_opt).abs() <= grid.step() + 1e-9,
            "gpu {} vs cpu {cpu_opt}",
            run.bandwidth
        );
    }

    #[test]
    fn windowed_matches_classic_pipeline_argmin() {
        let (x, y) = paper_data(257, 5);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let classic =
            crate::pipeline::select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let windowed = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        // Two f32 programs with different rounding histories: the argmin
        // must agree up to a near-tie flip one grid step away.
        assert!(
            (windowed.bandwidth - classic.bandwidth).abs() <= grid.step() + 1e-9,
            "windowed {} vs classic {}",
            windowed.bandwidth,
            classic.bandwidth
        );
    }

    #[test]
    fn f64_table_mode_same_bytes_tighter_scores() {
        // Triweight (degree 6) runs on f64 tables, which cost the same 8
        // device bytes per entry as the pairs: the footprint is the pair
        // formula's.
        let (x, y) = paper_data(400, 9);
        let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
        let kernel = GpuKernel::from_core(&Triweight);
        let wide =
            select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &GpuConfig::default(), &kernel)
                .unwrap();
        assert_eq!(wide.report.deg, 6);
        assert_eq!(
            wide.report.device_bytes_peak,
            required_device_bytes_windowed(400, 25, 6, 512)
        );
        // The f64 tables remove every accumulation error; what remains vs
        // the f64 CPU reference is the f32 quantisation of the inputs
        // themselves (x, y, h stored as f32 on the device), so ~1e-4
        // relative — far tighter than the classic pipeline's 1e-3 contract,
        // at the degree where the pairs' `h^{−6}`-amplified residual would
        // reach O(1).
        let cpu = cv_profile_prefix(&x, &y, &grid, &kcv_core::kernels::Triweight).unwrap();
        for m in 0..grid.len() {
            let err_wide = (wide.scores[m] as f64 - cpu.scores[m]).abs();
            assert!(
                err_wide <= 1e-4 * cpu.scores[m].abs().max(1e-9),
                "f64 mode h index {m}: {} vs {}",
                wide.scores[m],
                cpu.scores[m]
            );
        }
        let cpu_opt = cpu.argmin().unwrap().bandwidth;
        assert!(
            (wide.bandwidth - cpu_opt).abs() <= grid.step() + 1e-9,
            "f64 {} vs cpu {cpu_opt}",
            wide.bandwidth
        );
    }

    #[test]
    fn windowed_peak_memory_is_linear_in_n() {
        let (x, y) = paper_data(2_000, 3);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let expected = required_device_bytes_windowed(2_000, 50, 2, 512);
        assert_eq!(run.report.device_bytes_peak, expected);
        // Far below both the classic requirement and any n² footprint.
        assert!(run.report.device_bytes_peak < 2_000 * 2_000);
        assert!(
            run.report.device_bytes_peak < crate::pipeline::required_device_bytes(2_000, 50) / 50
        );
    }

    #[test]
    fn windowed_runs_past_the_classic_wall_on_a_small_device() {
        // 1 MB device: the classic pipeline refuses at n = 400 (the two n²
        // matrices alone need 1.28 MB); the windowed one sails through at
        // n = 4 000 on the very same spec.
        let mut config = GpuConfig::default();
        config.spec.global_mem_bytes = 1 << 20;
        let (x, y) = paper_data(400, 3);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        assert!(crate::pipeline::select_bandwidth_gpu(&x, &y, &grid, &config).is_err());
        let (x, y) = paper_data(4_000, 3);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &config).unwrap();
        assert!(run.report.device_bytes_peak < 1 << 20);
        let cpu = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        let cpu_opt = cpu.argmin().unwrap().bandwidth;
        assert!(
            (run.bandwidth - cpu_opt).abs() <= grid.step() + 1e-9,
            "windowed {} vs cpu {cpu_opt}",
            run.bandwidth
        );
    }

    #[test]
    fn windowed_traffic_is_per_cell_logarithmic() {
        let (x, y) = paper_data(1_000, 7);
        let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let t = &run.report.main_kernel.totals;
        let cells = 1_000u64 * 20;
        // Per cell: 2·⌈log₂ n⌉ probes and at most two edge rows of
        // 4(deg+1) words; per thread: the xi/yi reads and the two self
        // rows. No O(window) term anywhere.
        let ceiling = cells * (2 * 10 + 8 * 3) + (2 + 8 * 3) * 1_000;
        assert!(
            t.global_reads <= ceiling,
            "global reads {} exceed per-cell ceiling {ceiling}",
            t.global_reads
        );
        // And the whole program touched global memory fewer times than the
        // classic pipeline's two n×n matrix fills alone (2n² stores).
        assert!(t.global_reads + t.global_writes + t.global_coalesced < 2 * 1_000 * 1_000);
    }

    /// Replays every thread's sweep on the device's f32 inputs: the edge
    /// moves a scan reference finds, and the probes the device search
    /// spends.
    fn edge_moves_and_probes(x: &[f64], grid: &BandwidthGrid, radius: f32) -> (u64, u64) {
        let xs = WindowedTables::build(x, x, 0).xs32;
        let (mut moves, mut probes) = (0u64, 0u64);
        for (si, &xi) in xs.iter().enumerate() {
            let mut window = SupportWindow::new(si);
            let (mut lo, mut hi) = (si, si + 1);
            for &h in grid.values() {
                let inv_h = 1.0 / h as f32;
                let scan_lo = xs.iter().position(|&v| (xi - v) * inv_h <= radius).unwrap();
                let scan_hi = xs
                    .iter()
                    .rposition(|&v| (v - xi) * inv_h <= radius)
                    .unwrap()
                    + 1;
                moves += u64::from(scan_lo != lo) + u64::from(scan_hi != hi);
                (lo, hi) = (scan_lo, scan_hi);
                let [l, r] = window.advance(&xs, xi, inv_h, radius, &mut ThreadCounters::default());
                assert_eq!((window.lo, window.hi), (lo, hi));
                probes += u64::from(l + r);
            }
        }
        (moves, probes)
    }

    #[test]
    fn windowed_reads_self_rows_once_and_an_edge_row_per_move() {
        let n = 1_000u64;
        let (x, y) = paper_data(n as usize, 7);
        for kernel in [
            GpuKernel::from_core(&Epanechnikov),
            GpuKernel::from_core(&Triweight),
        ] {
            let row = 4 * (kernel.degree() as u64 + 1);
            // The paper grid, and one whose smallest bandwidth already
            // covers the whole domain.
            let covering = BandwidthGrid::linear(1.5, 3.0, 6).unwrap();
            for grid in [BandwidthGrid::paper_default(&x, 20).unwrap(), covering] {
                let config = GpuConfig::default();
                let run =
                    select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &config, &kernel).unwrap();
                let (moves, probes) = edge_moves_and_probes(&x, &grid, kernel.radius);
                let reads = run.report.main_kernel.totals.global_reads;
                assert_eq!(
                    reads,
                    2 * n + 2 * row * n + row * moves + probes,
                    "{}",
                    kernel.name
                );
                if grid.values()[0] >= 1.5 {
                    // One move per side, at the first bandwidth, for every
                    // thread not already at that end.
                    assert_eq!(moves, 2 * (n - 1));
                }
            }
        }
    }

    #[test]
    fn windowed_rejects_oversized_grids_and_degenerate_input() {
        let (x, y) = paper_data(10, 2);
        let grid = BandwidthGrid::linear(0.001, 1.0, 2049).unwrap();
        let err = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap_err();
        assert_eq!(
            err,
            GpuError::TooManyBandwidths {
                requested: 2049,
                max: 2048
            }
        );
        let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
        assert!(
            select_bandwidth_gpu_windowed(&[1.0], &[1.0], &grid, &GpuConfig::default()).is_err()
        );
    }

    #[test]
    fn report_accounts_windowed_traffic() {
        let (x, y) = paper_data(80, 4);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let r = &run.report;
        assert_eq!((r.n, r.k, r.deg), (80, 10, 2));
        // H2D: xs, ys (n f32 each) + the four pair tables ((deg+1)·(n+1)
        // f32 each).
        let table_words = 3 * 81u64;
        assert_eq!(r.h2d_bytes, (2 * 80 + 4 * table_words as usize) as u64 * 4);
        // D2H: the k per-bandwidth sums.
        assert_eq!(r.d2h_bytes, 10 * 4);
        assert!(r.transfer_seconds > 0.0);
        assert!(r.total_simulated_seconds > 0.0);
        assert!(r.main_kernel.totals.flops > 0);
        assert!(r.reduction_totals.syncs > 0);
    }
}

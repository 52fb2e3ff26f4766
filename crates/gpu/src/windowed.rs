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
//! advances its support window (`device_search`: each edge search starts
//! at the edge the previous move predicts; the windows only grow across
//! the ascending sweep) and reads only the row of an edge that moved. Its
//! block folds the squared residuals into a shared partial row in thread
//! order, and the rows feed the driver's standard Harris reductions,
//! which produce the score profile and the argmin. On the host a block
//! steps groups of its threads bandwidth by bandwidth, as a warp's threads
//! run in lockstep: eight at a time in AVX2 lanes where it can (see
//! *Lanes*), else warps of the scalar thread, so independent threads' edge
//! searches overlap. Each thread charges its own counters once, when its
//! group ends.
//!
//! ## Lanes
//!
//! On a host with AVX2 (detected once per process, on the launching
//! thread) the pair-f32 kernel runs eight simulated threads per step, one
//! per 256-bit lane (the private `lanes` module): the two edge searches
//! (`device_search`'s lane search: gathered probes, each lane at its own
//! positions, repeated while any lane still searches), each side's row
//! gathered and recombined under the mask of the lanes whose edge moved,
//! and the `N/D` assembly. Every reported bit and count is the scalar
//! path's:
//!
//! * **Per-lane operation order.** Each lane runs the scalar thread's IEEE
//!   operations on the same operands in the same order, with `mul`, `add`,
//!   `sub` and `div` only, never a fused multiply-add (nor does Rust
//!   contract the scalar `a·b + c`). What is the same in every lane —
//!   `1/h`, `c_j·h^{-j}`, the sign `(−1)^j` — is computed once, in f32, by
//!   the scalar expressions; a blend only selects whole values.
//! * **NaN predicates.** The edge predicate compares with `_CMP_LE_OQ`,
//!   false on NaN as Rust's `<=` is (its negation `_CMP_NLE_UQ` on the
//!   right edge), and `den > 0` with `_CMP_GT_OQ`, so a NaN `den` (for
//!   instance at an f32 `1/h = +inf`) excludes its cell on both paths.
//! * **Thread-order fold.** A lane step stores its eight squared residuals
//!   (`+0.0` for an excluded cell, which the scalar thread also adds) and
//!   scalar code folds the live ones into the block's `acc[m]` in thread
//!   order, so every sum adds the scalar path's terms in its order. Groups
//!   run one after another, each through every bandwidth, which keeps
//!   that order for every `acc[m]`.
//! * **Tallied counters.** Every count a cell charges is a fixed function
//!   of its probes, whether each edge moved, and whether `den > 0`
//!   (`Tally`; `ThreadCounters::cycles` reads only the totals). Each
//!   lane keeps those tallies as integers and charges its thread once,
//!   when its group ends, by the same `Tally::charge` the scalar thread
//!   uses; the lane search spends exactly the scalar search's probes.
//!
//! A partial group's idle lanes repeat its last thread and are neither
//! folded nor charged. The scalar thread still runs on hosts without AVX2
//! and on other architectures, for the f64 kernel (degree ≥ 5: four f64
//! lanes would need a second lane body, so it keeps the scalar one), and
//! for tables whose word offsets do not fit the lanes' `i32`s. The tests
//! compare both paths' every reported bit.
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
//! `tests/windowed_agreement.rs` pins both regimes. Each precision has its
//! own copy of the kernel (`TableWord` is the precision's arithmetic), so
//! no cell asks which precision it runs in.
//!
//! ## Layout
//!
//! The device tables are one row-major buffer: row `t` holds, for each
//! moment `m = 0..=deg`, `P_m[t]` and then `Q_m[t]` — as `(hi, lo)` pairs,
//! `4·(deg+1)` f32 words, or as `2·(deg+1)` f64 words. A thread reads whole
//! rows at window edges that differ from its neighbours', so a row that
//! sits together is the layout such divergent reads want on a device; on
//! the host it is one or two cache lines a row instead of one per table.
//! The host uploads its column-major f64 master tables into that layout
//! with strided copies, one per host table (and per pair word), without
//! building a host copy of it. The cost model prices the layout no
//! differently from separate tables: a row read is `4·(deg+1)` divergent
//! words either way, since neighbouring threads' rows are uncoalesced in
//! both, and the copies move the same bytes.

use crate::config::GpuConfig;
use crate::device_search::{charge_probes, SupportWindow};
use crate::driver::{
    run_program, upload, Device, DeviceProgram, GpuRun, PipelineReport, Residuals,
};
use crate::error::Result;
use crate::gpu_kernel_type::{GpuKernel, MAX_DEVICE_DEGREE};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::sort::{apply_permutation, argsort};
use kcv_core::util::NeumaierSum;
use kcv_gpu_sim::{
    launch_block_kernel, DeviceBuffer, LaunchConfig, LaunchReport, MemoryPool, ThreadCounters,
};
use std::ops::{Add, AddAssign, Mul, MulAssign, Neg, Sub};

#[cfg(target_arch = "x86_64")]
mod lanes;

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

    /// Allocates the device's row-major tables in precision `W` and
    /// uploads the master tables into them: one strided copy per master
    /// table and word of a value, so `4·(deg+1)·(n+1)` f32 or
    /// `2·(deg+1)·(n+1)` f64 words.
    fn upload_rows<W: TableWord>(&self, pool: &MemoryPool) -> Result<DeviceBuffer<W>> {
        let stride = self.xs32.len() + 1;
        let deg = self.px.len() / stride - 1;
        let row = row_words::<W>(deg);
        let mut rows = pool.alloc::<W>(row * stride)?;
        for (table, master) in [&self.px, &self.py].into_iter().enumerate() {
            for slot in 0..W::PER_VALUE {
                // Master column m is P_m (or Q_m) over positions t.
                rows.scatter_from_host(master.chunks(stride).enumerate().flat_map(
                    |(m, column)| {
                        let offset = (2 * m + table) * W::PER_VALUE + slot;
                        column
                            .iter()
                            .enumerate()
                            .map(move |(t, &v)| (t * row + offset, W::word(v, slot)))
                    },
                ));
            }
        }
        Ok(rows)
    }
}

/// The arithmetic of one table precision: the words a table value is
/// stored in and the type the per-cell assembly runs in.
trait TableWord:
    Copy
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + MulAssign
{
    /// Device words per table value: a compensated `(hi, lo)` pair or one
    /// f64.
    const PER_VALUE: usize;
    /// `0`.
    const ZERO: Self;
    /// `1`.
    const ONE: Self;
    /// An f32 device value in this precision.
    fn from_f32(v: f32) -> Self;
    /// A host constant (a binomial coefficient) in this precision.
    fn from_f64(v: f64) -> Self;
    /// The value as an f32.
    fn to_f32(self) -> f32;
    /// `xi` centred on the sample midrange.
    fn centred(xi: f32, center: f64) -> Self;
    /// Word `slot` (below [`Self::PER_VALUE`]) of the master value `v`.
    fn word(v: f64, slot: usize) -> Self;
    /// `b − a` of one table value stored in [`Self::PER_VALUE`] words.
    fn difference(a: &[Self], b: &[Self]) -> Self;
    /// The lane form of one block of the kernel (as [`scalar_block`]) over
    /// `args`, where this precision has one and this host runs it.
    fn lane_block(args: &WindowedArgs<'_, Self>) -> Option<LaneBlock<Self>>;
}

/// One block of the windowed kernel in lanes: `(args, first, acc,
/// counters)` as [`scalar_block`].
///
/// # Safety
/// Only as returned by [`TableWord::lane_block`] for the same tables, with
/// every position answered indexing `xs`.
type LaneBlock<W> = for<'a, 'b> unsafe fn(
    &'b WindowedArgs<'a, W>,
    usize,
    &'b mut [f32],
    &'b mut [ThreadCounters],
) -> u64;

/// Compensated f32 pairs (kernel degree ≤ 4, period-authentic); the cell
/// assembly runs in f32.
impl TableWord for f32 {
    const PER_VALUE: usize = 2;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn from_f32(v: f32) -> Self {
        v
    }
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f32(self) -> f32 {
        self
    }
    fn centred(xi: f32, center: f64) -> Self {
        xi - center as f32
    }
    /// `hi = f32(v)`, `lo = f32(v − hi)`.
    fn word(v: f64, slot: usize) -> Self {
        let hi = v as f32;
        if slot == 0 {
            hi
        } else {
            (v - hi as f64) as f32
        }
    }
    /// Difference of compensated pairs in f32: the error tracks the window
    /// magnitude, not the prefix magnitude.
    fn difference(a: &[Self], b: &[Self]) -> Self {
        (b[0] - a[0]) + (b[1] - a[1])
    }
    /// Eight f32 lanes where the host has AVX2 and the tables' offsets fit
    /// the lanes' `i32`s.
    fn lane_block(args: &WindowedArgs<'_, Self>) -> Option<LaneBlock<Self>> {
        #[cfg(target_arch = "x86_64")]
        if lanes::enabled() && lanes::fits(args) {
            return Some(lanes::run_block);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = args;
        None
    }
}

/// True f64 tables and assembly (kernel degree 5 and above).
impl TableWord for f64 {
    const PER_VALUE: usize = 1;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    fn from_f32(v: f32) -> Self {
        v as f64
    }
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f32(self) -> f32 {
        self as f32
    }
    fn centred(xi: f32, center: f64) -> Self {
        xi as f64 - center
    }
    fn word(v: f64, _slot: usize) -> Self {
        v
    }
    fn difference(a: &[Self], b: &[Self]) -> Self {
        b[0] - a[0]
    }
    /// None: the f64 kernel runs the scalar thread.
    fn lane_block(_: &WindowedArgs<'_, Self>) -> Option<LaneBlock<Self>> {
        None
    }
}

/// Words in one table row: `P_m` and `Q_m` for `m = 0..=deg`.
fn row_words<W: TableWord>(deg: usize) -> usize {
    2 * W::PER_VALUE * (deg + 1)
}

/// What every thread of a windowed launch reads: the sorted sample, the
/// device tables in precision `W`, and the grid and kernel constants.
struct WindowedArgs<'a, W> {
    /// Sorted `x`.
    xs: &'a [f32],
    /// Co-sorted `y`.
    ys: &'a [f32],
    /// Row-major prefix tables, [`row_words`] words a row.
    rows: &'a [W],
    /// Midrange of the sorted sample.
    center: f64,
    /// Pascal triangle, `binom[j·(deg+1)+m] = C(j,m)`.
    binom: &'a [W],
    /// The ascending grid, in constant memory.
    bandwidths: &'a [f32],
    /// Kernel polynomial coefficients.
    coeffs: &'a [f32],
    /// Kernel support radius.
    radius: f32,
    /// Kernel degree.
    deg: usize,
}

impl<'a, W: TableWord> WindowedArgs<'a, W> {
    /// The tables' row at position `t`.
    fn row(&self, t: usize) -> &'a [W] {
        let words = row_words::<W>(self.deg);
        &self.rows[t * words..(t + 1) * words]
    }
}

/// What a thread's cells charge beyond their fixed per-cell work: every
/// count a windowed thread charges is a fixed function of these tallies,
/// the kernel degree and `k`, so a thread keeps them while it runs and
/// charges its counters once, when it ends ([`Tally::charge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Tally {
    /// Edge probes, both sides.
    probes: u64,
    /// Window edges that moved, both sides: each read one row and
    /// recombined one side.
    moves: u64,
    /// Cells with `den > 0`, whose residual was computed.
    included: u64,
}

impl Tally {
    /// Charges a thread of a degree-`deg` kernel that answered `k` cells
    /// with these tallies:
    ///
    /// * at its start, the `x_i`/`y_i` reads, the `deg` powers of −xc_i,
    ///   and its two self rows with their sides;
    /// * per cell, the bandwidth's constant read, `1/h`, the `7·(deg+1)`
    ///   flops of the `N/D` assembly and its branch, and the shared
    ///   partial-row access;
    /// * per probe, a divergent read, a flop and a branch
    ///   ([`charge_probes`]);
    /// * per moved edge, the `4·(deg+1)` divergent words of its row and the
    ///   flops of [`side`]; per included cell, the residual's 3 flops;
    /// * and the barrier at its end.
    fn charge(&self, deg: usize, k: usize, c: &mut ThreadCounters) {
        let (deg, k) = (deg as u64, k as u64);
        let row = 4 * (deg + 1);
        // Differences, then Σ_j 5·(j + 1) recombination flops.
        let side = 6 * (deg + 1) + 5 * (deg + 1) * (deg + 2) / 2;
        c.global_read(2 + row * (2 + self.moves));
        c.flop(deg + side * (2 + self.moves));
        c.constant_read(k);
        c.flop(k * (1 + 7 * (deg + 1)) + 3 * self.included);
        c.branch(k);
        c.shared_access(k);
        charge_probes(self.probes, c);
        c.sync();
    }
}

/// One thread of the windowed main kernel: the observation at sorted
/// position `si`, answering all `k` of its cells.
///
/// The thread reads its two self rows `si` and `si + 1` once
/// ([`Self::start`]). Per bandwidth (ascending, [`Self::cell`]) it advances
/// its [`SupportWindow`]: each edge search starts from the edge the
/// previous bandwidth's move predicts. The window splits at `si`, which
/// excludes the self observation. A side whose edge did not move keeps its
/// windowed power sums `S_j`/`SY_j` from the previous bandwidth. A side
/// whose edge moved reads only the new edge row, differences it against
/// its self row for every moment of both tables, and binomially recombines
/// the differences. The thread then assembles `N/D` exactly like every
/// other strategy and adds the squared residual to its block's shared
/// partial row. It returns to the caller between bandwidths, so the launch
/// can step a group of threads together, and it tallies what it did
/// ([`Tally`]) instead of charging counters as it goes.
///
/// `kcv-gpu-sim` has no register-file model, so the words a thread keeps
/// live are not charged. Besides the per-side sums `S_j`/`SY_j`, a thread
/// keeps its two self rows live across the sweep: `8·(deg+1)` extra words
/// (24 for the quadratic kernel, 56 at degree 6).
struct WindowedThread<'a, W> {
    xi: f32,
    yi: f32,
    /// Powers of −xc_i.
    npow: [W; MAX_DEVICE_DEGREE + 1],
    /// Row `si`: the left side is `[lo, si)`.
    self_left: &'a [W],
    /// Row `si + 1`: the right side is `[si + 1, hi)`.
    self_right: &'a [W],
    /// Left side's `S_j` and `SY_j`.
    wl: [W; MAX_DEVICE_DEGREE + 1],
    wyl: [W; MAX_DEVICE_DEGREE + 1],
    /// Right side's `S_j` and `SY_j`.
    wr: [W; MAX_DEVICE_DEGREE + 1],
    wyr: [W; MAX_DEVICE_DEGREE + 1],
    window: SupportWindow,
    tally: Tally,
}

impl<'a, W: TableWord> WindowedThread<'a, W> {
    /// Reads the thread's observation and self rows; both sides start
    /// empty.
    fn start(si: usize, args: &WindowedArgs<'a, W>) -> Self {
        let deg = args.deg;
        debug_assert!(deg <= MAX_DEVICE_DEGREE);
        let xi = args.xs[si];
        let yi = args.ys[si];
        let xci = W::centred(xi, args.center);
        let mut npow = [W::ZERO; MAX_DEVICE_DEGREE + 1];
        npow[0] = W::ONE;
        for m in 1..=deg {
            npow[m] = npow[m - 1] * -xci;
        }
        let self_left = args.row(si);
        let self_right = args.row(si + 1);
        let mut thread = Self {
            xi,
            yi,
            npow,
            self_left,
            self_right,
            wl: [W::ZERO; MAX_DEVICE_DEGREE + 1],
            wyl: [W::ZERO; MAX_DEVICE_DEGREE + 1],
            wr: [W::ZERO; MAX_DEVICE_DEGREE + 1],
            wyr: [W::ZERO; MAX_DEVICE_DEGREE + 1],
            window: SupportWindow::new(si),
            tally: Tally::default(),
        };
        side(
            args,
            &npow,
            self_left,
            self_left,
            &mut thread.wl,
            &mut thread.wyl,
        );
        side(
            args,
            &npow,
            self_right,
            self_right,
            &mut thread.wr,
            &mut thread.wyr,
        );
        thread
    }

    /// The squared residual of the thread's cell at bandwidth `h`, the
    /// next of the ascending grid, accumulated into the block's shared
    /// partial row slot `acc`.
    fn cell(&mut self, h: f32, args: &WindowedArgs<'a, W>, acc: &mut f32) {
        let inv_h = 1.0 / h;
        let (lo_prev, hi_prev) = (self.window.lo, self.window.hi);
        let [l, r] = self.window.advance(args.xs, self.xi, inv_h, args.radius);
        self.tally.probes += u64::from(l + r);
        if self.window.lo != lo_prev {
            let edge = args.row(self.window.lo);
            side(
                args,
                &self.npow,
                edge,
                self.self_left,
                &mut self.wl,
                &mut self.wyl,
            );
            self.tally.moves += 1;
        }
        if self.window.hi != hi_prev {
            let edge = args.row(self.window.hi);
            side(
                args,
                &self.npow,
                self.self_right,
                edge,
                &mut self.wr,
                &mut self.wyr,
            );
            self.tally.moves += 1;
        }

        // d = x_i − x_l on the left, x_l − x_i on the right:
        // S_j = W_j^right + (−1)^j·W_j^left, then the standard
        // N/D = Σ_j c_j·h^{-j}·{SY_j, S_j} assembly.
        let inv = W::from_f32(inv_h);
        let (mut hp, mut num, mut den, mut sign) = (W::ONE, W::ZERO, W::ZERO, W::ONE);
        for (j, &cf) in args.coeffs.iter().enumerate() {
            let s_j = self.wr[j] + sign * self.wl[j];
            let sy_j = self.wyr[j] + sign * self.wyl[j];
            let cf = W::from_f32(cf);
            num += cf * hp * sy_j;
            den += cf * hp * s_j;
            hp *= inv;
            sign = -sign;
        }
        let (num, den) = (num.to_f32(), den.to_f32());
        *acc += if den > 0.0 {
            self.tally.included += 1;
            let r = self.yi - num / den;
            r * r
        } else {
            // M(X_i) = 0 at this h: the observation contributes nothing.
            0.0
        };
    }
}

/// Windowed moments `w`/`wy` of one side `[a, b)` from its two boundary
/// rows: prefix differencing + binomial recombination with the powers
/// `npow` of −xc_i.
fn side<W: TableWord>(
    args: &WindowedArgs<'_, W>,
    npow: &[W],
    a: &[W],
    b: &[W],
    w: &mut [W],
    wy: &mut [W],
) {
    let (deg, bw, p) = (args.deg, args.deg + 1, W::PER_VALUE);
    let mut dp = [W::ZERO; MAX_DEVICE_DEGREE + 1];
    let mut dq = [W::ZERO; MAX_DEVICE_DEGREE + 1];
    for m in 0..=deg {
        // Moment m's P words, then its Q words.
        let (pm, qm) = (2 * m * p, (2 * m + 1) * p);
        dp[m] = W::difference(&a[pm..pm + p], &b[pm..pm + p]);
        dq[m] = W::difference(&a[qm..qm + p], &b[qm..qm + p]);
    }
    for j in 0..=deg {
        let row = &args.binom[j * bw..j * bw + j + 1];
        let (mut s, mut sy) = (W::ZERO, W::ZERO);
        for (m, &cf) in row.iter().enumerate() {
            let coeff = cf * npow[j - m];
            s += coeff * dp[m];
            sy += coeff * dq[m];
        }
        w[j] = s;
        wy[j] = sy;
    }
}

/// Threads the scalar path steps together on the host: a warp of the
/// paper's device. Any grouping gives the same results and counts (each
/// thread's cells are its own, and each `acc[m]` still folds in thread
/// order); this one lets independent threads' edge searches overlap.
const GROUP: usize = 32;

/// Runs the threads of one block on the scalar path — thread `i` of
/// `counters` answers sorted position `first + i` — folding each
/// bandwidth's squared residuals into `acc` in thread order and charging
/// each thread's counters once. Returns the block's edge probes.
fn scalar_block<W: TableWord>(
    args: &WindowedArgs<'_, W>,
    first: usize,
    acc: &mut [f32],
    counters: &mut [ThreadCounters],
) -> u64 {
    let mut probes = 0;
    for (g, counters) in counters.chunks_mut(GROUP).enumerate() {
        // A partial group's idle slots repeat its last thread; they are
        // neither stepped nor charged.
        let (first, live) = (first + g * GROUP, counters.len());
        let mut group: [WindowedThread<'_, W>; GROUP] =
            std::array::from_fn(|i| WindowedThread::start(first + i.min(live - 1), args));
        let group = &mut group[..live];
        for (slot, &h) in acc.iter_mut().zip(args.bandwidths) {
            for thread in group.iter_mut() {
                thread.cell(h, args, slot);
            }
        }
        for (thread, c) in group.iter().zip(counters) {
            thread.tally.charge(args.deg, args.bandwidths.len(), c);
            probes += thread.tally.probes;
        }
    }
    probes
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
    run_program::<Windowed>(x, y, grid, config, kernel)
}

/// The device-resident row-major prefix tables, in the precision the
/// kernel degree calls for; both spend 8 device bytes per entry.
enum TableRows {
    Pair(DeviceBuffer<f32>),
    F64(DeviceBuffer<f64>),
}

/// The windowed program: the sorted sample, the prefix tables and the
/// bandwidth-major block partials on the device, the host-built tables
/// they were uploaded from, the windowed kernel and the block fold.
pub(crate) struct Windowed {
    xs: DeviceBuffer<f32>,
    ys: DeviceBuffer<f32>,
    rows: TableRows,
    partials: DeviceBuffer<f32>,
    /// Declared last, so that it is freed after the device buffers.
    tables: WindowedTables,
}

impl DeviceProgram for Windowed {
    fn allocate(x: &[f64], y: &[f64], pool: &MemoryPool, device: &Device<'_>) -> Result<Self> {
        let tables = WindowedTables::build(x, y, device.kernel.degree());
        let xs = upload(pool, &tables.xs32)?;
        let ys = upload(pool, &tables.ys32)?;
        let rows = if device.kernel.degree() >= F64_TABLE_DEGREE {
            TableRows::F64(tables.upload_rows(pool)?)
        } else {
            TableRows::Pair(tables.upload_rows(pool)?)
        };
        // Block partials, bandwidth-major so the per-bandwidth reductions
        // read consecutive addresses.
        let n = tables.xs32.len();
        let partials = pool.alloc::<f32>(n.div_ceil(device.tpb) * device.k)?;
        Ok(Self {
            xs,
            ys,
            rows,
            partials,
            tables,
        })
    }

    fn launch(
        &mut self,
        device: &Device<'_>,
        bandwidths: &[f32],
    ) -> Result<(LaunchReport, Residuals<'_>)> {
        let (xs, ys, partials) = (
            self.xs.as_slice(),
            self.ys.as_slice(),
            self.partials.as_mut_slice(),
        );
        let t = &self.tables;
        let report = match &self.rows {
            TableRows::Pair(rows) => {
                t.launch_rows(xs, ys, rows.as_slice(), partials, device, bandwidths)
            }
            TableRows::F64(rows) => {
                t.launch_rows(xs, ys, rows.as_slice(), partials, device, bandwidths)
            }
        }?;
        Ok((
            report,
            Residuals {
                values: self.partials.as_slice(),
                bandwidth_major: true,
            },
        ))
    }
}

impl WindowedTables {
    /// Launches the windowed kernel in precision `W` over these tables,
    /// uploaded as `xs`, `ys` and `rows`, and flushes the block partials
    /// into the device partial matrix.
    fn launch_rows<W: TableWord>(
        &self,
        xs: &[f32],
        ys: &[f32],
        rows: &[W],
        partials: &mut [f32],
        device: &Device<'_>,
        bandwidths: &[f32],
    ) -> Result<LaunchReport> {
        let (threads, k, tpb) = (xs.len(), device.k, device.tpb);
        let binom: Vec<W> = self.binom.iter().map(|&v| W::from_f64(v)).collect();
        let args = WindowedArgs {
            xs,
            ys,
            rows,
            center: self.center,
            binom: &binom,
            bandwidths,
            coeffs: device.kernel.coeffs.as_slice(),
            radius: device.kernel.radius,
            deg: device.kernel.degree(),
        };
        // Each block's shared partial row, one after another, and the edge
        // probes its threads spent.
        let num_blocks = threads.div_ceil(tpb);
        let mut block_rows = vec![0.0f32; num_blocks * k];
        let mut block_probes = vec![0u64; num_blocks];
        let workspaces: Vec<(&mut [f32], &mut u64)> = block_rows
            .chunks_mut(k)
            .zip(block_probes.iter_mut())
            .collect();
        // Main kernel: one thread per sorted position, a block at a time. A
        // block runs its threads in groups that step together
        // bandwidth by bandwidth, as a warp's threads run in lockstep: eight
        // AVX2 lanes where this precision and host have them, else groups
        // of the scalar thread. Each bandwidth's residuals still fold into
        // the block's row in thread order, and each thread charges its own
        // counters when its group ends. The path is chosen here, on the
        // launching thread.
        let lane_block = W::lane_block(&args);
        let report = launch_block_kernel(
            &device.config.spec,
            &device.config.cost,
            LaunchConfig::new(threads, tpb),
            workspaces,
            |tids, (acc, probes), counters| {
                let first = tids.start;
                **probes = match lane_block {
                    // SAFETY: `lane_block` returned the lanes for these
                    // tables on this host, and every position answered
                    // indexes `xs`.
                    Some(block) => unsafe { block(&args, first, acc, counters) },
                    None => scalar_block(&args, first, acc, counters),
                };
                // The block's leader flushes the block's accumulated partial
                // row to the device partial matrix — k consecutive
                // bandwidth-major slots per block, a coalesced store.
                counters[0].global_coalesced(k as u64);
            },
        )?;
        kcv_obs::add(kcv_obs::Counter::WindowQueries, (threads * k) as u64);
        kcv_obs::add(
            kcv_obs::Counter::BinarySearchProbes,
            block_probes.iter().sum(),
        );

        // The flushes: block b's row lands in slot b of every bandwidth's
        // row of the partial matrix.
        for (b, row) in block_rows.chunks(k).enumerate() {
            for (m, &v) in row.iter().enumerate() {
                partials[m * num_blocks + b] = v;
            }
        }
        Ok(report)
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
thread_local! {
    /// Keeps launches from this thread off the lanes.
    static SCALAR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with this thread's windowed launches on the scalar path (a
/// launch picks its path on the launching thread).
#[cfg(test)]
fn with_scalar<T>(f: impl FnOnce() -> T) -> T {
    let before = SCALAR.with(|s| s.replace(true));
    let out = f();
    SCALAR.with(|s| s.set(before));
    out
}

/// Whether this thread's launches stay scalar ([`with_scalar`]).
#[cfg(all(test, target_arch = "x86_64"))]
fn scalar_forced() -> bool {
    SCALAR.with(std::cell::Cell::get)
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
                let [l, r] = window.advance(&xs, xi, inv_h, radius);
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

    /// Every field a windowed run reports, as bits: bandwidth, score,
    /// profile, simulated seconds and cycles, bytes, and the main-kernel
    /// and reduction counters.
    fn run_bits(run: &WindowedRun) -> Vec<u64> {
        let r = &run.report;
        let mut bits = vec![run.bandwidth.to_bits(), run.score.to_bits()];
        for profile in [&run.bandwidths, &run.scores] {
            bits.extend(profile.iter().map(|v| u64::from(v.to_bits())));
        }
        bits.extend(
            [
                r.total_simulated_seconds,
                r.main_kernel.simulated_seconds,
                r.main_kernel.simulated_cycles,
                r.reduction_seconds,
                r.transfer_seconds,
            ]
            .map(f64::to_bits),
        );
        bits.extend([r.device_bytes_peak as u64, r.h2d_bytes, r.d2h_bytes]);
        for c in [&r.main_kernel.totals, &r.reduction_totals] {
            bits.extend([
                c.flops,
                c.global_reads,
                c.global_writes,
                c.global_coalesced,
                c.shared_accesses,
                c.constant_reads,
                c.branches,
                c.syncs,
            ]);
        }
        bits
    }

    /// The samples and grids the lanes are checked on, by name.
    fn lane_cases() -> Vec<(String, Vec<f64>, Vec<f64>, BandwidthGrid)> {
        let dgp = |n: usize, seed: u64| {
            let mut rng = kcv_core::util::SplitMix64::new(seed);
            let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let y: Vec<f64> = x
                .iter()
                .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
                .collect();
            (x, y)
        };
        let mut cases = Vec::new();
        // device_golden.rs's cases.
        for n in [120, 600] {
            for seed in [7, 1013] {
                let (x, y) = dgp(n, seed);
                let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
                cases.push((format!("golden n{n} s{seed}"), x, y, grid));
            }
        }
        let (x, y) = dgp(100, 5);
        // 100 threads: every block's last lane group holds 4 threads.
        let paper = BandwidthGrid::paper_default(&x, 20).unwrap();
        cases.push(("partial".into(), x.clone(), y.clone(), paper));
        // The smallest bandwidth covers the domain: every edge is pinned
        // from the first bandwidth on.
        let covering = BandwidthGrid::linear(1.5, 3.0, 6).unwrap();
        cases.push(("covering".into(), x.clone(), y.clone(), covering));
        let geometric = BandwidthGrid::log(1e-3, 0.6, 30).unwrap();
        cases.push(("geometric".into(), x.clone(), y.clone(), geometric));
        // 1e-39 is an f32 subnormal, so its f32 1/h is +inf.
        let overflow = BandwidthGrid::from_values(vec![1e-39, 1e-3, 0.05, 0.4]).unwrap();
        cases.push(("1/h = +inf".into(), x.clone(), y.clone(), overflow));
        // Eighths: nine distinct keys, so long runs of duplicates.
        let lattice: Vec<f64> = x.iter().map(|v| (v * 8.0).round() / 8.0).collect();
        let grid = BandwidthGrid::linear(0.05, 0.5, 12).unwrap();
        cases.push(("duplicates".into(), lattice, y, grid));
        cases
    }

    #[test]
    fn lanes_report_the_scalar_bits() {
        #[cfg(target_arch = "x86_64")]
        assert_eq!(lanes::enabled(), is_x86_feature_detected!("avx2"));
        for (name, x, y, grid) in lane_cases() {
            for kernel in kcv_core::kernels::polynomial_kernels() {
                let kernel = GpuKernel::from_core(kernel.as_ref());
                for tpb in [512, 64] {
                    let config = GpuConfig::default().with_threads_per_block(tpb);
                    let run =
                        || select_bandwidth_gpu_windowed_kernel(&x, &y, &grid, &config, &kernel);
                    let (lanes, scalar) = (run().unwrap(), with_scalar(run).unwrap());
                    assert_eq!(
                        run_bits(&lanes),
                        run_bits(&scalar),
                        "{name}, {}, {tpb}-thread blocks",
                        kernel.name
                    );
                }
            }
        }
    }

    /// One-core cost of a windowed launch at the `oneshot` shape (paper
    /// DGP, n = 2·10⁴, the paper-default k = 100, Epanechnikov), scalar
    /// against lanes: the median (p25–p75) main-kernel host milliseconds of
    /// 11 alternating calls each. Pin the process to one core (`taskset -c
    /// 0`) to read per-core cost: `cargo test --offline --release -p kcv-gpu
    /// --lib lanes_vs_scalar_table -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing table; run by hand in release"]
    fn lanes_vs_scalar_table() {
        let (x, y) = paper_data(20_000, 45);
        let grid = BandwidthGrid::paper_default(&x, 100).unwrap();
        let config = GpuConfig::default();
        let launch_ms = || {
            let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &config).unwrap();
            run.report.main_kernel.host_seconds * 1e3
        };
        let (mut scalar, mut lanes) = (Vec::new(), Vec::new());
        for _ in 0..11 {
            scalar.push(with_scalar(launch_ms));
            lanes.push(launch_ms());
        }
        let quartiles = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
            (at(0.5), at(0.25), at(0.75))
        };
        let (s, l) = (quartiles(&mut scalar), quartiles(&mut lanes));
        println!("| path | launch ms |");
        println!("|---|---|");
        println!("| scalar | {:.1} ({:.1}–{:.1}) |", s.0, s.1, s.2);
        println!("| lanes | {:.1} ({:.1}–{:.1}) |", l.0, l.1, l.2);
        println!("lanes / scalar: {:.2}", l.0 / s.0);
    }

    #[test]
    fn report_accounts_windowed_traffic() {
        let (x, y) = paper_data(80, 4);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let r = &run.report;
        assert_eq!((r.n, r.k, r.deg), (80, 10, 2));
        // H2D: xs, ys (n f32 each) + the row-major pair tables, uploaded
        // as four strided copies of (deg+1)·(n+1) f32 each.
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

//! The AVX2 lanes of the windowed kernel's pair-f32 path: eight simulated
//! threads per step, each lane running the scalar thread's operations in
//! the scalar thread's order (see the parent module's "Lanes" section for
//! why the bits and the counts are the same).

use super::{Tally, WindowedArgs};
use crate::device_search::lanes::WindowLanes;
use kcv_gpu_sim::ThreadCounters;
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Threads per lane step: eight f32 lanes of a 256-bit register.
const LANES: usize = 8;

/// Whether the pair-f32 kernel runs in lanes: the host has AVX2, detected
/// once per process. (In this crate's tests a thread can keep it scalar.)
pub(super) fn enabled() -> bool {
    #[cfg(test)]
    if super::scalar_forced() {
        return false;
    }
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Whether the lanes can index `args`' tables: every word offset, and so
/// every position, fits an `i32` (the lanes' positions and gather
/// offsets).
pub(super) fn fits(args: &WindowedArgs<'_, f32>) -> bool {
    args.rows.len() <= i32::MAX as usize
}

/// Runs the threads of one block in lane steps — thread `i` of `counters`
/// answers sorted position `first + i` — folding each bandwidth's squared
/// residuals into `acc` in thread order and charging each thread's
/// counters once. Returns the block's edge probes.
///
/// # Safety
/// The host has AVX2 ([`enabled`]), `args` [`fits`], the kernel degree is
/// at most 4 (pair tables), and every position answered indexes `xs`.
pub(super) unsafe fn run_block(
    args: &WindowedArgs<'_, f32>,
    first: usize,
    acc: &mut [f32],
    counters: &mut [ThreadCounters],
) -> u64 {
    // SAFETY: the caller's contract, with the width of the degree.
    unsafe {
        match args.deg {
            0 => block::<1>(args, first, acc, counters),
            1 => block::<2>(args, first, acc, counters),
            2 => block::<3>(args, first, acc, counters),
            3 => block::<4>(args, first, acc, counters),
            4 => block::<5>(args, first, acc, counters),
            deg => unreachable!("pair tables stop at degree 4, not {deg}"),
        }
    }
}

/// [`run_block`] for kernels of `W = deg + 1` coefficients.
///
/// # Safety
/// As [`run_block`], with `W = args.deg + 1`.
#[target_feature(enable = "avx2")]
unsafe fn block<const W: usize>(
    args: &WindowedArgs<'_, f32>,
    first: usize,
    acc: &mut [f32],
    counters: &mut [ThreadCounters],
) -> u64 {
    let k = args.bandwidths.len();
    let mut probes = 0;
    let mut sq = [0.0f32; LANES];
    for (g, counters) in counters.chunks_mut(LANES).enumerate() {
        // A partial group's idle lanes repeat its last thread; their
        // results are neither folded nor charged.
        let live = counters.len();
        let last = first + g * LANES + live - 1;
        let si: [i32; LANES] = std::array::from_fn(|i| (first + g * LANES + i).min(last) as i32);
        // SAFETY: the caller's contract: every position indexes `xs`, the
        // tables fit the lanes' offsets, and W = deg + 1.
        let mut threads = unsafe { Threads::<W>::start(args, si) };
        for (slot, &h) in acc.iter_mut().zip(args.bandwidths) {
            // SAFETY: as above; every window stays inside [0, n].
            unsafe { threads.cell(h, args, &mut sq) };
            for &v in &sq[..live] {
                *slot += v;
            }
        }
        for (tally, c) in threads.tallies().iter().zip(counters) {
            tally.charge(args.deg, k, c);
            probes += tally.probes;
        }
    }
    probes
}

/// One table row's words for eight threads: moment `m`'s `P` pair and `Q`
/// pair at `[m][0..2]` and `[m][2..4]`, one lane per thread.
type RowLanes<const W: usize> = [[__m256; 4]; W];

/// Eight threads of the windowed main kernel, one per lane: the scalar
/// `WindowedThread`'s state, lane by lane, and its tallies.
struct Threads<const W: usize> {
    xi: __m256,
    yi: __m256,
    /// Powers of −xc_i.
    npow: [__m256; W],
    /// Rows `si` and `si + 1`.
    self_left: RowLanes<W>,
    self_right: RowLanes<W>,
    /// Left and right sides' `S_j` and `SY_j`.
    wl: [__m256; W],
    wyl: [__m256; W],
    wr: [__m256; W],
    wyr: [__m256; W],
    window: WindowLanes,
    /// Each lane's probes, edge moves and included cells.
    probes: __m256i,
    moves: __m256i,
    included: __m256i,
}

impl<const W: usize> Threads<W> {
    /// `WindowedThread::start` in every lane, lane `i` the thread at
    /// sorted position `si[i]`.
    ///
    /// # Safety
    /// The host has AVX2, `W = args.deg + 1`, `args` [`fits`], and every
    /// `si[i]` indexes `xs`.
    #[target_feature(enable = "avx2")]
    unsafe fn start(args: &WindowedArgs<'_, f32>, si: [i32; LANES]) -> Self {
        // SAFETY: the slice holds eight i32s.
        let si = unsafe { _mm256_loadu_si256(si.as_ptr().cast()) };
        let all = _mm256_set1_epi32(-1);
        // SAFETY: every position indexes `xs` (the caller's contract).
        let (xi, yi) = unsafe {
            (
                _mm256_i32gather_ps::<4>(args.xs.as_ptr(), si),
                _mm256_i32gather_ps::<4>(args.ys.as_ptr(), si),
            )
        };
        let xci = _mm256_sub_ps(xi, _mm256_set1_ps(args.center as f32));
        let neg = _mm256_xor_ps(xci, _mm256_set1_ps(-0.0));
        let mut npow = [_mm256_set1_ps(1.0); W];
        for m in 1..W {
            npow[m] = _mm256_mul_ps(npow[m - 1], neg);
        }
        // SAFETY: rows si and si + 1 ≤ n exist, and their offsets fit an
        // i32 (the caller's contract).
        let (self_left, self_right) = unsafe {
            (
                row::<W>(args.rows, si, all),
                row::<W>(args.rows, _mm256_add_epi32(si, _mm256_set1_epi32(1)), all),
            )
        };
        let (wl, wyl) = side(args.binom, &npow, &self_left, &self_left);
        let (wr, wyr) = side(args.binom, &npow, &self_right, &self_right);
        let zero = _mm256_setzero_si256();
        Self {
            xi,
            yi,
            npow,
            self_left,
            self_right,
            wl,
            wyl,
            wr,
            wyr,
            window: WindowLanes::new(si),
            probes: zero,
            moves: zero,
            included: zero,
        }
    }

    /// `WindowedThread::cell` in every lane at bandwidth `h`: stores each
    /// lane's squared residual (`+0.0` where `den ≤ 0`) in `sq`.
    ///
    /// # Safety
    /// As [`Self::start`], and `h` is no smaller than the last bandwidth.
    #[target_feature(enable = "avx2")]
    unsafe fn cell(&mut self, h: f32, args: &WindowedArgs<'_, f32>, sq: &mut [f32; LANES]) {
        let inv_h = 1.0 / h;
        let (lo_prev, hi_prev) = (self.window.lo(), self.window.hi());
        // SAFETY: xs.len() < 2³⁰ (the tables fit an i32 and hold four or
        // more words a position) and every window lies in [0, n].
        let (l, r) = unsafe {
            self.window.advance(
                args.xs,
                self.xi,
                _mm256_set1_ps(inv_h),
                _mm256_set1_ps(args.radius),
            )
        };
        self.probes = _mm256_add_epi32(self.probes, _mm256_add_epi32(l, r));
        let all = _mm256_set1_epi32(-1);
        let moved = _mm256_xor_si256(_mm256_cmpeq_epi32(self.window.lo(), lo_prev), all);
        if _mm256_testz_si256(moved, moved) == 0 {
            // SAFETY: every lo ≤ n is a row.
            let edge = unsafe { row::<W>(args.rows, self.window.lo(), moved) };
            let (w, wy) = side(args.binom, &self.npow, &edge, &self.self_left);
            blend(&mut self.wl, &w, moved);
            blend(&mut self.wyl, &wy, moved);
            self.moves = _mm256_sub_epi32(self.moves, moved);
        }
        let moved = _mm256_xor_si256(_mm256_cmpeq_epi32(self.window.hi(), hi_prev), all);
        if _mm256_testz_si256(moved, moved) == 0 {
            // SAFETY: every hi ≤ n is a row.
            let edge = unsafe { row::<W>(args.rows, self.window.hi(), moved) };
            let (w, wy) = side(args.binom, &self.npow, &self.self_right, &edge);
            blend(&mut self.wr, &w, moved);
            blend(&mut self.wyr, &wy, moved);
            self.moves = _mm256_sub_epi32(self.moves, moved);
        }

        // The scalar assembly, lane by lane; `cf·h^{-j}` and the sign are
        // the same in every lane, so they are computed once, in f32.
        let (mut hp, mut sign) = (1.0f32, 1.0f32);
        let (mut num, mut den) = (_mm256_setzero_ps(), _mm256_setzero_ps());
        for (j, &cf) in args.coeffs.iter().enumerate().take(W) {
            let sv = _mm256_set1_ps(sign);
            let s_j = _mm256_add_ps(self.wr[j], _mm256_mul_ps(sv, self.wl[j]));
            let sy_j = _mm256_add_ps(self.wyr[j], _mm256_mul_ps(sv, self.wyl[j]));
            let ch = _mm256_set1_ps(cf * hp);
            num = _mm256_add_ps(num, _mm256_mul_ps(ch, sy_j));
            den = _mm256_add_ps(den, _mm256_mul_ps(ch, s_j));
            hp *= inv_h;
            sign = -sign;
        }
        let include = _mm256_cmp_ps::<_CMP_GT_OQ>(den, _mm256_setzero_ps());
        let r = _mm256_sub_ps(self.yi, _mm256_div_ps(num, den));
        // SAFETY: `sq` holds eight f32s.
        unsafe {
            _mm256_storeu_ps(sq.as_mut_ptr(), _mm256_and_ps(include, _mm256_mul_ps(r, r)));
        }
        // An included lane is all ones, −1 as an integer.
        self.included = _mm256_sub_epi32(self.included, _mm256_castps_si256(include));
    }

    /// Each lane's tallies.
    #[target_feature(enable = "avx2")]
    fn tallies(&self) -> [Tally; LANES] {
        let [probes, moves, included] = [self.probes, self.moves, self.included].map(|v| {
            let mut out = [0i32; LANES];
            // SAFETY: `out` holds eight i32s.
            unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), v) };
            out
        });
        std::array::from_fn(|i| Tally {
            probes: probes[i] as u64,
            moves: moves[i] as u64,
            included: included[i] as u64,
        })
    }
}

/// The table row at each lane's position `at`, read in the lanes of
/// `mask` (zero elsewhere).
///
/// # Safety
/// The host has AVX2, and for every lane of `mask`, `at` is a row of the
/// `4W`-word rows at `rows` whose word offset fits an `i32`.
#[target_feature(enable = "avx2")]
unsafe fn row<const W: usize>(rows: &[f32], at: __m256i, mask: __m256i) -> RowLanes<W> {
    let offsets = _mm256_mullo_epi32(at, _mm256_set1_epi32(4 * W as i32));
    let (zero, mask) = (_mm256_setzero_ps(), _mm256_castsi256_ps(mask));
    let mut out = [[zero; 4]; W];
    for (m, words) in out.iter_mut().enumerate() {
        for (e, word) in words.iter_mut().enumerate() {
            // SAFETY: the caller's contract; word 4m + e lies in the row.
            *word = unsafe {
                _mm256_mask_i32gather_ps::<4>(zero, rows.as_ptr().add(4 * m + e), offsets, mask)
            };
        }
    }
    out
}

/// The scalar `side` in every lane: the windowed moments of `[a, b)` from
/// its two boundary rows, with the same differences and recombination
/// sums in the same order.
#[target_feature(enable = "avx2")]
fn side<const W: usize>(
    binom: &[f32],
    npow: &[__m256; W],
    a: &RowLanes<W>,
    b: &RowLanes<W>,
) -> ([__m256; W], [__m256; W]) {
    let zero = _mm256_setzero_ps();
    let (mut dp, mut dq) = ([zero; W], [zero; W]);
    for m in 0..W {
        let (a, b) = (&a[m], &b[m]);
        dp[m] = _mm256_add_ps(_mm256_sub_ps(b[0], a[0]), _mm256_sub_ps(b[1], a[1]));
        dq[m] = _mm256_add_ps(_mm256_sub_ps(b[2], a[2]), _mm256_sub_ps(b[3], a[3]));
    }
    let (mut w, mut wy) = ([zero; W], [zero; W]);
    for j in 0..W {
        let (mut s, mut sy) = (zero, zero);
        for m in 0..=j {
            let coeff = _mm256_mul_ps(_mm256_set1_ps(binom[j * W + m]), npow[j - m]);
            s = _mm256_add_ps(s, _mm256_mul_ps(coeff, dp[m]));
            sy = _mm256_add_ps(sy, _mm256_mul_ps(coeff, dq[m]));
        }
        w[j] = s;
        wy[j] = sy;
    }
    (w, wy)
}

/// Replaces `old` by `new` in the lanes of `mask`.
#[target_feature(enable = "avx2")]
fn blend<const W: usize>(old: &mut [__m256; W], new: &[__m256; W], mask: __m256i) {
    let mask = _mm256_castsi256_ps(mask);
    for (o, &v) in old.iter_mut().zip(new) {
        *o = _mm256_blendv_ps(*o, v, mask);
    }
}

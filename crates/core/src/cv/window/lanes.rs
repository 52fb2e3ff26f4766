//! The AVX2 lanes of [`WindowCursors::sweep`](super::WindowCursors::sweep):
//! four bandwidths of one observation at a time, each lane running the
//! scalar code's operations in the scalar code's order (see the parent
//! module's "Lanes" section for why the bits are the same).

use super::{CellRun, LcCell, Row, SentinelKeys, BLOCK};
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// Lanes per vector: four `f64` or `usize` in a 256-bit register.
const LANES: usize = 4;

/// The two passes of a sweep that run in lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Pass {
    /// The cursor steps.
    Step,
    /// The local-constant cells.
    Cell,
}

/// Whether `pass` runs in lanes: the host has AVX2, detected once per
/// process. (In this crate's tests a thread can keep either pass scalar.)
#[cfg_attr(not(test), allow(unused_variables))]
pub(super) fn enabled(pass: Pass) -> bool {
    #[cfg(test)]
    if super::scalar_forced(pass) {
        return false;
    }
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Steps the leading quads of `edges` as the scalar step does each cursor
/// (`edges[m]` that of inverse bandwidth `inv_hs[m]`): per lane, the count
/// of keys in the block of four at the cursor on which the predicate
/// holds, added to the cursor, repeated while any lane counted four.
/// Returns the number of cursors stepped, a multiple of four.
///
/// A lane that has stopped counts 0 in a repeat: its predicate holds on a
/// prefix of the keys from the cursor, so it fails on every key after the
/// one it stopped at.
///
/// # Safety
/// The host has AVX2, every cursor is at most `keys.n()`, and neither
/// predicate holds at `+inf` for any `inv_hs[m]`. Then a block's true keys
/// lie before the sentinels, so a cursor never passes `n`, and every
/// gather reads a key at most `n + BLOCK − 1`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn step_edges<const RIGHT: bool>(
    keys: &SentinelKeys,
    edges: &mut [usize],
    inv_hs: &[f64],
    xi: f64,
    radius: f64,
) -> usize {
    let quads = edges.len() / LANES * LANES;
    let base = keys.0.as_ptr();
    let (xi, radius) = (_mm256_set1_pd(xi), _mm256_set1_pd(radius));
    let full = _mm256_set1_epi64x(BLOCK as i64);
    for j in (0..quads).step_by(LANES) {
        let u = load(&inv_hs[j..j + LANES]);
        let mut at = load_usize(&edges[j..j + LANES]);
        loop {
            let mut count = _mm256_setzero_si256();
            for b in 0..BLOCK {
                // SAFETY: each lane's cursor is at most n (the caller's
                // contract, kept by every step), so the key read is at
                // most n + BLOCK − 1, inside the sentinel tail.
                let v = unsafe { _mm256_i64gather_pd::<8>(base.add(b), at) };
                let holds = if RIGHT {
                    _mm256_cmp_pd::<_CMP_LE_OQ>(_mm256_mul_pd(_mm256_sub_pd(v, xi), u), radius)
                } else {
                    _mm256_cmp_pd::<_CMP_GT_OQ>(_mm256_mul_pd(_mm256_sub_pd(xi, v), u), radius)
                };
                // A true lane is all ones, −1 as an integer.
                count = _mm256_sub_epi64(count, _mm256_castpd_si256(holds));
            }
            at = _mm256_add_epi64(at, count);
            let again = _mm256_cmpeq_epi64(count, full);
            if _mm256_movemask_pd(_mm256_castsi256_pd(again)) == 0 {
                break;
            }
        }
        store_usize(&mut edges[j..j + LANES], at);
    }
    quads
}

/// [`LcCell::score_quads`] on a host with AVX2: per quad, the four cells'
/// sides (gathered and differenced, or the hoisted side broadcast), the
/// trimmed Horners at the four inverse bandwidths, `num` and `den`, and
/// the masked accumulation. A lane at `1/h = +inf` is masked out, as the
/// scalar cell excludes it.
///
/// # Safety
/// The host has AVX2, and every window edge of `run` indexes `rows`.
#[target_feature(enable = "avx2")]
pub(super) unsafe fn score_quads<const W: usize, const LO_PINNED: bool, const HI_PINNED: bool>(
    cell: &LcCell<W>,
    rows: &[Row<W>],
    yi: f64,
    run: CellRun<'_>,
    sq_sums: &mut [f64],
    included: &mut [usize],
) -> usize {
    let quads = run.inv_hs.len() / LANES * LANES;
    let rows = rows.as_ptr().cast::<f64>();
    let yi = _mm256_set1_pd(yi);
    let (zero, inf) = (_mm256_setzero_pd(), _mm256_set1_pd(f64::INFINITY));
    for j in (0..quads).step_by(LANES) {
        let u = load(&run.inv_hs[j..j + LANES]);
        let lo = row_offsets::<W>(&run.lo[j..j + LANES]);
        let hi = row_offsets::<W>(&run.hi[j..j + LANES]);
        // SAFETY: every window edge indexes `rows` (the caller's
        // contract), so each gathered entry lies in one of its rows.
        let (num, den) = unsafe {
            if cell.even {
                quad::<W, LO_PINNED, HI_PINNED, true>(cell, rows, u, lo, hi)
            } else {
                quad::<W, LO_PINNED, HI_PINNED, false>(cell, rows, u, lo, hi)
            }
        };
        let include = _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GT_OQ>(den, zero),
            _mm256_cmp_pd::<_CMP_LT_OQ>(u, inf),
        );
        let resid = _mm256_sub_pd(yi, _mm256_div_pd(num, den));
        // An excluded lane adds +0.0, which leaves every sum but −0.0
        // unchanged, and a sum of squares is never −0.0.
        let sq = _mm256_and_pd(include, _mm256_mul_pd(resid, resid));
        let sums = &mut sq_sums[j..j + LANES];
        store(sums, _mm256_add_pd(load(sums), sq));
        // An included lane is all ones, −1 as an integer.
        let counts = &mut included[j..j + LANES];
        store_usize(
            counts,
            _mm256_sub_epi64(load_usize(counts), _mm256_castpd_si256(include)),
        );
    }
    quads
}

/// `(num, den)` of four cells of one observation at the inverse
/// bandwidths `u`, from the rows at the `f64` offsets `lo` and `hi` (or
/// the hoisted sides of pinned edges): [`LcCell::score`]'s trimmed form,
/// lane by lane.
///
/// # Safety
/// The host has AVX2, and every offset of an unpinned edge is that of a
/// row of the table at `rows`.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn quad<const W: usize, const LO_PINNED: bool, const HI_PINNED: bool, const EVEN: bool>(
    cell: &LcCell<W>,
    rows: *const f64,
    u: __m256d,
    lo: __m256i,
    hi: __m256i,
) -> (__m256d, __m256d) {
    let neg_u = _mm256_xor_pd(u, _mm256_set1_pd(-0.0));
    let (sl, sr, pr) = (&cell.self_left, &cell.self_right, &cell.pinned_right);
    let mut num = _mm256_setzero_pd();
    let mut den = _mm256_setzero_pd();
    for m in 0..W {
        let ar = horner(&cell.right[m], m, u, EVEN);
        let al = if EVEN {
            ar
        } else {
            horner(&cell.right[m], m, neg_u, false)
        };
        let (lp, lq) = if LO_PINNED {
            (_mm256_set1_pd(sl.p[m]), _mm256_set1_pd(sl.q[m]))
        } else {
            // SAFETY: the offsets are rows' (the caller's contract), and
            // entries m and W + m lie in the row.
            unsafe {
                (
                    _mm256_sub_pd(_mm256_set1_pd(sl.p[m]), gather(rows, m, lo)),
                    _mm256_sub_pd(_mm256_set1_pd(sl.q[m]), gather(rows, W + m, lo)),
                )
            }
        };
        let (rp, rq) = if HI_PINNED {
            (_mm256_set1_pd(pr.p[m]), _mm256_set1_pd(pr.q[m]))
        } else {
            // SAFETY: as the left side's.
            unsafe {
                (
                    _mm256_sub_pd(gather(rows, m, hi), _mm256_set1_pd(sr.p[m])),
                    _mm256_sub_pd(gather(rows, W + m, hi), _mm256_set1_pd(sr.q[m])),
                )
            }
        };
        den = _mm256_add_pd(
            den,
            _mm256_add_pd(_mm256_mul_pd(ar, rp), _mm256_mul_pd(al, lp)),
        );
        num = _mm256_add_pd(
            num,
            _mm256_add_pd(_mm256_mul_pd(ar, rq), _mm256_mul_pd(al, lq)),
        );
    }
    (num, den)
}

/// [`trimmed_horner`](super::trimmed_horner) in four lanes: the same
/// steps, skipped or kept by the same rules, in the same order.
#[target_feature(enable = "avx2")]
#[inline]
fn horner<const W: usize>(b: &[f64; W], m: usize, u: __m256d, skip_odd: bool) -> __m256d {
    let mut a = _mm256_set1_pd(b[W - 1]);
    for j in (0..W - 1).rev() {
        a = _mm256_mul_pd(a, u);
        if j >= m && !(skip_odd && j % 2 == 1) {
            a = _mm256_add_pd(a, _mm256_set1_pd(b[j]));
        }
    }
    a
}

/// Entry `e` of the row at each lane's `f64` offset `at` in the table at
/// `rows`.
///
/// # Safety
/// The host has AVX2, and every lane's `at + e` indexes the table.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn gather(rows: *const f64, e: usize, at: __m256i) -> __m256d {
    // SAFETY: the caller's contract.
    unsafe { _mm256_i64gather_pd::<8>(rows.add(e), at) }
}

/// The `f64` offsets `row·2W` of four rows of width `W`, as a sum of
/// shifts (AVX2 has no 64-bit multiply). Exact: a row index is at most
/// the table's length, whose byte size fits an `isize`.
#[target_feature(enable = "avx2")]
#[inline]
fn row_offsets<const W: usize>(rows: &[usize]) -> __m256i {
    let row = load_usize(rows);
    let mut shifted = _mm256_add_epi64(row, row);
    let mut offset = _mm256_setzero_si256();
    let mut w = W;
    while w > 0 {
        if w & 1 == 1 {
            offset = _mm256_add_epi64(offset, shifted);
        }
        shifted = _mm256_add_epi64(shifted, shifted);
        w >>= 1;
    }
    offset
}

/// The first four values of `v`.
#[target_feature(enable = "avx2")]
#[inline]
fn load(v: &[f64]) -> __m256d {
    let v = &v[..LANES];
    // SAFETY: the slice holds four f64s.
    unsafe { _mm256_loadu_pd(v.as_ptr()) }
}

/// Stores `x` into the first four values of `v`.
#[target_feature(enable = "avx2")]
#[inline]
fn store(v: &mut [f64], x: __m256d) {
    let v = &mut v[..LANES];
    // SAFETY: the slice holds four f64s.
    unsafe { _mm256_storeu_pd(v.as_mut_ptr(), x) }
}

/// The first four values of `v`.
#[target_feature(enable = "avx2")]
#[inline]
fn load_usize(v: &[usize]) -> __m256i {
    let v = &v[..LANES];
    // SAFETY: the slice holds four usizes, 64-bit on x86_64.
    unsafe { _mm256_loadu_si256(v.as_ptr().cast()) }
}

/// Stores `x` into the first four values of `v`.
#[target_feature(enable = "avx2")]
#[inline]
fn store_usize(v: &mut [usize], x: __m256i) {
    let v = &mut v[..LANES];
    // SAFETY: the slice holds four usizes, 64-bit on x86_64.
    unsafe { _mm256_storeu_si256(v.as_mut_ptr().cast(), x) }
}

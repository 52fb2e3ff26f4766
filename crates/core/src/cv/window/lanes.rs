//! The lanes of [`WindowCursors::sweep`](super::WindowCursors::sweep): four
//! (AVX2) or eight (AVX-512) bandwidths of one observation at a time, each
//! lane running the scalar code's operations in the scalar code's order
//! (see the parent module's "Lanes" section for why the bits are the same).
//!
//! Each pass has one width-generic body, written against the private
//! [`Isa`] trait and instantiated in one `#[target_feature]` entry per
//! instruction set. AVX-512 covers every run to its end, the last partial
//! vector under a mask; AVX2 leaves a run's `k mod 4` tail to the scalar
//! code.

use super::{CellRun, LcCell, Path, Row, SentinelKeys, BLOCK};
use std::arch::x86_64::*;
use std::sync::OnceLock;

/// The two passes of a sweep that run in lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Pass {
    /// The cursor steps.
    Step,
    /// The local-constant cells.
    Cell,
}

/// The widest lanes the host has, detected once per process.
pub(super) fn host() -> Path {
    static HOST: OnceLock<Path> = OnceLock::new();
    *HOST.get_or_init(|| {
        if is_x86_feature_detected!("avx512f") {
            Path::Avx512
        } else if is_x86_feature_detected!("avx2") {
            Path::Avx2
        } else {
            Path::Scalar
        }
    })
}

/// The lanes `pass` runs in: the host's widest. (In this crate's tests a
/// thread can narrow either pass.)
#[cfg_attr(not(test), allow(unused_variables))]
fn path(pass: Pass) -> Path {
    let host = host();
    #[cfg(test)]
    let host = host.min(super::widest(pass));
    host
}

/// Steps the cursors `edges` as the scalar step does each one (`edges[m]`
/// that of inverse bandwidth `inv_hs[m]`): per lane, the count of keys in
/// the block of four at the cursor on which the predicate holds, added to
/// the cursor, repeated while any lane counted four. Returns the number of
/// leading cursors stepped: all of them on AVX-512, a multiple of four on
/// AVX2, none without lanes.
///
/// A lane that has stopped counts 0 in a repeat: its predicate holds on a
/// prefix of the keys from the cursor, so it fails on every key after the
/// one it stopped at.
///
/// # Safety
/// Every cursor is at most `keys.n()`, and neither predicate holds at
/// `+inf` for any `inv_hs[m]`. Then a block's true keys lie before the
/// sentinels, so a cursor never passes `n`, and every gather reads a key
/// at most `n + BLOCK − 1`.
pub(super) unsafe fn step_edges<const RIGHT: bool>(
    keys: &SentinelKeys,
    edges: &mut [usize],
    inv_hs: &[f64],
    xi: f64,
    radius: f64,
) -> usize {
    let inv_hs = &inv_hs[..edges.len()];
    // SAFETY: `path` never exceeds the host's lanes, and the caller's
    // contract is each entry's.
    unsafe {
        match path(Pass::Step) {
            Path::Avx512 => step_avx512::<RIGHT>(keys, edges, inv_hs, xi, radius),
            Path::Avx2 => step_avx2::<RIGHT>(keys, edges, inv_hs, xi, radius),
            Path::Scalar => 0,
        }
    }
}

/// [`step_edges`] in eight lanes.
///
/// # Safety
/// The host has AVX-512F, `inv_hs` is as long as `edges`, and
/// [`step_edges`]' contract.
#[target_feature(enable = "avx512f")]
unsafe fn step_avx512<const RIGHT: bool>(
    keys: &SentinelKeys,
    edges: &mut [usize],
    inv_hs: &[f64],
    xi: f64,
    radius: f64,
) -> usize {
    // SAFETY: the caller's contract.
    unsafe { step_run::<_, RIGHT>(Avx512::new(), keys, edges, inv_hs, xi, radius) }
}

/// [`step_edges`] in four lanes.
///
/// # Safety
/// The host has AVX2, `inv_hs` is as long as `edges`, and [`step_edges`]'
/// contract.
#[target_feature(enable = "avx2")]
unsafe fn step_avx2<const RIGHT: bool>(
    keys: &SentinelKeys,
    edges: &mut [usize],
    inv_hs: &[f64],
    xi: f64,
    radius: f64,
) -> usize {
    // SAFETY: the caller's contract.
    unsafe { step_run::<_, RIGHT>(Avx2::new(), keys, edges, inv_hs, xi, radius) }
}

/// [`step_edges`]' body over the lanes `l`: the full vectors, then the
/// masked tail where `l` has one.
///
/// # Safety
/// `inv_hs` is as long as `edges`, and [`step_edges`]' contract.
#[inline(always)]
unsafe fn step_run<L: Isa, const RIGHT: bool>(
    l: L,
    keys: &SentinelKeys,
    edges: &mut [usize],
    inv_hs: &[f64],
    xi: f64,
    radius: f64,
) -> usize {
    let len = edges.len();
    let full = len / L::N * L::N;
    let at = edges.as_mut_ptr();
    let inv_hs = inv_hs.as_ptr();
    let (xi, radius) = (l.splat(xi), l.splat(radius));
    // SAFETY: lanes j..j + N index both slices in a full vector, and the
    // live lanes of the tail index them; the caller's contract for the
    // gathers.
    unsafe {
        for j in (0..full).step_by(L::N) {
            step_lanes::<L, RIGHT>(l, keys, at.add(j), inv_hs.add(j), xi, radius, l.all());
        }
        match l.tail(len - full) {
            Some(live) => {
                step_lanes::<L, RIGHT>(l, keys, at.add(full), inv_hs.add(full), xi, radius, live);
                len
            }
            None => full,
        }
    }
}

/// Steps the `live` lanes' cursors at `at`, of inverse bandwidths at
/// `inv_hs`. A dead lane reads and writes nothing and counts no key.
///
/// # Safety
/// Each live lane's `at` and `inv_hs` entries are valid, and
/// [`step_edges`]' contract.
#[inline(always)]
unsafe fn step_lanes<L: Isa, const RIGHT: bool>(
    l: L,
    keys: &SentinelKeys,
    at: *mut usize,
    inv_hs: *const f64,
    xi: L::F,
    radius: L::F,
    live: L::M,
) {
    let base = keys.0.as_ptr();
    let full = l.splat_u(BLOCK as u64);
    // SAFETY: the caller's contract for the live lanes' entries. Each live
    // cursor is at most n (kept by every step), so a key read is at most
    // n + BLOCK − 1, inside the sentinel tail.
    unsafe {
        let u = l.load(inv_hs, live);
        let mut cursor = l.load_u(at, live);
        loop {
            let mut count = l.splat_u(0);
            for b in 0..BLOCK {
                let v = l.gather(base.add(b), cursor, live);
                let holds = if RIGHT {
                    l.le(l.mul(l.sub(v, xi), u), radius)
                } else {
                    l.gt(l.mul(l.sub(xi, v), u), radius)
                };
                // A dead lane's 1/h is 0, where the right predicate holds:
                // only the live mask keeps it from counting.
                count = l.count(count, l.and(holds, live));
            }
            cursor = l.add_u(cursor, count);
            if !l.any(l.eq_u(count, full)) {
                break;
            }
        }
        l.store_u(at, live, cursor);
    }
}

/// [`LcCell::score_lanes`]: the leading cells of `run` in lanes. Returns
/// the number of cells scored: all of them on AVX-512, a multiple of four
/// on AVX2, none without lanes.
///
/// # Safety
/// Every window edge of `run` indexes `rows`.
pub(super) unsafe fn score_cells<const W: usize, const LO_PINNED: bool, const HI_PINNED: bool>(
    cell: &LcCell<W>,
    rows: &[Row<W>],
    yi: f64,
    run: CellRun<'_>,
    sq_sums: &mut [f64],
    included: &mut [usize],
) -> usize {
    let len = run.inv_hs.len();
    let cells = Cells {
        len,
        rows: rows.as_ptr().cast(),
        yi,
        inv_hs: run.inv_hs.as_ptr(),
        lo: run.lo.as_ptr(),
        hi: run.hi.as_ptr(),
        sq_sums: sq_sums[..len].as_mut_ptr(),
        included: included[..len].as_mut_ptr(),
    };
    // SAFETY: `path` never exceeds the host's lanes; the run's slices and
    // the accumulators hold `len` cells, and the caller vouches for the
    // window edges.
    unsafe {
        match path(Pass::Cell) {
            Path::Avx512 => cells_avx512::<W, LO_PINNED, HI_PINNED>(cell, &cells),
            Path::Avx2 => cells_avx2::<W, LO_PINNED, HI_PINNED>(cell, &cells),
            Path::Scalar => 0,
        }
    }
}

/// [`score_cells`] in eight lanes.
///
/// # Safety
/// The host has AVX-512F, and [`Cells::run`]'s contract.
#[target_feature(enable = "avx512f")]
unsafe fn cells_avx512<const W: usize, const LO_PINNED: bool, const HI_PINNED: bool>(
    cell: &LcCell<W>,
    cells: &Cells,
) -> usize {
    // SAFETY: the caller's contract.
    unsafe { cells.run::<_, W, LO_PINNED, HI_PINNED>(Avx512::new(), cell) }
}

/// [`score_cells`] in four lanes.
///
/// # Safety
/// The host has AVX2, and [`Cells::run`]'s contract.
#[target_feature(enable = "avx2")]
unsafe fn cells_avx2<const W: usize, const LO_PINNED: bool, const HI_PINNED: bool>(
    cell: &LcCell<W>,
    cells: &Cells,
) -> usize {
    // SAFETY: the caller's contract.
    unsafe { cells.run::<_, W, LO_PINNED, HI_PINNED>(Avx2::new(), cell) }
}

/// A run of `len` cells of one observation as raw pointers for the lanes:
/// the `f64` table of `W`-wide rows, the observation's response, and the
/// run's inverse bandwidths, window edges and accumulators.
struct Cells {
    len: usize,
    rows: *const f64,
    yi: f64,
    inv_hs: *const f64,
    lo: *const usize,
    hi: *const usize,
    sq_sums: *mut f64,
    included: *mut usize,
}

impl Cells {
    /// Scores the run over the lanes `l`: the full vectors, then the
    /// masked tail where `l` has one. Returns the number of leading cells
    /// scored.
    ///
    /// # Safety
    /// Each pointer but `rows` holds `len` values, and every window edge
    /// indexes the table at `rows`.
    #[inline(always)]
    unsafe fn run<L: Isa, const W: usize, const LO_PINNED: bool, const HI_PINNED: bool>(
        &self,
        l: L,
        cell: &LcCell<W>,
    ) -> usize {
        let full = self.len / L::N * L::N;
        // SAFETY: lanes j..j + N are cells of the run in a full vector, and
        // the live lanes of the tail are; the caller's contract for the
        // rows.
        unsafe {
            for j in (0..full).step_by(L::N) {
                self.score::<L, W, LO_PINNED, HI_PINNED>(l, cell, j, l.all());
            }
            match l.tail(self.len - full) {
                Some(live) => {
                    self.score::<L, W, LO_PINNED, HI_PINNED>(l, cell, full, live);
                    self.len
                }
                None => full,
            }
        }
    }

    /// Scores the `live` lanes of cells `j..j + N`: the sides (gathered and
    /// differenced, or the hoisted side broadcast), the trimmed Horners,
    /// `num` and `den`, and the masked accumulation. A lane at
    /// `1/h = +inf` is masked out, as the scalar cell excludes it; a dead
    /// lane reads and writes nothing.
    ///
    /// # Safety
    /// Each live lane's cell exists in the run, and its window edges index
    /// the table.
    #[inline(always)]
    unsafe fn score<L: Isa, const W: usize, const LO_PINNED: bool, const HI_PINNED: bool>(
        &self,
        l: L,
        cell: &LcCell<W>,
        j: usize,
        live: L::M,
    ) {
        // SAFETY: the caller's contract.
        unsafe {
            let u = l.load(self.inv_hs.add(j), live);
            let lo = row_offsets::<L, W>(l, l.load_u(self.lo.add(j), live));
            let hi = row_offsets::<L, W>(l, l.load_u(self.hi.add(j), live));
            let (num, den) = if cell.even {
                sides::<L, W, LO_PINNED, HI_PINNED, true>(l, cell, self.rows, u, lo, hi, live)
            } else {
                sides::<L, W, LO_PINNED, HI_PINNED, false>(l, cell, self.rows, u, lo, hi, live)
            };
            let include = l.and(
                l.and(l.gt(den, l.splat(0.0)), l.lt(u, l.splat(f64::INFINITY))),
                live,
            );
            let resid = l.sub(l.splat(self.yi), l.div(num, den));
            let sums = self.sq_sums.add(j);
            let sum = l.add_where(l.load(sums, live), include, l.mul(resid, resid));
            l.store(sums, live, sum);
            let counts = self.included.add(j);
            l.store_u(counts, live, l.count(l.load_u(counts, live), include));
        }
    }
}

/// `(num, den)` of the cells of one observation at the inverse bandwidths
/// `u`, from the rows at the `f64` offsets `lo` and `hi` (or the hoisted
/// sides of pinned edges): [`LcCell::score`]'s trimmed form, lane by lane.
///
/// # Safety
/// Every live lane's offset of an unpinned edge is that of a row of the
/// table at `rows`.
#[inline(always)]
unsafe fn sides<
    L: Isa,
    const W: usize,
    const LO_PINNED: bool,
    const HI_PINNED: bool,
    const EVEN: bool,
>(
    l: L,
    cell: &LcCell<W>,
    rows: *const f64,
    u: L::F,
    lo: L::U,
    hi: L::U,
    live: L::M,
) -> (L::F, L::F) {
    let neg_u = l.neg(u);
    let (sl, sr, pr) = (&cell.self_left, &cell.self_right, &cell.pinned_right);
    let mut num = l.splat(0.0);
    let mut den = l.splat(0.0);
    for m in 0..W {
        let ar = horner(l, &cell.right[m], m, u, EVEN);
        let al = if EVEN {
            ar
        } else {
            horner(l, &cell.right[m], m, neg_u, false)
        };
        let (lp, lq) = if LO_PINNED {
            (l.splat(sl.p[m]), l.splat(sl.q[m]))
        } else {
            // SAFETY: the live offsets are rows' (the caller's contract),
            // and entries m and W + m lie in the row.
            unsafe {
                (
                    l.sub(l.splat(sl.p[m]), l.gather(rows.add(m), lo, live)),
                    l.sub(l.splat(sl.q[m]), l.gather(rows.add(W + m), lo, live)),
                )
            }
        };
        let (rp, rq) = if HI_PINNED {
            (l.splat(pr.p[m]), l.splat(pr.q[m]))
        } else {
            // SAFETY: as the left side's.
            unsafe {
                (
                    l.sub(l.gather(rows.add(m), hi, live), l.splat(sr.p[m])),
                    l.sub(l.gather(rows.add(W + m), hi, live), l.splat(sr.q[m])),
                )
            }
        };
        den = l.add(den, l.add(l.mul(ar, rp), l.mul(al, lp)));
        num = l.add(num, l.add(l.mul(ar, rq), l.mul(al, lq)));
    }
    (num, den)
}

/// [`trimmed_horner`](super::trimmed_horner) in lanes: the same steps,
/// skipped or kept by the same rules, in the same order.
#[inline(always)]
fn horner<L: Isa, const W: usize>(l: L, b: &[f64; W], m: usize, u: L::F, skip_odd: bool) -> L::F {
    let mut a = l.splat(b[W - 1]);
    for j in (0..W - 1).rev() {
        a = l.mul(a, u);
        if j >= m && !(skip_odd && j % 2 == 1) {
            a = l.add(a, l.splat(b[j]));
        }
    }
    a
}

/// The `f64` offsets `row·2W` of the rows `row` of width `W`, as a sum of
/// shifts (neither AVX2 nor AVX-512F has a 64-bit multiply). Exact: a row
/// index is at most the table's length, whose byte size fits an `isize`.
#[inline(always)]
fn row_offsets<L: Isa, const W: usize>(l: L, row: L::U) -> L::U {
    let mut shifted = l.add_u(row, row);
    let mut offset = l.splat_u(0);
    let mut w = W;
    while w > 0 {
        if w & 1 == 1 {
            offset = l.add_u(offset, shifted);
        }
        shifted = l.add_u(shifted, shifted);
        w >>= 1;
    }
    offset
}

/// One instruction set's `f64` lanes, as the sweep's bodies use them. A
/// value of an implementing type exists only on a host that has the
/// instruction set, so its arithmetic is safe to call; its memory accesses
/// touch only the lanes a `live` mask holds. The comparisons are ordered
/// (false on NaN), as the scalar ones are.
trait Isa: Copy {
    /// `f64` lanes per vector.
    const N: usize;
    /// `N` `f64`s.
    type F: Copy;
    /// `N` 64-bit integers: cursors, row offsets and counts.
    type U: Copy;
    /// One truth value per lane.
    type M: Copy;

    /// Every lane.
    fn all(self) -> Self::M;
    /// The live lanes of a run's last `len < N` cells, if this set runs
    /// them (otherwise the scalar code does).
    fn tail(self, len: usize) -> Option<Self::M>;
    fn and(self, a: Self::M, b: Self::M) -> Self::M;
    fn any(self, m: Self::M) -> bool;
    fn splat(self, x: f64) -> Self::F;
    fn splat_u(self, x: u64) -> Self::U;
    fn add(self, a: Self::F, b: Self::F) -> Self::F;
    fn sub(self, a: Self::F, b: Self::F) -> Self::F;
    fn mul(self, a: Self::F, b: Self::F) -> Self::F;
    fn div(self, a: Self::F, b: Self::F) -> Self::F;
    /// `−a`, a sign flip.
    fn neg(self, a: Self::F) -> Self::F;
    fn le(self, a: Self::F, b: Self::F) -> Self::M;
    fn gt(self, a: Self::F, b: Self::F) -> Self::M;
    fn lt(self, a: Self::F, b: Self::F) -> Self::M;
    /// `a + b` in the lanes `m` holds, `a` in the others. (AVX2 adds
    /// `+0.0` there, which is `a` for every `a` but `−0.0`.)
    fn add_where(self, a: Self::F, m: Self::M, b: Self::F) -> Self::F;
    fn add_u(self, a: Self::U, b: Self::U) -> Self::U;
    /// `a + 1` in the lanes `m` holds, `a` in the others.
    fn count(self, a: Self::U, m: Self::M) -> Self::U;
    fn eq_u(self, a: Self::U, b: Self::U) -> Self::M;
    /// The `N` values at `p`; a dead lane reads nothing and holds 0.
    ///
    /// # Safety
    /// Each live lane's value is valid to read.
    unsafe fn load(self, p: *const f64, live: Self::M) -> Self::F;
    /// [`load`](Self::load) for 64-bit integers.
    ///
    /// # Safety
    /// As [`load`](Self::load).
    unsafe fn load_u(self, p: *const usize, live: Self::M) -> Self::U;
    /// Stores the live lanes of `x` at `p`; a dead lane writes nothing.
    ///
    /// # Safety
    /// Each live lane's value is valid to write.
    unsafe fn store(self, p: *mut f64, live: Self::M, x: Self::F);
    /// [`store`](Self::store) for 64-bit integers.
    ///
    /// # Safety
    /// As [`store`](Self::store).
    unsafe fn store_u(self, p: *mut usize, live: Self::M, x: Self::U);
    /// `base[at]` in each live lane; a dead lane reads nothing.
    ///
    /// # Safety
    /// Each live lane's `base + at` is valid to read.
    unsafe fn gather(self, base: *const f64, at: Self::U, live: Self::M) -> Self::F;
}

/// Four lanes of AVX2. A mask is a vector of all-ones and all-zeros lanes.
#[derive(Clone, Copy)]
struct Avx2(());

impl Avx2 {
    /// # Safety
    /// The host has AVX2.
    #[inline(always)]
    unsafe fn new() -> Self {
        Self(())
    }
}

// SAFETY (every `unsafe` block below): a value of `Avx2` exists only on a
// host with AVX2 (`Avx2::new`'s contract), and a load, store or gather
// touches only the live lanes, which its caller vouches for (the method's
// `# Safety`).
impl Isa for Avx2 {
    const N: usize = 4;
    type F = __m256d;
    type U = __m256i;
    type M = __m256d;

    #[inline(always)]
    fn all(self) -> __m256d {
        unsafe { _mm256_castsi256_pd(_mm256_set1_epi64x(-1)) }
    }
    #[inline(always)]
    fn tail(self, _len: usize) -> Option<__m256d> {
        None
    }
    #[inline(always)]
    fn and(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_and_pd(a, b) }
    }
    #[inline(always)]
    fn any(self, m: __m256d) -> bool {
        unsafe { _mm256_movemask_pd(m) != 0 }
    }
    #[inline(always)]
    fn splat(self, x: f64) -> __m256d {
        unsafe { _mm256_set1_pd(x) }
    }
    #[inline(always)]
    fn splat_u(self, x: u64) -> __m256i {
        unsafe { _mm256_set1_epi64x(x as i64) }
    }
    #[inline(always)]
    fn add(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_div_pd(a, b) }
    }
    #[inline(always)]
    fn neg(self, a: __m256d) -> __m256d {
        unsafe { _mm256_xor_pd(a, _mm256_set1_pd(-0.0)) }
    }
    #[inline(always)]
    fn le(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_cmp_pd::<_CMP_LE_OQ>(a, b) }
    }
    #[inline(always)]
    fn gt(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_cmp_pd::<_CMP_GT_OQ>(a, b) }
    }
    #[inline(always)]
    fn lt(self, a: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_cmp_pd::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn add_where(self, a: __m256d, m: __m256d, b: __m256d) -> __m256d {
        unsafe { _mm256_add_pd(a, _mm256_and_pd(m, b)) }
    }
    #[inline(always)]
    fn add_u(self, a: __m256i, b: __m256i) -> __m256i {
        unsafe { _mm256_add_epi64(a, b) }
    }
    #[inline(always)]
    fn count(self, a: __m256i, m: __m256d) -> __m256i {
        // A true lane is all ones, −1 as an integer.
        unsafe { _mm256_sub_epi64(a, _mm256_castpd_si256(m)) }
    }
    #[inline(always)]
    fn eq_u(self, a: __m256i, b: __m256i) -> __m256d {
        unsafe { _mm256_castsi256_pd(_mm256_cmpeq_epi64(a, b)) }
    }
    #[inline(always)]
    unsafe fn load(self, p: *const f64, live: __m256d) -> __m256d {
        unsafe { _mm256_maskload_pd(p, _mm256_castpd_si256(live)) }
    }
    #[inline(always)]
    unsafe fn load_u(self, p: *const usize, live: __m256d) -> __m256i {
        unsafe { _mm256_maskload_epi64(p.cast(), _mm256_castpd_si256(live)) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64, live: __m256d, x: __m256d) {
        unsafe { _mm256_maskstore_pd(p, _mm256_castpd_si256(live), x) }
    }
    #[inline(always)]
    unsafe fn store_u(self, p: *mut usize, live: __m256d, x: __m256i) {
        unsafe { _mm256_maskstore_epi64(p.cast(), _mm256_castpd_si256(live), x) }
    }
    #[inline(always)]
    unsafe fn gather(self, base: *const f64, at: __m256i, live: __m256d) -> __m256d {
        unsafe { _mm256_mask_i64gather_pd::<8>(_mm256_setzero_pd(), base, at, live) }
    }
}

/// Eight lanes of AVX-512F. A mask is one bit per lane.
#[derive(Clone, Copy)]
struct Avx512(());

impl Avx512 {
    /// # Safety
    /// The host has AVX-512F.
    #[inline(always)]
    unsafe fn new() -> Self {
        Self(())
    }
}

// SAFETY (every `unsafe` block below): a value of `Avx512` exists only on a
// host with AVX-512F (`Avx512::new`'s contract), and a load, store or
// gather touches only the live lanes, which its caller vouches for (the
// method's `# Safety`).
impl Isa for Avx512 {
    const N: usize = 8;
    type F = __m512d;
    type U = __m512i;
    type M = __mmask8;

    #[inline(always)]
    fn all(self) -> __mmask8 {
        0xff
    }
    #[inline(always)]
    fn tail(self, len: usize) -> Option<__mmask8> {
        (len > 0).then(|| (1u8 << len) - 1)
    }
    #[inline(always)]
    fn and(self, a: __mmask8, b: __mmask8) -> __mmask8 {
        a & b
    }
    #[inline(always)]
    fn any(self, m: __mmask8) -> bool {
        m != 0
    }
    #[inline(always)]
    fn splat(self, x: f64) -> __m512d {
        unsafe { _mm512_set1_pd(x) }
    }
    #[inline(always)]
    fn splat_u(self, x: u64) -> __m512i {
        unsafe { _mm512_set1_epi64(x as i64) }
    }
    #[inline(always)]
    fn add(self, a: __m512d, b: __m512d) -> __m512d {
        unsafe { _mm512_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m512d, b: __m512d) -> __m512d {
        unsafe { _mm512_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m512d, b: __m512d) -> __m512d {
        unsafe { _mm512_mul_pd(a, b) }
    }
    #[inline(always)]
    fn div(self, a: __m512d, b: __m512d) -> __m512d {
        unsafe { _mm512_div_pd(a, b) }
    }
    #[inline(always)]
    fn neg(self, a: __m512d) -> __m512d {
        // AVX-512F has no floating-point xor; the integer one flips the
        // same bit.
        unsafe {
            _mm512_castsi512_pd(_mm512_xor_si512(
                _mm512_castpd_si512(a),
                _mm512_set1_epi64(i64::MIN),
            ))
        }
    }
    #[inline(always)]
    fn le(self, a: __m512d, b: __m512d) -> __mmask8 {
        unsafe { _mm512_cmp_pd_mask::<_CMP_LE_OQ>(a, b) }
    }
    #[inline(always)]
    fn gt(self, a: __m512d, b: __m512d) -> __mmask8 {
        unsafe { _mm512_cmp_pd_mask::<_CMP_GT_OQ>(a, b) }
    }
    #[inline(always)]
    fn lt(self, a: __m512d, b: __m512d) -> __mmask8 {
        unsafe { _mm512_cmp_pd_mask::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn add_where(self, a: __m512d, m: __mmask8, b: __m512d) -> __m512d {
        unsafe { _mm512_mask_add_pd(a, m, a, b) }
    }
    #[inline(always)]
    fn add_u(self, a: __m512i, b: __m512i) -> __m512i {
        unsafe { _mm512_add_epi64(a, b) }
    }
    #[inline(always)]
    fn count(self, a: __m512i, m: __mmask8) -> __m512i {
        unsafe { _mm512_mask_add_epi64(a, m, a, _mm512_set1_epi64(1)) }
    }
    #[inline(always)]
    fn eq_u(self, a: __m512i, b: __m512i) -> __mmask8 {
        unsafe { _mm512_cmpeq_epi64_mask(a, b) }
    }
    #[inline(always)]
    unsafe fn load(self, p: *const f64, live: __mmask8) -> __m512d {
        unsafe { _mm512_maskz_loadu_pd(live, p) }
    }
    #[inline(always)]
    unsafe fn load_u(self, p: *const usize, live: __mmask8) -> __m512i {
        unsafe { _mm512_maskz_loadu_epi64(live, p.cast()) }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f64, live: __mmask8, x: __m512d) {
        unsafe { _mm512_mask_storeu_pd(p, live, x) }
    }
    #[inline(always)]
    unsafe fn store_u(self, p: *mut usize, live: __mmask8, x: __m512i) {
        unsafe { _mm512_mask_storeu_epi64(p.cast(), live, x) }
    }
    #[inline(always)]
    unsafe fn gather(self, base: *const f64, at: __m512i, live: __mmask8) -> __m512d {
        unsafe { _mm512_mask_i64gather_pd::<8>(_mm512_setzero_pd(), live, at, base) }
    }
}

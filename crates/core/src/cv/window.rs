//! The moment-window cell kernel of the prefix sweep ([`super::prefix`]),
//! which the streaming window ([`super::incremental`]) re-selects through.
//!
//! The sweep scores a `(observation, bandwidth)` cell from a table of
//! prefix-moment [`Row`]s: row `t` holds `P_m[t] = Σ_{l<t} x'^m` in `p[m]`
//! and `Q_m[t] = Σ_{l<t} y·x'^m` in `q[m]`, for `m < W`, over a sorted key
//! array, built by one compensated pass ([`moment_rows`]). A cell
//! needs the support window `[lo, hi)` of the observation at sorted
//! position `si` and the moment differences on each side of it. This
//! module makes the window `O(1)` amortised per cell and the assembly a
//! fixed `O(deg²)`-flop polynomial evaluation:
//!
//! * [`WindowCursors`] keep one `(lo, hi)` pair per bandwidth. For a fixed
//!   bandwidth the window only moves right as `si` moves right (the
//!   fast-sum-updating sweep of Langrené & Warin, 2018), so at the next
//!   observation each cursor steps right while the unchanged `d·(1/h) ≤ r`
//!   predicate says so. Membership is therefore bit-identical to a fresh
//!   bisection ([`support_window`]), which only seeds the cursors at the
//!   first observation of a fold chunk: `O(k·log n)` per chunk.
//!   [`WindowCursors::sweep`] makes two passes over the bandwidths. The
//!   first steps every cursor by the count of keys in a block of four that
//!   pass the predicate — exactly the step, along sorted keys — so the
//!   loads do not wait on each other and the usual one-key move takes one
//!   block; `+inf` sentinels after the keys ([`with_sentinels`]) fail both
//!   predicates, so no block needs a clamp. The second scores the cells.
//! * [`LcCell`] precombines the local-constant kernel polynomial about
//!   `x_i` once per observation into per-moment coefficients
//!   `b[m][j] = c_j·C(j,m)·(−x_i)^{j−m}`, `j ≥ m`. A cell is then, per
//!   moment, a Horner evaluation of `a_m(u) = Σ_j b[m][j]·u^j` at
//!   `u = 1/h` for the right side and at `u = −1/h` for the left (where
//!   `|u|^j = (−u)^j`), and two short dot products against the prefix
//!   differences `row[hi] − row[si+1]` and `row[si] − row[lo]`; the self
//!   rows are hoisted per observation.
//!
//! ## The trimmed cell, and why its bits are the full cell's
//!
//! Written out in full, each Horner runs over all `W` coefficients from a
//! leading `0·(1/h)`: `4W²` flops beside the dot products' `12W` (36 and
//! 36 for Epanechnikov, `W = 3`). Most of those terms are exact zeros, and
//! [`LcCell::eval`] leaves them out:
//!
//! * the structural `+0`s `b[m][j]`, `j < m`: their steps keep the
//!   multiplication by `u` and drop the addition;
//! * the leading `0·u`: each Horner starts at the top coefficient;
//! * for a kernel whose odd coefficients are all exactly `0.0` (Uniform,
//!   Epanechnikov, Quartic, Triweight; derived once from the
//!   coefficients), the odd terms. The left polynomial
//!   `(−1)^j·b[m][j]` then equals the right one, so one Horner serves both
//!   sides: Epanechnikov's Horners fall from 36 flops to 7, Triweight's
//!   from 196 to 51.
//!
//! Triangular and the Epanechnikov convolution keep one Horner per side.
//! The left one runs over `b` at `−u`, which equals a Horner over the
//! sign-flipped table `(−1)^j·b[m][j]` at `u` step for step, since
//! negation is exact and rounding is symmetric; so no left table is kept.
//!
//! Every operation left is the full form's, in its order. Dropping an
//! addition of `±0`, or taking the mirrored step, can only change the sign
//! of a zero intermediate: a later nonzero addend absorbs it, and a zero
//! that reaches `num` or `den` never reaches a score, because a zero `den`
//! fails `den > 0` and excludes the cell either way, and a zero `num` gives
//! the same squared residual. So `num` and `den` compare equal to the full
//! form's, with its bits whenever they are nonzero, and every score and
//! `included` count is unchanged (`cell_kernel_golden.rs` pins them; this
//! module's tests keep the full form and check the cell, the prefix
//! profile and the window's re-selection against it). A dropped term is not an exact zero in two cases,
//! and both exclude the cell in either form. A coefficient
//! `0·(−x_i)^{j−m}` is NaN when the power overflows; then `x_i^{W−1}`
//! overflows too, in the observation's own moment row, so the top moment's
//! prefix difference, and `den`, are NaN. And `1/h = +inf` (`h` below
//! `2^−1024`) makes the leading `0·(1/h)` NaN, so [`LcCell::eval`] returns
//! NaN there.
//!
//! ## Width dispatch
//!
//! Rows and cells are fixed-size arrays of a const-generic width `W`
//! (`deg + 1` for local-constant, `deg + 3` for local-linear), so every
//! per-cell loop has a compile-time trip count and unrolls. Each profile
//! resolves `W` from the kernel's `coeffs().len()` exactly once through
//! [`dispatch_width!`]; the width-generic code
//! below it takes the coefficient slice and support radius, not the kernel
//! type, so it is compiled once per width. Kernels above
//! [`MAX_KERNEL_DEGREE`] have no instantiation and get
//! [`Error::KernelDegreeTooHigh`].

use crate::error::Error;
use crate::util::NeumaierSum;

/// Highest polynomial-kernel degree the moment-window sweeps (prefix and
/// local-linear prefix, and so the streaming window) are compiled for. Every kernel the crate ships has degree ≤ 6.
pub const MAX_KERNEL_DEGREE: usize = 7;

/// One prefix-moment row of width `W`: `p[m] = Σ x'^m`, `q[m] = Σ y·x'^m`.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct Row<const W: usize> {
    pub(crate) p: [f64; W],
    pub(crate) q: [f64; W],
}

impl<const W: usize> Row<W> {
    /// The all-zero row (the empty prefix).
    pub(crate) const ZERO: Self = Self {
        p: [0.0; W],
        q: [0.0; W],
    };
}

/// Builds the compensated prefix rows of a sorted run of observations
/// `(x', y)` — a centred key and its response — in one `O(len·W)` pass:
/// row `t` holds `Σ x'^m` in `p[m]` and `Σ y·x'^m` in `q[m]` over the first
/// `t` observations, each accumulated with Neumaier summation, so row 0 is
/// all zero and range sums are differences of two rows.
pub(crate) fn moment_rows<const W: usize>(
    obs: impl ExactSizeIterator<Item = (f64, f64)>,
) -> Vec<Row<W>> {
    let mut rows = Vec::with_capacity(obs.len() + 1);
    rows.push(Row::ZERO);
    let mut accx = [NeumaierSum::new(); W];
    let mut accy = [NeumaierSum::new(); W];
    for (v, y) in obs {
        let mut row = Row::ZERO;
        let mut pw = 1.0;
        for m in 0..W {
            accx[m].add(pw);
            accy[m].add(y * pw);
            row.p[m] = accx[m].value();
            row.q[m] = accy[m].value();
            pw *= v;
        }
        rows.push(row);
    }
    rows
}

/// The error for a kernel polynomial with `len` coefficients that
/// [`dispatch_width!`] has no instantiation for.
pub(crate) fn unsupported_width(len: usize) -> Error {
    match len.checked_sub(1) {
        Some(degree) => Error::KernelDegreeTooHigh {
            degree,
            max: MAX_KERNEL_DEGREE,
        },
        None => Error::InvalidParameter {
            name: "coeffs",
            requirement: "at least one polynomial coefficient",
        },
    }
}

/// Calls the width-generic `$f::<W>(args…)` with `W = coeffs.len() + $extra`
/// for the kernel polynomial `$coeffs`, evaluating to `Ok` of its result,
/// or to `Err` ([`unsupported_width`]) for a degree above
/// [`MAX_KERNEL_DEGREE`]. The arms are the degrees `0..=MAX_KERNEL_DEGREE`.
macro_rules! dispatch_width {
    ($coeffs:expr, $extra:literal, $f:ident($($arg:expr),* $(,)?)) => {
        match $coeffs.len() {
            1 => Ok($f::<{ 1 + $extra }>($($arg),*)),
            2 => Ok($f::<{ 2 + $extra }>($($arg),*)),
            3 => Ok($f::<{ 3 + $extra }>($($arg),*)),
            4 => Ok($f::<{ 4 + $extra }>($($arg),*)),
            5 => Ok($f::<{ 5 + $extra }>($($arg),*)),
            6 => Ok($f::<{ 6 + $extra }>($($arg),*)),
            7 => Ok($f::<{ 7 + $extra }>($($arg),*)),
            8 => Ok($f::<{ 8 + $extra }>($($arg),*)),
            len => Err($crate::cv::window::unsupported_width(len)),
        }
    };
}
pub(crate) use dispatch_width;

/// The `W × W` Pascal triangle: `binom[j][m] = C(j, m)` for `m ≤ j`, zero
/// above the diagonal.
pub(crate) fn pascal<const W: usize>() -> [[f64; W]; W] {
    let mut binom = [[0.0; W]; W];
    for j in 0..W {
        binom[j][0] = 1.0;
        for m in 1..=j {
            binom[j][m] = binom[j - 1][m - 1] + if m < j { binom[j - 1][m] } else { 0.0 };
        }
    }
    binom
}

/// Resolves the support window `[lo, hi)` of the key at sorted position
/// `si` for bandwidth `1/inv_h` by bisection, narrowing monotonically from
/// the previous (smaller-bandwidth) window: `lo` is searched in
/// `[0, lo_prev]`, `hi` in `[hi_prev, keys.len()]`. The predicate is the
/// bit-identical `d·(1/h) ≤ r` every strategy uses, evaluated on the
/// original sorted keys, so the membership set matches naive/sorted
/// exactly. At most `~2·⌈log₂ n⌉` probes; used only to seed
/// [`WindowCursors`].
pub(crate) fn support_window(
    keys: &[f64],
    si: usize,
    inv_h: f64,
    radius: f64,
    lo_prev: usize,
    hi_prev: usize,
) -> (usize, usize) {
    let xi = keys[si];
    // Leftmost l with (xi − keys[l])·inv_h ≤ r; l = si trivially qualifies.
    let (mut a, mut b) = (0usize, lo_prev);
    while a < b {
        let mid = (a + b) / 2;
        if (xi - keys[mid]) * inv_h <= radius {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let lo = a;
    // One past the rightmost l with (keys[l] − xi)·inv_h ≤ r.
    let (mut a, mut b) = (hi_prev, keys.len());
    while a < b {
        let mid = (a + b) / 2;
        if (keys[mid] - xi) * inv_h <= radius {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    (lo, a)
}

/// Keys a cursor step reads at once. Every swept key array ends in this
/// many `+inf` sentinels ([`with_sentinels`]), so a block read from any
/// cursor position `≤ n` stays in bounds.
const BLOCK: usize = 4;

/// Collects a sorted run of finite keys and appends the [`BLOCK`] `+inf`
/// sentinels [`WindowCursors::sweep`] reads past its end. Neither support
/// predicate holds at `+inf`, so no cursor steps onto a sentinel.
pub(crate) fn with_sentinels(keys: impl ExactSizeIterator<Item = f64>) -> Vec<f64> {
    let mut out = Vec::with_capacity(keys.len() + BLOCK);
    out.extend(keys);
    out.extend([f64::INFINITY; BLOCK]);
    out
}

/// Advances `at` past the run of keys on which `holds` is true, [`BLOCK`]
/// keys per step. `holds` must be true on a prefix of the keys from `at`
/// and false at `+inf`, so a block's count of true keys is its step.
#[inline(always)]
fn block_step(keys: &[f64], mut at: usize, holds: impl Fn(f64) -> bool) -> usize {
    loop {
        let step: usize = keys[at..at + BLOCK]
            .iter()
            .map(|&v| usize::from(holds(v)))
            .sum();
        at += step;
        if step < BLOCK {
            return at;
        }
    }
}

/// One support window `(lo, hi)` per bandwidth, moved forward monotonically
/// as the observation index increases (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct WindowCursors {
    windows: Vec<(usize, usize)>,
    /// Sorted position the cursors currently describe, if any.
    at: Option<usize>,
}

impl WindowCursors {
    /// Unseeded cursors for `k` bandwidths.
    pub(crate) fn new(k: usize) -> Self {
        Self {
            windows: vec![(0, 0); k],
            at: None,
        }
    }

    /// Visits every bandwidth of the key at sorted position `si`, in order,
    /// under the ascending inverse-bandwidth list `inv_hs`
    /// (`inv_hs[m] = 1.0 / h_m`): moves cursor `m` to its support window
    /// `[lo, hi)` and calls `cell(m, inv_hs[m], lo, hi)`, stepping every
    /// cursor before scoring any cell. `keys` are the sorted keys followed
    /// by their sentinels ([`with_sentinels`]).
    ///
    /// When `si` lies after the current position each cursor only steps
    /// right — `O(1)` amortised per cell over a run of increasing `si`.
    /// Otherwise (fresh cursors, as at the first observation of a fold
    /// chunk) they are first seeded by [`support_window`], `O(k·log n)`,
    /// after which the steps are no-ops.
    #[inline(always)]
    pub(crate) fn sweep(
        &mut self,
        keys: &[f64],
        si: usize,
        inv_hs: &[f64],
        radius: f64,
        mut cell: impl FnMut(usize, f64, usize, usize),
    ) {
        let n = keys.len() - BLOCK;
        debug_assert!(
            keys[n..].iter().all(|&v| v == f64::INFINITY) && keys[n - 1].is_finite(),
            "swept keys must end in exactly {BLOCK} +inf sentinels"
        );
        if !matches!(self.at, Some(prev) if prev < si) {
            self.seed(&keys[..n], si, inv_hs, radius);
        }
        self.at = Some(si);
        let xi = keys[si];
        for ((lo, hi), &inv_h) in self.windows.iter_mut().zip(inv_hs) {
            // lo ≤ si always ends the left step: d = 0 at l = si.
            *lo = block_step(keys, *lo, |v| (xi - v) * inv_h > radius);
            *hi = block_step(keys, *hi, |v| (v - xi) * inv_h <= radius);
        }
        for (m, (&(lo, hi), &inv_h)) in self.windows.iter().zip(inv_hs).enumerate() {
            cell(m, inv_h, lo, hi);
        }
    }

    /// Seeds every cursor at `si` by bisection, each bandwidth narrowing
    /// from the previous one's window.
    fn seed(&mut self, keys: &[f64], si: usize, inv_hs: &[f64], radius: f64) {
        let (mut lo, mut hi) = (si, si + 1);
        for (win, &inv_h) in self.windows.iter_mut().zip(inv_hs) {
            (lo, hi) = support_window(keys, si, inv_h, radius, lo, hi);
            *win = (lo, hi);
        }
    }
}

/// The local-constant kernel polynomial of width `W = deg + 1`
/// precombined about one observation (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct LcCell<const W: usize> {
    /// Kernel polynomial coefficients `c_0..=c_deg` in `|u|`.
    coeffs: [f64; W],
    binom: [[f64; W]; W],
    /// Every odd coefficient is exactly zero, so the odd terms of each
    /// moment's polynomial are zeros and the left side equals the right
    /// (see the module docs). Derived from the coefficients.
    even: bool,
    /// `right[m][j] = c_j·C(j,m)·(−x_i)^{j−m}` (zero for `j < m`).
    right: [[f64; W]; W],
    /// The observation's hoisted self rows: `self_left = row[si]`,
    /// `self_right = row[si + 1]`.
    self_left: Row<W>,
    self_right: Row<W>,
}

/// Horner's rule for `Σ_{j ≥ m} b[j]·u^j` from the top coefficient, with
/// the exact-zero terms left out: the `j < m` entries and, when
/// `skip_odd`, the odd ones are multiplied through (`a·u`) but not added.
/// Every other step is the full `a·u + b[j]`, in the full Horner's order.
#[inline(always)]
fn trimmed_horner<const W: usize>(b: &[f64; W], m: usize, u: f64, skip_odd: bool) -> f64 {
    let mut a = b[W - 1];
    for j in (0..W - 1).rev() {
        a *= u;
        if j >= m && !(skip_odd && j % 2 == 1) {
            a += b[j];
        }
    }
    a
}

impl<const W: usize> LcCell<W> {
    /// An empty assembly for the kernel polynomial `coeffs` (in `|u|`),
    /// which must hold exactly `W` coefficients.
    pub(crate) fn new(coeffs: &[f64]) -> Self {
        Self {
            coeffs: coeffs
                .try_into()
                .expect("kernel width dispatched on coeffs.len()"),
            binom: pascal(),
            even: coeffs.iter().skip(1).step_by(2).all(|&c| c == 0.0),
            right: [[0.0; W]; W],
            self_left: Row::ZERO,
            self_right: Row::ZERO,
        }
    }

    /// Expands the kernel polynomial about the observation with centred
    /// coordinate `xc_i` and hoists its self rows `row_si = row[si]` and
    /// `row_si1 = row[si + 1]`.
    #[inline]
    pub(crate) fn prepare(&mut self, xc_i: f64, row_si: &Row<W>, row_si1: &Row<W>) {
        let neg_xi = -xc_i;
        for m in 0..W {
            let mut pw = 1.0; // (−x_i)^{j−m}
            for j in m..W {
                self.right[m][j] = self.coeffs[j] * self.binom[j][m] * pw;
                pw *= neg_xi;
            }
        }
        self.self_left = *row_si;
        self.self_right = *row_si1;
    }

    /// The leave-one-out `(numerator, denominator)` of the Nadaraya–Watson
    /// fit at bandwidth `1/inv_h` over the window `[lo, hi)`, given its
    /// boundary rows `row_lo = row[lo]` and `row_hi = row[hi]`.
    #[inline(always)]
    pub(crate) fn eval(&self, inv_h: f64, row_lo: &Row<W>, row_hi: &Row<W>) -> (f64, f64) {
        #[cfg(test)]
        if tests::REFERENCE_CELL.with(std::cell::Cell::get) {
            return self.eval_full(inv_h, row_lo, row_hi);
        }
        // A bandwidth below 2^-1024 has 1/h = +inf, where the full
        // Horner's leading 0·(1/h) is NaN and excludes the cell.
        if inv_h == f64::INFINITY {
            return (f64::NAN, f64::NAN);
        }
        if self.even {
            self.eval_trimmed::<true>(inv_h, row_lo, row_hi)
        } else {
            self.eval_trimmed::<false>(inv_h, row_lo, row_hi)
        }
    }

    /// [`eval`](Self::eval) over the trimmed Horners: for an `EVEN`
    /// polynomial one Horner per moment serves both sides, otherwise the
    /// left side is the right polynomial at `−1/h`.
    #[inline(always)]
    fn eval_trimmed<const EVEN: bool>(
        &self,
        inv_h: f64,
        row_lo: &Row<W>,
        row_hi: &Row<W>,
    ) -> (f64, f64) {
        let (sl, sr) = (&self.self_left, &self.self_right);
        let mut num = 0.0;
        let mut den = 0.0;
        for m in 0..W {
            let ar = trimmed_horner(&self.right[m], m, inv_h, EVEN);
            let al = if EVEN {
                ar
            } else {
                trimmed_horner(&self.right[m], m, -inv_h, false)
            };
            den += ar * (row_hi.p[m] - sr.p[m]) + al * (sl.p[m] - row_lo.p[m]);
            num += ar * (row_hi.q[m] - sr.q[m]) + al * (sl.q[m] - row_lo.q[m]);
        }
        (num, den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::prefix::profile_in_blocks;
    use crate::cv::{CvProfile, SlidingWindowSelector};
    use crate::kernels::{
        Epanechnikov, EpanechnikovConvolution, PolynomialKernel, Quartic, Triangular, Triweight,
        Uniform,
    };
    use crate::util::SplitMix64;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Routes this thread's [`LcCell::eval`] calls to [`LcCell::eval_full`].
        pub(super) static REFERENCE_CELL: Cell<bool> = const { Cell::new(false) };
    }

    impl<const W: usize> LcCell<W> {
        /// The cell before its Horners were trimmed: one full Horner per
        /// side over every coefficient, `j < m` zeros and the leading
        /// `0·(1/h)` included, the left side over its own sign-flipped
        /// table `left[m][j] = (−1)^j·right[m][j]`.
        pub(super) fn eval_full(&self, inv_h: f64, row_lo: &Row<W>, row_hi: &Row<W>) -> (f64, f64) {
            let mut left = self.right;
            for (m, row) in left.iter_mut().enumerate() {
                for (j, b) in row.iter_mut().enumerate().skip(m) {
                    if j % 2 == 1 {
                        *b = -*b;
                    }
                }
            }
            let (sl, sr) = (&self.self_left, &self.self_right);
            let mut num = 0.0;
            let mut den = 0.0;
            for (m, (right, left)) in self.right.iter().zip(&left).enumerate() {
                let ar = right.iter().rev().fold(0.0, |a, &b| a * inv_h + b);
                let al = left.iter().rev().fold(0.0, |a, &b| a * inv_h + b);
                den += ar * (row_hi.p[m] - sr.p[m]) + al * (sl.p[m] - row_lo.p[m]);
                num += ar * (row_hi.q[m] - sr.q[m]) + al * (sl.q[m] - row_lo.q[m]);
            }
            (num, den)
        }
    }

    /// Every polynomial kernel the crate ships, one per instantiated width.
    fn kernels() -> [&'static dyn PolynomialKernel; 6] {
        [
            &Uniform,
            &Triangular,
            &Epanechnikov,
            &Quartic,
            &Triweight,
            &EpanechnikovConvolution,
        ]
    }

    /// Runs `f` with this thread's cells on the full (untrimmed) Horners.
    fn with_full_cell<T>(f: impl FnOnce() -> T) -> T {
        REFERENCE_CELL.with(|r| r.set(true));
        let out = f();
        REFERENCE_CELL.with(|r| r.set(false));
        out
    }

    /// Equal values, the same bits when nonzero; a NaN only against a NaN.
    fn same_result(a: f64, b: f64) -> bool {
        if a.is_nan() || b.is_nan() {
            return a.is_nan() && b.is_nan();
        }
        a == b && (a == 0.0 || a.to_bits() == b.to_bits())
    }

    /// Compares the trimmed and full cell of the sorted sample `(xs, ys)`
    /// (prefix layout: midrange-centred keys, one row per observation) on
    /// every window `[lo, hi)` around every observation, at every inverse
    /// bandwidth. An excluded cell (`den` NaN in either form) needs only
    /// both `den`s NaN.
    fn cells_agree<const W: usize>(
        coeffs: &[f64],
        xs: &[f64],
        ys: &[f64],
        inv_hs: &[f64],
    ) -> std::result::Result<(), String> {
        let n = xs.len();
        let center = 0.5 * (xs[0] + xs[n - 1]);
        let xc: Vec<f64> = xs.iter().map(|&v| v - center).collect();
        let rows = moment_rows::<W>(xc.iter().copied().zip(ys.iter().copied()));
        let mut cell = LcCell::<W>::new(coeffs);
        for si in 0..n {
            cell.prepare(xc[si], &rows[si], &rows[si + 1]);
            for lo in 0..=si {
                for hi in si + 1..=n {
                    for &inv_h in inv_hs {
                        let (num, den) = cell.eval(inv_h, &rows[lo], &rows[hi]);
                        let (num_f, den_f) = cell.eval_full(inv_h, &rows[lo], &rows[hi]);
                        let ctx = format!(
                            "W={W} si={si} [{lo},{hi}) 1/h={inv_h:e}: \
                             trimmed ({num:e}, {den:e}), full ({num_f:e}, {den_f:e})"
                        );
                        if !same_result(den, den_f) {
                            return Err(format!("den differs: {ctx}"));
                        }
                        if !den.is_nan() && !same_result(num, num_f) {
                            return Err(format!("num differs: {ctx}"));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn bits(p: &CvProfile) -> (Vec<u64>, Vec<usize>) {
        (
            p.scores.iter().map(|s| s.to_bits()).collect(),
            p.included.clone(),
        )
    }

    /// The prefix profile and the window's re-selection over `(x, y)` are
    /// `to_bits`-equal under the trimmed and the full cell, and every cell
    /// agrees.
    fn trimmed_equals_full(
        kernel: &'static dyn PolynomialKernel,
        x: &[f64],
        y: &[f64],
        hs: &[f64],
    ) -> std::result::Result<(), String> {
        let name = kernel.name();
        let prefix = || profile_in_blocks(x, y, hs, kernel, 1).unwrap();
        if bits(&prefix()) != bits(&with_full_cell(prefix)) {
            return Err(format!("{name}: prefix profile differs"));
        }
        let grid = crate::grid::BandwidthGrid::from_values(hs.to_vec()).unwrap();
        // A window of half the sample, so arrivals evict; it re-selects
        // on the calling thread (a few cells), where the full cell applies.
        let reselect = || {
            let cap = (x.len() / 2).max(2);
            let mut win = SlidingWindowSelector::new(kernel, grid.clone(), cap, 1).unwrap();
            x.iter()
                .zip(y)
                .map(|(&xi, &yi)| {
                    let opt = win.push(xi, yi)?;
                    Ok(opt.map(|o| {
                        (
                            o.index,
                            o.bandwidth.to_bits(),
                            o.score.to_bits(),
                            o.included,
                        )
                    }))
                })
                .collect::<Vec<crate::Result<_>>>()
        };
        if reselect() != with_full_cell(reselect) {
            return Err(format!("{name}: window re-selection differs"));
        }
        let mut order: Vec<usize> = (0..x.len()).collect();
        order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
        let xs: Vec<f64> = order.iter().map(|&i| x[i]).collect();
        let ys: Vec<f64> = order.iter().map(|&i| y[i]).collect();
        let inv_hs: Vec<f64> = hs.iter().map(|&h| 1.0 / h).collect();
        let coeffs = kernel.coeffs();
        dispatch_width!(coeffs, 0, cells_agree(coeffs, &xs, &ys, &inv_hs))
            .unwrap()
            .map_err(|e| format!("{name}: {e}"))
    }

    /// A sample of `n` observations in one of the layouts the exactness
    /// argument has to survive, with its ascending bandwidths.
    fn layout(kind: usize, n: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let mut hs = vec![0.02, 0.07, 0.15, 0.3, 0.6, 1.2];
        let (x, y): (Vec<f64>, Vec<f64>) = match kind {
            // Observations exactly at the midrange centre, on both zeros
            // (x' = −0 for x = −0.0, x' = +0 for x = 0.0), and y = ±0.
            0 => {
                let mut x = vec![-1.0, 1.0, -0.0, 0.0];
                let mut y = vec![0.0, -0.0, 0.0, 1.5];
                for _ in 4..n {
                    x.push(2.0 * rng.next_f64() - 1.0);
                    y.push(if rng.next_f64() < 0.3 {
                        0.0
                    } else {
                        rng.next_f64()
                    });
                }
                (x, y)
            }
            // Every y zero.
            1 => ((0..n).map(|_| rng.next_f64()).collect(), vec![0.0; n]),
            // Duplicate keys on an eighth lattice.
            2 => (0..n)
                .map(|i| {
                    let key = match i {
                        0 | 1 => i as f64,
                        _ => (rng.next_f64() * 9.0).floor() / 8.0,
                    };
                    (key, rng.next_f64() - 0.5)
                })
                .unzip(),
            // The boundary-tie lattice: d/h lands exactly on the radius.
            3 => {
                hs = vec![0.125, 0.25, 0.5, 1.0];
                (0..n)
                    .map(|i| ((i % 5) as f64 * 0.25, [1.0, 2.0, -1.0, 0.5, 3.0][i % 5]))
                    .unzip()
            }
            // Extreme scales: the moments under- or overflow at the top
            // powers (|x'|^6 overflows above ~1e51), and a bandwidth below
            // 2^-1024 has 1/h = +inf.
            _ => {
                let scale = [1e-150, 1e-40, 1e40, 1e60, 1e150][seed as usize % 5];
                let x: Vec<f64> = (0..n).map(|_| scale * (1.0 + rng.next_f64())).collect();
                let y: Vec<f64> = (0..n).map(|_| scale * rng.next_f64()).collect();
                for h in &mut hs {
                    *h *= scale;
                }
                hs.insert(0, 1e-310);
                (x, y)
            }
        };
        (x, y, hs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The trimmed cell returns the full cell's `num` and `den` (equal,
        /// the same bits when nonzero) on every window, and the prefix profile
        /// and the window's re-selection are `to_bits`-equal under either cell, for all six
        /// kernels.
        #[test]
        fn trimmed_cell_is_exact(kind in 0usize..5, n in 2usize..24, seed in 0u64..1_000_000) {
            let (x, y, hs) = layout(kind, n, seed);
            for kernel in kernels() {
                let checked = trimmed_equals_full(kernel, &x, &y, &hs);
                prop_assert!(checked.is_ok(), "layout {kind}, n = {n}, seed {seed}: {:?}", checked);
            }
        }
    }

    #[test]
    fn odd_coefficients_decide_the_even_form() {
        let even: Vec<bool> = kernels()
            .iter()
            .map(|k| dispatch_width!(k.coeffs(), 0, even_of(k.coeffs())).unwrap())
            .collect();
        assert_eq!(even, [true, false, true, true, true, false]);
    }

    fn even_of<const W: usize>(coeffs: &[f64]) -> bool {
        LcCell::<W>::new(coeffs).even
    }
}

//! The moment-window cell kernel shared by the prefix sweep
//! ([`super::prefix`]) and the streaming engine ([`super::incremental`]).
//!
//! Both engines score a `(observation, bandwidth)` cell from a table of
//! prefix-moment [`Row`]s: row `t` holds `P_m[t] = Σ_{l<t} x'^m` in `p[m]`
//! and `Q_m[t] = Σ_{l<t} y·x'^m` in `q[m]`, for `m < W`, over a sorted key
//! array, built for both by one compensated pass ([`moment_rows`]). A cell
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
//!   `b[m][j] = c_j·C(j,m)·(−x_i)^{j−m}` (with a sign-flipped copy for the
//!   left side, where `|u|^j = (−u)^j`). A cell is then one Horner
//!   evaluation in `1/h` of those coefficients and two short dot products
//!   against the prefix differences `row[hi] − row[si+1]` and
//!   `row[si] − row[lo]`; the self rows are hoisted per observation.
//!
//! ## Width dispatch
//!
//! Rows and cells are fixed-size arrays of a const-generic width `W`
//! (`deg + 1` for local-constant, `deg + 3` for local-linear), so every
//! per-cell loop has a compile-time trip count and unrolls. Each engine
//! resolves `W` from the kernel's `coeffs().len()` exactly once per profile
//! or re-selection through [`dispatch_width!`]; the width-generic code
//! below it takes the coefficient slice and support radius, not the kernel
//! type, so it is compiled once per width. Kernels above
//! [`MAX_KERNEL_DEGREE`] have no instantiation and get
//! [`Error::KernelDegreeTooHigh`].

use crate::error::Error;
use crate::util::NeumaierSum;

/// Highest polynomial-kernel degree the moment-window engines (prefix
/// sweep, local-linear prefix sweep, incremental re-selection) are compiled
/// for. Every kernel the crate ships has degree ≤ 6.
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

/// Builds the compensated prefix rows of a sorted run of key entries
/// `(x', cnt, sy)` — a centred key, the number of observations at it and
/// the sum of their `y` — in one `O(len·W)` pass: row `t` holds
/// `Σ cnt·x'^m` in `p[m]` and `Σ sy·x'^m` in `q[m]` over the first `t`
/// entries, each accumulated with Neumaier summation, so row 0 is all zero
/// and range sums are differences of two rows. A single observation is
/// the entry `(x', 1, y)`. An empty entry (`cnt = sy = 0`) adds signed
/// zeros, which leave a compensated sum exactly as it was, so its row
/// repeats the previous one.
pub(crate) fn moment_rows<const W: usize>(
    entries: impl ExactSizeIterator<Item = (f64, f64, f64)>,
) -> Vec<Row<W>> {
    let mut rows = Vec::with_capacity(entries.len() + 1);
    rows.push(Row::ZERO);
    let mut accx = [NeumaierSum::new(); W];
    let mut accy = [NeumaierSum::new(); W];
    for (v, cnt, sy) in entries {
        let mut row = Row::ZERO;
        let mut pw = 1.0;
        for m in 0..W {
            accx[m].add(cnt * pw);
            accy[m].add(sy * pw);
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
    /// `right[m][j] = c_j·C(j,m)·(−x_i)^{j−m}` (zero for `j < m`).
    right: [[f64; W]; W],
    /// `left[m][j] = (−1)^j·right[m][j]`.
    left: [[f64; W]; W],
    /// The observation's hoisted self rows: `self_left = row[si]`,
    /// `self_right = row[si + 1]`.
    self_left: Row<W>,
    self_right: Row<W>,
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
            right: [[0.0; W]; W],
            left: [[0.0; W]; W],
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
                let b = self.coeffs[j] * self.binom[j][m] * pw;
                self.right[m][j] = b;
                self.left[m][j] = if j % 2 == 0 { b } else { -b };
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
        let (sl, sr) = (&self.self_left, &self.self_right);
        let mut num = 0.0;
        let mut den = 0.0;
        for m in 0..W {
            // Horner in 1/h: a_m(u) = Σ_j b[m][j]·u^j on each side.
            let ar = self.right[m].iter().rev().fold(0.0, |a, &b| a * inv_h + b);
            let al = self.left[m].iter().rev().fold(0.0, |a, &b| a * inv_h + b);
            den += ar * (row_hi.p[m] - sr.p[m]) + al * (sl.p[m] - row_lo.p[m]);
            num += ar * (row_hi.q[m] - sr.q[m]) + al * (sl.q[m] - row_lo.q[m]);
        }
        (num, den)
    }
}

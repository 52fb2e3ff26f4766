//! The moment-window cell kernel shared by the prefix sweep
//! ([`super::prefix`]) and the streaming engine ([`super::incremental`]).
//!
//! Both engines score a `(observation, bandwidth)` cell from a table of
//! prefix-moment **rows**: row `t` holds `P_m[t] = Σ_{l<t} x'^m` for
//! `m < w` followed by `Q_m[t] = Σ_{l<t} y·x'^m`, over a sorted key array.
//! A cell needs the support window `[lo, hi)` of the observation at sorted
//! position `si` and the moment differences on each side of it. This module
//! makes the window `O(1)` amortised per cell and the assembly a fixed
//! `O(deg²)`-flop polynomial evaluation:
//!
//! * [`WindowCursors`] keep one `(lo, hi)` pair per bandwidth. For a fixed
//!   bandwidth the window only moves right as `si` moves right (the
//!   fast-sum-updating sweep of Langrené & Warin, 2018), so at the next
//!   observation each cursor steps right while the unchanged `d·(1/h) ≤ r`
//!   predicate says so. Membership is therefore bit-identical to a fresh
//!   bisection ([`support_window`]), which now only seeds the cursors at
//!   the first observation of a fold chunk: `O(k·log n)` per chunk.
//! * [`LcCell`] precombines the local-constant kernel polynomial about
//!   `x_i` once per observation into per-moment coefficients
//!   `b[m][j] = c_j·C(j,m)·(−x_i)^{j−m}` (with a sign-flipped copy for the
//!   left side, where `|u|^j = (−u)^j`). A cell is then one Horner
//!   evaluation in `1/h` of those coefficients and two short dot products
//!   against the prefix differences `row[hi] − row[si+1]` and
//!   `row[si] − row[lo]`; the self rows are hoisted per observation.

/// Flattened `(max_m+1) × (max_m+1)` Pascal triangle:
/// `binom[j·(max_m+1) + m] = C(j, m)` for `m ≤ j`, zero above the diagonal.
pub(crate) fn pascal(max_m: usize) -> Vec<f64> {
    let bw = max_m + 1;
    let mut binom = vec![0.0; bw * bw];
    for j in 0..=max_m {
        binom[j * bw] = 1.0;
        for m in 1..=j {
            binom[j * bw + m] =
                binom[(j - 1) * bw + m - 1] + if m < j { binom[(j - 1) * bw + m] } else { 0.0 };
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

/// Branch-free cursor steps tried per observation before falling back to a
/// loop (see [`WindowCursors::seek`]).
const STEPS: usize = 3;

/// One support window per bandwidth, moved forward monotonically as the
/// observation index increases (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct WindowCursors {
    lo: Vec<usize>,
    hi: Vec<usize>,
    /// Sorted position the cursors currently describe, if any.
    at: Option<usize>,
}

impl WindowCursors {
    /// Unseeded cursors for `k` bandwidths.
    pub(crate) fn new(k: usize) -> Self {
        Self { lo: vec![0; k], hi: vec![0; k], at: None }
    }

    /// Moves every cursor to the support windows of the key at sorted
    /// position `si` under the ascending inverse-bandwidth list `inv_hs`
    /// (`inv_hs[m] = 1.0 / h_m`).
    ///
    /// When `si` lies after the current position each cursor only steps
    /// right — `O(1)` amortised per cell over a run of increasing `si`.
    /// Otherwise (fresh cursors, as at the first observation of a fold
    /// chunk) they are seeded by [`support_window`], `O(k·log n)`.
    pub(crate) fn seek(&mut self, keys: &[f64], si: usize, inv_hs: &[f64], radius: f64) {
        match self.at {
            Some(prev) if prev < si => {
                let xi = keys[si];
                for ((lo, hi), &inv_h) in self.lo.iter_mut().zip(&mut self.hi).zip(inv_hs) {
                    // lo ≤ si always ends the left scan: d = 0 at l = si.
                    let left_out = |l: usize| (xi - keys[l]) * inv_h > radius;
                    let right_in =
                        |l: usize| keys.get(l).is_some_and(|&v| (v - xi) * inv_h <= radius);
                    // A cursor moves about one key per observation on
                    // average: a few branch-free steps absorb the usual
                    // move, and the loops only run for the rare longer ones.
                    for _ in 0..STEPS {
                        *lo += usize::from(left_out(*lo));
                        *hi += usize::from(right_in(*hi));
                    }
                    while left_out(*lo) {
                        *lo += 1;
                    }
                    while right_in(*hi) {
                        *hi += 1;
                    }
                }
            }
            _ => {
                let (mut lo, mut hi) = (si, si + 1);
                for (m, &inv_h) in inv_hs.iter().enumerate() {
                    (lo, hi) = support_window(keys, si, inv_h, radius, lo, hi);
                    self.lo[m] = lo;
                    self.hi[m] = hi;
                }
            }
        }
        self.at = Some(si);
    }

    /// The window `[lo, hi)` of bandwidth index `m` at the current position.
    #[inline]
    pub(crate) fn window(&self, m: usize) -> (usize, usize) {
        (self.lo[m], self.hi[m])
    }
}

/// The local-constant kernel polynomial precombined about one observation
/// (see the module docs). Rows passed to [`eval`](Self::eval) hold `P_m`
/// at `row[m]` and `Q_m` at `row[q + m]`, for `m ≤ deg`.
#[derive(Debug, Clone)]
pub(crate) struct LcCell {
    /// Kernel polynomial coefficients `c_0..=c_deg` in `|u|`.
    coeffs: &'static [f64],
    /// [`pascal`] triangle of width `deg + 1`.
    binom: Vec<f64>,
    deg: usize,
    /// `right[m·(deg+1) + j] = c_j·C(j,m)·(−x_i)^{j−m}` (zero for `j < m`).
    right: Vec<f64>,
    /// `left[m·(deg+1) + j] = (−1)^j·right[m·(deg+1) + j]`.
    left: Vec<f64>,
    /// The observation's hoisted self rows, `P_0..=P_deg` then
    /// `Q_0..=Q_deg`: `self_left = row[si]`, `self_right = row[si + 1]`.
    self_left: Vec<f64>,
    self_right: Vec<f64>,
    /// Offset of `Q_0` within a row.
    q: usize,
}

impl LcCell {
    /// An empty assembly for the kernel polynomial `coeffs` (in `|u|`),
    /// reading `Q_m` at row offset `q + m`.
    pub(crate) fn new(coeffs: &'static [f64], q: usize) -> Self {
        let deg = coeffs.len() - 1;
        let w = deg + 1;
        Self {
            coeffs,
            binom: pascal(deg),
            deg,
            right: vec![0.0; w * w],
            left: vec![0.0; w * w],
            self_left: vec![0.0; 2 * w],
            self_right: vec![0.0; 2 * w],
            q,
        }
    }

    /// Expands the kernel polynomial about the observation with centred
    /// coordinate `xc_i` and hoists its self rows `row_si = row[si]` and
    /// `row_si1 = row[si + 1]`.
    pub(crate) fn prepare(&mut self, xc_i: f64, row_si: &[f64], row_si1: &[f64]) {
        let w = self.deg + 1;
        let neg_xi = -xc_i;
        for m in 0..w {
            let mut pw = 1.0; // (−x_i)^{j−m}
            for j in m..w {
                let b = self.coeffs[j] * self.binom[j * w + m] * pw;
                self.right[m * w + j] = b;
                self.left[m * w + j] = if j % 2 == 0 { b } else { -b };
                pw *= neg_xi;
            }
        }
        for m in 0..w {
            self.self_left[m] = row_si[m];
            self.self_left[w + m] = row_si[self.q + m];
            self.self_right[m] = row_si1[m];
            self.self_right[w + m] = row_si1[self.q + m];
        }
    }

    /// The leave-one-out `(numerator, denominator)` of the Nadaraya–Watson
    /// fit at bandwidth `1/inv_h` over the window `[lo, hi)`, given its
    /// boundary rows `row_lo = row[lo]` and `row_hi = row[hi]`.
    #[inline]
    pub(crate) fn eval(&self, inv_h: f64, row_lo: &[f64], row_hi: &[f64]) -> (f64, f64) {
        let w = self.deg + 1;
        let (p_lo, q_lo) = (&row_lo[..w], &row_lo[self.q..self.q + w]);
        let (p_hi, q_hi) = (&row_hi[..w], &row_hi[self.q..self.q + w]);
        let (p_sl, q_sl) = self.self_left.split_at(w);
        let (p_sr, q_sr) = self.self_right.split_at(w);
        let mut num = 0.0;
        let mut den = 0.0;
        let sides = self.right.chunks_exact(w).zip(self.left.chunks_exact(w));
        for (m, (br, bl)) in sides.enumerate() {
            // Horner in 1/h: a_m(u) = Σ_j b[m][j]·u^j on each side.
            let ar = br.iter().rev().fold(0.0, |a, &b| a * inv_h + b);
            let al = bl.iter().rev().fold(0.0, |a, &b| a * inv_h + b);
            den += ar * (p_hi[m] - p_sr[m]) + al * (p_sl[m] - p_lo[m]);
            num += ar * (q_hi[m] - q_sr[m]) + al * (q_sl[m] - q_lo[m]);
        }
        (num, den)
    }
}

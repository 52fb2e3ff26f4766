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
//!   first observation of a fold chunk: `O(k·log n)` per chunk. (At
//!   `1/h = +inf`, `h` below `2^−1024`, no key is in support, and the
//!   step and the bisection stop where each one's comparison of NaN puts
//!   them; the local-constant cell there is NaN whatever its window, see
//!   below.)
//!   [`WindowCursors::sweep`] makes two passes over the bandwidths. The
//!   first steps each live cursor (below) by the count of keys in a block
//!   of four that pass the predicate — exactly the step, along sorted
//!   keys — so the loads do not wait on each other and the usual one-key
//!   move takes one block; `+inf` sentinels after the keys
//!   ([`SentinelKeys`]) fail both predicates, so no block needs a clamp.
//!   The second scores the cells through a [`CellPass`], in at most three
//!   runs of bandwidths, one per combination of pinned edges. Both passes
//!   run eight bandwidths at a time where the host has AVX-512 and four
//!   where it has AVX2 (see Lanes).
//! * [`LcCell`] precombines the local-constant kernel polynomial about
//!   `x_i` once per observation into per-moment coefficients
//!   `b[m][j] = c_j·C(j,m)·(−x_i)^{j−m}`, `j ≥ m`. A cell differences the
//!   rows into its two sides, `row[hi] − row[si+1]` and `row[si] − row[lo]`,
//!   then scores them: per moment, a Horner evaluation of
//!   `a_m(u) = Σ_j b[m][j]·u^j` at `u = 1/h` for the right side and at
//!   `u = −1/h` for the left (where `|u|^j = (−u)^j`), and two short dot
//!   products against the sides. The self rows are hoisted per
//!   observation.
//!
//! ## Pinned edges
//!
//! A left edge at key 0 or a right edge at key `n` cannot move any
//! further, and on a wide grid many do: at n = 2·10⁴ on the paper-default
//! grid (k = 100) half the left edges sit at 0, half the right edges at
//! `n`, and a quarter of the cells have both pinned. The cursors keep two
//! live bounds: cursors `m ≥ lo_live` have `lo = 0` and cursors
//! `m ≥ hi_live` have `hi = n`. Both sets are suffixes of the ascending
//! grid, because `d·(1/h)` does not grow with `h` for a fixed `d ≥ 0` (the
//! reason the seeding can narrow from one bandwidth to the next). As `si`
//! grows a left edge can only leave key 0 and a right edge can only reach
//! `n`, so `lo_live` only advances and `hi_live` only shrinks. At each
//! observation `lo_live` advances while the left step's own predicate,
//! `(x_i − key_0)·(1/h) > r`, holds at key 0, so `0·inf = NaN` keeps an
//! edge pinned exactly as the step would; after the steps `hi_live`
//! shrinks past every cursor that reached `n`, where the `+inf` sentinels
//! hold it. Only the live prefixes step, and a re-seed recounts both
//! bounds from the seeded windows.
//!
//! A pinned edge's side is a constant of the observation, so
//! [`LcCell::prepare`] hoists it: `row[n] − row[si+1]`, and
//! `row[si] − row[0]`, which is `row[si]` itself because row 0 is `+0.0`
//! and `x − (+0.0)` is `x` for every `x`, `−0.0` included. A pinned run of
//! cells scores the hoisted side; it is the same difference of the same
//! rows, so `num` and `den` keep their bits (the module's tests score every
//! window from key 0 or to key `n` both ways). The local-linear sweep
//! hoists its pinned sides' moment assembly the same way.
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
//! ## Lanes
//!
//! Every cell is independent, so the sweep runs both passes several
//! bandwidths at a time in vector lanes (the private `lanes` module): eight
//! `f64` lanes of a 512-bit register where the host has AVX-512F, four of
//! a 256-bit one where it has AVX2, chosen once per process:
//!
//! * the cursor pass steps a vector of cursors of a live edge per
//!   iteration: a gather per key of the block reads each lane's block of
//!   four keys at its own cursor, the unchanged predicate is counted per
//!   lane, and the iteration repeats while any lane counted four. A lane
//!   that has stopped counts 0 in a repeat, because its predicate holds on
//!   a prefix of the keys from its cursor, so every cursor ends where the
//!   scalar step ends it;
//! * the local-constant cell pass ([`LcCell::score_lanes`]) scores a vector
//!   of cells per iteration: their sides gathered from the rows at the
//!   window edges and differenced against the self rows, or a pinned run's
//!   hoisted side broadcast; the trimmed Horners at each lane's `1/h`, with
//!   the same skipped terms; `num` and `den`; and `den > 0` as a lane mask
//!   on the accumulation.
//!
//! Both passes are one width-generic body each, over a private trait of
//! vector and mask operations with one implementation per instruction set.
//!
//! The bits are the scalar code's. Each lane runs the scalar code's IEEE
//! operations on the same operands in the same order: `mul`, `add`, `sub`
//! and `div` only, never a fused multiply-add (nor does Rust contract the
//! scalar `a·b + c`), and `−1/h` as a sign flip. So each lane's `num`,
//! `den`, residual and square are the scalar cell's, and its comparisons
//! are the scalar ones (ordered: false on NaN). A lane at `1/h = +inf` is
//! masked out, as the scalar cell returns NaN there. On AVX-512 an
//! excluded cell's lane adds nothing: the sum and the count are masked
//! adds. On AVX2 it adds `+0.0`, where the scalar cell adds nothing; `s +
//! 0.0` is `s` for every sum `s` but `−0.0` (a NaN keeps its payload), and
//! a sum that starts at `+0.0` and adds squares is never `−0.0`.
//!
//! **Tails.** A run of `len` bandwidths is `⌊len/8⌋` full vectors on
//! AVX-512 and then, if `len mod 8 > 0`, one vector under a mask of its
//! first `len mod 8` lanes. A dead lane of that mask loads, gathers and
//! stores nothing (so nothing past a run is read or written), loads
//! `1/h = 0`, and counts nothing: the mask gates the step's count as well
//! as the cell's, because at `1/h = 0` the right-edge predicate
//! `(v − x_i)·0 ≤ r` holds and an ungated dead lane would count four keys
//! forever. AVX2 runs the full vectors of four only, and the scalar code
//! scores a run's `len mod 4` tail.
//!
//! The scalar code runs where neither instruction set is present and on
//! other architectures (the whole sweep), for the AVX2 tails, for the
//! seeding bisections, and for the local-linear cell (the local-linear
//! sweep steps its cursors in lanes). The module's tests compare every
//! lane path the host has against the scalar path: windows, live bounds,
//! profile bits and `included` counts. The lanes win at every kernel width
//! (EXPERIMENTS.md LANES), so no width opts out.
//!
//! The gathers do no bounds check. Their reads stay in bounds because
//! every swept key array ends in four `+inf` keys (only
//! [`with_sentinels`] builds a [`SentinelKeys`]); because
//! [`WindowCursors::new`] refuses a bandwidth whose predicates hold at
//! `+inf`, so a block's true keys lie before the sentinels and no cursor
//! passes `n`; and because the prefix tables assert their `n + 1` rows, so
//! every window edge indexes a row.
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
use std::ops::Range;

#[cfg(target_arch = "x86_64")]
mod lanes;

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
/// many `+inf` sentinels ([`SentinelKeys`]), so a block read from any
/// cursor position `≤ n` stays in bounds.
const BLOCK: usize = 4;

/// A sorted run of keys followed by [`BLOCK`] `+inf` sentinels: the key
/// array [`WindowCursors::sweep`] steps its cursors along. Only
/// [`with_sentinels`] builds one, so the tail is there by construction.
#[derive(Debug, Clone)]
pub(crate) struct SentinelKeys(Vec<f64>);

impl SentinelKeys {
    /// The number of keys before the sentinels.
    pub(crate) fn n(&self) -> usize {
        self.0.len() - BLOCK
    }

    /// The sorted keys, without the sentinels.
    pub(crate) fn keys(&self) -> &[f64] {
        &self.0[..self.n()]
    }
}

/// Collects a sorted run of keys and appends the [`BLOCK`] `+inf`
/// sentinels [`WindowCursors::sweep`] reads past its end.
pub(crate) fn with_sentinels(keys: impl ExactSizeIterator<Item = f64>) -> SentinelKeys {
    let mut out = Vec::with_capacity(keys.len() + BLOCK);
    out.extend(keys);
    out.extend([f64::INFINITY; BLOCK]);
    SentinelKeys(out)
}

/// The step predicate of a cursor at key `v` for the observation at key
/// `xi`: for the right edge (`RIGHT`) that `v` is in support,
/// `(v − x_i)·(1/h) ≤ r`; for the left edge that `v` lies left of it,
/// `(x_i − v)·(1/h) > r`. Each holds on a prefix of the sorted keys from
/// its cursor.
#[inline(always)]
fn holds<const RIGHT: bool>(xi: f64, v: f64, inv_h: f64, radius: f64) -> bool {
    if RIGHT {
        (v - xi) * inv_h <= radius
    } else {
        (xi - v) * inv_h > radius
    }
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

/// Steps every cursor of one edge, `edges[m]` that of inverse bandwidth
/// `inv_hs[m]`, past the keys on which its predicate holds: in lanes where
/// the host has them (see Lanes), the rest one at a time.
#[inline(always)]
fn step_edges<const RIGHT: bool>(
    keys: &SentinelKeys,
    edges: &mut [usize],
    inv_hs: &[f64],
    xi: f64,
    radius: f64,
) {
    // SAFETY: every cursor is at most `keys.n()`: it was seeded by
    // bisection over these keys (`sweep` reseeds when the key count
    // changes) and has stepped only past keys on which its predicate
    // holds. `WindowCursors::new` checked that both predicates fail at the
    // `+inf` sentinels for every `inv_h`.
    #[cfg(target_arch = "x86_64")]
    let done = unsafe { lanes::step_edges::<RIGHT>(keys, edges, inv_hs, xi, radius) };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    for (at, &inv_h) in edges[done..].iter_mut().zip(&inv_hs[done..]) {
        *at = block_step(&keys.0, *at, |v| holds::<RIGHT>(xi, v, inv_h, radius));
    }
}

/// Scores the cells of one observation for [`WindowCursors::sweep`], in
/// runs of ascending bandwidths. `LO_PINNED` says that every window of a
/// run starts at key 0 and `HI_PINNED` that it ends at key `n`, so in a
/// pinned run a pass can read a side it hoisted once per observation, with
/// no branch per cell.
pub(crate) trait CellPass {
    /// Scores the cell of bandwidth `m`, inverse bandwidth `inv_h`.
    fn cell<const LO_PINNED: bool, const HI_PINNED: bool>(
        &mut self,
        m: usize,
        inv_h: f64,
        lo: usize,
        hi: usize,
    );

    /// Scores the cells of a run: by default one [`cell`](Self::cell)
    /// each, in order.
    #[inline(always)]
    fn run<const LO_PINNED: bool, const HI_PINNED: bool>(&mut self, run: CellRun<'_>) {
        for (m, inv_h, lo, hi) in run.cells(0) {
            self.cell::<LO_PINNED, HI_PINNED>(m, inv_h, lo, hi);
        }
    }
}

/// A run of cells of one observation: the bandwidths `start..start + len`,
/// the `j`-th with inverse bandwidth `inv_hs[j]` and window
/// `[lo[j], hi[j])`. Only [`WindowCursors::sweep`] builds one, so every
/// edge is at most the count `n` of the keys it swept.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellRun<'a> {
    start: usize,
    inv_hs: &'a [f64],
    lo: &'a [usize],
    hi: &'a [usize],
}

impl CellRun<'_> {
    /// The bandwidths of the run, as indices into the sweep's list.
    pub(crate) fn range(&self) -> Range<usize> {
        self.start..self.start + self.inv_hs.len()
    }

    /// `(m, 1/h, lo, hi)` of each cell of the run from its `skip`-th on.
    #[inline(always)]
    pub(crate) fn cells(
        &self,
        skip: usize,
    ) -> impl Iterator<Item = (usize, f64, usize, usize)> + '_ {
        let cells = self.inv_hs[skip..]
            .iter()
            .zip(&self.lo[skip..])
            .zip(&self.hi[skip..]);
        (self.start + skip..)
            .zip(cells)
            .map(|(m, ((&inv_h, &lo), &hi))| (m, inv_h, lo, hi))
    }
}

/// A closure ignores the pins: it sees every window as it is, as the
/// tests that check the windows want.
#[cfg(test)]
impl<F: FnMut(usize, f64, usize, usize)> CellPass for F {
    #[inline(always)]
    fn cell<const LO_PINNED: bool, const HI_PINNED: bool>(
        &mut self,
        m: usize,
        inv_h: f64,
        lo: usize,
        hi: usize,
    ) {
        self(m, inv_h, lo, hi);
    }
}

/// The lanes a sweep pass runs in, narrowest first: the scalar code, four
/// `f64` lanes of AVX2, or eight of AVX-512 (see Lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(any(test, target_arch = "x86_64")), allow(dead_code))]
pub(crate) enum Path {
    Scalar,
    Avx2,
    Avx512,
}

#[cfg(test)]
thread_local! {
    /// The widest lanes this thread's cursor steps (`.0`) and
    /// local-constant cells (`.1`) may run in.
    static WIDEST: std::cell::Cell<(Path, Path)> =
        const { std::cell::Cell::new((Path::Avx512, Path::Avx512)) };
}

/// Runs `f` with this thread's cursor steps in at most the `step` lanes
/// and its local-constant cells in at most the `cell` lanes (the host's
/// widest where they are narrower).
#[cfg(test)]
pub(crate) fn with_paths<T>(step: Path, cell: Path, f: impl FnOnce() -> T) -> T {
    let before = WIDEST.with(|w| w.replace((step, cell)));
    let out = f();
    WIDEST.with(|w| w.set(before));
    out
}

/// The lane paths this host runs, narrowest first, each of which a test
/// compares against the scalar path. Prints each one the host lacks, so a
/// skipped comparison does not pass silently.
#[cfg(test)]
pub(crate) fn lane_paths() -> Vec<Path> {
    #[cfg(target_arch = "x86_64")]
    let host = lanes::host();
    #[cfg(not(target_arch = "x86_64"))]
    let host = Path::Scalar;
    let (ran, skipped): (Vec<Path>, Vec<Path>) = [Path::Avx2, Path::Avx512]
        .into_iter()
        .partition(|&p| p <= host);
    for path in skipped {
        println!(
            "{path:?} lanes absent on this host: their comparison with the scalar path skipped"
        );
    }
    ran
}

/// The widest lanes this thread lets `pass` run in: by [`with_paths`],
/// and the cells scalar under the full (untrimmed) reference cell.
#[cfg(all(test, target_arch = "x86_64"))]
fn widest(pass: lanes::Pass) -> Path {
    let (step, cell) = WIDEST.with(std::cell::Cell::get);
    match pass {
        lanes::Pass::Step => step,
        lanes::Pass::Cell if tests::REFERENCE_CELL.with(std::cell::Cell::get) => Path::Scalar,
        lanes::Pass::Cell => cell,
    }
}

/// One support window `[lo[m], hi[m])` per bandwidth, moved forward
/// monotonically as the observation index increases, and the two live
/// bounds past which an edge is pinned (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct WindowCursors {
    /// `1.0 / h` per bandwidth, ascending `h`: the factor of the support
    /// predicate.
    inv_hs: Vec<f64>,
    radius: f64,
    lo: Vec<usize>,
    hi: Vec<usize>,
    /// Cursors `m ≥ lo_live` have `lo[m] == 0`.
    lo_live: usize,
    /// Cursors `m ≥ hi_live` have `hi[m] == n`.
    hi_live: usize,
    /// Sorted position and key count the cursors currently describe, if
    /// any.
    at: Option<(usize, usize)>,
}

impl WindowCursors {
    /// Unseeded cursors for the ascending inverse-bandwidth list `inv_hs`
    /// (`inv_hs[m] = 1.0 / h_m`) and support radius `radius`.
    ///
    /// # Panics
    /// If a step predicate holds at `+inf` for some bandwidth (a negative
    /// `1/h`, or an infinite radius): the sentinels stop every cursor at
    /// the key count `n` only when neither predicate holds there. (For a
    /// key `x_i`, `+inf − x_i` and `x_i − +inf` are `±inf` as for
    /// `x_i = 0`, or NaN, which fails both.)
    pub(crate) fn new(inv_hs: Vec<f64>, radius: f64) -> Self {
        let inf = f64::INFINITY;
        assert!(
            inv_hs.iter().all(|&inv_h| {
                !holds::<false>(0.0, inf, inv_h, radius) && !holds::<true>(0.0, inf, inv_h, radius)
            }),
            "the support predicates must fail at the +inf sentinels"
        );
        let k = inv_hs.len();
        Self {
            inv_hs,
            radius,
            lo: vec![0; k],
            hi: vec![0; k],
            lo_live: k,
            hi_live: k,
            at: None,
        }
    }

    /// Visits every bandwidth of the key at sorted position `si`: moves
    /// cursor `m` to its support window `[lo, hi)` and scores the cells
    /// through `pass`, stepping every cursor before scoring any cell.
    ///
    /// Only the live cursors step: `lo` for `m < lo_live`, `hi` for
    /// `m < hi_live`. The cells run in at most three runs of ascending
    /// `m`, one per combination of pinned edges.
    ///
    /// When `si` lies after the current position each cursor only steps
    /// right — `O(1)` amortised per cell over a run of increasing `si`.
    /// Otherwise (fresh cursors, as at the first observation of a fold
    /// chunk, or keys of another length) they are first seeded by
    /// [`support_window`], `O(k·log n)`, after which the steps are no-ops.
    #[inline(always)]
    pub(crate) fn sweep(&mut self, keys: &SentinelKeys, si: usize, pass: &mut impl CellPass) {
        let n = keys.n();
        if !matches!(self.at, Some((prev, prev_n)) if prev < si && prev_n == n) {
            self.seed(keys.keys(), si);
        }
        self.at = Some((si, n));
        let xi = keys.keys()[si];
        let (inv_hs, radius) = (&self.inv_hs[..], self.radius);
        // The step's own predicate at key 0: a cursor it fails keeps
        // lo = 0, and 0·inf = NaN fails it as the step would.
        let key0 = keys.keys()[0];
        while self.lo_live < inv_hs.len() && holds::<false>(xi, key0, inv_hs[self.lo_live], radius)
        {
            self.lo_live += 1;
        }
        // lo ≤ si always ends a left step: d = 0 at l = si.
        step_edges::<false>(keys, &mut self.lo[..self.lo_live], inv_hs, xi, radius);
        step_edges::<true>(keys, &mut self.hi[..self.hi_live], inv_hs, xi, radius);
        // The +inf sentinels hold a cursor that reached n there.
        while self.hi_live > 0 && self.hi[self.hi_live - 1] == n {
            self.hi_live -= 1;
        }
        let (lo_live, hi_live) = (self.lo_live, self.hi_live);
        let (a, b) = (lo_live.min(hi_live), lo_live.max(hi_live));
        self.cells::<false, false>(0..a, pass);
        if lo_live < hi_live {
            self.cells::<true, false>(a..b, pass);
        } else {
            self.cells::<false, true>(a..b, pass);
        }
        self.cells::<true, true>(b..inv_hs.len(), pass);
        // One window query per cell, pinned or not, and the neighbours
        // each window leaves out.
        let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
        let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
        for (&lo, &hi) in self.lo.iter().zip(&self.hi) {
            queries.incr(1);
            skipped.incr((n - (hi - lo)) as u64);
        }
    }

    /// Scores the cells of the bandwidths `range`, whose pinned edges are
    /// `LO_PINNED` and `HI_PINNED`.
    #[inline(always)]
    fn cells<const LO_PINNED: bool, const HI_PINNED: bool>(
        &self,
        range: Range<usize>,
        pass: &mut impl CellPass,
    ) {
        pass.run::<LO_PINNED, HI_PINNED>(CellRun {
            start: range.start,
            inv_hs: &self.inv_hs[range.clone()],
            lo: &self.lo[range.clone()],
            hi: &self.hi[range],
        });
    }

    /// Seeds every cursor at `si` by bisection over the `keys`, each
    /// bandwidth narrowing from the previous one's window, and recounts
    /// the live bounds.
    fn seed(&mut self, keys: &[f64], si: usize) {
        let (mut lo, mut hi) = (si, si + 1);
        for (m, &inv_h) in self.inv_hs.iter().enumerate() {
            (lo, hi) = support_window(keys, si, inv_h, self.radius, lo, hi);
            (self.lo[m], self.hi[m]) = (lo, hi);
        }
        self.lo_live = self.lo.iter().filter(|&&lo| lo > 0).count();
        self.hi_live = self.hi.iter().filter(|&&hi| hi < keys.len()).count();
    }

    /// The live bounds `(lo_live, hi_live)`.
    #[cfg(test)]
    pub(crate) fn live(&self) -> (usize, usize) {
        (self.lo_live, self.hi_live)
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
    /// The right side of a window to key `n`, hoisted: `row[n] − self_right`.
    pinned_right: Row<W>,
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

/// The row difference `a − b`, entry by entry.
#[inline(always)]
fn row_diff<const W: usize>(a: &Row<W>, b: &Row<W>) -> Row<W> {
    let mut d = Row::ZERO;
    for m in 0..W {
        d.p[m] = a.p[m] - b.p[m];
        d.q[m] = a.q[m] - b.q[m];
    }
    d
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
            pinned_right: Row::ZERO,
        }
    }

    /// Expands the kernel polynomial about the observation with centred
    /// coordinate `xc_i`, hoists its self rows `row_si = row[si]` and
    /// `row_si1 = row[si + 1]`, and the right side of a window to key `n`,
    /// given the last row `row_n = row[n]`.
    #[inline]
    pub(crate) fn prepare(&mut self, xc_i: f64, row_si: &Row<W>, row_si1: &Row<W>, row_n: &Row<W>) {
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
        self.pinned_right = self.right_side(row_n);
    }

    /// The left side of a window from key 0, `self_left − row[0]`: that is
    /// `self_left` itself, because row 0 is `+0.0` and `x − (+0.0)` is `x`
    /// for every `x`, `−0.0` included.
    #[inline(always)]
    pub(crate) fn pinned_left(&self) -> &Row<W> {
        &self.self_left
    }

    /// The right side of a window to key `n`, hoisted by
    /// [`prepare`](Self::prepare).
    #[inline(always)]
    pub(crate) fn pinned_right(&self) -> &Row<W> {
        &self.pinned_right
    }

    /// The moment sums right of the observation, up to `row_hi = row[hi]`.
    #[inline(always)]
    pub(crate) fn right_side(&self, row_hi: &Row<W>) -> Row<W> {
        row_diff(row_hi, &self.self_right)
    }

    /// The moment sums left of the observation, from `row_lo = row[lo]`.
    #[inline(always)]
    pub(crate) fn left_side(&self, row_lo: &Row<W>) -> Row<W> {
        row_diff(&self.self_left, row_lo)
    }

    /// The leave-one-out `(numerator, denominator)` of the Nadaraya–Watson
    /// fit at bandwidth `1/inv_h` from the moment sums on each side of the
    /// observation: `left` from [`left_side`](Self::left_side), or
    /// [`pinned_left`](Self::pinned_left) for a window from key 0, and
    /// `right` likewise.
    #[inline(always)]
    pub(crate) fn score(&self, inv_h: f64, left: &Row<W>, right: &Row<W>) -> (f64, f64) {
        #[cfg(test)]
        if tests::REFERENCE_CELL.with(std::cell::Cell::get) {
            return self.score_full(inv_h, left, right);
        }
        // A bandwidth below 2^-1024 has 1/h = +inf, where the full
        // Horner's leading 0·(1/h) is NaN and excludes the cell.
        if inv_h == f64::INFINITY {
            return (f64::NAN, f64::NAN);
        }
        if self.even {
            self.score_trimmed::<true>(inv_h, left, right)
        } else {
            self.score_trimmed::<false>(inv_h, left, right)
        }
    }

    /// [`score`](Self::score) over the trimmed Horners: for an `EVEN`
    /// polynomial one Horner per moment serves both sides, otherwise the
    /// left side is the right polynomial at `−1/h`.
    #[inline(always)]
    fn score_trimmed<const EVEN: bool>(
        &self,
        inv_h: f64,
        left: &Row<W>,
        right: &Row<W>,
    ) -> (f64, f64) {
        let mut num = 0.0;
        let mut den = 0.0;
        for m in 0..W {
            let ar = trimmed_horner(&self.right[m], m, inv_h, EVEN);
            let al = if EVEN {
                ar
            } else {
                trimmed_horner(&self.right[m], m, -inv_h, false)
            };
            den += ar * right.p[m] + al * left.p[m];
            num += ar * right.q[m] + al * left.q[m];
        }
        (num, den)
    }

    /// Scores the leading cells of `run` in lanes (see the module docs):
    /// for each cell, the sides from the rows `rows[lo]` and `rows[hi]` or
    /// the hoisted ones, [`score`](Self::score), and, where `den > 0`, the
    /// squared residual `(y_i − num/den)²` added into `sq_sums[j]` and one
    /// into `included[j]`, `j` the cell's place in the run. Returns the
    /// number of leading cells scored: the whole run on AVX-512, a multiple
    /// of four on AVX2, and none on a host without lanes.
    ///
    /// # Safety
    /// Every window edge of `run` indexes `rows`.
    #[inline(always)]
    #[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
    pub(crate) unsafe fn score_lanes<const LO_PINNED: bool, const HI_PINNED: bool>(
        &self,
        rows: &[Row<W>],
        yi: f64,
        run: CellRun<'_>,
        sq_sums: &mut [f64],
        included: &mut [usize],
    ) -> usize {
        // SAFETY: the caller vouches for the window edges.
        #[cfg(target_arch = "x86_64")]
        return unsafe {
            lanes::score_cells::<W, LO_PINNED, HI_PINNED>(self, rows, yi, run, sq_sums, included)
        };
        #[cfg(not(target_arch = "x86_64"))]
        0
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
        /// Routes this thread's [`LcCell::score`] calls to [`LcCell::score_full`].
        pub(super) static REFERENCE_CELL: Cell<bool> = const { Cell::new(false) };
    }

    impl<const W: usize> LcCell<W> {
        /// The cell of the window `[lo, hi)` from its boundary rows
        /// `row_lo = row[lo]` and `row_hi = row[hi]`: the rows differenced,
        /// then [`score`](Self::score)d.
        pub(super) fn eval(&self, inv_h: f64, row_lo: &Row<W>, row_hi: &Row<W>) -> (f64, f64) {
            self.score(inv_h, &self.left_side(row_lo), &self.right_side(row_hi))
        }

        /// The cell before its Horners were trimmed: one full Horner per
        /// side over every coefficient, `j < m` zeros and the leading
        /// `0·(1/h)` included, the left side over its own sign-flipped
        /// table `left[m][j] = (−1)^j·right[m][j]`.
        pub(super) fn score_full(&self, inv_h: f64, sl: &Row<W>, sr: &Row<W>) -> (f64, f64) {
            let mut left = self.right;
            for (m, row) in left.iter_mut().enumerate() {
                for (j, b) in row.iter_mut().enumerate().skip(m) {
                    if j % 2 == 1 {
                        *b = -*b;
                    }
                }
            }
            let mut num = 0.0;
            let mut den = 0.0;
            for (m, (right, left)) in self.right.iter().zip(&left).enumerate() {
                let ar = right.iter().rev().fold(0.0, |a, &b| a * inv_h + b);
                let al = left.iter().rev().fold(0.0, |a, &b| a * inv_h + b);
                den += ar * sr.p[m] + al * sl.p[m];
                num += ar * sr.q[m] + al * sl.q[m];
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
    /// both `den`s NaN. A window from key 0 or to key `n` is also scored
    /// from the hoisted side of that edge, which must give the
    /// row-differenced cell's `num` and `den`. Every window is also scored
    /// in each lane path the host has, at every inverse bandwidth in every
    /// lane of eight, in a run that ends in a partial vector of each length
    /// 0–7 across the windows, and must accumulate what the scalar cell
    /// adds: `(y_i − num/den)²` and one where `den > 0`, nothing elsewhere,
    /// and nothing past the run.
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
        // Each inverse bandwidth once in each lane of eight (and so of
        // four): vector v holds bandwidths v, v + 1, … (mod k).
        let k = inv_hs.len();
        let lane_inv_hs: Vec<f64> = (0..8 * k).map(|j| inv_hs[(j / 8 + j % 8) % k]).collect();
        let paths = lane_paths();
        for si in 0..n {
            cell.prepare(xc[si], &rows[si], &rows[si + 1], &rows[n]);
            for lo in 0..=si {
                for hi in si + 1..=n {
                    let (left, right) = (cell.left_side(&rows[lo]), cell.right_side(&rows[hi]));
                    let hoisted_left = if lo == 0 { *cell.pinned_left() } else { left };
                    let hoisted_right = if hi == n { *cell.pinned_right() } else { right };
                    for &inv_h in inv_hs {
                        let (num, den) = cell.eval(inv_h, &rows[lo], &rows[hi]);
                        let (num_f, den_f) = cell.score_full(inv_h, &left, &right);
                        let (num_p, den_p) = cell.score(inv_h, &hoisted_left, &hoisted_right);
                        let ctx = format!(
                            "W={W} si={si} [{lo},{hi}) 1/h={inv_h:e}: \
                             trimmed ({num:e}, {den:e}), full ({num_f:e}, {den_f:e}), \
                             hoisted ({num_p:e}, {den_p:e})"
                        );
                        if !same_result(den, den_f) {
                            return Err(format!("den differs: {ctx}"));
                        }
                        if !den.is_nan() && !same_result(num, num_f) {
                            return Err(format!("num differs: {ctx}"));
                        }
                        if !same_result(den, den_p) || !same_result(num, num_p) {
                            return Err(format!("hoisted side differs: {ctx}"));
                        }
                    }
                    // A run of 8k − t cells, t = 0..7 as the window moves.
                    let run = &lane_inv_hs[..8 * k - (lo + 3 * hi) % 8];
                    let scalar: Vec<(u64, usize)> = run
                        .iter()
                        .map(|&inv_h| {
                            let (num, den) = cell.eval(inv_h, &rows[lo], &rows[hi]);
                            let resid = ys[si] - num / den;
                            match den > 0.0 {
                                true => ((0.0 + resid * resid).to_bits(), 1),
                                false => (0.0f64.to_bits(), 0),
                            }
                        })
                        .collect();
                    for &path in &paths {
                        let (done, lanes) =
                            accumulate_in_lanes(path, &cell, &rows, ys[si], run, lo, hi)?;
                        if lanes[..] != scalar[..done] {
                            return Err(format!(
                                "W={W} si={si} [{lo},{hi}), {} cells: {path:?} lanes differ",
                                run.len()
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// The sums and counts [`LcCell::score_lanes`] accumulates from zero
    /// in the `path` lanes for cells of the window `[lo, hi)` at `inv_hs`,
    /// pinned where the window starts at key 0 or ends at key `n`: the
    /// number of leading cells the lanes scored (the whole run on AVX-512,
    /// a multiple of four on AVX2) and their results. An error if the
    /// lanes wrote past the run.
    fn accumulate_in_lanes<const W: usize>(
        path: Path,
        cell: &LcCell<W>,
        rows: &[Row<W>],
        yi: f64,
        inv_hs: &[f64],
        lo: usize,
        hi: usize,
    ) -> std::result::Result<(usize, Vec<(u64, usize)>), String> {
        let k = inv_hs.len();
        let (los, his) = (vec![lo; k], vec![hi; k]);
        let run = CellRun {
            start: 0,
            inv_hs,
            lo: &los,
            hi: &his,
        };
        // Guards past the run, which no lane may write.
        const GUARD: usize = 8;
        let (mut sq, mut inc) = (vec![0.0; k + GUARD], vec![0; k + GUARD]);
        sq[k..].fill(7.0);
        inc[k..].fill(7);
        let (sums, counts) = (&mut sq[..k], &mut inc[..k]);
        let n = rows.len() - 1;
        // SAFETY: lo ≤ hi ≤ n index the n + 1 rows.
        let done = with_paths(Path::Scalar, path, || unsafe {
            match (lo == 0, hi == n) {
                (false, false) => cell.score_lanes::<false, false>(rows, yi, run, sums, counts),
                (true, false) => cell.score_lanes::<true, false>(rows, yi, run, sums, counts),
                (false, true) => cell.score_lanes::<false, true>(rows, yi, run, sums, counts),
                (true, true) => cell.score_lanes::<true, true>(rows, yi, run, sums, counts),
            }
        });
        if sq[k..].iter().any(|&s| s != 7.0) || inc[k..].iter().any(|&c| c != 7) {
            return Err(format!("{path:?} lanes wrote past a run of {k} cells"));
        }
        let expect = if path == Path::Avx512 { k } else { k / 4 * 4 };
        if done != expect {
            return Err(format!("{path:?} lanes scored {done} of {k} cells"));
        }
        let lanes = sq[..done]
            .iter()
            .map(|s| s.to_bits())
            .zip(inc[..done].iter().copied());
        Ok((done, lanes.collect()))
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
        // Each lane path against the scalar step and cell, on grids of
        // every length mod 8, each dealt into 1, 2 and 3 interleaved blocks
        // as a profile deals them (a block is the one-block profile of its
        // bandwidths).
        let paths = lane_paths();
        for k in 16..24 {
            let grid = widened(hs, k);
            for blocks in 1..=3 {
                for b in 0..blocks {
                    let block: Vec<f64> = grid.iter().copied().skip(b).step_by(blocks).collect();
                    let profile = || profile_in_blocks(x, y, &block, kernel, 1).unwrap();
                    let scalar = bits(&with_paths(Path::Scalar, Path::Scalar, profile));
                    for &path in &paths {
                        if bits(&with_paths(path, path, profile)) != scalar {
                            return Err(format!(
                                "{name}: {path:?} lanes differ from scalar, k = {k}, \
                                 block {b} of {blocks}"
                            ));
                        }
                    }
                }
            }
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

    /// `hs` (ascending) with the midpoint of each neighbouring pair, cut to
    /// `k` bandwidths or widened to `k` by doubling the widest: the narrow
    /// end gets more bandwidths with both edges live, and the wide end more
    /// with both pinned.
    fn widened(hs: &[f64], k: usize) -> Vec<f64> {
        let mut out: Vec<f64> = hs
            .windows(2)
            .map(|w| 0.5 * (w[0] + w[1]))
            .chain(hs.iter().copied())
            .collect();
        out.sort_by(f64::total_cmp);
        while out.len() < k {
            out.push(2.0 * out[out.len() - 1]);
        }
        out.truncate(k);
        out
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
            // Duplicate keys on an eighth lattice. At 1/h = +inf a left
            // edge stops on the first duplicate of x_i, so the left side
            // is not empty there and only the +inf test excludes the cell.
            2 => {
                hs.insert(0, 1e-310);
                (0..n)
                    .map(|i| {
                        let key = match i {
                            0 | 1 => i as f64,
                            _ => (rng.next_f64() * 9.0).floor() / 8.0,
                        };
                        (key, rng.next_f64() - 0.5)
                    })
                    .unzip()
            }
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
        /// the same bits when nonzero) on every window, the prefix profile
        /// and the window's re-selection are `to_bits`-equal under either
        /// cell, and every lane path the host has gives the scalar path's
        /// profile bits and `included` counts, for all six kernels.
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

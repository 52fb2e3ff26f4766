//! The prefix-moment sweep — dropping the per-observation sort and the
//! per-neighbour scan entirely.
//!
//! The sorted sweep ([`super::sorted`]) sorts every observation's
//! neighbour distances and then touches every `(observation, neighbour)`
//! pair once: its total cost is bounded below by `n²` neighbour absorptions.
//! For a compactly supported polynomial kernel and a one-dimensional
//! regressor both are redundant, because the windowed power sums the sweep
//! maintains,
//!
//! ```text
//! S_j(i, h) = Σ_{|x_i − x_l| ≤ h·r, l≠i} (x_i − x_l)^j ,
//! ```
//!
//! expand binomially into differences of **global** prefix sums. With the
//! sample sorted ascending and `P_m[t] = Σ_{l<t} x_l^m`,
//! `Q_m[t] = Σ_{l<t} y_l·x_l^m`,
//!
//! ```text
//! Σ_{l∈[a,b)} (x_l − x_i)^j = Σ_{m=0}^{j} C(j,m)·(−x_i)^{j−m}·(P_m[b] − P_m[a]) ,
//! ```
//!
//! so one `O(n log n)` argsort plus one `O(n·deg)` prefix-building pass
//! replaces the entire `n²` term. Each `(observation, bandwidth)` cell then
//! costs `O(1)` amortised window work and a fixed `O(deg²)`-flop assembly
//! (the shared cell kernel in `cv::window`):
//!
//! * the support window comes from a per-bandwidth cursor that only steps
//!   right as the observation index grows, on the bit-identical `d/h ≤ r`
//!   predicate — the fast-sum-updating sweep of Langrené & Warin (2018).
//!   Bisection only seeds the cursors at the first observation;
//! * the kernel polynomial is expanded about `x_i` once per observation,
//!   so a cell is one Horner evaluation in `1/h` of the `deg + 1`
//!   per-moment coefficients and two dot products against prefix
//!   differences;
//! * each observation makes two passes over the bandwidths: one steps
//!   every cursor a block of keys at a time, one scores every cell.
//!
//! ```text
//! O(n log n + n·k·deg²) amortised, plus O(k·log n) cursor seeding
//! ```
//!
//! versus the sorted sweep's `O(n² log n + n·k·deg)` — closed-form
//! leave-one-out CV over the whole grid with no per-neighbour work.
//!
//! ## Splitting the grid across cores
//!
//! Every cell is independent, so the sweep parallelises along either
//! axis. Splitting the *observations* (the paper's SPMD layout) makes each
//! worker reseed all `k` cursors and regroups every bandwidth's sum in the
//! reduction, which moves the last bits of the scores. This engine splits
//! the *bandwidths* instead: the argsort and the tables are built once on
//! the calling thread, the ascending grid is cut into one contiguous block
//! per core, and each block runs the sequential step above — its own
//! cursors and cell, over all `n` observations in order — into its own
//! slice of the profile (the private `cv::fold` module). Each bandwidth's
//! sum is then the same left-to-right sum as on one thread, so the profile is
//! `to_bits`-identical to the sequential sweep at any core count, and each
//! core keeps only its block's cursors (`2·k/cores` row streams) live.
//! Below `SPLIT_MIN_CELLS` (`n·k` = 65 536) starting the workers costs
//! more than the second core saves, and the profile stays on the calling
//! thread.
//!
//! The prefix rows are fixed-size arrays of the kernel width
//! (`W = deg + 1` local-constant, `deg + 3` local-linear). Each profile
//! resolves `W` from the kernel's coefficient count once and runs a sweep
//! compiled for that width, so the per-cell loops have constant trip
//! counts. The sweeps are compiled for degrees up to
//! [`MAX_KERNEL_DEGREE`](super::MAX_KERNEL_DEGREE) `= 7`; a higher-degree
//! kernel returns [`Error::KernelDegreeTooHigh`](crate::Error).
//!
//! ## Bit-identical windows, documented-tolerance scores
//!
//! The window boundaries are found with the *same* support predicate every
//! other strategy uses — `(x_i − x_l)·(1/h) ≤ r` on the **original**
//! coordinates, which is monotone along the sorted sample in IEEE
//! arithmetic — so which neighbours are in-support agrees with
//! naive/sorted exactly. `included` counts the *computed* `den > 0`, which
//! is prefix-differencing noise in a knife-edge window: ROADMAP item 1
//! measured it (and at n ≤ 50 the argmin) differing from naive's for the
//! degree-6 kernel; the tests pin both equal on the samples they run.
//! The *scores* come from differences of large prefix sums, which can
//! cancel catastrophically in sparse windows. Two defences keep the error
//! at the `1e-8`-relative level the tests pin on the paper DGP:
//!
//! 1. the prefix tables are built over **midrange-centred** coordinates
//!    `x' = x − (min+max)/2` (halves the magnitude of `x^m` without
//!    changing any exact-arithmetic score, since the moments only ever
//!    enter through differences `x_l − x_i`), and
//! 2. every prefix entry is accumulated with Neumaier compensated
//!    summation ([`crate::util::NeumaierSum`]), so the stored `P_m[t]` are
//!    correctly rounded to one ulp regardless of `n`.
//!
//! The residual error grows with the kernel degree (the binomial assembly
//! cancels more violently the higher the moment): the tests hold deg ≤ 2
//! to 1e-8 relative on the paper DGP, deg 4/6 to 1e-5 at n = 80, and no
//! tested bound covers every n (ROADMAP item 1: 7.8·10² at n = 30). One
//! genuine amplifier remains in the *local-linear* variants: a
//! near-degenerate window (all in-support regressors nearly coincident)
//! divides by a vanishing design determinant, which magnifies the moment
//! error without bound — the degeneracy *classification* still matches the
//! naive reference (it is driven by the same windowed moments at coarse
//! tolerance), but scores at such bandwidths are only reliable from the
//! scan-based strategies. The naive profile remains the
//! arbitrarily-accurate reference; see DESIGN.md's numerical-accuracy note
//! for the full tradeoff.
//!
//! The expansion requires a global total order of the regressor —
//! one-dimensional `x` — and a polynomial kernel; the sorted sweep remains
//! the general-position fallback.

use super::fold::{block_count, fold_bandwidth_blocks};
use super::window::{
    dispatch_width, moment_rows, pascal, with_sentinels, LcCell, Row, WindowCursors,
};
use super::CvProfile;
use crate::error::{validate_sample, Result};
use crate::estimate::local_linear::solve_local_linear;
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::sort::{apply_permutation, argsort};
use std::ops::Range;

/// The global moment tables: sample sorted ascending by `x`, plus
/// compensated prefix sums of `x'^m` and `y·x'^m` over midrange-centred
/// coordinates `x'`, for `m < W`. Built once (`O(n log n)` argsort +
/// `O(n·W)` pass), shared read-only by every observation.
struct PrefixTables<const W: usize> {
    /// `x` sorted ascending (original values — the support predicate runs
    /// on these so boundary classification is bit-identical to the other
    /// strategies), followed by the cursor sweep's `+inf` sentinels
    /// ([`with_sentinels`]).
    xs: Vec<f64>,
    /// `y` co-sorted with `xs`.
    ys: Vec<f64>,
    /// Midrange-centred copy of `xs` (moment assembly runs on these for
    /// conditioning; see the module docs).
    xc: Vec<f64>,
    /// `n + 1` prefix rows: row `t` holds `Σ_{l<t} xc[l]^m` in `p[m]` and
    /// `Σ_{l<t} ys[l]·xc[l]^m` in `q[m]` (so row 0 is all zero and range
    /// sums are differences of two rows), built by [`moment_rows`] from the
    /// pairs `(xc[l], ys[l])`.
    rows: Vec<Row<W>>,
    /// Sample size.
    n: usize,
}

impl<const W: usize> PrefixTables<W> {
    /// Argsorts `(x, y)` globally and builds the compensated prefix-moment
    /// rows.
    fn build(x: &[f64], y: &[f64]) -> Self {
        let (xs, ys) = {
            let _sort = kcv_obs::phase("cv.argsort");
            let perm = argsort(x);
            (
                with_sentinels(perm.iter().map(|&i| x[i])),
                apply_permutation(y, &perm),
            )
        };
        let _build = kcv_obs::phase("cv.prefix");
        let n = ys.len();
        // Midrange of the sorted sample: exact on symmetric lattices, and
        // the best single shift for bounding |xc|^m.
        let center = 0.5 * (xs[0] + xs[n - 1]);
        let xc: Vec<f64> = xs[..n].iter().map(|&v| v - center).collect();

        let rows = moment_rows(xc.iter().copied().zip(ys.iter().copied()));

        Self {
            xs,
            ys,
            xc,
            rows,
            n,
        }
    }
}

/// One side's binomially assembled window moments for the local-linear
/// step: `w[j] = Σ (xc[l] − xc[i])^j` and `wy[j] = Σ ys[l]·(xc[l] − xc[i])^j`
/// over the sorted index range between two prefix rows.
#[derive(Debug, Clone, Copy)]
struct WindowMoments<const W: usize> {
    w: [f64; W],
    wy: [f64; W],
}

impl<const W: usize> WindowMoments<W> {
    /// Assembles the moments between prefix rows `row_a` and `row_b` via
    /// the binomial expansion over prefix differences. `npow[t]` must hold
    /// `(−xc[i])^t`. `O(W²)` — independent of the window size.
    #[inline(always)]
    fn assemble(binom: &[[f64; W]; W], row_a: &Row<W>, row_b: &Row<W>, npow: &[f64; W]) -> Self {
        let mut dp = [0.0; W];
        let mut dq = [0.0; W];
        for m in 0..W {
            dp[m] = row_b.p[m] - row_a.p[m];
            dq[m] = row_b.q[m] - row_a.q[m];
        }
        let mut out = Self {
            w: [0.0; W],
            wy: [0.0; W],
        };
        for j in 0..W {
            let mut s = 0.0;
            let mut sy = 0.0;
            for (m, &c) in binom[j][..=j].iter().enumerate() {
                let coeff = c * npow[j - m];
                s += coeff * dp[m];
                sy += coeff * dq[m];
            }
            out.w[j] = s;
            out.wy[j] = sy;
        }
        out
    }
}

/// Everything one observation step reads: the shared tables, the kernel
/// polynomial and the ascending bandwidth list with its inverses. Built
/// once on the calling thread and read by every bandwidth block.
struct Sweep<'a, const W: usize> {
    t: PrefixTables<W>,
    coeffs: &'static [f64],
    radius: f64,
    hs: &'a [f64],
    /// `1.0 / h` per bandwidth, the factor of the support predicate.
    inv_hs: Vec<f64>,
}

/// Per-block workspace of the local-constant step: the block's range of
/// the bandwidth list, its window cursors and the precombined kernel
/// polynomial. No `n`-sized buffers anywhere.
struct LcScratch<const W: usize> {
    block: Range<usize>,
    cursors: WindowCursors,
    cell: LcCell<W>,
}

/// Per-block workspace of the local-linear step: the block's range of the
/// bandwidth list, its window cursors and the Pascal triangle of the table
/// width.
struct LlScratch<const W: usize> {
    block: Range<usize>,
    cursors: WindowCursors,
    binom: [[f64; W]; W],
}

/// Adds the contribution of the observation at sorted position `si` —
/// `(Y_i − ĝ_{-i}(X_i))² M(X_i)` at every bandwidth of the scratch's block
/// — into the block's `sq_sums`/`included`, local-constant form. One pass
/// over the block: an amortised `O(1)` cursor step and one precombined
/// cell each; no per-neighbour work.
fn accumulate_observation_prefix<const W: usize>(
    si: usize,
    sw: &Sweep<'_, W>,
    scratch: &mut LcScratch<W>,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let t = &sw.t;
    let yi = t.ys[si];
    scratch.cell.prepare(t.xc[si], &t.rows[si], &t.rows[si + 1]);
    let cell = &scratch.cell;

    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    scratch.cursors.sweep(
        &t.xs,
        si,
        &sw.inv_hs[scratch.block.clone()],
        sw.radius,
        |m, inv_h, lo, hi| {
            queries.incr(1);
            skipped.incr((t.n - (hi - lo)) as u64);
            // The split at si excludes i itself from both sides.
            let (num, den) = cell.eval(inv_h, &t.rows[lo], &t.rows[hi]);
            if den > 0.0 {
                let resid = yi - num / den;
                sq_sums[m] += resid * resid;
                included[m] += 1;
            }
        },
    );
}

/// Local-linear twin of [`accumulate_observation_prefix`] over tables of
/// width `W = deg + 3`: assembles the five signed moments `S_0..S_2,
/// T_0..T_1` of [`super::sorted_ll`] from window moments up to `deg + 2`
/// (`|e|^q·e^j` is `±e^{q+j}` by side) and feeds `solve_local_linear`.
/// Shares the cursor sweep with the local-constant step but keeps its own
/// binomial assembly.
fn accumulate_observation_prefix_ll<const W: usize>(
    si: usize,
    sw: &Sweep<'_, W>,
    scratch: &mut LlScratch<W>,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let t = &sw.t;
    let yi = t.ys[si];
    let neg_xi = -t.xc[si];
    let mut npow = [1.0; W];
    for m in 1..W {
        npow[m] = npow[m - 1] * neg_xi;
    }
    let (row_si, row_si1) = (&t.rows[si], &t.rows[si + 1]);
    let binom = &scratch.binom;
    let hs = &sw.hs[scratch.block.clone()];

    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    scratch.cursors.sweep(
        &t.xs,
        si,
        &sw.inv_hs[scratch.block.clone()],
        sw.radius,
        |m, inv_h, lo, hi| {
            queries.incr(1);
            skipped.incr((t.n - (hi - lo)) as u64);

            // Window moments on each side of i; the split excludes i itself.
            let left = WindowMoments::assemble(binom, &t.rows[lo], row_si, &npow);
            let right = WindowMoments::assemble(binom, row_si1, &t.rows[hi], &npow);

            // With e = x_l − x_i (signed): |e|^q·e^j equals e^{q+j} on the
            // right and (−1)^q·e^{q+j} on the left, so
            // A_{q,j} = W_{q+j}^right + (−1)^q·W_{q+j}^left (and B likewise
            // with the y-weighted moments).
            let mut hp = 1.0;
            let mut s0 = 0.0;
            let mut s1 = 0.0;
            let mut s2 = 0.0;
            let mut t0 = 0.0;
            let mut t1 = 0.0;
            let mut sign = 1.0;
            for (q, &cq) in sw.coeffs.iter().enumerate() {
                let c = cq * hp;
                s0 += c * (right.w[q] + sign * left.w[q]);
                s1 += c * (right.w[q + 1] + sign * left.w[q + 1]);
                s2 += c * (right.w[q + 2] + sign * left.w[q + 2]);
                t0 += c * (right.wy[q] + sign * left.wy[q]);
                t1 += c * (right.wy[q + 1] + sign * left.wy[q + 1]);
                hp *= inv_h;
                sign = -sign;
            }
            if let Some(g) = solve_local_linear([s0, s1, s2, t0, t1], hs[m]) {
                let r = yi - g;
                sq_sums[m] += r * r;
                included[m] += 1;
            }
        },
    );
}

/// The local-constant prefix-moment profile over the bandwidth list `hs`,
/// split into bandwidth blocks across host cores by work size
/// ([`block_count`]). Shared by the public entry points below and by the
/// d = 1 dispatch of the multivariate fast engine (`crate::multi::fast`).
///
/// `hs` must be non-decreasing — the cursors are seeded by bisections that
/// narrow monotonically from one bandwidth to the next, so an out-of-order
/// list would resolve wrong windows. Callers with an arbitrary bandwidth
/// list sort it (with an index map) first; callers holding a
/// [`BandwidthGrid`] are ascending by construction.
///
/// # Errors
/// As the public entry points, plus [`crate::Error::KernelDegreeTooHigh`]
/// for a kernel above [`super::MAX_KERNEL_DEGREE`].
pub(crate) fn profile<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
) -> Result<CvProfile> {
    profile_in_blocks(x, y, hs, kernel, block_count(x.len(), hs.len()))
}

/// [`profile`] in exactly `blocks` contiguous bandwidth blocks (clamped to
/// `1..=k`); the profile is bit-identical at every count. One block runs on
/// the calling thread, the form for callers that already run on parallel
/// workers, such as bagged selection's bags.
pub(crate) fn profile_in_blocks<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    blocks: usize,
) -> Result<CvProfile> {
    let (coeffs, radius) = (kernel.coeffs(), kernel.radius());
    validate_sample(x, y, 2)?;
    dispatch_width!(coeffs, 0, profile_lc(x, y, hs, coeffs, radius, blocks))
}

/// [`profile_in_blocks`] at table width `W = deg + 1`.
fn profile_lc<const W: usize>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    coeffs: &'static [f64],
    radius: f64,
    blocks: usize,
) -> CvProfile {
    let sw = Sweep::<W>::new(x, y, hs, coeffs, radius);
    let new_scratch = |block: Range<usize>| LcScratch {
        cursors: WindowCursors::new(block.len()),
        cell: LcCell::new(coeffs),
        block,
    };
    sw.fold(blocks, new_scratch, accumulate_observation_prefix)
}

/// The local-linear prefix-moment profile over the ascending list `hs`, in
/// `blocks` contiguous bandwidth blocks as [`profile_in_blocks`].
fn profile_ll<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    blocks: usize,
) -> Result<CvProfile> {
    let (coeffs, radius) = (kernel.coeffs(), kernel.radius());
    validate_sample(x, y, 2)?;
    // The slope term weights offsets quadratically: local-linear needs
    // moments up to deg + 2.
    dispatch_width!(coeffs, 2, profile_ll_w(x, y, hs, coeffs, radius, blocks))
}

/// [`profile_ll`] at table width `W = deg + 3`.
fn profile_ll_w<const W: usize>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    coeffs: &'static [f64],
    radius: f64,
    blocks: usize,
) -> CvProfile {
    let sw = Sweep::<W>::new(x, y, hs, coeffs, radius);
    let new_scratch = |block: Range<usize>| LlScratch {
        cursors: WindowCursors::new(block.len()),
        binom: pascal(),
        block,
    };
    sw.fold(blocks, new_scratch, accumulate_observation_prefix_ll)
}

impl<'a, const W: usize> Sweep<'a, W> {
    /// Builds the moment tables of a validated sample.
    fn new(x: &[f64], y: &[f64], hs: &'a [f64], coeffs: &'static [f64], radius: f64) -> Self {
        debug_assert!(
            hs.windows(2).all(|w| w[0] <= w[1]),
            "bandwidths must be non-decreasing"
        );
        Self {
            t: PrefixTables::build(x, y),
            coeffs,
            radius,
            hs,
            inv_hs: hs.iter().map(|&h| 1.0 / h).collect(),
        }
    }

    /// Folds `step` over every observation against the tables, once per
    /// bandwidth block. Generic over the step, so each form's
    /// per-observation code is compiled into the fold's loop rather than
    /// called through a function pointer.
    fn fold<S, F>(
        &self,
        blocks: usize,
        new_scratch: impl Fn(Range<usize>) -> S + Sync + Send,
        step: F,
    ) -> CvProfile
    where
        F: Fn(usize, &Self, &mut S, &mut [f64], &mut [usize]) + Sync + Send,
    {
        let _window = kcv_obs::phase("cv.window");
        fold_bandwidth_blocks(
            self.t.n,
            self.hs,
            blocks,
            new_scratch,
            |si, scratch, sq, inc| step(si, self, scratch, sq, inc),
        )
    }
}

/// Computes the CV profile with the prefix-moment sweep:
/// `O(n log n + n·k·deg²)` amortised total — no per-neighbour scan. The
/// argsort and table build run on the calling thread; from
/// `SPLIT_MIN_CELLS = 65 536` cells the grid is cut into one contiguous
/// block per core, each swept over every observation in order, so the
/// profile is bit-identical to the sequential sweep at any core count.
///
/// # Errors
/// On an invalid sample (as [`validate_sample`] with `n ≥ 2`), and
/// [`Error::KernelDegreeTooHigh`](crate::Error) for a kernel of degree
/// above [`MAX_KERNEL_DEGREE`](super::MAX_KERNEL_DEGREE). The same holds
/// for [`cv_profile_prefix_ll`].
pub fn cv_profile_prefix<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid.values(), kernel)
}

/// Local-linear CV profile via the prefix-moment sweep, split across cores
/// by bandwidth blocks as [`cv_profile_prefix`].
pub fn cv_profile_prefix_ll<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    let hs = grid.values();
    profile_ll(x, y, hs, kernel, block_count(x.len(), hs.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::fold::SPLIT_MIN_CELLS;
    use crate::cv::{
        cv_profile_naive, cv_profile_sorted, cv_profile_sorted_ll, sorted_ll::cv_profile_naive_ll,
    };
    use crate::kernels::{
        polynomial_kernels, Epanechnikov, EpanechnikovConvolution, Quartic, Triangular, Triweight,
        Uniform,
    };
    use crate::util::{approx_eq, SplitMix64};
    use proptest::prelude::*;

    fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        (x, y)
    }

    fn assert_profiles_agree(a: &CvProfile, b: &CvProfile, tol: f64) {
        assert_eq!(a.len(), b.len());
        for m in 0..a.len() {
            assert_eq!(
                a.included[m], b.included[m],
                "included mismatch at h={}",
                a.bandwidths[m]
            );
            assert!(
                approx_eq(a.scores[m], b.scores[m], tol, tol),
                "score mismatch at h={}: {} vs {}",
                a.bandwidths[m],
                a.scores[m],
                b.scores[m]
            );
        }
    }

    /// The acceptance criterion of this PR: 1e-8 relative score agreement
    /// with the naive reference on the seed DGP, identical argmin.
    #[test]
    fn prefix_matches_naive_within_1e8_on_paper_dgp() {
        let (x, y) = paper_dgp(150, 11);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let prefix = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        assert_profiles_agree(&prefix, &naive, 1e-8);
        assert_eq!(
            prefix.argmin().unwrap().bandwidth,
            naive.argmin().unwrap().bandwidth
        );
    }

    #[test]
    fn prefix_matches_naive_for_every_polynomial_kernel() {
        // Degree-scaled tolerance: cancellation in the binomial assembly
        // grows with the highest moment, so the deg-4/deg-6 kernels get the
        // looser bound the module docs put on them.
        let (x, y) = paper_dgp(80, 12);
        let grid = BandwidthGrid::paper_default(&x, 23).unwrap();
        macro_rules! check {
            ($k:expr, $tol:expr) => {{
                let prefix = cv_profile_prefix(&x, &y, &grid, &$k).unwrap();
                let naive = cv_profile_naive(&x, &y, &grid, &$k).unwrap();
                assert_profiles_agree(&prefix, &naive, $tol);
            }};
        }
        check!(Epanechnikov, 1e-8);
        check!(Uniform, 1e-8);
        check!(Triangular, 1e-8);
        check!(Quartic, 1e-5);
        check!(Triweight, 1e-5);
    }

    #[test]
    fn prefix_handles_duplicated_x_values() {
        // Zero-distance neighbours: the window always contains the ties, and
        // the stable argsort order must not matter.
        let x = vec![0.2, 0.5, 0.5, 0.5, 0.8, 0.2, 0.9, 0.5];
        let y = vec![1.0, 2.0, -1.0, 3.0, 0.5, 4.0, 2.5, 0.0];
        let grid = BandwidthGrid::linear(0.05, 1.0, 25).unwrap();
        let prefix = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        assert_profiles_agree(&prefix, &naive, 1e-9);
        assert!(prefix.included.iter().all(|&c| c >= 6));
    }

    #[test]
    fn prefix_matches_naive_on_clustered_design() {
        // Clusters + an isolated point: exercises empty windows (exactly-
        // zero prefix differences) and M(X_i) = 0.
        let mut rng = SplitMix64::new(13);
        let mut x = Vec::new();
        for c in [0.0, 0.1, 5.0] {
            for _ in 0..20 {
                x.push(c + 0.01 * rng.next_f64());
            }
        }
        x.push(100.0);
        let y: Vec<f64> = x.iter().map(|&v| v.sin() + rng.next_f64()).collect();
        let grid = BandwidthGrid::linear(0.005, 2.0, 40).unwrap();
        let prefix = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
        assert_profiles_agree(&prefix, &naive, 1e-8);
        assert!(prefix.included.iter().all(|&c| c < x.len()));
    }

    #[test]
    fn prefix_works_with_two_observations() {
        let x = [0.0, 0.5];
        let y = [1.0, 3.0];
        let grid = BandwidthGrid::linear(0.1, 1.0, 5).unwrap();
        let profile = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        for (m, &h) in grid.values().iter().enumerate() {
            if h < 0.5 {
                assert_eq!(profile.included[m], 0);
            } else {
                assert_eq!(profile.included[m], 2);
                assert!((profile.scores[m] - 4.0).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn prefix_argmin_matches_naive_and_sorted() {
        for seed in 0..5 {
            let (x, y) = paper_dgp(120, 100 + seed);
            let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
            let a = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
            let b = cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
            let c = cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
            assert_eq!(a.argmin().unwrap().index, b.argmin().unwrap().index);
            assert_eq!(a.argmin().unwrap().index, c.argmin().unwrap().index);
        }
    }

    #[test]
    fn prefix_handles_unsorted_input() {
        let (x, y) = paper_dgp(90, 16);
        let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
        let unsorted = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        let perm = crate::sort::argsort(&x);
        let xs = crate::sort::apply_permutation(&x, &perm);
        let ys = crate::sort::apply_permutation(&y, &perm);
        let sorted_input = cv_profile_prefix(&xs, &ys, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            assert!(approx_eq(
                unsorted.scores[m],
                sorted_input.scores[m],
                1e-10,
                1e-12
            ));
        }
    }

    #[test]
    fn prefix_ll_matches_naive_ll() {
        // Inclusion (and LL degeneracy-fallback) classification must agree
        // at every bandwidth, down to the sparsest windows.
        let (x, y) = paper_dgp(120, 205);
        let full_grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let prefix_full = cv_profile_prefix_ll(&x, &y, &full_grid, &Epanechnikov).unwrap();
        let naive_full = cv_profile_naive_ll(&x, &y, &full_grid, &Epanechnikov).unwrap();
        assert_eq!(prefix_full.included, naive_full.included);
        // Score agreement is asserted away from near-degenerate windows
        // (tiny h): there the LL system's 1/det amplifies the documented
        // prefix-differencing error without bound (see the module docs).
        let grid = BandwidthGrid::linear(0.1, 1.0, 30).unwrap();
        let prefix = cv_profile_prefix_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        let naive = cv_profile_naive_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            assert_eq!(prefix.included[m], naive.included[m], "h index {m}");
            assert!(
                approx_eq(prefix.scores[m], naive.scores[m], 1e-8, 1e-10),
                "h={}: {} vs {}",
                grid.values()[m],
                prefix.scores[m],
                naive.scores[m]
            );
        }
    }

    #[test]
    fn prefix_ll_matches_sorted_ll() {
        let (x, y) = paper_dgp(200, 206);
        let grid = BandwidthGrid::linear(0.1, 1.0, 25).unwrap();
        let prefix = cv_profile_prefix_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        let sorted = cv_profile_sorted_ll(&x, &y, &grid, &Epanechnikov).unwrap();
        assert_eq!(prefix.included, sorted.included);
        for m in 0..grid.len() {
            assert!(approx_eq(prefix.scores[m], sorted.scores[m], 1e-7, 1e-9));
        }
    }

    /// Every cursor window equals a fresh, un-narrowed bisection, whether
    /// the cursors were seeded at the first observation or mid-sample and
    /// then stepped forward, and no window ever covers a sentinel.
    #[test]
    fn cursor_windows_match_bisection_oracle() {
        use crate::cv::window::{support_window, with_sentinels, WindowCursors};
        let mut rng = SplitMix64::new(41);
        let random: Vec<f64> = (0..300).map(|_| rng.next_f64()).collect();
        let duplicates: Vec<f64> = (0..300)
            .map(|_| (rng.next_f64() * 12.0).floor() / 12.0)
            .collect();
        let lattice: Vec<f64> = (0..64).map(|j| j as f64 / 16.0).collect();
        // Tight clusters of 1, 4, 5, 8 and 100 keys one unit apart: moving
        // from one cluster to the next, an edge stands still or jumps a
        // whole cluster, past one or many cursor blocks.
        let clusters: Vec<f64> = [1, 4, 5, 8, 100, 5, 1]
            .iter()
            .enumerate()
            .flat_map(|(c, &size)| (0..size).map(move |j| c as f64 + 1e-3 * j as f64 / size as f64))
            .collect();
        let samples = [
            ("random", random),
            ("duplicates", duplicates),
            ("lattice", lattice),
            ("clusters", clusters),
        ];
        for (name, mut xs) in samples {
            xs.sort_by(f64::total_cmp);
            let n = xs.len();
            let keys = with_sentinels(xs.iter().copied());
            let mut hs = BandwidthGrid::paper_default(&xs, 40)
                .unwrap()
                .values()
                .to_vec();
            // Power-of-two bandwidths put lattice neighbours exactly on the
            // support boundary; the widest ones hold hi at n from the first
            // observation, so every block step there reads the sentinels.
            let range = xs[n - 1] - xs[0];
            hs.extend([0.0625, 0.125, 0.25, 0.5, 0.002, 2.0 * range, 1e3 * range]);
            hs.sort_by(f64::total_cmp);
            let inv_hs: Vec<f64> = hs.iter().map(|&h| 1.0 / h).collect();
            for start in [0, n / 3, n - 1] {
                let mut cursors = WindowCursors::new(hs.len());
                for si in start..n {
                    let mut visited = 0;
                    cursors.sweep(&keys, si, &inv_hs, 1.0, |m, inv_h, lo, hi| {
                        assert_eq!(inv_h, inv_hs[m]);
                        assert_eq!(
                            (lo, hi),
                            support_window(&xs, si, inv_h, 1.0, si, si + 1),
                            "{name}: start {start}, observation {si}, h = {}",
                            hs[m]
                        );
                        assert!(
                            lo <= si && si < hi && hi <= n,
                            "{name}: window covers a sentinel"
                        );
                        assert_eq!(m, visited, "bandwidths visited out of order");
                        visited += 1;
                    });
                    assert_eq!(visited, hs.len());
                }
            }
        }
    }

    /// Every polynomial kernel the crate ships, one per instantiated width.
    fn all_widths() -> [&'static dyn PolynomialKernel; 6] {
        [
            &Uniform,
            &Triangular,
            &Epanechnikov,
            &Quartic,
            &Triweight,
            &EpanechnikovConvolution,
        ]
    }

    /// Asserts that every block count — dividing `k`, not dividing it,
    /// equal to it and above it — gives the one-block profile's score bits
    /// and inclusion counts, local-constant and local-linear, for every
    /// kernel width.
    fn assert_blocks_bit_identical(case: &str, x: &[f64], y: &[f64], hs: &[f64]) {
        let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let k = hs.len();
        for kernel in all_widths() {
            let one_lc = profile_in_blocks(x, y, hs, kernel, 1).unwrap();
            let one_ll = profile_ll(x, y, hs, kernel, 1).unwrap();
            for blocks in [2, 3, 7, k, k + 5] {
                let lc = profile_in_blocks(x, y, hs, kernel, blocks).unwrap();
                let ll = profile_ll(x, y, hs, kernel, blocks).unwrap();
                for (form, one, split) in [("lc", &one_lc, &lc), ("ll", &one_ll, &ll)] {
                    let at = format!("{case} {form} {} in {blocks} blocks", kernel.name());
                    assert_eq!(bits(split), bits(one), "{at}");
                    assert_eq!(split.included, one.included, "{at}");
                    assert_eq!(split.bandwidths, hs, "{at}");
                    assert_eq!(split.n, x.len(), "{at}");
                }
            }
        }
    }

    #[test]
    fn bandwidth_blocks_are_bit_identical_on_the_paper_dgp() {
        for (n, k) in [
            (2, 1),
            (2, 3),
            (3, 3),
            (17, 3),
            (17, 100),
            (400, 37),
            (400, 100),
        ] {
            let (x, y) = paper_dgp(n, 300 + n as u64);
            let hs = BandwidthGrid::paper_default(&x, k)
                .unwrap()
                .values()
                .to_vec();
            assert_blocks_bit_identical(&format!("n = {n}, k = {k}"), &x, &y, &hs);
        }
    }

    /// The boundary-tie lattice: spacing 0.25 with exact binary `y`, so
    /// power-of-two bandwidths put neighbours exactly on the support edge,
    /// plus bandwidths that include nobody and everybody.
    #[test]
    fn bandwidth_blocks_are_bit_identical_on_boundary_ties() {
        let x = [0.0, 0.25, 0.5, 0.75, 1.0];
        let y = [1.0, 2.0, -1.0, 0.5, 3.0];
        for hs in [
            vec![0.25, 0.5],
            vec![0.125, 1.0],
            vec![0.0625, 0.125, 0.25, 0.375, 0.5, 0.75, 1.0, 2.0, 4.0],
        ] {
            assert_blocks_bit_identical(&format!("lattice {hs:?}"), &x, &y, &hs);
        }
    }

    /// Splitting pays only from [`SPLIT_MIN_CELLS`]: below it a profile
    /// stays on the calling thread, above it each core gets a block.
    #[test]
    fn block_count_follows_the_work_size() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(block_count(500, 100), 1);
        assert_eq!(block_count(SPLIT_MIN_CELLS - 1, 1), 1);
        assert_eq!(block_count(SPLIT_MIN_CELLS, 1), 1);
        assert_eq!(block_count(SPLIT_MIN_CELLS, 100), cores.min(100));
        assert_eq!(block_count(usize::MAX, 3), cores.min(3));
    }

    /// Sequential versus split profile wall time and cost per cell across
    /// `n` at the paper-default k = 100 (Epanechnikov; median and
    /// interquartile range of alternating runs, 21 up to n = 2·10⁴, fewer
    /// above): the measurement behind [`SPLIT_MIN_CELLS`]. The last column
    /// splits into twice as many blocks as cores. Naive rows follow, at
    /// `n·(n−1)·k` kernel evaluations around the naive engine's own
    /// threshold. A timing table, not a check, so it runs only on request:
    /// `cargo test --release -p kcv-core --lib split_crossover_table --
    /// --ignored --nocapture`.
    #[test]
    #[ignore = "timing table; run on request in release"]
    fn split_crossover_table() {
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        println!(
            "| engine | n | cells | sequential ms | split in {cores} ms | speed-up | \
             ns/cell seq | ns/cell split | split in {} ms |",
            2 * cores
        );
        println!("|---|---|---|---|---|---|---|---|---|");
        let prefix_sizes = [
            20, 80, 160, 320, 640, 1000, 2000, 20_000, 200_000, 1_000_000,
        ];
        let naive_sizes = [10, 14, 20, 28, 40, 56, 80, 160, 320, 1000];
        let runs = prefix_sizes
            .map(|n| ("prefix", n))
            .into_iter()
            .chain(naive_sizes.map(|n| ("naive", n)));
        for (engine, n) in runs {
            let reps = match n {
                0..=20_000 => 21,
                20_001..=200_000 => 5,
                _ => 3,
            };
            let (x, y) = paper_dgp(n, 7);
            let hs = BandwidthGrid::paper_default(&x, 100)
                .unwrap()
                .values()
                .to_vec();
            let time = |blocks: usize| {
                let start = std::time::Instant::now();
                std::hint::black_box(match engine {
                    "prefix" => profile_in_blocks(&x, &y, &hs, &Epanechnikov, blocks),
                    _ => crate::cv::naive::profile_in_blocks(&x, &y, &hs, &Epanechnikov, blocks),
                })
                .unwrap();
                start.elapsed().as_secs_f64() * 1e3
            };
            let mut runs = [vec![], vec![], vec![]];
            for _ in 0..reps {
                for (blocks, samples) in [1, cores, 2 * cores].into_iter().zip(&mut runs) {
                    samples.push(time(blocks));
                }
            }
            let [one, split, twice] = runs.map(|mut v| {
                v.sort_by(f64::total_cmp);
                (v[reps / 2], v[reps / 4], v[3 * reps / 4])
            });
            let cells = (n * hs.len()) as f64;
            let ms = |(m, lo, hi): (f64, f64, f64)| format!("{m:.3} ({lo:.3}–{hi:.3})");
            println!(
                "| {engine} | {n} | {cells} | {} | {} | {:.2} | {:.1} | {:.1} | {} |",
                ms(one),
                ms(split),
                one.0 / split.0,
                one.0 * 1e6 / cells,
                split.0 * 1e6 / cells,
                ms(twice)
            );
        }
    }

    /// The sweep refuses keys without their sentinels.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sentinels")]
    fn sweep_checks_the_sentinel_tail() {
        let keys = [
            0.0,
            0.25,
            0.5,
            0.75,
            1.0,
            f64::INFINITY,
            f64::INFINITY,
            f64::INFINITY,
        ];
        let mut cursors = crate::cv::window::WindowCursors::new(1);
        cursors.sweep(&keys, 0, &[1.0], 1.0, |_, _, _, _| {});
    }

    /// The precombined assembly against the naive oracle where the
    /// coefficients `(−x_i)^{j−m}` are large: a translated design (the
    /// midrange centring must absorb the shift) and a cluster with a far
    /// outlier (most points sit far from the midrange).
    #[test]
    fn precombined_assembly_matches_naive_on_shifted_designs() {
        let (x, y) = paper_dgp(120, 43);
        let translated: Vec<f64> = x.iter().map(|&v| v + 1e4).collect();
        let mut clustered = x.clone();
        clustered[0] = 4.0;
        for (name, x) in [("translated", translated), ("outlier", clustered)] {
            let grid = BandwidthGrid::linear(0.05, 1.0, 30).unwrap();
            for kernel in polynomial_kernels() {
                let prefix = cv_profile_prefix(&x, &y, &grid, &*kernel).unwrap();
                let naive = cv_profile_naive(&x, &y, &grid, &*kernel).unwrap();
                let deg = kernel.coeffs().len() - 1;
                let tol = match deg {
                    0..=2 => 1e-6,
                    3..=4 => 1e-4,
                    _ => 1e-2,
                };
                assert_eq!(prefix.included, naive.included, "{name} {}", kernel.name());
                for m in 0..grid.len() {
                    assert!(
                        approx_eq(prefix.scores[m], naive.scores[m], tol, 1e-9),
                        "{name} {} h={}: {} vs {}",
                        kernel.name(),
                        grid.values()[m],
                        prefix.scores[m],
                        naive.scores[m]
                    );
                }
                assert_eq!(
                    prefix.argmin().unwrap().index,
                    naive.argmin().unwrap().index,
                    "{name} {}",
                    kernel.name()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_prefix_equals_naive(
            seed in 0u64..10_000,
            n in 5usize..60,
            k in 1usize..30,
        ) {
            let (x, y) = paper_dgp(n, seed);
            let grid = BandwidthGrid::paper_default(&x, k).unwrap();
            for kernel in polynomial_kernels() {
                let prefix = cv_profile_prefix(&x, &y, &grid, &*kernel).unwrap();
                let naive = cv_profile_naive(&x, &y, &grid, &*kernel).unwrap();
                // Degree-scaled tolerance: the monomial-cancellation caveat
                // of the sorted sweep plus the prefix-differencing loss this
                // module documents.
                let deg = kernel.coeffs().len() - 1;
                let tol = match deg {
                    0..=2 => 1e-6,
                    3..=4 => 1e-4,
                    _ => 1e-2,
                };
                for (m, (&ours, &theirs)) in
                    prefix.scores.iter().zip(&naive.scores).enumerate()
                {
                    prop_assert_eq!(prefix.included[m], naive.included[m]);
                    prop_assert!(
                        approx_eq(ours, theirs, tol, 1e-9),
                        "kernel {} (deg {deg}) h={}: {ours} vs {theirs}",
                        kernel.name(), grid.values()[m]
                    );
                }
                // Equal argmin whenever any bandwidth is valid.
                if let Ok(a) = prefix.argmin() {
                    prop_assert_eq!(a.index, naive.argmin().unwrap().index);
                }
            }
        }
    }
}

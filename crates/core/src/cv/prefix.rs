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
//! replaces the entire `n²` term, and each `(observation, bandwidth)` cell
//! then costs one support-window resolution (two binary searches on the
//! bit-identical `d/h ≤ r` predicate, `O(log n)`) plus an `O(deg²)`
//! binomial assembly:
//!
//! ```text
//! O(n log n + n·k·(log n + deg²))
//! ```
//!
//! versus the sorted sweep's `O(n² log n + n·k·deg)` — this is the
//! fast-sum-updating idea of Langrené & Warin (2018) pushed one step
//! further, to closed-form leave-one-out CV over the whole grid.
//!
//! ## Bit-identical classification, documented-tolerance scores
//!
//! The window boundaries are found with the *same* support predicate every
//! other strategy uses — `(x_i − x_l)·(1/h) ≤ r` on the **original**
//! coordinates, which is monotone along the sorted sample in IEEE
//! arithmetic — so which neighbours are in-support (and therefore
//! `included` and the selected bandwidth) agrees with naive/sorted
//! exactly. The *scores*, however, come from differences of large prefix
//! sums, which can cancel catastrophically in sparse windows. Two defences
//! keep the error at the `1e-8`-relative level the tests pin on the paper
//! DGP:
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
//! cancels more violently the higher the moment): the deg ≤ 2 kernels hold
//! 1e-8 relative on the paper DGP, the deg-4/deg-6 kernels ~1e-5. One
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

use super::fold::fold_observations;
use super::CvProfile;
use crate::error::{validate_sample, Result};
use crate::estimate::local_linear::solve_local_linear;
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;
use crate::sort::{apply_permutation, argsort};
use crate::util::NeumaierSum;

/// The global moment tables: sample sorted ascending by `x`, plus
/// compensated prefix sums of `x'^m` and `y·x'^m` over midrange-centred
/// coordinates `x'`, for `m = 0..=max_m`. Built once (`O(n log n)` argsort
/// + `O(n·max_m)` pass), shared read-only by every observation.
struct PrefixTables {
    /// `x` sorted ascending (original values — the support predicate runs
    /// on these so boundary classification is bit-identical to the other
    /// strategies).
    xs: Vec<f64>,
    /// `y` co-sorted with `xs`.
    ys: Vec<f64>,
    /// Midrange-centred copy of `xs` (moment assembly runs on these for
    /// conditioning; see the module docs).
    xc: Vec<f64>,
    /// Flattened `(max_m+1) × (n+1)` prefix sums: `px[m·(n+1) + t]` is
    /// `Σ_{l<t} xc[l]^m` (so `px[m·(n+1)] = 0` and range sums are
    /// differences of two entries).
    px: Vec<f64>,
    /// Same layout, `y`-weighted: `Σ_{l<t} ys[l]·xc[l]^m`.
    py: Vec<f64>,
    /// Flattened `(max_m+1) × (max_m+1)` Pascal triangle:
    /// `binom[j·(max_m+1) + m] = C(j, m)` for `m ≤ j`.
    binom: Vec<f64>,
    /// Highest prefix moment stored (`deg` for local-constant, `deg + 2`
    /// for local-linear).
    max_m: usize,
    /// Sample size.
    n: usize,
}

impl PrefixTables {
    /// Argsorts `(x, y)` globally and builds the compensated prefix-moment
    /// tables up to moment `max_m`.
    fn build(x: &[f64], y: &[f64], max_m: usize) -> Self {
        let (xs, ys) = {
            let _sort = kcv_obs::phase("cv.argsort");
            let perm = argsort(x);
            (apply_permutation(x, &perm), apply_permutation(y, &perm))
        };
        let _build = kcv_obs::phase("cv.prefix");
        let n = xs.len();
        // Midrange of the sorted sample: exact on symmetric lattices, and
        // the best single shift for bounding |xc|^m.
        let center = 0.5 * (xs[0] + xs[n - 1]);
        let xc: Vec<f64> = xs.iter().map(|&v| v - center).collect();

        let stride = n + 1;
        let mut px = vec![0.0; (max_m + 1) * stride];
        let mut py = vec![0.0; (max_m + 1) * stride];
        let mut accx = vec![NeumaierSum::new(); max_m + 1];
        let mut accy = vec![NeumaierSum::new(); max_m + 1];
        for t in 0..n {
            let v = xc[t];
            let yv = ys[t];
            let mut pw = 1.0;
            for m in 0..=max_m {
                accx[m].add(pw);
                accy[m].add(yv * pw);
                px[m * stride + t + 1] = accx[m].value();
                py[m * stride + t + 1] = accy[m].value();
                pw *= v;
            }
        }

        let bw = max_m + 1;
        let mut binom = vec![0.0; bw * bw];
        for j in 0..=max_m {
            binom[j * bw] = 1.0;
            for m in 1..=j {
                binom[j * bw + m] =
                    binom[(j - 1) * bw + m - 1] + if m < j { binom[(j - 1) * bw + m] } else { 0.0 };
            }
        }

        Self { xs, ys, xc, px, py, binom, max_m, n }
    }

    /// Writes the windowed moments over sorted index range `[a, b)` into
    /// `w`/`wy` for every `j = 0..=max_m`:
    ///
    /// ```text
    /// w[j]  = Σ_{l∈[a,b)} (xc[l] − xc[i])^j
    /// wy[j] = Σ_{l∈[a,b)} ys[l]·(xc[l] − xc[i])^j
    /// ```
    ///
    /// via the binomial expansion over prefix differences. `npow[t]` must
    /// hold `(−xc[i])^t`. `O(max_m²)` — independent of the window size.
    fn window_moments(&self, a: usize, b: usize, npow: &[f64], scratch: &mut MomentScratch) {
        let stride = self.n + 1;
        for m in 0..=self.max_m {
            scratch.dp[m] = self.px[m * stride + b] - self.px[m * stride + a];
            scratch.dq[m] = self.py[m * stride + b] - self.py[m * stride + a];
        }
        let bw = self.max_m + 1;
        for j in 0..=self.max_m {
            let row = &self.binom[j * bw..j * bw + j + 1];
            let mut s = 0.0;
            let mut sy = 0.0;
            for (m, &c) in row.iter().enumerate() {
                let coeff = c * npow[j - m];
                s += coeff * scratch.dp[m];
                sy += coeff * scratch.dq[m];
            }
            scratch.w[j] = s;
            scratch.wy[j] = sy;
        }
    }
}

/// Per-side workspace for one binomial assembly (all `max_m + 1` long).
#[derive(Debug, Clone)]
struct MomentScratch {
    /// Prefix differences `P_m[b] − P_m[a]`.
    dp: Vec<f64>,
    /// Prefix differences `Q_m[b] − Q_m[a]`.
    dq: Vec<f64>,
    /// Assembled `w[j]` window moments.
    w: Vec<f64>,
    /// Assembled `y`-weighted `wy[j]` window moments.
    wy: Vec<f64>,
}

impl MomentScratch {
    fn new(max_m: usize) -> Self {
        let z = vec![0.0; max_m + 1];
        Self { dp: z.clone(), dq: z.clone(), w: z.clone(), wy: z }
    }
}

/// Per-observation workspace for the prefix sweep: powers of `−xc[i]` plus
/// one [`MomentScratch`] per window side. No `n`-sized buffers anywhere.
struct PrefixScratch {
    npow: Vec<f64>,
    left: MomentScratch,
    right: MomentScratch,
}

impl PrefixScratch {
    fn new(max_m: usize) -> Self {
        Self {
            npow: vec![0.0; max_m + 1],
            left: MomentScratch::new(max_m),
            right: MomentScratch::new(max_m),
        }
    }
}

/// Resolves the support window `[lo, hi)` of the observation at sorted
/// position `si` for bandwidth `1/inv_h`, narrowing monotonically from the
/// previous (smaller-bandwidth) window: `lo` is searched in `[0, lo_prev]`,
/// `hi` in `[hi_prev, n]`. The predicate is the bit-identical
/// `d·(1/h) ≤ r` every other strategy uses, evaluated on the original
/// sorted coordinates, so the returned membership set matches
/// naive/sorted exactly. Costs at most `~2·⌈log₂ n⌉` probes.
#[inline]
fn support_window(
    xs: &[f64],
    si: usize,
    inv_h: f64,
    radius: f64,
    lo_prev: usize,
    hi_prev: usize,
) -> (usize, usize) {
    let xi = xs[si];
    // Leftmost l with (xi − xs[l])·inv_h ≤ r; l = si trivially qualifies.
    let (mut a, mut b) = (0usize, lo_prev);
    while a < b {
        let mid = (a + b) / 2;
        if (xi - xs[mid]) * inv_h <= radius {
            b = mid;
        } else {
            a = mid + 1;
        }
    }
    let lo = a;
    // One past the rightmost l with (xs[l] − xi)·inv_h ≤ r.
    let (mut a, mut b) = (hi_prev, xs.len());
    while a < b {
        let mid = (a + b) / 2;
        if (xs[mid] - xi) * inv_h <= radius {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    (lo, a)
}

/// Adds the contribution of the observation at sorted position `si` —
/// `(Y_i − ĝ_{-i}(X_i))² M(X_i)` at every grid bandwidth — into
/// `sq_sums`/`included`, local-constant form. Per bandwidth: one window
/// query + `O(deg²)` assembly; no per-neighbour work at all.
#[allow(clippy::too_many_arguments)]
fn accumulate_observation_prefix(
    si: usize,
    t: &PrefixTables,
    coeffs: &[f64],
    radius: f64,
    hs: &[f64],
    scratch: &mut PrefixScratch,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let n = t.n;
    let yi = t.ys[si];
    let neg_xi = -t.xc[si];
    scratch.npow[0] = 1.0;
    for m in 1..=t.max_m {
        scratch.npow[m] = scratch.npow[m - 1] * neg_xi;
    }

    let mut lo = si;
    let mut hi = si + 1;
    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    for (m, &h) in hs.iter().enumerate() {
        let inv_h = 1.0 / h;
        (lo, hi) = support_window(&t.xs, si, inv_h, radius, lo, hi);
        queries.incr(1);
        skipped.incr((n - (hi - lo)) as u64);

        // Window moments on each side of i; the split excludes i itself.
        t.window_moments(lo, si, &scratch.npow, &mut scratch.left);
        t.window_moments(si + 1, hi, &scratch.npow, &mut scratch.right);

        // d = x_i − x_l on the left, x_l − x_i on the right, so
        // S_j = W_j^right + (−1)^j · W_j^left; then the usual
        // N/D = Σ_j c_j h^{-j} · {SY_j, S_j} assembly.
        let mut hp = 1.0;
        let mut num = 0.0;
        let mut den = 0.0;
        let mut sign = 1.0;
        for (j, &cf) in coeffs.iter().enumerate() {
            let s_j = scratch.right.w[j] + sign * scratch.left.w[j];
            let sy_j = scratch.right.wy[j] + sign * scratch.left.wy[j];
            num += cf * hp * sy_j;
            den += cf * hp * s_j;
            hp *= inv_h;
            sign = -sign;
        }
        if den > 0.0 {
            let resid = yi - num / den;
            sq_sums[m] += resid * resid;
            included[m] += 1;
        }
    }
}

/// Local-linear twin of [`accumulate_observation_prefix`]: assembles the
/// five signed moments `S_0..S_2, T_0..T_1` of [`super::sorted_ll`] from
/// window moments up to `deg + 2` (`|e|^q·e^j` is `±e^{q+j}` by side) and
/// feeds `solve_local_linear`.
#[allow(clippy::too_many_arguments)]
fn accumulate_observation_prefix_ll(
    si: usize,
    t: &PrefixTables,
    coeffs: &[f64],
    radius: f64,
    hs: &[f64],
    scratch: &mut PrefixScratch,
    sq_sums: &mut [f64],
    included: &mut [usize],
) {
    let n = t.n;
    let yi = t.ys[si];
    let neg_xi = -t.xc[si];
    scratch.npow[0] = 1.0;
    for m in 1..=t.max_m {
        scratch.npow[m] = scratch.npow[m - 1] * neg_xi;
    }

    let mut lo = si;
    let mut hi = si + 1;
    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    for (m, &h) in hs.iter().enumerate() {
        let inv_h = 1.0 / h;
        (lo, hi) = support_window(&t.xs, si, inv_h, radius, lo, hi);
        queries.incr(1);
        skipped.incr((n - (hi - lo)) as u64);

        t.window_moments(lo, si, &scratch.npow, &mut scratch.left);
        t.window_moments(si + 1, hi, &scratch.npow, &mut scratch.right);

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
        for (q, &cq) in coeffs.iter().enumerate() {
            let c = cq * hp;
            s0 += c * (scratch.right.w[q] + sign * scratch.left.w[q]);
            s1 += c * (scratch.right.w[q + 1] + sign * scratch.left.w[q + 1]);
            s2 += c * (scratch.right.w[q + 2] + sign * scratch.left.w[q + 2]);
            t0 += c * (scratch.right.wy[q] + sign * scratch.left.wy[q]);
            t1 += c * (scratch.right.wy[q + 1] + sign * scratch.left.wy[q + 1]);
            hp *= inv_h;
            sign = -sign;
        }
        if let Some(g) = solve_local_linear([s0, s1, s2, t0, t1], h) {
            let r = yi - g;
            sq_sums[m] += r * r;
            included[m] += 1;
        }
    }
}

/// The local-constant prefix-moment profile over the bandwidth list `hs`.
/// Shared by the public entry points below and by the d = 1 dispatch of the
/// multivariate fast engine (`crate::multi::fast`).
///
/// `hs` must be non-decreasing — the support windows narrow monotonically
/// from one bandwidth to the next, so an out-of-order list would resolve
/// wrong windows. Callers with an arbitrary bandwidth list sort it (with an
/// index map) first; callers holding a [`BandwidthGrid`] are ascending by
/// construction.
pub(crate) fn profile<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    parallel: bool,
) -> Result<CvProfile> {
    let deg = kernel.coeffs().len() - 1;
    fold_prefix(x, y, hs, kernel, deg, parallel, accumulate_observation_prefix)
}

/// The local-linear prefix-moment profile over the ascending list `hs`.
fn profile_ll<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    parallel: bool,
) -> Result<CvProfile> {
    // The slope term weights offsets quadratically: local-linear needs
    // moments up to deg + 2, but the per-cell cost stays O(log n + deg²).
    let deg = kernel.coeffs().len() - 1;
    fold_prefix(x, y, hs, kernel, deg + 2, parallel, accumulate_observation_prefix_ll)
}

/// Builds the moment tables up to `max_m` and folds `step` over every
/// observation against them. Generic over the step, so each form's
/// per-observation code is compiled into the fold's loop rather than called
/// through a function pointer.
fn fold_prefix<K, F>(
    x: &[f64],
    y: &[f64],
    hs: &[f64],
    kernel: &K,
    max_m: usize,
    parallel: bool,
    step: F,
) -> Result<CvProfile>
where
    K: PolynomialKernel + ?Sized,
    F: Fn(usize, &PrefixTables, &[f64], f64, &[f64], &mut PrefixScratch, &mut [f64], &mut [usize])
        + Sync
        + Send,
{
    validate_sample(x, y, 2)?;
    debug_assert!(hs.windows(2).all(|w| w[0] <= w[1]), "bandwidths must be non-decreasing");
    let coeffs = kernel.coeffs();
    let radius = kernel.radius();
    let t = PrefixTables::build(x, y, max_m);

    let _window = kcv_obs::phase("cv.window");
    Ok(fold_observations(
        t.n,
        hs,
        parallel,
        || PrefixScratch::new(t.max_m),
        |si, scratch, sq, inc| step(si, &t, coeffs, radius, hs, scratch, sq, inc),
    ))
}

/// Computes the CV profile with the prefix-moment sweep, sequentially:
/// `O(n log n + n·k·(log n + deg²))` total — no per-neighbour scan.
pub fn cv_profile_prefix<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid.values(), kernel, false)
}

/// Parallel prefix-moment CV profile: the argsort and table build run once
/// on the calling thread, then observations fold across cores against the
/// shared read-only tables.
pub fn cv_profile_prefix_par<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile(x, y, grid.values(), kernel, true)
}

/// Local-linear CV profile via the prefix-moment sweep, sequential.
pub fn cv_profile_prefix_ll<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile_ll(x, y, grid.values(), kernel, false)
}

/// Local-linear prefix-moment CV profile, parallel over observations.
pub fn cv_profile_prefix_ll_par<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> Result<CvProfile> {
    profile_ll(x, y, grid.values(), kernel, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::{
        cv_profile_naive, cv_profile_sorted, cv_profile_sorted_ll, sorted_ll::cv_profile_naive_ll,
    };
    use crate::kernels::{polynomial_kernels, Epanechnikov, Quartic, Triangular, Triweight, Uniform};
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
            assert!(approx_eq(unsorted.scores[m], sorted_input.scores[m], 1e-10, 1e-12));
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

//! Device-side edge search: support-window resolution on the globally
//! sorted sample.
//!
//! The windowed GPU program ([`crate::windowed`]) answers each
//! `(observation, bandwidth)` cell from global prefix-moment tables, so the
//! only data-dependent device work per cell is finding the support window
//! `[lo, hi)` — two edge searches over the sorted `x` with the workspace's
//! standard predicate `d·(1/h) ≤ r`. Every probe is **one divergent
//! global-memory read** (threads in a warp search different regions, so
//! probes cannot coalesce), one comparison flop, and one branch
//! ([`charge_probes`]); the searches return their probe counts, and the
//! kernel charges a thread's probes once, when its warp ends.
//!
//! A thread's windows nest across an ascending bandwidth sweep, so `lo` is
//! searched in `[0, lo_prev]` and `hi` in `[hi_prev, n]`. On an evenly
//! spaced grid an edge moves about as far at one bandwidth as at the one
//! before, so each search first probes the predicted edge
//! `prev_edge ∓ prev_step`, then one bracket of `prev_step/8 + 1`
//! positions on whichever side of the prediction holds the edge, and
//! bisects what is left ([`predict`] is that plan, shared by both forms of
//! the search below). An edge that did not move costs one probe, one that
//! moved as predicted about `2 + log₂(prev_step/8 + 1)`, and the worst
//! case is `⌈log₂ n⌉ + 2` probes per side. [`SupportWindow`] carries the
//! steps from one bandwidth to the next.
//!
//! ## Lanes
//!
//! On a host with AVX2 the windowed kernel searches eight threads' edges at
//! once ([`lanes::WindowLanes`], x86-64 only): each lane is one thread, at
//! its own positions, as 32-bit integers. A probe is one gather
//! (`_mm256_mask_i32gather_ps`) under the mask of the lanes that probe at
//! that step; the guess, the bracket and every bisection step run under
//! per-lane masks, and the bisection repeats while any lane's range is
//! still open — the warp's divergence. A lane probes exactly where, and
//! exactly as often as, the scalar [`SupportWindow::advance`] does:
//!
//! * the predicate is the scalar one, `sub` then `mul` on the same
//!   operands, compared with `_CMP_LE_OQ` (false on NaN, as Rust's `<=`
//!   is) on the left and its negation `_CMP_NLE_UQ` on the right;
//! * the prediction is the same generic [`predict`], and the bracket and
//!   the bisection move the same bounds by the same rules, by blends where
//!   the scalar code branches or selects;
//! * a lane that does not probe at a step neither reads memory (the gather
//!   is masked) nor counts the probe.
//!
//! The lanes need every position, and `a + b` of a bisection, to fit an
//! `i32`; the kernel runs them only on tables whose word count does.

use kcv_gpu_sim::ThreadCounters;
use std::ops::Add;

/// One thread's support window `[lo, hi)` across an ascending bandwidth
/// sweep, with how far each edge moved at the last bandwidth — the
/// prediction for the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SupportWindow {
    /// First position in the window.
    pub lo: usize,
    /// One past the last position in the window.
    pub hi: usize,
    /// How far `lo` moved down at the last bandwidth.
    lo_step: usize,
    /// How far `hi` moved up at the last bandwidth.
    hi_step: usize,
}

impl SupportWindow {
    /// The window of the observation at sorted position `si` before the
    /// first bandwidth: `[si, si + 1)`, neither edge moving.
    pub(crate) fn new(si: usize) -> Self {
        Self {
            lo: si,
            hi: si + 1,
            lo_step: 0,
            hi_step: 0,
        }
    }

    /// Widens the window to the support of the observation at `x = xi`
    /// for bandwidth `1/inv_h`, which must be no smaller than the last
    /// bandwidth. Returns the probes spent on the `lo` and the `hi` edge;
    /// each is at most `⌈log₂ n⌉ + 2`.
    ///
    /// The predicate is the bit-identical `(xi − xs[l])·inv_h ≤ radius` (and
    /// its mirror) every CPU strategy uses, evaluated on the original sorted
    /// coordinates, so the returned membership set matches them exactly at
    /// equal precision.
    pub(crate) fn advance(&mut self, xs: &[f32], xi: f32, inv_h: f32, radius: f32) -> [u32; 2] {
        let (lo_prev, hi_prev) = (self.lo, self.hi);
        // Leftmost l with (xi − xs[l])·inv_h ≤ r; the previous lo still
        // qualifies at the wider bandwidth.
        let (guess, width) = predict(lo_prev, self.lo_step, true);
        let (lo, l) = edge(0, lo_prev, guess, width, |t| (xi - xs[t]) * inv_h <= radius);
        // One past the rightmost l with (xs[l] − xi)·inv_h ≤ r.
        let inside_right = |t: usize| (xs[t] - xi) * inv_h <= radius;
        let (guess, width) = predict(hi_prev, self.hi_step, false);
        let (hi, r) = edge(hi_prev, xs.len(), guess, width, |t| !inside_right(t));
        *self = Self {
            lo,
            hi,
            lo_step: lo_prev - lo,
            hi_step: hi - hi_prev,
        };
        [l, r]
    }
}

/// Charges `probes` edge probes to `c`: one divergent global read, one
/// comparison flop and one branch each.
pub(crate) fn charge_probes(probes: u64, c: &mut ThreadCounters) {
    c.global_read(probes);
    c.flop(probes);
    c.branch(probes);
}

/// Window positions, one thread's (`usize`) or a lane vector's: what
/// [`predict`] computes on.
pub(crate) trait Position: Copy + Add<Output = Self> {
    /// `1` in every position.
    fn one() -> Self;
    /// `self − other`, or `0` where that is negative.
    fn saturating_sub(self, other: Self) -> Self;
    /// `self / 8`, rounded down.
    fn eighth(self) -> Self;
}

impl Position for usize {
    fn one() -> Self {
        1
    }
    fn saturating_sub(self, other: Self) -> Self {
        usize::saturating_sub(self, other)
    }
    fn eighth(self) -> Self {
        self / 8
    }
}

/// The plan of one edge search whose edge sits at `edge` and moved `step`
/// at the last bandwidth, `down` for the `lo` edge: the predicted edge,
/// the same move again away from the observation, and the width of the
/// bracket probed beside it.
#[inline(always)]
pub(crate) fn predict<P: Position>(edge: P, step: P, down: bool) -> (P, P) {
    let guess = if down {
        edge.saturating_sub(step)
    } else {
        edge + step
    };
    (guess, step.eighth() + P::one())
}

/// First position `t` in `[a, b]` with `past(t)`, for a `past` that is
/// false then true over ascending positions and holds at `b` (or `b` is
/// one past the end, never probed), and the probes spent. Probes `guess`
/// first, then one bracket of `width` positions on the side of `guess`
/// that holds the edge, then bisects what is left: at most
/// `⌈log₂(b − a + 1)⌉ + 2` probes. The bisection moves its bounds by
/// selects, so a probe's outcome is data, not a branch to predict.
fn edge(
    mut a: usize,
    mut b: usize,
    guess: usize,
    width: usize,
    past: impl Fn(usize) -> bool,
) -> (usize, u32) {
    let mut probes = 0u32;
    let guess = guess.clamp(a, b);
    let before = guess < b && {
        probes += 1;
        !past(guess)
    };
    let bracket = if before {
        a = guess + 1;
        guess + width
    } else {
        b = guess;
        guess.saturating_sub(width)
    };
    let bracket = bracket.clamp(a, b);
    if bracket < b {
        probes += 1;
        if past(bracket) {
            b = bracket;
        } else {
            a = bracket + 1;
        }
    }
    while a < b {
        let mid = (a + b) / 2;
        let p = past(mid);
        probes += 1;
        b = std::hint::select_unpredictable(p, mid, b);
        a = std::hint::select_unpredictable(p, a, mid + 1);
    }
    (a, probes)
}

/// The edge search in eight AVX2 lanes (see the module docs).
#[cfg(target_arch = "x86_64")]
pub(crate) mod lanes {
    use super::{predict, Position};
    use std::arch::x86_64::*;
    use std::ops::Add;

    /// Eight window positions, one per lane, as `i32`.
    #[derive(Clone, Copy)]
    struct Lanes(__m256i);

    impl Add for Lanes {
        type Output = Self;
        #[inline(always)]
        fn add(self, other: Self) -> Self {
            // SAFETY: values of this type exist only where AVX2 does: it is
            // private to this module, which builds it only in AVX2
            // functions.
            Self(unsafe { _mm256_add_epi32(self.0, other.0) })
        }
    }

    impl Position for Lanes {
        #[inline(always)]
        fn one() -> Self {
            // SAFETY: as in `add`.
            Self(unsafe { _mm256_set1_epi32(1) })
        }
        #[inline(always)]
        fn saturating_sub(self, other: Self) -> Self {
            // SAFETY: as in `add`.
            Self(unsafe {
                _mm256_max_epi32(_mm256_sub_epi32(self.0, other.0), _mm256_setzero_si256())
            })
        }
        #[inline(always)]
        fn eighth(self) -> Self {
            // SAFETY: as in `add`. Positions are never negative.
            Self(unsafe { _mm256_srli_epi32::<3>(self.0) })
        }
    }

    /// Eight threads' support windows: [`super::SupportWindow`] with one
    /// thread per lane.
    #[derive(Clone, Copy)]
    pub(crate) struct WindowLanes {
        lo: __m256i,
        hi: __m256i,
        lo_step: __m256i,
        hi_step: __m256i,
    }

    impl WindowLanes {
        /// The windows of the observations at sorted positions `si`, one
        /// per lane, before the first bandwidth.
        #[target_feature(enable = "avx2")]
        pub(crate) fn new(si: __m256i) -> Self {
            Self {
                lo: si,
                hi: _mm256_add_epi32(si, _mm256_set1_epi32(1)),
                lo_step: _mm256_setzero_si256(),
                hi_step: _mm256_setzero_si256(),
            }
        }

        /// Each lane's first position in its window.
        pub(crate) fn lo(&self) -> __m256i {
            self.lo
        }

        /// Each lane's one past the last position in its window.
        pub(crate) fn hi(&self) -> __m256i {
            self.hi
        }

        /// [`super::SupportWindow::advance`] in every lane, lane `i` for
        /// the observation at `x = xi[i]`: returns each lane's probes on
        /// the `lo` and on the `hi` edge.
        ///
        /// # Safety
        /// The host has AVX2, `xs.len()` is below `2³⁰`, and each lane's
        /// window lies in `[0, xs.len()]`. Then every probe reads inside
        /// `xs`, and no position sum overflows.
        #[target_feature(enable = "avx2")]
        pub(crate) unsafe fn advance(
            &mut self,
            xs: &[f32],
            xi: __m256,
            inv_h: __m256,
            radius: __m256,
        ) -> (__m256i, __m256i) {
            let (lo_prev, hi_prev) = (self.lo, self.hi);
            let n = _mm256_set1_epi32(xs.len() as i32);
            let xs = xs.as_ptr();
            let (guess, width) = predict(Lanes(lo_prev), Lanes(self.lo_step), true);
            // SAFETY: the caller's contract; the search probes inside
            // [0, lo_prev).
            let (lo, l) = unsafe {
                edge::<false>(
                    xs,
                    _mm256_setzero_si256(),
                    lo_prev,
                    guess.0,
                    width.0,
                    (xi, inv_h, radius),
                )
            };
            let (guess, width) = predict(Lanes(hi_prev), Lanes(self.hi_step), false);
            // SAFETY: as above; the search probes inside [hi_prev, n).
            let (hi, r) =
                unsafe { edge::<true>(xs, hi_prev, n, guess.0, width.0, (xi, inv_h, radius)) };
            *self = Self {
                lo,
                hi,
                lo_step: _mm256_sub_epi32(lo_prev, lo),
                hi_step: _mm256_sub_epi32(hi, hi_prev),
            };
            (l, r)
        }
    }

    /// The scalar `edge` in every lane, its `past` the left edge's
    /// `(xi − xs[t])·inv_h ≤ r` or (with `RIGHT`) the right edge's
    /// `¬((xs[t] − xi)·inv_h ≤ r)`. Returns each lane's edge and probes.
    ///
    /// # Safety
    /// The host has AVX2, `0 ≤ a ≤ b` in every lane, every position below
    /// `b` indexes the array at `xs`, and `2·b` fits an `i32`.
    #[target_feature(enable = "avx2")]
    unsafe fn edge<const RIGHT: bool>(
        xs: *const f32,
        mut a: __m256i,
        mut b: __m256i,
        guess: __m256i,
        width: __m256i,
        (xi, inv_h, radius): (__m256, __m256, __m256),
    ) -> (__m256i, __m256i) {
        let one = _mm256_set1_epi32(1);
        // Whether `past` holds at each lane's `at`, for the lanes in
        // `probe` (any value elsewhere); counts their probes.
        let mut probes = _mm256_setzero_si256();
        let mut past = |at: __m256i, probe: __m256i| {
            // SAFETY: a probing lane's position lies in [a, b), so it
            // indexes `xs` (the caller's contract); the other lanes read
            // nothing.
            let v = unsafe {
                _mm256_mask_i32gather_ps::<4>(
                    _mm256_setzero_ps(),
                    xs,
                    at,
                    _mm256_castsi256_ps(probe),
                )
            };
            // A probing lane is all ones, −1 as an integer.
            probes = _mm256_sub_epi32(probes, probe);
            _mm256_castps_si256(if RIGHT {
                _mm256_cmp_ps::<_CMP_NLE_UQ>(_mm256_mul_ps(_mm256_sub_ps(v, xi), inv_h), radius)
            } else {
                _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_mul_ps(_mm256_sub_ps(xi, v), inv_h), radius)
            })
        };
        // The guess, clamped into [a, b], probed where it lies below b.
        let guess = _mm256_min_epi32(_mm256_max_epi32(guess, a), b);
        let probe = _mm256_cmpgt_epi32(b, guess);
        let before = _mm256_andnot_si256(past(guess, probe), probe);
        let up = Lanes(guess) + Lanes(width);
        let down = Lanes(guess).saturating_sub(Lanes(width));
        a = _mm256_blendv_epi8(a, _mm256_add_epi32(guess, one), before);
        b = _mm256_blendv_epi8(guess, b, before);
        // The bracket, clamped into the new [a, b], probed below b.
        let bracket = _mm256_blendv_epi8(down.0, up.0, before);
        let bracket = _mm256_min_epi32(_mm256_max_epi32(bracket, a), b);
        let probe = _mm256_cmpgt_epi32(b, bracket);
        let p = past(bracket, probe);
        b = _mm256_blendv_epi8(b, bracket, _mm256_and_si256(probe, p));
        a = _mm256_blendv_epi8(
            a,
            _mm256_add_epi32(bracket, one),
            _mm256_andnot_si256(p, probe),
        );
        // The bisection, while any lane's range is open.
        loop {
            let open = _mm256_cmpgt_epi32(b, a);
            if _mm256_testz_si256(open, open) != 0 {
                break;
            }
            let mid = _mm256_srli_epi32::<1>(_mm256_add_epi32(a, b));
            let p = past(mid, open);
            b = _mm256_blendv_epi8(b, mid, _mm256_and_si256(open, p));
            a = _mm256_blendv_epi8(a, _mm256_add_epi32(mid, one), _mm256_andnot_si256(p, open));
        }
        (a, probes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scan reference: the inclusive support of `xi` under the same f32
    /// predicate.
    fn scan_window(xs: &[f32], xi: f32, inv_h: f32, radius: f32) -> (usize, usize) {
        let lo = xs
            .iter()
            .position(|&v| (xi - v) * inv_h <= radius)
            .unwrap_or(xs.len());
        let hi = xs
            .iter()
            .rposition(|&v| (v - xi) * inv_h <= radius)
            .map_or(lo, |p| p + 1);
        (lo, hi)
    }

    fn sorted_sample(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        let mut xs: Vec<f32> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) as f32
            })
            .collect();
        xs.sort_by(f32::total_cmp);
        xs
    }

    #[test]
    fn matches_scan_reference_over_an_ascending_sweep() {
        let xs = sorted_sample(257, 9);
        let n = xs.len();
        for si in [0usize, 1, 100, 255, 256] {
            let xi = xs[si];
            let mut window = SupportWindow::new(si);
            for step in 1..=40 {
                let h = step as f32 * 0.03;
                let [l, r] = window.advance(&xs, xi, 1.0 / h, 1.0);
                let probes = l + r;
                let (want_lo, want_hi) = scan_window(&xs, xi, 1.0 / h, 1.0);
                assert_eq!((window.lo, window.hi), (want_lo, want_hi), "si={si} h={h}");
                assert!(
                    probes as usize <= 2 * n.ilog2() as usize + 4,
                    "si={si} h={h}: {probes} probes"
                );
            }
        }
    }

    /// A linear and a geometric grid of bandwidths, ascending.
    fn grids() -> [(&'static str, Vec<f32>); 2] {
        let linear: Vec<f32> = (1..=25).map(|s| s as f32 / 25.0).collect();
        let geometric: Vec<f32> = (0..)
            .map(|s| 1e-3 * 1.2f32.powi(s))
            .take_while(|&h| h < 1.5)
            .collect();
        [("linear", linear), ("geometric", geometric)]
    }

    #[test]
    fn predicted_edge_search_matches_scan_reference_for_every_thread() {
        for n in [97usize, 257, 1000, 4000] {
            // ⌈log₂ n⌉ + 2 probes per side.
            let worst = (usize::BITS - (n - 1).leading_zeros()) + 2;
            let uniform = sorted_sample(n, n as u64);
            // Eighths: nine distinct values, so long runs of ties.
            let lattice: Vec<f32> = uniform.iter().map(|v| (v * 8.0).round() / 8.0).collect();
            for (data, xs) in [("uniform", &uniform), ("lattice", &lattice)] {
                for (name, grid) in grids() {
                    for si in 0..n {
                        let xi = xs[si];
                        let mut window = SupportWindow::new(si);
                        for &h in grid.iter() {
                            let probes = window.advance(xs, xi, 1.0 / h, 1.0);
                            let want = scan_window(xs, xi, 1.0 / h, 1.0);
                            let case = format!("{data} {name} n={n} si={si} h={h}");
                            assert_eq!((window.lo, window.hi), want, "{case}");
                            assert!(probes.iter().all(|&p| p <= worst), "{case}: {probes:?}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn charges_one_divergent_read_flop_and_branch_per_probe() {
        let xs = sorted_sample(100, 4);
        let [l, r] = SupportWindow::new(50).advance(&xs, xs[50], 1.0 / 0.2, 1.0);
        let probes = u64::from(l + r);
        assert!(probes > 0);
        let mut c = ThreadCounters::default();
        charge_probes(probes, &mut c);
        assert_eq!(
            c,
            ThreadCounters {
                global_reads: probes,
                flops: probes,
                branches: probes,
                ..ThreadCounters::default()
            },
            "probes must not coalesce"
        );
    }

    #[test]
    fn duplicate_values_resolve_to_the_full_tie_run() {
        let xs = vec![0.0f32, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0];
        // All three ties sit inside any window around 0.5.
        let mut window = SupportWindow::new(3);
        window.advance(&xs, 0.5, 1.0 / 0.1, 1.0);
        assert_eq!((window.lo, window.hi), (2, 5));
    }

    #[test]
    fn degenerate_window_stays_empty_at_tiny_bandwidth() {
        let xs = vec![0.0f32, 10.0, 20.0];
        let mut window = SupportWindow::new(1);
        window.advance(&xs, 10.0, 1.0 / 0.5, 1.0);
        assert_eq!(
            (window.lo, window.hi),
            (1, 2),
            "only the observation itself is in support"
        );
    }

    /// The lane search against the scalar one, eight threads at a time:
    /// every lane's edges and per-side probes at every bandwidth, on
    /// uniform keys, long tie runs, a grid whose `1/h` overflows to `+inf`
    /// and grids from one that covers the whole sample, for lane groups
    /// starting at every position (the last ones clamp their lanes to the
    /// final thread, as the kernel's partial lane groups do).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_search_spends_the_scalar_probes_to_the_same_edges() {
        use lanes::WindowLanes;
        use std::arch::x86_64::*;
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let [(_, linear), (_, geometric)] = grids();
        let overflow = vec![1e-39f32, 1e-3, 0.3, 0.3, 2.0];
        let covering = vec![1.5f32, 2.0, 3.0];
        for n in [1usize, 9, 257, 1000] {
            let uniform = sorted_sample(n, 3 + n as u64);
            let lattice: Vec<f32> = uniform.iter().map(|v| (v * 8.0).round() / 8.0).collect();
            for xs in [&uniform, &lattice] {
                for grid in [&linear, &geometric, &overflow, &covering] {
                    for first in (0..n).step_by(3) {
                        let si: [usize; 8] = std::array::from_fn(|i| (first + i).min(n - 1));
                        let xi: [f32; 8] = si.map(|s| xs[s]);
                        let mut scalar = si.map(SupportWindow::new);
                        // SAFETY: AVX2 is present; n is far below 2³⁰ and
                        // every window starts inside [0, n].
                        unsafe {
                            let mut lanes = WindowLanes::new(_mm256_loadu_si256(
                                si.map(|s| s as i32).as_ptr().cast(),
                            ));
                            let xiv = _mm256_loadu_ps(xi.as_ptr());
                            for &h in grid {
                                let inv_h = 1.0 / h;
                                let (l, r) = lanes.advance(
                                    xs,
                                    xiv,
                                    _mm256_set1_ps(inv_h),
                                    _mm256_set1_ps(1.0),
                                );
                                let got = [lanes.lo(), lanes.hi(), l, r].map(|v| {
                                    let mut out = [0i32; 8];
                                    _mm256_storeu_si256(out.as_mut_ptr().cast(), v);
                                    out
                                });
                                for (i, w) in scalar.iter_mut().enumerate() {
                                    let [pl, pr] = w.advance(xs, xi[i], inv_h, 1.0);
                                    let want = [w.lo as i32, w.hi as i32, pl as i32, pr as i32];
                                    let lane = got.map(|g| g[i]);
                                    assert_eq!(lane, want, "n={n} si={} h={h}", si[i]);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

//! Costed device-side edge search: support-window resolution on the
//! globally sorted sample.
//!
//! The windowed GPU program (in `kcv-gpu`) answers each
//! `(observation, bandwidth)` cell from global prefix-moment tables, so the
//! only data-dependent device work per cell is finding the support window
//! `[lo, hi)` — two edge searches over the sorted `x` with the workspace's
//! standard predicate `d·(1/h) ≤ r`. This module provides that device
//! function with its cost accounting: every probe is **one divergent
//! global-memory read** (threads in a warp search different regions, so
//! probes cannot coalesce), one comparison flop, and one branch.
//!
//! A thread's windows nest across an ascending bandwidth sweep, so `lo` is
//! searched in `[0, lo_prev]` and `hi` in `[hi_prev, n]`. On an evenly
//! spaced grid an edge moves about as far at one bandwidth as at the one
//! before, so each search first probes the predicted edge
//! `prev_edge ∓ prev_step`, then one bracket of `prev_step/8 + 1`
//! positions on whichever side of the prediction holds the edge, and
//! bisects what is left. An edge that did not move costs one probe, one
//! that moved as predicted about `2 + log₂(prev_step/8 + 1)`, and the worst
//! case is `⌈log₂ n⌉ + 2` probes per side. [`SupportWindow`] carries the
//! steps from one bandwidth to the next.

use crate::cost::ThreadCounters;

/// One thread's support window `[lo, hi)` across an ascending bandwidth
/// sweep, with how far each edge moved at the last bandwidth — the
/// prediction for the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupportWindow {
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
    pub fn new(si: usize) -> Self {
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
    /// equal precision. Charges one divergent global read, one flop, and one
    /// branch per probe to `c`, once for both searches.
    pub fn advance(
        &mut self,
        xs: &[f32],
        xi: f32,
        inv_h: f32,
        radius: f32,
        c: &mut ThreadCounters,
    ) -> [u32; 2] {
        let (lo_prev, hi_prev) = (self.lo, self.hi);
        // Leftmost l with (xi − xs[l])·inv_h ≤ r; the previous lo still
        // qualifies at the wider bandwidth.
        let lo_guess = lo_prev.saturating_sub(self.lo_step);
        let (lo, l) = edge(0, lo_prev, lo_guess, self.lo_step, |t| {
            (xi - xs[t]) * inv_h <= radius
        });
        // One past the rightmost l with (xs[l] − xi)·inv_h ≤ r.
        let inside_right = |t: usize| (xs[t] - xi) * inv_h <= radius;
        let hi_guess = hi_prev + self.hi_step;
        let (hi, r) = edge(hi_prev, xs.len(), hi_guess, self.hi_step, |t| {
            !inside_right(t)
        });
        let probes = u64::from(l + r);
        c.global_read(probes);
        c.flop(probes);
        c.branch(probes);
        *self = Self {
            lo,
            hi,
            lo_step: lo_prev - lo,
            hi_step: hi - hi_prev,
        };
        [l, r]
    }
}

/// First position `t` in `[a, b]` with `past(t)`, for a `past` that is
/// false then true over ascending positions and holds at `b` (or `b` is
/// one past the end, never probed), and the probes spent. Probes `guess`
/// first, then one bracket of `step/8 + 1` positions on the side of
/// `guess` that holds the edge, then bisects what is left: at most
/// `⌈log₂(b − a + 1)⌉ + 2` probes. The bisection moves its bounds by
/// selects, so a probe's outcome is data, not a branch to predict.
fn edge(
    mut a: usize,
    mut b: usize,
    guess: usize,
    step: usize,
    past: impl Fn(usize) -> bool,
) -> (usize, u32) {
    let mut probes = 0u32;
    let width = step / 8 + 1;
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
            let mut c = ThreadCounters::default();
            for step in 1..=40 {
                let h = step as f32 * 0.03;
                let [l, r] = window.advance(&xs, xi, 1.0 / h, 1.0, &mut c);
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

    #[test]
    fn predicted_edge_search_matches_scan_reference_for_every_thread() {
        let linear: Vec<f32> = (1..=25).map(|s| s as f32 / 25.0).collect();
        let geometric: Vec<f32> = (0..)
            .map(|s| 1e-3 * 1.2f32.powi(s))
            .take_while(|&h| h < 1.5)
            .collect();
        for n in [97usize, 257, 1000, 4000] {
            // ⌈log₂ n⌉ + 2 probes per side.
            let worst = (usize::BITS - (n - 1).leading_zeros()) + 2;
            let uniform = sorted_sample(n, n as u64);
            // Eighths: nine distinct values, so long runs of ties.
            let lattice: Vec<f32> = uniform.iter().map(|v| (v * 8.0).round() / 8.0).collect();
            for (data, xs) in [("uniform", &uniform), ("lattice", &lattice)] {
                for (name, grid) in [("linear", &linear), ("geometric", &geometric)] {
                    for si in 0..n {
                        let xi = xs[si];
                        let mut window = SupportWindow::new(si);
                        let mut c = ThreadCounters::default();
                        let mut total = 0u64;
                        for &h in grid.iter() {
                            let probes = window.advance(xs, xi, 1.0 / h, 1.0, &mut c);
                            let want = scan_window(xs, xi, 1.0 / h, 1.0);
                            let case = format!("{data} {name} n={n} si={si} h={h}");
                            assert_eq!((window.lo, window.hi), want, "{case}");
                            assert!(probes.iter().all(|&p| p <= worst), "{case}: {probes:?}");
                            total += u64::from(probes[0] + probes[1]);
                        }
                        assert_eq!(c.global_reads, total);
                    }
                }
            }
        }
    }

    #[test]
    fn charges_one_divergent_read_flop_and_branch_per_probe() {
        let xs = sorted_sample(100, 4);
        let mut c = ThreadCounters::default();
        let [l, r] = SupportWindow::new(50).advance(&xs, xs[50], 1.0 / 0.2, 1.0, &mut c);
        let probes = l + r;
        assert!(probes > 0);
        assert_eq!(c.global_reads, probes as u64);
        assert_eq!(c.flops, probes as u64);
        assert_eq!(c.global_coalesced, 0, "probes must not coalesce");
    }

    #[test]
    fn duplicate_values_resolve_to_the_full_tie_run() {
        let xs = vec![0.0f32, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0];
        let mut c = ThreadCounters::default();
        // All three ties sit inside any window around 0.5.
        let mut window = SupportWindow::new(3);
        window.advance(&xs, 0.5, 1.0 / 0.1, 1.0, &mut c);
        assert_eq!((window.lo, window.hi), (2, 5));
    }

    #[test]
    fn degenerate_window_stays_empty_at_tiny_bandwidth() {
        let xs = vec![0.0f32, 10.0, 20.0];
        let mut c = ThreadCounters::default();
        let mut window = SupportWindow::new(1);
        window.advance(&xs, 10.0, 1.0 / 0.5, 1.0, &mut c);
        assert_eq!(
            (window.lo, window.hi),
            (1, 2),
            "only the observation itself is in support"
        );
    }
}

//! Property tests for the incremental key-pool engine.
//!
//! The contract under test (DESIGN.md, "incremental" row): after any
//! interleaved sequence of `insert`/`remove` operations, `reselect()` must
//! agree with a *fresh* `cv_profile_prefix` run over the live multiset —
//! identical inclusion classification, scores within the degree-scaled
//! prefix tolerance documented in PR 4, and a bit-for-bit identical
//! selected bandwidth. Three hostile regimes are exercised:
//!
//! * random continuous keys with interleaved removals and periodic
//!   reselects (so both the pending-run and the dead-slot query paths fire
//!   mid-stream);
//! * duplicate-heavy streams where every key collides (the closed-form
//!   duplicate path does all the work);
//! * boundary-tie lattices where `|x_i − x_l| == h·r` holds exactly at many
//!   cells, hammering the bisection's tie-breaking.
//!
//! On distinct keys centred at the sample midrange the re-selection runs
//! the prefix sweep's own operations, so there the whole profile must
//! match `to_bits` (`distinct_midrange_keys_match_prefix_bitwise`).
//!
//! Knife-edge caveat (shared with `multi_agreement.rs`): when every in-box
//! neighbour of some observation sits essentially at the support edge, its
//! leave-one-out denominator vanishes and the moment-differencing roundoff
//! is amplified arbitrarily — for the fresh prefix run just as much as for
//! the incremental engine, and the two need not even agree on the *sign*
//! of such a denominator. Grid points whose minimum positive denominator
//! mass falls below a threshold are therefore compared on guarded terms
//! only; the unconditional bit-for-bit selection claim is pinned on
//! fixed-seed streams with solid mass everywhere (`pinned_*` tests below).

use kcv_core::cv::{cv_profile_prefix, CvProfile, IncrementalSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{polynomial_kernels, EpanechnikovConvolution, PolynomialKernel};
use kcv_core::util::{approx_eq, min_max, SplitMix64};
use proptest::prelude::*;

/// Below this minimum positive leave-one-out denominator mass, a grid
/// point is knife-edge and only guarded comparisons apply (same threshold
/// as `multi_agreement.rs`).
const MASS_FLOOR: f64 = 1e-2;

/// Degree-scaled score tolerance, matching the prefix sweep's documented
/// accuracy (PR 4) and the in-module agreement tests.
fn score_tol(deg: usize) -> (f64, f64) {
    match deg {
        0..=2 => (1e-8, 1e-10),
        3..=4 => (1e-5, 1e-7),
        _ => (1e-2, 1e-4),
    }
}

/// The smallest positive leave-one-out denominator mass across the sample
/// at one bandwidth, computed directly from kernel weights (the test may
/// spend kernel evaluations; the engine under test may not).
fn min_positive_den(xs: &[f64], kernel: &dyn PolynomialKernel, h: f64) -> f64 {
    let mut min_den = f64::INFINITY;
    for (i, &xi) in xs.iter().enumerate() {
        let mut den = 0.0;
        for (l, &xl) in xs.iter().enumerate() {
            if l != i {
                den += kernel.eval((xi - xl) / h);
            }
        }
        if den > 0.0 {
            min_den = min_den.min(den);
        }
    }
    min_den
}

/// How the replay draws observations.
enum Draw {
    /// Continuous keys on `[0, 1)` (occasionally duplicating a live key),
    /// paper-DGP responses.
    Continuous,
    /// Keys confined to the lattice `{0, 1/m, …, (m−1)/m}`, paper-DGP
    /// responses: every key collides constantly.
    DuplicatePool(usize),
    /// Power-of-two lattice keys `{j/16}` with exact-binary responses
    /// `{k/8}`: `|x_i − x_l| == h·r` holds exactly at many cells.
    ExactLattice,
}

/// Replays a seeded interleaved insert/remove stream against the
/// incremental selector, mirroring it in a plain `Vec`, then returns the
/// incremental profile, a fresh prefix run over the surviving multiset,
/// and the surviving regressors.
fn replay(
    kernel: &dyn PolynomialKernel,
    grid: &BandwidthGrid,
    seed: u64,
    n_ops: usize,
    draw: &Draw,
) -> (CvProfile, CvProfile, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let mut sel = IncrementalSelector::new(kernel, grid.clone());
    let mut live: Vec<(f64, f64)> = Vec::new();
    let mut step = 0;
    // Keep streaming until the op budget is spent AND enough observations
    // survive for a meaningful profile.
    while step < n_ops || live.len() < 8 {
        let r = rng.next_f64();
        if step < n_ops && r < 0.3 && live.len() > 8 {
            let idx = (rng.next_f64() * live.len() as f64) as usize % live.len();
            let (xi, yi) = live.swap_remove(idx);
            assert!(sel.remove(xi, yi), "live observation missing from selector");
        } else {
            let (xi, yi) = match draw {
                Draw::Continuous => {
                    let xi = if r > 0.85 && !live.is_empty() {
                        // Duplicate an existing key: exercises pooled-slot
                        // inserts and the closed-form duplicate scoring.
                        live[(rng.next_f64() * live.len() as f64) as usize % live.len()].0
                    } else {
                        rng.next_f64()
                    };
                    (xi, 0.5 * xi + 10.0 * xi * xi + 0.5 * rng.next_f64())
                }
                Draw::DuplicatePool(m) => {
                    let j = (rng.next_f64() * *m as f64) as usize % m;
                    let xi = j as f64 / *m as f64;
                    (xi, 0.5 * xi + 10.0 * xi * xi + 0.5 * rng.next_f64())
                }
                Draw::ExactLattice => {
                    let j = (rng.next_f64() * 17.0) as usize % 17;
                    let k = (rng.next_f64() * 16.0) as usize % 16;
                    (j as f64 / 16.0, k as f64 / 8.0)
                }
            };
            sel.insert(xi, yi).unwrap();
            live.push((xi, yi));
        }
        // Periodic mid-stream reselect: folds the pending run and compacts
        // dead slots, so later operations hit the post-fold query path too.
        if step % 17 == 16 && live.len() >= 2 {
            sel.reselect().unwrap();
        }
        step += 1;
    }
    let xs: Vec<f64> = live.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = live.iter().map(|p| p.1).collect();
    let fresh = cv_profile_prefix(&xs, &ys, grid, kernel).unwrap();
    let inc = sel.reselect().unwrap();
    (inc, fresh, xs)
}

/// The shared mass-guarded agreement assertion:
///
/// * at solid-mass grid points, inclusion must match exactly and scores
///   must agree within the documented tolerance;
/// * the selected bandwidth must be bit-for-bit identical whenever the
///   fresh profile's optimum is well separated (runner-up beyond the score
///   tolerance) and every grid point carries solid mass — the generic
///   case; near-ties fall back to the `multi_agreement.rs`-style check
///   that the fresh score at the incremental argmin matches the fresh
///   optimum within tolerance.
fn check_agreement(
    kernel: &dyn PolynomialKernel,
    inc: &CvProfile,
    fresh: &CvProfile,
    xs: &[f64],
) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(inc.n, fresh.n);
    let (rel, abs) = score_tol(kernel.coeffs().len() - 1);
    let mass: Vec<f64> = inc
        .bandwidths
        .iter()
        .map(|&h| min_positive_den(xs, kernel, h))
        .collect();
    for (m, &mass_m) in mass.iter().enumerate() {
        if mass_m < MASS_FLOOR {
            continue;
        }
        prop_assert!(
            inc.included[m] == fresh.included[m],
            "{}: h={} classification diverged ({} vs {}, mass {})",
            kernel.name(),
            inc.bandwidths[m],
            inc.included[m],
            fresh.included[m],
            mass_m
        );
        prop_assert!(
            approx_eq(inc.scores[m], fresh.scores[m], rel, abs),
            "{}: h={} score {} vs {} (mass {})",
            kernel.name(),
            inc.bandwidths[m],
            inc.scores[m],
            fresh.scores[m],
            mass_m
        );
    }
    let (a, b) = match (inc.argmin(), fresh.argmin()) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            prop_assert!(
                a.is_err() && b.is_err(),
                "argmin availability diverged ({})",
                kernel.name()
            );
            return Ok(());
        }
    };
    let solid_everywhere = mass.iter().all(|&m| m >= MASS_FLOOR);
    let separated = !fresh
        .scores
        .iter()
        .zip(&fresh.included)
        .enumerate()
        .any(|(m, (&s, &i))| m != b.index && i > 0 && approx_eq(s, b.score, rel, abs));
    if solid_everywhere && separated {
        prop_assert!(
            a.index == b.index && a.bandwidth.to_bits() == b.bandwidth.to_bits(),
            "{}: selection not bit-identical (inc h={} vs fresh h={})",
            kernel.name(),
            a.bandwidth,
            b.bandwidth
        );
    } else if mass[a.index] >= MASS_FLOOR && mass[b.index] >= MASS_FLOOR {
        prop_assert!(
            approx_eq(fresh.scores[a.index], b.score, rel, abs),
            "{}: incremental argmin {} not a fresh near-optimum ({} vs {})",
            kernel.name(),
            a.bandwidth,
            fresh.scores[a.index],
            b.score
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random interleaved insert/remove streams over continuous keys, all
    /// polynomial kernels.
    #[test]
    fn interleaved_streams_agree(
        seed in 0u64..10_000,
        n_ops in 24usize..120,
    ) {
        let grid = BandwidthGrid::log(0.05, 1.0, 12).unwrap();
        for kernel in polynomial_kernels() {
            let (inc, fresh, xs) = replay(&*kernel, &grid, seed, n_ops, &Draw::Continuous);
            check_agreement(&*kernel, &inc, &fresh, &xs)?;
        }
    }

    /// Duplicate-saturated streams: keys confined to a small lattice so the
    /// closed-form duplicate handling carries the whole profile.
    #[test]
    fn duplicate_heavy_streams_agree(
        seed in 0u64..10_000,
        n_ops in 30usize..100,
        pool in 5usize..14,
    ) {
        let grid = BandwidthGrid::log(0.08, 1.0, 10).unwrap();
        for kernel in polynomial_kernels() {
            let (inc, fresh, xs) =
                replay(&*kernel, &grid, seed, n_ops, &Draw::DuplicatePool(pool));
            check_agreement(&*kernel, &inc, &fresh, &xs)?;
        }
    }

    /// Boundary-tie lattices: `x ∈ {j/16}`, `h ∈ {1/8, 1/4, 1/2}`, so
    /// `|x_i − x_l| == h·r` holds exactly at many cells and the two
    /// engines' window bisections must break the tie identically.
    #[test]
    fn boundary_tie_lattices_agree(
        seed in 0u64..10_000,
        n_ops in 24usize..90,
    ) {
        let grid = BandwidthGrid::from_values(vec![0.125, 0.25, 0.5]).unwrap();
        for kernel in polynomial_kernels() {
            let (inc, fresh, xs) = replay(&*kernel, &grid, seed, n_ops, &Draw::ExactLattice);
            check_agreement(&*kernel, &inc, &fresh, &xs)?;
        }
    }
}

/// Fixed-seed dense streams (n ≈ 300 after removals): every grid point
/// carries solid denominator mass, so the full unguarded contract must
/// hold — identical classification at every bandwidth and a bit-for-bit
/// identical selected bandwidth, for every polynomial kernel.
#[test]
fn pinned_streams_select_bit_identically() {
    let grid = BandwidthGrid::log(0.05, 1.0, 12).unwrap();
    for seed in [7u64, 101, 9001] {
        for kernel in polynomial_kernels() {
            let (inc, fresh, xs) = replay(&*kernel, &grid, seed, 450, &Draw::Continuous);
            for &h in grid.values() {
                assert!(
                    min_positive_den(&xs, &*kernel, h) >= MASS_FLOOR,
                    "pinned stream lost mass at h={h}; pick another seed"
                );
            }
            assert_eq!(
                inc.included,
                fresh.included,
                "{} seed {}",
                kernel.name(),
                seed
            );
            let a = inc.argmin().unwrap();
            let b = fresh.argmin().unwrap();
            assert_eq!(a.index, b.index, "{} seed {}", kernel.name(), seed);
            assert_eq!(
                a.bandwidth.to_bits(),
                b.bandwidth.to_bits(),
                "{} seed {}: selection not bit-identical",
                kernel.name(),
                seed
            );
        }
    }
}

/// The `boundary_ties.rs` design, streamed: power-of-two lattice with
/// exact-binary responses stays in exact arithmetic at this size, so the
/// profiles must match bitwise — scores included — after an insert/remove
/// detour through a key that is later evicted.
#[test]
fn pinned_exact_lattice_matches_bitwise() {
    let x = [0.0, 0.25, 0.5, 0.75, 1.0];
    let y = [1.0, 2.0, 1.5, 2.5, 2.0];
    let grid = BandwidthGrid::from_values(vec![0.25, 0.5]).unwrap();
    for kernel in polynomial_kernels() {
        let mut sel = IncrementalSelector::new(&*kernel, grid.clone());
        for (&xi, &yi) in x.iter().zip(&y) {
            sel.insert(xi, yi).unwrap();
        }
        // Detour: a transient observation inserted and removed again, so
        // the final query runs over dead-slot residue.
        sel.insert(0.375, 9.0).unwrap();
        sel.reselect().unwrap();
        assert!(sel.remove(0.375, 9.0));
        let inc = sel.reselect().unwrap();
        let fresh = cv_profile_prefix(&x, &y, &grid, &*kernel).unwrap();
        assert_eq!(inc.included, fresh.included, "{}", kernel.name());
        for m in 0..grid.len() {
            assert_eq!(
                inc.scores[m].to_bits(),
                fresh.scores[m].to_bits(),
                "{}: h={} exact-lattice score not bitwise ({} vs {})",
                kernel.name(),
                grid.values()[m],
                inc.scores[m],
                fresh.scores[m]
            );
        }
    }
}

/// On distinct keys every pool slot holds one observation (`cnt = 1`,
/// `Σy = y`), so with the centring shift at the sample midrange — where the
/// prefix sweep centres — the re-selection builds the prefix sweep's own
/// rows and runs its own cells: every score and inclusion count must match
/// a fresh `cv_profile_prefix` run `to_bits`. Covers every polynomial
/// kernel plus the degree-6 convolution kernel, the widest width.
#[test]
fn distinct_midrange_keys_match_prefix_bitwise() {
    let mut kernels = polynomial_kernels();
    kernels.push(Box::new(EpanechnikovConvolution));
    for kernel in &kernels {
        for n in [50usize, 400, 2000] {
            for seed in [3u64, 17, 2024] {
                let mut rng = SplitMix64::new(seed);
                let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
                let y: Vec<f64> = x
                    .iter()
                    .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
                    .collect();
                let mut sorted = x.clone();
                sorted.sort_by(f64::total_cmp);
                assert!(
                    sorted.windows(2).all(|w| w[0] < w[1]),
                    "keys must be distinct"
                );
                let (lo, hi) = min_max(&x).unwrap();
                let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
                let mut sel =
                    IncrementalSelector::new(&**kernel, grid.clone()).with_center(0.5 * (lo + hi));
                for (&xi, &yi) in x.iter().zip(&y) {
                    sel.insert(xi, yi).unwrap();
                }
                let inc = sel.reselect().unwrap();
                let fresh = cv_profile_prefix(&x, &y, &grid, &**kernel).unwrap();
                let case = format!("{} n={n} seed={seed}", kernel.name());
                assert_eq!(inc.n, fresh.n, "{case}");
                assert_eq!(inc.included, fresh.included, "{case}");
                for (m, (a, b)) in inc.scores.iter().zip(&fresh.scores).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{case} h={}: {a} vs {b}",
                        grid.values()[m]
                    );
                }
            }
        }
    }
}

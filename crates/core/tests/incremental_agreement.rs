//! Sliding-window re-selections against the batch prefix profile.
//!
//! `SlidingWindowSelector` re-selects by running `cv_profile_prefix` on its
//! window in arrival order, so every re-selection must equal that batch
//! profile's optimum `to_bits` — index, bandwidth, score and `included` —
//! or fail where it fails. The replays below check that at every cadence
//! firing and once more at the end, for all six polynomial kernels, over
//! windows that fill and then evict their oldest observation:
//!
//! * continuous keys, occasionally repeating a key still in the window;
//! * duplicate-heavy streams where every key collides;
//! * the `boundary_ties.rs` lattice, where `|x_i − x_l| == h·r` holds
//!   exactly at many cells;
//! * `+0.0` and `−0.0` keys, which compare equal, with `−0.0` responses.
//!
//! The shifted-key case pins the window against the naive oracle too: on
//! keys far from zero the window selects what naive selects.

use kcv_core::cv::{cv_profile_naive, cv_profile_prefix, CvOptimum, SlidingWindowSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{
    polynomial_kernels, Epanechnikov, EpanechnikovConvolution, PolynomialKernel,
};
use kcv_core::util::SplitMix64;
use kcv_core::Result;
use proptest::prelude::*;

/// All six polynomial kernels the crate ships.
fn six_kernels() -> Vec<Box<dyn PolynomialKernel>> {
    let mut kernels = polynomial_kernels();
    kernels.push(Box::new(EpanechnikovConvolution));
    kernels
}

/// An optimum as comparable bits, or the error that replaced it.
fn bits(opt: Result<CvOptimum>) -> Result<(usize, u64, u64, usize)> {
    opt.map(|o| {
        (
            o.index,
            o.bandwidth.to_bits(),
            o.score.to_bits(),
            o.included,
        )
    })
}

/// The batch optimum of the observations `obs`.
fn batch(
    obs: &[(f64, f64)],
    grid: &BandwidthGrid,
    kernel: &dyn PolynomialKernel,
) -> Result<CvOptimum> {
    let (x, y): (Vec<f64>, Vec<f64>) = obs.iter().copied().unzip();
    cv_profile_prefix(&x, &y, grid, kernel)?.argmin()
}

/// Streams `obs` through a `capacity`-observation window re-selecting
/// every `cadence` arrivals and requires every re-selection, and a forced
/// one after the last arrival, to equal the batch optimum of the window's
/// observations `to_bits`. Returns the final optimum.
fn replay(
    kernel: &dyn PolynomialKernel,
    grid: &BandwidthGrid,
    obs: &[(f64, f64)],
    capacity: usize,
    cadence: usize,
) -> std::result::Result<Result<CvOptimum>, TestCaseError> {
    let mut win = SlidingWindowSelector::new(kernel, grid.clone(), capacity, cadence).unwrap();
    for (t, &(x, y)) in obs.iter().enumerate() {
        let window = &obs[(t + 1).saturating_sub(capacity)..=t];
        match win.push(x, y) {
            Ok(None) => {}
            fired => {
                let (got, want) = (
                    bits(fired.map(|o| o.unwrap())),
                    bits(batch(window, grid, kernel)),
                );
                prop_assert!(
                    got == want,
                    "{} arrival {}: {:?} vs {:?}",
                    kernel.name(),
                    t,
                    got,
                    want
                );
            }
        }
    }
    let window = &obs[obs.len().saturating_sub(capacity)..];
    let last = win.reselect_now();
    if window.len() >= 2 {
        let (got, want) = (bits(last.clone()), bits(batch(window, grid, kernel)));
        prop_assert!(
            got == want,
            "{} final: {:?} vs {:?}",
            kernel.name(),
            got,
            want
        );
    }
    Ok(last)
}

/// How a stream draws observations.
enum Draw {
    /// Continuous keys on `[0, 1)`, one in seven repeating a recent key,
    /// paper-DGP responses.
    Continuous,
    /// Keys confined to the lattice `{0, 1/m, …, (m−1)/m}`, paper-DGP
    /// responses: every key collides constantly.
    DuplicatePool(usize),
    /// Power-of-two lattice keys `{j/16}` with exact-binary responses
    /// `{k/8}`: `|x_i − x_l| == h·r` holds exactly at many cells.
    ExactLattice,
    /// Keys `±0.0` and a `{j/8}` lattice on `[−1, 1]`, with `−0.0` among
    /// the responses.
    SignedZero,
}

/// A seeded stream of `n` observations.
fn stream(seed: u64, n: usize, draw: &Draw) -> Vec<(f64, f64)> {
    let mut rng = SplitMix64::new(seed);
    let mut obs: Vec<(f64, f64)> = Vec::with_capacity(n);
    for i in 0..n {
        let r = rng.next_f64();
        let next = match draw {
            Draw::Continuous => {
                let xi = if r > 6.0 / 7.0 && i > 0 {
                    obs[i - 1 - (rng.next_f64() * i.min(8) as f64) as usize % i.min(8)].0
                } else {
                    rng.next_f64()
                };
                (xi, 0.5 * xi + 10.0 * xi * xi + 0.5 * rng.next_f64())
            }
            Draw::DuplicatePool(m) => {
                let xi = ((r * *m as f64) as usize % m) as f64 / *m as f64;
                (xi, 0.5 * xi + 10.0 * xi * xi + 0.5 * rng.next_f64())
            }
            Draw::ExactLattice => {
                let j = (r * 17.0) as usize % 17;
                let k = (rng.next_f64() * 16.0) as usize % 16;
                (j as f64 / 16.0, k as f64 / 8.0)
            }
            Draw::SignedZero => {
                let xi = match (r * 4.0) as usize {
                    0 => 0.0,
                    1 => -0.0,
                    _ => ((rng.next_f64() * 17.0) as usize % 17) as f64 / 8.0 - 1.0,
                };
                let yi = if rng.next_f64() < 0.25 {
                    -0.0
                } else {
                    xi * xi + 0.5 * rng.next_f64()
                };
                (xi, yi)
            }
        };
        obs.push(next);
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Continuous streams through windows of every size from two up,
    /// re-selecting at every cadence from each arrival to rarely.
    #[test]
    fn interleaved_streams_agree(
        seed in 0u64..10_000,
        n in 24usize..120,
        capacity in 2usize..48,
        cadence in 1usize..10,
    ) {
        let grid = BandwidthGrid::log(0.05, 1.0, 12).unwrap();
        let obs = stream(seed, n, &Draw::Continuous);
        for kernel in six_kernels() {
            let _ = replay(&*kernel, &grid, &obs, capacity, cadence)?;
        }
    }

    /// Duplicate-saturated streams: keys confined to a small lattice.
    #[test]
    fn duplicate_heavy_streams_agree(
        seed in 0u64..10_000,
        n in 30usize..100,
        pool in 5usize..14,
        capacity in 8usize..40,
    ) {
        let grid = BandwidthGrid::log(0.08, 1.0, 10).unwrap();
        let obs = stream(seed, n, &Draw::DuplicatePool(pool));
        for kernel in six_kernels() {
            let _ = replay(&*kernel, &grid, &obs, capacity, 3)?;
        }
    }

    /// Boundary-tie lattices: `x ∈ {j/16}`, `h ∈ {1/8, 1/4, 1/2}`, so
    /// `|x_i − x_l| == h·r` holds exactly at many cells.
    #[test]
    fn boundary_tie_lattices_agree(
        seed in 0u64..10_000,
        n in 24usize..90,
        capacity in 4usize..32,
    ) {
        let grid = BandwidthGrid::from_values(vec![0.125, 0.25, 0.5]).unwrap();
        let obs = stream(seed, n, &Draw::ExactLattice);
        for kernel in six_kernels() {
            let _ = replay(&*kernel, &grid, &obs, capacity, 5)?;
        }
    }

    /// Signed-zero keys and responses: `+0.0` and `−0.0` share one key of
    /// the sorted order, in whichever arrival order the window holds them.
    #[test]
    fn signed_zero_streams_agree(
        seed in 0u64..10_000,
        n in 24usize..90,
        capacity in 4usize..32,
    ) {
        let grid = BandwidthGrid::log(0.05, 1.0, 12).unwrap();
        let obs = stream(seed, n, &Draw::SignedZero);
        for kernel in six_kernels() {
            let _ = replay(&*kernel, &grid, &obs, capacity, 4)?;
        }
    }
}

/// Fixed-seed dense streams of 450 arrivals through a 300-observation
/// window: every firing equals the batch optimum, for every kernel.
#[test]
fn pinned_streams_select_bit_identically() {
    let grid = BandwidthGrid::log(0.05, 1.0, 12).unwrap();
    for seed in [7u64, 101, 9001] {
        let obs = stream(seed, 450, &Draw::Continuous);
        for kernel in six_kernels() {
            let last = replay(&*kernel, &grid, &obs, 300, 50).unwrap();
            assert!(last.is_ok(), "{} seed {seed}", kernel.name());
        }
    }
}

/// The `boundary_ties.rs` design, streamed: a transient observation
/// arrives first and is evicted, and the window then holds exactly the
/// power-of-two lattice with exact-binary responses.
#[test]
fn pinned_exact_lattice_matches_bitwise() {
    let mut obs = vec![(0.375, 9.0)];
    obs.extend([(0.0, 1.0), (0.25, 2.0), (0.5, 1.5), (0.75, 2.5), (1.0, 2.0)]);
    let grid = BandwidthGrid::from_values(vec![0.25, 0.5]).unwrap();
    for kernel in six_kernels() {
        let last = replay(&*kernel, &grid, &obs, 5, 1).unwrap();
        assert_eq!(bits(last), bits(batch(&obs[1..], &grid, &*kernel)));
    }
}

/// Distinct keys `±u`, whose midrange is exactly `0.0`, filling the
/// window once: the re-selection equals the batch optimum at n = 50, 400
/// and 2000.
#[test]
fn distinct_midrange_keys_match_prefix_bitwise() {
    for kernel in six_kernels() {
        for n in [50usize, 400, 2000] {
            for seed in [3u64, 17, 2024] {
                let mut rng = SplitMix64::new(seed);
                let x: Vec<f64> = (0..n / 2)
                    .flat_map(|_| {
                        let u = rng.next_f64();
                        [u, -u]
                    })
                    .collect();
                let obs: Vec<(f64, f64)> = x
                    .iter()
                    .map(|&v| (v, 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64()))
                    .collect();
                let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
                let last = replay(&*kernel, &grid, &obs, n, n).unwrap();
                assert!(last.is_ok(), "{} n={n} seed={seed}", kernel.name());
            }
        }
    }
}

/// Paper-DGP keys shifted by 10⁴ through a `W = 512` window: the final
/// optimum is the naive oracle's raw argmin (index and `included`) and
/// the batch prefix optimum `to_bits`. A table of moments taken about
/// `0.0` instead of the window's midrange misclassifies such windows.
#[test]
fn shifted_keys_select_like_naive() {
    let grid = BandwidthGrid::log(1e-3, 0.3, 64).unwrap();
    let w = 512;
    for seed in 1u64..=4 {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..4 * w).map(|_| rng.next_f64()).collect();
        let obs: Vec<(f64, f64)> = x
            .iter()
            .map(|&v| (v + 1e4, 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64()))
            .collect();
        let last = replay(&Epanechnikov, &grid, &obs, w, 64).unwrap().unwrap();
        let (wx, wy): (Vec<f64>, Vec<f64>) = obs[obs.len() - w..].iter().copied().unzip();
        let naive = cv_profile_naive(&wx, &wy, &grid, &Epanechnikov)
            .unwrap()
            .argmin()
            .unwrap();
        assert_eq!(
            (last.index, last.included),
            (naive.index, naive.included),
            "seed {seed}"
        );
    }
}

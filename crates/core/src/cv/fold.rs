//! The one observation fold every CV profile runs through.
//!
//! Each engine (naive, sorted, prefix, and their local-linear forms) writes
//! its profile as a sum over observations of per-bandwidth terms
//! `(Y_i − ĝ_{-i}(X_i))² M(X_i)`. An engine supplies only the step that adds
//! observation `i`'s terms into `(sq_sums, included)` plus a constructor for
//! the step's reusable scratch; this module owns the loop, the reduction
//! and the `CV = Σ/n` normalisation. Every `(observation, bandwidth)` cell
//! is independent (the paper's SPMD insight), so the fold splits across
//! host cores along either axis:
//!
//! * [`fold_bandwidth_blocks`] (naive and prefix, local-constant and
//!   local-linear): each worker folds *every* observation, in order, into
//!   one block of the bandwidths, and the blocks' sums are scattered back
//!   into grid order. The blocks interleave (block `b` of `B` takes
//!   bandwidths `b, b + B, …`), so each holds a share of the wide-bandwidth
//!   end, where the prefix sweep's window edges are pinned and its cells
//!   cost less. Each bandwidth's sum is the textbook left-to-right sum
//!   whatever the block count, so the profile is bit-identical to the
//!   sequential fold. The engines take the block count from the work size
//!   ([`block_count`]); no caller chooses it.
//! * [`fold_observations`] with `parallel` set (the sorted sweep's SPMD
//!   form, `cv_profile_sorted_par`): one sort per observation serves every
//!   bandwidth, so that engine splits by observation. Each rayon worker
//!   folds a contiguous chunk of observations into a private accumulator
//!   and the accumulators are reduced element-wise. The reduction regroups
//!   each bandwidth's sum, so the scores move in the last bits with the
//!   worker count.
//!
//! The sequential fold (one block) runs in observation order on the calling
//! thread.

use super::CvProfile;
use rayon::prelude::*;
use std::sync::OnceLock;

/// Cells (`n·k`) below which a bandwidth-split prefix profile stays on the
/// calling thread: under it, starting the block workers costs more than
/// the second core saves. Picked by measurement of the prefix engine on a
/// 2-core host (EXPERIMENTS.md SPLIT). The naive engine, whose cell costs
/// `n − 1` kernel evaluations, has its own threshold in evaluations.
pub(crate) const SPLIT_MIN_CELLS: usize = 65_536;

/// The number of bandwidth blocks a prefix profile of `n` observations
/// over `k` bandwidths runs in: [`blocks_for`] its `n·k` cells against
/// [`SPLIT_MIN_CELLS`].
pub(crate) fn block_count(n: usize, k: usize) -> usize {
    blocks_for(n.saturating_mul(k), SPLIT_MIN_CELLS, k)
}

/// The number of bandwidth blocks a profile of `work` units over `k`
/// bandwidths runs in: one below `min_work`, else one per available core,
/// at most `k`.
pub(crate) fn blocks_for(work: usize, min_work: usize, k: usize) -> usize {
    if work < min_work {
        return 1;
    }
    cores().min(k)
}

/// The host's available parallelism, read once per process.
/// `std::thread::available_parallelism` reads the cgroup files on every
/// call (about 24 µs each on a 2-vCPU Linux host), which every split
/// profile would pay again; a process that changes its own CPU affinity
/// after the first profile keeps the first count.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}

/// Element-wise merge for the reduce step. The identity is a bare
/// `(Vec<f64>, Vec<usize>)` pair: the per-worker scratch lives only in the
/// fold accumulators and is never constructed just to be merged away.
fn merge_partials(
    (mut sa, mut ia): (Vec<f64>, Vec<usize>),
    (sb, ib): (Vec<f64>, Vec<usize>),
) -> (Vec<f64>, Vec<usize>) {
    for (a, b) in sa.iter_mut().zip(&sb) {
        *a += b;
    }
    for (a, b) in ia.iter_mut().zip(&ib) {
        *a += b;
    }
    (sa, ia)
}

/// Folds every observation `i in 0..n`, in order, into fresh `k`-long
/// accumulators on the calling thread.
fn fold_in_order<S, F>(n: usize, k: usize, mut scratch: S, accumulate: &F) -> (Vec<f64>, Vec<usize>)
where
    F: Fn(usize, &mut S, &mut [f64], &mut [usize]),
{
    let mut sq = vec![0.0; k];
    let mut inc = vec![0usize; k];
    for i in 0..n {
        accumulate(i, &mut scratch, &mut sq, &mut inc);
    }
    (sq, inc)
}

/// The profile over `hs` from its accumulated sums: `scores[m] =
/// sq_sums[m] / n`.
fn into_profile(n: usize, hs: &[f64], sq_sums: Vec<f64>, included: Vec<usize>) -> CvProfile {
    let scores = sq_sums.into_iter().map(|s| s / n as f64).collect();
    CvProfile {
        bandwidths: hs.to_vec(),
        scores,
        included,
        n,
    }
}

/// Runs `accumulate(i, scratch, sq_sums, included)` for every observation
/// `i in 0..n` and returns the profile over `hs`, split across host cores
/// by observation chunks when `parallel` is set.
///
/// In parallel the caller's `kcv_obs` recorder scope is re-entered once
/// per worker chunk (scope stacks are thread-local), so every counter the
/// step records attributes to the run that spawned the workers.
pub(crate) fn fold_observations<S, F>(
    n: usize,
    hs: &[f64],
    parallel: bool,
    new_scratch: impl Fn() -> S + Sync + Send,
    accumulate: F,
) -> CvProfile
where
    S: Send,
    F: Fn(usize, &mut S, &mut [f64], &mut [usize]) + Sync + Send,
{
    let k = hs.len();
    let (sq_sums, included) = if parallel {
        let scope = kcv_obs::scope();
        (0..n)
            .into_par_iter()
            .fold_with_setup(
                || scope.enter(),
                || (vec![0.0; k], vec![0usize; k], new_scratch()),
                |(mut sq, mut inc, mut scratch), i| {
                    accumulate(i, &mut scratch, &mut sq, &mut inc);
                    (sq, inc, scratch)
                },
            )
            .map(|(sq, inc, _)| (sq, inc))
            .reduce(|| (vec![0.0; k], vec![0usize; k]), merge_partials)
    } else {
        fold_in_order(n, k, new_scratch(), &accumulate)
    };
    into_profile(n, hs, sq_sums, included)
}

/// Deals `hs` into `blocks` interleaved blocks (clamped to `1..=hs.len()`):
/// block `b` takes the bandwidths `b, b + blocks, b + 2·blocks, …`, an
/// ascending list when `hs` is, and block sizes differ by at most one.
/// Per block it runs `accumulate(i, scratch, sq_sums, included)` for every
/// observation `i in 0..n` in order, and it returns the profile over `hs`.
/// `new_scratch(block)` builds the workspace of the block's bandwidths, and
/// the step sees only that block's accumulators, indexed from 0; the fold
/// scatters them back to their places in `hs`.
///
/// Interleaving gives every block a share of each end of the grid. At the
/// wide end most window edges are pinned at the sample's ends and cost
/// the prefix sweep less (`cv::window`), so contiguous blocks would leave
/// the narrow-bandwidth block with most of the work.
///
/// One block runs on the calling thread. More run across host cores, one
/// block per item of the parallel pass, each re-entering the caller's
/// `kcv_obs` recorder scope, so every counter the step records attributes
/// to the run that spawned the workers. Each bandwidth accumulates over the
/// same observations in the same order at any block count, so the profile
/// is bit-identical to one block's.
pub(crate) fn fold_bandwidth_blocks<S, F>(
    n: usize,
    hs: &[f64],
    blocks: usize,
    new_scratch: impl Fn(Vec<f64>) -> S + Sync + Send,
    accumulate: F,
) -> CvProfile
where
    F: Fn(usize, &mut S, &mut [f64], &mut [usize]) + Sync + Send,
{
    let k = hs.len();
    let blocks = blocks.clamp(1, k.max(1));
    let run = |b: usize| {
        let block: Vec<f64> = hs.iter().copied().skip(b).step_by(blocks).collect();
        fold_in_order(n, block.len(), new_scratch(block), &accumulate)
    };
    let (sq_sums, included) = if blocks == 1 {
        run(0)
    } else {
        let scope = kcv_obs::scope();
        let parts: Vec<_> = (0..blocks)
            .into_par_iter()
            .map(|b| {
                let _in_scope = scope.enter();
                run(b)
            })
            .collect();
        let mut sq_sums = vec![0.0; k];
        let mut included = vec![0usize; k];
        for (b, (sq, inc)) in parts.into_iter().enumerate() {
            for (j, (s, c)) in sq.into_iter().zip(inc).enumerate() {
                sq_sums[b + j * blocks] = s;
                included[b + j * blocks] = c;
            }
        }
        (sq_sums, included)
    };
    into_profile(n, hs, sq_sums, included)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::{
        cv_profile_naive, cv_profile_prefix, cv_profile_prefix_ll, cv_profile_sorted,
        cv_profile_sorted_par, naive,
    };
    use crate::error::Result;
    use crate::grid::BandwidthGrid;
    use crate::kernels::{Gaussian, Triangular};
    use crate::util::{approx_eq, SplitMix64};

    type Profile = fn(&[f64], &[f64], &BandwidthGrid, &Triangular) -> Result<CvProfile>;

    /// The observation-split engine's sequential and parallel entry points,
    /// by name.
    const ENGINES: [(&str, Profile, Profile); 1] =
        [("sorted", cv_profile_sorted, cv_profile_sorted_par)];

    /// The bandwidth-split engines, which choose their block count
    /// themselves.
    const BLOCK_ENGINES: [(&str, Profile); 3] = [
        ("naive", cv_profile_naive),
        ("prefix", cv_profile_prefix),
        ("prefix_ll", cv_profile_prefix_ll),
    ];

    fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        (x, y)
    }

    #[test]
    fn sequential_fold_sums_in_observation_order() {
        // The sequential path must be the plain left-to-right sum — the
        // bit-level contract the streaming and multivariate engines' d = 1
        // agreement suites rely on.
        let hs = [0.5, 1.0];
        let terms: Vec<f64> = (0..97).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let profile = fold_observations(
            terms.len(),
            &hs,
            false,
            || (),
            |i, _, sq, inc| {
                sq[0] += terms[i];
                sq[1] += terms[i] * terms[i];
                inc[0] += 1;
            },
        );
        let mut expect = [0.0f64; 2];
        for &t in &terms {
            expect[0] += t;
            expect[1] += t * t;
        }
        let n = terms.len() as f64;
        assert_eq!(profile.scores[0].to_bits(), (expect[0] / n).to_bits());
        assert_eq!(profile.scores[1].to_bits(), (expect[1] / n).to_bits());
        assert_eq!(profile.included, vec![97, 0]);
        assert_eq!(profile.bandwidths, hs.to_vec());
    }

    #[test]
    fn bandwidth_blocks_sum_like_the_sequential_fold() {
        // Terms that depend on the bandwidth index and do not sum exactly:
        // any regrouping of a bandwidth's sum would move its last bits.
        // Bandwidth m + 1 at index m, so a step sees its global index.
        let hs: Vec<f64> = (1..=11).map(|m| m as f64).collect();
        let n = 89;
        let term = |i: usize, h: f64| 1.0 / (1.0 + i as f64 * h).sqrt();
        let step = |i: usize, block: &mut Vec<f64>, sq: &mut [f64], inc: &mut [usize]| {
            for (local, &h) in block.iter().enumerate() {
                sq[local] += term(i, h);
                inc[local] += i % h as usize;
            }
        };
        let one = fold_observations(n, &hs, false, || hs.clone(), step);
        for blocks in [0, 1, 2, 3, 4, 7, 11, 16] {
            let split = fold_bandwidth_blocks(n, &hs, blocks, |b| b, step);
            let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&split), bits(&one), "{blocks} blocks");
            assert_eq!(split.included, one.included, "{blocks} blocks");
            assert_eq!(split.bandwidths, hs, "{blocks} blocks");
        }
    }

    #[test]
    fn parallel_matches_sequential_for_every_engine() {
        let (x, y) = paper_dgp(240, 21);
        let grid = BandwidthGrid::linear(0.05, 1.0, 30).unwrap();
        for (name, seq, par) in ENGINES {
            let a = seq(&x, &y, &grid, &Triangular).unwrap();
            let b = par(&x, &y, &grid, &Triangular).unwrap();
            assert_eq!(a.included, b.included, "{name}");
            assert_eq!(a.bandwidths, b.bandwidths, "{name}");
            for m in 0..grid.len() {
                assert!(
                    approx_eq(a.scores[m], b.scores[m], 1e-12, 1e-14),
                    "{name} h={}: {} vs {}",
                    grid.values()[m],
                    a.scores[m],
                    b.scores[m]
                );
            }
        }
    }

    #[test]
    fn parallel_naive_matches_sequential_naive_for_gaussian() {
        // The naive engine is the only one that serves non-polynomial
        // kernels, so its bandwidth split is checked on one too.
        let (x, y) = paper_dgp(200, 20);
        let hs = BandwidthGrid::linear(0.01, 0.5, 12)
            .unwrap()
            .values()
            .to_vec();
        let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let one = naive::profile_in_blocks(&x, &y, &hs, &Gaussian, 1).unwrap();
        let split = naive::profile_in_blocks(&x, &y, &hs, &Gaussian, 2).unwrap();
        assert_eq!(bits(&split), bits(&one));
        assert_eq!(split.included, one.included);
    }

    #[test]
    fn parallel_profiles_are_bitwise_deterministic() {
        // Observation chunks are fixed by the worker count and reduced in
        // chunk order, and bandwidth blocks are concatenated in order, so
        // repeated runs agree to the last bit.
        let (x, y) = paper_dgp(150, 24);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let parallel = ENGINES.iter().map(|&(name, _, par)| (name, par));
        for (name, par) in parallel.chain(BLOCK_ENGINES) {
            let a = par(&x, &y, &grid, &Triangular).unwrap();
            let b = par(&x, &y, &grid, &Triangular).unwrap();
            let bits = |p: &CvProfile| p.scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "{name}");
            assert_eq!(a.included, b.included, "{name}");
        }
    }

    #[test]
    fn local_constant_engines_agree_on_the_optimum() {
        let (x, y) = paper_dgp(200, 23);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let indices: Vec<usize> = ENGINES
            .iter()
            .flat_map(|&(_, seq, par)| [seq, par])
            .chain([BLOCK_ENGINES[0].1, BLOCK_ENGINES[1].1])
            .map(|f| {
                f(&x, &y, &grid, &Triangular)
                    .unwrap()
                    .argmin()
                    .unwrap()
                    .index
            })
            .collect();
        assert!(
            indices.windows(2).all(|w| w[0] == w[1]),
            "optima diverged: {indices:?}"
        );
    }
}

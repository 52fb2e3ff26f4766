//! The one observation fold every CV profile runs through.
//!
//! Each engine (naive, sorted, prefix, and their local-linear forms) writes
//! its profile as a sum over observations of per-bandwidth terms
//! `(Y_i − ĝ_{-i}(X_i))² M(X_i)`. An engine supplies only the step that adds
//! observation `i`'s terms into `(sq_sums, included)` plus a constructor for
//! the step's reusable scratch; [`fold_observations`] owns the loop, the
//! reduction and the `CV = Σ/n` normalisation.
//!
//! The parallel fold is the paper's SPMD insight ("construct
//! `(Y_i − ĝ_{-i}(X_i))` for each of the different `i` values in parallel
//! on a many-core machine") executed on host cores: each rayon worker folds
//! a contiguous chunk of observations into a private accumulator and the
//! accumulators are reduced element-wise, so no locking is needed. The
//! sequential fold runs in observation order on the calling thread, so its
//! sums are exactly the textbook left-to-right sums.

use super::CvProfile;
use rayon::prelude::*;

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

/// Runs `accumulate(i, scratch, sq_sums, included)` for every observation
/// `i in 0..n` and returns the profile over `hs` (`scores[m] =
/// sq_sums[m] / n`), split across host cores when `parallel` is set.
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
        let mut scratch = new_scratch();
        let mut sq = vec![0.0; k];
        let mut inc = vec![0usize; k];
        for i in 0..n {
            accumulate(i, &mut scratch, &mut sq, &mut inc);
        }
        (sq, inc)
    };
    let scores = sq_sums.into_iter().map(|s| s / n as f64).collect();
    CvProfile {
        bandwidths: hs.to_vec(),
        scores,
        included,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cv::{
        cv_profile_naive, cv_profile_naive_par, cv_profile_prefix, cv_profile_prefix_ll,
        cv_profile_prefix_ll_par, cv_profile_prefix_par, cv_profile_sorted, cv_profile_sorted_ll,
        cv_profile_sorted_ll_par, cv_profile_sorted_par,
    };
    use crate::error::Result;
    use crate::grid::BandwidthGrid;
    use crate::kernels::{Gaussian, Triangular};
    use crate::util::{approx_eq, SplitMix64};

    type Profile = fn(&[f64], &[f64], &BandwidthGrid, &Triangular) -> Result<CvProfile>;

    /// Every engine's sequential and parallel entry points, by name.
    const ENGINES: [(&str, Profile, Profile); 5] = [
        ("naive", cv_profile_naive, cv_profile_naive_par),
        ("sorted", cv_profile_sorted, cv_profile_sorted_par),
        ("prefix", cv_profile_prefix, cv_profile_prefix_par),
        ("sorted_ll", cv_profile_sorted_ll, cv_profile_sorted_ll_par),
        ("prefix_ll", cv_profile_prefix_ll, cv_profile_prefix_ll_par),
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
        // kernels, so its parallel fold is checked on one too.
        let (x, y) = paper_dgp(200, 20);
        let grid = BandwidthGrid::linear(0.01, 0.5, 12).unwrap();
        let a = cv_profile_naive(&x, &y, &grid, &Gaussian).unwrap();
        let b = cv_profile_naive_par(&x, &y, &grid, &Gaussian).unwrap();
        assert_eq!(a.included, b.included);
        for m in 0..grid.len() {
            assert!(
                approx_eq(a.scores[m], b.scores[m], 1e-12, 1e-14),
                "h={}: {} vs {}",
                grid.values()[m],
                a.scores[m],
                b.scores[m]
            );
        }
    }

    #[test]
    fn parallel_profiles_are_bitwise_deterministic() {
        // Chunking is fixed by the worker count and the reduction runs in
        // chunk order, so repeated runs agree to the last bit.
        let (x, y) = paper_dgp(150, 24);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        for (name, _, par) in ENGINES {
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
        let indices: Vec<usize> = ENGINES[..3]
            .iter()
            .flat_map(|&(_, seq, par)| [seq, par])
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

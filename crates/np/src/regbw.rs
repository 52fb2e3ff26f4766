//! `npregbw` — bandwidth selection by numerical optimisation, R-np style.

use crate::nelder_mead::nelder_mead_1d;
use crate::objective::{cv_objective, cv_objective_parallel, included, DEGENERATE_PENALTY};
use kcv_core::error::{validate_sample, Error, Result};
use kcv_core::kernels::Epanechnikov;
use kcv_core::util::min_max;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Convergence tolerance of each restart, as a fraction of the log-bandwidth
/// search bracket.
const TOL: f64 = 1e-6;

/// Iteration cap per restart (np's `itmax`).
const ITMAX: usize = 300;

/// Options for [`npregbw`], mirroring the R signature's relevant knobs.
/// The objective is always local-constant LSCV with the Epanechnikov
/// kernel, as in the paper's experiments.
#[derive(Debug, Clone)]
pub struct NpRegBwOptions {
    /// Number of random-restart optimisations (np's `nmulti`).
    pub nmulti: usize,
    /// Evaluate the CV objective across cores (the paper's Program 2).
    pub parallel: bool,
    /// Seed for the restart draws (np uses R's RNG state).
    pub seed: u64,
}

impl Default for NpRegBwOptions {
    fn default() -> Self {
        Self {
            nmulti: 5,
            parallel: false,
            seed: 42,
        }
    }
}

/// The result object of [`npregbw`] — the analogue of R's `rbandwidth`.
#[derive(Debug, Clone)]
pub struct NpRegBw {
    /// The selected bandwidth.
    pub bw: f64,
    /// The objective value at the selected bandwidth.
    pub fval: f64,
    /// Objective value reached by each restart (inspecting these shows the
    /// multi-minimum sensitivity the paper criticises).
    pub restart_fvals: Vec<f64>,
    /// The bandwidth each restart converged to.
    pub restart_bws: Vec<f64>,
    /// Total objective evaluations spent.
    pub evaluations: usize,
    /// Options used.
    pub options: NpRegBwOptions,
    /// Sample size.
    pub n: usize,
    /// Observations with a defined leave-one-out fit at `bw`, the ones
    /// `fval` averages over (it divides by `n`, each excluded observation
    /// adding 0). Below `n` the optimum drops observations, which is how
    /// the raw objective can reach its minimum at the bracket floor.
    pub included: usize,
}

impl NpRegBw {
    /// An np-style text summary.
    pub fn summary(&self) -> String {
        format!(
            "Regression Data ({} observations, 1 variable(s)):\n\n\
             Bandwidth Selection Method: Least Squares Cross-Validation\n\
             Formula: y ~ x\n\
             Bandwidth Type: Fixed\n\
             Objective Function Value: {:.6e} (achieved on multistart {} of {})\n\
             Observations Included: {} / {}\n\n\
             Exp. Var. Name: x  Bandwidth: {:.6}\n\n\
             Continuous Kernel Type: Epanechnikov\n\
             Regression Type: Local-Constant\n\
             No. Continuous Explanatory Vars.: 1\n",
            self.n,
            self.fval,
            self.restart_fvals
                .iter()
                .position(|&f| f == self.fval)
                .map_or(1, |i| i + 1),
            self.restart_fvals.len(),
            self.included,
            self.n,
            self.bw,
        )
    }
}

/// Selects a bandwidth by numerically minimising the least-squares CV
/// objective — the algorithm of the paper's Programs 1 (sequential) and 2
/// (`parallel = true`).
pub fn npregbw(x: &[f64], y: &[f64], options: NpRegBwOptions) -> Result<NpRegBw> {
    let n = validate_sample(x, y, 2)?;
    let (lo_x, hi_x) = min_max(x).expect("validated non-empty");
    let domain = hi_x - lo_x;
    if domain <= 0.0 {
        return Err(Error::DegenerateDomain);
    }
    let (lo, hi) = (domain / 1000.0, domain);

    let mut rng = StdRng::seed_from_u64(options.seed);
    let mut evaluations = 0usize;
    let mut restart_fvals = Vec::with_capacity(options.nmulti.max(1));
    let mut restart_bws = Vec::with_capacity(options.nmulti.max(1));

    // Like np, the search is over the *log* bandwidth: h is a scale
    // parameter, log-space makes the objective better conditioned and keeps
    // the optimiser from stalling against the h > 0 boundary.
    let (log_lo, log_hi) = (lo.ln(), hi.ln());
    for _ in 0..options.nmulti.max(1) {
        let t: f64 = rng.random();
        let t0 = log_lo + t * (log_hi - log_lo);
        let result = nelder_mead_1d(
            |log_h| {
                evaluations += 1;
                let h = log_h.exp();
                if options.parallel {
                    cv_objective_parallel(x, y, h, &Epanechnikov)
                } else {
                    cv_objective(x, y, h, &Epanechnikov)
                }
            },
            t0,
            (log_hi - log_lo) * 0.1,
            log_lo,
            log_hi,
            TOL * (log_hi - log_lo),
            ITMAX,
        );
        restart_fvals.push(result.fx);
        restart_bws.push(result.x.exp());
    }

    let best = restart_fvals
        .iter()
        .copied()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("nmulti >= 1");
    if best.1 >= DEGENERATE_PENALTY {
        return Err(Error::NoValidBandwidth);
    }
    let bw = restart_bws[best.0];
    Ok(NpRegBw {
        bw,
        fval: best.1,
        included: included(x, y, bw, &Epanechnikov),
        restart_fvals,
        restart_bws,
        evaluations,
        options,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_core::select::{BandwidthSelector, GridSpec, SortedGridSearch};
    use kcv_core::util::SplitMix64;

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
    fn finds_bandwidth_near_grid_search_optimum() {
        let (x, y) = paper_dgp(150, 1);
        let bw = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
        let grid = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(200))
            .select(&x, &y)
            .unwrap();
        assert!(
            (bw.bw - grid.bandwidth).abs() < 0.1,
            "np {} vs grid {}",
            bw.bw,
            grid.bandwidth
        );
        assert!(bw.evaluations > 0);
    }

    #[test]
    fn parallel_option_reproduces_sequential_answer() {
        let (x, y) = paper_dgp(100, 2);
        let seq = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
        let par = npregbw(
            &x,
            &y,
            NpRegBwOptions {
                parallel: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!((seq.bw - par.bw).abs() < 1e-9);
        assert!((seq.fval - par.fval).abs() < 1e-12);
    }

    #[test]
    fn restarts_can_disagree_revealing_local_minima() {
        // On a small noisy sample the CV surface is rugged; with many
        // restarts the per-restart optima should not all coincide (this is
        // precisely the instability the paper's abstract cites).
        let (x, y) = paper_dgp(40, 3);
        let bw = npregbw(
            &x,
            &y,
            NpRegBwOptions {
                nmulti: 12,
                seed: 9,
                ..Default::default()
            },
        )
        .unwrap();
        let spread = bw
            .restart_bws
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        assert!(
            spread.1 - spread.0 > 1e-6,
            "restarts all converged identically: {:?}",
            bw.restart_bws
        );
        // The reported optimum is the best of the restarts.
        for &f in &bw.restart_fvals {
            assert!(bw.fval <= f + 1e-15);
        }
    }

    #[test]
    fn summary_mentions_key_fields() {
        let (x, y) = paper_dgp(60, 6);
        let bw = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
        let s = bw.summary();
        assert!(s.contains("Least Squares Cross-Validation"));
        assert!(s.contains("Epanechnikov"));
        assert!(s.contains("Local-Constant"));
        assert!(s.contains("Bandwidth:"));
    }

    #[test]
    fn reports_how_few_observations_an_optimum_at_the_bracket_floor_includes() {
        // On these samples the raw objective is smallest at the bracket
        // floor, domain/1000, where most observations have no neighbour in
        // support and add 0 to the sum instead of their residual.
        for (seed, want) in [(1, 53), (2, 70), (3, 71)] {
            let (x, y) = paper_dgp(200, seed);
            let bws = npregbw(&x, &y, NpRegBwOptions::default()).unwrap();
            let (lo, hi) = min_max(&x).unwrap();
            let floor = (hi - lo) / 1000.0;
            assert!(bws.bw <= floor * (1.0 + 1e-9), "seed {seed}: {}", bws.bw);
            assert_eq!(bws.included, want, "seed {seed}");
            let (_, core) = kcv_core::cv::cv_score_single(&x, &y, bws.bw, &Epanechnikov);
            assert_eq!(bws.included, core, "seed {seed}");
            assert!(bws
                .summary()
                .contains(&format!("Observations Included: {want} / 200")));
        }
    }

    #[test]
    fn rejects_degenerate_input() {
        assert!(npregbw(&[1.0, 1.0], &[1.0, 2.0], NpRegBwOptions::default()).is_err());
        assert!(npregbw(&[1.0], &[1.0], NpRegBwOptions::default()).is_err());
    }
}

//! Counter-correctness tests for the observability layer.
//!
//! Only compiled with `--features metrics`. Every measured run installs its
//! own [`kcv_obs::Recorder`], whose counters are private to the run — no
//! serialisation against other tests is needed, and the suite runs
//! correctly on any number of test threads.

#![cfg(feature = "metrics")]

use kcv_core::cv::{
    cv_profile_naive, cv_profile_prefix, cv_profile_sorted, cv_profile_sorted_par,
    SlidingWindowSelector,
};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::select::{BaggedSelector, GridSpec};
use kcv_core::sort::sort_with_aux;
use kcv_core::util::SplitMix64;
use kcv_obs::{Counter, Recorder};

/// Runs `f` under a fresh recorder and hands the recorder back for
/// assertions: the snapshot is exactly `f`'s delta, whatever else the test
/// harness runs concurrently.
fn record(f: impl FnOnce()) -> Recorder {
    let recorder = Recorder::new();
    let scope = recorder.install();
    f();
    drop(scope);
    recorder
}

/// A fixture where every count is computable by hand: x on a unit grid,
/// arbitrary responses.
fn tiny_fixture() -> (Vec<f64>, Vec<f64>) {
    (vec![0.0, 0.3, 0.55, 1.0], vec![1.0, 2.0, 0.5, 1.5])
}

#[test]
fn naive_cv_counts_exactly_k_times_n_times_n_minus_1_kernel_evals() {
    let (x, y) = tiny_fixture();
    let n = x.len() as u64; // 4
    let k = 2u64;
    let grid = BandwidthGrid::from_values(vec![0.4, 0.8]).unwrap();

    let run = record(|| {
        cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    // The naive double sum evaluates K((X_i − X_l)/h) for every ordered
    // pair (i, l≠i) at every bandwidth: k·n·(n−1) = 2·4·3 = 24.
    assert_eq!(run.get(Counter::KernelEvals), k * n * (n - 1));
}

#[test]
fn sorted_sweep_counts_strictly_fewer_kernel_evals_than_naive() {
    let (x, y) = tiny_fixture();
    let n = x.len() as u64;
    let k = 2u64;
    let grid = BandwidthGrid::from_values(vec![0.4, 0.8]).unwrap();

    let naive_evals = record(|| {
        cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
    })
    .get(Counter::KernelEvals);

    let sweep_evals = record(|| {
        cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
    })
    .get(Counter::KernelEvals);

    // The sweep absorbs each neighbour into the running sums at most once
    // per observation, independent of k: ≤ n·(n−1), and strictly fewer
    // than the naive k·n·(n−1) for any k ≥ 2.
    assert_eq!(naive_evals, k * n * (n - 1));
    assert!(sweep_evals <= n * (n - 1), "sweep absorbed {sweep_evals}");
    assert!(
        sweep_evals < naive_evals,
        "sweep {sweep_evals} should beat naive {naive_evals}"
    );
}

#[test]
fn sweep_skip_count_complements_absorbed_terms() {
    let (x, y) = tiny_fixture();
    let n = x.len() as u64;
    let grid = BandwidthGrid::from_values(vec![0.4, 0.8]).unwrap();
    let k = grid.len() as u64;

    let run = record(|| {
        cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    let absorbed = run.get(Counter::KernelEvals);
    let skipped = run.get(Counter::LooTermsSkipped);

    // At each (i, h) the sweep partitions the n−1 leave-one-out terms into
    // in-support (absorbed at some h' ≤ h) and beyond-support (skipped), so
    // per-bandwidth absorbed-so-far + skipped = n−1. Summing over the grid:
    //   Σ_m (cumulative absorbed at m) + Σ_m skipped_m = k·n·(n−1),
    // which bounds skipped ≤ k·n·(n−1) − absorbed (equality iff everything
    // absorbed happens at the first bandwidth).
    assert!(absorbed + skipped <= k * n * (n - 1));
    assert!(skipped > 0, "h=0.4 leaves far pairs outside the support");
}

#[test]
fn parallel_strategies_count_the_same_totals_as_sequential() {
    // 64 · 1 024 cells: at the split threshold, so the naive profile runs
    // in one bandwidth block per core and still evaluates the kernel for
    // every (i, l≠i, h) triple exactly once.
    let (x, y) = paper_dgp(64, 66);
    let grid = BandwidthGrid::paper_default(&x, 1_024).unwrap();
    let (n, k) = (x.len() as u64, grid.len() as u64);
    let split_naive = record(|| {
        cv_profile_naive(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    assert_eq!(split_naive.get(Counter::KernelEvals), k * n * (n - 1));
    // One scope entry per block; none when there is one core.
    let blocks = split_blocks(grid.len());
    let enters = if blocks > 1 { blocks } else { 0 };
    assert_eq!(split_naive.get(Counter::ScopeEnters), enters);

    let (x, y) = tiny_fixture();
    let grid = BandwidthGrid::from_values(vec![0.4, 0.8]).unwrap();
    let seq = record(|| {
        cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    let par = record(|| {
        cv_profile_sorted_par(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    assert_eq!(par.get(Counter::KernelEvals), seq.get(Counter::KernelEvals));
    assert_eq!(
        par.get(Counter::SortComparisons),
        seq.get(Counter::SortComparisons)
    );
}

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
fn prefix_sweep_sort_comparisons_are_one_global_argsort() {
    let (x, y) = paper_dgp(400, 51);
    let n = x.len() as u64;
    let grid = BandwidthGrid::paper_default(&x, 30).unwrap();

    let prefix_cmps = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    })
    .get(Counter::SortComparisons);

    // The prefix sweep's only comparison sort is the single global argsort
    // of x: O(n log n), never the sorted sweep's O(n² log n). std's stable
    // sort does at most ~n·log2(n) comparisons plus lower-order terms;
    // 3·n·log2(n) is a safe hard ceiling, and n² is unreachable by two
    // orders of magnitude.
    let log2n = (n as f64).log2().ceil() as u64;
    assert!(
        prefix_cmps <= 3 * n * log2n,
        "prefix did {prefix_cmps} comparisons, ceiling {}",
        3 * n * log2n
    );
    assert!(
        prefix_cmps >= n - 1,
        "a real sort must compare: {prefix_cmps}"
    );
}

#[test]
fn prefix_sweep_counts_one_window_query_per_cell_and_zero_kernel_evals() {
    let (x, y) = paper_dgp(400, 61);
    let n = x.len() as u64;
    let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
    let k = grid.len() as u64;

    let run = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    // One support-window resolution per (observation, bandwidth) cell —
    // exactly n·k — and, since each costs at most ~2⌈log₂ n⌉ probes, the
    // total stays under the n·k·⌈log₂ n⌉ perf-gate ceiling with room to
    // spare.
    let queries = run.get(Counter::WindowQueries);
    assert_eq!(queries, n * k);
    let log2n = (n as f64).log2().ceil() as u64;
    assert!(queries <= n * k * log2n);
    // The tentpole claim: the prefix sweep touches no neighbours at all.
    assert_eq!(run.get(Counter::KernelEvals), 0);
}

#[test]
fn prefix_skip_count_covers_out_of_window_terms() {
    let (x, y) = paper_dgp(200, 62);
    let n = x.len() as u64;
    let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
    let k = grid.len() as u64;

    let run = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    // Per cell the prefix sweep skips n − (hi − lo) terms (everything
    // outside the window, including nothing of the per-neighbour work the
    // scan strategies do inside it) — bounded by the full n·k·n rectangle.
    let skipped = run.get(Counter::LooTermsSkipped);
    assert!(skipped > 0, "small bandwidths must leave terms outside");
    assert!(skipped <= n * k * n);
}

#[test]
fn prefix_phase_timers_cover_argsort_prefix_and_window() {
    let (x, y) = paper_dgp(50, 63);
    let grid = BandwidthGrid::paper_default(&x, 10).unwrap();

    let snap = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    })
    .snapshot();
    let argsort = snap
        .phases
        .iter()
        .find(|p| p.name == "cv.argsort")
        .expect("cv.argsort phase");
    assert_eq!(argsort.calls, 1, "exactly one global argsort");
    let build = snap
        .phases
        .iter()
        .find(|p| p.name == "cv.prefix")
        .expect("cv.prefix phase");
    assert_eq!(build.calls, 1, "tables built once");
    let window = snap
        .phases
        .iter()
        .find(|p| p.name == "cv.window")
        .expect("cv.window phase");
    assert_eq!(window.calls, 1);
    // The per-observation sort never runs.
    assert!(snap.phases.iter().all(|p| p.name != "cv.sort"));
}

/// The block count the prefix engine splits an above-threshold profile
/// over `k` bandwidths into: one block per available core, at most `k`.
fn split_blocks(k: usize) -> u64 {
    std::thread::available_parallelism()
        .map_or(1, |c| c.get())
        .min(k) as u64
}

/// A window holding all of `(x, y)`, ready to re-select over `grid`.
fn full_window(x: &[f64], y: &[f64], grid: BandwidthGrid) -> SlidingWindowSelector<Epanechnikov> {
    let mut win = SlidingWindowSelector::new(Epanechnikov, grid, x.len(), x.len()).unwrap();
    for (&xi, &yi) in x.iter().zip(y) {
        win.push_deferred(xi, yi).unwrap();
    }
    win
}

#[test]
fn prefix_split_counts_the_same_totals_as_a_calling_thread_reselect() {
    // 800 · 100 cells: above the split threshold, so the profile runs in
    // one bandwidth block per core. Window re-selections over each half of
    // the grid (800 · 50 cells, under it) run the same cursor-and-cell
    // loop on the calling thread.
    let (x, y) = paper_dgp(800, 64);
    let grid = BandwidthGrid::paper_default(&x, 100).unwrap();

    let split = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    let (low, high) = grid.values().split_at(50);
    let mut halves =
        [low, high].map(|hs| full_window(&x, &y, BandwidthGrid::from_values(hs.to_vec()).unwrap()));
    let one = record(|| {
        for win in &mut halves {
            win.reselect_now().unwrap();
        }
    });
    assert_eq!(
        split.get(Counter::WindowQueries),
        (x.len() * grid.len()) as u64
    );
    assert_eq!(
        split.get(Counter::WindowQueries),
        one.get(Counter::WindowQueries)
    );
    assert_eq!(
        split.get(Counter::LooTermsSkipped),
        one.get(Counter::LooTermsSkipped)
    );
    assert_eq!(split.get(Counter::KernelEvals), 0);
    // One scope entry per block; none when there is one core.
    let blocks = split_blocks(grid.len());
    let enters = if blocks > 1 { blocks } else { 0 };
    assert_eq!(split.get(Counter::ScopeEnters), enters);
    assert_eq!(one.get(Counter::ScopeEnters), 0);
}

#[test]
fn prefix_below_the_split_threshold_stays_on_the_calling_thread() {
    // The report's streaming replay recomputes 500-point windows over
    // k = 100 bandwidths: 50 000 cells, under the 65 536-cell threshold.
    let (x, y) = paper_dgp(500, 65);
    let grid = BandwidthGrid::paper_default(&x, 100).unwrap();
    let run = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    assert_eq!(run.get(Counter::ScopeEnters), 0);
    assert_eq!(run.get(Counter::WindowQueries), 500 * 100);
    // 656 · 100 = 65 600 cells is over it: the same engine splits.
    let (x, y) = paper_dgp(656, 65);
    let grid = BandwidthGrid::paper_default(&x, 100).unwrap();
    let run = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    let blocks = split_blocks(grid.len());
    assert_eq!(
        run.get(Counter::ScopeEnters),
        if blocks > 1 { blocks } else { 0 }
    );
}

#[test]
fn bagged_bags_on_workers_do_not_split_their_grids() {
    // Bags of 700 over k = 100: 70 000 cells each, above the split
    // threshold. On parallel workers each bag enters the caller's scope
    // once and sweeps its grid on that worker; a lone bag runs on the
    // calling thread and its sweep splits instead.
    let (x, y) = paper_dgp(2_000, 67);
    let (bags, bag_size, k) = (4u64, 700u64, 100usize);
    let selector = |bags| {
        BaggedSelector::new(
            Epanechnikov,
            GridSpec::PaperDefault(k),
            bags,
            bag_size as usize,
        )
    };
    let parallel = record(|| {
        selector(bags as usize).select_bagged(&x, &y).unwrap();
    });
    let lone = record(|| {
        selector(1).select_bagged(&x, &y).unwrap();
    });
    let cells = bag_size * k as u64;
    assert_eq!(parallel.get(Counter::WindowQueries), bags * cells);
    assert_eq!(lone.get(Counter::WindowQueries), cells);
    assert_eq!(parallel.get(Counter::ScopeEnters), bags);
    let blocks = split_blocks(k);
    assert_eq!(
        lone.get(Counter::ScopeEnters),
        if blocks > 1 { blocks } else { 0 }
    );
}

#[test]
fn reselect_counts_the_same_window_work_as_the_prefix_sweep() {
    // A window re-selection is the prefix sweep over the window: it
    // queries every (observation, bandwidth) cell once, skips the same
    // out-of-window terms, and adds one re-selection and one table row
    // per observation.
    let (x, y) = paper_dgp(300, 66);
    let grid = BandwidthGrid::paper_default(&x, 25).unwrap();

    let prefix = record(|| {
        cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
    });
    let mut win = full_window(&x, &y, grid.clone());
    let reselect = record(|| {
        win.reselect_now().unwrap();
    });
    let cells = (x.len() * grid.len()) as u64;
    assert_eq!(prefix.get(Counter::WindowQueries), cells);
    assert_eq!(reselect.get(Counter::WindowQueries), cells);
    let skipped = prefix.get(Counter::LooTermsSkipped);
    assert!(skipped > 0, "small bandwidths must leave terms outside");
    assert_eq!(reselect.get(Counter::LooTermsSkipped), skipped);
    assert_eq!(reselect.get(Counter::KernelEvals), 0);
    assert_eq!(reselect.get(Counter::Reselects), 1);
    assert_eq!(reselect.get(Counter::TreeUpdates), x.len() as u64);
    assert_eq!(prefix.get(Counter::Reselects), 0);
}

#[test]
fn sort_comparisons_lower_bound_holds() {
    let mut keys: Vec<f64> = (0..100).rev().map(|i| i as f64).collect();
    let mut aux = vec![0.0; 100];

    let cmps = record(|| {
        sort_with_aux(&mut keys, &mut aux);
    })
    .get(Counter::SortComparisons);
    // Sorting 100 reversed keys needs at least n−1 comparisons; quicksort
    // with insertion-sort tails does a small multiple of n log n.
    assert!(cmps >= 99, "only {cmps} comparisons recorded");
    assert!(cmps < 100 * 100, "quadratic blowup: {cmps}");
}

#[test]
fn phase_timers_cover_sweep_and_sort() {
    let (x, y) = tiny_fixture();
    let grid = BandwidthGrid::from_values(vec![0.4, 0.8]).unwrap();

    let snap = record(|| {
        cv_profile_sorted(&x, &y, &grid, &Epanechnikov).unwrap();
    })
    .snapshot();
    let sweep = snap
        .phases
        .iter()
        .find(|p| p.name == "cv.sweep")
        .expect("cv.sweep phase");
    assert_eq!(sweep.calls, 1);
    let sort = snap
        .phases
        .iter()
        .find(|p| p.name == "cv.sort")
        .expect("cv.sort phase");
    assert_eq!(sort.calls, x.len() as u64, "one per-observation sort each");
}

/// The tentpole's acceptance test: two instrumented CV runs executing
/// *concurrently* in one process must each report exactly the counters
/// their sequential run reports — bit-identical kernel_evals,
/// sort_comparisons, and window_queries. Before scoped recorders the
/// global counters interleaved and both runs saw a corrupted mixture.
#[test]
fn concurrent_instrumented_runs_see_only_their_own_counters() {
    let (xa, ya) = paper_dgp(300, 71);
    let grid_a = BandwidthGrid::paper_default(&xa, 20).unwrap();
    let (xb, yb) = paper_dgp(250, 72);
    // 250 · 300 cells: above the threshold where the prefix sweep splits
    // its grid across cores.
    let grid_b = BandwidthGrid::paper_default(&xb, 300).unwrap();

    // Sequential baselines, one recorder per run. Run A uses the parallel
    // sorted sweep and run B the split prefix sweep, so the test also
    // covers scope propagation into rayon workers.
    let key = |r: &Recorder| {
        (
            r.get(Counter::KernelEvals),
            r.get(Counter::SortComparisons),
            r.get(Counter::WindowQueries),
        )
    };
    let run_a = || {
        record(|| {
            cv_profile_sorted_par(&xa, &ya, &grid_a, &Epanechnikov).unwrap();
        })
    };
    let run_b = || {
        record(|| {
            cv_profile_prefix(&xb, &yb, &grid_b, &Epanechnikov).unwrap();
        })
    };
    let baseline_a = key(&run_a());
    let baseline_b = key(&run_b());
    // The two workloads are distinguishable, so cross-contamination cannot
    // cancel out.
    assert_ne!(baseline_a, baseline_b);
    assert!(baseline_a.0 > 0 && baseline_b.2 > 0);

    // Now the same two runs, genuinely concurrent, several times over to
    // give interleaving every chance to corrupt the deltas.
    for round in 0..5 {
        let (got_a, got_b) = std::thread::scope(|s| {
            let ha = s.spawn(|| key(&run_a()));
            let hb = s.spawn(|| key(&run_b()));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(got_a, baseline_a, "run A contaminated in round {round}");
        assert_eq!(got_b, baseline_b, "run B contaminated in round {round}");
    }
}

//! Non-finite regressors never reach the moment-window cursor sweep.
//!
//! The sweep pads its sorted keys with `+inf` sentinels and relies on no
//! real key being `+inf` (or NaN, which would break the sort the cursors
//! step along). Every entry point that reaches the sweep must therefore
//! reject a non-finite `x` by name and index before any work, and the
//! streaming window, whose `push` is its only way in, must leave its state
//! untouched. The naive oracles and the plug-in rules reject the same
//! inputs with the same typed error as the engines they stand beside.

use kcv_core::cv::{cv_profile_prefix, cv_profile_prefix_ll, SlidingWindowSelector};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::multi::{
    select_full_grid, select_full_grid_naive, select_multiplier_grid, select_multiplier_grid_naive,
};
use kcv_core::prelude::{BandwidthSelector, GridSpec, SortedGridSearch};
use kcv_core::select::{scott_bandwidth, silverman_bandwidth, BaggedSelector};
use kcv_core::Error;

const BAD: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

fn is_bad_x<T: std::fmt::Debug>(r: kcv_core::Result<T>, index: usize) -> bool {
    matches!(r, Err(Error::NonFiniteData { which: "x", index: i }) if i == index)
}

#[test]
fn batch_entry_points_reject_non_finite_x() {
    let grid = BandwidthGrid::linear(0.1, 1.0, 5).unwrap();
    // 8 · 8192 cells: large enough for the prefix engines to split the
    // grid across cores.
    let wide = BandwidthGrid::linear(0.1, 1.0, 8192).unwrap();
    let y: Vec<f64> = (0..8).map(f64::from).collect();
    for bad in BAD {
        for index in [0, 5, 7] {
            let mut x: Vec<f64> = (0..8).map(|i| f64::from(i) / 8.0).collect();
            x[index] = bad;
            let k = &Epanechnikov;
            assert!(
                is_bad_x(cv_profile_prefix(&x, &y, &grid, k), index),
                "{bad} at {index}"
            );
            assert!(is_bad_x(cv_profile_prefix(&x, &y, &wide, k), index));
            assert!(is_bad_x(cv_profile_prefix_ll(&x, &y, &grid, k), index));
            assert!(is_bad_x(cv_profile_prefix_ll(&x, &y, &wide, k), index));
            let search = SortedGridSearch::prefix(Epanechnikov, GridSpec::Explicit(grid.clone()));
            assert!(search.select(&x, &y).is_err(), "{bad} at {index}");
            let bagged = BaggedSelector::new(Epanechnikov, GridSpec::Explicit(grid.clone()), 2, 4);
            assert!(bagged.select_bagged(&x, &y).is_err(), "{bad} at {index}");
            let d1 = select_full_grid(&[x.clone()], &y, k, &[grid.values().to_vec()]);
            assert!(d1.is_err(), "{bad} at {index}");
        }
    }
}

#[test]
fn streaming_inserts_reject_non_finite_x_and_keep_their_state() {
    let x: Vec<f64> = (0..12).map(|i| f64::from(i) / 12.0).collect();
    let y: Vec<f64> = x.iter().map(|&v| v * v).collect();
    let grid = BandwidthGrid::linear(0.1, 1.0, 5).unwrap();

    let mut win = SlidingWindowSelector::new(Epanechnikov, grid, 8, 3).unwrap();
    for (&xi, &yi) in x.iter().zip(&y) {
        win.push(xi, yi).unwrap();
    }
    let before = win.reselect_now().unwrap();
    for bad in BAD {
        assert!(is_bad_x(win.push(bad, 1.0), 0), "{bad}");
        assert!(matches!(
            win.push(0.5, bad),
            Err(Error::NonFiniteData { which: "y", .. })
        ));
    }
    assert_eq!(win.len(), 8);
    let after = win.reselect_now().unwrap();
    assert_eq!(after.bandwidth.to_bits(), before.bandwidth.to_bits());
    assert_eq!(after.score.to_bits(), before.score.to_bits());
    assert_eq!(after.included, before.included);
}

/// Keys spanning `1e-300..1e300` on both sides of zero: the moment powers
/// overflow, but the re-selection's sort and sweep see only finite keys,
/// so the window returns an optimum or an error, never a panic, and the
/// window is unchanged by it.
#[test]
fn streaming_reselects_survive_keys_spanning_the_exponent_range() {
    let keys: Vec<f64> = (-300..=300)
        .step_by(25)
        .flat_map(|e| [10f64.powi(e), -(10f64.powi(e))])
        .collect();
    let grid = BandwidthGrid::log(1e-300, 1e300, 12).unwrap();
    // A window that wraps, and one that holds every key.
    for capacity in [16, keys.len()] {
        let mut win = SlidingWindowSelector::new(Epanechnikov, grid.clone(), capacity, 4).unwrap();
        for (i, &x) in keys.iter().enumerate() {
            let y = f64::from(i as u32 % 7);
            let _ = win.push(x, y);
            assert_eq!(win.len(), (i + 1).min(capacity));
        }
        let _ = win.reselect_now();
        assert_eq!(win.len(), capacity);
    }
}

/// The d-dimensional naive oracles validate like the fast engine: the same
/// typed error on non-finite x or y and on n < 2, never a panic or an `Ok`.
#[test]
fn multivariate_naive_oracles_fail_like_the_fast_engine() {
    let k = &Epanechnikov;
    let grids = vec![vec![0.2, 0.4], vec![0.3, 0.6]];
    let multipliers = [0.5, 1.0, 2.0];
    let clean = |n: usize| -> (Vec<Vec<f64>>, Vec<f64>) {
        let a: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| (v * 7.0).fract()).collect();
        let y: Vec<f64> = a.iter().zip(&b).map(|(u, v)| u * v).collect();
        (vec![a, b], y)
    };
    let mut cases = Vec::new();
    for bad in BAD {
        for index in [0, 5] {
            let (mut cols, y) = clean(8);
            cols[1][index] = bad;
            cases.push((cols, y, Error::NonFiniteData { which: "x", index }));
            let (cols, mut y) = clean(8);
            y[index] = bad;
            cases.push((cols, y, Error::NonFiniteData { which: "y", index }));
        }
    }
    for n in [0, 1] {
        let (cols, y) = clean(n);
        cases.push((cols, y, Error::SampleTooSmall { n, required: 2 }));
    }
    for (cols, y, expected) in cases {
        let fast = select_full_grid(&cols, &y, k, &grids).unwrap_err();
        let naive = select_full_grid_naive(&cols, &y, k, &grids).unwrap_err();
        assert_eq!(fast, expected);
        assert_eq!(naive, expected);
        let fast = select_multiplier_grid(&cols, &y, k, &multipliers).unwrap_err();
        let naive = select_multiplier_grid_naive(&cols, &y, k, &multipliers).unwrap_err();
        assert_eq!(fast, expected);
        assert_eq!(naive, expected);
    }
}

#[test]
fn rules_of_thumb_reject_non_finite_x() {
    for bad in BAD {
        let x = [0.1, bad, 0.3];
        assert!(is_bad_x(silverman_bandwidth(&x, &Epanechnikov), 1), "{bad}");
        assert!(is_bad_x(scott_bandwidth(&x, &Epanechnikov), 1), "{bad}");
    }
}

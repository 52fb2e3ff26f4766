//! Non-finite regressors never reach the moment-window cursor sweep.
//!
//! The sweep pads its sorted keys with `+inf` sentinels and relies on no
//! real key being `+inf` (or NaN, which would break the sort the cursors
//! step along). Every entry point that reaches it must therefore reject a
//! non-finite `x` by name and index before any work, and the streaming
//! selectors must leave their state untouched.

use kcv_core::cv::{
    cv_profile_prefix, cv_profile_prefix_ll, IncrementalSelector, SlidingWindowSelector,
};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::multi::select_full_grid;
use kcv_core::prelude::{BandwidthSelector, GridSpec, SortedGridSearch};
use kcv_core::select::{BagEngine, BaggedSelector};
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
            let bagged = BaggedSelector::new(Epanechnikov, GridSpec::Explicit(grid.clone()), 2, 4)
                .with_engine(BagEngine::PrefixMoments);
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

    let mut sel = IncrementalSelector::new(Epanechnikov, grid.clone());
    let mut win = SlidingWindowSelector::new(Epanechnikov, grid, 8, 3).unwrap();
    for (&xi, &yi) in x.iter().zip(&y) {
        sel.insert(xi, yi).unwrap();
        win.push(xi, yi).unwrap();
    }
    let before = sel.reselect().unwrap();
    let window_before = win.reselect_now().unwrap();
    for bad in BAD {
        assert!(is_bad_x(sel.insert(bad, 1.0), 0), "{bad}");
        assert!(is_bad_x(win.push(bad, 1.0), 0), "{bad}");
    }
    assert_eq!(sel.len(), x.len());
    assert_eq!(win.len(), 8);
    let after = sel.reselect().unwrap();
    assert_eq!(after.included, before.included);
    assert_eq!(after.scores, before.scores);
    let window_after = win.reselect_now().unwrap();
    assert_eq!(
        window_after.bandwidth.to_bits(),
        window_before.bandwidth.to_bits()
    );
}

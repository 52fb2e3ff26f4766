//! The moment-window engines are compiled for kernel polynomials of degree
//! at most `MAX_KERNEL_DEGREE`. A kernel above the cap must come back as
//! `Error::KernelDegreeTooHigh` from every entry point that reaches them —
//! never a panic — a kernel exactly at the cap must work, and a kernel
//! with no coefficients at all is an `Error::InvalidParameter`.

use kcv_core::cv::{
    cv_profile_naive, cv_profile_prefix, cv_profile_prefix_ll, IncrementalSelector,
    SlidingWindowSelector, MAX_KERNEL_DEGREE,
};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{horner, Kernel, PolynomialKernel};
use kcv_core::prelude::{BandwidthSelector, GridSpec, SortedGridSearch};
use kcv_core::util::{approx_eq, SplitMix64};
use kcv_core::Error;

/// `(315/256)·(1 − u²)⁴` on `|u| ≤ 1`: degree 8, one above the cap.
const DEG8: [f64; 9] = {
    let c = 315.0 / 256.0;
    [c, 0.0, -4.0 * c, 0.0, 6.0 * c, 0.0, -4.0 * c, 0.0, c]
};

/// `(4/7)·(1 − |u|⁷)` on `|u| ≤ 1`: degree 7, exactly at the cap.
const DEG7: [f64; 8] = [4.0 / 7.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, -4.0 / 7.0];

/// A test kernel given only by its coefficients in `|u|` on `|u| ≤ 1`.
#[derive(Debug, Clone, Copy)]
struct Poly(&'static [f64]);

impl Kernel for Poly {
    fn eval(&self, u: f64) -> f64 {
        if u.abs() > 1.0 {
            0.0
        } else {
            horner(self.0, u.abs())
        }
    }
    fn support(&self) -> Option<f64> {
        Some(1.0)
    }
    fn roughness(&self) -> f64 {
        1.0
    }
    fn second_moment(&self) -> f64 {
        0.1
    }
    fn name(&self) -> &'static str {
        "test-polynomial"
    }
}

impl PolynomialKernel for Poly {
    fn coeffs(&self) -> &'static [f64] {
        self.0
    }
}

fn sample(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| (6.0 * v).sin() + 0.3 * rng.next_f64())
        .collect();
    (x, y)
}

fn is_degree_error<T: std::fmt::Debug>(r: kcv_core::Result<T>) -> bool {
    matches!(
        r,
        Err(Error::KernelDegreeTooHigh {
            degree: 8,
            max: MAX_KERNEL_DEGREE
        })
    )
}

#[test]
fn the_cap_is_seven() {
    assert_eq!(MAX_KERNEL_DEGREE, 7);
    assert_eq!(DEG7.len() - 1, MAX_KERNEL_DEGREE);
    assert_eq!(DEG8.len() - 1, MAX_KERNEL_DEGREE + 1);
}

#[test]
fn batch_entry_points_reject_a_degree_eight_kernel() {
    let (x, y) = sample(60, 3);
    let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
    // 60 · 1100 cells: large enough for the prefix engines to split the
    // grid across cores.
    let wide = BandwidthGrid::paper_default(&x, 1100).unwrap();
    let k = Poly(&DEG8);
    assert!(is_degree_error(cv_profile_prefix(&x, &y, &grid, &k)));
    assert!(is_degree_error(cv_profile_prefix(&x, &y, &wide, &k)));
    assert!(is_degree_error(cv_profile_prefix_ll(&x, &y, &grid, &k)));
    assert!(is_degree_error(cv_profile_prefix_ll(&x, &y, &wide, &k)));
    let search = SortedGridSearch::prefix(k, GridSpec::PaperDefault(10));
    assert!(is_degree_error(search.select(&x, &y)));
    // The naive oracle has no degree cap.
    assert!(cv_profile_naive(&x, &y, &grid, &k).is_ok());
}

#[test]
fn streaming_entry_points_reject_a_degree_eight_kernel() {
    let (x, y) = sample(40, 4);
    let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
    let k = Poly(&DEG8);

    let mut sel = IncrementalSelector::new(k, grid.clone());
    for (&xi, &yi) in x.iter().zip(&y) {
        sel.insert(xi, yi).unwrap();
    }
    assert!(is_degree_error(sel.reselect()));
    assert!(is_degree_error(sel.reselect_optimum()));
    // The failed re-selection left the live set intact.
    assert_eq!(sel.len(), x.len());
    assert!(sel.remove(x[0], y[0]));

    let mut win = SlidingWindowSelector::new(k, grid, 16, 4).unwrap();
    let mut errors = 0;
    for (&xi, &yi) in x.iter().zip(&y) {
        match win.push(xi, yi) {
            Ok(None) => {}
            Ok(Some(opt)) => panic!("degree-8 kernel selected {opt:?}"),
            Err(e) => {
                assert_eq!(
                    e,
                    Error::KernelDegreeTooHigh {
                        degree: 8,
                        max: MAX_KERNEL_DEGREE
                    }
                );
                errors += 1;
            }
        }
    }
    assert_eq!(errors, x.len() / 4, "every cadence turn reports the cap");
    assert_eq!(win.len(), 16);
    assert!(win.current().is_none());
}

#[test]
fn a_kernel_without_coefficients_is_rejected() {
    let (x, y) = sample(30, 6);
    let grid = BandwidthGrid::paper_default(&x, 5).unwrap();
    let k = Poly(&[]);
    let bad =
        |r: kcv_core::Result<_>| matches!(r, Err(Error::InvalidParameter { name: "coeffs", .. }));
    assert!(bad(cv_profile_prefix(&x, &y, &grid, &k)));
    assert!(bad(cv_profile_prefix_ll(&x, &y, &grid, &k)));
    let mut sel = IncrementalSelector::new(k, grid);
    for (&xi, &yi) in x.iter().zip(&y) {
        sel.insert(xi, yi).unwrap();
    }
    assert!(bad(sel.reselect()));
}

#[test]
fn a_kernel_at_the_cap_runs_every_engine() {
    let (x, y) = sample(80, 5);
    let grid = BandwidthGrid::linear(0.08, 0.8, 12).unwrap();
    let k = Poly(&DEG7);
    let naive = cv_profile_naive(&x, &y, &grid, &k).unwrap();
    let prefix = cv_profile_prefix(&x, &y, &grid, &k).unwrap();
    assert_eq!(prefix.included, naive.included);
    for m in 0..grid.len() {
        assert!(
            approx_eq(prefix.scores[m], naive.scores[m], 1e-6, 1e-9),
            "h={}: {} vs {}",
            grid.values()[m],
            prefix.scores[m],
            naive.scores[m]
        );
    }
    assert!(cv_profile_prefix_ll(&x, &y, &grid, &k).is_ok());
    let mut sel = IncrementalSelector::new(k, grid);
    for (&xi, &yi) in x.iter().zip(&y) {
        sel.insert(xi, yi).unwrap();
    }
    let inc = sel.reselect().unwrap();
    assert_eq!(inc.included, naive.included);
    assert_eq!(inc.argmin().unwrap().index, naive.argmin().unwrap().index);
}

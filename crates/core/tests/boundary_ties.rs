//! Regression test for exact support-boundary ties.
//!
//! Every CV strategy decides membership with the predicate `d/h ≤ r`; an
//! observation pair with `|x_i − x_l| == h·r` *exactly* sits on the closed
//! boundary and must be classified identically by all of them. The design
//! below lives on a power-of-two lattice so `d/h` is computed without
//! rounding: `0.25 / 0.25 = 1.0` exactly, making the tie real rather than
//! an artefact of float noise.
//!
//! Two kernels probe the two interesting boundary behaviours:
//! - `Uniform` has weight `0.5 > 0` at `|u| = r`, so a boundary neighbour
//!   changes the denominator — misclassifying it flips `included`.
//! - `Epanechnikov` has weight exactly `0` at `|u| = r`, so the boundary
//!   neighbour must be *counted as in-support yet weightless*: on this
//!   lattice the `h = 0.25` denominators collapse to exactly `0.0` and all
//!   observations are excluded — any strategy that drops (or double-counts)
//!   the tie by a strict inequality, or perturbs the arithmetic, disagrees.
//!
//! Because the lattice keeps all three strategies' arithmetic exact
//! (including the prefix sweep's midrange-centred moments), the scores are
//! asserted bitwise-equal, not just approximately.

use kcv_core::cv::{cv_profile_naive, cv_profile_prefix, cv_profile_sorted, CvProfile};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{Epanechnikov, PolynomialKernel, Uniform};

fn lattice() -> (Vec<f64>, Vec<f64>) {
    // Spacing 0.25: at h = 0.25 every adjacent pair is exactly on the
    // support boundary (d/h == 1 == r); at h = 0.5 adjacent pairs are
    // interior and next-nearest pairs are exactly on the boundary.
    let x = vec![0.0, 0.25, 0.5, 0.75, 1.0];
    // Exact binary fractions so y-weighted sums stay exact too.
    let y = vec![1.0, 2.0, -1.0, 0.5, 3.0];
    (x, y)
}

fn all_strategies<K: PolynomialKernel + Clone>(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    kernel: &K,
) -> [(&'static str, CvProfile); 3] {
    [
        ("naive", cv_profile_naive(x, y, grid, kernel).unwrap()),
        ("sorted", cv_profile_sorted(x, y, grid, kernel).unwrap()),
        ("prefix", cv_profile_prefix(x, y, grid, kernel).unwrap()),
    ]
}

fn assert_identical_classification(profiles: &[(&'static str, CvProfile)]) {
    let (ref_name, reference) = &profiles[0];
    for (name, p) in &profiles[1..] {
        assert_eq!(
            p.included, reference.included,
            "{name} classified boundary ties differently from {ref_name}"
        );
        for m in 0..reference.len() {
            assert_eq!(
                p.scores[m].to_bits(),
                reference.scores[m].to_bits(),
                "{name} vs {ref_name} score not bitwise equal at h={} ({} vs {})",
                reference.bandwidths[m],
                p.scores[m],
                reference.scores[m]
            );
        }
    }
}

#[test]
fn uniform_kernel_counts_exact_boundary_neighbours() {
    let (x, y) = lattice();
    let grid = BandwidthGrid::from_values(vec![0.25, 0.5]).unwrap();
    let profiles = all_strategies(&x, &y, &grid, &Uniform);
    assert_identical_classification(&profiles);
    // At h = 0.25 every observation's only in-support neighbours sit
    // exactly on the boundary with weight 0.5 > 0 — all five must be
    // included. A strict `<` predicate anywhere would exclude the two
    // endpoints (single boundary neighbour each) first.
    assert_eq!(profiles[0].1.included, vec![5, 5]);
}

#[test]
fn epanechnikov_kernel_gives_boundary_neighbours_zero_weight() {
    let (x, y) = lattice();
    let grid = BandwidthGrid::from_values(vec![0.25, 0.5]).unwrap();
    let profiles = all_strategies(&x, &y, &grid, &Epanechnikov);
    assert_identical_classification(&profiles);
    // At h = 0.25 each in-support neighbour has |u| = 1 exactly, where
    // Epanechnikov weight is 0.75·(1 − 1) = 0: denominators are exactly
    // zero and everyone is excluded. At h = 0.5 the adjacent neighbours
    // are interior (|u| = 0.5) and everyone is included.
    assert_eq!(profiles[0].1.included, vec![0, 5]);
    assert_eq!(profiles[0].1.scores[0], 0.0);
}

#[test]
fn boundary_ties_also_agree_at_radius_spanning_bandwidths() {
    // h = 0.125: d/h = 2 for adjacent pairs (outside r = 1) — nobody has a
    // neighbour, all excluded. h = 1.0: everything in support. Checks the
    // degenerate extremes classify identically too.
    let (x, y) = lattice();
    let grid = BandwidthGrid::from_values(vec![0.125, 1.0]).unwrap();
    for kernel_profiles in [
        all_strategies(&x, &y, &grid, &Uniform),
        all_strategies(&x, &y, &grid, &Epanechnikov),
    ] {
        assert_identical_classification(&kernel_profiles);
        assert_eq!(kernel_profiles[0].1.included[0], 0);
        assert_eq!(kernel_profiles[0].1.included[1], 5);
    }
}

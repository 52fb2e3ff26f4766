//! Integration tests for the extension surfaces: local-linear sweep and
//! canned datasets — exercised together through the public facade.

use kernelcv::core::cv::{cv_profile_naive_ll, cv_profile_sorted_ll};
use kernelcv::data::datasets::{cps71_like, gdp_like, motorcycle_like};
use kernelcv::prelude::*;

#[test]
fn local_linear_sweep_agrees_with_the_naive_local_linear_oracle() {
    let sample = PaperDgp.sample(150, 501);
    let grid = BandwidthGrid::paper_default(&sample.x, 20).unwrap();
    let sorted = cv_profile_sorted_ll(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    let naive = cv_profile_naive_ll(&sample.x, &sample.y, &grid, &Epanechnikov).unwrap();
    for (m, &h) in grid.values().iter().enumerate() {
        let oracle = naive.scores[m];
        assert!(
            (sorted.scores[m] - oracle).abs() <= 1e-8 * oracle.abs().max(1e-9),
            "h={h}: sweep {} vs naive {oracle}",
            sorted.scores[m]
        );
        assert_eq!(sorted.included[m], naive.included[m], "h={h}");
    }
}

#[test]
fn datasets_run_through_the_full_selection_pipeline() {
    for (name, data) in [
        ("cps71", cps71_like()),
        ("motorcycle", motorcycle_like()),
        ("gdp", gdp_like()),
    ] {
        let sel = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(100))
            .with_min_included(data.len() * 9 / 10)
            .select(&data.x, &data.y)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(sel.bandwidth > 0.0, "{name}");
        let fit = NadarayaWatson::new(&data.x, &data.y, Epanechnikov, sel.bandwidth).unwrap();
        let defined = fit
            .predict_many(&data.x)
            .iter()
            .filter(|p| p.is_some())
            .count();
        assert!(
            defined as f64 > 0.9 * data.len() as f64,
            "{name}: {defined} defined"
        );
    }
}

#[test]
fn motorcycle_needs_a_much_tighter_bandwidth_than_gdp() {
    // Relative to each dataset's domain: sharply varying truth → small
    // relative bandwidth; near-linear truth → wide relative bandwidth.
    let rel_bw = |data: &kernelcv::data::Sample| {
        let sel = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(100))
            .with_min_included(data.len() / 2)
            .select(&data.x, &data.y)
            .unwrap();
        let (lo, hi) = data
            .x
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        sel.bandwidth / (hi - lo)
    };
    let moto = rel_bw(&motorcycle_like());
    let gdp = rel_bw(&gdp_like());
    assert!(moto < gdp, "motorcycle {moto} vs gdp {gdp}");
}

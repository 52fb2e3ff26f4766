//! End-to-end workflows across the crates: data generation → bandwidth
//! selection → fitting → diagnostics, on several data-generating processes.

use kernelcv::core::density::{lscv_profile_sorted, Kde};
use kernelcv::core::diagnostics::{diagnostics, oracle_mse};
use kernelcv::core::kernels::EpanechnikovConvolution;
use kernelcv::core::select::{Rule, RuleOfThumbSelector};
use kernelcv::data::{DopplerDgp, HeteroskedasticDgp, SineDgp, StepDgp};
use kernelcv::prelude::*;

fn cv_selected_bandwidth(x: &[f64], y: &[f64]) -> f64 {
    SortedGridSearch::parallel(Epanechnikov, GridSpec::PaperDefault(100))
        .with_min_included(x.len() / 2)
        .select(x, y)
        .unwrap()
        .bandwidth
}

#[test]
fn cv_bandwidth_beats_rule_of_thumb_on_curved_truth() {
    // On the paper's strongly curved DGP, Silverman's rule over-smooths
    // (it is derived for density estimation on Gaussian data); CV adapts.
    let dgp = PaperDgp;
    let sample = dgp.sample(800, 21);
    let h_cv = cv_selected_bandwidth(&sample.x, &sample.y);
    let h_rot = RuleOfThumbSelector::new(Epanechnikov, Rule::Silverman)
        .select(&sample.x, &sample.y)
        .unwrap()
        .bandwidth;
    assert!(
        h_cv < h_rot,
        "CV {h_cv} should be tighter than ROT {h_rot} here"
    );

    let points: Vec<f64> = (10..=90).map(|i| i as f64 / 100.0).collect();
    let fit_cv = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, h_cv).unwrap();
    let fit_rot = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, h_rot).unwrap();
    let mse_cv = oracle_mse(&fit_cv, &points, |v| dgp.truth(v));
    let mse_rot = oracle_mse(&fit_rot, &points, |v| dgp.truth(v));
    assert!(
        mse_cv < mse_rot,
        "oracle MSE: CV {mse_cv} should beat rule-of-thumb {mse_rot}"
    );
}

#[test]
fn cv_adapts_bandwidth_to_the_shape_of_the_truth() {
    // Oscillating truth (sine, 6 periods) demands a much smaller bandwidth
    // than a gently curved one at the same noise level.
    let smooth = SineDgp {
        frequency: 0.5,
        noise: 0.2,
    }
    .sample(600, 5);
    let wiggly = SineDgp {
        frequency: 6.0,
        noise: 0.2,
    }
    .sample(600, 5);
    let h_smooth = cv_selected_bandwidth(&smooth.x, &smooth.y);
    let h_wiggly = cv_selected_bandwidth(&wiggly.x, &wiggly.y);
    assert!(
        h_wiggly < h_smooth,
        "wiggly truth needs smaller h: {h_wiggly} vs {h_smooth}"
    );
}

#[test]
fn step_discontinuity_forces_small_bandwidth() {
    let sample = StepDgp::default().sample(600, 6);
    let h = cv_selected_bandwidth(&sample.x, &sample.y);
    assert!(
        h < 0.2,
        "step truth should force a small bandwidth, got {h}"
    );
    // The fitted jump should be visible.
    let fit = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, h).unwrap();
    let left = fit.predict(0.4).unwrap();
    let right = fit.predict(0.6).unwrap();
    assert!(right - left > 1.0, "jump flattened: {left} → {right}");
}

#[test]
fn doppler_is_fit_reasonably_in_the_smooth_region() {
    let dgp = DopplerDgp::default();
    let sample = dgp.sample(1_500, 7);
    let h = cv_selected_bandwidth(&sample.x, &sample.y);
    let fit = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, h).unwrap();
    // The right half of the doppler is slowly varying; demand decent fit.
    let points: Vec<f64> = (55..=90).map(|i| i as f64 / 100.0).collect();
    let mse = oracle_mse(&fit, &points, |v| dgp.truth(v));
    assert!(mse < 0.05, "doppler smooth-region MSE {mse}");
}

#[test]
fn local_linear_beats_nw_at_boundaries_on_sloped_truth() {
    let dgp = HeteroskedasticDgp { base_noise: 0.05 };
    let sample = dgp.sample(1_000, 8);
    let h = 0.1;
    let nw = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, h).unwrap();
    let ll = LocalLinear::new(&sample.x, &sample.y, Epanechnikov, h).unwrap();
    // Boundary points: x near 1, where truth has slope 0.5 + 20x ≈ 20.5.
    let boundary = [0.97, 0.98, 0.99];
    let nw_err = oracle_mse(&nw, &boundary, |v| dgp.truth(v));
    let ll_err = oracle_mse(&ll, &boundary, |v| dgp.truth(v));
    assert!(
        ll_err < nw_err,
        "local linear should beat NW at the boundary: {ll_err} vs {nw_err}"
    );
}

#[test]
fn full_np_style_workflow() {
    let sample = PaperDgp.sample(400, 9);
    let bws = npregbw(&sample.x, &sample.y, NpRegBwOptions::default()).unwrap();
    let fit = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, bws.bw).unwrap();
    assert!(diagnostics(&fit, &sample.y).r_squared > 0.95);
    assert!(bws.summary().contains("Least Squares Cross-Validation"));
}

#[test]
fn kde_lscv_workflow_recovers_uniform_density() {
    // X ~ U(0,1): the density is 1 on [0,1]; the LSCV-bandwidth KDE should
    // be close to 1 across the interior.
    let sample = PaperDgp.sample(1_200, 10);
    let grid = BandwidthGrid::linear(0.01, 0.5, 80).unwrap();
    let profile =
        lscv_profile_sorted(&sample.x, &grid, &Epanechnikov, &EpanechnikovConvolution).unwrap();
    let (_, h, _) = profile.argmin().unwrap();
    let kde = Kde::new(&sample.x, Epanechnikov, h).unwrap();
    for p in [0.2, 0.4, 0.6, 0.8] {
        let d = kde.evaluate(p);
        assert!((d - 1.0).abs() < 0.2, "density at {p}: {d}");
    }
}

#[test]
fn diagnostics_flag_overfit_and_underfit() {
    let sample = PaperDgp.sample(600, 12);
    let tight = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, 0.003).unwrap();
    let good = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, 0.05).unwrap();
    let wide = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, 0.9).unwrap();
    let d_tight = diagnostics(&tight, &sample.y);
    let d_good = diagnostics(&good, &sample.y);
    let d_wide = diagnostics(&wide, &sample.y);
    // In-sample MSE orders tight < good < wide (overfitting looks great
    // in-sample)…
    assert!(d_tight.mse <= d_good.mse && d_good.mse <= d_wide.mse);
    // …but the LOO MSE exposes both extremes.
    assert!(d_good.loo_mse < d_wide.loo_mse);
    assert!(d_good.loo_mse <= d_tight.loo_mse || d_tight.loo_count < d_good.loo_count);
}

//! Local-constant vs local-linear regression on a cps71-style wage–age
//! dataset (a synthetic lookalike of the survey data the np package ships),
//! with bandwidths selected by cross-validation for each estimator.
//!
//! Run with: `cargo run --release --example wage_curve`

use kernelcv::core::cv::{cv_profile_sorted, cv_profile_sorted_ll};
use kernelcv::core::diagnostics::diagnostics;
use kernelcv::data::datasets::cps71_like;
use kernelcv::prelude::*;

fn main() {
    let data = cps71_like();
    println!(
        "cps71-style data: {} workers, age {:.0}–{:.0}\n",
        data.len(),
        data.x.iter().fold(f64::MAX, |a, &b| a.min(b)),
        data.x.iter().fold(f64::MIN, |a, &b| a.max(b)),
    );

    // CV profiles for both regression types over the same grid.
    let grid = BandwidthGrid::paper_default(&data.x, 100).expect("grid");
    let lc_profile = cv_profile_sorted(&data.x, &data.y, &grid, &Epanechnikov).expect("lc");
    let ll_profile = cv_profile_sorted_ll(&data.x, &data.y, &grid, &Epanechnikov).expect("ll");
    let lc = lc_profile.argmin().expect("lc argmin");
    let ll = ll_profile.argmin().expect("ll argmin");
    println!(
        "local-constant: h = {:.2} years (CV = {:.4})",
        lc.bandwidth, lc.score
    );
    println!(
        "local-linear  : h = {:.2} years (CV = {:.4})",
        ll.bandwidth, ll.score
    );
    let better_ll = ll.score < lc.score;
    println!(
        "→ {} wins on leave-one-out error\n",
        if better_ll {
            "local-linear"
        } else {
            "local-constant"
        }
    );

    // Fit both and compare in-sample diagnostics.
    let nw = NadarayaWatson::new(&data.x, &data.y, Epanechnikov, lc.bandwidth).expect("nw");
    let lin = LocalLinear::new(&data.x, &data.y, Epanechnikov, ll.bandwidth).expect("ll");
    let d_nw = diagnostics(&nw, &data.y);
    let d_ll = diagnostics(&lin, &data.y);
    println!(
        "local-constant: R² = {:.3}, LOO-MSE = {:.4}",
        d_nw.r_squared, d_nw.loo_mse
    );
    println!(
        "local-linear  : R² = {:.3}, LOO-MSE = {:.4}\n",
        d_ll.r_squared, d_ll.loo_mse
    );

    // Both fits across the age range.
    println!("age   local-constant   local-linear");
    for age in (23..=63).step_by(8).map(f64::from) {
        let fmt = |g: Option<f64>| g.map_or("-".to_string(), |g| format!("{g:.3}"));
        println!(
            "{age:>3}   {:>14}   {:>12}",
            fmt(nw.predict(age)),
            fmt(lin.predict(age))
        );
    }

    // The economically expected life-cycle shape: wages rise from the
    // early twenties into middle age.
    let young = nw.predict(23.0).expect("estimate at 23");
    let mid = nw.predict(47.0).expect("estimate at 47");
    println!(
        "\nlife-cycle check: ĝ(23) = {young:.2} < ĝ(47) = {mid:.2}: {}",
        if young < mid { "holds" } else { "VIOLATED" }
    );
}

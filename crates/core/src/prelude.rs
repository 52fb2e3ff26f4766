//! Convenience re-exports of the most commonly used items.

pub use crate::cv::{
    cv_profile_naive, cv_profile_prefix, cv_profile_sorted, cv_profile_sorted_par, CvOptimum,
    CvProfile, SlidingWindowSelector,
};
pub use crate::density::{Kde, LscvSelector};
pub use crate::error::{Error, Result};
pub use crate::estimate::{FittedCurve, LocalLinear, NadarayaWatson, RegressionEstimator};
pub use crate::grid::BandwidthGrid;
pub use crate::kernels::{
    Cosine, Epanechnikov, Gaussian, Kernel, PolynomialKernel, Quartic, Triangular, Triweight,
    Uniform,
};
pub use crate::select::{
    select_bandwidth, BagCombiner, BagOutcome, BaggedSelection, BaggedSelector, BandwidthSelector,
    GridSpec, NaiveGridSearch, RuleOfThumbSelector, Selection, SortedGridSearch, Strategy,
    ZoomGridSearch,
};

//! # kernelcv — optimal bandwidth selection for kernel regression
//!
//! Facade crate of the workspace reproducing *"Optimal Bandwidth Selection
//! for Kernel Regression Using a Fast Grid Search and a GPU"* (Rohlfs &
//! Zahran, IPPS 2017). It re-exports the member crates:
//!
//! * [`core`] (`kcv-core`) — kernels, estimators, the sorted-sweep CV grid
//!   search, selectors, KDE-LSCV, confidence bands;
//! * [`gpu_sim`] (`kcv-gpu-sim`) — the SPMD GPU simulator substrate;
//! * [`gpu`] (`kcv-gpu`) — the paper's CUDA program ported to the
//!   simulator;
//! * [`np`] (`kcv-np`) — the R-`np`-style numerical-optimisation baseline;
//! * [`data`] (`kcv-data`) — synthetic DGPs (including the paper's) and
//!   CSV I/O;
//! * [`serve`] (`kcv-serve`) — the sharded multi-stream serving front-end
//!   over the sliding-window engine.
//!
//! ```
//! use kernelcv::prelude::*;
//!
//! let sample = kernelcv::data::PaperDgp.sample(300, 7);
//! let selector = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(50));
//! let selection = selector.select(&sample.x, &sample.y).unwrap();
//! let fit = NadarayaWatson::new(&sample.x, &sample.y, Epanechnikov, selection.bandwidth).unwrap();
//! assert!(fit.predict(0.5).is_some());
//! ```

#![warn(missing_docs)]

pub use kcv_core as core;
pub use kcv_data as data;
pub use kcv_gpu as gpu;
pub use kcv_gpu_sim as gpu_sim;
pub use kcv_np as np;
pub use kcv_serve as serve;

/// The core prelude plus the most-used items of the other member crates.
pub mod prelude {
    pub use kcv_core::prelude::*;
    pub use kcv_data::{Dgp, PaperDgp, Sample};
    pub use kcv_gpu::{select_bandwidth_gpu, GpuConfig};
    pub use kcv_np::{npreg, npregbw, NpRegBwOptions};
    pub use kcv_serve::{BandwidthService, ServeConfig};
}

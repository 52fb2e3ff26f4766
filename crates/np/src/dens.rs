//! `npudensbw` / `npudens` — the np package's *density* interface, wrapping
//! the workspace's LSCV machinery: unconditional density bandwidth
//! selection by least-squares cross-validation, then density estimation.

use kcv_core::density::{lscv_profile_naive, lscv_profile_sorted, Kde};
use kcv_core::error::{Error, Result};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{
    Epanechnikov, EpanechnikovConvolution, Gaussian, GaussianConvolution, Kernel,
};
use kcv_core::select::rule_of_thumb::silverman_bandwidth;

/// Bandwidth-selection method for the density interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensBwMethod {
    /// Least-squares cross-validation over a grid (`"cv.ls"`), using the
    /// sorted sweep where the kernel admits it.
    CvLs {
        /// Number of grid candidates.
        grid_size: usize,
    },
    /// Silverman's normal-reference rule (`"normal-reference"`).
    NormalReference,
}

/// Kernel choice for the density interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DensKernel {
    /// Epanechnikov (sorted-sweep LSCV).
    Epanechnikov,
    /// Gaussian (naive LSCV).
    Gaussian,
}

/// Options for [`npudensbw`].
#[derive(Debug, Clone)]
pub struct NpUDensBwOptions {
    /// Selection method (default: 100-point LSCV).
    pub bwmethod: DensBwMethod,
    /// Kernel (default Epanechnikov, matching the regression side).
    pub ckertype: DensKernel,
}

impl Default for NpUDensBwOptions {
    fn default() -> Self {
        Self {
            bwmethod: DensBwMethod::CvLs { grid_size: 100 },
            ckertype: DensKernel::Epanechnikov,
        }
    }
}

/// The result object of [`npudensbw`].
#[derive(Debug, Clone)]
pub struct NpUDensBw {
    /// The selected bandwidth.
    pub bw: f64,
    /// The LSCV objective at the optimum (`NaN` for the reference rule).
    pub fval: f64,
    /// Options used.
    pub options: NpUDensBwOptions,
    /// Sample size.
    pub n: usize,
}

impl NpUDensBw {
    /// An np-style text summary.
    pub fn summary(&self) -> String {
        let method = match self.options.bwmethod {
            DensBwMethod::CvLs { .. } => "Least Squares Cross-Validation",
            DensBwMethod::NormalReference => "Normal Reference",
        };
        let kernel = match self.options.ckertype {
            DensKernel::Epanechnikov => "Epanechnikov",
            DensKernel::Gaussian => "Second-Order Gaussian",
        };
        format!(
            "Density Data ({} observations, 1 variable(s)):\n\n\
             Bandwidth Selection Method: {method}\n\
             Var. Name: x  Bandwidth: {:.6}\n\
             Continuous Kernel Type: {kernel}\n",
            self.n, self.bw,
        )
    }
}

/// Selects an unconditional-density bandwidth for `x`.
pub fn npudensbw(x: &[f64], options: NpUDensBwOptions) -> Result<NpUDensBw> {
    if x.len() < 2 {
        return Err(Error::SampleTooSmall {
            n: x.len(),
            required: 2,
        });
    }
    let (bw, fval) = match options.bwmethod {
        DensBwMethod::NormalReference => {
            let h = match options.ckertype {
                DensKernel::Epanechnikov => silverman_bandwidth(x, &Epanechnikov)?,
                DensKernel::Gaussian => silverman_bandwidth(x, &Gaussian)?,
            };
            (h, f64::NAN)
        }
        DensBwMethod::CvLs { grid_size } => {
            let grid = BandwidthGrid::paper_default(x, grid_size)?;
            let profile = match options.ckertype {
                DensKernel::Epanechnikov => {
                    lscv_profile_sorted(x, &grid, &Epanechnikov, &EpanechnikovConvolution)?
                }
                DensKernel::Gaussian => {
                    lscv_profile_naive(x, &grid, &Gaussian, &GaussianConvolution)?
                }
            };
            let (_, h, f) = profile.argmin()?;
            (h, f)
        }
    };
    Ok(NpUDensBw {
        bw,
        fval,
        options,
        n: x.len(),
    })
}

/// The fitted density object of [`npudens`].
#[derive(Debug, Clone)]
pub struct NpUDens {
    /// Bandwidth used.
    pub bw: f64,
    /// Density estimates at the sample points.
    pub dens: Vec<f64>,
    /// Log-likelihood `Σ log f̂(X_i)` (density clamped away from zero).
    pub log_likelihood: f64,
}

/// Evaluates the density implied by a [`NpUDensBw`] object at the sample
/// points — `npudens(bws)` in R.
pub fn npudens(bws: &NpUDensBw, x: &[f64]) -> Result<NpUDens> {
    let dens = match bws.options.ckertype {
        DensKernel::Epanechnikov => eval_all(x, &Epanechnikov, bws.bw)?,
        DensKernel::Gaussian => eval_all(x, &Gaussian, bws.bw)?,
    };
    let log_likelihood = dens.iter().map(|&d| d.max(1e-300).ln()).sum();
    Ok(NpUDens {
        bw: bws.bw,
        dens,
        log_likelihood,
    })
}

fn eval_all<K: Kernel + Clone>(x: &[f64], kernel: &K, h: f64) -> Result<Vec<f64>> {
    let kde = Kde::new(x, kernel.clone(), h)?;
    Ok(x.iter().map(|&p| kde.evaluate(p)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bimodal(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                if i % 2 == 0 {
                    0.3 * z
                } else {
                    3.0 + 0.3 * z
                }
            })
            .collect()
    }

    #[test]
    fn lscv_bandwidth_is_tighter_than_reference_on_bimodal_data() {
        let x = bimodal(400, 1);
        let cv = npudensbw(&x, NpUDensBwOptions::default()).unwrap();
        let nr = npudensbw(
            &x,
            NpUDensBwOptions {
                bwmethod: DensBwMethod::NormalReference,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(cv.bw < nr.bw, "cv {} vs reference {}", cv.bw, nr.bw);
        assert!(cv.fval.is_finite());
        assert!(nr.fval.is_nan());
    }

    #[test]
    fn gaussian_kernel_path_works() {
        let x = bimodal(150, 2);
        let bw = npudensbw(
            &x,
            NpUDensBwOptions {
                ckertype: DensKernel::Gaussian,
                bwmethod: DensBwMethod::CvLs { grid_size: 40 },
            },
        )
        .unwrap();
        assert!(bw.bw > 0.0);
    }

    #[test]
    fn density_object_reports_likelihood() {
        let x = bimodal(200, 3);
        let bws = npudensbw(&x, NpUDensBwOptions::default()).unwrap();
        let dens = npudens(&bws, &x).unwrap();
        assert_eq!(dens.dens.len(), 200);
        assert!(dens.dens.iter().all(|&d| d >= 0.0));
        assert!(dens.log_likelihood.is_finite());
        // A wildly oversmoothed density fits the sample worse in likelihood.
        let wide = NpUDensBw {
            bw: 10.0,
            ..bws.clone()
        };
        let dens_wide = npudens(&wide, &x).unwrap();
        assert!(dens.log_likelihood > dens_wide.log_likelihood);
    }

    #[test]
    fn summary_mentions_method_and_kernel() {
        let x = bimodal(100, 4);
        let bw = npudensbw(&x, NpUDensBwOptions::default()).unwrap();
        let s = bw.summary();
        assert!(s.contains("Least Squares Cross-Validation"));
        assert!(s.contains("Epanechnikov"));
    }

    #[test]
    fn rejects_tiny_samples() {
        assert!(npudensbw(&[1.0], NpUDensBwOptions::default()).is_err());
    }
}

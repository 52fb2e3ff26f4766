//! Kernel weighting functions available on the device.
//!
//! The paper's implementation "only uses one kernel weighting function"
//! (Epanechnikov) and notes that adding others "is straightforward …
//! in the future"; footnote 1 observes the same sorting strategy covers the
//! Uniform and Triangular kernels. This module is that future work: any
//! kernel that is polynomial in `|u|` on compact support runs on the
//! device, described by its f32 coefficient vector.

use kcv_core::kernels::PolynomialKernel;

/// Maximum polynomial degree the device kernel supports (triweight = 6).
pub const MAX_DEVICE_DEGREE: usize = 6;

/// A device-side kernel description: `K(u) = Σ_j coeffs[j]·|u|^j` for
/// `|u| ≤ radius`.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuKernel {
    /// Kernel name for reports.
    pub name: &'static str,
    /// Polynomial coefficients in `|u|`, single precision.
    pub coeffs: Vec<f32>,
    /// Support radius.
    pub radius: f32,
}

impl GpuKernel {
    /// Builds a device kernel from any host-side [`PolynomialKernel`]
    /// (coefficients are narrowed to f32, like everything on this device).
    pub fn from_core<K: PolynomialKernel + ?Sized>(kernel: &K) -> Self {
        Self {
            name: kernel.name(),
            coeffs: kernel.coeffs().iter().map(|&c| c as f32).collect(),
            radius: kernel.radius() as f32,
        }
    }

    /// Polynomial degree.
    pub fn degree(&self) -> usize {
        self.coeffs.len().saturating_sub(1)
    }

    /// Validates the description against the device limits.
    pub(crate) fn validate(&self) -> crate::error::Result<()> {
        if self.coeffs.is_empty() || self.degree() > MAX_DEVICE_DEGREE {
            return Err(crate::error::GpuError::Sim(
                kcv_gpu_sim::SimError::InvalidLaunch(format!(
                    "kernel '{}' has degree {} (device supports 0..={MAX_DEVICE_DEGREE})",
                    self.name,
                    self.degree()
                )),
            ));
        }
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(crate::error::GpuError::Sim(
                kcv_gpu_sim::SimError::InvalidLaunch(format!(
                    "kernel '{}' has invalid radius {}",
                    self.name, self.radius
                )),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_core::kernels::{Epanechnikov, Triweight};

    #[test]
    fn degrees_and_validation() {
        assert_eq!(GpuKernel::from_core(&Epanechnikov).degree(), 2);
        assert_eq!(GpuKernel::from_core(&Triweight).degree(), 6);
        assert!(GpuKernel::from_core(&Epanechnikov).validate().is_ok());
        let too_high = GpuKernel {
            name: "bad",
            coeffs: vec![0.0; 9],
            radius: 1.0,
        };
        assert!(too_high.validate().is_err());
        let bad_radius = GpuKernel {
            name: "bad",
            coeffs: vec![1.0],
            radius: 0.0,
        };
        assert!(bad_radius.validate().is_err());
        let empty = GpuKernel {
            name: "bad",
            coeffs: vec![],
            radius: 1.0,
        };
        assert!(empty.validate().is_err());
    }
}

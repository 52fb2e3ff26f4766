//! Error type for the GPU port.

use std::fmt;

/// Errors from the GPU bandwidth-selection pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// A device-side failure (allocation, launch, constant memory, …).
    Sim(kcv_gpu_sim::SimError),
    /// An input-validation failure (delegated to the core crate's rules).
    Core(kcv_core::Error),
    /// The bandwidth grid exceeds the constant-memory ceiling (pre-checked
    /// so the caller gets a domain-level message before any allocation).
    TooManyBandwidths {
        /// Requested grid size.
        requested: usize,
        /// Maximum representable in the constant cache.
        max: usize,
    },
    /// An input value has no finite single-precision counterpart (or a
    /// bandwidth narrows to zero), so the f32 device cannot hold it.
    NotF32 {
        /// Which input array: `"x"`, `"y"` or `"bandwidths"`.
        array: &'static str,
        /// Position of the first offending value.
        index: usize,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::Sim(e) => write!(f, "device error: {e}"),
            GpuError::Core(e) => write!(f, "input error: {e}"),
            GpuError::TooManyBandwidths { requested, max } => write!(
                f,
                "{requested} bandwidths exceed the constant-cache limit of {max} \
                 (run the search repeatedly with progressively smaller ranges instead)"
            ),
            GpuError::NotF32 {
                array,
                index,
                value,
            } => write!(
                f,
                "{array}[{index}] = {value:e} is outside the single-precision range of the device"
            ),
        }
    }
}

impl std::error::Error for GpuError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GpuError::Sim(e) => Some(e),
            GpuError::Core(e) => Some(e),
            GpuError::TooManyBandwidths { .. } | GpuError::NotF32 { .. } => None,
        }
    }
}

impl From<kcv_gpu_sim::SimError> for GpuError {
    fn from(e: kcv_gpu_sim::SimError) -> Self {
        GpuError::Sim(e)
    }
}

impl From<kcv_core::Error> for GpuError {
    fn from(e: kcv_core::Error) -> Self {
        GpuError::Core(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, GpuError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = GpuError::TooManyBandwidths {
            requested: 4096,
            max: 2048,
        };
        assert!(e.to_string().contains("4096"));
        let e: GpuError = kcv_core::Error::DegenerateDomain.into();
        assert!(std::error::Error::source(&e).is_some());
        let e: GpuError = kcv_gpu_sim::SimError::InvalidLaunch("x".into()).into();
        assert!(e.to_string().contains("device error"));
    }
}

//! Error types for the `kcv-core` crate.

use std::fmt;

/// Errors produced by estimation and bandwidth-selection routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// `x` and `y` have different lengths.
    LengthMismatch {
        /// Length of the regressor vector.
        x_len: usize,
        /// Length of the response vector.
        y_len: usize,
    },
    /// The input sample is too small for the requested operation.
    SampleTooSmall {
        /// Number of observations supplied.
        n: usize,
        /// Minimum number required.
        required: usize,
    },
    /// A supplied bandwidth was zero, negative, or non-finite.
    InvalidBandwidth(f64),
    /// The bandwidth grid is empty or not strictly increasing.
    InvalidGrid(&'static str),
    /// Input data contained a NaN or infinity.
    NonFiniteData {
        /// Name of the offending input ("x" or "y").
        which: &'static str,
        /// Index of the first non-finite value.
        index: usize,
    },
    /// Every candidate bandwidth produced an all-excluded (`M(X_i) = 0` for
    /// all `i`) cross-validation score, so no optimum exists.
    NoValidBandwidth,
    /// A numerical optimiser failed to converge within its iteration budget.
    OptimiserDiverged {
        /// Iterations performed before giving up.
        iterations: usize,
    },
    /// A degenerate regressor (zero domain: all `x` equal) was supplied.
    DegenerateDomain,
    /// Dimension mismatch in multivariate input.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Found dimension.
        found: usize,
    },
    /// A constructor or configuration parameter was out of its documented
    /// range (e.g. a zero window capacity or re-selection cadence).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The requirement it violated.
        requirement: &'static str,
    },
    /// A polynomial kernel's degree is above
    /// [`MAX_KERNEL_DEGREE`](crate::cv::MAX_KERNEL_DEGREE), the highest the
    /// moment-window engines (prefix sweep, local-linear prefix sweep,
    /// incremental re-selection) are compiled for.
    KernelDegreeTooHigh {
        /// Degree of the kernel polynomial.
        degree: usize,
        /// Highest supported degree.
        max: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LengthMismatch { x_len, y_len } => {
                write!(f, "x has {x_len} observations but y has {y_len}")
            }
            Error::SampleTooSmall { n, required } => {
                write!(f, "sample of {n} observations is below the required {required}")
            }
            Error::InvalidBandwidth(h) => {
                write!(f, "bandwidth {h} is not a finite positive number")
            }
            Error::InvalidGrid(msg) => write!(f, "invalid bandwidth grid: {msg}"),
            Error::NonFiniteData { which, index } => {
                write!(f, "non-finite value in {which} at index {index}")
            }
            Error::NoValidBandwidth => {
                write!(f, "no bandwidth produced a valid cross-validation score")
            }
            Error::OptimiserDiverged { iterations } => {
                write!(f, "numerical optimiser failed to converge after {iterations} iterations")
            }
            Error::DegenerateDomain => {
                write!(f, "regressor is degenerate: all x values are identical")
            }
            Error::DimensionMismatch { expected, found } => {
                write!(f, "expected dimension {expected}, found {found}")
            }
            Error::InvalidParameter { name, requirement } => {
                write!(f, "invalid parameter {name}: must be {requirement}")
            }
            Error::KernelDegreeTooHigh { degree, max } => {
                write!(f, "kernel polynomial of degree {degree} exceeds the supported maximum {max}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Validates a paired regression sample, returning its length.
///
/// Checks equal lengths, a minimum size, and that every value is finite.
pub fn validate_sample(x: &[f64], y: &[f64], min_n: usize) -> Result<usize> {
    if x.len() != y.len() {
        return Err(Error::LengthMismatch { x_len: x.len(), y_len: y.len() });
    }
    if x.len() < min_n {
        return Err(Error::SampleTooSmall { n: x.len(), required: min_n });
    }
    if let Some(i) = x.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteData { which: "x", index: i });
    }
    if let Some(i) = y.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteData { which: "y", index: i });
    }
    Ok(x.len())
}

/// Validates a bandwidth value.
pub fn validate_bandwidth(h: f64) -> Result<f64> {
    if h.is_finite() && h > 0.0 {
        Ok(h)
    } else {
        Err(Error::InvalidBandwidth(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_sample_accepts_good_input() {
        assert_eq!(validate_sample(&[1.0, 2.0], &[3.0, 4.0], 2), Ok(2));
    }

    #[test]
    fn validate_sample_rejects_length_mismatch() {
        let err = validate_sample(&[1.0], &[1.0, 2.0], 1).unwrap_err();
        assert_eq!(err, Error::LengthMismatch { x_len: 1, y_len: 2 });
    }

    #[test]
    fn validate_sample_rejects_small_samples() {
        let err = validate_sample(&[1.0], &[1.0], 2).unwrap_err();
        assert_eq!(err, Error::SampleTooSmall { n: 1, required: 2 });
    }

    #[test]
    fn validate_sample_rejects_nan_x() {
        let err = validate_sample(&[1.0, f64::NAN], &[1.0, 2.0], 1).unwrap_err();
        assert_eq!(err, Error::NonFiniteData { which: "x", index: 1 });
    }

    #[test]
    fn validate_sample_rejects_infinite_y() {
        let err = validate_sample(&[1.0, 2.0], &[f64::INFINITY, 2.0], 1).unwrap_err();
        assert_eq!(err, Error::NonFiniteData { which: "y", index: 0 });
    }

    #[test]
    fn validate_bandwidth_accepts_positive() {
        assert_eq!(validate_bandwidth(0.5), Ok(0.5));
    }

    #[test]
    fn validate_bandwidth_rejects_zero_negative_nan() {
        assert!(validate_bandwidth(0.0).is_err());
        assert!(validate_bandwidth(-1.0).is_err());
        assert!(validate_bandwidth(f64::NAN).is_err());
    }

    #[test]
    fn errors_display_without_panicking() {
        let errors = [
            Error::LengthMismatch { x_len: 1, y_len: 2 },
            Error::SampleTooSmall { n: 1, required: 2 },
            Error::InvalidBandwidth(-1.0),
            Error::InvalidGrid("empty"),
            Error::NonFiniteData { which: "x", index: 0 },
            Error::NoValidBandwidth,
            Error::OptimiserDiverged { iterations: 100 },
            Error::DegenerateDomain,
            Error::DimensionMismatch { expected: 2, found: 3 },
            Error::InvalidParameter { name: "capacity", requirement: "at least 2" },
            Error::KernelDegreeTooHigh { degree: 8, max: 7 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }
}

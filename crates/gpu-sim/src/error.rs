//! Error types for the SPMD GPU simulator.

use std::fmt;

/// Errors produced by device memory management and kernel launches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A global-memory allocation exceeded the device's remaining capacity.
    ///
    /// This is exactly the failure mode that caps the paper's CUDA program
    /// at n = 20 000 (two n×n f32 matrices no longer fit in 4 GB).
    OutOfMemory {
        /// Bytes requested.
        requested: usize,
        /// Bytes still available.
        available: usize,
        /// Total device capacity in bytes.
        capacity: usize,
    },
    /// Data placed in constant memory exceeded the constant-cache working
    /// set (8 KB on the paper's hardware → at most 2 048 f32 bandwidths).
    ConstantMemoryExceeded {
        /// Bytes requested.
        requested: usize,
        /// Constant-cache capacity in bytes.
        capacity: usize,
    },
    /// A host↔device copy had mismatched lengths.
    CopyLengthMismatch {
        /// Device buffer length (elements).
        device_len: usize,
        /// Host slice length (elements).
        host_len: usize,
    },
    /// Launch configuration invalid (zero threads, block size above the
    /// device maximum, workspace count mismatch, …).
    InvalidLaunch(String),
    /// Two threads wrote the same shared-memory cell within one barrier
    /// phase — a data race the simulator detects and reports.
    SharedMemoryRace {
        /// The contended shared-memory index.
        index: usize,
        /// The two racing thread ids.
        threads: (usize, usize),
    },
    /// A shared-memory access was out of bounds.
    SharedMemoryOutOfBounds {
        /// The offending index.
        index: usize,
        /// Shared-memory length.
        len: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::OutOfMemory { requested, available, capacity } => write!(
                f,
                "device out of memory: requested {requested} B, {available} B of {capacity} B available"
            ),
            SimError::ConstantMemoryExceeded { requested, capacity } => write!(
                f,
                "constant-cache working set exceeded: {requested} B requested, {capacity} B cache"
            ),
            SimError::CopyLengthMismatch { device_len, host_len } => write!(
                f,
                "copy length mismatch: device buffer has {device_len} elements, host slice {host_len}"
            ),
            SimError::InvalidLaunch(msg) => write!(f, "invalid launch: {msg}"),
            SimError::SharedMemoryRace { index, threads } => write!(
                f,
                "shared-memory data race at index {index} between threads {} and {}",
                threads.0, threads.1
            ),
            SimError::SharedMemoryOutOfBounds { index, len } => {
                write!(f, "shared-memory access at {index} out of bounds (len {len})")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let errs: Vec<SimError> = vec![
            SimError::OutOfMemory {
                requested: 10,
                available: 5,
                capacity: 100,
            },
            SimError::ConstantMemoryExceeded {
                requested: 9000,
                capacity: 8192,
            },
            SimError::CopyLengthMismatch {
                device_len: 3,
                host_len: 4,
            },
            SimError::InvalidLaunch("zero threads".into()),
            SimError::SharedMemoryRace {
                index: 7,
                threads: (1, 2),
            },
            SimError::SharedMemoryOutOfBounds { index: 99, len: 10 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}

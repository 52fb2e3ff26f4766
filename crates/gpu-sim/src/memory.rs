//! Device memory: a capacity-enforcing global-memory pool, typed device
//! buffers, constant memory with the 8 KB cache-working-set limit, and
//! host↔device transfer accounting.
//!
//! The pool is what reproduces the paper's scaling wall: its program
//! allocates two `n×n` f32 matrices plus two `n×k` matrices, and "beyond
//! [n = 20 000], the GPU could not allocate the memory required for the
//! intermediate matrices" on a 4 GB part.

use crate::device::DeviceSpec;
use crate::error::{Result, SimError};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Host↔device copies move in 128-byte bus segments; a copy of `bytes`
/// therefore costs `ceil(bytes / 128)` segments
/// ([`kcv_obs::Counter::TransferSegments`]).
fn transfer_segments(bytes: usize) -> u64 {
    bytes.div_ceil(128).max(1) as u64
}

#[derive(Debug)]
struct PoolInner {
    capacity: usize,
    used: AtomicUsize,
    peak: AtomicUsize,
    h2d_bytes: AtomicU64,
    d2h_bytes: AtomicU64,
}

/// A shared global-memory pool with a hard byte capacity.
#[derive(Debug, Clone)]
pub struct MemoryPool {
    inner: Arc<PoolInner>,
}

impl MemoryPool {
    /// Creates a pool with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Arc::new(PoolInner {
                capacity,
                used: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                h2d_bytes: AtomicU64::new(0),
                d2h_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Creates the pool for a device spec.
    pub fn for_device(spec: &DeviceSpec) -> Self {
        Self::new(spec.global_mem_bytes)
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak(&self) -> usize {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Total host→device bytes copied.
    pub fn h2d_bytes(&self) -> u64 {
        self.inner.h2d_bytes.load(Ordering::Relaxed)
    }

    /// Total device→host bytes copied.
    pub fn d2h_bytes(&self) -> u64 {
        self.inner.d2h_bytes.load(Ordering::Relaxed)
    }

    fn reserve(&self, bytes: usize) -> Result<()> {
        let mut current = self.inner.used.load(Ordering::Relaxed);
        loop {
            let new = current.checked_add(bytes).ok_or(SimError::OutOfMemory {
                requested: bytes,
                available: self.inner.capacity.saturating_sub(current),
                capacity: self.inner.capacity,
            })?;
            if new > self.inner.capacity {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available: self.inner.capacity - current,
                    capacity: self.inner.capacity,
                });
            }
            match self.inner.used.compare_exchange_weak(
                current,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.inner.peak.fetch_max(new, Ordering::Relaxed);
                    return Ok(());
                }
                Err(actual) => current = actual,
            }
        }
    }

    fn release(&self, bytes: usize) {
        self.inner.used.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Allocates a zero-initialised device buffer of `len` elements.
    pub fn alloc<T: Copy + Default>(&self, len: usize) -> Result<DeviceBuffer<T>> {
        let bytes = len * std::mem::size_of::<T>();
        self.reserve(bytes)?;
        Ok(DeviceBuffer {
            data: vec![T::default(); len],
            bytes,
            pool: self.clone(),
        })
    }

    /// Dry-run capacity check: would the byte amounts in `plan`, allocated
    /// in order on an otherwise-empty device, all fit? Returns the first
    /// failing request as an error without backing any host memory.
    pub fn check_fit(&self, plan: &[usize]) -> Result<()> {
        let mut used = self.used();
        for &bytes in plan {
            let new = used.saturating_add(bytes);
            if new > self.inner.capacity {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available: self.inner.capacity - used,
                    capacity: self.inner.capacity,
                });
            }
            used = new;
        }
        Ok(())
    }
}

/// A typed buffer living in (simulated) device global memory.
///
/// Dropping the buffer returns its bytes to the pool — `cudaFree`.
#[derive(Debug)]
pub struct DeviceBuffer<T: Copy + Default> {
    data: Vec<T>,
    bytes: usize,
    pool: MemoryPool,
}

impl<T: Copy + Default> DeviceBuffer<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes
    }

    /// `cudaMemcpyHostToDevice`: fills the buffer from a host slice of the
    /// same length, counting the transferred bytes.
    pub fn copy_from_host(&mut self, host: &[T]) -> Result<()> {
        if host.len() != self.data.len() {
            return Err(SimError::CopyLengthMismatch {
                device_len: self.data.len(),
                host_len: host.len(),
            });
        }
        self.data.copy_from_slice(host);
        self.pool
            .inner
            .h2d_bytes
            .fetch_add(self.bytes as u64, Ordering::Relaxed);
        kcv_obs::add(
            kcv_obs::Counter::TransferSegments,
            transfer_segments(self.bytes),
        );
        Ok(())
    }

    /// Strided `cudaMemcpyHostToDevice` (the `cudaMemcpy2D` pattern): copies
    /// one host array to scattered positions of the buffer, `host` yielding
    /// each element's device position and value. It moves the same bytes
    /// as a contiguous copy of the array and is counted as one, so host
    /// arrays can be interleaved into one device layout without a host copy
    /// in that layout.
    ///
    /// # Panics
    /// If a position is out of the buffer's range.
    pub fn scatter_from_host(&mut self, host: impl IntoIterator<Item = (usize, T)>) {
        let mut len = 0;
        for (position, value) in host {
            self.data[position] = value;
            len += 1;
        }
        let bytes = len * std::mem::size_of::<T>();
        self.pool
            .inner
            .h2d_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        kcv_obs::add(kcv_obs::Counter::TransferSegments, transfer_segments(bytes));
    }

    /// `cudaMemcpyDeviceToHost`: copies the buffer into a host slice of the
    /// same length, counting the transferred bytes.
    pub fn copy_to_host(&self, host: &mut [T]) -> Result<()> {
        if host.len() != self.data.len() {
            return Err(SimError::CopyLengthMismatch {
                device_len: self.data.len(),
                host_len: host.len(),
            });
        }
        host.copy_from_slice(&self.data);
        self.pool
            .inner
            .d2h_bytes
            .fetch_add(self.bytes as u64, Ordering::Relaxed);
        kcv_obs::add(
            kcv_obs::Counter::TransferSegments,
            transfer_segments(self.bytes),
        );
        Ok(())
    }

    /// Device-side view (for kernels; accesses should be counted through
    /// [`crate::cost::ThreadCounters`] by instrumented code).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable device-side view.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T: Copy + Default> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        self.pool.release(self.bytes);
    }
}

/// Read-only constant memory, limited to the device's constant-cache
/// working set (8 KB on the paper's hardware ⇒ at most 2 048 f32 values —
/// the paper's bandwidth-grid ceiling).
#[derive(Debug, Clone)]
pub struct ConstantMemory<T: Copy> {
    data: Vec<T>,
}

impl<T: Copy> ConstantMemory<T> {
    /// Places `values` in constant memory, enforcing the cache limit.
    pub fn new(spec: &DeviceSpec, values: &[T]) -> Result<Self> {
        let bytes = std::mem::size_of_val(values);
        if bytes > spec.constant_cache_bytes {
            return Err(SimError::ConstantMemoryExceeded {
                requested: bytes,
                capacity: spec.constant_cache_bytes,
            });
        }
        Ok(Self {
            data: values.to_vec(),
        })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i` (instrumented code should also count a
    /// constant-memory read).
    pub fn get(&self, i: usize) -> T {
        self.data[i]
    }

    /// The whole constant array.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary interleavings of allocations and frees never exceed
        /// capacity, and freeing everything returns usage to zero.
        #[test]
        fn pool_usage_invariants(
            ops in proptest::collection::vec((0usize..2, 1usize..600), 1..60)
        ) {
            let pool = MemoryPool::new(2_000);
            let mut held: Vec<DeviceBuffer<u8>> = Vec::new();
            for (op, size) in ops {
                if op == 0 {
                    if let Ok(buf) = pool.alloc::<u8>(size) {
                        held.push(buf);
                    }
                } else if !held.is_empty() {
                    held.pop();
                }
                prop_assert!(pool.used() <= pool.capacity());
                let held_bytes: usize = held.iter().map(|b| b.size_bytes()).sum();
                prop_assert_eq!(pool.used(), held_bytes);
                prop_assert!(pool.peak() >= pool.used());
            }
            drop(held);
            prop_assert_eq!(pool.used(), 0);
        }

        /// Failed allocations leave usage untouched.
        #[test]
        fn failed_alloc_is_a_noop(first in 1usize..1000, second in 1usize..2000) {
            let pool = MemoryPool::new(1_000);
            let kept = pool.alloc::<u8>(first);
            let used_before = pool.used();
            if used_before + second > 1_000 {
                prop_assert!(pool.alloc::<u8>(second).is_err());
                prop_assert_eq!(pool.used(), used_before);
            }
            drop(kept);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_interleaves_host_arrays_and_counts_each_copy() {
        let pool = MemoryPool::new(1024);
        let mut buf = pool.alloc::<f32>(6).unwrap();
        let (a, b) = ([1.0f32, 2.0, 3.0], [10.0f32, 20.0, 30.0]);
        buf.scatter_from_host(a.iter().enumerate().map(|(i, &v)| (2 * i, v)));
        buf.scatter_from_host(b.iter().enumerate().map(|(i, &v)| (2 * i + 1, v)));
        assert_eq!(buf.as_slice(), &[1.0, 10.0, 2.0, 20.0, 3.0, 30.0]);
        // Two copies of 12 bytes each, as two contiguous copies would be.
        assert_eq!(pool.h2d_bytes(), 24);
    }

    #[test]
    fn allocation_tracks_usage_and_frees_on_drop() {
        let pool = MemoryPool::new(1024);
        {
            let buf = pool.alloc::<f32>(100).unwrap();
            assert_eq!(buf.len(), 100);
            assert_eq!(pool.used(), 400);
            let _buf2 = pool.alloc::<f32>(100).unwrap();
            assert_eq!(pool.used(), 800);
        }
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.peak(), 800);
    }

    #[test]
    fn over_allocation_fails_with_details() {
        let pool = MemoryPool::new(1000);
        let _keep = pool.alloc::<u8>(600).unwrap();
        let err = pool.alloc::<u8>(500).unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfMemory {
                requested: 500,
                available: 400,
                capacity: 1000
            }
        );
        // A fitting allocation still succeeds afterwards.
        assert!(pool.alloc::<u8>(400).is_ok());
    }

    #[test]
    fn paper_memory_wall_two_nxn_matrices_in_4gb() {
        // n = 20 000 fits (2 × n² × 4 B = 3.2 GB); n = 25 000 does not (5 GB).
        let spec = DeviceSpec::tesla_s10();
        let pool = MemoryPool::for_device(&spec);
        let n_ok = 20_000usize;
        let a = pool.alloc::<f32>(n_ok * n_ok).unwrap();
        let b = pool.alloc::<f32>(n_ok * n_ok).unwrap();
        drop((a, b));
        let n_bad = 25_000usize;
        let a = pool.alloc::<f32>(n_bad * n_bad).unwrap();
        assert!(pool.alloc::<f32>(n_bad * n_bad).is_err());
        drop(a);
    }

    #[test]
    fn copies_validate_lengths_and_count_bytes() {
        let pool = MemoryPool::new(1024);
        let mut buf = pool.alloc::<f32>(4).unwrap();
        assert!(buf.copy_from_host(&[1.0, 2.0, 3.0]).is_err());
        buf.copy_from_host(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(pool.h2d_bytes(), 16);
        let mut out = [0.0f32; 4];
        buf.copy_to_host(&mut out).unwrap();
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0]);
        assert_eq!(pool.d2h_bytes(), 16);
    }

    #[test]
    fn constant_memory_enforces_2048_f32_limit() {
        let spec = DeviceSpec::tesla_s10();
        let ok = vec![0.0f32; 2048];
        assert!(ConstantMemory::new(&spec, &ok).is_ok());
        let too_many = vec![0.0f32; 2049];
        let err = ConstantMemory::new(&spec, &too_many).unwrap_err();
        assert_eq!(
            err,
            SimError::ConstantMemoryExceeded {
                requested: 2049 * 4,
                capacity: 8192
            }
        );
    }

    #[test]
    fn constant_memory_reads_back() {
        let spec = DeviceSpec::tesla_s10();
        let c = ConstantMemory::new(&spec, &[1.5f32, 2.5]).unwrap();
        assert_eq!(c.get(1), 2.5);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn check_fit_matches_real_allocation_sequences() {
        let pool = MemoryPool::new(1_000);
        assert!(pool.check_fit(&[400, 400, 200]).is_ok());
        assert!(pool.check_fit(&[400, 400, 201]).is_err());
        // check_fit accounts for what is already allocated.
        let _held = pool.alloc::<u8>(500).unwrap();
        assert!(pool.check_fit(&[500]).is_ok());
        assert!(pool.check_fit(&[501]).is_err());
    }

    #[test]
    fn concurrent_allocation_never_exceeds_capacity() {
        use rayon::prelude::*;
        let pool = MemoryPool::new(10_000);
        let results: Vec<bool> = (0..64)
            .into_par_iter()
            .map(|_| pool.alloc::<u8>(400).map(std::mem::forget).is_ok())
            .collect();
        let succeeded = results.iter().filter(|&&ok| ok).count();
        // 25 allocations of 400 B fit in 10 000 B.
        assert_eq!(succeeded, 25);
        assert!(pool.used() <= pool.capacity());
    }
}

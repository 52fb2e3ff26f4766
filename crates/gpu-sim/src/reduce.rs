//! Harris-style tree reductions, as the paper's §IV-B describes: a single
//! block of `T` threads, shared memory, each thread first folding the
//! elements congruent to its id modulo `T`, then a log₂(T) halving tree
//! with a barrier between levels.
//!
//! Two variants are provided — the two the paper needs:
//! * [`sum_reduction`] — total of the squared residuals for one bandwidth;
//! * [`min_payload_reduction`] — minimum cross-validation score *and* the
//!   bandwidth it belongs to (the payload travels in the upper half of the
//!   shared array, exactly as §IV-B lays it out).

use crate::cooperative::CooperativeBlock;
use crate::cost::{CostModel, LaunchReport};
use crate::device::DeviceSpec;
use crate::error::{Result, SimError};

fn validate_threads(spec: &DeviceSpec, threads: usize) -> Result<()> {
    if threads == 0 || !threads.is_power_of_two() {
        return Err(SimError::InvalidLaunch(format!(
            "reduction needs a power-of-two thread count, got {threads}"
        )));
    }
    if threads > spec.max_threads_per_block {
        return Err(SimError::InvalidLaunch(format!(
            "block size {threads} exceeds device maximum {}",
            spec.max_threads_per_block
        )));
    }
    Ok(())
}

/// Sums `values` with a `threads`-wide tree reduction. Returns the sum and
/// the launch cost report.
///
/// The grid-stride fold reads `values[tid]`, `values[tid + T]`, … — the
/// warp's lanes hit consecutive addresses, so the reads are charged as
/// coalesced. Use [`sum_reduction_strided`] when the source layout makes
/// them scattered (the paper's §IV-B index switch exists to avoid that).
pub fn sum_reduction(
    spec: &DeviceSpec,
    cost: &CostModel,
    threads: usize,
    values: &[f32],
) -> Result<(f32, LaunchReport)> {
    sum_reduction_impl(spec, cost, threads, values, true)
}

/// [`sum_reduction`] over a layout whose reads are *not* coalesced (each
/// lane's access is charged at the full uncoalesced cost). Numerically
/// identical; only the cost accounting differs.
pub fn sum_reduction_strided(
    spec: &DeviceSpec,
    cost: &CostModel,
    threads: usize,
    values: &[f32],
) -> Result<(f32, LaunchReport)> {
    sum_reduction_impl(spec, cost, threads, values, false)
}

fn sum_reduction_impl(
    spec: &DeviceSpec,
    cost: &CostModel,
    threads: usize,
    values: &[f32],
    coalesced: bool,
) -> Result<(f32, LaunchReport)> {
    validate_threads(spec, threads)?;
    let _reduce = kcv_obs::phase("gpu.reduce");
    let mut block = CooperativeBlock::new(spec, cost, threads, threads)?;

    // Phase 1: thread t folds values[t], values[t+T], values[t+2T], …
    block.step(|tid, _shared, c, w| {
        let mut acc = 0.0f32;
        let mut j = tid;
        while j < values.len() {
            acc += values[j];
            if coalesced {
                c.global_coalesced(1);
            } else {
                c.global_read(1);
            }
            c.flop(1);
            j += threads;
        }
        w.write(tid, acc);
        c.shared_access(1);
    })?;

    // Tree phases: stride halves each barrier.
    let mut stride = threads / 2;
    while stride >= 1 {
        block.step(move |tid, shared, c, w| {
            if tid < stride {
                let sum = shared[tid] + shared[tid + stride];
                c.shared_access(3);
                c.flop(1);
                w.write(tid, sum);
            }
            c.branch(1);
        })?;
        stride /= 2;
    }

    let (shared, report) = block.finish();
    Ok((shared[0], report))
}

/// Finds the minimum of `scores` and returns it together with the matching
/// element of `payloads` (same length). Exact score ties resolve to the
/// *smaller payload* — for a bandwidth grid, the smaller bandwidth — which
/// keeps the result deterministic regardless of tree shape.
pub fn min_payload_reduction(
    spec: &DeviceSpec,
    cost: &CostModel,
    threads: usize,
    scores: &[f32],
    payloads: &[f32],
) -> Result<((f32, f32), LaunchReport)> {
    validate_threads(spec, threads)?;
    if scores.is_empty() || scores.len() != payloads.len() {
        return Err(SimError::InvalidLaunch(format!(
            "min reduction over {} scores with {} payloads",
            scores.len(),
            payloads.len()
        )));
    }
    // 2T shared cells: scores in [0, T), payloads in [T, 2T).
    let _reduce = kcv_obs::phase("gpu.reduce");
    let mut block = CooperativeBlock::new(spec, cost, threads, 2 * threads)?;

    block.step(|tid, _shared, c, w| {
        let mut best = f32::INFINITY;
        let mut best_payload = f32::NAN;
        let mut j = tid;
        while j < scores.len() {
            c.global_read(2);
            c.branch(1);
            if scores[j] < best || (scores[j] == best && payloads[j] < best_payload) {
                best = scores[j];
                best_payload = payloads[j];
            }
            j += threads;
        }
        w.write(tid, best);
        w.write(tid + threads, best_payload);
        c.shared_access(2);
    })?;

    let mut stride = threads / 2;
    while stride >= 1 {
        block.step(move |tid, shared, c, w| {
            if tid < stride {
                c.shared_access(2);
                c.branch(1);
                let (s_other, s_mine) = (shared[tid + stride], shared[tid]);
                let take_other = s_other < s_mine
                    || (s_other == s_mine
                        && shared[tid + threads + stride] < shared[tid + threads]);
                if take_other {
                    w.write(tid, s_other);
                    w.write(tid + threads, shared[tid + threads + stride]);
                    c.shared_access(4);
                }
            }
            c.branch(1);
        })?;
        stride /= 2;
    }

    let (shared, report) = block.finish();
    Ok(((shared[0], shared[threads]), report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tesla() -> (DeviceSpec, CostModel) {
        (DeviceSpec::tesla_s10(), CostModel::default())
    }

    #[test]
    fn sum_matches_direct_fold() {
        let (spec, cost) = tesla();
        for n in [1usize, 7, 64, 1000, 4097] {
            let values: Vec<f32> = (0..n).map(|i| (i % 13) as f32 * 0.25).collect();
            let (sum, _) = sum_reduction(&spec, &cost, 128, &values).unwrap();
            let direct: f32 = values.iter().sum();
            assert!(
                (sum - direct).abs() <= 1e-3 * direct.abs().max(1.0),
                "n={n}: {sum} vs {direct}"
            );
        }
    }

    #[test]
    fn sum_of_empty_is_zero() {
        let (spec, cost) = tesla();
        let (sum, _) = sum_reduction(&spec, &cost, 64, &[]).unwrap();
        assert_eq!(sum, 0.0);
    }

    #[test]
    fn sum_with_single_thread_block() {
        let (spec, cost) = tesla();
        let (sum, _) = sum_reduction(&spec, &cost, 1, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(sum, 6.0);
    }

    #[test]
    fn min_payload_finds_global_minimum() {
        let (spec, cost) = tesla();
        let scores: Vec<f32> = (0..500)
            .map(|i| ((i as f32) - 271.0).powi(2) + 3.0)
            .collect();
        let payloads: Vec<f32> = (0..500).map(|i| i as f32 * 0.01).collect();
        let ((min, payload), _) =
            min_payload_reduction(&spec, &cost, 256, &scores, &payloads).unwrap();
        assert_eq!(min, 3.0);
        assert!((payload - 2.71).abs() < 1e-6);
    }

    #[test]
    fn min_payload_ties_resolve_to_smaller_payload() {
        let (spec, cost) = tesla();
        let scores = [5.0f32, 1.0, 1.0, 7.0];
        let payloads = [10.0f32, 20.0, 30.0, 40.0];
        let ((min, payload), _) =
            min_payload_reduction(&spec, &cost, 4, &scores, &payloads).unwrap();
        assert_eq!(min, 1.0);
        assert_eq!(payload, 20.0);
        // Same data, payload order reversed between the tied entries.
        let payloads2 = [10.0f32, 30.0, 20.0, 40.0];
        let ((_, payload2), _) =
            min_payload_reduction(&spec, &cost, 4, &scores, &payloads2).unwrap();
        assert_eq!(payload2, 20.0);
    }

    #[test]
    fn min_payload_handles_fewer_elements_than_threads() {
        let (spec, cost) = tesla();
        let ((min, payload), _) =
            min_payload_reduction(&spec, &cost, 512, &[2.0, 1.0], &[0.5, 0.7]).unwrap();
        assert_eq!(min, 1.0);
        assert_eq!(payload, 0.7);
    }

    #[test]
    fn rejects_non_power_of_two_threads() {
        let (spec, cost) = tesla();
        assert!(sum_reduction(&spec, &cost, 100, &[1.0]).is_err());
        assert!(sum_reduction(&spec, &cost, 0, &[1.0]).is_err());
        assert!(min_payload_reduction(&spec, &cost, 100, &[1.0], &[1.0]).is_err());
    }

    #[test]
    fn rejects_mismatched_payloads() {
        let (spec, cost) = tesla();
        assert!(min_payload_reduction(&spec, &cost, 4, &[1.0, 2.0], &[1.0]).is_err());
        assert!(min_payload_reduction(&spec, &cost, 4, &[], &[]).is_err());
    }

    #[test]
    fn reduction_cost_scales_logarithmically_in_threads() {
        // The tree section adds log2(T) barriers; check syncs count.
        let (spec, cost) = tesla();
        let values = vec![1.0f32; 1024];
        let (_, r64) = sum_reduction(&spec, &cost, 64, &values).unwrap();
        // 1 fold phase + log2(64) = 6 tree phases → 7 barriers per thread.
        assert_eq!(r64.totals.syncs, 64 * 7);
        let (_, r256) = sum_reduction(&spec, &cost, 256, &values).unwrap();
        assert_eq!(r256.totals.syncs, 256 * 9);
    }
}

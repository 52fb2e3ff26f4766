//! Iterative (explicit-stack) quicksort co-sorting an auxiliary array.
//!
//! The paper sorts, per observation, the vector of absolute distances
//! `|X_i − X_l|` together with the matching responses `Y_l`, using an
//! iterative variant of QuickSort (adapted from Finley's non-recursive C
//! implementation) because early CUDA devices disallowed recursion and the
//! recursive call tree would bloat each thread's stack. This module is the
//! host-side reference implementation of that routine; the device-side port
//! (with operation counting) lives in `kcv-gpu-sim::device_sort`.

/// Below this length a partition is finished with insertion sort, which is
/// faster than further partitioning for tiny runs.
const INSERTION_CUTOFF: usize = 12;

/// Maximum explicit-stack depth. Because we always push the larger partition
/// and iterate on the smaller one, depth is bounded by `log2(len)`; 64 covers
/// any address space.
const MAX_STACK: usize = 64;

/// Sorts `keys` ascending, applying every swap to `aux` as well.
///
/// `keys` must contain no NaN (the comparison used is `<`, which would leave
/// NaN-containing input in unspecified — though memory-safe — order).
///
/// # Panics
///
/// Panics if `keys` and `aux` have different lengths.
pub fn sort_with_aux(keys: &mut [f64], aux: &mut [f64]) {
    assert_eq!(keys.len(), aux.len(), "key and auxiliary arrays must match");
    if keys.len() < 2 {
        return;
    }
    // Key-comparison tally for the observability layer; with `metrics` off
    // the final `add` is a no-op and the increments fold away.
    let mut cmps = 0u64;
    // Explicit stack of (lo, hi) inclusive ranges, mirroring the device code.
    let mut stack = [(0usize, 0usize); MAX_STACK];
    let mut top = 0usize;
    stack[top] = (0, keys.len() - 1);
    top += 1;

    while top > 0 {
        top -= 1;
        let (mut lo, mut hi) = stack[top];
        // Iterate on the smaller side, push the larger: bounded stack.
        loop {
            if hi - lo < INSERTION_CUTOFF {
                insertion_sort_range(keys, aux, lo, hi, &mut cmps);
                break;
            }
            let p = partition(keys, aux, lo, hi, &mut cmps);
            let left_len = p - lo; // elements strictly left of p
            let right_len = hi - p; // elements strictly right of p
            if left_len < right_len {
                if p + 1 < hi {
                    stack[top] = (p + 1, hi);
                    top += 1;
                }
                if p <= lo {
                    break;
                }
                hi = p - 1;
            } else {
                if p > lo {
                    stack[top] = (lo, p - 1);
                    top += 1;
                }
                if p >= hi {
                    break;
                }
                lo = p + 1;
            }
        }
    }
    kcv_obs::add(kcv_obs::Counter::SortComparisons, cmps);
}

/// Hoare-style partition with median-of-three pivot selection.
///
/// Returns the final index of the pivot; everything left of it is `<=` pivot
/// and everything right is `>=` pivot.
fn partition(keys: &mut [f64], aux: &mut [f64], lo: usize, hi: usize, cmps: &mut u64) -> usize {
    let mid = lo + (hi - lo) / 2;
    // Order (lo, mid, hi) so keys[mid] is the median of the three.
    *cmps += 3;
    if keys[mid] < keys[lo] {
        swap_both(keys, aux, mid, lo);
    }
    if keys[hi] < keys[lo] {
        swap_both(keys, aux, hi, lo);
    }
    if keys[hi] < keys[mid] {
        swap_both(keys, aux, hi, mid);
    }
    // Stash the pivot just before hi (hi is already >= pivot).
    swap_both(keys, aux, mid, hi - 1);
    let pivot = keys[hi - 1];

    let mut i = lo;
    let mut j = hi - 1;
    loop {
        loop {
            i += 1;
            *cmps += 1;
            if keys[i] >= pivot {
                break;
            }
        }
        loop {
            j -= 1;
            *cmps += 1;
            if keys[j] <= pivot {
                break;
            }
        }
        if i >= j {
            break;
        }
        swap_both(keys, aux, i, j);
    }
    // Restore pivot into its final slot.
    swap_both(keys, aux, i, hi - 1);
    i
}

/// Insertion sort over the inclusive range `[lo, hi]`.
fn insertion_sort_range(keys: &mut [f64], aux: &mut [f64], lo: usize, hi: usize, cmps: &mut u64) {
    for i in (lo + 1)..=hi {
        let k = keys[i];
        let a = aux[i];
        let mut j = i;
        while j > lo {
            *cmps += 1;
            if keys[j - 1] <= k {
                break;
            }
            keys[j] = keys[j - 1];
            aux[j] = aux[j - 1];
            j -= 1;
        }
        keys[j] = k;
        aux[j] = a;
    }
}

#[inline]
fn swap_both(keys: &mut [f64], aux: &mut [f64], i: usize, j: usize) {
    keys.swap(i, j);
    aux.swap(i, j);
}

/// Returns the permutation that sorts `keys` ascending (stable for ties).
pub fn argsort(keys: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    let mut cmps = 0u64;
    idx.sort_by(|&a, &b| {
        cmps += 1;
        keys[a].total_cmp(&keys[b])
    });
    kcv_obs::add(kcv_obs::Counter::SortComparisons, cmps);
    idx
}

/// Applies a permutation (as produced by [`argsort`]) to a slice, returning
/// the reordered copy.
pub fn apply_permutation<T: Copy>(values: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&i| values[i]).collect()
}

/// True when the slice is sorted in non-decreasing order.
pub fn is_sorted(keys: &[f64]) -> bool {
    keys.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::SplitMix64;
    use proptest::prelude::*;

    fn check_sorted_and_paired(original_k: &[f64], original_a: &[f64]) {
        let mut k = original_k.to_vec();
        let mut a = original_a.to_vec();
        sort_with_aux(&mut k, &mut a);
        assert!(is_sorted(&k), "keys not sorted: {k:?}");
        // Pairing preserved: the multiset of (k, a) pairs must be unchanged.
        let mut before: Vec<(u64, u64)> = original_k
            .iter()
            .zip(original_a)
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        let mut after: Vec<(u64, u64)> = k
            .iter()
            .zip(&a)
            .map(|(x, y)| (x.to_bits(), y.to_bits()))
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "pairs were not preserved");
    }

    #[test]
    fn sorts_empty_and_singleton() {
        check_sorted_and_paired(&[], &[]);
        check_sorted_and_paired(&[3.5], &[1.0]);
    }

    #[test]
    fn sorts_small_arrays() {
        check_sorted_and_paired(&[3.0, 1.0, 2.0], &[30.0, 10.0, 20.0]);
        check_sorted_and_paired(&[2.0, 1.0], &[20.0, 10.0]);
        check_sorted_and_paired(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn sorts_already_sorted_and_reversed() {
        let ascending: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let aux: Vec<f64> = (0..100).map(|i| (i * 7) as f64).collect();
        check_sorted_and_paired(&ascending, &aux);
        let descending: Vec<f64> = (0..100).rev().map(|i| i as f64).collect();
        check_sorted_and_paired(&descending, &aux);
    }

    #[test]
    fn sorts_all_equal_keys() {
        let keys = vec![5.0; 257];
        let aux: Vec<f64> = (0..257).map(|i| i as f64).collect();
        check_sorted_and_paired(&keys, &aux);
    }

    #[test]
    fn sorts_organ_pipe_input() {
        // Worst-ish case for naive pivots: up then down.
        let mut keys: Vec<f64> = (0..500).map(|i| i as f64).collect();
        keys.extend((0..500).rev().map(|i| i as f64));
        let aux: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        check_sorted_and_paired(&keys, &aux);
    }

    #[test]
    fn sorts_large_random_arrays() {
        let mut rng = SplitMix64::new(0xDEAD_BEEF);
        for n in [100, 1_000, 10_000] {
            let keys: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let aux: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            check_sorted_and_paired(&keys, &aux);
        }
    }

    #[test]
    fn sorts_few_distinct_values() {
        let mut rng = SplitMix64::new(17);
        let keys: Vec<f64> = (0..5_000).map(|_| (rng.next_index(4)) as f64).collect();
        let aux: Vec<f64> = (0..5_000).map(|_| rng.next_f64()).collect();
        check_sorted_and_paired(&keys, &aux);
    }

    #[test]
    fn aux_follows_keys() {
        let mut k = vec![3.0, 1.0, 2.0];
        let mut a = vec![30.0, 10.0, 20.0];
        sort_with_aux(&mut k, &mut a);
        assert_eq!(k, vec![1.0, 2.0, 3.0]);
        assert_eq!(a, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    #[should_panic(expected = "auxiliary arrays must match")]
    fn mismatched_lengths_panic() {
        let mut k = vec![1.0, 2.0];
        let mut a = vec![1.0];
        sort_with_aux(&mut k, &mut a);
    }

    #[test]
    fn argsort_matches_manual_sort() {
        let keys = [0.3, -1.0, 2.5, 0.0];
        let perm = argsort(&keys);
        assert_eq!(perm, vec![1, 3, 0, 2]);
        let sorted = apply_permutation(&keys, &perm);
        assert!(is_sorted(&sorted));
    }

    #[test]
    fn argsort_is_stable_for_ties() {
        let keys = [1.0, 0.5, 1.0, 0.5];
        assert_eq!(argsort(&keys), vec![1, 3, 0, 2]);
    }

    proptest! {
        #[test]
        fn prop_sort_with_aux_sorts_and_preserves_pairs(
            pairs in proptest::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 0..400)
        ) {
            let keys: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let aux: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            check_sorted_and_paired(&keys, &aux);
        }

        #[test]
        fn prop_sort_agrees_with_std_sort(
            keys in proptest::collection::vec(-1e9f64..1e9, 0..300)
        ) {
            let mut ours = keys.clone();
            let mut aux = vec![0.0; keys.len()];
            sort_with_aux(&mut ours, &mut aux);
            let mut std_sorted = keys;
            std_sorted.sort_by(|a, b| a.total_cmp(b));
            prop_assert_eq!(ours, std_sorted);
        }

        #[test]
        fn prop_argsort_permutation_is_valid(
            keys in proptest::collection::vec(-1e9f64..1e9, 0..200)
        ) {
            let perm = argsort(&keys);
            let mut seen = vec![false; keys.len()];
            for &p in &perm {
                prop_assert!(!seen[p], "index repeated");
                seen[p] = true;
            }
            prop_assert!(is_sorted(&apply_permutation(&keys, &perm)));
        }
    }
}

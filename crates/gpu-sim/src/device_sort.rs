//! The device-side iterative quicksort.
//!
//! Each GPU thread in the paper's main kernel sorts its own row of the
//! `n×n` distance matrix (with the `Y` row co-sorted) using a non-recursive
//! QuickSort adapted from Finley's C implementation — recursion was
//! unavailable on early CUDA and an explicit small stack avoids per-thread
//! stack growth. This is that routine, in `f32` (the paper uses single
//! precision throughout) and instrumented for the cost model: the rows live
//! in global memory, so comparisons and swaps are charged as global traffic.

use crate::cost::ThreadCounters;

/// Insertion-sort cutoff for small partitions.
const INSERTION_CUTOFF: usize = 12;

/// Maximum explicit-stack depth (smaller-side-first bounds depth by log₂ n).
const MAX_STACK: usize = 64;

/// Sorts `keys` ascending with `aux` co-sorted, charging operations to
/// `counters` (2 global reads + 1 branch per comparison; 4 global accesses
/// per element swap).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn device_sort_with_aux(keys: &mut [f32], aux: &mut [f32], counters: &mut ThreadCounters) {
    assert_eq!(keys.len(), aux.len(), "key and auxiliary arrays must match");
    if keys.len() < 2 {
        return;
    }
    // Every comparison in this routine charges exactly one branch (via
    // `cmp`), so the branch delta across the call is the comparison count —
    // reported to the observability layer alongside the host sort's tally.
    let branches_before = counters.branches;
    let mut stack = [(0usize, 0usize); MAX_STACK];
    let mut top = 0usize;
    stack[top] = (0, keys.len() - 1);
    top += 1;

    while top > 0 {
        top -= 1;
        let (mut lo, mut hi) = stack[top];
        loop {
            if hi - lo < INSERTION_CUTOFF {
                insertion_sort_range(keys, aux, lo, hi, counters);
                break;
            }
            let p = partition(keys, aux, lo, hi, counters);
            let left_len = p - lo;
            let right_len = hi - p;
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
    kcv_obs::add(
        kcv_obs::Counter::SortComparisons,
        counters.branches - branches_before,
    );
}

#[inline]
fn cmp(counters: &mut ThreadCounters) {
    counters.global_read(2);
    counters.branch(1);
}

#[inline]
fn swap_both(keys: &mut [f32], aux: &mut [f32], i: usize, j: usize, counters: &mut ThreadCounters) {
    keys.swap(i, j);
    aux.swap(i, j);
    counters.global_read(4);
    counters.global_write(4);
}

fn partition(
    keys: &mut [f32],
    aux: &mut [f32],
    lo: usize,
    hi: usize,
    counters: &mut ThreadCounters,
) -> usize {
    let mid = lo + (hi - lo) / 2;
    cmp(counters);
    if keys[mid] < keys[lo] {
        swap_both(keys, aux, mid, lo, counters);
    }
    cmp(counters);
    if keys[hi] < keys[lo] {
        swap_both(keys, aux, hi, lo, counters);
    }
    cmp(counters);
    if keys[hi] < keys[mid] {
        swap_both(keys, aux, hi, mid, counters);
    }
    swap_both(keys, aux, mid, hi - 1, counters);
    let pivot = keys[hi - 1];
    counters.global_read(1);

    let mut i = lo;
    let mut j = hi - 1;
    loop {
        loop {
            i += 1;
            cmp(counters);
            if keys[i] >= pivot {
                break;
            }
        }
        loop {
            j -= 1;
            cmp(counters);
            if keys[j] <= pivot {
                break;
            }
        }
        counters.branch(1);
        if i >= j {
            break;
        }
        swap_both(keys, aux, i, j, counters);
    }
    swap_both(keys, aux, i, hi - 1, counters);
    i
}

fn insertion_sort_range(
    keys: &mut [f32],
    aux: &mut [f32],
    lo: usize,
    hi: usize,
    counters: &mut ThreadCounters,
) {
    for i in (lo + 1)..=hi {
        let k = keys[i];
        let a = aux[i];
        counters.global_read(2);
        let mut j = i;
        while j > lo {
            cmp(counters);
            if keys[j - 1] <= k {
                break;
            }
            keys[j] = keys[j - 1];
            aux[j] = aux[j - 1];
            counters.global_read(2);
            counters.global_write(2);
            j -= 1;
        }
        keys[j] = k;
        aux[j] = a;
        counters.global_write(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn check(keys_in: &[f32], aux_in: &[f32]) -> ThreadCounters {
        let mut keys = keys_in.to_vec();
        let mut aux = aux_in.to_vec();
        let mut c = ThreadCounters::default();
        device_sort_with_aux(&mut keys, &mut aux, &mut c);
        assert!(
            keys.windows(2).all(|w| w[0] <= w[1]),
            "not sorted: {keys:?}"
        );
        let mut before: Vec<(u32, u32)> = keys_in
            .iter()
            .zip(aux_in)
            .map(|(k, a)| (k.to_bits(), a.to_bits()))
            .collect();
        let mut after: Vec<(u32, u32)> = keys
            .iter()
            .zip(&aux)
            .map(|(k, a)| (k.to_bits(), a.to_bits()))
            .collect();
        before.sort_unstable();
        after.sort_unstable();
        assert_eq!(before, after, "pairs not preserved");
        c
    }

    #[test]
    fn sorts_and_counts() {
        let keys: Vec<f32> = (0..200).map(|i| ((i * 7919) % 541) as f32).collect();
        let aux: Vec<f32> = (0..200).map(|i| i as f32).collect();
        let c = check(&keys, &aux);
        assert!(c.global_reads > 0 && c.branches > 0);
    }

    #[test]
    fn sorts_edge_shapes() {
        check(&[], &[]);
        check(&[1.0], &[2.0]);
        check(&[2.0, 1.0], &[1.0, 2.0]);
        check(
            &vec![3.0; 100],
            &(0..100).map(|i| i as f32).collect::<Vec<_>>(),
        );
        let descending: Vec<f32> = (0..300).rev().map(|i| i as f32).collect();
        check(&descending, &vec![0.0; 300]);
    }

    #[test]
    fn cost_grows_superlinearly_slower_than_quadratic() {
        // Average-case n log n: doubling n should much less than 4× the cost
        // on random data.
        let mk = |n: usize| -> Vec<f32> {
            (0..n)
                .map(|i| (((i as u64).wrapping_mul(2654435761)) % 100_000) as f32)
                .collect()
        };
        let c1 = check(&mk(2_000), &vec![0.0; 2_000]);
        let c2 = check(&mk(4_000), &vec![0.0; 4_000]);
        let ratio = c2.branches as f64 / c1.branches as f64;
        assert!(
            ratio < 3.0,
            "comparison ratio {ratio} suggests quadratic behaviour"
        );
    }

    proptest! {
        #[test]
        fn prop_device_sort_matches_std(
            pairs in proptest::collection::vec((-1e6f32..1e6, -1e6f32..1e6), 0..300)
        ) {
            let keys: Vec<f32> = pairs.iter().map(|p| p.0).collect();
            let aux: Vec<f32> = pairs.iter().map(|p| p.1).collect();
            check(&keys, &aux);
            let mut ours = keys.clone();
            let mut aux2 = aux;
            let mut c = ThreadCounters::default();
            device_sort_with_aux(&mut ours, &mut aux2, &mut c);
            let mut std_sorted = keys;
            std_sorted.sort_by(|a, b| a.total_cmp(b));
            prop_assert_eq!(ours, std_sorted);
        }
    }
}

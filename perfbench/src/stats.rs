//! Order statistics over raw samples: medians and the fixed tail
//! percentile each workload reports.

/// The value at quantile `q` of `samples` (nearest rank on the sorted
/// sample); `0.0` for an empty sample. Sorts in place.
pub fn quantile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median of `samples` (see [`quantile`]).
pub fn median(samples: &mut [f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples a run needs so that at least ten of them lie beyond quantile
/// `q` — the tail rule every reported tail percentile obeys.
pub fn samples_for_tail(q: f64) -> usize {
    // The small offset keeps representation error in `1 − q` from adding
    // a spurious extra sample (10 / 0.01 must read 1000, not 1001).
    (10.0 / (1.0 - q) - 1e-6).ceil() as usize
}

/// Nanosecond samples as milliseconds.
pub fn nanos_to_ms(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&v| v as f64 * 1e-6).collect()
}

/// A latency summary: median and the fixed tail percentile, with the
/// sample count behind them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median.
    pub p50: f64,
    /// The value at [`Summary::tail_q`].
    pub tail: f64,
    /// The tail quantile reported (for example `0.999`).
    pub tail_q: f64,
    /// Samples summarised.
    pub samples: usize,
}

impl Summary {
    /// Summarises `samples` at median and tail quantile `tail_q`.
    pub fn of(samples: &mut [f64], tail_q: f64) -> Self {
        Summary {
            p50: median(samples),
            tail: quantile(samples, tail_q),
            tail_q,
            samples: samples.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&mut v), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(samples_for_tail(0.99), 1000);
        assert_eq!(samples_for_tail(0.7), 34);
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = Summary::of(&mut v, 0.99);
        assert_eq!(s.samples, samples_for_tail(0.99));
        assert_eq!(v.iter().filter(|&&x| x > s.tail).count(), 10);
    }
}

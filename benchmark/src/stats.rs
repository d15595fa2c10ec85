//! The estimator: nearest-rank percentiles over fixed-size blocks and the
//! quiet decile — one rule for every timing metric.
//!
//! Interference on a shared host is one-sided (a neighbour can only slow a
//! block down) and time-correlated, so the block at the 90th percentile *on
//! the good side* estimates the program, where the mean or the median
//! estimates the program plus the neighbours.

/// Which direction of a metric is the good one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `p` percent of the samples at or below it
/// (rank `ceil(p/100 · len)`, 1-based). `p = 0` yields the minimum.
///
/// # Panics
/// Panics on an empty slice or `p` outside `0..=100`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// 0-based index of the nearest-rank `p`-th percentile among `len` sorted
/// samples.
fn nearest_rank_index(len: usize, p: f64) -> usize {
    assert!(len > 0, "percentile of an empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = ((p / 100.0) * len as f64).ceil() as usize;
    rank.clamp(1, len) - 1
}

/// [`percentile_sorted`] over an unsorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Nearest-rank percentile of an integer sample (latencies in ns, ticks).
pub fn percentile_u64(values: &mut [u64], p: f64) -> u64 {
    values.sort_unstable();
    values[nearest_rank_index(values.len(), p)]
}

/// The quiet decile of per-block values: the nearest-rank 90th-percentile
/// block counted from the bad side — the 3rd-best of 24. Highest-ish for
/// throughput, lowest-ish for latency.
pub fn quiet_decile(blocks: &[f64], better: Better) -> f64 {
    match better {
        Better::Higher => percentile(blocks, 90.0),
        Better::Lower => percentile(blocks, 10.0),
    }
}

/// `(p90 − p10) / p50` of per-block values: how noisy the host was while
/// the blocks ran. Reported beside every quiet-decile figure.
pub fn block_spread(blocks: &[f64]) -> f64 {
    let mid = percentile(blocks, 50.0);
    if mid == 0.0 {
        return 0.0;
    }
    (percentile(blocks, 90.0) - percentile(blocks, 10.0)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 10.0), 1.0);
        assert_eq!(percentile_sorted(&v, 11.0), 2.0);
        assert_eq!(percentile_sorted(&v, 50.0), 5.0);
        assert_eq!(percentile_sorted(&v, 90.0), 9.0);
        assert_eq!(percentile_sorted(&v, 99.0), 10.0);
        assert_eq!(percentile_sorted(&v, 100.0), 10.0);
        assert_eq!(percentile_sorted(&[7.0], 99.0), 7.0);
        // The classic textbook sample.
        let w = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile_sorted(&w, 30.0), 20.0);
        assert_eq!(percentile_sorted(&w, 40.0), 20.0);
        assert_eq!(percentile_sorted(&w, 50.0), 35.0);
        // Unsorted input, integer flavour.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        let mut ns = [900u64, 100, 500, 300, 700];
        assert_eq!(percentile_u64(&mut ns, 99.0), 900);
        assert_eq!(percentile_u64(&mut ns, 50.0), 500);
    }

    #[test]
    fn p99_needs_1100_samples_to_leave_eleven_beyond() {
        let mut v: Vec<u64> = (1..=1100).collect();
        let p99 = percentile_u64(&mut v, 99.0);
        assert_eq!(p99, 1089);
        assert_eq!(v.iter().filter(|x| **x > p99).count(), 11);
    }

    #[test]
    fn quiet_decile_is_third_best_of_24() {
        let blocks: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(quiet_decile(&blocks, Better::Higher), 22.0);
        assert_eq!(quiet_decile(&blocks, Better::Lower), 3.0);
        // One-sided interference on a fifth of the blocks moves the
        // quiet decile not at all, the mean by 10 %.
        let mut noisy = vec![100.0; 24];
        for slow in noisy.iter_mut().take(5) {
            *slow = 50.0;
        }
        assert_eq!(quiet_decile(&noisy, Better::Higher), 100.0);
        // R = 1, B = 2 (the quick smoke) still yields a value.
        assert_eq!(quiet_decile(&[4.0, 6.0], Better::Higher), 6.0);
        assert_eq!(quiet_decile(&[4.0, 6.0], Better::Lower), 4.0);
    }

    #[test]
    fn block_spread_is_relative_to_the_median() {
        let blocks: Vec<f64> = (1..=10).map(|x| f64::from(x) * 10.0).collect();
        // p90 = 90, p10 = 10, p50 = 50.
        assert!((block_spread(&blocks) - 1.6).abs() < 1e-12);
        assert_eq!(block_spread(&[5.0; 8]), 0.0);
    }
}

//! Order statistics for the benchmark's reports.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`]
//! samples lie beyond it: a p95 over 40 samples is the second-largest
//! sample, not a percentile, and it moves with a single outlier.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Sorts a copy of `samples` (total order, so NaN cannot panic).
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median of `samples` (mean of the two middle values for an even
/// count), or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `q` (in `(0, 1)`) of `samples`, or `None`
/// unless at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank: the smallest sample with at least q·n
    // samples at or below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Percentile `q` when it is supported by enough samples, else the
/// maximum — an upper bound on it. Used only for per-layer figures,
/// which must always be present; end-to-end tails use [`percentile`]
/// and fail the run instead.
pub fn percentile_or_max(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or_else(|| max(samples))
}

/// The largest sample (0 for none).
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // p95 of 1..=200: rank 190, exactly 10 samples beyond.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.95), Some(190.0));
        // One sample fewer leaves only 9 beyond the rank-190 sample.
        assert_eq!(percentile(&v[..199], 0.95), None);
        // p99 needs 1000 samples.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
        assert_eq!(percentile(&w[..999], 0.99), None);
    }

    #[test]
    fn percentile_is_order_independent_and_nearest_rank() {
        let mut v: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        assert_eq!(percentile(&v, 0.5), Some(49.0));
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Some(49.0));
        assert_eq!(percentile(&v, 0.9), Some(89.0));
        assert_eq!(percentile(&v, 0.95), None, "only 5 beyond");
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.0), None);
    }

    #[test]
    fn percentile_or_max_falls_back_to_an_upper_bound() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile_or_max(&v, 0.99), 50.0);
        assert_eq!(percentile_or_max(&v, 0.5), 25.0);
        assert_eq!(max(&[]), 0.0);
    }
}

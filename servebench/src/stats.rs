//! Order statistics over latency samples.

/// A nearest-rank percentile together with the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The sample at nearest rank `ceil(p/100 · n)` (0 with no samples).
    pub value: f64,
    /// Number of samples it was taken over.
    pub samples: usize,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// The highest percentile that still has at least [`MIN_BEYOND`]
    /// samples beyond it (0 when fewer than `MIN_BEYOND + 1` samples).
    pub max_supported: f64,
}

/// Samples a tail percentile needs beyond it to be worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`.
pub fn percentile(samples: &[f64], p: f64) -> Percentile {
    let n = samples.len();
    let max_supported =
        if n > MIN_BEYOND { 100.0 * (n - MIN_BEYOND) as f64 / n as f64 } else { 0.0 };
    if n == 0 {
        return Percentile { value: 0.0, samples: 0, beyond: 0, max_supported };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Percentile { value: sorted[rank - 1], samples: n, beyond: n - rank, max_supported }
}

/// Median (mean of the two middle samples on even counts; 0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_sample_counts() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&xs, 99.0);
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.samples, 1000);
        assert_eq!(p99.beyond, 10);
        assert_eq!(p99.max_supported, 99.0);
        assert_eq!(percentile(&xs, 50.0).value, 500.0);
        assert_eq!(percentile(&xs, 100.0).value, 1000.0);
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_beyond() {
        let xs: Vec<f64> = (0..400).map(f64::from).rev().collect();
        let p = percentile(&xs, 99.0);
        assert_eq!(p.samples, 400);
        assert_eq!(p.beyond, 4);
        assert_eq!(p.max_supported, 97.5);
        assert_eq!(percentile(&xs, p.max_supported).beyond, MIN_BEYOND);
        assert_eq!(percentile(&xs[..10], 50.0).max_supported, 0.0);
        assert_eq!(
            percentile(&[], 99.0),
            Percentile { value: 0.0, samples: 0, beyond: 0, max_supported: 0.0 }
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}

//! Order statistics for latency samples.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `values`, returned only
/// when at least [`MIN_BEYOND`] samples rank above it. With fewer samples
/// the tail is not resolved and the answer is `None`: p90 needs 100
/// samples, p99 needs 1000.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "quantile {p} out of (0, 1)");
    let n = values.len();
    // 1-based nearest rank; the epsilon keeps 0.9 * 100 at 90, not 91.
    let rank = ((p * n as f64) - 1e-9).ceil().max(1.0) as usize;
    if n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
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
    fn p90_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), None, "99 samples leave 9 beyond");
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(90.0));
        let beyond = v.iter().filter(|&&x| x > 90.0).count();
        assert_eq!(beyond, MIN_BEYOND);
        let v: Vec<f64> = (1..=250).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.9), Some(225.0));
        assert_eq!(tail_percentile(&v, 0.99), None);
    }
}

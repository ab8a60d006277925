//! Order statistics over wall-clock samples.

/// The median of `samples` (mean of the two middle values for an even
/// count). `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `pct`-th percentile (nearest rank) of `samples`, or `None` when
/// fewer than ten samples lie above it: a tail percentile resting on a
/// handful of samples says nothing, so it is refused rather than
/// reported.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    assert!(
        (0.0..=100.0).contains(&pct),
        "percentile {pct} outside [0, 100]"
    );
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least pct% of samples at
    // or below it.
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < 10 {
        return None;
    }
    let mut v = samples.to_vec();
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
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        // p99 of 1000 samples has exactly 10 above it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990.0));
        // 999 samples leave only 9 above the 99th percentile.
        assert_eq!(percentile(&thousand[..999], 99.0), None);
        // The median needs 20 samples to have 10 above it.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10.0));
        assert_eq!(percentile(&twenty[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
    }
}

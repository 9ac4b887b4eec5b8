//! Order statistics for the report: medians, quartiles, percentiles, and
//! the rule for which tail percentile a sample supports.

/// Quartiles `(q1, median, q3)` by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads `--aa` prints are the ones the acceptance driver computes.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let len = data.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let mid = data.len() / 2;
    if data.len() % 2 == 1 {
        data[mid]
    } else {
        (data[mid - 1] + data[mid]) / 2.0
    }
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_over_median(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    (q3 - q1) / med.abs()
}

/// For each position, the smallest of the values the runs hold there.
/// The runs time the same deterministic work, and on a shared guest
/// every disturbance is a slow-down (a busy sibling hyperthread, a
/// descheduled virtual CPU): the fastest execution of each piece is the
/// one that measures the program rather than the neighbours.
///
/// # Panics
///
/// Panics without runs or if their lengths differ.
pub fn fastest_each(runs: &[Vec<f64>]) -> Vec<f64> {
    let len = runs.first().expect("at least one run").len();
    assert!(runs.iter().all(|r| r.len() == len), "runs differ in length");
    (0..len)
        .map(|i| runs.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Nearest-rank percentile (`p` in `(0, 100]`) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// condition for reporting that percentile at all.
pub fn supports_percentile(n: usize, p: f64) -> bool {
    (n as f64) * (100.0 - p) >= 1000.0 - 1e-6
}

/// The highest of p50/p90/p95/p99/p99.9 that `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| supports_percentile(n, p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            (15.0, 30.0, 45.0)
        );
        assert!((iqr_over_median(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn fastest_each_takes_the_minimum_per_position() {
        let runs = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.5],
            vec![2.5, 1.5, 4.0],
        ];
        assert_eq!(fastest_each(&runs), vec![2.0, 1.0, 4.0]);
        assert_eq!(fastest_each(&runs[..1]), runs[0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 99.0), 9.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(!supports_percentile(199, 95.0));
        assert!(supports_percentile(200, 95.0));
        assert!(!supports_percentile(999, 99.0));
        assert!(supports_percentile(1000, 99.0));
        // 22 qps for 10 s: p95 is the highest percentile with 10 beyond.
        assert_eq!(highest_supported_percentile(220), Some(95.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20_000), Some(99.9));
    }
}

//! Order statistics for latency samples and run-to-run summaries.

/// Percentiles a timing report may quote, in tenths of a percent,
/// highest first.
const QUOTABLE_PERMILLE: [u64; 5] = [999, 990, 950, 900, 500];

/// Nearest-rank index (1-based) of the `permille`/1000 quantile in a
/// sample of `n`.
fn rank(n: usize, permille: u64) -> usize {
    let n = n as u64;
    (permille * n).div_ceil(1000).clamp(1, n.max(1)) as usize
}

/// Nearest-rank percentile of an ascending-sorted sample, `q` in
/// `[0, 100]`; 0 for an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let permille = (q.clamp(0.0, 100.0) * 10.0).round() as u64;
    sorted[rank(sorted.len(), permille) - 1]
}

/// The highest quotable percentile (99.9, 99, 95, 90 or 50) that has at
/// least ten samples beyond it in a sample of `n`, or `None` when even
/// the median lacks that support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    QUOTABLE_PERMILLE
        .iter()
        .find(|&&p| n >= 10 && n - rank(n, p) >= 10)
        .map(|&p| p as f64 / 10.0)
}

/// Median of an unsorted sample (mean of the middle pair for even
/// sizes); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.9), 999.0);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

//! Summary statistics with the sample-count guard.
//!
//! A tail percentile is only meaningful when enough samples lie beyond it:
//! the p90 of eight jobs is just their maximum. [`percentile`] therefore
//! refuses (returns `None`) unless at least [`MIN_BEYOND`] samples lie
//! strictly above the reported rank. Repeated identical units of work (set-ups,
//! fixed passes) are summarised by their [`median`] instead, always with
//! their sample count.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Median of repeated measurements of the same unit of work.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Relative cost of the traced passes over the untraced ones, in percent.
pub fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    ratio(traced_s - untraced_s, untraced_s) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.9), Some(90.0));
        assert_eq!(percentile(&samples, 0.5), Some(50.0));
        // 99 samples: the p90 rank is 90, so only 9 lie beyond it.
        assert_eq!(percentile(&samples[..99], 0.9), None);
        // Eight jobs never yield a p50 or p90.
        assert_eq!(percentile(&samples[..8], 0.5), None);
        assert_eq!(percentile(&samples[..8], 0.9), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let p = percentile(&samples, 0.5);
        samples.sort_by(f64::total_cmp);
        assert_eq!(p, percentile(&samples, 0.5));
        assert_eq!(p, Some(19.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn ratios_and_overhead() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert!((overhead_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((overhead_pct(0.9, 1.0) + 10.0).abs() < 1e-9);
        assert_eq!(overhead_pct(1.0, 0.0), 0.0);
    }
}

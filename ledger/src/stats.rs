//! Order statistics over latency samples and repeated runs.

/// Samples that must lie beyond a reported percentile before it is
/// trusted (the choosing-metrics rule: the highest percentile with at
/// least ten samples beyond it).
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank `q`-quantile of sorted samples (`q ∈ (0, 1]`).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly past the nearest-rank position of quantile `q`.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    let rank = (q.clamp(0.0, 1.0) * len as f64).ceil() as usize;
    len - rank.clamp(usize::from(len > 0), len)
}

/// `q`-quantile, or `None` when fewer than [`MIN_BEYOND`] samples lie
/// beyond it — the caller must run longer, not report a tail it has not
/// sampled.
pub fn supported_quantile(sorted: &[u64], q: f64) -> Option<u64> {
    if samples_beyond(sorted.len(), q) < MIN_BEYOND {
        return None;
    }
    quantile_sorted(sorted, q)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Median of integer samples, for per-request overheads.
pub fn median_u64(values: &mut [u64]) -> Option<u64> {
    if values.is_empty() {
        return None;
    }
    let mid = values.len() / 2;
    Some(*values.select_nth_unstable(mid).1)
}

/// `(max − min) / median` of repeated runs: the spread `compare` holds
/// against a metric's bound. `None` for an empty or zero-median set.
pub fn relative_range(values: &[f64]) -> Option<f64> {
    let mid = median(values)?;
    if mid == 0.0 {
        return None;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some((hi - lo) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.50), Some(50));
        assert_eq!(quantile_sorted(&sorted, 0.95), Some(95));
        assert_eq!(quantile_sorted(&sorted, 1.0), Some(100));
        assert_eq!(quantile_sorted(&[], 0.5), None);
        assert_eq!(quantile_sorted(&[7], 0.99), Some(7));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples sits at rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(supported_quantile(&thousand, 0.99), Some(990));
        // One sample fewer and the tail is not supported.
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(supported_quantile(&short, 0.99), None);
        // p95 needs 200 samples, the median 20.
        assert_eq!(supported_quantile(&thousand[..200], 0.95), Some(190));
        assert_eq!(supported_quantile(&thousand[..199], 0.95), None);
        assert_eq!(supported_quantile(&thousand[..20], 0.5), Some(10));
        assert_eq!(supported_quantile(&thousand[..19], 0.5), None);
        assert_eq!(samples_beyond(0, 0.5), 0);
    }

    #[test]
    fn medians_and_ranges() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median_u64(&mut [9, 1, 5]), Some(5));
        assert_eq!(relative_range(&[90.0, 100.0, 110.0]), Some(0.2));
        assert_eq!(relative_range(&[0.0, 0.0]), None);
    }
}

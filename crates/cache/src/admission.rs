//! Reactive cache admission (§5.2): eager vs lazy, decided by sampling.
//!
//! Eager caching parses and stores complete tuples; lazy caching keeps
//! only the offsets of satisfying tuples. ReCache starts caching a small
//! sample eagerly, tracks the time spent caching (`tc`) against the total
//! query time (`to`), extrapolates both to the end of the file —
//! `to = to1 + N·(to2 − to1)`, `tc = tc1 + N·(tc2 − tc1)` — and switches
//! to lazy when `tc/to` exceeds a user threshold. A lazy item that gets
//! reused is upgraded to eager; and as long as any cached item from the
//! same file survives, the file is considered part of the working set and
//! further admissions skip sampling and go straight to eager.

/// Admission configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Maximum tolerated caching overhead `tc/to` (default 0.10, the
    /// paper's chosen threshold from Fig. 12b).
    pub threshold: f64,
    /// Records sampled eagerly before deciding.
    pub sample_records: usize,
    /// Always cache eagerly / lazily regardless of measurements (the
    /// paper's static *eager* and *lazy* baselines).
    pub force: Option<AdmissionDecision>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            threshold: 0.10,
            sample_records: 256,
            force: None,
        }
    }
}

impl AdmissionConfig {
    pub fn eager_only() -> Self {
        AdmissionConfig {
            force: Some(AdmissionDecision::Eager),
            ..Default::default()
        }
    }

    pub fn lazy_only() -> Self {
        AdmissionConfig {
            force: Some(AdmissionDecision::Lazy),
            ..Default::default()
        }
    }

    /// The paper's reactive rule at `threshold`, whatever the default's
    /// `force` is.
    pub fn with_threshold(threshold: f64) -> Self {
        AdmissionConfig {
            threshold,
            force: None,
            ..Default::default()
        }
    }
}

/// The admission mode chosen for a new cached item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Fully parse and store every satisfying tuple.
    Eager,
    /// Store only the offsets of satisfying tuples.
    Lazy,
}

/// Extrapolated caching overhead.
///
/// * `to1_ns` — total query time before caching work began (`to1`; the
///   join-aware correction of §5.2: time already sunk into other
///   operators counts toward `to`),
/// * `tc_sample_ns` — caching time spent on the sample (`tc2 − tc1`),
/// * `other_sample_ns` — non-caching work interleaved with the sample
///   (`(to2 − to1) − (tc2 − tc1)`; zero in a dedicated caching pass),
/// * `sampled` / `total` — records in the sample vs records to cache.
///
/// Returns `tc / to` after scaling the sample by `N = total / sampled`.
pub fn estimate_overhead(
    to1_ns: u64,
    tc_sample_ns: u64,
    other_sample_ns: u64,
    sampled: usize,
    total: usize,
) -> f64 {
    if sampled == 0 || total == 0 {
        return 0.0;
    }
    let n = (total as f64 / sampled as f64).max(1.0);
    let tc = tc_sample_ns as f64 * n;
    let to = to1_ns as f64 + (tc_sample_ns + other_sample_ns) as f64 * n;
    if to <= 0.0 {
        return 0.0;
    }
    tc / to
}

/// Decides eager vs lazy for a previously unseen item.
///
/// `file_in_working_set`: true when other cached items from the same file
/// are still resident — admission then skips sampling and goes eager.
pub fn decide(
    config: &AdmissionConfig,
    overhead: f64,
    file_in_working_set: bool,
) -> AdmissionDecision {
    if let Some(forced) = config.force {
        return forced;
    }
    if file_in_working_set {
        return AdmissionDecision::Eager;
    }
    if overhead > config.threshold {
        AdmissionDecision::Lazy
    } else {
        AdmissionDecision::Eager
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_extrapolates_by_sample_ratio() {
        // 1ms query so far; caching 100 sampled records took 1ms; 1000
        // records total -> tc = 10ms, to = 1 + 10 = 11ms.
        let overhead = estimate_overhead(1_000_000, 1_000_000, 0, 100, 1000);
        assert!((overhead - 10.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn join_work_counts_toward_total_time() {
        // §5.2's example: an expensive join before the cached select makes
        // the *sample* overhead look tiny; extrapolation must not.
        // Join took 10s (to1); caching 1000 of 1M records took 100ms.
        let overhead_naive = 0.1 / 10.1; // what the sample alone suggests
        let overhead = estimate_overhead(10_000_000_000, 100_000_000, 0, 1000, 1_000_000);
        // tc = 100s, to = 10s + 100s -> ~0.909, far above the naive 1%.
        assert!(overhead > 0.9, "overhead {overhead}");
        assert!(overhead_naive < 0.01);
    }

    #[test]
    fn zero_sample_is_zero_overhead() {
        assert_eq!(estimate_overhead(1000, 0, 0, 0, 100), 0.0);
        assert_eq!(estimate_overhead(1000, 10, 0, 10, 0), 0.0);
    }

    #[test]
    fn decision_respects_threshold() {
        let config = AdmissionConfig::with_threshold(0.10);
        assert_eq!(decide(&config, 0.05, false), AdmissionDecision::Eager);
        assert_eq!(decide(&config, 0.25, false), AdmissionDecision::Lazy);
        // Exactly at threshold stays eager ("exceeded" switches).
        assert_eq!(decide(&config, 0.10, false), AdmissionDecision::Eager);
    }

    #[test]
    fn working_set_short_circuits_to_eager() {
        let config = AdmissionConfig::with_threshold(0.10);
        assert_eq!(decide(&config, 0.99, true), AdmissionDecision::Eager);
    }

    #[test]
    fn forced_modes_ignore_measurements() {
        assert_eq!(
            decide(&AdmissionConfig::eager_only(), 0.99, false),
            AdmissionDecision::Eager
        );
        assert_eq!(
            decide(&AdmissionConfig::lazy_only(), 0.0, true),
            AdmissionDecision::Lazy
        );
    }

    #[test]
    fn constructors_name_their_policy() {
        // `with_threshold` is the reactive rule; the two baselines force
        // their decision.
        let reactive = AdmissionConfig::with_threshold(0.10);
        assert_eq!(reactive.force, None);
        assert_eq!(reactive.threshold, 0.10);
        assert_eq!(
            AdmissionConfig::eager_only().force,
            Some(AdmissionDecision::Eager)
        );
        assert_eq!(
            AdmissionConfig::lazy_only().force,
            Some(AdmissionDecision::Lazy)
        );
    }

    #[test]
    fn interleaved_non_caching_work_lowers_overhead() {
        // Same caching time, but the sample also did real query work.
        let pure = estimate_overhead(0, 1_000, 0, 10, 100);
        let mixed = estimate_overhead(0, 1_000, 3_000, 10, 100);
        assert!(mixed < pure);
        assert!((mixed - 0.25).abs() < 1e-9);
    }
}

//! Seeded, deterministic fault injection for raw-file scans.
//!
//! A [`FaultPlan`] installed on a [`RawFile`](crate::RawFile) decides —
//! per (site, chunk, attempt) — whether a scan operation fails, and
//! how: a transient I/O error (clears on retry), a persistent I/O
//! error (every attempt fails), a short read (transient,
//! `UnexpectedEof`), a latency spike (the operation sleeps but
//! succeeds), or a panic (exercises the abandoned-flight and
//! panic-propagation paths).
//!
//! Decisions are **stateless**: each one hashes `(seed, site, chunk,
//! attempt)` into a fresh [`StdRng`], so the fault pattern is a pure
//! function of the seed — independent of thread interleaving, scan
//! order, or how many queries ran before. Persistent decisions omit
//! `attempt` from the hash, which is exactly what makes them
//! persistent: every retry of that chunk redraws the same answer.
//!
//! The plan lives behind an `Option<Arc<FaultPlan>>` on the source, so
//! the disabled configuration costs one pointer null-check per scan
//! site and allocates nothing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recache_types::{Error, Result};
use std::time::Duration;

/// Where in the scan pipeline a fault decision is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Start of a row-at-a-time scan (per-record tokenizer paths).
    /// Injected before any row is emitted, so a retry cannot duplicate
    /// output.
    RowScan,
    /// One batched-scan chunk (`scan_batches_range`, or
    /// `scan_batches_by_id_ctl` over a lazy entry's ids). Chunk work
    /// is transactional — scratch columns are cleared and the capture
    /// slab is only submitted on success — so chunk retries are safe.
    Chunk,
}

impl FaultSite {
    fn code(self) -> u64 {
        match self {
            FaultSite::RowScan => 0x524F_5753_4341_4E00, // "ROWSCAN"
            FaultSite::Chunk => 0x4348_554E_4B00_0000,   // "CHUNK"
        }
    }
}

/// What an injected fault does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// `ErrorKind::Interrupted` — the canonical retryable error.
    TransientIo,
    /// `ErrorKind::InvalidData` — fails every attempt.
    PersistentIo,
    /// `ErrorKind::UnexpectedEof` — a short read; retryable.
    ShortRead,
    /// The operation sleeps for the configured spike, then succeeds.
    Latency,
    /// The operation panics (abandoned-flight / panic-surfacing paths).
    Panic,
}

/// Bounded retry with small capped backoff, applied at chunk
/// granularity by [`RawFile::scan_batches_range`](crate::RawFile).
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per chunk (first try included). Minimum 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff * n`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(2),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry attempt `attempt` (1-based: the sleep
    /// preceding the second try is `delay(1)`).
    pub fn delay(&self, attempt: u32) -> Duration {
        self.base_backoff
            .saturating_mul(attempt)
            .min(self.max_backoff)
    }
}

/// Seeded fault-injection plan. All rates are probabilities in
/// `[0, 1]`; a default plan injects nothing.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    transient_rate: f64,
    persistent_rate: f64,
    short_read_rate: f64,
    latency_rate: f64,
    latency_spike: Duration,
    panic_rate: f64,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            transient_rate: 0.0,
            persistent_rate: 0.0,
            short_read_rate: 0.0,
            latency_rate: 0.0,
            latency_spike: Duration::from_micros(200),
            panic_rate: 0.0,
        }
    }

    /// Sets the transient I/O error rate.
    pub fn transient(mut self, rate: f64) -> Self {
        self.transient_rate = rate;
        self
    }

    /// Sets the persistent I/O error rate.
    pub fn persistent(mut self, rate: f64) -> Self {
        self.persistent_rate = rate;
        self
    }

    /// Sets the short-read rate.
    pub fn short_reads(mut self, rate: f64) -> Self {
        self.short_read_rate = rate;
        self
    }

    /// Sets the latency-spike rate and spike duration.
    pub fn latency(mut self, rate: f64, spike: Duration) -> Self {
        self.latency_rate = rate;
        self.latency_spike = spike;
        self
    }

    /// Sets the panic rate.
    pub fn panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate;
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    fn rng(&self, salt: u64, site: FaultSite, chunk: u64, attempt: Option<u32>) -> StdRng {
        // seed_from_u64 runs SplitMix64, so a cheap xor/multiply mix of
        // the coordinates is enough to decorrelate nearby chunks.
        let mut key = self.seed ^ salt;
        key = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(site.code());
        key = key.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(chunk);
        if let Some(attempt) = attempt {
            key = key
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add(attempt as u64 + 1);
        }
        StdRng::seed_from_u64(key)
    }

    /// The fault (if any) for one `(site, chunk, attempt)` coordinate.
    /// Pure function of the plan — no interior state.
    pub fn decide(&self, site: FaultSite, chunk: u64, attempt: u32) -> Option<FaultKind> {
        // Persistent faults are drawn without the attempt coordinate:
        // a chunk that draws one fails the same way on every retry.
        if self.persistent_rate > 0.0
            && self
                .rng(0x5045_5253, site, chunk, None)
                .random_bool(self.persistent_rate)
        {
            return Some(FaultKind::PersistentIo);
        }
        let mut rng = self.rng(0x5452_414E, site, chunk, Some(attempt));
        if self.transient_rate > 0.0 && rng.random_bool(self.transient_rate) {
            return Some(FaultKind::TransientIo);
        }
        if self.short_read_rate > 0.0 && rng.random_bool(self.short_read_rate) {
            return Some(FaultKind::ShortRead);
        }
        if self.panic_rate > 0.0 && rng.random_bool(self.panic_rate) {
            return Some(FaultKind::Panic);
        }
        if self.latency_rate > 0.0 && rng.random_bool(self.latency_rate) {
            return Some(FaultKind::Latency);
        }
        None
    }

    /// Applies the decision for this coordinate: sleeps on a latency
    /// spike, panics on a panic fault, returns a typed I/O error for
    /// the error kinds, and `Ok(())` when no fault fires.
    pub fn inject(&self, site: FaultSite, chunk: u64, attempt: u32) -> Result<()> {
        match self.decide(site, chunk, attempt) {
            None => Ok(()),
            Some(FaultKind::Latency) => {
                std::thread::sleep(self.latency_spike);
                Ok(())
            }
            Some(FaultKind::Panic) => {
                panic!("injected panic at {site:?} chunk {chunk} attempt {attempt}")
            }
            Some(FaultKind::TransientIo) => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                format!("injected transient I/O fault at {site:?} chunk {chunk} attempt {attempt}"),
            ))),
            Some(FaultKind::ShortRead) => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("injected short read at {site:?} chunk {chunk} attempt {attempt}"),
            ))),
            Some(FaultKind::PersistentIo) => Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("injected persistent I/O fault at {site:?} chunk {chunk}"),
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_coordinate() {
        let a = FaultPlan::new(42).transient(0.3).persistent(0.05);
        let b = FaultPlan::new(42).transient(0.3).persistent(0.05);
        for chunk in 0..200 {
            for attempt in 0..3 {
                assert_eq!(
                    a.decide(FaultSite::Chunk, chunk, attempt),
                    b.decide(FaultSite::Chunk, chunk, attempt),
                );
            }
        }
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let plan = FaultPlan::new(7);
        for chunk in 0..500 {
            assert_eq!(plan.decide(FaultSite::Chunk, chunk, 0), None);
            assert!(plan.inject(FaultSite::RowScan, chunk, 0).is_ok());
        }
    }

    #[test]
    fn persistent_faults_survive_retries_transient_ones_clear() {
        let plan = FaultPlan::new(1).transient(0.5).persistent(0.1);
        let mut saw_persistent = false;
        let mut saw_transient_clear = false;
        for chunk in 0..400 {
            match plan.decide(FaultSite::Chunk, chunk, 0) {
                Some(FaultKind::PersistentIo) => {
                    saw_persistent = true;
                    for attempt in 1..4 {
                        assert_eq!(
                            plan.decide(FaultSite::Chunk, chunk, attempt),
                            Some(FaultKind::PersistentIo),
                            "persistent fault must not clear on retry"
                        );
                    }
                }
                // A 0.5 transient rate re-drawn per attempt clears
                // within a few retries for *some* chunk.
                Some(FaultKind::TransientIo)
                    if (1..4).any(|a| plan.decide(FaultSite::Chunk, chunk, a).is_none()) =>
                {
                    saw_transient_clear = true;
                }
                _ => {}
            }
        }
        assert!(saw_persistent, "0.1 rate over 400 chunks must fire");
        assert!(saw_transient_clear, "some transient fault must clear");
    }

    #[test]
    fn sites_draw_independent_patterns() {
        let plan = FaultPlan::new(3).transient(0.5);
        let differs = (0..100).any(|chunk| {
            plan.decide(FaultSite::Chunk, chunk, 0) != plan.decide(FaultSite::RowScan, chunk, 0)
        });
        assert!(differs, "sites must not mirror each other's faults");
    }

    #[test]
    fn injected_errors_carry_the_right_transience() {
        let plan = FaultPlan::new(11).transient(1.0);
        let err = plan.inject(FaultSite::Chunk, 0, 0).unwrap_err();
        assert!(err.is_transient());
        let plan = FaultPlan::new(11).persistent(1.0);
        let err = plan.inject(FaultSite::Chunk, 0, 0).unwrap_err();
        assert!(!err.is_transient());
        let plan = FaultPlan::new(11).short_reads(1.0);
        let err = plan.inject(FaultSite::Chunk, 0, 0).unwrap_err();
        assert!(err.is_transient());
    }

    #[test]
    fn retry_backoff_is_capped() {
        let policy = RetryPolicy::default();
        assert!(policy.delay(1) <= policy.max_backoff);
        assert!(policy.delay(1000) == policy.max_backoff);
        assert!(policy.delay(2) >= policy.delay(1));
    }
}

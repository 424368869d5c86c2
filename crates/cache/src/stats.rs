//! Per-entry cost statistics, the benefit metric (Fig. 8), and the
//! registry's aggregate counters (atomic, so concurrent sessions can
//! bump them without locking).

use std::sync::atomic::{AtomicU64, Ordering};

/// Measured costs of one cached item, in the paper's notation:
///
/// * `n` — how many times the cache has been reused,
/// * `t` — time incurred executing the operator over raw data (includes
///   parsing and any index construction),
/// * `c` — time incurred caching the operator's results in memory,
/// * `s` — time spent scanning the in-memory cache when it is reused,
/// * `l` — time spent finding a matching operator cache,
/// * `B` (`bytes`) — size of the cache in bytes.
#[derive(Debug, Clone, Default)]
pub struct EntryStats {
    pub n: u64,
    pub t_ns: u64,
    pub c_ns: u64,
    /// Mean scan time over reuses (running average).
    pub s_ns: u64,
    /// Mean lookup time (running average).
    pub l_ns: u64,
    pub bytes: usize,
    /// Logical clock of the last access (LRU baselines).
    pub last_access: u64,
    /// Total accesses including the building query (LFU baselines).
    pub access_count: u64,
    /// Logical clock at admission.
    pub created_at: u64,
}

impl EntryStats {
    /// The benefit metric `b(p) = n·(t + c − s − l)/log₂(B)`.
    ///
    /// "The resulting benefit metric ... is always non-negative assuming
    /// the cost of lookup and the cost of scanning the in-memory cache
    /// are small" — we clamp at zero in case a pathological measurement
    /// violates the assumption.
    pub fn benefit(&self) -> f64 {
        let saved = (self.t_ns + self.c_ns) as f64 - (self.s_ns + self.l_ns) as f64;
        let saved = saved.max(0.0);
        // log2(B), guarded for tiny entries: log2 must stay >= 1 so small
        // items are preferred but never divide by ~0.
        let log_b = (self.bytes.max(2) as f64).log2().max(1.0);
        (self.n as f64) * saved / log_b
    }

    /// Cost to reconstruct the item if evicted (`t + c`).
    pub fn rebuild_cost_ns(&self) -> u64 {
        self.t_ns + self.c_ns
    }

    /// Records one reuse: bumps `n`, folds the observed scan and lookup
    /// times into running means, and touches the access clock.
    pub fn record_reuse(&mut self, scan_ns: u64, lookup_ns: u64, clock: u64) {
        self.n += 1;
        self.access_count += 1;
        self.last_access = clock;
        self.s_ns = running_mean(self.s_ns, scan_ns, self.n);
        self.l_ns = running_mean(self.l_ns, lookup_ns, self.n);
    }
}

/// Aggregate registry counters (diagnostics and experiment output) — a
/// plain snapshot taken from [`AtomicRegistryCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryCounters {
    pub admissions: u64,
    pub evictions: u64,
    pub bytes_evicted: u64,
    pub hits_exact: u64,
    pub hits_subsuming: u64,
    pub misses: u64,
    /// Duplicate in-flight cacheable scans that waited for a concurrent
    /// session's admission and reused it (single-flight coalescing).
    pub coalesced: u64,
    /// Entries explicitly removed (`remove`), as opposed to evicted by
    /// the policy. Closes the reconciliation identity
    /// `admissions == residents + evictions + removals`.
    pub removals: u64,
    /// Queries that surfaced a non-retryable scan error (after any
    /// degraded fallback also failed).
    pub failed_scans: u64,
    /// Chunk-granularity retries of transient scan faults that were
    /// absorbed by the bounded-retry loop.
    pub retried_chunks: u64,
    /// Queries that hit their deadline or were cancelled.
    pub timeouts: u64,
    /// Batched raw scans that fell back to the row-at-a-time path after
    /// an I/O failure and completed there.
    pub degraded_fallbacks: u64,
    /// Single-flight followers promoted to leader after the previous
    /// leader's scan failed or was abandoned.
    pub leader_failovers: u64,
    /// Queries served whole from the semantic result cache (no executor
    /// work — distinct from the data-cache `hits_*` counters).
    pub result_hits: u64,
    /// Result-cache lookups that fell through to the executor.
    pub result_misses: u64,
    /// Result entries evicted by the result cache's own byte budget.
    pub result_evictions: u64,
    /// Result entries dropped because a pinned `(source, signature)`
    /// data-cache entry was evicted/removed, or a source changed.
    pub result_invalidations: u64,
    /// Always 0: in-flight scans coalesce only on an exact
    /// `(source, signature)` key (`coalesced`), so no follower waits for a
    /// different, covering in-flight scan. The field stays because the
    /// benchmark harness (`ledger/`) and the server's stats frame read
    /// it; ROADMAP item B removes it with `shared_scans`.
    pub coalesced_subsumed: u64,
    /// Always 0: every raw pass runs one query's plan, so no pass is
    /// shared. The field stays only because the benchmark harness
    /// (`ledger/`) builds and reads this struct; ROADMAP item B removes
    /// it along with the ledger's `core.shared_scans` row.
    pub shared_scans: u64,
    /// Always 0, for the same reason as `shared_scans`; item B removes
    /// it too.
    pub shared_scan_participants: u64,
}

/// The registry's live counters. All fields are relaxed atomics: each is
/// an independent monotonic event count, so cross-counter consistency is
/// only guaranteed at quiescence (which is what the reconciliation tests
/// assert).
#[derive(Debug, Default)]
pub struct AtomicRegistryCounters {
    pub admissions: AtomicU64,
    pub evictions: AtomicU64,
    pub bytes_evicted: AtomicU64,
    pub hits_exact: AtomicU64,
    pub hits_subsuming: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    pub removals: AtomicU64,
    pub failed_scans: AtomicU64,
    pub retried_chunks: AtomicU64,
    pub timeouts: AtomicU64,
    pub degraded_fallbacks: AtomicU64,
    pub leader_failovers: AtomicU64,
    pub result_hits: AtomicU64,
    pub result_misses: AtomicU64,
    pub result_evictions: AtomicU64,
    pub result_invalidations: AtomicU64,
}

impl AtomicRegistryCounters {
    pub fn snapshot(&self) -> RegistryCounters {
        RegistryCounters {
            admissions: self.admissions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            hits_exact: self.hits_exact.load(Ordering::Relaxed),
            hits_subsuming: self.hits_subsuming.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            removals: self.removals.load(Ordering::Relaxed),
            failed_scans: self.failed_scans.load(Ordering::Relaxed),
            retried_chunks: self.retried_chunks.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            degraded_fallbacks: self.degraded_fallbacks.load(Ordering::Relaxed),
            leader_failovers: self.leader_failovers.load(Ordering::Relaxed),
            result_hits: self.result_hits.load(Ordering::Relaxed),
            result_misses: self.result_misses.load(Ordering::Relaxed),
            result_evictions: self.result_evictions.load(Ordering::Relaxed),
            result_invalidations: self.result_invalidations.load(Ordering::Relaxed),
            coalesced_subsumed: 0,
            shared_scans: 0,
            shared_scan_participants: 0,
        }
    }
}

fn running_mean(current: u64, observed: u64, n: u64) -> u64 {
    if n <= 1 {
        observed
    } else {
        ((current as u128 * (n - 1) as u128 + observed as u128) / n as u128) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(n: u64, t: u64, c: u64, s: u64, l: u64, bytes: usize) -> EntryStats {
        EntryStats {
            n,
            t_ns: t,
            c_ns: c,
            s_ns: s,
            l_ns: l,
            bytes,
            ..Default::default()
        }
    }

    #[test]
    fn benefit_formula_matches_figure_8() {
        // b = n(t + c - s - l)/log2(B)
        let st = stats(3, 1000, 500, 100, 50, 1 << 20);
        let expected = 3.0 * (1000.0 + 500.0 - 150.0) / 20.0;
        assert!((st.benefit() - expected).abs() < 1e-9);
    }

    #[test]
    fn benefit_is_nonnegative() {
        let st = stats(5, 10, 10, 1000, 1000, 64);
        assert_eq!(st.benefit(), 0.0);
    }

    #[test]
    fn more_reuse_means_more_benefit() {
        let low = stats(1, 1000, 100, 10, 10, 4096);
        let high = stats(10, 1000, 100, 10, 10, 4096);
        assert!(high.benefit() > low.benefit());
    }

    #[test]
    fn smaller_items_preferred_at_equal_cost() {
        let small = stats(2, 1000, 100, 10, 10, 1 << 10);
        let large = stats(2, 1000, 100, 10, 10, 1 << 24);
        assert!(small.benefit() > large.benefit());
    }

    #[test]
    fn record_reuse_updates_means_and_clock() {
        let mut st = stats(0, 1000, 100, 0, 0, 4096);
        st.record_reuse(100, 10, 7);
        assert_eq!(st.n, 1);
        assert_eq!(st.s_ns, 100);
        assert_eq!(st.l_ns, 10);
        assert_eq!(st.last_access, 7);
        st.record_reuse(300, 30, 9);
        assert_eq!(st.n, 2);
        assert_eq!(st.s_ns, 200);
        assert_eq!(st.l_ns, 20);
        assert_eq!(st.last_access, 9);
    }

    #[test]
    fn tiny_entries_do_not_divide_by_zero() {
        let st = stats(1, 100, 0, 0, 0, 1);
        assert!(st.benefit().is_finite());
        assert!(st.benefit() > 0.0);
    }
}

//! ReCache's cache policies: the paper's primary contribution.
//!
//! * [`stats`] — per-entry cost measurements (`n`, `t`, `c`, `s`, `l`,
//!   `B`) and the benefit metric `b(p) = n·(t + c − s − l)/log₂(B)`
//!   (Fig. 8),
//! * [`eviction`] — Algorithm 1 (a Greedy-Dual instance with a
//!   size-descending batch heuristic) plus the baselines the paper
//!   compares against: LRU, LFU, Proteus' LRU-with-JSON-priority, the
//!   MonetDB and Vectorwise recyclers, and two offline algorithms
//!   (farthest-first and a log-optimal approximation),
//! * [`admission`] — the reactive eager/lazy admission controller of
//!   §5.2 (sampled caching-overhead extrapolation against a threshold),
//! * [`layout_model`] — the automatic layout selector of §4.2 (Eqs. 1–5)
//!   for nested items (flat items stay columnar),
//! * [`registry`] — the cache itself: exact-match signatures,
//!   range-predicate subsumption over per-leaf interval lists (§3.3),
//!   stat upkeep and eviction driving.

pub mod admission;
pub mod eviction;
pub mod layout_model;
pub mod registry;
pub mod stats;

pub use admission::{AdmissionConfig, AdmissionDecision};
pub use eviction::{
    EvictView, EvictionContext, EvictionKind, EvictionPolicy, FarthestFirst, GreedyDualRecache,
    Lfu, LogOptimal, Lru, LruJsonPriority, MonetDbRecycler, VectorwiseRecycler,
};
pub use layout_model::{LayoutDecision, LayoutHistory, QueryObservation, StoreScan};
pub use registry::{
    CacheEntry, CacheRegistry, EntryId, EntrySnapshot, FutureOracle, HitOutcome,
    InvalidationListener, LeafRange, MatchResult,
};
pub use stats::{EntryStats, RegistryCounters};

/// Seeded randomized checks of the registry's per-leaf interval index
/// against a linear scan over the admitted intervals.
#[cfg(test)]
mod randomized_tests {
    use crate::eviction::Lru;
    use crate::registry::{CacheRegistry, EntryId, LeafRange, MatchResult};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recache_data::FileFormat;
    use recache_layout::{CacheData, OffsetStore};
    use std::sync::Arc;

    fn random_interval(rng: &mut StdRng) -> (f64, f64) {
        let lo = rng.random_range(-1000.0..1000.0);
        (lo, lo + rng.random_range(0.0..100.0))
    }

    fn random_intervals(rng: &mut StdRng, max: usize) -> Vec<(f64, f64)> {
        (0..rng.random_range(1..max))
            .map(|_| random_interval(rng))
            .collect()
    }

    fn range(lo: f64, hi: f64) -> Vec<LeafRange> {
        vec![LeafRange { leaf: 0, lo, hi }]
    }

    /// Distinct flattened-row counts for `i < 1009` (7919 and the prime
    /// 1009 are coprime), so the fewest-rows covering entry is unique
    /// and unrelated to admission order.
    fn rows(i: usize) -> usize {
        (i * 7919) % 1009 + 1
    }

    /// Admits interval `i` on leaf 0 of source "s" under signature `e{i}`.
    fn admit_all(reg: &CacheRegistry, intervals: &[(f64, f64)]) -> Vec<EntryId> {
        intervals
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| {
                let data =
                    CacheData::Offsets(Arc::new(OffsetStore::build(vec![i as u32], rows(i))));
                reg.admit(
                    "s",
                    FileFormat::Csv,
                    format!("e{i}"),
                    range(lo, hi),
                    true,
                    data,
                    10,
                    5,
                    1,
                )
            })
            .collect()
    }

    #[test]
    fn covering_matches_linear_scan() {
        let mut rng = StdRng::seed_from_u64(0x47E1);
        for case in 0..200 {
            let intervals = random_intervals(&mut rng, 120);
            let reg = CacheRegistry::new(Box::new(Lru), None);
            let ids = admit_all(&reg, &intervals);
            reg.check_invariants()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            // Random windows, plus an admitted interval's own bounds and a
            // point at its low bound (closed bounds must cover).
            let (lo, hi) = intervals[rng.random_range(0..intervals.len())];
            let mut queries = vec![random_interval(&mut rng), (lo, hi), (lo, lo)];
            queries.extend((0..5).map(|_| random_interval(&mut rng)));
            for (qlo, qhi) in queries {
                let expected = intervals
                    .iter()
                    .enumerate()
                    .filter(|(_, &(lo, hi))| lo <= qlo && hi >= qhi)
                    .min_by_key(|&(i, _)| rows(i))
                    .map_or(MatchResult::Miss, |(i, _)| MatchResult::Subsuming(ids[i]));
                // The query signature never equals an admitted one, so
                // only subsumption can answer.
                let (got, _) = reg.lookup("s", "q", &range(qlo, qhi));
                assert_eq!(got, expected, "case {case}: [{qlo}, {qhi}]");
            }
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0x47E2);
        for case in 0..200 {
            let intervals = random_intervals(&mut rng, 80);
            let reg = CacheRegistry::new(Box::new(Lru), None);
            let ids = admit_all(&reg, &intervals);
            let mut kept = Vec::new();
            let mut removed = Vec::new();
            for (i, &id) in ids.iter().enumerate() {
                if rng.random::<bool>() {
                    assert!(reg.remove(id), "case {case}");
                    assert!(!reg.remove(id), "case {case}: removed twice");
                    removed.push(i);
                } else {
                    kept.push(id);
                }
            }
            assert_eq!(reg.len(), kept.len(), "case {case}");
            let resident: Vec<EntryId> = reg.snapshot().iter().map(|e| e.id).collect();
            assert_eq!(resident, kept, "case {case}");
            // No stale interval survives a removal.
            reg.check_invariants()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            for &i in &removed {
                let (lo, hi) = intervals[i];
                let (got, _) = reg.lookup("s", &format!("e{i}"), &range(lo, hi));
                match got {
                    MatchResult::Miss => {}
                    MatchResult::Subsuming(id) => assert!(kept.contains(&id), "case {case}"),
                    MatchResult::Exact(id) => panic!("case {case}: removed e{i} hit as {id}"),
                }
            }
            for (i, &(lo, hi)) in intervals.iter().enumerate() {
                if !removed.contains(&i) {
                    let (got, _) = reg.lookup("s", &format!("e{i}"), &range(lo, hi));
                    assert_eq!(got, MatchResult::Exact(ids[i]), "case {case}");
                }
            }
        }
    }
}

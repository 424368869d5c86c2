//! Cache eviction policies: ReCache's Greedy-Dual instance (Algorithm 1)
//! and the baselines §6.3 compares against.

use crate::stats::EntryStats;
use recache_data::FileFormat;
use std::collections::HashMap;

/// Opaque cache-entry identifier.
pub type EntryId = u64;

/// A read-only view of one cached entry at eviction time.
#[derive(Debug, Clone)]
pub struct EvictView<'a> {
    pub id: EntryId,
    pub stats: &'a EntryStats,
    pub format: FileFormat,
    pub source: &'a str,
    /// Next query index that will reuse this entry, when an offline
    /// oracle is installed (`None` = never reused again, or no oracle).
    pub next_use: Option<u64>,
}

/// Everything a policy sees when asked to free space.
pub struct EvictionContext<'a> {
    pub entries: Vec<EvictView<'a>>,
    /// Bytes that must be freed (`TotalCacheSize - CacheSizeLimit`).
    pub need_bytes: usize,
    /// Logical query clock.
    pub clock: u64,
    /// True when an offline oracle populated `next_use` fields.
    pub has_oracle: bool,
}

/// Which policy to instantiate (bench/config surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictionKind {
    /// ReCache's cost-based Greedy-Dual (Algorithm 1).
    GreedyDual,
    Lru,
    Lfu,
    /// Proteus: LRU, but JSON-derived items are always assumed costlier
    /// than CSV-derived ones (evict CSV first).
    LruJsonPriority,
    /// MonetDB recycler (Ivanova et al., TODS 2010) — approximation.
    MonetDb,
    /// Vectorwise recycling (Nagel et al., ICDE 2013) — approximation.
    Vectorwise,
    /// Offline: evict the entry reused farthest in the future (Belady).
    FarthestFirst,
    /// Offline: cost/size-weighted farthest-first, approximating Irani's
    /// log-optimal multi-size algorithm.
    LogOptimal,
}

impl EvictionKind {
    pub fn name(&self) -> &'static str {
        match self {
            EvictionKind::GreedyDual => "recache-greedy-dual",
            EvictionKind::Lru => "lru",
            EvictionKind::Lfu => "lfu",
            EvictionKind::LruJsonPriority => "lru-json-priority",
            EvictionKind::MonetDb => "monetdb-recycler",
            EvictionKind::Vectorwise => "vectorwise-recycler",
            EvictionKind::FarthestFirst => "offline-farthest-first",
            EvictionKind::LogOptimal => "offline-log-optimal",
        }
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn EvictionPolicy> {
        match self {
            EvictionKind::GreedyDual => Box::new(GreedyDualRecache::new()),
            EvictionKind::Lru => Box::new(Lru),
            EvictionKind::Lfu => Box::new(Lfu),
            EvictionKind::LruJsonPriority => Box::new(LruJsonPriority),
            EvictionKind::MonetDb => Box::new(MonetDbRecycler),
            EvictionKind::Vectorwise => Box::new(VectorwiseRecycler),
            EvictionKind::FarthestFirst => Box::new(FarthestFirst),
            EvictionKind::LogOptimal => Box::new(LogOptimal),
        }
    }

    /// True for the offline algorithms that require a future oracle.
    pub fn is_offline(&self) -> bool {
        matches!(self, EvictionKind::FarthestFirst | EvictionKind::LogOptimal)
    }
}

/// An eviction policy: told about admissions/accesses/removals, asked to
/// pick victims when the cache exceeds its capacity.
pub trait EvictionPolicy: Send + Sync {
    fn name(&self) -> &'static str;
    fn on_admit(&mut self, _id: EntryId, _stats: &EntryStats) {}
    fn on_access(&mut self, _id: EntryId, _stats: &EntryStats) {}
    fn on_remove(&mut self, _id: EntryId) {}
    /// Returns the entries to evict; their combined size must reach
    /// `ctx.need_bytes` if the cache holds that much.
    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId>;
}

/// Greedy selection helper shared by the score-ordered baselines: evict
/// in ascending score order until enough bytes are freed.
fn evict_ascending_by<F: FnMut(&EvictView<'_>) -> f64>(
    ctx: &EvictionContext<'_>,
    mut score: F,
) -> Vec<EntryId> {
    let mut scored: Vec<(f64, usize, EntryId)> = ctx
        .entries
        .iter()
        .map(|e| (score(e), e.stats.bytes, e.id))
        .collect();
    scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let mut freed = 0usize;
    let mut victims = Vec::new();
    for (_, bytes, id) in scored {
        if freed >= ctx.need_bytes {
            break;
        }
        victims.push(id);
        freed += bytes;
    }
    victims
}

// ---------------------------------------------------------------------
// ReCache: Algorithm 1
// ---------------------------------------------------------------------

/// ReCache's cost-based eviction (Algorithm 1).
///
/// A Greedy-Dual instance (Young 1994): each entry carries an inflation
/// tag `L(p)` set to the global baseline `L` at admission/access time;
/// `H(p) = L(p) + b(p)` is *recomputed from the live measurements at
/// every eviction decision* ("ReCache does not update H(p) only when an
/// item p is accessed ... it recomputes the value of H(p) from its
/// individual components whenever an eviction decision needs to be
/// made"). Candidates are gathered in ascending `H` order; the second
/// pass walks them in *descending size* order so far fewer items are
/// evicted than the textbook algorithm would (the knapsack heuristic),
/// finishing with the smallest candidate that covers the remaining need.
#[derive(Debug, Default)]
pub struct GreedyDualRecache {
    /// Global baseline `L`.
    l: f64,
    /// `L(p)`: the baseline value captured at admission/access.
    tags: HashMap<EntryId, f64>,
}

impl GreedyDualRecache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current baseline (exposed for tests).
    pub fn baseline(&self) -> f64 {
        self.l
    }
}

impl EvictionPolicy for GreedyDualRecache {
    fn name(&self) -> &'static str {
        "recache-greedy-dual"
    }

    fn on_admit(&mut self, id: EntryId, _stats: &EntryStats) {
        self.tags.insert(id, self.l);
    }

    fn on_access(&mut self, id: EntryId, _stats: &EntryStats) {
        self.tags.insert(id, self.l);
    }

    fn on_remove(&mut self, id: EntryId) {
        self.tags.remove(&id);
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        if ctx.need_bytes == 0 || ctx.entries.is_empty() {
            return Vec::new();
        }
        // H(p) = L(p) + b(p), recomputed now.
        let mut items: Vec<(f64, usize, EntryId)> = ctx
            .entries
            .iter()
            .map(|e| {
                let tag = self.tags.get(&e.id).copied().unwrap_or(self.l);
                (tag + e.stats.benefit(), e.stats.bytes, e.id)
            })
            .collect();
        items.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        // First pass: gather candidates in ascending H until they cover
        // the need, raising L to the largest H considered.
        let mut candidates: Vec<(usize, EntryId)> = Vec::new();
        let mut covered = 0usize;
        for (h, bytes, id) in items {
            if covered >= ctx.need_bytes {
                break;
            }
            covered += bytes;
            if self.l <= h {
                self.l = h;
            }
            candidates.push((bytes, id));
        }

        // Second pass: walk candidates in descending size; after each
        // eviction, if a single remaining candidate covers what is left,
        // evict just that one and stop.
        candidates.sort_by_key(|c| std::cmp::Reverse(c.0));
        let mut victims = Vec::new();
        let mut remaining = ctx.need_bytes as i64;
        let mut i = 0usize;
        while remaining > 0 && i < candidates.len() {
            let (bytes, id) = candidates[i];
            victims.push(id);
            remaining -= bytes as i64;
            i += 1;
            if remaining > 0 {
                // Smallest remaining candidate that alone covers the rest.
                if let Some(&(_, id)) = candidates[i..]
                    .iter()
                    .rev()
                    .find(|(bytes, _)| *bytes as i64 >= remaining)
                {
                    victims.push(id);
                    break;
                }
            }
        }
        victims
    }
}

// ---------------------------------------------------------------------
// Baselines
// ---------------------------------------------------------------------

/// Least-recently-used.
#[derive(Debug, Default)]
pub struct Lru;

impl EvictionPolicy for Lru {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        evict_ascending_by(ctx, |e| e.stats.last_access as f64)
    }
}

/// Least-frequently-used.
#[derive(Debug, Default)]
pub struct Lfu;

impl EvictionPolicy for Lfu {
    fn name(&self) -> &'static str {
        "lfu"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        // Ties broken by recency.
        let clock = ctx.clock.max(1) as f64;
        evict_ascending_by(ctx, |e| {
            e.stats.access_count as f64 + e.stats.last_access as f64 / (clock * 2.0)
        })
    }
}

/// Proteus (Karpathiotakis et al., PVLDB 2016): LRU "with the caveat that
/// JSON caching is assumed to be always costlier than CSV" — CSV-derived
/// entries are evicted before any JSON-derived entry.
#[derive(Debug, Default)]
pub struct LruJsonPriority;

impl EvictionPolicy for LruJsonPriority {
    fn name(&self) -> &'static str {
        "lru-json-priority"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        let clock = (ctx.clock + 1) as f64;
        evict_ascending_by(ctx, |e| {
            let class = match e.format {
                FileFormat::Csv => 0.0,
                FileFormat::Json => 1.0,
            };
            class * clock * 2.0 + e.stats.last_access as f64
        })
    }
}

/// MonetDB recycler (Ivanova et al., "An architecture for recycling
/// intermediates in a column-store", TODS 2010), as characterized in
/// §6.3: "MonetDB's benefit metric is based only on the frequency and
/// weight of a cached object, with a heuristic to put an upper bound
/// on the worst-case". Approximation: score = frequency × rebuild-cost
/// per byte; the upper-bound heuristic prefers a single entry that
/// covers the whole need among the cheapest half, bounding the number of
/// evictions.
#[derive(Debug, Default)]
pub struct MonetDbRecycler;

impl EvictionPolicy for MonetDbRecycler {
    fn name(&self) -> &'static str {
        "monetdb-recycler"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        let score = |e: &EvictView<'_>| {
            e.stats.access_count as f64 * e.stats.rebuild_cost_ns() as f64
                / e.stats.bytes.max(1) as f64
        };
        let mut scored: Vec<(f64, usize, EntryId)> = ctx
            .entries
            .iter()
            .map(|e| (score(e), e.stats.bytes, e.id))
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        // Upper-bound heuristic: among the cheapest half, a single item
        // covering the entire need wins outright.
        let half = scored.len().div_ceil(2);
        if let Some(&(_, _, id)) = scored[..half]
            .iter()
            .filter(|(_, bytes, _)| *bytes >= ctx.need_bytes)
            .min_by_key(|(_, bytes, _)| *bytes)
        {
            return vec![id];
        }
        let mut freed = 0usize;
        let mut victims = Vec::new();
        for (_, bytes, id) in scored {
            if freed >= ctx.need_bytes {
                break;
            }
            victims.push(id);
            freed += bytes;
        }
        victims
    }
}

/// Vectorwise recycling (Nagel, Boncz, Viglas, "Recycling in pipelined
/// query evaluation", ICDE 2013). Approximation: cost-based eviction of
/// the entry with the smallest saved-cost per byte, aged by recency —
/// cost-aware like ReCache but without reuse counts, reconstruction
/// accounting, or the batch-eviction heuristic.
#[derive(Debug, Default)]
pub struct VectorwiseRecycler;

impl EvictionPolicy for VectorwiseRecycler {
    fn name(&self) -> &'static str {
        "vectorwise-recycler"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        evict_ascending_by(ctx, |e| {
            let age = (ctx.clock.saturating_sub(e.stats.last_access) + 1) as f64;
            let per_byte = e.stats.rebuild_cost_ns() as f64 / e.stats.bytes.max(1) as f64;
            per_byte / age // recency discounts the saved cost
        })
    }
}

/// Offline farthest-first (Belady's MIN): evicts the entry whose next
/// reuse lies farthest in the future. Provably optimal for *unweighted*
/// caches; §6.3 shows ReCache can beat it because object costs and sizes
/// vary.
#[derive(Debug, Default)]
pub struct FarthestFirst;

impl EvictionPolicy for FarthestFirst {
    fn name(&self) -> &'static str {
        "offline-farthest-first"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        debug_assert!(ctx.has_oracle, "farthest-first needs a future oracle");
        // Descending next_use == ascending -(next_use); None = infinity.
        evict_ascending_by(ctx, |e| match e.next_use {
            None => f64::NEG_INFINITY,
            Some(q) => -(q as f64),
        })
    }
}

/// Offline log-optimal approximation (Irani, STOC 1997, multi-size
/// pages): evicts the entry with the worst (distance-to-next-use × size /
/// rebuild-cost) product. Irani's algorithm guarantees O(log k) of
/// optimal; this greedy stand-in reproduces its comparative role in
/// Fig. 14.
#[derive(Debug, Default)]
pub struct LogOptimal;

impl EvictionPolicy for LogOptimal {
    fn name(&self) -> &'static str {
        "offline-log-optimal"
    }

    fn select_victims(&mut self, ctx: &EvictionContext<'_>) -> Vec<EntryId> {
        debug_assert!(ctx.has_oracle, "log-optimal needs a future oracle");
        evict_ascending_by(ctx, |e| {
            let distance = match e.next_use {
                None => return f64::NEG_INFINITY,
                Some(q) => (q.saturating_sub(ctx.clock) + 1) as f64,
            };
            let weight = e.stats.rebuild_cost_ns().max(1) as f64;
            -(distance * e.stats.bytes.max(1) as f64 / weight)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(n: u64, t: u64, bytes: usize, last_access: u64, access_count: u64) -> EntryStats {
        EntryStats {
            n,
            t_ns: t,
            c_ns: t / 10,
            s_ns: 10,
            l_ns: 1,
            bytes,
            last_access,
            access_count,
            created_at: 0,
        }
    }

    fn ctx<'a>(
        entries: &'a [(EntryId, EntryStats, FileFormat, Option<u64>)],
        need: usize,
        clock: u64,
    ) -> EvictionContext<'a> {
        EvictionContext {
            entries: entries
                .iter()
                .map(|(id, st, fmt, next)| EvictView {
                    id: *id,
                    stats: st,
                    format: *fmt,
                    source: "t",
                    next_use: *next,
                })
                .collect(),
            need_bytes: need,
            clock,
            has_oracle: entries.iter().any(|(_, _, _, n)| n.is_some()),
        }
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let entries = vec![
            (1u64, stats(1, 100, 100, 5, 1), FileFormat::Csv, None),
            (2, stats(1, 100, 100, 1, 1), FileFormat::Csv, None),
            (3, stats(1, 100, 100, 9, 1), FileFormat::Csv, None),
        ];
        let victims = Lru.select_victims(&ctx(&entries, 150, 10));
        assert_eq!(victims, vec![2, 1]);
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let entries = vec![
            (1u64, stats(1, 100, 100, 5, 7), FileFormat::Csv, None),
            (2, stats(1, 100, 100, 6, 2), FileFormat::Csv, None),
        ];
        let victims = Lfu.select_victims(&ctx(&entries, 50, 10));
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn proteus_evicts_csv_before_json() {
        let entries = vec![
            (1u64, stats(1, 100, 100, 1, 1), FileFormat::Json, None),
            (2, stats(1, 100, 100, 9, 1), FileFormat::Csv, None),
        ];
        // JSON is older but CSV goes first under Proteus' rule.
        let victims = LruJsonPriority.select_victims(&ctx(&entries, 50, 10));
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn greedy_dual_prefers_evicting_cheap_items() {
        let entries = vec![
            // Expensive to rebuild, reused often.
            (
                1u64,
                stats(8, 1_000_000, 1000, 5, 9),
                FileFormat::Json,
                None,
            ),
            // Cheap, rarely used.
            (2, stats(1, 1_000, 1000, 6, 1), FileFormat::Csv, None),
        ];
        let mut policy = GreedyDualRecache::new();
        policy.on_admit(1, &entries[0].1);
        policy.on_admit(2, &entries[1].1);
        let victims = policy.select_victims(&ctx(&entries, 500, 10));
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn greedy_dual_second_pass_evicts_fewer_larger_items() {
        // Paper example (§5.1): reclaiming 1 GB from candidates of 100,
        // 200, 300 and 800 MB should evict only two items: 800 MB first
        // (largest), then the smallest candidate covering the remaining
        // 224 MB — the 300 MB item.
        let mb = 1 << 20;
        let entries = vec![
            (1u64, stats(0, 10, 100 * mb, 1, 0), FileFormat::Csv, None),
            (2, stats(0, 20, 200 * mb, 2, 0), FileFormat::Csv, None),
            (3, stats(0, 30, 300 * mb, 3, 0), FileFormat::Csv, None),
            (4, stats(0, 40, 800 * mb, 4, 0), FileFormat::Csv, None),
        ];
        let mut policy = GreedyDualRecache::new();
        for (id, st, _, _) in &entries {
            policy.on_admit(*id, st);
        }
        let mut victims = policy.select_victims(&ctx(&entries, 1024 * mb, 10));
        victims.sort_unstable();
        assert_eq!(victims, vec![3, 4]);
    }

    #[test]
    fn greedy_dual_baseline_rises_with_evictions() {
        let entries = vec![
            (1u64, stats(5, 100_000, 1000, 1, 5), FileFormat::Csv, None),
            (2, stats(5, 200_000, 1000, 2, 5), FileFormat::Csv, None),
        ];
        let mut policy = GreedyDualRecache::new();
        policy.on_admit(1, &entries[0].1);
        policy.on_admit(2, &entries[1].1);
        assert_eq!(policy.baseline(), 0.0);
        let _ = policy.select_victims(&ctx(&entries, 500, 10));
        assert!(policy.baseline() > 0.0);
    }

    #[test]
    fn greedy_dual_aging_lets_old_expensive_items_leave() {
        // Recently accessed cheap item vs long-untouched expensive item:
        // after the baseline has risen past the old item's H, it becomes
        // evictable even though its raw benefit is higher.
        let old_expensive = stats(1, 500_000, 1000, 0, 1);
        let new_cheap = stats(1, 400_000, 1000, 50, 1);
        let mut policy = GreedyDualRecache::new();
        policy.on_admit(1, &old_expensive);
        // Baseline rises over time (simulate a big eviction round).
        let filler = stats(1, 900_000, 1000, 10, 1);
        policy.on_admit(3, &filler);
        let entries_round1 = vec![(3u64, filler.clone(), FileFormat::Csv, None)];
        let _ = policy.select_victims(&ctx(&entries_round1, 500, 60));
        // The new item is tagged with the raised baseline.
        policy.on_admit(2, &new_cheap);
        let entries = vec![
            (1u64, old_expensive, FileFormat::Csv, None),
            (2, new_cheap, FileFormat::Csv, None),
        ];
        let victims = policy.select_victims(&ctx(&entries, 500, 61));
        assert_eq!(victims, vec![1], "the stale item should age out");
    }

    #[test]
    fn farthest_first_uses_oracle() {
        let entries = vec![
            (1u64, stats(1, 100, 100, 1, 1), FileFormat::Csv, Some(12)),
            (2, stats(1, 100, 100, 1, 1), FileFormat::Csv, Some(50)),
            (3, stats(1, 100, 100, 1, 1), FileFormat::Csv, None),
        ];
        let victims = FarthestFirst.select_victims(&ctx(&entries, 150, 10));
        // Never-reused first, then farthest.
        assert_eq!(victims, vec![3, 2]);
    }

    #[test]
    fn log_optimal_weighs_cost_and_size() {
        let entries = vec![
            // Reused soon but cheap and huge: good victim.
            (1u64, stats(1, 10, 1 << 20, 1, 1), FileFormat::Csv, Some(11)),
            // Reused later but very expensive and small: keep.
            (2, stats(1, 10_000_000, 64, 1, 1), FileFormat::Csv, Some(20)),
        ];
        let victims = LogOptimal.select_victims(&ctx(&entries, 100, 10));
        assert_eq!(victims, vec![1]);
    }

    #[test]
    fn monetdb_upper_bound_prefers_single_covering_entry() {
        let entries = vec![
            (1u64, stats(1, 100, 100, 1, 1), FileFormat::Csv, None),
            (2, stats(1, 110, 100, 1, 1), FileFormat::Csv, None),
            (3, stats(1, 120, 5000, 1, 1), FileFormat::Csv, None),
            (4, stats(9, 999_999, 100, 1, 9), FileFormat::Csv, None),
        ];
        let victims = MonetDbRecycler.select_victims(&ctx(&entries, 400, 10));
        assert_eq!(victims, vec![3], "one covering entry beats many small ones");
    }

    #[test]
    fn vectorwise_evicts_low_value_per_byte() {
        let entries = vec![
            (1u64, stats(1, 1_000_000, 100, 9, 1), FileFormat::Csv, None),
            (2, stats(1, 10, 100, 9, 1), FileFormat::Csv, None),
        ];
        let victims = VectorwiseRecycler.select_victims(&ctx(&entries, 50, 10));
        assert_eq!(victims, vec![2]);
    }

    #[test]
    fn zero_need_evicts_nothing() {
        let entries = vec![(1u64, stats(1, 100, 100, 1, 1), FileFormat::Csv, None)];
        let mut policy = GreedyDualRecache::new();
        policy.on_admit(1, &entries[0].1);
        assert!(policy.select_victims(&ctx(&entries, 0, 1)).is_empty());
        assert!(Lru.select_victims(&ctx(&entries, 0, 1)).is_empty());
    }

    #[test]
    fn all_policies_free_enough_bytes() {
        let entries: Vec<(EntryId, EntryStats, FileFormat, Option<u64>)> = (0..20u64)
            .map(|i| {
                (
                    i,
                    stats(i % 5, 1000 * (i + 1), 100 + 37 * i as usize, i, i % 4),
                    if i % 2 == 0 {
                        FileFormat::Csv
                    } else {
                        FileFormat::Json
                    },
                    Some(100 + i),
                )
            })
            .collect();
        let need = 900usize;
        for kind in [
            EvictionKind::GreedyDual,
            EvictionKind::Lru,
            EvictionKind::Lfu,
            EvictionKind::LruJsonPriority,
            EvictionKind::MonetDb,
            EvictionKind::Vectorwise,
            EvictionKind::FarthestFirst,
            EvictionKind::LogOptimal,
        ] {
            let mut policy = kind.build();
            for (id, st, _, _) in &entries {
                policy.on_admit(*id, st);
            }
            let victims = policy.select_victims(&ctx(&entries, need, 50));
            let freed: usize = victims
                .iter()
                .map(|v| entries.iter().find(|(id, ..)| id == v).unwrap().1.bytes)
                .sum();
            assert!(
                freed >= need,
                "{} freed only {freed} of {need}",
                kind.name()
            );
            // No duplicates.
            let mut unique = victims.clone();
            unique.sort_unstable();
            unique.dedup();
            assert_eq!(
                unique.len(),
                victims.len(),
                "{} duplicated victims",
                kind.name()
            );
        }
    }
}

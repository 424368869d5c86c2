//! The cache registry: exact-match + range subsumption over per-leaf
//! interval lists (§3.2–3.3),
//! statistics upkeep, and capacity enforcement through an eviction policy.
//!
//! # Concurrency
//!
//! The registry is `Send + Sync` so independent sessions can admit, look
//! up and evict concurrently. Entries are partitioned into lock-striped
//! *shards* keyed by the hash of `(source, range_signature)`: an exact
//! lookup or an admission touches only the entry's home shard, while
//! subsumption walks the shards one at a time. The logical query clock,
//! the byte total and the aggregate counters are atomics; the eviction
//! policy (which is inherently stateful and global) lives behind its own
//! mutex, which doubles as the eviction serializer.
//!
//! ## Locking discipline
//!
//! * Shard locks are only ever taken **one at a time** — no operation
//!   nests one shard lock inside another. Multi-shard walks (subsumption,
//!   eviction snapshots, diagnostics) visit shards in ascending index
//!   order, releasing each before the next.
//! * The policy mutex is never acquired **while a shard lock is held**.
//!   Operations that need both (reuse bookkeeping, admission) update the
//!   shard first, release it, then talk to the policy with copied stats.
//!   Eviction holds the policy mutex across its shard visits (policy →
//!   shard is the one permitted nesting direction), which also serializes
//!   concurrent capacity enforcement.
//!
//! ## Lock poisoning
//!
//! Every lock acquisition in this module recovers from poisoning with
//! `unwrap_or_else(|e| e.into_inner())` instead of propagating the
//! panic. Poisoning only records that *some* holder panicked — it says
//! nothing about whether the guarded data is torn. Here it never is:
//! shard critical sections mutate `HashMap`/`Vec` structures through
//! single panic-safe calls, and the one cross-structure invariant
//! (an entry's bytes are in `total_bytes` iff the entry is visible in
//! its shard) has no panic point between its two halves — both updates
//! happen under the same lock with only infallible operations between
//! them. The registry is shared by every session, so wedging all future
//! queries because one scan thread panicked (e.g. an injected fault in
//! the chaos suite) would turn a contained failure into a total outage.
//! Individual sites note any extra reasoning they rely on.

use crate::eviction::{EvictView, EvictionContext, EvictionPolicy};
use crate::layout_model::LayoutHistory;
use crate::stats::{AtomicRegistryCounters, EntryStats};
use recache_data::FileFormat;
use recache_layout::{CacheData, LayoutKind};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::Instant;

pub use crate::eviction::EntryId;
pub use crate::stats::RegistryCounters;

/// A closed interval constraint on one leaf of the source schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeafRange {
    pub leaf: usize,
    pub lo: f64,
    pub hi: f64,
}

impl LeafRange {
    /// True when `self` (the cached predicate) is weaker than or equal to
    /// `other` (the query predicate) on the same leaf.
    pub fn covers(&self, other: &LeafRange) -> bool {
        self.leaf == other.leaf && self.lo <= other.lo && self.hi >= other.hi
    }
}

/// Canonical signature of a conjunctive range predicate, used for
/// exact-match lookup.
pub fn range_signature(ranges: &[LeafRange]) -> String {
    let mut sorted: Vec<&LeafRange> = ranges.iter().collect();
    sorted.sort_by_key(|a| a.leaf);
    let mut out = String::new();
    for r in sorted {
        out.push_str(&format!("{}:[{};{}];", r.leaf, r.lo, r.hi));
    }
    if out.is_empty() {
        out.push_str("true");
    }
    out
}

/// What `remove_inner` hands back: the freed bytes plus the departed
/// entry's identity (for result-cache invalidation).
struct RemovedEntry {
    bytes: usize,
    source: String,
    signature: String,
}

/// One cached operator result.
pub struct CacheEntry {
    pub id: EntryId,
    /// Source (table) name.
    pub source: String,
    /// Raw format of the source (Proteus' JSON≫CSV policy needs it).
    pub format: FileFormat,
    /// Canonical predicate signature.
    pub signature: String,
    /// Conjunctive range predicate (empty = caches the whole source).
    pub ranges: Vec<LeafRange>,
    /// Whether the entry participates in subsumption (false when the
    /// predicate had clauses beyond conjunctive ranges).
    pub subsumable: bool,
    /// The materialized data, in its current layout.
    pub data: CacheData,
    pub stats: EntryStats,
    /// Layout-selection observation window.
    pub history: LayoutHistory,
}

/// An owned point-in-time copy of one entry's metadata (diagnostics and
/// experiment output — the sharded registry cannot hand out borrows).
/// `data` is an `Arc` handle, so snapshotting does not copy cached bytes.
#[derive(Debug, Clone)]
pub struct EntrySnapshot {
    pub id: EntryId,
    pub source: String,
    pub format: FileFormat,
    pub signature: String,
    pub ranges: Vec<LeafRange>,
    pub subsumable: bool,
    pub data: CacheData,
    pub stats: EntryStats,
    /// Layout switches performed so far (from the entry's history).
    pub layout_switches: u32,
}

/// Oracle interface for the offline eviction algorithms: given an entry
/// and the current query clock, report the next query index that would
/// reuse it. `Sync` because concurrent sessions may trigger evictions.
pub trait FutureOracle: Send + Sync {
    fn next_use(&self, entry: &CacheEntry, clock: u64) -> Option<u64>;
}

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchResult {
    /// Same source + identical predicate.
    Exact(EntryId),
    /// A cached predicate that covers the query's; the query re-filters.
    Subsuming(EntryId),
    Miss,
}

impl MatchResult {
    pub fn entry(&self) -> Option<EntryId> {
        match self {
            MatchResult::Exact(id) | MatchResult::Subsuming(id) => Some(*id),
            MatchResult::Miss => None,
        }
    }
}

/// One subsumable entry's range clause on a leaf: `(lo, hi, entry)`.
type Interval = (f64, f64, EntryId);

/// Entries and indexes of one lock stripe.
#[derive(Default)]
struct Shard {
    entries: HashMap<EntryId, CacheEntry>,
    /// (source, signature) → entry, for exact matches.
    by_signature: HashMap<(String, String), EntryId>,
    /// (source, leaf) → `(lo, hi, id)` of every subsumable entry's range
    /// clause on that leaf, in admission order. Lookups scan the whole
    /// list: caches here hold tens to a few hundred entries, too few for
    /// a tree (the paper's §3.3 R-tree) to beat a flat scan.
    intervals: HashMap<(String, usize), Vec<Interval>>,
    /// Entries with no range predicate (whole-source caches), per source.
    unconstrained: HashMap<String, Vec<EntryId>>,
}

/// Default shard count. More stripes than any realistic session count so
/// admissions on distinct signatures rarely contend.
pub const DEFAULT_SHARDS: usize = 16;

/// Callback fired when an entry leaves the registry (eviction or
/// explicit removal), identified by its `(source, signature)` pair.
/// Returns how many dependent result-cache entries it invalidated; the
/// registry charges that to `result_invalidations`.
///
/// The listener runs with registry locks held (the eviction path holds
/// the policy mutex), so it must be a *leaf*: it may take its own locks
/// but must never call back into the registry.
pub type InvalidationListener = Box<dyn Fn(&str, &str) -> u64 + Send + Sync>;

/// The ReCache cache: entries, indexes, policy, capacity. See the module
/// docs for the concurrency design.
pub struct CacheRegistry {
    shards: Box<[RwLock<Shard>]>,
    /// Eviction policy. The mutex also serializes capacity enforcement.
    policy: Mutex<Box<dyn EvictionPolicy>>,
    oracle: RwLock<Option<Box<dyn FutureOracle>>>,
    /// Precise result-cache invalidation hook (see
    /// [`InvalidationListener`]); fired on every eviction/removal.
    invalidation: RwLock<Option<InvalidationListener>>,
    /// `None` = unlimited (the paper's "infinite cache" baseline).
    capacity: Option<usize>,
    total_bytes: AtomicUsize,
    next_seq: AtomicU64,
    clock: AtomicU64,
    counters: AtomicRegistryCounters,
}

impl CacheRegistry {
    pub fn new(policy: Box<dyn EvictionPolicy>, capacity: Option<usize>) -> Self {
        Self::with_shards(policy, capacity, DEFAULT_SHARDS)
    }

    /// A registry with an explicit shard count (tests; `1` reproduces a
    /// single-lock registry).
    pub fn with_shards(
        policy: Box<dyn EvictionPolicy>,
        capacity: Option<usize>,
        shards: usize,
    ) -> Self {
        let shards = shards.max(1);
        CacheRegistry {
            shards: (0..shards)
                .map(|_| RwLock::new(Shard::default()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            policy: Mutex::new(policy),
            oracle: RwLock::new(None),
            invalidation: RwLock::new(None),
            capacity,
            total_bytes: AtomicUsize::new(0),
            next_seq: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            counters: AtomicRegistryCounters::default(),
        }
    }

    /// Installs an offline future oracle (required by the offline
    /// eviction baselines).
    pub fn set_oracle(&self, oracle: Box<dyn FutureOracle>) {
        *self.oracle.write().unwrap_or_else(|e| e.into_inner()) = Some(oracle);
    }

    /// Advances the logical query clock; call once per query. Atomic, so
    /// admission/reuse decisions stay monotonic across sessions.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    pub fn clock(&self) -> u64 {
        self.clock.load(Ordering::Acquire)
    }

    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn total_bytes(&self) -> usize {
        self.total_bytes.load(Ordering::Acquire)
    }

    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Snapshot of the aggregate counters.
    pub fn counters(&self) -> RegistryCounters {
        self.counters.snapshot()
    }

    /// Counts one coalesced admission (a session reused an entry it
    /// waited for instead of redoing the scan; bumped by the session
    /// layer's single-flight logic).
    pub fn note_coalesced(&self) {
        self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query that surfaced a non-retryable scan failure.
    pub fn note_failed_scan(&self) {
        self.counters.failed_scans.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` chunk retries absorbed by the bounded-retry loop.
    pub fn note_retried_chunks(&self, n: u64) {
        if n > 0 {
            self.counters.retried_chunks.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Counts one query that hit its deadline or was cancelled.
    pub fn note_timeout(&self) {
        self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one batched raw scan that completed via the row-at-a-time
    /// degraded fallback.
    pub fn note_degraded_fallback(&self) {
        self.counters
            .degraded_fallbacks
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one single-flight follower promoted to leader after the
    /// previous leader failed or abandoned the flight.
    pub fn note_leader_failover(&self) {
        self.counters
            .leader_failovers
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one query served whole from the semantic result cache.
    pub fn note_result_hit(&self) {
        self.counters.result_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one result-cache lookup that fell through to the executor.
    pub fn note_result_miss(&self) {
        self.counters.result_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` result entries evicted by the result cache's byte budget.
    pub fn note_result_evictions(&self, n: u64) {
        if n > 0 {
            self.counters
                .result_evictions
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` result entries invalidated outside the per-entry listener
    /// path (whole-source invalidation on source registration/change).
    pub fn note_result_invalidations(&self, n: u64) {
        if n > 0 {
            self.counters
                .result_invalidations
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Installs the result-cache invalidation listener. At most one is
    /// active; the session layer installs it at build time.
    pub fn set_invalidation_listener(&self, listener: InvalidationListener) {
        *self.invalidation.write().unwrap_or_else(|e| e.into_inner()) = Some(listener);
    }

    /// Fires the invalidation listener (if any) for a departed entry and
    /// charges the dependent-result count to `result_invalidations`.
    fn fire_invalidation(&self, source: &str, signature: &str) {
        let guard = self.invalidation.read().unwrap_or_else(|e| e.into_inner());
        if let Some(listener) = guard.as_ref() {
            let n = listener(source, signature);
            if n > 0 {
                self.counters
                    .result_invalidations
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Home shard of a `(source, signature)` pair.
    fn shard_index(&self, source: &str, signature: &str) -> usize {
        let mut h = DefaultHasher::new();
        source.hash(&mut h);
        signature.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Entry ids encode their home shard (`id % shards`), so id-keyed
    /// operations find the right stripe without a global map.
    fn shard_of_id(&self, id: EntryId) -> &RwLock<Shard> {
        &self.shards[(id % self.shards.len() as u64) as usize]
    }

    /// Runs `f` against the entry under its shard's read lock.
    pub fn with_entry<R>(&self, id: EntryId, f: impl FnOnce(&CacheEntry) -> R) -> Option<R> {
        let shard = self
            .shard_of_id(id)
            .read()
            .unwrap_or_else(|e| e.into_inner());
        shard.entries.get(&id).map(f)
    }

    /// Runs `f` against the entry under its shard's write lock. Do not
    /// swap `data` here — byte accounting lives in [`Self::replace_data`].
    pub fn with_entry_mut<R>(
        &self,
        id: EntryId,
        f: impl FnOnce(&mut CacheEntry) -> R,
    ) -> Option<R> {
        let mut shard = self
            .shard_of_id(id)
            .write()
            .unwrap_or_else(|e| e.into_inner());
        shard.entries.get_mut(&id).map(f)
    }

    /// Whether the entry is still resident.
    pub fn contains(&self, id: EntryId) -> bool {
        self.with_entry(id, |_| ()).is_some()
    }

    /// Owned snapshots of every entry, ordered by id (diagnostics).
    pub fn snapshot(&self) -> Vec<EntrySnapshot> {
        let mut out = Vec::new();
        for lock in self.shards.iter() {
            let shard = lock.read().unwrap_or_else(|e| e.into_inner());
            for e in shard.entries.values() {
                out.push(EntrySnapshot {
                    id: e.id,
                    source: e.source.clone(),
                    format: e.format,
                    signature: e.signature.clone(),
                    ranges: e.ranges.clone(),
                    subsumable: e.subsumable,
                    data: e.data.clone(),
                    stats: e.stats.clone(),
                    layout_switches: e.history.switches,
                });
            }
        }
        out.sort_by_key(|e| e.id);
        out
    }

    /// Every id held by the subsumption indexes (per-leaf interval lists
    /// and whole-source lists), sorted, one per index slot: an entry with
    /// `k` range clauses appears `k` times.
    #[cfg(test)]
    pub(crate) fn indexed_ids(&self) -> Vec<EntryId> {
        let mut out = Vec::new();
        for lock in self.shards.iter() {
            let shard = lock.read().unwrap_or_else(|e| e.into_inner());
            out.extend(shard.intervals.values().flatten().map(|&(_, _, id)| id));
            out.extend(shard.unconstrained.values().flatten().copied());
        }
        out.sort_unstable();
        out
    }

    /// True when a cached item from this source is resident *and has been
    /// reused* (the admission controller's working-set heuristic). Mere
    /// residency is not enough: treating every touched file as hot would
    /// make the overhead threshold bind only on each file's very first
    /// query.
    pub fn source_in_working_set(&self, source: &str) -> bool {
        self.shards.iter().any(|lock| {
            lock.read()
                .unwrap_or_else(|e| e.into_inner())
                .entries
                .values()
                .any(|e| e.source == source && e.stats.n > 0)
        })
    }

    /// Looks up a match for a query over `source`: exact by `signature`,
    /// then subsumption over the query's conjunctive `ranges`. Returns
    /// the match and the measured lookup time `l` in nanoseconds.
    pub fn lookup(
        &self,
        source: &str,
        signature: &str,
        ranges: &[LeafRange],
    ) -> (MatchResult, u64) {
        let result = self.lookup_uncounted(source, signature, ranges);
        self.count_lookup(&result.0);
        result
    }

    /// [`Self::lookup`] without bumping the hit/miss counters. The
    /// single-flight retry loop probes the cache repeatedly for one
    /// logical table access; it counts the *final* outcome exactly once
    /// via [`Self::count_lookup`], so coalescing never inflates the
    /// hit-rate statistics.
    pub fn lookup_uncounted(
        &self,
        source: &str,
        signature: &str,
        ranges: &[LeafRange],
    ) -> (MatchResult, u64) {
        let t0 = Instant::now();
        let result = self.lookup_inner(source, signature, ranges);
        let lookup_ns = t0.elapsed().as_nanos() as u64;
        (result, lookup_ns)
    }

    /// Counts one lookup outcome in the aggregate counters.
    pub fn count_lookup(&self, result: &MatchResult) {
        let counter = match result {
            MatchResult::Exact(_) => &self.counters.hits_exact,
            MatchResult::Subsuming(_) => &self.counters.hits_subsuming,
            MatchResult::Miss => &self.counters.misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Exact match first; otherwise the covering subsumable entry with the
    /// fewest `flattened_rows`. Candidates are visited shard by shard in
    /// ascending order and, within a shard, per query leaf in admission
    /// order, then whole-source entries; among covering entries with equal
    /// `flattened_rows` the first visited wins, so which of them is picked
    /// follows that order (the answer is the same whichever it is).
    fn lookup_inner(&self, source: &str, signature: &str, ranges: &[LeafRange]) -> MatchResult {
        // 1. Exact signature match: only the home shard can hold it.
        let exact_key = (source.to_owned(), signature.to_owned());
        {
            let home = self.shards[self.shard_index(source, signature)]
                .read()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(&id) = home.by_signature.get(&exact_key) {
                return MatchResult::Exact(id);
            }
        }
        // 2. Subsumption: candidates live anywhere, so walk the shards
        //    (one read lock at a time, ascending order), gathering ids
        //    from the per-leaf interval lists and whole-source lists,
        //    then verify each candidate's full predicate is weaker.
        //    Owned index keys are built once, outside the shard walk —
        //    this sits on the measured-lookup hot path.
        let range_keys: Vec<(String, usize)> = ranges
            .iter()
            .map(|qr| (source.to_owned(), qr.leaf))
            .collect();
        let mut best: Option<(usize, EntryId)> = None;
        for lock in self.shards.iter() {
            let shard = lock.read().unwrap_or_else(|e| e.into_inner());
            let mut candidates: Vec<EntryId> = Vec::new();
            for (qr, key) in ranges.iter().zip(&range_keys) {
                if let Some(list) = shard.intervals.get(key) {
                    candidates.extend(
                        list.iter()
                            .filter(|&&(lo, hi, _)| lo <= qr.lo && hi >= qr.hi)
                            .map(|&(_, _, id)| id),
                    );
                }
            }
            // 3. Whole-source caches subsume everything on the source.
            if let Some(ids) = shard.unconstrained.get(source) {
                candidates.extend_from_slice(ids);
            }
            for id in candidates {
                let Some(entry) = shard.entries.get(&id) else {
                    continue;
                };
                let covers = entry
                    .ranges
                    .iter()
                    .all(|er| ranges.iter().any(|qr| er.covers(qr)));
                if covers {
                    let cost_proxy = entry.data.flattened_rows();
                    if best.is_none_or(|(c, _)| cost_proxy < c) {
                        best = Some((cost_proxy, id));
                    }
                }
            }
        }
        match best {
            Some((_, id)) => MatchResult::Subsuming(id),
            None => MatchResult::Miss,
        }
    }

    /// Records a reuse of `id`: scan time `s`, lookup time `l`.
    pub fn record_reuse(&self, id: EntryId, scan_ns: u64, lookup_ns: u64) {
        let clock = self.clock();
        // Update under the shard lock, then notify the policy with copied
        // stats (the policy mutex is never taken while a shard is held).
        let stats = {
            let mut shard = self
                .shard_of_id(id)
                .write()
                .unwrap_or_else(|e| e.into_inner());
            let Some(entry) = shard.entries.get_mut(&id) else {
                return;
            };
            entry.stats.record_reuse(scan_ns, lookup_ns, clock);
            entry.stats.clone()
        };
        self.policy
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .on_access(id, &stats);
    }

    /// Admits a new entry (then enforces capacity, which may evict it
    /// right back if its benefit is lowest — the admission gate of §5.1).
    ///
    /// `subsumable` must be false when the predicate has clauses beyond
    /// the conjunctive ranges (the entry then only serves exact matches).
    ///
    /// If an entry with the same `(source, signature)` was admitted
    /// concurrently (a single-flight race that slipped through), the
    /// existing entry wins and its id is returned — `by_signature` stays
    /// a bijection and no orphan entry leaks into the range indexes.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        source: &str,
        format: FileFormat,
        signature: String,
        ranges: Vec<LeafRange>,
        subsumable: bool,
        data: CacheData,
        t_ns: u64,
        c_ns: u64,
        lookup_ns: u64,
    ) -> EntryId {
        let shard_idx = self.shard_index(source, &signature);
        let id = self.next_seq.fetch_add(1, Ordering::Relaxed) * self.shards.len() as u64
            + shard_idx as u64;
        let bytes = data.byte_size();
        let clock = self.clock();
        let stats = EntryStats {
            n: 0,
            t_ns,
            c_ns,
            s_ns: 0,
            l_ns: lookup_ns,
            bytes,
            last_access: clock,
            access_count: 1,
            created_at: clock,
        };
        // Tag the policy before the entry becomes visible: a concurrent
        // eviction round must find the admission tag in place.
        self.policy
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .on_admit(id, &stats);
        let entry = CacheEntry {
            id,
            source: source.to_owned(),
            format,
            signature: signature.clone(),
            ranges,
            subsumable,
            data,
            stats,
            history: LayoutHistory::new(),
        };
        let lost_race = {
            let mut shard = self.shards[shard_idx]
                .write()
                .unwrap_or_else(|e| e.into_inner());
            let key = (source.to_owned(), signature);
            if let Some(&existing) = shard.by_signature.get(&key) {
                Some(existing)
            } else {
                shard.by_signature.insert(key, id);
                if entry.subsumable {
                    if entry.ranges.is_empty() {
                        shard
                            .unconstrained
                            .entry(source.to_owned())
                            .or_default()
                            .push(id);
                    } else {
                        for r in &entry.ranges {
                            shard
                                .intervals
                                .entry((source.to_owned(), r.leaf))
                                .or_default()
                                .push((r.lo, r.hi, id));
                        }
                    }
                }
                shard.entries.insert(id, entry);
                // Account the bytes while the entry's shard is still
                // locked: an entry is visible to eviction if and only if
                // its bytes are in the total (a remover needs this same
                // lock, so it can never subtract unaccounted bytes and
                // wrap the counter).
                self.total_bytes.fetch_add(bytes, Ordering::AcqRel);
                None
            }
        };
        if let Some(existing) = lost_race {
            // Retract the policy tag; the duplicate data is dropped.
            self.policy
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .on_remove(id);
            return existing;
        }
        self.counters.admissions.fetch_add(1, Ordering::Relaxed);
        self.enforce_capacity();
        id
    }

    /// Replaces an entry's data (layout switch or lazy→eager upgrade),
    /// optionally adding the transformation cost into `c`.
    pub fn replace_data(&self, id: EntryId, data: CacheData, extra_c_ns: u64) {
        self.replace_data_if(id, None, data, extra_c_ns);
    }

    /// [`Self::replace_data`] guarded on the entry's current layout: the
    /// swap only happens when the layout still matches `expected` (a
    /// concurrent switch/upgrade otherwise wins and the new data is
    /// dropped). Returns whether the swap was installed.
    pub fn replace_data_if(
        &self,
        id: EntryId,
        expected: Option<LayoutKind>,
        data: CacheData,
        extra_c_ns: u64,
    ) -> bool {
        {
            let mut shard = self
                .shard_of_id(id)
                .write()
                .unwrap_or_else(|e| e.into_inner());
            let Some(entry) = shard.entries.get_mut(&id) else {
                return false;
            };
            if expected.is_some_and(|kind| entry.data.layout() != kind) {
                return false;
            }
            let old_bytes = entry.stats.bytes;
            let new_bytes = data.byte_size();
            entry.data = data;
            entry.stats.bytes = new_bytes;
            entry.stats.c_ns += extra_c_ns;
            // Adjust the total before releasing the shard (same
            // visible-iff-accounted invariant as `admit`).
            if new_bytes >= old_bytes {
                self.total_bytes
                    .fetch_add(new_bytes - old_bytes, Ordering::AcqRel);
            } else {
                self.total_bytes
                    .fetch_sub(old_bytes - new_bytes, Ordering::AcqRel);
            }
        }
        self.enforce_capacity();
        true
    }

    /// Removes an entry outright. Returns whether it was resident.
    /// Dependent result-cache entries are invalidated through the
    /// listener before this returns.
    pub fn remove(&self, id: EntryId) -> bool {
        if let Some(removed) = self.remove_inner(id) {
            self.policy
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .on_remove(id);
            self.counters.removals.fetch_add(1, Ordering::Relaxed);
            self.fire_invalidation(&removed.source, &removed.signature);
            true
        } else {
            false
        }
    }

    /// De-indexes and drops the entry under its shard lock, adjusting the
    /// byte total. No policy callback — callers holding (or not holding)
    /// the policy mutex handle that themselves. Returns the freed bytes
    /// and the entry's identity so callers can fire result invalidation.
    fn remove_inner(&self, id: EntryId) -> Option<RemovedEntry> {
        let removed = {
            let mut shard = self
                .shard_of_id(id)
                .write()
                .unwrap_or_else(|e| e.into_inner());
            let entry = shard.entries.remove(&id)?;
            shard
                .by_signature
                .remove(&(entry.source.clone(), entry.signature.clone()));
            if entry.subsumable {
                if entry.ranges.is_empty() {
                    if let Some(ids) = shard.unconstrained.get_mut(&entry.source) {
                        ids.retain(|&x| x != id);
                    }
                } else {
                    for r in &entry.ranges {
                        let key = (entry.source.clone(), r.leaf);
                        if let Some(list) = shard.intervals.get_mut(&key) {
                            list.retain(|&(_, _, x)| x != id);
                        }
                    }
                }
            }
            // Subtract before releasing the shard (visible iff
            // accounted, as in `admit`).
            let bytes = entry.stats.bytes;
            self.total_bytes.fetch_sub(bytes, Ordering::AcqRel);
            RemovedEntry {
                bytes,
                source: entry.source,
                signature: entry.signature,
            }
        };
        Some(removed)
    }

    /// Evicts until `total_bytes <= capacity`. One evictor runs at a time
    /// (the policy mutex); admissions racing past the limit re-enter here
    /// and queue on the same mutex, so the budget holds at quiescence and
    /// every admission returns with the cache at or under capacity as of
    /// its own enforcement pass.
    fn enforce_capacity(&self) {
        let Some(capacity) = self.capacity else {
            return;
        };
        if self.total_bytes() <= capacity {
            return;
        }
        let mut policy = self.policy.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            let total = self.total_bytes();
            if total <= capacity {
                return;
            }
            let need = total - capacity;
            let clock = self.clock();
            let oracle = self.oracle.read().unwrap_or_else(|e| e.into_inner());
            // Per-shard candidate snapshot: owned copies, gathered one
            // shard at a time (the policy needs a global view, the shards
            // must not be held while it deliberates).
            struct Snap {
                id: EntryId,
                stats: EntryStats,
                format: FileFormat,
                source: String,
                next_use: Option<u64>,
            }
            let mut snaps: Vec<Snap> = Vec::new();
            for lock in self.shards.iter() {
                let shard = lock.read().unwrap_or_else(|e| e.into_inner());
                for e in shard.entries.values() {
                    snaps.push(Snap {
                        id: e.id,
                        stats: e.stats.clone(),
                        format: e.format,
                        source: e.source.clone(),
                        next_use: oracle.as_ref().and_then(|o| o.next_use(e, clock)),
                    });
                }
            }
            if snaps.is_empty() {
                return;
            }
            let views: Vec<EvictView<'_>> = snaps
                .iter()
                .map(|s| EvictView {
                    id: s.id,
                    stats: &s.stats,
                    format: s.format,
                    source: &s.source,
                    next_use: s.next_use,
                })
                .collect();
            let ctx = EvictionContext {
                entries: views,
                need_bytes: need,
                clock,
                has_oracle: oracle.is_some(),
            };
            let mut victims = policy.select_victims(&ctx);
            if victims.is_empty() {
                // A policy must always make progress; fall back to
                // evicting the largest entry to avoid livelock.
                victims = snaps
                    .iter()
                    .max_by_key(|s| s.stats.bytes)
                    .map(|s| vec![s.id])
                    .unwrap_or_default();
            }
            let mut progressed = false;
            for id in victims {
                // `remove_inner` is atomic per entry: a concurrent
                // `remove` and this eviction cannot both count it.
                if let Some(removed) = self.remove_inner(id) {
                    progressed = true;
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .bytes_evicted
                        .fetch_add(removed.bytes as u64, Ordering::Relaxed);
                    policy.on_remove(id);
                    // Listener is a leaf lock (never re-enters the
                    // registry), so firing it under the policy mutex is
                    // deadlock-free.
                    self.fire_invalidation(&removed.source, &removed.signature);
                }
            }
            if !progressed {
                // Every victim raced away (concurrent removes); the next
                // iteration re-snapshots. If the cache is somehow still
                // over budget with no removable entry, bail rather than
                // spin.
                if self.is_empty() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eviction::{EvictionKind, Lru};
    use recache_layout::OffsetStore;

    fn data(bytes: usize) -> CacheData {
        // Offset stores have a predictable size: 4 bytes per id + 8.
        let ids = (0..(bytes.saturating_sub(8) / 4) as u32).collect();
        CacheData::Offsets(std::sync::Arc::new(OffsetStore::build(ids, 10)))
    }

    fn registry(capacity: Option<usize>) -> CacheRegistry {
        CacheRegistry::new(Box::new(Lru), capacity)
    }

    fn ranges(leaf: usize, lo: f64, hi: f64) -> Vec<LeafRange> {
        vec![LeafRange { leaf, lo, hi }]
    }

    /// Test shims over the full admit/lookup signatures.
    trait RegistryTestExt {
        #[allow(clippy::too_many_arguments)]
        fn admit_t(
            &self,
            source: &str,
            format: FileFormat,
            rs: Vec<LeafRange>,
            data: CacheData,
            t: u64,
            c: u64,
            l: u64,
        ) -> EntryId;
        fn lookup_t(&self, source: &str, rs: &[LeafRange]) -> (MatchResult, u64);
    }

    impl RegistryTestExt for CacheRegistry {
        fn admit_t(
            &self,
            source: &str,
            format: FileFormat,
            rs: Vec<LeafRange>,
            data: CacheData,
            t: u64,
            c: u64,
            l: u64,
        ) -> EntryId {
            let sig = range_signature(&rs);
            self.admit(source, format, sig, rs, true, data, t, c, l)
        }

        fn lookup_t(&self, source: &str, rs: &[LeafRange]) -> (MatchResult, u64) {
            let sig = range_signature(rs);
            self.lookup(source, &sig, rs)
        }
    }

    #[test]
    fn exact_match_round_trip() {
        let reg = registry(None);
        let id = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 1.0, 9.0),
            data(100),
            10,
            5,
            1,
        );
        let (m, l_ns) = reg.lookup_t("t", &ranges(0, 1.0, 9.0));
        assert_eq!(m, MatchResult::Exact(id));
        let _ = l_ns;
        // Different source or predicate: miss.
        assert_eq!(reg.lookup_t("u", &ranges(0, 1.0, 9.0)).0, MatchResult::Miss);
        assert_eq!(reg.lookup_t("t", &ranges(0, 1.0, 8.0)).0.entry(), Some(id)); // subsuming
        assert_eq!(reg.lookup_t("t", &ranges(1, 1.0, 9.0)).0, MatchResult::Miss);
    }

    #[test]
    fn subsumption_requires_full_coverage() {
        let reg = registry(None);
        // Cached: leaf0 in [0, 100] AND leaf1 in [5, 10].
        let mut rs = ranges(0, 0.0, 100.0);
        rs.push(LeafRange {
            leaf: 1,
            lo: 5.0,
            hi: 10.0,
        });
        let id = reg.admit_t("t", FileFormat::Json, rs, data(100), 10, 5, 1);
        // Query narrower on both leaves: subsumed.
        let mut q = ranges(0, 10.0, 20.0);
        q.push(LeafRange {
            leaf: 1,
            lo: 6.0,
            hi: 9.0,
        });
        assert_eq!(reg.lookup_t("t", &q).0, MatchResult::Subsuming(id));
        // Query missing the leaf-1 constraint: the cached predicate is
        // NOT weaker (it restricts leaf1), so no subsumption.
        let q = ranges(0, 10.0, 20.0);
        assert_eq!(reg.lookup_t("t", &q).0, MatchResult::Miss);
        // Query wider on leaf1: not covered.
        let mut q = ranges(0, 10.0, 20.0);
        q.push(LeafRange {
            leaf: 1,
            lo: 0.0,
            hi: 9.0,
        });
        assert_eq!(reg.lookup_t("t", &q).0, MatchResult::Miss);
    }

    #[test]
    fn unconstrained_entry_subsumes_everything_on_source() {
        let reg = registry(None);
        let id = reg.admit_t("t", FileFormat::Csv, vec![], data(100), 10, 5, 1);
        assert_eq!(
            reg.lookup_t("t", &ranges(3, 1.0, 2.0)).0,
            MatchResult::Subsuming(id)
        );
        // Exact match for the predicate-less query itself.
        assert_eq!(reg.lookup_t("t", &[]).0, MatchResult::Exact(id));
        assert_eq!(
            reg.lookup_t("other", &ranges(3, 1.0, 2.0)).0,
            MatchResult::Miss
        );
    }

    #[test]
    fn best_subsuming_match_is_smallest() {
        let reg = registry(None);
        let _big = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 0.0, 1000.0),
            data(100),
            10,
            5,
            1,
        );
        let small = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 10.0, 50.0),
            data(100),
            10,
            5,
            1,
        );
        // Both cover [20, 30]; the one with fewer flattened rows wins.
        // (Both offset stores report the same rows here, so the tie keeps
        // the first found; force different sizes.)
        reg.replace_data(
            small,
            CacheData::Offsets(std::sync::Arc::new(OffsetStore::build(vec![1], 1))),
            0,
        );
        let (m, _) = reg.lookup_t("t", &ranges(0, 20.0, 30.0));
        assert_eq!(m, MatchResult::Subsuming(small));
    }

    #[test]
    fn capacity_enforcement_evicts_lru() {
        let reg = registry(Some(1000));
        let a = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 0.0, 1.0),
            data(400),
            10,
            5,
            1,
        );
        reg.tick();
        let b = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 2.0, 3.0),
            data(400),
            10,
            5,
            1,
        );
        reg.tick();
        // Touch a so b becomes the LRU victim.
        reg.record_reuse(a, 5, 1);
        let _c = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 4.0, 5.0),
            data(400),
            10,
            5,
            1,
        );
        assert!(reg.total_bytes() <= 1000);
        assert!(reg.contains(a));
        assert!(!reg.contains(b), "LRU victim should be evicted");
        assert_eq!(reg.counters().evictions, 1);
        // Evicted entries leave the indexes too.
        assert_eq!(reg.lookup_t("t", &ranges(0, 2.0, 3.0)).0, MatchResult::Miss);
    }

    #[test]
    fn replace_data_adjusts_totals() {
        let reg = registry(None);
        let id = reg.admit_t("t", FileFormat::Csv, vec![], data(400), 10, 5, 1);
        let before = reg.total_bytes();
        reg.replace_data(id, data(800), 42);
        assert!(reg.total_bytes() > before);
        reg.with_entry(id, |entry| {
            assert_eq!(entry.stats.c_ns, 5 + 42);
            assert_eq!(entry.stats.bytes, entry.data.byte_size());
        })
        .unwrap();
    }

    #[test]
    fn replace_data_if_guards_on_layout() {
        let reg = registry(None);
        let id = reg.admit_t("t", FileFormat::Csv, vec![], data(100), 10, 5, 1);
        // Entry is an offsets store; a guard expecting columnar loses.
        assert!(!reg.replace_data_if(id, Some(LayoutKind::Columnar), data(800), 1));
        assert!(reg.replace_data_if(id, Some(LayoutKind::Offsets), data(800), 1));
    }

    #[test]
    fn reuse_updates_stats_and_counters() {
        let reg = registry(None);
        let id = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 0.0, 9.0),
            data(100),
            10,
            5,
            1,
        );
        reg.tick();
        let (m, l) = reg.lookup_t("t", &ranges(0, 1.0, 2.0));
        assert_eq!(m, MatchResult::Subsuming(id));
        reg.record_reuse(id, 123, l);
        reg.with_entry(id, |entry| {
            assert_eq!(entry.stats.n, 1);
            assert_eq!(entry.stats.s_ns, 123);
            assert_eq!(entry.stats.last_access, 1);
        })
        .unwrap();
        assert_eq!(reg.counters().hits_subsuming, 1);
    }

    #[test]
    fn working_set_tracking() {
        let reg = registry(None);
        assert!(!reg.source_in_working_set("t"));
        let id = reg.admit_t("t", FileFormat::Csv, vec![], data(100), 10, 5, 1);
        // Residency alone is not enough: the entry must have been reused.
        assert!(!reg.source_in_working_set("t"));
        reg.record_reuse(id, 5, 1);
        assert!(reg.source_in_working_set("t"));
        assert!(reg.remove(id));
        assert!(!reg.remove(id), "second remove is a no-op");
        assert!(!reg.source_in_working_set("t"));
        assert!(reg.is_empty());
        assert_eq!(reg.total_bytes(), 0);
    }

    #[test]
    fn duplicate_signature_admission_returns_existing_entry() {
        let reg = registry(None);
        let first = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 1.0, 2.0),
            data(100),
            10,
            5,
            1,
        );
        let second = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 1.0, 2.0),
            data(400),
            10,
            5,
            1,
        );
        assert_eq!(first, second);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.counters().admissions, 1);
        // The byte total reflects only the surviving entry.
        assert_eq!(
            reg.total_bytes(),
            reg.snapshot().iter().map(|e| e.stats.bytes).sum::<usize>()
        );
    }

    struct FixedOracle;
    impl FutureOracle for FixedOracle {
        fn next_use(&self, entry: &CacheEntry, _clock: u64) -> Option<u64> {
            // Entries on leaf 0 reused at query 100; others never.
            entry
                .ranges
                .first()
                .and_then(|r| (r.leaf == 0).then_some(100))
        }
    }

    #[test]
    fn offline_policy_consults_oracle() {
        let reg = CacheRegistry::new(EvictionKind::FarthestFirst.build(), Some(900));
        reg.set_oracle(Box::new(FixedOracle));
        let keep = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 0.0, 1.0),
            data(400),
            10,
            5,
            1,
        );
        let drop = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(1, 0.0, 1.0),
            data(400),
            10,
            5,
            1,
        );
        let _third = reg.admit_t(
            "t",
            FileFormat::Csv,
            ranges(0, 2.0, 3.0),
            data(400),
            10,
            5,
            1,
        );
        assert!(reg.contains(keep));
        assert!(!reg.contains(drop), "never-reused entry evicted first");
    }

    #[test]
    fn signature_is_order_insensitive() {
        let a = vec![
            LeafRange {
                leaf: 2,
                lo: 1.0,
                hi: 2.0,
            },
            LeafRange {
                leaf: 0,
                lo: 5.0,
                hi: 6.0,
            },
        ];
        let b = vec![
            LeafRange {
                leaf: 0,
                lo: 5.0,
                hi: 6.0,
            },
            LeafRange {
                leaf: 2,
                lo: 1.0,
                hi: 2.0,
            },
        ];
        assert_eq!(range_signature(&a), range_signature(&b));
        assert_eq!(range_signature(&[]), "true");
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CacheRegistry>();
    }

    /// SplitMix64: a dependency-free seeded generator for the randomized
    /// lookup test.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }
    }

    /// 0–3 clauses on distinct leaves of 0..4. Bounds come from a small
    /// grid with both infinities, so point, duplicate and nested intervals
    /// are common.
    fn random_ranges(rng: &mut SplitMix) -> Vec<LeafRange> {
        const GRID: [f64; 8] = [
            f64::NEG_INFINITY,
            0.0,
            1.0,
            2.0,
            3.0,
            5.0,
            8.0,
            f64::INFINITY,
        ];
        let mut leaves = vec![0, 1, 2, 3];
        let mut out = Vec::new();
        for _ in 0..rng.below(4) {
            let leaf = leaves.swap_remove(rng.below(leaves.len()));
            let a = GRID[rng.below(GRID.len())];
            let b = if rng.chance(20) {
                a
            } else {
                GRID[rng.below(GRID.len())]
            };
            out.push(LeafRange {
                leaf,
                lo: a.min(b),
                hi: a.max(b),
            });
        }
        out
    }

    /// What `lookup` must return, computed from `snapshot()` alone.
    fn brute_force_ok(
        snapshot: &[EntrySnapshot],
        source: &str,
        signature: &str,
        ranges: &[LeafRange],
        got: MatchResult,
    ) -> bool {
        if snapshot
            .iter()
            .any(|e| e.source == source && e.signature == signature)
        {
            return snapshot.iter().any(|e| {
                got == MatchResult::Exact(e.id) && e.source == source && e.signature == signature
            });
        }
        let covering: Vec<&EntrySnapshot> = snapshot
            .iter()
            .filter(|e| {
                e.source == source
                    && e.subsumable
                    && e.ranges
                        .iter()
                        .all(|er| ranges.iter().any(|qr| er.covers(qr)))
            })
            .collect();
        let Some(min_rows) = covering.iter().map(|e| e.data.flattened_rows()).min() else {
            return got == MatchResult::Miss;
        };
        covering
            .iter()
            .any(|e| got == MatchResult::Subsuming(e.id) && e.data.flattened_rows() == min_rows)
    }

    #[test]
    fn lookup_matches_brute_force_over_snapshot() {
        for seed in [1u64, 42, 43, 2024] {
            let mut rng = SplitMix(seed);
            let reg = CacheRegistry::with_shards(Box::new(Lru), Some(4_000), 4);
            let sources = ["a", "b"];
            for step in 0..800 {
                reg.tick();
                let source = sources[rng.below(2)];
                let roll = rng.below(100);
                if roll < 55 {
                    let rs = random_ranges(&mut rng);
                    // Non-subsumable entries stand for predicates with
                    // clauses beyond the ranges: their own signature.
                    let subsumable = !rng.chance(15);
                    let mut sig = range_signature(&rs);
                    if !subsumable {
                        sig.push_str("|or");
                    }
                    let ids = (0..1 + rng.below(100) as u32).collect();
                    let rows = 1 + rng.below(4);
                    let data =
                        CacheData::Offsets(std::sync::Arc::new(OffsetStore::build(ids, rows)));
                    reg.admit(source, FileFormat::Csv, sig, rs, subsumable, data, 10, 5, 1);
                } else if roll < 70 {
                    let resident = reg.snapshot();
                    if !resident.is_empty() {
                        reg.remove(resident[rng.below(resident.len())].id);
                    }
                }
                let snapshot = reg.snapshot();
                for _ in 0..4 {
                    let source = sources[rng.below(2)];
                    // About a third of the probes replay a resident entry's predicate
                    // (exact hits, non-subsumable ones included).
                    let (sig, rs) = if !snapshot.is_empty() && rng.chance(30) {
                        let e = &snapshot[rng.below(snapshot.len())];
                        (e.signature.clone(), e.ranges.clone())
                    } else {
                        let rs = random_ranges(&mut rng);
                        (range_signature(&rs), rs)
                    };
                    let (got, _) = reg.lookup(source, &sig, &rs);
                    assert!(
                        brute_force_ok(&snapshot, source, &sig, &rs, got),
                        "seed {seed} step {step}: lookup({source}, {sig}) = {got:?}"
                    );
                }
            }
            let c = reg.counters();
            assert!(c.evictions > 0 && c.removals > 0, "seed {seed}: {c:?}");
            assert!(c.hits_subsuming > 0 && c.hits_exact > 0 && c.misses > 0);
        }
    }

    #[test]
    fn concurrent_admissions_respect_budget_and_reconcile() {
        use std::sync::Arc;
        let reg = Arc::new(CacheRegistry::with_shards(Box::new(Lru), Some(4_000), 8));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        reg.tick();
                        let leaf = (t * 50 + i) as usize;
                        let id = reg.admit_t(
                            "t",
                            FileFormat::Csv,
                            ranges(leaf, 0.0, 1.0),
                            data(400),
                            10,
                            5,
                            1,
                        );
                        reg.lookup_t("t", &ranges(leaf, 0.2, 0.8));
                        reg.record_reuse(id, 7, 1);
                    }
                });
            }
        });
        assert!(reg.total_bytes() <= 4_000, "budget held at quiescence");
        let c = reg.counters();
        let snapshot = reg.snapshot();
        assert_eq!(
            c.admissions,
            snapshot.len() as u64 + c.evictions,
            "admissions must reconcile with residents + evictions"
        );
        assert_eq!(
            reg.total_bytes(),
            snapshot.iter().map(|e| e.stats.bytes).sum::<usize>(),
            "atomic byte total must match the entries"
        );
    }
}

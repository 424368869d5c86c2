//! The cache registry: exact-match + range subsumption over per-leaf
//! interval lists (§3.2–3.3),
//! statistics upkeep, and capacity enforcement through an eviction policy.
//!
//! # Concurrency
//!
//! The registry is `Send + Sync` so independent sessions can admit, look
//! up and evict concurrently. One `RwLock` guards its state: the entries,
//! the per-source indexes, the eviction policy and the byte total. A
//! lookup is one read-locked section; admission, a hit's bookkeeping
//! ([`CacheRegistry::record_hit`]: reuse statistics, the §4.2 observation
//! and layout decision, a lazy entry's in-pass upgrade), a data swap,
//! removal and eviction are each one write-locked section, which also
//! serializes capacity enforcement. The logical query clock, the id
//! sequence and the aggregate counters are atomics.
//!
//! ## Locking discipline
//!
//! The offline [`FutureOracle`] and the result-cache
//! [`InvalidationListener`] run under the state lock, so they must never
//! call back into the registry.
//!
//! ## Lock poisoning
//!
//! Every lock acquisition in this module recovers from poisoning with
//! `unwrap_or_else(|e| e.into_inner())` instead of propagating the
//! panic. Poisoning only records that *some* holder panicked — it says
//! nothing about whether the guarded data is torn. Here it never is:
//! critical sections mutate `HashMap`/`Vec` structures through single
//! panic-safe calls, and the one cross-structure invariant (an entry's
//! bytes are in the byte total iff the entry is resident) has no panic
//! point between its two halves — both updates happen in the same
//! critical section with only infallible operations between them. The
//! registry is shared by every session, so wedging all future queries
//! because one scan thread panicked (e.g. an injected fault in the chaos
//! suite) would turn a contained failure into a total outage.

use crate::eviction::{EvictView, EvictionContext, EvictionPolicy};
use crate::layout_model::{LayoutDecision, LayoutHistory, StoreScan};
use crate::stats::{AtomicRegistryCounters, EntryStats};
use recache_data::{FileFormat, StoreChoice};
use recache_layout::{CacheData, LayoutKind, OffsetStore};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
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
/// experiment output, usable after the registry lock is released).
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

/// The builds a hit leaves to its caller, to run outside the lock.
#[derive(Debug, Default)]
pub struct HitOutcome {
    /// A decided layout switch: the target and the store to rebuild.
    pub switch: Option<(StoreChoice, CacheData)>,
    /// The offsets of an entry still lazy (no in-pass build came).
    pub lazy: Option<Arc<OffsetStore>>,
}

/// One subsumable entry's range clause on a leaf: `(lo, hi, entry)`.
type Interval = (f64, f64, EntryId);

/// The exact-match and subsumption indexes of one source.
#[derive(Default)]
struct SourceIndex {
    /// signature → entry, for exact matches.
    by_signature: HashMap<String, EntryId>,
    /// leaf → `(lo, hi, id)` of every subsumable entry's range clause on
    /// that leaf, in admission order. Lookups scan the whole list: caches
    /// here hold tens to a few hundred entries, too few for a tree (the
    /// paper's §3.3 R-tree) to beat a flat scan.
    intervals: HashMap<usize, Vec<Interval>>,
    /// Subsumable entries with no range predicate (whole-source caches).
    unconstrained: Vec<EntryId>,
}

/// Everything the registry lock guards.
struct State {
    entries: HashMap<EntryId, CacheEntry>,
    /// Source name → its indexes.
    sources: HashMap<String, SourceIndex>,
    policy: Box<dyn EvictionPolicy>,
    /// Sum of the resident entries' `stats.bytes`.
    total_bytes: usize,
}

impl State {
    /// Exact match first; otherwise the covering subsumable entry with the
    /// fewest `flattened_rows`, the first admitted among equals. Returns
    /// the match and the matched entry's data.
    fn lookup(
        &self,
        source: &str,
        signature: &str,
        ranges: &[LeafRange],
    ) -> Option<(MatchResult, &CacheData)> {
        let index = self.sources.get(source)?;
        if let Some(&id) = index.by_signature.get(signature) {
            return Some((MatchResult::Exact(id), &self.entries[&id].data));
        }
        // Candidates: entries with a clause covering one of the query's,
        // then whole-source entries; each candidate's full predicate must
        // be weaker. An entry with clauses on several query leaves is
        // visited once per leaf, which changes nothing.
        let covering_clauses = ranges.iter().flat_map(|qr| {
            index
                .intervals
                .get(&qr.leaf)
                .into_iter()
                .flatten()
                .filter(|&&(lo, hi, _)| lo <= qr.lo && hi >= qr.hi)
                .map(|&(_, _, id)| id)
        });
        let mut best: Option<(usize, EntryId, &CacheData)> = None;
        for id in covering_clauses.chain(index.unconstrained.iter().copied()) {
            let entry = &self.entries[&id];
            let covers = entry
                .ranges
                .iter()
                .all(|er| ranges.iter().any(|qr| er.covers(qr)));
            if covers {
                // Ids grow with admission order, so they break ties.
                let rows = entry.data.flattened_rows();
                if best.is_none_or(|(r, b, _)| (rows, id) < (r, b)) {
                    best = Some((rows, id, &entry.data));
                }
            }
        }
        best.map(|(_, id, data)| (MatchResult::Subsuming(id), data))
    }
}

/// Callback fired when an entry leaves the registry (eviction or
/// explicit removal), identified by its `(source, signature)` pair.
/// Returns how many dependent result-cache entries it invalidated; the
/// registry charges that to `result_invalidations`.
///
/// The listener runs under the registry lock, so it must be a *leaf*: it
/// may take its own locks but must never call back into the registry.
pub type InvalidationListener = Box<dyn Fn(&str, &str) -> u64 + Send + Sync>;

/// The ReCache cache: entries, indexes, policy, capacity. See the module
/// docs for the concurrency design.
pub struct CacheRegistry {
    state: RwLock<State>,
    oracle: RwLock<Option<Box<dyn FutureOracle>>>,
    /// Precise result-cache invalidation hook (see
    /// [`InvalidationListener`]); fired on every eviction/removal.
    invalidation: RwLock<Option<InvalidationListener>>,
    /// `None` = unlimited (the paper's "infinite cache" baseline).
    capacity: Option<usize>,
    next_id: AtomicU64,
    clock: AtomicU64,
    counters: AtomicRegistryCounters,
}

impl CacheRegistry {
    pub fn new(policy: Box<dyn EvictionPolicy>, capacity: Option<usize>) -> Self {
        CacheRegistry {
            state: RwLock::new(State {
                entries: HashMap::new(),
                sources: HashMap::new(),
                policy,
                total_bytes: 0,
            }),
            oracle: RwLock::new(None),
            invalidation: RwLock::new(None),
            capacity,
            next_id: AtomicU64::new(1),
            clock: AtomicU64::new(0),
            counters: AtomicRegistryCounters::default(),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, State> {
        self.state.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, State> {
        self.state.write().unwrap_or_else(|e| e.into_inner())
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
        self.read().entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn total_bytes(&self) -> usize {
        self.read().total_bytes
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

    /// Runs `f` against the entry under the read lock.
    pub fn with_entry<R>(&self, id: EntryId, f: impl FnOnce(&CacheEntry) -> R) -> Option<R> {
        self.read().entries.get(&id).map(f)
    }

    /// Runs `f` against the entry under the write lock. Do not swap
    /// `data` here — byte accounting lives in [`Self::replace_data_if`].
    pub fn with_entry_mut<R>(
        &self,
        id: EntryId,
        f: impl FnOnce(&mut CacheEntry) -> R,
    ) -> Option<R> {
        self.write().entries.get_mut(&id).map(f)
    }

    /// Whether the entry is still resident.
    pub fn contains(&self, id: EntryId) -> bool {
        self.read().entries.contains_key(&id)
    }

    /// Owned snapshots of every entry, ordered by id (diagnostics).
    pub fn snapshot(&self) -> Vec<EntrySnapshot> {
        let mut out: Vec<EntrySnapshot> = self
            .read()
            .entries
            .values()
            .map(|e| EntrySnapshot {
                id: e.id,
                source: e.source.clone(),
                format: e.format,
                signature: e.signature.clone(),
                ranges: e.ranges.clone(),
                subsumable: e.subsumable,
                data: e.data.clone(),
                stats: e.stats.clone(),
                layout_switches: e.history.switches,
            })
            .collect();
        out.sort_by_key(|e| e.id);
        out
    }

    /// Checks, under one read lock, that the byte total is the sum of the
    /// entries' bytes, that signatures and entries are one-to-one, that
    /// the interval and whole-source lists hold exactly the range clauses
    /// of the resident subsumable entries, and that `admissions == len +
    /// evictions + removals` (those counters move inside the same
    /// critical sections as the entries). Returns the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let st = self.read();
        let bytes: usize = st.entries.values().map(|e| e.stats.bytes).sum();
        if bytes != st.total_bytes {
            return Err(format!(
                "byte total {} != {bytes} summed over the entries",
                st.total_bytes
            ));
        }
        // Index slots and entry clauses as `(source, leaf, lo, hi, id)`;
        // a whole-source entry has the one slot `(source, None, 0, 0, id)`.
        let mut signatures = 0;
        let mut indexed = Vec::new();
        for (source, index) in &st.sources {
            for (signature, id) in &index.by_signature {
                signatures += 1;
                if !st
                    .entries
                    .get(id)
                    .is_some_and(|e| e.source == *source && e.signature == *signature)
                {
                    return Err(format!("({source}, {signature}) names entry {id} wrongly"));
                }
            }
            for (&leaf, list) in &index.intervals {
                indexed.extend(list.iter().map(|&(lo, hi, id)| {
                    (source.as_str(), Some(leaf), lo.to_bits(), hi.to_bits(), id)
                }));
            }
            indexed.extend(
                index
                    .unconstrained
                    .iter()
                    .map(|&id| (source.as_str(), None, 0, 0, id)),
            );
        }
        if signatures != st.entries.len() {
            return Err(format!(
                "{signatures} signatures for {} entries",
                st.entries.len()
            ));
        }
        let mut clauses = Vec::new();
        for e in st.entries.values().filter(|e| e.subsumable) {
            let source = e.source.as_str();
            if e.ranges.is_empty() {
                clauses.push((source, None, 0, 0, e.id));
            }
            clauses.extend(
                e.ranges
                    .iter()
                    .map(|r| (source, Some(r.leaf), r.lo.to_bits(), r.hi.to_bits(), e.id)),
            );
        }
        indexed.sort_unstable();
        clauses.sort_unstable();
        if indexed != clauses {
            return Err("the subsumption indexes disagree with the entries".to_owned());
        }
        let c = self.counters();
        if c.admissions != st.entries.len() as u64 + c.evictions + c.removals {
            return Err(format!(
                "{} admissions != {} entries + {} evictions + {} removals",
                c.admissions,
                st.entries.len(),
                c.evictions,
                c.removals
            ));
        }
        Ok(())
    }

    /// True when a cached item from this source is resident *and has been
    /// reused* (the admission controller's working-set heuristic). Mere
    /// residency is not enough: treating every touched file as hot would
    /// make the overhead threshold bind only on each file's very first
    /// query.
    pub fn source_in_working_set(&self, source: &str) -> bool {
        let st = self.read();
        st.sources.get(source).is_some_and(|index| {
            index
                .by_signature
                .values()
                .any(|id| st.entries[id].stats.n > 0)
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
        let (result, _, lookup_ns) = self.lookup_uncounted(source, signature, ranges);
        self.count_lookup(&result);
        (result, lookup_ns)
    }

    /// [`Self::lookup`] without bumping the hit/miss counters, also
    /// returning a hit's data (an `Arc` handle taken in the lookup's own
    /// critical section). The single-flight retry loop probes the cache
    /// repeatedly for one logical table access; it counts the *final*
    /// outcome exactly once via [`Self::count_lookup`], so coalescing
    /// never inflates the hit-rate statistics.
    pub fn lookup_uncounted(
        &self,
        source: &str,
        signature: &str,
        ranges: &[LeafRange],
    ) -> (MatchResult, Option<CacheData>, u64) {
        let t0 = Instant::now();
        let (result, data) = match self.read().lookup(source, signature, ranges) {
            Some((m, data)) => (m, Some(data.clone())),
            None => (MatchResult::Miss, None),
        };
        (result, data, t0.elapsed().as_nanos() as u64)
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

    /// Settles one hit on `id` in one write-locked section: records the
    /// reuse (scan time `s`, lookup time `l`) and tells the eviction
    /// policy; with `scan` set (a store scan the §4.2 model prices),
    /// observes it and takes the layout decision; and installs `built`, a
    /// lazy entry's eager store built in the scan pass, with its build
    /// time. An evicted entry settles nothing.
    pub fn record_hit(
        &self,
        id: EntryId,
        scan_ns: u64,
        lookup_ns: u64,
        scan: Option<StoreScan>,
        built: Option<(CacheData, u64)>,
    ) -> HitOutcome {
        let clock = self.clock();
        let mut guard = self.write();
        let st = &mut *guard;
        let Some(entry) = st.entries.get_mut(&id) else {
            return HitOutcome::default();
        };
        entry.stats.record_reuse(scan_ns, lookup_ns, clock);
        st.policy.on_access(id, &entry.stats);
        let switch = scan.and_then(|scan| {
            let to = match entry.history.observe_scan(&scan, &entry.data) {
                LayoutDecision::SwitchToColumnar => StoreChoice::Columnar,
                LayoutDecision::SwitchToDremel => StoreChoice::Dremel,
                LayoutDecision::Stay => return None,
            };
            Some((to, entry.data.clone()))
        });
        if let Some((data, build_ns)) = built {
            self.swap_locked(st, id, Some(LayoutKind::Offsets), data, build_ns);
        }
        let lazy = st.entries.get(&id).and_then(|entry| match &entry.data {
            CacheData::Offsets(store) => Some(Arc::clone(store)),
            _ => None,
        });
        HitOutcome { switch, lazy }
    }

    /// Admits a new entry (then enforces capacity, which may evict it
    /// right back if its benefit is lowest — the admission gate of §5.1).
    ///
    /// `subsumable` must be false when the predicate has clauses beyond
    /// the conjunctive ranges (the entry then only serves exact matches).
    ///
    /// If an entry with the same `(source, signature)` is already
    /// resident (a single-flight race that slipped through), it wins and
    /// its id is returned; the new data is dropped.
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
        let mut guard = self.write();
        let st = &mut *guard;
        let index = st.sources.entry(source.to_owned()).or_default();
        if let Some(&existing) = index.by_signature.get(&signature) {
            return existing;
        }
        // Allocated under the lock, so ids follow admission order.
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        index.by_signature.insert(signature.clone(), id);
        if subsumable {
            if ranges.is_empty() {
                index.unconstrained.push(id);
            }
            for r in &ranges {
                index
                    .intervals
                    .entry(r.leaf)
                    .or_default()
                    .push((r.lo, r.hi, id));
            }
        }
        st.policy.on_admit(id, &stats);
        st.total_bytes += bytes;
        st.entries.insert(
            id,
            CacheEntry {
                id,
                source: source.to_owned(),
                format,
                signature,
                ranges,
                subsumable,
                data,
                stats,
                history: LayoutHistory::new(),
            },
        );
        self.counters.admissions.fetch_add(1, Ordering::Relaxed);
        self.enforce_capacity(st);
        id
    }

    /// Replaces an entry's data (layout switch or lazy→eager upgrade),
    /// adding the transformation cost into `c`. With `expected` set, the
    /// swap only happens when the entry's layout still matches it (a
    /// concurrent switch/upgrade otherwise wins and the new data is
    /// dropped). A swap from one eager layout to another is a layout
    /// switch: it restarts the entry's §4.2 window in the same section.
    /// Returns whether the swap was installed.
    pub fn replace_data_if(
        &self,
        id: EntryId,
        expected: Option<LayoutKind>,
        data: CacheData,
        extra_c_ns: u64,
    ) -> bool {
        self.swap_locked(&mut self.write(), id, expected, data, extra_c_ns)
    }

    /// [`Self::replace_data_if`] inside the caller's write-locked section.
    fn swap_locked(
        &self,
        st: &mut State,
        id: EntryId,
        expected: Option<LayoutKind>,
        data: CacheData,
        extra_c_ns: u64,
    ) -> bool {
        let Some(entry) = st.entries.get_mut(&id) else {
            return false;
        };
        let from = entry.data.layout();
        if expected.is_some_and(|kind| from != kind) {
            return false;
        }
        if from != LayoutKind::Offsets && from != data.layout() {
            entry.history.reset_window();
        }
        let new_bytes = data.byte_size();
        st.total_bytes = st.total_bytes - entry.stats.bytes + new_bytes;
        entry.data = data;
        entry.stats.bytes = new_bytes;
        entry.stats.c_ns += extra_c_ns;
        self.enforce_capacity(st);
        true
    }

    /// Removes an entry outright. Returns whether it was resident.
    /// Dependent result-cache entries are invalidated through the
    /// listener before this returns.
    pub fn remove(&self, id: EntryId) -> bool {
        let mut st = self.write();
        let removed = self.remove_locked(&mut st, id).is_some();
        if removed {
            self.counters.removals.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// De-indexes and drops the entry, adjusts the byte total, tells the
    /// policy and fires result invalidation. Returns the freed bytes.
    fn remove_locked(&self, st: &mut State, id: EntryId) -> Option<usize> {
        let entry = st.entries.remove(&id)?;
        if let Some(index) = st.sources.get_mut(&entry.source) {
            index.by_signature.remove(&entry.signature);
            if entry.subsumable {
                if entry.ranges.is_empty() {
                    index.unconstrained.retain(|&x| x != id);
                }
                for r in &entry.ranges {
                    if let Some(list) = index.intervals.get_mut(&r.leaf) {
                        list.retain(|&(_, _, x)| x != id);
                    }
                }
            }
        }
        st.total_bytes -= entry.stats.bytes;
        st.policy.on_remove(id);
        let guard = self.invalidation.read().unwrap_or_else(|e| e.into_inner());
        if let Some(listener) = guard.as_ref() {
            let n = listener(&entry.source, &entry.signature);
            if n > 0 {
                self.counters
                    .result_invalidations
                    .fetch_add(n, Ordering::Relaxed);
            }
        }
        Some(entry.stats.bytes)
    }

    /// Evicts until the byte total is within capacity. It runs inside the
    /// caller's write-locked section, so every admission or swap returns
    /// with the cache at or under budget.
    fn enforce_capacity(&self, st: &mut State) {
        let Some(capacity) = self.capacity else {
            return;
        };
        while st.total_bytes > capacity && !st.entries.is_empty() {
            let clock = self.clock();
            let oracle = self.oracle.read().unwrap_or_else(|e| e.into_inner());
            let ctx = EvictionContext {
                entries: st
                    .entries
                    .values()
                    .map(|e| EvictView {
                        id: e.id,
                        stats: &e.stats,
                        format: e.format,
                        source: &e.source,
                        next_use: oracle.as_ref().and_then(|o| o.next_use(e, clock)),
                    })
                    .collect(),
                need_bytes: st.total_bytes - capacity,
                clock,
                has_oracle: oracle.is_some(),
            };
            let mut victims = st.policy.select_victims(&ctx);
            if victims.is_empty() {
                // A policy must always make progress; fall back to
                // evicting the largest entry to avoid livelock.
                victims.extend(
                    ctx.entries
                        .iter()
                        .max_by_key(|v| v.stats.bytes)
                        .map(|v| v.id),
                );
            }
            let mut progressed = false;
            for id in victims {
                if let Some(bytes) = self.remove_locked(st, id) {
                    progressed = true;
                    self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                    self.counters
                        .bytes_evicted
                        .fetch_add(bytes as u64, Ordering::Relaxed);
                }
            }
            if !progressed {
                // Only non-resident victims: bail rather than spin.
                return;
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
        let big = reg.admit_t(
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
        // Both cover [20, 30] with the same flattened rows: the first
        // admitted wins the tie.
        assert_eq!(
            reg.lookup_t("t", &ranges(0, 20.0, 30.0)).0,
            MatchResult::Subsuming(big)
        );
        // The one with fewer flattened rows wins.
        assert!(reg.replace_data_if(
            small,
            None,
            CacheData::Offsets(std::sync::Arc::new(OffsetStore::build(vec![1], 1))),
            0,
        ));
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
        reg.record_hit(a, 5, 1, None, None);
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
        assert!(reg.replace_data_if(id, None, data(800), 42));
        assert!(reg.total_bytes() > before);
        reg.check_invariants().unwrap();
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
        reg.record_hit(id, 123, l, None, None);
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
        reg.record_hit(id, 5, 1, None, None);
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
        // Snapshots are in id (admission) order: the first at the minimum
        // wins.
        covering
            .iter()
            .find(|e| e.data.flattened_rows() == min_rows)
            .is_some_and(|e| got == MatchResult::Subsuming(e.id))
    }

    #[test]
    fn lookup_matches_brute_force_over_snapshot() {
        for seed in [1u64, 42, 43, 2024] {
            let mut rng = SplitMix(seed);
            let reg = registry(Some(4_000));
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
                reg.check_invariants()
                    .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
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

    /// A hit settles in one section: the same scans fed through
    /// `record_hit` and through a bare `LayoutHistory` (with the §4.2
    /// attribution written out) give the same decisions; an installed
    /// switch restarts the window and counts once; an installed upgrade
    /// counts nothing.
    #[test]
    fn record_hit_decides_as_a_bare_history() {
        use crate::layout_model::QueryObservation;
        use recache_data::gen::tpch;
        use recache_layout::{ColumnStore, DremelStore, ScanCost};

        let schema = tpch::order_lineitems_schema();
        let records = tpch::gen_order_lineitems(0.0003, 42);
        let dremel = CacheData::Dremel(Arc::new(DremelStore::build(&schema, &records)));
        let columnar = CacheData::Columnar(Arc::new(ColumnStore::build(&schema, &records)));
        assert!(dremel.record_count() < dremel.flattened_rows());
        let reg = registry(None);
        let switches = |id| reg.with_entry(id, |e| e.history.switches).unwrap();

        // A lazy hit without an in-pass build reports the offsets; one
        // with a build installs it, which is not a layout switch.
        let id = reg.admit_t("t", FileFormat::Json, vec![], data(100), 10, 5, 1);
        let out = reg.record_hit(id, 5, 1, None, None);
        assert!(out.switch.is_none() && out.lazy.is_some());
        let out = reg.record_hit(id, 5, 1, None, Some((dremel.clone(), 7)));
        assert!(out.switch.is_none() && out.lazy.is_none());
        reg.with_entry(id, |e| {
            assert_eq!(e.data.layout(), LayoutKind::Dremel);
            assert_eq!((e.stats.n, e.stats.c_ns), (2, 5 + 7));
        })
        .unwrap();
        assert_eq!(switches(id), 0);
        reg.check_invariants().unwrap();

        let mut bare = LayoutHistory::new();
        let mut rng = SplitMix(7);
        let mut installed = 0;
        for step in 0..900 {
            // Phases of 150 hits, longer than the window: element-level
            // with heavy assembly (columnar pays), then record-level with
            // little (Dremel pays).
            let element_level = step / 150 % 2 == 0;
            let cost = ScanCost {
                data_ns: 1_000 + rng.below(1_000) as u64,
                compute_ns: if element_level {
                    5_000 + rng.below(5_000) as u64
                } else {
                    rng.below(200) as u64
                },
                rows: 0,
                rows_visited: 0,
            };
            let scan = StoreScan {
                cost,
                record_level: !element_level,
                cols: 1 + rng.below(4),
            };
            let data = reg.with_entry(id, |e| e.data.clone()).unwrap();
            let layout = data.layout();
            let (d_ns, c_ns) = if layout == LayoutKind::Dremel {
                (cost.data_ns, cost.compute_ns)
            } else {
                (cost.total_ns(), 0)
            };
            let rows = if scan.record_level {
                data.record_count()
            } else {
                data.flattened_rows()
            };
            bare.observe(QueryObservation {
                d_ns,
                c_ns,
                rows,
                cols: scan.cols,
                layout,
            });
            let expected = bare.decide_nested(layout, data.flattened_rows());

            let out = reg.record_hit(id, 5, 1, Some(scan), None);
            assert!(out.lazy.is_none());
            let got = match &out.switch {
                None => LayoutDecision::Stay,
                Some((StoreChoice::Columnar, _)) => LayoutDecision::SwitchToColumnar,
                Some((StoreChoice::Dremel, _)) => LayoutDecision::SwitchToDremel,
            };
            assert_eq!(got, expected, "step {step}");
            if let Some((to, from)) = out.switch {
                assert_eq!(from.layout(), layout);
                let new = match to {
                    StoreChoice::Columnar => columnar.clone(),
                    StoreChoice::Dremel => dremel.clone(),
                };
                assert!(reg.replace_data_if(id, Some(layout), new.clone(), 3));
                // A second install of the same switch loses the race.
                assert!(!reg.replace_data_if(id, Some(layout), new, 3));
                bare.reset_window();
                installed += 1;
                reg.with_entry(id, |e| assert!(e.history.window().is_empty()))
                    .unwrap();
            }
            assert_eq!(switches(id), installed, "step {step}");
            reg.check_invariants()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
        // Each of the six phases flips the layout, alternately both ways.
        assert_eq!(installed, 6);
        assert_eq!(reg.snapshot()[0].layout_switches, installed);
        // An evicted entry settles nothing.
        assert!(reg.remove(id));
        let out = reg.record_hit(id, 5, 1, None, Some((dremel, 7)));
        assert!(out.switch.is_none() && out.lazy.is_none());
        reg.check_invariants().unwrap();
    }

    /// Contending threads: `RECACHE_SESSIONS` when set (the CI
    /// concurrency matrix), else 4.
    fn contenders() -> u64 {
        std::env::var("RECACHE_SESSIONS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 2)
            .unwrap_or(4)
    }

    #[test]
    fn concurrent_admissions_respect_budget_and_reconcile() {
        let reg = registry(Some(4_000));
        let threads = contenders();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let reg = &reg;
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
                        reg.record_hit(id, 7, 1, None, None);
                        if i % 5 == 2 {
                            // Races with eviction: at most one side wins.
                            reg.remove(id);
                        }
                    }
                });
            }
        });
        assert!(reg.total_bytes() <= 4_000, "budget held at quiescence");
        let c = reg.counters();
        assert!(c.removals > 0, "{c:?}");
        reg.check_invariants().unwrap();
    }
}

//! The semantic result cache: whole-query reuse above the data cache.
//!
//! The data cache (the paper's contribution) makes *repeated scans*
//! cheap; served traffic also repeats whole *queries*, and re-running
//! the executor over a resident store still costs a full scan. This
//! module caches final query results — the aggregate row vector — keyed
//! on a [normalized query signature](normalized_key), in front of the
//! executor inside `ReCache::execute`.
//!
//! # Precise invalidation (no TTLs)
//!
//! Every result entry *pins* the `(source, signature)` set of data-cache
//! entries it was computed from (plus the raw sources it scanned). When
//! the registry evicts or removes a pinned entry, or a source is
//! re-registered, a reverse index drops exactly the dependent results —
//! nothing expires by clock, and nothing survives its inputs. Sources
//! are immutable once registered, so a cached result can never be
//! *wrong*; invalidation enforces the stronger contract that a result
//! hit never outlives the cached data it priced in, which keeps the
//! result cache's hit population aligned with what is actually resident.
//!
//! # Budget and eviction
//!
//! Result bytes are charged against their own budget
//! ([`ResultCacheConfig::capacity_bytes`]), separate from the data-cache
//! capacity: results are tiny next to cached stores, and letting them
//! compete in one budget would let a flood of distinct queries evict
//! resident data. Over budget, the least-recently-used entry goes first.
//!
//! # Locking
//!
//! One mutex guards the whole cache. It is a *leaf* lock: every method
//! acquires it last and never calls back into the registry or session,
//! which is what makes firing invalidation from inside registry
//! eviction and removal (registry lock held) deadlock-free.

use recache_engine::sql::{PredClause, QuerySpec};
use recache_types::Value;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default result-cache byte budget (64 MiB).
pub const DEFAULT_RESULT_CACHE_BYTES: usize = 64 << 20;

/// Result-cache configuration (set through `ReCacheBuilder`; the server
/// reads its own from the environment in `ServerConfig::from_env`).
#[derive(Debug, Clone, Copy)]
pub struct ResultCacheConfig {
    /// Whether `ReCache::execute` consults the result cache by default
    /// (a per-request `QueryRequest::result_cache(..)` overrides this).
    pub enabled: bool,
    /// Byte budget for cached results (separate from the data cache).
    pub capacity_bytes: usize,
}

impl Default for ResultCacheConfig {
    /// Disabled by default for embedded sessions: the data cache's
    /// admission/eviction behavior is the object of study here, and a
    /// result layer silently absorbing repeats would mask it. The server
    /// front end opts in (`ServerConfig`), and so can any embedded
    /// caller.
    fn default() -> Self {
        ResultCacheConfig {
            enabled: false,
            capacity_bytes: DEFAULT_RESULT_CACHE_BYTES,
        }
    }
}

/// A result served from the cache: the aggregate rows and the count of
/// rows that reached aggregation when the result was computed.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// One value per aggregate in SELECT order.
    pub rows: Vec<Value>,
    /// `rows_aggregated` of the original execution.
    pub rows_aggregated: usize,
}

/// One cached result plus its bookkeeping.
struct Entry {
    rows: Vec<Value>,
    rows_aggregated: usize,
    /// Estimated resident bytes (rows + key + pin strings + overhead).
    bytes: usize,
    /// The `(source, signature)` data-cache identities this result was
    /// computed from. Any of them departing invalidates this entry.
    pins: Vec<(String, String)>,
    /// LRU clock of the last lookup (or the insert).
    last_access: u64,
}

#[derive(Default)]
struct Inner {
    entries: HashMap<String, Entry>,
    /// Reverse index: pinned `(source, signature)` → dependent keys.
    by_pin: HashMap<(String, String), HashSet<String>>,
    total_bytes: usize,
    tick: u64,
}

impl Inner {
    /// Unlinks `key` from every pin index entry and drops it. Returns
    /// whether it was resident.
    fn drop_entry(&mut self, key: &str) -> bool {
        let Some(entry) = self.entries.remove(key) else {
            return false;
        };
        self.total_bytes -= entry.bytes;
        for pin in &entry.pins {
            if let Some(keys) = self.by_pin.get_mut(pin) {
                keys.remove(key);
                if keys.is_empty() {
                    self.by_pin.remove(pin);
                }
            }
        }
        true
    }

    /// Evicts least-recently-used entries until `total_bytes <= budget`.
    /// Returns how many entries were evicted.
    fn evict_to(&mut self, budget: usize) -> u64 {
        let mut evicted = 0;
        while self.total_bytes > budget {
            let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_access)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            self.drop_entry(&victim);
            evicted += 1;
        }
        evicted
    }
}

/// The byte-budgeted, precisely-invalidated LRU result cache. One per
/// session; shared behind the session's `Arc` with the registry's
/// invalidation listener.
pub struct ResultCache {
    /// Session-level default (per-request toggles override per call).
    enabled: AtomicBool,
    capacity: AtomicUsize,
    inner: Mutex<Inner>,
}

impl ResultCache {
    /// Builds a cache from `config`.
    pub fn new(config: ResultCacheConfig) -> Self {
        ResultCache {
            enabled: AtomicBool::new(config.enabled),
            capacity: AtomicUsize::new(config.capacity_bytes),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Whether lookups are on by default for this session.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// Flips the session-level default (the server front end enables
    /// serving sessions after build).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Release);
    }

    /// The current byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity.load(Ordering::Acquire)
    }

    /// Adjusts the byte budget and immediately evicts down to it.
    /// Returns how many entries the shrink evicted.
    pub fn set_capacity_bytes(&self, bytes: usize) -> u64 {
        self.capacity.store(bytes, Ordering::Release);
        self.lock().evict_to(bytes)
    }

    /// Resident entry count (tests and diagnostics).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident result bytes (tests and diagnostics).
    pub fn total_bytes(&self) -> usize {
        self.lock().total_bytes
    }

    /// Whether `key` is resident, without touching LRU clocks or
    /// counters (the server's pre-negotiation probe).
    pub fn probe(&self, key: &str) -> bool {
        self.lock().entries.contains_key(key)
    }

    /// Looks up a normalized key, touching its LRU clock on hit.
    pub fn lookup(&self, key: &str) -> Option<CachedResult> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.entries.get_mut(key)?;
        entry.last_access = tick;
        Some(CachedResult {
            rows: entry.rows.clone(),
            rows_aggregated: entry.rows_aggregated,
        })
    }

    /// Inserts a result under `key`, pinned to the given data-cache
    /// identities, then enforces the byte budget. Returns how many
    /// existing entries were evicted to make room. A result larger than
    /// the whole budget is not admitted (inserting it would only evict
    /// everything and then itself thrash).
    pub fn insert(
        &self,
        key: String,
        rows: Vec<Value>,
        rows_aggregated: usize,
        pins: Vec<(String, String)>,
    ) -> u64 {
        let capacity = self.capacity_bytes();
        let bytes = entry_bytes(&key, &rows, &pins);
        if bytes > capacity {
            return 0;
        }
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        // Re-inserting an existing key (a racing miss) replaces it.
        inner.drop_entry(&key);
        for pin in &pins {
            inner
                .by_pin
                .entry(pin.clone())
                .or_default()
                .insert(key.clone());
        }
        inner.total_bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                rows,
                rows_aggregated,
                bytes,
                pins,
                last_access: tick,
            },
        );
        inner.evict_to(capacity)
    }

    /// Drops every result pinned to `(source, signature)` — the registry
    /// invalidation listener. Returns how many results were dropped.
    pub fn invalidate_pin(&self, source: &str, signature: &str) -> u64 {
        let mut inner = self.lock();
        let pin = (source.to_owned(), signature.to_owned());
        let Some(keys) = inner.by_pin.remove(&pin) else {
            return 0;
        };
        let mut dropped = 0;
        for key in keys {
            if inner.drop_entry(&key) {
                dropped += 1;
            }
        }
        dropped
    }

    /// Drops every result that touched `source` at all (source
    /// registration/replacement). Returns how many results were dropped.
    pub fn invalidate_source(&self, source: &str) -> u64 {
        let mut inner = self.lock();
        let keys: Vec<String> = inner
            .by_pin
            .iter()
            .filter(|((s, _), _)| s == source)
            .flat_map(|(_, keys)| keys.iter().cloned())
            .collect();
        let mut dropped = 0;
        for key in keys {
            if inner.drop_entry(&key) {
                dropped += 1;
            }
        }
        dropped
    }

    /// Drops everything (tests).
    pub fn clear(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // Poison recovery matches the registry's stance: every critical
        // section here leaves the maps and the byte total consistent
        // (single-structure mutations between the paired updates), so a
        // panicking holder must not wedge the session.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The normalized signature of a query: two textual variants of the
/// same question map to one key, distinct questions never collide.
///
/// Working from the parsed [`QuerySpec`] (not the SQL text) already
/// collapses whitespace, keyword case, and aggregate-name case — the
/// lexer discards all three. On top of that this canonicalizes:
///
/// * **numeric literals** — `Int(30)` and `Float(30.0)` render as one
///   token whenever the integer is exactly representable as `f64`,
///   because `Value::cmp_sql` compares ints and floats numerically, so
///   `x >= 30` and `x >= 30.0` select identical rows;
/// * **`BETWEEN`** — `x BETWEEN lo AND hi` (inclusive on both ends)
///   rewrites to the `x >= lo`, `x <= hi` clause pair;
/// * **conjunct order** — `WHERE a AND b` and `WHERE b AND a` sort to
///   one clause list (duplicated clauses also collapse);
/// * **join sides and order** — `a = b` equals `b = a`, and the
///   conjunctive join list sorts.
///
/// Aggregates and tables keep their written order: SELECT order shapes
/// the output row, and table order is preserved conservatively.
pub fn normalized_key(spec: &QuerySpec) -> String {
    let mut key = String::from("agg:");
    for (func, path) in &spec.aggregates {
        key.push_str(func.name());
        match path {
            Some(path) => {
                key.push('(');
                key.push_str(&path.to_string());
                key.push(')');
            }
            None => key.push_str("(*)"),
        }
        key.push(',');
    }
    key.push_str("|tab:");
    for table in &spec.tables {
        key.push_str(table);
        key.push(',');
    }
    let mut clauses: Vec<String> = Vec::new();
    for pred in &spec.predicates {
        match pred {
            PredClause::Cmp { path, op, value } => {
                clauses.push(format!("{path} {} {}", op.symbol(), literal_token(value)));
            }
            PredClause::Between { path, lo, hi } => {
                clauses.push(format!("{path} >= {}", literal_token(lo)));
                clauses.push(format!("{path} <= {}", literal_token(hi)));
            }
        }
    }
    clauses.sort();
    clauses.dedup();
    key.push_str("|pred:");
    for clause in &clauses {
        key.push_str(clause);
        key.push(',');
    }
    let mut joins: Vec<String> = spec
        .joins
        .iter()
        .map(|(a, b)| {
            let (a, b) = (a.to_string(), b.to_string());
            if a <= b {
                format!("{a}={b}")
            } else {
                format!("{b}={a}")
            }
        })
        .collect();
    joins.sort();
    joins.dedup();
    key.push_str("|join:");
    for join in &joins {
        key.push_str(join);
        key.push(',');
    }
    key
}

/// One canonical token per literal. Numeric values that compare equal
/// under `Value::cmp_sql` must render identically; values of genuinely
/// different kind (strings vs numbers vs bools vs null) must not.
fn literal_token(value: &Value) -> String {
    match value {
        Value::Null => "null".to_owned(),
        Value::Bool(b) => format!("b:{b}"),
        Value::Int(i) => {
            // An i64 beyond 2^53 is not exactly representable as f64;
            // keep it in its own namespace rather than collide with a
            // nearby float.
            if (*i as f64) as i64 == *i {
                format!("n:{}", *i as f64)
            } else {
                format!("i:{i}")
            }
        }
        Value::Float(f) => format!("n:{f}"),
        Value::Str(s) => format!("s:{s:?}"),
        // The SQL parser never produces nested literals; render them
        // totally anyway so the key function is defined on all specs.
        Value::List(_) | Value::Struct(_) => format!("v:{value:?}"),
    }
}

/// Estimated resident bytes of one entry: the key, the result values,
/// the pin strings, and a fixed per-entry map/index overhead.
fn entry_bytes(key: &str, rows: &[Value], pins: &[(String, String)]) -> usize {
    let rows_bytes: usize = rows.iter().map(value_bytes).sum();
    let pins_bytes: usize = pins.iter().map(|(s, g)| s.len() + g.len() + 48).sum();
    // The key is stored twice (entry map + each pin's reverse-index set).
    key.len() * (1 + pins.len()) + rows_bytes + pins_bytes + 128
}

fn value_bytes(value: &Value) -> usize {
    // Size of the enum slot itself...
    std::mem::size_of::<Value>()
        + match value {
            // ...plus heap payloads.
            Value::Str(s) => s.len(),
            Value::List(items) | Value::Struct(items) => items.iter().map(value_bytes).sum(),
            _ => 0,
        }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_engine::sql::parse_query;

    fn key_of(sql: &str) -> String {
        normalized_key(&parse_query(sql).expect("parse"))
    }

    #[test]
    fn whitespace_case_and_literal_variants_collapse() {
        let base = key_of("SELECT count(*) FROM t WHERE a >= 30 AND b < 2.5");
        assert_eq!(
            base,
            key_of("select   COUNT(*)\n from t  where a >= 30.0 and b < 2.5")
        );
        assert_eq!(
            base,
            key_of("SELECT count(*) FROM t WHERE b < 2.5 AND a >= 30")
        );
    }

    #[test]
    fn between_rewrites_to_bound_pair() {
        assert_eq!(
            key_of("SELECT sum(x) FROM t WHERE x BETWEEN 1 AND 9"),
            key_of("SELECT sum(x) FROM t WHERE x >= 1 AND x <= 9"),
        );
    }

    #[test]
    fn distinct_predicates_stay_distinct() {
        let keys = [
            key_of("SELECT count(*) FROM t WHERE a >= 30"),
            key_of("SELECT count(*) FROM t WHERE a > 30"),
            key_of("SELECT count(*) FROM t WHERE a >= 31"),
            key_of("SELECT count(*) FROM t WHERE a >= 'x30'"),
            key_of("SELECT count(*) FROM t"),
            key_of("SELECT sum(a) FROM t WHERE a >= 30"),
            key_of("SELECT count(*) FROM u WHERE a >= 30"),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn join_sides_and_order_canonicalize() {
        let a = key_of("SELECT count(*) FROM t, u WHERE t.id = u.id AND t.a >= 1");
        let b = key_of("SELECT count(*) FROM t, u WHERE u.id = t.id AND t.a >= 1");
        assert_eq!(a, b);
    }

    #[test]
    fn lru_evicts_within_budget_and_pins_invalidate() {
        let cache = ResultCache::new(ResultCacheConfig {
            enabled: true,
            capacity_bytes: 2048,
        });
        let pin = ("t".to_owned(), "sig".to_owned());
        assert_eq!(
            cache.insert("k1".into(), vec![Value::Int(1)], 1, vec![pin.clone()]),
            0
        );
        assert_eq!(cache.insert("k2".into(), vec![Value::Int(2)], 1, vec![]), 0);
        assert!(cache.lookup("k1").is_some());
        // Third entry pushes past 2 KiB; k2 is the LRU victim (k1 was
        // just touched).
        let evicted = cache.insert(
            "k3".into(),
            vec![Value::Str("x".repeat(1600))],
            1,
            vec![pin.clone()],
        );
        assert_eq!(evicted, 1);
        assert!(cache.lookup("k2").is_none());
        assert!(cache.lookup("k1").is_some());
        // Pin invalidation drops exactly the dependents.
        assert_eq!(cache.invalidate_pin("t", "sig"), 2);
        assert!(cache.lookup("k1").is_none());
        assert!(cache.lookup("k3").is_none());
        assert_eq!(cache.total_bytes(), 0);
    }

    #[test]
    fn source_invalidation_drops_all_dependents() {
        let cache = ResultCache::new(ResultCacheConfig {
            enabled: true,
            capacity_bytes: 1 << 20,
        });
        cache.insert(
            "k1".into(),
            vec![],
            0,
            vec![("t".into(), "a".into()), ("u".into(), "b".into())],
        );
        cache.insert("k2".into(), vec![], 0, vec![("u".into(), "c".into())]);
        assert_eq!(cache.invalidate_source("u"), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_results_are_not_admitted() {
        let cache = ResultCache::new(ResultCacheConfig {
            enabled: true,
            capacity_bytes: 256,
        });
        cache.insert("big".into(), vec![Value::Str("y".repeat(4096))], 1, vec![]);
        assert!(cache.lookup("big").is_none());
        assert_eq!(cache.total_bytes(), 0);
    }
}

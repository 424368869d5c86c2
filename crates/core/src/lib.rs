//! The ReCache session: the public API tying the raw-data layer, query
//! engine and cache policies together.
//!
//! ```text
//! query ──parse──► QuerySpec ──resolve──► plan
//!                                   │ cache lookup (exact / interval subsumption)
//!                                   │   miss + same scan in flight elsewhere:
//!                                   │   wait, then reuse (single-flight)
//!                                   ▼
//!                          engine::execute (raw scan | cache scan)
//!                                   │ entries decided eager before the scan
//!                                   │ are built inside it, per scan task
//!            ┌── miss: materialize (reactive eager/lazy admission) ──► admit
//!            ├── hit: update n/s/l stats, observe D/C/ri/ci, maybe switch layout
//!            └── lazy hit: upgrade to eager
//!                                   │
//!                          evictions (cost-based Greedy-Dual or baseline)
//! ```
//!
//! A [`ReCache`] session is `Send + Sync`: queries run through `&self`,
//! the registry is sharded and lock-striped, and the [`Scheduler`] admits
//! several query streams concurrently with per-session thread budgets.

pub mod materialize;
pub mod request;
pub mod resolve;
pub mod result;
pub mod result_cache;
pub mod session;

use materialize::{
    materialize_with_admission, switch_layout, upgrade_to_eager, MaterializeResult, StoreChoice,
};
use recache_cache::admission::{AdmissionConfig, AdmissionDecision};
use recache_cache::eviction::EvictionKind;
use recache_cache::layout_model::{LayoutDecision, QueryObservation};
use recache_cache::registry::{CacheRegistry, EntryId, FutureOracle, MatchResult};
use recache_data::{FaultPlan, FileFormat, RawFile, RetryPolicy};
use recache_engine::exec::{self, BuildRequest, ExecOptions};
use recache_engine::plan::{AccessPath, QueryPlan, TablePlan};
use recache_engine::sql::{parse_query, QuerySpec};
use recache_layout::{CacheData, LayoutKind};
use recache_types::{Error, Result, Schema};
pub use request::{CacheOutcome, QueryBody, QueryRequest, QueryResponse, QueryTelemetry};
use resolve::{resolve, ResolvedQuery, ResolvedTable};
pub use result::{QueryResult, QueryStats, TableSummary};
pub use result_cache::{ResultCache, ResultCacheConfig};
pub use session::{AdmissionGate, AdmissionPermit, AdmissionStats, Scheduler, StreamLease};
use session::{Begin, FlightGuard, FlightOutcome, Inflight};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// Re-exports so downstream users need only this crate.
pub use recache_cache::admission::AdmissionConfig as Admission;
pub use recache_cache::eviction::EvictionKind as Eviction;
pub use recache_engine::sql;

/// How cached items choose their physical layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutPolicy {
    /// The paper's ReCache behaviour: nested data defaults to the Dremel
    /// layout and switches via the §4.2 cost model; flat data stays
    /// columnar (the §4.3 row layout cannot win on this engine).
    Auto,
    /// Always relational columnar (the "Rel. Columnar" baseline).
    FixedColumnar,
    /// Always nested columnar (the "Parquet" baseline).
    FixedDremel,
}

/// Builder for a [`ReCache`] session.
pub struct ReCacheBuilder {
    capacity: Option<usize>,
    eviction: EvictionKind,
    admission: AdmissionConfig,
    layout: LayoutPolicy,
    caching: bool,
    result_cache: result_cache::ResultCacheConfig,
}

impl Default for ReCacheBuilder {
    fn default() -> Self {
        ReCacheBuilder {
            capacity: None,
            eviction: EvictionKind::GreedyDual,
            admission: AdmissionConfig::default(),
            layout: LayoutPolicy::Auto,
            caching: true,
            // Off: the server front end enables serving sessions itself.
            result_cache: result_cache::ResultCacheConfig::default(),
        }
    }
}

impl ReCacheBuilder {
    /// Cache capacity in bytes (default: unlimited).
    pub fn cache_capacity_bytes(mut self, bytes: usize) -> Self {
        self.capacity = Some(bytes);
        self
    }

    /// Unlimited cache (the paper's infinite-cache baseline).
    pub fn unlimited_cache(mut self) -> Self {
        self.capacity = None;
        self
    }

    /// Eviction policy (default: ReCache's Greedy-Dual).
    pub fn eviction(mut self, kind: EvictionKind) -> Self {
        self.eviction = kind;
        self
    }

    /// Admission overhead threshold (default 0.10).
    pub fn admission_threshold(mut self, threshold: f64) -> Self {
        self.admission.threshold = threshold;
        self
    }

    /// Full admission configuration (e.g. forced eager/lazy baselines).
    pub fn admission(mut self, config: AdmissionConfig) -> Self {
        self.admission = config;
        self
    }

    /// Layout policy (default: automatic selection).
    pub fn layout_policy(mut self, policy: LayoutPolicy) -> Self {
        self.layout = policy;
        self
    }

    /// Disables caching entirely (the "No Caching" baseline).
    pub fn no_caching(mut self) -> Self {
        self.caching = false;
        self
    }

    /// Enables/disables the semantic result cache for this session
    /// (default: off). Per-request [`QueryRequest::result_cache`]
    /// overrides.
    pub fn result_cache_enabled(mut self, enabled: bool) -> Self {
        self.result_cache.enabled = enabled;
        self
    }

    /// Byte budget for the result cache (default 64 MiB) — separate from
    /// the data cache's capacity.
    pub fn result_cache_capacity_bytes(mut self, bytes: usize) -> Self {
        self.result_cache.capacity_bytes = bytes;
        self
    }

    /// Replaces the whole result-cache configuration.
    pub fn result_cache(mut self, config: result_cache::ResultCacheConfig) -> Self {
        self.result_cache = config;
        self
    }

    /// Builds the session. The result cache is wired to the registry's
    /// invalidation listener here, so every data-cache eviction/removal
    /// precisely drops the result entries pinned to the departed
    /// `(source, signature)`.
    pub fn build(self) -> ReCache {
        let registry = CacheRegistry::new(self.eviction.build(), self.capacity);
        let results = Arc::new(result_cache::ResultCache::new(self.result_cache));
        let listener = Arc::clone(&results);
        registry.set_invalidation_listener(Box::new(move |source, signature| {
            listener.invalidate_pin(source, signature)
        }));
        ReCache {
            sources: HashMap::new(),
            registry,
            results,
            inflight: Inflight::default(),
            admission: self.admission,
            layout: self.layout,
            caching: self.caching,
            queries_run: AtomicU64::new(0),
        }
    }
}

/// A ReCache session: registered sources plus the reactive cache.
///
/// `Send + Sync` — queries execute through `&self`, so independent
/// streams may run concurrently against one session (see [`Scheduler`]).
pub struct ReCache {
    sources: HashMap<String, Arc<RawFile>>,
    registry: CacheRegistry,
    /// The semantic result cache (shared with the registry's
    /// invalidation listener).
    results: Arc<result_cache::ResultCache>,
    /// Single-flight table for in-flight cacheable scans.
    inflight: Inflight,
    admission: AdmissionConfig,
    layout: LayoutPolicy,
    caching: bool,
    queries_run: AtomicU64,
}

impl ReCache {
    pub fn builder() -> ReCacheBuilder {
        ReCacheBuilder::default()
    }

    /// Registers a CSV file from disk.
    pub fn register_csv(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        schema: Schema,
    ) -> Result<()> {
        let file = RawFile::open(path, FileFormat::Csv, schema)?;
        self.register_source(name, file);
        Ok(())
    }

    /// Registers a line-delimited JSON file from disk.
    pub fn register_json(
        &mut self,
        name: impl Into<String>,
        path: impl AsRef<std::path::Path>,
        schema: Schema,
    ) -> Result<()> {
        let file = RawFile::open(path, FileFormat::Json, schema)?;
        self.register_source(name, file);
        Ok(())
    }

    /// Registers in-memory CSV bytes (tests, generated datasets).
    pub fn register_csv_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>, schema: Schema) {
        self.register_source(name, RawFile::from_bytes(bytes, FileFormat::Csv, schema));
    }

    /// Registers in-memory JSON bytes.
    pub fn register_json_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>, schema: Schema) {
        self.register_source(name, RawFile::from_bytes(bytes, FileFormat::Json, schema));
    }

    /// Registers a pre-built raw file. Re-registering a name counts as a
    /// source change: the old source's data-cache entries (whose offsets
    /// and positional maps describe the *old* bytes) are purged, and every
    /// cached result that touched it is invalidated.
    pub fn register_source(&mut self, name: impl Into<String>, file: RawFile) {
        let name = name.into();
        for entry in self.registry.snapshot() {
            if entry.source == name {
                // `remove` fires the invalidation listener, dropping
                // results pinned to this entry.
                self.registry.remove(entry.id);
            }
        }
        // Catch-all for results whose pinned entries were already gone
        // (each result is dropped — and counted — at most once).
        let dropped = self.results.invalidate_source(&name);
        self.registry.note_result_invalidations(dropped);
        self.sources.insert(name, Arc::new(file));
    }

    /// Installs (or, with `None`, clears) a seeded fault-injection plan
    /// on a registered source. Returns whether the source exists.
    pub fn set_fault_plan(&self, name: &str, plan: Option<FaultPlan>) -> bool {
        match self.sources.get(name) {
            Some(file) => {
                file.set_fault_plan(plan);
                true
            }
            None => false,
        }
    }

    /// Overrides the bounded-retry policy applied to a registered
    /// source's chunk scans. Returns whether the source exists.
    pub fn set_retry_policy(&self, name: &str, retry: RetryPolicy) -> bool {
        match self.sources.get(name) {
            Some(file) => {
                file.set_retry_policy(retry);
                true
            }
            None => false,
        }
    }

    /// The registered source, if any.
    pub fn source(&self, name: &str) -> Option<&Arc<RawFile>> {
        self.sources.get(name)
    }

    /// Read access to the cache registry (stats, entries, counters).
    pub fn cache(&self) -> &CacheRegistry {
        &self.registry
    }

    /// The session's semantic result cache (enable/disable, budget,
    /// diagnostics). See [`result_cache`] for the design.
    pub fn result_cache(&self) -> &result_cache::ResultCache {
        &self.results
    }

    /// Whether a result-cache hit would serve this spec right now, under
    /// the given per-request override (`None` = session default). The
    /// server uses this to skip scan-cost lease negotiation on expected
    /// hits; the probe touches no LRU clock or counter. The answer can
    /// go stale before execution — benign: the query then simply runs
    /// with the thread budget the probe implied.
    pub fn result_cached(&self, spec: &QuerySpec, per_request: Option<bool>) -> bool {
        per_request.unwrap_or_else(|| self.results.is_enabled())
            && self.results.probe(&result_cache::normalized_key(spec))
    }

    /// Installs a future oracle for the offline eviction baselines.
    pub fn set_oracle(&self, oracle: Box<dyn FutureOracle>) {
        self.registry.set_oracle(oracle);
    }

    /// Queries executed so far.
    pub fn queries_run(&self) -> u64 {
        self.queries_run.load(Ordering::Relaxed)
    }

    /// Resolves a parsed query without executing it (used by workload
    /// oracles to pre-compute cache keys).
    pub fn resolve_query(&self, spec: &QuerySpec) -> Result<ResolvedQuery> {
        resolve(spec, &self.sources)
    }

    /// Rough in-flight scan cost of a query under the current cache
    /// state, in bytes to be scanned: a table that would hit the cache
    /// contributes its store's (possibly dictionary-compressed) resident
    /// size, a miss contributes the raw file's size — the same
    /// bytes-scanned proxy the cost model's `D` term prices. The
    /// [`Scheduler`] uses this to weight each stream's slice of the
    /// thread budget, so one expensive raw scan is not starved behind K
    /// cheap cache hits. Unresolvable queries estimate to 0 (the error
    /// surfaces when the query actually runs).
    pub fn estimate_scan_cost(&self, spec: &QuerySpec) -> u64 {
        let Ok(resolved) = resolve(spec, &self.sources) else {
            return 0;
        };
        resolved
            .tables
            .iter()
            .map(|t| {
                if self.caching {
                    let (m, _) = self
                        .registry
                        .lookup_uncounted(&t.name, &t.signature, &t.ranges);
                    if let Some(id) = m.entry() {
                        if let Some(bytes) = self.registry.with_entry(id, |e| e.data.byte_size()) {
                            return bytes as u64;
                        }
                    }
                }
                t.file.byte_len() as u64
            })
            .sum()
    }

    /// Executes one [`QueryRequest`] — the single entry point for SQL
    /// text and parsed specs alike, in-process and over the wire. The
    /// request's deadline (if armed) is folded into its cancel token
    /// here, so the clock starts at this call.
    ///
    /// When the semantic result cache is on (session default or the
    /// request's [`QueryRequest::result_cache`] override), the query's
    /// [normalized key](result_cache::normalized_key) is looked up
    /// first: a hit returns the cached rows with outcome
    /// [`CacheOutcome::ResultHit`] and zero executor time; a miss runs
    /// the executor and caches the result, pinned to the
    /// `(source, signature)` data-cache identities it was computed from.
    pub fn execute(&self, request: &QueryRequest) -> Result<QueryResponse> {
        let options = request.resolved_options();
        let parsed;
        let spec = match request.body() {
            QueryBody::Sql(text) => {
                parsed = parse_query(text)?;
                &parsed
            }
            QueryBody::Spec(spec) => spec,
        };
        let use_results = request
            .get_result_cache()
            .unwrap_or_else(|| self.results.is_enabled());
        if !use_results {
            let result = self.run_spec(spec, &options)?;
            return Ok(QueryResponse::new(
                result,
                options.effective_threads(),
                request.get_tag(),
            ));
        }
        let t_lookup = Instant::now();
        let key = result_cache::normalized_key(spec);
        if let Some(cached) = self.results.lookup(&key) {
            // A result hit is still a query: the clocks and per-query
            // counters advance so serving stats stay meaningful.
            self.queries_run.fetch_add(1, Ordering::Relaxed);
            self.registry.tick();
            self.registry.note_result_hit();
            return Ok(QueryResponse::result_hit(
                cached.rows,
                cached.rows_aggregated,
                t_lookup.elapsed().as_nanos() as u64,
                request.get_tag(),
            ));
        }
        self.registry.note_result_miss();
        let result = self.run_spec(spec, &options)?;
        // Pin the result to the per-table `(source, signature)`
        // identities it priced in; any of them departing the registry
        // invalidates it. Between this execution and the insert a
        // pinned entry may already have been evicted — the entry then
        // lives until the *next* departure or its own eviction, which is
        // still correct: sources are immutable, so the rows themselves
        // can never be stale.
        if let Ok(resolved) = resolve(spec, &self.sources) {
            let pins = resolved
                .tables
                .iter()
                .map(|t| (t.name.clone(), t.signature.clone()))
                .collect();
            let evicted =
                self.results
                    .insert(key, result.rows.clone(), result.rows_aggregated, pins);
            self.registry.note_result_evictions(evicted);
        }
        Ok(QueryResponse::new(
            result,
            options.effective_threads(),
            request.get_tag(),
        ))
    }

    /// The execution core behind [`ReCache::execute`]: one resolved
    /// spec under final options (deadline already folded into `cancel`).
    fn run_spec(&self, spec: &QuerySpec, options: &ExecOptions) -> Result<QueryResult> {
        let t_run = Instant::now();
        self.queries_run.fetch_add(1, Ordering::Relaxed);
        self.registry.tick();
        if let Err(err) = options.check_cancel() {
            self.registry.note_timeout();
            return Err(err);
        }
        let resolved = resolve(spec, &self.sources)?;
        let n_tables = resolved.tables.len();

        // Route tables in sorted-key order: single-flight leadership is
        // then always acquired in a globally consistent order, so a query
        // leading one key and waiting on another cannot deadlock against
        // a query doing the reverse.
        let key = |i: usize| {
            let t = &resolved.tables[i];
            (t.name.as_str(), t.signature.as_str())
        };
        let mut order: Vec<usize> = (0..n_tables).collect();
        order.sort_by_key(|&i| key(i));
        let mut routes: Vec<Option<TableRoute>> = (0..n_tables).map(|_| None).collect();
        let mut accesses: Vec<Option<AccessPath>> = (0..n_tables).map(|_| None).collect();
        // Per-table leadership guards. They live until this query's
        // admissions are decided (waiters wake to a cache that already
        // holds the new entry), and each completes eagerly the moment its
        // table's admission is decided — followers don't sleep through
        // the rest of a multi-table leader's query.
        let mut flights: Vec<Option<FlightGuard<'_>>> = (0..n_tables).map(|_| None).collect();
        for &i in &order {
            // One leadership per key per query (a self-join on the same
            // predicate must not wait on itself).
            let held = (0..n_tables).any(|j| flights[j].is_some() && key(j) == key(i));
            let (route, access, flight) = self.route_table(&resolved.tables[i], held, options)?;
            routes[i] = Some(route);
            accesses[i] = Some(access);
            flights[i] = flight;
        }
        let routes: Vec<TableRoute> = routes.into_iter().map(|r| r.expect("route set")).collect();
        let mut table_plans: Vec<TablePlan> = Vec::with_capacity(n_tables);
        for (i, (table, access)) in resolved.tables.iter().zip(accesses).enumerate() {
            let collect_satisfying = self.caching && routes[i].hit.is_none();
            table_plans.push(TablePlan {
                name: table.name.clone(),
                access: access.expect("access set"),
                accessed: table.accessed.clone(),
                predicate: table.predicate.clone(),
                record_level: table.record_level,
                collect_satisfying,
            });
        }

        let plan = QueryPlan {
            tables: table_plans,
            joins: resolved.joins.clone(),
            aggregates: resolved.aggregates.clone(),
        };
        // A single-table query over a mapped file builds its eager entry
        // inside the scan when eager is decided before the scan: a miss
        // admitted eagerly whatever its sample would say, or a reused
        // lazy entry, which the reuse upgrades. Sampled admissions, first
        // scans and joins build after the scan, below.
        let build = match (resolved.tables.as_slice(), routes.as_slice()) {
            ([table], [route]) if self.caching => {
                let eager = match route.hit {
                    None => self.eager_before_scan(&table.name),
                    Some(_) => route.was_offsets,
                };
                let map = eager.then(|| table.file.posmap()).flatten();
                map.map(|map| BuildRequest {
                    choice: self.store_choice(&table.file),
                    map,
                })
            }
            _ => None,
        };
        let output = match exec::execute_building(&plan, options, build.as_ref()) {
            Ok(output) => output,
            Err(err) => {
                // Classify the failure before it propagates. Any flight
                // guards this query leads drop right here, publishing
                // `Failed` so one waiter per key promotes itself.
                match &err {
                    Error::Timeout | Error::Cancelled => self.registry.note_timeout(),
                    _ => self.registry.note_failed_scan(),
                }
                return Err(err);
            }
        };

        // Post-execution cache maintenance. Entries built in the pass
        // charge their build to caching, not to execution.
        let mut output = output;
        let mut caching_ns: u64 = output.stats.tables.iter().map(|t| t.build_ns).sum();
        let exec_ns = output.stats.total_ns.saturating_sub(caching_ns);
        let mut lookup_ns_total = 0u64;
        let mut summaries = Vec::with_capacity(resolved.tables.len());
        for (i, table) in resolved.tables.iter().enumerate() {
            // Move the satisfying ids out (they can be large; no clone).
            let satisfying_ids = output.stats.tables[i].satisfying.take();
            let built = output.stats.tables[i].built.take();
            let stats = &output.stats.tables[i];
            let route = &routes[i];
            lookup_ns_total += route.lookup_ns;
            self.registry.note_retried_chunks(stats.retried_chunks);
            if stats.degraded_fallback {
                self.registry.note_degraded_fallback();
            }
            let mut summary = TableSummary {
                name: table.name.clone(),
                access: stats.access,
                hit: route.hit.map(|(_, m)| m),
                coalesced: route.coalesced,
                admission: None,
                layout_switch: None,
            };
            match route.hit {
                Some((id, _)) => {
                    self.registry
                        .record_reuse(id, stats.exec_ns, route.lookup_ns);
                    // Layout bookkeeping for store scans, only where the
                    // §4.2 model has a choice to make: nested entries under
                    // `Auto`. Flat entries stay columnar.
                    let switchable =
                        self.layout == LayoutPolicy::Auto && table.file.schema().has_nested();
                    if let Some(cost) = stats.cache_scan.filter(|_| switchable) {
                        self.registry.with_entry_mut(id, |entry| {
                            let rows_needed = if stats.record_level {
                                entry.data.record_count()
                            } else {
                                entry.data.flattened_rows()
                            };
                            // Cost attribution follows §4.2: only the
                            // Dremel layout has a meaningful compute
                            // component ("the relational columnar layout
                            // has negligible computational cost") — for
                            // columnar scans the whole cost is data access,
                            // including the R-proportional row walk.
                            let layout = entry.data.layout();
                            let (d_ns, c_ns) = if layout == LayoutKind::Dremel {
                                (cost.data_ns, cost.compute_ns)
                            } else {
                                (cost.total_ns(), 0)
                            };
                            entry.history.observe(QueryObservation {
                                d_ns,
                                c_ns,
                                rows: rows_needed,
                                cols: stats.cols_accessed,
                                layout,
                            });
                        });
                        if let Some((switch, ns)) = self.maybe_switch_layout(&table.file, id) {
                            caching_ns += ns;
                            summary.layout_switch = Some(switch);
                        }
                    }
                    if route.was_offsets {
                        // Lazy entry reused: upgrade to eager, with the
                        // store its by-id scan built, or else by re-reading
                        // its records now. Either may fail (e.g. injected
                        // faults, a damaged record); the query's answer is
                        // already computed, so a failed upgrade is counted
                        // and skipped — the entry simply stays lazy.
                        let upgraded = match built {
                            Some(built) => built.map(|data| {
                                self.registry.replace_data_if(
                                    id,
                                    Some(LayoutKind::Offsets),
                                    data,
                                    stats.build_ns,
                                );
                            }),
                            None => self.upgrade_entry(table, id).map(|ns| caching_ns += ns),
                        };
                        match upgraded {
                            Ok(()) => summary.admission = Some(AdmissionDecision::Eager),
                            Err(_) => self.registry.note_failed_scan(),
                        }
                    }
                }
                None if self.caching => {
                    let mut admitted = false;
                    if let Some(satisfying) = satisfying_ids {
                        if !satisfying.is_empty() {
                            // The entry was built in the pass (eager was
                            // decided before the scan), or is built now by
                            // re-reading the satisfying records. Either
                            // may fail: on injected faults, or on a record
                            // damaged in a field the query skipped. The
                            // query's answer is already computed: a failed
                            // build loses only the cache entry, so count
                            // it, skip the admission, and let the flight
                            // complete as not-admitted below (waiters run
                            // their own scans; nothing half-admitted is
                            // left behind — `admit` was never called, so
                            // no byte accounting needs rolling back).
                            let result = match built {
                                Some(built) => built.map(|data| MaterializeResult {
                                    data,
                                    caching_ns: stats.build_ns,
                                    decision: AdmissionDecision::Eager,
                                    overhead: 0.0,
                                }),
                                None => materialize_with_admission(
                                    &table.file,
                                    self.store_choice(&table.file),
                                    &self.admission,
                                    satisfying,
                                    stats.rows_out,
                                    exec_ns + caching_ns,
                                    self.registry.source_in_working_set(&table.name),
                                )
                                .inspect(|result| caching_ns += result.caching_ns),
                            };
                            match result {
                                Ok(result) => {
                                    summary.admission = Some(result.decision);
                                    self.registry.admit(
                                        &table.name,
                                        table.file.format(),
                                        table.signature.clone(),
                                        table.ranges.clone(),
                                        table.subsumable,
                                        result.data,
                                        stats.exec_ns,
                                        result.caching_ns,
                                        route.lookup_ns,
                                    );
                                    admitted = true;
                                }
                                Err(_) => self.registry.note_failed_scan(),
                            }
                        }
                    }
                    // This table's admission is decided: release
                    // single-flight waiters now (remaining guards still
                    // complete on drop along error paths).
                    if let Some(flight) = &flights[i] {
                        flight.complete_now(if admitted {
                            FlightOutcome::Admitted
                        } else {
                            FlightOutcome::NotAdmitted
                        });
                    }
                }
                None => {}
            }
            summaries.push(summary);
        }

        let total_ns = t_run.elapsed().as_nanos() as u64;
        Ok(QueryResult {
            rows: output.values,
            rows_aggregated: output.rows_aggregated,
            stats: QueryStats {
                total_ns,
                exec_ns,
                caching_ns,
                lookup_ns: lookup_ns_total,
                cache_hit: summaries.iter().any(|s| s.hit.is_some()),
                tables: summaries,
                exec: output.stats,
            },
        })
    }

    /// Routes one table of a query: looks it up in the cache and, on a
    /// miss, leads the table's single flight or waits on another
    /// session's, re-electing a leader (bounded) when the one it waited
    /// on fails. Returns the route, the access path and the flight guard
    /// this query now leads, if any. `held` says this query already leads
    /// the table's `(source, signature)` key through another table.
    fn route_table(
        &self,
        table: &ResolvedTable,
        held: bool,
        options: &ExecOptions,
    ) -> Result<(TableRoute, AccessPath, Option<FlightGuard<'_>>)> {
        let raw = || AccessPath::Raw(Arc::clone(&table.file));
        if !self.caching {
            return Ok((TableRoute::miss(0), raw(), None));
        }
        // Bound on re-elections after failed leaders: past it, a waiter
        // stops queueing behind dying leaders and runs its own concurrent
        // raw scan. Bounded and stampede-free — each `begin` race promotes
        // exactly one new leader, the rest re-queue behind the new flight.
        const MAX_LEADER_FAILOVERS: u32 = 2;
        let mut lookup_ns_total = 0u64;
        let mut waited = false;
        let mut failovers = 0u32;
        // The loop probes the cache repeatedly for ONE logical access;
        // only the final outcome is counted (below), so coalescing cannot
        // skew hit/miss rates.
        let routed = loop {
            let (m, lookup_ns) =
                self.registry
                    .lookup_uncounted(&table.name, &table.signature, &table.ranges);
            lookup_ns_total += lookup_ns;
            if let Some(id) = m.entry() {
                // The entry can be evicted between lookup and access; a
                // vanished hit degrades to a miss.
                if let Some((was_offsets, access)) = self.registry.with_entry(id, |e| {
                    (
                        matches!(e.data, CacheData::Offsets(_)),
                        access_path_for(&e.data, &table.file),
                    )
                }) {
                    if waited {
                        // Coalesced admission: this session waited for
                        // another's in-flight scan and reuses its entry
                        // (C-phase cost paid once).
                        self.registry.note_coalesced();
                    }
                    let hit = TableRoute {
                        hit: Some((id, m)),
                        lookup_ns: lookup_ns_total,
                        was_offsets,
                        coalesced: waited,
                    };
                    break (hit, access, None);
                }
            }
            let miss = TableRoute::miss(lookup_ns_total);
            if held {
                break (miss, raw(), None);
            }
            let key = (table.name.clone(), table.signature.clone());
            let flight = match self.inflight.begin(key) {
                Begin::Leader(guard) => {
                    if failovers > 0 {
                        // Won the re-election after watching the previous
                        // leader die: this session now redoes the scan on
                        // behalf of the rest.
                        self.registry.note_leader_failover();
                    }
                    break (miss, raw(), Some(guard));
                }
                Begin::Wait(flight) => flight,
            };
            // Duplicate in-flight scan: wait for the leading session's
            // admission, then re-look up and reuse instead of redoing
            // D + C work. A cancelled or timed-out wait returns the error;
            // the guards the query already leads then drop → `Failed`,
            // promoting one of *their* waiters.
            let outcome = flight.wait(options.cancel.as_deref()).inspect_err(|_| {
                self.registry.note_timeout();
            })?;
            match outcome {
                FlightOutcome::Admitted => waited = true,
                // A leader that admitted nothing leaves nothing to reuse —
                // scan raw concurrently rather than queueing as the next
                // serial leader.
                FlightOutcome::NotAdmitted => break (miss, raw(), None),
                FlightOutcome::Failed => {
                    failovers += 1;
                    if failovers > MAX_LEADER_FAILOVERS {
                        break (miss, raw(), None);
                    }
                    // Loop: re-probe the cache, then race for the vacated
                    // leadership slot.
                }
            }
        };
        self.registry.count_lookup(match &routed.0.hit {
            Some((_, m)) => m,
            None => &MatchResult::Miss,
        });
        Ok(routed)
    }

    /// Whether a miss on `source` is admitted eagerly whatever its sample
    /// would say: eager is forced, or the source is in the working set
    /// (§5.2).
    fn eager_before_scan(&self, source: &str) -> bool {
        match self.admission.force {
            Some(decision) => decision == AdmissionDecision::Eager,
            None => self.registry.source_in_working_set(source),
        }
    }

    /// Default eager layout for a source under the current policy.
    fn store_choice(&self, file: &RawFile) -> StoreChoice {
        match self.layout {
            LayoutPolicy::FixedColumnar => StoreChoice::Columnar,
            LayoutPolicy::FixedDremel => StoreChoice::Dremel,
            LayoutPolicy::Auto => {
                // "By default, ReCache caches nested data in the Parquet
                // layout"; flat data starts columnar.
                if file.schema().has_nested() {
                    StoreChoice::Dremel
                } else {
                    StoreChoice::Columnar
                }
            }
        }
    }

    /// Applies the §4.2 layout model to a nested entry; returns the switch
    /// performed and its cost in nanoseconds. A switch rebuilds the entry
    /// in the new layout from `file`'s raw records, by the ids the current
    /// store holds ([`switch_layout`]), outside any shard lock; the swap
    /// installs only if the layout is still the one the build replaces,
    /// so racing sessions cannot clobber each other's switches. No map,
    /// no ids or a failed build means no switch: the entry keeps its
    /// layout, and the query's answer is already computed.
    fn maybe_switch_layout(
        &self,
        file: &RawFile,
        id: EntryId,
    ) -> Option<((LayoutKind, LayoutKind), u64)> {
        // Take the decision (the write side: deciding updates the layout
        // model's cost memo) and an `Arc` of the store under the shard
        // lock; the rebuild needs no further locking.
        let (to, data) = self.registry.with_entry_mut(id, |entry| {
            let decision = entry
                .history
                .decide_nested(entry.data.layout(), entry.data.flattened_rows());
            let to = match (decision, &entry.data) {
                (LayoutDecision::SwitchToColumnar, CacheData::Dremel(_)) => StoreChoice::Columnar,
                (LayoutDecision::SwitchToDremel, CacheData::Columnar(_)) => StoreChoice::Dremel,
                _ => return None,
            };
            Some((to, entry.data.clone()))
        })??;
        let (new_data, ns) = switch_layout(file, to, &data)?;
        let switch = (data.layout(), new_data.layout());
        if !self
            .registry
            .replace_data_if(id, Some(switch.0), new_data, ns)
        {
            // Evicted, or another session switched first: discard.
            return None;
        }
        self.registry.with_entry_mut(id, |entry| {
            entry.history.reset_window();
        });
        Some((switch, ns))
    }

    /// Replaces a lazy entry's offsets with an eager store. Guarded the
    /// same way as layout switches: only the first concurrent upgrader
    /// installs, later ones drop their redundant build.
    fn upgrade_entry(&self, table: &ResolvedTable, id: EntryId) -> Result<u64> {
        let store = match self.registry.with_entry(id, |entry| match &entry.data {
            CacheData::Offsets(store) => Some(Arc::clone(store)),
            _ => None,
        }) {
            Some(Some(store)) => store,
            _ => return Ok(0),
        };
        let choice = self.store_choice(&table.file);
        let (data, ns) = upgrade_to_eager(&table.file, choice, &store)?;
        self.registry
            .replace_data_if(id, Some(LayoutKind::Offsets), data, ns);
        Ok(ns)
    }
}

/// How one table of a query is served, decided by
/// [`ReCache::route_table`].
struct TableRoute {
    /// The resident entry serving the table; `None` scans raw.
    hit: Option<(EntryId, MatchResult)>,
    lookup_ns: u64,
    was_offsets: bool,
    /// Served by waiting on another session's in-flight scan.
    coalesced: bool,
}

impl TableRoute {
    fn miss(lookup_ns: u64) -> Self {
        TableRoute {
            hit: None,
            lookup_ns,
            was_offsets: false,
            coalesced: false,
        }
    }
}

/// Maps cached data to an engine access path.
fn access_path_for(data: &CacheData, file: &Arc<RawFile>) -> AccessPath {
    match data {
        CacheData::Columnar(s) => AccessPath::Columnar(Arc::clone(s)),
        CacheData::Dremel(s) => AccessPath::Dremel(Arc::clone(s)),
        CacheData::Offsets(s) => AccessPath::Offsets {
            file: Arc::clone(file),
            store: Arc::clone(s),
        },
    }
}

impl std::fmt::Debug for ReCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReCache")
            .field("sources", &self.sources.len())
            .field("cached_entries", &self.registry.len())
            .field("cached_bytes", &self.registry.total_bytes())
            .field("queries_run", &self.queries_run)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_data::gen::tpch;
    use recache_data::{csv, json};

    fn lineitem_session(caching: bool) -> ReCache {
        let mut builder = ReCache::builder();
        if !caching {
            builder = builder.no_caching();
        }
        let mut session = builder.build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0003, 42);
        let schema = tpch::lineitem_schema();
        let bytes = csv::write_csv(&schema, &lineitems);
        session.register_csv_bytes("lineitem", bytes, schema);
        session
    }

    fn nested_session() -> ReCache {
        let mut session = ReCache::builder().build();
        let records = tpch::gen_order_lineitems(0.0003, 42);
        let schema = tpch::order_lineitems_schema();
        let bytes = json::write_json(&schema, &records);
        session.register_json_bytes("orderLineitems", bytes, schema);
        session
    }

    #[test]
    fn sql_end_to_end_over_csv() {
        let session = lineitem_session(true);
        let result = session
            .execute(&QueryRequest::sql(
                "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 30",
            ))
            .unwrap();
        assert!(result.rows[0].as_i64().unwrap() > 0);
        assert!(!result.stats.cache_hit);
        // Second identical query: exact cache hit.
        let again = session
            .execute(&QueryRequest::sql(
                "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 30",
            ))
            .unwrap();
        assert_eq!(result.rows, again.rows);
        assert!(again.stats.cache_hit);
        assert_eq!(session.cache().counters().hits_exact, 1);
    }

    #[test]
    fn subsumption_narrower_range_hits_and_matches_raw() {
        let session = lineitem_session(true);
        let wide = session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem WHERE l_quantity >= 10",
            ))
            .unwrap();
        assert!(!wide.stats.cache_hit);
        let narrow = session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem WHERE l_quantity >= 30",
            ))
            .unwrap();
        assert!(narrow.stats.cache_hit, "narrower range should be subsumed");
        // Cross-check against a caching-free session.
        let baseline = lineitem_session(false);
        let truth = baseline
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem WHERE l_quantity >= 30",
            ))
            .unwrap();
        assert_eq!(narrow.rows, truth.rows);
    }

    #[test]
    fn no_caching_session_never_hits() {
        let session = lineitem_session(false);
        for _ in 0..3 {
            let r = session
                .execute(&QueryRequest::sql(
                    "SELECT count(*) FROM lineitem WHERE l_quantity >= 30",
                ))
                .unwrap();
            assert!(!r.stats.cache_hit);
        }
        assert_eq!(session.cache().len(), 0);
    }

    #[test]
    fn nested_json_queries_and_cache_agree() {
        let session = nested_session();
        let q = "SELECT sum(lineitems.l_quantity), count(*) FROM orderLineitems \
                 WHERE lineitems.l_quantity BETWEEN 5 AND 45";
        let first = session.execute(&QueryRequest::sql(q)).unwrap();
        let second = session.execute(&QueryRequest::sql(q)).unwrap();
        assert!(second.stats.cache_hit);
        assert_eq!(first.rows, second.rows);
        // The cached store must be nested columnar by default.
        let entry = session.cache().snapshot().into_iter().next().unwrap();
        assert!(matches!(
            entry.data.layout(),
            LayoutKind::Dremel | LayoutKind::Offsets
        ));
    }

    #[test]
    fn lazy_entries_upgrade_on_reuse() {
        let mut session = ReCache::builder()
            .admission(AdmissionConfig::lazy_only())
            .build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0002, 7);
        let schema = tpch::lineitem_schema();
        session.register_csv_bytes("lineitem", csv::write_csv(&schema, &lineitems), schema);

        let q = "SELECT count(*) FROM lineitem WHERE l_quantity <= 25";
        session.execute(&QueryRequest::sql(q)).unwrap();
        let entry = session.cache().snapshot().into_iter().next().unwrap();
        assert!(matches!(entry.data, CacheData::Offsets(_)));
        // Reuse upgrades lazily cached offsets to an eager store ("if a
        // lazy cached item is accessed again, it is replaced by an eager
        // cache").
        let second = session.execute(&QueryRequest::sql(q)).unwrap();
        assert!(second.stats.cache_hit);
        let entry = session.cache().snapshot().into_iter().next().unwrap();
        assert!(!matches!(entry.data, CacheData::Offsets(_)));
    }

    #[test]
    fn join_query_with_caching() {
        let mut session = ReCache::builder().build();
        let (orders, lineitems) = tpch::gen_orders_and_lineitems(0.0002, 11);
        let li_schema = tpch::lineitem_schema();
        let o_schema = tpch::orders_schema();
        session.register_csv_bytes(
            "lineitem",
            csv::write_csv(&li_schema, &lineitems),
            li_schema,
        );
        session.register_csv_bytes("orders", csv::write_csv(&o_schema, &orders), o_schema);
        let q = "SELECT count(*), avg(o_totalprice) FROM orders \
                 JOIN lineitem ON orders.o_orderkey = lineitem.l_orderkey \
                 WHERE o_totalprice > 1000 AND l_quantity >= 10";
        let first = session.execute(&QueryRequest::sql(q)).unwrap();
        assert!(first.rows[0].as_i64().unwrap() > 0);
        // Both tables get cached; rerun hits both.
        let second = session.execute(&QueryRequest::sql(q)).unwrap();
        assert_eq!(first.rows, second.rows);
        assert!(second.stats.cache_hit);
        assert!(second.stats.tables.iter().all(|t| t.hit.is_some()));
    }

    #[test]
    fn capacity_pressure_evicts() {
        let mut session = ReCache::builder()
            .cache_capacity_bytes(6_000)
            .admission(AdmissionConfig::eager_only())
            .build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0003, 5);
        let schema = tpch::lineitem_schema();
        session.register_csv_bytes("lineitem", csv::write_csv(&schema, &lineitems), schema);
        for lo in 0..12 {
            let q = format!(
                "SELECT count(*) FROM lineitem WHERE l_quantity BETWEEN {lo} AND {}",
                lo + 4
            );
            session.execute(&QueryRequest::sql(&q)).unwrap();
        }
        assert!(session.cache().total_bytes() <= 6_000);
        assert!(session.cache().counters().evictions > 0);
    }

    #[test]
    fn unknown_table_and_attribute_errors() {
        let session = lineitem_session(true);
        assert!(session
            .execute(&QueryRequest::sql("SELECT count(*) FROM nope"))
            .is_err());
        assert!(session
            .execute(&QueryRequest::sql("SELECT sum(frobnicate) FROM lineitem"))
            .is_err());
    }

    #[test]
    fn caching_overhead_is_reported() {
        let mut session = ReCache::builder()
            .admission(AdmissionConfig::eager_only())
            .build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0003, 5);
        let schema = tpch::lineitem_schema();
        session.register_csv_bytes("lineitem", csv::write_csv(&schema, &lineitems), schema);
        let r = session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem WHERE l_quantity >= 2",
            ))
            .unwrap();
        assert!(r.stats.caching_ns > 0);
        assert!(r.stats.total_ns >= r.stats.caching_ns);
        assert_eq!(r.stats.tables[0].admission, Some(AdmissionDecision::Eager));
    }

    #[test]
    fn mixed_predicates_cache_exact_only() {
        let mut session = ReCache::builder().build();
        let schema = recache_data::gen::spam::spam_json_schema();
        let records = recache_data::gen::spam::gen_spam_json(300, 3);
        session.register_json_bytes("spam", json::write_json(&schema, &records), schema);
        let q = "SELECT count(*) FROM spam WHERE lang = 'en' AND size >= 1000";
        let first = session.execute(&QueryRequest::sql(q)).unwrap();
        assert!(!first.stats.cache_hit);
        // Exact repeat hits.
        let second = session.execute(&QueryRequest::sql(q)).unwrap();
        assert!(second.stats.cache_hit);
        assert_eq!(first.rows, second.rows);
        // A weaker range query must NOT be served by the string-filtered
        // entry (it is not subsumable).
        let other = session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM spam WHERE size >= 2000",
            ))
            .unwrap();
        assert!(!other.stats.cache_hit);
        // Correctness check vs no-caching.
        let mut baseline = ReCache::builder().no_caching().build();
        let schema = recache_data::gen::spam::spam_json_schema();
        let records = recache_data::gen::spam::gen_spam_json(300, 3);
        baseline.register_json_bytes("spam", json::write_json(&schema, &records), schema);
        assert_eq!(
            baseline.execute(&QueryRequest::sql(q)).unwrap().rows,
            second.rows
        );
    }
}

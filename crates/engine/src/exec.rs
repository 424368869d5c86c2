//! Physical execution: scans, filters, hash joins, aggregates — with the
//! per-operator cost measurements ReCache's policies consume.
//!
//! # Vectorized vs row-at-a-time execution
//!
//! Every access path runs *vectorized* by default: cache-store scans
//! (columnar / Dremel / row layouts), raw files of any shape (CSV, flat
//! JSON, and nested JSON flattened from its structure tapes, via
//! `RawFile::supports_batch_scan`) and lazy offsets re-reads (the same
//! raw chunk feeder, over the entry's record ids). The source yields
//! typed [`ColumnBatch`]es (see `recache_layout::batch`), compiled
//! predicate kernels compact each batch's `SelectionVector` clause by
//! clause, and batch aggregate kernels fold the survivors — no per-row
//! `Value` materialization on the hot path. A table runs row-at-a-time
//! only when its predicate does not compile (`OR`, `NOT`, slot-vs-slot),
//! when [`ExecOptions::vectorized`]` = false` (kept so the equivalence
//! suites can compare the two), or when a raw I/O error survives the
//! batched scan's retries and the degraded fallback re-reads the file.
//!
//! D/C attribution: predicate-kernel time joins the store's
//! mask-navigation/assembly time in `compute_ns`; aggregate and
//! materialization gathers join the store's value gathering in
//! `data_ns`. See `scan_grid` for how this relates to the row path's
//! in-sink predicate evaluation.
//!
//! # One batched pass for every single-table scan
//!
//! A batched single-table query runs through `scan_batched`, one plan per
//! pass, and every batched scan (single-table or a join input) fans its
//! chunk grid out through `scan_grid`.

use crate::exactsum::ExactSum;
use crate::kernel::{BatchAggregator, CompiledPredicate};
use crate::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache_data::{EntryBuilder, PositionalMap, RawFile, StoreChoice};
use recache_layout::{
    CacheData, ColumnBatch, ColumnStore, DremelStore, RowStore, ScanCost, SelectionVector,
    BATCH_ROWS,
};
use recache_types::{CancelToken, Error, Result, ScanCtl, Value};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use workpool::ThreadPool;

/// A callback the executor invokes between a batched scan's chunk waves
/// to re-observe the query's negotiated thread share (mid-query
/// scheduler repricing): threads freed by departed streams rebalance
/// into the running scan instead of idling until the next query.
/// Cloneable and `'static` so it rides inside [`ExecOptions`] across
/// worker threads (typically capturing an `Arc<StreamLease>`).
#[derive(Clone)]
pub struct Repricer(Arc<dyn Fn() -> usize + Send + Sync>);

impl Repricer {
    pub fn new(f: impl Fn() -> usize + Send + Sync + 'static) -> Self {
        Repricer(Arc::new(f))
    }

    /// The thread budget this query should use from now on.
    pub fn threads(&self) -> usize {
        (self.0)()
    }
}

impl std::fmt::Debug for Repricer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Repricer").finish_non_exhaustive()
    }
}

/// Execution knobs.
#[derive(Debug, Clone)]
pub struct ExecOptions {
    /// Use batched kernels for cache-store scans when possible (default).
    /// Disabled, every access path runs row-at-a-time — kept for
    /// benchmarking and for the vectorized/row equivalence suite.
    pub vectorized: bool,
    /// Threads driving vectorized cache-store scans: batch chunks are
    /// share-nothing, so they are split into contiguous task ranges
    /// executed on the shared work-stealing pool and merged in fixed
    /// task order. `0` (the default) means all available parallelism,
    /// as [`workpool::available_parallelism`] reports it: sampled once
    /// per process, so resolving it costs nothing per query. `1`
    /// reproduces single-threaded execution exactly. Results are
    /// bit-identical at every thread count (sums accumulate through
    /// [`ExactSum`], extremes/ids merge in row order).
    pub threads: usize,
    /// Cooperative cancellation/deadline for this query. Polled at
    /// chunk granularity inside parallel scans and between join-fold
    /// phases; a tripped token surfaces as [`Error::Cancelled`] /
    /// [`Error::Timeout`] and releases the query's thread budget
    /// promptly (workers finish their current chunk and stop).
    pub cancel: Option<Arc<CancelToken>>,
    /// Mid-query repricing hook, consulted between the chunk waves of
    /// every batched scan or join input. `None` (the default) runs each
    /// scan in one span under the initial `threads` budget.
    pub reprice: Option<Repricer>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            vectorized: true,
            threads: 0,
            cancel: None,
            reprice: None,
        }
    }
}

impl ExecOptions {
    /// Vectorized options with an explicit thread budget — the one
    /// defaulting rule every scheduler/bench/test call site shares
    /// instead of hand-rolling struct literals.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads,
            ..ExecOptions::default()
        }
    }

    /// Returns these options with `cancel` replaced.
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The thread count this configuration resolves to (`0` ⇒ machine
    /// parallelism).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            workpool::available_parallelism()
        } else {
            self.threads
        }
    }

    /// Polls the cancel token, if one is installed.
    pub fn check_cancel(&self) -> Result<()> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }
}

/// A request to build a table's eager cache entry inside its batched
/// scan, passed to [`execute_building`].
/// A raw scan appends each chunk's satisfying records, right after the
/// predicate kernels ran over them; a lazy entry's by-id scan appends
/// every record it reads, before the filter. Each task builds its own
/// part, and the parts merge in task order and seal once, into
/// [`TableStats::built`]. Cache-store scans, joins and the row path
/// build nothing: the caller builds after the scan instead.
#[derive(Clone)]
pub struct BuildRequest {
    pub choice: StoreChoice,
    /// The file's positional map, sampled once before the scan. The file's
    /// bytes never change, so the records it locates are the ones the scan
    /// reads even if the file's own map is reset meanwhile.
    pub map: Arc<PositionalMap>,
}

/// Contiguous task ranges per parallel scan: a few tasks per thread so
/// range stealing can rebalance skew without shrinking batches.
const TASKS_PER_THREAD: usize = 4;

/// Splits `n_chunks` batch chunks into at most `threads ·
/// TASKS_PER_THREAD` contiguous, near-even `(lo, hi)` ranges. Pure
/// function of its inputs, so the task decomposition — and with it every
/// merge order — is deterministic for a fixed thread count.
fn task_ranges(n_chunks: usize, threads: usize) -> Vec<(usize, usize)> {
    // `threads = 1` gets exactly one task: a single uninterrupted
    // `scan_batches_range` over the whole grid, i.e. the serial scan.
    let n_tasks = if threads <= 1 {
        1
    } else {
        n_chunks
            .min(threads.saturating_mul(TASKS_PER_THREAD))
            .max(1)
    };
    let base = n_chunks / n_tasks;
    let extra = n_chunks % n_tasks;
    let mut lo = 0usize;
    (0..n_tasks)
        .map(|t| {
            let len = base + usize::from(t < extra);
            let range = (lo, lo + len);
            lo += len;
            range
        })
        .collect()
}

/// What kind of access path served a table, after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Raw file, first scan (tokenized everything, built the positional
    /// map).
    RawFirstScan,
    /// Raw file through an existing positional map.
    RawMapped,
    CacheColumnar,
    CacheDremel,
    CacheRow,
    /// Lazy cache: selective re-read of the raw file.
    CacheOffsets,
}

impl AccessKind {
    pub fn is_cache_store(&self) -> bool {
        matches!(
            self,
            AccessKind::CacheColumnar | AccessKind::CacheDremel | AccessKind::CacheRow
        )
    }
}

/// Per-table execution statistics (the measurements behind `t`, `s`, `D`,
/// `C`, `ri`, `ci` in the paper's cost model).
#[derive(Debug, Clone)]
pub struct TableStats {
    pub name: String,
    pub access: AccessKind,
    /// Wall time for this table's scan + filter. For raw access this is
    /// the operator execution time `t`; for cache access it is the cache
    /// scan time `s`.
    pub exec_ns: u64,
    /// For cache-store scans: the measured D/C split.
    pub cache_scan: Option<ScanCost>,
    /// Row slots visited (`ri`).
    pub rows_scanned: usize,
    /// Rows that satisfied the predicate.
    pub rows_out: usize,
    /// Records visited.
    pub records_scanned: usize,
    /// Columns (leaves) accessed (`ci`).
    pub cols_accessed: usize,
    pub record_level: bool,
    /// For cache-store scans: the store's flattened row count `R`.
    pub flattened_rows: Option<usize>,
    /// Record ids of satisfying tuples, when collection was requested.
    pub satisfying: Option<Vec<u32>>,
    /// Chunk attempts beyond the first (transient faults absorbed by
    /// bounded retry during this table's scan).
    pub retried_chunks: u64,
    /// Whether the batched scan failed with an I/O error and the table
    /// was served by the row-at-a-time fallback instead.
    pub degraded_fallback: bool,
    /// The entry a [`BuildRequest`] asked for, when the batched pass
    /// served the table: the sealed store, or the error of the first
    /// record that failed to build. A failed build drops the entry only;
    /// the answer stands.
    pub built: Option<Result<CacheData>>,
    /// Wall time charged to `built`, and left out of `exec_ns`: the
    /// scan's wall time times the appends' share of the tasks' summed
    /// busy time, plus the merge and seal.
    pub build_ns: u64,
}

/// Whole-query execution statistics.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    pub tables: Vec<TableStats>,
    pub join_ns: u64,
    pub agg_ns: u64,
    pub total_ns: u64,
}

/// Query result: one value per aggregate.
#[derive(Debug, Clone, Default)]
pub struct QueryOutput {
    pub values: Vec<Value>,
    /// Rows that reached the aggregation operator.
    pub rows_aggregated: usize,
    pub stats: ExecStats,
}

/// Executes a plan with default options (vectorized cache-store scans).
pub fn execute(plan: &QueryPlan) -> Result<QueryOutput> {
    execute_with(plan, &ExecOptions::default())
}

/// Executes a plan under explicit [`ExecOptions`].
pub fn execute_with(plan: &QueryPlan, options: &ExecOptions) -> Result<QueryOutput> {
    execute_building(plan, options, None)
}

/// [`execute_with`], building the cache entry `build` asks for inside
/// the scan of a single-table plan (a join ignores it).
pub fn execute_building(
    plan: &QueryPlan,
    options: &ExecOptions,
    build: Option<&BuildRequest>,
) -> Result<QueryOutput> {
    let t_start = Instant::now();
    if plan.tables.is_empty() {
        return Err(Error::plan("plan has no tables"));
    }
    for agg in &plan.aggregates {
        if agg.table >= plan.tables.len() {
            return Err(Error::plan(format!(
                "aggregate references table {}",
                agg.table
            )));
        }
    }
    let output = if plan.tables.len() == 1 && plan.joins.is_empty() {
        execute_single(plan, options, build)?
    } else {
        execute_join(plan, options)?
    };
    let mut output = output;
    output.stats.total_ns = t_start.elapsed().as_nanos() as u64;
    Ok(output)
}

/// Streaming path: scan → filter → aggregate without materializing rows.
fn execute_single(
    plan: &QueryPlan,
    options: &ExecOptions,
    build: Option<&BuildRequest>,
) -> Result<QueryOutput> {
    let table = &plan.tables[0];

    // Vectorized fast path: a batchable source + (absent or compilable)
    // predicate runs as one batched pass.
    let mut degraded = false;
    if let Some((store, pred)) = batchable(table, options) {
        let raw = !store.is_cache_store();
        match scan_batched(store, plan, pred, build, options) {
            Ok(output) => return Ok(output),
            // A raw batched scan whose I/O error survived bounded retry
            // degrades to the row-at-a-time fallback below: the row
            // tokenizer re-reads the source independently (its own
            // fault draws, its own retry), honoring the cache's
            // always-can-recompute-from-raw invariant. Parse errors are
            // deterministic data problems and timeouts/cancellations
            // are final, so only `Error::Io` degrades.
            Err(Error::Io(_)) if raw => degraded = true,
            Err(err) => return Err(err),
        }
    }

    // Row-at-a-time path: non-compilable predicates, vectorization
    // disabled, files over 4 GiB, or the degraded fallback. The
    // cancel token is polled at scan start only — row scans are the
    // fallback path, not the latency-sensitive one.
    options.check_cancel()?;
    let mut satisfying: Option<Vec<u32>> = table.collect_satisfying.then(Vec::new);
    let mut rows_out = 0usize;
    let mut aggs: Vec<AggState> = plan
        .aggregates
        .iter()
        .map(|a| AggState::new(a.func))
        .collect();
    let t0 = Instant::now();
    let scan = scan_table(table, &mut |record_id, row| {
        rows_out += 1;
        if let Some(ids) = satisfying.as_mut() {
            ids.push(record_id as u32);
        }
        for (state, spec) in aggs.iter_mut().zip(&plan.aggregates) {
            match spec.slot {
                Some(s) => state.update(&row[s]),
                None => state.update_count_star(),
            }
        }
    })?;
    let exec_ns = t0.elapsed().as_nanos() as u64;

    let values: Vec<Value> = aggs.into_iter().map(AggState::finish).collect();
    let mut stats = ExecStats {
        tables: vec![table_stats(table, scan, exec_ns, rows_out, satisfying)],
        join_ns: 0,
        agg_ns: 0, // folded into exec_ns on the streaming path
        total_ns: 0,
    };
    stats.tables[0].degraded_fallback = degraded;
    Ok(QueryOutput {
        values,
        rows_aggregated: rows_out,
        stats,
    })
}

/// Join path: materialize filtered tables, fold hash joins, aggregate.
/// Probe/build inputs coming from cache stores are scanned batched —
/// predicate kernels run before any `Value` is materialized, and every
/// slot that feeds a join extracts its typed [`JoinKey`] column straight
/// from the batch views during the scan. The fold then hashes and probes
/// those key columns; it never touches a `Value` to key a row.
fn execute_join(plan: &QueryPlan, options: &ExecOptions) -> Result<QueryOutput> {
    // Which slots of each table serve as a join key (probe or build
    // side). Their key columns are built once, at scan time.
    let mut key_slots: Vec<Vec<usize>> = vec![Vec::new(); plan.tables.len()];
    for join in &plan.joins {
        for (t, s) in [
            (join.left_table, join.left_slot),
            (join.right_table, join.right_slot),
        ] {
            if t < plan.tables.len() && !key_slots[t].contains(&s) {
                key_slots[t].push(s);
            }
        }
    }

    // Scan all tables.
    let mut table_rows: Vec<Vec<Vec<Value>>> = Vec::with_capacity(plan.tables.len());
    let mut table_keys: Vec<Vec<Vec<Option<JoinKey>>>> = Vec::with_capacity(plan.tables.len());
    let mut stats_list: Vec<TableStats> = Vec::with_capacity(plan.tables.len());
    let threads = options.effective_threads();
    for (t, table) in plan.tables.iter().enumerate() {
        options.check_cancel()?;
        let slots = &key_slots[t];
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut keys: Vec<Vec<Option<JoinKey>>> = vec![Vec::new(); slots.len()];
        let mut satisfying: Option<Vec<u32>> = table.collect_satisfying.then(Vec::new);
        let t0 = Instant::now();
        let mut degraded = false;
        let batched = if let Some((store, pred)) = batchable(table, options) {
            let raw = !store.is_cache_store();
            let want_ids = satisfying.is_some();
            // Per-task row/key buffers, concatenated in task (= row)
            // order, so the materialized table is identical at every
            // thread count (a single inline task at `threads = 1`).
            let attempt = scan_grid(
                store,
                &table.accessed,
                table.record_level,
                want_ids,
                options,
                || {
                    (
                        Vec::<Vec<Value>>::new(),
                        want_ids.then(Vec::<u32>::new),
                        vec![Vec::<Option<JoinKey>>::new(); slots.len()],
                    )
                },
                |(rows, ids, keys), batch, sel, phases| {
                    if let Some(pred) = &pred {
                        let t_kernel = Instant::now();
                        pred.filter(&batch.columns, sel);
                        phases.compute_ns += t_kernel.elapsed().as_nanos() as u64;
                    }
                    let t_sink = Instant::now();
                    rows.reserve(sel.len());
                    for &i in sel.as_slice() {
                        let i = i as usize;
                        rows.push(batch.columns.iter().map(|c| c.value(i)).collect());
                        if let Some(ids) = ids.as_mut() {
                            ids.push(batch.record_ids[i]);
                        }
                    }
                    // Join keys straight from the typed views — no
                    // `Value` round trip, dict strings decode once here.
                    for (out, &slot) in keys.iter_mut().zip(slots) {
                        let col = &batch.columns[slot];
                        for &i in sel.as_slice() {
                            out.push(batch_join_key(col, i as usize));
                        }
                    }
                    phases.data_ns += t_sink.elapsed().as_nanos() as u64;
                },
            );
            match attempt {
                Ok((scan, sinks)) => {
                    for (part_rows, part_ids, part_keys) in sinks {
                        rows.extend(part_rows);
                        if let (Some(all), Some(part)) = (satisfying.as_mut(), part_ids) {
                            all.extend(part);
                        }
                        for (all, part) in keys.iter_mut().zip(part_keys) {
                            all.extend(part);
                        }
                    }
                    Some(scan)
                }
                // Same degraded-mode rule as the single-table path: a
                // raw batched scan whose I/O error survived retry falls
                // back to the row tokenizer (nothing was merged into
                // `rows`/`keys` yet — the error preempts the merge).
                Err(Error::Io(_)) if raw => {
                    degraded = true;
                    None
                }
                Err(err) => return Err(err),
            }
        } else {
            None
        };
        let scan = match batched {
            Some(scan) => scan,
            None => {
                options.check_cancel()?;
                let scan = scan_table(table, &mut |record_id, row| {
                    rows.push(row.to_vec());
                    if let Some(ids) = satisfying.as_mut() {
                        ids.push(record_id as u32);
                    }
                })?;
                // Row-fallback tables derive their key columns from the
                // materialized rows (same values, same normalization).
                for (out, &slot) in keys.iter_mut().zip(slots) {
                    out.extend(rows.iter().map(|r| join_key(&r[slot])));
                }
                scan
            }
        };
        let exec_ns = t0.elapsed().as_nanos() as u64;
        let mut stats = table_stats(table, scan, exec_ns, rows.len(), satisfying);
        stats.degraded_fallback = degraded;
        stats_list.push(stats);
        table_keys.push(keys);
        table_rows.push(rows);
    }

    // Fold joins. Combined rows hold per-table projected slots
    // concatenated in table order; `offsets[t]` is table t's base slot.
    let t_join = Instant::now();
    let widths: Vec<usize> = plan.tables.iter().map(|t| t.accessed.len()).collect();
    let mut offsets = vec![0usize; plan.tables.len()];
    for t in 1..plan.tables.len() {
        offsets[t] = offsets[t - 1] + widths[t - 1];
    }
    let mut joined: Vec<Vec<Value>> = Vec::new();
    let mut joined_tables: Vec<usize> = vec![0];
    // Per joined row, the source row index in each joined table (in
    // `joined_tables` order, stride = `joined_tables.len()`): probe keys
    // are looked up through it in the scan-time key columns instead of
    // being re-derived from the combined `Value` row on every fold.
    let mut src: Vec<u32> = (0..table_rows[0].len() as u32).collect();
    // Seed with table 0.
    for row in &table_rows[0] {
        let mut combined = vec![Value::Null; widths.iter().sum()];
        combined[..row.len()].clone_from_slice(row);
        joined.push(combined);
    }
    for join in &plan.joins {
        // One poll per fold step: joins over large inputs are the
        // longest compute phases outside scans.
        options.check_cancel()?;
        let (probe_table, probe_slot, build_table, build_slot) =
            if joined_tables.contains(&join.left_table) {
                (
                    join.left_table,
                    join.left_slot,
                    join.right_table,
                    join.right_slot,
                )
            } else if joined_tables.contains(&join.right_table) {
                (
                    join.right_table,
                    join.right_slot,
                    join.left_table,
                    join.left_slot,
                )
            } else {
                return Err(Error::plan(
                    "join references tables not yet in the joined prefix",
                ));
            };
        if joined_tables.contains(&build_table) {
            return Err(Error::plan("join would re-join an already joined table"));
        }
        // Build a hash map over the new table's key column (partitioned
        // across the pool for large builds).
        let map = build_join_map(
            keys_for(&key_slots, &table_keys, build_table, build_slot),
            threads,
        );
        // Probe with the joined prefix's key column (partitioned across
        // the pool for large probe sides).
        let probe_keys = keys_for(&key_slots, &table_keys, probe_table, probe_slot);
        let probe_pos = joined_tables
            .iter()
            .position(|&t| t == probe_table)
            .expect("probe table is in the joined prefix");
        let build_offset = offsets[build_table];
        (joined, src) = probe_join_map(
            &joined,
            &src,
            joined_tables.len(),
            probe_pos,
            probe_keys,
            &map,
            &table_rows[build_table],
            build_offset,
            threads,
        );
        joined_tables.push(build_table);
    }
    let join_ns = t_join.elapsed().as_nanos() as u64;

    // Aggregate.
    options.check_cancel()?;
    let t_agg = Instant::now();
    let mut aggs: Vec<AggState> = plan
        .aggregates
        .iter()
        .map(|a| AggState::new(a.func))
        .collect();
    for row in &joined {
        for (state, spec) in aggs.iter_mut().zip(&plan.aggregates) {
            match spec.slot {
                Some(s) => state.update(&row[offsets[spec.table] + s]),
                None => state.update_count_star(),
            }
        }
    }
    let agg_ns = t_agg.elapsed().as_nanos() as u64;

    let values: Vec<Value> = aggs.into_iter().map(AggState::finish).collect();
    Ok(QueryOutput {
        values,
        rows_aggregated: joined.len(),
        stats: ExecStats {
            tables: stats_list,
            join_ns,
            agg_ns,
            total_ns: 0,
        },
    })
}

/// Result of scanning one table (before stats assembly).
#[derive(Clone)]
struct ScanOutcome {
    access: AccessKind,
    cache_scan: Option<ScanCost>,
    rows_scanned: usize,
    records_scanned: usize,
    flattened_rows: Option<usize>,
    retried_chunks: u64,
    /// Summed wall time of the batched scan's tasks (0 on the row path).
    busy_ns: u64,
}

/// A scan source that supports batched scans: the three cache stores,
/// raw files, whose chunk grids tokenize/parse records straight into
/// typed scratch columns (no per-record `Value` tree; nested JSON is
/// flattened from its structure tapes in the same pass), and lazy
/// offsets entries, which re-read their record ids through the same
/// raw chunk feeder. The executor never branches on the raw format;
/// `RawFile` dispatches internally.
#[derive(Clone, Copy)]
enum StoreRef<'a> {
    Columnar(&'a ColumnStore),
    Dremel(&'a DremelStore),
    Row(&'a RowStore),
    Raw(&'a RawFile),
    Offsets(&'a RawFile, &'a [u32]),
}

impl StoreRef<'_> {
    /// The access label for stats. Must be sampled **before** the scan
    /// runs: a raw first scan installs the positional map as a side
    /// effect, so sampling afterwards would always report `RawMapped`.
    /// (A racing stream can still install the map between this sample
    /// and the scan's own per-range mode decision — the label is
    /// best-effort under cross-stream races, exact otherwise.)
    fn access_kind(&self) -> AccessKind {
        match self {
            StoreRef::Columnar(_) => AccessKind::CacheColumnar,
            StoreRef::Dremel(_) => AccessKind::CacheDremel,
            StoreRef::Row(_) => AccessKind::CacheRow,
            StoreRef::Raw(file) => {
                if file.posmap().is_some() {
                    AccessKind::RawMapped
                } else {
                    AccessKind::RawFirstScan
                }
            }
            StoreRef::Offsets(..) => AccessKind::CacheOffsets,
        }
    }

    fn record_count(&self) -> usize {
        match self {
            StoreRef::Columnar(s) => s.record_count(),
            StoreRef::Dremel(s) => s.record_count(),
            StoreRef::Row(s) => s.record_count(),
            StoreRef::Raw(file) => file.known_record_count().unwrap_or(0),
            StoreRef::Offsets(_, ids) => ids.len(),
        }
    }

    /// Flattened row count `R` — cache stores only (raw and offsets
    /// scans report no store statistics, matching the row-at-a-time
    /// path).
    fn flattened_rows(&self) -> Option<usize> {
        match self {
            StoreRef::Columnar(s) => Some(s.row_count()),
            StoreRef::Dremel(s) => Some(s.flattened_rows()),
            StoreRef::Row(s) => Some(s.row_count()),
            StoreRef::Raw(_) | StoreRef::Offsets(..) => None,
        }
    }

    /// Whether the source is an in-memory store; raw and offsets scans
    /// read the file, so they can fail on I/O and degrade to the row
    /// path.
    fn is_cache_store(&self) -> bool {
        !matches!(self, StoreRef::Raw(_) | StoreRef::Offsets(..))
    }

    /// Size of the source's batch-chunk grid for this scan shape (the
    /// unit the parallel executor partitions into task ranges).
    fn batch_chunks(&self, projection: &[usize], record_level: bool) -> usize {
        match self {
            StoreRef::Columnar(s) => s.batch_chunks(projection, record_level),
            StoreRef::Dremel(s) => s.batch_chunks(projection, record_level),
            StoreRef::Row(s) => s.batch_chunks(projection, record_level),
            StoreRef::Raw(file) => file.batch_chunks(),
            StoreRef::Offsets(file, ids) => file.batch_chunks_by_id(ids),
        }
    }

    /// Store scans are infallible; raw scans can hit parse errors and
    /// injected faults, so the shared signature is `Result` and store
    /// arms only fail on cancellation.
    ///
    /// Raw arms thread the [`ScanCtl`] through to the source, which
    /// gates every chunk on admission (cancel/timeout, skip-above-
    /// failure) and records failures by chunk index. Cache-store scans
    /// cannot fail, but when a cancel token is present they run
    /// chunk-at-a-time with a poll between chunks, bounding
    /// cancellation latency; without a token they run the whole range
    /// in one call — the unhardened fast path, unchanged.
    #[allow(clippy::too_many_arguments)]
    fn scan_batches_range_ctl(
        &self,
        projection: &[usize],
        record_level: bool,
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        ctl: Option<&ScanCtl>,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut recache_layout::SelectionVector),
    ) -> Result<ScanCost> {
        match self {
            StoreRef::Raw(file) => {
                return file.scan_batches_range_ctl(
                    projection,
                    want_record_ids,
                    chunk_lo,
                    chunk_hi,
                    ctl,
                    on_batch,
                )
            }
            StoreRef::Offsets(file, ids) => {
                return file.scan_batches_by_id_ctl(
                    ids,
                    projection,
                    want_record_ids,
                    chunk_lo,
                    chunk_hi,
                    ctl,
                    on_batch,
                )
            }
            _ => {}
        }
        let run = |lo: usize,
                   hi: usize,
                   on_batch: &mut dyn FnMut(
            &ColumnBatch<'_>,
            &mut recache_layout::SelectionVector,
        )| match self {
            StoreRef::Columnar(s) => {
                s.scan_batches_range(projection, record_level, want_record_ids, lo, hi, on_batch)
            }
            StoreRef::Dremel(s) => {
                s.scan_batches_range(projection, record_level, want_record_ids, lo, hi, on_batch)
            }
            StoreRef::Row(s) => {
                s.scan_batches_range(projection, record_level, want_record_ids, lo, hi, on_batch)
            }
            StoreRef::Raw(_) | StoreRef::Offsets(..) => unreachable!("raw handled above"),
        };
        match ctl.and_then(ScanCtl::cancel_token) {
            None => Ok(run(chunk_lo, chunk_hi, on_batch)),
            Some(token) => {
                let mut cost = ScanCost::default();
                for chunk in chunk_lo..chunk_hi {
                    token.check()?;
                    cost.add(&run(chunk, chunk + 1, on_batch));
                }
                Ok(cost)
            }
        }
    }
}

/// Whether this table can run vectorized: any access path under 4 GiB
/// of raw bytes, unless vectorization is off or the predicate does not
/// compile to kernels. The degraded fallback after a raw I/O error is
/// the caller's.
fn batchable<'a>(
    table: &'a TablePlan,
    options: &ExecOptions,
) -> Option<(StoreRef<'a>, Option<CompiledPredicate>)> {
    if !options.vectorized {
        return None;
    }
    let store = match &table.access {
        AccessPath::Columnar(s) => StoreRef::Columnar(s),
        AccessPath::Dremel(s) => StoreRef::Dremel(s),
        AccessPath::Row(s) => StoreRef::Row(s),
        // Raw scans of any format and shape batch like stores, and so do
        // lazy entries' re-reads of their record ids.
        AccessPath::Raw(file) if file.supports_batch_scan() => StoreRef::Raw(file),
        AccessPath::Offsets { file, store } if file.supports_batch_scan() => {
            StoreRef::Offsets(file, store.record_ids())
        }
        AccessPath::Raw(_) | AccessPath::Offsets { .. } => return None,
    };
    let pred = match table.predicate.as_ref() {
        None => None,
        // A predicate that does not compile (OR / NOT / slot-vs-slot)
        // sends the whole table down the row-at-a-time path.
        Some(p) => Some(CompiledPredicate::compile(p)?),
    };
    Some((store, pred))
}

/// One task's output of a batched scan.
struct Sink {
    aggs: Vec<BatchAggregator>,
    rows_out: usize,
    /// Satisfying record ids, when the plan collects them.
    ids: Option<Vec<u32>>,
    /// This task's part of the table's entry, when the scan builds one.
    build: Option<TaskBuild>,
}

impl Sink {
    fn new(plan: &QueryPlan, build: Option<(&BuildRequest, &RawFile)>) -> Self {
        Sink {
            aggs: plan
                .aggregates
                .iter()
                .map(|a| BatchAggregator::new(a.func))
                .collect(),
            rows_out: 0,
            ids: plan.tables[0].collect_satisfying.then(Vec::new),
            build: build.map(|(request, file)| TaskBuild {
                builder: Ok(EntryBuilder::new(file.schema(), request.choice)),
                ids: Vec::new(),
                append_ns: 0,
                seal_ns: 0,
            }),
        }
    }

    fn consume(&mut self, aggregates: &[AggSpec], batch: &ColumnBatch<'_>, sel: &SelectionVector) {
        self.rows_out += sel.len();
        if let Some(ids) = self.ids.as_mut() {
            ids.extend(sel.as_slice().iter().map(|&i| batch.record_ids[i as usize]));
        }
        for (state, spec) in self.aggs.iter_mut().zip(aggregates) {
            state.update(spec.slot.map(|s| &batch.columns[s]), sel);
        }
    }

    /// Appends the records of `rows` to this task's part of the entry,
    /// when the scan builds one.
    fn build(
        &mut self,
        build: Option<(&BuildRequest, &RawFile)>,
        batch: &ColumnBatch<'_>,
        rows: &SelectionVector,
    ) {
        if let (Some(part), Some((request, file))) = (self.build.as_mut(), build) {
            part.append(request, file, batch, rows.as_slice());
        }
    }

    /// Appends the sink of the next task (task order is row order).
    fn merge(&mut self, next: Sink) {
        self.rows_out += next.rows_out;
        if let (Some(all), Some(part)) = (self.ids.as_mut(), next.ids) {
            all.extend(part);
        }
        for (into, part) in self.aggs.iter_mut().zip(next.aggs) {
            into.merge(part);
        }
        if let (Some(into), Some(part)) = (self.build.as_mut(), next.build) {
            into.merge(part);
        }
    }
}

/// One task's part of an entry built in the pass.
struct TaskBuild {
    /// The records appended so far, or the error of the first record
    /// that failed to build (nothing more is appended then).
    builder: Result<EntryBuilder>,
    /// File record ids of the appended records, ascending.
    ids: Vec<u32>,
    /// Time spent appending, on this task's thread.
    append_ns: u64,
    /// Time spent merging later tasks' parts in, and sealing.
    seal_ns: u64,
}

impl TaskBuild {
    /// Appends the records of `rows` of `batch`. A record's rows are
    /// adjacent and record ids ascend, so each record is taken once.
    fn append(
        &mut self,
        request: &BuildRequest,
        file: &RawFile,
        batch: &ColumnBatch<'_>,
        rows: &[u32],
    ) {
        let Ok(builder) = self.builder.as_mut() else {
            return;
        };
        let t0 = Instant::now();
        let start = self.ids.len();
        for &row in rows {
            let id = batch.record_ids[row as usize];
            if self.ids.last() != Some(&id) {
                self.ids.push(id);
            }
        }
        if let Err(err) = file.append_records_with(&request.map, &self.ids[start..], builder) {
            self.builder = Err(err);
        }
        self.append_ns += t0.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, next: TaskBuild) {
        let t0 = Instant::now();
        match (&mut self.builder, next.builder) {
            (Ok(into), Ok(part)) => {
                into.append(part);
                self.ids.extend(next.ids);
            }
            (Ok(_), Err(err)) => self.builder = Err(err),
            (Err(_), _) => {}
        }
        self.append_ns += next.append_ns;
        self.seal_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Seals the merged entry, returning it with the time charged to it:
    /// `grid_ns` (the scan's wall time) times this build's share of the
    /// tasks' summed `busy_ns`, plus the merge and seal.
    fn seal(mut self, file: &RawFile, grid_ns: u64, busy_ns: u64) -> (Result<CacheData>, u64) {
        let t0 = Instant::now();
        let built = self.builder.map(|b| b.finish(file.schema(), self.ids));
        self.seal_ns += t0.elapsed().as_nanos() as u64;
        let share = (self.append_ns as f64 / busy_ns.max(1) as f64).min(1.0);
        (built, (grid_ns as f64 * share) as u64 + self.seal_ns)
    }
}

/// The batched single-table driver: runs one plan over its store in one
/// chunk-grid pass ([`scan_grid`]), projecting the plan's own `accessed`
/// leaves. Per batch the predicate kernels compact the batch's selection
/// in place, their time charged to compute `C`, and the sink's time to
/// data `D`. Per-task sinks merge in ascending task order, so the output
/// is the same at every thread count (order-exact sums via [`ExactSum`]).
///
/// With a [`BuildRequest`] over a raw or lazy source the pass also
/// appends records to its task's entry builder per batch, timed apart
/// from `C` and `D`: over a raw file the rows the predicate kept, over a
/// lazy entry's ids every row, before the filter. Chunks are
/// transactional, so a retried chunk appends once.
fn scan_batched(
    store: StoreRef<'_>,
    plan: &QueryPlan,
    pred: Option<CompiledPredicate>,
    build: Option<&BuildRequest>,
    options: &ExecOptions,
) -> Result<QueryOutput> {
    let t0 = Instant::now();
    let table = &plan.tables[0];
    let (build_file, build_every_row) = match store {
        StoreRef::Raw(file) => (Some(file), false),
        StoreRef::Offsets(file, _) => (Some(file), true),
        _ => (None, false),
    };
    let build = build.zip(build_file);
    let want_ids = table.collect_satisfying || build.is_some();
    let t_grid = Instant::now();
    let (scan, tasks) = scan_grid(
        store,
        &table.accessed,
        table.record_level,
        want_ids,
        options,
        || Sink::new(plan, build),
        |sink, batch, sel, phases| {
            if build_every_row {
                sink.build(build, batch, sel);
            }
            if let Some(pred) = &pred {
                let t_kernel = Instant::now();
                pred.filter(&batch.columns, sel);
                phases.compute_ns += t_kernel.elapsed().as_nanos() as u64;
            }
            if !build_every_row {
                sink.build(build, batch, sel);
            }
            let t_sink = Instant::now();
            sink.consume(&plan.aggregates, batch, sel);
            phases.data_ns += t_sink.elapsed().as_nanos() as u64;
        },
    )?;
    let grid_ns = t_grid.elapsed().as_nanos() as u64;
    let mut tasks = tasks.into_iter();
    let mut sink = tasks.next().expect("a chunk grid runs at least one task");
    for next in tasks {
        sink.merge(next);
    }
    let built = match (sink.build.take(), build) {
        (Some(part), Some((_, file))) => Some(part.seal(file, grid_ns, scan.busy_ns)),
        _ => None,
    };
    // The build ran inside the pass; what the pass charges to the scan
    // is the rest.
    let build_ns = built.as_ref().map_or(0, |(_, ns)| *ns);
    let exec_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(build_ns);
    let mut stats = table_stats(table, scan, exec_ns, sink.rows_out, sink.ids);
    if let Some((built, ns)) = built {
        stats.built = Some(built);
        stats.build_ns = ns;
    }
    Ok(QueryOutput {
        values: sink.aggs.into_iter().map(BatchAggregator::finish).collect(),
        rows_aggregated: sink.rows_out,
        stats: ExecStats {
            tables: vec![stats],
            // Aggregation is folded into exec_ns on the streaming path;
            // the caller stamps total_ns.
            ..ExecStats::default()
        },
    })
}

/// The one chunk-grid driver behind every batched scan. The store's
/// batch-chunk grid is split into contiguous task ranges
/// ([`task_ranges`] — a single range at `threads = 1`, which the pool
/// runs inline on the caller); each task feeds its batches to `on_batch`
/// against its own state (`make()`), and the states return **in task
/// order** — ascending row position — for the caller to merge.
/// `want_record_ids` materializes per-row source ids (only needed when
/// collecting satisfying ids — skipping it keeps the columnar mask walk a
/// pure bitmask loop).
///
/// With [`ExecOptions::reprice`] set, the grid runs in chunk *waves* of
/// one full task grid each and re-observes the thread budget between
/// waves (mid-query scheduler repricing); without it one span covers the
/// grid. One [`ScanCtl`] spans all waves, so fault-retry bookkeeping,
/// skip-above-failure and deterministic error selection (all keyed by
/// global chunk index) behave exactly as in a single span.
///
/// Attribution: `on_batch` charges predicate-kernel time to
/// `phases.compute_ns` (`C`) and consumer gather time to
/// `phases.data_ns` (`D`). The row path cannot split these — it
/// evaluates the predicate inside the store's gather loop, so its
/// `data_ns` includes predicate time; vectorized `C` is therefore a
/// slight superset of the row path's, matching the cost model's
/// definition of `C` as "everything that is not a plain value load".
/// D/C phase timings accumulate per worker and are summed on merge, so
/// the cost model sees total CPU work (`exec_ns` wall time still
/// reflects the parallel speedup; the `D`/`C` split prices the work
/// itself, which parallelism redistributes but does not shrink).
fn scan_grid<T: Send>(
    store: StoreRef<'_>,
    projection: &[usize],
    record_level: bool,
    want_record_ids: bool,
    options: &ExecOptions,
    make: impl Fn() -> T + Sync,
    on_batch: impl Fn(&mut T, &ColumnBatch<'_>, &mut SelectionVector, &mut ScanCost) + Sync,
) -> Result<(ScanOutcome, Vec<T>)> {
    // Sampled before the scan: a raw first scan installs the positional
    // map as a side effect, so sampling afterwards would mislabel it.
    let access = store.access_kind();
    let n_chunks = store.batch_chunks(projection, record_level);
    // One control block per scan, shared by every task of every wave:
    // external cancellation fans in through it, chunk failures record
    // into it keyed by chunk index, and tasks consult it to skip chunks
    // above an already-failed one.
    let ctl = ScanCtl::new(options.cancel.clone());
    let mut threads = options.effective_threads();
    let mut cost = ScanCost::default();
    let mut states = Vec::new();
    let mut busy_ns = 0u64;
    let mut lo = 0usize;
    loop {
        let wave = match options.reprice {
            None => n_chunks,
            Some(_) => threads * TASKS_PER_THREAD,
        };
        let hi = n_chunks.min(lo + wave);
        let ranges = task_ranges(hi - lo, threads);
        let tasks = ThreadPool::global().map_index(ranges.len(), threads, |t| {
            let t_task = Instant::now();
            let (task_lo, task_hi) = ranges[t];
            let mut state = make();
            let mut phases = ScanCost::default();
            let scanned = store.scan_batches_range_ctl(
                projection,
                record_level,
                want_record_ids,
                lo + task_lo,
                lo + task_hi,
                Some(&ctl),
                &mut |batch, sel| on_batch(&mut state, batch, sel, &mut phases),
            );
            let scanned = scanned.map(|mut c| {
                c.add(&phases);
                c
            });
            (scanned, state, t_task.elapsed().as_nanos() as u64)
        });
        let mut first_task_err: Option<Error> = None;
        for (scanned, state, task_ns) in tasks {
            busy_ns += task_ns;
            match scanned {
                Ok(c) => {
                    cost.add(&c);
                    states.push(state);
                }
                Err(err) => {
                    first_task_err.get_or_insert(err);
                }
            }
        }
        // Deterministic error selection. Task ranges cover contiguous
        // ascending chunk ranges and a chunk is only skipped when a
        // failure at a *lower* index is already recorded, so the
        // globally-first failing chunk always runs and records into the
        // control block — its error is what the scan reports, regardless
        // of which task finished (or was cancelled) first. Errors that
        // bypass the control block (cancellation/timeout) are identical
        // across tasks, so falling back to the first-in-task-order one is
        // equally stable.
        if let Some(err) = ctl.take_error().or(first_task_err) {
            return Err(err);
        }
        lo = hi;
        if lo >= n_chunks {
            break;
        }
        if let Some(repricer) = &options.reprice {
            threads = repricer.threads().max(1);
        }
    }
    Ok((
        ScanOutcome {
            access,
            rows_scanned: cost.rows_visited,
            records_scanned: store.record_count(),
            flattened_rows: store.flattened_rows(),
            // Raw scans report no D/C split, matching the row-path raw
            // scan — the cost model prices cache layouts, not files.
            cache_scan: store.is_cache_store().then_some(cost),
            retried_chunks: ctl.retries(),
            busy_ns,
        },
        states,
    ))
}

/// Runs one table's scan + filter row-at-a-time, pushing the source
/// record id and row of every satisfying tuple to `sink`.
fn scan_table(table: &TablePlan, sink: &mut dyn FnMut(usize, &[Value])) -> Result<ScanOutcome> {
    let predicate = table.predicate.as_ref();
    match &table.access {
        AccessPath::Raw(file) => {
            let accessed = leaf_bitmap(file.leaves().len(), &table.accessed);
            let mut emit = |record_id: usize, row: Vec<Value>| {
                if predicate.is_none_or(|p| p.eval_bool(&row)) {
                    sink(record_id, &row);
                }
            };
            let metrics = file.scan_projected(&accessed, &mut |id, row| emit(id, row))?;
            Ok(ScanOutcome {
                access: if metrics.used_posmap {
                    AccessKind::RawMapped
                } else {
                    AccessKind::RawFirstScan
                },
                cache_scan: None,
                rows_scanned: metrics.rows,
                records_scanned: metrics.records,
                flattened_rows: None,
                retried_chunks: 0,
                busy_ns: 0,
            })
        }
        AccessPath::Offsets { file, store } => {
            let accessed = leaf_bitmap(file.leaves().len(), &table.accessed);
            let metrics =
                file.scan_records_projected(store.record_ids(), &accessed, &mut |id, row| {
                    if predicate.is_none_or(|p| p.eval_bool(&row)) {
                        sink(id, &row);
                    }
                })?;
            Ok(ScanOutcome {
                access: AccessKind::CacheOffsets,
                cache_scan: None,
                rows_scanned: metrics.rows,
                records_scanned: metrics.records,
                flattened_rows: None,
                retried_chunks: 0,
                busy_ns: 0,
            })
        }
        AccessPath::Columnar(store) => {
            let cost = store.scan(&table.accessed, table.record_level, &mut |id, row| {
                if predicate.is_none_or(|p| p.eval_bool(row)) {
                    sink(id, row);
                }
            });
            Ok(ScanOutcome {
                access: AccessKind::CacheColumnar,
                rows_scanned: cost.rows_visited,
                records_scanned: store.record_count(),
                flattened_rows: Some(store.row_count()),
                cache_scan: Some(cost),
                retried_chunks: 0,
                busy_ns: 0,
            })
        }
        AccessPath::Dremel(store) => {
            let cost = store.scan(&table.accessed, table.record_level, &mut |id, row| {
                if predicate.is_none_or(|p| p.eval_bool(row)) {
                    sink(id, row);
                }
            });
            Ok(ScanOutcome {
                access: AccessKind::CacheDremel,
                rows_scanned: cost.rows_visited,
                records_scanned: store.record_count(),
                flattened_rows: Some(store.flattened_rows()),
                cache_scan: Some(cost),
                retried_chunks: 0,
                busy_ns: 0,
            })
        }
        AccessPath::Row(store) => {
            let cost = store.scan(&table.accessed, table.record_level, &mut |id, row| {
                if predicate.is_none_or(|p| p.eval_bool(row)) {
                    sink(id, row);
                }
            });
            Ok(ScanOutcome {
                access: AccessKind::CacheRow,
                rows_scanned: cost.rows_visited,
                records_scanned: store.record_count(),
                flattened_rows: Some(store.row_count()),
                cache_scan: Some(cost),
                retried_chunks: 0,
                busy_ns: 0,
            })
        }
    }
}

fn table_stats(
    table: &TablePlan,
    scan: ScanOutcome,
    exec_ns: u64,
    rows_out: usize,
    satisfying: Option<Vec<u32>>,
) -> TableStats {
    TableStats {
        name: table.name.clone(),
        access: scan.access,
        exec_ns,
        cache_scan: scan.cache_scan,
        rows_scanned: scan.rows_scanned,
        rows_out,
        records_scanned: scan.records_scanned,
        cols_accessed: table.accessed.len(),
        record_level: table.record_level,
        flattened_rows: scan.flattened_rows,
        satisfying,
        retried_chunks: scan.retried_chunks,
        degraded_fallback: false,
        built: None,
        build_ns: 0,
    }
}

fn leaf_bitmap(width: usize, accessed: &[usize]) -> Vec<bool> {
    let mut out = vec![false; width];
    for &leaf in accessed {
        out[leaf] = true;
    }
    out
}

/// Rows below which a join build or probe stays single-threaded (hashing
/// or probing a few thousand rows is cheaper than a pool dispatch).
const PARALLEL_JOIN_MIN_ROWS: usize = 2 * BATCH_ROWS;

/// The scan-time key column for one `(table, slot)` join input.
fn keys_for<'a>(
    key_slots: &[Vec<usize>],
    table_keys: &'a [Vec<Vec<Option<JoinKey>>>],
    table: usize,
    slot: usize,
) -> &'a [Option<JoinKey>] {
    let idx = key_slots[table]
        .iter()
        .position(|&s| s == slot)
        .expect("join slot was registered before the scans");
    &table_keys[table][idx]
}

/// [`JoinKey`] of batch row `i`, read straight off the typed column view
/// — the vectorized twin of [`join_key`], with identical Int/Float
/// normalization (so batched and row-fallback inputs hash identically).
fn batch_join_key(col: &recache_layout::BatchColumn<'_>, i: usize) -> Option<JoinKey> {
    use recache_layout::BatchValues;
    if !col.is_valid(i) {
        return None;
    }
    match &col.values {
        BatchValues::Int(vals) => Some(JoinKey::Int(vals[i])),
        BatchValues::Float(vals) => {
            let v = vals[i];
            if v.fract() == 0.0 && v.abs() < 9e15 {
                Some(JoinKey::Int(v as i64))
            } else {
                Some(JoinKey::Bits(v.to_bits()))
            }
        }
        BatchValues::Bool(vals) => Some(JoinKey::Bool(vals[i])),
        values @ (BatchValues::Str { .. } | BatchValues::Dict { .. }) => {
            Some(JoinKey::Str(values.str_at(i).to_owned()))
        }
    }
}

/// Hash-join build over a scan-time key column: maps each key to the
/// ascending row indices holding it. Large builds hash contiguous
/// partitions on the pool and merge the partition maps in partition
/// order, so every key's index list — and therefore the probe output
/// order — is identical to a serial build's.
fn build_join_map(keys: &[Option<JoinKey>], threads: usize) -> HashMap<JoinKey, Vec<usize>> {
    let hash_partition = |lo: usize, hi: usize| {
        let mut map: HashMap<JoinKey, Vec<usize>> = HashMap::new();
        for (i, key) in keys[lo..hi].iter().enumerate() {
            if let Some(key) = key {
                map.entry(key.clone()).or_default().push(lo + i);
            }
        }
        map
    };
    if threads <= 1 || keys.len() < PARALLEL_JOIN_MIN_ROWS {
        return hash_partition(0, keys.len());
    }
    let ranges = task_ranges(keys.len(), threads);
    let partitions = ThreadPool::global().map_index(ranges.len(), threads, |p| {
        let (lo, hi) = ranges[p];
        hash_partition(lo, hi)
    });
    let mut merged: HashMap<JoinKey, Vec<usize>> = HashMap::new();
    for partition in partitions {
        for (key, indices) in partition {
            merged.entry(key).or_default().extend(indices);
        }
    }
    merged
}

/// Hash-join probe: joins each prefix row against the build map, emitting
/// one combined row (and its extended source-index row) per match. The
/// probe key comes from the probe table's scan-time key column, located
/// through the prefix row's source indices — no `Value` is read or
/// normalized during the probe. Large probe sides are partitioned into
/// contiguous row ranges probed on the pool, with per-partition match
/// lists concatenated in partition order — the probe output (and with it
/// every downstream aggregate) is identical to a serial probe's at any
/// thread count (the same fixed-order-merge discipline as the scans).
#[allow(clippy::too_many_arguments)]
fn probe_join_map(
    joined: &[Vec<Value>],
    src: &[u32],
    stride: usize,
    probe_pos: usize,
    probe_keys: &[Option<JoinKey>],
    map: &HashMap<JoinKey, Vec<usize>>,
    build_rows: &[Vec<Value>],
    build_offset: usize,
    threads: usize,
) -> (Vec<Vec<Value>>, Vec<u32>) {
    let probe_partition = |lo: usize, hi: usize| {
        let mut out: Vec<Vec<Value>> = Vec::new();
        let mut out_src: Vec<u32> = Vec::new();
        for (j, combined) in joined[lo..hi].iter().enumerate() {
            let row_src = &src[(lo + j) * stride..(lo + j + 1) * stride];
            let Some(key) = probe_keys[row_src[probe_pos] as usize].as_ref() else {
                continue;
            };
            if let Some(matches) = map.get(key) {
                for &i in matches {
                    let mut row = combined.clone();
                    let build = &build_rows[i];
                    row[build_offset..build_offset + build.len()].clone_from_slice(build);
                    out.push(row);
                    out_src.extend_from_slice(row_src);
                    out_src.push(i as u32);
                }
            }
        }
        (out, out_src)
    };
    if threads <= 1 || joined.len() < PARALLEL_JOIN_MIN_ROWS {
        return probe_partition(0, joined.len());
    }
    let ranges = task_ranges(joined.len(), threads);
    let mut partitions = ThreadPool::global().map_index(ranges.len(), threads, |p| {
        let (lo, hi) = ranges[p];
        probe_partition(lo, hi)
    });
    let total = partitions.iter().map(|(rows, _)| rows.len()).sum();
    let mut out = Vec::with_capacity(total);
    let mut out_src = Vec::with_capacity(total * (stride + 1));
    for (rows, srcs) in &mut partitions {
        out.append(rows);
        out_src.append(srcs);
    }
    (out, out_src)
}

/// Hashable join key with Int/Float normalization.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum JoinKey {
    Int(i64),
    Bits(u64),
    Str(String),
    Bool(bool),
}

fn join_key(value: &Value) -> Option<JoinKey> {
    match value {
        Value::Null => None,
        Value::Int(v) => Some(JoinKey::Int(*v)),
        Value::Float(v) if v.fract() == 0.0 && v.abs() < 9e15 => Some(JoinKey::Int(*v as i64)),
        Value::Float(v) => Some(JoinKey::Bits(v.to_bits())),
        Value::Str(s) => Some(JoinKey::Str(s.clone())),
        Value::Bool(b) => Some(JoinKey::Bool(*b)),
        Value::List(_) | Value::Struct(_) => None,
    }
}

/// Streaming aggregate state. Sums go through [`ExactSum`] so the result
/// is independent of accumulation order — the property that lets the
/// vectorized and parallel paths match this one bit for bit.
struct AggState {
    func: AggFunc,
    count: u64,
    sum: ExactSum,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    fn new(func: AggFunc) -> Self {
        AggState {
            func,
            count: 0,
            sum: ExactSum::new(),
            min: None,
            max: None,
        }
    }

    #[inline]
    fn update(&mut self, value: &Value) {
        if value.is_null() {
            return;
        }
        self.count += 1;
        match self.func {
            AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => {
                self.sum.add(value.as_f64().unwrap_or(0.0));
            }
            AggFunc::Min => {
                if self.min.as_ref().is_none_or(|m| value.cmp_sql(m).is_lt()) {
                    self.min = Some(value.clone());
                }
            }
            AggFunc::Max => {
                if self.max.as_ref().is_none_or(|m| value.cmp_sql(m).is_gt()) {
                    self.max = Some(value.clone());
                }
            }
        }
    }

    #[inline]
    fn update_count_star(&mut self) {
        self.count += 1;
    }

    fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum.finish()),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum.finish() / self.count as f64)
                }
            }
            AggFunc::Min => self.min.unwrap_or(Value::Null),
            AggFunc::Max => self.max.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::plan::{AggSpec, JoinSpec};
    use recache_data::{csv, json, FileFormat, RawFile};
    use recache_types::{DataType, Field, Schema};
    use std::sync::Arc;

    fn csv_file() -> Arc<RawFile> {
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::required("v", DataType::Float),
            Field::required("g", DataType::Int),
        ]);
        let rows: Vec<Vec<Value>> = (0..100)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Float(i as f64 * 0.5),
                    Value::Int(i % 4),
                ]
            })
            .collect();
        let bytes = csv::write_csv(&schema, &rows);
        Arc::new(RawFile::from_bytes(bytes, FileFormat::Csv, schema))
    }

    fn json_file() -> Arc<RawFile> {
        let schema = Schema::new(vec![
            Field::required("o", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![Field::required(
                    "q",
                    DataType::Int,
                )]))),
            ),
        ]);
        let records: Vec<Value> = (0..10)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::List(
                        (0..3)
                            .map(|j| Value::Struct(vec![Value::Int(i * 10 + j)]))
                            .collect(),
                    ),
                ])
            })
            .collect();
        let bytes = json::write_json(&schema, &records);
        Arc::new(RawFile::from_bytes(bytes, FileFormat::Json, schema))
    }

    fn raw_plan(file: Arc<RawFile>, predicate: Option<Expr>, accessed: Vec<usize>) -> TablePlan {
        TablePlan {
            name: "t".into(),
            access: AccessPath::Raw(file),
            accessed,
            predicate,
            record_level: true,
            collect_satisfying: false,
        }
    }

    #[test]
    fn default_threads_resolve_to_the_sampled_parallelism() {
        let machine = workpool::available_parallelism();
        assert_eq!(ExecOptions::default().effective_threads(), machine);
        assert_eq!(ExecOptions::default().effective_threads(), machine);
        assert_eq!(ExecOptions::with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn single_table_aggregates() {
        let plan = QueryPlan {
            tables: vec![raw_plan(
                csv_file(),
                Some(Expr::cmp(0, CmpOp::Lt, 10i64)),
                vec![0, 1],
            )],
            joins: vec![],
            aggregates: vec![
                AggSpec {
                    table: 0,
                    slot: None,
                    func: AggFunc::Count,
                },
                AggSpec {
                    table: 0,
                    slot: Some(1),
                    func: AggFunc::Sum,
                },
                AggSpec {
                    table: 0,
                    slot: Some(1),
                    func: AggFunc::Min,
                },
                AggSpec {
                    table: 0,
                    slot: Some(1),
                    func: AggFunc::Max,
                },
                AggSpec {
                    table: 0,
                    slot: Some(1),
                    func: AggFunc::Avg,
                },
            ],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.rows_aggregated, 10);
        assert_eq!(out.values[0], Value::Int(10));
        assert_eq!(out.values[1], Value::Float(22.5)); // 0.5*(0+..+9)
        assert_eq!(out.values[2], Value::Float(0.0));
        assert_eq!(out.values[3], Value::Float(4.5));
        assert_eq!(out.values[4], Value::Float(2.25));
        assert_eq!(out.stats.tables[0].access, AccessKind::RawFirstScan);
        assert_eq!(out.stats.tables[0].rows_out, 10);
    }

    #[test]
    fn second_scan_uses_positional_map() {
        let file = csv_file();
        let plan = QueryPlan {
            tables: vec![raw_plan(file.clone(), None, vec![0])],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            }],
        };
        let first = execute(&plan).unwrap();
        assert_eq!(first.stats.tables[0].access, AccessKind::RawFirstScan);
        let second = execute(&plan).unwrap();
        assert_eq!(second.stats.tables[0].access, AccessKind::RawMapped);
        assert_eq!(second.values[0], Value::Int(100));
    }

    #[test]
    fn nested_json_element_level_count() {
        let file = json_file();
        let plan = QueryPlan {
            tables: vec![TablePlan {
                name: "j".into(),
                access: AccessPath::Raw(file),
                accessed: vec![0, 1],
                predicate: None,
                record_level: false,
                collect_satisfying: false,
            }],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            }],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.values[0], Value::Int(30)); // 10 records x 3 items
    }

    /// The nested chunk grid gives a second thread work: a sf 0.001
    /// `orderLineitems` file spans several chunks, and a 2-thread scan
    /// (first and mapped) equals the 1-thread scan bit for bit.
    #[test]
    fn nested_json_scans_fan_out_bit_identically() {
        let schema = recache_data::gen::tpch::order_lineitems_schema();
        let records = recache_data::gen::tpch::gen_order_lineitems(0.001, 42);
        let bytes = json::write_json(&schema, &records);
        let leaf = |path: &str| {
            schema
                .leaf_index(&recache_types::FieldPath::parse(path))
                .expect("TPC-H leaf")
        };
        let (price, quantity) = (leaf("o_totalprice"), leaf("lineitems.l_quantity"));
        let run = |threads: usize| {
            let file = Arc::new(RawFile::from_bytes(
                bytes.clone(),
                FileFormat::Json,
                schema.clone(),
            ));
            assert!(file.supports_batch_scan());
            assert!(file.batch_chunks() >= 2, "{} chunks", file.batch_chunks());
            let plan = QueryPlan {
                tables: vec![TablePlan {
                    collect_satisfying: true,
                    record_level: false,
                    ..raw_plan(
                        Arc::clone(&file),
                        Some(Expr::between(1, 5.0, 30.0)),
                        vec![price, quantity],
                    )
                }],
                joins: vec![],
                aggregates: [(None, AggFunc::Count), (Some(0), AggFunc::Sum)]
                    .into_iter()
                    .chain([(Some(1), AggFunc::Avg), (Some(0), AggFunc::Max)])
                    .map(|(slot, func)| AggSpec {
                        table: 0,
                        slot,
                        func,
                    })
                    .collect(),
            };
            let options = ExecOptions::with_threads(threads);
            [execute_with(&plan, &options), execute_with(&plan, &options)].map(|out| {
                let mut out = out.unwrap();
                let bits: Vec<Option<u64>> = out
                    .values
                    .iter()
                    .map(|v| v.as_f64().map(f64::to_bits))
                    .collect();
                (
                    bits,
                    out.rows_aggregated,
                    out.stats.tables[0].satisfying.take(),
                )
            })
        };
        let serial = run(1);
        assert!(serial[0].1 > records.len(), "element-level rows");
        assert_eq!(serial[0], serial[1], "first and mapped scans agree");
        assert_eq!(run(2), serial);
    }

    #[test]
    fn collect_satisfying_record_ids() {
        let plan = QueryPlan {
            tables: vec![TablePlan {
                collect_satisfying: true,
                ..raw_plan(csv_file(), Some(Expr::cmp(0, CmpOp::Ge, 97i64)), vec![0])
            }],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            }],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.stats.tables[0].satisfying, Some(vec![97, 98, 99]));
    }

    #[test]
    fn equijoin_two_tables() {
        // Join the CSV with itself on k = k, filtering one side.
        let file = csv_file();
        let plan = QueryPlan {
            tables: vec![
                raw_plan(
                    file.clone(),
                    Some(Expr::cmp(0, CmpOp::Lt, 5i64)),
                    vec![0, 1],
                ),
                raw_plan(file, None, vec![0, 2]),
            ],
            joins: vec![JoinSpec {
                left_table: 0,
                left_slot: 0,
                right_table: 1,
                right_slot: 0,
            }],
            aggregates: vec![
                AggSpec {
                    table: 0,
                    slot: None,
                    func: AggFunc::Count,
                },
                AggSpec {
                    table: 1,
                    slot: Some(1),
                    func: AggFunc::Sum,
                },
            ],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.rows_aggregated, 5);
        assert_eq!(out.values[0], Value::Int(5));
        // g values of k=0..4: 0+1+2+3+0 = 6
        assert_eq!(out.values[1], Value::Float(6.0));
    }

    #[test]
    fn three_way_chain_join() {
        let file = csv_file();
        let plan = QueryPlan {
            tables: vec![
                raw_plan(file.clone(), Some(Expr::cmp(0, CmpOp::Lt, 3i64)), vec![0]),
                raw_plan(file.clone(), None, vec![0]),
                raw_plan(file, None, vec![0, 1]),
            ],
            joins: vec![
                JoinSpec {
                    left_table: 0,
                    left_slot: 0,
                    right_table: 1,
                    right_slot: 0,
                },
                JoinSpec {
                    left_table: 1,
                    left_slot: 0,
                    right_table: 2,
                    right_slot: 0,
                },
            ],
            aggregates: vec![AggSpec {
                table: 2,
                slot: Some(1),
                func: AggFunc::Sum,
            }],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.rows_aggregated, 3);
        assert_eq!(out.values[0], Value::Float(0.0 + 0.5 + 1.0));
    }

    #[test]
    fn cache_scan_paths_agree_with_raw() {
        use recache_layout::{ColumnStore, DremelStore, RowStore};
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::required("v", DataType::Float),
        ]);
        let records: Vec<Value> = (0..50)
            .map(|i| Value::Struct(vec![Value::Int(i), Value::Float(i as f64)]))
            .collect();
        let columnar = Arc::new(ColumnStore::build(&schema, records.iter()));
        let dremel = Arc::new(DremelStore::build(&schema, records.iter()));
        let rows = Arc::new(RowStore::build(&schema, records.iter()));
        let pred = Some(Expr::between(0, 10.0, 19.0));
        let mk = |access: AccessPath| QueryPlan {
            tables: vec![TablePlan {
                name: "c".into(),
                access,
                accessed: vec![0, 1],
                predicate: pred.clone(),
                record_level: true,
                collect_satisfying: false,
            }],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: Some(1),
                func: AggFunc::Sum,
            }],
        };
        let expected = Value::Float((10..20).sum::<i64>() as f64);
        for access in [
            AccessPath::Columnar(columnar),
            AccessPath::Dremel(dremel),
            AccessPath::Row(rows),
        ] {
            let out = execute(&mk(access)).unwrap();
            assert_eq!(out.values[0], expected);
            assert!(out.stats.tables[0].access.is_cache_store());
            assert!(out.stats.tables[0].cache_scan.is_some());
        }
    }

    #[test]
    fn offsets_path_rereads_selected_records() {
        use recache_layout::OffsetStore;
        let file = csv_file();
        // Build the positional map first.
        let warm = QueryPlan {
            tables: vec![raw_plan(file.clone(), None, vec![0])],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            }],
        };
        execute(&warm).unwrap();

        let store = Arc::new(OffsetStore::build(vec![5, 6, 7, 8], 4));
        let plan = QueryPlan {
            tables: vec![TablePlan {
                name: "t".into(),
                access: AccessPath::Offsets { file, store },
                accessed: vec![0, 1],
                predicate: Some(Expr::cmp(0, CmpOp::Ge, 6i64)),
                record_level: true,
                collect_satisfying: false,
            }],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: Some(0),
                func: AggFunc::Sum,
            }],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.values[0], Value::Float(6.0 + 7.0 + 8.0));
        assert_eq!(out.stats.tables[0].access, AccessKind::CacheOffsets);
        assert_eq!(out.stats.tables[0].records_scanned, 4);
    }

    use recache_layout::ColumnStore;

    /// Builds a columnar store large enough to span many batch chunks.
    fn big_columnar() -> Arc<ColumnStore> {
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::required("v", DataType::Float),
        ]);
        let records: Vec<Value> = (0..30_000)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i % 1000),
                    Value::Float((i as f64) * 0.3 - 4000.0),
                ])
            })
            .collect();
        Arc::new(ColumnStore::build(&schema, records.iter()))
    }

    #[test]
    fn parallel_single_table_matches_serial_bitwise() {
        let store = big_columnar();
        let plan = QueryPlan {
            tables: vec![TablePlan {
                name: "t".into(),
                access: AccessPath::Columnar(store),
                accessed: vec![0, 1],
                predicate: Some(Expr::cmp(0, CmpOp::Lt, 700i64)),
                record_level: true,
                collect_satisfying: true,
            }],
            joins: vec![],
            aggregates: [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
            ]
            .into_iter()
            .map(|func| AggSpec {
                table: 0,
                slot: Some(1),
                func,
            })
            .collect(),
        };
        let serial = execute_with(
            &plan,
            &ExecOptions {
                vectorized: true,
                threads: 1,
                cancel: None,
                reprice: None,
            },
        )
        .unwrap();
        for threads in [2, 3, 8] {
            let parallel = execute_with(
                &plan,
                &ExecOptions {
                    vectorized: true,
                    threads,
                    cancel: None,
                    reprice: None,
                },
            )
            .unwrap();
            assert_eq!(parallel.values, serial.values, "threads {threads}");
            assert_eq!(parallel.rows_aggregated, serial.rows_aggregated);
            assert_eq!(
                parallel.stats.tables[0].satisfying, serial.stats.tables[0].satisfying,
                "satisfying ids must merge in row order (threads {threads})"
            );
            let cost = parallel.stats.tables[0].cache_scan.unwrap();
            assert_eq!(
                cost.rows_visited,
                serial.stats.tables[0].cache_scan.unwrap().rows_visited,
                "per-worker rows_visited must sum to the full scan"
            );
        }
    }

    #[test]
    fn parallel_join_matches_serial() {
        let store = big_columnar();
        let plan = QueryPlan {
            tables: vec![
                TablePlan {
                    name: "a".into(),
                    access: AccessPath::Columnar(Arc::clone(&store)),
                    accessed: vec![0, 1],
                    predicate: Some(Expr::cmp(0, CmpOp::Lt, 40i64)),
                    record_level: true,
                    collect_satisfying: false,
                },
                TablePlan {
                    name: "b".into(),
                    access: AccessPath::Columnar(store),
                    accessed: vec![0, 1],
                    predicate: Some(Expr::cmp(0, CmpOp::Lt, 20i64)),
                    record_level: true,
                    collect_satisfying: false,
                },
            ],
            joins: vec![JoinSpec {
                left_table: 0,
                left_slot: 0,
                right_table: 1,
                right_slot: 0,
            }],
            aggregates: vec![
                AggSpec {
                    table: 0,
                    slot: None,
                    func: AggFunc::Count,
                },
                AggSpec {
                    table: 1,
                    slot: Some(1),
                    func: AggFunc::Sum,
                },
            ],
        };
        let serial = execute_with(
            &plan,
            &ExecOptions {
                vectorized: true,
                threads: 1,
                cancel: None,
                reprice: None,
            },
        )
        .unwrap();
        let parallel = execute_with(
            &plan,
            &ExecOptions {
                vectorized: true,
                threads: 4,
                cancel: None,
                reprice: None,
            },
        )
        .unwrap();
        assert_eq!(parallel.values, serial.values);
        assert_eq!(parallel.rows_aggregated, serial.rows_aggregated);
    }

    #[test]
    fn parallel_probe_matches_serial_on_large_probe_side() {
        // The probe prefix (~21k rows after the filter) crosses
        // PARALLEL_JOIN_MIN_ROWS, so the partitioned probe path runs.
        let store = big_columnar();
        let plan = QueryPlan {
            tables: vec![
                TablePlan {
                    name: "probe".into(),
                    access: AccessPath::Columnar(Arc::clone(&store)),
                    accessed: vec![0, 1],
                    predicate: Some(Expr::cmp(0, CmpOp::Lt, 700i64)),
                    record_level: true,
                    collect_satisfying: false,
                },
                TablePlan {
                    name: "build".into(),
                    access: AccessPath::Columnar(store),
                    accessed: vec![0, 1],
                    predicate: Some(Expr::cmp(0, CmpOp::Lt, 5i64)),
                    record_level: true,
                    collect_satisfying: false,
                },
            ],
            joins: vec![JoinSpec {
                left_table: 0,
                left_slot: 0,
                right_table: 1,
                right_slot: 0,
            }],
            aggregates: vec![
                AggSpec {
                    table: 0,
                    slot: None,
                    func: AggFunc::Count,
                },
                AggSpec {
                    table: 1,
                    slot: Some(1),
                    func: AggFunc::Sum,
                },
                AggSpec {
                    table: 0,
                    slot: Some(1),
                    func: AggFunc::Min,
                },
            ],
        };
        let serial = execute_with(
            &plan,
            &ExecOptions {
                vectorized: true,
                threads: 1,
                cancel: None,
                reprice: None,
            },
        )
        .unwrap();
        for threads in [2, 4, 8] {
            let parallel = execute_with(
                &plan,
                &ExecOptions {
                    vectorized: true,
                    threads,
                    cancel: None,
                    reprice: None,
                },
            )
            .unwrap();
            assert_eq!(parallel.values, serial.values, "threads {threads}");
            assert_eq!(parallel.rows_aggregated, serial.rows_aggregated);
        }
    }

    /// A CSV file large enough to span several batch chunks, with nulls
    /// and a low-cardinality string column.
    fn big_csv() -> Arc<RawFile> {
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::required("v", DataType::Float),
            Field::required("s", DataType::Str),
        ]);
        let rows: Vec<Vec<Value>> = (0..20_000)
            .map(|i| {
                vec![
                    if i % 11 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i % 500)
                    },
                    Value::Float(i as f64 * 0.25 - 100.0),
                    Value::from(format!("tag{}", i % 7)),
                ]
            })
            .collect();
        let bytes = csv::write_csv(&schema, &rows);
        Arc::new(RawFile::from_bytes(bytes, FileFormat::Csv, schema))
    }

    #[test]
    fn raw_batched_scan_matches_row_path_first_and_mapped() {
        let plan_of = |file: Arc<RawFile>| QueryPlan {
            tables: vec![TablePlan {
                collect_satisfying: true,
                ..raw_plan(
                    file,
                    Some(Expr::And(vec![
                        Expr::cmp(0, CmpOp::Lt, 300i64),
                        Expr::cmp(2, CmpOp::Eq, "tag3"),
                    ])),
                    vec![0, 1, 2],
                )
            }],
            joins: vec![],
            aggregates: [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max]
                .into_iter()
                .map(|func| AggSpec {
                    table: 0,
                    slot: Some(1),
                    func,
                })
                .collect(),
        };
        let row_file = big_csv();
        let row_plan = plan_of(Arc::clone(&row_file));
        let row_opts = ExecOptions {
            vectorized: false,
            threads: 1,
            cancel: None,
            reprice: None,
        };
        let reference = execute_with(&row_plan, &row_opts).unwrap();
        assert_eq!(reference.stats.tables[0].access, AccessKind::RawFirstScan);

        for threads in [1usize, 4] {
            let file = big_csv();
            let plan = plan_of(Arc::clone(&file));
            let opts = ExecOptions {
                vectorized: true,
                threads,
                cancel: None,
                reprice: None,
            };
            // First scan: tokenizes, captures the posmap.
            let first = execute_with(&plan, &opts).unwrap();
            assert_eq!(
                first.stats.tables[0].access,
                AccessKind::RawFirstScan,
                "threads {threads}"
            );
            assert_eq!(first.values, reference.values, "threads {threads}");
            assert_eq!(first.rows_aggregated, reference.rows_aggregated);
            assert_eq!(
                first.stats.tables[0].satisfying, reference.stats.tables[0].satisfying,
                "threads {threads}: satisfying ids must merge in record order"
            );
            assert!(first.stats.tables[0].cache_scan.is_none());
            assert!(file.posmap().is_some(), "batched first scan builds the map");
            // Second scan: navigates the captured map.
            let second = execute_with(&plan, &opts).unwrap();
            assert_eq!(second.stats.tables[0].access, AccessKind::RawMapped);
            assert_eq!(second.values, reference.values);
            assert_eq!(
                second.stats.tables[0].satisfying,
                reference.stats.tables[0].satisfying
            );
        }
    }

    #[test]
    fn raw_batched_posmap_agrees_with_row_tokenizer() {
        // The map a parallel batched first scan assembles must be usable
        // by the row-path mapped scan (offsets caches depend on it).
        let file = big_csv();
        let plan = QueryPlan {
            tables: vec![raw_plan(Arc::clone(&file), None, vec![0, 2])],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            }],
        };
        execute_with(
            &plan,
            &ExecOptions {
                vectorized: true,
                threads: 4,
                cancel: None,
                reprice: None,
            },
        )
        .unwrap();
        let reference = big_csv();
        reference
            .scan_projected(&[true, true, true], &mut |_, _| {})
            .unwrap();
        let batched_map = file.posmap().unwrap();
        let row_map = reference.posmap().unwrap();
        assert_eq!(batched_map.record_count(), row_map.record_count());
        for rec in [0usize, 1, 4096, 19_999] {
            for field in 0..3 {
                assert_eq!(
                    batched_map.field_span(rec, field),
                    row_map.field_span(rec, field)
                );
            }
        }
    }

    #[test]
    fn raw_parse_errors_surface_from_parallel_scans() {
        let schema = Schema::new(vec![Field::required("a", DataType::Int)]);
        let mut bytes = Vec::new();
        for i in 0..10_000 {
            if i == 9_500 {
                bytes.extend_from_slice(b"bogus\n");
            } else {
                bytes.extend_from_slice(format!("{i}\n").as_bytes());
            }
        }
        let file = Arc::new(RawFile::from_bytes(bytes, FileFormat::Csv, schema));
        let plan = QueryPlan {
            tables: vec![raw_plan(file, None, vec![0])],
            joins: vec![],
            aggregates: vec![AggSpec {
                table: 0,
                slot: Some(0),
                func: AggFunc::Sum,
            }],
        };
        for threads in [1, 4] {
            let err = execute_with(
                &plan,
                &ExecOptions {
                    vectorized: true,
                    threads,
                    cancel: None,
                    reprice: None,
                },
            );
            assert!(err.is_err(), "threads {threads}");
        }
    }

    #[test]
    fn raw_join_inputs_scan_batched() {
        let file = big_csv();
        let plan = QueryPlan {
            tables: vec![
                raw_plan(
                    Arc::clone(&file),
                    Some(Expr::cmp(0, CmpOp::Lt, 5i64)),
                    vec![0, 1],
                ),
                raw_plan(
                    Arc::clone(&file),
                    Some(Expr::cmp(1, CmpOp::Eq, "tag0")),
                    vec![0, 2],
                ),
            ],
            joins: vec![JoinSpec {
                left_table: 0,
                left_slot: 0,
                right_table: 1,
                right_slot: 0,
            }],
            aggregates: vec![AggSpec {
                table: 0,
                slot: None,
                func: AggFunc::Count,
            }],
        };
        let row = execute_with(
            &plan,
            &ExecOptions {
                vectorized: false,
                threads: 1,
                cancel: None,
                reprice: None,
            },
        )
        .unwrap();
        for threads in [1, 4] {
            let vec_out = execute_with(
                &plan,
                &ExecOptions {
                    vectorized: true,
                    threads,
                    cancel: None,
                    reprice: None,
                },
            )
            .unwrap();
            assert_eq!(vec_out.values, row.values, "threads {threads}");
            assert_eq!(vec_out.rows_aggregated, row.rows_aggregated);
        }
    }

    #[test]
    fn task_ranges_partition_the_chunk_grid() {
        for (n_chunks, threads) in [(1usize, 4usize), (7, 2), (64, 4), (100, 3), (5, 16)] {
            let ranges = task_ranges(n_chunks, threads);
            assert!(ranges.len() <= n_chunks.max(1));
            assert!(ranges.len() <= threads * TASKS_PER_THREAD);
            let mut next = 0usize;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, next, "ranges must be contiguous");
                assert!(hi >= lo);
                next = hi;
            }
            assert_eq!(next, n_chunks, "ranges must cover the grid");
        }
    }

    #[test]
    fn empty_plan_errors() {
        let plan = QueryPlan {
            tables: vec![],
            joins: vec![],
            aggregates: vec![],
        };
        assert!(execute(&plan).is_err());
    }

    #[test]
    fn aggregates_skip_nulls() {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let bytes = json::write_json(
            &schema,
            &[
                Value::Struct(vec![Value::Int(1)]),
                Value::Struct(vec![Value::Null]),
                Value::Struct(vec![Value::Int(3)]),
            ],
        );
        let file = Arc::new(RawFile::from_bytes(bytes, FileFormat::Json, schema));
        let plan = QueryPlan {
            tables: vec![raw_plan(file, None, vec![0])],
            joins: vec![],
            aggregates: vec![
                AggSpec {
                    table: 0,
                    slot: Some(0),
                    func: AggFunc::Count,
                },
                AggSpec {
                    table: 0,
                    slot: None,
                    func: AggFunc::Count,
                },
                AggSpec {
                    table: 0,
                    slot: Some(0),
                    func: AggFunc::Avg,
                },
            ],
        };
        let out = execute(&plan).unwrap();
        assert_eq!(out.values[0], Value::Int(2)); // count(x) skips null
        assert_eq!(out.values[1], Value::Int(3)); // count(*)
        assert_eq!(out.values[2], Value::Float(2.0));
    }
}

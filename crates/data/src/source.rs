//! [`RawFile`]: a raw CSV or JSON source with a lazily built positional
//! map, exposing flattened, projected scans to the query engine.

use crate::entry::EntryBuilder;
use crate::fault::{FaultPlan, FaultSite, RetryPolicy};
use crate::posmap::PositionalMap;
use crate::raw_batch::{self, RawBatchIndex};
use crate::{csv, json, json_batch};
use recache_layout::{
    BatchScratch, ColumnBatch, ScanCost, SelectionVector, BATCH_ROWS, CHUNK_RECORDS,
};
use recache_types::{
    FlatRow, FlatRows, Flattener, LeafField, Result, ScalarType, ScanCtl, Schema, Value,
};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Raw file format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FileFormat {
    Csv,
    Json,
}

impl FileFormat {
    pub fn name(&self) -> &'static str {
        match self {
            FileFormat::Csv => "csv",
            FileFormat::Json => "json",
        }
    }
}

/// Per-scan statistics fed into ReCache's cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanMetrics {
    /// Records visited.
    pub records: usize,
    /// Flattened rows produced (≥ records when nested leaves are accessed).
    pub rows: usize,
    /// Whether the positional map was available (subsequent scans are
    /// cheaper than the first).
    pub used_posmap: bool,
}

/// An in-memory raw data file (the paper runs over warm OS caches; loading
/// the bytes up front models that while keeping scans CPU-bound).
pub struct RawFile {
    format: FileFormat,
    schema: Schema,
    bytes: Vec<u8>,
    /// JSON with a list or struct field: batched scans read it through
    /// structure tapes, [`CHUNK_RECORDS`] records per chunk.
    nested: bool,
    posmap: Mutex<Option<Arc<PositionalMap>>>,
    /// Batched-scan state: the SWAR newline record index plus, until the
    /// positional map is assembled, per-chunk capture slabs — shared
    /// chunk-grid machinery in [`raw_batch`], format-specific tokenize +
    /// map assembly here.
    batch: Mutex<Option<Arc<RawBatchIndex>>>,
    /// Fault injection + retry configuration. Sampled once per scan
    /// call (not per chunk); a `None` plan is production mode and costs
    /// that single sample.
    faults: Mutex<FaultState>,
    /// Ordinal of row-path scans, used as the fault-decision coordinate
    /// for [`FaultSite::RowScan`] (chunked scans use the chunk index).
    row_scan_seq: AtomicU64,
}

#[derive(Debug, Clone, Default)]
struct FaultState {
    plan: Option<Arc<FaultPlan>>,
    retry: RetryPolicy,
}

impl std::fmt::Debug for RawFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawFile")
            .field("format", &self.format)
            .field("bytes", &self.bytes.len())
            .field("leaves", &self.leaves().len())
            .finish()
    }
}

impl RawFile {
    /// Wraps raw bytes (used by tests and generators).
    pub fn from_bytes(bytes: Vec<u8>, format: FileFormat, schema: Schema) -> Self {
        RawFile {
            format,
            nested: format == FileFormat::Json
                && schema
                    .fields()
                    .iter()
                    .any(|f| f.data_type.as_scalar().is_none()),
            schema,
            bytes,
            posmap: Mutex::new(None),
            batch: Mutex::new(None),
            faults: Mutex::new(FaultState::default()),
            row_scan_seq: AtomicU64::new(0),
        }
    }

    /// Installs (or clears, with `None`) a seeded fault-injection plan.
    /// Scans already in flight keep the configuration they sampled at
    /// their start.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.faults.lock().expect("faults lock").plan = plan.map(Arc::new);
    }

    /// Overrides the bounded-retry policy for transient chunk faults.
    pub fn set_retry_policy(&self, retry: RetryPolicy) {
        self.faults.lock().expect("faults lock").retry = retry;
    }

    /// One sample of the fault configuration, taken at scan start.
    fn fault_state(&self) -> FaultState {
        self.faults.lock().expect("faults lock").clone()
    }

    /// Fault gate for row-at-a-time scan entry points. Injection (and
    /// bounded retry of transient faults) happens *before* any row is
    /// emitted: a mid-stream retry would re-emit rows the consumer has
    /// already seen, so the row paths only fault at scan start. The
    /// decision coordinate is the row-scan ordinal.
    fn row_scan_gate(&self) -> Result<()> {
        let FaultState { plan, retry } = self.fault_state();
        let Some(plan) = plan else {
            return Ok(());
        };
        let ordinal = self.row_scan_seq.fetch_add(1, Ordering::Relaxed);
        let mut attempt = 0u32;
        loop {
            match plan.inject(FaultSite::RowScan, ordinal, attempt) {
                Ok(()) => return Ok(()),
                Err(err) if err.is_transient() && attempt + 1 < retry.max_attempts.max(1) => {
                    attempt += 1;
                    std::thread::sleep(retry.delay(attempt));
                }
                Err(err) => return Err(err),
            }
        }
    }

    /// Reads a file from disk into memory.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        format: FileFormat,
        schema: Schema,
    ) -> Result<Self> {
        let bytes = std::fs::read(path)?;
        Ok(Self::from_bytes(bytes, format, schema))
    }

    pub fn format(&self) -> FileFormat {
        self.format
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Scalar leaves in canonical order (the engine's column universe).
    pub fn leaves(&self) -> &[LeafField] {
        self.schema.leaves()
    }

    /// Raw size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Number of records, known once a positional map exists.
    pub fn record_count(&self) -> Option<usize> {
        self.posmap
            .lock()
            .expect("posmap lock")
            .as_ref()
            .map(|m| m.record_count())
    }

    /// The positional map, if one has been built.
    pub fn posmap(&self) -> Option<Arc<PositionalMap>> {
        self.posmap.lock().expect("posmap lock").clone()
    }

    /// Scans the file, emitting flattened rows restricted to the accessed
    /// leaves (`accessed` is indexed by leaf id). The first scan tokenizes
    /// everything and builds the positional map; later scans navigate it.
    pub fn scan_projected(
        &self,
        accessed: &[bool],
        on_row: &mut dyn FnMut(usize, FlatRow),
    ) -> Result<ScanMetrics> {
        debug_assert_eq!(accessed.len(), self.leaves().len());
        self.row_scan_gate()?;
        let existing = self.posmap();
        let mut metrics = ScanMetrics {
            records: 0,
            rows: 0,
            used_posmap: existing.is_some(),
        };
        match self.format {
            FileFormat::Csv => {
                let mut emit = |id: usize, values: Vec<Value>| {
                    metrics.records += 1;
                    metrics.rows += 1;
                    on_row(id, values);
                    Ok(())
                };
                match existing {
                    Some(map) => {
                        csv::scan_with_map(&self.bytes, &self.schema, &map, accessed, emit)?
                    }
                    None => {
                        let map =
                            csv::scan_build_map(&self.bytes, &self.schema, accessed, &mut emit)?;
                        self.install_posmap(map);
                    }
                }
            }
            FileFormat::Json => {
                let projection = json::LeafProjection::new(&self.schema, accessed);
                let flattener = Flattener::projected(&self.schema, accessed);
                let mut emit = |id: usize, record: Value| {
                    metrics.records += 1;
                    metrics.rows += emit_flattened(&flattener, id, &record, on_row);
                    Ok(())
                };
                match existing {
                    Some(map) => json::scan_with_map(
                        &self.bytes,
                        &self.schema,
                        &map,
                        Some(&projection),
                        emit,
                    )?,
                    None => {
                        let map = json::scan_build_map(
                            &self.bytes,
                            &self.schema,
                            Some(&projection),
                            &mut emit,
                        )?;
                        self.install_posmap(map);
                    }
                }
            }
        }
        Ok(metrics)
    }

    /// Re-reads specific records by id, row by row (the lazy-cache
    /// path's row fallback; batched re-reads go through
    /// [`RawFile::scan_batches_by_id_ctl`]). Requires a positional map,
    /// which the first scan always installs.
    pub fn scan_records_projected(
        &self,
        record_ids: &[u32],
        accessed: &[bool],
        on_row: &mut dyn FnMut(usize, FlatRow),
    ) -> Result<ScanMetrics> {
        self.row_scan_gate()?;
        let map = self
            .posmap()
            .ok_or_else(|| recache_types::Error::exec("no positional map for offset re-read"))?;
        let mut metrics = ScanMetrics {
            records: 0,
            rows: 0,
            used_posmap: true,
        };
        match self.format {
            FileFormat::Csv => {
                for &id in record_ids {
                    let values = csv::parse_record_at(
                        &self.bytes,
                        &self.schema,
                        &map,
                        id as usize,
                        accessed,
                    )?;
                    metrics.records += 1;
                    metrics.rows += 1;
                    on_row(id as usize, values);
                }
            }
            FileFormat::Json => {
                let projection = json::LeafProjection::new(&self.schema, accessed);
                let flattener = Flattener::projected(&self.schema, accessed);
                for &id in record_ids {
                    let record = json::parse_record_at(
                        &self.bytes,
                        &self.schema,
                        &map,
                        id as usize,
                        Some(&projection),
                    )?;
                    metrics.records += 1;
                    metrics.rows += emit_flattened(&flattener, id as usize, &record, on_row);
                }
            }
        }
        Ok(metrics)
    }

    /// The positional map for a read of full records by id, behind the
    /// row-path fault gate: one gate and one map acquisition per batch
    /// of records (per record, the lock and `Arc` bump would dominate at
    /// materialization scale).
    fn record_read_map(&self) -> Result<Arc<PositionalMap>> {
        self.row_scan_gate()?;
        self.posmap()
            .ok_or_else(|| recache_types::Error::exec("no positional map for record read"))
    }

    /// Reads a batch of full records by id through the positional map.
    pub fn read_records(&self, record_ids: &[u32]) -> Result<Vec<Value>> {
        let map = self.record_read_map()?;
        let mut out = Vec::with_capacity(record_ids.len());
        self.read_records_with(&map, record_ids, &mut |record| out.push(record))?;
        Ok(out)
    }

    /// Parses full records by id through `map`, in order.
    fn read_records_with(
        &self,
        map: &PositionalMap,
        record_ids: &[u32],
        out: &mut dyn FnMut(Value),
    ) -> Result<()> {
        let (bytes, schema) = (&self.bytes, &self.schema);
        match self.format {
            FileFormat::Csv => {
                let accessed = vec![true; schema.len()];
                for &id in record_ids {
                    let values = csv::parse_record_at(bytes, schema, map, id as usize, &accessed)?;
                    out(Value::Struct(values));
                }
            }
            FileFormat::Json => {
                for &id in record_ids {
                    out(json::parse_record_at(
                        bytes,
                        schema,
                        map,
                        id as usize,
                        None,
                    )?);
                }
            }
        }
        Ok(())
    }

    /// Appends full records by id to a cache entry's builder through the
    /// positional map, behind the row-path fault gate (the post-scan
    /// build).
    pub fn append_records(&self, record_ids: &[u32], builder: &mut EntryBuilder) -> Result<()> {
        let map = self.record_read_map()?;
        self.append_records_with(&map, record_ids, builder)
    }

    /// [`RawFile::append_records`] through a map the caller sampled, with
    /// no fault gate: a batched scan builds its entry this way from the
    /// records of a chunk whose own gate already admitted them. Nested
    /// JSON records shred straight from their structure tapes into a
    /// Dremel builder, and flatten from them into a columnar one (a
    /// [`json::TapeScan`] over every leaf, which parses a record the map
    /// holds no tape for); CSV fields parse from their spans straight
    /// into a columnar builder; every other pairing goes one parsed
    /// record at a time. The store and any error equal building from
    /// [`RawFile::read_records`]' records.
    pub fn append_records_with(
        &self,
        map: &PositionalMap,
        record_ids: &[u32],
        builder: &mut EntryBuilder,
    ) -> Result<()> {
        let (bytes, schema) = (&self.bytes, &self.schema);
        match (builder, self.format) {
            (EntryBuilder::Dremel(builder), FileFormat::Json) => {
                for &id in record_ids {
                    json::shred_record_at(bytes, schema, map, id as usize, builder)?;
                }
                Ok(())
            }
            (EntryBuilder::Columnar(builder), FileFormat::Csv) => {
                for &id in record_ids {
                    csv::push_record_at(bytes, map, id as usize, builder)?;
                }
                Ok(())
            }
            (EntryBuilder::Columnar(builder), FileFormat::Json) if self.nested => {
                let leaves = self.leaves();
                let all: Vec<usize> = (0..leaves.len()).collect();
                let mut scan = json::TapeScan::new(schema, leaves, &all);
                for &id in record_ids {
                    builder.push_rows(|cols, masks| {
                        scan.push_mapped(bytes, map, id as usize, cols, Some(masks))
                            .map(drop)
                    })?;
                }
                Ok(())
            }
            (EntryBuilder::Dremel(builder), _) => {
                self.read_records_with(map, record_ids, &mut |record| builder.push_record(&record))
            }
            (EntryBuilder::Columnar(builder), _) => {
                self.read_records_with(map, record_ids, &mut |record| {
                    let fields: &[Value] = match &record {
                        Value::Struct(fields) => fields,
                        _ => &[],
                    };
                    let Ok(()) = builder.push_record(|i, col| {
                        col.push(fields.get(i).unwrap_or(&Value::Null));
                        Ok::<(), Infallible>(())
                    });
                })
            }
        }
    }

    /// Whether [`RawFile::scan_batches_range`] can serve this file: any
    /// CSV or JSON file small enough for the tokenizers' `u32` position
    /// indexing (4 GiB+ files fall back to the `usize`-indexed row
    /// tokenizers). Flat files batch one row per record; nested JSON
    /// flattens each record from its structure tape into several.
    pub fn supports_batch_scan(&self) -> bool {
        self.bytes.len() <= u32::MAX as usize
    }

    /// Records per batch chunk: [`BATCH_ROWS`] for flat files (one row
    /// per record), [`CHUNK_RECORDS`] for nested JSON, whose records
    /// flatten to several rows each and whose files hold few enough
    /// records that [`BATCH_ROWS`]-record chunks would leave every
    /// thread but one idle.
    fn chunk_records(&self) -> usize {
        if self.nested {
            CHUNK_RECORDS
        } else {
            BATCH_ROWS
        }
    }

    /// Number of records, from the positional map or the batched-scan
    /// record index, if either has been built.
    pub fn known_record_count(&self) -> Option<usize> {
        if let Some(n) = self.record_count() {
            return Some(n);
        }
        self.batch
            .lock()
            .expect("batch lock")
            .as_ref()
            .map(|ix| ix.n_records())
    }

    /// Drops the positional map and batched-scan index, returning the
    /// file to its never-scanned state (benchmarks re-measure first
    /// scans with it; queries never need it).
    pub fn reset_scan_state(&self) {
        *self.posmap.lock().expect("posmap lock") = None;
        *self.batch.lock().expect("batch lock") = None;
    }

    /// Size of the batched-scan chunk grid: windows of [`BATCH_ROWS`]
    /// records for flat files and [`CHUNK_RECORDS`] for nested JSON.
    /// Builds the newline record index on first use (one cheap byte
    /// pass — the expensive tokenize/parse work stays inside the chunk
    /// scans, which is what makes the grid parallelizable).
    pub fn batch_chunks(&self) -> usize {
        assert!(
            self.supports_batch_scan(),
            "batched scans require a file under 4 GiB"
        );
        loop {
            if let Some(map) = self.posmap() {
                return map.record_count().div_ceil(self.chunk_records());
            }
            if let Some(index) = self.batch_index() {
                return index.n_chunks();
            }
            // batch_index() saw an installed map (a racing scan completed
            // coverage) that a concurrent reset_scan_state() has since
            // cleared: start over from the cold state.
        }
    }

    /// Size of the batched grid over a lazy entry's `record_ids`
    /// ([`RawFile::scan_batches_by_id_ctl`]): the file's chunk size, in
    /// ids.
    pub fn batch_chunks_by_id(&self, record_ids: &[u32]) -> usize {
        record_ids.len().div_ceil(self.chunk_records())
    }

    /// The first-scan chunk index, built on demand. Returns `None` when
    /// a positional map already exists — in particular when a racing
    /// scan completed coverage (installing the map and retiring the
    /// index) between the caller's posmap sample and this call:
    /// rebuilding then would re-index the whole file into an index no
    /// one would ever complete. Callers take the mapped path instead.
    fn batch_index(&self) -> Option<Arc<RawBatchIndex>> {
        let mut slot = self.batch.lock().expect("batch lock");
        if let Some(index) = slot.as_ref() {
            return Some(Arc::clone(index));
        }
        if self.posmap.lock().expect("posmap lock").is_some() {
            return None;
        }
        let index = Arc::new(RawBatchIndex::new(
            raw_batch::index_records(&self.bytes),
            self.chunk_records(),
        ));
        if index.n_chunks() == 0 {
            // Empty file: nothing will ever scan a chunk, so install the
            // (empty) positional map right away — the row path does the
            // same on its first scan.
            self.install_posmap(self.assemble_posmap(vec![0], Vec::new()));
        }
        *slot = Some(Arc::clone(&index));
        Some(index)
    }

    /// The positional map a completed batched first scan installs from
    /// the per-chunk capture slabs, in chunk order: CSV gets record +
    /// field offsets, flat JSON record + per-key value offsets, and
    /// nested JSON record offsets + structure tapes — each chunk's slab
    /// being its records' tape lengths, then their tapes — which is the
    /// map [`json::scan_build_map`] builds.
    fn assemble_posmap(&self, record_offsets: Vec<u64>, slabs: Vec<Vec<u32>>) -> PositionalMap {
        match self.format {
            FileFormat::Csv => {
                PositionalMap::with_fields(record_offsets, slabs.concat(), self.schema.len())
            }
            FileFormat::Json if !self.nested => {
                PositionalMap::with_json_values(record_offsets, slabs.concat(), self.schema.len())
            }
            FileFormat::Json => {
                let mut records = record_offsets.len() - 1;
                let mut tape_starts = Vec::with_capacity(records + 1);
                tape_starts.push(0u64);
                let words = slabs.iter().map(Vec::len).sum::<usize>() - records;
                let mut tape = Vec::with_capacity(words);
                for slab in &slabs {
                    let (lens, words) = slab.split_at(records.min(self.chunk_records()));
                    records -= lens.len();
                    for &len in lens {
                        tape_starts.push(tape_starts[tape_starts.len() - 1] + u64::from(len));
                    }
                    tape.extend_from_slice(words);
                }
                PositionalMap::with_json_tape(record_offsets, tape_starts, tape)
            }
        }
    }

    /// Submits one chunk's capture slab; the call that completes
    /// coverage (and only that call — redundant re-scans of an
    /// already-filled chunk are ignored inside the index) assembles the
    /// positional map and retires the index. The install runs *inside*
    /// the index's capture critical section (see
    /// [`RawBatchIndex::submit_with`]): a racing session that finishes
    /// its own scan of this file can only have done so after interacting
    /// with the coverage-completing chunk under that lock, so by the
    /// time it reaches map-dependent work (offsets re-reads, cache
    /// materialization) the map is guaranteed to be installed.
    ///
    /// Lock order: capture → posmap / batch (nothing acquires capture
    /// while holding either of those).
    fn submit_capture(&self, index: &RawBatchIndex, chunk: usize, slab: Vec<u32>) {
        index.submit_with(chunk, slab, |slabs| {
            self.install_posmap(self.assemble_posmap(index.record_offsets().to_vec(), slabs));
            // The index has served its purpose; mapped scans take over.
            *self.batch.lock().expect("batch lock") = None;
        });
    }

    /// Vectorized scan over chunks `[chunk_lo, chunk_hi)` of the
    /// [`RawFile::batch_chunks`] grid: parses the projected leaves of
    /// each chunk's records straight into typed scratch columns and
    /// yields them as a [`ColumnBatch`] with an identity selection.
    /// Flat files give one row per record; nested JSON gives each
    /// record's flattened rows (lists with a projected leaf exploded, as
    /// the row path's `Flattener` does), and `record_ids` are file
    /// record ids either way.
    ///
    /// First scans tokenize and capture the positional map as a side
    /// effect (CSV: field offsets; flat JSON: per-key value offsets;
    /// nested JSON: structure tapes). Once a map exists, CSV navigates
    /// field spans, flat JSON seeks straight to each accessed key's
    /// value, and JSON with tapes (nested, or flat files first mapped by
    /// the row path) reads each record from its tape, jumping over
    /// unprojected subtrees. No `Value` is built for a record that has a
    /// tape. Chunks are share-nothing, so disjoint ranges may run
    /// concurrently — the executor fans them out on its work pool
    /// exactly as it does cache-store chunks.
    ///
    /// Cost attribution: tokenize/parse time is data access `D` (raw
    /// scans are one fused navigate+load pass); batch assembly rides the
    /// same timer. `compute_ns` stays 0, matching the row-path scans
    /// which report no D/C split for raw access at all.
    pub fn scan_batches_range(
        &self,
        projection: &[usize],
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> Result<ScanCost> {
        self.scan_batches_range_ctl(
            projection,
            want_record_ids,
            chunk_lo,
            chunk_hi,
            None,
            on_batch,
        )
    }

    /// [`RawFile::scan_batches_range`] with a per-scan control block.
    ///
    /// With a [`ScanCtl`]: each chunk is gated on admission first —
    /// external cancellation/timeout aborts the range with a typed
    /// error, and a chunk is *skipped* when another task has already
    /// recorded a failure at a lower chunk index (its output would be
    /// discarded anyway). Chunk failures that survive bounded retry are
    /// recorded in the control block keyed by chunk index, so the error
    /// the merge surfaces is the first-by-chunk-index one regardless of
    /// interleaving. Transient faults (see [`Error::is_transient`])
    /// retry at chunk granularity with capped backoff; each attempt
    /// starts from cleared scratch and a fresh capture slab, and the
    /// slab is only submitted on success, so retries never corrupt the
    /// positional-map capture.
    ///
    /// [`Error::is_transient`]: recache_types::Error::is_transient
    pub fn scan_batches_range_ctl(
        &self,
        projection: &[usize],
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        ctl: Option<&ScanCtl>,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> Result<ScanCost> {
        self.scan_chunks(
            None,
            projection,
            want_record_ids,
            chunk_lo,
            chunk_hi,
            ctl,
            on_batch,
        )
    }

    /// The lazy-entry twin of [`RawFile::scan_batches_range_ctl`]: scans
    /// chunks `[chunk_lo, chunk_hi)` of the [`RawFile::batch_chunks_by_id`]
    /// grid over `record_ids` through the positional map, as a mapped
    /// scan of those records would, with the same fault, retry and
    /// cancellation handling. Requires the map, which the first scan
    /// always installs.
    #[allow(clippy::too_many_arguments)]
    pub fn scan_batches_by_id_ctl(
        &self,
        record_ids: &[u32],
        projection: &[usize],
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        ctl: Option<&ScanCtl>,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> Result<ScanCost> {
        self.scan_chunks(
            Some(record_ids),
            projection,
            want_record_ids,
            chunk_lo,
            chunk_hi,
            ctl,
            on_batch,
        )
    }

    /// The one batched chunk loop: over the file's records, or over
    /// `record_ids` when given.
    #[allow(clippy::too_many_arguments)]
    fn scan_chunks(
        &self,
        record_ids: Option<&[u32]>,
        projection: &[usize],
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        ctl: Option<&ScanCtl>,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> Result<ScanCost> {
        assert!(
            self.supports_batch_scan(),
            "batched scans require a file under 4 GiB"
        );
        // A flat file's leaf id is its field index.
        let leaves = self.leaves();
        let accessed_fields: Vec<(usize, ScalarType, usize)> = projection
            .iter()
            .enumerate()
            .map(|(slot, &leaf)| (leaf, leaves[leaf].scalar_type, slot))
            .collect();
        let mut scratch =
            BatchScratch::for_projection(projection.iter().map(|&leaf| leaves[leaf].scalar_type));
        let mut tapes: Option<json::TapeScan<'_>> = None;
        let mut selection = SelectionVector::new();
        let mut cost = ScanCost::default();
        let FaultState {
            plan: fault_plan,
            retry,
        } = self.fault_state();

        // Mapped vs first-scan mode is decided once per range: a posmap
        // installed mid-scan (by this range's own capture or a racing
        // scan) only benefits the *next* scan, keeping per-chunk work
        // uniform within one fan-out.
        let (existing, index) = match record_ids {
            Some(_) => {
                let map = self.posmap().ok_or_else(|| {
                    recache_types::Error::exec("no positional map for offset re-read")
                })?;
                (Some(map), None)
            }
            None => loop {
                let existing = self.posmap();
                if existing.is_some() {
                    break (existing, None);
                }
                if let Some(index) = self.batch_index() {
                    break (None, Some(index));
                }
                // batch_index() declined because a racing scan installed
                // the map; this range runs mapped — unless a concurrent
                // reset_scan_state() cleared it again, in which case
                // retry from the cold state.
                let resampled = self.posmap();
                if resampled.is_some() {
                    break (resampled, None);
                }
            },
        };
        let n_records = match (record_ids, &existing, &index) {
            (Some(ids), _, _) => ids.len(),
            (None, Some(map), _) => map.record_count(),
            (None, None, Some(ix)) => ix.n_records(),
            (None, None, None) => unreachable!("the mode loop breaks with a map or an index"),
        };
        let per_chunk = self.chunk_records();
        for chunk in chunk_lo..chunk_hi {
            let lo = chunk * per_chunk;
            if lo >= n_records {
                break;
            }
            if let Some(ctl) = ctl {
                // Err: the query was cancelled or timed out. Ok(false):
                // a chunk at a lower index already failed, so this
                // chunk's output would be discarded — skip the work.
                if !ctl.admit(chunk)? {
                    continue;
                }
            }
            let hi = (lo + per_chunk).min(n_records);
            let records = match record_ids {
                Some(ids) => Records::Ids(&ids[lo..hi]),
                None => Records::Range(lo, hi),
            };
            // Chunk work is transactional: every attempt starts from
            // cleared scratch and a fresh capture slab (submitted only
            // on success), so a transient fault retries cleanly.
            let mut attempt = 0u32;
            let (rows, data_ns) = loop {
                let t0 = Instant::now();
                scratch.clear();
                let outcome = (|| {
                    if let Some(plan) = &fault_plan {
                        plan.inject(FaultSite::Chunk, chunk as u64, attempt)?;
                    }
                    let cols = &mut scratch.cols;
                    let ids = &mut scratch.record_ids;
                    // Appends one record's row ids after a tape scan.
                    let mut note_rows = |record: usize, rows: usize| {
                        if want_record_ids {
                            ids.extend(std::iter::repeat_n(record as u32, rows));
                        }
                        rows
                    };
                    let tape_rows = match (&existing, &index, self.format) {
                        (Some(map), _, FileFormat::Csv) => {
                            let it = records.iter();
                            csv::parse_records_with_map(
                                &self.bytes,
                                map,
                                it,
                                &accessed_fields,
                                cols,
                            )?;
                            None
                        }
                        (Some(map), _, FileFormat::Json) if map.has_json_value_offsets() => {
                            // A batched flat first scan captured per-key
                            // value offsets: seek straight to each accessed
                            // value, never touching the other keys' bytes.
                            let it = records.iter();
                            json_batch::parse_records_with_map(
                                &self.bytes,
                                map,
                                it,
                                &accessed_fields,
                                cols,
                            )?;
                            None
                        }
                        (Some(map), _, FileFormat::Json) => {
                            // A tape map (nested JSON, or flat JSON first
                            // mapped by the row path): read each record from
                            // its tape.
                            let tapes = tapes.get_or_insert_with(|| {
                                json::TapeScan::new(&self.schema, leaves, projection)
                            });
                            let mut rows = 0;
                            for record in records.iter() {
                                let n = tapes.push_mapped(&self.bytes, map, record, cols, None)?;
                                rows += note_rows(record, n);
                            }
                            Some(rows)
                        }
                        (None, Some(ix), FileFormat::Csv) => {
                            // A chunk whose capture is already in re-scans
                            // capture-free, which skips tokenizing the
                            // trailing unaccessed fields entirely.
                            let mut slab = (!ix.chunk_filled(chunk))
                                .then(|| Vec::with_capacity((hi - lo) * (self.schema.len() + 1)));
                            csv::tokenize_range_into(
                                &self.bytes,
                                ix.record_offsets(),
                                lo,
                                hi,
                                self.schema.len(),
                                &accessed_fields,
                                cols,
                                slab.as_mut(),
                            )?;
                            if let Some(slab) = slab {
                                self.submit_capture(ix, chunk, slab);
                            }
                            None
                        }
                        (None, Some(ix), FileFormat::Json) if !self.nested => {
                            // First pass over this chunk: capture every
                            // schema key's value offset so re-scans seek
                            // straight to accessed values. A chunk whose
                            // capture is already in re-scans capture-free
                            // (accessed-keys-only matching, no slab writes).
                            let mut slab = (!ix.chunk_filled(chunk))
                                .then(|| Vec::with_capacity((hi - lo) * self.schema.len()));
                            json_batch::tokenize_range_into(
                                &self.bytes,
                                ix.record_offsets(),
                                lo,
                                hi,
                                self.schema.fields(),
                                &accessed_fields,
                                cols,
                                slab.as_mut(),
                            )?;
                            if let Some(slab) = slab {
                                self.submit_capture(ix, chunk, slab);
                            }
                            None
                        }
                        (None, Some(ix), FileFormat::Json) => {
                            // Nested first pass: build each record's tape,
                            // scan the record from it, and submit the
                            // chunk's tapes (their lengths, then the words).
                            let tapes = tapes.get_or_insert_with(|| {
                                json::TapeScan::new(&self.schema, leaves, projection)
                            });
                            let offsets = ix.record_offsets();
                            let mut slab = vec![0; hi - lo];
                            slab.reserve((offsets[hi] - offsets[lo]) as usize / 8);
                            let mut rows = 0;
                            for record in lo..hi {
                                let (start, end) =
                                    (offsets[record] as usize, offsets[record + 1] as usize);
                                let line =
                                    &self.bytes[start..trim_newline(&self.bytes, start, end)];
                                let before = slab.len();
                                let n = tapes.push_taping(line, &mut slab, cols)?;
                                slab[record - lo] = (slab.len() - before) as u32;
                                rows += note_rows(record, n);
                            }
                            if !ix.chunk_filled(chunk) {
                                self.submit_capture(ix, chunk, slab);
                            }
                            Some(rows)
                        }
                        (None, _, _) => unreachable!("the mode loop breaks with a map or an index"),
                    };
                    Ok::<_, recache_types::Error>(tape_rows)
                })();
                match outcome {
                    Ok(tape_rows) => {
                        let rows = tape_rows.unwrap_or_else(|| {
                            if want_record_ids {
                                scratch.record_ids.extend(records.iter().map(|r| r as u32));
                            }
                            records.len()
                        });
                        break (rows, t0.elapsed().as_nanos() as u64);
                    }
                    Err(err) if err.is_transient() && attempt + 1 < retry.max_attempts.max(1) => {
                        attempt += 1;
                        if let Some(ctl) = ctl {
                            ctl.note_retry();
                        }
                        std::thread::sleep(retry.delay(attempt));
                    }
                    Err(err) => {
                        if let Some(ctl) = ctl {
                            ctl.record_failure(chunk, err.clone());
                        }
                        return Err(err);
                    }
                }
            };
            selection.fill_identity(rows);
            let batch = ColumnBatch {
                len: rows,
                columns: scratch.columns(),
                record_ids: &scratch.record_ids,
            };
            on_batch(&batch, &mut selection);
            cost.add(&ScanCost {
                data_ns,
                compute_ns: 0,
                rows,
                rows_visited: rows,
            });
        }
        Ok(cost)
    }

    fn install_posmap(&self, map: PositionalMap) {
        *self.posmap.lock().expect("posmap lock") = Some(Arc::new(map));
    }
}

/// The records of one batch chunk: a window of the file, or a slice of a
/// lazy entry's record ids.
#[derive(Clone, Copy)]
enum Records<'a> {
    Range(usize, usize),
    Ids(&'a [u32]),
}

impl<'a> Records<'a> {
    fn len(self) -> usize {
        match self {
            Records::Range(lo, hi) => hi - lo,
            Records::Ids(ids) => ids.len(),
        }
    }

    fn iter(self) -> impl Iterator<Item = usize> + 'a {
        let (range, ids) = match self {
            Records::Range(lo, hi) => (lo..hi, &[][..]),
            Records::Ids(ids) => (0..0, ids),
        };
        range.chain(ids.iter().map(|&id| id as usize))
    }
}

/// The end of a record's content: its span's end, less a trailing
/// newline.
fn trim_newline(bytes: &[u8], start: usize, end: usize) -> usize {
    if end > start && bytes[end - 1] == b'\n' {
        end - 1
    } else {
        end
    }
}

/// Emits the projected flattened rows of one parsed record, returning how
/// many there were.
fn emit_flattened(
    flattener: &Flattener,
    id: usize,
    record: &Value,
    on_row: &mut dyn FnMut(usize, FlatRow),
) -> usize {
    let mut rows = FlatRows::new();
    flattener.flatten_into(record, &mut rows);
    for (row, _) in rows.iter() {
        on_row(id, row.iter().map(|&v| v.clone()).collect());
    }
    rows.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{DataType, Field};

    fn csv_file() -> RawFile {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("b", DataType::Float),
        ]);
        let bytes = csv::write_csv(
            &schema,
            &[
                vec![Value::Int(1), Value::Float(0.5)],
                vec![Value::Int(2), Value::Float(1.5)],
            ],
        );
        RawFile::from_bytes(bytes, FileFormat::Csv, schema)
    }

    fn json_file() -> RawFile {
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
        let records = vec![
            Value::Struct(vec![
                Value::Int(1),
                Value::List(vec![
                    Value::Struct(vec![Value::Int(10)]),
                    Value::Struct(vec![Value::Int(11)]),
                ]),
            ]),
            Value::Struct(vec![
                Value::Int(2),
                Value::List(vec![Value::Struct(vec![Value::Int(20)])]),
            ]),
        ];
        let bytes = json::write_json(&schema, &records);
        RawFile::from_bytes(bytes, FileFormat::Json, schema)
    }

    #[test]
    fn leaves_are_the_schemas_own_slice() {
        for file in [csv_file(), json_file()] {
            assert!(std::ptr::eq(file.leaves(), file.schema().leaves()));
        }
        assert_eq!(json_file().leaves().len(), 2);
    }

    #[test]
    fn csv_scan_builds_map_then_reuses_it() {
        let file = csv_file();
        assert!(file.record_count().is_none());
        let mut rows = Vec::new();
        let m1 = file
            .scan_projected(&[true, true], &mut |_, row| rows.push(row))
            .unwrap();
        assert!(!m1.used_posmap);
        assert_eq!(m1.records, 2);
        assert_eq!(rows.len(), 2);
        assert_eq!(file.record_count(), Some(2));

        let mut rows2 = Vec::new();
        let m2 = file
            .scan_projected(&[true, false], &mut |_, row| rows2.push(row))
            .unwrap();
        assert!(m2.used_posmap);
        assert_eq!(rows2, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn json_nested_scan_flattens_per_element() {
        let file = json_file();
        let mut rows = Vec::new();
        let m = file
            .scan_projected(&[true, true], &mut |id, row| rows.push((id, row)))
            .unwrap();
        assert_eq!(m.records, 2);
        assert_eq!(m.rows, 3);
        assert_eq!(rows[0], (0, vec![Value::Int(1), Value::Int(10)]));
        assert_eq!(rows[1], (0, vec![Value::Int(1), Value::Int(11)]));
        assert_eq!(rows[2], (1, vec![Value::Int(2), Value::Int(20)]));
    }

    #[test]
    fn json_non_nested_scan_yields_one_row_per_record() {
        let file = json_file();
        let mut rows = Vec::new();
        let m = file
            .scan_projected(&[true, false], &mut |_, row| rows.push(row))
            .unwrap();
        assert_eq!(m.rows, 2);
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn offset_reread_returns_selected_records() {
        let file = json_file();
        // First scan installs the positional map.
        file.scan_projected(&[true, false], &mut |_, _| {}).unwrap();
        let mut rows = Vec::new();
        let m = file
            .scan_records_projected(&[1], &[true, true], &mut |id, row| rows.push((id, row)))
            .unwrap();
        assert_eq!(m.records, 1);
        assert_eq!(rows, vec![(1, vec![Value::Int(2), Value::Int(20)])]);
    }

    #[test]
    fn offset_reread_without_map_errors() {
        let file = json_file();
        let err = file.scan_records_projected(&[0], &[true, true], &mut |_, _| {});
        assert!(err.is_err());
    }

    fn wide_csv_file(rows: usize) -> RawFile {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("b", DataType::Float),
            Field::required("s", DataType::Str),
        ]);
        let records: Vec<Vec<Value>> = (0..rows as i64)
            .map(|i| {
                vec![
                    if i % 5 == 0 {
                        Value::Null
                    } else {
                        Value::Int(i)
                    },
                    Value::Float(i as f64 * 0.25),
                    Value::from(format!("s{}", i % 13)),
                ]
            })
            .collect();
        let bytes = csv::write_csv(&schema, &records);
        RawFile::from_bytes(bytes, FileFormat::Csv, schema)
    }

    fn collect_batched(
        file: &RawFile,
        projection: &[usize],
        chunk_ranges: &[(usize, usize)],
    ) -> Vec<(u32, Vec<Value>)> {
        let mut out = Vec::new();
        for &(lo, hi) in chunk_ranges {
            file.scan_batches_range(projection, true, lo, hi, &mut |batch, sel| {
                for &i in sel.as_slice() {
                    let i = i as usize;
                    let row: Vec<Value> = batch.columns.iter().map(|c| c.value(i)).collect();
                    out.push((batch.record_ids[i], row));
                }
            })
            .unwrap();
        }
        out
    }

    /// Batched scans read a field with invalid UTF-8 as the row path
    /// does, with the bad bytes replaced, on the first scan and on
    /// mapped scans alike.
    #[test]
    fn batched_scans_replace_invalid_utf8_like_the_row_path() {
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::new("s", DataType::Str),
        ]);
        let bytes = b"1|zz\xFFb\n2|aa\n3|mm\n".to_vec();
        let batched = RawFile::from_bytes(bytes.clone(), FileFormat::Csv, schema.clone());
        let row = RawFile::from_bytes(bytes, FileFormat::Csv, schema);
        let mut expected = Vec::new();
        row.scan_projected(&[true, true], &mut |id, row| {
            expected.push((id as u32, row))
        })
        .unwrap();
        assert_eq!(expected[0].1[1], Value::from("zz\u{FFFD}b"));
        let chunks = batched.batch_chunks();
        assert!(batched.posmap().is_none());
        assert_eq!(collect_batched(&batched, &[0, 1], &[(0, chunks)]), expected);
        assert!(batched.posmap().is_some());
        assert_eq!(collect_batched(&batched, &[1, 0], &[(0, chunks)]), {
            let swapped = expected
                .iter()
                .map(|(id, row)| (*id, vec![row[1].clone(), row[0].clone()]));
            swapped.collect::<Vec<_>>()
        });
    }

    #[test]
    fn batched_first_scan_matches_row_scan_and_installs_posmap() {
        let rows = 10_000; // several BATCH_ROWS chunks
        let batched_file = wide_csv_file(rows);
        let row_file = wide_csv_file(rows);
        assert!(batched_file.supports_batch_scan());
        let chunks = batched_file.batch_chunks();
        assert!(chunks > 2, "need a multi-chunk file, got {chunks}");
        assert!(batched_file.posmap().is_none());
        assert_eq!(batched_file.known_record_count(), Some(rows));

        let projection = [2usize, 0];
        let got = collect_batched(&batched_file, &projection, &[(0, chunks)]);
        let mut expected = Vec::new();
        row_file
            .scan_projected(&[true, false, true], &mut |id, row| {
                // Row scans emit in leaf order; reorder to projection.
                expected.push((id as u32, vec![row[1].clone(), row[0].clone()]));
            })
            .unwrap();
        assert_eq!(got, expected);

        // Posmap assembled from the capture slabs must agree with the
        // row tokenizer's.
        let batched_map = batched_file.posmap().expect("posmap installed");
        let row_map = row_file.posmap().unwrap();
        assert_eq!(batched_map.record_count(), row_map.record_count());
        for rec in [0, 1, rows / 2, rows - 1] {
            for field in 0..3 {
                assert_eq!(
                    batched_map.field_span(rec, field),
                    row_map.field_span(rec, field),
                    "record {rec} field {field}"
                );
            }
        }
    }

    #[test]
    fn batched_scan_out_of_order_ranges_still_assemble_the_posmap() {
        let file = wide_csv_file(9500);
        let chunks = file.batch_chunks();
        assert!(chunks >= 3);
        // Scan ranges in shuffled order (as parallel tasks would).
        let full = collect_batched(&file, &[0, 1, 2], &[(chunks - 1, chunks), (0, 1)]);
        assert!(!full.is_empty());
        assert!(file.posmap().is_none(), "partial coverage: no posmap yet");
        collect_batched(&file, &[0, 1, 2], &[(1, chunks - 1)]);
        assert!(file.posmap().is_some(), "full coverage assembles the map");
        // Mapped re-scan agrees with itself.
        let again = collect_batched(&file, &[0, 1, 2], &[(0, chunks)]);
        assert_eq!(again.len(), 9500);
    }

    #[test]
    fn batched_mapped_scan_matches_first_scan() {
        let file = wide_csv_file(6000);
        let chunks = file.batch_chunks();
        let first = collect_batched(&file, &[1, 2], &[(0, chunks)]);
        assert!(file.posmap().is_some());
        let mapped = collect_batched(&file, &[1, 2], &[(0, chunks)]);
        assert_eq!(first, mapped);
    }

    #[test]
    fn batched_scan_reports_parse_errors() {
        let schema = Schema::new(vec![Field::required("a", DataType::Int)]);
        let file = RawFile::from_bytes(b"1\nnope\n3\n".to_vec(), FileFormat::Csv, schema);
        let chunks = file.batch_chunks();
        let err = file.scan_batches_range(&[0], false, 0, chunks, &mut |_, _| {});
        assert!(err.is_err());
        assert!(file.posmap().is_none());
    }

    #[test]
    fn reset_scan_state_forgets_maps_and_indexes() {
        let file = wide_csv_file(100);
        let chunks = file.batch_chunks();
        collect_batched(&file, &[0], &[(0, chunks)]);
        assert!(file.posmap().is_some());
        file.reset_scan_state();
        assert!(file.posmap().is_none());
        assert_eq!(file.known_record_count(), None);
        // Scans still work from scratch.
        let again = collect_batched(&file, &[0], &[(0, file.batch_chunks())]);
        assert_eq!(again.len(), 100);
    }

    #[test]
    fn empty_csv_batched_scan_is_empty_and_installs_empty_map() {
        let schema = Schema::new(vec![Field::required("a", DataType::Int)]);
        let file = RawFile::from_bytes(Vec::new(), FileFormat::Csv, schema);
        assert_eq!(file.batch_chunks(), 0);
        assert_eq!(file.record_count(), Some(0));
        let got = collect_batched(&file, &[0], &[(0, 0)]);
        assert!(got.is_empty());
    }

    /// `(record id, row)` pairs of a row-path scan, reordered from leaf
    /// order into `projection` order.
    fn row_scan(file: &RawFile, projection: &[usize]) -> Vec<(u32, Vec<Value>)> {
        let mut accessed = vec![false; file.leaves().len()];
        projection.iter().for_each(|&leaf| accessed[leaf] = true);
        let mut sorted = projection.to_vec();
        sorted.sort_unstable();
        let mut out = Vec::new();
        file.scan_projected(&accessed, &mut |id, row| {
            let row = projection
                .iter()
                .map(|leaf| row[sorted.binary_search(leaf).unwrap()].clone())
                .collect();
            out.push((id as u32, row));
        })
        .unwrap();
        out
    }

    fn collect_by_id(file: &RawFile, ids: &[u32], projection: &[usize]) -> Vec<(u32, Vec<Value>)> {
        let mut out = Vec::new();
        let chunks = file.batch_chunks_by_id(ids);
        file.scan_batches_by_id_ctl(ids, projection, true, 0, chunks, None, &mut |batch, sel| {
            for &i in sel.as_slice() {
                let i = i as usize;
                let row = batch.columns.iter().map(|c| c.value(i)).collect();
                out.push((batch.record_ids[i], row));
            }
        })
        .unwrap();
        out
    }

    #[test]
    fn nested_json_batched_scans_flatten_like_the_row_path() {
        let file = json_file();
        assert!(file.supports_batch_scan());
        let chunks = file.batch_chunks();
        for projection in [vec![0, 1], vec![1, 0], vec![1], vec![0], vec![]] {
            let row = row_scan(&json_file(), &projection);
            file.reset_scan_state();
            let first = collect_batched(&file, &projection, &[(0, chunks)]);
            assert!(file.posmap().is_some(), "full coverage installs the map");
            let mapped = collect_batched(&file, &projection, &[(0, chunks)]);
            let by_id = collect_by_id(&file, &[0, 1], &projection);
            assert_eq!(first, row, "projection {projection:?}");
            assert_eq!(mapped, first);
            assert_eq!(by_id, first);
        }
        let rows = collect_batched(&file, &[1, 0], &[(0, chunks)]);
        assert_eq!(rows[1], (0, vec![Value::Int(11), Value::Int(1)]));
        assert_eq!(
            collect_by_id(&file, &[1], &[0, 1]),
            vec![(1, vec![Value::Int(2), Value::Int(20)])]
        );
    }

    #[test]
    fn nested_json_batched_first_scan_installs_the_row_path_map() {
        let schema = crate::gen::tpch::order_lineitems_schema();
        let records = crate::gen::tpch::gen_order_lineitems(0.001, 3);
        let bytes = json::write_json(&schema, &records);
        let expected = json::scan_build_map(&bytes, &schema, None, |_, _| Ok(())).unwrap();
        let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
        let chunks = file.batch_chunks();
        assert!(chunks >= 2, "{chunks} chunks");
        // Out of order, as parallel tasks scan.
        collect_batched(&file, &[2], &[(chunks - 1, chunks)]);
        assert!(file.posmap().is_none(), "partial coverage: no map yet");
        collect_batched(&file, &[0, 5], &[(0, chunks - 1)]);
        assert_eq!(*file.posmap().expect("coverage installs the map"), expected);
    }

    fn flat_json_file(rows: usize) -> RawFile {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
        ]);
        let records: Vec<Value> = (0..rows as i64)
            .map(|i| {
                Value::Struct(vec![
                    if i % 5 == 0 {
                        Value::Null // written as an absent key
                    } else {
                        Value::Int(i)
                    },
                    Value::Float(i as f64 * 0.25),
                    Value::from(format!("s{}", i % 13)),
                ])
            })
            .collect();
        let bytes = json::write_json(&schema, &records);
        RawFile::from_bytes(bytes, FileFormat::Json, schema)
    }

    #[test]
    fn flat_json_batched_first_scan_matches_row_scan_and_installs_posmap() {
        let rows = 10_000; // several BATCH_ROWS chunks
        let batched_file = flat_json_file(rows);
        let row_file = flat_json_file(rows);
        assert!(batched_file.supports_batch_scan());
        let chunks = batched_file.batch_chunks();
        assert!(chunks > 2, "need a multi-chunk file, got {chunks}");
        assert!(batched_file.posmap().is_none());
        assert_eq!(batched_file.known_record_count(), Some(rows));

        let projection = [2usize, 0];
        let got = collect_batched(&batched_file, &projection, &[(0, chunks)]);
        let mut expected = Vec::new();
        row_file
            .scan_projected(&[true, false, true], &mut |id, row| {
                // Row scans emit in leaf order; reorder to projection.
                expected.push((id as u32, vec![row[1].clone(), row[0].clone()]));
            })
            .unwrap();
        assert_eq!(got, expected);

        // Coverage-complete batched scans install a record+value-offset
        // map whose record grid agrees with the row tokenizer's.
        let batched_map = batched_file.posmap().expect("posmap installed");
        let row_map = row_file.posmap().unwrap();
        assert_eq!(batched_map.record_count(), row_map.record_count());
        assert!(!batched_map.has_field_offsets());
        assert!(batched_map.has_json_value_offsets());
        for rec in [0, 1, rows / 2, rows - 1] {
            assert_eq!(batched_map.record_span(rec), row_map.record_span(rec));
        }
        // Every fifth record is written with key "a" absent; the capture
        // must record the sentinel, not a stale offset.
        assert_eq!(batched_map.json_value_offset(5, 0), None);
        assert!(batched_map.json_value_offset(6, 0).is_some());
        // Mapped batched re-scan (seeking through the value offsets)
        // agrees with the first scan.
        let again = collect_batched(&batched_file, &projection, &[(0, chunks)]);
        assert_eq!(again, got);
    }

    #[test]
    fn flat_json_mapped_rescan_handles_escapes_coercions_and_duplicates() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
        ]);
        let bytes = concat!(
            r#"{"s":"he\"llo","a":1}"#,
            "\n",
            "{ \"b\" : 2.5 , \"a\" : 7 , \"s\" : \"x\" }\n",
            r#"{"junk":[1,{"s":"}"}],"a":true,"s":null}"#,
            "\n",
            r#"{"a":1,"a":2}"#,
            "\n",
            r#"{"s":"plain"}"#,
            "\n",
        )
        .as_bytes()
        .to_vec();
        let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
        assert!(file.supports_batch_scan());
        let chunks = file.batch_chunks();
        let projection = [0usize, 2];
        let first = collect_batched(&file, &projection, &[(0, chunks)]);
        let map = file.posmap().expect("capture installs the map");
        assert!(map.has_json_value_offsets());
        // The mapped seek parser must reproduce the tokenizer exactly:
        // escaped strings, whitespace after colons, bool→int coercion,
        // explicit nulls, absent keys, and duplicate keys (last wins).
        let mapped = collect_batched(&file, &projection, &[(0, chunks)]);
        assert_eq!(mapped, first);
        let rows: Vec<Vec<Value>> = mapped.into_iter().map(|(_, row)| row).collect();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::from("he\"llo")],
                vec![Value::Int(7), Value::from("x")],
                vec![Value::Int(1), Value::Null],
                vec![Value::Int(2), Value::Null],
                vec![Value::Null, Value::from("plain")],
            ]
        );
    }

    #[test]
    fn flat_json_row_built_map_rescans_from_its_tapes() {
        let file = flat_json_file(3_000);
        // A row-path first scan installs a record + tape map with no
        // value offsets...
        let mut rows = 0usize;
        file.scan_projected(&[true, true, true], &mut |_, _| rows += 1)
            .unwrap();
        assert_eq!(rows, 3_000);
        let map = file.posmap().expect("row scan installs the map");
        assert!(!map.has_json_value_offsets());
        // ...so mapped batched scans read each record from its tape and
        // still match a capture-built batched scan of the same data.
        let fresh = flat_json_file(3_000);
        let got = collect_batched(&file, &[2, 0], &[(0, file.batch_chunks())]);
        let expected = collect_batched(&fresh, &[2, 0], &[(0, fresh.batch_chunks())]);
        assert_eq!(got, expected);
    }

    #[test]
    fn flat_json_out_of_order_ranges_assemble_the_posmap() {
        let file = flat_json_file(9_500);
        let chunks = file.batch_chunks();
        assert!(chunks >= 3);
        collect_batched(&file, &[0, 1, 2], &[(chunks - 1, chunks), (0, 1)]);
        assert!(file.posmap().is_none(), "partial coverage: no posmap yet");
        collect_batched(&file, &[0, 1, 2], &[(1, chunks - 1)]);
        assert!(file.posmap().is_some(), "full coverage assembles the map");
        file.reset_scan_state();
        assert!(file.posmap().is_none());
        assert_eq!(
            collect_batched(&file, &[1], &[(0, file.batch_chunks())]).len(),
            9_500
        );
    }

    #[test]
    fn flat_json_batched_scan_reports_parse_errors() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let file = RawFile::from_bytes(
            b"{\"a\":1}\nnot json\n{\"a\":3}\n".to_vec(),
            FileFormat::Json,
            schema,
        );
        let chunks = file.batch_chunks();
        let err = file.scan_batches_range(&[0], false, 0, chunks, &mut |_, _| {});
        assert!(err.is_err());
        assert!(file.posmap().is_none());
    }

    #[test]
    fn empty_flat_json_batched_scan_installs_empty_records_map() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let file = RawFile::from_bytes(Vec::new(), FileFormat::Json, schema);
        assert_eq!(file.batch_chunks(), 0);
        assert_eq!(file.record_count(), Some(0));
        assert!(collect_batched(&file, &[0], &[(0, 0)]).is_empty());
    }

    #[test]
    fn transient_faults_are_retried_to_the_fault_free_result() {
        let clean = wide_csv_file(30_000);
        let faulty = wide_csv_file(30_000);
        // 50% transient rate per attempt over ~8 chunks: some chunk
        // faults, and with 10 attempts no chunk exhausts its retries
        // (deterministic — the plan is a pure function of
        // (seed, chunk, attempt)).
        faulty.set_fault_plan(Some(FaultPlan::new(42).transient(0.5)));
        faulty.set_retry_policy(RetryPolicy {
            max_attempts: 10,
            base_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
        });
        let chunks = faulty.batch_chunks();
        let ctl = ScanCtl::new(None);
        let mut got = Vec::new();
        faulty
            .scan_batches_range_ctl(
                &[0, 1, 2],
                true,
                0,
                chunks,
                Some(&ctl),
                &mut |batch, sel| {
                    for &i in sel.as_slice() {
                        let i = i as usize;
                        got.push((
                            batch.record_ids[i],
                            batch.columns.iter().map(|c| c.value(i)).collect::<Vec<_>>(),
                        ));
                    }
                },
            )
            .expect("transient faults must be absorbed by retry");
        assert!(ctl.retries() > 0, "the seed must actually inject faults");
        let expected = collect_batched(&clean, &[0, 1, 2], &[(0, clean.batch_chunks())]);
        assert_eq!(got, expected, "retried scan must be fault-free-identical");
        // Retried captures must still assemble a correct posmap.
        assert!(faulty.posmap().is_some());
    }

    #[test]
    fn persistent_faults_surface_a_typed_io_error_and_record_into_ctl() {
        let file = wide_csv_file(10_000);
        file.set_fault_plan(Some(FaultPlan::new(7).persistent(1.0)));
        let chunks = file.batch_chunks();
        let ctl = ScanCtl::new(None);
        let err = file
            .scan_batches_range_ctl(&[0], false, 0, chunks, Some(&ctl), &mut |_, _| {})
            .unwrap_err();
        assert!(matches!(err, recache_types::Error::Io(_)), "got {err}");
        assert!(!err.is_transient());
        assert_eq!(ctl.first_failed_chunk(), Some(0));
        // Clearing the plan restores a fully working file.
        file.set_fault_plan(None);
        let again = collect_batched(&file, &[0], &[(0, chunks)]);
        assert_eq!(again.len(), 10_000);
    }

    #[test]
    fn cancelled_scan_returns_the_typed_error() {
        let file = wide_csv_file(10_000);
        let token = Arc::new(recache_types::CancelToken::new());
        token.cancel();
        let ctl = ScanCtl::new(Some(Arc::clone(&token)));
        let err = file
            .scan_batches_range_ctl(
                &[0],
                false,
                0,
                file.batch_chunks(),
                Some(&ctl),
                &mut |_, _| {},
            )
            .unwrap_err();
        assert!(matches!(err, recache_types::Error::Cancelled));
    }

    #[test]
    fn chunks_above_a_recorded_failure_are_skipped() {
        let file = wide_csv_file(10_000);
        let chunks = file.batch_chunks();
        assert!(chunks >= 3);
        let ctl = ScanCtl::new(None);
        ctl.record_failure(0, recache_types::Error::exec("peer failure"));
        let mut batches = 0usize;
        file.scan_batches_range_ctl(&[0], false, 1, chunks, Some(&ctl), &mut |_, _| {
            batches += 1;
        })
        .expect("skipped chunks are not errors");
        assert_eq!(batches, 0, "every chunk above the failure short-circuits");
    }

    #[test]
    fn row_scan_gate_faults_before_any_row_is_emitted() {
        let file = csv_file();
        file.set_fault_plan(Some(FaultPlan::new(3).persistent(1.0)));
        let mut rows = 0usize;
        let err = file
            .scan_projected(&[true, true], &mut |_, _| rows += 1)
            .unwrap_err();
        assert!(matches!(err, recache_types::Error::Io(_)));
        assert_eq!(rows, 0, "no partial emission before the fault");
        file.set_fault_plan(None);
        assert!(file.scan_projected(&[true, true], &mut |_, _| {}).is_ok());
    }
}

//! Nested columnar cache layout: Dremel/Parquet column striping.
//!
//! Each scalar leaf is stored as its own column with *definition* and
//! *repetition* levels (Melnik et al., Dremel, PVLDB 2010). No value is
//! ever duplicated, so the store is compact and writes are cheap (Fig. 6
//! of the ReCache paper). The price is paid at read time:
//!
//! * queries touching only non-repeated leaves read columns with one
//!   entry per record — the short-column fast path ("4x fewer rows"),
//! * queries touching repeated leaves must *assemble* records from the
//!   level streams — a branchy, stateful walk (the paper's FSM) whose
//!   cost ReCache measures as the computational component `C`.
//!
//! Writes go through the incremental [`DremelBuilder`], which shreds one
//! record at a time from any [`ShredInput`]: a parsed [`Value`], or (in
//! `recache-data`) a raw JSON record read in place through its structure
//! tape. The builder compiles the schema once into a plan, and one walk
//! over it holds the level rules, so the two inputs cannot shred
//! differently; leaves are read and pushed as their own type, and the
//! same walk counts the record's flattened rows.
//!
//! Scans are two-phase. Assembly (compute phase) walks the projected
//! leaves' levels into a reusable node arena — a struct node holds its
//! field slots, a list node its element range, a leaf node a column
//! entry index — which [`Flattener`] reads as one more [`FlatInput`],
//! so each flattened row comes out as entry indexes. The gather (data
//! phase) then copies those entries, typed, straight into the scan's
//! output. No `Value` is built on either phase, and the two costs are
//! measured separately as the cost model requires.

use crate::batch::{BatchScratch, ColumnBatch, SelectionVector, BATCH_ROWS};
use crate::bitmap::Bitmap;
use crate::column::ColumnData;
use crate::shape::leaf_count;
use crate::ScanCost;
use recache_types::{DataType, FlatInput, FlatRows, Flattener, ScalarType, Schema, Value};
use std::borrow::Cow;
use std::convert::Infallible;
use std::ops::Range;
use std::time::Instant;

/// Records per assembly chunk (amortizes the phase timers). Batched
/// scans of nested raw JSON chunk their records at the same granularity.
pub const CHUNK_RECORDS: usize = 256;

/// One striped leaf column.
#[derive(Debug, Clone, PartialEq)]
pub struct DremelColumn {
    data: ColumnData,
    /// Value present (definition level reached the leaf and the value was
    /// not null).
    valid: Bitmap,
    def: Vec<u16>,
    rep: Vec<u16>,
}

impl DremelColumn {
    /// Records an entry whose value was just pushed into `data`.
    #[inline]
    fn push_held(&mut self, def: u16, rep: u16) {
        self.valid.push(true);
        self.def.push(def);
        self.rep.push(rep);
    }

    fn push_null(&mut self, def: u16, rep: u16) {
        self.valid.push(false);
        self.data.push(&Value::Null);
        self.def.push(def);
        self.rep.push(rep);
    }

    /// Number of entries (≠ record count for repeated leaves).
    pub fn len(&self) -> usize {
        self.def.len()
    }

    pub fn is_empty(&self) -> bool {
        self.def.is_empty()
    }

    /// Value at an entry (`Null` if invalid).
    #[inline]
    pub fn value(&self, index: usize) -> Value {
        if self.valid.get(index) {
            self.data.get(index)
        } else {
            Value::Null
        }
    }

    fn byte_size(&self) -> usize {
        self.data.byte_size() + self.valid.byte_size() + self.def.len() * 2 + self.rep.len() * 2
    }
}

/// Dremel-style nested columnar store.
#[derive(Debug, Clone, PartialEq)]
pub struct DremelStore {
    schema: Schema,
    columns: Vec<DremelColumn>,
    max_rep: Vec<u16>,
    record_count: usize,
    flattened_rows: usize,
    /// Per leaf: the column entry index at every [`CHUNK_RECORDS`]
    /// record boundary (`chunk_starts[leaf][k]` = cursor of record
    /// `k · CHUNK_RECORDS`), captured during shredding so a range scan
    /// seeks to its start chunk in O(leaves) instead of replaying the
    /// level streams.
    chunk_starts: Vec<Vec<u32>>,
    /// Source-file record ids (`None` ⇒ identity); see
    /// [`crate::ColumnStore::set_source_record_ids`].
    source_ids: Option<Vec<u32>>,
}

impl DremelStore {
    /// Shreds `records` into striped columns. Low-cardinality string
    /// leaves are dictionary-encoded at the default threshold (see
    /// [`crate::ColumnStore::build`]).
    pub fn build<'a>(schema: &Schema, records: impl IntoIterator<Item = &'a Value>) -> Self {
        Self::build_with_dict(schema, records, Some(crate::column::DICT_MAX_RATIO))
    }

    /// [`DremelStore::build`] with an explicit dictionary-encoding knob
    /// (`None` disables encoding).
    pub fn build_with_dict<'a>(
        schema: &Schema,
        records: impl IntoIterator<Item = &'a Value>,
        dict_max_ratio: Option<f64>,
    ) -> Self {
        let mut builder = DremelBuilder::new(schema);
        for record in records {
            builder.push_record(record);
        }
        builder.finish_with_dict(dict_max_ratio)
    }

    /// Records the source-file record id of each cached record.
    pub fn set_source_record_ids(&mut self, ids: Vec<u32>) {
        debug_assert_eq!(ids.len(), self.record_count);
        self.source_ids = Some(ids);
    }

    /// Source-file record ids, when known.
    pub fn source_record_ids(&self) -> Option<&[u32]> {
        self.source_ids.as_deref()
    }

    #[inline]
    fn source_id(&self, rec: usize) -> u32 {
        match &self.source_ids {
            Some(ids) => ids[rec],
            None => rec as u32,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// What the flattened (relational columnar) row count `R` would be.
    pub fn flattened_rows(&self) -> usize {
        self.flattened_rows
    }

    pub fn byte_size(&self) -> usize {
        self.columns
            .iter()
            .map(DremelColumn::byte_size)
            .sum::<usize>()
            + self.max_rep.len() * 2
            + self.chunk_starts.iter().map(|s| s.len() * 4).sum::<usize>()
    }

    /// Column access for tests.
    pub fn column(&self, leaf: usize) -> &DremelColumn {
        &self.columns[leaf]
    }

    /// True when leaf `leaf` ended up dictionary-encoded.
    pub fn leaf_is_dict(&self, leaf: usize) -> bool {
        self.columns[leaf].data.is_dict()
    }

    /// Scans the store, emitting the source record id and projected row
    /// (projection order).
    ///
    /// With `record_level` (no repeated leaf projected) the short columns
    /// are read directly; otherwise records are assembled through the
    /// level streams and flattened.
    pub fn scan(
        &self,
        projection: &[usize],
        record_level: bool,
        emit: &mut dyn FnMut(usize, &[Value]),
    ) -> ScanCost {
        if record_level && projection.iter().all(|&l| self.max_rep[l] == 0) {
            return self.scan_record_level(projection, emit);
        }
        self.scan_assembled(projection, emit)
    }

    /// Short-column fast path: every projected column has exactly one
    /// entry per record.
    fn scan_record_level(
        &self,
        projection: &[usize],
        emit: &mut dyn FnMut(usize, &[Value]),
    ) -> ScanCost {
        let mut cost = ScanCost::default();
        let total = self.record_count;
        let mut buf: Vec<Value> = vec![Value::Null; projection.len()];
        let mut start = 0usize;
        while start < total {
            let end = (start + BATCH_ROWS).min(total);
            let t0 = Instant::now();
            for i in start..end {
                for (slot, &leaf) in buf.iter_mut().zip(projection) {
                    *slot = self.columns[leaf].value(i);
                }
                emit(self.source_id(i) as usize, &buf);
            }
            let data = t0.elapsed();
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: 0,
                rows: end - start,
                rows_visited: end - start,
            });
            start = end;
        }
        cost
    }

    /// Per-leaf cursor positions at the start of record `start_rec`,
    /// which must sit on a [`CHUNK_RECORDS`] boundary — an O(leaves)
    /// lookup into the `chunk_starts` index captured at build time.
    /// This is what lets an assembled range scan begin mid-store without
    /// replaying the level streams, so parallel tasks do no duplicated
    /// decode work.
    fn cursors_at(&self, start_rec: usize) -> Vec<usize> {
        debug_assert_eq!(
            start_rec % CHUNK_RECORDS,
            0,
            "assembled ranges start on chunk boundaries"
        );
        let chunk = start_rec / CHUNK_RECORDS;
        self.chunk_starts
            .iter()
            .map(|starts| starts.get(chunk).map_or(0, |&c| c as usize))
            .collect()
    }

    /// Level-driven record assembly producing flattened rows.
    fn scan_assembled(
        &self,
        projection: &[usize],
        emit: &mut dyn FnMut(usize, &[Value]),
    ) -> ScanCost {
        let mut assembly = Assembly::new(self, projection);
        let mut cost = ScanCost::default();
        let mut cursors = vec![0usize; self.columns.len()];
        let mut row_recs: Vec<u32> = Vec::new();
        let mut buf: Vec<Value> = vec![Value::Null; projection.len()];
        let mut rec = 0usize;
        while rec < self.record_count {
            let chunk_end = (rec + CHUNK_RECORDS).min(self.record_count);
            // Phase C: assemble the records and flatten them into rows of
            // entry indexes (level decoding, branching, replication).
            let t0 = Instant::now();
            row_recs.clear();
            assembly.chunk(self, &mut cursors, rec..chunk_end, Some(&mut row_recs));
            let compute = t0.elapsed();
            // Phase D: gather actual values by entry index.
            let t1 = Instant::now();
            for ((row, _), &rid) in assembly.rows.iter().zip(&row_recs) {
                for ((slot, &leaf), &at) in buf.iter_mut().zip(projection).zip(&assembly.order) {
                    *slot = match row[at] {
                        NULL => Value::Null,
                        entry => self.columns[leaf].value(entry as usize),
                    };
                }
                emit(rid as usize, &buf);
            }
            let data = t1.elapsed();
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: compute.as_nanos() as u64,
                rows: assembly.rows.len(),
                rows_visited: assembly.rows.len(),
            });
            rec = chunk_end;
        }
        cost
    }

    /// Whether a scan with this shape reads the short columns directly
    /// (one entry per record) instead of assembling records.
    fn short_column_path(&self, projection: &[usize], record_level: bool) -> bool {
        record_level && projection.iter().all(|&l| self.max_rep[l] == 0)
    }

    /// Number of chunks a batched scan emits: [`BATCH_ROWS`] records per
    /// chunk on the short-column path, `CHUNK_RECORDS` records per
    /// chunk when records must be assembled (the pre-existing timed-scan
    /// granularity in both cases).
    pub fn batch_chunks(&self, projection: &[usize], record_level: bool) -> usize {
        let per_chunk = if self.short_column_path(projection, record_level) {
            BATCH_ROWS
        } else {
            CHUNK_RECORDS
        };
        self.record_count.div_ceil(per_chunk)
    }

    /// Vectorized scan.
    ///
    /// Record-level scans over non-repeated leaves yield *borrowed* short
    /// columns (one entry per record — zero copies, `C = 0`). Otherwise
    /// each chunk of records is assembled through the level streams
    /// (compute `C`, the paper's FSM cost) and the referenced entries are
    /// gathered into reusable typed scratch columns (data `D`) — no
    /// per-value `Value` boxing on either phase.
    /// `want_record_ids` as on [`crate::ColumnStore::scan_batches`].
    pub fn scan_batches(
        &self,
        projection: &[usize],
        record_level: bool,
        want_record_ids: bool,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> ScanCost {
        let chunks = self.batch_chunks(projection, record_level);
        self.scan_batches_range(
            projection,
            record_level,
            want_record_ids,
            0,
            chunks,
            on_batch,
        )
    }

    /// [`DremelStore::scan_batches`] restricted to batch chunks
    /// `[chunk_lo, chunk_hi)` of the [`DremelStore::batch_chunks`] grid.
    /// Chunks cover disjoint record ranges; an assembled-path range
    /// first positions the level-stream cursors at its start record
    /// (the internal `cursors_at`), so disjoint ranges may be scanned
    /// concurrently and a full-range call is bit-identical to
    /// `scan_batches`.
    pub fn scan_batches_range(
        &self,
        projection: &[usize],
        record_level: bool,
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> ScanCost {
        if self.short_column_path(projection, record_level) {
            return self.scan_batches_record_level(
                projection,
                want_record_ids,
                chunk_lo,
                chunk_hi,
                on_batch,
            );
        }
        self.scan_batches_assembled(projection, want_record_ids, chunk_lo, chunk_hi, on_batch)
    }

    /// Borrowed short-column batches (the "4x fewer rows" fast path).
    fn scan_batches_record_level(
        &self,
        projection: &[usize],
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> ScanCost {
        let mut cost = ScanCost::default();
        let total = self.record_count.min(chunk_hi.saturating_mul(BATCH_ROWS));
        let all_valid: Vec<bool> = projection
            .iter()
            .map(|&leaf| self.columns[leaf].valid.all_set())
            .collect();
        let mut selection = SelectionVector::new();
        // Reserved only when ids are wanted (a cache hit wants none).
        let mut record_ids: Vec<u32> =
            Vec::with_capacity(if want_record_ids { BATCH_ROWS } else { 0 });
        let mut start = chunk_lo.saturating_mul(BATCH_ROWS);
        while start < total {
            let end = (start + BATCH_ROWS).min(total);
            let t0 = Instant::now();
            record_ids.clear();
            if want_record_ids {
                record_ids.extend((start..end).map(|i| self.source_id(i)));
            }
            let batch = ColumnBatch {
                len: end - start,
                columns: projection
                    .iter()
                    .zip(&all_valid)
                    .map(|(&leaf, &av)| {
                        let col = &self.columns[leaf];
                        crate::batch::borrowed_batch_column(&col.data, &col.valid, start, end, av)
                    })
                    .collect(),
                record_ids: &record_ids,
            };
            selection.fill_identity(end - start);
            let data = t0.elapsed();
            on_batch(&batch, &mut selection);
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: 0,
                rows: end - start,
                rows_visited: end - start,
            });
            start = end;
        }
        cost
    }

    /// Assembled batches: level decoding is compute, typed gathers are
    /// data access.
    fn scan_batches_assembled(
        &self,
        projection: &[usize],
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> ScanCost {
        let leaves = self.schema.leaves();
        let mut scratch =
            BatchScratch::for_projection(projection.iter().map(|&l| leaves[l].scalar_type));
        let mut cost = ScanCost::default();
        let total = self
            .record_count
            .min(chunk_hi.saturating_mul(CHUNK_RECORDS));
        let mut rec = chunk_lo.saturating_mul(CHUNK_RECORDS);
        if rec >= total {
            return cost;
        }
        let mut assembly = Assembly::new(self, projection);
        let mut cursors = self.cursors_at(rec);
        let mut selection = SelectionVector::new();
        while rec < total {
            let chunk_end = (rec + CHUNK_RECORDS).min(total);
            // Phase C: record assembly through the level streams, and the
            // flattening of the assembled records into entry indexes.
            let t0 = Instant::now();
            scratch.clear();
            let ids = want_record_ids.then_some(&mut scratch.record_ids);
            assembly.chunk(self, &mut cursors, rec..chunk_end, ids);
            let compute = t0.elapsed();
            // Phase D: typed gather of the referenced column entries.
            let t1 = Instant::now();
            for ((out, &leaf), &at) in scratch.cols.iter_mut().zip(projection).zip(&assembly.order)
            {
                let col = &self.columns[leaf];
                for (row, _) in assembly.rows.iter() {
                    match row[at] {
                        NULL => out.push_null(),
                        entry => out.push_from(&col.data, &col.valid, entry as usize),
                    }
                }
            }
            let data = t1.elapsed();
            let rows = assembly.rows.len();
            selection.fill_identity(rows);
            let batch = ColumnBatch {
                len: rows,
                columns: scratch.columns(),
                record_ids: &scratch.record_ids,
            };
            on_batch(&batch, &mut selection);
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: compute.as_nanos() as u64,
                rows,
                rows_visited: rows,
            });
            rec = chunk_end;
        }
        cost
    }

    /// Reassembles the original nested records (exact up to empty-list /
    /// null equivalences). Tests are its only callers: they check stores
    /// against the records they were built from. A layout switch rebuilds
    /// from the raw file instead.
    pub fn to_records(&self) -> Vec<Value> {
        let all: Vec<usize> = (0..self.columns.len()).collect();
        let mut assembly = Assembly::new(self, &all);
        let mut cursors = vec![0usize; all.len()];
        let root = DataType::Struct(self.schema.fields().to_vec());
        (0..self.record_count)
            .map(|_| {
                let node = assembly.record(self, &mut cursors);
                self.node_value(&assembly.arena, &root, 0, node)
            })
            .collect()
    }

    /// The value of the arena node `node` of type `ty`, whose first leaf
    /// is `leaf`.
    fn node_value(&self, arena: &Arena, ty: &DataType, leaf: usize, node: u32) -> Value {
        if node == NULL {
            return Value::Null;
        }
        match ty {
            DataType::Struct(fields) => {
                let mut leaf = leaf;
                let slots = &arena.slots[node as usize..];
                Value::Struct(
                    fields
                        .iter()
                        .zip(slots)
                        .map(|(field, &slot)| {
                            let value = self.node_value(arena, &field.data_type, leaf, slot);
                            leaf += leaf_count(&field.data_type);
                            value
                        })
                        .collect(),
                )
            }
            DataType::List(inner) => Value::List(
                arena
                    .elements(node)
                    .iter()
                    .map(|&elem| self.node_value(arena, inner, leaf, elem))
                    .collect(),
            ),
            _ => self.columns[leaf].value(node as usize),
        }
    }
}

/// [`Flattener::projected`] emits accessed leaves in canonical order;
/// maps canonical positions back to projection order.
fn projection_order(projection: &[usize]) -> Vec<usize> {
    let mut sorted: Vec<usize> = projection.to_vec();
    sorted.sort_unstable();
    projection
        .iter()
        .map(|l| sorted.binary_search(l).expect("projection leaf"))
        .collect()
}

/// No arena node: a null or absent value (see [`Arena`]).
const NULL: u32 = u32::MAX;

/// The projected part of a schema node, compiled for assembly: which
/// level stream decides it, and what it holds.
#[derive(Debug)]
struct Asm {
    /// The first projected leaf beneath: its definition levels tell
    /// whether the node is null, its repetition levels where a list ends.
    probe: usize,
    /// A nullable struct field.
    nullable: bool,
    /// The projected leaves beneath, whose cursors a null node advances
    /// by one entry each (the one null entry each was shredded with).
    leaves: Vec<usize>,
    kind: AsmKind,
}

#[derive(Debug)]
enum AsmKind {
    Leaf,
    List(Box<Asm>),
    /// A struct of `width` fields, with `(field index, node)` of each
    /// field that holds a projected leaf.
    Struct {
        width: usize,
        kids: Vec<(usize, Asm)>,
    },
}

impl Asm {
    /// The node of type `ty` whose first leaf is `*leaf`, advancing
    /// `*leaf` past its leaves; `None` when no leaf beneath is accessed.
    fn of(ty: &DataType, nullable: bool, accessed: &[bool], leaf: &mut usize) -> Option<Asm> {
        let start = *leaf;
        let kind = match ty {
            DataType::Struct(fields) => AsmKind::Struct {
                width: fields.len(),
                kids: fields
                    .iter()
                    .enumerate()
                    .filter_map(|(idx, f)| {
                        Some((idx, Asm::of(&f.data_type, f.nullable, accessed, leaf)?))
                    })
                    .collect(),
            },
            DataType::List(inner) => {
                AsmKind::List(Box::new(Asm::of(inner, false, accessed, leaf)?))
            }
            _ => {
                *leaf += 1;
                AsmKind::Leaf
            }
        };
        let leaves: Vec<usize> = (start..*leaf).filter(|&l| accessed[l]).collect();
        Some(Asm {
            probe: *leaves.first()?,
            nullable,
            leaves,
            kind,
        })
    }

    /// Assembles the node whose entries sit at `cursors` into `arena`,
    /// advancing the cursors past them, and returns its arena node. `d`
    /// is the definition level the parent reached, `depth` the number of
    /// list ancestors. These are the shredding rules of
    /// [`DremelBuilder`] read backwards: a level below the one the node
    /// defines marks it null, and a list continues while the next entry
    /// repeats at its own depth.
    fn assemble(
        &self,
        columns: &[DremelColumn],
        cursors: &mut [usize],
        arena: &mut Arena,
        mut d: u16,
        depth: u16,
    ) -> u32 {
        let probe = &columns[self.probe];
        if self.nullable {
            if probe.def[cursors[self.probe]] < d + 1 {
                return self.skip(cursors);
            }
            d += 1;
        }
        match &self.kind {
            AsmKind::Leaf => {
                let entry = cursors[self.probe];
                cursors[self.probe] += 1;
                entry as u32
            }
            AsmKind::List(elem) => {
                if probe.def[cursors[self.probe]] < d + 1 {
                    return self.skip(cursors);
                }
                let (base, depth) = (arena.pending.len(), depth + 1);
                loop {
                    let node = elem.assemble(columns, cursors, arena, d + 1, depth);
                    arena.pending.push(node);
                    if probe.rep.get(cursors[self.probe]) != Some(&depth) {
                        break;
                    }
                }
                arena.push_list(base)
            }
            AsmKind::Struct { width, kids } => {
                let base = arena.slots.len();
                arena.slots.resize(base + width, NULL);
                for (idx, kid) in kids {
                    arena.slots[base + idx] = kid.assemble(columns, cursors, arena, d, depth);
                }
                base as u32
            }
        }
    }

    /// A null node: consumes the one entry each projected leaf beneath
    /// holds for it.
    fn skip(&self, cursors: &mut [usize]) -> u32 {
        for &leaf in &self.leaves {
            cursors[leaf] += 1;
        }
        NULL
    }
}

/// One assembled record, as [`Flattener`] reads it: a struct node is the
/// index of its first field slot in `slots` (one slot per field, in
/// order), a list node the index of its element range in `lists`, a leaf
/// node its column entry index, and [`NULL`] an absent value.
#[derive(Debug, Default)]
struct Arena {
    slots: Vec<u32>,
    lists: Vec<(u32, u32)>,
    elems: Vec<u32>,
    /// The elements of the lists being assembled, innermost last.
    pending: Vec<u32>,
}

impl Arena {
    fn clear(&mut self) {
        self.slots.clear();
        self.lists.clear();
        self.elems.clear();
    }

    /// Closes the list whose elements are `pending[base..]`.
    fn push_list(&mut self, base: usize) -> u32 {
        let start = self.elems.len() as u32;
        self.elems.extend(self.pending.drain(base..));
        self.lists.push((start, self.elems.len() as u32));
        self.lists.len() as u32 - 1
    }

    fn elements(&self, list: u32) -> &[u32] {
        let (start, end) = self.lists[list as usize];
        &self.elems[start as usize..end as usize]
    }
}

impl FlatInput for Arena {
    type Node = u32;

    fn null(&self) -> u32 {
        NULL
    }

    fn field(&self, node: u32, idx: usize) -> u32 {
        match node {
            NULL => NULL,
            base => self.slots[base as usize + idx],
        }
    }

    fn elements(&self, node: u32, visit: impl FnMut(u32)) -> bool {
        if node == NULL {
            return false;
        }
        self.elements(node).iter().copied().for_each(visit);
        true
    }
}

/// An assembled scan of one projection: the compiled assembly and
/// flattening, and the buffers every record reuses.
struct Assembly {
    /// `None` when nothing is projected.
    root: Option<Asm>,
    flattener: Flattener,
    /// Per projection slot, its leaf's position in a flattened row.
    order: Vec<usize>,
    arena: Arena,
    /// The flattened rows of the last chunk, each cell a column entry
    /// index or [`NULL`].
    rows: FlatRows<u32>,
}

impl Assembly {
    fn new(store: &DremelStore, projection: &[usize]) -> Self {
        let mut accessed = vec![false; store.columns.len()];
        for &leaf in projection {
            accessed[leaf] = true;
        }
        let root = DataType::Struct(store.schema.fields().to_vec());
        Assembly {
            root: Asm::of(&root, false, &accessed, &mut 0),
            flattener: Flattener::projected(&store.schema, &accessed),
            order: projection_order(projection),
            arena: Arena::default(),
            rows: FlatRows::new(),
        }
    }

    /// Assembles the record at `cursors` into the cleared arena; returns
    /// its root node.
    fn record(&mut self, store: &DremelStore, cursors: &mut [usize]) -> u32 {
        self.arena.clear();
        match &self.root {
            Some(root) => root.assemble(&store.columns, cursors, &mut self.arena, 0, 0),
            None => NULL,
        }
    }

    /// Replaces `rows` with the flattened rows of the records `recs`,
    /// whose entries start at `cursors`; with `record_ids`, appends the
    /// source record id of every row to it.
    fn chunk(
        &mut self,
        store: &DremelStore,
        cursors: &mut [usize],
        recs: Range<usize>,
        mut record_ids: Option<&mut Vec<u32>>,
    ) {
        self.rows.clear();
        for rec in recs {
            let root = self.record(store, cursors);
            self.flattener
                .flatten_from(&self.arena, root, &mut self.rows);
            if let Some(ids) = record_ids.as_deref_mut() {
                ids.resize(self.rows.len(), store.source_id(rec));
            }
        }
    }
}

/// An incremental [`DremelStore`] builder: records are shredded one at a
/// time, from any input that implements [`ShredInput`] — a parsed
/// [`Value`] ([`DremelBuilder::push_record`]) or a raw record read in
/// place ([`DremelBuilder::push_node`]).
///
/// [`DremelBuilder::new`] compiles the schema once into a plan: per node
/// its kind (a leaf of some scalar type, a list or a struct), whether it
/// is nullable, the columns of the leaves beneath it and the plans of its
/// children. Both inputs go through the one walk over that plan, which
/// holds the level rules, so they cannot shred differently:
///
/// * a field that reads as null, or that is absent from its struct,
///   writes one null entry per leaf beneath it at the definition level
///   reached so far;
/// * any other field adds one definition level if nullable;
/// * a non-empty list adds one definition level to its elements, and
///   every element after the first starts at the list's own repetition
///   level;
/// * an empty list, or a value of the wrong kind for a list or struct,
///   writes one null entry per leaf beneath it;
/// * a scalar writes one entry, valid unless null, read and pushed as
///   its leaf's own type (`i64`, `f64`, `bool` or string bytes).
///
/// The flattened row count comes from the same walk: a struct multiplies
/// its fields' counts, a non-empty list sums its elements', and
/// everything else counts one row.
#[derive(Debug)]
pub struct DremelBuilder {
    schema: Schema,
    plan: Plan,
    columns: Vec<DremelColumn>,
    /// Field sets of the structs wider than 64 fields being walked.
    wide: Vec<u64>,
    chunk_starts: Vec<Vec<u32>>,
    record_count: usize,
    flattened_rows: usize,
}

impl DremelBuilder {
    pub fn new(schema: &Schema) -> Self {
        let columns: Vec<DremelColumn> = schema
            .leaves()
            .iter()
            .map(|l| DremelColumn {
                data: ColumnData::new(l.scalar_type),
                valid: Bitmap::new(),
                def: Vec::new(),
                rep: Vec::new(),
            })
            .collect();
        let mut leaf = 0;
        let plan = Plan::of(
            &DataType::Struct(schema.fields().to_vec()),
            false,
            &mut leaf,
        );
        DremelBuilder {
            schema: schema.clone(),
            plan,
            chunk_starts: vec![Vec::new(); columns.len()],
            columns,
            wide: Vec::new(),
            record_count: 0,
            flattened_rows: 0,
        }
    }

    /// Shreds one parsed record. A value that is not a struct reads as a
    /// struct of nulls.
    pub fn push_record(&mut self, record: &Value) {
        let Ok(()) = self.push_node(record);
    }

    /// Shreds one record from its root node, read as a struct of the
    /// schema's fields. On error the record is partly written, and the
    /// builder must be dropped.
    pub fn push_node<'a, I: ShredInput<'a>>(&mut self, root: I) -> Result<(), I::Error> {
        if self.record_count.is_multiple_of(CHUNK_RECORDS) {
            for (starts, col) in self.chunk_starts.iter_mut().zip(&self.columns) {
                starts.push(col.len() as u32);
            }
        }
        self.wide.clear();
        let mut walk = Walk {
            columns: &mut self.columns,
            wide: &mut self.wide,
        };
        let rows = walk.node(&self.plan, root, 0, 0, 0)?;
        self.record_count += 1;
        self.flattened_rows += rows;
        Ok(())
    }

    /// Appends the records of another builder over the same schema, as
    /// if they had been shredded here one by one (parallel builds merge
    /// their parts in record order). The chunk index is taken at the
    /// merged store's own [`CHUNK_RECORDS`] boundaries: each record
    /// starts with one entry of repetition level 0 in every leaf, so a
    /// boundary inside `other` is found by walking its levels from
    /// `other`'s own chunk start before it.
    pub fn append(&mut self, other: DremelBuilder) {
        // The global boundaries that fall inside `other`, as record
        // indexes into it.
        let first = self.record_count.next_multiple_of(CHUNK_RECORDS) - self.record_count;
        let boundaries = (first..other.record_count).step_by(CHUNK_RECORDS);
        for ((col, starts), (more, more_starts)) in self
            .columns
            .iter_mut()
            .zip(&mut self.chunk_starts)
            .zip(other.columns.into_iter().zip(other.chunk_starts))
        {
            let base = col.len() as u32;
            for boundary in boundaries.clone() {
                let mut record = boundary / CHUNK_RECORDS * CHUNK_RECORDS;
                let mut entry = more_starts[boundary / CHUNK_RECORDS] as usize;
                while record < boundary {
                    entry += 1;
                    while more.rep[entry] != 0 {
                        entry += 1;
                    }
                    record += 1;
                }
                starts.push(base + entry as u32);
            }
            col.data.append(more.data);
            col.valid.append(&more.valid);
            col.def.extend(more.def);
            col.rep.extend(more.rep);
        }
        self.record_count += other.record_count;
        self.flattened_rows += other.flattened_rows;
    }

    /// Seals the store, dictionary-encoding low-cardinality string leaves
    /// at the default threshold (as [`DremelStore::build`] does).
    pub fn finish(self) -> DremelStore {
        self.finish_with_dict(Some(crate::column::DICT_MAX_RATIO))
    }

    fn finish_with_dict(mut self, dict_max_ratio: Option<f64>) -> DremelStore {
        if let Some(ratio) = dict_max_ratio {
            for col in &mut self.columns {
                col.data.dict_encode(ratio, crate::column::DICT_MIN_ROWS);
            }
        }
        DremelStore {
            max_rep: self.schema.leaves().iter().map(|l| l.max_rep).collect(),
            schema: self.schema,
            columns: self.columns,
            record_count: self.record_count,
            flattened_rows: self.flattened_rows,
            chunk_starts: self.chunk_starts,
            source_ids: None,
        }
    }
}

/// One node of a record being shredded, read against the plan of the
/// schema node it stands for. [`DremelBuilder`] walks a record through
/// this trait only, so every input shreds by the same rules.
pub trait ShredInput<'a>: Copy {
    type Error;

    /// The node read as an `Int` leaf: `None` if null, otherwise the
    /// value [`ColumnData::push`] stores for it.
    fn int(self) -> Result<Option<i64>, Self::Error>;

    /// The node read as a `Float` leaf (see [`ShredInput::int`]).
    fn float(self) -> Result<Option<f64>, Self::Error>;

    /// The node read as a `Bool` leaf (see [`ShredInput::int`]).
    fn bool(self) -> Result<Option<bool>, Self::Error>;

    /// The node read as a `Str` leaf (see [`ShredInput::int`]).
    fn str(self) -> Result<Option<Cow<'a, str>>, Self::Error>;

    /// Reads the node as a leaf of type `ty` and pushes its value into
    /// `data` if it holds one; returns whether it did. Each type's read
    /// and push stay typed, with no dispatch on the value between them.
    #[inline]
    fn push_into(self, ty: ScalarType, data: &mut ColumnData) -> Result<bool, Self::Error> {
        let held = match ty {
            ScalarType::Int => self.int()?.map(|v| data.push_int(v)),
            ScalarType::Float => self.float()?.map(|v| data.push_float(v)),
            ScalarType::Bool => self.bool()?.map(|v| data.push_bool(v)),
            ScalarType::Str => self.str()?.map(|s| data.push_str_bytes(s.as_bytes())),
        };
        Ok(held.is_some())
    }

    /// The node read as the list type `ty`. When it is a non-empty list
    /// ([`Holds::List`]), first visits its elements in order.
    fn elements(
        self,
        ty: &DataType,
        visit: impl FnMut(Self) -> Result<(), Self::Error>,
    ) -> Result<Holds, Self::Error>;

    /// The node read as the struct type `ty`. When it is a struct
    /// ([`Holds::Struct`]), first adds to `present` (empty, one slot per
    /// field) every field it holds.
    fn fields(self, ty: &DataType, present: &mut FieldSet<'_>) -> Result<Holds, Self::Error>;

    /// Visits the fields a node read as the struct type `ty` holds, by
    /// index and in order. A field the node holds more than once (which
    /// `fields` reports as `repeats`) is visited for its last occurrence
    /// only, and the earlier ones are read for their errors alone.
    fn visit_fields(
        self,
        ty: &DataType,
        repeats: bool,
        visit: impl FnMut(usize, Self) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error>;
}

/// What a node read as a list or a struct holds (see [`ShredInput`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Holds {
    /// A null value.
    Null,
    /// Not null, but nothing beneath it: an empty list, or a value of
    /// another kind where a list or struct is expected.
    Empty,
    /// A non-empty list.
    List,
    /// A struct; `repeats` when it holds some field more than once.
    Struct { repeats: bool },
}

/// The fields a struct node holds, one bit per field, in storage the
/// shredding walk owns (see [`ShredInput::fields`]).
#[derive(Debug)]
pub struct FieldSet<'s> {
    words: &'s mut [u64],
    len: usize,
}

impl FieldSet<'_> {
    /// Adds field `idx`: `None` if the struct has no such field, else
    /// whether it was not present yet.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> Option<bool> {
        if idx >= self.len {
            return None;
        }
        let (word, bit) = (&mut self.words[idx / 64], 1u64 << (idx % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        Some(fresh)
    }

    fn contains(&self, idx: usize) -> bool {
        self.words[idx / 64] >> (idx % 64) & 1 == 1
    }
}

impl<'a> ShredInput<'a> for &'a Value {
    type Error = Infallible;

    // `ColumnData::push`'s coercions: numbers and bools convert, and
    // any other value reads as the type's zero value.
    fn int(self) -> Result<Option<i64>, Infallible> {
        Ok(held(self).map(|v| v.as_i64().unwrap_or(0)))
    }

    fn float(self) -> Result<Option<f64>, Infallible> {
        Ok(held(self).map(|v| v.as_f64().unwrap_or(0.0)))
    }

    fn bool(self) -> Result<Option<bool>, Infallible> {
        Ok(held(self).map(|v| v.as_bool().unwrap_or(false)))
    }

    fn str(self) -> Result<Option<Cow<'a, str>>, Infallible> {
        Ok(held(self).map(|v| Cow::Borrowed(v.as_str().unwrap_or(""))))
    }

    fn elements(
        self,
        _: &DataType,
        visit: impl FnMut(Self) -> Result<(), Infallible>,
    ) -> Result<Holds, Infallible> {
        Ok(match self {
            Value::Null => Holds::Null,
            Value::List(items) if !items.is_empty() => {
                items.iter().try_for_each(visit)?;
                Holds::List
            }
            _ => Holds::Empty,
        })
    }

    fn fields(self, _: &DataType, present: &mut FieldSet<'_>) -> Result<Holds, Infallible> {
        Ok(match self {
            Value::Null => Holds::Null,
            Value::Struct(children) => {
                for idx in 0..children.len().min(present.len) {
                    present.insert(idx);
                }
                Holds::Struct { repeats: false }
            }
            _ => Holds::Empty,
        })
    }

    fn visit_fields(
        self,
        ty: &DataType,
        _: bool,
        mut visit: impl FnMut(usize, Self) -> Result<(), Infallible>,
    ) -> Result<(), Infallible> {
        if let (Value::Struct(children), DataType::Struct(fields)) = (self, ty) {
            for (idx, child) in children.iter().take(fields.len()).enumerate() {
                visit(idx, child)?;
            }
        }
        Ok(())
    }
}

/// `value` unless it is null.
fn held(value: &Value) -> Option<&Value> {
    (!value.is_null()).then_some(value)
}

/// A schema node compiled for shredding: what the walk dispatches on,
/// built once per builder.
#[derive(Debug)]
struct Plan {
    kind: Kind,
    /// A nullable struct field.
    nullable: bool,
    /// The columns of the leaves beneath.
    leaves: Range<usize>,
    /// A struct's fields, or a list's element.
    kids: Vec<Plan>,
    /// The node's type, which inputs read containers against.
    ty: DataType,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Leaf(ScalarType),
    List,
    Struct,
}

impl Plan {
    /// The plan of a node of type `ty` whose first leaf is `*leaf`,
    /// advancing `*leaf` past its leaves.
    fn of(ty: &DataType, nullable: bool, leaf: &mut usize) -> Plan {
        let start = *leaf;
        let (kind, kids) = match ty {
            DataType::Struct(fields) => (
                Kind::Struct,
                fields
                    .iter()
                    .map(|f| Plan::of(&f.data_type, f.nullable, leaf))
                    .collect(),
            ),
            DataType::List(inner) => (Kind::List, vec![Plan::of(inner, false, leaf)]),
            scalar => {
                *leaf += 1;
                (
                    Kind::Leaf(scalar.as_scalar().expect("a scalar type")),
                    Vec::new(),
                )
            }
        };
        Plan {
            kind,
            nullable,
            leaves: start..*leaf,
            kids,
            ty: ty.clone(),
        }
    }
}

/// One record being shredded into the builder's columns.
struct Walk<'b> {
    columns: &'b mut [DremelColumn],
    /// See [`DremelBuilder`]'s field of the same name.
    wide: &'b mut Vec<u64>,
}

impl Walk<'_> {
    /// Shreds `input`, a node of `plan`; returns its flattened row count.
    /// `r` is the repetition level of the *first* entry each leaf writes
    /// here, `d` the definition level reached so far and `depth` the
    /// number of list ancestors.
    fn node<'a, I: ShredInput<'a>>(
        &mut self,
        plan: &Plan,
        input: I,
        r: u16,
        d: u16,
        depth: u16,
    ) -> Result<usize, I::Error> {
        let d_held = d + u16::from(plan.nullable);
        let (holds, rows) = match plan.kind {
            Kind::Leaf(ty) => {
                let col = &mut self.columns[plan.leaves.start];
                if input.push_into(ty, &mut col.data)? {
                    col.push_held(d_held, r);
                } else {
                    col.push_null(d, r);
                }
                return Ok(1);
            }
            Kind::List => {
                let (elem, depth) = (&plan.kids[0], depth + 1);
                let (mut rows, mut r_elem) = (0, r);
                let holds = input.elements(&plan.ty, |item| {
                    rows += self.node(elem, item, r_elem, d_held + 1, depth)?;
                    r_elem = depth;
                    Ok(())
                })?;
                (holds, rows)
            }
            Kind::Struct => self.fields(plan, input, r, d_held, depth)?,
        };
        match holds {
            Holds::List | Holds::Struct { .. } => return Ok(rows),
            Holds::Null => emit_nulls(self.columns, plan, r, d),
            Holds::Empty => emit_nulls(self.columns, plan, r, d_held),
        }
        Ok(1)
    }

    /// [`Walk::node`] of a struct, whose fields start at definition level
    /// `d`: the fields it lacks get nulls, then the ones it holds are
    /// shredded in order.
    fn fields<'a, I: ShredInput<'a>>(
        &mut self,
        plan: &Plan,
        input: I,
        r: u16,
        d: u16,
        depth: u16,
    ) -> Result<(Holds, usize), I::Error> {
        let len = plan.kids.len();
        let mut small = 0u64;
        let base = self.wide.len();
        let words = if len <= 64 {
            std::slice::from_mut(&mut small)
        } else {
            self.wide.resize(base + len.div_ceil(64), 0);
            &mut self.wide[base..]
        };
        let mut present = FieldSet { words, len };
        let holds = input.fields(&plan.ty, &mut present);
        if let Ok(Holds::Struct { .. }) = holds {
            for (idx, kid) in plan.kids.iter().enumerate() {
                if !present.contains(idx) {
                    emit_nulls(self.columns, kid, r, d);
                }
            }
        }
        self.wide.truncate(base);
        let repeats = match holds? {
            Holds::Struct { repeats } => repeats,
            holds => return Ok((holds, 1)),
        };
        let mut rows = 1;
        input.visit_fields(&plan.ty, repeats, |idx, field| {
            rows *= self.node(&plan.kids[idx], field, r, d, depth)?;
            Ok(())
        })?;
        Ok((Holds::Struct { repeats }, rows))
    }
}

/// One null entry for every leaf of the node.
fn emit_nulls(columns: &mut [DremelColumn], plan: &Plan, r: u16, d: u16) {
    for col in &mut columns[plan.leaves.clone()] {
        col.push_null(d, r);
    }
}

/// Seeded random schemas and records, shared with the flattening tests
/// of `recache-types`.
#[cfg(test)]
#[path = "../../types/src/testgen.rs"]
mod testgen;

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{flatten_record, flatten_record_projected, Field};

    fn order_schema() -> Schema {
        Schema::new(vec![
            Field::required("o", DataType::Int),
            Field::required("price", DataType::Float),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tag", DataType::Str),
                ]))),
            ),
        ])
    }

    fn sample_records() -> Vec<Value> {
        vec![
            Value::Struct(vec![
                Value::Int(1),
                Value::Float(10.0),
                Value::List(vec![
                    Value::Struct(vec![Value::Int(100), Value::Str("a".into())]),
                    Value::Struct(vec![Value::Int(101), Value::Null]),
                ]),
            ]),
            Value::Struct(vec![Value::Int(2), Value::Float(20.0), Value::Null]),
            Value::Struct(vec![
                Value::Int(3),
                Value::Float(30.0),
                Value::List(vec![Value::Struct(vec![
                    Value::Int(300),
                    Value::Str("c".into()),
                ])]),
            ]),
        ]
    }

    #[test]
    fn shredding_levels_match_dremel_semantics() {
        let schema = order_schema();
        let records = sample_records();
        let store = DremelStore::build(&schema, records.iter());
        // Non-repeated leaf: one entry per record.
        assert_eq!(store.column(0).len(), 3);
        // Repeated leaf q (leaf 2): 2 + 1(null for absent list) + 1 = 4.
        let q = store.column(2);
        assert_eq!(q.len(), 4);
        assert_eq!(q.rep, vec![0, 1, 0, 0]);
        // items nullable(+1) then list(+1): present q has def 2.
        assert_eq!(q.def, vec![2, 2, 0, 2]);
        assert_eq!(q.value(0), Value::Int(100));
        assert_eq!(q.value(2), Value::Null);
    }

    #[test]
    fn record_counts_and_flattened_rows() {
        let schema = order_schema();
        let records = sample_records();
        let store = DremelStore::build(&schema, records.iter());
        assert_eq!(store.record_count(), 3);
        // 2 + 1 + 1 flattened rows.
        assert_eq!(store.flattened_rows(), 4);
    }

    #[test]
    fn to_records_round_trips_flattened_view() {
        let schema = order_schema();
        let records = sample_records();
        let store = DremelStore::build(&schema, records.iter());
        let rebuilt = store.to_records();
        assert_eq!(rebuilt.len(), records.len());
        for (a, b) in records.iter().zip(&rebuilt) {
            assert_eq!(flatten_record(&schema, a), flatten_record(&schema, b));
        }
    }

    #[test]
    fn record_level_scan_reads_short_columns() {
        let schema = order_schema();
        let records = sample_records();
        let store = DremelStore::build(&schema, records.iter());
        let mut rows = Vec::new();
        let cost = store.scan(&[0, 1], true, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(rows.len(), 3); // one per record, not per element
        assert_eq!(cost.rows, 3);
        assert_eq!(rows[1], vec![Value::Int(2), Value::Float(20.0)]);
    }

    #[test]
    fn element_level_scan_matches_flatten() {
        let schema = order_schema();
        let records = sample_records();
        let store = DremelStore::build(&schema, records.iter());
        let mut rows = Vec::new();
        store.scan(&[0, 2], false, &mut |_, row| rows.push(row.to_vec()));
        let mut expected = Vec::new();
        let accessed = [true, false, true, false];
        for r in &records {
            expected.extend(flatten_record_projected(&schema, r, &accessed));
        }
        assert_eq!(rows, expected);
    }

    #[test]
    fn projection_order_is_respected() {
        let schema = order_schema();
        let records = sample_records();
        let store = DremelStore::build(&schema, records.iter());
        let mut rows = Vec::new();
        // Reversed projection: q before o.
        store.scan(&[2, 0], false, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(rows[0], vec![Value::Int(100), Value::Int(1)]);
    }

    #[test]
    fn dremel_is_smaller_than_flattened_columnar_on_nested_data() {
        use crate::columnar::ColumnStore;
        let schema = order_schema();
        // Records with large lists: duplication dominates the columnar
        // size; Dremel stores each parent value once.
        let records: Vec<Value> = (0..50)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::List(
                        (0..30)
                            .map(|j| Value::Struct(vec![Value::Int(j), Value::Str("tag".into())]))
                            .collect(),
                    ),
                ])
            })
            .collect();
        let dremel = DremelStore::build(&schema, records.iter());
        let columnar = ColumnStore::build(&schema, records.iter());
        assert!(
            dremel.byte_size() < columnar.byte_size(),
            "dremel {} vs columnar {}",
            dremel.byte_size(),
            columnar.byte_size()
        );
    }

    #[test]
    fn scan_cost_attributes_compute_to_assembly() {
        let schema = order_schema();
        let records: Vec<Value> = (0..2000)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::List(
                        (0..4)
                            .map(|j| Value::Struct(vec![Value::Int(j), Value::Null]))
                            .collect(),
                    ),
                ])
            })
            .collect();
        let store = DremelStore::build(&schema, records.iter());
        let mut n = 0usize;
        let cost = store.scan(&[0, 2], false, &mut |_, _| n += 1);
        assert_eq!(n, 8000);
        // Element-level scans must show nonzero compute (level decoding).
        assert!(cost.compute_ns > 0);
        assert!(cost.data_ns > 0);
        // Record-level scans over short columns report zero compute.
        let cost = store.scan(&[0, 1], true, &mut |_, _| {});
        assert_eq!(cost.compute_ns, 0);
    }

    #[test]
    fn range_scan_concatenation_matches_full_scan() {
        // Spans several assembly chunks (CHUNK_RECORDS = 256) and, on the
        // short-column path, several BATCH_ROWS windows.
        let schema = order_schema();
        let records: Vec<Value> = (0..10_000)
            .map(|i| {
                let items = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::List(
                        (0..(i % 4))
                            .map(|j| {
                                Value::Struct(vec![
                                    Value::Int(i * 10 + j),
                                    if j % 2 == 0 {
                                        Value::Str(format!("t{j}"))
                                    } else {
                                        Value::Null
                                    },
                                ])
                            })
                            .collect(),
                    )
                };
                Value::Struct(vec![Value::Int(i), Value::Float(i as f64), items])
            })
            .collect();
        let mut store = DremelStore::build(&schema, records.iter());
        store.set_source_record_ids((0..10_000u32).map(|i| i + 100).collect());
        for (projection, record_level) in [(vec![0usize, 2, 3], false), (vec![0, 1], true)] {
            let chunks = store.batch_chunks(&projection, record_level);
            assert!(chunks > 2, "need a multi-chunk store, got {chunks}");
            let mut expected = Vec::new();
            store.scan_batches(&projection, record_level, true, &mut |batch, sel| {
                for &i in sel.as_slice() {
                    let i = i as usize;
                    let row: Vec<Value> = batch.columns.iter().map(|c| c.value(i)).collect();
                    expected.push((batch.record_ids[i], row));
                }
            });
            let mut got = Vec::new();
            for (lo, hi) in [(0, 1), (1, chunks / 2), (chunks / 2, chunks)] {
                store.scan_batches_range(
                    &projection,
                    record_level,
                    true,
                    lo,
                    hi,
                    &mut |batch, sel| {
                        for &i in sel.as_slice() {
                            let i = i as usize;
                            let row: Vec<Value> =
                                batch.columns.iter().map(|c| c.value(i)).collect();
                            got.push((batch.record_ids[i], row));
                        }
                    },
                );
            }
            assert_eq!(
                got.len(),
                expected.len(),
                "projection {projection:?} record_level {record_level}"
            );
            assert_eq!(got, expected, "projection {projection:?}");
        }
    }

    #[test]
    fn deep_nesting_list_of_list() {
        let schema = Schema::new(vec![Field::new(
            "m",
            DataType::List(Box::new(DataType::List(Box::new(DataType::Int)))),
        )]);
        let records = [
            Value::Struct(vec![Value::List(vec![
                Value::List(vec![Value::Int(1), Value::Int(2)]),
                Value::List(vec![Value::Int(3)]),
            ])]),
            Value::Struct(vec![Value::Null]),
        ];
        let store = DremelStore::build(&schema, records.iter());
        let col = store.column(0);
        assert_eq!(col.rep, vec![0, 2, 1, 0]);
        let rebuilt = store.to_records();
        for (a, b) in records.iter().zip(&rebuilt) {
            assert_eq!(flatten_record(&schema, a), flatten_record(&schema, b));
        }
    }

    #[test]
    fn sibling_lists_assemble_independently() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::List(Box::new(DataType::Int))),
            Field::new("y", DataType::List(Box::new(DataType::Int))),
        ]);
        let records = [Value::Struct(vec![
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::Int(10), Value::Int(20), Value::Int(30)]),
        ])];
        let store = DremelStore::build(&schema, records.iter());
        let rebuilt = store.to_records();
        assert_eq!(
            flatten_record(&schema, &rebuilt[0]),
            flatten_record(&schema, &records[0])
        );
        // Element-level scan of both lists = cartesian product (6 rows).
        let mut n = 0;
        store.scan(&[0, 1], false, &mut |_, _| n += 1);
        assert_eq!(n, 6);
    }

    /// What a leaf of type `ty` stores for `value`: the column coercion.
    fn stored(value: &Value, ty: ScalarType) -> Value {
        let mut col = crate::column::Column::new(ty);
        col.push(value);
        col.get(0)
    }

    /// `(source id, row)` of every selected row of a batched scan.
    fn batch_rows<'r>(
        rows: &'r mut Vec<(u32, Vec<Value>)>,
    ) -> impl FnMut(&ColumnBatch<'_>, &mut SelectionVector) + 'r {
        |batch, sel| {
            for &i in sel.as_slice() {
                let i = i as usize;
                let row = batch.columns.iter().map(|c| c.value(i)).collect();
                rows.push((batch.record_ids[i], row));
            }
        }
    }

    /// Over 300 random schemas, each with random projections in random
    /// order: record- and element-level batched scans of chunk-aligned
    /// ranges, and the row path over the whole store, give the projected
    /// flattening of the input records, row for row, with source ids.
    #[test]
    fn assembled_scans_equal_the_projected_flattening_of_random_records() {
        use super::testgen::{random_record, random_schema, Rng};
        let mut rng = Rng::new(0xA5E7);
        let mut multi_row_records = 0;
        for case in 0..300 {
            let schema = random_schema(&mut rng);
            let leaves = schema.leaves();
            let n = rng.below(3 * CHUNK_RECORDS as u64) as usize;
            let records: Vec<Value> = (0..n).map(|_| random_record(&mut rng, &schema)).collect();
            let mut store = DremelStore::build(&schema, &records);
            let ids: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
            store.set_source_record_ids(ids.clone());
            for _ in 0..3 {
                let mut projection: Vec<usize> =
                    (0..leaves.len()).filter(|_| rng.chance(60)).collect();
                for i in (1..projection.len()).rev() {
                    projection.swap(i, rng.below(i as u64 + 1) as usize);
                }
                let mut accessed = vec![false; leaves.len()];
                projection.iter().for_each(|&leaf| accessed[leaf] = true);
                let order = projection_order(&projection);
                // Per record, its expected rows in projection order.
                let expected: Vec<Vec<(u32, Vec<Value>)>> = records
                    .iter()
                    .zip(&ids)
                    .map(|(record, &id)| {
                        let rows = flatten_record_projected(&schema, record, &accessed);
                        multi_row_records += usize::from(rows.len() > 1);
                        rows.iter()
                            .map(|row| {
                                let row = projection
                                    .iter()
                                    .zip(&order)
                                    .map(|(&leaf, &at)| stored(&row[at], leaves[leaf].scalar_type))
                                    .collect();
                                (id, row)
                            })
                            .collect()
                    })
                    .collect();
                let ctx = format!("case {case}: projection {projection:?} of {schema:?}");
                for record_level in [false, true] {
                    let short = record_level && projection.iter().all(|&l| leaves[l].max_rep == 0);
                    let per_chunk = if short { BATCH_ROWS } else { CHUNK_RECORDS };
                    let chunks = store.batch_chunks(&projection, record_level);
                    let lo = rng.below(chunks as u64 + 1) as usize;
                    let hi = lo + rng.below((chunks - lo) as u64 + 1) as usize;
                    let mut got = Vec::new();
                    store.scan_batches_range(
                        &projection,
                        record_level,
                        true,
                        lo,
                        hi,
                        &mut batch_rows(&mut got),
                    );
                    let window = (lo * per_chunk).min(n)..(hi * per_chunk).min(n);
                    let want: Vec<_> = expected[window].concat();
                    assert_eq!(
                        got, want,
                        "{ctx}: batches {lo}..{hi}, record_level {record_level}"
                    );

                    let mut got = Vec::new();
                    store.scan(&projection, record_level, &mut |id, row| {
                        got.push((id as u32, row.to_vec()))
                    });
                    assert_eq!(
                        got,
                        expected.concat(),
                        "{ctx}: rows, record_level {record_level}"
                    );
                }
            }
        }
        assert!(
            multi_row_records > 10_000,
            "the generator must produce multi-row records: {multi_row_records}"
        );
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recache_types::{flatten_record, Field};

    fn random_records(rng: &mut StdRng, max_records: usize) -> Vec<Value> {
        (0..rng.random_range(1..max_records))
            .map(|_| {
                let items: Vec<Value> = (0..rng.random_range(0..5))
                    .map(|_| {
                        let w = if rng.random::<bool>() {
                            Value::Float(rng.random_range(0.0..10.0))
                        } else {
                            Value::Null
                        };
                        Value::Struct(vec![Value::Int(rng.random::<i64>()), w])
                    })
                    .collect();
                Value::Struct(vec![Value::Int(rng.random::<i64>()), Value::List(items)])
            })
            .collect()
    }

    fn test_schema() -> Schema {
        Schema::new(vec![
            Field::required("o", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("w", DataType::Float),
                ]))),
            ),
        ])
    }

    #[test]
    fn shred_assemble_preserves_flattened_view() {
        let schema = test_schema();
        let mut rng = StdRng::seed_from_u64(0xD7E1);
        for case in 0..100 {
            let records = random_records(&mut rng, 30);
            let store = DremelStore::build(&schema, records.iter());
            let rebuilt = store.to_records();
            assert_eq!(records.len(), rebuilt.len(), "case {case}");
            for (a, b) in records.iter().zip(&rebuilt) {
                assert_eq!(
                    flatten_record(&schema, a),
                    flatten_record(&schema, b),
                    "case {case}: flattened view diverged for {a:?}"
                );
            }
        }
    }

    #[test]
    fn scans_agree_with_columnar_store() {
        let schema = test_schema();
        let mut rng = StdRng::seed_from_u64(0xD7E2);
        for case in 0..100 {
            let records = random_records(&mut rng, 25);
            let dremel = DremelStore::build(&schema, records.iter());
            let columnar = crate::columnar::ColumnStore::build(&schema, records.iter());
            // Element-level scans over the same projection must agree.
            let mut a = Vec::new();
            dremel.scan(&[0, 2], false, &mut |_, row| a.push(row.to_vec()));
            let mut b = Vec::new();
            columnar.scan(&[0, 2], false, &mut |_, row| b.push(row.to_vec()));
            assert_eq!(a, b, "case {case}: element-level scans diverged");
            // Record-level scans too.
            let mut a = Vec::new();
            dremel.scan(&[0], true, &mut |_, row| a.push(row.to_vec()));
            let mut b = Vec::new();
            columnar.scan(&[0], true, &mut |_, row| b.push(row.to_vec()));
            assert_eq!(a, b, "case {case}: record-level scans diverged");
        }
    }
}

#[cfg(test)]
mod builder_oracle_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recache_types::Field;

    /// The recursive `Value` shredder the builder replaced, counting rows
    /// with the reference flattener rather than the builder's walk, kept
    /// as the oracle.
    fn oracle_build(schema: &Schema, records: &[Value]) -> DremelStore {
        let leaves = schema.leaves();
        let mut columns: Vec<DremelColumn> = leaves
            .iter()
            .map(|l| DremelColumn {
                data: ColumnData::new(l.scalar_type),
                valid: Bitmap::new(),
                def: Vec::new(),
                rep: Vec::new(),
            })
            .collect();
        let mut chunk_starts: Vec<Vec<u32>> = vec![Vec::new(); columns.len()];
        let mut flattened_rows = 0usize;
        for (record_count, record) in records.iter().enumerate() {
            if record_count.is_multiple_of(CHUNK_RECORDS) {
                for (leaf, col) in columns.iter().enumerate() {
                    chunk_starts[leaf].push(col.len() as u32);
                }
            }
            shred_struct(schema.fields(), record, 0, 0, 0, 0, &mut columns);
            flattened_rows += recache_types::flatten_record(schema, record).len();
        }
        for col in &mut columns {
            col.data
                .dict_encode(crate::column::DICT_MAX_RATIO, crate::column::DICT_MIN_ROWS);
        }
        DremelStore {
            schema: schema.clone(),
            columns,
            max_rep: leaves.iter().map(|l| l.max_rep).collect(),
            record_count: records.len(),
            flattened_rows,
            chunk_starts,
            source_ids: None,
        }
    }

    fn push(col: &mut DremelColumn, value: &Value, def: u16, rep: u16) {
        col.valid.push(!value.is_null());
        col.data.push(value);
        col.def.push(def);
        col.rep.push(rep);
    }

    fn shred_struct(
        fields: &[Field],
        value: &Value,
        mut leaf: usize,
        r: u16,
        d: u16,
        list_depth: u16,
        columns: &mut [DremelColumn],
    ) {
        let children: &[Value] = match value {
            Value::Struct(c) => c,
            _ => &[],
        };
        for (i, field) in fields.iter().enumerate() {
            let child = children.get(i).unwrap_or(&Value::Null);
            if field.nullable && child.is_null() {
                emit_nulls(&field.data_type, leaf, r, d, columns);
            } else {
                let d = d + u16::from(field.nullable);
                shred_type(&field.data_type, child, leaf, r, d, list_depth, columns);
            }
            leaf += leaf_count(&field.data_type);
        }
    }

    fn shred_type(
        ty: &DataType,
        value: &Value,
        leaf: usize,
        r: u16,
        d: u16,
        list_depth: u16,
        columns: &mut [DremelColumn],
    ) {
        match ty {
            DataType::List(inner) => match value {
                Value::List(items) if !items.is_empty() => {
                    let child_depth = list_depth + 1;
                    for (i, item) in items.iter().enumerate() {
                        let r_elem = if i == 0 { r } else { child_depth };
                        shred_type(inner, item, leaf, r_elem, d + 1, child_depth, columns);
                    }
                }
                _ => emit_nulls(inner, leaf, r, d, columns),
            },
            DataType::Struct(fields) => {
                shred_struct(fields, value, leaf, r, d, list_depth, columns)
            }
            _ => push(&mut columns[leaf], value, d, r),
        }
    }

    fn emit_nulls(ty: &DataType, leaf: usize, r: u16, d: u16, columns: &mut [DremelColumn]) {
        match ty {
            DataType::Struct(fields) => {
                let mut leaf = leaf;
                for field in fields {
                    emit_nulls(&field.data_type, leaf, r, d, columns);
                    leaf += leaf_count(&field.data_type);
                }
            }
            DataType::List(inner) => emit_nulls(inner, leaf, r, d, columns),
            _ => push(&mut columns[leaf], &Value::Null, d, r),
        }
    }

    /// Nullable and required fields, a list of structs holding a list,
    /// a list of lists, and a struct holding a list.
    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("id", DataType::Int),
            Field::new("tag", DataType::Str),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("w", DataType::Float),
                    Field::new("sub", DataType::List(Box::new(DataType::Bool))),
                ]))),
            ),
            Field::required(
                "grid",
                DataType::List(Box::new(DataType::List(Box::new(DataType::Str)))),
            ),
            Field::new(
                "meta",
                DataType::Struct(vec![
                    Field::required("x", DataType::Int),
                    Field::new("ys", DataType::List(Box::new(DataType::Float))),
                ]),
            ),
        ])
    }

    /// A value of `ty`, or — one time in six — null, a value of another
    /// kind, or an empty list.
    fn random_value(rng: &mut StdRng, ty: &DataType, depth: usize) -> Value {
        match rng.random_range(0..12) {
            0 => return Value::Null,
            1 => return Value::Int(rng.random_range(-3..3)),
            2 if depth < 3 => return Value::List(Vec::new()),
            3 if depth < 3 => return Value::Struct(vec![Value::Str("odd".into())]),
            _ => {}
        }
        match ty {
            DataType::Int => Value::Int(rng.random_range(-50..50)),
            DataType::Float => Value::Float(rng.random_range(0.0..9.0)),
            DataType::Bool => Value::Bool(rng.random::<bool>()),
            DataType::Str => Value::Str(format!("s{}", rng.random_range(0..4))),
            DataType::List(inner) => Value::List(
                (0..rng.random_range(0..4))
                    .map(|_| random_value(rng, inner, depth + 1))
                    .collect(),
            ),
            DataType::Struct(fields) => Value::Struct(
                fields
                    .iter()
                    .take(fields.len() - usize::from(rng.random_range(0..6) == 0))
                    .map(|f| random_value(rng, &f.data_type, depth + 1))
                    .collect(),
            ),
        }
    }

    #[test]
    fn builder_equals_the_recursive_value_shredder() {
        let schema = schema();
        let root = DataType::Struct(schema.fields().to_vec());
        let mut rng = StdRng::seed_from_u64(0xB11D);
        for case in 0..40 {
            let records: Vec<Value> = (0..rng.random_range(0..700))
                .map(|_| random_value(&mut rng, &root, 0))
                .collect();
            assert_eq!(
                DremelStore::build(&schema, &records),
                oracle_build(&schema, &records),
                "case {case}"
            );
        }
    }
}

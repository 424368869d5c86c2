//! Relational columnar cache layout: flattened rows in typed columns.
//!
//! Nested records are flattened (lists exploded, parent fields duplicated
//! per element — §4 of the paper) and stored column-wise. Per-row masks
//! of list positions let record-level queries skip duplicate rows. The
//! flattening is not reversed: a switch back to the Dremel layout
//! rebuilds the entry from the raw records.
//!
//! Cache entries are built by [`FlatColumnBuilder`] from the raw records
//! in place — CSV fields from their spans, JSON records by flattening
//! their structure tapes (in `recache-data`) — so a Dremel → columnar
//! switch reads no `Value`. [`ColumnStore::build`] flattens parsed
//! records instead; the builder's stores equal its.
//!
//! Scan cost shape: near-zero compute (`C ≈ 0` — the property the paper's
//! Eq. 4 relies on), data-access cost proportional to the flattened row
//! count `R` regardless of how many rows the query semantically needs.

use crate::batch::{ColumnBatch, ScratchColumn, SelectionVector, BATCH_ROWS};
use crate::column::Column;
use crate::shape;
use crate::ScanCost;
use recache_types::{list_dim_ranges, Schema, Value};
use std::time::Instant;

/// An incremental [`ColumnStore`] builder: records are appended one at
/// a time as their flattened rows, written with typed pushes into one
/// column per leaf — no `Value` in between. A record of a flat schema
/// is one row, appended field by field ([`FlatColumnBuilder::push_record`]);
/// a nested record is whatever rows a flattening walk writes, each with
/// its list-position mask ([`FlatColumnBuilder::push_rows`]). The store
/// equals [`ColumnStore::build`] over the same records.
#[derive(Debug)]
pub struct FlatColumnBuilder {
    schema: Schema,
    columns: Vec<ScratchColumn>,
    /// As [`ColumnStore`]'s fields of the same names.
    masks: Vec<u64>,
    record_rows: Vec<u32>,
}

impl FlatColumnBuilder {
    pub fn new(schema: &Schema) -> Self {
        FlatColumnBuilder {
            schema: schema.clone(),
            columns: schema
                .leaves()
                .iter()
                .map(|l| ScratchColumn::new(l.scalar_type))
                .collect(),
            masks: Vec::new(),
            record_rows: vec![0],
        }
    }

    /// Appends one record of a flat schema as one row: `field(i, column)`
    /// appends field `i` to its column, for every field in order. On
    /// error the record is partly written, and the builder must be
    /// dropped.
    pub fn push_record<E>(
        &mut self,
        mut field: impl FnMut(usize, &mut ScratchColumn) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert!(shape::is_flat(&self.schema));
        self.push_rows(|columns, masks| {
            for (i, col) in columns.iter_mut().enumerate() {
                field(i, col)?;
            }
            masks.push(0);
            Ok(())
        })
    }

    /// Appends one record as the rows `rows` writes: one entry per leaf
    /// column (in leaf order) and one mask per row (as
    /// [`recache_types::Flattener::new`] gives it). On error the record
    /// is partly written, and the builder must be dropped.
    pub fn push_rows<E>(
        &mut self,
        rows: impl FnOnce(&mut [ScratchColumn], &mut Vec<u64>) -> Result<(), E>,
    ) -> Result<(), E> {
        rows(&mut self.columns, &mut self.masks)?;
        self.record_rows.push(self.masks.len() as u32);
        Ok(())
    }

    /// Appends the records of another builder over the same schema, as
    /// if they had been pushed here one by one (parallel builds merge
    /// their parts in record order).
    pub fn append(&mut self, other: FlatColumnBuilder) {
        for (col, more) in self.columns.iter_mut().zip(other.columns) {
            col.append(more);
        }
        let base = self.masks.len() as u32;
        self.masks.extend(other.masks);
        self.record_rows
            .extend(other.record_rows[1..].iter().map(|&r| base + r));
    }

    /// Seals the store, dictionary-encoding as [`ColumnStore::build`]
    /// does.
    pub fn finish(self) -> ColumnStore {
        let mut columns: Vec<Column> = self
            .columns
            .into_iter()
            .map(ScratchColumn::into_column)
            .collect();
        for col in &mut columns {
            col.maybe_dict_encode(crate::column::DICT_MAX_RATIO, crate::column::DICT_MIN_ROWS);
        }
        ColumnStore {
            schema: self.schema,
            columns,
            masks: self.masks,
            record_rows: self.record_rows,
            source_ids: None,
        }
    }
}

/// Flattened, column-oriented store of cached records.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStore {
    schema: Schema,
    columns: Vec<Column>,
    /// Per row: bit `d` set ⇔ list dimension `d` is at a non-zero element
    /// index. Mask 0 marks the first (record-level representative) row of
    /// a record; filtering by "unaccessed dims == 0" recovers
    /// projected-flattening semantics on scans.
    masks: Vec<u64>,
    /// First flattened row of each record, plus a final total-rows entry.
    record_rows: Vec<u32>,
    /// Source-file record id of each cached record (`None` ⇒ identity,
    /// e.g. stores built directly from full files or in tests). Scans
    /// emit these ids so downstream offset caches never see store-local
    /// indices.
    source_ids: Option<Vec<u32>>,
}

impl ColumnStore {
    /// Builds the store by flattening `records`. Low-cardinality string
    /// leaves are dictionary-encoded at the default threshold
    /// ([`crate::DICT_MAX_RATIO`]); use [`ColumnStore::build_with_dict`]
    /// to tune or disable that.
    pub fn build<'a>(schema: &Schema, records: impl IntoIterator<Item = &'a Value>) -> Self {
        Self::build_with_dict(schema, records, Some(crate::column::DICT_MAX_RATIO))
    }

    /// [`ColumnStore::build`] with an explicit dictionary-encoding knob:
    /// `dict_max_ratio` is the largest `distinct / rows` ratio a string
    /// leaf may have and still be encoded (`None` disables encoding).
    pub fn build_with_dict<'a>(
        schema: &Schema,
        records: impl IntoIterator<Item = &'a Value>,
        dict_max_ratio: Option<f64>,
    ) -> Self {
        Self::build_flattened(schema, records, dict_max_ratio, shape::is_flat(schema))
    }

    /// The build proper; `flat` selects the one-row-per-record shortcut.
    pub(crate) fn build_flattened<'a>(
        schema: &Schema,
        records: impl IntoIterator<Item = &'a Value>,
        dict_max_ratio: Option<f64>,
        flat: bool,
    ) -> Self {
        let mut columns: Vec<Column> = schema
            .leaves()
            .iter()
            .map(|l| Column::new(l.scalar_type))
            .collect();
        let index = shape::flatten_records(schema, records, flat, |row| {
            for (col, value) in columns.iter_mut().zip(row) {
                col.push(value);
            }
        });
        if let Some(ratio) = dict_max_ratio {
            for col in &mut columns {
                col.maybe_dict_encode(ratio, crate::column::DICT_MIN_ROWS);
            }
        }
        ColumnStore {
            schema: schema.clone(),
            columns,
            masks: index.masks,
            record_rows: index.record_rows,
            source_ids: None,
        }
    }

    /// True when leaf `leaf` ended up dictionary-encoded.
    pub fn leaf_is_dict(&self, leaf: usize) -> bool {
        self.columns[leaf].is_dict()
    }

    /// Records the source-file record id of each cached record (same
    /// order as `build` consumed them). Scans then report these ids
    /// instead of store-local indices.
    pub fn set_source_record_ids(&mut self, ids: Vec<u32>) {
        debug_assert_eq!(ids.len(), self.record_count());
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

    /// Bitmask of list dimensions with no projected leaf: flattened rows
    /// at a non-zero index of such a dimension are duplicates from the
    /// query's point of view and are skipped.
    fn unaccessed_dims(&self, projection: &[usize]) -> u64 {
        let mut mask = 0u64;
        for (d, (lo, hi)) in list_dim_ranges(&self.schema).into_iter().enumerate() {
            if !projection.iter().any(|&leaf| leaf >= lo && leaf < hi) {
                mask |= 1 << d;
            }
        }
        mask
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Flattened row count `R`.
    pub fn row_count(&self) -> usize {
        self.masks.len()
    }

    pub fn record_count(&self) -> usize {
        self.record_rows.len() - 1
    }

    /// Heap footprint: columns + masks + record boundaries.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(Column::byte_size).sum::<usize>()
            + self.masks.len() * 8
            + self.record_rows.len() * 4
    }

    /// Scans the store, emitting the source record id and projected row.
    ///
    /// `record_level` emits one row per record (mask 0); element-level
    /// scans emit one row per combination of the *projected* list
    /// dimensions, skipping duplicates introduced by unprojected lists.
    /// Either way the mask walk visits every row slot, which is why the
    /// paper models the columnar scan cost as `D · R / ri`.
    pub fn scan(
        &self,
        projection: &[usize],
        record_level: bool,
        emit: &mut dyn FnMut(usize, &[Value]),
    ) -> ScanCost {
        let mut cost = ScanCost::default();
        let total = self.row_count();
        let skip_dims = if record_level {
            u64::MAX
        } else {
            self.unaccessed_dims(projection)
        };
        let mut buf: Vec<Value> = vec![Value::Null; projection.len()];
        let mut indices: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
        let mut rec = 0usize;
        let mut start = 0usize;
        while start < total {
            let end = (start + BATCH_ROWS).min(total);
            // Phase C: select row slots (mask navigation).
            let t0 = Instant::now();
            indices.clear();
            for i in start..end {
                if self.masks[i] & skip_dims == 0 {
                    indices.push(i as u32);
                }
            }
            let compute = t0.elapsed();
            // Phase D: gather values.
            let t1 = Instant::now();
            for &i in &indices {
                while self.record_rows[rec + 1] <= i {
                    rec += 1;
                }
                for (slot, &leaf) in buf.iter_mut().zip(projection) {
                    *slot = self.columns[leaf].get(i as usize);
                }
                emit(self.source_id(rec) as usize, &buf);
            }
            let data = t1.elapsed();
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: compute.as_nanos() as u64,
                rows: indices.len(),
                rows_visited: end - start,
            });
            start = end;
        }
        cost
    }

    /// Number of fixed [`BATCH_ROWS`] windows a batched scan emits — the
    /// chunk grid the parallel executor partitions into ranges. The
    /// arguments are unused here (flattened stores chunk by row slot
    /// regardless of projection) but keep the signature uniform across
    /// the three store types.
    pub fn batch_chunks(&self, _projection: &[usize], _record_level: bool) -> usize {
        self.row_count().div_ceil(BATCH_ROWS)
    }

    /// Vectorized scan: yields [`ColumnBatch`]es of borrowed typed column
    /// views over up to [`BATCH_ROWS`] contiguous flattened rows, with the
    /// mask-navigation selection pre-seeded. Zero values are copied — the
    /// batch columns alias the store's own buffers.
    ///
    /// `want_record_ids` materializes per-row source record ids (needed
    /// only when the consumer collects satisfying ids); when `false`,
    /// `ColumnBatch::record_ids` is empty and the mask walk stays a pure
    /// bitmask loop, keeping the paper's `C ≈ 0` columnar property on the
    /// aggregate hot path.
    ///
    /// Cost attribution matches [`ColumnStore::scan`]: the mask walk and
    /// any record-id resolution are compute `C`; view construction is
    /// data access `D` (near zero here — the split becomes almost pure
    /// `D` once the engine adds its gather time).
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

    /// [`ColumnStore::scan_batches`] restricted to batch chunks
    /// `[chunk_lo, chunk_hi)` of the [`ColumnStore::batch_chunks`] grid.
    /// Chunks are share-nothing (each covers its own row window), so
    /// disjoint ranges may be scanned concurrently from different
    /// threads; a full-range call is bit-identical to `scan_batches`.
    pub fn scan_batches_range(
        &self,
        projection: &[usize],
        record_level: bool,
        want_record_ids: bool,
        chunk_lo: usize,
        chunk_hi: usize,
        on_batch: &mut dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector),
    ) -> ScanCost {
        let mut cost = ScanCost::default();
        let total = self.row_count().min(chunk_hi.saturating_mul(BATCH_ROWS));
        let skip_dims = if record_level {
            u64::MAX
        } else {
            self.unaccessed_dims(projection)
        };
        let all_valid: Vec<bool> = projection
            .iter()
            .map(|&leaf| self.columns[leaf].valid.all_set())
            .collect();
        let mut selection = SelectionVector::new();
        // Reserved only when ids are wanted (a cache hit wants none).
        let mut record_ids: Vec<u32> =
            Vec::with_capacity(if want_record_ids { BATCH_ROWS } else { 0 });
        let mut start = chunk_lo.saturating_mul(BATCH_ROWS);
        // Record containing the first row of the range.
        let mut rec = self
            .record_rows
            .partition_point(|&r| (r as usize) <= start)
            .saturating_sub(1);
        while start < total {
            let end = (start + BATCH_ROWS).min(total);
            // Phase C: mask navigation seeds the selection; record-id
            // resolution (when requested) rides the same walk.
            let t0 = Instant::now();
            selection.clear();
            if want_record_ids {
                record_ids.clear();
                for i in start..end {
                    while self.record_rows[rec + 1] as usize <= i {
                        rec += 1;
                    }
                    record_ids.push(self.source_id(rec));
                    if self.masks[i] & skip_dims == 0 {
                        selection.push((i - start) as u32);
                    }
                }
            } else {
                for i in start..end {
                    if self.masks[i] & skip_dims == 0 {
                        selection.push((i - start) as u32);
                    }
                }
            }
            let compute = t0.elapsed();
            // Phase D: construct the borrowed column views.
            let t1 = Instant::now();
            let batch = ColumnBatch {
                len: end - start,
                columns: projection
                    .iter()
                    .zip(&all_valid)
                    .map(|(&leaf, &av)| self.columns[leaf].batch_view(start, end, av))
                    .collect(),
                record_ids: &record_ids,
            };
            let data = t1.elapsed();
            let selected_before = selection.len();
            on_batch(&batch, &mut selection);
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: compute.as_nanos() as u64,
                rows: selected_before,
                rows_visited: end - start,
            });
            start = end;
        }
        cost
    }

    /// Reads one value.
    pub fn value(&self, row: usize, leaf: usize) -> Value {
        self.columns[leaf].get(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("o", DataType::Int),
            Field::required("price", DataType::Float),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![Field::required(
                    "q",
                    DataType::Int,
                )]))),
            ),
        ])
    }

    fn records() -> Vec<Value> {
        vec![
            Value::Struct(vec![
                Value::Int(1),
                Value::Float(10.0),
                Value::List(vec![
                    Value::Struct(vec![Value::Int(100)]),
                    Value::Struct(vec![Value::Int(101)]),
                ]),
            ]),
            Value::Struct(vec![
                Value::Int(2),
                Value::Float(20.0),
                Value::List(vec![Value::Struct(vec![Value::Int(200)])]),
            ]),
        ]
    }

    #[test]
    fn build_flattens_with_duplication() {
        let rs = records();
        let store = ColumnStore::build(&schema(), rs.iter());
        assert_eq!(store.row_count(), 3); // 2 + 1 elements
        assert_eq!(store.record_count(), 2);
        assert_eq!(store.value(0, 0), Value::Int(1));
        assert_eq!(store.value(1, 0), Value::Int(1)); // duplicated parent
        assert_eq!(store.value(1, 2), Value::Int(101));
        assert_eq!(store.value(2, 0), Value::Int(2));
    }

    #[test]
    fn element_level_scan_emits_all_rows() {
        let rs = records();
        let store = ColumnStore::build(&schema(), rs.iter());
        let mut rows = Vec::new();
        let cost = store.scan(&[0, 2], false, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(rows.len(), 3);
        assert_eq!(cost.rows, 3);
        assert_eq!(cost.rows_visited, 3);
        assert_eq!(rows[1], vec![Value::Int(1), Value::Int(101)]);
    }

    #[test]
    fn record_level_scan_skips_duplicates_but_visits_all_slots() {
        let rs = records();
        let store = ColumnStore::build(&schema(), rs.iter());
        let mut rows = Vec::new();
        let cost = store.scan(&[0, 1], true, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Float(10.0)],
                vec![Value::Int(2), Value::Float(20.0)],
            ]
        );
        assert_eq!(cost.rows, 2);
        assert_eq!(cost.rows_visited, 3);
    }

    #[test]
    fn scan_reports_source_record_ids() {
        let rs = records();
        let mut store = ColumnStore::build(&schema(), rs.iter());
        // Without source ids: store-local record indices.
        let mut ids = Vec::new();
        store.scan(&[0, 2], false, &mut |id, _| ids.push(id));
        assert_eq!(ids, vec![0, 0, 1]);
        // With source ids (the record ids materialization cached).
        store.set_source_record_ids(vec![70, 92]);
        let mut ids = Vec::new();
        store.scan(&[0, 2], false, &mut |id, _| ids.push(id));
        assert_eq!(ids, vec![70, 70, 92]);
        let mut ids = Vec::new();
        store.scan(&[0], true, &mut |id, _| ids.push(id));
        assert_eq!(ids, vec![70, 92]);
    }

    #[test]
    fn scan_batches_matches_row_scan() {
        let rs = records();
        let mut store = ColumnStore::build(&schema(), rs.iter());
        store.set_source_record_ids(vec![70, 92]);
        for (projection, record_level) in [
            (vec![0usize, 2], false),
            (vec![0, 1], true),
            (vec![2, 0], false),
        ] {
            let mut expected = Vec::new();
            store.scan(&projection, record_level, &mut |id, row| {
                expected.push((id as u32, row.to_vec()));
            });
            let mut got = Vec::new();
            let cost = store.scan_batches(&projection, record_level, true, &mut |batch, sel| {
                for &i in sel.as_slice() {
                    let i = i as usize;
                    let row: Vec<Value> = batch.columns.iter().map(|c| c.value(i)).collect();
                    got.push((batch.record_ids[i], row));
                }
            });
            assert_eq!(
                got, expected,
                "projection {projection:?} record_level {record_level}"
            );
            assert_eq!(cost.rows, expected.len());
            assert_eq!(cost.rows_visited, store.row_count());
        }
    }

    #[test]
    fn scan_batches_exposes_validity() {
        let schema = schema();
        let record = Value::Struct(vec![Value::Int(5), Value::Null, Value::Null]);
        let store = ColumnStore::build(&schema, std::iter::once(&record));
        store.scan_batches(&[0, 1], true, false, &mut |batch, sel| {
            assert_eq!(batch.len, 1);
            assert_eq!(sel.len(), 1);
            assert!(batch.columns[0].is_valid(0));
            assert!(
                batch.columns[0].validity.is_none(),
                "no-null column skips validity"
            );
            assert!(!batch.columns[1].is_valid(0));
            assert_eq!(batch.columns[1].value(0), Value::Null);
        });
    }

    #[test]
    fn scan_batches_skips_record_ids_unless_requested() {
        let rs = records();
        let store = ColumnStore::build(&schema(), rs.iter());
        store.scan_batches(&[0, 1], true, false, &mut |batch, _| {
            assert!(
                batch.record_ids.is_empty(),
                "record ids must not be materialized when not requested"
            );
        });
        store.scan_batches(&[0, 1], true, true, &mut |batch, _| {
            assert_eq!(batch.record_ids.len(), batch.len);
        });
    }

    #[test]
    fn range_scan_concatenation_matches_full_scan() {
        // Enough records to span several batches (3 rows per record).
        let schema = schema();
        let records: Vec<Value> = (0..5000)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::List(
                        (0..2)
                            .map(|j| Value::Struct(vec![Value::Int(i * 10 + j)]))
                            .collect(),
                    ),
                ])
            })
            .collect();
        let mut store = ColumnStore::build(&schema, records.iter());
        store.set_source_record_ids((0..5000u32).map(|i| i * 2).collect());
        let chunks = store.batch_chunks(&[0, 2], false);
        assert!(chunks > 2, "need a multi-chunk store, got {chunks}");
        for record_level in [false, true] {
            let projection = if record_level { vec![0, 1] } else { vec![0, 2] };
            let mut expected = Vec::new();
            store.scan_batches(&projection, record_level, true, &mut |batch, sel| {
                for &i in sel.as_slice() {
                    let i = i as usize;
                    let row: Vec<Value> = batch.columns.iter().map(|c| c.value(i)).collect();
                    expected.push((batch.record_ids[i], row));
                }
            });
            // Split the chunk grid at several boundaries; concatenation
            // of disjoint ranges must reproduce the full scan exactly.
            let mut got = Vec::new();
            let mut total = ScanCost::default();
            for (lo, hi) in [(0, 1), (1, chunks / 2), (chunks / 2, chunks)] {
                let cost = store.scan_batches_range(
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
                total.add(&cost);
            }
            assert_eq!(got, expected, "record_level {record_level}");
            assert_eq!(total.rows, expected.len());
            assert_eq!(total.rows_visited, store.row_count());
        }
    }

    #[test]
    fn empty_store() {
        let store = ColumnStore::build(&schema(), std::iter::empty());
        assert_eq!(store.row_count(), 0);
        assert_eq!(store.record_count(), 0);
        let mut rows = 0;
        store.scan(&[0], false, &mut |_, _| rows += 1);
        assert_eq!(rows, 0);
        let mut batches = 0;
        store.scan_batches(&[0], false, false, &mut |_, _| batches += 1);
        assert_eq!(batches, 0);
        let mut records = 0;
        store.scan(&[0, 1, 2], true, &mut |_, _| records += 1);
        assert_eq!(records, 0);
    }

    #[test]
    fn byte_size_reflects_duplication() {
        let many_items = Value::Struct(vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::List(
                (0..50)
                    .map(|i| Value::Struct(vec![Value::Int(i)]))
                    .collect(),
            ),
        ]);
        let few_items = Value::Struct(vec![
            Value::Int(1),
            Value::Float(1.0),
            Value::List(vec![Value::Struct(vec![Value::Int(0)])]),
        ]);
        let schema = schema();
        let big = ColumnStore::build(&schema, std::iter::once(&many_items));
        let small = ColumnStore::build(&schema, std::iter::once(&few_items));
        assert!(big.byte_size() > 10 * small.byte_size());
    }

    #[test]
    fn nulls_survive_round_trip() {
        let record = Value::Struct(vec![Value::Int(5), Value::Null, Value::Null]);
        let schema = schema();
        let store = ColumnStore::build(&schema, std::iter::once(&record));
        assert_eq!(store.row_count(), 1);
        assert_eq!(store.value(0, 1), Value::Null);
        let mut rows = Vec::new();
        store.scan(&[0, 1, 2], false, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(rows, recache_types::flatten_record(&schema, &record));
    }
}

//! Relational row-oriented cache layout: packed byte rows.
//!
//! The H2O-style alternative to the columnar layout (§4.3): scans walk
//! every byte of every tuple regardless of how few fields the query
//! touches, which is exactly the access pattern whose cache-miss count
//! the row/column layout chooser estimates.

use crate::batch::{BatchScratch, ColumnBatch, SelectionVector, BATCH_ROWS};
use crate::shape;
use crate::ScanCost;
use recache_types::{Schema, Value};
use std::time::Instant;

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;

/// Flattened rows packed back-to-back in a byte buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct RowStore {
    schema: Schema,
    buf: Vec<u8>,
    /// Byte offset of each row, plus a final total-length entry.
    row_offsets: Vec<u32>,
    /// Per-row list-dimension masks (see [`ColumnStore`]'s field docs).
    masks: Vec<u64>,
    /// First flattened row of each record, plus a final total entry.
    record_rows: Vec<u32>,
    /// Per-record shapes (see [`crate::shape`]), for layout conversion.
    shape_lens: Vec<u32>,
    shape_offsets: Vec<u32>,
    n_leaves: usize,
    /// Source-file record ids (`None` ⇒ identity); see
    /// [`crate::ColumnStore::set_source_record_ids`].
    source_ids: Option<Vec<u32>>,
}

impl RowStore {
    /// Builds the store by flattening and packing `records`.
    pub fn build<'a>(schema: &Schema, records: impl IntoIterator<Item = &'a Value>) -> Self {
        Self::build_flattened(schema, records, shape::is_flat(schema))
    }

    /// The build proper; `flat` selects the one-row-per-record shortcut.
    pub(crate) fn build_flattened<'a>(
        schema: &Schema,
        records: impl IntoIterator<Item = &'a Value>,
        flat: bool,
    ) -> Self {
        let mut buf = Vec::new();
        let mut row_offsets = vec![0u32];
        let index = shape::flatten_records(schema, records, flat, |row| {
            for value in row {
                encode_value(&mut buf, value);
            }
            row_offsets.push(buf.len() as u32);
        });
        RowStore {
            schema: schema.clone(),
            buf,
            row_offsets,
            masks: index.masks,
            record_rows: index.record_rows,
            shape_lens: index.shape_lens,
            shape_offsets: index.shape_offsets,
            n_leaves: schema.leaves().len(),
            source_ids: None,
        }
    }

    /// Records the source-file record id of each cached record.
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

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn row_count(&self) -> usize {
        self.row_offsets.len() - 1
    }

    pub fn record_count(&self) -> usize {
        self.record_rows.len() - 1
    }

    pub fn byte_size(&self) -> usize {
        self.buf.len()
            + self.row_offsets.len() * 4
            + self.masks.len() * 8
            + self.record_rows.len() * 4
            + self.shape_lens.len() * 4
            + self.shape_offsets.len() * 4
    }

    /// Bitmask of list dimensions with no projected leaf (shared skip
    /// rule — see [`crate::batch::unaccessed_list_dims`]).
    fn unaccessed_dims(&self, projection: &[usize]) -> u64 {
        crate::batch::unaccessed_list_dims(&self.schema, projection)
    }

    /// Scans the store, emitting the source record id and projected row.
    /// Row layouts must walk through every field of every visited tuple —
    /// the projection only saves the value *materialization*, not the
    /// navigation.
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
        let mut out: Vec<Value> = vec![Value::Null; projection.len()];
        // slot_of[leaf] = position in the projection, or usize::MAX.
        let mut slot_of = vec![usize::MAX; self.n_leaves];
        for (j, &leaf) in projection.iter().enumerate() {
            slot_of[leaf] = j;
        }
        let mut rec = 0usize;
        let mut start = 0usize;
        let mut selected: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
        while start < total {
            let end = (start + BATCH_ROWS).min(total);
            // Phase C: select rows (mask walk).
            let t0 = Instant::now();
            selected.clear();
            for i in start..end {
                if self.masks[i] & skip_dims == 0 {
                    selected.push(i as u32);
                }
            }
            let compute = t0.elapsed();
            // Phase D: walk each tuple's bytes, decoding projected fields.
            let t1 = Instant::now();
            for &i in &selected {
                while self.record_rows[rec + 1] <= i {
                    rec += 1;
                }
                let lo = self.row_offsets[i as usize] as usize;
                let hi = self.row_offsets[i as usize + 1] as usize;
                let mut slice = &self.buf[lo..hi];
                for &slot in &slot_of {
                    if slot != usize::MAX {
                        out[slot] = decode_value(&mut slice);
                    } else {
                        skip_value(&mut slice);
                    }
                }
                emit(self.source_id(rec) as usize, &out);
            }
            let data = t1.elapsed();
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: compute.as_nanos() as u64,
                rows: selected.len(),
                rows_visited: end - start,
            });
            start = end;
        }
        cost
    }

    /// Number of fixed [`BATCH_ROWS`] windows a batched scan emits (see
    /// [`crate::ColumnStore::batch_chunks`]).
    pub fn batch_chunks(&self, _projection: &[usize], _record_level: bool) -> usize {
        self.row_count().div_ceil(BATCH_ROWS)
    }

    /// Vectorized scan. Row layouts cannot expose borrowed column views —
    /// tuples are packed — so each batch *gathers* the mask-surviving rows
    /// into reusable typed scratch columns (full-tuple byte walk, data
    /// cost `D`, exactly the access pattern the H2O row/column chooser
    /// models) and yields them with an identity selection.
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

    /// [`RowStore::scan_batches`] restricted to batch chunks
    /// `[chunk_lo, chunk_hi)`; chunks are share-nothing, so disjoint
    /// ranges may run concurrently (see
    /// [`crate::ColumnStore::scan_batches_range`]).
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
        let leaves = self.schema.leaves();
        let mut scratch =
            BatchScratch::for_projection(projection.iter().map(|&l| leaves[l].scalar_type));
        let mut slot_of = vec![usize::MAX; self.n_leaves];
        for (j, &leaf) in projection.iter().enumerate() {
            slot_of[leaf] = j;
        }
        let mut selection = SelectionVector::new();
        let mut selected: Vec<u32> = Vec::with_capacity(BATCH_ROWS);
        let mut start = chunk_lo.saturating_mul(BATCH_ROWS);
        let mut rec = self
            .record_rows
            .partition_point(|&r| (r as usize) <= start)
            .saturating_sub(1);
        while start < total {
            let end = (start + BATCH_ROWS).min(total);
            // Phase C: mask walk.
            let t0 = Instant::now();
            selected.clear();
            for i in start..end {
                if self.masks[i] & skip_dims == 0 {
                    selected.push(i as u32);
                }
            }
            let compute = t0.elapsed();
            // Phase D: decode surviving tuples into the scratch columns.
            let t1 = Instant::now();
            scratch.clear();
            for &i in &selected {
                if want_record_ids {
                    while self.record_rows[rec + 1] <= i {
                        rec += 1;
                    }
                    scratch.record_ids.push(self.source_id(rec));
                }
                let lo = self.row_offsets[i as usize] as usize;
                let hi = self.row_offsets[i as usize + 1] as usize;
                let mut slice = &self.buf[lo..hi];
                for &slot in &slot_of {
                    if slot != usize::MAX {
                        decode_value_into(&mut slice, &mut scratch.cols[slot]);
                    } else {
                        skip_value(&mut slice);
                    }
                }
            }
            let data = t1.elapsed();
            selection.fill_identity(selected.len());
            let batch = ColumnBatch {
                len: selected.len(),
                columns: scratch.columns(),
                record_ids: &scratch.record_ids,
            };
            on_batch(&batch, &mut selection);
            cost.add(&ScanCost {
                data_ns: data.as_nanos() as u64,
                compute_ns: compute.as_nanos() as u64,
                rows: selected.len(),
                rows_visited: end - start,
            });
            start = end;
        }
        cost
    }

    /// Rebuilds the original nested records via the stored shapes.
    pub fn to_records(&self) -> Vec<Value> {
        let mut out = Vec::with_capacity(self.record_count());
        for rec in 0..self.record_count() {
            let lo = self.record_rows[rec] as usize;
            let hi = self.record_rows[rec + 1] as usize;
            let rows: Vec<Vec<Value>> = (lo..hi).map(|i| self.decode_row(i)).collect();
            let shape_lo = self.shape_offsets[rec] as usize;
            let shape_hi = self.shape_offsets[rec + 1] as usize;
            let mut cursor = shape::ShapeCursor::new(&self.shape_lens[shape_lo..shape_hi]);
            out.push(shape::rebuild(self.schema.fields(), &rows, &mut cursor));
        }
        out
    }

    /// Decodes one full-width row.
    pub fn decode_row(&self, row: usize) -> Vec<Value> {
        let lo = self.row_offsets[row] as usize;
        let hi = self.row_offsets[row + 1] as usize;
        let mut slice = &self.buf[lo..hi];
        (0..self.n_leaves)
            .map(|_| decode_value(&mut slice))
            .collect()
    }
}

fn encode_value(buf: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::Int(v) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Value::Float(v) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&v.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::List(_) | Value::Struct(_) => {
            unreachable!("flattened rows contain only scalars")
        }
    }
}

#[inline]
fn take_u8(slice: &mut &[u8]) -> u8 {
    let b = slice[0];
    *slice = &slice[1..];
    b
}

#[inline]
fn take_array<const N: usize>(slice: &mut &[u8]) -> [u8; N] {
    let out: [u8; N] = slice[..N].try_into().expect("row buffer underrun");
    *slice = &slice[N..];
    out
}

fn decode_value(slice: &mut &[u8]) -> Value {
    match take_u8(slice) {
        TAG_NULL => Value::Null,
        TAG_FALSE => Value::Bool(false),
        TAG_TRUE => Value::Bool(true),
        TAG_INT => Value::Int(i64::from_le_bytes(take_array(slice))),
        TAG_FLOAT => Value::Float(f64::from_le_bytes(take_array(slice))),
        TAG_STR => {
            let len = u32::from_le_bytes(take_array(slice)) as usize;
            let s = String::from_utf8_lossy(&slice[..len]).into_owned();
            *slice = &slice[len..];
            Value::Str(s)
        }
        other => unreachable!("corrupt row tag {other}"),
    }
}

/// Decodes one packed field straight into a scratch column. Strings copy
/// from the row buffer into the column's byte arena without the owned
/// `String` round-trip [`decode_value`] pays — one allocation+copy saved
/// per string value on the vectorized row-store scan.
fn decode_value_into(slice: &mut &[u8], col: &mut crate::batch::ScratchColumn) {
    match take_u8(slice) {
        TAG_NULL => col.push(&Value::Null),
        TAG_FALSE => col.push(&Value::Bool(false)),
        TAG_TRUE => col.push(&Value::Bool(true)),
        TAG_INT => col.push(&Value::Int(i64::from_le_bytes(take_array(slice)))),
        TAG_FLOAT => col.push(&Value::Float(f64::from_le_bytes(take_array(slice)))),
        TAG_STR => {
            let len = u32::from_le_bytes(take_array(slice)) as usize;
            col.push_str_bytes(&slice[..len]);
            *slice = &slice[len..];
        }
        other => unreachable!("corrupt row tag {other}"),
    }
}

fn skip_value(slice: &mut &[u8]) {
    match take_u8(slice) {
        TAG_NULL | TAG_FALSE | TAG_TRUE => {}
        TAG_INT | TAG_FLOAT => *slice = &slice[8..],
        TAG_STR => {
            let len = u32::from_le_bytes(take_array(slice)) as usize;
            *slice = &slice[len..];
        }
        other => unreachable!("corrupt row tag {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("s", DataType::Str),
            Field::new("tags", DataType::List(Box::new(DataType::Float))),
        ])
    }

    fn records() -> Vec<Value> {
        vec![
            Value::Struct(vec![
                Value::Int(1),
                Value::Str("one".into()),
                Value::List(vec![Value::Float(0.5), Value::Float(1.5)]),
            ]),
            Value::Struct(vec![Value::Int(2), Value::Str("two".into()), Value::Null]),
        ]
    }

    #[test]
    fn build_and_decode_rows() {
        let rs = records();
        let store = RowStore::build(&schema(), rs.iter());
        assert_eq!(store.row_count(), 3);
        assert_eq!(store.record_count(), 2);
        assert_eq!(
            store.decode_row(0),
            vec![Value::Int(1), Value::Str("one".into()), Value::Float(0.5)]
        );
        assert_eq!(
            store.decode_row(2),
            vec![Value::Int(2), Value::Str("two".into()), Value::Null]
        );
    }

    #[test]
    fn scan_projects_in_order() {
        let rs = records();
        let store = RowStore::build(&schema(), rs.iter());
        let mut rows = Vec::new();
        store.scan(&[2, 0], false, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(rows[0], vec![Value::Float(0.5), Value::Int(1)]);
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn record_level_scan() {
        let rs = records();
        let store = RowStore::build(&schema(), rs.iter());
        let mut rows = Vec::new();
        let cost = store.scan(&[0], true, &mut |_, row| rows.push(row.to_vec()));
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert_eq!(cost.rows_visited, 3);
    }

    #[test]
    fn scan_agrees_with_columnar() {
        use crate::columnar::ColumnStore;
        let rs = records();
        let row_store = RowStore::build(&schema(), rs.iter());
        let col_store = ColumnStore::build(&schema(), rs.iter());
        let mut a = Vec::new();
        row_store.scan(&[0, 1, 2], false, &mut |id, r| a.push((id, r.to_vec())));
        let mut b = Vec::new();
        col_store.scan(&[0, 1, 2], false, &mut |id, r| b.push((id, r.to_vec())));
        assert_eq!(a, b);
    }

    #[test]
    fn scan_batches_matches_row_scan() {
        let rs = records();
        let mut store = RowStore::build(&schema(), rs.iter());
        store.set_source_record_ids(vec![11, 29]);
        for (projection, record_level) in [
            (vec![0usize, 1, 2], false),
            (vec![2, 0], false),
            (vec![1], true),
        ] {
            let mut expected = Vec::new();
            store.scan(&projection, record_level, &mut |id, row| {
                expected.push((id as u32, row.to_vec()));
            });
            let mut got = Vec::new();
            store.scan_batches(&projection, record_level, true, &mut |batch, sel| {
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
        }
    }

    #[test]
    fn scan_batches_tracks_nulls() {
        let rs = records();
        let store = RowStore::build(&schema(), rs.iter());
        // Leaf 2 (tags) is null for the second record.
        store.scan_batches(&[2], false, false, &mut |batch, sel| {
            assert_eq!(sel.len(), 3);
            assert!(batch.columns[0].is_valid(0));
            assert!(!batch.columns[0].is_valid(2));
        });
    }

    #[test]
    fn range_scan_concatenation_matches_full_scan() {
        let schema = schema();
        let records: Vec<Value> = (0..9000)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::Str(format!("s{i}")),
                    Value::List(vec![Value::Float(i as f64 * 0.5)]),
                ])
            })
            .collect();
        let mut store = RowStore::build(&schema, records.iter());
        store.set_source_record_ids((0..9000u32).collect());
        let chunks = store.batch_chunks(&[0, 1, 2], false);
        assert!(chunks > 1, "need a multi-chunk store, got {chunks}");
        let mut expected = Vec::new();
        store.scan_batches(&[2, 1], false, true, &mut |batch, sel| {
            for &i in sel.as_slice() {
                let i = i as usize;
                let row: Vec<Value> = batch.columns.iter().map(|c| c.value(i)).collect();
                expected.push((batch.record_ids[i], row));
            }
        });
        let mut got = Vec::new();
        for (lo, hi) in [(0, chunks / 2), (chunks / 2, chunks)] {
            store.scan_batches_range(&[2, 1], false, true, lo, hi, &mut |batch, sel| {
                for &i in sel.as_slice() {
                    let i = i as usize;
                    let row: Vec<Value> = batch.columns.iter().map(|c| c.value(i)).collect();
                    got.push((batch.record_ids[i], row));
                }
            });
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn to_records_round_trips() {
        let rs = records();
        let store = RowStore::build(&schema(), rs.iter());
        let rebuilt = store.to_records();
        for (a, b) in rs.iter().zip(&rebuilt) {
            assert_eq!(
                recache_types::flatten_record(&schema(), a),
                recache_types::flatten_record(&schema(), b)
            );
        }
    }

    #[test]
    fn empty_store() {
        let store = RowStore::build(&schema(), std::iter::empty());
        assert_eq!(store.row_count(), 0);
        let mut n = 0;
        store.scan(&[0], false, &mut |_, _| n += 1);
        assert_eq!(n, 0);
    }
}

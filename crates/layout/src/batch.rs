//! Typed column batches: the unit of vectorized execution.
//!
//! Row-at-a-time scans hand the engine one `&[Value]` per row, paying an
//! enum-dispatch and (for strings) an allocation per value. A
//! [`ColumnBatch`] instead exposes up to [`BATCH_ROWS`] rows as *typed
//! column views* — `&[i64]`, `&[f64]`, `&[bool]`, or string-arena
//! (offsets + bytes) slices — plus a validity bitmap per column and the
//! source record id of every row. Predicate kernels and aggregate kernels
//! then run over primitive slices guided by a [`SelectionVector`], and
//! `Value`s are only materialized at the very edge (query output, join
//! rows).
//!
//! Cost-model attribution (the D/C split of [`crate::ScanCost`]):
//! building the selection (mask navigation, Dremel record assembly) and
//! evaluating predicates is compute `C`; gathering values — whether into
//! scratch columns inside a store or into aggregates in the engine — is
//! data access `D`. See `recache_engine::exec` for how this relates to
//! the row path's attribution.

use crate::bitmap::Bitmap;
use crate::column::{Column, ColumnData};
use crate::dremel::ShredInput;
use recache_types::{ScalarType, Value};

/// Rows per batch. A multiple of 64 so batch-aligned validity views start
/// on a bitmap word boundary; 4096 matches the pre-existing timed-scan
/// granularity, so per-batch `ScanCost` sampling is unchanged.
pub const BATCH_ROWS: usize = 4096;

/// A typed view over one column's values for the rows of a batch.
#[derive(Debug, Clone, Copy)]
pub enum BatchValues<'a> {
    Bool(&'a [bool]),
    Int(&'a [i64]),
    Float(&'a [f64]),
    /// Strings in arena form: `offsets` has `len + 1` entries indexing
    /// into `bytes`; row `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    /// (`bytes` may be the store's whole heap — offsets are absolute.)
    Str {
        offsets: &'a [u32],
        bytes: &'a [u8],
    },
    /// Dictionary-encoded strings: per-row codes into a sorted pool (see
    /// [`crate::ColumnData::Dict`]). `codes` covers this batch's rows;
    /// the pool views span the whole dictionary, since codes index it
    /// absolutely. Predicate kernels resolve a literal to a code range
    /// once per clause and compare `u32`s per row.
    Dict {
        codes: &'a [u32],
        pool_offsets: &'a [u32],
        pool_bytes: &'a [u8],
    },
}

impl BatchValues<'_> {
    pub fn len(&self) -> usize {
        match self {
            BatchValues::Bool(v) => v.len(),
            BatchValues::Int(v) => v.len(),
            BatchValues::Float(v) => v.len(),
            BatchValues::Str { offsets, .. } => offsets.len().saturating_sub(1),
            BatchValues::Dict { codes, .. } => codes.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn scalar_type(&self) -> ScalarType {
        match self {
            BatchValues::Bool(_) => ScalarType::Bool,
            BatchValues::Int(_) => ScalarType::Int,
            BatchValues::Float(_) => ScalarType::Float,
            BatchValues::Str { .. } | BatchValues::Dict { .. } => ScalarType::Str,
        }
    }

    /// String at row `i` (only meaningful for the `Str`/`Dict` variants).
    #[inline]
    pub fn str_at(&self, i: usize) -> &str {
        match self {
            BatchValues::Str { offsets, bytes } => {
                let lo = offsets[i] as usize;
                let hi = offsets[i + 1] as usize;
                // Stores only append valid UTF-8; fall back to "" rather
                // than panic if a corrupt heap slips through.
                std::str::from_utf8(&bytes[lo..hi]).unwrap_or("")
            }
            BatchValues::Dict {
                codes,
                pool_offsets,
                pool_bytes,
            } => {
                let code = codes[i] as usize;
                let lo = pool_offsets[code] as usize;
                let hi = pool_offsets[code + 1] as usize;
                std::str::from_utf8(&pool_bytes[lo..hi]).unwrap_or("")
            }
            _ => "",
        }
    }

    /// Materializes row `i` as a `Value` (validity handled by the caller).
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        match self {
            BatchValues::Bool(v) => Value::Bool(v[i]),
            BatchValues::Int(v) => Value::Int(v[i]),
            BatchValues::Float(v) => Value::Float(v[i]),
            BatchValues::Str { .. } | BatchValues::Dict { .. } => {
                Value::Str(self.str_at(i).to_owned())
            }
        }
    }
}

/// One projected column of a batch: typed values plus validity.
#[derive(Debug, Clone, Copy)]
pub struct BatchColumn<'a> {
    pub values: BatchValues<'a>,
    /// Validity words: bit `i % 64` of word `i / 64` set ⇔ row `i` is
    /// non-null. `None` means every row is valid (the common no-null
    /// fast path). Bits past the batch length are unspecified.
    pub validity: Option<&'a [u64]>,
}

impl<'a> BatchColumn<'a> {
    /// A fully valid column.
    pub fn valid(values: BatchValues<'a>) -> Self {
        BatchColumn {
            values,
            validity: None,
        }
    }

    #[inline]
    pub fn is_valid(&self, row: usize) -> bool {
        match self.validity {
            None => true,
            Some(words) => (words[row / 64] >> (row % 64)) & 1 == 1,
        }
    }

    /// Materializes row `i`, `Null` for invalid slots — the typed batch
    /// equivalent of [`crate::Column::get`].
    #[inline]
    pub fn value(&self, i: usize) -> Value {
        if self.is_valid(i) {
            self.values.value(i)
        } else {
            Value::Null
        }
    }
}

/// A batch of rows in typed columnar form.
///
/// `columns` holds one [`BatchColumn`] per projection slot, in projection
/// order; every column view has at least `len` addressable rows.
/// `record_ids[i]` is the *source-file* record id of row `i` (see
/// [`crate::ColumnStore::set_source_record_ids`]), which is what the
/// lazy/offsets cache admission path stores.
#[derive(Debug)]
pub struct ColumnBatch<'a> {
    pub len: usize,
    pub columns: Vec<BatchColumn<'a>>,
    pub record_ids: &'a [u32],
}

/// Indices of the batch rows that survive selection, in ascending order.
///
/// Stores seed it (mask navigation drops flattening duplicates), predicate
/// kernels compact it clause by clause — each clause only re-examines the
/// survivors of the previous one, which is the vectorized equivalent of
/// conjunction short-circuiting.
#[derive(Debug, Clone, Default)]
pub struct SelectionVector {
    idx: Vec<u32>,
}

impl SelectionVector {
    pub fn new() -> Self {
        SelectionVector {
            idx: Vec::with_capacity(BATCH_ROWS),
        }
    }

    pub fn len(&self) -> usize {
        self.idx.len()
    }

    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    pub fn clear(&mut self) {
        self.idx.clear();
    }

    #[inline]
    pub fn push(&mut self, row: u32) {
        self.idx.push(row);
    }

    /// Selects rows `0..n`.
    pub fn fill_identity(&mut self, n: usize) {
        self.idx.clear();
        self.idx.extend(0..n as u32);
    }

    pub fn as_slice(&self) -> &[u32] {
        &self.idx
    }

    /// Keeps only the selected rows for which `keep` holds (stable,
    /// in-place) — the primitive predicate kernels are built on. The
    /// compaction is branch-free: every row is written to the next output
    /// slot and the slot advances by `keep(row) as usize`, so a
    /// data-dependent outcome never costs a mispredicted branch.
    #[inline]
    pub fn retain(&mut self, mut keep: impl FnMut(u32) -> bool) {
        let idx = self.idx.as_mut_slice();
        let mut n = 0;
        for i in 0..idx.len() {
            let row = idx[i];
            idx[n] = row;
            n += usize::from(keep(row));
        }
        self.idx.truncate(n);
    }
}

impl<'a> IntoIterator for &'a SelectionVector {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;
    fn into_iter(self) -> Self::IntoIter {
        self.idx.iter()
    }
}

/// Borrowed batch view over entries `[start, end)` of a typed column with
/// a validity bitmap. `start` must be a multiple of 64 so the validity
/// view begins on a word boundary (batch row `r` is then bit `r` of the
/// word slice); pass `all_valid = true` (precomputed once per scan) to
/// skip validity tracking for null-free columns.
pub(crate) fn borrowed_batch_column<'a>(
    data: &'a ColumnData,
    valid: &'a Bitmap,
    start: usize,
    end: usize,
    all_valid: bool,
) -> BatchColumn<'a> {
    debug_assert_eq!(start % 64, 0, "batch start must be word-aligned");
    let validity = if all_valid {
        None
    } else {
        Some(&valid.words()[start / 64..end.div_ceil(64)])
    };
    BatchColumn {
        values: data.slice(start, end),
        validity,
    }
}

/// Reusable per-scan buffers for producers that must *gather* batch
/// columns (row-store tuple decoding, Dremel assembled gathers, raw CSV
/// tokenizing in `recache-data`) instead of borrowing them. One scratch
/// column per projection slot plus the record-id buffer.
#[derive(Debug, Default)]
pub struct BatchScratch {
    pub cols: Vec<ScratchColumn>,
    pub record_ids: Vec<u32>,
}

impl BatchScratch {
    pub fn for_projection(types: impl Iterator<Item = ScalarType>) -> Self {
        BatchScratch {
            cols: types.map(ScratchColumn::new).collect(),
            record_ids: Vec::with_capacity(BATCH_ROWS),
        }
    }

    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.record_ids.clear();
    }

    /// Views the scratch as batch columns.
    pub fn columns(&self) -> Vec<BatchColumn<'_>> {
        self.cols
            .iter()
            .map(ScratchColumn::as_batch_column)
            .collect()
    }
}

/// An owned, reusable typed column buffer: a plain [`Column`] (the same
/// typed-data/validity-bitmap machinery the stores use, so value coercion
/// and bit layout live in one place) plus an any-null flag so fully
/// valid batches skip validity views entirely.
#[derive(Debug)]
pub struct ScratchColumn {
    col: Column,
    any_null: bool,
}

impl ScratchColumn {
    pub fn new(ty: ScalarType) -> Self {
        ScratchColumn {
            col: Column::new(ty),
            any_null: false,
        }
    }

    pub fn clear(&mut self) {
        self.col.clear();
        self.any_null = false;
    }

    pub fn scalar_type(&self) -> ScalarType {
        self.col.data.scalar_type()
    }

    pub(crate) fn into_column(self) -> Column {
        self.col
    }

    /// Appends every entry of another scratch column of the same type.
    pub(crate) fn append(&mut self, other: ScratchColumn) {
        self.any_null |= other.any_null;
        self.col.append(other.col);
    }

    /// Appends a value; `Null` (or a type mismatch) appends the zero value
    /// and clears the validity bit.
    #[inline]
    pub fn push(&mut self, value: &Value) {
        self.any_null |= value.is_null();
        self.col.push(value);
    }

    /// Appends a null: zero value slot, validity bit cleared. Typed twin
    /// of `push(&Value::Null)` without the enum dispatch.
    #[inline]
    pub fn push_null(&mut self) {
        self.any_null = true;
        self.col.valid.push(false);
        self.col.data.push(&Value::Null);
    }

    /// Appends a valid integer (the batched CSV tokenizer's hot path —
    /// no `Value` boxing).
    #[inline]
    pub fn push_int(&mut self, v: i64) {
        self.col.valid.push(true);
        self.col.data.push_int(v);
    }

    /// Appends a valid float.
    #[inline]
    pub fn push_float(&mut self, v: f64) {
        self.col.valid.push(true);
        self.col.data.push_float(v);
    }

    /// Appends a valid bool.
    #[inline]
    pub fn push_bool(&mut self, v: bool) {
        self.col.valid.push(true);
        self.col.data.push_bool(v);
    }

    /// Copies entry `index` of a store column (typed, no `Value` boxing).
    #[inline]
    pub fn push_from(&mut self, data: &ColumnData, valid: &Bitmap, index: usize) {
        self.any_null |= !valid.get(index);
        self.col.push_entry_from(data, valid, index);
    }

    /// Appends a valid string straight from its encoded bytes into the
    /// scratch arena — no intermediate `String` (see
    /// [`ColumnData::push_str_bytes`]).
    #[inline]
    pub fn push_str_bytes(&mut self, s: &[u8]) {
        self.col.valid.push(true);
        self.col.data.push_str_bytes(s);
    }

    /// Reads `input` as a leaf of this column's type (see
    /// [`ShredInput::push_into`]) and appends it if it holds a value;
    /// returns whether it did. A null appends nothing.
    #[inline]
    pub fn push_read<'a, I: ShredInput<'a>>(&mut self, input: I) -> Result<bool, I::Error> {
        let held = input.push_into(self.scalar_type(), &mut self.col.data)?;
        if held {
            self.col.valid.push(true);
        }
        Ok(held)
    }

    /// Copies entry `index` of another scratch column of the same type.
    #[inline]
    pub fn push_entry(&mut self, src: &ScratchColumn, index: usize) {
        self.push_from(&src.col.data, &src.col.valid, index);
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.col.len()
    }

    pub fn is_empty(&self) -> bool {
        self.col.len() == 0
    }

    pub fn as_batch_column(&self) -> BatchColumn<'_> {
        let values = self.col.data.slice(0, self.col.len());
        BatchColumn {
            values,
            validity: if self.any_null {
                Some(self.col.valid.words())
            } else {
                None
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_vector_retain_is_stable() {
        let mut sel = SelectionVector::new();
        sel.fill_identity(10);
        sel.retain(|row| row % 3 != 0);
        assert_eq!(sel.as_slice(), &[1, 2, 4, 5, 7, 8]);
        sel.retain(|row| row > 4);
        assert_eq!(sel.as_slice(), &[5, 7, 8]);
        assert_eq!(sel.len(), 3);
        sel.clear();
        assert!(sel.is_empty());
    }

    #[test]
    fn scratch_column_round_trips_values() {
        let mut col = ScratchColumn::new(ScalarType::Str);
        col.push(&Value::from("alpha"));
        col.push(&Value::Null);
        col.push(&Value::from(""));
        col.push(&Value::from("beta"));
        let view = col.as_batch_column();
        assert_eq!(view.values.len(), 4);
        assert_eq!(view.value(0), Value::from("alpha"));
        assert_eq!(view.value(1), Value::Null);
        assert_eq!(view.value(2), Value::from(""));
        assert_eq!(view.values.str_at(3), "beta");
        assert!(!view.is_valid(1));
        assert!(view.is_valid(3));
    }

    #[test]
    fn scratch_without_nulls_reports_all_valid() {
        let mut col = ScratchColumn::new(ScalarType::Int);
        for i in 0..100 {
            col.push(&Value::Int(i));
        }
        let view = col.as_batch_column();
        assert!(view.validity.is_none());
        assert_eq!(view.value(99), Value::Int(99));
    }

    #[test]
    fn scratch_push_from_copies_typed_entries() {
        use crate::column::Column;
        let mut store_col = Column::new(ScalarType::Float);
        store_col.push(&Value::Float(1.5));
        store_col.push(&Value::Null);
        store_col.push(&Value::Float(-2.5));
        let mut scratch = ScratchColumn::new(ScalarType::Float);
        for i in 0..3 {
            scratch.push_from(&store_col.data, &store_col.valid, i);
        }
        let view = scratch.as_batch_column();
        assert_eq!(view.value(0), Value::Float(1.5));
        assert_eq!(view.value(1), Value::Null);
        assert_eq!(view.value(2), Value::Float(-2.5));
    }

    #[test]
    fn batch_values_views() {
        let ints = [1i64, 2, 3];
        let v = BatchValues::Int(&ints);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.scalar_type(), ScalarType::Int);
        assert_eq!(v.value(2), Value::Int(3));
        let offsets = [0u32, 2, 2, 5];
        let bytes = b"hiabc";
        let s = BatchValues::Str {
            offsets: &offsets,
            bytes,
        };
        assert_eq!(s.len(), 3);
        assert_eq!(s.str_at(0), "hi");
        assert_eq!(s.str_at(1), "");
        assert_eq!(s.value(2), Value::from("abc"));
    }

    #[test]
    fn batch_rows_sized_for_word_alignment() {
        assert_eq!(BATCH_ROWS % 64, 0);
    }

    #[test]
    fn typed_pushes_match_value_pushes() {
        let mut a = ScratchColumn::new(ScalarType::Int);
        a.push_int(7);
        a.push_null();
        a.push_int(-3);
        let view = a.as_batch_column();
        assert_eq!(view.value(0), Value::Int(7));
        assert_eq!(view.value(1), Value::Null);
        assert_eq!(view.value(2), Value::Int(-3));

        let mut f = ScratchColumn::new(ScalarType::Float);
        f.push_float(1.5);
        assert_eq!(f.as_batch_column().value(0), Value::Float(1.5));
        let mut b = ScratchColumn::new(ScalarType::Bool);
        b.push_bool(true);
        b.push_null();
        let view = b.as_batch_column();
        assert_eq!(view.value(0), Value::Bool(true));
        assert_eq!(view.value(1), Value::Null);
    }

    #[test]
    fn dict_batch_views_decode_through_the_pool() {
        // Pool: ["aa", "b", "cc"]; codes pick rows out of it.
        let pool_offsets = [0u32, 2, 3, 5];
        let pool_bytes = b"aabcc";
        let codes = [2u32, 0, 1, 0];
        let v = BatchValues::Dict {
            codes: &codes,
            pool_offsets: &pool_offsets,
            pool_bytes,
        };
        assert_eq!(v.len(), 4);
        assert_eq!(v.scalar_type(), ScalarType::Str);
        assert_eq!(v.str_at(0), "cc");
        assert_eq!(v.str_at(1), "aa");
        assert_eq!(v.value(2), Value::from("b"));
        assert_eq!(v.value(3), Value::from("aa"));
    }
}

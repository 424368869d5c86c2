//! Typed columns with null masks: the storage unit shared by the
//! relational columnar and Dremel stores.

use crate::batch::{BatchColumn, BatchValues};
use crate::bitmap::Bitmap;
use recache_types::{ScalarType, Value};
use std::collections::HashMap;

/// Default dictionary-encoding threshold: a string column is encoded when
/// `distinct / rows` is at most this ratio (the knob stores pass to
/// [`ColumnData::dict_encode`]).
pub const DICT_MAX_RATIO: f64 = 0.125;

/// Rows below which dictionary encoding is never attempted — tiny columns
/// gain nothing and the pool bookkeeping would dominate.
pub const DICT_MIN_ROWS: usize = 64;

/// Typed value storage.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float(Vec<f64>),
    /// Strings as a shared byte heap with offsets (offsets has `len + 1`
    /// entries).
    Str {
        offsets: Vec<u32>,
        bytes: Vec<u8>,
    },
    /// Dictionary-encoded strings: one `u32` code per row into a pool of
    /// distinct values kept **sorted**, so code order equals string order
    /// and both equality and ordered predicates reduce to integer
    /// compares on the codes (see `recache_engine`'s kernels). Built by
    /// [`ColumnData::dict_encode`] after a store finishes building; a
    /// sealed dictionary column is never pushed into again.
    Dict {
        codes: Vec<u32>,
        /// Pool arena: entry `i` is
        /// `pool_bytes[pool_offsets[i]..pool_offsets[i + 1]]`
        /// (`pool_offsets` has `pool_len + 1` entries).
        pool_offsets: Vec<u32>,
        pool_bytes: Vec<u8>,
    },
}

impl ColumnData {
    pub fn new(ty: ScalarType) -> Self {
        match ty {
            ScalarType::Bool => ColumnData::Bool(Vec::new()),
            ScalarType::Int => ColumnData::Int(Vec::new()),
            ScalarType::Float => ColumnData::Float(Vec::new()),
            ScalarType::Str => ColumnData::Str {
                offsets: vec![0],
                bytes: Vec::new(),
            },
        }
    }

    pub fn scalar_type(&self) -> ScalarType {
        match self {
            ColumnData::Bool(_) => ScalarType::Bool,
            ColumnData::Int(_) => ScalarType::Int,
            ColumnData::Float(_) => ScalarType::Float,
            ColumnData::Str { .. } | ColumnData::Dict { .. } => ScalarType::Str,
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str { offsets, .. } => offsets.len() - 1,
            ColumnData::Dict { codes, .. } => codes.len(),
        }
    }

    /// True for dictionary-encoded string columns.
    pub fn is_dict(&self) -> bool {
        matches!(self, ColumnData::Dict { .. })
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value; `Null` (or a type mismatch) appends the zero value
    /// — the caller records nullity in the mask.
    pub fn push(&mut self, value: &Value) {
        match self {
            ColumnData::Bool(v) => v.push(value.as_bool().unwrap_or(false)),
            ColumnData::Int(v) => v.push(match value {
                Value::Int(x) => *x,
                other => other.as_i64().unwrap_or(0),
            }),
            ColumnData::Float(v) => v.push(value.as_f64().unwrap_or(0.0)),
            ColumnData::Str { offsets, bytes } => {
                if let Value::Str(s) = value {
                    bytes.extend_from_slice(s.as_bytes());
                }
                offsets.push(bytes.len() as u32);
            }
            // Encoding happens only after a store finishes building.
            ColumnData::Dict { .. } => unreachable!("push into a sealed dictionary column"),
        }
    }

    /// Appends one integer (typed twin of `push(&Value::Int(v))`).
    #[inline]
    pub fn push_int(&mut self, v: i64) {
        match self {
            ColumnData::Int(out) => out.push(v),
            _ => unreachable!("push_int on a non-int column"),
        }
    }

    /// Appends one float.
    #[inline]
    pub fn push_float(&mut self, v: f64) {
        match self {
            ColumnData::Float(out) => out.push(v),
            _ => unreachable!("push_float on a non-float column"),
        }
    }

    /// Appends one bool.
    #[inline]
    pub fn push_bool(&mut self, v: bool) {
        match self {
            ColumnData::Bool(out) => out.push(v),
            _ => unreachable!("push_bool on a non-bool column"),
        }
    }

    /// Appends one string value directly from its encoded bytes — no
    /// intermediate `String` allocation; the bytes land straight in the
    /// shared heap.
    #[inline]
    pub fn push_str_bytes(&mut self, s: &[u8]) {
        match self {
            ColumnData::Str { offsets, bytes } => {
                bytes.extend_from_slice(s);
                offsets.push(bytes.len() as u32);
            }
            // Scalar type of a leaf never changes within a store.
            _ => unreachable!("push_str_bytes on a non-string column"),
        }
    }

    /// Appends every entry of a same-typed column still being built (a
    /// sealed dictionary column takes no appends, nor is one appended).
    pub(crate) fn append(&mut self, other: ColumnData) {
        match (self, other) {
            (ColumnData::Bool(out), ColumnData::Bool(v)) => out.extend(v),
            (ColumnData::Int(out), ColumnData::Int(v)) => out.extend(v),
            (ColumnData::Float(out), ColumnData::Float(v)) => out.extend(v),
            (
                ColumnData::Str { offsets, bytes },
                ColumnData::Str {
                    offsets: more,
                    bytes: more_bytes,
                },
            ) => {
                let base = bytes.len() as u32;
                offsets.extend(more[1..].iter().map(|&o| base + o));
                bytes.extend(more_bytes);
            }
            _ => unreachable!("append of a mismatched or sealed column"),
        }
    }

    /// Reads a value (non-null slot).
    #[inline]
    pub fn get(&self, index: usize) -> Value {
        match self {
            ColumnData::Bool(v) => Value::Bool(v[index]),
            ColumnData::Int(v) => Value::Int(v[index]),
            ColumnData::Float(v) => Value::Float(v[index]),
            ColumnData::Str { offsets, bytes } => {
                let start = offsets[index] as usize;
                let end = offsets[index + 1] as usize;
                Value::Str(String::from_utf8_lossy(&bytes[start..end]).into_owned())
            }
            ColumnData::Dict {
                codes,
                pool_offsets,
                pool_bytes,
            } => {
                let code = codes[index] as usize;
                let start = pool_offsets[code] as usize;
                let end = pool_offsets[code + 1] as usize;
                Value::Str(String::from_utf8_lossy(&pool_bytes[start..end]).into_owned())
            }
        }
    }

    /// Heap footprint in bytes.
    pub fn byte_size(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len() * 8,
            ColumnData::Float(v) => v.len() * 8,
            ColumnData::Str { offsets, bytes } => offsets.len() * 4 + bytes.len(),
            ColumnData::Dict {
                codes,
                pool_offsets,
                pool_bytes,
            } => codes.len() * 4 + pool_offsets.len() * 4 + pool_bytes.len(),
        }
    }

    /// Removes all entries, keeping allocations (reusable buffers).
    pub fn clear(&mut self) {
        match self {
            ColumnData::Bool(v) => v.clear(),
            ColumnData::Int(v) => v.clear(),
            ColumnData::Float(v) => v.clear(),
            ColumnData::Str { offsets, bytes } => {
                offsets.clear();
                offsets.push(0);
                bytes.clear();
            }
            ColumnData::Dict {
                codes,
                pool_offsets,
                pool_bytes,
            } => {
                codes.clear();
                pool_offsets.clear();
                pool_offsets.push(0);
                pool_bytes.clear();
            }
        }
    }

    /// Dictionary-encodes a plain `Str` column in place when the column
    /// has at least `min_rows` rows and `distinct / rows <= max_ratio`.
    /// The pool is the column's distinct byte strings in sorted order, so
    /// code order equals string order. Returns whether encoding happened.
    /// Null slots keep their (empty) byte string; validity lives in the
    /// owning [`Column`]'s bitmap, exactly as for plain string columns.
    pub fn dict_encode(&mut self, max_ratio: f64, min_rows: usize) -> bool {
        let ColumnData::Str { offsets, bytes } = self else {
            return false;
        };
        let rows = offsets.len() - 1;
        if rows < min_rows {
            return false;
        }
        // Scale before truncating so tiny ratios keep a non-zero budget.
        let max_distinct = ((rows as f64) * max_ratio).floor().max(1.0) as usize;
        // One hash probe per row gives each row the code of its value in
        // first-seen order.
        let mut seen: HashMap<&[u8], u32> = HashMap::new();
        let mut distinct: Vec<&[u8]> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(rows);
        for i in 0..rows {
            let value = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
            let code = *seen.entry(value).or_insert_with(|| {
                distinct.push(value);
                distinct.len() as u32 - 1
            });
            if distinct.len() > max_distinct {
                return false; // too many distinct values — bail early
            }
            codes.push(code);
        }
        // Sorting the distinct values once makes code order string order.
        let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
        order.sort_unstable_by_key(|&code| distinct[code as usize]);
        let mut rank = vec![0u32; order.len()];
        let mut pool_offsets: Vec<u32> = Vec::with_capacity(order.len() + 1);
        pool_offsets.push(0);
        let mut pool_bytes: Vec<u8> = Vec::new();
        for (sorted, &code) in order.iter().enumerate() {
            rank[code as usize] = sorted as u32;
            pool_bytes.extend_from_slice(distinct[code as usize]);
            pool_offsets.push(pool_bytes.len() as u32);
        }
        for code in &mut codes {
            *code = rank[*code as usize];
        }
        *self = ColumnData::Dict {
            codes,
            pool_offsets,
            pool_bytes,
        };
        true
    }

    /// Copies entry `index` of another column of the same scalar type —
    /// typed, no `Value` boxing. `copy_bytes = false` appends an empty
    /// string slot instead of the source bytes (null entries).
    #[inline]
    pub fn push_from(&mut self, src: &ColumnData, index: usize, copy_bytes: bool) {
        match (self, src) {
            (ColumnData::Bool(out), ColumnData::Bool(v)) => out.push(v[index]),
            (ColumnData::Int(out), ColumnData::Int(v)) => out.push(v[index]),
            (ColumnData::Float(out), ColumnData::Float(v)) => out.push(v[index]),
            (
                ColumnData::Str { offsets, bytes },
                ColumnData::Str {
                    offsets: so,
                    bytes: sb,
                },
            ) => {
                if copy_bytes {
                    let lo = so[index] as usize;
                    let hi = so[index + 1] as usize;
                    bytes.extend_from_slice(&sb[lo..hi]);
                }
                offsets.push(bytes.len() as u32);
            }
            // Gathering out of a dictionary column (Dremel assembled
            // scans, layout conversions) decodes into the plain arena.
            (
                ColumnData::Str { offsets, bytes },
                ColumnData::Dict {
                    codes,
                    pool_offsets,
                    pool_bytes,
                },
            ) => {
                if copy_bytes {
                    let code = codes[index] as usize;
                    let lo = pool_offsets[code] as usize;
                    let hi = pool_offsets[code + 1] as usize;
                    bytes.extend_from_slice(&pool_bytes[lo..hi]);
                }
                offsets.push(bytes.len() as u32);
            }
            // Scalar type of a leaf never changes within a store.
            _ => unreachable!("column type mismatch in push_from"),
        }
    }

    /// Borrowed typed view over entries `[start, end)` — zero-copy; string
    /// offsets stay absolute into the shared byte heap (and dictionary
    /// pools are shared whole, since codes index the full pool).
    pub fn slice(&self, start: usize, end: usize) -> BatchValues<'_> {
        match self {
            ColumnData::Bool(v) => BatchValues::Bool(&v[start..end]),
            ColumnData::Int(v) => BatchValues::Int(&v[start..end]),
            ColumnData::Float(v) => BatchValues::Float(&v[start..end]),
            ColumnData::Str { offsets, bytes } => BatchValues::Str {
                offsets: &offsets[start..=end],
                bytes,
            },
            ColumnData::Dict {
                codes,
                pool_offsets,
                pool_bytes,
            } => BatchValues::Dict {
                codes: &codes[start..end],
                pool_offsets,
                pool_bytes,
            },
        }
    }
}

/// A column: typed data plus a validity mask.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub data: ColumnData,
    /// Set bit = valid (non-null).
    pub valid: Bitmap,
}

impl Column {
    pub fn new(ty: ScalarType) -> Self {
        Column {
            data: ColumnData::new(ty),
            valid: Bitmap::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.valid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Removes all entries, keeping allocations (reusable buffers).
    pub fn clear(&mut self) {
        self.data.clear();
        self.valid.clear();
    }

    /// Appends a value, tracking nullity.
    pub fn push(&mut self, value: &Value) {
        self.valid.push(!value.is_null());
        self.data.push(value);
    }

    /// Appends every entry of another same-typed column.
    pub(crate) fn append(&mut self, other: Column) {
        self.data.append(other.data);
        self.valid.append(&other.valid);
    }

    /// Copies entry `index` of another same-typed column (typed append,
    /// no `Value` boxing).
    #[inline]
    pub fn push_entry_from(&mut self, src_data: &ColumnData, src_valid: &Bitmap, index: usize) {
        let is_valid = src_valid.get(index);
        self.valid.push(is_valid);
        self.data.push_from(src_data, index, is_valid);
    }

    /// Reads a value, `Null` for invalid slots.
    #[inline]
    pub fn get(&self, index: usize) -> Value {
        if self.valid.get(index) {
            self.data.get(index)
        } else {
            Value::Null
        }
    }

    pub fn byte_size(&self) -> usize {
        self.data.byte_size() + self.valid.byte_size()
    }

    /// Borrowed batch view over rows `[start, end)`. `start` must be a
    /// multiple of 64 so the validity view begins on a word boundary
    /// (batch row `r` is then bit `r` of the word slice). Pass
    /// `all_valid = true` (precomputed once per scan) to skip validity
    /// tracking for null-free columns.
    pub fn batch_view(&self, start: usize, end: usize, all_valid: bool) -> BatchColumn<'_> {
        crate::batch::borrowed_batch_column(&self.data, &self.valid, start, end, all_valid)
    }

    /// Dictionary-encodes a low-cardinality string column in place (see
    /// [`ColumnData::dict_encode`]); no-op for other types. Returns
    /// whether encoding happened.
    pub fn maybe_dict_encode(&mut self, max_ratio: f64, min_rows: usize) -> bool {
        self.data.dict_encode(max_ratio, min_rows)
    }

    /// True when this column is dictionary-encoded.
    pub fn is_dict(&self) -> bool {
        self.data.is_dict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_round_trips() {
        let mut col = Column::new(ScalarType::Int);
        col.push(&Value::Int(5));
        col.push(&Value::Null);
        col.push(&Value::Int(-9));
        assert_eq!(col.len(), 3);
        assert_eq!(col.get(0), Value::Int(5));
        assert_eq!(col.get(1), Value::Null);
        assert_eq!(col.get(2), Value::Int(-9));
    }

    #[test]
    fn string_heap_round_trips() {
        let mut col = Column::new(ScalarType::Str);
        col.push(&Value::from("alpha"));
        col.push(&Value::from(""));
        col.push(&Value::Null);
        col.push(&Value::from("beta"));
        assert_eq!(col.get(0), Value::from("alpha"));
        assert_eq!(col.get(1), Value::from(""));
        assert_eq!(col.get(2), Value::Null);
        assert_eq!(col.get(3), Value::from("beta"));
    }

    #[test]
    fn float_and_bool_columns() {
        let mut f = Column::new(ScalarType::Float);
        f.push(&Value::Float(2.5));
        assert_eq!(f.get(0), Value::Float(2.5));
        let mut b = Column::new(ScalarType::Bool);
        b.push(&Value::Bool(true));
        b.push(&Value::Bool(false));
        assert_eq!(b.get(0), Value::Bool(true));
        assert_eq!(b.get(1), Value::Bool(false));
    }

    #[test]
    fn mismatched_push_becomes_null_value_slot() {
        let mut col = Column::new(ScalarType::Str);
        // Pushing an Int into a Str column keeps the mask valid but the
        // heap empty; get returns "" — engine never does this (schema-
        // directed), the test documents the degenerate behaviour.
        col.push(&Value::Int(1));
        assert_eq!(col.get(0), Value::from(""));
    }

    #[test]
    fn byte_sizes() {
        let mut col = Column::new(ScalarType::Int);
        for i in 0..64 {
            col.push(&Value::Int(i));
        }
        assert_eq!(col.data.byte_size(), 64 * 8);
        assert_eq!(col.byte_size(), 64 * 8 + 8);
    }

    fn low_card_column(rows: usize) -> Column {
        let mut col = Column::new(ScalarType::Str);
        for i in 0..rows {
            if i % 7 == 3 {
                col.push(&Value::Null);
            } else {
                col.push(&Value::Str(format!("tag{}", i % 5)));
            }
        }
        col
    }

    #[test]
    fn dict_encode_round_trips_values_and_nulls() {
        let mut col = low_card_column(200);
        let expected: Vec<Value> = (0..200).map(|i| col.get(i)).collect();
        assert!(col.maybe_dict_encode(0.125, 64));
        assert!(col.is_dict());
        assert_eq!(col.len(), 200);
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(&col.get(i), want, "row {i}");
        }
    }

    #[test]
    fn dict_pool_is_sorted_so_code_order_is_string_order() {
        let mut col = Column::new(ScalarType::Str);
        let words = ["pear", "apple", "fig", "apple", "banana", "fig"];
        for w in words.iter().cycle().take(128) {
            col.push(&Value::Str((*w).to_owned()));
        }
        assert!(col.maybe_dict_encode(0.5, 64));
        let ColumnData::Dict {
            codes,
            pool_offsets,
            pool_bytes,
        } = &col.data
        else {
            panic!("expected dict");
        };
        let pool: Vec<&[u8]> = (0..pool_offsets.len() - 1)
            .map(|i| &pool_bytes[pool_offsets[i] as usize..pool_offsets[i + 1] as usize])
            .collect();
        assert_eq!(pool, vec![b"apple".as_slice(), b"banana", b"fig", b"pear"]);
        // Codes follow pool order, not first-seen order.
        assert_eq!(codes[0], 3); // pear
        assert_eq!(codes[1], 0); // apple
        assert_eq!(codes[2], 2); // fig
    }

    #[test]
    fn dict_encode_rejects_high_cardinality_and_tiny_columns() {
        let mut high = Column::new(ScalarType::Str);
        for i in 0..500 {
            high.push(&Value::Str(format!("unique-{i}")));
        }
        assert!(!high.maybe_dict_encode(0.125, 64));
        assert!(!high.is_dict());

        let mut tiny = Column::new(ScalarType::Str);
        for _ in 0..10 {
            tiny.push(&Value::Str("same".into()));
        }
        assert!(!tiny.maybe_dict_encode(0.125, 64));
    }

    #[test]
    fn dict_encode_ignores_non_string_columns() {
        let mut col = Column::new(ScalarType::Int);
        for _ in 0..100 {
            col.push(&Value::Int(1));
        }
        assert!(!col.maybe_dict_encode(0.125, 64));
    }

    #[test]
    fn dict_byte_size_shrinks_repetitive_columns() {
        let mut plain = low_card_column(2048);
        let before = plain.byte_size();
        assert!(plain.maybe_dict_encode(0.125, 64));
        let after = plain.byte_size();
        assert!(
            after < before,
            "dict encoding must shrink the footprint ({after} vs {before})"
        );
    }

    /// The encoder as it was before hashing, kept as the oracle: a
    /// per-row `BTreeSet` insert, then a binary search per row.
    fn dict_encode_btree(col: &mut ColumnData, max_ratio: f64, min_rows: usize) -> bool {
        use std::collections::BTreeSet;
        let ColumnData::Str { offsets, bytes } = col else {
            return false;
        };
        let rows = offsets.len() - 1;
        if rows < min_rows {
            return false;
        }
        let max_distinct = ((rows as f64) * max_ratio).floor().max(1.0) as usize;
        let mut pool: BTreeSet<&[u8]> = BTreeSet::new();
        for i in 0..rows {
            pool.insert(&bytes[offsets[i] as usize..offsets[i + 1] as usize]);
            if pool.len() > max_distinct {
                return false;
            }
        }
        let sorted: Vec<&[u8]> = pool.into_iter().collect();
        let mut pool_offsets: Vec<u32> = vec![0];
        let mut pool_bytes: Vec<u8> = Vec::new();
        for s in &sorted {
            pool_bytes.extend_from_slice(s);
            pool_offsets.push(pool_bytes.len() as u32);
        }
        let codes: Vec<u32> = (0..rows)
            .map(|i| {
                let s = &bytes[offsets[i] as usize..offsets[i + 1] as usize];
                sorted.binary_search(&s).expect("value in pool") as u32
            })
            .collect();
        *col = ColumnData::Dict {
            codes,
            pool_offsets,
            pool_bytes,
        };
        true
    }

    /// Hashed encoding equals the `BTreeSet` oracle — outcome, pool and
    /// codes — over random columns with duplicates, empty strings,
    /// non-UTF-8 bytes, shared prefixes, and distinct counts at, just
    /// under and just over the `max_distinct` bail-out.
    #[test]
    fn hashed_dict_encode_equals_the_btree_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD1C7);
        let mut outcomes = [0usize; 2];
        for case in 0..400 {
            let rows = rng.random_range(0..400usize);
            let ratio = [0.125, 0.25, 0.5, 0.01][case % 4];
            let max_distinct = ((rows as f64) * ratio).floor().max(1.0) as usize;
            // Aim the distinct count at the bail-out from both sides.
            let distinct = (max_distinct + rng.random_range(0..3usize))
                .saturating_sub(1)
                .max(1);
            let values: Vec<Vec<u8>> = (0..distinct)
                .map(|v| match v % 5 {
                    0 => Vec::new(),
                    1 => vec![0xff, v as u8, 0xfe],
                    2 => format!("shared-prefix-value-{v}").into_bytes(),
                    _ => format!("{v}").into_bytes(),
                })
                .collect();
            let mut col = ColumnData::new(ScalarType::Str);
            for row in 0..rows {
                // Every value appears once, then rows repeat at random.
                let v = if row < distinct {
                    row
                } else {
                    rng.random_range(0..distinct)
                };
                col.push_str_bytes(&values[v]);
            }
            let min_rows = if case % 7 == 0 { rows + 1 } else { 64 };
            let mut oracle = col.clone();
            let encoded = col.dict_encode(ratio, min_rows);
            assert_eq!(
                encoded,
                dict_encode_btree(&mut oracle, ratio, min_rows),
                "case {case}"
            );
            assert_eq!(col, oracle, "case {case}");
            outcomes[usize::from(encoded)] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 50),
            "both outcomes: {outcomes:?}"
        );
    }

    #[test]
    fn push_from_decodes_dict_sources() {
        let mut src = low_card_column(100);
        let expected: Vec<Value> = (0..100).map(|i| src.get(i)).collect();
        assert!(src.maybe_dict_encode(0.25, 64));
        let mut dst = Column::new(ScalarType::Str);
        for i in 0..100 {
            dst.push_entry_from(&src.data, &src.valid, i);
        }
        for (i, want) in expected.iter().enumerate() {
            assert_eq!(&dst.get(i), want, "row {i}");
        }
    }
}

//! Per-record nesting *shapes*: the list lengths of a record in preorder.
//!
//! The relational columnar layout flattens nested records into rows,
//! which loses the list structure (how many `urls` did record 7 have?).
//! ReCache must be able to switch a cached item *back* from the columnar
//! layout to the Dremel layout (§4.2), so [`crate::ColumnStore`] keeps a
//! few bytes of shape metadata per record — every list length, in
//! depth-first preorder — making the flattening losslessly reversible.
//!
//! `capture` + `rebuild` are exact inverses up to the usual flattening
//! equivalences (empty and absent lists coincide; an absent struct equals
//! a struct of nulls), which is all cache-layout switching needs: the
//! flattened views are bit-identical.

use recache_types::{DataType, Field, FlatRows, Flattener, Schema, Value};

/// Per-record bookkeeping of a store flattened over all leaves.
#[derive(Debug, Default)]
pub(crate) struct FlatIndex {
    /// Per row: bit `d` set ⇔ list dimension `d` is at a non-zero element
    /// index (see [`Flattener::new`]).
    pub masks: Vec<u64>,
    /// First flattened row of each record, plus a final total-rows entry.
    pub record_rows: Vec<u32>,
    /// Concatenated per-record shapes with offsets (`record_count + 1`).
    pub shape_lens: Vec<u32>,
    pub shape_offsets: Vec<u32>,
}

/// True when every top-level field is a scalar: each record is then one
/// flattened row with an empty shape (every CSV source, flat JSON).
pub(crate) fn is_flat(schema: &Schema) -> bool {
    schema
        .fields()
        .iter()
        .all(|f| f.data_type.as_scalar().is_some())
}

/// Flattens `records` over all leaves, handing each row's borrowed leaf
/// values to `on_row` in order, and returns the index the relational
/// stores keep beside their data. With `flat` (which requires
/// [`is_flat`]) each record is taken as one row directly, skipping the
/// walker and shape capture entirely.
pub(crate) fn flatten_records<'a>(
    schema: &Schema,
    records: impl IntoIterator<Item = &'a Value>,
    flat: bool,
    mut on_row: impl FnMut(&[&'a Value]),
) -> FlatIndex {
    debug_assert!(!flat || is_flat(schema));
    static NULL: Value = Value::Null;
    let mut index = FlatIndex {
        record_rows: vec![0],
        shape_offsets: vec![0],
        ..FlatIndex::default()
    };
    if flat {
        let mut row: Vec<&'a Value> = Vec::with_capacity(schema.len());
        for record in records {
            let children: &'a [Value] = match record {
                Value::Struct(children) => children,
                _ => &[],
            };
            row.clear();
            row.extend((0..schema.len()).map(|i| children.get(i).unwrap_or(&NULL)));
            on_row(&row);
            index.masks.push(0);
            index.record_rows.push(index.masks.len() as u32);
            index.shape_offsets.push(0);
        }
    } else {
        let flattener = Flattener::new(schema);
        let mut rows = FlatRows::new();
        for record in records {
            capture(schema.fields(), record, &mut index.shape_lens);
            index.shape_offsets.push(index.shape_lens.len() as u32);
            rows.clear();
            flattener.flatten_into(record, &mut rows);
            for (row, mask) in rows.iter() {
                on_row(row);
                index.masks.push(mask);
            }
            index.record_rows.push(index.masks.len() as u32);
        }
    }
    index
}

/// Captures the shape of one record: appends each list's length (0 for
/// absent/empty) in preorder to `out`.
pub fn capture(fields: &[Field], record: &Value, out: &mut Vec<u32>) {
    let children: &[Value] = match record {
        Value::Struct(c) => c,
        _ => &[],
    };
    for (i, field) in fields.iter().enumerate() {
        capture_value(
            &field.data_type,
            children.get(i).unwrap_or(&Value::Null),
            out,
        );
    }
}

fn capture_value(ty: &DataType, value: &Value, out: &mut Vec<u32>) {
    match ty {
        DataType::Struct(fields) => capture(fields, value, out),
        DataType::List(inner) => match value {
            Value::List(items) if !items.is_empty() => {
                out.push(items.len() as u32);
                for item in items {
                    capture_value(inner, item, out);
                }
            }
            _ => out.push(0),
        },
        _ => {}
    }
}

/// Read cursor over a record's shape.
#[derive(Debug, Clone, Copy)]
pub struct ShapeCursor<'a> {
    lens: &'a [u32],
    pos: usize,
}

impl<'a> ShapeCursor<'a> {
    pub fn new(lens: &'a [u32]) -> Self {
        ShapeCursor { lens, pos: 0 }
    }

    fn next(&mut self) -> u32 {
        let v = self.lens[self.pos];
        self.pos += 1;
        v
    }

    /// Entries consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

/// Number of scalar leaves under a type.
pub fn leaf_count(ty: &DataType) -> usize {
    match ty {
        DataType::Struct(fields) => fields.iter().map(|f| leaf_count(&f.data_type)).sum(),
        DataType::List(inner) => leaf_count(inner),
        _ => 1,
    }
}

/// Flattened row count of one record, consuming its shape.
pub fn row_count(fields: &[Field], cursor: &mut ShapeCursor<'_>) -> usize {
    let mut rows = 1usize;
    for field in fields {
        rows *= value_row_count(&field.data_type, cursor);
    }
    rows
}

fn value_row_count(ty: &DataType, cursor: &mut ShapeCursor<'_>) -> usize {
    match ty {
        DataType::Struct(fields) => row_count(fields, cursor),
        DataType::List(inner) => {
            let len = cursor.next();
            if len == 0 {
                // An empty/absent list still flattens to one (null) row.
                1
            } else {
                (0..len).map(|_| value_row_count(inner, cursor)).sum()
            }
        }
        _ => 1,
    }
}

/// Rebuilds one nested record from its flattened rows and shape.
///
/// `rows` are the record's flattened rows over *all* leaves in canonical
/// order (exactly the rows the store was built from).
pub fn rebuild(fields: &[Field], rows: &[Vec<Value>], cursor: &mut ShapeCursor<'_>) -> Value {
    let row_refs: Vec<&[Value]> = rows.iter().map(|r| r.as_slice()).collect();
    rebuild_struct(fields, &row_refs, 0, cursor)
}

fn rebuild_struct(
    fields: &[Field],
    rows: &[&[Value]],
    leaf_start: usize,
    cursor: &mut ShapeCursor<'_>,
) -> Value {
    // First pass: row multiplicity of each child (cloned cursors so the
    // real cursor is only consumed by the rebuild pass below).
    let mut counts = Vec::with_capacity(fields.len());
    {
        let mut probe = *cursor;
        for field in fields {
            counts.push(value_row_count(&field.data_type, &mut probe));
        }
    }
    // Cartesian layout: leftmost child varies slowest. stride[j] =
    // product of counts of children to the right.
    let mut strides = vec![1usize; fields.len()];
    for j in (0..fields.len().saturating_sub(1)).rev() {
        strides[j] = strides[j + 1] * counts[j + 1];
    }
    let mut children = Vec::with_capacity(fields.len());
    let mut leaf = leaf_start;
    for (j, field) in fields.iter().enumerate() {
        // Child j's own row set: sample rows at multiples of its stride
        // (all other children held at combination 0).
        let child_rows: Vec<&[Value]> = (0..counts[j]).map(|i| rows[i * strides[j]]).collect();
        children.push(rebuild_value(&field.data_type, &child_rows, leaf, cursor));
        leaf += leaf_count(&field.data_type);
    }
    Value::Struct(children)
}

fn rebuild_value(
    ty: &DataType,
    rows: &[&[Value]],
    leaf_start: usize,
    cursor: &mut ShapeCursor<'_>,
) -> Value {
    match ty {
        DataType::Struct(fields) => rebuild_struct(fields, rows, leaf_start, cursor),
        DataType::List(inner) => {
            let len = cursor.next();
            if len == 0 {
                return Value::Null;
            }
            let mut items = Vec::with_capacity(len as usize);
            let mut start = 0usize;
            for _ in 0..len {
                // Element row count, probed without consuming.
                let n = {
                    let mut probe = *cursor;
                    value_row_count(inner, &mut probe)
                };
                items.push(rebuild_value(
                    inner,
                    &rows[start..start + n],
                    leaf_start,
                    cursor,
                ));
                start += n;
            }
            Value::List(items)
        }
        _ => rows[0][leaf_start].clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{flatten_record, Schema};

    fn nested_schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Str))),
                ]))),
            ),
            Field::new("scores", DataType::List(Box::new(DataType::Float))),
        ])
    }

    fn roundtrip(schema: &Schema, record: &Value) {
        let mut lens = Vec::new();
        capture(schema.fields(), record, &mut lens);
        let rows = flatten_record(schema, record);
        let mut cursor = ShapeCursor::new(&lens);
        assert_eq!(
            row_count(schema.fields(), &mut cursor),
            rows.len(),
            "row_count"
        );
        let mut cursor = ShapeCursor::new(&lens);
        let rebuilt = rebuild(schema.fields(), &rows, &mut cursor);
        // Flattened views must agree exactly.
        assert_eq!(
            flatten_record(schema, &rebuilt),
            rows,
            "flatten(rebuild) == flatten"
        );
    }

    #[test]
    fn flat_record_has_empty_shape() {
        let schema = Schema::new(vec![Field::required("x", DataType::Int)]);
        let record = Value::Struct(vec![Value::Int(5)]);
        let mut lens = Vec::new();
        capture(schema.fields(), &record, &mut lens);
        assert!(lens.is_empty());
        roundtrip(&schema, &record);
    }

    #[test]
    fn single_list_roundtrip() {
        let schema = nested_schema();
        let record = Value::Struct(vec![
            Value::Int(1),
            Value::List(vec![
                Value::Struct(vec![Value::Int(10), Value::List(vec![Value::from("t1")])]),
                Value::Struct(vec![
                    Value::Int(20),
                    Value::List(vec![Value::from("t2"), Value::from("t3")]),
                ]),
            ]),
            Value::Null,
        ]);
        let mut lens = Vec::new();
        capture(schema.fields(), &record, &mut lens);
        // items len 2, tags lens 1 and 2, scores 0.
        assert_eq!(lens, vec![2, 1, 2, 0]);
        roundtrip(&schema, &record);
    }

    #[test]
    fn sibling_lists_cartesian_roundtrip() {
        let schema = nested_schema();
        let record = Value::Struct(vec![
            Value::Int(7),
            Value::List(vec![
                Value::Struct(vec![Value::Int(1), Value::Null]),
                Value::Struct(vec![Value::Int(2), Value::Null]),
            ]),
            Value::List(vec![
                Value::Float(0.5),
                Value::Float(1.5),
                Value::Float(2.5),
            ]),
        ]);
        // 2 items x 3 scores = 6 flattened rows.
        let rows = flatten_record(&schema, &record);
        assert_eq!(rows.len(), 6);
        roundtrip(&schema, &record);
    }

    #[test]
    fn empty_and_absent_lists_coincide() {
        let schema = nested_schema();
        let with_empty = Value::Struct(vec![Value::Int(1), Value::List(vec![]), Value::Null]);
        let with_null = Value::Struct(vec![Value::Int(1), Value::Null, Value::Null]);
        let mut lens_a = Vec::new();
        capture(schema.fields(), &with_empty, &mut lens_a);
        let mut lens_b = Vec::new();
        capture(schema.fields(), &with_null, &mut lens_b);
        assert_eq!(lens_a, lens_b);
        roundtrip(&schema, &with_empty);
        roundtrip(&schema, &with_null);
    }

    #[test]
    fn rebuilt_record_equals_original_when_canonical() {
        // For records with no empty lists and no null structs, rebuild is
        // the exact identity.
        let schema = nested_schema();
        let record = Value::Struct(vec![
            Value::Int(3),
            Value::List(vec![Value::Struct(vec![
                Value::Int(4),
                Value::List(vec![Value::from("x")]),
            ])]),
            Value::List(vec![Value::Float(9.0)]),
        ]);
        let mut lens = Vec::new();
        capture(schema.fields(), &record, &mut lens);
        let rows = flatten_record(&schema, &record);
        let mut cursor = ShapeCursor::new(&lens);
        let rebuilt = rebuild(schema.fields(), &rows, &mut cursor);
        assert_eq!(rebuilt, record);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recache_types::{flatten_record, Schema};

    /// Random record for the fixed nested test schema below.
    fn random_record(rng: &mut StdRng) -> Value {
        let items: Vec<Value> = (0..rng.random_range(0..4))
            .map(|_| {
                let tags: Vec<Value> = (0..rng.random_range(0..3))
                    .map(|_| Value::Float(rng.random_range(0.0..10.0)))
                    .collect();
                Value::Struct(vec![Value::Int(rng.random::<i64>()), Value::List(tags)])
            })
            .collect();
        let flags: Vec<Value> = (0..rng.random_range(0..3))
            .map(|_| Value::Bool(rng.random::<bool>()))
            .collect();
        Value::Struct(vec![
            Value::Int(rng.random::<i64>()),
            Value::List(items),
            Value::List(flags),
        ])
    }

    fn test_schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Float))),
                ]))),
            ),
            Field::new("flags", DataType::List(Box::new(DataType::Bool))),
        ])
    }

    #[test]
    fn capture_rebuild_preserves_flattened_view() {
        let schema = test_schema();
        let mut rng = StdRng::seed_from_u64(0x5A5A);
        for case in 0..300 {
            let record = random_record(&mut rng);
            let mut lens = Vec::new();
            capture(schema.fields(), &record, &mut lens);
            let rows = flatten_record(&schema, &record);
            let mut cursor = ShapeCursor::new(&lens);
            assert_eq!(
                row_count(schema.fields(), &mut cursor),
                rows.len(),
                "case {case}: row_count mismatch for {record:?}"
            );
            let mut cursor = ShapeCursor::new(&lens);
            let rebuilt = rebuild(schema.fields(), &rows, &mut cursor);
            assert_eq!(
                flatten_record(&schema, &rebuilt),
                rows,
                "case {case}: rebuild mismatch for {record:?}"
            );
        }
    }
}

#[cfg(test)]
mod flat_build_tests {
    use super::*;
    use crate::{ColumnStore, DICT_MAX_RATIO};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random flat schema and records exercising every corner the
    /// shortcut must agree on: nulls, type mismatches, short and
    /// non-struct records, and low-cardinality strings (dictionary
    /// encoding) beside high-cardinality ones.
    fn random_flat_case(rng: &mut StdRng) -> (Schema, Vec<Value>) {
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ];
        let fields: Vec<Field> = (0..rng.random_range(1..6))
            .map(|i| Field::new(format!("c{i}"), types[rng.random_range(0..4)].clone()))
            .collect();
        let distinct = if rng.random::<bool>() { 4 } else { 10_000 };
        let records = (0..rng.random_range(0..300))
            .map(|_| {
                if rng.random_range(0..50) == 0 {
                    return Value::Null;
                }
                let n = fields.len() - usize::from(rng.random_range(0..10) == 0);
                Value::Struct(
                    fields[..n]
                        .iter()
                        .map(|f| match rng.random_range(0..20) {
                            0 => Value::Null,
                            1 => Value::Str("mismatch".into()),
                            _ => match f.data_type {
                                DataType::Int => Value::Int(rng.random_range(-50..50)),
                                DataType::Float => Value::Float(rng.random_range(0.0..9.0)),
                                DataType::Bool => Value::Bool(rng.random::<bool>()),
                                _ => Value::Str(format!("v{}", rng.random_range(0..distinct))),
                            },
                        })
                        .collect(),
                )
            })
            .collect();
        (Schema::new(fields), records)
    }

    #[test]
    fn flat_shortcut_builds_the_same_stores() {
        let mut rng = StdRng::seed_from_u64(0xF1A7);
        let mut dict_seen = false;
        for case in 0..60 {
            let (schema, records) = random_flat_case(&mut rng);
            assert!(is_flat(&schema));
            let ratio = Some(DICT_MAX_RATIO);
            let flat = ColumnStore::build_flattened(&schema, &records, ratio, true);
            let generic = ColumnStore::build_flattened(&schema, &records, ratio, false);
            assert_eq!(flat, generic, "case {case}: columnar stores differ");
            dict_seen |= (0..schema.len()).any(|leaf| flat.leaf_is_dict(leaf));
        }
        assert!(dict_seen, "some case must dictionary-encode a column");
    }
}

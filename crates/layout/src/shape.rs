//! Flattening records for the relational columnar layout.
//!
//! [`crate::ColumnStore`] flattens nested records into rows (lists
//! exploded, parents duplicated). The flattening keeps, per row, which
//! list dimensions sit at a non-zero element index, and where each
//! record's rows start; it keeps nothing that would rebuild the records,
//! since a cached entry is rebuilt from the raw file instead.

use recache_types::{DataType, FlatRows, Flattener, Schema, Value};

/// Per-record bookkeeping of a store flattened over all leaves.
#[derive(Debug, Default)]
pub(crate) struct FlatIndex {
    /// Per row: bit `d` set ⇔ list dimension `d` is at a non-zero element
    /// index (see [`Flattener::new`]).
    pub masks: Vec<u64>,
    /// First flattened row of each record, plus a final total-rows entry.
    pub record_rows: Vec<u32>,
}

/// True when every top-level field is a scalar: each record is then one
/// flattened row (every CSV source, flat JSON).
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
/// walker entirely.
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
        }
    } else {
        let flattener = Flattener::new(schema);
        let mut rows = FlatRows::new();
        for record in records {
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

/// Number of scalar leaves under a type.
pub fn leaf_count(ty: &DataType) -> usize {
    match ty {
        DataType::Struct(fields) => fields.iter().map(|f| leaf_count(&f.data_type)).sum(),
        DataType::List(inner) => leaf_count(inner),
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ColumnStore;
    use recache_types::Field;

    #[test]
    fn empty_and_absent_lists_coincide() {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Str))),
                ]))),
            ),
            Field::new("scores", DataType::List(Box::new(DataType::Float))),
        ]);
        let with_empty = Value::Struct(vec![Value::Int(1), Value::List(vec![]), Value::Null]);
        let with_null = Value::Struct(vec![Value::Int(1), Value::Null, Value::Null]);
        assert_eq!(
            ColumnStore::build(&schema, [&with_empty]),
            ColumnStore::build(&schema, [&with_null])
        );
    }
}

#[cfg(test)]
mod flat_build_tests {
    use super::*;
    use crate::{ColumnStore, DICT_MAX_RATIO};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use recache_types::Field;

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

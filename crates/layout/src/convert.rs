//! Layout ↔ layout transformations.
//!
//! When ReCache's cost model decides a cached item should switch layout
//! (§4.2), the item is re-materialized: records are reassembled from the
//! current store and shredded/flattened into the new one. The measured
//! wall-clock duration is reported so the cache can compare it against
//! the estimated transformation cost `T = max((Di + Ci) · R / ri)`.

use crate::{ColumnStore, DremelStore};
use std::time::{Duration, Instant};

/// Dremel → relational columnar. Returns the new store and the measured
/// transformation time. Source record ids survive every conversion so
/// scans over the switched layout keep reporting file record ids.
pub fn dremel_to_columnar(store: &DremelStore) -> (ColumnStore, Duration) {
    let t0 = Instant::now();
    let records = store.to_records();
    let mut out = ColumnStore::build(store.schema(), records.iter());
    if let Some(ids) = store.source_record_ids() {
        out.set_source_record_ids(ids.to_vec());
    }
    (out, t0.elapsed())
}

/// Relational columnar → Dremel.
pub fn columnar_to_dremel(store: &ColumnStore) -> (DremelStore, Duration) {
    let t0 = Instant::now();
    let records = store.to_records();
    let mut out = DremelStore::build(store.schema(), records.iter());
    if let Some(ids) = store.source_record_ids() {
        out.set_source_record_ids(ids.to_vec());
    }
    (out, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{DataType, Field, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("o", DataType::Int),
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
        (0..40)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::List(
                        (0..(i % 5))
                            .map(|j| Value::Struct(vec![Value::Int(j)]))
                            .collect(),
                    ),
                ])
            })
            .collect()
    }

    fn scans_agree(a: &[Vec<Value>], b: &[Vec<Value>]) {
        assert_eq!(a, b);
    }

    #[test]
    fn dremel_columnar_round_trip_preserves_scans() {
        let rs = records();
        let schema = schema();
        let dremel = DremelStore::build(&schema, rs.iter());
        let (columnar, t) = dremel_to_columnar(&dremel);
        assert!(t.as_nanos() > 0);
        let mut a = Vec::new();
        dremel.scan(&[0, 1], false, &mut |_, r| a.push(r.to_vec()));
        let mut b = Vec::new();
        columnar.scan(&[0, 1], false, &mut |_, r| b.push(r.to_vec()));
        scans_agree(&a, &b);

        let (dremel2, _) = columnar_to_dremel(&columnar);
        let mut c = Vec::new();
        dremel2.scan(&[0, 1], false, &mut |_, r| c.push(r.to_vec()));
        scans_agree(&a, &c);
        assert_eq!(dremel2.record_count(), dremel.record_count());
        assert_eq!(dremel2.flattened_rows(), dremel.flattened_rows());
    }

    #[test]
    fn conversions_propagate_source_record_ids() {
        let rs = records();
        let schema = schema();
        let ids: Vec<u32> = (0..rs.len() as u32).map(|i| i * 3 + 5).collect();
        let mut dremel = DremelStore::build(&schema, rs.iter());
        dremel.set_source_record_ids(ids.clone());
        let (columnar, _) = dremel_to_columnar(&dremel);
        assert_eq!(columnar.source_record_ids(), Some(ids.as_slice()));
        let (dremel2, _) = columnar_to_dremel(&columnar);
        assert_eq!(dremel2.source_record_ids(), Some(ids.as_slice()));
    }
}

//! Cache materialization with reactive admission (§5.2).
//!
//! A cache miss whose scan collected satisfying record ids is materialized
//! in a second pass over those records (through the positional map the
//! first pass built). The pass starts eagerly: the first
//! `sample_records` full-record parses are timed, the caching overhead is
//! extrapolated (`tc/to`), and if it exceeds the threshold the pass
//! aborts and only the offsets are kept (lazy). A lazy entry that gets
//! reused is upgraded to an eager store.

use recache_cache::admission::{decide, estimate_overhead, AdmissionConfig, AdmissionDecision};
use recache_data::RawFile;
use recache_layout::{CacheData, ColumnStore, DremelStore, OffsetStore, RowStore};
use recache_types::{Result, Value};
use std::sync::Arc;
use std::time::Instant;

/// Physical layout for eager materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreChoice {
    Columnar,
    Dremel,
    Row,
}

/// Outcome of a materialization attempt.
pub struct MaterializeResult {
    pub data: CacheData,
    /// Wall time charged to caching (`c`), including any wasted sample.
    pub caching_ns: u64,
    pub decision: AdmissionDecision,
    /// The extrapolated overhead that drove the decision.
    pub overhead: f64,
}

/// Builds an eager store from full records, tagging it with the records'
/// source-file ids so later scans over the cache report *file* record ids
/// (the lazy/offsets admission path stores exactly these).
fn build_store(
    schema: &recache_types::Schema,
    records: &[Value],
    record_ids: &[u32],
    choice: StoreChoice,
) -> CacheData {
    debug_assert_eq!(records.len(), record_ids.len());
    match choice {
        StoreChoice::Columnar => {
            let mut store = ColumnStore::build(schema, records.iter());
            store.set_source_record_ids(record_ids.to_vec());
            CacheData::Columnar(Arc::new(store))
        }
        StoreChoice::Dremel => {
            let mut store = DremelStore::build(schema, records.iter());
            store.set_source_record_ids(record_ids.to_vec());
            CacheData::Dremel(Arc::new(store))
        }
        StoreChoice::Row => {
            let mut store = RowStore::build(schema, records.iter());
            store.set_source_record_ids(record_ids.to_vec());
            CacheData::Row(Arc::new(store))
        }
    }
}

/// Materializes a new cache entry for `file` from the satisfying record
/// ids, applying the reactive admission policy.
///
/// * `to1_ns` — query time already spent before caching began,
/// * `flattened_rows` — satisfying flattened rows (stat for lazy stores),
/// * `working_set` — other entries from this source are still cached.
pub fn materialize_with_admission(
    file: &RawFile,
    choice: StoreChoice,
    config: &AdmissionConfig,
    mut record_ids: Vec<u32>,
    flattened_rows: usize,
    to1_ns: u64,
    working_set: bool,
) -> Result<MaterializeResult> {
    record_ids.sort_unstable();
    record_ids.dedup();
    let t0 = Instant::now();

    if config.force == Some(AdmissionDecision::Lazy) {
        let data = CacheData::Offsets(Arc::new(OffsetStore::build(record_ids, flattened_rows)));
        return Ok(MaterializeResult {
            data,
            caching_ns: t0.elapsed().as_nanos() as u64,
            decision: AdmissionDecision::Lazy,
            overhead: 0.0,
        });
    }

    // Eager sample: parse + collect the first K full records.
    let total = record_ids.len();
    let sample_n = config.sample_records.min(total).max(1.min(total));
    let mut records: Vec<Value> = file.read_records(&record_ids[..sample_n])?;
    records.reserve(total - sample_n);
    let tc_sample_ns = t0.elapsed().as_nanos() as u64;
    let overhead = estimate_overhead(to1_ns, tc_sample_ns, 0, sample_n, total);
    let decision = if config.force == Some(AdmissionDecision::Eager) {
        AdmissionDecision::Eager
    } else {
        decide(config, overhead, working_set)
    };

    match decision {
        AdmissionDecision::Lazy => {
            // Abort the eager pass; keep only offsets. The sample time is
            // sunk cost, charged to this query's caching overhead.
            let data = CacheData::Offsets(Arc::new(OffsetStore::build(record_ids, flattened_rows)));
            Ok(MaterializeResult {
                data,
                caching_ns: t0.elapsed().as_nanos() as u64,
                decision: AdmissionDecision::Lazy,
                overhead,
            })
        }
        AdmissionDecision::Eager => {
            records.extend(file.read_records(&record_ids[sample_n..])?);
            let data = build_store(file.schema(), &records, &record_ids, choice);
            Ok(MaterializeResult {
                data,
                caching_ns: t0.elapsed().as_nanos() as u64,
                decision: AdmissionDecision::Eager,
                overhead,
            })
        }
    }
}

/// Upgrades a lazy (offsets) entry to an eager store ("if a lazy cached
/// item is accessed again, it is replaced by an eager cache").
pub fn upgrade_to_eager(
    file: &RawFile,
    choice: StoreChoice,
    store: &OffsetStore,
) -> Result<(CacheData, u64)> {
    let t0 = Instant::now();
    let records = file.read_records(store.record_ids())?;
    let data = build_store(file.schema(), &records, store.record_ids(), choice);
    Ok((data, t0.elapsed().as_nanos() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_data::gen::tpch;
    use recache_data::{csv, json, FileFormat};
    use recache_types::{DataType, Field, Schema};

    fn csv_file(rows: usize) -> RawFile {
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::required("v", DataType::Float),
        ]);
        let data: Vec<Vec<Value>> = (0..rows as i64)
            .map(|i| vec![Value::Int(i), Value::Float(i as f64)])
            .collect();
        let bytes = csv::write_csv(&schema, &data);
        let file = RawFile::from_bytes(bytes, FileFormat::Csv, schema);
        // Build the positional map (materialization requires it).
        file.scan_projected(&[true, true], &mut |_, _| {}).unwrap();
        file
    }

    #[test]
    fn eager_materialization_builds_full_store() {
        let file = csv_file(100);
        let config = AdmissionConfig::eager_only();
        let result = materialize_with_admission(
            &file,
            StoreChoice::Columnar,
            &config,
            (0..50).collect(),
            50,
            0,
            false,
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Eager);
        assert_eq!(result.data.record_count(), 50);
        assert!(matches!(result.data, CacheData::Columnar(_)));
        assert!(result.caching_ns > 0);
    }

    #[test]
    fn forced_lazy_keeps_offsets_only() {
        let file = csv_file(100);
        let config = AdmissionConfig::lazy_only();
        let result = materialize_with_admission(
            &file,
            StoreChoice::Columnar,
            &config,
            vec![5, 1, 5, 9],
            4,
            0,
            false,
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Lazy);
        match &result.data {
            CacheData::Offsets(s) => assert_eq!(s.record_ids(), &[1, 5, 9]),
            other => panic!("expected offsets, got {other:?}"),
        }
    }

    #[test]
    fn tiny_to1_forces_lazy_under_reactive_policy() {
        // Caching cost dominates a nearly-free query: overhead ~100%,
        // far above the 10% threshold -> lazy.
        let file = csv_file(2000);
        let config = AdmissionConfig::default();
        let result = materialize_with_admission(
            &file,
            StoreChoice::Columnar,
            &config,
            (0..2000).collect(),
            2000,
            1, // to1: 1ns of prior query work
            false,
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Lazy);
        assert!(result.overhead > 0.9, "overhead {}", result.overhead);
    }

    #[test]
    fn huge_to1_stays_eager() {
        let file = csv_file(200);
        let config = AdmissionConfig::default();
        let result = materialize_with_admission(
            &file,
            StoreChoice::Dremel,
            &config,
            (0..200).collect(),
            200,
            u64::MAX / 4, // prior work dwarfs caching
            false,
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Eager);
        assert!(matches!(result.data, CacheData::Dremel(_)));
    }

    #[test]
    fn working_set_goes_eager_despite_overhead() {
        let file = csv_file(500);
        let config = AdmissionConfig::default();
        let result = materialize_with_admission(
            &file,
            StoreChoice::Row,
            &config,
            (0..500).collect(),
            500,
            1,
            true, // file already has cached entries
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Eager);
        assert!(matches!(result.data, CacheData::Row(_)));
    }

    #[test]
    fn upgrade_produces_equivalent_store() {
        let file = csv_file(100);
        let offsets = OffsetStore::build(vec![2, 4, 6], 3);
        let (data, ns) = upgrade_to_eager(&file, StoreChoice::Columnar, &offsets).unwrap();
        assert!(ns > 0);
        match data {
            CacheData::Columnar(store) => {
                assert_eq!(store.record_count(), 3);
                assert_eq!(store.value(0, 0), Value::Int(2));
                assert_eq!(store.value(2, 0), Value::Int(6));
            }
            other => panic!("expected columnar, got {other:?}"),
        }
    }

    /// A mapped nested JSON file (TPC-H `orderLineitems`) and fresh
    /// parses of its records, read with no positional map.
    fn nested_json_file() -> (RawFile, Vec<Value>) {
        let schema = tpch::order_lineitems_schema();
        let bytes = json::write_json(&schema, &tpch::gen_order_lineitems(0.0005, 5));
        let fresh: Vec<Value> = bytes
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .map(|line| json::parse_record(line, &schema, None).unwrap())
            .collect();
        let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
        let accessed: Vec<bool> = (0..file.leaves().len()).map(|i| i == 1).collect();
        file.scan_projected(&accessed, &mut |_, _| {}).unwrap();
        (file, fresh)
    }

    /// The Dremel store built from fresh parses of `ids`.
    fn fresh_dremel(file: &RawFile, fresh: &[Value], ids: &[u32]) -> DremelStore {
        let records: Vec<&Value> = ids.iter().map(|&id| &fresh[id as usize]).collect();
        DremelStore::build(file.schema(), records)
    }

    fn assert_dremel_eq(data: &CacheData, expected: &DremelStore, ids: &[u32]) {
        let CacheData::Dremel(store) = data else {
            panic!("expected a Dremel store, got {data:?}")
        };
        assert_eq!(store.to_records(), expected.to_records());
        assert_eq!(store.source_record_ids(), Some(ids));
    }

    #[test]
    fn eager_dremel_materialization_of_nested_json_equals_fresh_parses() {
        let (file, fresh) = nested_json_file();
        let ids: Vec<u32> = (0..fresh.len() as u32).filter(|i| i % 3 != 1).collect();
        let result = materialize_with_admission(
            &file,
            StoreChoice::Dremel,
            &AdmissionConfig::eager_only(),
            ids.iter().rev().copied().collect(),
            ids.len(),
            0,
            false,
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Eager);
        assert_dremel_eq(&result.data, &fresh_dremel(&file, &fresh, &ids), &ids);
    }

    #[test]
    fn upgrading_nested_json_to_dremel_equals_fresh_parses() {
        let (file, fresh) = nested_json_file();
        let ids: Vec<u32> = (0..fresh.len() as u32).filter(|i| i % 5 == 2).collect();
        let offsets = OffsetStore::build(ids.clone(), ids.len());
        let (data, _) = upgrade_to_eager(&file, StoreChoice::Dremel, &offsets).unwrap();
        assert_dremel_eq(&data, &fresh_dremel(&file, &fresh, &ids), &ids);
    }

    #[test]
    fn empty_satisfying_set_yields_empty_store() {
        let file = csv_file(10);
        let config = AdmissionConfig::eager_only();
        let result =
            materialize_with_admission(&file, StoreChoice::Columnar, &config, vec![], 0, 0, false)
                .unwrap();
        assert_eq!(result.data.record_count(), 0);
    }
}

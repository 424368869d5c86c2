//! Cache entries built straight from the positional map are the entries
//! the `Value` path builds: at sf 0.001, over the TPC-H `lineitem` CSV
//! and the nested `orderLineitems` JSON, every layout materialized from
//! the raw records equals the store built from `read_records`' values.
//! A persistent fault on the append after the admission sample fails
//! the build with a typed error and admits nothing; once the fault
//! clears, the retried entry equals a fault-free build. Batched CSV
//! scans answer over invalid UTF-8 as the row path does.
//!
//! The CI `chaos` job runs this suite under `RECACHE_FAULT_SEED`.

use recache::data::gen::tpch;
use recache::data::{csv, json, FaultKind, FaultPlan, FaultSite, FileFormat, RawFile};
use recache::layout::{CacheData, ColumnStore, DremelStore, OffsetStore, RowStore};
use recache::materialize::{materialize_with_admission, upgrade_to_eager, StoreChoice};
use recache::types::{DataType, Error, Field, Schema, Value};
use recache::{Admission, QueryRequest, ReCache};
use std::sync::Arc;

/// Fault seed: CI sweeps it via `RECACHE_FAULT_SEED`; any value must
/// pass.
fn fault_seed() -> u64 {
    std::env::var("RECACHE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

const SF: f64 = 0.001;

/// The two sources at [`SF`]: `lineitem` as CSV and `orderLineitems`
/// as nested JSON.
fn sources() -> [(&'static str, FileFormat, Schema, Vec<u8>); 2] {
    let lineitem = tpch::lineitem_schema();
    let (_, rows) = tpch::gen_orders_and_lineitems(SF, 7);
    let csv_bytes = csv::write_csv(&lineitem, &rows);
    let nested = tpch::order_lineitems_schema();
    let json_bytes = json::write_json(&nested, &tpch::gen_order_lineitems(SF, 7));
    [
        ("lineitem", FileFormat::Csv, lineitem, csv_bytes),
        ("orderLineitems", FileFormat::Json, nested, json_bytes),
    ]
}

/// A raw file whose first scan, over one leaf, built its positional map.
fn mapped_file(format: FileFormat, schema: &Schema, bytes: &[u8]) -> RawFile {
    let file = RawFile::from_bytes(bytes.to_vec(), format, schema.clone());
    let accessed: Vec<bool> = (0..file.leaves().len()).map(|leaf| leaf == 1).collect();
    file.scan_projected(&accessed, &mut |_, _| {}).unwrap();
    file
}

/// The store the layout builds from `read_records`' values.
fn value_built(file: &RawFile, ids: &[u32], choice: StoreChoice) -> CacheData {
    let records = file.read_records(ids).unwrap();
    let schema = file.schema();
    match choice {
        StoreChoice::Columnar => {
            let mut store = ColumnStore::build(schema, &records);
            store.set_source_record_ids(ids.to_vec());
            CacheData::Columnar(Arc::new(store))
        }
        StoreChoice::Dremel => {
            let mut store = DremelStore::build(schema, &records);
            store.set_source_record_ids(ids.to_vec());
            CacheData::Dremel(Arc::new(store))
        }
        StoreChoice::Row => {
            let mut store = RowStore::build(schema, &records);
            store.set_source_record_ids(ids.to_vec());
            CacheData::Row(Arc::new(store))
        }
    }
}

fn assert_same_store(got: &CacheData, want: &CacheData, case: &str) {
    match (got, want) {
        (CacheData::Columnar(a), CacheData::Columnar(b)) => assert_eq!(a, b, "{case}"),
        (CacheData::Dremel(a), CacheData::Dremel(b)) => assert_eq!(a, b, "{case}"),
        (CacheData::Row(a), CacheData::Row(b)) => assert_eq!(a, b, "{case}"),
        _ => panic!("{case}: {:?} vs {:?}", got.layout(), want.layout()),
    }
}

#[test]
fn direct_stores_equal_value_built_stores() {
    for (name, format, schema, bytes) in sources() {
        let file = mapped_file(format, &schema, &bytes);
        let n = file.record_count().unwrap() as u32;
        let ids: Vec<u32> = (0..n).step_by(7).collect();
        assert!(ids.len() > 200, "{name}: {} ids", ids.len());
        for choice in [StoreChoice::Columnar, StoreChoice::Dremel, StoreChoice::Row] {
            let case = format!("{name} {choice:?}");
            let want = value_built(&file, &ids, choice);
            let eager = materialize_with_admission(
                &file,
                choice,
                &Admission::eager_only(),
                ids.iter().rev().copied().collect(),
                ids.len(),
                0,
                false,
            )
            .unwrap();
            assert_same_store(&eager.data, &want, &case);
            let offsets = OffsetStore::build(ids.clone(), ids.len());
            let (upgraded, _) = upgrade_to_eager(&file, choice, &offsets).unwrap();
            assert_same_store(&upgraded, &want, &format!("{case} upgrade"));
        }
    }
}

/// Sample size for the fault tests: small, so the post-sample append
/// has records to read.
const SAMPLE: usize = 16;

/// A persistent-fault plan, searched from the CI seed, under which the
/// first `clean` row-scan gates pass and the next one fails — and, for
/// batched first scans, every chunk of the grid passes.
fn plan_failing_row_scan(clean: u64, chunks: u64) -> FaultPlan {
    (fault_seed()..)
        .map(|seed| FaultPlan::new(seed).persistent(0.5))
        .find(|plan| {
            (0..clean).all(|ordinal| plan.decide(FaultSite::RowScan, ordinal, 0).is_none())
                && plan.decide(FaultSite::RowScan, clean, 0) == Some(FaultKind::PersistentIo)
                && (0..chunks).all(|chunk| plan.decide(FaultSite::Chunk, chunk, 0).is_none())
        })
        .expect("some seed faults exactly there")
}

#[test]
fn a_persistent_fault_after_the_sample_fails_the_build_with_a_typed_error() {
    for (name, format, schema, bytes) in sources() {
        let file = mapped_file(format, &schema, &bytes);
        let n = file.record_count().unwrap() as u32;
        let ids: Vec<u32> = (0..n).step_by(3).collect();
        let choice = if format == FileFormat::Json {
            StoreChoice::Dremel
        } else {
            StoreChoice::Columnar
        };
        let config = Admission {
            sample_records: SAMPLE,
            ..Admission::eager_only()
        };
        let materialize =
            || materialize_with_admission(&file, choice, &config, ids.clone(), ids.len(), 0, false);
        // Gate 0 is the sample's append, gate 1 the rest's.
        file.set_fault_plan(Some(plan_failing_row_scan(1, 0)));
        let err = materialize().err().expect("the post-sample append faults");
        assert!(matches!(err, Error::Io(_)), "{name}: untyped error {err}");
        file.set_fault_plan(None);
        let retried = materialize().unwrap();
        assert_same_store(&retried.data, &value_built(&file, &ids, choice), name);
    }
}

#[test]
fn a_faulted_build_admits_nothing_and_the_retry_admits_the_fault_free_entry() {
    for (name, format, schema, bytes) in sources() {
        let query = match format {
            FileFormat::Csv => {
                "SELECT count(*), sum(l_extendedprice) FROM lineitem \
                 WHERE l_quantity >= 5 AND l_quantity <= 30"
            }
            FileFormat::Json => {
                "SELECT count(*), sum(o_totalprice) FROM orderLineitems \
                 WHERE o_custkey >= 10 AND o_custkey <= 90"
            }
        };
        let session = |plan: Option<FaultPlan>| {
            let mut session = ReCache::builder()
                .admission(Admission {
                    sample_records: SAMPLE,
                    ..Admission::eager_only()
                })
                .result_cache_enabled(false)
                .build();
            match format {
                FileFormat::Csv => session.register_csv_bytes(name, bytes.clone(), schema.clone()),
                FileFormat::Json => {
                    session.register_json_bytes(name, bytes.clone(), schema.clone())
                }
            }
            session.set_fault_plan(name, plan);
            session
        };
        let clean = session(None);
        let answer = clean
            .execute(&QueryRequest::sql(query))
            .unwrap()
            .rows
            .clone();
        let entries = clean.cache().snapshot();
        assert_eq!(entries.len(), 1, "{name}");

        // A batched first scan passes chunk gates and leaves the
        // row-scan gates to materialization; a row-path first scan takes
        // gate 0 itself.
        let source = clean.source(name).unwrap();
        let (clean_gates, chunks) = if source.supports_batch_scan() {
            (1, source.batch_chunks() as u64)
        } else {
            (2, 0)
        };
        let faulted = session(Some(plan_failing_row_scan(clean_gates, chunks)));
        let response = faulted.execute(&QueryRequest::sql(query)).unwrap();
        assert_eq!(
            response.rows, answer,
            "{name}: a failed build changed the answer"
        );
        let counters = faulted.cache().counters();
        assert_eq!(counters.admissions, 0, "{name}: a failed build admitted");
        assert_eq!(counters.failed_scans, 1, "{name}");
        let residents = faulted.cache().snapshot().len() as u64;
        assert_eq!(
            counters.admissions,
            residents + counters.evictions + counters.removals,
            "{name}: admissions do not reconcile"
        );

        faulted.set_fault_plan(name, None);
        let retry = faulted.execute(&QueryRequest::sql(query)).unwrap();
        assert_eq!(retry.rows, answer, "{name}");
        let retried = faulted.cache().snapshot();
        assert_eq!(retried.len(), 1, "{name}: the retry admits");
        assert_same_store(&retried[0].data, &entries[0].data, name);
    }
}

/// Vectorized scans over a CSV field with invalid UTF-8 answer as the
/// row path does, on the first (tokenizing) scan and on mapped scans.
#[test]
fn batched_csv_scans_answer_over_invalid_utf8_like_the_row_path() {
    let schema = Schema::new(vec![
        Field::required("k", DataType::Int),
        Field::new("s", DataType::Str),
    ]);
    let bytes = b"1|zz\xFFb\n2|aa\n3|mm\n".to_vec();
    let queries = [
        "SELECT min(s), max(s) FROM t",
        "SELECT count(*) FROM t WHERE s = 'zz\u{FFFD}b'",
        "SELECT count(*) FROM t WHERE s >= 'n'",
    ];
    let answers = |vectorized: bool| {
        let mut session = ReCache::builder().no_caching().build();
        session.register_csv_bytes("t", bytes.clone(), schema.clone());
        let run = |sql: &str| {
            let request = QueryRequest::sql(sql).vectorized(vectorized);
            session.execute(&request).unwrap().rows.clone()
        };
        // First scans, then mapped scans.
        let first: Vec<_> = queries.iter().map(|sql| run(sql)).collect();
        let mapped: Vec<_> = queries.iter().map(|sql| run(sql)).collect();
        (first, mapped)
    };
    let (row_first, row_mapped) = answers(false);
    assert_eq!(
        row_first[0],
        vec![Value::from("aa"), Value::from("zz\u{FFFD}b")]
    );
    assert_eq!(row_first[1], vec![Value::Int(1)]);
    assert_eq!(row_first[2], vec![Value::Int(1)]);
    assert_eq!(row_first, row_mapped);
    let (first, mapped) = answers(true);
    assert_eq!(first, row_first, "vectorized first scan");
    assert_eq!(mapped, row_first, "vectorized mapped scan");
}

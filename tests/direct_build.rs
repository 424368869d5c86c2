//! Cache entries built straight from the positional map are the entries
//! the `Value` path builds: at sf 0.001, over the TPC-H `lineitem` CSV
//! and the nested `orderLineitems` JSON, every layout materialized from
//! the raw records equals the store built from `read_records`' values.
//! A persistent fault on the append after the admission sample fails
//! the build with a typed error and admits nothing; once the fault
//! clears, the retried entry equals a fault-free build. Batched CSV
//! scans answer over invalid UTF-8 as the row path does. A layout
//! switch rebuilds the entry from the raw file by its record ids into
//! the store a fresh build makes, draws no injected faults, and does not
//! happen while the file has no positional map. A nested columnar entry
//! is the store of flattening `read_records`' values on every build
//! path, including for a record the map holds no structure tape for.
//!
//! The CI `chaos` job runs this suite under `RECACHE_FAULT_SEED`.

use rand::{rngs::StdRng, Rng, SeedableRng};
use recache::data::gen::tpch;
use recache::data::{
    csv, json, FaultKind, FaultPlan, FaultSite, FileFormat, PositionalMap, RawFile,
};
use recache::engine::exec::{self, BuildRequest, ExecOptions};
use recache::engine::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache::layout::LayoutKind;
use recache::layout::{CacheData, ColumnStore, DremelBuilder, DremelStore, OffsetStore};
use recache::materialize::{
    materialize_with_admission, switch_layout, upgrade_to_eager, StoreChoice,
};
use recache::types::{flatten_record, DataType, Error, Field, Schema, Value};
use recache::workload::{spa_workload, Domains, PoolPhase, SpaConfig};
use recache::{Admission, LayoutPolicy, QueryRequest, ReCache};
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
    }
}

fn assert_same_store(got: &CacheData, want: &CacheData, case: &str) {
    match (got, want) {
        (CacheData::Columnar(a), CacheData::Columnar(b)) => assert_eq!(a, b, "{case}"),
        (CacheData::Dremel(a), CacheData::Dremel(b)) => assert_eq!(a, b, "{case}"),
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
        for choice in [StoreChoice::Columnar, StoreChoice::Dremel] {
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

/// A random type of a field at `depth` (the schema's fields are at 1):
/// scalars of all four types, and below depth 3 lists and structs, so
/// lists of structs of lists occur.
fn random_type(rng: &mut StdRng, depth: u32) -> DataType {
    let scalars = [
        DataType::Int,
        DataType::Float,
        DataType::Str,
        DataType::Bool,
    ];
    match rng.random_range(0..if depth < 3 { 8 } else { 4 }) {
        k @ 0..=3 => scalars[k].clone(),
        4 | 5 => DataType::List(Box::new(random_type(rng, depth + 1))),
        _ => DataType::Struct(random_fields(rng, depth + 1, 1..5)),
    }
}

/// Fields of random types, nullable and required alike, as many as a
/// draw from `widths`.
fn random_fields(rng: &mut StdRng, depth: u32, widths: std::ops::Range<usize>) -> Vec<Field> {
    (0..rng.random_range(widths))
        .map(|i| {
            let ty = random_type(rng, depth);
            match rng.random_bool(0.7) {
                true => Field::new(format!("f{i}"), ty),
                false => Field::required(format!("f{i}"), ty),
            }
        })
        .collect()
}

/// A random schema. Every third one has a root of more than 64 fields,
/// one of them a list of a struct of more than 64 fields, so a wide
/// struct is walked inside another.
fn random_tape_schema(rng: &mut StdRng, case: usize) -> Schema {
    if !case.is_multiple_of(3) {
        return Schema::new(random_fields(rng, 1, 1..6));
    }
    let mut fields = random_fields(rng, 2, 65..80);
    let wide = DataType::Struct(random_fields(rng, 3, 65..72));
    let at = rng.random_range(0..fields.len());
    fields[at] = Field::new(format!("f{at}"), DataType::List(Box::new(wide)));
    Schema::new(fields)
}

/// Appends a scalar literal for a leaf of type `ty`: its own kind, or
/// one of the edge literals (the other number kind, out-of-range
/// integers, escapes, other kinds), or — at rate `damage` — a literal
/// no parse accepts.
fn random_scalar(rng: &mut StdRng, ty: &DataType, damage: f64, out: &mut Vec<u8>) {
    const EDGE: &[&[u8]] = &[
        b"true",
        b"false",
        b"-0",
        b"1.5",
        b"1e3",
        b"-2.5E-3",
        b"1234567890123456789",
        b"-9223372036854775809",
        b"12345678901234567890123",
        b"\"7\"",
        b"\"a\\\"b\\\\c\\u00e9\\n\"",
        b"\"caf\xc3\xa9\"",
    ];
    const DAMAGED: &[&[u8]] = &[b"\"bad\xffutf8\"", b"\"\\q\"", b"1e", b"--4", b"-"];
    if rng.random_bool(damage) {
        return out.extend_from_slice(DAMAGED[rng.random_range(0..DAMAGED.len())]);
    }
    if rng.random_bool(0.25) {
        return out.extend_from_slice(EDGE[rng.random_range(0..EDGE.len())]);
    }
    let own = match ty {
        DataType::Int => format!("{}", rng.random_range(-1000..1000i64)),
        DataType::Float => format!("{:.2}", rng.random_range(-100.0..100.0)),
        DataType::Bool => ["true", "false"][rng.random_range(0..2)].to_string(),
        _ => format!("\"s{}\"", rng.random_range(0..9)),
    };
    out.extend_from_slice(own.as_bytes());
}

/// Appends a hostile JSON value for a node of type `ty`: mostly well
/// typed, with explicit nulls, empty lists, containers of the wrong
/// kind (or scalars where containers belong) mixed in.
fn random_value(rng: &mut StdRng, ty: &DataType, damage: f64, out: &mut Vec<u8>) {
    let container = matches!(ty, DataType::List(_) | DataType::Struct(_));
    match rng.random_range(0..14) {
        0 => return out.extend_from_slice(b"null"),
        1 => return out.extend_from_slice(b"[]"),
        2 => return out.extend_from_slice(b"{\"f0\":1}"),
        3 if container => return random_scalar(rng, &DataType::Int, damage, out),
        _ => {}
    }
    match ty {
        DataType::List(inner) => {
            out.push(b'[');
            for i in 0..rng.random_range(0..4) {
                if i > 0 {
                    out.push(b',');
                }
                random_value(rng, inner, damage, out);
            }
            out.push(b']');
        }
        DataType::Struct(fields) => random_object(rng, fields, damage, out),
        scalar => random_scalar(rng, scalar, damage, out),
    }
}

/// Appends an object for `fields`: keys in shuffled order, some absent,
/// some repeated (the first occurrence possibly damaged), some escaped,
/// and unknown keys holding nested junk.
fn random_object(rng: &mut StdRng, fields: &[Field], damage: f64, out: &mut Vec<u8>) {
    let mut keys: Vec<usize> = (0..fields.len())
        .filter(|_| rng.random_bool(0.85))
        .collect();
    for _ in 0..rng.random_range(0..3) {
        if !keys.is_empty() {
            let key = keys[rng.random_range(0..keys.len())];
            keys.insert(rng.random_range(0..=keys.len()), key);
        }
    }
    for i in (1..keys.len()).rev() {
        if rng.random_bool(0.3) {
            keys.swap(i, rng.random_range(0..=i));
        }
    }
    out.push(b'{');
    for (n, &key) in keys.iter().enumerate() {
        if n > 0 {
            out.push(b',');
        }
        if rng.random_bool(0.05) {
            out.extend_from_slice(b"\"zz\":{\"a\":[1,{\"b\":\"}]\"}]},");
        }
        let name = &fields[key].name;
        if rng.random_bool(0.05) {
            // The same key, its first letter escaped.
            let escaped = format!("\"\\u{:04x}{}\":", name.as_bytes()[0], &name[1..]);
            out.extend_from_slice(escaped.as_bytes());
        } else {
            out.extend_from_slice(format!("\"{name}\":").as_bytes());
        }
        random_value(rng, &fields[key].data_type, damage, out);
    }
    out.push(b'}');
}

/// Over seeded random schemas and hostile records, shredding a record
/// through its structure tape builds the store of shredding
/// `parse_record`'s value, or fails with the same error — one record
/// at a time, and the whole file into one builder, whose store
/// reassembles to the parsed records.
#[test]
fn random_schemas_shred_through_the_tape_like_the_parsed_values() {
    let mut rng = StdRng::seed_from_u64(fault_seed() ^ 0x7A9E);
    let (mut taped, mut errors) = (0, 0);
    for case in 0..60 {
        let schema = random_tape_schema(&mut rng, case);
        let lines: Vec<Vec<u8>> = (0..rng.random_range(1..30))
            .map(|_| {
                let damage = if rng.random_bool(0.3) { 0.02 } else { 0.0 };
                let mut line = Vec::new();
                random_object(&mut rng, schema.fields(), damage, &mut line);
                line
            })
            .collect();
        let bytes = lines.join(&b'\n');
        let nothing = json::LeafProjection::new(&schema, &vec![false; schema.leaves().len()]);
        let map = json::scan_build_map(&bytes, &schema, Some(&nothing), |_, _| Ok(())).unwrap();
        let mut whole = DremelBuilder::new(&schema);
        let mut parsed = Vec::new();
        for (record, line) in lines.iter().enumerate() {
            let want = json::parse_record(line, &schema, None);
            let mut builder = DremelBuilder::new(&schema);
            let got = json::shred_record_at(&bytes, &schema, &map, record, &mut builder)
                .map(|()| builder.finish());
            let case = format!(
                "case {case} record {record}: {}",
                String::from_utf8_lossy(line)
            );
            match want {
                Ok(value) => {
                    assert_eq!(
                        got.unwrap(),
                        DremelStore::build(&schema, [&value]),
                        "{case}"
                    );
                    json::shred_record_at(&bytes, &schema, &map, record, &mut whole).unwrap();
                    parsed.push(value);
                }
                Err(err) => {
                    assert_eq!(got.unwrap_err().to_string(), err.to_string(), "{case}");
                    errors += 1;
                }
            }
            taped += usize::from(map.json_tape(record).is_some());
        }
        let whole = whole.finish();
        assert_eq!(whole, DremelStore::build(&schema, &parsed), "case {case}");
        // The level streams hold the records: reassembled, they flatten
        // to the parsed values' rows, which the walk also counted. (Wide
        // records, whose rows multiply across dozens of lists, are left
        // to the store comparison.)
        if !case.is_multiple_of(3) {
            let rows: Vec<_> = parsed.iter().map(|v| flatten_record(&schema, v)).collect();
            let rebuilt: Vec<_> = whole
                .to_records()
                .iter()
                .map(|v| flatten_record(&schema, v))
                .collect();
            assert_eq!(rebuilt, rows, "case {case}");
            let count: usize = rows.iter().map(Vec::len).sum();
            assert_eq!(whole.flattened_rows(), count, "case {case}");
        }
    }
    assert!(
        taped > 500 && errors > 50,
        "{taped} taped records, {errors} errors"
    );
}

/// The layout a switch from `choice` goes to.
fn other(choice: StoreChoice) -> StoreChoice {
    match choice {
        StoreChoice::Columnar => StoreChoice::Dremel,
        StoreChoice::Dremel => StoreChoice::Columnar,
    }
}

/// Switching a fresh build of `ids` in either layout gives the fresh
/// build of the other, at 100 %, 30 % and 5 % of `ids`.
fn assert_switches_equal_fresh_builds(file: &RawFile, ids: &[u32], case: &str) {
    let subsets: [Vec<u32>; 3] = [
        ids.to_vec(),
        ids.iter().copied().filter(|i| i % 10 < 3).collect(),
        ids.iter().copied().filter(|i| i % 20 == 0).collect(),
    ];
    for ids in &subsets {
        for from in [StoreChoice::Columnar, StoreChoice::Dremel] {
            let to = other(from);
            let case = format!("{case}: {from:?} -> {to:?} over {} ids", ids.len());
            let current = value_built(file, ids, from);
            let (switched, _) = switch_layout(file, to, &current).expect(&case);
            assert_same_store(&switched, &value_built(file, ids, to), &case);
        }
    }
}

/// A switch equals a fresh build of the new layout, over the nested
/// source and over seeded random schemas with hostile records (the
/// entry holds only the records that parse).
#[test]
fn switches_equal_fresh_builds() {
    let (name, format, schema, bytes) = sources()[1].clone();
    let file = mapped_file(format, &schema, &bytes);
    let ids: Vec<u32> = (0..file.record_count().unwrap() as u32).collect();
    assert_switches_equal_fresh_builds(&file, &ids, name);

    let mut rng = StdRng::seed_from_u64(fault_seed() ^ 0x5A17);
    // Wide schemas (every third case) are left out: their records
    // flatten to rows multiplied across dozens of lists.
    for case in (0..45usize).filter(|case| !case.is_multiple_of(3)) {
        let schema = random_tape_schema(&mut rng, case);
        let lines: Vec<Vec<u8>> = (0..rng.random_range(1..40))
            .map(|_| {
                let damage = if rng.random_bool(0.3) { 0.02 } else { 0.0 };
                let mut line = Vec::new();
                random_object(&mut rng, schema.fields(), damage, &mut line);
                line
            })
            .collect();
        let ids: Vec<u32> = (0..lines.len() as u32)
            .filter(|&i| json::parse_record(&lines[i as usize], &schema, None).is_ok())
            .collect();
        let file = RawFile::from_bytes(lines.join(&b'\n'), FileFormat::Json, schema);
        let nothing = vec![false; file.leaves().len()];
        file.scan_projected(&nothing, &mut |_, _| {}).unwrap();
        assert_switches_equal_fresh_builds(&file, &ids, &format!("case {case}"));
    }
}

/// A switch reads the raw records through no fault gate: under a plan
/// that fails every chunk and every row scan it still succeeds, and it
/// leaves the row-scan ordinals where they were, so a seeded fault
/// sequence does not move.
#[test]
fn a_switch_draws_no_faults() {
    for (name, format, schema, bytes) in sources() {
        let file = mapped_file(format, &schema, &bytes);
        let ids: Vec<u32> = (0..file.record_count().unwrap() as u32)
            .step_by(3)
            .collect();
        for from in [StoreChoice::Columnar, StoreChoice::Dremel] {
            let case = format!("{name} {from:?}");
            let current = value_built(&file, &ids, from);
            let want = value_built(&file, &ids, other(from));
            file.set_fault_plan(Some(FaultPlan::new(fault_seed()).persistent(1.0)));
            let (switched, _) = switch_layout(&file, other(from), &current).expect(&case);
            assert_same_store(&switched, &want, &case);
            file.set_fault_plan(None);
        }
        // Row-scan gate 0 passes and gate 1 fails: a switch in between
        // takes neither.
        let current = value_built(&file, &ids, StoreChoice::Dremel);
        file.set_fault_plan(Some(plan_failing_row_scan(1, 0)));
        switch_layout(&file, StoreChoice::Columnar, &current).expect(name);
        assert!(file.read_records(&ids[..1]).is_ok(), "{name}: gate 0 moved");
        assert!(
            file.read_records(&ids[..1]).is_err(),
            "{name}: gate 1 passed"
        );
        // The plan the switches ran under fails a gated read.
        file.set_fault_plan(Some(FaultPlan::new(fault_seed()).persistent(1.0)));
        assert!(
            file.read_records(&ids[..1]).is_err(),
            "{name}: a gate passed"
        );
        file.set_fault_plan(None);
    }
}

/// With the positional map dropped (`reset_scan_state`), a switch the
/// layout model has decided on does not happen: the entry keeps its
/// layout and bytes, and every answer equals the uncached session's.
/// Once the file is mapped again, the switch goes through, and the new
/// store equals a fresh build.
#[test]
fn a_switch_without_a_positional_map_keeps_the_entry() {
    let (name, _, schema, bytes) = sources()[1].clone();
    let session = |builder: recache::ReCacheBuilder| {
        let mut session = builder.result_cache_enabled(false).build();
        session.register_json_bytes(name, bytes.clone(), schema.clone());
        session
    };
    let cached = session(
        ReCache::builder()
            .layout_policy(LayoutPolicy::Auto)
            .admission(Admission::eager_only()),
    );
    let reference = session(ReCache::builder().no_caching());
    let run = |session: &ReCache, spec: &recache::sql::QuerySpec| {
        session.execute(&QueryRequest::spec(spec.clone())).unwrap()
    };
    let whole = recache::sql::parse_query(&format!("SELECT count(*) FROM {name}")).unwrap();
    run(&cached, &whole);
    let entries = cached.cache().snapshot();
    assert_eq!(entries.len(), 1);
    let (id, bytes_before) = (entries[0].id, entries[0].data.byte_size());
    assert_eq!(entries[0].data.layout(), LayoutKind::Dremel);

    let records = tpch::gen_order_lineitems(SF, 7);
    let domains = Domains::compute(&schema, records.iter());
    let specs = spa_workload(
        name,
        &domains,
        &[(PoolPhase::AllAttrs, 60)],
        &SpaConfig::default(),
        3,
    );
    let source = cached.source(name).unwrap();
    for spec in &specs {
        source.reset_scan_state();
        let response = run(&cached, spec);
        assert_eq!(response.rows, run(&reference, spec).rows, "{spec:?}");
        assert!(response
            .stats
            .tables
            .iter()
            .all(|t| t.layout_switch.is_none()));
        let entry = cached.cache().with_entry(id, |e| e.data.clone()).unwrap();
        assert_eq!(entry.layout(), LayoutKind::Dremel);
        assert_eq!(entry.byte_size(), bytes_before);
    }
    let due = cached.cache().with_entry_mut(id, |e| {
        e.history
            .decide_nested(e.data.layout(), e.data.flattened_rows())
    });
    assert_eq!(
        due,
        Some(recache::cache::layout_model::LayoutDecision::SwitchToColumnar),
        "the phase makes the switch due"
    );

    source
        .scan_projected(&vec![false; source.leaves().len()], &mut |_, _| {})
        .unwrap();
    let response = run(&cached, &specs[0]);
    assert_eq!(response.rows, run(&reference, &specs[0]).rows);
    let switched: Vec<_> = response
        .stats
        .tables
        .iter()
        .filter_map(|t| t.layout_switch)
        .collect();
    assert_eq!(switched, [(LayoutKind::Dremel, LayoutKind::Columnar)]);
    let entry = cached.cache().with_entry(id, |e| e.data.clone()).unwrap();
    let ids = entry.source_record_ids().unwrap().to_vec();
    assert_same_store(
        &entry,
        &value_built(source, &ids, StoreChoice::Columnar),
        name,
    );
}

/// `map` without record `untaped`'s structure tape: readers parse that
/// record from its bytes.
fn without_tape(map: &PositionalMap, untaped: usize) -> PositionalMap {
    let mut starts = vec![0u64];
    let mut words = Vec::new();
    for record in 0..map.record_count() {
        if record != untaped {
            words.extend_from_slice(map.json_tape(record).unwrap_or_default());
        }
        starts.push(words.len() as u64);
    }
    PositionalMap::with_json_tape(map.record_offsets().to_vec(), starts, words)
}

/// The columnar entry of `ids` — built after a scan, inside the pass of
/// a scan over their lazy entry, by an upgrade of that entry and by a
/// switch from their Dremel entry — is `ColumnStore::build` over
/// `read_records(ids)`. So is the in-pass build through a map that holds
/// no tape for one of the records, and that map holds none for it.
fn assert_columnar_builds_equal_value_built(file: &Arc<RawFile>, ids: &[u32], case: &str) {
    let choice = StoreChoice::Columnar;
    let want = value_built(file, ids, choice);
    let admission = Admission::eager_only();
    let post = materialize_with_admission(file, choice, &admission, ids.to_vec(), 0, 0, false);
    assert_same_store(
        &post.expect(case).data,
        &want,
        &format!("{case}: post-scan"),
    );
    let lazy = Arc::new(OffsetStore::build(ids.to_vec(), ids.len()));
    let (upgraded, _) = upgrade_to_eager(file, choice, &lazy).expect(case);
    assert_same_store(&upgraded, &want, &format!("{case}: upgrade"));
    let dremel = value_built(file, ids, StoreChoice::Dremel);
    let (switched, _) = switch_layout(file, choice, &dremel).expect(case);
    assert_same_store(&switched, &want, &format!("{case}: switch"));

    let plan = QueryPlan {
        tables: vec![TablePlan {
            name: "t".into(),
            access: AccessPath::Offsets {
                file: Arc::clone(file),
                store: lazy,
            },
            accessed: Vec::new(),
            predicate: None,
            record_level: true,
            collect_satisfying: false,
        }],
        joins: Vec::new(),
        aggregates: vec![AggSpec {
            table: 0,
            slot: None,
            func: AggFunc::Count,
        }],
    };
    let map = file.posmap().expect("a mapped file");
    let untaped = ids[ids.len() / 2] as usize;
    let maps = [Arc::clone(&map), Arc::new(without_tape(&map, untaped))];
    assert!(maps[1].json_tape(untaped).is_none(), "{case}");
    for (map, threads) in maps.into_iter().zip([2, 1]) {
        let request = BuildRequest { choice, map };
        let options = ExecOptions::with_threads(threads);
        let mut out = exec::execute_building(&plan, &options, Some(&request)).expect(case);
        let built = out.stats.tables[0].built.take().expect("the pass builds");
        let case = format!("{case}: in-pass at {threads} threads");
        assert_same_store(&built.expect(&case), &want, &case);
    }
}

/// Nested columnar entries equal the stores of flattening the parsed
/// records on every build path, over the nested source (also as a
/// `FixedColumnar` session admits them) and over 30 seeded schemas with
/// hostile records (the entry holds only the records that parse).
#[test]
fn nested_columnar_builds_equal_value_built_stores() {
    let (name, format, schema, bytes) = sources()[1].clone();
    let file = Arc::new(mapped_file(format, &schema, &bytes));
    let ids: Vec<u32> = (0..file.record_count().unwrap() as u32)
        .step_by(3)
        .collect();
    assert_columnar_builds_equal_value_built(&file, &ids, name);

    let mut session = ReCache::builder()
        .layout_policy(LayoutPolicy::FixedColumnar)
        .admission(Admission::eager_only())
        .result_cache_enabled(false)
        .build();
    session.register_json_bytes(name, bytes, schema.clone());
    let domains = Domains::compute(&schema, tpch::gen_order_lineitems(SF, 7).iter());
    let specs = spa_workload(
        name,
        &domains,
        &[(PoolPhase::AllAttrs, 20)],
        &SpaConfig::default(),
        5,
    );
    let mut in_pass = 0;
    for spec in &specs {
        let response = session.execute(&QueryRequest::spec(spec.clone())).unwrap();
        in_pass += usize::from(response.stats.exec.tables.iter().any(|t| t.build_ns > 0));
    }
    assert!(in_pass > 0, "some entry is built inside its scan");
    let source = session.source(name).unwrap();
    let entries = session.cache().snapshot();
    assert!(entries.len() > 1, "{} entries", entries.len());
    for entry in &entries {
        assert_eq!(entry.data.layout(), LayoutKind::Columnar);
        let ids = entry.data.source_record_ids().unwrap();
        let want = value_built(source, ids, StoreChoice::Columnar);
        assert_same_store(&entry.data, &want, &format!("{name}: session entry"));
    }

    let mut rng = StdRng::seed_from_u64(fault_seed() ^ 0xC01A);
    // Wide schemas (every third case) are left out: their records
    // flatten to rows multiplied across dozens of lists.
    for case in (0..45usize).filter(|case| !case.is_multiple_of(3)) {
        let schema = random_tape_schema(&mut rng, case);
        let lines: Vec<Vec<u8>> = (0..rng.random_range(2..40))
            .map(|_| {
                let damage = if rng.random_bool(0.3) { 0.02 } else { 0.0 };
                let mut line = Vec::new();
                random_object(&mut rng, schema.fields(), damage, &mut line);
                line
            })
            .collect();
        let ids: Vec<u32> = (0..lines.len() as u32)
            .filter(|&i| json::parse_record(&lines[i as usize], &schema, None).is_ok())
            .collect();
        if ids.is_empty() {
            continue;
        }
        let file = RawFile::from_bytes(lines.join(&b'\n'), FileFormat::Json, schema);
        let nothing = vec![false; file.leaves().len()];
        file.scan_projected(&nothing, &mut |_, _| {}).unwrap();
        assert_columnar_builds_equal_value_built(&Arc::new(file), &ids, &format!("case {case}"));
    }
}

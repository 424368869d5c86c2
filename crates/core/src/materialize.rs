//! Cache materialization with reactive admission (§5.2), after the scan.
//!
//! Most eager entries are built inside the scan itself: when eager is
//! decided before a single-table scan over a mapped file — admission is
//! forced eager, or the source is in the working set — or when a lazy
//! entry is reused, each scan task appends its chunks' records to its
//! own [`EntryBuilder`] and the parts merge once (see
//! `recache_engine::exec::BuildRequest`). This module builds the rest
//! after the scan, from the satisfying record ids, through the positional
//! map: sampled admissions, first scans (no map yet), joins and the row
//! path.
//!
//! Sampled admission starts eagerly: the first `sample_records` records
//! are appended to the entry's builder and timed, the caching overhead is
//! extrapolated (`tc/to`), and if it exceeds the threshold the build
//! aborts and only the offsets are kept (lazy). Otherwise the rest of the
//! records go into the same builder. A lazy entry that gets reused is
//! upgraded to an eager store by the same builder when its by-id scan did
//! not build one, and a §4.2 layout switch rebuilds an eager entry in the
//! new layout the same way, by the record ids it holds.
//!
//! The builder reads the raw records in place, with no `Value` tree in
//! between: a Dremel entry is shredded from each nested JSON record's
//! structure tape, a nested columnar entry takes the rows of flattening
//! that tape, and a flat columnar entry parses each CSV field from its
//! span straight into its column (a CSV Dremel entry and a flat JSON
//! columnar one go one parsed record at a time).

use recache_cache::admission::{decide, estimate_overhead, AdmissionConfig, AdmissionDecision};
use recache_data::{EntryBuilder, RawFile};
use recache_layout::{CacheData, OffsetStore};
use recache_types::Result;
use std::sync::Arc;
use std::time::Instant;

pub use recache_data::StoreChoice;

/// Outcome of a materialization attempt.
pub struct MaterializeResult {
    pub data: CacheData,
    /// Wall time charged to caching (`c`), including any wasted sample.
    pub caching_ns: u64,
    pub decision: AdmissionDecision,
    /// The extrapolated overhead that drove the decision.
    pub overhead: f64,
}

/// Materializes a new cache entry for `file` from the satisfying record
/// ids, applying the reactive admission policy.
///
/// * `to1_ns` — query time already spent before caching began,
/// * `flattened_rows` — satisfying flattened rows (stat for lazy stores),
/// * `working_set` — the source is in the working set: an entry from it
///   is cached and has been reused
///   (`CacheRegistry::source_in_working_set`), so admission goes eager
///   without heeding the sample.
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

    // Eager sample: the first K records go into the entry's builder.
    let total = record_ids.len();
    let sample_n = config.sample_records.min(total).max(1.min(total));
    let mut builder = EntryBuilder::new(file.schema(), choice);
    file.append_records(&record_ids[..sample_n], &mut builder)?;
    let tc_sample_ns = t0.elapsed().as_nanos() as u64;
    let overhead = estimate_overhead(to1_ns, tc_sample_ns, 0, sample_n, total);
    let decision = if config.force == Some(AdmissionDecision::Eager) {
        AdmissionDecision::Eager
    } else {
        decide(config, overhead, working_set)
    };

    let data = match decision {
        AdmissionDecision::Lazy => {
            // Abort the eager pass; keep only offsets. The sample time is
            // sunk cost, charged to this query's caching overhead.
            drop(builder);
            CacheData::Offsets(Arc::new(OffsetStore::build(record_ids, flattened_rows)))
        }
        AdmissionDecision::Eager => {
            file.append_records(&record_ids[sample_n..], &mut builder)?;
            builder.finish(record_ids)
        }
    };
    Ok(MaterializeResult {
        data,
        caching_ns: t0.elapsed().as_nanos() as u64,
        decision,
        overhead,
    })
}

/// Upgrades a lazy (offsets) entry to an eager store ("if a lazy cached
/// item is accessed again, it is replaced by an eager cache").
pub fn upgrade_to_eager(
    file: &RawFile,
    choice: StoreChoice,
    store: &OffsetStore,
) -> Result<(CacheData, u64)> {
    let ids = store.record_ids();
    build_by_id(file, choice, ids, |builder| {
        file.append_records(ids, builder)
    })
}

/// Rebuilds a cached entry in the layout `to` from the raw records it
/// holds (§4.2 layout switch): the cache is a by-product of the file, so
/// a switch is the same by-id build an upgrade is. The records are read
/// through the file's current positional map with no fault gate, so a
/// switch draws no injected faults. Returns the new store and the build
/// time, or `None` — no switch — when the file has no map, the store
/// records no source ids, or a record fails to build.
pub fn switch_layout(
    file: &RawFile,
    to: StoreChoice,
    data: &CacheData,
) -> Option<(CacheData, u64)> {
    let map = file.posmap()?;
    let ids = data.source_record_ids()?;
    build_by_id(file, to, ids, |builder| {
        file.append_records_with(&map, ids, builder)
    })
    .ok()
}

/// The eager store of the records `ids` in layout `choice`, filled by
/// `append`, and its build time.
fn build_by_id(
    file: &RawFile,
    choice: StoreChoice,
    ids: &[u32],
    append: impl FnOnce(&mut EntryBuilder) -> Result<()>,
) -> Result<(CacheData, u64)> {
    let t0 = Instant::now();
    let mut builder = EntryBuilder::new(file.schema(), choice);
    append(&mut builder)?;
    let data = builder.finish(ids.to_vec());
    Ok((data, t0.elapsed().as_nanos() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_data::gen::tpch;
    use recache_data::{csv, json, FileFormat};
    use recache_layout::{ColumnStore, DremelStore};
    use recache_types::{DataType, Field, Schema, Value};
    use std::io::Write;

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
        let config = AdmissionConfig::with_threshold(0.10);
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
        let config = AdmissionConfig::with_threshold(0.10);
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
        let config = AdmissionConfig::with_threshold(0.10);
        let result = materialize_with_admission(
            &file,
            StoreChoice::Columnar,
            &config,
            (0..500).collect(),
            500,
            1,
            true, // file already has cached entries
        )
        .unwrap();
        assert_eq!(result.decision, AdmissionDecision::Eager);
        assert!(matches!(result.data, CacheData::Columnar(_)));
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
        json_file(schema, bytes, |leaf| leaf == 1)
    }

    /// A JSON file mapped by a first scan that accesses the leaves
    /// `accessed` selects, and fresh parses of its lines.
    fn json_file(
        schema: Schema,
        bytes: Vec<u8>,
        accessed: impl Fn(usize) -> bool,
    ) -> (RawFile, Vec<Value>) {
        let fresh: Vec<Value> = bytes
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .map(|line| json::parse_record(line, &schema, None).unwrap())
            .collect();
        let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
        let accessed: Vec<bool> = (0..file.leaves().len()).map(accessed).collect();
        file.scan_projected(&accessed, &mut |_, _| {}).unwrap();
        (file, fresh)
    }

    /// The schema of the hostile records below: top-level scalars, a list
    /// of structs holding a list, and a struct holding a list.
    fn hostile_schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::new("q", DataType::Int),
                    Field::new("tag", DataType::Str),
                    Field::new("sub", DataType::List(Box::new(DataType::Int))),
                ]))),
            ),
            Field::new(
                "meta",
                DataType::Struct(vec![
                    Field::required("x", DataType::Int),
                    Field::new("y", DataType::List(Box::new(DataType::Float))),
                ]),
            ),
        ])
    }

    /// Records of [`hostile_schema`] that parse, each shaped to trip a
    /// shredder that reads the structure differently from the parser.
    const HOSTILE_LINES: &[&str] = &[
        // Keys out of schema order, at every depth.
        r#"{"meta":{"y":[1.5,2],"x":3},"items":[{"sub":[1,2],"tag":"t","q":4}],"s":"str","b":2.5,"a":1}"#,
        // Unknown keys holding nested objects and arrays.
        r#"{"zz":{"a":[1,{"b":"}]"}]},"a":1,"items":[{"unk":{"q":9},"q":2}],"meta":{"w":[{}],"x":5}}"#,
        // Duplicate keys, top level and inside list elements.
        r#"{"a":1,"a":2,"items":[{"q":1,"q":5,"tag":"x"},{"tag":"y","tag":"z"}],"meta":{"x":1},"meta":{"y":[3]}}"#,
        r#"{"items":[{"sub":[1,2]}],"b":1.5,"items":[],"s":"x","s":null}"#,
        // `{}` where a list is expected, `[]` where a struct is.
        r#"{"items":{},"meta":[],"a":1}"#,
        r#"{"items":[{"sub":{}},[]],"meta":{"y":{}}}"#,
        // Scalars where containers are expected, and the reverse.
        r#"{"items":5,"meta":"m","a":1}"#,
        r#"{"items":[1,"x",true,null],"meta":{"y":"z","x":[1]}}"#,
        r#"{"a":{"x":1},"s":[1,2],"b":[],"meta":{"x":{"y":2}}}"#,
        // Nulls, empty lists and extra whitespace.
        "  { \"a\" : null , \"items\" : [ ] , \"meta\" : { \"y\" : [ ] , \"x\" : null } , \"s\" : null }  ",
        r#"{"items":[{"sub":[],"q":null},{}],"meta":{}}"#,
        r#"{"items":null,"meta":null,"b":null}"#,
        r#"{}"#,
        // Coercions and mismatched scalars.
        r#"{"a":true,"b":false,"s":true,"meta":{"x":false,"y":[true,"1.5",2]}}"#,
        r#"{"a":"7","b":"1.5","s":42,"items":[{"q":1.9,"tag":3}]}"#,
        // Numbers on and off the fast paths.
        r#"{"a":-0,"b":-0.0,"items":[{"q":007,"sub":[9223372036854775807]}],"meta":{"x":1,"y":[1e3,.5,1.,0.1234567890123456789012345]}}"#,
        r#"{"a":1234567890123456789012,"b":123456789012345.6,"meta":{"x":-9223372036854775808,"y":[1234567890123456.7]}}"#,
        // Escaped strings and keys, and trailing bytes after the record.
        r#"{"s":"a\"b\\c\u00e9","items":[{"tag":"\n\t","t\u0061g":"e"}]} trailing"#,
        // An unknown key's unbalanced value, which skipping accepts.
        r#"{"a":1,"zz":[1,2},"b":2.0}"#,
        // Low-cardinality strings, so some cases dictionary-encode.
        r#"{"a":5,"s":"red","items":[{"tag":"t1","sub":[1]},{"tag":"t2"}],"meta":{"x":2,"y":[0.5]}}"#,
    ];

    /// [`HOSTILE_LINES`] repeated past several 256-record chunks.
    fn hostile_json_file() -> (RawFile, Vec<Value>) {
        let mut bytes = Vec::new();
        for i in 0..700 {
            bytes.extend_from_slice(HOSTILE_LINES[i % HOSTILE_LINES.len()].as_bytes());
            bytes.push(b'\n');
        }
        json_file(hostile_schema(), bytes, |leaf| leaf == 0)
    }

    /// A mapped CSV file with every scalar type, empty fields, floats off
    /// the fast path and invalid UTF-8, plus fresh `csv::parse_field`
    /// parses of its records.
    fn typed_csv_file() -> (RawFile, Vec<Value>) {
        let schema = Schema::new(vec![
            Field::required("k", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("tag", DataType::Str),
            Field::new("b", DataType::Bool),
            Field::new("note", DataType::Str),
        ]);
        let floats = [
            "1.5",
            "-0.0",
            "",
            "1e3",
            ".5",
            "+2.25",
            "12345678901234567.5",
        ];
        let bools = ["true", "false", "1", "0", ""];
        let mut bytes = Vec::new();
        for i in 0..700usize {
            let k = if i % 11 == 0 {
                String::new()
            } else {
                format!("{}", i as i64 - 300)
            };
            let tag = match i % 9 {
                0 => "",
                1 => "zz\u{FFFD}",
                _ => ["red", "green", "blue"][i % 3],
            };
            write!(bytes, "{k}|{}|{tag}|{}|", floats[i % 7], bools[i % 5]).unwrap();
            match i % 13 {
                0 => bytes.extend_from_slice(b"bad\xffutf8"),
                1 => {}
                _ => write!(bytes, "note {i}").unwrap(),
            }
            bytes.push(b'\n');
        }
        let fresh: Vec<Value> = bytes
            .split(|&b| b == b'\n')
            .filter(|line| !line.is_empty())
            .map(|line| {
                let fields = line.split(|&b| b == b'|');
                let types = schema
                    .fields()
                    .iter()
                    .map(|f| f.data_type.as_scalar().unwrap());
                Value::Struct(
                    fields
                        .zip(types)
                        .map(|(field, ty)| csv::parse_field(field, ty).unwrap())
                        .collect(),
                )
            })
            .collect();
        let file = RawFile::from_bytes(bytes, FileFormat::Csv, schema);
        file.scan_projected(&[true, false, false, false, false], &mut |_, _| {})
            .unwrap();
        (file, fresh)
    }

    /// The store the layout's own builder makes from fresh parses of
    /// `ids`, tagged with those ids.
    fn fresh_store(
        schema: &Schema,
        fresh: &[Value],
        ids: &[u32],
        choice: StoreChoice,
    ) -> CacheData {
        let records: Vec<&Value> = ids.iter().map(|&id| &fresh[id as usize]).collect();
        match choice {
            StoreChoice::Columnar => {
                let mut store = ColumnStore::build(schema, records);
                store.set_source_record_ids(ids.to_vec());
                CacheData::Columnar(Arc::new(store))
            }
            StoreChoice::Dremel => {
                let mut store = DremelStore::build(schema, records);
                store.set_source_record_ids(ids.to_vec());
                CacheData::Dremel(Arc::new(store))
            }
        }
    }

    /// Whole-store equality: data, validity, levels, chunk index, masks,
    /// dictionaries and source ids, not just the records read back.
    fn assert_store_eq(got: &CacheData, want: &CacheData, case: &str) {
        match (got, want) {
            (CacheData::Columnar(a), CacheData::Columnar(b)) => assert_eq!(a, b, "{case}"),
            (CacheData::Dremel(a), CacheData::Dremel(b)) => assert_eq!(a, b, "{case}"),
            _ => panic!(
                "{case}: expected {:?}, got {:?}",
                want.layout(),
                got.layout()
            ),
        }
    }

    /// Every materialization path — eager, sample-then-lazy plus its
    /// upgrade, sample-then-eager, a direct upgrade and a layout switch
    /// from the other layout — builds the store `fresh_store` builds, in
    /// every layout, for satisfying ids given in reverse and spanning
    /// several 256-record chunks.
    fn assert_every_path_equals_fresh_builds(file: &RawFile, fresh: &[Value]) {
        let n = fresh.len() as u32;
        assert!(n > 600, "{n} records");
        let id_sets: [Vec<u32>; 3] = [
            (0..n).collect(),
            (0..n).filter(|i| i % 3 != 1).collect(),
            (250..270).chain(510..520).collect(),
        ];
        let sampled = |force| AdmissionConfig {
            sample_records: 7,
            force,
            ..AdmissionConfig::default()
        };
        let paths = [
            (
                sampled(Some(AdmissionDecision::Eager)),
                0,
                AdmissionDecision::Eager,
            ),
            (sampled(None), u64::MAX / 4, AdmissionDecision::Eager),
            (sampled(None), 1, AdmissionDecision::Lazy),
        ];
        for ids in &id_sets {
            let reversed: Vec<u32> = ids.iter().rev().copied().collect();
            for choice in [StoreChoice::Columnar, StoreChoice::Dremel] {
                let want = fresh_store(file.schema(), fresh, ids, choice);
                let case = format!("{:?} {choice:?} over {} ids", file.format(), ids.len());
                for (config, to1, decision) in &paths {
                    let result = materialize_with_admission(
                        file,
                        choice,
                        config,
                        reversed.clone(),
                        ids.len(),
                        *to1,
                        false,
                    )
                    .unwrap();
                    assert_eq!(result.decision, *decision, "{case}");
                    let data = match &result.data {
                        CacheData::Offsets(offsets) => {
                            assert_eq!(offsets.record_ids(), ids.as_slice(), "{case}");
                            upgrade_to_eager(file, choice, offsets).unwrap().0
                        }
                        eager => eager.clone(),
                    };
                    assert_store_eq(&data, &want, &format!("{case}, {decision:?}"));
                }
                let offsets = OffsetStore::build(reversed.clone(), ids.len());
                let (data, _) = upgrade_to_eager(file, choice, &offsets).unwrap();
                assert_store_eq(&data, &want, &format!("{case}, upgrade"));
                let from = match choice {
                    StoreChoice::Columnar => StoreChoice::Dremel,
                    StoreChoice::Dremel => StoreChoice::Columnar,
                };
                let current = fresh_store(file.schema(), fresh, ids, from);
                let (data, _) = switch_layout(file, choice, &current).expect("switches");
                assert_store_eq(&data, &want, &format!("{case}, switch"));
            }
        }
    }

    #[test]
    fn nested_json_materializes_to_the_stores_of_fresh_parses() {
        let (file, fresh) = nested_json_file();
        assert_every_path_equals_fresh_builds(&file, &fresh);
    }

    #[test]
    fn hostile_json_materializes_to_the_stores_of_fresh_parses() {
        let (file, fresh) = hostile_json_file();
        assert_every_path_equals_fresh_builds(&file, &fresh);
    }

    #[test]
    fn typed_csv_materializes_to_the_stores_of_fresh_parses() {
        let (file, fresh) = typed_csv_file();
        assert_every_path_equals_fresh_builds(&file, &fresh);
    }

    /// Records whose damage lies in fields the first scan skipped:
    /// materializing one fails with the parser's own error on every path
    /// and in every layout, whether or not the record got a structure
    /// tape. The flag says whether it does.
    #[test]
    fn damaged_records_fail_materialization_like_the_parser() {
        let damaged: [(&[u8], bool); 5] = [
            (br#"{"a":1,"b":1.2.3,"items":[{"q":2}]}"#, true),
            (b"{\"a\":1,\"items\":[{\"tag\":\"\xfe\",\"q\":3}]}", true),
            (b"{\"a\":\"\xff\",\"a\":2,\"b\":1.0}", true),
            (br#"{"a":1,"s":"\q"}"#, true),
            (br#"{"a":1,"b":tru}"#, false),
        ];
        for (line, taped) in damaged {
            let mut bytes = Vec::new();
            for _ in 0..3 {
                bytes.extend_from_slice(br#"{"a":1,"items":[{"q":2}]}"#);
                bytes.push(b'\n');
            }
            bytes.extend_from_slice(line);
            let schema = hostile_schema();
            let parse_error = json::parse_record(line, &schema, None)
                .unwrap_err()
                .to_string();
            let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
            let accessed: Vec<bool> = (0..file.leaves().len()).map(|leaf| leaf == 3).collect();
            file.scan_projected(&accessed, &mut |_, _| {}).unwrap();
            assert_eq!(file.posmap().unwrap().json_tape(3).is_some(), taped);
            for choice in [StoreChoice::Columnar, StoreChoice::Dremel] {
                let case = format!("{choice:?} over {:?}", String::from_utf8_lossy(line));
                let eager = materialize_with_admission(
                    &file,
                    choice,
                    &AdmissionConfig::eager_only(),
                    vec![3, 0, 2],
                    3,
                    0,
                    false,
                );
                let error = eager.err().map(|e| e.to_string());
                assert_eq!(error.as_ref(), Some(&parse_error), "{case}");
                let offsets = OffsetStore::build(vec![1, 3], 2);
                let upgraded = upgrade_to_eager(&file, choice, &offsets);
                let error = upgraded.err().map(|e| e.to_string());
                assert_eq!(error.as_ref(), Some(&parse_error), "{case}");
            }
        }
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
        let want = fresh_store(file.schema(), &fresh, &ids, StoreChoice::Dremel);
        assert_store_eq(&result.data, &want, "eager");
    }

    #[test]
    fn upgrading_nested_json_to_dremel_equals_fresh_parses() {
        let (file, fresh) = nested_json_file();
        let ids: Vec<u32> = (0..fresh.len() as u32).filter(|i| i % 5 == 2).collect();
        let offsets = OffsetStore::build(ids.clone(), ids.len());
        let (data, _) = upgrade_to_eager(&file, StoreChoice::Dremel, &offsets).unwrap();
        let want = fresh_store(file.schema(), &fresh, &ids, StoreChoice::Dremel);
        assert_store_eq(&data, &want, "upgrade");
    }

    /// Builders over consecutive runs of records, appended in order onto
    /// the first, finish to the store one builder over every record
    /// does, in every layout: 2, 3 and 7 parts of uneven sizes (some
    /// empty), cut just before, at and after 256-record boundaries, so
    /// the Dremel chunk index is rebuilt at the merged store's own
    /// boundaries.
    fn assert_appended_parts_equal_a_serial_build(file: &RawFile, n_records: usize) {
        let map = file.posmap().expect("mapped");
        let cut_sets: [&[usize]; 7] = [
            &[255],
            &[256],
            &[257],
            &[255, 512],
            &[256, 257],
            &[1, 255, 256, 257, 513, 600],
            &[0, 255, 255, 511, 512, 650],
        ];
        let all: Vec<u32> = (0..n_records as u32).collect();
        let some: Vec<u32> = all.iter().copied().filter(|i| i % 3 != 1).collect();
        for ids in [&all, &some] {
            for choice in [StoreChoice::Columnar, StoreChoice::Dremel] {
                let build = |ids: &[u32]| {
                    let mut builder = EntryBuilder::new(file.schema(), choice);
                    file.append_records_with(&map, ids, &mut builder).unwrap();
                    builder
                };
                let serial = build(ids).finish(ids.to_vec());
                for cuts in cut_sets {
                    let mut bounds = vec![0];
                    bounds.extend(cuts.iter().map(|&cut| cut.min(ids.len())));
                    bounds.push(ids.len());
                    let mut parts = bounds.windows(2).map(|w| build(&ids[w[0]..w[1]]));
                    let mut merged = parts.next().expect("a first part");
                    parts.for_each(|part| merged.append(part));
                    let case = format!(
                        "{:?} {choice:?}, {} of {n_records} ids cut at {cuts:?}",
                        file.format(),
                        ids.len()
                    );
                    let data = merged.finish(ids.to_vec());
                    assert_store_eq(&data, &serial, &case);
                }
            }
        }
    }

    #[test]
    fn appended_nested_json_parts_equal_a_serial_build() {
        let (file, fresh) = nested_json_file();
        assert_appended_parts_equal_a_serial_build(&file, fresh.len());
    }

    #[test]
    fn appended_hostile_json_parts_equal_a_serial_build() {
        let (file, fresh) = hostile_json_file();
        assert_appended_parts_equal_a_serial_build(&file, fresh.len());
    }

    #[test]
    fn appended_typed_csv_parts_equal_a_serial_build() {
        let (file, fresh) = typed_csv_file();
        assert_appended_parts_equal_a_serial_build(&file, fresh.len());
    }

    /// A switch keeps the entry's source ids; with no positional map, or
    /// a store without ids, there is none.
    #[test]
    fn switch_keeps_source_ids_and_needs_a_map() {
        let (file, fresh) = nested_json_file();
        let ids = [3, 9, 40];
        let dremel = fresh_store(file.schema(), &fresh, &ids, StoreChoice::Dremel);
        let (columnar, ns) = switch_layout(&file, StoreChoice::Columnar, &dremel).unwrap();
        assert!(ns > 0);
        assert_eq!(columnar.source_record_ids(), Some(&ids[..]));
        let (back, _) = switch_layout(&file, StoreChoice::Dremel, &columnar).unwrap();
        assert_store_eq(&back, &dremel, "round trip");

        let records: Vec<&Value> = ids.iter().map(|&id| &fresh[id as usize]).collect();
        let anonymous = CacheData::Dremel(Arc::new(DremelStore::build(file.schema(), records)));
        assert!(switch_layout(&file, StoreChoice::Columnar, &anonymous).is_none());
        file.reset_scan_state();
        assert!(switch_layout(&file, StoreChoice::Columnar, &dremel).is_none());
    }

    /// Switching a nested entry from Dremel to columnar and back keeps
    /// what an element-level scan of every leaf reads, row for row and
    /// with the same source ids, and the record and flattened-row counts.
    #[test]
    fn dremel_columnar_switch_round_trip_preserves_scans() {
        let (file, fresh) = nested_json_file();
        let ids: Vec<u32> = (0..fresh.len() as u32).filter(|i| i % 4 != 3).collect();
        let projection: Vec<usize> = (0..file.leaves().len()).collect();
        let scan = |data: &CacheData| {
            let mut rows = Vec::new();
            let mut emit = |id: usize, row: &[Value]| rows.push((id, row.to_vec()));
            match data {
                CacheData::Columnar(store) => store.scan(&projection, false, &mut emit),
                CacheData::Dremel(store) => store.scan(&projection, false, &mut emit),
                other => panic!("not a store: {:?}", other.layout()),
            };
            rows
        };
        let dremel = fresh_store(file.schema(), &fresh, &ids, StoreChoice::Dremel);
        let want = scan(&dremel);
        assert!(want.len() > ids.len(), "element-level rows");

        let (columnar, _) = switch_layout(&file, StoreChoice::Columnar, &dremel).unwrap();
        assert_eq!(scan(&columnar), want, "to columnar");
        let (back, _) = switch_layout(&file, StoreChoice::Dremel, &columnar).unwrap();
        assert_eq!(scan(&back), want, "back to Dremel");
        let (CacheData::Dremel(a), CacheData::Dremel(b)) = (&back, &dremel) else {
            panic!("expected Dremel stores");
        };
        assert_eq!(a.record_count(), b.record_count());
        assert_eq!(a.flattened_rows(), b.flattened_rows());
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

//! Cache entries built inside a batched scan are the entries the
//! post-scan path builds.
//!
//! A mapped miss whose admission is eager before the scan, and a reused
//! lazy (`Offsets`) entry, have their eager store built by the scan's
//! own tasks (`exec::BuildRequest`). This suite checks every such store,
//! whole, against `materialize_with_admission` / `upgrade_to_eager` over
//! the same record ids: in every layout, over TPC-H `lineitem` as CSV,
//! nested `orderLineitems` JSON and a file of hostile JSON records, for
//! record- and element-level predicates, at 1, 2 and 8 threads. Through
//! a session it checks that every layout policy admits the same entries
//! with and without the in-pass build; that a record damaged in a field
//! the query skips leaves the answer as it is, admits nothing and counts
//! one failed scan; that transient chunk faults retry to the same entry;
//! that a forced-eager first scan still builds after the scan; and that
//! `lookup_ns + exec_ns + caching_ns ≤ total_ns` on an in-pass miss, a
//! sampled post-scan miss, a lazy hit that upgrades and a plain hit.
//!
//! The CI `chaos` job runs this suite under `RECACHE_FAULT_SEED`.

use recache::data::gen::tpch;
use recache::data::{csv, json, FaultPlan, FaultSite, FileFormat, RawFile, RetryPolicy};
use recache::engine::exec::{self, BuildRequest, ExecOptions, QueryOutput};
use recache::engine::plan::{AccessPath, QueryPlan, TablePlan};
use recache::layout::{CacheData, OffsetStore};
use recache::materialize::{materialize_with_admission, upgrade_to_eager, StoreChoice};
use recache::sql::parse_query;
use recache::types::{DataType, Field, Schema, Value};
use recache::{Admission, LayoutPolicy, QueryRequest, QueryResponse, ReCache};
use std::sync::Arc;
use std::time::Duration;

/// Seed of the fault plans: CI sweeps it via `RECACHE_FAULT_SEED`; any
/// value must pass.
fn fault_seed() -> u64 {
    std::env::var("RECACHE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

const CHOICES: [StoreChoice; 2] = [StoreChoice::Columnar, StoreChoice::Dremel];

const THREADS: [usize; 3] = [1, 2, 8];

/// A raw source and two queries over it: a record-level one and an
/// element-level one where the schema has lists.
struct Source {
    name: &'static str,
    format: FileFormat,
    schema: Schema,
    bytes: Vec<u8>,
    queries: [&'static str; 2],
}

impl Source {
    /// The source registered in a session built by `builder`.
    fn session(&self, builder: recache::ReCacheBuilder) -> ReCache {
        let mut session = builder.result_cache_enabled(false).build();
        let (bytes, schema) = (self.bytes.clone(), self.schema.clone());
        match self.format {
            FileFormat::Csv => session.register_csv_bytes(self.name, bytes, schema),
            FileFormat::Json => session.register_json_bytes(self.name, bytes, schema),
        }
        session
    }
}

fn sources() -> [Source; 3] {
    let lineitem = tpch::lineitem_schema();
    let (_, rows) = tpch::gen_orders_and_lineitems(0.001, 7);
    let nested = tpch::order_lineitems_schema();
    [
        Source {
            name: "lineitem",
            format: FileFormat::Csv,
            bytes: csv::write_csv(&lineitem, &rows),
            schema: lineitem,
            queries: [
                "SELECT count(*), sum(l_extendedprice) FROM lineitem \
                 WHERE l_quantity >= 5 AND l_quantity <= 30",
                "SELECT avg(l_discount), max(l_tax) FROM lineitem \
                 WHERE l_extendedprice >= 2000 AND l_extendedprice < 6000",
            ],
        },
        Source {
            name: "orderLineitems",
            format: FileFormat::Json,
            bytes: json::write_json(&nested, &tpch::gen_order_lineitems(0.001, 7)),
            schema: nested,
            queries: [
                "SELECT count(*), sum(o_totalprice) FROM orderLineitems \
                 WHERE o_custkey >= 10 AND o_custkey <= 90",
                "SELECT count(*), sum(lineitems.l_quantity) FROM orderLineitems \
                 WHERE lineitems.l_quantity >= 5 AND lineitems.l_quantity <= 20",
            ],
        },
        Source {
            name: "hostile",
            format: FileFormat::Json,
            schema: hostile_schema(),
            bytes: hostile_bytes(),
            queries: [
                "SELECT count(*), sum(b) FROM hostile WHERE a >= 1 AND a <= 5",
                "SELECT count(*), max(items.q) FROM hostile WHERE items.q >= 1 AND items.q <= 4",
            ],
        },
    ]
}

/// Top-level scalars, a list of structs holding a list, and a struct
/// holding a list.
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

/// Records that parse, each shaped to trip a builder that reads the
/// structure differently from the parser: keys out of order, unknown
/// and duplicate keys, kind mismatches, nulls, coercions, escapes.
const HOSTILE: &[&str] = &[
    r#"{"meta":{"y":[1.5,2],"x":3},"items":[{"sub":[1,2],"tag":"t","q":4}],"s":"str","b":2.5,"a":1}"#,
    r#"{"zz":{"a":[1,{"b":"}]"}]},"a":2,"items":[{"unk":{"q":9},"q":2}],"meta":{"w":[{}],"x":5}}"#,
    r#"{"a":1,"a":3,"items":[{"q":1,"q":5,"tag":"x"},{"tag":"y","tag":"z"}],"meta":{"x":1},"meta":{"y":[3]}}"#,
    r#"{"items":{},"meta":[],"a":4}"#,
    r#"{"items":[{"sub":{}},[]],"meta":{"y":{}},"a":5}"#,
    r#"{"items":[1,"x",true,null],"meta":{"y":"z","x":[1]},"a":2}"#,
    "  { \"a\" : null , \"items\" : [ ] , \"meta\" : { \"y\" : [ ] , \"x\" : null } , \"s\" : null }  ",
    r#"{"items":[{"sub":[],"q":null},{"q":3}],"meta":{},"a":1}"#,
    r#"{"a":"7","b":"1.5","s":42,"items":[{"q":1.9,"tag":3}]}"#,
    r#"{"s":"a\"b\\cé","items":[{"tag":"\n\t","q":2}],"a":3} trailing"#,
    r#"{"a":5,"s":"red","items":[{"tag":"t1","sub":[1]},{"tag":"t2","q":4}],"meta":{"x":2,"y":[0.5]}}"#,
];

/// [`HOSTILE`] repeated past several 256-record chunks.
fn hostile_bytes() -> Vec<u8> {
    let mut bytes = Vec::new();
    for i in 0..700 {
        bytes.extend_from_slice(HOSTILE[i % HOSTILE.len()].as_bytes());
        bytes.push(b'\n');
    }
    bytes
}

/// The plan of `sql` in `session`, with its one table read
/// through `access`.
fn plan(session: &ReCache, sql: &str, access: AccessPath, collect: bool) -> QueryPlan {
    let resolved = session
        .resolve_query(&parse_query(sql).expect("query parses"))
        .expect("query resolves");
    QueryPlan {
        tables: resolved
            .tables
            .into_iter()
            .map(|t| TablePlan {
                name: t.name,
                access: access.clone(),
                accessed: t.accessed,
                predicate: t.predicate,
                record_level: t.record_level,
                collect_satisfying: collect,
            })
            .collect(),
        joins: resolved.joins,
        aggregates: resolved.aggregates,
    }
}

/// A build request for `file`'s current map.
fn request(file: &RawFile, choice: StoreChoice) -> BuildRequest {
    BuildRequest {
        choice,
        map: file.posmap().expect("a mapped file"),
    }
}

/// The entry the pass built, which must have succeeded.
fn built(output: &mut QueryOutput) -> CacheData {
    let stats = &mut output.stats.tables[0];
    assert!(stats.build_ns > 0, "the build is timed");
    stats
        .built
        .take()
        .expect("the pass built the entry")
        .expect("the build succeeded")
}

/// The post-scan eager entry over the ids a scan collected.
fn post_scan(file: &RawFile, choice: StoreChoice, satisfying: Vec<u32>) -> CacheData {
    let rows = satisfying.len();
    materialize_with_admission(
        file,
        choice,
        &Admission::eager_only(),
        satisfying,
        rows,
        0,
        false,
    )
    .expect("the post-scan build succeeds")
    .data
}

/// Whole-store equality: data, validity, levels, chunk index, shapes,
/// dictionaries and source ids.
fn assert_store_eq(got: &CacheData, want: &CacheData, case: &str) {
    match (got, want) {
        (CacheData::Columnar(a), CacheData::Columnar(b)) => assert_eq!(a, b, "{case}"),
        (CacheData::Dremel(a), CacheData::Dremel(b)) => assert_eq!(a, b, "{case}"),
        _ => panic!("{case}: {:?} vs {:?}", got.layout(), want.layout()),
    }
}

/// The answer of an output: values (floats by bits) and rows.
fn answer(output: &QueryOutput) -> (Vec<Value>, usize) {
    let values = output
        .values
        .iter()
        .map(|v| match v {
            Value::Float(f) => Value::Int(f.to_bits() as i64),
            other => other.clone(),
        })
        .collect();
    (values, output.rows_aggregated)
}

/// A source's file in a session, mapped by a first scan.
fn mapped(session: &ReCache, source: &Source) -> Arc<RawFile> {
    let file = Arc::clone(session.source(source.name).expect("registered"));
    let first = plan(
        session,
        source.queries[0],
        AccessPath::Raw(Arc::clone(&file)),
        false,
    );
    exec::execute_with(&first, &ExecOptions::with_threads(1)).expect("first scan");
    assert!(file.posmap().is_some());
    file
}

#[test]
fn mapped_misses_build_the_post_scan_entries() {
    for source in sources() {
        let session = source.session(ReCache::builder().no_caching());
        let file = mapped(&session, &source);
        for sql in source.queries {
            let plan = plan(&session, sql, AccessPath::Raw(Arc::clone(&file)), true);
            let want_answer =
                answer(&exec::execute_with(&plan, &ExecOptions::with_threads(1)).unwrap());
            for threads in THREADS {
                for choice in CHOICES {
                    let case = format!("{} {choice:?} at {threads} threads: {sql}", source.name);
                    let options = ExecOptions::with_threads(threads);
                    let request = request(&file, choice);
                    let mut out = exec::execute_building(&plan, &options, Some(&request)).unwrap();
                    assert_eq!(answer(&out), want_answer, "{case}");
                    let data = built(&mut out);
                    let satisfying = out.stats.tables[0].satisfying.take().unwrap();
                    assert!(!satisfying.is_empty(), "{case}");
                    assert_store_eq(&data, &post_scan(&file, choice, satisfying), &case);
                }
            }
        }
    }
}

#[test]
fn lazy_upgrades_build_the_upgraded_entries() {
    for source in sources() {
        let session = source.session(ReCache::builder().no_caching());
        let file = mapped(&session, &source);
        for sql in source.queries {
            // The lazy entry of the other query's satisfying records.
            let other = source.queries.iter().find(|&&q| q != sql).unwrap();
            let collect = plan(&session, other, AccessPath::Raw(Arc::clone(&file)), true);
            let mut out = exec::execute_with(&collect, &ExecOptions::with_threads(1)).unwrap();
            let mut ids = out.stats.tables[0].satisfying.take().unwrap();
            ids.dedup();
            let store = Arc::new(OffsetStore::build(ids.clone(), ids.len()));
            let access = AccessPath::Offsets {
                file: Arc::clone(&file),
                store: Arc::clone(&store),
            };
            let plan = plan(&session, sql, access, false);
            let want_answer =
                answer(&exec::execute_with(&plan, &ExecOptions::with_threads(1)).unwrap());
            for threads in THREADS {
                for choice in CHOICES {
                    let case = format!("{} {choice:?} at {threads} threads: {sql}", source.name);
                    let options = ExecOptions::with_threads(threads);
                    let request = request(&file, choice);
                    let mut out = exec::execute_building(&plan, &options, Some(&request)).unwrap();
                    assert_eq!(answer(&out), want_answer, "{case}");
                    let (want, _) = upgrade_to_eager(&file, choice, &store).unwrap();
                    assert_store_eq(&built(&mut out), &want, &case);
                }
            }
        }
    }
}

/// The record ids an entry holds.
fn entry_ids(data: &CacheData) -> Vec<u32> {
    let ids = match data {
        CacheData::Columnar(s) => s.source_record_ids(),
        CacheData::Dremel(s) => s.source_record_ids(),
        CacheData::Offsets(s) => Some(s.record_ids()),
    };
    ids.expect("entries carry their source ids").to_vec()
}

fn run(session: &ReCache, sql: &str) -> QueryResponse {
    session
        .execute(&QueryRequest::sql(sql))
        .expect("query runs")
}

/// Whether the query's entry was built inside its scan.
fn built_in_pass(response: &QueryResponse) -> bool {
    response.stats.exec.tables.iter().any(|t| t.build_ns > 0)
}

#[test]
fn every_layout_policy_admits_the_post_scan_entries() {
    let policies = [
        (LayoutPolicy::Auto, None),
        (LayoutPolicy::FixedColumnar, Some(StoreChoice::Columnar)),
        (LayoutPolicy::FixedDremel, Some(StoreChoice::Dremel)),
    ];
    for source in sources() {
        for (policy, choice) in policies {
            let choice = choice.unwrap_or(if source.schema.has_nested() {
                StoreChoice::Dremel
            } else {
                StoreChoice::Columnar
            });
            let session = source.session(
                ReCache::builder()
                    .admission(Admission::eager_only())
                    .layout_policy(policy),
            );
            let reference = source.session(ReCache::builder().no_caching());
            // The first query maps the file and builds after its scan;
            // the second builds in its pass.
            for (i, sql) in source.queries.iter().enumerate() {
                let case = format!("{} {policy:?}: {sql}", source.name);
                let response = run(&session, sql);
                assert_eq!(response.rows, run(&reference, sql).rows, "{case}");
                assert_eq!(built_in_pass(&response), i == 1, "{case}");
                assert!(response.stats.caching_ns > 0, "{case}");
            }
            let file = session.source(source.name).unwrap();
            let entries = session.cache().snapshot();
            assert_eq!(entries.len(), 2, "{} {policy:?}", source.name);
            for entry in entries {
                let want = post_scan(file, choice, entry_ids(&entry.data));
                assert_store_eq(&entry.data, &want, &format!("{} {policy:?}", source.name));
            }
        }
    }
}

/// A nested JSON file whose record 2 is damaged in `b`, a field the
/// queries below skip.
fn damaged_source() -> Source {
    let mut bytes = Vec::new();
    for i in 0..40 {
        let line = if i == 2 {
            r#"{"a":2,"b":1.2.3,"items":[{"q":2}]}"#.to_owned()
        } else {
            format!(r#"{{"a":{},"b":1.5,"items":[{{"q":{}}}]}}"#, i % 5, i % 3)
        };
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
    }
    Source {
        name: "damaged",
        format: FileFormat::Json,
        schema: hostile_schema(),
        bytes,
        queries: [
            "SELECT count(*) FROM damaged WHERE a >= 9 AND a <= 10",
            "SELECT count(*), max(items.q) FROM damaged WHERE a >= 1 AND a <= 3",
        ],
    }
}

#[test]
fn a_record_damaged_in_a_skipped_field_fails_only_the_in_pass_build() {
    let source = damaged_source();
    let reference = source.session(ReCache::builder().no_caching());
    let session = source.session(ReCache::builder().admission(Admission::eager_only()));
    // Nothing satisfies the first query: it maps the file, admits nothing.
    let [mapping, damaged] = source.queries;
    assert_eq!(run(&session, mapping).rows, vec![Value::Int(0)]);
    assert!(session.source(source.name).unwrap().posmap().is_some());
    let before = session.cache().counters();
    let response = run(&session, damaged);
    assert_eq!(response.rows, run(&reference, damaged).rows);
    assert!(built_in_pass(&response), "the build ran in the pass");
    let counters = session.cache().counters();
    assert_eq!(counters.admissions, before.admissions, "nothing admitted");
    assert_eq!(counters.failed_scans, before.failed_scans + 1);
    assert!(session.cache().snapshot().is_empty());
}

#[test]
fn transient_chunk_faults_retry_to_the_same_entry() {
    for source in sources() {
        let clean = source.session(ReCache::builder().no_caching());
        let file = mapped(&clean, &source);
        let chunks = file.batch_chunks() as u64;
        let faults = (fault_seed()..)
            .map(|seed| FaultPlan::new(seed).transient(0.5))
            .find(|plan| (0..chunks).any(|c| plan.decide(FaultSite::Chunk, c, 0).is_some()))
            .expect("some seed faults a chunk");
        let sql = source.queries[1];
        for threads in [1, 2] {
            for choice in CHOICES {
                let case = format!("{} {choice:?} at {threads} threads", source.name);
                let plan = plan(&clean, sql, AccessPath::Raw(Arc::clone(&file)), true);
                let options = ExecOptions::with_threads(threads);
                let request = request(&file, choice);
                file.set_fault_plan(None);
                let mut want = exec::execute_building(&plan, &options, Some(&request)).unwrap();
                file.set_fault_plan(Some(faults.clone()));
                file.set_retry_policy(RetryPolicy {
                    max_attempts: 30,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                });
                let mut got = exec::execute_building(&plan, &options, Some(&request))
                    .expect("transient faults are absorbed by retry");
                assert!(got.stats.tables[0].retried_chunks > 0, "{case}");
                assert_eq!(answer(&got), answer(&want), "{case}");
                assert_store_eq(&built(&mut got), &built(&mut want), &case);
            }
        }
        file.set_fault_plan(None);
    }
}

#[test]
fn a_forced_eager_first_scan_builds_after_the_scan() {
    for source in sources() {
        let session = source.session(ReCache::builder().admission(Admission::eager_only()));
        let response = run(&session, source.queries[0]);
        assert!(!built_in_pass(&response), "{}: no map yet", source.name);
        assert!(response.stats.caching_ns > 0, "{}", source.name);
        let entries = session.cache().snapshot();
        assert_eq!(entries.len(), 1, "{}", source.name);
        assert!(!matches!(entries[0].data, CacheData::Offsets(_)));
    }
}

/// `lookup + exec + caching ≤ total`, and caching is charged when an
/// entry was built.
fn assert_partition(response: &QueryResponse, built: bool, case: &str) {
    let s = &response.stats;
    assert!(
        s.lookup_ns + s.exec_ns + s.caching_ns <= s.total_ns,
        "{case}: lookup {} + exec {} + caching {} > total {}",
        s.lookup_ns,
        s.exec_ns,
        s.caching_ns,
        s.total_ns
    );
    if built {
        assert!(s.caching_ns > 0, "{case}: no caching time charged");
    }
}

#[test]
fn query_time_partitions_on_every_build_path() {
    for source in sources() {
        let [first, second] = source.queries;
        // An in-pass miss: eager is forced and a first query mapped the file.
        let eager = source.session(ReCache::builder().admission(Admission::eager_only()));
        run(&eager, first);
        let response = run(&eager, second);
        assert!(built_in_pass(&response));
        assert_partition(&response, true, &format!("{} in-pass miss", source.name));

        // A sampled miss builds after its scan, whatever it decides.
        let sampled = source.session(ReCache::builder());
        run(&sampled, first);
        let response = run(&sampled, second);
        assert!(!built_in_pass(&response));
        assert_eq!(sampled.cache().snapshot().len(), 2);
        assert_partition(&response, true, &format!("{} sampled miss", source.name));

        // A lazy hit upgrades in its by-id pass, then a plain hit.
        let lazy = source.session(ReCache::builder().admission(Admission::lazy_only()));
        run(&lazy, first);
        let response = run(&lazy, first);
        assert!(
            built_in_pass(&response),
            "{}: the upgrade ran in the pass",
            source.name
        );
        assert_partition(&response, true, &format!("{} lazy upgrade", source.name));
        let entries = lazy.cache().snapshot();
        assert!(
            !matches!(entries[0].data, CacheData::Offsets(_)),
            "upgraded"
        );
        let response = run(&lazy, first);
        assert!(response.stats.cache_hit && !built_in_pass(&response));
        assert_partition(&response, false, &format!("{} plain hit", source.name));
    }
}

//! Batched nested-JSON scans answer exactly as the row path does.
//!
//! Nested JSON runs on the batched pipeline: first scans build each
//! record's structure tape and flatten the projected leaves straight
//! into typed batch columns, mapped scans and lazy (`Offsets`) re-reads
//! flatten from the tapes the map holds. This suite compares every such
//! scan against the row path (`vectorized(false)`) through
//! `execute_with`: the aggregate values, `rows_aggregated`, the
//! satisfying record ids and, when a scan fails, the error message must
//! all be the same. The inputs are hostile hand-written records, seeded
//! random schemas and records (sibling lists, lists of lists, duplicate
//! and unknown keys, kind mismatches, escapes, malformed literals), and
//! random record- and element-level projections under every compiled
//! predicate clause kind. The fault tests check that a nested first
//! scan retries transient chunk faults to the clean answer, degrades to
//! the row path on a persistent one, and installs no map when it fails.
//!
//! The CI `chaos` job runs this suite under `RECACHE_FAULT_SEED`.

use rand::{rngs::StdRng, Rng, SeedableRng};
use recache::data::gen::tpch;
use recache::data::{json, FaultKind, FaultPlan, FaultSite, FileFormat, RawFile, RetryPolicy};
use recache::engine::exec::{execute_with, AccessKind, ExecOptions, QueryOutput};
use recache::engine::expr::{CmpOp, Expr};
use recache::engine::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache::layout::OffsetStore;
use recache::types::{DataType, Field, ScalarType, Schema, Value};
use std::sync::Arc;
use std::time::Duration;

/// Seed of the random schemas, records, queries and fault plans: CI
/// sweeps it via `RECACHE_FAULT_SEED`; any value must pass.
fn fault_seed() -> u64 {
    std::env::var("RECACHE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

const ROW: ExecOptions = ExecOptions {
    vectorized: false,
    threads: 1,
    cancel: None,
    reprice: None,
};

fn vectorized(threads: usize) -> ExecOptions {
    ExecOptions::with_threads(threads)
}

/// A query over one table: leaves, predicate over their slots, and the
/// aggregates.
#[derive(Debug, Clone)]
struct Query {
    accessed: Vec<usize>,
    predicate: Option<Expr>,
    aggregates: Vec<(Option<usize>, AggFunc)>,
}

fn plan(schema: &Schema, access: AccessPath, query: &Query) -> QueryPlan {
    let leaves = schema.leaves();
    QueryPlan {
        tables: vec![TablePlan {
            name: "t".to_owned(),
            access,
            accessed: query.accessed.clone(),
            predicate: query.predicate.clone(),
            record_level: query.accessed.iter().all(|&l| leaves[l].max_rep == 0),
            collect_satisfying: true,
        }],
        joins: vec![],
        aggregates: query
            .aggregates
            .iter()
            .map(|&(slot, func)| AggSpec {
                table: 0,
                slot,
                func,
            })
            .collect(),
    }
}

/// What a query answered: values (floats by bits), rows, satisfying
/// ids — or the error message.
type Answer = Result<(Vec<Value>, usize, Vec<u32>), String>;

fn answer(out: recache::types::Result<QueryOutput>) -> Answer {
    out.map(|mut out| {
        let ids = out.stats.tables[0].satisfying.take().unwrap_or_default();
        (out.values, out.rows_aggregated, ids)
    })
    .map_err(|err| err.to_string())
}

fn assert_same(batched: &Answer, row: &Answer, ctx: &str) {
    match (batched, row) {
        (Ok((bv, br, bi)), Ok((rv, rr, ri))) => {
            assert_eq!(bv.len(), rv.len(), "{ctx}");
            for (b, r) in bv.iter().zip(rv) {
                match (b, r) {
                    (Value::Float(b), Value::Float(r)) => {
                        assert_eq!(b.to_bits(), r.to_bits(), "{ctx}: {bv:?} vs {rv:?}")
                    }
                    _ => assert_eq!(b, r, "{ctx}: {bv:?} vs {rv:?}"),
                }
            }
            assert_eq!(br, rr, "{ctx}: rows_aggregated");
            assert_eq!(bi, ri, "{ctx}: satisfying ids");
        }
        (Err(b), Err(r)) => assert_eq!(b, r, "{ctx}: error"),
        _ => panic!("{ctx}: batched {batched:?} but row {row:?}"),
    }
}

/// Runs `query` over `bytes` every way the batched pipeline reads nested
/// JSON — a first scan, a mapped scan and a by-id scan of the lazy
/// entry `ids` — at each thread count, against the row path. Returns
/// how many of the comparisons were answers rather than errors.
fn compare_all(schema: &Schema, bytes: &[u8], query: &Query, ids: &[u32], ctx: &str) -> usize {
    let fresh = || {
        Arc::new(RawFile::from_bytes(
            bytes.to_vec(),
            FileFormat::Json,
            schema.clone(),
        ))
    };
    let mut answered = 0;
    let mut check = |batched: Answer, row: Answer, what: &str| {
        assert_same(&batched, &row, &format!("{ctx} {what} {query:?}"));
        answered += usize::from(row.is_ok());
    };
    let row_first = fresh();
    let row = answer(execute_with(
        &plan(schema, AccessPath::Raw(row_first), query),
        &ROW,
    ));
    for threads in [1, 2] {
        let file = fresh();
        let out = execute_with(
            &plan(schema, AccessPath::Raw(Arc::clone(&file)), query),
            &vectorized(threads),
        );
        if let Ok(out) = &out {
            assert_eq!(
                out.stats.tables[0].access,
                AccessKind::RawFirstScan,
                "{ctx}"
            );
            assert!(!out.stats.tables[0].degraded_fallback, "{ctx}");
        } else {
            assert!(
                file.posmap().is_none(),
                "{ctx}: a failed first scan installed a map"
            );
        }
        check(
            answer(out),
            row.clone(),
            &format!("first scan, {threads} threads"),
        );
    }

    // Map the file with a projection that reads no leaf. When even that
    // fails (a record no projection can parse), there is no map to
    // read through.
    let mapped = fresh();
    let none = vec![false; schema.leaves().len()];
    if mapped.scan_projected(&none, &mut |_, _| {}).is_err() {
        return answered;
    }
    let map = mapped.posmap().expect("the row scan installs the map");
    // A batched first scan that reads no leaf captures the same map.
    let batched = fresh();
    let chunks = batched.batch_chunks();
    batched
        .scan_batches_range(&[], false, 0, chunks, &mut |_, _| {})
        .expect("a scan that reads no leaf succeeds wherever the row scan does");
    assert_eq!(
        batched.posmap().as_deref(),
        Some(&*map),
        "{ctx}: batched map"
    );

    let raw = plan(schema, AccessPath::Raw(Arc::clone(&mapped)), query);
    let row = answer(execute_with(&raw, &ROW));
    let offsets = AccessPath::Offsets {
        file: Arc::clone(&batched),
        store: Arc::new(OffsetStore::build(ids.to_vec(), 0)),
    };
    let by_id = plan(schema, offsets, query);
    let row_by_id = answer(execute_with(&by_id, &ROW));
    for threads in [1, 2] {
        let out = execute_with(&raw, &vectorized(threads));
        if let Ok(out) = &out {
            assert_eq!(out.stats.tables[0].access, AccessKind::RawMapped, "{ctx}");
        }
        check(
            answer(out),
            row.clone(),
            &format!("mapped, {threads} threads"),
        );
        let out = execute_with(&by_id, &vectorized(threads));
        if let Ok(out) = &out {
            assert_eq!(
                out.stats.tables[0].access,
                AccessKind::CacheOffsets,
                "{ctx}"
            );
            assert!(!out.stats.tables[0].degraded_fallback, "{ctx}");
        }
        check(
            answer(out),
            row_by_id.clone(),
            &format!("by id, {threads} threads"),
        );
    }
    answered
}

/// A random query over `schema`: a random set of leaves (biased toward
/// record-level or element-level ones), a random conjunction of
/// compiled clauses, and aggregates over the slots.
fn random_query(rng: &mut StdRng, schema: &Schema) -> Query {
    let leaves = schema.leaves();
    let element_level = rng.random_bool(0.5);
    let mut accessed: Vec<usize> = (0..leaves.len())
        .filter(|&l| {
            let repeated = leaves[l].max_rep > 0;
            let p = match (element_level, repeated) {
                (false, true) => 0.0,
                (false, false) => 0.4,
                (true, _) => 0.35,
            };
            rng.random_bool(p)
        })
        .collect();
    if accessed.is_empty() && !leaves.is_empty() && rng.random_bool(0.7) {
        accessed.push(rng.random_range(0..leaves.len()));
    }
    let slots = accessed.len();
    let clauses: Vec<Expr> = (0..if slots == 0 {
        0
    } else {
        rng.random_range(0..4usize)
    })
        .map(|_| {
            let slot = rng.random_range(0..slots);
            let op = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ][rng.random_range(0..6usize)];
            let lit = random_literal(rng, leaves[accessed[slot]].scalar_type);
            if rng.random_bool(0.2) {
                // Literal on the left: compiles with the operator flipped.
                Expr::Cmp(op, Box::new(Expr::Lit(lit)), Box::new(Expr::Slot(slot)))
            } else {
                Expr::Cmp(op, Box::new(Expr::Slot(slot)), Box::new(Expr::Lit(lit)))
            }
        })
        .collect();
    let predicate = match clauses.len() {
        0 => None,
        1 => clauses.into_iter().next(),
        _ => Some(Expr::And(clauses)),
    };
    let mut aggregates = vec![(None, AggFunc::Count)];
    for slot in 0..slots {
        let numeric = matches!(
            leaves[accessed[slot]].scalar_type,
            ScalarType::Int | ScalarType::Float
        );
        let funcs: &[AggFunc] = if numeric {
            &[
                AggFunc::Sum,
                AggFunc::Avg,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Count,
            ]
        } else {
            &[AggFunc::Min, AggFunc::Max, AggFunc::Count]
        };
        aggregates.push((Some(slot), funcs[rng.random_range(0..funcs.len())]));
    }
    Query {
        accessed,
        predicate,
        aggregates,
    }
}

/// A literal of every kind a compiled clause takes, mostly of the
/// leaf's own type.
fn random_literal(rng: &mut StdRng, ty: ScalarType) -> Value {
    let kind = if rng.random_bool(0.7) {
        ty
    } else {
        [
            ScalarType::Int,
            ScalarType::Float,
            ScalarType::Str,
            ScalarType::Bool,
        ][rng.random_range(0..4usize)]
    };
    if rng.random_bool(0.05) {
        return Value::Null;
    }
    match kind {
        ScalarType::Int => Value::Int(rng.random_range(-3..60i64)),
        ScalarType::Float => Value::Float(rng.random_range(-3..60i64) as f64 * 0.5),
        ScalarType::Str => Value::Str(format!("s{}", rng.random_range(0..12u32))),
        ScalarType::Bool => Value::Bool(rng.random_bool(0.5)),
    }
}

/// Ids of a lazy entry over `n` records: a sorted random subset.
fn random_ids(rng: &mut StdRng, n: usize) -> Vec<u32> {
    (0..n as u32).filter(|_| rng.random_bool(0.4)).collect()
}

fn random_type(rng: &mut StdRng, depth: u32) -> DataType {
    let nested = depth < 3;
    match rng.random_range(0..if nested { 9 } else { 4 }) {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4..=6 => DataType::List(Box::new(random_type(rng, depth + 1))),
        _ => DataType::Struct(random_fields(rng, depth + 1)),
    }
}

fn random_fields(rng: &mut StdRng, depth: u32) -> Vec<Field> {
    (0..rng.random_range(1..4u32))
        .map(|i| Field::new(format!("f{i}"), random_type(rng, depth)))
        .collect()
}

/// Optional whitespace, as real files have it.
fn ws(rng: &mut StdRng, out: &mut Vec<u8>) {
    if rng.random_bool(0.1) {
        out.extend_from_slice(b" ");
    }
}

/// Appends a random JSON value for a node of type `ty`: mostly well
/// typed, with nulls, empty containers, kind mismatches, escapes,
/// duplicate and unknown keys mixed in, and (at `hostile` > 0) invalid
/// UTF-8, malformed numbers and bare words that defeat the tape walk.
fn random_json(rng: &mut StdRng, ty: &DataType, hostile: f64, out: &mut Vec<u8>) {
    ws(rng, out);
    if rng.random_bool(0.08) {
        out.extend_from_slice(b"null");
        return;
    }
    if rng.random_bool(hostile) {
        let junk: &[&[u8]] = &[b"1e", b"\"bad\xFFutf8\"", b"xyz", b"-", b"\"\\q\""];
        out.extend_from_slice(junk[rng.random_range(0..junk.len())]);
        return;
    }
    if rng.random_bool(0.06) {
        // A value of another kind than the schema's.
        let other: &[&[u8]] = &[
            b"7",
            b"{}",
            b"[]",
            b"[1,{\"a\":[2]}]",
            b"\"str\"",
            b"true",
            b"{\"f0\":1}",
        ];
        out.extend_from_slice(other[rng.random_range(0..other.len())]);
        return;
    }
    match ty {
        DataType::Int => {
            let forms: [&dyn Fn(&mut StdRng) -> String; 4] = [
                &|r| r.random_range(-5..50i64).to_string(),
                &|r| format!("{}.5", r.random_range(0..40i64)),
                &|_| "12345678901234567890".to_owned(),
                &|r| {
                    if r.random_bool(0.5) {
                        "true".to_owned()
                    } else {
                        "false".to_owned()
                    }
                },
            ];
            let pick = if rng.random_bool(0.8) {
                0
            } else {
                rng.random_range(1..4usize)
            };
            out.extend_from_slice(forms[pick](rng).as_bytes());
        }
        DataType::Float => {
            let v = match rng.random_range(0..5u32) {
                0 => format!("{}", rng.random_range(-20..60i64)),
                1 => format!("{}e-1", rng.random_range(0..400i64)),
                2 => "-0.0".to_owned(),
                _ => format!("{}.25", rng.random_range(-10..50i64)),
            };
            out.extend_from_slice(v.as_bytes());
        }
        DataType::Str => {
            let s = match rng.random_range(0..6u32) {
                0 => "\"he\\\"llo\"".to_owned(),
                1 => "\"caf\\u00e9\"".to_owned(),
                2 => "\"\"".to_owned(),
                _ => format!("\"s{}\"", rng.random_range(0..12u32)),
            };
            out.extend_from_slice(s.as_bytes());
        }
        DataType::Bool => {
            out.extend_from_slice(if rng.random_bool(0.5) {
                b"true"
            } else {
                b"false"
            });
        }
        DataType::List(inner) => {
            out.push(b'[');
            for i in 0..rng.random_range(0..4u32) {
                if i > 0 {
                    out.push(b',');
                }
                random_json(rng, inner, hostile, out);
            }
            ws(rng, out);
            out.push(b']');
        }
        DataType::Struct(fields) => random_object(rng, fields, hostile, out),
    }
}

fn random_object(rng: &mut StdRng, fields: &[Field], hostile: f64, out: &mut Vec<u8>) {
    let mut order: Vec<usize> = (0..fields.len())
        .filter(|_| rng.random_bool(0.85))
        .collect();
    if rng.random_bool(0.2) && order.len() > 1 {
        order.reverse();
    }
    if rng.random_bool(0.1) && !fields.is_empty() {
        // A duplicate key: the last occurrence wins.
        order.push(rng.random_range(0..fields.len()));
    }
    out.push(b'{');
    let mut first = true;
    let mut sep = |out: &mut Vec<u8>| {
        if !first {
            out.push(b',');
        }
        first = false;
    };
    if rng.random_bool(0.1) {
        sep(out);
        out.extend_from_slice(b"\"unknown\":{\"f0\":[1,\"}\"],\"x\":null}");
    }
    for idx in order {
        sep(out);
        ws(rng, out);
        out.extend_from_slice(format!("\"{}\"", fields[idx].name).as_bytes());
        ws(rng, out);
        out.push(b':');
        random_json(rng, &fields[idx].data_type, hostile, out);
    }
    ws(rng, out);
    out.push(b'}');
}

#[test]
fn seeded_random_schemas_and_records_scan_like_the_row_path() {
    let mut rng = StdRng::seed_from_u64(fault_seed());
    let mut answered = 0;
    let mut element_level = 0;
    for case in 0..40 {
        let schema = Schema::new(random_fields(&mut rng, 0));
        if !schema
            .fields()
            .iter()
            .any(|f| f.data_type.as_scalar().is_none())
        {
            continue;
        }
        let hostile = if case % 4 == 3 { 0.01 } else { 0.0 };
        let n = rng.random_range(1..300usize);
        let mut bytes = Vec::new();
        for _ in 0..n {
            random_object(&mut rng, schema.fields(), hostile, &mut bytes);
            bytes.push(b'\n');
        }
        let ids = random_ids(&mut rng, n);
        for q in 0..4 {
            let query = random_query(&mut rng, &schema);
            let leaves = schema.leaves();
            element_level += usize::from(query.accessed.iter().any(|&l| leaves[l].max_rep > 0));
            let ctx = format!("seed {} case {case} query {q}", fault_seed());
            answered += compare_all(&schema, &bytes, &query, &ids, &ctx);
        }
    }
    assert!(answered > 100, "only {answered} comparisons were answers");
    assert!(
        element_level > 10,
        "only {element_level} element-level queries"
    );
}

/// The schema of the hand-written records: sibling lists, a list of
/// lists, a list of structs and a nested struct.
fn hostile_schema() -> Schema {
    Schema::new(vec![
        Field::new("id", DataType::Int),
        Field::new("name", DataType::Str),
        Field::new(
            "items",
            DataType::List(Box::new(DataType::Struct(vec![
                Field::new("q", DataType::Int),
                Field::new("p", DataType::Float),
                Field::new("tags", DataType::List(Box::new(DataType::Str))),
            ]))),
        ),
        Field::new(
            "grid",
            DataType::List(Box::new(DataType::List(Box::new(DataType::Int)))),
        ),
        Field::new(
            "meta",
            DataType::Struct(vec![
                Field::new("ok", DataType::Bool),
                Field::new("w", DataType::Float),
            ]),
        ),
        Field::new("scores", DataType::List(Box::new(DataType::Float))),
    ])
}

/// One line per hostile shape. The malformed ones fail only the
/// projections that read the bad value.
const HOSTILE: &[&[u8]] = &[
    br#"{"id":1,"name":"a","items":[{"q":1,"p":1.5,"tags":["x","y"]},{"q":2,"p":2.5}],"grid":[[1,2],[3]],"meta":{"ok":true,"w":0.5},"scores":[1.0,2.0]}"#,
    // Duplicate keys at every level: the last wins.
    br#"{"id":1,"id":2,"items":[{"q":1,"q":9}],"items":[{"q":3,"tags":["t"]},{"q":4}],"meta":{"ok":false,"ok":true}}"#,
    // Kind mismatches: {} / [] / scalars where containers are expected.
    br#"{"id":"str","name":5,"items":{},"grid":[{},3,[4]],"meta":[],"scores":7}"#,
    br#"{"id":[1],"items":[3,{"q":{}},[],null],"grid":{"a":1},"meta":"m","scores":[true,"s",null]}"#,
    // Nulls and empty lists everywhere.
    br#"{"id":null,"name":null,"items":[],"grid":[[],[]],"meta":null,"scores":[]}"#,
    br#"{"items":null,"grid":null}"#,
    br#"{}"#,
    // Unknown nested keys with junk that looks like structure.
    br#"{"zz":{"items":[1,2],"s":"}]"},"id":3,"items":[{"zz":[[{}]],"q":5}],"yy":[{"grid":1}]}"#,
    // Escapes, booleans into ints, big and float literals into ints.
    br#"{"id":true,"name":"he\"l\\lo\u00e9","items":[{"q":12345678901234567890,"p":-0.0},{"q":2.75,"p":3}],"scores":[1e3,-2.5E-1]}"#,
    // Untaped: a bare word where a number is expected defeats the tape
    // walk; only projections reading `scores` fail.
    br#"{"id":4,"name":"u","items":[{"q":6,"p":1.0}],"scores":xyz}"#,
    // Invalid UTF-8 in a string leaf.
    b"{\"id\":5,\"name\":\"bad\xFFname\",\"items\":[{\"q\":7}]}",
    // A malformed number in a nested leaf.
    br#"{"id":6,"items":[{"q":8,"p":1e}],"meta":{"ok":true,"w":2}}"#,
    br#"{"id":7,"name":"z","items":[{"q":9,"p":0.5,"tags":[]},{"q":10,"tags":["a","b","c"]}],"grid":[[5],[6,7]],"scores":[0.5]}"#,
];

#[test]
fn hostile_records_scan_like_the_row_path() {
    let schema = hostile_schema();
    let n_leaves = schema.leaves().len();
    let mut bytes = Vec::new();
    for line in HOSTILE {
        bytes.extend_from_slice(line);
        bytes.push(b'\n');
    }
    let mut rng = StdRng::seed_from_u64(fault_seed() ^ 0x5EED);
    let mut answered = 0;
    let mut failed = 0;
    // Every single leaf and every pair, then random queries.
    let mut queries: Vec<Query> = (0..n_leaves)
        .flat_map(|a| (a..n_leaves).map(move |b| if a == b { vec![a] } else { vec![a, b] }))
        .map(|accessed| Query {
            aggregates: (0..accessed.len())
                .map(|s| (Some(s), AggFunc::Count))
                .chain([(None, AggFunc::Count)])
                .collect(),
            accessed,
            predicate: None,
        })
        .collect();
    queries.extend((0..60).map(|_| random_query(&mut rng, &schema)));
    let ids = [0u32, 2, 3, 5, 9, 12];
    for (q, query) in queries.iter().enumerate() {
        let got = compare_all(&schema, &bytes, query, &ids, &format!("hostile query {q}"));
        answered += got;
        failed += usize::from(got == 0);
    }
    assert!(
        answered > 0 && failed > 0,
        "{answered} answers, {failed} all-error queries"
    );
}

fn order_lineitems() -> (Schema, Vec<u8>) {
    let schema = tpch::order_lineitems_schema();
    let bytes = json::write_json(&schema, &tpch::gen_order_lineitems(0.001, 5));
    (schema, bytes)
}

fn tpch_query(schema: &Schema) -> Query {
    let leaf = |path: &str| {
        schema
            .leaf_index(&recache::types::FieldPath::parse(path))
            .expect("TPC-H leaf")
    };
    let mut accessed = vec![leaf("o_totalprice"), leaf("lineitems.l_quantity")];
    accessed.sort_unstable();
    let quantity = accessed
        .iter()
        .position(|&l| l == leaf("lineitems.l_quantity"))
        .unwrap();
    let price = 1 - quantity;
    Query {
        accessed,
        predicate: Some(Expr::between(quantity, 5.0, 30.0)),
        aggregates: vec![
            (None, AggFunc::Count),
            (Some(price), AggFunc::Sum),
            (Some(quantity), AggFunc::Max),
        ],
    }
}

/// A seed whose plan draws exactly what `wanted` asks of it.
fn plan_where(wanted: impl Fn(&FaultPlan) -> bool, make: impl Fn(u64) -> FaultPlan) -> FaultPlan {
    (fault_seed()..)
        .map(make)
        .find(|plan| wanted(plan))
        .expect("some seed draws the wanted faults")
}

#[test]
fn transient_chunk_faults_on_a_nested_first_scan_retry_to_the_clean_answer() {
    let (schema, bytes) = order_lineitems();
    let query = tpch_query(&schema);
    let clean = Arc::new(RawFile::from_bytes(
        bytes.clone(),
        FileFormat::Json,
        schema.clone(),
    ));
    let chunks = clean.batch_chunks() as u64;
    assert!(chunks >= 2, "{chunks} chunks");
    let want = answer(execute_with(
        &plan(&schema, AccessPath::Raw(Arc::clone(&clean)), &query),
        &vectorized(2),
    ));
    assert!(want.is_ok());

    let faults = plan_where(
        |plan| (0..chunks).any(|c| plan.decide(FaultSite::Chunk, c, 0).is_some()),
        |seed| FaultPlan::new(seed).transient(0.5),
    );
    let file = Arc::new(RawFile::from_bytes(bytes, FileFormat::Json, schema.clone()));
    file.set_fault_plan(Some(faults));
    file.set_retry_policy(RetryPolicy {
        max_attempts: 30,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    });
    for threads in [1, 2] {
        file.reset_scan_state();
        let out = execute_with(
            &plan(&schema, AccessPath::Raw(Arc::clone(&file)), &query),
            &vectorized(threads),
        )
        .expect("transient faults are absorbed by retry");
        assert!(
            out.stats.tables[0].retried_chunks > 0,
            "the plan must fault a chunk"
        );
        assert!(!out.stats.tables[0].degraded_fallback);
        assert_same(&answer(Ok(out)), &want, &format!("{threads} threads"));
        assert_eq!(
            file.posmap(),
            clean.posmap(),
            "retried captures assemble the clean map"
        );
    }
}

#[test]
fn persistent_chunk_faults_degrade_nested_scans_to_the_row_path() {
    let (schema, bytes) = order_lineitems();
    let query = tpch_query(&schema);
    let clean = Arc::new(RawFile::from_bytes(
        bytes.clone(),
        FileFormat::Json,
        schema.clone(),
    ));
    let chunks = clean.batch_chunks() as u64;
    let raw = |file: &Arc<RawFile>| plan(&schema, AccessPath::Raw(Arc::clone(file)), &query);
    let want = answer(execute_with(&raw(&clean), &ROW));

    // A chunk faults persistently; the row scans after it do not.
    let faults = plan_where(
        |plan| {
            (0..chunks)
                .any(|c| plan.decide(FaultSite::Chunk, c, 0) == Some(FaultKind::PersistentIo))
                && (0..2).all(|ordinal| plan.decide(FaultSite::RowScan, ordinal, 0).is_none())
        },
        |seed| FaultPlan::new(seed).persistent(0.5),
    );
    let file = Arc::new(RawFile::from_bytes(
        bytes.clone(),
        FileFormat::Json,
        schema.clone(),
    ));
    file.set_fault_plan(Some(faults));
    // The batched first scan fails and installs no map...
    let n = file.batch_chunks();
    let err = file
        .scan_batches_range(&query.accessed, false, 0, n, &mut |_, _| {})
        .expect_err("a chunk faults persistently");
    assert!(err.to_string().contains("injected"), "{err}");
    assert!(
        file.posmap().is_none(),
        "a failed first scan installs no map"
    );
    // ...and the query degrades to the row path with the same answer.
    let out = execute_with(&raw(&file), &vectorized(2)).expect("the row fallback answers");
    assert!(out.stats.tables[0].degraded_fallback);
    assert_same(&answer(Ok(out)), &want, "degraded first scan");
    assert!(file.posmap().is_some(), "the row fallback maps the file");

    // A lazy entry's by-id scan degrades the same way.
    let ids: Vec<u32> = (0..clean.record_count().unwrap() as u32)
        .step_by(3)
        .collect();
    let offsets = |file: &Arc<RawFile>| {
        let access = AccessPath::Offsets {
            file: Arc::clone(file),
            store: Arc::new(OffsetStore::build(ids.clone(), 0)),
        };
        plan(&schema, access, &query)
    };
    let want = answer(execute_with(&offsets(&clean), &ROW));
    let faults = plan_where(
        |plan| {
            plan.decide(FaultSite::Chunk, 0, 0) == Some(FaultKind::PersistentIo)
                && plan.decide(FaultSite::RowScan, 0, 0).is_none()
        },
        |seed| FaultPlan::new(seed).persistent(0.5),
    );
    let file = Arc::new(RawFile::from_bytes(bytes, FileFormat::Json, schema.clone()));
    file.scan_projected(&vec![false; schema.leaves().len()], &mut |_, _| {})
        .unwrap();
    file.set_fault_plan(Some(faults));
    let out = execute_with(&offsets(&file), &vectorized(1)).expect("the row fallback answers");
    assert!(out.stats.tables[0].degraded_fallback);
    assert_eq!(out.stats.tables[0].access, AccessKind::CacheOffsets);
    assert_same(&answer(Ok(out)), &want, "degraded by-id scan");
}

#[test]
fn a_failed_nested_first_scan_installs_no_map() {
    let schema = hostile_schema();
    let mut bytes = Vec::new();
    for line in HOSTILE {
        bytes.extend_from_slice(line);
        bytes.push(b'\n');
    }
    let file = RawFile::from_bytes(bytes, FileFormat::Json, schema.clone());
    let name = schema
        .leaf_index(&recache::types::FieldPath::parse("name"))
        .unwrap();
    let chunks = file.batch_chunks();
    // `name` holds invalid UTF-8 in one record: every scan reading it
    // fails, with no map installed.
    for _ in 0..2 {
        assert!(file
            .scan_batches_range(&[name], false, 0, chunks, &mut |_, _| {})
            .is_err());
        assert!(
            file.posmap().is_none(),
            "a failed first scan installs no map"
        );
    }
    // A projection the bad records do not touch maps the file.
    file.scan_batches_range(&[0], false, 0, chunks, &mut |_, _| {})
        .expect("`id` reads everywhere");
    assert_eq!(file.record_count(), Some(HOSTILE.len()));
}

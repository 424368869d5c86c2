//! How a batched raw pass is split into tasks and chunk waves is
//! invisible in the answers. Every run of `exec::execute_with` returns
//! exactly what the single-threaded run of the same plan returns: the
//! aggregate values bit for bit, the rows aggregated, the satisfying
//! record ids and the access label.
//!
//! The matrix is {CSV, flat JSON} × {first scan, mapped re-scan} × four
//! queries over different projections × threads {1, 2, 8} × {no
//! repricer, a repricer cycling 1 → 8 → 2 that splits the pass into
//! chunk waves of changing width}. Under transient chunk faults (seeded
//! from `RECACHE_FAULT_SEED`, as in `tests/chaos.rs`) every run gives
//! the fault-free answer or a typed error.

use recache::data::gen::tpch;
use recache::data::{csv, json, FaultPlan, FileFormat, RawFile, RetryPolicy};
use recache::engine::exec::{self, AccessKind, ExecOptions, QueryOutput, Repricer};
use recache::engine::plan::{AccessPath, QueryPlan, TablePlan};
use recache::sql::parse_query;
use recache::types::{Error, Schema, Value};
use recache::ReCache;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Base seed for the fault plans. CI varies it via `RECACHE_FAULT_SEED`;
/// any value must pass.
fn fault_seed() -> u64 {
    std::env::var("RECACHE_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC1A0_5EED)
}

/// Scale factor sized so `lineitem` (~24k records) spans six
/// 4096-record chunks: a repricer at one thread (four chunks per wave)
/// splits the pass into two waves, and eight threads get several tasks.
const SF: f64 = 0.004;

/// The queries: different ranges over different projections. The
/// `count(*)`s have no slot; query [`COLLECTS`] also collects its
/// satisfying record ids.
const QUERIES: [&str; 4] = [
    "SELECT count(*), sum(l_extendedprice) FROM lineitem \
     WHERE l_quantity >= 5 AND l_quantity <= 30",
    "SELECT avg(l_discount), min(l_extendedprice), max(l_tax) FROM lineitem \
     WHERE l_quantity >= 20 AND l_quantity <= 45 AND l_discount <= 0.06",
    "SELECT count(*), max(l_quantity), min(l_shipdate) FROM lineitem \
     WHERE l_extendedprice >= 2000 AND l_extendedprice < 6000",
    "SELECT sum(l_quantity), min(l_discount), avg(l_tax) FROM lineitem \
     WHERE l_discount >= 0.02 AND l_quantity > 10 AND l_quantity < 40",
];

/// The query that collects satisfying ids.
const COLLECTS: usize = 2;

const THREADS: [usize; 3] = [1, 2, 8];

/// Serialized `lineitem`, generated once and shared by every session.
fn lineitem_fixture() -> &'static (Schema, Vec<u8>, Vec<u8>) {
    static FIXTURE: OnceLock<(Schema, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let schema = tpch::lineitem_schema();
        let (_, rows) = tpch::gen_orders_and_lineitems(SF, 7);
        let csv_bytes = csv::write_csv(&schema, &rows);
        let records: Vec<Value> = rows.iter().map(|r| Value::Struct(r.clone())).collect();
        let json_bytes = json::write_json(&schema, &records);
        (schema, csv_bytes, json_bytes)
    })
}

/// A fresh session with `lineitem` registered in `format`, and the plans
/// of every query in [`QUERIES`] over it.
fn lineitem_plans(format: FileFormat) -> (ReCache, Vec<QueryPlan>) {
    let (schema, csv_bytes, json_bytes) = lineitem_fixture();
    let mut session = ReCache::builder().build();
    match format {
        FileFormat::Csv => {
            session.register_csv_bytes("lineitem", csv_bytes.clone(), schema.clone())
        }
        FileFormat::Json => {
            session.register_json_bytes("lineitem", json_bytes.clone(), schema.clone())
        }
    }
    let plans = QUERIES
        .iter()
        .enumerate()
        .map(|(index, sql)| {
            let resolved = session
                .resolve_query(&parse_query(sql).expect("query parses"))
                .expect("query resolves");
            QueryPlan {
                tables: resolved
                    .tables
                    .into_iter()
                    .map(|t| TablePlan {
                        name: t.name,
                        access: AccessPath::Raw(t.file),
                        accessed: t.accessed,
                        predicate: t.predicate,
                        record_level: t.record_level,
                        collect_satisfying: index == COLLECTS,
                    })
                    .collect(),
                joins: resolved.joins,
                aggregates: resolved.aggregates,
            }
        })
        .collect();
    (session, plans)
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    /// No positional map: the pass tokenizes and builds it.
    FirstScan,
    /// A previous full scan built the positional map.
    Mapped,
}

impl Mode {
    fn access(self) -> AccessKind {
        match self {
            Mode::FirstScan => AccessKind::RawFirstScan,
            Mode::Mapped => AccessKind::RawMapped,
        }
    }
}

/// Puts `file` into `mode`'s scan state, warming it with `warm` (a
/// fault-free solo run) when a map is needed.
fn prepare(file: &RawFile, warm: &QueryPlan, mode: Mode) {
    match mode {
        Mode::FirstScan => file.reset_scan_state(),
        Mode::Mapped => {
            if file.posmap().is_none() {
                exec::execute_with(warm, &ExecOptions::with_threads(1)).expect("warm-up scan");
                assert!(file.posmap().is_some(), "a full scan installs the map");
            }
        }
    }
}

/// What every run of a query must reproduce. Values compare through `Debug`,
/// which prints floats in shortest round-trip form, so equal strings
/// mean equal bits.
#[derive(Debug, PartialEq)]
struct Answer {
    values: Vec<String>,
    rows_aggregated: usize,
    satisfying: Option<Vec<u32>>,
    access: AccessKind,
}

fn answer(output: &QueryOutput) -> Answer {
    let table = &output.stats.tables[0];
    Answer {
        values: output.values.iter().map(|v| format!("{v:?}")).collect(),
        rows_aggregated: output.rows_aggregated,
        satisfying: table.satisfying.clone(),
        access: table.access,
    }
}

/// Every query run alone at one thread, from `mode`'s scan state.
fn solo_answers(file: &RawFile, plans: &[QueryPlan], mode: Mode) -> Vec<Answer> {
    plans
        .iter()
        .map(|plan| {
            prepare(file, &plans[0], mode);
            let solo = answer(&exec::execute_with(plan, &ExecOptions::with_threads(1)).unwrap());
            assert_eq!(solo.access, mode.access());
            solo
        })
        .collect()
}

/// A repricer that cycles the thread budget 1 → 8 → 2 across calls.
/// Clones share the cycle, so successive passes see different budgets.
fn cycling_repricer() -> Repricer {
    let calls = Arc::new(AtomicUsize::new(0));
    Repricer::new(move || [1, 8, 2][calls.fetch_add(1, Ordering::Relaxed) % 3])
}

#[test]
fn repriced_passes_match_one_thread_runs_bit_for_bit() {
    let repricer = cycling_repricer();
    for format in [FileFormat::Csv, FileFormat::Json] {
        let (session, plans) = lineitem_plans(format);
        let file = session.source("lineitem").unwrap();
        assert!(file.batch_chunks() > 4, "fixture must span two waves");
        for mode in [Mode::FirstScan, Mode::Mapped] {
            let solo = solo_answers(file, &plans, mode);
            assert!(
                solo[COLLECTS]
                    .satisfying
                    .as_ref()
                    .is_some_and(|ids| ids.len() > 1000),
                "the collecting query must select rows across chunks"
            );
            for (i, plan) in plans.iter().enumerate() {
                for threads in THREADS {
                    for reprice in [None, Some(repricer.clone())] {
                        let context = format!(
                            "{format:?}/{mode:?}/query {i}/threads={threads}/repricer={}",
                            reprice.is_some()
                        );
                        prepare(file, &plans[0], mode);
                        let options = ExecOptions {
                            threads,
                            reprice,
                            ..ExecOptions::default()
                        };
                        let output = exec::execute_with(plan, &options)
                            .unwrap_or_else(|e| panic!("{context}: {e}"));
                        assert_eq!(
                            answer(&output),
                            solo[i],
                            "{context}: diverged from the one-thread run"
                        );
                        assert_eq!(output.stats.tables[0].retried_chunks, 0, "{context}");
                    }
                }
            }
        }
    }
}

#[test]
fn faulted_passes_are_clean_or_typed_errors() {
    let retry = RetryPolicy {
        max_attempts: 6,
        base_backoff: Duration::from_micros(5),
        max_backoff: Duration::from_micros(50),
    };
    let mut retried = 0u64;
    for format in [FileFormat::Csv, FileFormat::Json] {
        let (session, plans) = lineitem_plans(format);
        let file = session.source("lineitem").unwrap();
        file.set_retry_policy(retry);
        for mode in [Mode::FirstScan, Mode::Mapped] {
            file.set_fault_plan(None);
            let solo = solo_answers(file, &plans, mode);
            for (i, plan) in plans.iter().enumerate() {
                for threads in THREADS {
                    let context = format!("{format:?}/{mode:?}/query {i}/threads={threads}");
                    // Vary the plan seed per cell so the cells explore
                    // different fault placements, all reproducibly.
                    let seed = fault_seed()
                        ^ (threads as u64) << 8
                        ^ (i as u64) << 16
                        ^ (mode as u64) << 24
                        ^ (format as u64) << 32;
                    file.set_fault_plan(None);
                    prepare(file, &plans[0], mode);
                    file.set_fault_plan(Some(FaultPlan::new(seed).transient(0.3)));
                    match exec::execute_with(plan, &ExecOptions::with_threads(threads)) {
                        Ok(output) => {
                            assert_eq!(answer(&output), solo[i], "{context}: faults changed it");
                            retried += output.stats.tables[0].retried_chunks;
                        }
                        Err(e) => assert!(
                            matches!(e, Error::Io(_) | Error::Timeout | Error::Cancelled),
                            "{context}: fault surfaced as untyped error: {e}"
                        ),
                    }
                }
            }
        }
        file.set_fault_plan(None);
    }
    assert!(
        retried > 0,
        "a 30% transient rate over six chunks per pass must retry at least once"
    );
}

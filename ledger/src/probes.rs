//! Probes: the harness times a layer's public functions directly, on the
//! traced run's own data and requests. A probe isolates one function the
//! workload's spans can only see summed with its neighbours — a
//! tokenizer pass, a layout build, the kernels alone, the codec alone.

use crate::stats::median;
use crate::workloads::Workload;
use recache_core::{CacheOutcome, QueryRequest, QueryTelemetry};
use recache_data::{FileFormat, RawFile};
use recache_engine::exec::{execute_with, ExecOptions};
use recache_engine::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache_engine::sql::parse_query;
use recache_engine::Expr;
use recache_layout::{ColumnStore, DremelStore};
use recache_server::protocol::{decode_request, decode_response, encode_request, encode_response};
use recache_server::{QueryReply, Request, Response};
use recache_types::{FieldPath, Schema, Value};
use recache_workload::spec_to_sql;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

pub struct Probe {
    pub name: &'static str,
    pub value: f64,
    pub samples: u64,
}

/// Repeats of a whole-pass probe; the median is reported.
const REPEATS: usize = 5;
/// Requests whose text the parse and codec probes run over.
const TEXT_REQUESTS: u64 = 200;

/// Median wall time of `f` over [`REPEATS`] runs, in ms; `before` runs
/// untimed ahead of each.
fn median_ms(mut before: impl FnMut(), mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPEATS)
        .map(|_| {
            before();
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times).expect("REPEATS > 0")
}

fn leaf(schema: &Schema, path: &str) -> usize {
    schema
        .leaf_index(&FieldPath::parse(path))
        .unwrap_or_else(|| panic!("probe leaf '{path}' is in the schema"))
}

/// One full pass over a raw file with a fixed two-leaf projection: the
/// batched tokenizer where the file supports it (CSV), the row tokenizer
/// otherwise (nested JSON) — the paths the engine takes on a miss.
fn raw_pass(file: &RawFile, projection: &[usize]) {
    if file.supports_batch_scan() {
        let chunks = file.batch_chunks();
        file.scan_batches_range(projection, false, 0, chunks, &mut |batch, _| {
            black_box(batch);
        })
        .expect("probe scan");
    } else {
        let mut accessed = vec![false; file.leaves().len()];
        for &leaf in projection {
            accessed[leaf] = true;
        }
        file.scan_projected(&accessed, &mut |_, row| {
            black_box(row);
        })
        .expect("probe scan");
    }
}

/// First scans (no positional map yet) and mapped re-scans of one file.
fn raw_probes(
    bytes: &[u8],
    format: FileFormat,
    schema: &Schema,
    projection: &[usize],
) -> (f64, f64) {
    let file = RawFile::from_bytes(bytes.to_vec(), format, schema.clone());
    let first = median_ms(|| file.reset_scan_state(), || raw_pass(&file, projection));
    // The last first scan left the map in place.
    let mapped = median_ms(|| {}, || raw_pass(&file, projection));
    (first, mapped)
}

/// `count, sum, min, max` over a range filter: the kernel-only floor.
fn kernel_plan(store: Arc<ColumnStore>, filter_leaf: usize, value_leaf: usize) -> QueryPlan {
    let aggregate = |slot, func| AggSpec {
        table: 0,
        slot,
        func,
    };
    QueryPlan {
        tables: vec![TablePlan {
            name: "probe".to_owned(),
            access: AccessPath::Columnar(store),
            accessed: vec![filter_leaf, value_leaf],
            predicate: Some(Expr::between(0, 10.0, 40.0)),
            record_level: true,
            collect_satisfying: false,
        }],
        joins: vec![],
        aggregates: vec![
            aggregate(None, AggFunc::Count),
            aggregate(Some(1), AggFunc::Sum),
            aggregate(Some(1), AggFunc::Min),
            aggregate(Some(1), AggFunc::Max),
        ],
    }
}

pub fn run(workload: &mut dyn Workload) -> Vec<Probe> {
    let mut out = Vec::new();
    let mut push = |name, value, samples| {
        out.push(Probe {
            name,
            value,
            samples,
        })
    };

    // The request texts first: generating them needs the workload
    // mutably, everything after borrows its data.
    let texts: Vec<(String, usize)> = (0..TEXT_REQUESTS.min(workload.guaranteed()))
        .map(|id| {
            let spec = workload.request(id).0;
            (spec_to_sql(&spec), spec.aggregates.len())
        })
        .collect();
    let data = workload.data();

    let csv_projection = [
        leaf(&data.csv_schema, "l_quantity"),
        leaf(&data.csv_schema, "l_extendedprice"),
    ];
    let json_projection = [
        leaf(&data.json_schema, "o_totalprice"),
        leaf(&data.json_schema, "lineitems.l_quantity"),
    ];
    let (first, mapped) = raw_probes(
        &data.csv_bytes,
        FileFormat::Csv,
        &data.csv_schema,
        &csv_projection,
    );
    push("data.first_scan_ms_csv", first, REPEATS as u64);
    push("data.mapped_scan_ms_csv", mapped, REPEATS as u64);
    let (first, mapped) = raw_probes(
        &data.json_bytes,
        FileFormat::Json,
        &data.json_schema,
        &json_projection,
    );
    push("data.first_scan_ms_json", first, REPEATS as u64);
    push("data.mapped_scan_ms_json", mapped, REPEATS as u64);

    let mut columnar = None;
    let build = median_ms(
        || {},
        || {
            columnar = Some(ColumnStore::build(
                &data.csv_schema,
                data.csv_records.iter(),
            ))
        },
    );
    push("layout.build_ms_columnar", build, REPEATS as u64);
    let columnar = Arc::new(columnar.expect("built above"));
    let scan = median_ms(
        || {},
        || {
            black_box(
                columnar.scan_batches(&csv_projection, true, false, &mut |batch, _| {
                    black_box(batch);
                }),
            );
        },
    );
    push("layout.scan_ms_columnar", scan, REPEATS as u64);

    let mut dremel = None;
    let build = median_ms(
        || {},
        || {
            dremel = Some(DremelStore::build(
                &data.json_schema,
                data.json_records.iter(),
            ))
        },
    );
    push("layout.build_ms_dremel", build, REPEATS as u64);
    let dremel = dremel.expect("built above");
    let scan = median_ms(
        || {},
        || {
            // A repeated leaf is projected, so this is the assembled
            // (level-stream) scan, not the borrowed record-level one.
            black_box(
                dremel.scan_batches(&json_projection, false, false, &mut |batch, _| {
                    black_box(batch);
                }),
            );
        },
    );
    push("layout.scan_ms_dremel", scan, REPEATS as u64);

    let plan = kernel_plan(columnar, csv_projection[0], csv_projection[1]);
    let options = ExecOptions::with_threads(1);
    let kernel = median_ms(
        || {},
        || {
            black_box(
                execute_with(&plan, &options)
                    .expect("probe plan runs")
                    .values,
            );
        },
    );
    push("engine.kernel_ms", kernel, REPEATS as u64);

    let t0 = Instant::now();
    for (sql, _) in &texts {
        black_box(parse_query(sql).expect("own request text parses"));
    }
    let parse_us = t0.elapsed().as_secs_f64() * 1e6 / texts.len() as f64;
    push("engine.parse_us", parse_us, texts.len() as u64);

    // The codec alone: a request frame out and back, a reply frame of
    // the request's arity out and back.
    let t0 = Instant::now();
    for (sql, arity) in &texts {
        let request = Request::Query(QueryRequest::sql(sql.clone()));
        black_box(decode_request(&encode_request(&request)).expect("own frame decodes"));
        let reply = Response::Result(QueryReply {
            rows: vec![Value::Float(1234.5678); *arity],
            rows_aggregated: 1000,
            telemetry: QueryTelemetry {
                tag: None,
                threads_granted: 1,
                outcome: CacheOutcome::ResultHit,
                data_ns: 0,
                compute_ns: 0,
                exec_ns: 0,
                total_ns: 1000,
            },
        });
        black_box(decode_response(&encode_response(&reply)).expect("own frame decodes"));
    }
    let codec_us = t0.elapsed().as_secs_f64() * 1e6 / texts.len() as f64;
    push("server.codec_us", codec_us, texts.len() as u64);

    out
}

//! Parallel-execution determinism.
//!
//! A parallel aggregate must produce *identical bit patterns* across
//! repeated runs at a fixed thread count — and, because sums accumulate
//! through the order-independent `ExactSum` superaccumulator and
//! extremes/ids merge in fixed task order, also across *different* thread
//! counts and against single-threaded execution. Work stealing hands
//! chunks to different workers on every run; none of that may show up in
//! query results.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recache::engine::exec::{execute_with, ExecOptions};
use recache::engine::expr::{CmpOp, Expr};
use recache::engine::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache::layout::{ColumnStore, DremelStore};
use recache::types::{DataType, Field, Schema, Value};
use std::sync::Arc;

fn options(threads: usize) -> ExecOptions {
    ExecOptions {
        vectorized: true,
        threads,
        cancel: None,
        reprice: None,
    }
}

/// Floats spanning ~30 orders of magnitude with mixed signs: the worst
/// case for reduction-order-dependent summation. Any merge of `f64`
/// partials would differ between runs in the last ulps; the exact
/// accumulator must not.
fn wild_float_records(n: usize, seed: u64) -> (Schema, Vec<Value>) {
    let schema = Schema::new(vec![
        Field::required("k", DataType::Int),
        Field::new("v", DataType::Float),
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    let records = (0..n)
        .map(|i| {
            let v = if i % 97 == 0 {
                Value::Null
            } else {
                let mag: f64 = rng.random_range(-15.0..15.0);
                let sign = if rng.random::<bool>() { 1.0 } else { -1.0 };
                Value::Float(sign * rng.random_range(1.0..10.0) * 10f64.powf(mag))
            };
            Value::Struct(vec![Value::Int((i % 512) as i64), v])
        })
        .collect();
    (schema, records)
}

fn agg_plan(access: AccessPath) -> QueryPlan {
    QueryPlan {
        tables: vec![TablePlan {
            name: "t".into(),
            access,
            accessed: vec![0, 1],
            predicate: Some(Expr::cmp(0, CmpOp::Lt, 400i64)),
            record_level: true,
            collect_satisfying: true,
        }],
        joins: vec![],
        aggregates: [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ]
        .into_iter()
        .map(|func| AggSpec {
            table: 0,
            slot: Some(1),
            func,
        })
        .collect(),
    }
}

/// Exact bit pattern of every output value (plain `==` on `f64` would
/// conflate -0.0 with 0.0 and miss nothing else; bits catch everything).
fn value_bits(values: &[Value]) -> Vec<u64> {
    values
        .iter()
        .map(|v| match v {
            Value::Float(f) => f.to_bits(),
            Value::Int(i) => *i as u64,
            other => panic!("unexpected aggregate output {other:?}"),
        })
        .collect()
}

#[test]
fn parallel_float_aggregates_are_deterministic_across_runs() {
    let (schema, records) = wild_float_records(60_000, 0xF00D);
    let stores: Vec<(&str, AccessPath)> = vec![
        (
            "columnar",
            AccessPath::Columnar(Arc::new(ColumnStore::build(&schema, records.iter()))),
        ),
        (
            "dremel",
            AccessPath::Dremel(Arc::new(DremelStore::build(&schema, records.iter()))),
        ),
    ];
    for (name, access) in stores {
        let plan = agg_plan(access);
        let reference = execute_with(&plan, &options(1)).unwrap();
        let reference_bits = value_bits(&reference.values);
        for threads in [2usize, 4, 8] {
            for run in 0..5 {
                let out = execute_with(&plan, &options(threads)).unwrap();
                assert_eq!(
                    value_bits(&out.values),
                    reference_bits,
                    "{name}: threads {threads} run {run} diverged from single-threaded bits"
                );
                assert_eq!(
                    out.rows_aggregated, reference.rows_aggregated,
                    "{name}: row count must be stable"
                );
                assert_eq!(
                    out.stats.tables[0].satisfying, reference.stats.tables[0].satisfying,
                    "{name}: satisfying ids must merge in row order"
                );
            }
        }
    }
}

#[test]
fn parallel_phase_timings_sum_worker_accumulators() {
    // The D/C split the cost model consumes must aggregate every
    // worker's measured time: rows/rows_visited are exact counters, so
    // their parallel totals must equal the serial totals, and the
    // parallel timings must be nonzero wherever the serial ones are.
    let (schema, records) = wild_float_records(60_000, 0xBEEF);
    let plan = agg_plan(AccessPath::Columnar(Arc::new(ColumnStore::build(
        &schema,
        records.iter(),
    ))));
    let serial = execute_with(&plan, &options(1)).unwrap();
    let parallel = execute_with(&plan, &options(4)).unwrap();
    let s = serial.stats.tables[0].cache_scan.unwrap();
    let p = parallel.stats.tables[0].cache_scan.unwrap();
    assert_eq!(p.rows, s.rows, "emitted rows must sum across workers");
    assert_eq!(
        p.rows_visited, s.rows_visited,
        "visited row slots must sum across workers"
    );
    assert!(p.data_ns > 0, "data-access time must survive the merge");
    assert!(
        p.total_ns() > 0,
        "total scan cost must aggregate worker accumulators"
    );
}

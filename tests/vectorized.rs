//! Vectorized ↔ row-at-a-time equivalence, across a thread matrix.
//!
//! Whatever the execution mode — typed batch kernels or per-row
//! `Expr::eval_bool`, single-threaded or fanned out across the work
//! pool — `QueryOutput.values` and `rows_aggregated` must be
//! *bit-identical* across all three cache layouts plus raw access, on
//! flat TPC-H, nested TPC-H, Yelp-style, spam-generator, NULL-heavy
//! (JSON and CSV) and high-cardinality-string data, for record-level and
//! element-level scans. The suite runs at `threads ∈ {1, 2, 8}`; exact
//! summation (`ExactSum`) plus fixed-order partial merges are what make
//! float aggregates independent of the parallel task decomposition.
//!
//! Two axes added with the batched raw-scan / dictionary work:
//! * **raw batched vs row** — every dataset (CSV, flat JSON, and nested
//!   JSON read through its structure tapes) runs the raw access path in
//!   both modes (vectorized raw scans parse into typed batches; the row
//!   mode is the per-record tokenizer), first-scan and posmap-mapped;
//! * **dict vs plain** — stores built with dictionary encoding enabled
//!   (the default) and disabled must agree with each other and with the
//!   row path; the high-cardinality dataset must *not* dictionary-encode.

use rand::{rngs::StdRng, Rng, SeedableRng};
use recache::data::gen::{spam, tpch, yelp};
use recache::data::{csv, json, FileFormat, RawFile};
use recache::engine::exec::{execute_with, ExecOptions};
use recache::engine::expr::{CmpOp, Expr};
use recache::engine::plan::{AccessPath, AggFunc, AggSpec, QueryPlan, TablePlan};
use recache::layout::{ColumnStore, DremelStore, OffsetStore};
use recache::types::{DataType, Field, FieldPath, Schema, Value};
use std::sync::Arc;

const ROW: ExecOptions = ExecOptions {
    vectorized: false,
    threads: 1,
    cancel: None,
    reprice: None,
};

const fn vectorized(threads: usize) -> ExecOptions {
    ExecOptions {
        vectorized: true,
        threads,
        cancel: None,
        reprice: None,
    }
}

struct Dataset {
    name: &'static str,
    schema: Schema,
    records: Vec<Value>,
    format: FileFormat,
}

fn flat_rows(records: &[Value]) -> Vec<Vec<Value>> {
    records
        .iter()
        .map(|r| match r {
            Value::Struct(fields) => fields.clone(),
            other => panic!("expected struct record, got {other:?}"),
        })
        .collect()
}

fn datasets() -> Vec<Dataset> {
    let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0005, 7);
    let lineitem_records: Vec<Value> = lineitems.into_iter().map(Value::Struct).collect();
    let null_heavy_schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("s", DataType::Str),
        Field::new("tags", DataType::List(Box::new(DataType::Float))),
    ]);
    // Dense nulls in every column, plus empty/absent lists.
    let null_heavy: Vec<Value> = (0..600i64)
        .map(|i| {
            let x = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i % 50)
            };
            let s = match i % 4 {
                0 => Value::Null,
                1 => Value::Str(String::new()),
                _ => Value::Str(format!("s{}", i % 17)),
            };
            let tags = match i % 5 {
                0 => Value::Null,
                1 => Value::List(vec![]),
                _ => Value::List((0..i % 4).map(|j| Value::Float(j as f64 * 0.5)).collect()),
            };
            Value::Struct(vec![x, s, tags])
        })
        .collect();
    // Flat CSV with dense nulls in every column: exercises the batched
    // raw tokenizer's null handling and validity bitmaps.
    let null_heavy_csv_schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("s", DataType::Str),
        Field::new("f", DataType::Float),
    ]);
    let null_heavy_csv: Vec<Value> = (0..700i64)
        .map(|i| {
            let x = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i % 40)
            };
            let s = if i % 4 == 0 {
                Value::Null
            } else {
                Value::Str(format!("s{}", i % 11))
            };
            let f = if i % 5 == 0 {
                Value::Null
            } else {
                Value::Float(i as f64 * 0.125 - 20.0)
            };
            Value::Struct(vec![x, s, f])
        })
        .collect();
    // Every string unique: must NOT dictionary-encode, and dict-vs-plain
    // equivalence degenerates to plain-vs-plain (still asserted).
    let high_card_schema = Schema::new(vec![
        Field::required("k", DataType::Int),
        Field::required("u", DataType::Str),
    ]);
    let high_card: Vec<Value> = (0..800i64)
        .map(|i| Value::Struct(vec![Value::Int(i), Value::Str(format!("uniq-{i:05}"))]))
        .collect();
    // Flat JSON: every top-level field scalar, so the batched JSON
    // tokenizer serves the raw path. Absent keys (the writer omits
    // nulls) and a bool column exercise the staging walk.
    let flat_json_schema = Schema::new(vec![
        Field::required("k", DataType::Int),
        Field::new("v", DataType::Float),
        Field::new("tag", DataType::Str),
        Field::new("flag", DataType::Bool),
    ]);
    let flat_json: Vec<Value> = (0..900i64)
        .map(|i| {
            Value::Struct(vec![
                Value::Int(i % 120),
                if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float(i as f64 * 0.5 - 55.0)
                },
                if i % 5 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("t{}", i % 19))
                },
                if i % 3 == 0 {
                    Value::Null
                } else {
                    Value::Bool(i % 2 == 0)
                },
            ])
        })
        .collect();
    // NULL-/missing-key-heavy flat JSON: most keys absent on most
    // records (the writer drops null fields), so the batched walk's
    // missing-key staging dominates.
    let sparse_json_schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("s", DataType::Str),
        Field::new("f", DataType::Float),
    ]);
    let sparse_json: Vec<Value> = (0..700i64)
        .map(|i| {
            Value::Struct(vec![
                if i % 2 == 0 {
                    Value::Null
                } else {
                    Value::Int(i % 40)
                },
                if i % 3 != 1 {
                    Value::Null
                } else {
                    Value::Str(format!("s{}", i % 11))
                },
                if i % 4 != 2 {
                    Value::Null
                } else {
                    Value::Float(i as f64 * 0.125 - 20.0)
                },
            ])
        })
        .collect();
    vec![
        Dataset {
            name: "tpch_lineitem_csv",
            schema: tpch::lineitem_schema(),
            records: lineitem_records,
            format: FileFormat::Csv,
        },
        Dataset {
            name: "null_heavy_csv",
            schema: null_heavy_csv_schema,
            records: null_heavy_csv,
            format: FileFormat::Csv,
        },
        Dataset {
            name: "high_card_str_csv",
            schema: high_card_schema,
            records: high_card,
            format: FileFormat::Csv,
        },
        Dataset {
            name: "flat_json",
            schema: flat_json_schema,
            records: flat_json,
            format: FileFormat::Json,
        },
        Dataset {
            name: "null_heavy_flat_json",
            schema: sparse_json_schema,
            records: sparse_json,
            format: FileFormat::Json,
        },
        Dataset {
            name: "tpch_order_lineitems_json",
            schema: tpch::order_lineitems_schema(),
            records: tpch::gen_order_lineitems(0.0005, 7),
            format: FileFormat::Json,
        },
        Dataset {
            name: "yelp_business_json",
            schema: yelp::business_schema(),
            records: yelp::gen_business(150, 7),
            format: FileFormat::Json,
        },
        Dataset {
            name: "spam_json",
            schema: spam::spam_json_schema(),
            records: spam::gen_spam_json(400, 7),
            format: FileFormat::Json,
        },
        Dataset {
            name: "null_heavy_json",
            schema: null_heavy_schema,
            records: null_heavy,
            format: FileFormat::Json,
        },
    ]
}

/// Builds queries over a dataset: every numeric leaf gets a range query,
/// the first string leaf equality/inequality/ordered queries (against
/// `string_lit`, a literal sampled from the data so predicates actually
/// select), plus an unfiltered scan and a non-compilable (OR) predicate
/// to exercise the fallback path. Both record-level (non-repeated leaves
/// only) and element-level variants are generated where the schema
/// allows.
fn queries(schema: &Schema, string_lit: Option<&str>) -> Vec<(Vec<usize>, Option<Expr>, bool)> {
    let leaves = schema.leaves();
    let numeric: Vec<usize> = (0..leaves.len())
        .filter(|&l| {
            matches!(
                leaves[l].scalar_type,
                recache::types::ScalarType::Int | recache::types::ScalarType::Float
            )
        })
        .collect();
    let strings: Vec<usize> = (0..leaves.len())
        .filter(|&l| leaves[l].scalar_type == recache::types::ScalarType::Str)
        .collect();
    let record_level = |accessed: &[usize]| accessed.iter().all(|&l| leaves[l].max_rep == 0);

    let mut out = Vec::new();
    // Range filter + aggregate over consecutive numeric leaf pairs.
    for pair in numeric.windows(2).step_by(2) {
        let accessed = vec![pair[0], pair[1]];
        let pred = Some(Expr::between(0, 2.0, 5_000.0));
        out.push((accessed.clone(), pred, record_level(&accessed)));
    }
    // Strict / inequality operators on the first numeric leaf.
    if let Some(&leaf) = numeric.first() {
        for op in [CmpOp::Lt, CmpOp::Gt, CmpOp::Ne, CmpOp::Eq] {
            out.push((
                vec![leaf],
                Some(Expr::cmp(0, op, 10i64)),
                record_level(&[leaf]),
            ));
        }
    }
    // String equality and ordering: both a fixed probe and, when the
    // caller sampled one, a literal that actually occurs in the data —
    // exercising the dict kernels' exact-match and code-range paths with
    // real selections (and their miss paths via the probe).
    if let Some(&leaf) = strings.first() {
        let accessed = vec![leaf];
        let rl = record_level(&accessed);
        out.push((accessed.clone(), Some(Expr::cmp(0, CmpOp::Ge, "m")), rl));
        let mut lits = vec!["m".to_owned()];
        if let Some(lit) = string_lit {
            lits.push(lit.to_owned());
        }
        for lit in lits {
            for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Gt] {
                out.push((accessed.clone(), Some(Expr::cmp(0, op, lit.as_str())), rl));
            }
        }
    }
    // Unfiltered element-level scan over the widest projection, plus a
    // record-level scan over the non-repeated leaves (the planner only
    // sets `record_level` when no repeated leaf is accessed).
    let all: Vec<usize> = (0..leaves.len()).collect();
    out.push((all, None, false));
    let non_repeated: Vec<usize> = (0..leaves.len())
        .filter(|&l| leaves[l].max_rep == 0)
        .collect();
    if !non_repeated.is_empty() {
        out.push((non_repeated, None, true));
    }
    // Non-compilable OR predicate: exercises the row fallback even in
    // vectorized mode.
    if numeric.len() >= 2 {
        let accessed = vec![numeric[0], numeric[1]];
        let pred = Some(Expr::Or(vec![
            Expr::cmp(0, CmpOp::Lt, 5i64),
            Expr::cmp(1, CmpOp::Gt, 100i64),
        ]));
        out.push((accessed.clone(), pred, record_level(&accessed)));
    }
    out
}

fn aggregates_for(accessed: &[usize]) -> Vec<AggSpec> {
    let mut aggs = vec![AggSpec {
        table: 0,
        slot: None,
        func: AggFunc::Count,
    }];
    for (slot, _) in accessed.iter().enumerate().take(3) {
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            aggs.push(AggSpec {
                table: 0,
                slot: Some(slot),
                func,
            });
        }
    }
    aggs
}

fn plan_for(access: AccessPath, query: &(Vec<usize>, Option<Expr>, bool)) -> QueryPlan {
    let (accessed, predicate, record_level) = query;
    QueryPlan {
        tables: vec![TablePlan {
            name: "t".into(),
            access,
            accessed: accessed.clone(),
            predicate: predicate.clone(),
            record_level: *record_level,
            collect_satisfying: false,
        }],
        joins: vec![],
        aggregates: aggregates_for(accessed),
    }
}

#[test]
fn vectorized_equals_row_across_layouts_and_datasets() {
    equivalence_suite(1);
}

#[test]
fn parallel_2_threads_equals_row_across_layouts_and_datasets() {
    equivalence_suite(2);
}

#[test]
fn parallel_8_threads_equals_row_across_layouts_and_datasets() {
    equivalence_suite(8);
}

/// First non-null value of the first string leaf, for predicates that
/// actually select rows.
fn sample_string_literal(schema: &Schema, records: &[Value]) -> Option<String> {
    let leaves = schema.leaves();
    let leaf =
        (0..leaves.len()).find(|&l| leaves[l].scalar_type == recache::types::ScalarType::Str)?;
    for record in records {
        for row in recache::types::flatten_record(schema, record) {
            if let Value::Str(s) = &row[leaf] {
                if !s.is_empty() {
                    return Some(s.clone());
                }
            }
        }
    }
    None
}

fn equivalence_suite(threads: usize) {
    let options = vectorized(threads);
    for ds in datasets() {
        let bytes = match ds.format {
            FileFormat::Csv => csv::write_csv(&ds.schema, &flat_rows(&ds.records)),
            FileFormat::Json => json::write_json(&ds.schema, &ds.records),
        };
        // Two raw files per dataset: a cold one whose batched-vs-row
        // axis covers the *first-scan* tokenizers, and a warm one (posmap
        // built) covering the mapped scans and the offsets path.
        let cold_file = Arc::new(RawFile::from_bytes(
            bytes.clone(),
            ds.format,
            ds.schema.clone(),
        ));
        let file = Arc::new(RawFile::from_bytes(bytes, ds.format, ds.schema.clone()));
        let all = vec![true; file.leaves().len()];
        file.scan_projected(&all, &mut |_, _| {}).unwrap();
        let offsets = Arc::new(OffsetStore::build(
            (0..ds.records.len() as u32).collect(),
            0,
        ));
        let columnar = Arc::new(ColumnStore::build(&ds.schema, ds.records.iter()));
        let dremel = Arc::new(DremelStore::build(&ds.schema, ds.records.iter()));
        // The dict-vs-plain axis: encoding disabled outright.
        let columnar_plain = Arc::new(ColumnStore::build_with_dict(
            &ds.schema,
            ds.records.iter(),
            None,
        ));
        let dremel_plain = Arc::new(DremelStore::build_with_dict(
            &ds.schema,
            ds.records.iter(),
            None,
        ));
        let string_lit = sample_string_literal(&ds.schema, &ds.records);

        for (qi, query) in queries(&ds.schema, string_lit.as_deref())
            .iter()
            .enumerate()
        {
            let mut accesses: Vec<(&str, AccessPath)> = vec![
                ("raw_mapped", AccessPath::Raw(Arc::clone(&file))),
                (
                    "offsets",
                    AccessPath::Offsets {
                        file: Arc::clone(&file),
                        store: Arc::clone(&offsets),
                    },
                ),
                ("columnar", AccessPath::Columnar(Arc::clone(&columnar))),
                ("dremel", AccessPath::Dremel(Arc::clone(&dremel))),
                (
                    "columnar_plain",
                    AccessPath::Columnar(Arc::clone(&columnar_plain)),
                ),
                (
                    "dremel_plain",
                    AccessPath::Dremel(Arc::clone(&dremel_plain)),
                ),
            ];
            if cold_file.supports_batch_scan() {
                // Cold raw file (CSV, flat or nested JSON): the vectorized
                // run is the batched first scan. Reset per query so every
                // predicate shape hits the tokenizer, not the map its
                // predecessor built.
                cold_file.reset_scan_state();
                accesses.insert(
                    0,
                    ("raw_first_scan", AccessPath::Raw(Arc::clone(&cold_file))),
                );
            }
            let reference =
                execute_with(&plan_for(AccessPath::Raw(Arc::clone(&file)), query), &ROW).unwrap();
            for (path_name, access) in accesses {
                let plan = plan_for(access, query);
                let row_out = execute_with(&plan, &ROW).unwrap();
                if path_name == "raw_first_scan" {
                    cold_file.reset_scan_state();
                }
                let vec_out = execute_with(&plan, &options).unwrap();
                let ctx = format!(
                    "dataset {} query {qi} path {path_name} threads {threads}",
                    ds.name
                );
                assert_eq!(
                    row_out.values, vec_out.values,
                    "{ctx}: vectorized values diverged from row-at-a-time"
                );
                assert_eq!(
                    row_out.rows_aggregated, vec_out.rows_aggregated,
                    "{ctx}: vectorized row count diverged"
                );
                assert_eq!(
                    vec_out.values, reference.values,
                    "{ctx}: cache path diverged from raw reference"
                );
                assert_eq!(
                    vec_out.rows_aggregated, reference.rows_aggregated,
                    "{ctx}: cache path row count diverged from raw reference"
                );
            }
        }
    }
}

#[test]
fn vectorized_cache_scans_report_nondegenerate_cost_split() {
    // Dremel element-level scans must attribute both assembly (C) and
    // value gathering (D); columnar scans must report their cost as
    // (almost entirely) data access — the split Eq. 4 of the paper needs.
    let records = tpch::gen_order_lineitems(0.001, 3);
    let schema = tpch::order_lineitems_schema();
    let dremel = Arc::new(DremelStore::build(&schema, records.iter()));
    let columnar = Arc::new(ColumnStore::build(&schema, records.iter()));
    let q = schema
        .leaf_index(&FieldPath::parse("lineitems.l_quantity"))
        .unwrap();
    let p = schema
        .leaf_index(&FieldPath::parse("lineitems.l_extendedprice"))
        .unwrap();
    let query = (
        vec![q.min(p), q.max(p)],
        Some(Expr::between(0, 5.0, 45.0)),
        false,
    );

    let out = execute_with(
        &plan_for(AccessPath::Dremel(dremel), &query),
        &vectorized(1),
    )
    .unwrap();
    let cost = out.stats.tables[0].cache_scan.expect("cache scan cost");
    assert!(
        cost.compute_ns > 0,
        "dremel assembly must show compute cost"
    );
    assert!(cost.data_ns > 0, "dremel gather must show data cost");
    assert!(cost.rows > 0);

    let out = execute_with(
        &plan_for(AccessPath::Columnar(columnar), &query),
        &vectorized(1),
    )
    .unwrap();
    let cost = out.stats.tables[0].cache_scan.expect("cache scan cost");
    assert!(cost.total_ns() > 0);
    assert!(cost.rows_visited > 0);
}

#[test]
fn dict_encoding_triggers_only_for_low_cardinality_leaves() {
    for ds in datasets() {
        let columnar = ColumnStore::build(&ds.schema, ds.records.iter());
        let leaves = ds.schema.leaves();
        for (leaf, meta) in leaves.iter().enumerate() {
            if meta.scalar_type != recache::types::ScalarType::Str {
                assert!(
                    !columnar.leaf_is_dict(leaf),
                    "{}: non-string leaf {leaf} must never dict-encode",
                    ds.name
                );
            }
        }
        match ds.name {
            // 64 distinct comments over thousands of rows.
            "tpch_lineitem_csv" => {
                let comment = ds
                    .schema
                    .leaf_index(&FieldPath::parse("l_comment"))
                    .unwrap();
                assert!(
                    columnar.leaf_is_dict(comment),
                    "l_comment is low-cardinality and must dict-encode"
                );
            }
            // 11 tags (plus nulls) over 700 rows.
            "null_heavy_csv" => {
                let s = ds.schema.leaf_index(&FieldPath::parse("s")).unwrap();
                assert!(columnar.leaf_is_dict(s));
            }
            // Unique per row: must NOT dict-encode.
            "high_card_str_csv" => {
                let u = ds.schema.leaf_index(&FieldPath::parse("u")).unwrap();
                assert!(
                    !columnar.leaf_is_dict(u),
                    "high-cardinality strings must stay plain"
                );
            }
            _ => {}
        }
    }
    // The Dremel builder applies the same rule.
    let records = tpch::gen_order_lineitems(0.0005, 7);
    let schema = tpch::order_lineitems_schema();
    let dremel = DremelStore::build(&schema, records.iter());
    let comment = schema
        .leaf_index(&FieldPath::parse("lineitems.l_comment"))
        .unwrap();
    assert!(dremel.leaf_is_dict(comment));
    let plain = DremelStore::build_with_dict(&schema, records.iter(), None);
    assert!(!plain.leaf_is_dict(comment));
}

#[test]
fn dict_encoding_shrinks_reported_store_bytes() {
    // The bytes the eviction budget sees are the store's real footprint:
    // dictionary encoding must show up as a smaller byte_size, not a
    // cosmetic view.
    let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0005, 7);
    let schema = tpch::lineitem_schema();
    let records: Vec<Value> = lineitems.into_iter().map(Value::Struct).collect();
    let dict = ColumnStore::build(&schema, records.iter());
    let plain = ColumnStore::build_with_dict(&schema, records.iter(), None);
    assert!(
        dict.byte_size() < plain.byte_size(),
        "dict {} must be smaller than plain {}",
        dict.byte_size(),
        plain.byte_size()
    );
}

/// Seeded property test: across random pools, row counts, null rates and
/// literals (present and absent), dictionary code-range compares must
/// agree with the row path's `cmp_sql` for every operator — on all three
/// eager store layouts.
#[test]
fn dict_code_range_compares_agree_with_cmp_sql_property() {
    let mut rng = StdRng::seed_from_u64(0x00d1_c7c0);
    let schema = Schema::new(vec![
        Field::new("s", DataType::Str),
        Field::required("k", DataType::Int),
    ]);
    for case in 0..25 {
        let rows = rng.random_range(64..400usize);
        let pool_size = rng.random_range(1..20usize);
        let null_pct = rng.random_range(0..40u32);
        // Random distinct strings of varied lengths (some share
        // prefixes, which stresses byte-wise ordering).
        let pool: Vec<String> = (0..pool_size)
            .map(|i| {
                let len = rng.random_range(1..10usize);
                let mut s = String::new();
                for _ in 0..len {
                    s.push(char::from(b'a' + rng.random_range(0..4u8)));
                }
                format!("{s}{i}")
            })
            .collect();
        let records: Vec<Value> = (0..rows)
            .map(|i| {
                let s = if rng.random_range(0..100u32) < null_pct {
                    Value::Null
                } else {
                    Value::Str(pool[rng.random_range(0..pool.len())].clone())
                };
                Value::Struct(vec![s, Value::Int(i as i64)])
            })
            .collect();
        // Force encoding regardless of cardinality: ratio 1.0 admits
        // every pool (the property must hold for any encoded column).
        let columnar = Arc::new(ColumnStore::build_with_dict(
            &schema,
            records.iter(),
            Some(1.0),
        ));
        assert!(columnar.leaf_is_dict(0), "case {case}: ratio 1.0 encodes");
        let dremel = Arc::new(DremelStore::build_with_dict(
            &schema,
            records.iter(),
            Some(1.0),
        ));

        // Literals: from the pool, mutated (absent), below-all, above-all.
        let mut literals: Vec<String> = vec![
            pool[rng.random_range(0..pool.len())].clone(),
            format!("{}x", pool[rng.random_range(0..pool.len())]),
            String::new(),
            "zzzzzzzzzz".to_owned(),
        ];
        literals.push(format!("b{}", rng.random_range(0..10u32)));
        for lit in &literals {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                let query = (vec![0usize, 1], Some(Expr::cmp(0, op, lit.as_str())), true);
                let reference = execute_with(
                    &plan_for(AccessPath::Columnar(Arc::clone(&columnar)), &query),
                    &ROW,
                )
                .unwrap();
                for (name, access) in [
                    ("columnar", AccessPath::Columnar(Arc::clone(&columnar))),
                    ("dremel", AccessPath::Dremel(Arc::clone(&dremel))),
                ] {
                    let plan = plan_for(access, &query);
                    let vec_out = execute_with(&plan, &vectorized(1)).unwrap();
                    assert_eq!(
                        vec_out.values, reference.values,
                        "case {case} layout {name} op {op:?} lit {lit:?}"
                    );
                    let row_out = execute_with(&plan, &ROW).unwrap();
                    assert_eq!(
                        row_out.values, reference.values,
                        "case {case} layout {name} op {op:?} lit {lit:?} (row)"
                    );
                }
            }
        }
    }
}

/// Every JSON file batches: flat JSON through the batched tokenizer,
/// nested JSON through its structure tapes (`supports_batch_scan` is
/// exactly the predicate the executor's `batchable` uses, so asserting
/// it here asserts which path a vectorized plan runs). A vectorized
/// first scan of a nested file answers as the row mode does and
/// installs the records + tapes posmap the row scan builds.
#[test]
fn nested_and_flat_json_both_batch() {
    let mut saw_flat = false;
    let mut saw_nested = false;
    for ds in datasets() {
        if ds.format != FileFormat::Json {
            continue;
        }
        let bytes = json::write_json(&ds.schema, &ds.records);
        let file = Arc::new(RawFile::from_bytes(bytes, ds.format, ds.schema.clone()));
        assert!(file.supports_batch_scan(), "{}: JSON batches", ds.name);
        if ds.schema.has_nested() {
            saw_nested = true;
            // A vectorized execution on the nested file is the batched
            // tape scan: results match the row mode exactly, a first
            // scan is reported, and the posmap the scan installs is the
            // row tokenizer's records + tapes map.
            let leaves = ds.schema.leaves();
            let accessed: Vec<usize> = (0..leaves.len()).collect();
            let plan = plan_for(AccessPath::Raw(Arc::clone(&file)), &(accessed, None, false));
            let vec_out = execute_with(&plan, &vectorized(4)).unwrap();
            assert_eq!(
                vec_out.stats.tables[0].access,
                recache::engine::exec::AccessKind::RawFirstScan
            );
            assert!(!vec_out.stats.tables[0].degraded_fallback);
            let row_out = execute_with(&plan, &ROW).unwrap();
            assert_eq!(vec_out.values, row_out.values, "{}", ds.name);
            assert_eq!(vec_out.rows_aggregated, row_out.rows_aggregated);
            let map = file
                .posmap()
                .expect("the batched first scan installs the map");
            assert!(!map.has_field_offsets());
            assert!(!map.has_json_value_offsets());
            assert_eq!(map.record_count(), ds.records.len());
        } else {
            saw_flat = true;
        }
    }
    assert!(saw_flat, "suite must include a flat JSON dataset");
    assert!(saw_nested, "suite must include nested JSON datasets");
}

/// Seeded property test: the batched flat-JSON tokenizer must agree with
/// the row tokenizer record for record, value for value, across
/// randomized key orders, absent keys, duplicate keys, unknown keys with
/// nested junk, string escapes (`\"`, `\\`, `\n`, `\t`, `\u`), numeric
/// edge forms (exponent notation, `-0.0`, int/float mixes, i64
/// overflow), explicit nulls, type mismatches, and random whitespace —
/// on random projections, first-scan and posmap-mapped.
#[test]
fn json_batched_tokenizer_agrees_with_row_tokenizer_property() {
    let mut rng = StdRng::seed_from_u64(0x4a50_11f5);
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("s", DataType::Str),
        Field::new("b", DataType::Bool),
    ]);
    let keys = ["i", "f", "s", "b"];
    // Value literals drawn regardless of field: the schema type decides
    // how each parses (mismatches degrade to null on both paths).
    let literals = [
        "null",
        "true",
        "false",
        "3",
        "-7",
        "0",
        "9223372036854775807",
        "92233720368547758990", // i64 overflow -> widens to f64
        "3.9",
        "-0.0",
        "1e3",
        "2.5e-2",
        "-1.5E2",
        "0.1",
        "123456.789",
        "\"plain\"",
        "\"a\\\"b\\\\c\"",
        "\"x\\ny\\tz\"",
        "\"\\u00e9clair\"",
        "\"s,with:braces}and[\"",
        "[1,2,3]",
        "{\"nested\":{\"deep\":[1,\"}\"]}}",
    ];
    let junk_values = [
        "[1,{\"w\":\"}\"},3]",
        "\"ignored, with : and }\"",
        "-12.5e2",
        "{\"a\":[{\"b\":null}]}",
        "true",
    ];
    for case in 0..20 {
        let rows = rng.random_range(40..250usize);
        let mut bytes: Vec<u8> = Vec::new();
        for _ in 0..rows {
            let mut order: Vec<usize> = (0..keys.len()).collect();
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..(i as u32 + 1)) as usize;
                order.swap(i, j);
            }
            let mut parts: Vec<String> = Vec::new();
            for &k in &order {
                if rng.random_range(0..100u32) < 25 {
                    continue; // absent key
                }
                let lit = literals[rng.random_range(0..literals.len() as u32) as usize];
                let ws1 = if rng.random_range(0..4u32) == 0 {
                    " "
                } else {
                    ""
                };
                let ws2 = if rng.random_range(0..4u32) == 0 {
                    " "
                } else {
                    ""
                };
                parts.push(format!("\"{}\"{ws1}:{ws2}{lit}", keys[k]));
            }
            if rng.random_range(0..100u32) < 35 {
                let junk = junk_values[rng.random_range(0..junk_values.len() as u32) as usize];
                let pos = rng.random_range(0..(parts.len() as u32 + 1)) as usize;
                parts.insert(pos, format!("\"z{}\":{junk}", rng.random_range(0..3u32)));
            }
            if rng.random_range(0..100u32) < 10 {
                // Duplicate key: last value wins on both paths.
                parts.push("\"i\":5".to_owned());
            }
            bytes.extend_from_slice(format!("{{{}}}\n", parts.join(",")).as_bytes());
        }

        let row_file = RawFile::from_bytes(bytes.clone(), FileFormat::Json, schema.clone());
        let batched_file = RawFile::from_bytes(bytes, FileFormat::Json, schema.clone());
        assert!(batched_file.supports_batch_scan(), "case {case}");

        // Random non-empty ascending projection (row scans emit accessed
        // leaves in leaf order).
        let mut projection: Vec<usize> = (0..keys.len())
            .filter(|_| rng.random_range(0..2u32) == 0)
            .collect();
        if projection.is_empty() {
            projection = (0..keys.len()).collect();
        }
        let mut accessed = vec![false; keys.len()];
        for &leaf in &projection {
            accessed[leaf] = true;
        }
        let mut expected: Vec<(u32, Vec<Value>)> = Vec::new();
        row_file
            .scan_projected(&accessed, &mut |id, row| {
                expected.push((id as u32, row));
            })
            .unwrap();

        let collect = |file: &RawFile| {
            let chunks = file.batch_chunks();
            let mut got: Vec<(u32, Vec<Value>)> = Vec::new();
            file.scan_batches_range(&projection, true, 0, chunks, &mut |batch, sel| {
                for &i in sel.as_slice() {
                    let i = i as usize;
                    got.push((
                        batch.record_ids[i],
                        batch.columns.iter().map(|c| c.value(i)).collect(),
                    ));
                }
            })
            .unwrap();
            got
        };
        // First scan (tokenizes + installs the posmap), then mapped.
        let first = collect(&batched_file);
        assert_eq!(first, expected, "case {case}: batched first scan diverged");
        let map = batched_file.posmap().expect("coverage installs the map");
        assert_eq!(
            map.record_count(),
            row_file.posmap().unwrap().record_count()
        );
        let mapped = collect(&batched_file);
        assert_eq!(
            mapped, expected,
            "case {case}: batched mapped scan diverged"
        );
    }
}

#[test]
fn satisfying_ids_from_cache_scans_are_source_record_ids() {
    // A store materialized from a subset of file records must report the
    // *file* record ids of satisfying tuples, not store-local indices —
    // the lazy/offsets admission path depends on it.
    let schema = Schema::new(vec![
        Field::required("k", DataType::Int),
        Field::required("v", DataType::Float),
    ]);
    let cached_ids: Vec<u32> = vec![10, 25, 40, 55];
    let records: Vec<Value> = cached_ids
        .iter()
        .map(|&id| Value::Struct(vec![Value::Int(id as i64), Value::Float(id as f64)]))
        .collect();
    let mut columnar = ColumnStore::build(&schema, records.iter());
    columnar.set_source_record_ids(cached_ids.clone());
    let mut dremel = DremelStore::build(&schema, records.iter());
    dremel.set_source_record_ids(cached_ids.clone());

    for (name, access) in [
        ("columnar", AccessPath::Columnar(Arc::new(columnar))),
        ("dremel", AccessPath::Dremel(Arc::new(dremel))),
    ] {
        for options in [ROW, vectorized(1), vectorized(4)] {
            let plan = QueryPlan {
                tables: vec![TablePlan {
                    name: "t".into(),
                    access: access.clone(),
                    accessed: vec![0, 1],
                    predicate: Some(Expr::cmp(0, CmpOp::Ge, 25i64)),
                    record_level: true,
                    collect_satisfying: true,
                }],
                joins: vec![],
                aggregates: vec![AggSpec {
                    table: 0,
                    slot: None,
                    func: AggFunc::Count,
                }],
            };
            let out = execute_with(&plan, &options).unwrap();
            assert_eq!(
                out.stats.tables[0].satisfying,
                Some(vec![25, 40, 55]),
                "{name} (vectorized={}) must propagate source record ids",
                options.vectorized
            );
        }
    }
}

//! Integration tests for the cache policies working end-to-end inside a
//! session: admission thresholds, eviction policies with and without the
//! offline oracle, layout switching, and the registry counters.

mod common;

use common::tpch_session;
use recache::data::gen::tpch;
use recache::data::{csv, json};
use recache::layout::{CacheData, ColumnStore, DremelStore, LayoutKind};
use recache::types::Value;
use recache::workload::{
    spa_workload, tpch_spj_workload, Domains, PoolPhase, SpaConfig, SpjConfig, WorkloadOracle,
};
use recache::{Admission, Eviction, LayoutPolicy, QueryRequest, ReCache};

#[test]
fn every_eviction_policy_respects_capacity() {
    let sf = 0.0004;
    let capacity = 30_000;
    for eviction in [
        Eviction::GreedyDual,
        Eviction::Lru,
        Eviction::Lfu,
        Eviction::LruJsonPriority,
        Eviction::MonetDb,
        Eviction::Vectorwise,
    ] {
        let (session, domains) = tpch_session(
            ReCache::builder()
                .eviction(eviction)
                .cache_capacity_bytes(capacity),
            sf,
            7,
        );
        let specs = tpch_spj_workload(&domains, 30, &SpjConfig::default(), 7);
        for spec in &specs {
            session.execute(&QueryRequest::spec(spec.clone())).unwrap();
            assert!(
                session.cache().total_bytes() <= capacity,
                "{} exceeded capacity: {} > {capacity}",
                eviction.name(),
                session.cache().total_bytes()
            );
        }
    }
}

#[test]
fn offline_policies_work_with_workload_oracle() {
    let sf = 0.0004;
    for eviction in [Eviction::FarthestFirst, Eviction::LogOptimal] {
        let (session, domains) = tpch_session(
            ReCache::builder()
                .eviction(eviction)
                .cache_capacity_bytes(40_000),
            sf,
            9,
        );
        let specs = tpch_spj_workload(&domains, 30, &SpjConfig::default(), 9);
        let oracle = WorkloadOracle::build(&session, &specs).unwrap();
        session.set_oracle(Box::new(oracle));
        for spec in &specs {
            session.execute(&QueryRequest::spec(spec.clone())).unwrap();
        }
        assert!(session.cache().total_bytes() <= 40_000);
        let c = session.cache().counters();
        assert!(c.admissions > 0, "{}: no admissions", eviction.name());
    }
}

#[test]
fn admission_threshold_controls_eager_fraction() {
    let sf = 0.0006;
    let mut eager_counts = Vec::new();
    for threshold in [0.01, 0.5] {
        let (session, domains) = tpch_session(
            ReCache::builder().admission(Admission::with_threshold(threshold)),
            sf,
            11,
        );
        let specs = tpch_spj_workload(&domains, 25, &SpjConfig::default(), 11);
        for spec in &specs {
            session.execute(&QueryRequest::spec(spec.clone())).unwrap();
        }
        let eager = session
            .cache()
            .snapshot()
            .into_iter()
            .filter(|e| !matches!(e.data, CacheData::Offsets(_)))
            .count();
        eager_counts.push(eager);
    }
    assert!(
        eager_counts[0] <= eager_counts[1],
        "a stricter threshold must not cache eagerly more often: {eager_counts:?}"
    );
}

/// Checks every layout switch `response` reports: the entry's new store
/// equals a fresh build of the new layout over the raw records it holds,
/// and the answer equals the uncached session's. Returns the switches.
fn checked_switches(
    session: &ReCache,
    reference: &ReCache,
    request: &QueryRequest,
) -> Vec<(LayoutKind, LayoutKind)> {
    let response = session.execute(request).unwrap();
    assert_eq!(response.rows, reference.execute(request).unwrap().rows);
    let mut switches = Vec::new();
    for t in &response.stats.tables {
        let Some(switch) = t.layout_switch else {
            continue;
        };
        let id = t
            .hit
            .and_then(|hit| hit.entry())
            .expect("switches follow hits");
        let data = session.cache().with_entry(id, |e| e.data.clone()).unwrap();
        let ids = data.source_record_ids().unwrap().to_vec();
        let file = session.source(&t.name).unwrap();
        let records = file.read_records(&ids).unwrap();
        match &data {
            CacheData::Columnar(store) => {
                let mut fresh = ColumnStore::build(file.schema(), &records);
                fresh.set_source_record_ids(ids);
                assert_eq!(**store, fresh, "switched columnar store");
            }
            CacheData::Dremel(store) => {
                let mut fresh = DremelStore::build(file.schema(), &records);
                fresh.set_source_record_ids(ids);
                assert_eq!(**store, fresh, "switched Dremel store");
            }
            CacheData::Offsets(_) => panic!("a switch to offsets"),
        }
        assert_eq!(data.layout(), switch.1);
        switches.push(switch);
    }
    switches
}

#[test]
fn auto_layout_switches_on_phase_change() {
    let records = tpch::gen_order_lineitems(0.0006, 3);
    let schema = tpch::order_lineitems_schema();
    let domains = Domains::compute(&schema, records.iter());
    let new_session = |builder: recache::ReCacheBuilder| {
        let mut session = builder.build();
        session.register_json_bytes(
            "orderLineitems",
            json::write_json(&schema, &records),
            schema.clone(),
        );
        session
    };
    let session = new_session(
        ReCache::builder()
            .layout_policy(LayoutPolicy::Auto)
            .admission(Admission::eager_only()),
    );
    let reference = new_session(ReCache::builder().no_caching());
    session
        .execute(&QueryRequest::sql("SELECT count(*) FROM orderLineitems"))
        .unwrap();
    // The warm entry starts in the Dremel layout (nested default).
    let entry = session.cache().snapshot().into_iter().next().unwrap();
    assert_eq!(entry.data.layout(), LayoutKind::Dremel);

    // A sustained all-attributes phase should flip it to columnar.
    let specs = spa_workload(
        "orderLineitems",
        &domains,
        &[(PoolPhase::AllAttrs, 60)],
        &SpaConfig::default(),
        3,
    );
    let mut switched_to_columnar = false;
    for spec in &specs {
        for (from, to) in checked_switches(&session, &reference, &QueryRequest::spec(spec.clone()))
        {
            assert_eq!(from, LayoutKind::Dremel);
            assert_eq!(to, LayoutKind::Columnar);
            switched_to_columnar = true;
        }
    }
    assert!(switched_to_columnar, "expected a Dremel -> columnar switch");

    // A sustained non-nested phase should flip it back. The window
    // deliberately makes switching sticky (§6.1.1: considering all
    // queries since the previous switch "prevents excessive switching
    // overhead"), so this phase must be long enough to outweigh the
    // element-level observations accumulated after the first switch.
    let specs = spa_workload(
        "orderLineitems",
        &domains,
        &[(PoolPhase::NonNestedOnly, 400)],
        &SpaConfig::default(),
        4,
    );
    let mut switched_back = false;
    for spec in &specs {
        for (_, to) in checked_switches(&session, &reference, &QueryRequest::spec(spec.clone())) {
            switched_back |= to == LayoutKind::Dremel;
        }
    }
    assert!(switched_back, "expected a columnar -> Dremel switch");
}

#[test]
fn benefit_metric_keeps_expensive_json_under_pressure() {
    // Two sources: an expensive JSON file and a cheap CSV file of similar
    // cached size. Under pressure, ReCache's cost-based eviction should
    // preferentially keep the JSON-derived entry (higher rebuild cost),
    // while plain LRU treats them alike.
    let seed = 13;
    let sf = 0.0004;
    // Size the budget from a probe run so the JSON entry plus a couple of
    // CSV entries fit, but the full flood does not.
    let probe_sizes = {
        let mut session = ReCache::builder()
            .admission(Admission::eager_only())
            .build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(sf, seed);
        let schema = tpch::lineitem_schema();
        let records: Vec<Value> = lineitems.iter().map(|r| Value::Struct(r.clone())).collect();
        session.register_json_bytes("lineitem_json", json::write_json(&schema, &records), schema);
        let schema = tpch::lineitem_schema();
        session.register_csv_bytes("lineitem_csv", csv::write_csv(&schema, &lineitems), schema);
        session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem_json WHERE l_quantity >= 2",
            ))
            .unwrap();
        session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem_csv WHERE l_quantity BETWEEN 0 AND 30",
            ))
            .unwrap();
        let json_bytes = session
            .cache()
            .snapshot()
            .into_iter()
            .find(|e| e.source == "lineitem_json")
            .map(|e| e.stats.bytes)
            .unwrap();
        let csv_bytes = session
            .cache()
            .snapshot()
            .into_iter()
            .find(|e| e.source == "lineitem_csv")
            .map(|e| e.stats.bytes)
            .unwrap();
        (json_bytes, csv_bytes)
    };
    let capacity = probe_sizes.0 + probe_sizes.1 * 3;
    let build = |eviction: Eviction| {
        let mut session = ReCache::builder()
            .eviction(eviction)
            .cache_capacity_bytes(capacity)
            .admission(Admission::eager_only())
            .build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(sf, seed);
        let schema = tpch::lineitem_schema();
        let records: Vec<Value> = lineitems.iter().map(|r| Value::Struct(r.clone())).collect();
        session.register_json_bytes("lineitem_json", json::write_json(&schema, &records), schema);
        let schema = tpch::lineitem_schema();
        session.register_csv_bytes("lineitem_csv", csv::write_csv(&schema, &lineitems), schema);
        session
    };
    let session = build(Eviction::GreedyDual);
    // Build one JSON-derived entry, reuse it a few times, then flood the
    // cache with CSV-derived entries.
    session
        .execute(&QueryRequest::sql(
            "SELECT count(*) FROM lineitem_json WHERE l_quantity >= 2",
        ))
        .unwrap();
    for _ in 0..3 {
        session
            .execute(&QueryRequest::sql(
                "SELECT count(*) FROM lineitem_json WHERE l_quantity >= 2",
            ))
            .unwrap();
    }
    for lo in 0..10 {
        session
            .execute(&QueryRequest::sql(format!(
                "SELECT count(*) FROM lineitem_csv WHERE l_quantity BETWEEN {lo} AND {}",
                lo + 30
            )))
            .unwrap();
    }
    let json_alive = session
        .cache()
        .snapshot()
        .into_iter()
        .any(|e| e.source == "lineitem_json");
    assert!(
        json_alive,
        "greedy-dual should keep the reused, expensive JSON entry"
    );
}

#[test]
fn auto_layout_keeps_flat_entries_columnar() {
    let schema = tpch::lineitem_schema();
    let (_, rows) = tpch::gen_orders_and_lineitems(0.0006, 5);
    let bytes = csv::write_csv(&schema, &rows);
    let session_with = |builder: recache::ReCacheBuilder| {
        let mut session = builder.build();
        session.register_csv_bytes("lineitem", bytes.clone(), schema.clone());
        session
    };
    let session = session_with(
        ReCache::builder()
            .layout_policy(LayoutPolicy::Auto)
            .admission(Admission::eager_only()),
    );
    let reference = session_with(ReCache::builder().no_caching());

    // One wide entry first, so the rest hit it by subsumption. Then
    // full-width queries (all 16 leaves) alternate with 1–2-leaf ones.
    let every_leaf: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("max({})", f.name))
        .collect();
    let mut queries = vec!["SELECT count(*) FROM lineitem WHERE l_quantity >= 0".to_owned()];
    for i in 0..40 {
        let (lo, hi) = (i % 20, i % 20 + 25);
        queries.push(match i % 3 {
            0 => format!(
                "SELECT {} FROM lineitem WHERE l_quantity BETWEEN {lo} AND {hi}",
                every_leaf.join(", ")
            ),
            1 => format!("SELECT sum(l_quantity) FROM lineitem WHERE l_quantity >= {lo}"),
            _ => format!(
                "SELECT avg(l_extendedprice) FROM lineitem WHERE l_quantity BETWEEN {lo} AND {hi}"
            ),
        });
    }
    let mut hits = 0;
    for sql in &queries {
        let response = session.execute(&QueryRequest::sql(sql.as_str())).unwrap();
        for t in &response.stats.tables {
            assert_eq!(t.layout_switch, None, "{sql}");
            hits += usize::from(t.hit.is_some());
        }
        let want = reference.execute(&QueryRequest::sql(sql.as_str())).unwrap();
        assert_eq!(response.rows, want.rows, "{sql}");
    }
    assert!(hits >= 40, "the queries must reuse the cache: {hits} hits");

    let entries = session.cache().snapshot();
    assert!(!entries.is_empty());
    for entry in entries {
        assert_eq!(
            entry.data.layout(),
            LayoutKind::Columnar,
            "{}",
            entry.signature
        );
        assert_eq!(entry.layout_switches, 0, "{}", entry.signature);
    }
}

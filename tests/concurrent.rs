//! Concurrent query admission, end to end: multi-session replay
//! equivalence against serial execution, single-flight coalescing of
//! duplicate in-flight scans, seeded-interleaving determinism, and
//! registry race invariants (byte budget, double-eviction, counter
//! reconciliation).
//!
//! The CI `concurrency-stress` job runs this suite under a
//! `{sessions ∈ 2,4} × {threads ∈ 1,4}` matrix via the
//! `RECACHE_SESSIONS` / `RECACHE_THREADS` environment variables.

mod common;

use recache::cache::eviction::Lru;
use recache::cache::registry::{range_signature, CacheRegistry, LeafRange};
use recache::data::gen::tpch;
use recache::data::{csv as data_csv, json as data_json, FileFormat};
use recache::layout::{CacheData, OffsetStore};
use recache::types::Value;
use recache::workload::{
    seeded_turns, spa_workload, split_round_robin, tpch_spj_workload, Domains, PoolPhase,
    SpaConfig, SpjConfig,
};
use recache::{QueryRequest, ReCache, Scheduler};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Shared TPC-H fixture with a default-policy session.
fn tpch_session(sf: f64, seed: u64) -> (ReCache, HashMap<String, Domains>) {
    common::tpch_session(ReCache::builder(), sf, seed)
}

/// Matrix knob: number of concurrent sessions (default 4).
fn sessions_knob() -> usize {
    std::env::var("RECACHE_SESSIONS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 2)
        .unwrap_or(4)
}

/// Matrix knob: pool-wide thread budget (default 0 = machine).
fn threads_knob() -> usize {
    std::env::var("RECACHE_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// A mixed SPA/SPJ workload: SPA range scans over `lineitem` interleaved
/// with SPJ joins over the TPC-H tables.
fn mixed_spa_spj(
    domains: &HashMap<String, Domains>,
    count: usize,
    seed: u64,
) -> Vec<recache::sql::QuerySpec> {
    let spa = spa_workload(
        "lineitem",
        &domains["lineitem"],
        &[(PoolPhase::AllAttrs, count)],
        &SpaConfig::default(),
        seed,
    );
    let spj = tpch_spj_workload(domains, count, &SpjConfig::default(), seed);
    spa.into_iter()
        .zip(spj)
        .flat_map(|(a, b)| [a, b])
        .take(count)
        .collect()
}

/// Acceptance criterion: a multi-session concurrent replay of the mixed
/// SPA/SPJ workload produces the same per-query results as the same
/// queries run serially on a fresh session.
#[test]
fn concurrent_replay_matches_serial() {
    let sessions = sessions_knob();
    let threads = threads_knob();
    let sf = 0.0004;
    let (serial_session, domains) = tpch_session(sf, 7);
    let specs = mixed_spa_spj(&domains, 32, 7);
    let serial: Vec<Vec<Value>> = specs
        .iter()
        .map(|s| {
            serial_session
                .execute(&QueryRequest::spec(s.clone()))
                .unwrap()
                .rows
                .clone()
        })
        .collect();

    let (shared, _) = tpch_session(sf, 7);
    let streams = split_round_robin(&specs, sessions);
    let scheduler = Scheduler::new(threads);
    let results = scheduler.run_streams(&shared, &streams).unwrap();
    for (i, expected) in serial.iter().enumerate() {
        let got = &results[i % sessions][i / sessions];
        assert_eq!(
            &got.rows, expected,
            "query {i} differs between concurrent ({sessions} sessions, {threads} threads) and serial execution"
        );
    }
    // Every stream's queries ran; the shared cache did real work.
    assert_eq!(shared.queries_run() as usize, specs.len());
    assert!(shared.cache().counters().admissions > 0);
}

/// Acceptance criterion: duplicate in-flight cacheable scans coalesce —
/// the second session waits for the first's admission and reuses it
/// (C-phase cost paid once), leaving exactly one entry for the
/// signature.
#[test]
fn single_flight_coalesces_duplicate_scans() {
    let sessions = sessions_knob();
    let q = "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 10";
    let mut coalesced_seen = false;
    // The overlap window is the leader's whole raw scan (milliseconds);
    // a barrier start makes a miss-while-in-flight all but certain. A few
    // retries absorb scheduler flukes without making the test flaky.
    for _attempt in 0..20 {
        let (session, _) = tpch_session(0.0008, 11);
        let session = &session;
        let expected = {
            let (baseline, _) = tpch_session(0.0008, 11);
            baseline
                .execute(&QueryRequest::sql(q))
                .unwrap()
                .rows
                .clone()
        };
        let barrier = Barrier::new(sessions);
        let barrier = &barrier;
        std::thread::scope(|scope| {
            for _ in 0..sessions {
                scope.spawn(|| {
                    barrier.wait();
                    let result = session.execute(&QueryRequest::sql(q)).unwrap();
                    assert_eq!(result.rows, expected);
                });
            }
        });
        let counters = session.cache().counters();
        let entries = session
            .cache()
            .snapshot()
            .into_iter()
            .filter(|e| e.source == "lineitem")
            .count();
        assert_eq!(
            entries, 1,
            "duplicate admissions must collapse to one entry"
        );
        assert_eq!(counters.admissions, 1, "the C-phase cost is paid once");
        if counters.coalesced >= 1 {
            coalesced_seen = true;
            break;
        }
    }
    assert!(
        coalesced_seen,
        "no run coalesced an admission: followers never overlapped a leader"
    );
}

/// Mixed-format replay: the same SPA workload shape runs over the CSV
/// `lineitem` and over a flat-JSON copy of the same rows, interleaved
/// across concurrent sessions — so the sharded registry and the
/// single-flight table are exercised by both raw formats at once (flat
/// JSON misses now take the batched tokenizer path, CSV misses the
/// batched CSV path). Per-query results must match a serial replay, the
/// CSV and JSON twins must answer identically, and both sources must
/// end up resident in the shared registry.
#[test]
fn mixed_csv_json_replay_matches_serial() {
    let sessions = sessions_knob();
    let threads = threads_knob();
    let seed = 13;
    let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0004, seed);
    let li_schema = tpch::lineitem_schema();
    let li_records: Vec<Value> = lineitems.iter().map(|r| Value::Struct(r.clone())).collect();
    let domains = Domains::compute(&li_schema, li_records.iter());
    let csv_bytes = data_csv::write_csv(&li_schema, &lineitems);
    let json_bytes = data_json::write_json(&li_schema, &li_records);
    let build = || {
        let mut session = ReCache::builder().build();
        session.register_csv_bytes("lineitem", csv_bytes.clone(), li_schema.clone());
        session.register_json_bytes("lineitem_json", json_bytes.clone(), li_schema.clone());
        session
    };
    // Same seed over the same domains: the JSON stream asks the exact
    // queries the CSV stream does, just against the other format.
    let spa = |source: &'static str| {
        spa_workload(
            source,
            &domains,
            &[(PoolPhase::AllAttrs, 16)],
            &SpaConfig::default(),
            seed,
        )
    };
    let specs: Vec<recache::sql::QuerySpec> = spa("lineitem")
        .into_iter()
        .zip(spa("lineitem_json"))
        .flat_map(|(a, b)| [a, b])
        .collect();

    let serial_session = build();
    let serial: Vec<Vec<Value>> = specs
        .iter()
        .map(|s| {
            serial_session
                .execute(&QueryRequest::spec(s.clone()))
                .unwrap()
                .rows
                .clone()
        })
        .collect();
    // The two formats are copies of one table: twin queries must agree.
    for (i, pair) in serial.chunks(2).enumerate() {
        assert_eq!(
            pair[0], pair[1],
            "query {i}: CSV and JSON copies answered differently"
        );
    }

    let shared = build();
    let streams = split_round_robin(&specs, sessions);
    let scheduler = Scheduler::new(threads);
    let results = scheduler.run_streams(&shared, &streams).unwrap();
    for (i, expected) in serial.iter().enumerate() {
        let got = &results[i % sessions][i / sessions];
        assert_eq!(
            &got.rows, expected,
            "query {i} differs between mixed-format concurrent ({sessions} sessions, \
             {threads} threads) and serial execution"
        );
    }
    assert_eq!(shared.queries_run() as usize, specs.len());
    let snapshot = shared.cache().snapshot();
    assert!(
        snapshot.iter().any(|e| e.source == "lineitem"),
        "CSV source must be resident"
    );
    assert!(
        snapshot.iter().any(|e| e.source == "lineitem_json"),
        "JSON source must be resident"
    );

    // Single-flight across the JSON format: duplicate in-flight scans of
    // the same JSON query collapse to one admission (the CSV variant is
    // covered by `single_flight_coalesces_duplicate_scans`).
    let q = "SELECT count(*), sum(l_extendedprice) FROM lineitem_json WHERE l_quantity >= 10";
    let fresh = build();
    let expected = {
        let baseline = build();
        baseline
            .execute(&QueryRequest::sql(q))
            .unwrap()
            .rows
            .clone()
    };
    let barrier = Barrier::new(sessions);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for _ in 0..sessions {
            scope.spawn(|| {
                barrier.wait();
                assert_eq!(fresh.execute(&QueryRequest::sql(q)).unwrap().rows, expected);
            });
        }
    });
    let entries = fresh
        .cache()
        .snapshot()
        .into_iter()
        .filter(|e| e.source == "lineitem_json")
        .count();
    assert_eq!(
        entries, 1,
        "duplicate JSON admissions must collapse to one entry"
    );
    assert_eq!(fresh.cache().counters().admissions, 1);
}

/// Seeded-interleaving determinism: the same seed produces the same
/// admitted-entry set, run over run and across thread budgets.
#[test]
fn seeded_interleaving_same_seed_same_admitted_set() {
    let sessions = sessions_knob();
    let sf = 0.0004;
    let admitted = |seed: u64, threads: usize| -> BTreeSet<(String, String)> {
        let (session, domains) = tpch_session(sf, 5);
        let specs = mixed_spa_spj(&domains, 24, 5);
        let streams = split_round_robin(&specs, sessions);
        let lens: Vec<usize> = streams.iter().map(Vec::len).collect();
        let turns = seeded_turns(&lens, seed);
        let scheduler = Scheduler::new(threads);
        scheduler
            .run_streams_interleaved(&session, &streams, &turns)
            .unwrap();
        session
            .cache()
            .snapshot()
            .into_iter()
            .map(|e| (e.source, e.signature))
            .collect()
    };
    let threads = threads_knob();
    let first = admitted(42, threads);
    assert!(!first.is_empty());
    assert_eq!(
        first,
        admitted(42, threads),
        "same seed must admit the same entry set"
    );
    // The admitted set is a function of the replay order, not of the
    // per-session thread budget.
    assert_eq!(first, admitted(42, 1));
}

/// The full overlap matrix: subsumed, partially-overlapping, and
/// disjoint predicate groups over one source, replayed across concurrent
/// sessions — per-query results must match a serial replay and the
/// registry counters must reconcile at quiescence whatever mix of
/// single-flight and solo scans the timing produced.
#[test]
fn overlap_matrix_replay_matches_serial_and_reconciles_counters() {
    let sessions = sessions_knob();
    let queries = [
        // Subsumed group.
        "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 5",
        "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 25",
        "SELECT count(*), sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 45",
        // Partially overlapping group.
        "SELECT count(*), min(l_shipdate) FROM lineitem \
         WHERE l_quantity >= 10 AND l_quantity <= 30",
        "SELECT count(*), min(l_shipdate) FROM lineitem \
         WHERE l_quantity >= 20 AND l_quantity <= 40",
        // Disjoint group.
        "SELECT count(*), sum(l_tax) FROM lineitem WHERE l_quantity >= 1 AND l_quantity <= 10",
        "SELECT count(*), sum(l_tax) FROM lineitem WHERE l_quantity >= 21 AND l_quantity <= 30",
        "SELECT count(*), sum(l_tax) FROM lineitem WHERE l_quantity >= 41 AND l_quantity <= 50",
    ];
    let expected: Vec<Vec<Value>> = {
        let (baseline, _) = tpch_session(0.0008, 17);
        queries
            .iter()
            .map(|q| {
                baseline
                    .execute(&QueryRequest::sql(*q))
                    .unwrap()
                    .rows
                    .clone()
            })
            .collect()
    };
    let (session, _) = tpch_session(0.0008, 17);
    let session = &session;
    let expected = &expected;
    let barrier = Barrier::new(sessions);
    let barrier = &barrier;
    std::thread::scope(|scope| {
        for s in 0..sessions {
            scope.spawn(move || {
                barrier.wait();
                // Round-robin split, in stream order — as run_streams does.
                for i in (s..queries.len()).step_by(sessions) {
                    let result = session.execute(&QueryRequest::sql(queries[i])).unwrap();
                    assert_eq!(
                        result.rows, expected[i],
                        "query {i} differs between concurrent matrix and serial execution"
                    );
                }
            });
        }
    });
    assert_eq!(session.queries_run() as usize, queries.len());
    let counters = session.cache().counters();
    let snapshot = session.cache().snapshot();
    assert_eq!(
        counters.admissions,
        snapshot.len() as u64 + counters.evictions + counters.removals,
        "admissions must reconcile with residents + evictions + removals at quiescence"
    );
}

/// Registry race invariants: concurrent admit/evict/lookup/remove loops
/// never exceed the byte budget at quiescence, never double-evict, and
/// the counters reconcile with the final entry set.
#[test]
fn registry_races_keep_budget_and_counters_consistent() {
    let capacity = 6_000usize;
    let registry = Arc::new(CacheRegistry::new(Box::new(Lru), Some(capacity)));
    let data = |bytes: usize| {
        let ids = (0..(bytes.saturating_sub(8) / 4) as u32).collect();
        CacheData::Offsets(Arc::new(OffsetStore::build(ids, 10)))
    };
    let removed = Arc::new(AtomicUsize::new(0));
    let workers = sessions_knob().max(4);
    std::thread::scope(|scope| {
        for t in 0..workers as u64 {
            let registry = Arc::clone(&registry);
            let removed = Arc::clone(&removed);
            scope.spawn(move || {
                for i in 0..80u64 {
                    registry.tick();
                    let leaf = (t * 1000 + i) as usize;
                    let ranges = vec![LeafRange {
                        leaf,
                        lo: 0.0,
                        hi: 1.0,
                    }];
                    let signature = range_signature(&ranges);
                    let id = registry.admit(
                        "t",
                        FileFormat::Csv,
                        signature.clone(),
                        ranges.clone(),
                        true,
                        data(400 + (i as usize % 5) * 64),
                        1_000,
                        100,
                        1,
                    );
                    let (m, lookup_ns) = registry.lookup("t", &signature, &ranges);
                    if let Some(hit) = m.entry() {
                        registry.record_reuse(hit, 10, lookup_ns);
                    }
                    // Occasionally remove our own entry; `remove` reports
                    // whether this call won (evictions race with it).
                    if i % 7 == 3 && registry.remove(id) {
                        removed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });
    let counters = registry.counters();
    let snapshot = registry.snapshot();
    assert!(
        registry.total_bytes() <= capacity,
        "byte budget exceeded at quiescence: {} > {capacity}",
        registry.total_bytes()
    );
    assert_eq!(
        registry.total_bytes(),
        snapshot.iter().map(|e| e.stats.bytes).sum::<usize>(),
        "atomic byte total must equal the sum over resident entries"
    );
    // Every admitted entry is accounted for exactly once: still resident,
    // evicted by capacity enforcement, or explicitly removed. A double
    // eviction (or an eviction/remove double count) breaks this balance.
    assert_eq!(
        counters.admissions,
        snapshot.len() as u64 + counters.evictions + removed.load(Ordering::Relaxed) as u64,
        "admissions must reconcile with residents + evictions + removals"
    );
    // No resident entry id appears twice.
    let ids: BTreeSet<u64> = snapshot.iter().map(|e| e.id).collect();
    assert_eq!(ids.len(), snapshot.len());
}

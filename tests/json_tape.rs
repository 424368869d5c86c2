//! Reading nested JSON through the positional map is invisible in the
//! answers: after a first scan of the TPC-H `orderLineitems` JSON, every
//! record read back through the map (`read_records`, the full-record
//! read beside the tape shredding that materialization and lazy
//! upgrades use) equals a fresh parse of its line — and a first
//! scan that fails on an injected fault installs no map at all, so the
//! retry's map reads the same records.
//!
//! The CI `chaos` job runs this suite under `RECACHE_FAULT_SEED`.

use recache::data::gen::tpch;
use recache::data::{json, FaultPlan, FileFormat, RawFile, RetryPolicy};
use recache::types::{Schema, Value};

/// Fault seed: CI sweeps it via `RECACHE_FAULT_SEED`; any value must
/// pass.
fn fault_seed() -> u64 {
    std::env::var("RECACHE_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn order_lineitems() -> (Schema, Vec<u8>) {
    let schema = tpch::order_lineitems_schema();
    let bytes = json::write_json(&schema, &tpch::gen_order_lineitems(0.001, 7));
    (schema, bytes)
}

/// A fresh parse of every line, with no positional map involved.
fn fresh_parses(schema: &Schema, bytes: &[u8]) -> Vec<Value> {
    bytes
        .split(|&b| b == b'\n')
        .filter(|line| !line.is_empty())
        .map(|line| json::parse_record(line, schema, None).expect("generated JSON parses"))
        .collect()
}

fn read_all(file: &RawFile, n: usize) -> Vec<Value> {
    let ids: Vec<u32> = (0..n as u32).collect();
    file.read_records(&ids).expect("read through the map")
}

#[test]
fn read_records_through_the_map_equals_fresh_parses() {
    let (schema, bytes) = order_lineitems();
    let expected = fresh_parses(&schema, &bytes);
    assert!(expected.len() > 1000, "{} orders", expected.len());
    let n_leaves = schema.leaves().len();
    let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
    // The map's content must not depend on the first scan's projection.
    let masks = [
        vec![false; n_leaves],
        (0..n_leaves).map(|i| i == 0).collect(),
        (0..n_leaves).map(|i| i == n_leaves - 1).collect(),
        vec![true; n_leaves],
    ];
    for accessed in &masks {
        file.reset_scan_state();
        file.scan_projected(accessed, &mut |_, _| {})
            .expect("first scan");
        assert_eq!(file.record_count(), Some(expected.len()));
        assert_eq!(read_all(&file, expected.len()), expected);
        // A subset, out of order and with a repeat.
        let ids = [5u32, 0, 5, expected.len() as u32 - 1];
        let got = file.read_records(&ids).expect("read a subset");
        let want: Vec<Value> = ids.iter().map(|&i| expected[i as usize].clone()).collect();
        assert_eq!(got, want);
    }
}

#[test]
fn a_faulted_first_scan_installs_no_map_and_the_retry_reads_exactly() {
    let (schema, bytes) = order_lineitems();
    let expected = fresh_parses(&schema, &bytes);
    let n_leaves = schema.leaves().len();
    let file = RawFile::from_bytes(bytes, FileFormat::Json, schema);
    let accessed: Vec<bool> = (0..n_leaves).map(|i| i % 3 == 0).collect();

    // A persistent fault fails every first scan before it emits a row.
    file.set_fault_plan(Some(FaultPlan::new(fault_seed()).persistent(1.0)));
    let mut emitted = 0usize;
    let err = file
        .scan_projected(&accessed, &mut |_, _| emitted += 1)
        .expect_err("every row scan faults");
    assert!(err.to_string().contains("injected"), "{err}");
    assert_eq!(emitted, 0);
    assert!(
        file.posmap().is_none(),
        "a failed first scan installs no map"
    );
    assert!(file.read_records(&[0]).is_err(), "no map, no record reads");

    // Seeded transient faults with no retries: each failed attempt
    // leaves the file unmapped, the first clean one maps it.
    file.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    });
    file.set_fault_plan(Some(FaultPlan::new(fault_seed()).transient(0.5)));
    let mut mapped = false;
    for _ in 0..64 {
        emitted = 0;
        match file.scan_projected(&accessed, &mut |_, _| emitted += 1) {
            Ok(_) => {
                mapped = true;
                break;
            }
            Err(err) => {
                assert!(err.is_transient(), "{err}");
                assert_eq!(emitted, 0);
                assert!(
                    file.posmap().is_none(),
                    "a failed first scan installs no map"
                );
            }
        }
    }
    if !mapped {
        file.set_fault_plan(None);
        emitted = 0;
        file.scan_projected(&accessed, &mut |_, _| emitted += 1)
            .expect("fault-free retry");
    }
    assert!(emitted >= expected.len());
    let map = file.posmap().expect("the successful scan installs the map");
    assert_eq!(map.record_count(), expected.len());

    // Reads under the same faults either fail typed or read exactly.
    let ids: Vec<u32> = (0..expected.len() as u32).collect();
    for _ in 0..8 {
        match file.read_records(&ids) {
            Ok(records) => assert_eq!(records, expected),
            Err(err) => assert!(err.is_transient(), "{err}"),
        }
    }
    file.set_fault_plan(None);
    assert_eq!(read_all(&file, expected.len()), expected);
}

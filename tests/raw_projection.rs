//! Selective parsing is invisible in the answers: a raw scan of the
//! nested TPC-H `orderLineitems` JSON, projected to any pair of leaves,
//! yields exactly the rows that a full parse of every record flattened
//! over the same pair yields — on the first scan (which builds the
//! positional map), on mapped re-scans, and on offset re-reads.

use recache::data::gen::tpch;
use recache::data::{json, FileFormat, RawFile};
use recache::types::{flatten_record_projected, Value};

#[test]
fn leaf_pair_projections_match_full_parse_then_flatten() {
    let schema = tpch::order_lineitems_schema();
    let bytes = json::write_json(&schema, &tpch::gen_order_lineitems(0.0001, 3));
    let mut full = Vec::new();
    json::scan_build_map(&bytes, &schema, None, |_, record| {
        full.push(record);
        Ok(())
    })
    .expect("generated JSON parses");
    let n = schema.leaves().len();
    let file = RawFile::from_bytes(bytes, FileFormat::Json, schema.clone());
    let all_ids: Vec<u32> = (0..full.len() as u32).collect();
    let mut pairs = 0;
    for i in 0..n {
        for j in i + 1..n {
            let mut accessed = vec![false; n];
            accessed[i] = true;
            accessed[j] = true;
            let expected: Vec<(usize, Vec<Value>)> = full
                .iter()
                .enumerate()
                .flat_map(|(id, record)| {
                    flatten_record_projected(&schema, record, &accessed)
                        .into_iter()
                        .map(move |row| (id, row))
                })
                .collect();
            file.reset_scan_state();
            for pass in ["first scan", "mapped scan"] {
                let mut got = Vec::new();
                file.scan_projected(&accessed, &mut |id, row| got.push((id, row)))
                    .expect("scan");
                assert_eq!(got, expected, "{pass} of leaves ({i}, {j})");
            }
            let mut reread = Vec::new();
            file.scan_records_projected(&all_ids, &accessed, &mut |id, row| reread.push((id, row)))
                .expect("offset re-read");
            assert_eq!(reread, expected, "offset re-read of leaves ({i}, {j})");
            pairs += 1;
        }
    }
    assert_eq!(pairs, n * (n - 1) / 2);
    assert!(pairs > 200, "the nested schema has {n} leaves");
}

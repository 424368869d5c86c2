//! Seeded inputs: the data, "the mix", drill-downs, and the hashes that
//! pin them. The seed reaches only these generators; the engine sees the
//! generated bytes and queries.

use crate::rng::{mix, SplitMix64};
use recache_core::{ReCache, ReCacheBuilder};
use recache_data::gen::tpch;
use recache_data::{csv, json};
use recache_engine::plan::AggFunc;
use recache_engine::sql::{PredClause, QuerySpec};
use recache_server::dataset::{CSV_TABLE, JSON_TABLE};
use recache_types::{Schema, Value};
use recache_workload::{spam_mixed_workload, Domains, SpamMixConfig};

/// TPC-H scale factor of the generated pair. ISSUE.md names 0.01; the
/// driver's time cap (92 runs, each with three set-ups, in 57 minutes)
/// forces 0.001 — the issue's own rule is to scale `sf`, not the mix. See
/// README "Scale".
pub const SF: f64 = 0.001;

/// The generated data: `lineitem` as CSV and nested `orderLineitems` as
/// JSON, the `recache_server::dataset` pair.
pub struct Dataset {
    pub seed: u64,
    pub csv_bytes: Vec<u8>,
    pub json_bytes: Vec<u8>,
    pub csv_schema: Schema,
    pub json_schema: Schema,
    /// The records behind the bytes, for the layout probes.
    pub csv_records: Vec<Value>,
    pub json_records: Vec<Value>,
    csv_domains: Domains,
    json_domains: Domains,
}

impl Dataset {
    pub fn generate(seed: u64) -> Dataset {
        let (_, lineitems) = tpch::gen_orders_and_lineitems(SF, seed);
        let csv_schema = tpch::lineitem_schema();
        let csv_bytes = csv::write_csv(&csv_schema, &lineitems);
        let csv_records: Vec<Value> = lineitems.into_iter().map(Value::Struct).collect();
        let json_records = tpch::gen_order_lineitems(SF, seed);
        let json_schema = tpch::order_lineitems_schema();
        let json_bytes = json::write_json(&json_schema, &json_records);
        let csv_domains = Domains::compute(&csv_schema, csv_records.iter());
        let json_domains = Domains::compute(&json_schema, json_records.iter());
        Dataset {
            seed,
            csv_bytes,
            json_bytes,
            csv_schema,
            json_schema,
            csv_records,
            json_records,
            csv_domains,
            json_domains,
        }
    }

    pub fn raw_bytes(&self) -> usize {
        self.csv_bytes.len() + self.json_bytes.len()
    }

    /// A session over fresh copies of the bytes: every session starts
    /// with never-scanned files (no positional map).
    pub fn session(&self, builder: ReCacheBuilder) -> ReCache {
        let mut session = builder.build();
        session.register_csv_bytes(CSV_TABLE, self.csv_bytes.clone(), self.csv_schema.clone());
        session.register_json_bytes(
            JSON_TABLE,
            self.json_bytes.clone(),
            self.json_schema.clone(),
        );
        session
    }

    /// `groups × 4` queries of the mix (`spam_mixed_workload`,
    /// `json_fraction 0.5, nested_fraction 0.5, join_fraction 0`), drawn
    /// with sub-seed `stream`.
    ///
    /// The generator's output is thinned, not altered, to keep runs on
    /// different seeds comparable: eight times the queries needed are
    /// generated; within each class (CSV, flat JSON, nested JSON) every
    /// eighth is kept, counted along the class sorted by how much of the
    /// data its ranges select; the kept ones are dealt in generation order
    /// in the fixed pattern CSV, nested JSON, CSV, flat JSON. The class
    /// shares are the generator's in expectation and exact in every window
    /// of four, and every list spans the selectivities the generator
    /// draws, so a list's cost does not swing with how many expensive
    /// queries a seed happens to draw.
    pub fn mix(&self, groups: usize, stream: u64) -> Vec<QuerySpec> {
        let config = SpamMixConfig {
            json_fraction: 0.5,
            nested_fraction: 0.5,
            // The two tables share no join key.
            join_fraction: 0.0,
            ..SpamMixConfig::default()
        };
        let mut draw = groups * 4 * 8;
        loop {
            let pool = spam_mixed_workload(
                JSON_TABLE,
                &self.json_domains,
                CSV_TABLE,
                &self.csv_domains,
                draw,
                &config,
                mix(self.seed, stream),
            );
            let mut classes: [Vec<usize>; 3] = Default::default();
            for (i, spec) in pool.iter().enumerate() {
                classes[self.class_of(spec) as usize].push(i);
            }
            let shares: Vec<f64> = pool.iter().map(|spec| self.selected_share(spec)).collect();
            let pick = |class: QueryClass, need: usize| -> Option<Vec<usize>> {
                let mut ranked = classes[class as usize].clone();
                if ranked.len() < need {
                    return None;
                }
                ranked.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]).then(a.cmp(&b)));
                // Systematic sample: the middle of each of `need` equal
                // stretches of the ranking.
                let mut kept: Vec<usize> = (0..need)
                    .map(|j| ranked[(2 * j + 1) * ranked.len() / (2 * need)])
                    .collect();
                kept.sort_unstable();
                Some(kept)
            };
            if let (Some(csv), Some(nested), Some(flat)) = (
                pick(QueryClass::Csv, 2 * groups),
                pick(QueryClass::JsonNested, groups),
                pick(QueryClass::JsonFlat, groups),
            ) {
                let mut out = Vec::with_capacity(groups * 4);
                for g in 0..groups {
                    for i in [csv[2 * g], nested[g], csv[2 * g + 1], flat[g]] {
                        out.push(pool[i].clone());
                    }
                }
                return out;
            }
            // A class came up short (a one-in-millions draw): draw more.
            draw *= 2;
        }
    }

    /// Product over a query's ranges of the share of the leaf's domain
    /// each covers: how much of the data the query selects, roughly.
    fn selected_share(&self, spec: &QuerySpec) -> f64 {
        let (schema, domains) = if self.class_of(spec) == QueryClass::Csv {
            (&self.csv_schema, &self.csv_domains)
        } else {
            (&self.json_schema, &self.json_domains)
        };
        spec.predicates
            .iter()
            .map(|clause| match clause {
                PredClause::Between { path, lo, hi } => {
                    let domain = schema
                        .leaf_index(path)
                        .and_then(|leaf| domains.range_of(leaf));
                    match (domain, lo.as_f64(), hi.as_f64()) {
                        (Some((min, max)), Some(lo), Some(hi)) if max > min => {
                            ((hi - lo) / (max - min)).clamp(0.0, 1.0)
                        }
                        _ => 1.0,
                    }
                }
                PredClause::Cmp { .. } => 1.0,
            })
            .product()
    }

    pub fn class_of(&self, spec: &QuerySpec) -> QueryClass {
        if spec.tables.first().map(String::as_str) == Some(CSV_TABLE) {
            return QueryClass::Csv;
        }
        let leaves = self.json_schema.leaves();
        let nested = spec
            .aggregates
            .iter()
            .filter_map(|(_, path)| path.as_ref())
            .chain(spec.predicates.iter().map(|clause| match clause {
                PredClause::Between { path, .. } | PredClause::Cmp { path, .. } => path,
            }))
            .any(|path| {
                leaves
                    .iter()
                    .any(|leaf| &leaf.path == path && leaf.is_nested())
            });
        if nested {
            QueryClass::JsonNested
        } else {
            QueryClass::JsonFlat
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    Csv = 0,
    JsonFlat = 1,
    JsonNested = 2,
}

/// `SELECT count(*) FROM table`: a miss on it admits the whole source, an
/// entry that subsumes every later query on that source.
pub fn full_table_query(table: &str) -> QuerySpec {
    QuerySpec {
        aggregates: vec![(AggFunc::Count, None)],
        tables: vec![table.to_owned()],
        predicates: vec![],
        joins: vec![],
    }
}

/// A drill-down of `base`: the same query with every `BETWEEN` range
/// shrunk to a random sub-interval, between a quarter and three quarters
/// as wide, always inside the base range — so whatever cached the base
/// query subsumes it.
pub fn drill_down(base: &QuerySpec, rng: &mut SplitMix64) -> QuerySpec {
    let mut spec = base.clone();
    for clause in &mut spec.predicates {
        if let PredClause::Between { lo, hi, .. } = clause {
            let (Some(a), Some(b)) = (lo.as_f64(), hi.as_f64()) else {
                continue;
            };
            let width = b - a;
            let span = width * (0.25 + 0.5 * rng.next_f64());
            let start = a + (width - span) * rng.next_f64();
            // Three decimals, like the generator's own ranges; rounding
            // may not carry a bound outside the base range.
            let new_lo = round3(start).clamp(a, b);
            let new_hi = round3(start + span).clamp(new_lo, b);
            *lo = Value::Float(new_lo);
            *hi = Value::Float(new_hi);
        }
    }
    spec
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// FNV-1a, 64 bit: the digests and fingerprints pinned in `pins.json`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Hashes a value by type tag and exact bits: `1` and `1.0` differ,
    /// as do `0.0` and `-0.0` — the contract is bit-identical answers.
    pub fn value(&mut self, value: &Value) -> &mut Self {
        match value {
            Value::Null => self.bytes(&[0]),
            Value::Bool(b) => self.bytes(&[1, u8::from(*b)]),
            Value::Int(v) => self.bytes(&[2]).u64(*v as u64),
            Value::Float(v) => self.bytes(&[3]).u64(v.to_bits()),
            Value::Str(s) => self.bytes(&[4]).u64(s.len() as u64).bytes(s.as_bytes()),
            Value::List(items) | Value::Struct(items) => {
                self.bytes(&[if matches!(value, Value::List(_)) {
                    5
                } else {
                    6
                }])
                .u64(items.len() as u64);
                for item in items {
                    self.value(item);
                }
                self
            }
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hash of one result: its rows and the number of rows aggregated.
pub fn hash_rows(rows: &[Value], rows_aggregated: u64) -> u64 {
    let mut fnv = Fnv::default();
    fnv.u64(rows_aggregated).u64(rows.len() as u64);
    for row in rows {
        fnv.value(row);
    }
    fnv.finish()
}

/// One request's contribution to a workload's `result_digest`. Summed
/// with wrapping addition, so the digest does not depend on which client
/// ran which request or in what order.
pub fn digest_term(request: u64, rows_hash: u64) -> u64 {
    mix(request, rows_hash)
}

/// Hash of a query's text form, for the workload fingerprint.
pub fn hash_spec(fnv: &mut Fnv, spec: &QuerySpec) {
    let sql = recache_workload::spec_to_sql(spec);
    fnv.u64(sql.len() as u64).bytes(sql.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> QuerySpec {
        QuerySpec {
            aggregates: vec![(AggFunc::Count, None)],
            tables: vec![CSV_TABLE.to_owned()],
            predicates: vec![
                PredClause::Between {
                    path: recache_types::FieldPath::parse("l_quantity"),
                    lo: Value::Float(3.0),
                    hi: Value::Float(41.5),
                },
                PredClause::Between {
                    path: recache_types::FieldPath::parse("l_discount"),
                    lo: Value::Float(0.011),
                    hi: Value::Float(0.012),
                },
            ],
            joins: vec![],
        }
    }

    fn ranges(spec: &QuerySpec) -> Vec<(f64, f64)> {
        spec.predicates
            .iter()
            .map(|clause| match clause {
                PredClause::Between { lo, hi, .. } => (lo.as_f64().unwrap(), hi.as_f64().unwrap()),
                PredClause::Cmp { .. } => panic!("the mix has only ranges"),
            })
            .collect()
    }

    #[test]
    fn drill_downs_stay_inside_their_base_and_repeat_per_seed() {
        let base = base();
        let outer = ranges(&base);
        for index in 0..2000 {
            let spec = drill_down(&base, &mut SplitMix64::at(42, 1, index));
            for ((lo, hi), (a, b)) in ranges(&spec).into_iter().zip(&outer) {
                assert!(
                    *a <= lo && lo <= hi && hi <= *b,
                    "{lo}..{hi} outside {a}..{b}"
                );
            }
            assert_eq!(spec, drill_down(&base, &mut SplitMix64::at(42, 1, index)));
            assert_eq!(spec.aggregates, base.aggregates);
        }
        let a = drill_down(&base, &mut SplitMix64::at(42, 1, 0));
        let b = drill_down(&base, &mut SplitMix64::at(43, 1, 0));
        assert_ne!(a, b, "another seed draws other ranges");
    }

    #[test]
    fn digests_are_stable_and_order_independent() {
        // Pinned: a change here silently re-bases every digest in pins.json.
        assert_eq!(
            Fnv::default().bytes(b"ledger").finish(),
            0x4a0d_3b92_8a98_bd6c
        );
        let rows = vec![Value::Float(1.5), Value::Int(3), Value::Null];
        let h = hash_rows(&rows, 10);
        assert_eq!(h, hash_rows(&rows.clone(), 10));
        assert_ne!(h, hash_rows(&rows, 11));
        assert_ne!(
            hash_rows(&[Value::Int(1)], 1),
            hash_rows(&[Value::Float(1.0)], 1),
            "type is part of the answer"
        );
        assert_ne!(
            hash_rows(&[Value::Float(0.0)], 1),
            hash_rows(&[Value::Float(-0.0)], 1),
            "bits are part of the answer"
        );
        let terms = [digest_term(0, 11), digest_term(1, 22), digest_term(2, 33)];
        let forward = terms.iter().fold(0u64, |acc, t| acc.wrapping_add(*t));
        let backward = terms.iter().rev().fold(0u64, |acc, t| acc.wrapping_add(*t));
        assert_eq!(forward, backward);
        assert_ne!(
            digest_term(0, 22),
            digest_term(1, 22),
            "the index is hashed in"
        );
    }

    #[test]
    fn the_mix_is_dealt_in_exact_shares_and_repeats_per_seed() {
        let data = Dataset::generate(7);
        let list = data.mix(5, 3);
        assert_eq!(list.len(), 20);
        for group in list.chunks(4) {
            let classes: Vec<QueryClass> = group.iter().map(|q| data.class_of(q)).collect();
            assert_eq!(
                classes,
                [
                    QueryClass::Csv,
                    QueryClass::JsonNested,
                    QueryClass::Csv,
                    QueryClass::JsonFlat
                ]
            );
        }
        assert_eq!(list, data.mix(5, 3));
        assert_ne!(list, data.mix(5, 4));
        assert_ne!(list, Dataset::generate(8).mix(5, 3));
    }
}

//! Cross-configuration equivalence: whatever the cache does — layouts,
//! admission modes, eviction pressure, subsumption rewrites — query
//! results must be identical to a cache-free session.

use recache::data::gen::{spam, tpch, yelp};
use recache::data::{csv, json};
use recache::types::Value;
use recache::workload::{
    mixed_spa_workload, spa_workload, spam_mixed_workload, tpch_spj_workload, Domains, PoolPhase,
    SpaConfig, SpamMixConfig, SpjConfig,
};
use recache::{Admission, Eviction, LayoutPolicy, QueryRequest, ReCache, ReCacheBuilder};
use std::collections::HashMap;

fn register_nested(session: &mut ReCache, sf: f64, seed: u64) -> Domains {
    let records = tpch::gen_order_lineitems(sf, seed);
    let schema = tpch::order_lineitems_schema();
    let domains = Domains::compute(&schema, records.iter());
    session.register_json_bytes(
        "orderLineitems",
        json::write_json(&schema, &records),
        schema,
    );
    domains
}

fn register_tpch(session: &mut ReCache, sf: f64, seed: u64) -> HashMap<String, Domains> {
    let mut domains = HashMap::new();
    let to_records = |rows: &[Vec<Value>]| -> Vec<Value> {
        rows.iter().map(|r| Value::Struct(r.clone())).collect()
    };
    let (orders, lineitems) = tpch::gen_orders_and_lineitems(sf, seed);
    for (name, schema, rows) in [
        ("orders", tpch::orders_schema(), orders),
        ("lineitem", tpch::lineitem_schema(), lineitems),
        (
            "customer",
            tpch::customer_schema(),
            tpch::gen_customer(sf, seed),
        ),
        ("part", tpch::part_schema(), tpch::gen_part(sf, seed)),
        (
            "partsupp",
            tpch::partsupp_schema(),
            tpch::gen_partsupp(sf, seed),
        ),
    ] {
        domains.insert(
            name.to_owned(),
            Domains::compute(&schema, to_records(&rows).iter()),
        );
        session.register_csv_bytes(name, csv::write_csv(&schema, &rows), schema);
    }
    domains
}

/// Runs the workload on every configuration and asserts identical
/// results per query.
fn assert_all_configs_agree(
    configs: Vec<(&str, ReCacheBuilder)>,
    register: &dyn Fn(&mut ReCache),
    specs: &[recache::sql::QuerySpec],
) {
    let mut reference: Option<Vec<Vec<Value>>> = None;
    for (name, builder) in configs {
        let mut session = builder.build();
        register(&mut session);
        let results: Vec<Vec<Value>> = specs
            .iter()
            .map(|spec| {
                session
                    .execute(&QueryRequest::spec(spec.clone()))
                    .expect("query")
                    .rows
                    .clone()
            })
            .collect();
        match &reference {
            None => reference = Some(results),
            Some(expected) => {
                for (i, (got, want)) in results.iter().zip(expected).enumerate() {
                    assert_eq!(
                        got,
                        want,
                        "config '{name}' diverged on query {i}: {}",
                        recache::workload::spec_to_sql(&specs[i])
                    );
                }
            }
        }
    }
}

#[test]
fn nested_spa_results_are_layout_independent() {
    let sf = 0.0004;
    let seed = 17;
    let mut probe = ReCache::builder().build();
    let domains = register_nested(&mut probe, sf, seed);
    let specs = spa_workload(
        "orderLineitems",
        &domains,
        &[
            (PoolPhase::AllAttrs, 20),
            (PoolPhase::NonNestedOnly, 20),
            (PoolPhase::NestedFraction(0.5), 20),
        ],
        &SpaConfig::default(),
        seed,
    );
    assert_all_configs_agree(
        vec![
            ("no-caching", ReCache::builder().no_caching()),
            ("auto", ReCache::builder().layout_policy(LayoutPolicy::Auto)),
            (
                "fixed-columnar",
                ReCache::builder()
                    .layout_policy(LayoutPolicy::FixedColumnar)
                    .admission(Admission::eager_only()),
            ),
            (
                "fixed-dremel",
                ReCache::builder()
                    .layout_policy(LayoutPolicy::FixedDremel)
                    .admission(Admission::eager_only()),
            ),
            ("lazy", ReCache::builder().admission(Admission::lazy_only())),
        ],
        &|s| {
            register_nested(s, sf, seed);
        },
        &specs,
    );
}

#[test]
fn spj_results_survive_eviction_pressure() {
    let sf = 0.0004;
    let seed = 23;
    let mut probe = ReCache::builder().build();
    let domains = register_tpch(&mut probe, sf, seed);
    let specs = tpch_spj_workload(&domains, 25, &SpjConfig::default(), seed);
    assert_all_configs_agree(
        vec![
            ("no-caching", ReCache::builder().no_caching()),
            ("unlimited", ReCache::builder()),
            (
                "tiny-cache-greedy",
                ReCache::builder()
                    .cache_capacity_bytes(20_000)
                    .eviction(Eviction::GreedyDual),
            ),
            (
                "tiny-cache-lru",
                ReCache::builder()
                    .cache_capacity_bytes(20_000)
                    .eviction(Eviction::Lru),
            ),
            (
                "tiny-cache-monetdb",
                ReCache::builder()
                    .cache_capacity_bytes(20_000)
                    .eviction(Eviction::MonetDb),
            ),
        ],
        &|s| {
            register_tpch(s, sf, seed);
        },
        &specs,
    );
}

#[test]
fn spam_mix_results_are_config_independent() {
    let seed = 31;
    let n = 400;
    let register = |session: &mut ReCache| {
        let records = spam::gen_spam_json(n, seed);
        let schema = spam::spam_json_schema();
        session.register_json_bytes("spam_json", json::write_json(&schema, &records), schema);
        let rows = spam::gen_spam_csv(n, seed);
        let schema = spam::spam_csv_schema();
        session.register_csv_bytes("spam_csv", csv::write_csv(&schema, &rows), schema);
    };
    let mut probe = ReCache::builder().build();
    register(&mut probe);
    let records = spam::gen_spam_json(n, seed);
    let jd = Domains::compute(&spam::spam_json_schema(), records.iter());
    let rows: Vec<Value> = spam::gen_spam_csv(n, seed)
        .into_iter()
        .map(Value::Struct)
        .collect();
    let cd = Domains::compute(&spam::spam_csv_schema(), rows.iter());
    let specs = spam_mixed_workload(
        "spam_json",
        &jd,
        "spam_csv",
        &cd,
        40,
        &SpamMixConfig::default(),
        seed,
    );
    assert_all_configs_agree(
        vec![
            ("no-caching", ReCache::builder().no_caching()),
            ("auto", ReCache::builder()),
            (
                "columnar-small-cache",
                ReCache::builder()
                    .layout_policy(LayoutPolicy::FixedColumnar)
                    .cache_capacity_bytes(100_000),
            ),
        ],
        &register,
        &specs,
    );
}

#[test]
fn yelp_large_collections_are_layout_independent() {
    let seed = 5;
    let register = |session: &mut ReCache| {
        let business = yelp::gen_business(120, seed);
        let schema = yelp::business_schema();
        session.register_json_bytes("business", json::write_json(&schema, &business), schema);
        let user = yelp::gen_user(150, seed);
        let schema = yelp::user_schema();
        session.register_json_bytes("user", json::write_json(&schema, &user), schema);
    };
    let business = yelp::gen_business(120, seed);
    let bd = Domains::compute(&yelp::business_schema(), business.iter());
    let user = yelp::gen_user(150, seed);
    let ud = Domains::compute(&yelp::user_schema(), user.iter());
    let specs = mixed_spa_workload(
        &[("business", &bd), ("user", &ud)],
        0.6,
        40,
        &SpaConfig::default(),
        seed,
    );
    assert_all_configs_agree(
        vec![
            ("no-caching", ReCache::builder().no_caching()),
            ("auto", ReCache::builder()),
            (
                "dremel",
                ReCache::builder()
                    .layout_policy(LayoutPolicy::FixedDremel)
                    .admission(Admission::eager_only()),
            ),
            (
                "columnar",
                ReCache::builder()
                    .layout_policy(LayoutPolicy::FixedColumnar)
                    .admission(Admission::eager_only()),
            ),
        ],
        &register,
        &specs,
    );
}

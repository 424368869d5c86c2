//! One run of one workload: set-up, the timed phase, the correctness
//! checks, the guards, and the metrics.

use crate::client::{LayerSums, Observed};
use crate::json::{self, Json};
use crate::probes;
use crate::rng::SplitMix64;
use crate::setup::{digest_term, hash_rows, hash_spec, Fnv, SF};
use crate::stats;
use crate::trace::{self, Name};
use crate::workloads::{self, merge_clients, Limit, Measured, Workload};
use recache_core::{QueryRequest, ReCache};
use recache_engine::sql::QuerySpec;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A metric's place in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// What a user of the system sees. Reported by untraced runs only.
pub const END_TO_END: [MetricDef; 6] = [
    lower("setup_s", "s"),
    higher("queries_per_s", "1/s"),
    lower("lat_p50_us", "us"),
    lower("lat_p95_us", "us"),
    lower("lat_p99_us", "us"),
    lower("rss_peak_mb", "MB"),
];

/// Single layers, `<crate>.<metric>`. Reported by traced runs only. Times
/// are per request of the traced phase (`us/req`), so a run that gets
/// through more requests in its time box does not read as more time
/// spent; counts are totals over the traced phase, to be read against
/// `bench.requests`.
pub const PER_LAYER: [MetricDef; 58] = [
    lower("data.raw_scans", "count"),
    lower("data.raw_scan_us", "us/req"),
    lower("data.raw_scan_share", "ratio"),
    lower("data.raw_bytes_scanned", "bytes"),
    lower("data.lazy_rereads", "count"),
    lower("data.retried_chunks", "count"),
    lower("data.degraded_fallbacks", "count"),
    lower("data.first_scan_ms_csv", "ms"),
    lower("data.first_scan_ms_json", "ms"),
    lower("data.mapped_scan_ms_csv", "ms"),
    lower("data.mapped_scan_ms_json", "ms"),
    lower("layout.build_ms_columnar", "ms"),
    lower("layout.build_ms_dremel", "ms"),
    lower("layout.scan_ms_columnar", "ms"),
    lower("layout.scan_ms_dremel", "ms"),
    lower("engine.exec_us", "us/req"),
    lower("engine.cache_data_us", "us/req"),
    lower("engine.cache_compute_us", "us/req"),
    lower("engine.parse_us", "us"),
    lower("engine.kernel_ms", "ms"),
    lower("cache.lookup_us", "us/req"),
    higher("cache.hit_ratio", "ratio"),
    higher("cache.hits_exact", "count"),
    higher("cache.hits_subsuming", "count"),
    lower("cache.misses", "count"),
    lower("cache.admissions", "count"),
    lower("cache.evictions", "count"),
    lower("cache.bytes_evicted", "bytes"),
    lower("cache.bytes_resident_end", "bytes"),
    lower("cache.entries_end", "count"),
    lower("core.execute_us", "us/req"),
    lower("core.caching_us", "us/req"),
    lower("core.caching_overhead_ratio", "ratio"),
    lower("core.self_us", "us/req"),
    higher("core.result_hit_ratio", "ratio"),
    lower("core.result_invalidations", "count"),
    lower("core.result_evictions", "count"),
    higher("core.coalesced", "count"),
    higher("core.coalesced_subsumed", "count"),
    higher("core.shared_scans", "count"),
    higher("core.threads_granted_mean", "count"),
    lower("core.timeouts", "count"),
    lower("core.failed_scans", "count"),
    lower("server.roundtrip_us", "us/req"),
    lower("server.self_us", "us/req"),
    lower("server.wire_overhead_us", "us"),
    lower("server.hist_p50_us", "us"),
    lower("server.shed", "count"),
    lower("server.conn_deaths", "count"),
    lower("server.client_retries", "count"),
    lower("server.codec_us", "us"),
    lower("bench.self_us", "us/req"),
    lower("bench.trace_overhead_ratio", "ratio"),
    higher("bench.trace_coverage_ratio", "ratio"),
    higher("bench.requests", "count"),
    lower("bench.traced_wall_ms", "ms"),
    higher("bench.traced_queries_per_s", "1/s"),
    lower("bench.spans", "count"),
];

/// Times the whole set-up runs at least; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Times a set-up runs at most while all repeats together take under a
/// second.
const SHORT_SETUP_REPEATS: usize = 15;
/// Requests per workload checked against the reference session.
const REFERENCE_SAMPLE: usize = 64;
/// Requests whose text goes into the workload fingerprint.
const FINGERPRINT_REQUESTS: u64 = 2000;
/// Offset of pool queries in the digest, clear of every request id.
const POOL_DIGEST_BASE: u64 = 1 << 62;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub trace_out: Option<PathBuf>,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
    /// Observations behind the value: requests, probe repeats, set-ups.
    pub samples: u64,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Guard violations, drift, errors: why `correct` is false.
    pub violations: Vec<String>,
    pub result_digest: u64,
    pub fingerprint: u64,
    pub settings: Vec<(&'static str, String)>,
}

impl RunOutput {
    /// The line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.def.name.to_owned(),
                                Json::obj(vec![
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.def.unit)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
        .render()
    }

    /// Everything else `ledger all` wants from a child run.
    pub fn info_line(&self) -> String {
        Json::obj(vec![
            (
                "result_digest",
                Json::str(format!("{:016x}", self.result_digest)),
            ),
            (
                "fingerprint",
                Json::str(format!("{:016x}", self.fingerprint)),
            ),
            (
                "samples",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| (m.def.name.to_owned(), Json::Num(m.samples as f64)))
                        .collect(),
                ),
            ),
            (
                "violations",
                Json::Arr(self.violations.iter().map(Json::str).collect()),
            ),
            (
                "settings",
                Json::Obj(
                    self.settings
                        .iter()
                        .map(|(k, v)| ((*k).to_owned(), Json::str(v.clone())))
                        .collect(),
                ),
            ),
        ])
        .render()
    }
}

/// The digests and fingerprints this commit is expected to produce.
const PINS: &str = include_str!("../pins.json");

/// The pinned `(fingerprint, result_digest)` of a workload and seed.
fn pinned(workload: &str, seed: u64) -> Option<(String, String)> {
    let pins = json::parse(PINS).expect("pins.json parses");
    let entry = pins.get(workload)?.get(&seed.to_string())?;
    Some((
        entry.get("fingerprint")?.as_str()?.to_owned(),
        entry.get("result_digest")?.as_str()?.to_owned(),
    ))
}

/// `VmHWM` of this process in MB.
fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The reference every sampled answer is held against: no caching, no
/// vectorization, one thread — the plainest path through the engine.
fn reference_session(workload: &dyn Workload) -> ReCache {
    workload.data().session(ReCache::builder().no_caching())
}

fn reference_hash(reference: &ReCache, spec: QuerySpec) -> Result<u64, String> {
    reference
        .execute(&QueryRequest::spec(spec).vectorized(false).threads(1))
        .map(|r| hash_rows(&r.rows, r.rows_aggregated as u64))
        .map_err(|e| format!("reference execution failed: {e}"))
}

/// Marks [`REFERENCE_SAMPLE`] distinct ids below `guaranteed`.
fn choose_sample(seed: u64, guaranteed: u64) -> Vec<bool> {
    let mut sample = vec![false; guaranteed as usize];
    let mut rng = SplitMix64::at(seed, 0x5a3b1e, 0);
    let mut left = REFERENCE_SAMPLE.min(sample.len());
    while left > 0 {
        let id = rng.below(guaranteed) as usize;
        if !sample[id] {
            sample[id] = true;
            left -= 1;
        }
    }
    sample
}

fn fingerprint(workload: &mut dyn Workload) -> u64 {
    let mut fnv = Fnv::default();
    fnv.bytes(&workload.data().csv_bytes)
        .bytes(&workload.data().json_bytes);
    for id in 0..workload.guaranteed().min(FINGERPRINT_REQUESTS) {
        hash_spec(&mut fnv, &workload.request(id).0);
    }
    for (_, spec) in workload.pool() {
        hash_spec(&mut fnv, &spec);
    }
    fnv.finish()
}

/// Runs the whole set-up at least [`SETUP_REPEATS`] times — generation,
/// registration, warm-up — and keeps the last state for the timed phase.
fn set_up(config: &RunConfig) -> Result<(Box<dyn Workload>, Vec<f64>), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut workload: Option<Box<dyn Workload>> = None;
    // A set-up of a few dozen ms is repeated more often: the median of
    // three such timings is mostly noise.
    while setup_s.len() < SETUP_REPEATS
        || (setup_s.len() < SHORT_SETUP_REPEATS && setup_s.iter().sum::<f64>() < 1.0)
    {
        // Free the previous state first, as a fresh process would start.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(
            workloads::setup(&config.workload, config.seed)
                .ok_or_else(|| format!("unknown workload '{}'", config.workload))?,
        );
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    Ok((workload.expect("SETUP_REPEATS > 0"), setup_s))
}

/// What the reference check found.
struct Verified {
    result_digest: u64,
    checked: u64,
    mismatches: u64,
}

/// Holds the sampled requests and every pool query against the reference
/// session, and folds the reference's answers into the result digest.
fn verify(
    workload: &mut dyn Workload,
    observed: &Observed,
    sample: &[bool],
    violations: &mut Vec<String>,
) -> Result<Verified, String> {
    let reference = reference_session(workload);
    let mut verified = Verified {
        result_digest: 0,
        checked: 0,
        mismatches: 0,
    };
    let mut check = |digest_id: u64, spec: QuerySpec, seen: Option<u64>| -> Result<(), String> {
        let expected = reference_hash(&reference, spec)?;
        verified.checked += 1;
        if seen.is_some_and(|seen| seen != expected) {
            verified.mismatches += 1;
        }
        verified.result_digest = verified
            .result_digest
            .wrapping_add(digest_term(digest_id, expected));
        Ok(())
    };
    // A traced run executes a sampled id in both phases; the repeat check
    // has already compared the two.
    let mut sampled = observed.sampled.clone();
    sampled.sort_unstable();
    sampled.dedup_by_key(|(id, _)| *id);
    if sampled.len() != sample.iter().filter(|s| **s).count() {
        violations.push(format!(
            "only {} of the sampled requests ran",
            sampled.len()
        ));
    }
    for (id, seen) in sampled {
        check(id, workload.request(id).0, Some(seen))?;
    }
    for (key, spec) in workload.pool() {
        check(
            POOL_DIGEST_BASE + key,
            spec,
            observed.first_seen.get(&key).copied(),
        )?;
    }
    if verified.mismatches > 0 {
        violations.push(format!(
            "{} results differ from the reference session",
            verified.mismatches
        ));
    }
    Ok(verified)
}

/// Fails the run when this (workload, seed) is pinned and the load or the
/// answers are not the pinned ones.
fn check_pins(
    workload: &str,
    seed: u64,
    fingerprint: u64,
    result_digest: u64,
    violations: &mut Vec<String>,
) {
    let Some((pinned_fingerprint, pinned_digest)) = pinned(workload, seed) else {
        return;
    };
    if pinned_fingerprint != format!("{fingerprint:016x}") {
        violations.push(format!(
            "workload drifted: fingerprint {fingerprint:016x}, pinned {pinned_fingerprint} \
             (the generated data or requests changed; a speed-up over another load is not one)"
        ));
    }
    if pinned_digest != format!("{result_digest:016x}") {
        violations.push(format!(
            "result digest {result_digest:016x} differs from the pinned {pinned_digest}: \
             answers changed"
        ));
    }
}

pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    if !(config.seconds > 0.0 && config.seconds <= 3600.0) {
        return Err(format!("--seconds {} is out of range", config.seconds));
    }
    let (mut workload, setup_s) = set_up(config)?;
    let workload = workload.as_mut();
    let sample = choose_sample(config.seed, workload.guaranteed());

    // The timed phase. A traced run spends half its time untraced and
    // then repeats that many requests traced: the same process, cache
    // state and requests on both sides of the tracing-overhead ratio.
    let span = Duration::from_secs_f64(config.seconds);
    let (untraced, traced) = if config.trace {
        let untraced = workload.measure(0, Limit::Time(span / 2), &sample, false);
        let count: u64 = untraced.clients.iter().map(|c| c.sums.requests).sum();
        let traced = workload.measure(untraced.next_id, Limit::Requests(count), &sample, true);
        (untraced, Some(traced))
    } else {
        (workload.measure(0, Limit::Time(span), &sample, false), None)
    };
    // Before the reference session adds its own memory.
    let rss_mb = rss_peak_mb();

    let mut violations = Vec::new();
    let mut metrics = Vec::new();
    let untraced = Phase::close(workload, untraced, &mut violations);
    let mut attempted = untraced.merged.sums.requests;
    let mut failed = untraced.merged.errors;
    let mut observed = Observed::default();
    match traced {
        Some(traced) => {
            let mut traced = Phase::close(workload, traced, &mut violations);
            attempted += traced.merged.sums.requests;
            failed += traced.merged.errors;
            per_layer_metrics(
                workload,
                &mut traced,
                &untraced,
                config,
                &mut metrics,
                &mut violations,
            )?;
            observed.merge(traced.merged.observed);
        }
        None => end_to_end_metrics(&untraced, &setup_s, rss_mb, &mut metrics, &mut violations),
    }
    observed.merge(untraced.merged.observed);
    if observed.mismatches > 0 {
        violations.push(format!(
            "{} repeats did not return the rows of their first occurrence",
            observed.mismatches
        ));
    }

    let verified = verify(workload, &observed, &sample, &mut violations)?;
    attempted += verified.checked;
    failed += observed.mismatches + verified.mismatches;
    if failed > 0 {
        violations.push(format!("{failed} of {attempted} operations failed"));
    }
    let fingerprint = fingerprint(workload);
    check_pins(
        workload.name(),
        config.seed,
        fingerprint,
        verified.result_digest,
        &mut violations,
    );

    let mut settings = vec![
        ("workload", workload.name().to_owned()),
        ("seed", config.seed.to_string()),
        ("seconds", config.seconds.to_string()),
        ("sf", SF.to_string()),
        ("csv_bytes", workload.data().csv_bytes.len().to_string()),
        ("json_bytes", workload.data().json_bytes.len().to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        ("setup_repeats", setup_s.len().to_string()),
    ];
    settings.extend(workload.describe());

    Ok(RunOutput {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        violations,
        result_digest: verified.result_digest,
        fingerprint,
        settings,
    })
}

/// A finished phase: its clients merged, its guards checked.
struct Phase<'a> {
    merged: workloads::Merged,
    /// The phase as measured, its clients moved into `merged`.
    measured: Measured<'a>,
    /// Median of the phase's per-slice throughputs.
    queries_per_s: f64,
}

impl<'a> Phase<'a> {
    /// The clients' loop time per request: the request itself plus the
    /// harness's own work around it.
    fn loop_ns_per_request(&self) -> f64 {
        self.merged.loop_ns as f64 / self.merged.sums.requests.max(1) as f64
    }

    /// The part of that no request span covers. A request's clock stops
    /// before its spans are recorded, so this gap is where tracing can
    /// add time.
    fn gap_ns_per_request(&self) -> f64 {
        self.merged.loop_ns.saturating_sub(self.merged.sums.span_ns) as f64
            / self.merged.sums.requests.max(1) as f64
    }

    fn close(
        workload: &dyn Workload,
        mut measured: Measured<'a>,
        violations: &mut Vec<String>,
    ) -> Phase<'a> {
        let merged = merge_clients(std::mem::take(&mut measured.clients));
        workload.guards(&merged.sums, &measured, violations);
        if let Some(error) = &merged.first_error {
            violations.push(format!("{} requests failed, first: {error}", merged.errors));
        }
        Phase {
            merged,
            queries_per_s: stats::median(&measured.rates).unwrap_or(0.0),
            measured,
        }
    }
}

fn def(table: &[MetricDef], name: &str) -> MetricDef {
    *table
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric '{name}' is not in the catalog"))
}

fn end_to_end_metrics(
    phase: &Phase<'_>,
    setup_s: &[f64],
    rss_mb: Option<f64>,
    metrics: &mut Vec<Metric>,
    violations: &mut Vec<String>,
) {
    let requests = phase.merged.sums.requests;
    let mut push = |name: &str, value: f64, samples: u64| {
        metrics.push(Metric {
            def: def(&END_TO_END, name),
            value,
            samples,
        });
    };
    push(
        "setup_s",
        stats::median(setup_s).expect("SETUP_REPEATS > 0"),
        setup_s.len() as u64,
    );
    push("queries_per_s", phase.queries_per_s, requests);
    for (name, q) in [
        ("lat_p50_us", 0.50),
        ("lat_p95_us", 0.95),
        ("lat_p99_us", 0.99),
    ] {
        let latencies = &phase.merged.latencies_ns;
        let value = stats::supported_quantile(latencies, q).or_else(|| {
            violations.push(format!(
                "{name}: {} samples leave fewer than {} beyond the percentile; run longer",
                latencies.len(),
                stats::MIN_BEYOND
            ));
            stats::quantile_sorted(latencies, q)
        });
        push(
            name,
            value.unwrap_or(0) as f64 / 1e3,
            latencies.len() as u64,
        );
    }
    match rss_mb {
        Some(mb) => push("rss_peak_mb", mb, 1),
        None => {
            violations.push("VmHWM is not readable from /proc/self/status".to_owned());
            push("rss_peak_mb", 0.0, 0);
        }
    }
}

fn per_layer_metrics(
    workload: &mut dyn Workload,
    phase: &mut Phase<'_>,
    untraced: &Phase<'_>,
    config: &RunConfig,
    metrics: &mut Vec<Metric>,
    violations: &mut Vec<String>,
) -> Result<(), String> {
    let sums: &LayerSums = &phase.merged.sums;
    let requests = sums.requests.max(1);
    let per_request_us = |ns: u64| ns as f64 / 1e3 / requests as f64;
    let mut push = |name: &str, value: f64, samples: u64| {
        metrics.push(Metric {
            def: def(&PER_LAYER, name),
            value,
            samples,
        });
    };

    // Spans: merged across clients, self time per name.
    let spans = trace::merge(std::mem::take(&mut phase.merged.traces));
    let by_name = trace::self_time_by_name(&spans);
    let self_ns = |name: Name| by_name[name as usize];
    let covered: u64 = by_name.iter().sum();
    let coverage = covered as f64 / phase.merged.loop_ns.max(1) as f64;
    if (coverage - 1.0).abs() > 0.05 {
        violations.push(format!(
            "layer self times sum to {coverage:.4} of the traced client time, not within 5 %"
        ));
    }
    if let Some(path) = &config.trace_out {
        trace::write_jsonl(path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let c = &phase.measured.counters;
    let lookups = c.hits_exact + c.hits_subsuming + c.misses;
    let traced_qps = phase.queries_per_s;

    push("data.raw_scans", sums.raw_scans as f64, sums.requests);
    push(
        "data.raw_scan_us",
        per_request_us(sums.raw_scan_ns),
        sums.raw_scans,
    );
    push(
        "data.raw_scan_share",
        sums.raw_scan_ns as f64 / phase.merged.loop_ns.max(1) as f64,
        sums.raw_scans,
    );
    push(
        "data.raw_bytes_scanned",
        sums.raw_bytes as f64,
        sums.raw_scans,
    );
    push("data.lazy_rereads", sums.lazy_rereads as f64, sums.requests);
    push(
        "data.retried_chunks",
        c.retried_chunks as f64,
        sums.requests,
    );
    push(
        "data.degraded_fallbacks",
        c.degraded_fallbacks as f64,
        sums.requests,
    );

    push(
        "engine.exec_us",
        per_request_us(sums.exec_ns),
        sums.requests,
    );
    push(
        "engine.cache_data_us",
        per_request_us(sums.cache_data_ns),
        sums.requests,
    );
    push(
        "engine.cache_compute_us",
        per_request_us(sums.cache_compute_ns),
        sums.requests,
    );

    push(
        "cache.lookup_us",
        per_request_us(sums.lookup_ns),
        sums.requests,
    );
    push(
        "cache.hit_ratio",
        (c.hits_exact + c.hits_subsuming) as f64 / lookups.max(1) as f64,
        lookups,
    );
    push("cache.hits_exact", c.hits_exact as f64, lookups);
    push("cache.hits_subsuming", c.hits_subsuming as f64, lookups);
    push("cache.misses", c.misses as f64, lookups);
    push("cache.admissions", c.admissions as f64, lookups);
    push("cache.evictions", c.evictions as f64, lookups);
    push("cache.bytes_evicted", c.bytes_evicted as f64, c.evictions);
    push(
        "cache.bytes_resident_end",
        phase.measured.bytes_resident_end as f64,
        1,
    );
    push("cache.entries_end", phase.measured.entries_end as f64, 1);

    let in_process = sums.served == 0;
    push(
        "core.execute_us",
        per_request_us(if in_process {
            sums.span_ns
        } else {
            sums.session_ns
        }),
        sums.requests,
    );
    push(
        "core.caching_us",
        per_request_us(sums.caching_ns),
        sums.requests,
    );
    push(
        "core.caching_overhead_ratio",
        sums.caching_ns as f64 / sums.session_ns.max(1) as f64,
        sums.requests,
    );
    push(
        "core.self_us",
        per_request_us(self_ns(Name::CoreExecute) + self_ns(Name::CoreServed)),
        sums.requests,
    );
    push(
        "core.result_hit_ratio",
        sums.result_hits as f64 / requests as f64,
        sums.requests,
    );
    push(
        "core.result_invalidations",
        c.result_invalidations as f64,
        sums.requests,
    );
    push(
        "core.result_evictions",
        c.result_evictions as f64,
        sums.requests,
    );
    push("core.coalesced", c.coalesced as f64, sums.requests);
    push(
        "core.coalesced_subsumed",
        c.coalesced_subsumed as f64,
        sums.requests,
    );
    push("core.shared_scans", c.shared_scans as f64, sums.requests);
    push(
        "core.threads_granted_mean",
        sums.threads_granted as f64 / requests as f64,
        sums.requests,
    );
    push("core.timeouts", c.timeouts as f64, sums.requests);
    push("core.failed_scans", c.failed_scans as f64, sums.requests);

    let mut wire = sums.wire_overhead_ns.clone();
    push(
        "server.roundtrip_us",
        if in_process {
            0.0
        } else {
            per_request_us(sums.span_ns)
        },
        if in_process { 0 } else { sums.requests },
    );
    push(
        "server.self_us",
        per_request_us(self_ns(Name::ServerRoundtrip)),
        if in_process { 0 } else { sums.requests },
    );
    push(
        "server.wire_overhead_us",
        stats::median_u64(&mut wire).unwrap_or(0) as f64 / 1e3,
        wire.len() as u64,
    );
    push(
        "server.hist_p50_us",
        phase.measured.server.hist_p50_ns as f64 / 1e3,
        if in_process { 0 } else { sums.requests },
    );
    push(
        "server.shed",
        phase.measured.server.shed as f64,
        sums.requests,
    );
    push(
        "server.conn_deaths",
        phase.measured.server.conn_deaths as f64,
        sums.requests,
    );
    push(
        "server.client_retries",
        phase.measured.server.client_retries as f64,
        sums.requests,
    );

    push(
        "bench.self_us",
        per_request_us(self_ns(Name::BenchClient)),
        sums.requests,
    );
    push(
        "bench.trace_overhead_ratio",
        (phase.gap_ns_per_request() - untraced.gap_ns_per_request())
            / untraced.loop_ns_per_request(),
        sums.requests,
    );
    push("bench.trace_coverage_ratio", coverage, spans.len() as u64);
    push("bench.requests", sums.requests as f64, sums.requests);
    push(
        "bench.traced_wall_ms",
        phase.measured.wall_ns as f64 / 1e6,
        1,
    );
    push("bench.traced_queries_per_s", traced_qps, sums.requests);
    push("bench.spans", spans.len() as f64, spans.len() as u64);

    for probe in probes::run(workload) {
        push(probe.name, probe.value, probe.samples);
    }
    // Catalog order, so reports line up across runs.
    metrics.sort_by_key(|m| PER_LAYER.iter().position(|d| d.name == m.def.name));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_distinct_seeded_and_in_range() {
        let a = choose_sample(42, 100);
        assert_eq!(a.len(), 100);
        assert_eq!(a.iter().filter(|s| **s).count(), REFERENCE_SAMPLE);
        assert_eq!(a, choose_sample(42, 100));
        assert_ne!(a, choose_sample(43, 100));
        assert_eq!(choose_sample(1, 10).iter().filter(|s| **s).count(), 10);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` is the contract the driver reads; the catalog
    /// here is what runs print. They must name the same metrics.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let bench = json::parse(&text).expect("BENCHMARK.json parses");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = bench.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, d) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Some(d.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Some(better),
                    "{}",
                    d.name
                );
            }
        }
        let workloads: Vec<&str> = bench
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(workloads, workloads::NAMES);
    }

    #[test]
    fn pins_parse_and_name_known_workloads() {
        let pins = json::parse(PINS).expect("pins.json parses");
        let Json::Obj(entries) = pins else {
            panic!("pins.json holds an object");
        };
        for (name, _) in entries {
            assert!(workloads::NAMES.contains(&name.as_str()), "{name}");
        }
        assert!(pinned("no_such_workload", 42).is_none());
    }
}

//! The four workloads. Each is closed loop: a client sends its next
//! request only after the previous reply. README.md says why each exists
//! and which layers it exercises or bypasses.

use crate::client::{ClientRun, LayerSums, Observed};
use crate::rng::{SplitMix64, Zipf};
use crate::setup::{drill_down, full_table_query, Dataset};
use crate::trace::ThreadTrace;
use recache_cache::stats::RegistryCounters;
use recache_core::{QueryRequest, ReCache, Scheduler};
use recache_engine::exec::{ExecOptions, Repricer};
use recache_engine::sql::QuerySpec;
use recache_server::dataset::{CSV_TABLE, JSON_TABLE};
use recache_server::{Client, Server, ServerConfig, ServerHandle, StatsReply};
use recache_workload::spec_to_sql;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const NAMES: [&str; 4] = [
    "explore_cold",
    "warm_drilldown",
    "churn_tight",
    "served_dashboard",
];

/// How long a timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// Until this much time has passed (and the guaranteed requests ran).
    Time(Duration),
    /// Exactly this many requests: a traced phase repeats the count of the
    /// untraced phase before it, so both cover the same requests.
    Requests(u64),
}

/// What one timed phase produced.
pub struct Measured<'a> {
    pub clients: Vec<ClientRun<'a>>,
    /// Timed wall: for concurrent clients the phase's wall, for episodes
    /// the sum of the episodes' query loops.
    pub wall_ns: u64,
    /// Requests per second of each slice of the phase (seconds, or
    /// episodes); the reported throughput is their median, which a burst
    /// of interference in one slice does not move.
    pub rates: Vec<f64>,
    /// Registry counters accrued during the phase.
    pub counters: RegistryCounters,
    pub bytes_resident_end: u64,
    pub entries_end: u64,
    /// The first id no client of this phase reached.
    pub next_id: u64,
    pub server: ServerSide,
}

/// What only a served run has.
#[derive(Debug, Default, Clone)]
pub struct ServerSide {
    pub shed: u64,
    pub conn_deaths: u64,
    pub client_retries: u64,
    /// Median of the server's own latency histogram over the phase, ns.
    pub hist_p50_ns: u64,
}

pub trait Workload {
    fn name(&self) -> &'static str;
    fn data(&self) -> &Dataset;
    /// Requests every run executes, however short: the reference sample
    /// and the fingerprint are drawn from ids below this.
    fn guaranteed(&self) -> u64;
    /// Request `id`: a pure function of the seed and the id. The key, if
    /// any, names requests that must all return the same rows.
    fn request(&mut self, id: u64) -> (QuerySpec, Option<u64>);
    /// Queries checked against the reference one by one (the served
    /// pool), with the repeat key their requests carry.
    fn pool(&self) -> Vec<(u64, QuerySpec)> {
        Vec::new()
    }
    fn measure<'a>(
        &mut self,
        first_id: u64,
        limit: Limit,
        sample: &'a [bool],
        traced: bool,
    ) -> Measured<'a>;
    /// Shape guards: a workload that stopped bypassing (or exercising) a
    /// layer must fail, not report a misleading number.
    fn guards(&self, sums: &LayerSums, measured: &Measured<'_>, violations: &mut Vec<String>);
    /// Settings worth recording next to the numbers.
    fn describe(&self) -> Vec<(&'static str, String)>;
}

pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "explore_cold" => Box::new(ExploreCold::setup(seed)),
        "warm_drilldown" => Box::new(WarmDrilldown::setup(seed)),
        "churn_tight" => Box::new(ChurnTight::setup(seed)),
        "served_dashboard" => Box::new(ServedDashboard::setup(seed)),
        _ => return None,
    })
}

/// Data-cache budget of the workloads whose working set fits.
const BUDGET_FITS: usize = 2 << 30;

/// Applies `f` to every pair of counters; the one place that lists them.
fn zip_counters(
    a: RegistryCounters,
    b: RegistryCounters,
    f: impl Fn(u64, u64) -> u64,
) -> RegistryCounters {
    RegistryCounters {
        admissions: f(a.admissions, b.admissions),
        evictions: f(a.evictions, b.evictions),
        bytes_evicted: f(a.bytes_evicted, b.bytes_evicted),
        hits_exact: f(a.hits_exact, b.hits_exact),
        hits_subsuming: f(a.hits_subsuming, b.hits_subsuming),
        misses: f(a.misses, b.misses),
        coalesced: f(a.coalesced, b.coalesced),
        removals: f(a.removals, b.removals),
        failed_scans: f(a.failed_scans, b.failed_scans),
        retried_chunks: f(a.retried_chunks, b.retried_chunks),
        timeouts: f(a.timeouts, b.timeouts),
        degraded_fallbacks: f(a.degraded_fallbacks, b.degraded_fallbacks),
        leader_failovers: f(a.leader_failovers, b.leader_failovers),
        result_hits: f(a.result_hits, b.result_hits),
        result_misses: f(a.result_misses, b.result_misses),
        result_evictions: f(a.result_evictions, b.result_evictions),
        result_invalidations: f(a.result_invalidations, b.result_invalidations),
        coalesced_subsumed: f(a.coalesced_subsumed, b.coalesced_subsumed),
        shared_scans: f(a.shared_scans, b.shared_scans),
        shared_scan_participants: f(a.shared_scan_participants, b.shared_scan_participants),
    }
}

fn counters_delta(after: RegistryCounters, before: RegistryCounters) -> RegistryCounters {
    zip_counters(after, before, |a, b| a - b)
}

fn counters_sum(a: RegistryCounters, b: RegistryCounters) -> RegistryCounters {
    zip_counters(a, b, |a, b| a + b)
}

/// What [`run_clients`] hands back.
struct ClientsDone<'a, C> {
    /// Each client's context (its connection, its lease) and its run.
    clients: Vec<(C, ClientRun<'a>)>,
    wall_ns: u64,
    rates: Vec<f64>,
    next_id: u64,
}

/// Length of a throughput slice: long enough that the slowest workload
/// completes a hundred requests in one.
const SLICE_NS: u64 = 1_000_000_000;

/// Requests per second in every whole [`SLICE_NS`] slice of `[0,
/// wall_ns)`, given when each request completed; the one overall rate
/// when the phase is shorter than three slices.
fn slice_rates(done_ns: impl Iterator<Item = u64>, wall_ns: u64) -> Vec<f64> {
    let slices = (wall_ns / SLICE_NS) as usize;
    let mut counts = vec![0u64; slices.max(1)];
    let mut total = 0u64;
    for at in done_ns {
        total += 1;
        if let Some(count) = counts.get_mut((at / SLICE_NS) as usize) {
            *count += 1;
        }
    }
    if slices < 3 {
        return vec![total as f64 / (wall_ns.max(1) as f64 / 1e9)];
    }
    counts
        .into_iter()
        .map(|count| count as f64 / (SLICE_NS as f64 / 1e9))
        .collect()
}

impl<'a, C> ClientsDone<'a, C> {
    fn into_runs(self) -> Vec<ClientRun<'a>> {
        self.clients.into_iter().map(|(_, run)| run).collect()
    }
}

/// Runs one closed loop per context side by side until the limit. Client
/// `k` issues ids `first_id + k`, `first_id + k + clients`, ...; `issue`
/// sends one request.
fn run_clients<'a, C: Send>(
    contexts: Vec<C>,
    first_id: u64,
    limit: Limit,
    guaranteed: u64,
    sample: &'a [bool],
    traced: bool,
    issue: impl Fn(&mut C, &mut ClientRun<'a>, u64) + Sync,
) -> ClientsDone<'a, C> {
    let stride = contexts.len() as u64;
    let epoch = Instant::now();
    let done: Vec<(C, ClientRun<'a>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = contexts
            .into_iter()
            .enumerate()
            .map(|(k, mut context)| {
                let issue = &issue;
                scope.spawn(move || {
                    let mut run = ClientRun::new(sample, epoch, traced);
                    let mut id = first_id + k as u64;
                    run.begin_loop();
                    loop {
                        let stop = match limit {
                            Limit::Time(span) => id >= guaranteed && epoch.elapsed() >= span,
                            Limit::Requests(n) => id >= first_id + n,
                        };
                        if stop {
                            break;
                        }
                        issue(&mut context, &mut run, id);
                        id += stride;
                    }
                    run.end_loop();
                    (context, run, id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect()
    });
    let wall_ns = epoch.elapsed().as_nanos() as u64;
    let next_id = done.iter().map(|(_, _, id)| *id).max().unwrap_or(first_id);
    let rates = slice_rates(
        done.iter()
            .flat_map(|(_, run, _)| run.done_ns.iter().copied()),
        wall_ns,
    );
    ClientsDone {
        clients: done.into_iter().map(|(c, run, _)| (c, run)).collect(),
        wall_ns,
        rates,
        next_id,
    }
}

// ---------------------------------------------------------------------
// explore_cold

/// Queries per exploration episode (25 dealt groups of four).
const EPISODE_GROUPS: usize = 25;
const EPISODE_QUERIES: u64 = EPISODE_GROUPS as u64 * 4;

/// One analyst exploring raw heterogeneous files: every episode starts a
/// fresh session (empty cache, never-scanned files) and runs 100 queries
/// of the mix. A run is a sequence of episodes, each over its own seeded
/// list, so it averages over query lists instead of betting on one.
pub struct ExploreCold {
    data: Dataset,
    lists: Vec<Vec<QuerySpec>>,
    first_session: Option<ReCache>,
}

impl ExploreCold {
    fn setup(seed: u64) -> Self {
        let data = Dataset::generate(seed);
        let first_session = Some(Self::session(&data));
        let mut this = ExploreCold {
            data,
            lists: Vec::new(),
            first_session,
        };
        this.list(0);
        this
    }

    fn session(data: &Dataset) -> ReCache {
        data.session(ReCache::builder().cache_capacity_bytes(BUDGET_FITS))
    }

    fn list(&mut self, episode: usize) -> &[QuerySpec] {
        while self.lists.len() <= episode {
            let stream = 0x0e59_0000 + self.lists.len() as u64;
            self.lists.push(self.data.mix(EPISODE_GROUPS, stream));
        }
        &self.lists[episode]
    }
}

impl Workload for ExploreCold {
    fn name(&self) -> &'static str {
        "explore_cold"
    }

    fn data(&self) -> &Dataset {
        &self.data
    }

    fn guaranteed(&self) -> u64 {
        // Ten episodes: p99 needs a thousand samples.
        10 * EPISODE_QUERIES
    }

    fn request(&mut self, id: u64) -> (QuerySpec, Option<u64>) {
        let spec =
            self.list((id / EPISODE_QUERIES) as usize)[(id % EPISODE_QUERIES) as usize].clone();
        // A traced phase replays the untraced phase's episodes: the same
        // id must then return the same rows.
        (spec, Some(id))
    }

    fn measure<'a>(
        &mut self,
        _first_id: u64,
        limit: Limit,
        sample: &'a [bool],
        traced: bool,
    ) -> Measured<'a> {
        let started = Instant::now();
        let mut run = ClientRun::new(sample, started, traced);
        let mut rates = Vec::new();
        let mut counters = RegistryCounters::default();
        let (mut bytes_end, mut entries_end) = (0u64, 0u64);
        let mut episode = 0usize;
        loop {
            let done = match limit {
                Limit::Time(span) => {
                    episode as u64 * EPISODE_QUERIES >= self.guaranteed()
                        && started.elapsed() >= span
                }
                Limit::Requests(n) => episode as u64 * EPISODE_QUERIES >= n,
            };
            if done {
                break;
            }
            // Building the session and the list is not a query: it stays
            // outside the client loop and the timed wall.
            let requests: Vec<QueryRequest> = self
                .list(episode)
                .iter()
                .map(|spec| QueryRequest::spec(spec.clone()))
                .collect();
            let session = self
                .first_session
                .take()
                .unwrap_or_else(|| Self::session(&self.data));
            let first_id = episode as u64 * EPISODE_QUERIES;
            let loop_before = run.loop_ns;
            run.begin_loop();
            for (i, request) in requests.iter().enumerate() {
                let id = first_id + i as u64;
                run.in_process(&session, id, Some(id), request);
            }
            run.end_loop();
            rates.push(requests.len() as f64 / ((run.loop_ns - loop_before) as f64 / 1e9));
            counters = counters_sum(counters, session.cache().counters());
            bytes_end = bytes_end.max(session.cache().total_bytes() as u64);
            entries_end = entries_end.max(session.cache().len() as u64);
            episode += 1;
        }
        Measured {
            wall_ns: run.loop_ns,
            rates,
            clients: vec![run],
            counters,
            bytes_resident_end: bytes_end,
            entries_end,
            // Every phase replays the episodes from the first.
            next_id: 0,
            server: ServerSide::default(),
        }
    }

    fn guards(&self, _sums: &LayerSums, measured: &Measured<'_>, violations: &mut Vec<String>) {
        let c = &measured.counters;
        if c.evictions != 0 {
            violations.push(format!(
                "explore_cold must fit its budget: {} evictions",
                c.evictions
            ));
        }
        let lookups = c.hits_exact + c.hits_subsuming + c.misses;
        if (c.misses as f64) < 0.6 * lookups as f64 {
            violations.push(format!(
                "explore_cold must be miss-dominated: {} misses of {lookups} lookups",
                c.misses
            ));
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("clients", "1".to_owned()),
            ("queries_per_episode", EPISODE_QUERIES.to_string()),
            ("cache_budget_bytes", BUDGET_FITS.to_string()),
            ("result_cache", "off".to_owned()),
        ]
    }
}

// ---------------------------------------------------------------------
// warm_drilldown

const WARM_BASE_GROUPS: usize = 100;
const WARM_UP_DRILLDOWNS: u64 = 500;
/// Rng stream of timed drill-downs (warm-up uses its own).
const STREAM_TIMED: u64 = 1;
const STREAM_WARM_UP: u64 = 2;

/// Admits the base queries and a whole-source entry per table, then
/// touches every entry until none is lazy and layouts have settled, so
/// the timed phase finds a cache that answers everything.
fn warm_session(data: &Dataset, base: &[QuerySpec], session: &ReCache) {
    let run = |spec: &QuerySpec| {
        session
            .execute(&QueryRequest::spec(spec.clone()))
            .expect("warm-up query must run");
    };
    // Base queries first: each miss admits its own (small) entry. The
    // whole-source entries come last, or they would subsume every base
    // query and nothing else would be admitted.
    base.iter().for_each(run);
    run(&full_table_query(CSV_TABLE));
    run(&full_table_query(JSON_TABLE));
    // A reused lazy entry is upgraded to an eager store; two passes over
    // the exact queries reach every entry.
    for _ in 0..2 {
        base.iter().for_each(run);
        run(&full_table_query(CSV_TABLE));
        run(&full_table_query(JSON_TABLE));
    }
    for i in 0..WARM_UP_DRILLDOWNS {
        let spec = &base[(i % base.len() as u64) as usize];
        run(&drill_down(
            spec,
            &mut SplitMix64::at(data.seed, STREAM_WARM_UP, i),
        ));
    }
}

fn drill_down_request(data: &Dataset, base: &[QuerySpec], id: u64) -> QuerySpec {
    // Walking the base list in order keeps the dealt class shares exact
    // in every window of four requests.
    let spec = &base[(id % base.len() as u64) as usize];
    drill_down(spec, &mut SplitMix64::at(data.seed, STREAM_TIMED, id))
}

/// Every query is a data-cache hit: the read side of the cache, the
/// kernels and the layouts do all the work; the raw-data layer does none.
pub struct WarmDrilldown {
    data: Dataset,
    base: Vec<QuerySpec>,
    session: ReCache,
}

impl WarmDrilldown {
    fn setup(seed: u64) -> Self {
        let data = Dataset::generate(seed);
        let base = data.mix(WARM_BASE_GROUPS, 0x3a50);
        let session = data.session(ReCache::builder().cache_capacity_bytes(BUDGET_FITS));
        warm_session(&data, &base, &session);
        WarmDrilldown {
            data,
            base,
            session,
        }
    }
}

impl Workload for WarmDrilldown {
    fn name(&self) -> &'static str {
        "warm_drilldown"
    }

    fn data(&self) -> &Dataset {
        &self.data
    }

    fn guaranteed(&self) -> u64 {
        2000
    }

    fn request(&mut self, id: u64) -> (QuerySpec, Option<u64>) {
        (drill_down_request(&self.data, &self.base, id), None)
    }

    fn measure<'a>(
        &mut self,
        first_id: u64,
        limit: Limit,
        sample: &'a [bool],
        traced: bool,
    ) -> Measured<'a> {
        let before = self.session.cache().counters();
        let (data, base, session) = (&self.data, &self.base, &self.session);
        let mut done = run_clients(
            vec![()],
            first_id,
            limit,
            self.guaranteed(),
            sample,
            traced,
            |_, run, id| {
                let request = QueryRequest::spec(drill_down_request(data, base, id));
                run.in_process(session, id, None, &request);
            },
        );
        Measured {
            wall_ns: done.wall_ns,
            next_id: done.next_id,
            rates: std::mem::take(&mut done.rates),
            clients: done.into_runs(),
            counters: counters_delta(self.session.cache().counters(), before),
            bytes_resident_end: self.session.cache().total_bytes() as u64,
            entries_end: self.session.cache().len() as u64,
            server: ServerSide::default(),
        }
    }

    fn guards(&self, sums: &LayerSums, measured: &Measured<'_>, violations: &mut Vec<String>) {
        if sums.raw_scans != 0 || sums.lazy_rereads != 0 || measured.counters.misses != 0 {
            violations.push(format!(
                "warm_drilldown must never touch raw data: {} raw scans, {} lazy re-reads, {} misses",
                sums.raw_scans, sums.lazy_rereads, measured.counters.misses
            ));
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("clients", "1".to_owned()),
            ("base_queries", self.base.len().to_string()),
            ("warm_up_drilldowns", WARM_UP_DRILLDOWNS.to_string()),
            ("cache_budget_bytes", BUDGET_FITS.to_string()),
            ("result_cache", "off".to_owned()),
        ]
    }
}

// ---------------------------------------------------------------------
// churn_tight

/// The query list is 400 queries of the mix, replayed in a cycle for as
/// long as the run lasts: every cycle asks the same of the cache, so the
/// load is the same whichever stretch of the run is measured.
const CHURN_CYCLE_GROUPS: usize = 100;
/// Untimed requests before the timed phase: one whole cycle, which fills
/// the cache to its budget and leaves it as every later cycle finds it.
const CHURN_WARM_UP: u64 = CHURN_CYCLE_GROUPS as u64 * 4;
/// Cache budget as a multiple of the raw bytes. ISSUE.md's 64 MiB at
/// sf 0.01 is 2.5× the raw data, about a tenth of what `explore_cold`
/// admits.
const CHURN_BUDGET_FACTOR: f64 = 2.5;
const CHURN_CLIENTS: usize = 2;

/// Working set larger than the cache, two live streams: the cache's write
/// side (admit, evict, re-admit), mapped re-scans, and the scheduler and
/// registry under contention.
pub struct ChurnTight {
    data: Dataset,
    stream: Vec<QuerySpec>,
    session: ReCache,
    scheduler: Scheduler,
    budget: usize,
}

impl ChurnTight {
    fn setup(seed: u64) -> Self {
        let data = Dataset::generate(seed);
        let stream = data.mix(CHURN_CYCLE_GROUPS, 0xc4);
        let budget = (data.raw_bytes() as f64 * CHURN_BUDGET_FACTOR) as usize;
        let session = data.session(ReCache::builder().cache_capacity_bytes(budget));
        for spec in &stream[..CHURN_WARM_UP as usize] {
            session
                .execute(&QueryRequest::spec(spec.clone()))
                .expect("warm-up query must run");
        }
        ChurnTight {
            data,
            stream,
            session,
            scheduler: Scheduler::new(0),
            budget,
        }
    }

    fn spec(&self, id: u64) -> (&QuerySpec, u64) {
        let key = (CHURN_WARM_UP + id) % self.stream.len() as u64;
        (&self.stream[key as usize], key)
    }
}

impl Workload for ChurnTight {
    fn name(&self) -> &'static str {
        "churn_tight"
    }

    fn data(&self) -> &Dataset {
        &self.data
    }

    fn guaranteed(&self) -> u64 {
        1000
    }

    fn request(&mut self, id: u64) -> (QuerySpec, Option<u64>) {
        let (spec, key) = self.spec(id);
        (spec.clone(), Some(key))
    }

    fn measure<'a>(
        &mut self,
        first_id: u64,
        limit: Limit,
        sample: &'a [bool],
        traced: bool,
    ) -> Measured<'a> {
        let before = self.session.cache().counters();
        let this = &*self;
        // Each client holds a seat on the scheduler's cost board and
        // negotiates its thread share per query, as `run_streams` does.
        let leases = (0..CHURN_CLIENTS)
            .map(|_| Arc::new(this.scheduler.register_stream()))
            .collect();
        let mut done = run_clients(
            leases,
            first_id,
            limit,
            this.guaranteed(),
            sample,
            traced,
            |lease, run, id| {
                let (spec, key) = this.spec(id);
                let threads = lease.negotiate(this.session.estimate_scan_cost(spec));
                let mut options = ExecOptions::with_threads(threads);
                let repricer = Arc::clone(lease);
                options.reprice = Some(Repricer::new(move || repricer.reprice()));
                let request = QueryRequest::spec(spec.clone()).options(options);
                run.in_process(&this.session, id, Some(key), &request);
            },
        );
        Measured {
            wall_ns: done.wall_ns,
            next_id: done.next_id,
            rates: std::mem::take(&mut done.rates),
            clients: done.into_runs(),
            counters: counters_delta(self.session.cache().counters(), before),
            bytes_resident_end: self.session.cache().total_bytes() as u64,
            entries_end: self.session.cache().len() as u64,
            server: ServerSide::default(),
        }
    }

    fn guards(&self, _sums: &LayerSums, measured: &Measured<'_>, violations: &mut Vec<String>) {
        let c = &measured.counters;
        if c.evictions == 0 {
            violations.push("churn_tight must evict: 0 evictions".to_owned());
        }
        let hits = c.hits_exact + c.hits_subsuming;
        if hits >= c.misses {
            violations.push(format!(
                "churn_tight must miss more than it hits: {hits} hits, {} misses",
                c.misses
            ));
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("clients", CHURN_CLIENTS.to_string()),
            ("cache_budget_bytes", self.budget.to_string()),
            ("cycle_queries", self.stream.len().to_string()),
            ("warm_up_requests", CHURN_WARM_UP.to_string()),
            (
                "scheduler_threads",
                self.scheduler.total_threads().to_string(),
            ),
            ("result_cache", "off".to_owned()),
        ]
    }
}

// ---------------------------------------------------------------------
// served_dashboard

const POOL_GROUPS: usize = 50;
const ZIPF_EXPONENT: f64 = 1.0;
/// Share of requests that are never-seen drill-downs.
const FRESH_SHARE: f64 = 0.07;
const STREAM_SERVED: u64 = 3;
const SERVED_CONNECTIONS: usize = 2;

/// A dashboard over TCP: repeats are result-cache hits, so the wire and
/// the result cache set the median and the throughput, and the fresh 5 %
/// put the tail on the data-cache-hit path.
pub struct ServedDashboard {
    data: Dataset,
    pool: Vec<QuerySpec>,
    pool_sql: Vec<String>,
    zipf: Zipf,
    session: Arc<ReCache>,
    /// Dropping the handle stops the server and joins its threads.
    server: ServerHandle,
    config: ServerConfig,
}

/// One request of the dashboard.
enum Drawn {
    /// A repeat of the pool query of this rank.
    Repeat(u64),
    /// A never-seen drill-down of some pool query.
    Fresh(QuerySpec),
}

impl ServedDashboard {
    fn setup(seed: u64) -> Self {
        let data = Dataset::generate(seed);
        let pool = data.mix(POOL_GROUPS, 0x5e7e);
        let pool_sql: Vec<String> = pool.iter().map(spec_to_sql).collect();
        let session = data.session(ReCache::builder().cache_capacity_bytes(BUDGET_FITS));
        warm_session(&data, &pool, &session);
        let session = Arc::new(session);
        let config = ServerConfig::default();
        let server = Server::bind(config.clone(), Arc::clone(&session))
            .expect("bind 127.0.0.1:0")
            .spawn();
        // The pool is issued once over the wire, so every repeat in the
        // timed phase finds its result cached.
        let mut client = Client::connect(server.addr()).expect("connect to own server");
        for sql in &pool_sql {
            client
                .query(&QueryRequest::sql(sql.clone()))
                .expect("pool query must run");
        }
        ServedDashboard {
            data,
            zipf: Zipf::new(pool.len(), ZIPF_EXPONENT),
            pool,
            pool_sql,
            session,
            server,
            config,
        }
    }

    fn draw(&self, id: u64) -> Drawn {
        let mut rng = SplitMix64::at(self.data.seed, STREAM_SERVED, id);
        if rng.next_f64() < FRESH_SHARE {
            let base = &self.pool[rng.below(self.pool.len() as u64) as usize];
            Drawn::Fresh(drill_down(base, &mut rng))
        } else {
            Drawn::Repeat(self.zipf.rank(rng.next_f64()) as u64)
        }
    }

    fn stats(&self) -> StatsReply {
        Client::connect(self.server.addr())
            .and_then(|mut client| client.stats())
            .expect("stats probe")
    }
}

fn histogram_p50(before: &[(u64, u64)], after: &[(u64, u64)]) -> u64 {
    let delta: Vec<(u64, u64)> = after
        .iter()
        .map(|&(bound, count)| {
            let earlier = before
                .iter()
                .find(|&&(b, _)| b == bound)
                .map_or(0, |&(_, c)| c);
            (bound, count - earlier)
        })
        .collect();
    let total: u64 = delta.iter().map(|&(_, c)| c).sum();
    let mut seen = 0;
    for (bound, count) in delta {
        seen += count;
        if seen * 2 >= total && count > 0 {
            return bound;
        }
    }
    0
}

impl Workload for ServedDashboard {
    fn name(&self) -> &'static str {
        "served_dashboard"
    }

    fn data(&self) -> &Dataset {
        &self.data
    }

    fn guaranteed(&self) -> u64 {
        20_000
    }

    fn request(&mut self, id: u64) -> (QuerySpec, Option<u64>) {
        match self.draw(id) {
            Drawn::Repeat(rank) => (self.pool[rank as usize].clone(), Some(rank)),
            Drawn::Fresh(spec) => (spec, None),
        }
    }

    fn pool(&self) -> Vec<(u64, QuerySpec)> {
        (0u64..).zip(self.pool.iter().cloned()).collect()
    }

    fn measure<'a>(
        &mut self,
        first_id: u64,
        limit: Limit,
        sample: &'a [bool],
        traced: bool,
    ) -> Measured<'a> {
        let counters_before = self.session.cache().counters();
        let stats_before = self.stats();
        let addr = self.server.addr();
        let connections: Vec<Client> = (0..SERVED_CONNECTIONS)
            .map(|_| Client::connect(addr).expect("connect to own server"))
            .collect();
        let this = &*self;
        let mut done = run_clients(
            connections,
            first_id,
            limit,
            this.guaranteed(),
            sample,
            traced,
            |client, run, id| {
                // Requests travel as SQL text, so the server parses.
                let (key, sql) = match this.draw(id) {
                    Drawn::Repeat(rank) => (Some(rank), this.pool_sql[rank as usize].clone()),
                    Drawn::Fresh(spec) => (None, spec_to_sql(&spec)),
                };
                let request = QueryRequest::sql(sql);
                run.served(client, id, key, &request);
            },
        );
        let client_retries = done
            .clients
            .iter()
            .map(|(client, _)| client.stats_local().retries + client.stats_local().reconnects)
            .sum();
        let (wall_ns, next_id) = (done.wall_ns, done.next_id);
        let rates = std::mem::take(&mut done.rates);
        // Dropping the connections lets their server threads end.
        let clients = done.into_runs();
        let stats_after = self.stats();
        let conn_deaths = |stats: &StatsReply| -> u64 {
            stats
                .counters
                .iter()
                .filter(|(name, _)| {
                    name.starts_with("conn_")
                        && !matches!(
                            name.as_str(),
                            "conn_accepted" | "conn_active" | "conn_closed_clean"
                        )
                })
                .map(|(_, value)| value)
                .sum()
        };
        Measured {
            clients,
            wall_ns,
            rates,
            next_id,
            counters: counters_delta(self.session.cache().counters(), counters_before),
            bytes_resident_end: self.session.cache().total_bytes() as u64,
            entries_end: self.session.cache().len() as u64,
            server: ServerSide {
                shed: stats_after.admission.shed - stats_before.admission.shed,
                conn_deaths: conn_deaths(&stats_after) - conn_deaths(&stats_before),
                client_retries,
                hist_p50_ns: histogram_p50(
                    &stats_before.latency_buckets,
                    &stats_after.latency_buckets,
                ),
            },
        }
    }

    fn guards(&self, sums: &LayerSums, measured: &Measured<'_>, violations: &mut Vec<String>) {
        if sums.raw_scans != 0 || measured.counters.misses != 0 {
            violations.push(format!(
                "served_dashboard must never touch raw data: {} raw scans, {} misses",
                sums.raw_scans, measured.counters.misses
            ));
        }
        let ratio = sums.result_hits as f64 / sums.requests.max(1) as f64;
        if !(0.92..=0.94).contains(&ratio) {
            violations.push(format!(
                "served_dashboard result hits must be 92–94 % of requests: {ratio:.4}"
            ));
        }
        if measured.server.shed != 0 {
            violations.push(format!(
                "served_dashboard must not shed: {} shed",
                measured.server.shed
            ));
        }
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("connections", SERVED_CONNECTIONS.to_string()),
            ("pool_queries", self.pool.len().to_string()),
            ("zipf_exponent", ZIPF_EXPONENT.to_string()),
            ("fresh_share", FRESH_SHARE.to_string()),
            ("server_config", format!("{:?}", self.config)),
        ]
    }
}

/// Merges the clients of a phase: sorted latencies, layer sums, what the
/// checks observed, errors, the first error text, Σ loop time, traces.
pub struct Merged {
    pub latencies_ns: Vec<u64>,
    pub sums: LayerSums,
    pub observed: Observed,
    pub errors: u64,
    pub first_error: Option<String>,
    pub loop_ns: u64,
    pub traces: Vec<ThreadTrace>,
}

pub fn merge_clients(clients: Vec<ClientRun<'_>>) -> Merged {
    let mut merged = Merged {
        latencies_ns: Vec::new(),
        sums: LayerSums::default(),
        observed: Observed::default(),
        errors: 0,
        first_error: None,
        loop_ns: 0,
        traces: Vec::new(),
    };
    for client in clients {
        merged.latencies_ns.extend(client.latencies_ns);
        merged.sums.merge(client.sums);
        merged.observed.merge(client.observed);
        merged.errors += client.errors;
        merged.first_error = merged.first_error.or(client.first_error);
        merged.loop_ns += client.loop_ns;
        merged.traces.extend(client.trace);
    }
    merged.latencies_ns.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_median_reads_the_phase_not_the_lifetime() {
        let before = vec![(1024, 100), (2048, 10)];
        let after = vec![(1024, 100), (2048, 20), (4096, 31)];
        // The phase saw 10 in ≤2048 and 31 in ≤4096: the median is 4096.
        assert_eq!(histogram_p50(&before, &after), 4096);
        assert_eq!(histogram_p50(&[], &[(512, 3)]), 512);
        assert_eq!(histogram_p50(&after, &after), 0);
    }

    #[test]
    fn throughput_slices_drop_the_partial_tail() {
        // 4.4 s: four whole one-second slices, the last 0.4 s dropped.
        let done = (0..4400u64).map(|ms| ms * 1_000_000);
        let rates = slice_rates(done, 4_400_000_000);
        assert_eq!(rates, vec![1000.0; 4]);
        // Shorter than three slices: one overall rate.
        let rates = slice_rates((0..200u64).map(|ms| ms * 10_000_000), 2_000_000_000);
        assert_eq!(rates, vec![100.0]);
        // A stall in one slice moves the mean, not the median.
        let stalled = (0..3000u64)
            .map(|ms| ms * 1_000_000)
            .filter(|at| !(1_000_000_000..1_800_000_000).contains(at));
        let rates = slice_rates(stalled, 3_000_000_000);
        assert_eq!(rates, vec![1000.0, 200.0, 1000.0]);
    }

    #[test]
    fn counter_deltas_and_sums_are_fieldwise() {
        let a = RegistryCounters {
            admissions: 5,
            misses: 7,
            bytes_evicted: 100,
            ..Default::default()
        };
        let b = RegistryCounters {
            admissions: 2,
            misses: 3,
            bytes_evicted: 40,
            ..Default::default()
        };
        assert_eq!(counters_delta(a, b).admissions, 3);
        assert_eq!(counters_delta(a, b).bytes_evicted, 60);
        assert_eq!(counters_sum(a, b).misses, 10);
        assert_eq!(counters_delta(counters_sum(a, b), b), a);
    }
}

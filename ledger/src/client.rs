//! One closed-loop client: issues requests, times each from outside,
//! tallies what the responses report per layer, records spans when the
//! run is traced, and keeps what the correctness checks need.

use crate::setup::hash_rows;
use crate::trace::{Name, ThreadTrace, NO_REQUEST};
use recache_core::{CacheOutcome, QueryRequest, QueryResponse, ReCache};
use recache_engine::exec::AccessKind;
use recache_server::{Client, QueryReply};
use std::collections::HashMap;
use std::time::Instant;

/// Sums of what responses report, per layer, over one client's requests.
#[derive(Debug, Default, Clone)]
pub struct LayerSums {
    pub requests: u64,
    /// Σ of the client's own spans around `execute` / `Client::query`.
    pub span_ns: u64,
    /// Requests that went over the wire (all of them, or none).
    pub served: u64,
    pub raw_scans: u64,
    pub raw_scan_ns: u64,
    pub raw_bytes: u64,
    pub lazy_rereads: u64,
    pub exec_ns: u64,
    pub cache_data_ns: u64,
    pub cache_compute_ns: u64,
    pub caching_ns: u64,
    pub lookup_ns: u64,
    /// Σ of the session's own end-to-end time (`total_ns`).
    pub session_ns: u64,
    pub threads_granted: u64,
    pub result_hits: u64,
    /// Served runs: client span − reply `total_ns`, one per result hit.
    pub wire_overhead_ns: Vec<u64>,
}

impl LayerSums {
    pub fn merge(&mut self, other: LayerSums) {
        self.requests += other.requests;
        self.span_ns += other.span_ns;
        self.served += other.served;
        self.raw_scans += other.raw_scans;
        self.raw_scan_ns += other.raw_scan_ns;
        self.raw_bytes += other.raw_bytes;
        self.lazy_rereads += other.lazy_rereads;
        self.exec_ns += other.exec_ns;
        self.cache_data_ns += other.cache_data_ns;
        self.cache_compute_ns += other.cache_compute_ns;
        self.caching_ns += other.caching_ns;
        self.lookup_ns += other.lookup_ns;
        self.session_ns += other.session_ns;
        self.threads_granted += other.threads_granted;
        self.result_hits += other.result_hits;
        self.wire_overhead_ns.extend(other.wire_overhead_ns);
    }
}

/// What the correctness checks collect while requests run.
#[derive(Debug, Default)]
pub struct Observed {
    /// `(request id, rows hash)` of the requests sampled for the
    /// reference check.
    pub sampled: Vec<(u64, u64)>,
    /// Rows hash of the first occurrence of every repeatable request.
    pub first_seen: HashMap<u64, u64>,
    /// Repeats that did not return the rows of their first occurrence.
    pub mismatches: u64,
}

impl Observed {
    /// Folds another client's observations in; a repeat key two clients
    /// saw with different rows is a mismatch like any other.
    pub fn merge(&mut self, other: Observed) {
        self.sampled.extend(other.sampled);
        self.mismatches += other.mismatches;
        for (key, hash) in other.first_seen {
            if *self.first_seen.entry(key).or_insert(hash) != hash {
                self.mismatches += 1;
            }
        }
    }
}

pub struct ClientRun<'a> {
    /// `sample[id]` marks the requests whose rows the reference check
    /// wants; ids past the end are never sampled.
    sample: &'a [bool],
    pub latencies_ns: Vec<u64>,
    /// When each request completed, in ns since the run's epoch.
    pub done_ns: Vec<u64>,
    pub sums: LayerSums,
    pub observed: Observed,
    pub errors: u64,
    pub first_error: Option<String>,
    /// Σ of this client's loop durations.
    pub loop_ns: u64,
    pub trace: Option<ThreadTrace>,
    epoch: Instant,
    loop_span: u32,
    loop_start: Option<Instant>,
}

impl<'a> ClientRun<'a> {
    /// All clients of a phase share `epoch`, so their completion times
    /// and spans share a clock.
    pub fn new(sample: &'a [bool], epoch: Instant, traced: bool) -> Self {
        ClientRun {
            sample,
            epoch,
            trace: traced.then(|| ThreadTrace::new(epoch)),
            latencies_ns: Vec::new(),
            done_ns: Vec::new(),
            sums: LayerSums::default(),
            observed: Observed::default(),
            errors: 0,
            first_error: None,
            loop_ns: 0,
            loop_span: 0,
            loop_start: None,
        }
    }

    /// Opens a `bench.client` span: everything until [`Self::end_loop`]
    /// that no request span covers is the harness's own time.
    pub fn begin_loop(&mut self) {
        let now = Instant::now();
        self.loop_start = Some(now);
        if let Some(trace) = &mut self.trace {
            let at = trace.ns_since_epoch(now);
            self.loop_span = trace.push(0, NO_REQUEST, Name::BenchClient, at, at);
        }
    }

    pub fn end_loop(&mut self) {
        let now = Instant::now();
        let start = self.loop_start.take().expect("end_loop after begin_loop");
        self.loop_ns += now.duration_since(start).as_nanos() as u64;
        if let Some(trace) = &mut self.trace {
            let at = trace.ns_since_epoch(now);
            trace.close(self.loop_span, at);
        }
    }

    fn fail(&mut self, error: impl std::fmt::Display) {
        self.errors += 1;
        self.first_error.get_or_insert_with(|| error.to_string());
    }

    fn note_rows(&mut self, id: u64, repeat_key: Option<u64>, rows_hash: u64) {
        if self.sample.get(id as usize).copied().unwrap_or(false) {
            self.observed.sampled.push((id, rows_hash));
        }
        if let Some(key) = repeat_key {
            if *self.observed.first_seen.entry(key).or_insert(rows_hash) != rows_hash {
                self.observed.mismatches += 1;
            }
        }
    }

    /// One in-process request through `ReCache::execute`.
    pub fn in_process(
        &mut self,
        session: &ReCache,
        id: u64,
        repeat_key: Option<u64>,
        request: &QueryRequest,
    ) {
        let t0 = Instant::now();
        let result = session.execute(request);
        let t1 = Instant::now();
        let span_ns = t1.duration_since(t0).as_nanos() as u64;
        self.latencies_ns.push(span_ns);
        self.done_ns
            .push(t1.duration_since(self.epoch).as_nanos() as u64);
        self.sums.requests += 1;
        self.sums.span_ns += span_ns;
        match result {
            Ok(response) => {
                self.tally_response(session, &response);
                if self.trace.is_some() {
                    self.trace_response(id, t0, t1, &response);
                }
                self.note_rows(
                    id,
                    repeat_key,
                    hash_rows(&response.rows, response.rows_aggregated as u64),
                );
            }
            Err(error) => self.fail(error),
        }
    }

    fn tally_response(&mut self, session: &ReCache, response: &QueryResponse) {
        let sums = &mut self.sums;
        let stats = &response.stats;
        for table in &stats.exec.tables {
            match table.access {
                AccessKind::RawFirstScan | AccessKind::RawMapped => {
                    sums.raw_scans += 1;
                    sums.raw_scan_ns += table.exec_ns;
                    sums.raw_bytes += session
                        .source(&table.name)
                        .map_or(0, |file| file.byte_len() as u64);
                }
                AccessKind::CacheOffsets => sums.lazy_rereads += 1,
                _ => {}
            }
            if let Some(cost) = &table.cache_scan {
                sums.cache_data_ns += cost.data_ns;
                sums.cache_compute_ns += cost.compute_ns;
            }
        }
        sums.exec_ns += stats.exec_ns;
        sums.caching_ns += stats.caching_ns;
        sums.lookup_ns += stats.lookup_ns;
        sums.session_ns += stats.total_ns;
        sums.threads_granted += response.telemetry.threads_granted as u64;
        if response.telemetry.outcome == CacheOutcome::ResultHit {
            sums.result_hits += 1;
        }
    }

    fn trace_response(&mut self, id: u64, t0: Instant, t1: Instant, response: &QueryResponse) {
        let trace = self.trace.as_mut().expect("traced run");
        let start = trace.ns_since_epoch(t0);
        let end = trace.ns_since_epoch(t1);
        let root = trace.push(self.loop_span, id, Name::CoreExecute, start, end);
        let stats = &response.stats;
        let children = trace.push_reported(
            root,
            &[
                (Name::CacheLookup, stats.lookup_ns),
                (Name::EngineExec, stats.exec_ns),
                (Name::CoreCaching, stats.caching_ns),
            ],
        );
        let exec = children[1];
        if exec == 0 {
            return;
        }
        let mut scans = Vec::new();
        for table in &stats.exec.tables {
            match (&table.cache_scan, table.access) {
                (Some(cost), _) => {
                    scans.push((Name::EngineCacheData, cost.data_ns));
                    scans.push((Name::EngineCacheCompute, cost.compute_ns));
                }
                (None, AccessKind::CacheOffsets) => {
                    scans.push((Name::DataLazyReread, table.exec_ns));
                }
                (None, _) => scans.push((Name::DataRawScan, table.exec_ns)),
            }
        }
        trace.push_reported(exec, &scans);
    }

    /// One request over the wire through `Client::query`.
    pub fn served(
        &mut self,
        client: &mut Client,
        id: u64,
        repeat_key: Option<u64>,
        request: &QueryRequest,
    ) {
        let t0 = Instant::now();
        let result = client.query(request);
        let t1 = Instant::now();
        let span_ns = t1.duration_since(t0).as_nanos() as u64;
        self.latencies_ns.push(span_ns);
        self.done_ns
            .push(t1.duration_since(self.epoch).as_nanos() as u64);
        self.sums.requests += 1;
        self.sums.span_ns += span_ns;
        match result {
            Ok(reply) => {
                self.tally_reply(&reply, span_ns);
                if self.trace.is_some() {
                    self.trace_reply(id, t0, t1, &reply);
                }
                self.note_rows(
                    id,
                    repeat_key,
                    hash_rows(&reply.rows, reply.rows_aggregated),
                );
            }
            Err(error) => self.fail(error),
        }
    }

    fn tally_reply(&mut self, reply: &QueryReply, span_ns: u64) {
        let sums = &mut self.sums;
        let t = &reply.telemetry;
        sums.served += 1;
        sums.exec_ns += t.exec_ns;
        sums.session_ns += t.total_ns;
        sums.threads_granted += t.threads_granted as u64;
        match t.outcome {
            CacheOutcome::ResultHit => {
                sums.result_hits += 1;
                sums.wire_overhead_ns
                    .push(span_ns.saturating_sub(t.total_ns));
            }
            // The reply carries no per-table statistics: a miss scanned
            // every table raw, and its `data_ns` is that scan time.
            CacheOutcome::Miss => {
                sums.raw_scans += 1;
                sums.raw_scan_ns += t.data_ns;
            }
            CacheOutcome::Hit | CacheOutcome::Coalesced => {
                sums.cache_data_ns += t.data_ns;
                sums.cache_compute_ns += t.compute_ns;
            }
        }
    }

    fn trace_reply(&mut self, id: u64, t0: Instant, t1: Instant, reply: &QueryReply) {
        let trace = self.trace.as_mut().expect("traced run");
        let start = trace.ns_since_epoch(t0);
        let end = trace.ns_since_epoch(t1);
        let root = trace.push(self.loop_span, id, Name::ServerRoundtrip, start, end);
        let t = &reply.telemetry;
        let session = trace.push_reported(root, &[(Name::CoreServed, t.total_ns)])[0];
        if session == 0 {
            return;
        }
        let exec = trace.push_reported(session, &[(Name::EngineExec, t.exec_ns)])[0];
        if exec == 0 {
            return;
        }
        if t.outcome == CacheOutcome::Miss {
            trace.push_reported(exec, &[(Name::DataRawScan, t.data_ns)]);
        } else {
            trace.push_reported(
                exec,
                &[
                    (Name::EngineCacheData, t.data_ns),
                    (Name::EngineCacheCompute, t.compute_ns),
                ],
            );
        }
    }
}

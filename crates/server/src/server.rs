//! The TCP front end: thread-per-connection serving with bounded
//! admission, deadline propagation, connection lifecycle hardening, and
//! graceful drain.
//!
//! Every connection gets an OS thread (connection counts here are small
//! — this is an analytics engine, not a web server) and a
//! [`StreamLease`] on the shared [`Scheduler`] cost board, so concurrent
//! connections split the machine's thread budget by in-flight scan cost
//! exactly like in-process streams do. Each query takes an
//! [`AdmissionGate`] permit first: the gate bounds running + queued
//! requests and sheds the excess with a typed
//! [`Error::Overloaded`](recache_types::Error) frame, so overload
//! degrades into fast retryable errors instead of unbounded buffering.
//!
//! The wire is treated as a failure domain of its own:
//!
//! * a **per-frame read deadline** kills a connection whose request
//!   frame stops making progress (a one-byte slowloris costs one
//!   deadline, not a wedged thread);
//! * a **write timeout** fails responses to peers that stopped reading;
//! * a **max-connections cap** sheds accepts beyond it with a typed
//!   transient `Overloaded` frame (distinct from query-gate sheds);
//! * **idle reaping** (when configured) closes connections that go
//!   quiet between frames;
//! * query execution runs under `catch_unwind`, so a panicking query
//!   becomes a typed [`Error::Internal`](recache_types::Error) frame
//!   and the connection keeps serving;
//! * every connection-death cause is classified into
//!   [`ConnectionCounters`], served in the stats frame — wedge vs crash
//!   is diagnosable from a stats probe.
//!
//! Shutdown (the `SHUTDOWN` frame, or [`ServerHandle::shutdown`]) flips
//! one flag: the accept loop stops accepting, every connection finishes
//! the request it is executing (responses are written before the flag is
//! re-checked), and [`Server::run`] joins all connection threads before
//! returning — in-flight queries drain, nothing is aborted mid-write.

use crate::config::ServerConfig;
use crate::histogram::Histogram;
use crate::netfault::{FaultyStream, WireFaultPlan};
use crate::protocol::{
    self, is_frame_deadline, read_frame_bounded, QueryReply, Request, Response, StatsReply,
};
use recache_core::{AdmissionGate, QueryBody, QueryRequest, ReCache, Scheduler, StreamLease};
use recache_engine::exec::{ExecOptions, Repricer};
use recache_engine::sql::parse_query;
use recache_types::{Error, Result};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How often blocked I/O loops re-check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// Connection lifecycle telemetry: how connections arrive, live, and —
/// crucially — *why* they die. Served in the stats frame as
/// `conn_*`-prefixed named counter pairs, so a wedged client, a crashed
/// peer, and a protocol violator are distinguishable from one probe.
#[derive(Debug, Default)]
pub struct ConnectionCounters {
    /// Connections the listener accepted (including ones shed at
    /// accept).
    pub accepted: AtomicU64,
    /// Connections currently being served (gauge).
    pub active: AtomicU64,
    /// Connections that ended with a clean EOF at a frame boundary.
    pub closed_clean: AtomicU64,
    /// Accepts shed because the connection cap was reached.
    pub shed_at_accept: AtomicU64,
    /// Connections closed by the idle timeout.
    pub idle_reaped: AtomicU64,
    /// Connections killed by a read failure (peer died mid-frame,
    /// socket error).
    pub read_errors: AtomicU64,
    /// Connections killed by a response write failure (peer stopped
    /// reading or vanished).
    pub write_errors: AtomicU64,
    /// Framing/decode violations (oversized frame, malformed length).
    pub decode_errors: AtomicU64,
    /// Connections killed because a request frame missed the per-frame
    /// read deadline (slowloris kills).
    pub frame_deadline_kills: AtomicU64,
    /// Queries that panicked during execution and were answered with a
    /// typed `Internal` error frame instead of a dead connection.
    pub query_panics: AtomicU64,
}

impl ConnectionCounters {
    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Named `(name, value)` pairs for the stats frame, following the
    /// protocol's named-counter evolution rule (receivers ignore names
    /// they don't know).
    pub fn snapshot_pairs(&self) -> Vec<(String, u64)> {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("conn_accepted".to_owned(), read(&self.accepted)),
            ("conn_active".to_owned(), read(&self.active)),
            ("conn_closed_clean".to_owned(), read(&self.closed_clean)),
            ("conn_shed_at_accept".to_owned(), read(&self.shed_at_accept)),
            ("conn_idle_reaped".to_owned(), read(&self.idle_reaped)),
            ("conn_read_errors".to_owned(), read(&self.read_errors)),
            ("conn_write_errors".to_owned(), read(&self.write_errors)),
            ("conn_decode_errors".to_owned(), read(&self.decode_errors)),
            (
                "conn_frame_deadline_kills".to_owned(),
                read(&self.frame_deadline_kills),
            ),
            ("conn_query_panics".to_owned(), read(&self.query_panics)),
        ]
    }
}

/// Holds the `active` gauge up for exactly the lifetime of one served
/// connection — created *before* the connection thread spawns (so the
/// accept-side cap check races at most one in-flight spawn) and dropped
/// when serving ends, however it ends (including unwind).
struct ActiveGuard {
    shared: Arc<Shared>,
}

impl ActiveGuard {
    fn new(shared: Arc<Shared>) -> Self {
        shared.counters.active.fetch_add(1, Ordering::AcqRel);
        ActiveGuard { shared }
    }
}

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.shared.counters.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    session: Arc<ReCache>,
    scheduler: Scheduler,
    gate: AdmissionGate,
    latency: Histogram,
    shutdown: AtomicBool,
    counters: ConnectionCounters,
    /// Response-path fault injection (tests and chaos drivers only);
    /// set once before the server runs.
    wire_faults: OnceLock<Arc<WireFaultPlan>>,
    /// Queries served down the result-cache fast path (the expected-hit
    /// probe skipped cost negotiation and ran single-threaded). These
    /// requests post no scan cost to the scheduler board, so without
    /// this counter they are invisible next to the shedding/admission
    /// stats. Served as the `result_fast_path` named pair.
    result_fast_path: AtomicU64,
    config: ServerConfig,
}

impl Shared {
    /// Executes one query request end to end: deadline armed (queue wait
    /// counts against it), permit taken, thread share negotiated,
    /// engine invoked.
    fn run_query(&self, lease: &Arc<StreamLease>, request: QueryRequest) -> Result<QueryReply> {
        let request = match (request.get_deadline(), self.config.default_deadline) {
            (None, Some(default)) => request.deadline(default),
            _ => request,
        };
        // Resolve options now so the deadline clock starts before the
        // admission wait — a request queued past its deadline times out
        // in line instead of executing late.
        let options = request.resolved_options();
        let spec = match request.body() {
            QueryBody::Sql(text) => parse_query(text)?,
            QueryBody::Spec(spec) => spec.clone(),
        };
        let permit = self.gate.admit(options.cancel.as_deref())?;
        // Panic-injection hook (chaos tests): unwinds from inside the
        // admitted section, so the firewall test also proves the permit
        // releases through its drop guard.
        if let (Some(trigger), Some(tag)) = (&self.config.panic_tag, request.get_tag()) {
            if tag == trigger {
                panic!("injected panic: request tag {tag:?} matches the configured panic tag");
            }
        }
        // An expected result-cache hit runs no scan: don't post a scan
        // cost to the board or take a negotiated thread share away from
        // connections doing real work. The probe can go stale before
        // execution (benign — the query then just runs with one thread).
        let (threads, reprice) = if self
            .session
            .result_cached(&spec, request.get_result_cache())
        {
            ConnectionCounters::bump(&self.result_fast_path);
            (1, None)
        } else if options.threads == 0 {
            // `threads == 0` means "let the server decide": negotiate a
            // cost-weighted share against the other live connections. An
            // explicit client budget is honored as-is, and only the
            // negotiated path re-observes the cost board mid-query
            // (batched scans reprice between chunk waves).
            let repricer = Arc::clone(lease);
            (
                lease.negotiate(self.session.estimate_scan_cost(&spec)),
                Some(Repricer::new(move || repricer.reprice())),
            )
        } else {
            (options.threads, None)
        };
        let mut exec = QueryRequest::spec(spec).options(ExecOptions {
            vectorized: options.vectorized,
            threads,
            cancel: options.cancel,
            reprice,
        });
        if let Some(tag) = request.get_tag() {
            exec = exec.tag(tag);
        }
        if let Some(enabled) = request.get_result_cache() {
            exec = exec.result_cache(enabled);
        }
        let result = self.session.execute(&exec);
        lease.clear();
        drop(permit);
        result.map(|response| QueryReply::from_response(&response))
    }

    /// Runs a query with a panic firewall: a panicking query (injected
    /// faults, engine bugs) is converted into a typed `Internal` error
    /// frame instead of unwinding the connection thread — the admission
    /// permit releases through its drop guard, the lease is re-cleared
    /// here, and the connection keeps serving.
    fn run_query_guarded(
        &self,
        lease: &Arc<StreamLease>,
        request: QueryRequest,
    ) -> Result<QueryReply> {
        match catch_unwind(AssertUnwindSafe(|| self.run_query(lease, request))) {
            Ok(outcome) => outcome,
            Err(panic) => {
                ConnectionCounters::bump(&self.counters.query_panics);
                lease.clear();
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                Err(Error::internal(format!("query execution panicked: {msg}")))
            }
        }
    }

    fn stats(&self) -> StatsReply {
        let c = self.session.cache().counters();
        let mut counters = vec![
            ("admissions".to_owned(), c.admissions),
            ("evictions".to_owned(), c.evictions),
            ("bytes_evicted".to_owned(), c.bytes_evicted),
            ("hits_exact".to_owned(), c.hits_exact),
            ("hits_subsuming".to_owned(), c.hits_subsuming),
            ("misses".to_owned(), c.misses),
            ("coalesced".to_owned(), c.coalesced),
            ("removals".to_owned(), c.removals),
            ("failed_scans".to_owned(), c.failed_scans),
            ("retried_chunks".to_owned(), c.retried_chunks),
            ("timeouts".to_owned(), c.timeouts),
            ("degraded_fallbacks".to_owned(), c.degraded_fallbacks),
            ("leader_failovers".to_owned(), c.leader_failovers),
            ("result_hits".to_owned(), c.result_hits),
            ("result_misses".to_owned(), c.result_misses),
            ("result_evictions".to_owned(), c.result_evictions),
            ("result_invalidations".to_owned(), c.result_invalidations),
            ("coalesced_subsumed".to_owned(), c.coalesced_subsumed),
            (
                "result_fast_path".to_owned(),
                self.result_fast_path.load(Ordering::Relaxed),
            ),
        ];
        counters.extend(self.counters.snapshot_pairs());
        StatsReply {
            queries_run: self.session.queries_run(),
            counters,
            admission: self.gate.stats(),
            latency_buckets: self.latency.snapshot(),
        }
    }

    /// Serves one connection until EOF, error, deadline kill, idle
    /// reap, or shutdown. Every exit path classifies the death cause
    /// into [`ConnectionCounters`].
    fn serve_connection(&self, stream: TcpStream, connection: u64, _active: ActiveGuard) {
        let _ = stream.set_nodelay(true);
        // A finite read timeout turns the blocking read loop into a
        // shutdown/idle poll between frames and the progress poll of
        // the frame deadline within one.
        let _ = stream.set_read_timeout(Some(POLL));
        let _ = stream.set_write_timeout(self.config.write_timeout);
        let mut reader = std::io::BufReader::new(match stream.try_clone() {
            Ok(clone) => clone,
            Err(_) => {
                ConnectionCounters::bump(&self.counters.read_errors);
                return;
            }
        });
        // Responses go out through the faulty-stream transport so chaos
        // runs can tear and stall server->client frames too; with no
        // plan installed this is a plain framed socket.
        let mut writer =
            FaultyStream::with_faults(stream, self.wire_faults.get().cloned(), connection);
        let lease = Arc::new(self.scheduler.register_stream());
        let mut last_frame = Instant::now();
        loop {
            let payload = match read_frame_bounded(&mut reader, self.config.frame_deadline) {
                Ok(Some(payload)) => {
                    last_frame = Instant::now();
                    payload
                }
                // Peer closed cleanly between frames.
                Ok(None) => {
                    ConnectionCounters::bump(&self.counters.closed_clean);
                    return;
                }
                Err(e) if is_frame_deadline(&e) => {
                    // A frame started and never finished: the slowloris
                    // path. Kill the connection; concurrent connections
                    // are untouched.
                    ConnectionCounters::bump(&self.counters.frame_deadline_kills);
                    return;
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(idle) = self.config.idle_timeout {
                        if last_frame.elapsed() >= idle {
                            ConnectionCounters::bump(&self.counters.idle_reaped);
                            return;
                        }
                    }
                    continue;
                }
                // An oversized/garbage length prefix is a protocol
                // violation, not a transport failure.
                Err(e) if e.kind() == ErrorKind::InvalidData => {
                    ConnectionCounters::bump(&self.counters.decode_errors);
                    return;
                }
                Err(_) => {
                    ConnectionCounters::bump(&self.counters.read_errors);
                    return;
                }
            };
            let response = match protocol::decode_request(&payload) {
                Err(err) => {
                    ConnectionCounters::bump(&self.counters.decode_errors);
                    Response::from_error(&err)
                }
                Ok(Request::Stats) => Response::Stats(self.stats()),
                Ok(Request::Shutdown) => {
                    self.shutdown.store(true, Ordering::Release);
                    let _ = writer.send_frame(&protocol::encode_response(&Response::Ok));
                    ConnectionCounters::bump(&self.counters.closed_clean);
                    return;
                }
                Ok(Request::Query(request)) => {
                    let started = Instant::now();
                    match self.run_query_guarded(&lease, request) {
                        Ok(reply) => {
                            self.latency.record(started.elapsed().as_nanos() as u64);
                            Response::Result(reply)
                        }
                        Err(err) => Response::from_error(&err),
                    }
                }
            };
            // The in-flight response is always written before shutdown
            // is honored: drain means every accepted request answers.
            if writer
                .send_frame(&protocol::encode_response(&response))
                .is_err()
            {
                ConnectionCounters::bump(&self.counters.write_errors);
                return;
            }
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
        }
    }

    /// Sheds one accepted connection at the cap: a typed transient
    /// `Overloaded` frame (distinct from query-gate sheds via its
    /// message and the `conn_shed_at_accept` counter), then close.
    fn shed_at_accept(&self, stream: TcpStream) {
        ConnectionCounters::bump(&self.counters.shed_at_accept);
        let _ = stream.set_write_timeout(self.config.write_timeout.or(Some(POLL)));
        let shed = Response::Error {
            code: Error::Overloaded.code(),
            transient: true,
            message: "server overloaded: connection limit reached".to_owned(),
        };
        let mut stream = stream;
        let _ = protocol::write_frame(&mut stream, &protocol::encode_response(&shed));
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    shared: Arc<Shared>,
    listener: TcpListener,
    local_addr: SocketAddr,
}

impl Server {
    /// Binds the listen socket and wires the serving state around an
    /// existing session (shared with in-process callers and tests).
    ///
    /// The config's result-cache settings are applied to the session
    /// here: serving sessions default the semantic result cache **on**
    /// (embedded sessions default it off), because served traffic
    /// repeats whole queries.
    pub fn bind(config: ServerConfig, session: Arc<ReCache>) -> Result<Server> {
        session
            .result_cache()
            .set_enabled(config.result_cache_enabled);
        if let Some(bytes) = config.result_cache_bytes {
            session.result_cache().set_capacity_bytes(bytes);
        }
        let listener = TcpListener::bind(&config.addr).map_err(Error::Io)?;
        let local_addr = listener.local_addr().map_err(Error::Io)?;
        listener.set_nonblocking(true).map_err(Error::Io)?;
        let shared = Arc::new(Shared {
            session,
            scheduler: Scheduler::new(config.total_threads),
            gate: AdmissionGate::new(config.max_running, config.max_queued),
            latency: Histogram::new(),
            shutdown: AtomicBool::new(false),
            counters: ConnectionCounters::default(),
            wire_faults: OnceLock::new(),
            result_fast_path: AtomicU64::new(0),
            config,
        });
        Ok(Server {
            shared,
            listener,
            local_addr,
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` configs).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The shared session (tests install fault plans through this).
    pub fn session(&self) -> Arc<ReCache> {
        Arc::clone(&self.shared.session)
    }

    /// Installs a wire-fault plan on the **response** path: every
    /// server-to-client frame consults it, so chaos tests exercise torn
    /// and stalled responses too. Set once, before the server runs.
    pub fn set_wire_faults(&self, plan: Arc<WireFaultPlan>) {
        let _ = self.shared.wire_faults.set(plan);
    }

    /// Runs the accept loop until shutdown, then joins every connection
    /// thread so in-flight queries drain before returning.
    pub fn run(self) -> Result<()> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut next_connection: u64 = 0;
        while !self.shared.shutdown.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    ConnectionCounters::bump(&self.shared.counters.accepted);
                    let shared = Arc::clone(&self.shared);
                    let active = self.shared.counters.active.load(Ordering::Acquire);
                    if active as usize >= self.shared.config.max_connections {
                        // Shed on a short-lived thread so a peer that
                        // never reads its shed frame can't stall the
                        // accept loop.
                        connections.push(std::thread::spawn(move || {
                            shared.shed_at_accept(stream);
                        }));
                    } else {
                        let connection = next_connection;
                        next_connection += 1;
                        // The active guard is taken on the accept side,
                        // before the thread runs, so the cap check above
                        // observes this connection immediately.
                        let guard = ActiveGuard::new(Arc::clone(&shared));
                        connections.push(std::thread::spawn(move || {
                            shared.serve_connection(stream, connection, guard);
                        }));
                    }
                    connections.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // Reap finished handles on the idle tick too: a
                    // quiet listener must not accumulate dead handles
                    // from connections that have long since closed.
                    connections.retain(|h| !h.is_finished());
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Io(e)),
            }
        }
        // Drain: every live connection finishes its in-flight request
        // (the per-connection loop re-checks the flag only after the
        // response is on the wire).
        for handle in connections {
            let _ = handle.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle for
    /// shutdown and joining (tests, and the load driver's smoke mode).
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            addr,
            shared,
            join: Some(join),
        }
    }
}

/// Handle to a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    join: Option<std::thread::JoinHandle<Result<()>>>,
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether shutdown has been requested (by a frame or this handle).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown and blocks until every in-flight query drained
    /// and the accept loop exited.
    pub fn shutdown(mut self) -> Result<()> {
        self.shared.shutdown.store(true, Ordering::Release);
        match self.join.take() {
            Some(join) => join
                .join()
                .map_err(|_| Error::exec("server thread panicked"))?,
            None => Ok(()),
        }
    }

    /// Blocks until the server stops on its own (a `SHUTDOWN` frame).
    pub fn wait(mut self) -> Result<()> {
        match self.join.take() {
            Some(join) => join
                .join()
                .map_err(|_| Error::exec("server thread panicked"))?,
            None => Ok(()),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

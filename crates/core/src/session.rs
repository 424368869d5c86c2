//! Concurrent query admission: the session scheduler and single-flight
//! scan coalescing.
//!
//! A [`ReCache`] session is `Send + Sync`, so K
//! independent query streams can run against one shared cache. This
//! module supplies the pieces that make that *useful* rather than
//! merely safe:
//!
//! * [`Scheduler`] — admits K streams concurrently and negotiates each
//!   one's slice of the machine: a query's
//!   [`ExecOptions::threads`](recache_engine::ExecOptions) budget is its
//!   share of `total_threads` **weighted by the stream's in-flight
//!   estimated scan cost** (bytes to be scanned, from
//!   [`ReCache::estimate_scan_cost`]) — re-negotiated per query as
//!   sessions come and go, so one stream alone fans out across the whole
//!   `workpool`, equal-cost streams split evenly, and one expensive raw
//!   scan is not starved behind K cheap cache hits.
//! * `Inflight` (crate-private) — single-flight coalescing of duplicate cacheable
//!   scans. When two sessions miss on the same `(source, signature)` at
//!   the same time, the second *waits* for the first's admission instead
//!   of redoing the raw scan and the cache-build (D + C) work, then
//!   reuses the admitted entry. Keys are acquired in sorted order within
//!   a query, so leader/follower waits cannot deadlock across
//!   multi-table queries. Only exact keys coalesce: a query whose
//!   predicate an in-flight scan would cover, but under a different
//!   signature, scans on its own.
//! * [`AdmissionGate`] — bounded admission with shed-on-overload for
//!   serving layers: at most `max_running` queries execute while at most
//!   `max_queued` wait their turn; anything beyond that is *shed* with a
//!   typed [`Error::Overloaded`] instead of buffered without bound. The
//!   TCP front end (`recache-server`) takes a permit per request, so a
//!   traffic spike degrades into fast typed errors, never into unbounded
//!   queues or OOM.

use crate::{QueryRequest, QueryResponse, QueryResult, ReCache};
use recache_engine::exec::{ExecOptions, Repricer};
use recache_engine::sql::QuerySpec;
use recache_types::{CancelToken, Error, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Renders a panic payload for error reporting (`&str` and `String`
/// payloads cover `panic!`/`assert!`; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Joins every stream handle, then reports the first panicking stream by
/// index with its payload message. Joining *all* handles first matters
/// twice over: the surviving streams run to completion (their cache
/// admissions land) even when another stream dies, and manually joining
/// each handle keeps `thread::scope` from re-raising a second panic over
/// the typed error.
fn join_streams<T>(handles: Vec<std::thread::ScopedJoinHandle<'_, Result<T>>>) -> Result<Vec<T>> {
    let joined: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
    joined
        .into_iter()
        .enumerate()
        .map(|(s, r)| {
            r.map_err(|payload| {
                Error::exec(format!(
                    "query stream {s} panicked: {}",
                    panic_message(payload.as_ref())
                ))
            })?
        })
        .collect()
}

/// Cost-weighted thread split: a stream posting `my_cost`'s slice of
/// `total_threads`, proportional to its share of the summed in-flight
/// cost estimates (slots holding 0 are idle streams). Rounded to nearest
/// and floored at one thread; the result may oversubscribe slightly on
/// rounding, which is harmless — the work pool has a fixed worker count
/// and `threads` only controls task splitting. With equal costs this
/// reduces to an even `total / active` split.
fn weighted_share(total_threads: usize, total_cost: u64, my_cost: u64) -> usize {
    if total_cost == 0 {
        // Nothing posted anywhere: this stream is effectively alone, so
        // it takes the whole budget.
        return total_threads.max(1);
    }
    if my_cost == 0 {
        // A stream with no posted cost (an expected result hit or an
        // unknown source estimates to 0) gets the one-thread floor, not
        // the whole budget: granting it everything would let a flood of
        // cheap queries starve every stream doing real scan work.
        return 1;
    }
    let (total_cost, my_cost) = (u128::from(total_cost), u128::from(my_cost));
    let share = (total_threads as u128 * my_cost + total_cost / 2) / total_cost;
    share.clamp(1, total_threads as u128) as usize
}

/// Key of one in-flight cacheable scan: `(source, signature)`.
pub(crate) type FlightKey = (String, String);

/// Terminal state of one in-flight admission, as seen by its followers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FlightOutcome {
    /// The leader admitted an entry worth re-looking-up.
    Admitted,
    /// The leader finished cleanly but admitted nothing (empty
    /// satisfying set, admission declined). Nothing will appear for
    /// this key from that query — followers run their own concurrent
    /// raw scans instead of queueing as successive serial leaders.
    NotAdmitted,
    /// The leader's query failed or panicked before the admission was
    /// decided. Exactly one follower should promote itself to the new
    /// leader and redo the scan; the rest queue behind the new flight.
    Failed,
}

const OUTCOME_PENDING: u8 = 0;
const OUTCOME_ADMITTED: u8 = 1;
const OUTCOME_NOT_ADMITTED: u8 = 2;
const OUTCOME_FAILED: u8 = 3;

/// How often a cancellable wait re-checks its token. Purely a bound on
/// cancellation latency — completion still wakes waiters immediately.
const WAIT_POLL: Duration = Duration::from_millis(5);

/// One in-flight admission another session can wait on.
pub(crate) struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
    /// One of the `OUTCOME_*` codes; `Pending` until completion.
    outcome: AtomicU8,
}

impl Flight {
    fn new() -> Self {
        Flight {
            done: Mutex::new(false),
            cv: Condvar::new(),
            outcome: AtomicU8::new(OUTCOME_PENDING),
        }
    }

    /// Blocks until the leader completes (admission done, abandoned, or
    /// failed) and returns the outcome. With a cancel token the wait
    /// polls, so a cancelled/timed-out follower stops waiting promptly
    /// instead of sleeping until the leader finishes.
    ///
    /// Lock poisoning is recovered, not propagated: the guarded value is
    /// a lone `bool` flipped in one store, so it cannot be torn, and a
    /// panicking completer poisons the mutex *after* publishing `done` —
    /// waiters observing the poison can still trust the flag.
    pub(crate) fn wait(&self, cancel: Option<&CancelToken>) -> Result<FlightOutcome> {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            match cancel {
                None => done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner()),
                Some(token) => {
                    token.check()?;
                    let (guard, _) = self
                        .cv
                        .wait_timeout(done, WAIT_POLL)
                        .unwrap_or_else(|e| e.into_inner());
                    done = guard;
                }
            }
        }
        Ok(match self.outcome.load(Ordering::Acquire) {
            OUTCOME_ADMITTED => FlightOutcome::Admitted,
            OUTCOME_NOT_ADMITTED => FlightOutcome::NotAdmitted,
            // `Pending` is unreachable once `done` is set; map it to
            // `Failed` defensively rather than panicking a follower.
            _ => FlightOutcome::Failed,
        })
    }
}

/// Outcome of [`Inflight::begin`].
pub(crate) enum Begin<'a> {
    /// This caller owns the scan; dropping the guard releases waiters.
    Leader(FlightGuard<'a>),
    /// Another session is already scanning this key; wait on the flight,
    /// then re-look-up.
    Wait(Arc<Flight>),
}

/// The table of in-flight cacheable scans: exact-key single-flight.
#[derive(Default)]
pub(crate) struct Inflight {
    map: Mutex<HashMap<FlightKey, Arc<Flight>>>,
}

impl Inflight {
    /// Claims leadership of `key`, or returns its existing flight to wait
    /// on.
    ///
    /// The map lock recovers from poisoning: every critical section on
    /// it is one `HashMap` lookup, insert or remove, each panic-safe on
    /// its own, so a panicking holder cannot leave the table
    /// mid-mutation.
    pub(crate) fn begin(&self, key: FlightKey) -> Begin<'_> {
        let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(flight) = map.get(&key) {
            return Begin::Wait(Arc::clone(flight));
        }
        let flight = Arc::new(Flight::new());
        map.insert(key.clone(), Arc::clone(&flight));
        Begin::Leader(FlightGuard {
            inflight: self,
            key,
            flight,
        })
    }

    fn complete(&self, key: &FlightKey, flight: &Flight, outcome: FlightOutcome) {
        // De-index only *this* flight. A guard completes up to twice
        // (eagerly at admission time and again on drop), and between the
        // two a new leader may have claimed the key with a fresh flight —
        // removing by key alone would silently orphan that flight, and
        // its waiters would sleep forever when its own completion later
        // finds the map empty and skipped publishing.
        {
            let mut map = self.map.lock().unwrap_or_else(|e| e.into_inner());
            if map
                .get(key)
                .is_some_and(|current| std::ptr::eq(current.as_ref(), flight))
            {
                map.remove(key);
            }
        }
        let code = match outcome {
            FlightOutcome::Admitted => OUTCOME_ADMITTED,
            FlightOutcome::NotAdmitted => OUTCOME_NOT_ADMITTED,
            FlightOutcome::Failed => OUTCOME_FAILED,
        };
        // Publish idempotently on the flight itself — first completion
        // wins (the drop's `Failed` loses to an earlier eager outcome),
        // and publication is decoupled from map residency so a flight
        // de-indexed by any path still wakes its waiters exactly once.
        if flight
            .outcome
            .compare_exchange(OUTCOME_PENDING, code, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            // Set `done` before notifying: waiters re-check it under the
            // mutex, and they load `outcome` only after observing it.
            *flight.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
            flight.cv.notify_all();
        }
    }
}

/// Leadership of one in-flight scan. Completion happens at the latest on
/// drop, so waiters are released even when the leading query errors out;
/// [`FlightGuard::complete_admitted`] releases them eagerly the moment
/// the table's entry is resident.
pub(crate) struct FlightGuard<'a> {
    inflight: &'a Inflight,
    key: FlightKey,
    flight: Arc<Flight>,
}

impl FlightGuard<'_> {
    /// Completes the flight now instead of at drop: with `Admitted`,
    /// waiters wake to reuse the entry the moment it is resident rather
    /// than sleeping through the rest of the leader's query; with
    /// `NotAdmitted`, they wake to run their own concurrent raw scans.
    pub(crate) fn complete_now(&self, outcome: FlightOutcome) {
        self.inflight.complete(&self.key, &self.flight, outcome);
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        // Reaching drop without an explicit completion means the leading
        // query errored out or panicked mid-scan (unwinding runs this
        // too): publish `Failed` so one waiter promotes itself to the
        // new leader. When `complete_now` already ran, this is a no-op.
        self.inflight
            .complete(&self.key, &self.flight, FlightOutcome::Failed);
    }
}

/// Default cancellation poll while waiting in the admission queue.
const ADMIT_POLL: Duration = Duration::from_millis(5);

/// Live view of an [`AdmissionGate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Requests granted a permit so far.
    pub admitted: u64,
    /// Requests shed with [`Error::Overloaded`].
    pub shed: u64,
    /// Permits currently held.
    pub running: usize,
    /// Requests currently waiting in the bounded queue.
    pub queued: usize,
}

/// Bounded query admission with shed-on-overload.
///
/// At most `max_running` permits are out at once; while all are taken,
/// at most `max_queued` callers wait their turn (FIFO-ish via condvar
/// wakeups); any caller beyond that is shed *immediately* with
/// [`Error::Overloaded`] — the queue never grows without bound, so a
/// traffic spike costs each shed request one mutex acquisition, not a
/// buffer. Waiters poll their cancel token, so a queued request honors
/// its deadline instead of timing out while still in line.
pub struct AdmissionGate {
    max_running: usize,
    max_queued: usize,
    /// `(running, queued)` — both bounded small; one mutex is plenty.
    state: Mutex<(usize, usize)>,
    cv: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl AdmissionGate {
    /// A gate running at most `max_running` queries (floored at 1) with
    /// at most `max_queued` waiting.
    pub fn new(max_running: usize, max_queued: usize) -> Self {
        AdmissionGate {
            max_running: max_running.max(1),
            max_queued,
            state: Mutex::new((0, 0)),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Takes an execution permit, waiting in the bounded queue if the
    /// gate is full and shedding with [`Error::Overloaded`] if the queue
    /// is too. A cancelled/expired `cancel` token surfaces while queued.
    ///
    /// Lock poisoning is recovered: the guarded state is a pair of
    /// counters adjusted one at a time, so a panicking holder cannot
    /// leave them torn (a permit dropped during unwind still decrements
    /// through its own guard).
    pub fn admit(&self, cancel: Option<&CancelToken>) -> Result<AdmissionPermit<'_>> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.0 >= self.max_running {
            if state.1 >= self.max_queued {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return Err(Error::Overloaded);
            }
            state.1 += 1;
            while state.0 >= self.max_running {
                if let Some(token) = cancel {
                    if let Err(err) = token.check() {
                        state.1 -= 1;
                        // The slot this waiter vacated may unblock an
                        // admit that raced to a full queue after us —
                        // nobody waits on *queue* room today, but the
                        // wakeup is cheap and keeps the invariant local.
                        drop(state);
                        self.cv.notify_all();
                        return Err(err);
                    }
                    let (guard, _) = self
                        .cv
                        .wait_timeout(state, ADMIT_POLL)
                        .unwrap_or_else(|e| e.into_inner());
                    state = guard;
                } else {
                    state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
                }
            }
            state.1 -= 1;
        }
        state.0 += 1;
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(AdmissionPermit { gate: self })
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            running: state.0,
            queued: state.1,
        }
    }

    fn release(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.0 = state.0.saturating_sub(1);
        drop(state);
        self.cv.notify_all();
    }
}

/// One granted execution slot; returning it on drop wakes a queued
/// waiter — including during a panic unwind, so a dying query never
/// leaks its slot.
pub struct AdmissionPermit<'a> {
    gate: &'a AdmissionGate,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// The scheduler's shared heart — refcounted so a [`StreamLease`] is an
/// owned, `'static` handle: mid-query repricing closures
/// ([`Repricer`]) capture `Arc<StreamLease>` and travel into the
/// executor without borrowing the scheduler.
struct SchedulerCore {
    total_threads: usize,
    active: AtomicUsize,
    /// Cost board: one slot per registered stream, `None` when free.
    /// Slots are reused so the board stays as small as the peak stream
    /// count, not the total ever registered.
    board: Mutex<Vec<Option<Arc<AtomicU64>>>>,
}

impl SchedulerCore {
    /// Sum of every registered stream's posted cost.
    fn posted_cost_total(&self) -> u64 {
        let board = self.board.lock().unwrap_or_else(|e| e.into_inner());
        board
            .iter()
            .flatten()
            .map(|c| c.load(Ordering::Acquire))
            .sum()
    }
}

/// One registered query stream's seat at the [`Scheduler`]: a slot on
/// the shared cost board. Dropping the lease (including during unwind)
/// frees the slot and zeroes its posted cost, so a dead stream stops
/// skewing the survivors' thread shares. Obtained from
/// [`Scheduler::register_stream`]; the TCP server holds one per live
/// connection. The lease is owned (it keeps the scheduler core alive),
/// so it can be wrapped in an `Arc` and re-observed mid-query by a
/// batched scan's [`Repricer`].
pub struct StreamLease {
    core: Arc<SchedulerCore>,
    slot: usize,
    cost: Arc<AtomicU64>,
}

impl StreamLease {
    /// Posts this stream's in-flight cost estimate (floored at 1 so an
    /// active stream never reads as idle) and returns its cost-weighted
    /// slice of the thread budget. The posted cost stays on the board
    /// until the next `negotiate`, [`clear`](Self::clear), or drop.
    pub fn negotiate(&self, cost: u64) -> usize {
        self.cost.store(cost.max(1), Ordering::Release);
        let total = self.core.posted_cost_total();
        weighted_share(
            self.core.total_threads,
            total,
            self.cost.load(Ordering::Acquire),
        )
    }

    /// Re-reads this stream's share without re-posting: the cost already
    /// on the board is re-weighed against whatever the other streams
    /// post *now*. Batched scans call this between chunk waves so threads
    /// freed by departed streams rebalance instead of idling.
    pub fn reprice(&self) -> usize {
        weighted_share(
            self.core.total_threads,
            self.core.posted_cost_total(),
            self.cost.load(Ordering::Acquire),
        )
    }

    /// Marks the stream idle between queries (cost 0 drops out of every
    /// other stream's split).
    pub fn clear(&self) {
        self.cost.store(0, Ordering::Release);
    }
}

impl Drop for StreamLease {
    fn drop(&mut self) {
        let mut board = self.core.board.lock().unwrap_or_else(|e| e.into_inner());
        board[self.slot] = None;
        drop(board);
        self.core.active.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Admits K independent query streams against one shared [`ReCache`]
/// session, giving each stream a fair slice of the shared pool's
/// parallelism. Streams register dynamically
/// ([`Scheduler::register_stream`]) — batch replays
/// ([`Scheduler::run_streams`]) and long-lived server connections
/// share the same cost board.
pub struct Scheduler {
    core: Arc<SchedulerCore>,
}

impl Scheduler {
    /// A scheduler dividing `total_threads` across active sessions
    /// (`0` = the machine's full parallelism).
    pub fn new(total_threads: usize) -> Self {
        let total_threads = if total_threads == 0 {
            workpool::available_parallelism()
        } else {
            total_threads
        };
        Scheduler {
            core: Arc::new(SchedulerCore {
                total_threads,
                active: AtomicUsize::new(0),
                board: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The pool-wide thread budget this scheduler divides.
    pub fn total_threads(&self) -> usize {
        self.core.total_threads
    }

    /// Streams currently registered (inside [`Scheduler::run_streams`]
    /// or holding a [`StreamLease`]).
    pub fn active_sessions(&self) -> usize {
        self.core.active.load(Ordering::Acquire)
    }

    /// Registers a query stream and returns its lease on the cost
    /// board. The stream starts idle (cost 0) until it negotiates.
    pub fn register_stream(&self) -> StreamLease {
        let cost = Arc::new(AtomicU64::new(0));
        let mut board = self.core.board.lock().unwrap_or_else(|e| e.into_inner());
        let slot = match board.iter().position(Option::is_none) {
            Some(free) => {
                board[free] = Some(Arc::clone(&cost));
                free
            }
            None => {
                board.push(Some(Arc::clone(&cost)));
                board.len() - 1
            }
        };
        drop(board);
        self.core.active.fetch_add(1, Ordering::AcqRel);
        StreamLease {
            core: Arc::clone(&self.core),
            slot,
            cost,
        }
    }

    /// Runs every stream to completion concurrently (one OS thread per
    /// stream; scans inside each query fan out on the shared `workpool`
    /// under the negotiated budget). Before each query, a stream posts
    /// its estimated scan cost (bytes to be scanned under the current
    /// cache state) to the shared board and takes a cost-weighted slice
    /// of the thread budget; idle streams hold cost 0 and drop out of
    /// the split. Returns per-stream results in stream order.
    pub fn run_streams(
        &self,
        session: &ReCache,
        streams: &[Vec<QuerySpec>],
    ) -> Result<Vec<Vec<QueryResult>>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .map(|stream| {
                    scope.spawn(move || {
                        let lease = Arc::new(self.register_stream());
                        let out: Result<Vec<QueryResult>> = stream
                            .iter()
                            .map(|spec| {
                                // `max(1)` inside negotiate: a zero
                                // estimate still counts as in-flight.
                                let estimate = session.estimate_scan_cost(spec);
                                let threads = lease.negotiate(estimate);
                                let mut options = ExecOptions::with_threads(threads);
                                // Batched scans re-observe the lease's
                                // share between chunk waves, so threads
                                // freed by finished streams rebalance
                                // mid-query.
                                let repricer = Arc::clone(&lease);
                                options.reprice = Some(Repricer::new(move || repricer.reprice()));
                                session
                                    .execute(&QueryRequest::spec(spec.clone()).options(options))
                                    .map(QueryResponse::into_result)
                            })
                            .collect();
                        out
                    })
                })
                .collect();
            join_streams(handles)
        })
    }

    /// Deterministic replay: streams still run on their own threads (so
    /// the `Send + Sync` paths are exercised), but queries execute one at
    /// a time in the global order given by `turns` — `turns[k]` names the
    /// stream that runs its next query at step `k`. With a fixed turn
    /// sequence the admission order, and therefore the admitted-entry
    /// set, is reproducible run over run (the seeded-interleaving
    /// determinism checks rely on this).
    pub fn run_streams_interleaved(
        &self,
        session: &ReCache,
        streams: &[Vec<QuerySpec>],
        turns: &[usize],
    ) -> Result<Vec<Vec<QueryResult>>> {
        let total: usize = streams.iter().map(Vec::len).sum();
        if turns.len() != total {
            return Err(Error::exec(format!(
                "turn order has {} steps for {} queries",
                turns.len(),
                total
            )));
        }
        for (s, stream) in streams.iter().enumerate() {
            let assigned = turns.iter().filter(|&&t| t == s).count();
            if assigned != stream.len() {
                return Err(Error::exec(format!(
                    "turn order gives stream {s} {assigned} turns for {} queries",
                    stream.len()
                )));
            }
        }
        let step = Mutex::new(0usize);
        let cv = Condvar::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = streams
                .iter()
                .enumerate()
                .map(|(s, stream)| {
                    let step = &step;
                    let cv = &cv;
                    scope.spawn(move || {
                        // Registered but never negotiating: interleaved
                        // replay is serialized, so each live query takes
                        // the whole budget below.
                        let _lease = self.register_stream();
                        let mut out = Vec::with_capacity(stream.len());
                        let mut failure = None;
                        // A stream consumes ALL its turns even after one
                        // of its queries fails: other streams' waits on
                        // later steps must still be released, or the whole
                        // replay would deadlock on the first error.
                        for spec in stream {
                            // Poison recovery: the turn counter is a bare
                            // usize bumped in one store, so a panicking
                            // holder leaves it either bumped or not —
                            // never torn — and the surviving streams must
                            // keep draining turns rather than wedge.
                            let mut current = step.lock().unwrap_or_else(|e| e.into_inner());
                            while turns[*current] != s {
                                current = cv.wait(current).unwrap_or_else(|e| e.into_inner());
                            }
                            if failure.is_none() {
                                // Run while holding the turn lock: queries
                                // are fully serialized in `turns` order —
                                // exactly one query is live, so it gets
                                // the scheduler's whole budget rather
                                // than a 1/K share of it.
                                let request = QueryRequest::spec(spec.clone())
                                    .options(ExecOptions::with_threads(self.total_threads()));
                                match session.execute(&request) {
                                    Ok(response) => out.push(response.into_result()),
                                    Err(e) => failure = Some(e),
                                }
                            }
                            *current += 1;
                            cv.notify_all();
                            drop(current);
                        }
                        match failure {
                            Some(e) => Err(e),
                            None => Ok(out),
                        }
                    })
                })
                .collect();
            join_streams(handles)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// Followers per flight: `RECACHE_SESSIONS - 1` when that is set (the
    /// CI concurrency matrix), else 1.
    fn followers() -> usize {
        std::env::var("RECACHE_SESSIONS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 2)
            .map_or(1, |n| n - 1)
    }

    #[test]
    fn single_flight_follower_waits_for_leader() {
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        let Begin::Leader(guard) = inflight.begin(key.clone()) else {
            panic!("first begin must lead");
        };
        let released = AtomicBool::new(false);
        let followers = followers();
        let barrier = Barrier::new(followers + 1);
        std::thread::scope(|scope| {
            for _ in 0..followers {
                scope.spawn(|| {
                    let Begin::Wait(flight) = inflight.begin(key.clone()) else {
                        panic!("a later begin must wait");
                    };
                    barrier.wait();
                    let outcome = flight.wait(None).unwrap();
                    assert!(
                        released.load(Ordering::Acquire),
                        "wait returned before the leader completed"
                    );
                    assert_eq!(
                        outcome,
                        FlightOutcome::Admitted,
                        "leader completed with an admission"
                    );
                });
            }
            barrier.wait();
            // Deterministic ordering: every follower is provably inside
            // wait() (it passed the barrier holding the flight) before
            // the leader completes.
            std::thread::sleep(std::time::Duration::from_millis(10));
            released.store(true, Ordering::Release);
            guard.complete_now(FlightOutcome::Admitted);
            drop(guard);
        });
        // Key is free again: next begin leads.
        assert!(matches!(inflight.begin(key), Begin::Leader(_)));
    }

    #[test]
    fn abandoned_flight_reports_failure() {
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        let Begin::Leader(guard) = inflight.begin(key.clone()) else {
            panic!("first begin must lead");
        };
        let Begin::Wait(flight) = inflight.begin(key.clone()) else {
            panic!("second begin must wait");
        };
        drop(guard); // leader died without deciding the admission
        assert_eq!(
            flight.wait(None).unwrap(),
            FlightOutcome::Failed,
            "waiters must learn the leader died so one can promote"
        );
        assert!(matches!(inflight.begin(key), Begin::Leader(_)));
    }

    #[test]
    fn leader_without_admission_reports_not_admitted() {
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        let Begin::Leader(guard) = inflight.begin(key.clone()) else {
            panic!("first begin must lead");
        };
        let Begin::Wait(flight) = inflight.begin(key.clone()) else {
            panic!("second begin must wait");
        };
        guard.complete_now(FlightOutcome::NotAdmitted);
        // The eager completion's outcome wins over the drop's `Failed`.
        drop(guard);
        assert_eq!(flight.wait(None).unwrap(), FlightOutcome::NotAdmitted);
    }

    #[test]
    fn stale_guard_drop_does_not_orphan_a_successor_flight() {
        // Regression: a guard completes eagerly, a *new* leader claims
        // the same key, and only then does the old guard drop. The
        // drop's late completion must neither de-index the successor
        // flight (its own completion would then find the map empty and
        // skip publishing, hanging every follower forever) nor disturb
        // the already-published outcome.
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        let Begin::Leader(first) = inflight.begin(key.clone()) else {
            panic!("first begin must lead");
        };
        first.complete_now(FlightOutcome::Admitted);
        let Begin::Leader(second) = inflight.begin(key.clone()) else {
            panic!("completed key must be claimable again");
        };
        let Begin::Wait(flight) = inflight.begin(key.clone()) else {
            panic!("third begin must wait on the second leader");
        };
        drop(first); // stale drop while the successor is in flight
        second.complete_now(FlightOutcome::Admitted);
        drop(second);
        assert_eq!(flight.wait(None).unwrap(), FlightOutcome::Admitted);
        assert!(matches!(inflight.begin(key), Begin::Leader(_)));
    }

    #[test]
    fn panicking_leader_wakes_followers_with_failed_outcome() {
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        let Begin::Leader(guard) = inflight.begin(key.clone()) else {
            panic!("first begin must lead");
        };
        let followers = followers();
        let flights: Vec<_> = (0..followers)
            .map(|_| match inflight.begin(key.clone()) {
                Begin::Wait(flight) => flight,
                Begin::Leader(_) => panic!("a later begin must wait"),
            })
            .collect();
        // The leader panics mid-scan; unwinding drops the guard, which
        // must publish `Failed` rather than leave the followers hanging.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = guard;
            panic!("injected mid-scan panic");
        }));
        assert!(result.is_err());
        // Every follower learns of the failure, then races to re-lead:
        // exactly one wins, the rest wait on the new flight.
        let leaders = AtomicUsize::new(0);
        let barrier = Barrier::new(followers);
        std::thread::scope(|scope| {
            for flight in &flights {
                scope.spawn(|| {
                    assert_eq!(flight.wait(None).unwrap(), FlightOutcome::Failed);
                    let begin = inflight.begin(key.clone());
                    if matches!(begin, Begin::Leader(_)) {
                        leaders.fetch_add(1, Ordering::Relaxed);
                    }
                    // Hold the new leadership until every follower has
                    // raced for it.
                    barrier.wait();
                    drop(begin);
                });
            }
        });
        assert_eq!(leaders.load(Ordering::Relaxed), 1);
        // The key is free again: a follower can claim leadership.
        assert!(matches!(inflight.begin(key), Begin::Leader(_)));
    }

    #[test]
    fn cancelled_or_expired_follower_stops_waiting() {
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        let Begin::Leader(_guard) = inflight.begin(key.clone()) else {
            panic!("first begin must lead");
        };
        let Begin::Wait(flight) = inflight.begin(key.clone()) else {
            panic!("second begin must wait");
        };
        let token = CancelToken::new();
        token.cancel();
        assert!(matches!(flight.wait(Some(&token)), Err(Error::Cancelled)));
        let expired = CancelToken::with_timeout(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        assert!(matches!(flight.wait(Some(&expired)), Err(Error::Timeout)));
    }

    #[test]
    fn leader_guard_releases_on_drop_even_without_completion_value() {
        let inflight = Inflight::default();
        let key = ("t".to_owned(), "sig".to_owned());
        {
            let _guard = match inflight.begin(key.clone()) {
                Begin::Leader(g) => g,
                _ => panic!("must lead"),
            };
        } // dropped without any explicit complete
        assert!(matches!(inflight.begin(key), Begin::Leader(_)));
    }

    #[test]
    fn same_source_keys_are_independent_flights() {
        // Two signatures over one source each lead their own flight, even
        // when one predicate would cover the other: only exact keys wait.
        let inflight = Inflight::default();
        let wide = ("t".to_owned(), "wide".to_owned());
        let narrow = ("t".to_owned(), "narrow".to_owned());
        let Begin::Leader(wide_guard) = inflight.begin(wide.clone()) else {
            panic!("first key must lead");
        };
        let Begin::Leader(narrow_guard) = inflight.begin(narrow.clone()) else {
            panic!("a second signature over the same source must lead too");
        };
        let Begin::Wait(narrow_flight) = inflight.begin(narrow.clone()) else {
            panic!("a duplicate of the second key must wait");
        };
        wide_guard.complete_now(FlightOutcome::Admitted);
        drop(wide_guard);
        // The narrow waiter is still pending: a cancelled token surfaces
        // only while the flight has not completed.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(matches!(
            narrow_flight.wait(Some(&cancelled)),
            Err(Error::Cancelled)
        ));
        // The wide key is free again, the narrow one still in flight.
        assert!(matches!(inflight.begin(wide), Begin::Leader(_)));
        assert!(matches!(inflight.begin(narrow.clone()), Begin::Wait(_)));
        narrow_guard.complete_now(FlightOutcome::NotAdmitted);
        assert_eq!(
            narrow_flight.wait(None).unwrap(),
            FlightOutcome::NotAdmitted
        );
        drop(narrow_guard);
        assert!(matches!(inflight.begin(narrow), Begin::Leader(_)));
    }

    #[test]
    fn weighted_share_reduces_to_equal_split_on_equal_costs() {
        let scheduler = Scheduler::new(8);
        assert_eq!(scheduler.total_threads(), 8);
        // Lone stream gets everything.
        assert_eq!(weighted_share(8, 100, 100), 8);
        // Four equal streams: a quarter each.
        assert_eq!(weighted_share(8, 200, 50), 2);
        // More streams than threads: floor at one.
        assert_eq!(weighted_share(8, 160, 10), 1);
    }

    #[test]
    fn weighted_share_favours_expensive_streams() {
        // One raw-scan-heavy stream vs three cheap cache-hit streams:
        // the expensive one takes most of the budget.
        let total = 7_000u64 + 500 + 500 + 500;
        assert_eq!(weighted_share(8, total, 7_000), 7);
        assert_eq!(weighted_share(8, total, 500), 1);
        // Idle slots (cost 0) drop out of the split entirely: the board
        // only sums posted costs.
        assert_eq!(weighted_share(8, 6_000, 3_000), 4);
        // A zero own-cost (expected result hit / unknown source) is
        // clamped to the one-thread floor — handing it the whole budget
        // would let floods of cheap queries starve posted scans.
        assert_eq!(weighted_share(8, 6_000, 0), 1);
    }

    #[test]
    fn stream_leases_reuse_board_slots_and_free_on_drop() {
        let scheduler = Scheduler::new(8);
        let a = scheduler.register_stream();
        let b = scheduler.register_stream();
        assert_eq!(scheduler.active_sessions(), 2);
        // Until `b` posts a cost it reads as idle: `a` takes everything.
        assert_eq!(a.negotiate(1_000), 8);
        // Equal posted costs split the budget evenly.
        assert_eq!(b.negotiate(1_000), 4);
        assert_eq!(a.negotiate(1_000), 4);
        // Clearing marks a stream idle: the survivor takes everything.
        b.clear();
        assert_eq!(a.negotiate(1_000), 8);
        drop(a);
        assert_eq!(scheduler.active_sessions(), 1);
        // The freed slot is reused, not appended.
        let c = scheduler.register_stream();
        assert_eq!(scheduler.active_sessions(), 2);
        assert_eq!(c.negotiate(3_000), 8);
        drop(b);
        drop(c);
        assert_eq!(scheduler.active_sessions(), 0);
    }

    #[test]
    fn admission_gate_sheds_beyond_bounded_queue() {
        let gate = AdmissionGate::new(1, 1);
        let running = gate.admit(None).unwrap();
        // The queue holds one waiter; a second concurrent caller beyond
        // it must shed immediately with a typed, transient error.
        std::thread::scope(|scope| {
            let queued = scope.spawn(|| gate.admit(None).map(drop));
            // Wait until the waiter is provably queued.
            while gate.stats().queued == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            let shed = gate.admit(None);
            assert!(matches!(shed, Err(Error::Overloaded)));
            assert!(shed.unwrap_err().is_transient());
            // Releasing the running permit admits the queued waiter.
            drop(running);
            queued.join().unwrap().unwrap();
        });
        let stats = gate.stats();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.running, 0);
        assert_eq!(stats.queued, 0);
    }

    #[test]
    fn queued_admit_honors_deadline_and_cancel() {
        let gate = AdmissionGate::new(1, 4);
        let _running = gate.admit(None).unwrap();
        let expired = CancelToken::with_timeout(Duration::from_millis(10));
        let started = std::time::Instant::now();
        assert!(matches!(gate.admit(Some(&expired)), Err(Error::Timeout)));
        assert!(started.elapsed() < Duration::from_secs(2));
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(matches!(
            gate.admit(Some(&cancelled)),
            Err(Error::Cancelled)
        ));
        // Failed waits left no queue residue.
        assert_eq!(gate.stats().queued, 0);
        assert_eq!(gate.stats().running, 1);
    }

    #[test]
    fn zero_queue_gate_sheds_instead_of_waiting() {
        let gate = AdmissionGate::new(2, 0);
        let _a = gate.admit(None).unwrap();
        let _b = gate.admit(None).unwrap();
        assert!(matches!(gate.admit(None), Err(Error::Overloaded)));
    }

    #[test]
    fn scan_cost_estimates_shrink_on_cache_hits() {
        use recache_data::gen::tpch;
        use recache_engine::sql::parse_query;
        let mut session = crate::ReCache::builder().build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0003, 9);
        let schema = tpch::lineitem_schema();
        let bytes = recache_data::csv::write_csv(&schema, &lineitems);
        let raw_bytes = bytes.len() as u64;
        session.register_csv_bytes("lineitem", bytes, schema);
        let spec = parse_query("SELECT count(*) FROM lineitem WHERE l_quantity >= 30").unwrap();
        // Miss: the estimate prices the whole raw file.
        assert_eq!(session.estimate_scan_cost(&spec), raw_bytes);
        session.execute(&QueryRequest::spec(spec.clone())).unwrap();
        // Hit: the estimate prices the (smaller) cached store.
        let cached = session.estimate_scan_cost(&spec);
        assert!(cached > 0);
        assert!(
            cached < raw_bytes,
            "cached estimate {cached} must undercut the raw file {raw_bytes}"
        );
        // Unknown tables estimate to zero instead of erroring.
        let bad = parse_query("SELECT count(*) FROM nope").unwrap();
        assert_eq!(session.estimate_scan_cost(&bad), 0);
    }

    #[test]
    fn cost_weighted_streams_still_run_to_completion() {
        use recache_data::gen::tpch;
        use recache_engine::sql::parse_query;
        let mut session = crate::ReCache::builder().build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0002, 3);
        let schema = tpch::lineitem_schema();
        session.register_csv_bytes(
            "lineitem",
            recache_data::csv::write_csv(&schema, &lineitems),
            schema,
        );
        let q = |s: &str| parse_query(s).unwrap();
        let streams = vec![
            vec![
                q("SELECT sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 10"),
                q("SELECT sum(l_extendedprice) FROM lineitem WHERE l_quantity >= 10"),
            ],
            vec![q("SELECT count(*) FROM lineitem WHERE l_quantity <= 20")],
        ];
        let scheduler = Scheduler::new(4);
        let results = Scheduler::run_streams(&scheduler, &session, &streams).unwrap();
        assert_eq!(results[0].len(), 2);
        assert_eq!(results[1].len(), 1);
        // Identical queries agree regardless of the negotiated split.
        assert_eq!(results[0][0].rows, results[0][1].rows);
        assert_eq!(scheduler.active_sessions(), 0);
    }

    #[test]
    fn panicking_stream_is_identified_and_others_complete() {
        use recache_data::gen::tpch;
        use recache_data::FaultPlan;
        use recache_engine::sql::parse_query;
        let mut session = crate::ReCache::builder().build();
        let (_, lineitems) = tpch::gen_orders_and_lineitems(0.0002, 13);
        let schema = tpch::lineitem_schema();
        let bytes = recache_data::csv::write_csv(&schema, &lineitems);
        session.register_csv_bytes("lineitem", bytes.clone(), schema.clone());
        session.register_csv_bytes("faulty", bytes, schema);
        // Every scan of `faulty` panics; `lineitem` is clean.
        session.set_fault_plan("faulty", Some(FaultPlan::new(5).panics(1.0)));
        let streams = vec![
            vec![parse_query("SELECT count(*) FROM faulty WHERE l_quantity >= 10").unwrap()],
            vec![parse_query("SELECT count(*) FROM lineitem WHERE l_quantity >= 10").unwrap()],
        ];
        let scheduler = Scheduler::new(2);
        let err = scheduler.run_streams(&session, &streams).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("stream 0"), "must name the dead stream: {msg}");
        assert!(
            msg.contains("injected panic"),
            "must carry the payload: {msg}"
        );
        // The surviving stream ran to completion: its admission landed.
        assert!(!session.cache().is_empty(), "clean stream's entry missing");
        assert_eq!(scheduler.active_sessions(), 0);
    }

    #[test]
    fn interleaved_replay_surfaces_errors_without_deadlocking() {
        use recache_engine::plan::AggFunc;
        // Stream 0's first query references an unknown table and errors;
        // stream 1 still has turns scheduled *after* stream 0's remaining
        // turn. The failed stream must keep consuming its turns or the
        // replay deadlocks instead of returning the error.
        let scheduler = Scheduler::new(1);
        let session = crate::ReCache::builder().build();
        let bad = QuerySpec {
            aggregates: vec![(AggFunc::Count, None)],
            tables: vec!["missing".into()],
            predicates: vec![],
            joins: vec![],
        };
        let streams = vec![vec![bad.clone(), bad.clone()], vec![bad.clone()]];
        let turns = vec![0, 1, 0];
        let result = scheduler.run_streams_interleaved(&session, &streams, &turns);
        assert!(result.is_err(), "the query error must surface");
    }

    #[test]
    fn interleaved_turn_order_is_validated() {
        let scheduler = Scheduler::new(2);
        let session = crate::ReCache::builder().build();
        let streams: Vec<Vec<QuerySpec>> = vec![vec![], vec![]];
        assert!(scheduler
            .run_streams_interleaved(&session, &streams, &[0])
            .is_err());
        assert!(scheduler
            .run_streams_interleaved(&session, &streams, &[])
            .unwrap()
            .iter()
            .all(Vec::is_empty));
    }
}

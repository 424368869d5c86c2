//! The unified query request/response surface.
//!
//! One request shape serves every way into the engine: in-process
//! callers build a [`QueryRequest`] and hand it to
//! [`ReCache::execute`](crate::ReCache::execute); the TCP front end
//! (`recache-server`) serializes exactly this type over the wire, so a
//! remote query is the same object as a local one. One builder covers
//! SQL text or a parsed spec, options, a deadline and a tag:
//!
//! ```
//! use recache_core::{QueryRequest, ReCache};
//! use std::time::Duration;
//!
//! # let mut session = ReCache::builder().build();
//! # let (_, rows) = recache_data::gen::tpch::gen_orders_and_lineitems(0.0001, 42);
//! # let schema = recache_data::gen::tpch::lineitem_schema();
//! # session.register_csv_bytes("lineitem", recache_data::csv::write_csv(&schema, &rows), schema);
//! let request = QueryRequest::sql("SELECT count(*) FROM lineitem WHERE l_quantity >= 30")
//!     .deadline(Duration::from_secs(5))
//!     .tag("dashboard-42");
//! let response = session.execute(&request).unwrap();
//! assert!(response.rows[0].as_i64().unwrap() >= 0); // Deref to QueryResult
//! assert_eq!(response.telemetry.tag.as_deref(), Some("dashboard-42"));
//! ```

use crate::result::QueryResult;
use recache_engine::exec::ExecOptions;
use recache_engine::sql::QuerySpec;
use recache_types::CancelToken;
use std::sync::Arc;
use std::time::Duration;

/// What the request asks to run: SQL text (parsed server-side) or an
/// already-parsed [`QuerySpec`].
#[derive(Debug, Clone)]
pub enum QueryBody {
    Sql(String),
    Spec(QuerySpec),
}

/// One query, fully described: body, execution options, optional
/// deadline, optional cancel handle, optional client tag. Built with a
/// fluent builder; executed via [`ReCache::execute`](crate::ReCache::execute).
#[derive(Debug, Clone)]
pub struct QueryRequest {
    body: QueryBody,
    options: ExecOptions,
    deadline: Option<Duration>,
    tag: Option<String>,
    result_cache: Option<bool>,
}

impl QueryRequest {
    /// A request carrying SQL text.
    pub fn sql(text: impl Into<String>) -> Self {
        QueryRequest::new(QueryBody::Sql(text.into()))
    }

    /// A request carrying a parsed query.
    pub fn spec(spec: QuerySpec) -> Self {
        QueryRequest::new(QueryBody::Spec(spec))
    }

    /// A request from an explicit body (wire decoding).
    pub fn new(body: QueryBody) -> Self {
        QueryRequest {
            body,
            options: ExecOptions::default(),
            deadline: None,
            tag: None,
            result_cache: None,
        }
    }

    /// Replaces the execution options wholesale.
    pub fn options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the thread budget (`0` = machine parallelism) without
    /// touching the other options.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Toggles vectorized execution (on by default; the equivalence
    /// suites exercise the row-at-a-time path with `false`).
    pub fn vectorized(mut self, vectorized: bool) -> Self {
        self.options.vectorized = vectorized;
        self
    }

    /// Arms a wall-clock deadline, measured from the moment
    /// [`ReCache::execute`](crate::ReCache::execute) is called. Composes
    /// with [`cancel`](Self::cancel): whichever trips first wins.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a caller-held cancel handle.
    pub fn cancel(mut self, token: Arc<CancelToken>) -> Self {
        self.options.cancel = Some(token);
        self
    }

    /// Attaches an opaque client tag, echoed back in the response
    /// telemetry (and across the wire) for request correlation.
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Overrides the session's result-cache default for this request:
    /// `true` consults (and populates) the semantic result cache even
    /// when the session default is off, `false` bypasses it even when
    /// on. Unset requests follow the session default
    /// ([`ResultCache::is_enabled`](crate::result_cache::ResultCache::is_enabled)).
    pub fn result_cache(mut self, enabled: bool) -> Self {
        self.result_cache = Some(enabled);
        self
    }

    /// The request body.
    pub fn body(&self) -> &QueryBody {
        &self.body
    }

    /// The execution options as built (deadline not yet folded in —
    /// [`ReCache::execute`](crate::ReCache::execute) arms it per call).
    pub fn exec_options(&self) -> &ExecOptions {
        &self.options
    }

    /// The armed deadline, if any.
    pub fn get_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The client tag, if any.
    pub fn get_tag(&self) -> Option<&str> {
        self.tag.as_deref()
    }

    /// The per-request result-cache override, if any (`None` = follow
    /// the session default).
    pub fn get_result_cache(&self) -> Option<bool> {
        self.result_cache
    }

    /// The execution options this request resolves to at execute time:
    /// the built options, with the deadline (if armed) folded into the
    /// cancel token — as a child of the caller's token when one is
    /// installed, so either tripping stops the query.
    pub fn resolved_options(&self) -> ExecOptions {
        let mut options = self.options.clone();
        if let Some(deadline) = self.deadline {
            options.cancel = Some(Arc::new(match options.cancel.take() {
                Some(parent) => CancelToken::child_with_timeout(parent, deadline),
                None => CancelToken::with_timeout(deadline),
            }));
        }
        options
    }
}

/// How the cache served a query, rolled up across its tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Every table scanned raw (or caching is off).
    Miss,
    /// At least one table was served from a resident entry.
    Hit,
    /// At least one table waited on another session's in-flight scan
    /// and reused its admission (single-flight coalescing).
    Coalesced,
    /// The whole query was served from the semantic result cache — no
    /// executor work at all (`data_ns`, `compute_ns` and `exec_ns` are
    /// all zero).
    ResultHit,
}

/// Per-query telemetry returned alongside the result — the numbers a
/// serving layer exports per request without digging through
/// [`QueryStats`](crate::QueryStats).
#[derive(Debug, Clone)]
pub struct QueryTelemetry {
    /// The request's tag, echoed back.
    pub tag: Option<String>,
    /// Threads the scheduler/options actually granted this query.
    pub threads_granted: usize,
    /// Cache outcome, `Coalesced` winning over `Hit` over `Miss`.
    pub outcome: CacheOutcome,
    /// Data-access nanoseconds summed over table scans (the cost
    /// model's `D` term where measured).
    pub data_ns: u64,
    /// Compute nanoseconds summed over table scans (the `C` term).
    pub compute_ns: u64,
    /// Engine execution time.
    pub exec_ns: u64,
    /// End-to-end time including cache maintenance.
    pub total_ns: u64,
}

/// Result of [`ReCache::execute`](crate::ReCache::execute):
/// the [`QueryResult`] plus per-query [`QueryTelemetry`]. Derefs to the
/// result, so `response.rows` / `response.stats` read straight through.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    pub result: QueryResult,
    pub telemetry: QueryTelemetry,
}

impl QueryResponse {
    /// Assembles the response from an executed result.
    pub(crate) fn new(result: QueryResult, threads_granted: usize, tag: Option<&str>) -> Self {
        let coalesced = result.stats.tables.iter().any(|t| t.coalesced);
        let outcome = if coalesced {
            CacheOutcome::Coalesced
        } else if result.stats.cache_hit {
            CacheOutcome::Hit
        } else {
            CacheOutcome::Miss
        };
        let (mut data_ns, mut compute_ns) = (0u64, 0u64);
        for table in &result.stats.exec.tables {
            match &table.cache_scan {
                Some(cost) => {
                    data_ns += cost.data_ns;
                    compute_ns += cost.compute_ns;
                }
                // Raw scans carry no D/C split; their whole scan time is
                // data access, matching the cost model's attribution for
                // non-Dremel access.
                None => data_ns += table.exec_ns,
            }
        }
        let telemetry = QueryTelemetry {
            tag: tag.map(str::to_owned),
            threads_granted,
            outcome,
            data_ns,
            compute_ns,
            exec_ns: result.stats.exec_ns,
            total_ns: result.stats.total_ns,
        };
        QueryResponse { result, telemetry }
    }

    /// Assembles a response served whole from the semantic result cache:
    /// outcome [`CacheOutcome::ResultHit`], zero data/compute/exec time
    /// (no executor ran), only the cache lookup on the clock.
    pub(crate) fn result_hit(
        rows: Vec<recache_types::Value>,
        rows_aggregated: usize,
        lookup_ns: u64,
        tag: Option<&str>,
    ) -> Self {
        let result = QueryResult {
            rows,
            rows_aggregated,
            stats: crate::result::QueryStats {
                total_ns: lookup_ns,
                exec_ns: 0,
                caching_ns: 0,
                lookup_ns,
                cache_hit: false,
                tables: Vec::new(),
                exec: recache_engine::exec::ExecStats::default(),
            },
        };
        let telemetry = QueryTelemetry {
            tag: tag.map(str::to_owned),
            threads_granted: 1,
            outcome: CacheOutcome::ResultHit,
            data_ns: 0,
            compute_ns: 0,
            exec_ns: 0,
            total_ns: lookup_ns,
        };
        QueryResponse { result, telemetry }
    }

    /// Consumes the response, keeping only the result (for callers that
    /// don't need telemetry).
    pub fn into_result(self) -> QueryResult {
        self.result
    }
}

impl std::ops::Deref for QueryResponse {
    type Target = QueryResult;

    fn deref(&self) -> &QueryResult {
        &self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_engine::sql::parse_query;

    #[test]
    fn builder_accumulates_every_knob() {
        let token = Arc::new(CancelToken::new());
        let request = QueryRequest::sql("SELECT count(*) FROM t")
            .threads(3)
            .vectorized(false)
            .deadline(Duration::from_millis(250))
            .cancel(Arc::clone(&token))
            .tag("req-1");
        assert!(matches!(request.body(), QueryBody::Sql(s) if s.contains("count")));
        assert_eq!(request.exec_options().threads, 3);
        assert!(!request.exec_options().vectorized);
        assert_eq!(request.get_deadline(), Some(Duration::from_millis(250)));
        assert_eq!(request.get_tag(), Some("req-1"));
        // Deadline folds into a child of the caller's token: cancelling
        // the parent trips the resolved options.
        let resolved = request.resolved_options();
        assert!(resolved.check_cancel().is_ok());
        token.cancel();
        assert!(resolved.check_cancel().is_err());
    }

    #[test]
    fn spec_body_round_trips() {
        let spec = parse_query("SELECT count(*) FROM lineitem WHERE l_quantity >= 30").unwrap();
        let request = QueryRequest::spec(spec.clone());
        match request.body() {
            QueryBody::Spec(s) => assert_eq!(s, &spec),
            QueryBody::Sql(_) => panic!("spec body expected"),
        }
        // No deadline: resolved options carry no cancel token.
        assert!(request.resolved_options().cancel.is_none());
    }
}

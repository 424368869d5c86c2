//! Query results and per-query statistics.

use recache_cache::admission::AdmissionDecision;
use recache_cache::registry::MatchResult;
use recache_engine::exec::{AccessKind, ExecStats};
use recache_layout::LayoutKind;
use recache_types::Value;

/// Per-table outcome of one query.
#[derive(Debug, Clone)]
pub struct TableSummary {
    pub name: String,
    /// How the table was actually served.
    pub access: AccessKind,
    /// Cache match, if any.
    pub hit: Option<MatchResult>,
    /// Whether this table waited on another session's in-flight scan
    /// and reused its admission (single-flight coalescing).
    pub coalesced: bool,
    /// Admission decision when a new item was cached (or a lazy item
    /// upgraded) during this query.
    pub admission: Option<AdmissionDecision>,
    /// Layout switch performed after this query, if any.
    pub layout_switch: Option<(LayoutKind, LayoutKind)>,
}

/// Timing breakdown of one query.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// End-to-end wall time (execution + cache maintenance).
    pub total_ns: u64,
    /// Engine execution time only, less the time charged to entries the
    /// scan built in its pass.
    pub exec_ns: u64,
    /// Cache-maintenance time: materialization and upgrades, whether
    /// built inside the scan's pass or after it, and layout switches (the
    /// paper's per-query caching overhead).
    pub caching_ns: u64,
    /// Cache lookup time (`l`).
    pub lookup_ns: u64,
    /// Any table served from cache.
    pub cache_hit: bool,
    pub tables: Vec<TableSummary>,
    /// Full engine statistics (per-table D/C splits, row counts, ...).
    pub exec: ExecStats,
}

impl QueryStats {
    /// Caching overhead as a fraction of total time (Fig. 12's metric).
    pub fn caching_overhead(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.caching_ns as f64 / self.total_ns as f64
        }
    }
}

/// Result of one query: aggregate values plus statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// One value per aggregate in SELECT order.
    pub rows: Vec<Value>,
    /// Rows that reached the aggregation.
    pub rows_aggregated: usize,
    pub stats: QueryStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction() {
        let stats = QueryStats {
            total_ns: 1000,
            exec_ns: 800,
            caching_ns: 200,
            lookup_ns: 5,
            cache_hit: false,
            tables: vec![],
            exec: ExecStats::default(),
        };
        assert!((stats.caching_overhead() - 0.2).abs() < 1e-12);
        let zero = QueryStats {
            total_ns: 0,
            ..stats
        };
        assert_eq!(zero.caching_overhead(), 0.0);
    }
}

//! Physical query plans.
//!
//! A [`QueryPlan`] is the engine's executable form of a
//! select-project-aggregate / select-project-join query: one
//! [`TablePlan`] per source (with its access path, projection and bound
//! predicate), a chain of equijoins, and the output aggregates.

use crate::expr::Expr;
use recache_data::RawFile;
use recache_layout::{ColumnStore, DremelStore, OffsetStore};
use std::sync::Arc;

/// How a table's tuples are obtained.
#[derive(Clone)]
pub enum AccessPath {
    /// Scan the raw file (first scan builds the positional map).
    Raw(Arc<RawFile>),
    /// Scan an in-memory relational columnar cache.
    Columnar(Arc<ColumnStore>),
    /// Scan an in-memory Dremel (nested columnar) cache.
    Dremel(Arc<DremelStore>),
    /// Re-read the records a lazy cache selected, through the raw file's
    /// positional map.
    Offsets {
        file: Arc<RawFile>,
        store: Arc<OffsetStore>,
    },
}

impl std::fmt::Debug for AccessPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccessPath::Raw(_) => write!(f, "Raw"),
            AccessPath::Columnar(s) => write!(f, "Columnar({} rows)", s.row_count()),
            AccessPath::Dremel(s) => write!(f, "Dremel({} records)", s.record_count()),
            AccessPath::Offsets { store, .. } => {
                write!(f, "Offsets({} records)", store.record_count())
            }
        }
    }
}

/// One table's scan + filter.
#[derive(Debug, Clone)]
pub struct TablePlan {
    pub name: String,
    pub access: AccessPath,
    /// Leaf ids this query touches on this table, sorted ascending; the
    /// scan emits rows with one slot per entry.
    pub accessed: Vec<usize>,
    /// Predicate over slots (bound to `accessed` order).
    pub predicate: Option<Expr>,
    /// Record-level domain (no repeated leaf accessed): scans skip the
    /// duplicate rows flattening introduces.
    pub record_level: bool,
    /// Collect the record ids of satisfying tuples (fed to the cache
    /// admission path).
    pub collect_satisfying: bool,
}

/// Aggregate functions of the paper's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One output aggregate. `slot == None` means `count(*)`.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub table: usize,
    pub slot: Option<usize>,
    pub func: AggFunc,
}

/// An equijoin between two tables' slots. Joins must be ordered so that
/// `left_table` is already part of the joined prefix when the join runs
/// (the planner guarantees this).
#[derive(Debug, Clone)]
pub struct JoinSpec {
    pub left_table: usize,
    pub left_slot: usize,
    pub right_table: usize,
    pub right_slot: usize,
}

/// A complete physical plan.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    pub tables: Vec<TablePlan>,
    pub joins: Vec<JoinSpec>,
    pub aggregates: Vec<AggSpec>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_names() {
        assert_eq!(AggFunc::Sum.name(), "sum");
        assert_eq!(AggFunc::Count.name(), "count");
        assert_eq!(AggFunc::Avg.name(), "avg");
    }

    #[test]
    fn access_path_debug_is_compact() {
        let store = Arc::new(OffsetStore::build(vec![1, 2], 4));
        let file = Arc::new(RawFile::from_bytes(
            Vec::new(),
            recache_data::FileFormat::Csv,
            recache_types::Schema::new(vec![]),
        ));
        let path = AccessPath::Offsets { file, store };
        assert_eq!(format!("{path:?}"), "Offsets(2 records)");
    }
}

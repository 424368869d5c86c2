//! Query engine for ReCache: expressions, plans and physical execution.
//!
//! Proteus (the system ReCache extends) JIT-compiles a specialized engine
//! per query with LLVM. This reproduction replaces code generation with
//! plan-time specialization over monomorphized Rust operators — the cost
//! *shapes* ReCache's policies depend on (raw parse ≫ in-memory scan;
//! Dremel scans pay a compute cost columnar scans do not) are preserved,
//! as recorded under "Deviations from the paper" in `docs/ARCHITECTURE.md`.
//!
//! The engine executes select-project-aggregate and select-project-join
//! queries (the paper's workload templates) over:
//! * raw CSV/JSON files ([`recache_data::RawFile`]),
//! * in-memory cache stores of any [`recache_layout`] layout,
//! * lazy offset caches (re-reads through positional maps).
//!
//! # Batch execution architecture
//!
//! Cache-store scans run vectorized by default ([`ExecOptions`] can force
//! the row path):
//!
//! * **Batch size** — stores yield typed
//!   [`recache_layout::ColumnBatch`]es of up to
//!   [`recache_layout::BATCH_ROWS`] (4096) rows: borrowed column slices
//!   for the columnar store and the Dremel short-column fast path,
//!   gathered scratch columns for Dremel assembly.
//!   4096 is a multiple of 64 (validity views stay word-aligned) and
//!   matches the timed-scan granularity the seed used, so per-batch
//!   `ScanCost` sampling is unchanged.
//! * **Timer cost** — the paper's §5.1 profiling overhead is amortized
//!   by timing once per batch, not per row (`exec::scan_grid`, the one
//!   chunk-grid driver every batched scan runs through).
//! * **Selection-vector short-circuiting** — [`CompiledPredicate`] turns
//!   a conjunction of `slot <op> literal` clauses into per-column kernels
//!   applied *in the query's clause order*; each kernel compacts the
//!   batch's `SelectionVector` in place, so clause *k+1* only examines
//!   clause *k*'s survivors and an emptied selection stops the
//!   conjunction. Non-compilable shapes (`OR`, `NOT`, slot-vs-slot)
//!   fall back to row-at-a-time `Expr::eval_bool`, as do raw-file and
//!   offsets access paths.
//! * **D/C phase attribution** — mask navigation, Dremel level-stream
//!   assembly and predicate-kernel time are compute `C`; store value
//!   gathering, batch-aggregate folding and join-side materialization
//!   are data access `D`. This follows the cost model's definition of
//!   `C` ("everything that is not a plain value load"). One deliberate
//!   difference from the row path: row-at-a-time scans evaluate the
//!   predicate inside the store's gather loop, so there its time lands
//!   in `D` — vectorized `C` is a slight superset. For columnar scans
//!   `C ≈ 0` either way (the property the paper's layout model relies
//!   on, preserved by only materializing per-row record ids when the
//!   consumer collects satisfying ids), and the session layer collapses
//!   non-Dremel scans to pure `D` before feeding layout histories, so
//!   the shift only surfaces where assembly already dominates.

pub mod exactsum;
pub mod exec;
pub mod expr;
pub mod kernel;
pub mod plan;
pub mod sql;

pub use exactsum::ExactSum;
pub use exec::{
    execute, execute_with, AccessKind, ExecOptions, ExecStats, QueryOutput, TableStats,
};
pub use expr::{CmpOp, Expr, RangeClause};
pub use kernel::{BatchAggregator, CompiledPredicate};
pub use plan::{AccessPath, AggFunc, AggSpec, JoinSpec, QueryPlan, TablePlan};
pub use sql::{parse_query, QualifiedPath, QuerySpec};

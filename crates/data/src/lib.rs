//! Raw-data access layer for ReCache: from-scratch CSV and line-delimited
//! JSON readers/writers with NoDB-style *positional maps*, plus the
//! deterministic dataset generators used by the evaluation.
//!
//! Parsing cost is the object of study in ReCache: raw JSON is much more
//! expensive to parse than CSV, and positional maps (record/field byte
//! offsets captured during the first scan) reduce the cost of subsequent
//! selective accesses. Owning the parsers lets the engine:
//!
//! * parse only the fields a query touches once a positional map exists,
//! * re-read individual records by offset, which is what the *lazy*
//!   (offsets-only) cache admission mode needs,
//! * expose per-scan metrics that feed the cost-based cache policies.

pub mod csv;
pub mod entry;
pub mod fault;
pub mod gen;
pub mod json;
pub mod json_batch;
pub mod posmap;
pub mod raw_batch;
pub mod source;

pub use entry::{EntryBuilder, StoreChoice};
pub use fault::{FaultKind, FaultPlan, FaultSite, RetryPolicy};
pub use posmap::PositionalMap;
pub use source::{FileFormat, RawFile, ScanMetrics};

//! In-memory cache layouts for ReCache.
//!
//! A cached item stores the set of records that satisfied a selection
//! operator, in one of three physical layouts (§4 of the paper):
//!
//! * [`ColumnStore`] — *relational columnar*: records flattened into rows
//!   (lists exploded, parents duplicated), one typed column per leaf, plus
//!   per-row list-position masks and record boundaries,
//! * [`DremelStore`] — *nested columnar* (Dremel/Parquet): column striping
//!   with definition/repetition levels; record assembly decodes levels
//!   (the compute cost the paper measures as `C`), while non-repeated
//!   projections read short columns directly (the "4x fewer rows" fast
//!   path),
//! * [`OffsetStore`] — *lazy* cache: only the record ids of satisfying
//!   tuples; reuse re-reads the raw file through its positional map.
//!
//! Scans are two-phase per batch — decode/navigate (compute cost `C`) and
//! value gathering (data-access cost `D`) — and report measured
//! [`ScanCost`]s, which feed ReCache's layout-selection cost model.
//!
//! Stores are built from records and never converted into one another:
//! every eager store tags its records' source-file ids, and a layout
//! switch rebuilds the entry from the raw file by those ids (see
//! `recache_core::materialize::switch_layout`).

pub mod batch;
pub mod bitmap;
pub mod column;
pub mod columnar;
pub mod dremel;
pub mod offsets;
pub mod shape;

pub use batch::{
    BatchColumn, BatchScratch, BatchValues, ColumnBatch, ScratchColumn, SelectionVector, BATCH_ROWS,
};
pub use bitmap::Bitmap;
pub use column::{Column, ColumnData, DICT_MAX_RATIO, DICT_MIN_ROWS};
pub use columnar::{ColumnStore, FlatColumnBuilder};
pub use dremel::{DremelBuilder, DremelStore, FieldSet, Holds, ShredInput, CHUNK_RECORDS};
pub use offsets::OffsetStore;

use recache_types::Value;

/// Physical layout of a cached item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Relational column-oriented ([`ColumnStore`]).
    Columnar,
    /// Nested column-oriented, Dremel/Parquet-style ([`DremelStore`]).
    Dremel,
    /// Offsets of satisfying tuples only ([`OffsetStore`]).
    Offsets,
}

impl LayoutKind {
    pub fn name(&self) -> &'static str {
        match self {
            LayoutKind::Columnar => "columnar",
            LayoutKind::Dremel => "dremel",
            LayoutKind::Offsets => "offsets",
        }
    }
}

/// Measured cost of one cache scan, split the way the paper's cost model
/// needs it: `D` (data access) vs `C` (computation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScanCost {
    /// Time spent gathering values out of the store.
    pub data_ns: u64,
    /// Time spent decoding levels, walking bitmaps, reconstructing
    /// records — everything that is not a plain value load.
    pub compute_ns: u64,
    /// Rows emitted.
    pub rows: usize,
    /// Row slots iterated (≥ rows for record-level scans over flattened
    /// stores, where duplicate rows are skipped but still visited).
    pub rows_visited: usize,
}

impl ScanCost {
    /// Total scan time in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.data_ns + self.compute_ns
    }

    /// Accumulates another batch's cost.
    pub fn add(&mut self, other: &ScanCost) {
        self.data_ns += other.data_ns;
        self.compute_ns += other.compute_ns;
        self.rows += other.rows;
        self.rows_visited += other.rows_visited;
    }
}

/// The materialized data of a cached item, in whichever layout the
/// layout-selection policy chose. Stores are shared (`Arc`) so a cache
/// hit hands the scan a reference without copying data.
#[derive(Debug, Clone)]
pub enum CacheData {
    Columnar(std::sync::Arc<ColumnStore>),
    Dremel(std::sync::Arc<DremelStore>),
    Offsets(std::sync::Arc<OffsetStore>),
}

impl CacheData {
    pub fn layout(&self) -> LayoutKind {
        match self {
            CacheData::Columnar(_) => LayoutKind::Columnar,
            CacheData::Dremel(_) => LayoutKind::Dremel,
            CacheData::Offsets(_) => LayoutKind::Offsets,
        }
    }

    /// In-memory footprint in bytes (the `B` of the benefit metric).
    pub fn byte_size(&self) -> usize {
        match self {
            CacheData::Columnar(s) => s.byte_size(),
            CacheData::Dremel(s) => s.byte_size(),
            CacheData::Offsets(s) => s.byte_size(),
        }
    }

    /// Number of cached records.
    pub fn record_count(&self) -> usize {
        match self {
            CacheData::Columnar(s) => s.record_count(),
            CacheData::Dremel(s) => s.record_count(),
            CacheData::Offsets(s) => s.record_count(),
        }
    }

    /// Source-file ids of the cached records, ascending, when the store
    /// records them (every store the cache builds does).
    pub fn source_record_ids(&self) -> Option<&[u32]> {
        match self {
            CacheData::Columnar(s) => s.source_record_ids(),
            CacheData::Dremel(s) => s.source_record_ids(),
            CacheData::Offsets(s) => Some(s.record_ids()),
        }
    }

    /// Flattened row count `R` (what a relational columnar layout stores
    /// or would store).
    pub fn flattened_rows(&self) -> usize {
        match self {
            CacheData::Columnar(s) => s.row_count(),
            CacheData::Dremel(s) => s.flattened_rows(),
            CacheData::Offsets(s) => s.flattened_rows_estimate(),
        }
    }
}

/// Emit callback for row-at-a-time scans: receives the source record id
/// and one flattened row (projected leaves only, in projection order).
pub type RowSink<'a> = dyn FnMut(usize, &[Value]) + 'a;

/// Emit callback for vectorized scans: a typed [`ColumnBatch`] plus the
/// selection the store seeded (mask navigation already applied). The
/// consumer may compact the selection further (predicate kernels) before
/// gathering.
pub type BatchSink<'a> = dyn FnMut(&ColumnBatch<'_>, &mut SelectionVector) + 'a;

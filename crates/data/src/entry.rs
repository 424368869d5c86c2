//! Eager cache entries under construction.
//!
//! An [`EntryBuilder`] takes the records of a raw file by id, read in
//! place through the file's positional map (see
//! [`RawFile::append_records`](crate::RawFile::append_records)), and
//! seals them into a cache store. No layout keeps a record as a `Value`:
//! a Dremel entry is shredded record by record, and a columnar entry is
//! filled row by row — a CSV record as one row from its field spans, a
//! nested JSON record as the rows of flattening its structure tape.
//! Builders over disjoint runs of records concatenate in record order
//! ([`EntryBuilder::append`]), so a parallel scan can build its parts on
//! its own threads and seal the merged store once; dictionary encoding
//! waits for [`EntryBuilder::finish`], so the merged store equals a
//! serial build bit for bit.

use recache_layout::{CacheData, DremelBuilder, FlatColumnBuilder};
use recache_types::Schema;
use std::sync::Arc;

/// Physical layout for eager materialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreChoice {
    Columnar,
    Dremel,
}

/// An eager cache entry under construction.
#[derive(Debug)]
pub enum EntryBuilder {
    /// Shredded record by record.
    Dremel(DremelBuilder),
    /// Filled with each record's flattened rows.
    Columnar(FlatColumnBuilder),
}

impl EntryBuilder {
    pub fn new(schema: &Schema, choice: StoreChoice) -> Self {
        match choice {
            StoreChoice::Dremel => EntryBuilder::Dremel(DremelBuilder::new(schema)),
            StoreChoice::Columnar => EntryBuilder::Columnar(FlatColumnBuilder::new(schema)),
        }
    }

    /// Appends the records of another builder, made by
    /// [`EntryBuilder::new`] for the same schema and layout, after this
    /// builder's records.
    pub fn append(&mut self, other: EntryBuilder) {
        match (self, other) {
            (EntryBuilder::Dremel(into), EntryBuilder::Dremel(more)) => into.append(more),
            (EntryBuilder::Columnar(into), EntryBuilder::Columnar(more)) => into.append(more),
            _ => unreachable!("appending builders of different layouts"),
        }
    }

    /// Seals the store, tagging it with the records' source-file ids
    /// (ascending, one per appended record) so later scans over the
    /// cache report *file* record ids (the lazy/offsets admission path
    /// stores exactly these).
    pub fn finish(self, record_ids: Vec<u32>) -> CacheData {
        match self {
            EntryBuilder::Dremel(builder) => {
                let mut store = builder.finish();
                store.set_source_record_ids(record_ids);
                CacheData::Dremel(Arc::new(store))
            }
            EntryBuilder::Columnar(builder) => {
                let mut store = builder.finish();
                store.set_source_record_ids(record_ids);
                CacheData::Columnar(Arc::new(store))
            }
        }
    }
}

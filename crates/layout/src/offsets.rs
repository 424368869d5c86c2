//! Lazy (offsets-only) cache layout.
//!
//! §5.2 of the paper: "a lazy caching policy, which only caches the file
//! offsets of satisfying tuples, has a lower overhead but also a lower
//! benefit if the cache is reused". This store keeps the *record ids* of
//! satisfying tuples; reuse goes back to the raw file through its
//! positional map (`RawFile::scan_batches_by_id_ctl`), paying parse cost
//! again but only for the selected records.

/// Record ids of satisfying tuples (sorted, deduplicated).
#[derive(Debug, Clone, Default)]
pub struct OffsetStore {
    record_ids: Vec<u32>,
    /// Flattened rows the eager cache would have held (for stats / `R`).
    flattened_rows: usize,
}

impl OffsetStore {
    /// Builds the store from record ids (in scan order, possibly with
    /// duplicates when several rows of a record satisfied the predicate).
    pub fn build(mut record_ids: Vec<u32>, flattened_rows: usize) -> Self {
        record_ids.sort_unstable();
        record_ids.dedup();
        OffsetStore {
            record_ids,
            flattened_rows,
        }
    }

    pub fn record_ids(&self) -> &[u32] {
        &self.record_ids
    }

    pub fn record_count(&self) -> usize {
        self.record_ids.len()
    }

    /// `R` the eager columnar cache would have held.
    pub fn flattened_rows_estimate(&self) -> usize {
        self.flattened_rows
    }

    pub fn byte_size(&self) -> usize {
        self.record_ids.len() * 4 + std::mem::size_of::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sorts_and_dedups() {
        let store = OffsetStore::build(vec![5, 1, 5, 3, 1], 12);
        assert_eq!(store.record_ids(), &[1, 3, 5]);
        assert_eq!(store.record_count(), 3);
        assert_eq!(store.flattened_rows_estimate(), 12);
    }

    #[test]
    fn byte_size_is_small() {
        let store = OffsetStore::build((0..1000).collect(), 4000);
        assert!(store.byte_size() < 1000 * 8);
    }

    #[test]
    fn empty() {
        let store = OffsetStore::build(vec![], 0);
        assert_eq!(store.record_count(), 0);
    }
}

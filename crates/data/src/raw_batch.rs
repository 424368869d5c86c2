//! Shared machinery of the *batched* raw-scan path, format-agnostic: the
//! SWAR record indexer that partitions a newline-delimited file into
//! fixed-size record chunks before anything has been tokenized, and the
//! per-chunk capture-slab tracker that assembles a positional map once
//! every chunk has been scanned — in any order, from any thread.
//!
//! Both raw formats implement the same protocol on top of this module:
//!
//! * **CSV** chunks tokenize with `csv::tokenize_range_into` and submit a
//!   slab of per-record field offsets; full coverage concatenates the
//!   slabs (the layout has a fixed per-record stride) into a record+field
//!   map.
//! * **Flat JSON** chunks tokenize with `json_batch::tokenize_range_into`
//!   and submit a slab of per-record, per-schema-key *value* start
//!   offsets (stride = schema field count, `JSON_KEY_ABSENT` where a key
//!   is missing); full coverage concatenates the slabs into a
//!   record+value-offset map that later scans seek through.
//! * **Nested JSON** chunks build each record's structure tape
//!   (`json::TapeScan`) and submit the chunk's tapes; full coverage
//!   joins them into the record+tape map `json::scan_build_map` builds.
//!
//! Keeping the chunk grid, coverage accounting and slab assembly here
//! means `RawFile` dispatches purely on format for the tokenize call and
//! the final map construction; the executor never sees a format at all.

use std::sync::Mutex;

/// SWAR byte-broadcast constants for the word-at-a-time byte scans.
const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// Marks every byte of `word` equal to `needle`: the classic SWAR
/// "has-zero-byte" trick on `word ^ broadcast(needle)`. The returned mask
/// has bit `8·j + 7` set iff byte `j` matches, so matches enumerate in
/// ascending position via `trailing_zeros() / 8` (the word was loaded
/// little-endian).
#[inline]
pub(crate) fn byte_eq_mask(word: u64, needle: u8) -> u64 {
    let x = word ^ (SWAR_LO * u64::from(needle));
    x.wrapping_sub(SWAR_LO) & !x & SWAR_HI
}

/// Record-start offsets of `bytes` (one newline scan, plus a final
/// total-length entry): the cheap half of a positional map, enough to
/// partition a batched first scan into fixed record windows before any
/// field or key has been tokenized. The scan runs word-at-a-time (SWAR),
/// so it costs a fraction of the tokenize/parse pass it enables. Offsets
/// agree exactly with the ones the row tokenizers produce — for CSV with
/// `csv::scan_build_map`, for line-delimited JSON with
/// `json::scan_build_map` (raw newlines never occur inside valid JSON
/// strings; they are escaped, so every newline byte is a record break in
/// both formats).
pub fn index_records(bytes: &[u8]) -> Vec<u64> {
    let mut offsets = Vec::with_capacity(bytes.len() / 32 + 2);
    if !bytes.is_empty() {
        offsets.push(0);
    }
    let mut i = 0usize;
    while i + 8 <= bytes.len() {
        let word = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte window"));
        let mut mask = byte_eq_mask(word, b'\n');
        while mask != 0 {
            let pos = i + (mask.trailing_zeros() / 8) as usize;
            if pos + 1 < bytes.len() {
                offsets.push((pos + 1) as u64);
            }
            mask &= mask - 1;
        }
        i += 8;
    }
    while i < bytes.len() {
        if bytes[i] == b'\n' && i + 1 < bytes.len() {
            offsets.push((i + 1) as u64);
        }
        i += 1;
    }
    offsets.push(bytes.len() as u64);
    offsets
}

/// First-scan state of a batched raw file: the record index partitioning
/// the file into `chunk_records`-record chunks, plus per-chunk capture
/// slabs. Each chunk's scan captures whatever its format needs for the
/// positional map (CSV: field offsets; flat JSON: per-key value offsets;
/// nested JSON: structure tapes) and submits it; the submission that
/// completes coverage gets the slabs back, in chunk order, and builds
/// the map. Redundant re-scans of an already-filled
/// chunk are ignored, so racing scans of the same chunk stay idempotent.
pub struct RawBatchIndex {
    record_offsets: Vec<u64>,
    chunk_records: usize,
    capture: Mutex<CaptureSlabs>,
}

struct CaptureSlabs {
    slabs: Vec<Option<Vec<u32>>>,
    filled: usize,
}

impl RawBatchIndex {
    pub fn new(record_offsets: Vec<u64>, chunk_records: usize) -> Self {
        let n_records = record_offsets.len().saturating_sub(1);
        let n_chunks = n_records.div_ceil(chunk_records);
        RawBatchIndex {
            record_offsets,
            chunk_records,
            capture: Mutex::new(CaptureSlabs {
                slabs: vec![None; n_chunks],
                filled: 0,
            }),
        }
    }

    /// Record-start offsets plus the final total-length entry.
    pub fn record_offsets(&self) -> &[u64] {
        &self.record_offsets
    }

    pub fn n_records(&self) -> usize {
        self.record_offsets.len() - 1
    }

    pub fn n_chunks(&self) -> usize {
        self.n_records().div_ceil(self.chunk_records)
    }

    /// Whether this chunk's capture has already been submitted — a
    /// re-scan of a filled chunk may skip capture work entirely (its
    /// submission would be ignored anyway).
    pub fn chunk_filled(&self, chunk: usize) -> bool {
        // Poison recovery (here and in `submit_with`): the only panic
        // point inside the critical section is `on_complete`, which runs
        // after the slab/filled bookkeeping is fully updated — a
        // poisoned capture lock therefore always guards consistent
        // coverage state, and later scanners must keep completing chunks
        // rather than wedge the file for every future query.
        self.capture.lock().unwrap_or_else(|e| e.into_inner()).slabs[chunk].is_some()
    }

    /// Submits one chunk's capture slab. When this submission completes
    /// coverage, `on_complete` runs with the slabs in chunk order —
    /// exactly once per index, no matter how chunks were ordered across
    /// threads.
    ///
    /// `on_complete` executes **inside the capture critical section**,
    /// and that is load-bearing: every concurrent scanner of this file
    /// interacts with every chunk through this same lock (a submission
    /// or a [`RawBatchIndex::chunk_filled`] probe). Whichever scanner
    /// first fills the last-filled chunk runs the completion before
    /// releasing the lock, so any *other* scanner's interaction with
    /// that chunk — necessarily after the fill — is also after the
    /// completion's effects (e.g. the positional-map install). Running
    /// the completion after releasing the lock reopens a race where a
    /// racing session finishes its whole scan and proceeds to
    /// map-dependent work (cache materialization) before the map
    /// exists.
    pub fn submit_with(
        &self,
        chunk: usize,
        slab: Vec<u32>,
        on_complete: impl FnOnce(Vec<Vec<u32>>),
    ) {
        // See `chunk_filled` for why poison recovery is sound here.
        let mut capture = self.capture.lock().unwrap_or_else(|e| e.into_inner());
        if capture.slabs[chunk].is_some() {
            return;
        }
        capture.slabs[chunk] = Some(slab);
        capture.filled += 1;
        if capture.filled < capture.slabs.len() {
            return;
        }
        // Moved out, not taken: every chunk stays filled, so later
        // submissions are still ignored.
        let slabs = capture.slabs.iter_mut().flatten().map(std::mem::take);
        on_complete(slabs.collect());
    }
}

impl std::fmt::Debug for RawBatchIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RawBatchIndex")
            .field("records", &self.n_records())
            .field("chunks", &self.n_chunks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records per chunk of the test grids.
    const CHUNK: usize = 100;

    /// Observing `submit_with`'s completion after the lock is released —
    /// fine for a single-threaded test, exactly the race production
    /// callers must avoid (which is why this is not a method).
    fn submit(index: &RawBatchIndex, chunk: usize, slab: Vec<u32>) -> Option<Vec<u32>> {
        let mut out = None;
        index.submit_with(chunk, slab, |slabs| out = Some(slabs.concat()));
        out
    }

    #[test]
    fn index_records_splits_on_newlines() {
        assert_eq!(index_records(b"a\nbb\nccc\n"), vec![0, 2, 5, 9]);
        // No trailing newline: the last record ends at EOF.
        assert_eq!(index_records(b"a\nbb"), vec![0, 2, 4]);
        assert_eq!(index_records(b""), vec![0]);
        // A long tail exercises both the SWAR and the scalar loop.
        let long = "x".repeat(19) + "\n" + &"y".repeat(5);
        assert_eq!(index_records(long.as_bytes()), vec![0, 20, 25]);
    }

    #[test]
    fn submit_returns_assembled_slabs_on_full_coverage_only() {
        let n = CHUNK * 2 + 5;
        let offsets: Vec<u64> = (0..=n as u64).collect();
        let index = RawBatchIndex::new(offsets, CHUNK);
        assert_eq!(index.n_chunks(), 3);
        assert!(!index.chunk_filled(1));
        assert!(submit(&index, 1, vec![10, 11]).is_none());
        assert!(index.chunk_filled(1));
        // Redundant re-submission is ignored.
        assert!(submit(&index, 1, vec![99]).is_none());
        assert!(submit(&index, 2, vec![20]).is_none());
        let assembled = submit(&index, 0, vec![0, 1]).expect("coverage complete");
        // Chunk order, not submission order.
        assert_eq!(assembled, vec![0, 1, 10, 11, 20]);
    }

    #[test]
    fn empty_file_has_no_chunks() {
        let index = RawBatchIndex::new(vec![0], CHUNK);
        assert_eq!(index.n_records(), 0);
        assert_eq!(index.n_chunks(), 0);
    }

    /// A scanner that panics mid-scan (an injected fault, an assertion)
    /// abandons its remaining chunks but must not wedge the index: the
    /// chunks it did submit stay filled, and a later scanner completes
    /// coverage and triggers the completion — even when the panic
    /// happened *inside* a completion-adjacent critical section and
    /// poisoned the capture lock.
    #[test]
    fn panicking_scanner_leaves_index_recoverable() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering};
        let index = RawBatchIndex::new((0..=(CHUNK * 3) as u64).collect(), CHUNK);
        let done = AtomicBool::new(false);
        // First scanner fills chunk 0, then dies inside the capture
        // critical section while probing chunk 1 (poisons the lock).
        let result = catch_unwind(AssertUnwindSafe(|| {
            index.submit_with(0, vec![7], |_| {});
            index.submit_with(1, vec![8], |_| panic!("injected panic mid-scan"));
        }));
        // Chunk 1 was NOT the last chunk, so no completion ran and the
        // closure never fired; simulate the panic at the lock instead.
        assert!(result.is_ok());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let _guard = index.capture.lock().unwrap();
            panic!("injected panic while holding the capture lock");
        }));
        assert!(result.is_err());
        // A second scanner recovers the poisoned lock, sees chunks 0 and
        // 1 filled, submits the rest, and the completion still fires
        // with slabs assembled in chunk order.
        assert!(index.chunk_filled(0) && index.chunk_filled(1));
        index.submit_with(2, vec![9], |slabs| {
            assert_eq!(slabs, vec![vec![7], vec![8], vec![9]]);
            done.store(true, Ordering::SeqCst);
        });
        assert!(done.load(Ordering::SeqCst), "completion must still run");
    }

    /// The coverage-completion invariant behind the posmap install: any
    /// scanner that has interacted with every chunk (submission or
    /// `chunk_filled` probe — both through the capture lock) must
    /// observe the completion's effects, because the completion runs
    /// inside the critical section of the coverage-completing fill.
    #[test]
    fn completion_is_visible_to_every_finished_scanner() {
        use std::sync::atomic::{AtomicBool, Ordering};
        for _ in 0..50 {
            let index = RawBatchIndex::new((0..=(CHUNK * 3) as u64).collect(), CHUNK);
            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| {
                        for chunk in 0..index.n_chunks() {
                            if index.chunk_filled(chunk) {
                                continue;
                            }
                            index.submit_with(chunk, Vec::new(), |_| {
                                done.store(true, Ordering::SeqCst);
                            });
                        }
                        assert!(
                            done.load(Ordering::SeqCst),
                            "a scanner finished all chunks before the completion ran"
                        );
                    });
                }
            });
        }
    }
}

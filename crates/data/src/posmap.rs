//! NoDB-style positional maps: the "skeleton" of a raw file.
//!
//! A positional map captures the byte offsets of records during the
//! first full scan of a raw file, plus one per-format index within each
//! record:
//!
//! * CSV: the offset of every field;
//! * flat JSON scanned in batches: the offset of each top-level key's
//!   value;
//! * nested JSON, and flat JSON scanned row by row: a structure tape per
//!   record (`json::Tape`), the offsets of its schema-typed values
//!   arranged as the schema's tree, so a re-read jumps over unwanted
//!   subtrees and matches no key.
//!
//! Subsequent queries navigate the file through the map instead of
//! re-tokenizing it, which is what makes repeated in-situ access viable
//! (Alagiannis et al., NoDB, SIGMOD 2012; Karpathiotakis et al., Proteus,
//! PVLDB 2016).

/// Byte-offset index over a raw file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionalMap {
    /// Start offset of each record; a final entry holds the file length,
    /// so record `i` spans `record_offsets[i]..record_offsets[i+1]`
    /// (including the trailing newline, which parsers trim).
    record_offsets: Vec<u64>,
    /// CSV only: start offset of each field relative to its record start,
    /// flattened with stride `fields_per_record + 1`; the extra slot per
    /// record is the record length, so field `j` of record `i` spans
    /// `fo[i*s + j] .. fo[i*s + j + 1] - 1` (excluding the delimiter).
    field_offsets: Vec<u32>,
    /// Flat JSON only: start offset of each top-level schema field's
    /// *value* relative to its record start, flattened with stride
    /// `fields_per_record`; [`u32::MAX`] marks a key absent from that
    /// record. Unlike CSV, JSON fields carry no end offset — values
    /// self-terminate, so a re-scan seeks to the start and parses.
    value_offsets: Vec<u32>,
    fields_per_record: usize,
    /// Tape-mapped JSON only: record `i`'s structure tape is
    /// `tape[tape_starts[i]..tape_starts[i+1]]`; an empty range marks a
    /// record the first scan could not index, which readers parse from
    /// its bytes instead.
    tape_starts: Vec<u64>,
    tape: Vec<u32>,
}

/// Sentinel in the JSON value-offset table: the record has no such key.
pub const JSON_KEY_ABSENT: u32 = u32::MAX;

impl PositionalMap {
    /// Builds a record+field map (CSV files).
    pub fn with_fields(
        record_offsets: Vec<u64>,
        field_offsets: Vec<u32>,
        fields_per_record: usize,
    ) -> Self {
        debug_assert!(!record_offsets.is_empty());
        debug_assert_eq!(
            field_offsets.len(),
            (record_offsets.len() - 1) * (fields_per_record + 1)
        );
        PositionalMap {
            record_offsets,
            field_offsets,
            fields_per_record,
            ..PositionalMap::default()
        }
    }

    /// Builds a record+value-offset map (flat JSON batched first scans):
    /// `value_offsets` holds per-record, per-schema-field value start
    /// offsets (stride `fields_per_record`, [`JSON_KEY_ABSENT`] where
    /// the record lacks the key).
    pub fn with_json_values(
        record_offsets: Vec<u64>,
        value_offsets: Vec<u32>,
        fields_per_record: usize,
    ) -> Self {
        debug_assert!(!record_offsets.is_empty());
        debug_assert_eq!(
            value_offsets.len(),
            (record_offsets.len() - 1) * fields_per_record
        );
        PositionalMap {
            record_offsets,
            value_offsets,
            fields_per_record,
            ..PositionalMap::default()
        }
    }

    /// Builds a record+tape map (JSON row-path and nested batched first
    /// scans):
    /// `tape_starts` holds `record_count() + 1` word indexes into `tape`.
    pub fn with_json_tape(record_offsets: Vec<u64>, tape_starts: Vec<u64>, tape: Vec<u32>) -> Self {
        debug_assert_eq!(tape_starts.len(), record_offsets.len());
        debug_assert_eq!(tape_starts.last().copied(), Some(tape.len() as u64));
        PositionalMap {
            record_offsets,
            tape_starts,
            tape,
            ..PositionalMap::default()
        }
    }

    /// Number of records indexed.
    pub fn record_count(&self) -> usize {
        self.record_offsets.len().saturating_sub(1)
    }

    /// The raw record-offset table (`record_count() + 1` entries; the
    /// last is the file length). Batched scans hand this to the chunk
    /// tokenizers, which take record windows as offset slices.
    pub fn record_offsets(&self) -> &[u64] {
        &self.record_offsets
    }

    /// Byte range of a record (including any trailing newline).
    pub fn record_span(&self, record: usize) -> (usize, usize) {
        (
            self.record_offsets[record] as usize,
            self.record_offsets[record + 1] as usize,
        )
    }

    /// True if per-field offsets are available (CSV maps).
    pub fn has_field_offsets(&self) -> bool {
        self.fields_per_record > 0 && !self.field_offsets.is_empty()
    }

    /// True if per-key value offsets are available (flat JSON maps built
    /// by a batched first scan).
    pub fn has_json_value_offsets(&self) -> bool {
        self.fields_per_record > 0 && !self.value_offsets.is_empty()
    }

    /// Absolute byte offset of field `field`'s value in `record`, or
    /// `None` when the record has no such key. Only valid when
    /// [`Self::has_json_value_offsets`].
    pub fn json_value_offset(&self, record: usize, field: usize) -> Option<usize> {
        debug_assert!(field < self.fields_per_record);
        let off = self.value_offsets[record * self.fields_per_record + field];
        if off == JSON_KEY_ABSENT {
            None
        } else {
            Some(self.record_offsets[record] as usize + off as usize)
        }
    }

    /// The structure tape of `record`, or `None` when the map holds no
    /// tape for it.
    pub fn json_tape(&self, record: usize) -> Option<&[u32]> {
        let start = *self.tape_starts.get(record)? as usize;
        let end = self.tape_starts[record + 1] as usize;
        (end > start).then(|| &self.tape[start..end])
    }

    /// Byte range of one field within the file (excluding the delimiter).
    /// Only valid when [`Self::has_field_offsets`].
    pub fn field_span(&self, record: usize, field: usize) -> (usize, usize) {
        debug_assert!(field < self.fields_per_record);
        let stride = self.fields_per_record + 1;
        let base = self.record_offsets[record] as usize;
        let start = base + self.field_offsets[record * stride + field] as usize;
        let end = base + self.field_offsets[record * stride + field + 1] as usize - 1;
        (start, end)
    }

    /// Approximate memory footprint of the map itself, counted against no
    /// cache budget in the paper but reported for completeness.
    pub fn byte_size(&self) -> usize {
        (self.record_offsets.len() + self.tape_starts.len()) * 8
            + (self.field_offsets.len() + self.value_offsets.len() + self.tape.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_spans() {
        // two records: bytes 0..6 and 6..12
        let map = PositionalMap::with_json_tape(vec![0, 6, 12], vec![0; 3], Vec::new());
        assert_eq!(map.record_count(), 2);
        assert_eq!(map.record_span(0), (0, 6));
        assert_eq!(map.record_span(1), (6, 12));
        assert!(!map.has_field_offsets());
    }

    #[test]
    fn field_spans_exclude_delimiters() {
        // record "ab|c\n" at offset 0: fields at 0 and 3, record len 5.
        let map = PositionalMap::with_fields(vec![0, 5], vec![0, 3, 5], 2);
        assert!(map.has_field_offsets());
        assert_eq!(map.field_span(0, 0), (0, 2)); // "ab"
        assert_eq!(map.field_span(0, 1), (3, 4)); // "c"
    }

    #[test]
    fn field_spans_second_record() {
        // "a|bb\n" then "cc|d\n" at offset 5.
        let map = PositionalMap::with_fields(vec![0, 5, 10], vec![0, 2, 5, 0, 3, 5], 2);
        assert_eq!(map.field_span(1, 0), (5, 7)); // "cc"
        assert_eq!(map.field_span(1, 1), (8, 9)); // "d"
    }

    #[test]
    fn byte_size_counts_every_table() {
        let map = PositionalMap::with_fields(vec![0, 5], vec![0, 3, 5], 2);
        assert_eq!(map.byte_size(), 2 * 8 + 3 * 4);
        let map = PositionalMap::with_json_values(vec![0, 10, 20], vec![5, 1, 2, 7], 2);
        assert_eq!(map.byte_size(), 3 * 8 + 4 * 4);
        // Record offsets and tape starts at 8 bytes, tape words at 4.
        let map = PositionalMap::with_json_tape(vec![0, 10, 20], vec![0, 3, 7], vec![9; 7]);
        assert_eq!(map.byte_size(), (3 + 3) * 8 + 7 * 4);
    }

    #[test]
    fn json_tapes_slice_per_record_and_empty_means_untaped() {
        // Record 1 has no tape.
        let map = PositionalMap::with_json_tape(
            vec![0, 10, 20, 30],
            vec![0, 2, 2, 5],
            vec![1, 2, 3, 4, 5],
        );
        assert_eq!(map.json_tape(0), Some(&[1, 2][..]));
        assert_eq!(map.json_tape(1), None);
        assert_eq!(map.json_tape(2), Some(&[3, 4, 5][..]));
    }

    #[test]
    fn empty_file_map() {
        let map = PositionalMap::with_json_tape(vec![0], vec![0], Vec::new());
        assert_eq!(map.record_count(), 0);
    }

    #[test]
    fn json_value_offsets_resolve_absolute_with_absent_sentinel() {
        // Two records of 10 bytes; field 1 absent from record 0, field 0
        // absent from record 1.
        let map = PositionalMap::with_json_values(
            vec![0, 10, 20],
            vec![5, JSON_KEY_ABSENT, JSON_KEY_ABSENT, 7],
            2,
        );
        assert!(map.has_json_value_offsets());
        assert!(!map.has_field_offsets());
        assert_eq!(map.json_value_offset(0, 0), Some(5));
        assert_eq!(map.json_value_offset(0, 1), None);
        assert_eq!(map.json_value_offset(1, 0), None);
        assert_eq!(map.json_value_offset(1, 1), Some(17));
    }
}

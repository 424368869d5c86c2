//! Batched tokenizer for **flat** line-delimited JSON: parses the
//! accessed keys of each record straight into typed [`ScratchColumn`]s —
//! no per-record `Value` tree, no per-key `String`, no flattening pass.
//!
//! Two passes per chunk, mirroring the batched CSV tokenizer:
//!
//! 1. a word-at-a-time (SWAR) **structural sweep** over the chunk's bytes
//!    collects every *unescaped* quote position (a quote preceded by an
//!    odd run of backslashes is string content, not a boundary). In valid
//!    JSON unescaped quotes strictly alternate open/close, so this buffer
//!    is the string skeleton of the chunk: every key span, string-value
//!    span and string-inside-skipped-container is a `O(1)` jump instead
//!    of a byte scan;
//! 2. a per-record **key-cursor walk** matches each key (raw bytes — no
//!    decode unless the key itself contains escapes) against the accessed
//!    field names, parses matching values straight into scratch columns,
//!    and skips everything else (unknown keys, unaccessed fields, nested
//!    junk) through the skeleton without materializing a thing.
//!
//! Semantics are byte-identical to the row tokenizer (`json::Cursor`):
//! numbers follow the same integral-vs-float literal rules and schema
//! coercions (float into `Int` truncates, overflow widens, `-0.0` and
//! exponent forms round-trip through the same `str::parse`), escaped
//! strings decode through the *same* `decode_string_at` routine, type
//! mismatches degrade to `Null`, duplicate keys keep the last value, and
//! absent keys are `Null`. Nested shapes never reach this module —
//! `RawFile` scans them batched through their structure tapes
//! (`json::TapeScan`), as it does flat files first mapped by the row
//! path.

use crate::json;
use crate::posmap::{PositionalMap, JSON_KEY_ABSENT};
use crate::raw_batch::byte_eq_mask;
use recache_layout::ScratchColumn;
use recache_types::{Error, Field, Result, ScalarType};

/// A parsed-but-not-yet-pushed value for one accessed field of the record
/// being walked. Staging (instead of pushing mid-record) is what makes
/// arbitrary key order, duplicate keys (last wins) and missing keys
/// (null) line up with the row tokenizer: columns receive exactly one
/// value per record, in slot order, after the record closes.
enum Staged<'a> {
    Missing,
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    /// Escape-free string content, pushed straight from the input bytes
    /// into the column arena (single copy).
    Bytes(&'a [u8]),
    /// Escaped string content, decoded through the row tokenizer's
    /// escape machinery.
    Owned(String),
}

/// Capture context for one record of a first batched scan: the record's
/// slice of the per-accessed-key value-offset slab being built for the
/// positional map (stride = top-level schema field count,
/// [`JSON_KEY_ABSENT`] where the key never appears). Capturing scans
/// match keys against **all** schema names — not just the accessed ones —
/// so the finished map serves any later projection.
struct CaptureRow<'t, 'r> {
    /// Every top-level schema field name.
    all_names: &'t [&'t [u8]],
    /// Schema field index → accessed-slot index, for fields being parsed.
    accessed_of: &'t [Option<usize>],
    /// This record's slab slice, pre-filled with [`JSON_KEY_ABSENT`].
    row: &'r mut [u32],
    /// Record start offset; captured offsets are relative to it.
    line_start: usize,
}

/// Tokenizes records `[rec_lo, rec_hi)` of the `record_offsets` grid into
/// `cols` (one scratch column per projection slot). `accessed_fields`
/// holds `(top-level field index, scalar type, slot)` triples; `fields`
/// is the flat schema the field indices refer to. All fields must be
/// scalar (`RawFile` sends nested schemas to `json::TapeScan`).
///
/// With `capture`, the walk additionally appends one stride of per-key
/// value offsets per record to the slab (see `CaptureRow`); the caller
/// submits the slab toward the positional map only on success, so a
/// retried chunk never corrupts the capture.
#[allow(clippy::too_many_arguments)]
pub fn tokenize_range_into(
    bytes: &[u8],
    record_offsets: &[u64],
    rec_lo: usize,
    rec_hi: usize,
    fields: &[Field],
    accessed_fields: &[(usize, ScalarType, usize)],
    cols: &mut [ScratchColumn],
    mut capture: Option<&mut Vec<u32>>,
) -> Result<()> {
    debug_assert!(
        bytes.len() <= u32::MAX as usize,
        "batched JSON is u32-indexed"
    );
    let range_start = record_offsets[rec_lo] as usize;
    let range_end = record_offsets[rec_hi] as usize;

    // Pass 1: the unescaped-quote skeleton of the window.
    let quotes = quote_index(bytes, range_start, range_end);

    // Pass 2: per-record key-cursor walk.
    let names: Vec<&[u8]> = accessed_fields
        .iter()
        .map(|&(field, _, _)| fields[field].name.as_bytes())
        .collect();
    // Key-matching tables for capture mode only, so the capture-free hot
    // path walks exactly as before.
    let cap_tables = capture.is_some().then(|| {
        let all_names: Vec<&[u8]> = fields.iter().map(|f| f.name.as_bytes()).collect();
        let mut accessed_of: Vec<Option<usize>> = vec![None; fields.len()];
        for (ai, &(field, _, _)) in accessed_fields.iter().enumerate() {
            accessed_of[field] = Some(ai);
        }
        (all_names, accessed_of)
    });
    let mut staged: Vec<Staged<'_>> = (0..accessed_fields.len())
        .map(|_| Staged::Missing)
        .collect();
    let mut qi = 0usize;
    for rec in rec_lo..rec_hi {
        let line_start = record_offsets[rec] as usize;
        let span_end = record_offsets[rec + 1] as usize;
        // Content excludes the trailing newline when one exists (the last
        // record of a file may end at EOF instead).
        let end = if span_end > line_start && bytes[span_end - 1] == b'\n' {
            span_end - 1
        } else {
            span_end
        };
        // Resync the skeleton cursor past any quotes in skipped trailing
        // bytes of the previous record.
        while qi < quotes.len() && (quotes[qi] as usize) < line_start {
            qi += 1;
        }
        for slot in staged.iter_mut() {
            *slot = Staged::Missing;
        }
        let cap = match (capture.as_deref_mut(), &cap_tables) {
            (Some(slab), Some((all_names, accessed_of))) => {
                let base = slab.len();
                slab.resize(base + fields.len(), JSON_KEY_ABSENT);
                Some(CaptureRow {
                    all_names,
                    accessed_of,
                    row: &mut slab[base..],
                    line_start,
                })
            }
            _ => None,
        };
        let mut walk = RecordWalk {
            bytes,
            end,
            pos: line_start,
            quotes: &quotes,
            qi,
        };
        walk.parse_record(&names, accessed_fields, &mut staged, cap)?;
        qi = walk.qi;
        for (slot, &(_, _, col_slot)) in staged.iter_mut().zip(accessed_fields) {
            push_staged(
                &mut cols[col_slot],
                std::mem::replace(slot, Staged::Missing),
            );
        }
    }
    Ok(())
}

fn push_staged(col: &mut ScratchColumn, staged: Staged<'_>) {
    match staged {
        Staged::Missing | Staged::Null => col.push_null(),
        Staged::Int(v) => col.push_int(v),
        Staged::Float(v) => col.push_float(v),
        Staged::Bool(v) => col.push_bool(v),
        Staged::Bytes(s) => col.push_str_bytes(s),
        Staged::Owned(s) => col.push_str_bytes(s.as_bytes()),
    }
}

/// Mapped re-scan: parses `records` (a window of the file or the ids of
/// a lazy entry) through a positional map carrying per-key value offsets
/// ([`PositionalMap::has_json_value_offsets`]). Each accessed field
/// seeks straight to its captured value start and parses just that value
/// — no record walk, no key matching, no quote skeleton, and every
/// unaccessed key's bytes are never touched. Value semantics (schema
/// coercions, escape decoding, nulls for absent keys) are identical to
/// the tokenizing path: the shared number/string routines do the work.
pub fn parse_records_with_map(
    bytes: &[u8],
    map: &PositionalMap,
    records: impl IntoIterator<Item = usize>,
    accessed_fields: &[(usize, ScalarType, usize)],
    cols: &mut [ScratchColumn],
) -> Result<()> {
    for rec in records {
        let (start, span_end) = map.record_span(rec);
        let end = if span_end > start && bytes[span_end - 1] == b'\n' {
            span_end - 1
        } else {
            span_end
        };
        for &(field, ty, col_slot) in accessed_fields {
            let col = &mut cols[col_slot];
            match map.json_value_offset(rec, field) {
                None => col.push_null(),
                Some(pos) => push_value_at(bytes, pos, end, ty, col)?,
            }
        }
    }
    Ok(())
}

/// Parses the single JSON value starting at `pos` (bounded by the record
/// content end) under schema type `ty` and pushes it. Mirrors
/// [`RecordWalk::stage_value`]'s coercions exactly; the value was walked
/// by the capturing first scan, so `pos` is its exact first byte.
fn push_value_at(
    bytes: &[u8],
    pos: usize,
    end: usize,
    ty: ScalarType,
    col: &mut ScratchColumn,
) -> Result<()> {
    let expect_lit = |lit: &[u8]| -> Result<()> {
        if end - pos >= lit.len() && &bytes[pos..pos + lit.len()] == lit {
            Ok(())
        } else {
            Err(Error::parse_at(
                format!("expected '{}'", String::from_utf8_lossy(lit)),
                pos,
            ))
        }
    };
    match bytes.get(pos).copied() {
        Some(b'n') => {
            expect_lit(b"null")?;
            col.push_null();
        }
        Some(b't') => {
            expect_lit(b"true")?;
            push_staged(col, stage_bool(true, ty));
        }
        Some(b'f') => {
            expect_lit(b"false")?;
            push_staged(col, stage_bool(false, ty));
        }
        Some(b'"') => {
            if ty != ScalarType::Str {
                // String into a non-string field: null, as everywhere.
                col.push_null();
                return Ok(());
            }
            // Local closing-quote scan with escape awareness — cheaper
            // than a chunk-wide skeleton when only this value is read.
            let mut i = pos + 1;
            let mut saw_escape = false;
            loop {
                if i >= end {
                    return Err(Error::parse_at("unterminated string", pos));
                }
                match bytes[i] {
                    b'\\' => {
                        saw_escape = true;
                        i += 2;
                    }
                    b'"' => break,
                    _ => i += 1,
                }
            }
            if saw_escape {
                let (s, _) = json::decode_string_at(bytes, pos)?;
                col.push_str_bytes(s.as_bytes());
            } else {
                let span = &bytes[pos + 1..i];
                std::str::from_utf8(span)
                    .map_err(|_| Error::parse_at("invalid utf-8 in string", pos + 1))?;
                col.push_str_bytes(span);
            }
        }
        Some(b'{') | Some(b'[') => col.push_null(),
        Some(_) => {
            let (num, _) = json::parse_number_at(&bytes[..end], pos)?;
            push_staged(
                col,
                match ty {
                    ScalarType::Int => Staged::Int(num.as_i64().unwrap_or(0)),
                    ScalarType::Float => Staged::Float(num.as_f64().unwrap_or(0.0)),
                    ScalarType::Bool | ScalarType::Str => Staged::Null,
                },
            );
        }
        None => return Err(Error::parse_at("unexpected end of input", pos)),
    }
    Ok(())
}

/// Absolute positions of every unescaped `"` in `bytes[start..end)`,
/// ascending. The SWAR sweep visits quote and backslash bytes only; a
/// quote immediately preceded by an odd-length backslash run is escaped
/// string content and excluded.
fn quote_index(bytes: &[u8], start: usize, end: usize) -> Vec<u32> {
    struct Sweep {
        quotes: Vec<u32>,
        last_bs: usize,
        bs_run: usize,
    }
    impl Sweep {
        #[inline]
        fn note(&mut self, pos: usize, b: u8) {
            if b == b'\\' {
                if self.last_bs.wrapping_add(1) == pos {
                    self.bs_run += 1;
                } else {
                    self.bs_run = 1;
                }
                self.last_bs = pos;
            } else if !(self.last_bs.wrapping_add(1) == pos && self.bs_run % 2 == 1) {
                self.quotes.push(pos as u32);
            }
        }
    }
    let window = &bytes[start..end];
    let mut sweep = Sweep {
        quotes: Vec::with_capacity(window.len() / 16 + 8),
        last_bs: usize::MAX,
        bs_run: 0,
    };
    let mut i = 0usize;
    while i + 8 <= window.len() {
        let word = u64::from_le_bytes(window[i..i + 8].try_into().expect("8-byte window"));
        let mut mask = byte_eq_mask(word, b'"') | byte_eq_mask(word, b'\\');
        while mask != 0 {
            let pos = i + (mask.trailing_zeros() / 8) as usize;
            sweep.note(start + pos, window[pos]);
            mask &= mask - 1;
        }
        i += 8;
    }
    for (pos, &b) in window.iter().enumerate().skip(i) {
        if b == b'"' || b == b'\\' {
            sweep.note(start + pos, b);
        }
    }
    sweep.quotes
}

/// Cursor over one record's bytes (`[pos, end)`) plus the chunk-wide
/// quote skeleton. Whitespace, `expect`, literal and number handling
/// mirror the row tokenizer's `Cursor` exactly.
struct RecordWalk<'a> {
    bytes: &'a [u8],
    end: usize,
    pos: usize,
    quotes: &'a [u32],
    qi: usize,
}

impl<'a> RecordWalk<'a> {
    #[inline]
    fn skip_ws(&mut self) {
        while self.pos < self.end && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        if self.pos < self.end {
            Some(self.bytes[self.pos])
        } else {
            None
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse_at(
                format!("expected '{}'", b as char),
                self.pos,
            ))
        }
    }

    fn try_consume(&mut self, b: u8) -> bool {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// At an opening quote: returns the content span and advances past
    /// the closing quote, consuming the pair from the skeleton. The
    /// cursor resync at entry tolerates quotes skipped over by the
    /// lenient scalar skip.
    fn string_span(&mut self) -> Result<(usize, usize)> {
        while self.qi < self.quotes.len() && (self.quotes[self.qi] as usize) < self.pos {
            self.qi += 1;
        }
        if self.qi + 1 >= self.quotes.len() || self.quotes[self.qi] as usize != self.pos {
            return Err(Error::parse_at("unterminated string", self.pos));
        }
        let close = self.quotes[self.qi + 1] as usize;
        if close >= self.end {
            return Err(Error::parse_at("unterminated string", self.pos));
        }
        let open = self.pos;
        self.qi += 2;
        self.pos = close + 1;
        Ok((open + 1, close))
    }

    /// Skips a `{...}` / `[...]` value (unknown keys carrying nested
    /// junk, or a container where a scalar was expected): depth counting
    /// over structural bytes, with strings jumped through the skeleton.
    fn skip_container(&mut self) -> Result<()> {
        let mut depth = 0usize;
        while self.pos < self.end {
            match self.bytes[self.pos] {
                b'{' | b'[' => {
                    depth += 1;
                    self.pos += 1;
                }
                b'}' | b']' => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        return Ok(());
                    }
                }
                b'"' => {
                    self.string_span()?;
                }
                _ => self.pos += 1,
            }
        }
        Err(Error::parse_at("unterminated container", self.pos))
    }

    /// Skips any value without materializing it — same leniency as the
    /// row tokenizer's `skip_value` (scalars scan to the next
    /// `,` / `}` / `]`, nothing inside is validated).
    fn skip_value_lenient(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string_span().map(|_| ()),
            Some(b'{') | Some(b'[') => self.skip_container(),
            Some(_) => {
                while let Some(b) = self.peek() {
                    match b {
                        b',' | b'}' | b']' => break,
                        _ => self.pos += 1,
                    }
                }
                Ok(())
            }
            None => Err(Error::parse_at("unexpected end of input", self.pos)),
        }
    }

    fn expect_literal(&mut self, lit: &[u8]) -> Result<()> {
        if self.end - self.pos >= lit.len() && &self.bytes[self.pos..self.pos + lit.len()] == lit {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error::parse_at(
                format!("expected '{}'", String::from_utf8_lossy(lit)),
                self.pos,
            ))
        }
    }

    /// Parses a number literal and stages it under the schema type. The
    /// literal itself goes through the row tokenizer's *own*
    /// `parse_number_at` (shared, like string decoding), and the schema
    /// coercions mirror `parse_typed` exactly: `Float` into an `Int`
    /// field truncates (`as_i64`), `Int` into a `Float` field widens,
    /// numbers into bool/string fields degrade to null.
    fn stage_number(&mut self, ty: ScalarType) -> Result<Staged<'a>> {
        self.skip_ws();
        // Bound the shared parser by the record end, as the row
        // tokenizer's per-record cursor is.
        let (num, pos) = json::parse_number_at(&self.bytes[..self.end], self.pos)?;
        self.pos = pos;
        Ok(match ty {
            ScalarType::Int => Staged::Int(num.as_i64().unwrap_or(0)),
            ScalarType::Float => Staged::Float(num.as_f64().unwrap_or(0.0)),
            ScalarType::Bool | ScalarType::Str => Staged::Null,
        })
    }

    /// Parses an accessed field's value under its schema type.
    fn stage_value(&mut self, ty: ScalarType) -> Result<Staged<'a>> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.expect_literal(b"null")?;
                Ok(Staged::Null)
            }
            Some(b't') => {
                self.expect_literal(b"true")?;
                Ok(stage_bool(true, ty))
            }
            Some(b'f') => {
                self.expect_literal(b"false")?;
                Ok(stage_bool(false, ty))
            }
            Some(b'"') => {
                let open = self.pos;
                let (lo, hi) = self.string_span()?;
                if ty != ScalarType::Str {
                    // String into a non-string field: null, as in the
                    // row path's type-mismatch tolerance.
                    return Ok(Staged::Null);
                }
                let span = &self.bytes[lo..hi];
                if span.contains(&b'\\') {
                    let (s, _) = json::decode_string_at(self.bytes, open)?;
                    Ok(Staged::Owned(s))
                } else {
                    std::str::from_utf8(span)
                        .map_err(|_| Error::parse_at("invalid utf-8 in string", lo))?;
                    Ok(Staged::Bytes(span))
                }
            }
            Some(b'{') | Some(b'[') => {
                self.skip_container()?;
                Ok(Staged::Null)
            }
            Some(_) => self.stage_number(ty),
            None => Err(Error::parse_at("unexpected end of input", self.pos)),
        }
    }

    /// Walks one `{...}` record, staging accessed fields and skipping the
    /// rest. Keys match as raw bytes against the accessed names (decoded
    /// first only when the key itself contains escapes); keys are
    /// UTF-8-validated exactly as the row tokenizer's `parse_str`
    /// validates every key it touches.
    ///
    /// With `capture`, keys match against the full schema instead and
    /// each match records its value's start offset (relative to the
    /// record start) into the capture row; duplicate keys overwrite, so
    /// the map points at the last occurrence — the one whose value the
    /// staging below also keeps.
    fn parse_record(
        &mut self,
        names: &[&[u8]],
        accessed_fields: &[(usize, ScalarType, usize)],
        staged: &mut [Staged<'a>],
        mut capture: Option<CaptureRow<'_, '_>>,
    ) -> Result<()> {
        self.expect(b'{')?;
        if self.try_consume(b'}') {
            return Ok(());
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(Error::parse_at("expected '\"'", self.pos));
            }
            let key_open = self.pos;
            let (klo, khi) = self.string_span()?;
            let key_span = &self.bytes[klo..khi];
            // `slot` is the accessed-field index to stage into;
            // `field` is the schema field index to capture under.
            let (slot, field) = if key_span.contains(&b'\\') {
                let (decoded, _) = json::decode_string_at(self.bytes, key_open)?;
                match &capture {
                    Some(cap) => {
                        let fi = cap.all_names.iter().position(|n| *n == decoded.as_bytes());
                        (fi.and_then(|f| cap.accessed_of[f]), fi)
                    }
                    None => (names.iter().position(|n| *n == decoded.as_bytes()), None),
                }
            } else {
                std::str::from_utf8(key_span)
                    .map_err(|_| Error::parse_at("invalid utf-8 in string", klo))?;
                match &capture {
                    Some(cap) => {
                        let fi = cap.all_names.iter().position(|n| *n == key_span);
                        (fi.and_then(|f| cap.accessed_of[f]), fi)
                    }
                    None => (names.iter().position(|n| *n == key_span), None),
                }
            };
            self.expect(b':')?;
            if let (Some(cap), Some(fi)) = (capture.as_mut(), field) {
                // Land the offset on the value's first byte (stage_value
                // and skip_value_lenient both tolerate leading ws, so the
                // walk itself hasn't consumed it yet).
                self.skip_ws();
                cap.row[fi] = (self.pos - cap.line_start) as u32;
            }
            match slot {
                Some(ai) => staged[ai] = self.stage_value(accessed_fields[ai].1)?,
                None => self.skip_value_lenient()?,
            }
            if !self.try_consume(b',') {
                break;
            }
        }
        self.expect(b'}')?;
        Ok(())
    }
}

fn stage_bool(b: bool, ty: ScalarType) -> Staged<'static> {
    match ty {
        ScalarType::Bool => Staged::Bool(b),
        // Bool into an int field coerces, everything else degrades to
        // null — `coerce_bool` in the row tokenizer.
        ScalarType::Int => Staged::Int(i64::from(b)),
        ScalarType::Float | ScalarType::Str => Staged::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw_batch::index_records;
    use recache_types::{DataType, Value};

    fn flat_fields() -> Vec<Field> {
        vec![
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new("b", DataType::Bool),
        ]
    }

    fn tokenize_all(bytes: &[u8], fields: &[Field]) -> Result<Vec<Vec<Value>>> {
        let accessed: Vec<(usize, ScalarType, usize)> = fields
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.data_type.as_scalar().unwrap(), i))
            .collect();
        let mut cols: Vec<ScratchColumn> = accessed
            .iter()
            .map(|&(_, ty, _)| ScratchColumn::new(ty))
            .collect();
        let offsets = index_records(bytes);
        let n = offsets.len() - 1;
        tokenize_range_into(bytes, &offsets, 0, n, fields, &accessed, &mut cols, None)?;
        let views: Vec<_> = cols.iter().map(|c| c.as_batch_column()).collect();
        Ok((0..n)
            .map(|r| views.iter().map(|v| v.value(r)).collect())
            .collect())
    }

    #[test]
    fn parses_keys_in_any_order_with_missing_and_unknown_keys() {
        let fields = flat_fields();
        let bytes = concat!(
            "{\"s\":\"x\",\"i\":3}\n",
            "{\"junk\":[1,{\"w\":\"}\"}],\"f\":2.5,\"b\":true,\"i\":-7}\n",
            "{}\n",
            "{\"b\":false,\"unknown\":\"a,b:c\"}\n",
        )
        .as_bytes()
        .to_vec();
        let rows = tokenize_all(&bytes, &fields).unwrap();
        assert_eq!(
            rows[0],
            vec![Value::Int(3), Value::Null, Value::from("x"), Value::Null]
        );
        assert_eq!(
            rows[1],
            vec![
                Value::Int(-7),
                Value::Float(2.5),
                Value::Null,
                Value::Bool(true)
            ]
        );
        assert_eq!(rows[2], vec![Value::Null; 4]);
        assert_eq!(
            rows[3],
            vec![Value::Null, Value::Null, Value::Null, Value::Bool(false)]
        );
    }

    #[test]
    fn escapes_and_numeric_edge_forms_match_row_semantics() {
        let fields = flat_fields();
        let bytes = concat!(
            "{\"s\":\"a\\\"b\\\\c\\nd\\u00e9\",\"i\":3.9,\"f\":4}\n",
            "{\"i\":-0.0,\"f\":-1.5e2,\"s\":\"plain\"}\n",
            "{\"i\":1e3,\"f\":2.5e-2,\"b\":1}\n",
        )
        .as_bytes()
        .to_vec();
        let rows = tokenize_all(&bytes, &fields).unwrap();
        assert_eq!(rows[0][2], Value::from("a\"b\\c\ndé"));
        assert_eq!(rows[0][0], Value::Int(3)); // float into int truncates
        assert_eq!(rows[0][1], Value::Float(4.0)); // int widens
        assert_eq!(rows[1][0], Value::Int(0)); // -0.0 truncates to 0
        assert_eq!(rows[1][1], Value::Float(-150.0));
        assert_eq!(rows[2][0], Value::Int(1000));
        assert_eq!(rows[2][1], Value::Float(0.025));
        assert_eq!(rows[2][3], Value::Null); // number into bool -> null
    }

    #[test]
    fn type_mismatches_and_explicit_nulls_degrade_like_the_row_path() {
        let fields = flat_fields();
        let bytes = concat!(
            "{\"i\":\"nope\",\"s\":42,\"b\":null,\"f\":true}\n",
            "{\"i\":true,\"s\":{\"nested\":1},\"f\":[1,2]}\n",
        )
        .as_bytes()
        .to_vec();
        let rows = tokenize_all(&bytes, &fields).unwrap();
        assert_eq!(rows[0], vec![Value::Null; 4]);
        // Bool into int coerces; containers into scalars degrade to null.
        assert_eq!(
            rows[1],
            vec![Value::Int(1), Value::Null, Value::Null, Value::Null]
        );
    }

    #[test]
    fn duplicate_keys_keep_the_last_value() {
        let fields = flat_fields();
        let rows = tokenize_all(b"{\"i\":1,\"i\":2}\n", &fields).unwrap();
        assert_eq!(rows[0][0], Value::Int(2));
    }

    #[test]
    fn malformed_records_error() {
        let fields = flat_fields();
        assert!(tokenize_all(b"{\"i\":}\n", &fields).is_err());
        assert!(tokenize_all(b"{\"i\":1\n", &fields).is_err());
        assert!(tokenize_all(b"{\"i\" 1}\n", &fields).is_err());
        assert!(tokenize_all(b"{\"s\":\"unterminated}\n", &fields).is_err());
        assert!(tokenize_all(b"not json\n", &fields).is_err());
    }

    #[test]
    fn quote_index_handles_escape_parity() {
        // "a\"b" and "c\\" — the escaped quote is excluded, the quote
        // after an even backslash run is not.
        let bytes = br#"{"k":"a\"b","m":"c\\"}"#;
        let quotes = quote_index(bytes, 0, bytes.len());
        let expected: Vec<u32> = vec![1, 3, 5, 10, 12, 14, 16, 20];
        assert_eq!(quotes, expected);
    }
}

//! From-scratch CSV reader/writer (TPC-H style: `|`-delimited, no quoting).
//!
//! The reader works in two regimes, mirroring in-situ engines:
//! * **first scan** — tokenizes every record, parses the requested fields,
//!   and builds a [`PositionalMap`] with per-field offsets as a side effect;
//! * **mapped scan** — navigates directly to the requested fields through
//!   the positional map, paying nothing for the fields a query skips.

use crate::posmap::PositionalMap;
use crate::raw_batch::byte_eq_mask;
// Re-exported from the shared raw-batch machinery (the record index is
// format-agnostic; both the CSV and JSON batched paths partition on it).
pub use crate::raw_batch::index_records;
use recache_layout::{FlatColumnBuilder, ScratchColumn};
use recache_types::{Error, Result, ScalarType, Schema, Value};

/// Field delimiter: TPC-H convention.
pub const DELIMITER: u8 = b'|';

/// Serializes flat records (one scalar per schema field) into CSV bytes.
pub fn write_csv(schema: &Schema, records: &[Vec<Value>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * schema.len() * 8);
    for record in records {
        debug_assert_eq!(record.len(), schema.len());
        for (i, value) in record.iter().enumerate() {
            if i > 0 {
                out.push(DELIMITER);
            }
            write_scalar(&mut out, value);
        }
        out.push(b'\n');
    }
    out
}

fn write_scalar(out: &mut Vec<u8>, value: &Value) {
    match value {
        Value::Null => {}
        Value::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        Value::Int(v) => {
            let mut buf = itoa_buffer();
            out.extend_from_slice(format_i64(*v, &mut buf));
        }
        Value::Float(v) => out.extend_from_slice(format_f64(*v).as_bytes()),
        Value::Str(s) => {
            debug_assert!(
                !s.bytes().any(|b| b == DELIMITER || b == b'\n'),
                "CSV strings must not contain delimiter or newline"
            );
            out.extend_from_slice(s.as_bytes());
        }
        Value::List(_) | Value::Struct(_) => {
            unreachable!("CSV schemas contain only scalar fields")
        }
    }
}

fn itoa_buffer() -> [u8; 20] {
    [0u8; 20]
}

/// Integer formatting without heap allocation.
fn format_i64(mut v: i64, buf: &mut [u8; 20]) -> &[u8] {
    if v == 0 {
        buf[0] = b'0';
        return &buf[..1];
    }
    let negative = v < 0;
    let mut i = buf.len();
    // Work with negative values to handle i64::MIN.
    if v > 0 {
        v = -v;
    }
    while v != 0 {
        i -= 1;
        buf[i] = b'0' + (-(v % 10)) as u8;
        v /= 10;
    }
    if negative {
        i -= 1;
        buf[i] = b'-';
    }
    let len = buf.len() - i;
    buf.copy_within(i.., 0);
    &buf[..len]
}

fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
        format!("{v:.2}")
    } else {
        format!("{v}")
    }
}

/// Parses one CSV field into a value of the given scalar type. Empty
/// fields are `Null`.
pub fn parse_field(bytes: &[u8], ty: ScalarType) -> Result<Value> {
    if bytes.is_empty() {
        return Ok(Value::Null);
    }
    match ty {
        ScalarType::Int => parse_i64(bytes).map(Value::Int).ok_or_else(|| {
            Error::parse(format!("invalid int: {}", String::from_utf8_lossy(bytes)))
        }),
        ScalarType::Float => std::str::from_utf8(bytes)
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Float)
            .ok_or_else(|| {
                Error::parse(format!("invalid float: {}", String::from_utf8_lossy(bytes)))
            }),
        ScalarType::Bool => match bytes {
            b"true" | b"1" => Ok(Value::Bool(true)),
            b"false" | b"0" => Ok(Value::Bool(false)),
            _ => Err(Error::parse(format!(
                "invalid bool: {}",
                String::from_utf8_lossy(bytes)
            ))),
        },
        ScalarType::Str => Ok(Value::Str(String::from_utf8_lossy(bytes).into_owned())),
    }
}

/// Parses one CSV field straight into a typed scratch column — the
/// batched tokenizer's and cache materialization's hot path. No
/// intermediate [`Value`], and string fields copy their bytes exactly
/// once, directly into the column's arena (where [`parse_field`]
/// allocates an owned `String` per field). Empty fields append nulls and
/// invalid UTF-8 is replaced as [`parse_field`] replaces it, so the
/// column holds exactly the values [`parse_field`] returns.
#[inline]
pub fn parse_field_into(bytes: &[u8], ty: ScalarType, col: &mut ScratchColumn) -> Result<()> {
    if bytes.is_empty() {
        col.push_null();
        return Ok(());
    }
    match ty {
        ScalarType::Int => match parse_i64(bytes) {
            Some(v) => col.push_int(v),
            None => {
                return Err(Error::parse(format!(
                    "invalid int: {}",
                    String::from_utf8_lossy(bytes)
                )))
            }
        },
        ScalarType::Float => match parse_f64_fast(bytes).or_else(|| {
            std::str::from_utf8(bytes)
                .ok()
                .and_then(|s| s.parse::<f64>().ok())
        }) {
            Some(v) => col.push_float(v),
            None => {
                return Err(Error::parse(format!(
                    "invalid float: {}",
                    String::from_utf8_lossy(bytes)
                )))
            }
        },
        ScalarType::Bool => match bytes {
            b"true" | b"1" => col.push_bool(true),
            b"false" | b"0" => col.push_bool(false),
            _ => {
                return Err(Error::parse(format!(
                    "invalid bool: {}",
                    String::from_utf8_lossy(bytes)
                )))
            }
        },
        ScalarType::Str => col.push_str_bytes(String::from_utf8_lossy(bytes).as_bytes()),
    }
    Ok(())
}

/// Exact fast-path float parse for the plain `[-]digits[.digits]` forms
/// the CSV writer emits. When the significand fits in 15 decimal digits
/// it is exactly representable as an integer-valued `f64`, and for a
/// fraction of at most 22 digits the power of ten is exact too, so the
/// single division `mantissa / 10^frac` rounds exactly once — the result
/// is **bit-identical** to `str::parse::<f64>` (both are the correctly
/// rounded nearest double of the same rational). Anything else —
/// exponents, >15 significant digits, inf/nan — returns `None` and falls
/// back to the std parser.
#[inline]
pub(crate) fn parse_f64_fast(bytes: &[u8]) -> Option<f64> {
    const POW10: [f64; 23] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
        1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
    ];
    let (neg, rest) = match bytes.first()? {
        b'-' => (true, &bytes[1..]),
        b'+' => (false, &bytes[1..]),
        _ => (false, bytes),
    };
    let mut mantissa: u64 = 0;
    let mut digits = 0usize;
    let mut frac = 0usize;
    let mut seen_dot = false;
    for &b in rest {
        match b {
            b'0'..=b'9' => {
                mantissa = mantissa.wrapping_mul(10) + u64::from(b - b'0');
                digits += 1;
                if seen_dot {
                    frac += 1;
                }
            }
            b'.' if !seen_dot => seen_dot = true,
            _ => return None,
        }
    }
    // ≤ 15 digits also bounds the wrapping arithmetic above well below
    // overflow.
    if digits == 0 || digits > 15 || frac >= POW10.len() {
        return None;
    }
    let v = mantissa as f64 / POW10[frac];
    Some(if neg { -v } else { v })
}

/// Hand-rolled integer parse: the hot path of CSV scans.
fn parse_i64(bytes: &[u8]) -> Option<i64> {
    let (negative, digits) = match bytes.first()? {
        b'-' => (true, &bytes[1..]),
        b'+' => (false, &bytes[1..]),
        _ => (false, bytes),
    };
    if digits.is_empty() {
        return None;
    }
    let mut acc: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return None;
        }
        acc = acc.checked_mul(10)?.checked_sub(i64::from(b - b'0'))?;
    }
    if negative {
        Some(acc)
    } else {
        acc.checked_neg()
    }
}

/// Full tokenizing scan. Invokes `on_record` with the parsed values of the
/// `accessed` fields (in schema order, compacted) and returns the
/// positional map built along the way.
pub fn scan_build_map(
    bytes: &[u8],
    schema: &Schema,
    accessed: &[bool],
    mut on_record: impl FnMut(usize, Vec<Value>) -> Result<()>,
) -> Result<PositionalMap> {
    let n_fields = schema.len();
    let stride = n_fields + 1;
    let approx_records = bytes.len() / 32 + 1;
    let mut record_offsets = Vec::with_capacity(approx_records + 1);
    let mut field_offsets: Vec<u32> = Vec::with_capacity(approx_records * stride);
    let n_accessed = accessed.iter().filter(|&&a| a).count();
    let types: Vec<ScalarType> = schema
        .fields()
        .iter()
        .map(|f| f.data_type.as_scalar().expect("CSV fields are scalars"))
        .collect();

    let mut pos = 0usize;
    let mut record_id = 0usize;
    while pos < bytes.len() {
        record_offsets.push(pos as u64);
        let line_start = pos;
        let mut field = 0usize;
        let mut field_start = pos;
        let mut values = Vec::with_capacity(n_accessed);
        loop {
            let b = if pos < bytes.len() { bytes[pos] } else { b'\n' };
            if b == DELIMITER || b == b'\n' {
                if field >= n_fields {
                    return Err(Error::parse_at(
                        format!("record {record_id} has more than {n_fields} fields"),
                        pos,
                    ));
                }
                field_offsets.push((field_start - line_start) as u32);
                if accessed[field] {
                    values.push(parse_field(&bytes[field_start..pos], types[field])?);
                }
                field += 1;
                field_start = pos + 1;
                if b == b'\n' {
                    break;
                }
            }
            pos += 1;
        }
        if field != n_fields {
            return Err(Error::parse_at(
                format!("record {record_id} has {field} fields, expected {n_fields}"),
                pos,
            ));
        }
        // Past the (possibly virtual, at EOF) newline. The record-length
        // slot includes it, so `field_span`'s `end - 1` always lands on
        // the delimiter that follows the field.
        pos = pos.min(bytes.len()) + 1;
        field_offsets.push((pos - line_start) as u32);
        on_record(record_id, values)?;
        record_id += 1;
    }
    record_offsets.push(bytes.len() as u64);
    Ok(PositionalMap::with_fields(
        record_offsets,
        field_offsets,
        n_fields,
    ))
}

/// Batched tokenizing scan over records `[rec_lo, rec_hi)` of the
/// [`index_records`] grid, in two tight passes:
///
/// 1. one word-at-a-time (SWAR) sweep over the window's bytes collects
///    every delimiter/newline position into a positions buffer;
/// 2. a per-record walk over that buffer validates the field count with
///    one O(1) check (valid records have exactly `n_fields - 1`
///    delimiters), bulk-appends the capture offsets, and parses **only
///    the accessed fields**, located by direct position indexing — the
///    per-byte tokenize branch and the per-unaccessed-field walk of the
///    row tokenizer both disappear.
///
/// `capture`, when given, receives per-record field offsets in exactly
/// [`scan_build_map`]'s layout (stride `n_fields + 1`, relative to the
/// record start, final slot = record length incl. newline), so
/// per-window capture slabs concatenate into a full positional map.
///
/// When the positional map no longer needs this window's capture
/// (`capture = None` — e.g. a redundant re-scan of a chunk whose slab is
/// already filled), the scan switches to a bounded per-record tokenize
/// that stops at the last *accessed* field and never examines the
/// trailing unaccessed bytes of each record — the same trust level as a
/// mapped re-scan, which already knows its field bounds. Full
/// field-count validation only happens in capture mode (the pass that
/// builds the map is the pass that vouches for the file).
#[allow(clippy::too_many_arguments)]
pub fn tokenize_range_into(
    bytes: &[u8],
    record_offsets: &[u64],
    rec_lo: usize,
    rec_hi: usize,
    n_fields: usize,
    accessed_fields: &[(usize, ScalarType, usize)],
    cols: &mut [ScratchColumn],
    capture: Option<&mut Vec<u32>>,
) -> Result<()> {
    let Some(capture) = capture else {
        return tokenize_range_skip_trailing(
            bytes,
            record_offsets,
            rec_lo,
            rec_hi,
            n_fields,
            accessed_fields,
            cols,
        );
    };
    let range_start = record_offsets[rec_lo] as usize;
    let range_end = record_offsets[rec_hi] as usize;
    debug_assert!(
        bytes.len() <= u32::MAX as usize,
        "batched CSV is u32-indexed"
    );

    // Pass 1: every '|' and '\n' position in the window, ascending.
    let window = &bytes[range_start..range_end];
    let mut positions: Vec<u32> = Vec::with_capacity((rec_hi - rec_lo) * (n_fields + 1));
    let mut i = 0usize;
    while i + 8 <= window.len() {
        let word = u64::from_le_bytes(window[i..i + 8].try_into().expect("8-byte window"));
        let mut mask = byte_eq_mask(word, DELIMITER) | byte_eq_mask(word, b'\n');
        while mask != 0 {
            positions.push((range_start + i) as u32 + mask.trailing_zeros() / 8);
            mask &= mask - 1;
        }
        i += 8;
    }
    for (pos, &b) in window.iter().enumerate().skip(i) {
        if b == DELIMITER || b == b'\n' {
            positions.push((range_start + pos) as u32);
        }
    }

    // Pass 2: per-record walk. The positions at cursor `p` are this
    // record's field delimiters, then (when present) its newline.
    let d = n_fields.saturating_sub(1);
    let mut p = 0usize;
    for rec in rec_lo..rec_hi {
        let line_start = record_offsets[rec] as usize;
        let span_end = record_offsets[rec + 1] as usize;
        // Content excludes the trailing newline when one exists (the
        // last record of a file may end at EOF instead).
        let content_end = if span_end > line_start && bytes[span_end - 1] == b'\n' {
            span_end - 1
        } else {
            span_end
        };
        let content_end_u32 = content_end as u32;
        // Exactly `d` delimiters before the record's end?
        let valid = p + d <= positions.len()
            && (d == 0 || positions[p + d - 1] < content_end_u32)
            && positions.get(p + d).is_none_or(|&x| x >= content_end_u32);
        if !valid {
            let mut found = 0usize;
            while p + found < positions.len() && positions[p + found] < content_end_u32 {
                found += 1;
            }
            return Err(Error::parse_at(
                format!("record {rec} has {} fields, expected {n_fields}", found + 1),
                content_end,
            ));
        }
        // Capture: field starts (relative), then the record-length slot
        // counting the (possibly virtual) newline — same convention as
        // `scan_build_map`.
        capture.push(0);
        let base = line_start as u32;
        capture.extend(positions[p..p + d].iter().map(|&pos| pos + 1 - base));
        capture.push(content_end_u32 + 1 - base);
        // Parse the accessed fields, located by direct indexing.
        for &(field, ty, slot) in accessed_fields {
            let start = if field == 0 {
                line_start
            } else {
                positions[p + field - 1] as usize + 1
            };
            let end = if field == d {
                content_end
            } else {
                positions[p + field] as usize
            };
            parse_field_into(&bytes[start..end], ty, &mut cols[slot])?;
        }
        p += d;
        // Consume the record's own newline position, if present.
        if positions.get(p) == Some(&content_end_u32) {
            p += 1;
        }
    }
    Ok(())
}

/// Capture-free batched tokenize: per record, delimiters are collected
/// only until every *accessed* field is bounded, then the cursor jumps
/// straight to the next record start (known from the index) — trailing
/// unaccessed fields are never tokenized, parsed, or even read. Used for
/// first-scan chunks whose capture slab is already filled (a redundant
/// re-scan can't contribute to the positional map, so it shouldn't pay
/// for it either).
fn tokenize_range_skip_trailing(
    bytes: &[u8],
    record_offsets: &[u64],
    rec_lo: usize,
    rec_hi: usize,
    n_fields: usize,
    accessed_fields: &[(usize, ScalarType, usize)],
    cols: &mut [ScratchColumn],
) -> Result<()> {
    let Some(max_field) = accessed_fields.iter().map(|&(f, _, _)| f).max() else {
        // Nothing projected (count(*)-style): the record windows alone
        // carry all the information this scan produces.
        return Ok(());
    };
    let d = n_fields.saturating_sub(1);
    // Delimiters needed to bound every accessed field: the max accessed
    // field ends at its following delimiter, or at the record end when
    // it is the schema's last field.
    let needed = if max_field == d {
        max_field
    } else {
        max_field + 1
    };
    let mut positions: Vec<u32> = Vec::with_capacity(needed + 8);
    for rec in rec_lo..rec_hi {
        let line_start = record_offsets[rec] as usize;
        let span_end = record_offsets[rec + 1] as usize;
        let content_end = if span_end > line_start && bytes[span_end - 1] == b'\n' {
            span_end - 1
        } else {
            span_end
        };
        positions.clear();
        let mut i = line_start;
        while positions.len() < needed && i + 8 <= content_end {
            let word = u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte window"));
            let mut mask = byte_eq_mask(word, DELIMITER);
            while mask != 0 {
                positions.push(i as u32 + mask.trailing_zeros() / 8);
                mask &= mask - 1;
            }
            i += 8;
        }
        while positions.len() < needed && i < content_end {
            if bytes[i] == DELIMITER {
                positions.push(i as u32);
            }
            i += 1;
        }
        if positions.len() < needed {
            return Err(Error::parse_at(
                format!(
                    "record {rec} has {} fields, expected {n_fields}",
                    positions.len() + 1
                ),
                content_end,
            ));
        }
        for &(field, ty, slot) in accessed_fields {
            let start = if field == 0 {
                line_start
            } else {
                positions[field - 1] as usize + 1
            };
            let end = if field == d {
                content_end
            } else {
                positions[field] as usize
            };
            parse_field_into(&bytes[start..end], ty, &mut cols[slot])?;
        }
    }
    Ok(())
}

/// Batched positional-map scan over `records` (a window of the file or
/// the ids of a lazy entry): parses the accessed fields (`(field, type,
/// slot)` triples) through the map's field spans, straight into typed
/// scratch columns.
pub fn parse_records_with_map(
    bytes: &[u8],
    map: &PositionalMap,
    records: impl IntoIterator<Item = usize>,
    accessed_fields: &[(usize, ScalarType, usize)],
    cols: &mut [ScratchColumn],
) -> Result<()> {
    for rec in records {
        for &(field, ty, slot) in accessed_fields {
            let (start, end) = map.field_span(rec, field);
            parse_field_into(&bytes[start..end.min(bytes.len())], ty, &mut cols[slot])?;
        }
    }
    Ok(())
}

/// Appends one full record by id, its fields parsed through the map's
/// spans, as one row of `builder` — the materialization path. The row
/// and any error are those of [`parse_record_at`] over every field.
pub fn push_record_at(
    bytes: &[u8],
    map: &PositionalMap,
    record: usize,
    builder: &mut FlatColumnBuilder,
) -> Result<()> {
    builder.push_record(|field, col| {
        let (start, end) = map.field_span(record, field);
        parse_field_into(&bytes[start..end.min(bytes.len())], col.scalar_type(), col)
    })
}

/// Positional-map-assisted scan: parses only the accessed fields of every
/// record, without tokenizing the rest of the line.
pub fn scan_with_map(
    bytes: &[u8],
    schema: &Schema,
    map: &PositionalMap,
    accessed: &[bool],
    mut on_record: impl FnMut(usize, Vec<Value>) -> Result<()>,
) -> Result<()> {
    let accessed_fields: Vec<(usize, ScalarType)> = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(i, _)| accessed[*i])
        .map(|(i, f)| (i, f.data_type.as_scalar().expect("CSV fields are scalars")))
        .collect();
    for record in 0..map.record_count() {
        let mut values = Vec::with_capacity(accessed_fields.len());
        for &(field, ty) in &accessed_fields {
            let (start, end) = map.field_span(record, field);
            values.push(parse_field(&bytes[start..end.min(bytes.len())], ty)?);
        }
        on_record(record, values)?;
    }
    Ok(())
}

/// Parses the accessed fields of a single record through the map: the
/// re-read path used by lazy (offsets-only) caches.
pub fn parse_record_at(
    bytes: &[u8],
    schema: &Schema,
    map: &PositionalMap,
    record: usize,
    accessed: &[bool],
) -> Result<Vec<Value>> {
    let mut values = Vec::new();
    for (field, f) in schema.fields().iter().enumerate() {
        if !accessed[field] {
            continue;
        }
        let ty = f.data_type.as_scalar().expect("CSV fields are scalars");
        let (start, end) = map.field_span(record, field);
        values.push(parse_field(&bytes[start..end.min(bytes.len())], ty)?);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::{DataType, Field};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("b", DataType::Float),
            Field::required("c", DataType::Str),
        ])
    }

    fn sample() -> Vec<u8> {
        write_csv(
            &schema(),
            &[
                vec![Value::Int(1), Value::Float(1.5), Value::from("x")],
                vec![Value::Int(-2), Value::Float(2.0), Value::from("yy")],
                vec![Value::Null, Value::Float(3.25), Value::from("")],
            ],
        )
    }

    #[test]
    fn writer_format_is_pipe_delimited() {
        let bytes = sample();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text, "1|1.5|x\n-2|2.00|yy\n|3.25|\n");
    }

    #[test]
    fn full_scan_parses_all_fields_and_builds_map() {
        let bytes = sample();
        let mut rows = Vec::new();
        let map = scan_build_map(&bytes, &schema(), &[true, true, true], |id, vals| {
            rows.push((id, vals));
            Ok(())
        })
        .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(
            rows[0].1,
            vec![Value::Int(1), Value::Float(1.5), Value::from("x")]
        );
        assert_eq!(rows[1].1[0], Value::Int(-2));
        // Empty fields parse as Null for every type (the writer emits
        // nothing for Null, so Str("") does not round-trip — documented).
        assert_eq!(rows[2].1[0], Value::Null);
        assert_eq!(rows[2].1[2], Value::Null);
        assert_eq!(map.record_count(), 3);
    }

    #[test]
    fn projected_first_scan_skips_unaccessed_fields() {
        let bytes = sample();
        let mut rows = Vec::new();
        scan_build_map(&bytes, &schema(), &[false, true, false], |_, vals| {
            rows.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Float(1.5)],
                vec![Value::Float(2.0)],
                vec![Value::Float(3.25)],
            ]
        );
    }

    #[test]
    fn mapped_scan_matches_full_scan() {
        let bytes = sample();
        let map = scan_build_map(&bytes, &schema(), &[false, false, false], |_, _| Ok(())).unwrap();
        let mut rows = Vec::new();
        scan_with_map(&bytes, &schema(), &map, &[true, false, true], |id, vals| {
            rows.push((id, vals));
            Ok(())
        })
        .unwrap();
        assert_eq!(rows[0].1, vec![Value::Int(1), Value::from("x")]);
        assert_eq!(rows[1].1, vec![Value::Int(-2), Value::from("yy")]);
    }

    #[test]
    fn parse_record_at_reads_single_records() {
        let bytes = sample();
        let map = scan_build_map(&bytes, &schema(), &[false, false, false], |_, _| Ok(())).unwrap();
        let vals = parse_record_at(&bytes, &schema(), &map, 1, &[true, true, false]).unwrap();
        assert_eq!(vals, vec![Value::Int(-2), Value::Float(2.0)]);
    }

    #[test]
    fn missing_trailing_newline_is_accepted() {
        let bytes = b"5|2.50|end".to_vec();
        let mut rows = Vec::new();
        let map = scan_build_map(&bytes, &schema(), &[true, true, true], |_, vals| {
            rows.push(vals);
            Ok(())
        })
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0],
            vec![Value::Int(5), Value::Float(2.5), Value::from("end")]
        );
        assert_eq!(map.record_count(), 1);
    }

    #[test]
    fn field_count_mismatch_is_an_error() {
        let bytes = b"1|2.0\n".to_vec();
        let err = scan_build_map(&bytes, &schema(), &[true, true, true], |_, _| Ok(()));
        assert!(err.is_err());
        let bytes = b"1|2.0|x|extra\n".to_vec();
        let err = scan_build_map(&bytes, &schema(), &[true, true, true], |_, _| Ok(()));
        assert!(err.is_err());
    }

    #[test]
    fn int_parser_handles_extremes() {
        assert_eq!(parse_i64(b"9223372036854775807"), Some(i64::MAX));
        assert_eq!(parse_i64(b"-9223372036854775808"), Some(i64::MIN));
        assert_eq!(parse_i64(b"9223372036854775808"), None); // overflow
        assert_eq!(parse_i64(b"+42"), Some(42));
        assert_eq!(parse_i64(b"4x2"), None);
        assert_eq!(parse_i64(b"-"), None);
    }

    #[test]
    fn format_i64_matches_display() {
        for v in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            let mut buf = [0u8; 20];
            assert_eq!(format_i64(v, &mut buf), v.to_string().as_bytes());
        }
    }

    #[test]
    fn index_records_matches_scan_build_map_offsets() {
        for bytes in [
            sample(),
            b"5|2.50|end".to_vec(), // no trailing newline
            Vec::new(),
        ] {
            let mut from_scan: Vec<u64> = Vec::new();
            // Rebuild via the tokenizer's spans: scan_build_map exposes
            // them through the posmap record spans.
            if !bytes.is_empty() {
                let map = scan_build_map(&bytes, &schema(), &[false, false, false], |_, _| Ok(()))
                    .unwrap();
                for r in 0..map.record_count() {
                    from_scan.push(map.record_span(r).0 as u64);
                }
                from_scan.push(bytes.len() as u64);
            } else {
                from_scan.push(0);
            }
            assert_eq!(index_records(&bytes), from_scan);
        }
    }

    #[test]
    fn tokenize_range_matches_row_scan_and_capture_layout() {
        let bytes = sample();
        let offsets = index_records(&bytes);
        assert_eq!(offsets.len(), 4);
        // Project fields 0 and 2 into slots 0 and 1.
        let accessed = [(0usize, ScalarType::Int, 0usize), (2, ScalarType::Str, 1)];
        let mut cols = vec![
            ScratchColumn::new(ScalarType::Int),
            ScratchColumn::new(ScalarType::Str),
        ];
        let mut capture = Vec::new();
        tokenize_range_into(
            &bytes,
            &offsets,
            0,
            3,
            3,
            &accessed,
            &mut cols,
            Some(&mut capture),
        )
        .unwrap();
        let ints = cols[0].as_batch_column();
        let strs = cols[1].as_batch_column();
        assert_eq!(ints.value(0), Value::Int(1));
        assert_eq!(ints.value(1), Value::Int(-2));
        assert_eq!(ints.value(2), Value::Null);
        assert_eq!(strs.value(0), Value::from("x"));
        assert_eq!(strs.value(1), Value::from("yy"));
        assert_eq!(strs.value(2), Value::Null); // empty field -> null
                                                // Capture slab must equal the full tokenizer's field offsets: a
                                                // map assembled from it answers the same spans.
        let map = PositionalMap::with_fields(offsets.clone(), capture, 3);
        let reference =
            scan_build_map(&bytes, &schema(), &[false, false, false], |_, _| Ok(())).unwrap();
        for rec in 0..3 {
            for field in 0..3 {
                assert_eq!(
                    map.field_span(rec, field),
                    reference.field_span(rec, field),
                    "record {rec} field {field}"
                );
            }
        }
    }

    #[test]
    fn tokenize_range_detects_field_count_mismatch() {
        let bytes = b"1|2.0\n1|2.0|x|y\n".to_vec();
        let offsets = index_records(&bytes);
        let mut capture = Vec::new();
        assert!(
            tokenize_range_into(&bytes, &offsets, 0, 1, 3, &[], &mut [], Some(&mut capture))
                .is_err()
        );
        capture.clear();
        assert!(
            tokenize_range_into(&bytes, &offsets, 1, 2, 3, &[], &mut [], Some(&mut capture))
                .is_err()
        );
    }

    #[test]
    fn capture_free_tokenize_skips_trailing_fields_and_matches_full_mode() {
        // Wide records where only leading fields are accessed: the
        // capture-free mode must parse identically while never needing
        // the trailing delimiters.
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("b", DataType::Float),
            Field::required("c", DataType::Str),
        ]);
        let bytes = write_csv(
            &schema,
            &[
                vec![Value::Int(7), Value::Float(0.5), Value::from("tail-a")],
                vec![Value::Null, Value::Float(1.5), Value::from("tail-b")],
            ],
        );
        let offsets = index_records(&bytes);
        let accessed = [(0usize, ScalarType::Int, 0usize), (1, ScalarType::Float, 1)];
        let run = |capture: bool| {
            let mut cols = vec![
                ScratchColumn::new(ScalarType::Int),
                ScratchColumn::new(ScalarType::Float),
            ];
            let mut slab = Vec::new();
            tokenize_range_into(
                &bytes,
                &offsets,
                0,
                2,
                3,
                &accessed,
                &mut cols,
                capture.then_some(&mut slab),
            )
            .unwrap();
            let views: Vec<_> = cols.iter().map(|c| c.as_batch_column()).collect();
            (0..2)
                .map(|r| views.iter().map(|v| v.value(r)).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(false), run(true));
        // Capture-free mode still validates that accessed fields exist.
        let short = b"1|2.0\n".to_vec();
        let short_offsets = index_records(&short);
        let mut cols = vec![ScratchColumn::new(ScalarType::Str)];
        assert!(tokenize_range_into(
            &short,
            &short_offsets,
            0,
            1,
            4,
            &[(3usize, ScalarType::Str, 0usize)],
            &mut cols,
            None,
        )
        .is_err());
        // No accessed fields: nothing to tokenize, trivially succeeds.
        tokenize_range_into(&short, &short_offsets, 0, 1, 3, &[], &mut [], None).unwrap();
    }

    #[test]
    fn parse_records_with_map_matches_scan_with_map() {
        let bytes = sample();
        let map = scan_build_map(&bytes, &schema(), &[false, false, false], |_, _| Ok(())).unwrap();
        let mut cols = vec![
            ScratchColumn::new(ScalarType::Float),
            ScratchColumn::new(ScalarType::Str),
        ];
        parse_records_with_map(
            &bytes,
            &map,
            1..3,
            &[(1, ScalarType::Float, 0), (2, ScalarType::Str, 1)],
            &mut cols,
        )
        .unwrap();
        let floats = cols[0].as_batch_column();
        assert_eq!(floats.value(0), Value::Float(2.0));
        assert_eq!(floats.value(1), Value::Float(3.25));
        let strs = cols[1].as_batch_column();
        assert_eq!(strs.value(0), Value::from("yy"));
        assert_eq!(strs.value(1), Value::Null);
    }

    #[test]
    fn fast_float_parse_is_bit_identical_to_std() {
        // Plain decimal forms: must agree bit-for-bit with str::parse.
        for s in [
            "0",
            "1",
            "-1",
            "0.5",
            "-0.5",
            "53107.85",
            "0.00",
            "123456789012345",
            "0.00000000000001",
            "99999.99",
            "-42.125",
            "3.14159",
            "1.",
            ".5",
            "+2.75",
        ] {
            let fast = parse_f64_fast(s.as_bytes()).unwrap_or_else(|| panic!("fast path on {s}"));
            let std = s.parse::<f64>().unwrap();
            assert_eq!(fast.to_bits(), std.to_bits(), "{s}");
        }
        // Forms outside the fast path fall back (None), never wrong.
        for s in ["1e5", "inf", "nan", "1234567890123456", "1.2.3", ""] {
            assert_eq!(parse_f64_fast(s.as_bytes()), None, "{s}");
        }
        // Seeded sweep over writer-shaped values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cents = (state >> 20) % 10_000_000;
            let s = format!("{}.{:02}", cents / 100, cents % 100);
            let fast = parse_f64_fast(s.as_bytes()).unwrap();
            assert_eq!(fast.to_bits(), s.parse::<f64>().unwrap().to_bits(), "{s}");
        }
    }

    #[test]
    fn parse_field_into_rejects_malformed_fields() {
        let mut col = ScratchColumn::new(ScalarType::Int);
        assert!(parse_field_into(b"4x", ScalarType::Int, &mut col).is_err());
        let mut col = ScratchColumn::new(ScalarType::Bool);
        assert!(parse_field_into(b"maybe", ScalarType::Bool, &mut col).is_err());
        let mut col = ScratchColumn::new(ScalarType::Float);
        assert!(parse_field_into(b"not-a-float", ScalarType::Float, &mut col).is_err());
    }

    #[test]
    fn bool_parsing() {
        assert_eq!(
            parse_field(b"true", ScalarType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            parse_field(b"0", ScalarType::Bool).unwrap(),
            Value::Bool(false)
        );
        assert!(parse_field(b"maybe", ScalarType::Bool).is_err());
    }
}

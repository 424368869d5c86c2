//! From-scratch line-delimited JSON reader/writer.
//!
//! The reader is *schema-directed*: it parses each object against the
//! expected [`Schema`], skipping unknown keys and — when given a
//! [`LeafProjection`] — skipping the byte ranges of every field, at any
//! depth, with no accessed leaf beneath it: an unaccessed top-level array
//! and the unaccessed fields inside each element of an accessed array of
//! objects alike go through the cheap structural skip instead of being
//! materialized. Skipping is dramatically cheaper than parsing, which is
//! exactly the asymmetry ReCache's cost model reacts to. Object keys are
//! compared in place against the schema's field names; only a key with
//! escapes is decoded into an owned string.

use crate::posmap::PositionalMap;
use recache_types::{DataType, Error, Field, Result, Schema, Value};
use std::borrow::Cow;

/// Serializes records (struct values matching `schema`) into
/// line-delimited JSON. `Null` fields are omitted, as in real-world
/// heterogeneous JSON where optional keys are absent.
pub fn write_json(schema: &Schema, records: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 64);
    for record in records {
        write_struct(&mut out, schema.fields(), record);
        out.push(b'\n');
    }
    out
}

fn write_struct(out: &mut Vec<u8>, fields: &[Field], value: &Value) {
    out.push(b'{');
    let children: &[Value] = match value {
        Value::Struct(children) => children,
        _ => &[],
    };
    let mut first = true;
    for (i, field) in fields.iter().enumerate() {
        let child = children.get(i).unwrap_or(&Value::Null);
        if child.is_null() {
            continue;
        }
        if !first {
            out.push(b',');
        }
        first = false;
        out.push(b'"');
        out.extend_from_slice(field.name.as_bytes());
        out.extend_from_slice(b"\":");
        write_value(out, &field.data_type, child);
    }
    out.push(b'}');
}

fn write_value(out: &mut Vec<u8>, ty: &DataType, value: &Value) {
    match (ty, value) {
        (_, Value::Null) => out.extend_from_slice(b"null"),
        (DataType::Struct(fields), v) => write_struct(out, fields, v),
        (DataType::List(inner), Value::List(items)) => {
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_value(out, inner, item);
            }
            out.push(b']');
        }
        (_, Value::Bool(b)) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
        (_, Value::Int(v)) => out.extend_from_slice(v.to_string().as_bytes()),
        (_, Value::Float(v)) => {
            if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                out.extend_from_slice(format!("{v:.1}").as_bytes());
            } else {
                out.extend_from_slice(format!("{v}").as_bytes());
            }
        }
        (_, Value::Str(s)) => write_json_string(out, s),
        (ty, v) => unreachable!("value {v:?} does not match type {ty:?}"),
    }
}

fn write_json_string(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for b in s.bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b'\r' => out.extend_from_slice(b"\\r"),
            0x00..=0x1f => out.extend_from_slice(format!("\\u{b:04x}").as_bytes()),
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// Cursor over one JSON document.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
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

    /// Parses a JSON string, decoding escapes: borrowed from the input
    /// when it has none, decoded into an owned string otherwise. Invalid
    /// UTF-8 is the same typed error on both paths.
    fn parse_str(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        let utf8 = |bytes: &'a [u8]| {
            std::str::from_utf8(bytes)
                .map_err(|_| Error::parse_at("invalid utf-8 in string", start))
        };
        // Fast path: no escapes.
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    let s = utf8(&self.bytes[start..self.pos])?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        // Slow path with escape decoding. Runs of plain bytes end at an
        // ASCII `"` or `\`, never inside a multi-byte character, so
        // validating run by run validates the whole string.
        let mut s = utf8(&self.bytes[start..self.pos])?.to_owned();
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(Cow::Owned(s));
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| Error::parse_at("truncated escape", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(Error::parse_at("truncated \\u escape", self.pos));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| Error::parse_at("bad \\u escape", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::parse_at("bad \\u escape", self.pos))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(Error::parse_at(
                                format!("unknown escape '\\{}'", other as char),
                                self.pos,
                            ))
                        }
                    }
                }
                _ => {
                    // Collect a run of plain bytes.
                    let run_start = self.pos;
                    while self.pos < self.bytes.len()
                        && self.bytes[self.pos] != b'"'
                        && self.bytes[self.pos] != b'\\'
                    {
                        self.pos += 1;
                    }
                    s.push_str(utf8(&self.bytes[run_start..self.pos])?);
                }
            }
        }
        Err(Error::parse_at("unterminated string", self.pos))
    }

    /// Parses a JSON number into `Int` (integral literal) or `Float`.
    fn parse_number(&mut self) -> Result<Value> {
        self.skip_ws();
        let (value, pos) = parse_number_at(self.bytes, self.pos)?;
        self.pos = pos;
        Ok(value)
    }

    /// Skips any JSON value without materializing it. This is the cheap
    /// path for unaccessed fields.
    fn skip_value(&mut self) -> Result<()> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                while self.pos < self.bytes.len() {
                    match self.bytes[self.pos] {
                        b'"' => {
                            self.pos += 1;
                            return Ok(());
                        }
                        b'\\' => self.pos += 2,
                        _ => self.pos += 1,
                    }
                }
                Err(Error::parse_at("unterminated string", self.pos))
            }
            Some(b'{') | Some(b'[') => {
                let mut depth = 0usize;
                while self.pos < self.bytes.len() {
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
                            self.pos += 1;
                            while self.pos < self.bytes.len() {
                                match self.bytes[self.pos] {
                                    b'"' => {
                                        self.pos += 1;
                                        break;
                                    }
                                    b'\\' => self.pos += 2,
                                    _ => self.pos += 1,
                                }
                            }
                        }
                        _ => self.pos += 1,
                    }
                }
                Err(Error::parse_at("unterminated container", self.pos))
            }
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

    /// Parses a value of the expected type, materializing what `want`
    /// asks for (a [`Want::Skip`] value is skipped and reads as `Null`).
    /// Type mismatches degrade to `Null` (heterogeneous raw data is
    /// messy; queries treat unexpected shapes as missing).
    fn parse_typed(&mut self, ty: &DataType, want: &Want) -> Result<Value> {
        if matches!(want, Want::Skip) {
            self.skip_value()?;
            return Ok(Value::Null);
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                self.skip_literal(b"null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.skip_literal(b"true")?;
                Ok(coerce_bool(true, ty))
            }
            Some(b'f') => {
                self.skip_literal(b"false")?;
                Ok(coerce_bool(false, ty))
            }
            Some(b'"') => {
                let s = self.parse_str()?;
                match ty {
                    DataType::Str => Ok(Value::Str(s.into_owned())),
                    _ => Ok(Value::Null),
                }
            }
            Some(b'{') => match ty {
                DataType::Struct(fields) => self.parse_object(fields, want),
                _ => {
                    self.skip_value()?;
                    Ok(Value::Null)
                }
            },
            Some(b'[') => match ty {
                DataType::List(inner) => {
                    self.expect(b'[')?;
                    let want = want.element();
                    let mut items = Vec::new();
                    if !self.try_consume(b']') {
                        loop {
                            items.push(self.parse_typed(inner, want)?);
                            if !self.try_consume(b',') {
                                break;
                            }
                        }
                        self.expect(b']')?;
                    }
                    Ok(Value::List(items))
                }
                _ => {
                    self.skip_value()?;
                    Ok(Value::Null)
                }
            },
            Some(_) => {
                let num = self.parse_number()?;
                match ty {
                    DataType::Int => Ok(Value::Int(num.as_i64().unwrap_or(0))),
                    DataType::Float => Ok(Value::Float(num.as_f64().unwrap_or(0.0))),
                    _ => Ok(Value::Null),
                }
            }
            None => Err(Error::parse_at("unexpected end of input", self.pos)),
        }
    }

    fn skip_literal(&mut self, lit: &[u8]) -> Result<()> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(Error::parse_at(
                format!("expected '{}'", String::from_utf8_lossy(lit)),
                self.pos,
            ))
        }
    }

    /// Parses an object against known fields; unknown keys are skipped,
    /// and so are known fields whose `want` is [`Want::Skip`]. Keys are
    /// matched borrowed; a repeated key overwrites (last wins).
    fn parse_object(&mut self, fields: &[Field], want: &Want) -> Result<Value> {
        self.expect(b'{')?;
        let mut children = vec![Value::Null; fields.len()];
        if !self.try_consume(b'}') {
            loop {
                let key = self.parse_str()?;
                self.expect(b':')?;
                match fields.iter().position(|f| f.name == key) {
                    Some(idx) => {
                        children[idx] =
                            self.parse_typed(&fields[idx].data_type, want.field(idx))?;
                    }
                    None => self.skip_value()?,
                }
                if !self.try_consume(b',') {
                    break;
                }
            }
            self.expect(b'}')?;
        }
        Ok(Value::Struct(children))
    }
}

/// What a parse materializes of one schema node.
#[derive(Debug, Clone, PartialEq)]
enum Want {
    /// Everything beneath.
    All,
    /// Nothing: the value is skipped and reads as `Null`.
    Skip,
    /// A struct with one want per field.
    Fields(Vec<Want>),
    /// A list whose elements are parsed with this want.
    Elements(Box<Want>),
}

impl Want {
    /// Compiles the want of a node of type `ty` whose first leaf is
    /// `*leaf`, advancing `*leaf` past its leaves.
    fn of(ty: &DataType, accessed: &[bool], leaf: &mut usize) -> Want {
        match ty {
            DataType::Struct(fields) => Want::of_fields(fields, accessed, leaf),
            DataType::List(inner) => match Want::of(inner, accessed, leaf) {
                want @ (Want::All | Want::Skip) => want,
                want => Want::Elements(Box::new(want)),
            },
            _ => {
                *leaf += 1;
                if accessed[*leaf - 1] {
                    Want::All
                } else {
                    Want::Skip
                }
            }
        }
    }

    fn of_fields(fields: &[Field], accessed: &[bool], leaf: &mut usize) -> Want {
        let wants: Vec<Want> = fields
            .iter()
            .map(|f| Want::of(&f.data_type, accessed, leaf))
            .collect();
        if wants.iter().all(|w| *w == Want::All) {
            Want::All
        } else if wants.iter().all(|w| *w == Want::Skip) {
            Want::Skip
        } else {
            Want::Fields(wants)
        }
    }

    /// The want of a struct's field `idx`.
    fn field(&self, idx: usize) -> &Want {
        match self {
            Want::Fields(wants) => &wants[idx],
            Want::Skip => &Want::Skip,
            Want::All | Want::Elements(_) => &Want::All,
        }
    }

    /// The want of a list's elements.
    fn element(&self) -> &Want {
        match self {
            Want::Elements(want) => want,
            Want::Skip => &Want::Skip,
            Want::All | Want::Fields(_) => &Want::All,
        }
    }
}

/// A leaf access mask (indexed by leaf id in [`Schema::leaves`] order)
/// compiled against its schema once per scan: a selective parse
/// materializes exactly the fields, at any depth, with an accessed leaf
/// beneath them and skips the rest. Unaccessed leaves read as `Null`, and
/// lists with accessed leaves keep every element, so the accessed leaves
/// flatten to the same rows as after a full parse.
#[derive(Debug, Clone)]
pub struct LeafProjection {
    root: Want,
}

impl LeafProjection {
    pub fn new(schema: &Schema, accessed: &[bool]) -> Self {
        let mut leaf = 0usize;
        let root = Want::of_fields(schema.fields(), accessed, &mut leaf);
        debug_assert_eq!(leaf, accessed.len(), "one access bit per leaf");
        LeafProjection { root }
    }
}

/// Parses the JSON number literal starting at `bytes[pos]`, returning
/// the value (`Int` for integral literals, `Float` otherwise — i64
/// overflow widens to float) and the position just past it. One routine
/// shared by the row tokenizer and the batched flat-JSON tokenizer
/// (`json_batch`), so the accepted character set and the
/// integral-vs-float split can never diverge between the two paths.
pub(crate) fn parse_number_at(bytes: &[u8], pos: usize) -> Result<(Value, usize)> {
    let start = pos;
    let mut pos = pos;
    let mut is_float = false;
    if bytes.get(pos) == Some(&b'-') {
        pos += 1;
    }
    while let Some(b) = bytes.get(pos) {
        match b {
            b'0'..=b'9' => pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..pos])
        .map_err(|_| Error::parse_at("invalid number", start))?;
    if text.is_empty() || text == "-" {
        return Err(Error::parse_at("invalid number", start));
    }
    let value = if is_float {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::parse_at(format!("invalid float '{text}'"), start))?
    } else {
        text.parse::<i64>()
            .map(Value::Int)
            .or_else(|_| text.parse::<f64>().map(Value::Float))
            .map_err(|_| Error::parse_at(format!("invalid int '{text}'"), start))?
    };
    Ok((value, pos))
}

/// Decodes the JSON string whose opening quote sits at `bytes[pos]`,
/// returning the decoded content and the position just past the closing
/// quote. This is the row tokenizer's [`Cursor::parse_str`] — shared
/// so the batched flat-JSON tokenizer (`json_batch`) decodes escapes
/// with byte-identical semantics (including `\u` surrogate fallback and
/// unknown-escape errors).
pub(crate) fn decode_string_at(bytes: &[u8], pos: usize) -> Result<(String, usize)> {
    let mut cursor = Cursor { bytes, pos };
    let s = cursor.parse_str()?.into_owned();
    Ok((s, cursor.pos))
}

fn coerce_bool(b: bool, ty: &DataType) -> Value {
    match ty {
        DataType::Bool => Value::Bool(b),
        DataType::Int => Value::Int(i64::from(b)),
        _ => Value::Null,
    }
}

/// Parses a single JSON record against a schema: every field, or with a
/// `projection` only the fields with an accessed leaf beneath them (the
/// rest stay `Null`).
pub fn parse_record(
    bytes: &[u8],
    schema: &Schema,
    projection: Option<&LeafProjection>,
) -> Result<Value> {
    let want = projection.map_or(&Want::All, |p| &p.root);
    Cursor::new(bytes).parse_object(schema.fields(), want)
}

/// Full scan over line-delimited JSON: parses each record (restricted to
/// `projection` if given) and builds a record-level positional map.
pub fn scan_build_map(
    bytes: &[u8],
    schema: &Schema,
    projection: Option<&LeafProjection>,
    mut on_record: impl FnMut(usize, Value) -> Result<()>,
) -> Result<PositionalMap> {
    let mut record_offsets = Vec::with_capacity(bytes.len() / 64 + 2);
    let mut pos = 0usize;
    let mut record_id = 0usize;
    while pos < bytes.len() {
        record_offsets.push(pos as u64);
        let end = line_end(bytes, pos);
        let record = parse_record(&bytes[pos..end], schema, projection)?;
        on_record(record_id, record)?;
        record_id += 1;
        pos = end + 1;
    }
    record_offsets.push(bytes.len() as u64);
    Ok(PositionalMap::records_only(record_offsets))
}

/// Positional-map-assisted scan: no line re-splitting; each record is
/// parsed (selectively) from its known byte range.
pub fn scan_with_map(
    bytes: &[u8],
    schema: &Schema,
    map: &PositionalMap,
    projection: Option<&LeafProjection>,
    mut on_record: impl FnMut(usize, Value) -> Result<()>,
) -> Result<()> {
    for record in 0..map.record_count() {
        on_record(
            record,
            parse_record_at(bytes, schema, map, record, projection)?,
        )?;
    }
    Ok(())
}

/// Parses one record by id through the map — the lazy-cache re-read path.
pub fn parse_record_at(
    bytes: &[u8],
    schema: &Schema,
    map: &PositionalMap,
    record: usize,
    projection: Option<&LeafProjection>,
) -> Result<Value> {
    let (start, end) = map.record_span(record);
    let end = trim_newline(bytes, start, end);
    parse_record(&bytes[start..end], schema, projection)
}

fn line_end(bytes: &[u8], start: usize) -> usize {
    bytes[start..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| start + i)
        .unwrap_or(bytes.len())
}

fn trim_newline(bytes: &[u8], start: usize, end: usize) -> usize {
    if end > start && bytes.get(end - 1) == Some(&b'\n') {
        end - 1
    } else {
        end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_types::Field;

    fn nested_schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tag", DataType::Str),
                ]))),
            ),
        ])
    }

    fn sample_record() -> Value {
        Value::Struct(vec![
            Value::Int(1),
            Value::Float(2.5),
            Value::List(vec![
                Value::Struct(vec![Value::Int(10), Value::Str("x".into())]),
                Value::Struct(vec![Value::Int(20), Value::Null]),
            ]),
        ])
    }

    #[test]
    fn write_then_parse_round_trips() {
        let schema = nested_schema();
        let bytes = write_json(&schema, &[sample_record()]);
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert_eq!(
            text,
            "{\"a\":1,\"b\":2.5,\"items\":[{\"q\":10,\"tag\":\"x\"},{\"q\":20}]}\n"
        );
        let mut records = Vec::new();
        scan_build_map(&bytes, &schema, None, |_, v| {
            records.push(v);
            Ok(())
        })
        .unwrap();
        assert_eq!(records, vec![sample_record()]);
    }

    #[test]
    fn selective_parse_skips_nested_array() {
        let schema = nested_schema();
        let bytes = write_json(&schema, &[sample_record()]);
        let projection = LeafProjection::new(&schema, &[true, false, false, false]);
        let record = parse_record(&bytes[..bytes.len() - 1], &schema, Some(&projection)).unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![Value::Int(1), Value::Null, Value::Null])
        );
    }

    #[test]
    fn unknown_keys_are_skipped() {
        let schema = Schema::new(vec![Field::required("a", DataType::Int)]);
        let record =
            parse_record(br#"{"z":[1,2,{"w":"}"}],"a":7,"y":"s"}"#, &schema, None).unwrap();
        assert_eq!(record, Value::Struct(vec![Value::Int(7)]));
    }

    #[test]
    fn absent_optional_fields_are_null() {
        let schema = nested_schema();
        let record = parse_record(br#"{"a":3}"#, &schema, None).unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![Value::Int(3), Value::Null, Value::Null])
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let schema = Schema::new(vec![Field::required("s", DataType::Str)]);
        let original = Value::Struct(vec![Value::Str("a\"b\\c\nd\te\u{1}".into())]);
        let bytes = write_json(&schema, std::slice::from_ref(&original));
        let mut records = Vec::new();
        scan_build_map(&bytes, &schema, None, |_, v| {
            records.push(v);
            Ok(())
        })
        .unwrap();
        assert_eq!(records[0], original);
    }

    #[test]
    fn unicode_escape_decodes() {
        let schema = Schema::new(vec![Field::required("s", DataType::Str)]);
        let record = parse_record("{\"s\":\"A\\u00e9\"}".as_bytes(), &schema, None).unwrap();
        assert_eq!(record, Value::Struct(vec![Value::Str("Aé".into())]));
    }

    #[test]
    fn numbers_parse_by_schema_type() {
        let schema = Schema::new(vec![
            Field::required("i", DataType::Int),
            Field::required("f", DataType::Float),
        ]);
        // Float literal into Int field truncates; int literal into Float
        // field widens.
        let record = parse_record(br#"{"i":3.9,"f":4}"#, &schema, None).unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![Value::Int(3), Value::Float(4.0)])
        );
        let record = parse_record(br#"{"i":-12,"f":-1.5e2}"#, &schema, None).unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![Value::Int(-12), Value::Float(-150.0)])
        );
    }

    #[test]
    fn type_mismatches_degrade_to_null() {
        let schema = Schema::new(vec![
            Field::required("i", DataType::Int),
            Field::required("s", DataType::Str),
        ]);
        let record = parse_record(br#"{"i":"not a number","s":42}"#, &schema, None).unwrap();
        assert_eq!(record, Value::Struct(vec![Value::Null, Value::Null]));
    }

    #[test]
    fn scan_with_map_matches_full_scan() {
        let schema = nested_schema();
        let records: Vec<Value> = (0..5)
            .map(|i| {
                Value::Struct(vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::List(vec![Value::Struct(vec![Value::Int(i * 10), Value::Null])]),
                ])
            })
            .collect();
        let bytes = write_json(&schema, &records);
        let map = scan_build_map(&bytes, &schema, None, |_, _| Ok(())).unwrap();
        assert_eq!(map.record_count(), 5);

        let mut out = Vec::new();
        scan_with_map(&bytes, &schema, &map, None, |id, v| {
            out.push((id, v));
            Ok(())
        })
        .unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(out[3].1, records[3]);

        let one = parse_record_at(&bytes, &schema, &map, 2, None).unwrap();
        assert_eq!(one, records[2]);
    }

    #[test]
    fn empty_containers() {
        let schema = nested_schema();
        let record = parse_record(br#"{"a":1,"items":[]}"#, &schema, None).unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![Value::Int(1), Value::Null, Value::List(vec![])])
        );
    }

    #[test]
    fn malformed_inputs_error() {
        let schema = Schema::new(vec![Field::required("a", DataType::Int)]);
        assert!(parse_record(br#"{"a":}"#, &schema, None).is_err());
        assert!(parse_record(br#"{"a":1"#, &schema, None).is_err());
        assert!(parse_record(br#"{"a" 1}"#, &schema, None).is_err());
        assert!(parse_record(br#"{"a":"unterminated}"#, &schema, None).is_err());
    }

    #[test]
    fn bool_and_null_literals() {
        let schema = Schema::new(vec![
            Field::required("b", DataType::Bool),
            Field::new("i", DataType::Int),
        ]);
        let record = parse_record(br#"{"b":true,"i":null}"#, &schema, None).unwrap();
        assert_eq!(record, Value::Struct(vec![Value::Bool(true), Value::Null]));
        // Bool into int field coerces (heterogeneous-data tolerance).
        let record = parse_record(br#"{"i":true,"b":false}"#, &schema, None).unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![Value::Bool(false), Value::Int(1)])
        );
    }

    #[test]
    fn escaped_key_matches_its_field() {
        let schema = crate::gen::tpch::order_lineitems_schema();
        let n = schema.leaves().len();
        let line = br#"{"o_\u006frderkey":42,"lineitems":[{"l_\u0071uantity":3}]}"#;
        let full = parse_record(line, &schema, None).unwrap();
        let Value::Struct(fields) = &full else {
            panic!("records parse to structs")
        };
        assert_eq!(fields[0], Value::Int(42));
        let mut accessed = vec![false; n];
        accessed[0] = true;
        let quantity = schema
            .leaf_index(&recache_types::FieldPath::parse("lineitems.l_quantity"))
            .unwrap();
        accessed[quantity] = true;
        let projected = parse_record(
            line,
            &schema,
            Some(&LeafProjection::new(&schema, &accessed)),
        )
        .unwrap();
        assert_eq!(
            recache_types::flatten_record_projected(&schema, &projected, &accessed),
            vec![vec![Value::Int(42), Value::Int(3)]]
        );
    }

    #[test]
    fn duplicate_keys_are_last_wins_under_a_leaf_mask() {
        let schema = nested_schema();
        let projection = LeafProjection::new(&schema, &[true, false, true, false]);
        let record = parse_record(
            br#"{"a":1,"b":0.5,"a":2,"items":[{"q":1,"tag":"x","q":7}],"b":9}"#,
            &schema,
            Some(&projection),
        )
        .unwrap();
        assert_eq!(
            record,
            Value::Struct(vec![
                Value::Int(2),
                Value::Null,
                Value::List(vec![Value::Struct(vec![Value::Int(7), Value::Null])]),
            ])
        );
    }

    #[test]
    fn non_object_elements_of_a_projected_list_degrade_to_null() {
        let schema = nested_schema();
        let projection = LeafProjection::new(&schema, &[false, false, true, false]);
        let line = br#"{"a":1,"items":[5,{"q":2,"tag":"t"},"x",[1],null]}"#;
        let record = parse_record(line, &schema, Some(&projection)).unwrap();
        let Value::Struct(fields) = &record else {
            panic!("records parse to structs")
        };
        assert_eq!(
            fields[2],
            Value::List(vec![
                Value::Null,
                Value::Struct(vec![Value::Int(2), Value::Null]),
                Value::Null,
                Value::Null,
                Value::Null,
            ])
        );
        // The same rows a full parse flattens to.
        let full = parse_record(line, &schema, None).unwrap();
        let accessed = [false, false, true, false];
        assert_eq!(
            recache_types::flatten_record_projected(&schema, &record, &accessed),
            recache_types::flatten_record_projected(&schema, &full, &accessed)
        );
    }

    #[test]
    fn invalid_utf8_in_a_skipped_key_is_an_error() {
        let schema = nested_schema();
        let projection = LeafProjection::new(&schema, &[true, false, false, false]);
        for line in [
            &b"{\"a\":1,\"\xff\":2}"[..],
            &b"{\"a\":1,\"items\":[{\"q\":1}],\"z\\n\xff\":2}"[..],
        ] {
            assert!(parse_record(line, &schema, Some(&projection)).is_err());
            assert!(parse_record(line, &schema, None).is_err());
        }
        // Inside the elements of a projected list too.
        let projection = LeafProjection::new(&schema, &[false, false, true, false]);
        let line = b"{\"items\":[{\"\xfe\":1,\"q\":1}]}";
        assert!(parse_record(line, &schema, Some(&projection)).is_err());
    }

    #[test]
    fn invalid_utf8_is_the_same_error_before_and_after_an_escape() {
        let schema = Schema::new(vec![Field::required("s", DataType::Str)]);
        // No escape: the borrowed fast path.
        let fast = parse_record(b"{\"s\":\"ab\xffc\"}", &schema, None).unwrap_err();
        // After an escape: the decoding slow path.
        let slow = parse_record(b"{\"s\":\"a\\nb\xffc\"}", &schema, None).unwrap_err();
        assert_eq!(fast.to_string(), slow.to_string());
        assert!(fast.to_string().contains("invalid utf-8"), "{fast}");
        // The batched tokenizer decodes through the same routine.
        let fast = decode_string_at(b"\"ab\xff\"", 0).unwrap_err();
        let slow = decode_string_at(b"\"a\\tb\xff\"", 0).unwrap_err();
        assert_eq!(fast.to_string(), slow.to_string());
        assert!(fast.to_string().contains("invalid utf-8"), "{fast}");
        // Valid multi-byte text still decodes on both paths.
        assert_eq!(
            decode_string_at("\"é\\té\"".as_bytes(), 0).unwrap().0,
            "é\té"
        );
    }

    #[test]
    fn tpch_leaf_projections_flatten_like_a_full_parse() {
        use crate::gen::tpch;
        use crate::source::{FileFormat, RawFile};
        let schema = tpch::order_lineitems_schema();
        let bytes = write_json(&schema, &tpch::gen_order_lineitems(0.0001, 11));
        let mut full = Vec::new();
        scan_build_map(&bytes, &schema, None, |_, v| {
            full.push(v);
            Ok(())
        })
        .unwrap();
        let n = schema.leaves().len();
        let singles = (0..n).map(|i| vec![i]);
        let pairs = (0..n).flat_map(|i| (i + 1..n).map(move |j| vec![i, j]));
        let file = RawFile::from_bytes(bytes, FileFormat::Json, schema.clone());
        for leaves in singles.chain(pairs) {
            let mut accessed = vec![false; n];
            for &leaf in &leaves {
                accessed[leaf] = true;
            }
            let expected: Vec<(usize, Vec<Value>)> = full
                .iter()
                .enumerate()
                .flat_map(|(id, record)| {
                    recache_types::flatten_record_projected(&schema, record, &accessed)
                        .into_iter()
                        .map(move |row| (id, row))
                })
                .collect();
            // First scan (building the map), then a mapped re-scan.
            file.reset_scan_state();
            for _ in 0..2 {
                let mut got = Vec::new();
                file.scan_projected(&accessed, &mut |id, row| got.push((id, row)))
                    .unwrap();
                assert_eq!(got, expected, "leaves {leaves:?}");
            }
        }
    }
}

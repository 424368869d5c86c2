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
//! compared in place against the schema's field names, the expected next
//! field first; only an unknown key is UTF-8-validated and only a key
//! with escapes is decoded into an owned string.
//!
//! The first scan ([`scan_build_map`]) also records a structure tape
//! per record in the positional map: where each schema-typed value lies,
//! arranged as the schema's tree. Every later read through the map —
//! mapped scans, lazy re-reads, full-record reads — decodes from the
//! tape, and cache materialization shreds each record from it straight
//! into Dremel columns ([`shred_record_at`]) through the builder's
//! compiled walk: unwanted subtrees are one jump, no key is matched
//! again, and each scalar is read at its recorded offset by the parser's
//! own routines as its leaf's type (an `i64`, an `f64`, string bytes),
//! with no `Value` built, so the answer (store or error) is exactly that
//! of [`parse_record`]'s value. A record the tape walk cannot index is
//! parsed from its bytes instead.
//!
//! Batched scans ([`TapeScan`]) build the tapes chunk by chunk on the
//! first scan and read them from the map after it. Per record they read
//! only the projected leaves into typed batch columns and flatten the
//! record by walking its tape, so no `Value` is built.

use crate::posmap::PositionalMap;
use recache_layout::{DremelBuilder, FieldSet, Holds, ScratchColumn, ShredInput};
use recache_types::{
    DataType, Error, Field, FlatInput, FlatRows, Flattener, LeafField, Result, Schema, Value,
};
use std::borrow::Cow;
use std::convert::Infallible;

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
    #[inline]
    fn parse_str(&mut self) -> Result<Cow<'a, str>> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: no escapes.
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| Error::parse_at("invalid utf-8 in string", start))?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                b'\\' => break,
                _ => self.pos += 1,
            }
        }
        self.parse_escaped_str(start).map(Cow::Owned)
    }

    /// [`Self::parse_str`] of a string with escapes (or unterminated),
    /// whose content starts at `start` and whose first `\` or end the
    /// cursor is at.
    #[cold]
    fn parse_escaped_str(&mut self, start: usize) -> Result<String> {
        let utf8 = |bytes: &'a [u8]| {
            std::str::from_utf8(bytes)
                .map_err(|_| Error::parse_at("invalid utf-8 in string", start))
        };
        // Runs of plain bytes end at an ASCII `"` or `\`, never inside a
        // multi-byte character, so validating run by run validates the
        // whole string.
        let mut s = utf8(&self.bytes[start..self.pos])?.to_owned();
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
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
            Some(_) => self.parse_number_as(ty),
            None => Err(Error::parse_at("unexpected end of input", self.pos)),
        }
    }

    /// [`Self::parse_typed`] of a number literal: `Int` and `Float`
    /// coerce it, any other type reads it as `Null`.
    fn parse_number_as(&mut self, ty: &DataType) -> Result<Value> {
        let num = self.parse_number()?;
        match ty {
            DataType::Int => Ok(Value::Int(num.as_i64().unwrap_or(0))),
            DataType::Float => Ok(Value::Float(num.as_f64().unwrap_or(0.0))),
            _ => Ok(Value::Null),
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

    /// Reads an object key and resolves it to the first of `fields` with
    /// that name, or `None` for an unknown key. A key without escapes is
    /// compared byte by byte where it lies: first with field `expected`
    /// (the next field of a record written in schema order), then with
    /// every field. Only an unmatched key is checked for valid UTF-8; a
    /// key with escapes is decoded by [`Self::parse_str`]. `first[i]` is
    /// the first field named like field `i`, which keeps the `expected`
    /// shortcut first-match under duplicate names; an empty `first`
    /// disables the shortcut.
    fn parse_key(
        &mut self,
        fields: &[Field],
        first: &[u32],
        expected: usize,
    ) -> Result<Option<usize>> {
        self.expect(b'"')?;
        let start = self.pos;
        let raw_len = self.bytes[start..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\');
        let Some(len) = raw_len.filter(|&len| self.bytes[start + len] == b'"') else {
            // Escaped or unterminated: decode (or fail) like any string.
            self.pos = start - 1;
            let key = self.parse_str()?;
            return Ok(fields.iter().position(|f| f.name == key));
        };
        let raw = &self.bytes[start..start + len];
        self.pos = start + len + 1;
        if let (Some(field), Some(&canon)) = (fields.get(expected), first.get(expected)) {
            if field.name.as_bytes() == raw {
                return Ok(Some(canon as usize));
            }
        }
        if let Some(idx) = fields.iter().position(|f| f.name.as_bytes() == raw) {
            return Ok(Some(idx));
        }
        std::str::from_utf8(raw).map_err(|_| Error::parse_at("invalid utf-8 in string", start))?;
        Ok(None)
    }

    /// Skips a number literal: the characters [`parse_number_at`] takes.
    fn skip_number(&mut self) -> Result<()> {
        let (end, _) = number_extent(self.bytes, self.pos);
        if end == self.pos {
            return Err(Error::parse_at("invalid number", self.pos));
        }
        self.pos = end;
        Ok(())
    }

    /// Appends the tape of the object at the cursor (see [`Tape`]):
    /// the same walk as [`Self::parse_object`] with every field wanted,
    /// recording where each value lies instead of decoding it.
    fn tape_object(&mut self, shape: &StructShape, tape: &mut Vec<u32>) -> Result<()> {
        self.expect(b'{')?;
        let header = tape.len();
        tape.push(0);
        if !self.try_consume(b'}') {
            let mut expected = 0;
            loop {
                let key = self.parse_key(shape.fields, &shape.first, expected)?;
                self.expect(b':')?;
                match key {
                    Some(idx) => {
                        tape.push(idx as u32);
                        self.tape_value(&shape.kids[idx], tape)?;
                        expected = idx + 1;
                    }
                    None => self.skip_value()?,
                }
                if !self.try_consume(b',') {
                    break;
                }
            }
            self.expect(b'}')?;
        }
        close_node(tape, header, TAPE_STRUCT)
    }

    /// Appends the tape node of the value at the cursor. An object of a
    /// struct field and an array of a list field become container nodes;
    /// anything else is a raw node, its extent found exactly as
    /// [`Self::parse_typed`] finds it when it decodes without error.
    fn tape_value(&mut self, shape: &Shape, tape: &mut Vec<u32>) -> Result<()> {
        self.skip_ws();
        let at = self.pos;
        match (self.peek(), shape) {
            (Some(b'{'), Shape::Struct(fields)) => self.tape_object(fields, tape),
            (Some(b'['), Shape::List(inner)) => {
                self.pos += 1;
                let header = tape.len();
                tape.push(0);
                if !self.try_consume(b']') {
                    loop {
                        self.tape_value(inner, tape)?;
                        if !self.try_consume(b',') {
                            break;
                        }
                    }
                    self.expect(b']')?;
                }
                close_node(tape, header, TAPE_LIST)
            }
            (Some(b), _) => {
                if at > TAPE_PAYLOAD as usize {
                    return Err(Error::parse_at("record too long for a tape", at));
                }
                tape.push(at as u32);
                match b {
                    b'{' | b'[' | b'"' => self.skip_value(),
                    b't' => self.skip_literal(b"true"),
                    b'f' => self.skip_literal(b"false"),
                    b'n' => self.skip_literal(b"null"),
                    _ => self.skip_number(),
                }
            }
            (None, _) => Err(Error::parse_at("unexpected end of input", at)),
        }
    }

    /// Parses an object against known fields; unknown keys are skipped,
    /// and so are known fields whose `want` is [`Want::Skip`]. Keys are
    /// matched in place; a repeated key overwrites (last wins).
    fn parse_object(&mut self, fields: &[Field], want: &Want) -> Result<Value> {
        self.expect(b'{')?;
        let mut children = vec![Value::Null; fields.len()];
        if !self.try_consume(b'}') {
            loop {
                let key = self.parse_key(fields, &[], 0)?;
                self.expect(b':')?;
                match key {
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

/// Tag of a tape word (its top two bits); the other 30 bits are its
/// payload. A raw node's tag is zero, so its word is its offset.
const TAPE_TAG: u32 = 3 << 30;
const TAPE_PAYLOAD: u32 = !TAPE_TAG;
const TAPE_STRUCT: u32 = 1 << 30;
const TAPE_LIST: u32 = 2 << 30;

/// Closes the container node whose header word sits at `tape[header]`,
/// storing its tag and subtree length (header included).
fn close_node(tape: &mut [u32], header: usize, tag: u32) -> Result<()> {
    let len = tape.len() - header;
    if len > TAPE_PAYLOAD as usize {
        return Err(Error::parse_at("record too large for a tape", 0));
    }
    tape[header] = tag | len as u32;
    Ok(())
}

/// A schema node compiled for the tape builder.
enum Shape<'s> {
    Scalar,
    List(Box<Shape<'s>>),
    Struct(StructShape<'s>),
}

/// A struct compiled for ordered key matching: `first[i]` is the index
/// of the first field named like field `i` (see [`Cursor::parse_key`]).
struct StructShape<'s> {
    fields: &'s [Field],
    first: Vec<u32>,
    kids: Vec<Shape<'s>>,
}

impl<'s> Shape<'s> {
    fn of(ty: &'s DataType) -> Self {
        match ty {
            DataType::Struct(fields) => Shape::Struct(StructShape::of(fields)),
            DataType::List(inner) => Shape::List(Box::new(Shape::of(inner))),
            _ => Shape::Scalar,
        }
    }
}

impl<'s> StructShape<'s> {
    fn of(fields: &'s [Field]) -> Self {
        let first = fields
            .iter()
            .map(|f| fields.iter().position(|g| g.name == f.name).unwrap_or(0) as u32)
            .collect();
        let kids = fields.iter().map(|f| Shape::of(&f.data_type)).collect();
        StructShape {
            fields,
            first,
            kids,
        }
    }
}

/// Appends the tape of the record `line` to `tape`, or leaves `tape` as
/// it was and returns `false` if the walk cannot index the record
/// (malformed, or an offset or length beyond the 30-bit payload).
fn build_tape(line: &[u8], shape: &StructShape, tape: &mut Vec<u32>) -> bool {
    let start = tape.len();
    let built = Cursor::new(line).tape_object(shape, tape).is_ok();
    if !built {
        tape.truncate(start);
    }
    built
}

/// One record's structure tape: a preorder of the record's schema-typed
/// nodes, built by the first scan so later reads decode the record
/// without re-tokenizing it.
///
/// * A struct node is a header word (tag, subtree length) followed by
///   one `(field index, child node)` pair per known key, in key order.
/// * A list node is a header word followed by its element nodes.
/// * Every scalar, and every value whose JSON kind does not match its
///   schema type, is a raw node: one word, its offset in the record.
///
/// Decoding assigns struct children in key order, so duplicate keys
/// stay last-wins, and jumps over unwanted subtrees by their length. A
/// raw node is decoded by [`Cursor::parse_typed`] at its offset in the
/// same record slice [`parse_record`] reads, so values, coercions,
/// mismatches and error messages and positions are the parser's.
#[derive(Debug, Clone, Copy)]
struct Tape<'a> {
    words: &'a [u32],
    record: &'a [u8],
}

impl<'a> Tape<'a> {
    /// Number of words of the node at `at`.
    fn node_len(&self, at: usize) -> usize {
        match self.words[at] & TAPE_TAG {
            0 => 1,
            _ => (self.words[at] & TAPE_PAYLOAD) as usize,
        }
    }

    /// The `(field index, child node)` pairs of the struct node at `at`
    /// in key order, from the pair whose index word is `entry` on.
    fn entries(self, at: usize, entry: usize) -> impl Iterator<Item = (usize, usize)> + 'a {
        let end = at + self.node_len(at);
        let mut entry = entry;
        std::iter::from_fn(move || {
            (entry < end).then(|| {
                let node = entry + 1;
                let idx = self.words[entry] as usize;
                entry = node + self.node_len(node);
                (idx, node)
            })
        })
    }

    /// What the node at `at` holds read as the list or struct type `ty`.
    /// A raw node is decoded for its errors and reads as null, as
    /// [`Cursor::parse_typed`] reads a value of another kind; a container
    /// node of another kind is a map/schema mismatch.
    fn container(&self, at: usize, ty: &DataType) -> Result<Holds> {
        match (self.words[at] & TAPE_TAG, ty) {
            (0, _) => {
                Cursor {
                    bytes: self.record,
                    pos: self.words[at] as usize,
                }
                .parse_typed(ty, &Want::All)?;
                Ok(Holds::Null)
            }
            (TAPE_STRUCT, DataType::Struct(_)) => Ok(Holds::Struct { repeats: false }),
            (TAPE_LIST, DataType::List(_)) if self.node_len(at) > 1 => Ok(Holds::List),
            (TAPE_LIST, DataType::List(_)) => Ok(Holds::Empty),
            _ => Err(tape_schema_mismatch()),
        }
    }

    fn decode(&self, at: usize, ty: &DataType, want: &Want) -> Result<Value> {
        if matches!(want, Want::Skip) {
            return Ok(Value::Null);
        }
        let word = self.words[at];
        match (word & TAPE_TAG, ty) {
            (0, _) => Cursor {
                bytes: self.record,
                pos: word as usize,
            }
            .parse_typed(ty, want),
            (TAPE_STRUCT, DataType::Struct(fields)) => self.decode_struct(at, fields, want),
            (TAPE_LIST, DataType::List(inner)) => {
                let end = at + self.node_len(at);
                let want = want.element();
                let mut items = Vec::new();
                let mut node = at + 1;
                while node < end {
                    items.push(self.decode(node, inner, want)?);
                    node += self.node_len(node);
                }
                Ok(Value::List(items))
            }
            _ => Err(tape_schema_mismatch()),
        }
    }

    /// Decodes the struct node at `at`. Unlike [`Self::decode`], a
    /// [`Want::Skip`] struct still yields a struct of `Null`s, as
    /// [`Cursor::parse_object`] does for a record.
    fn decode_struct(&self, at: usize, fields: &[Field], want: &Want) -> Result<Value> {
        let mut children = vec![Value::Null; fields.len()];
        for (idx, node) in self.entries(at, at + 1) {
            let field = fields.get(idx).ok_or_else(tape_schema_mismatch)?;
            children[idx] = self.decode(node, &field.data_type, want.field(idx))?;
        }
        Ok(Value::Struct(children))
    }
}

/// A node of a record's [`Tape`], shredded in place by
/// [`DremelBuilder::push_node`]: the tape gives the structure, and only
/// scalars are read from the record, each at its offset by the parser's
/// own routines and pushed typed. A struct's fields are visited in key
/// order, the last of duplicate keys shredded and the earlier ones
/// decoded only for their errors, so the outcome is that of decoding the
/// record into a `Value` and shredding that.
#[derive(Debug, Clone, Copy)]
struct TapeNode<'a> {
    tape: Tape<'a>,
    at: usize,
}

impl<'a> TapeNode<'a> {
    /// The record offset of a raw node, and the byte there; a container
    /// node where a leaf is expected is a map/schema mismatch.
    #[inline]
    fn raw(self) -> Result<(usize, Option<&'a u8>)> {
        let word = self.tape.words[self.at];
        if word & TAPE_TAG != 0 {
            return Err(tape_schema_mismatch());
        }
        Ok((word as usize, self.tape.record.get(word as usize)))
    }

    /// The number literal at `pos`, by the parser's number routine.
    #[inline]
    fn number(self, pos: usize) -> Result<Value> {
        parse_number_at(self.tape.record, pos).map(|(number, _)| number)
    }

    /// The raw node at `pos` read as a leaf of type `ty` the long way:
    /// decoded by [`Cursor::parse_typed`], then read by `read` as the
    /// `Value` input reads it. The typed reads take this path for every
    /// literal their own fast paths do not.
    #[cold]
    fn parse_raw<T>(
        self,
        pos: usize,
        ty: DataType,
        read: impl FnOnce(&Value) -> std::result::Result<Option<T>, Infallible>,
    ) -> Result<Option<T>> {
        let value = Cursor {
            bytes: self.tape.record,
            pos,
        }
        .parse_typed(&ty, &Want::All)?;
        let Ok(read) = read(&value);
        Ok(read)
    }
}

impl<'a> ShredInput<'a> for TapeNode<'a> {
    type Error = Error;

    #[inline]
    fn int(self) -> Result<Option<i64>> {
        match self.raw()? {
            (pos, Some(b'-' | b'0'..=b'9')) => Ok(Some(self.number(pos)?.as_i64().unwrap_or(0))),
            (pos, _) => self.parse_raw(pos, DataType::Int, |v| v.int()),
        }
    }

    #[inline]
    fn float(self) -> Result<Option<f64>> {
        match self.raw()? {
            (pos, Some(b'-' | b'0'..=b'9')) => Ok(Some(self.number(pos)?.as_f64().unwrap_or(0.0))),
            (pos, _) => self.parse_raw(pos, DataType::Float, |v| v.float()),
        }
    }

    fn bool(self) -> Result<Option<bool>> {
        let (pos, _) = self.raw()?;
        self.parse_raw(pos, DataType::Bool, |v| v.bool())
    }

    #[inline]
    fn str(self) -> Result<Option<Cow<'a, str>>> {
        match self.raw()? {
            (pos, Some(b'"')) => {
                let mut cursor = Cursor {
                    bytes: self.tape.record,
                    pos,
                };
                Ok(Some(cursor.parse_str()?))
            }
            (pos, _) => self.parse_raw(pos, DataType::Str, |v| {
                Ok(v.str()?.map(|s| Cow::Owned(s.into_owned())))
            }),
        }
    }

    fn elements(self, ty: &DataType, mut visit: impl FnMut(Self) -> Result<()>) -> Result<Holds> {
        let (tape, at) = (self.tape, self.at);
        let holds = tape.container(at, ty)?;
        if holds == Holds::List {
            let end = at + tape.node_len(at);
            let mut elem = at + 1;
            while elem < end {
                visit(TapeNode { tape, at: elem })?;
                elem += tape.node_len(elem);
            }
        }
        Ok(holds)
    }

    fn fields(self, ty: &DataType, present: &mut FieldSet<'_>) -> Result<Holds> {
        let holds = self.tape.container(self.at, ty)?;
        if !matches!(holds, Holds::Struct { .. }) {
            return Ok(holds);
        }
        let mut repeats = false;
        for (idx, _) in self.tape.entries(self.at, self.at + 1) {
            repeats |= !present.insert(idx).ok_or_else(tape_schema_mismatch)?;
        }
        Ok(Holds::Struct { repeats })
    }

    fn visit_fields(
        self,
        ty: &DataType,
        repeats: bool,
        mut visit: impl FnMut(usize, Self) -> Result<()>,
    ) -> Result<()> {
        let (tape, at) = (self.tape, self.at);
        for (idx, node) in tape.entries(at, at + 1) {
            let next = node + tape.node_len(node);
            if repeats && tape.entries(at, next).any(|(later, _)| later == idx) {
                let DataType::Struct(fields) = ty else {
                    return Err(tape_schema_mismatch());
                };
                tape.decode(node, &fields[idx].data_type, &Want::All)?;
            } else {
                visit(idx, TapeNode { tape, at: node })?;
            }
        }
        Ok(())
    }
}

/// What a batched scan reads of one schema node: nothing, a leaf into a
/// batch column, a struct's fields or a list's elements. The projection
/// of [`Want`], with each accessed leaf's batch column.
#[derive(Debug)]
enum Pick {
    Skip,
    Leaf(usize),
    Fields(Vec<Pick>),
    Elements(Box<Pick>),
}

impl Pick {
    /// Compiles the pick of a node of type `ty` whose first leaf is
    /// `*leaf`, advancing `*leaf` past its leaves; `columns[leaf]` is the
    /// batch column of an accessed leaf.
    fn of(ty: &DataType, columns: &[Option<usize>], leaf: &mut usize) -> Pick {
        match ty {
            DataType::Struct(fields) => match Pick::of_fields(fields, columns, leaf) {
                picks if picks.iter().all(|p| matches!(p, Pick::Skip)) => Pick::Skip,
                picks => Pick::Fields(picks),
            },
            DataType::List(inner) => match Pick::of(inner, columns, leaf) {
                Pick::Skip => Pick::Skip,
                pick => Pick::Elements(Box::new(pick)),
            },
            _ => {
                *leaf += 1;
                columns[*leaf - 1].map_or(Pick::Skip, Pick::Leaf)
            }
        }
    }

    fn of_fields(fields: &[Field], columns: &[Option<usize>], leaf: &mut usize) -> Vec<Pick> {
        fields
            .iter()
            .map(|f| Pick::of(&f.data_type, columns, leaf))
            .collect()
    }
}

/// What the pick of one record found, by tape word:
///
/// * for a leaf read at word `at`, `slots[at]` is its entry in
///   `columns` (one column per batch column), or [`NO_NODE`] for a null;
/// * for a struct walked at word `at`, `fields[slots[at] + i]` is the
///   node holding its field `i` — the last of duplicate keys, as
///   decoding assigns them — or [`NO_NODE`] when the field is absent.
///
/// The words of nodes the pick did not reach are stale.
struct Picked {
    slots: Vec<u32>,
    fields: Vec<u32>,
    columns: Vec<ScratchColumn>,
}

/// No tape node: an absent value in [`FlatInput`] terms, and a null leaf
/// or an absent field in [`Picked`].
const NO_NODE: u32 = u32::MAX;

impl Tape<'_> {
    /// Reads the leaves `pick` asks for beneath the node at `at`, walking
    /// struct fields in key order and decoding every occurrence of a
    /// duplicate key, as [`Tape::decode`] does under the same projection:
    /// a subtree without a picked leaf is never read, and any other node
    /// fails exactly where decoding it would.
    fn pick(&self, at: usize, ty: &DataType, pick: &Pick, out: &mut Picked) -> Result<()> {
        match (pick, ty, self.words[at] & TAPE_TAG) {
            (Pick::Skip, _, _) => Ok(()),
            (Pick::Leaf(column), _, _) => {
                let col = &mut out.columns[*column];
                out.slots[at] = if col.push_read(TapeNode { tape: *self, at })? {
                    col.len() as u32 - 1
                } else {
                    NO_NODE
                };
                Ok(())
            }
            (Pick::Fields(picks), DataType::Struct(fields), TAPE_STRUCT) => {
                self.pick_fields(at, fields, picks, out)
            }
            (Pick::Elements(pick), DataType::List(inner), TAPE_LIST) => {
                let end = at + self.node_len(at);
                let mut elem = at + 1;
                while elem < end {
                    self.pick(elem, inner, pick, out)?;
                    elem += self.node_len(elem);
                }
                Ok(())
            }
            // A value of another kind where a container is expected reads
            // as null (or the parser's error); a container node where the
            // schema has none is a map/schema mismatch.
            _ => self.container(at, ty).map(drop),
        }
    }

    /// [`Tape::pick`] over the fields of the struct node at `at`.
    fn pick_fields(
        &self,
        at: usize,
        fields: &[Field],
        picks: &[Pick],
        out: &mut Picked,
    ) -> Result<()> {
        let base = out.fields.len();
        out.fields.resize(base + fields.len(), NO_NODE);
        out.slots[at] = base as u32;
        for (idx, node) in self.entries(at, at + 1) {
            let field = fields.get(idx).ok_or_else(tape_schema_mismatch)?;
            out.fields[base + idx] = node as u32;
            if !matches!(picks[idx], Pick::Skip) {
                self.pick(node, &field.data_type, &picks[idx], out)?;
            }
        }
        Ok(())
    }
}

/// A picked record's tape as [`Flattener`] input: a node is a word
/// position, and a struct resolves its fields through the pick's
/// [`Picked::fields`]. Reads nothing from the record.
struct PickedTape<'a> {
    tape: Tape<'a>,
    picked: &'a Picked,
}

impl FlatInput for PickedTape<'_> {
    type Node = u32;

    fn null(&self) -> u32 {
        NO_NODE
    }

    fn field(&self, node: u32, idx: usize) -> u32 {
        let at = node as usize;
        if node == NO_NODE || self.tape.words[at] & TAPE_TAG != TAPE_STRUCT {
            return NO_NODE;
        }
        self.picked.fields[self.picked.slots[at] as usize + idx]
    }

    fn elements(&self, node: u32, mut visit: impl FnMut(u32)) -> bool {
        let (tape, at) = (self.tape, node as usize);
        if node == NO_NODE || tape.words[at] & TAPE_TAG != TAPE_LIST || tape.node_len(at) == 1 {
            return false;
        }
        let end = at + tape.node_len(at);
        let mut elem = at + 1;
        while elem < end {
            visit(elem as u32);
            elem += tape.node_len(elem);
        }
        true
    }
}

/// A projection compiled for batched scans of JSON records: each
/// record's flattened rows go straight into typed batch columns, one
/// per projected leaf in projection order. A record with a structure
/// tape is read from it — its picked leaves by the map-read routines,
/// then its rows by [`Flattener::flatten_from`] over the tape — so no
/// `Value` is built; a record without one is parsed by [`parse_record`]
/// and flattened from that. Either way the rows, values and error are
/// those of flattening [`parse_record_at`]'s record.
pub struct TapeScan<'s> {
    schema: &'s Schema,
    /// Compiled by the first record a first scan tapes.
    shape: Option<StructShape<'s>>,
    projection: LeafProjection,
    flattener: Flattener,
    /// The pick of each top-level field.
    picks: Vec<Pick>,
    /// The batch column of each flattened row position.
    columns: Vec<usize>,
    picked: Picked,
    rows: FlatRows<u32>,
}

impl<'s> TapeScan<'s> {
    /// Compiles the scan of `projection` (leaf ids, one batch column
    /// each, in order) over records of `schema`, whose leaves are
    /// `leaves`.
    pub fn new(schema: &'s Schema, leaves: &[LeafField], projection: &[usize]) -> Self {
        let mut column_of = vec![None; leaves.len()];
        for (column, &leaf) in projection.iter().enumerate() {
            column_of[leaf] = Some(column);
        }
        let accessed: Vec<bool> = column_of.iter().map(Option::is_some).collect();
        let mut leaf = 0;
        let picks = Pick::of_fields(schema.fields(), &column_of, &mut leaf);
        TapeScan {
            schema,
            shape: None,
            projection: LeafProjection::new(schema, &accessed),
            flattener: Flattener::projected(schema, &accessed),
            picks,
            columns: column_of.into_iter().flatten().collect(),
            picked: Picked {
                slots: Vec::new(),
                columns: projection
                    .iter()
                    .map(|&leaf| ScratchColumn::new(leaves[leaf].scalar_type))
                    .collect(),
                fields: Vec::new(),
            },
            rows: FlatRows::new(),
        }
    }

    /// Appends the rows of record `record` of a JSON map, read from its
    /// tape when the map holds one; returns how many there were. With
    /// `masks`, also appends each row's list-position mask (as
    /// [`Flattener::new`] gives it, when every leaf is projected).
    pub fn push_mapped(
        &mut self,
        bytes: &[u8],
        map: &PositionalMap,
        record: usize,
        cols: &mut [ScratchColumn],
        masks: Option<&mut Vec<u64>>,
    ) -> Result<usize> {
        let (start, end) = map.record_span(record);
        let line = &bytes[start..trim_newline(bytes, start, end)];
        self.push_record(line, map.json_tape(record), cols, masks)
    }

    /// First scans: builds the tape of the record `line` onto `tape` (as
    /// [`scan_build_map`] does, leaving `tape` as it was when the walk
    /// cannot index the record), then appends the record's rows; returns
    /// how many there were.
    pub fn push_taping(
        &mut self,
        line: &[u8],
        tape: &mut Vec<u32>,
        cols: &mut [ScratchColumn],
    ) -> Result<usize> {
        let root = tape.len();
        let schema = self.schema;
        let shape = self
            .shape
            .get_or_insert_with(|| StructShape::of(schema.fields()));
        if build_tape(line, shape, tape) {
            self.push_record(line, Some(&tape[root..]), cols, None)
        } else {
            self.push_record(line, None, cols, None)
        }
    }

    fn push_record(
        &mut self,
        line: &[u8],
        words: Option<&[u32]>,
        cols: &mut [ScratchColumn],
        masks: Option<&mut Vec<u64>>,
    ) -> Result<usize> {
        let Some(words) = words else {
            let record = parse_record(line, self.schema, Some(&self.projection))?;
            let mut rows = FlatRows::new();
            self.flattener.flatten_into(&record, &mut rows);
            for (row, _) in rows.iter() {
                for (&column, &value) in self.columns.iter().zip(row) {
                    cols[column].push(value);
                }
            }
            if let Some(masks) = masks {
                masks.extend(rows.iter().map(|(_, mask)| mask));
            }
            return Ok(rows.len());
        };
        let tape = Tape {
            words,
            record: line,
        };
        let picked = &mut self.picked;
        if picked.slots.len() < words.len() {
            picked.slots.resize(words.len(), NO_NODE);
        }
        picked.columns.iter_mut().for_each(ScratchColumn::clear);
        picked.fields.clear();
        tape.pick_fields(0, self.schema.fields(), &self.picks, picked)?;
        self.rows.clear();
        let input = PickedTape { tape, picked };
        self.flattener.flatten_from(&input, 0, &mut self.rows);
        for (row, _) in self.rows.iter() {
            for (&column, &node) in self.columns.iter().zip(row) {
                match picked.slots.get(node as usize) {
                    Some(&entry) if entry != NO_NODE => {
                        cols[column].push_entry(&picked.columns[column], entry as usize)
                    }
                    _ => cols[column].push_null(),
                }
            }
        }
        if let Some(masks) = masks {
            masks.extend(self.rows.iter().map(|(_, mask)| mask));
        }
        Ok(self.rows.len())
    }
}

fn tape_schema_mismatch() -> Error {
    Error::exec("positional map tape does not match the schema")
}

/// Parses the JSON number literal starting at `bytes[pos]`, returning
/// the value (`Int` for integral literals, `Float` otherwise — i64
/// overflow widens to float) and the position just past it. One routine
/// shared by the row tokenizer and the batched flat-JSON tokenizer
/// (`json_batch`), so the accepted character set and the
/// integral-vs-float split can never diverge between the two paths.
#[inline]
pub(crate) fn parse_number_at(bytes: &[u8], pos: usize) -> Result<(Value, usize)> {
    match parse_short_number_at(bytes, pos) {
        Some(short) => Ok(short),
        None => parse_long_number_at(bytes, pos),
    }
}

/// [`parse_number_at`] of a literal its fast path does not take.
#[cold]
fn parse_long_number_at(bytes: &[u8], pos: usize) -> Result<(Value, usize)> {
    let start = pos;
    let (pos, is_float) = number_extent(bytes, start);
    let text = std::str::from_utf8(&bytes[start..pos])
        .map_err(|_| Error::parse_at("invalid number", start))?;
    if text.is_empty() || text == "-" {
        return Err(Error::parse_at("invalid number", start));
    }
    let value = if is_float {
        crate::csv::parse_f64_fast(text.as_bytes())
            .map_or_else(|| text.parse::<f64>(), Ok)
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

/// The end of the number literal at `bytes[pos]` — an optional `-`, then
/// digits and float characters — and whether it holds a float character.
/// The parser and the tape builder both take this extent.
fn number_extent(bytes: &[u8], pos: usize) -> (usize, bool) {
    let mut end = pos + usize::from(bytes.get(pos) == Some(&b'-'));
    let mut is_float = false;
    while let Some(b) = bytes.get(end) {
        match b {
            b'0'..=b'9' => end += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                is_float = true;
                end += 1;
            }
            _ => break,
        }
    }
    (end, is_float)
}

/// [`parse_number_at`]'s fast path, one pass over the literal: an
/// integer of at most 18 digits (which cannot overflow an `i64`), or a
/// decimal `-?d*.d*` of 1 to 15 digits, not followed by another number
/// character. An integer is accumulated directly to the value
/// `str::parse::<i64>` gives it, a decimal to the single rounding
/// `csv::parse_f64_fast` does. `None` sends every other literal down the
/// general path.
#[inline]
fn parse_short_number_at(bytes: &[u8], pos: usize) -> Option<(Value, usize)> {
    const POW10: [f64; 16] = [
        1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
    ];
    let negative = bytes.get(pos) == Some(&b'-');
    let mut end = pos + usize::from(negative);
    let (mut mantissa, mut digits, mut dot) = (0i64, 0usize, None);
    loop {
        match bytes.get(end) {
            Some(&b @ b'0'..=b'9') => {
                if digits == 18 {
                    return None;
                }
                mantissa = mantissa * 10 + i64::from(b - b'0');
                digits += 1;
            }
            Some(b'.') if dot.is_none() => dot = Some(end),
            Some(b'.' | b'e' | b'E' | b'+' | b'-') => return None,
            _ => break,
        }
        end += 1;
    }
    let value = match dot {
        _ if digits == 0 => return None,
        None => Value::Int(if negative { -mantissa } else { mantissa }),
        Some(_) if digits > 15 => return None,
        Some(dot) => {
            let v = mantissa as f64 / POW10[end - dot - 1];
            Value::Float(if negative { -v } else { v })
        }
    };
    Some((value, end))
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

/// Full scan over line-delimited JSON: builds each record's structure
/// tape, decodes the record (restricted to `projection` if given) from
/// it, and returns a positional map holding record offsets and tapes. A
/// record the tape walk cannot index gets no tape and is parsed by
/// [`parse_record`], here and on every later read.
pub fn scan_build_map(
    bytes: &[u8],
    schema: &Schema,
    projection: Option<&LeafProjection>,
    mut on_record: impl FnMut(usize, Value) -> Result<()>,
) -> Result<PositionalMap> {
    let shape = StructShape::of(schema.fields());
    let want = projection.map_or(&Want::All, |p| &p.root);
    let mut record_offsets = Vec::with_capacity(bytes.len() / 64 + 2);
    let mut tape_starts = Vec::with_capacity(bytes.len() / 64 + 2);
    let mut tape = Vec::with_capacity(bytes.len() / 8);
    let mut pos = 0usize;
    let mut record_id = 0usize;
    while pos < bytes.len() {
        record_offsets.push(pos as u64);
        tape_starts.push(tape.len() as u64);
        let end = line_end(bytes, pos);
        let line = &bytes[pos..end];
        let root = tape.len();
        let record = if build_tape(line, &shape, &mut tape) {
            Tape {
                words: &tape[root..],
                record: line,
            }
            .decode_struct(0, schema.fields(), want)?
        } else {
            parse_record(line, schema, projection)?
        };
        on_record(record_id, record)?;
        record_id += 1;
        pos = end + 1;
    }
    record_offsets.push(bytes.len() as u64);
    tape_starts.push(tape.len() as u64);
    tape.shrink_to_fit();
    Ok(PositionalMap::with_json_tape(
        record_offsets,
        tape_starts,
        tape,
    ))
}

/// Positional-map-assisted scan: no line re-splitting; each record is
/// decoded (selectively) from its tape, or parsed from its known byte
/// range when it has none.
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

/// Reads one record by id through the map — the lazy-cache re-read and
/// materialization path. Equal to [`parse_record`] over the record's
/// line, value or error.
pub fn parse_record_at(
    bytes: &[u8],
    schema: &Schema,
    map: &PositionalMap,
    record: usize,
    projection: Option<&LeafProjection>,
) -> Result<Value> {
    let (start, end) = map.record_span(record);
    let line = &bytes[start..trim_newline(bytes, start, end)];
    match map.json_tape(record) {
        Some(words) => {
            let want = projection.map_or(&Want::All, |p| &p.root);
            Tape {
                words,
                record: line,
            }
            .decode_struct(0, schema.fields(), want)
        }
        None => parse_record(line, schema, projection),
    }
}

/// Shreds one full record by id through the map into `builder` — the
/// materialization path: from its structure tape when it has one, with
/// no `Value` built; otherwise parsed by [`parse_record`] first. The
/// store and any error are those of shredding [`parse_record_at`]'s
/// record.
pub fn shred_record_at(
    bytes: &[u8],
    schema: &Schema,
    map: &PositionalMap,
    record: usize,
    builder: &mut DremelBuilder,
) -> Result<()> {
    let (start, end) = map.record_span(record);
    let line = &bytes[start..trim_newline(bytes, start, end)];
    match map.json_tape(record) {
        Some(words) => builder.push_node(TapeNode {
            tape: Tape {
                words,
                record: line,
            },
            at: 0,
        }),
        None => {
            builder.push_record(&parse_record(line, schema, None)?);
            Ok(())
        }
    }
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

    /// A schema with every container shape a tape can hold: top-level
    /// scalars, a list of structs holding a list, and a struct holding a
    /// list. Leaves: a, b, s, items.q, items.tag, items.sub, meta.x,
    /// meta.y.
    fn hostile_schema() -> Schema {
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("b", DataType::Float),
            Field::new("s", DataType::Str),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::new("q", DataType::Int),
                    Field::new("tag", DataType::Str),
                    Field::new("sub", DataType::List(Box::new(DataType::Int))),
                ]))),
            ),
            Field::new(
                "meta",
                DataType::Struct(vec![
                    Field::new("x", DataType::Int),
                    Field::new("y", DataType::List(Box::new(DataType::Float))),
                ]),
            ),
        ])
    }

    /// The leaf masks a tape must agree with the parser under: no
    /// projection, no leaf, each single leaf and all leaves.
    fn every_mask(schema: &Schema) -> Vec<Option<LeafProjection>> {
        let n = schema.leaves().len();
        let mut masks = vec![None, Some(vec![false; n]), Some(vec![true; n])];
        masks.extend((0..n).map(|leaf| Some((0..n).map(|i| i == leaf).collect())));
        masks
            .into_iter()
            .map(|mask| mask.map(|m: Vec<bool>| LeafProjection::new(schema, &m)))
            .collect()
    }

    fn outcome(result: Result<Value>) -> std::result::Result<Value, String> {
        result.map_err(|e| e.to_string())
    }

    /// A first scan of `line` under every mask equals a fresh parse under
    /// that mask, and when the scan builds a map, reading the record
    /// back through it under every mask equals a fresh parse too — the
    /// same `Value` or the same error string. Returns the last map built,
    /// or `None` if every first scan failed.
    fn assert_mapped_reads_match_parser(schema: &Schema, line: &[u8]) -> Option<PositionalMap> {
        let masks = every_mask(schema);
        let bytes = [line, b"\n"].concat();
        let mut built = None;
        for build in &masks {
            let mut first = Vec::new();
            let scanned = scan_build_map(&bytes, schema, build.as_ref(), |_, v| {
                first.push(v);
                Ok(())
            });
            let fresh = outcome(parse_record(line, schema, build.as_ref()));
            let map = match scanned {
                Ok(map) => map,
                Err(err) => {
                    assert_eq!(Err(err.to_string()), fresh, "first scan of {line:?}");
                    continue;
                }
            };
            assert_eq!(Ok(first.remove(0)), fresh, "first scan of {line:?}");
            for read in &masks {
                assert_eq!(
                    outcome(parse_record_at(&bytes, schema, &map, 0, read.as_ref())),
                    outcome(parse_record(line, schema, read.as_ref())),
                    "mapped read of {:?} under {read:?}",
                    String::from_utf8_lossy(line)
                );
            }
            built = Some(map);
        }
        built
    }

    /// Hostile records of [`hostile_schema`] whose structure is sound.
    const SOUND_LINES: &[&[u8]] = &[
        // Keys out of schema order, at every depth.
        br#"{"meta":{"y":[1.5,2],"x":3},"items":[{"sub":[1,2],"tag":"t","q":4}],"s":"str","b":2.5,"a":1}"#,
        // Unknown keys holding nested objects and arrays.
        br#"{"zz":{"a":[1,{"b":"}]"}]},"a":1,"items":[{"unk":{"q":9},"q":2}],"meta":{"w":[{}],"x":5}}"#,
        // Escaped keys: matched, unknown, and one holding a quote.
        br#"{"\u0061":7,"m\u0065ta":{"\u0078":1},"items":[{"t\u0061g":"v"}],"s\"":"no"}"#,
        br#"{"\u00e9":7,"a\n":{"x":1},"a":2}"#,
        // Duplicate keys, top level and inside list elements.
        br#"{"a":1,"a":2,"items":[{"q":1,"q":5,"tag":"x"},{"tag":"y","tag":"z"}],"meta":{"x":1},"meta":{"y":[3]}}"#,
        // `{}` where a list is expected, `[]` where a struct is.
        br#"{"items":{},"meta":[],"a":1}"#,
        br#"{"items":[{"sub":{}},[]],"meta":{"y":{}}}"#,
        // Scalars where containers are expected, and the reverse.
        br#"{"items":5,"meta":"m","a":1}"#,
        br#"{"items":[1,"x",true,null],"meta":{"y":"z","x":[1]}}"#,
        br#"{"a":{"x":1},"s":[1,2],"b":[],"meta":{"x":{"y":2}}}"#,
        // Nulls, empty lists and extra whitespace.
        b"  { \"a\" : null , \"items\" : [ ] , \"meta\" : { \"y\" : [ ] , \"x\" : null } , \"s\" : null }  ",
        br#"{"items":[{"sub":[],"q":null},{}],"meta":{}}"#,
        br#"{}"#,
        // Invalid numbers in fields only some masks access.
        br#"{"a":1,"b":1.2.3,"items":[{"q":--4,"tag":"ok"}]}"#,
        br#"{"a":-,"meta":{"y":[1e,2]}}"#,
        // Invalid UTF-8 in fields only some masks access.
        b"{\"a\":1,\"s\":\"ab\xffcd\",\"items\":[{\"tag\":\"\xfe\",\"q\":3}]}",
        b"{\"a\":1,\"items\":[{\"q\":3,\"sub\":[1]}],\"meta\":{\"x\":\"\xc3\"}}",
        // A bad escape in a field only some masks access.
        br#"{"s":"\q","a":1}"#,
        // Coercions and mismatched scalars.
        br#"{"a":true,"b":false,"s":true,"meta":{"x":false,"y":[true,"1.5",2]}}"#,
        br#"{"a":"7","b":"1.5","s":42,"items":[{"q":1.9,"tag":3}]}"#,
        // Integers at and beyond the fast path.
        br#"{"a":-0,"b":123456789012345678,"items":[{"q":007}]}"#,
        br#"{"a":9223372036854775807,"b":-9223372036854775808,"meta":{"x":-9223372036854775808}}"#,
        br#"{"a":1234567890123456789012,"items":[{"q":-123456789012345678}]}"#,
        // A duplicate whose first occurrence cannot be decoded.
        b"{\"a\":\"\xff\",\"a\":2,\"b\":1.0}",
        // An unknown key's unbalanced value, which skipping accepts.
        br#"{"a":1,"zz":[1,2},"b":2.0}"#,
        // Escaped string values and trailing bytes after the record.
        br#"{"s":"a\"b\\c\u00e9","items":[{"tag":"\n\t"}]} trailing"#,
    ];

    /// Damage in a field only some masks access: the parser skips it
    /// unread, so some first scans succeed.
    const SKIPPABLE_DAMAGE_LINES: &[&[u8]] = &[
        br#"{"a":1,"b":tru}"#,
        br#"{"a":12ab,"b":1.0}"#,
        br#"{"a":1,"items":[{"q":1 2}]}"#,
        br#"{"a":1,"meta":{"x" 1}}"#,
        br#"{"a":1,"meta":{"\q":1}}"#,
    ];

    /// Truncated records and other damage every parse reads.
    const BROKEN_LINES: &[&[u8]] = &[
        br#"{"a":1,"items":[{"q":1"#,
        br#"{"a":1,"b""#,
        br#"{"a" 1}"#,
        br#"{"a":1,}"#,
        br#"{"a":1,"\q":1}"#,
        br#"[1]"#,
        b"",
    ];

    /// Sound records on lines of their own, with surrounding whitespace.
    const MULTI_RECORD_FILE: &[u8] = b"{\"a\":1,\"items\":[{\"q\":2}]}\n{\"a\":2,\"zz\":[1,2},\"b\":2.0}\n  {\"a\":3 }  \n{\"meta\":{\"x\":4},\"a\":4}";

    #[test]
    fn mapped_reads_of_hostile_records_match_the_parser() {
        let schema = hostile_schema();
        for line in SOUND_LINES.iter().chain(SKIPPABLE_DAMAGE_LINES) {
            assert!(assert_mapped_reads_match_parser(&schema, line).is_some());
        }
        for line in BROKEN_LINES {
            assert!(assert_mapped_reads_match_parser(&schema, line).is_none());
        }
    }

    /// Shredding one record through the map, from its tape or (with the
    /// tape dropped from the map) after a parse, builds the store of
    /// shredding [`parse_record`]'s value, or fails with its error.
    fn assert_shredding_matches_parser(schema: &Schema, bytes: &[u8]) {
        let nothing = LeafProjection::new(schema, &vec![false; schema.leaves().len()]);
        let map = scan_build_map(bytes, schema, Some(&nothing), |_, _| Ok(())).unwrap();
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        assert_eq!(map.record_count(), lines.len());
        let untaped = PositionalMap::with_json_tape(
            map.record_offsets().to_vec(),
            vec![0; lines.len() + 1],
            Vec::new(),
        );
        let shred = |map: &PositionalMap, record: usize| {
            let mut builder = DremelBuilder::new(schema);
            shred_record_at(bytes, schema, map, record, &mut builder).map(|()| builder.finish())
        };
        for (record, line) in lines.iter().enumerate() {
            let want = parse_record(line, schema, None).map(|value| {
                let mut builder = DremelBuilder::new(schema);
                builder.push_record(&value);
                builder.finish()
            });
            let want = want.map_err(|e| e.to_string());
            let case = String::from_utf8_lossy(line);
            assert!(map.json_tape(record).is_some(), "{case}");
            assert_eq!(
                shred(&map, record).map_err(|e| e.to_string()),
                want,
                "{case}"
            );
            assert!(untaped.json_tape(record).is_none());
            assert_eq!(
                shred(&untaped, record).map_err(|e| e.to_string()),
                want,
                "{case}"
            );
        }
    }

    #[test]
    fn shredding_hostile_records_through_the_map_matches_the_parser() {
        let schema = hostile_schema();
        assert_shredding_matches_parser(&schema, &SOUND_LINES.join(&b'\n'));
        let schema = duplicate_names_schema();
        assert_shredding_matches_parser(&schema, DUPLICATE_NAMES_LINE);
    }

    fn duplicate_names_schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
            Field::new("a", DataType::Str),
            Field::new(
                "l",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::new("k", DataType::Int),
                    Field::new("k", DataType::Int),
                ]))),
            ),
        ])
    }

    const DUPLICATE_NAMES_LINE: &[u8] = br#"{"a":1,"b":2,"a":3,"l":[{"k":4,"k":5},{"k":6}]}"#;

    #[test]
    fn duplicate_schema_names_resolve_to_the_first_field() {
        let schema = duplicate_names_schema();
        assert_eq!(
            parse_record(DUPLICATE_NAMES_LINE, &schema, None).unwrap(),
            Value::Struct(vec![
                Value::Int(3),
                Value::Int(2),
                Value::Null,
                Value::List(vec![
                    Value::Struct(vec![Value::Int(5), Value::Null]),
                    Value::Struct(vec![Value::Int(6), Value::Null]),
                ]),
            ])
        );
        for line in [
            DUPLICATE_NAMES_LINE,
            br#"{"b":2,"a":"x","a":1}"#,
            br#"{"l":[{"k":1}],"a":1,"b":2}"#,
        ] {
            assert!(assert_mapped_reads_match_parser(&schema, line).is_some());
        }
    }

    #[test]
    fn only_records_the_tape_walk_can_index_get_a_tape() {
        let schema = hostile_schema();
        // Skipping every leaf, every first scan of these succeeds.
        let nothing = LeafProjection::new(&schema, &vec![false; schema.leaves().len()]);
        let taped = |schema: &Schema, projection: Option<&LeafProjection>, line: &[u8]| {
            let map = scan_build_map(line, schema, projection, |_, _| Ok(())).unwrap();
            map.json_tape(0).is_some()
        };
        for line in SOUND_LINES {
            assert!(taped(&schema, Some(&nothing), line), "{line:?}");
        }
        for line in SKIPPABLE_DAMAGE_LINES {
            assert!(!taped(&schema, Some(&nothing), line), "{line:?}");
        }
        assert!(taped(&duplicate_names_schema(), None, DUPLICATE_NAMES_LINE));
        let bytes = MULTI_RECORD_FILE;
        let map = scan_build_map(bytes, &schema, None, |_, _| Ok(())).unwrap();
        assert!((0..map.record_count()).all(|record| map.json_tape(record).is_some()));
    }

    #[test]
    fn mapped_reads_of_a_multi_record_file_match_the_parser() {
        let schema = hostile_schema();
        let bytes = MULTI_RECORD_FILE;
        let lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let map = scan_build_map(bytes, &schema, None, |_, _| Ok(())).unwrap();
        assert_eq!(map.record_count(), lines.len());
        for read in &every_mask(&schema) {
            for (record, line) in lines.iter().enumerate() {
                assert_eq!(
                    outcome(parse_record_at(bytes, &schema, &map, record, read.as_ref())),
                    outcome(parse_record(line, &schema, read.as_ref()))
                );
            }
        }
    }

    #[test]
    fn small_integers_take_the_fast_path_to_the_same_value() {
        // The general path alone, as it was before the fast path.
        fn general(text: &str) -> std::result::Result<(Value, usize), String> {
            let end = text
                .bytes()
                .enumerate()
                .skip(usize::from(text.starts_with('-')))
                .find(|(_, b)| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .map_or(text.len(), |(i, _)| i);
            let lit = &text[..end];
            if lit.is_empty() || lit == "-" {
                return Err("invalid number".into());
            }
            if lit.contains(['.', 'e', 'E', '+']) || lit[1..].contains('-') {
                return lit
                    .parse::<f64>()
                    .map(|v| (Value::Float(v), end))
                    .map_err(|e| e.to_string());
            }
            let value = lit
                .parse::<i64>()
                .map(Value::Int)
                .or_else(|_| lit.parse::<f64>().map(Value::Float))
                .map_err(|e| e.to_string())?;
            Ok((value, end))
        }
        for text in [
            "0",
            "-0",
            "007",
            "7,",
            "-12}",
            "123456789012345678",
            "-123456789012345678",
            "999999999999999999]",
            "1234567890123456789",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "12345678901234567890123",
            "1.5",
            "1e3",
            "1E+3",
            "12-3",
            "-",
            "-x",
            "",
            "x",
        ] {
            let got = parse_number_at(text.as_bytes(), 0).map_err(|_| "error".to_string());
            let want = general(text).map_err(|_| "error".to_string());
            assert_eq!(got, want, "{text:?}");
        }
    }

    /// Float literals take the exact `mantissa / 10^frac` fast path to
    /// the bits `str::parse` gives them, and every other literal the
    /// `str::parse` path as before: same value bits, end and error.
    #[test]
    fn float_literals_parse_to_the_bits_str_parse_gives() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // `parse_number_at`'s general path with `str::parse` alone.
        fn str_parse_path(bytes: &[u8]) -> Result<(Value, usize)> {
            let (end, is_float) = number_extent(bytes, 0);
            let text = std::str::from_utf8(&bytes[..end]).unwrap();
            if text.is_empty() || text == "-" {
                return Err(Error::parse_at("invalid number", 0));
            }
            let value = if is_float {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::parse_at(format!("invalid float '{text}'"), 0))?
            } else {
                text.parse::<i64>()
                    .map(Value::Int)
                    .or_else(|_| text.parse::<f64>().map(Value::Float))
                    .map_err(|_| Error::parse_at(format!("invalid int '{text}'"), 0))?
            };
            Ok((value, end))
        }
        fn bits(outcome: Result<(Value, usize)>) -> std::result::Result<(String, usize), String> {
            outcome
                .map(|(value, end)| match value {
                    Value::Float(v) => (format!("float {:#x}", v.to_bits()), end),
                    other => (format!("{other:?}"), end),
                })
                .map_err(|e| e.to_string())
        }
        let mut literals: Vec<String> = [
            "-0.0",
            "0.0",
            "-0.5",
            "1.",
            "-1.",
            ".5",
            "-.5",
            "+1.5",
            "+.5",
            ".",
            "-.",
            "+",
            "1.5-3",
            "1.5+3",
            "1.2.3",
            "--1.5",
            "1e5",
            "1.5e-3",
            "-2.5E+10",
            "1e",
            "1e400",
            "123456789012345.0",
            "12345678.1234567",
            "1234567890123456.0",
            "1.234567890123456",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "9.99999999999999999999999999",
            "0.000000000000001",
            "0.0000000000000000000000001",
            "123456789012345.6,",
            "2.5]",
        ]
        .map(String::from)
        .to_vec();
        let mut rng = StdRng::seed_from_u64(0xF10A7);
        for _ in 0..5000 {
            let digits: String = (0..rng.random_range(1..=24))
                .map(|_| char::from(b'0' + rng.random_range(0..10u8)))
                .collect();
            let dot = rng.random_range(0..=digits.len());
            let sign = ["", "-", "+"][rng.random_range(0..3)];
            let exponent = match rng.random_range(0..6) {
                0 => format!("e{}", rng.random_range(-30..30)),
                1 => "-3".to_string(),
                _ => String::new(),
            };
            literals.push(format!(
                "{sign}{}.{}{exponent}",
                &digits[..dot],
                &digits[dot..]
            ));
        }
        for text in &literals {
            let bytes = text.as_bytes();
            assert_eq!(
                bits(parse_number_at(bytes, 0)),
                bits(str_parse_path(bytes)),
                "{text:?}"
            );
        }
    }

    #[test]
    fn the_fast_path_takes_exactly_the_short_literals() {
        assert_eq!(
            parse_short_number_at(b"-123456789012345678,", 0),
            Some((Value::Int(-123456789012345678), 19))
        );
        assert_eq!(parse_short_number_at(b"007]", 0), Some((Value::Int(7), 3)));
        assert_eq!(parse_short_number_at(b"1234567890123456789", 0), None);
        assert_eq!(
            parse_short_number_at(b"-12.5}", 0),
            Some((Value::Float(-12.5), 5))
        );
        assert_eq!(
            parse_short_number_at(b".5", 0),
            Some((Value::Float(0.5), 2))
        );
        assert_eq!(parse_short_number_at(b"1234567890.123456", 0), None);
        assert_eq!(parse_short_number_at(b"1.2.3", 0), None);
        assert_eq!(parse_short_number_at(b"1e5", 0), None);
        assert_eq!(parse_short_number_at(b"-", 0), None);
        assert_eq!(parse_short_number_at(b".", 0), None);
    }

    /// Every edge literal in every scalar position pushes — through the
    /// record's tape, through its parsed `Value` and into a batched
    /// scan's pick column — what `ColumnData::push` stores for
    /// `parse_record`'s value of it.
    #[test]
    fn edge_literals_push_what_column_push_stores() {
        use recache_layout::{Column, DremelStore};
        const LITERALS: &[&str] = &[
            "-0",
            "7",
            "1.5",
            "-1.5",
            "1e3",
            "1E+3",
            "-2.5e-3",
            "1e400",
            "1234567890123456789",
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775809",
            "12345678901234567890123",
            "true",
            "false",
            "\"7\"",
            "\"\"",
            "\"x\\u00e9\\n\"",
            "null",
            "{}",
            "[]",
            "{\"v\":1}",
            "[1,2]",
        ];
        for ty in [
            DataType::Int,
            DataType::Float,
            DataType::Bool,
            DataType::Str,
        ] {
            let scalar = ty.as_scalar().unwrap();
            for field in [
                Field::new("v", ty.clone()),
                Field::required("v", ty.clone()),
            ] {
                let schema = Schema::new(vec![field]);
                for literal in LITERALS {
                    let case = format!("{ty:?} {literal}");
                    let bytes = format!("{{\"v\":{literal}}}").into_bytes();
                    let parsed = parse_record(&bytes, &schema, None).unwrap();
                    let Value::Struct(fields) = &parsed else {
                        panic!("records parse to structs")
                    };
                    let mut want = Column::new(scalar);
                    want.push(&fields[0]);
                    let want = want.get(0);
                    let map = scan_build_map(&bytes, &schema, None, |_, _| Ok(())).unwrap();
                    assert!(map.json_tape(0).is_some(), "{case}");
                    let mut builder = DremelBuilder::new(&schema);
                    shred_record_at(&bytes, &schema, &map, 0, &mut builder).unwrap();
                    let taped = builder.finish();
                    assert_eq!(taped.column(0).value(0), want, "{case}: tape");
                    let valued = DremelStore::build(&schema, [&parsed]);
                    assert_eq!(valued.column(0).value(0), want, "{case}: value");
                    assert_eq!(taped, valued, "{case}: stores");
                    let mut scan = TapeScan::new(&schema, schema.leaves(), &[0]);
                    let mut cols = vec![ScratchColumn::new(scalar)];
                    assert_eq!(
                        scan.push_mapped(&bytes, &map, 0, &mut cols, None).unwrap(),
                        1
                    );
                    assert_eq!(cols[0].as_batch_column().value(0), want, "{case}: pick");
                }
            }
        }
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

//! Seeded random schemas and records for differential tests: nested
//! types of every kind, and records that are mostly well typed, with
//! nulls, empty lists, short structs and type mismatches mixed in.
//!
//! `recache-types`' flattening tests and `recache-layout`'s assembly
//! tests both include this file, so it names this crate by its package
//! name.

use recache_types::{DataType, Field, Schema, Value};

/// SplitMix64: a dependency-free seeded generator for the tests.
pub(crate) struct Rng(u64);

impl Rng {
    pub(crate) fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub(crate) fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub(crate) fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

fn random_type(rng: &mut Rng, depth: u32) -> DataType {
    let nested = depth < 3;
    match rng.below(if nested { 8 } else { 4 }) {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        3 => DataType::Bool,
        4 | 5 => DataType::List(Box::new(random_type(rng, depth + 1))),
        _ => DataType::Struct(random_fields(rng, depth + 1)),
    }
}

fn random_fields(rng: &mut Rng, depth: u32) -> Vec<Field> {
    (0..1 + rng.below(3))
        .map(|i| Field::new(format!("f{i}"), random_type(rng, depth)))
        .collect()
}

/// A value for `ty`: mostly well-typed, with nulls, empty lists,
/// short structs and type mismatches mixed in.
fn random_value(rng: &mut Rng, ty: &DataType) -> Value {
    if rng.chance(10) {
        return Value::Null;
    }
    if rng.chance(5) {
        // Type mismatch: a scalar where a container belongs, or a
        // container where a scalar belongs.
        return match ty {
            DataType::List(_) | DataType::Struct(_) => Value::Int(rng.below(9) as i64),
            _ => Value::List(vec![Value::Int(1)]),
        };
    }
    match ty {
        DataType::Int => Value::Int(rng.below(100) as i64),
        DataType::Float => Value::Float(rng.below(100) as f64 / 4.0),
        DataType::Str => Value::Str(format!("s{}", rng.below(20))),
        DataType::Bool => Value::Bool(rng.chance(50)),
        DataType::List(inner) => Value::List(
            (0..rng.below(4))
                .map(|_| random_value(rng, inner))
                .collect(),
        ),
        DataType::Struct(fields) => {
            // Sometimes shorter than the schema: absent trailing fields.
            let n = fields.len() - usize::from(rng.chance(20));
            Value::Struct(
                fields[..n]
                    .iter()
                    .map(|f| random_value(rng, &f.data_type))
                    .collect(),
            )
        }
    }
}

pub(crate) fn random_schema(rng: &mut Rng) -> Schema {
    Schema::new(random_fields(rng, 0))
}

pub(crate) fn random_record(rng: &mut Rng, schema: &Schema) -> Value {
    random_value(rng, &DataType::Struct(schema.fields().to_vec()))
}

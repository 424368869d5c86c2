//! Core data model for ReCache: schemas, values, nested field paths and
//! flattening semantics shared by the raw-data readers, the cache layouts
//! and the query engine.
//!
//! ReCache (Azim, Karpathiotakis, Ailamaki — PVLDB 11(3), 2017) operates
//! over *heterogeneous* raw data: flat CSV relations and nested JSON
//! documents. This crate defines the common type system:
//!
//! * [`DataType`] / [`Schema`] — a nested type tree (scalars, lists,
//!   structs) with per-leaf Dremel definition/repetition levels,
//! * [`Value`] — a dynamically typed value,
//! * [`FieldPath`] — dotted paths such as `lineitems.l_quantity` that
//!   navigate through struct fields (list layers are traversed implicitly,
//!   as in Dremel),
//! * [`flatten`] — the canonical flattening of a nested record into
//!   relational rows: the semantics the relational-columnar cache layout
//!   stores and the Dremel layout reconstructs.

// The shared test generator (`testgen.rs`) names this crate by its
// package name, as the other crates that include it do.
#[cfg(test)]
extern crate self as recache_types;

pub mod ctl;
pub mod datatype;
pub mod error;
pub mod flatten;
pub mod path;
#[cfg(test)]
mod testgen;
pub mod value;

pub use ctl::{CancelToken, ScanCtl};
pub use datatype::{DataType, Field, LeafField, ScalarType, Schema};
pub use error::{Error, Result};
pub use flatten::{
    flatten_record, flatten_record_projected, list_dim_ranges, FlatInput, FlatRow, FlatRows,
    Flattener, ValueTree,
};
pub use path::FieldPath;
pub use value::{Row, Value};

//! Canonical flattening of nested records into relational rows.
//!
//! ReCache's relational columnar cache layout stores nested data
//! *flattened*: every list is exploded into one row per element, with
//! non-nested fields duplicated across those rows (§4 of the paper: the
//! JSON entry `{"a":1,"b":4,"c":[4,6,9]}` becomes three rows). Sibling
//! lists multiply (cartesian product); an empty or absent list still
//! yields one row with `Null` for the leaves beneath it, so no record is
//! ever dropped by flattening.
//!
//! The *projected* variant only explodes lists that carry accessed leaves.
//! This is how raw scans and Dremel-layout scans behave: a query touching
//! only non-nested attributes sees one row per record ("4x fewer rows", as
//! the paper observes on `orderLineitems`), while the same query over the
//! relational columnar cache iterates all flattened rows.
//!
//! There is one implementation: a [`Flattener`] compiles a schema (and
//! optionally a leaf projection) once, then walks each record in a single
//! pass, appending every flattened row exactly once — as leaf nodes plus
//! its list-dimension mask — to a caller-owned [`FlatRows`] buffer. The
//! walk reads a record only through the [`FlatInput`] trait, so a parsed
//! `&Value` tree ([`ValueTree`]) and a raw JSON record read in place
//! through its structure tape (in `recache-data`) are two inputs to the
//! one set of rules. Nothing is cloned or allocated per value;
//! [`flatten_record`] and [`flatten_record_projected`] are owned-row
//! conveniences over it.

use crate::datatype::{DataType, Field, Schema};
use crate::value::Value;
use std::marker::PhantomData;

/// A flattened row: one scalar per accessed leaf, in schema-leaf order.
pub type FlatRow = Vec<Value>;

/// Stand-in for absent struct children and the elements of empty lists.
static NULL: Value = Value::Null;

/// Leaf-id range `(start, end)` covered by each list node of a schema, in
/// depth-first preorder. These are the *flattening dimensions*: a store
/// flattened over all lists can recover projected-flattening semantics by
/// keeping only rows whose unprojected dimensions sit at element index 0
/// (see [`Flattener::new`]).
pub fn list_dim_ranges(schema: &Schema) -> Vec<(usize, usize)> {
    fn walk(ty: &DataType, leaf: &mut usize, out: &mut Vec<(usize, usize)>) {
        match ty {
            DataType::Struct(fields) => {
                for f in fields {
                    walk(&f.data_type, leaf, out);
                }
            }
            DataType::List(inner) => {
                let start = *leaf;
                let width = leaf_count(inner);
                out.push((start, start + width));
                walk(inner, leaf, out);
                debug_assert_eq!(*leaf, start + width);
            }
            _ => *leaf += 1,
        }
    }
    let mut out = Vec::new();
    let mut leaf = 0usize;
    for f in schema.fields() {
        walk(&f.data_type, &mut leaf, &mut out);
    }
    out
}

/// Number of scalar leaves in a type tree.
fn leaf_count(ty: &DataType) -> usize {
    match ty {
        DataType::Struct(fields) => fields.iter().map(|f| leaf_count(&f.data_type)).sum(),
        DataType::List(inner) => leaf_count(inner),
        _ => 1,
    }
}

/// One node of a compiled schema. In a projection, subtrees without an
/// accessed leaf are compiled away: they contribute no column and never
/// multiply rows.
#[derive(Debug, Clone)]
enum Node {
    /// An emitted scalar leaf.
    Leaf,
    /// A struct: `(field index, node)` of each child that emits anything.
    Struct(Vec<(u32, u32)>),
    /// A list with element node `inner`; `bit` is its dimension's mask
    /// bit (0 past the 64th dimension).
    List { inner: u32, bit: u64 },
}

/// A schema compiled for flattening: build once per scan or store build,
/// then [`Flattener::flatten_into`] each record.
#[derive(Debug, Clone)]
pub struct Flattener {
    nodes: Vec<Node>,
    /// Root struct node; `None` when nothing is emitted at all.
    root: Option<u32>,
    width: usize,
}

impl Flattener {
    /// Flattens over every leaf. Each row's mask has bit `d` set iff list
    /// dimension `d` (in [`list_dim_ranges`] order) is at a non-zero
    /// element index, so the first row of a record always has mask 0, and
    /// a query that accesses leaf set `A` gets exactly the rows of
    /// [`Flattener::projected`] by keeping rows where
    /// `mask & unaccessed_dims == 0`.
    ///
    /// Panics if the schema has more than 64 list nodes (no realistic
    /// schema comes close).
    pub fn new(schema: &Schema) -> Self {
        assert!(
            list_dim_ranges(schema).len() <= 64,
            "schemas with more than 64 list dimensions are unsupported"
        );
        Self::compile(schema, None)
    }

    /// Flattens over the accessed leaves only (indexed by leaf id in
    /// [`Schema::leaves`] order). Lists with no accessed leaf beneath them
    /// do not multiply rows.
    pub fn projected(schema: &Schema, accessed: &[bool]) -> Self {
        Self::compile(schema, Some(accessed))
    }

    fn compile(schema: &Schema, accessed: Option<&[bool]>) -> Self {
        let mut flattener = Flattener {
            nodes: Vec::new(),
            root: None,
            width: 0,
        };
        let (mut leaf, mut dim) = (0usize, 0usize);
        flattener.root = flattener.compile_struct(schema.fields(), accessed, &mut leaf, &mut dim);
        debug_assert!(accessed.is_none_or(|a| a.len() == leaf));
        flattener
    }

    /// Compiles `ty`, returning its node id, or `None` when the subtree
    /// emits no leaf (its leaf and dimension ids are still consumed).
    fn compile_node(
        &mut self,
        ty: &DataType,
        accessed: Option<&[bool]>,
        leaf: &mut usize,
        dim: &mut usize,
    ) -> Option<u32> {
        let node = match ty {
            DataType::Struct(fields) => return self.compile_struct(fields, accessed, leaf, dim),
            DataType::List(inner) => {
                let bit = 1u64.checked_shl(*dim as u32).unwrap_or(0);
                *dim += 1;
                let inner = self.compile_node(inner, accessed, leaf, dim)?;
                Node::List { inner, bit }
            }
            _ => {
                let id = *leaf;
                *leaf += 1;
                if !accessed.is_none_or(|a| a[id]) {
                    return None;
                }
                self.width += 1;
                Node::Leaf
            }
        };
        Some(self.push(node))
    }

    /// [`Flattener::compile_node`] for a struct with these fields.
    fn compile_struct(
        &mut self,
        fields: &[Field],
        accessed: Option<&[bool]>,
        leaf: &mut usize,
        dim: &mut usize,
    ) -> Option<u32> {
        let kids: Vec<(u32, u32)> = fields
            .iter()
            .enumerate()
            .filter_map(|(i, f)| {
                let kid = self.compile_node(&f.data_type, accessed, leaf, dim)?;
                Some((i as u32, kid))
            })
            .collect();
        if kids.is_empty() && accessed.is_some() {
            return None;
        }
        Some(self.push(Node::Struct(kids)))
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    /// Appends the flattened rows of `record` to `out`, each once, in
    /// canonical order (leftmost field varies slowest, list elements in
    /// order). A non-struct record flattens like a struct of nulls.
    pub fn flatten_into<'v>(&self, record: &'v Value, out: &mut FlatRows<&'v Value>) {
        self.flatten_from(&ValueTree::default(), record, out);
    }

    /// [`Flattener::flatten_into`] over any [`FlatInput`]: appends the
    /// flattened rows of the record rooted at `root`, each row holding
    /// the input's leaf nodes (its null node where a leaf is absent).
    pub fn flatten_from<I: FlatInput>(
        &self,
        input: &I,
        root: I::Node,
        out: &mut FlatRows<I::Node>,
    ) {
        out.width = self.width;
        match self.root {
            Some(id) => {
                debug_assert!(out.todo.is_empty() && out.row.is_empty());
                out.todo.push((id, root));
                self.walk(input, out, 0);
                out.todo.clear();
            }
            None => out.masks.push(0),
        }
    }

    /// Pops the next pending `(node, value)`, expands it, and recurses
    /// over the rest; with nothing pending, `out.row` is one finished
    /// row. Every call leaves `out.todo` and `out.row` as it found them.
    fn walk<I: FlatInput>(&self, input: &I, out: &mut FlatRows<I::Node>, mask: u64) {
        let Some((id, node)) = out.todo.pop() else {
            out.values.extend_from_slice(&out.row);
            out.masks.push(mask);
            return;
        };
        match &self.nodes[id as usize] {
            Node::Leaf => {
                out.row.push(node);
                self.walk(input, out, mask);
                out.row.pop();
            }
            Node::Struct(kids) => {
                let base = out.todo.len();
                for &(field, kid) in kids.iter().rev() {
                    out.todo.push((kid, input.field(node, field as usize)));
                }
                self.walk(input, out, mask);
                out.todo.truncate(base);
            }
            &Node::List { inner, bit } => {
                let mut first = true;
                let listed = input.elements(node, |item| {
                    out.todo.push((inner, item));
                    self.walk(input, out, if first { mask } else { mask | bit });
                    out.todo.pop();
                    first = false;
                });
                // Empty/absent list: one all-null row at element index 0.
                if !listed {
                    out.todo.push((inner, input.null()));
                    self.walk(input, out, mask);
                    out.todo.pop();
                }
            }
        }
        out.todo.push((id, node));
    }
}

/// A record as [`Flattener`] reads it: nodes are handles into the
/// record, read against the schema type the walk expects where they sit.
/// A leaf's node is what its row holds, so the input decides what a row
/// carries (a `&Value`, a tape position).
pub trait FlatInput {
    type Node: Copy;

    /// The node standing for an absent value: an absent or null struct
    /// field, the struct fields of a non-struct, the elements of an empty
    /// list. Its fields are null and it holds no elements.
    fn null(&self) -> Self::Node;

    /// The node holding field `idx` of a struct node, or [`Self::null`]
    /// when the node holds no such field (or no struct).
    fn field(&self, node: Self::Node, idx: usize) -> Self::Node;

    /// Visits the elements of a non-empty list node in order and returns
    /// true; returns false, visiting nothing, for an empty list or a node
    /// that holds no list.
    fn elements(&self, node: Self::Node, visit: impl FnMut(Self::Node)) -> bool;
}

/// Parsed records as a [`FlatInput`]: rows hold borrowed `&Value` leaves.
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueTree<'v>(PhantomData<&'v Value>);

impl<'v> FlatInput for ValueTree<'v> {
    type Node = &'v Value;

    fn null(&self) -> &'v Value {
        &NULL
    }

    fn field(&self, node: &'v Value, idx: usize) -> &'v Value {
        match node {
            Value::Struct(children) => children.get(idx).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    fn elements(&self, node: &'v Value, visit: impl FnMut(&'v Value)) -> bool {
        match node {
            Value::List(items) if !items.is_empty() => {
                items.iter().for_each(visit);
                true
            }
            _ => false,
        }
    }
}

/// Caller-owned output of [`Flattener::flatten_from`]: rows of leaf
/// nodes, row-major, with one mask per row. Reuse one across records
/// (call [`FlatRows::clear`] in between) to flatten without allocating.
#[derive(Debug)]
pub struct FlatRows<N> {
    width: usize,
    values: Vec<N>,
    masks: Vec<u64>,
    /// Walk scratch: the row under construction and the pending nodes.
    row: Vec<N>,
    todo: Vec<(u32, N)>,
}

impl<N> Default for FlatRows<N> {
    fn default() -> Self {
        FlatRows {
            width: 0,
            values: Vec::new(),
            masks: Vec::new(),
            row: Vec::new(),
            todo: Vec::new(),
        }
    }
}

impl<N: Copy> FlatRows<N> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows held.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Drops the rows, keeping the allocations.
    pub fn clear(&mut self) {
        self.values.clear();
        self.masks.clear();
    }

    /// The rows with their masks, in emission order.
    pub fn iter(&self) -> impl Iterator<Item = (&[N], u64)> + '_ {
        let width = self.width;
        self.masks
            .iter()
            .enumerate()
            .map(move |(i, &mask)| (&self.values[i * width..(i + 1) * width], mask))
    }
}

impl FlatRows<&Value> {
    /// Owned copies of the rows.
    pub fn to_rows(&self) -> Vec<FlatRow> {
        self.iter()
            .map(|(row, _)| row.iter().map(|&v| v.clone()).collect())
            .collect()
    }
}

/// Flattens a record over *all* leaves: the representation the relational
/// columnar layout stores.
pub fn flatten_record(schema: &Schema, record: &Value) -> Vec<FlatRow> {
    let accessed = vec![true; schema.leaves().len()];
    flatten_record_projected(schema, record, &accessed)
}

/// Flattens a record over the accessed leaves only (indexed by leaf id in
/// [`Schema::leaves`] order). Lists with no accessed leaf beneath them do
/// not multiply rows.
pub fn flatten_record_projected(
    schema: &Schema,
    record: &Value,
    accessed: &[bool],
) -> Vec<FlatRow> {
    debug_assert_eq!(accessed.len(), schema.leaves().len());
    let mut rows = FlatRows::new();
    Flattener::projected(schema, accessed).flatten_into(record, &mut rows);
    rows.to_rows()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::Field;

    fn abc_schema() -> Schema {
        // {"a": int, "b": int, "c": [int]}
        Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::required("b", DataType::Int),
            Field::new("c", DataType::List(Box::new(DataType::Int))),
        ])
    }

    fn abc_record() -> Value {
        Value::Struct(vec![
            Value::Int(1),
            Value::Int(4),
            Value::List(vec![Value::Int(4), Value::Int(6), Value::Int(9)]),
        ])
    }

    #[test]
    fn paper_example_flattens_to_three_rows() {
        // {"a":1,"b":4,"c":[4,6,9]} -> (1,4,4), (1,4,6), (1,4,9)
        let rows = flatten_record(&abc_schema(), &abc_record());
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(4), Value::Int(4)],
                vec![Value::Int(1), Value::Int(4), Value::Int(6)],
                vec![Value::Int(1), Value::Int(4), Value::Int(9)],
            ]
        );
    }

    #[test]
    fn projection_without_nested_leaf_yields_one_row() {
        let rows = flatten_record_projected(&abc_schema(), &abc_record(), &[true, true, false]);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(4)]]);
    }

    #[test]
    fn projection_of_only_nested_leaf() {
        let rows = flatten_record_projected(&abc_schema(), &abc_record(), &[false, false, true]);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(4)],
                vec![Value::Int(6)],
                vec![Value::Int(9)]
            ]
        );
    }

    #[test]
    fn empty_list_preserves_record_with_null() {
        let record = Value::Struct(vec![Value::Int(1), Value::Int(4), Value::List(vec![])]);
        let rows = flatten_record(&abc_schema(), &record);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(4), Value::Null]]);
    }

    #[test]
    fn absent_list_treated_as_empty() {
        let record = Value::Struct(vec![Value::Int(1), Value::Int(4), Value::Null]);
        let rows = flatten_record(&abc_schema(), &record);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Int(4), Value::Null]]);
    }

    #[test]
    fn sibling_lists_multiply() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::List(Box::new(DataType::Int))),
            Field::new("y", DataType::List(Box::new(DataType::Int))),
        ]);
        let record = Value::Struct(vec![
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::Int(10), Value::Int(20), Value::Int(30)]),
        ]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0], vec![Value::Int(1), Value::Int(10)]);
        assert_eq!(rows[5], vec![Value::Int(2), Value::Int(30)]);
    }

    #[test]
    fn list_of_struct_flattens_elementwise() {
        let schema = Schema::new(vec![
            Field::required("o", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::required("p", DataType::Float),
                ]))),
            ),
        ]);
        let record = Value::Struct(vec![
            Value::Int(7),
            Value::List(vec![
                Value::Struct(vec![Value::Int(1), Value::Float(1.5)]),
                Value::Struct(vec![Value::Int(2), Value::Float(2.5)]),
            ]),
        ]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(7), Value::Int(1), Value::Float(1.5)],
                vec![Value::Int(7), Value::Int(2), Value::Float(2.5)],
            ]
        );
    }

    #[test]
    fn nested_list_of_list() {
        let schema = Schema::new(vec![Field::new(
            "m",
            DataType::List(Box::new(DataType::List(Box::new(DataType::Int)))),
        )]);
        let record = Value::Struct(vec![Value::List(vec![
            Value::List(vec![Value::Int(1), Value::Int(2)]),
            Value::List(vec![Value::Int(3)]),
        ])]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
    }

    #[test]
    fn unaccessed_sibling_list_does_not_multiply() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::List(Box::new(DataType::Int))),
            Field::required("a", DataType::Int),
        ]);
        let record = Value::Struct(vec![
            Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            Value::Int(9),
        ]);
        let rows = flatten_record_projected(&schema, &record, &[false, true]);
        assert_eq!(rows, vec![vec![Value::Int(9)]]);
    }

    #[test]
    fn missing_struct_children_become_null() {
        // Record shorter than schema (optional trailing fields absent).
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let record = Value::Struct(vec![Value::Int(1)]);
        let rows = flatten_record(&schema, &record);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::Null]]);
    }

    #[test]
    fn null_record_yields_single_null_row() {
        let rows = flatten_record(&abc_schema(), &Value::Null);
        assert_eq!(rows, vec![vec![Value::Null, Value::Null, Value::Null]]);
    }

    #[test]
    fn list_dim_ranges_enumerate_preorder() {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Str))),
                ]))),
            ),
            Field::new("scores", DataType::List(Box::new(DataType::Float))),
        ]);
        // Leaves: a=0, items.q=1, items.tags=2, scores=3.
        assert_eq!(list_dim_ranges(&schema), vec![(1, 3), (2, 3), (3, 4)]);
    }

    /// Owned `(row, mask)` pairs of an all-leaves flattening.
    fn masked_rows(schema: &Schema, record: &Value) -> Vec<(FlatRow, u64)> {
        let mut rows = FlatRows::new();
        Flattener::new(schema).flatten_into(record, &mut rows);
        rows.iter()
            .map(|(row, mask)| (row.iter().map(|&v| v.clone()).collect(), mask))
            .collect()
    }

    #[test]
    fn masks_mark_non_first_elements() {
        // {"a":1, "c":[4,6,9]} with dims = [c].
        let rows = masked_rows(&abc_schema(), &abc_record());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].1, 0);
        assert_eq!(rows[1].1, 1);
        assert_eq!(rows[2].1, 1);
        // Values match the plain flatten.
        let plain = flatten_record(&abc_schema(), &abc_record());
        let values: Vec<FlatRow> = rows.into_iter().map(|(r, _)| r).collect();
        assert_eq!(values, plain);
    }

    /// The load-bearing equivalence: filtering mask-flattened rows by
    /// "unaccessed dims at index 0" reproduces projected flattening.
    fn assert_mask_filter_matches_projection(schema: &Schema, record: &Value, accessed: &[bool]) {
        let dims = list_dim_ranges(schema);
        let mut unaccessed = 0u64;
        for (d, &(lo, hi)) in dims.iter().enumerate() {
            if !accessed[lo..hi].iter().any(|&a| a) {
                unaccessed |= 1 << d;
            }
        }
        let expected = flatten_record_projected(schema, record, accessed);
        let got: Vec<FlatRow> = masked_rows(schema, record)
            .into_iter()
            .filter(|(_, mask)| mask & unaccessed == 0)
            .map(|(row, _)| {
                row.into_iter()
                    .enumerate()
                    .filter(|(i, _)| accessed[*i])
                    .map(|(_, v)| v)
                    .collect()
            })
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn mask_filtering_equals_projected_flattening() {
        let schema = Schema::new(vec![
            Field::required("a", DataType::Int),
            Field::new(
                "items",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("q", DataType::Int),
                    Field::new("tags", DataType::List(Box::new(DataType::Str))),
                ]))),
            ),
            Field::new("scores", DataType::List(Box::new(DataType::Float))),
        ]);
        let record = Value::Struct(vec![
            Value::Int(1),
            Value::List(vec![
                Value::Struct(vec![
                    Value::Int(10),
                    Value::List(vec![Value::from("x"), Value::from("y")]),
                ]),
                Value::Struct(vec![Value::Int(20), Value::Null]),
            ]),
            Value::List(vec![
                Value::Float(0.5),
                Value::Float(1.5),
                Value::Float(2.5),
            ]),
        ]);
        // Sweep every subset of {a, q, tags, scores}.
        for bits in 0..16u32 {
            let accessed: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_mask_filter_matches_projection(&schema, &record, &accessed);
        }
        // And the empty-list / null variants.
        let record = Value::Struct(vec![Value::Int(1), Value::List(vec![]), Value::Null]);
        for bits in 0..16u32 {
            let accessed: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            assert_mask_filter_matches_projection(&schema, &record, &accessed);
        }
    }
}

/// The recursive cartesian-product flattener the walker replaced, kept
/// verbatim as the reference the property tests below compare against.
#[cfg(test)]
mod oracle {
    use super::{leaf_count, FlatRow};
    use crate::datatype::{DataType, Field, Schema};
    use crate::value::Value;

    pub fn flatten_record_masks(schema: &Schema, record: &Value) -> Vec<(FlatRow, u64)> {
        let children = match record {
            Value::Struct(children) => children.as_slice(),
            _ => &[],
        };
        let mut dim = 0usize;
        flatten_struct_masks(schema.fields(), children, &mut dim)
    }

    fn flatten_struct_masks(
        fields: &[Field],
        children: &[Value],
        dim: &mut usize,
    ) -> Vec<(FlatRow, u64)> {
        let mut rows: Vec<(FlatRow, u64)> = vec![(Vec::new(), 0)];
        for (i, field) in fields.iter().enumerate() {
            let child = children.get(i).unwrap_or(&Value::Null);
            let child_rows = flatten_value_masks(&field.data_type, child, dim);
            rows = product_masks(rows, child_rows);
        }
        rows
    }

    fn flatten_value_masks(ty: &DataType, value: &Value, dim: &mut usize) -> Vec<(FlatRow, u64)> {
        match ty {
            DataType::Struct(fields) => {
                let children = match value {
                    Value::Struct(children) => children.as_slice(),
                    _ => &[],
                };
                flatten_struct_masks(fields, children, dim)
            }
            DataType::List(inner) => {
                let this_dim = *dim;
                *dim += 1;
                let dims_below = count_dims(inner);
                match value {
                    Value::List(items) if !items.is_empty() => {
                        let mut out = Vec::with_capacity(items.len());
                        let mut after = *dim;
                        for (i, item) in items.iter().enumerate() {
                            let mut d = *dim;
                            let rows = flatten_value_masks(inner, item, &mut d);
                            after = d;
                            let elem_bit = if i > 0 { 1u64 << this_dim } else { 0 };
                            for (row, mask) in rows {
                                out.push((row, mask | elem_bit));
                            }
                        }
                        *dim = after;
                        out
                    }
                    _ => {
                        let mut d = *dim;
                        let rows = null_rows_masks(inner, &mut d);
                        *dim += dims_below;
                        rows
                    }
                }
            }
            _ => vec![(vec![value.clone()], 0)],
        }
    }

    fn null_rows_masks(ty: &DataType, dim: &mut usize) -> Vec<(FlatRow, u64)> {
        match ty {
            DataType::Struct(fields) => {
                let mut row = Vec::new();
                for field in fields {
                    for (r, _) in null_rows_masks(&field.data_type, dim) {
                        row.extend(r);
                    }
                }
                vec![(row, 0)]
            }
            DataType::List(inner) => {
                *dim += 1;
                null_rows_masks(inner, dim)
            }
            _ => vec![(vec![Value::Null], 0)],
        }
    }

    fn count_dims(ty: &DataType) -> usize {
        match ty {
            DataType::Struct(fields) => fields.iter().map(|f| count_dims(&f.data_type)).sum(),
            DataType::List(inner) => 1 + count_dims(inner),
            _ => 0,
        }
    }

    fn product_masks(left: Vec<(FlatRow, u64)>, right: Vec<(FlatRow, u64)>) -> Vec<(FlatRow, u64)> {
        let mut out = Vec::with_capacity(left.len() * right.len());
        for (l, lm) in &left {
            for (r, rm) in &right {
                let mut row = Vec::with_capacity(l.len() + r.len());
                row.extend(l.iter().cloned());
                row.extend(r.iter().cloned());
                out.push((row, lm | rm));
            }
        }
        out
    }

    pub fn flatten_record_projected(
        schema: &Schema,
        record: &Value,
        accessed: &[bool],
    ) -> Vec<FlatRow> {
        let children = match record {
            Value::Struct(children) => children.as_slice(),
            _ => &[],
        };
        let mut leaf_id = 0;
        flatten_struct(schema.fields(), children, accessed, &mut leaf_id)
    }

    fn flatten_struct(
        fields: &[Field],
        children: &[Value],
        accessed: &[bool],
        leaf_id: &mut usize,
    ) -> Vec<FlatRow> {
        let mut rows: Vec<FlatRow> = vec![Vec::new()];
        for (i, field) in fields.iter().enumerate() {
            let child = children.get(i).unwrap_or(&Value::Null);
            let child_rows = flatten_value(&field.data_type, child, accessed, leaf_id);
            rows = product(rows, child_rows);
        }
        rows
    }

    fn flatten_value(
        ty: &DataType,
        value: &Value,
        accessed: &[bool],
        leaf_id: &mut usize,
    ) -> Vec<FlatRow> {
        match ty {
            DataType::Struct(fields) => {
                let children = match value {
                    Value::Struct(children) => children.as_slice(),
                    _ => &[],
                };
                flatten_struct(fields, children, accessed, leaf_id)
            }
            DataType::List(inner) => {
                let n_leaves = leaf_count(inner);
                let start = *leaf_id;
                let any_accessed = accessed[start..start + n_leaves].iter().any(|&a| a);
                if !any_accessed {
                    *leaf_id += n_leaves;
                    return vec![Vec::new()];
                }
                match value {
                    Value::List(items) if !items.is_empty() => {
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            let mut id = start;
                            out.extend(flatten_value(inner, item, accessed, &mut id));
                        }
                        *leaf_id = start + n_leaves;
                        out
                    }
                    _ => {
                        let mut id = start;
                        let rows = null_rows(inner, accessed, &mut id);
                        *leaf_id = start + n_leaves;
                        rows
                    }
                }
            }
            _ => {
                let id = *leaf_id;
                *leaf_id += 1;
                if accessed[id] {
                    vec![vec![value.clone()]]
                } else {
                    vec![Vec::new()]
                }
            }
        }
    }

    fn null_rows(ty: &DataType, accessed: &[bool], leaf_id: &mut usize) -> Vec<FlatRow> {
        match ty {
            DataType::Struct(fields) => {
                let mut row = Vec::new();
                for field in fields {
                    for r in null_rows(&field.data_type, accessed, leaf_id) {
                        row.extend(r);
                    }
                }
                vec![row]
            }
            DataType::List(inner) => null_rows(inner, accessed, leaf_id),
            _ => {
                let id = *leaf_id;
                *leaf_id += 1;
                if accessed[id] {
                    vec![vec![Value::Null]]
                } else {
                    vec![Vec::new()]
                }
            }
        }
    }

    fn product(left: Vec<FlatRow>, mut right: Vec<FlatRow>) -> Vec<FlatRow> {
        if right.len() == 1 {
            let suffix = right.pop().expect("len checked");
            let mut left = left;
            if suffix.is_empty() {
                return left;
            }
            for row in &mut left {
                row.extend(suffix.iter().cloned());
            }
            return left;
        }
        let mut out = Vec::with_capacity(left.len() * right.len());
        for l in &left {
            for r in &right {
                let mut row = Vec::with_capacity(l.len() + r.len());
                row.extend(l.iter().cloned());
                row.extend(r.iter().cloned());
                out.push(row);
            }
        }
        out
    }
}

/// Seeded random schemas and records: the walker must reproduce the
/// oracle's rows, masks and order exactly, for every projection.
#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::testgen::{random_record, random_schema, Rng};

    /// Every subset of leaves for small schemas, a seeded sample otherwise.
    fn projections(rng: &mut Rng, n_leaves: usize) -> Vec<Vec<bool>> {
        let masks: Vec<u64> = if n_leaves <= 6 {
            (0..1u64 << n_leaves).collect()
        } else {
            (0..64).map(|_| rng.next()).collect()
        };
        masks
            .into_iter()
            .map(|bits| (0..n_leaves).map(|i| bits >> i & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn walker_matches_the_recursive_oracle() {
        let mut rng = Rng::new(0xF1A7);
        let mut rows_seen = 0usize;
        for case in 0..300 {
            let schema = random_schema(&mut rng);
            let n_leaves = schema.leaves().len();
            let full = Flattener::new(&schema);
            for _ in 0..4 {
                let record = random_record(&mut rng, &schema);
                let mut rows = FlatRows::new();
                full.flatten_into(&record, &mut rows);
                let got: Vec<(FlatRow, u64)> = rows
                    .iter()
                    .map(|(row, mask)| (row.iter().map(|&v| v.clone()).collect(), mask))
                    .collect();
                assert_eq!(
                    got,
                    oracle::flatten_record_masks(&schema, &record),
                    "case {case}: masks of {record:?} under {schema:?}"
                );
                rows_seen += got.len();
                for accessed in projections(&mut rng, n_leaves) {
                    assert_eq!(
                        flatten_record_projected(&schema, &record, &accessed),
                        oracle::flatten_record_projected(&schema, &record, &accessed),
                        "case {case}: projection {accessed:?} of {record:?} under {schema:?}"
                    );
                }
            }
        }
        assert!(
            rows_seen > 1500,
            "the generator must produce multi-row records"
        );
    }
}

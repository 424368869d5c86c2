//! Nested type tree: scalars, lists and structs, plus per-leaf Dremel
//! definition/repetition levels used by the nested columnar cache layout.

use crate::path::FieldPath;
use std::sync::Arc;

/// Scalar leaf types supported by the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarType {
    Bool,
    Int,
    Float,
    Str,
}

impl ScalarType {
    /// Human-readable name, used in error messages and schema display.
    pub fn name(&self) -> &'static str {
        match self {
            ScalarType::Bool => "bool",
            ScalarType::Int => "int",
            ScalarType::Float => "float",
            ScalarType::Str => "str",
        }
    }
}

/// A (possibly nested) data type.
#[derive(Debug, Clone, PartialEq)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    /// Homogeneous variable-length collection. Traversing a list layer
    /// increments both the repetition and definition level of leaves
    /// beneath it, as in Dremel.
    List(Box<DataType>),
    /// Named product type.
    Struct(Vec<Field>),
}

impl DataType {
    /// Returns the scalar type if this is a leaf type.
    pub fn as_scalar(&self) -> Option<ScalarType> {
        match self {
            DataType::Bool => Some(ScalarType::Bool),
            DataType::Int => Some(ScalarType::Int),
            DataType::Float => Some(ScalarType::Float),
            DataType::Str => Some(ScalarType::Str),
            _ => None,
        }
    }

    /// True for `Int` and `Float`: the types range predicates apply to.
    pub fn is_numeric(&self) -> bool {
        matches!(self, DataType::Int | DataType::Float)
    }

    /// True if any list occurs anywhere in the type tree.
    pub fn contains_list(&self) -> bool {
        match self {
            DataType::List(_) => true,
            DataType::Struct(fields) => fields.iter().any(|f| f.data_type.contains_list()),
            _ => false,
        }
    }
}

/// A named, nullable field of a struct or schema.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    pub name: String,
    pub data_type: DataType,
    pub nullable: bool,
}

impl Field {
    /// A nullable field (the common case for raw JSON, where any key may
    /// be absent).
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A field that is guaranteed present (e.g. CSV columns).
    pub fn required(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }
}

/// A scalar leaf of a schema, in depth-first order, together with the
/// Dremel levels the nested columnar layout needs.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafField {
    /// Dotted path from the schema root (list layers are implicit).
    pub path: FieldPath,
    pub scalar_type: ScalarType,
    /// Maximum definition level: number of optional/repeated ancestors
    /// (including the leaf itself if nullable).
    pub max_def: u16,
    /// Maximum repetition level: number of list ancestors.
    pub max_rep: u16,
}

impl LeafField {
    /// A leaf under at least one list layer ("nested attribute" in the
    /// paper's terminology).
    pub fn is_nested(&self) -> bool {
        self.max_rep > 0
    }
}

/// A top-level record schema: an implicit struct.
///
/// The scalar leaves are derived once, at construction, and shared by
/// clones: path resolution and every scan ask for them per query.
#[derive(Clone)]
pub struct Schema {
    fields: Vec<Field>,
    leaves: Arc<[LeafField]>,
}

/// Schemas are equal when their fields are; the leaves follow from them.
impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        self.fields == other.fields
    }
}

impl std::fmt::Debug for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Schema")
            .field("fields", &self.fields)
            .finish()
    }
}

impl Schema {
    pub fn new(fields: Vec<Field>) -> Self {
        let mut leaves = Vec::new();
        for field in &fields {
            collect_leaves(field, &mut Vec::new(), 0, 0, &mut leaves);
        }
        Schema {
            fields,
            leaves: leaves.into(),
        }
    }

    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    pub fn len(&self) -> usize {
        self.fields.len()
    }

    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index and field for a top-level name.
    pub fn field(&self, name: &str) -> Option<(usize, &Field)> {
        self.fields.iter().enumerate().find(|(_, f)| f.name == name)
    }

    /// Resolves a dotted path to the data type it denotes, descending
    /// through list layers implicitly.
    pub fn resolve(&self, path: &FieldPath) -> Option<DataType> {
        let mut current = DataType::Struct(self.fields.clone());
        for step in path.steps() {
            // Unwrap any number of list layers before looking up the field.
            let mut ty = current;
            while let DataType::List(inner) = ty {
                ty = *inner;
            }
            match ty {
                DataType::Struct(fields) => {
                    let f = fields.into_iter().find(|f| f.name == *step)?;
                    current = f.data_type;
                }
                _ => return None,
            }
        }
        Some(current)
    }

    /// All scalar leaves in depth-first order with Dremel levels.
    ///
    /// This ordering is the canonical column ordering used by every cache
    /// layout and by flattened rows.
    pub fn leaves(&self) -> &[LeafField] {
        &self.leaves
    }

    /// Index into [`Schema::leaves`] for a dotted path, if it names a leaf.
    pub fn leaf_index(&self, path: &FieldPath) -> Option<usize> {
        self.leaves().iter().position(|l| &l.path == path)
    }

    /// True if any field (at any depth) is a list: the heterogeneity signal
    /// the cache layout selector reacts to.
    pub fn has_nested(&self) -> bool {
        self.fields.iter().any(|f| f.data_type.contains_list())
    }
}

fn collect_leaves(
    field: &Field,
    prefix: &mut Vec<String>,
    def: u16,
    rep: u16,
    out: &mut Vec<LeafField>,
) {
    prefix.push(field.name.clone());
    let mut def = def + u16::from(field.nullable);
    let mut rep = rep;
    // Descend through list layers: each increments both levels.
    let mut ty = &field.data_type;
    while let DataType::List(inner) = ty {
        def += 1;
        rep += 1;
        ty = inner;
    }
    match ty {
        DataType::Struct(fields) => {
            for child in fields {
                collect_leaves(child, prefix, def, rep, out);
            }
        }
        scalar => {
            let scalar_type = scalar.as_scalar().expect("non-struct, non-list is scalar");
            out.push(LeafField {
                path: FieldPath::from_steps(prefix.clone()),
                scalar_type,
                max_def: def,
                max_rep: rep,
            });
        }
    }
    prefix.pop();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order_lineitems_schema() -> Schema {
        Schema::new(vec![
            Field::required("o_orderkey", DataType::Int),
            Field::required("o_totalprice", DataType::Float),
            Field::new(
                "lineitems",
                DataType::List(Box::new(DataType::Struct(vec![
                    Field::required("l_quantity", DataType::Int),
                    Field::required("l_extendedprice", DataType::Float),
                ]))),
            ),
        ])
    }

    #[test]
    fn leaves_enumerate_depth_first_with_levels() {
        let schema = order_lineitems_schema();
        let leaves = schema.leaves();
        assert_eq!(leaves.len(), 4);
        assert_eq!(leaves[0].path.to_string(), "o_orderkey");
        assert_eq!(leaves[0].max_def, 0);
        assert_eq!(leaves[0].max_rep, 0);
        assert!(!leaves[0].is_nested());

        assert_eq!(leaves[2].path.to_string(), "lineitems.l_quantity");
        // lineitems is nullable (+1) and a list (+1); l_quantity required.
        assert_eq!(leaves[2].max_def, 2);
        assert_eq!(leaves[2].max_rep, 1);
        assert!(leaves[2].is_nested());
    }

    #[test]
    fn resolve_descends_through_lists() {
        let schema = order_lineitems_schema();
        let ty = schema
            .resolve(&FieldPath::parse("lineitems.l_extendedprice"))
            .unwrap();
        assert_eq!(ty, DataType::Float);
        assert!(schema
            .resolve(&FieldPath::parse("lineitems.nope"))
            .is_none());
        assert!(schema.resolve(&FieldPath::parse("nope")).is_none());
    }

    #[test]
    fn resolve_whole_list_field() {
        let schema = order_lineitems_schema();
        let ty = schema.resolve(&FieldPath::parse("lineitems")).unwrap();
        assert!(matches!(ty, DataType::List(_)));
    }

    #[test]
    fn leaf_index_matches_leaves_order() {
        let schema = order_lineitems_schema();
        assert_eq!(
            schema.leaf_index(&FieldPath::parse("o_totalprice")),
            Some(1)
        );
        assert_eq!(
            schema.leaf_index(&FieldPath::parse("lineitems.l_extendedprice")),
            Some(3)
        );
        assert_eq!(schema.leaf_index(&FieldPath::parse("lineitems")), None);
    }

    #[test]
    fn has_nested_detects_lists_at_depth() {
        assert!(order_lineitems_schema().has_nested());
        let flat = Schema::new(vec![Field::required("a", DataType::Int)]);
        assert!(!flat.has_nested());
        let deep = Schema::new(vec![Field::new(
            "outer",
            DataType::Struct(vec![Field::new(
                "inner",
                DataType::List(Box::new(DataType::Int)),
            )]),
        )]);
        assert!(deep.has_nested());
    }

    #[test]
    fn scalar_type_names() {
        assert_eq!(ScalarType::Int.name(), "int");
        assert_eq!(ScalarType::Float.name(), "float");
        assert_eq!(ScalarType::Bool.name(), "bool");
        assert_eq!(ScalarType::Str.name(), "str");
    }

    #[test]
    fn numeric_predicate_types() {
        assert!(DataType::Int.is_numeric());
        assert!(DataType::Float.is_numeric());
        assert!(!DataType::Str.is_numeric());
        assert!(!DataType::Bool.is_numeric());
    }

    #[test]
    fn list_of_scalar_leaf_levels() {
        let schema = Schema::new(vec![Field::new(
            "tags",
            DataType::List(Box::new(DataType::Str)),
        )]);
        let leaves = schema.leaves();
        assert_eq!(leaves.len(), 1);
        assert_eq!(leaves[0].max_rep, 1);
        assert_eq!(leaves[0].max_def, 2); // nullable + list
        assert_eq!(leaves[0].scalar_type, ScalarType::Str);
    }

    /// Leaves by a separate walk over the type tree: each list layer adds
    /// one definition and one repetition level, a nullable field one
    /// definition level.
    fn walk_leaves(ty: &DataType, path: &[String], def: u16, rep: u16, out: &mut Vec<LeafField>) {
        match ty {
            DataType::List(inner) => walk_leaves(inner, path, def + 1, rep + 1, out),
            DataType::Struct(fields) => {
                for f in fields {
                    let mut child = path.to_vec();
                    child.push(f.name.clone());
                    walk_leaves(&f.data_type, &child, def + u16::from(f.nullable), rep, out);
                }
            }
            scalar => out.push(LeafField {
                path: FieldPath::from_steps(path.to_vec()),
                scalar_type: scalar.as_scalar().unwrap(),
                max_def: def,
                max_rep: rep,
            }),
        }
    }

    #[test]
    fn cached_leaves_match_a_fresh_walk_on_random_schemas() {
        use crate::testgen::{random_schema, Rng};
        let mut rng = Rng::new(0x1EAF);
        for case in 0..300 {
            let schema = random_schema(&mut rng);
            let mut expected = Vec::new();
            walk_leaves(
                &DataType::Struct(schema.fields().to_vec()),
                &[],
                0,
                0,
                &mut expected,
            );
            assert_eq!(schema.leaves(), expected.as_slice(), "case {case}");
            for (i, leaf) in expected.iter().enumerate() {
                assert_eq!(schema.leaf_index(&leaf.path), Some(i), "case {case}");
            }
            // A clone shares the leaves; a rebuild from equal fields is equal.
            let clone = schema.clone();
            assert!(std::ptr::eq(clone.leaves(), schema.leaves()));
            let rebuilt = Schema::new(schema.fields().to_vec());
            assert_eq!(rebuilt, schema);
            assert_eq!(rebuilt.leaves(), schema.leaves());
        }
    }

    #[test]
    fn schemas_compare_by_fields() {
        let a = order_lineitems_schema();
        assert_eq!(a, order_lineitems_schema());
        let b = Schema::new(a.fields()[..2].to_vec());
        assert_ne!(a, b);
    }

    #[test]
    fn nested_list_of_list_levels() {
        let schema = Schema::new(vec![Field::required(
            "matrix",
            DataType::List(Box::new(DataType::List(Box::new(DataType::Int)))),
        )]);
        let leaves = schema.leaves();
        assert_eq!(leaves[0].max_rep, 2);
        assert_eq!(leaves[0].max_def, 2); // two list layers, field required
    }
}

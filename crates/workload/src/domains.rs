//! Per-leaf value domains, used to generate range predicates with
//! controlled selectivity.

use recache_types::{flatten_record, LeafField, Schema, Value};

/// Min/max of every numeric leaf of a dataset.
#[derive(Debug, Clone)]
pub struct Domains {
    leaves: Vec<LeafField>,
    ranges: Vec<Option<(f64, f64)>>,
}

impl Domains {
    /// Computes domains by flattening `records` (generator-scale data, so
    /// a full pass is fine).
    pub fn compute<'a>(schema: &Schema, records: impl IntoIterator<Item = &'a Value>) -> Self {
        let leaves = schema.leaves();
        let mut ranges: Vec<Option<(f64, f64)>> = vec![None; leaves.len()];
        for record in records {
            for row in flatten_record(schema, record) {
                for (i, value) in row.iter().enumerate() {
                    if let Some(x) = value.as_f64() {
                        let entry = ranges[i].get_or_insert((x, x));
                        entry.0 = entry.0.min(x);
                        entry.1 = entry.1.max(x);
                    }
                }
            }
        }
        Domains {
            leaves: leaves.to_vec(),
            ranges,
        }
    }

    pub fn leaves(&self) -> &[LeafField] {
        &self.leaves
    }

    /// Domain of leaf `i`, if any numeric value was seen.
    pub fn range_of(&self, leaf: usize) -> Option<(f64, f64)> {
        self.ranges.get(leaf).copied().flatten()
    }

    /// Leaf ids that are numeric (have a domain), optionally restricted
    /// to non-nested leaves.
    pub fn numeric_leaves(&self, include_nested: bool) -> Vec<usize> {
        (0..self.leaves.len())
            .filter(|&i| self.ranges[i].is_some())
            .filter(|&i| include_nested || !self.leaves[i].is_nested())
            .collect()
    }

    /// Numeric leaves that are nested (under a repeated field).
    pub fn nested_numeric_leaves(&self) -> Vec<usize> {
        (0..self.leaves.len())
            .filter(|&i| self.ranges[i].is_some() && self.leaves[i].is_nested())
            .collect()
    }

    /// A sub-interval of leaf `i`'s domain covering roughly `selectivity`
    /// of its width, positioned by `offset ∈ [0, 1)`.
    pub fn interval(&self, leaf: usize, selectivity: f64, offset: f64) -> (f64, f64) {
        let (lo, hi) = self.range_of(leaf).expect("numeric leaf");
        let width = (hi - lo).max(1e-9);
        let span = width * selectivity.clamp(0.001, 1.0);
        let start = lo + (width - span) * offset.clamp(0.0, 1.0);
        (round3(start), round3(start + span))
    }
}

/// Rounding keeps signatures short and stable across platforms.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_data::gen::tpch;

    #[test]
    fn domains_cover_generated_data() {
        let records = tpch::gen_order_lineitems(0.0002, 3);
        let schema = tpch::order_lineitems_schema();
        let domains = Domains::compute(&schema, records.iter());
        // l_quantity (nested) must span within [1, 50].
        let leaf = schema
            .leaf_index(&recache_types::FieldPath::parse("lineitems.l_quantity"))
            .unwrap();
        let (lo, hi) = domains.range_of(leaf).unwrap();
        assert!(lo >= 1.0 && hi <= 50.0);
        assert!(domains.nested_numeric_leaves().contains(&leaf));
        assert!(!domains.numeric_leaves(false).contains(&leaf));
        assert!(domains.numeric_leaves(true).contains(&leaf));
    }

    #[test]
    fn intervals_respect_selectivity_and_offset() {
        let records = tpch::gen_order_lineitems(0.0002, 3);
        let schema = tpch::order_lineitems_schema();
        let domains = Domains::compute(&schema, records.iter());
        let leaf = schema
            .leaf_index(&recache_types::FieldPath::parse("o_totalprice"))
            .unwrap();
        let (dlo, dhi) = domains.range_of(leaf).unwrap();
        let (lo, hi) = domains.interval(leaf, 0.25, 0.5);
        assert!(lo >= dlo - 1e-6 && hi <= dhi + 1e-6);
        let width = dhi - dlo;
        assert!((hi - lo) <= width * 0.26);
        // Full selectivity covers the whole domain.
        let (lo, hi) = domains.interval(leaf, 1.0, 0.0);
        assert!((lo - round(dlo)).abs() < 1e-3 && (hi - round(dhi)).abs() < 1.0);
        fn round(x: f64) -> f64 {
            (x * 1000.0).round() / 1000.0
        }
    }

    #[test]
    fn string_leaves_have_no_domain() {
        let records = tpch::gen_order_lineitems(0.0002, 3);
        let schema = tpch::order_lineitems_schema();
        let domains = Domains::compute(&schema, records.iter());
        let leaf = schema
            .leaf_index(&recache_types::FieldPath::parse("o_comment"))
            .unwrap();
        assert!(domains.range_of(leaf).is_none());
    }
}

//! Vectorized predicate and aggregate kernels over typed column batches.
//!
//! [`CompiledPredicate`] turns an [`Expr`] that is a conjunction of
//! `slot <op> literal` clauses — the paper's workload shape — into a list
//! of per-column kernels. Each kernel compacts the batch's
//! [`SelectionVector`] over a primitive slice, so later clauses only look
//! at the survivors of earlier ones (vectorized short-circuiting, in the
//! query's clause order). A kernel is monomorphic per operator as well as
//! per (column, literal) type pair: the operator is matched once per
//! clause, outside the row loop, and over fixed-width values (numbers,
//! booleans, dictionary codes) the loop body is straight-line code —
//! validity ANDed in without short-circuit, the survivor written
//! unconditionally and the output cursor advanced by the test's outcome
//! (branch-free compaction), so ~50 % selectivity costs no mispredicts.
//! Every ordered compare is phrased as `less` / `greater`, which keeps
//! `cmp_sql`'s rule that an unordered (NaN) float pair compares *Equal*:
//! `Ge`, `Le` and `Eq` hold for NaN, `Lt`, `Gt` and `Ne` do not. Any other
//! expression shape (`OR`, `NOT`, slot-vs-slot) returns `None` from
//! [`CompiledPredicate::compile`] and the executor falls back to the
//! row-at-a-time `Expr::eval_bool` path.
//!
//! [`BatchAggregator`] is the batch counterpart of the streaming
//! aggregate state: COUNT/SUM/AVG/MIN/MAX over a typed column restricted
//! to the selection. Accumulation order and numeric semantics (`as_f64`
//! sums, `cmp_sql` extremes, SQL null skipping) are identical to the row
//! path, so both paths produce bit-identical `QueryOutput`s.

use crate::exactsum::ExactSum;
use crate::expr::{flip, CmpOp, Expr};
use crate::plan::AggFunc;
use recache_layout::{BatchColumn, BatchValues, SelectionVector};
use recache_types::Value;
use std::cmp::Ordering;

/// One `slot <op> literal` clause.
#[derive(Debug, Clone)]
struct Clause {
    slot: usize,
    op: CmpOp,
    lit: Value,
}

/// A conjunction of comparison clauses compiled for batch evaluation.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    clauses: Vec<Clause>,
}

impl CompiledPredicate {
    /// Compiles `expr` if it is a (possibly nested) conjunction of
    /// `slot <op> scalar-literal` comparisons; `None` otherwise.
    pub fn compile(expr: &Expr) -> Option<CompiledPredicate> {
        let mut clauses = Vec::new();
        collect_clauses(expr, &mut clauses)?;
        Some(CompiledPredicate { clauses })
    }

    /// Number of compiled clauses.
    pub fn clause_count(&self) -> usize {
        self.clauses.len()
    }

    /// Compacts `sel` to the rows satisfying every clause. Clauses run in
    /// compile order; each sees only the previous clauses' survivors and
    /// the whole conjunction stops early once the selection is empty.
    pub fn filter(&self, columns: &[BatchColumn<'_>], sel: &mut SelectionVector) {
        for clause in &self.clauses {
            if sel.is_empty() {
                return;
            }
            apply_clause(clause, &columns[clause.slot], sel);
        }
    }

    /// Rebinds every clause's slot through `map`: a predicate compiled
    /// against one projection is re-addressed to a *wider* projection
    /// where old slot `s` now lives at `map[s]`. A batched pass uses this
    /// to evaluate K participants' predicates against one union-projected
    /// batch. Clause order is preserved, so selections compact
    /// identically to the solo scan.
    pub fn remap_slots(mut self, map: &[usize]) -> CompiledPredicate {
        for clause in &mut self.clauses {
            clause.slot = map[clause.slot];
        }
        self
    }

    /// Like [`filter`](Self::filter), but filters a *copy* of `base` into
    /// `out` (cleared first) instead of consuming the selection. In a
    /// batched pass with K participants, all but the last filter the
    /// batch's base selection this way; the last filters it in place.
    /// Clause order and kernels are the ones `filter` uses, so the
    /// surviving rows are bit-identical to a solo scan's.
    pub fn filter_from(
        &self,
        columns: &[BatchColumn<'_>],
        base: &SelectionVector,
        out: &mut SelectionVector,
    ) {
        out.clear();
        for &row in base {
            out.push(row);
        }
        self.filter(columns, out);
    }
}

fn collect_clauses(expr: &Expr, out: &mut Vec<Clause>) -> Option<()> {
    match expr {
        Expr::And(parts) => {
            for part in parts {
                collect_clauses(part, out)?;
            }
            Some(())
        }
        Expr::Cmp(op, a, b) => {
            let (slot, lit, op) = match (a.as_ref(), b.as_ref()) {
                (Expr::Slot(s), Expr::Lit(v)) => (*s, v, *op),
                (Expr::Lit(v), Expr::Slot(s)) => (*s, v, flip(*op)),
                _ => return None,
            };
            if matches!(lit, Value::List(_) | Value::Struct(_)) {
                return None;
            }
            out.push(Clause {
                slot,
                op,
                lit: lit.clone(),
            });
            Some(())
        }
        _ => None,
    }
}

/// Runs one clause's kernel: a typed compare against the literal over the
/// selected rows (SQL semantics — null operands never satisfy, matching
/// `Expr::eval_bool`). Every ordered (column, literal) type pair reduces
/// to a `less` / `greater` pair of per-row tests handed to [`ordered`];
/// mixed non-numeric types collapse to `cmp_sql`'s constant type-rank
/// ordering.
fn apply_clause(clause: &Clause, col: &BatchColumn<'_>, sel: &mut SelectionVector) {
    let op = clause.op;
    match (&col.values, &clause.lit) {
        (_, Value::Null) => sel.clear(),
        (BatchValues::Int(vals), Value::Int(x)) => {
            let x = *x;
            ordered(sel, col, op, |r| vals[r] < x, |r| vals[r] > x);
        }
        // Int↔Float compares go through `as f64`, exactly as `cmp_sql`.
        (BatchValues::Int(vals), Value::Float(x)) => {
            let x = *x;
            ordered(
                sel,
                col,
                op,
                |r| (vals[r] as f64) < x,
                |r| (vals[r] as f64) > x,
            );
        }
        (BatchValues::Float(vals), Value::Int(x)) => {
            let x = *x as f64;
            ordered(sel, col, op, |r| vals[r] < x, |r| vals[r] > x);
        }
        (BatchValues::Float(vals), Value::Float(x)) => {
            let x = *x;
            ordered(sel, col, op, |r| vals[r] < x, |r| vals[r] > x);
        }
        // `false < true`.
        (BatchValues::Bool(vals), Value::Bool(x)) => {
            let x = *x;
            ordered(sel, col, op, |r| !vals[r] & x, |r| vals[r] & !x);
        }
        (values @ BatchValues::Str { .. }, Value::Str(x)) => {
            let x = x.as_str();
            ordered(
                sel,
                col,
                op,
                |r| values.str_at(r) < x,
                |r| values.str_at(r) > x,
            );
        }
        // Dictionary-encoded strings: resolve the literal to a code range
        // once — `lo` pool entries order strictly before the literal,
        // `hi` order before-or-equal (so an exact match is code `lo`,
        // present iff `lo < hi`). The sorted pool makes code order equal
        // string order, so every operator becomes an integer compare per
        // row instead of a byte compare.
        (
            BatchValues::Dict {
                codes,
                pool_offsets,
                pool_bytes,
            },
            Value::Str(x),
        ) => {
            let lo = dict_bound(pool_offsets, pool_bytes, x.as_bytes(), false);
            let hi = dict_bound(pool_offsets, pool_bytes, x.as_bytes(), true);
            ordered(sel, col, op, |r| codes[r] < lo, |r| codes[r] >= hi);
        }
        // Mixed non-numeric types: `cmp_sql` compares by type rank, a
        // per-row constant — only validity still varies.
        (values, lit) => {
            let col_rank = match values {
                BatchValues::Bool(_) => 1u8,
                BatchValues::Int(_) | BatchValues::Float(_) => 2,
                BatchValues::Str { .. } | BatchValues::Dict { .. } => 3,
            };
            if op.matches(col_rank.cmp(&lit.sql_type_rank())) {
                compact(sel, col, |_| true);
            } else {
                sel.clear();
            }
        }
    }
}

/// Compacts `sel` by `op`, given the row's three-way comparison against
/// the literal as two tests: `less(r)` (row orders before the literal)
/// and `greater(r)` (after it). A row that is neither compares *Equal* —
/// which is how `cmp_sql` treats an unordered (NaN) float pair, so
/// `Ge`/`Le`/`Eq` hold for NaN and `Lt`/`Gt`/`Ne` do not. The operator is
/// matched once, outside the row loop: each arm is its own
/// instantiation of [`compact`], with no per-row operator dispatch.
#[inline(always)]
fn ordered(
    sel: &mut SelectionVector,
    col: &BatchColumn<'_>,
    op: CmpOp,
    less: impl Fn(usize) -> bool,
    greater: impl Fn(usize) -> bool,
) {
    match op {
        CmpOp::Lt => compact(sel, col, less),
        CmpOp::Gt => compact(sel, col, greater),
        CmpOp::Le => compact(sel, col, |r| !greater(r)),
        CmpOp::Ge => compact(sel, col, |r| !less(r)),
        CmpOp::Eq => compact(sel, col, |r| !less(r) & !greater(r)),
        CmpOp::Ne => compact(sel, col, |r| less(r) | greater(r)),
    }
}

/// Keeps the selected rows that are valid and satisfy `test`. Validity
/// is ANDed in without short-circuiting, so a row costs the same
/// straight-line work whatever its value; a column with no validity
/// bitmap skips the bit test altogether.
#[inline(always)]
fn compact(sel: &mut SelectionVector, col: &BatchColumn<'_>, test: impl Fn(usize) -> bool) {
    match col.validity {
        None => sel.retain(|r| test(r as usize)),
        Some(words) => sel.retain(|r| {
            let r = r as usize;
            ((words[r / 64] >> (r % 64)) & 1 == 1) & test(r)
        }),
    }
}

/// Number of dictionary-pool entries ordered before `lit` — strictly
/// before when `include_equal` is false, before-or-equal otherwise. A
/// binary search over the sorted pool: the only byte compares a dict
/// clause ever pays, once per clause instead of once per row.
fn dict_bound(pool_offsets: &[u32], pool_bytes: &[u8], lit: &[u8], include_equal: bool) -> u32 {
    let mut lo = 0usize;
    let mut hi = pool_offsets.len() - 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let entry = &pool_bytes[pool_offsets[mid] as usize..pool_offsets[mid + 1] as usize];
        let before = match entry.cmp(lit) {
            Ordering::Less => true,
            Ordering::Equal => include_equal,
            Ordering::Greater => false,
        };
        if before {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo as u32
}

/// Running MIN/MAX extreme, typed to the column being aggregated.
#[derive(Debug, Clone, PartialEq)]
enum Extreme {
    None,
    Int(i64),
    Float(f64),
    Bool(bool),
    Str(String),
}

impl Extreme {
    fn into_value(self) -> Value {
        match self {
            Extreme::None => Value::Null,
            Extreme::Int(v) => Value::Int(v),
            Extreme::Float(v) => Value::Float(v),
            Extreme::Bool(v) => Value::Bool(v),
            Extreme::Str(v) => Value::Str(v),
        }
    }
}

/// Batch aggregate state — the vectorized mirror of the executor's
/// streaming `AggState`, with identical finish semantics.
///
/// Sums accumulate through [`ExactSum`], so partial aggregators produced
/// by parallel workers [`merge`](BatchAggregator::merge) into exactly the
/// state a single sequential pass would have built — `SUM`/`AVG` results
/// are bit-identical across thread counts and task decompositions.
#[derive(Debug)]
pub struct BatchAggregator {
    func: AggFunc,
    count: u64,
    sum: ExactSum,
    extreme: Extreme,
}

impl BatchAggregator {
    pub fn new(func: AggFunc) -> Self {
        BatchAggregator {
            func,
            count: 0,
            sum: ExactSum::new(),
            extreme: Extreme::None,
        }
    }

    /// Folds a partial aggregator over *later* rows into this one. The
    /// fixed merge order (task/chunk order — ascending row position) is
    /// what keeps MIN/MAX tie-breaking identical to the sequential
    /// first-seen rule; sums and counts are order-independent.
    pub fn merge(&mut self, other: BatchAggregator) {
        self.count += other.count;
        self.sum.merge(&other.sum);
        let target = match self.func {
            AggFunc::Min => Ordering::Less,
            AggFunc::Max => Ordering::Greater,
            _ => return,
        };
        let replace = match (&self.extreme, &other.extreme) {
            (_, Extreme::None) => false,
            (Extreme::None, _) => true,
            (Extreme::Int(cur), Extreme::Int(v)) => v.cmp(cur) == target,
            (Extreme::Float(cur), Extreme::Float(v)) => {
                v.partial_cmp(cur).unwrap_or(Ordering::Equal) == target
            }
            (Extreme::Bool(cur), Extreme::Bool(v)) => v.cmp(cur) == target,
            (Extreme::Str(cur), Extreme::Str(v)) => v.cmp(cur) == target,
            // Typed columns never mix extreme variants; keep first-seen.
            _ => false,
        };
        if replace {
            self.extreme = other.extreme;
        }
    }

    /// Folds the selected rows of `col` into the state. `col == None`
    /// means `count(*)`: every selected row counts, null or not.
    pub fn update(&mut self, col: Option<&BatchColumn<'_>>, sel: &SelectionVector) {
        let Some(col) = col else {
            self.count += sel.len() as u64;
            return;
        };
        match self.func {
            AggFunc::Count => self.count += count_valid(col, sel),
            AggFunc::Sum | AggFunc::Avg => self.accumulate_sum(col, sel),
            AggFunc::Min => self.track_extreme(col, sel, Ordering::Less),
            AggFunc::Max => self.track_extreme(col, sel, Ordering::Greater),
        }
    }

    fn accumulate_sum(&mut self, col: &BatchColumn<'_>, sel: &SelectionVector) {
        match &col.values {
            BatchValues::Int(vals) => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        self.sum.add(vals[r] as f64);
                    }
                }
            }
            BatchValues::Float(vals) => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        self.sum.add(vals[r]);
                    }
                }
            }
            BatchValues::Bool(vals) => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        self.sum.add(f64::from(u8::from(vals[r])));
                    }
                }
            }
            // Strings have no numeric view (`as_f64` is `None`): the row
            // path counts them but adds 0.0 — mirror that exactly.
            BatchValues::Str { .. } | BatchValues::Dict { .. } => {
                self.count += count_valid(col, sel)
            }
        }
    }

    /// Tracks the running extreme: `target == Less` keeps the minimum,
    /// `Greater` the maximum. The comparison mirrors `cmp_sql` for each
    /// column type — in particular floats use `partial_cmp` collapsed to
    /// `Equal`, so a NaN never displaces a held value, and ties keep the
    /// first-seen value (the row path's strict-compare replacement rule).
    fn track_extreme(&mut self, col: &BatchColumn<'_>, sel: &SelectionVector, target: Ordering) {
        match &col.values {
            BatchValues::Int(vals) => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        let v = vals[r];
                        let replace = match &self.extreme {
                            Extreme::Int(cur) => v.cmp(cur) == target,
                            _ => true,
                        };
                        if replace {
                            self.extreme = Extreme::Int(v);
                        }
                    }
                }
            }
            BatchValues::Float(vals) => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        let v = vals[r];
                        let replace = match &self.extreme {
                            Extreme::Float(cur) => {
                                v.partial_cmp(cur).unwrap_or(Ordering::Equal) == target
                            }
                            _ => true,
                        };
                        if replace {
                            self.extreme = Extreme::Float(v);
                        }
                    }
                }
            }
            BatchValues::Bool(vals) => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        let v = vals[r];
                        let replace = match &self.extreme {
                            Extreme::Bool(cur) => v.cmp(cur) == target,
                            _ => true,
                        };
                        if replace {
                            self.extreme = Extreme::Bool(v);
                        }
                    }
                }
            }
            values @ BatchValues::Str { .. } => {
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        let v = values.str_at(r);
                        let replace = match &self.extreme {
                            Extreme::Str(cur) => v.cmp(cur.as_str()) == target,
                            _ => true,
                        };
                        if replace {
                            self.extreme = Extreme::Str(v.to_owned());
                        }
                    }
                }
            }
            // Dictionary columns: code order equals string order, so the
            // per-batch extreme is found with integer compares and only
            // the winning code is decoded (once per batch). Strict
            // compare keeps the first-seen-on-tie rule: equal strings
            // share a code.
            values @ BatchValues::Dict { codes, .. } => {
                let mut best: Option<(u32, usize)> = None;
                for &r in sel {
                    let r = r as usize;
                    if col.is_valid(r) {
                        self.count += 1;
                        let c = codes[r];
                        if best.is_none_or(|(b, _)| c.cmp(&b) == target) {
                            best = Some((c, r));
                        }
                    }
                }
                if let Some((_, row)) = best {
                    let v = values.str_at(row);
                    let replace = match &self.extreme {
                        Extreme::Str(cur) => v.cmp(cur.as_str()) == target,
                        _ => true,
                    };
                    if replace {
                        self.extreme = Extreme::Str(v.to_owned());
                    }
                }
            }
        }
    }

    /// Finalizes to the output `Value` (same semantics as the streaming
    /// aggregate state).
    pub fn finish(self) -> Value {
        match self.func {
            AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Sum => Value::Float(self.sum.finish()),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum.finish() / self.count as f64)
                }
            }
            AggFunc::Min | AggFunc::Max => self.extreme.into_value(),
        }
    }
}

fn count_valid(col: &BatchColumn<'_>, sel: &SelectionVector) -> u64 {
    match col.validity {
        None => sel.len() as u64,
        Some(_) => sel
            .as_slice()
            .iter()
            .filter(|&&r| col.is_valid(r as usize))
            .count() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use recache_layout::batch::BATCH_ROWS;

    fn int_col(vals: &[i64]) -> BatchColumn<'_> {
        BatchColumn {
            values: BatchValues::Int(vals),
            validity: None,
        }
    }

    fn sel(n: usize) -> SelectionVector {
        let mut s = SelectionVector::new();
        s.fill_identity(n);
        s
    }

    #[test]
    fn compile_accepts_conjunctions_of_literal_compares() {
        let e = Expr::And(vec![
            Expr::cmp(0, CmpOp::Ge, 1i64),
            Expr::And(vec![
                Expr::cmp(1, CmpOp::Lt, 2.5),
                Expr::cmp(2, CmpOp::Eq, "x"),
            ]),
        ]);
        let p = CompiledPredicate::compile(&e).expect("compilable");
        assert_eq!(p.clause_count(), 3);
        // Flipped literal-first compare is normalized.
        let e = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Lit(Value::Int(10))),
            Box::new(Expr::Slot(0)),
        );
        let p = CompiledPredicate::compile(&e).expect("compilable");
        let vals = [5i64, 10, 11];
        let mut s = sel(3);
        p.filter(&[int_col(&vals)], &mut s);
        // 10 >= slot  <=>  slot <= 10.
        assert_eq!(s.as_slice(), &[0, 1]);
    }

    #[test]
    fn compile_rejects_non_conjunctive_shapes() {
        assert!(
            CompiledPredicate::compile(&Expr::Or(vec![Expr::cmp(0, CmpOp::Gt, 1i64)])).is_none()
        );
        assert!(
            CompiledPredicate::compile(&Expr::Not(Box::new(Expr::cmp(0, CmpOp::Gt, 1i64))))
                .is_none()
        );
        let slot_vs_slot = Expr::Cmp(CmpOp::Eq, Box::new(Expr::Slot(0)), Box::new(Expr::Slot(1)));
        assert!(CompiledPredicate::compile(&slot_vs_slot).is_none());
    }

    #[test]
    fn filter_short_circuits_across_clauses() {
        let a = [1i64, 2, 3, 4, 5];
        let b = [10i64, 20, 30, 40, 50];
        let cols = [int_col(&a), int_col(&b)];
        let p = CompiledPredicate::compile(&Expr::And(vec![
            Expr::cmp(0, CmpOp::Ge, 3i64),
            Expr::cmp(1, CmpOp::Lt, 50i64),
        ]))
        .unwrap();
        let mut s = sel(5);
        p.filter(&cols, &mut s);
        assert_eq!(s.as_slice(), &[2, 3]);
        // An impossible first clause empties the selection immediately.
        let p = CompiledPredicate::compile(&Expr::And(vec![
            Expr::cmp(0, CmpOp::Gt, 100i64),
            Expr::cmp(1, CmpOp::Lt, 50i64),
        ]))
        .unwrap();
        let mut s = sel(5);
        p.filter(&cols, &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn null_rows_never_satisfy() {
        // Rows 0 and 2 valid, row 1 null.
        let vals = [1i64, 999, 3];
        let words = [0b101u64];
        let col = BatchColumn {
            values: BatchValues::Int(&vals),
            validity: Some(&words),
        };
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Ge] {
            let p = CompiledPredicate::compile(&Expr::cmp(0, op, 999i64)).unwrap();
            let mut s = sel(3);
            p.filter(std::slice::from_ref(&col), &mut s);
            assert!(
                !s.as_slice().contains(&1),
                "null row must not satisfy {op:?}"
            );
        }
        // Null literal never satisfies either.
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Eq, Value::Null)).unwrap();
        let mut s = sel(3);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn cross_type_comparisons_match_cmp_sql() {
        let ints = [3i64];
        let col = int_col(&ints);
        // Int column vs float literal.
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Le, 3.0)).unwrap();
        let mut s = sel(1);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.len(), 1);
        // Int column vs string literal: rank(Int)=2 < rank(Str)=3.
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Lt, "zzz")).unwrap();
        let mut s = sel(1);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.len(), 1, "numeric < string by type rank");
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Gt, "zzz")).unwrap();
        let mut s = sel(1);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert!(s.is_empty());
    }

    #[test]
    fn string_kernels_compare_arena_views() {
        let offsets = [0u32, 1, 3, 6];
        let bytes = b"abbccc";
        let col = BatchColumn {
            values: BatchValues::Str {
                offsets: &offsets,
                bytes,
            },
            validity: None,
        };
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Eq, "bb")).unwrap();
        let mut s = sel(3);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.as_slice(), &[1]);
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Ge, "bb")).unwrap();
        let mut s = sel(3);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.as_slice(), &[1, 2]);
    }

    #[test]
    fn aggregators_match_streaming_semantics() {
        let vals = [5i64, 1, 9, 9, 3];
        let col = int_col(&vals);
        let s = sel(5);
        let mut count = BatchAggregator::new(AggFunc::Count);
        let mut sum = BatchAggregator::new(AggFunc::Sum);
        let mut avg = BatchAggregator::new(AggFunc::Avg);
        let mut min = BatchAggregator::new(AggFunc::Min);
        let mut max = BatchAggregator::new(AggFunc::Max);
        for agg in [&mut count, &mut sum, &mut avg, &mut min, &mut max] {
            agg.update(Some(&col), &s);
        }
        assert_eq!(count.finish(), Value::Int(5));
        assert_eq!(sum.finish(), Value::Float(27.0));
        assert_eq!(avg.finish(), Value::Float(5.4));
        assert_eq!(min.finish(), Value::Int(1));
        assert_eq!(max.finish(), Value::Int(9));
    }

    #[test]
    fn aggregators_skip_nulls_but_count_star_does_not() {
        let vals = [1i64, 2, 3];
        let words = [0b101u64];
        let col = BatchColumn {
            values: BatchValues::Int(&vals),
            validity: Some(&words),
        };
        let s = sel(3);
        let mut count = BatchAggregator::new(AggFunc::Count);
        count.update(Some(&col), &s);
        assert_eq!(count.finish(), Value::Int(2));
        let mut star = BatchAggregator::new(AggFunc::Count);
        star.update(None, &s);
        assert_eq!(star.finish(), Value::Int(3));
        let mut avg = BatchAggregator::new(AggFunc::Avg);
        avg.update(Some(&col), &s);
        assert_eq!(avg.finish(), Value::Float(2.0));
        let mut empty = BatchAggregator::new(AggFunc::Avg);
        empty.update(Some(&col), &SelectionVector::new());
        assert_eq!(empty.finish(), Value::Null);
    }

    #[test]
    fn string_min_max() {
        let offsets = [0u32, 3, 4, 9];
        let bytes = b"foeazebra";
        let col = BatchColumn {
            values: BatchValues::Str {
                offsets: &offsets,
                bytes,
            },
            validity: None,
        };
        let s = sel(3);
        let mut min = BatchAggregator::new(AggFunc::Min);
        min.update(Some(&col), &s);
        assert_eq!(min.finish(), Value::from("a"));
        let mut max = BatchAggregator::new(AggFunc::Max);
        max.update(Some(&col), &s);
        assert_eq!(max.finish(), Value::from("zebra"));
        // Sum over strings counts rows but keeps sum at 0.0 (as_f64 is
        // None on the row path).
        let mut sum = BatchAggregator::new(AggFunc::Sum);
        sum.update(Some(&col), &s);
        assert_eq!(sum.finish(), Value::Float(0.0));
    }

    /// Pool ["aa", "b", "cc"], rows decode to ["cc", "aa", "b", "aa"].
    fn dict_col<'a>(codes: &'a [u32], validity: Option<&'a [u64]>) -> BatchColumn<'a> {
        const POOL_OFFSETS: [u32; 4] = [0, 2, 3, 5];
        const POOL_BYTES: &[u8] = b"aabcc";
        BatchColumn {
            values: BatchValues::Dict {
                codes,
                pool_offsets: &POOL_OFFSETS,
                pool_bytes: POOL_BYTES,
            },
            validity,
        }
    }

    #[test]
    fn dict_equality_resolves_to_one_code_compare() {
        let codes = [2u32, 0, 1, 0];
        let col = dict_col(&codes, None);
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Eq, "aa")).unwrap();
        let mut s = sel(4);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.as_slice(), &[1, 3]);
        // Literal absent from the pool: Eq empties, Ne keeps all valid.
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Eq, "zz")).unwrap();
        let mut s = sel(4);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert!(s.is_empty());
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Ne, "zz")).unwrap();
        let mut s = sel(4);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn dict_ordered_compares_match_plain_string_kernels() {
        let codes = [2u32, 0, 1, 0];
        let dict = dict_col(&codes, None);
        // The same rows in plain arena form: "cc", "aa", "b", "aa".
        let offsets = [0u32, 2, 4, 5, 7];
        let bytes = b"ccaabaa";
        let plain = BatchColumn {
            values: BatchValues::Str {
                offsets: &offsets,
                bytes,
            },
            validity: None,
        };
        // Literals between, below, above, and inside the pool.
        for lit in ["aa", "ab", "b", "cc", "", "zz"] {
            for op in [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ] {
                let p = CompiledPredicate::compile(&Expr::cmp(0, op, lit)).unwrap();
                let mut a = sel(4);
                p.filter(std::slice::from_ref(&dict), &mut a);
                let mut b = sel(4);
                p.filter(std::slice::from_ref(&plain), &mut b);
                assert_eq!(
                    a.as_slice(),
                    b.as_slice(),
                    "op {op:?} literal {lit:?} diverged between dict and plain"
                );
            }
        }
    }

    #[test]
    fn dict_null_rows_never_satisfy() {
        let codes = [2u32, 0, 1, 0];
        // Row 1 invalid.
        let words = [0b1101u64];
        let col = dict_col(&codes, Some(&words));
        let p = CompiledPredicate::compile(&Expr::cmp(0, CmpOp::Le, "zz")).unwrap();
        let mut s = sel(4);
        p.filter(std::slice::from_ref(&col), &mut s);
        assert_eq!(s.as_slice(), &[0, 2, 3]);
    }

    #[test]
    fn dict_min_max_decode_once_per_batch() {
        let codes = [2u32, 0, 1, 0];
        let col = dict_col(&codes, None);
        let s = sel(4);
        let mut min = BatchAggregator::new(AggFunc::Min);
        min.update(Some(&col), &s);
        assert_eq!(min.finish(), Value::from("aa"));
        let mut max = BatchAggregator::new(AggFunc::Max);
        max.update(Some(&col), &s);
        assert_eq!(max.finish(), Value::from("cc"));
        let mut sum = BatchAggregator::new(AggFunc::Sum);
        sum.update(Some(&col), &s);
        assert_eq!(sum.finish(), Value::Float(0.0));
    }

    #[test]
    fn remapped_predicate_filters_union_projection_identically() {
        let a = [1i64, 2, 3, 4, 5];
        let b = [10i64, 20, 30, 40, 50];
        // Solo projection: [a, b]; union projection: [x, a, b] (the
        // participant's slots 0, 1 live at union positions 1, 2).
        let x = [0i64, 0, 0, 0, 0];
        let solo_cols = [int_col(&a), int_col(&b)];
        let union_cols = [int_col(&x), int_col(&a), int_col(&b)];
        let p = CompiledPredicate::compile(&Expr::And(vec![
            Expr::cmp(0, CmpOp::Ge, 3i64),
            Expr::cmp(1, CmpOp::Lt, 50i64),
        ]))
        .unwrap();
        let mut solo = sel(5);
        p.filter(&solo_cols, &mut solo);
        let remapped = p.remap_slots(&[1, 2]);
        let base = sel(5);
        let mut shared = SelectionVector::new();
        remapped.filter_from(&union_cols, &base, &mut shared);
        assert_eq!(solo.as_slice(), shared.as_slice());
        // `filter_from` neither consumed the base nor kept stale rows
        // from a previous (larger) use of the scratch vector.
        assert_eq!(base.len(), 5);
        let mut scratch = sel(5);
        remapped.filter_from(&union_cols, &base, &mut scratch);
        assert_eq!(scratch.as_slice(), solo.as_slice());
    }

    /// Every operator × column type × literal type, with and without
    /// nulls: the surviving selection is exactly the rows
    /// `Expr::eval_bool` accepts. Values cover the edges the kernels'
    /// `less`/`greater` form must get right: NaN (unordered, so *Equal*),
    /// signed zeros, infinities, the `i64` extremes and an integer that
    /// `as f64` rounds onto a float literal.
    #[test]
    fn kernels_match_eval_bool_on_every_type_and_operator() {
        const ROWS: usize = 150;
        const OPS: [CmpOp; 6] = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        let big = (1i64 << 53) + 1;
        let int_base = [0i64, 1, -1, 3, i64::MIN, i64::MAX, big, big - 1, 7];
        let float_base = [
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            3.0,
            -2.25,
            big as f64,
            f64::MAX,
        ];
        let str_base = ["", "a", "ab", "b", "zz", "a"];
        let ints: Vec<i64> = (0..ROWS).map(|i| int_base[i % int_base.len()]).collect();
        let floats: Vec<f64> = (0..ROWS)
            .map(|i| float_base[i % float_base.len()])
            .collect();
        let bools: Vec<bool> = (0..ROWS).map(|i| i % 3 == 1).collect();
        let strs: Vec<&str> = (0..ROWS).map(|i| str_base[i % str_base.len()]).collect();
        let mut offsets = vec![0u32];
        let mut bytes = Vec::new();
        for s in &strs {
            bytes.extend_from_slice(s.as_bytes());
            offsets.push(bytes.len() as u32);
        }
        let mut pool: Vec<&str> = strs.clone();
        pool.sort_unstable();
        pool.dedup();
        let mut pool_offsets = vec![0u32];
        let mut pool_bytes = Vec::new();
        for s in &pool {
            pool_bytes.extend_from_slice(s.as_bytes());
            pool_offsets.push(pool_bytes.len() as u32);
        }
        let codes: Vec<u32> = strs
            .iter()
            .map(|s| pool.binary_search(s).unwrap() as u32)
            .collect();
        let columns = [
            BatchValues::Int(&ints),
            BatchValues::Float(&floats),
            BatchValues::Bool(&bools),
            BatchValues::Str {
                offsets: &offsets,
                bytes: &bytes,
            },
            BatchValues::Dict {
                codes: &codes,
                pool_offsets: &pool_offsets,
                pool_bytes: &pool_bytes,
            },
        ];
        let literals: Vec<Value> = vec![
            Value::Int(0),
            Value::Int(3),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Int(big),
            Value::Float(f64::NAN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(1.5),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(big as f64),
            Value::Float(i64::MAX as f64),
            Value::Bool(false),
            Value::Bool(true),
            Value::from(""),
            Value::from("a"),
            Value::from("aa"),
            Value::from("zz"),
            Value::from("zzz"),
            Value::Null,
        ];
        // Every third row null, spread over three validity words.
        let words: Vec<u64> = (0..ROWS.div_ceil(64))
            .map(|w| {
                (0..64)
                    .filter(|b| (w * 64 + b) % 3 != 2)
                    .fold(0u64, |acc, b| acc | 1 << b)
            })
            .collect();
        let mut cases = 0;
        for values in columns {
            for validity in [None, Some(words.as_slice())] {
                let col = BatchColumn { values, validity };
                for lit in &literals {
                    for op in OPS {
                        let expr = Expr::cmp(0, op, lit.clone());
                        let p = CompiledPredicate::compile(&expr).unwrap();
                        let mut s = sel(ROWS);
                        p.filter(std::slice::from_ref(&col), &mut s);
                        let expected: Vec<u32> = (0..ROWS)
                            .filter(|&r| expr.eval_bool(&[col.value(r)]))
                            .map(|r| r as u32)
                            .collect();
                        assert_eq!(
                            s.as_slice(),
                            expected.as_slice(),
                            "{values:?} {op:?} {lit:?} validity {}",
                            validity.is_some()
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 5 * 2 * literals.len() * OPS.len());
    }

    #[test]
    fn selection_indices_address_whole_batches() {
        // A batch-sized identity selection touches every row once.
        let vals: Vec<i64> = (0..BATCH_ROWS as i64).collect();
        let col = int_col(&vals);
        let s = sel(BATCH_ROWS);
        let mut sum = BatchAggregator::new(AggFunc::Sum);
        sum.update(Some(&col), &s);
        let expected = (BATCH_ROWS * (BATCH_ROWS - 1) / 2) as f64;
        assert_eq!(sum.finish(), Value::Float(expected));
    }
}

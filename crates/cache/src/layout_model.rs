//! Automatic cache-layout selection (§4.2).
//!
//! Per cached nested item, ReCache tracks a window of per-query
//! observations — data-access cost `Di`, computational cost `Ci`, rows
//! needed `ri`, columns accessed `ci` — plus the item's flattened row
//! count `R`, and applies the paper's cost model:
//!
//! * currently Dremel/Parquet (Eqs. 1–3): switch to relational columnar
//!   when `Σ(Di + Ci) > Σ(Di · R/ri) + T`, `T = max((Di + Ci) · R/ri)`;
//! * currently relational columnar (Eqs. 4–5): switch to Parquet when
//!   `Σ Di > Σ(Di + ComputeCost(ri, ci)) · ri/R + T`, where
//!   `ComputeCost` is the `Ci` of the historical Parquet-layout query
//!   nearest in (rows, columns) accessed;
//! * the tracking window restarts after every switch, so a rapidly
//!   alternating workload cannot thrash the layout.
//!
//! Flat items have no choice to make: they stay relational columnar. The
//! paper's H2O-style row/column chooser (§4.3) is not carried, because on
//! this engine a row layout cannot win (see "Deviations from the paper"
//! in `docs/ARCHITECTURE.md`).
//!
//! Two engineering refinements over the paper's description (also
//! recorded under "Deviations from the paper" in `docs/ARCHITECTURE.md`):
//! * `ComputeCost` is *level-aware*: record-level queries on the Dremel
//!   layout read short non-repeated columns without record assembly, so
//!   their compute cost is estimated from record-level history only
//!   (zero when none exists) — element-level history would wildly
//!   overestimate them;
//! * the window is bounded (`WINDOW_CAP` most recent observations since
//!   the last switch). With a literally unbounded window, a long phase
//!   accumulates so much evidence that no later phase can ever win,
//!   which contradicts the switching behaviour Fig. 9a reports.

use recache_layout::{CacheData, LayoutKind, ScanCost};
use std::collections::VecDeque;

/// Maximum observations kept since the last switch.
const WINDOW_CAP: usize = 96;

/// One query's interaction with a cached item.
#[derive(Debug, Clone, Copy)]
pub struct QueryObservation {
    /// Data-access cost `Di` (ns).
    pub d_ns: u64,
    /// Computational cost `Ci` (ns).
    pub c_ns: u64,
    /// Rows the query semantically needed (`ri`): record count for
    /// record-level queries, flattened row count for element-level.
    pub rows: usize,
    /// Columns (leaves) accessed (`ci`).
    pub cols: usize,
    /// Layout the item had when this query ran.
    pub layout: LayoutKind,
}

/// One store scan of a cached item, as the engine measured it: what a
/// hit feeds the model.
#[derive(Debug, Clone, Copy)]
pub struct StoreScan {
    /// The scan's measured data-access / compute split.
    pub cost: ScanCost,
    /// Whether the query read whole records (`ri` = record count) rather
    /// than flattened rows.
    pub record_level: bool,
    /// Columns (leaves) accessed (`ci`).
    pub cols: usize,
}

/// The layout decision for a nested cached item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutDecision {
    Stay,
    SwitchToColumnar,
    SwitchToDremel,
}

/// A window observation's memoized `ComputeCost` estimate, valid while
/// the Dremel history generation and `R` it was computed under hold.
#[derive(Debug, Clone, Copy)]
struct CostMemo {
    generation: u64,
    r_total: usize,
    c_ns: u64,
}

/// Per-entry observation window plus long-term Parquet compute history.
#[derive(Debug, Clone, Default)]
pub struct LayoutHistory {
    /// Most recent observations since the last layout switch (bounded).
    window: VecDeque<QueryObservation>,
    /// `ComputeCost` memo per window observation (parallel to `window`):
    /// a decision on a columnar entry reads every window observation's
    /// estimate, and each fresh estimate scans all of `dremel_history`.
    memo: VecDeque<Option<CostMemo>>,
    /// Dremel-layout observations (the `ComputeCost(r, c)`
    /// nearest-neighbour estimator needs them even after switches).
    dremel_history: Vec<QueryObservation>,
    /// Bumped on every push to `dremel_history`: the estimates derived
    /// from it are stale once it changes.
    dremel_generation: u64,
    /// Number of layout switches performed (stats/diagnostics).
    pub switches: u32,
}

impl LayoutHistory {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one query's measurements.
    pub fn observe(&mut self, obs: QueryObservation) {
        if obs.layout == LayoutKind::Dremel {
            self.dremel_history.push(obs);
            self.dremel_generation += 1;
            // Bound the long-term history; old workload phases stop being
            // representative anyway.
            if self.dremel_history.len() > 256 {
                self.dremel_history.remove(0);
            }
        }
        if self.window.len() >= WINDOW_CAP {
            self.window.pop_front();
            self.memo.pop_front();
        }
        self.window.push_back(obs);
        self.memo.push_back(None);
    }

    /// Observations since the last switch (most recent `WINDOW_CAP`).
    pub fn window(&self) -> &VecDeque<QueryObservation> {
        &self.window
    }

    /// Moves the window forward after a switch ("it moves forward the
    /// window for further query tracking to look at new incoming
    /// queries").
    pub fn reset_window(&mut self) {
        self.window.clear();
        self.memo.clear();
        self.switches += 1;
    }

    /// `ComputeCost(rows, cols)`: the compute cost of the historical
    /// Dremel-layout query closest to `(rows, cols)`, considering only
    /// history at the same access level (`rows < r_total` = record-level,
    /// otherwise element-level).
    ///
    /// Record-level Dremel scans read short non-repeated columns with no
    /// record assembly, so with no record-level history the estimate is
    /// zero; element-level queries with no history fall back to a
    /// per-value decode estimate.
    pub fn compute_cost_estimate(&self, rows: usize, cols: usize, r_total: usize) -> u64 {
        let record_level = rows < r_total;
        let candidate = self
            .dremel_history
            .iter()
            .filter(|o| (o.rows < r_total) == record_level)
            .min_by(|a, b| {
                let da = observation_distance(a, rows, cols);
                let db = observation_distance(b, rows, cols);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            });
        match (candidate, record_level) {
            (Some(o), _) => o.c_ns,
            (None, true) => 0,
            // No element-level history: assume ~4ns of level-decoding
            // per value.
            (None, false) => (rows * cols * 4) as u64,
        }
    }

    /// Applies the §4.2 cost model given the item's current layout and
    /// flattened row count `R`. On a columnar item each window
    /// observation's `ComputeCost` is memoized until the Dremel history or
    /// `R` changes, so a decision costs O(window), not O(window · history).
    pub fn decide_nested(&mut self, current: LayoutKind, r_total: usize) -> LayoutDecision {
        if self.window.is_empty() || r_total == 0 {
            return LayoutDecision::Stay;
        }
        match current {
            LayoutKind::Dremel => {
                // Eq. 1-3.
                let mut cost_parquet = 0.0f64;
                let mut cost_relational = 0.0f64;
                let mut t_switch = 0.0f64;
                for o in &self.window {
                    if o.layout != LayoutKind::Dremel {
                        continue;
                    }
                    let scale = r_total as f64 / o.rows.max(1) as f64;
                    cost_parquet += (o.d_ns + o.c_ns) as f64;
                    cost_relational += o.d_ns as f64 * scale;
                    t_switch = t_switch.max((o.d_ns + o.c_ns) as f64 * scale);
                }
                if cost_parquet > cost_relational + t_switch {
                    LayoutDecision::SwitchToColumnar
                } else {
                    LayoutDecision::Stay
                }
            }
            LayoutKind::Columnar => {
                // Eq. 4-5.
                let mut cost_relational = 0.0f64;
                let mut cost_parquet = 0.0f64;
                let mut t_switch = 0.0f64;
                for i in 0..self.window.len() {
                    let o = self.window[i];
                    if o.layout != LayoutKind::Columnar {
                        continue;
                    }
                    let ratio = o.rows.max(1) as f64 / r_total as f64;
                    cost_relational += o.d_ns as f64;
                    let compute = self.memoized_estimate(i, r_total) as f64;
                    cost_parquet += (o.d_ns as f64 + compute) * ratio;
                    let scale = r_total as f64 / o.rows.max(1) as f64;
                    t_switch = t_switch.max((o.d_ns + o.c_ns) as f64 * scale);
                }
                if cost_relational > cost_parquet + t_switch {
                    LayoutDecision::SwitchToDremel
                } else {
                    LayoutDecision::Stay
                }
            }
            _ => LayoutDecision::Stay,
        }
    }

    /// One hit's §4.2 step: observes a store scan of `data`, then applies
    /// the cost model to it. Only the Dremel layout has a meaningful
    /// compute component ("the relational columnar layout has negligible
    /// computational cost"): a columnar scan's whole cost is data access,
    /// the `R`-proportional row walk included. `ri` is the record count
    /// for record-level queries and the flattened row count otherwise.
    pub fn observe_scan(&mut self, scan: &StoreScan, data: &CacheData) -> LayoutDecision {
        let layout = data.layout();
        let (d_ns, c_ns) = if layout == LayoutKind::Dremel {
            (scan.cost.data_ns, scan.cost.compute_ns)
        } else {
            (scan.cost.total_ns(), 0)
        };
        self.observe(QueryObservation {
            d_ns,
            c_ns,
            rows: if scan.record_level {
                data.record_count()
            } else {
                data.flattened_rows()
            },
            cols: scan.cols,
            layout,
        });
        self.decide_nested(layout, data.flattened_rows())
    }

    /// `compute_cost_estimate` for window observation `i`, recomputed only
    /// when the Dremel history or `r_total` changed since it was cached.
    fn memoized_estimate(&mut self, i: usize, r_total: usize) -> u64 {
        let generation = self.dremel_generation;
        match self.memo[i] {
            Some(m) if m.generation == generation && m.r_total == r_total => m.c_ns,
            _ => {
                let o = self.window[i];
                let c_ns = self.compute_cost_estimate(o.rows, o.cols, r_total);
                self.memo[i] = Some(CostMemo {
                    generation,
                    r_total,
                    c_ns,
                });
                c_ns
            }
        }
    }
}

fn observation_distance(o: &QueryObservation, rows: usize, cols: usize) -> f64 {
    let row_ratio = (o.rows.max(1) as f64 / rows.max(1) as f64).ln().abs();
    let col_diff = (o.cols as f64 - cols as f64).abs();
    row_ratio + col_diff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(d: u64, c: u64, rows: usize, cols: usize, layout: LayoutKind) -> QueryObservation {
        QueryObservation {
            d_ns: d,
            c_ns: c,
            rows,
            cols,
            layout,
        }
    }

    /// The paper's worked example (§4.2): 5 queries, ΣDi = 1000,
    /// ΣCi = 2000, 4 lineitems per order.
    #[test]
    fn paper_example_non_nested_access_keeps_parquet() {
        let mut history = LayoutHistory::new();
        // Non-nested access: ri = R/4 = 100, R = 400.
        for _ in 0..5 {
            history.observe(obs(200, 400, 100, 2, LayoutKind::Dremel));
        }
        // Costparquet = 3000, Costrelational = 4000, T = 2400 -> stay.
        assert_eq!(
            history.decide_nested(LayoutKind::Dremel, 400),
            LayoutDecision::Stay
        );
    }

    #[test]
    fn paper_example_nested_access_switches_to_columnar() {
        let mut history = LayoutHistory::new();
        // Nested access: ri = R = 400.
        for _ in 0..5 {
            history.observe(obs(200, 400, 400, 2, LayoutKind::Dremel));
        }
        // Costparquet = 3000, Costrelational = 1000, T = 600 -> switch.
        assert_eq!(
            history.decide_nested(LayoutKind::Dremel, 400),
            LayoutDecision::SwitchToColumnar
        );
    }

    #[test]
    fn columnar_switches_back_when_queries_go_record_level() {
        let mut history = LayoutHistory::new();
        // An element-level Dremel observation exists, but record-level
        // ComputeCost ignores it (short-column fast path -> 0).
        history.observe(obs(200, 400, 400, 2, LayoutKind::Dremel));
        history.reset_window();
        // Columnar phase: record-level queries needing 100 of 400 rows,
        // but Di measured on the columnar layout is the full-R scan.
        for _ in 0..6 {
            history.observe(obs(800, 0, 100, 2, LayoutKind::Columnar));
        }
        // Costrelational = 4800.
        // Costparquet = 6 * (800 + 0) * 0.25 = 1200; T = 800*4 = 3200.
        // 4800 > 4400 -> switch.
        assert_eq!(
            history.decide_nested(LayoutKind::Columnar, 400),
            LayoutDecision::SwitchToDremel
        );
    }

    #[test]
    fn element_level_phase_blocks_switch_to_dremel() {
        let mut history = LayoutHistory::new();
        // Seed an element-level Dremel observation with heavy compute.
        history.observe(obs(200, 2000, 400, 2, LayoutKind::Dremel));
        history.reset_window();
        // Element-level columnar queries (rows == R): Parquet would pay
        // the assembly compute, so the layout stays columnar.
        for _ in 0..20 {
            history.observe(obs(800, 0, 400, 2, LayoutKind::Columnar));
        }
        assert_eq!(
            history.decide_nested(LayoutKind::Columnar, 400),
            LayoutDecision::Stay
        );
    }

    #[test]
    fn window_reset_prevents_thrashing() {
        let mut history = LayoutHistory::new();
        for _ in 0..5 {
            history.observe(obs(200, 400, 400, 2, LayoutKind::Dremel));
        }
        assert_eq!(
            history.decide_nested(LayoutKind::Dremel, 400),
            LayoutDecision::SwitchToColumnar
        );
        history.reset_window();
        assert_eq!(history.window().len(), 0);
        assert_eq!(history.switches, 1);
        // Fresh window: no evidence yet, stay put.
        assert_eq!(
            history.decide_nested(LayoutKind::Columnar, 400),
            LayoutDecision::Stay
        );
    }

    #[test]
    fn compute_cost_uses_nearest_neighbour() {
        let mut history = LayoutHistory::new();
        history.observe(obs(100, 111, 100, 2, LayoutKind::Dremel));
        history.observe(obs(100, 999, 10_000, 8, LayoutKind::Dremel));
        // Both observations are record-level w.r.t. R = 20_000.
        assert_eq!(history.compute_cost_estimate(120, 2, 20_000), 111);
        assert_eq!(history.compute_cost_estimate(9_000, 8, 20_000), 999);
    }

    #[test]
    fn compute_cost_is_level_aware() {
        let mut history = LayoutHistory::new();
        // Only an element-level observation (rows == R) exists.
        history.observe(obs(100, 5_000, 400, 2, LayoutKind::Dremel));
        // Record-level estimate ignores it: short columns, no assembly.
        assert_eq!(history.compute_cost_estimate(100, 2, 400), 0);
        // Element-level estimate uses it.
        assert_eq!(history.compute_cost_estimate(400, 2, 400), 5_000);
    }

    #[test]
    fn compute_cost_fallback_without_history() {
        let history = LayoutHistory::new();
        // Element-level (rows == R): per-value decode estimate.
        assert_eq!(history.compute_cost_estimate(100, 3, 100), 1200);
        // Record-level: zero (short-column fast path).
        assert_eq!(history.compute_cost_estimate(50, 3, 100), 0);
    }

    #[test]
    fn empty_window_stays() {
        let mut history = LayoutHistory::new();
        assert_eq!(
            history.decide_nested(LayoutKind::Dremel, 100),
            LayoutDecision::Stay
        );
        assert_eq!(
            history.decide_nested(LayoutKind::Columnar, 100),
            LayoutDecision::Stay
        );
    }

    /// A from-scratch evaluator of Eqs. 1–5 over its own copies of the
    /// window and the Dremel history: no memo, every `ComputeCost` a
    /// fresh nearest-neighbour scan.
    #[derive(Default)]
    struct NaiveModel {
        window: Vec<QueryObservation>,
        dremel: Vec<QueryObservation>,
    }

    impl NaiveModel {
        fn observe(&mut self, o: QueryObservation) {
            if o.layout == LayoutKind::Dremel {
                self.dremel.push(o);
                if self.dremel.len() > 256 {
                    self.dremel.remove(0);
                }
            }
            self.window.push(o);
            if self.window.len() > WINDOW_CAP {
                self.window.remove(0);
            }
        }

        fn compute_cost(&self, rows: usize, cols: usize, r_total: usize) -> u64 {
            let record_level = rows < r_total;
            let mut best: Option<(f64, u64)> = None;
            for o in &self.dremel {
                if (o.rows < r_total) != record_level {
                    continue;
                }
                let d = (o.rows.max(1) as f64 / rows.max(1) as f64).ln().abs()
                    + (o.cols as f64 - cols as f64).abs();
                // First-seen wins ties, as `min_by` does.
                if best.is_none_or(|(b, _)| d < b) {
                    best = Some((d, o.c_ns));
                }
            }
            match (best, record_level) {
                (Some((_, c)), _) => c,
                (None, true) => 0,
                (None, false) => (rows * cols * 4) as u64,
            }
        }

        fn decide(&self, current: LayoutKind, r_total: usize) -> LayoutDecision {
            if self.window.is_empty() || r_total == 0 {
                return LayoutDecision::Stay;
            }
            let r = r_total as f64;
            let mut lhs = 0.0f64;
            let mut rhs = 0.0f64;
            let mut t = 0.0f64;
            for o in self.window.iter().filter(|o| o.layout == current) {
                let ri = o.rows.max(1) as f64;
                let total = (o.d_ns + o.c_ns) as f64;
                t = t.max(total * r / ri);
                match current {
                    LayoutKind::Dremel => {
                        lhs += total;
                        rhs += o.d_ns as f64 * (r / ri);
                    }
                    _ => {
                        lhs += o.d_ns as f64;
                        let c = self.compute_cost(o.rows, o.cols, r_total) as f64;
                        rhs += (o.d_ns as f64 + c) * (ri / r);
                    }
                }
            }
            match current {
                LayoutKind::Dremel if lhs > rhs + t => LayoutDecision::SwitchToColumnar,
                LayoutKind::Columnar if lhs > rhs + t => LayoutDecision::SwitchToDremel,
                _ => LayoutDecision::Stay,
            }
        }
    }

    /// Seeded random interleavings of Dremel and Columnar observations,
    /// decisions under a few `R`s, and window resets: the memoized model
    /// decides exactly as the naive evaluator does.
    #[test]
    fn memoized_decisions_match_naive_evaluator() {
        let mut state = 0x5EED_u64;
        let mut next = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let mut switches = [0usize; 3];
        for _ in 0..40 {
            let mut history = LayoutHistory::new();
            let mut naive = NaiveModel::default();
            for _ in 0..600 {
                match next(40) {
                    0..=19 => {
                        // Columnar observations carry no compute share,
                        // as the session records them.
                        let (layout, c_ns) = if next(3) == 0 {
                            (LayoutKind::Dremel, next(20_000))
                        } else {
                            (LayoutKind::Columnar, 0)
                        };
                        let o = obs(
                            1_000 + next(1_000),
                            c_ns,
                            [100, 200, 300, 400, 800, 1_200][next(6) as usize],
                            1 + next(6) as usize,
                            layout,
                        );
                        history.observe(o);
                        naive.observe(o);
                    }
                    20..=38 => {
                        let current = if next(4) == 0 {
                            LayoutKind::Dremel
                        } else {
                            LayoutKind::Columnar
                        };
                        let r_total = [400, 800, 1_200][next(3) as usize];
                        let got = history.decide_nested(current, r_total);
                        assert_eq!(got, naive.decide(current, r_total));
                        switches[match got {
                            LayoutDecision::Stay => 0,
                            LayoutDecision::SwitchToColumnar => 1,
                            LayoutDecision::SwitchToDremel => 2,
                        }] += 1;
                    }
                    _ => {
                        history.reset_window();
                        naive.window.clear();
                    }
                }
            }
        }
        // The interleavings reach every outcome, not only `Stay`.
        assert!(switches.iter().all(|&n| n > 0), "{switches:?}");
    }

    /// A Dremel observation arriving after a decision re-prices the
    /// columnar window: the memoized estimates must not outlive it.
    #[test]
    fn new_dremel_history_invalidates_memoized_estimates() {
        let mut history = LayoutHistory::new();
        for _ in 0..6 {
            history.observe(obs(800, 0, 100, 2, LayoutKind::Columnar));
        }
        // No record-level history: ComputeCost 0, same as
        // `columnar_switches_back_when_queries_go_record_level`.
        assert_eq!(
            history.decide_nested(LayoutKind::Columnar, 400),
            LayoutDecision::SwitchToDremel
        );
        // Record-level Parquet compute turns out expensive.
        history.observe(obs(100, 100_000, 100, 2, LayoutKind::Dremel));
        assert_eq!(
            history.decide_nested(LayoutKind::Columnar, 400),
            LayoutDecision::Stay
        );
    }

    #[test]
    fn histories_are_bounded() {
        let mut history = LayoutHistory::new();
        for i in 0..300 {
            history.observe(obs(1, i, 10, 1, LayoutKind::Dremel));
        }
        // The decision window keeps the most recent WINDOW_CAP entries.
        assert_eq!(history.window().len(), 96);
        assert_eq!(history.window().front().unwrap().c_ns, 300 - 96);
        // Long-term history capped at 256: entries 0..44 were dropped, so
        // the nearest-neighbour (all tied at distance 0) is the oldest
        // survivor, c=44. All obs are record-level w.r.t. R=20.
        assert_eq!(history.compute_cost_estimate(10, 1, 20), 44);
        assert!(history.dremel_history.len() <= 256);
    }
}

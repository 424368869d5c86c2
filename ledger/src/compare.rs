//! `ledger compare A.json B.json`: holds two `ledger all` reports of the
//! same seed against the bounds `BENCHMARK.json` fixes. `A` is the parent
//! (or the first of two sets of the same commit), `B` the change.

use crate::json::Json;
use crate::stats::{median, relative_range};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// `B`'s median is worse than `A`'s by more than the bound.
    Worse,
    /// The runs of one side spread wider than the bound: the comparison
    /// cannot tell a regression from noise, so it is not "unchanged".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub a_median: f64,
    pub b_median: f64,
    /// How much worse `B` is, as a share of `A`'s median (negative when
    /// `B` is better).
    pub worse_by: f64,
    /// The wider of the two sides' `(max − min) / median`.
    pub spread: f64,
}

/// Applies one metric's bound to the runs of both sides.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Option<Judgement> {
    let a_median = median(a)?;
    let b_median = median(b)?;
    if a_median == 0.0 {
        return None;
    }
    let worse_by = if higher_is_better {
        (a_median - b_median) / a_median.abs()
    } else {
        (b_median - a_median) / a_median.abs()
    };
    let spread = relative_range(a)
        .unwrap_or(0.0)
        .max(relative_range(b).unwrap_or(0.0));
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Some(Judgement {
        verdict,
        a_median,
        b_median,
        worse_by,
        spread,
    })
}

fn runs_of(report: &Json, workload: &str, metric: &str) -> Option<Vec<f64>> {
    report
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("runs")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

fn text_of<'a>(report: &'a Json, workload: &str, key: &str) -> Option<&'a str> {
    report.get("workloads")?.get(workload)?.get(key)?.as_str()
}

/// Prints one row per (workload, end-to-end metric) and returns whether
/// any row is `worse` or any answer changed.
pub fn compare(bench: &Json, a: &Json, b: &Json) -> Result<bool, String> {
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let workloads = bench
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no workloads list")?;
    let mut bad = false;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "spread", "bound"
    );
    for workload in workloads {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload has no name")?;
        for key in ["result_digest", "fingerprint"] {
            let (in_a, in_b) = (text_of(a, workload, key), text_of(b, workload, key));
            if in_a.is_none() || in_a != in_b {
                println!("{workload:<18} {key}: {in_a:?} vs {in_b:?}  differs");
                bad = true;
            }
        }
        for metric in metrics {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("a metric has no name")?;
            let bound = metric
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name} has no bound"))?;
            let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
            let judgement = runs_of(a, workload, name)
                .zip(runs_of(b, workload, name))
                .and_then(|(runs_a, runs_b)| judge(&runs_a, &runs_b, higher, bound))
                .ok_or_else(|| format!("{workload}/{name} is missing from a report"))?;
            println!(
                "{workload:<18} {name:<14} {:>14.4} {:>14.4} {:>8.2}% {:>7.2}% {:>5.0}%  {}",
                judgement.a_median,
                judgement.b_median,
                judgement.worse_by * 100.0,
                judgement.spread * 100.0,
                bound * 100.0,
                judgement.verdict.as_str()
            );
            bad |= judgement.verdict == Verdict::Worse;
        }
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_apply_in_the_direction_of_better() {
        // Lower is better: B 8 % slower is inside a 10 % bound, 12 % is not.
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[108.0, 108.5, 107.5], false, 0.10)
                .unwrap()
                .verdict,
            Verdict::Ok
        );
        let slow = judge(&a, &[112.0, 112.5, 111.5], false, 0.10).unwrap();
        assert_eq!(slow.verdict, Verdict::Worse);
        assert!((slow.worse_by - 0.12).abs() < 1e-9);
        // A faster B is never worse, however large the change.
        assert_eq!(
            judge(&a, &[50.0, 50.5, 49.5], false, 0.10).unwrap().verdict,
            Verdict::Ok
        );
        // Higher is better: the same numbers read the other way round.
        assert_eq!(
            judge(&a, &[88.0, 88.5, 87.5], true, 0.10).unwrap().verdict,
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[112.0, 112.5, 111.5], true, 0.10)
                .unwrap()
                .verdict,
            Verdict::Ok
        );
        // Exactly at the bound is still inside it.
        assert_eq!(
            judge(&[100.0], &[110.0], false, 0.10).unwrap().verdict,
            Verdict::Ok
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [90.0, 100.0, 115.0];
        let steady = [100.0, 100.5, 99.5];
        let j = judge(&noisy, &steady, false, 0.10).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        assert!((j.spread - 0.25).abs() < 1e-9);
        assert_eq!(
            judge(&steady, &noisy, false, 0.10).unwrap().verdict,
            Verdict::Unresolved
        );
        // Even a median far past the bound is unresolved when the runs
        // cannot be told apart from noise.
        assert_eq!(
            judge(&steady, &[100.0, 150.0, 200.0], false, 0.10)
                .unwrap()
                .verdict,
            Verdict::Unresolved
        );
        assert!(judge(&[], &steady, false, 0.10).is_none());
        assert!(judge(&[0.0], &steady, false, 0.10).is_none());
    }
}

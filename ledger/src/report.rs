//! `ledger all`: every workload, each run in a fresh child process, one
//! report. A first run in a process pays the page faults of its whole
//! cache, so repeats inside one process would not be independent.

use crate::json::{self, Json};
use crate::run::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::workloads::NAMES;
use std::path::{Path, PathBuf};
use std::process::Command;

pub struct AllConfig {
    pub seed: u64,
    pub seconds: f64,
    pub repeats: usize,
    pub out: Option<PathBuf>,
}

/// One child run, as parsed from its standard output.
struct Child {
    result: Json,
    info: Json,
}

fn run_child(
    workload: &str,
    config: &AllConfig,
    trace_out: Option<&Path>,
) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if trace_out.is_some() { "1" } else { "0" }]);
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    // Standard error passes through; `output` waits for the child to end.
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload}: the run printed nothing"))
        .and_then(|line| json::parse(line).map_err(|e| format!("{workload}: result line: {e}")))?;
    let info = stdout
        .lines()
        .rev()
        .find_map(|line| line.strip_prefix("#info "))
        .ok_or_else(|| format!("{workload}: the run printed no #info line"))
        .and_then(|line| json::parse(line).map_err(|e| format!("{workload}: info line: {e}")))?;
    if !output.status.success() || result.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{workload}: run failed ({}): {}",
            output.status,
            info.get("violations")
                .map_or_else(String::new, Json::render)
        ));
    }
    Ok(Child { result, info })
}

fn metric_value(child: &Child, name: &str) -> Option<f64> {
    child
        .result
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn metric_samples(child: &Child, name: &str) -> f64 {
    child
        .info
        .get("samples")
        .and_then(|s| s.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn workload_report(workload: &str, config: &AllConfig, trace_dir: &Path) -> Result<Json, String> {
    let untraced: Vec<Child> = (0..config.repeats)
        .map(|_| run_child(workload, config, None))
        .collect::<Result<_, _>>()?;
    let trace_path = trace_dir.join(format!("ledger-trace-{workload}.jsonl"));
    let traced = run_child(workload, config, Some(&trace_path))?;

    for key in ["result_digest", "fingerprint"] {
        let first = untraced[0].info.get(key);
        if untraced
            .iter()
            .chain([&traced])
            .any(|c| c.info.get(key) != first)
        {
            return Err(format!(
                "{workload}: {key} differs between runs of one seed"
            ));
        }
    }

    println!("\n{workload}");
    let mut end_to_end = Vec::new();
    for MetricDef { name, unit, .. } in END_TO_END {
        let runs: Vec<f64> = untraced
            .iter()
            .map(|c| metric_value(c, name).ok_or_else(|| format!("{workload}: no {name}")))
            .collect::<Result<_, _>>()?;
        let mid = median(&runs).expect("repeats > 0");
        let lo = runs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = runs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let samples = metric_samples(&untraced[0], name);
        println!("  {name:<30} {mid:>16.4} {unit:<7} [{lo:.4} .. {hi:.4}]  n={samples}");
        end_to_end.push((
            name.to_owned(),
            Json::obj(vec![
                ("unit", Json::str(unit)),
                ("median", Json::Num(mid)),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                ("runs", Json::Arr(runs.into_iter().map(Json::Num).collect())),
                ("samples", Json::Num(samples)),
            ]),
        ));
    }
    let mut per_layer = Vec::new();
    for MetricDef { name, unit, .. } in PER_LAYER {
        let value = metric_value(&traced, name).ok_or_else(|| format!("{workload}: no {name}"))?;
        let samples = metric_samples(&traced, name);
        println!("  {name:<30} {value:>16.4} {unit:<7} n={samples}");
        per_layer.push((
            name.to_owned(),
            Json::obj(vec![
                ("unit", Json::str(unit)),
                ("value", Json::Num(value)),
                ("samples", Json::Num(samples)),
            ]),
        ));
    }
    let sum = |key: &str| -> f64 {
        untraced
            .iter()
            .chain([&traced])
            .filter_map(|c| c.result.get(key).and_then(Json::as_f64))
            .sum()
    };
    let info = |key: &str| traced.info.get(key).cloned().unwrap_or(Json::Null);
    Ok(Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(sum("attempted"))),
        ("failed", Json::Num(sum("failed"))),
        ("result_digest", info("result_digest")),
        ("fingerprint", info("fingerprint")),
        ("settings", info("settings")),
        ("trace_file", Json::str(trace_path.display().to_string())),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
    ]))
}

/// Runs everything; `Err` on any failed run, guard violation or mismatch.
pub fn all(config: &AllConfig) -> Result<(), String> {
    if config.repeats == 0 {
        return Err("--repeats must be at least 1".to_owned());
    }
    let trace_dir = config
        .out
        .as_deref()
        .and_then(Path::parent)
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    let mut workloads = Vec::new();
    for workload in NAMES {
        workloads.push((
            workload.to_owned(),
            workload_report(workload, config, trace_dir)?,
        ));
    }
    let report = Json::obj(vec![
        (
            "meta",
            Json::obj(vec![
                ("commit", Json::str(git_commit())),
                ("seed", Json::Num(config.seed as f64)),
                ("seconds", Json::Num(config.seconds)),
                ("repeats", Json::Num(config.repeats as f64)),
                ("sf", Json::Num(crate::setup::SF)),
                (
                    "nproc",
                    Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
                ),
            ]),
        ),
        ("workloads", Json::Obj(workloads)),
    ]);
    if let Some(path) = &config.out {
        std::fs::write(path, report.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nreport written to {}", path.display());
    }
    Ok(())
}

//! `ledger`: the repository's end-to-end + per-layer benchmark.
//!
//! ```text
//! ledger run --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
//! ledger all [--seed N] [--seconds S] [--repeats R] [--out FILE]
//! ledger compare A.json B.json [--bench BENCHMARK.json]
//! ```
//!
//! `run` is the command `BENCHMARK.json` names: its last line of standard
//! output is the result object the driver reads. README.md has the rest.

mod client;
mod compare;
mod json;
mod probes;
mod report;
mod rng;
mod run;
mod setup;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Seconds one run measures when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const DEFAULT_SEED: u64 = 42;

const USAGE: &str = "usage:
  ledger run --workload W [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]
  ledger all [--seed N] [--seconds S] [--repeats R] [--out FILE]
  ledger compare A.json B.json [--bench BENCHMARK.json]
workloads: explore_cold warm_drilldown churn_tight served_dashboard";

/// `--key value` pairs and bare words, in order.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut words = Vec::new();
        let mut iter = args.iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    // A bare `--trace` means `--trace 1`.
                    let value = match iter.peek() {
                        Some(next) if !next.starts_with("--") => iter.next().cloned(),
                        _ if key == "trace" => Some("1".to_owned()),
                        _ => None,
                    };
                    let value = value.ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_owned(), value));
                }
                None => words.push(arg.clone()),
            }
        }
        Ok(Args { flags, words })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{key} {text}: not a valid value")),
            None => Ok(default),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !known.contains(&k.as_str()))
        {
            Some((key, _)) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }
}

fn cmd_run(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace", "trace-out"])?;
    let config = run::RunConfig {
        workload: args
            .get("workload")
            .ok_or("run needs --workload")?
            .to_owned(),
        seed: args.parsed("seed", DEFAULT_SEED)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        trace: match args.get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        trace_out: args.get("trace-out").map(PathBuf::from),
    };
    let output = run::run(&config)?;
    for metric in &output.metrics {
        println!(
            "{:<30} {:>16.4} {:<7} n={}",
            metric.def.name, metric.value, metric.def.unit, metric.samples
        );
    }
    for violation in &output.violations {
        eprintln!("ledger: {}: {violation}", config.workload);
    }
    println!("#info {}", output.info_line());
    println!("{}", output.result_line());
    Ok(output.correct)
}

fn cmd_all(args: &Args) -> Result<bool, String> {
    args.only(&["seed", "seconds", "repeats", "out"])?;
    report::all(&report::AllConfig {
        seed: args.parsed("seed", DEFAULT_SEED)?,
        seconds: args.parsed("seconds", DEFAULT_SECONDS)?,
        repeats: args.parsed("repeats", 3)?,
        out: args.get("out").map(PathBuf::from),
    })?;
    Ok(true)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.only(&["bench"])?;
    let [a, b] = args.words.as_slice() else {
        return Err("compare needs two report files".to_owned());
    };
    let read = |path: &str| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let bench = read(args.get("bench").unwrap_or("BENCHMARK.json"))?;
    let worse = compare::compare(&bench, &read(a)?, &read(b)?)?;
    Ok(!worse)
}

fn main() -> ExitCode {
    // The product reads RECACHE_* settings from the environment; a stray
    // one would silently change what is measured. Scrubbed before any
    // thread starts, and children inherit the scrubbed environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RECACHE_") {
            std::env::remove_var(key);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((command, rest)) => Args::parse(rest).and_then(|args| match command.as_str() {
            "run" => cmd_run(&args),
            "all" => cmd_all(&args),
            "compare" => cmd_compare(&args),
            other => Err(format!("unknown command '{other}'\n{USAGE}")),
        }),
        None => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

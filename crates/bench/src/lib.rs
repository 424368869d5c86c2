//! Shared harness for the figure-reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one figure of the ReCache paper
//! (see the experiment index under "Deviations from the paper" in
//! `docs/ARCHITECTURE.md`). Output is TSV with `#` comment lines, so
//! series can be piped straight into plotting tools.

pub mod args;
pub mod datasets;
pub mod loadgen;
pub mod output;
pub mod runner;

pub use args::Args;
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use output::{moving_avg, print_cdf, print_header, Table};
pub use runner::{run_workload, warm_full_cache, Outcome};

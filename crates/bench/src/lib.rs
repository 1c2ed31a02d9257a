//! # smin-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§6), plus the `perf` microbenchmarks and the `svc_load`
//! service load generator:
//!
//! | binary | what it does |
//! |---|---|
//! | `reproduce_all` | Table 2, Figure 3, Figures 4–10 and Table 3 in one pass ([`figures`]), writing JSON to `--out` |
//! | `perf` | the kernel microbenchmarks behind `BENCH_coverage.json`, `BENCH_select.json` and `BENCH_graph_load.json` |
//! | `svc_load` | a load generator for `asm serve`, behind `BENCH_svc_load.json` |
//!
//! The SNAP datasets are substituted by structurally matched Chung–Lu
//! stand-ins (see [`datasets`]); pass `--snap <dir>` to run on real SNAP
//! edge lists instead. Three size tiers: `--smoke` (seconds), `--quick`
//! (default, minutes, scaled-down graphs), `--paper` (full Table 2 sizes and
//! 20 realizations).

#![forbid(unsafe_code)]

pub mod args;
pub mod datasets;
pub mod figures;
pub mod harness;
pub mod stats;
pub mod table;

pub use args::{Args, Tier};
pub use datasets::{build_dataset, dataset_specs, DatasetSpec};
pub use harness::{run_algo, Algo, RealizationResult, RunResult};
pub use stats::{percentile, summarize, LatencySummary};
pub use table::{format_table, write_json};

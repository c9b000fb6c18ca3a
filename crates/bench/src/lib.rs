//! # era-bench
//!
//! Benchmark harness that regenerates every table and figure of the ERA
//! paper's evaluation (§6) at laptop scale.
//!
//! The paper runs on multi-GB genomes with GB memory budgets; this harness
//! keeps every *ratio* the paper varies (string : memory, `|R|` : memory,
//! threads, nodes) while scaling absolute sizes down to megabytes, so the
//! comparisons finish in minutes. Absolute times therefore differ from the
//! paper; the *shape* — which algorithm wins, by roughly what factor, where
//! lines cross — is what matters. Each experiment prints its rows next to a
//! prose `expectation` stating that shape; nothing yet checks the rows
//! against it or records the outcome.
//!
//! The entry point is the `repro` binary
//! (`cargo run --release -p era-bench --bin repro -- all`), which prints one
//! Markdown table per experiment. `repro` reproduces the paper; measuring the
//! system itself — serving, layout, packed I/O, regressions — is the job of
//! the standalone `benchmark/` crate.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod runner;

pub use experiments::{all_experiments, run_experiment, ExperimentResult, Row, Scale};
pub use runner::{make_disk_store, run_algorithm, Algorithm};

//! The `era-check` command-line tool.
//!
//! ```text
//! era-check fsck [--deep] <catalog-file>    # verify a persisted index catalog
//! era-check crash-matrix [--limit=N]        # every-fault-point catalog crash sweep
//! era-check demo-index <catalog-file>       # build a 1 MiB genome-like index (CI fsck prey)
//! ```
//!
//! Every subcommand prints its findings and exits non-zero when anything is
//! wrong, so each maps directly onto a CI step.

#![deny(rust_2018_idioms)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use era_check::fsck::fsck_file;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some("fsck") => {
            let mut deep = false;
            let mut path = None;
            for arg in args {
                match arg {
                    "--deep" => deep = true,
                    other if path.is_none() => path = Some(PathBuf::from(other)),
                    other => return usage(&format!("unexpected argument {other:?}")),
                }
            }
            match path {
                Some(path) => run_fsck(&path, deep),
                None => usage("fsck needs a catalog file"),
            }
        }
        Some("crash-matrix") => {
            let mut limit = None;
            for arg in args {
                match arg.strip_prefix("--limit=").map(str::parse::<usize>) {
                    Some(Ok(n)) if n > 0 => limit = Some(n),
                    _ => return usage(&format!("unexpected crash-matrix argument {arg:?}")),
                }
            }
            run_crash_matrix(limit)
        }
        Some("demo-index") => match args.next() {
            Some(path) => run_demo_index(Path::new(path)),
            None => usage("demo-index needs a target catalog file"),
        },
        Some(other) => usage(&format!("unknown subcommand {other:?}")),
        None => usage("missing subcommand"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("era-check: {problem}");
    eprintln!("usage: era-check fsck [--deep] <catalog> | crash-matrix [--limit=N] | demo-index <catalog>");
    ExitCode::FAILURE
}

fn run_fsck(path: &Path, deep: bool) -> ExitCode {
    let mode = if deep { ", deep" } else { "" };
    match fsck_file(path, deep) {
        Ok(nodes) => {
            println!("era-check fsck: {nodes} node(s){mode}, 0 error(s)");
            ExitCode::SUCCESS
        }
        Err(diagnostic) => {
            println!("{diagnostic}");
            println!("era-check fsck: 1 error(s){mode}");
            ExitCode::FAILURE
        }
    }
}

fn run_crash_matrix(limit: Option<usize>) -> ExitCode {
    let report = era_check::crash::run_crash_matrix(limit);
    for error in &report.errors {
        println!("{error}");
    }
    println!("{report}");
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_demo_index(path: &Path) -> ExitCode {
    // A text of the benchmark's kind and order of size under a budget a
    // quarter of it, so the index has over a thousand partitions and
    // `fsck --deep` verifies what the benchmark builds, not a toy.
    const TEXT_LEN: usize = 1 << 20;
    const MEMORY_BUDGET: usize = 256 << 10;
    let body = era_workloads::genome_like(TEXT_LEN, 1);
    let result = era::SuffixIndex::builder()
        .memory_budget(MEMORY_BUDGET)
        .build_from_bytes_with_alphabet(&body, era_string_store::Alphabet::dna())
        .and_then(|index| index.save_to_file(path));
    match result {
        Ok(()) => {
            println!("era-check demo-index: wrote a packed demo catalog to {}", path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("era-check demo-index: {e}");
            ExitCode::FAILURE
        }
    }
}

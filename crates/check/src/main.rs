//! The `era-check` command-line tool.
//!
//! ```text
//! era-check lint [--format=github|json] [workspace-root]   # panic paths from serving entry points
//! era-check taint [--format=github|json] [workspace-root]  # untrusted-input dataflow
//! era-check fsck [--deep] <catalog-file>                   # verify a persisted index catalog
//! era-check crash-matrix [--limit=N]                       # every-fault-point catalog crash sweep
//! era-check demo-index <catalog-file>                     # build a 1 MiB genome-like index (CI fsck prey)
//! era-check all [workspace-root]                           # lint + taint over one index
//! ```
//!
//! Every subcommand prints its findings and exits non-zero when anything is
//! wrong, so each maps directly onto a CI step. `--format=github` emits one
//! `::error file=...,line=...` workflow annotation per finding so violations
//! surface inline on pull requests; `--format=json` emits one stable JSON
//! object so tooling stops re-parsing human output.

#![deny(rust_2018_idioms)]

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use era_check::fsck::fsck_file;
use era_check::graph::{find_workspace_root, Finding, Index};
use era_check::lint::lint;
use era_check::taint::taint;

/// How `lint`/`taint` render their findings.
#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    /// `file:line: [rule] excerpt` lines for humans.
    Plain,
    /// `::error` workflow-command annotations for GitHub Actions.
    Github,
    /// One machine-readable JSON object on stdout.
    Json,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter().map(String::as_str);
    match args.next() {
        Some(cmd @ ("lint" | "taint")) => {
            let mut format = LintFormat::Plain;
            let mut root = None;
            for arg in args {
                match arg {
                    "--format=plain" => format = LintFormat::Plain,
                    "--format=github" => format = LintFormat::Github,
                    "--format=json" => format = LintFormat::Json,
                    other if other.starts_with("--format=") => {
                        return usage(&format!("unknown {cmd} format {other:?}"));
                    }
                    other if root.is_none() => root = Some(PathBuf::from(other)),
                    other => return usage(&format!("unexpected argument {other:?}")),
                }
            }
            let index = match load_index(root, cmd) {
                Ok(index) => index,
                Err(code) => return code,
            };
            if cmd == "lint" {
                run_lint(&index, format)
            } else {
                run_taint(&index, format)
            }
        }
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
        Some("all") => {
            let index = match load_index(args.next().map(PathBuf::from), "all") {
                Ok(index) => index,
                Err(code) => return code,
            };
            let lint = run_lint(&index, LintFormat::Plain);
            let taint = run_taint(&index, LintFormat::Plain);
            if lint == ExitCode::SUCCESS && taint == ExitCode::SUCCESS {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Some(other) => usage(&format!("unknown subcommand {other:?}")),
        None => usage("missing subcommand"),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("era-check: {problem}");
    eprintln!(
        "usage: era-check lint [--format=github|json] [root] | \
         taint [--format=github|json] [root] | fsck [--deep] <catalog> | \
         crash-matrix [--limit=N] | demo-index <catalog> | all [root]"
    );
    ExitCode::FAILURE
}

/// Escapes a value for a GitHub Actions workflow-command message, where
/// `%`, CR and LF are the command syntax's meta characters.
fn github_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Escapes a value for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Prints `findings` in `format` (plain lines, or GitHub annotations) and
/// returns them as JSON objects joined by commas, for the JSON summary.
fn print_findings<R: fmt::Display>(format: LintFormat, findings: &[Finding<R>]) -> String {
    let mut json = Vec::new();
    for finding in findings {
        let file = finding.file.display().to_string();
        match format {
            LintFormat::Plain => println!("{finding}"),
            LintFormat::Github => {
                let mut msg = finding.excerpt.clone();
                if !finding.message.is_empty() {
                    msg.push('\n');
                    msg.push_str(&finding.message);
                }
                println!(
                    "::error file={},line={},title=era-check({})::{}",
                    github_escape(&file),
                    finding.line,
                    finding.rule,
                    github_escape(&msg)
                );
            }
            LintFormat::Json => json.push(format!(
                "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"excerpt\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&finding.rule.to_string()),
                json_escape(&file),
                finding.line,
                json_escape(&finding.excerpt),
                json_escape(&finding.message)
            )),
        }
    }
    json.join(",")
}

/// Indexes the workspace at `root`, or at the one above the working
/// directory when no root is given.
fn load_index(root: Option<PathBuf>, pass: &str) -> Result<Index, ExitCode> {
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cannot determine the working directory");
            find_workspace_root(&cwd).ok_or_else(|| {
                eprintln!("era-check {pass}: no workspace Cargo.toml above {}", cwd.display());
                ExitCode::FAILURE
            })?
        }
    };
    Index::load(&root).map_err(|e| {
        eprintln!("era-check {pass}: failed to scan {}: {e}", root.display());
        ExitCode::FAILURE
    })
}

fn run_lint(index: &Index, format: LintFormat) -> ExitCode {
    let report = lint(index);
    let json = print_findings(format, &report.findings);
    match format {
        LintFormat::Json => println!(
            "{{\"pass\":\"lint\",\"files\":{},\"violations\":{},\"findings\":[{}]}}",
            report.files,
            report.findings.len(),
            json
        ),
        _ => println!(
            "era-check lint: {} files, {} violation(s)",
            report.files,
            report.findings.len()
        ),
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_taint(index: &Index, format: LintFormat) -> ExitCode {
    let report = taint(index);
    let json = print_findings(format, &report.findings);
    match format {
        LintFormat::Json => println!(
            "{{\"pass\":\"taint\",\"files\":{},\"fns\":{},\"call_edges\":{},\"tainted_flows\":{},\
             \"allows\":{},\"violations\":{},\"findings\":[{}]}}",
            report.files,
            report.fns,
            report.call_edges,
            report.tainted_flows,
            report.allows,
            report.findings.len(),
            json
        ),
        _ => println!(
            "era-check taint: {} files, {} fns, {} call edges, {} tainted flow(s), \
             {} allow(s), {} violation(s)",
            report.files,
            report.fns,
            report.call_edges,
            report.tainted_flows,
            report.allows,
            report.findings.len()
        ),
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
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
        .packed(true)
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

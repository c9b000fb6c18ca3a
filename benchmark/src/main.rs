//! `era-benchmark`: the repo's benchmark — build → commit → reopen → serve,
//! end to end and layer by layer. See `README.md` next to this crate.
//!
//! ```text
//! era-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! era-benchmark compare A B [--benchmark BENCHMARK.json] [--either-way]
//! era-benchmark selfcheck
//! era-benchmark list
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]

mod compare;
mod json;
mod machine;
mod oracle;
mod pipeline;
mod probes;
mod product;
mod report;
mod selfcheck;
mod stats;
mod trace;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use pipeline::Options;

/// Seconds of measured serving when `--seconds` is not given: the
/// `run_seconds` of the `BENCHMARK.json` in the working directory.
fn run_seconds() -> Result<f64, String> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("no --seconds, and BENCHMARK.json: {e}"))?;
    json::parse(&doc)?
        .get("run_seconds")
        .and_then(json::Value::as_f64)
        .ok_or_else(|| "no --seconds, and BENCHMARK.json has no run_seconds".to_string())
}

/// Where runs keep their files: inside the build's target directory, so a
/// checkout is left as it was found. `run.sh` passes the directory in.
fn work_root() -> PathBuf {
    std::env::var_os("ERA_BENCHMARK_WORK_DIR")
        .map_or_else(|| PathBuf::from("target/era-benchmark-work"), PathBuf::from)
}

/// `--key value` pairs and bare words of a subcommand's arguments.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut parsed = Args { flags: Vec::new(), words: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) if switches.contains(&key) => {
                    parsed.flags.push((key.to_string(), "1".to_string()));
                }
                Some(key) => {
                    let value = it.next().ok_or(format!("--{key} needs a value"))?;
                    parsed.flags.push((key.to_string(), value.clone()));
                }
                None => parsed.words.push(arg.clone()),
            }
        }
        Ok(parsed)
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: `{v}` is not a valid number")),
        }
    }
}

fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("run needs --workload <name> (see `list`)")?;
    let w = workload::by_name(name).ok_or(format!("unknown workload `{name}` (see `list`)"))?;
    let seed: u64 = args.number("seed", 1)?;
    let trace = args.number::<u8>("trace", 0)? != 0;
    let root = work_root();
    let work_dir = root.join(format!("run-{}-{}", w.name, std::process::id()));
    let options = Options {
        seed,
        seconds: match args.get("seconds") {
            Some(_) => args.number("seconds", 0.0)?,
            None => run_seconds()?,
        },
        trace,
        // The traced run spends the repeats' time on the probes instead.
        setup_reps: if trace { 1 } else { 2 },
        open_reps: 7,
        min_passes: 4,
        host_ref: true,
        work_dir: work_dir.clone(),
        plant_wrong_answer: false,
    };
    let result = pipeline::run(w, &options);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(failure) => {
            eprintln!("{}: {}", w.name, failure.message);
            println!("{}", report::failure_line(&failure));
            return Ok(ExitCode::FAILURE);
        }
    };
    // `build_peak_rss_mb` must be the build's own high-water mark. The mark
    // is reset right before the build; had the process been anywhere near
    // the build's peak by then, the metric would report the set-up.
    let peak_mb = outcome.end_to_end.iter().find(|m| m.name == "build_peak_rss_mb");
    if peak_mb.is_some_and(|peak| outcome.rss_before_build_mb >= 0.5 * peak.value) {
        eprintln!(
            "{}: {} MB resident before a build that peaked at {} MB: not the build's peak",
            w.name,
            outcome.rss_before_build_mb,
            peak_mb.map_or(0.0, |m| m.value)
        );
        let failure = pipeline::Failure {
            ops_attempted: outcome.ops_attempted,
            message: "the build's peak memory could not be told from the set-up's".to_string(),
        };
        println!("{}", report::failure_line(&failure));
        return Ok(ExitCode::FAILURE);
    }
    if let Some(spans) = &outcome.span_json {
        let path = root.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("{} diag.span_file {}", w.name, path.display());
    }
    for line in report::lines(w.name, seed, &outcome) {
        println!("{line}");
    }
    if let Some(path) = args.get("record") {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", report::record_line(w.name, seed, &outcome, trace))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", report::result_line(&outcome, trace));
    Ok(ExitCode::from(report::exit_code(&outcome) as u8))
}

fn compare(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.words.as_slice() else {
        return Err("compare needs two result-set files".to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let gates = compare::gates(&read(args.get("benchmark").unwrap_or("BENCHMARK.json"))?)?;
    let cmp = compare::compare(&gates, &read(a)?, &read(b)?, args.get("either-way").is_some())?;
    for row in &cmp.rows {
        println!("{row}");
    }
    println!("{} breach(es), {} unresolved", cmp.breaches, cmp.unresolved);
    Ok(if cmp.breaches == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn selfcheck() -> Result<ExitCode, String> {
    let dir = work_root().join(format!("selfcheck-{}", std::process::id()));
    let declared = std::fs::read_to_string(Path::new("BENCHMARK.json")).ok();
    let started = std::time::Instant::now();
    let report = selfcheck::selfcheck(&dir, declared.as_deref());
    let _ = std::fs::remove_dir_all(&dir);
    for line in report? {
        println!("{line}");
    }
    println!("selfcheck ok in {:.1} s", started.elapsed().as_secs_f64());
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((command, rest)) => (command.as_str(), rest),
        None => ("help", &[][..]),
    };
    let result = Args::parse(rest, &["either-way"]).and_then(|args| match command {
        "run" => run(&args),
        "compare" => compare(&args),
        "selfcheck" => selfcheck(),
        "list" => {
            for w in &workload::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!(
            "usage: era-benchmark run --workload W [--seed N] [--seconds S] [--trace 0|1] \
             [--record FILE] | compare A B [--benchmark FILE] [--either-way] | selfcheck | list \
             (got `{command}`)"
        )),
    });
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("era-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

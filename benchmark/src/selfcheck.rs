//! `era-benchmark selfcheck`: the whole pipeline on all three workloads at
//! 64 KiB, in seconds — answers verified, seeds honoured, counts repeatable,
//! every metric of `BENCHMARK.json` emitted. Also run by `cargo test`.

use std::path::{Path, PathBuf};

use crate::json::{self, Value};
use crate::pipeline::{self, Metric, Options, Outcome};
use crate::workload::{Workload, WORKLOADS};

const TEXT_LEN: usize = 64 << 10;

pub fn options(work_dir: PathBuf, seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.0,
        trace,
        setup_reps: 1,
        open_reps: 2,
        min_passes: 2,
        host_ref: false,
        work_dir,
        plant_wrong_answer: false,
    }
}

fn run(w: &Workload, options: &Options) -> Result<Outcome, String> {
    let outcome = pipeline::run(w, options).map_err(|f| format!("{}: {}", w.name, f.message))?;
    if outcome.ops_failed > 0 {
        return Err(format!(
            "{}: {} of {} queries failed ({})",
            w.name,
            outcome.ops_failed,
            outcome.ops_attempted,
            outcome.first_failure.as_deref().unwrap_or("no detail")
        ));
    }
    Ok(outcome)
}

fn value(metrics: &[Metric], name: &str) -> f64 {
    metrics.iter().find(|m| m.name == name).map_or(f64::NAN, |m| m.value)
}

/// The metric names of one list of a `BENCHMARK.json` document.
fn declared_names(benchmark_json: &str, list: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(benchmark_json)?;
    let entries = doc.get(list).and_then(Value::as_array).ok_or(format!("no `{list}` list"))?;
    Ok(entries.iter().filter_map(|m| m.get("name")?.as_str().map(str::to_string)).collect())
}

fn check_names(emitted: &[Metric], declared: &[String], what: &str) -> Result<(), String> {
    let emitted: Vec<&str> = emitted.iter().map(|m| m.name).collect();
    if emitted != declared.iter().map(String::as_str).collect::<Vec<_>>() {
        return Err(format!(
            "{what} metrics differ from BENCHMARK.json:\n emitted  {emitted:?}\n declared {declared:?}"
        ));
    }
    Ok(())
}

/// Runs the checks; `benchmark_json` is compared with the emitted metric
/// names when given. Returns one report line per check.
pub fn selfcheck(work_dir: &Path, benchmark_json: Option<&str>) -> Result<Vec<String>, String> {
    let mut report = Vec::new();
    for full in &WORKLOADS {
        let w = full.scaled(TEXT_LEN);
        let dir = work_dir.join(w.name);
        let first = run(&w, &options(dir.clone(), 1, false))?;
        let again = run(&w, &options(dir.clone(), 1, false))?;
        let other = run(&w, &options(dir.clone(), 2, false))?;
        let traced = run(&w, &options(dir.clone(), 1, true))?;
        let _ = std::fs::remove_dir_all(&dir);

        if first.query_fingerprint != again.query_fingerprint {
            return Err(format!("{}: seed 1 gave two different query sets", w.name));
        }
        if first.query_fingerprint == other.query_fingerprint {
            return Err(format!("{}: seeds 1 and 2 gave the same query set", w.name));
        }
        for name in ["build_read_amp", "index_bytes_per_symbol"] {
            let (a, b) = (value(&first.end_to_end, name), value(&again.end_to_end, name));
            if a.to_bits() != b.to_bits() || !a.is_finite() {
                return Err(format!("{}: {name} did not repeat for seed 1: {a} then {b}", w.name));
            }
        }
        if first.end_to_end.iter().chain(&traced.per_layer).any(|m| !m.value.is_finite()) {
            return Err(format!("{}: a metric is not a finite number", w.name));
        }
        if traced.span_json.as_deref().map(json::parse).transpose()?.is_none() {
            return Err(format!("{}: the traced run recorded no spans", w.name));
        }
        if let Some(doc) = benchmark_json {
            check_names(&first.end_to_end, &declared_names(doc, "end_to_end")?, "end-to-end")?;
            check_names(&traced.per_layer, &declared_names(doc, "per_layer")?, "per-layer")?;
        }
        report.push(format!(
            "{}: ok — {} queries verified x4 runs, seed-stable, {} + {} metrics",
            w.name,
            first.ops_attempted,
            first.end_to_end.len(),
            traced.per_layer.len()
        ));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use crate::workload::by_name;

    /// A scratch directory next to the test binary, inside the target dir.
    fn scratch(name: &str) -> PathBuf {
        let exe = std::env::current_exe().expect("the test binary has a path");
        exe.with_file_name(format!("era-benchmark-test-{name}-{}", std::process::id()))
    }

    #[test]
    fn all_workloads_pass_at_64_kib_and_match_benchmark_json() {
        let dir = scratch("selfcheck");
        let declared = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json sits at the repository root");
        let started = std::time::Instant::now();
        let report = selfcheck(&dir, Some(&declared)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(report.len(), WORKLOADS.len());
        assert!(started.elapsed().as_secs() < 60, "selfcheck took {:?}", started.elapsed());
    }

    #[test]
    fn a_planted_wrong_answer_fails_the_run() {
        let dir = scratch("planted");
        let w = by_name("genome-raw-tight").unwrap().scaled(TEXT_LEN);
        let honest = pipeline::run(&w, &options(dir.clone(), 1, false)).unwrap();
        assert_eq!(honest.ops_failed, 0);
        assert_eq!(report::exit_code(&honest), 0);

        let planted = Options { plant_wrong_answer: true, ..options(dir.clone(), 1, false) };
        let outcome = pipeline::run(&w, &planted).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(outcome.ops_failed, 1);
        assert_eq!(outcome.ops_attempted, honest.ops_attempted);
        assert!(outcome.first_failure.as_deref().unwrap().starts_with("query 0:"));
        assert_ne!(report::exit_code(&outcome), 0);
        let line = json::parse(&report::result_line(&outcome, false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }

    #[test]
    fn a_failed_phase_fails_every_query() {
        // A work directory that cannot be created: the run fails before it
        // can serve anything.
        let blocker = scratch("blocker");
        std::fs::create_dir_all(blocker.parent().unwrap()).unwrap();
        std::fs::write(&blocker, b"a file, not a directory").unwrap();
        let w = by_name("genome-raw-tight").unwrap().scaled(TEXT_LEN);
        let failure = pipeline::run(&w, &options(blocker.join("sub"), 1, false)).unwrap_err();
        let _ = std::fs::remove_file(&blocker);
        assert_eq!(failure.ops_attempted, (w.batches_per_pass * 64) as u64);
    }
}

//! What a run prints: one `workload metric value unit` line per metric, the
//! drift diagnostics, and — as the last line of standard output — the result
//! object the benchmark contract asks for.

use crate::json;
use crate::machine::{HostReading, QUIET};
use crate::pipeline::{Failure, Metric, Outcome};

/// The metrics of the contract's result object: the end-to-end ones of an
/// untraced run, the per-layer ones of a traced run (`BENCHMARK.json` lists
/// them apart, and the driver asks for one list per run).
fn result_metrics(outcome: &Outcome, trace: bool) -> &[Metric] {
    if trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    }
}

/// Every metric the run has: the end-to-end ones, then the per-layer ones
/// (none unless traced).
fn all_metrics(outcome: &Outcome) -> impl Iterator<Item = &Metric> {
    outcome.end_to_end.iter().chain(&outcome.per_layer)
}

/// Non-zero when any query failed: a run with wrong answers must not pass
/// for a measurement.
pub fn exit_code(outcome: &Outcome) -> i32 {
    i32::from(outcome.ops_failed > 0)
}

fn metrics_object<'a>(metrics: impl IntoIterator<Item = &'a Metric>) -> String {
    let fields: Vec<String> = metrics
        .into_iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::string(m.name),
                json::number(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The contract's result object.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.ops_failed == 0,
        outcome.ops_attempted,
        outcome.ops_failed,
        metrics_object(result_metrics(outcome, trace))
    )
}

/// The result object of a run whose build, commit or reopen failed.
pub fn failure_line(failure: &Failure) -> String {
    format!(
        "{{\"correct\": false, \"attempted\": {0}, \"failed\": {0}, \"metrics\": {{}}}}",
        failure.ops_attempted
    )
}

/// One line of a recorded result set (`run --record FILE`, read by
/// `compare`): every metric the run has.
pub fn record_line(workload: &str, seed: u64, outcome: &Outcome, trace: bool) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"attempted\": {}, \
         \"failed\": {}, \"metrics\": {}}}",
        json::string(workload),
        u8::from(trace),
        outcome.ops_attempted,
        outcome.ops_failed,
        metrics_object(all_metrics(outcome))
    )
}

fn joined(values: &[f64]) -> String {
    values.iter().map(|v| json::number(*v)).collect::<Vec<_>>().join(" ")
}

/// The human-readable lines that precede the result object.
pub fn lines(workload: &str, seed: u64, outcome: &Outcome) -> Vec<String> {
    let mut out: Vec<String> = all_metrics(outcome)
        .map(|m| format!("{workload} {} {} {}", m.name, json::number(m.value), m.unit))
        .collect();
    out.push(format!("{workload} ops_attempted {} count", outcome.ops_attempted));
    out.push(format!("{workload} ops_failed {} count", outcome.ops_failed));
    // Drift diagnostics: when two result sets disagree, these say whether
    // the host moved (the reference kernels run the same code on every
    // commit) before the code is blamed, and whether one repeat or all of
    // them were off.
    out.push(format!("{workload} diag.seed {seed}"));
    out.push(format!("{workload} diag.query_fingerprint {:016x}", outcome.query_fingerprint));
    out.push(format!(
        "{workload} diag.host_slowness {} x (start, before serve, end)",
        joined(&outcome.host_checkpoints.iter().map(HostReading::slowness).collect::<Vec<_>>())
    ));
    for (kernel, quiet, f) in [
        ("alu", QUIET.alu_ms, (|r| r.alu_ms) as fn(&HostReading) -> f64),
        ("lut", QUIET.lut_ms, |r| r.lut_ms),
        ("copy", QUIET.copy_ms, |r| r.copy_ms),
    ] {
        out.push(format!(
            "{workload} diag.pass_ref_{kernel}_ms {} ms (quiet = {quiet})",
            joined(&outcome.pass_reading.iter().map(f).collect::<Vec<_>>())
        ));
    }
    out.push(format!("{workload} diag.pass_host_slowness {} x", joined(&outcome.pass_slowness)));
    out.push(format!(
        "{workload} diag.pass_wall_s {} s (as measured)",
        joined(&outcome.pass_wall_s)
    ));
    out.push(format!(
        "{workload} diag.pass_queries_per_s {} 1/s",
        joined(&outcome.pass_queries_per_s)
    ));
    out.push(format!(
        "{workload} diag.pass_batch_p50_ms {} ms",
        joined(&outcome.pass_batch_p50_ms)
    ));
    out.push(format!(
        "{workload} diag.pass_batch_p95_ms {} ms",
        joined(&outcome.pass_batch_p95_ms)
    ));
    out.push(format!("{workload} diag.open_s {} s", joined(&outcome.open_s)));
    out.push(format!("{workload} diag.setup_s {} s", joined(&outcome.setup_s)));
    out.push(format!(
        "{workload} diag.rss_before_build_mb {} MB ({})",
        json::number(outcome.rss_before_build_mb),
        if outcome.rss_was_reset { "mark reset" } else { "mark could not be reset" }
    ));
    if let Some(failure) = &outcome.first_failure {
        out.push(format!("{workload} diag.first_failure {failure}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::metric;

    fn outcome(failed: u64) -> Outcome {
        outcome_of(failed, false)
    }

    fn outcome_of(failed: u64, traced: bool) -> Outcome {
        Outcome {
            ops_attempted: 128,
            ops_failed: failed,
            end_to_end: vec![metric("setup_s", 0.8127, "s"), metric("open_s", 0.25, "s")],
            per_layer: if traced { vec![metric("vertical.scans", 29.0, "count")] } else { vec![] },
            host_checkpoints: vec![QUIET],
            pass_slowness: vec![1.1],
            pass_reading: vec![QUIET],
            pass_queries_per_s: vec![10.0],
            pass_batch_p50_ms: vec![6.4],
            pass_batch_p95_ms: vec![7.0],
            pass_wall_s: vec![1.6],
            open_s: vec![0.1],
            setup_s: vec![0.8127],
            rss_before_build_mb: 12.0,
            rss_was_reset: true,
            query_fingerprint: 7,
            first_failure: None,
            span_json: None,
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let doc = json::parse(&result_line(&outcome(0), false)).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(true)));
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(json::Value::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(json::Value::as_str), Some("s"));
        let traced = json::parse(&result_line(&outcome_of(0, true), true)).unwrap();
        assert!(traced.get("metrics").unwrap().get("vertical.scans").is_some());
        assert!(traced.get("metrics").unwrap().get("setup_s").is_none());
    }

    #[test]
    fn a_traced_run_records_and_prints_both_lists() {
        let traced = outcome_of(0, true);
        let record = json::parse(&record_line("w", 3, &traced, true)).unwrap();
        let metrics = record.get("metrics").unwrap();
        assert!(metrics.get("setup_s").is_some() && metrics.get("vertical.scans").is_some());
        let printed = lines("w", 3, &traced);
        assert!(printed.iter().any(|l| l.starts_with("w open_s 0.25 s")));
        assert!(printed.iter().any(|l| l.starts_with("w vertical.scans 29 count")));
    }

    #[test]
    fn failures_flip_correct_and_the_exit_code() {
        let bad = outcome(1);
        assert_eq!(exit_code(&bad), 1);
        assert_eq!(exit_code(&outcome(0)), 0);
        let doc = json::parse(&result_line(&bad, false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&json::Value::Bool(false)));
        assert_eq!(doc.get("failed").and_then(json::Value::as_f64), Some(1.0));
        let failed =
            json::parse(&failure_line(&Failure { ops_attempted: 64, message: "x".into() }));
        assert_eq!(failed.unwrap().get("failed").and_then(json::Value::as_f64), Some(64.0));
    }
}

//! `era-benchmark compare A B`: two recorded result sets against the bounds
//! of `BENCHMARK.json`.
//!
//! A result set is a file of `run --record` lines. Per workload and
//! end-to-end metric the medians of the two sets are compared; B being worse
//! than A by more than the metric's bound is a breach (with `--either-way`,
//! so is A being worse than B — the A/A gate). A pair within its bound whose
//! run-to-run spread (quartile distance over median, in either set) is wider
//! than the bound is reported as *unresolved*, not as ok: the sets cannot
//! tell a regression of that size from noise. A median that is zero or not a
//! number is a breach — a measurement that broke must not pass for one that
//! held. Count metrics are also compared run by run: the same workload and
//! seed must give the very same value in both sets. Traced runs are skipped:
//! their timings carry the recorder.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, quartile_spread};

/// Metrics that are counts made by the program, not timings: for one
/// workload and seed they repeat exactly.
const COUNT_METRICS: [&str; 2] = ["build_read_amp", "index_bytes_per_symbol"];

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` list of a `BENCHMARK.json` document.
pub fn gates(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let doc = json::parse(benchmark_json)?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("end_to_end entry without `{key}`"))
            };
            Ok(Gate {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without `bound`")?,
            })
        })
        .collect()
}

/// `workload -> metric -> (seed, value)` of the untraced runs of a set.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn result_set(lines: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (n, line) in lines.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if doc.get("trace").and_then(Value::as_f64) == Some(1.0) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let seed = doc.get("seed").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            set.entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_default()
                .push((seed, value));
        }
    }
    Ok(set)
}

/// The comparison's rows, how many of them breach and how many are
/// unresolved.
pub struct Comparison {
    pub rows: Vec<String>,
    pub breaches: usize,
    pub unresolved: usize,
}

pub fn compare(gates: &[Gate], a: &str, b: &str, either_way: bool) -> Result<Comparison, String> {
    let (a, b) = (result_set(a)?, result_set(b)?);
    let mut rows = vec![format!(
        "{:<22} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "bound", "spread A", "spread B"
    )];
    let (mut breaches, mut unresolved) = (0, 0);
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            rows.push(format!("{workload:<22} missing from B  BREACH"));
            breaches += 1;
            continue;
        };
        for gate in gates {
            let (Some(a_runs), Some(b_runs)) =
                (a_metrics.get(&gate.name), b_metrics.get(&gate.name))
            else {
                rows.push(format!("{workload:<22} {:<24} missing from a set  BREACH", gate.name));
                breaches += 1;
                continue;
            };
            let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<_>>();
            let (va, vb) = (values(a_runs), values(b_runs));
            let (ma, mb) = (median(&va), median(&vb));
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            // Positive = B is worse than A, as a share of A's median.
            let worse = if gate.higher_is_better { (ma - mb) / ma } else { (mb - ma) / ma };
            let measured = |m: f64| m.is_finite() && m > 0.0;
            let mut verdict = if !measured(ma) || !measured(mb) {
                "BREACH (a median is not a positive number)"
            } else if worse > gate.bound {
                "BREACH"
            } else if either_way && -worse > gate.bound {
                "BREACH (A worse)"
            } else if sa.max(sb) > gate.bound {
                "unresolved (spread wider than the bound)"
            } else {
                "ok"
            };
            if COUNT_METRICS.contains(&gate.name.as_str()) {
                let differs = a_runs.iter().any(|(seed, va)| {
                    b_runs.iter().any(|(sb, vb)| sb == seed && vb.to_bits() != va.to_bits())
                });
                if differs {
                    verdict = "BREACH (count differs for one seed)";
                }
            }
            breaches += usize::from(verdict.starts_with("BREACH"));
            unresolved += usize::from(verdict.starts_with("unresolved"));
            rows.push(format!(
                "{workload:<22} {:<24} {ma:>14.6} {mb:>14.6} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {verdict}",
                gate.name,
                worse * 100.0,
                gate.bound * 100.0,
                sa * 100.0,
                sb * 100.0
            ));
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        rows.push(format!("{workload:<22} missing from A  BREACH"));
        breaches += 1;
    }
    Ok(Comparison { rows, breaches, unresolved })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{"end_to_end": [
        {"name": "build_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "queries_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "build_read_amp", "unit": "bytes/symbol", "better": "lower", "bound": 0.01}]}"#;

    fn line(seed: u64, build: f64, qps: f64, amp: f64) -> String {
        format!(
            "{{\"workload\": \"w\", \"seed\": {seed}, \"trace\": 0, \"metrics\": {{\
             \"build_s\": {{\"value\": {build}, \"unit\": \"s\"}}, \
             \"queries_per_s\": {{\"value\": {qps}, \"unit\": \"1/s\"}}, \
             \"build_read_amp\": {{\"value\": {amp}, \"unit\": \"bytes/symbol\"}}}}}}\n"
        )
    }

    #[test]
    fn within_bounds_passes() {
        let gates = gates(BENCH).unwrap();
        assert_eq!(gates.len(), 3);
        let a = line(1, 10.0, 1000.0, 19.5) + &line(2, 10.4, 990.0, 19.7);
        let b = line(1, 10.9, 950.0, 19.5) + &line(2, 10.3, 940.0, 19.7);
        let cmp = compare(&gates, &a, &b, true).unwrap();
        assert_eq!(cmp.breaches, 0, "{:#?}", cmp.rows);
        assert_eq!(cmp.rows.len(), 4);
    }

    #[test]
    fn a_worse_median_breaches_in_the_bad_direction_only() {
        let gates = gates(BENCH).unwrap();
        let a = line(1, 10.0, 1000.0, 19.5);
        let slower = line(1, 11.5, 1000.0, 19.5);
        assert_eq!(compare(&gates, &a, &slower, false).unwrap().breaches, 1);
        // B faster than A: fine one way, a disagreement for the A/A gate.
        assert_eq!(compare(&gates, &slower, &a, false).unwrap().breaches, 0);
        assert_eq!(compare(&gates, &slower, &a, true).unwrap().breaches, 1);
        let fewer_queries = line(1, 10.0, 850.0, 19.5);
        assert_eq!(compare(&gates, &a, &fewer_queries, false).unwrap().breaches, 1);
    }

    #[test]
    fn counts_must_repeat_exactly_for_a_seed() {
        let gates = gates(BENCH).unwrap();
        let a = line(1, 10.0, 1000.0, 19.5);
        let b = line(1, 10.0, 1000.0, 19.500001);
        let cmp = compare(&gates, &a, &b, false).unwrap();
        assert_eq!(cmp.breaches, 1);
        assert!(cmp.rows.iter().any(|r| r.contains("count differs")));
        // Another seed may differ within the bound.
        let other_seed = line(2, 10.0, 1000.0, 19.55);
        assert_eq!(compare(&gates, &a, &other_seed, false).unwrap().breaches, 0);
    }

    #[test]
    fn a_wide_spread_is_unresolved_and_a_zero_median_breaches() {
        let gates = gates(BENCH).unwrap();
        // Build times 8..12 around 10: quartiles far wider than the 10 % bound.
        let noisy: String =
            [8.0, 9.0, 10.0, 11.0, 12.0].iter().map(|b| line(1, *b, 1000.0, 19.5)).collect();
        let cmp = compare(&gates, &noisy, &noisy, true).unwrap();
        assert_eq!((cmp.breaches, cmp.unresolved), (0, 1), "{:#?}", cmp.rows);
        assert!(cmp.rows.iter().any(|r| r.contains("build_s") && r.contains("unresolved")));
        // A measurement that read 0 in both sets: 0/0 must not pass as "ok".
        let broken = line(1, 0.0, 1000.0, 19.5);
        let cmp = compare(&gates, &broken, &broken, false).unwrap();
        assert_eq!(cmp.breaches, 1, "{:#?}", cmp.rows);
    }

    #[test]
    fn traced_lines_and_missing_workloads() {
        let gates = gates(BENCH).unwrap();
        let a = line(1, 10.0, 1000.0, 19.5);
        let traced = "{\"workload\": \"w\", \"seed\": 1, \"trace\": 1, \"metrics\": {}}\n";
        assert_eq!(compare(&gates, &a, &(a.clone() + traced), false).unwrap().breaches, 0);
        assert_eq!(compare(&gates, &a, "", false).unwrap().breaches, 1);
    }
}

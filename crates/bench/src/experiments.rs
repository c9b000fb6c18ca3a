//! One function per table / figure of the paper's evaluation (§6).
//!
//! Every experiment returns an [`ExperimentResult`] whose rows carry the
//! measured wall-clock time, I/O volume, scan count and partition count for
//! each point of the figure, plus a one-line statement of the *shape* the
//! paper reports (who wins, roughly by how much). Each experiment prints its
//! rows next to that prose `expectation`; nothing yet checks the rows against
//! it or records the outcome.

use std::time::Duration;

use era::{
    construct_shared_nothing, ConstructionPipeline, ConstructionReport, EraConfig, RangePolicy,
    SharedMemoryScheduler, SharedNothingOptions,
};
use era_baselines::{wavefront_construct_parallel, WaveFrontConfig};
use era_string_store::DiskStore;
use era_workloads::{alphabet_for, generate, DatasetKind, DatasetSpec};

use crate::runner::{bench_dir, era_config, make_disk_store, run_algorithm, Algorithm};

/// Scaling of the experiments: `base` is the reference string length in bytes
/// (the paper's figures use GBps; the ratios to memory are preserved).
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Reference string length in bytes.
    pub base: usize,
}

impl Scale {
    /// The default laptop-scale setting (1 MiB reference strings).
    pub fn full() -> Self {
        Scale { base: 1 << 20 }
    }

    /// A fast setting for CI / smoke runs (64 KiB reference strings).
    pub fn quick() -> Self {
        Scale { base: 64 << 10 }
    }
}

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct Row {
    /// Series (line) the point belongs to, e.g. "ERA" or "WaveFront".
    pub series: String,
    /// X-axis label, e.g. the string size or memory budget.
    pub x: String,
    /// Wall-clock construction time in seconds.
    pub seconds: f64,
    /// Megabytes read from the string store (and spilled structures).
    pub mb_read: f64,
    /// Number of sequential scans of the string.
    pub scans: u64,
    /// How many of them were classifying passes, one per cohort of virtual
    /// trees (0 for the baselines).
    pub cohorts: usize,
    /// Number of sub-trees (vertical partitions).
    pub partitions: usize,
    /// Free-form extra column (speed-up, sequential fraction, ...).
    pub note: String,
}

/// A regenerated table or figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Identifier, e.g. "fig10a".
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The shape the paper reports for this experiment.
    pub expectation: String,
    /// Measured rows.
    pub rows: Vec<Row>,
}

impl ExperimentResult {
    /// Renders the result as a Markdown section.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("## {} — {}\n\n", self.id, self.title));
        out.push_str(&format!("*Paper shape:* {}\n\n", self.expectation));
        out.push_str("| series | x | time (s) | MB read | scans | cohorts | sub-trees | note |\n");
        out.push_str("|---|---|---:|---:|---:|---:|---:|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {:.3} | {:.2} | {} | {} | {} | {} |\n",
                r.series, r.x, r.seconds, r.mb_read, r.scans, r.cohorts, r.partitions, r.note
            ));
        }
        out.push('\n');
        out
    }
}

fn row(series: &str, x: &str, report: &ConstructionReport, note: String) -> Row {
    Row {
        series: series.to_string(),
        x: x.to_string(),
        seconds: report.elapsed.as_secs_f64(),
        mb_read: report.io.bytes_read as f64 / (1 << 20) as f64,
        scans: report.io.full_scans,
        cohorts: report.cohorts,
        partitions: report.partitions,
        note,
    }
}

fn kb(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else {
        format!("{}KB", bytes >> 10)
    }
}

/// All experiment identifiers, in paper order.
pub fn all_experiments() -> Vec<&'static str> {
    vec![
        "table2", "fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b", "fig10a", "fig10b",
        "fig11", "fig12a", "fig12b", "table3", "fig13",
    ]
}

/// Runs one experiment by id.
pub fn run_experiment(id: &str, scale: &Scale) -> Option<ExperimentResult> {
    match id {
        "table2" => Some(table2(scale)),
        "fig7a" => Some(fig7a(scale)),
        "fig7b" => Some(fig7b(scale)),
        "fig8a" => Some(fig8(scale, DatasetKind::UniformDna, "fig8a")),
        "fig8b" => Some(fig8(scale, DatasetKind::Protein, "fig8b")),
        "fig9a" => Some(fig9a(scale)),
        "fig9b" => Some(fig9b(scale)),
        "fig10a" => Some(fig10a(scale)),
        "fig10b" => Some(fig10b(scale)),
        "fig11" => Some(fig11(scale)),
        "fig12a" => Some(fig12(scale, DatasetKind::GenomeLike, "fig12a", false)),
        "fig12b" => Some(fig12(scale, DatasetKind::UniformDna, "fig12b", true)),
        "table3" => Some(table3(scale)),
        "fig13" => Some(fig13(scale)),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Table 2 — qualitative comparison, backed by measured access patterns.
// ---------------------------------------------------------------------------

fn table2(scale: &Scale) -> ExperimentResult {
    let size = scale.base / 4;
    let budget = (size / 4).max(16 << 10);
    let spec = DatasetSpec::new(DatasetKind::GenomeLike, size, 2);
    let mut rows = Vec::new();
    for (alg, class, parallel) in [
        (Algorithm::Ukkonen, "in-memory", "no"),
        (Algorithm::Trellis, "semi-disk-based", "no"),
        (Algorithm::B2st, "out-of-core", "no"),
        (Algorithm::WaveFront, "out-of-core", "yes"),
        (Algorithm::Era, "out-of-core", "yes"),
    ] {
        let store = make_disk_store(&spec);
        let (_, report) = run_algorithm(alg, &store, budget).expect("construction succeeds");
        rows.push(row(
            &alg.label(),
            class,
            &report,
            format!("seq. fraction {:.2}, parallel: {}", report.io.sequential_fraction(), parallel),
        ));
    }
    ExperimentResult {
        id: "table2".into(),
        title: "Algorithm families and their measured string-access patterns".into(),
        expectation: "In-memory/semi-disk methods use random access; WaveFront, B2ST and ERA \
                      access the string sequentially; only WaveFront and ERA parallelise easily."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 7 — ERA-str vs ERA-str+mem.
// ---------------------------------------------------------------------------

fn fig7a(scale: &Scale) -> ExperimentResult {
    let sizes = [scale.base / 8, scale.base / 4, scale.base / 2, scale.base];
    let mut rows = Vec::new();
    for &size in &sizes {
        let budget = (size / 4).max(16 << 10);
        let spec = DatasetSpec::new(DatasetKind::UniformDna, size, 7);
        for alg in [Algorithm::EraStr, Algorithm::Era] {
            let store = make_disk_store(&spec);
            let (_, report) = run_algorithm(alg, &store, budget).expect("construction succeeds");
            let series = if alg == Algorithm::Era { "ERA-str+mem" } else { "ERA-str" };
            rows.push(row(series, &kb(size), &report, String::new()));
        }
    }
    ExperimentResult {
        id: "fig7a".into(),
        title: "Horizontal partitioning variants vs string size (DNA, memory = size/4)".into(),
        expectation: "ERA-str+mem is consistently faster than ERA-str and the gap grows with the \
                      string size."
            .into(),
        rows,
    }
}

fn fig7b(scale: &Scale) -> ExperimentResult {
    let size = scale.base / 2;
    let budgets = [size / 4, size / 2, size, 2 * size];
    let spec = DatasetSpec::new(DatasetKind::UniformDna, size, 7);
    let mut rows = Vec::new();
    for &budget in &budgets {
        for alg in [Algorithm::EraStr, Algorithm::Era] {
            let store = make_disk_store(&spec);
            let (_, report) =
                run_algorithm(alg, &store, budget.max(16 << 10)).expect("construction succeeds");
            let series = if alg == Algorithm::Era { "ERA-str+mem" } else { "ERA-str" };
            rows.push(row(series, &kb(budget), &report, String::new()));
        }
    }
    ExperimentResult {
        id: "fig7b".into(),
        title: "Horizontal partitioning variants vs memory budget (DNA)".into(),
        expectation: "Both improve with more memory; ERA-str+mem stays faster across the range."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 8 — tuning the read-ahead buffer R.
// ---------------------------------------------------------------------------

fn fig8(scale: &Scale, kind: DatasetKind, id: &str) -> ExperimentResult {
    let size = scale.base / 2;
    let budget = (size / 4).max(32 << 10);
    let r_sizes = if kind == DatasetKind::Protein {
        [budget / 32, budget / 16, budget / 8, budget / 4]
    } else {
        [budget / 64, budget / 32, budget / 16, budget / 8]
    };
    let spec = DatasetSpec::new(kind, size, 11);
    let mut rows = Vec::new();
    for &r in &r_sizes {
        let r = r.max(2 << 10);
        let store = make_disk_store(&spec);
        let config = EraConfig { r_buffer_size: Some(r), ..era_config(budget) };
        let (_, report) = era::construct(&store, &config).expect("construction succeeds");
        rows.push(row("ERA", &format!("R={}", kb(r)), &report, String::new()));
    }
    ExperimentResult {
        id: id.into(),
        title: format!("Tuning |R| ({kind:?}, memory = size/4)"),
        expectation: "Small alphabets (DNA) prefer a small R; larger alphabets (protein) need a \
                      larger R before times flatten out."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 9 — virtual trees and elastic range.
// ---------------------------------------------------------------------------

fn fig9a(scale: &Scale) -> ExperimentResult {
    let sizes = [scale.base / 4, scale.base / 2, scale.base];
    let mut rows = Vec::new();
    for &size in &sizes {
        let budget = (size / 4).max(16 << 10);
        let spec = DatasetSpec::new(DatasetKind::UniformDna, size, 3);
        for (label, grouping) in [("With grouping", true), ("Without grouping", false)] {
            let store = make_disk_store(&spec);
            let config = EraConfig { group_virtual_trees: grouping, ..era_config(budget) };
            let (_, report) = era::construct(&store, &config).expect("construction succeeds");
            rows.push(row(label, &kb(size), &report, format!("{} groups", report.virtual_trees)));
        }
    }
    ExperimentResult {
        id: "fig9a".into(),
        title: "Effect of virtual trees (grouping) — DNA, memory = size/4".into(),
        expectation: "Grouping sub-trees into virtual trees is at least ~23% faster because \
                      scans of S are shared. (Here both series share the occurrence pass \
                      across a cohort, so what the figure isolates is the sharing of \
                      SubTreePrepare's passes alone, not of the occurrence pass as in the paper.)"
            .into(),
        rows,
    }
}

fn fig9b(scale: &Scale) -> ExperimentResult {
    let sizes = [scale.base / 4, scale.base / 2, scale.base];
    let mut rows = Vec::new();
    for &size in &sizes {
        let budget = (size / 4).max(16 << 10);
        let spec = DatasetSpec::new(DatasetKind::GenomeLike, size, 5);
        for (label, policy) in [
            ("Elastic range", RangePolicy::Elastic),
            ("32 symbols", RangePolicy::Fixed(32)),
            ("16 symbols", RangePolicy::Fixed(16)),
        ] {
            let store = make_disk_store(&spec);
            let config = EraConfig { range_policy: policy, ..era_config(budget) };
            let (_, report) = era::construct(&store, &config).expect("construction succeeds");
            rows.push(row(label, &kb(size), &report, String::new()));
        }
    }
    ExperimentResult {
        id: "fig9b".into(),
        title: "Elastic range vs static ranges — genome-like DNA, memory = size/4".into(),
        expectation: "The elastic range beats both static settings (46%–240% in the paper) and \
                      its advantage grows with the string length."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 10 — ERA vs WaveFront vs B2ST vs Trellis.
// ---------------------------------------------------------------------------

fn fig10a(scale: &Scale) -> ExperimentResult {
    let size = scale.base / 2;
    let spec = DatasetSpec::new(DatasetKind::GenomeLike, size, 13);
    let budgets = [size / 8, size / 4, size / 2, size, 2 * size];
    let mut rows = Vec::new();
    for &budget in &budgets {
        let budget = budget.max(16 << 10);
        for alg in [Algorithm::WaveFront, Algorithm::B2st, Algorithm::Trellis, Algorithm::Era] {
            let store = make_disk_store(&spec);
            let (_, report) = run_algorithm(alg, &store, budget).expect("construction succeeds");
            rows.push(row(&alg.label(), &kb(budget), &report, String::new()));
        }
    }
    ExperimentResult {
        id: "fig10a".into(),
        title: "Construction time vs memory budget (genome-like string)".into(),
        expectation: "ERA is roughly twice as fast as the best competitor whenever the string is \
                      larger than the memory budget; WaveFront degrades sharply at small budgets; \
                      Trellis only competes once everything fits in memory."
            .into(),
        rows,
    }
}

fn fig10b(scale: &Scale) -> ExperimentResult {
    let sizes = [scale.base / 4, scale.base / 2, scale.base];
    let mut rows = Vec::new();
    for &size in &sizes {
        let budget = (size / 4).max(16 << 10);
        let spec = DatasetSpec::new(DatasetKind::UniformDna, size, 17);
        for alg in [Algorithm::WaveFront, Algorithm::B2st, Algorithm::Era] {
            let store = make_disk_store(&spec);
            let (_, report) = run_algorithm(alg, &store, budget).expect("construction succeeds");
            rows.push(row(&alg.label(), &kb(size), &report, String::new()));
        }
    }
    ExperimentResult {
        id: "fig10b".into(),
        title: "Construction time vs string size (DNA, memory = size/4)".into(),
        expectation: "ERA is at least twice as fast as WaveFront and B2ST, and the gap to \
                      WaveFront widens for longer strings."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 11 — alphabets.
// ---------------------------------------------------------------------------

fn fig11(scale: &Scale) -> ExperimentResult {
    let sizes = [scale.base / 4, scale.base / 2];
    let kinds = [
        (DatasetKind::UniformDna, "DNA"),
        (DatasetKind::Protein, "Protein"),
        (DatasetKind::English, "English"),
    ];
    let mut rows = Vec::new();
    for &size in &sizes {
        let budget = (size / 4).max(16 << 10);
        for &(kind, name) in &kinds {
            let spec = DatasetSpec::new(kind, size, 23);
            for alg in [Algorithm::Era, Algorithm::WaveFront] {
                let store = make_disk_store(&spec);
                let (_, report) =
                    run_algorithm(alg, &store, budget).expect("construction succeeds");
                rows.push(row(
                    &format!("{} {}", alg.label(), name),
                    &kb(size),
                    &report,
                    String::new(),
                ));
            }
        }
    }
    ExperimentResult {
        id: "fig11".into(),
        title: "Effect of the alphabet size (DNA 4, protein 20, English 26 symbols)".into(),
        expectation: "ERA processes DNA ~20% faster than protein/English and is affected far \
                      less by the alphabet than WaveFront, whose per-node traversals suffer from \
                      the larger branch factor."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Figure 12 — shared-memory / shared-disk scalability.
// ---------------------------------------------------------------------------

/// One shared-memory run with `config.threads` workers. The scheduler is named
/// through the pipeline so that the one-core baseline row runs the same
/// scheduler as the rows it is compared with (`era::construct` would pick the
/// serial one for a single thread).
fn construct_sm(store: &DiskStore, config: &EraConfig) -> ConstructionReport {
    let scheduler = SharedMemoryScheduler::new(store, config.threads);
    ConstructionPipeline::new(config).run(&scheduler).expect("construction").1
}

fn fig12(scale: &Scale, kind: DatasetKind, id: &str, vary_seek: bool) -> ExperimentResult {
    let size = scale.base;
    let budget = (size / 2).max(32 << 10);
    let spec = DatasetSpec::new(kind, size, 29);
    let threads = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    let mut era_base = None;
    for &t in &threads {
        // ERA (seek optimisation on unless this is the seek-comparison figure).
        let store = make_disk_store(&spec);
        let config = EraConfig { threads: t, seek_optimization: !vary_seek, ..era_config(budget) };
        let report = construct_sm(&store, &config);
        if t == 1 {
            era_base = Some(report.elapsed);
        }
        let speedup =
            era_base.map(|b| b.as_secs_f64() / report.elapsed.as_secs_f64()).unwrap_or(1.0);
        let label = if vary_seek { "ERA-No Seek" } else { "ERA" };
        rows.push(row(label, &format!("{t} cores"), &report, format!("speed-up {speedup:.2}x")));

        if vary_seek {
            let store = make_disk_store(&spec);
            let config = EraConfig { threads: t, seek_optimization: true, ..era_config(budget) };
            let report = construct_sm(&store, &config);
            rows.push(row("ERA-With Seek", &format!("{t} cores"), &report, String::new()));
        }

        // PWaveFront for comparison.
        let store = make_disk_store(&spec);
        let (_, wf) = wavefront_construct_parallel(
            &store,
            &WaveFrontConfig { memory_budget: budget, threads: t, ..WaveFrontConfig::default() },
        )
        .expect("construction");
        rows.push(row("PWaveFront", &format!("{t} cores"), &wf, String::new()));
    }
    ExperimentResult {
        id: id.into(),
        title: format!("Shared-memory strong scalability ({kind:?}), total memory fixed"),
        expectation: "ERA stays at least ~1.5x faster than PWaveFront; scaling flattens once \
                      per-core memory becomes small (interference on the shared string); the \
                      seek optimisation helps with few cores but hurts with many."
            .into(),
        rows,
    }
}

// ---------------------------------------------------------------------------
// Table 3 + Figure 13 — shared-nothing scalability.
// ---------------------------------------------------------------------------

fn make_node_stores(spec: &DatasetSpec, nodes: usize) -> Vec<DiskStore> {
    let body = generate(spec);
    let alphabet = alphabet_for(spec.kind);
    let dir = bench_dir();
    let path = dir.join(format!("{}-shared-{}.era", spec.tag(), spec.seed));
    if !path.exists() {
        let mut text = body.clone();
        text.push(0);
        std::fs::write(&path, &text).expect("write dataset");
    }
    (0..nodes)
        .map(|_| DiskStore::open(&path, alphabet.clone(), 64 << 10).expect("open dataset"))
        .collect()
}

fn table3(scale: &Scale) -> ExperimentResult {
    let size = scale.base;
    let spec = DatasetSpec::new(DatasetKind::GenomeLike, size, 31);
    let per_node_budget = (size / 4).max(32 << 10);
    let nodes_list = [1usize, 2, 4, 8, 16];
    let mut rows = Vec::new();
    let mut era_base: Option<Duration> = None;
    for &nodes in &nodes_list {
        let stores = make_node_stores(&spec, nodes);
        let config = era_config(per_node_budget);
        let options = SharedNothingOptions { transfer_bandwidth: Some(64.0 * (1 << 20) as f64) };
        let (_, report) =
            construct_shared_nothing(&stores, &config, &options).expect("construction");
        let makespan = report.makespan();
        if nodes == 1 {
            era_base = Some(makespan);
        }
        let speedup = era_base
            .map(|b| b.as_secs_f64() / makespan.as_secs_f64() / nodes as f64)
            .unwrap_or(1.0);
        rows.push(Row {
            series: "ERA shared-nothing".into(),
            x: format!("{nodes} CPUs"),
            seconds: makespan.as_secs_f64(),
            mb_read: report.io.bytes_read as f64 / (1 << 20) as f64,
            scans: report.io.full_scans,
            cohorts: report.cohorts,
            partitions: report.partitions,
            note: format!(
                "relative speed-up {:.2}, transfer {:.2}s",
                speedup,
                report.string_transfer.as_secs_f64()
            ),
        });

        // WaveFront comparison (PWaveFront over the same number of workers).
        let store = make_disk_store(&spec);
        let (_, wf) = wavefront_construct_parallel(
            &store,
            &WaveFrontConfig {
                memory_budget: per_node_budget,
                threads: nodes,
                ..WaveFrontConfig::default()
            },
        )
        .expect("construction");
        rows.push(row("PWaveFront", &format!("{nodes} CPUs"), &wf, String::new()));
    }
    ExperimentResult {
        id: "table3".into(),
        title: "Shared-nothing strong scalability (genome-like string, fixed per-node memory)"
            .into(),
        expectation: "ERA is ~3x faster than WaveFront at every node count and its speed-up stays \
                      close to the optimum (load balance is good because groups are independent)."
            .into(),
        rows,
    }
}

fn fig13(scale: &Scale) -> ExperimentResult {
    let per_node = (scale.base / 8).max(2 << 10);
    let nodes_list = [1usize, 2, 4, 8, 16];
    // Weak scaling: the per-node memory stays fixed (a small multiple of the
    // per-node string share) while the total string grows with the node count.
    let per_node_budget = (per_node * 2).max(16 << 10);
    let mut rows = Vec::new();
    for &nodes in &nodes_list {
        let size = per_node * nodes;
        let spec = DatasetSpec::new(DatasetKind::UniformDna, size, 37);
        let stores = make_node_stores(&spec, nodes);
        let config = era_config(per_node_budget);
        let options = SharedNothingOptions { transfer_bandwidth: None };
        let (_, report) =
            construct_shared_nothing(&stores, &config, &options).expect("construction");
        rows.push(Row {
            series: "ERA".into(),
            x: format!("{nodes} nodes / {}", kb(size)),
            seconds: report.makespan().as_secs_f64(),
            mb_read: report.io.bytes_read as f64 / (1 << 20) as f64,
            scans: report.io.full_scans,
            cohorts: report.cohorts,
            partitions: report.partitions,
            note: String::new(),
        });

        let store = make_disk_store(&spec);
        let (_, wf) = wavefront_construct_parallel(
            &store,
            &WaveFrontConfig {
                memory_budget: per_node_budget,
                threads: nodes,
                ..WaveFrontConfig::default()
            },
        )
        .expect("construction");
        rows.push(row("WaveFront", &format!("{nodes} nodes / {}", kb(size)), &wf, String::new()));
    }
    ExperimentResult {
        id: "fig13".into(),
        title: "Shared-nothing weak scalability (string grows with the node count)".into(),
        expectation: "Construction time grows linearly with the number of nodes for both systems \
                      (each node must still scan the whole, growing string), but ERA's slope is \
                      much flatter — at 16 nodes it is ~2.5x faster than WaveFront."
            .into(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every experiment must run end-to-end at a tiny scale.
    #[test]
    fn all_experiments_run_at_tiny_scale() {
        let scale = Scale { base: 4 << 10 };
        for id in all_experiments() {
            let result = run_experiment(id, &scale).expect("known id");
            assert!(!result.rows.is_empty(), "{id} produced no rows");
            let md = result.to_markdown();
            assert!(md.contains(&result.title));
        }
    }

    #[test]
    fn unknown_experiment_is_none() {
        assert!(run_experiment("fig99", &Scale::quick()).is_none());
    }
}

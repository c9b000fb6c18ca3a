//! The per-layer metrics of a traced run.
//!
//! Two kinds: **S** metrics are read from what the product already reports
//! (`ConstructionReport`, `QueryStats`) about the pipeline's own build and
//! serving passes; **P** metrics are probes — a timed call into one layer's
//! public function on the workload's own data, bracketed by a span. Which
//! end-to-end metric each one should move, and on which workload, is tabled
//! in `README.md`.

use std::path::Path;
use std::time::Duration;

use crate::machine::HostReading;
use crate::oracle::{Op, OpKind, QuerySet};
use crate::pipeline::{median_over_passes as over_passes, metric, Metric, Pass, Phases};
use crate::product::{self, Index, Res};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workload::{Workload, BATCH_QUERIES};

/// Groups the horizontal-phase probes sample from `vertical_partition`.
const SAMPLED_GROUPS: usize = 5;
/// Repetitions of a cheap whole-text probe; the median is reported.
const PASS_REPS: usize = 3;
/// Patterns the routing and descent probes walk.
const PATTERN_SAMPLE: usize = 1 << 16;
/// Batches per query kind, and for the engine-self-time probe.
const KIND_BATCHES: usize = 128;
/// Queries per batch of the two-thread pool probe, and how many batches.
const POOL_BATCH_QUERIES: usize = 1024;
const POOL_BATCHES: usize = 16;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Probes that need the freshly built index: `catalog.encode_s`.
pub fn built_index(rec: &mut Recorder, index: &Index, out: &mut Vec<Metric>) -> Res<()> {
    let (encoded, took) = rec.time("catalog.encode", || product::encode_index(index));
    encoded?;
    out.push(metric("catalog.encode_s", took.as_secs_f64(), "s"));
    Ok(())
}

/// The steps of `open_file_with`, one by one, on the committed catalog.
pub fn catalog(rec: &mut Recorder, path: &Path, text_len: usize, out: &mut Vec<Metric>) -> Res<()> {
    let (bytes, read) = rec.time("catalog.read", || std::fs::read(path));
    let bytes = bytes.map_err(|e| e.to_string())?;
    let (parsed, parse) = rec.time("catalog.parse", || product::parse_image(&bytes));
    let parsed = parsed?;
    let (validated, validate) = rec.time("catalog.validate", || parsed.validate_groups());
    validated?;
    let (restored, restore) = rec.time("catalog.text_restore", || parsed.restore_packed_text());
    let was_packed = restored?;
    let symbols = text_len as f64;
    let text_bytes = parsed.text_bytes();
    out.extend([
        metric("catalog.read_s", read.as_secs_f64(), "s"),
        metric("catalog.parse_s", parse.as_secs_f64(), "s"),
        metric("catalog.validate_s", validate.as_secs_f64(), "s"),
        metric("catalog.text_restore_s", if was_packed { restore.as_secs_f64() } else { 0.0 }, "s"),
        metric("catalog.text_bytes_per_symbol", text_bytes as f64 / symbols, "bytes/symbol"),
        metric(
            "catalog.tree_bytes_per_symbol",
            (bytes.len() - text_bytes) as f64 / symbols,
            "bytes/symbol",
        ),
    ]);
    Ok(())
}

/// The layers a build is made of, each called on its own on the workload's
/// build store: read + decode, pack, vertical partitioning's groups, the
/// occurrence scan, `SubTreePrepare`, `BuildSubTree`, freeze.
pub fn build_layers(
    rec: &mut Recorder,
    text_path: &Path,
    work_dir: &Path,
    w: &Workload,
    text: &[u8],
    out: &mut Vec<Metric>,
) -> Res<()> {
    let packed_path = work_dir.join("probe.packed");
    let (store, opened) = rec.time("string_store.open_build_store", || {
        product::open_build_store(text_path, &packed_path, w)
    });
    let store = store?;
    out.push(metric("string_store.pack_s", if w.packed { opened.as_secs_f64() } else { 0.0 }, "s"));

    let mut scan_ms = Vec::new();
    for _ in 0..PASS_REPS {
        let (seen, took) = rec.time("string_store.scan_pass", || store.scan_pass());
        if seen? != text.len() {
            return Err("scan pass did not cover the text".to_string());
        }
        scan_ms.push(ms(took));
    }
    let scan_pass_ms = median(&scan_ms);
    out.push(metric("string_store.scan_pass_ms", scan_pass_ms, "ms"));

    let mut unpack_msym_per_s = 0.0;
    if w.packed {
        let payload = product::pack_payload(w.text, &text[..text.len() - 1])?;
        let mut decoded = Vec::new();
        let mut rates = Vec::new();
        for _ in 0..PASS_REPS {
            let (symbols, took) =
                rec.time("string_store.unpack", || payload.unpack_into(&mut decoded));
            rates.push(symbols as f64 / 1e6 / took.as_secs_f64());
        }
        if decoded[..] != text[..text.len() - 1] {
            return Err("unpack did not restore the text".to_string());
        }
        unpack_msym_per_s = median(&rates);
    }
    out.push(metric("string_store.unpack_msym_per_s", unpack_msym_per_s, "Msym/s"));

    let (groups, _) = rec.time("vertical.partition", || product::vertical_groups(&store, w));
    let mut groups = groups?;
    groups.sort_by_key(|g| std::cmp::Reverse(g.frequency()));
    let sampled = SAMPLED_GROUPS.min(groups.len());
    let (mut occurrence_ms, mut prepare_ms, mut build_ms, mut freeze_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..sampled {
        // Evenly by frequency rank: the 10th, 30th, … 90th percentile group.
        let group = &groups[(2 * i + 1) * groups.len() / (2 * sampled)];
        let span = rec.open("horizontal.group");
        let (occ, took) =
            rec.time("scan.collect_occurrences", || product::occurrence_pass(&store, group));
        let occ = occ?;
        occurrence_ms.push(ms(took));
        let (prepared, took) =
            rec.time("horizontal.prepare_group", || product::prepare(&store, w, group, &occ));
        let prepared = prepared?;
        prepare_ms.push(ms(took));
        let (partitions, took) =
            rec.time("horizontal.build_partition", || product::build_partitions(&store, &prepared));
        build_ms.push(ms(took));
        let (_, took) = rec.time("layout.freeze", || partitions.freeze());
        freeze_ms.push(ms(took));
        rec.close(span);
    }
    let occurrence_pass_ms = median(&occurrence_ms);
    out.extend([
        metric("scan.occurrence_pass_ms", occurrence_pass_ms, "ms"),
        metric("scan.occurrence_self_ms", occurrence_pass_ms - scan_pass_ms, "ms"),
        metric("horizontal.prepare_group_ms", median(&prepare_ms), "ms"),
        metric("horizontal.build_partition_ms", median(&build_ms), "ms"),
        metric("layout.freeze_ms", median(&freeze_ms), "ms"),
    ]);
    Ok(())
}

/// The layers a served batch passes through, each called on its own on the
/// reopened index and the workload's query set.
pub fn serving(
    rec: &mut Recorder,
    index: &Index,
    text: &[u8],
    queries: &QuerySet,
    out: &mut Vec<Metric>,
) -> Res<()> {
    let ops = &queries.ops;
    let sample = &ops[..PATTERN_SAMPLE.min(ops.len())];

    let (routed, took) = rec.time("partitioned.route", || {
        sample.iter().map(|op| index.route(&op.pattern)).sum::<usize>()
    });
    std::hint::black_box(routed);
    out.push(metric("partitioned.route_ns", took.as_secs_f64() * 1e9 / sample.len() as f64, "ns"));

    let (found, took) = rec.time("layout.descent", || {
        sample.iter().map(|op| index.descend(text, &op.pattern)).collect::<Res<Vec<bool>>>()
    });
    std::hint::black_box(found?);
    out.push(metric("layout.descent_ns", took.as_secs_f64() * 1e9 / sample.len() as f64, "ns"));

    // One query kind at a time, so a gain for one that costs another shows.
    let kind_ops = &ops[..(KIND_BATCHES * BATCH_QUERIES).min(ops.len())];
    for (name, span, kind) in [
        ("query.count_us", "query.count", OpKind::Count),
        ("query.contains_us", "query.contains", OpKind::Contains),
        ("query.locate_us", "query.locate", OpKind::LocatePage),
    ] {
        let same_kind: Vec<Op> =
            kind_ops.iter().map(|op| Op { kind, pattern: op.pattern.clone() }).collect();
        let batches: Vec<product::Batch> =
            same_kind.chunks(BATCH_QUERIES).map(product::batch).collect();
        let (served, took) = rec.time(span, || {
            batches
                .iter()
                .try_for_each(|b| index.serve(b).map(|reply| drop(std::hint::black_box(reply))))
        });
        served?;
        out.push(metric(name, took.as_secs_f64() * 1e6 / same_kind.len() as f64, "us"));
    }

    // Engine self time: a batch through the engine against the same ops
    // answered by direct tree calls. Which goes first alternates, because
    // the second one finds the first one's blocks in the cache.
    let mut self_us = Vec::new();
    for (b, batch_ops) in kind_ops.chunks(BATCH_QUERIES).enumerate() {
        let batch = product::batch(batch_ops);
        let mut engine = Duration::ZERO;
        let mut direct = Duration::ZERO;
        for engine_turn in [b % 2 == 0, b % 2 == 1] {
            if engine_turn {
                let (reply, took) = rec.time("query.engine_batch", || index.serve(&batch));
                reply?;
                engine = took;
            } else {
                let (answers, took) =
                    rec.time("query.direct_batch", || index.answer_directly(batch_ops));
                let lo = b * BATCH_QUERIES;
                if answers? != queries.expected[lo..lo + batch_ops.len()] {
                    return Err(format!("direct tree calls disagree with the oracle in batch {b}"));
                }
                direct = took;
            }
        }
        self_us.push((engine.as_secs_f64() - direct.as_secs_f64()) * 1e6);
    }
    out.push(metric("query.engine_self_us_per_batch", median(&self_us), "us"));

    // The worker pool: large batches on one thread against two.
    let pool_ops = &ops[..(POOL_BATCHES * POOL_BATCH_QUERIES).min(ops.len())];
    let (mut one, mut two) = (Duration::ZERO, Duration::ZERO);
    for (b, chunk) in pool_ops.chunks(POOL_BATCH_QUERIES).enumerate() {
        let batch = product::batch(chunk);
        for threads in if b % 2 == 0 { [1, 2] } else { [2, 1] } {
            let (reply, took) =
                rec.time("query.pool_batch", || index.serve_with_threads(&batch, threads));
            reply?;
            *(if threads == 1 { &mut one } else { &mut two }) += took;
        }
    }
    out.push(metric("query.pool_x2_speedup", one.as_secs_f64() / two.as_secs_f64(), "x"));

    let blocks = 256;
    let rounds = 64;
    let cache = product::warm_cache(blocks);
    let (hits, took) = rec.time("block_cache.get", || cache.get_all(rounds));
    if hits != blocks * rounds as u64 {
        return Err(format!(
            "{hits} hits for {} lookups of resident blocks",
            blocks * rounds as u64
        ));
    }
    out.push(metric("block_cache.get_hit_ns", took.as_secs_f64() * 1e9 / hits as f64, "ns"));
    Ok(())
}

/// The S metrics: what the product's own reports say about the pipeline's
/// build and about its last measured serving pass, plus the figures of the
/// run that are reported but not gated (as measured, where they are timings
/// the end-to-end metrics do not already carry at quiet-host speed).
pub fn from_phases(p: &Phases, w: &Workload, out: &mut Vec<Metric>) {
    let b = &p.build;
    let symbols = b.text_len as f64;
    let groups = b.groups.max(1) as f64;
    let horizontal_scans = b.full_scans.saturating_sub(b.vertical_scans as u64) as f64;
    let busy: f64 = b.worker_busy_s.iter().sum();
    let (busy_fraction, imbalance) = if b.worker_busy_s.is_empty() {
        (0.0, 0.0)
    } else {
        let workers = b.worker_busy_s.len() as f64;
        let slowest = b.worker_busy_s.iter().copied().fold(0.0, f64::max);
        (busy / (workers * b.horizontal_s), slowest / (busy / workers))
    };
    out.extend([
        metric("workloads.generate_s", p.raw_generate_s, "s"),
        metric("suffix_array.oracle_s", p.raw_oracle_s, "s"),
        metric("string_store.build_bytes_read", b.bytes_read as f64, "bytes"),
        metric("string_store.build_full_scans", b.full_scans as f64, "count"),
        metric("string_store.build_blocks_skipped", b.blocks_skipped as f64, "count"),
        metric("string_store.build_seq_fraction", b.sequential_fraction, "fraction"),
        metric("vertical.partition_s", b.vertical_s, "s"),
        metric("vertical.scans", b.vertical_scans as f64, "count"),
        metric("vertical.partitions", b.partitions as f64, "count"),
        metric("vertical.groups", b.groups as f64, "count"),
        metric("horizontal.total_s", b.horizontal_s, "s"),
        metric("horizontal.scans_per_group", horizontal_scans / groups, "count"),
        metric("layout.bytes_per_node", b.arena_bytes as f64 / b.nodes.max(1) as f64, "bytes"),
        metric("layout.nodes_per_symbol", b.nodes as f64 / symbols, "count"),
        metric("pipeline.worker_busy_fraction", busy_fraction, "fraction"),
        metric("pipeline.worker_imbalance", imbalance, "x"),
        metric(
            "pipeline.rss_over_budget",
            p.peak_rss_mb * (1 << 20) as f64 / w.memory_budget as f64,
            "x",
        ),
        metric("index.save_s", p.raw_save_s, "s"),
    ]);

    let last = p.passes.last().expect("at least one measured pass");
    let queries = (last.batch_ms.len() * BATCH_QUERIES) as f64;
    let c = &last.counters;
    let lookups = (c.cache_hits + c.cache_misses) as f64;
    out.extend([
        metric("query.partition_visits_per_query", c.partition_visits as f64 / queries, "count"),
        metric(
            "block_cache.hit_rate",
            if lookups > 0.0 { c.cache_hits as f64 / lookups } else { 0.0 },
            "fraction",
        ),
        metric("block_cache.evictions_per_query", c.cache_evictions as f64 / queries, "count"),
        metric(
            "block_cache.decoded_bytes_per_query",
            c.cache_decoded_bytes as f64 / queries,
            "bytes",
        ),
        metric("string_store.serve_bytes_per_query", c.store_bytes_read as f64 / queries, "bytes"),
        metric("serve.first_pass_s", p.warmup.wall_s, "s"),
        metric("serve.batch_p99_ms", over_passes(&p.passes, |x| x.batch_percentile(0.99)), "ms"),
        metric("serve.batch_max_ms", over_passes(&p.passes, |x| x.batch_percentile(1.0)), "ms"),
        metric("trace.overhead_pct", trace_overhead_pct(p), "%"),
    ]);

    // No readings in `selfcheck`, which switches the host reference off.
    let over_readings = |f: &dyn Fn(&HostReading) -> f64| {
        if p.readings.is_empty() {
            0.0
        } else {
            median(&p.readings.iter().map(f).collect::<Vec<_>>())
        }
    };
    out.extend([
        metric("machine.ref_alu_ms", over_readings(&|r| r.alu_ms), "ms"),
        metric("machine.ref_lut_ms", over_readings(&|r| r.lut_ms), "ms"),
        metric("machine.ref_copy_ms", over_readings(&|r| r.copy_ms), "ms"),
        metric("machine.host_slowness", over_readings(&HostReading::slowness), "x"),
    ]);
}

/// What recording spans costs, as a share of build + one serving pass. The
/// build is bracketed by a single span (two clock reads), so the serving
/// loop — one span per batch — is the only place the recorder can cost
/// anything: the traced passes are compared with the untraced passes they
/// alternate with (both at quiet-host speed). 0 when there are no traced
/// passes (an untraced run).
fn trace_overhead_pct(p: &Phases) -> f64 {
    let quiet_wall_s = |x: &Pass| x.wall_s / x.mean_slowness();
    let traced: Vec<f64> = p.passes.iter().filter(|x| x.traced).map(quiet_wall_s).collect();
    if traced.is_empty() {
        return 0.0;
    }
    let untraced = over_passes(&p.passes, quiet_wall_s);
    100.0 * (median(&traced) - untraced) / (p.raw_build_s + untraced)
}

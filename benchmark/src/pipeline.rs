//! The pipeline every workload runs: set-up → build → commit → set-up →
//! reopen → serve → verify.
//!
//! The phases run once in that order; the *repeats* of the set-up and of the
//! reopen (their metrics are medians) run between the serving passes, so the
//! samples of every repeated metric are spread over the seconds after the
//! build instead of sitting back to back.
//!
//! Every timing but the build's is divided by the host's slowness, read from
//! the host reference (`machine::HostRef`) right around it: before and after
//! every step of the set-up and every reopen, and every 1/32 of a serving
//! pass. The build is one product call that nothing can be interleaved with;
//! `build_s` is its wall time as measured.
//!
//! One call is one workload run in one process. The untraced run yields the
//! end-to-end metrics; the traced run repeats the pipeline with the span
//! recorder on and the per-layer probes (`probes.rs`) hooked in between the
//! phases, and yields the per-layer metrics as well.

use std::path::{Path, PathBuf};

use crate::machine::{self, HostReading, HostRef};
use crate::oracle::{self, Answer, QuerySet};
use crate::probes;
use crate::product::{self, BuildCounters, Index, Response, ServeCounters};
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use crate::workload::{Workload, BATCH_QUERIES};

/// How a run is carried out — everything that is not the workload itself.
#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Seconds of measured serving: passes are added until their wall time
    /// reaches it (never fewer than `min_passes`). Everything else a run does
    /// is fixed work.
    pub seconds: f64,
    pub trace: bool,
    /// Times the set-up is carried out; `setup_s` is the median.
    pub setup_reps: usize,
    /// Times the catalog is reopened; `open_s` is the median.
    pub open_reps: usize,
    /// Measured serving passes that run whatever `seconds` says.
    pub min_passes: usize,
    /// Read the host reference and normalise by it (off in `selfcheck`,
    /// whose phases are too short to bracket: every slowness is then 1).
    pub host_ref: bool,
    /// Directory for `text.seq` and `index.eracat`.
    pub work_dir: PathBuf,
    /// Test hook: corrupt one expected answer, so one served answer must be
    /// reported as failed.
    pub plant_wrong_answer: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result of one workload run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Queries of the query set.
    pub ops_attempted: u64,
    /// Queries that returned `Err` in any pass, or differed from the oracle
    /// in a verified pass (the warm-up pass and the last pass).
    pub ops_failed: u64,
    /// The nine end-to-end metrics, in `BENCHMARK.json` order.
    pub end_to_end: Vec<Metric>,
    /// Empty for an untraced run.
    pub per_layer: Vec<Metric>,
    /// The host reference at start, before serve and at end.
    pub host_checkpoints: Vec<HostReading>,
    /// Of every measured pass, in order: the host's mean slowness and mean
    /// reading, and `queries_per_s`, batch p50 and batch p95 at quiet-host
    /// speed.
    pub pass_slowness: Vec<f64>,
    pub pass_reading: Vec<HostReading>,
    pub pass_queries_per_s: Vec<f64>,
    pub pass_batch_p50_ms: Vec<f64>,
    pub pass_batch_p95_ms: Vec<f64>,
    /// Wall seconds of every measured pass, as measured.
    pub pass_wall_s: Vec<f64>,
    /// Seconds of every reopen and of every set-up at quiet-host speed.
    pub open_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// `VmHWM` right before the build, and whether it had just been reset to
    /// the resident set of that moment.
    pub rss_before_build_mb: f64,
    pub rss_was_reset: bool,
    /// FNV-1a over the query set and its expected answers.
    pub query_fingerprint: u64,
    pub first_failure: Option<String>,
    /// The recorded spans as one JSON document (traced runs only).
    pub span_json: Option<String>,
}

/// A phase failed before any query could be served: every query of the run
/// counts as attempted and failed.
#[derive(Debug, Clone)]
pub struct Failure {
    pub ops_attempted: u64,
    pub message: String,
}

/// Host readings are taken this many times per serving pass, evenly spaced
/// (one more closes the last stretch): about every 50 ms.
const READINGS_PER_PASS: usize = 32;

/// Timings of one serving pass.
pub struct Pass {
    /// Wall time of the pass without the host readings taken inside it.
    pub wall_s: f64,
    /// Every batch's latency, as measured.
    pub batch_ms: Vec<f64>,
    /// The host's slowness over each stretch of `stretch` batches: the mean
    /// of the readings before and after it. All 1 without a host reference.
    pub slowness: Vec<f64>,
    /// The host readings taken during the pass (none without a reference).
    pub readings: Vec<HostReading>,
    pub stretch: usize,
    pub counters: ServeCounters,
    pub traced: bool,
}

impl Pass {
    /// Every batch's latency at quiet-host speed, in ms.
    pub fn quiet_batch_ms(&self) -> Vec<f64> {
        self.batch_ms
            .iter()
            .enumerate()
            .map(|(i, ms)| ms / self.slowness[i / self.stretch])
            .collect()
    }

    /// Queries over the time their batches took at quiet-host speed.
    pub fn queries_per_s(&self) -> f64 {
        let quiet_s = self.quiet_batch_ms().iter().sum::<f64>() / 1e3;
        (self.batch_ms.len() * BATCH_QUERIES) as f64 / quiet_s
    }

    /// The `q`-quantile of the batch latencies at quiet-host speed, in ms.
    pub fn batch_percentile(&self, q: f64) -> f64 {
        percentile(&mut self.quiet_batch_ms(), q)
    }

    pub fn mean_slowness(&self) -> f64 {
        self.slowness.iter().sum::<f64>() / self.slowness.len() as f64
    }

    /// The mean of the pass's host readings, kernel by kernel (the quiet
    /// reading without a reference).
    pub fn mean_reading(&self) -> HostReading {
        if self.readings.is_empty() {
            return machine::QUIET;
        }
        let mean = |f: fn(&HostReading) -> f64| {
            self.readings.iter().map(f).sum::<f64>() / self.readings.len() as f64
        };
        HostReading {
            alu_ms: mean(|r| r.alu_ms),
            lut_ms: mean(|r| r.lut_ms),
            copy_ms: mean(|r| r.copy_ms),
        }
    }
}

/// Everything the phases produced that metrics are derived from. Timings are
/// at quiet-host speed unless they say `raw`.
pub struct Phases {
    pub raw_generate_s: f64,
    pub raw_oracle_s: f64,
    pub setup_s: Vec<f64>,
    pub raw_build_s: f64,
    pub build: BuildCounters,
    pub peak_rss_mb: f64,
    pub raw_save_s: f64,
    pub catalog_bytes: u64,
    pub open_s: Vec<f64>,
    pub warmup: Pass,
    pub passes: Vec<Pass>,
    /// Every host reading of the run.
    pub readings: Vec<HostReading>,
}

/// The host reference of a run, or nothing when it is switched off; keeps
/// every reading for the diagnostics.
struct Host {
    reference: Option<HostRef>,
    readings: Vec<HostReading>,
}

impl Host {
    fn read(&mut self) -> f64 {
        match &mut self.reference {
            None => 1.0,
            Some(reference) => {
                let reading = reference.read();
                self.readings.push(reading);
                reading.slowness()
            }
        }
    }

    /// Runs `f` between two readings; returns its result and its wall time
    /// divided by the mean of the two.
    fn quiet<T>(&mut self, f: impl FnOnce() -> (T, f64)) -> (T, f64) {
        let before = self.read();
        let (value, seconds) = f();
        let after = self.read();
        (value, seconds / ((before + after) / 2.0))
    }

    fn checkpoint(&mut self, checkpoints: &mut Vec<HostReading>) {
        if self.reference.is_some() {
            self.read();
            checkpoints.extend(self.readings.last());
        }
    }
}

pub fn run(w: &Workload, opt: &Options) -> Result<Outcome, Failure> {
    let ops_attempted = (w.batches_per_pass * BATCH_QUERIES) as u64;
    let fail = |message: String| Failure { ops_attempted, message };
    std::fs::create_dir_all(&opt.work_dir).map_err(|e| fail(e.to_string()))?;
    let text_path = opt.work_dir.join("text.seq");
    let catalog_path = opt.work_dir.join("index.eracat");

    let mut rec = Recorder::new(opt.trace);
    let mut per_layer = Vec::new();
    let mut host = Host { reference: opt.host_ref.then(HostRef::new), readings: Vec::new() };
    let mut host_checkpoints = Vec::new();
    host.checkpoint(&mut host_checkpoints);
    let run_span = rec.open("run");

    // --- set-up, first half: generate the text and put it on disk ---
    let (text, generated, setup_a) =
        setup_text(&mut rec, &mut host, w, &text_path).map_err(&fail)?;
    let mut raw_generate_s = vec![generated];

    // --- build ---
    // The reference's table must not sit in the build's peak memory, and the
    // mark must not remember the set-up: drop the one, reset the other.
    host.reference = None;
    let rss_was_reset = machine::reset_peak_rss();
    let rss_before_build_mb = machine::peak_rss_mb().unwrap_or(f64::NAN);
    let (built, build_time) =
        rec.time("index.build_from_path", || product::build_from_path(&text_path, w));
    // Read before anything else can raise the high-water mark.
    let peak_rss_mb = machine::peak_rss_mb();
    host.reference = opt.host_ref.then(HostRef::new);
    let built = built.map_err(&fail)?;
    let peak_rss_mb =
        peak_rss_mb.ok_or_else(|| fail("VmHWM of /proc/self/status cannot be read".to_string()))?;
    let build = built.build_counters();
    if opt.trace {
        probes::built_index(&mut rec, &built, &mut per_layer).map_err(&fail)?;
    }

    // --- commit ---
    let (saved, save_time) = rec.time("index.save_to_file", || built.save_to_file(&catalog_path));
    saved.map_err(&fail)?;
    drop(built);
    let catalog_bytes = std::fs::metadata(&catalog_path).map_err(|e| fail(e.to_string()))?.len();
    if opt.trace {
        probes::catalog(&mut rec, &catalog_path, build.text_len, &mut per_layer).map_err(&fail)?;
        probes::build_layers(&mut rec, &text_path, &opt.work_dir, w, &text, &mut per_layer)
            .map_err(&fail)?;
    }

    // --- set-up, second half: the oracle, the query set, the expected answers ---
    let (mut queries, sorted, setup_b) =
        setup_queries(&mut rec, &mut host, w, &text, ops_attempted as usize, opt.seed);
    let mut raw_oracle_s = vec![sorted];
    let mut setup_s = vec![setup_a + setup_b];
    let query_fingerprint = fingerprint(&queries);
    let batches: Vec<product::Batch> =
        queries.ops.chunks(BATCH_QUERIES).map(product::batch).collect();
    if opt.plant_wrong_answer {
        queries.expected[0] = match &queries.expected[0] {
            Answer::Count(n) => Answer::Count(n + 1),
            other => unreachable!("the first op of a query set is a count, not {other:?}"),
        };
    }

    // --- reopen: the handle that serves ---
    let reopen = |rec: &mut Recorder, host: &mut Host, open_s: &mut Vec<f64>| {
        let (opened, quiet_s) = host.quiet(|| {
            let (opened, took) = rec
                .time("index.open_file_with", || product::open_file(&catalog_path, w.cache_bytes));
            (opened, took.as_secs_f64())
        });
        open_s.push(quiet_s);
        opened
    };
    let mut open_s = Vec::new();
    let index = reopen(&mut rec, &mut host, &mut open_s).map_err(&fail)?;

    // --- serve: closed loop, one client, one engine thread ---
    host.checkpoint(&mut host_checkpoints);
    let mut failed = vec![false; queries.ops.len()];
    let mut first_failure = None;
    let mut replies: Vec<Result<Response, String>> = Vec::new();
    let serve_span = rec.open("serve");
    rec.enabled = false;
    let warmup = serve_pass(&mut rec, &mut host, "serve.warmup", &index, &batches, &mut replies);
    verify(&replies, &queries, &mut failed, &mut first_failure);
    let (setup_reps, min_passes) = (opt.setup_reps.max(1), opt.min_passes.max(1));
    let mut served_s = 0.0;
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || served_s < opt.seconds {
        // The repeats of the set-up and of the reopen run between the passes,
        // not before them: the host's speed moves in steps that last seconds
        // (README, "Noise"), and samples of one metric taken back to back
        // would all fall into the same step.
        rec.enabled = opt.trace;
        if setup_s.len() < setup_reps && passes.len() == setup_s.len() * min_passes / setup_reps {
            let (_, generated, setup_a) =
                setup_text(&mut rec, &mut host, w, &text_path).map_err(&fail)?;
            let (again, sorted, setup_b) =
                setup_queries(&mut rec, &mut host, w, &text, ops_attempted as usize, opt.seed);
            std::hint::black_box(again);
            raw_generate_s.push(generated);
            raw_oracle_s.push(sorted);
            setup_s.push(setup_a + setup_b);
        }
        if open_s.len() < opt.open_reps {
            drop(reopen(&mut rec, &mut host, &mut open_s).map_err(&fail)?);
        }
        // A traced run alternates untraced and traced passes, so the cost of
        // recording a span per batch is measured against the same index in
        // the same process.
        rec.enabled = opt.trace && passes.len() % 2 == 1;
        let pass = serve_pass(&mut rec, &mut host, "serve.pass", &index, &batches, &mut replies);
        note_errors(&replies, &mut failed, &mut first_failure);
        served_s += pass.wall_s;
        passes.push(pass);
    }
    rec.enabled = opt.trace;
    rec.close(serve_span);
    host.checkpoint(&mut host_checkpoints);
    verify(&replies, &queries, &mut failed, &mut first_failure);
    drop(replies);

    let phases = Phases {
        raw_generate_s: median(&raw_generate_s),
        raw_oracle_s: median(&raw_oracle_s),
        setup_s,
        raw_build_s: build_time.as_secs_f64(),
        build,
        peak_rss_mb,
        raw_save_s: save_time.as_secs_f64(),
        catalog_bytes,
        open_s,
        warmup,
        passes,
        readings: std::mem::take(&mut host.readings),
    };
    if opt.trace {
        probes::serving(&mut rec, &index, &text, &queries, &mut per_layer).map_err(&fail)?;
        rec.close(run_span);
        probes::from_phases(&phases, w, &mut per_layer);
        per_layer.push(metric(
            "repo.nonvendor_loc",
            machine::nonvendor_loc(Path::new(".")) as f64,
            "lines",
        ));
    }
    let span_json = opt.trace.then(|| {
        let run_id = format!("{}-seed{}-pid{}", w.name, opt.seed, std::process::id());
        rec.to_json(&run_id, w.name, opt.seed)
    });

    let measured = || phases.passes.iter().filter(|p| !p.traced);
    Ok(Outcome {
        ops_attempted,
        ops_failed: failed.iter().filter(|&&f| f).count() as u64,
        end_to_end: end_to_end_metrics(&phases),
        per_layer,
        host_checkpoints,
        pass_slowness: measured().map(Pass::mean_slowness).collect(),
        pass_reading: measured().map(Pass::mean_reading).collect(),
        pass_queries_per_s: measured().map(Pass::queries_per_s).collect(),
        pass_batch_p50_ms: measured().map(|p| p.batch_percentile(0.50)).collect(),
        pass_batch_p95_ms: measured().map(|p| p.batch_percentile(0.95)).collect(),
        pass_wall_s: measured().map(|p| p.wall_s).collect(),
        open_s: phases.open_s.clone(),
        setup_s: phases.setup_s.clone(),
        rss_before_build_mb,
        rss_was_reset,
        query_fingerprint,
        first_failure,
        span_json,
    })
}

/// Set-up, first half: generates the workload's text and puts it on disk.
/// Returns the terminated text, the generator's seconds as measured and the
/// whole half's at quiet-host speed.
fn setup_text(
    rec: &mut Recorder,
    host: &mut Host,
    w: &Workload,
    text_path: &Path,
) -> Result<(Vec<u8>, f64, f64), String> {
    let mut generated = 0.0;
    let (text, quiet_s) = host.quiet(|| {
        let span = rec.open("setup.text");
        let (body, took) = rec
            .time("workloads.generate", || product::generate_body(w.text, w.text_len, w.text_seed));
        generated = took.as_secs_f64();
        let text = product::terminate(w.text, &body).and_then(|text| {
            std::fs::write(text_path, &text).map(|()| text).map_err(|e| e.to_string())
        });
        (text, rec.close(span).as_secs_f64())
    });
    Ok((text?, generated, quiet_s))
}

/// Set-up, second half: the oracle's suffix array, the query set and every
/// expected answer. Returns them with the sort's seconds as measured and the
/// whole half's at quiet-host speed (the sort and the sampling are bracketed
/// separately: each is seconds long).
fn setup_queries(
    rec: &mut Recorder,
    host: &mut Host,
    w: &Workload,
    text: &[u8],
    n_ops: usize,
    seed: u64,
) -> (QuerySet, f64, f64) {
    let span = rec.open("setup.oracle");
    let mut sorted = 0.0;
    let (sa, quiet_sort_s) = host.quiet(|| {
        let (sa, took) = rec.time("suffix_array.oracle", || product::suffix_array(text));
        sorted = took.as_secs_f64();
        (sa, sorted)
    });
    let (queries, quiet_sample_s) = host.quiet(|| {
        let (queries, took) = rec.time("oracle.sample", || {
            oracle::sample(text, &sa, &product::symbols(w.text), n_ops, seed)
        });
        (queries, took.as_secs_f64())
    });
    rec.close(span);
    (queries, sorted, quiet_sort_s + quiet_sample_s)
}

/// One pass over all batches, each batch timed on its own, the host read
/// every `1/READINGS_PER_PASS` of the way. `replies[i]` is overwritten with
/// the reply to batch `i` after the batch's timer has stopped, so exactly one
/// pass of replies is alive at any time.
fn serve_pass(
    rec: &mut Recorder,
    host: &mut Host,
    name: &'static str,
    index: &Index,
    batches: &[product::Batch],
    replies: &mut Vec<Result<Response, String>>,
) -> Pass {
    replies.truncate(batches.len());
    let stretch = batches.len().div_ceil(READINGS_PER_PASS).max(1);
    let mut batch_ms = Vec::with_capacity(batches.len());
    let mut slowness = Vec::with_capacity(READINGS_PER_PASS);
    let mut counters = ServeCounters::default();
    let traced = rec.enabled;
    let mut wall_s = 0.0;
    let first_reading = host.readings.len();
    let mut before = host.read();
    for (s, stretch_batches) in batches.chunks(stretch).enumerate() {
        let span = rec.open(name);
        for (i, batch) in stretch_batches.iter().enumerate() {
            let i = s * stretch + i;
            let (reply, elapsed) = rec.time("index.query_batch", || index.serve(batch));
            batch_ms.push(elapsed.as_secs_f64() * 1e3);
            if let Ok(r) = &reply {
                counters.add(&r.counters());
            }
            if i < replies.len() {
                replies[i] = reply;
            } else {
                replies.push(reply);
            }
        }
        wall_s += rec.close(span).as_secs_f64();
        let after = host.read();
        slowness.push((before + after) / 2.0);
        before = after;
    }
    let readings = host.readings[first_reading..].to_vec();
    Pass { wall_s, batch_ms, slowness, readings, stretch, counters, traced }
}

/// Marks every query of a batch that returned `Err` as failed.
fn note_errors(
    replies: &[Result<Response, String>],
    failed: &mut [bool],
    first_failure: &mut Option<String>,
) {
    for (b, reply) in replies.iter().enumerate() {
        if let Err(e) = reply {
            let lo = b * BATCH_QUERIES;
            let hi = (lo + BATCH_QUERIES).min(failed.len());
            failed[lo..hi].fill(true);
            first_failure.get_or_insert_with(|| format!("batch {b}: {e}"));
        }
    }
}

/// Compares every answer of a pass with the oracle's.
fn verify(
    replies: &[Result<Response, String>],
    queries: &QuerySet,
    failed: &mut [bool],
    first_failure: &mut Option<String>,
) {
    note_errors(replies, failed, first_failure);
    for (b, reply) in replies.iter().enumerate() {
        let Ok(reply) = reply else { continue };
        let lo = b * BATCH_QUERIES;
        let answers = reply.answers();
        let expected = &queries.expected[lo..(lo + BATCH_QUERIES).min(queries.expected.len())];
        if answers.len() != expected.len() {
            failed[lo..lo + expected.len()].fill(true);
            first_failure.get_or_insert_with(|| {
                format!("batch {b}: {} answers for {} queries", answers.len(), expected.len())
            });
            continue;
        }
        for (i, (got, want)) in answers.iter().zip(expected).enumerate() {
            if got != want {
                failed[lo + i] = true;
                first_failure.get_or_insert_with(|| {
                    format!("query {}: served {got:?}, the oracle says {want:?}", lo + i)
                });
            }
        }
    }
}

fn fingerprint(queries: &QuerySet) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (op, expected) in queries.ops.iter().zip(&queries.expected) {
        eat(&[op.kind as u8]);
        eat(&(op.pattern.len() as u64).to_le_bytes());
        eat(&op.pattern);
        match expected {
            Answer::Count(n) => eat(&(*n as u64).to_le_bytes()),
            Answer::Contains(b) => eat(&[u8::from(*b)]),
            Answer::Locate(positions) => {
                eat(&(positions.len() as u64).to_le_bytes());
                positions.iter().for_each(|p| eat(&(*p as u64).to_le_bytes()));
            }
        }
    }
    h
}

/// Median over the untraced measured passes of `f(pass)`.
pub fn median_over_passes(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().filter(|p| !p.traced).map(f).collect::<Vec<_>>())
}

/// The nine end-to-end metrics, in `BENCHMARK.json` order. Every repeated
/// timing is the median of its repeats; every timing but `build_s` is at
/// quiet-host speed.
fn end_to_end_metrics(p: &Phases) -> Vec<Metric> {
    let symbols = p.build.text_len as f64;
    let over_passes = |f: &dyn Fn(&Pass) -> f64| median_over_passes(&p.passes, f);
    vec![
        metric("setup_s", median(&p.setup_s), "s"),
        metric("build_s", p.raw_build_s, "s"),
        metric("build_read_amp", p.build.bytes_read as f64 / symbols, "bytes/symbol"),
        metric("build_peak_rss_mb", p.peak_rss_mb, "MB"),
        metric("index_bytes_per_symbol", p.catalog_bytes as f64 / symbols, "bytes/symbol"),
        metric("open_s", median(&p.open_s), "s"),
        metric("queries_per_s", over_passes(&Pass::queries_per_s), "1/s"),
        metric("batch_p50_ms", over_passes(&|x| x.batch_percentile(0.50)), "ms"),
        metric("batch_p95_ms", over_passes(&|x| x.batch_percentile(0.95)), "ms"),
    ]
}

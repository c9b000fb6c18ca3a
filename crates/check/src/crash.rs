//! The deterministic crash-matrix harness (`era-check crash-matrix`).
//!
//! The `ERACAT1` catalog commit protocol claims: *a crash at any point of a
//! save leaves exactly the previous catalog or the new one — never a third
//! state*. This module proves that claim by enumeration instead of by
//! argument. For every workload (raw/packed encodings of DNA, protein and
//! English texts) it:
//!
//! 1. commits an *old*-generation catalog through a [`FaultVfs`], records a
//!    complete *new*-generation save, and counts its durable operations;
//! 2. replays the save once per fault point `K` — crashing before operation
//!    `K`, under both crash modes (un-synced writes dropped entirely, or a
//!    torn trailing sector) — plus once with the save completing and the
//!    crash striking immediately after;
//! 3. writes the post-crash durable bytes of the catalog to a real file,
//!    reopens it with the production loader — deep-verifying — in both open
//!    modes (text materialized, text left on disk), and asserts the result
//!    is *byte-identically* the old generation's query answers or the new
//!    generation's — fsck-clean, never a panic, never a mix.
//!
//! The harness then proves it has teeth: the same sweep over the seeded-bug
//! [`CommitProtocol::TocBeforeSegmentSync`] (the catalog name published
//! before its bytes are synced) must *catch* the bug — some fault point must
//! yield a state the loader rejects. A harness that passes the broken
//! protocol proves nothing and fails itself.
//!
//! Everything is deterministic: the fault schedule is exhaustive (optionally
//! strided for CI, always retaining the publish-window tail), the texts are
//! synthesized from fixed recurrences, and no wall clock or RNG is involved.

use std::fmt;
use std::path::Path;

use era::{CommitProtocol, EraConfig, EraError, SuffixIndex};
use era_string_store::{CrashMode, FaultVfs, InMemoryStore};

/// One text/encoding combination the matrix sweeps.
struct Workload {
    /// Display name (`dna-raw`, `protein-packed`, ...).
    name: &'static str,
    /// Whether the index is built (and persisted) bit-packed, as every
    /// builder entry point builds it, or raw through `build_from_store` over
    /// an [`InMemoryStore`].
    packed: bool,
    /// Symbol set the synthetic texts draw from.
    symbols: &'static [u8],
}

const WORKLOADS: [Workload; 6] = [
    Workload { name: "dna-raw", packed: false, symbols: b"ACGT" },
    Workload { name: "dna-packed", packed: true, symbols: b"ACGT" },
    Workload { name: "protein-raw", packed: false, symbols: b"ACDEFGHIKLMNPQRSTVWY" },
    Workload { name: "protein-packed", packed: true, symbols: b"ACDEFGHIKLMNPQRSTVWY" },
    Workload { name: "english-raw", packed: false, symbols: b"abcdefghijklmnopqrstuvwxyz" },
    Workload { name: "english-packed", packed: true, symbols: b"abcdefghijklmnopqrstuvwxyz" },
];

/// Where the recorded saves write the catalog inside the [`FaultVfs`].
const VIRTUAL_CATALOG: &str = "/crash-matrix/index.eracat";

/// The old and new generation numbers the sweep distinguishes by.
const OLD_GEN: u64 = 1;
const NEW_GEN: u64 = 2;

/// The result of one crash-matrix run.
#[derive(Debug, Default)]
pub struct CrashMatrixReport {
    /// Workloads swept.
    pub workloads: usize,
    /// Total fault points replayed (sound protocol, both crash modes).
    pub fault_points: usize,
    /// Fault points whose reopened state was the old generation.
    pub reopened_old: usize,
    /// Fault points whose reopened state was the new generation.
    pub reopened_new: usize,
    /// Whether the seeded-bug protocol was caught in *every* workload.
    pub seeded_bug_caught: bool,
    /// Every violation found (a passing run has none).
    pub errors: Vec<String>,
}

impl CrashMatrixReport {
    /// Whether every fault point behaved and the seeded bug was caught.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.seeded_bug_caught
    }
}

impl fmt::Display for CrashMatrixReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "era-check crash-matrix: {} workload(s), {} fault point(s) (old={}, new={}), \
             seeded bug caught: {}, {} error(s)",
            self.workloads,
            self.fault_points,
            self.reopened_old,
            self.reopened_new,
            if self.seeded_bug_caught { "yes" } else { "NO" },
            self.errors.len()
        )
    }
}

/// A deterministic pseudo-random text over `symbols` (the recurrence mixes
/// the position so neighbouring workload generations differ everywhere).
fn synth_body(symbols: &[u8], len: usize, seed: usize) -> Vec<u8> {
    (0..len).map(|i| symbols[(i * 31 + i / 7 + seed * (i + 3)) % symbols.len()]).collect()
}

/// The answers one index generation gives to a fixed query set.
struct Answers {
    generation: u64,
    locates: Vec<Vec<usize>>,
    counts: Vec<usize>,
}

fn answers_of(index: &SuffixIndex, patterns: &[Vec<u8>]) -> Answers {
    Answers {
        generation: index.generation(),
        locates: patterns.iter().map(|p| index.find_all(p)).collect(),
        counts: patterns.iter().map(|p| index.count(p)).collect(),
    }
}

/// The fault points to replay: every operation index when `limit` allows,
/// otherwise a stride that always keeps the first point and the publish
/// window at the tail (`total - 1` and the completed save `total`), where
/// commit-protocol bugs hide.
fn fault_schedule(total: u64, limit: Option<usize>) -> Vec<u64> {
    let all = total + 1;
    let stride = match limit {
        Some(limit) if (all as usize) > limit.max(3) => all as usize / limit.max(3),
        _ => 1,
    };
    let mut points: Vec<u64> = (0..=total).step_by(stride.max(1)).collect();
    for tail in [total.saturating_sub(1), total] {
        if !points.contains(&tail) {
            points.push(tail);
        }
    }
    points
}

/// Builds the two generations of one workload. The texts differ in content
/// and length, so the generations are distinguishable by answers alone.
fn build_generations(w: &Workload) -> Result<(SuffixIndex, SuffixIndex), EraError> {
    let old_body = synth_body(w.symbols, 353, 1);
    let new_body = synth_body(w.symbols, 401, 2);
    let build = |body: &[u8]| {
        let builder = SuffixIndex::builder().memory_budget(1 << 20);
        if w.packed {
            builder.build_from_bytes(body)
        } else {
            builder.build_from_store(&InMemoryStore::from_body_inferred(body)?, Vec::new())
        }
    };
    let old = build(&old_body)?.with_generation(OLD_GEN);
    let new = build(&new_body)?.with_generation(NEW_GEN);
    Ok((old, new))
}

/// What every replay of one workload's sweep shares.
struct Sweep<'a> {
    w: &'a Workload,
    old: &'a SuffixIndex,
    new: &'a SuffixIndex,
    /// Durable operations of the recorded new-generation save.
    total: u64,
    /// The real file each replay writes its post-crash catalog to.
    scratch: &'a Path,
    patterns: &'a [Vec<u8>],
    /// The old and the new generation's answers to `patterns`.
    expected: &'a [Answers],
}

impl Sweep<'_> {
    /// Replays one fault point: old catalog committed, new save crashed
    /// before operation `k` (or completed, for `k == total`, with the crash
    /// striking right after), durable catalog written out and reopened.
    fn replay(&self, protocol: CommitProtocol, k: u64, mode: CrashMode) -> Result<u64, String> {
        let name = self.w.name;
        let total = self.total;
        let catalog = Path::new(VIRTUAL_CATALOG);
        let vfs = FaultVfs::new();
        self.old
            .save_to_file_with(catalog, &vfs, CommitProtocol::Sound)
            .map_err(|e| format!("{name}: committing the old generation failed: {e}"))?;
        if k < total {
            vfs.plan_crash(k, mode);
            if self.new.save_to_file_with(catalog, &vfs, protocol).is_ok() {
                return Err(format!(
                    "{name}: crash planned at op {k}/{total} but the save reported success"
                ));
            }
        } else {
            vfs.record();
            self.new
                .save_to_file_with(catalog, &vfs, protocol)
                .map_err(|e| format!("{name}: uncrashed save failed: {e}"))?;
            vfs.crash_now(mode);
        }

        let durable = vfs.durable_bytes(catalog).unwrap_or_default();
        std::fs::write(self.scratch, durable)
            .map_err(|e| format!("{name}: writing out the durable catalog failed: {e}"))?;
        reopen_and_classify(self.scratch, self.patterns, self.expected)
            .map_err(|e| format!("{name}: crash at op {k}/{total} ({mode:?}): {e}"))
    }
}

/// Reopens the post-crash catalog in both open modes — paranoid, so each is
/// a deep fsck too — and returns which generation it is, failing if it is
/// neither or mixes answers.
fn reopen_and_classify(
    catalog: &Path,
    patterns: &[Vec<u8>],
    expected: &[Answers],
) -> Result<u64, String> {
    let mut generation = 0;
    for memory_budget in [EraConfig::default().memory_budget, 1] {
        let config = EraConfig { memory_budget, paranoid: true, ..EraConfig::default() };
        let reopened = SuffixIndex::open_file_with(catalog, &config)
            .map_err(|e| format!("reopening the durable state failed: {e}"))?;
        generation = reopened.generation();
        let Some(want) = expected.iter().find(|a| a.generation == generation) else {
            return Err(format!("reopened generation {generation} is neither the old nor the new"));
        };
        for (i, pattern) in patterns.iter().enumerate() {
            let locate = reopened.find_all(pattern);
            let count = reopened.count(pattern);
            if locate != want.locates[i] || count != want.counts[i] {
                return Err(format!(
                    "generation {generation} reopened with diverging answers for pattern {i} \
                     ({} vs {} hits): a third state",
                    locate.len(),
                    want.locates[i].len()
                ));
            }
        }
    }
    Ok(generation)
}

/// Runs the full matrix. `limit` bounds the fault points replayed per
/// workload × mode (CI uses a bounded sweep; tests run exhaustively).
pub fn run_crash_matrix(limit: Option<usize>) -> CrashMatrixReport {
    let mut report = CrashMatrixReport { seeded_bug_caught: true, ..CrashMatrixReport::default() };
    let scratch = std::env::temp_dir().join(format!("era-crash-{}.eracat", std::process::id()));
    for w in &WORKLOADS {
        report.workloads += 1;
        let (old, new) = match build_generations(w) {
            Ok(pair) => pair,
            Err(e) => {
                report.errors.push(format!("{}: building the generations failed: {e}", w.name));
                continue;
            }
        };
        // Query set: probes from both texts (so each generation answers some
        // of them non-trivially) at a few fixed offsets.
        let old_text = old.text();
        let new_text = new.text();
        let mut patterns: Vec<Vec<u8>> = Vec::new();
        for text in [old_text, new_text] {
            let body = &text[..text.len() - 1];
            for (off, len) in [(0usize, 6usize), (body.len() / 2, 8), (body.len() - 9, 7)] {
                patterns.push(body[off..off + len].to_vec());
            }
        }
        let expected = [answers_of(&old, &patterns), answers_of(&new, &patterns)];

        // Record the sound save to size the sweep.
        let catalog = Path::new(VIRTUAL_CATALOG);
        let probe = FaultVfs::new();
        if let Err(e) = old.save_to_file_with(catalog, &probe, CommitProtocol::Sound) {
            report.errors.push(format!("{}: probe save (old) failed: {e}", w.name));
            continue;
        }
        probe.record();
        if let Err(e) = new.save_to_file_with(catalog, &probe, CommitProtocol::Sound) {
            report.errors.push(format!("{}: probe save (new) failed: {e}", w.name));
            continue;
        }
        let sweep = Sweep {
            w,
            old: &old,
            new: &new,
            total: probe.op_count(),
            scratch: &scratch,
            patterns: &patterns,
            expected: &expected,
        };
        let points = fault_schedule(sweep.total, limit);

        // The sound protocol: every fault point must land old or new.
        for mode in [CrashMode::DropUnsynced, CrashMode::TornSector] {
            for &k in &points {
                report.fault_points += 1;
                match sweep.replay(CommitProtocol::Sound, k, mode) {
                    Ok(gen) if gen == OLD_GEN => report.reopened_old += 1,
                    Ok(_) => report.reopened_new += 1,
                    Err(e) => report.errors.push(e),
                }
            }
        }

        // The seeded bug: the same sweep must catch TocBeforeSegmentSync —
        // if every fault point still reopens clean, the harness is blind.
        let caught = points.iter().any(|&k| {
            sweep.replay(CommitProtocol::TocBeforeSegmentSync, k, CrashMode::DropUnsynced).is_err()
        });
        if !caught {
            report.seeded_bug_caught = false;
            report.errors.push(format!(
                "{}: the seeded TocBeforeSegmentSync protocol survived every fault point — \
                 the harness has no teeth",
                w.name
            ));
        }
    }
    let _ = std::fs::remove_file(&scratch);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_schedule_is_exhaustive_without_a_limit() {
        assert_eq!(fault_schedule(4, None), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn bounded_schedule_keeps_the_publish_window() {
        let points = fault_schedule(100, Some(5));
        assert!(points.len() <= 5 + 2 + 20, "stride must actually bound the sweep");
        assert!(points.contains(&0));
        assert!(points.contains(&99), "the pre-sync_dir point must always be swept");
        assert!(points.contains(&100), "the completed-save point must always be swept");
    }

    #[test]
    fn bounded_matrix_passes_and_catches_the_seeded_bug() {
        // The exhaustive sweep lives in tests/crash_matrix.rs; this bounded
        // run keeps the unit suite fast while still covering every workload.
        let report = run_crash_matrix(Some(4));
        assert!(report.passed(), "{}\n{:#?}", report, report.errors);
        assert!(report.reopened_old > 0);
        assert!(report.reopened_new > 0, "the completed-save point must land the new generation");
    }
}

//! Real-code concurrency suites, checked exhaustively under every
//! interleaving (built only with the `shim-sync` feature).
//!
//! Hand-written *imitations* of concurrent structures can silently drift
//! from the code they imitate, so this module checks the real code: with
//! `shim-sync` enabled, `era-string-store` — the one library crate with
//! shared sync state — compiles its sync primitives against the vendored
//! loom-style shims (`interleave::shim`), and every suite here drives the
//! **actual** methods — [`CacheStats::add_insertion`],
//! [`BlockCache::insert`] — through every interleaving of their lock
//! acquisitions and atomic operations via [`RealModel`].
//!
//! Every suite is **two-sided**:
//!
//! * the **sound** side runs the production method and must hold its
//!   invariant under *every* interleaving (and must explore the full
//!   schedule tree — a capped search proves nothing);
//! * the **broken** side runs a deliberately mis-synchronized twin that
//!   ships next to the production code under `#[cfg(feature =
//!   "shim-sync")]` ([`CacheStats::add_insertion_split`],
//!   [`BlockCache::insert_split_accounting`])
//!   and must be *caught* — if the explorer cannot find the seeded split
//!   read-modify-write, its green checkmark on the sound side is worthless.
//!
//! Suites:
//!
//! * [`cache_stats_counter`] — two workers each record one block insertion
//!   on one shared [`CacheStats`]; no update may be lost.
//! * [`block_cache_shard`] — two workers insert oversized blocks into a
//!   single-shard [`BlockCache`]; the capacity bound and the byte
//!   accounting must hold on every schedule.

use std::sync::Arc;

use era_string_store::{BlockCache, CacheStats};
use interleave::shim::{RealModel, RealOutcome};

/// Worker threads per suite (two suffice: every split read-modify-write is
/// a two-party race, and the schedule tree stays small enough to exhaust).
const WORKERS: usize = 2;

/// Decoded bytes per inserted block in the cache suites.
const BLOCK_BYTES: usize = 24;

/// `CacheStats` under concurrent insertion accounting: the real
/// `add_insertion` uses one `fetch_add` per counter and must never lose an
/// update; the seeded `add_insertion_split` twin splits the increment into
/// load + store and must be caught.
pub fn cache_stats_counter(broken: bool) -> RealOutcome {
    let mut model = RealModel::new(CacheStats::new);
    for w in 0..WORKERS {
        model = model.thread(format!("w{w}"), move |stats: &CacheStats| {
            if broken {
                stats.add_insertion_split(BLOCK_BYTES as u64);
            } else {
                stats.add_insertion(BLOCK_BYTES as u64);
            }
        });
    }
    model.check(|stats| {
        let snap = stats.snapshot();
        let want = WORKERS as u64;
        if snap.insertions == want && snap.decoded_bytes == want * BLOCK_BYTES as u64 {
            Ok(())
        } else {
            Err(format!(
                "lost update: {} insertions / {} bytes (want {} / {})",
                snap.insertions,
                snap.decoded_bytes,
                want,
                want * BLOCK_BYTES as u64
            ))
        }
    })
}

/// The real `BlockCache` shard under concurrent insertion: capacity is
/// sized so the two blocks cannot coexist, forcing the eviction path. The
/// real `insert` does the capacity check and the insertion under one shard
/// lock; the seeded `insert_split_accounting` twin re-reads the shard in a
/// second critical section after deciding, so two threads can both see room
/// and overshoot the capacity together.
pub fn block_cache_shard(broken: bool) -> RealOutcome {
    // One shard so both inserts contend on the same lock; capacity fits one
    // block but not two.
    let capacity = BLOCK_BYTES + BLOCK_BYTES / 2;
    let model = (0..WORKERS).fold(
        RealModel::new(move || BlockCache::with_layout(capacity, BLOCK_BYTES, 1)),
        |model, w| {
            model.thread(format!("w{w}"), move |cache: &BlockCache| {
                let data: Arc<[u8]> = vec![w as u8; BLOCK_BYTES].into();
                if broken {
                    cache.insert_split_accounting(w as u64, data);
                } else {
                    cache.insert(w as u64, data);
                }
            })
        },
    );
    model.check(move |cache| {
        let bytes = cache.bytes();
        let snap = cache.snapshot();
        if bytes > capacity {
            return Err(format!("capacity overshoot: {bytes} cached bytes > {capacity}"));
        }
        if snap.insertions != WORKERS as u64 {
            return Err(format!("{} insertions recorded (want {})", snap.insertions, WORKERS));
        }
        Ok(())
    })
}

/// The outcome of checking one real-code suite in both variants.
#[derive(Debug)]
pub struct RealReport {
    /// The suite's name.
    pub name: &'static str,
    /// Outcome of the production code path (must pass, exhaustively).
    pub sound: RealOutcome,
    /// Outcome of the seeded-broken twin (must be caught).
    pub broken: RealOutcome,
}

impl RealReport {
    /// Whether this suite certifies both directions: the production path
    /// holds under every interleaving (with the tree fully explored) AND
    /// the seeded twin is caught.
    pub fn ok(&self) -> bool {
        self.sound.passed() && self.sound.complete && !self.broken.passed()
    }
}

/// Runs every real-code suite in both variants.
pub fn run_all() -> Vec<RealReport> {
    vec![
        RealReport {
            name: "cache-stats-counter",
            sound: cache_stats_counter(false),
            broken: cache_stats_counter(true),
        },
        RealReport {
            name: "block-cache-shard",
            sound: block_cache_shard(false),
            broken: block_cache_shard(true),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sound_paths_pass_every_interleaving_exhaustively() {
        for report in run_all() {
            assert!(
                report.sound.passed(),
                "{}: production path violated: {:?}",
                report.name,
                report.sound.violation
            );
            assert!(report.sound.complete, "{}: schedule tree not exhausted", report.name);
            assert!(report.sound.schedules > 1, "{}: explored only one schedule", report.name);
        }
    }

    #[test]
    fn every_seeded_twin_is_caught() {
        for report in run_all() {
            let v = report
                .broken
                .violation
                .as_ref()
                .unwrap_or_else(|| panic!("{}: seeded twin went uncaught", report.name));
            assert!(!v.trace.is_empty(), "{}: violation has no trace", report.name);
        }
    }

    #[test]
    fn split_counter_violation_names_the_lost_update() {
        let outcome = cache_stats_counter(true);
        let v = outcome.violation.expect("split counter must lose an update");
        assert!(v.message.contains("lost update"), "{}", v.message);
    }

    #[test]
    fn split_cache_insert_overshoots_capacity() {
        let outcome = block_cache_shard(true);
        let v = outcome.violation.expect("split insert must overshoot");
        assert!(
            v.message.contains("capacity overshoot") || v.message.contains("insertions"),
            "{}",
            v.message
        );
    }
}

//! `era-check`: the workspace's static-analysis and artifact-verification
//! subsystem.
//!
//! Four passes, each usable as a library and wired together by the
//! `era-check` binary (and by the CI `static-analysis` job). The two source
//! passes share one [`graph::Index`]: a dependency-free Rust lexer
//! ([`lex`]) tokenizes every workspace file once (raw strings, nested block
//! comments, lifetimes and all), an item extractor ([`graph`]) recovers fn
//! boundaries, call sites, panic sinks and `// era-check:` directives, and
//! calls resolve by name and qualifier over the library crates' non-test fns.
//!
//! - [`lint`] — the one home-grown source lint, **panic-path**: no
//!   function reachable from a `// era-check: entry` serving entry point may
//!   reach a `panic!`-family macro or direct indexing, unless a reasoned
//!   `// era-check: allow(panic-path): why` names the validation that makes
//!   it sound. Everything a lint rule can check by name is clippy's job:
//!   every library crate root denies `clippy::unwrap_used` and
//!   `clippy::expect_used`, `clippy.toml`'s `disallowed-methods` keeps raw
//!   `StringStore::read_at` / `read_codes_at` calls inside the accounted-I/O
//!   seam, and the workspace lint table forbids `unsafe`.
//! - [`taint`] — untrusted-input dataflow over the same index. Values
//!   derived from hostile artifact bytes (`from_le_bytes` results,
//!   `read_exact`-filled buffers and byte-slice parameters of parser fns,
//!   returns of `// era-check: source` seams) are tracked,
//!   interprocedurally via call-graph summaries, until they either pass a
//!   sanitizer (`try_into`, `checked_*`, a clamp, an ordered bounds check)
//!   or reach a sink: unchecked arithmetic, a truncating `as` cast, a
//!   header-sized allocation, or a direct index. The static complement of
//!   [`fsck`]: fsck proves the artifacts honest, taint proves the parsers
//!   safe against the dishonest ones.
//! - [`fsck`] — deep verification of a persisted index (the `ERACAT1`
//!   single-file catalog), reusing the `era-suffix-tree` catalog parser and
//!   validators so a corrupted catalog is rejected with a diagnostic instead
//!   of serving wrong answers.
//! - [`crash`] — the deterministic crash-matrix harness: every fault point
//!   of a recorded catalog save is replayed through a fault-injecting
//!   [`FaultVfs`](era_string_store::FaultVfs), the post-crash durable state
//!   fscked and reopened in both open modes, and the result must be
//!   byte-identically the old or the new generation; the seeded broken
//!   commit protocol must be caught, or the harness fails itself.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crash;
pub mod fsck;
pub mod graph;
pub mod lex;
pub mod lint;
pub mod taint;

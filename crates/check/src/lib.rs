//! `era-check`: the workspace's static-analysis and artifact-verification
//! subsystem.
//!
//! Four independent passes, each usable as a library and wired together by
//! the `era-check` binary (and by the CI `static-analysis` job):
//!
//! - [`lint`] — a *semantic* pass over the workspace's own `.rs` files. A
//!   dependency-free Rust lexer ([`lex`]) tokenizes every file (raw strings,
//!   nested block comments, lifetimes and all), an item extractor ([`graph`])
//!   recovers fn boundaries, call sites, sinks (allocation, panic) and
//!   `// era-check:` directives, and the lint rules run over the resulting
//!   workspace-wide call graph: raw `read_at` calls stay confined to the
//!   cursor/text-source layer, `// era-check: hot` functions do not *reach*
//!   allocation through any call chain, functions reachable from
//!   `// era-check: entry` serving entry points do not reach
//!   unwrap/expect/panic!/direct indexing, and library crates do not
//!   `unwrap()`. Every rule is escapable only by a reasoned
//!   `// era-check: allow(rule): why` directive. (`unsafe` needs no rule: the
//!   workspace lint table forbids it in every target of every member.)
//! - [`taint`] — untrusted-input dataflow over the same lexer/extractor/call
//!   graph. Values derived from hostile artifact bytes (`from_le_bytes`
//!   results, `read_exact`-filled buffers and byte-slice parameters of
//!   parser fns, returns of `// era-check: source` seams) are tracked,
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

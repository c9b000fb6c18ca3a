//! `era-check`: the workspace's artifact checker.
//!
//! It checks what no compiler lint can see, the bytes an index leaves on
//! disk. Source rules belong to the compiler and clippy: the workspace lint
//! table forbids `unsafe`, the library crate roots deny `unwrap` / `expect`,
//! the serving modules deny indexing and the `panic!` family, the format
//! modules and store-header parsers deny unchecked arithmetic, truncating
//! casts and indexing, and `clippy.toml`'s `disallowed-methods` keeps raw
//! store reads and integer decoding where those denies hold.
//!
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
//!
//! - [`lint`] and [`taint`] — the source rules as clippy holds them: which
//!   lints the serving modules and the parsers deny, and a clippy runner the
//!   fixture corpus (`tests/fixtures.rs`) uses to show each deny catches its
//!   rule's findings and passes their reasoned or sanitized twins.
//!
//! The corruption matrix (`tests/corruption_matrix.rs`) flips every bit of
//! every on-disk format and plants hostile header and TOC values; CI runs it
//! under an address-space limit, so a header-sized allocation fails it.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod crash;
pub mod fsck;
pub mod lint;
pub mod taint;

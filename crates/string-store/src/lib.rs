//! # era-string-store
//!
//! Block-based string storage substrate for the ERA suffix-tree reproduction
//! (Mansour et al., PVLDB 2011).
//!
//! ERA and all baseline algorithms access the input string `S` through the
//! [`StringStore`] trait so that every read is accounted for: the paper's
//! evaluation is largely about *how* the string is accessed (sequential scans
//! vs random seeks, number of complete scans, bytes fetched), and the I/O
//! counters exposed by [`IoStats`] make those access patterns observable and
//! deterministic even when the operating system page cache hides latency at
//! laptop scale.
//!
//! The crate provides:
//!
//! * [`Alphabet`] — DNA, protein, English and custom alphabets, including the
//!   bits-per-symbol packing used by the paper (2 bits for DNA, 5 bits for
//!   protein/English; the terminal is kept out-of-band).
//! * [`RawStore`] and [`PackedStore`] — the two stores, one per encoding:
//!   raw (1 byte/symbol) and bit-packed. Each keeps its bytes in memory or
//!   reads them from a file region by position, so concurrent readers of one
//!   file share no lock. The raw store is also named [`InMemoryStore`] and
//!   [`DiskStore`], the packed one [`PackedMemoryStore`] and
//!   [`PackedDiskStore`], after the constructors callers reach for. Reads go
//!   through a configurable block size; a packed store decodes at block
//!   granularity inside `read_at`, straight into the caller's (usually
//!   [`BlockCursor`]'s) buffer, and its I/O counters record *packed* bytes
//!   and blocks, so every sequential scan of DNA fetches 4x fewer bytes.
//!   `read_codes_at` serves the payload bits undecoded instead; the
//!   read-ahead fill of `SubTreePrepare` reads through it and decodes
//!   nothing. The packed file format is a small header (magic, version,
//!   bits-per-symbol, symbol table, text length) followed by the packed body.
//! * [`BlockCursor`] — the zero-copy block-scan layer: one sequential pass
//!   served as borrowed slices out of a single reused window buffer (no
//!   per-fetch allocation), optionally skipping blocks that contain no
//!   requested symbol. In code mode ([`BlockCursor::new_codes`]) the window
//!   holds the store's codes rather than decoded symbols.
//! * [`TextSource`] / [`ResidentText`] / [`StoreTextSource`] — the
//!   *random-access* counterpart of [`BlockCursor`] for query serving: the
//!   two operations a suffix-tree walk needs (symbol at a position, common
//!   prefix of an edge label and a pattern). A byte slice serves them, and
//!   [`StoreTextSource`] serves them over any store with one comparator,
//!   [`ResidentText`]'s: raw bytes as a slice, a packed payload code by code,
//!   nothing decoded. A text in memory ([`StringStore::resident`]) is matched
//!   where it lies; a text in a file one block of the store's codes at a
//!   time, with every fetch I/O-accounted both on the store's global
//!   counters and on the source's own (per-worker) counters.
//! * [`BlockCache`] — a sharded, capacity-bounded LRU of the code blocks of a
//!   file-backed text, shared via `Arc` across the sources/workers of a
//!   serving path so repeated and overlapping patterns are answered with
//!   zero store I/O; activity is counted in [`CacheSnapshot`]s.
//! * [`IoStats`] / [`IoSnapshot`] — thread-safe I/O counters.
//! * [`packed`] — the symbol codec underneath the packed store: terminal out
//!   of band, dense order-preserving codes, any width from 1 to 8 bits. The
//!   paper's two widths decode several symbols per table lookup (a payload
//!   byte is 4 DNA symbols, 10 bits are 2 protein / English symbols); every
//!   other width, and the ragged ends of a range, one code at a time.
//! * [`vfs`] — the durability seam for write paths: the [`Vfs`] trait with a
//!   [`StdVfs`] production passthrough and a deterministic fault-injecting
//!   [`FaultVfs`] used by the crash-matrix harness to prove commit protocols
//!   crash-safe.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod alphabet;
mod backing;
pub mod block_cache;
pub mod cursor;
pub mod disk;
pub mod error;
pub mod memory;
pub mod packed;
pub mod packed_store;
pub mod reader;
pub mod resident;
pub mod stats;
pub mod store;
pub mod sync;
pub mod text_source;
pub mod vfs;

pub use alphabet::{Alphabet, AlphabetKind, TERMINAL};
pub use block_cache::{BlockCache, CacheSnapshot, CacheStats, DEFAULT_CACHE_BLOCK_SYMBOLS};
pub use cursor::BlockCursor;
pub use disk::DiskStore;
pub use error::{StoreError, StoreResult};
pub use memory::{InMemoryStore, RawStore};
pub use packed::PackedCodec;
pub use packed_store::{PackedDiskStore, PackedMemoryStore, PackedStore};
pub use reader::{decode_symbol_table, ByteReader, FormatError};
pub use resident::ResidentText;
pub use stats::{IoSnapshot, IoStats, ReadCursor};
pub use store::StringStore;
pub use text_source::{StoreTextSource, TextSource};
pub use vfs::{CrashMode, FaultVfs, StdVfs, Vfs, VfsFile, SECTOR};

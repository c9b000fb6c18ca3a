//! # era — Elastic Range suffix-tree construction
//!
//! A reproduction of **"ERA: Efficient Serial and Parallel Suffix Tree
//! Construction for Very Long Strings"** (Mansour, Allam, Skiadopoulos,
//! Kalnis — PVLDB 5(1), 2011).
//!
//! ERA builds the suffix tree of a string that may be far larger than the
//! available memory. It divides the problem *vertically* into sub-trees that
//! fit in memory (grouping them into virtual trees to share I/O) and
//! *horizontally* into elastic level-ranges that are filled with strictly
//! sequential passes over the string; the sub-tree itself is assembled in
//! batch from two flat arrays, so memory access stays sequential too.
//!
//! ## Quick start
//!
//! ```
//! use era::SuffixIndex;
//!
//! let text = b"TGGTGGTGGTGCGGTGATGGTGC".to_vec();
//! let index = SuffixIndex::builder()
//!     .memory_budget(1 << 20)
//!     .build_from_bytes(&text)
//!     .expect("construction succeeds");
//!
//! assert_eq!(index.count(b"TG"), 7);            // Table 1 of the paper
//! assert_eq!(index.find_all(b"TGC"), vec![9, 20]);
//! let (offset, len) = index.longest_repeated_substring().unwrap();
//! assert_eq!(len, 8);                           // e.g. "TGGTGGTG" at 0 and 3
//! assert!(index.count(&text[offset..offset + len]) >= 2);
//! ```
//!
//! ## Architecture: one pipeline, pluggable schedulers
//!
//! The paper's serial (§4), shared-memory parallel (§5.1) and shared-nothing
//! parallel (§5.2) algorithms are the same pipeline — vertical partitioning →
//! one classifying scan per cohort of virtual trees → horizontal
//! `SubTreePrepare`/`BuildSubTree` — differing only in *who runs which
//! cohort*. That shared structure is captured once by
//! [`pipeline::ConstructionPipeline`], which owns partitioning, timing and
//! report assembly, and delegates group execution to a
//! [`pipeline::GroupScheduler`]:
//!
//! * [`SerialScheduler`] — every cohort on the calling thread;
//! * [`SharedMemoryScheduler`] — a worker pool pulling cohorts from a shared
//!   queue against one store;
//! * [`SharedNothingScheduler`] — one private store per simulated cluster
//!   node, longest-processing-time group assignment, no merge phase.
//!
//! Whoever runs it, a virtual tree spends the memory budget phase by phase
//! rather than area by area ([`config`] has the accounting). One classifying
//! scan yields the leaves `L` of a whole cohort of virtual trees (three, for
//! DNA) by descending a trie of their S-prefixes from every position; its
//! members then take turns. `SubTreePrepare` holds the read-ahead buffer
//! `R` as one flat arena that also occupies the sub-tree area — idle until
//! `BuildSubTree` — so the first elastic range is `(R + MTS) / FM ≈ 34`
//! symbols rather than `R / FM ≈ 2`, and a group costs a handful of passes
//! over the string instead of dozens. `BuildSubTree` then has that area for
//! the tree: every sub-tree is assembled from its `L` and `B` straight into
//! its flat serving arena, and its `L` and `B` dropped, before the next one
//! is assembled, so `FM` charges a node the 16 bytes of its record. What a
//! build keeps resident is the flat arenas finished so far plus one group in
//! flight.
//!
//! [`construct`] is the driver entry point over one store — the thread count
//! ([`EraConfig::threads`], [`SuffixIndexBuilder::threads`]) alone picks the
//! serial or the shared-memory scheduler — and [`construct_shared_nothing`]
//! the one over a store per node; anything else names its scheduler through
//! [`ConstructionPipeline::run`]. The scheduler trait is the seam future
//! backends (async-I/O stores, distributed workers) plug into without
//! touching the pipeline.
//! Orthogonally, [`SuffixIndexBuilder::packed`] swaps the raw string stores
//! for the bit-packed backends of `era-string-store` (§6.1: 2-bit DNA, 5-bit
//! protein/English), cutting the bytes fetched by every construction scan by
//! the packing ratio under any scheduler.
//!
//! ## Query serving: the store-backed batched engine
//!
//! Serving mirrors construction's store abstraction. The [`query`] module
//! provides typed requests ([`Query::Contains`], [`Query::Count`],
//! [`Query::Locate`] with paging) that a [`QueryEngine`] answers in batches.
//! A query has one path: the `PartitionedSuffixTree` call of its kind
//! (`try_contains`, `try_count`, `try_locate`) routes the pattern by its
//! leading symbols through the partition trie and descends each candidate
//! sub-tree, resolving edge labels through a `TextSource`; a count or a
//! locate then reads the matched subtree as one range of the arena. An
//! index keeps its text behind one `StringStore`, and the engine is over that
//! store. Every query reads it through one `StoreTextSource` per worker,
//! which matches it with one comparator wherever it lies: a text in memory
//! (`StringStore::resident`) in place — an `InMemoryStore`'s bytes, or a
//! `PackedMemoryStore`'s payload compared code by code, with no block, no
//! decode and no cache — and a text left in a file one block of its store's
//! codes at a time, nothing decoded either. A batch is that call in a loop,
//! optionally cut into contiguous chunks on scoped threads
//! ([`QueryEngine::threads`]). [`SuffixIndex::engine`] and
//! [`SuffixIndex::query_batch`] are the entry points; a catalog whose text
//! segment exceeds the memory budget is served by [`SuffixIndex::open_file`]
//! straight from a `DiskStore`/`PackedDiskStore` over that segment without
//! ever materializing the text, with the I/O of every batch reported in
//! [`QueryStats`] — attributed per chunk, so concurrent engines on one
//! shared store never see each other's traffic. The classic
//! [`SuffixIndex::contains`]/[`SuffixIndex::count`]/[`SuffixIndex::find_all`]
//! remain as thin single-query wrappers.
//!
//! Serving from a file is accelerated by a shared **block cache**
//! (`era_string_store::BlockCache`, a sharded capacity-bounded LRU of code
//! blocks, held as the store keeps them: a packed DNA block takes one byte
//! per four symbols): every worker consults it before reading the store, and it
//! outlives individual batches, so repeated and overlapping patterns are
//! answered with zero store I/O. A [`SuffixIndex`] owns one automatically
//! when its text stays in a file (a text in memory gets none), sized by
//! [`EraConfig::cache_bytes`] / [`SuffixIndexBuilder::cache_bytes`] (tune or
//! disable per index with [`SuffixIndex::with_cache_bytes`]); standalone
//! engines attach one with [`QueryEngine::with_cache`].
//! Per-batch hit/miss/eviction counters ride in [`QueryStats`]
//! next to the I/O snapshot.
//!
//! ## Whole-index operations: one sub-tree at a time
//!
//! ERA's output is a set of sub-trees under a small trie, never merged into
//! one tree (§4, Fig. 3) — not by the operations that look at all of it
//! either. [`SuffixIndex::longest_repeated_substring`],
//! [`SuffixIndex::longest_common_substring`], [`SuffixIndex::suffix_array`]
//! and [`SuffixIndex::verify`] each make one pass over the sub-trees in trie
//! order and join what they find up the trie. Only `verify` reads the text,
//! and it reads it as a query does: a store-backed index is deep-verified
//! block-wise, never materialized ([`EraConfig::paranoid`], `era-check fsck
//! --deep`).
//!
//! ## Persistence: one format, one open path
//!
//! A built index persists as a single-file `ERACAT1` **catalog**
//! ([`SuffixIndex::save_to_file`] / [`SuffixIndex::open_file`] and their
//! `_with` forms — the whole persistence surface): text segment, contiguous
//! flat-tree (`ERAFLAT1`) group segments and a checksummed footer/TOC,
//! committed atomically — write temp, fsync the segments, fsync the TOC,
//! rename, fsync the directory — through the [`Vfs`] durability seam. A
//! crash at any point leaves exactly the old or the new catalog, a property
//! the `era-check crash-matrix` harness proves by enumerating every fault
//! point of a recorded save under a deterministic [`FaultVfs`].
//!
//! Opening has one flow: `CatalogFile` reads the footer, header and TOC,
//! then the text segment, hashed as it is read, then the group segments in
//! one read, through the group loader `parse_catalog` uses too. The budget
//! ([`EraConfig::memory_budget`]) decides only where the text goes: a segment
//! that fits is held in an `InMemoryStore`/`PackedMemoryStore`; a larger one
//! stays on disk, served block-wise through a region store over the catalog
//! file. That saves the text's share of memory: 1 byte per symbol raw,
//! 0.25–0.63 packed. The group trees, at ~30 bytes per symbol the bulk of a
//! catalog, are still loaded whole; loading them lazily per group (the TOC
//! already keys them) is the follow-up that bounds the rest.
//!
//! ## Hot-path layout: flat serving trees and the trie scan
//!
//! ERA-str+mem assembles every sub-tree straight into a `FlatTree` — one
//! contiguous arena of 16-byte node records with each node's children packed
//! adjacently in `first_char` order — and ERA-str, which grows the Vec-node
//! `SuffixTree` of `era-suffix-tree` during its scans, freezes each finished
//! sub-tree into the same arena. Everything downstream ([`SuffixIndex`],
//! [`QueryEngine`], the catalog's group segments) serves from that form:
//! descents binary-search adjacent cache lines instead of chasing per-node
//! child vectors, subtree enumeration walks contiguous id ranges, and the
//! arena costs ~1/3 of the
//! construction form's bytes per node ([`ConstructionReport::bytes_per_node`]
//! reports the measured figure). The arena order is deterministic, so all
//! three schedulers still produce byte-identical serving trees. On the scan
//! side, every pass that looks for S-prefixes — the counting rounds of
//! vertical partitioning, the classifying pass of a cohort,
//! [`scan::collect_occurrences`] — descends one trie of the (prefix-free) set
//! from every position, the top levels folded into a jump table, so its cost
//! does not grow with the number of prefixes;
//! [`scan::collect_occurrences_scalar`] keeps the per-position reference the
//! trie is tested against.
//!
//! ## Crate layout
//!
//! * [`config`] — every knob the paper evaluates (memory budget, `|R|`,
//!   elastic vs static range, grouping, seek optimisation, threads, packed
//!   symbol encoding).
//! * [`vertical`] — variable-length prefix partitioning + virtual trees
//!   (§4.1), each round counted by descending a trie of the working set.
//! * [`horizontal`] — `SubTreePrepare`/`BuildSubTree` and the ERA-str variant
//!   (§4.2), including the elastic range (§4.4).
//! * [`pipeline`] — the unified [`ConstructionPipeline`], the three
//!   [`GroupScheduler`] implementations and the driver entry points
//!   [`construct`] / [`construct_shared_nothing`].
//! * [`scan`] — sequential multi-pattern occurrence scans over the
//!   zero-copy block cursor of `era-string-store`: one trie descent per
//!   position, with a scalar reference implementation.
//! * [`query`] — the batched [`QueryEngine`] (a loop over the partitioned
//!   tree's single-query calls), typed [`Query`] requests and [`QueryStats`]
//!   I/O accounting over in-memory or store-backed texts.
//! * [`SuffixIndex`] — the user-facing API combining construction and queries.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod config;
pub mod error;
pub mod horizontal;
pub mod index;
pub mod pipeline;
pub mod query;
pub mod report;
pub mod scan;
pub mod vertical;

// Unit tests of the three drivers in `pipeline`, kept under the module paths
// the tier-1 test floor names them by.
#[cfg(test)]
mod parallel_sm;
#[cfg(test)]
mod parallel_sn;
#[cfg(test)]
mod serial;

pub use config::{EraConfig, HorizontalMethod, MemoryLayout, RangePolicy};
pub use error::{EraError, EraResult};
pub use index::{SuffixIndex, SuffixIndexBuilder};
pub use pipeline::{
    construct, construct_shared_nothing, ConstructionPipeline, GroupScheduler, ScheduleOutcome,
    SerialScheduler, SharedMemoryScheduler, SharedNothingOptions, SharedNothingScheduler,
};
pub use query::{Query, QueryAnswer, QueryBatch, QueryEngine, QueryResponse, QueryStats};
pub use report::{ConstructionReport, NodeReport};
pub use vertical::{vertical_partition, PrefixFrequency, VerticalPartitioning, VirtualTree};

// Re-export the building blocks users commonly need alongside the index.
pub use era_string_store as string_store;
pub use era_string_store::{BlockCache, CacheSnapshot};
pub use era_string_store::{CrashMode, FaultVfs, StdVfs, Vfs};
pub use era_suffix_tree as suffix_tree;
pub use era_suffix_tree::CommitProtocol;

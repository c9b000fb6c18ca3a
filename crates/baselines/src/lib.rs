//! # era-baselines
//!
//! Re-implementations of the suffix-tree construction algorithms the ERA paper
//! compares against (§3, §6):
//!
//! * [`ukkonen`] — Ukkonen's in-memory `O(n)` algorithm (Table 2's in-memory
//!   representative; fast while everything fits in RAM, unusable beyond).
//! * [`wavefront`] — WaveFront (Ghoting & Makarychev, SIGMOD 2009), the
//!   closest out-of-core competitor: identical vertical partitioning but no
//!   grouping, a 50/50 memory split between buffers and the sub-tree, fixed
//!   read-ahead, and per-node top-down traversals of the partial tree. The
//!   parallel PWaveFront distributes sub-trees over threads.
//! * [`b2st`] — B²ST (Barsky et al., CIKM 2009): partition the string, sort
//!   each partition's suffixes into runs, merge the runs and batch-build the
//!   tree. Large temporary results, no published parallel version.
//! * [`trellis`] — TRELLIS (Phoophakdee & Zaki, SIGMOD 2007): the
//!   semi-disk-based partition-then-merge approach; sub-trees of every
//!   partition are written to disk and merged per prefix in a second phase.
//!
//! Every algorithm consumes the same [`era_string_store::StringStore`]
//! substrate and produces the same `(PartitionedSuffixTree,
//! ConstructionReport)` pair as ERA, so the benchmark harness can compare them
//! on identical footing. Where the original systems rely on details that are
//! out of scope here (exact buffer management, on-disk formats), the
//! re-implementations keep the *algorithmic* structure that determines the
//! paper's comparisons — number of string scans, memory split, merge phases,
//! per-node traversal cost — as documented in `DESIGN.md`.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod b2st;
pub mod trellis;
pub mod ukkonen;
pub mod wavefront;

pub use b2st::{b2st_construct, B2stConfig};
pub use trellis::{trellis_construct, TrellisConfig};
pub use ukkonen::{ukkonen_construct, ukkonen_tree};
pub use wavefront::{wavefront_construct, wavefront_construct_parallel, WaveFrontConfig};

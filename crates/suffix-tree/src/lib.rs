//! # era-suffix-tree
//!
//! Suffix-tree substrate for the ERA reproduction (Mansour et al., PVLDB 2011).
//!
//! The crate contains everything about the *data structure* that is shared by
//! ERA and the baseline construction algorithms:
//!
//! * [`SuffixTree`] — the mutable *construction* form: an arena of nodes
//!   whose edges store `(start, end)` offsets into the text, exactly as
//!   described in §2 of the paper; internal nodes own sorted child vectors so
//!   `BuildSubTree` can insert and split edges cheaply. It is built and
//!   split — never queried, validated or serialized; all of that happens on
//!   the frozen form, and nothing converts back.
//! * [`FlatTree`] ([`layout`]) — the frozen *serving* form: one contiguous
//!   arena of 16-byte records (vs ~3.5× that for the construction form),
//!   children packed adjacently in `first_char` order behind a
//!   `(children_start, children_len)` range, leaf/internal a tag bit. Every
//!   finished sub-tree is served in this layout, so the query hot path
//!   binary-searches adjacent cache lines instead of chasing per-node heap
//!   vectors.
//! * [`assemble`] — the paper's `BuildSubTree`, the batch assembly of a tree
//!   from lexicographically sorted leaves plus branching information:
//!   [`assemble::assemble_flat`] writes the flat arena straight from them
//!   (ERA's pipeline), and [`assemble::assemble_from_sorted`] builds the
//!   construction form with a stack, which is also how B²ST turns a merged
//!   suffix array + LCP stream into a tree.
//! * [`naive`] — a simple `O(n²)` reference builder used as the correctness
//!   oracle throughout the test suites.
//! * [`query`] — the one match loop of the workspace, on [`FlatTree`]:
//!   substring search, counting, enumeration, longest repeated substring and
//!   longest common substring. Matching is generic over [`TextSource`]: edge
//!   labels are resolved through a byte slice *or* any raw/packed
//!   [`StringStore`](era_string_store::StringStore) via
//!   [`StoreTextSource`](era_string_store::StoreTextSource), so queries can
//!   be served without materializing the text. There is one fallible method
//!   per query kind and layer: `FlatTree::try_*` →
//!   `PartitionedSuffixTree::try_*` → the engine and index of the `era` crate.
//! * [`partitioned`] — the final ERA output: a small packed-edge trie over
//!   the variable-length S-prefixes with one frozen sub-tree per prefix
//!   (Fig. 3), never merged into one tree: the operations that look at the
//!   whole index (longest repeated / longest common substring, the suffix
//!   array, deep validation) take one sub-tree at a time and join their
//!   findings up the trie.
//! * [`validate`] — invariant checking on the flat form: a text-free
//!   structural pass run on every load, and a deep validator that reads edge
//!   labels through any [`TextSource`] in time about linear in the index.
//! * [`serialize`] — `ERAFLAT1`, the compact little-endian binary form of a
//!   flat sub-tree (16 bytes/node, written verbatim, structurally validated
//!   on read): the segment format of the catalog and the only tree format.
//! * [`catalog`] — the `ERACAT1` single-file index container, the one
//!   persisted index format: text segment (raw or packed), contiguous
//!   `ERAFLAT1` group segments and a checksummed footer/TOC, committed
//!   atomically (write temp → fsync → fsync TOC → rename → dir fsync) through
//!   the [`Vfs`](era_string_store::Vfs) durability seam, with per-group
//!   generation numbers as the seam for group-granular incremental replace.
//!   One footer/TOC parser and one group loader serve both ways of reading
//!   it — a whole image ([`parse_catalog`]) or a file read once
//!   ([`CatalogFile`]) — and both formats decode every field through
//!   era-string-store's bounded [`ByteReader`](era_string_store::ByteReader). The crash-matrix harness in `era-check` proves every
//!   fault point of a save yields exactly the old or the new generation.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod assemble;
pub mod catalog;
pub mod layout;
pub mod naive;
pub mod node;
pub mod partitioned;
pub mod query;
pub mod serialize;
pub mod stats;
pub mod tree;
pub mod validate;

pub use assemble::{assemble_flat, assemble_from_sorted};
pub use catalog::{
    commit_catalog, encode_catalog, parse_catalog, Catalog, CatalogFile, CatalogGroup, CatalogText,
    CatalogToc, CommitProtocol, EncodedCatalog, TextSegment,
};
pub use layout::{FlatNode, FlatPartition, FlatTree, FLAT_NODE_BYTES};
pub use naive::naive_suffix_tree;
pub use node::{Node, NodeData, NodeId, NO_NODE};
pub use partitioned::{Partition, PartitionedSuffixTree, PrefixTrie};
pub use query::MatchResult;
pub use stats::TreeStats;
pub use tree::SuffixTree;

// Re-exported so query-layer callers don't need a direct `era-string-store`
// dependency to name the text abstraction the query methods traverse.
pub use era_string_store::{StoreTextSource, TextSource};
pub use validate::{
    validate_flat_structure, validate_flat_tree, validate_partitioned, validate_suffix_tree,
    ValidationError,
};

//! The user-facing index API.
//!
//! [`SuffixIndex`] bundles the constructed [`PartitionedSuffixTree`] with the
//! [`StringStore`](era_string_store::StringStore) its text is kept in — raw
//! or packed, in memory or left in a catalog file — plus the
//! [`ConstructionReport`]. A builder chooses between the
//! serial, shared-memory-parallel and disk-backed code paths; queries go
//! through the [`QueryEngine`] (see [`SuffixIndex::engine`] and
//! [`SuffixIndex::query_batch`]), with the classic `contains`/`count`/
//! `find_all` methods kept as thin single-query wrappers.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::path::Path;
use std::sync::{Arc, OnceLock};

use era_string_store::disk::DEFAULT_DISK_BLOCK;
use era_string_store::packed::packed_size;
use era_string_store::{
    Alphabet, BlockCache, DiskStore, InMemoryStore, PackedDiskStore, PackedMemoryStore, StdVfs,
    StoreError, StoreResult, StringStore, TextSource, Vfs, TERMINAL,
};
use era_suffix_tree::catalog::{
    commit_catalog, encode_catalog, groups_into_tree, CatalogFile, TextSegment, HEADER_LEN,
};
use era_suffix_tree::{
    validate_partitioned, CommitProtocol, PartitionedSuffixTree, ValidationError,
};

use crate::config::{EraConfig, HorizontalMethod, RangePolicy};
use crate::error::{EraError, EraResult};
use crate::pipeline::construct;
use crate::query::{QueryBatch, QueryEngine, QueryResponse};
use crate::report::ConstructionReport;

/// A queryable suffix-tree index over one string (or a generalized index over
/// several strings).
#[derive(Clone)]
pub struct SuffixIndex {
    /// The text the tree's edge labels point into. A built index holds it in
    /// memory in its build store's encoding, one byte a symbol or the packed
    /// payload; an opened one holds the catalog's text segment as it lies, in
    /// memory within the budget and in the file over it. Queries and
    /// [`Self::verify`] read it where it is.
    store: Arc<dyn StringStore>,
    /// [`Self::text`]'s copy of a text that is not a raw slice in memory,
    /// decoded or read on the first call and kept for the index's life.
    materialized: OnceLock<Arc<Vec<u8>>>,
    tree: PartitionedSuffixTree,
    report: ConstructionReport,
    /// Positions of separator symbols for generalized indexes (empty for a
    /// single string).
    separators: Vec<usize>,
    /// The shared block cache of a text served from a file (`None`
    /// for a text in memory, packed or not, and when disabled), created
    /// eagerly with the index and shared by every engine — and so every
    /// batch and worker — of this index; clones of the index share the same
    /// cache.
    block_cache: Option<Arc<BlockCache>>,
    /// Generation number stamped into the catalog by [`Self::save_to_file`]
    /// (fresh builds start at 0; [`Self::open_file`] restores the saved one).
    generation: u64,
}

impl std::fmt::Debug for SuffixIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuffixIndex")
            .field("text_len", &self.store.len())
            .field("packed", &self.is_packed())
            .field("generation", &self.generation)
            .field("tree", &self.tree)
            .finish_non_exhaustive()
    }
}

impl SuffixIndex {
    /// Starts building an index with default configuration.
    pub fn builder() -> SuffixIndexBuilder {
        SuffixIndexBuilder::default()
    }

    /// The indexed text, including the trailing terminal symbol.
    ///
    /// A raw text in memory is handed out as it lies. Any other — a packed
    /// payload, or a text left in a catalog file — is decoded or read on the
    /// first call and kept; that read panics on I/O failure. Queries do *not*
    /// need this — [`Self::engine`] and the query wrappers resolve edge
    /// labels straight from the store.
    pub fn text(&self) -> &[u8] {
        #[expect(clippy::expect_used, reason = "panicking accessor; the index uses try_text")]
        self.try_text().expect("materializing the text from its store failed")
    }

    /// [`Self::text`], with a failed store read (short read, EIO, a file
    /// truncated after open) surfaced as an error.
    fn try_text(&self) -> EraResult<&[u8]> {
        if let Some(text) = self.raw_text().or(self.materialized.get().map(|t| t.as_slice())) {
            return Ok(text);
        }
        let text = self.store.read_all()?;
        Ok(self.materialized.get_or_init(|| Arc::new(text)))
    }

    /// The text when its store holds it in memory one byte per symbol.
    fn raw_text(&self) -> Option<&[u8]> {
        let text = self.store.resident().filter(|_| !self.store.is_packed())?;
        Some(text.stored_bytes())
    }

    /// The store behind a store-backed index: `None` when the text is a raw
    /// slice in memory (an index built from a raw store, and a raw catalog
    /// opened within the budget), which [`Self::text`] hands out as it is.
    /// A packed text — built or opened — and a text left in a catalog file
    /// are served from the store.
    pub fn store(&self) -> Option<&dyn StringStore> {
        match self.raw_text() {
            Some(_) => None,
            None => Some(self.store.as_ref()),
        }
    }

    /// The alphabet the text was indexed under.
    pub fn alphabet(&self) -> &Alphabet {
        self.store.alphabet()
    }

    /// Whether the index keeps/persists the text in the packed encoding.
    pub fn is_packed(&self) -> bool {
        self.store.is_packed()
    }

    /// The underlying partitioned suffix tree.
    pub fn tree(&self) -> &PartitionedSuffixTree {
        &self.tree
    }

    /// The construction report (timings, I/O counters, tree statistics).
    pub fn report(&self) -> &ConstructionReport {
        &self.report
    }

    /// A [`QueryEngine`] over this index: a text in memory — raw bytes, or a
    /// packed payload compared code by code — is matched in place, and a
    /// text left in a file is read through the I/O-accounted store path.
    ///
    /// Engines over a file automatically share the index's block cache (see [`Self::block_cache`]), so even engines created per
    /// request serve repeated patterns warm. Tune or disable it with
    /// [`Self::with_cache_bytes`] / [`SuffixIndexBuilder::cache_bytes`].
    pub fn engine(&self) -> QueryEngine<'_> {
        let engine = QueryEngine::over_store(&self.tree, self.store.as_ref());
        match self.block_cache() {
            Some(cache) => engine.with_cache(Arc::clone(cache)),
            None => engine,
        }
    }

    /// The shared block cache serving this index's queries when its
    /// text stays in a file: `None` when the text is in memory, raw or packed
    /// (it is matched in place, with no store reads to save), and when
    /// caching is disabled (`cache_bytes` of 0).
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// Replaces the serving cache capacity (`0` disables caching). Any
    /// previously created cache is dropped; the next [`Self::engine`] starts
    /// cold with the new bound. An index whose text is in memory gets no
    /// cache whatever the capacity.
    pub fn with_cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.block_cache = (cache_bytes > 0 && self.store.resident().is_none())
            .then(|| Arc::new(BlockCache::new(cache_bytes)));
        self
    }

    /// Answers a batch of typed queries in one engine pass (single-threaded;
    /// use `engine().threads(n).run(batch)` for a parallel pass).
    pub fn query_batch(&self, batch: &QueryBatch) -> EraResult<QueryResponse> {
        self.engine().run(batch)
    }

    /// Whether `pattern` occurs in the text.
    ///
    /// Thin wrapper over [`Self::engine`]; panics on store I/O failure (use
    /// [`Self::query_batch`] for fallible store-backed querying).
    pub fn contains(&self, pattern: &[u8]) -> bool {
        #[expect(clippy::expect_used, reason = "panicking API; try_ variants propagate")]
        self.engine().contains(pattern).expect("query I/O failed")
    }

    /// Number of occurrences of `pattern`.
    ///
    /// Thin wrapper over [`Self::engine`]; panics on store I/O failure (use
    /// [`Self::query_batch`] for fallible store-backed querying).
    pub fn count(&self, pattern: &[u8]) -> usize {
        #[expect(clippy::expect_used, reason = "panicking API; try_ variants propagate")]
        self.engine().count(pattern).expect("query I/O failed")
    }

    /// All occurrence positions of `pattern`, in ascending position order.
    ///
    /// Thin wrapper over [`Self::engine`]; panics on store I/O failure (use
    /// [`Self::query_batch`] for fallible store-backed querying).
    pub fn find_all(&self, pattern: &[u8]) -> Vec<usize> {
        #[expect(clippy::expect_used, reason = "panicking API; try_ variants propagate")]
        self.engine().find_all(pattern).expect("query I/O failed")
    }

    /// The longest substring that occurs at least twice, as
    /// `(offset, length)`. Read off the tree alone: the text is not touched.
    pub fn longest_repeated_substring(&self) -> Option<(usize, usize)> {
        self.tree.longest_repeated_substring().map(|(off, len)| (off as usize, len as usize))
    }

    /// The longest common substring of the two strings of a generalized index
    /// built with [`SuffixIndexBuilder::build_generalized`] from exactly two
    /// strings. Returns the substring itself.
    pub fn longest_common_substring(&self) -> EraResult<Vec<u8>> {
        let &[sep] = self.separators.as_slice() else {
            return Err(EraError::input(
                "longest_common_substring requires a generalized index over exactly two strings",
            ));
        };
        let Some((off, len)) = self.tree.longest_common_substring(sep) else {
            return Ok(Vec::new());
        };
        let text = self.engine().source();
        let bytes: StoreResult<Vec<u8>> =
            (off..off + len).map(|pos| text.symbol_at(pos as usize)).collect();
        Ok(bytes?)
    }

    /// The suffix array of the indexed text (lexicographically sorted suffix
    /// offsets) — a by-product of the lexicographically ordered leaves.
    pub fn suffix_array(&self) -> Vec<u32> {
        self.tree.lexicographic_suffixes()
    }

    /// Deep-verifies the index: every sub-tree is validated against the text
    /// (structure, edge labels, leaf suffixes) and the partition leaves must
    /// cover exactly the suffixes `0..text_len`.
    ///
    /// This is the text-backed check behind [`EraConfig::paranoid`] (and
    /// `era-check fsck --deep`). It looks at one sub-tree at a time and reads
    /// the text where the index keeps it, through the same view as a query —
    /// a packed payload code by code, a text left in a file block-wise
    /// through its store and block cache, neither ever materialized — at
    /// a cost of about one symbol per edge plus the sum of the text's LCP
    /// array (≈ `n log n` on random text, `text_len / 8` bytes of scratch),
    /// so it is not part of the ordinary serving path. The cheap structural
    /// subset runs unconditionally whenever a flat tree is deserialized.
    pub fn verify(&self) -> EraResult<()> {
        match validate_partitioned(&self.tree, &self.engine().source()) {
            Ok(()) => Ok(()),
            Err(ValidationError::TextRead(e)) => Err(EraError::Io(std::io::Error::other(e))),
            Err(e) => Err(EraError::corrupt(e.to_string())),
        }
    }

    /// The generation number [`Self::save_to_file`] stamps into the catalog.
    ///
    /// Fresh builds start at 0; [`Self::open_file`] restores the saved value,
    /// so a reopen-and-resave naturally carries the generation forward (bump
    /// it with [`Self::with_generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Returns the index with its catalog generation set to `generation`.
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// Saves the index as a single-file `ERACAT1` catalog at `path`,
    /// atomically: write temp → fsync segments → fsync TOC → rename →
    /// directory fsync. A crash at any point leaves either the previous
    /// catalog or the new one — never a third state (the crash-matrix
    /// harness in `era-check` proves this over every fault point).
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> EraResult<()> {
        self.save_to_file_with(path, &StdVfs, CommitProtocol::Sound)
    }

    /// [`Self::save_to_file`] through an explicit durability seam: the
    /// fault-injection harness passes a
    /// [`FaultVfs`](era_string_store::FaultVfs) and, for its self-test, the
    /// seeded-bug [`CommitProtocol::TocBeforeSegmentSync`].
    ///
    /// A text in memory is written from the bytes it is held in — a packed
    /// payload as it is. A text left in a file is read for the write, a
    /// packed one as its codes with nothing decoded, and dropped after it,
    /// so saving never keeps a copy of the text.
    pub fn save_to_file_with(
        &self,
        path: impl AsRef<Path>,
        vfs: &dyn Vfs,
        protocol: CommitProtocol,
    ) -> EraResult<()> {
        let read;
        let held = match self.store.resident() {
            Some(text) => text.stored_bytes(),
            None => {
                read = if self.is_packed() {
                    packed_payload(&*self.store)?
                } else {
                    self.store.read_all()?
                };
                &read
            }
        };
        let (text_len, alphabet) = (self.store.len(), self.alphabet());
        let segment = if self.is_packed() {
            TextSegment::Packed { payload: held, text_len }
        } else {
            TextSegment::Raw(held)
        };
        let encoded = encode_catalog(self.generation, segment, alphabet, &self.tree)?;
        commit_catalog(path.as_ref(), vfs, protocol, &encoded)?;
        Ok(())
    }

    /// Opens a single-file catalog written by [`Self::save_to_file`] under
    /// the default configuration (see [`Self::open_file_with`]).
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open_file(path: impl AsRef<Path>) -> EraResult<SuffixIndex> {
        Self::open_file_with(path, &EraConfig::default())
    }

    /// Opens a catalog under an explicit configuration.
    ///
    /// The footer, header and TOC are read first, then each segment once, in
    /// file order. The text segment is hashed as it is read and checked
    /// against the TOC. One that fits [`EraConfig::memory_budget`] is read
    /// into memory and held there — raw bytes in a [`InMemoryStore`], a
    /// packed payload in a [`PackedMemoryStore`], whose codes queries match
    /// in place, with no block cache. A larger one *stays on disk*: it is
    /// hashed through a bounded buffer, and queries read it block-wise from a
    /// [`DiskStore`]/[`PackedDiskStore`] over the file's text segment, with
    /// the I/O of every batch in [`QueryResponse::stats`]. That bounds the
    /// text's share of memory; the group trees (~30 bytes per symbol, against
    /// ≤ 1 for the text) are read in one piece after the text and loaded
    /// whole in either mode.
    ///
    /// [`EraConfig::cache_bytes`] sizes the serving cache;
    /// [`EraConfig::paranoid`] deep-verifies the opened index before
    /// returning ([`Self::verify`]; an on-disk text is read block-wise and
    /// stays on disk).
    #[deny(
        clippy::cast_possible_truncation,
        clippy::arithmetic_side_effects,
        clippy::indexing_slicing
    )]
    pub fn open_file_with(path: impl AsRef<Path>, config: &EraConfig) -> EraResult<SuffixIndex> {
        let mut file = CatalogFile::open(path).map_err(catalog_error)?;
        let in_memory = file.toc().text_bytes <= config.memory_budget;
        let text = file.read_text(in_memory).map_err(catalog_error)?;
        let groups = file.load_groups().map_err(catalog_error)?;
        let (file, toc) = file.into_parts();
        let alphabet = toc.alphabet;
        let (text_at, block) = (HEADER_LEN as u64, DEFAULT_DISK_BLOCK);
        let store: Arc<dyn StringStore> = match (text, toc.packed) {
            (Some(text), false) => Arc::new(InMemoryStore::new(text, alphabet).map_err(bad_text)?),
            (Some(payload), true) => Arc::new(
                PackedMemoryStore::from_payload(payload, toc.text_len, alphabet)
                    .map_err(bad_text)?,
            ),
            (None, false) => {
                let len = toc.text_bytes as u64;
                let region = DiskStore::open_region(file, text_at, len, alphabet, block);
                Arc::new(region.map_err(bad_text)?)
            }
            (None, true) => {
                let region =
                    PackedDiskStore::open_region(file, text_at, toc.text_len, alphabet, block);
                Arc::new(region.map_err(bad_text)?)
            }
        };
        let tree = groups_into_tree(toc.text_len, groups);
        assemble(store, tree, toc.generation, config)
    }
}

/// Finishes constructing a built or opened index: wires the serving cache
/// and runs the paranoid deep verification when configured.
fn assemble(
    store: Arc<dyn StringStore>,
    tree: PartitionedSuffixTree,
    generation: u64,
    config: &EraConfig,
) -> EraResult<SuffixIndex> {
    let index = SuffixIndex {
        store,
        materialized: OnceLock::new(),
        tree,
        report: ConstructionReport::default(),
        separators: Vec::new(),
        block_cache: None,
        generation,
    }
    .with_cache_bytes(config.cache_bytes);
    if config.paranoid {
        index.verify()?;
    }
    Ok(index)
}

/// The payload of a packed store's text: the codes of its body, read in one
/// piece, with the bits past the last code cleared — the bytes
/// [`PackedCodec::pack_body`](era_string_store::PackedCodec::pack_body)
/// makes of the decoded body.
fn packed_payload(store: &dyn StringStore) -> StoreResult<Vec<u8>> {
    let (body, bits) = (store.len().saturating_sub(1), store.code_bits());
    let mut payload = vec![0u8; packed_size(body, bits)];
    #[expect(clippy::disallowed_methods, reason = "one accounted read of the whole payload")]
    store.read_codes_at(0, body, &mut payload)?;
    let spare = body * bits as usize % 8;
    if let (Some(last), true) = (payload.last_mut(), spare != 0) {
        *last &= (1u8 << spare) - 1;
    }
    Ok(payload)
}

/// Maps a catalog open/parse failure onto [`EraError`]: invalid bytes are
/// corruption, everything else stays an I/O error.
fn catalog_error(e: std::io::Error) -> EraError {
    if e.kind() == std::io::ErrorKind::InvalidData {
        EraError::corrupt(e.to_string())
    } else {
        EraError::Io(e)
    }
}

/// Maps a failure to put a store over the catalog's text segment: a segment
/// the verified TOC promised but the file cannot serve, a raw text with a
/// byte outside its alphabet or a packed payload with a code outside it, is
/// corruption like every other bad catalog; file-system failures stay I/O
/// errors.
fn bad_text(e: StoreError) -> EraError {
    match e {
        StoreError::Io(io) => EraError::Io(io),
        other => EraError::corrupt(other.to_string()),
    }
}

/// Builder for [`SuffixIndex`].
#[derive(Debug, Clone, Default)]
pub struct SuffixIndexBuilder {
    config: EraConfig,
}

impl SuffixIndexBuilder {
    /// Sets the total memory budget in bytes.
    pub fn memory_budget(mut self, bytes: usize) -> Self {
        self.config.memory_budget = bytes;
        self
    }

    /// Sets the size of the read-ahead buffer `R` in bytes.
    pub fn r_buffer_size(mut self, bytes: usize) -> Self {
        self.config.r_buffer_size = Some(bytes);
        self
    }

    /// Sets the number of worker threads (1 = serial). This is what picks
    /// the scheduler: one thread builds with the [`crate::SerialScheduler`],
    /// more than one with the [`crate::SharedMemoryScheduler`].
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Chooses the range policy (elastic by default).
    pub fn range_policy(mut self, policy: RangePolicy) -> Self {
        self.config.range_policy = policy;
        self
    }

    /// Chooses the horizontal-partitioning variant (ERA-str+mem by default).
    pub fn horizontal_method(mut self, method: HorizontalMethod) -> Self {
        self.config.horizontal = method;
        self
    }

    /// Enables or disables virtual-tree grouping.
    pub fn group_virtual_trees(mut self, enabled: bool) -> Self {
        self.config.group_virtual_trees = enabled;
        self
    }

    /// Enables or disables the disk-seek optimisation.
    pub fn seek_optimization(mut self, enabled: bool) -> Self {
        self.config.seek_optimization = enabled;
        self
    }

    /// Builds over a bit-packed store (§6.1: 2-bit DNA, 5-bit
    /// protein/English), cutting the bytes every construction scan fetches by
    /// the packing ratio. In-memory builds pack the text up front; file
    /// builds pack the raw file into a sibling `.packed` file first (removed
    /// when the build finishes). Files already in the packed format are
    /// detected and used directly regardless of this flag.
    pub fn packed(mut self, enabled: bool) -> Self {
        self.config.packed = enabled;
        self
    }

    /// Sets the capacity of the serving path's shared block cache in bytes
    /// (0 disables it). Only store-backed engines consult the cache;
    /// see [`EraConfig::cache_bytes`].
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.config.cache_bytes = bytes;
        self
    }

    /// Enables the deep (text-backed) validation pass on the finished build:
    /// the constructed index is run through [`SuffixIndex::verify`] before it
    /// is returned. See [`EraConfig::paranoid`].
    pub fn paranoid(mut self, enabled: bool) -> Self {
        self.config.paranoid = enabled;
        self
    }

    /// Uses a fully custom configuration.
    pub fn config(mut self, config: EraConfig) -> Self {
        self.config = config;
        self
    }

    /// Returns the effective configuration.
    pub fn peek_config(&self) -> &EraConfig {
        &self.config
    }

    /// Builds the index over an in-memory string (the terminal is appended;
    /// the alphabet is inferred).
    pub fn build_from_bytes(self, body: &[u8]) -> EraResult<SuffixIndex> {
        let alphabet = Alphabet::infer(body)?;
        self.build_from_bytes_with_alphabet(body, alphabet)
    }

    /// Builds the index over an in-memory string with an explicit alphabet.
    pub fn build_from_bytes_with_alphabet(
        self,
        body: &[u8],
        alphabet: Alphabet,
    ) -> EraResult<SuffixIndex> {
        if self.config.packed {
            let store = PackedMemoryStore::from_body(body, alphabet)?;
            self.build_from_store(&store, Vec::new())
        } else {
            let store = InMemoryStore::from_body(body, alphabet)?;
            self.build_from_store(&store, Vec::new())
        }
    }

    /// Builds the index over a string stored in a file (disk-based
    /// construction: the file is only read through block-sized sequential
    /// scans).
    ///
    /// Raw files must already be terminated with the byte `0`. Files in the
    /// packed format (see [`PackedDiskStore`]) are detected by their magic
    /// and opened packed; with [`Self::packed`] enabled, a raw file is packed
    /// into a sibling `<name>.packed` file first (one streaming scan; the
    /// sibling is removed when the build finishes).
    pub fn build_from_path(
        self,
        path: impl AsRef<Path>,
        alphabet: Alphabet,
    ) -> EraResult<SuffixIndex> {
        let path = path.as_ref();
        let block = self.config.input_buffer_size.max(4 << 10);
        // A packed store decodes `block_size()` symbols per window block, so
        // its *packed* block is scaled down by the packing ratio: the decoded
        // scan window then covers the same `block` symbols (and bytes of
        // memory) as a raw build with the same configuration.
        let packed_block = ((block * alphabet.bits_per_symbol() as usize).div_ceil(8)).max(512);
        if let Some(store) = PackedDiskStore::open_if_packed(path, packed_block)? {
            if store.alphabet().symbols() != alphabet.symbols() {
                return Err(EraError::input(format!(
                    "packed file {} stores a different alphabet than the one supplied",
                    path.display()
                )));
            }
            return self.build_from_store(&store, Vec::new());
        }
        let raw = DiskStore::open(path, alphabet, block)?;
        if self.config.packed {
            // Unique sibling name: concurrent packed builds of the same input
            // must not truncate or delete each other's conversion file, and a
            // user file that happens to carry the suffix stays untouched.
            let packed_path = era_string_store::packed_store::unique_sibling(path, "packed");
            let store = PackedDiskStore::pack_store(&raw, &packed_path, packed_block)?
                .cleanup_on_drop(true);
            self.build_from_store(&store, Vec::new())
        } else {
            self.build_from_store(&raw, Vec::new())
        }
    }

    /// Builds a generalized index over several strings.
    ///
    /// The strings are concatenated with a separator symbol that must not
    /// occur in any of them (byte `1`); the usual suffix-tree identities for
    /// generalized indexes then apply (longest common substring etc.).
    pub fn build_generalized(self, strings: &[&[u8]]) -> EraResult<SuffixIndex> {
        if strings.is_empty() {
            return Err(EraError::input("need at least one string"));
        }
        const SEP: u8 = 1;
        for s in strings {
            if s.contains(&SEP) || s.contains(&TERMINAL) {
                return Err(EraError::input(
                    "input strings must not contain the separator (1) or terminal (0) bytes",
                ));
            }
        }
        let mut body = Vec::with_capacity(strings.iter().map(|s| s.len() + 1).sum());
        let mut separators = Vec::new();
        for (i, s) in strings.iter().enumerate() {
            body.extend_from_slice(s);
            if i + 1 < strings.len() {
                separators.push(body.len());
                body.push(SEP);
            }
        }
        if self.config.packed {
            let store = PackedMemoryStore::from_body_inferred(&body)?;
            self.build_from_store(&store, separators)
        } else {
            let store = InMemoryStore::from_body_inferred(&body)?;
            self.build_from_store(&store, separators)
        }
    }

    /// Builds the index over any [`StringStore`]. The index keeps the text
    /// in memory in the store's encoding: a raw store's bytes, or a packed
    /// store's payload as it lies, read as codes with nothing decoded and
    /// saved as it is.
    pub fn build_from_store<S: StringStore>(
        self,
        store: &S,
        separators: Vec<usize>,
    ) -> EraResult<SuffixIndex> {
        let (tree, report) = construct(store, &self.config)?;
        let alphabet = store.alphabet().clone();
        let text: Arc<dyn StringStore> = if store.is_packed() {
            let payload = packed_payload(store)?;
            Arc::new(PackedMemoryStore::from_payload(payload, store.len(), alphabet)?)
        } else {
            Arc::new(InMemoryStore::new(store.read_all()?, alphabet)?)
        };
        let mut index = assemble(text, tree, 0, &self.config)?;
        index.report = report;
        index.separators = separators;
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QueryBatch};
    use era_string_store::PackedCodec;

    #[test]
    fn quickstart_queries() {
        let text = b"TGGTGGTGGTGCGGTGATGGTGC";
        let index = SuffixIndex::builder().memory_budget(1 << 20).build_from_bytes(text).unwrap();
        assert_eq!(index.count(b"TG"), 7);
        assert_eq!(index.find_all(b"TGC"), vec![9, 20]);
        assert!(index.contains(b"GGTGATG"));
        assert!(!index.contains(b"AAA"));
        assert_eq!(index.suffix_array().len(), text.len() + 1);
        assert!(index.report().elapsed.as_nanos() > 0);
        assert!(index.store().is_none());
        assert!(!index.is_packed());
    }

    #[test]
    fn find_all_positions_are_ascending() {
        // Regression: the docs promise ascending positions, but a sub-tree's
        // leaves come out in lexicographic suffix order — "an" in "banana"
        // yields lexicographic [1, 3] vs ascending [1, 3] but "na" yields
        // [4, 2]: the index must sort.
        let index = SuffixIndex::builder().build_from_bytes(b"banana").unwrap();
        assert_eq!(index.find_all(b"na"), vec![2, 4]);
        let index = SuffixIndex::builder().build_from_bytes(b"mississippi").unwrap();
        for pattern in [&b"i"[..], b"ss", b"issi", b"p", b"s"] {
            let positions = index.find_all(pattern);
            assert!(positions.windows(2).all(|w| w[0] < w[1]), "pattern {pattern:?}");
        }
    }

    #[test]
    fn longest_repeated_substring() {
        let index = SuffixIndex::builder().build_from_bytes(b"mississippi").unwrap();
        let (off, len) = index.longest_repeated_substring().unwrap();
        assert_eq!(&index.text()[off..off + len], b"issi");
    }

    #[test]
    fn generalized_lcs() {
        let a = b"the quick brown fox".to_vec();
        let b = b"a quick brown dog".to_vec();
        let index = SuffixIndex::builder().build_generalized(&[&a, &b]).unwrap();
        let lcs = index.longest_common_substring().unwrap();
        assert_eq!(lcs, b" quick brown ");
    }

    #[test]
    fn generalized_rejects_bad_input() {
        assert!(SuffixIndex::builder().build_generalized(&[]).is_err());
        let with_sep = vec![b'a', 1u8, b'b'];
        assert!(SuffixIndex::builder().build_generalized(&[&with_sep]).is_err());
        let single = b"abc".to_vec();
        let idx = SuffixIndex::builder().build_generalized(&[&single]).unwrap();
        assert!(idx.longest_common_substring().is_err());
    }

    fn temp_catalog(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("era-index-{name}-{}.eracat", std::process::id()))
    }

    /// A configuration whose memory budget no text segment fits, so
    /// `open_file_with` leaves the text on disk.
    fn on_disk() -> EraConfig {
        EraConfig { memory_budget: 1, ..EraConfig::default() }
    }

    #[test]
    fn save_and_load_roundtrip() {
        let path = temp_catalog("roundtrip");
        let index = SuffixIndex::builder().build_from_bytes(b"abracadabra").unwrap();
        index.save_to_file(&path).unwrap();
        let loaded = SuffixIndex::open_file(&path).unwrap();
        assert!(loaded.store().is_none(), "a raw text within the budget is held in memory");
        assert_eq!(loaded.find_all(b"abra"), index.find_all(b"abra"));
        assert_eq!(loaded.count(b"a"), index.count(b"a"));
        assert_eq!(loaded.alphabet().symbols(), index.alphabet().symbols());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn paranoid_load_rejects_text_inconsistent_index() {
        // A catalog pairing a tree with a *different* text of the same length
        // is structurally valid and checksums clean (the cheap always-on pass
        // cannot see it), so the default open accepts it — only the paranoid
        // deep verification catches the lie against the text, in both open
        // modes.
        let path = temp_catalog("paranoid");
        let index = SuffixIndex::builder()
            .paranoid(true) // deep-verifies the fresh build too
            .build_from_bytes(b"GATTACAGATTACA")
            .unwrap();
        let wrong_text = TextSegment::Raw(b"GATTACAGATTACC\0");
        let encoded = encode_catalog(0, wrong_text, index.alphabet(), index.tree()).unwrap();
        commit_catalog(&path, &StdVfs, CommitProtocol::Sound, &encoded).unwrap();

        for config in [EraConfig::default(), on_disk()] {
            assert!(
                SuffixIndex::open_file_with(&path, &config).is_ok(),
                "shallow open must still accept it"
            );
            match SuffixIndex::open_file_with(&path, &EraConfig { paranoid: true, ..config }) {
                Err(EraError::Corrupt(_)) => {}
                other => panic!("paranoid open must report corruption, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn verify_reads_an_on_disk_text_where_it_lies() {
        // Store-backed indexes are verified through their store: the text is
        // never pulled into memory for it.
        let path = temp_catalog("verify-on-disk");
        let body = b"GATTACAGATTACAGGATCCGATTACAGATTACA";
        for packed in [false, true] {
            SuffixIndex::builder()
                .packed(packed)
                .build_from_bytes(body)
                .unwrap()
                .save_to_file(&path)
                .unwrap();
            let served = SuffixIndex::open_file_with(&path, &on_disk()).unwrap();
            served.verify().unwrap();
            assert_eq!(served.longest_repeated_substring(), Some((20, 14)), "GATTACAGATTACA");
            let store = served.store().expect("the text stayed on disk");
            assert!(store.stats().snapshot().bytes_read > 0, "packed={packed}");
            assert!(
                served.materialized.get().is_none(),
                "packed={packed}: verify materialized the text"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn packed_payload_with_a_code_outside_the_alphabet_is_corrupt() {
        // 20 amino acids leave 12 of the 32 five-bit codes unused; a catalog
        // whose checksums all hold over such a code is rejected by the
        // in-budget open (which adopts the payload) as corrupt.
        let path = temp_catalog("packed-code");
        let body = b"ACDEFGHIKLMNPQRSTVWYACDEFGHIKL";
        let index = SuffixIndex::builder()
            .packed(true)
            .build_from_bytes_with_alphabet(body, Alphabet::protein())
            .unwrap();
        let mut payload = PackedCodec::new(index.alphabet()).pack_body(body).unwrap();
        payload[0] |= 0x1F;
        let text = TextSegment::Packed { payload: &payload, text_len: body.len() + 1 };
        let encoded = encode_catalog(0, text, index.alphabet(), index.tree()).unwrap();
        commit_catalog(&path, &StdVfs, CommitProtocol::Sound, &encoded).unwrap();
        match SuffixIndex::open_file(&path) {
            Err(EraError::Corrupt(why)) => assert!(why.contains("outside the alphabet"), "{why}"),
            other => panic!("expected a corrupt-catalog error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn raw_text_with_a_byte_outside_the_alphabet_is_corrupt() {
        // The raw twin of the packed case above: encode_catalog computes the
        // text and TOC checksums over the foreign byte, so only the in-budget
        // open, which puts a validating store over the text, can refuse it.
        let path = temp_catalog("raw-byte");
        let index = SuffixIndex::builder().build_from_bytes(b"GATTACAGATTACA").unwrap();
        let foreign = TextSegment::Raw(b"GATTACAGAXTACA\0");
        let encoded = encode_catalog(0, foreign, index.alphabet(), index.tree()).unwrap();
        commit_catalog(&path, &StdVfs, CommitProtocol::Sound, &encoded).unwrap();
        match SuffixIndex::open_file(&path) {
            Err(EraError::Corrupt(why)) => {
                assert!(why.contains("0x58 at position 9 is not in the alphabet"), "{why}")
            }
            other => panic!("expected a corrupt-catalog error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn saving_writes_the_opened_catalog_again_without_keeping_the_text() {
        // Whether the text was kept in memory or left in the file, a reopened
        // index saves the very bytes it was opened from, and holds no
        // copy of its text afterwards.
        let (first, again) = (temp_catalog("save-first"), temp_catalog("save-again"));
        let body = b"GATTACAGATTACAGGATCCGATTACAGATTACA";
        for packed in [false, true] {
            let built = SuffixIndex::builder().packed(packed).build_from_bytes(body).unwrap();
            built.with_generation(3).save_to_file(&first).unwrap();
            let original = std::fs::read(&first).unwrap();
            for config in [EraConfig::default(), on_disk()] {
                let opened = SuffixIndex::open_file_with(&first, &config).unwrap();
                opened.save_to_file(&again).unwrap();
                let mode = format!("packed={packed}, budget={}", config.memory_budget);
                assert!(std::fs::read(&again).unwrap() == original, "{mode}: catalog differs");
                assert!(opened.materialized.get().is_none(), "{mode}: saving kept the text");
            }
        }
        std::fs::remove_file(&first).unwrap();
        std::fs::remove_file(&again).unwrap();
    }

    #[test]
    fn packed_save_load_roundtrip_keeps_the_encoding() {
        // Regression: saving used to discard the packed encoding and write
        // the text raw. A packed-built index must persist packed and be
        // detected on open, serving queries from the packed store.
        let path = temp_catalog("packed");
        let body = b"GATTACAGATTACAGGATCCGATTACA";
        let index = SuffixIndex::builder().packed(true).build_from_bytes(body).unwrap();
        assert!(index.is_packed());
        // The build keeps the payload it read, with nothing decoded: the bytes
        // packing the text makes, even where the build store's spare bits
        // past the last code were set.
        let payload = PackedCodec::new(index.alphabet()).pack_body(body).unwrap();
        let held = |index: &SuffixIndex| {
            let store = index.store().expect("a packed build serves from its payload");
            store.resident().map(|text| text.stored_bytes().to_vec())
        };
        assert_eq!(held(&index), Some(payload.clone()));
        let mut spare_bits_set = payload.clone();
        *spare_bits_set.last_mut().unwrap() |= 0xC0; // 27 codes use 6 bits of it
        let store = PackedMemoryStore::from_payload(
            spare_bits_set,
            body.len() + 1,
            index.alphabet().clone(),
        )
        .unwrap();
        let rebuilt = SuffixIndex::builder().packed(true).build_from_store(&store, vec![]).unwrap();
        assert_eq!(held(&rebuilt), Some(payload));
        index.save_to_file(&path).unwrap();

        let loaded = SuffixIndex::open_file(&path).unwrap();
        assert!(loaded.is_packed());
        let store = loaded.store().expect("packed open serves from the store");
        assert!(store.is_packed());
        assert_eq!(loaded.find_all(b"GATTACA"), index.find_all(b"GATTACA"));
        assert_eq!(loaded.count(b"AT"), index.count(b"AT"));
        // The payload in memory is matched code by code where it lies: no
        // store read, and no block cache to fill.
        assert_eq!(store.stats().snapshot().bytes_read, 0, "queries read the payload in place");
        assert!(loaded.block_cache().is_none(), "a resident packed text needs no block cache");
        // The text cache materializes lazily and matches.
        assert_eq!(loaded.text(), index.text());

        // Re-saving raw over the same path replaces the packed catalog.
        let raw = SuffixIndex::builder().build_from_bytes(body).unwrap();
        raw.save_to_file(&path).unwrap();
        let reloaded = SuffixIndex::open_file(&path).unwrap();
        assert!(!reloaded.is_packed());
        assert_eq!(reloaded.find_all(b"GATTACA"), index.find_all(b"GATTACA"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mmapless_engines_share_the_index_block_cache() {
        let path = temp_catalog("cache");
        let body = b"GATTACAGATTACAGGATCCGATTACAGATTACA";
        let built = SuffixIndex::builder().packed(true).build_from_bytes(body).unwrap();
        assert!(built.block_cache().is_none(), "in-memory indexes serve without a cache");
        built.save_to_file(&path).unwrap();
        let served = SuffixIndex::open_file_with(&path, &on_disk()).unwrap();

        let batch =
            QueryBatch::new().push(Query::locate(&b"GATTACA"[..])).push(Query::count(&b"AT"[..]));
        // Two *separate* engine() calls share the index-owned cache: the
        // second batch replays warm with zero store I/O.
        let cold = served.query_batch(&batch).unwrap();
        let warm = served.query_batch(&batch).unwrap();
        assert_eq!(cold.results, warm.results);
        assert!(cold.stats.io.bytes_read > 0);
        assert_eq!(warm.stats.io.bytes_read, 0, "second batch must be cache-served");
        assert!(warm.stats.cache.hits > 0);
        let cache = served.block_cache().expect("store-backed index owns a cache");
        assert!(cache.bytes() > 0);
        // Clones share the same cache object (not a lazily re-created one),
        // so per-worker clones of one index stay warm together.
        let clone = served.clone();
        assert!(Arc::ptr_eq(clone.block_cache().unwrap(), cache));

        // Disabling the cache turns the same index back into pure store I/O.
        let uncached = served.clone().with_cache_bytes(0);
        assert!(uncached.block_cache().is_none());
        let replay = uncached.query_batch(&batch).unwrap();
        assert_eq!(replay.results, cold.results);
        assert!(replay.stats.io.bytes_read > 0);
        assert_eq!(replay.stats.cache, era_string_store::CacheSnapshot::default());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn builder_knobs_are_applied() {
        let builder = SuffixIndex::builder()
            .memory_budget(123)
            .r_buffer_size(77)
            .threads(3)
            .range_policy(RangePolicy::Fixed(9))
            .horizontal_method(HorizontalMethod::StringOnly)
            .group_virtual_trees(false)
            .seek_optimization(false)
            .packed(true)
            .cache_bytes(5 << 20);
        let cfg = builder.peek_config();
        assert_eq!(cfg.cache_bytes, 5 << 20);
        assert_eq!(cfg.memory_budget, 123);
        assert_eq!(cfg.r_buffer_size, Some(77));
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.range_policy, RangePolicy::Fixed(9));
        assert_eq!(cfg.horizontal, HorizontalMethod::StringOnly);
        assert!(!cfg.group_virtual_trees);
        assert!(!cfg.seek_optimization);
        assert!(cfg.packed);
    }

    #[test]
    fn packed_builds_answer_like_raw_builds() {
        let text = b"TGGTGGTGGTGCGGTGATGGTGC";
        let raw = SuffixIndex::builder().memory_budget(1 << 20).build_from_bytes(text).unwrap();
        let packed = SuffixIndex::builder()
            .memory_budget(1 << 20)
            .packed(true)
            .build_from_bytes(text)
            .unwrap();
        assert_eq!(packed.suffix_array(), raw.suffix_array());
        assert_eq!(packed.count(b"TG"), 7);
        assert_eq!(packed.find_all(b"TGC"), raw.find_all(b"TGC"));
        assert_eq!(packed.text(), raw.text());
        assert!(packed.is_packed() && !raw.is_packed());
    }

    #[test]
    fn packed_path_builds_detect_and_convert() {
        let dir = std::env::temp_dir().join(format!("era-packed-index-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = b"GATTACAGATTACAGGATCCGATTACA";

        // A raw terminated file, built with packing: converted on the fly.
        let raw_path = dir.join("raw.era");
        let mut text = body.to_vec();
        text.push(0);
        std::fs::write(&raw_path, &text).unwrap();
        let from_raw = SuffixIndex::builder()
            .packed(true)
            .build_from_path(&raw_path, Alphabet::dna())
            .unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".packed"))
            .collect();
        assert!(leftovers.is_empty(), "conversion files must be cleaned up: {leftovers:?}");

        // A file already in the packed format: detected by magic.
        let packed_path = dir.join("pre.erap");
        {
            let _keep = PackedDiskStore::create(&packed_path, body, Alphabet::dna(), 4 << 10)
                .unwrap()
                .cleanup_on_drop(false);
        }
        let from_packed =
            SuffixIndex::builder().build_from_path(&packed_path, Alphabet::dna()).unwrap();
        assert_eq!(from_packed.suffix_array(), from_raw.suffix_array());
        assert!(from_packed.is_packed(), "magic-detected packed files keep the packed encoding");
        assert!(SuffixIndex::builder().build_from_path(&packed_path, Alphabet::protein()).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_input_files_fail_the_build() {
        // Opening a file checks a raw text's last byte and a packed file's
        // header; the build's first pass checks every symbol. Each file holds
        // 14 symbols and the terminal.
        let dir = std::env::temp_dir().join(format!("era-malformed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let interior_terminal = dir.join("interior.era");
        std::fs::write(&interior_terminal, b"GATTAC\0GATTACA\0").unwrap();
        let foreign_byte = dir.join("foreign.era");
        std::fs::write(&foreign_byte, b"GATTACAXATTACA\0").unwrap();
        let spare_code = dir.join("spare.erap");
        {
            let _keep = PackedDiskStore::create(
                &spare_code,
                b"MKVLAAGIVGLLLA",
                Alphabet::protein(),
                4 << 10,
            )
            .unwrap()
            .cleanup_on_drop(false);
        }
        let mut bytes = std::fs::read(&spare_code).unwrap();
        // The payload follows 16 header bytes and the 20-symbol table; code
        // 31 names no protein symbol and decodes as a terminal.
        bytes[16 + 20] |= 0x1F;
        std::fs::write(&spare_code, &bytes).unwrap();
        for (path, alphabet) in [
            (&interior_terminal, Alphabet::dna()),
            (&foreign_byte, Alphabet::dna()),
            (&spare_code, Alphabet::protein()),
        ] {
            let built = SuffixIndex::builder().build_from_path(path, alphabet);
            assert!(
                matches!(built, Err(EraError::Store(StoreError::InvalidText(_)))),
                "{}: {:?}",
                path.display(),
                built.err()
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn catalog_file_roundtrip_preserves_generation_and_encoding() {
        let path = std::env::temp_dir().join(format!("era-catalog-{}.eracat", std::process::id()));
        let body = b"GATTACAGATTACAGGATCCGATTACA";
        for packed in [false, true] {
            let index = SuffixIndex::builder()
                .packed(packed)
                .build_from_bytes(body)
                .unwrap()
                .with_generation(7);
            assert_eq!(index.generation(), 7);
            index.save_to_file(&path).unwrap();
            let opened = SuffixIndex::open_file(&path).unwrap();
            assert_eq!(opened.generation(), 7, "packed={packed}");
            assert_eq!(opened.is_packed(), packed);
            assert_eq!(opened.find_all(b"GATTACA"), index.find_all(b"GATTACA"));
            assert_eq!(opened.count(b"AT"), index.count(b"AT"));
            assert!(opened.contains(b"GGATCC"));
            assert_eq!(opened.text(), index.text());
            // Paranoid open deep-verifies the catalog's tree against its text.
            let config = EraConfig { paranoid: true, ..EraConfig::default() };
            SuffixIndex::open_file_with(&path, &config).unwrap();
        }
        std::fs::remove_file(&path).unwrap();
    }
}

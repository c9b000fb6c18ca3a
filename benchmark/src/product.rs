//! The only module that calls the product.
//!
//! Everything the benchmark does to the system under test — the four
//! end-to-end calls and every per-layer probe — goes through the functions
//! below, in harness-owned types, so that when a product API is renamed or
//! removed (ROADMAP items 2–3 plan to) a benchmark-only change re-points it
//! here and nowhere else. The pinned surface is listed in `README.md`.
//!
//! Deliberately *not* used: `save_to_dir_scattered*`, `open_mmapless*`,
//! `load_from_dir*` and the `construct_*` driver wrappers, which the roadmap
//! plans to delete.

use std::path::Path;
use std::sync::Arc;

use era::horizontal::build::build_partition;
use era::horizontal::prepare::{prepare_group, PreparedSubTree};
use era::horizontal::HorizontalParams;
use era::scan::collect_occurrences;
use era::{
    vertical_partition, EraConfig, GroupScheduler, Query, QueryAnswer, QueryBatch, QueryResponse,
    SharedMemoryScheduler, SuffixIndex, VirtualTree,
};
use era_string_store::{
    Alphabet, BlockCache, BlockCursor, DiskStore, PackedCodec, PackedDiskStore, PackedMemoryStore,
    StoreTextSource, StringStore, DEFAULT_CACHE_BLOCK_SYMBOLS,
};
use era_suffix_tree::{
    encode_catalog, parse_catalog, validate_flat_structure, Catalog, CatalogText, FlatTree,
    Partition, TextSegment,
};
use era_workloads::{DatasetKind, DatasetSpec};

use crate::oracle::{Answer, Op, OpKind, LOCATE_LIMIT};
use crate::workload::{TextKind, Workload};

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn dataset_kind(kind: TextKind) -> DatasetKind {
    match kind {
        TextKind::GenomeLike => DatasetKind::GenomeLike,
        TextKind::Protein => DatasetKind::Protein,
    }
}

fn alphabet(kind: TextKind) -> Alphabet {
    era_workloads::alphabet_for(dataset_kind(kind))
}

fn build_config(w: &Workload) -> EraConfig {
    EraConfig {
        memory_budget: w.memory_budget,
        threads: w.build_threads,
        packed: w.packed,
        ..EraConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Set-up: text generation and the oracle's suffix array
// ---------------------------------------------------------------------------

/// `era_workloads::generate`: the body (no terminal) of the workload's text.
pub fn generate_body(kind: TextKind, len: usize, seed: u64) -> Vec<u8> {
    era_workloads::generate(&DatasetSpec::new(dataset_kind(kind), len, seed))
}

/// `Alphabet::terminate`: validates the body and appends the terminal.
pub fn terminate(kind: TextKind, body: &[u8]) -> Res<Vec<u8>> {
    alphabet(kind).terminate(body).map_err(err)
}

/// The symbols of the workload's alphabet (terminal excluded).
pub fn symbols(kind: TextKind) -> Vec<u8> {
    alphabet(kind).symbols().to_vec()
}

/// `era_suffix_array::suffix_array`: the oracle every answer is checked
/// against.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    era_suffix_array::suffix_array(text)
}

// ---------------------------------------------------------------------------
// End to end: build, commit, reopen, serve
// ---------------------------------------------------------------------------

/// A built or reopened index.
pub struct Index(SuffixIndex);

/// What the product's `ConstructionReport` says about a build.
#[derive(Debug, Clone, Default)]
pub struct BuildCounters {
    pub text_len: usize,
    pub vertical_s: f64,
    pub horizontal_s: f64,
    pub vertical_scans: usize,
    pub partitions: usize,
    pub groups: usize,
    pub bytes_read: u64,
    pub full_scans: u64,
    pub blocks_skipped: u64,
    pub sequential_fraction: f64,
    pub nodes: usize,
    pub arena_bytes: usize,
    /// Busy time of every build worker (empty for a serial build).
    pub worker_busy_s: Vec<f64>,
}

/// What one served batch's `QueryStats` says.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeCounters {
    pub partition_visits: u64,
    pub store_bytes_read: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_decoded_bytes: u64,
}

impl ServeCounters {
    pub fn add(&mut self, other: &ServeCounters) {
        self.partition_visits += other.partition_visits;
        self.store_bytes_read += other.store_bytes_read;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.cache_decoded_bytes += other.cache_decoded_bytes;
    }
}

/// `SuffixIndexBuilder::build_from_path` under the workload's budget, thread
/// count and encoding. Packing, when asked for, happens inside.
pub fn build_from_path(path: &Path, w: &Workload) -> Res<Index> {
    SuffixIndex::builder()
        .config(build_config(w))
        .build_from_path(path, alphabet(w.text))
        .map(Index)
        .map_err(err)
}

/// `SuffixIndex::open_file_with` under the workload's serving cache size.
pub fn open_file(path: &Path, cache_bytes: usize) -> Res<Index> {
    let config = EraConfig { cache_bytes, ..EraConfig::default() };
    SuffixIndex::open_file_with(path, &config).map(Index).map_err(err)
}

impl Index {
    /// `SuffixIndex::report`.
    pub fn build_counters(&self) -> BuildCounters {
        let r = self.0.report();
        BuildCounters {
            text_len: r.text_len,
            vertical_s: r.vertical_time.as_secs_f64(),
            horizontal_s: r.horizontal_time.as_secs_f64(),
            vertical_scans: r.vertical_scans,
            partitions: r.partitions,
            groups: r.virtual_trees,
            bytes_read: r.io.bytes_read,
            full_scans: r.io.full_scans,
            blocks_skipped: r.io.blocks_skipped,
            sequential_fraction: r.io.sequential_fraction(),
            nodes: r.tree.nodes,
            arena_bytes: r.tree.arena_bytes,
            worker_busy_s: r.per_node.iter().map(|n| n.elapsed.as_secs_f64()).collect(),
        }
    }

    /// `SuffixIndex::save_to_file`: the crash-safe catalog commit.
    pub fn save_to_file(&self, path: &Path) -> Res<()> {
        self.0.save_to_file(path).map_err(err)
    }

    /// `SuffixIndex::query_batch`: one batch, one engine thread.
    pub fn serve(&self, batch: &Batch) -> Res<Response> {
        self.0.query_batch(&batch.0).map(Response).map_err(err)
    }

    /// `SuffixIndex::engine().threads(n).run`: one batch on a wider pool.
    pub fn serve_with_threads(&self, batch: &Batch, threads: usize) -> Res<Response> {
        self.0.engine().threads(threads).run(&batch.0).map(Response).map_err(err)
    }
}

/// A batch in the product's request type, converted outside the timed loop.
pub struct Batch(QueryBatch);

pub fn batch(ops: &[Op]) -> Batch {
    Batch(
        ops.iter()
            .map(|op| match op.kind {
                OpKind::Count => Query::count(op.pattern.clone()),
                OpKind::Contains => Query::contains(op.pattern.clone()),
                OpKind::LocatePage => Query::locate_page(op.pattern.clone(), 0, LOCATE_LIMIT),
            })
            .collect(),
    )
}

/// The product's reply to one batch.
pub struct Response(QueryResponse);

impl Response {
    /// The answers in harness types, for comparison with the oracle.
    pub fn answers(&self) -> Vec<Answer> {
        self.0
            .results
            .iter()
            .map(|a| match a {
                QueryAnswer::Count(n) => Answer::Count(*n),
                QueryAnswer::Contains(b) => Answer::Contains(*b),
                QueryAnswer::Locate(p) => Answer::Locate(p.clone()),
            })
            .collect()
    }

    pub fn counters(&self) -> ServeCounters {
        let s = &self.0.stats;
        ServeCounters {
            partition_visits: s.partition_visits as u64,
            store_bytes_read: s.io.bytes_read,
            cache_hits: s.cache.hits,
            cache_misses: s.cache.misses,
            cache_evictions: s.cache.evictions,
            cache_decoded_bytes: s.cache.decoded_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Probes: string store
// ---------------------------------------------------------------------------

/// The store a build of this workload scans: the raw `DiskStore` over the
/// text file, or the `PackedDiskStore` that `build_from_path` packs it into.
pub struct BuildStore(Box<dyn StringStore>);

/// Opens the build store the way `build_from_path` does. The block sizes
/// mirror that function (`input_buffer_size` for raw, scaled by the packing
/// ratio for packed); they are not part of its API, so a change there must
/// be mirrored here. `packed_path` is where a packed copy is written (and
/// removed again when the store is dropped).
pub fn open_build_store(text_path: &Path, packed_path: &Path, w: &Workload) -> Res<BuildStore> {
    let alphabet = alphabet(w.text);
    let block = build_config(w).input_buffer_size.max(4 << 10);
    let raw = DiskStore::open(text_path, alphabet.clone(), block).map_err(err)?;
    if !w.packed {
        return Ok(BuildStore(Box::new(raw)));
    }
    let packed_block = (block * alphabet.bits_per_symbol() as usize).div_ceil(8).max(512);
    let packed = PackedDiskStore::pack_store(&raw, packed_path, packed_block).map_err(err)?;
    Ok(BuildStore(Box::new(packed.cleanup_on_drop(true))))
}

impl BuildStore {
    fn store(&self) -> &dyn StringStore {
        self.0.as_ref()
    }

    /// One full sequential pass of `BlockCursor::slice`, block by block:
    /// read plus decode, nothing else. Returns the symbols seen.
    pub fn scan_pass(&self) -> Res<usize> {
        let store = self.store();
        let block = store.block_size().max(1);
        let mut cursor = BlockCursor::new(store, false);
        let (mut pos, mut seen) = (0usize, 0usize);
        while pos < store.len() {
            let slice = cursor.slice(pos, block).map_err(err)?;
            seen += std::hint::black_box(slice).len();
            pos += block;
        }
        Ok(seen)
    }
}

/// A `PackedCodec::pack_body` payload, for the decode probe.
pub struct PackedPayload {
    codec: PackedCodec,
    payload: Vec<u8>,
    symbols: usize,
}

pub fn pack_payload(kind: TextKind, body: &[u8]) -> Res<PackedPayload> {
    let codec = PackedCodec::new(&alphabet(kind));
    let payload = codec.pack_body(body).map_err(err)?;
    Ok(PackedPayload { codec, payload, symbols: body.len() })
}

impl PackedPayload {
    /// `PackedCodec::unpack` over the whole payload into `out`.
    pub fn unpack_into(&self, out: &mut Vec<u8>) -> usize {
        out.resize(self.symbols, 0);
        self.codec.unpack(&self.payload, 0, self.symbols, out);
        self.symbols
    }
}

/// A `BlockCache` whose every block is resident, for the hit-path probe.
pub struct WarmCache {
    cache: BlockCache,
    blocks: u64,
    block_len: usize,
}

pub fn warm_cache(blocks: u64) -> WarmCache {
    let block_len = DEFAULT_CACHE_BLOCK_SYMBOLS;
    // Twice the data, so no shard ever evicts.
    let cache = BlockCache::new(blocks as usize * block_len * 2);
    for b in 0..blocks {
        cache.insert(b, Arc::from(vec![b as u8; block_len]));
    }
    WarmCache { cache, blocks, block_len }
}

impl WarmCache {
    /// `BlockCache::get` of every block, `rounds` times over. Returns the
    /// hits, which must equal the lookups.
    pub fn get_all(&self, rounds: usize) -> u64 {
        let mut hits = 0u64;
        for round in 0..rounds as u64 {
            for i in 0..self.blocks {
                // A stride walk, so consecutive lookups land in different shards.
                let b = (i * 7 + round) % self.blocks;
                hits +=
                    u64::from(std::hint::black_box(self.cache.get(b, self.block_len)).is_some());
            }
        }
        hits
    }
}

// ---------------------------------------------------------------------------
// Probes: vertical partitioning, occurrence scan, horizontal phase, freeze
// ---------------------------------------------------------------------------

/// One virtual tree of `vertical_partition`.
pub struct Group(VirtualTree);

impl Group {
    pub fn frequency(&self) -> u64 {
        self.0.total_frequency()
    }

    fn prefixes(&self) -> Vec<Vec<u8>> {
        self.0.prefixes.iter().map(|p| p.prefix.clone()).collect()
    }
}

/// `vertical_partition` with the `FM` the workload's budget derives
/// (`EraConfig::memory_layout`), grouping on.
pub fn vertical_groups(store: &BuildStore, w: &Workload) -> Res<Vec<Group>> {
    let layout = build_config(w).memory_layout(store.store().alphabet()).map_err(err)?;
    let vertical = vertical_partition(store.store(), layout.fm, true).map_err(err)?;
    Ok(vertical.groups.into_iter().map(Group).collect())
}

/// The occurrence lists of one group's prefixes.
pub struct Occurrences(Vec<Vec<u32>>);

/// `scan::collect_occurrences`: one sequential pass for a whole group.
pub fn occurrence_pass(store: &BuildStore, group: &Group) -> Res<Occurrences> {
    collect_occurrences(store.store(), &group.prefixes()).map(Occurrences).map_err(err)
}

/// The `L`/`B` arrays of one group.
pub struct Prepared(Vec<PreparedSubTree>);

/// `horizontal::prepare::prepare_group` under the parameters the pipeline
/// derives for this workload (elastic range, seek optimisation on, the
/// scheduler's per-worker share of `R`).
pub fn prepare(
    store: &BuildStore,
    w: &Workload,
    group: &Group,
    occ: &Occurrences,
) -> Res<Prepared> {
    let config = build_config(w);
    let layout = config.memory_layout(store.store().alphabet()).map_err(err)?;
    let r_capacity = if w.build_threads > 1 {
        SharedMemoryScheduler::new(store.store(), w.build_threads).worker_r_capacity(&layout)
    } else {
        layout.r_bytes
    };
    let params = HorizontalParams {
        r_capacity,
        range_policy: config.range_policy,
        min_range: config.min_range,
        seek_optimization: config.seek_optimization,
    };
    prepare_group(store.store(), &group.prefixes(), &occ.0, &params).map(Prepared).map_err(err)
}

/// The construction-form sub-trees of one group.
pub struct Partitions(Vec<Partition>);

/// `horizontal::build::build_partition` for every prepared sub-tree.
pub fn build_partitions(store: &BuildStore, prepared: &Prepared) -> Partitions {
    let text_len = store.store().len();
    Partitions(
        prepared
            .0
            .iter()
            .filter(|p| !p.leaves.is_empty())
            .map(|p| build_partition(text_len, p))
            .collect(),
    )
}

impl Partitions {
    /// `FlatTree::freeze` of every sub-tree; returns the nodes frozen.
    pub fn freeze(&self) -> usize {
        self.0.iter().map(|p| std::hint::black_box(FlatTree::freeze(&p.tree)).node_count()).sum()
    }
}

// ---------------------------------------------------------------------------
// Probes: catalog
// ---------------------------------------------------------------------------

/// `encode_catalog` of a built index, in the encoding it was built with
/// (what `save_to_file` does before it starts writing). Returns the image
/// size.
pub fn encode_index(index: &Index) -> Res<usize> {
    let idx = &index.0;
    let text = idx.text();
    let image = if idx.is_packed() {
        let payload =
            PackedCodec::new(idx.alphabet()).pack_body(&text[..text.len() - 1]).map_err(err)?;
        let segment = TextSegment::Packed { payload: &payload, text_len: text.len() };
        encode_catalog(idx.generation(), segment, idx.alphabet(), idx.tree())
    } else {
        encode_catalog(idx.generation(), TextSegment::Raw(text), idx.alphabet(), idx.tree())
    };
    image.map(|enc| enc.bytes.len()).map_err(err)
}

/// A parsed catalog image.
pub struct ParsedCatalog(Catalog);

/// `parse_catalog`: checksums, TOC, per-group structural validation.
pub fn parse_image(bytes: &[u8]) -> Res<ParsedCatalog> {
    parse_catalog(bytes).map(ParsedCatalog).map_err(err)
}

impl ParsedCatalog {
    /// Bytes of the text segment.
    pub fn text_bytes(&self) -> usize {
        match &self.0.text {
            CatalogText::Raw(t) => t.len(),
            CatalogText::Packed(p) => p.len(),
        }
    }

    /// `validate_flat_structure` over every group; returns the nodes checked.
    pub fn validate_groups(&self) -> Res<usize> {
        let mut nodes = 0;
        for group in &self.0.groups {
            validate_flat_structure(&group.tree).map_err(err)?;
            nodes += group.tree.node_count();
        }
        Ok(nodes)
    }

    /// What `open_file_with` does to a packed text segment: decode the
    /// payload, then re-pack it into a `PackedMemoryStore`. `Ok(false)`
    /// without doing anything for a raw catalog.
    pub fn restore_packed_text(&self) -> Res<bool> {
        let CatalogText::Packed(payload) = &self.0.text else {
            return Ok(false);
        };
        let symbols = self.0.text_len - 1;
        let mut body = vec![0u8; symbols];
        PackedCodec::new(&self.0.alphabet).unpack(payload, 0, symbols, &mut body);
        let store = PackedMemoryStore::from_body(&body, self.0.alphabet.clone()).map_err(err)?;
        Ok(std::hint::black_box(store).len() == self.0.text_len)
    }
}

// ---------------------------------------------------------------------------
// Probes: routing, descent, direct queries
// ---------------------------------------------------------------------------

impl Index {
    /// `PrefixTrie::candidates`: partitions a pattern is routed to.
    pub fn route(&self, pattern: &[u8]) -> usize {
        self.0.tree().trie().candidates(pattern).len()
    }

    /// `PartitionedSuffixTree::try_contains` over a materialised text: trie
    /// routing plus flat descent, no engine, no store.
    pub fn descend(&self, text: &[u8], pattern: &[u8]) -> Res<bool> {
        self.0.tree().try_contains(text, pattern).map_err(err)
    }

    /// The ops answered by direct `PartitionedSuffixTree::try_*` calls over
    /// the same text backing the engine uses (the in-memory text, or one
    /// reused `StoreTextSource` window through the index's block cache) —
    /// the batch's work without the engine's routing tables, grouping and
    /// merge.
    pub fn answer_directly(&self, ops: &[Op]) -> Res<Vec<Answer>> {
        match (self.0.store(), self.0.block_cache()) {
            (None, _) => self.answer_over(self.0.text(), ops),
            (Some(store), Some(cache)) => {
                self.answer_over(&StoreTextSource::with_cache(store, Arc::clone(cache)), ops)
            }
            (Some(store), None) => self.answer_over(&StoreTextSource::new(store), ops),
        }
    }

    fn answer_over<T: era_string_store::TextSource + ?Sized>(
        &self,
        source: &T,
        ops: &[Op],
    ) -> Res<Vec<Answer>> {
        let tree = self.0.tree();
        ops.iter()
            .map(|op| match op.kind {
                OpKind::Count => tree.try_count(source, &op.pattern).map(Answer::Count),
                OpKind::Contains => tree.try_contains(source, &op.pattern).map(Answer::Contains),
                OpKind::LocatePage => tree.try_find_all(source, &op.pattern).map(|positions| {
                    Answer::Locate(
                        positions.into_iter().take(LOCATE_LIMIT).map(|p| p as usize).collect(),
                    )
                }),
            })
            .collect::<Result<_, _>>()
            .map_err(err)
    }
}

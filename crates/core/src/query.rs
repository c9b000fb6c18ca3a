//! The batched query layer (§1's query serving, redesigned around stores).
//!
//! The paper motivates ERA's trees with serving exact-match, counting and
//! occurrence-listing queries over massive genomes. This module is that
//! serving path: a [`QueryEngine`] layered over the
//! [`StringStore`](era_string_store::StringStore) abstraction. Every query
//! reads the text through one [`StoreTextSource`] per worker, which matches
//! it with one comparator wherever it is kept: a text the store holds in
//! memory — raw bytes or a packed payload — where it lies, the packed one
//! code by code; a text in a file one block of the store's codes at a time,
//! nothing decoded, the text never materialized and every byte the
//! traversals fetch visible in the store's I/O counters.
//!
//! Queries are typed ([`Query::Contains`], [`Query::Count`],
//! [`Query::Locate`] with paging) and submitted in a [`QueryBatch`]. There is
//! one query path: every query of a batch is answered by the matching
//! [`PartitionedSuffixTree`] call (`try_contains`, `try_count`,
//! `try_locate`), which routes the pattern by its first symbols through the
//! partition trie and descends each candidate sub-tree; `Count` and `Locate`
//! then read the matched subtree as one range of its arena. [`QueryEngine::run`]
//! only loops over the batch: with [`QueryEngine::threads`] above one it cuts
//! the batch into that many contiguous chunks, one scoped thread each, and
//! concatenates the answers in submission order. Over a file-backed store
//! each chunk keeps the block it read last across every pattern it serves,
//! which is where the batched path beats issuing the same queries one by
//! one. The [`QueryResponse`] carries per-query results plus a
//! [`QueryStats`] snapshot (wall-clock, partition visits, I/O and cache
//! activity, all attributed per chunk and summed — two engines sharing one
//! store never see each other's traffic).
//!
//! Engines over a file-backed store can attach a shared [`BlockCache`] of
//! code blocks ([`QueryEngine::with_cache`]): the cache outlives individual
//! batches and is consulted by every worker before the store, so repeated or
//! overlapping patterns — across workers *and* across successive batches —
//! are served with zero store I/O. [`crate::SuffixIndex`] attaches one
//! automatically when it serves from a file (sized by
//! [`crate::EraConfig::cache_bytes`]). A resident text needs none and
//! consults none.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use era_string_store::{BlockCache, CacheSnapshot, IoSnapshot, StoreTextSource, StringStore};
use era_suffix_tree::PartitionedSuffixTree;

use crate::error::EraResult;

/// One typed query over the indexed text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Does the pattern occur at all?
    Contains {
        /// The pattern to search for.
        pattern: Vec<u8>,
    },
    /// How many times does the pattern occur?
    Count {
        /// The pattern to search for.
        pattern: Vec<u8>,
    },
    /// Where does the pattern occur? Positions are reported ascending, one
    /// page at a time: [`PartitionedSuffixTree::try_locate`] gathers every
    /// occurrence from the matched subtrees' arena ranges but selects and
    /// sorts only the `offset + limit` smallest, so a small page of a
    /// frequent pattern is not a sort of all its occurrences.
    Locate {
        /// The pattern to search for.
        pattern: Vec<u8>,
        /// Positions to skip from the front of the ascending result.
        offset: usize,
        /// Maximum number of positions to return (`None` = all).
        limit: Option<usize>,
    },
}

impl Query {
    /// A containment query.
    pub fn contains(pattern: impl Into<Vec<u8>>) -> Self {
        Query::Contains { pattern: pattern.into() }
    }

    /// An occurrence-count query.
    pub fn count(pattern: impl Into<Vec<u8>>) -> Self {
        Query::Count { pattern: pattern.into() }
    }

    /// An occurrence-listing query returning every position.
    pub fn locate(pattern: impl Into<Vec<u8>>) -> Self {
        Query::Locate { pattern: pattern.into(), offset: 0, limit: None }
    }

    /// An occurrence-listing query returning one page of positions.
    pub fn locate_page(pattern: impl Into<Vec<u8>>, offset: usize, limit: usize) -> Self {
        Query::Locate { pattern: pattern.into(), offset, limit: Some(limit) }
    }

    /// The pattern this query searches for.
    pub fn pattern(&self) -> &[u8] {
        match self {
            Query::Contains { pattern }
            | Query::Count { pattern }
            | Query::Locate { pattern, .. } => pattern,
        }
    }
}

/// The answer to one [`Query`], in the same position of
/// [`QueryResponse::results`] as the query held in the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryAnswer {
    /// Answer to a [`Query::Contains`].
    Contains(bool),
    /// Answer to a [`Query::Count`].
    Count(usize),
    /// Answer to a [`Query::Locate`]: ascending positions, paged by the
    /// query's `offset`/`limit`.
    Locate(Vec<usize>),
}

impl QueryAnswer {
    /// The boolean of a [`QueryAnswer::Contains`] (panics otherwise).
    #[expect(
        clippy::panic,
        reason = "documented panicking accessor; a caller that cannot know the kind matches on the enum"
    )]
    pub fn is_match(&self) -> bool {
        match self {
            QueryAnswer::Contains(b) => *b,
            other => panic!("expected a Contains answer, got {other:?}"),
        }
    }

    /// The count of a [`QueryAnswer::Count`] (panics otherwise).
    #[expect(
        clippy::panic,
        reason = "documented panicking accessor; a caller that cannot know the kind matches on the enum"
    )]
    pub fn occurrences(&self) -> usize {
        match self {
            QueryAnswer::Count(n) => *n,
            other => panic!("expected a Count answer, got {other:?}"),
        }
    }

    /// The positions of a [`QueryAnswer::Locate`] (panics otherwise).
    #[expect(
        clippy::panic,
        reason = "documented panicking accessor; a caller that cannot know the kind matches on the enum"
    )]
    pub fn positions(&self) -> &[usize] {
        match self {
            QueryAnswer::Locate(p) => p,
            other => panic!("expected a Locate answer, got {other:?}"),
        }
    }
}

/// An ordered batch of queries answered in one engine pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QueryBatch {
    queries: Vec<Query>,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        QueryBatch::default()
    }

    /// Appends a query, returning the batch for chaining.
    pub fn push(mut self, query: Query) -> Self {
        self.queries.push(query);
        self
    }

    /// Appends a query in place.
    pub fn add(&mut self, query: Query) {
        self.queries.push(query);
    }

    /// The queries in submission order.
    pub fn queries(&self) -> &[Query] {
        &self.queries
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

impl From<Vec<Query>> for QueryBatch {
    fn from(queries: Vec<Query>) -> Self {
        QueryBatch { queries }
    }
}

impl FromIterator<Query> for QueryBatch {
    fn from_iter<I: IntoIterator<Item = Query>>(iter: I) -> Self {
        QueryBatch { queries: iter.into_iter().collect() }
    }
}

/// Measurements of one batch execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct QueryStats {
    /// Wall-clock time of the whole batch.
    pub elapsed: Duration,
    /// Number of queries answered.
    pub queries: usize,
    /// Number of (partition, query) pairs routed — for each query, the
    /// partitions the trie sends its pattern to (every partition for an
    /// empty pattern), summed over the batch.
    pub partition_visits: usize,
    /// I/O the batch caused on the store: all-zero for a text in memory —
    /// raw bytes or a packed payload, matched in place — and the block
    /// reads of a store that reads a file.
    ///
    /// Attributed per worker through each worker's own
    /// [`StoreTextSource`] counters and summed — *not* a global store-stats
    /// delta — so two engines running concurrently on one shared store each
    /// report exactly the I/O their own batch caused.
    pub io: IoSnapshot,
    /// Block-cache activity of the batch: hits served with zero store I/O,
    /// misses that read a block, and evictions (`decoded_bytes` is 0: blocks
    /// are held as the store's codes). Summed per worker like [`Self::io`].
    /// All-zero when no cache is attached and for a text in memory, which
    /// consults no cache.
    pub cache: CacheSnapshot,
}

impl QueryStats {
    /// Queries answered per second.
    ///
    /// An empty batch reports `0.0`. A non-empty batch whose wall-clock time
    /// is below the timer's resolution (`elapsed` of zero) is measured
    /// against a 1 ns floor instead: the result is then a well-defined,
    /// finite upper bound (`queries × 10⁹`) rather than a `0.0` that is
    /// indistinguishable from "no throughput" (or an infinity that poisons
    /// downstream arithmetic).
    pub fn queries_per_second(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        self.queries as f64 / secs
    }
}

/// Results of a batch, in submission order, plus the execution stats.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// One answer per query, in the order the batch held them.
    pub results: Vec<QueryAnswer>,
    /// Timing and I/O of the batch.
    pub stats: QueryStats,
}

/// What one worker produced for its contiguous chunk of a batch.
struct Chunk {
    answers: Vec<QueryAnswer>,
    visits: usize,
    io: IoSnapshot,
    cache: CacheSnapshot,
}

/// Serves typed query batches from a [`PartitionedSuffixTree`] over the
/// [`StringStore`] its text is kept in.
///
/// Construct one with [`QueryEngine::over_store`] (or
/// [`crate::SuffixIndex::engine`], which attaches the index's cache),
/// optionally split batches across threads with [`QueryEngine::threads`],
/// and [`QueryEngine::run`] batches against it. The engine borrows the tree
/// and store, so it is cheap to create per request.
pub struct QueryEngine<'a> {
    tree: &'a PartitionedSuffixTree,
    store: &'a dyn StringStore,
    threads: usize,
    cache: Option<Arc<BlockCache>>,
}

impl<'a> QueryEngine<'a> {
    /// An engine answering from a store — raw or packed, in memory or on
    /// disk — without materializing the text.
    ///
    /// A store that holds its text in memory ([`StringStore::resident`]) has
    /// its bytes or packed codes matched in place: no cache is consulted,
    /// and [`QueryStats::io`] and [`QueryStats::cache`] stay zero. A store
    /// that reads a file is read block by block through each worker's
    /// [`StoreTextSource`], every fetch I/O-accounted.
    pub fn over_store(tree: &'a PartitionedSuffixTree, store: &'a dyn StringStore) -> Self {
        QueryEngine { tree, store, threads: 1, cache: None }
    }

    /// Sets how many threads answer a batch (min 1): [`Self::run`] splits the
    /// batch into that many contiguous chunks.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches a shared block cache — e.g. one owned by a
    /// [`crate::SuffixIndex`], or shared between engines over the same
    /// store's text. It lives as long as its last holder, shared by every
    /// worker of every batch, so re-running identical or overlapping
    /// patterns reads nothing from the store. Only a store that reads a file
    /// consults it; a text in memory is matched in place and ignores it.
    pub fn with_cache(mut self, cache: Arc<BlockCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Answers one containment query over a fresh text view — the call
    /// [`Self::run`] makes per `Contains` query, without the stats.
    pub fn contains(&self, pattern: &[u8]) -> EraResult<bool> {
        let source = self.source();
        Ok(self.tree.try_contains(&source, pattern)?)
    }

    /// Answers one count query.
    pub fn count(&self, pattern: &[u8]) -> EraResult<usize> {
        let source = self.source();
        Ok(self.tree.try_count(&source, pattern)?)
    }

    /// Answers one locate query: every occurrence position, ascending (the
    /// page [`Query::locate`] asks for).
    pub fn find_all(&self, pattern: &[u8]) -> EraResult<Vec<usize>> {
        let source = self.source();
        let positions = self.tree.try_find_all(&source, pattern)?;
        Ok(positions.into_iter().map(|p| p as usize).collect())
    }

    /// Executes a batch: answers every query through the single-query path
    /// ([`PartitionedSuffixTree::try_contains`] / `try_count` /
    /// `try_locate`), `threads` contiguous chunks at a time, and snapshots
    /// timing and I/O.
    pub fn run(&self, batch: &QueryBatch) -> EraResult<QueryResponse> {
        let start = Instant::now();
        let queries = batch.queries();
        let threads = self.threads.min(queries.len()).max(1);

        // Each chunk gets its own text source, so its I/O and cache counters
        // are attributed per worker — never a global store-stats delta — and
        // concurrent engines on one shared store cannot contaminate each
        // other's numbers.
        let chunks: Vec<EraResult<Chunk>> = if threads == 1 {
            vec![self.run_chunk(queries)]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = queries
                    .chunks(queries.len().div_ceil(threads))
                    .map(|chunk| scope.spawn(move || self.run_chunk(chunk)))
                    .collect();
                #[expect(clippy::expect_used, reason = "a panicked worker is unrecoverable")]
                handles
                    .into_iter()
                    .map(|h| h.join().expect("query worker must not panic"))
                    .collect()
            })
        };

        let mut results = Vec::with_capacity(queries.len());
        let mut visits = 0usize;
        let mut io = IoSnapshot::default();
        let mut cache_activity = CacheSnapshot::default();
        for chunk in chunks {
            let chunk = chunk?;
            results.extend(chunk.answers);
            visits += chunk.visits;
            io = io.merged(&chunk.io);
            cache_activity = cache_activity.merged(&chunk.cache);
        }
        #[cfg(feature = "paranoid")]
        debug_assert!(
            cache_activity.hits + cache_activity.misses == 0 || self.cache.is_some(),
            "cache activity reported without an attached cache"
        );

        Ok(QueryResponse {
            results,
            stats: QueryStats {
                elapsed: start.elapsed(),
                queries: batch.len(),
                partition_visits: visits,
                io,
                cache: cache_activity,
            },
        })
    }

    /// Answers `queries` in order from one text source.
    fn run_chunk(&self, queries: &[Query]) -> EraResult<Chunk> {
        let source = self.source();
        let mut answers = Vec::with_capacity(queries.len());
        let mut visits = 0usize;
        for query in queries {
            let pattern = query.pattern();
            visits += self.tree.trie().candidates(pattern).len();
            answers.push(match query {
                Query::Contains { .. } => {
                    QueryAnswer::Contains(self.tree.try_contains(&source, pattern)?)
                }
                Query::Count { .. } => QueryAnswer::Count(self.tree.try_count(&source, pattern)?),
                Query::Locate { offset, limit, .. } => QueryAnswer::Locate(
                    self.tree
                        .try_locate(&source, pattern, *offset, *limit)?
                        .into_iter()
                        .map(|pos| pos as usize)
                        .collect(),
                ),
            });
        }
        Ok(Chunk { answers, visits, io: source.io(), cache: source.cache_activity() })
    }

    /// The text view one worker reads through, with the engine's cache.
    pub(crate) fn source(&self) -> StoreTextSource<'a> {
        match &self.cache {
            Some(cache) => StoreTextSource::with_cache(self.store, Arc::clone(cache)),
            None => StoreTextSource::new(self.store),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SuffixIndex;
    use era_string_store::{
        Alphabet, DiskStore, InMemoryStore, PackedDiskStore, PackedMemoryStore,
    };

    const BODY: &[u8] = b"TGGTGGTGGTGCGGTGATGGTGC";

    /// A file name unique to one test of this process, for the file-backed
    /// stores whose reads are I/O (each removes its file on drop).
    fn temp_name(test: &str) -> String {
        format!("era-query-{test}-{}", std::process::id())
    }

    fn index() -> SuffixIndex {
        SuffixIndex::builder().memory_budget(1 << 20).build_from_bytes(BODY).unwrap()
    }

    #[test]
    fn batch_answers_match_single_query_api() {
        let index = index();
        let batch = QueryBatch::new()
            .push(Query::contains(&b"GGTGATG"[..]))
            .push(Query::contains(&b"AAA"[..]))
            .push(Query::count(&b"TG"[..]))
            .push(Query::locate(&b"TGC"[..]))
            .push(Query::locate_page(&b"TG"[..], 2, 3))
            .push(Query::count(&b""[..]))
            .push(Query::locate(&b"TGGTGGTGGTGCGGTGATGGTGCX"[..]))
            .push(Query::locate_page(&b"TG"[..], 7, 2))
            .push(Query::locate_page(&b"TG"[..], 1, 0));
        let response = index.query_batch(&batch).unwrap();
        assert_eq!(response.results[0], QueryAnswer::Contains(true));
        assert_eq!(response.results[1], QueryAnswer::Contains(false));
        assert_eq!(response.results[2], QueryAnswer::Count(7));
        assert_eq!(response.results[3], QueryAnswer::Locate(vec![9, 20]));
        assert_eq!(response.results[4], QueryAnswer::Locate(vec![6, 9, 14]));
        assert_eq!(response.results[5], QueryAnswer::Count(BODY.len() + 1));
        assert_eq!(response.results[6], QueryAnswer::Locate(Vec::new()));
        // Offset past the last of the 7 occurrences, and a zero-length page.
        assert_eq!(response.results[7], QueryAnswer::Locate(Vec::new()));
        assert_eq!(response.results[8], QueryAnswer::Locate(Vec::new()));
        assert_eq!(response.stats.queries, 9);
        // Visits are the partitions each pattern is routed to; the empty
        // pattern is routed to all of them.
        let tree = index.tree();
        let routed: usize =
            batch.queries().iter().map(|q| tree.trie().candidates(q.pattern()).len()).sum();
        assert_eq!(response.stats.partition_visits, routed);
        assert!(routed >= 9);
    }

    #[test]
    fn store_backed_engine_accounts_io_and_matches_text_path() {
        let index = index();
        let (dir, name) = (std::env::temp_dir(), temp_name("accounts-io"));
        let raw = DiskStore::create_in_dir(&dir, &name, BODY, Alphabet::dna()).unwrap();
        let packed = PackedDiskStore::create_in_dir(&dir, &name, BODY, Alphabet::dna()).unwrap();
        let batch: QueryBatch = [&b"TG"[..], b"TGC", b"GGTGATG", b"AAA", b"", b"C"]
            .iter()
            .map(|p| Query::locate(*p))
            .collect();
        let from_text = index.query_batch(&batch).unwrap();
        // A store holding its text in memory is matched in place, like the
        // built index's text: no I/O and no cache activity, even with a cache
        // attached, and the same through an `Arc` or a reference.
        let raw_memory = InMemoryStore::from_body(BODY, Alphabet::dna()).unwrap();
        let packed_memory = Arc::new(PackedMemoryStore::from_body(BODY, Alphabet::dna()).unwrap());
        let by_ref = &*packed_memory;
        for store in [&raw_memory as &dyn StringStore, &packed_memory, &by_ref] {
            let cache = Arc::new(BlockCache::new(1 << 20));
            let response =
                QueryEngine::over_store(index.tree(), store).with_cache(cache).run(&batch).unwrap();
            assert_eq!(response.results, from_text.results);
            assert_eq!(response.stats.io, IoSnapshot::default());
            assert_eq!(response.stats.cache, CacheSnapshot::default());
            assert_eq!(store.stats().snapshot(), IoSnapshot::default());
        }
        for store in [&raw as &dyn StringStore, &packed] {
            let engine = QueryEngine::over_store(index.tree(), store);
            let response = engine.run(&batch).unwrap();
            assert_eq!(response.results, from_text.results);
            assert!(response.stats.io.bytes_read > 0, "store path must be I/O-accounted");
        }
        assert_eq!(from_text.stats.io, IoSnapshot::default());
        // 2-bit symbols: the packed store served the same batch in fewer bytes.
        assert!(
            packed.stats().snapshot().bytes_read < raw.stats().snapshot().bytes_read,
            "packed {} vs raw {}",
            packed.stats().snapshot().bytes_read,
            raw.stats().snapshot().bytes_read
        );
    }

    #[test]
    fn multithreaded_batches_are_deterministic() {
        let index = index();
        let query = |i: usize| {
            let start = i % BODY.len();
            let pattern = &BODY[start..(start + 1 + i % 7).min(BODY.len())];
            match i % 4 {
                0 => Query::count(pattern),
                1 => Query::contains(pattern),
                2 => Query::locate(pattern),
                _ => Query::locate_page(pattern, i % 3, 1 + i % 2),
            }
        };
        // Empty, fewer queries than threads, and lengths no thread count
        // divides evenly.
        for len in [0, 1, 2, 7, 80] {
            let batch: QueryBatch = (0..len).map(query).collect();
            let expected: Vec<QueryAnswer> = batch
                .queries()
                .iter()
                .map(|q| index.query_batch(&QueryBatch::from(vec![q.clone()])).unwrap().results)
                .map(|mut results| results.remove(0))
                .collect();
            for threads in 1..=5 {
                let response = index.engine().threads(threads).run(&batch).unwrap();
                assert_eq!(response.results, expected, "{len} queries on {threads} threads");
                assert_eq!(response.stats.queries, len);
            }
        }
    }

    #[test]
    fn stats_report_throughput() {
        let stats = QueryStats {
            elapsed: Duration::from_millis(500),
            queries: 100,
            ..QueryStats::default()
        };
        assert!((stats.queries_per_second() - 200.0).abs() < 1e-9);
        // An empty batch has no throughput to report.
        assert_eq!(QueryStats::default().queries_per_second(), 0.0);
        // A non-empty batch under timer resolution is floored at 1 ns, not
        // collapsed to a "no throughput" 0.0 (and never an infinity).
        let instant = QueryStats { queries: 100, ..QueryStats::default() };
        let qps = instant.queries_per_second();
        assert!(qps.is_finite());
        assert!((qps - 100.0e9).abs() < 1e3, "1 ns floor: got {qps}");
    }

    #[test]
    fn warm_cache_replays_batches_without_store_io() {
        let index = index();
        let (dir, name) = (std::env::temp_dir(), temp_name("warm-cache"));
        let packed = PackedDiskStore::create_in_dir(&dir, &name, BODY, Alphabet::dna()).unwrap();
        let batch: QueryBatch = [&b"TG"[..], b"TGC", b"GGTGATG", b"AAA", b"C"]
            .iter()
            .map(|p| Query::locate(*p))
            .collect();
        let uncached = QueryEngine::over_store(index.tree(), &packed).run(&batch).unwrap();
        let cache = Arc::new(BlockCache::new(1 << 20));
        let engine = QueryEngine::over_store(index.tree(), &packed).with_cache(Arc::clone(&cache));
        let cold = engine.run(&batch).unwrap();
        let warm = engine.run(&batch).unwrap();
        assert_eq!(cold.results, uncached.results);
        assert_eq!(warm.results, uncached.results);
        assert!(cold.stats.io.bytes_read > 0, "the cold pass fills the cache from the store");
        assert!(cold.stats.cache.misses > 0 && cold.stats.cache.insertions > 0);
        assert_eq!(warm.stats.io.bytes_read, 0, "the warm pass is served from cached blocks");
        assert_eq!(warm.stats.cache.misses, 0);
        assert!(warm.stats.cache.hits > 0);
        // The cache's own counters show the lifetime totals.
        let global = cache.snapshot();
        assert_eq!(global.hits, cold.stats.cache.hits + warm.stats.cache.hits);
        // Single-query wrappers share the same cache.
        let before_single = packed.stats().snapshot();
        assert_eq!(engine.count(b"TG").unwrap(), 7);
        assert_eq!(
            packed.stats().snapshot().bytes_read,
            before_single.bytes_read,
            "a warm single query touches no store bytes"
        );
    }

    #[test]
    fn concurrent_engines_attribute_io_disjointly() {
        // Two engines over ONE shared store, running their batches at the
        // same time: each response's I/O must equal what the same batch
        // causes when run alone. The old global-delta accounting counted the
        // other engine's traffic into whichever snapshot was open.
        let body: Vec<u8> = (0..40_000).map(|i| b"ACGT"[(i * 31 + i / 9) % 4]).collect();
        let index = SuffixIndex::builder().memory_budget(1 << 20).build_from_bytes(&body).unwrap();
        let (dir, name) = (std::env::temp_dir(), temp_name("concurrent"));
        let store = DiskStore::create_in_dir(&dir, &name, &body, Alphabet::dna()).unwrap();
        let batch_a: QueryBatch = (0..60usize)
            .map(|i| Query::locate(&body[(i * 601) % (body.len() - 12)..][..12]))
            .collect();
        let batch_b: QueryBatch = (0..60usize)
            .map(|i| Query::count(&body[(i * 977) % (body.len() - 9)..][..9]))
            .collect();

        let solo_a = QueryEngine::over_store(index.tree(), &store).run(&batch_a).unwrap();
        let solo_b = QueryEngine::over_store(index.tree(), &store).run(&batch_b).unwrap();
        assert!(solo_a.stats.io.bytes_read > 0 && solo_b.stats.io.bytes_read > 0);

        // One worker per engine keeps each engine's partition order — and so
        // its block reuse and byte counts — identical to its solo run; the
        // *engines* still run side by side on the shared store.
        let engine_a = QueryEngine::over_store(index.tree(), &store);
        let engine_b = QueryEngine::over_store(index.tree(), &store);
        let (concurrent_a, concurrent_b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| engine_a.run(&batch_a).unwrap());
            let b = scope.spawn(|| engine_b.run(&batch_b).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(concurrent_a.results, solo_a.results);
        assert_eq!(concurrent_b.results, solo_b.results);
        assert_eq!(
            concurrent_a.stats.io.bytes_read, solo_a.stats.io.bytes_read,
            "engine A must report only its own bytes"
        );
        assert_eq!(concurrent_b.stats.io.bytes_read, solo_b.stats.io.bytes_read);
        assert_eq!(concurrent_a.stats.io.blocks_read, solo_a.stats.io.blocks_read);
        assert_eq!(concurrent_b.stats.io.blocks_read, solo_b.stats.io.blocks_read);
        // Both batches really did share the store.
        assert!(
            store.stats().snapshot().bytes_read
                >= solo_a.stats.io.bytes_read * 2 + solo_b.stats.io.bytes_read * 2
        );
    }
}

//! Random-access text views for query serving.
//!
//! Construction reads the string through strictly sequential passes
//! ([`crate::BlockCursor`]); *queries* walk a suffix tree instead, hopping
//! between edge labels scattered over the whole text. [`TextSource`] is the
//! abstraction the query layer traverses: the two operations a tree walk
//! needs (the symbol at a position, and the common prefix of an edge label
//! with a pattern). A byte slice serves them with zero overhead, and
//! [`StoreTextSource`] serves them over any [`StringStore`]:
//!
//! * a store that holds its text in memory ([`StringStore::resident`]) is
//!   matched where it lies through a [`ResidentText`] — raw bytes as a
//!   slice, a packed payload code by code — with no block, no cache and no
//!   I/O accounting;
//! * a store that reads a file — raw *or* bit-packed — is matched by the
//!   same comparator, one block of the store's own codes at a time
//!   ([`StringStore::read_codes_at`]): a [`ResidentText`] view of the block.
//!   Nothing is decoded, so an index answers queries without ever
//!   materializing its text, and every byte fetched shows up in the store's
//!   [`IoStats`].
//!
//! A file-backed source optionally consults a shared [`BlockCache`] of those
//! code blocks *before* touching the store, so only blocks no worker has read
//! yet reach the file. On top of the store's global counters, every source
//! keeps its own I/O and cache counters ([`StoreTextSource::io`],
//! [`StoreTextSource::cache_activity`]), so concurrent consumers of one
//! shared store can each report exactly the traffic they caused.

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]
#![expect(clippy::disallowed_methods, reason = "the accounted-I/O seam")]

use std::cell::RefCell;
use std::sync::Arc;

use crate::block_cache::{BlockCache, CacheSnapshot, CacheStats, DEFAULT_CACHE_BLOCK_SYMBOLS};
use crate::error::{StoreError, StoreResult};
use crate::packed::PackedCodec;
use crate::resident::ResidentText;
use crate::stats::{IoSnapshot, IoStats};
use crate::store::StringStore;

/// Read access to the indexed text at the granularity a suffix-tree traversal
/// needs.
///
/// Implementations exist for byte slices (`[u8]`, `Vec<u8>`, references) —
/// infallible, zero overhead — for a text or a span of one held in memory
/// ([`ResidentText`]), matched in place, and for every [`StringStore`] via
/// [`StoreTextSource`], raw and packed, in memory and on disk.
pub trait TextSource {
    /// Total length of the text, *including* the terminal symbol.
    fn len(&self) -> usize;

    /// Whether the text is empty (never true for a valid indexed text).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The symbol at `pos`.
    fn symbol_at(&self, pos: usize) -> StoreResult<u8>;

    /// Length of the longest common prefix of `text[start..end]` and `pat`.
    ///
    /// `end` is clamped to the text length; at most
    /// `min(end - start, pat.len())` symbols are compared (and fetched), so
    /// the cost of matching an edge is bounded by the pattern length, not the
    /// edge length.
    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize>;
}

impl TextSource for [u8] {
    fn len(&self) -> usize {
        self.len()
    }

    fn symbol_at(&self, pos: usize) -> StoreResult<u8> {
        self.get(pos).copied().ok_or(StoreError::OutOfBounds { pos, len: 1, text_len: self.len() })
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "end is clamped to len() and start > end is an error above"
    )]
    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize> {
        let end = end.min(self.len());
        if start > end {
            return Err(StoreError::OutOfBounds { pos: start, len: 0, text_len: self.len() });
        }
        Ok(self[start..end].iter().zip(pat).take_while(|(a, b)| a == b).count())
    }
}

impl TextSource for Vec<u8> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }

    fn symbol_at(&self, pos: usize) -> StoreResult<u8> {
        self.as_slice().symbol_at(pos)
    }

    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize> {
        self.as_slice().common_prefix(start, end, pat)
    }
}

impl<T: TextSource + ?Sized> TextSource for &T {
    fn len(&self) -> usize {
        (**self).len()
    }

    fn symbol_at(&self, pos: usize) -> StoreResult<u8> {
        (**self).symbol_at(pos)
    }

    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize> {
        (**self).common_prefix(start, end, pat)
    }
}

/// A [`TextSource`] over any [`StringStore`]: the store's text matched in
/// place when it holds it in memory, and block by block of the store's codes
/// when it reads a file.
///
/// A file-backed source reads block `b` — the positions
/// `[b · block_symbols, (b + 1) · block_symbols)` — with one
/// [`StringStore::read_codes_at`] and matches it as a [`ResidentText`] span,
/// nothing decoded; a compare that crosses a block boundary continues in the
/// next block. The source keeps the block it used last, so a descent inside
/// one block costs no further lookup. Every store read is classified and
/// counted by the store's [`IoStats`] like any construction read — and by
/// the source's own counters ([`Self::io`]), so per-worker attribution
/// survives store sharing.
///
/// With a [`BlockCache`] attached ([`Self::with_cache`]) the blocks are the
/// cache's ([`BlockCache::block_symbols`]): each is looked up in the shared
/// cache first, and only blocks nobody has read yet come from the store (and
/// are inserted for every later consumer). Without one, blocks are
/// [`DEFAULT_CACHE_BLOCK_SYMBOLS`] long and read into the source's own
/// buffer.
///
/// The source borrows the store immutably and keeps its block in a
/// [`RefCell`], so a shared store can serve many sources at once (one per
/// worker thread of a batched query run); the source itself is not `Sync`.
pub struct StoreTextSource<'a> {
    store: &'a dyn StringStore,
    /// The store's text where it lies, for a store that holds it in memory.
    resident: Option<ResidentText<'a>>,
    /// The codec of a packed store's codes; `None` for a raw store, whose
    /// codes are its bytes.
    codec: Option<PackedCodec>,
    cache: Option<Arc<BlockCache>>,
    block_symbols: usize,
    block: RefCell<Block>,
    /// I/O this source caused, mirroring the store's accounting rule
    /// ([`StringStore::read_cost`]); sequential/random classification uses
    /// these counters' *own* read cursor, which is the honest per-consumer
    /// view when several sources take turns on one store.
    local_io: IoStats,
    /// Cache lookups/insertions/evictions this source caused.
    local_cache: CacheStats,
}

/// The block a file-backed source used last.
#[derive(Default)]
struct Block {
    /// Its index; `None` until a read succeeds, so a failed read leaves
    /// nothing claimed.
    index: Option<usize>,
    /// Its codes as the store holds them, in one reused allocation.
    codes: Vec<u8>,
}

impl<'a> StoreTextSource<'a> {
    /// A source over `store`, reading a file-backed text in
    /// [`DEFAULT_CACHE_BLOCK_SYMBOLS`]-symbol blocks of its own.
    pub fn new(store: &'a dyn StringStore) -> Self {
        let resident = store.resident();
        StoreTextSource {
            store,
            resident,
            codec: (resident.is_none() && store.is_packed())
                .then(|| PackedCodec::new(store.alphabet())),
            cache: None,
            block_symbols: DEFAULT_CACHE_BLOCK_SYMBOLS,
            block: RefCell::default(),
            local_io: IoStats::new(),
            local_cache: CacheStats::new(),
        }
    }

    /// A source that looks a file-backed text's blocks up in `cache` before
    /// reading them from the store. The cache must be dedicated to this
    /// store's text; a text in memory never consults it.
    pub fn with_cache(store: &'a dyn StringStore, cache: Arc<BlockCache>) -> Self {
        let block_symbols = cache.block_symbols();
        StoreTextSource { cache: Some(cache), block_symbols, ..Self::new(store) }
    }

    /// I/O caused by *this source alone* (the store's own counters aggregate
    /// every consumer).
    pub fn io(&self) -> IoSnapshot {
        self.local_io.snapshot()
    }

    /// Cache activity caused by *this source alone*.
    pub fn cache_activity(&self) -> CacheSnapshot {
        self.local_cache.snapshot()
    }

    /// Runs `f` on the block that holds `pos`, fetching it first unless it is
    /// the block used last.
    fn in_block<T>(
        &self,
        pos: usize,
        f: impl FnOnce(ResidentText<'_>) -> StoreResult<T>,
    ) -> StoreResult<T> {
        let index = pos / self.block_symbols;
        let mut block = self.block.borrow_mut();
        if block.index != Some(index) {
            block.index = None;
            self.fetch(index, &mut block.codes)?;
            block.index = Some(index);
        }
        let (base, len) = (index * self.block_symbols, self.store.len());
        f(match &self.codec {
            Some(codec) => ResidentText::codes(
                &block.codes,
                base,
                (base + self.block_symbols).min(len),
                len,
                codec,
            ),
            None => ResidentText::bytes(&block.codes, base, len),
        })
    }

    /// Fills `codes` with block `index`: from the cache when it holds the
    /// block, from the store otherwise (inserting it into the cache).
    fn fetch(&self, index: usize, codes: &mut Vec<u8>) -> StoreResult<()> {
        let base = index * self.block_symbols;
        let n = self.block_symbols.min(self.store.len().saturating_sub(base));
        // The bytes of the block's codes are exactly what reading them costs.
        let bytes = self.store.read_cost(base, n).0 as usize;
        if let Some(cache) = &self.cache {
            // The expected length makes the lookup self-validating: an entry
            // of the wrong span (a cache wrongly shared across texts) is
            // rejected as a miss rather than trusted.
            if let Some(hit) = cache.get(index as u64, bytes) {
                self.local_cache.add_hit();
                codes.clear();
                codes.extend_from_slice(&hit);
                return Ok(());
            }
            self.local_cache.add_miss();
        }
        let bits = self.store.code_bits() as usize;
        codes.clear();
        codes.resize((base * bits % 8 + n * bits).div_ceil(8), 0);
        let got = self.store.read_codes_at(base, n, codes)?;
        self.local_io.charge_read(base, got, self.store.read_cost(base, got));
        if got < n {
            return Err(StoreError::OutOfBounds { pos: base, len: n, text_len: self.store.len() });
        }
        codes.truncate(bytes);
        if let Some(cache) = &self.cache {
            let evicted = cache.insert(index as u64, Arc::from(&codes[..]));
            self.local_cache.add_insertion();
            self.local_cache.add_evictions(evicted);
        }
        Ok(())
    }
}

impl TextSource for StoreTextSource<'_> {
    fn len(&self) -> usize {
        self.store.len()
    }

    fn symbol_at(&self, pos: usize) -> StoreResult<u8> {
        if let Some(text) = &self.resident {
            return text.symbol_at(pos);
        }
        let text_len = self.store.len();
        if pos >= text_len {
            return Err(StoreError::OutOfBounds { pos, len: 1, text_len });
        }
        self.in_block(pos, |block| block.symbol_at(pos))
    }

    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize> {
        if let Some(text) = &self.resident {
            return text.common_prefix(start, end, pat);
        }
        let text_len = self.store.len();
        let end = end.min(text_len);
        if start > end {
            return Err(StoreError::OutOfBounds { pos: start, len: 0, text_len });
        }
        let stop = start + (end - start).min(pat.len());
        let mut pos = start;
        while pos < stop {
            let rest = pat.get(pos - start..).unwrap_or_default();
            let (matched, block_end) = self
                .in_block(pos, |block| Ok((block.common_prefix(pos, stop, rest)?, block.end())))?;
            pos += matched;
            if pos < block_end.min(stop) {
                // A mismatch inside the block.
                break;
            }
        }
        Ok(pos - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::memory::InMemoryStore;
    use crate::packed_store::PackedMemoryStore;
    use crate::{DiskStore, PackedDiskStore};

    fn text() -> Vec<u8> {
        let mut t: Vec<u8> = (0..3000).map(|i| b"ACGT"[(i * 7 + i / 11) % 4]).collect();
        t.push(0);
        t
    }

    /// The text of [`text`] in a raw and a packed store that read a file,
    /// each named after `test` and removed on drop.
    fn file_stores(test: &str) -> (DiskStore, PackedDiskStore) {
        let t = text();
        let body = &t[..t.len() - 1];
        let (dir, name) =
            (std::env::temp_dir(), format!("era-source-{test}-{}", std::process::id()));
        (
            DiskStore::create_in_dir(&dir, &name, body, Alphabet::dna()).unwrap(),
            PackedDiskStore::create_in_dir(&dir, &name, body, Alphabet::dna()).unwrap(),
        )
    }

    /// A cache of `block_symbols`-symbol blocks, large enough never to evict.
    fn cache_of(block_symbols: usize) -> Arc<BlockCache> {
        Arc::new(BlockCache::with_layout(1 << 20, block_symbols, 4))
    }

    #[test]
    fn slice_source_matches_direct_indexing() {
        let t = text();
        let s: &[u8] = &t;
        assert_eq!(TextSource::len(s), t.len());
        assert_eq!(s.symbol_at(0).unwrap(), t[0]);
        assert_eq!(s.symbol_at(t.len() - 1).unwrap(), 0);
        assert!(s.symbol_at(t.len()).is_err());
        assert_eq!(s.common_prefix(4, 10, &t[4..10]).unwrap(), 6);
        assert_eq!(s.common_prefix(4, 10, b"").unwrap(), 0);
        // Clamped end.
        assert_eq!(s.common_prefix(t.len() - 1, t.len() + 5, &[0, 1, 2]).unwrap(), 1);
    }

    #[test]
    fn store_source_agrees_with_slice_source_on_random_hops() {
        let t = text();
        let body = &t[..t.len() - 1];
        let raw = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let packed = PackedMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let (raw_disk, packed_disk) = file_stores("hops");
        let slice: &[u8] = &t;
        // 64-symbol blocks: a packed one is 16 payload bytes, a 37-symbol
        // block starts at every even bit offset.
        for block_symbols in [64, 37] {
            let sources = [
                StoreTextSource::new(&raw),
                StoreTextSource::new(&packed),
                StoreTextSource::with_cache(&raw_disk, cache_of(block_symbols)),
                StoreTextSource::with_cache(&packed_disk, cache_of(block_symbols)),
            ];
            // Descending, ascending and repeated positions: the source must be
            // fully random-access, unlike BlockCursor.
            for &(start, end) in &[
                (2900usize, 2960usize),
                (10, 40),
                (500, 520),
                (10, 40),
                (2999, 3001),
                (0, 3001),
                (3001, 3005),
            ] {
                let pat = &t[start.min(t.len())..end.min(t.len())];
                let expect = slice.common_prefix(start, end, pat).unwrap();
                for src in &sources {
                    assert_eq!(src.common_prefix(start, end, pat).unwrap(), expect);
                    assert_eq!(src.symbol_at(start).ok(), slice.symbol_at(start).ok());
                }
            }
            for src in &sources {
                assert!(src.symbol_at(t.len()).is_err());
                assert!(src.common_prefix(3002, 3001, b"A").is_err());
            }
        }
    }

    #[test]
    fn window_hits_cost_no_io_and_packed_reads_fewer_bytes() {
        let (raw, packed) = file_stores("block-hits");
        let raw_src = StoreTextSource::new(&raw);
        let packed_src = StoreTextSource::new(&packed);
        for src in [&raw_src, &packed_src] {
            // First touch reads the block in ...
            src.common_prefix(512, 520, b"XXXX").unwrap();
            let before = src.io().bytes_read;
            // ... later touches inside it are free.
            src.common_prefix(600, 640, b"YYYY").unwrap();
            src.symbol_at(700).unwrap();
            assert_eq!(src.io().bytes_read, before);
        }
        // Identical access pattern, 2-bit symbols: ~4x fewer bytes fetched.
        let raw_bytes = raw.stats().snapshot().bytes_read;
        let packed_bytes = packed.stats().snapshot().bytes_read;
        assert!(
            packed_bytes * 3 < raw_bytes,
            "packed source read {packed_bytes} bytes vs raw {raw_bytes}"
        );
        // A text in memory is matched in place: nothing is read.
        let t = text();
        let memory = PackedMemoryStore::from_body(&t[..t.len() - 1], Alphabet::dna()).unwrap();
        let resident = StoreTextSource::with_cache(&memory, cache_of(64));
        assert_eq!(resident.common_prefix(100, 160, &t[100..160]).unwrap(), 60);
        assert_eq!(resident.io(), IoSnapshot::default());
        assert_eq!(resident.cache_activity(), CacheSnapshot::default());
        assert_eq!(memory.stats().snapshot(), IoSnapshot::default());
    }

    #[test]
    fn local_io_mirrors_the_store_counters_for_a_single_consumer() {
        let t = text();
        let (raw, packed) = file_stores("local-io");
        for store in [&raw as &dyn StringStore, &packed] {
            let src = StoreTextSource::with_cache(store, cache_of(128));
            src.common_prefix(100, 160, &t[100..160]).unwrap();
            src.symbol_at(2500).unwrap();
            src.common_prefix(40, 290, &t[40..290]).unwrap();
            let local = src.io();
            let global = store.stats().snapshot();
            assert_eq!(local.bytes_read, global.bytes_read);
            assert_eq!(local.blocks_read, global.blocks_read);
            assert_eq!(local.sequential_reads, global.sequential_reads);
            assert_eq!(local.random_seeks, global.random_seeks);
            assert!(local.bytes_read > 0);
        }
    }

    #[test]
    fn cached_source_serves_warm_reads_without_store_io() {
        let t = text();
        let (_, packed) = file_stores("warm");
        let cache = Arc::new(BlockCache::with_layout(1 << 20, 256, 4));
        let cold = StoreTextSource::with_cache(&packed, Arc::clone(&cache));
        let slice: &[u8] = &t;
        let spans = [(0usize, 70usize), (700, 760), (250, 270), (2980, 3001)];
        for &(start, end) in &spans {
            let pat = &t[start..end.min(t.len())];
            assert_eq!(
                cold.common_prefix(start, end, pat).unwrap(),
                slice.common_prefix(start, end, pat).unwrap()
            );
        }
        assert!(cold.io().bytes_read > 0, "cold reads hit the store");
        assert!(cold.cache_activity().misses > 0 && cold.cache_activity().insertions > 0);
        // The cache holds the payload bytes of each block it was given,
        // nothing decoded: 64 bytes a full 256-symbol block.
        assert_eq!(cache.bytes() as u64, cold.io().bytes_read);
        assert_eq!(cache.entries(), 4);
        assert_eq!(cache.get(0, 64).map(|b| b.len()), Some(64));
        assert_eq!(cold.cache_activity().decoded_bytes, 0);

        // A second source sharing the cache — a "next batch"/other worker —
        // replays the spans with zero store I/O.
        let warm = StoreTextSource::with_cache(&packed, Arc::clone(&cache));
        for &(start, end) in &spans {
            let pat = &t[start..end.min(t.len())];
            assert_eq!(
                warm.common_prefix(start, end, pat).unwrap(),
                slice.common_prefix(start, end, pat).unwrap()
            );
        }
        assert_eq!(warm.io().bytes_read, 0, "warm reads are cache-served");
        assert_eq!(warm.cache_activity().misses, 0);
        assert!(warm.cache_activity().hits > 0);
    }

    /// A store that fails reads on demand, for error-path tests.
    struct FlakyStore {
        inner: InMemoryStore,
        fail_next: std::sync::atomic::AtomicBool,
    }

    impl FlakyStore {
        fn new(inner: InMemoryStore) -> Self {
            FlakyStore { inner, fail_next: std::sync::atomic::AtomicBool::new(false) }
        }

        fn fail_next_read(&self) {
            self.fail_next.store(true, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl StringStore for FlakyStore {
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn alphabet(&self) -> &Alphabet {
            self.inner.alphabet()
        }
        fn block_size(&self) -> usize {
            self.inner.block_size()
        }
        fn stats(&self) -> &crate::IoStats {
            self.inner.stats()
        }
        fn read_at_with(
            &self,
            pos: usize,
            buf: &mut [u8],
            cursor: &crate::ReadCursor,
        ) -> StoreResult<usize> {
            if self.fail_next.swap(false, std::sync::atomic::Ordering::Relaxed) {
                return Err(StoreError::InvalidText("injected read failure".into()));
            }
            self.inner.read_at_with(pos, buf, cursor)
        }
    }

    #[test]
    fn failed_fill_does_not_poison_the_window() {
        // Regression: a failed fill used to leave the source claiming
        // coverage of zero-filled, never-read positions; a caller that caught
        // the error and retried was then served 0x00 bytes as text.
        let t = text();
        let body = &t[..t.len() - 1];
        let flaky = FlakyStore::new(InMemoryStore::from_body(body, Alphabet::dna()).unwrap());
        let cache = Arc::new(BlockCache::with_layout(1 << 16, 64, 2));
        let cached = StoreTextSource::with_cache(&flaky, Arc::clone(&cache));
        flaky.fail_next_read();
        assert!(cached.common_prefix(100, 140, &t[100..140]).is_err());
        assert_eq!(cache.entries(), 0, "a failed read inserts nothing");
        assert_eq!(
            cached.common_prefix(100, 140, &t[100..140]).unwrap(),
            40,
            "the retry must re-fetch real text, not a zeroed block"
        );
        assert_eq!(cached.symbol_at(100).unwrap(), t[100]);

        let plain = StoreTextSource::new(&flaky);
        flaky.fail_next_read();
        assert!(plain.common_prefix(200, 230, &t[200..230]).is_err());
        assert_eq!(plain.common_prefix(200, 230, &t[200..230]).unwrap(), 30);
        assert_eq!(plain.symbol_at(229).unwrap(), t[229]);
    }

    #[test]
    fn cached_and_uncached_sources_answer_identically() {
        let t = text();
        let (raw, packed) = file_stores("cached-uncached");
        let slice: &[u8] = &t;
        for store in [&raw as &dyn StringStore, &packed] {
            let plain = StoreTextSource::new(store);
            let cached =
                StoreTextSource::with_cache(store, Arc::new(BlockCache::with_layout(512, 61, 4)));
            // Hops that straddle block and shard boundaries, descending and
            // repeated, under a capacity small enough to force evictions.
            for i in 0..200usize {
                let start = (i * 1013) % (t.len() - 1);
                let end = (start + 1 + (i * 7) % 120).min(t.len());
                let pat = &t[start..end];
                let expect = slice.common_prefix(start, end, pat).unwrap();
                assert_eq!(plain.common_prefix(start, end, pat).unwrap(), expect, "i={i}");
                assert_eq!(cached.common_prefix(start, end, pat).unwrap(), expect, "i={i}");
                assert_eq!(cached.symbol_at(start).unwrap(), t[start]);
            }
            assert!(cached.cache_activity().evictions > 0);
        }
    }
}

//! Random-access text views for query serving.
//!
//! Construction reads the string through strictly sequential passes
//! ([`crate::BlockCursor`]); *queries* walk a suffix tree instead, hopping
//! between edge labels scattered over the whole text. [`TextSource`] is the
//! abstraction the query layer traverses: the two operations a tree walk
//! needs (the symbol at a position, and the common prefix of an edge label
//! with a pattern). Three kinds of text serve it:
//!
//! * a byte slice — zero overhead;
//! * a store that holds its text in memory, through
//!   [`StringStore::resident`]: a [`ResidentText`](crate::ResidentText)
//!   matches the raw bytes as a slice and a packed payload code by code,
//!   with no window, no decode and no I/O accounting;
//! * a store that reads a file — raw *or* bit-packed — through
//!   [`StoreTextSource`]'s reused window buffer, so an index can answer
//!   queries without ever materializing the text and every byte fetched
//!   shows up in the store's [`IoStats`](crate::IoStats).
//!
//! [`StoreTextSource`] works over any store, but the query engine uses it
//! only for file-backed ones. It optionally consults a shared [`BlockCache`] of
//! decoded blocks *before* touching the store: window misses are then served
//! block-wise from the cache, and only blocks no worker has decoded yet reach
//! [`StringStore::read_at`]. On top of the store's global counters, every
//! source keeps its own I/O and cache counters ([`StoreTextSource::io`],
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

use crate::block_cache::{BlockCache, CacheSnapshot, CacheStats};
use crate::error::{StoreError, StoreResult};
use crate::stats::{IoSnapshot, IoStats};
use crate::store::StringStore;

/// Read access to the indexed text at the granularity a suffix-tree traversal
/// needs.
///
/// Implementations exist for byte slices (`[u8]`, `Vec<u8>`, references) —
/// infallible, zero overhead — for a store's in-memory text via
/// [`ResidentText`](crate::ResidentText), matched in place, and for every
/// [`StringStore`] via [`StoreTextSource`], which serves both operations from
/// a reused block-aligned window buffer and therefore works for raw and
/// packed, in memory and on disk.
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

/// Default window size of a [`StoreTextSource`], in symbols.
///
/// Sized in *symbols* — not store blocks — deliberately: a packed store then
/// fetches `bits/8` of the bytes a raw store fetches for the same window, so
/// the §6.1 packing ratios carry over from construction scans to query
/// serving.
pub const DEFAULT_WINDOW_SYMBOLS: usize = 4 << 10;

/// A [`TextSource`] over any [`StringStore`], serving tree traversals from
/// one reused window buffer.
///
/// Requests are window-aligned: a miss fetches the aligned span covering the
/// requested symbols through [`StringStore::read_at`] into the same buffer
/// (grown once, then reused), a hit costs no I/O at all. Tree walks revisit
/// nearby labels constantly — consecutive edges of a path, patterns routed to
/// the same sub-tree — so the window absorbs most fetches, and everything
/// that *does* reach the store is classified and counted by its
/// [`IoStats`](crate::IoStats) like any construction read — and, in
/// parallel, by the source's own counters ([`Self::io`]), so per-worker
/// attribution survives store sharing.
///
/// With a [`BlockCache`] attached ([`Self::with_cache`]/[`Self::cached`]),
/// window misses are assembled block-wise: each needed block is looked up in
/// the shared cache first, and only blocks nobody has decoded yet are read
/// from the store (and inserted for every later consumer). The cache's block
/// granularity replaces the window alignment for fetch sizing.
///
/// The source borrows the store immutably and keeps its state in a
/// [`RefCell`], so a shared store can serve many sources at once (one per
/// worker thread of a batched query run); the source itself is not `Sync`.
pub struct StoreTextSource<'a> {
    store: &'a dyn StringStore,
    window_symbols: usize,
    window: RefCell<Window>,
    cache: Option<Arc<BlockCache>>,
    /// I/O this source caused, mirroring the store's accounting rule
    /// ([`StringStore::read_cost`]); sequential/random classification uses
    /// these counters' *own* read cursor, which is the honest per-consumer
    /// view when several sources take turns on one store.
    local_io: IoStats,
    /// Cache lookups/insertions/evictions this source caused.
    local_cache: CacheStats,
}

#[derive(Default)]
struct Window {
    /// Text positions `[start, start + buf.len())`, in one reused allocation.
    buf: Vec<u8>,
    start: usize,
}

impl<'a> StoreTextSource<'a> {
    /// Creates a source over `store` with the default window size.
    pub fn new(store: &'a dyn StringStore) -> Self {
        Self::with_window(store, DEFAULT_WINDOW_SYMBOLS)
    }

    /// Creates a source with an explicit window size in symbols (min 1).
    pub fn with_window(store: &'a dyn StringStore, window_symbols: usize) -> Self {
        StoreTextSource {
            store,
            window_symbols: window_symbols.max(1),
            window: RefCell::new(Window::default()),
            cache: None,
            local_io: IoStats::new(),
            local_cache: CacheStats::new(),
        }
    }

    /// Creates a source that consults `cache` before every store read.
    pub fn with_cache(store: &'a dyn StringStore, cache: Arc<BlockCache>) -> Self {
        Self::new(store).cached(cache)
    }

    /// Attaches a shared decoded-block cache (see [`BlockCache`]). The cache
    /// must be dedicated to this store's text.
    pub fn cached(mut self, cache: Arc<BlockCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The store this source reads from.
    pub fn store(&self) -> &'a dyn StringStore {
        self.store
    }

    /// The attached decoded-block cache, if any.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref()
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

    /// Records one store read on the source's local counters, mirroring what
    /// the store's global counters charged for it (same bytes/blocks rule via
    /// [`StringStore::read_cost`], same sequential/random rule via
    /// [`IoStats::charge_read`] against the source's own read cursor).
    fn record_read(&self, pos: usize, got: usize) {
        self.local_io.charge_read(pos, got, self.store.read_cost(pos, got));
    }

    /// Makes the window cover `[lo, hi)`, fetching on a miss — through the
    /// cache when one is attached, directly from the store otherwise.
    fn ensure(&self, lo: usize, hi: usize) -> StoreResult<()> {
        debug_assert!(lo < hi && hi <= self.store.len());
        let mut w = self.window.borrow_mut();
        if lo >= w.start && hi <= w.start + w.buf.len() {
            return Ok(());
        }
        let filled = match &self.cache {
            Some(cache) => self.fill_through_cache(&mut w, cache, lo, hi),
            None => self.fill_from_store(&mut w, lo, hi),
        };
        if filled.is_err() {
            // A failed fill must not leave the window claiming coverage of
            // positions that were never read (the buffer may hold zeroed or
            // partial data): empty it so a retry re-fetches instead of
            // serving garbage as text.
            w.buf.clear();
        }
        filled
    }

    /// Uncached miss path: fetch the window-aligned span in one store read.
    fn fill_from_store(&self, w: &mut Window, lo: usize, hi: usize) -> StoreResult<()> {
        let window = self.window_symbols;
        let aligned_lo = lo / window * window;
        let aligned_hi = hi.div_ceil(window).saturating_mul(window).min(self.store.len());
        w.buf.clear();
        w.buf.resize(aligned_hi - aligned_lo, 0);
        let got = self.store.read_at(aligned_lo, &mut w.buf)?;
        self.record_read(aligned_lo, got);
        w.buf.truncate(got);
        w.start = aligned_lo;
        if hi > aligned_lo + got {
            return Err(StoreError::OutOfBounds {
                pos: lo,
                len: hi - lo,
                text_len: self.store.len(),
            });
        }
        Ok(())
    }

    /// Cached miss path: assemble the covering cache blocks, reading from the
    /// store (and populating the cache) only for blocks nobody decoded yet.
    #[expect(
        clippy::indexing_slicing,
        reason = "window bounds are clamped to text_len before slicing"
    )]
    fn fill_through_cache(
        &self,
        w: &mut Window,
        cache: &BlockCache,
        lo: usize,
        hi: usize,
    ) -> StoreResult<()> {
        let bs = cache.block_symbols();
        let text_len = self.store.len();
        let first = lo / bs;
        let last = (hi - 1) / bs;
        let aligned_lo = first * bs;
        let aligned_hi = ((last + 1) * bs).min(text_len);
        w.buf.clear();
        w.buf.resize(aligned_hi - aligned_lo, 0);
        w.start = aligned_lo;
        for block in first..=last {
            let b_lo = block * bs;
            let b_hi = ((block + 1) * bs).min(text_len);
            let dst = &mut w.buf[b_lo - aligned_lo..b_hi - aligned_lo];
            // The expected length makes the lookup self-validating: an entry
            // of the wrong span (a cache wrongly shared across texts) is
            // rejected as a miss rather than trusted.
            if let Some(data) = cache.get(block as u64, dst.len()) {
                dst.copy_from_slice(&data);
                self.local_cache.add_hit();
                continue;
            }
            self.local_cache.add_miss();
            let got = self.store.read_at(b_lo, dst)?;
            self.record_read(b_lo, got);
            if got < dst.len() {
                return Err(StoreError::OutOfBounds { pos: b_lo, len: dst.len(), text_len });
            }
            let evicted = cache.insert(block as u64, Arc::from(&dst[..]));
            self.local_cache.add_insertion(dst.len() as u64);
            self.local_cache.add_evictions(evicted);
        }
        if hi > aligned_lo + w.buf.len() {
            return Err(StoreError::OutOfBounds { pos: lo, len: hi - lo, text_len });
        }
        Ok(())
    }
}

impl TextSource for StoreTextSource<'_> {
    fn len(&self) -> usize {
        self.store.len()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "ensure() established w.start <= pos < w.start + buf.len()"
    )]
    fn symbol_at(&self, pos: usize) -> StoreResult<u8> {
        let text_len = self.store.len();
        if pos >= text_len {
            return Err(StoreError::OutOfBounds { pos, len: 1, text_len });
        }
        self.ensure(pos, pos + 1)?;
        let w = self.window.borrow();
        Ok(w.buf[pos - w.start])
    }

    #[expect(clippy::indexing_slicing, reason = "ensure window covers lo..lo + need")]
    fn common_prefix(&self, start: usize, end: usize, pat: &[u8]) -> StoreResult<usize> {
        let text_len = self.store.len();
        let end = end.min(text_len);
        if start > end {
            return Err(StoreError::OutOfBounds { pos: start, len: 0, text_len });
        }
        let need = (end - start).min(pat.len());
        if need == 0 {
            return Ok(0);
        }
        self.ensure(start, start + need)?;
        let w = self.window.borrow();
        let lo = start - w.start;
        Ok(w.buf[lo..lo + need].iter().zip(pat).take_while(|(a, b)| a == b).count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::memory::InMemoryStore;
    use crate::packed_store::PackedMemoryStore;

    fn text() -> Vec<u8> {
        let mut t: Vec<u8> = (0..3000).map(|i| b"ACGT"[(i * 7 + i / 11) % 4]).collect();
        t.push(0);
        t
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
        let raw_src = StoreTextSource::with_window(&raw, 64);
        let packed_src = StoreTextSource::with_window(&packed, 64);
        let slice: &[u8] = &t;
        // Descending, ascending and repeated positions: the source must be
        // fully random-access, unlike BlockCursor.
        for &(start, end) in
            &[(2900usize, 2960usize), (10, 40), (500, 520), (10, 40), (2999, 3001), (0, 3001)]
        {
            let pat = &t[start..end.min(t.len())];
            let expect = slice.common_prefix(start, end, pat).unwrap();
            assert_eq!(raw_src.common_prefix(start, end, pat).unwrap(), expect);
            assert_eq!(packed_src.common_prefix(start, end, pat).unwrap(), expect);
            assert_eq!(raw_src.symbol_at(start).unwrap(), t[start]);
            assert_eq!(packed_src.symbol_at(start).unwrap(), t[start]);
        }
        assert!(raw_src.symbol_at(t.len()).is_err());
    }

    #[test]
    fn window_hits_cost_no_io_and_packed_reads_fewer_bytes() {
        let t = text();
        let body = &t[..t.len() - 1];
        let raw = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let packed = PackedMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let raw_src = StoreTextSource::with_window(&raw, 256);
        let packed_src = StoreTextSource::with_window(&packed, 256);
        for src in [&raw_src, &packed_src] {
            // First touch faults the window in ...
            src.common_prefix(512, 520, b"XXXX").unwrap();
            let before = src.store().stats().snapshot().bytes_read;
            // ... later touches inside it are free.
            src.common_prefix(600, 640, b"YYYY").unwrap();
            src.symbol_at(700).unwrap();
            assert_eq!(src.store().stats().snapshot().bytes_read, before);
        }
        // Identical access pattern, 2-bit symbols: ~4x fewer bytes fetched.
        let raw_bytes = raw.stats().snapshot().bytes_read;
        let packed_bytes = packed.stats().snapshot().bytes_read;
        assert!(
            packed_bytes * 3 < raw_bytes,
            "packed source read {packed_bytes} bytes vs raw {raw_bytes}"
        );
    }

    #[test]
    fn local_io_mirrors_the_store_counters_for_a_single_consumer() {
        let t = text();
        let body = &t[..t.len() - 1];
        for store in [
            Box::new(InMemoryStore::from_body(body, Alphabet::dna()).unwrap())
                as Box<dyn StringStore>,
            Box::new(PackedMemoryStore::from_body(body, Alphabet::dna()).unwrap()),
        ] {
            let src = StoreTextSource::with_window(store.as_ref(), 128);
            src.common_prefix(100, 160, &t[100..160]).unwrap();
            src.symbol_at(2500).unwrap();
            src.common_prefix(40, 90, &t[40..90]).unwrap();
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
        let body = &t[..t.len() - 1];
        let packed = PackedMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let cache = Arc::new(BlockCache::with_layout(1 << 20, 256, 4));
        let cold = StoreTextSource::with_window(&packed, 256).cached(Arc::clone(&cache));
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

        // A second source sharing the cache — a "next batch"/other worker —
        // replays the spans with zero store I/O.
        let warm = StoreTextSource::with_window(&packed, 256).cached(Arc::clone(&cache));
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
        // Regression: a failed fill used to leave the window claiming
        // coverage of zero-filled, never-read positions; a caller that caught
        // the error and retried was then served 0x00 bytes as text.
        let t = text();
        let body = &t[..t.len() - 1];
        let flaky = FlakyStore::new(InMemoryStore::from_body(body, Alphabet::dna()).unwrap());
        let cache = Arc::new(BlockCache::with_layout(1 << 16, 64, 2));
        let cached = StoreTextSource::with_window(&flaky, 64).cached(Arc::clone(&cache));
        flaky.fail_next_read();
        assert!(cached.common_prefix(100, 140, &t[100..140]).is_err());
        assert_eq!(
            cached.common_prefix(100, 140, &t[100..140]).unwrap(),
            40,
            "the retry must re-fetch real text, not a zeroed window"
        );
        assert_eq!(cached.symbol_at(100).unwrap(), t[100]);

        let plain = StoreTextSource::with_window(&flaky, 64);
        flaky.fail_next_read();
        assert!(plain.common_prefix(200, 230, &t[200..230]).is_err());
        assert_eq!(plain.common_prefix(200, 230, &t[200..230]).unwrap(), 30);
        assert_eq!(plain.symbol_at(229).unwrap(), t[229]);
    }

    #[test]
    fn cached_and_uncached_sources_answer_identically() {
        let t = text();
        let body = &t[..t.len() - 1];
        let raw = InMemoryStore::from_body(body, Alphabet::dna()).unwrap();
        let cache = Arc::new(BlockCache::with_layout(2048, 64, 4));
        let plain = StoreTextSource::with_window(&raw, 96);
        let cached = StoreTextSource::with_window(&raw, 96).cached(cache);
        let slice: &[u8] = &t;
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
    }
}

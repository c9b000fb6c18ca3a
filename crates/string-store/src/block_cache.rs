//! A sharded, capacity-bounded LRU cache of text blocks, held as the store's
//! own codes.
//!
//! A text left in a file is served block by block: every
//! [`StoreTextSource`] — one per query worker, rebuilt for every batch —
//! reads the blocks its descents touch. [`BlockCache`] keeps those blocks in
//! memory keyed by their block index, shared via [`Arc`] across all workers
//! of a query engine *and* across successive batches, so a warm cache serves
//! repeated or overlapping patterns with zero store I/O. An entry holds the
//! block exactly as the store keeps it — a raw block's bytes, a packed
//! block's payload bytes (one per four DNA symbols) — and is matched
//! code by code where it lies, so nothing is ever decoded into the cache.
//!
//! The cache is sharded (adjacent blocks land on different shards, so the
//! workers of a batch rarely contend on one lock) and bounded by a total
//! capacity in bytes, evicting least-recently-used blocks per shard. Every
//! interaction is counted — [`CacheSnapshot`] reports hits, misses,
//! insertions and evictions — both globally on the cache
//! ([`BlockCache::snapshot`]) and per consumer (each `StoreTextSource`
//! records its own activity, which is how a query batch attributes cache
//! traffic to exactly the workers that caused it).
//!
//! A cache stores *positions*, not provenance: one `BlockCache` must only
//! ever be used with one store's text (sharing it between *different texts*,
//! or between a raw and a packed store of one text, would serve wrong codes).
//! Entries whose length does not match the requested block span are ignored
//! defensively, so a misconfigured share mostly degrades to misses instead of
//! corrupting answers.
//!
//! [`StoreTextSource`]: crate::StoreTextSource

#![deny(
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::sync::lock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default granularity of one cache entry, in symbols — and the block size of
/// a [`StoreTextSource`](crate::StoreTextSource) with no cache, so a cached
/// fetch is the same size as an uncached one.
///
/// Sized in *symbols*, not bytes: a packed block then holds `bits/8` of the
/// bytes a raw block holds, so the §6.1 packing ratios carry over from
/// construction scans to query serving.
pub const DEFAULT_CACHE_BLOCK_SYMBOLS: usize = 4 << 10;

/// Default number of shards.
const DEFAULT_SHARDS: usize = 8;

/// Sentinel for "no slot" in the intrusive LRU lists.
const NIL: usize = usize::MAX;

/// Thread-safe cache activity counters (monotonic, relaxed atomics).
///
/// Used in two roles: [`BlockCache`] keeps one for its global lifetime
/// counters, and every [`StoreTextSource`](crate::StoreTextSource) keeps a
/// private one recording only the activity *it* caused — the per-worker
/// attribution the query layer sums into its batch stats.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl CacheStats {
    /// Creates a zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one lookup that was served from the cache.
    pub fn add_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lookup that had to go to the store.
    pub fn add_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one inserted block.
    pub fn add_insertion(&self) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` evicted blocks.
    pub fn add_evictions(&self, n: u64) {
        self.evictions.fetch_add(n, Ordering::Relaxed);
    }

    /// Takes a point-in-time copy of the counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            decoded_bytes: 0,
        }
    }
}

/// A point-in-time copy of [`CacheStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Lookups served from the cache (no store I/O).
    pub hits: u64,
    /// Lookups that had to read a block from the store.
    pub misses: u64,
    /// Blocks inserted after a miss.
    pub insertions: u64,
    /// Blocks evicted to stay under the capacity bound.
    pub evictions: u64,
    /// Bytes decoded to fill the cache: always 0, as an entry holds the
    /// store's codes as they were read.
    pub decoded_bytes: u64,
}

impl CacheSnapshot {
    /// Difference `self - earlier`, counter by counter (saturating).
    pub fn since(&self, earlier: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            insertions: self.insertions.saturating_sub(earlier.insertions),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            decoded_bytes: self.decoded_bytes.saturating_sub(earlier.decoded_bytes),
        }
    }

    /// Sum of two snapshots, counter by counter.
    pub fn merged(&self, other: &CacheSnapshot) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            insertions: self.insertions + other.insertions,
            evictions: self.evictions + other.evictions,
            decoded_bytes: self.decoded_bytes + other.decoded_bytes,
        }
    }

    /// Fraction of lookups served from the cache (0.0 when the cache was
    /// never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached block inside a shard's slab, threaded on an intrusive LRU list.
struct Slot {
    key: u64,
    data: Arc<[u8]>,
    prev: usize,
    next: usize,
}

/// One independently locked LRU of blocks.
struct Shard {
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Most recently used slot.
    head: usize,
    /// Least recently used slot — the eviction end.
    tail: usize,
    /// Sum of `data.len()` over live slots.
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    /// Unlinks `slot` from the LRU list (it must be linked).
    #[expect(
        clippy::indexing_slicing,
        reason = "intrusive-LRU links index the shard's own slot arena"
    )]
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slots[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n].prev = prev,
        }
    }

    /// Links `slot` at the head (most recently used).
    #[expect(
        clippy::indexing_slicing,
        reason = "intrusive-LRU links index the shard's own slot arena"
    )]
    fn link_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slots[h].prev = slot,
        }
        self.head = slot;
    }

    #[expect(clippy::indexing_slicing, reason = "map values are live slot indices in this shard")]
    fn get(&mut self, key: u64) -> Option<Arc<[u8]>> {
        let slot = *self.map.get(&key)?;
        self.unlink(slot);
        self.link_front(slot);
        Some(Arc::clone(&self.slots[slot].data))
    }

    /// Inserts (or refreshes) `key`, then evicts from the tail until the
    /// shard is back under `capacity`. Returns the number of evicted blocks.
    #[expect(
        clippy::indexing_slicing,
        reason = "slot indices come from the map / free list of this shard"
    )]
    fn insert(&mut self, key: u64, data: Arc<[u8]>, capacity: usize) -> u64 {
        if let Some(&slot) = self.map.get(&key) {
            // Two workers can miss the same block concurrently; the second
            // insert just refreshes recency (the content is equal).
            self.bytes = self.bytes - self.slots[slot].data.len() + data.len();
            self.slots[slot].data = data;
            self.unlink(slot);
            self.link_front(slot);
        } else {
            self.bytes += data.len();
            let slot = match self.free.pop() {
                Some(i) => {
                    self.slots[i] = Slot { key, data, prev: NIL, next: NIL };
                    i
                }
                None => {
                    self.slots.push(Slot { key, data, prev: NIL, next: NIL });
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, slot);
            self.link_front(slot);
        }
        let mut evicted = 0u64;
        while self.bytes > capacity && self.tail != NIL && self.map.len() > 1 {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.bytes -= self.slots[victim].data.len();
            self.slots[victim].data = Arc::from(&[][..]);
            self.free.push(victim);
            evicted += 1;
        }
        #[cfg(feature = "paranoid")]
        {
            let live: usize = self.map.values().map(|&s| self.slots[s].data.len()).sum();
            debug_assert_eq!(
                live, self.bytes,
                "shard byte accounting drifted from the live slot contents"
            );
            debug_assert!(
                self.bytes <= capacity || self.map.len() == 1,
                "shard holds {} bytes over its {} capacity with {} entries",
                self.bytes,
                capacity,
                self.map.len()
            );
        }
        evicted
    }
}

/// A sharded, capacity-bounded LRU cache of text blocks (see the module docs
/// for the design rationale).
///
/// Blocks are [`Self::block_symbols`] symbols each (the final block of a text
/// may be shorter), held as the store's codes, and keyed by block index —
/// block `b` covers text positions `[b * block_symbols, (b + 1) *
/// block_symbols)`. Wrap the cache
/// in an [`Arc`] and hand clones to every
/// [`StoreTextSource`](crate::StoreTextSource) that should share it.
pub struct BlockCache {
    shards: Box<[Mutex<Shard>]>,
    /// Capacity bound per shard, in bytes.
    shard_capacity: usize,
    capacity_bytes: usize,
    block_symbols: usize,
    stats: CacheStats,
}

impl BlockCache {
    /// A cache bounded by `capacity_bytes`, with the default block
    /// granularity and shard count.
    pub fn new(capacity_bytes: usize) -> Self {
        Self::with_layout(capacity_bytes, DEFAULT_CACHE_BLOCK_SYMBOLS, DEFAULT_SHARDS)
    }

    /// A cache with an explicit layout: total capacity in bytes, symbols per
    /// cached block (min 1) and shard count (min 1).
    ///
    /// Each shard is granted at least the bytes of one raw block, so even a
    /// capacity smaller than one block caches *something* rather than
    /// degenerating into a pure pass-through.
    pub fn with_layout(capacity_bytes: usize, block_symbols: usize, shards: usize) -> Self {
        let block_symbols = block_symbols.max(1);
        let shards = shards.max(1);
        let shard_capacity = (capacity_bytes / shards).max(block_symbols);
        BlockCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::new())).collect(),
            shard_capacity,
            capacity_bytes,
            block_symbols,
            stats: CacheStats::new(),
        }
    }

    /// Symbols per cached block (the fetch granularity).
    pub fn block_symbols(&self) -> usize {
        self.block_symbols
    }

    /// The configured total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of shards (adjacent block indexes map to different shards).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    #[expect(clippy::indexing_slicing, reason = "index is block % shards.len()")]
    fn shard(&self, block: u64) -> &Mutex<Shard> {
        &self.shards[(block % self.shards.len() as u64) as usize]
    }

    /// Looks up a block, refreshing its recency. Counts a hit or a miss on
    /// the cache's global stats.
    ///
    /// `expected_len` is the byte length of the caller's block: an entry
    /// of any other length (possible only when a cache is wrongly shared
    /// across different texts) counts — and is returned — as a miss, so the
    /// global hit rate degrades visibly instead of masking the
    /// misconfiguration while every lookup actually reaches the store.
    pub fn get(&self, block: u64, expected_len: usize) -> Option<Arc<[u8]>> {
        let found = lock(self.shard(block)).get(block);
        match found {
            Some(data) if data.len() == expected_len => {
                self.stats.add_hit();
                Some(data)
            }
            _ => {
                self.stats.add_miss();
                None
            }
        }
    }

    /// Inserts a block, evicting LRU entries of the same shard to stay under
    /// the capacity bound. Returns how many blocks were evicted.
    pub fn insert(&self, block: u64, data: Arc<[u8]>) -> u64 {
        let evicted = lock(self.shard(block)).insert(block, data, self.shard_capacity);
        self.stats.add_insertion();
        self.stats.add_evictions(evicted);
        evicted
    }

    /// Number of blocks currently cached.
    pub fn entries(&self) -> usize {
        self.shards.iter().map(|s| lock(s).map.len()).sum()
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> usize {
        self.shards.iter().map(|s| lock(s).bytes).sum()
    }

    /// Drops every cached block (counters are not reset).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            *lock(shard) = Shard::new();
        }
    }

    /// Lifetime-global counters of this cache (across every consumer; for
    /// per-batch attribution use the per-source counters the query layer
    /// sums).
    pub fn snapshot(&self) -> CacheSnapshot {
        self.stats.snapshot()
    }
}

impl std::fmt::Debug for BlockCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockCache")
            .field("entries", &self.entries())
            .field("bytes", &self.bytes())
            .field("capacity_bytes", &self.capacity_bytes)
            .field("block_symbols", &self.block_symbols)
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(fill: u8, len: usize) -> Arc<[u8]> {
        Arc::from(vec![fill; len].into_boxed_slice())
    }

    #[test]
    fn get_after_insert_hits() {
        let cache = BlockCache::with_layout(1 << 10, 16, 2);
        assert!(cache.get(3, 16).is_none());
        cache.insert(3, block(7, 16));
        assert_eq!(cache.get(3, 16).as_deref(), Some(&[7u8; 16][..]));
        let snap = cache.snapshot();
        assert_eq!((snap.hits, snap.misses, snap.insertions), (1, 1, 1));
        assert_eq!(snap.decoded_bytes, 0, "an entry is held as it was given");
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.bytes(), 16);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // One shard, capacity for exactly two 16-byte blocks.
        let cache = BlockCache::with_layout(32, 16, 1);
        cache.insert(0, block(0, 16));
        cache.insert(1, block(1, 16));
        assert!(cache.get(0, 16).is_some()); // refresh 0: 1 is now LRU
        cache.insert(2, block(2, 16));
        assert!(cache.get(1, 16).is_none(), "LRU block must be evicted");
        assert!(cache.get(0, 16).is_some());
        assert!(cache.get(2, 16).is_some());
        assert_eq!(cache.snapshot().evictions, 1);
        assert!(cache.bytes() <= 32);
    }

    #[test]
    fn capacity_is_bounded_under_churn() {
        let cache = BlockCache::with_layout(256, 16, 4);
        for i in 0..1000u64 {
            cache.insert(i, block(i as u8, 16));
        }
        assert!(cache.bytes() <= 256 + 4 * 16, "bytes {} over bound", cache.bytes());
        assert!(cache.entries() <= 256 / 16 + 4);
        assert!(cache.snapshot().evictions > 900);
    }

    #[test]
    fn adjacent_blocks_land_on_different_shards() {
        let cache = BlockCache::with_layout(1 << 20, 16, 4);
        for i in 0..8u64 {
            cache.insert(i, block(i as u8, 16));
        }
        let per_shard: Vec<usize> =
            cache.shards.iter().map(|s| s.lock().unwrap().map.len()).collect();
        assert_eq!(per_shard, vec![2, 2, 2, 2]);
    }

    #[test]
    fn reinserting_a_key_refreshes_without_double_counting_bytes() {
        let cache = BlockCache::with_layout(64, 16, 1);
        cache.insert(5, block(1, 16));
        cache.insert(5, block(1, 16));
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.bytes(), 16);
        assert_eq!(cache.snapshot().insertions, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let cache = BlockCache::new(1 << 20);
        cache.insert(0, block(9, 8));
        cache.clear();
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.get(0, 8).is_none());
        assert_eq!(cache.snapshot().insertions, 1);
    }

    #[test]
    fn tiny_capacity_still_holds_one_block_per_shard() {
        let cache = BlockCache::with_layout(4, 16, 1);
        cache.insert(0, block(3, 16));
        assert!(cache.get(0, 16).is_some(), "a single block must fit even under a tiny capacity");
        cache.insert(1, block(4, 16));
        assert!(cache.get(1, 16).is_some());
        assert!(cache.get(0, 16).is_none(), "over capacity: the older block is gone");
    }

    #[test]
    fn shared_across_threads() {
        let cache = Arc::new(BlockCache::with_layout(1 << 16, 64, 8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let key = (t * 50 + i) % 100;
                        if cache.get(key, 64).is_none() {
                            cache.insert(key, Arc::from(vec![key as u8; 64].into_boxed_slice()));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = cache.snapshot();
        assert_eq!(snap.hits + snap.misses, 800);
        // Every counter update is one `fetch_add`: none is lost to a race.
        assert_eq!(snap.insertions, snap.misses);
        assert_eq!(snap.decoded_bytes, 0);
        assert!(cache.bytes() <= (1 << 16) + 8 * 64);

        // One shard with room for one 24-byte block: `insert` checks the
        // capacity and inserts under one shard lock, so concurrent inserts
        // never overshoot it together.
        let cache = Arc::new(BlockCache::with_layout(36, 24, 1));
        let start = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let (cache, start) = (Arc::clone(&cache), Arc::clone(&start));
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..50u64 {
                        cache.insert(t * 50 + i, Arc::from(vec![t as u8; 24].into_boxed_slice()));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = cache.snapshot();
        assert!(cache.bytes() <= 36, "bytes {} over the shard capacity", cache.bytes());
        assert_eq!(cache.entries(), 1);
        assert_eq!(snap.insertions, 200);
        assert_eq!(snap.evictions, snap.insertions - cache.entries() as u64);
    }

    #[test]
    fn snapshot_since_and_merged() {
        let a = CacheSnapshot { hits: 2, misses: 1, ..Default::default() };
        let b = CacheSnapshot { hits: 5, misses: 4, insertions: 3, ..Default::default() };
        assert_eq!(
            b.since(&a),
            CacheSnapshot { hits: 3, misses: 3, insertions: 3, ..Default::default() }
        );
        assert_eq!(a.merged(&b).hits, 7);
        assert!((b.hit_rate() - 5.0 / 9.0).abs() < 1e-9);
        assert_eq!(CacheSnapshot::default().hit_rate(), 0.0);
    }
}

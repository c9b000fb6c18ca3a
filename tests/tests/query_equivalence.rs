//! The store-backed `QueryEngine` must be observationally identical to the
//! in-memory `&[u8]` query path.
//!
//! Property tests pin byte-identical `contains`/`count`/`locate` answers
//! between the materialized-text path and engines over `InMemoryStore`,
//! `DiskStore`, `PackedMemoryStore` and `PackedDiskStore`, across
//! DNA/protein/English workloads and the awkward pattern shapes (empty,
//! terminal-adjacent, longer than the text, absent). A separate test asserts
//! the read-amplification acceptance criterion: a ≥64-pattern batch served
//! from a `PackedDiskStore` answers byte-identically to the in-memory
//! single-pattern API while fetching strictly fewer bytes than the raw-store
//! equivalent.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use era::{EraConfig, Query, QueryAnswer, QueryBatch, QueryEngine, SuffixIndex};
use era_string_store::{
    Alphabet, BlockCache, DiskStore, InMemoryStore, PackedDiskStore, PackedMemoryStore,
    StoreTextSource, StringStore, TextSource,
};
use era_suffix_array::suffix_array;
use era_workloads::{generate, genome_like, protein_like, DatasetKind, DatasetSpec};
use proptest::collection;
use proptest::prelude::*;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("era-query-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Unique file tag per materialized store, so proptest cases never collide.
fn next_tag() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    SEQ.fetch_add(1, Ordering::Relaxed)
}

fn alphabets() -> Vec<Alphabet> {
    vec![Alphabet::dna(), Alphabet::protein(), Alphabet::english()]
}

fn body_from(raw: &[u8], alphabet: &Alphabet) -> Vec<u8> {
    let symbols = alphabet.symbols();
    raw.iter().map(|&b| symbols[b as usize % symbols.len()]).collect()
}

/// The pattern shapes the issue calls out: empty, terminal-adjacent (suffixes
/// of the text, including one that crosses into the terminal symbol), longer
/// than the text, absent, plus ordinary substrings spread over the body.
fn patterns_for(text: &[u8]) -> Vec<Vec<u8>> {
    let body_len = text.len() - 1;
    let mut patterns: Vec<Vec<u8>> = vec![
        Vec::new(),
        vec![0u8],                                           // the terminal alone
        text[body_len.saturating_sub(2)..].to_vec(),         // suffix including the terminal
        text[body_len.saturating_sub(3)..body_len].to_vec(), // suffix of the body
        {
            let mut longer = text.to_vec();
            longer.extend_from_slice(b"XYZXYZ"); // longer than the text
            longer
        },
        b"\x02\x03\x04".to_vec(), // symbols outside every alphabet
    ];
    for i in 0..12usize {
        let len = 1 + (i * 5) % 9;
        let start = (i * 2654435761) % body_len.max(1);
        patterns.push(text[start..(start + len).min(body_len)].to_vec());
    }
    patterns
}

/// Materializes the four store backends over one body.
fn backends(body: &[u8], alphabet: &Alphabet) -> Vec<(&'static str, Box<dyn StringStore>)> {
    let dir = temp_dir();
    let tag = next_tag();
    let raw_disk =
        DiskStore::create(dir.join(format!("q-{tag}.era")), body, alphabet.clone(), 64).unwrap();
    let packed_disk =
        PackedDiskStore::create(dir.join(format!("q-{tag}.erap")), body, alphabet.clone(), 64)
            .unwrap();
    vec![
        (
            "in-memory",
            Box::new(
                InMemoryStore::from_body(body, alphabet.clone())
                    .unwrap()
                    .with_block_size(64)
                    .unwrap(),
            ),
        ),
        (
            "packed-memory",
            Box::new(
                PackedMemoryStore::from_body(body, alphabet.clone())
                    .unwrap()
                    .with_block_size(64)
                    .unwrap(),
            ),
        ),
        ("disk", Box::new(raw_disk)),
        ("packed-disk", Box::new(packed_disk)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, max_shrink_iters: 0 })]

    #[test]
    fn engine_over_every_backend_matches_the_in_memory_path(
        which in 0usize..3,
        raw_bytes in collection::vec(any::<u8>(), 1..300),
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let index = SuffixIndex::builder()
            .memory_budget(1 << 20)
            .build_from_bytes_with_alphabet(&body, alphabet.clone())
            .expect("construction succeeds");
        let patterns = patterns_for(index.text());

        // The reference: the in-memory `&[u8]` single-query path.
        let expected: Vec<(Vec<usize>, usize, bool)> = patterns
            .iter()
            .map(|p| (index.find_all(p), index.count(p), index.contains(p)))
            .collect();

        for (name, store) in backends(&body, &alphabet) {
            let engine = QueryEngine::over_store(index.tree(), store.as_ref());
            for (p, (find, count, contains)) in patterns.iter().zip(&expected) {
                let got = engine.find_all(p).unwrap();
                prop_assert!(&got == find, "find_all over {} diverged for {:?}: {:?}", name, p, got);
                prop_assert!(engine.count(p).unwrap() == *count, "count over {}", name);
                prop_assert!(engine.contains(p).unwrap() == *contains, "contains over {}", name);
            }
            // The whole set again, as one batch (exercises routing + merge).
            let batch: QueryBatch = patterns.iter().map(|p| Query::locate(p.clone())).collect();
            let response = engine.run(&batch).expect("batch succeeds");
            for ((answer, (find, _, _)), p) in
                response.results.iter().zip(&expected).zip(&patterns)
            {
                prop_assert!(
                    answer == &QueryAnswer::Locate(find.clone()),
                    "batched locate over {} diverged for {:?}: {:?}",
                    name,
                    p,
                    answer
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, max_shrink_iters: 0 })]

    /// Block and cache boundaries must be invisible: patterns *longer than
    /// a block*, hops that straddle cache-block and cache-shard boundaries,
    /// blocks that start at any bit offset of a packed payload, and tiny
    /// capacities that force evictions all answer byte-identically with the
    /// cache on and off, across all four store backends.
    #[test]
    fn cache_and_window_boundaries_are_invisible(
        which in 0usize..3,
        raw_bytes in collection::vec(any::<u8>(), 8..300),
        block_symbols in 1usize..40,
        capacity in 16usize..600,
    ) {
        let alphabet = alphabets()[which].clone();
        let body = body_from(&raw_bytes, &alphabet);
        let index = SuffixIndex::builder()
            .memory_budget(1 << 20)
            .build_from_bytes_with_alphabet(&body, alphabet.clone())
            .expect("construction succeeds");
        let text = index.text().to_vec();

        // Longer than a block by construction (a block is < 40 symbols): the
        // whole text, every suffix hop, plus the usual awkward shapes.
        let mut patterns = patterns_for(&text);
        patterns.push(text.clone());
        for i in 0..6usize {
            let start = (i * 37) % (text.len() - 1);
            patterns.push(text[start..].to_vec());
        }

        for (name, store) in backends(&body, &alphabet) {
            // One shared cache for both sources: the second one replays the
            // first one's blocks (the cross-worker sharing path).
            let cache = Arc::new(BlockCache::with_layout(capacity, block_symbols, 3));
            let plain = StoreTextSource::new(store.as_ref());
            let cached = StoreTextSource::with_cache(store.as_ref(), Arc::clone(&cache));
            let warm = StoreTextSource::with_cache(store.as_ref(), Arc::clone(&cache));
            for p in &patterns {
                let expect = index.tree().try_find_all(&plain, p).expect("plain source");
                let got = index.tree().try_find_all(&cached, p).expect("cached source");
                prop_assert!(expect == got, "cached find_all over {} diverged for {:?}", name, p);
                let replay = index.tree().try_find_all(&warm, p).expect("warm source");
                prop_assert!(expect == replay, "warm find_all over {} diverged for {:?}", name, p);
                prop_assert!(
                    index.tree().try_count(&cached, p).expect("count") == expect.len(),
                    "cached count over {name} diverged"
                );
            }
            // Raw symbol hops across block/shard boundaries agree too.
            for pos in (0..text.len()).step_by(7) {
                prop_assert!(cached.symbol_at(pos).unwrap() == text[pos], "symbol at {pos} over {name}");
            }
            prop_assert!(cache.bytes() <= capacity + 3 * block_symbols,
                "cache over capacity bound on {name}");
        }
    }
}

/// Acceptance criterion of the query redesign: a batch of ≥64 patterns
/// through the `QueryEngine` against a `PackedDiskStore` answers
/// byte-identically to the in-memory single-pattern API, while the packed
/// store's counters show strictly fewer bytes read than the raw-store
/// equivalent.
#[test]
fn packed_batch_matches_in_memory_api_with_fewer_bytes_read() {
    let body = generate(&DatasetSpec::new(DatasetKind::UniformDna, 64 << 10, 7));
    let index = SuffixIndex::builder()
        .memory_budget(1 << 20)
        .build_from_bytes_with_alphabet(&body, Alphabet::dna())
        .expect("construction succeeds");

    // ≥64 patterns: sampled substrings plus the awkward shapes.
    let mut patterns = patterns_for(index.text());
    for i in 0..80usize {
        let len = 3 + (i * 11) % 21;
        let start = (i * 40503) % (body.len() - len);
        patterns.push(body[start..start + len].to_vec());
    }
    assert!(patterns.len() >= 64);
    let batch: QueryBatch = patterns.iter().map(|p| Query::locate(p.clone())).collect();

    let dir = temp_dir();
    let raw = DiskStore::create(dir.join("accept.era"), &body, Alphabet::dna(), 4 << 10).unwrap();
    let packed =
        PackedDiskStore::create(dir.join("accept.erap"), &body, Alphabet::dna(), 4 << 10).unwrap();

    let raw_response = QueryEngine::over_store(index.tree(), &raw).run(&batch).expect("raw batch");
    let packed_response =
        QueryEngine::over_store(index.tree(), &packed).run(&batch).expect("packed batch");

    // Byte-identical to the in-memory single-pattern API.
    for ((p, raw_answer), packed_answer) in
        patterns.iter().zip(&raw_response.results).zip(&packed_response.results)
    {
        let expected = QueryAnswer::Locate(index.find_all(p));
        assert_eq!(packed_answer, &expected, "packed diverged for {p:?}");
        assert_eq!(raw_answer, &expected, "raw diverged for {p:?}");
    }

    // Strictly fewer bytes read from the packed store for the same batch.
    let raw_bytes = raw_response.stats.io.bytes_read;
    let packed_bytes = packed_response.stats.io.bytes_read;
    assert!(raw_bytes > 0 && packed_bytes > 0, "both batches must be served from their stores");
    assert!(
        packed_bytes < raw_bytes,
        "packed batch read {packed_bytes} bytes, raw read {raw_bytes}"
    );
    // 2-bit DNA: expect close to the 4x packing ratio, leave slack for
    // window-alignment effects.
    assert!(
        packed_bytes * 3 < raw_bytes,
        "packed batch should read ~4x fewer bytes ({packed_bytes} vs {raw_bytes})"
    );
}

/// Acceptance criterion of the block cache: re-running an identical
/// batch against a `PackedDiskStore`-backed engine with a warm cache reads
/// ≥10x fewer store bytes than the cold run, while the answers stay
/// byte-identical cache-on vs cache-off (run by the CI `packed-io` job).
#[test]
fn warm_cache_rerun_reads_10x_fewer_bytes_with_identical_answers() {
    let body = generate(&DatasetSpec::new(DatasetKind::UniformDna, 64 << 10, 19));
    let index = SuffixIndex::builder()
        .memory_budget(1 << 20)
        .build_from_bytes_with_alphabet(&body, Alphabet::dna())
        .expect("construction succeeds");
    let mut patterns = patterns_for(index.text());
    for i in 0..96usize {
        let len = 4 + (i * 13) % 24;
        let start = (i * 52361) % (body.len() - len);
        patterns.push(body[start..start + len].to_vec());
    }
    let batch: QueryBatch = patterns.iter().map(|p| Query::locate(p.clone())).collect();

    let dir = temp_dir();
    let packed =
        PackedDiskStore::create(dir.join("warm.erap"), &body, Alphabet::dna(), 4 << 10).unwrap();

    // Cache off: the reference answers, pure store I/O.
    let uncached = QueryEngine::over_store(index.tree(), &packed).run(&batch).expect("uncached");

    // One cached engine, the identical batch twice: cold fills, warm replays.
    let cache = Arc::new(BlockCache::new(8 << 20));
    let engine = QueryEngine::over_store(index.tree(), &packed).with_cache(cache);
    let cold = engine.run(&batch).expect("cold batch");
    let warm = engine.run(&batch).expect("warm batch");

    assert_eq!(cold.results, uncached.results, "cache-on answers must match cache-off");
    assert_eq!(warm.results, uncached.results, "warm answers must match cache-off");

    let (cold_bytes, warm_bytes) = (cold.stats.io.bytes_read, warm.stats.io.bytes_read);
    assert!(cold_bytes > 0, "the cold run must be served from the store");
    assert!(
        warm_bytes * 10 <= cold_bytes,
        "warm re-run must read >=10x fewer store bytes (cold {cold_bytes}, warm {warm_bytes})"
    );
    assert!(warm.stats.cache.hits > 0, "warm run must be cache-served");
    assert_eq!(warm.stats.cache.misses, 0, "8 MiB of cache holds the whole 64 KiB text");

    // The same holds through the multithreaded pool: workers share the cache.
    let parallel_warm = engine.threads(4).run(&batch).expect("parallel warm batch");
    assert_eq!(parallel_warm.results, uncached.results);
    assert!(parallel_warm.stats.io.bytes_read * 10 <= cold_bytes);
}

/// A packed file-backed batch caches the store's codes, nothing decoded: the
/// cache holds exactly the payload bytes of the blocks the batch touched,
/// which are the bytes the batch read (each block once), and reports no
/// decoded bytes. 1,001-symbol blocks start at every even bit offset.
#[test]
fn packed_file_batch_caches_payload_blocks_and_decodes_nothing() {
    let body = generate(&DatasetSpec::new(DatasetKind::UniformDna, 32 << 10, 23));
    let index = SuffixIndex::builder()
        .memory_budget(1 << 20)
        .build_from_bytes_with_alphabet(&body, Alphabet::dna())
        .expect("construction succeeds");
    let mut patterns = patterns_for(index.text());
    for i in 0..40usize {
        let len = 5 + (i * 7) % 19;
        let start = (i * 7919) % (body.len() - len);
        patterns.push(body[start..start + len].to_vec());
    }
    let batch: QueryBatch = patterns.iter().map(|p| Query::locate(p.clone())).collect();
    let packed =
        PackedDiskStore::create(temp_dir().join("payload.erap"), &body, Alphabet::dna(), 4 << 10)
            .unwrap();
    let block_symbols = 1001;
    let cache = Arc::new(BlockCache::with_layout(1 << 20, block_symbols, 4));
    let engine = QueryEngine::over_store(index.tree(), &packed).with_cache(Arc::clone(&cache));
    let response = engine.run(&batch).expect("batch");
    let reference = index.query_batch(&batch).expect("in-memory batch");
    assert_eq!(response.results, reference.results);

    assert_eq!(response.stats.cache.decoded_bytes, 0);
    assert_eq!(cache.snapshot().decoded_bytes, 0);
    // The payload size of every block the batch touched, found by looking
    // each block up at its payload length: 2 bits a body symbol, from the
    // bit offset the block starts at; the terminal has no bits.
    let text_len = body.len() + 1;
    let mut touched = Vec::new();
    for block in 0..text_len.div_ceil(block_symbols) {
        let base = block * block_symbols;
        let coded = block_symbols.min(body.len().saturating_sub(base));
        let bytes = if coded == 0 { 0 } else { (base * 2 % 8 + coded * 2).div_ceil(8) };
        if cache.get(block as u64, bytes).is_some() {
            touched.push(bytes);
        }
    }
    assert_eq!(touched.len(), cache.entries(), "every cached block has its payload length");
    assert_eq!(cache.bytes(), touched.iter().sum::<usize>());
    assert_eq!(cache.bytes() as u64, response.stats.io.bytes_read, "each block read once");
    assert_eq!(response.stats.cache.insertions, cache.entries() as u64);
    // Neighbouring blocks share the payload byte they meet in, no more.
    assert!(cache.entries() > 1 && cache.bytes() <= body.len() / 4 + cache.entries());
}

/// A 5-bit protein text left in a file, served through blocks whose length
/// is not a multiple of 8 — so most start inside a payload byte and codes
/// straddle block ends — answers like the same text held in memory.
#[test]
fn protein_file_blocks_off_byte_boundaries_answer_like_the_resident_text() {
    let body = generate(&DatasetSpec::new(DatasetKind::Protein, 12 << 10, 5));
    let index = SuffixIndex::builder()
        .memory_budget(1 << 20)
        .build_from_bytes_with_alphabet(&body, Alphabet::protein())
        .expect("construction succeeds");
    let mut patterns = patterns_for(index.text());
    for i in 0..60usize {
        let len = 1 + (i * 5) % 37;
        let start = (i * 6151) % (body.len() - len);
        patterns.push(body[start..start + len].to_vec());
    }
    let batch: QueryBatch = patterns
        .iter()
        .enumerate()
        .map(|(i, p)| match i % 3 {
            0 => Query::count(p.clone()),
            1 => Query::contains(p.clone()),
            _ => Query::locate(p.clone()),
        })
        .collect();
    let resident = PackedMemoryStore::from_body(&body, Alphabet::protein()).unwrap();
    let file = PackedDiskStore::create(
        temp_dir().join("protein.erap"),
        &body,
        Alphabet::protein(),
        4 << 10,
    )
    .unwrap();
    let want = QueryEngine::over_store(index.tree(), &resident).run(&batch).unwrap();
    assert_eq!(want.stats.io.bytes_read, 0, "the resident text is matched in place");
    for block_symbols in [13, 67, 1001] {
        let cache = Arc::new(BlockCache::with_layout(1 << 16, block_symbols, 4));
        for threads in [1, 3] {
            let engine = QueryEngine::over_store(index.tree(), &file)
                .with_cache(Arc::clone(&cache))
                .threads(threads);
            let got = engine.run(&batch).unwrap();
            assert_eq!(
                got.results, want.results,
                "{block_symbols}-symbol blocks, {threads} thread(s)"
            );
        }
        let source = StoreTextSource::with_cache(&file, cache);
        for pos in 0..body.len() + 1 {
            assert_eq!(source.symbol_at(pos).unwrap(), index.text()[pos], "symbol {pos}");
        }
    }
}

/// The batched engine and the multithreaded batched engine agree with the
/// serial one on a store backend.
#[test]
fn parallel_store_batches_are_deterministic() {
    let body = generate(&DatasetSpec::new(DatasetKind::Protein, 16 << 10, 11));
    let index = SuffixIndex::builder()
        .memory_budget(1 << 20)
        .build_from_bytes_with_alphabet(&body, Alphabet::protein())
        .expect("construction succeeds");
    let mut patterns = patterns_for(index.text());
    for i in 0..64usize {
        let len = 2 + i % 13;
        let start = (i * 7919) % (body.len() - len);
        patterns.push(body[start..start + len].to_vec());
    }
    let batch: QueryBatch = patterns.iter().map(|p| Query::locate(p.clone())).collect();
    let packed = PackedMemoryStore::from_body(&body, Alphabet::protein()).unwrap();
    let serial = QueryEngine::over_store(index.tree(), &packed).run(&batch).unwrap();
    let parallel = QueryEngine::over_store(index.tree(), &packed).threads(4).run(&batch).unwrap();
    assert_eq!(serial.results, parallel.results);
    assert_eq!(serial.results.len(), batch.len());
}

/// The occurrences of `pattern` read off the suffix array of `text`: the
/// interval of suffixes that start with it, in ascending position order.
fn oracle_positions(text: &[u8], sa: &[u32], pattern: &[u8]) -> Vec<usize> {
    let suffix = |s: &u32| &text[*s as usize..];
    let lo = sa.partition_point(|s| suffix(s) < pattern);
    let hi = lo + sa[lo..].partition_point(|s| suffix(s).starts_with(pattern));
    let mut out: Vec<usize> = sa[lo..hi].iter().map(|&s| s as usize).collect();
    out.sort_unstable();
    out
}

/// Paged `Locate` through `QueryEngine::run`, on one and two threads, against
/// the suffix-array oracle: offsets of 0, inside the occurrence count and
/// past it, limits of 0, 1, 16 and none, for patterns shorter than their
/// S-prefix (routed to several partitions), longer ones (one partition),
/// the empty pattern (every partition) and absent ones.
#[test]
fn paged_locate_matches_the_suffix_array_oracle() {
    let config = EraConfig {
        memory_budget: 8 << 10,
        r_buffer_size: Some(512),
        input_buffer_size: 128,
        trie_area: 128,
        ..EraConfig::default()
    };
    for (body, alphabet) in
        [(genome_like(3_000, 7), Alphabet::dna()), (protein_like(2_000, 7), Alphabet::protein())]
    {
        let index = SuffixIndex::builder()
            .config(config.clone())
            .build_from_bytes_with_alphabet(&body, alphabet.clone())
            .unwrap();
        let text = index.text();
        let sa = suffix_array(text);
        let mut patterns: Vec<Vec<u8>> = vec![Vec::new(), b"\x02\x03".to_vec(), vec![0u8]];
        patterns.extend(alphabet.symbols().iter().map(|&c| vec![c]));
        patterns.extend((0..8).map(|i| body[i * 200..][..2].to_vec()));
        patterns.extend((0..8).map(|i| body[i * 150 + 9..][..14].to_vec()));
        let mut absent = body[100..130].to_vec();
        absent.reverse();
        absent.extend_from_slice(&body[500..530]);
        patterns.push(absent);
        let routes = |p: &[u8]| index.tree().trie().candidates(p).len();
        assert!(index.tree().partitions().len() > 8, "a build of many partitions");
        assert!(patterns.iter().any(|p| !p.is_empty() && routes(p) >= 2));
        assert_eq!(routes(&[]), index.tree().partitions().len());

        let mut batch = QueryBatch::new();
        let mut expected = Vec::new();
        for pattern in &patterns {
            let all = oracle_positions(text, &sa, pattern);
            for offset in [0, all.len() / 2, all.len() + 3] {
                for limit in [Some(0), Some(1), Some(16), None] {
                    batch.add(Query::Locate { pattern: pattern.clone(), offset, limit });
                    let page = all.iter().skip(offset).take(limit.unwrap_or(usize::MAX));
                    expected.push(QueryAnswer::Locate(page.copied().collect()));
                }
            }
        }
        assert!(expected.iter().any(|a| a.positions().len() == 16));
        for threads in [1, 2] {
            let response = index.engine().threads(threads).run(&batch).unwrap();
            for ((query, got), want) in batch.queries().iter().zip(&response.results).zip(&expected)
            {
                assert_eq!(got, want, "{query:?} on {threads} thread(s)");
            }
        }
    }
}

//! Batched query serving: answer many patterns in one engine pass, straight
//! from a raw or packed on-disk store — the text is never materialized.
//!
//! ```text
//! cargo run --release -p era-examples --example batched_queries
//! ```

#![deny(rust_2018_idioms)]

use era::{EraConfig, Query, QueryBatch, QueryResponse, SuffixIndex};
use era_workloads::genome_like;

fn print_stats(label: &str, response: &QueryResponse) {
    let cache = response.stats.cache;
    println!(
        "{label:<22} {:>7} queries  {:>9.0} q/s  {:>8} bytes read  {:>5} random seeks  \
         cache {:>3.0}% hit",
        response.stats.queries,
        response.stats.queries_per_second(),
        response.stats.io.bytes_read,
        response.stats.io.random_seeks,
        100.0 * cache.hit_rate(),
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A genome-like sequence, indexed once and saved in both encodings.
    let body = genome_like(256 << 10, 17);
    let catalog =
        std::env::temp_dir().join(format!("era-batched-queries-{}.eracat", std::process::id()));

    println!("== batched queries ==");
    println!("sequence: {} KiB genome-like DNA", body.len() >> 10);
    println!();

    // A mixed batch: paged occurrence listing, counting, membership probes.
    let mut batch = QueryBatch::new();
    for i in 0..200usize {
        let len = 6 + (i * 5) % 12;
        let start = (i * 104729) % (body.len() - len);
        batch.add(Query::locate_page(&body[start..start + len], 0, 25));
    }
    batch = batch
        .push(Query::count(&b"GATTACA"[..]))
        .push(Query::contains(&b"TTTTTTTTTTTTTTTT"[..]))
        .push(Query::locate(&b"ACGTACGT"[..]));

    for packed in [false, true] {
        let encoding = if packed { "packed (2-bit)" } else { "raw (1 byte/symbol)" };
        println!("-- {encoding} --");

        // Build + save as a catalog; the packed build persists the §6.1
        // packed payload as its text segment.
        let index =
            SuffixIndex::builder().memory_budget(4 << 20).packed(packed).build_from_bytes(&body)?;
        index.save_to_file(&catalog)?;

        // Open under a memory budget neither encoding of the text fits: the
        // text segment stays on disk, the trees load into memory, and edge
        // labels resolve block-wise from the catalog file, each block of the
        // store's codes matched where it lies, nothing decoded. Every engine
        // of the index shares its block cache, so the first batch runs cold
        // (filling the cache from the store) and every later batch —
        // single- or multi-threaded, even from a fresh `engine()` — replays
        // the overlapping blocks with zero store I/O.
        let budget = EraConfig { memory_budget: body.len() / 16, ..EraConfig::default() };
        let served = SuffixIndex::open_file_with(&catalog, &budget)?;
        assert!(served.store().is_some());
        assert!(served.block_cache().is_some());

        let single_threaded = served.query_batch(&batch)?;
        print_stats("batched x1 (cold)", &single_threaded);
        let warm = served.query_batch(&batch)?;
        print_stats("batched x1 (warm)", &warm);
        let multi_threaded = served.engine().threads(4).run(&batch)?;
        print_stats("batched x4 (warm)", &multi_threaded);
        assert_eq!(single_threaded.results, warm.results);
        assert_eq!(single_threaded.results, multi_threaded.results);
        assert!(
            warm.stats.io.bytes_read <= single_threaded.stats.io.bytes_read,
            "a warm cache can only reduce store reads"
        );

        // Spot-check against the in-memory index.
        assert_eq!(
            multi_threaded.results[200].occurrences(),
            index.count(b"GATTACA"),
            "store-served answers must match the in-memory index"
        );
        println!();
    }

    std::fs::remove_file(&catalog)?;
    println!("(the packed rows fetch ~4x fewer bytes for the same answers,");
    println!(" and warm batches are served from the shared block cache)");
    Ok(())
}

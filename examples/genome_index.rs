//! Disk-based construction over a genome-like sequence.
//!
//! This mirrors the paper's headline scenario: the string lives in a file, the
//! memory budget is a fraction of the string size, and construction proceeds
//! through strictly sequential scans of the file's 2-bit codes (§6.1). The
//! finished index is persisted as a catalog file and reopened for querying
//! under the same memory budget: its packed text, a quarter of the sequence,
//! stays on disk on the serving side too unless it fits that budget.
//!
//! ```text
//! cargo run --release -p era-examples --bin genome_index -- [length_kib] [memory_kib]
//! ```

#![deny(rust_2018_idioms)]

use era::{EraConfig, SuffixIndex};
use era_examples::{print_report, printable};
use era_string_store::{Alphabet, DiskStore};
use era_workloads::genome_like;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let length_kib: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(256);
    let memory_kib: usize = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(length_kib / 4);

    println!("== genome_index ==");
    println!("sequence: {length_kib} KiB genome-like DNA, memory budget: {memory_kib} KiB");

    // 1. Materialise the sequence as a file (the "very long string" on disk).
    let dir = std::env::temp_dir().join(format!("era-genome-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let genome = genome_like(length_kib << 10, 2024);
    let genome_path = dir.join("genome.seq");
    let mut terminated = genome.clone();
    terminated.push(0);
    std::fs::write(&genome_path, &terminated)?;

    // 2. Build the index straight from the file with a constrained budget.
    //    The file is packed to 2-bit codes first, and every scan reads those.
    let config = EraConfig {
        memory_budget: memory_kib << 10,
        input_buffer_size: 16 << 10,
        trie_area: 16 << 10,
        ..EraConfig::default()
    };
    let index = SuffixIndex::builder()
        .config(config.clone())
        .build_from_path(&genome_path, Alphabet::dna())?;
    print_report(index.report());
    println!();

    // 2b. Build again over the raw file, one byte a symbol. The tree is
    // identical; the packed build's scans fetched ~4x fewer bytes.
    let raw_store = DiskStore::open(&genome_path, Alphabet::dna(), config.input_buffer_size)?;
    let raw =
        SuffixIndex::builder().config(config.clone()).build_from_store(&raw_store, Vec::new())?;
    assert_eq!(raw.suffix_array(), index.suffix_array());
    let raw_mb = raw.report().io.bytes_read as f64 / (1 << 20) as f64;
    let packed_mb = index.report().io.bytes_read as f64 / (1 << 20) as f64;
    println!(
        "packed store: {packed_mb:.2} MB read vs {raw_mb:.2} MB raw ({:.2}x fewer bytes)",
        raw_mb / packed_mb.max(1e-9)
    );
    println!();

    // 3. Run a few genomics-flavoured queries.
    let probe = &genome[genome.len() / 2..genome.len() / 2 + 24];
    println!("probe read {:?}", printable(probe));
    println!("  aligns at {:?}", index.find_all(probe));
    let (off, len) = index.longest_repeated_substring().expect("genomes repeat");
    println!("longest repeated segment: {len} bp (e.g. at offset {off})");
    for kmer in [&b"GATTACA"[..], b"TATA", b"ACGTACGT"] {
        println!("k-mer {:<10} occurs {} times", printable(kmer), index.count(kmer));
    }
    println!();

    // 4. Persist the index (as a crash-safe single-file catalog) and reopen
    //    it under the build's budget: a packed text larger than that is
    //    served block-wise from the catalog file instead of being read into
    //    memory.
    let catalog = dir.join("index.eracat");
    index.save_to_file(&catalog)?;
    let loaded = SuffixIndex::open_file_with(&catalog, &config)?;
    let in_file = genome.len().div_ceil(4) > config.memory_budget;
    assert_eq!(loaded.block_cache().is_some(), in_file);
    assert_eq!(loaded.count(b"GATTACA"), index.count(b"GATTACA"));
    let held = if in_file { "served from the file" } else { "held in memory" };
    println!("index persisted to {} and reloaded successfully (text {held})", catalog.display());

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

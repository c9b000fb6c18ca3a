//! Pattern-mining workloads on top of the index: the applications §1 of the
//! paper motivates (bioinformatics motifs, document/text analysis).
//!
//! ```text
//! cargo run --release -p era-examples --bin pattern_mining
//! ```

#![deny(rust_2018_idioms)]

use std::collections::BTreeMap;

use era::SuffixIndex;
use era_examples::printable;
use era_workloads::{english_like, genome_like};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== pattern_mining ==");

    // --- 1. Frequent k-mer mining on a genome-like sequence. ---
    let genome = genome_like(128 << 10, 7);
    let index = SuffixIndex::builder().memory_budget(1 << 20).build_from_bytes(&genome)?;

    let k = 12;
    let mut counts: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
    // Enumerate candidate k-mers from the sequence itself, count via the index.
    for start in (0..genome.len() - k).step_by(64) {
        let kmer = genome[start..start + k].to_vec();
        counts.entry(kmer.clone()).or_insert_with(|| index.count(&kmer));
    }
    let mut top: Vec<(&Vec<u8>, &usize)> = counts.iter().collect();
    top.sort_by(|a, b| b.1.cmp(a.1));
    println!("most frequent sampled {k}-mers:");
    for (kmer, count) in top.iter().take(5) {
        println!("  {} -> {count} occurrences", printable(kmer));
    }

    let (off, len) = index.longest_repeated_substring().expect("repeats exist");
    println!("longest repeated segment: {len} bp at offset {off}");
    println!();

    // --- 2. Longest common substring of two documents (generalized index). ---
    let doc_a = english_like(20 << 10, 100);
    let doc_b = {
        // Re-use a chunk of doc_a so that a meaningful common passage exists.
        let mut b = english_like(18 << 10, 200);
        let shared = &doc_a[5_000..5_400];
        b.extend_from_slice(shared);
        b.extend_from_slice(&english_like(2 << 10, 300));
        b
    };
    let generalized = SuffixIndex::builder().build_generalized(&[&doc_a, &doc_b])?;
    let lcs = generalized.longest_common_substring()?;
    println!("documents: {} and {} characters", doc_a.len(), doc_b.len());
    println!("longest common passage: {} characters", lcs.len());
    println!("  \"{}...\"", printable(&lcs[..60.min(lcs.len())]));
    assert!(lcs.len() >= 400, "the planted passage must be found");
    println!();

    // --- 3. Simple motif scan: all occurrences of a degenerate site. ---
    let site = b"TATAAT"; // a classic promoter-like motif
    let hits = index.find_all(site);
    println!("motif {} occurs {} times in the genome-like sequence", printable(site), hits.len());

    Ok(())
}

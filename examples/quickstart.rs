//! Quickstart: build a suffix-tree index with ERA and run the classic queries.
//!
//! ```text
//! cargo run --release -p era-examples --bin quickstart
//! ```

#![deny(rust_2018_idioms)]

use era::SuffixIndex;
use era_examples::{print_report, printable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The running example of the paper (Figure 2).
    let text = b"TGGTGGTGGTGCGGTGATGGTGC".to_vec();

    let index = SuffixIndex::builder()
        .memory_budget(1 << 20) // 1 MiB is plenty here; ERA also works when it is not
        .build_from_bytes(&text)?;

    println!("== quickstart ==");
    println!("text: {}", printable(&text));
    println!();

    // Exact substring search in O(|pattern|).
    for pattern in [&b"TG"[..], b"TGGTGC", b"GGTGA", b"AAA"] {
        let occurrences = index.find_all(pattern);
        println!(
            "pattern {:<8} -> {} occurrence(s) at {:?}",
            printable(pattern),
            occurrences.len(),
            occurrences
        );
    }
    println!();

    // Counting and membership.
    assert_eq!(index.count(b"TG"), 7); // Table 1 of the paper
    assert!(index.contains(b"GATGG"));
    assert!(!index.contains(b"CCCC"));

    // The longest repeated substring is the deepest internal node.
    let (offset, len) = index.longest_repeated_substring().expect("repeats exist");
    println!(
        "longest repeated substring: {:?} (length {len}, e.g. at offset {offset})",
        printable(&text[offset..offset + len])
    );

    // The leaves in lexicographic order form the suffix array.
    let sa = index.suffix_array();
    println!("suffix array (first 10 entries): {:?}", &sa[..10.min(sa.len())]);
    println!();

    print_report(index.report());
    Ok(())
}

//! Shared helpers for the runnable examples.
//!
//! Each binary in this package is a self-contained demonstration of the `era`
//! public API:
//!
//! * `quickstart` — build an index over a small string and query it.
//! * `genome_index` — disk-based construction over a genome-like synthetic
//!   sequence, with the construction report and on-disk persistence.
//! * `pattern_mining` — the motif/repeat-mining workload the paper motivates
//!   (longest repeated substring, frequent k-mers, common substrings of two
//!   sequences).
//! * `parallel_build` — shared-memory and shared-nothing parallel
//!   construction with speed-up reporting.
//! * `batched_queries` — store-backed query serving: a mixed
//!   contains/count/locate batch answered through the `QueryEngine` from a
//!   raw and a packed on-disk store, without materializing the text.

#![deny(rust_2018_idioms)]

use era::ConstructionReport;

/// Pretty-prints a construction report.
pub fn print_report(report: &ConstructionReport) {
    println!("algorithm           : {}", report.algorithm);
    println!("input length        : {} symbols", report.text_len);
    println!("memory budget       : {} KiB", report.memory_budget / 1024);
    println!("FM (max frequency)  : {}", report.fm);
    println!("sub-trees           : {}", report.partitions);
    println!("virtual trees       : {}", report.virtual_trees);
    println!("vertical time       : {:?}", report.vertical_time);
    println!("horizontal time     : {:?}", report.horizontal_time);
    println!("total time          : {:?}", report.elapsed);
    println!("string scans        : {}", report.io.full_scans);
    println!("bytes read          : {} KiB", report.io.bytes_read / 1024);
    println!("sequential fraction : {:.3}", report.io.sequential_fraction());
    println!("tree nodes          : {}", report.tree.nodes);
    println!("tree leaves         : {}", report.tree.leaves);
    println!("deepest repeat      : {} symbols", report.tree.max_internal_depth);
    if !report.per_node.is_empty() {
        println!("workers / nodes     :");
        for n in &report.per_node {
            println!(
                "  node {:>2}: {:>4} virtual trees, {:>5} sub-trees, {:?}",
                n.node, n.virtual_trees, n.partitions, n.elapsed
            );
        }
    }
}

/// Formats a byte slice for terminal output (printable ASCII passes through).
pub fn printable(bytes: &[u8]) -> String {
    bytes.iter().map(|&b| if b.is_ascii_graphic() || b == b' ' { b as char } else { '.' }).collect()
}

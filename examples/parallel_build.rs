//! Parallel construction: shared-memory (multicore) and simulated
//! shared-nothing (cluster), with speed-up reporting — the §5 scenarios.
//!
//! ```text
//! cargo run --release -p era-examples --bin parallel_build -- [length_kib]
//! ```

#![deny(rust_2018_idioms)]

use std::time::Instant;

use era::{construct, construct_shared_nothing, EraConfig, SharedNothingOptions};
use era_examples::print_report;
use era_string_store::{Alphabet, DiskStore};
use era_workloads::genome_like;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let length_kib: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(256);
    println!("== parallel_build ({length_kib} KiB genome-like DNA) ==");

    let dir = std::env::temp_dir().join(format!("era-parallel-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let genome = genome_like(length_kib << 10, 11);

    let config = EraConfig {
        memory_budget: (length_kib << 10) / 2,
        input_buffer_size: 16 << 10,
        trie_area: 16 << 10,
        ..EraConfig::default()
    };

    // --- Shared-memory / shared-disk: threads over one store. ---
    println!("\n-- shared-memory / shared-disk --");
    let mut serial_time = None;
    for threads in [1usize, 2, 4] {
        let store = DiskStore::create(
            dir.join(format!("sm-{threads}.seq")),
            &genome,
            Alphabet::dna(),
            64 << 10,
        )?;
        let cfg = EraConfig { threads, ..config.clone() };
        let start = Instant::now();
        let (tree, report) = construct(&store, &cfg)?;
        let elapsed = start.elapsed();
        if threads == 1 {
            serial_time = Some(elapsed);
        }
        let speedup = serial_time.map(|s| s.as_secs_f64() / elapsed.as_secs_f64()).unwrap_or(1.0);
        println!(
            "{threads} thread(s): {elapsed:?}  (speed-up {speedup:.2}x, {} sub-trees, {} leaves)",
            report.partitions,
            tree.leaf_count()
        );
    }

    // --- Shared-nothing: every node owns a private copy of the string. ---
    println!("\n-- shared-nothing (simulated cluster) --");
    let shared_path = dir.join("cluster.seq");
    {
        let mut text = genome.clone();
        text.push(0);
        std::fs::write(&shared_path, &text)?;
    }
    let mut single_node = None;
    for nodes in [1usize, 2, 4, 8] {
        let stores: Vec<DiskStore> = (0..nodes)
            .map(|_| DiskStore::open(&shared_path, Alphabet::dna(), 64 << 10))
            .collect::<Result<_, _>>()?;
        let options = SharedNothingOptions {
            transfer_bandwidth: Some(128.0 * (1 << 20) as f64), // a 1 Gbit-ish switch
        };
        let (_tree, report) = construct_shared_nothing(&stores, &config, &options)?;
        let makespan = report.makespan();
        if nodes == 1 {
            single_node = Some(makespan);
        }
        let speedup = single_node.map(|s| s.as_secs_f64() / makespan.as_secs_f64()).unwrap_or(1.0);
        println!(
            "{nodes} node(s): makespan {makespan:?}, + transfer {:?}  (speed-up {speedup:.2}x)",
            report.string_transfer
        );
        if nodes == 8 {
            println!("\nfull report for the 8-node run:");
            print_report(&report);
        }
    }

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}

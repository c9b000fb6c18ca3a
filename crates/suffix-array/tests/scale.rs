//! The suffix array at scale: a 64 MiB genome-like text, built once and
//! checked by the linear-time certificate. Ignored by default (about half a
//! minute in release); run it with
//! `cargo test --release -p era-suffix-array -- --include-ignored`.

use era_suffix_array::sa::is_suffix_array;
use era_suffix_array::suffix_array;
use era_workloads::genome_like;
use std::time::Instant;

/// The process's peak resident set (`VmHWM`) in bytes, where the platform
/// reports one.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
#[ignore = "64 MiB: about half a minute in release"]
fn genome_like_64_mib_is_certified() {
    let n = 64 << 20;
    let text = genome_like(n, 37);
    let t0 = Instant::now();
    let sa = suffix_array(&text);
    let took = t0.elapsed();
    // Read before the certificate, whose inverse ranks cost 4 B/symbol more.
    let peak = peak_rss_bytes();
    assert!(is_suffix_array(&text, &sa), "the 64 MiB suffix array fails its certificate");
    match peak {
        Some(peak) => {
            let per_symbol = peak as f64 / n as f64;
            println!(
                "suffix_array: {} MiB genome-like in {:.2} s, VmHWM {} MiB = {per_symbol:.2} B/symbol",
                n >> 20,
                took.as_secs_f64(),
                peak >> 20
            );
            assert!(per_symbol <= 6.0, "peak {per_symbol:.2} B/symbol, text and output included");
        }
        None => {
            println!("suffix_array: {} MiB genome-like in {:.2} s", n >> 20, took.as_secs_f64())
        }
    }
}

//! Shared plumbing: dataset materialisation and algorithm invocation.

use std::path::PathBuf;

use era::{ConstructionReport, EraConfig, EraResult};
use era_baselines::{
    b2st_construct, trellis_construct, ukkonen_construct, wavefront_construct,
    wavefront_construct_parallel, B2stConfig, TrellisConfig, WaveFrontConfig,
};
use era_string_store::{DiskStore, StringStore};
use era_suffix_tree::PartitionedSuffixTree;
use era_workloads::{alphabet_for, generate, DatasetSpec};

/// The algorithms the harness can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// ERA, serial, ERA-str+mem (the paper's "ERA").
    Era,
    /// ERA with the string-only horizontal partitioning (ERA-str).
    EraStr,
    /// ERA shared-memory parallel with the given number of threads.
    EraParallel(usize),
    /// WaveFront (serial).
    WaveFront,
    /// PWaveFront with the given number of threads.
    PWaveFront(usize),
    /// B²ST.
    B2st,
    /// TRELLIS.
    Trellis,
    /// Ukkonen (in-memory reference).
    Ukkonen,
}

impl Algorithm {
    /// Human-readable label used in the report tables.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Era => "ERA".into(),
            Algorithm::EraStr => "ERA-str".into(),
            Algorithm::EraParallel(t) => format!("ERA x{t}"),
            Algorithm::WaveFront => "WaveFront".into(),
            Algorithm::PWaveFront(t) => format!("PWaveFront x{t}"),
            Algorithm::B2st => "B2ST".into(),
            Algorithm::Trellis => "Trellis".into(),
            Algorithm::Ukkonen => "Ukkonen".into(),
        }
    }
}

/// Directory used for the temporary dataset files.
pub fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("era-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    dir
}

/// Block size used for the benchmark datasets (4 KiB). The paper uses a 1 MB
/// input buffer over multi-GB strings; with MB-scale strings a 4 KiB block
/// keeps the blocks-per-string ratio in the same regime so that the
/// sequential/seek accounting stays meaningful.
pub const BENCH_BLOCK: usize = 4 << 10;

/// Generates the dataset described by `spec` and materialises it as a
/// [`DiskStore`] (a real file read through block-sized I/O), so every
/// algorithm pays actual file-system reads.
pub fn make_disk_store(spec: &DatasetSpec) -> DiskStore {
    let body = generate(spec);
    let alphabet = alphabet_for(spec.kind);
    let name = format!("{}-{}", spec.tag(), spec.seed);
    let path = bench_dir().join(format!("{name}.era"));
    DiskStore::create(path, &body, alphabet, BENCH_BLOCK).expect("create dataset file")
}

/// An ERA configuration scaled for a given memory budget (keeps the paper's
/// memory-layout rules, shrinks the fixed buffers to laptop scale).
pub fn era_config(memory_budget: usize) -> EraConfig {
    EraConfig {
        memory_budget,
        input_buffer_size: 4 << 10,
        trie_area: 1 << 10,
        ..EraConfig::default()
    }
}

/// Runs `algorithm` against `store` with the given memory budget.
pub fn run_algorithm(
    algorithm: Algorithm,
    store: &dyn StringStore,
    memory_budget: usize,
) -> EraResult<(PartitionedSuffixTree, ConstructionReport)> {
    match algorithm {
        Algorithm::Era => era::construct(store, &era_config(memory_budget)),
        Algorithm::EraStr => {
            let config = EraConfig {
                horizontal: era::HorizontalMethod::StringOnly,
                ..era_config(memory_budget)
            };
            era::construct(store, &config)
        }
        Algorithm::EraParallel(threads) => {
            let config = EraConfig { threads, ..era_config(memory_budget) };
            era::construct(store, &config)
        }
        Algorithm::WaveFront => wavefront_construct(
            store,
            &WaveFrontConfig { memory_budget, ..WaveFrontConfig::default() },
        ),
        Algorithm::PWaveFront(threads) => wavefront_construct_parallel(
            store,
            &WaveFrontConfig { memory_budget, threads, ..WaveFrontConfig::default() },
        ),
        Algorithm::B2st => {
            b2st_construct(store, &B2stConfig { memory_budget, partition_bytes: None })
        }
        Algorithm::Trellis => trellis_construct(
            store,
            &TrellisConfig { memory_budget, partition_bytes: None, spill_dir: None },
        ),
        Algorithm::Ukkonen => ukkonen_construct(store),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use era_workloads::DatasetKind;

    #[test]
    fn every_algorithm_runs_on_a_small_disk_dataset() {
        let spec = DatasetSpec::new(DatasetKind::GenomeLike, 4 << 10, 99);
        let store = make_disk_store(&spec);
        let budget = 64 << 10;
        let mut leaf_counts = Vec::new();
        for alg in [
            Algorithm::Era,
            Algorithm::EraStr,
            Algorithm::EraParallel(2),
            Algorithm::WaveFront,
            Algorithm::PWaveFront(2),
            Algorithm::B2st,
            Algorithm::Trellis,
            Algorithm::Ukkonen,
        ] {
            let (tree, report) = run_algorithm(alg, &store, budget).unwrap();
            assert_eq!(tree.leaf_count(), store.len(), "{}", alg.label());
            assert!(report.elapsed.as_nanos() > 0);
            leaf_counts.push(tree.leaf_count());
        }
        assert!(leaf_counts.windows(2).all(|w| w[0] == w[1]));
    }
}

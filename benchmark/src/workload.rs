//! The three workloads. Every workload runs the same pipeline and reports the
//! same metrics; they differ only in the parameters below, chosen so that
//! each product layer does most of the work in one and little in another
//! (see `README.md` for the layer -> metric predictions).

/// Which `era-workloads` generator makes the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextKind {
    GenomeLike,
    Protein,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why the workload exists (copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub text: TextKind,
    /// Body length in symbols (the terminal is added on top).
    pub text_len: usize,
    /// Seed of the text generator. The text is a fixed part of the workload;
    /// `--seed` draws the query set. Every build-side metric is a property of
    /// the text: a count like `build_read_amp` (bound 1 %) must read the same
    /// on every seed of a result set, and `GenomeLike` copies earlier
    /// segments, copies of copies compounding like an urn — at 2 MiB two text
    /// seeds differ 1.8x in `queries_per_s` (seed 1: 172 k, seed 2: 300 k,
    /// the query seed making +-3 %), which no regression bound could span.
    pub text_seed: u64,
    /// Build and persist through the §6.1 packed encoding.
    pub packed: bool,
    /// `EraConfig::memory_budget` of the build.
    pub memory_budget: usize,
    /// `EraConfig::threads` of the build (serving always uses one).
    pub build_threads: usize,
    /// `EraConfig::cache_bytes` of the serving index. Only packed catalogs
    /// serve through the block cache; a raw catalog holds its text in memory.
    pub cache_bytes: usize,
    /// Batches of [`BATCH_QUERIES`] queries in one serving pass.
    pub batches_per_pass: usize,
}

/// Queries per batch.
pub const BATCH_QUERIES: usize = 64;

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

/// Body length of every workload's text.
const TEXT_LEN: usize = 2 * MIB;

/// Smallest budget the product's fixed buffers (16 KiB input buffer, 16 KiB
/// trie area, >= 4 KiB read-ahead) leave room under; scaled-down workloads
/// are floored here.
const MIN_BUDGET: usize = 64 * KIB;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "genome-raw-tight",
        why: "string 4x the memory budget over a raw DiskStore: build is thousands of \
              sequential passes; serving bypasses store and cache (text in memory); \
              --seed draws the queries, the text is fixed",
        text: TextKind::GenomeLike,
        text_len: TEXT_LEN,
        text_seed: 1,
        packed: false,
        memory_budget: TEXT_LEN / 4,
        build_threads: 1,
        cache_bytes: 0,
        batches_per_pass: 6144,
    },
    Workload {
        name: "protein-packed-par2",
        why: "20-symbol alphabet, 5-bit packed store, 2 build threads (shared-memory \
              scheduler); serving hits a block cache twice the text; \
              --seed draws the queries, the text is fixed",
        text: TextKind::Protein,
        text_len: TEXT_LEN,
        text_seed: 1,
        packed: true,
        memory_budget: TEXT_LEN / 2,
        build_threads: 2,
        cache_bytes: 2 * TEXT_LEN,
        batches_per_pass: 11264,
    },
    Workload {
        name: "genome-packed-evict",
        why: "same text as genome-raw-tight, 2-bit packed, roomy budget (few large groups); \
              serving misses a block cache an eighth of the text; \
              --seed draws the queries, the text is fixed",
        text: TextKind::GenomeLike,
        text_len: TEXT_LEN,
        text_seed: 1,
        packed: true,
        memory_budget: 2 * TEXT_LEN,
        build_threads: 1,
        cache_bytes: TEXT_LEN / 8,
        batches_per_pass: 1024,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload at another text length with every ratio (budget : text,
    /// cache : text, queries : text) kept — how sizes are shrunk, and what
    /// `selfcheck` runs at 64 KiB.
    pub fn scaled(&self, text_len: usize) -> Workload {
        let scale = |v: usize| (v as u128 * text_len as u128 / self.text_len as u128) as usize;
        Workload {
            text_len,
            memory_budget: scale(self.memory_budget).max(MIN_BUDGET),
            cache_bytes: scale(self.cache_bytes),
            batches_per_pass: scale(self.batches_per_pass).max(1),
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn scaling_keeps_ratios() {
        let w = by_name("genome-packed-evict").unwrap().scaled(512 * KIB);
        assert_eq!(w.memory_budget, MIB);
        assert_eq!(w.cache_bytes, 64 * KIB);
        assert_eq!(w.batches_per_pass, 256);
        let tiny = by_name("genome-raw-tight").unwrap().scaled(64 * KIB);
        assert_eq!(tiny.memory_budget, MIN_BUDGET);
        assert_eq!(tiny.batches_per_pass, 192);
    }
}

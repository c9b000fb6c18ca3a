//! Configuration of the ERA construction pipeline.
//!
//! The knobs mirror the parameters the paper studies experimentally:
//! the memory budget (Fig. 7(b), Fig. 10(a)), the size of the read-ahead
//! buffer `R` (Fig. 8), elastic versus static ranges (Fig. 9(b)), virtual-tree
//! grouping (Fig. 9(a)), the disk-seek optimisation (Fig. 12(b)), the
//! horizontal-partitioning variant (Fig. 7) and the number of workers
//! (Fig. 12, Table 3, Fig. 13).

use era_string_store::Alphabet;

use crate::error::{EraError, EraResult};

/// How the per-iteration read-ahead range is chosen (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangePolicy {
    /// `range = |R| / |L'|` — grows as areas become inactive (the paper's
    /// elastic range).
    Elastic,
    /// A fixed number of symbols per iteration (the paper compares against
    /// static ranges of 16 and 32 symbols in Fig. 9(b)).
    Fixed(usize),
}

/// Which horizontal-partitioning algorithm to run (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HorizontalMethod {
    /// `ComputeSuffixSubTree`/`BranchEdge`: optimises string access only and
    /// updates the in-memory tree during every scan (ERA-str, §4.2.1).
    StringOnly,
    /// `SubTreePrepare`/`BuildSubTree`: additionally optimises memory access
    /// by building the `L`/`B` arrays first (ERA-str+mem, §4.2.2). This is
    /// the default and the variant the paper calls simply "ERA".
    StringAndMemory,
}

/// Which [`GroupScheduler`](crate::pipeline::GroupScheduler) executes the
/// horizontal phase of the [`ConstructionPipeline`](crate::pipeline::ConstructionPipeline).
///
/// The shared-nothing scheduler is not listed here because it needs one
/// private store per node and therefore has its own entry point
/// ([`crate::construct_shared_nothing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Pick automatically from [`EraConfig::threads`]: serial for one thread,
    /// shared-memory otherwise.
    #[default]
    Auto,
    /// Run every virtual tree on the calling thread (§4).
    Serial,
    /// Thread pool over one shared store (§5.1).
    SharedMemory,
}

/// Complete configuration of a construction run.
#[derive(Debug, Clone, PartialEq)]
pub struct EraConfig {
    /// Total memory budget in bytes (the paper's "available memory"). On the
    /// serving side it is also the size above which
    /// [`crate::SuffixIndex::open_file_with`] leaves a catalog's text segment
    /// on disk instead of materializing it.
    pub memory_budget: usize,
    /// Size of the read-ahead buffer `R` in bytes. `None` picks a default
    /// based on the alphabet size, mirroring Fig. 8 (small alphabets need a
    /// smaller `R`).
    pub r_buffer_size: Option<usize>,
    /// Size of the input buffer `BS` in bytes (block-sized streaming buffer).
    pub input_buffer_size: usize,
    /// Memory reserved for the trie that connects sub-trees.
    pub trie_area: usize,
    /// Bytes charged per tree node when computing `FM` (Equation 1).
    pub tree_node_size: usize,
    /// Read-ahead policy.
    pub range_policy: RangePolicy,
    /// Horizontal-partitioning variant.
    pub horizontal: HorizontalMethod,
    /// Whether to group sub-trees into virtual trees (§4.1). Disabling this
    /// reproduces the "without grouping" series of Fig. 9(a).
    pub group_virtual_trees: bool,
    /// Whether to skip blocks that contain no needed symbol (§4.4).
    pub seek_optimization: bool,
    /// Number of worker threads for the shared-memory parallel driver
    /// (1 = serial).
    pub threads: usize,
    /// Which scheduler executes the horizontal phase. The default,
    /// [`SchedulerKind::Auto`], derives the choice from [`Self::threads`].
    pub scheduler: SchedulerKind,
    /// Lower bound for the elastic range (symbols fetched per active suffix
    /// and iteration).
    pub min_range: usize,
    /// Whether the string store keeps the text bit-packed (§6.1: 2 bits per
    /// DNA symbol, 5 per protein/English symbol). Packing cuts the bytes
    /// fetched by every sequential scan by the packing ratio — up to 4x on
    /// DNA — at the cost of decoding each block on the fly.
    pub packed: bool,
    /// Capacity, in decoded bytes, of the serving path's shared
    /// decoded-block cache (`0` disables caching). Store-backed engines of a
    /// [`crate::SuffixIndex`] consult this LRU before every store read, so
    /// repeated and overlapping patterns — across workers and across
    /// batches — are answered with zero store I/O, and packed blocks are
    /// decoded once instead of once per toucher. Purely a serving knob;
    /// construction scans never use it.
    pub cache_bytes: usize,
    /// Whether to run the *deep* (text-backed) index validation on every
    /// build and load: every sub-tree is checked against the text (edge
    /// labels, leaf suffixes, sibling order) and the partition leaves must
    /// cover exactly the suffixes `0..text_len`. The cheap structural subset
    /// is always on for deserialized trees; this flag adds the O(text) rest.
    /// Costly — meant for debugging, `era-check fsck --deep`, and the CI
    /// paranoia pass, not the serving path.
    pub paranoid: bool,
}

impl Default for EraConfig {
    fn default() -> Self {
        EraConfig {
            memory_budget: 64 << 20, // 64 MiB
            r_buffer_size: None,
            input_buffer_size: 16 << 10,
            trie_area: 16 << 10,
            tree_node_size: 48,
            range_policy: RangePolicy::Elastic,
            horizontal: HorizontalMethod::StringAndMemory,
            group_virtual_trees: true,
            seek_optimization: true,
            threads: 1,
            scheduler: SchedulerKind::Auto,
            min_range: 4,
            packed: false,
            cache_bytes: 16 << 20, // 16 MiB of decoded blocks
            paranoid: false,
        }
    }
}

/// The concrete memory layout derived from a configuration and an alphabet
/// (Fig. 6 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Bytes for the read-ahead buffer `R`.
    pub r_bytes: usize,
    /// Bytes for the input buffer `BS`.
    pub input_buffer: usize,
    /// Bytes reserved for the trie connecting sub-trees.
    pub trie_area: usize,
    /// Bytes for the sub-tree area (`MTS`, ~60 % of what remains).
    pub tree_area: usize,
    /// Bytes for the processing area (arrays `L` and `B`, ~40 % of the rest).
    pub processing_area: usize,
    /// The maximum sub-tree frequency `FM = MTS / (2 · node size)`.
    pub fm: usize,
}

impl EraConfig {
    /// Derives the memory layout for a given alphabet.
    ///
    /// Per §4.4/§6.1: `R` is sized by the alphabet (1/32 of the budget for
    /// 4-symbol alphabets, 1/4 for larger ones, unless overridden), 1 input
    /// buffer and a small trie area are carved out, then 60 % of the remainder
    /// goes to the sub-tree area and 40 % to the processing area.
    pub fn memory_layout(&self, alphabet: &Alphabet) -> EraResult<MemoryLayout> {
        if self.memory_budget == 0 {
            return Err(EraError::config("memory budget must be non-zero"));
        }
        let r_bytes = match self.r_buffer_size {
            Some(r) => r,
            None => {
                let divisor = if alphabet.len() <= 4 { 32 } else { 4 };
                (self.memory_budget / divisor).max(4 << 10)
            }
        };
        let fixed = r_bytes + self.input_buffer_size + self.trie_area;
        let remaining = self.memory_budget.saturating_sub(fixed);
        if remaining < 4 * self.tree_node_size {
            return Err(EraError::config(format!(
                "memory budget {} is too small for R = {} plus buffers",
                self.memory_budget, r_bytes
            )));
        }
        let tree_area = remaining * 60 / 100;
        let processing_area = remaining - tree_area;
        let fm = tree_area / (2 * self.tree_node_size);
        if fm == 0 {
            return Err(EraError::config("memory budget leaves no room for any sub-tree"));
        }
        Ok(MemoryLayout {
            r_bytes,
            input_buffer: self.input_buffer_size,
            trie_area: self.trie_area,
            tree_area,
            processing_area,
            fm,
        })
    }

    /// Resolves [`Self::scheduler`]: `Auto` becomes [`SchedulerKind::Serial`]
    /// for one thread and [`SchedulerKind::SharedMemory`] otherwise.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        match self.scheduler {
            SchedulerKind::Auto => {
                if self.threads > 1 {
                    SchedulerKind::SharedMemory
                } else {
                    SchedulerKind::Serial
                }
            }
            explicit => explicit,
        }
    }

    /// Validates cross-field constraints.
    pub fn validate(&self) -> EraResult<()> {
        if self.threads == 0 {
            return Err(EraError::config("thread count must be at least 1"));
        }
        if self.tree_node_size == 0 {
            return Err(EraError::config("tree node size must be non-zero"));
        }
        if let RangePolicy::Fixed(0) = self.range_policy {
            return Err(EraError::config("a fixed range must be at least 1 symbol"));
        }
        if self.min_range == 0 {
            return Err(EraError::config("min_range must be at least 1"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_layout_dna() {
        let cfg = EraConfig::default();
        let layout = cfg.memory_layout(&Alphabet::dna()).unwrap();
        assert_eq!(layout.r_bytes, (64 << 20) / 32);
        assert!(layout.tree_area > layout.processing_area);
        assert!(layout.fm > 0);
        // 60/40 split of the remainder.
        let remainder = layout.tree_area + layout.processing_area;
        assert!((layout.tree_area as f64 / remainder as f64 - 0.6).abs() < 0.01);
    }

    #[test]
    fn protein_gets_bigger_r() {
        let cfg = EraConfig::default();
        let dna = cfg.memory_layout(&Alphabet::dna()).unwrap();
        let protein = cfg.memory_layout(&Alphabet::protein()).unwrap();
        assert!(protein.r_bytes > dna.r_bytes);
        assert!(protein.fm < dna.fm, "a bigger R leaves less room for the sub-tree");
    }

    #[test]
    fn explicit_r_overrides_default() {
        let cfg = EraConfig { r_buffer_size: Some(123 << 10), ..EraConfig::default() };
        let layout = cfg.memory_layout(&Alphabet::dna()).unwrap();
        assert_eq!(layout.r_bytes, 123 << 10);
    }

    #[test]
    fn tiny_budget_is_rejected() {
        let cfg = EraConfig { memory_budget: 1 << 10, ..EraConfig::default() };
        assert!(cfg.memory_layout(&Alphabet::dna()).is_err());
        let zero = EraConfig { memory_budget: 0, ..EraConfig::default() };
        assert!(zero.memory_layout(&Alphabet::dna()).is_err());
    }

    #[test]
    fn fm_scales_with_budget() {
        let small = EraConfig { memory_budget: 8 << 20, ..EraConfig::default() }
            .memory_layout(&Alphabet::dna())
            .unwrap();
        let large = EraConfig { memory_budget: 32 << 20, ..EraConfig::default() }
            .memory_layout(&Alphabet::dna())
            .unwrap();
        assert!(large.fm > 3 * small.fm);
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(EraConfig { threads: 0, ..EraConfig::default() }.validate().is_err());
        assert!(EraConfig { tree_node_size: 0, ..EraConfig::default() }.validate().is_err());
        assert!(EraConfig { range_policy: RangePolicy::Fixed(0), ..EraConfig::default() }
            .validate()
            .is_err());
        assert!(EraConfig { min_range: 0, ..EraConfig::default() }.validate().is_err());
        assert!(EraConfig::default().validate().is_ok());
    }
}

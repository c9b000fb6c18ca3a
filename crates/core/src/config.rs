//! Configuration of the ERA construction pipeline.
//!
//! The knobs mirror the parameters the paper studies experimentally:
//! the memory budget (Fig. 7(b), Fig. 10(a)), the size of the read-ahead
//! buffer `R` (Fig. 8), elastic versus static ranges (Fig. 9(b)), virtual-tree
//! grouping (Fig. 9(a)), the disk-seek optimisation (Fig. 12(b)), the
//! horizontal-partitioning variant (Fig. 7) and the number of workers
//! (Fig. 12, Table 3, Fig. 13).
//!
//! # The budget is spent phase by phase
//!
//! Fig. 6 of the paper draws the budget as areas side by side: `R`, the input
//! buffer, the trie, the sub-tree area (`MTS`) and the processing area. The
//! areas are not all live at once. A virtual tree passes through four phases,
//! and [`MemoryLayout`] states the bound of each area *in the phase that uses
//! it*:
//!
//! 1. **classifying scan** — one pass over the string collects the leaves `L`
//!    of every sub-tree of a whole *cohort* of virtual trees (one trie
//!    descent per position, [`crate::pipeline::build_cohort`]): input buffer +
//!    the cohort's `L` lists. The members then go through phases 2–4 one
//!    after another, and while one does, the lists of those still waiting
//!    stay live — 4 bytes a leaf, up to `FM` leaves a group. They are charged
//!    to the running member's `R`, which shrinks by exactly that much, and
//!    may take at most a quarter of it: a cohort is
//!    `k = 1 + R / (16 · FM)` virtual trees
//!    ([`crate::pipeline::cohort_len`]) — 3 for DNA, whose `R / FM` is ≈ 34.
//!    The sub-tree area could hold the lists of ≈ 8 groups, but not for
//!    free: it is the area `R` occupies in phase 2, so lists that fill it
//!    eat 0.6 × the budget out of `R`, the elastic range collapses, and the
//!    rounds `SubTreePrepare` gains cost more bytes than the shared pass
//!    saves (measured when a node was charged 48 B and the sub-tree area
//!    held ≈ 24 lists: 3,648 B/symbol read at `k = 24` against 2,784 with no
//!    cohorts at all and 2,302 at the derived `k`);
//! 2. **prepare** (`SubTreePrepare`) — `R` plus the processing area
//!    (`L`/`B`/`I`/`A`/`P`). No tree node exists yet, so `R` also occupies
//!    the idle sub-tree area: [`MemoryLayout::r_bytes`] is the dedicated
//!    read-ahead buffer *plus* [`MemoryLayout::tree_area`] (a cohort member
//!    runs with that less the waiting lists of phase 1). `R` holds the
//!    store's codes, so the same bytes are a longer range on the packed
//!    store every builder entry point scans: the first elastic range of a
//!    full DNA group is ≈ 135 symbols (2 bits a symbol), against ≈ 34 over
//!    a raw store handed to `build_from_store`;
//! 3. **build** (`BuildSubTree`) — `R` is dead; each sub-tree is assembled
//!    from `L`/`B` straight into its flat arena of 16-byte records in the
//!    sub-tree area, allocated once at its exact size — the record `FM`
//!    charges a node;
//! 4. **release** — each sub-tree's `L` and `B` are dropped as soon as its
//!    arena is written, before the next one is assembled; a finished group
//!    leaves only its flat arenas behind.
//!
//! ERA-str ([`HorizontalMethod::StringOnly`]) has no such separation — it
//! grows the tree *during* the scans — so there `R` stays the dedicated
//! buffer (and a DNA cohort is a single virtual tree: `R / FM` ≈ 2). `FM`, and
//! with it the grouping and every byte of the index, depends on `tree_area`
//! alone and is the same under both readings; how much of `R` a member is
//! left with decides how many passes it takes and nothing about its trees.

use era_string_store::Alphabet;

use crate::error::{EraError, EraResult};

/// Bytes charged per tree node when computing `FM` (Equation 1:
/// `FM = MTS / (2 · TREE_NODE_BYTES)`): one 16-byte flat record
/// ([`era_suffix_tree::layout::FLAT_NODE_BYTES`]), the only form of a node
/// that outlives its group. ERA-str+mem assembles each sub-tree straight
/// into its arena of these records; ERA-str freezes into the same records.
pub const TREE_NODE_BYTES: usize = era_suffix_tree::FLAT_NODE_BYTES;

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

/// Complete configuration of a construction run.
#[derive(Debug, Clone, PartialEq)]
pub struct EraConfig {
    /// Total memory budget in bytes (the paper's "available memory"). On the
    /// serving side it is also the size above which
    /// [`crate::SuffixIndex::open_file_with`] leaves a catalog's text segment
    /// on disk instead of materializing it.
    pub memory_budget: usize,
    /// Size of the dedicated read-ahead buffer `R` in bytes. `None` picks a
    /// default based on the alphabet size, mirroring Fig. 8 (small alphabets
    /// need a smaller `R`). What `R` can hold during `SubTreePrepare` is
    /// [`MemoryLayout::r_bytes`], which adds the then-idle sub-tree area.
    pub r_buffer_size: Option<usize>,
    /// Size of the input buffer `BS` in bytes (block-sized streaming buffer).
    pub input_buffer_size: usize,
    /// Memory reserved for the trie that connects sub-trees.
    pub trie_area: usize,
    /// Read-ahead policy.
    pub range_policy: RangePolicy,
    /// Horizontal-partitioning variant.
    pub horizontal: HorizontalMethod,
    /// Whether to group sub-trees into virtual trees (§4.1). Disabling this
    /// reproduces the "without grouping" series of Fig. 9(a).
    pub group_virtual_trees: bool,
    /// Whether to skip blocks that contain no needed symbol (§4.4).
    pub seek_optimization: bool,
    /// Number of worker threads. This is what picks the scheduler of
    /// [`crate::construct`]: one thread runs every virtual tree on the
    /// calling thread (§4), more than one a pool over the shared store (§5.1).
    pub threads: usize,
    /// Lower bound for the elastic range, in bytes of `R` per active suffix
    /// and iteration: that many symbols on a raw store, ⌊8 · min_range / w⌋
    /// at a packed store's `w` bits per symbol.
    pub min_range: usize,
    /// Has no effect. Every [`crate::SuffixIndexBuilder`] entry point builds
    /// over the alphabet's codes (§6.1), and
    /// [`crate::SuffixIndexBuilder::build_from_store`] keeps the encoding of
    /// the store it is given; nothing reads this field. It stays only
    /// because the benchmark crate sets it in a struct literal, and goes when
    /// that crate is re-pointed (ROADMAP item 15).
    pub packed: bool,
    /// Capacity, in bytes, of the serving path's shared block cache (`0`
    /// disables caching). It caches the blocks of a *file-backed* text only,
    /// as the store holds them — raw bytes, or packed payload bytes (one per
    /// four DNA symbols) — so the bound counts payload bytes,
    /// nothing decoded. When a [`crate::SuffixIndex`] serves a text left in
    /// a file (a text segment larger than [`Self::memory_budget`]), its
    /// engines consult this LRU before every store read, so repeated and
    /// overlapping patterns — across workers and across batches — are
    /// answered with zero store I/O. A text in memory, raw or packed, is
    /// matched in place and gets no cache. Purely a serving knob;
    /// construction scans never use it.
    pub cache_bytes: usize,
    /// Whether to run the *deep* (text-backed) index validation on every
    /// build and load: every sub-tree is checked against the text (edge
    /// labels, leaf suffixes, sibling order) and the partition leaves must
    /// cover exactly the suffixes `0..text_len`. The cheap structural subset
    /// is always on for deserialized trees; this flag adds the text-backed
    /// rest — one sub-tree at a time, about a symbol per edge plus the sum of
    /// the text's LCP array, read where the text lives (an on-disk text is
    /// not materialized). Seconds per MiB — meant for debugging, `era-check
    /// fsck --deep`, and the CI paranoia pass, not the serving path.
    pub paranoid: bool,
}

impl Default for EraConfig {
    fn default() -> Self {
        EraConfig {
            memory_budget: 64 << 20, // 64 MiB
            r_buffer_size: None,
            input_buffer_size: 16 << 10,
            trie_area: 16 << 10,
            range_policy: RangePolicy::Elastic,
            horizontal: HorizontalMethod::StringAndMemory,
            group_virtual_trees: true,
            seek_optimization: true,
            threads: 1,
            min_range: 4,
            packed: false,
            cache_bytes: 16 << 20, // 16 MiB of code blocks
            paranoid: false,
        }
    }
}

/// The concrete memory layout derived from a configuration and an alphabet
/// (Fig. 6 of the paper), each area sized for the phase that uses it — see
/// the [module documentation](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryLayout {
    /// Bytes the read-ahead buffer `R` can hold while it is live, i.e. during
    /// the scans of the horizontal phase. For
    /// [`HorizontalMethod::StringAndMemory`] that is the dedicated buffer
    /// plus [`Self::tree_area`] (idle until `BuildSubTree`, by which time `R`
    /// is dead); for [`HorizontalMethod::StringOnly`], whose tree grows
    /// during the scans, the dedicated buffer alone.
    pub r_bytes: usize,
    /// Bytes for the input buffer `BS`.
    pub input_buffer: usize,
    /// Bytes reserved for the trie connecting sub-trees.
    pub trie_area: usize,
    /// Bytes for the sub-tree area (`MTS`, ~60 % of what remains): the flat
    /// arenas during `BuildSubTree`, part of `R` before it.
    pub tree_area: usize,
    /// Bytes for the processing area (arrays `L` and `B`, and `I`/`A`/`P`
    /// while `SubTreePrepare` runs; ~40 % of the rest).
    pub processing_area: usize,
    /// The maximum sub-tree frequency `FM = MTS / (2 · node size)`.
    pub fm: usize,
}

impl EraConfig {
    /// Derives the memory layout for a given alphabet — the one place that
    /// decides how much of the budget each phase may use.
    ///
    /// Per §4.4/§6.1: the dedicated `R` is sized by the alphabet (1/32 of the
    /// budget for 4-symbol alphabets, 1/4 for larger ones, unless overridden),
    /// 1 input buffer and a small trie area are carved out, then 60 % of the
    /// remainder goes to the sub-tree area and 40 % to the processing area.
    /// `FM` follows from the sub-tree area alone. The reported
    /// [`MemoryLayout::r_bytes`] is what `R` has while it is live: with
    /// [`HorizontalMethod::StringAndMemory`] the sub-tree area is still empty
    /// then and `R` borrows it, which is what lets the first elastic range be
    /// `(R + MTS) / FM` bytes (≈ 135 DNA symbols on the packed store a
    /// builder scans, ≈ 34 on a raw one) instead of `R / FM` (≈ 2).
    pub fn memory_layout(&self, alphabet: &Alphabet) -> EraResult<MemoryLayout> {
        if self.memory_budget == 0 {
            return Err(EraError::config("memory budget must be non-zero"));
        }
        let dedicated_r = match self.r_buffer_size {
            Some(r) => r,
            None => {
                let divisor = if alphabet.len() <= 4 { 32 } else { 4 };
                (self.memory_budget / divisor).max(4 << 10)
            }
        };
        let fixed = dedicated_r + self.input_buffer_size + self.trie_area;
        let remaining = self.memory_budget.saturating_sub(fixed);
        if remaining < 4 * TREE_NODE_BYTES {
            return Err(EraError::config(format!(
                "memory budget {} is too small for R = {} plus buffers",
                self.memory_budget, dedicated_r
            )));
        }
        let tree_area = remaining * 60 / 100;
        let processing_area = remaining - tree_area;
        let fm = tree_area / (2 * TREE_NODE_BYTES);
        if fm == 0 {
            return Err(EraError::config("memory budget leaves no room for any sub-tree"));
        }
        let r_bytes = match self.horizontal {
            HorizontalMethod::StringAndMemory => dedicated_r + tree_area,
            HorizontalMethod::StringOnly => dedicated_r,
        };
        Ok(MemoryLayout {
            r_bytes,
            input_buffer: self.input_buffer_size,
            trie_area: self.trie_area,
            tree_area,
            processing_area,
            fm,
        })
    }

    /// Validates cross-field constraints.
    pub fn validate(&self) -> EraResult<()> {
        if self.threads == 0 {
            return Err(EraError::config("thread count must be at least 1"));
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

    fn dna_layout(budget: usize, horizontal: HorizontalMethod) -> MemoryLayout {
        EraConfig { memory_budget: budget, horizontal, ..EraConfig::default() }
            .memory_layout(&Alphabet::dna())
            .unwrap()
    }

    #[test]
    fn default_layout_dna() {
        let cfg = EraConfig::default();
        let layout = cfg.memory_layout(&Alphabet::dna()).unwrap();
        // The dedicated buffer is 1/32 of the budget; during SubTreePrepare R
        // also holds the sub-tree area, which nothing else uses yet.
        assert_eq!(layout.r_bytes, (64 << 20) / 32 + layout.tree_area);
        assert!(layout.tree_area > layout.processing_area);
        assert!(layout.fm > 0);
        // 60/40 split of the remainder.
        let remainder = layout.tree_area + layout.processing_area;
        assert!((layout.tree_area as f64 / remainder as f64 - 0.6).abs() < 0.01);
        assert_eq!(remainder, (64 << 20) - (64 << 20) / 32 - (16 << 10) - (16 << 10));
    }

    #[test]
    fn r_borrows_the_tree_area_only_when_the_tree_is_built_after_the_scans() {
        for (budget, fm) in [(512 << 10, 8_908), (4 << 20, 75_571)] {
            let mem = dna_layout(budget, HorizontalMethod::StringAndMemory);
            let str_only = dna_layout(budget, HorizontalMethod::StringOnly);
            let dedicated = (budget / 32).max(4 << 10);
            assert_eq!(str_only.r_bytes, dedicated);
            assert_eq!(mem.r_bytes, dedicated + mem.tree_area);
            // Everything but `r_bytes` — FM above all — is independent of the
            // horizontal method, and FM is `MTS / (2 · node)` at the 16 B of a
            // flat record.
            assert_eq!(MemoryLayout { r_bytes: dedicated, ..mem }, str_only);
            let remaining = budget - dedicated - (16 << 10) - (16 << 10);
            assert_eq!(mem.tree_area, remaining * 60 / 100);
            assert_eq!(mem.fm, mem.tree_area / (2 * 16));
            assert_eq!(mem.fm, fm);
            // The first elastic range of a full group: ~34 symbols, not ~2.
            assert!(mem.r_bytes / mem.fm >= 32);
            assert!(str_only.r_bytes / str_only.fm <= 2);
        }
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
        assert_eq!(layout.r_bytes, (123 << 10) + layout.tree_area);
        // The override sizes the dedicated buffer, and with it what is left
        // for the other areas.
        let remainder = layout.tree_area + layout.processing_area;
        assert_eq!(remainder, (64 << 20) - (123 << 10) - (16 << 10) - (16 << 10));
        let str_only = EraConfig { horizontal: HorizontalMethod::StringOnly, ..cfg }
            .memory_layout(&Alphabet::dna())
            .unwrap();
        assert_eq!(str_only.r_bytes, 123 << 10);
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
        assert!(EraConfig { range_policy: RangePolicy::Fixed(0), ..EraConfig::default() }
            .validate()
            .is_err());
        assert!(EraConfig { min_range: 0, ..EraConfig::default() }.validate().is_err());
        assert!(EraConfig::default().validate().is_ok());
    }
}

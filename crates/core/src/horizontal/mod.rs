//! Horizontal partitioning (§4.2 of the paper).
//!
//! Both variants build the sub-tree of a S-prefix by reading the string in
//! strictly sequential passes, fetching `range` symbols per still-active
//! suffix and iteration:
//!
//! * [`branch_edge`] — ERA-str (§4.2.1): the tree is updated during every
//!   scan (`ComputeSuffixSubTree` / iterative `BranchEdge`).
//! * [`prepare`] — ERA-str+mem (§4.2.2): `SubTreePrepare` first derives the
//!   `L`/`B` arrays with sequential memory access only, and
//!   [`build::assemble_partition`] then assembles the tree in batch, straight
//!   into its flat serving arena.
//!
//! Sub-trees grouped into one virtual tree share every scan: the read requests
//! of all member prefixes are merged into a single ascending stream.

pub mod branch_edge;
pub mod build;
pub mod prepare;

use crate::config::RangePolicy;

/// Per-iteration context shared by both horizontal variants.
#[derive(Debug, Clone, Copy)]
pub struct HorizontalParams {
    /// Capacity of the read-ahead buffer `R` in bytes.
    ///
    /// `SubTreePrepare` cuts it into one record of `r_capacity / active`
    /// bytes per active suffix and fills each with the store's codes, so the
    /// elastic range is ⌊8 · (r_capacity / active) / w⌋ symbols at a code
    /// width of `w` bits ([`StringStore::code_bits`]: 8 raw, 2 for packed
    /// DNA, 5 for packed protein and English). ERA-str reads one byte per
    /// symbol, a range of `r_capacity / active`.
    ///
    /// [`StringStore::code_bits`]: era_string_store::StringStore::code_bits
    pub r_capacity: usize,
    /// Range policy (elastic or fixed).
    pub range_policy: RangePolicy,
    /// Lower bound on the elastic range, in bytes of `R` per active suffix
    /// (symbols where a symbol is a byte).
    pub min_range: usize,
    /// Whether to skip blocks that contain no needed symbol.
    pub seek_optimization: bool,
}

impl HorizontalParams {
    /// The range of symbols to prefetch for this iteration, given the number
    /// of still-active suffixes across the whole virtual tree
    /// (`range = |R| / |L'|`, §4.4), at one byte per symbol.
    pub fn range_for(&self, active: usize) -> usize {
        match self.range_policy {
            RangePolicy::Fixed(k) => k.max(1),
            RangePolicy::Elastic => match self.r_capacity.checked_div(active) {
                None => self.min_range.max(1),
                Some(share) => share.max(self.min_range).max(1),
            },
        }
    }

    /// The range in symbols when a symbol takes `bits` bits of `R`: the
    /// elastic share of [`Self::range_for`] holds ⌊8 · share / bits⌋ codes,
    /// while a fixed range stays that many symbols.
    pub fn range_symbols(&self, active: usize, bits: u32) -> usize {
        match self.range_policy {
            RangePolicy::Fixed(k) => k.max(1),
            RangePolicy::Elastic => (8 * self.range_for(active) / bits.max(1) as usize).max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elastic_range_grows_as_areas_become_inactive() {
        let params = HorizontalParams {
            r_capacity: 1024,
            range_policy: RangePolicy::Elastic,
            min_range: 4,
            seek_optimization: false,
        };
        assert_eq!(params.range_for(1024), 4); // clamped to min_range
        assert_eq!(params.range_for(256), 4);
        assert_eq!(params.range_for(64), 16);
        assert_eq!(params.range_for(8), 128);
        assert_eq!(params.range_for(1), 1024);
        assert_eq!(params.range_for(0), 4);
    }

    #[test]
    fn fixed_range_is_constant() {
        let params = HorizontalParams {
            r_capacity: 1024,
            range_policy: RangePolicy::Fixed(16),
            min_range: 4,
            seek_optimization: false,
        };
        for active in [1usize, 10, 1000] {
            assert_eq!(params.range_for(active), 16);
            assert_eq!(params.range_symbols(active, 2), 16);
        }
    }

    #[test]
    fn elastic_range_in_codes_packs_the_same_bytes() {
        let params = HorizontalParams {
            r_capacity: 1000,
            range_policy: RangePolicy::Elastic,
            min_range: 4,
            seek_optimization: false,
        };
        assert_eq!(params.range_symbols(10, 8), 100); // raw: a byte a symbol
        assert_eq!(params.range_symbols(10, 2), 400); // packed DNA
        assert_eq!(params.range_symbols(10, 5), 160); // packed protein, English
        assert_eq!(params.range_symbols(1000, 5), 6); // min_range is bytes
    }
}

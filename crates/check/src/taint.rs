//! The taint rules: integers decoded from artifact bytes are hostile until
//! checked.
//!
//! Clippy holds each rule: the format modules (`catalog.rs`,
//! `serialize.rs`) carry `#![deny(..)]` over every [`TaintRule::lint`], and
//! the store-header and catalog-open parser fns outside them carry the same
//! `#[deny(..)]`. `clippy.toml`'s `disallowed-methods` names
//! `u16`/`u32`/`u64::from_le_bytes`, so integers are decoded only where
//! those denies hold. An allocation sized by a hostile count has no clippy
//! lint; the corruption matrix (`tests/corruption_matrix.rs`) catches it
//! under an address-space limit instead.

/// One class of unchecked use of a decoded integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaintRule {
    /// Unchecked `+`/`-`/`*`/`<<` on a decoded integer.
    Arith,
    /// Truncating `as` cast of a decoded integer.
    Cast,
    /// Direct indexing by a decoded integer.
    Index,
}

impl TaintRule {
    /// Every rule. The fixture suite iterates this — a rule added here
    /// without fixtures fails that suite.
    pub const ALL: &'static [TaintRule] = &[TaintRule::Arith, TaintRule::Cast, TaintRule::Index];

    /// The rule's name, as used in fixture file names.
    pub fn name(self) -> &'static str {
        match self {
            TaintRule::Arith => "taint-arith",
            TaintRule::Cast => "taint-cast",
            TaintRule::Index => "taint-index",
        }
    }

    /// The clippy lint a parser denies to hold the rule.
    pub fn lint(self) -> &'static str {
        match self {
            TaintRule::Arith => "clippy::arithmetic_side_effects",
            TaintRule::Cast => "clippy::cast_possible_truncation",
            TaintRule::Index => "clippy::indexing_slicing",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_stable_name() {
        for &rule in TaintRule::ALL {
            assert!(rule.name().starts_with("taint-"));
            assert!(rule.lint().starts_with("clippy::"));
        }
        assert_eq!(TaintRule::ALL.len(), 3);
    }
}

//! # era-workloads
//!
//! Seeded workload generators for the ERA reproduction.
//!
//! The paper evaluates on the human genome, multi-species DNA, protein
//! sequences and English text. Those datasets are not redistributable here, so
//! the benchmarks use synthetic strings that preserve the properties ERA is
//! sensitive to:
//!
//! * **alphabet size** (4 / 20 / 26 symbols) — drives the branching factor and
//!   the read-ahead buffer tuning (Fig. 8, Fig. 11);
//! * **repeat structure** — drives tree depth, the length of the longest
//!   repeated substring, and how quickly areas become inactive during
//!   `SubTreePrepare` (the elastic-range gains of Fig. 9(b));
//! * **skewed symbol frequencies** — drives the shape of vertical partitioning.
//!
//! All generators are deterministic given a seed.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]
#![warn(clippy::all)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod dna;
pub mod english;
pub mod protein;
pub mod spec;

pub use dna::{genome_like, uniform_dna};
pub use english::english_like;
pub use protein::protein_like;
pub use spec::{DatasetKind, DatasetSpec};

use era_string_store::Alphabet;

/// Generates the body (no terminal) described by `spec`.
pub fn generate(spec: &DatasetSpec) -> Vec<u8> {
    match spec.kind {
        DatasetKind::UniformDna => uniform_dna(spec.len, spec.seed),
        DatasetKind::GenomeLike => genome_like(spec.len, spec.seed),
        DatasetKind::Protein => protein_like(spec.len, spec.seed),
        DatasetKind::English => english_like(spec.len, spec.seed),
    }
}

/// The alphabet matching a dataset kind.
pub fn alphabet_for(kind: DatasetKind) -> Alphabet {
    match kind {
        DatasetKind::UniformDna | DatasetKind::GenomeLike => Alphabet::dna(),
        DatasetKind::Protein => Alphabet::protein(),
        DatasetKind::English => Alphabet::english(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_respects_spec() {
        for kind in [
            DatasetKind::UniformDna,
            DatasetKind::GenomeLike,
            DatasetKind::Protein,
            DatasetKind::English,
        ] {
            let spec = DatasetSpec { kind, len: 1000, seed: 7 };
            let body = generate(&spec);
            assert_eq!(body.len(), 1000);
            let alphabet = alphabet_for(kind);
            assert!(body.iter().all(|&b| alphabet.contains(b)), "kind {kind:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = DatasetSpec { kind: DatasetKind::GenomeLike, len: 5000, seed: 42 };
        assert_eq!(generate(&spec), generate(&spec));
        let other = DatasetSpec { seed: 43, ..spec };
        assert_ne!(generate(&spec), generate(&other));
    }
}

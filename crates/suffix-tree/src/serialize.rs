//! Compact binary serialization of flat suffix (sub-)trees.
//!
//! ERA and the disk-based baselines write finished sub-trees to disk as they
//! are produced (the human-genome tree is ~26× the input, so it cannot stay in
//! memory). The one tree format is `ERAFLAT1` — the flat serving layout
//! ([`FlatTree`]): a little-endian header (magic, text length, node count)
//! and a fixed 16-byte record per node, written verbatim, so loading is a
//! bulk read with no per-node pointer rebuilding. It is the segment format
//! of the [`crate::catalog`] container and the spill format of the baselines;
//! construction-form [`SuffixTree`](crate::SuffixTree)s are frozen first.

#![deny(
    clippy::cast_possible_truncation,
    clippy::arithmetic_side_effects,
    clippy::indexing_slicing
)]

use std::io::{self, Read, Write};

use crate::layout::{FlatNode, FlatTree};

const FLAT_MAGIC: &[u8; 8] = b"ERAFLAT1";

fn write_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

#[expect(
    clippy::disallowed_methods,
    reason = "the ERAFLAT1 integer decoder, under the module deny"
)]
fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Ceiling on speculative preallocation from header-declared counts. A
/// hostile 8-byte header may *claim* any element count, but it only gets the
/// memory as the corresponding bytes actually arrive — `Vec::push` grows
/// past this cap organically, and a short file errors out in `read_exact`
/// long before.
pub(crate) const MAX_PREALLOC: usize = 1 << 20;

/// Ceiling on a catalog TOC's partition-prefix length. Partition prefixes
/// are a handful of symbols by construction; a TOC claiming more is hostile
/// or corrupt and is rejected rather than allocated.
pub(crate) const MAX_PREFIX_LEN: usize = 1 << 10;

/// Writes a flat serving-layout tree to any writer (`ERAFLAT1`): the magic,
/// the text length, the node count, then the fixed 16-byte records verbatim.
#[expect(
    clippy::cast_possible_truncation,
    reason = "text_len() widens a u32 field; node_count() as u32 is unguarded: freeze counts ids in u32, and ConstructionPipeline::run holds a text below u32::MAX symbols but not its trees below 2^32 nodes (up to two per suffix)"
)]
pub fn write_flat_tree<W: Write>(w: &mut W, tree: &FlatTree) -> io::Result<()> {
    w.write_all(FLAT_MAGIC)?;
    write_u32(w, tree.text_len() as u32)?;
    write_u32(w, tree.node_count() as u32)?;
    for id in tree.node_ids() {
        let (start, end, payload, meta) = tree.raw_node(id);
        write_u32(w, start)?;
        write_u32(w, end)?;
        write_u32(w, payload)?;
        write_u32(w, meta)?;
    }
    Ok(())
}

/// Reads a flat tree previously written with [`write_flat_tree`], running the
/// full structural validation pass ([`crate::validate::validate_flat_structure`])
/// on the untrusted bytes: child-range bounds and non-overlap, reachability
/// from the root, sibling ordering and leaf/meta-word consistency.
pub fn read_flat_tree<R: Read>(r: &mut R) -> io::Result<FlatTree> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != FLAT_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "not an ERA flat tree file"));
    }
    let text_len = read_u32(r)?;
    let node_count = read_u32(r)? as usize;
    if node_count == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "flat tree without a root"));
    }
    let mut nodes = Vec::with_capacity(node_count.min(MAX_PREALLOC));
    for _ in 0..node_count {
        let start = read_u32(r)?;
        let end = read_u32(r)?;
        let payload = read_u32(r)?;
        let meta = read_u32(r)?;
        nodes.push(FlatNode::from_raw(start, end, payload, meta));
    }
    let tree = FlatTree::from_raw_parts(text_len, nodes);
    // The cheap structural subset of `validate_flat_tree` is always on for
    // untrusted bytes: a corrupt segment must error at load time, not
    // serve wrong answers (or panic) at query time. The text-backed deep
    // checks stay behind `EraConfig::paranoid` / `era-check fsck --deep`.
    crate::validate::validate_flat_structure(&tree).map_err(|e| {
        io::Error::new(io::ErrorKind::InvalidData, format!("corrupt flat tree: {e}"))
    })?;
    Ok(tree)
}

impl FlatTree {
    /// Serialized size in bytes (without writing anywhere): a fixed header
    /// plus 16 bytes per node.
    #[expect(
        clippy::arithmetic_side_effects,
        reason = "ERAFLAT1 counts nodes in a u32, so 16 + 16 * node_count() < 2^37 fits a 64-bit usize"
    )]
    pub fn serialized_size(&self) -> usize {
        8 + 4 + 4 + self.node_count() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::naive_suffix_tree;
    use crate::validate::validate_flat_tree;

    #[test]
    fn flat_tree_roundtrip_in_memory() {
        let text = b"mississippi\0";
        let flat = FlatTree::freeze(&naive_suffix_tree(text));
        let mut buf = Vec::new();
        write_flat_tree(&mut buf, &flat).unwrap();
        let back = read_flat_tree(&mut buf.as_slice()).unwrap();
        assert_eq!(flat, back);
        assert_eq!(flat.serialized_size(), buf.len());
        validate_flat_tree(&back, &text[..], Some(text.len())).unwrap();
    }

    #[test]
    fn rejects_bad_magic() {
        let data = b"NOTATREExxxxxxxxxxxx".to_vec();
        assert!(read_flat_tree(&mut data.as_slice()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_child_range() {
        let flat = FlatTree::freeze(&naive_suffix_tree(b"ab\0"));
        let mut buf = Vec::new();
        write_flat_tree(&mut buf, &flat).unwrap();
        // Corrupt the root's child count (meta word of node 0) to overflow
        // the arena.
        let meta_off = 8 + 4 + 4 + 12;
        buf[meta_off..meta_off + 4].copy_from_slice(&1000u32.to_le_bytes());
        assert!(read_flat_tree(&mut buf.as_slice()).is_err());
    }
}

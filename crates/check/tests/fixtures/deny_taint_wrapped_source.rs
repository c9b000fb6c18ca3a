// Fixture: the shape of a hand-written manifest parser that once shipped in
// `era-check fsck`. It sits outside every parser deny and its helper hands
// the decoded value out through `Some(..)`, so a flipped count bit
// preallocated ~25 GB and aborted the process. Decoding outside a parser is
// itself the finding.

fn read_u32(bytes: &[u8], off: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(off..off + 4)?.try_into().ok()?))
}

pub fn check_manifest(bytes: Vec<u8>, off: usize) -> Option<Vec<Vec<u8>>> {
    let count = read_u32(&bytes, 12)? as usize;
    let mut prefixes = Vec::with_capacity(count);
    let plen = read_u32(&bytes, off)?;
    prefixes.push(bytes.get(off..off + plen as usize)?.to_vec());
    Some(prefixes)
}

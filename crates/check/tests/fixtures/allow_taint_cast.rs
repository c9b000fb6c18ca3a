// Twin: the same conversion through try_from, so an oversized length is
// rejected instead of truncated.

#[expect(clippy::disallowed_methods, reason = "fixture parser, under the parser deny")]
pub fn parse_len(buf: &[u8]) -> usize {
    let raw = u64::from_le_bytes(buf.get(0..8).and_then(|b| b.try_into().ok()).unwrap_or([0; 8]));
    usize::try_from(raw).unwrap_or(0)
}

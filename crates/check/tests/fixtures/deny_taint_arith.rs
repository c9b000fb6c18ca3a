// Fixture: unchecked arithmetic on a header-derived length — a hostile
// 8-byte field overflows the offset computation silently in release.

#[expect(clippy::disallowed_methods, reason = "fixture parser, under the parser deny")]
pub fn parse_span(buf: &[u8]) -> u64 {
    let len = u64::from_le_bytes(buf.get(0..8).and_then(|b| b.try_into().ok()).unwrap_or([0; 8]));
    len * 8 + 16
}

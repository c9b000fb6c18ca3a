// Fixture: a 64-bit header length truncated to usize with `as` — on a
// 32-bit target a hostile value silently aliases a small, plausible one.

#[expect(clippy::disallowed_methods, reason = "fixture parser, under the parser deny")]
pub fn parse_len(buf: &[u8]) -> usize {
    u64::from_le_bytes(buf.get(0..8).and_then(|b| b.try_into().ok()).unwrap_or([0; 8])) as usize
}

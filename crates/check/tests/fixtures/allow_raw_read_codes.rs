// Fixture twin: the same raw `read_codes_at`, escaped by a reasoned allow
// directive on the call site.

pub struct Store;

impl Store {
    pub fn read_codes_at(&self, _pos: u64, _count: usize, _buf: &mut [u8]) {}
}

pub fn fetch(store: &Store, buf: &mut [u8]) {
    // era-check: allow(raw-read): fixture — a forwarding impl of the store trait
    store.read_codes_at(0, 8, buf);
}

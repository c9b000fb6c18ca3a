// Fixture: a raw `read_codes_at` outside the cursor/text-source seam must be
// flagged like a raw `read_at` — the store's codes are string I/O too.

pub struct Store;

impl Store {
    pub fn read_codes_at(&self, _pos: u64, _count: usize, _buf: &mut [u8]) {}
}

pub fn fetch(store: &Store, buf: &mut [u8]) {
    store.read_codes_at(0, 8, buf);
}

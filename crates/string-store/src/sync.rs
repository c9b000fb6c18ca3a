//! The crate's one poisoned-lock policy.
//!
//! Everything in this crate that locks (the [`BlockCache`](crate::BlockCache)
//! shard mutexes, the disk stores' file mutexes) takes its `std::sync::Mutex`
//! through [`lock`]. No path holds two of these locks at once: a file lock
//! covers one seek and `read_exact`, a shard lock one lookup or one insert.

use std::sync::{Mutex, MutexGuard};

/// Acquires `mutex` — the crate's one poisoned-lock policy. A lock is only
/// poisoned when a thread panicked while holding it, i.e. the invariant it
/// guards (shard accounting, a file cursor mid-seek) may be broken; nothing
/// downstream can repair that, so the panic is propagated.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    #[expect(clippy::expect_used, reason = "poisoned lock is unrecoverable")]
    mutex.lock().expect("lock poisoned by a panicking holder")
}

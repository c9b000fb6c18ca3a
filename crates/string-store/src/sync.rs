//! Sync-primitive facade: `std::sync` in production, the vendored
//! `interleave::shim` wrappers under the `shim-sync` feature.
//!
//! Everything in this crate that synchronizes between threads (the
//! [`BlockCache`](crate::BlockCache) shard mutexes, the disk stores' file
//! mutexes, the [`CacheStats`] atomic counters) imports its primitives from
//! here instead of `std` and takes its locks through [`lock`], so
//! the `era-check interleave` harness can compile the *real* code with
//! explorer yield points at every lock acquisition and atomic operation and
//! exhaustively check its interleavings. The shim types are drop-in: same
//! constructors, same `lock() -> Result<…>` shape, same atomic method names.
//!
//! `shim-sync` is strictly a verification configuration — it serializes
//! execution under a scheduler token and must never be enabled in a build
//! that wants real parallelism.
//!
//! [`CacheStats`]: crate::CacheStats

#[cfg(not(feature = "shim-sync"))]
pub use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
#[cfg(not(feature = "shim-sync"))]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(feature = "shim-sync")]
pub use interleave::shim::{AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};

/// Acquires `mutex` — the crate's one poisoned-lock policy. A lock is only
/// poisoned when a thread panicked while holding it, i.e. the invariant it
/// guards (shard accounting, a file cursor mid-seek) may be broken; nothing
/// downstream can repair that, so the panic is propagated.
pub fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // era-check: allow(unwrap): poisoned lock is unrecoverable
    mutex.lock().expect("lock poisoned by a panicking holder")
}

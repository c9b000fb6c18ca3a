//! The durability seam: a tiny virtual file system for *write paths*.
//!
//! Crash safety cannot be tested through `std::fs` — the OS hides the gap
//! between "written" and "durable". Every persistence write path in the
//! workspace therefore goes through the [`Vfs`] trait (create / write /
//! sync_data / rename / remove / sync_dir), with two implementations:
//!
//! * [`StdVfs`] — the production passthrough onto `std::fs`, including the
//!   directory fsync that makes renames durable on POSIX systems.
//! * [`FaultVfs`] — a deterministic in-memory file-system *model* for the
//!   crash-matrix harness. It counts every operation, records an op trace,
//!   and can be armed to crash at operation `K`: the crash rolls the model
//!   back to its **durable** state — un-synced writes are dropped, renames,
//!   creates and removes that were never followed by a [`Vfs::sync_dir`]
//!   un-happen, and (optionally) the last un-synced sector of a file tears.
//!   [`FaultVfs::durable_bytes`] then hands out what survived, for the
//!   harness to write to a real file the untouched production *read* path
//!   can try to reopen.
//!
//! The model's durability rules are the conservative POSIX ones:
//!
//! * file *content* becomes durable only at [`VfsFile::sync_data`];
//! * directory entries (create / rename / remove) become durable only at
//!   [`Vfs::sync_dir`];
//! * a crash may additionally tear the trailing un-synced sector of a file
//!   ([`CrashMode::TornSector`]) — a fsync-less write is not even
//!   prefix-durable.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Sector size of the torn-write model: a crash tears writes at (at most)
/// this granularity, like a real block device.
pub const SECTOR: usize = 512;

/// An open, writable file handle obtained from [`Vfs::create`].
pub trait VfsFile {
    /// Appends `buf` to the file.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Makes every byte written so far durable (fsync/fdatasync). Does *not*
    /// make the file's directory entry durable — that takes
    /// [`Vfs::sync_dir`].
    fn sync_data(&mut self) -> io::Result<()>;
}

/// The write-path file-system operations a crash-safe commit protocol needs.
///
/// Read paths deliberately stay on `std::fs`: the harness writes a
/// [`FaultVfs`]'s durable bytes to a real file and reopens it with the exact
/// production readers.
pub trait Vfs {
    /// Creates (or truncates) the file at `path` for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;

    /// Atomically renames `from` onto `to` (replacing any existing `to`).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Makes the directory entries of `dir` (creates, renames, removes)
    /// durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

// ---------------------------------------------------------------------------
// StdVfs
// ---------------------------------------------------------------------------

/// The production [`Vfs`]: a passthrough onto `std::fs` that really fsyncs.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

impl Vfs for StdVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // On POSIX a rename is durable only once the containing directory is
        // fsynced; opening a directory read-only for that purpose is
        // supported on the platforms the workspace targets.
        File::open(dir)?.sync_all()
    }
}

// ---------------------------------------------------------------------------
// FaultVfs
// ---------------------------------------------------------------------------

/// What a planned crash does to un-synced file content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Un-synced writes vanish entirely: every file reverts to its last
    /// `sync_data`'d content.
    DropUnsynced,
    /// Un-synced writes *partially* survive: a durable-visible file keeps a
    /// sector-aligned prefix of its pending bytes and the following sector is
    /// garbled — the classic torn write.
    TornSector,
}

/// One file in the model: its pending (written) and durable (synced) bytes.
#[derive(Debug, Default, Clone)]
struct FileNode {
    pending: Vec<u8>,
    durable: Vec<u8>,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<u64, FileNode>,
    /// What the live file system shows (survives nothing by itself).
    view: BTreeMap<PathBuf, u64>,
    /// What survives a crash: the entries made durable by `sync_dir`.
    durable_view: BTreeMap<PathBuf, u64>,
    next_id: u64,
    /// Operations observed since the last [`FaultVfs::record`]/
    /// [`FaultVfs::plan_crash`].
    ops: u64,
    /// Crash before executing operation number `plan.0` (0-based).
    plan: Option<(u64, CrashMode)>,
    crashed: bool,
    trace: Vec<String>,
}

impl FaultState {
    /// Rolls the model back to its durable state (the crash itself).
    fn apply_crash(&mut self, mode: CrashMode) {
        if mode == CrashMode::TornSector {
            // Files reachable from the durable namespace keep a torn version
            // of their un-synced tail: a sector-aligned prefix of the pending
            // bytes plus one garbled sector.
            let durable_ids: Vec<u64> = self.durable_view.values().copied().collect();
            for id in durable_ids {
                if let Some(node) = self.files.get_mut(&id) {
                    if node.pending.len() > node.durable.len() {
                        let extra = node.pending.len() - node.durable.len();
                        let keep = node.durable.len() + (extra / 2 / SECTOR) * SECTOR;
                        let garble_end = (keep + SECTOR).min(node.pending.len());
                        let mut torn = node.pending[..keep].to_vec();
                        torn.extend(node.pending[keep..garble_end].iter().map(|b| b ^ 0xA5));
                        node.durable = torn;
                    }
                }
            }
        }
        self.view = self.durable_view.clone();
        for node in self.files.values_mut() {
            node.pending = node.durable.clone();
        }
        self.crashed = true;
    }

    /// Accounts one operation, crashing first when the plan says so.
    fn step(&mut self, desc: String) -> io::Result<()> {
        if self.crashed {
            return Err(io::Error::other("FaultVfs: the file system already crashed"));
        }
        if let Some((at, mode)) = self.plan {
            if self.ops >= at {
                let op = self.ops;
                self.apply_crash(mode);
                self.trace.push(format!("CRASH before op {op}: {desc}"));
                return Err(io::Error::other(format!("FaultVfs: injected crash before {desc}")));
            }
        }
        self.ops += 1;
        self.trace.push(desc);
        Ok(())
    }
}

/// A deterministic fault-injecting in-memory [`Vfs`].
///
/// Typical harness loop:
///
/// 1. save the *old* generation through a pristine `FaultVfs` (fully, so its
///    durable state is the committed old index);
/// 2. [`FaultVfs::record`], save the *new* generation, read
///    [`FaultVfs::op_count`] — this is `N`, the number of fault points;
/// 3. for every `K in 0..N`: repeat step 1 on a fresh `FaultVfs`, arm
///    [`FaultVfs::plan_crash`]`(K, mode)`, run the new save (it errors),
///    write the [`FaultVfs::durable_bytes`] wreckage to a real file and
///    assert the production readers see exactly the old or the new
///    generation.
#[derive(Debug, Default, Clone)]
pub struct FaultVfs {
    state: Arc<Mutex<FaultState>>,
}

/// Recovers from a poisoned model lock: the model carries no cross-field
/// invariant worth aborting the harness over, and the panicking test thread
/// already reports the real failure.
fn lock(state: &Mutex<FaultState>) -> std::sync::MutexGuard<'_, FaultState> {
    state.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl FaultVfs {
    /// A pristine, empty model with no crash planned.
    pub fn new() -> Self {
        FaultVfs::default()
    }

    /// Resets the operation counter (and clears any crash plan), so the next
    /// save's operations are numbered from zero.
    pub fn record(&self) {
        let mut s = lock(&self.state);
        s.ops = 0;
        s.plan = None;
    }

    /// Arms a crash *before* operation `at_op` (0-based, counted from now):
    /// `plan_crash(0, ..)` fails the very next operation, `plan_crash(N, ..)`
    /// lets a save of exactly `N` operations complete.
    pub fn plan_crash(&self, at_op: u64, mode: CrashMode) {
        let mut s = lock(&self.state);
        s.ops = 0;
        s.plan = Some((at_op, mode));
    }

    /// Crashes immediately (e.g. right after a save that was allowed to
    /// complete, to drop whatever it left un-synced).
    pub fn crash_now(&self, mode: CrashMode) {
        let mut s = lock(&self.state);
        if !s.crashed {
            s.apply_crash(mode);
            s.trace.push("CRASH (explicit)".to_string());
        }
    }

    /// Operations observed since the last [`Self::record`]/
    /// [`Self::plan_crash`].
    pub fn op_count(&self) -> u64 {
        lock(&self.state).ops
    }

    /// The recorded operation trace (crashes included).
    pub fn trace(&self) -> Vec<String> {
        lock(&self.state).trace.clone()
    }

    /// Whether a crash (planned or explicit) has struck.
    pub fn crashed(&self) -> bool {
        lock(&self.state).crashed
    }

    /// The *durable* bytes of `path`, when the durable namespace has it.
    pub fn durable_bytes(&self, path: &Path) -> Option<Vec<u8>> {
        let s = lock(&self.state);
        let id = s.durable_view.get(path)?;
        Some(s.files.get(id)?.durable.clone())
    }

    /// File names in the durable namespace, sorted.
    pub fn durable_names(&self) -> Vec<String> {
        let s = lock(&self.state);
        s.durable_view
            .keys()
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect()
    }
}

struct FaultFile {
    state: Arc<Mutex<FaultState>>,
    id: u64,
    name: String,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.step(format!("write {} {}B", self.name, buf.len()))?;
        match s.files.get_mut(&self.id) {
            Some(node) => {
                node.pending.extend_from_slice(buf);
                Ok(())
            }
            None => Err(io::Error::other("FaultVfs: write to a removed file")),
        }
    }

    fn sync_data(&mut self) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.step(format!("sync_data {}", self.name))?;
        match s.files.get_mut(&self.id) {
            Some(node) => {
                node.durable = node.pending.clone();
                Ok(())
            }
            None => Err(io::Error::other("FaultVfs: sync of a removed file")),
        }
    }
}

fn display_name(path: &Path) -> String {
    match path.file_name() {
        Some(n) => n.to_string_lossy().into_owned(),
        None => path.display().to_string(),
    }
}

impl Vfs for FaultVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let mut s = lock(&self.state);
        s.step(format!("create {}", display_name(path)))?;
        let id = s.next_id;
        s.next_id += 1;
        s.files.insert(id, FileNode::default());
        s.view.insert(path.to_path_buf(), id);
        Ok(Box::new(FaultFile { state: Arc::clone(&self.state), id, name: display_name(path) }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.step(format!("rename {} -> {}", display_name(from), display_name(to)))?;
        match s.view.remove(from) {
            Some(id) => {
                s.view.insert(to.to_path_buf(), id);
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("FaultVfs: rename source {} does not exist", from.display()),
            )),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.step(format!("remove {}", display_name(path)))?;
        match s.view.remove(path) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("FaultVfs: remove target {} does not exist", path.display()),
            )),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let mut s = lock(&self.state);
        s.step(format!("sync_dir {}", display_name(dir)))?;
        // Namespace sync: the durable directory listing under `dir` becomes
        // the live one (creates and renames land, removes really remove).
        let in_dir = |p: &Path| p.parent() == Some(dir);
        let gone: Vec<PathBuf> = s
            .durable_view
            .keys()
            .filter(|p| in_dir(p) && !s.view.contains_key(*p))
            .cloned()
            .collect();
        for p in gone {
            s.durable_view.remove(&p);
        }
        let live: Vec<(PathBuf, u64)> =
            s.view.iter().filter(|(p, _)| in_dir(p)).map(|(p, id)| (p.clone(), *id)).collect();
        for (p, id) in live {
            s.durable_view.insert(p, id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir() -> PathBuf {
        PathBuf::from("/virtual")
    }

    /// The sound four-step commit: write temp, sync_data, rename, sync_dir.
    fn commit(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        let mut f = vfs.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        drop(f);
        vfs.rename(&tmp, path)?;
        vfs.sync_dir(path.parent().unwrap_or(Path::new(".")))
    }

    #[test]
    fn completed_commit_is_durable_and_counted() {
        let vfs = FaultVfs::new();
        let path = dir().join("file.bin");
        commit(&vfs, &path, b"hello").unwrap();
        assert_eq!(vfs.op_count(), 5); // create, write, sync_data, rename, sync_dir
        assert_eq!(vfs.durable_bytes(&path).as_deref(), Some(&b"hello"[..]));
        assert_eq!(vfs.durable_names(), vec!["file.bin".to_string()]);
        let trace = vfs.trace();
        assert!(trace.iter().any(|l| l.starts_with("rename")), "{trace:?}");
    }

    #[test]
    fn every_crash_point_yields_old_or_new_and_nothing_else() {
        let path = dir().join("file.bin");
        // Record the op count of one full commit.
        let probe = FaultVfs::new();
        commit(&probe, &path, b"old-old-old").unwrap();
        probe.record();
        commit(&probe, &path, b"new-new-new-new").unwrap();
        let n = probe.op_count();
        assert!(n >= 5);
        for mode in [CrashMode::DropUnsynced, CrashMode::TornSector] {
            for k in 0..n {
                let vfs = FaultVfs::new();
                commit(&vfs, &path, b"old-old-old").unwrap();
                vfs.plan_crash(k, mode);
                let err = commit(&vfs, &path, b"new-new-new-new");
                assert!(err.is_err(), "crash at {k} must fail the save");
                let got = vfs.durable_bytes(&path);
                assert_eq!(
                    got.as_deref(),
                    Some(&b"old-old-old"[..]),
                    "write-then-rename commits atomically: pre-commit crash keeps old ({mode:?}, k={k})"
                );
                // The temp file never becomes durable (its create was never
                // followed by a directory sync that survived).
                assert_eq!(vfs.durable_names(), vec!["file.bin".to_string()], "k={k}");
            }
        }
    }

    #[test]
    fn unsynced_rename_rolls_back() {
        let vfs = FaultVfs::new();
        let a = dir().join("a");
        let b = dir().join("b");
        commit(&vfs, &a, b"payload").unwrap();
        vfs.rename(&a, &b).unwrap();
        vfs.crash_now(CrashMode::DropUnsynced);
        assert_eq!(vfs.durable_bytes(&a).as_deref(), Some(&b"payload"[..]));
        assert!(vfs.durable_bytes(&b).is_none());
    }

    #[test]
    fn unsynced_remove_rolls_back_and_synced_remove_sticks() {
        let a = dir().join("a");
        let vfs = FaultVfs::new();
        commit(&vfs, &a, b"payload").unwrap();
        vfs.remove_file(&a).unwrap();
        vfs.crash_now(CrashMode::DropUnsynced);
        assert_eq!(vfs.durable_bytes(&a).as_deref(), Some(&b"payload"[..]));

        let vfs = FaultVfs::new();
        commit(&vfs, &a, b"payload").unwrap();
        vfs.remove_file(&a).unwrap();
        vfs.sync_dir(&dir()).unwrap();
        vfs.crash_now(CrashMode::DropUnsynced);
        assert!(vfs.durable_bytes(&a).is_none());
    }

    #[test]
    fn torn_sector_garbles_unsynced_tails_of_durable_files() {
        // Broken protocol: rename + dir-sync *before* sync_data. A torn crash
        // must leave the file visible with mangled content.
        let vfs = FaultVfs::new();
        let path = dir().join("torn.bin");
        let tmp = path.with_extension("tmp");
        let mut f = vfs.create(&tmp).unwrap();
        let payload = vec![0x5A_u8; 3 * SECTOR];
        f.write_all(&payload).unwrap();
        vfs.rename(&tmp, &path).unwrap();
        vfs.sync_dir(&dir()).unwrap();
        // sync_data never happened.
        drop(f);
        vfs.crash_now(CrashMode::TornSector);
        let got = vfs.durable_bytes(&path).expect("entry was made durable by sync_dir");
        assert!(got.len() < payload.len(), "unsynced tail must not fully survive");
        assert!(
            got.iter().any(|&b| b != 0x5A),
            "the trailing sector must be garbled, got a clean prefix only: {} bytes",
            got.len()
        );
        // Deterministic: a second identical run tears identically.
        let vfs2 = FaultVfs::new();
        let mut f2 = vfs2.create(&tmp).unwrap();
        f2.write_all(&payload).unwrap();
        vfs2.rename(&tmp, &path).unwrap();
        vfs2.sync_dir(&dir()).unwrap();
        drop(f2);
        vfs2.crash_now(CrashMode::TornSector);
        assert_eq!(vfs2.durable_bytes(&path), Some(got));
    }

    #[test]
    fn ops_after_a_crash_keep_failing() {
        let vfs = FaultVfs::new();
        vfs.plan_crash(0, CrashMode::DropUnsynced);
        assert!(vfs.create(&dir().join("x")).is_err());
        assert!(vfs.crashed());
        assert!(vfs.create(&dir().join("y")).is_err());
        assert!(vfs.sync_dir(&dir()).is_err());
    }

    #[test]
    fn std_vfs_round_trips_through_the_real_fs() {
        let real = std::env::temp_dir().join(format!("era-vfs-std-{}", std::process::id()));
        std::fs::create_dir_all(&real).unwrap();
        let vfs = StdVfs;
        let path = real.join("file.bin");
        commit(&vfs, &path, b"on disk").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"on disk");
        vfs.remove_file(&path).unwrap();
        vfs.sync_dir(&real).unwrap();
        assert!(!path.exists());
        std::fs::remove_dir_all(&real).unwrap();
    }
}

//! Filesystem abstraction for the log-structured engine, with a seeded
//! fault-injecting implementation for crash-consistency testing.
//!
//! The engine never touches `std::fs` directly; every byte it persists goes
//! through [`Vfs`]/[`VFile`]. Production (`sharoes-sspd`) uses [`RealFs`].
//! Tests use [`FaultFs`], an in-memory filesystem that models exactly the
//! failure semantics POSIX gives a crash-safe application — and nothing
//! kinder:
//!
//! * **Appends are volatile until `sync`.** Each file tracks the durable
//!   prefix (`synced` bytes) separately from the written length. A crash
//!   image keeps only the durable prefix, optionally plus a *torn tail* — a
//!   seeded-random prefix of the unsynced suffix, the way a kernel may have
//!   written some sectors of a pending append but not others.
//! * **Namespace operations are volatile until `sync_dir`.** Creates,
//!   renames, and removes hit the live view immediately but only become
//!   crash-durable when the directory is fsynced — the invariant behind the
//!   write-then-rename-then-`fsync(dir)` dance (see the engine's checkpoint
//!   step in `LogEngine::compact`).
//!   A crash can therefore *resurrect* a removed file or lose a renamed one,
//!   and the engine's recovery has to cope.
//! * **Disks rot and fsyncs fail.** [`FaultFs::flip_bit`] flips a seeded
//!   bit inside a file's durable bytes (sealed-segment bit rot);
//!   [`FaultFs::fail_next_syncs`] makes the next N `sync`/`sync_dir` calls
//!   return an injected I/O error.
//!
//! Like `crates/net/src/fault.rs`, every fault is a pure function of the
//! caller-supplied DRBG, so a failing crash-point run replays exactly from
//! `SHAROES_TEST_SEED`.

use sharoes_crypto::{HmacDrbg, RandomSource};
use std::collections::BTreeMap;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open file handle: append-only writes plus positioned reads.
pub trait VFile: Send {
    /// Current length in bytes (written, not necessarily durable).
    fn len(&self) -> u64;
    /// True when the file is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Appends `data` at the end of the file.
    fn append(&mut self, data: &[u8]) -> std::io::Result<()>;
    /// Reads exactly `len` bytes starting at `offset`.
    fn read_at(&mut self, offset: u64, len: usize) -> std::io::Result<Vec<u8>>;
    /// Makes every written byte durable (fsync).
    fn sync(&mut self) -> std::io::Result<()>;
    /// Truncates the file to `len` bytes.
    fn truncate(&mut self, len: u64) -> std::io::Result<()>;
}

/// The filesystem operations the storage engine needs.
pub trait Vfs: Send + Sync {
    /// Opens `path` for append + positioned reads, creating it if `create`.
    fn open(&self, path: &Path, create: bool) -> std::io::Result<Box<dyn VFile>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;
    /// Renames a file (replacing any existing target).
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> std::io::Result<()>;
    /// Lists the file names (not paths) inside `dir`, sorted.
    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>>;
    /// Fsyncs the directory itself, making pending namespace operations
    /// (creates, renames, removes) crash-durable.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
    /// Creates `dir` and its parents.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;
    /// Whether `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
}

// ---------------------------------------------------------------------------
// RealFs
// ---------------------------------------------------------------------------

/// [`Vfs`] over the real filesystem (`std::fs`).
#[derive(Default, Clone, Copy)]
pub struct RealFs;

struct RealFile {
    file: std::fs::File,
    len: u64,
}

impl VFile for RealFile {
    fn len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)?;
        self.len += data.len() as u64;
        Ok(())
    }

    fn read_at(&mut self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        self.file.read_exact(&mut buf)?;
        Ok(buf)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

impl Vfs for RealFs {
    fn open(&self, path: &Path, create: bool) -> std::io::Result<Box<dyn VFile>> {
        let file = std::fs::OpenOptions::new().read(true).write(true).create(create).open(path)?;
        let len = file.metadata()?.len();
        Ok(Box::new(RealFile { file, len }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        std::fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        // On POSIX, fsyncing the directory file descriptor is what persists
        // directory entries (file creation, rename, unlink).
        std::fs::File::open(dir)?.sync_all()
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

// ---------------------------------------------------------------------------
// FaultFs
// ---------------------------------------------------------------------------

/// How a crash image treats bytes written but not yet fsynced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CrashMode {
    /// Unsynced bytes are lost entirely; files keep only their durable
    /// prefix (the conservative POSIX guarantee).
    LoseUnsynced,
    /// A seeded-random prefix of the unsynced tail survives — a torn append
    /// where some sectors reached the platter and the rest did not.
    TornTail,
}

/// One in-memory file: written bytes plus the durable watermark.
struct Node {
    data: Vec<u8>,
    synced: usize,
}

struct FaultState {
    /// Live namespace: what readers see right now.
    names: BTreeMap<String, Arc<Mutex<Node>>>,
    /// Namespace as of the last `sync_dir`: what a crash preserves.
    durable_names: BTreeMap<String, Arc<Mutex<Node>>>,
    /// Countdown of syncs that fail with an injected error.
    fail_syncs: u32,
    /// Total injected sync failures (for assertions).
    sync_failures: u64,
    /// Total successful file syncs (for assertions).
    file_syncs: u64,
}

/// A seeded, crash-simulating in-memory [`Vfs`].
///
/// Cloning shares the underlying state (handles stay valid across clones).
#[derive(Clone)]
pub struct FaultFs {
    state: Arc<Mutex<FaultState>>,
}

impl Default for FaultFs {
    fn default() -> Self {
        Self::new()
    }
}

fn key(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

fn injected(what: &str) -> std::io::Error {
    std::io::Error::other(format!("injected disk fault: {what}"))
}

impl FaultFs {
    /// An empty in-memory filesystem.
    pub fn new() -> Self {
        FaultFs {
            state: Arc::new(Mutex::new(FaultState {
                names: BTreeMap::new(),
                durable_names: BTreeMap::new(),
                fail_syncs: 0,
                sync_failures: 0,
                file_syncs: 0,
            })),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Makes the next `n` `sync`/`sync_dir` calls fail with an injected
    /// I/O error (the write itself still lands in the page cache, exactly
    /// like a real failed fsync).
    pub fn fail_next_syncs(&self, n: u32) {
        self.lock().fail_syncs = n;
    }

    /// Number of injected sync failures so far.
    pub fn sync_failures(&self) -> u64 {
        self.lock().sync_failures
    }

    /// Number of successful file `sync` calls (not `sync_dir`) so far,
    /// across every handle on this filesystem: an engine's own fsync count,
    /// free of other engines running in the same process.
    pub fn file_syncs(&self) -> u64 {
        self.lock().file_syncs
    }

    fn consume_sync_fault(state: &mut FaultState) -> std::io::Result<()> {
        if state.fail_syncs > 0 {
            state.fail_syncs -= 1;
            state.sync_failures += 1;
            return Err(injected("fsync failed"));
        }
        Ok(())
    }

    /// The crash image of this filesystem: a fresh `FaultFs` holding only
    /// what a power cut at this instant would preserve. Namespace operations
    /// since the last `sync_dir` are rolled back; file contents keep their
    /// durable prefix, plus (in [`CrashMode::TornTail`]) a seeded-random
    /// prefix of the unsynced tail.
    pub fn crash_image(&self, mode: CrashMode, rng: &mut HmacDrbg) -> FaultFs {
        let state = self.lock();
        let mut names = BTreeMap::new();
        for (name, node) in &state.durable_names {
            let node = node.lock().unwrap_or_else(|e| e.into_inner());
            let mut keep = node.synced;
            if mode == CrashMode::TornTail {
                let unsynced = node.data.len() - node.synced;
                if unsynced > 0 {
                    keep += (rng.next_u64() as usize) % (unsynced + 1);
                }
            }
            let imaged = Node { data: node.data[..keep].to_vec(), synced: keep };
            names.insert(name.clone(), Arc::new(Mutex::new(imaged)));
        }
        FaultFs {
            state: Arc::new(Mutex::new(FaultState {
                durable_names: names.clone(),
                names,
                fail_syncs: 0,
                sync_failures: 0,
                file_syncs: 0,
            })),
        }
    }

    /// Replaces the contents of `path` wholesale (test setup: planting a
    /// crafted or truncated file image). Both written and durable.
    pub fn install(&self, path: &Path, data: Vec<u8>) {
        let mut state = self.lock();
        let synced = data.len();
        let node = Arc::new(Mutex::new(Node { data, synced }));
        state.names.insert(key(path), Arc::clone(&node));
        state.durable_names.insert(key(path), node);
    }

    /// Flips one seeded-random bit inside the durable bytes of `path`
    /// (sealed-segment bit rot). Returns the flipped byte offset, or `None`
    /// if the file is missing or empty.
    pub fn flip_bit(&self, path: &Path, rng: &mut HmacDrbg) -> Option<u64> {
        let state = self.lock();
        let node = state.names.get(&key(path))?;
        let mut node = node.lock().unwrap_or_else(|e| e.into_inner());
        if node.data.is_empty() {
            return None;
        }
        let offset = (rng.next_u64() as usize) % node.data.len();
        let bit = (rng.next_u64() % 8) as u32;
        node.data[offset] ^= 1 << bit;
        Some(offset as u64)
    }

    /// Flips the byte at `offset` in `path` with `mask` (deterministic rot
    /// placement for targeted tests).
    pub fn flip_byte_at(&self, path: &Path, offset: u64, mask: u8) {
        let state = self.lock();
        let node = state.names.get(&key(path)).expect("flip_byte_at: no such file");
        let mut node = node.lock().unwrap_or_else(|e| e.into_inner());
        node.data[offset as usize] ^= mask;
    }
}

struct FaultFile {
    node: Arc<Mutex<Node>>,
    fs: FaultFs,
}

impl VFile for FaultFile {
    fn len(&self) -> u64 {
        self.node.lock().unwrap_or_else(|e| e.into_inner()).data.len() as u64
    }

    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        let mut node = self.node.lock().unwrap_or_else(|e| e.into_inner());
        node.data.extend_from_slice(data);
        Ok(())
    }

    fn read_at(&mut self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let node = self.node.lock().unwrap_or_else(|e| e.into_inner());
        let start = offset as usize;
        if start + len > node.data.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "read past end of file",
            ));
        }
        Ok(node.data[start..start + len].to_vec())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let mut state = self.fs.lock();
        FaultFs::consume_sync_fault(&mut state)?;
        state.file_syncs += 1;
        drop(state);
        let mut node = self.node.lock().unwrap_or_else(|e| e.into_inner());
        node.synced = node.data.len();
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        let mut node = self.node.lock().unwrap_or_else(|e| e.into_inner());
        node.data.truncate(len as usize);
        node.synced = node.synced.min(node.data.len());
        Ok(())
    }
}

impl Vfs for FaultFs {
    fn open(&self, path: &Path, create: bool) -> std::io::Result<Box<dyn VFile>> {
        let mut state = self.lock();
        let node = match state.names.get(&key(path)) {
            Some(node) => Arc::clone(node),
            None if create => {
                // A freshly created file's directory entry is volatile until
                // `sync_dir`; its crash image simply doesn't exist.
                let node = Arc::new(Mutex::new(Node { data: Vec::new(), synced: 0 }));
                state.names.insert(key(path), Arc::clone(&node));
                node
            }
            None => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("no such file: {}", path.display()),
                ))
            }
        };
        Ok(Box::new(FaultFile { node, fs: self.clone() }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        let state = self.lock();
        match state.names.get(&key(path)) {
            Some(node) => Ok(node.lock().unwrap_or_else(|e| e.into_inner()).data.clone()),
            None => Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no such file: {}", path.display()),
            )),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let mut state = self.lock();
        let node = state.names.remove(&key(from)).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("rename source missing: {}", from.display()),
            )
        })?;
        state.names.insert(key(to), node);
        Ok(())
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        let mut state = self.lock();
        state.names.remove(&key(path)).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("remove target missing: {}", path.display()),
            )
        })?;
        Ok(())
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        let state = self.lock();
        let prefix = {
            let mut p = key(dir);
            if !p.ends_with('/') {
                p.push('/');
            }
            p
        };
        Ok(state
            .names
            .keys()
            .filter_map(|k| k.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(|s| s.to_string())
            .collect())
    }

    fn sync_dir(&self, _dir: &Path) -> std::io::Result<()> {
        let mut state = self.lock();
        FaultFs::consume_sync_fault(&mut state)?;
        state.durable_names = state.names.clone();
        Ok(())
    }

    fn create_dir_all(&self, _dir: &Path) -> std::io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().names.contains_key(&key(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn append_read_sync_roundtrip() {
        let fs = FaultFs::new();
        let mut f = fs.open(&p("/d/a.log"), true).unwrap();
        f.append(b"hello ").unwrap();
        f.append(b"world").unwrap();
        assert_eq!(f.len(), 11);
        assert_eq!(f.read_at(6, 5).unwrap(), b"world");
        assert!(f.read_at(7, 5).is_err(), "read past end must fail");
        f.sync().unwrap();
        assert_eq!(fs.read(&p("/d/a.log")).unwrap(), b"hello world");
    }

    #[test]
    fn crash_loses_unsynced_bytes_and_namespace_ops() {
        let fs = FaultFs::new();
        let mut f = fs.open(&p("/d/a.log"), true).unwrap();
        f.append(b"durable").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        f.append(b" volatile").unwrap();
        // A file created but never dir-synced vanishes in the image.
        let mut g = fs.open(&p("/d/b.log"), true).unwrap();
        g.append(b"gone").unwrap();
        g.sync().unwrap();

        let mut rng = HmacDrbg::from_seed_u64(1);
        let image = fs.crash_image(CrashMode::LoseUnsynced, &mut rng);
        assert_eq!(image.read(&p("/d/a.log")).unwrap(), b"durable");
        assert!(image.read(&p("/d/b.log")).is_err(), "uncommitted create must vanish");
    }

    #[test]
    fn torn_tail_keeps_a_prefix_of_the_unsynced_suffix() {
        let fs = FaultFs::new();
        let mut f = fs.open(&p("/d/a.log"), true).unwrap();
        f.append(b"base").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p("/d")).unwrap();
        f.append(b"0123456789").unwrap();

        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let mut rng = HmacDrbg::from_seed_u64(seed);
            let image = fs.crash_image(CrashMode::TornTail, &mut rng);
            let data = image.read(&p("/d/a.log")).unwrap();
            assert!(data.starts_with(b"base"));
            assert!(data.len() >= 4 && data.len() <= 14);
            assert_eq!(&data[..], &b"base0123456789"[..data.len()], "tail must be a true prefix");
            seen.insert(data.len());
        }
        assert!(seen.len() > 1, "torn length should vary with the seed");
    }

    #[test]
    fn rename_without_dir_sync_is_lost_and_remove_resurrects() {
        let fs = FaultFs::new();
        let mut f = fs.open(&p("/d/old"), true).unwrap();
        f.append(b"x").unwrap();
        f.sync().unwrap();
        fs.sync_dir(&p("/d")).unwrap();

        fs.rename(&p("/d/old"), &p("/d/new")).unwrap();
        let mut rng = HmacDrbg::from_seed_u64(2);
        let image = fs.crash_image(CrashMode::LoseUnsynced, &mut rng);
        assert!(image.read(&p("/d/new")).is_err(), "unsynced rename must be lost");
        assert_eq!(image.read(&p("/d/old")).unwrap(), b"x", "source must survive");

        // After sync_dir the rename is durable.
        fs.sync_dir(&p("/d")).unwrap();
        let image = fs.crash_image(CrashMode::LoseUnsynced, &mut rng);
        assert_eq!(image.read(&p("/d/new")).unwrap(), b"x");

        // Remove without dir sync: the crash image still has the file.
        fs.remove(&p("/d/new")).unwrap();
        let image = fs.crash_image(CrashMode::LoseUnsynced, &mut rng);
        assert_eq!(image.read(&p("/d/new")).unwrap(), b"x", "unsynced remove resurrects");
    }

    #[test]
    fn injected_sync_failures_count_down() {
        let fs = FaultFs::new();
        let mut f = fs.open(&p("/d/a.log"), true).unwrap();
        f.append(b"abc").unwrap();
        fs.fail_next_syncs(2);
        assert!(f.sync().is_err());
        assert!(fs.sync_dir(&p("/d")).is_err());
        assert!(f.sync().is_ok(), "fault budget exhausted");
        assert_eq!(fs.sync_failures(), 2);
        // The failed syncs left the data volatile; the successful one took.
        let mut rng = HmacDrbg::from_seed_u64(3);
        fs.sync_dir(&p("/d")).unwrap();
        let image = fs.crash_image(CrashMode::LoseUnsynced, &mut rng);
        assert_eq!(image.read(&p("/d/a.log")).unwrap(), b"abc");
    }

    #[test]
    fn flip_bit_rots_exactly_one_bit() {
        let fs = FaultFs::new();
        fs.install(&p("/d/a.seg"), vec![0u8; 64]);
        let mut rng = HmacDrbg::from_seed_u64(4);
        let off = fs.flip_bit(&p("/d/a.seg"), &mut rng).unwrap();
        let data = fs.read(&p("/d/a.seg")).unwrap();
        assert_eq!(data.iter().map(|b| b.count_ones()).sum::<u32>(), 1);
        assert_ne!(data[off as usize], 0);
    }

    #[test]
    fn list_returns_only_direct_children_sorted() {
        let fs = FaultFs::new();
        fs.install(&p("/d/b"), vec![]);
        fs.install(&p("/d/a"), vec![]);
        fs.install(&p("/d/sub/c"), vec![]);
        fs.install(&p("/other/x"), vec![]);
        assert_eq!(fs.list(&p("/d")).unwrap(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn handles_survive_rename() {
        let fs = FaultFs::new();
        let mut f = fs.open(&p("/d/a.tmp"), true).unwrap();
        f.append(b"payload").unwrap();
        fs.rename(&p("/d/a.tmp"), &p("/d/a")).unwrap();
        f.append(b"!").unwrap();
        f.sync().unwrap();
        assert_eq!(fs.read(&p("/d/a")).unwrap(), b"payload!");
    }
}

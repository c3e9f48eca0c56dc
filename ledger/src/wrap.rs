//! Wrappers around the program's public traits: a [`Transport`] that
//! records spans and what crossed it, and a [`Vfs`] over [`RealFs`] that
//! counts WAL appends, fsyncs and checkpoints.

use crate::trace;
use sharoes_net::{CostMeter, NetError, ObjectKey, Request, Response, Transport};
use sharoes_ssp::{RealFs, VFile, Vfs};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A request's protocol verb, as the SSP names its `ssp_op_<verb>_ns`
/// histograms.
pub fn verb(request: &Request) -> &'static str {
    match request {
        Request::Ping => "ping",
        Request::Put { .. } => "put",
        Request::PutMany { .. } => "put_many",
        Request::Get { .. } => "get",
        Request::GetMany { .. } => "get_many",
        Request::Delete { .. } => "delete",
        Request::DeleteBlocks { .. } => "delete_blocks",
        Request::DeleteMany { .. } => "delete_many",
        Request::Stats => "stats",
        Request::Metrics => "metrics",
        Request::Scan { .. } => "scan",
        Request::Trace { .. } => "trace",
        Request::Root => "root",
        Request::IndexNode { .. } => "index_node",
        Request::ScanVerified { .. } => "scan_verified",
    }
}

/// A change to the keyspace, or a verified scan, as one client issued it.
#[derive(Clone, Debug)]
pub enum KeyEvent {
    /// A key was stored.
    Put(ObjectKey),
    /// A key was deleted.
    Delete(ObjectKey),
    /// Every data block of `(inode, view)` was deleted.
    DeleteBlocks(u64, [u8; 16]),
    /// A verified scan page was served.
    Scan(Option<ObjectKey>, u32),
}

/// Most request/response pairs kept for re-encoding per tap.
const MAX_FRAMES: usize = 256;

/// What a traced run captures at a transport boundary.
#[derive(Default)]
pub struct Tap {
    capturing: std::sync::atomic::AtomicBool,
    calls: AtomicU64,
    call_times: Mutex<BTreeMap<&'static str, (u64, u64)>>,
    events: Mutex<Vec<KeyEvent>>,
    frames: Mutex<Vec<(Request, Response)>>,
}

impl Tap {
    /// A tap that records nothing until [`Tap::capture`] is turned on.
    pub fn new() -> Arc<Tap> {
        Arc::new(Tap::default())
    }

    /// Starts or stops capturing key events and frames.
    pub fn capture(&self, on: bool) {
        self.capturing.store(on, Ordering::Relaxed);
    }

    /// Takes the captured key events, in issue order.
    pub fn take_events(&self) -> Vec<KeyEvent> {
        std::mem::take(&mut *self.events.lock().expect("tap poisoned"))
    }

    /// Takes `(count, sum_ns)` per verb of every wire call made while
    /// capturing, traced op or not.
    pub fn take_call_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        std::mem::take(&mut *self.call_times.lock().expect("tap poisoned"))
    }

    /// Takes the captured request/response pairs.
    pub fn take_frames(&self) -> Vec<(Request, Response)> {
        std::mem::take(&mut *self.frames.lock().expect("tap poisoned"))
    }

    /// Logs the keyspace change or verified scan a successful call made.
    fn record_keys(&self, request: &Request, response: &Response) {
        let mut ev = self.events.lock().expect("tap poisoned");
        match (request, response) {
            (Request::Put { key, .. }, Response::Ok) => ev.push(KeyEvent::Put(*key)),
            (Request::PutMany { items }, Response::Ok) => {
                ev.extend(items.iter().map(|(k, _)| KeyEvent::Put(*k)))
            }
            (Request::Delete { key }, Response::Ok) => ev.push(KeyEvent::Delete(*key)),
            (Request::DeleteMany { keys }, Response::Ok) => {
                ev.extend(keys.iter().map(|k| KeyEvent::Delete(*k)))
            }
            (Request::DeleteBlocks { inode, view }, Response::Ok) => {
                ev.push(KeyEvent::DeleteBlocks(*inode, *view))
            }
            (Request::ScanVerified { after, limit }, Response::KeysProof { .. }) => {
                ev.push(KeyEvent::Scan(*after, *limit))
            }
            _ => {}
        }
    }

    /// Keeps an evenly spread sample of frames for the codec timing: every
    /// 8th call, up to [`MAX_FRAMES`].
    fn sample_frame(&self, request: &Request, response: &Response) {
        if self.calls.fetch_add(1, Ordering::Relaxed) % 8 == 0 {
            let mut frames = self.frames.lock().expect("tap poisoned");
            if frames.len() < MAX_FRAMES {
                frames.push((request.clone(), response.clone()));
            }
        }
    }
}

/// Which boundary a [`TapTransport`] sits on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Boundary {
    /// Between the client (or the cluster layer) and one SSP connection:
    /// spans `net.<verb>`, call times per verb, frames sampled for codec
    /// timing.
    Wire,
    /// Between the client and the cluster layer: spans `cluster.<verb>`.
    Cluster,
}

impl Boundary {
    fn layer(self) -> &'static str {
        match self {
            Boundary::Wire => "net",
            Boundary::Cluster => "cluster",
        }
    }
}

/// A [`Transport`] that forwards every call, records a span around it
/// inside traced ops, and feeds a [`Tap`] while capturing.
pub struct TapTransport {
    inner: Box<dyn Transport>,
    boundary: Boundary,
    /// The client-facing wrapper also logs key events for the index replay.
    client_facing: bool,
    tap: Arc<Tap>,
}

impl TapTransport {
    /// Wraps `inner` at `boundary`; `client_facing` marks the wrapper the
    /// client mounts through.
    pub fn new(
        inner: Box<dyn Transport>,
        boundary: Boundary,
        client_facing: bool,
        tap: Arc<Tap>,
    ) -> TapTransport {
        TapTransport { inner, boundary, client_facing, tap }
    }
}

impl Transport for TapTransport {
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        let v = verb(request);
        let (out, ns) = trace::span(self.boundary.layer(), v, || {
            let t = Instant::now();
            let out = self.inner.call(request);
            (out, t.elapsed().as_nanos() as u64)
        });
        if self.tap.capturing.load(Ordering::Relaxed) {
            if self.boundary == Boundary::Wire {
                let mut times = self.tap.call_times.lock().expect("tap poisoned");
                let entry = times.entry(v).or_default();
                *entry = (entry.0 + 1, entry.1 + ns);
            }
            if let Ok(response) = &out {
                if self.client_facing {
                    self.tap.record_keys(request, response);
                }
                if self.boundary == Boundary::Wire {
                    self.tap.sample_frame(request, response);
                }
            }
        }
        out
    }

    fn meter(&self) -> &Arc<CostMeter> {
        self.inner.meter()
    }
}

/// Counters a [`WalFs`] keeps; all monotonic, read as deltas.
#[derive(Default, Debug)]
pub struct WalStats {
    /// Bytes appended to any engine file.
    pub append_bytes: AtomicU64,
    /// File fsyncs.
    pub syncs: AtomicU64,
    /// Directory fsyncs.
    pub dir_syncs: AtomicU64,
    /// Nanoseconds inside file and directory fsyncs.
    pub sync_ns: AtomicU64,
    /// Checkpoints installed (tmp renamed into place): one per compaction.
    pub checkpoints: AtomicU64,
    /// Nanoseconds from opening a checkpoint's tmp file to its rename.
    pub checkpoint_ns: AtomicU64,
}

/// A point-in-time copy of [`WalStats`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct WalSample {
    /// See [`WalStats::append_bytes`].
    pub append_bytes: u64,
    /// File plus directory fsyncs.
    pub fsyncs: u64,
    /// See [`WalStats::sync_ns`].
    pub sync_ns: u64,
    /// See [`WalStats::checkpoints`].
    pub checkpoints: u64,
    /// See [`WalStats::checkpoint_ns`].
    pub checkpoint_ns: u64,
}

impl WalStats {
    /// Current totals.
    pub fn sample(&self) -> WalSample {
        let r = |a: &AtomicU64| a.load(Ordering::Relaxed);
        WalSample {
            append_bytes: r(&self.append_bytes),
            fsyncs: r(&self.syncs) + r(&self.dir_syncs),
            sync_ns: r(&self.sync_ns),
            checkpoints: r(&self.checkpoints),
            checkpoint_ns: r(&self.checkpoint_ns),
        }
    }
}

impl WalSample {
    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &WalSample) -> WalSample {
        WalSample {
            append_bytes: self.append_bytes - earlier.append_bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            sync_ns: self.sync_ns - earlier.sync_ns,
            checkpoints: self.checkpoints - earlier.checkpoints,
            checkpoint_ns: self.checkpoint_ns - earlier.checkpoint_ns,
        }
    }
}

/// [`RealFs`] with counters: the filesystem the `data-wal` engine runs on.
pub struct WalFs {
    stats: Arc<WalStats>,
    checkpoint_started: Mutex<HashMap<PathBuf, Instant>>,
}

impl WalFs {
    /// A counting real filesystem feeding `stats`.
    pub fn new(stats: Arc<WalStats>) -> WalFs {
        WalFs { stats, checkpoint_started: Mutex::new(HashMap::new()) }
    }
}

struct WalFile {
    inner: Box<dyn VFile>,
    stats: Arc<WalStats>,
}

impl VFile for WalFile {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.stats.append_bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        trace::server_span("wal", "append", || self.inner.append(data))
    }

    fn read_at(&mut self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        self.inner.read_at(offset, len)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let t = Instant::now();
        let out = trace::server_span("wal", "fsync", || self.inner.sync());
        self.stats.sync_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.truncate(len)
    }
}

fn is_checkpoint_tmp(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".tmp"))
}

impl Vfs for WalFs {
    fn open(&self, path: &Path, create: bool) -> std::io::Result<Box<dyn VFile>> {
        if create && is_checkpoint_tmp(path) {
            self.checkpoint_started
                .lock()
                .expect("checkpoint map poisoned")
                .insert(path.to_path_buf(), Instant::now());
        }
        let inner = RealFs.open(path, create)?;
        Ok(Box::new(WalFile { inner, stats: Arc::clone(&self.stats) }))
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        RealFs.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        let out = RealFs.rename(from, to);
        let started = self.checkpoint_started.lock().expect("checkpoint map poisoned").remove(from);
        if let (Ok(()), Some(t)) = (&out, started) {
            self.stats.checkpoint_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        RealFs.remove(path)
    }

    fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        RealFs.list(dir)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        let t = Instant::now();
        let out = trace::server_span("wal", "fsync_dir", || RealFs.sync_dir(dir));
        self.stats.sync_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.dir_syncs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        RealFs.create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        RealFs.exists(path)
    }
}

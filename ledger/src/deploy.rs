//! Shared set-up: seeded inputs, keys, migration, mounts, and the record of
//! the environment a result was measured in.

use crate::ledger::{Measured, OpKind, OpLog};
use sharoes_core::{
    ClientConfig, CryptoParams, CryptoPolicy, Keyring, Migrator, Pki, RevocationMode, Scheme,
    SharoesClient, SigKeyPool,
};
use sharoes_crypto::{Digest, HmacDrbg, Sha256};
use sharoes_fs::{Gid, LocalFs, Mode, Uid, UserDb, ROOT_UID};
use sharoes_net::Transport;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the deployment's key material. Keys are infrastructure, not
/// workload input: generating them from the workload seed made set-up time
/// vary by seed, because RSA/ESIGN prime search does a seed-dependent amount
/// of work. A fixed key seed makes every set-up do identical work.
pub const KEY_SEED: u64 = 0x5EED_0F4B_4559;

/// The staff group every benchmark user belongs to.
pub const STAFF: Gid = Gid(100);

/// SplitMix64: the benchmark's own input generator, so inputs do not move
/// when the program's generators change.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// `len` seeded bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

/// An op mix as a cycle of slots with exact counts, reshuffled by the seed
/// every cycle. Every cycle has the mix's proportions exactly, so per-op
/// counts do not depend on how many ops a timed phase got through; only
/// the order and the ops' targets vary with the seed.
pub struct Schedule<T: Copy> {
    slots: Vec<T>,
    next: usize,
    rng: Rng,
}

impl<T: Copy> Schedule<T> {
    /// A schedule of `count` slots per kind.
    pub fn new(mix: &[(T, usize)], rng: Rng) -> Schedule<T> {
        let slots: Vec<T> = mix.iter().flat_map(|(k, n)| std::iter::repeat(*k).take(*n)).collect();
        let next = slots.len();
        Schedule { slots, next, rng }
    }

    /// The next op kind.
    pub fn next_op(&mut self) -> T {
        if self.next == self.slots.len() {
            for i in (1..self.slots.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.slots.swap(i, j);
            }
            self.next = 0;
        }
        self.next += 1;
        self.slots[self.next - 1]
    }
}

/// The configuration every workload mounts with: bench-size keys
/// (RSA-2048 identities, ESIGN-768 signing pairs), shared CAPs, immediate
/// revocation, 4 KiB blocks.
pub fn client_config(cache_capacity: Option<u64>) -> ClientConfig {
    ClientConfig {
        scheme: Scheme::SharedCaps,
        policy: CryptoPolicy::Sharoes,
        revocation: RevocationMode::Immediate,
        block_size: 4096,
        cache_capacity,
        crypto: CryptoParams::bench(),
    }
}

/// A user directory: root in `wheel`, plus `users` in the staff group.
pub fn user_db(users: &[(Uid, &str)]) -> UserDb {
    let mut db = UserDb::new();
    db.add_group(Gid(0), "wheel").expect("fresh db");
    db.add_group(STAFF, "staff").expect("fresh db");
    db.add_user(ROOT_UID, "root", Gid(0)).expect("fresh db");
    for (uid, name) in users {
        db.add_user(*uid, name, STAFF).expect("unique user");
    }
    db
}

/// A fresh local tree over `db` with a root-owned `/`.
pub fn local_fs(db: UserDb) -> LocalFs {
    LocalFs::new(db, Gid(0), Mode::from_octal(0o755))
}

/// Seconds spent in each set-up phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Identity key generation.
    pub keyring_s: f64,
    /// Signing-pair pool prefill.
    pub sigpool_s: f64,
    /// Migration of the local tree to the SSP.
    pub migrate_s: f64,
    /// Workload-specific preload (filler objects, cache warm-up).
    pub preload_s: f64,
    /// Mounting every client, in milliseconds.
    pub mount_ms: f64,
}

impl SetupTimes {
    /// The whole set-up in seconds.
    pub fn total_s(&self) -> f64 {
        self.keyring_s + self.sigpool_s + self.migrate_s + self.preload_s + self.mount_ms / 1e3
    }
}

/// Keys, directory and pool of one deployment.
pub struct Deployment {
    /// Enterprise directory.
    pub db: Arc<UserDb>,
    /// Public keys.
    pub pki: Arc<Pki>,
    /// Identity keys (set-up side).
    pub ring: Keyring,
    /// Pre-generated signing pairs.
    pub pool: Arc<SigKeyPool>,
    /// Set-up phase times so far.
    pub times: SetupTimes,
}

impl Deployment {
    /// Generates keys for `fs`'s users, prefills `pairs` signing pairs and
    /// migrates `fs` through `transport`.
    pub fn migrate(fs: &LocalFs, pairs: usize, transport: &mut dyn Transport) -> Deployment {
        let mut times = SetupTimes::default();
        let mut rng = HmacDrbg::from_seed_u64(KEY_SEED);
        let t = Instant::now();
        let ring = Keyring::generate(fs.users(), CryptoParams::bench().rsa_bits, &mut rng)
            .expect("keyring generation");
        times.keyring_s = t.elapsed().as_secs_f64();
        let config = client_config(None);
        let t = Instant::now();
        let pool = Arc::new(SigKeyPool::new(config.crypto));
        pool.prefill_parallel(pairs, KEY_SEED);
        times.sigpool_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        Migrator { fs, config: &config, ring: &ring, pool: &pool, downgrade_unsupported: false }
            .migrate(transport, &mut rng)
            .expect("migration");
        times.migrate_s = t.elapsed().as_secs_f64();
        Deployment {
            db: Arc::new(fs.users().clone()),
            pki: Arc::new(ring.public_directory()),
            ring,
            pool,
            times,
        }
    }

    /// Mounts `uid` over `transport` with a client generator drawn from the
    /// workload seed, adding the mount time to the set-up record.
    pub fn mount(
        &mut self,
        uid: Uid,
        transport: Box<dyn Transport>,
        cache_capacity: Option<u64>,
        seed: u64,
    ) -> SharoesClient {
        let t = Instant::now();
        let mut client = SharoesClient::with_rng(
            transport,
            client_config(cache_capacity),
            Arc::clone(&self.db),
            Arc::clone(&self.pki),
            self.ring.identity(uid).expect("identity"),
            Arc::clone(&self.pool),
            HmacDrbg::from_seed_u64(seed ^ (u64::from(uid.0) << 32)),
        );
        client.mount().expect("mount");
        self.times.mount_ms += t.elapsed().as_secs_f64() * 1e3;
        client
    }
}

/// Builds a workload's deployment `n` times, dropping every build but the
/// last, and records each build's phase times in `m` (`setup_s` is their
/// median). Repeating the build is what makes `setup_s` a median rather
/// than one sample of a noisy host.
pub fn set_up<S>(
    n: usize,
    m: &mut Measured,
    mut build: impl FnMut(usize) -> S,
    times: impl Fn(&S) -> SetupTimes,
) -> S {
    let mut kept = None;
    for rep in 0..n.max(1) {
        drop(kept.take());
        let s = build(rep);
        m.setups.push(times(&s));
        kept = Some(s);
    }
    kept.expect("at least one set-up")
}

/// One file of a workload's model.
pub struct File {
    /// Absolute path.
    pub path: String,
    /// Expected plaintext.
    pub content: Vec<u8>,
    /// Expected permission bits.
    pub mode: u32,
}

/// A model file set kept stationary around its initial size, and the
/// mutating steps `meta` and `share-scan` share. Each step runs one client
/// op through an [`OpLog`] and updates the model only if the op succeeded.
pub struct FileSet {
    /// The files as the client should see them.
    pub files: Vec<File>,
    initial: usize,
    /// Plaintext bytes written in the timed phase.
    pub written: u64,
}

impl FileSet {
    /// A set whose size stays around `files.len()`.
    pub fn new(files: Vec<File>) -> FileSet {
        FileSet { initial: files.len(), files, written: 0 }
    }

    /// Create and unlink slots of a mix are churn: they create while the
    /// set is at or below its initial size and unlink above it.
    pub fn churn(&self, kind: OpKind) -> OpKind {
        match kind {
            OpKind::Create | OpKind::Unlink if self.files.len() <= self.initial => OpKind::Create,
            OpKind::Create | OpKind::Unlink => OpKind::Unlink,
            other => other,
        }
    }

    /// Creates `path` with `mode`, then writes `content` as its own op.
    pub fn create(
        &mut self,
        log: &mut OpLog,
        client: &mut SharoesClient,
        path: String,
        mode: u32,
        content: Vec<u8>,
    ) {
        if log.run(OpKind::Create, client, |c| {
            c.create(&path, Mode::from_octal(mode)).map(|_| ()).map_err(|e| e.to_string())
        }) {
            self.written += content.len() as u64;
            let ok = log.run(OpKind::Write, client, |c| {
                c.write_file(&path, &content).map_err(|e| e.to_string())
            });
            let content = if ok { content } else { Vec::new() };
            self.files.push(File { path, content, mode });
        }
    }

    /// Replaces file `pick`'s content with `content`.
    pub fn rewrite(
        &mut self,
        log: &mut OpLog,
        client: &mut SharoesClient,
        pick: usize,
        content: Vec<u8>,
    ) {
        self.written += content.len() as u64;
        let f = &mut self.files[pick];
        if log.run(OpKind::Write, client, |c| {
            c.write_file(&f.path, &content).map_err(|e| e.to_string())
        }) {
            f.content = content;
        }
    }

    /// Unlinks file `pick`.
    pub fn unlink(&mut self, log: &mut OpLog, client: &mut SharoesClient, pick: usize) {
        let f = self.files.swap_remove(pick);
        log.run(OpKind::Unlink, client, |c| c.unlink(&f.path).map_err(|e| e.to_string()));
    }

    /// Switches file `pick` between the two permission sets `modes`.
    pub fn chmod(
        &mut self,
        log: &mut OpLog,
        client: &mut SharoesClient,
        pick: usize,
        modes: (u32, u32),
    ) {
        let f = &mut self.files[pick];
        let mode = if f.mode == modes.0 { modes.1 } else { modes.0 };
        if log.run(OpKind::Chmod, client, |c| {
            c.chmod(&f.path, Mode::from_octal(mode)).map_err(|e| e.to_string())
        }) {
            f.mode = mode;
        }
    }
}

/// Where and on what a result was measured.
#[derive(Clone, Debug)]
pub struct Env {
    /// Git commit, when the checkout is a repository.
    pub commit: String,
    /// SHA-256 over the source files the benchmark builds, so results from
    /// checkouts without git history still name the code they measured.
    pub source_sha256: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// Available parallelism.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn source_digest(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for sub in ["crates", "ledger/src", "ledger/tests"] {
        walk(&root.join(sub), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "ledger/Cargo.toml"].map(|f| root.join(f)));
    files.sort();
    let mut h = Sha256::new();
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.update(f.strip_prefix(root).unwrap_or(f).to_string_lossy().as_bytes());
            h.update(&(bytes.len() as u64).to_be_bytes());
            h.update(&bytes);
        }
    }
    h.finalize_vec().iter().map(|b| format!("{b:02x}")).collect()
}

impl Env {
    /// Captures the environment of the checkout at `root`.
    pub fn capture(root: &std::path::Path) -> Env {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let root_s = root.to_string_lossy();
        Env {
            commit: root
                .join(".git")
                .exists()
                .then(|| command_line("git", &["-C", &root_s, "rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            source_sha256: source_digest(root),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cpu,
        }
    }
}

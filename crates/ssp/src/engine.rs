//! The log-structured persistent storage engine: the SSP's one durable
//! backend.
//!
//! The shared sharded core ([`crate::shards::ShardCore`]) maps each key to
//! its value's location; under it sit an append-only write-ahead log,
//! replayed on open to rebuild that map, and checkpoints in the `SHAROES2`
//! snapshot format as an O(log-tail) recovery shortcut. See DESIGN.md §11 for the on-disk formats
//! and the recovery state machine; `tests/crashpoints.rs` holds the
//! crash-point matrix that proves the atomicity story.
//!
//! Durability model (the crash-consistency invariants):
//!
//! 1. A mutation is acknowledged after its record is appended to the active
//!    WAL; it is *durable* once the WAL has been fsynced — every
//!    [`EngineConfig::group_commit`]'th append, or on [`LogEngine::flush`].
//! 2. Recovery truncates at most one torn record at the very tail of the
//!    *last* WAL file (the signature of a crashed append). A torn or
//!    bit-rotten record anywhere else is a typed
//!    [`sharoes_net::NetError::Corrupt`] — never a silent short replay.
//! 3. A checkpoint is written to a `.tmp`, fsynced, renamed into place, and
//!    the directory fsynced before any WAL file is deleted; record sequence
//!    numbers are globally contiguous, so recovery can always prove the
//!    (checkpoint, WAL-tail) pair it picked covers every durable record —
//!    or fail loudly.
//!
//! All I/O goes through [`crate::faultfs::Vfs`], so the crash tests drive
//! the engine over a seeded fault-injecting filesystem.

use crate::faultfs::{VFile, Vfs};
use crate::segment::{checkpoint_name, classify, wal_name, TMP_SUFFIX};
use crate::shards::{shard_of, sorted_entries, Shard, ShardCore, Stored, DEFAULT_SHARDS};
use crate::store::{parse_snapshot_index, snapshot_from_entries};
use crate::wal::{
    decode_record_at, decode_wal_header, encode_record, encode_wal_header, replay, WalError, WalOp,
    WalRecord, WAL_HEADER_LEN,
};
use sharoes_crypto::Sha256;
use sharoes_net::{NetError, ObjectKey};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLockWriteGuard};

/// Tuning knobs for [`LogEngine`].
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Fsync the WAL after this many appended records (1 = every record,
    /// the strongest durability; larger values batch the fsync cost).
    pub group_commit: usize,
    /// Seal the active WAL and start a new file once it exceeds this size.
    pub roll_bytes: u64,
    /// Auto-compaction trigger: superseded record bytes must reach this
    /// floor (and outweigh live bytes) before a compaction is worth it.
    pub compact_min_dead_bytes: u64,
    /// Whether mutations trigger threshold compaction automatically
    /// ([`LogEngine::compact`] always works regardless).
    pub auto_compact: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            group_commit: 1,
            roll_bytes: 4 * 1024 * 1024,
            compact_min_dead_bytes: 1024 * 1024,
            auto_compact: true,
        }
    }
}

/// Which file a live value resides in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileRef {
    /// The current checkpoint file.
    Checkpoint,
    /// WAL file with this id (active or sealed).
    Wal(u64),
}

/// What the engine's core stores per key: where the newest version of the
/// key's value lives.
#[derive(Clone, Copy, Debug)]
pub struct Loc {
    file: FileRef,
    /// Record offset (WAL) or value offset (checkpoint).
    offset: u64,
    /// Framed record length (WAL; 0 for checkpoint entries).
    rlen: u32,
    /// Value length.
    vlen: u32,
    /// Truncated SHA-256 of the value (checkpoint entries; the WAL record's
    /// own digest covers WAL entries).
    vdigest: [u8; 8],
}

impl Stored for Loc {
    fn stored_len(&self) -> u64 {
        self.vlen as u64
    }
}

impl Loc {
    /// Bytes this entry stops being able to reclaim once superseded.
    fn cost(&self) -> u64 {
        match self.file {
            FileRef::Wal(_) => self.rlen as u64,
            FileRef::Checkpoint => self.vlen as u64,
        }
    }
}

struct CheckpointFile {
    seq: u64,
    handle: Box<dyn VFile>,
}

/// All file-level state: the WAL chain, the checkpoint handle, and the
/// group-commit bookkeeping. One mutex serializes every append — callers
/// blocked on it form the group-commit queue, so `pending` batches their
/// fsyncs exactly as before the store was sharded.
struct FileState {
    /// Active WAL handle.
    wal: Box<dyn VFile>,
    wal_id: u64,
    wal_len: u64,
    /// Sealed WAL files still on disk; handles opened lazily.
    sealed: BTreeMap<u64, Option<Box<dyn VFile>>>,
    checkpoint: Option<CheckpointFile>,
    /// This process's generation stamp (max seen on disk + 1).
    gen: u64,
    /// Sequence number the next record gets.
    next_seq: u64,
    /// Appends since the last WAL fsync.
    pending: usize,
}

/// Crash-consistent log-structured store: the durable drop-in for
/// [`crate::store::ObjectStore`] behind `sharoes-sspd --wal`.
///
/// The engine is the shared [`ShardCore`] over key→[`Loc`] (reached through
/// `Deref`: index, scan and stats reads are the core's) plus the WAL,
/// checkpoint and compaction state layered on top.
///
/// Concurrency model (DESIGN.md §14): the key→location map is split into
/// [`DEFAULT_SHARDS`] shards keyed by [`shard_of`] — the same stable hash
/// the cluster ring proves out — so writers to different shards only
/// contend on the (short) WAL append section. Lock order is global and
/// acyclic: shard locks in ascending shard order, then `files`, then (after
/// `files` is released) the core's key index. Whole-map operations
/// (compaction, snapshot) take every shard lock in ascending order first.
pub struct LogEngine {
    /// Key→location shards plus the authenticated key index, rebuilt from
    /// the recovered key set on open. Compaction never touches the index:
    /// the key *set* is unchanged.
    core: ShardCore<Loc>,
    fs: Arc<dyn Vfs>,
    dir: PathBuf,
    config: EngineConfig,
    files: Mutex<FileState>,
    /// Bytes of superseded (garbage) records across WAL files + checkpoint.
    dead_bytes: AtomicU64,
}

impl Deref for LogEngine {
    type Target = ShardCore<Loc>;

    fn deref(&self) -> &ShardCore<Loc> {
        &self.core
    }
}

fn vdigest8(value: &[u8]) -> [u8; 8] {
    let mut d = [0u8; 8];
    d.copy_from_slice(&Sha256::digest(value)[..8]);
    d
}

fn corrupt(msg: String) -> NetError {
    NetError::Corrupt(msg)
}

/// A verified checkpoint picked during recovery: its covered-through seq,
/// file name, parsed (key, value offset, value length) index, and raw bytes.
type LoadedCheckpoint = (u64, String, Vec<(ObjectKey, u64, u32)>, Vec<u8>);

impl LogEngine {
    /// Opens (recovering if necessary) the engine over `dir`.
    ///
    /// Recovery state machine:
    /// 1. sweep leftover `.tmp` files;
    /// 2. load the newest checkpoint whose integrity trailer verifies
    ///    (falling back to an older generation on rot);
    /// 3. replay every WAL file in id order, skipping records the
    ///    checkpoint already covers, enforcing global sequence contiguity,
    ///    and tolerating a torn tail only on the last file (which is
    ///    truncated to its last valid record boundary);
    /// 4. fail with a typed [`NetError::Corrupt`] if the surviving
    ///    (checkpoint, WAL) pair provably misses records — stale data is
    ///    never served silently.
    pub fn open(fs: Arc<dyn Vfs>, dir: &Path, config: EngineConfig) -> Result<Self, NetError> {
        let t0 = std::time::Instant::now();
        let _span = sharoes_obs::span!("ssp.engine_recover");
        fs.create_dir_all(dir)?;
        let listing = classify(&fs.list(dir)?);
        for tmp in &listing.tmps {
            fs.remove(&dir.join(tmp)).ok();
        }

        // Newest verifiable checkpoint wins; rotten generations are skipped
        // (the sequence-contiguity check below decides whether the WAL can
        // still bridge the gap — if not, recovery fails loudly).
        let mut checkpoint: Option<LoadedCheckpoint> = None;
        let mut first_ck_err: Option<NetError> = None;
        for (seq, name) in listing.checkpoints.iter().rev() {
            let res = fs
                .read(&dir.join(name))
                .map_err(NetError::from)
                .and_then(|bytes| parse_snapshot_index(&bytes).map(|ix| (ix, bytes)));
            match res {
                Ok((ix, bytes)) => {
                    checkpoint = Some((*seq, name.clone(), ix, bytes));
                    break;
                }
                Err(e) => {
                    sharoes_obs::counter("ssp_checkpoint_rejects").inc();
                    sharoes_obs::obs_event!(sharoes_obs::Level::Warn, "ssp.checkpoint_reject");
                    first_ck_err.get_or_insert(e);
                }
            }
        }
        let had_checkpoint_files = !listing.checkpoints.is_empty();

        let mut index: BTreeMap<ObjectKey, Loc> = BTreeMap::new();
        let mut dead_bytes = 0u64;
        let base_seq = match &checkpoint {
            Some((seq, _, ix, bytes)) => {
                for (key, voff, vlen) in ix {
                    let value = &bytes[*voff as usize..(*voff + *vlen as u64) as usize];
                    index.insert(
                        *key,
                        Loc {
                            file: FileRef::Checkpoint,
                            offset: *voff,
                            rlen: 0,
                            vlen: *vlen,
                            vdigest: vdigest8(value),
                        },
                    );
                }
                *seq
            }
            None => 0,
        };

        // Replay the WAL chain.
        let mut sealed: BTreeMap<u64, Option<Box<dyn VFile>>> = BTreeMap::new();
        let mut first_seq: Option<u64> = None;
        let mut last_seq: Option<u64> = None;
        let mut max_gen = 0u64;
        let mut replayed = 0u64;
        let mut active: Option<(u64, String, usize, bool)> = None; // id, name, valid_len, reset
        for (i, (id, name)) in listing.wals.iter().enumerate() {
            let is_last = i + 1 == listing.wals.len();
            let bytes = fs.read(&dir.join(name))?;
            match decode_wal_header(&bytes) {
                Ok((hid, hgen)) => {
                    if hid != *id {
                        return Err(corrupt(format!(
                            "wal header id {hid} does not match file name {name}"
                        )));
                    }
                    max_gen = max_gen.max(hgen);
                }
                // A torn header can only be the crashed creation of the
                // newest file: it holds no records yet, reset it below.
                Err(WalError::TornTail { .. }) if is_last => {
                    active = Some((*id, name.clone(), 0, true));
                    continue;
                }
                Err(e) => return Err(e.into()),
            }
            // Strict replay for sealed files: they were fsynced before the
            // next file was created, so a torn record in one is corruption.
            let rp = replay(&bytes, WAL_HEADER_LEN, is_last)?;
            for (off, rlen, rec) in rp.records {
                max_gen = max_gen.max(rec.gen);
                first_seq.get_or_insert(rec.seq);
                if let Some(prev) = last_seq {
                    if rec.seq != prev + 1 {
                        return Err(corrupt(format!(
                            "wal sequence gap in {name}: {prev} then {}",
                            rec.seq
                        )));
                    }
                }
                last_seq = Some(rec.seq);
                if rec.seq <= base_seq {
                    continue; // already covered by the checkpoint
                }
                replayed += 1;
                match rec.op {
                    WalOp::Put { key, value } => {
                        let loc = Loc {
                            file: FileRef::Wal(*id),
                            offset: off,
                            rlen,
                            vlen: value.len() as u32,
                            vdigest: [0; 8],
                        };
                        if let Some(old) = index.insert(key, loc) {
                            dead_bytes += old.cost();
                        }
                    }
                    WalOp::Delete { key } => {
                        if let Some(old) = index.remove(&key) {
                            dead_bytes += old.cost();
                        }
                        dead_bytes += rlen as u64;
                    }
                }
            }
            if is_last {
                active = Some((*id, name.clone(), rp.valid_len, false));
            } else {
                sealed.insert(*id, None);
            }
        }

        // Coverage proof: the oldest surviving record must chain onto the
        // checkpoint (or be the very first record ever written).
        if let Some(first) = first_seq {
            if first > base_seq + 1 {
                return Err(corrupt(format!(
                    "wal starts at seq {first} but checkpoint covers only through {base_seq}"
                )));
            }
        } else if checkpoint.is_none() && had_checkpoint_files {
            // Every checkpoint is rotten and no WAL records survive to
            // rebuild from: refuse to come up empty over existing data.
            // Classified as corruption (Fatal), not a codec slip: retrying
            // would reread the same rotten bytes.
            let e = first_ck_err.expect("rejected checkpoints imply a recorded error");
            return Err(corrupt(format!("no readable checkpoint and an empty wal: {e}")));
        }
        // A checkpoint gets its name only after its contents are durable
        // (tmp fsync → rename → dir fsync), so the newest checkpoint *name*
        // is a floor on what recovery must cover. If that generation rotted
        // and the WAL (pruned by the same compaction) cannot bridge back to
        // an older one, fail loudly rather than serve a stale generation.
        let newest_named = listing.checkpoints.last().map(|(seq, _)| *seq).unwrap_or(0);
        let covered = last_seq.unwrap_or(0).max(base_seq);
        if covered < newest_named {
            return Err(corrupt(format!(
                "checkpoint through seq {newest_named} is unreadable and the \
                 surviving wal covers only through {covered}"
            )));
        }
        let gen = max_gen + 1;

        // Set up the active WAL: truncate a torn tail, rebuild a torn
        // header, or create the first file of a fresh directory.
        let (wal_id, wal, wal_len) = match active {
            Some((id, name, valid_len, reset)) => {
                let mut handle = fs.open(&dir.join(&name), false)?;
                if reset {
                    handle.truncate(0)?;
                    handle.append(&encode_wal_header(id, gen))?;
                    handle.sync()?;
                } else if (valid_len as u64) < handle.len() {
                    handle.truncate(valid_len as u64)?;
                    handle.sync()?;
                }
                let len = handle.len();
                (id, handle, len)
            }
            None => {
                let id = 1u64;
                let path = dir.join(wal_name(id));
                let mut handle = fs.open(&path, true)?;
                handle.append(&encode_wal_header(id, gen))?;
                handle.sync()?;
                fs.sync_dir(dir)?;
                let len = handle.len();
                (id, handle, len)
            }
        };

        let checkpoint = checkpoint.map(|(seq, name, _, _)| (seq, name));
        let ck_handle = match &checkpoint {
            Some((seq, name)) => {
                Some(CheckpointFile { seq: *seq, handle: fs.open(&dir.join(name), false)? })
            }
            None => None,
        };
        let next_seq = last_seq.unwrap_or(0).max(base_seq) + 1;

        sharoes_obs::counter("ssp_recovery_replayed_records").add(replayed);
        sharoes_obs::histogram_ms("ssp_recovery_ms").observe(t0.elapsed().as_millis() as u64);

        // The core rebuilds the key index from scratch over the recovered
        // key set (tests/crashpoints.rs asserts it equals the live tree at
        // every crash point).
        Ok(LogEngine {
            core: ShardCore::from_entries(DEFAULT_SHARDS, index),
            fs,
            dir: dir.to_path_buf(),
            config,
            files: Mutex::new(FileState {
                wal,
                wal_id,
                wal_len,
                sealed,
                checkpoint: ck_handle,
                gen,
                next_seq,
                pending: 0,
            }),
            dead_bytes: AtomicU64::new(dead_bytes),
        })
    }

    /// Locks the file state, attributing wait time to the enclosing span's
    /// `lock` phase when a trace span is live. Like the core's shard locks it
    /// recovers from poisoning: a writer panicking mid-operation leaves at
    /// worst a torn *logical* record, which is exactly the state recovery
    /// handles.
    fn files_lock(&self) -> MutexGuard<'_, FileState> {
        if sharoes_obs::in_span() {
            let start = std::time::Instant::now();
            let guard = self.files.lock().unwrap_or_else(|e| e.into_inner());
            sharoes_obs::phase_add(sharoes_obs::Phase::Lock, start.elapsed().as_nanos() as u64);
            return guard;
        }
        self.files.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn sync_wal(files: &mut FileState) -> Result<(), NetError> {
        files.wal.sync()?;
        files.pending = 0;
        sharoes_obs::counter("ssp_wal_fsyncs").inc();
        Ok(())
    }

    /// Appends one record (no fsync; see [`Self::group_sync`]).
    fn append_record(&self, files: &mut FileState, op: WalOp) -> Result<(u64, u32), NetError> {
        let rec = WalRecord { gen: files.gen, seq: files.next_seq, op };
        let bytes = encode_record(&rec);
        let offset = files.wal_len;
        files.wal.append(&bytes)?;
        files.next_seq += 1;
        files.wal_len += bytes.len() as u64;
        files.pending += 1;
        sharoes_obs::counter("ssp_wal_appends").inc();
        Ok((offset, bytes.len() as u32))
    }

    /// Fsyncs per the group-commit config. A failure here means the
    /// mutation is applied and logged but *not durable*: the caller sees
    /// the error (retry is idempotent), and a later successful fsync — or
    /// recovery replay of the surviving bytes — covers the record.
    fn group_sync(&self, files: &mut FileState) -> Result<(), NetError> {
        if files.pending >= self.config.group_commit.max(1) {
            Self::sync_wal(files)?;
        }
        Ok(())
    }

    /// Reads the live value for `key` at `loc`, verifying integrity.
    fn read_value(
        &self,
        files: &mut FileState,
        key: &ObjectKey,
        loc: Loc,
    ) -> Result<Vec<u8>, NetError> {
        match loc.file {
            FileRef::Checkpoint => {
                let ck = files
                    .checkpoint
                    .as_mut()
                    .ok_or_else(|| corrupt("index points at a missing checkpoint".into()))?;
                let value = ck.handle.read_at(loc.offset, loc.vlen as usize)?;
                if vdigest8(&value) != loc.vdigest {
                    return Err(corrupt(format!(
                        "checkpoint value for {key:?} failed its digest (bit rot)"
                    )));
                }
                Ok(value)
            }
            FileRef::Wal(id) => {
                let handle: &mut Box<dyn VFile> = if id == files.wal_id {
                    &mut files.wal
                } else {
                    let slot = files
                        .sealed
                        .get_mut(&id)
                        .ok_or_else(|| corrupt(format!("index points at missing wal file {id}")))?;
                    if slot.is_none() {
                        *slot = Some(self.fs.open(&self.dir.join(wal_name(id)), false)?);
                    }
                    slot.as_mut().expect("just opened")
                };
                let bytes = handle.read_at(loc.offset, loc.rlen as usize)?;
                let (rec, _) = decode_record_at(&bytes, 0)?;
                match rec.op {
                    WalOp::Put { key: rkey, value } if rkey == *key => Ok(value),
                    _ => Err(corrupt(format!(
                        "wal record at {}+{} does not hold a put for {key:?}",
                        id, loc.offset
                    ))),
                }
            }
        }
    }

    /// Seals the active WAL and starts a fresh file.
    fn roll_locked(&self, files: &mut FileState) -> Result<(), NetError> {
        Self::sync_wal(files)?; // the sealed file must be fully durable
        let new_id = files.wal_id + 1;
        let path = self.dir.join(wal_name(new_id));
        let mut handle = self.fs.open(&path, true)?;
        handle.append(&encode_wal_header(new_id, files.gen))?;
        handle.sync()?;
        self.fs.sync_dir(&self.dir)?;
        let old = std::mem::replace(&mut files.wal, handle);
        files.sealed.insert(files.wal_id, Some(old));
        files.wal_id = new_id;
        files.wal_len = WAL_HEADER_LEN as u64;
        Ok(())
    }

    /// Writes a checkpoint covering everything appended so far, then drops
    /// the superseded WAL files and all but one older checkpoint. Caller
    /// holds *every* shard write lock (ascending) plus the file lock.
    fn compact_locked(
        &self,
        shards: &mut [RwLockWriteGuard<'_, Shard<Loc>>],
        files: &mut FileState,
    ) -> Result<(), NetError> {
        let _span = sharoes_obs::span!("ssp.compact");
        Self::sync_wal(files)?; // checkpoint must cover acknowledged state
        let seq = files.next_seq - 1;
        let entries = self.read_entries(shards, files)?;
        let bytes = snapshot_from_entries(&entries);

        // tmp → fsync file → rename → fsync dir: only then is the
        // checkpoint allowed to supersede any WAL file.
        let final_name = checkpoint_name(seq);
        let tmp = self.dir.join(format!("{final_name}{TMP_SUFFIX}"));
        let mut f = self.fs.open(&tmp, true)?;
        f.append(&bytes)?;
        f.sync()?;
        drop(f);
        self.fs.rename(&tmp, &self.dir.join(&final_name))?;
        self.fs.sync_dir(&self.dir)?;

        // Repoint every entry into the checkpoint (value offset = entry
        // offset + key wire size + length prefix; see
        // `snapshot_from_entries`). Key set and value lengths are unchanged,
        // so the core's index and byte count stay as they are.
        let n = shards.len();
        let mut off = 16u64; // magic + count
        for (key, value) in &entries {
            let voff = off + 29 + 4;
            let slot = shards[shard_of(key, n)].get_mut(key).expect("entry came from these shards");
            *slot = Loc {
                file: FileRef::Checkpoint,
                offset: voff,
                rlen: 0,
                vlen: value.len() as u32,
                vdigest: vdigest8(value),
            };
            off = voff + value.len() as u64;
        }

        // Fresh WAL, durable before the old chain is deleted.
        let new_id = files.wal_id + 1;
        let mut wal = self.fs.open(&self.dir.join(wal_name(new_id)), true)?;
        wal.append(&encode_wal_header(new_id, files.gen))?;
        wal.sync()?;

        // Delete superseded WAL files and prune checkpoints down to the new
        // one plus a single fallback generation.
        for id in files.sealed.keys().copied().collect::<Vec<_>>() {
            self.fs.remove(&self.dir.join(wal_name(id))).ok();
        }
        self.fs.remove(&self.dir.join(wal_name(files.wal_id))).ok();
        let listing = classify(&self.fs.list(&self.dir)?);
        if listing.checkpoints.len() > 2 {
            for (_, name) in &listing.checkpoints[..listing.checkpoints.len() - 2] {
                self.fs.remove(&self.dir.join(name)).ok();
            }
        }
        self.fs.sync_dir(&self.dir)?;

        files.sealed.clear();
        files.checkpoint =
            Some(CheckpointFile { seq, handle: self.fs.open(&self.dir.join(&final_name), false)? });
        files.wal = wal;
        files.wal_id = new_id;
        files.wal_len = WAL_HEADER_LEN as u64;
        self.dead_bytes.store(0, Ordering::Relaxed);
        sharoes_obs::counter("ssp_compactions").inc();
        Ok(())
    }

    /// Whether the garbage thresholds say a compaction is worth it.
    fn compaction_due(&self) -> bool {
        let dead = self.dead_bytes.load(Ordering::Relaxed);
        dead >= self.config.compact_min_dead_bytes && dead >= self.byte_count()
    }

    /// Threshold-triggered compaction. Peeks the atomics lock-free; only if
    /// they say "due" does it take the whole-map locks, re-checking under
    /// them (another thread may have compacted while we waited).
    fn maybe_compact(&self) -> Result<(), NetError> {
        if !self.config.auto_compact || !self.compaction_due() {
            return Ok(());
        }
        let mut shards = self.write_all();
        if !self.compaction_due() {
            return Ok(());
        }
        let mut files = self.files_lock();
        self.compact_locked(&mut shards, &mut files)
    }

    /// Charges the garbage a superseded or deleted entry leaves behind.
    fn account_dead(&self, bytes: u64) {
        self.dead_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Stores (or replaces) an object.
    ///
    /// Lock walk: shard write → files (append + group fsync + roll) → drop
    /// files → map/index update → drop shard. The shard lock is held
    /// across the file section so a concurrent whole-map operation can
    /// never observe an appended-but-unindexed record. A failed group fsync
    /// still indexes the record (it is applied, just not yet durable) and
    /// then surfaces the error — same contract as the single-lock engine.
    pub fn put(&self, key: ObjectKey, value: Vec<u8>) -> Result<(), NetError> {
        let vlen = value.len() as u32;
        let mut shard = self.write(&key);
        let (loc, sync_res) = {
            let mut files = self.files_lock();
            let (offset, rlen) = self.append_record(&mut files, WalOp::Put { key, value })?;
            let loc = Loc { file: FileRef::Wal(files.wal_id), offset, rlen, vlen, vdigest: [0; 8] };
            let sync_res = self.group_sync(&mut files);
            if sync_res.is_ok() && files.wal_len >= self.config.roll_bytes {
                self.roll_locked(&mut files)?;
            }
            (loc, sync_res)
        };
        if let Some(old) = self.insert_locked(&mut shard, key, loc) {
            self.account_dead(old.cost());
        }
        drop(shard);
        sync_res?;
        self.maybe_compact()
    }

    /// Fetches an object, verifying stored-byte integrity on the way out.
    ///
    /// Holds the shard *read* lock across the file read: compaction takes
    /// every shard write lock first, so the `Loc` cannot go stale between
    /// the map lookup and the value read.
    pub fn get(&self, key: &ObjectKey) -> Result<Option<Vec<u8>>, NetError> {
        let shard = self.read(key);
        match shard.get(key).copied() {
            Some(loc) => {
                let mut files = self.files_lock();
                self.read_value(&mut files, key, loc).map(Some)
            }
            None => Ok(None),
        }
    }

    /// Appends and applies one delete record for a key known to exist.
    /// `roll` gates the WAL-roll check: single-key deletes roll inline,
    /// the `delete_blocks` sweep defers rolling to one end-of-sweep check
    /// (preserving the pre-shard record layout the crash matrix pins).
    fn delete_one(&self, key: &ObjectKey, roll: bool) -> Result<bool, NetError> {
        let mut shard = self.write(key);
        if !shard.contains_key(key) {
            return Ok(false);
        }
        let (rlen, sync_res) = {
            let mut files = self.files_lock();
            let (_, rlen) = self.append_record(&mut files, WalOp::Delete { key: *key })?;
            let sync_res = self.group_sync(&mut files);
            if roll && sync_res.is_ok() && files.wal_len >= self.config.roll_bytes {
                self.roll_locked(&mut files)?;
            }
            (rlen, sync_res)
        };
        let old = self.remove_locked(&mut shard, key).map_or(0, |old| old.cost());
        self.account_dead(old + rlen as u64);
        drop(shard);
        sync_res?;
        Ok(true)
    }

    /// Deletes an object; returns whether it existed. Deleting an absent
    /// key appends no record.
    pub fn delete(&self, key: &ObjectKey) -> Result<bool, NetError> {
        if !self.delete_one(key, true)? {
            return Ok(false);
        }
        self.maybe_compact()?;
        Ok(true)
    }

    /// Deletes every data block of `(inode, view)`; returns how many.
    ///
    /// Logged as one delete record per block (each atomic on its own): a
    /// crash mid-sweep recovers a prefix of the deletions, which the
    /// idempotent caller simply reissues. The core's doomed set comes in
    /// sorted key order — the WAL record order the crash matrix pins — with
    /// one roll check at the end of the sweep. Keys inserted concurrently
    /// with the sweep may be missed; the idempotent caller's reissue covers
    /// them.
    pub fn delete_blocks(&self, inode: u64, view: [u8; 16]) -> Result<usize, NetError> {
        let mut removed = 0usize;
        for key in &self.block_keys(inode, view) {
            if self.delete_one(key, false)? {
                removed += 1;
            }
        }
        {
            let mut files = self.files_lock();
            if files.wal_len >= self.config.roll_bytes {
                self.roll_locked(&mut files)?;
            }
        }
        self.maybe_compact()?;
        Ok(removed)
    }

    /// Fsyncs any pending (group-commit buffered) appends.
    pub fn flush(&self) -> Result<(), NetError> {
        let mut files = self.files_lock();
        if files.pending > 0 {
            Self::sync_wal(&mut files)?;
        }
        Ok(())
    }

    /// Manually checkpoints + compacts, regardless of thresholds.
    pub fn compact(&self) -> Result<(), NetError> {
        let mut shards = self.write_all();
        let mut files = self.files_lock();
        self.compact_locked(&mut shards, &mut files)
    }

    /// Serializes the full live state as a `SHAROES2` snapshot (sorted by
    /// key, so two engines holding the same logical state produce identical
    /// bytes — the fingerprint the recovery-equivalence tests compare).
    pub fn snapshot(&self) -> Result<Vec<u8>, NetError> {
        let shards = self.read_all();
        let mut files = self.files_lock();
        Ok(snapshot_from_entries(&self.read_entries(&shards, &mut files)?))
    }

    /// Every live `(key, value)` under `shards` (all of them, locked by the
    /// caller), in key order, with values read back and verified.
    fn read_entries<G: Deref<Target = Shard<Loc>>>(
        &self,
        shards: &[G],
        files: &mut FileState,
    ) -> Result<Vec<(ObjectKey, Vec<u8>)>, NetError> {
        sorted_entries(shards)
            .into_iter()
            .map(|(key, loc)| Ok((key, self.read_value(files, &key, loc)?)))
            .collect()
    }

    /// Engine shape for assertions: `(active wal id, active wal bytes,
    /// sealed wal count, checkpoint seq)`.
    pub fn debug_shape(&self) -> (u64, u64, usize, Option<u64>) {
        let files = self.files_lock();
        (files.wal_id, files.wal_len, files.sealed.len(), files.checkpoint.as_ref().map(|c| c.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::FaultFs;
    use sharoes_index::MerkleIndex;
    use sharoes_net::KeySpace;

    fn key(i: u64, b: u32) -> ObjectKey {
        ObjectKey::data(i, [i as u8; 16], b)
    }

    fn mem_engine(config: EngineConfig) -> (FaultFs, LogEngine) {
        let fs = FaultFs::new();
        let engine =
            LogEngine::open(Arc::new(fs.clone()), Path::new("/data"), config).expect("open");
        (fs, engine)
    }

    #[test]
    fn put_get_delete_roundtrip_and_reopen() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        assert_eq!(engine.get(&key(1, 0)).unwrap(), None);
        engine.put(key(1, 0), vec![1, 2, 3]).unwrap();
        engine.put(key(2, 0), vec![9; 40]).unwrap();
        engine.put(key(1, 0), vec![4, 5]).unwrap(); // replace
        assert!(engine.delete(&key(2, 0)).unwrap());
        assert!(!engine.delete(&key(2, 0)).unwrap());
        assert_eq!(engine.get(&key(1, 0)).unwrap(), Some(vec![4, 5]));
        assert_eq!(engine.object_count(), 1);
        assert_eq!(engine.byte_count(), 2);
        drop(engine);

        let reopened =
            LogEngine::open(Arc::new(fs), Path::new("/data"), EngineConfig::default()).unwrap();
        assert_eq!(reopened.get(&key(1, 0)).unwrap(), Some(vec![4, 5]));
        assert_eq!(reopened.get(&key(2, 0)).unwrap(), None);
        assert_eq!(reopened.object_count(), 1);
        assert_eq!(reopened.byte_count(), 2);
    }

    #[test]
    fn rolling_seals_files_and_reads_span_them() {
        let config =
            EngineConfig { roll_bytes: 256, auto_compact: false, ..EngineConfig::default() };
        let (fs, engine) = mem_engine(config);
        for i in 0..40u64 {
            engine.put(key(i, 0), vec![i as u8; 24]).unwrap();
        }
        let (wal_id, _, sealed, _) = engine.debug_shape();
        assert!(wal_id > 1 && sealed > 0, "workload must roll: id={wal_id} sealed={sealed}");
        for i in 0..40u64 {
            assert_eq!(engine.get(&key(i, 0)).unwrap(), Some(vec![i as u8; 24]), "key {i}");
        }
        drop(engine);
        let reopened = LogEngine::open(Arc::new(fs), Path::new("/data"), config).unwrap();
        for i in 0..40u64 {
            assert_eq!(reopened.get(&key(i, 0)).unwrap(), Some(vec![i as u8; 24]));
        }
    }

    #[test]
    fn compaction_drops_wal_files_and_preserves_state() {
        let config = EngineConfig { roll_bytes: 256, auto_compact: false, ..Default::default() };
        let (fs, engine) = mem_engine(config);
        for round in 0..3 {
            for i in 0..20u64 {
                engine.put(key(i, 0), vec![round as u8; 16]).unwrap();
            }
        }
        engine.delete(&key(19, 0)).unwrap();
        let fingerprint = engine.snapshot().unwrap();
        engine.compact().unwrap();
        let (_, _, sealed, ck) = engine.debug_shape();
        assert_eq!(sealed, 0, "compaction must drop sealed files");
        assert!(ck.is_some());
        assert_eq!(engine.snapshot().unwrap(), fingerprint, "compaction must not change state");
        // Values now come from the checkpoint.
        assert_eq!(engine.get(&key(3, 0)).unwrap(), Some(vec![2u8; 16]));
        // And a reopen replays checkpoint + empty tail to the same state.
        drop(engine);
        let fs2 = Arc::new(fs);
        let reopened = LogEngine::open(fs2, Path::new("/data"), config).unwrap();
        assert_eq!(reopened.snapshot().unwrap(), fingerprint);
        assert_eq!(reopened.get(&key(19, 0)).unwrap(), None);
    }

    #[test]
    fn auto_compaction_triggers_on_dead_bytes() {
        let config = EngineConfig {
            group_commit: 4,
            roll_bytes: 1 << 20,
            compact_min_dead_bytes: 2_000,
            auto_compact: true,
        };
        let (_fs, engine) = mem_engine(config);
        // Overwrite the same key until garbage crosses the threshold.
        for i in 0..200u32 {
            engine.put(key(7, 0), vec![i as u8; 64]).unwrap();
        }
        let (_, _, _, ck) = engine.debug_shape();
        assert!(ck.is_some(), "threshold compaction should have fired");
        assert_eq!(engine.get(&key(7, 0)).unwrap(), Some(vec![199; 64]));
        assert_eq!(engine.object_count(), 1);
    }

    #[test]
    fn group_commit_batches_fsyncs() {
        // Counted on this engine's own filesystem: the process-global
        // `ssp_wal_fsyncs` counter also moves with concurrently running tests.
        let config = EngineConfig { group_commit: 8, auto_compact: false, ..Default::default() };
        let (fs, engine) = mem_engine(config);
        let before = fs.file_syncs();
        for i in 0..16u64 {
            engine.put(key(i, 0), vec![0; 8]).unwrap();
        }
        let after = fs.file_syncs();
        assert_eq!(after - before, 2, "16 appends at group 8 = 2 fsyncs");
        engine.put(key(99, 0), vec![1]).unwrap();
        engine.flush().unwrap();
        assert_eq!(fs.file_syncs() - after, 1);
        engine.flush().unwrap(); // nothing pending: no extra fsync
        assert_eq!(fs.file_syncs() - after, 1);
    }

    #[test]
    fn delete_blocks_logs_per_key_and_survives_reopen() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        for b in 0..5u32 {
            engine.put(key(9, b), vec![b as u8; 10]).unwrap();
        }
        engine.put(ObjectKey::data(9, [8; 16], 0), vec![1]).unwrap();
        engine.put(ObjectKey::metadata(9, [9; 16]), vec![2]).unwrap();
        assert_eq!(engine.delete_blocks(9, [9; 16]).unwrap(), 5);
        assert_eq!(engine.delete_blocks(9, [9; 16]).unwrap(), 0);
        assert_eq!(engine.object_count(), 2);
        drop(engine);
        let reopened =
            LogEngine::open(Arc::new(fs), Path::new("/data"), EngineConfig::default()).unwrap();
        assert_eq!(reopened.object_count(), 2);
        assert!(reopened.get(&ObjectKey::metadata(9, [9; 16])).unwrap().is_some());
    }

    #[test]
    fn scan_and_space_accounting_match_store_semantics() {
        let (_fs, engine) = mem_engine(EngineConfig::default());
        let mut expect = Vec::new();
        for i in (0..7u64).rev() {
            for b in [2u32, 0, 1] {
                engine.put(key(i, b), vec![1]).unwrap();
                expect.push(key(i, b));
            }
            engine.put(ObjectKey::metadata(i, [i as u8; 16]), vec![2, 2]).unwrap();
            expect.push(ObjectKey::metadata(i, [i as u8; 16]));
        }
        expect.sort_unstable();
        let (all, done) = engine.scan_keys(None, 1000);
        assert!(done);
        assert_eq!(all, expect);
        let (page, done) = engine.scan_keys(None, expect.len() - 1);
        assert_eq!(page.len(), expect.len() - 1);
        assert!(!done);
        let (page, done) = engine.scan_keys(expect.last(), 5);
        assert!(page.is_empty() && done);
        let by = engine.bytes_by_space();
        assert_eq!(by[&KeySpace::Metadata], 14);
        assert_eq!(by[&KeySpace::Data], 21);
    }

    #[test]
    fn index_root_tracks_mutations_compaction_and_reopen() {
        let config = EngineConfig { roll_bytes: 256, auto_compact: false, ..Default::default() };
        let (fs, engine) = mem_engine(config);
        for i in 0..30u64 {
            engine.put(key(i, (i % 3) as u32), vec![i as u8; 12]).unwrap();
        }
        engine.delete(&key(4, 1)).unwrap();
        engine.delete_blocks(9, [9; 16]).unwrap();
        let (keys, done) = engine.scan_keys(None, 10_000);
        assert!(done);
        let mut rebuilt = MerkleIndex::from_keys(keys.iter().copied());
        let expect = (rebuilt.root(), keys.len() as u64);
        assert_eq!(engine.index_root(), expect);
        // Compaction changes the physical layout, never the key set.
        engine.compact().unwrap();
        assert_eq!(engine.index_root(), expect);
        // Reopen rebuilds the same root from checkpoint + WAL replay.
        drop(engine);
        let reopened = LogEngine::open(Arc::new(fs), Path::new("/data"), config).unwrap();
        assert_eq!(reopened.index_root(), expect);
        // Proofs from the engine verify against its root.
        let p = reopened.scan_proof(None, 7);
        sharoes_index::verify_scan_page(&expect.0, None, 7, &p.keys, p.done, &p.proof)
            .expect("honest engine proof must verify");
        let bytes = reopened.index_node_bytes(&expect.0).expect("root node served");
        assert_eq!(Sha256::digest(&bytes), expect.0);
    }

    #[test]
    fn fsync_failure_surfaces_and_engine_stays_usable() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        engine.put(key(1, 0), vec![1]).unwrap();
        fs.fail_next_syncs(1);
        let err = engine.put(key(2, 0), vec![2]).unwrap_err();
        assert!(matches!(err, NetError::Io(_)), "injected fsync error must surface: {err}");
        // The record is appended but unsynced; the next successful op's
        // group fsync makes both durable.
        engine.put(key(3, 0), vec![3]).unwrap();
        assert_eq!(engine.get(&key(2, 0)).unwrap(), Some(vec![2]));
        assert_eq!(engine.get(&key(3, 0)).unwrap(), Some(vec![3]));
        assert_eq!(fs.sync_failures(), 1);
    }

    #[test]
    fn poisoned_shard_locks_recover() {
        let (_fs, engine) = mem_engine(EngineConfig::default());
        let engine = Arc::new(engine);
        engine.put(key(1, 0), vec![1, 2, 3]).unwrap();
        // Panic while holding every shard write lock: all shards poison.
        let poisoner = Arc::clone(&engine);
        let _ = std::thread::spawn(move || {
            let _guards = poisoner.write_all();
            panic!("poison the shard locks");
        })
        .join();
        assert!(engine.shards.iter().all(|s| s.is_poisoned()));
        // Every operation recovers the guards and keeps working.
        assert_eq!(engine.get(&key(1, 0)).unwrap(), Some(vec![1, 2, 3]));
        engine.put(key(2, 0), vec![4]).unwrap();
        assert!(engine.delete(&key(2, 0)).unwrap());
        assert_eq!(engine.object_count(), 1);
        assert_eq!(engine.scan_keys(None, 10).0, vec![key(1, 0)]);
        engine.compact().unwrap();
        assert!(!engine.snapshot().unwrap().is_empty());
    }

    #[test]
    fn concurrent_writers_converge_to_sequential_state() {
        let config = EngineConfig { group_commit: 4, auto_compact: false, ..Default::default() };
        let (_fs, engine) = mem_engine(config);
        let engine = Arc::new(engine);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        let k = key(t * 1000 + i, 0);
                        engine.put(k, vec![t as u8; 16]).unwrap();
                        if i % 5 == 0 {
                            assert_eq!(engine.get(&k).unwrap(), Some(vec![t as u8; 16]));
                        }
                        if i % 7 == 0 {
                            engine.delete(&k).unwrap();
                        }
                    }
                });
            }
        });
        engine.flush().unwrap();
        let expect: u64 = 8 * (50 - 8); // 8 of 50 per thread hit i % 7 == 0
        assert_eq!(engine.object_count(), expect);
        let (keys, done) = engine.scan_keys(None, 10_000);
        assert!(done);
        assert_eq!(keys.len() as u64, expect);
        // The authenticated index agrees with a from-scratch rebuild.
        let mut rebuilt = MerkleIndex::from_keys(keys.iter().copied());
        assert_eq!(engine.index_root(), (rebuilt.root(), expect));
    }

    #[test]
    fn fresh_dir_has_header_only_wal() {
        let (fs, engine) = mem_engine(EngineConfig::default());
        let (id, len, sealed, ck) = engine.debug_shape();
        assert_eq!((id, len, sealed, ck), (1, WAL_HEADER_LEN as u64, 0, None));
        assert_eq!(fs.read(Path::new("/data/wal-000001.log")).unwrap().len(), WAL_HEADER_LEN);
    }
}

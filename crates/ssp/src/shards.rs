//! The sharded key→value core both SSP backends are built on.
//!
//! Per the paper (§IV) the SSP "simply maintains a large hashtable for
//! encrypted metadata objects and encrypted data blocks". [`ShardCore`] is
//! that hashtable, generic over what it stores per key: the value bytes
//! themselves for the in-memory [`crate::store::ObjectStore`], or a
//! file location for the [`crate::engine::LogEngine`]. Everything the two
//! backends share lives here, once: shard selection and poison-recovering
//! locks, upkeep of the authenticated key index, live value-byte
//! accounting, the data-block key set `delete_blocks` sweeps, sorted
//! entries for the `SHAROES2` fingerprint, and the index, scan and stats
//! reads the server serves.

use sharoes_crypto::Sha256;
use sharoes_index::{MerkleIndex, VerifiedPage};
use sharoes_net::{KeySpace, ObjectKey, WireWrite};
use std::collections::{BTreeMap, HashMap};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Default number of lock shards.
pub const DEFAULT_SHARDS: usize = 16;

/// Domain-separation prefix for the shard hash (cf. the cluster ring's
/// `sharoes-ring-vnode` / `sharoes-ring-key` domains).
const SHARD_DOMAIN: &[u8] = b"sharoes-shard-key";

/// Which of `n` lock shards owns `key`.
///
/// The same construction the cluster ring proves out for key placement:
/// SHA-256 over a domain tag plus the key's wire encoding. Stable across
/// Rust versions and processes (unlike `DefaultHasher`), so a shard
/// assignment observed in one run — or one backend — holds everywhere.
pub fn shard_of(key: &ObjectKey, n: usize) -> usize {
    let mut buf = Vec::with_capacity(SHARD_DOMAIN.len() + 29);
    buf.extend_from_slice(SHARD_DOMAIN);
    key.write(&mut buf);
    let digest = Sha256::digest(&buf);
    let mut h = [0u8; 8];
    h.copy_from_slice(&digest[..8]);
    (u64::from_be_bytes(h) % n as u64) as usize
}

/// What the core stores per key: anything that knows how many live value
/// bytes it stands for.
pub trait Stored {
    /// Length of the value this entry stands for.
    fn stored_len(&self) -> u64;
}

impl Stored for Vec<u8> {
    fn stored_len(&self) -> u64 {
        self.len() as u64
    }
}

/// One lock shard of the key→value map.
pub type Shard<V> = HashMap<ObjectKey, V>;

/// The value-independent half of the core: the authenticated ordered index
/// over the live keys and the live value-byte count. The server reads
/// index, scan and stats through this, whichever backend it runs on.
pub struct KeyIndex {
    /// Lock order: a shard lock (if any) is taken first, the index lock
    /// strictly inside it — mutators update the index while still holding
    /// the shard guard, so the index never observes a key set no shard
    /// ever held. An `RwLock` so paged scans never serialize against each
    /// other or against readers of other shards.
    index: RwLock<MerkleIndex>,
    bytes: AtomicU64,
}

impl KeyIndex {
    fn read(&self) -> RwLockReadGuard<'_, MerkleIndex> {
        self.index.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, MerkleIndex> {
        self.index.write().unwrap_or_else(|e| e.into_inner())
    }

    /// One page of the key index in `ObjectKey` order, strictly after the
    /// `after` cursor. Returns the page and whether the scan is complete.
    ///
    /// This is the cluster rebalancer's view of a node: keys only, never
    /// content. Pages are not atomic with each other — keys written or
    /// deleted between pages may be missed or duplicated, which
    /// rebalancing tolerates (re-placing a key is idempotent). Served from
    /// the authenticated index in `O(log n + page)`.
    pub fn scan_keys(&self, after: Option<&ObjectKey>, limit: usize) -> (Vec<ObjectKey>, bool) {
        self.read().scan_page(after, limit)
    }

    /// Root hash of the authenticated key index plus the live key count.
    pub fn index_root(&self) -> ([u8; 32], u64) {
        let mut index = self.write();
        let root = index.root();
        (root, index.len())
    }

    /// Canonical encoding of the index node content-addressed by `hash`,
    /// if it is currently in the index (serves the `IndexNode` wire op).
    pub fn index_node_bytes(&self, hash: &[u8; 32]) -> Option<Vec<u8>> {
        self.write().node_bytes(hash)
    }

    /// One scan page plus a Merkle range proof tying it to the current
    /// root (serves the `ScanVerified` wire op).
    pub fn scan_proof(&self, after: Option<&ObjectKey>, limit: u32) -> VerifiedPage {
        self.write().prove_scan(after, limit)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> u64 {
        self.read().len()
    }

    /// Total live value bytes.
    pub fn byte_count(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// Sharded, thread-safe key→`V` map with its authenticated key index.
///
/// All locks recover from poisoning: a thread panicking mid-request leaves
/// at worst a half-applied mutation of one key, and the request path keeps
/// serving instead of wedging the server.
pub struct ShardCore<V> {
    pub(crate) shards: Vec<RwLock<Shard<V>>>,
    keys: KeyIndex,
}

impl<V> Deref for ShardCore<V> {
    type Target = KeyIndex;

    fn deref(&self) -> &KeyIndex {
        &self.keys
    }
}

impl<V: Stored> Default for ShardCore<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Stored> ShardCore<V> {
    /// An empty core with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// An empty core with an explicit shard count (at least 1).
    ///
    /// `with_shards(1)` is the single-global-lock configuration the
    /// contention gate uses as its correctness baseline: every workload
    /// must produce byte-identical snapshots against 1 shard and N shards.
    pub fn with_shards(n: usize) -> Self {
        Self::from_entries(n, std::iter::empty())
    }

    /// A core over `n` shards holding `entries`, with the index built from
    /// scratch. History independence makes that tree equal to the one any
    /// sequence of live mutations would have left.
    pub(crate) fn from_entries(
        n: usize,
        entries: impl IntoIterator<Item = (ObjectKey, V)>,
    ) -> Self {
        let n = n.max(1);
        let mut maps: Vec<Shard<V>> = (0..n).map(|_| HashMap::new()).collect();
        let mut bytes = 0;
        for (key, value) in entries {
            bytes += value.stored_len();
            maps[shard_of(&key, n)].insert(key, value);
        }
        let index = MerkleIndex::from_keys(maps.iter().flat_map(|m| m.keys().copied()));
        ShardCore {
            shards: maps.into_iter().map(RwLock::new).collect(),
            keys: KeyIndex { index: RwLock::new(index), bytes: AtomicU64::new(bytes) },
        }
    }

    fn shard(&self, key: &ObjectKey) -> &RwLock<Shard<V>> {
        &self.shards[shard_of(key, self.shards.len())]
    }

    /// Read-locks the shard owning `key`.
    pub(crate) fn read(&self, key: &ObjectKey) -> RwLockReadGuard<'_, Shard<V>> {
        self.shard(key).read().unwrap_or_else(|e| e.into_inner())
    }

    /// Write-locks the shard owning `key`, attributing the wait to the
    /// enclosing span's `lock` phase when a trace span is live.
    pub(crate) fn write(&self, key: &ObjectKey) -> RwLockWriteGuard<'_, Shard<V>> {
        if sharoes_obs::in_span() {
            let start = std::time::Instant::now();
            let guard = self.shard(key).write().unwrap_or_else(|e| e.into_inner());
            sharoes_obs::phase_add(sharoes_obs::Phase::Lock, start.elapsed().as_nanos() as u64);
            return guard;
        }
        self.shard(key).write().unwrap_or_else(|e| e.into_inner())
    }

    /// Each shard in ascending order, read-locked only while the caller
    /// holds that one guard.
    fn read_each(&self) -> impl Iterator<Item = RwLockReadGuard<'_, Shard<V>>> {
        self.shards.iter().map(|s| s.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Every shard, read-locked together in ascending shard order.
    pub(crate) fn read_all(&self) -> Vec<RwLockReadGuard<'_, Shard<V>>> {
        self.read_each().collect()
    }

    /// Every shard, write-locked in ascending shard order (the global lock
    /// order that makes whole-map operations deadlock-free).
    pub(crate) fn write_all(&self) -> Vec<RwLockWriteGuard<'_, Shard<V>>> {
        self.shards.iter().map(|s| s.write().unwrap_or_else(|e| e.into_inner())).collect()
    }

    /// Inserts into `shard` — the caller's guard on `key`'s shard — keeping
    /// byte accounting and the index in step. Returns the replaced value.
    pub(crate) fn insert_locked(
        &self,
        shard: &mut Shard<V>,
        key: ObjectKey,
        value: V,
    ) -> Option<V> {
        self.keys.bytes.fetch_add(value.stored_len(), Ordering::Relaxed);
        let old = shard.insert(key, value);
        match &old {
            // Replacement: the key set — and thus the index — is unchanged.
            Some(old) => {
                self.keys.bytes.fetch_sub(old.stored_len(), Ordering::Relaxed);
            }
            None => {
                self.keys.write().insert(key);
            }
        }
        old
    }

    /// Removes `key` from `shard` — the caller's guard on its shard —
    /// keeping byte accounting and the index in step.
    pub(crate) fn remove_locked(&self, shard: &mut Shard<V>, key: &ObjectKey) -> Option<V> {
        let old = shard.remove(key)?;
        self.keys.bytes.fetch_sub(old.stored_len(), Ordering::Relaxed);
        self.keys.write().remove(key);
        Some(old)
    }

    /// Every data-block key of `(inode, view)`, in sorted key order: the
    /// set a `delete_blocks` sweep removes, in the order it removes them.
    pub fn block_keys(&self, inode: u64, view: [u8; 16]) -> Vec<ObjectKey> {
        let mut keys: Vec<ObjectKey> = Vec::new();
        for shard in self.read_each() {
            keys.extend(
                shard
                    .keys()
                    .filter(|k| k.space == KeySpace::Data && k.inode == inode && k.view == view)
                    .copied(),
            );
        }
        keys.sort_unstable();
        keys
    }

    /// Bytes stored per keyspace (storage-overhead accounting, bench E6).
    ///
    /// A `BTreeMap` so iteration order is deterministic: stats output feeds
    /// the determinism tests.
    pub fn bytes_by_space(&self) -> BTreeMap<KeySpace, u64> {
        let mut out = BTreeMap::new();
        for shard in self.read_each() {
            for (key, value) in shard.iter() {
                *out.entry(key.space).or_insert(0) += value.stored_len();
            }
        }
        out
    }

    /// The flat scan: collect every live key, sort, slice the page. Kept
    /// as a correctness oracle for the indexed [`KeyIndex::scan_keys`]
    /// (tests + bench ablation); not used on any serving path.
    pub fn scan_keys_flat(
        &self,
        after: Option<&ObjectKey>,
        limit: usize,
    ) -> (Vec<ObjectKey>, bool) {
        let mut keys: Vec<ObjectKey> = Vec::new();
        for shard in self.read_each() {
            keys.extend(shard.keys().filter(|k| after.is_none_or(|a| *k > a)).copied());
        }
        keys.sort_unstable();
        let done = keys.len() <= limit;
        keys.truncate(limit);
        (keys, done)
    }
}

/// Every entry under `guards` (all shards, locked by the caller), sorted by
/// key: equal logical state yields an identical `SHAROES2` fingerprint
/// whatever the shard count or insertion history.
pub(crate) fn sorted_entries<V, G>(guards: &[G]) -> Vec<(ObjectKey, V)>
where
    V: Clone,
    G: Deref<Target = Shard<V>>,
{
    let mut entries: Vec<(ObjectKey, V)> = Vec::new();
    for shard in guards {
        entries.extend(shard.iter().map(|(k, v)| (*k, v.clone())));
    }
    entries.sort_unstable_by_key(|e| e.0);
    entries
}

#[cfg(test)]
mod tests {
    use crate::store::ObjectStore;
    use sharoes_net::ObjectKey;

    #[test]
    fn block_keys_are_sorted_and_view_scoped() {
        let k = |inode, block| ObjectKey::data(inode, [7; 16], block);
        let s = ObjectStore::new();
        for b in [3u32, 0, 2, 1] {
            s.put(k(9, b), vec![1]);
        }
        s.put(ObjectKey::data(9, [8; 16], 0), vec![1]); // other view
        s.put(ObjectKey::data(8, [7; 16], 0), vec![1]); // other inode
        s.put(ObjectKey::metadata(9, [7; 16]), vec![1]); // other space
        assert_eq!(s.block_keys(9, [7; 16]), (0..4).map(|b| k(9, b)).collect::<Vec<_>>());
        assert!(s.block_keys(1, [7; 16]).is_empty());
    }
}

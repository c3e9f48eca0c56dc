//! The SSP's in-memory object store, plus the `SHAROES2` snapshot format.
//!
//! Per the paper (§IV): "There is no computation involved on the data at the
//! SSP and it simply maintains a large hashtable for encrypted metadata
//! objects and encrypted data blocks." [`ObjectStore`] is exactly the shared
//! [`ShardCore`] holding the encrypted blobs themselves; it never inspects
//! values, and keys are the composite [`ObjectKey`] index.

use crate::shards::{sorted_entries, ShardCore};
use sharoes_crypto::Sha256;
use sharoes_net::{Cursor, NetError, ObjectKey, WireRead, WireWrite};

/// Magic + version prefix of the (checksummed) snapshot format.
const SNAPSHOT_MAGIC: &[u8; 8] = b"SHAROES2";

/// Trailer: the body length (u64 BE) followed by SHA-256 of the body.
const TRAILER_LEN: usize = 8 + 32;

/// Sharded, thread-safe, in-memory blob store: the core holding the value
/// bytes directly. Infallible; durability is the log engine's job.
pub type ObjectStore = ShardCore<Vec<u8>>;

impl ObjectStore {
    /// Stores (or replaces) an object.
    pub fn put(&self, key: ObjectKey, value: Vec<u8>) {
        let mut shard = self.write(&key);
        self.insert_locked(&mut shard, key, value);
    }

    /// Fetches an object.
    pub fn get(&self, key: &ObjectKey) -> Option<Vec<u8>> {
        self.read(key).get(key).cloned()
    }

    /// Deletes an object; returns whether it existed.
    pub fn delete(&self, key: &ObjectKey) -> bool {
        let mut shard = self.write(key);
        self.remove_locked(&mut shard, key).is_some()
    }

    /// Deletes every data block of `(inode, view)`; returns how many.
    pub fn delete_blocks(&self, inode: u64, view: [u8; 16]) -> usize {
        self.block_keys(inode, view).iter().filter(|key| self.delete(key)).count()
    }

    /// Serializes the whole store as a `SHAROES2` snapshot, sorted by key so
    /// equal logical state yields identical bytes: the state fingerprint the
    /// concurrency and recovery-equivalence tests compare against the log
    /// engine's.
    pub fn snapshot(&self) -> Vec<u8> {
        snapshot_from_entries(&sorted_entries(&self.read_all()))
    }
}

/// Serializes `entries` (in the given order) into the `SHAROES2` snapshot
/// format: body (magic, count, entries) + 40-byte integrity trailer holding
/// the body length and the body's SHA-256.
///
/// The log engine writes its checkpoints in this format, and
/// [`ObjectStore::snapshot`] uses it as a state fingerprint. A torn write
/// truncates the trailer or leaves a length mismatch; a bit flip breaks the
/// hash — either way [`parse_snapshot_index`] rejects the bytes. Entry
/// `i`'s value starts at `entry_offset + 29 + 4` (key wire size + length
/// prefix).
pub fn snapshot_from_entries(entries: &[(ObjectKey, Vec<u8>)]) -> Vec<u8> {
    let total: usize = entries.iter().map(|(_, v)| v.len()).sum();
    let mut out = Vec::with_capacity(64 + total);
    out.extend_from_slice(SNAPSHOT_MAGIC);
    (entries.len() as u64).write(&mut out);
    for (key, value) in entries {
        key.write(&mut out);
        value.write(&mut out);
    }
    let body_len = out.len() as u64;
    out.extend_from_slice(&body_len.to_be_bytes());
    let digest = Sha256::digest(&out[..body_len as usize]);
    out.extend_from_slice(&digest);
    out
}

/// Verifies a `SHAROES2` snapshot's trailer and returns the body (magic
/// included, trailer stripped).
fn verified_snapshot_body(bytes: &[u8]) -> Result<&[u8], NetError> {
    if !bytes.starts_with(SNAPSHOT_MAGIC) {
        return Err(NetError::Codec("bad snapshot magic"));
    }
    if bytes.len() < 8 + TRAILER_LEN {
        return Err(NetError::Codec("snapshot truncated (no trailer)"));
    }
    let body_end = bytes.len() - TRAILER_LEN;
    let mut len_buf = [0u8; 8];
    len_buf.copy_from_slice(&bytes[body_end..body_end + 8]);
    if u64::from_be_bytes(len_buf) != body_end as u64 {
        return Err(NetError::Codec("snapshot length mismatch (torn write)"));
    }
    if Sha256::digest(&bytes[..body_end]) != bytes[body_end + 8..] {
        return Err(NetError::Codec("snapshot checksum mismatch"));
    }
    Ok(&bytes[..body_end])
}

/// Verifies a `SHAROES2` snapshot and returns `(key, value offset, value
/// len)` for every entry, in file order.
///
/// The log engine uses this to point its in-memory index *into* a
/// checkpoint file so values can be served by ranged reads without loading
/// the whole checkpoint. Offsets are relative to the start of the file.
pub fn parse_snapshot_index(bytes: &[u8]) -> Result<Vec<(ObjectKey, u64, u32)>, NetError> {
    const KEY_WIRE_LEN: usize = 1 + 8 + 16 + 4;
    let body = verified_snapshot_body(bytes)?;
    let mut cur = Cursor::new(&body[8..]);
    let count = u64::read(&mut cur)?;
    let mut out = Vec::new();
    let mut off = 8usize + 8; // magic + count
    for _ in 0..count {
        let key = ObjectKey::read(&mut cur)?;
        let value = Vec::<u8>::read(&mut cur)?;
        let voff = off + KEY_WIRE_LEN + 4;
        out.push((key, voff as u64, value.len() as u32));
        off = voff + value.len();
    }
    cur.expect_end()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_index::MerkleIndex;
    use sharoes_net::KeySpace;

    fn k(inode: u64, block: u32) -> ObjectKey {
        ObjectKey::data(inode, [7; 16], block)
    }

    #[test]
    fn put_get_delete() {
        let s = ObjectStore::new();
        assert!(s.get(&k(1, 0)).is_none());
        s.put(k(1, 0), vec![1, 2, 3]);
        assert_eq!(s.get(&k(1, 0)).unwrap(), vec![1, 2, 3]);
        assert!(s.delete(&k(1, 0)));
        assert!(!s.delete(&k(1, 0)));
        assert!(s.get(&k(1, 0)).is_none());
    }

    #[test]
    fn byte_accounting_on_replace() {
        let s = ObjectStore::new();
        s.put(k(1, 0), vec![0; 100]);
        assert_eq!(s.byte_count(), 100);
        s.put(k(1, 0), vec![0; 40]);
        assert_eq!(s.byte_count(), 40);
        s.delete(&k(1, 0));
        assert_eq!(s.byte_count(), 0);
    }

    #[test]
    fn delete_blocks_removes_only_matching_view() {
        let s = ObjectStore::new();
        for b in 0..5 {
            s.put(k(9, b), vec![b as u8; 10]);
        }
        s.put(ObjectKey::data(9, [8; 16], 0), vec![1]); // other view
        s.put(ObjectKey::metadata(9, [7; 16]), vec![2]); // metadata space
        assert_eq!(s.delete_blocks(9, [7; 16]), 5);
        assert_eq!(s.object_count(), 2);
        assert!(s.get(&ObjectKey::metadata(9, [7; 16])).is_some());
    }

    #[test]
    fn delete_blocks_on_empty_store_and_foreign_views() {
        let s = ObjectStore::new();
        assert_eq!(s.delete_blocks(1, [7; 16]), 0);
        // Only non-matching entries present: nothing removed, bytes intact.
        s.put(ObjectKey::data(1, [8; 16], 0), vec![0; 10]); // other view
        s.put(ObjectKey::data(2, [7; 16], 0), vec![0; 20]); // other inode
        s.put(ObjectKey::metadata(1, [7; 16]), vec![0; 30]); // other space
        assert_eq!(s.delete_blocks(1, [7; 16]), 0);
        assert_eq!(s.object_count(), 3);
        assert_eq!(s.byte_count(), 60);
    }

    #[test]
    fn delete_blocks_updates_byte_accounting() {
        let s = ObjectStore::new();
        for b in 0..4 {
            s.put(k(3, b), vec![0; 25]);
        }
        s.put(ObjectKey::metadata(3, [7; 16]), vec![0; 11]);
        assert_eq!(s.byte_count(), 111);
        assert_eq!(s.delete_blocks(3, [7; 16]), 4);
        assert_eq!(s.byte_count(), 11);
        // Idempotent: a second sweep finds nothing.
        assert_eq!(s.delete_blocks(3, [7; 16]), 0);
        assert_eq!(s.byte_count(), 11);
    }

    #[test]
    fn scan_keys_pages_in_order() {
        let s = ObjectStore::new();
        // Insert out of order across spaces, inodes, and blocks.
        let mut expect: Vec<ObjectKey> = Vec::new();
        for i in (0..7u64).rev() {
            for b in [2u32, 0, 1] {
                let key = ObjectKey::data(i, [i as u8; 16], b);
                s.put(key, vec![1]);
                expect.push(key);
            }
            let key = ObjectKey::metadata(i, [i as u8; 16]);
            s.put(key, vec![2]);
            expect.push(key);
        }
        expect.sort_unstable();

        // Full scan in one page.
        let (all, done) = s.scan_keys(None, 1000);
        assert!(done);
        assert_eq!(all, expect);

        // Page through with a small limit; pages concatenate to the full set.
        let mut paged: Vec<ObjectKey> = Vec::new();
        let mut cursor: Option<ObjectKey> = None;
        loop {
            let (page, done) = s.scan_keys(cursor.as_ref(), 5);
            assert!(page.len() <= 5);
            paged.extend_from_slice(&page);
            cursor = page.last().copied();
            if done {
                break;
            }
        }
        assert_eq!(paged, expect);

        // Exact-boundary page: limit == remaining reports done.
        let (page, done) = s.scan_keys(None, expect.len());
        assert_eq!(page.len(), expect.len());
        assert!(done);
        let (page, done) = s.scan_keys(None, expect.len() - 1);
        assert_eq!(page.len(), expect.len() - 1);
        assert!(!done);

        // A cursor past the end yields an empty, done page.
        let (page, done) = s.scan_keys(expect.last(), 5);
        assert!(page.is_empty());
        assert!(done);
    }

    #[test]
    fn indexed_scan_matches_flat_oracle_and_rebuilt_root() {
        let s = ObjectStore::new();
        for i in 0..40u64 {
            s.put(ObjectKey::data(i, [(i % 5) as u8; 16], (i % 3) as u32), vec![1]);
            s.put(ObjectKey::metadata(i, [(i % 5) as u8; 16]), vec![2]);
        }
        for i in (0..40u64).step_by(3) {
            s.delete(&ObjectKey::metadata(i, [(i % 5) as u8; 16]));
        }
        assert!(s.delete_blocks(7, [2; 16]) > 0);
        // Pages from the index agree with the flat oracle at every cursor.
        let mut cursor: Option<ObjectKey> = None;
        loop {
            let (page, done) = s.scan_keys(cursor.as_ref(), 7);
            assert_eq!((page.clone(), done), s.scan_keys_flat(cursor.as_ref(), 7));
            cursor = page.last().copied();
            if done {
                break;
            }
        }
        // The incrementally maintained root equals a from-scratch rebuild.
        let (all, done) = s.scan_keys_flat(None, usize::MAX);
        assert!(done);
        let mut rebuilt = MerkleIndex::from_keys(all.iter().copied());
        assert_eq!(s.index_root(), (rebuilt.root(), all.len() as u64));
    }

    #[test]
    fn scan_proofs_verify_against_store_root() {
        let s = ObjectStore::new();
        for i in 0..30u64 {
            s.put(k(i, (i % 4) as u32), vec![i as u8]);
        }
        let (root, _) = s.index_root();
        let mut cursor: Option<ObjectKey> = None;
        let mut walked = Vec::new();
        loop {
            let p = s.scan_proof(cursor.as_ref(), 6);
            assert_eq!(p.root, root);
            sharoes_index::verify_scan_page(&root, cursor.as_ref(), 6, &p.keys, p.done, &p.proof)
                .expect("honest proof must verify");
            walked.extend_from_slice(&p.keys);
            if p.done {
                break;
            }
            cursor = p.keys.last().copied();
        }
        assert_eq!(walked, s.scan_keys_flat(None, usize::MAX).0);
        // Node fetch: the root's preimage is served and re-digests to it.
        let bytes = s.index_node_bytes(&root).expect("root node must be servable");
        assert_eq!(Sha256::digest(&bytes), root);
    }

    #[test]
    fn poisoned_shard_locks_recover() {
        let s = std::sync::Arc::new(ObjectStore::new());
        s.put(k(1, 0), vec![1, 2, 3]);
        // Poison every shard: a thread panics while holding all write guards
        // (simulating a connection thread dying mid-request).
        let poisoner = std::sync::Arc::clone(&s);
        let _ = std::thread::spawn(move || {
            let _guards: Vec<_> = poisoner.shards.iter().map(|sh| sh.write().unwrap()).collect();
            panic!("poison all shards");
        })
        .join();
        assert!(s.shards.iter().any(|sh| sh.is_poisoned()), "test setup must poison the locks");
        // The request path recovers instead of wedging the server.
        assert_eq!(s.get(&k(1, 0)).unwrap(), vec![1, 2, 3]);
        s.put(k(2, 0), vec![4]);
        assert_eq!(s.get(&k(2, 0)).unwrap(), vec![4]);
        assert!(s.delete(&k(2, 0)));
        assert_eq!(s.object_count(), 1);
        assert_eq!(s.scan_keys(None, 10).0, vec![k(1, 0)]);
        assert!(!s.snapshot().is_empty());
    }

    #[test]
    fn keys_with_same_inode_different_views_coexist() {
        let s = ObjectStore::new();
        s.put(ObjectKey::metadata(1, [1; 16]), vec![1]);
        s.put(ObjectKey::metadata(1, [2; 16]), vec![2]);
        assert_eq!(s.object_count(), 2);
        assert_eq!(s.get(&ObjectKey::metadata(1, [1; 16])).unwrap(), vec![1]);
        assert_eq!(s.get(&ObjectKey::metadata(1, [2; 16])).unwrap(), vec![2]);
    }

    #[test]
    fn bytes_by_space() {
        let s = ObjectStore::new();
        s.put(ObjectKey::metadata(1, [0; 16]), vec![0; 10]);
        s.put(ObjectKey::data(1, [0; 16], 0), vec![0; 90]);
        s.put(ObjectKey::superblock([3; 16]), vec![0; 5]);
        let by = s.bytes_by_space();
        assert_eq!(by[&KeySpace::Metadata], 10);
        assert_eq!(by[&KeySpace::Data], 90);
        assert_eq!(by[&KeySpace::Superblock], 5);
        // Iteration order is the KeySpace order, not hasher-dependent.
        let spaces: Vec<KeySpace> = by.keys().copied().collect();
        assert_eq!(spaces, vec![KeySpace::Metadata, KeySpace::Data, KeySpace::Superblock]);
    }

    #[test]
    fn snapshot_roundtrip() {
        let s = ObjectStore::new();
        for i in 0..20u32 {
            s.put(ObjectKey::data(i as u64, [i as u8; 16], i), vec![i as u8; 1 + i as usize]);
        }
        s.put(ObjectKey::superblock([9; 16]), vec![42; 100]);
        let bytes = s.snapshot();
        let idx = parse_snapshot_index(&bytes).unwrap();
        assert_eq!(idx.len() as u64, s.object_count());
        assert_eq!(idx.iter().map(|e| e.2 as u64).sum::<u64>(), s.byte_count());
        for (key, voff, vlen) in idx {
            let value = &bytes[voff as usize..voff as usize + vlen as usize];
            assert_eq!(s.get(&key).unwrap(), value, "{key:?}");
        }
        // Equal logical state, different shard count and history: same bytes.
        let other = ObjectStore::with_shards(1);
        other.put(ObjectKey::superblock([9; 16]), vec![42; 100]);
        for i in (0..20u32).rev() {
            other.put(ObjectKey::data(i as u64, [i as u8; 16], i), vec![i as u8; 1 + i as usize]);
        }
        assert_eq!(other.snapshot(), bytes);
    }

    #[test]
    fn snapshot_index_offsets_point_at_values() {
        let entries = vec![
            (k(1, 0), vec![5u8; 11]),
            (k(1, 1), vec![]),
            (ObjectKey::metadata(2, [2; 16]), vec![9u8; 3]),
        ];
        let bytes = snapshot_from_entries(&entries);
        let idx = parse_snapshot_index(&bytes).unwrap();
        assert_eq!(idx.len(), 3);
        for ((key, voff, vlen), (ekey, ev)) in idx.iter().zip(&entries) {
            assert_eq!(key, ekey);
            assert_eq!(*vlen as usize, ev.len());
            assert_eq!(&bytes[*voff as usize..*voff as usize + ev.len()], &ev[..]);
        }
        let mut bad = bytes.clone();
        bad[20] ^= 1;
        assert!(parse_snapshot_index(&bad).is_err());
        assert!(parse_snapshot_index(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn snapshot_rejects_garbage() {
        assert!(parse_snapshot_index(b"not a snapshot").is_err());
        let s = ObjectStore::new();
        s.put(ObjectKey::superblock([1; 16]), vec![1, 2, 3]);
        let mut bytes = s.snapshot();
        bytes.truncate(bytes.len() - 1);
        assert!(parse_snapshot_index(&bytes).is_err());
        let mut trailing = s.snapshot();
        trailing.push(0);
        assert!(parse_snapshot_index(&trailing).is_err());
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let s = ObjectStore::new();
        for i in 0..5u32 {
            s.put(k(i as u64, i), vec![i as u8; 9]);
        }
        let good = s.snapshot();
        assert!(parse_snapshot_index(&good).is_ok());
        for pos in 0..good.len() {
            let mut bad = good.clone();
            bad[pos] ^= 0x41;
            assert!(parse_snapshot_index(&bad).is_err(), "flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn any_truncation_is_detected() {
        let s = ObjectStore::new();
        s.put(k(1, 0), vec![3; 30]);
        let good = s.snapshot();
        for keep in 0..good.len() {
            assert!(
                parse_snapshot_index(&good[..keep]).is_err(),
                "truncation to {keep} bytes went undetected"
            );
        }
        let mut padded = good.clone();
        padded.push(0);
        assert!(parse_snapshot_index(&padded).is_err(), "trailing garbage accepted");
    }

    #[test]
    fn concurrent_writers() {
        let s = std::sync::Arc::new(ObjectStore::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = std::sync::Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500u32 {
                        s.put(ObjectKey::data(t, [t as u8; 16], i), vec![0; 8]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.object_count(), 8 * 500);
        assert_eq!(s.byte_count(), 8 * 500 * 8);
    }
}

//! `share-scan`: one thread alternates two mounted users, an owner and a
//! same-group grantee, on a 3-node R=2 `ClusterTransport` (default
//! `ClusterOpts`). Each node is an in-process `SspServer` behind an
//! `InMemoryTransport` (full codec, no sockets). The keyspace holds a
//! migrated tree plus seeded filler, at least 50k objects. The owner
//! creates, unlinks, writes and chmods (revokes and re-grants) files in a
//! shared directory and runs 64-key verified scan pages from seeded
//! cursors, most of them right after one of its own mutations; the grantee
//! runs getattr and reads on the files it may currently read. Only the
//! owner scans: a root that moved because another client mutated is
//! rejected by design.

use crate::deploy::{local_fs, set_up, user_db, Deployment, File, FileSet, Rng, Schedule, STAFF};
use crate::ledger::{ssp_handle_sample, ssp_handle_since, Measured, OpKind, OpLog};
use crate::wrap::{Boundary, Tap, TapTransport};
use crate::{top_up_pool, Clock, Opts};
use sharoes_cluster::{ClusterOpts, ClusterStats, ClusterStatsSample, ClusterTransport};
use sharoes_core::SharoesClient;
use sharoes_fs::{Mode, Uid, ROOT_UID};
use sharoes_net::{CostMeter, InMemoryTransport, KeySpace, ObjectKey, Request, Transport};
use sharoes_ssp::SspServer;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const OWNER: Uid = Uid(1000);
const GRANTEE: Uid = Uid(1001);
const NODES: usize = 3;
const SHARED_FILES: usize = 200;
const SIZES: (u64, u64) = (1024, 4096);
const FILLER: usize = 50_000;
const FILLER_BATCH: usize = 500;
const SCAN_LIMIT: u32 = 64;
/// One cycle of the owner's ops. Create and unlink slots are churn (see
/// [`FileSet::churn`]), keeping the shared directory stationary. The one
/// scan follows one of the owner's own mutations, which moved the index
/// root, unless it opens the cycle right after the previous cycle's scan.
/// The weights are chosen, not measured: the scan rate is sized for run
/// length, one scan in sixteen owner ops keeping a 10 s run above 1,000
/// ops, since a scan after a mutation costs ~100 ms.
const OWNER_MIX: [(OpKind, usize); 5] = [
    (OpKind::Create, 2),
    (OpKind::Unlink, 2),
    (OpKind::Write, 7),
    (OpKind::Chmod, 4),
    (OpKind::ScanPage, 1),
];
/// Signing pairs migration consumes (two per object) plus headroom.
const PAIRS: usize = 2 * (SHARED_FILES + 2) + 64;

/// Shared files are 0o640 (the grantee may read) or 0o600 (revoked).
const MODES: (u32, u32) = (0o640, 0o600);

fn initial_files(seed: u64) -> Vec<File> {
    let mut rng = Rng::new(seed, 30);
    (0..SHARED_FILES)
        .map(|i| {
            let size = rng.range(SIZES.0, SIZES.1) as usize;
            File { path: format!("/share/f{i:03}"), content: rng.bytes(size), mode: MODES.0 }
        })
        .collect()
}

/// A client's view of the cluster: per-node wire taps under a cluster tap.
fn cluster_for(
    servers: &[Arc<SspServer>],
    tap: &Arc<Tap>,
) -> (ClusterTransport, Arc<ClusterStats>) {
    let meter = CostMeter::new_shared();
    let mut cluster = ClusterTransport::with_meter(ClusterOpts::default(), Arc::clone(&meter));
    for (i, server) in servers.iter().enumerate() {
        let node = InMemoryTransport::with_meter(Arc::clone(server) as _, Arc::clone(&meter));
        let node = TapTransport::new(Box::new(node), Boundary::Wire, false, Arc::clone(tap));
        cluster.add_node(&format!("n{i}"), Box::new(node));
    }
    let stats = cluster.stats_handle();
    (cluster, stats)
}

fn mount(
    deployment: &mut Deployment,
    servers: &[Arc<SspServer>],
    uid: Uid,
    cache: Option<u64>,
    seed: u64,
) -> (SharoesClient, Arc<Tap>, Arc<ClusterStats>) {
    let tap = Tap::new();
    let (cluster, stats) = cluster_for(servers, &tap);
    let transport = TapTransport::new(Box::new(cluster), Boundary::Cluster, true, Arc::clone(&tap));
    (deployment.mount(uid, Box::new(transport), cache, seed), tap, stats)
}

fn union_keys(servers: &[Arc<SspServer>]) -> BTreeSet<ObjectKey> {
    servers.iter().flat_map(|s| s.store().scan_keys(None, usize::MAX).0).collect()
}

struct Setup {
    deployment: Deployment,
    servers: Vec<Arc<SspServer>>,
    owner: SharoesClient,
    grantee: SharoesClient,
    taps: [Arc<Tap>; 2],
    stats: [Arc<ClusterStats>; 2],
    filler_bytes: u64,
    preload_failures: u64,
}

fn setup(opts: &Opts, files: &[File]) -> Setup {
    let mut fs = local_fs(user_db(&[(OWNER, "owner"), (GRANTEE, "grantee")]));
    fs.mkdir(ROOT_UID, "/share", Mode::from_octal(0o750)).expect("mkdir /share");
    fs.chown(ROOT_UID, "/share", OWNER, STAFF).expect("chown /share");
    for f in files {
        fs.create(OWNER, &f.path, Mode::from_octal(f.mode)).expect("create");
        fs.write(OWNER, &f.path, &f.content).expect("write");
    }
    let servers: Vec<Arc<SspServer>> = (0..NODES).map(|_| SspServer::new().into_shared()).collect();
    let (mut migrate, _) = cluster_for(&servers, &Tap::new());
    let mut deployment = Deployment::migrate(&fs, PAIRS, &mut migrate);

    // Filler: seeded small objects under keys no client allocates, written
    // through the cluster like any other blob.
    let t = Instant::now();
    let mut rng = Rng::new(opts.seed, 31);
    let mut filler_bytes = 0u64;
    let mut preload_failures = 0;
    for _ in 0..FILLER / FILLER_BATCH {
        let items: Vec<(ObjectKey, Vec<u8>)> = (0..FILLER_BATCH)
            .map(|_| {
                let view: [u8; 16] = rng.bytes(16).try_into().expect("16 bytes");
                let key = ObjectKey::data(rng.next_u64() | 1 << 63, view, 0);
                let len = rng.range(48, 112) as usize;
                let value = rng.bytes(len);
                filler_bytes += value.len() as u64;
                (key, value)
            })
            .collect();
        preload_failures += u64::from(migrate.call(&Request::PutMany { items }).is_err());
    }

    let (mut owner, owner_tap, owner_stats) =
        mount(&mut deployment, &servers, OWNER, None, opts.seed);
    // The grantee runs uncached: the client cache has no cross-client
    // coherence, and the owner rewrites the files the grantee reads.
    let (grantee, grantee_tap, grantee_stats) =
        mount(&mut deployment, &servers, GRANTEE, Some(0), opts.seed);
    for f in files {
        preload_failures += u64::from(owner.read(&f.path).ok().as_ref() != Some(&f.content));
    }
    // Pins the owner's index root and builds the cluster's union index.
    preload_failures += u64::from(owner.verified_scan(None, SCAN_LIMIT).is_err());
    deployment.times.preload_s = t.elapsed().as_secs_f64();
    Setup {
        deployment,
        servers,
        owner,
        grantee,
        taps: [owner_tap, grantee_tap],
        stats: [owner_stats, grantee_stats],
        filler_bytes,
        preload_failures,
    }
}

fn random_cursor(rng: &mut Rng) -> ObjectKey {
    let view: [u8; 16] = rng.bytes(16).try_into().expect("16 bytes");
    let space = if rng.below(4) == 0 { KeySpace::Metadata } else { KeySpace::Data };
    ObjectKey { space, inode: rng.next_u64(), view, block: 0 }
}

fn sum_stats(stats: &[Arc<ClusterStats>; 2]) -> ClusterStatsSample {
    let (a, b) = (stats[0].sample(), stats[1].sample());
    ClusterStatsSample {
        failovers: a.failovers + b.failovers,
        read_repairs: a.read_repairs + b.read_repairs,
        quorum_shortfalls: a.quorum_shortfalls + b.quorum_shortfalls,
        node_errors: a.node_errors + b.node_errors,
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured::default();
    let initial = initial_files(opts.seed);
    let Setup {
        deployment,
        servers,
        mut owner,
        mut grantee,
        taps,
        stats,
        filler_bytes,
        preload_failures,
    } = set_up(opts.setups, &mut m, |_| setup(opts, &initial), |s| s.deployment.times);
    let mut set = FileSet::new(initial);
    m.check_failures += preload_failures;
    m.rsa_key = Some(deployment.ring.user_private(OWNER).expect("user key").clone());

    if opts.trace {
        m.initial_keys = union_keys(&servers).into_iter().collect();
        taps.iter().for_each(|t| t.capture(true));
    }
    let cost0 = [owner.meter().sample(), grantee.meter().sample()];
    let cache0 = owner.cache_stats();
    let stats0 = sum_stats(&stats);
    let ssp0 = ssp_handle_sample();
    let mut owner_log = OpLog::new(opts.trace);
    let mut grantee_log = OpLog::new(opts.trace);
    let mut rng = Rng::new(opts.seed, 32);
    let (mut next_id, mut round) = (SHARED_FILES, 0u64);
    let mut owner_ops = Schedule::new(&OWNER_MIX, Rng::new(opts.seed, 33));
    let mut grantee_ops =
        Schedule::new(&[(OpKind::Getattr, 1), (OpKind::Read, 1)], Rng::new(opts.seed, 34));
    let mut clock = Clock::start(opts.seconds, opts.ops);
    while !clock.done((owner_log.records.len() + grantee_log.records.len()) as u64) {
        clock.paused(|| top_up_pool(&deployment.pool, &mut round));
        let kind = set.churn(owner_ops.next_op());
        let pick = rng.below(set.files.len() as u64) as usize;
        match kind {
            OpKind::ScanPage => {
                let after = random_cursor(&mut rng);
                owner_log.run(kind, &mut owner, |c| {
                    let (keys, done) =
                        c.verified_scan(Some(after), SCAN_LIMIT).map_err(|e| e.to_string())?;
                    let ordered = keys.first().map_or(true, |k| *k > after)
                        && keys.windows(2).all(|w| w[0] < w[1]);
                    (ordered && (done || keys.len() == SCAN_LIMIT as usize))
                        .then_some(())
                        .ok_or(format!("page after {after:?}: {} keys, done={done}", keys.len()))
                });
            }
            OpKind::Create => {
                let path = format!("/share/n{next_id:05}");
                next_id += 1;
                let size = rng.range(SIZES.0, SIZES.1) as usize;
                let content = rng.bytes(size);
                set.create(&mut owner_log, &mut owner, path, MODES.0, content);
            }
            OpKind::Unlink => set.unlink(&mut owner_log, &mut owner, pick),
            OpKind::Write => {
                let size = rng.range(SIZES.0, SIZES.1) as usize;
                let content = rng.bytes(size);
                set.rewrite(&mut owner_log, &mut owner, pick, content);
            }
            OpKind::Chmod => set.chmod(&mut owner_log, &mut owner, pick, MODES),
            _ => unreachable!("{kind:?} is not in the owner's mix"),
        }

        // Grantee: getattr or read on a file it may currently read.
        let files = &set.files;
        let readable: Vec<usize> = (0..files.len()).filter(|i| files[*i].mode == MODES.0).collect();
        if readable.is_empty() {
            continue;
        }
        let f = &files[readable[rng.below(readable.len() as u64) as usize]];
        if grantee_ops.next_op() == OpKind::Getattr {
            grantee_log.run(OpKind::Getattr, &mut grantee, |c| {
                let st = c.getattr(&f.path).map_err(|e| e.to_string())?;
                (st.mode == Mode::from_octal(f.mode))
                    .then_some(())
                    .ok_or(format!("{}: mode {:?}", f.path, st.mode))
            });
        } else {
            grantee_log.run(OpKind::Read, &mut grantee, |c| {
                let data = c.read(&f.path).map_err(|e| e.to_string())?;
                (data == f.content).then_some(()).ok_or(format!("{}: content differs", f.path))
            });
        }
    }
    m.wall_s = clock.elapsed().as_secs_f64();
    m.pool_refill_s = clock.paused_total().as_secs_f64();
    m.cpu = clock.cpu();
    taps.iter().for_each(|t| t.capture(false));
    m.spans = crate::trace::drain();

    for (i, c) in [&owner, &grantee].into_iter().enumerate() {
        let cost = c.meter().sample().since(&cost0[i]);
        m.cost = m.cost.plus(&cost);
        let who = ["owner", "grantee"][i];
        m.counts.insert(format!("{who}.round_trips"), cost.round_trips);
        m.counts.insert(format!("{who}.bytes_up"), cost.bytes_up);
        m.counts.insert(format!("{who}.bytes_down"), cost.bytes_down);
    }
    let cache = owner.cache_stats();
    m.cache.hits = cache.hits - cache0.hits;
    m.cache.misses = cache.misses - cache0.misses;
    let s = sum_stats(&stats);
    m.cluster = Some(ClusterStatsSample {
        failovers: s.failovers - stats0.failovers,
        read_repairs: s.read_repairs - stats0.read_repairs,
        quorum_shortfalls: s.quorum_shortfalls - stats0.quorum_shortfalls,
        node_errors: s.node_errors - stats0.node_errors,
    });
    m.ssp_handle = ssp_handle_since(&ssp0);
    for tap in &taps {
        m.events.extend(tap.take_events());
        m.frames.extend(tap.take_frames());
        m.add_call_times(tap.take_call_times());
    }
    m.absorb(owner_log);
    m.absorb(grantee_log);

    // The owner's full verified listing must equal the union of the nodes'
    // keys.
    let union = union_keys(&servers);
    match owner.verified_scan_all(1024) {
        Ok(listed) if listed.iter().copied().eq(union.iter().copied()) => {}
        Ok(listed) => {
            m.check_failures += 1;
            m.failures.push(format!(
                "verified_scan_all listed {} keys, nodes hold {}",
                listed.len(),
                union.len()
            ));
        }
        Err(e) => {
            m.check_failures += 1;
            m.failures.push(format!("verified_scan_all: {e}"));
        }
    }
    m.ssp_objects = servers.iter().map(|s| s.store().object_count()).sum();
    let stored: u64 = servers.iter().map(|s| s.store().byte_count()).sum();
    let replication = ClusterOpts::default().replication as u64;
    m.ssp_bytes = stored - replication * filler_bytes;
    m.user_bytes = set.files.iter().map(|f| f.content.len() as u64).sum();
    m.user_bytes_written = set.written;
    m.counts.insert("ssp_bytes".into(), m.ssp_bytes);
    m.counts.insert("user_bytes".into(), m.user_bytes);
    m.counts.insert("keyspace".into(), union.len() as u64);
    m.notes.push(format!(
        "1 thread alternating owner and grantee, closed loop; {NODES} in-process nodes, R={}, \
         in-memory transports with the full codec (no sockets); {} keys ({FILLER} filler); \
         {SCAN_LIMIT}-key verified scan pages; grantee uncached",
        ClusterOpts::default().replication,
        union.len()
    ));
    m
}

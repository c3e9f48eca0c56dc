//! Chaos suite: the full client stack driven through a deterministic fault
//! injector, plus SSP restart recovery on the WAL engine and client degraded
//! mode.
//!
//! Everything here is replayable: the fault schedule, the client session,
//! and the deployment are pure functions of the printed seed. Rerun a
//! failure with `SHAROES_TEST_SEED=<seed> cargo test --test chaos`.
//! `SHAROES_CHAOS_RATE=<0.0..1.0>` adds an extra fault rate to the sweep.

use sharoes::fs::treegen::{generate, TreeSpec};
use sharoes::net::{
    CostMeter, FakeSleeper, FaultConfig, FaultCounts, FaultInjector, FaultSchedule, NetError,
    ObjectKey, RequestHandler, ResilientTransport, RetryPolicy, Transport, WireRead, WireWrite,
};
use sharoes::prelude::*;
use sharoes::ssp::segment::classify;
use sharoes::ssp::{EngineConfig, LogEngine, RealFs, SspServer, Vfs};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn test_config() -> ClientConfig {
    ClientConfig::test_with(CryptoPolicy::Sharoes, Scheme::SharedCaps)
}

struct World {
    server: Arc<SspServer>,
    db: Arc<UserDb>,
    pki: Arc<Pki>,
    ring: Keyring,
    pool: Arc<SigKeyPool>,
    config: ClientConfig,
}

/// Builds a deployment that is a pure function of `seed`.
fn deploy(seed: u64) -> World {
    deploy_on(seed, SspServer::new().into_shared())
}

/// [`deploy`] onto a given (empty) server, e.g. one on the WAL engine.
fn deploy_on(seed: u64, server: Arc<SspServer>) -> World {
    let spec =
        TreeSpec { users: 2, dirs_per_user: 1, files_per_dir: 1, seed, ..Default::default() };
    let (local, _) = generate(&spec).expect("treegen");
    let mut rng = HmacDrbg::from_seed_u64(seed);
    let ring = Keyring::generate(local.users(), 512, &mut rng).unwrap();
    let config = test_config();
    let pool = Arc::new(SigKeyPool::new(config.crypto));
    let mut transport = InMemoryTransport::new(Arc::clone(&server) as _);
    Migrator { fs: &local, config: &config, ring: &ring, pool: &pool, downgrade_unsupported: true }
        .migrate(&mut transport, &mut rng)
        .expect("migration");
    World {
        server,
        db: Arc::new(local.users().clone()),
        pki: Arc::new(ring.public_directory()),
        ring,
        pool,
        config,
    }
}

/// The server's `SHAROES2` state fingerprint, whichever backend it runs on.
fn snapshot_of(server: &SspServer) -> Vec<u8> {
    match server.engine() {
        Some(engine) => engine.snapshot().expect("engine snapshot"),
        None => server.store().snapshot(),
    }
}

/// The store's contents as (key, value) pairs sorted by wire-encoded key.
fn sorted_entries(server: &SspServer) -> Vec<(Vec<u8>, Vec<u8>)> {
    let snap = snapshot_of(server);
    let mut cur = sharoes::net::Cursor::new(&snap[8..]);
    let count = u64::read(&mut cur).expect("snapshot count");
    let mut entries = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let key = ObjectKey::read(&mut cur).expect("snapshot key");
        let value = Vec::<u8>::read(&mut cur).expect("snapshot value");
        entries.push((key.to_wire(), value));
    }
    entries.sort();
    entries
}

/// A client whose every SSP call crosses a seeded fault injector and the
/// retrying/reconnecting resilient transport — the production failure path.
fn chaos_client(
    world: &World,
    rate: f64,
    fault_seed: u64,
    session_seed: u64,
) -> (SharoesClient, Arc<Mutex<FaultSchedule>>) {
    let schedule = FaultSchedule::shared(FaultConfig::at_rate(rate), fault_seed);
    let meter = CostMeter::new_shared();
    let handler = Arc::clone(&world.server) as Arc<dyn RequestHandler>;
    let schedule2 = Arc::clone(&schedule);
    let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
        let inner = InMemoryTransport::with_meter(Arc::clone(&handler), Arc::clone(&meter));
        Ok(Box::new(FaultInjector::new(inner, Arc::clone(&schedule2))))
    });
    // 12 attempts: at a 20% fault rate a call fails only with probability
    // 0.2^12 ≈ 4e-9, and the seeded schedule pins the exact outcome anyway.
    // Production-shaped exponential backoff runs against a FakeSleeper, so
    // the retry/backoff/jitter path is fully exercised without the suite
    // ever sleeping for real.
    let policy = RetryPolicy { max_attempts: 12, ..RetryPolicy::default() };
    let transport =
        ResilientTransport::connect_with_sleeper(connector, policy, Box::new(FakeSleeper::new()))
            .expect("connect");
    let client = SharoesClient::with_rng(
        Box::new(transport),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(Uid(1000)).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(session_seed),
    );
    (client, schedule)
}

/// A representative create/write/read/chmod/unlink workload. Returns every
/// byte read back, for cross-rate comparison.
fn run_workload(client: &mut SharoesClient) -> Vec<Vec<u8>> {
    client.mount().expect("mount");
    client.mkdir("/home/user0/chaos", Mode::from_octal(0o755)).expect("mkdir");
    for i in 0..5u32 {
        let path = format!("/home/user0/chaos/f{i}");
        client.create(&path, Mode::from_octal(0o644)).expect("create");
        let body = format!("chaos payload {i} ").repeat(20 + i as usize);
        client.write_file(&path, body.as_bytes()).expect("write");
    }
    client.chmod("/home/user0/chaos/f0", Mode::from_octal(0o600)).expect("chmod");
    client.unlink("/home/user0/chaos/f4").expect("unlink");
    let mut reads = Vec::new();
    for i in 0..4u32 {
        let path = format!("/home/user0/chaos/f{i}");
        client.getattr(&path).expect("getattr");
        reads.push(client.read(&path).expect("read"));
    }
    let mut listing: Vec<String> =
        client.readdir("/home/user0/chaos").expect("readdir").into_iter().map(|e| e.name).collect();
    listing.sort();
    reads.push(listing.join(",").into_bytes());
    reads
}

/// What one chaos run yields: read-backs, final store entries, injector
/// tallies.
type RunOutcome = (Vec<Vec<u8>>, Vec<(Vec<u8>, Vec<u8>)>, FaultCounts);

/// One full chaos run at `rate`.
fn run_at_rate(seed: u64, rate: f64) -> RunOutcome {
    let world = deploy(seed);
    let (mut client, schedule) = chaos_client(&world, rate, seed ^ 0xFA17, seed ^ 0x5E55);
    let reads = run_workload(&mut client);
    assert!(!client.is_degraded(), "workload completed, client must not be degraded");
    let counts = schedule.lock().unwrap().counts();
    (reads, sorted_entries(&world.server), counts)
}

#[test]
fn chaos_workloads_complete_identically_across_fault_rates() {
    let seed = sharoes_testkit::rng::test_seed();
    println!("chaos seed: {seed:#x} (set SHAROES_TEST_SEED to replay)");
    let mut rates = vec![0.0, 0.05, 0.20];
    if let Some(extra) = std::env::var("SHAROES_CHAOS_RATE").ok().and_then(|v| v.parse().ok()) {
        rates.push(extra);
    }
    let (baseline_reads, baseline_entries, _) = run_at_rate(seed, rates[0]);
    assert!(!baseline_entries.is_empty());
    for &rate in &rates[1..] {
        let (reads, entries, counts) = run_at_rate(seed, rate);
        println!("rate {rate}: {} faults injected ({counts:?})", counts.total());
        assert!(counts.total() > 0, "rate {rate} injected nothing — schedule broken");
        assert_eq!(reads, baseline_reads, "read-backs diverged at fault rate {rate}");
        assert_eq!(
            entries, baseline_entries,
            "final SSP state diverged from the fault-free run at rate {rate}"
        );
    }
}

#[test]
fn chaos_schedule_is_replayable_from_seed() {
    let seed = sharoes_testkit::rng::test_seed();
    let (reads_a, entries_a, counts_a) = run_at_rate(seed, 0.20);
    let (reads_b, entries_b, counts_b) = run_at_rate(seed, 0.20);
    assert_eq!(counts_a, counts_b, "same seed must inject the same faults");
    assert_eq!(reads_a, reads_b);
    assert_eq!(entries_a, entries_b);
}

/// An empty per-test directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sharoes-chaos-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Opens (recovering) the WAL engine over `dir` on the real filesystem,
/// exactly as `sharoes-sspd --wal DIR` does.
fn open_engine(dir: &Path) -> Result<Arc<LogEngine>, NetError> {
    LogEngine::open(Arc::new(RealFs), dir, EngineConfig::default()).map(Arc::new)
}

#[test]
fn sspd_restart_recovers_checkpointed_objects() {
    let dir = fresh_dir("restart");

    // Populate over the WAL engine, checkpoint, then write a WAL tail past
    // the checkpoint.
    let engine = open_engine(&dir).unwrap();
    let world = deploy_on(0xC4A5_0001, SspServer::with_engine(Arc::clone(&engine)).into_shared());
    let (mut client, _) = chaos_client(&world, 0.0, 1, 2);
    let reads = run_workload(&mut client);
    engine.compact().unwrap();
    let late = b"written after the checkpoint".to_vec();
    client.create("/home/user0/chaos/late", Mode::from_octal(0o644)).expect("create");
    client.write_file("/home/user0/chaos/late", &late).expect("write");
    let entries_before = sorted_entries(&world.server);
    drop(client);
    drop(engine);
    drop(world.server); // "kill" the SSP process

    // Restart: recover checkpoint + WAL tail, serve it over TCP, remount.
    let server = SspServer::with_engine(open_engine(&dir).unwrap()).into_shared();
    assert_eq!(sorted_entries(&server), entries_before, "recovery must be lossless");
    let handle = sharoes::ssp::serve(Arc::clone(&server), "127.0.0.1:0").unwrap();
    let transport = TcpTransport::connect(&handle.addr().to_string()).unwrap();
    let mut client = SharoesClient::with_rng(
        Box::new(transport),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(Uid(1000)).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(77),
    );
    client.mount().expect("mount against recovered engine");
    assert_eq!(client.read("/home/user0/chaos/f1").expect("read after restart"), reads[1]);
    assert_eq!(client.read("/home/user0/chaos/late").expect("read WAL tail"), late);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Recovery after the newest checkpoint was damaged must either bridge from
/// the WAL to exactly the newest state or fail with a typed corruption
/// error — never come up on the older checkpoint generation.
fn assert_recovers_newest_or_fails_loudly(dir: &Path, newest: &[(Vec<u8>, Vec<u8>)]) {
    match open_engine(dir) {
        Ok(engine) => {
            let recovered = sorted_entries(&SspServer::with_engine(engine));
            assert_eq!(recovered, newest, "recovery served a stale generation");
        }
        Err(NetError::Corrupt(_)) => {}
        Err(e) => panic!("expected a typed corruption error, got: {e}"),
    }
}

#[test]
fn torn_checkpoint_falls_back_to_previous_generation() {
    let dir = fresh_dir("torn");

    // Two checkpoint generations: the migrated tree, then the workload on
    // top. Each compaction prunes the WAL it covers.
    let engine = open_engine(&dir).unwrap();
    let world = deploy_on(0xC4A5_0002, SspServer::with_engine(Arc::clone(&engine)).into_shared());
    engine.compact().unwrap();
    let gen1 = sorted_entries(&world.server);
    let (mut client, _) = chaos_client(&world, 0.0, 1, 3);
    run_workload(&mut client);
    engine.compact().unwrap();
    let gen2 = sorted_entries(&world.server);
    assert_ne!(gen1, gen2);
    drop(client);
    drop(engine);
    drop(world.server);

    let checkpoints = classify(&RealFs.list(&dir).unwrap()).checkpoints;
    assert_eq!(checkpoints.len(), 2, "the newest checkpoint keeps one fallback generation");
    let newest = dir.join(&checkpoints[1].1);
    let full = std::fs::read(&newest).unwrap();

    // Torn mid-write (as a kill during the checkpoint write would leave it).
    std::fs::write(&newest, &full[..full.len() / 2]).unwrap();
    assert_recovers_newest_or_fails_loudly(&dir, &gen2);

    // A single flipped byte (disk rot) is held to the same rule.
    let mut flipped = full.clone();
    let mid = flipped.len() / 3;
    flipped[mid] ^= 0x10;
    std::fs::write(&newest, &flipped).unwrap();
    assert_recovers_newest_or_fails_loudly(&dir, &gen2);

    // Intact again: recovery lands on the newest generation.
    std::fs::write(&newest, &full).unwrap();
    let recovered = sorted_entries(&SspServer::with_engine(open_engine(&dir).unwrap()));
    assert_eq!(recovered, gen2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ssp_outage_degrades_to_cached_reads_without_panicking() {
    // Serve over real TCP with a short server-side read timeout so that
    // stopping the listener actually severs the client's connection (idle
    // connection threads die instead of pinning the shared store).
    let world = deploy(0xC4A5_0003);
    let options =
        ServeOptions { read_timeout: Some(Duration::from_millis(100)), ..ServeOptions::default() };
    let handle =
        sharoes::ssp::serve_with(Arc::clone(&world.server), "127.0.0.1:0", options).expect("serve");
    let addr = handle.addr().to_string();
    let meter = CostMeter::new_shared();
    let m2 = Arc::clone(&meter);
    let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
        let t = TcpTransport::connect_with(
            &addr,
            Some(Duration::from_millis(500)),
            Some(Duration::from_millis(500)),
            Arc::clone(&m2),
        )?;
        Ok(Box::new(t) as Box<dyn Transport>)
    });
    let transport = ResilientTransport::connect(connector, RetryPolicy::fast(2)).expect("dial");
    let mut client = SharoesClient::with_rng(
        Box::new(transport),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(Uid(1000)).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(11),
    );
    client.mount().expect("mount");
    // Warm the cache on one file, leave another cold.
    let warm = "/home/user0/proj0/file0.dat";
    let warm_bytes = client.read(warm).expect("warm read");
    client.getattr(warm).expect("warm getattr");
    assert!(!client.is_degraded());

    // Take the SSP down and wait out the server-side idle timeout so the
    // established connection is truly gone.
    handle.shutdown();
    std::thread::sleep(Duration::from_millis(300));

    // Uncached operations fail with the typed outage error — no panic.
    let err = client.create("/home/user0/proj0/new.txt", Mode::from_octal(0o644)).unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "expected SspUnavailable, got: {err}");
    assert!(client.is_degraded(), "outage must flip the degraded flag");

    // Cache-resident reads keep working in degraded mode.
    assert_eq!(client.read(warm).expect("degraded cached read"), warm_bytes);
    client.getattr(warm).expect("degraded cached getattr");
    assert!(client.is_degraded(), "cached reads must not clear degradation");

    // Writes against the dead SSP stay typed errors too.
    let err = client.write_file(warm, b"no ssp").unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "write should fail typed: {err}");
}

#[test]
fn degraded_client_fails_revocation_cleanly_without_dropping_the_acl() {
    // Regression: a chmod/set_acl attempted during an SSP outage must come
    // back as a typed `SspUnavailable` error AND leave the access state
    // exactly as it was — not "succeed" locally while the SSP never hears
    // about it (a silently dropped revocation is an access-control hole).
    let world = deploy(0xC4A5_0004);
    let options =
        ServeOptions { read_timeout: Some(Duration::from_millis(100)), ..ServeOptions::default() };
    let handle =
        sharoes::ssp::serve_with(Arc::clone(&world.server), "127.0.0.1:0", options).expect("serve");
    let addr = handle.addr().to_string();
    let meter = CostMeter::new_shared();
    let m2 = Arc::clone(&meter);
    let connector = Box::new(move || -> Result<Box<dyn Transport>, NetError> {
        let t = TcpTransport::connect_with(
            &addr,
            Some(Duration::from_millis(500)),
            Some(Duration::from_millis(500)),
            Arc::clone(&m2),
        )?;
        Ok(Box::new(t) as Box<dyn Transport>)
    });
    let transport = ResilientTransport::connect(connector, RetryPolicy::fast(2)).expect("dial");
    let owner = Uid(1000);
    let grantee = Uid(1001);
    let mut client = SharoesClient::with_rng(
        Box::new(transport),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(owner).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(12),
    );
    client.mount().expect("mount");

    // Open the path for traversal so the ACL grant below is reachable,
    // then create the shared file whose access we will try (and fail) to
    // revoke.
    client.chmod("/home/user0", Mode::from_octal(0o711)).expect("open home");
    client.chmod("/home/user0/proj0", Mode::from_octal(0o711)).expect("open proj");
    let path = "/home/user0/proj0/shared.dat";
    let mode_before = Mode::from_octal(0o644);
    client.create(path, mode_before).expect("create");
    client.write_file(path, b"pre-outage secret").expect("write");
    let mut acl = Acl::empty();
    acl.set_user(grantee, Perm::R);
    client.set_acl(path, acl).expect("grant");
    client.getattr(path).expect("warm attr cache");
    client.read(path).expect("warm data cache");
    assert!(!client.is_degraded());

    handle.shutdown();
    std::thread::sleep(Duration::from_millis(300));

    // The revocation pair fails typed — chmod and the ACL edit alike.
    let err = client.chmod(path, Mode::from_octal(0o600)).unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "chmod must fail typed: {err}");
    let err = client.set_acl(path, Acl::empty()).unwrap_err();
    assert!(matches!(err, CoreError::SspUnavailable(_)), "set_acl must fail typed: {err}");
    assert!(client.is_degraded(), "failed revocation must flip the degraded flag");

    // Cache-hit reads still serve, and the cached view never pretends the
    // failed revocation happened.
    let stat = client.getattr(path).expect("degraded cached getattr");
    assert_eq!(stat.mode, mode_before, "failed chmod leaked into the cached attrs");
    assert_eq!(client.read(path).expect("degraded cached read"), b"pre-outage secret");

    // Ground truth on the (shared, in-process) store once connectivity is
    // back: mode unchanged, and the grantee's ACL entry still grants — the
    // revocation neither half-applied nor silently dropped the ACL.
    let mut fresh = SharoesClient::with_rng(
        Box::new(InMemoryTransport::new(Arc::clone(&world.server) as _)),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(owner).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(13),
    );
    fresh.mount().expect("remount");
    let stat = fresh.getattr(path).expect("post-outage getattr");
    assert_eq!(stat.mode, mode_before, "failed chmod reached the SSP after all");
    let mut reader = SharoesClient::with_rng(
        Box::new(InMemoryTransport::new(Arc::clone(&world.server) as _)),
        world.config.clone(),
        Arc::clone(&world.db),
        Arc::clone(&world.pki),
        world.ring.identity(grantee).unwrap(),
        Arc::clone(&world.pool),
        HmacDrbg::from_seed_u64(14),
    );
    reader.mount().expect("grantee mount");
    assert_eq!(reader.read(path).expect("grantee read (ACL must be intact)"), b"pre-outage secret");
}

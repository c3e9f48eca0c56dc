//! `data-wal`: two users on two threads, each with its own pipelined TCP
//! connection to an in-process `sspd` on the WAL engine (`LogEngine` over a
//! real directory, default `EngineConfig`). Each user owns 64 files of
//! 64 KiB; each client cache holds 1 MiB, a quarter of that user's working
//! set. The mix is 70% whole-file reads and 30% same-size overwrites, so no
//! keys are created and nothing scans.

use crate::deploy::{local_fs, set_up, user_db, Deployment, Rng, Schedule};
use crate::ledger::{ssp_handle_sample, ssp_handle_since, Measured, OpKind, OpLog};
use crate::wrap::{Boundary, Tap, TapTransport, WalFs, WalStats};
use crate::{Clock, CpuSample, Opts};
use sharoes_core::SharoesClient;
use sharoes_fs::{Gid, Mode, Uid, ROOT_UID};
use sharoes_net::pipeline::{PipelinedClient, PipelinedTransport, DEFAULT_CALL_TIMEOUT};
use sharoes_net::{CostMeter, InMemoryTransport};
use sharoes_ssp::{serve_with, EngineConfig, LogEngine, ServeOptions, SspServer, TcpServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const USERS: [Uid; 2] = [Uid(1000), Uid(1001)];
const FILES: usize = 64;
const FILE_BYTES: usize = 64 << 10;
const CACHE_BYTES: u64 = 1 << 20;
/// Signing pairs migration consumes (two per object) plus headroom.
const PAIRS: usize = 2 * (USERS.len() * (FILES + 1) + 1) + 64;

fn path(u: usize, i: usize) -> String {
    format!("/u{u}/f{i:02}")
}

/// Each user's initial file contents for `seed`.
fn initial_files(seed: u64) -> Vec<Vec<Vec<u8>>> {
    (0..USERS.len())
        .map(|u| {
            let mut rng = Rng::new(seed, 10 + u as u64);
            (0..FILES).map(|_| rng.bytes(FILE_BYTES)).collect()
        })
        .collect()
}

/// The engine directory, removed when dropped.
struct EngineDir(PathBuf);

impl Drop for EngineDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fields drop in order, so the server stops before its directory goes.
struct Setup {
    deployment: Deployment,
    server: Arc<SspServer>,
    handle: TcpServerHandle,
    clients: Vec<SharoesClient>,
    taps: Vec<Arc<Tap>>,
    stats: Arc<WalStats>,
    preload_failures: u64,
    dir: EngineDir,
}

fn setup(opts: &Opts, files: &[Vec<Vec<u8>>], rep: usize) -> Setup {
    let mut fs = local_fs(user_db(&[(USERS[0], "u0"), (USERS[1], "u1")]));
    for (u, uid) in USERS.iter().enumerate() {
        let home = format!("/u{u}");
        fs.mkdir(ROOT_UID, &home, Mode::from_octal(0o700)).expect("mkdir home");
        fs.chown(ROOT_UID, &home, *uid, Gid(100)).expect("chown home");
        for (i, content) in files[u].iter().enumerate() {
            fs.create(*uid, &path(u, i), Mode::from_octal(0o600)).expect("create");
            fs.write(*uid, &path(u, i), content).expect("write");
        }
    }

    let dir = EngineDir(opts.out_dir.join(format!("wal-{}-{rep}", std::process::id())));
    let _ = std::fs::remove_dir_all(&dir.0);
    let stats = Arc::new(WalStats::default());
    let engine =
        LogEngine::open(Arc::new(WalFs::new(Arc::clone(&stats))), &dir.0, EngineConfig::default())
            .expect("open the WAL engine");
    let server = SspServer::with_engine(Arc::new(engine)).into_shared();
    let mut migrate = InMemoryTransport::new(Arc::clone(&server) as _);
    let mut deployment = Deployment::migrate(&fs, PAIRS, &mut migrate);

    let handle = serve_with(Arc::clone(&server), "127.0.0.1:0", ServeOptions::default())
        .expect("serve sspd on loopback");
    let mut clients = Vec::new();
    let mut taps = Vec::new();
    for uid in USERS {
        let conn = PipelinedClient::connect_with(
            &handle.addr().to_string(),
            DEFAULT_CALL_TIMEOUT,
            CostMeter::new_shared(),
        )
        .expect("connect");
        let tap = Tap::new();
        let transport = TapTransport::new(
            Box::new(PipelinedTransport::new(Arc::new(conn))),
            Boundary::Wire,
            true,
            Arc::clone(&tap),
        );
        clients.push(deployment.mount(uid, Box::new(transport), Some(CACHE_BYTES), opts.seed));
        taps.push(tap);
    }

    // Preload: read every file once, leaving each cache in steady state.
    let t = Instant::now();
    let mut preload_failures = 0;
    for (u, client) in clients.iter_mut().enumerate() {
        for (i, content) in files[u].iter().enumerate() {
            preload_failures += u64::from(client.read(&path(u, i)).ok().as_ref() != Some(content));
        }
    }
    deployment.times.preload_s = t.elapsed().as_secs_f64();
    Setup { deployment, server, handle, clients, taps, stats, preload_failures, dir }
}

/// One user's closed loop: 70% reads, 30% same-size overwrites.
fn drive(
    u: usize,
    client: &mut SharoesClient,
    files: &mut [Vec<u8>],
    opts: &Opts,
) -> (OpLog, u64, f64) {
    let mut log = OpLog::new(opts.trace);
    let mut rng = Rng::new(opts.seed, 20 + u as u64);
    let mut written = 0u64;
    let per_user = opts.ops.map(|n| n.div_ceil(USERS.len() as u64));
    let mut schedule =
        Schedule::new(&[(OpKind::Read, 7), (OpKind::Write, 3)], Rng::new(opts.seed, 22 + u as u64));
    let clock = Clock::start(opts.seconds, per_user);
    while !clock.done(log.records.len() as u64) {
        let i = rng.below(FILES as u64) as usize;
        let p = path(u, i);
        if schedule.next_op() == OpKind::Read {
            let want = &files[i];
            log.run(OpKind::Read, client, |c| {
                let data = c.read(&p).map_err(|e| e.to_string())?;
                (&data == want).then_some(()).ok_or(format!("{p}: content differs"))
            });
        } else {
            let content = rng.bytes(FILE_BYTES);
            written += FILE_BYTES as u64;
            if log.run(OpKind::Write, client, |c| {
                c.write_file(&p, &content).map_err(|e| e.to_string())
            }) {
                files[i] = content;
            }
        }
    }
    (log, written, clock.elapsed().as_secs_f64())
}

/// Reopens the engine directory and reads every file back through a fresh
/// mount; returns how many differ from the acknowledged final contents.
fn reopen_check(deployment: &mut Deployment, dir: &Path, files: &[Vec<Vec<u8>>], seed: u64) -> u64 {
    let engine = match LogEngine::open(Arc::new(sharoes_ssp::RealFs), dir, EngineConfig::default())
    {
        Ok(e) => e,
        Err(e) => {
            eprintln!("data-wal: reopening the engine failed: {e}");
            return (USERS.len() * FILES) as u64;
        }
    };
    let server = SspServer::with_engine(Arc::new(engine)).into_shared();
    let mut bad = 0;
    for (u, uid) in USERS.iter().enumerate() {
        let transport = InMemoryTransport::new(Arc::clone(&server) as _);
        let mut client = deployment.mount(*uid, Box::new(transport), Some(0), seed ^ 0x005E_C04D);
        for (i, want) in files[u].iter().enumerate() {
            if client.read(&path(u, i)).ok().as_ref() != Some(want) {
                bad += 1;
            }
        }
    }
    bad
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured::default();
    let mut files = initial_files(opts.seed);
    let Setup { mut deployment, server, handle, mut clients, taps, stats, preload_failures, dir } =
        set_up(opts.setups, &mut m, |rep| setup(opts, &files, rep), |s| s.deployment.times);
    m.check_failures += preload_failures;
    m.rsa_key = Some(deployment.ring.user_private(USERS[0]).expect("user key").clone());
    let engine = Arc::clone(server.engine().expect("WAL backend"));

    if opts.trace {
        m.initial_keys = engine.scan_keys(None, usize::MAX).0;
        taps.iter().for_each(|t| t.capture(true));
        crate::trace::set_server_side(true);
    }
    let cost0: Vec<_> = clients.iter().map(|c| c.meter().sample()).collect();
    let cache0: Vec<_> = clients.iter().map(|c| c.cache_stats()).collect();
    let ssp0 = ssp_handle_sample();
    let wal0 = stats.sample();
    let cpu0 = CpuSample::now();
    let results: Vec<(OpLog, u64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(files.iter_mut())
            .enumerate()
            .map(|(u, (client, model))| scope.spawn(move || drive(u, client, model, opts)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    crate::trace::set_server_side(false);
    taps.iter().for_each(|t| t.capture(false));
    m.spans = crate::trace::drain();
    m.cpu = CpuSample::now().since(&cpu0);
    m.wal = Some(stats.sample().since(&wal0));
    m.ssp_handle = ssp_handle_since(&ssp0);

    for (u, (client, (log, written, wall))) in clients.iter().zip(results).enumerate() {
        let cost = client.meter().sample().since(&cost0[u]);
        let cache = client.cache_stats();
        m.cache.hits += cache.hits - cache0[u].hits;
        m.cache.misses += cache.misses - cache0[u].misses;
        m.cost = m.cost.plus(&cost);
        m.user_bytes_written += written;
        m.wall_s = m.wall_s.max(wall);
        let uid = USERS[u].0;
        m.counts.insert(format!("u{uid}.round_trips"), cost.round_trips);
        m.counts.insert(format!("u{uid}.bytes_up"), cost.bytes_up);
        m.counts.insert(format!("u{uid}.bytes_down"), cost.bytes_down);
        m.counts.insert(format!("u{uid}.ops"), log.records.len() as u64);
        m.absorb(log);
    }
    for tap in &taps {
        m.events.extend(tap.take_events());
        m.frames.extend(tap.take_frames());
        m.add_call_times(tap.take_call_times());
    }
    m.counts.insert("wal.fsyncs".into(), m.wal.map_or(0, |w| w.fsyncs));
    m.ssp_objects = engine.object_count();
    m.ssp_bytes = engine.byte_count();
    m.user_bytes = (USERS.len() * FILES * FILE_BYTES) as u64;
    m.notes.push(format!(
        "2 users on 2 threads, closed loop, one pipelined TCP connection each over loopback \
         (not a device); {FILES} files of {FILE_BYTES} B per user; client cache {CACHE_BYTES} B \
         per user; 70% whole-file reads, 30% same-size overwrites"
    ));
    let c = EngineConfig::default();
    m.notes.push(format!(
        "WAL flush policy: fsync every {} record(s) (group_commit), roll at {} B, \
         auto-compaction {} (at >= {} dead bytes outweighing live bytes)",
        c.group_commit,
        c.roll_bytes,
        if c.auto_compact { "on" } else { "off" },
        c.compact_min_dead_bytes
    ));

    drop(clients);
    handle.shutdown();
    drop(engine);
    drop(server);
    m.check_failures += reopen_check(&mut deployment, &dir.0, &files, opts.seed);
    m
}

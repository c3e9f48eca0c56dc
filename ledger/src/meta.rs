//! `meta`: a seeded Postmark-style mix over the paper's default file set
//! (500 files of 0.5–9.77 KiB in 20 subdirectories), one user, one
//! pipelined TCP connection to an in-process `sspd` on the memory backend.
//! The client cache holds the whole file set, so SSP traffic is mostly
//! metadata mutations.

use crate::deploy::{local_fs, set_up, user_db, Deployment, File, FileSet, Rng, Schedule};
use crate::ledger::{ssp_handle_sample, ssp_handle_since, Measured, OpKind, OpLog};
use crate::wrap::{Boundary, Tap, TapTransport};
use crate::{top_up_pool, Clock, Opts};
use sharoes_core::SharoesClient;
use sharoes_fs::{Gid, Mode, NodeKind, Uid, ROOT_UID};
use sharoes_net::pipeline::{PipelinedClient, PipelinedTransport, DEFAULT_CALL_TIMEOUT};
use sharoes_net::{CostMeter, InMemoryTransport};
use sharoes_ssp::{serve_with, ServeOptions, SspServer, TcpServerHandle};
use std::sync::Arc;
use std::time::Instant;

const USER: Uid = Uid(1000);
const FILES: usize = 500;
const SUBDIRS: usize = 20;
/// PostMark's default file sizes: 500 bytes to 9.77 KiB.
const SIZES: (u64, u64) = (500, 10_000);
/// Signing pairs migration consumes (two per object) plus headroom.
const MIGRATION_PAIRS: usize = 2 * (FILES + SUBDIRS + 2) + 64;

fn subdir(i: u64) -> String {
    format!("/bench/s{i:02}")
}

/// The model's initial file set for `seed`.
fn initial_files(seed: u64) -> Vec<File> {
    let mut rng = Rng::new(seed, 1);
    (0..FILES as u64)
        .map(|id| {
            let size = rng.range(SIZES.0, SIZES.1) as usize;
            File {
                path: format!("{}/f{id}", subdir(id % SUBDIRS as u64)),
                content: rng.bytes(size),
                mode: 0o644,
            }
        })
        .collect()
}

struct Setup {
    deployment: Deployment,
    server: Arc<SspServer>,
    handle: TcpServerHandle,
    client: SharoesClient,
    tap: Arc<Tap>,
    preload_failures: u64,
}

fn setup(opts: &Opts, files: &[File]) -> Setup {
    let mut fs = local_fs(user_db(&[(USER, "u0")]));
    fs.mkdir(ROOT_UID, "/bench", Mode::from_octal(0o755)).expect("mkdir /bench");
    fs.chown(ROOT_UID, "/bench", USER, Gid(100)).expect("chown /bench");
    for d in 0..SUBDIRS as u64 {
        fs.mkdir(USER, &subdir(d), Mode::from_octal(0o755)).expect("mkdir subdir");
    }
    for f in files {
        fs.create(USER, &f.path, Mode::from_octal(f.mode)).expect("create");
        fs.write(USER, &f.path, &f.content).expect("write");
    }

    let server = SspServer::new().into_shared();
    let mut migrate = InMemoryTransport::new(Arc::clone(&server) as _);
    let mut deployment = Deployment::migrate(&fs, MIGRATION_PAIRS, &mut migrate);

    let handle = serve_with(Arc::clone(&server), "127.0.0.1:0", ServeOptions::default())
        .expect("serve sspd on loopback");
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
    let mut client = deployment.mount(USER, Box::new(transport), None, opts.seed);

    // Preload: list every directory and read every file once, so the
    // cache holds the whole file set before timing starts.
    let t = Instant::now();
    let mut preload_failures = 0;
    for d in 0..SUBDIRS as u64 {
        preload_failures += u64::from(client.readdir(&subdir(d)).is_err());
    }
    for f in files {
        preload_failures += u64::from(client.read(&f.path).ok().as_ref() != Some(&f.content));
    }
    deployment.times.preload_s = t.elapsed().as_secs_f64();
    Setup { deployment, server, handle, client, tap, preload_failures }
}

/// One cycle of the mix. Read, write (rewrite), create and unlink take
/// equal shares, as in PostMark's defaults: each PostMark transaction pairs
/// a read or an append (read bias 5 of 10) with a create or a delete
/// (create bias 5 of 10). The repository's Postmark benchmark
/// (`crates/bench/src/workloads/postmark.rs`) draws the same four with
/// equal probability, and like it a create also writes the new file's
/// content. PostMark has no getattr, readdir, chmod or rename; their
/// weights are chosen, not measured: one slot each per 16-op cycle, so
/// every op appears in every cycle while PostMark's four keep three
/// quarters of the traffic. Create and unlink slots are churn (see
/// [`FileSet::churn`]), so the set stays stationary around 500 files.
const MIX: [(OpKind, usize); 8] = [
    (OpKind::Read, 3),
    (OpKind::Write, 3),
    (OpKind::Create, 3),
    (OpKind::Unlink, 3),
    (OpKind::Getattr, 1),
    (OpKind::Readdir, 1),
    (OpKind::Chmod, 1),
    (OpKind::Rename, 1),
];

/// Runs the workload.
pub fn run(opts: &Opts) -> Measured {
    let mut m = Measured::default();
    let initial = initial_files(opts.seed);
    let Setup { deployment, server, handle, mut client, tap, preload_failures } =
        set_up(opts.setups, &mut m, |_| setup(opts, &initial), |s| s.deployment.times);
    let mut set = FileSet::new(initial);
    m.check_failures += preload_failures;
    m.rsa_key = Some(deployment.ring.user_private(USER).expect("user key").clone());

    if opts.trace {
        m.initial_keys = server.store().scan_keys(None, usize::MAX).0;
        tap.capture(true);
    }
    let cost0 = client.meter().sample();
    let cache0 = client.cache_stats();
    let ssp0 = ssp_handle_sample();
    let mut log = OpLog::new(opts.trace);
    let mut rng = Rng::new(opts.seed, 2);
    let mut schedule = Schedule::new(&MIX, Rng::new(opts.seed, 3));
    let mut next_id = FILES as u64;
    let mut round = 0u64;
    let mut clock = Clock::start(opts.seconds, opts.ops);
    while !clock.done(log.records.len() as u64) {
        clock.paused(|| top_up_pool(&deployment.pool, &mut round));
        let kind = set.churn(schedule.next_op());
        let pick = rng.below(set.files.len() as u64) as usize;
        match kind {
            OpKind::Getattr => {
                let f = &set.files[pick];
                log.run(kind, &mut client, |c| {
                    let st = c.getattr(&f.path).map_err(|e| e.to_string())?;
                    // Sizes are not compared: writes leave metadata
                    // untouched by design (paper Figure 8), so `size` is
                    // the size at the last metadata refresh.
                    let want = (NodeKind::File, Mode::from_octal(f.mode));
                    let got = (st.kind, st.mode);
                    (got == want).then_some(()).ok_or(format!("{}: {got:?} != {want:?}", f.path))
                });
            }
            OpKind::Read => {
                let f = &set.files[pick];
                log.run(kind, &mut client, |c| {
                    let data = c.read(&f.path).map_err(|e| e.to_string())?;
                    (data == f.content).then_some(()).ok_or(format!("{}: content differs", f.path))
                });
            }
            OpKind::Readdir => {
                let dir = subdir(rng.below(SUBDIRS as u64));
                let prefix = format!("{dir}/");
                let mut want: Vec<&str> =
                    set.files.iter().filter_map(|f| f.path.strip_prefix(&prefix)).collect();
                want.sort_unstable();
                log.run(kind, &mut client, |c| {
                    let mut got: Vec<String> = c
                        .readdir(&dir)
                        .map_err(|e| e.to_string())?
                        .into_iter()
                        .map(|e| e.name)
                        .collect();
                    got.sort_unstable();
                    (got == want).then_some(()).ok_or(format!("{dir}: listing differs"))
                });
            }
            OpKind::Create => {
                let path = format!("{}/f{next_id}", subdir(rng.below(SUBDIRS as u64)));
                next_id += 1;
                let size = rng.range(SIZES.0, SIZES.1) as usize;
                let content = rng.bytes(size);
                set.create(&mut log, &mut client, path, 0o644, content);
            }
            OpKind::Write => {
                let size = rng.range(SIZES.0, SIZES.1) as usize;
                let content = rng.bytes(size);
                set.rewrite(&mut log, &mut client, pick, content);
            }
            OpKind::Unlink => set.unlink(&mut log, &mut client, pick),
            OpKind::Chmod => set.chmod(&mut log, &mut client, pick, (0o644, 0o600)),
            OpKind::Rename => {
                let f = &mut set.files[pick];
                // Renames stay within a directory: the client moves across
                // directories as copy + unlink, not as a rename.
                let dir = f.path.rsplit_once('/').expect("absolute path").0;
                let to = format!("{dir}/f{next_id}");
                next_id += 1;
                if log.run(kind, &mut client, |c| c.rename(&f.path, &to).map_err(|e| e.to_string()))
                {
                    f.path = to;
                }
            }
            OpKind::ScanPage => unreachable!("meta runs no scans"),
        }
    }
    m.wall_s = clock.elapsed().as_secs_f64();
    m.pool_refill_s = clock.paused_total().as_secs_f64();
    m.cpu = clock.cpu();
    tap.capture(false);
    m.spans = crate::trace::drain();

    m.cost = client.meter().sample().since(&cost0);
    let cache = client.cache_stats();
    m.cache.hits = cache.hits - cache0.hits;
    m.cache.misses = cache.misses - cache0.misses;
    m.ssp_handle = ssp_handle_since(&ssp0);
    m.ssp_objects = server.store().object_count();
    m.ssp_bytes = server.store().byte_count();
    m.user_bytes = set.files.iter().map(|f| f.content.len() as u64).sum();
    m.user_bytes_written = set.written;
    m.events = tap.take_events();
    m.frames = tap.take_frames();
    m.add_call_times(tap.take_call_times());
    m.absorb(log);
    m.counts.insert("round_trips".into(), m.cost.round_trips);
    m.counts.insert("bytes_up".into(), m.cost.bytes_up);
    m.counts.insert("bytes_down".into(), m.cost.bytes_down);
    m.counts.insert("ssp_bytes".into(), m.ssp_bytes);
    m.counts.insert("user_bytes".into(), m.user_bytes);
    m.notes.push(format!(
        "1 user, 1 pipelined TCP connection over loopback, memory backend; {FILES} files of \
         {}-{} B in {SUBDIRS} subdirectories; unbounded client cache",
        SIZES.0, SIZES.1
    ));
    drop(client);
    handle.shutdown();
    m
}

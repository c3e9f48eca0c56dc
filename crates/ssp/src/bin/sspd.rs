//! `sharoes-sspd` — standalone SSP server.
//!
//! Usage: `sharoes-sspd [ADDR] [--wal DIR] [--cluster FILE --node NAME]`
//! (default `127.0.0.1:7070`, in-memory only).
//!
//! With `--wal DIR`, the daemon serves from the crash-consistent
//! log-structured engine — the SSP's "faithfully store/retrieve" obligation
//! of paper §VII: every mutation is fsynced into an append-only WAL under
//! DIR before it is acknowledged, recovery replays the newest checkpoint
//! plus the WAL tail, and compaction runs when enough garbage has
//! accumulated (see DESIGN.md §11 and the README "Durability" section for
//! the DIR layout). All persisted bytes are client-encrypted blobs.
//!
//! With `--cluster CONFIG --node NAME`, the daemon runs as the named member
//! of a cluster config (see `sharoes-cluster`): the bind address comes from
//! the config's `node NAME ADDR` line, and — unless `--wal` is given — the
//! WAL directory defaults to `<NAME>.wal` so each member persists
//! separately. Nodes never talk to each other; replication is entirely
//! client-driven.

use sharoes_cluster::ClusterConfig;
use sharoes_ssp::{serve, EngineConfig, LogEngine, RealFs, SspServer};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut addr: Option<String> = None;
    let mut wal: Option<PathBuf> = None;
    let mut cluster: Option<PathBuf> = None;
    let mut node: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let missing = |flag: &str| -> String {
        eprintln!("sharoes-sspd: {flag} needs a value");
        std::process::exit(2);
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--wal" => wal = Some(PathBuf::from(args.next().unwrap_or_else(|| missing("--wal")))),
            "--cluster" => {
                cluster = Some(PathBuf::from(args.next().unwrap_or_else(|| missing("--cluster"))))
            }
            "--node" => node = Some(args.next().unwrap_or_else(|| missing("--node"))),
            other => addr = Some(other.to_string()),
        }
    }
    if let Some(config_path) = &cluster {
        let Some(name) = &node else {
            eprintln!("sharoes-sspd: --cluster requires --node NAME");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(config_path).unwrap_or_else(|e| {
            eprintln!("sharoes-sspd: cannot read {}: {e}", config_path.display());
            std::process::exit(1);
        });
        let config = ClusterConfig::parse(&text).unwrap_or_else(|e| {
            eprintln!("sharoes-sspd: bad cluster config {}: {e}", config_path.display());
            std::process::exit(1);
        });
        let Some(spec) = config.node(name) else {
            let known: Vec<&str> = config.nodes.iter().map(|n| n.name.as_str()).collect();
            eprintln!("sharoes-sspd: node {name:?} not in config (members: {known:?})");
            std::process::exit(1);
        };
        if let Some(explicit) = &addr {
            if *explicit != spec.addr {
                eprintln!(
                    "sharoes-sspd: ADDR {explicit} conflicts with config address {} for {name}",
                    spec.addr
                );
                std::process::exit(2);
            }
        }
        addr = Some(spec.addr.clone());
        if wal.is_none() {
            wal = Some(PathBuf::from(format!("{name}.wal")));
        }
        eprintln!(
            "sharoes-sspd: cluster member {name} (R={}, W={}, {} nodes)",
            config.replication,
            config.write_quorum,
            config.nodes.len()
        );
    } else if node.is_some() {
        eprintln!("sharoes-sspd: --node requires --cluster FILE");
        std::process::exit(2);
    }
    let addr = addr.unwrap_or_else(|| "127.0.0.1:7070".to_string());

    let (server, engine) = match &wal {
        Some(dir) => {
            let engine = match LogEngine::open(Arc::new(RealFs), dir, EngineConfig::default()) {
                Ok(engine) => Arc::new(engine),
                Err(e) => {
                    eprintln!("sharoes-sspd: engine recovery in {} failed: {e}", dir.display());
                    std::process::exit(1);
                }
            };
            eprintln!(
                "sharoes-sspd: log engine recovered {} objects ({} bytes) from {}",
                engine.object_count(),
                engine.byte_count(),
                dir.display()
            );
            (SspServer::with_engine(Arc::clone(&engine)), Some(engine))
        }
        None => (SspServer::new(), None),
    };
    match serve(server.into_shared(), &addr) {
        Ok(handle) => {
            eprintln!("sharoes-sspd listening on {}", handle.addr());
            // Mutations group-fsync on their own; this loop only covers a
            // group-commit remainder that never filled up.
            loop {
                std::thread::sleep(Duration::from_secs(30));
                if let Some(engine) = &engine {
                    if let Err(e) = engine.flush() {
                        eprintln!("sharoes-sspd: wal flush failed: {e}");
                    }
                }
            }
        }
        Err(e) => {
            eprintln!("sharoes-sspd: failed to bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}

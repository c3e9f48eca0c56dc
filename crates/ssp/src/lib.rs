//! # sharoes-ssp
//!
//! The Storage Service Provider: the *untrusted* half of the Sharoes
//! architecture. It stores encrypted metadata objects, encrypted data
//! blocks, per-user superblocks, and group key blocks in a sharded
//! hashtable, indexed by inode number plus a view selector (user-hash for
//! Scheme-1, CAP id for Scheme-2) — and understands nothing about any of it.
//!
//! * [`shards::ShardCore`] — the one sharded key→value core both backends
//!   share: shard locks, the authenticated key index, byte accounting, and
//!   the index, scan and stats reads.
//! * [`store::ObjectStore`] — the core holding blobs in memory (not
//!   durable), plus the `SHAROES2` snapshot format.
//! * [`engine::LogEngine`] — the core plus a crash-consistent WAL, sealed
//!   segments and checkpoints (see DESIGN.md §11), built on the
//!   [`faultfs::Vfs`] abstraction so the crash tests can inject disk faults.
//!   The only durable mode (`sharoes-sspd --wal`).
//! * [`server::SspServer`] — protocol dispatch (implements
//!   `sharoes_net::RequestHandler`, so it plugs into both the in-memory and
//!   TCP transports), over either backend.
//! * [`tcp`] — the standalone serving loop; `sharoes-sspd` is the binary.

#![warn(missing_docs)]

pub mod engine;
pub mod faultfs;
pub mod segment;
pub mod server;
pub mod shards;
pub mod store;
pub mod tcp;
pub mod wal;

pub use engine::{EngineConfig, LogEngine};
pub use faultfs::{CrashMode, FaultFs, RealFs, VFile, Vfs};
pub use server::SspServer;
pub use shards::{shard_of, DEFAULT_SHARDS};
pub use store::{parse_snapshot_index, snapshot_from_entries, ObjectStore};
pub use tcp::{serve, serve_with, ServeOptions, TcpServerHandle};
pub use wal::{WalError, WalOp, WalRecord};

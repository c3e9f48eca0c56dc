//! The SSP request handler: protocol dispatch over the object store.

use crate::engine::LogEngine;
use crate::shards::KeyIndex;
use crate::store::ObjectStore;
use sharoes_net::{NetError, ObjectKey, Request, RequestHandler, Response, TraceEventWire};
use sharoes_obs::Histogram;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Per-op service-time histograms, one per protocol verb. The histogram's
/// `_count` series doubles as the op counter, so there is no separate
/// `ssp_op_*_total` family to keep in sync.
struct SspMetrics {
    ping: Histogram,
    put: Histogram,
    put_many: Histogram,
    get: Histogram,
    get_many: Histogram,
    delete: Histogram,
    delete_blocks: Histogram,
    delete_many: Histogram,
    stats: Histogram,
    scan: Histogram,
    metrics: Histogram,
    trace: Histogram,
    root: Histogram,
    index_node: Histogram,
    scan_verified: Histogram,
}

fn ssp_metrics() -> &'static SspMetrics {
    static METRICS: OnceLock<SspMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let h = sharoes_obs::histogram_ns;
        SspMetrics {
            ping: h("ssp_op_ping_ns"),
            put: h("ssp_op_put_ns"),
            put_many: h("ssp_op_put_many_ns"),
            get: h("ssp_op_get_ns"),
            get_many: h("ssp_op_get_many_ns"),
            delete: h("ssp_op_delete_ns"),
            delete_blocks: h("ssp_op_delete_blocks_ns"),
            delete_many: h("ssp_op_delete_many_ns"),
            stats: h("ssp_op_stats_ns"),
            scan: h("ssp_op_scan_ns"),
            metrics: h("ssp_op_metrics_ns"),
            trace: h("ssp_op_trace_ns"),
            root: h("ssp_op_root_ns"),
            index_node: h("ssp_op_index_node_ns"),
            scan_verified: h("ssp_op_scan_verified_ns"),
        }
    })
}

/// Which storage backend a server instance serves from. Both are the same
/// sharded core underneath; only the mutations and reads differ, because
/// the engine's can fail on I/O.
enum Backend {
    /// In-memory sharded hashtable (not durable).
    Memory(Arc<ObjectStore>),
    /// Crash-consistent log-structured engine (`sharoes-sspd --wal`).
    Log(Arc<LogEngine>),
}

impl Backend {
    /// The core's key index: index, scan and stats reads.
    fn keys(&self) -> &KeyIndex {
        match self {
            Backend::Memory(s) => s,
            Backend::Log(e) => e,
        }
    }

    fn put(&self, key: ObjectKey, value: Vec<u8>) -> Result<(), NetError> {
        match self {
            Backend::Memory(s) => {
                s.put(key, value);
                Ok(())
            }
            Backend::Log(e) => e.put(key, value),
        }
    }

    fn get(&self, key: &ObjectKey) -> Result<Option<Vec<u8>>, NetError> {
        match self {
            Backend::Memory(s) => Ok(s.get(key)),
            Backend::Log(e) => e.get(key),
        }
    }

    fn delete(&self, key: &ObjectKey) -> Result<bool, NetError> {
        match self {
            Backend::Memory(s) => Ok(s.delete(key)),
            Backend::Log(e) => e.delete(key),
        }
    }

    fn delete_blocks(&self, inode: u64, view: [u8; 16]) -> Result<usize, NetError> {
        match self {
            Backend::Memory(s) => Ok(s.delete_blocks(inode, view)),
            Backend::Log(e) => e.delete_blocks(inode, view),
        }
    }
}

/// The SSP data-serving component (paper §IV, "SSP Server").
///
/// Wraps a storage backend — the in-memory [`ObjectStore`] or the
/// persistent [`LogEngine`] — and speaks the [`Request`]/[`Response`]
/// protocol. It performs no computation on stored content and cannot:
/// everything it holds is encrypted by clients.
pub struct SspServer {
    backend: Backend,
}

impl Default for SspServer {
    fn default() -> Self {
        Self::new()
    }
}

impl SspServer {
    /// A fresh server with an empty in-memory store.
    pub fn new() -> Self {
        Self::with_store(Arc::new(ObjectStore::new()))
    }

    /// A server over an existing in-memory store (e.g. pre-migrated state).
    pub fn with_store(store: Arc<ObjectStore>) -> Self {
        SspServer { backend: Backend::Memory(store) }
    }

    /// A server over a persistent log-structured engine.
    pub fn with_engine(engine: Arc<LogEngine>) -> Self {
        SspServer { backend: Backend::Log(engine) }
    }

    /// Direct access to the underlying in-memory store (inspection, tamper
    /// tests).
    ///
    /// # Panics
    /// When the server runs on the log engine; the engine has no shared
    /// in-memory table to hand out — use [`Self::engine`] instead.
    pub fn store(&self) -> &Arc<ObjectStore> {
        match &self.backend {
            Backend::Memory(s) => s,
            Backend::Log(_) => panic!("SspServer::store() on a log-engine server"),
        }
    }

    /// The log engine, when this server runs on one.
    pub fn engine(&self) -> Option<&Arc<LogEngine>> {
        match &self.backend {
            Backend::Memory(_) => None,
            Backend::Log(e) => Some(e),
        }
    }

    /// Wraps the server for sharing across transports/threads.
    pub fn into_shared(self) -> Arc<SspServer> {
        Arc::new(self)
    }
}

/// Storage failures surface as protocol errors. Engine errors (fsync
/// failure, detected corruption) are deliberately *not* marked transient:
/// blind resend rereads the same rotten bytes, and the cluster layer fails
/// reads over to another replica instead.
fn storage_err(e: NetError) -> Response {
    sharoes_obs::counter("ssp_storage_errors").inc();
    Response::Error(format!("storage: {e}"))
}

impl RequestHandler for SspServer {
    fn handle(&self, request: Request) -> Response {
        let m = ssp_metrics();
        let (op, hist) = match &request {
            Request::Ping => ("ping", &m.ping),
            Request::Put { .. } => ("put", &m.put),
            Request::PutMany { .. } => ("put_many", &m.put_many),
            Request::Get { .. } => ("get", &m.get),
            Request::GetMany { .. } => ("get_many", &m.get_many),
            Request::Delete { .. } => ("delete", &m.delete),
            Request::DeleteBlocks { .. } => ("delete_blocks", &m.delete_blocks),
            Request::DeleteMany { .. } => ("delete_many", &m.delete_many),
            Request::Stats => ("stats", &m.stats),
            Request::Scan { .. } => ("scan", &m.scan),
            Request::Metrics => ("metrics", &m.metrics),
            Request::Trace { .. } => ("trace", &m.trace),
            Request::Root => ("root", &m.root),
            Request::IndexNode { .. } => ("index_node", &m.index_node),
            Request::ScanVerified { .. } => ("scan_verified", &m.scan_verified),
        };
        let _span = sharoes_obs::span!("ssp.op", op);
        let start = Instant::now();
        let b = &self.backend;
        let response = match request {
            Request::Ping => Response::Pong,
            Request::Put { key, value } => match b.put(key, value) {
                Ok(()) => Response::Ok,
                Err(e) => storage_err(e),
            },
            Request::PutMany { items } => {
                let mut failed = None;
                for (key, value) in items {
                    if let Err(e) = b.put(key, value) {
                        failed = Some(e);
                        break;
                    }
                }
                match failed {
                    None => Response::Ok,
                    Some(e) => storage_err(e),
                }
            }
            Request::Get { key } => match b.get(&key) {
                Ok(v) => Response::Object(v),
                Err(e) => storage_err(e),
            },
            Request::GetMany { keys } => {
                match keys.iter().map(|k| b.get(k)).collect::<Result<Vec<_>, _>>() {
                    Ok(objects) => Response::Objects(objects),
                    Err(e) => storage_err(e),
                }
            }
            Request::Delete { key } => match b.delete(&key) {
                Ok(_) => Response::Ok,
                Err(e) => storage_err(e),
            },
            Request::DeleteBlocks { inode, view } => match b.delete_blocks(inode, view) {
                Ok(_) => Response::Ok,
                Err(e) => storage_err(e),
            },
            Request::DeleteMany { keys } => {
                let mut failed = None;
                for key in &keys {
                    if let Err(e) = b.delete(key) {
                        failed = Some(e);
                        break;
                    }
                }
                match failed {
                    None => Response::Ok,
                    Some(e) => storage_err(e),
                }
            }
            Request::Stats => {
                Response::Stats { objects: b.keys().object_count(), bytes: b.keys().byte_count() }
            }
            Request::Scan { after, limit } => {
                let (keys, done) = b.keys().scan_keys(after.as_ref(), limit as usize);
                Response::Keys { keys, done }
            }
            Request::Root => {
                let (root, count) = b.keys().index_root();
                Response::Root { root, count }
            }
            Request::IndexNode { hash } => {
                Response::IndexNode { node: b.keys().index_node_bytes(&hash) }
            }
            Request::ScanVerified { after, limit } => {
                let p = b.keys().scan_proof(after.as_ref(), limit);
                Response::KeysProof { keys: p.keys, done: p.done, root: p.root, proof: p.proof }
            }
            Request::Metrics => Response::Metrics { text: sharoes_obs::global().render() },
            Request::Trace { max } => {
                // Non-draining snapshot: a remote scrape must not race
                // local consumers (`take()` is drain-only). Newest events
                // win when the ring holds more than `max`.
                let tracer = sharoes_obs::tracer();
                let all = tracer.snapshot();
                let skip = all.len().saturating_sub(max as usize);
                let events: Vec<TraceEventWire> =
                    all.iter().skip(skip).map(TraceEventWire::from).collect();
                Response::Trace { events, dropped: tracer.dropped() + skip as u64 }
            }
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        hist.observe(elapsed);
        // Attribute the server's handling time to the enclosing span (the
        // adopted `ssp.rpc` frame when the request carried a trace header).
        sharoes_obs::phase_add(sharoes_obs::Phase::Storage, elapsed);
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharoes_net::ObjectKey;

    #[test]
    fn protocol_dispatch() {
        let server = SspServer::new();
        assert_eq!(server.handle(Request::Ping), Response::Pong);
        let key = ObjectKey::metadata(1, [0; 16]);
        assert_eq!(server.handle(Request::Put { key, value: vec![1, 2] }), Response::Ok);
        assert_eq!(server.handle(Request::Get { key }), Response::Object(Some(vec![1, 2])));
        assert_eq!(
            server.handle(Request::Get { key: ObjectKey::metadata(2, [0; 16]) }),
            Response::Object(None)
        );
    }

    #[test]
    fn batch_operations() {
        let server = SspServer::new();
        let k1 = ObjectKey::data(1, [0; 16], 0);
        let k2 = ObjectKey::data(1, [0; 16], 1);
        server.handle(Request::PutMany { items: vec![(k1, vec![1]), (k2, vec![2])] });
        assert_eq!(
            server.handle(Request::GetMany { keys: vec![k2, k1] }),
            Response::Objects(vec![Some(vec![2]), Some(vec![1])])
        );
        server.handle(Request::DeleteBlocks { inode: 1, view: [0; 16] });
        assert_eq!(
            server.handle(Request::GetMany { keys: vec![k1, k2] }),
            Response::Objects(vec![None, None])
        );
    }

    #[test]
    fn scan_pages_through_keys() {
        let server = SspServer::new();
        let keys: Vec<ObjectKey> = (0..5).map(|b| ObjectKey::data(1, [0; 16], b)).collect();
        for k in &keys {
            server.handle(Request::Put { key: *k, value: vec![1] });
        }
        assert_eq!(
            server.handle(Request::Scan { after: None, limit: 3 }),
            Response::Keys { keys: keys[..3].to_vec(), done: false }
        );
        assert_eq!(
            server.handle(Request::Scan { after: Some(keys[2]), limit: 3 }),
            Response::Keys { keys: keys[3..].to_vec(), done: true }
        );
    }

    #[test]
    fn stats_reflect_store() {
        let server = SspServer::new();
        server.handle(Request::Put { key: ObjectKey::superblock([1; 16]), value: vec![0; 64] });
        assert_eq!(server.handle(Request::Stats), Response::Stats { objects: 1, bytes: 64 });
        server.handle(Request::Delete { key: ObjectKey::superblock([1; 16]) });
        assert_eq!(server.handle(Request::Stats), Response::Stats { objects: 0, bytes: 0 });
    }

    #[test]
    fn engine_backend_serves_the_full_protocol() {
        let fs = crate::faultfs::FaultFs::new();
        let engine = Arc::new(
            LogEngine::open(
                Arc::new(fs),
                std::path::Path::new("/srv"),
                crate::engine::EngineConfig::default(),
            )
            .unwrap(),
        );
        let server = SspServer::with_engine(Arc::clone(&engine));
        assert!(server.engine().is_some());
        assert_eq!(server.handle(Request::Ping), Response::Pong);
        let k1 = ObjectKey::data(1, [0; 16], 0);
        let k2 = ObjectKey::data(1, [0; 16], 1);
        server.handle(Request::PutMany { items: vec![(k1, vec![1]), (k2, vec![2; 10])] });
        assert_eq!(server.handle(Request::Get { key: k1 }), Response::Object(Some(vec![1])));
        assert_eq!(server.handle(Request::Stats), Response::Stats { objects: 2, bytes: 11 });
        assert_eq!(
            server.handle(Request::Scan { after: None, limit: 10 }),
            Response::Keys { keys: vec![k1, k2], done: true }
        );
        server.handle(Request::DeleteBlocks { inode: 1, view: [0; 16] });
        assert_eq!(server.handle(Request::Stats), Response::Stats { objects: 0, bytes: 0 });
    }

    #[test]
    #[should_panic(expected = "log-engine server")]
    fn store_accessor_panics_on_engine_backend() {
        let fs = crate::faultfs::FaultFs::new();
        let engine = Arc::new(
            LogEngine::open(
                Arc::new(fs),
                std::path::Path::new("/srv2"),
                crate::engine::EngineConfig::default(),
            )
            .unwrap(),
        );
        let _ = SspServer::with_engine(engine).store();
    }

    #[test]
    fn metrics_request_returns_exposition_text() {
        let server = SspServer::new();
        server.handle(Request::Put { key: ObjectKey::metadata(7, [3; 16]), value: vec![9] });
        match server.handle(Request::Metrics) {
            Response::Metrics { text } => {
                assert!(text.contains("ssp_op_put_ns_count"), "missing put count in:\n{text}");
            }
            other => panic!("expected Metrics response, got {other:?}"),
        }
    }
}

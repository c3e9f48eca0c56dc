//! The op log and the metrics computed from it: end-to-end figures from
//! untraced ops, the per-layer ledger from the traced run.

use crate::deploy::SetupTimes;
use crate::trace::{self, Span};
use crate::wrap::{KeyEvent, WalSample};
use sharoes_cluster::ClusterStatsSample;
use sharoes_core::{CacheStats, SharoesClient};
use sharoes_crypto::{
    generate_signing_pair, HmacDrbg, RsaPrivateKey, Sha256, SignatureScheme, SymKey,
};
use sharoes_index::MerkleIndex;
use sharoes_net::wire::{WireRead, WireWrite};
use sharoes_net::{CostSample, ObjectKey, Request, Response};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;

/// Client operations the workloads issue.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum OpKind {
    /// `getattr`.
    Getattr,
    /// `create` (an empty file).
    Create,
    /// Whole-file `read`.
    Read,
    /// Whole-file `write` + `close`.
    Write,
    /// `chmod` (revocation or re-grant).
    Chmod,
    /// `readdir`.
    Readdir,
    /// `unlink`.
    Unlink,
    /// `rename`.
    Rename,
    /// One `verified_scan` page.
    ScanPage,
}

impl OpKind {
    /// Every kind, in ledger order.
    pub const ALL: [OpKind; 9] = [
        OpKind::Getattr,
        OpKind::Create,
        OpKind::Read,
        OpKind::Write,
        OpKind::Chmod,
        OpKind::Readdir,
        OpKind::Unlink,
        OpKind::Rename,
        OpKind::ScanPage,
    ];

    /// Metric-name form.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Getattr => "getattr",
            OpKind::Create => "create",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Chmod => "chmod",
            OpKind::Readdir => "readdir",
            OpKind::Unlink => "unlink",
            OpKind::Rename => "rename",
            OpKind::ScanPage => "scan_page",
        }
    }
}

/// One completed client op.
#[derive(Clone, Copy, Debug)]
pub struct OpRecord {
    /// What ran.
    pub kind: OpKind,
    /// Wall time.
    pub ns: u64,
    /// Client crypto time inside it (`CostMeter` delta).
    pub crypto_ns: u64,
    /// Succeeded and returned what the model expected.
    pub ok: bool,
    /// Trace op id; 0 when untraced.
    pub op: u64,
}

/// Per-client op runner: times each op, checks its result, and in a traced
/// run traces every other op.
pub struct OpLog {
    traced_run: bool,
    /// Every op run so far.
    pub records: Vec<OpRecord>,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl OpLog {
    /// An empty log; `traced_run` turns on tracing of odd-numbered ops.
    pub fn new(traced_run: bool) -> OpLog {
        OpLog { traced_run, records: Vec::new(), failures: Vec::new() }
    }

    /// Runs one op. `f` returns `Err` when the op fails or its result
    /// differs from the model; either way the op counts as failed.
    pub fn run(
        &mut self,
        kind: OpKind,
        client: &mut SharoesClient,
        f: impl FnOnce(&mut SharoesClient) -> Result<(), String>,
    ) -> bool {
        let traced = self.traced_run && self.records.len() % 2 == 1;
        let crypto0 = client.meter().sample().crypto_ns;
        let t = Instant::now();
        let (out, op) = trace::op(kind.name(), traced, || f(client));
        let ns = t.elapsed().as_nanos() as u64;
        let crypto_ns = client.meter().sample().crypto_ns - crypto0;
        let ok = out.is_ok();
        if let Err(e) = out {
            if self.failures.iter().filter(|f| f.starts_with(kind.name())).count() < 2 {
                self.failures.push(format!("{}: {e}", kind.name()));
            }
        }
        self.records.push(OpRecord { kind, ns, crypto_ns, ok, op });
        ok
    }
}

/// Verbs broken out per call in the `net` and `ssp` layers.
const LEDGER_VERBS: [&str; 10] = [
    "get",
    "get_many",
    "put",
    "put_many",
    "delete",
    "delete_many",
    "delete_blocks",
    "root",
    "index_node",
    "scan_verified",
];

/// `(count, sum_ns)` of each [`LEDGER_VERBS`] verb's service time, from
/// the process-wide `ssp_op_<verb>_ns` histograms.
pub fn ssp_handle_sample() -> Vec<(u64, u64)> {
    LEDGER_VERBS
        .iter()
        .map(|v| {
            let h = sharoes_obs::histogram_ns(&format!("ssp_op_{v}_ns"));
            (h.count(), h.sum())
        })
        .collect()
}

/// [`ssp_handle_sample`] deltas since `earlier`.
pub fn ssp_handle_since(earlier: &[(u64, u64)]) -> Vec<(u64, u64)> {
    ssp_handle_sample().iter().zip(earlier).map(|(a, b)| (a.0 - b.0, a.1 - b.1)).collect()
}

/// Everything one run measured; the input to [`end_to_end`] and
/// [`per_layer`].
#[derive(Default)]
pub struct Measured {
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Seconds the timed phase was paused to refill the signing-key pool
    /// (every create consumes two pairs).
    pub pool_refill_s: f64,
    /// CPU accounting over the timed phase (refills excluded).
    pub cpu: crate::CpuSample,
    /// Ops of every client.
    pub records: Vec<OpRecord>,
    /// Failure messages.
    pub failures: Vec<String>,
    /// Failed post-run checks (reopen, full verified listing).
    pub check_failures: u64,
    /// Sum of the clients' cost deltas over the timed phase.
    pub cost: CostSample,
    /// Sum of the clients' cache-stat deltas.
    pub cache: CacheStats,
    /// SSP service-time deltas per [`LEDGER_VERBS`] verb `(count, sum_ns)`.
    pub ssp_handle: Vec<(u64, u64)>,
    /// Wire call times per verb `(count, sum_ns)` over the same calls
    /// (traced run).
    pub net_calls: BTreeMap<&'static str, (u64, u64)>,
    /// Objects the SSP stores at the end (replicas counted).
    pub ssp_objects: u64,
    /// Bytes the SSP stores at the end for user files (replicas counted).
    pub ssp_bytes: u64,
    /// Plaintext bytes of the users' files at the end.
    pub user_bytes: u64,
    /// Plaintext bytes written during the timed phase.
    pub user_bytes_written: u64,
    /// WAL filesystem deltas, on the WAL backend.
    pub wal: Option<WalSample>,
    /// Cluster-layer deltas, on the cluster.
    pub cluster: Option<ClusterStatsSample>,
    /// Spans of the traced run.
    pub spans: Vec<Span>,
    /// Keyspace at the start of the timed phase.
    pub initial_keys: Vec<ObjectKey>,
    /// Key mutations and scans, in issue order (traced run).
    pub events: Vec<KeyEvent>,
    /// Sampled wire frames (traced run).
    pub frames: Vec<(Request, Response)>,
    /// Every set-up repetition.
    pub setups: Vec<SetupTimes>,
    /// Signing keys of the deployment, for the crypto timings.
    pub rsa_key: Option<RsaPrivateKey>,
    /// Counts that must repeat exactly for a seed and op count.
    pub counts: BTreeMap<String, u64>,
    /// Free-form facts stated with the result.
    pub notes: Vec<String>,
}

impl Measured {
    /// Adds the wire call times a tap recorded.
    pub fn add_call_times(&mut self, times: BTreeMap<&'static str, (u64, u64)>) {
        for (verb, (count, sum)) in times {
            let entry = self.net_calls.entry(verb).or_default();
            *entry = (entry.0 + count, entry.1 + sum);
        }
    }

    /// Folds one client's log into the run.
    pub fn absorb(&mut self, log: OpLog) {
        self.records.extend(log.records);
        self.failures.extend(log.failures);
    }

    /// Ops attempted.
    pub fn attempted(&self) -> u64 {
        self.records.len() as u64
    }

    /// Failed ops plus failed post-run checks.
    pub fn failed(&self) -> u64 {
        self.records.iter().filter(|r| !r.ok).count() as u64 + self.check_failures
    }
}

/// One named value with its unit.
pub type Metric = (String, f64, &'static str);

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of any slice; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        0.0
    } else if v.len() % 2 == 1 {
        v[v.len() / 2]
    } else {
        (v[v.len() / 2 - 1] + v[v.len() / 2]) / 2.0
    }
}

fn ms_sorted(records: &[&OpRecord]) -> Vec<f64> {
    let mut v: Vec<f64> = records.iter().map(|r| r.ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Sum that is +0 when empty (`Iterator::sum` of no floats is -0).
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics, from the untraced run: set-up time and the
/// deterministic work counts. Throughput and latencies are in [`timings`]:
/// on a shared 2-vCPU host their spread between runs reaches the largest
/// bound the benchmark may set (README.md).
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let ops = m.records.len() as f64;
    vec![
        ("setup_s".into(), median(&m.setups.iter().map(|s| s.total_s()).collect::<Vec<_>>()), "s"),
        (
            "wire_bytes_per_op".into(),
            ratio((m.cost.bytes_up + m.cost.bytes_down) as f64, ops),
            "B/op",
        ),
        ("round_trips_per_op".into(), ratio(m.cost.round_trips as f64, ops), "1/op"),
        ("ssp_bytes_per_user_byte".into(), ratio(m.ssp_bytes as f64, m.user_bytes as f64), "B/B"),
    ]
}

/// Wall-clock op metrics, which carry no end-to-end bound (README.md):
/// throughput, p50 and p99 over all ops, and the p50 of every op kind (0
/// for a kind the workload does not run).
pub fn timings(m: &Measured) -> Vec<Metric> {
    let ok: Vec<&OpRecord> = m.records.iter().filter(|r| r.ok).collect();
    let all = ms_sorted(&ok);
    let mut out: Vec<Metric> = vec![
        ("ops_per_s".into(), ratio(ok.len() as f64, m.wall_s), "1/s"),
        ("op_p50_ms".into(), quantile(&all, 0.50), "ms"),
        ("op_p99_ms".into(), quantile(&all, 0.99), "ms"),
    ];
    for kind in OpKind::ALL {
        let of: Vec<&OpRecord> = ok.iter().copied().filter(|r| r.kind == kind).collect();
        out.push((format!("{}_p50_ms", kind.name()), quantile(&ms_sorted(&of), 0.5), "ms"));
    }
    out
}

/// What the run cost the machine and what the host took from it: process
/// CPU time (client, server and codec threads alike) per completed op, and
/// the share of all CPU time the hypervisor stole over the timed phase.
pub fn host(m: &Measured) -> Vec<Metric> {
    let ok = m.records.iter().filter(|r| r.ok).count() as f64;
    vec![
        ("bench.cpu_ms_per_op".into(), ratio(m.cpu.process_s * 1e3, ok), "ms"),
        ("bench.steal_pct".into(), ratio(m.cpu.steal_s * 100.0, m.cpu.total_s), "%"),
    ]
}

/// Timings of the crypto primitives at the workloads' sizes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CryptoMicro {
    /// AES-128-CTR sealing of 4 KiB blocks.
    pub aes_ctr_mib_s: f64,
    /// SHA-256 over 4 KiB blocks.
    pub sha256_mib_s: f64,
    /// ESIGN-768 signature.
    pub esign_sign_us: f64,
    /// RSA-2048 signature.
    pub rsa_sign_us: f64,
}

/// Times the data-plane and signing primitives: median of five batches
/// each.
pub fn crypto_micro(rsa: &RsaPrivateKey) -> CryptoMicro {
    fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
        let batch: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..reps {
                    f();
                }
                t.elapsed().as_secs_f64() / reps as f64
            })
            .collect();
        median(&batch)
    }
    let mut rng = HmacDrbg::from_seed_u64(7);
    let block = vec![0xA5u8; 4096];
    let key = SymKey::random(&mut rng);
    let mib = 4096.0 / (1024.0 * 1024.0);
    let aes = per_call(256, || {
        std::hint::black_box(key.seal(&mut rng, std::hint::black_box(&block)));
    });
    let sha = per_call(256, || {
        std::hint::black_box(Sha256::digest(std::hint::black_box(&block)));
    });
    let (esk, _) = generate_signing_pair(SignatureScheme::Esign, 768, &mut rng).expect("keygen");
    let esign = per_call(64, || {
        std::hint::black_box(esk.sign(&mut rng, std::hint::black_box(b"manifest digest")));
    });
    let rsa_t = per_call(8, || {
        std::hint::black_box(rsa.sign(std::hint::black_box(b"manifest digest")));
    });
    CryptoMicro {
        aes_ctr_mib_s: mib / aes,
        sha256_mib_s: mib / sha,
        esign_sign_us: esign * 1e6,
        rsa_sign_us: rsa_t * 1e6,
    }
}

/// What replaying the run's key mutations and scans against
/// [`MerkleIndex`] costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexReplay {
    /// Root rebuilds (a scan that follows a keyspace change).
    pub rebuilds: u64,
    /// Median root time after a change.
    pub root_ms: f64,
    /// Scan pages proved.
    pub pages: u64,
    /// Median proof time per page.
    pub prove_ms: f64,
    /// Mean proof length per page.
    pub proof_bytes: f64,
}

/// Replays `events` over an index built from `initial`.
pub fn index_replay(initial: &[ObjectKey], events: &[KeyEvent]) -> IndexReplay {
    let mut keys: BTreeSet<ObjectKey> = initial.iter().copied().collect();
    let mut index = MerkleIndex::from_keys(initial.iter().copied());
    index.root();
    let (mut dirty, mut roots, mut proves, mut proof_bytes) = (false, vec![], vec![], 0u64);
    for ev in events {
        match ev {
            KeyEvent::Put(k) => {
                dirty |= index.insert(*k);
                keys.insert(*k);
            }
            KeyEvent::Delete(k) => {
                dirty |= index.remove(k);
                keys.remove(k);
            }
            KeyEvent::DeleteBlocks(inode, view) => {
                let lo = ObjectKey::data(*inode, *view, 0);
                let hi = ObjectKey::data(*inode, *view, u32::MAX);
                let doomed: Vec<ObjectKey> = keys.range(lo..=hi).copied().collect();
                for k in doomed {
                    dirty |= index.remove(&k);
                    keys.remove(&k);
                }
            }
            KeyEvent::Scan(after, limit) => {
                if dirty {
                    let t = Instant::now();
                    std::hint::black_box(index.root());
                    roots.push(t.elapsed().as_secs_f64() * 1e3);
                    dirty = false;
                }
                let t = Instant::now();
                let page = index.prove_scan(after.as_ref(), *limit);
                proves.push(t.elapsed().as_secs_f64() * 1e3);
                proof_bytes += page.proof.len() as u64;
            }
        }
    }
    IndexReplay {
        rebuilds: roots.len() as u64,
        root_ms: median(&roots),
        pages: proves.len() as u64,
        prove_ms: median(&proves),
        proof_bytes: ratio(proof_bytes as f64, proves.len() as f64),
    }
}

/// Mean microseconds to encode and decode one sampled request/response
/// pair with the wire codec.
pub fn codec_us_per_call(frames: &[(Request, Response)]) -> f64 {
    if frames.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    for (req, resp) in frames {
        let a = req.to_wire();
        std::hint::black_box(Request::from_wire(&a).expect("request round trip"));
        let b = resp.to_wire();
        std::hint::black_box(Response::from_wire(&b).expect("response round trip"));
    }
    t.elapsed().as_secs_f64() * 1e6 / frames.len() as f64
}

/// The per-layer metric names and units, in ledger order. `BENCHMARK.json`
/// lists exactly these.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for k in OpKind::ALL {
        out.push((format!("core.self_ms.{}", k.name()), "ms"));
        out.push((format!("core.crypto_ms.{}", k.name()), "ms"));
        out.push((format!("core.crypto_share.{}", k.name()), "ratio"));
    }
    out.push(("core.cache_hit_ratio".into(), "ratio"));
    for (n, u) in [
        ("crypto.aes_ctr_mib_s", "MiB/s"),
        ("crypto.sha256_mib_s", "MiB/s"),
        ("crypto.esign_sign_us", "us"),
        ("crypto.rsa_sign_us", "us"),
        ("crypto.rsa_over_esign_sign", "ratio"),
        ("net.calls_per_op", "1/op"),
        ("net.req_bytes_per_op", "B/op"),
        ("net.resp_bytes_per_op", "B/op"),
        ("net.codec_us_per_call", "us"),
    ] {
        out.push((n.into(), u));
    }
    for v in LEDGER_VERBS {
        out.push((format!("net.call_ms.{v}"), "ms"));
    }
    for v in LEDGER_VERBS {
        out.push((format!("ssp.handle_ms.{v}"), "ms"));
    }
    for v in LEDGER_VERBS {
        out.push((format!("ssp.transit_ms.{v}"), "ms"));
    }
    for (n, u) in [
        ("ssp.objects", "count"),
        ("ssp.bytes", "B"),
        ("ssp.wal.fsyncs_per_op", "1/op"),
        ("ssp.wal.fsync_ms_per_op", "ms"),
        ("ssp.wal.bytes_written_per_user_byte", "B/B"),
        ("ssp.wal.compactions", "count"),
        ("ssp.wal.checkpoint_ms", "ms"),
        ("index.root_rebuilds_per_op", "1/op"),
        ("index.root_ms_after_mutation", "ms"),
        ("index.prove_ms_per_page", "ms"),
        ("index.proof_bytes_per_page", "B"),
        ("cluster.node_calls_per_op", "1/op"),
        ("cluster.self_ms_per_op", "ms"),
        ("cluster.failovers", "count"),
        ("cluster.read_repairs", "count"),
        ("setup.keyring_s", "s"),
        ("setup.sigpool_s", "s"),
        ("setup.migrate_s", "s"),
        ("setup.preload_s", "s"),
        ("setup.mount_ms", "ms"),
    ] {
        out.push((n.into(), u));
    }
    out.extend(timings(&Measured::default()).into_iter().map(|(n, _, u)| (n, u)));
    out.extend(host(&Measured::default()).into_iter().map(|(n, _, u)| (n, u)));
    for (n, u) in [
        ("bench.trace_overhead_pct", "%"),
        ("bench.error_rate", "ratio"),
        ("bench.traced_ops", "count"),
        ("bench.pool_refill_s", "s"),
    ] {
        out.push((n.into(), u));
    }
    out
}

/// The per-layer ledger, from the traced run. Keys are the names of
/// [`per_layer_names`]; a layer the workload does not reach reads 0 and is
/// listed in the returned "absent" set.
pub fn per_layer(m: &Measured, micro: &CryptoMicro) -> (BTreeMap<String, f64>, Vec<String>) {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let ops = m.records.len() as f64;
    let traced: Vec<&OpRecord> = m.records.iter().filter(|r| r.op != 0).collect();
    let n_traced = traced.len() as f64;
    let selfs = trace::self_times(&m.spans);
    let by_id: HashMap<u64, usize> = m.spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();

    // core: op self time (outside the transport wrapper), crypto time.
    for k in OpKind::ALL {
        let of: Vec<&&OpRecord> = traced.iter().filter(|r| r.kind == k).collect();
        let n = of.len() as f64;
        let wall: f64 = total(of.iter().map(|r| r.ns as f64));
        let crypto: f64 = total(of.iter().map(|r| r.crypto_ns as f64));
        let self_ns = total(of.iter().filter_map(|r| by_id.get(&r.op)).map(|i| selfs[*i] as f64));
        v.insert(format!("core.self_ms.{}", k.name()), ratio(self_ns, n) / 1e6);
        v.insert(format!("core.crypto_ms.{}", k.name()), ratio(crypto, n) / 1e6);
        v.insert(format!("core.crypto_share.{}", k.name()), ratio(crypto, wall));
    }
    v.insert(
        "core.cache_hit_ratio".into(),
        ratio(m.cache.hits as f64, (m.cache.hits + m.cache.misses) as f64),
    );

    v.insert("crypto.aes_ctr_mib_s".into(), micro.aes_ctr_mib_s);
    v.insert("crypto.sha256_mib_s".into(), micro.sha256_mib_s);
    v.insert("crypto.esign_sign_us".into(), micro.esign_sign_us);
    v.insert("crypto.rsa_sign_us".into(), micro.rsa_sign_us);
    v.insert("crypto.rsa_over_esign_sign".into(), ratio(micro.rsa_sign_us, micro.esign_sign_us));

    // net: wire-boundary spans of traced ops; per-verb call and handle
    // times over every call of the timed phase, so both means cover the
    // same calls.
    let net = m.spans.iter().filter(|s| s.op != 0 && s.layer == "net").count();
    v.insert("net.calls_per_op".into(), ratio(m.cost.round_trips as f64, ops));
    v.insert("net.req_bytes_per_op".into(), ratio(m.cost.bytes_up as f64, ops));
    v.insert("net.resp_bytes_per_op".into(), ratio(m.cost.bytes_down as f64, ops));
    v.insert("net.codec_us_per_call".into(), codec_us_per_call(&m.frames));
    for (verb, (count, sum)) in LEDGER_VERBS.iter().zip(&m.ssp_handle) {
        let (calls, call_ns) = m.net_calls.get(verb).copied().unwrap_or_default();
        let call_ms = ratio(call_ns as f64, calls as f64) / 1e6;
        let handle_ms = ratio(*sum as f64, *count as f64) / 1e6;
        v.insert(format!("net.call_ms.{verb}"), call_ms);
        v.insert(format!("ssp.handle_ms.{verb}"), handle_ms);
        v.insert(
            format!("ssp.transit_ms.{verb}"),
            if calls == 0 { 0.0 } else { call_ms - handle_ms },
        );
    }
    v.insert("ssp.objects".into(), m.ssp_objects as f64);
    v.insert("ssp.bytes".into(), m.ssp_bytes as f64);

    let wal = m.wal.unwrap_or_default();
    v.insert("ssp.wal.fsyncs_per_op".into(), ratio(wal.fsyncs as f64, ops));
    v.insert("ssp.wal.fsync_ms_per_op".into(), ratio(wal.sync_ns as f64, ops) / 1e6);
    v.insert(
        "ssp.wal.bytes_written_per_user_byte".into(),
        ratio(wal.append_bytes as f64, m.user_bytes_written as f64),
    );
    v.insert("ssp.wal.compactions".into(), wal.checkpoints as f64);
    v.insert(
        "ssp.wal.checkpoint_ms".into(),
        ratio(wal.checkpoint_ns as f64, wal.checkpoints as f64) / 1e6,
    );

    let idx = index_replay(&m.initial_keys, &m.events);
    v.insert("index.root_rebuilds_per_op".into(), ratio(idx.rebuilds as f64, ops));
    v.insert("index.root_ms_after_mutation".into(), idx.root_ms);
    v.insert("index.prove_ms_per_page".into(), idx.prove_ms);
    v.insert("index.proof_bytes_per_page".into(), idx.proof_bytes);

    let cluster_self = total(
        m.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.op != 0 && s.layer == "cluster")
            .map(|(_, t)| *t as f64),
    );
    let cl = m.cluster.unwrap_or_default();
    let node_calls = if m.cluster.is_some() { net as f64 } else { 0.0 };
    v.insert("cluster.node_calls_per_op".into(), ratio(node_calls, n_traced));
    v.insert("cluster.self_ms_per_op".into(), ratio(cluster_self, n_traced) / 1e6);
    v.insert("cluster.failovers".into(), cl.failovers as f64);
    v.insert("cluster.read_repairs".into(), cl.read_repairs as f64);

    let med = |f: fn(&SetupTimes) -> f64| median(&m.setups.iter().map(f).collect::<Vec<_>>());
    v.insert("setup.keyring_s".into(), med(|s| s.keyring_s));
    v.insert("setup.sigpool_s".into(), med(|s| s.sigpool_s));
    v.insert("setup.migrate_s".into(), med(|s| s.migrate_s));
    v.insert("setup.preload_s".into(), med(|s| s.preload_s));
    v.insert("setup.mount_ms".into(), med(|s| s.mount_ms));

    v.extend(timings(m).into_iter().chain(host(m)).map(|(n, x, _)| (n, x)));
    v.insert("bench.trace_overhead_pct".into(), trace_overhead_pct(&m.records));
    v.insert("bench.error_rate".into(), ratio(m.failed() as f64, ops));
    v.insert("bench.traced_ops".into(), n_traced);
    v.insert("bench.pool_refill_s".into(), m.pool_refill_s);

    let mut absent = Vec::new();
    if m.wal.is_none() {
        absent.push("ssp.wal.*".to_string());
    }
    if m.cluster.is_none() {
        absent.push("cluster.*".to_string());
    }
    for k in OpKind::ALL {
        if !m.records.iter().any(|r| r.kind == k) {
            absent.push(format!("{} ops", k.name()));
        }
    }
    (v, absent)
}

/// Latency cost of tracing: per op kind, median traced over median
/// untraced latency, weighted by op count, as a percentage above 1.
pub fn trace_overhead_pct(records: &[OpRecord]) -> f64 {
    let (mut weighted, mut weight) = (0.0, 0.0);
    for k in OpKind::ALL {
        let pick = |traced: bool| -> Vec<f64> {
            records
                .iter()
                .filter(|r| r.ok && r.kind == k && (r.op != 0) == traced)
                .map(|r| r.ns as f64)
                .collect()
        };
        let (t, u) = (pick(true), pick(false));
        if t.len() >= 5 && u.len() >= 5 {
            let n = (t.len() + u.len()) as f64;
            weighted += n * median(&t) / median(&u);
            weight += n;
        }
    }
    (ratio(weighted, weight) - 1.0) * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn replay_counts_rebuilds_only_after_changes() {
        let k = |i| ObjectKey::data(i, [0; 16], 0);
        let initial: Vec<ObjectKey> = (0..100).map(k).collect();
        let events = vec![
            KeyEvent::Scan(None, 8),
            KeyEvent::Put(k(5)), // already present: no change
            KeyEvent::Scan(Some(k(3)), 8),
            KeyEvent::Put(k(500)),
            KeyEvent::Scan(None, 8),
            KeyEvent::DeleteBlocks(7, [0; 16]),
            KeyEvent::Scan(None, 8),
        ];
        let r = index_replay(&initial, &events);
        assert_eq!(r.pages, 4);
        assert_eq!(r.rebuilds, 2);
        assert!(r.proof_bytes > 0.0);
    }
}

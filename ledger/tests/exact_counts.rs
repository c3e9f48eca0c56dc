//! The deterministic work counts repeat exactly for a seed and op count,
//! and `BENCHMARK.json` lists exactly the metrics the benchmark prints.

use sharoes_ledger::ledger::{end_to_end, per_layer_names, Measured};
use sharoes_ledger::{run, Opts, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

fn measure(workload: Workload, ops: u64) -> Measured {
    let mut opts = Opts::new(workload, 7);
    opts.ops = Some(ops);
    opts.setups = 1;
    opts.out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(workload.name());
    let m = run(&opts);
    assert_eq!(m.failed(), 0, "{}: {:?}", workload.name(), m.failures);
    // A loop iteration may run a couple of ops past the count (create is
    // followed by its write; share-scan pairs owner and grantee ops).
    assert!(m.attempted() >= ops && m.attempted() <= ops + 3, "{}", m.attempted());
    m
}

fn picked(m: &Measured, names: &[&str]) -> BTreeMap<String, f64> {
    end_to_end(m)
        .into_iter()
        .filter(|(n, _, _)| names.contains(&n.as_str()))
        .map(|(n, v, _)| (n, v))
        .collect()
}

fn assert_repeats(workload: Workload, ops: u64, e2e: &[&str]) {
    let (a, b) = (measure(workload, ops), measure(workload, ops));
    assert!(!a.counts.is_empty());
    assert_eq!(a.counts, b.counts, "{}: counts differ between identical runs", workload.name());
    assert_eq!(picked(&a, e2e), picked(&b, e2e), "{}", workload.name());
    assert_eq!(picked(&a, e2e).len(), e2e.len());
}

const BYTE_COUNTS: [&str; 3] =
    ["round_trips_per_op", "wire_bytes_per_op", "ssp_bytes_per_user_byte"];

#[test]
fn meta_counts_repeat_exactly() {
    assert_repeats(Workload::Meta, 300, &BYTE_COUNTS);
}

#[test]
fn share_scan_counts_repeat_exactly() {
    assert_repeats(Workload::ShareScan, 120, &BYTE_COUNTS);
}

#[test]
fn data_wal_per_user_counts_and_fsyncs_repeat_exactly() {
    // Two users race on two threads, so only per-user traffic and the
    // engine's fsync count (one per record) are fixed; `counts` holds both.
    let (a, b) = (measure(Workload::DataWal, 160), measure(Workload::DataWal, 160));
    assert!(a.counts.contains_key("wal.fsyncs") && a.counts["wal.fsyncs"] > 0);
    assert_eq!(a.counts, b.counts);
}

#[test]
fn benchmark_json_lists_every_printed_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let (head, per_layer) = text.split_once("\"per_layer\"").expect("per_layer section");
    let (_, e2e) = head.split_once("\"end_to_end\"").expect("end_to_end section");
    let listed = |part: &str| -> Vec<String> {
        part.split('"')
            .collect::<Vec<_>>()
            .windows(4)
            .filter(|w| w[1] == "name")
            .map(|w| w[3].to_string())
            .collect()
    };
    let printed_e2e: Vec<String> =
        end_to_end(&Measured::default()).into_iter().map(|(n, _, _)| n).collect();
    let printed_layers: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(listed(e2e), printed_e2e);
    assert_eq!(listed(per_layer), printed_layers);
}

//! # sharoes-ledger
//!
//! One end-to-end benchmark of Sharoes with a traced per-layer ledger. It
//! drives real `SharoesClient` mounts through three workloads (`meta`,
//! `data-wal`, `share-scan`; see `README.md` in this directory), checks
//! every result against a seeded model, and reports end-to-end metrics
//! from an untraced run or the per-layer ledger from a traced run.

pub mod data_wal;
pub mod deploy;
pub mod ledger;
pub mod meta;
pub mod share_scan;
pub mod trace;
pub mod wrap;

use ledger::Measured;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The workloads, by their command-line names.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Postmark-style metadata mix, one user over pipelined TCP, memory
    /// backend, cache holds the file set.
    Meta,
    /// Whole-file reads and overwrites of 64 KiB files by two users on the
    /// WAL engine, caches a quarter of the working set.
    DataWal,
    /// Owner mutations, revocations and verified scans against a grantee's
    /// reads, on a 3-node R=2 cluster holding at least 50k objects.
    ShareScan,
}

impl Workload {
    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "meta" => Some(Workload::Meta),
            "data-wal" => Some(Workload::DataWal),
            "share-scan" => Some(Workload::ShareScan),
            _ => None,
        }
    }

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Meta => "meta",
            Workload::DataWal => "data-wal",
            Workload::ShareScan => "share-scan",
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// How one run is driven. The command line sets the workload, seed,
/// seconds and trace; the other fields are for the exact-count test.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Fixed op count instead of a timed phase (exact-count checks).
    pub ops: Option<u64>,
    /// Traced run: the per-layer ledger instead of end-to-end metrics.
    pub trace: bool,
    /// Set-up repetitions ([`SETUPS`]); `setup_s` is their median.
    pub setups: usize,
    /// Scratch directory for the WAL engine and the result files.
    pub out_dir: PathBuf,
}

impl Opts {
    /// Default driving for `workload` and `seed`.
    pub fn new(workload: Workload, seed: u64) -> Opts {
        Opts {
            workload,
            seed,
            seconds: 10.0,
            ops: None,
            trace: false,
            setups: SETUPS,
            out_dir: PathBuf::from(".ledger_out"),
        }
    }
}

/// CPU time as `/proc` accounts it, in seconds: this process's user +
/// system time, and the machine's steal time (vCPUs kept waiting while the
/// hypervisor ran other guests) and total time over all CPUs. Zero where
/// `/proc` is absent.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuSample {
    /// This process, all threads (client, server and pool workers alike).
    pub process_s: f64,
    /// Steal time over all CPUs.
    pub steal_s: f64,
    /// Every accounted state over all CPUs, steal included.
    pub total_s: f64,
}

impl CpuSample {
    /// Current totals (`/proc` counts in clock ticks of 1/100 s).
    pub fn now() -> CpuSample {
        let ticks = |fields: &[&str]| -> Vec<f64> {
            fields.iter().map(|f| f.parse::<f64>().unwrap_or(0.0) / 100.0).collect()
        };
        let process_s = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                // Fields after the parenthesised command name: utime and
                // stime are the 12th and 13th.
                let rest = s.rsplit_once(") ")?.1.split_whitespace().collect::<Vec<_>>();
                Some(ticks(rest.get(11..13)?).iter().sum())
            })
            .unwrap_or(0.0);
        let (steal_s, total_s) = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().next()?.split_whitespace().skip(1).collect::<Vec<_>>();
                // user nice system idle iowait irq softirq steal
                let t = ticks(cpu.get(..8)?);
                Some((t[7], t.iter().sum()))
            })
            .unwrap_or((0.0, 0.0));
        CpuSample { process_s, steal_s, total_s }
    }

    /// Component-wise `self - earlier`.
    pub fn since(&self, earlier: &CpuSample) -> CpuSample {
        CpuSample {
            process_s: self.process_s - earlier.process_s,
            steal_s: self.steal_s - earlier.steal_s,
            total_s: self.total_s - earlier.total_s,
        }
    }
}

/// When a client's timed phase ends: after a wall-clock budget, or after a
/// fixed number of ops. Time spent topping up the signing-key pool is
/// excluded from the budget and from the measured wall time.
pub struct Clock {
    start: Instant,
    paused: Duration,
    cpu0: CpuSample,
    paused_cpu_s: f64,
    budget: Duration,
    ops: Option<u64>,
}

impl Clock {
    /// Starts a phase of `seconds` or of `ops` ops.
    pub fn start(seconds: f64, ops: Option<u64>) -> Clock {
        Clock {
            start: Instant::now(),
            paused: Duration::ZERO,
            cpu0: CpuSample::now(),
            paused_cpu_s: 0.0,
            budget: Duration::from_secs_f64(seconds),
            ops,
        }
    }

    /// Measured wall time so far.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed().saturating_sub(self.paused)
    }

    /// True once the phase is over, given the ops run so far.
    pub fn done(&self, ops_run: u64) -> bool {
        match self.ops {
            Some(n) => ops_run >= n,
            None => self.elapsed() >= self.budget,
        }
    }

    /// Time the clock has been stopped.
    pub fn paused_total(&self) -> Duration {
        self.paused
    }

    /// CPU accounting since the start, the process's CPU time inside
    /// pauses excluded.
    pub fn cpu(&self) -> CpuSample {
        let mut d = CpuSample::now().since(&self.cpu0);
        d.process_s -= self.paused_cpu_s;
        d
    }

    /// Runs `f` with the clock stopped.
    pub fn paused<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (t, cpu) = (Instant::now(), CpuSample::now());
        let out = f();
        self.paused += t.elapsed();
        self.paused_cpu_s += CpuSample::now().since(&cpu).process_s;
        out
    }
}

/// Keeps at least 64 signing pairs pooled, refilling 256 at a time from a
/// deterministic seed sequence (`round` counts the refills), so no op pays
/// for key generation inside its own latency.
pub fn top_up_pool(pool: &sharoes_core::SigKeyPool, round: &mut u64) {
    if pool.len() < 64 {
        *round += 1;
        pool.prefill_parallel(256, deploy::KEY_SEED ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Measured {
    std::fs::create_dir_all(&opts.out_dir).expect("create the output directory");
    match opts.workload {
        Workload::Meta => meta::run(opts),
        Workload::DataWal => data_wal::run(opts),
        Workload::ShareScan => share_scan::run(opts),
    }
}

//! Cost accounting: the NETWORK / CRYPTO / OTHER decomposition of Figure 13.
//!
//! Every client operation charges bytes and round trips to a [`CostMeter`];
//! crypto sections are timed with [`CostMeter::time_crypto`]. The benchmark
//! harness turns byte counts into seconds with a [`crate::netmodel::NetModel`]
//! so results are independent of the machine the reproduction runs on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Cached global-registry handles mirrored by every [`CostMeter`] charge
/// point. Meters are per-link/per-client; these are the process-wide
/// totals a running `sspd` exports over `Request::Metrics`.
struct WireMetrics {
    round_trips: sharoes_obs::Counter,
    tx_bytes: sharoes_obs::Counter,
    rx_bytes: sharoes_obs::Counter,
    frame_tx_bytes: sharoes_obs::Histogram,
    frame_rx_bytes: sharoes_obs::Histogram,
    retries: sharoes_obs::Counter,
    reconnects: sharoes_obs::Counter,
    faults: sharoes_obs::Counter,
    crypto_ns: sharoes_obs::Counter,
    other_ns: sharoes_obs::Counter,
}

fn wire_metrics() -> &'static WireMetrics {
    static METRICS: OnceLock<WireMetrics> = OnceLock::new();
    METRICS.get_or_init(|| WireMetrics {
        round_trips: sharoes_obs::counter("net_round_trips_total"),
        tx_bytes: sharoes_obs::counter("net_tx_bytes_total"),
        rx_bytes: sharoes_obs::counter("net_rx_bytes_total"),
        frame_tx_bytes: sharoes_obs::histogram_bytes("net_frame_tx_bytes"),
        frame_rx_bytes: sharoes_obs::histogram_bytes("net_frame_rx_bytes"),
        retries: sharoes_obs::counter("net_retries_total"),
        reconnects: sharoes_obs::counter("net_reconnects_total"),
        faults: sharoes_obs::counter("net_faults_injected_total"),
        crypto_ns: sharoes_obs::counter("net_crypto_ns"),
        other_ns: sharoes_obs::counter("net_other_ns"),
    })
}

/// Shared, thread-safe accumulator of operation costs.
#[derive(Debug, Default)]
pub struct CostMeter {
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
    round_trips: AtomicU64,
    crypto_ns: AtomicU64,
    crypto_ops: AtomicU64,
    other_ns: AtomicU64,
    retries: AtomicU64,
    reconnects: AtomicU64,
    faults_injected: AtomicU64,
}

/// A snapshot of accumulated costs, or the delta between two snapshots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CostSample {
    /// Bytes sent client → SSP.
    pub bytes_up: u64,
    /// Bytes received SSP → client.
    pub bytes_down: u64,
    /// Request/response round trips.
    pub round_trips: u64,
    /// Nanoseconds spent in cryptographic operations.
    pub crypto_ns: u64,
    /// Timed crypto sections charged (one per [`CostMeter::charge_crypto_ns`]).
    pub crypto_ops: u64,
    /// Nanoseconds spent in other local processing.
    pub other_ns: u64,
    /// Requests re-sent by the resilience layer after a retryable failure.
    pub retries: u64,
    /// Fresh connections established after a connection was torn down.
    pub reconnects: u64,
    /// Faults a fault-injecting transport deliberately introduced.
    pub faults_injected: u64,
}

impl CostSample {
    /// Component-wise difference (`self - earlier`); saturates at zero.
    pub fn since(&self, earlier: &CostSample) -> CostSample {
        CostSample {
            bytes_up: self.bytes_up.saturating_sub(earlier.bytes_up),
            bytes_down: self.bytes_down.saturating_sub(earlier.bytes_down),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
            crypto_ns: self.crypto_ns.saturating_sub(earlier.crypto_ns),
            crypto_ops: self.crypto_ops.saturating_sub(earlier.crypto_ops),
            other_ns: self.other_ns.saturating_sub(earlier.other_ns),
            retries: self.retries.saturating_sub(earlier.retries),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &CostSample) -> CostSample {
        CostSample {
            bytes_up: self.bytes_up + other.bytes_up,
            bytes_down: self.bytes_down + other.bytes_down,
            round_trips: self.round_trips + other.round_trips,
            crypto_ns: self.crypto_ns + other.crypto_ns,
            crypto_ops: self.crypto_ops + other.crypto_ops,
            other_ns: self.other_ns + other.other_ns,
            retries: self.retries + other.retries,
            reconnects: self.reconnects + other.reconnects,
            faults_injected: self.faults_injected + other.faults_injected,
        }
    }
}

impl CostMeter {
    /// A fresh meter wrapped for sharing.
    pub fn new_shared() -> Arc<CostMeter> {
        Arc::new(CostMeter::default())
    }

    /// Charges one round trip of `up` request bytes and `down` response bytes.
    pub fn charge_round_trip(&self, up: u64, down: u64) {
        self.bytes_up.fetch_add(up, Ordering::Relaxed);
        self.bytes_down.fetch_add(down, Ordering::Relaxed);
        self.round_trips.fetch_add(1, Ordering::Relaxed);
        let wire = wire_metrics();
        wire.round_trips.inc();
        wire.tx_bytes.add(up);
        wire.rx_bytes.add(down);
        wire.frame_tx_bytes.observe(up);
        wire.frame_rx_bytes.observe(down);
    }

    /// Counts one request retry.
    pub fn charge_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        wire_metrics().retries.inc();
    }

    /// Counts one reconnect.
    pub fn charge_reconnect(&self) {
        self.reconnects.fetch_add(1, Ordering::Relaxed);
        wire_metrics().reconnects.inc();
    }

    /// Counts one deliberately injected fault.
    pub fn charge_fault(&self) {
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        wire_metrics().faults.inc();
    }

    /// Adds already-measured time of one crypto section.
    pub fn charge_crypto_ns(&self, ns: u64) {
        self.crypto_ns.fetch_add(ns, Ordering::Relaxed);
        self.crypto_ops.fetch_add(1, Ordering::Relaxed);
        wire_metrics().crypto_ns.add(ns);
    }

    /// Adds already-measured other-processing time.
    pub fn charge_other_ns(&self, ns: u64) {
        self.other_ns.fetch_add(ns, Ordering::Relaxed);
        wire_metrics().other_ns.add(ns);
    }

    /// Runs `f`, attributing its wall time to the CRYPTO component.
    pub fn time_crypto<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.charge_crypto_ns(start.elapsed().as_nanos() as u64);
        out
    }

    /// Runs `f`, attributing its wall time to the OTHER component.
    pub fn time_other<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.charge_other_ns(start.elapsed().as_nanos() as u64);
        out
    }

    /// Current totals.
    pub fn sample(&self) -> CostSample {
        CostSample {
            bytes_up: self.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.bytes_down.load(Ordering::Relaxed),
            round_trips: self.round_trips.load(Ordering::Relaxed),
            crypto_ns: self.crypto_ns.load(Ordering::Relaxed),
            crypto_ops: self.crypto_ops.load(Ordering::Relaxed),
            other_ns: self.other_ns.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            faults_injected: self.faults_injected.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.bytes_up.store(0, Ordering::Relaxed);
        self.bytes_down.store(0, Ordering::Relaxed);
        self.round_trips.store(0, Ordering::Relaxed);
        self.crypto_ns.store(0, Ordering::Relaxed);
        self.crypto_ops.store(0, Ordering::Relaxed);
        self.other_ns.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.reconnects.store(0, Ordering::Relaxed);
        self.faults_injected.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate() {
        let m = CostMeter::default();
        m.charge_round_trip(100, 200);
        m.charge_round_trip(1, 2);
        m.charge_crypto_ns(500);
        let s = m.sample();
        assert_eq!(s.bytes_up, 101);
        assert_eq!(s.bytes_down, 202);
        assert_eq!(s.round_trips, 2);
        assert_eq!(s.crypto_ns, 500);
        assert_eq!(s.crypto_ops, 1);
    }

    #[test]
    fn delta_between_snapshots() {
        let m = CostMeter::default();
        m.charge_round_trip(10, 10);
        let before = m.sample();
        m.charge_round_trip(5, 7);
        let delta = m.sample().since(&before);
        assert_eq!(delta.bytes_up, 5);
        assert_eq!(delta.bytes_down, 7);
        assert_eq!(delta.round_trips, 1);
    }

    #[test]
    fn timers_attribute_components() {
        let m = CostMeter::default();
        m.time_crypto(std::thread::yield_now);
        m.time_other(std::thread::yield_now);
        let s = m.sample();
        // Both should be > 0 on any real clock; tolerate 0 only for crypto_ns
        // equality check stability by asserting the calls registered at all.
        assert!(s.crypto_ns > 0 || s.other_ns > 0 || cfg!(miri));
    }

    #[test]
    fn reset_clears() {
        let m = CostMeter::default();
        m.charge_round_trip(1, 1);
        m.reset();
        assert_eq!(m.sample(), CostSample::default());
    }

    #[test]
    fn plus_sums() {
        let a = CostSample {
            bytes_up: 1,
            bytes_down: 2,
            round_trips: 3,
            crypto_ns: 4,
            crypto_ops: 9,
            other_ns: 5,
            retries: 6,
            reconnects: 7,
            faults_injected: 8,
        };
        let b = a.plus(&a);
        assert_eq!(b.bytes_up, 2);
        assert_eq!(b.other_ns, 10);
        assert_eq!(b.retries, 12);
        assert_eq!(b.faults_injected, 16);
    }

    #[test]
    fn resilience_counters_accumulate_and_delta() {
        let m = CostMeter::default();
        m.charge_retry();
        m.charge_retry();
        m.charge_reconnect();
        m.charge_fault();
        let before = m.sample();
        assert_eq!(before.retries, 2);
        assert_eq!(before.reconnects, 1);
        assert_eq!(before.faults_injected, 1);
        m.charge_retry();
        let delta = m.sample().since(&before);
        assert_eq!(delta.retries, 1);
        assert_eq!(delta.reconnects, 0);
        m.reset();
        assert_eq!(m.sample(), CostSample::default());
    }

    #[test]
    fn shared_across_threads() {
        let m = CostMeter::new_shared();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        m.charge_round_trip(1, 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.sample().round_trips, 8000);
    }
}

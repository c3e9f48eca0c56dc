//! Random sources: the OS-backed generator and a deterministic HMAC-DRBG.
//!
//! All randomness used by key generation, padding, and IVs flows through the
//! [`RandomSource`] trait so tests and benchmarks can substitute the
//! reproducible [`HmacDrbg`] (NIST SP 800-90A HMAC_DRBG over SHA-256) for the
//! system generator.

use crate::hmac::HmacKey;
use crate::sha256::Sha256;

/// A source of random bytes.
pub trait RandomSource {
    /// Fills `buf` with random bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]);

    /// Returns a random 64-bit value.
    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_be_bytes(b)
    }
}

/// OS-backed randomness.
///
/// Reads `/dev/urandom` where available; on platforms without it, falls back
/// to an [`HmacDrbg`] seeded from process-unique entropy (clock, pid, thread
/// id, stack address). The fallback is not suitable for production key
/// material, but every production path can inject its own [`RandomSource`].
pub struct SystemRandom(SystemSource);

enum SystemSource {
    Dev(std::fs::File),
    Fallback(Box<HmacDrbg>),
}

impl SystemRandom {
    /// Opens a handle to the OS generator (or the seeded fallback).
    pub fn new() -> Self {
        match std::fs::File::open("/dev/urandom") {
            Ok(f) => SystemRandom(SystemSource::Dev(f)),
            Err(_) => SystemRandom(SystemSource::Fallback(Box::new(Self::fallback_drbg()))),
        }
    }

    fn fallback_drbg() -> HmacDrbg {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let mut seed = Vec::with_capacity(64);
        let now =
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap_or_default();
        seed.extend_from_slice(&now.as_nanos().to_be_bytes());
        seed.extend_from_slice(&std::process::id().to_be_bytes());
        let stack_probe = 0u8;
        seed.extend_from_slice(&(&stack_probe as *const u8 as usize).to_be_bytes());
        seed.extend_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_be_bytes());
        let tid = std::thread::current().id();
        seed.extend_from_slice(format!("{tid:?}").as_bytes());
        HmacDrbg::new(&seed)
    }
}

impl Default for SystemRandom {
    fn default() -> Self {
        Self::new()
    }
}

impl RandomSource for SystemRandom {
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        match &mut self.0 {
            SystemSource::Dev(f) => {
                use std::io::Read;
                if f.read_exact(buf).is_err() {
                    // A torn read from /dev/urandom should be impossible;
                    // degrade to the fallback rather than panic.
                    let mut drbg = Self::fallback_drbg();
                    drbg.fill_bytes(buf);
                    self.0 = SystemSource::Fallback(Box::new(drbg));
                }
            }
            SystemSource::Fallback(drbg) => drbg.fill_bytes(buf),
        }
    }
}

/// Deterministic HMAC-DRBG (SHA-256) per NIST SP 800-90A.
///
/// Two instances created with the same seed produce identical streams, which
/// makes key generation in tests and benchmark fixtures reproducible.
#[derive(Clone)]
pub struct HmacDrbg {
    /// The HMAC key `K`, kept with its padded blocks absorbed.
    k: HmacKey<Sha256>,
    v: [u8; 32],
    reseed_counter: u64,
}

impl HmacDrbg {
    /// Instantiates the DRBG from seed material.
    pub fn new(seed: &[u8]) -> Self {
        let mut drbg = HmacDrbg { k: HmacKey::new(&[0u8; 32]), v: [1u8; 32], reseed_counter: 1 };
        drbg.update(Some(seed));
        drbg
    }

    /// Convenience constructor from a 64-bit seed.
    pub fn from_seed_u64(seed: u64) -> Self {
        Self::new(&seed.to_be_bytes())
    }

    /// Mixes additional entropy into the state.
    pub fn reseed(&mut self, seed: &[u8]) {
        self.update(Some(seed));
        self.reseed_counter = 1;
    }

    /// `K = HMAC(K, V || 0x00 || data); V = HMAC(K, V)`, and when data is
    /// present once more with `0x01`.
    fn update(&mut self, data: Option<&[u8]>) {
        self.k = HmacKey::new(&self.k.mac(&[&self.v, &[0x00], data.unwrap_or_default()]));
        self.v = self.k.mac(&[&self.v]);
        if let Some(d) = data {
            self.k = HmacKey::new(&self.k.mac(&[&self.v, &[0x01], d]));
            self.v = self.k.mac(&[&self.v]);
        }
    }
}

impl RandomSource for HmacDrbg {
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(32) {
            self.v = self.k.mac(&[&self.v]);
            chunk.copy_from_slice(&self.v[..chunk.len()]);
        }
        self.update(None);
        self.reseed_counter += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drbg_is_deterministic() {
        let mut a = HmacDrbg::new(b"seed material");
        let mut b = HmacDrbg::new(b"seed material");
        let mut ba = [0u8; 77];
        let mut bb = [0u8; 77];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba.to_vec(), bb.to_vec());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = HmacDrbg::new(b"seed-a");
        let mut b = HmacDrbg::new(b"seed-b");
        let mut ba = [0u8; 32];
        let mut bb = [0u8; 32];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_ne!(ba, bb);
    }

    #[test]
    fn successive_outputs_differ() {
        let mut a = HmacDrbg::from_seed_u64(42);
        let x = a.next_u64();
        let y = a.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn reseed_changes_stream() {
        let mut a = HmacDrbg::from_seed_u64(7);
        let mut b = HmacDrbg::from_seed_u64(7);
        b.reseed(b"extra");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn system_random_produces_nonconstant_output() {
        let mut r = SystemRandom::new();
        let mut buf = [0u8; 64];
        r.fill_bytes(&mut buf);
        assert!(
            buf.iter().any(|&b| b != 0) || {
                // Astronomically unlikely; retry once to avoid a flaky test.
                r.fill_bytes(&mut buf);
                buf.iter().any(|&b| b != 0)
            }
        );
    }
}

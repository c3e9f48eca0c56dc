//! Golden key-material test: fixed seeds must keep producing the same keys.
//!
//! Sharoes deployments and every pinned-seed gate derive their signing pairs
//! and identity keys from seeded [`HmacDrbg`] streams, so any change to the
//! prime search, the Montgomery kernel, SHA-256 or the DRBG must leave the
//! output bit-identical. This test folds ESIGN-768 key pairs (the size the
//! signing pools use), an RSA-2048 key pair, an ESIGN and an RSA signature,
//! an RSA ciphertext and the DRBG bytes that follow into one SHA-256 digest.
//! The pinned digest was computed before the allocation-free Montgomery
//! kernel, grouped trial division and the SHA-NI compress were introduced.

use sharoes_crypto::esign::EsignPrivateKey;
use sharoes_crypto::{BigUint, Digest, HmacDrbg, RandomSource, RsaPrivateKey, Sha256};

const GOLDEN: &str = "2cf2169eb3094e2c707425a8ace8f9dfff60df653b09f3ba60420e60a8da00fc";

/// Digest of the other key sizes the workspace uses (test, CLI and bench
/// parameters), computed before the same changes.
const GOLDEN_OTHER_SIZES: &str = "0ea49eb479bf00439544ffeb6cc03b9ab7286f3ba781f86f3a2a4b5979376f4b";

/// Number of ESIGN-768 key pairs folded into the digest.
const ESIGN_KEYS: usize = 20;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden_digest() -> String {
    let mut rng = HmacDrbg::from_seed_u64(0x5AA0_E5C0_601D);
    let mut h = Sha256::new();
    let mut esign = Vec::with_capacity(ESIGN_KEYS);
    for _ in 0..ESIGN_KEYS {
        let key = EsignPrivateKey::generate(768, &mut rng).unwrap();
        h.update(&key.to_bytes());
        h.update(&key.public_key().to_bytes());
        esign.push(key);
    }
    let rsa = RsaPrivateKey::generate(2048, &mut rng).unwrap();
    h.update(&rsa.to_bytes());
    h.update(&rsa.public_key().to_bytes());

    let msg = b"sharoes golden key material";
    let sig = esign[0].sign(&mut rng, msg);
    esign[0].public_key().verify(msg, &sig).unwrap();
    h.update(&sig);
    let sig = rsa.sign(msg);
    rsa.public_key().verify(msg, &sig).unwrap();
    h.update(&sig);
    let ct = rsa.public_key().encrypt(&mut rng, msg).unwrap();
    assert_eq!(rsa.decrypt(&ct).unwrap(), msg);
    h.update(&ct);

    let mut tail = [0u8; 256];
    rng.fill_bytes(&mut tail);
    h.update(&tail);
    hex(&h.finalize_vec())
}

/// RSA-512/1024 and ESIGN-384/1026/1536 keys plus one signature each,
/// `random_bits` draws of widths that are not whole bytes, then the DRBG
/// tail: prime and modulus widths from 2 to 24 limbs.
fn other_sizes_digest() -> String {
    let mut rng = HmacDrbg::from_seed_u64(0x5AA0_E5C0_0715);
    let mut h = Sha256::new();
    let msg = b"sharoes golden key material";
    for bits in [512, 1024] {
        let key = RsaPrivateKey::generate(bits, &mut rng).unwrap();
        h.update(&key.to_bytes());
        h.update(&key.sign(msg));
    }
    // ESIGN-1026 draws 342-bit primes, whose top byte is masked.
    for bits in [384, 1026, 1536] {
        let key = EsignPrivateKey::generate(bits, &mut rng).unwrap();
        h.update(&key.to_bytes());
        h.update(&key.sign(&mut rng, msg));
    }
    for bits in [1, 7, 9, 63, 65, 342] {
        h.update(&BigUint::random_bits(&mut rng, bits).to_bytes_be());
    }
    let mut tail = [0u8; 100];
    rng.fill_bytes(&mut tail);
    h.update(&tail);
    hex(&h.finalize_vec())
}

#[test]
fn seeded_keys_signatures_and_drbg_tail_are_bit_identical() {
    assert_eq!(golden_digest(), GOLDEN);
}

#[test]
fn other_key_sizes_are_bit_identical() {
    assert_eq!(other_sizes_digest(), GOLDEN_OTHER_SIZES);
}

//! HMAC (RFC 2104), generic over the [`Digest`] trait.
//!
//! Sharoes uses HMAC-SHA-256 both as the keyed hash that derives exec-only
//! directory-row keys from entry names (paper §III-A: "a keyed hash function
//! like MD5 or SHA1 with DEK_this as the key") and inside the deterministic
//! DRBG.

use crate::digest::Digest;
use crate::md5::Md5;
use crate::sha1::Sha1;
use crate::sha256::Sha256;

/// Computes `HMAC_D(key, message)`.
pub fn hmac<D: Digest>(key: &[u8], message: &[u8]) -> Vec<u8> {
    HmacKey::<D>::new(key).mac(&[message]).as_ref().to_vec()
}

/// An HMAC key with its padded blocks already absorbed: the inner and outer
/// hash states are cloned for each message, so a MAC under a reused key
/// costs no key-setup compressions and no allocation.
#[derive(Clone)]
pub(crate) struct HmacKey<D> {
    inner: D,
    outer: D,
}

impl<D: Digest> HmacKey<D> {
    /// Absorbs `key` (hashed first if longer than a block).
    pub(crate) fn new(key: &[u8]) -> Self {
        // Every digest here has a 64-byte block.
        let mut block = [0u8; 64];
        assert_eq!(D::BLOCK_LEN, block.len());
        if key.len() > block.len() {
            let hashed = D::hash(key);
            block[..hashed.len()].copy_from_slice(&hashed);
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let keyed = |x: u8| {
            let mut h = D::new();
            h.update(&block.map(|k| k ^ x));
            h
        };
        HmacKey { inner: keyed(0x36), outer: keyed(0x5c) }
    }

    /// The MAC of the concatenation of `parts`.
    pub(crate) fn mac(&self, parts: &[&[u8]]) -> D::Output {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_ref());
        outer.finalize()
    }
}

/// HMAC-SHA-256 returning a fixed array.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::<Sha256>::new(key).mac(&[message])
}

/// HMAC-SHA-1 returning a fixed array (paper-fidelity option).
pub fn hmac_sha1(key: &[u8], message: &[u8]) -> [u8; 20] {
    HmacKey::<Sha1>::new(key).mac(&[message])
}

/// HMAC-MD5 returning a fixed array (paper-fidelity option; broken, unused).
pub fn hmac_md5(key: &[u8], message: &[u8]) -> [u8; 16] {
    HmacKey::<Md5>::new(key).mac(&[message])
}

/// Constant-time byte-slice equality, for MAC comparisons.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let out = hmac_sha256(&key, b"Hi There");
        assert_eq!(hex(&out), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case2() {
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&out), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_long_key() {
        // Key longer than block size gets hashed first.
        let key = [0xaau8; 131];
        let out = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(hex(&out), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn rfc2202_hmac_sha1() {
        let key = [0x0bu8; 20];
        assert_eq!(hex(&hmac_sha1(&key, b"Hi There")), "b617318655057264e28bc0b6fb378c8ef146be00");
    }

    #[test]
    fn rfc2202_hmac_md5() {
        assert_eq!(
            hex(&hmac_md5(b"Jefe", b"what do ya want for nothing?")),
            "750c783e6ab0b503eaa86e310a5db738"
        );
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"Same"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }
}

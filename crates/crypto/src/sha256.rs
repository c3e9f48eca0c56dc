//! SHA-256 (FIPS 180-4).
//!
//! The compression function has two implementations with identical output:
//! the portable `compress_scalar` and, on x86-64 CPUs with the SHA
//! extensions, the SHA-NI compress in `sha256_ni`. `compress` picks one per
//! call from the CPU's reported features.

use crate::digest::Digest;

/// Round constants.
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 state.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Sha256 {
    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }
}

/// Compresses whole 64-byte `blocks` into `state`, with SHA-NI when the CPU
/// has it and the scalar rounds otherwise.
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if crate::sha256_ni::available() {
        return crate::sha256_ni::compress(state, blocks);
    }
    compress_scalar(state, blocks);
}

/// The portable compression function, one block at a time.
pub(crate) fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert!(blocks.len().is_multiple_of(64));
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;
    const NAME: &'static str = "SHA-256";
    type Output = [u8; 32];

    fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = data.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        // The buffered tail, 0x80, zeros and the 64-bit length fill one
        // block, or two when fewer than nine bytes of the first are free.
        let mut pad = [0u8; 128];
        let n = self.buf_len;
        pad[..n].copy_from_slice(&self.buf[..n]);
        pad[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &pad[..len]);
        let mut out = [0u8; 32];
        for (chunk, s) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&s.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&Sha256::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize_vec()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    type Compress = fn(&mut [u32; 8], &[u8]);

    /// One-shot digest through a chosen compress function.
    fn digest_with(compress: Compress, data: &[u8]) -> String {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &msg);
        hex(&state.iter().flat_map(|w| w.to_be_bytes()).collect::<Vec<_>>())
    }

    /// The compress functions this CPU can run: scalar always, SHA-NI when
    /// present.
    fn compressors() -> Vec<(&'static str, Compress)> {
        let mut out: Vec<(&'static str, Compress)> = vec![("scalar", compress_scalar)];
        #[cfg(target_arch = "x86_64")]
        if crate::sha256_ni::available() {
            out.push(("sha-ni", crate::sha256_ni::compress));
        }
        out
    }

    #[test]
    fn every_compress_path_passes_the_fips_vectors() {
        let million_a = vec![b'a'; 1_000_000];
        for (name, compress) in compressors() {
            assert_eq!(
                digest_with(compress, b"abc"),
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                "{name}"
            );
            assert_eq!(
                digest_with(compress, &million_a),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn sha_ni_compress_matches_scalar_on_random_blocks() {
        use crate::drbg::{HmacDrbg, RandomSource};
        #[cfg(target_arch = "x86_64")]
        if crate::sha256_ni::available() {
            let mut rng = HmacDrbg::from_seed_u64(0x5A_256);
            for blocks in [1usize, 2, 3, 7, 16] {
                for _ in 0..64 {
                    let mut data = vec![0u8; 64 * blocks];
                    rng.fill_bytes(&mut data);
                    let mut state = [0u32; 8];
                    for w in state.iter_mut() {
                        *w = rng.next_u64() as u32;
                    }
                    let mut ni = state;
                    compress_scalar(&mut state, &data);
                    crate::sha256_ni::compress(&mut ni, &data);
                    assert_eq!(ni, state, "{blocks} blocks");
                }
            }
            return;
        }
        eprintln!("SHA-NI not available on this CPU; only the scalar path ran");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..997u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 996, 997] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize_vec(), Sha256::digest(&data).to_vec(), "split={split}");
        }
    }
}

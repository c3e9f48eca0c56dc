//! A minimal incremental-hash trait shared by SHA-256, SHA-1, and MD5.

/// An incremental cryptographic hash function.
pub trait Digest: Clone {
    /// Digest output length in bytes.
    const OUTPUT_LEN: usize;
    /// Internal block length in bytes (needed by HMAC).
    const BLOCK_LEN: usize;
    /// Human-readable algorithm name.
    const NAME: &'static str;
    /// The digest as a fixed-size array.
    type Output: AsRef<[u8]>;

    /// Fresh hash state.
    fn new() -> Self;
    /// Absorbs more message bytes.
    fn update(&mut self, data: &[u8]);
    /// Consumes the state and produces the digest.
    fn finalize(self) -> Self::Output;

    /// [`Digest::finalize`] as a `Vec`.
    fn finalize_vec(self) -> Vec<u8> {
        self.finalize().as_ref().to_vec()
    }

    /// One-shot digest of `data`.
    fn hash(data: &[u8]) -> Vec<u8> {
        let mut h = Self::new();
        h.update(data);
        h.finalize_vec()
    }
}

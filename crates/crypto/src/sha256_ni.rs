//! SHA-256 compression on the x86-64 SHA extensions (SHA-NI).
//!
//! This is the only module in the crate with `unsafe` code: the intrinsics
//! are only sound on CPUs that have the SHA, SSSE3 and SSE4.1 extensions, so
//! [`compress`] checks [`available`] before it enters the
//! `#[target_feature]` function. [`crate::sha256`] falls back to its scalar
//! compress on every other CPU; the two are tested against each other.
//!
//! The round structure follows Intel's SHA extensions reference flow: the
//! state lives in two registers as (A, B, E, F) and (C, D, G, H), each
//! `sha256rnds2` performs two rounds, and `sha256msg1`/`sha256msg2` expand
//! the message schedule four words at a time.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
    _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    _mm_shuffle_epi8, _mm_storeu_si128,
};

use crate::sha256::K;

/// True when this CPU can run [`compress`].
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses whole 64-byte `blocks` into `state` with SHA-NI.
///
/// # Panics
/// Panics if the CPU lacks the extensions (see [`available`]) or if
/// `blocks` is not a whole number of blocks.
pub(crate) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(available(), "SHA-NI compress on a CPU without the SHA extensions");
    assert!(blocks.len().is_multiple_of(64), "partial SHA-256 block");
    // SAFETY: `available()` has just confirmed that the CPU implements every
    // feature `compress_blocks` is compiled for.
    unsafe { compress_blocks(state, blocks) }
}

/// Message expansion: the next four schedule words from the previous sixteen.
///
/// # Safety
/// The CPU must support SHA and SSSE3; only `compress_blocks` calls it.
#[inline(always)]
unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// Four rounds on message words `w` with round constants `K[4i..4i+4]`.
///
/// # Safety
/// The CPU must support SHA and SSE2, and `i < 16` so the constant load
/// stays inside `K`; only `compress_blocks` calls it.
#[inline(always)]
unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
    let k = _mm_loadu_si128(K.as_ptr().add(4 * i).cast());
    let wk = _mm_add_epi32(w, k);
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

/// Compresses `blocks` into `state`.
///
/// # Safety
/// The CPU must support SHA, SSSE3 and SSE4.1, and `blocks.len()` must be a
/// multiple of 64.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    // Byte-swaps each 32-bit lane: the message words are big-endian.
    let bswap = _mm_set_epi64x(0x0C0D_0E0F_0809_0A0B, 0x0405_0607_0001_0203);

    // Load (A, B, C, D), (E, F, G, H) and regroup as (A, B, E, F), (C, D, G, H).
    let dcba = _mm_loadu_si128(state.as_ptr().cast());
    let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let p = block.as_ptr().cast::<__m128i>();
        let mut w = [
            _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
            _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
        ];
        for (i, &wi) in w.iter().enumerate() {
            rounds4(&mut abef, &mut cdgh, wi, i);
        }
        // Rounds 16..64: w holds the last sixteen schedule words as a ring.
        for i in 4..16 {
            let next = schedule(w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
            w[i % 4] = next;
            rounds4(&mut abef, &mut cdgh, next, i);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    // Back to (A, B, C, D), (E, F, G, H).
    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(state.as_mut_ptr().cast(), dcba);
    _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), hgef);
}

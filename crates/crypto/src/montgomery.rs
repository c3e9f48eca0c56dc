//! Montgomery-form modular arithmetic for odd moduli.
//!
//! All RSA and ESIGN exponentiations route through [`MontgomeryCtx`], which
//! implements the CIOS (coarsely integrated operand scanning) multiplication
//! with 64-bit limbs and a fixed 4-bit window exponentiation ladder.
//!
//! The kernel writes into caller-owned buffers and allocates nothing; `pow`
//! makes one allocation for its window table and accumulators. The limb
//! counts of the key sizes in use (2–32 limbs) run through fixed-width
//! instantiations of the same kernel, which the compiler fully unrolls (at
//! 4 limbs about twice the speed of the general loop); every other width
//! takes the general loop. Montgomery products are fully reduced, so both
//! paths return the same canonical residues.

use crate::bignum::BigUint;

/// A Montgomery product kernel: `out = a * b * R^-1 mod n`. All four limb
/// slices have the context's width; `t` is `k` limbs of scratch that the
/// fixed-width kernels leave unused.
type MulKernel = fn(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64, t: &mut [u64]);

/// Precomputed state for arithmetic modulo a fixed odd modulus.
pub struct MontgomeryCtx {
    modulus: BigUint,
    /// Modulus limbs (`k` of them).
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0inv: u64,
    /// `R^2 mod n` where `R = 2^(64 k)`, used to enter Montgomery form.
    rr: Vec<u64>,
    /// `R mod n`: the Montgomery representation of one.
    r1: Vec<u64>,
    /// Number of limbs.
    k: usize,
    /// The product kernel for width `k`.
    kernel: MulKernel,
}

/// Buffers reused across [`MontgomeryCtx`] exponentiations: the 16-entry
/// window table, two accumulators and the kernel scratch, in one allocation.
pub(crate) struct PowScratch {
    buf: Vec<u64>,
    k: usize,
}

impl PowScratch {
    /// Splits the buffer into (table, acc, tmp, kernel scratch).
    fn parts(&mut self) -> (&mut [u64], &mut [u64], &mut [u64], &mut [u64]) {
        let k = self.k;
        let (table, rest) = self.buf.split_at_mut(16 * k);
        let (acc, rest) = rest.split_at_mut(k);
        let (tmp, t) = rest.split_at_mut(k);
        (table, acc, tmp, t)
    }

    /// The Montgomery-form result of the last [`MontgomeryCtx::pow_mont`].
    pub(crate) fn result(&self) -> &[u64] {
        &self.buf[16 * self.k..17 * self.k]
    }
}

impl MontgomeryCtx {
    /// Creates a context for the given odd modulus.
    ///
    /// # Panics
    /// Panics if `modulus` is even or < 3.
    pub fn new(modulus: BigUint) -> Self {
        assert!(modulus.is_odd(), "Montgomery modulus must be odd");
        assert!(modulus.bit_len() >= 2, "Montgomery modulus must be >= 3");
        let k = modulus.limbs.len();
        let n = modulus.limbs.clone();

        let n0inv = neg_inv_u64(n[0]);

        // R mod n and R^2 mod n via BigUint division (setup only, not hot).
        let r = BigUint::one().shl(64 * k);
        let r1_big = r.rem(&modulus);
        let rr_big = r1_big.mul(&r1_big).rem(&modulus);
        let mut r1 = r1_big.limbs.clone();
        r1.resize(k, 0);
        let mut rr = rr_big.limbs.clone();
        rr.resize(k, 0);

        MontgomeryCtx { modulus, n, n0inv, rr, r1, k, kernel: kernel_for(k) }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// Fresh buffers for [`MontgomeryCtx::pow_mont`] and [`MontgomeryCtx::square`].
    pub(crate) fn scratch(&self) -> PowScratch {
        PowScratch { buf: vec![0u64; 19 * self.k], k: self.k }
    }

    /// `out = a * b * R^-1 mod n`; operands are reduced `k`-limb vectors and
    /// `t` is `k` limbs of scratch.
    fn mont_mul(&self, out: &mut [u64], a: &[u64], b: &[u64], t: &mut [u64]) {
        (self.kernel)(out, a, b, &self.n, self.n0inv, t)
    }

    /// Writes the Montgomery form of `a` (`a * R mod n`) into `out`, using
    /// `pad` and `t` (`k` limbs each) as scratch.
    fn to_mont(&self, a: &BigUint, out: &mut [u64], pad: &mut [u64], t: &mut [u64]) {
        let reduced;
        let a = if a.cmp_ref(&self.modulus).is_lt() {
            a
        } else {
            reduced = a.rem(&self.modulus);
            &reduced
        };
        pad.fill(0);
        pad[..a.limbs.len()].copy_from_slice(&a.limbs);
        self.mont_mul(out, pad, &self.rr, t);
    }

    /// The Montgomery form of `a`, as a fresh `k`-limb vector.
    pub(crate) fn mont_form(&self, a: &BigUint) -> Vec<u64> {
        let k = self.k;
        let mut buf = vec![0u64; 3 * k];
        let (out, rest) = buf.split_at_mut(k);
        let (pad, t) = rest.split_at_mut(k);
        self.to_mont(a, out, pad, t);
        buf.truncate(k);
        buf
    }

    /// The Montgomery form of one (`R mod n`).
    pub(crate) fn one_mont(&self) -> &[u64] {
        &self.r1
    }

    /// `base^exp mod n` with a fixed 4-bit window.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        if exp.is_zero() {
            return BigUint::one().rem(&self.modulus);
        }
        let mut s = self.scratch();
        self.pow_mont(&mut s, base, exp);
        // Leave Montgomery form: acc * 1 * R^-1.
        let (table, acc, one, t) = s.parts();
        one.fill(0);
        one[0] = 1;
        let out = &mut table[..self.k];
        self.mont_mul(out, acc, one, t);
        BigUint::from_limbs(out.to_vec())
    }

    /// `base^exp` in Montgomery form, left in [`PowScratch::result`]. The
    /// exponent must be nonzero.
    pub(crate) fn pow_mont(&self, s: &mut PowScratch, base: &BigUint, exp: &BigUint) {
        debug_assert!(!exp.is_zero());
        debug_assert_eq!(s.k, self.k);
        let k = self.k;
        let (table, acc, tmp, t) = s.parts();

        // Precompute bm^0 .. bm^15 in Montgomery form.
        table[..k].copy_from_slice(&self.r1);
        self.to_mont(base, &mut table[k..2 * k], tmp, t);
        for i in 2..16 {
            let (done, rest) = table.split_at_mut(i * k);
            self.mont_mul(&mut rest[..k], &done[(i - 1) * k..], &done[k..2 * k], t);
        }
        let entry = |i: usize| &table[i * k..(i + 1) * k];

        let bits = exp.bit_len();
        let top_window = (bits - 1) / 4; // index of the most significant window
        acc.copy_from_slice(entry(window_at(exp, top_window)));
        for w in (0..top_window).rev() {
            for _ in 0..2 {
                self.mont_mul(tmp, acc, acc, t);
                self.mont_mul(acc, tmp, tmp, t);
            }
            let idx = window_at(exp, w);
            if idx != 0 {
                self.mont_mul(tmp, acc, entry(idx), t);
                acc.copy_from_slice(tmp);
            }
        }
    }

    /// Squares the Montgomery-form [`PowScratch::result`] in place.
    pub(crate) fn square(&self, s: &mut PowScratch) {
        let (_, acc, tmp, t) = s.parts();
        self.mont_mul(tmp, acc, acc, t);
        acc.copy_from_slice(tmp);
    }
}

/// Picks the fixed-width kernel for `k` limbs, or the general loop. The
/// fixed widths are the prime and modulus limb counts of RSA-512/1024/2048
/// and ESIGN-384/768/1536.
fn kernel_for(k: usize) -> MulKernel {
    match k {
        2 => mul_fixed::<2>,
        4 => mul_fixed::<4>,
        6 => mul_fixed::<6>,
        8 => mul_fixed::<8>,
        12 => mul_fixed::<12>,
        16 => mul_fixed::<16>,
        24 => mul_fixed::<24>,
        32 => mul_fixed::<32>,
        _ => mul_general,
    }
}

fn mul_general(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64, t: &mut [u64]) {
    let k = n.len();
    cios(&mut out[..k], &a[..k], &b[..k], n, n0inv, &mut t[..k]);
}

fn mul_fixed<const K: usize>(
    out: &mut [u64],
    a: &[u64],
    b: &[u64],
    n: &[u64],
    n0inv: u64,
    _t: &mut [u64],
) {
    // Stack scratch; `cios` sees constant lengths and unrolls.
    let mut t = [0u64; K];
    cios(&mut out[..K], &a[..K], &b[..K], &n[..K], n0inv, &mut t);
}

/// CIOS Montgomery multiplication: `out = a * b * R^-1 mod n`.
///
/// `a` and `b` are `k`-limb little-endian values below `n`; `t` is `k` limbs
/// of scratch. The result is fully reduced.
#[inline(always)]
fn cios(out: &mut [u64], a: &[u64], b: &[u64], n: &[u64], n0inv: u64, t: &mut [u64]) {
    let k = n.len();
    t.fill(0);
    // The limb above t[k - 1]; `hi2` below is the one above that.
    let mut hi = 0u64;
    for &ai in a {
        // t += ai * b
        let mut carry = 0u64;
        for j in 0..k {
            let cur = t[j] as u128 + ai as u128 * b[j] as u128 + carry as u128;
            t[j] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = hi as u128 + carry as u128;
        hi = cur as u64;
        let hi2 = (cur >> 64) as u64;

        // m = t[0] * n0inv mod 2^64; t = (t + m*n) / 2^64
        let m = t[0].wrapping_mul(n0inv);
        let mut carry = ((t[0] as u128 + m as u128 * n[0] as u128) >> 64) as u64;
        for j in 1..k {
            let cur = t[j] as u128 + m as u128 * n[j] as u128 + carry as u128;
            t[j - 1] = cur as u64;
            carry = (cur >> 64) as u64;
        }
        let cur = hi as u128 + carry as u128;
        t[k - 1] = cur as u64;
        hi = hi2.wrapping_add((cur >> 64) as u64);
    }

    // Final conditional subtraction: t may be in [0, 2n).
    out.copy_from_slice(t);
    if hi != 0 || ge(out, n) {
        sub_in_place(out, n);
    }
}

/// Extracts the `w`-th 4-bit window (little-endian window order).
fn window_at(exp: &BigUint, w: usize) -> usize {
    exp.limbs.get(w / 16).map_or(0, |&limb| ((limb >> (w % 16 * 4)) & 0xF) as usize)
}

/// `-a^{-1} mod 2^64` for odd `a`, by Newton iteration.
fn neg_inv_u64(a: u64) -> u64 {
    debug_assert!(a & 1 == 1);
    let mut inv = a; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(inv)));
    }
    debug_assert_eq!(a.wrapping_mul(inv), 1);
    inv.wrapping_neg()
}

#[inline(always)]
fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

/// `a -= b` modulo `2^(64 len)`; the caller accounts for the borrow out.
#[inline(always)]
fn sub_in_place(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d1, b1) = x.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *x = d2;
        borrow = b1 | b2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn neg_inv_correct() {
        for a in [1u64, 3, 5, 0xFFFF_FFFF_FFFF_FFFF, 0x1234_5678_9ABC_DEF1] {
            let ninv = neg_inv_u64(a);
            // a * (-a^-1) == -1 mod 2^64
            assert_eq!(a.wrapping_mul(ninv), u64::MAX, "a={a:#x}");
        }
    }

    #[test]
    fn pow_matches_naive_small() {
        let modulus = n(1_000_003); // odd
        let ctx = MontgomeryCtx::new(modulus.clone());
        for (b, e) in [(2u64, 10u64), (3, 0), (12345, 67), (999_999, 3), (7, 1_000_000)] {
            let expected = naive_pow(b, e, 1_000_003);
            assert_eq!(ctx.pow(&n(b), &n(e)), n(expected), "b={b} e={e}");
        }
    }

    fn naive_pow(mut b: u64, mut e: u64, m: u64) -> u64 {
        let mut r = 1u128;
        let mut bb = b as u128 % m as u128;
        while e > 0 {
            if e & 1 == 1 {
                r = r * bb % m as u128;
            }
            bb = bb * bb % m as u128;
            e >>= 1;
        }
        b = r as u64;
        b
    }

    #[test]
    fn pow_multi_limb_fermat() {
        // p = 2^127 - 1 is a Mersenne prime; check Fermat's little theorem.
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = MontgomeryCtx::new(p.clone());
        let a = BigUint::from_hex("123456789abcdef0fedcba9876543210").unwrap();
        let res = ctx.pow(&a, &p.sub(&BigUint::one()));
        assert_eq!(res, BigUint::one());
    }

    #[test]
    fn pow_zero_exponent_is_one() {
        let m = n(97);
        let ctx = MontgomeryCtx::new(m);
        assert_eq!(ctx.pow(&n(12), &BigUint::zero()), BigUint::one());
    }

    /// `base^exp mod m` by square-and-multiply on plain `BigUint` mul/rem.
    fn pow_oracle(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
        let base = base.rem(m);
        let mut acc = BigUint::one().rem(m);
        for i in (0..exp.bit_len()).rev() {
            acc = acc.mul(&acc).rem(m);
            if exp.bit(i) {
                acc = acc.mul(&base).rem(m);
            }
        }
        acc
    }

    fn random_odd(rng: &mut crate::drbg::HmacDrbg, limbs: usize) -> BigUint {
        let mut m = BigUint::random_bits(rng, limbs * 64);
        m.set_bit(0);
        m
    }

    /// Every fixed-width instantiation and widths only the general loop
    /// serves, among them ESIGN-2048's 11-limb primes and ESIGN-1026's
    /// 17-limb modulus.
    const WIDTHS: [usize; 16] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 16, 17, 24, 32, 33];

    #[test]
    fn pow_matches_biguint_at_every_width() {
        use crate::drbg::{HmacDrbg, RandomSource};
        let mut rng = HmacDrbg::from_seed_u64(0x4D0E7);
        for limbs in WIDTHS {
            for case in 0..4 {
                // Full-width moduli, and one whose top limb is nearly empty.
                let m = if case == 3 {
                    let mut m = random_odd(&mut rng, limbs).shr(60);
                    m.set_bit(0);
                    m
                } else {
                    random_odd(&mut rng, limbs)
                };
                let ctx = MontgomeryCtx::new(m.clone());
                let a = BigUint::random_below(&mut rng, &m);
                // An unreduced base exercises the entry reduction.
                let b = BigUint::random_bits(&mut rng, 64 * limbs + 7);
                let e_bits = 1 + (rng.next_u64() % 200) as usize;
                let exps = [
                    BigUint::one(),
                    BigUint::from_u64(16),
                    BigUint::from_u64(17),
                    BigUint::random_bits(&mut rng, e_bits),
                    m.sub(&BigUint::one()),
                ];
                for e in &exps {
                    for base in [&a, &b, &m] {
                        assert_eq!(
                            ctx.pow(base, e),
                            pow_oracle(base, e, &m),
                            "pow, {limbs} limbs, exp {e}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_width_kernels_match_the_general_loop() {
        use crate::drbg::HmacDrbg;
        let mut rng = HmacDrbg::from_seed_u64(0xF1ED);
        // Every width up to well past the widest instantiation (32 limbs),
        // so a kernel added to `kernel_for` is covered without editing this
        // test.
        for k in 1..=65 {
            for _ in 0..64 {
                let m = random_odd(&mut rng, k);
                let ctx = MontgomeryCtx::new(m.clone());
                let limbs = |v: BigUint| {
                    let mut l = v.limbs;
                    l.resize(k, 0);
                    l
                };
                let a = limbs(BigUint::random_below(&mut rng, &m));
                let b = limbs(m.sub(&BigUint::one()));
                let (mut fixed, mut general, mut t) = (vec![0; k], vec![0; k], vec![7; k]);
                kernel_for(k)(&mut fixed, &a, &b, &ctx.n, ctx.n0inv, &mut t);
                mul_general(&mut general, &a, &b, &ctx.n, ctx.n0inv, &mut t);
                assert_eq!(fixed, general, "{k} limbs");
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be odd")]
    fn even_modulus_rejected() {
        MontgomeryCtx::new(n(100));
    }
}

//! Primality testing and random prime generation.
//!
//! Candidates are sieved against a table of small primes and then subjected
//! to Miller–Rabin with random bases. Used by RSA and ESIGN key generation.

use crate::bignum::BigUint;
use crate::drbg::RandomSource;
use crate::error::CryptoError;
use crate::montgomery::MontgomeryCtx;

/// Number of Miller–Rabin rounds; 2^-128 error bound for random candidates.
const MILLER_RABIN_ROUNDS: usize = 32;

/// Small primes used for trial division (all primes below 2000).
fn small_primes() -> &'static [u64] {
    use std::sync::OnceLock;
    static PRIMES: OnceLock<Vec<u64>> = OnceLock::new();
    PRIMES.get_or_init(|| {
        let limit = 2000usize;
        let mut is_comp = vec![false; limit];
        let mut primes = Vec::new();
        for n in 2..limit {
            if !is_comp[n] {
                primes.push(n as u64);
                let mut m = n * n;
                while m < limit {
                    is_comp[m] = true;
                    m += n;
                }
            }
        }
        primes
    })
}

/// A run of consecutive small primes whose product fits in a `u64`.
struct PrimeGroup {
    product: u64,
    primes: std::ops::Range<usize>,
}

/// The small-prime table cut greedily, in ascending order, into groups with
/// `u64` products: one multi-limb remainder per group instead of per prime.
fn prime_groups() -> &'static [PrimeGroup] {
    use std::sync::OnceLock;
    static GROUPS: OnceLock<Vec<PrimeGroup>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        let primes = small_primes();
        let mut groups = Vec::new();
        let mut start = 0;
        while start < primes.len() {
            let mut product = primes[start];
            let mut end = start + 1;
            while let Some(next) = primes.get(end).and_then(|&p| product.checked_mul(p)) {
                product = next;
                end += 1;
            }
            groups.push(PrimeGroup { product, primes: start..end });
            start = end;
        }
        groups
    })
}

/// `n mod m` for a single-limb modulus, without allocating.
fn rem_u64(n: &BigUint, m: u64) -> u64 {
    n.limbs
        .iter()
        .rev()
        .fold(0u64, |r, &limb| ((((r as u128) << 64) | limb as u128) % m as u128) as u64)
}

/// Deterministic trial division by the small-prime table.
///
/// Returns `Some(true/false)` when trial division decides, `None` otherwise.
fn trial_division(n: &BigUint) -> Option<bool> {
    let primes = small_primes();
    let largest = *primes.last().expect("nonempty prime table");
    if let Some(v) = n.to_u64().filter(|&v| v <= largest) {
        // n < 2 is handled by the caller.
        return Some(primes.binary_search(&v).is_ok());
    }
    for group in prime_groups() {
        let r = rem_u64(n, group.product);
        if primes[group.primes.clone()].iter().any(|&p| r.is_multiple_of(p)) {
            return Some(false);
        }
    }
    None
}

/// Miller–Rabin probabilistic primality test.
pub fn is_probable_prime<R: RandomSource + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    let two = BigUint::from_u64(2);
    if n.cmp_ref(&two) == std::cmp::Ordering::Equal {
        return true;
    }
    if n.is_even() {
        return false;
    }
    if let Some(decided) = trial_division(n) {
        return decided;
    }

    // n - 1 = d * 2^s with d odd
    let n_minus_1 = n.sub(&BigUint::one());
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1.shr(s);

    // The squaring chain stays in Montgomery form, where one and n - 1 are
    // R mod n and n - R mod n; residues are canonical, so comparing limbs
    // decides exactly what comparing the integers would.
    let ctx = MontgomeryCtx::new(n.clone());
    let mut scratch = ctx.scratch();
    let minus_one = ctx.mont_form(&n_minus_1);
    'witness: for _ in 0..MILLER_RABIN_ROUNDS {
        // Random base in [2, n-2]
        let a = loop {
            let a = BigUint::random_below(rng, &n_minus_1);
            if !a.is_zero() && !a.is_one() {
                break a;
            }
        };
        ctx.pow_mont(&mut scratch, &a, &d);
        let x = scratch.result();
        if x == ctx.one_mont() || x == minus_one {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            ctx.square(&mut scratch);
            if scratch.result() == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub fn generate_prime<R: RandomSource + ?Sized>(
    bits: usize,
    rng: &mut R,
) -> Result<BigUint, CryptoError> {
    assert!(bits >= 8, "prime size too small: {bits} bits");
    // Expected candidates ~ bits * ln2 / 2; allow a generous budget.
    let budget = bits * 64;
    for _ in 0..budget {
        let mut candidate = BigUint::random_bits(rng, bits);
        // Force odd and force the top two bits so products of two such
        // primes have full bit length (standard RSA trick).
        candidate.set_bit(0);
        candidate.set_bit(bits - 1);
        if bits >= 2 {
            candidate.set_bit(bits - 2);
        }
        if is_probable_prime(&candidate, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::KeyGeneration("prime search budget exhausted"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drbg::HmacDrbg;

    fn n(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_numbers_classified() {
        let mut rng = HmacDrbg::from_seed_u64(1);
        let primes = [2u64, 3, 5, 7, 11, 13, 1999, 2003, 104729, 1_000_000_007];
        let composites = [0u64, 1, 4, 6, 9, 15, 2001, 104730, 1_000_000_008];
        for p in primes {
            assert!(is_probable_prime(&n(p), &mut rng), "{p} should be prime");
        }
        for c in composites {
            assert!(!is_probable_prime(&n(c), &mut rng), "{c} should be composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // 561, 1105, 1729 fool Fermat but not Miller–Rabin.
        let mut rng = HmacDrbg::from_seed_u64(2);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601] {
            assert!(!is_probable_prime(&n(c), &mut rng), "{c}");
        }
    }

    #[test]
    fn known_large_prime() {
        // 2^127 - 1 (Mersenne prime)
        let mut rng = HmacDrbg::from_seed_u64(3);
        let p = BigUint::one().shl(127).sub(&BigUint::one());
        assert!(is_probable_prime(&p, &mut rng));
        // 2^128 - 1 is composite.
        let c = BigUint::one().shl(128).sub(&BigUint::one());
        assert!(!is_probable_prime(&c, &mut rng));
    }

    #[test]
    fn generated_primes_have_requested_size() {
        let mut rng = HmacDrbg::from_seed_u64(4);
        for bits in [64usize, 128, 256] {
            let p = generate_prime(bits, &mut rng).unwrap();
            assert_eq!(p.bit_len(), bits);
            assert!(p.is_odd());
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn grouped_trial_division_matches_per_prime_remainders() {
        let primes = small_primes();
        let groups = prime_groups();
        // The groups tile the table in order.
        assert_eq!(groups.first().unwrap().primes.start, 0);
        assert_eq!(groups.last().unwrap().primes.end, primes.len());
        for pair in groups.windows(2) {
            assert_eq!(pair[0].primes.end, pair[1].primes.start);
        }
        for g in groups {
            assert_eq!(primes[g.primes.clone()].iter().product::<u64>(), g.product);
        }

        // Per-prime oracle: the table walk trial division did before.
        fn per_prime(n: &BigUint) -> Option<bool> {
            for &p in small_primes() {
                match n.cmp_ref(&BigUint::from_u64(p)) {
                    std::cmp::Ordering::Less => return Some(false),
                    std::cmp::Ordering::Equal => return Some(true),
                    std::cmp::Ordering::Greater => {}
                }
                if n.div_rem_u64(p).1 == 0 {
                    return Some(false);
                }
            }
            None
        }
        let mut rng = HmacDrbg::from_seed_u64(0x7D1);
        let mut cases: Vec<BigUint> = (2..5000u64).map(n).collect();
        for bits in [64usize, 65, 128, 256, 512, 1024] {
            for _ in 0..400 {
                let mut c = BigUint::random_bits(&mut rng, bits);
                c.set_bit(0);
                cases.push(c);
            }
        }
        // Products of small primes times large cofactors, and prime squares.
        cases.push(n(1999 * 1999));
        cases.push(n(1997).mul(&BigUint::one().shl(200).add_u64(1)));
        for c in &cases {
            assert_eq!(trial_division(c), per_prime(c), "n = {c}");
            for &p in &primes[..20] {
                assert_eq!(rem_u64(c, p), c.div_rem_u64(p).1, "n = {c}, p = {p}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let p1 = generate_prime(96, &mut HmacDrbg::from_seed_u64(99)).unwrap();
        let p2 = generate_prime(96, &mut HmacDrbg::from_seed_u64(99)).unwrap();
        assert_eq!(p1, p2);
        let p3 = generate_prime(96, &mut HmacDrbg::from_seed_u64(100)).unwrap();
        assert_ne!(p1, p3);
    }
}

//! Microbenchmarks for the cryptographic substrate: the raw
//! symmetric-vs-asymmetric gap every Sharoes design decision leans on.
//!
//! Runs under the in-tree `sharoes_testkit::bench` harness; see DESIGN.md
//! for the sampling model and the `SHAROES_BENCH_*` knobs.

use sharoes_crypto::montgomery::MontgomeryCtx;
use sharoes_crypto::prime::generate_prime;
use sharoes_crypto::{
    Aes128, BigUint, EsignPrivateKey, HmacDrbg, RandomSource, RsaPrivateKey, Sha256, SymKey,
};
use sharoes_testkit::bench::BenchRunner;
use std::hint::black_box;

fn bench_aes(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(1);
    let key = SymKey::random(&mut rng);
    let aes = Aes128::new(&[7u8; 16]);

    let mut group = c.group("aes128");
    group.bench_function("block_encrypt", |b| {
        let mut block = [0u8; 16];
        b.iter(|| {
            aes.encrypt_block(black_box(&mut block));
        })
    });
    for size in [600usize, 4096, 1 << 20] {
        let data = vec![0xABu8; size];
        group.throughput(size as u64);
        group.bench_function(format!("ctr_seal_{size}"), |b| {
            let mut rng = HmacDrbg::from_seed_u64(11);
            b.iter(|| key.seal(&mut rng, black_box(&data)))
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut BenchRunner) {
    let data = vec![0x55u8; 1 << 20];
    let mut group = c.group("hash");
    group.throughput(data.len() as u64);
    group.bench_function("sha256_1MB", |b| b.iter(|| Sha256::digest(black_box(&data))));
    group.finish();

    let key = [9u8; 16];
    c.bench_function("hmac_sha256_rowkey", |b| {
        b.iter(|| sharoes_crypto::hmac_sha256(black_box(&key), black_box(b"rowid:some-file-name")))
    });
}

fn bench_rsa(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(2);
    // 1024-bit keeps runs quick; ratios scale with 2048.
    let rsa = RsaPrivateKey::generate(1024, &mut rng).unwrap();
    let msg = vec![0xCDu8; 64];
    let ct = rsa.public_key().encrypt(&mut rng, &msg).unwrap();
    let sig = rsa.sign(b"metadata");

    let mut group = c.group("rsa1024");
    group.bench_function("encrypt", |b| {
        let mut rng = HmacDrbg::from_seed_u64(12);
        b.iter(|| rsa.public_key().encrypt(&mut rng, black_box(&msg)).unwrap())
    });
    group.bench_function("decrypt", |b| b.iter(|| rsa.decrypt(black_box(&ct)).unwrap()));
    group.bench_function("sign", |b| b.iter(|| rsa.sign(black_box(b"metadata"))));
    group.bench_function("verify", |b| {
        b.iter(|| rsa.public_key().verify(black_box(b"metadata"), black_box(&sig)).unwrap())
    });
    group.finish();
}

fn bench_esign(c: &mut BenchRunner) {
    let mut rng = HmacDrbg::from_seed_u64(3);
    let esign = EsignPrivateKey::generate(1026, &mut rng).unwrap();
    let sig = esign.sign(&mut rng, b"data block");

    let mut group = c.group("esign1026");
    group.bench_function("sign", |b| {
        let mut rng = HmacDrbg::from_seed_u64(13);
        b.iter(|| esign.sign(&mut rng, black_box(b"data block")))
    });
    group.bench_function("verify", |b| {
        b.iter(|| esign.public_key().verify(black_box(b"data block"), black_box(&sig)).unwrap())
    });
    group.finish();
}

/// Key generation and the prime search under it: what signing-pool prefill
/// (two ESIGN-768 pairs per object) and keyring set-up (one RSA-2048 key per
/// user and group) spend their time on. Every iteration draws a fresh key
/// from one running DRBG, so the figures average over candidate counts.
fn bench_keygen(c: &mut BenchRunner) {
    let mut group = c.group("esign768");
    group.bench_function("keygen", |b| {
        let mut rng = HmacDrbg::from_seed_u64(21);
        b.iter(|| EsignPrivateKey::generate(768, &mut rng).unwrap())
    });
    group.finish();

    let mut group = c.group("rsa2048");
    group.bench_function("keygen", |b| {
        let mut rng = HmacDrbg::from_seed_u64(22);
        b.iter(|| RsaPrivateKey::generate(2048, &mut rng).unwrap())
    });
    group.finish();

    c.bench_function("prime256", |b| {
        let mut rng = HmacDrbg::from_seed_u64(23);
        b.iter(|| generate_prime(256, &mut rng).unwrap())
    });

    // One Miller–Rabin round on a 256-bit candidate is one such modexp.
    let mut rng = HmacDrbg::from_seed_u64(24);
    let p = generate_prime(256, &mut rng).unwrap();
    let ctx = MontgomeryCtx::new(p.clone());
    let base = BigUint::random_below(&mut rng, &p);
    let exp = p.sub(&BigUint::one());
    c.bench_function("modexp256", |b| b.iter(|| ctx.pow(black_box(&base), black_box(&exp))));

    let mut group = c.group("drbg");
    group.bench_function("fill_32", |b| {
        let mut rng = HmacDrbg::from_seed_u64(25);
        let mut buf = [0u8; 32];
        b.iter(|| {
            rng.fill_bytes(&mut buf);
            buf[0]
        })
    });
    group.finish();
}

fn main() {
    let mut c = BenchRunner::from_args("crypto_micro");
    bench_aes(&mut c);
    bench_hashes(&mut c);
    bench_rsa(&mut c);
    bench_esign(&mut c);
    bench_keygen(&mut c);
    c.finish();
}

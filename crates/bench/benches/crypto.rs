//! Criterion benchmarks for the from-scratch crypto substrate: AES-128
//! block encryption, per-line OTP generation, full line encrypt/decrypt
//! round trips, and the write path's memo-free per-line MAC.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nvmm_crypto::aes::Aes128;
use nvmm_crypto::engine::EncryptionEngine;
use nvmm_crypto::mac::MacEngine;
use nvmm_crypto::otp::line_pad;
use nvmm_crypto::Counter;
use std::hint::black_box;

fn bench_aes_block(c: &mut Criterion) {
    let aes = Aes128::new(&[7; 16]);
    let block = [0x5au8; 16];
    let mut g = c.benchmark_group("aes");
    g.throughput(Throughput::Bytes(16));
    g.bench_function("encrypt_block", |b| {
        b.iter(|| aes.encrypt_block(black_box(&block)))
    });
    g.finish();
}

fn bench_line_pad(c: &mut Criterion) {
    let aes = Aes128::new(&[7; 16]);
    let mut g = c.benchmark_group("otp");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("line_pad", |b| {
        let mut addr = 0u64;
        b.iter(|| {
            addr += 1;
            line_pad(&aes, black_box(addr), Counter(3))
        })
    });
    g.finish();
}

fn bench_engine_roundtrip(c: &mut Criterion) {
    let mut engine = EncryptionEngine::new([9; 16]);
    let plain = [0xa5u8; 64];
    let mut g = c.benchmark_group("engine");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("encrypt_line", |b| {
        b.iter(|| engine.encrypt(black_box(77), &plain))
    });
    let w = engine.encrypt(77, &plain);
    g.bench_function("decrypt_line", |b| {
        b.iter(|| engine.decrypt(black_box(77), &w.ciphertext, w.counter))
    });
    g.finish();
}

fn bench_line_mac(c: &mut Criterion) {
    let engine = MacEngine::new([9; 16]);
    let line = [0x3cu8; 64];
    let mut g = c.benchmark_group("mac");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("line_mac_uncached", |b| {
        let mut counter = 0u64;
        b.iter(|| {
            counter += 1;
            engine.line_mac_uncached(black_box(77), Counter(counter), &line)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_aes_block,
    bench_line_pad,
    bench_engine_roundtrip,
    bench_line_mac
);
criterion_main!(benches);

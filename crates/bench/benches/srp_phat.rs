//! Criterion bench for experiment E4: conventional vs low-complexity SRP-PHAT.

use criterion::{criterion_group, criterion_main, Criterion};
use ispot_bench::{simulate_static_source, SAMPLE_RATE};
use ispot_ssl::srp_fast::SrpPhatFast;
use ispot_ssl::srp_phat::{SrpConfig, SrpMap, SrpPhat};
use std::hint::black_box;
use std::time::Duration;

fn bench_srp(c: &mut Criterion) {
    let (audio, array) = simulate_static_source(60.0, 20.0, 6, 8192, 3);
    let config = SrpConfig::default();
    let conventional = SrpPhat::new(config, &array, SAMPLE_RATE).unwrap();
    let fast = SrpPhatFast::new(config, &array, SAMPLE_RATE).unwrap();
    let frame: Vec<&[f64]> = audio.channels().iter().map(|c| &c[4096..6144]).collect();

    let mut group = c.benchmark_group("srp_phat_map");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(5));
    group.bench_function("conventional_frequency_steering", |b| {
        b.iter(|| black_box(conventional.compute_map(black_box(&frame)).unwrap()))
    });
    group.bench_function("low_complexity_lag_domain", |b| {
        b.iter(|| black_box(fast.compute_map(black_box(&frame)).unwrap()))
    });
    // The real hot path: scratch and output map reused across frames, precomputed
    // f32 steering taps, SIMD kernels, zero per-frame heap allocation.
    group.bench_function("low_complexity_scratch_reuse", |b| {
        let mut scratch = fast.make_scratch();
        let mut map = SrpMap::default();
        b.iter(|| {
            fast.compute_map_into(black_box(&frame), &mut scratch, &mut map)
                .unwrap();
            black_box(map.power()[0])
        })
    });
    // The retained scalar f64 path (full-band rebuild + iFFT per pair) the SIMD
    // pipeline is numerically pinned against.
    group.bench_function("scalar_reference_scratch_reuse", |b| {
        let mut scratch = fast.make_reference_scratch();
        let mut map = SrpMap::default();
        b.iter(|| {
            fast.compute_map_reference_into(black_box(&frame), &mut scratch, &mut map)
                .unwrap();
            black_box(map.power()[0])
        })
    });
    group.bench_function("conventional_scratch_reuse", |b| {
        let mut scratch = conventional.make_scratch();
        let mut map = SrpMap::default();
        b.iter(|| {
            conventional
                .compute_map_into(black_box(&frame), &mut scratch, &mut map)
                .unwrap();
            black_box(map.power()[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_srp);
criterion_main!(benches);

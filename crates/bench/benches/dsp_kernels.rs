//! Criterion bench for the DSP substrate kernels that dominate the front-end cost
//! (supporting the operator-level cost model of experiments E5–E7).

use criterion::{criterion_group, criterion_main, Criterion};
use ispot_dsp::fft::Fft;
use ispot_dsp::generator::{NoiseKind, NoiseSource};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let signal: Vec<f64> = NoiseSource::new(NoiseKind::White, 1).take(16_384).collect();
    let mut group = c.benchmark_group("dsp_kernels");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(4));

    let fft = Fft::new(2048);
    group.bench_function("fft_2048_real", |b| {
        b.iter(|| black_box(fft.forward_real(black_box(&signal[..2048])).unwrap()))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

//! Criterion bench for the DSP substrate kernels that dominate the front-end cost
//! (supporting the operator-level cost model of experiments E5–E7).

use criterion::{criterion_group, criterion_main, Criterion};
use ispot_dsp::fft::Fft;
use ispot_dsp::generator::{NoiseKind, NoiseSource};
use ispot_dsp::Complex;
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
    // The two per-frame transforms, into reused buffers as the pipeline runs
    // them: SRP-PHAT's channel-pair FFT and one detection sub-frame spectrum.
    let mut pair_out = vec![Complex::ZERO; 2048];
    group.bench_function("fft_2048_pair", |b| {
        b.iter(|| {
            fft.forward_real_pair_into(
                black_box(&signal[..2048]),
                black_box(&signal[2048..4096]),
                &mut pair_out,
            )
            .unwrap();
            black_box(pair_out[1])
        })
    });
    let fft_512 = Fft::new(512);
    let mut real_out = vec![Complex::ZERO; 512];
    group.bench_function("fft_512_real", |b| {
        b.iter(|| {
            fft_512
                .forward_real_into(black_box(&signal[..512]), &mut real_out)
                .unwrap();
            black_box(real_out[1])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);

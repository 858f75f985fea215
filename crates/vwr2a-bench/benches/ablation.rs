//! Criterion bench behind the `ablation` binary's configuration-reload
//! experiment: isolated cold runs vs a warm window stream through one
//! `Session`.

use criterion::{criterion_group, criterion_main, Criterion};
use vwr2a_bench::{lowpass_q15, run_fir_stream};
use vwr2a_kernels::fir::FirKernel;
use vwr2a_runtime::Session;

fn bench_ablation(c: &mut Criterion) {
    let taps = lowpass_q15(11, 0.1);
    let input: Vec<i32> = (0..512).map(|i| ((i * 97) % 16384) - 8192).collect();
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("fir_512_cold_session", |b| {
        b.iter(|| {
            let kernel = FirKernel::new(&taps, 512).unwrap();
            let mut session = Session::new();
            let (_, report) = session.run(&kernel, input.as_slice()).unwrap();
            std::hint::black_box(report.cycles)
        })
    });
    group.bench_function("fir_256_warm_stream_8_windows", |b| {
        b.iter(|| std::hint::black_box(run_fir_stream(256, 8).cycles))
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);

//! Criterion micro-benchmarks for the hot kernels: optimizer buffer
//! updates, fp16 conversion, and the FTL write path.
//! These measure *host* wall-clock throughput of the simulator's building
//! blocks (not simulated time).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use optim_math::kernels::{encode_grads, StateBuffers};
use optim_math::state::GradDtype;
use optim_math::{Adam, AdamW, Optimizer, SgdMomentum, F16};
use simkit::SimTime;
use ssdsim::{Device, Lpn, SsdConfig};
use std::hint::black_box;
use workloads::GradientGen;

fn bench_optimizer_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("optimizer-kernel");
    let n = 65_536usize;
    let weights: Vec<f32> = (0..n).map(|i| (i as f32 * 1e-4).sin()).collect();
    let grads = encode_grads(&GradientGen::new(1).generate(1, n), GradDtype::F16);
    group.throughput(Throughput::Elements(n as u64));
    let opts: Vec<(&str, Box<dyn Optimizer>)> = vec![
        ("adam", Box::new(Adam::default())),
        ("adamw", Box::new(AdamW::default())),
        ("sgd-momentum", Box::new(SgdMomentum::default())),
    ];
    for (name, opt) in &opts {
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut buf = StateBuffers::init(opt.as_ref(), &weights, GradDtype::F16);
            let mut step = 0u64;
            b.iter(|| {
                step += 1;
                buf.step(opt.as_ref(), &grads, GradDtype::F16, step)
                    .unwrap();
                black_box(&buf);
            });
        });
    }
    group.finish();
}

fn bench_f16(c: &mut Criterion) {
    let mut group = c.benchmark_group("f16");
    let xs: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).cos() * 100.0).collect();
    group.throughput(Throughput::Elements(4096));
    group.bench_function("narrow", |b| {
        b.iter(|| {
            for &x in &xs {
                black_box(F16::from_f32(black_box(x)));
            }
        })
    });
    let hs: Vec<F16> = xs.iter().map(|&x| F16::from_f32(x)).collect();
    group.bench_function("widen", |b| {
        b.iter(|| {
            for &h in &hs {
                black_box(h.to_f32());
            }
        })
    });
    group.finish();
}

fn bench_ftl_write_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssd");
    group.bench_function("host-write-page", |b| {
        let mut dev = Device::new(SsdConfig::tiny());
        let pages = dev.logical_pages();
        let mut i = 0u64;
        b.iter(|| {
            let lpn = Lpn(i % (pages / 2));
            i += 1;
            black_box(dev.host_write_page(lpn, None, SimTime::ZERO).unwrap());
        })
    });
    group.bench_function("host-read-page", |b| {
        let mut dev = Device::new(SsdConfig::tiny());
        dev.host_write_page(Lpn(0), None, SimTime::ZERO).unwrap();
        b.iter(|| black_box(dev.host_read_page(Lpn(0), SimTime::ZERO).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_optimizer_kernels,
    bench_f16,
    bench_ftl_write_path
);
criterion_main!(benches);

//! Whole-simulator benchmark backing §5's performance discussion: how much
//! wall-clock time a full memcached-at-scale simulation costs, and how it
//! scales with node count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diablo_core::{run, McExperimentConfig};
use diablo_stack::process::Proto;
use std::hint::black_box;

fn bench_full_memcached(c: &mut Criterion) {
    let mut group = c.benchmark_group("fullsim/memcached");
    group.sample_size(10);
    for racks in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("racks", racks), &racks, |b, &racks| {
            b.iter(|| {
                let mut cfg = McExperimentConfig::mini(racks, 20);
                cfg.proto = Proto::Udp;
                let r = run(&cfg);
                black_box(r.events)
            })
        });
    }
    group.finish();
}

fn bench_full_incast(c: &mut Criterion) {
    let mut group = c.benchmark_group("fullsim/incast");
    group.sample_size(10);
    group.bench_function("8servers_3iters", |b| {
        b.iter(|| {
            let mut cfg = diablo_core::IncastConfig::fig6a(8);
            cfg.iterations = 3;
            let r = diablo_core::run(&cfg);
            black_box(r.events)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_full_memcached, bench_full_incast);
criterion_main!(benches);

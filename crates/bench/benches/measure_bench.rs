//! Criterion micro-benchmarks for the measurement schemes: simulated
//! probe throughput per scheme and estimator overhead.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cloudia_bench::baselines::{token_passing, uncoordinated};
use cloudia_measure::stats::{P2Quantile, PairwiseStats, Welford};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_netsim::{Cloud, Provider};

fn network(n: usize) -> cloudia_netsim::Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), 7);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

fn bench_schemes(c: &mut Criterion) {
    let net = network(20);
    let cfg = MeasureConfig::default();
    let mut group = c.benchmark_group("schemes_20_instances");
    group.sample_size(10);
    group.bench_function("token_2_per_pair", |b| {
        b.iter(|| token_passing(black_box(&net), &cfg, PairwiseStats::new(20), 2))
    });
    group.bench_function("uncoordinated_40_per_instance", |b| {
        b.iter(|| uncoordinated(black_box(&net), &cfg, PairwiseStats::new(20), 40))
    });
    group.bench_function("staged_ks2_sweeps2", |b| {
        b.iter(|| Staged::new(2, 2).run(black_box(&net), &cfg))
    });
    group.finish();
}

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("link_sketches_10k_records", |b| {
        b.iter(|| {
            let mut w = Welford::new();
            let mut p99 = P2Quantile::new(0.99);
            for i in 0..10_000 {
                let x = 0.5 + (i % 17) as f64 * 0.01;
                w.record(x);
                p99.record(x);
            }
            (w.mean(), p99.value())
        })
    });
    c.bench_function("pairwise_stats_mean_vector_100", |b| {
        let mut s = PairwiseStats::new(100);
        for i in 0..100 {
            for j in 0..100 {
                if i != j {
                    s.record(i, j, 0.5);
                }
            }
        }
        b.iter(|| black_box(&s).mean_vector())
    });
}

criterion_group!(benches, bench_schemes, bench_estimators);
criterion_main!(benches);

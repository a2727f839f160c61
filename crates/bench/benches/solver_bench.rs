//! Criterion micro-benchmarks for the solver stack: CP search, greedy,
//! random sampling, 1-D k-means clustering, and the simplex LP core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cloudia_solver::{
    cluster::CostClusters,
    cp::{solve_llndp_cp, CpConfig},
    greedy::{solve_greedy, GreedyVariant},
    lp::{solve as lp_solve, Constraint, Lp, Sense},
    portfolio::{solve_portfolio, PortfolioConfig},
    problem::{Costs, NodeDeployment},
    random::solve_random_count,
    Budget, Objective, SolveHint,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_problem(n: usize, m: usize, seed: u64) -> NodeDeployment {
    // 2D-mesh-ish chain plus cross links for realistic structure.
    let mut edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    for i in 0..(n as u32).saturating_sub(6) {
        edges.push((i, i + 6));
    }
    NodeDeployment::new(n, edges, Costs::random_uniform(m, seed))
}

fn bench_cp(c: &mut Criterion) {
    let mut group = c.benchmark_group("cp_llndp");
    group.sample_size(10);
    for &(n, m) in &[(9usize, 12usize), (18, 20), (27, 30)] {
        let problem = random_problem(n, m, 1);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}x{m}")),
            &problem,
            |b, p| {
                b.iter(|| {
                    solve_llndp_cp(
                        p,
                        &CpConfig {
                            budget: Budget::seconds(1.0),
                            clusters: Some(20),
                            ..CpConfig::default()
                        },
                    )
                })
            },
        );
    }
    group.finish();
}

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio");
    group.sample_size(10);
    let problem = random_problem(27, 30, 1);
    group.bench_function("deterministic_20k_nodes_2_threads", |b| {
        b.iter(|| {
            solve_portfolio(
                black_box(&problem),
                Objective::LongestLink,
                &PortfolioConfig { threads: 2, ..PortfolioConfig::deterministic(20_000, 7) },
                &SolveHint::Cold,
                None,
            )
        })
    });
    group.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let mut group = c.benchmark_group("greedy");
    let problem = random_problem(45, 50, 2);
    group.bench_function("g1_45x50", |b| {
        b.iter(|| solve_greedy(black_box(&problem), GreedyVariant::G1))
    });
    group.bench_function("g2_45x50", |b| {
        b.iter(|| solve_greedy(black_box(&problem), GreedyVariant::G2))
    });
    group.finish();
}

fn bench_random(c: &mut Criterion) {
    let problem = random_problem(45, 50, 3);
    c.bench_function("random_r1_1000_draws", |b| {
        b.iter(|| solve_random_count(black_box(&problem), Objective::LongestLink, 1000, 7))
    });
}

fn bench_cluster(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let costs: Vec<f64> = (0..9900).map(|_| 0.2 + rng.random::<f64>()).collect();
    c.bench_function("kmeans_k20_9900_costs", |b| {
        b.iter(|| CostClusters::compute(black_box(&costs), 20, 0.01))
    });
}

fn bench_lp(c: &mut Criterion) {
    // Assignment LP of size 20x20.
    let n = 20;
    let var = |i: usize, j: usize| i * n + j;
    let mut rng = StdRng::seed_from_u64(5);
    let mut constraints = Vec::new();
    for i in 0..n {
        constraints.push(Constraint::new(
            (0..n).map(|j| (var(i, j), 1.0)).collect(),
            Sense::Eq,
            1.0,
        ));
        constraints.push(Constraint::new(
            (0..n).map(|j| (var(j, i), 1.0)).collect(),
            Sense::Le,
            1.0,
        ));
    }
    let lp = Lp {
        num_vars: n * n,
        objective: (0..n * n).map(|_| rng.random::<f64>()).collect(),
        constraints,
    };
    c.bench_function("simplex_assignment_20x20", |b| b.iter(|| lp_solve(black_box(&lp), 50_000)));
}

criterion_group!(
    benches,
    bench_cp,
    bench_portfolio,
    bench_greedy,
    bench_random,
    bench_cluster,
    bench_lp
);
criterion_main!(benches);

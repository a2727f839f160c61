//! Criterion micro-benchmarks for the pinned solver hot kernels, plus a
//! self-checking race: with `--bench` the run also asserts that the
//! branch-reduced [`cloudia_solver::kernels::scan_row_evidence`] sweep
//! beats the scalar per-element walk it replaced on a realistic sparse
//! row shape (m = 10000, ~8 hits per row). The assertion keeps the
//! kernel honest across PRs — a refactor that quietly re-introduces the
//! per-element branches fails the bench run, not just a profile.
//!
//! A second race, `pool_index`, holds the delta-maintained rule evidence
//! to its claim: at m = 400 on fully covered statistics, syncing a
//! [`PoolIndex`] from one stage's touch-log delta and reading every
//! instance's score must beat rebuilding it from the evidence scan by
//! ≥ 3×, on both lane counts, with bit-identical scores — an index that
//! silently falls back to rebuilding every stage fails here.

use criterion::{criterion_group, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use cloudia_measure::{PairwiseStats, Staged};
use cloudia_solver::candidates::PoolIndex;
use cloudia_solver::kernels::scan_row_evidence;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The pre-kernel scalar walk, transcribed from the old `build_partial`
/// inner loop: one bounds-checked branch chain per element, including
/// the `dst != src` diagonal test the kernel dropped (the stats plane
/// guarantees a structurally-zero diagonal).
fn scalar_walk(
    src: usize,
    row_count: &[u64],
    row_att: &[u64],
    mut on_hit: impl FnMut(usize, bool),
) {
    for dst in 0..row_count.len() {
        if dst != src && (row_count[dst] > 0 || row_att[dst] > 0) {
            on_hit(dst, row_count[dst] > 0);
        }
    }
}

/// Sparse evidence rows: `hits` observed links and `hits / 4` dark
/// (attempted-only) links scattered uniformly over `m` columns.
fn sparse_rows(m: usize, rows: usize, hits: usize, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|_| {
            let mut count = vec![0u64; m];
            let mut att = vec![0u64; m];
            for _ in 0..hits {
                let dst = rng.random_range(0..m);
                count[dst] += 1;
                att[dst] += 1;
            }
            for _ in 0..hits / 4 {
                att[rng.random_range(0..m)] += 1;
            }
            (count, att)
        })
        .collect()
}

fn bench_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_row_evidence");
    for &m in &[1_000usize, 10_000] {
        let rows = sparse_rows(m, 16, 8, 7);
        group.bench_with_input(BenchmarkId::new("kernel", m), &rows, |b, rows| {
            b.iter(|| {
                let mut acc = 0usize;
                for (count, att) in rows {
                    scan_row_evidence(count, att, |dst, observed| {
                        acc += dst + observed as usize;
                    });
                }
                black_box(acc)
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar", m), &rows, |b, rows| {
            b.iter(|| {
                let mut acc = 0usize;
                for (count, att) in rows {
                    scalar_walk(0, count, att, |dst, observed| {
                        acc += dst + observed as usize;
                    });
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

criterion_group!(kernels, bench_scan);

/// Timed assertion arm: the kernel must beat the scalar walk. Uses a
/// plain `Instant` race (not criterion statistics) so it can fail the
/// process with a clear message.
fn assert_kernel_wins() {
    let m = 10_000usize;
    let rows = sparse_rows(m, 64, 8, 11);
    let reps = 200usize;
    let race = |f: &dyn Fn(&[u64], &[u64]) -> usize| {
        // Warm the cache once, then time.
        let mut acc = 0usize;
        for (count, att) in &rows {
            acc += f(count, att);
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            for (count, att) in &rows {
                acc += f(count, att);
            }
        }
        (t0.elapsed().as_secs_f64(), black_box(acc))
    };
    let (kernel_s, kernel_acc) = race(&|count, att| {
        let mut acc = 0usize;
        scan_row_evidence(count, att, |dst, observed| acc += dst + observed as usize);
        acc
    });
    let (scalar_s, scalar_acc) = race(&|count, att| {
        let mut acc = 0usize;
        scalar_walk(m, count, att, |dst, observed| acc += dst + observed as usize);
        acc
    });
    assert_eq!(kernel_acc, scalar_acc, "kernel visited different evidence than the scalar walk");
    let speedup = scalar_s / kernel_s.max(1e-12);
    println!("# kernel race: scalar {scalar_s:.4}s, kernel {kernel_s:.4}s, speedup {speedup:.2}x");
    assert!(
        kernel_s < scalar_s,
        "scan_row_evidence ({kernel_s:.4}s) must beat the scalar walk ({scalar_s:.4}s)"
    );
}

/// Records one stage of the round-robin tournament over `m` instances:
/// `m / 2` endpoint-disjoint links (`dst → src` when `reversed`), three
/// samples each.
fn record_stage(
    stats: &mut PairwiseStats,
    m: usize,
    round: usize,
    reversed: bool,
    rng: &mut StdRng,
) {
    for (a, b) in Staged::circle_pairs(m, round) {
        let (src, dst) = if reversed { (b, a) } else { (a, b) };
        let rtts: [f64; 3] = std::array::from_fn(|_| rng.random_range(0.5..5.0));
        stats.record_link(src, dst, 3, 0, &rtts);
    }
}

/// Races a long-lived index (`sync`: touch-log delta) against a fresh one
/// per stage (bulk build from the evidence scan) over 60 stages at
/// m = 400, every instance's score read after each; asserts the scores
/// agree bit for bit and the delta sync wins by ≥ 3×.
fn assert_pool_index_wins<const L: usize>(
    lanes: &str,
    sync: impl Fn(&mut PoolIndex<L>, &PairwiseStats),
) {
    let (m, stages) = (400usize, 60usize);
    let mut rng = StdRng::seed_from_u64(13);
    let mut stats = PairwiseStats::new(m);
    for round in 0..2 * (m - 1) {
        record_stage(&mut stats, m, round % (m - 1), round >= m - 1, &mut rng);
    }
    assert_eq!(stats.covered_links(), m * (m - 1), "the race runs on full coverage");
    let scores = |index: &PoolIndex<L>| -> Vec<[u64; L]> {
        (0..m).map(|j| index.scores(j, 0.5, 0.5).expect("covered").map(f64::to_bits)).collect()
    };
    let mut kept = PoolIndex::<L>::default();
    sync(&mut kept, &stats);
    let (mut sync_s, mut rebuild_s) = (0.0f64, 0.0f64);
    for round in 0..stages {
        record_stage(&mut stats, m, round, false, &mut rng);
        let t0 = Instant::now();
        sync(&mut kept, &stats);
        let synced = black_box(scores(&kept));
        sync_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let mut fresh = PoolIndex::<L>::default();
        sync(&mut fresh, &stats);
        let rebuilt = black_box(scores(&fresh));
        rebuild_s += t0.elapsed().as_secs_f64();
        assert_eq!(
            synced, rebuilt,
            "{lanes}: synced scores diverged from a rebuild at stage {round}"
        );
    }
    assert_eq!(kept.rebuilds(), 1, "{lanes}: the long-lived index rebuilt mid-sweep");
    let speedup = rebuild_s / sync_s.max(1e-12);
    println!(
        "# pool_index race, {lanes}: rebuild {rebuild_s:.4}s, sync {sync_s:.4}s, speedup {speedup:.1}x"
    );
    assert!(
        speedup >= 3.0,
        "{lanes}: pool_index sync must beat rebuild-from-scan by >= 3x, got {speedup:.2}x"
    );
}

fn main() {
    // `cargo bench` passes `--bench`; `cargo test` passes `--test` (the
    // criterion shim then runs each body exactly once). The timed
    // assertions only run under a real bench invocation — a single-shot
    // test-mode sample is too noisy to gate on.
    kernels();
    if std::env::args().any(|a| a == "--bench") {
        assert_kernel_wins();
        assert_pool_index_wins::<1>("1 lane (mean)", PoolIndex::sync_means);
        assert_pool_index_wins::<2>("2 lanes (ci)", |index, stats| {
            index.sync_intervals(stats, 0.95)
        });
    }
}

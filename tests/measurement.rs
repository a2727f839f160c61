//! Cross-crate measurement integration tests: the schemes of §5 (plus
//! the focused scheme; the token-passing and uncoordinated baselines
//! come from the bench crate) over realistic networks, their relative
//! accuracy, and the metric pipeline into cost matrices.

use cloudia::core::LatencyMetric;
use cloudia::measure::error::{normalized_relative_errors, quantile};
use cloudia::measure::{
    FocusedScheme, MeasureConfig, MeasurementReport, PairwiseStats, ProbePlan, Scheme, Staged,
};
use cloudia::netsim::{Cloud, Provider};
use cloudia_bench::baselines::{token_passing, uncoordinated};

fn ec2_network(n: usize, seed: u64) -> cloudia::netsim::Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

#[test]
fn staged_is_more_accurate_than_uncoordinated() {
    // The Fig. 4 headline, as a regression test: median and p90 normalized
    // relative error of staged must beat uncoordinated.
    let n = 24;
    let net = ec2_network(n, 1);
    let cfg = MeasureConfig::default();
    let samples = 16;
    let token = token_passing(&net, &cfg, PairwiseStats::new(n), samples);
    let staged = Staged::new(samples / 2, 4).run(&net, &cfg);
    let unc = uncoordinated(&net, &cfg, PairwiseStats::new(n), samples * (n - 1));

    let base = token.mean_vector();
    let e_staged = normalized_relative_errors(&staged.mean_vector(), &base);
    let e_unc = normalized_relative_errors(&unc.mean_vector(), &base);
    assert!(
        quantile(&e_staged, 0.5) < quantile(&e_unc, 0.5),
        "median: staged {} vs uncoordinated {}",
        quantile(&e_staged, 0.5),
        quantile(&e_unc, 0.5)
    );
    assert!(
        quantile(&e_staged, 0.9) < quantile(&e_unc, 0.9),
        "p90: staged {} vs uncoordinated {}",
        quantile(&e_staged, 0.9),
        quantile(&e_unc, 0.9)
    );
}

#[test]
fn staged_is_far_faster_than_token_at_equal_coverage() {
    let net = ec2_network(30, 2);
    let cfg = MeasureConfig::default();
    let token = token_passing(&net, &cfg, PairwiseStats::new(30), 4);
    let staged = Staged::new(4, 2).run(&net, &cfg);
    // Both observe every ordered pair.
    assert_eq!(token.stats.covered_links(), 30 * 29);
    assert_eq!(staged.stats.covered_links(), 30 * 29);
    assert!(
        staged.elapsed_ms < token.elapsed_ms / 5.0,
        "staged {} vs token {}",
        staged.elapsed_ms,
        token.elapsed_ms
    );
}

#[test]
fn all_schemes_agree_on_a_stationary_network() {
    // Cross-scheme regression: staged, token, uncoordinated, and a
    // full-plan focused run must produce mean matrices that agree within
    // tolerance on a stationary network — and they must keep agreeing
    // after a second accumulation round through `run_onto` (the online
    // advisor's incremental path), which is where a sum/count bug in any
    // scheme's accumulation would surface.
    let n = 12;
    let net = ec2_network(n, 7);
    let cfg = MeasureConfig::default();
    let samples = 24;

    /// Two rounds of `run`, the second onto the first's statistics.
    fn two_rounds(
        name: &str,
        n: usize,
        run: impl Fn(PairwiseStats) -> MeasurementReport,
    ) -> Vec<f64> {
        let first = run(PairwiseStats::new(n));
        let second = run(first.stats);
        assert_eq!(
            second.stats.total_samples(),
            2 * second.round_trips,
            "{name}: accumulated totals must be exactly two rounds"
        );
        second.stats.mean_vector()
    }

    let token = two_rounds("token", n, |stats| token_passing(&net, &cfg, stats, samples));
    let staged =
        two_rounds("staged", n, |stats| Staged::new(samples / 2, 2).run_onto(&net, &cfg, stats));
    let focused = two_rounds("focused", n, |stats| {
        FocusedScheme::new(ProbePlan::full(n), samples / 2, 2).run_onto(&net, &cfg, stats)
    });
    let unc =
        two_rounds("uncoordinated", n, |stats| uncoordinated(&net, &cfg, stats, samples * (n - 1)));

    // Token passing is the interference-free baseline; staged and focused
    // schedule disjoint pairs, so all three agree tightly. Uncoordinated
    // suffers endpoint collisions (the paper's Fig. 4 tail) — a loose
    // median bound still catches an accumulation bug, which corrupts
    // every link, not just the collided few.
    for (name, vector, p50_tol) in
        [("staged", &staged, 0.05), ("focused", &focused, 0.05), ("uncoordinated", &unc, 0.25)]
    {
        let errs = normalized_relative_errors(vector, &token);
        let p50 = quantile(&errs, 0.5);
        assert!(p50 < p50_tol, "{name}: median deviation {p50} vs token exceeds {p50_tol}");
    }
    // Staged and a full-plan focused round use the same discipline; they
    // must agree with each other even more tightly. (The extreme tail is
    // sampling noise — the two schedules consume different jitter/spike
    // draws — so compare at p90, not the max.)
    let errs = normalized_relative_errors(&focused, &staged);
    assert!(
        quantile(&errs, 0.9) < 0.15,
        "focused vs staged diverged: p90 deviation {}",
        quantile(&errs, 0.9)
    );
}

#[test]
fn all_metrics_produce_usable_cost_matrices() {
    let net = ec2_network(12, 3);
    let stats = PairwiseStats::with_p99(12);
    let report = Staged::new(10, 6).run_onto(&net, &MeasureConfig::default(), stats);
    for metric in LatencyMetric::all() {
        let costs = metric.cost_matrix(&report.stats);
        assert_eq!(costs.len(), 12);
        let off = costs.off_diagonal();
        assert!(off.iter().all(|&c| c > 0.0 && c.is_finite()), "{}", metric.name());
    }
    // p99 >= mean+sd >= mean, link-wise.
    let mean = LatencyMetric::Mean.cost_matrix(&report.stats);
    let msd = LatencyMetric::MeanPlusSd.cost_matrix(&report.stats);
    for i in 0..12 {
        for j in 0..12 {
            if i != j {
                assert!(msd.get(i, j) >= mean.get(i, j));
            }
        }
    }
}

#[test]
fn convergence_snapshots_reduce_rmse_over_time() {
    // Fig. 5 as a regression: RMSE against the final estimate decreases.
    let net = ec2_network(16, 4);
    let cfg = MeasureConfig { max_duration_ms: Some(30_000.0), ..MeasureConfig::default() };
    let mut driver = Staged::new(10, 100_000).driver(&cfg, PairwiseStats::new(16));
    // The estimates at the first stage boundary past each 2 s grid point.
    let mut series = Vec::new();
    let mut next_at = 2_000.0;
    while driver.step(&net) {
        while driver.elapsed_ms() >= next_at {
            series.push(driver.stats().mean_vector());
            next_at += 2_000.0;
        }
    }
    let truth = driver.finish().mean_vector();
    let rmses: Vec<f64> = series
        .iter()
        .filter(|v| v.iter().all(|&m| m > 0.0))
        .map(|v| cloudia::measure::error::rmse(v, &truth))
        .collect();
    assert!(rmses.len() >= 3, "need several usable snapshots, got {}", rmses.len());
    let first = rmses.first().unwrap();
    let last = rmses.last().unwrap();
    assert!(last < first, "rmse should fall: first {first}, last {last}");
}

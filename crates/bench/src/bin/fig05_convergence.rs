//! Figure 5: convergence of the staged measurement over time — RMSE of
//! partial mean estimates against the final estimate (Ks = 10).
//!
//! Paper shape: RMSE drops quickly within the first ~5 minutes and
//! smooths out afterwards (100 instances over 30 min in the paper; the
//! quick scale uses a smaller fleet and horizon, same shape).

use cloudia_bench::{standard_network, Fig, Scale};
use cloudia_measure::error::rmse;
use cloudia_measure::{MeasureConfig, PairwiseStats, Scheme, Staged};
use cloudia_netsim::Provider;

fn main() {
    let scale = Scale::from_env();
    let mut fig = Fig::new(
        "fig05",
        "Figure 5",
        "staged measurement convergence (RMSE vs final estimate)",
        scale,
    );
    let n = scale.pick(40, 100);
    let horizon_min = scale.pick(8.0, 30.0);
    let net = standard_network(Provider::ec2_like(), n, 42);

    let every_ms = 30_000.0; // every simulated half-minute
    let cfg =
        MeasureConfig { max_duration_ms: Some(horizon_min * 60_000.0), ..MeasureConfig::default() };
    // Enough sweeps to fill the horizon; the duration limit cuts it off.
    // A stage is a few simulated ms, so reading the estimates at the first
    // stage boundary past each grid point is on the grid to plotting
    // precision.
    let mut driver = Staged::new(10, 1_000_000).driver(&net, &cfg, PairwiseStats::new(n));
    let mut series: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut next_at = every_ms;
    while driver.step() {
        while driver.elapsed_ms() >= next_at {
            series.push((next_at, driver.stats().mean_vector()));
            next_at += every_ms;
        }
    }
    let report = driver.finish();
    let ground_truth = report.mean_vector();

    println!("# instances: {n}, horizon: {horizon_min} min, Ks = 10");
    fig.row(&["minutes".into(), "rmse".into()]);
    for (at_ms, mean_vector) in &series {
        // Skip grid points with unmeasured links (mean 0 would skew RMSE).
        if mean_vector.contains(&0.0) {
            continue;
        }
        fig.row(&[
            format!("{:.1}", at_ms / 60_000.0),
            format!("{:.4}", rmse(mean_vector, &ground_truth)),
        ]);
    }
    println!();
    println!(
        "# total round trips: {} over {:.1} simulated minutes",
        report.round_trips,
        report.elapsed_ms / 60_000.0
    );

    fig.finish();
}

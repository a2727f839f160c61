//! The latency plane itself (paper §2, §5, Appendices 2–3): how
//! heterogeneous and how stable mean latencies are, how well the
//! measurement schemes recover them, and which cheap proxies fail to
//! predict them. Every figure here is a pure function of its seeds.

use crate::approx::{inversion_rate, GroupedLink};
use crate::baselines::{token_passing, uncoordinated};
use crate::{standard_network, true_mean_vector, Fig, Scale};
use cloudia_measure::error::{cdf_at, normalized_relative_errors, pearson, quantile, rmse};
use cloudia_measure::{MeasureConfig, PairwiseStats, Scheme, Staged};
use cloudia_netsim::{InstanceId, Network, Provider};
use rand::{rngs::StdRng, SeedableRng};

/// Figures 1, 18 and 20: CDF of the ground-truth mean latency of every
/// ordered pair among `n` instances of one provider, then the
/// `quantiles` as rows under the paper's `note`, and — Figure 1 only —
/// the share of pairs beyond the paper's `(low, high)` thresholds.
///
/// Paper shapes: EC2 — ~10 % of pairs above 0.7 ms, bottom ~10 % below
/// 0.4 ms, range ~0.2–1.4 ms; GCE — ~5 % below 0.32 ms, top 5 % above
/// 0.5 ms, narrower than EC2 but still heterogeneous; Rackspace — ~5 %
/// below 0.24 ms, top 5 % above 0.38 ms.
pub(super) fn heterogeneity(
    fig: &mut Fig,
    provider: Provider,
    n: usize,
    label: &str,
    quantiles: &[f64],
    note: &str,
    thresholds: Option<(f64, f64)>,
) {
    let means = true_mean_vector(&standard_network(provider, n, 42));
    fig.cdf(label, &means, 40);

    println!();
    println!("{note}");
    for &q in quantiles {
        fig.row(&[format!("p{:.0}", q * 100.0), format!("{:.3} ms", quantile(&means, q))]);
    }
    if let Some((low, high)) = thresholds {
        let share = |keep: &dyn Fn(f64) -> bool| {
            means.iter().filter(|&&m| keep(m)).count() as f64 / means.len() as f64 * 100.0
        };
        fig.row(&[format!("frac > {high} ms"), format!("{:.1} %", share(&|m| m > high))]);
        fig.row(&[format!("frac < {low} ms"), format!("{:.1} %", share(&|m| m < low))]);
    }
}

/// Figures 2, 19 and 21: mean latency of four representative links —
/// the pairs at the 10th/40th/70th/95th percentile of the ground-truth
/// mean distribution among `n` instances — over `buckets` buckets of
/// `bucket_h` hours each; Figure 2 adds each link's coefficient of
/// variation (`cv`).
///
/// Paper shape: flat, well-separated lines — mean latency is stable.
pub(super) fn stability(
    fig: &mut Fig,
    provider: Provider,
    n: usize,
    bucket_h: f64,
    buckets: usize,
    cv: bool,
) {
    let net = standard_network(provider, n, 42);
    let mut rng = StdRng::seed_from_u64(7);

    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
    for i in 0..net.len() as u32 {
        for j in 0..net.len() as u32 {
            if i != j {
                pairs.push((i, j, net.mean_rtt(InstanceId(i), InstanceId(j))));
            }
        }
    }
    pairs.sort_by(|a, b| a.2.total_cmp(&b.2));
    let picks = [10, 40, 70, 95].map(|pct| pairs[pairs.len() * pct / 100]);
    let traces = picks.map(|(a, b, _)| {
        net.link_trace(InstanceId(a), InstanceId(b), bucket_h, buckets, 2000, &mut rng)
    });

    fig.row(&["hours".into(), "link1".into(), "link2".into(), "link3".into(), "link4".into()]);
    for t in 0..buckets {
        let mut cells = vec![format!("{:.0}", traces[0].hours[t])];
        for trace in &traces {
            cells.push(format!("{:.3}", trace.mean_rtt[t]));
        }
        fig.row(&cells);
    }

    if cv {
        println!();
        println!("# stability: coefficient of variation per link (paper: small)");
        for (k, trace) in traces.iter().enumerate() {
            fig.row(&[
                format!("link{} (mean {:.3} ms)", k + 1, picks[k].2),
                format!("cv {:.1} %", trace.coefficient_of_variation() * 100.0),
            ]);
        }
    }
}

/// Figure 4: CDF of the normalized relative error of the staged and
/// uncoordinated measurement schemes against the token-passing baseline,
/// 50 instances, total probe counts matched across schemes.
///
/// Paper shape: staged — 90 % of links under 10 % error, max < 30 %;
/// uncoordinated — 10 % of links above 50 % error.
pub(super) fn fig04(fig: &mut Fig, scale: Scale) {
    let n = 50;
    let net = standard_network(Provider::ec2_like(), n, 42);
    let cfg = MeasureConfig::default();

    let samples_per_pair = scale.pick(24, 60);
    let token = token_passing(&net, &cfg, PairwiseStats::new(n), samples_per_pair);
    let staged = Staged::new(samples_per_pair / 2, 4).run(&net, &cfg);
    let uncoord = uncoordinated(&net, &cfg, PairwiseStats::new(n), samples_per_pair * (n - 1));

    let baseline = token.mean_vector();
    let err_staged = normalized_relative_errors(&staged.mean_vector(), &baseline);
    let err_uncoord = normalized_relative_errors(&uncoord.mean_vector(), &baseline);

    // The paper plots error in percent.
    let pct = |v: &[f64]| v.iter().map(|e| e * 100.0).collect::<Vec<_>>();
    fig.cdf("staged", &pct(&err_staged), 40);
    println!();
    fig.cdf("uncoordinated", &pct(&err_uncoord), 40);

    println!();
    println!("# summary (paper: staged p90 < 10 %, staged max < 30 %; uncoordinated p90 > 50 %)");
    for (name, errs) in [("staged", &err_staged), ("uncoordinated", &err_uncoord)] {
        fig.row(&[
            name.into(),
            format!("p50 {:.1} %", quantile(errs, 0.5) * 100.0),
            format!("p90 {:.1} %", quantile(errs, 0.9) * 100.0),
            format!("max {:.1} %", quantile(errs, 1.0) * 100.0),
            format!("frac<10% {:.2}", cdf_at(errs, 0.10)),
        ]);
    }
    fig.row(&[
        "elapsed_ms".into(),
        format!("token {:.0}", token.elapsed_ms),
        format!("staged {:.0}", staged.elapsed_ms),
        format!("uncoordinated {:.0}", uncoord.elapsed_ms),
    ]);
}

/// Figure 5: convergence of the staged measurement over time — RMSE of
/// the partial mean estimates against the final estimate (Ks = 10).
///
/// Paper shape: RMSE drops quickly within the first ~5 minutes and
/// smooths out afterwards (100 instances over 30 min in the paper; the
/// quick scale uses a smaller fleet and horizon, same shape).
pub(super) fn fig05(fig: &mut Fig, scale: Scale) {
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
    let mut driver = Staged::new(10, 1_000_000).driver(&cfg, PairwiseStats::new(n));
    let mut series: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut next_at = every_ms;
    while driver.step(&net) {
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
}

/// Figure 10: correlation between cost metrics under one allocation of
/// 110 instances — per-link mean vs mean+SD and mean vs p99.
///
/// Paper shape: larger means tend to have larger mean+SD / p99, but the
/// metrics are *not* perfectly correlated.
pub(super) fn fig10(fig: &mut Fig, scale: Scale) {
    let n = scale.pick(60, 110);
    let sweeps = scale.pick(20, 60);
    let net = standard_network(Provider::ec2_like(), n, 42);
    let report = Staged::new(10, sweeps).run_onto(
        &net,
        &MeasureConfig::default(),
        PairwiseStats::with_p99(n),
    );

    let mut mean = Vec::new();
    let mut mean_sd = Vec::new();
    let mut p99 = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let l = report.stats.link(i, j);
                mean.push(l.mean());
                mean_sd.push(l.mean_plus_sd());
                p99.push(l.p99().expect("a full sweep covers every link"));
            }
        }
    }

    println!("# scatter sample (every 50th link): mean vs mean+SD vs p99 [ms]");
    println!("mean\tmean_plus_sd\tp99");
    for k in (0..mean.len()).step_by(50) {
        fig.row(&[
            format!("{:.3}", mean[k]),
            format!("{:.3}", mean_sd[k]),
            format!("{:.3}", p99[k]),
        ]);
    }

    println!();
    println!("# Pearson correlation with mean (paper: positive but imperfect)");
    fig.row(&["mean+SD".into(), format!("{:.3}", pearson(&mean, &mean_sd))]);
    fig.row(&["p99".into(), format!("{:.3}", pearson(&mean, &p99))]);
}

/// Figures 16 and 17 (Appendix 2 negative results): the links of 100
/// instances ordered by latency within the groups of a cheap proxy (IP
/// distance, hop count) — per-group ranges, a sample of the ordering,
/// and the inversion rate showing the proxy does not predict latency.
pub(super) fn proxy_grouping(
    fig: &mut Fig,
    group: fn(&Network) -> Vec<GroupedLink>,
    group_label: &str,
    conclusion: &str,
) {
    let links = group(&standard_network(Provider::ec2_like(), 100, 42));

    // Per-group summaries show the overlap the paper highlights.
    println!("group\tcount\tmin_ms\tmedian_ms\tmax_ms");
    let groups: std::collections::BTreeSet<u32> = links.iter().map(|l| l.group).collect();
    for g in groups {
        let mut sorted: Vec<f64> =
            links.iter().filter(|l| l.group == g).map(|l| l.mean_rtt).collect();
        sorted.sort_by(f64::total_cmp);
        fig.row(&[
            format!("{group_label} {g}"),
            format!("{}", sorted.len()),
            format!("{:.3}", sorted[0]),
            format!("{:.3}", sorted[sorted.len() / 2]),
            format!("{:.3}", sorted[sorted.len() - 1]),
        ]);
    }

    println!();
    println!("# link#, sorted by (group, latency) — sample every 100th link");
    println!("link\tgroup\tmean_ms");
    for (i, l) in links.iter().enumerate().step_by(100) {
        fig.row(&[format!("{i}"), format!("{}", l.group), format!("{:.3}", l.mean_rtt)]);
    }

    println!();
    println!(
        "# inversion rate (0 = perfect predictor, 0.5 = useless): {:.3}",
        inversion_rate(&links)
    );
    println!("# paper conclusion: {conclusion}");
}

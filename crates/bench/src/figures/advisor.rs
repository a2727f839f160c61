//! The whole advisor against the paper's three applications (paper
//! §6.2, §6.4) and two extensions — placement groups and re-deployment
//! under drift. Every figure here runs on wall-clock search budgets.

use crate::{standard_network, Fig, Scale};
use cloudia_core::{
    redeploy, Advisor, AdvisorConfig, CommGraph, LatencyMetric, Objective, RedeployPolicy,
    SearchStrategy,
};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_netsim::{Cloud, DriftingNetwork, Provider};
use cloudia_workloads::{AggregationQuery, BehavioralSim, KvStore, Workload};

/// The paper's three applications with the objective each optimizes:
/// behavioral simulation, aggregation query, key-value store (§6.1).
fn workloads(scale: Scale) -> [(Box<dyn Workload>, Objective); 3] {
    let (side, ticks, agg_fanout, (kv_front, kv_storage)) =
        scale.pick((6, 400, 6, (8, 28)), (10, 1000, 7, (20, 80)));
    [
        (
            Box::new(BehavioralSim { sample_ticks: ticks, ..BehavioralSim::new(side, side) }),
            Objective::LongestLink,
        ),
        (Box::new(AggregationQuery::new(agg_fanout, 2)), Objective::LongestPath),
        (Box::new(KvStore::new(kv_front, kv_storage)), Objective::LongestLink),
    ]
}

/// `n` nodes plus the paper's 10 % over-allocation.
fn over_allocated(n: usize) -> usize {
    n + (n as f64 * 0.1).ceil() as usize
}

/// The default deployment of `n` nodes: node k on instance k.
fn default_plan(n: usize) -> Vec<u32> {
    (0..n as u32).collect()
}

/// Figure 11: application performance of deployments optimized under
/// Mean+SD or p99, relative to deployments optimized under the mean, for
/// all three workloads.
///
/// Paper shape: p99 *reduces* performance for all three applications;
/// Mean+SD helps slightly for the behavioral simulation and aggregation
/// query but hurts the key-value store; all differences are modest —
/// mean latency is a robust metric.
pub(super) fn fig11(fig: &mut Fig, scale: Scale) {
    let search_s = scale.pick(3.0, 60.0);
    let sweeps = scale.pick(20, 60);

    println!("workload\tmetric\tvalue_ms\trel_improvement_vs_mean_%");
    for (w, objective) in workloads(scale) {
        let graph = w.graph();
        let net = standard_network(Provider::ec2_like(), over_allocated(graph.num_nodes()), 77);
        let stats = LatencyMetric::P99.empty_stats(net.len());
        let report = Staged::new(10, sweeps).run_onto(&net, &MeasureConfig::default(), stats);

        let mut mean_value = None;
        for metric in LatencyMetric::all() {
            let problem = graph.problem(metric.cost_matrix(&report.stats));
            let out = SearchStrategy::recommended(objective, search_s).run(&problem, objective);
            let perf = w.run(&net, &out.deployment, 5).value_ms;
            // The first metric is the mean: the baseline of the others.
            let base = *mean_value.get_or_insert(perf);
            fig.row(&[
                w.name().into(),
                metric.name().into(),
                format!("{perf:.1}"),
                format!("{:+.1}", (base - perf) / base * 100.0),
            ]);
        }
    }
    println!();
    println!(
        "# paper: p99 hurts all three; Mean+SD mildly helps sim/agg, hurts kv; mean is robust"
    );
}

/// Figure 12: overall effectiveness — percentage reduction in
/// time-to-solution / response time over five allocations for the three
/// workloads, ClouDiA deployment vs default deployment.
///
/// Paper shape: 15–55 % reduction across all allocation × workload
/// combinations; aggregation query benefits most on average, key-value
/// store least (its cost function is an imperfect match).
pub(super) fn fig12(fig: &mut Fig, scale: Scale) {
    let search_s = scale.pick(8.0, 120.0);
    let workloads = workloads(scale);

    println!("allocation\tworkload\tdefault_ms\tcloudia_ms\treduction_%");
    let mut reductions = Vec::new();
    for alloc_id in 1..=5u64 {
        for (w, objective) in &workloads {
            let graph = w.graph();
            let n = graph.num_nodes();
            let net = standard_network(Provider::ec2_like(), over_allocated(n), 1000 + alloc_id);
            let advisor = Advisor::new(AdvisorConfig {
                objective: *objective,
                search_time_s: search_s,
                ..AdvisorConfig::default()
            });
            let outcome = advisor.run_on_network(&net, &graph, alloc_id);

            let t_default = w.run(&net, &default_plan(n), alloc_id).value_ms;
            let t_cloudia = w.run(&net, &outcome.deployment, alloc_id).value_ms;
            let reduction = (t_default - t_cloudia) / t_default * 100.0;
            reductions.push(reduction);
            fig.row(&[
                format!("{alloc_id}"),
                w.name().into(),
                format!("{t_default:.1}"),
                format!("{t_cloudia:.1}"),
                format!("{reduction:.1}"),
            ]);
        }
    }
    let (lo, hi) = reductions
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    println!();
    println!("# observed reduction range: {lo:.1} % .. {hi:.1} % (paper: 15–55 %)");
}

/// Figure 13: time-to-solution of the behavioral simulation under
/// over-allocation ratios of 0–50 %, default vs ClouDiA.
///
/// Paper methodology: a single allocation of 150 instances; the
/// over-allocation-x case uses the first (1 + x)·100 instances in default
/// order; the default deployment always uses the first 100. Paper shape:
/// 16 % improvement at 0 % over-allocation (pure injection choice), 28 %
/// at 10 %, 38 % at 50 % — the first 10 % of extra instances buys the
/// biggest step.
pub(super) fn fig13(fig: &mut Fig, scale: Scale) {
    let (rows, cols) = scale.pick((6, 6), (10, 10));
    let n = rows * cols;
    let search_s = scale.pick(8.0, 120.0);
    let sim =
        BehavioralSim { sample_ticks: scale.pick(400, 1000), ..BehavioralSim::new(rows, cols) };

    // One allocation of 1.5·n, as in the paper.
    let full_net = standard_network(Provider::ec2_like(), n + n / 2, 4242);
    let t_default = sim.run(&full_net, &default_plan(n), 9).value_ms;

    println!("# mesh {rows}x{cols} ({n} nodes), allocation of {} instances", n + n / 2);
    println!("over_allocation_%\tdefault_s\tcloudia_s\timprovement_%");
    for pct in [0usize, 10, 20, 30, 40, 50] {
        let net = full_net.prefix(n + n * pct / 100);
        let advisor = Advisor::new(AdvisorConfig {
            over_allocation: pct as f64 / 100.0,
            search_time_s: search_s,
            ..AdvisorConfig::default()
        });
        let outcome = advisor.run_on_network(&net, &sim.graph(), 9);
        let t_cloudia = sim.run(&net, &outcome.deployment, 9).value_ms;
        fig.row(&[
            format!("{pct}"),
            format!("{:.1}", t_default / 1000.0),
            format!("{:.1}", t_cloudia / 1000.0),
            format!("{:.1}", (t_default - t_cloudia) / t_default * 100.0),
        ]);
    }
    println!();
    println!("# paper: 16 % at 0 %, 28 % at 10 %, 38 % at 50 % over-allocation");
}

/// Extension (paper §1, footnote 1): cluster placement groups vs
/// ClouDiA for the behavioral simulation — default deployment on
/// ordinary instances, ClouDiA on ordinary instances (10 %
/// over-allocation), and a contiguous placement group (when one fits).
///
/// EC2's cluster placement groups are the one provider mechanism
/// exposing locality, but they cost much more and are size-limited.
/// Expected: the placement group wins on raw latency (all links
/// intra-pod) at a steep price premium; ClouDiA recovers most of the gap
/// for the cost of a 10 % one-hour over-allocation.
pub(super) fn ext_placement_groups(fig: &mut Fig, scale: Scale) {
    let (rows, cols) = scale.pick((6, 6), (8, 8));
    let n = rows * cols;
    let sim =
        BehavioralSim { sample_ticks: scale.pick(400, 1000), ..BehavioralSim::new(rows, cols) };
    // Paper footnote: cluster instances are "much more costly"; EC2's
    // cc1.4xlarge vs m1.large was roughly a 4x per-hour premium.
    let price_premium = 4.0;

    println!("option\ttime_to_solution_s\trelative_cost");
    let mut results = Vec::new();
    for seed in [11u64, 22, 33] {
        let mut cloud = Cloud::boot(Provider::ec2_like(), seed);

        // Ordinary scattered allocation with 10 % extra.
        let ordinary = cloud.allocate(n + n / 10);
        let net = cloud.network(&ordinary);
        let t_default = sim.run(&net, &default_plan(n), seed).value_ms / 1000.0;

        let advisor = Advisor::new(AdvisorConfig {
            objective: Objective::LongestLink,
            search_time_s: scale.pick(6.0, 60.0),
            ..AdvisorConfig::fast()
        });
        let outcome = advisor.run_on_network(&net, &sim.graph(), seed);
        let t_cloudia = sim.run(&net, &outcome.deployment, seed).value_ms / 1000.0;

        // Placement group (same region, fresh slots).
        let t_group = cloud
            .allocate_placement_group(n)
            .map(|group| sim.run(&cloud.network(&group), &default_plan(n), seed).value_ms / 1000.0);

        results.push((t_default, t_cloudia, t_group));
    }

    type Row = (f64, f64, Option<f64>);
    let avg = |f: &dyn Fn(&Row) -> Option<f64>| {
        let vals: Vec<f64> = results.iter().filter_map(f).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let t_def = avg(&|r| Some(r.0));
    let t_cla = avg(&|r| Some(r.1));
    let t_grp = avg(&|r| r.2);
    fig.row(&["default (ordinary)".into(), format!("{t_def:.1}"), "1.0x".into()]);
    fig.row(&[
        "cloudia (ordinary, 10% over-alloc)".into(),
        format!("{t_cla:.1}"),
        // One hour of 10 % extra instances, amortized over a long run.
        "~1.0x".into(),
    ]);
    fig.row(&["placement group".into(), format!("{t_grp:.1}"), format!("{price_premium:.1}x")]);

    println!();
    println!(
        "# ClouDiA recovers {:.0} % of the placement group's advantage at ~1/{}th the price",
        (t_def - t_cla) / (t_def - t_grp).max(1e-9) * 100.0,
        price_premium
    );
}

/// Extension (paper §2.2.1): iterative re-deployment under drifting
/// network conditions. The paper assumes stable means (Figure 2) but
/// sketches re-deployment as iterations of measure → search → redeploy;
/// this drifts the network for several simulated days (one continuous OU
/// path per link) and compares the longest-link cost of keeping the
/// day-0 plan against re-running ClouDiA each epoch with a
/// migration-aware policy.
pub(super) fn ext_redeployment(fig: &mut Fig, scale: Scale) {
    let graph = CommGraph::mesh_2d(scale.pick(5, 8), scale.pick(5, 8));
    let n = graph.num_nodes();
    let mut drifting =
        DriftingNetwork::new(standard_network(Provider::ec2_like(), n + n / 10, 77), 5);

    let advisor = Advisor::new(AdvisorConfig {
        objective: Objective::LongestLink,
        search_time_s: scale.pick(4.0, 30.0),
        ..AdvisorConfig::fast()
    });
    let policy = RedeployPolicy { min_gain: 0.05, migration_cost_per_node: 0.0 };

    let static_plan = advisor.run_on_network(drifting.network(), &graph, 1).deployment;
    let mut adaptive_plan = static_plan.clone();

    println!("epoch_h\tstatic_cost_ms\tadaptive_cost_ms\tmigrated\tmoved_nodes");
    let epochs = scale.pick(6, 12);
    let epoch_hours = 24.0;
    for e in 0..=epochs {
        if e > 0 {
            drifting.step(epoch_hours);
            drifting.advance_all();
        }
        let net = drifting.network();
        let problem = graph.problem(net.mean_matrix());
        let static_cost = problem.longest_link(&static_plan);

        let (migrated, moved) = if e > 0 {
            let decision = redeploy(&advisor, net, &graph, &adaptive_plan, policy, 100 + e as u64);
            if decision.migrate {
                adaptive_plan = decision.outcome.deployment;
            }
            (decision.migrate, decision.moved_nodes)
        } else {
            (false, 0)
        };
        let adaptive_cost = problem.longest_link(&adaptive_plan);
        fig.row(&[
            format!("{:.0}", e as f64 * epoch_hours),
            format!("{static_cost:.3}"),
            format!("{adaptive_cost:.3}"),
            format!("{migrated}"),
            format!("{moved}"),
        ]);
    }
    println!();
    println!("# re-deployment holds the cost near the per-epoch optimum as links drift");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_graph_sizes() {
        // (scale, node counts, instances allocated with 10 % extra)
        for (scale, nodes, instances) in [
            (Scale::Quick, [36, 43, 36], [40, 48, 40]),
            (Scale::Paper, [100, 57, 100], [110, 63, 110]),
        ] {
            let got = workloads(scale).map(|(w, _)| w.graph().num_nodes());
            assert_eq!(got, nodes, "{scale:?}");
            assert_eq!(got.map(over_allocated), instances, "{scale:?}");
        }
    }
}

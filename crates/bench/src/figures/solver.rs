//! The search techniques (paper §6.3–§6.5): CP and MIP convergence,
//! CP scalability, the lightweight heuristics against the exact
//! provers, and two extensions — the CP design ablation and the parallel
//! portfolio. Every figure here runs on wall-clock solver budgets.

use std::time::Instant;

use crate::{measured_costs, standard_network, Fig, Scale};
use cloudia_core::{CommGraph, CostMatrix, LatencyMetric, SearchStrategy};
use cloudia_netsim::Provider;
use cloudia_solver::{
    solve_llndp_cp, solve_llndp_mip, solve_lpndp_mip, solve_portfolio, solve_random_budget,
    solve_random_count, Budget, CpConfig, GreedyVariant, MipConfig, NodeDeployment, Objective,
    PortfolioConfig, Propagation, SolveHint, SolveOutcome,
};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// Staged mean-latency costs (Ks = 5, two sweeps, measurement seed
/// `measure_seed`) of `m` EC2-like instances booted from `net_seed`.
fn ec2_costs(m: usize, net_seed: u64, measure_seed: u64) -> CostMatrix {
    let net = standard_network(Provider::ec2_like(), m, net_seed);
    measured_costs(&net, LatencyMetric::Mean, 5, 2, measure_seed)
}

/// A CP run on a wall-clock budget.
fn cp_config(budget_s: f64, clusters: Option<usize>, seed: u64) -> CpConfig {
    CpConfig { budget: Budget::seconds(budget_s), clusters, seed, ..CpConfig::default() }
}

/// A MIP run on a wall-clock budget.
fn mip_config(budget_s: f64, clusters: Option<usize>, seed: u64) -> MipConfig {
    MipConfig { budget: Budget::seconds(budget_s), clusters, seed, ..MipConfig::default() }
}

/// When the anytime curve stopped improving (seconds).
fn converged_at(out: &SolveOutcome) -> f64 {
    out.curve.last().map_or(0.0, |&(t, _)| t)
}

/// Rows-by-columns of a mesh with `nodes` nodes, as square as divides.
fn mesh_dims(nodes: usize) -> (usize, usize) {
    let r = (nodes as f64).sqrt() as usize;
    (1..=r)
        .rev()
        .find(|&rows| nodes.is_multiple_of(rows))
        .map_or((1, nodes), |rows| (rows, nodes / rows))
}

/// Prints an anytime curve as `label, elapsed_s, cost` rows, then a
/// `label, final, final_cell` row.
fn curve(fig: &mut Fig, label: &str, out: &SolveOutcome, final_cell: String) {
    for &(t, c) in &out.curve {
        fig.row(&[label.into(), format!("{t:.2}"), format!("{c:.3}")]);
    }
    fig.row(&[label.into(), "final".into(), final_cell]);
}

/// Figures 6 and 9's three arms — k = 5, k = 20 and no cost clustering —
/// each a convergence curve plus its final cost, proof and node count.
fn by_clusters(fig: &mut Fig, solve: impl Fn(Option<usize>) -> SolveOutcome) {
    for (label, clusters) in [("k=5", Some(5)), ("k=20", Some(20)), ("no-clustering", None)] {
        let out = solve(clusters);
        let summary = format!(
            "{:.3} (optimal_proven={}, nodes={})",
            out.cost, out.proven_optimal, out.explored
        );
        curve(fig, label, &out, summary);
    }
}

/// Figure 6: convergence of the CP solver on LLNDP with k = 5, k = 20
/// and no cost clusters.
///
/// Paper shape: k = 20 converges fastest; k = 5 converges quickly but to
/// a worse cost (clusters too coarse to discriminate); no clustering
/// reaches the same quality as k = 20 but takes much longer.
pub(super) fn fig06(fig: &mut Fig, scale: Scale) {
    // 90 % of instances carry application nodes (paper §6.3.1).
    let (rows, cols, m) = scale.pick((6, 6, 40), (9, 10, 100));
    let budget_s = scale.pick(10.0, 120.0);
    let problem = CommGraph::mesh_2d(rows, cols).problem(ec2_costs(m, 42, 0));

    println!("# mesh {rows}x{cols} on {m} instances, budget {budget_s}s per config");
    println!("config\telapsed_s\tlongest_link_ms");
    by_clusters(fig, |clusters| solve_llndp_cp(&problem, &cp_config(budget_s, clusters, 1)));
}

/// Figure 7: convergence of CP vs MIP on LLNDP with k = 20 cost clusters.
///
/// Paper shape: "MIP performs poorly with the scale of 100 instances" —
/// its incumbent barely improves over the bootstrap while CP finds a far
/// better deployment. The weak linear relaxation (x_ij + x_i'j' must
/// exceed 1 before the constraint bites) is reproduced by our
/// branch-and-bound exactly.
pub(super) fn fig07(fig: &mut Fig, scale: Scale) {
    let (rows, cols, m) = scale.pick((5, 6, 34), (9, 10, 100));
    let budget_s = scale.pick(15.0, 300.0);
    let problem = CommGraph::mesh_2d(rows, cols).problem(ec2_costs(m, 42, 0));

    println!("# mesh {rows}x{cols} on {m} instances, budget {budget_s}s per solver");
    println!("solver\telapsed_s\tlongest_link_ms");
    let cp = solve_llndp_cp(&problem, &cp_config(budget_s, Some(20), 1));
    curve(fig, "cp", &cp, format!("{:.3}", cp.cost));
    let mip = solve_llndp_mip(&problem, &mip_config(budget_s, Some(20), 1));
    curve(fig, "mip", &mip, format!("{:.3}", mip.cost));

    println!();
    println!(
        "# paper: CP finds a significantly better solution; here cp={:.3} vs mip={:.3} ({}x)",
        cp.cost,
        mip.cost,
        (mip.cost / cp.cost * 10.0).round() / 10.0
    );
}

/// Figure 8: CP solver scalability — average convergence time (the
/// timestamp of the last improvement) vs number of instances, over
/// random subsets of one 100-instance allocation.
///
/// Paper methodology: 50 random subsets per size. Paper shape:
/// convergence time increases acceptably with problem size.
pub(super) fn fig08(fig: &mut Fig, scale: Scale) {
    let full = 100;
    let subsets_per_size = scale.pick(5, 50);
    let budget_s = scale.pick(5.0, 60.0);
    let all_costs = ec2_costs(full, 42, 0);
    let mut rng = StdRng::seed_from_u64(9);

    println!("# subsets/size: {subsets_per_size}, per-run budget {budget_s}s");
    println!("instances\tavg_convergence_s\tavg_cost_ms");
    for m in [20usize, 40, 60, 80, 100] {
        // Mesh sized to ~90 % of instances.
        let (rows, cols) = mesh_dims((m as f64 * 0.9) as usize);
        let graph = CommGraph::mesh_2d(rows, cols);
        let (mut conv_total, mut cost_total) = (0.0, 0.0);
        for s in 0..subsets_per_size as u64 {
            let mut idx: Vec<u32> = (0..full as u32).collect();
            idx.shuffle(&mut rng);
            idx.truncate(m);
            let problem = graph.problem(all_costs.submatrix(&idx));
            let out = solve_llndp_cp(&problem, &cp_config(budget_s, Some(20), s));
            conv_total += converged_at(&out);
            cost_total += out.cost;
        }
        fig.row(&[
            format!("{m}"),
            format!("{:.2}", conv_total / subsets_per_size as f64),
            format!("{:.3}", cost_total / subsets_per_size as f64),
        ]);
    }
}

/// Figure 9: convergence of the MIP solver on LPNDP with k = 5, k = 20
/// and no cost clusters.
///
/// Paper shape: k = 5 performs poorly; clustering does *not* improve
/// LPNDP performance because path costs are sums, so the solver cannot
/// exploit fewer distinct values.
pub(super) fn fig09(fig: &mut Fig, scale: Scale) {
    // Aggregation tree with depth <= 4 (paper §6.3.3); 45 nodes / 50
    // instances at paper scale.
    let (fanout, levels, m) = scale.pick((3, 2, 15), (2, 4, 50));
    let budget_s = scale.pick(10.0, 300.0);
    let graph = CommGraph::aggregation_tree(fanout, levels);
    let problem = graph.problem(ec2_costs(m, 42, 0));

    println!(
        "# tree fanout {fanout} levels {levels} ({} nodes) on {m} instances, budget {budget_s}s",
        graph.num_nodes()
    );
    println!("config\telapsed_s\tlongest_path_ms");
    by_clusters(fig, |clusters| solve_lpndp_mip(&problem, &mip_config(budget_s, clusters, 1)));
    println!();
    println!("# paper: clustering does not improve LPNDP (costs aggregate by summation)");
}

/// One lightweight-vs-prover figure: greedy G1/G2 (the longest-link
/// greedy, re-costed under the objective), R1 (1,000 random
/// deployments) and R2 (random search on the prover's budget) against
/// the exact prover, averaged over allocations.
struct Lightweight {
    objective: Objective,
    graph: CommGraph,
    /// The graph's shape, for the header ("mesh", "tree").
    shape: &'static str,
    /// Instances per allocation; allocation `a` boots from
    /// `seed_base + a`.
    instances: usize,
    seed_base: u64,
    /// The prover's label ("CP", "MIP").
    prover: &'static str,
    /// The prover's wall-clock budget, shared with R2.
    budget_s: f64,
    /// The prover call: `(problem, budget_s, seed) → cost`.
    solve: fn(&NodeDeployment, f64, u64) -> f64,
    /// The paper's result, printed last.
    note: &'static str,
}

impl Lightweight {
    fn run(self, fig: &mut Fig, scale: Scale) {
        let Self { objective, graph, shape, instances, seed_base, prover, budget_s, solve, note } =
            self;
        let allocations = scale.pick(8, 20);
        let mut totals = [0.0f64; 5]; // g1, g2, r1, r2, prover
        for a in 0..allocations as u64 {
            let problem = graph.problem(ec2_costs(instances, seed_base + a, a));
            let greedy = |v| SearchStrategy::Greedy(v).run(&problem, objective).cost;
            totals[0] += greedy(GreedyVariant::G1);
            totals[1] += greedy(GreedyVariant::G2);
            totals[2] += solve_random_count(&problem, objective, 1000, a).cost;
            totals[3] +=
                solve_random_budget(&problem, objective, Budget::seconds(budget_s), 0, a).cost;
            totals[4] += solve(&problem, budget_s, a);
        }

        println!(
            "# {allocations} allocations of {instances} instances, {}-node {shape}, {budget_s}s for R2/{prover}",
            graph.num_nodes()
        );
        println!(
            "method\tavg_{}_ms\tvs_{}",
            objective.name().replace('-', "_"),
            prover.to_lowercase()
        );
        let proved = totals[4] / allocations as f64;
        for (name, total) in ["G1", "G2", "R1", "R2", prover].into_iter().zip(totals) {
            let avg = total / allocations as f64;
            fig.row(&[
                name.into(),
                format!("{avg:.3}"),
                format!("{:+.1} %", (avg / proved - 1.0) * 100.0),
            ]);
        }
        println!();
        println!("{note}");
    }
}

/// Figure 14: lightweight approaches vs CP on LLNDP.
///
/// Paper: 20 allocations of 50 instances, 10 % over-allocation (45
/// nodes); CP and R2 run for 2 minutes. Paper shape: G1 worst (~66.7 %
/// above CP); G2 much better; R1 slightly better than G2; R2 within
/// ~8.65 % of CP.
pub(super) fn fig14(fig: &mut Fig, scale: Scale) {
    Lightweight {
        objective: Objective::LongestLink,
        graph: CommGraph::mesh_2d(5, 9),
        shape: "mesh",
        instances: 50,
        seed_base: 100,
        prover: "CP",
        budget_s: scale.pick(3.0, 120.0),
        solve: |problem, budget_s, seed| {
            solve_llndp_cp(problem, &cp_config(budget_s, Some(20), seed)).cost
        },
        note: "# paper: G1 +66.7 %, R2 +8.65 % vs CP; R1 slightly better than G2",
    }
    .run(fig, scale);
}

/// Figure 15: lightweight approaches vs MIP on LPNDP.
///
/// Paper shape: G1/G2 comparable to R1; R2 *beats* MIP by ~5 % on
/// average (random search explores more of this solution space per
/// second than the weak MIP relaxation).
pub(super) fn fig15(fig: &mut Fig, scale: Scale) {
    let (fanout, levels) = scale.pick((4, 2), (6, 2));
    Lightweight {
        objective: Objective::LongestPath,
        graph: CommGraph::aggregation_tree(fanout, levels),
        shape: "tree",
        instances: scale.pick(24, 50),
        seed_base: 200,
        prover: "MIP",
        budget_s: scale.pick(3.0, 900.0),
        solve: |problem, budget_s, seed| {
            solve_lpndp_mip(problem, &mip_config(budget_s, None, seed)).cost
        },
        note: "# paper: R2 ~5.1 % below MIP; G1/G2 comparable to R1",
    }
    .run(fig, scale);
}

/// Ablation of the CP solver's design choices: degree-compatibility
/// domain filtering and cost clustering, crossed.
///
/// Not a paper figure — this quantifies which parts of our CP
/// implementation carry the weight, the way the paper's §6.3 motivates
/// clustering. Expected: clustering dominates wall-clock convergence;
/// degree filtering trims search nodes, most visibly without clustering.
pub(super) fn ablation_cp(fig: &mut Fig, scale: Scale) {
    let (rows, cols, m) = scale.pick((6, 6, 40), (9, 10, 100));
    let budget_s = scale.pick(8.0, 60.0);
    let repeats = scale.pick(3, 10);

    println!("# mesh {rows}x{cols} on {m} instances, {budget_s}s budget, {repeats} seeds");
    println!("config\tavg_cost_ms\tavg_nodes\tavg_converge_s\toptimal_proven");
    for (label, clusters, degree_filter) in [
        ("k20+degree", Some(20), true),
        ("k20-no-degree", Some(20), false),
        ("raw+degree", None, true),
        ("raw-no-degree", None, false),
    ] {
        let (mut cost, mut nodes, mut conv, mut proven) = (0.0, 0u64, 0.0, 0usize);
        for s in 0..repeats as u64 {
            let problem = CommGraph::mesh_2d(rows, cols).problem(ec2_costs(m, 500 + s, s));
            let config = CpConfig { degree_filter, ..cp_config(budget_s, clusters, s) };
            let out = solve_llndp_cp(&problem, &config);
            cost += out.cost;
            nodes += out.explored;
            conv += converged_at(&out);
            proven += usize::from(out.proven_optimal);
        }
        let r = repeats as f64;
        fig.row(&[
            label.into(),
            format!("{:.3}", cost / r),
            format!("{}", nodes / repeats as u64),
            format!("{:.2}", conv / r),
            format!("{proven}/{repeats}"),
        ]);
    }
}

/// Extension: parallel portfolio scalability on the Figure 8 instance
/// (EC2-like network, mesh over ~90 % of the instances), two questions:
///
/// 1. **Trail speedup** — nodes/second of the trail-based CP propagation
///    vs the copy-domains-per-node backend under an identical node
///    budget (identical search trees, so the ratio is pure
///    representation overhead).
/// 2. **Portfolio time-to-quality** — wall-clock time for the portfolio
///    at 1/2/4 threads to reach the final cost of a single-threaded CP
///    run, plus the cost each configuration ends at.
pub(super) fn ext_portfolio(fig: &mut Fig, scale: Scale) {
    let m = scale.pick(40, 100);
    let budget_s = scale.pick(5.0, 60.0);
    let node_budget = scale.pick(200_000u64, 2_000_000u64);

    let (rows, cols) = mesh_dims((m as f64 * 0.9) as usize);
    let problem = CommGraph::mesh_2d(rows, cols).problem(ec2_costs(m, 42, 0));
    println!("# instance: {m} instances, {rows}x{cols} mesh, per-run budget {budget_s}s");

    // Part 1: trail vs clone propagation at a fixed node budget.
    println!("backend\tnodes\tseconds\tnodes_per_sec");
    let mut rates = [0.0f64; 2];
    for (rate, (name, propagation)) in
        rates.iter_mut().zip([("trail", Propagation::Trail), ("clone", Propagation::CloneDomains)])
    {
        let config =
            CpConfig { budget: Budget::nodes(node_budget), propagation, ..CpConfig::default() };
        let t0 = Instant::now();
        let out = solve_llndp_cp(&problem, &config);
        let secs = t0.elapsed().as_secs_f64();
        *rate = out.explored as f64 / secs.max(1e-9);
        fig.row(&[
            name.to_string(),
            format!("{}", out.explored),
            format!("{secs:.3}"),
            format!("{:.0}", *rate),
        ]);
    }
    println!("# trail speedup: {:.2}x nodes/sec over clone-domains", rates[0] / rates[1].max(1e-9));

    // Part 2: single-threaded CP as the baseline for time-to-quality.
    let t0 = Instant::now();
    let cp = solve_llndp_cp(&problem, &cp_config(budget_s, Some(20), 0));
    let cp_secs = t0.elapsed().as_secs_f64();
    let target = cp.cost;
    let cp_reach = converged_at(&cp);
    println!("# single-thread CP: final cost {target:.4} ms (last improvement at {cp_reach:.2}s, total {cp_secs:.2}s)");

    println!("solver\tthreads\tfinal_cost_ms\ttime_to_cp_cost_s\ttotal_s\texplored");
    fig.row(&[
        "cp".into(),
        "1".into(),
        format!("{target:.4}"),
        format!("{cp_reach:.3}"),
        format!("{cp_secs:.2}"),
        format!("{}", cp.explored),
    ]);
    for threads in [1usize, 2, 4] {
        let config = PortfolioConfig {
            budget: Budget::seconds(budget_s),
            threads,
            ..PortfolioConfig::default()
        };
        let t0 = Instant::now();
        let out =
            solve_portfolio(&problem, Objective::LongestLink, &config, &SolveHint::Cold, None);
        let secs = t0.elapsed().as_secs_f64();
        // Earliest time the merged curve is at least as good as CP's final.
        let reach = out
            .curve
            .iter()
            .find(|&&(_, c)| c <= target + 1e-9)
            .map_or_else(|| "never".into(), |&(t, _)| format!("{t:.3}"));
        fig.row(&[
            "portfolio".into(),
            format!("{threads}"),
            format!("{:.4}", out.cost),
            reach,
            format!("{secs:.2}"),
            format!("{}", out.explored),
        ]);
    }
}

//! Cross-solver integration tests: on small instances where brute force is
//! feasible, every exact method (CP, MIP) must agree with enumeration, and
//! the heuristics must produce valid, no-worse-than-random deployments.

use cloudia::solver::{
    solve_greedy, solve_llndp_cp, solve_llndp_mip, solve_lpndp_mip, solve_portfolio,
    solve_random_count, Budget, Costs, CpConfig, GreedyVariant, MipConfig, NodeDeployment,
    Objective, PortfolioConfig, SolveHint,
};
fn random_problem(n: usize, m: usize, edges: Vec<(u32, u32)>, seed: u64) -> NodeDeployment {
    NodeDeployment::new(n, edges, Costs::random_uniform(m, seed))
}

fn brute_force(problem: &NodeDeployment, objective: Objective) -> f64 {
    fn rec(
        p: &NodeDeployment,
        o: Objective,
        partial: &mut Vec<u32>,
        used: &mut Vec<bool>,
        best: &mut f64,
    ) {
        if partial.len() == p.num_nodes {
            *best = best.min(p.cost(o, partial));
            return;
        }
        for j in 0..p.num_instances() {
            if !used[j] {
                used[j] = true;
                partial.push(j as u32);
                rec(p, o, partial, used, best);
                partial.pop();
                used[j] = false;
            }
        }
    }
    let mut best = f64::INFINITY;
    rec(problem, objective, &mut Vec::new(), &mut vec![false; problem.num_instances()], &mut best);
    best
}

#[test]
fn cp_and_mip_agree_with_brute_force_on_llndp() {
    for seed in 0..4 {
        let p = random_problem(4, 6, vec![(0, 1), (1, 2), (2, 3), (3, 0)], seed);
        let opt = brute_force(&p, Objective::LongestLink);
        let cp = solve_llndp_cp(
            &p,
            &CpConfig {
                clusters: None,
                quantum: 0.0,
                budget: Budget::seconds(20.0),
                ..Default::default()
            },
        );
        let mip = solve_llndp_mip(
            &p,
            &MipConfig { quantum: 0.0, budget: Budget::seconds(30.0), ..Default::default() },
        );
        assert!(cp.proven_optimal && mip.proven_optimal, "seed {seed}");
        assert!((cp.cost - opt).abs() < 1e-6, "seed {seed}: cp {} vs {opt}", cp.cost);
        assert!((mip.cost - opt).abs() < 1e-6, "seed {seed}: mip {} vs {opt}", mip.cost);
    }
}

#[test]
fn mip_agrees_with_brute_force_on_lpndp() {
    for seed in 0..3 {
        // Small diamond DAG.
        let p = random_problem(4, 5, vec![(0, 1), (0, 2), (1, 3), (2, 3)], seed + 40);
        let opt = brute_force(&p, Objective::LongestPath);
        let mip = solve_lpndp_mip(
            &p,
            &MipConfig { quantum: 0.0, budget: Budget::seconds(30.0), ..Default::default() },
        );
        assert!(mip.proven_optimal, "seed {seed}");
        assert!((mip.cost - opt).abs() < 1e-6, "seed {seed}: mip {} vs {opt}", mip.cost);
    }
}

#[test]
fn heuristics_never_beat_the_optimum_and_stay_valid() {
    for seed in 0..4 {
        let p = random_problem(5, 7, vec![(0, 1), (1, 2), (2, 3), (3, 4)], seed + 80);
        let opt = brute_force(&p, Objective::LongestLink);
        for cost in [
            solve_greedy(&p, GreedyVariant::G1).cost,
            solve_greedy(&p, GreedyVariant::G2).cost,
            solve_random_count(&p, Objective::LongestLink, 500, seed).cost,
        ] {
            assert!(cost >= opt - 1e-9, "seed {seed}: heuristic {cost} below optimum {opt}");
        }
    }
}

#[test]
fn clustering_gives_bounded_degradation() {
    // With k clusters, CP's answer can be worse than exact, but never by
    // more than the largest within-cluster spread it optimized over.
    let p = random_problem(6, 9, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 7);
    let exact = solve_llndp_cp(
        &p,
        &CpConfig {
            clusters: None,
            quantum: 0.0,
            budget: Budget::seconds(20.0),
            ..Default::default()
        },
    );
    let clustered = solve_llndp_cp(
        &p,
        &CpConfig {
            clusters: Some(8),
            quantum: 0.0,
            budget: Budget::seconds(20.0),
            ..Default::default()
        },
    );
    assert!(clustered.cost >= exact.cost - 1e-9);
    assert!(
        clustered.cost <= exact.cost * 1.5,
        "clustered {} vs exact {}",
        clustered.cost,
        exact.cost
    );
}

#[test]
fn portfolio_matches_brute_force_on_tiny_instances() {
    for seed in 0..4 {
        let p = random_problem(4, 6, vec![(0, 1), (1, 2), (2, 3), (3, 0)], seed + 400);
        let opt = brute_force(&p, Objective::LongestLink);
        let config = PortfolioConfig {
            budget: Budget::seconds(20.0),
            threads: 2,
            cp: CpConfig { clusters: None, quantum: 0.0, ..CpConfig::default() },
            ..PortfolioConfig::default()
        };
        let out = solve_portfolio(&p, Objective::LongestLink, &config, &SolveHint::Cold, None);
        assert!(p.is_valid(&out.deployment), "seed {seed}");
        assert!(out.proven_optimal, "seed {seed}: portfolio did not close the instance");
        assert!((out.cost - opt).abs() < 1e-9, "seed {seed}: portfolio {} vs {opt}", out.cost);
    }
}

#[test]
fn portfolio_never_exceeds_any_standalone_member() {
    // The merged incumbent is the min over workers, so it can never be
    // worse than CP, greedy, or random run standalone with the same
    // deterministic budgets and seed.
    for seed in 0..3 {
        let p = random_problem(6, 9, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], seed + 500);
        let nodes = 5_000u64;
        let config = PortfolioConfig {
            threads: 2,
            cp: CpConfig { clusters: None, quantum: 0.0, ..CpConfig::default() },
            ..PortfolioConfig::deterministic(nodes, seed)
        };
        let portfolio =
            solve_portfolio(&p, Objective::LongestLink, &config, &SolveHint::Cold, None);
        let cp = solve_llndp_cp(
            &p,
            &CpConfig {
                budget: Budget::nodes(nodes),
                clusters: None,
                quantum: 0.0,
                seed,
                ..CpConfig::default()
            },
        );
        let standalone_min = [
            cp.cost,
            solve_greedy(&p, GreedyVariant::G1).cost,
            solve_greedy(&p, GreedyVariant::G2).cost,
            solve_random_count(&p, Objective::LongestLink, nodes, seed).cost,
        ]
        .into_iter()
        .fold(f64::INFINITY, f64::min);
        assert!(
            portfolio.cost <= standalone_min + 1e-9,
            "seed {seed}: portfolio {} vs best standalone {standalone_min}",
            portfolio.cost
        );
    }
}

#[test]
fn r2_matches_paper_relationship_to_exact_methods() {
    // Fig. 14/15 shape: R2 lands close to (within a few tens of percent of)
    // the exact solver on LLNDP, and G1 is the weakest method.
    let mut g1_total = 0.0;
    let mut r1_total = 0.0;
    let mut cp_total = 0.0;
    for seed in 0..6 {
        let mesh: Vec<(u32, u32)> = {
            let mut e = Vec::new();
            for r in 0..3u32 {
                for c in 0..4u32 {
                    let v = r * 4 + c;
                    if c + 1 < 4 {
                        e.push((v, v + 1));
                        e.push((v + 1, v));
                    }
                    if r + 1 < 3 {
                        e.push((v, v + 4));
                        e.push((v + 4, v));
                    }
                }
            }
            e
        };
        let p = random_problem(12, 14, mesh, seed + 200);
        g1_total += solve_greedy(&p, GreedyVariant::G1).cost;
        r1_total += solve_random_count(&p, Objective::LongestLink, 1000, seed).cost;
        cp_total +=
            solve_llndp_cp(&p, &CpConfig { budget: Budget::seconds(3.0), ..Default::default() })
                .cost;
    }
    assert!(cp_total <= r1_total, "cp {cp_total} should beat r1 {r1_total}");
    assert!(cp_total <= g1_total, "cp {cp_total} should beat g1 {g1_total}");
}

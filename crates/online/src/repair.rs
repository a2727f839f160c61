//! Budgeted incremental re-solve: local repair around the incumbent.
//!
//! A full cold re-solve explores all `m!/(m−n)!` deployments; an online
//! trigger rarely justifies that. The repair instead:
//!
//! 1. ranks the application nodes by how much they contribute to the
//!    current plan's cost (the maximum cost over their incident deployed
//!    links, under the *estimated* costs that raised the trigger);
//! 2. frees the worst `k` nodes — `k` is the migration budget, since only
//!    freed nodes can move — and pins the rest to their incumbent
//!    instances;
//! 3. warm-starts the solver portfolio inside that neighbourhood, with
//!    the incumbent as the initial bound: the incumbent and pins form one
//!    [`SolveHint`], which [`SearchStrategy::run_with_hint`] (or
//!    `run_pruned`) hands straight to every portfolio worker.
//!
//! The search space shrinks from arranging `n` nodes to arranging `k`
//! (over the `m − n + k` instances the pins leave reachable), which is why
//! incremental re-solves close in a fraction of a cold solve's time — and
//! [`SearchStrategy::run_with_hint`]'s contract guarantees the result is
//! never worse than the incumbent and moves at most `k` nodes.

use std::time::Instant;

use cloudia_core::{NodeDeployment, SearchStrategy, SolveHint};
use cloudia_solver::{Budget, CandidateConfig, Objective, PortfolioConfig, SolveOutcome};

/// Configuration of one incremental re-solve.
#[derive(Debug, Clone)]
pub struct RepairConfig {
    /// Migration budget `k`: at most this many nodes may move.
    pub migration_budget: usize,
    /// Wall-clock budget for the repair search (seconds).
    pub solve_seconds: f64,
    /// Portfolio worker threads (0 = all cores).
    pub threads: usize,
    /// RNG seed for the embedded searches.
    pub seed: u64,
    /// Candidate pruning for the repair search: with `Some`, the freed
    /// nodes only consider candidate instances (plus their incumbent),
    /// so a repair over thousands of spare instances stays cheap.
    ///
    /// Repairs never auto-escalate regardless of
    /// [`CandidateConfig::auto_escalate`]: an incremental re-solve is
    /// best-effort by contract (never worse than the incumbent, bounded
    /// by `solve_seconds`), and escalating to a dense re-solve would
    /// spend a second full budget chasing a proof the trigger loop does
    /// not need. Run a dense batch re-deployment when a proof matters.
    pub candidates: Option<CandidateConfig>,
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self { migration_budget: 3, solve_seconds: 1.0, threads: 0, seed: 0, candidates: None }
    }
}

/// What one incremental re-solve produced.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired plan (never worse than the incumbent under the
    /// estimated costs).
    pub deployment: Vec<u32>,
    /// Its cost under the estimated costs the repair searched on.
    pub cost: f64,
    /// The incumbent's cost under the same estimates.
    pub incumbent_cost: f64,
    /// Nodes that actually moved (≤ the migration budget).
    pub moved: usize,
    /// The nodes the repair freed.
    pub freed: Vec<u32>,
    /// The raw search outcome.
    pub solve: SolveOutcome,
    /// The sorted candidate union a pool-restricted repair searched
    /// ([`RepairConfig::candidates`]); `None` for a dense repair.
    pub pool: Option<Vec<u32>>,
    /// Wall-clock seconds the search took.
    pub solve_seconds: f64,
}

/// Ranks nodes by their contribution to the incumbent plan's cost and
/// returns the worst `k` (ties toward lower node index, for
/// reproducibility).
pub fn select_free_nodes(problem: &NodeDeployment, incumbent: &[u32], k: usize) -> Vec<u32> {
    let n = problem.num_nodes;
    let mut score = vec![0.0f64; n];
    for &(a, b) in &problem.edges {
        let c = problem.costs.get(incumbent[a as usize] as usize, incumbent[b as usize] as usize);
        score[a as usize] = score[a as usize].max(c);
        score[b as usize] = score[b as usize].max(c);
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| score[b as usize].total_cmp(&score[a as usize]).then(a.cmp(&b)));
    order.truncate(k.min(n));
    order.sort_unstable();
    order
}

/// Runs one budgeted incremental re-solve around `incumbent`.
///
/// # Panics
/// Panics if the incumbent is not a valid deployment of `problem`.
pub fn incremental_resolve(
    problem: &NodeDeployment,
    objective: Objective,
    incumbent: &[u32],
    config: &RepairConfig,
) -> RepairOutcome {
    assert!(problem.is_valid(incumbent), "repair incumbent is not a valid deployment");
    let n = problem.num_nodes;
    let k = config.migration_budget.min(n);
    let freed = select_free_nodes(problem, incumbent, k);
    resolve_with_freed(problem, objective, incumbent, freed, config)
}

/// Dark-instance evacuation: frees *exactly* the nodes the incumbent
/// hosts on `instances` (presumed unresponsive) and re-solves their
/// placement, pinning everyone else. Unlike [`incremental_resolve`] the
/// freed set is dictated by the fault, not ranked by cost, and
/// `config.migration_budget` is ignored — an evacuation moves however
/// many nodes the dark instances host. The gain-vs-cost economics are
/// the caller's to waive: darkness is an availability event, and the
/// dark links' costs (priced as expected completion time, timeouts
/// included) make any off-instance placement an improvement.
///
/// # Panics
/// Panics if the incumbent is not a valid deployment of `problem`.
pub fn evacuate_resolve(
    problem: &NodeDeployment,
    objective: Objective,
    incumbent: &[u32],
    instances: &[u32],
    config: &RepairConfig,
) -> RepairOutcome {
    assert!(problem.is_valid(incumbent), "evacuation incumbent is not a valid deployment");
    let freed: Vec<u32> = incumbent
        .iter()
        .enumerate()
        .filter(|(_, j)| instances.contains(j))
        .map(|(v, _)| v as u32)
        .collect();
    resolve_with_freed(problem, objective, incumbent, freed, config)
}

/// The shared repair core: pins everything outside `freed`, warm-starts
/// the portfolio around the incumbent, and packages the outcome.
fn resolve_with_freed(
    problem: &NodeDeployment,
    objective: Objective,
    incumbent: &[u32],
    freed: Vec<u32>,
    config: &RepairConfig,
) -> RepairOutcome {
    let mut fixed: Vec<Option<u32>> = incumbent.iter().map(|&j| Some(j)).collect();
    for &v in &freed {
        fixed[v as usize] = None;
    }

    let strategy = SearchStrategy::Portfolio(PortfolioConfig {
        budget: Budget::seconds(config.solve_seconds),
        threads: config.threads,
        seed: config.seed,
        ..PortfolioConfig::default()
    });
    let hint = SolveHint::Incremental { incumbent: incumbent.to_vec(), fixed };

    let t0 = Instant::now();
    let (solve, pool) = match &config.candidates {
        Some(cand) => {
            // See `RepairConfig::candidates`: repairs are best-effort and
            // budget-bound, so a pool-local proof must not trigger a
            // second, dense solve.
            let cand = CandidateConfig { auto_escalate: false, ..*cand };
            let pruned = strategy.run_pruned(problem, objective, &hint, &cand);
            (pruned.outcome, Some(pruned.pool))
        }
        None => (strategy.run_with_hint(problem, objective, &hint), None),
    };
    let solve_seconds = t0.elapsed().as_secs_f64();

    let incumbent_cost = problem.cost(objective, incumbent);
    let moved = incumbent.iter().zip(&solve.deployment).filter(|(a, b)| a != b).count();
    RepairOutcome {
        deployment: solve.deployment.clone(),
        cost: solve.cost,
        incumbent_cost,
        moved,
        freed,
        solve,
        pool,
        solve_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudia_solver::Costs;
    use rand::{rngs::StdRng, SeedableRng};

    fn random_problem(n: usize, m: usize, seed: u64) -> NodeDeployment {
        let edges = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        NodeDeployment::new(n, edges, Costs::random_uniform(m, seed))
    }

    #[test]
    fn free_nodes_cover_the_worst_link() {
        let p = random_problem(6, 9, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let d = p.random_deployment(&mut rng);
        // The worst deployed link's endpoints must rank in the top 2.
        let freed = select_free_nodes(&p, &d, 2);
        let worst_edge = p
            .edges
            .iter()
            .max_by(|&&(a, b), &&(c, e)| {
                let ca = p.costs.get(d[a as usize] as usize, d[b as usize] as usize);
                let cb = p.costs.get(d[c as usize] as usize, d[e as usize] as usize);
                ca.total_cmp(&cb)
            })
            .unwrap();
        assert!(
            freed.contains(&worst_edge.0) || freed.contains(&worst_edge.1),
            "freed {freed:?} misses worst edge {worst_edge:?}"
        );
    }

    #[test]
    fn repair_moves_at_most_k_and_never_degrades() {
        let p = random_problem(8, 12, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for trial in 0..5 {
            let incumbent = p.random_deployment(&mut rng);
            let config = RepairConfig {
                migration_budget: 2,
                solve_seconds: 2.0,
                threads: 1,
                seed: trial,
                ..Default::default()
            };
            let out = incremental_resolve(&p, Objective::LongestLink, &incumbent, &config);
            assert!(p.is_valid(&out.deployment), "trial {trial}");
            assert!(out.moved <= 2, "trial {trial}: moved {}", out.moved);
            assert!(
                out.cost <= out.incumbent_cost + 1e-12,
                "trial {trial}: {} worse than {}",
                out.cost,
                out.incumbent_cost
            );
            // Pinned nodes stayed put.
            for v in 0..8u32 {
                if !out.freed.contains(&v) {
                    assert_eq!(out.deployment[v as usize], incumbent[v as usize]);
                }
            }
        }
    }

    #[test]
    fn candidate_pruned_repair_keeps_the_contract() {
        // Pruning shrinks the freed nodes' instance choices but the repair
        // contract survives: pins respected, never worse than incumbent.
        let p = NodeDeployment::new(
            8,
            (0..7u32).map(|i| (i, i + 1)).collect(),
            Costs::random_clustered(40, 0.3, 11),
        );
        let mut rng = StdRng::seed_from_u64(12);
        let incumbent = p.random_deployment(&mut rng);
        let config = RepairConfig {
            migration_budget: 3,
            solve_seconds: 1.0,
            threads: 1,
            seed: 5,
            candidates: Some(CandidateConfig::fixed(12)),
        };
        let out = incremental_resolve(&p, Objective::LongestLink, &incumbent, &config);
        assert!(p.is_valid(&out.deployment));
        assert!(out.moved <= 3, "moved {}", out.moved);
        assert!(out.cost <= out.incumbent_cost + 1e-12);
        for v in 0..8u32 {
            if !out.freed.contains(&v) {
                assert_eq!(out.deployment[v as usize], incumbent[v as usize]);
            }
        }
    }

    #[test]
    fn a_pruned_repair_reports_the_pool_it_searched() {
        // A repair's pins are incumbent instances, which every pool
        // force-includes: the union it searched is the pool built around
        // the incumbent alone — on the exact fallback too.
        use cloudia_solver::CandidateSet;
        let p = NodeDeployment::new(
            8,
            (0..7u32).map(|i| (i, i + 1)).collect(),
            Costs::random_clustered(40, 0.3, 11),
        );
        let mut rng = StdRng::seed_from_u64(13);
        for (trial, per_node) in [(0, 4), (1, 12), (2, 40)] {
            let incumbent = p.random_deployment(&mut rng);
            let cand = CandidateConfig::fixed(per_node);
            let config = RepairConfig {
                migration_budget: 3,
                solve_seconds: 0.2,
                threads: 1,
                seed: trial,
                candidates: Some(cand),
            };
            let out = incremental_resolve(&p, Objective::LongestLink, &incumbent, &config);
            let built = CandidateSet::build(&p, &cand, Some(&incumbent), None);
            assert_eq!(out.pool.as_deref(), Some(built.union()), "trial {trial}");
        }
        let dense = RepairConfig { solve_seconds: 0.2, threads: 1, ..Default::default() };
        let incumbent = p.random_deployment(&mut rng);
        assert_eq!(incremental_resolve(&p, Objective::LongestLink, &incumbent, &dense).pool, None);
    }

    #[test]
    fn evacuation_frees_exactly_the_hosted_nodes() {
        let p = random_problem(6, 10, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let incumbent = p.random_deployment(&mut rng);
        let dark = vec![incumbent[2], incumbent[4]];
        let config = RepairConfig { solve_seconds: 0.5, threads: 1, seed: 9, ..Default::default() };
        let out = evacuate_resolve(&p, Objective::LongestLink, &incumbent, &dark, &config);
        assert!(p.is_valid(&out.deployment));
        assert!(out.cost <= out.incumbent_cost + 1e-12);
        for v in 0..6u32 {
            let hosted = dark.contains(&incumbent[v as usize]);
            assert_eq!(
                out.freed.contains(&v),
                hosted,
                "node {v}: freed set must be exactly the hosted nodes"
            );
            if !hosted {
                assert_eq!(out.deployment[v as usize], incumbent[v as usize]);
            }
        }
    }

    #[test]
    fn zero_budget_repair_is_a_noop() {
        let p = random_problem(5, 7, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let incumbent = p.random_deployment(&mut rng);
        let config = RepairConfig { migration_budget: 0, solve_seconds: 0.2, ..Default::default() };
        let out = incremental_resolve(&p, Objective::LongestLink, &incumbent, &config);
        assert_eq!(out.deployment, incumbent);
        assert_eq!(out.moved, 0);
    }
}

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
//!    [`SolveHint`], which [`SearchStrategy::run_on_pool`] hands straight
//!    to every portfolio worker.
//!
//! The search space shrinks from arranging `n` nodes to arranging `k`
//! (over the `m − n + k` instances the pins leave reachable), which is why
//! incremental re-solves close in a fraction of a cold solve's time — and
//! [`SearchStrategy::run_with_hint`]'s contract guarantees the result is
//! never worse than the incumbent and moves at most `k` nodes.
//!
//! A repair searches the pool it is handed: a [`PrunedProblem`] over the
//! candidate union the caller ranked (the online advisor ranks it off a
//! kept index and prices only the union's links), or
//! [`PrunedProblem::dense`] over every instance. Ranking the freed nodes,
//! pricing the incumbent and pricing the result read only deployed links,
//! so they run on the sub-problem too. The solve is
//! [`SearchStrategy::run_on_pool`], the one candidate-restricted path the
//! batch advisor's `run_pruned` also takes — minus its dense escalation:
//! a repair is best-effort by contract (never worse than the incumbent,
//! bounded by `solve_seconds`), and escalating to a dense re-solve would
//! spend a second full budget chasing a proof the trigger loop does not
//! need. Run a dense batch re-deployment when a proof matters.

use std::time::Instant;

use cloudia_core::{NodeDeployment, SearchStrategy, SolveHint};
use cloudia_solver::candidates::PrunedProblem;
use cloudia_solver::{Budget, Objective, PortfolioConfig, SolveOutcome};

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
}

impl Default for RepairConfig {
    fn default() -> Self {
        Self { migration_budget: 3, solve_seconds: 1.0, threads: 0, seed: 0 }
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
    /// The sorted candidate union the repair searched (every instance for
    /// a dense pool).
    pub pool: Vec<u32>,
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

/// The incumbent (original instance ids) in the pool's sub-problem ids.
///
/// # Panics
/// Panics if the incumbent is not a valid deployment inside the pool.
fn incumbent_in(pool: &PrunedProblem, incumbent: &[u32]) -> Vec<u32> {
    let sub = pool.to_sub_deployment(incumbent).filter(|sub| pool.sub.is_valid(sub));
    sub.expect("repair incumbent is not a valid deployment inside the pool")
}

/// Runs one budgeted incremental re-solve around `incumbent` (original
/// instance ids) inside `pool`.
///
/// # Panics
/// Panics if the incumbent is not a valid deployment inside the pool.
pub fn incremental_resolve(
    pool: &PrunedProblem,
    objective: Objective,
    incumbent: &[u32],
    config: &RepairConfig,
) -> RepairOutcome {
    let sub_incumbent = incumbent_in(pool, incumbent);
    let k = config.migration_budget.min(pool.sub.num_nodes);
    let freed = select_free_nodes(&pool.sub, &sub_incumbent, k);
    resolve_with_freed(pool, objective, incumbent, &sub_incumbent, freed, config)
}

/// Dark-instance evacuation: frees *exactly* the nodes the incumbent
/// hosts on `instances` (presumed unresponsive) and re-solves their
/// placement inside `pool`, pinning everyone else. Unlike
/// [`incremental_resolve`] the freed set is dictated by the fault, not
/// ranked by cost, and `config.migration_budget` is ignored — an
/// evacuation moves however many nodes the dark instances host. The
/// gain-vs-cost economics are the caller's to waive: darkness is an
/// availability event, and the dark links' costs (priced as expected
/// completion time, timeouts included) make any off-instance placement an
/// improvement.
///
/// # Panics
/// Panics if the incumbent is not a valid deployment inside the pool.
pub fn evacuate_resolve(
    pool: &PrunedProblem,
    objective: Objective,
    incumbent: &[u32],
    instances: &[u32],
    config: &RepairConfig,
) -> RepairOutcome {
    let sub_incumbent = incumbent_in(pool, incumbent);
    let freed: Vec<u32> = incumbent
        .iter()
        .enumerate()
        .filter(|(_, j)| instances.contains(j))
        .map(|(v, _)| v as u32)
        .collect();
    resolve_with_freed(pool, objective, incumbent, &sub_incumbent, freed, config)
}

/// The shared repair core: pins everything outside `freed`, warm-starts
/// the portfolio around the incumbent inside the pool, and packages the
/// outcome.
fn resolve_with_freed(
    pool: &PrunedProblem,
    objective: Objective,
    incumbent: &[u32],
    sub_incumbent: &[u32],
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
    let solved = strategy.run_on_pool(pool, objective, &hint);
    let solve_seconds = t0.elapsed().as_secs_f64();

    let solve = solved.outcome;
    let incumbent_cost = pool.sub.cost(objective, sub_incumbent);
    let moved = incumbent.iter().zip(&solve.deployment).filter(|(a, b)| a != b).count();
    RepairOutcome {
        deployment: solve.deployment.clone(),
        cost: solve.cost,
        incumbent_cost,
        moved,
        freed,
        solve,
        pool: solved.pool,
        solve_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudia_solver::{CandidateConfig, CandidateSet, Costs};
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
            let config =
                RepairConfig { migration_budget: 2, solve_seconds: 2.0, threads: 1, seed: trial };
            let dense = PrunedProblem::dense(p.clone());
            let out = incremental_resolve(&dense, Objective::LongestLink, &incumbent, &config);
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
        let config = RepairConfig { migration_budget: 3, solve_seconds: 1.0, threads: 1, seed: 5 };
        let pool = CandidateSet::build(&p, &CandidateConfig::fixed(12), Some(&incumbent), None)
            .restrict(&p);
        let out = incremental_resolve(&pool, Objective::LongestLink, &incumbent, &config);
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
    fn a_repair_reports_the_pool_it_searched() {
        // The union of a pool ranked around the incumbent — every
        // instance on the exact fallback and for a dense pool.
        let p = NodeDeployment::new(
            8,
            (0..7u32).map(|i| (i, i + 1)).collect(),
            Costs::random_clustered(40, 0.3, 11),
        );
        let mut rng = StdRng::seed_from_u64(13);
        let config = RepairConfig { migration_budget: 3, solve_seconds: 0.2, threads: 1, seed: 0 };
        for per_node in [4, 12, 40] {
            let incumbent = p.random_deployment(&mut rng);
            let built =
                CandidateSet::build(&p, &CandidateConfig::fixed(per_node), Some(&incumbent), None);
            let out = incremental_resolve(
                &built.restrict(&p),
                Objective::LongestLink,
                &incumbent,
                &config,
            );
            assert_eq!(out.pool, built.union(), "{per_node} per node");
        }
        let incumbent = p.random_deployment(&mut rng);
        let dense = PrunedProblem::dense(p.clone());
        let out = incremental_resolve(&dense, Objective::LongestLink, &incumbent, &config);
        assert_eq!(out.pool, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn evacuation_frees_exactly_the_hosted_nodes() {
        let p = random_problem(6, 10, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let incumbent = p.random_deployment(&mut rng);
        let dark = vec![incumbent[2], incumbent[4]];
        let config = RepairConfig { solve_seconds: 0.5, threads: 1, seed: 9, ..Default::default() };
        let dense = PrunedProblem::dense(p.clone());
        let out = evacuate_resolve(&dense, Objective::LongestLink, &incumbent, &dark, &config);
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
    fn an_evacuation_over_a_pool_priced_at_infinity_returns_the_incumbent() {
        // Every link prices at +∞ (every instance dark under an unbounded
        // timeout): no deployment the search reaches is worth offering, and
        // the solve returns its warm start at +∞, unproven.
        let p = NodeDeployment::new(
            6,
            (0..5u32).map(|i| (i, i + 1)).collect(),
            Costs::from_fn(16, |_, _| f64::INFINITY),
        );
        let mut rng = StdRng::seed_from_u64(14);
        let incumbent = p.random_deployment(&mut rng);
        let pool = CandidateSet::build(&p, &CandidateConfig::fixed(6), Some(&incumbent), None)
            .restrict(&p);
        assert!(!pool.is_exact(), "the solve must go through a pool-sized sub-problem");
        let dark = vec![incumbent[1], incumbent[3]];
        let config = RepairConfig { solve_seconds: 0.1, threads: 2, seed: 3, ..Default::default() };
        let out = evacuate_resolve(&pool, Objective::LongestLink, &incumbent, &dark, &config);
        assert_eq!(out.deployment, incumbent);
        assert_eq!((out.cost, out.incumbent_cost), (f64::INFINITY, f64::INFINITY));
        assert!(!out.solve.proven_optimal);
    }

    #[test]
    fn zero_budget_repair_is_a_noop() {
        let p = random_problem(5, 7, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let incumbent = p.random_deployment(&mut rng);
        let config = RepairConfig { migration_budget: 0, solve_seconds: 0.2, ..Default::default() };
        let dense = PrunedProblem::dense(p.clone());
        let out = incremental_resolve(&dense, Objective::LongestLink, &incumbent, &config);
        assert_eq!(out.deployment, incumbent);
        assert_eq!(out.moved, 0);
    }
}

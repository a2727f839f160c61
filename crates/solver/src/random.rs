//! Randomized search R1 and R2 (paper §4.3.1, §4.5.1).
//!
//! * **R1** draws a fixed number of uniformly random injective deployments
//!   (the paper uses 1,000) and keeps the best.
//! * **R2** draws deployments *in parallel* on all cores for a wall-clock
//!   budget — the same time and hardware the CP/MIP solver gets — sharing
//!   the incumbent through a mutex. The paper's surprising result (Figs.
//!   14–15) is that R2 comes within ~9 % of CP on LLNDP and even beats MIP
//!   on LPNDP, because random sampling explores more of the space per
//!   second than systematic search explores intelligently.

use std::time::Instant;

use parking_lot::Mutex;
use rand::{rngs::StdRng, SeedableRng};

use crate::outcome::{Budget, Objective, SolveOutcome};
use crate::problem::NodeDeployment;

/// R1: best of `count` random deployments.
pub fn solve_random_count(
    problem: &NodeDeployment,
    objective: Objective,
    count: u64,
    seed: u64,
) -> SolveOutcome {
    assert!(count > 0, "need at least one sample");
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<(Vec<u32>, f64)> = None;
    let mut curve = Vec::new();
    for _ in 0..count {
        let d = problem.random_deployment(&mut rng);
        let c = problem.cost(objective, &d);
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            curve.push((start.elapsed().as_secs_f64(), c));
            best = Some((d, c));
        }
    }
    let (deployment, cost) = best.expect("count > 0");
    SolveOutcome { deployment, cost, curve, proven_optimal: false, explored: count }
}

/// R2: parallel random search for a wall-clock budget on `threads` workers
/// (0 = one per available core).
pub fn solve_random_budget(
    problem: &NodeDeployment,
    objective: Objective,
    budget: Budget,
    threads: usize,
    seed: u64,
) -> SolveOutcome {
    let start = Instant::now();
    let threads = if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        threads
    };

    struct Shared {
        best: Option<(Vec<u32>, f64)>,
        curve: Vec<(f64, f64)>,
        explored: u64,
    }
    let shared = Mutex::new(Shared { best: None, curve: Vec::new(), explored: 0 });

    std::thread::scope(|scope| {
        for t in 0..threads {
            let shared = &shared;
            // The first `node_limit % threads` threads take one draw of
            // the remainder each, and thread 0 draws at least once, so a
            // budget below the thread count still returns a deployment.
            let (quota, rest) =
                (budget.node_limit / threads as u64, budget.node_limit % threads as u64);
            let per_thread_nodes = (quota + u64::from((t as u64) < rest)).max(u64::from(t == 0));
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9e37_79b9));
                let mut local_best = f64::INFINITY;
                let mut drawn = 0u64;
                let mut since_check = 0u32;
                loop {
                    if drawn >= per_thread_nodes {
                        break;
                    }
                    // Check the clock every few draws to amortize its cost.
                    since_check += 1;
                    if since_check >= 64 {
                        since_check = 0;
                        if start.elapsed().as_secs_f64() >= budget.time_limit_s {
                            break;
                        }
                    }
                    let d = problem.random_deployment(&mut rng);
                    let c = problem.cost(objective, &d);
                    drawn += 1;
                    if c < local_best {
                        let mut s = shared.lock();
                        if s.best.as_ref().is_none_or(|(_, bc)| c < *bc) {
                            s.curve.push((start.elapsed().as_secs_f64(), c));
                            s.best = Some((d, c));
                        }
                        // Sync the local bound with the global one so
                        // threads stop reporting stale improvements.
                        local_best = s.best.as_ref().map(|(_, bc)| *bc).unwrap_or(c);
                    }
                }
                shared.lock().explored += drawn;
            });
        }
    });

    let s = shared.into_inner();
    let (deployment, cost) = s.best.expect("at least one deployment drawn");
    SolveOutcome { deployment, cost, curve: s.curve, proven_optimal: false, explored: s.explored }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Costs;

    fn problem(seed: u64) -> NodeDeployment {
        let edges = (0..7u32).map(|i| (i, i + 1)).collect();
        NodeDeployment::new(8, edges, Costs::random_uniform(12, seed))
    }

    #[test]
    fn r1_returns_valid_best() {
        let p = problem(1);
        let out = solve_random_count(&p, Objective::LongestLink, 500, 42);
        assert!(p.is_valid(&out.deployment));
        assert_eq!(out.explored, 500);
        assert_eq!(out.cost, p.longest_link(&out.deployment));
        // Curve is non-increasing.
        assert!(out.curve.windows(2).all(|w| w[1].1 <= w[0].1));
    }

    #[test]
    fn r1_more_samples_do_not_hurt() {
        let p = problem(2);
        let small = solve_random_count(&p, Objective::LongestLink, 10, 7);
        let big = solve_random_count(&p, Objective::LongestLink, 5000, 7);
        assert!(big.cost <= small.cost);
    }

    #[test]
    fn r1_deterministic_per_seed() {
        let p = problem(3);
        let a = solve_random_count(&p, Objective::LongestPath, 200, 9);
        let b = solve_random_count(&p, Objective::LongestPath, 200, 9);
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn r2_respects_time_budget() {
        let p = problem(4);
        let start = Instant::now();
        let out = solve_random_budget(&p, Objective::LongestLink, Budget::seconds(0.2), 2, 1);
        assert!(start.elapsed().as_secs_f64() < 2.0);
        assert!(p.is_valid(&out.deployment));
        assert!(out.explored > 100, "only {} draws", out.explored);
    }

    #[test]
    fn r2_node_limit() {
        let p = problem(5);
        let out = solve_random_budget(&p, Objective::LongestLink, Budget::nodes(1000), 4, 2);
        // Each of 4 threads draws 250.
        assert_eq!(out.explored, 1000);
        // A budget below the thread count: the remainder goes to the
        // first threads, and at least one deployment is drawn.
        for (nodes, threads, explored) in [(1, 2, 1), (5, 4, 5), (0, 2, 1)] {
            let out =
                solve_random_budget(&p, Objective::LongestLink, Budget::nodes(nodes), threads, 2);
            assert_eq!(out.explored, explored, "{nodes} nodes on {threads} threads");
            assert!(p.is_valid(&out.deployment));
        }
    }

    #[test]
    fn r2_at_least_matches_r1_with_more_draws() {
        let p = problem(6);
        let r1 = solve_random_count(&p, Objective::LongestLink, 100, 3);
        let r2 = solve_random_budget(&p, Objective::LongestLink, Budget::nodes(20_000), 4, 3);
        assert!(r2.cost <= r1.cost * 1.05, "r2 {} vs r1 {}", r2.cost, r1.cost);
    }

    #[test]
    fn longest_path_objective_supported() {
        let p = problem(7);
        let out = solve_random_count(&p, Objective::LongestPath, 300, 4);
        assert_eq!(out.cost, p.longest_path(&out.deployment));
    }
}

//! A parallel solver portfolio racing every technique on worker threads.
//!
//! The paper's R2 baseline (§4.5.1) already runs random search "in parallel
//! under a wall-clock budget"; this module generalizes the idea to the
//! whole solver stack. The portfolio spawns one worker per technique —
//! the CP threshold iteration (LLNDP) or MIP branch-and-bound (LPNDP) as
//! the *prover*, greedy G1 and G2 as fast incumbent seeds, and a budgeted
//! random-sampling worker — and wires them together through a
//! [`SearchControl`]:
//!
//! * every improvement is published to a shared incumbent (lock-free
//!   `f64`-bits atomic bound + a `parking_lot` mutex holding the deployment
//!   and the merged convergence curve);
//! * the CP worker re-reads the shared incumbent between threshold
//!   iterations, so a lucky random draw immediately tightens the prover's
//!   bound (cross-thread bound injection);
//! * the moment the prover declares optimality every other worker is
//!   cancelled; random workers poll the flag in their draw loop and the CP
//!   hot loop polls it every 256 nodes.
//!
//! The result is a single merged anytime [`SolveOutcome`] whose curve is
//! the portfolio-wide lower envelope.
//!
//! ## Warm start and pins
//!
//! What a run starts from is the [`SolveHint`] argument of
//! [`solve_portfolio`], passed unchanged to every worker: the incumbent
//! is everyone's starting bound (and the prover's warm start), and the
//! pins restrict every worker — prover, greedy and sampler alike — to
//! the repair neighbourhood. Candidate domains go to the CP prover the
//! same way.
//!
//! ## Determinism
//!
//! With the `deterministic` flag set, workers run standalone (no
//! cross-thread injection or cancellation) and results merge by
//! `(cost, technique priority)` after all workers finish. Combined with a
//! node-only budget — use [`PortfolioConfig::deterministic`] — the final
//! cost is a pure function of the problem and the seed, **independent of
//! the thread count** (1, 2, or 8 threads return the same cost); with a
//! wall-clock budget the time limit still terminates each worker but the
//! result may vary by machine speed. The racing default keeps injection
//! and shared budgets and trades reproducibility for speed.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};

use crate::control::SearchControl;
use crate::cp::{solve_llndp_cp_with, CpConfig};
use crate::encodings::{solve_lpndp_mip_with, MipConfig};
use crate::greedy::{solve_greedy, solve_greedy_fixed, GreedyVariant};
use crate::outcome::{Budget, Objective, SolveHint, SolveOutcome};
use crate::problem::NodeDeployment;

/// Configuration of the portfolio runtime.
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// Overall budget. The time limit is shared by all workers (they start
    /// together); the node limit applies to each worker individually — the
    /// sampling worker draws at most that many deployments.
    pub budget: Budget,
    /// Worker threads executing the technique queue (0 = one per available
    /// core). The portfolio always runs its full set of techniques; this
    /// only controls how many run concurrently.
    pub threads: usize,
    /// Base RNG seed, used verbatim by every worker. The sampling worker
    /// deliberately shares R1's stream (`solve_random_count` with this
    /// seed), so the deterministic portfolio can never lose to standalone
    /// R1 — which also means its first draws replay the CP bootstrap's.
    pub seed: u64,
    /// Configuration of the embedded CP prover (its budget/seed fields are
    /// overridden by the portfolio's).
    pub cp: CpConfig,
    /// Configuration of the embedded MIP prover, used for the longest-path
    /// objective (budget/seed overridden likewise).
    pub mip: MipConfig,
    /// Thread-count-independent results (see module docs). Racing mode
    /// (`false`) under a finite time budget steals work: a worker that
    /// drains the technique queue before the wall clock runs out
    /// respawns as a random-sampling worker with a perturbed seed
    /// instead of idling. Deterministic mode never restarts (restarts
    /// are inherently timing-dependent).
    pub deterministic: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        Self {
            budget: Budget::seconds(10.0),
            threads: 0,
            seed: 0,
            cp: CpConfig::default(),
            mip: MipConfig::default(),
            deterministic: false,
        }
    }
}

impl PortfolioConfig {
    /// A deterministic portfolio bounded by `nodes` per worker: the
    /// returned cost depends only on the problem and `seed`, never on the
    /// thread count or machine speed.
    pub fn deterministic(nodes: u64, seed: u64) -> Self {
        Self { budget: Budget::nodes(nodes), seed, deterministic: true, ..Self::default() }
    }
}

/// The techniques a portfolio run races. The order is both the queue order
/// (greedy workers go first: they finish in microseconds and seed the
/// shared incumbent, so the prover starts with a tight bound even when
/// there are fewer cores than techniques) and the merge-priority order
/// (ties in cost resolve toward the earlier entry, keeping deterministic
/// mode thread-count independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Technique {
    GreedyG2,
    GreedyG1,
    Prover,
    Random,
}

const TECHNIQUES: [Technique; 4] =
    [Technique::GreedyG2, Technique::GreedyG1, Technique::Prover, Technique::Random];

/// Runs the portfolio on a problem under the given objective and returns
/// the merged anytime outcome.
///
/// An incremental `hint` is every worker's starting point: its incumbent
/// seeds the shared control (racing mode) and the merge (deterministic
/// mode), and warm-starts the CP/MIP prover, so the portfolio never
/// returns worse than it; its pins bind every worker to the repair
/// neighbourhood. `candidates` seeds the CP prover's per-node domains
/// (see [`solve_llndp_cp_with`]); the other workers ignore it.
pub fn solve_portfolio(
    problem: &NodeDeployment,
    objective: Objective,
    config: &PortfolioConfig,
    hint: &SolveHint,
    candidates: Option<&[Vec<u32>]>,
) -> SolveOutcome {
    let start = Instant::now();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        config.threads
    };

    let control = SearchControl::with_start(start);
    // Warm start: the incumbent is everyone's starting bound.
    let initial_outcome = hint.incumbent().map(|d| {
        assert!(problem.is_valid(d), "warm-start incumbent is not a valid deployment");
        debug_assert!(
            hint.pins().is_none_or(|f| crate::cp::respects_fixed(d, f)),
            "warm-start incumbent violates the fixed assignments"
        );
        let c = problem.cost(objective, d);
        control.offer(d, c);
        SolveOutcome {
            deployment: d.to_vec(),
            cost: c,
            curve: vec![(0.0, c)],
            proven_optimal: false,
            explored: 0,
        }
    });
    let explored = AtomicU64::new(0);
    // Cost the prover actually proved optimal (f64 bits), so the merged
    // outcome only claims optimality when the returned cost is covered by
    // that proof — not when another worker found something strictly better
    // under the original (unrounded) costs.
    let proven_cost_bits = AtomicU64::new(f64::INFINITY.to_bits());
    // Worker results in deterministic mode, merged after the barrier.
    let results: Vec<parking_lot::Mutex<Option<SolveOutcome>>> =
        TECHNIQUES.iter().map(|_| parking_lot::Mutex::new(None)).collect();
    let next_job = AtomicUsize::new(0);
    // Restarts only make sense when the wall clock, not the job queue,
    // ends the run — and never in deterministic mode, where which worker
    // restarts when is inherently timing-dependent.
    let restarts_allowed = !config.deterministic && config.budget.time_limit_s.is_finite();

    std::thread::scope(|scope| {
        for _ in 0..threads.min(TECHNIQUES.len()) {
            scope.spawn(|| {
                // Techniques are claimed from a fixed queue, so any thread
                // count executes the same work set.
                loop {
                    let job = next_job.fetch_add(1, Ordering::Relaxed);
                    let technique = match TECHNIQUES.get(job) {
                        Some(&t) => t,
                        None => {
                            // Queue drained: steal work by respawning as a
                            // perturbed-seed sampler until the clock (or a
                            // proof) ends the portfolio.
                            if !restarts_allowed
                                || control.is_cancelled()
                                || start.elapsed().as_secs_f64() >= config.budget.time_limit_s
                            {
                                break;
                            }
                            Technique::Random
                        }
                    };
                    let out = run_worker(
                        problem, objective, config, hint, candidates, technique, job as u64,
                        &control, start,
                    );
                    if let Some(out) = out {
                        explored.fetch_add(out.explored, Ordering::Relaxed);
                        if out.proven_optimal && technique == Technique::Prover {
                            proven_cost_bits.store(out.cost.to_bits(), Ordering::Release);
                            // The prover is done: stop everyone else.
                            control.cancel();
                        }
                        if let Some(cell) = results.get(job) {
                            *cell.lock() = Some(out);
                        }
                    }
                }
            });
        }
    });

    let explored = explored.load(Ordering::Relaxed);
    let proven_cost = f64::from_bits(proven_cost_bits.load(Ordering::Acquire));
    // The proof covers the returned deployment only if nothing beat the
    // proven cost (the merge takes the min, so `<=` means equality here).
    let covered_by_proof = |cost: f64| proven_cost <= cost + 1e-12;

    if config.deterministic {
        // Merge by (cost, technique priority): independent of which worker
        // finished first. The warm-start incumbent merges first, so the
        // portfolio can never return worse than it.
        let mut best: Option<SolveOutcome> = None;
        let mut curve: Vec<(f64, f64)> = Vec::new();
        for out in
            initial_outcome.into_iter().chain(results.iter().filter_map(|cell| cell.lock().take()))
        {
            curve.extend(out.curve.iter().copied());
            let better = match &best {
                None => true,
                Some(b) => out.cost < b.cost,
            };
            if better {
                best = Some(out);
            }
        }
        let best = best.expect("at least one technique always completes");
        curve.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut merged = Vec::with_capacity(curve.len());
        let mut floor = f64::INFINITY;
        for (t, c) in curve {
            if c < floor {
                floor = c;
                merged.push((t, c));
            }
        }
        SolveOutcome {
            deployment: best.deployment,
            proven_optimal: covered_by_proof(best.cost),
            cost: best.cost,
            curve: merged,
            explored,
        }
    } else {
        let (deployment, cost) =
            control.best().expect("at least one technique always offers a deployment");
        SolveOutcome {
            deployment,
            cost,
            curve: control.curve(),
            proven_optimal: covered_by_proof(cost),
            explored,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    problem: &NodeDeployment,
    objective: Objective,
    config: &PortfolioConfig,
    hint: &SolveHint,
    candidates: Option<&[Vec<u32>]>,
    technique: Technique,
    job: u64,
    control: &SearchControl,
    start: Instant,
) -> Option<SolveOutcome> {
    // In deterministic mode every worker runs standalone: private control
    // (no injection, no cancellation) and a node-only budget.
    let standalone = SearchControl::new();
    let (ctl, budget) = if config.deterministic {
        // The budget passes through unchanged: a node limit gives fully
        // deterministic runs, while any time limit still applies as a
        // termination backstop (at the cost of thread-count invariance —
        // see `PortfolioConfig::deterministic` for the safe constructor).
        (&standalone, config.budget)
    } else {
        // Workers share one wall clock: charge each for the time already
        // elapsed since the portfolio started.
        let remaining = (config.budget.time_limit_s - start.elapsed().as_secs_f64()).max(0.0);
        (control, Budget { time_limit_s: remaining, node_limit: config.budget.node_limit })
    };
    // Each technique stamps its curve from its own start instant; record
    // the offset so the merged curve reads in portfolio time.
    let worker_t0 = start.elapsed().as_secs_f64();
    let technique_name = match technique {
        Technique::GreedyG2 => "greedy_g2",
        Technique::GreedyG1 => "greedy_g1",
        Technique::Prover => "prover",
        Technique::Random => "random",
    };
    let is_restart = job >= TECHNIQUES.len() as u64;
    let mut span = cloudia_obs::span!("portfolio.worker", technique = technique_name, job = job);

    let mut out = match technique {
        Technique::Prover => match objective {
            Objective::LongestLink => {
                let cp = CpConfig { budget, seed: config.seed, ..config.cp };
                solve_llndp_cp_with(problem, &cp, hint, candidates, ctl)
            }
            Objective::LongestPath => {
                let mip = MipConfig { budget, seed: config.seed, ..config.mip };
                // The MIP prover cooperates through the control like the CP
                // one: cancellation, bound injection, and live publication.
                solve_lpndp_mip_with(problem, &mip, hint, ctl)
            }
        },
        Technique::GreedyG1 | Technique::GreedyG2 => {
            let variant = if technique == Technique::GreedyG1 {
                GreedyVariant::G1
            } else {
                GreedyVariant::G2
            };
            let mut out = match hint.pins() {
                Some(f) => solve_greedy_fixed(problem, variant, f),
                None => solve_greedy(problem, variant),
            };
            // Greedy optimizes longest link; re-evaluate under the actual
            // objective (paper §4.5.2 reuses the mapping for LPNDP).
            out.cost = problem.cost(objective, &out.deployment);
            out.curve = vec![(out.curve[0].0, out.cost)];
            ctl.offer(&out.deployment, out.cost);
            out
        }
        Technique::Random => {
            random_worker(problem, objective, config, hint.pins(), job, ctl, start)
        }
    };
    for point in &mut out.curve {
        point.0 += worker_t0;
    }
    if cloudia_obs::enabled() {
        cloudia_obs::counter("solver.portfolio.workers", 1);
        cloudia_obs::counter("solver.portfolio.nodes_explored", out.explored);
        cloudia_obs::counter("solver.portfolio.restarts", u64::from(is_restart));
        cloudia_obs::counter("solver.portfolio.proofs", u64::from(out.proven_optimal));
        span.attr("explored", out.explored);
        span.attr("cost", out.cost);
        span.attr("restart", u64::from(is_restart));
    }
    Some(out)
}

/// A cancellable random-sampling worker: draws up to the budget's node
/// limit of `fixed`-respecting deployments until the portfolio's clock
/// runs out or it is cancelled, publishing improvements.
fn random_worker(
    problem: &NodeDeployment,
    objective: Objective,
    config: &PortfolioConfig,
    fixed: Option<&[Option<u32>]>,
    job: u64,
    control: &SearchControl,
    start: Instant,
) -> SolveOutcome {
    // The queue's own sampling worker is seeded exactly like R1
    // (`solve_random_count`) with the same seed, so the deterministic
    // portfolio replays R1's stream draw-for-draw and can never lose to
    // it. Work-stealing restarts (jobs past the base queue) perturb the
    // seed so each restart explores a different stream.
    let base = TECHNIQUES.len() as u64 - 1;
    let seed = if job <= base {
        config.seed
    } else {
        config.seed ^ (job - base).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let local_start = Instant::now();
    let mut best: Option<(Vec<u32>, f64)> = None;
    let mut curve = Vec::new();
    let mut drawn = 0u64;
    while drawn < config.budget.node_limit {
        if drawn.is_multiple_of(64)
            && (control.is_cancelled()
                || start.elapsed().as_secs_f64() >= config.budget.time_limit_s)
        {
            break;
        }
        let d = match fixed {
            Some(f) => problem.random_deployment_with(f, &mut rng),
            None => problem.random_deployment(&mut rng),
        };
        let c = problem.cost(objective, &d);
        drawn += 1;
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            // Worker-local timestamps; the caller shifts to portfolio time.
            curve.push((local_start.elapsed().as_secs_f64(), c));
            control.offer(&d, c);
            best = Some((d, c));
        }
    }
    let (deployment, cost) = best.unwrap_or_else(|| {
        // Cancelled before the first draw: fall back to the identity map
        // (or any fixed-respecting deployment in repair mode).
        let d = match fixed {
            Some(f) => problem.random_deployment_with(f, &mut rng),
            None => problem.default_deployment(),
        };
        let c = problem.cost(objective, &d);
        (d, c)
    });
    SolveOutcome { deployment, cost, curve, proven_optimal: false, explored: drawn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Costs;

    fn random_problem(n: usize, m: usize, edges: Vec<(u32, u32)>, seed: u64) -> NodeDeployment {
        NodeDeployment::new(n, edges, Costs::random_uniform(m, seed))
    }

    fn path_edges(n: u32) -> Vec<(u32, u32)> {
        (0..n - 1).map(|i| (i, i + 1)).collect()
    }

    fn exact_cp() -> CpConfig {
        CpConfig { clusters: None, quantum: 0.0, ..CpConfig::default() }
    }

    /// A cold portfolio run over the full instance set.
    fn solve(p: &NodeDeployment, objective: Objective, config: &PortfolioConfig) -> SolveOutcome {
        solve_portfolio(p, objective, config, &SolveHint::Cold, None)
    }

    #[test]
    fn portfolio_solves_llndp_and_proves_optimality() {
        let p = random_problem(5, 7, path_edges(5), 1);
        let config = PortfolioConfig {
            budget: Budget::seconds(20.0),
            threads: 2,
            cp: exact_cp(),
            ..PortfolioConfig::default()
        };
        let out = solve(&p, Objective::LongestLink, &config);
        assert!(p.is_valid(&out.deployment));
        assert!(out.proven_optimal, "CP prover should close a 5-node instance");
        assert_eq!(out.cost, p.longest_link(&out.deployment));
        assert!(out.explored > 0);
    }

    #[test]
    fn portfolio_curve_is_strictly_decreasing() {
        let p = random_problem(8, 11, path_edges(8), 2);
        let config = PortfolioConfig {
            budget: Budget::seconds(5.0),
            threads: 4,
            cp: exact_cp(),
            ..PortfolioConfig::default()
        };
        let out = solve(&p, Objective::LongestLink, &config);
        assert!(!out.curve.is_empty());
        assert!(out.curve.windows(2).all(|w| w[1].1 < w[0].1), "{:?}", out.curve);
        assert_eq!(out.curve.last().unwrap().1, out.cost);
    }

    #[test]
    fn portfolio_supports_longest_path() {
        // Diamond DAG: the prover is MIP here.
        let p = random_problem(4, 6, vec![(0, 1), (0, 2), (1, 3), (2, 3)], 3);
        let config = PortfolioConfig {
            budget: Budget::seconds(20.0),
            threads: 2,
            ..PortfolioConfig::default()
        };
        let out = solve(&p, Objective::LongestPath, &config);
        assert!(p.is_valid(&out.deployment));
        assert_eq!(out.cost, p.longest_path(&out.deployment));
    }

    #[test]
    fn deterministic_mode_is_thread_count_invariant() {
        let p = random_problem(6, 9, path_edges(6), 4);
        let costs: Vec<f64> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                let config = PortfolioConfig {
                    threads,
                    cp: exact_cp(),
                    ..PortfolioConfig::deterministic(3_000, 9)
                };
                solve(&p, Objective::LongestLink, &config).cost
            })
            .collect();
        assert_eq!(costs[0], costs[1]);
        assert_eq!(costs[1], costs[2]);
    }

    #[test]
    fn warm_started_portfolio_never_loses_to_its_incumbent() {
        let p = random_problem(6, 9, path_edges(6), 6);
        // A deliberately weak incumbent: the identity deployment.
        let incumbent: Vec<u32> = (0..6).collect();
        let incumbent_cost = p.longest_link(&incumbent);
        for deterministic in [false, true] {
            let config = PortfolioConfig {
                budget: if deterministic { Budget::nodes(100) } else { Budget::seconds(1.0) },
                threads: 2,
                deterministic,
                cp: exact_cp(),
                ..PortfolioConfig::default()
            };
            let hint = SolveHint::warm(incumbent.clone());
            let out = solve_portfolio(&p, Objective::LongestLink, &config, &hint, None);
            assert!(
                out.cost <= incumbent_cost + 1e-12,
                "deterministic={deterministic}: {} worse than incumbent {incumbent_cost}",
                out.cost
            );
        }
    }

    #[test]
    fn fixed_assignments_bind_every_worker() {
        let p = random_problem(6, 9, path_edges(6), 8);
        let mut rng = StdRng::seed_from_u64(1);
        let incumbent = p.random_deployment(&mut rng);
        // Pin all but nodes 2 and 4 (migration budget k = 2).
        let fixed: Vec<Option<u32>> = incumbent
            .iter()
            .enumerate()
            .map(|(v, &j)| if v == 2 || v == 4 { None } else { Some(j) })
            .collect();
        let config = PortfolioConfig {
            budget: Budget::seconds(5.0),
            threads: 2,
            cp: exact_cp(),
            ..PortfolioConfig::default()
        };
        let hint = SolveHint::Incremental { incumbent: incumbent.clone(), fixed: fixed.clone() };
        let out = solve_portfolio(&p, Objective::LongestLink, &config, &hint, None);
        assert!(p.is_valid(&out.deployment));
        for (v, f) in fixed.iter().enumerate() {
            if let Some(j) = f {
                assert_eq!(out.deployment[v], *j, "node {v} moved off its pin");
            }
        }
        let moved = incumbent.iter().zip(&out.deployment).filter(|(a, b)| a != b).count();
        assert!(moved <= 2, "moved {moved} nodes with a budget of 2");
        assert!(out.cost <= p.longest_link(&incumbent) + 1e-12);
    }

    #[test]
    fn work_stealing_restarts_add_exploration() {
        // An instance the CP prover cannot close in the budget, so the
        // wall clock ends the run. Greedy workers finish in microseconds;
        // with work stealing they respawn as samplers, so total
        // exploration far exceeds the base four workers' own work — which
        // is all a run gets when no wall clock ends it (no restarts). The
        // instance must stay unproven in *release* builds too — an
        // optimality proof cancels the run early and leaves the restarts
        // nothing to add — hence a tighter, larger instance than the
        // other tests (release CP closes a 10-node/14-instance path well
        // inside the budget).
        let p = random_problem(16, 20, path_edges(16), 12);
        let run = |time_limit_s: f64| {
            let config = PortfolioConfig {
                budget: Budget { time_limit_s, node_limit: 500 },
                threads: 4,
                ..PortfolioConfig::default()
            };
            solve(&p, Objective::LongestLink, &config)
        };
        let without = run(f64::INFINITY);
        assert!(
            !without.proven_optimal,
            "instance closed within the budget; pick a harder one for this test"
        );
        let with = run(0.5);
        // Each base worker explores <= 500 nodes; restarts keep drawing
        // fresh 500-draw samplers until the clock runs out.
        assert!(without.explored <= 4 * 500);
        assert!(
            with.explored > without.explored,
            "work stealing explored {} <= plain {}",
            with.explored,
            without.explored
        );
    }

    #[test]
    fn portfolio_never_loses_to_its_members() {
        let p = random_problem(7, 10, path_edges(7), 5);
        let config = PortfolioConfig {
            threads: 2,
            cp: exact_cp(),
            ..PortfolioConfig::deterministic(5_000, 7)
        };
        let out = solve(&p, Objective::LongestLink, &config);
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            assert!(out.cost <= solve_greedy(&p, variant).cost + 1e-12, "{variant:?}");
        }
    }
}

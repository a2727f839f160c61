//! Unified dispatch over the paper's search techniques (§4).
//!
//! ClouDiA picks CP for longest-link problems and MIP for longest-path
//! problems (the paper's §4.4 explains why CP's threshold iteration does
//! not transfer to LPNDP); the lightweight techniques are available for
//! both. [`SearchStrategy::recommended`] encodes the paper's choices
//! (CP with k = 20 clusters for LLNDP, §6.3.2; MIP without clustering for
//! LPNDP, §6.3.3).
//!
//! A strategy is configuration only. What one run starts from — a
//! [`SolveHint`] and, under candidate pruning, the per-node candidate
//! domains — is passed as an argument to the solver it dispatches to;
//! [`SearchStrategy::run_with_hint`] adds the one rule the solvers do not
//! all keep themselves: the result is never worse than the incumbent and
//! never moves a pinned node.

use cloudia_solver::{
    candidates::{CandidateConfig, CandidateSet, PrunedProblem},
    cp::{solve_llndp_cp_with, CpConfig},
    encodings::{solve_llndp_mip_with, solve_lpndp_mip_with, MipConfig},
    greedy::{solve_greedy, solve_greedy_fixed, GreedyVariant},
    portfolio::{solve_portfolio, PortfolioConfig},
    random::{solve_random_budget, solve_random_count},
    Budget, NodeDeployment, Objective, SearchControl, SolveOutcome,
};

/// The solver's hint type, re-exported: a cold start, or an incumbent
/// plus pins for an incremental re-solve.
pub use cloudia_solver::SolveHint;

/// What a candidate-pruned run produced (see [`SearchStrategy::run_pruned`]).
#[derive(Debug, Clone)]
pub struct PrunedSolve {
    /// The search outcome, with the deployment in original instance ids.
    /// `proven_optimal` is only ever set by the exact fallback or an
    /// escalated dense run — never by a pruned search alone.
    pub outcome: SolveOutcome,
    /// True if the candidate pool actually restricted the instance set
    /// (false on the exact `k = m` fallback).
    pub pruned: bool,
    /// True if the driver re-solved densely after the pruned search
    /// proved optimality within its restricted pool.
    pub escalated: bool,
    /// True if the pruned search proved its result optimal within the
    /// pool: a local proof, never a global one (false on the exact
    /// fallback, whose `outcome` carries its own proof).
    pub proven_in_pool: bool,
    /// The sorted candidate union the search ran over, in original
    /// instance ids (every instance on the exact fallback).
    pub pool: Vec<u32>,
}

/// A search technique plus its configuration.
#[derive(Debug, Clone)]
pub enum SearchStrategy {
    /// Constraint-programming threshold iteration (LLNDP only).
    Cp(CpConfig),
    /// Mixed-integer branch-and-bound (both objectives).
    Mip(MipConfig),
    /// Greedy G1/G2 (longest-link heuristic; reused for LPNDP per §4.5.2).
    Greedy(GreedyVariant),
    /// R1: best of a fixed number of random deployments.
    RandomCount {
        /// Number of deployments to draw (paper: 1,000).
        count: u64,
        /// RNG seed.
        seed: u64,
    },
    /// R2: parallel random search under a wall-clock budget.
    RandomBudget {
        /// Time/node budget (matched to the solver's in the paper).
        budget: Budget,
        /// Worker threads (0 = all cores).
        threads: usize,
        /// RNG seed.
        seed: u64,
    },
    /// Parallel portfolio racing the prover (CP or MIP by objective),
    /// greedy G1/G2, and budgeted random search with a shared incumbent.
    Portfolio(PortfolioConfig),
}

impl SearchStrategy {
    /// The paper's recommended solver for an objective, with the given
    /// time budget: CP (k = 20) for longest link, MIP (no clustering) for
    /// longest path.
    pub fn recommended(objective: Objective, time_limit_s: f64) -> Self {
        match objective {
            Objective::LongestLink => SearchStrategy::Cp(CpConfig {
                budget: Budget::seconds(time_limit_s),
                clusters: Some(20),
                ..CpConfig::default()
            }),
            Objective::LongestPath => SearchStrategy::Mip(MipConfig {
                budget: Budget::seconds(time_limit_s),
                clusters: None,
                ..MipConfig::default()
            }),
        }
    }

    /// A parallel portfolio with the paper-recommended prover settings
    /// (CP with k = 20 clusters for LLNDP; MIP without clustering for
    /// LPNDP is chosen at run time by the objective) racing greedy and
    /// random workers on `threads` threads (0 = all cores).
    pub fn portfolio(time_limit_s: f64, threads: usize) -> Self {
        SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(time_limit_s),
            threads,
            ..PortfolioConfig::default()
        })
    }

    /// Short identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            SearchStrategy::Cp(_) => "cp",
            SearchStrategy::Mip(_) => "mip",
            SearchStrategy::Greedy(GreedyVariant::G1) => "greedy-g1",
            SearchStrategy::Greedy(GreedyVariant::G2) => "greedy-g2",
            SearchStrategy::RandomCount { .. } => "random-r1",
            SearchStrategy::RandomBudget { .. } => "random-r2",
            SearchStrategy::Portfolio(_) => "portfolio",
        }
    }

    /// Runs the strategy with an incremental hint: the incumbent
    /// warm-starts every technique that supports it (CP, MIP, portfolio),
    /// pins restrict the search to the repair neighbourhood, and the
    /// result is clamped so it is **never worse than the incumbent** —
    /// techniques without warm-start support (greedy, random) simply race
    /// against it.
    ///
    /// # Panics
    /// Panics (in addition to [`SearchStrategy::run`]'s cases) if the
    /// hint's incumbent is invalid for the problem or violates its own
    /// pins.
    pub fn run_with_hint(
        &self,
        problem: &NodeDeployment,
        objective: Objective,
        hint: &SolveHint,
    ) -> SolveOutcome {
        self.run_hinted(problem, objective, hint, None)
    }

    /// Runs the strategy through the candidate-pruning layer (see
    /// [`cloudia_solver::candidates`]): the instance pool is cut to the
    /// per-node candidate lists ranked off the dense costs
    /// ([`CandidateSet::build`]), and the strategy runs on the restricted
    /// problem ([`SearchStrategy::run_on_pool`]).
    ///
    /// The contract mirrors [`SearchStrategy::run_with_hint`] — the result
    /// is never worse than the hint's incumbent and always honours its
    /// pins — with two pruning-specific rules:
    ///
    /// * a pool size `>= m` (or a pool that covers every instance) is the
    ///   **exact fallback**: the call degenerates to `run_with_hint`
    ///   bit-for-bit;
    /// * a pruned run never claims `proven_optimal` — when the pruned
    ///   search *does* close its restricted neighbourhood, the driver
    ///   re-solves densely (warm-started from the pruned result) instead
    ///   of passing the local proof off as a global one.
    pub fn run_pruned(
        &self,
        problem: &NodeDeployment,
        objective: Objective,
        hint: &SolveHint,
        config: &CandidateConfig,
    ) -> PrunedSolve {
        let candidates = CandidateSet::build(problem, config, hint.incumbent(), hint.pins());
        let restricted = if candidates.is_exact() {
            PrunedProblem::dense(problem.clone())
        } else {
            candidates.restrict(problem)
        };
        let solve = self.run_on_pool(&restricted, objective, hint);
        if solve.proven_in_pool {
            // The pruned search closed its neighbourhood; settle the full
            // pool densely, warm-started from the pruned result so the
            // dense run opens with a tight bound.
            let dense_hint = SolveHint::Incremental {
                incumbent: solve.outcome.deployment.clone(),
                fixed: hint.pins().map(<[_]>::to_vec).unwrap_or_default(),
            };
            let dense = self.run_with_hint(problem, objective, &dense_hint);
            return PrunedSolve { outcome: dense, escalated: true, ..solve };
        }
        solve
    }

    /// Runs the strategy on a problem already restricted to a candidate
    /// pool, however the pool was ranked and the sub-problem's costs
    /// gathered: the one solve path behind [`SearchStrategy::run_pruned`]
    /// and the online repair, which ranks its pool off a kept index and
    /// prices the sub-problem from its own store. `hint` is in original
    /// instance ids; every incumbent and pinned instance must be in the
    /// pool. CP domains are seeded from the per-node lists, the result is
    /// mapped back to original ids and priced on the sub-problem (the
    /// same costs, so the same bits as on the original), and a pool-local
    /// proof is reported as [`PrunedSolve::proven_in_pool`], never as
    /// `proven_optimal`. A pool that spans every instance
    /// ([`PrunedProblem::is_exact`]) is the exact fallback:
    /// `run_with_hint` on the whole problem.
    ///
    /// # Panics
    /// As [`SearchStrategy::run_with_hint`], and if the hint uses an
    /// instance outside the pool.
    pub fn run_on_pool(
        &self,
        pool: &PrunedProblem,
        objective: Objective,
        hint: &SolveHint,
    ) -> PrunedSolve {
        let union = pool.to_original.clone();
        if pool.is_exact() {
            let outcome = self.run_with_hint(&pool.sub, objective, hint);
            return PrunedSolve {
                outcome,
                pruned: false,
                escalated: false,
                proven_in_pool: false,
                pool: union,
            };
        }
        let sub_hint = match hint {
            SolveHint::Cold => SolveHint::Cold,
            SolveHint::Incremental { incumbent, fixed } => SolveHint::Incremental {
                incumbent: pool
                    .to_sub_deployment(incumbent)
                    .expect("incumbent instances are candidates by construction"),
                fixed: pool
                    .to_sub_fixed(fixed)
                    .expect("pinned instances are candidates by construction"),
            },
        };
        let mut outcome =
            self.run_hinted(&pool.sub, objective, &sub_hint, Some(&pool.node_domains));
        let proven_in_pool = outcome.proven_optimal;
        outcome.cost = pool.sub.cost(objective, &outcome.deployment);
        outcome.deployment = pool.to_original_deployment(&outcome.deployment);
        outcome.proven_optimal = false; // a pruned proof is not global
        PrunedSolve { outcome, pruned: true, escalated: false, proven_in_pool, pool: union }
    }

    /// Runs the strategy on a problem.
    ///
    /// # Panics
    /// Panics if CP is asked to solve a longest-path problem (the paper
    /// provides no CP formulation for LPNDP) or MIP/LPNDP gets a cyclic
    /// graph.
    pub fn run(&self, problem: &NodeDeployment, objective: Objective) -> SolveOutcome {
        self.solve(problem, objective, &SolveHint::Cold, None)
    }

    /// [`SearchStrategy::run_with_hint`] over optional per-node candidate
    /// domains: checks the hint, solves, and clamps the result to the
    /// incumbent.
    fn run_hinted(
        &self,
        problem: &NodeDeployment,
        objective: Objective,
        hint: &SolveHint,
        candidates: Option<&[Vec<u32>]>,
    ) -> SolveOutcome {
        let SolveHint::Incremental { incumbent, fixed } = hint else {
            return self.solve(problem, objective, hint, candidates);
        };
        assert!(problem.is_valid(incumbent), "hint incumbent is not a valid deployment");
        assert!(
            fixed.is_empty() || fixed.len() == problem.num_nodes,
            "hint pins must cover every node"
        );
        assert!(
            fixed.iter().zip(incumbent).all(|(f, &d)| f.is_none_or(|j| j == d)),
            "hint incumbent violates its own pins"
        );

        let mut out = self.solve(problem, objective, hint, candidates);

        // Incremental contract: never return worse than the incumbent, and
        // never return a plan violating the pins (random searches don't
        // know about them — their result only counts when it both beats
        // the incumbent and happens to respect the pins).
        let incumbent_cost = problem.cost(objective, incumbent);
        let respects_pins =
            fixed.iter().zip(&out.deployment).all(|(f, &d)| f.is_none_or(|j| j == d));
        if incumbent_cost < out.cost || !respects_pins {
            out.deployment = incumbent.clone();
            out.cost = incumbent_cost;
            // A proof under a different plan does not cover the incumbent.
            out.proven_optimal = false;
        }
        out
    }

    /// Dispatches one solve: the hint and the candidate domains go to
    /// every technique that takes them (candidate domains: CP and the
    /// portfolio's CP prover; pins: greedy too).
    fn solve(
        &self,
        problem: &NodeDeployment,
        objective: Objective,
        hint: &SolveHint,
        candidates: Option<&[Vec<u32>]>,
    ) -> SolveOutcome {
        let control = SearchControl::new();
        match self {
            SearchStrategy::Cp(cfg) => {
                assert_eq!(
                    objective,
                    Objective::LongestLink,
                    "the CP formulation only supports longest link (paper §4.4)"
                );
                solve_llndp_cp_with(problem, cfg, hint, candidates, &control)
            }
            SearchStrategy::Mip(cfg) => match objective {
                Objective::LongestLink => solve_llndp_mip_with(problem, cfg, hint, &control),
                Objective::LongestPath => solve_lpndp_mip_with(problem, cfg, hint, &control),
            },
            SearchStrategy::Greedy(variant) => {
                // Greedy optimizes longest link; for LPNDP the mapping is
                // reused as a heuristic (§4.5.2), so re-evaluate its cost.
                let mut out = match hint.pins() {
                    Some(fixed) => solve_greedy_fixed(problem, *variant, fixed),
                    None => solve_greedy(problem, *variant),
                };
                out.cost = problem.cost(objective, &out.deployment);
                out.curve = vec![(out.curve[0].0, out.cost)];
                out
            }
            // Random searches have no warm-start notion and ignore pins;
            // `run_with_hint` races them against the incumbent.
            SearchStrategy::RandomCount { count, seed } => {
                solve_random_count(problem, objective, *count, *seed)
            }
            SearchStrategy::RandomBudget { budget, threads, seed } => {
                solve_random_budget(problem, objective, *budget, *threads, *seed)
            }
            SearchStrategy::Portfolio(cfg) => {
                solve_portfolio(problem, objective, cfg, hint, candidates)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{CommGraph, CostMatrix};
    use rand::{rngs::StdRng, SeedableRng};

    fn problem(seed: u64, dag: bool) -> NodeDeployment {
        let graph = if dag { CommGraph::aggregation_tree(2, 2) } else { CommGraph::mesh_2d(2, 3) };
        graph.problem(CostMatrix::random_uniform(10, seed))
    }

    #[test]
    fn recommended_matches_paper() {
        assert_eq!(SearchStrategy::recommended(Objective::LongestLink, 1.0).name(), "cp");
        assert_eq!(SearchStrategy::recommended(Objective::LongestPath, 1.0).name(), "mip");
    }

    #[test]
    fn portfolio_strategy_runs_both_objectives() {
        for (objective, dag) in [(Objective::LongestLink, false), (Objective::LongestPath, true)] {
            let p = problem(9, dag);
            let s = SearchStrategy::portfolio(5.0, 2);
            assert_eq!(s.name(), "portfolio");
            let out = s.run(&p, objective);
            assert!(p.is_valid(&out.deployment), "{}", objective.name());
            assert_eq!(out.cost, p.cost(objective, &out.deployment), "{}", objective.name());
        }
    }

    #[test]
    fn every_strategy_solves_llndp() {
        let p = problem(1, false);
        let strategies = [
            SearchStrategy::Cp(CpConfig { budget: Budget::seconds(2.0), ..Default::default() }),
            SearchStrategy::Mip(MipConfig { budget: Budget::seconds(2.0), ..Default::default() }),
            SearchStrategy::Greedy(GreedyVariant::G1),
            SearchStrategy::Greedy(GreedyVariant::G2),
            SearchStrategy::RandomCount { count: 500, seed: 1 },
            SearchStrategy::RandomBudget { budget: Budget::nodes(2000), threads: 2, seed: 1 },
        ];
        for s in strategies {
            let out = s.run(&p, Objective::LongestLink);
            assert!(p.is_valid(&out.deployment), "{}", s.name());
            assert_eq!(out.cost, p.longest_link(&out.deployment), "{}", s.name());
        }
    }

    #[test]
    fn lpndp_strategies() {
        let p = problem(2, true);
        let strategies = [
            SearchStrategy::Mip(MipConfig { budget: Budget::seconds(2.0), ..Default::default() }),
            SearchStrategy::Greedy(GreedyVariant::G2),
            SearchStrategy::RandomCount { count: 500, seed: 2 },
        ];
        for s in strategies {
            let out = s.run(&p, Objective::LongestPath);
            assert!(p.is_valid(&out.deployment), "{}", s.name());
            assert_eq!(out.cost, p.longest_path(&out.deployment), "{}", s.name());
        }
    }

    /// Every strategy the hint reaches, each on a deliberately small
    /// budget: CP (longest link only), MIP, greedy, both random searches,
    /// and the portfolio in deterministic and in racing mode.
    fn hinted_strategies(objective: Objective, nodes: u64) -> Vec<SearchStrategy> {
        let budget = Budget::nodes(nodes);
        let mut strategies = vec![
            SearchStrategy::Mip(MipConfig { budget, ..Default::default() }),
            SearchStrategy::Greedy(GreedyVariant::G1),
            SearchStrategy::Greedy(GreedyVariant::G2),
            SearchStrategy::RandomCount { count: nodes, seed: 1 },
            SearchStrategy::RandomBudget { budget, threads: 1, seed: 1 },
            SearchStrategy::Portfolio(PortfolioConfig {
                threads: 2,
                ..PortfolioConfig::deterministic(nodes, 1)
            }),
            SearchStrategy::Portfolio(PortfolioConfig {
                budget: Budget { time_limit_s: 2.0, node_limit: nodes },
                threads: 2,
                seed: 1,
                ..Default::default()
            }),
        ];
        if objective == Objective::LongestLink {
            strategies.push(SearchStrategy::Cp(CpConfig { budget, ..Default::default() }));
        }
        strategies
    }

    #[test]
    fn hint_never_returns_worse_than_incumbent() {
        for (objective, dag) in [(Objective::LongestLink, false), (Objective::LongestPath, true)] {
            let p = problem(5, dag);
            let mut rng = StdRng::seed_from_u64(7);
            // An already-excellent incumbent vs deliberately weak strategies.
            let strong = match objective {
                Objective::LongestLink => SearchStrategy::Cp(CpConfig {
                    budget: Budget::seconds(5.0),
                    clusters: None,
                    quantum: 0.0,
                    ..Default::default()
                }),
                Objective::LongestPath => SearchStrategy::RandomCount { count: 20_000, seed: 9 },
            }
            .run(&p, objective);
            let hint = SolveHint::warm(strong.deployment.clone());
            for s in hinted_strategies(objective, 1) {
                let out = s.run_with_hint(&p, objective, &hint);
                assert!(
                    out.cost <= strong.cost + 1e-12,
                    "{} ({}) returned {} worse than incumbent {}",
                    s.name(),
                    objective.name(),
                    out.cost,
                    strong.cost
                );
            }
            // And a random incumbent is improvable.
            let weak = p.random_deployment(&mut rng);
            let weak_cost = p.cost(objective, &weak);
            let out = SearchStrategy::recommended(objective, 2.0).run_with_hint(
                &p,
                objective,
                &SolveHint::warm(weak),
            );
            assert!(out.cost <= weak_cost + 1e-12, "{}", objective.name());
        }
    }

    #[test]
    fn hint_pins_are_always_respected() {
        for (objective, dag) in [(Objective::LongestLink, false), (Objective::LongestPath, true)] {
            let p = problem(6, dag);
            let mut rng = StdRng::seed_from_u64(8);
            let incumbent = p.random_deployment(&mut rng);
            let fixed: Vec<Option<u32>> = incumbent
                .iter()
                .enumerate()
                .map(|(v, &j)| if v < 4 { Some(j) } else { None })
                .collect();
            let hint =
                SolveHint::Incremental { incumbent: incumbent.clone(), fixed: fixed.clone() };
            for s in hinted_strategies(objective, 200) {
                let out = s.run_with_hint(&p, objective, &hint);
                let name = format!("{} ({})", s.name(), objective.name());
                assert!(p.is_valid(&out.deployment), "{name}");
                for (v, f) in fixed.iter().enumerate() {
                    if let Some(j) = f {
                        assert_eq!(out.deployment[v], *j, "{name}: node {v} moved");
                    }
                }
                assert!(out.cost <= p.cost(objective, &incumbent) + 1e-12, "{name}");
            }
        }
    }

    #[test]
    fn cold_hint_matches_plain_run() {
        let p = problem(10, false);
        let s = SearchStrategy::RandomCount { count: 300, seed: 4 };
        let a = s.run(&p, Objective::LongestLink);
        let b = s.run_with_hint(&p, Objective::LongestLink, &SolveHint::Cold);
        assert_eq!(a.deployment, b.deployment);
    }

    #[test]
    fn pruned_exact_fallback_is_bit_identical_to_dense() {
        let p = problem(20, false);
        let m = p.num_instances();
        let s = SearchStrategy::Cp(CpConfig {
            clusters: None,
            quantum: 0.0,
            budget: Budget::seconds(10.0),
            ..Default::default()
        });
        let dense = s.run(&p, Objective::LongestLink);
        let pruned = s.run_pruned(
            &p,
            Objective::LongestLink,
            &SolveHint::Cold,
            &cloudia_solver::CandidateConfig::fixed(m),
        );
        assert!(!pruned.pruned);
        assert!(!pruned.escalated);
        assert_eq!(pruned.outcome.deployment, dense.deployment);
        assert_eq!(pruned.outcome.cost, dense.cost);
        assert_eq!(pruned.outcome.explored, dense.explored);
        assert_eq!(pruned.outcome.proven_optimal, dense.proven_optimal);
    }

    #[test]
    fn pruned_run_escalates_to_the_dense_optimum() {
        // A clustered instance (most of the pool never competitive): the
        // pruned CP run closes its restricted pool quickly, and the
        // escalation confirms the result against the full pool.
        let graph = CommGraph::mesh_2d(2, 3);
        let p = graph.problem(CostMatrix::random_clustered(24, 0.3, 5));
        let s = SearchStrategy::Cp(CpConfig {
            clusters: None,
            quantum: 0.0,
            budget: Budget::seconds(20.0),
            ..Default::default()
        });
        let dense = s.run(&p, Objective::LongestLink);
        assert!(dense.proven_optimal, "dense run should close this size");
        let pruned = s.run_pruned(
            &p,
            Objective::LongestLink,
            &SolveHint::Cold,
            &cloudia_solver::CandidateConfig::fixed(8),
        );
        assert!(pruned.pruned);
        assert!(pruned.escalated, "pruned proof must trigger escalation");
        assert!(pruned.outcome.proven_optimal);
        assert!(
            (pruned.outcome.cost - dense.cost).abs() < 1e-9,
            "escalated {} vs dense {}",
            pruned.outcome.cost,
            dense.cost
        );
    }

    #[test]
    fn pruned_run_honours_incumbent_and_pins() {
        let p = problem(21, false);
        let mut rng = StdRng::seed_from_u64(3);
        let incumbent = p.random_deployment(&mut rng);
        let fixed: Vec<Option<u32>> = incumbent
            .iter()
            .enumerate()
            .map(|(v, &j)| if v < 3 { Some(j) } else { None })
            .collect();
        let hint = SolveHint::Incremental { incumbent: incumbent.clone(), fixed: fixed.clone() };
        let s = SearchStrategy::portfolio(2.0, 1);
        let pruned = s.run_pruned(
            &p,
            Objective::LongestLink,
            &hint,
            &cloudia_solver::CandidateConfig::fixed(6),
        );
        let out = &pruned.outcome;
        assert!(p.is_valid(&out.deployment));
        assert!(
            pruned.escalated || !out.proven_optimal,
            "a pruned run claims a global proof only from its dense escalation"
        );
        for (v, f) in fixed.iter().enumerate() {
            if let Some(j) = f {
                assert_eq!(out.deployment[v], *j, "node {v} moved off its pin");
            }
        }
        assert!(out.cost <= p.longest_link(&incumbent) + 1e-12);
    }

    #[test]
    #[should_panic(expected = "only supports longest link")]
    fn cp_rejects_longest_path() {
        let p = problem(3, true);
        SearchStrategy::Cp(CpConfig::default()).run(&p, Objective::LongestPath);
    }

    #[test]
    fn greedy_reports_objective_cost_for_lpndp() {
        let p = problem(4, true);
        let out = SearchStrategy::Greedy(GreedyVariant::G1).run(&p, Objective::LongestPath);
        assert_eq!(out.cost, p.longest_path(&out.deployment));
    }
}

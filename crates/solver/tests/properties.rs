//! Property-based tests for the optimization stack: exactness of CP
//! against brute force on tiny instances, LP solution feasibility,
//! clustering optimality, and heuristic validity.

use cloudia_solver::{
    cluster::CostClusters,
    cp::{solve_llndp_cp, solve_llndp_cp_with, CpConfig, Propagation},
    greedy::{solve_greedy, GreedyVariant},
    lp::{solve as lp_solve, Constraint, Lp, LpResult, Sense},
    portfolio::{solve_portfolio, PortfolioConfig},
    problem::{Costs, NodeDeployment},
    Budget, Objective, SearchControl, SolveHint,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn costs_strategy(m: usize) -> impl Strategy<Value = Costs> {
    // The flat constructor zeroes the diagonal itself.
    proptest::collection::vec(0.1f64..2.0, m * m).prop_map(move |v| Costs::from_flat(m, v))
}

fn brute_force_ll(problem: &NodeDeployment) -> f64 {
    fn rec(p: &NodeDeployment, partial: &mut Vec<u32>, used: &mut Vec<bool>, best: &mut f64) {
        if partial.len() == p.num_nodes {
            *best = best.min(p.longest_link(partial));
            return;
        }
        for j in 0..p.num_instances() {
            if !used[j] {
                used[j] = true;
                partial.push(j as u32);
                rec(p, partial, used, best);
                partial.pop();
                used[j] = false;
            }
        }
    }
    let mut best = f64::INFINITY;
    rec(problem, &mut Vec::new(), &mut vec![false; problem.num_instances()], &mut best);
    best
}

/// An incremental hint pinning `fixed`, its incumbent the random
/// pin-respecting deployment `seed` draws.
fn pinned_hint(p: &NodeDeployment, fixed: &[Option<u32>], seed: u64) -> SolveHint {
    let incumbent = p.random_deployment_with(fixed, &mut StdRng::seed_from_u64(seed));
    SolveHint::Incremental { incumbent, fixed: fixed.to_vec() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cp_is_exact_on_tiny_instances(costs in costs_strategy(5)) {
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], costs);
        let out = solve_llndp_cp(
            &p,
            &CpConfig {
                clusters: None,
                quantum: 0.0,
                budget: Budget::seconds(30.0),
                ..Default::default()
            },
        );
        prop_assert!(out.proven_optimal);
        let opt = brute_force_ll(&p);
        prop_assert!((out.cost - opt).abs() < 1e-9, "cp {} vs brute {}", out.cost, opt);
    }

    #[test]
    fn greedy_is_feasible_and_at_least_optimal(costs in costs_strategy(6)) {
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)], costs);
        let opt = brute_force_ll(&p);
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            let out = solve_greedy(&p, variant);
            prop_assert!(p.is_valid(&out.deployment));
            prop_assert!(out.cost >= opt - 1e-9);
        }
    }

    #[test]
    fn lp_solutions_satisfy_their_constraints(
        c0 in 0.1f64..5.0, c1 in 0.1f64..5.0, b0 in 1.0f64..10.0, b1 in 1.0f64..10.0,
    ) {
        // min c·x s.t. x0 + x1 >= b0, x0 <= b1: feasible and bounded.
        let lp = Lp {
            num_vars: 2,
            objective: vec![c0, c1],
            constraints: vec![
                Constraint::new(vec![(0, 1.0), (1, 1.0)], Sense::Ge, b0),
                Constraint::new(vec![(0, 1.0)], Sense::Le, b1),
            ],
        };
        match lp_solve(&lp, 10_000) {
            LpResult::Optimal { x, objective } => {
                prop_assert!(x[0] + x[1] >= b0 - 1e-6);
                prop_assert!(x[0] <= b1 + 1e-6);
                prop_assert!(x.iter().all(|&v| v >= -1e-9));
                // The optimum of this LP is min(c0, c1) * b0 when c-cheapest
                // variable is unconstrained, adjusted for the x0 cap.
                let expected = if c0 <= c1 {
                    c0 * b0.min(b1) + c1 * (b0 - b1).max(0.0)
                } else {
                    c1 * b0
                };
                prop_assert!((objective - expected).abs() < 1e-6,
                    "objective {objective} expected {expected}");
            }
            other => prop_assert!(false, "expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn clustering_never_increases_sse_with_more_clusters(
        values in proptest::collection::vec(0.0f64..5.0, 5..40),
        k in 1usize..6,
    ) {
        let a = CostClusters::compute(&values, k, 0.0);
        let b = CostClusters::compute(&values, k + 1, 0.0);
        prop_assert!(b.within_sse() <= a.within_sse() + 1e-9);
    }

    #[test]
    fn portfolio_cost_is_thread_count_invariant(costs in costs_strategy(7), seed in 0u64..1000) {
        // Deterministic portfolio: same seed => identical deployment cost
        // on 1, 2, and 8 threads.
        let p = NodeDeployment::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], costs);
        let run = |threads: usize| {
            let config = PortfolioConfig {
                threads,
                cp: CpConfig { clusters: None, quantum: 0.0, ..CpConfig::default() },
                ..PortfolioConfig::deterministic(2_000, seed)
            };
            solve_portfolio(&p, Objective::LongestLink, &config, &SolveHint::Cold, None)
        };
        let one = run(1);
        let two = run(2);
        let eight = run(8);
        prop_assert_eq!(one.cost, two.cost);
        prop_assert_eq!(two.cost, eight.cost);
        prop_assert_eq!(one.deployment, two.deployment);
        prop_assert_eq!(two.deployment, eight.deployment);
    }

    #[test]
    fn default_deployment_cost_is_an_upper_bound_for_cp(costs in costs_strategy(6)) {
        let p = NodeDeployment::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], costs);
        let default_cost = p.longest_link(&p.default_deployment());
        let out = solve_llndp_cp_with(
            &p,
            &CpConfig { budget: Budget::seconds(10.0), ..Default::default() },
            &SolveHint::warm(p.default_deployment()),
            None,
            &SearchControl::new(),
        );
        prop_assert!(out.cost <= default_cost + 1e-9);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn trail_cp_matches_clone_cp_on_random_instances(
        costs in costs_strategy(8),
        seed in 0u64..1000,
        pins in proptest::collection::vec(0u32..24, 6),
        lists in proptest::collection::vec(proptest::collection::vec(0u32..8, 1..6), 6),
        restrict in 0u32..2,
    ) {
        // 50 random instances: the trail-based backend must reproduce the
        // clone-based backend's cost (and tree size) exactly — with and
        // without pins and candidate lists.
        let p = NodeDeployment::new(6, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], costs);
        // A pin below 8 fixes its node (an instance is pinned at most once).
        let mut fixed: Vec<Option<u32>> = vec![None; 6];
        for (v, &j) in pins.iter().enumerate() {
            if j < 8 && !fixed.contains(&Some(j)) {
                fixed[v] = Some(j);
            }
        }
        // Every pinned instance is also a candidate of the next node, so
        // another node may take it: the trail's lazy `taken` mask then has
        // to empty the pinned node's live domain.
        let candidates = (restrict == 1).then(|| {
            let mut lists = lists;
            for (v, j) in fixed.iter().enumerate() {
                lists[(v + 1) % 6].extend(*j);
            }
            lists
        });
        let solve = |propagation| {
            let config = CpConfig {
                clusters: None,
                quantum: 0.0,
                seed,
                budget: Budget::seconds(30.0),
                propagation,
                ..CpConfig::default()
            };
            let hint = pinned_hint(&p, &fixed, seed);
            solve_llndp_cp_with(&p, &config, &hint, candidates.as_deref(), &SearchControl::new())
        };
        let trail = solve(Propagation::Trail);
        let clone = solve(Propagation::CloneDomains);
        prop_assert_eq!(trail.cost, clone.cost);
        prop_assert_eq!(trail.deployment, clone.deployment);
        prop_assert_eq!(trail.explored, clone.explored);
        prop_assert_eq!(trail.proven_optimal, clone.proven_optimal);
    }

    #[test]
    fn trail_cp_matches_clone_cp_on_random_patterns(
        n in 2usize..15,
        extra in 0usize..5,
        flat in proptest::collection::vec(0.1f64..2.0, 18 * 18),
        arcs in proptest::collection::vec((0usize..14, 0usize..14, 0u32..3), 0..24),
        seed in 0u64..1000,
        filter in 0u32..2,
        pins in proptest::collection::vec(0usize..54, 14),
        lists in proptest::collection::vec(proptest::collection::vec(0usize..18, 1..8), 14),
        restrict in 0u32..2,
    ) {
        // The 6-ring above gives every node one degree and, unpinned, one
        // initial domain. Random directed patterns — one-way and two-way
        // (sometimes repeated) edges, mixed degrees, isolated nodes — make
        // the trail's frontier pick break ties between domain classes and
        // frontier nodes. A node budget makes timeouts deterministic too.
        let m = n + extra;
        let costs = Costs::from_flat(m, flat[..m * m].to_vec());
        let mut edges = Vec::new();
        for (a, b, back) in arcs {
            let (a, b) = ((a % n) as u32, (b % n) as u32);
            if a != b {
                edges.push((a, b));
                if back == 0 {
                    edges.push((b, a));
                }
            }
        }
        let p = NodeDeployment::new(n, edges, costs);
        let mut fixed: Vec<Option<u32>> = vec![None; n];
        for (v, &j) in pins[..n].iter().enumerate() {
            if j < m && !fixed.contains(&Some(j as u32)) {
                fixed[v] = Some(j as u32);
            }
        }
        let candidates: Option<Vec<Vec<u32>>> = (restrict == 1).then(|| {
            lists[..n].iter().map(|l| l.iter().map(|&j| (j % m) as u32).collect()).collect()
        });
        let solve = |propagation| {
            let config = CpConfig {
                clusters: None,
                quantum: 0.0,
                seed,
                budget: Budget::nodes(5_000),
                degree_filter: filter == 1,
                propagation,
            };
            let hint = pinned_hint(&p, &fixed, seed);
            solve_llndp_cp_with(&p, &config, &hint, candidates.as_deref(), &SearchControl::new())
        };
        let trail = solve(Propagation::Trail);
        let clone = solve(Propagation::CloneDomains);
        prop_assert_eq!(trail.cost, clone.cost);
        prop_assert_eq!(trail.deployment, clone.deployment);
        prop_assert_eq!(trail.explored, clone.explored);
        prop_assert_eq!(trail.proven_optimal, clone.proven_optimal);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn trail_cp_matches_clone_cp_on_wide_domains(
        m in 40usize..201,
        n in 2usize..25,
        cost_seed in 0u64..1_000_000,
        clusters in 0usize..24,
        arcs in proptest::collection::vec((0usize..24, 0usize..24, 0u32..4), 0..48),
        seed in 0u64..1000,
        filter in 0u32..2,
        pins in proptest::collection::vec(0usize..400, 24),
        lists in proptest::collection::vec(proptest::collection::vec(0usize..200, 1..40), 24),
        restrict in 0u32..2,
    ) {
        // The patterns above stop at m = 18: one domain word. Here domains
        // span 1 to 4 words and cross the 64- and 128-instance boundaries,
        // so every per-word loop of the trail backend (propagation, undo,
        // the pick's popcount) meets its last partial word. Arcs are
        // one-way, two-way, repeated one-way, or two-way with a repeat.
        let costs = Costs::random_uniform(m, cost_seed);
        let mut edges = Vec::new();
        for (a, b, kind) in arcs {
            let (a, b) = ((a % n) as u32, (b % n) as u32);
            if a == b {
                continue;
            }
            edges.push((a, b));
            match kind {
                1 => edges.push((b, a)),
                2 => edges.push((a, b)),
                3 => edges.extend([(b, a), (a, b)]),
                _ => {}
            }
        }
        let p = NodeDeployment::new(n, edges, costs);
        let mut fixed: Vec<Option<u32>> = vec![None; n];
        for (v, &j) in pins[..n].iter().enumerate() {
            if j < m && !fixed.contains(&Some(j as u32)) {
                fixed[v] = Some(j as u32);
            }
        }
        let candidates: Option<Vec<Vec<u32>>> = (restrict == 1).then(|| {
            let mut lists: Vec<Vec<u32>> =
                lists[..n].iter().map(|l| l.iter().map(|&j| (j % m) as u32).collect()).collect();
            for (v, j) in fixed.iter().enumerate() {
                lists[(v + 1) % n].extend(*j);
            }
            lists
        });
        let solve = |propagation| {
            let config = CpConfig {
                clusters: (clusters > 0).then_some(clusters),
                quantum: 0.0,
                seed,
                budget: Budget::nodes(2_000),
                degree_filter: filter == 1,
                propagation,
            };
            let hint = pinned_hint(&p, &fixed, seed);
            solve_llndp_cp_with(&p, &config, &hint, candidates.as_deref(), &SearchControl::new())
        };
        let trail = solve(Propagation::Trail);
        let clone = solve(Propagation::CloneDomains);
        prop_assert_eq!(trail.cost, clone.cost);
        prop_assert_eq!(trail.deployment, clone.deployment);
        prop_assert_eq!(trail.explored, clone.explored);
        prop_assert_eq!(trail.proven_optimal, clone.proven_optimal);
    }
}

/// The cheapest deployment under `objective` that honours `fixed`
/// (permutation enumeration; tiny sizes only).
fn best_pinned_plan(p: &NodeDeployment, objective: Objective, fixed: &[Option<u32>]) -> Vec<u32> {
    fn rec(
        p: &NodeDeployment,
        objective: Objective,
        fixed: &[Option<u32>],
        partial: &mut Vec<u32>,
        best: &mut Option<(f64, Vec<u32>)>,
    ) {
        if partial.len() == p.num_nodes {
            let c = p.cost(objective, partial);
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                *best = Some((c, partial.clone()));
            }
            return;
        }
        let v = partial.len();
        for j in 0..p.num_instances() as u32 {
            // A pinned node takes its pin; a free one any instance no pin holds.
            let allowed = match fixed[v] {
                Some(f) => j == f,
                None => !fixed.contains(&Some(j)),
            };
            if allowed && !partial.contains(&j) {
                partial.push(j);
                rec(p, objective, fixed, partial, best);
                partial.pop();
            }
        }
    }
    let mut best = None;
    rec(p, objective, fixed, &mut Vec::new(), &mut best);
    best.expect("some deployment honours the pins").1
}

// The hint reaches each prover as an argument, with no clamp behind it
// (`SearchStrategy::run_with_hint` clamps to the incumbent, so its tests
// pass even when the wiring below is broken). The warm start is the best
// plan inside the pins, so on one node a prover that dropped it returns
// worse, and one that dropped the pins moves node 0.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn provers_keep_the_warm_start_and_the_pins_without_a_clamp(
        costs in costs_strategy(6),
        pin in 0u32..6,
        seed in 0u64..1000,
    ) {
        use cloudia_solver::{solve_llndp_mip_with, solve_lpndp_mip_with, MipConfig};
        // A path is a DAG, so both objectives apply.
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], costs);
        let fixed = vec![Some(pin), None, None, None];
        let budget = Budget::nodes(1);
        // At the default quantum: under rounding a path's search cost is
        // not monotone in its true cost, so a prover that kept the plan
        // best on search costs could return worse than its warm start.
        let mip = MipConfig { budget, seed, ..MipConfig::default() };
        for objective in [Objective::LongestLink, Objective::LongestPath] {
            let incumbent = best_pinned_plan(&p, objective, &fixed);
            let warm_cost = p.cost(objective, &incumbent);
            let hint = SolveHint::Incremental { incumbent, fixed: fixed.clone() };
            let deterministic = PortfolioConfig {
                threads: 2,
                ..PortfolioConfig::deterministic(1, seed)
            };
            let racing = PortfolioConfig { budget, threads: 2, seed, ..PortfolioConfig::default() };
            let control = SearchControl::new;
            let mut outs = vec![
                ("portfolio-det", solve_portfolio(&p, objective, &deterministic, &hint, None)),
                ("portfolio-racing", solve_portfolio(&p, objective, &racing, &hint, None)),
            ];
            match objective {
                Objective::LongestLink => {
                    let cp = CpConfig { budget, seed, ..CpConfig::default() };
                    outs.push(("cp", solve_llndp_cp_with(&p, &cp, &hint, None, &control())));
                    outs.push(("llndp-mip", solve_llndp_mip_with(&p, &mip, &hint, &control())));
                }
                Objective::LongestPath => {
                    outs.push(("lpndp-mip", solve_lpndp_mip_with(&p, &mip, &hint, &control())));
                }
            }
            for (name, out) in outs {
                prop_assert!(p.is_valid(&out.deployment), "{}", name);
                prop_assert_eq!(out.deployment[0], pin, "{} moved the pinned node", name);
                prop_assert!(
                    out.cost <= warm_cost + 1e-12,
                    "{} ({}) returned {} worse than the warm start {}",
                    name, objective.name(), out.cost, warm_cost
                );
            }
        }
    }
}

// Satellite: the adaptive-pool contract. Whatever observation sequence
// drives the controller, (a) `k` stays between the node count and the
// instance count, and (b) the candidate set built from the
// controller's effective config never loses the incumbent or a pinned
// instance — shrinking can starve the pool, never the warm start.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adaptive_pool_respects_bounds_under_any_observation_sequence(
        observations in proptest::collection::vec((0u8..2).prop_map(|x| x == 1), 1..120),
        initial in 0usize..40,
        n in 1usize..12,
        m in 1usize..40,
    ) {
        use cloudia_solver::{AdaptivePool, AdaptivePoolConfig};
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial, ..AdaptivePoolConfig::default() },
            n,
            m,
        );
        // The floor is the node count and the ceiling the instance count.
        let (lo, hi) = (n.min(m), m);
        prop_assert!((lo..=hi).contains(&pool.k()), "initial k {} outside [{lo}, {hi}]", pool.k());
        for &esc in &observations {
            let k = pool.observe(esc);
            prop_assert!(k >= lo, "k {k} dipped under the floor {lo}");
            prop_assert!(k <= hi, "k {k} exceeded the ceiling {hi}");
            prop_assert!((0.0..=1.0).contains(&pool.escalation_rate()));
        }
    }

    #[test]
    fn adaptive_pool_never_loses_incumbent_or_pins(
        costs in costs_strategy(24),
        observations in proptest::collection::vec((0u8..2).prop_map(|x| x == 1), 0..60),
        seed in 0u64..500,
    ) {
        use cloudia_solver::{AdaptivePool, AdaptivePoolConfig, CandidateSet};
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 6usize;
        let p = NodeDeployment::new(
            n,
            (0..n as u32 - 1).map(|i| (i, i + 1)).collect(),
            costs,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let incumbent = p.random_deployment(&mut rng);
        let fixed: Vec<Option<u32>> = incumbent
            .iter()
            .map(|&j| if rng.random::<bool>() { Some(j) } else { None })
            .collect();
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 12, ..AdaptivePoolConfig::default() },
            n,
            p.num_instances(),
        );
        // Drive the controller through the whole sequence, checking the
        // effective candidate set at every step — including the fully
        // shrunk endpoint.
        for &esc in observations.iter().chain([false; 40].iter()) {
            pool.observe(esc);
            let cs = CandidateSet::build(&p, &pool.effective(), Some(&incumbent), Some(&fixed));
            prop_assert!(cs.union().len() >= n);
            for (v, &j) in incumbent.iter().enumerate() {
                prop_assert!(
                    cs.node_candidates(v).contains(&j),
                    "node {v} lost incumbent {j} at k {}", pool.k()
                );
            }
            for (v, f) in fixed.iter().enumerate() {
                if let Some(j) = f {
                    prop_assert!(
                        cs.node_candidates(v).contains(j),
                        "node {v} lost pin {j} at k {}", pool.k()
                    );
                }
            }
        }
    }
}

// Satellite (PR 5): the mid-sweep prune rule's safety contract. Whatever
// partial statistics a sweep has accumulated, the rule never condemns a
// protected pair (deployed links, flagged links, staleness refreshes),
// never condemns a pair among incumbent/pinned instances, and — without a
// confidence level — condemns exactly the unprotected pairs with an
// endpoint outside the `build_partial` candidate union, which chains the
// rule to the AoS-pinned oracle below.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prune_rule_never_condemns_incumbent_pinned_or_protected_pairs(
        seed in 0u64..1000,
        m in 8usize..24,
        pool_k in 4usize..12,
        coverage in 0.0f64..1.0,
    ) {
        use cloudia_measure::{PairwiseStats, PruneRule};
        use cloudia_solver::{CandidateConfig, CandidatePruneRule, CandidateSet};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        let n = 5usize;
        let mut rng = StdRng::seed_from_u64(seed);

        // Arbitrary partial statistics: each directed link is measured
        // with probability `coverage`, with a random mean and sample
        // count.
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in 0..m {
                if i != j && rng.random::<f64>() < coverage {
                    let mean = rng.random_range(0.1..5.0);
                    for _ in 0..rng.random_range(1..4usize) {
                        stats.record(i, j, mean);
                    }
                }
            }
        }

        // Random incumbent (distinct instances), random pins among its
        // instances, a few random protected pairs.
        let mut ids: Vec<u32> = (0..m as u32).collect();
        for i in 0..n {
            let pick = rng.random_range(i..m);
            ids.swap(i, pick);
        }
        let incumbent: Vec<u32> = ids[..n].to_vec();
        let fixed: Vec<Option<u32>> = incumbent
            .iter()
            .map(|&j| if rng.random::<bool>() { Some(j) } else { None })
            .collect();
        let mut rule =
            CandidatePruneRule::new(n, CandidateConfig::fixed(pool_k)).with_incumbent(&incumbent);
        let mut protected = Vec::new();
        for _ in 0..5 {
            let a = rng.random_range(0..m as u32);
            let b = rng.random_range(0..m as u32);
            if a != b {
                rule.protect_pair(a, b);
                protected.push((a.min(b), a.max(b)));
            }
        }
        // Deployed links of a ring over the incumbent.
        for v in 0..n {
            let (a, b) = (incumbent[v], incumbent[(v + 1) % n]);
            rule.protect_pair(a, b);
            protected.push((a.min(b), a.max(b)));
        }

        let remaining: Vec<(u32, u32)> =
            (0..m as u32).flat_map(|a| (a + 1..m as u32).map(move |b| (a, b))).collect();
        let condemned = rule.prune(&stats, &remaining);

        // Recompute the union the rule must have used.
        let cs = CandidateSet::build_partial(
            n,
            &stats,
            &CandidateConfig::fixed(pool_k),
            Some(&incumbent),
            Some(&fixed),
            0.5,
        );
        let expected: Vec<(u32, u32)> = remaining
            .iter()
            .copied()
            .filter(|&(a, b)| {
                !protected.contains(&(a.min(b), a.max(b)))
                    && (!cs.union().contains(&a) || !cs.union().contains(&b))
            })
            .collect();
        prop_assert_eq!(&condemned, &expected, "point rule diverged from the build_partial union");
        for &(a, b) in &condemned {
            prop_assert!(
                !(incumbent.contains(&a) && incumbent.contains(&b)),
                "incumbent pair ({a},{b}) condemned"
            );
        }
        // Incumbents and pins are always candidates, whatever the stats.
        for &j in &incumbent {
            prop_assert!(cs.union().contains(&j), "incumbent {j} fell out of the union");
        }

        // The same rule with a confidence level — with a 5% or a near-zero
        // (0.1%) indifference margin, `1 − confidence` — obeys the
        // identical safety contract: protected pairs and incumbent/pinned
        // endpoints are never condemned, whatever the partial evidence.
        let confidence = if rng.random::<bool>() { 0.95 } else { 0.999 };
        let ci_rule = rule.with_confidence(confidence);
        for &(a, b) in &ci_rule.prune(&stats, &remaining) {
            let key = (a.min(b), a.max(b));
            prop_assert!(!protected.contains(&key), "protected pair {key:?} CI-condemned");
            prop_assert!(
                !(incumbent.contains(&a) && incumbent.contains(&b)),
                "incumbent pair ({a},{b}) CI-condemned"
            );
        }
    }

    #[test]
    fn anytime_early_stop_preserves_subsequent_condemnation(
        m in 8usize..14,
        seed in 0u64..200,
    ) {
        use cloudia_measure::{
            run_anytime, MeasureConfig, PairwiseStats, PruneRule, Scheme, Staged, StopRule,
        };
        use cloudia_netsim::{Cloud, Provider};
        use cloudia_solver::{CandidateConfig, CandidatePruneRule};

        // Isolate the *early stop*: pruning is disabled, so the only way
        // the anytime run differs from the full run is the stop cutting
        // the tail of the schedule.
        struct KeepAll;
        impl PruneRule for KeepAll {
            fn prune(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> Vec<(u32, u32)> {
                Vec::new()
            }
        }
        // The stop may not fire until every incident direction of every
        // instance is measured.
        struct FullCoverage(CandidatePruneRule);
        impl StopRule for FullCoverage {
            fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool {
                let m = stats.len();
                stats.covered_links() == m * (m - 1) && self.0.stable(stats, remaining)
            }
        }

        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(m);
        let net = cloud.network(&alloc);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let scheme = Staged::new(2, 3);
        let nodes = 4usize;
        let pool = CandidateConfig::fixed((m / 2).max(nodes + 1));

        let full = scheme.run_onto(&net, &cfg, PairwiseStats::new(m));
        // Full coverage first; the 5% indifference margin lets near-tied
        // clusters settle so the stop can actually fire.
        let stop = FullCoverage(CandidatePruneRule::new(nodes, pool).with_confidence(0.95));
        let any = run_anytime(&scheme, &net, &cfg, PairwiseStats::new(m), &KeepAll, &stop);
        prop_assert!(any.report.round_trips <= full.round_trips);

        // On a jitter-free network every sample equals the link's exact
        // cost and the stop cannot fire before full coverage, so however
        // early it truncated the schedule, the point-quantile rule must
        // reach identical condemnation verdicts afterwards.
        let post = CandidatePruneRule::new(nodes, pool);
        let remaining: Vec<(u32, u32)> =
            (0..m as u32).flat_map(|a| (a + 1..m as u32).map(move |b| (a, b))).collect();
        let mut from_full = post.prune(&full.stats, &remaining);
        let mut from_any = post.prune(&any.report.stats, &remaining);
        from_full.sort_unstable();
        from_any.sort_unstable();
        prop_assert_eq!(from_full, from_any);
    }

    #[test]
    fn columnar_build_partial_matches_the_aos_reference(
        seed in 0u64..1000,
        m in 4usize..28,
        pool_k in 2usize..10,
        coverage in 0.0f64..1.0,
        dark in 0.0f64..0.3,
        min_coverage in 0.0f64..1.0,
    ) {
        use cloudia_measure::stats::aos;
        use cloudia_measure::PairwiseStats;
        use cloudia_solver::{CandidateConfig, CandidateSet};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // The column-streaming pool builder must pick the exact same
        // pool as the retained array-of-structs walk — including dark
        // links (attempted, never answered) and coverage-forced
        // instances — for any partial measurement state.
        let n = 4usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut soa = PairwiseStats::new(m);
        let mut oracle = aos::PairwiseStats::new(m);
        for i in 0..m {
            for j in 0..m {
                if i == j {
                    continue;
                }
                let roll = rng.random::<f64>();
                if roll < dark {
                    // Dark direction: attempts and timeouts, no sample.
                    for _ in 0..rng.random_range(1..4usize) {
                        soa.record_attempt(i, j);
                        oracle.record_attempt(i, j);
                        soa.record_timeout(i, j);
                        oracle.record_timeout(i, j);
                    }
                } else if roll < dark + coverage * (1.0 - dark) {
                    let mean = rng.random_range(0.1..5.0);
                    for _ in 0..rng.random_range(1..4usize) {
                        soa.record_attempt(i, j);
                        oracle.record_attempt(i, j);
                        soa.record(i, j, mean);
                        oracle.record(i, j, mean);
                    }
                }
            }
        }
        let incumbent: Vec<u32> = (0..n as u32).collect();
        let config = CandidateConfig::fixed(pool_k);
        let a = CandidateSet::build_partial(
            n, &soa, &config, Some(&incumbent), None, min_coverage,
        );
        let b = CandidateSet::build_partial_reference(
            n, &oracle, &config, Some(&incumbent), None, min_coverage,
        );
        prop_assert_eq!(a.union(), b.union(), "candidate unions diverged");
        for v in 0..n {
            prop_assert_eq!(
                a.node_candidates(v), b.node_candidates(v),
                "node {} candidate list diverged", v
            );
        }
    }
}

// --- Delta-maintained pool index: the rules' evidence is synced from the
// statistics' touch log between evaluations, and must never answer from
// stale prices. Every evaluation of a long-lived rule is compared with
// the same rule evaluated from scratch (a twin handed a *clone* of the
// statistics, which is another lineage and therefore a rebuild), and the
// index's scores with a per-link recomputation that shares no code with
// the evidence pass.
mod pool_index {
    use cloudia_measure::{PairwiseStats, PruneRule, StopRule};
    use cloudia_solver::candidates::{PoolIndex, SharedIndex};
    use cloudia_solver::{CandidateConfig, CandidatePruneRule};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    const CONFIDENCE: f64 = 0.9;

    /// Instance `j`'s score per lane (the median), recomputed link by
    /// link.
    fn naive_scores(
        stats: &PairwiseStats,
        j: usize,
        confidence: Option<f64>,
        min_coverage: f64,
    ) -> Option<Vec<u64>> {
        let m = stats.len();
        let mut lanes: Vec<Vec<f64>> = vec![Vec::new(); if confidence.is_some() { 2 } else { 1 }];
        for l in (0..m).filter(|&l| l != j) {
            for (src, dst) in [(j, l), (l, j)] {
                let link = stats.link(src, dst);
                let prices = match (link.count() > 0, link.attempts() > 0, confidence) {
                    (true, _, None) => vec![link.mean()],
                    (true, _, Some(c)) => {
                        let ci = stats.ci(src, dst, c);
                        vec![ci.lower(), ci.upper()]
                    }
                    (false, true, _) => vec![f64::INFINITY; lanes.len()],
                    (false, false, _) => continue,
                };
                for (lane, p) in lanes.iter_mut().zip(prices) {
                    lane.push(p);
                }
            }
        }
        naive_median(lanes, m, min_coverage)
    }

    /// The median of each lane of one instance's incident prices among
    /// `m` instances, by a full sort; `None` when under-covered.
    fn naive_median(mut lanes: Vec<Vec<f64>>, m: usize, min_coverage: f64) -> Option<Vec<u64>> {
        let len = lanes[0].len();
        if len == 0 || (len as f64 / (2 * (m - 1)) as f64) < min_coverage {
            return None;
        }
        let rank = ((len - 1) as f64 * 0.5).round() as usize;
        Some(
            lanes
                .iter_mut()
                .map(|lane| {
                    lane.sort_by(f64::total_cmp);
                    lane[rank].to_bits()
                })
                .collect(),
        )
    }

    /// One random mutation of `stats`. Instance 0 never answers (its
    /// links only ever collect attempts: dark), and the top two instances
    /// are touched rarely, so they stay below the coverage threshold for
    /// long stretches.
    fn mutate(stats: &mut PairwiseStats, rng: &mut StdRng) {
        let m = stats.len();
        let link = |rng: &mut StdRng| loop {
            let (a, b) = (rng.random_range(0..m), rng.random_range(0..m));
            let rare = a.max(b) >= m - 2 && rng.random::<f64>() < 0.8;
            if a != b && !rare {
                return (a, b);
            }
        };
        let rtt = |rng: &mut StdRng| rng.random_range(0.5..5.0);
        match rng.random_range(0..4u32) {
            0 => {
                let (a, b) = link(rng);
                if a.min(b) == 0 {
                    stats.record_link(a, b, 1, 0, &[]);
                } else {
                    stats.record(a, b, rtt(rng));
                }
            }
            1 => {
                let (a, b) = link(rng);
                stats.record_link(a, b, rng.random_range(0..3), 0, &[]);
            }
            2 => {
                let (a, b) = link(rng);
                stats.record_link(a, b, 0, rng.random_range(0..3), &[]);
            }
            _ => {
                // A stage: endpoint-disjoint pairs, one direction each.
                let mut ids: Vec<usize> = (0..m).collect();
                for i in (1..m).rev() {
                    ids.swap(i, rng.random_range(0..=i));
                }
                let pairs = rng.random_range(1..=m / 2);
                for pair in ids.chunks_exact(2).take(pairs) {
                    let (src, dst) = (pair[0], pair[1]);
                    let dark = src.min(dst) == 0;
                    let samples = if dark { 0 } else { rng.random_range(0..4usize) };
                    let (attempts, timeouts) = (rng.random_range(0..4), rng.random_range(0..2));
                    let rtts: Vec<f64> = (0..samples).map(|_| rtt(rng)).collect();
                    stats.record_link(src, dst, attempts, timeouts, &rtts);
                }
            }
        }
    }

    /// One tie-heavy mutation of `stats`: one-sample links (unbounded
    /// `+∞` upper bounds) at a handful of means, two-sample links spread
    /// wide enough to clamp their lower bound to `0.0`, dark links, and
    /// runs that re-price every link of one instance far above or below
    /// the rest (draining its windows).
    fn mutate_ties(stats: &mut PairwiseStats, rng: &mut StdRng) {
        let m = stats.len();
        let means = [1.0, 1.0, 2.0, 3.0];
        let other = |rng: &mut StdRng, a: usize| loop {
            let b = rng.random_range(0..m);
            if b != a {
                return b;
            }
        };
        let a = rng.random_range(0..m);
        let b = other(rng, a);
        match rng.random_range(0..5u32) {
            0 => stats.record(a, b, means[rng.random_range(0..means.len())]),
            1 => stats.record_link(a, b, 2, 0, &[0.1, 9.0]),
            2 => stats.record_link(a, b, 1, 0, &[]),
            3 => {
                let rtt = if rng.random::<bool>() { 0.01 } else { 50.0 };
                for b in (0..m).filter(|&b| b != a) {
                    let (src, dst) = if rng.random::<bool>() { (a, b) } else { (b, a) };
                    stats.record_link(src, dst, 3, 0, &[rtt; 3]);
                }
            }
            _ => mutate(stats, rng),
        }
    }

    /// A long-lived rule set next to the from-scratch twin it must agree
    /// with, plus a bare index per lane count. The interval rules are also
    /// evaluated as stop rules, as the online advisor's anytime epoch
    /// evaluates its one rule. The long-lived point and interval rules
    /// read one shared index, as the advisor's rules do, and carry their
    /// look state (kept scores, rankings, buffers) from check to check;
    /// every check also compares them with rules built afresh for it.
    struct Harness {
        point: [CandidatePruneRule; 2],
        interval: [CandidatePruneRule; 2],
        pool: CandidateConfig,
        incumbent: Vec<u32>,
        confidence: f64,
        means: PoolIndex<1>,
        intervals: PoolIndex<2>,
        min_coverage: f64,
        remaining: Vec<(u32, u32)>,
        /// The long-lived rules' verdict buffer, reused across checks as
        /// the sweep driver reuses its own.
        verdict: Vec<bool>,
    }

    impl Harness {
        fn new(m: usize, rng: &mut StdRng) -> Self {
            let min_coverage = [0.2, 0.5, 0.8][rng.random_range(0..3usize)];
            let pool = CandidateConfig::fixed(rng.random_range(3..m));
            // A 10% or a near-zero (0.1%) indifference margin.
            let confidence = if rng.random::<bool>() { CONFIDENCE } else { 0.999 };
            let incumbent = vec![1, 2, 3];
            let index = SharedIndex::default();
            let (point, interval) = Self::rules(pool, &incumbent, confidence);
            let (long_point, long_interval) = Self::rules(pool, &incumbent, confidence);
            Self {
                point: [long_point.with_index(&index), point],
                interval: [long_interval.with_index(&index), interval],
                pool,
                incumbent,
                confidence,
                means: PoolIndex::default(),
                intervals: PoolIndex::default(),
                min_coverage,
                remaining: (0..m as u32)
                    .flat_map(|a| (a + 1..m as u32).map(move |b| (a, b)))
                    .collect(),
                verdict: Vec::new(),
            }
        }

        /// A point and an interval rule with these parameters, each with
        /// an index and look state of its own.
        fn rules(
            pool: CandidateConfig,
            incumbent: &[u32],
            confidence: f64,
        ) -> (CandidatePruneRule, CandidatePruneRule) {
            let point = || CandidatePruneRule::new(3, pool).with_incumbent(incumbent);
            (point(), point().with_confidence(confidence))
        }

        /// Rebuilds the rules with another incumbent or confidence level:
        /// the long-lived ones from their clones, over the shared index
        /// (another level rebuilds its interval index), the twins afresh.
        fn rebuild_rules(&mut self, m: usize, rng: &mut StdRng) {
            if rng.random::<bool>() {
                self.incumbent = (0..3).map(|_| rng.random_range(0..m as u32)).collect();
                for rule in [&mut self.point[0], &mut self.interval[0]] {
                    *rule = rule.clone().with_incumbent(&self.incumbent);
                }
            } else {
                self.confidence = [CONFIDENCE, 0.999, 0.8][rng.random_range(0..3usize)];
                self.interval[0] = self.interval[0].clone().with_confidence(self.confidence);
            }
            (self.point[1], self.interval[1]) =
                Self::rules(self.pool, &self.incumbent, self.confidence);
        }

        /// Evaluates everything on `stats` and on a from-scratch basis.
        fn check(&mut self, stats: &PairwiseStats) {
            let scratch = stats.clone();
            let rem = &self.remaining;
            // As a sweep looks: the stop rule's count look, then the
            // instance verdict into the driver's buffer, against rules
            // built afresh for this look over a clone.
            let (point, interval) = Self::rules(self.pool, &self.incumbent, self.confidence);
            let [long_lived, twin] = &self.interval;
            assert_eq!(
                long_lived.stable_by_count(stats, rem.len()),
                twin.stable_by_count(&scratch, rem.len())
            );
            for (kept, fresh) in [(&self.point[0], point), (long_lived, interval)] {
                let mut expected = Vec::new();
                assert!(kept.condemned_instances(stats, &mut self.verdict));
                assert!(fresh.condemned_instances(&scratch, &mut expected));
                assert_eq!(self.verdict, expected, "verdict of {:?}", kept.confidence());
            }
            assert_eq!(self.point[0].prune(stats, rem), self.point[1].prune(&scratch, rem));
            assert_eq!(self.interval[0].prune(stats, rem), self.interval[1].prune(&scratch, rem));
            // Both interval rules see every evaluation, so their plateau
            // checkpoints move in step.
            let [long_lived, twin] = &self.interval;
            assert_eq!(long_lived.stable(stats, rem), twin.stable(&scratch, rem));
            self.means.sync_means(stats);
            self.intervals.sync_intervals(stats, CONFIDENCE);
            let bits = |s: Option<[f64; 2]>| s.map(|s| s.map(f64::to_bits).to_vec());
            for j in 0..stats.len() {
                assert_eq!(
                    self.means.scores(j, self.min_coverage).map(|[s]| vec![s.to_bits()]),
                    naive_scores(stats, j, None, self.min_coverage),
                    "mean score of instance {}",
                    j
                );
                assert_eq!(
                    bits(self.intervals.scores(j, self.min_coverage)),
                    naive_scores(stats, j, Some(CONFIDENCE), self.min_coverage),
                    "interval score of instance {}",
                    j
                );
            }
        }
    }

    /// Every instance's scores off `means` and `intervals`, synced to
    /// `stats`, at each of `coverages` in turn, against the link-by-link
    /// recomputation.
    fn check_coverages(
        means: &mut PoolIndex<1>,
        intervals: &mut PoolIndex<2>,
        stats: &PairwiseStats,
        coverages: [f64; 2],
    ) {
        means.sync_means(stats);
        intervals.sync_intervals(stats, CONFIDENCE);
        for c in coverages {
            for j in 0..stats.len() {
                assert_eq!(
                    means.scores(j, c).map(|[s]| vec![s.to_bits()]),
                    naive_scores(stats, j, None, c),
                    "mean score of instance {j} at coverage {c}"
                );
                assert_eq!(
                    intervals.scores(j, c).map(|s| s.map(f64::to_bits).to_vec()),
                    naive_scores(stats, j, Some(CONFIDENCE), c),
                    "interval score of instance {j} at coverage {c}"
                );
            }
        }
    }

    /// A coverage threshold the rules' reads might use.
    fn coverage(rng: &mut StdRng) -> f64 {
        [0.0, 0.5, 0.8][rng.random_range(0..3usize)]
    }

    /// A touched link's evidence: none one time in five, else two lanes
    /// of random prices mixed with a tie-heavy palette.
    fn touched_price(rng: &mut StdRng) -> Option<[f64; 2]> {
        let palette = [0.0, 1.0, 1.0, 2.0, f64::INFINITY];
        let pick = |rng: &mut StdRng| {
            if rng.random::<bool>() {
                palette[rng.random_range(0..palette.len())]
            } else {
                rng.random_range(0.0..3.0)
            }
        };
        (rng.random::<f64>() < 0.8).then(|| [pick(rng), pick(rng)])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn windowed_scores_hold_under_ties_drains_and_two_coverages(
            seed in 0u64..10_000,
            m in 18usize..40,
            ops in 20usize..160,
        ) {
            // Over 17 instances an incident multiset outgrows a window,
            // so reads land inside, past and across partial windows.
            let mut rng = StdRng::seed_from_u64(seed);
            let coverages = [coverage(&mut rng), coverage(&mut rng)];
            let mut stats = PairwiseStats::new(m);
            let (mut means, mut intervals) = (PoolIndex::default(), PoolIndex::default());
            for _ in 0..ops {
                mutate_ties(&mut stats, &mut rng);
                if rng.random::<f64>() < 0.3 {
                    check_coverages(&mut means, &mut intervals, &stats, coverages);
                }
            }
            check_coverages(&mut means, &mut intervals, &stats, coverages);
        }

        #[test]
        fn a_touched_index_follows_evidence_that_appears_and_vanishes(
            seed in 0u64..10_000,
            m in 18usize..40,
            epochs in 5usize..40,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let coverages = [coverage(&mut rng), coverage(&mut rng)];
            let mut evidence: Vec<Option<[f64; 2]>> =
                (0..m * m).map(|idx| (idx / m != idx % m).then(|| touched_price(&mut rng)).flatten()).collect();
            let mut index = PoolIndex::<2>::default();
            let mut touched: Vec<usize> = Vec::new();
            for _ in 0..epochs {
                match rng.random_range(0..4u32) {
                    // A long run re-pricing every link of one instance
                    // past the rest of its prices: its windows drain.
                    0 => {
                        let j = rng.random_range(0..m);
                        let far = if rng.random::<bool>() { -1.0 } else { 1e9 };
                        for k in (0..m).filter(|&k| k != j) {
                            for idx in [j * m + k, k * m + j] {
                                evidence[idx] = Some([far + k as f64, far - k as f64]);
                                touched.push(idx);
                            }
                        }
                    }
                    // More links than the budget: a bulk build.
                    1 if rng.random::<f64>() < 0.3 => {
                        for idx in 0..m * m {
                            if idx / m != idx % m {
                                evidence[idx] = touched_price(&mut rng);
                                touched.push(idx);
                            }
                        }
                    }
                    // Scattered links gain, lose or change evidence;
                    // some are named twice, some named but unchanged.
                    _ => {
                        for _ in 0..rng.random_range(1..3 * m) {
                            let idx = rng.random_range(0..m * m);
                            if idx / m != idx % m && rng.random::<f64>() < 0.9 {
                                evidence[idx] = touched_price(&mut rng);
                            }
                            touched.push(idx);
                        }
                    }
                }
                index.sync_touched(m, touched.drain(..), |src, dst| evidence[src * m + dst]);
                for (c, j) in coverages.into_iter().cycle().zip(0..2 * m) {
                    let j = j % m;
                    let mut lanes = vec![Vec::new(); 2];
                    for k in (0..m).filter(|&k| k != j) {
                        for prices in [evidence[j * m + k], evidence[k * m + j]].into_iter().flatten() {
                            lanes[0].push(prices[0]);
                            lanes[1].push(prices[1]);
                        }
                    }
                    prop_assert_eq!(
                        index.scores(j, c).map(|s| s.map(f64::to_bits).to_vec()),
                        naive_median(lanes, m, c),
                        "instance {} at coverage {}", j, c
                    );
                }
            }
        }

        #[test]
        fn indexed_rules_equal_from_scratch_evaluation_under_any_interleaving(
            seed in 0u64..10_000,
            m in 6usize..13,
            ops in 20usize..120,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = PairwiseStats::new(m);
            let mut h = Harness::new(m, &mut rng);
            for _ in 0..ops {
                mutate(&mut stats, &mut rng);
                if rng.random::<f64>() < 0.4 {
                    h.check(&stats);
                }
            }
            h.check(&stats);
            // One history, evaluated often enough to stay on the log's
            // tail: each index was built once and synced ever after.
            prop_assert!(h.means.rebuilds() <= 1 + ops as u64 / (4 * m as u64));
        }

        #[test]
        fn scores_read_after_a_bulk_build_equal_the_one_shot_pool(
            seed in 0u64..10_000,
            m in 3usize..40,
            ops in 1usize..200,
            k in 1usize..40,
        ) {
            use cloudia_solver::CandidateSet;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = PairwiseStats::new(m);
            for _ in 0..ops {
                mutate_ties(&mut stats, &mut rng);
            }
            let min_coverage = [0.0, 0.5, 0.8][rng.random_range(0..3usize)];
            let n = 1 + k % m.min(4);
            let config = CandidateConfig::fixed(k);
            let incumbent: Vec<u32> = (0..n).map(|_| rng.random_range(0..m as u32)).collect();
            // The evidence `build_partial` reads: a link's mean when
            // sampled, +∞ when only attempted, none otherwise.
            let (count, attempts, mean) =
                (stats.count_column(), stats.attempts_column(), stats.mean_column());
            let evidence = |src: usize, dst: usize| {
                let idx = src * m + dst;
                if count[idx] > 0 {
                    Some([mean[idx]])
                } else {
                    (attempts[idx] > 0).then_some([f64::INFINITY])
                }
            };
            let one_shot = CandidateSet::build_partial(
                n, &stats, &config, Some(&incumbent), None, min_coverage,
            );
            // Bulk-built directly, and by a touched sync past its budget
            // over an index that followed other evidence before.
            let mut rebuilt = PoolIndex::<1>::default();
            rebuilt.rebuild(m, evidence);
            let mut synced = PoolIndex::<1>::default();
            synced.sync_touched(m, std::iter::empty(), |_, _| Some([1.0]));
            let _ = synced.all_scores(min_coverage);
            let budget = PoolIndex::<1>::reprice_budget(m);
            let touched: Vec<usize> = (0..m * m).cycle().take(budget + 1).collect();
            synced.sync_touched(m, touched.into_iter(), evidence);
            prop_assert_eq!(synced.rebuilds(), 2, "past the budget a sync bulk-builds");
            for index in [&rebuilt, &synced] {
                let pool = CandidateSet::from_index(
                    n, index, &config, Some(&incumbent), None, min_coverage,
                );
                prop_assert_eq!(pool.union(), one_shot.union());
                for v in 0..n {
                    prop_assert_eq!(pool.node_candidates(v), one_shot.node_candidates(v));
                }
                for j in 0..m {
                    prop_assert_eq!(
                        index.scores(j, min_coverage).map(|[s]| vec![s.to_bits()]),
                        naive_scores(&stats, j, None, min_coverage),
                        "instance {}", j
                    );
                }
            }
        }

        #[test]
        fn carried_look_state_survives_overruns_rebuilt_rules_and_new_levels(
            seed in 0u64..10_000,
            m in 6usize..13,
            ops in 20usize..120,
        ) {
            // What a look keeps for the next (kept scores, rankings, the
            // threshold's and verdict's buffers) against fresh rules at
            // every check, while the touch log overruns between two looks
            // and the rules are rebuilt with another incumbent or level
            // over their shared index.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = PairwiseStats::new(m);
            let mut h = Harness::new(m, &mut rng);
            for _ in 0..ops {
                mutate(&mut stats, &mut rng);
                match rng.random_range(0..10u32) {
                    0 => {
                        let cursor = stats.touch_cursor();
                        while stats.touched_since(cursor).is_some() {
                            mutate(&mut stats, &mut rng);
                        }
                    }
                    1 => h.rebuild_rules(m, &mut rng),
                    _ => {}
                }
                if rng.random::<f64>() < 0.5 {
                    h.check(&stats);
                }
            }
            h.check(&stats);
        }

        #[test]
        fn a_diverged_clone_or_an_overrun_log_rebuilds_the_index(
            seed in 0u64..10_000,
            m in 6usize..13,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut stats = PairwiseStats::new(m);
            let mut h = Harness::new(m, &mut rng);
            for _ in 0..3 * m {
                mutate(&mut stats, &mut rng);
            }
            h.check(&stats);
            prop_assert_eq!((h.means.rebuilds(), h.intervals.rebuilds()), (1, 1));

            // The same rules on a clone that then diverges…
            let mut fork = stats.clone();
            for _ in 0..m {
                mutate(&mut fork, &mut rng);
            }
            h.check(&fork);
            prop_assert_eq!((h.means.rebuilds(), h.intervals.rebuilds()), (2, 2));
            // …and back on the original, which moved on meanwhile.
            mutate(&mut stats, &mut rng);
            h.check(&stats);
            prop_assert_eq!((h.means.rebuilds(), h.intervals.rebuilds()), (3, 3));
            mutate(&mut stats, &mut rng);
            h.check(&stats);
            prop_assert_eq!(h.means.rebuilds(), 3, "same history, short delta: a sync");

            // More touches than the log retains between two evaluations.
            let cursor = stats.touch_cursor();
            while stats.touched_since(cursor).is_some() {
                mutate(&mut stats, &mut rng);
            }
            h.check(&stats);
            prop_assert_eq!((h.means.rebuilds(), h.intervals.rebuilds()), (4, 4));
        }
    }
}

// --- The repair and batch pool: `CandidateSet::build` over a cost matrix
// ranks through the one routine every pool shares, and must pick what
// its own per-instance loop picked, ties, dark links and pins included.
mod dense_pool {
    use cloudia_solver::candidates::POOL_QUANTILE;
    use cloudia_solver::problem::{Costs, NodeDeployment};
    use cloudia_solver::{CandidateConfig, CandidateSet, PoolPolicy};
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The pool `CandidateSet::build` took before it ranked through
    /// `ranked_pool`: every instance scored by the quantile of its
    /// incident costs, the cheapest `pool_size` kept, ties by index.
    fn transcribed_pool(problem: &NodeDeployment, config: &CandidateConfig) -> Vec<u32> {
        let (n, m) = (problem.num_nodes, problem.num_instances());
        let pool_size = config.pool_size(n, m);
        if pool_size >= m {
            return (0..m as u32).collect();
        }
        let costs = &problem.costs;
        let mut scored: Vec<(f64, u32)> = (0..m)
            .map(|j| {
                let mut incident: Vec<f64> = Vec::with_capacity(2 * (m - 1));
                for l in 0..m {
                    if l != j {
                        incident.push(costs.get(j, l));
                        incident.push(costs.get(l, j));
                    }
                }
                let idx = ((incident.len() - 1) as f64 * POOL_QUANTILE).round() as usize;
                let (_, q, _) = incident.select_nth_unstable_by(idx, f64::total_cmp);
                (*q, j as u32)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut pool: Vec<u32> = scored[..pool_size].iter().map(|&(_, j)| j).collect();
        pool.sort_unstable();
        pool
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_dense_pool_equals_its_transcribed_loop(
            seed in 0u64..100_000,
            m in 1usize..24,
            n in 1usize..6,
            k in 0usize..16,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Few distinct prices (ties everywhere), signed zeros and
            // dark (+∞) links.
            let prices = [0.0, -0.0, 0.5, 1.0, 1.0, 2.5, f64::INFINITY];
            let costs = Costs::from_fn(m, |_, _| prices[rng.random_range(0..prices.len())]);
            let n = n.min(m);
            let edges = (0..n as u32).zip(1..n as u32).collect();
            let problem = NodeDeployment::new(n, edges, costs);
            let incumbent: Vec<u32> = (0..n).map(|_| rng.random_range(0..m as u32)).collect();
            let fixed: Vec<Option<u32>> = (0..n)
                .map(|_| rng.random::<bool>().then(|| rng.random_range(0..m as u32)))
                .collect();
            let config = CandidateConfig { pool: PoolPolicy::Fixed(k) };
            let pool = transcribed_pool(&problem, &config);
            for (inc, fix) in [(None, None), (Some(&incumbent[..]), Some(&fixed[..]))] {
                let built = CandidateSet::build(&problem, &config, inc, fix);
                let mut union = pool.clone();
                for v in 0..n {
                    let extras = [inc.map(|i| i[v]), fix.and_then(|f| f[v])];
                    let mut list = pool.clone();
                    list.extend(extras.into_iter().flatten());
                    list.sort_unstable();
                    list.dedup();
                    prop_assert_eq!(built.node_candidates(v), &list[..], "node {}", v);
                    union.extend(list);
                }
                union.sort_unstable();
                union.dedup();
                prop_assert_eq!(built.union(), &union[..]);
            }
        }
    }
}

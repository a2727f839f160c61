//! Branch-and-bound MIP engine with lazy constraint generation.
//!
//! The paper solves its MIP encodings with CPLEX; offline we have no MIP
//! library, so this module provides the classic recipe on top of the
//! [`crate::lp`] simplex:
//!
//! * **LP-relaxation branch-and-bound**, depth-first, branching on the most
//!   fractional binary variable (1-branch explored first so integral
//!   incumbents appear early);
//! * **lazy constraints**: the longest-link family
//!   `c ≥ C_L(j,j')(x_ij + x_i'j' − 1)` has `|E|·|S|²` members — far too
//!   many to instantiate (~10⁸ at paper scale) — so violated members are
//!   generated at LP optima, exactly how such models are deployed in
//!   practice. Missing cuts only *weaken* the bound (safe for pruning);
//! * **primal rounding heuristic**: fractional LP points are rounded to a
//!   feasible injection greedily by descending `x` value, giving the
//!   anytime incumbents that the convergence figures (Figs. 7, 9) plot.
//!
//! The paper's observation that the MIP "performs poorly ... \[and\] suffers
//! from a weak linear relaxation, as `x_ij` and `x_i'j'` should add up to
//! more than one for the relaxed constraint to take effect" (§6.3.2) is
//! reproduced faithfully by this engine: at 100 instances the root
//! relaxation bound stays near zero while CP closes in seconds.

use std::time::Instant;

use crate::control::SearchControl;
use crate::lp::{solve as lp_solve, Constraint, Lp, LpResult, Sense};
use crate::outcome::{Budget, SolveOutcome};

/// Hooks connecting the generic engine to a concrete encoding.
pub trait MipHooks {
    /// Violated lazy constraints at the LP point `x` (at most `cap`,
    /// most-violated first). Empty = all constraints satisfied.
    fn lazy_cuts(&self, x: &[f64], cap: usize) -> Vec<Constraint>;

    /// Rounds an LP point to a feasible deployment.
    fn round(&self, x: &[f64]) -> Vec<u32>;

    /// Deployment cost under the costs the encoding optimizes (cluster
    /// means if clustering is on) — used for pruning consistency.
    fn encoded_cost(&self, deployment: &[u32]) -> f64;

    /// Deployment cost under the original measured costs — reported to the
    /// user and plotted in convergence curves.
    fn true_cost(&self, deployment: &[u32]) -> f64;

    /// Whether an externally offered deployment is admissible as an
    /// incumbent for this encoding (e.g. honours fixed assignments).
    /// Inadmissible offers are ignored by the bound-injection path.
    fn accepts(&self, _deployment: &[u32]) -> bool {
        true
    }
}

/// Max lazy constraints added per separation round.
const LAZY_CAP: usize = 200;
/// Max separation rounds per B&B node.
const LAZY_ROUNDS: usize = 8;
/// Simplex pivot limit per LP solve.
const MAX_LP_ITERS: usize = 20_000;
/// Hard cap on the accumulated cut pool.
const MAX_POOL: usize = 4_000;

/// Runs branch-and-bound. `base` must contain the always-on constraints;
/// `binary_vars` lists the variables branched to {0, 1}; `initial` seeds
/// the incumbent; `budget` bounds the wall clock and the B&B nodes.
pub fn solve_mip(
    base: &Lp,
    binary_vars: &[usize],
    hooks: &dyn MipHooks,
    initial: Vec<u32>,
    budget: Budget,
) -> SolveOutcome {
    solve_mip_with(base, binary_vars, hooks, initial, budget, &SearchControl::new())
}

/// Like [`solve_mip`], cooperating with concurrent workers through
/// `control` — the same hooks the CP prover has:
///
/// * **cancellation**: the flag is polled before every branch-and-bound
///   node, so the engine stops mid-search instead of running its budget
///   out after another prover already closed the instance;
/// * **bound injection**: a better shared incumbent (admitted by
///   [`MipHooks::accepts`]) is adopted between nodes, tightening the
///   pruning bound exactly like an internally found one;
/// * **publication**: every internal incumbent improvement is offered to
///   the shared control as it happens, not just the final result.
pub fn solve_mip_with(
    base: &Lp,
    binary_vars: &[usize],
    hooks: &dyn MipHooks,
    initial: Vec<u32>,
    budget: Budget,
    control: &SearchControl,
) -> SolveOutcome {
    let start = Instant::now();
    let mut pool: Vec<Constraint> = Vec::new();

    // The search incumbent is best on the encoded (rounded or clustered)
    // costs, which prune the tree; the returned plan is tracked apart by
    // its true cost, as CP does: under rounding a lower encoded cost can
    // be a higher true one, and the solver must never return worse than
    // the best plan it ever held.
    let mut incumbent_encoded = hooks.encoded_cost(&initial);
    let mut result_cost = hooks.true_cost(&initial);
    let mut result = initial;
    let mut curve = vec![(0.0, result_cost)];
    // The shared control orders costs by f64 bit pattern, which only works
    // for non-negative values; deployment costs always are, but synthetic
    // encodings (tests) may not be — skip publication for those.
    let offer = |d: &[u32], c: f64| {
        if c >= 0.0 {
            control.offer(d, c);
        }
    };
    offer(&result, result_cost);

    // DFS stack of nodes: each node is a set of variable fixings.
    #[derive(Clone)]
    struct Node {
        fixings: Vec<(usize, f64)>,
    }
    let mut stack = vec![Node { fixings: Vec::new() }];
    let mut nodes_explored = 0u64;
    let mut complete = true; // no budget/LP-limit pruning happened

    while let Some(node) = stack.pop() {
        if control.is_cancelled() {
            complete = false;
            break;
        }
        if start.elapsed().as_secs_f64() >= budget.time_limit_s
            || nodes_explored >= budget.node_limit
        {
            complete = false;
            break;
        }
        // Cross-thread bound injection: adopt a better shared incumbent
        // (the lock-free bound read filters the common no-news case).
        if control.bound() < result_cost {
            if let Some((d, c)) = control.best() {
                if c < result_cost && hooks.accepts(&d) {
                    // It tightens the pruning bound, and is kept when its
                    // true cost beats the plan held.
                    incumbent_encoded = incumbent_encoded.min(hooks.encoded_cost(&d));
                    let cost = hooks.true_cost(&d);
                    if cost < result_cost {
                        result_cost = cost;
                        curve.push((start.elapsed().as_secs_f64(), cost));
                        result = d;
                    }
                }
            }
        }
        nodes_explored += 1;

        // Assemble and solve this node's LP (with lazy separation).
        let mut lp = base.clone();
        lp.constraints.extend(pool.iter().cloned());
        for &(v, val) in &node.fixings {
            lp.constraints.push(Constraint::new(vec![(v, 1.0)], Sense::Eq, val));
        }

        let mut x_opt: Option<(Vec<f64>, f64)> = None;
        for _round in 0..=LAZY_ROUNDS {
            match lp_solve(&lp, MAX_LP_ITERS) {
                LpResult::Optimal { x, objective } => {
                    let cuts = if pool.len() < MAX_POOL {
                        hooks.lazy_cuts(&x, LAZY_CAP)
                    } else {
                        Vec::new()
                    };
                    if cuts.is_empty() {
                        x_opt = Some((x, objective));
                        break;
                    }
                    lp.constraints.extend(cuts.iter().cloned());
                    pool.extend(cuts);
                    x_opt = Some((x, objective));
                }
                LpResult::Infeasible => {
                    x_opt = None;
                    break;
                }
                LpResult::Unbounded | LpResult::IterationLimit => {
                    // Cannot trust a bound: keep the node's children
                    // unexplored rather than risk wrong pruning.
                    complete = false;
                    x_opt = None;
                    break;
                }
            }
        }
        let Some((x, lb)) = x_opt else { continue };

        // Bound pruning (missing lazy cuts make lb an underestimate —
        // safe).
        if lb >= incumbent_encoded - 1e-9 {
            continue;
        }

        // Primal heuristic at every node.
        let rounded = hooks.round(&x);
        let enc = hooks.encoded_cost(&rounded);
        if enc < incumbent_encoded - 1e-12 {
            incumbent_encoded = enc;
            let cost = hooks.true_cost(&rounded);
            if cost < result_cost {
                result_cost = cost;
                curve.push((start.elapsed().as_secs_f64(), cost));
                result = rounded;
                offer(&result, cost);
            }
        }

        // Find the most fractional binary variable.
        let mut branch: Option<(usize, f64)> = None;
        for &v in binary_vars {
            let frac = (x[v] - x[v].round()).abs();
            if frac > 1e-6 && branch.is_none_or(|(_, bf)| frac > bf) {
                branch = Some((v, frac));
            }
        }
        match branch {
            None => {
                // Integral: the rounding above already captured it (greedy
                // rounding of an integral x returns that assignment).
                continue;
            }
            Some((v, _)) => {
                let mut zero = node.clone();
                zero.fixings.push((v, 0.0));
                let mut one = node;
                one.fixings.push((v, 1.0));
                // Push 0 first so the 1-branch is explored first.
                stack.push(zero);
                stack.push(one);
            }
        }
    }

    offer(&result, result_cost);
    SolveOutcome {
        deployment: result,
        cost: result_cost,
        curve,
        proven_optimal: complete,
        explored: nodes_explored,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny knapsack-like pure-binary MIP to exercise the engine without
    /// the deployment encodings: max 5a + 4b + 3c s.t. 2a + 3b + c <= 3
    /// (expressed as min of the negation). Optimum: a = 1, c = 1 → -8.
    struct Knapsack;

    impl MipHooks for Knapsack {
        fn lazy_cuts(&self, _x: &[f64], _cap: usize) -> Vec<Constraint> {
            Vec::new()
        }
        fn round(&self, x: &[f64]) -> Vec<u32> {
            // Greedy rounding respecting the capacity.
            let weights = [2.0, 3.0, 1.0];
            let mut order: Vec<usize> = (0..3).collect();
            order.sort_by(|&a, &b| x[b].partial_cmp(&x[a]).unwrap());
            let mut cap = 3.0;
            let mut pick = vec![0u32; 3];
            for i in order {
                if weights[i] <= cap && x[i] > 1e-9 {
                    pick[i] = 1;
                    cap -= weights[i];
                }
            }
            pick
        }
        fn encoded_cost(&self, d: &[u32]) -> f64 {
            let values = [5.0, 4.0, 3.0];
            -d.iter().zip(values).map(|(&p, v)| p as f64 * v).sum::<f64>()
        }
        fn true_cost(&self, d: &[u32]) -> f64 {
            self.encoded_cost(d)
        }
    }

    fn knapsack_lp() -> Lp {
        let mut constraints =
            vec![Constraint::new(vec![(0, 2.0), (1, 3.0), (2, 1.0)], Sense::Le, 3.0)];
        for v in 0..3 {
            constraints.push(Constraint::new(vec![(v, 1.0)], Sense::Le, 1.0));
        }
        Lp { num_vars: 3, objective: vec![-5.0, -4.0, -3.0], constraints }
    }

    #[test]
    fn solves_knapsack_to_optimality() {
        let out =
            solve_mip(&knapsack_lp(), &[0, 1, 2], &Knapsack, vec![0, 0, 0], Budget::seconds(10.0));
        assert!(out.proven_optimal);
        assert_eq!(out.deployment, vec![1, 0, 1]);
        assert_eq!(out.cost, -8.0);
    }

    #[test]
    fn budget_zero_returns_initial() {
        let out =
            solve_mip(&knapsack_lp(), &[0, 1, 2], &Knapsack, vec![0, 0, 0], Budget::seconds(0.0));
        assert!(!out.proven_optimal);
        assert_eq!(out.deployment, vec![0, 0, 0]);
    }

    #[test]
    fn node_limit_respected() {
        let out = solve_mip(&knapsack_lp(), &[0, 1, 2], &Knapsack, vec![0, 0, 0], Budget::nodes(1));
        assert!(out.explored <= 1);
    }

    #[test]
    fn pre_cancelled_control_stops_immediately() {
        let control = SearchControl::new();
        control.cancel();
        let out = solve_mip_with(
            &knapsack_lp(),
            &[0, 1, 2],
            &Knapsack,
            vec![0, 0, 0],
            Budget::seconds(10.0),
            &control,
        );
        assert!(!out.proven_optimal, "a cancelled run must not claim a proof");
        assert_eq!(out.explored, 0);
        assert_eq!(out.deployment, vec![0, 0, 0]);
    }

    /// A non-negative-cost variant of the knapsack hooks so offers flow
    /// through the shared control (min 8 - value, optimum 0).
    struct ShiftedKnapsack;

    impl MipHooks for ShiftedKnapsack {
        fn lazy_cuts(&self, _x: &[f64], _cap: usize) -> Vec<Constraint> {
            Vec::new()
        }
        fn round(&self, x: &[f64]) -> Vec<u32> {
            Knapsack.round(x)
        }
        fn encoded_cost(&self, d: &[u32]) -> f64 {
            8.0 + Knapsack.encoded_cost(d)
        }
        fn true_cost(&self, d: &[u32]) -> f64 {
            self.encoded_cost(d)
        }
        fn accepts(&self, d: &[u32]) -> bool {
            // Reject infeasible external offers (capacity violated).
            let weights = [2.0, 3.0, 1.0];
            d.iter().zip(weights).map(|(&p, w)| p as f64 * w).sum::<f64>() <= 3.0
        }
    }

    #[test]
    fn external_incumbent_is_adopted_and_improvements_published() {
        let control = SearchControl::new();
        // Another worker already found the optimum (a=1, c=1 -> cost 0).
        control.offer(&[1, 0, 1], 0.0);
        let out = solve_mip_with(
            &knapsack_lp(),
            &[0, 1, 2],
            &ShiftedKnapsack,
            vec![0, 0, 0],
            Budget::seconds(10.0),
            &control,
        );
        assert_eq!(out.cost, 0.0);
        assert_eq!(out.deployment, vec![1, 0, 1]);
        assert!(out.proven_optimal);
        // The run also kept the shared incumbent in sync.
        assert_eq!(control.best().unwrap().1, 0.0);
    }

    #[test]
    fn inadmissible_external_offers_are_ignored() {
        let control = SearchControl::new();
        // Infeasible "better" offer: all three items exceed capacity.
        control.offer(&[1, 1, 1], 0.0);
        let out = solve_mip_with(
            &knapsack_lp(),
            &[0, 1, 2],
            &ShiftedKnapsack,
            vec![0, 0, 0],
            Budget::seconds(10.0),
            &control,
        );
        // The engine must find the true optimum itself, not adopt garbage.
        assert_eq!(out.deployment, vec![1, 0, 1]);
        assert_eq!(out.cost, 0.0);
    }

    /// Knapsack hooks whose true costs disagree with the encoded ones on
    /// the encoded optimum, the way rounding can make a plan look best on
    /// search costs while it costs more than the start.
    struct RoundedKnapsack;

    impl MipHooks for RoundedKnapsack {
        fn lazy_cuts(&self, _x: &[f64], _cap: usize) -> Vec<Constraint> {
            Vec::new()
        }
        fn round(&self, x: &[f64]) -> Vec<u32> {
            Knapsack.round(x)
        }
        fn encoded_cost(&self, d: &[u32]) -> f64 {
            Knapsack.encoded_cost(d)
        }
        fn true_cost(&self, d: &[u32]) -> f64 {
            if d == [1, 0, 1] {
                1.0
            } else {
                Knapsack.encoded_cost(d)
            }
        }
    }

    #[test]
    fn the_returned_plan_is_never_worse_than_the_start_on_true_costs() {
        let start = vec![0, 1, 0];
        let out =
            solve_mip(&knapsack_lp(), &[0, 1, 2], &RoundedKnapsack, start, Budget::seconds(10.0));
        assert_eq!(out.cost, RoundedKnapsack.true_cost(&out.deployment));
        assert!(out.cost <= -4.0, "returned {} worse than the start's -4", out.cost);
        assert!(out.curve.windows(2).all(|w| w[1].1 < w[0].1));
    }

    #[test]
    fn curve_tracks_improvements() {
        let out =
            solve_mip(&knapsack_lp(), &[0, 1, 2], &Knapsack, vec![0, 0, 0], Budget::seconds(10.0));
        assert!(out.curve.len() >= 2);
        assert!(out.curve.windows(2).all(|w| w[1].1 <= w[0].1));
        assert_eq!(out.curve.last().unwrap().1, -8.0);
    }
}

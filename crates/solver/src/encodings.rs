//! MIP encodings of LLNDP (paper §4.1) and LPNDP (paper §4.4).
//!
//! Both encodings share the assignment block: binary `x_ij` = 1 iff
//! application node `i` is deployed on instance `j`, with one-node-one-
//! instance and one-instance-at-most-one-node rows. (The paper pads the
//! node set with dummies to make the mapping a bijection; we instead use
//! `≤ 1` instance rows, which is equivalent and smaller.)
//!
//! **LLNDP** adds a single cost variable `c` with the family
//! `c ≥ C_L(j,j')(x_ij + x_i'j' − 1)` for every edge `(i,i')` and instance
//! pair `(j,j')`, minimized. **LPNDP** adds per-edge cost variables
//! `c_(i,i')`, per-node longest-path variables `t_i` with precedence rows
//! `t_i' ≥ t_i + c_(i,i')`, and minimizes the maximum `t`.
//!
//! The quadratic-size constraint families are generated lazily by the
//! [`crate::mip`] engine.

use rand::{rngs::StdRng, SeedableRng};

use crate::cluster::search_costs;
use crate::control::SearchControl;
use crate::cp::BOOTSTRAP_SAMPLES;
use crate::lp::{Constraint, Lp, Sense};
use crate::mip::{solve_mip_with, MipHooks};
use crate::outcome::{Budget, Objective, SolveHint, SolveOutcome};
use crate::problem::NodeDeployment;

/// Configuration of the MIP drivers (mirrors [`crate::cp::CpConfig`]; the
/// warm start and pins are the [`SolveHint`] argument of the `_with`
/// drivers).
#[derive(Debug, Clone, Copy)]
pub struct MipConfig {
    /// Overall budget.
    pub budget: Budget,
    /// Number of cost clusters (`None` = raw costs; the paper finds
    /// clustering does not help LPNDP, §6.3.3).
    pub clusters: Option<usize>,
    /// Pre-rounding quantum (paper: 0.01 ms).
    pub quantum: f64,
    /// Seed for bootstrap deployments.
    pub seed: u64,
}

impl Default for MipConfig {
    fn default() -> Self {
        Self { budget: Budget::seconds(10.0), clusters: None, quantum: 0.01, seed: 0 }
    }
}

/// The branch-and-bound's starting incumbent: the best, under the true
/// costs, of the hint's incumbent (kept unless something sampled beats
/// it), the bootstrap samples and the G2 greedy — all honouring the pins.
/// Picked on true costs because the engine returns nothing worse than its
/// start: under rounding, a plan best on search costs can cost more than
/// the warm start.
fn bootstrap(
    problem: &NodeDeployment,
    objective: Objective,
    config: &MipConfig,
    hint: &SolveHint,
    search: &NodeDeployment,
) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let fixed = hint.pins();
    let mut best: Option<(Vec<u32>, f64)> = None;
    let consider = |d: Vec<u32>, best: &mut Option<(Vec<u32>, f64)>| {
        let c = problem.cost(objective, &d);
        if best.as_ref().is_none_or(|(_, bc)| c < *bc) {
            *best = Some((d, c));
        }
    };
    if let Some(init) = hint.incumbent() {
        // A warm start that moves a pinned node would bypass the x_ij = 1
        // rows via the incumbent path — only admit pin-respecting ones.
        if fixed.is_none_or(|f| crate::cp::respects_fixed(init, f)) {
            consider(init.to_vec(), &mut best);
        }
    }
    for _ in 0..BOOTSTRAP_SAMPLES {
        let d = match fixed {
            Some(f) => problem.random_deployment_with(f, &mut rng),
            None => problem.random_deployment(&mut rng),
        };
        consider(d, &mut best);
    }
    // The G2 greedy is practically free and gives the branch-and-bound a
    // usable incumbent immediately — CPLEX's internal heuristics play the
    // same role in the paper's runs (for LPNDP this is the §4.5.2
    // greedy-as-heuristic reuse).
    let greedy = match fixed {
        Some(f) => crate::greedy::solve_greedy_fixed(search, crate::greedy::GreedyVariant::G2, f),
        None => crate::greedy::solve_greedy(search, crate::greedy::GreedyVariant::G2),
    };
    consider(greedy.deployment, &mut best);
    best.expect("at least one bootstrap sample").0
}

/// Shared assignment block: variables `x_ij` at index `i·m + j`, node
/// equality rows, instance at-most-one rows, and `x_ij = 1` rows for any
/// fixed assignments.
fn assignment_rows(n: usize, m: usize, fixed: Option<&[Option<u32>]>) -> Vec<Constraint> {
    let mut rows = Vec::with_capacity(n + m);
    for i in 0..n {
        rows.push(Constraint::new((0..m).map(|j| (i * m + j, 1.0)).collect(), Sense::Eq, 1.0));
    }
    for j in 0..m {
        rows.push(Constraint::new((0..n).map(|i| (i * m + j, 1.0)).collect(), Sense::Le, 1.0));
    }
    if let Some(fixed) = fixed {
        assert_eq!(fixed.len(), n, "fixed assignments must cover every node");
        for (i, &f) in fixed.iter().enumerate() {
            if let Some(j) = f {
                assert!((j as usize) < m, "fixed instance {j} out of range");
                rows.push(Constraint::new(vec![(i * m + j as usize, 1.0)], Sense::Eq, 1.0));
            }
        }
    }
    rows
}

/// Greedy rounding of the fractional assignment block to an injection:
/// fixed nodes keep their pinned instance; the rest go in descending order
/// of their strongest preference, each taking its best free instance.
fn round_assignment(x: &[f64], n: usize, m: usize, fixed: Option<&[Option<u32>]>) -> Vec<u32> {
    let mut used = vec![false; m];
    let mut deployment = vec![u32::MAX; n];
    if let Some(fixed) = fixed {
        for (i, &f) in fixed.iter().enumerate() {
            if let Some(j) = f {
                deployment[i] = j;
                used[j as usize] = true;
            }
        }
    }
    let mut order: Vec<usize> = (0..n).filter(|&i| deployment[i] == u32::MAX).collect();
    let strength = |i: usize| (0..m).map(|j| x[i * m + j]).fold(f64::NEG_INFINITY, f64::max);
    order.sort_by(|&a, &b| strength(b).partial_cmp(&strength(a)).unwrap());
    for i in order {
        let mut best_j = usize::MAX;
        let mut best_v = f64::NEG_INFINITY;
        for (j, &u) in used.iter().enumerate() {
            if !u && x[i * m + j] > best_v {
                best_v = x[i * m + j];
                best_j = j;
            }
        }
        deployment[i] = best_j as u32;
        used[best_j] = true;
    }
    deployment
}

// ---------------------------------------------------------------------
// LLNDP
// ---------------------------------------------------------------------

struct LlHooks<'a> {
    problem: &'a NodeDeployment,
    search: NodeDeployment,
    n: usize,
    m: usize,
    c_var: usize,
    fixed: Option<&'a [Option<u32>]>,
}

impl MipHooks for LlHooks<'_> {
    fn lazy_cuts(&self, x: &[f64], cap: usize) -> Vec<Constraint> {
        let mut violated: Vec<(f64, Constraint)> = Vec::new();
        let c_val = x[self.c_var];
        for &(i, ip) in &self.search.edges {
            let (i, ip) = (i as usize, ip as usize);
            for j in 0..self.m {
                let xij = x[i * self.m + j];
                if xij <= 1e-9 {
                    continue;
                }
                for jp in 0..self.m {
                    if j == jp {
                        continue;
                    }
                    let xipjp = x[ip * self.m + jp];
                    if xipjp <= 1e-9 {
                        continue;
                    }
                    let cl = self.search.costs.get(j, jp);
                    let lhs = cl * (xij + xipjp - 1.0);
                    if lhs > c_val + 1e-6 {
                        violated.push((
                            lhs - c_val,
                            Constraint::new(
                                vec![
                                    (i * self.m + j, cl),
                                    (ip * self.m + jp, cl),
                                    (self.c_var, -1.0),
                                ],
                                Sense::Le,
                                cl,
                            ),
                        ));
                    }
                }
            }
        }
        violated.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        violated.into_iter().take(cap).map(|(_, c)| c).collect()
    }

    fn round(&self, x: &[f64]) -> Vec<u32> {
        round_assignment(x, self.n, self.m, self.fixed)
    }

    fn encoded_cost(&self, d: &[u32]) -> f64 {
        self.search.longest_link(d)
    }

    fn true_cost(&self, d: &[u32]) -> f64 {
        self.problem.longest_link(d)
    }

    fn accepts(&self, d: &[u32]) -> bool {
        self.fixed.is_none_or(|f| crate::cp::respects_fixed(d, f))
    }
}

/// Solves LLNDP with the §4.1 MIP encoding, from a cold start.
pub fn solve_llndp_mip(problem: &NodeDeployment, config: &MipConfig) -> SolveOutcome {
    solve_llndp_mip_with(problem, config, &SolveHint::Cold, &SearchControl::new())
}

/// Like [`solve_llndp_mip`], starting from `hint` — its incumbent joins the
/// bootstrap and its pins become `x_vj = 1` rows, so the branch-and-bound
/// only explores the repair neighbourhood — and cooperating with
/// concurrent workers through `control` (cancellation, bound injection,
/// incumbent publication — see [`solve_mip_with`]).
pub fn solve_llndp_mip_with(
    problem: &NodeDeployment,
    config: &MipConfig,
    hint: &SolveHint,
    control: &SearchControl,
) -> SolveOutcome {
    let n = problem.num_nodes;
    let m = problem.num_instances();
    let fixed = hint.pins();
    let (enc_costs, _) = search_costs(&problem.costs, config.clusters, config.quantum);
    let search = NodeDeployment::new(n, problem.edges.clone(), enc_costs);

    let c_var = n * m;
    let mut objective = vec![0.0; n * m + 1];
    objective[c_var] = 1.0;
    let base = Lp { num_vars: n * m + 1, objective, constraints: assignment_rows(n, m, fixed) };
    let binary_vars: Vec<usize> = (0..n * m).collect();

    let initial = bootstrap(problem, Objective::LongestLink, config, hint, &search);
    let hooks = LlHooks { problem, search, n, m, c_var, fixed };
    solve_mip_with(&base, &binary_vars, &hooks, initial, config.budget, control)
}

// ---------------------------------------------------------------------
// LPNDP
// ---------------------------------------------------------------------

struct LpHooks<'a> {
    problem: &'a NodeDeployment,
    search: NodeDeployment,
    n: usize,
    m: usize,
    fixed: Option<&'a [Option<u32>]>,
}

impl LpHooks<'_> {
    fn c_edge(&self, e: usize) -> usize {
        self.n * self.m + e
    }
}

impl MipHooks for LpHooks<'_> {
    fn lazy_cuts(&self, x: &[f64], cap: usize) -> Vec<Constraint> {
        let mut violated: Vec<(f64, Constraint)> = Vec::new();
        for (e, &(i, ip)) in self.search.edges.iter().enumerate() {
            let (i, ip) = (i as usize, ip as usize);
            let ce_val = x[self.c_edge(e)];
            for j in 0..self.m {
                let xij = x[i * self.m + j];
                if xij <= 1e-9 {
                    continue;
                }
                for jp in 0..self.m {
                    if j == jp {
                        continue;
                    }
                    let xipjp = x[ip * self.m + jp];
                    if xipjp <= 1e-9 {
                        continue;
                    }
                    let cl = self.search.costs.get(j, jp);
                    let lhs = cl * (xij + xipjp - 1.0);
                    if lhs > ce_val + 1e-6 {
                        violated.push((
                            lhs - ce_val,
                            Constraint::new(
                                vec![
                                    (i * self.m + j, cl),
                                    (ip * self.m + jp, cl),
                                    (self.c_edge(e), -1.0),
                                ],
                                Sense::Le,
                                cl,
                            ),
                        ));
                    }
                }
            }
        }
        violated.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        violated.into_iter().take(cap).map(|(_, c)| c).collect()
    }

    fn round(&self, x: &[f64]) -> Vec<u32> {
        round_assignment(x, self.n, self.m, self.fixed)
    }

    fn encoded_cost(&self, d: &[u32]) -> f64 {
        self.search.longest_path(d)
    }

    fn true_cost(&self, d: &[u32]) -> f64 {
        self.problem.longest_path(d)
    }

    fn accepts(&self, d: &[u32]) -> bool {
        self.fixed.is_none_or(|f| crate::cp::respects_fixed(d, f))
    }
}

/// Solves LPNDP with the §4.4 MIP encoding, from a cold start.
///
/// # Panics
/// Panics if the communication graph is not a DAG.
pub fn solve_lpndp_mip(problem: &NodeDeployment, config: &MipConfig) -> SolveOutcome {
    solve_lpndp_mip_with(problem, config, &SolveHint::Cold, &SearchControl::new())
}

/// Like [`solve_lpndp_mip`], starting from `hint` and cooperating through
/// `control` exactly as [`solve_llndp_mip_with`] does.
///
/// # Panics
/// Panics if the communication graph is not a DAG.
pub fn solve_lpndp_mip_with(
    problem: &NodeDeployment,
    config: &MipConfig,
    hint: &SolveHint,
    control: &SearchControl,
) -> SolveOutcome {
    assert!(problem.is_dag(), "LPNDP requires an acyclic communication graph");
    let n = problem.num_nodes;
    let m = problem.num_instances();
    let e = problem.edges.len();
    let fixed = hint.pins();
    let (enc_costs, _) = search_costs(&problem.costs, config.clusters, config.quantum);
    let search = NodeDeployment::new(n, problem.edges.clone(), enc_costs);

    // Variable layout: x (n·m) | c_e (e) | t_i (n) | t (1).
    let t_node = |i: usize| n * m + e + i;
    let t_var = n * m + e + n;
    let mut objective = vec![0.0; n * m + e + n + 1];
    objective[t_var] = 1.0;

    let mut constraints = assignment_rows(n, m, fixed);
    for (ei, &(a, b)) in problem.edges.iter().enumerate() {
        // t_a + c_e − t_b ≤ 0.
        constraints.push(Constraint::new(
            vec![(t_node(a as usize), 1.0), (n * m + ei, 1.0), (t_node(b as usize), -1.0)],
            Sense::Le,
            0.0,
        ));
    }
    for i in 0..n {
        // t_i − t ≤ 0.
        constraints.push(Constraint::new(vec![(t_node(i), 1.0), (t_var, -1.0)], Sense::Le, 0.0));
    }

    let base = Lp { num_vars: n * m + e + n + 1, objective, constraints };
    let binary_vars: Vec<usize> = (0..n * m).collect();

    let initial = bootstrap(problem, Objective::LongestPath, config, hint, &search);
    let hooks = LpHooks { problem, search, n, m, fixed };
    solve_mip_with(&base, &binary_vars, &hooks, initial, config.budget, control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Costs;

    fn random_costs(m: usize, seed: u64) -> Costs {
        Costs::random_uniform(m, seed)
    }

    fn brute_force(problem: &NodeDeployment, objective: Objective) -> f64 {
        fn rec(
            problem: &NodeDeployment,
            objective: Objective,
            partial: &mut Vec<u32>,
            used: &mut Vec<bool>,
            best: &mut f64,
        ) {
            if partial.len() == problem.num_nodes {
                *best = best.min(problem.cost(objective, partial));
                return;
            }
            for j in 0..problem.num_instances() {
                if !used[j] {
                    used[j] = true;
                    partial.push(j as u32);
                    rec(problem, objective, partial, used, best);
                    partial.pop();
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(
            problem,
            objective,
            &mut Vec::new(),
            &mut vec![false; problem.num_instances()],
            &mut best,
        );
        best
    }

    fn exact_config(seconds: f64) -> MipConfig {
        MipConfig { budget: Budget::seconds(seconds), quantum: 0.0, ..Default::default() }
    }

    #[test]
    fn llndp_mip_optimal_on_small() {
        for seed in 0..3 {
            let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], random_costs(5, seed));
            let out = solve_llndp_mip(&p, &exact_config(30.0));
            let opt = brute_force(&p, Objective::LongestLink);
            assert!(p.is_valid(&out.deployment), "seed {seed}");
            assert!(out.proven_optimal, "seed {seed}");
            assert!((out.cost - opt).abs() < 1e-6, "seed {seed}: mip {} opt {opt}", out.cost);
        }
    }

    #[test]
    fn lpndp_mip_optimal_on_small_tree() {
        for seed in 0..3 {
            // Two-level aggregation tree: 0 <- 1, 0 <- 2; 1 <- 3, 2 <- 4.
            // Edges point leaf -> root (flow of partial aggregates).
            let edges = vec![(3, 1), (4, 2), (1, 0), (2, 0)];
            let p = NodeDeployment::new(5, edges, random_costs(6, seed + 10));
            let out = solve_lpndp_mip(&p, &exact_config(60.0));
            let opt = brute_force(&p, Objective::LongestPath);
            assert!(out.proven_optimal, "seed {seed}");
            assert!((out.cost - opt).abs() < 1e-6, "seed {seed}: mip {} opt {opt}", out.cost);
        }
    }

    #[test]
    fn llndp_mip_anytime_improves_over_bootstrap() {
        let p = NodeDeployment::new(
            6,
            vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)],
            random_costs(8, 3),
        );
        let out = solve_llndp_mip(&p, &exact_config(5.0));
        let first = out.curve.first().unwrap().1;
        assert!(out.cost <= first);
        assert!(out.curve.windows(2).all(|w| w[1].1 <= w[0].1));
    }

    #[test]
    fn mip_respects_time_budget() {
        let p =
            NodeDeployment::new(12, (0..11u32).map(|i| (i, i + 1)).collect(), random_costs(14, 4));
        let t = Instant::now();
        let out = solve_llndp_mip(&p, &exact_config(0.5));
        assert!(t.elapsed().as_secs_f64() < 15.0);
        assert!(p.is_valid(&out.deployment));
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn lpndp_rejects_cycles() {
        let p = NodeDeployment::new(3, vec![(0, 1), (1, 2), (2, 0)], random_costs(4, 5));
        solve_lpndp_mip(&p, &exact_config(1.0));
    }

    fn brute_force_fixed(
        problem: &NodeDeployment,
        objective: Objective,
        fixed: &[Option<u32>],
    ) -> f64 {
        fn rec(
            problem: &NodeDeployment,
            objective: Objective,
            fixed: &[Option<u32>],
            partial: &mut Vec<u32>,
            used: &mut Vec<bool>,
            best: &mut f64,
        ) {
            if partial.len() == problem.num_nodes {
                *best = best.min(problem.cost(objective, partial));
                return;
            }
            let v = partial.len();
            for j in 0..problem.num_instances() {
                if !used[j] && fixed[v].is_none_or(|f| f as usize == j) {
                    used[j] = true;
                    partial.push(j as u32);
                    rec(problem, objective, fixed, partial, used, best);
                    partial.pop();
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(
            problem,
            objective,
            fixed,
            &mut Vec::new(),
            &mut vec![false; problem.num_instances()],
            &mut best,
        );
        best
    }

    /// An incremental hint pinning `fixed`, its incumbent a random
    /// pin-respecting deployment.
    fn pinned_hint(p: &NodeDeployment, fixed: &[Option<u32>], seed: u64) -> SolveHint {
        let incumbent = p.random_deployment_with(fixed, &mut StdRng::seed_from_u64(seed));
        SolveHint::Incremental { incumbent, fixed: fixed.to_vec() }
    }

    #[test]
    fn llndp_mip_honours_fixed_assignments() {
        for seed in 0..3 {
            let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], random_costs(6, seed));
            let fixed = vec![Some(1u32), None, Some(4u32), None];
            let hint = pinned_hint(&p, &fixed, seed);
            let out = solve_llndp_mip_with(&p, &exact_config(30.0), &hint, &SearchControl::new());
            assert!(p.is_valid(&out.deployment), "seed {seed}");
            assert_eq!(out.deployment[0], 1, "seed {seed}");
            assert_eq!(out.deployment[2], 4, "seed {seed}");
            assert!(out.proven_optimal, "seed {seed}");
            let opt = brute_force_fixed(&p, Objective::LongestLink, &fixed);
            assert!((out.cost - opt).abs() < 1e-6, "seed {seed}: mip {} opt {opt}", out.cost);
        }
    }

    #[test]
    fn lpndp_mip_honours_fixed_assignments() {
        let edges = vec![(3, 1), (4, 2), (1, 0), (2, 0)];
        let p = NodeDeployment::new(5, edges, random_costs(6, 21));
        let fixed = vec![Some(0u32), None, None, Some(5u32), None];
        let hint = pinned_hint(&p, &fixed, 21);
        let out = solve_lpndp_mip_with(&p, &exact_config(60.0), &hint, &SearchControl::new());
        assert_eq!(out.deployment[0], 0);
        assert_eq!(out.deployment[3], 5);
        assert!(out.proven_optimal);
        let opt = brute_force_fixed(&p, Objective::LongestPath, &fixed);
        assert!((out.cost - opt).abs() < 1e-6, "mip {} opt {opt}", out.cost);
    }

    #[test]
    fn pin_violating_warm_start_is_rejected() {
        // Even with zero budget (bootstrap result returned as-is), an
        // initial that moves a pinned node must not become the incumbent.
        let p = NodeDeployment::new(3, vec![(0, 1), (1, 2)], random_costs(5, 17));
        let fixed = vec![Some(4u32), None, None];
        let bad_initial = vec![0u32, 1, 2]; // node 0 off its pin
        let config = MipConfig { budget: Budget::seconds(0.0), quantum: 0.0, ..Default::default() };
        let hint = SolveHint::Incremental { incumbent: bad_initial, fixed };
        let out = solve_llndp_mip_with(&p, &config, &hint, &SearchControl::new());
        assert_eq!(out.deployment[0], 4, "pinned node moved via the warm-start path");
    }

    #[test]
    fn warm_start_initial_is_kept_when_unbeatable() {
        // Zero-budget run: the bootstrap's best (which includes the
        // supplied optimal initial) is returned unchanged.
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], random_costs(5, 9));
        let full = solve_llndp_mip(&p, &exact_config(30.0));
        assert!(full.proven_optimal);
        let warm = MipConfig { budget: Budget::seconds(0.0), quantum: 0.0, ..Default::default() };
        let hint = SolveHint::warm(full.deployment.clone());
        let out = solve_llndp_mip_with(&p, &warm, &hint, &SearchControl::new());
        assert_eq!(out.cost, full.cost);
    }

    #[test]
    fn clustering_supported_for_llndp() {
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], random_costs(6, 6));
        let out = solve_llndp_mip(
            &p,
            &MipConfig { clusters: Some(5), budget: Budget::seconds(10.0), ..Default::default() },
        );
        assert!(p.is_valid(&out.deployment));
    }

    use std::time::Instant;
}

//! Greedy algorithms G1 and G2 for LLNDP (paper §4.3.2, Algorithms 1–2).
//!
//! Both grow a partial deployment from the cheapest instance link:
//!
//! * **G1** repeatedly picks the cheapest link `(u, v)` such that `u` is
//!   already used by a node with unmatched neighbors and `v` is free, then
//!   maps one unmatched neighbor onto `v`. It ignores the *implicit* links
//!   this creates between `v` and other already-placed neighbors — which
//!   the paper measures to be 31.6 % more expensive than the worst link CP
//!   picks.
//! * **G2** fixes that: a candidate `(u, v, w)` is costed by the maximum of
//!   the explicit link cost and all implicit links between `v` and the
//!   already-placed neighbors of `w`, and the minimum such candidate wins.
//!
//! Both treat communication edges as undirected when growing (a link is a
//! link), exactly as the pseudo-code's `unmatched neighbors` notion does.
//! Disconnected communication graphs are handled by restarting the growth
//! on each remaining component (the paper's graphs are all connected).

use std::time::Instant;

use crate::outcome::SolveOutcome;
use crate::problem::NodeDeployment;

/// Which greedy variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GreedyVariant {
    /// Algorithm 1: lowest explicit link cost.
    G1,
    /// Algorithm 2: lowest max over explicit and implicit links.
    G2,
}

/// Runs a greedy algorithm on the problem, returning the deployment and
/// its longest-link cost (greedy always optimizes longest link; the paper
/// reuses the result as a heuristic for longest path too, §4.5.2).
pub fn solve_greedy(problem: &NodeDeployment, variant: GreedyVariant) -> SolveOutcome {
    solve_greedy_fixed(problem, variant, &vec![None; problem.num_nodes])
}

/// Like [`solve_greedy`], but honouring per-node fixed assignments:
/// pinned nodes are pre-placed and the greedy growth only maps the free
/// nodes around them — the greedy worker of an incremental re-solve, where
/// all but a budgeted set of nodes stay put.
///
/// # Panics
/// Panics if `fixed` has the wrong length or pins two nodes to one
/// instance.
pub fn solve_greedy_fixed(
    problem: &NodeDeployment,
    variant: GreedyVariant,
    fixed: &[Option<u32>],
) -> SolveOutcome {
    let start = Instant::now();
    let n = problem.num_nodes;
    let m = problem.num_instances();
    assert_eq!(fixed.len(), n, "fixed assignments must cover every node");
    let adj = problem.undirected_adj();

    // node -> instance, instance -> node; pinned nodes start placed.
    let mut d: Vec<Option<u32>> = fixed.to_vec();
    let mut d_inv: Vec<Option<u32>> = vec![None; m];
    for (v, &f) in fixed.iter().enumerate() {
        if let Some(j) = f {
            assert!(d_inv[j as usize].is_none(), "instance {j} pinned by two nodes");
            d_inv[j as usize] = Some(v as u32);
        }
    }

    let mut placed = fixed.iter().filter(|f| f.is_some()).count();
    while placed < n {
        if placed == 0 || frontier_exhausted(&d, &adj) {
            // Seed (or re-seed for a disconnected component): cheapest free
            // instance pair, arbitrary unplaced edge (or lone node).
            seed(problem, &adj, &mut d, &mut d_inv, &mut placed);
            continue;
        }

        // One growth step.
        let step = match variant {
            GreedyVariant::G1 => grow_g1(problem, &adj, &d, &d_inv),
            GreedyVariant::G2 => grow_g2(problem, &adj, &d, &d_inv),
        };
        let (w, v) = step.expect("frontier non-empty implies a growth candidate");
        d[w] = Some(v as u32);
        d_inv[v] = Some(w as u32);
        placed += 1;
    }

    let deployment: Vec<u32> = d.into_iter().map(|x| x.expect("all nodes placed")).collect();
    debug_assert!(problem.is_valid(&deployment));
    let cost = problem.longest_link(&deployment);
    SolveOutcome::heuristic(deployment, cost, start.elapsed().as_secs_f64(), n as u64)
}

/// True if no placed node has an unplaced neighbor (growth cannot proceed).
fn frontier_exhausted(d: &[Option<u32>], adj: &[Vec<usize>]) -> bool {
    !d.iter().enumerate().any(|(v, x)| x.is_some() && adj[v].iter().any(|&w| d[w].is_none()))
}

/// Places the first edge (or a lone node) of an untouched component on the
/// cheapest free instance pair (Algorithm 1, lines 1–3).
fn seed(
    problem: &NodeDeployment,
    adj: &[Vec<usize>],
    d: &mut [Option<u32>],
    d_inv: &mut [Option<u32>],
    placed: &mut usize,
) {
    let m = problem.num_instances();
    // An unplaced edge of an untouched component, if any.
    let edge =
        problem.edges.iter().find(|&&(a, b)| d[a as usize].is_none() && d[b as usize].is_none());
    match edge {
        Some(&(x, y)) => {
            // Cheapest pair of free instances (the first free pair when
            // every one costs +∞).
            let mut best: Option<(f64, usize, usize)> = None;
            for u in 0..m {
                if d_inv[u].is_some() {
                    continue;
                }
                for v in 0..m {
                    if u == v || d_inv[v].is_some() {
                        continue;
                    }
                    let c = problem.costs.get(u, v);
                    if best.is_none_or(|(b, _, _)| c < b) {
                        best = Some((c, u, v));
                    }
                }
            }
            let (_, u0, v0) = best.expect("two free instances for an unplaced edge");
            d[x as usize] = Some(u0 as u32);
            d_inv[u0] = Some(x);
            d[y as usize] = Some(v0 as u32);
            d_inv[v0] = Some(y);
            *placed += 2;
        }
        None => {
            // Remaining nodes are isolated (or only connect to placed
            // nodes' components via... nothing). Place one on any free
            // instance.
            let v = (0..problem.num_nodes).find(|&v| d[v].is_none()).expect("unplaced node exists");
            debug_assert!(adj[v].iter().all(|&w| d[w].is_some()) || adj[v].is_empty());
            let u = (0..m).find(|&u| d_inv[u].is_none()).expect("free instance exists");
            d[v] = Some(u as u32);
            d_inv[u] = Some(v as u32);
            *placed += 1;
        }
    }
}

/// Algorithm 1 growth step: cheapest `(u, v)` with `u` mapped (and its node
/// still having unmatched neighbors) and `v` free. Returns `(node, instance)`.
fn grow_g1(
    problem: &NodeDeployment,
    adj: &[Vec<usize>],
    d: &[Option<u32>],
    d_inv: &[Option<u32>],
) -> Option<(usize, usize)> {
    let m = problem.num_instances();
    let mut best: Option<(f64, usize, usize)> = None;
    for u in 0..m {
        let Some(node_u) = d_inv[u] else { continue };
        // First unmatched neighbor of D^{-1}(u), if any.
        let Some(&w) = adj[node_u as usize].iter().find(|&&w| d[w].is_none()) else { continue };
        for v in 0..m {
            if u == v || d_inv[v].is_some() {
                continue;
            }
            let c = problem.costs.get(u, v);
            if best.is_none_or(|(bc, _, _)| c < bc) {
                best = Some((c, w, v));
            }
        }
    }
    best.map(|(_, w, v)| (w, v))
}

/// Algorithm 2 growth step: candidate `(u, v)` extended with the implicit
/// links between `v` and the placed neighbors of the candidate node `w`.
fn grow_g2(
    problem: &NodeDeployment,
    adj: &[Vec<usize>],
    d: &[Option<u32>],
    d_inv: &[Option<u32>],
) -> Option<(usize, usize)> {
    let m = problem.num_instances();
    let mut best: Option<(f64, usize, usize)> = None;
    for u in 0..m {
        let Some(node_u) = d_inv[u] else { continue };
        for v in 0..m {
            if u == v || d_inv[v].is_some() {
                continue;
            }
            // Each unmatched neighbor w of D^{-1}(u) is a candidate node
            // for v (Algorithm 2, lines 7–18).
            for &w in adj[node_u as usize].iter().filter(|&&w| d[w].is_none()) {
                let mut cuv = problem.costs.get(u, v);
                for &x in &adj[w] {
                    if let Some(xi) = d[x] {
                        // Implicit links between v and the placed neighbor,
                        // both directions (communication is a round trip).
                        let c1 = problem.costs.get(v, xi as usize);
                        let c2 = problem.costs.get(xi as usize, v);
                        cuv = cuv.max(c1).max(c2);
                    }
                }
                if best.is_none_or(|(bc, _, _)| cuv < bc) {
                    best = Some((cuv, w, v));
                }
            }
        }
    }
    best.map(|(_, w, v)| (w, v))
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

    #[test]
    fn g1_produces_valid_deployment() {
        let p = random_problem(6, 9, path_edges(6), 1);
        let out = solve_greedy(&p, GreedyVariant::G1);
        assert!(p.is_valid(&out.deployment));
        assert_eq!(out.cost, p.longest_link(&out.deployment));
    }

    #[test]
    fn g2_produces_valid_deployment() {
        let p = random_problem(6, 9, path_edges(6), 2);
        let out = solve_greedy(&p, GreedyVariant::G2);
        assert!(p.is_valid(&out.deployment));
    }

    #[test]
    fn g2_not_worse_than_g1_on_average() {
        // The paper's Fig. 14: G2 improves G1 significantly on average.
        let mut g1_total = 0.0;
        let mut g2_total = 0.0;
        for seed in 0..30 {
            let p = random_problem(12, 16, grid_edges(3, 4), seed);
            g1_total += solve_greedy(&p, GreedyVariant::G1).cost;
            g2_total += solve_greedy(&p, GreedyVariant::G2).cost;
        }
        assert!(g2_total < g1_total, "G2 ({g2_total}) should beat G1 ({g1_total}) on average");
    }

    fn grid_edges(rows: u32, cols: u32) -> Vec<(u32, u32)> {
        let mut e = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                let v = r * cols + c;
                if c + 1 < cols {
                    e.push((v, v + 1));
                }
                if r + 1 < rows {
                    e.push((v, v + cols));
                }
            }
        }
        e
    }

    #[test]
    fn greedy_beats_worst_case_on_tiny_instance() {
        // Two nodes, one edge: greedy must pick the globally cheapest pair.
        let costs = Costs::from_flat(3, vec![0.0, 5.0, 1.0, 5.0, 0.0, 9.0, 2.0, 9.0, 0.0]);
        let p = NodeDeployment::new(2, vec![(0, 1)], costs);
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            let out = solve_greedy(&p, variant);
            assert_eq!(out.cost, 1.0, "{variant:?} should place the edge on the cheapest link");
        }
    }

    #[test]
    fn handles_single_node_no_edges() {
        let p = random_problem(1, 3, vec![], 3);
        let out = solve_greedy(&p, GreedyVariant::G1);
        assert!(p.is_valid(&out.deployment));
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn handles_disconnected_graph() {
        // Two separate edges: 0-1 and 2-3.
        let p = random_problem(4, 8, vec![(0, 1), (2, 3)], 4);
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            let out = solve_greedy(&p, variant);
            assert!(p.is_valid(&out.deployment), "{variant:?}");
        }
    }

    #[test]
    fn handles_isolated_nodes() {
        // Node 2 has no edges at all.
        let p = random_problem(3, 5, vec![(0, 1)], 5);
        let out = solve_greedy(&p, GreedyVariant::G2);
        assert!(p.is_valid(&out.deployment));
    }

    #[test]
    fn fixed_nodes_stay_put() {
        let p = random_problem(6, 9, path_edges(6), 7);
        let fixed = vec![None, Some(5u32), None, Some(2u32), None, None];
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            let out = solve_greedy_fixed(&p, variant, &fixed);
            assert!(p.is_valid(&out.deployment), "{variant:?}");
            assert_eq!(out.deployment[1], 5, "{variant:?}");
            assert_eq!(out.deployment[3], 2, "{variant:?}");
        }
    }

    #[test]
    fn all_fixed_returns_the_pinned_plan() {
        let p = random_problem(3, 5, path_edges(3), 8);
        let out = solve_greedy_fixed(&p, GreedyVariant::G2, &[Some(4), Some(0), Some(2)]);
        assert_eq!(out.deployment, vec![4, 0, 2]);
        assert_eq!(out.cost, p.longest_link(&out.deployment));
    }

    #[test]
    fn unfixed_call_matches_solve_greedy() {
        let p = random_problem(8, 12, grid_edges(2, 4), 9);
        for variant in [GreedyVariant::G1, GreedyVariant::G2] {
            let plain = solve_greedy(&p, variant);
            let fixed = solve_greedy_fixed(&p, variant, &[None; 8]);
            assert_eq!(plain.deployment, fixed.deployment, "{variant:?}");
        }
    }

    #[test]
    fn g2_avoids_expensive_implicit_link() {
        // Triangle graph on 3 nodes; instance layout engineered so that
        // G1's cheapest-edge choice creates a terrible implicit link while
        // G2 sidesteps it.
        //
        // Instances: 0-1 cheap (0.1), 0-2 cheap (0.2), 1-2 horrible (9.0),
        //            0-3 ok (0.4), 1-3 ok (0.45), 2-3 ok (0.5).
        let mut b = Costs::builder(4);
        let set = |b: &mut crate::problem::CostBuilder, x: usize, y: usize, c: f64| {
            b.set(x, y, c);
            b.set(y, x, c);
        };
        set(&mut b, 0, 1, 0.1);
        set(&mut b, 0, 2, 0.2);
        set(&mut b, 1, 2, 9.0);
        set(&mut b, 0, 3, 0.4);
        set(&mut b, 1, 3, 0.45);
        set(&mut b, 2, 3, 0.5);
        let p = NodeDeployment::new(3, vec![(0, 1), (1, 2), (2, 0)], b.freeze().unwrap());
        let g1 = solve_greedy(&p, GreedyVariant::G1);
        let g2 = solve_greedy(&p, GreedyVariant::G2);
        // G1 greedily takes 0-1 then 0-2, implicitly adding the 9.0 link
        // 1-2. G2 must avoid cost 9.0.
        assert_eq!(g1.cost, 9.0);
        assert!(g2.cost < 1.0, "G2 cost {}", g2.cost);
    }
}

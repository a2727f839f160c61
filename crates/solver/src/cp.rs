//! Constraint-programming search for LLNDP (paper §4.2).
//!
//! The key insight: a deployment with longest link ≤ c exists **iff** the
//! "good-links" graph `G_c = (S, {(j,j') : C_L(j,j') ≤ c})` contains a
//! subgraph isomorphic to the communication graph. The solver therefore
//! iterates decreasing cost thresholds, solving one subgraph-isomorphism
//! *satisfaction* problem per distinct cost value; the number of iterations
//! is bounded by the number of distinct values, which is why rounding costs
//! to k cluster means (see [`crate::cluster`]) speeds convergence (paper
//! Fig. 6).
//!
//! The embedded SIP search is a backtracking constraint solver:
//!
//! * domains are bitsets of candidate instances per application node;
//! * injectivity (`alldifferent`) is forward checking: an assigned
//!   instance leaves every other domain;
//! * adjacency is enforced by intersecting neighbor domains with the
//!   assigned instance's allowed-row bitsets;
//! * domains are pre-filtered by degree compatibility — a node with d
//!   distinct out-neighbours can only map to an instance with ≥ d
//!   outgoing good links, and likewise inwards (the degree-labeling idea
//!   of Zampelli et al. cited by the paper);
//! * variable order is dynamic most-constrained-first (smallest domain,
//!   ties broken by higher pattern degree, then lower node id); values are
//!   tried by descending good-degree, ties by ascending instance id.
//!
//! ## Propagation stores
//!
//! Two interchangeable propagation backends explore the *identical* search
//! tree — the same variables, the same values in the same order, the same
//! wipeouts and node count:
//!
//! * [`Propagation::Trail`] (default) keeps one flat domain array and a
//!   `taken` bitset of assigned instances. `alldifferent` is lazy: the
//!   live domain of an unassigned node is `domain & !taken`, so assigning
//!   an instance sets one bit where the oracle below clears it from
//!   n − 1 domains, and the undo trail records only the words adjacency
//!   intersections overwrite. The MRV pick prices only the *frontier*
//!   (unassigned nodes with an assigned pattern neighbour) and one node
//!   per class: a node with no assigned neighbour has had no adjacency
//!   row intersected into it, so its live domain is its initial domain
//!   `& !taken`, and grouping nodes once per SIP call by (initial domain,
//!   pattern degree) makes every such *fresh* node of a class tie with
//!   the class's lowest fresh id. A node costs O(degree · words)
//!   propagation plus an O((frontier + classes) · words) pick, with zero
//!   allocation:
//!   - propagation walks each *distinct* pattern neighbour once. One
//!     linked both ways takes one intersection with the rank's fused
//!     `row_out & row_in` row, built once per SIP call, so a bidirectional
//!     mesh costs one row per neighbour, not two; `enter`/`leave` update
//!     each neighbour's assigned count once;
//!   - the pick is a running minimum of one `u64` key per candidate,
//!     `live size << size_shift | (max_degree − degree) << id_bits | id`:
//!     `id_bits` holds `n`, the degree field holds the pattern's largest
//!     degree and the size field `m`, and the node's low half (its
//!     `Pattern` tie) is built once per solve. On a mesh a pick prices
//!     the frontier and the mesh's three degree classes;
//!   - every per-word loop of a node — the pick's popcounts, the value
//!     walk, the row intersections — runs over a word count fixed per SIP
//!     call: the search is instantiated for 1 to 5 words (m ≤ 320) and
//!     reads the width at run time above that;
//! * [`Propagation::CloneDomains`] clones every domain bitset at every
//!   branch and removes assigned instances eagerly (the original
//!   implementation, kept for the ablation benchmark and as a
//!   differential-testing oracle).
//!
//! Both search in *rank space*: each SIP call renames instance `j` to its
//! rank in the value order, so trying values in order is walking a
//! domain's set bits upwards. Candidate lists and pins are mapped in, the
//! satisfying assignment is mapped back out.
//!
//! ## Cooperation
//!
//! [`solve_llndp_cp_with`] accepts a [`SearchControl`]: the solver adopts a
//! better external incumbent between threshold iterations (cross-thread
//! bound injection), publishes its own improvements, and polls for
//! cancellation inside the search hot loop — the hooks the parallel
//! [`crate::portfolio`] runtime is built on.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::time::Instant;

use rand::{rngs::StdRng, SeedableRng};

use crate::cluster::search_costs;
use crate::control::SearchControl;
use crate::outcome::{Budget, SolveHint, SolveOutcome};
use crate::problem::NodeDeployment;

/// Which propagation backend the SIP search uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Propagation {
    /// In-place domains with an undo trail (fast path, default).
    #[default]
    Trail,
    /// Copy-domains-per-node (the original implementation; ~O(n·m/64)
    /// allocation per node, kept for ablation and differential testing).
    CloneDomains,
}

/// Random deployments drawn to bootstrap a cold CP or MIP search (paper
/// §6.3: "randomly generate 10 node deployment plans and pick the best").
pub(crate) const BOOTSTRAP_SAMPLES: usize = 10;

/// Configuration of the CP driver. What one solve starts from — warm
/// start, pins, candidate domains — is an argument of
/// [`solve_llndp_cp_with`], not configuration.
#[derive(Debug, Clone, Copy)]
pub struct CpConfig {
    /// Wall-clock/node budget for the whole threshold iteration.
    pub budget: Budget,
    /// Number of cost clusters (`None` = solve on raw costs).
    pub clusters: Option<usize>,
    /// Quantum for pre-rounding distinct costs (paper: 0.01 ms).
    pub quantum: f64,
    /// Seed for the bootstrap random deployments.
    pub seed: u64,
    /// Enable degree-compatibility domain pre-filtering (the Zampelli-style
    /// labeling). On by default; exposed for the ablation benchmark.
    pub degree_filter: bool,
    /// Propagation backend (trail-based by default).
    pub propagation: Propagation,
}

impl Default for CpConfig {
    fn default() -> Self {
        Self {
            budget: Budget::seconds(10.0),
            clusters: Some(20),
            quantum: 0.01,
            seed: 0,
            degree_filter: true,
            propagation: Propagation::Trail,
        }
    }
}

/// Result of one SIP satisfaction call.
enum Sip {
    Sat(Vec<u32>),
    Unsat,
    Timeout,
}

/// Solves the Longest Link Node Deployment Problem with the iterated-SIP
/// CP approach, from a cold start.
pub fn solve_llndp_cp(problem: &NodeDeployment, config: &CpConfig) -> SolveOutcome {
    solve_llndp_cp_with(problem, config, &SolveHint::Cold, None, &SearchControl::new())
}

/// Like [`solve_llndp_cp`], with the solve's own inputs:
///
/// * `hint`: an incremental hint's incumbent replaces the random
///   bootstrap, and its pins collapse each pinned node's domain to its
///   instance — the incremental-repair mode, where all but a budgeted set
///   of nodes stay put. An UNSAT proof under pins proves optimality
///   *within the repair neighbourhood*, not globally;
/// * `candidates`: per-node candidate instance lists (see
///   [`crate::candidates`]) seed node `v`'s initial domain from
///   `candidates[v]` instead of the full `0..m` range, so the SIP search
///   never touches non-candidate instances. An UNSAT proof under
///   candidate domains proves optimality *within the candidate sets*, not
///   globally — the pruning driver escalates accordingly;
/// * `control`: the solver adopts a better shared incumbent between
///   threshold iterations, publishes its own improvements, and stops early
///   when cancelled.
pub fn solve_llndp_cp_with(
    problem: &NodeDeployment,
    config: &CpConfig,
    hint: &SolveHint,
    candidates: Option<&[Vec<u32>]>,
    control: &SearchControl,
) -> SolveOutcome {
    let start = Instant::now();
    let deadline = config.budget.time_limit_s;
    // Inert unless telemetry is on: the solve's wall time, with its node
    // count, SIP calls and proof, so a trace reads nodes per second.
    let mut span = cloudia_obs::span!("solver.cp");

    let (costs, thresholds) = search_costs(&problem.costs, config.clusters, config.quantum);
    let search_problem = NodeDeployment::new(problem.num_nodes, problem.edges.clone(), costs);

    let fixed = hint.pins();
    if let (Some(f), Some(init)) = (fixed, hint.incumbent()) {
        debug_assert!(respects_fixed(init, f), "initial deployment violates fixed assignments");
    }
    if let Some(c) = candidates {
        assert_eq!(c.len(), problem.num_nodes, "candidate lists must cover every node");
        let m = problem.num_instances();
        for (v, list) in c.iter().enumerate() {
            assert!(
                list.iter().all(|&j| (j as usize) < m),
                "node {v} has a candidate instance out of range for {m} instances"
            );
        }
    }

    // The warm start, or the best of the bootstrap samples.
    let mut incumbent: Vec<u32> = match hint.incumbent() {
        Some(init) => init.to_vec(),
        None => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            (0..BOOTSTRAP_SAMPLES)
                .map(|_| {
                    let d = problem.random_deployment(&mut rng);
                    (search_problem.longest_link(&d), d)
                })
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("BOOTSTRAP_SAMPLES >= 1")
                .1
        }
    };
    let mut incumbent_search_cost = search_problem.longest_link(&incumbent);
    // The *returned* solution is tracked by original cost separately from
    // the search incumbent: under cost rounding, an adopted or newly found
    // deployment can have a lower rounded cost but a higher original cost,
    // and the solver must never return worse than the best it ever held.
    let mut result = incumbent.clone();
    let mut result_cost = problem.longest_link(&incumbent);
    let mut curve = vec![(start.elapsed().as_secs_f64(), result_cost)];
    control.offer(&result, result_cost);

    // Distinct finite search-cost values, ascending: a +∞ (dark) link is
    // never a threshold worth proving. Clustering already knows them.
    let distinct = thresholds.unwrap_or_else(|| {
        let mut distinct = search_problem.costs.off_diagonal();
        distinct.retain(|c| c.is_finite());
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        distinct
    });

    let mut explored = 0u64;
    let mut proven_optimal = problem.edges.is_empty();
    let pattern = Pattern::new(problem);
    // `(iterations, nodes)` of the SIP calls ending SAT, UNSAT and timeout.
    let mut outcomes = [(0u64, 0u64); 3];

    loop {
        // Cross-thread incumbent injection: adopt a better shared
        // deployment (compared on the rounded search costs) before picking
        // the next threshold. The lock-free bound read rejects the common
        // no-news case before touching the control's mutex.
        if control.bound() < result_cost {
            if let Some((d, _)) = control.best() {
                // Under fixings, a foreign deployment that moves a pinned
                // node must not tighten the threshold: its cost may be
                // unreachable inside the repair neighbourhood.
                if d != incumbent
                    && problem.is_valid(&d)
                    && fixed.is_none_or(|f| respects_fixed(&d, f))
                {
                    let c = search_problem.longest_link(&d);
                    let orig = problem.longest_link(&d);
                    // Tighten the threshold bound; `incumbent` itself is
                    // only rewritten on a SAT result, which is the sole
                    // path that continues the loop.
                    incumbent_search_cost = incumbent_search_cost.min(c);
                    if orig < result_cost {
                        result = d;
                        result_cost = orig;
                        curve.push((start.elapsed().as_secs_f64(), orig));
                    }
                }
            }
        }
        if control.is_cancelled() {
            break;
        }

        // Next threshold: largest distinct value strictly below the
        // incumbent's cost.
        let idx = distinct.partition_point(|&v| v < incumbent_search_cost);
        if idx == 0 {
            // Nothing below: incumbent is optimal under the rounded costs.
            proven_optimal = true;
            break;
        }
        let threshold = distinct[idx - 1];

        let remaining = deadline - start.elapsed().as_secs_f64();
        if remaining <= 0.0 || explored >= config.budget.node_limit {
            break;
        }

        let mut sip = SipSearch::new(&search_problem, &pattern, threshold);
        let sip_result = sip.solve(
            config.propagation,
            config.degree_filter,
            fixed,
            candidates,
            start,
            deadline,
            config.budget.node_limit - explored,
            control,
        );
        explored += sip.nodes;
        let tally = &mut outcomes[match sip_result {
            Sip::Sat(_) => 0,
            Sip::Unsat => 1,
            Sip::Timeout => 2,
        }];
        *tally = (tally.0 + 1, tally.1 + sip.nodes);
        match sip_result {
            Sip::Sat(d) => {
                incumbent_search_cost = search_problem.longest_link(&d);
                debug_assert!(incumbent_search_cost <= threshold + 1e-12);
                incumbent = d;
                let orig = problem.longest_link(&incumbent);
                if orig < result_cost {
                    result = incumbent.clone();
                    result_cost = orig;
                    curve.push((start.elapsed().as_secs_f64(), orig));
                    control.offer(&result, orig);
                }
            }
            Sip::Unsat => {
                proven_optimal = true;
                break;
            }
            Sip::Timeout => break,
        }
    }

    if cloudia_obs::enabled() {
        let [(sat, sat_nodes), (unsat, unsat_nodes), (timeout, timeout_nodes)] = outcomes;
        span.attr("explored", explored);
        span.attr("sip_calls", sat + unsat + timeout);
        span.attr("proven", u32::from(proven_optimal));
        cloudia_obs::counters(&[
            ("solver.cp.sat_iterations", sat),
            ("solver.cp.sat_nodes", sat_nodes),
            ("solver.cp.unsat_iterations", unsat),
            ("solver.cp.unsat_nodes", unsat_nodes),
            ("solver.cp.timeout_iterations", timeout),
            ("solver.cp.timeout_nodes", timeout_nodes),
        ]);
    }
    control.offer(&result, result_cost);
    SolveOutcome { deployment: result, cost: result_cost, curve, proven_optimal, explored }
}

/// The pattern side of every SIP call of one solve: the communication
/// graph's adjacency, each node's degree (the MRV tie-break) and the low
/// half of its pick key. Only the good-link rows depend on the threshold,
/// so this is built once.
struct Pattern {
    /// Arcs with multiplicity, as the edge list gives them: the
    /// copy-domains oracle walks these.
    out_adj: Vec<Vec<usize>>,
    in_adj: Vec<Vec<usize>>,
    degree: Vec<usize>,
    /// Node `v`'s distinct neighbours are `adj[span[v][0]..span[v][3]]`:
    /// the ones it links to both ways, up to `span[v][1]`, then out-only,
    /// up to `span[v][2]`, then in-only. The trail backend walks these.
    adj: Vec<u32>,
    span: Vec<[u32; 4]>,
    /// `tie[v] = (max_degree − degree[v]) << id_bits | v`: below a live
    /// size shifted up by `size_shift`, it orders nodes as
    /// [`SipSearch::pick_var`] does; `id_mask` reads `v` back.
    tie: Vec<u64>,
    size_shift: u32,
    id_mask: u64,
}

impl Pattern {
    fn new(problem: &NodeDeployment) -> Self {
        let n = problem.num_nodes;
        let mut out_adj = vec![Vec::new(); n];
        let mut in_adj = vec![Vec::new(); n];
        for &(a, b) in &problem.edges {
            out_adj[a as usize].push(b as usize);
            in_adj[b as usize].push(a as usize);
        }
        let degree: Vec<usize> = (0..n).map(|v| out_adj[v].len() + in_adj[v].len()).collect();

        let distinct = |list: &[usize]| {
            let mut list = list.to_vec();
            list.sort_unstable();
            list.dedup();
            list
        };
        let (mut adj, mut span) = (Vec::new(), Vec::with_capacity(n));
        for v in 0..n {
            let (out, into) = (distinct(&out_adj[v]), distinct(&in_adj[v]));
            let start = adj.len() as u32;
            adj.extend(out.iter().filter(|u| into.binary_search(u).is_ok()).map(|&u| u as u32));
            let both = adj.len() as u32;
            adj.extend(out.iter().filter(|u| into.binary_search(u).is_err()).map(|&u| u as u32));
            let out_only = adj.len() as u32;
            adj.extend(into.iter().filter(|u| out.binary_search(u).is_err()).map(|&u| u as u32));
            span.push([start, both, out_only, adj.len() as u32]);
        }

        let bits = |x: usize| usize::BITS - x.leading_zeros();
        let max_degree = degree.iter().copied().max().unwrap_or(0);
        let id_bits = bits(n);
        // A key's live size is at most m; below 2^63, no key is the
        // pick's `u64::MAX` "none".
        let key_bits = bits(problem.num_instances()) + bits(max_degree) + id_bits;
        assert!(key_bits < 64, "a {key_bits}-bit pick key does not fit a u64");
        let tie =
            (0..n).map(|v| (((max_degree - degree[v]) as u64) << id_bits) | v as u64).collect();
        Self {
            out_adj,
            in_adj,
            degree,
            adj,
            span,
            tie,
            size_shift: id_bits + bits(max_degree),
            id_mask: (1 << id_bits) - 1,
        }
    }

    /// `v`'s distinct pattern neighbours.
    #[inline]
    fn neighbours(&self, v: usize) -> &[u32] {
        let [start, _, _, end] = self.span[v];
        &self.adj[start as usize..end as usize]
    }

    /// What the degree filter asks of `v`'s instance: as many good out-
    /// and in-links as `v` has distinct out- and in-neighbours.
    fn needs(&self, v: usize) -> [u32; 2] {
        let [start, both, out, end] = self.span[v];
        [out - start, both - start + end - out]
    }

    /// `v`'s distinct neighbours split by direction: linked both ways,
    /// out-only, in-only.
    #[inline]
    fn sides(&self, v: usize) -> [&[u32]; 3] {
        let [start, both, out, end] = self.span[v].map(|i| i as usize);
        [&self.adj[start..both], &self.adj[both..out], &self.adj[out..end]]
    }
}

/// One subgraph-isomorphism satisfaction search at a fixed threshold, in
/// rank space: instance `instance[r]` is called `r`.
struct SipSearch<'p> {
    n: usize,
    m: usize,
    words: usize,
    pattern: &'p Pattern,
    /// `row_out[r]`: bitset of ranks reachable from rank r via good links;
    /// `row_in[r]`: of ranks reaching it; `row_both[r]`: their
    /// intersection, what a neighbour linked both ways may take.
    row_out: Vec<Vec<u64>>,
    row_in: Vec<Vec<u64>>,
    row_both: Vec<Vec<u64>>,
    /// `good[r]`: rank `r`'s good out- and in-degree.
    good: Vec<[u32; 2]>,
    /// The value order: `instance[r]` is the instance of rank `r`
    /// (descending good-degree, ties by ascending id); `rank` inverts it.
    instance: Vec<u32>,
    rank: Vec<u32>,
    nodes: u64,
}

/// Mutable search state of the trail-based backend: one flat domain array,
/// the `taken` bitset of assigned ranks (the lazy `alldifferent`: the live
/// domain of unassigned node `v` is `domains[v] & !taken`), and the undo
/// trail. A trail entry is `(slot, old_word)` where
/// `slot = var * words + word_index`; undoing restores absolute values in
/// reverse order, so repeated writes to one slot round-trip correctly.
///
/// It also files every unassigned node for the MRV pick.
/// `assigned_nbrs[v]` counts `v`'s assigned distinct pattern neighbours;
/// a node with a positive count is in `frontier`, one with none is
/// *fresh* and is in its class's `fresh` set. No adjacency row has been intersected
/// into a fresh node, so its live domain is its class's initial domain
/// `& !taken`.
struct TrailState {
    words: usize,
    domains: Vec<u64>,
    taken: Vec<u64>,
    trail: Vec<(u32, u64)>,
    assignment: Vec<Option<u32>>,
    assigned_nbrs: Vec<u32>,
    /// Node bitsets, `node_words` words each.
    node_words: usize,
    frontier: Vec<u64>,
    /// Node `v`'s class of equal (initial domain, pattern degree); class
    /// `c`'s initial domain (`words` words at `c * words`) and its fresh
    /// nodes (`node_words` words at `c * node_words`).
    class_of: Vec<u32>,
    class_domain: Vec<u64>,
    fresh: Vec<u64>,
}

impl TrailState {
    /// The search's start: nothing assigned, every node fresh in its class.
    fn new(domains: &[Vec<u64>], pattern: &Pattern, words: usize) -> Self {
        let n = domains.len();
        let node_words = n.div_ceil(64);
        let mut classes: HashMap<(&[u64], usize), u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(n);
        let (mut class_domain, mut fresh) = (Vec::new(), Vec::new());
        for (v, dom) in domains.iter().enumerate() {
            let c = *classes.entry((dom, pattern.degree[v])).or_insert_with(|| {
                class_domain.extend_from_slice(dom);
                fresh.resize(fresh.len() + node_words, 0);
                (fresh.len() / node_words - 1) as u32
            });
            class_of.push(c);
            fresh[c as usize * node_words + v / 64] |= 1u64 << (v % 64);
        }
        Self {
            words,
            domains: domains.concat(),
            taken: vec![0; words],
            trail: Vec::with_capacity(4 * n * words),
            assignment: vec![None; n],
            assigned_nbrs: vec![0; n],
            node_words,
            frontier: vec![0; node_words],
            class_of,
            class_domain,
            fresh,
        }
    }

    /// The domain width in words: `W` in a search instantiated for it (see
    /// [`SipSearch::solve`]), `self.words` read at run time when `W == 0`.
    #[inline(always)]
    fn width<const W: usize>(&self) -> usize {
        if W == 0 {
            self.words
        } else {
            W
        }
    }

    /// Word `w` of node `v`'s live domain.
    #[inline]
    fn live<const W: usize>(&self, v: usize, w: usize) -> u64 {
        self.domains[v * self.width::<W>() + w] & !self.taken[w]
    }

    /// Live values in `domain`: the ones no assigned node holds.
    #[inline]
    fn masked_size<const W: usize>(&self, domain: &[u64]) -> u32 {
        let words = self.width::<W>();
        let (domain, taken) = (&domain[..words], &self.taken[..words]);
        domain.iter().zip(taken).map(|(d, t)| (d & !t).count_ones()).sum()
    }

    #[inline]
    fn live_size<const W: usize>(&self, v: usize) -> u32 {
        let words = self.width::<W>();
        self.masked_size::<W>(&self.domains[v * words..][..words])
    }

    /// The most-constrained unassigned node, in [`SipSearch::pick_var`]'s
    /// order — the least (live size, higher pattern degree, lower id) —
    /// over the frontier and, per class with a fresh node, its lowest
    /// fresh id at one masked popcount of the class domain. That order is
    /// one `u64` key, the live size above the node's [`Pattern::tie`], so
    /// the running minimum is one compare.
    fn pick<const W: usize>(&self, pattern: &Pattern) -> Option<usize> {
        let key = |size: u32, v: usize| (u64::from(size) << pattern.size_shift) | pattern.tie[v];
        let mut best = u64::MAX;
        for (w, &word) in self.frontier.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                best = best.min(key(self.live_size::<W>(v), v));
            }
        }
        let domains = self.class_domain.chunks_exact(self.width::<W>());
        for (fresh, domain) in self.fresh.chunks_exact(self.node_words).zip(domains) {
            let Some(w) = fresh.iter().position(|&word| word != 0) else {
                continue;
            };
            // Every fresh node of a class has the class's degree, so the
            // lowest one's tie is the class's.
            let v = w * 64 + fresh[w].trailing_zeros() as usize;
            best = best.min(key(self.masked_size::<W>(domain), v));
        }
        (best != u64::MAX).then_some((best & pattern.id_mask) as usize)
    }

    /// Moves unassigned node `u` between its class's fresh set and the
    /// frontier.
    #[inline]
    fn refile(&mut self, u: usize) {
        let (w, bit) = (u / 64, 1u64 << (u % 64));
        self.fresh[self.class_of[u] as usize * self.node_words + w] ^= bit;
        self.frontier[w] ^= bit;
    }

    /// Flips `v`'s bit in the set its neighbour count files it under.
    #[inline]
    fn toggle(&mut self, v: usize) {
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        if self.assigned_nbrs[v] > 0 {
            self.frontier[w] ^= bit;
        } else {
            self.fresh[self.class_of[v] as usize * self.node_words + w] ^= bit;
        }
    }

    /// Takes picked node `v` out of the pick for its subtree: each of its
    /// unassigned pattern neighbours gains an assigned neighbour, and
    /// joins the frontier on its first.
    fn enter(&mut self, pattern: &Pattern, v: usize) {
        self.toggle(v);
        for &u in pattern.neighbours(v) {
            let u = u as usize;
            self.assigned_nbrs[u] += 1;
            if self.assigned_nbrs[u] == 1 && self.assignment[u].is_none() {
                self.refile(u);
            }
        }
    }

    /// Undoes [`Self::enter`] once every value of `v` has failed.
    fn leave(&mut self, pattern: &Pattern, v: usize) {
        for &u in pattern.neighbours(v) {
            let u = u as usize;
            self.assigned_nbrs[u] -= 1;
            if self.assigned_nbrs[u] == 0 && self.assignment[u].is_none() {
                self.refile(u);
            }
        }
        self.toggle(v);
    }

    /// Rolls the domains back to a trail mark.
    fn undo(&mut self, mark: usize) {
        for (slot, old) in self.trail.drain(mark..).rev() {
            self.domains[slot as usize] = old;
        }
    }

    /// Intersects `u`'s domain with an adjacency row on the trail; `false`
    /// if no live value is left.
    #[inline]
    fn intersect_row<const W: usize>(&mut self, u: usize, row: &[u64]) -> bool {
        let words = self.width::<W>();
        let mut live = 0;
        for (w, &rw) in row[..words].iter().enumerate() {
            let slot = u * words + w;
            let cur = self.domains[slot];
            let next = cur & rw;
            if next != cur {
                self.trail.push((slot as u32, cur));
                self.domains[slot] = next;
            }
            live |= next & !self.taken[w];
        }
        live != 0
    }
}

impl<'p> SipSearch<'p> {
    fn new(problem: &NodeDeployment, pattern: &'p Pattern, threshold: f64) -> Self {
        let n = problem.num_nodes;
        let m = problem.num_instances();
        let words = m.div_ceil(64);

        // Good links are counted once in instance space for the value
        // order, then laid down as rank-space rows; both passes are
        // branch-free, as the first thresholds make half the links good.
        let good = |j: usize, jp: usize, c: f64| ((j != jp) & (c <= threshold)) as u32;
        let mut degree = vec![[0u32; 2]; m];
        for j in 0..m {
            let mut out = 0;
            for (jp, (&c, d)) in problem.costs.row(j).iter().zip(&mut degree).enumerate() {
                out += good(j, jp, c);
                d[1] += good(j, jp, c);
            }
            degree[j][0] = out;
        }
        let mut instance: Vec<u32> = (0..m as u32).collect();
        instance.sort_by_key(|&j| Reverse(degree[j as usize][0] + degree[j as usize][1]));
        let mut rank = vec![0u32; m];
        for (r, &j) in instance.iter().enumerate() {
            rank[j as usize] = r as u32;
        }
        let mut row_out = vec![vec![0u64; words]; m];
        let mut row_in = vec![vec![0u64; words]; m];
        for j in 0..m {
            let r = rank[j] as usize;
            for (jp, &c) in problem.costs.row(j).iter().enumerate() {
                let (rp, g) = (rank[jp] as usize, u64::from(good(j, jp, c)));
                row_out[r][rp / 64] |= g << (rp % 64);
                row_in[rp][r / 64] |= g << (r % 64);
            }
        }
        let row_both = (row_out.iter().zip(&row_in))
            .map(|(out, into)| out.iter().zip(into).map(|(o, i)| o & i).collect())
            .collect();
        let good = instance.iter().map(|&j| degree[j as usize]).collect();

        Self { n, m, words, pattern, row_out, row_in, row_both, good, instance, rank, nodes: 0 }
    }

    /// Initial rank-space domains, optionally restricted to per-node
    /// candidate lists and pre-filtered by degree compatibility; `None`
    /// means some variable has an empty domain (immediate UNSAT). Fixed
    /// assignments collapse their node's domain to a singleton (overriding
    /// both the candidate list and the degree filter — adjacency checks
    /// during search have the final word on feasibility).
    fn initial_domains(
        &self,
        degree_filter: bool,
        fixed: Option<&[Option<u32>]>,
        candidates: Option<&[Vec<u32>]>,
    ) -> Option<Vec<Vec<u64>>> {
        let mut domains = vec![vec![0u64; self.words]; self.n];
        for (v, dom) in domains.iter_mut().enumerate() {
            if let Some(j) = fixed.and_then(|f| f[v]) {
                let r = self.rank[j as usize] as usize;
                dom[r / 64] |= 1u64 << (r % 64);
                continue;
            }
            let [need_out, need_in] = self.pattern.needs(v);
            let mut admit = |r: usize| {
                let [out, into] = self.good[r];
                if !degree_filter || (out >= need_out && into >= need_in) {
                    dom[r / 64] |= 1u64 << (r % 64);
                }
            };
            match candidates {
                Some(lists) => lists[v].iter().for_each(|&j| admit(self.rank[j as usize] as usize)),
                None => (0..self.m).for_each(admit),
            }
            if bitset_count(dom) == 0 {
                return None;
            }
        }
        Some(domains)
    }

    #[allow(clippy::too_many_arguments)]
    fn solve(
        &mut self,
        propagation: Propagation,
        degree_filter: bool,
        fixed: Option<&[Option<u32>]>,
        candidates: Option<&[Vec<u32>]>,
        start: Instant,
        deadline_s: f64,
        node_limit: u64,
        control: &SearchControl,
    ) -> Sip {
        let Some(domains) = self.initial_domains(degree_filter, fixed, candidates) else {
            return Sip::Unsat;
        };
        let (found, assignment) = match propagation {
            Propagation::Trail => {
                // The search at a word count fixed per SIP call: every
                // per-word loop of a node unrolls for the widths up to
                // m = 320 and reads `words` at run time above.
                let st = &mut TrailState::new(&domains, self.pattern, self.words);
                let found = match self.words {
                    1 => self.search_trail::<1>(st, start, deadline_s, node_limit, control),
                    2 => self.search_trail::<2>(st, start, deadline_s, node_limit, control),
                    3 => self.search_trail::<3>(st, start, deadline_s, node_limit, control),
                    4 => self.search_trail::<4>(st, start, deadline_s, node_limit, control),
                    5 => self.search_trail::<5>(st, start, deadline_s, node_limit, control),
                    _ => self.search_trail::<0>(st, start, deadline_s, node_limit, control),
                };
                (found, std::mem::take(&mut st.assignment))
            }
            Propagation::CloneDomains => {
                let (mut domains, mut assignment) = (domains, vec![None; self.n]);
                let found = self.search_clone(
                    &mut domains,
                    &mut assignment,
                    start,
                    deadline_s,
                    node_limit,
                    control,
                );
                (found, assignment)
            }
        };
        match found {
            Some(true) => Sip::Sat(
                assignment
                    .into_iter()
                    .map(|r| self.instance[r.expect("complete assignment") as usize])
                    .collect(),
            ),
            Some(false) => Sip::Unsat,
            None => Sip::Timeout,
        }
    }

    /// Shared per-node bookkeeping: counts the node and polls the budget
    /// and the cancellation flag. Returns `false` if the search must stop.
    #[inline]
    fn enter_node(
        &mut self,
        start: Instant,
        deadline_s: f64,
        node_limit: u64,
        control: &SearchControl,
    ) -> bool {
        self.nodes += 1;
        if self.nodes >= node_limit {
            return false;
        }
        if self.nodes.is_multiple_of(256)
            && (control.is_cancelled() || start.elapsed().as_secs_f64() >= deadline_s)
        {
            return false;
        }
        true
    }

    /// Most-constrained unassigned variable: smallest domain, ties broken
    /// by higher pattern degree, then lower id. `None` when all are
    /// assigned. A scan over every node: the copy-domains backend's pick,
    /// and the oracle [`TrailState::pick`] is checked against in debug
    /// builds.
    fn pick_var(&self, sizes: impl Fn(usize) -> u32, assignment: &[Option<u32>]) -> Option<usize> {
        let mut pick: Option<(usize, u32)> = None;
        for v in (0..self.n).filter(|&v| assignment[v].is_none()) {
            let size = sizes(v);
            let degree = &self.pattern.degree;
            let better =
                pick.is_none_or(|(pv, ps)| size < ps || (size == ps && degree[v] > degree[pv]));
            if better {
                pick = Some((v, size));
            }
        }
        pick.map(|(v, _)| v)
    }

    /// Trail-based search. Returns Some(true) on SAT (assignment filled
    /// in), Some(false) on UNSAT, None on timeout/cancellation.
    fn search_trail<const W: usize>(
        &mut self,
        st: &mut TrailState,
        start: Instant,
        deadline_s: f64,
        node_limit: u64,
        control: &SearchControl,
    ) -> Option<bool> {
        let pick = st.pick::<W>(self.pattern);
        debug_assert_eq!(pick, self.pick_var(|v| st.live_size::<W>(v), &st.assignment));
        let Some(v) = pick else {
            return Some(true); // all assigned
        };
        if !self.enter_node(start, deadline_s, node_limit, control) {
            return None;
        }
        st.enter(self.pattern, v);

        // Ranks are the value order: walk the live bits upwards.
        for w in 0..st.width::<W>() {
            let mut live = st.live::<W>(v, w);
            while live != 0 {
                let bit = live & live.wrapping_neg();
                live ^= bit;
                let j = (w * 64) as u32 + bit.trailing_zeros();
                let mark = st.trail.len();
                st.taken[w] |= bit;
                if self.propagate_trail::<W>(st, v, j) {
                    st.assignment[v] = Some(j);
                    match self.search_trail::<W>(st, start, deadline_s, node_limit, control) {
                        Some(true) => return Some(true),
                        Some(false) => st.assignment[v] = None,
                        None => return None,
                    }
                }
                st.taken[w] ^= bit;
                st.undo(mark);
            }
        }
        st.leave(self.pattern, v);
        Some(false)
    }

    /// Forward-checks adjacency after assigning rank `j` (already marked
    /// taken) to node `v`. Returns `false` on a detected wipeout (caller
    /// undoes). A neighbour linked both ways takes one intersection with the fused
    /// row, not one per direction.
    fn propagate_trail<const W: usize>(&self, st: &mut TrailState, v: usize, j: u32) -> bool {
        let j = j as usize;
        let rows = [&self.row_both[j], &self.row_out[j], &self.row_in[j]];
        for (nbrs, row) in self.pattern.sides(v).into_iter().zip(rows) {
            for &u in nbrs {
                let u = u as usize;
                let ok = match st.assignment[u] {
                    None => st.intersect_row::<W>(u, row),
                    Some(a) => bit_test(row, a),
                };
                if !ok {
                    return false;
                }
            }
        }
        true
    }

    /// Copy-domains-per-node search (the original implementation). Returns
    /// Some(true) on SAT (assignment filled in), Some(false) on UNSAT,
    /// None on timeout/cancellation.
    fn search_clone(
        &mut self,
        domains: &mut [Vec<u64>],
        assignment: &mut Vec<Option<u32>>,
        start: Instant,
        deadline_s: f64,
        node_limit: u64,
        control: &SearchControl,
    ) -> Option<bool> {
        let Some(v) = self.pick_var(|v| bitset_count(&domains[v]), assignment) else {
            return Some(true); // all assigned
        };
        if !self.enter_node(start, deadline_s, node_limit, control) {
            return None;
        }

        // Iterate candidate ranks in the value order.
        for j in 0..self.m as u32 {
            let (w, bit) = (j as usize / 64, 1u64 << (j % 64));
            if domains[v][w] & bit == 0 {
                continue;
            }
            // Propagate into copied domains.
            let mut next: Vec<Vec<u64>> = domains.to_vec();
            let mut ok = true;
            // alldifferent: j is taken.
            for (u, dom) in next.iter_mut().enumerate() {
                if u != v && assignment[u].is_none() {
                    dom[w] &= !bit;
                }
            }
            next[v].iter_mut().for_each(|x| *x = 0);
            next[v][w] = bit;
            // Adjacency forward checking.
            for &u in &self.pattern.out_adj[v] {
                if assignment[u].is_none() {
                    bitset_and(&mut next[u], &self.row_out[j as usize]);
                    if bitset_count(&next[u]) == 0 {
                        ok = false;
                        break;
                    }
                } else if !bit_test(&self.row_out[j as usize], assignment[u].unwrap()) {
                    ok = false;
                    break;
                }
            }
            if ok {
                for &u in &self.pattern.in_adj[v] {
                    if assignment[u].is_none() {
                        bitset_and(&mut next[u], &self.row_in[j as usize]);
                        if bitset_count(&next[u]) == 0 {
                            ok = false;
                            break;
                        }
                    } else if !bit_test(&self.row_in[j as usize], assignment[u].unwrap()) {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                assignment[v] = Some(j);
                match self
                    .search_clone(&mut next, assignment, start, deadline_s, node_limit, control)
                {
                    Some(true) => return Some(true),
                    Some(false) => {
                        assignment[v] = None;
                    }
                    None => return None,
                }
            }
        }
        Some(false)
    }
}

/// True if `deployment` honours every pinned node in `fixed`.
pub(crate) fn respects_fixed(deployment: &[u32], fixed: &[Option<u32>]) -> bool {
    deployment.len() == fixed.len()
        && fixed.iter().zip(deployment).all(|(f, &d)| f.is_none_or(|j| j == d))
}

#[inline]
fn bitset_count(bits: &[u64]) -> u32 {
    bits.iter().map(|w| w.count_ones()).sum()
}

#[inline]
fn bitset_and(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d &= s;
    }
}

#[inline]
fn bit_test(bits: &[u64], j: u32) -> bool {
    bits[j as usize / 64] & (1u64 << (j % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Costs;

    fn random_costs(m: usize, seed: u64) -> Costs {
        Costs::random_uniform(m, seed)
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

    /// Brute-force optimum by permutation enumeration (tiny sizes only).
    fn brute_force(problem: &NodeDeployment) -> f64 {
        fn rec(
            problem: &NodeDeployment,
            partial: &mut Vec<u32>,
            used: &mut Vec<bool>,
            best: &mut f64,
        ) {
            if partial.len() == problem.num_nodes {
                *best = best.min(problem.longest_link(partial));
                return;
            }
            for j in 0..problem.num_instances() {
                if !used[j] {
                    used[j] = true;
                    partial.push(j as u32);
                    rec(problem, partial, used, best);
                    partial.pop();
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(problem, &mut Vec::new(), &mut vec![false; problem.num_instances()], &mut best);
        best
    }

    fn exact_config() -> CpConfig {
        CpConfig {
            clusters: None,
            quantum: 0.0,
            budget: Budget::seconds(30.0),
            ..Default::default()
        }
    }

    /// An exact solve from `hint`, optionally over candidate domains.
    fn solve_from(
        p: &NodeDeployment,
        hint: &SolveHint,
        candidates: Option<&[Vec<u32>]>,
    ) -> SolveOutcome {
        solve_llndp_cp_with(p, &exact_config(), hint, candidates, &SearchControl::new())
    }

    #[test]
    fn cp_finds_optimum_on_small_instances() {
        for seed in 0..5 {
            let p =
                NodeDeployment::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], random_costs(7, seed));
            let out = solve_llndp_cp(&p, &exact_config());
            let opt = brute_force(&p);
            assert!(p.is_valid(&out.deployment));
            assert!(out.proven_optimal, "seed {seed} not proven");
            assert!((out.cost - opt).abs() < 1e-9, "seed {seed}: cp {} opt {opt}", out.cost);
        }
    }

    /// Brute-force optimum over deployments honouring fixed assignments.
    fn brute_force_fixed(problem: &NodeDeployment, fixed: &[Option<u32>]) -> f64 {
        fn rec(
            problem: &NodeDeployment,
            fixed: &[Option<u32>],
            partial: &mut Vec<u32>,
            used: &mut Vec<bool>,
            best: &mut f64,
        ) {
            if partial.len() == problem.num_nodes {
                *best = best.min(problem.longest_link(partial));
                return;
            }
            let v = partial.len();
            for j in 0..problem.num_instances() {
                if !used[j] && fixed[v].is_none_or(|f| f as usize == j) {
                    used[j] = true;
                    partial.push(j as u32);
                    rec(problem, fixed, partial, used, best);
                    partial.pop();
                    used[j] = false;
                }
            }
        }
        let mut best = f64::INFINITY;
        rec(problem, fixed, &mut Vec::new(), &mut vec![false; problem.num_instances()], &mut best);
        best
    }

    #[test]
    fn cp_fixed_assignments_are_honoured_and_locally_optimal() {
        for seed in 0..5 {
            let p =
                NodeDeployment::new(5, vec![(0, 1), (1, 2), (2, 3), (3, 4)], random_costs(7, seed));
            // Pin nodes 0 and 2; only nodes 1, 3, 4 may move.
            let fixed = vec![Some(3u32), None, Some(0u32), None, None];
            let incumbent = p.random_deployment_with(&fixed, &mut StdRng::seed_from_u64(seed));
            let out =
                solve_from(&p, &SolveHint::Incremental { incumbent, fixed: fixed.clone() }, None);
            assert!(p.is_valid(&out.deployment), "seed {seed}");
            assert!(respects_fixed(&out.deployment, &fixed), "seed {seed}: pins moved");
            assert!(out.proven_optimal, "seed {seed} not proven within neighbourhood");
            let opt = brute_force_fixed(&p, &fixed);
            assert!((out.cost - opt).abs() < 1e-9, "seed {seed}: cp {} fixed-opt {opt}", out.cost);
        }
    }

    #[test]
    fn cp_all_nodes_fixed_returns_the_pinned_plan() {
        let p = NodeDeployment::new(3, vec![(0, 1), (1, 2)], random_costs(5, 3));
        let pinned = vec![Some(4u32), Some(1), Some(2)];
        let hint = SolveHint::Incremental { incumbent: vec![4, 1, 2], fixed: pinned };
        let out = solve_from(&p, &hint, None);
        assert_eq!(out.deployment, vec![4, 1, 2]);
        assert!(out.proven_optimal);
        assert_eq!(out.cost, p.longest_link(&out.deployment));
    }

    #[test]
    fn cp_optimal_on_mesh() {
        let p = NodeDeployment::new(6, grid_edges(2, 3), random_costs(8, 11));
        let out = solve_llndp_cp(&p, &exact_config());
        let opt = brute_force(&p);
        assert!((out.cost - opt).abs() < 1e-9, "cp {} opt {opt}", out.cost);
    }

    #[test]
    fn clustering_bounds_iterations_but_costs_accuracy() {
        let p = NodeDeployment::new(12, grid_edges(3, 4), random_costs(16, 3));
        let exact = solve_llndp_cp(&p, &exact_config());
        let k5 = solve_llndp_cp(
            &p,
            &CpConfig {
                clusters: Some(5),
                quantum: 0.0,
                budget: Budget::seconds(30.0),
                ..Default::default()
            },
        );
        // Coarse clustering can only be as good or worse.
        assert!(k5.cost >= exact.cost - 1e-9, "k5 {} exact {}", k5.cost, exact.cost);
    }

    #[test]
    fn curve_is_monotone_decreasing() {
        let p = NodeDeployment::new(9, grid_edges(3, 3), random_costs(12, 5));
        let out = solve_llndp_cp(&p, &exact_config());
        assert!(out.curve.windows(2).all(|w| w[1].1 <= w[0].1 + 1e-12), "{:?}", out.curve);
    }

    #[test]
    fn respects_initial_solution() {
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], random_costs(6, 6));
        let init = p.default_deployment();
        let out = solve_from(&p, &SolveHint::warm(init.clone()), None);
        assert!(out.cost <= p.longest_link(&init));
    }

    #[test]
    fn timeout_returns_incumbent() {
        let p = NodeDeployment::new(20, grid_edges(4, 5), random_costs(24, 7));
        let out =
            solve_llndp_cp(&p, &CpConfig { budget: Budget::seconds(0.0), ..Default::default() });
        assert!(p.is_valid(&out.deployment));
        assert!(!out.proven_optimal);
    }

    #[test]
    fn node_limit_respected() {
        let p = NodeDeployment::new(16, grid_edges(4, 4), random_costs(20, 8));
        let out = solve_llndp_cp(
            &p,
            &CpConfig {
                budget: Budget::nodes(50),
                clusters: None,
                quantum: 0.0,
                ..Default::default()
            },
        );
        assert!(out.explored <= 60, "explored {}", out.explored);
    }

    #[test]
    fn degree_filter_does_not_change_the_answer() {
        // The filter is a pure pruning optimization: with and without it,
        // the solver must reach the same optimal cost.
        for seed in 0..3 {
            let p = NodeDeployment::new(6, grid_edges(2, 3), random_costs(8, seed + 50));
            let with = solve_llndp_cp(&p, &exact_config());
            let without = solve_llndp_cp(&p, &CpConfig { degree_filter: false, ..exact_config() });
            assert!(with.proven_optimal && without.proven_optimal, "seed {seed}");
            assert!(
                (with.cost - without.cost).abs() < 1e-9,
                "seed {seed}: {} vs {}",
                with.cost,
                without.cost
            );
        }
    }

    #[test]
    fn a_repeated_arc_asks_the_degree_filter_for_one_link() {
        // Only the links between instances 0 and 1 are cheap. Node 0 has
        // one distinct out-neighbour however often the edge list repeats
        // the arc, so instances 0 and 1 (one good out-link each) must stay
        // in its domain, or the search "proves" the warm start optimal.
        let cheap = |i, j| matches!((i, j), (0, 1) | (1, 0));
        let costs = Costs::from_fn(8, |i, j| if cheap(i, j) { 0.1 } else { 1.0 });
        for edges in [vec![(0, 1)], vec![(0, 1), (0, 1)], vec![(0, 1), (1, 0), (0, 1)]] {
            let p = NodeDeployment::new(2, edges.clone(), costs.clone());
            for propagation in [Propagation::Trail, Propagation::CloneDomains] {
                let config = CpConfig { propagation, ..exact_config() };
                let hint = SolveHint::warm(vec![2, 3]);
                let out = solve_llndp_cp_with(&p, &config, &hint, None, &SearchControl::new());
                assert_eq!(out.cost, 0.1, "{edges:?}, {propagation:?}");
                assert!(out.proven_optimal, "{edges:?}, {propagation:?}");
            }
        }
    }

    #[test]
    fn candidate_domains_reach_the_candidate_local_optimum() {
        // Candidate lists seed the SIP domains: the threshold iteration
        // explores only candidate deployments, so the result is at least
        // as good as the brute-force optimum over the candidate pool (the
        // bootstrap incumbent may luck into something better outside it).
        for seed in 0..4 {
            let p = NodeDeployment::new(3, vec![(0, 1), (1, 2)], random_costs(9, seed + 200));
            let cand: Vec<Vec<u32>> = vec![vec![0, 1, 2, 3, 4]; 3];
            let out = solve_from(&p, &SolveHint::Cold, Some(&cand));
            assert!(p.is_valid(&out.deployment), "seed {seed}");
            let sub =
                NodeDeployment::new(3, vec![(0, 1), (1, 2)], p.costs.submatrix(&[0, 1, 2, 3, 4]));
            let opt = brute_force(&sub);
            assert!(
                out.cost <= opt + 1e-9,
                "seed {seed}: candidate cp {} misses restricted brute {opt}",
                out.cost
            );
        }
    }

    #[test]
    fn empty_edge_set_is_trivially_optimal() {
        let p = NodeDeployment::new(3, vec![], random_costs(5, 9));
        let out = solve_llndp_cp(&p, &exact_config());
        assert_eq!(out.cost, 0.0);
        assert!(out.proven_optimal);
    }

    #[test]
    fn scales_to_paper_size_quickly() {
        // 2D mesh of 30 nodes over 34 instances should converge well within
        // the budget — a smoke test of search efficiency.
        let p = NodeDeployment::new(30, grid_edges(5, 6), random_costs(34, 10));
        let out = solve_llndp_cp(
            &p,
            &CpConfig { clusters: Some(20), budget: Budget::seconds(5.0), ..Default::default() },
        );
        assert!(p.is_valid(&out.deployment));
        // Must beat the bootstrap by a decent margin on random costs.
        let first = out.curve.first().unwrap().1;
        assert!(out.cost < first, "no improvement over bootstrap: {first} -> {}", out.cost);
    }

    #[test]
    fn trail_and_clone_backends_explore_the_same_tree() {
        // Same optimum, same proof status, and the same node count — the
        // trail is a pure representation change, not a heuristic change.
        for seed in 0..6 {
            let p = NodeDeployment::new(6, grid_edges(2, 3), random_costs(9, seed + 100));
            let trail =
                solve_llndp_cp(&p, &CpConfig { propagation: Propagation::Trail, ..exact_config() });
            let clone = solve_llndp_cp(
                &p,
                &CpConfig { propagation: Propagation::CloneDomains, ..exact_config() },
            );
            assert_eq!(trail.deployment, clone.deployment, "seed {seed}");
            assert_eq!(trail.explored, clone.explored, "seed {seed}");
            assert!((trail.cost - clone.cost).abs() < 1e-12, "seed {seed}");
            assert_eq!(trail.proven_optimal, clone.proven_optimal, "seed {seed}");
        }
    }

    #[test]
    fn cancellation_stops_the_search() {
        let p = NodeDeployment::new(20, grid_edges(4, 5), random_costs(24, 12));
        let control = SearchControl::new();
        control.cancel();
        let out = solve_llndp_cp_with(
            &p,
            &CpConfig { clusters: None, quantum: 0.0, ..Default::default() },
            &SolveHint::Cold,
            None,
            &control,
        );
        // Cancelled before any threshold iteration: bootstrap incumbent,
        // no optimality claim, (almost) no nodes explored.
        assert!(p.is_valid(&out.deployment));
        assert!(!out.proven_optimal);
        assert_eq!(out.explored, 0);
    }

    #[test]
    fn external_incumbent_is_adopted_between_iterations() {
        let p = NodeDeployment::new(6, grid_edges(2, 3), random_costs(9, 13));
        // Hand the control a pre-solved optimum; the CP run must end at
        // least as good, and it must publish its own result back.
        let opt = solve_llndp_cp(&p, &exact_config());
        let control = SearchControl::new();
        control.offer(&opt.deployment, opt.cost);
        let out = solve_llndp_cp_with(&p, &exact_config(), &SolveHint::Cold, None, &control);
        assert!(out.cost <= opt.cost + 1e-12);
        let (_, shared_cost) = control.best().expect("control retains an incumbent");
        assert!((shared_cost - out.cost).abs() < 1e-12);
    }

    #[test]
    fn a_dark_link_is_not_a_threshold_and_not_a_cluster() {
        // One +∞ pair on m = 12 under the default clustered rounding: the
        // clustering must skip it, the threshold list must not hold it,
        // and the plan must avoid it.
        let base = random_costs(12, 0);
        let dark = |i, j| matches!((i, j), (2, 7) | (7, 2));
        let costs =
            Costs::from_fn(12, |i, j| if dark(i, j) { f64::INFINITY } else { base.get(i, j) });
        let p = NodeDeployment::new(9, grid_edges(3, 3), costs);
        let out = solve_llndp_cp(
            &p,
            &CpConfig { clusters: Some(5), budget: Budget::seconds(30.0), ..Default::default() },
        );
        assert!(p.is_valid(&out.deployment));
        assert!(out.cost.is_finite(), "cost {}", out.cost);
        assert_eq!(out.cost, p.longest_link(&out.deployment));
    }

    /// One recorded default-trail CP run: a bidirectional `rows × cols`
    /// mesh over `m` instances of an EC2-like cloud booted from `seed`,
    /// `Budget::nodes(50_000)`, `clusters` cost clusters.
    struct Golden {
        mesh: (u32, u32),
        m: usize,
        seed: u64,
        clusters: usize,
        explored: u64,
        cost_bits: u64,
        deployment: &'static [u32],
    }

    /// The first five run the `batch_paper` shape (a 10×10 mesh over
    /// m = 110, two domain words); the coarse k = 3 run ends in a proof.
    /// They were recorded before the trail backend went lazy and
    /// rank-labelled. The last three cover one domain word (the smoke
    /// batch shape, a 6×9 mesh over m = 60) and five (the online shape, a
    /// 3×4 mesh over m = 300 that ends in a proof, and a 4×5 one that runs
    /// out of nodes); they were recorded before the fused two-way rows and
    /// the packed-key pick.
    const GOLDEN_TREES: [Golden; 8] = [
        Golden {
            mesh: (10, 10),
            m: 110,
            seed: 1,
            clusters: 20,
            explored: 50000,
            cost_bits: 0x3fdfa3052cfbd2c6,
            deployment: &[
                59, 54, 53, 4, 26, 25, 22, 14, 34, 62, 45, 102, 23, 64, 97, 52, 98, 24, 82, 92, 57,
                100, 73, 96, 81, 17, 76, 41, 2, 30, 63, 13, 103, 72, 91, 105, 35, 94, 28, 38, 48,
                15, 93, 43, 0, 11, 42, 74, 83, 68, 90, 7, 36, 84, 3, 95, 40, 6, 80, 10, 70, 20, 19,
                78, 86, 33, 66, 58, 12, 50, 51, 99, 75, 47, 55, 69, 18, 77, 108, 8, 21, 61, 107,
                104, 106, 27, 44, 1, 89, 5, 60, 32, 49, 37, 16, 31, 87, 79, 29, 88,
            ],
        },
        Golden {
            mesh: (10, 10),
            m: 110,
            seed: 2,
            clusters: 20,
            explored: 50000,
            cost_bits: 0x3fe1f8b1c78f40ac,
            deployment: &[
                91, 90, 72, 8, 83, 9, 38, 4, 69, 71, 102, 44, 87, 14, 95, 22, 75, 17, 21, 3, 0, 45,
                77, 33, 23, 52, 74, 82, 51, 24, 81, 56, 30, 1, 36, 63, 26, 66, 16, 13, 11, 12, 40,
                99, 106, 104, 97, 42, 60, 55, 10, 92, 57, 47, 67, 89, 2, 85, 58, 101, 86, 31, 61,
                59, 93, 96, 7, 76, 41, 103, 49, 6, 100, 62, 15, 27, 84, 94, 70, 20, 54, 34, 18, 53,
                108, 46, 28, 80, 25, 73, 37, 35, 5, 68, 29, 64, 105, 98, 50, 48,
            ],
        },
        Golden {
            mesh: (10, 10),
            m: 110,
            seed: 3,
            clusters: 20,
            explored: 50000,
            cost_bits: 0x3fdd198b566187c2,
            deployment: &[
                38, 83, 75, 21, 64, 72, 108, 97, 55, 68, 27, 91, 70, 19, 17, 48, 34, 8, 3, 69, 4,
                53, 102, 50, 51, 92, 20, 16, 6, 24, 89, 95, 82, 71, 58, 94, 23, 18, 41, 77, 28, 33,
                25, 93, 31, 103, 79, 26, 36, 44, 87, 60, 84, 100, 11, 105, 49, 45, 59, 66, 2, 12,
                13, 99, 104, 81, 96, 29, 35, 86, 52, 46, 32, 39, 80, 65, 54, 101, 1, 62, 37, 43,
                109, 14, 0, 10, 56, 22, 74, 63, 40, 76, 47, 106, 5, 73, 57, 42, 61, 9,
            ],
        },
        Golden {
            mesh: (10, 10),
            m: 110,
            seed: 4,
            clusters: 20,
            explored: 50000,
            cost_bits: 0x3fdd190c57531da2,
            deployment: &[
                39, 97, 25, 103, 37, 57, 19, 32, 76, 75, 40, 43, 90, 45, 100, 52, 12, 54, 93, 56,
                95, 46, 96, 42, 9, 41, 107, 26, 84, 55, 108, 22, 16, 23, 48, 59, 104, 65, 0, 73,
                20, 44, 1, 77, 72, 92, 82, 60, 8, 102, 69, 91, 35, 78, 58, 11, 74, 87, 13, 15, 51,
                47, 38, 63, 85, 50, 88, 49, 86, 31, 101, 6, 68, 71, 14, 89, 99, 64, 83, 2, 18, 3,
                98, 5, 67, 10, 28, 79, 81, 24, 105, 21, 70, 27, 36, 33, 17, 61, 7, 106,
            ],
        },
        Golden {
            mesh: (10, 10),
            m: 110,
            seed: 1,
            clusters: 3,
            explored: 1362,
            cost_bits: 0x3fdf086b6bc2a0d7,
            deployment: &[
                19, 34, 86, 11, 74, 12, 43, 14, 83, 10, 7, 23, 81, 4, 73, 97, 100, 25, 3, 62, 91,
                102, 76, 64, 96, 17, 52, 105, 0, 48, 15, 54, 24, 98, 22, 53, 26, 28, 2, 70, 80, 82,
                93, 94, 35, 103, 72, 13, 41, 16, 58, 20, 84, 78, 42, 95, 99, 36, 33, 38, 27, 6, 88,
                18, 44, 47, 40, 77, 108, 51, 69, 31, 87, 106, 1, 104, 8, 66, 107, 29, 55, 5, 59,
                89, 61, 37, 92, 50, 30, 57, 101, 75, 68, 90, 21, 49, 79, 60, 45, 63,
            ],
        },
        Golden {
            mesh: (6, 9),
            m: 60,
            seed: 42,
            clusters: 20,
            explored: 50000,
            cost_bits: 0x3fe0c0aad21dc871,
            deployment: &[
                19, 7, 21, 34, 50, 47, 29, 59, 20, 15, 41, 32, 40, 13, 58, 54, 36, 5, 31, 46, 0, 9,
                11, 14, 12, 49, 2, 56, 55, 18, 16, 33, 6, 17, 24, 52, 3, 45, 39, 30, 27, 10, 35,
                44, 53, 48, 42, 43, 37, 25, 26, 1, 28, 23,
            ],
        },
        Golden {
            mesh: (3, 4),
            m: 300,
            seed: 42,
            clusters: 20,
            explored: 125,
            cost_bits: 0x3fd196cdda8f4950,
            deployment: &[14, 16, 247, 18, 11, 9, 13, 10, 15, 17, 7, 6],
        },
        Golden {
            mesh: (4, 5),
            m: 300,
            seed: 2,
            clusters: 20,
            explored: 50000,
            cost_bits: 0x3fd5ff1aa2a98999,
            deployment: &[
                94, 270, 109, 113, 99, 254, 108, 72, 73, 175, 91, 141, 76, 75, 174, 14, 64, 44, 42,
                2,
            ],
        },
    ];

    #[test]
    fn search_trees_match_the_recorded_golden_runs() {
        // Trail == clone cannot see a change both backends share (the
        // value order, the rank relabelling), so pin the tree itself.
        use cloudia_netsim::{Cloud, Provider};
        for g in &GOLDEN_TREES {
            let (rows, cols) = g.mesh;
            let mut cloud = Cloud::boot(Provider::ec2_like(), g.seed);
            let alloc = cloud.allocate(g.m);
            let costs = cloud.network(&alloc).mean_matrix();
            let mut edges = grid_edges(rows, cols);
            edges.extend(grid_edges(rows, cols).into_iter().map(|(a, b)| (b, a)));
            let p = NodeDeployment::new((rows * cols) as usize, edges, costs);
            let out = solve_llndp_cp(
                &p,
                &CpConfig {
                    budget: Budget::nodes(50_000),
                    clusters: Some(g.clusters),
                    seed: g.seed,
                    ..CpConfig::default()
                },
            );
            let at = format!("{rows}x{cols} over m = {}, seed {}, k {}", g.m, g.seed, g.clusters);
            assert_eq!(out.explored, g.explored, "{at}");
            assert_eq!(out.deployment, g.deployment, "{at}");
            assert_eq!(out.cost.to_bits(), g.cost_bits, "{at}");
        }
    }
}

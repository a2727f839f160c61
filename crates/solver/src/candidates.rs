//! Candidate-pruned solver domains: exploit latency clustering to shrink
//! the instance pool before any search starts.
//!
//! EC2-style latency planes are heavily clustered (paper Figs. 1, 10):
//! most of a tenant's `m` instances sit in one well-connected cluster and
//! a minority are congested, so for realistic instances almost none of the
//! `m` candidates per application node are ever competitive. This module
//! turns that observation into explicit per-node candidate lists:
//!
//! 1. every instance is scored by a **quantile of its incident link
//!    costs** (default: the median over both directions) — congested
//!    instances score high, cluster members score low;
//! 2. the cheapest `k` instances form the shared candidate pool
//!    (`k` from the [`PoolPolicy`], never less than the node count so an
//!    injective deployment always exists);
//! 3. each node's list is the pool **plus its incumbent and pinned
//!    instances**, so warm starts and repair pins are always reachable.
//!
//! [`CandidateSet::restrict`] then slices the cost plane to the candidate
//! union — an O(K²) [`CostMatrix::submatrix`] view of the m² arena — and
//! remaps the problem onto it. Every downstream technique is bounded for
//! free: CP bitset domains are seeded from the per-node lists (the
//! `candidates` argument of [`crate::cp::solve_llndp_cp_with`]), the MIP
//! encodings only generate `x_ij` columns for candidate instances (the
//! restricted problem has no others), and greedy growth / random draws
//! range over K instead of m.
//!
//! Pruning is **heuristic**: a pruned run can never prove global
//! optimality, and an over-tight pool can miss the optimum. The exact
//! fallback (a pool size `>= m`) degenerates to the dense path
//! bit-for-bit, and the driver in `cloudia-core`
//! (`SearchStrategy::run_pruned`) auto-escalates to the dense problem
//! whenever the pruned search proves pruned-optimality, instead of
//! silently passing a local proof off as a global one.
//!
//! The pool size itself is either **fixed** ([`PoolPolicy::Fixed`], the
//! original layer) or **adaptive** ([`PoolPolicy::Adaptive`] +
//! [`AdaptivePool`]): a controller tracks an escalation-rate EWMA across
//! consecutive solves and grows `k` when the pool keeps proving too tight
//! (frequent escalations) while shrinking it when the pruned result keeps
//! sufficing — so a long stationary stretch converges to the cheapest pool
//! that still answers correctly.
//!
//! Every pool is ranked by one routine, whatever holds the evidence: a
//! dense cost matrix ([`CandidateSet::build`], batch solves), partial
//! sweep statistics ([`CandidateSet::build_partial`]), or a [`PoolIndex`]
//! kept current from touched links ([`CandidateSet::from_index`], the
//! online loop's focused plan and, off an index of every link at its
//! search cost, its repairs — which restrict a sub-problem they price
//! themselves, [`CandidateSet::restrict_to`]). The
//! mid-sweep [`CandidatePruneRule`] evaluates the same ranking between
//! measurement stages — with a confidence level as interval verdicts, and
//! then as the sweep's anytime stop rule too — off an index a caller may
//! keep for a whole run ([`CandidatePruneRule::with_index`]).

use std::cell::{Cell, Ref, RefCell};
use std::sync::{Arc, Mutex, MutexGuard};

use cloudia_measure::{PairSet, PairwiseStats, PruneRule, StopRule, TouchCursor};

use crate::problem::{CostMatrix, NodeDeployment};

/// How the candidate pool size `k` is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoolPolicy {
    /// `k` candidate instances per node (`0` = auto: `max(4·n, 48)`),
    /// before incumbent/pin additions. Values `>= m` select every
    /// instance — the exact fallback.
    Fixed(usize),
    /// Escalation-rate-driven pool sizing: a stateful [`AdaptivePool`]
    /// controller (owned by the caller, e.g. the online advisor) adjusts
    /// `k` between solves. A one-shot solve that receives this policy
    /// directly uses [`AdaptivePoolConfig::initial`] as its `k`.
    Adaptive(AdaptivePoolConfig),
}

/// Which quantile of an instance's incident link costs scores it: the
/// median. Lower quantiles would reward instances with *some* cheap
/// links; higher ones demand uniformly cheap ones.
pub const POOL_QUANTILE: f64 = 0.5;

/// Tuning knobs of the candidate-pruning layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateConfig {
    /// Pool sizing policy (fixed `k` or escalation-adaptive).
    pub pool: PoolPolicy,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        Self::fixed(0)
    }
}

impl CandidateConfig {
    /// A fixed pool of `per_node` candidates (`0` = auto).
    pub fn fixed(per_node: usize) -> Self {
        Self { pool: PoolPolicy::Fixed(per_node) }
    }

    /// An adaptive pool under `config`.
    pub fn adaptive(config: AdaptivePoolConfig) -> Self {
        Self { pool: PoolPolicy::Adaptive(config) }
    }

    /// The pool size this configuration selects for a problem with `n`
    /// nodes over `m` instances. An adaptive policy resolves to its
    /// initial `k` under its own min/max bounds — exactly as a live
    /// [`AdaptivePool`] controller starts out — so one-shot solves and
    /// the online loop agree on the opening pool; the controller then
    /// substitutes its current `k` via [`AdaptivePool::effective`].
    pub fn pool_size(&self, n: usize, m: usize) -> usize {
        match self.pool {
            PoolPolicy::Fixed(k) => {
                let k = if k == 0 { (4 * n).max(48) } else { k };
                k.max(n).min(m)
            }
            PoolPolicy::Adaptive(cfg) => cfg.resolve(n, m).2,
        }
    }
}

/// Escalation rate above which the adaptive pool grows.
const GROW_ABOVE: f64 = 0.5;
/// Escalation rate below which the adaptive pool shrinks.
const SHRINK_BELOW: f64 = 0.15;
/// Multiplicative growth step of the adaptive pool.
const GROW_FACTOR: f64 = 1.5;
/// Multiplicative shrink step of the adaptive pool.
const SHRINK_FACTOR: f64 = 0.8;
/// Observations before the adaptive pool starts adjusting `k` (lets the
/// EWMA settle instead of reacting to the first epoch).
const POOL_WARMUP: u64 = 3;

/// Parameters of the adaptive pool-size controller. `k` moves between
/// the node count and the instance count; the pool never loses
/// incumbent/pinned instances regardless ([`CandidateSet::build`]
/// force-includes them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptivePoolConfig {
    /// Starting `k` (`0` = auto: `max(4·n, 48)`).
    pub initial: usize,
    /// EWMA smoothing factor of the escalation rate, in (0, 1].
    pub alpha: f64,
}

impl Default for AdaptivePoolConfig {
    fn default() -> Self {
        Self { initial: 0, alpha: 0.3 }
    }
}

impl AdaptivePoolConfig {
    /// Resolves the bounds for a problem with `n` nodes over `m`
    /// instances: `(min_k, max_k, initial_k)`, the node and instance
    /// counts with the initial `k` clamped between them. Shared by
    /// [`AdaptivePool::new`] and [`CandidateConfig::pool_size`], so
    /// one-shot solves and the live controller always start from the
    /// same pool.
    pub fn resolve(&self, n: usize, m: usize) -> (usize, usize, usize) {
        let initial = if self.initial == 0 { (4 * n).max(48) } else { self.initial };
        let min_k = n.min(m).max(1);
        let max_k = m.max(min_k);
        (min_k, max_k, initial.clamp(min_k, max_k))
    }
}

/// Stateful adaptive pool-size controller (the ROADMAP "adaptive pool
/// sizing" follow-on).
///
/// Feed it one boolean per solve/epoch via [`AdaptivePool::observe`]:
/// `true` when the pruned pool proved too tight (the solve escalated to a
/// dense re-solve, the probe plan escalated to a full sweep, or a
/// triggered repair found nothing inside the pool while a better link lay
/// outside it), `false` when the pool
/// sufficed. The escalation-rate EWMA then drives `k` multiplicatively up
/// or down between the node and instance counts, and [`AdaptivePool::effective`]
/// projects the current `k` into a concrete [`CandidateConfig`] for the
/// next solve.
#[derive(Debug, Clone)]
pub struct AdaptivePool {
    config: AdaptivePoolConfig,
    min_k: usize,
    max_k: usize,
    k: usize,
    rate: f64,
    observations: u64,
}

impl AdaptivePool {
    /// Creates a controller for problems with `n` nodes over `m`
    /// instances (see [`AdaptivePoolConfig::resolve`]).
    ///
    /// # Panics
    /// Panics if `alpha` is outside (0, 1].
    pub fn new(config: AdaptivePoolConfig, n: usize, m: usize) -> Self {
        assert!(config.alpha > 0.0 && config.alpha <= 1.0, "alpha must be in (0, 1]");
        let (min_k, max_k, k) = config.resolve(n, m);
        // The rate starts at the neutral point between the thresholds: the
        // controller is agnostic until the stream provides evidence, so a
        // fresh loop neither shrinks nor grows on its first few epochs.
        let rate = 0.5 * (GROW_ABOVE + SHRINK_BELOW);
        Self { config, min_k, max_k, k, rate, observations: 0 }
    }

    /// The current pool size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The current escalation-rate EWMA.
    pub fn escalation_rate(&self) -> f64 {
        self.rate
    }

    /// Observations consumed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Ingests one solve's escalation verdict and adjusts `k`. Returns the
    /// new `k` (unchanged when the rate sits between the thresholds or the
    /// controller is still warming up).
    pub fn observe(&mut self, escalated: bool) -> usize {
        let x = if escalated { 1.0 } else { 0.0 };
        self.rate += self.config.alpha * (x - self.rate);
        self.observations += 1;
        if self.observations >= POOL_WARMUP {
            if self.rate > GROW_ABOVE {
                self.k =
                    ((self.k as f64 * GROW_FACTOR).ceil() as usize).clamp(self.min_k, self.max_k);
            } else if self.rate < SHRINK_BELOW {
                self.k = ((self.k as f64 * SHRINK_FACTOR).floor() as usize)
                    .clamp(self.min_k, self.max_k);
            }
        }
        self.k
    }

    /// The concrete fixed-pool configuration the next solve should run
    /// with: the controller's current `k`.
    pub fn effective(&self) -> CandidateConfig {
        CandidateConfig::fixed(self.k)
    }
}

/// Per-node candidate instance lists over the original instance ids.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    m: usize,
    /// Sorted original ids of the candidate union (pool + extras).
    union: Vec<u32>,
    /// Per-node sorted candidate lists (subsets of `union`).
    per_node: Vec<Vec<u32>>,
}

impl CandidateSet {
    /// Builds candidate lists for `problem` under `config`. The incumbent
    /// deployment (if any) and every pinned instance are force-included in
    /// the owning node's list, so pruning can never make a warm start or a
    /// repair pin unreachable.
    ///
    /// # Panics
    /// Panics if `incumbent`/`fixed` are sized for a different node count
    /// or reference out-of-range instances.
    pub fn build(
        problem: &NodeDeployment,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
    ) -> Self {
        let m = problem.num_instances();
        let costs = &problem.costs;
        Self::build_ranked(problem.num_nodes, m, config, incumbent, fixed, 0.0, |pool_size| {
            // Every instance is scored by the median (`POOL_QUANTILE`) of its
            // incident link costs (both directions), collected one
            // instance at a time into one reused buffer: O(m) scratch,
            // O(m²) work, once per solve.
            let mut incident: Vec<f64> = Vec::with_capacity(2 * (m - 1));
            Self::ranked_pool(m, pool_size, |j| {
                incident.clear();
                for l in (0..m).filter(|&l| l != j) {
                    incident.extend([costs.get(j, l), costs.get(l, j)]);
                }
                let rank = quantile_rank(incident.len(), m, POOL_QUANTILE, 0.0)?;
                Some([*incident.select_nth_unstable_by(rank, f64::total_cmp).1])
            })
        })
    }

    /// Builds candidate lists from **partially measured** pairwise
    /// statistics — the mid-sweep entry point: pools form *during* a
    /// measurement sweep instead of after it. Instances are scored by the
    /// median of their *measured* incident link costs (both
    /// directions); an instance whose incident coverage is below
    /// `min_coverage` (fraction of its `2(m−1)` directed links with at
    /// least one sample **or one recorded attempt**) cannot be proven
    /// uncompetitive and is force-included, so the pool is only ever too
    /// large, never wrongly tight. An attempted-but-answerless direction
    /// (a dark link under packet loss) counts as covered and scores as
    /// unboundedly expensive: the solver must not condemn a pair it could
    /// not observe to the *unmeasured* fallback, or dark instances would
    /// ride into every pool on caution. With full coverage the pool
    /// converges to the configured size; with no coverage it is every
    /// instance.
    ///
    /// Incumbent and pinned instances are force-included exactly as in
    /// [`CandidateSet::build`].
    ///
    /// # Panics
    /// Panics if `min_coverage` is outside `[0, 1]` or
    /// `incumbent`/`fixed` are malformed.
    pub fn build_partial(
        num_nodes: usize,
        stats: &PairwiseStats,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
        min_coverage: f64,
    ) -> Self {
        let m = stats.len();
        Self::build_ranked(num_nodes, m, config, incumbent, fixed, min_coverage, |pool_size| {
            // Incident order differs from the per-link view walk (which
            // the retained `build_partial_reference` still does), which
            // is invisible: the quantile and the coverage fraction are
            // order-independent.
            let mut incident = IncidentPrices::scan(stats, mean_price(stats));
            Self::ranked_pool(m, pool_size, |j| incident.scores(j, POOL_QUANTILE, min_coverage))
        })
    }

    /// [`CandidateSet::build_partial`] off a point [`PoolIndex`] that
    /// already holds the evidence — the same candidate lists, read at
    /// each instance's quantile rank instead of re-collected by an m²
    /// evidence pass. This is how a caller that keeps an index up to date
    /// across epochs (the online advisor's focused plan) builds its pool.
    ///
    /// # Panics
    /// As [`CandidateSet::build_partial`].
    pub fn from_index(
        num_nodes: usize,
        index: &PoolIndex<1>,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
        min_coverage: f64,
    ) -> Self {
        let m = index.m;
        Self::build_ranked(num_nodes, m, config, incumbent, fixed, min_coverage, |pool_size| {
            let scores = index.all_scores(POOL_QUANTILE, min_coverage);
            Self::ranked_pool(m, pool_size, |j| scores[j])
        })
    }

    /// The pool of every one of `m` instances around `incumbent`: what
    /// each builder returns for a pool size `>= m`, for a caller that
    /// holds no evidence to rank.
    pub fn every_instance(num_nodes: usize, m: usize, incumbent: &[u32]) -> Self {
        Self::assemble(m, num_nodes, (0..m as u32).collect(), Some(incumbent), None)
    }

    /// The builders' shared frame: checks the inputs, takes every
    /// instance when the pool size covers all `m` (always, below two
    /// instances), and otherwise asks `ranked` for the pool of that size.
    fn build_ranked(
        n: usize,
        m: usize,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
        min_coverage: f64,
        ranked: impl FnOnce(usize) -> Vec<u32>,
    ) -> Self {
        assert!((0.0..=1.0).contains(&min_coverage), "min_coverage must be in [0, 1]");
        if let Some(inc) = incumbent {
            assert_eq!(inc.len(), n, "incumbent must cover every node");
            assert!(inc.iter().all(|&j| (j as usize) < m), "incumbent instance out of range");
        }
        if let Some(f) = fixed {
            assert_eq!(f.len(), n, "fixed assignments must cover every node");
            assert!(f.iter().flatten().all(|&j| (j as usize) < m), "fixed instance out of range");
        }
        let pool_size = config.pool_size(n, m);
        let pool = if pool_size >= m { (0..m as u32).collect() } else { ranked(pool_size) };
        Self::assemble(m, n, pool, incumbent, fixed)
    }

    /// [`CandidateSet::build_partial`] transcribed onto the retained
    /// array-of-structs estimator, link-view walk and all — the
    /// pre-refactor hot loop, kept as the differential/perf oracle the
    /// columnar path races against (`ext_scale`) and is pinned to
    /// (property tests). Not part of the public API.
    #[doc(hidden)]
    pub fn build_partial_reference(
        num_nodes: usize,
        stats: &cloudia_measure::stats::aos::PairwiseStats,
        config: &CandidateConfig,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
        min_coverage: f64,
    ) -> Self {
        let n = num_nodes;
        let m = stats.len();
        assert!(m >= 2, "need at least two instances");
        assert!((0.0..=1.0).contains(&min_coverage), "min_coverage must be in [0, 1]");

        let pool_size = config.pool_size(n, m);
        let pool: Vec<u32> = if pool_size >= m {
            (0..m as u32).collect()
        } else {
            let mut forced: Vec<u32> = Vec::new();
            let mut scored: Vec<(f64, u32)> = Vec::new();
            for j in 0..m {
                let mut incident: Vec<f64> = Vec::with_capacity(2 * (m - 1));
                for l in 0..m {
                    if l != j {
                        for link in [stats.link(j, l), stats.link(l, j)] {
                            if link.count() > 0 {
                                incident.push(link.mean());
                            } else if link.attempts() > 0 {
                                incident.push(f64::INFINITY);
                            }
                        }
                    }
                }
                let coverage = incident.len() as f64 / (2 * (m - 1)) as f64;
                if incident.is_empty() || coverage < min_coverage {
                    forced.push(j as u32);
                } else {
                    let idx = ((incident.len() - 1) as f64 * POOL_QUANTILE).round() as usize;
                    let (_, q, _) = incident.select_nth_unstable_by(idx, f64::total_cmp);
                    scored.push((*q, j as u32));
                }
            }
            scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let take = pool_size.min(scored.len());
            let mut pool = forced;
            pool.extend(scored[..take].iter().map(|&(_, j)| j));
            pool.sort_unstable();
            pool
        };

        Self::assemble(m, n, pool, incumbent, fixed)
    }

    /// The shared pool under per-instance point scores: every instance
    /// `score` cannot rank (`None`: not enough evidence to exclude it)
    /// plus the `pool_size` cheapest ranked ones, boundary ties resolved
    /// by instance index. Sorted by instance id.
    fn ranked_pool(
        m: usize,
        pool_size: usize,
        mut score: impl FnMut(usize) -> Option<[f64; 1]>,
    ) -> Vec<u32> {
        let mut pool: Vec<u32> = Vec::new();
        let mut scored: Vec<(f64, u32)> = Vec::new();
        for j in 0..m {
            match score(j) {
                None => pool.push(j as u32),
                Some([score]) => scored.push((score, j as u32)),
            }
        }
        // The `take` least under a strict order (ties by index): a
        // selection finds the set a sort's prefix holds.
        let take = pool_size.min(scored.len());
        if 0 < take && take < scored.len() {
            scored.select_nth_unstable_by(take - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
        pool.extend(scored[..take].iter().map(|&(_, j)| j));
        pool.sort_unstable();
        pool
    }

    /// Shared tail of the builders: per-node lists (pool + incumbent/pin
    /// extras) and the sorted union.
    fn assemble(
        m: usize,
        n: usize,
        pool: Vec<u32>,
        incumbent: Option<&[u32]>,
        fixed: Option<&[Option<u32>]>,
    ) -> Self {
        let in_pool = {
            let mut mask = vec![false; m];
            for &j in &pool {
                mask[j as usize] = true;
            }
            mask
        };

        let per_node: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let mut list = pool.clone();
                for extra in
                    [incumbent.map(|inc| inc[v]), fixed.and_then(|f| f[v])].into_iter().flatten()
                {
                    if !in_pool[extra as usize] && !list.contains(&extra) {
                        list.push(extra);
                    }
                }
                list.sort_unstable();
                list
            })
            .collect();

        let mut union = pool;
        for list in &per_node {
            for &j in list {
                if !in_pool[j as usize] && !union.contains(&j) {
                    union.push(j);
                }
            }
        }
        union.sort_unstable();

        Self { m, union, per_node }
    }

    /// True when the candidate union covers every instance: the pruned
    /// path degenerates to the dense one.
    pub fn is_exact(&self) -> bool {
        self.union.len() == self.m
    }

    /// The sorted candidate union (original instance ids).
    pub fn union(&self) -> &[u32] {
        &self.union
    }

    /// Node `v`'s sorted candidate list (original instance ids).
    pub fn node_candidates(&self, v: usize) -> &[u32] {
        &self.per_node[v]
    }

    /// Restricts `problem` to the candidate union: the returned
    /// sub-problem's instance `a` is original instance `to_original[a]`,
    /// its cost plane is an O(K²) slice of the original arena, and
    /// `node_domains` carries the per-node lists remapped to sub indices
    /// (ready to seed CP bitset domains).
    pub fn restrict(&self, problem: &NodeDeployment) -> PrunedProblem {
        assert_eq!(problem.num_instances(), self.m, "candidate set built for another problem");
        let sub_costs: CostMatrix = problem.costs.submatrix(&self.union);
        self.restrict_to(NodeDeployment::new(problem.num_nodes, problem.edges.clone(), sub_costs))
    }

    /// [`CandidateSet::restrict`] onto a sub-problem the caller built
    /// itself: `sub`'s instance `a` must be original instance
    /// `union()[a]` — its costs the original costs between union
    /// members — so a caller holding its costs elsewhere than in a dense
    /// matrix never builds one.
    ///
    /// # Panics
    /// Panics if `sub` does not span exactly the candidate union.
    pub fn restrict_to(&self, sub: NodeDeployment) -> PrunedProblem {
        assert_eq!(sub.num_instances(), self.union.len(), "sub-problem spans another union");
        let mut to_sub = vec![u32::MAX; self.m];
        for (a, &j) in self.union.iter().enumerate() {
            to_sub[j as usize] = a as u32;
        }
        let node_domains = self
            .per_node
            .iter()
            .map(|list| list.iter().map(|&j| to_sub[j as usize]).collect())
            .collect();
        PrunedProblem { sub, to_original: self.union.clone(), to_sub, node_domains }
    }
}

/// A problem restricted to a candidate union, plus the index maps needed
/// to translate deployments, warm starts, and pins across the boundary.
#[derive(Debug, Clone)]
pub struct PrunedProblem {
    /// The restricted problem (instances renumbered `0..K`).
    pub sub: NodeDeployment,
    /// `to_original[a]` = original id of sub instance `a`.
    pub to_original: Vec<u32>,
    /// `to_sub[j]` = sub index of original instance `j`, or `u32::MAX`
    /// when `j` is not a candidate.
    pub to_sub: Vec<u32>,
    /// Per-node candidate lists in sub indices (CP domain seeds).
    pub node_domains: Vec<Vec<u32>>,
}

impl PrunedProblem {
    /// `problem` over every instance, unrestricted: the identity maps and
    /// full domains of a pool that covers all of it.
    pub fn dense(problem: NodeDeployment) -> Self {
        let m = problem.num_instances() as u32;
        let identity: Vec<u32> = (0..m).collect();
        let node_domains = vec![identity.clone(); problem.num_nodes];
        Self { sub: problem, to_original: identity.clone(), to_sub: identity, node_domains }
    }

    /// True when the sub-problem spans every original instance: solving
    /// it is solving the original problem.
    pub fn is_exact(&self) -> bool {
        self.to_original.len() == self.to_sub.len()
    }

    /// Maps a sub-problem deployment back to original instance ids.
    pub fn to_original_deployment(&self, d: &[u32]) -> Vec<u32> {
        d.iter().map(|&a| self.to_original[a as usize]).collect()
    }

    /// Maps an original-id deployment into the sub-problem, or `None` if
    /// it uses a non-candidate instance.
    pub fn to_sub_deployment(&self, d: &[u32]) -> Option<Vec<u32>> {
        d.iter()
            .map(|&j| {
                let a = self.to_sub[j as usize];
                (a != u32::MAX).then_some(a)
            })
            .collect()
    }

    /// Maps original-id pins into the sub-problem, or `None` if a pin
    /// references a non-candidate instance.
    pub fn to_sub_fixed(&self, fixed: &[Option<u32>]) -> Option<Vec<Option<u32>>> {
        fixed
            .iter()
            .map(|f| match f {
                None => Some(None),
                Some(j) => {
                    let a = self.to_sub[*j as usize];
                    (a != u32::MAX).then_some(Some(a))
                }
            })
            .collect()
    }
}

/// The point pool's one price lane: an observed direction prices at its
/// mean; an attempted-but-answerless one (a dark link under packet loss)
/// *is* evidence, not a coverage gap, and prices as unboundedly expensive
/// — so a dark instance is scored out of the pool instead of
/// force-included as "unmeasured".
fn mean_price(stats: &PairwiseStats) -> impl Fn(usize, usize, bool) -> [f64; 1] + '_ {
    let (m, mean) = (stats.len(), stats.mean_column());
    move |src, dst, observed| [if observed { mean[src * m + dst] } else { f64::INFINITY }]
}

/// The interval verdicts' two price lanes: an observed direction
/// contributes its CI `[lower, upper]` at `confidence` — the bits of
/// [`PairwiseStats::ci`], its critical value looked up in `critical`; a
/// dark direction is certain evidence of unreachability, `[+∞, +∞]`.
fn interval_price<'a>(
    stats: &'a PairwiseStats,
    confidence: f64,
    critical: &'a mut CriticalValues,
) -> impl FnMut(usize, usize, bool) -> [f64; 2] + 'a {
    move |src, dst, observed| {
        if observed {
            let ci =
                stats.ci_with_critical(src, dst, confidence, |df| critical.get(confidence, df));
            [ci.lower(), ci.upper()]
        } else {
            [f64::INFINITY; 2]
        }
    }
}

/// Student-t critical values by degrees of freedom at one confidence
/// level, each derived once: an interval index prices every touched link
/// at its level on every look, and a link's sample count — its degrees
/// of freedom — takes few distinct values.
#[derive(Debug, Default)]
struct CriticalValues(Vec<f64>);

impl CriticalValues {
    /// Degrees of freedom past which a value is derived, not kept.
    const KEPT: u64 = 1 << 13;

    /// [`cloudia_measure::t_critical`]`(confidence, df)`, bit for bit.
    /// The table answers for one level: the index starts a new one when
    /// its level changes.
    fn get(&mut self, confidence: f64, df: u64) -> f64 {
        if df >= Self::KEPT {
            return cloudia_measure::t_critical(confidence, df);
        }
        let at = df as usize;
        if at >= self.0.len() {
            self.0.resize(at + 1, f64::NAN);
        }
        if self.0[at].is_nan() {
            self.0[at] = cloudia_measure::t_critical(confidence, df);
        }
        self.0[at]
    }
}

/// Where the `quantile` sits among `len` ascending incident prices of one
/// of `m` instances — or `None` when the instance's incident coverage
/// (fraction of its `2(m−1)` directed links with evidence) is below
/// `min_coverage`: not enough evidence to rank it either way.
fn quantile_rank(len: usize, m: usize, quantile: f64, min_coverage: f64) -> Option<usize> {
    if len == 0 || (len as f64 / (2 * (m - 1)) as f64) < min_coverage {
        return None;
    }
    Some(((len - 1) as f64 * quantile).round() as usize)
}

/// The incident evidence of every instance, CSR-style in flat scratch
/// buffers: `L` parallel price lanes (one for the point pool, two for the
/// CI lower/upper bounds) over one shared offset table — the single
/// transcription of the evidence pass, behind the one-shot
/// [`CandidateSet::build_partial`] and, with no lanes (the offsets
/// alone count each instance's evidence), a [`PoolIndex`]'s bulk build
/// from statistics.
struct IncidentPrices<const L: usize> {
    /// `off[j]..off[j + 1]` indexes instance `j`'s incident prices.
    off: Vec<usize>,
    lanes: [Vec<f64>; L],
}

impl<const L: usize> IncidentPrices<L> {
    /// The m ≥ 10k hot loop: one contiguous row-major sweep over the flat
    /// count/attempt columns collects every observed (or attempted)
    /// directed link exactly once — no `LinkEstimate` views, and
    /// crucially no strided per-instance column walk (a stride-m pass
    /// over 100M-entry columns is cache-hostile enough to eat the whole
    /// columnar layout's gain). Each hit is priced by
    /// `price(src, dst, observed)` and feeds both endpoints' incident
    /// lists.
    fn scan(stats: &PairwiseStats, mut price: impl FnMut(usize, usize, bool) -> [f64; L]) -> Self {
        let m = stats.len();
        let count = stats.count_column();
        let attempts = stats.attempts_column();
        let mut hits: Vec<(u32, u32, [f64; L])> = Vec::new();
        for src in 0..m {
            let row = src * m;
            crate::kernels::scan_row_evidence(
                &count[row..row + m],
                &attempts[row..row + m],
                |dst, observed| hits.push((src as u32, dst as u32, price(src, dst, observed))),
            );
        }
        let mut off = vec![0usize; m + 1];
        for &(src, dst, _) in &hits {
            off[src as usize + 1] += 1;
            off[dst as usize + 1] += 1;
        }
        for j in 0..m {
            off[j + 1] += off[j];
        }
        let mut cursor = off.clone();
        let mut lanes: [Vec<f64>; L] = std::array::from_fn(|_| vec![0.0f64; off[m]]);
        for &(src, dst, prices) in &hits {
            for end in [src as usize, dst as usize] {
                for (lane, &p) in lanes.iter_mut().zip(&prices) {
                    lane[cursor[end]] = p;
                }
                cursor[end] += 1;
            }
        }
        Self { off, lanes }
    }

    /// Instance `j`'s score per lane — the `quantile` of its incident
    /// prices — or `None` when it is under-covered (see
    /// [`quantile_rank`]). Reorders the lanes in place (selection, not
    /// sort).
    fn scores(&mut self, j: usize, quantile: f64, min_coverage: f64) -> Option<[f64; L]> {
        let m = self.off.len() - 1;
        let (start, end) = (self.off[j], self.off[j + 1]);
        let rank = quantile_rank(end - start, m, quantile, min_coverage)?;
        Some(std::array::from_fn(|l| {
            *self.lanes[l][start..end].select_nth_unstable_by(rank, f64::total_cmp).1
        }))
    }
}

/// How many of one instance's incident prices a [`Window`] keeps sorted.
const WINDOW: usize = 32;

/// Touched links per instance up to which [`PoolIndex::sync_touched`]
/// re-prices instead of bulk-building ([`PoolIndex::reprice_budget`]).
/// Re-pricing `t` random links and reading every score, against a bulk
/// build and the same reads (one 2-vCPU host, fastest of 12 trials),
/// breaks even between `t = 40·m` and `48·m` at m = 200 and 300 and near
/// `56·m` at m = 500; at `64·m` re-pricing costs 1.1–1.6× the build at
/// all three. The budget sits at the crossover of the smallest of them.
/// It decides only how the index gets there: either way the scores are
/// the same.
pub const REPRICE_PER_INSTANCE: usize = 40;

/// A sorted run of at most [`WINDOW`] of one instance's incident prices
/// on one lane: the entries at ranks `below .. below + len` of its
/// incident multiset (ascending under `f64::total_cmp`), kept as their
/// [`order_key`]s, so every comparison is an integer one. Prices ranked
/// outside the run are only counted, never kept in order. An empty run
/// is stale: it tracks nothing until it is filled again. Edits name a
/// price by its key.
#[derive(Debug, Clone, Copy)]
struct Window {
    /// Incident prices ranked below the run.
    below: usize,
    /// The rank the run was last filled around: an overflowing run drops
    /// the end farther from it.
    centre: usize,
    len: usize,
    /// One slot past [`WINDOW`], for the entry an insertion pushes out.
    run: [i64; WINDOW + 1],
}

impl Window {
    const STALE: Self = Self { below: 0, centre: 0, len: 0, run: [0; WINDOW + 1] };

    fn run(&self) -> &[i64] {
        &self.run[..self.len]
    }

    /// True when the run holds the entry at `rank`.
    fn covers(&self, rank: usize) -> bool {
        self.below <= rank && rank < self.below + self.len
    }

    /// The price at `rank`, which the run covers.
    fn at(&self, rank: usize) -> f64 {
        from_order_key(self.run[rank - self.below])
    }

    /// Takes one copy of the price keyed `key` — an incident price of the
    /// instance — out of the multiset. Copies are indistinguishable, so
    /// taking one from the run or from outside it leaves the same
    /// multiset and the same run.
    fn remove(&mut self, key: i64) {
        let Some((&first, &last)) = self.run().first().zip(self.run().last()) else {
            return;
        };
        if key < first {
            self.below -= 1;
        } else if key <= last {
            let at = self
                .run()
                .binary_search(&key)
                .expect("a price inside the run's range sits on the run");
            self.run.copy_within(at + 1..self.len, at);
            self.len -= 1;
        }
    }

    /// Adds the price keyed `key` to a multiset of `total` incident
    /// prices. A price past either end of the run joins it only where the
    /// run reaches that end of the multiset; an overflowing run drops the
    /// end farther from its centre.
    fn insert(&mut self, key: i64, total: usize) {
        let Some((&first, &last)) = self.run().first().zip(self.run().last()) else {
            return;
        };
        let at = if key < first {
            if self.below > 0 {
                self.below += 1;
                return;
            }
            0
        } else if key > last {
            if self.below + self.len < total {
                return;
            }
            self.len
        } else {
            self.run().partition_point(|&k| k < key)
        };
        self.run.copy_within(at..self.len, at + 1);
        self.run[at] = key;
        self.len += 1;
        if self.len > WINDOW {
            let back = self.below + WINDOW;
            if self.centre.abs_diff(self.below) > self.centre.abs_diff(back) {
                self.run.copy_within(1..self.len, 0);
                self.below += 1;
            }
            self.len = WINDOW;
        }
    }

    /// [`Window::remove`] of `old`, then [`Window::insert`] of `new` into
    /// the `total` prices left: the same run, but where `old` sits on the
    /// run and `new` joins it, one shift of the entries between the two
    /// places instead of one to close the gap and one to open another.
    fn replace(&mut self, old: i64, new: i64, total: usize) {
        let run = self.run();
        if run.len() < 2 || old < run[0] || old > run[run.len() - 1] {
            self.remove(old);
            return self.insert(new, total);
        }
        let hole = run.binary_search(&old).expect("a price inside the run's range sits on the run");
        // The run without the hole: its ends, and where `new` ranks in it.
        let last = self.len - 1;
        let first = run[usize::from(hole == 0)];
        let end = run[if hole == last { last - 1 } else { last }];
        if (new < first && self.below > 0) || (new > end && self.below + last < total) {
            // `new` ranks past an end the run does not reach: counted
            // below it, or not at all.
            self.below += usize::from(new < first);
            self.run.copy_within(hole + 1..self.len, hole);
            self.len -= 1;
            return;
        }
        let ahead = run.partition_point(|&k| k < new);
        let at = ahead - usize::from(hole < ahead);
        if at <= hole {
            self.run.copy_within(at..hole, at + 1);
        } else {
            self.run.copy_within(hole + 1..at + 1, hole);
        }
        self.run[at] = new;
    }

    /// Fills the run from `incident`, the keys of all of the instance's
    /// prices on this lane (reordered in place), around `rank`: two
    /// selections and a sort of at most [`WINDOW`] entries.
    fn fill(&mut self, incident: &mut [i64], rank: usize) {
        let n = incident.len();
        let lo = rank.saturating_sub(WINDOW / 2).min(n.saturating_sub(WINDOW));
        let hi = (lo + WINDOW).min(n);
        if lo > 0 {
            incident.select_nth_unstable(lo);
        }
        let tail = &mut incident[lo..];
        if hi < n {
            tail.select_nth_unstable(hi - lo - 1);
        }
        let run = &mut tail[..hi - lo];
        run.sort_unstable();
        self.run[..run.len()].copy_from_slice(run);
        (self.below, self.centre, self.len) = (lo, rank, run.len());
    }
}

/// `price` as an integer that orders as [`f64::total_cmp`] orders prices
/// — the key `total_cmp` compares — so selections and sorts over
/// gathered prices run on plain integer comparisons.
fn order_key(price: f64) -> i64 {
    let bits = price.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// The price whose [`order_key`] is `key` (the map is its own inverse).
fn from_order_key(key: i64) -> f64 {
    f64::from_bits(order_key(f64::from_bits(key as u64)) as u64)
}

/// Instances per miss below which a read gathers each missing instance's
/// prices off its row and column of the price cache, and at or above
/// which one row-major pass over the cache gathers them all: a column is
/// `m` strided reads, a pass `m²` contiguous ones plus a test per link.
/// Timed on one 2-vCPU host (fastest of 15 trials, random prices), the
/// two break even between `m / 3` and `m / 2` misses on a full cache
/// (m = 200 and 300, one or two lanes) and near `2m / 3` on a cache 40 %
/// full; at `m / 8` misses the row-major pass costs 2–4× the columns, at
/// `m` misses 0.5–0.8× of them.
const BATCH_GATHER: usize = 2;

/// Every instance's windows and kept scores, behind the index's interior
/// mutability: a read refreshes the scores of the instances a re-price
/// touched since the last read, and re-centres the windows that miss.
#[derive(Debug)]
struct Windows<const L: usize> {
    /// `runs[j][l]`: instance `j`'s window on lane `l`.
    runs: Vec<[Window; L]>,
    /// The quantile and coverage (bits) `scores` answer for; `None`
    /// before the first read and after a bulk build.
    read: Option<(u64, u64)>,
    /// [`quantile_rank`] at `read` by an instance's count of incident
    /// prices.
    ranks: Vec<Option<u32>>,
    /// `scores[j]`: instance `j`'s scores at `read`, unless `stale[j]`.
    scores: Vec<Option<[f64; L]>>,
    stale: Vec<bool>,
    /// The stale instances, each listed once.
    touched: Vec<u32>,
    /// Stale instances whose windows miss their rank: `(instance, rank)`.
    misses: Vec<(u32, u32)>,
    /// The misses' incident prices per lane, as [`order_key`]s,
    /// `misses[i]`'s at `off[i]..off[i + 1]`.
    off: Vec<usize>,
    lanes: [Vec<i64>; L],
    /// During a row-major gather, `slot[j]` is instance `j`'s place in
    /// `misses` (`u32::MAX`: not a miss).
    slot: Vec<u32>,
    /// Windows filled so far.
    fills: u64,
    /// Set by [`PoolIndex::rebuild`], cleared by the next re-price: a
    /// read that misses then selects its score from the gathered prices
    /// and leaves the window stale. A caller whose every read follows a
    /// bulk build (a loop of whole sweeps) would otherwise fill every
    /// window for nothing; the fill waits for a read after a re-price,
    /// whose window the next re-prices maintain.
    select_once: bool,
}

impl<const L: usize> Default for Windows<L> {
    fn default() -> Self {
        Self {
            runs: Vec::new(),
            read: None,
            ranks: Vec::new(),
            scores: Vec::new(),
            stale: Vec::new(),
            touched: Vec::new(),
            misses: Vec::new(),
            off: Vec::new(),
            lanes: std::array::from_fn(|_| Vec::new()),
            slot: Vec::new(),
            fills: 0,
            select_once: false,
        }
    }
}

impl<const L: usize> Windows<L> {
    /// Marks instance `j`'s score stale.
    fn touch(&mut self, j: usize) {
        if !std::mem::replace(&mut self.stale[j], true) {
            self.touched.push(j as u32);
        }
    }
}

/// Every directed link's price per lane, at `src * m + dst`: the lanes
/// in one flat column and a bit per link for whether it has evidence — a
/// link costs `8·L` bytes and a bit, where an `Option` per link cost
/// `8·L + 8`.
#[derive(Debug, Default)]
struct Prices<const L: usize> {
    lanes: Vec<[f64; L]>,
    /// Bit `idx % 64` of word `idx / 64`: link `idx` has evidence.
    evidence: Vec<u64>,
}

impl<const L: usize> Prices<L> {
    /// `links` links, none with evidence (a lane is read only where its
    /// link has evidence, so the old lanes may stay).
    fn reset(&mut self, links: usize) {
        self.lanes.resize(links, [0.0; L]);
        self.evidence.clear();
        self.evidence.resize(links.div_ceil(64), 0);
    }

    fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Link `idx`'s price, `None` without evidence.
    fn get(&self, idx: usize) -> Option<[f64; L]> {
        (self.evidence[idx / 64] >> (idx % 64) & 1 != 0).then(|| self.lanes[idx])
    }

    /// Sets link `idx`'s price, returning the one it replaces.
    fn set(&mut self, idx: usize, price: Option<[f64; L]>) -> Option<[f64; L]> {
        let old = self.get(idx);
        let bit = 1u64 << (idx % 64);
        match price {
            Some(price) => {
                self.lanes[idx] = price;
                self.evidence[idx / 64] |= bit;
            }
            None => self.evidence[idx / 64] &= !bit,
        }
        old
    }
}

/// The rules' evidence, maintained instead of rescanned: the price each
/// directed link currently contributes, every instance's count of
/// incident prices, per instance and lane a [`Window`] — a sorted run of
/// the [`WINDOW`] incident prices ranked around the quantile last read —
/// and every instance's score as last read. A rule is evaluated between
/// every two stages of a sweep, and a stage changes at most `m / 2`
/// links — so after one bulk build, [`PoolIndex::sync_means`] /
/// [`PoolIndex::sync_intervals`] re-price only the links the statistics'
/// touch log names ([`PairwiseStats::touched_since`]) and move their
/// entries in both endpoints' windows (or only the count below a window).
/// A read ([`PoolIndex::all_scores`]) then re-scores only the instances
/// those links touched, each a read inside its window at the quantile's
/// rank. A window that does not cover the rank — its first read, one
/// after a bulk build, one at another quantile, or one after re-pricing
/// drained or shifted the run — refills from the instance's incident
/// prices around the rank. A few misses gather their prices off the price
/// cache's row and column; many (half the instances or more, as every
/// instance after a bulk build) lay them all out contiguously in one
/// row-major pass over the cache, as the evidence pass does over the
/// statistics. Scores are bit-identical to a
/// from-scratch evidence pass over the same statistics: a window holds
/// exactly the entries a sort of the pass's prices puts at its ranks, and
/// a selection returns the element a sort puts at that rank.
///
/// An index follows one statistics *history*: handed statistics of
/// another lineage (a clone, another store), ones whose log has overrun
/// since the last sync, or a new confidence level, it rebuilds. Evidence
/// kept outside a [`PairwiseStats`] — the online store's estimates — is
/// followed the same way from an explicit list of touched links
/// ([`PoolIndex::sync_touched`]). A bulk build fills the price cache and
/// the counts; windows fill on their first read — after
/// [`PoolIndex::rebuild`], on the first read after a re-price.
///
/// Public for the online advisor, which keeps its indexes for a whole
/// run, and the `kernel_bench` races; not part of the API.
#[doc(hidden)]
#[derive(Debug)]
pub struct PoolIndex<const L: usize> {
    /// How far along the statistics' touch log the index is current;
    /// `None` before the first build, or while it follows evidence
    /// outside a statistics history.
    cursor: Option<TouchCursor>,
    /// The bits of the confidence level the lanes are priced at (0 for
    /// means).
    level: u64,
    /// The critical values of `level` (intervals only).
    critical: CriticalValues,
    m: usize,
    /// The lanes' price of each directed link as it sits in both
    /// endpoints' multisets.
    price: Prices<L>,
    /// `count[j]`: instance `j`'s incident prices (per lane).
    count: Vec<usize>,
    windows: RefCell<Windows<L>>,
    rebuilds: u64,
}

impl<const L: usize> Default for PoolIndex<L> {
    fn default() -> Self {
        Self {
            cursor: None,
            level: 0,
            critical: CriticalValues::default(),
            m: 0,
            price: Prices::default(),
            count: Vec::new(),
            windows: RefCell::default(),
            rebuilds: 0,
        }
    }
}

impl PoolIndex<1> {
    /// Brings the point-pool index (lane: [`mean_price`]) up to `stats`.
    /// Returns how: `None` for a bulk build, else the links re-priced.
    pub fn sync_means(&mut self, stats: &PairwiseStats) -> Option<u64> {
        self.sync(stats, 0, mean_price(stats))
    }
}

impl PoolIndex<2> {
    /// Brings the interval index (lanes: [`interval_price`] at
    /// `confidence`) up to `stats`; synced at another level before, it
    /// rebuilds. Returns how, as [`PoolIndex::sync_means`].
    pub fn sync_intervals(&mut self, stats: &PairwiseStats, confidence: f64) -> Option<u64> {
        let level = confidence.to_bits();
        let mut critical = if level == self.level {
            std::mem::take(&mut self.critical)
        } else {
            CriticalValues::default()
        };
        let synced = self.sync(stats, level, interval_price(stats, confidence, &mut critical));
        self.critical = critical;
        synced
    }
}

impl<const L: usize> PoolIndex<L> {
    /// Times the index was bulk-built instead of re-priced link by link.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Times a read filled an instance's windows instead of reading
    /// inside them.
    pub fn window_rebuilds(&self) -> u64 {
        self.windows.borrow().fills
    }

    /// Brings the index up to `stats`: re-prices the links touched since
    /// the last sync (returning how many), or — on the first sync, on
    /// another history, past an overrun log or at another `level` (what
    /// the prices depend on besides the statistics: the bits of a
    /// confidence level) — bulk-builds (returning `None`).
    fn sync(
        &mut self,
        stats: &PairwiseStats,
        level: u64,
        mut price: impl FnMut(usize, usize, bool) -> [f64; L],
    ) -> Option<u64> {
        let cursor = self.cursor.filter(|_| self.level == level);
        let synced = match cursor.and_then(|cursor| stats.touched_since(cursor)) {
            Some(touched) => {
                let (count, attempts) = (stats.count_column(), stats.attempts_column());
                let mut synced = 0u64;
                for (src, dst) in touched {
                    // The evidence test of `scan_row_evidence`.
                    let idx = src * self.m + dst;
                    let observed = count[idx] > 0;
                    let evidence = observed || attempts[idx] > 0;
                    self.reprice(src, dst, evidence.then(|| price(src, dst, observed)));
                    synced += 1;
                }
                Some(synced)
            }
            None => {
                let m = stats.len();
                self.reset(m);
                let cache = &mut self.price;
                // The evidence pass with no lanes to collect: the cache
                // takes the prices, the offsets give the counts.
                let incident: IncidentPrices<0> =
                    IncidentPrices::scan(stats, |src, dst, observed| {
                        cache.set(src * m + dst, Some(price(src, dst, observed)));
                        []
                    });
                for (count, w) in self.count.iter_mut().zip(incident.off.windows(2)) {
                    *count = w[1] - w[0];
                }
                None
            }
        };
        (self.cursor, self.level) = (Some(stats.touch_cursor()), level);
        synced
    }

    /// Brings the index up to evidence kept outside a [`PairwiseStats`]
    /// over `m` instances: `touched` names the directed links
    /// (`src * m + dst`) whose evidence may have changed since the last
    /// call, `price(src, dst)` is a link's evidence now (`None`: none;
    /// self links never have any). Re-prices the touched links — or
    /// rebuilds ([`PoolIndex::rebuild`]) on the first call, after a sync
    /// from statistics, or past [`PoolIndex::reprice_budget`] links:
    /// beyond that, one bulk build is the cheaper way to the same scores.
    pub fn sync_touched(
        &mut self,
        m: usize,
        touched: impl ExactSizeIterator<Item = usize>,
        price: impl Fn(usize, usize) -> Option<[f64; L]>,
    ) {
        let current = self.cursor.take().is_none() && self.price.len() == m * m;
        if !current || touched.len() > Self::reprice_budget(m) {
            return self.rebuild(m, price);
        }
        for idx in touched {
            let (src, dst) = (idx / m, idx % m);
            self.reprice(src, dst, if src == dst { None } else { price(src, dst) });
        }
    }

    /// The most touched links [`PoolIndex::sync_touched`] re-prices one
    /// by one over `m` instances. A re-price moves a link's entry in two
    /// windows; a bulk build writes all m² prices and leaves every window
    /// stale, so the reads that follow refill all m of them, O(m) each
    /// (measured in [`REPRICE_PER_INSTANCE`]).
    pub fn reprice_budget(m: usize) -> usize {
        REPRICE_PER_INSTANCE * m
    }

    /// Bulk-builds the index from `price` over every directed link of `m`
    /// instances (see [`PoolIndex::sync_touched`]). Reads select their
    /// scores from the prices laid out contiguously until the next
    /// re-price; windows fill on the first read after it.
    pub fn rebuild(&mut self, m: usize, price: impl Fn(usize, usize) -> Option<[f64; L]>) {
        self.reset(m);
        self.windows.get_mut().select_once = true;
        for src in 0..m {
            for dst in (0..m).filter(|&dst| dst != src) {
                if let Some(prices) = price(src, dst) {
                    self.price.set(src * m + dst, Some(prices));
                    self.count[src] += 1;
                    self.count[dst] += 1;
                }
            }
        }
    }

    /// Empties the index for a bulk build over `m` instances: no prices,
    /// zero counts, every window stale and no score kept.
    fn reset(&mut self, m: usize) {
        self.m = m;
        self.rebuilds += 1;
        self.price.reset(m * m);
        self.count.clear();
        self.count.resize(m, 0);
        let windows = self.windows.get_mut();
        windows.runs.clear();
        windows.runs.resize(m, [Window::STALE; L]);
        windows.read = None;
        windows.scores.clear();
        windows.scores.resize(m, None);
        windows.stale.clear();
        windows.stale.resize(m, false);
        windows.touched.clear();
        windows.select_once = false;
    }

    /// Replaces what directed link `src → dst` contributes to its
    /// endpoints' multisets with `new`: moves its entries in both
    /// endpoints' windows and counts, and marks their scores stale.
    fn reprice(&mut self, src: usize, dst: usize, new: Option<[f64; L]>) {
        let windows = self.windows.get_mut();
        windows.select_once = false;
        let old = self.price.set(src * self.m + dst, new);
        let bits = |p: Option<[f64; L]>| p.map(|p| p.map(f64::to_bits));
        if bits(old) == bits(new) {
            return;
        }
        for end in [src, dst] {
            windows.touch(end);
            let (count, runs) = (&mut self.count[end], &mut windows.runs[end]);
            match (old, new) {
                (Some(old), Some(new)) => {
                    for ((window, &old), &new) in runs.iter_mut().zip(&old).zip(&new) {
                        window.replace(order_key(old), order_key(new), *count - 1);
                    }
                }
                (Some(old), None) => {
                    *count -= 1;
                    for (window, &price) in runs.iter_mut().zip(&old) {
                        window.remove(order_key(price));
                    }
                }
                (None, Some(new)) => {
                    for (window, &price) in runs.iter_mut().zip(&new) {
                        window.insert(order_key(price), *count);
                    }
                    *count += 1;
                }
                (None, None) => {}
            }
        }
    }

    /// Instance `j`'s score per lane — the `quantile` of its incident
    /// prices — or `None` when it is under-covered (see
    /// [`quantile_rank`]): [`PoolIndex::all_scores`]' entry for `j`.
    pub fn scores(&self, j: usize, quantile: f64, min_coverage: f64) -> Option<[f64; L]> {
        self.all_scores(quantile, min_coverage)[j]
    }

    /// Every instance's score per lane at `quantile` and `min_coverage`
    /// (as [`PoolIndex::scores`]). Re-scores only the instances whose
    /// incident prices moved since the last read at the same quantile and
    /// coverage, each inside its windows, filling those that miss the
    /// rank first.
    pub fn all_scores(&self, quantile: f64, min_coverage: f64) -> Ref<'_, [Option<[f64; L]>]> {
        self.refresh(quantile, min_coverage);
        Ref::map(self.windows.borrow(), |windows| &windows.scores[..])
    }

    /// Brings every kept score up to the index at `quantile` and
    /// `min_coverage`.
    fn refresh(&self, quantile: f64, min_coverage: f64) {
        let mut state = self.windows.borrow_mut();
        let windows = &mut *state;
        let key = (quantile.to_bits(), min_coverage.to_bits());
        if windows.read != Some(key) {
            windows.read = Some(key);
            let m = self.m;
            let most = 2 * m.saturating_sub(1);
            windows.ranks.clear();
            windows.ranks.extend(
                (0..=most).map(|len| Some(quantile_rank(len, m, quantile, min_coverage)? as u32)),
            );
            (0..m).for_each(|j| windows.touch(j));
        }
        let Windows {
            runs,
            ranks,
            scores,
            stale,
            touched,
            misses,
            off,
            lanes,
            slot,
            fills,
            select_once,
            ..
        } = windows;
        misses.clear();
        for j in touched.drain(..).map(|j| j as usize) {
            stale[j] = false;
            scores[j] = match ranks[self.count[j]].map(|rank| rank as usize) {
                Some(rank) if runs[j].iter().all(|window| window.covers(rank)) => {
                    Some(std::array::from_fn(|l| runs[j][l].at(rank)))
                }
                Some(rank) => {
                    misses.push((j as u32, rank as u32));
                    None
                }
                None => None,
            };
        }
        if misses.is_empty() {
            return;
        }
        let row_major = misses.len() * BATCH_GATHER >= self.m;
        self.gather(misses, row_major, off, lanes, slot);
        for (i, &(j, rank)) in misses.iter().enumerate() {
            let (j, rank, span) = (j as usize, rank as usize, off[i]..off[i + 1]);
            if *select_once {
                scores[j] = Some(std::array::from_fn(|l| {
                    from_order_key(*lanes[l][span.clone()].select_nth_unstable(rank).1)
                }));
                continue;
            }
            for (window, lane) in runs[j].iter_mut().zip(lanes.iter_mut()) {
                window.fill(&mut lane[span.clone()], rank);
            }
            *fills += 1;
            scores[j] = Some(std::array::from_fn(|l| runs[j][l].at(rank)));
        }
        // A row-major gather holds half the incident prices or more once
        // more (all after a bulk build): let it go rather than keep it
        // resident.
        if row_major {
            *lanes = std::array::from_fn(|_| Vec::new());
        }
    }

    /// Lays the incident prices of every instance in `misses` out per
    /// lane, `misses[i]`'s at `off[i]..off[i + 1]`: off each one's row and
    /// column of the price cache, or in one row-major pass over the cache
    /// for all of them ([`BATCH_GATHER`]).
    fn gather(
        &self,
        misses: &[(u32, u32)],
        row_major: bool,
        off: &mut Vec<usize>,
        lanes: &mut [Vec<i64>; L],
        slot: &mut Vec<u32>,
    ) {
        let m = self.m;
        off.clear();
        off.push(0);
        for &(j, _) in misses {
            off.push(off[off.len() - 1] + self.count[j as usize]);
        }
        let total = off[misses.len()];
        for lane in lanes.iter_mut() {
            lane.clear();
            lane.resize(total, 0);
        }
        // `off[i]` is `misses[i]`'s write cursor: it ends where `i + 1`
        // starts, and shifting the table back restores it.
        let mut put = |off: &mut [usize], i: usize, prices: &[f64; L]| {
            for (lane, &p) in lanes.iter_mut().zip(prices) {
                lane[off[i]] = order_key(p);
            }
            off[i] += 1;
        };
        if !row_major {
            for (i, &(j, _)) in misses.iter().enumerate() {
                let j = j as usize;
                let (row, column) = ((j * m..(j + 1) * m), (j..m * m).step_by(m));
                for prices in row.chain(column).filter_map(|idx| self.price.get(idx)) {
                    put(off, i, &prices);
                }
            }
        } else {
            slot.clear();
            slot.resize(m, u32::MAX);
            for (i, &(j, _)) in misses.iter().enumerate() {
                slot[j as usize] = i as u32;
            }
            for src in 0..m {
                let from = slot[src];
                for dst in 0..m {
                    let Some(prices) = self.price.get(src * m + dst) else { continue };
                    for end in [from, slot[dst]] {
                        if end != u32::MAX {
                            put(off, end as usize, &prices);
                        }
                    }
                }
            }
        }
        off.copy_within(0..misses.len(), 1);
        off[0] = 0;
        debug_assert_eq!(off[misses.len()], total);
    }
}

/// The evidence a [`CandidatePruneRule`]'s verdicts read: point means, or
/// CI bounds at one confidence level, each in its own [`PoolIndex`].
/// Evidence only — pool size, incumbent, pins and protections stay the
/// rule's — so any number of rules, whatever their parameters, may read
/// one. Rules scoring at different quantiles read the same windows too,
/// and only cost their re-centring: a window sits around the rank last
/// read.
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct RuleIndex {
    means: PoolIndex<1>,
    intervals: PoolIndex<2>,
}

/// A [`RuleIndex`] that outlives the rules reading it: a caller that
/// builds a fresh rule every sweep over one long-lived statistics history
/// (the online advisor) keeps one for the whole run and hands it to each
/// sweep's rule ([`CandidatePruneRule::with_index`]).
#[doc(hidden)]
pub type SharedIndex = Arc<Mutex<RuleIndex>>;

fn lock(index: &SharedIndex) -> MutexGuard<'_, RuleIndex> {
    index.lock().expect("a pool index sync panicked")
}

/// What a rule's looks did to the index they read, tallied on the rule
/// and reported to the `sweep.rule.index_rebuilds` /
/// `sweep.rule.synced_links` / `sweep.rule.window_rebuilds` counters
/// under one registry lock: when the sweep that made the looks ends
/// ([`cloudia_measure::PruneRule::sweep_ended`]), after a look the rule
/// was asked for directly (`prune`, `stable`), and when the rule drops.
/// A clone starts a tally of its own.
#[derive(Debug, Default)]
struct LookTally {
    rebuilds: Cell<u64>,
    synced: Cell<u64>,
    fills: Cell<u64>,
}

impl LookTally {
    /// Adds one sync's outcome (see [`PoolIndex::sync_means`]).
    fn synced(&self, synced: Option<u64>) {
        match synced {
            None => self.rebuilds.set(self.rebuilds.get() + 1),
            Some(links) => self.synced.set(self.synced.get() + links),
        }
    }

    /// Runs a look's reads of `index`, adding the windows they filled.
    fn reads<const L: usize, T>(&self, index: &PoolIndex<L>, read: impl FnOnce() -> T) -> T {
        let before = index.window_rebuilds();
        let out = read();
        self.fills.set(self.fills.get() + index.window_rebuilds() - before);
        out
    }

    fn report(&self) {
        cloudia_obs::counters(&[
            ("sweep.rule.index_rebuilds", self.rebuilds.take()),
            ("sweep.rule.synced_links", self.synced.take()),
            ("sweep.rule.window_rebuilds", self.fills.take()),
        ]);
    }
}

impl Clone for LookTally {
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl Drop for LookTally {
    fn drop(&mut self) {
        self.report();
    }
}

/// The mid-sweep tournament prune rule (implements
/// [`cloudia_measure::PruneRule`]): between measurement stages it decides
/// from the **partial** statistics which instances are already out of
/// every node's candidate pool, and condemns every remaining pair with
/// such an endpoint — those links can never carry a deployment, so their
/// remaining probes are wasted budget. It is an instance rule: the driver
/// reads the verdict ([`cloudia_measure::PruneRule::condemned_instances`])
/// and strikes the unprotected pairs of each instance the first time it
/// is out, so a look never lists the remaining pairs.
///
/// One rule, with the evidence it demands as a parameter
/// ([`CandidatePruneRule::with_confidence`]):
///
/// * **no confidence level** (the default) — the point-estimate pool: an
///   instance is out when it falls outside the candidate union
///   [`CandidateSet::build_partial`] forms from the measured quantiles
///   (boundary ties resolved by instance index);
/// * **confidence `c`** — the error-bounded verdict: an instance is out
///   only when it is **provably** outside every pool at level `c` — even
///   the quantile of its incident CI *lower* bounds exceeds the
///   `pool_size`-th smallest quantile of rival CI *upper* bounds. A link
///   with fewer than two samples has an unbounded interval, so a 1-sample
///   endpoint can never be proven out — exactly the overconfidence the
///   zero-variance `Welford::variance()` would otherwise smuggle in.
///   Scores within a relative margin of `1 − c` of the pool boundary
///   count as ties, so clustered topologies (where whole racks score
///   near-identically) can still be resolved: an ε-tie for the last pool
///   slot is condemnable because keeping either side changes the
///   achievable cost by at most the margin — the same slack the anytime
///   contract's realized-error bound concedes.
///
/// Safety rails, in line with the candidate layer's contract, at either
/// setting:
///
/// * **incumbent instances** are never out, so no pair among them (in
///   particular no *deployed* link) is ever condemned;
/// * **explicitly protected pairs** ([`CandidatePruneRule::protect_pair`]
///   — detector-flagged links, links owed a staleness refresh) survive
///   even when an endpoint is out;
/// * **under-covered instances** (incident coverage below
///   [`CandidatePruneRule::DEFAULT_MIN_COVERAGE`]) cannot be proven out,
///   so early sweeps prune nothing they might regret.
///
/// With a confidence level the same object is also the **anytime stop
/// rule** (implements [`cloudia_measure::StopRule`]): it declares a sweep
/// stable once every remaining prune/pool decision is CI-stable, on
/// either of two criteria:
///
/// * **settled** — *every* instance's pool membership is decided at the
///   configured confidence (provably in, provably out, or
///   force-included), so further probing cannot change any downstream
///   verdict beyond the indifference margin; or
/// * **plateau** — at least one membership has been earned on evidence
///   and a full re-measurement's worth of fresh samples (at least one
///   per remaining pair) moved *no* verdict: the sweep's marginal
///   samples have stopped moving decisions, so the rest of this
///   schedule is spent information-free. Undecided instances keep
///   accumulating evidence on later sweeps (and their stale pairs are
///   re-protected on the refresh horizon), so the verdicts they still
///   owe are deferred, not lost.
///
/// Under-covered instances veto both criteria, so an early sweep can
/// never stop before the evidence threshold is met. A point rule never
/// declares stability. The plateau criterion makes a rule **stateful
/// across consecutive [`cloudia_measure::StopRule::stable`] calls**: it
/// fingerprints the per-instance verdict vector and compares it with the
/// previous evaluation's, so build a fresh rule per sweep (as
/// `OnlineAdvisor` does each epoch). By default the protected pairs keep
/// probing after the stop fires ([`cloudia_measure::StopRule::must_keep`]);
/// [`CandidatePruneRule::with_must_keep`] narrows that set.
///
/// Evaluation is incremental: the rule reads a [`RuleIndex`] of the
/// evidence behind interior mutability, bulk-built on the first
/// evaluation and from then on re-priced only for the links the
/// statistics' touch log says moved since the last one — O(touched
/// links) per between-stage call instead of a pass over all m² columns,
/// with the same verdicts. Evaluated on other statistics (a clone,
/// another store) the index rebuilds. Clones of a rule read its index;
/// the index can also outlive the rule
/// ([`CandidatePruneRule::with_index`]). A look re-scores only the
/// instances the re-priced links touched ([`PoolIndex::all_scores`]), and
/// re-ranks from the order the rule's last look left: the point ranking,
/// or the interval scores' optimistic order. The interval scores a
/// stage's `stable` and the verdict both read are built once and cached on
/// the rule itself, never in the index, and dropped by every builder that
/// changes what they are computed from, so they only ever answer for the
/// parameters that built them.
#[derive(Debug, Clone)]
pub struct CandidatePruneRule {
    num_nodes: usize,
    config: CandidateConfig,
    /// The level of the CI separations demanded; `None`: point quantiles.
    confidence: Option<f64>,
    incumbent: Option<Vec<u32>>,
    protected: PairSet,
    /// Unordered pairs that keep probing after the stop fires; `None`:
    /// the protected ones.
    keep: Option<PairSet>,
    index: SharedIndex,
    /// What one look leaves the next.
    look: RefCell<Look>,
    /// `(verdict fingerprint, total samples)` at the last plateau
    /// checkpoint; `None` before the first evaluation (or after an
    /// under-covered veto reset). A new checkpoint is only compared
    /// once at least one fresh sample per remaining pair has landed
    /// since it was recorded.
    checkpoint: Cell<Option<(u64, u64)>>,
    tally: LookTally,
}

/// What a [`CandidatePruneRule`]'s look keeps for the next one.
#[derive(Debug, Clone, Default)]
struct Look {
    /// Where the statistics' touch log stood when `ci` was derived: a
    /// stage asks for the interval scores twice (`stable`, then the
    /// verdict) and builds them once. `None`: not derived yet.
    at: Option<TouchCursor>,
    ci: CiScores,
    /// Every instance as the last point look ranked it: under-covered
    /// first, then by score, ties by index.
    order: Vec<u32>,
}

/// Entry moves per entry past which [`resort`] gives up inserting and
/// sorts. Timed on one 2-vCPU host (fastest of 30 trials, 200 or 300
/// entries with some of their scores moved), insertion costs 0.1–0.5× a
/// full sort up to 5 moves per entry and breaks even between 9 and 13.
const RESORT_MOVES: usize = 10;

/// Sorts `order` by `cmp` from the order it holds — a permutation of
/// `0..len` kept from the last sort: by insertion, linear in `len` plus
/// how far entries move, while the moves stay within [`RESORT_MOVES`]
/// per entry; by a full sort when they outgrow that, or when `order` is
/// not yet a permutation of `0..len`.
fn resort(order: &mut Vec<u32>, len: usize, cmp: impl Fn(u32, u32) -> std::cmp::Ordering) {
    if order.len() != len {
        order.clear();
        order.extend(0..len as u32);
        return order.sort_unstable_by(|&a, &b| cmp(a, b));
    }
    let mut moves = 0;
    for i in 1..len {
        let entry = order[i];
        let mut at = i;
        while at > 0 && cmp(entry, order[at - 1]).is_lt() {
            order[at] = order[at - 1];
            at -= 1;
        }
        order[at] = entry;
        moves += i - at;
        if moves > RESORT_MOVES * len {
            return order.sort_unstable_by(|&a, &b| cmp(a, b));
        }
    }
}

impl CandidatePruneRule {
    /// Default incident-coverage fraction below which an instance cannot
    /// be proven uncompetitive — shared by every caller that builds
    /// partial pools (the rule itself, and the online advisor's
    /// mid-sweep probe-plan cliques), so plan and prune agree on the
    /// evidence threshold.
    pub const DEFAULT_MIN_COVERAGE: f64 = 0.5;

    /// A point-estimate rule for problems with `num_nodes` application
    /// nodes, sizing pools by `config` and requiring
    /// [`CandidatePruneRule::DEFAULT_MIN_COVERAGE`] incident coverage
    /// before an instance may be proven out.
    pub fn new(num_nodes: usize, config: CandidateConfig) -> Self {
        Self {
            num_nodes,
            config,
            confidence: None,
            incumbent: None,
            protected: PairSet::new(),
            keep: None,
            index: SharedIndex::default(),
            look: RefCell::default(),
            checkpoint: Cell::new(None),
            tally: LookTally::default(),
        }
    }

    /// Reads the evidence from `index` instead of an index of the rule's
    /// own. A caller that builds a fresh rule every sweep over one
    /// long-lived statistics history (the online advisor) keeps one index
    /// for the whole run and hands it to each sweep's rule, so a sweep
    /// starts by syncing the links touched since the last evaluation
    /// instead of rebuilding. Point or interval evidence alike: the index
    /// holds evidence only, so rules with different parameters may share
    /// it.
    pub fn with_index(mut self, index: &SharedIndex) -> Self {
        self.index = Arc::clone(index);
        self
    }

    /// Demands CI separation at `confidence` (strictly in `(0, 1)`)
    /// before condemning anything, instead of point-quantile rank, up to a
    /// relative indifference margin of `1 − confidence`: scores within it
    /// of the pool boundary count as ties, so ε-tied instances can be
    /// settled (in *or* out) instead of blocking every decision forever.
    /// Choosing among ε-tied instances changes a pool-restricted
    /// deployment cost by at most the margin relative — the slack the
    /// anytime contract's realized-error bound concedes.
    ///
    /// # Panics
    /// Panics if `confidence` is outside `(0, 1)`.
    pub fn with_confidence(self, confidence: f64) -> Self {
        assert!(
            confidence > 0.0 && confidence < 1.0,
            "confidence must be in (0,1), got {confidence}"
        );
        Self { confidence: Some(confidence), ..self }.rescored()
    }

    /// Registers the incumbent deployment: its instances are never
    /// proven out, so deployed links are never condemned.
    pub fn with_incumbent(self, incumbent: &[u32]) -> Self {
        assert_eq!(incumbent.len(), self.num_nodes, "incumbent must cover every node");
        Self { incumbent: Some(incumbent.to_vec()), ..self }.rescored()
    }

    /// The rule with a scoring parameter changed: what it derived and
    /// fingerprinted before answers for the old parameters.
    fn rescored(self) -> Self {
        Self { look: RefCell::default(), checkpoint: Cell::new(None), ..self }
    }

    /// Marks the unordered pair `{a, b}` as never prunable (flagged
    /// links, staleness refreshes, anything the caller still owes a
    /// measurement).
    pub fn protect_pair(&mut self, a: u32, b: u32) {
        self.protected.insert(a, b);
    }

    /// Number of explicitly protected pairs.
    pub fn protected_pairs(&self) -> usize {
        self.protected.len()
    }

    /// Replaces the set of pairs that keep probing after the stop fires
    /// (normalized unordered; by default the protected pairs). Use this
    /// to exempt pairs that are protected from *pruning* but don't need
    /// post-stop depth — stale refreshes are already served before the
    /// plateau can fire, while deployed/flagged links feed change
    /// detectors every epoch and must keep their full sample stream.
    pub fn with_must_keep<I: IntoIterator<Item = (u32, u32)>>(mut self, pairs: I) -> Self {
        self.keep = Some(pairs.into_iter().collect());
        self
    }

    /// The confidence level separations are demanded at (`None`: the
    /// point-estimate pool).
    pub fn confidence(&self) -> Option<f64> {
        self.confidence
    }

    /// The relative indifference margin of the interval verdicts,
    /// `1 − confidence` (unused without a confidence level).
    fn tolerance(&self) -> f64 {
        self.confidence.map_or(0.0, |confidence| 1.0 - confidence)
    }

    /// Writes the per-instance verdict into `out`: `true` where the
    /// instance is out of every candidate pool on the evidence this rule
    /// demands.
    fn out_of_pool(&self, stats: &PairwiseStats, out: &mut Vec<bool>) {
        let m = stats.len();
        out.clear();
        if let Some(confidence) = self.confidence {
            let scores = self.interval_scores(stats, confidence);
            return out.extend((0..m).map(|j| scores.provably_out(j)));
        }
        // Out = outside the candidate union `CandidateSet::build_partial`
        // forms from these statistics: the ranked pool plus the
        // incumbent instances.
        let pool_size = self.config.pool_size(self.num_nodes, m);
        if pool_size >= m {
            return out.resize(m, false);
        }
        let mut index = lock(&self.index);
        self.tally.synced(index.means.sync_means(stats));
        let index = &index.means;
        let scores =
            self.tally.reads(index, || index.all_scores(POOL_QUANTILE, Self::DEFAULT_MIN_COVERAGE));
        // The pool `CandidateSet::ranked_pool` takes: every instance it
        // cannot rank, then the `pool_size` cheapest, ties by index.
        let order = &mut self.look.borrow_mut().order;
        resort(order, m, |a, b| match (scores[a as usize], scores[b as usize]) {
            (Some([x]), Some([y])) => x.total_cmp(&y).then(a.cmp(&b)),
            (x, y) => x.is_some().cmp(&y.is_some()).then(a.cmp(&b)),
        });
        let forced = order.partition_point(|&j| scores[j as usize].is_none());
        let take = forced + pool_size.min(m - forced);
        out.resize(m, true);
        for &j in order[..take].iter().chain(self.incumbent.iter().flatten()) {
            out[j as usize] = false;
        }
    }

    /// The interval scores of `stats` at `confidence`, off the synced
    /// index — derived once per state of the statistics, however often the
    /// rule asks, in place of the last ones.
    fn interval_scores(&self, stats: &PairwiseStats, confidence: f64) -> Ref<'_, CiScores> {
        let at = stats.touch_cursor();
        if self.look.borrow().at != Some(at) {
            let mut index = lock(&self.index);
            self.tally.synced(index.intervals.sync_intervals(stats, confidence));
            let index = &index.intervals;
            let mut look = self.look.borrow_mut();
            self.tally.reads(index, || {
                let scores = index.all_scores(POOL_QUANTILE, Self::DEFAULT_MIN_COVERAGE);
                look.ci.derive(self, &scores);
            });
            look.at = Some(at);
        }
        Ref::map(self.look.borrow(), |look| &look.ci)
    }
}

/// An instance rule: the driver strikes the unprotected pairs of each
/// instance the first time it is out; `prune` is the same verdict over a
/// pair list.
impl PruneRule for CandidatePruneRule {
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.condemned_instances(stats, &mut out);
        self.tally.report();
        // Nobody is out until coverage builds up (every evaluation of a
        // bootstrap's first ~m/2 stages): nothing to scan for.
        if !out.contains(&true) {
            return Vec::new();
        }
        remaining
            .iter()
            .copied()
            .filter(|&(a, b)| (out[a as usize] || out[b as usize]) && !self.protects(a, b))
            .collect()
    }

    fn condemned_instances(&self, stats: &PairwiseStats, out: &mut Vec<bool>) -> bool {
        if stats.total_samples() == 0 {
            out.clear();
            out.resize(stats.len(), false);
        } else {
            self.out_of_pool(stats, out);
        }
        true
    }

    fn protects(&self, a: u32, b: u32) -> bool {
        self.protected.contains(a, b)
    }

    /// Syncs the index a look would read, so the next look starts from a
    /// short delta instead of an overrun log.
    fn look_skipped(&self, stats: &PairwiseStats) {
        let m = stats.len();
        if stats.total_samples() == 0 {
            return;
        }
        let mut index = lock(&self.index);
        let synced = match self.confidence {
            Some(confidence) => index.intervals.sync_intervals(stats, confidence),
            None if self.config.pool_size(self.num_nodes, m) < m => index.means.sync_means(stats),
            None => return,
        };
        self.tally.synced(synced);
    }

    fn sweep_ended(&self) {
        self.tally.report();
    }
}

impl StopRule for CandidatePruneRule {
    fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool {
        let stable = self.settled(stats, remaining.len());
        self.tally.report();
        stable
    }

    fn stable_by_count(&self, stats: &PairwiseStats, remaining: usize) -> Option<bool> {
        Some(self.settled(stats, remaining))
    }

    fn must_keep(&self, a: u32, b: u32) -> bool {
        self.keep.as_ref().unwrap_or(&self.protected).contains(a, b)
    }

    fn sweep_ended(&self) {
        self.tally.report();
    }
}

impl CandidatePruneRule {
    /// [`StopRule::stable`] with `remaining` distinct pairs still
    /// scheduled: the settled or plateau criterion.
    fn settled(&self, stats: &PairwiseStats, remaining: usize) -> bool {
        let Some(confidence) = self.confidence else {
            return false;
        };
        if stats.total_samples() == 0 || remaining == 0 {
            return false;
        }
        let scores = self.interval_scores(stats, confidence);
        let mut all_settled = true;
        let mut any_earned = false;
        let mut undercovered = false;
        // FNV-1a over the per-instance verdict vector: 1 in, 2 out,
        // 0 undecided (ε-ties canonicalize to "in").
        let mut fingerprint: u64 = 0xcbf2_9ce4_8422_2325;
        for j in 0..stats.len() {
            undercovered |= scores.undercovered[j];
            let verdict: u8 = if scores.provably_in(j) {
                1
            } else if scores.provably_out(j) {
                2
            } else {
                0
            };
            if verdict == 0 {
                all_settled = false;
            } else if !scores.forced[j] {
                any_earned = true;
            }
            fingerprint = (fingerprint ^ u64::from(verdict)).wrapping_mul(0x0100_0000_01b3);
        }
        if all_settled {
            return true;
        }
        if undercovered {
            self.checkpoint.set(None);
            return false;
        }
        let samples = stats.total_samples();
        match self.checkpoint.get() {
            None => {
                self.checkpoint.set(Some((fingerprint, samples)));
                false
            }
            // Too little fresh evidence since the checkpoint to judge a
            // plateau — keep measuring, keep the checkpoint.
            Some((_, at)) if samples.saturating_sub(at) < remaining as u64 => false,
            // A sweep-equivalent of fresh samples moved no verdict and at
            // least one verdict was earned (not forced): plateau — stop.
            Some((recorded, _)) if recorded == fingerprint && any_earned => true,
            // The evidence moved something (or nothing is earned yet):
            // re-arm the checkpoint at the current state.
            Some(_) => {
                self.checkpoint.set(Some((fingerprint, samples)));
                false
            }
        }
    }
}

/// Per-instance candidate-pool score *intervals*, derived from the
/// per-link confidence intervals of the partial statistics — the evidence
/// behind [`CandidatePruneRule`]'s interval verdicts and its anytime stop.
///
/// Where the point-estimate pool scores an instance by the quantile of
/// its incident mean costs, this scores it twice: once from the incident
/// CI *lower* bounds (the best competitive score the instance could still
/// achieve) and once from the *upper* bounds (the worst it could be). An
/// instance is **provably out** of every pool only when even its
/// optimistic score is beaten by `pool_size` instances' pessimistic
/// scores; **provably in** when even its pessimistic score beats all but
/// fewer than `pool_size` optimistic rivals. Everything in between is
/// still undecided and must keep measuring.
///
/// The rule's `1 − confidence` `tolerance` relaxes both verdicts by a
/// *relative indifference margin*: scores within it of the pool boundary
/// are treated as ties, because swapping two ε-tied instances perturbs
/// any pool-restricted deployment cost by at most that relative margin —
/// exactly the slack the anytime error contract already concedes. With
/// clustered topologies whole racks share near-identical scores, so
/// without the margin the rank test at the boundary can never settle and
/// the anytime stop would never fire.
#[derive(Debug, Clone, Default)]
struct CiScores {
    /// Optimistic per-instance pool score (quantile of incident CI lower
    /// bounds); 0 for under-covered instances.
    lo: Vec<f64>,
    /// Pessimistic per-instance pool score (quantile of incident CI
    /// upper bounds); `+∞` for under-covered instances.
    hi: Vec<f64>,
    /// Instances that can never be proven out (incumbent).
    forced: Vec<bool>,
    /// Instances with incident coverage below the evidence threshold.
    undercovered: Vec<bool>,
    pool_size: usize,
    /// `pool_size`-th smallest pessimistic score: an instance whose
    /// optimistic score exceeds this is provably out.
    out_threshold: f64,
    /// Every instance by optimistic and by pessimistic score, as the last
    /// derivation sorted them: the next one re-sorts from here.
    lo_order: Vec<u32>,
    hi_order: Vec<u32>,
    /// All optimistic scores, ascending, for the provably-in rank test.
    lo_sorted: Vec<f64>,
    /// Relative indifference margin; 0 demands strict interval
    /// separation.
    tolerance: f64,
}

impl CiScores {
    /// Re-derives the scores of `scores.len()` instances for `rule` in
    /// place; `scores[j]` is instance `j`'s quantile of incident CI lower
    /// and upper bounds, `None` when it is under-covered.
    fn derive(&mut self, rule: &CandidatePruneRule, scores: &[Option<[f64; 2]>]) {
        let m = scores.len();
        self.pool_size = rule.config.pool_size(rule.num_nodes, m);
        self.tolerance = rule.tolerance();
        self.forced.clear();
        self.forced.resize(m, false);
        for &j in rule.incumbent.iter().flatten() {
            self.forced[j as usize] = true;
        }
        // Not enough evidence either way: optimistic 0 (never provably
        // out), pessimistic ∞ (displaces nobody).
        let (lo, hi) = (&mut self.lo, &mut self.hi);
        lo.clear();
        lo.extend(scores.iter().map(|score| score.map_or(0.0, |[q_lo, _]| q_lo)));
        hi.clear();
        hi.extend(scores.iter().map(|score| score.map_or(f64::INFINITY, |[_, q_hi]| q_hi)));
        self.undercovered.clear();
        self.undercovered.extend(scores.iter().map(Option::is_none));

        resort(&mut self.hi_order, m, |a, b| hi[a as usize].total_cmp(&hi[b as usize]));
        self.out_threshold = if self.pool_size == 0 || self.pool_size > m {
            f64::INFINITY
        } else {
            hi[self.hi_order[self.pool_size - 1] as usize]
        };
        resort(&mut self.lo_order, m, |a, b| lo[a as usize].total_cmp(&lo[b as usize]));
        self.lo_sorted.clear();
        self.lo_sorted.extend(self.lo_order.iter().map(|&j| lo[j as usize]));
    }

    /// True when instance `j` provably sits outside every candidate
    /// pool: its *optimistic* score is beaten by `pool_size` instances'
    /// *pessimistic* scores — or, with a nonzero tolerance, fails to
    /// undercut the pool boundary by more than the indifference margin,
    /// making it at best an ε-tie for the last pool slot. Forced or
    /// under-covered instances are never provably out.
    fn provably_out(&self, j: usize) -> bool {
        !self.forced[j]
            && !self.undercovered[j]
            && self.lo[j] > self.out_threshold * (1.0 - self.tolerance)
    }

    /// True when instance `j` provably belongs to the pool: fewer than
    /// `pool_size` *other* instances could even optimistically beat its
    /// pessimistic score — with a nonzero tolerance, beat it by more
    /// than the indifference margin, so ε-tied rivals don't displace it.
    /// Forced instances are in by fiat; under-covered ones are never
    /// provably anything.
    fn provably_in(&self, j: usize) -> bool {
        if self.forced[j] {
            return true;
        }
        if self.undercovered[j] || !self.hi[j].is_finite() {
            return false;
        }
        let bar = self.hi[j] * (1.0 - self.tolerance);
        let below = self.lo_sorted.partition_point(|&x| x < bar);
        let others = below - usize::from(self.lo[j] < bar);
        others < self.pool_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Costs;

    fn clustered_problem(n: usize, m: usize, seed: u64) -> NodeDeployment {
        let edges = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        NodeDeployment::new(n, edges, Costs::random_clustered(m, 0.3, seed))
    }

    #[test]
    fn pool_prefers_well_connected_instances() {
        // Plant one pathological instance: every incident link is huge.
        let m = 12;
        let costs = Costs::from_fn(m, |i, j| if i == 7 || j == 7 { 50.0 } else { 1.0 });
        let p = NodeDeployment::new(4, vec![(0, 1), (1, 2), (2, 3)], costs);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(6), None, None);
        assert_eq!(cs.union().len(), 6);
        assert!(!cs.union().contains(&7), "congested instance selected: {:?}", cs.union());
    }

    #[test]
    fn incumbent_and_pins_are_always_reachable() {
        let p = clustered_problem(5, 30, 1);
        // Force the incumbent/pins onto the *worst* instances so the pool
        // alone would exclude them.
        let cs_plain = CandidateSet::build(&p, &CandidateConfig::fixed(8), None, None);
        let excluded: Vec<u32> =
            (0..30u32).filter(|j| !cs_plain.union().contains(j)).take(5).collect();
        let incumbent: Vec<u32> = excluded.clone();
        let fixed: Vec<Option<u32>> = vec![Some(excluded[2]), None, None, None, Some(excluded[4])];
        let cs =
            CandidateSet::build(&p, &CandidateConfig::fixed(8), Some(&incumbent), Some(&fixed));
        for (v, &j) in incumbent.iter().enumerate() {
            assert!(cs.node_candidates(v).contains(&j), "node {v} lost its incumbent");
        }
        assert!(cs.node_candidates(0).contains(&excluded[2]));
        let pr = cs.restrict(&p);
        let sub_inc = pr.to_sub_deployment(&incumbent).expect("incumbent maps into the union");
        assert_eq!(pr.to_original_deployment(&sub_inc), incumbent);
        assert!(pr.to_sub_fixed(&fixed).is_some());
    }

    #[test]
    fn exact_fallback_selects_everything() {
        let p = clustered_problem(4, 10, 2);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(10), None, None);
        assert!(cs.is_exact());
        assert_eq!(cs.union(), (0..10u32).collect::<Vec<_>>());
    }

    #[test]
    fn pool_never_smaller_than_node_count() {
        let p = clustered_problem(6, 20, 3);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(2), None, None);
        assert!(cs.union().len() >= 6, "union {:?} cannot host 6 nodes", cs.union());
    }

    #[test]
    fn restriction_preserves_costs_and_structure() {
        let p = clustered_problem(4, 16, 4);
        let cs = CandidateSet::build(&p, &CandidateConfig::fixed(6), None, None);
        let pr = cs.restrict(&p);
        assert_eq!(pr.sub.num_nodes, 4);
        assert_eq!(pr.sub.num_instances(), cs.union().len());
        for (a, &i) in pr.to_original.iter().enumerate() {
            for (b, &j) in pr.to_original.iter().enumerate() {
                assert_eq!(
                    pr.sub.costs.get(a, b),
                    if a == b { 0.0 } else { p.costs.get(i as usize, j as usize) }
                );
            }
        }
        // Domains are valid sub indices.
        for dom in &pr.node_domains {
            assert!(dom.iter().all(|&a| (a as usize) < pr.sub.num_instances()));
        }
    }

    #[test]
    fn auto_pool_size_scales_with_nodes() {
        let cfg = CandidateConfig::default();
        assert_eq!(cfg.pool_size(5, 2000), 48);
        assert_eq!(cfg.pool_size(30, 2000), 120);
        assert_eq!(cfg.pool_size(30, 60), 60);
        let explicit = CandidateConfig::fixed(10);
        assert_eq!(explicit.pool_size(4, 2000), 10);
        assert_eq!(explicit.pool_size(20, 2000), 20); // never below n
    }

    #[test]
    fn adaptive_policy_resolves_like_fixed_for_one_shot_solves() {
        let cfg = CandidateConfig::adaptive(AdaptivePoolConfig {
            initial: 12,
            ..AdaptivePoolConfig::default()
        });
        assert_eq!(cfg.pool_size(4, 2000), 12);
        let auto = CandidateConfig::adaptive(AdaptivePoolConfig::default());
        assert_eq!(auto.pool_size(5, 2000), 48);
    }

    #[test]
    fn one_shot_pool_size_matches_the_live_controller() {
        // The same adaptive config must select the same opening pool in a
        // one-shot solve (pool_size) and in the online loop (AdaptivePool).
        // Auto, below the node floor, inside, and above the instance
        // ceiling.
        for initial in [0, 3, 30, 500] {
            let cfg = AdaptivePoolConfig { initial, ..Default::default() };
            for (n, m) in [(5, 200), (8, 40), (12, 6)] {
                let pool = AdaptivePool::new(cfg, n, m);
                assert_eq!(CandidateConfig::adaptive(cfg).pool_size(n, m), pool.k(), "{cfg:?}");
                assert!((n.min(m)..=m).contains(&pool.k()), "{cfg:?}, n {n}, m {m}");
            }
        }
    }

    #[test]
    fn adaptive_pool_grows_on_frequent_escalations() {
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 10, ..AdaptivePoolConfig::default() },
            4,
            200,
        );
        assert_eq!(pool.k(), 10);
        for _ in 0..10 {
            pool.observe(true);
        }
        assert!(pool.k() > 10, "k {} never grew under sustained escalations", pool.k());
        assert!(pool.escalation_rate() > 0.5);
    }

    #[test]
    fn adaptive_pool_shrinks_on_a_stationary_tail() {
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 64, ..AdaptivePoolConfig::default() },
            4,
            200,
        );
        // An active head keeps the rate high...
        for _ in 0..6 {
            pool.observe(true);
        }
        let peak = pool.k();
        // ...then a long quiet tail decays it and k shrinks.
        for _ in 0..30 {
            pool.observe(false);
        }
        assert!(pool.k() < peak, "k {} did not shrink from peak {peak}", pool.k());
        assert!(pool.escalation_rate() < 0.15);
    }

    #[test]
    fn adaptive_pool_respects_bounds() {
        // `k` moves between the node count (8) and the instance count (40).
        let mut pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 20, ..AdaptivePoolConfig::default() },
            8,
            40,
        );
        for _ in 0..200 {
            pool.observe(true);
        }
        assert_eq!(pool.k(), 40);
        for _ in 0..200 {
            pool.observe(false);
        }
        assert_eq!(pool.k(), 8);
        // An initial `k` under the node count starts at the floor.
        let tight = AdaptivePool::new(
            AdaptivePoolConfig { initial: 3, ..AdaptivePoolConfig::default() },
            6,
            200,
        );
        assert_eq!(tight.k(), 6);
    }

    fn record_both(stats: &mut PairwiseStats, i: usize, j: usize, cost: f64) {
        stats.record(i, j, cost);
        stats.record(j, i, cost);
    }

    /// Fully measured stats where instance `bad` has uniformly huge
    /// incident costs and everyone else is cheap.
    fn full_stats(m: usize, bad: usize) -> PairwiseStats {
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                record_both(&mut stats, i, j, if i == bad || j == bad { 50.0 } else { 1.0 });
            }
        }
        stats
    }

    #[test]
    fn partial_pool_excludes_proven_congested_instances() {
        let stats = full_stats(12, 7);
        let cs =
            CandidateSet::build_partial(4, &stats, &CandidateConfig::fixed(6), None, None, 0.5);
        assert_eq!(cs.union().len(), 6);
        assert!(!cs.union().contains(&7), "proven-congested instance kept: {:?}", cs.union());
    }

    #[test]
    fn partial_pool_force_includes_under_covered_instances() {
        // Instance 7 is terrible but only one of its 22 incident
        // directions is measured: it cannot be proven out yet.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    record_both(&mut stats, i, j, 1.0);
                }
            }
        }
        stats.record(7, 0, 50.0);
        let cs =
            CandidateSet::build_partial(4, &stats, &CandidateConfig::fixed(6), None, None, 0.5);
        assert!(cs.union().contains(&7), "under-covered instance pruned: {:?}", cs.union());
        assert_eq!(cs.union().len(), 7, "pool is target + the one unprovable instance");
    }

    #[test]
    fn partial_pool_scores_out_dark_instances_instead_of_forcing_them_in() {
        // Instance 7 was attempted on every incident direction but never
        // answered (fully dark): that is evidence of uncompetitiveness,
        // not a coverage gap — it must rank worst, not be force-included.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    record_both(&mut stats, i, j, 1.0);
                } else {
                    stats.record_attempt(i, j);
                    stats.record_attempt(j, i);
                }
            }
        }
        let cs =
            CandidateSet::build_partial(4, &stats, &CandidateConfig::fixed(6), None, None, 0.5);
        assert_eq!(cs.union().len(), 6, "dark instance inflated the pool: {:?}", cs.union());
        assert!(!cs.union().contains(&7), "dark instance force-included: {:?}", cs.union());
    }

    #[test]
    fn partial_pool_with_no_samples_keeps_everyone() {
        let stats = PairwiseStats::new(10);
        let cs =
            CandidateSet::build_partial(3, &stats, &CandidateConfig::fixed(4), None, None, 0.5);
        assert!(cs.is_exact(), "an unmeasured sweep must not prune anything");
    }

    /// Fully measured stats with `samples` zero-jitter observations per
    /// direction: every CI is bounded (and zero-width), so separations
    /// are exact and deterministic.
    fn full_stats_ci(m: usize, bad: usize, samples: usize) -> PairwiseStats {
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                for _ in 0..samples {
                    record_both(&mut stats, i, j, if i == bad || j == bad { 50.0 } else { 1.0 });
                }
            }
        }
        stats
    }

    /// [`full_stats_ci`] with ±10 % jitter (samples alternate 0.9× and
    /// 1.1× the cost): every interval is bounded and wider than a 95 %
    /// rule's 5 % indifference margin, so the cheap instances tied at the
    /// pool boundary stay undecided and only the congested `bad` is
    /// provably out.
    fn jittered_stats_ci(m: usize, bad: usize, samples: usize) -> PairwiseStats {
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                let cost = if i == bad || j == bad { 50.0 } else { 1.0 };
                for k in 0..samples {
                    record_both(&mut stats, i, j, cost * [0.9, 1.1][k % 2]);
                }
            }
        }
        stats
    }

    #[test]
    fn prune_rule_condemns_only_out_of_pool_unprotected_pairs() {
        // Point pool of 11 over 12 instances, or CI verdicts for a pool
        // of 6 on jittered samples: either way exactly the congested
        // instance 7 is proven out.
        let incumbent: Vec<u32> = vec![0, 1, 2, 3];
        let point = CandidatePruneRule::new(4, CandidateConfig::fixed(11));
        let ci = CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_confidence(0.95);
        assert_eq!((point.confidence(), ci.confidence()), (None, Some(0.95)));
        for (rule, stats) in [(point, full_stats(12, 7)), (ci, jittered_stats_ci(12, 7, 5))] {
            let mut rule = rule.with_incumbent(&incumbent);
            rule.protect_pair(7, 9); // flagged: survives despite 7 being out
            assert_eq!(rule.protected_pairs(), 1);
            let remaining: Vec<(u32, u32)> =
                (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
            let condemned = rule.prune(&stats, &remaining);
            assert!(!condemned.is_empty(), "{:?}: nothing condemned", rule.confidence());
            for &(a, b) in &condemned {
                assert!(a == 7 || b == 7, "({a},{b}) condemned but both endpoints are candidates");
                assert!((a.min(b), a.max(b)) != (7, 9), "protected pair condemned");
                // Deployed pairs (incumbent instances) never condemned.
                assert!(
                    !(incumbent.contains(&a) && incumbent.contains(&b)),
                    "incumbent link ({a},{b}) condemned"
                );
            }
        }
    }

    #[test]
    fn prune_rule_is_silent_without_samples_or_with_exact_union() {
        let remaining = vec![(0u32, 1u32), (1, 2)];
        let rule = CandidatePruneRule::new(3, CandidateConfig::fixed(6));
        for rule in [rule.clone(), rule.with_confidence(0.95)] {
            assert!(rule.prune(&PairwiseStats::new(8), &remaining).is_empty());
        }
        // Pool >= m: exact union, nothing prunable.
        let exact = CandidatePruneRule::new(3, CandidateConfig::fixed(100));
        assert!(exact.prune(&full_stats(8, 2), &remaining).is_empty());
    }

    #[test]
    fn one_kept_interval_index_gives_each_rule_its_own_verdicts() {
        // Rules with different incumbents or pool sizes read one index at
        // one touch cursor: each scores on its own parameters, never on
        // scores another rule derived from the same evidence.
        let stats = jittered_stats_ci(12, 7, 5);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        let index = SharedIndex::default();
        let rule = |pool: usize| {
            CandidatePruneRule::new(4, CandidateConfig::fixed(pool))
                .with_confidence(0.95)
                .with_index(&index)
        };
        let condemned = rule(6).prune(&stats, &remaining);
        assert!(!condemned.is_empty(), "the congested instance was not proven out");
        assert!(condemned.iter().all(|&(a, b)| a == 7 || b == 7));
        let deployed = rule(6).with_incumbent(&[7, 0, 1, 2]);
        assert!(deployed.prune(&stats, &remaining).is_empty(), "an incumbent was condemned");
        assert!(rule(12).prune(&stats, &remaining).is_empty(), "a pool of all was pruned");
        assert_eq!(rule(6).prune(&stats, &remaining), condemned);
        assert_eq!(lock(&index).intervals.rebuilds(), 1, "the rules rebuilt the shared index");
    }

    #[test]
    fn an_interval_index_synced_at_another_level_rebuilds() {
        // Nothing was touched between the two syncs, yet every lane's
        // price depends on the level: the index must not keep the old one.
        let stats = tied_boundary_stats(2);
        let scores = |index: &PoolIndex<2>| -> Vec<_> {
            (0..12).map(|j| index.scores(j, 0.5, 0.5).map(|s| s.map(f64::to_bits))).collect()
        };
        let mut fresh = PoolIndex::default();
        fresh.sync_intervals(&stats, 0.5);
        let mut kept = PoolIndex::default();
        kept.sync_intervals(&stats, 0.95);
        assert_ne!(scores(&kept), scores(&fresh), "the two levels price alike");
        kept.sync_intervals(&stats, 0.5);
        assert_eq!(scores(&kept), scores(&fresh));
        assert_eq!(kept.rebuilds(), 2);
    }

    #[test]
    fn one_sample_links_are_never_condemned_by_ci_rule() {
        // Instance 7 looks terrible (50.0 on every incident direction)
        // but each of those directions carries exactly ONE sample:
        // `Welford::variance()` is 0 below two observations, so a naive
        // zero-width interval would condemn it with false certainty. The
        // CI rule must treat those intervals as unbounded and keep it.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    for k in 0..5 {
                        record_both(&mut stats, i, j, [0.9, 1.1][k % 2]);
                    }
                } else {
                    record_both(&mut stats, i, j, 50.0);
                }
            }
        }
        let rule = CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_confidence(0.95);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        assert!(
            rule.prune(&stats, &remaining).is_empty(),
            "a 1-sample link was condemned on zero-variance false certainty"
        );
        // With real evidence (5 samples per direction) the same instance
        // IS provably out — the guard is about sample count, not cost.
        let evidenced = jittered_stats_ci(m, 7, 5);
        assert!(!rule.prune(&evidenced, &remaining).is_empty());
    }

    #[test]
    fn ci_stop_rule_stabilizes_only_on_bounded_separated_intervals() {
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        let mut stop = CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_confidence(0.95);
        stop.protect_pair(2, 3);
        // No samples: never stable.
        assert!(!stop.stable(&PairwiseStats::new(12), &remaining));
        // One sample per direction: every interval unbounded, unstable.
        assert!(!stop.stable(&full_stats(12, 7), &remaining));
        // Five zero-jitter samples per direction: every membership
        // verdict settled, stable.
        assert!(stop.stable(&full_stats_ci(12, 7, 5), &remaining));
        // Protected pairs survive the stop.
        assert!(stop.must_keep(2, 3) && stop.must_keep(3, 2));
        assert!(!stop.must_keep(0, 1));
        // A point rule never declares stability.
        let point = CandidatePruneRule::new(4, CandidateConfig::fixed(6));
        assert!(!point.stable(&full_stats_ci(12, 7, 5), &remaining));
    }

    #[test]
    fn under_covered_instances_block_ci_stability() {
        // Everyone well measured except instance 7, which has a single
        // covered direction: its pool membership cannot be settled yet.
        let m = 12;
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                if i != 7 && j != 7 {
                    for _ in 0..5 {
                        record_both(&mut stats, i, j, 1.0);
                    }
                }
            }
        }
        for _ in 0..5 {
            stats.record(7, 0, 50.0);
        }
        let stop = CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_confidence(0.95);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        assert!(!stop.stable(&stats, &remaining), "under-covered instance declared settled");
    }

    /// Fully measured stats where instances 0–3 are cheap, 4–11 form a
    /// near-tied cluster straddling the pool boundary, and every
    /// direction carries `2 * reps` samples jittered ±0.01 around its
    /// pair cost — the intervals are bounded but overlap across the
    /// cluster, so strict separation at the boundary is impossible.
    fn tied_boundary_stats(reps: usize) -> PairwiseStats {
        let m = 12;
        let v = |i: usize| if i < 4 { 1.0 } else { 2.0 + 0.001 * (i - 4) as f64 };
        let mut stats = PairwiseStats::new(m);
        for i in 0..m {
            for j in i + 1..m {
                let c = (v(i) + v(j)) / 2.0;
                for _ in 0..reps {
                    record_both(&mut stats, i, j, c - 0.01);
                    record_both(&mut stats, i, j, c + 0.01);
                }
            }
        }
        stats
    }

    #[test]
    fn indifference_margin_settles_boundary_ties_strictness_cannot() {
        let stats = tied_boundary_stats(2);
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        // Near-strict separation (99.9%: a 0.1% margin): the tied
        // cluster's intervals overlap the pool boundary, so nothing is
        // condemnable and the membership question never settles.
        let rule = || CandidatePruneRule::new(4, CandidateConfig::fixed(6));
        let strict = rule().with_confidence(0.999);
        assert!(strict.prune(&stats, &remaining).is_empty(), "strict rule condemned a near-tie");
        // At 95% the 5% indifference margin makes the whole cluster at
        // best an ε-tie for the last pool slot: provably out,
        // condemnable, and every membership verdict settles on the first
        // evaluation.
        let tolerant = rule().with_confidence(0.95);
        assert_eq!(tolerant.tolerance(), 1.0 - 0.95);
        let condemned = tolerant.prune(&stats, &remaining);
        assert!(!condemned.is_empty(), "ε-ties at the boundary were not condemned");
        for &(a, b) in &condemned {
            assert!(a >= 4 || b >= 4, "cheap pair ({a},{b}) condemned");
        }
        assert!(tolerant.stable(&stats, &remaining), "settled verdicts not recognized as stable");
    }

    #[test]
    fn plateau_fires_only_after_a_fresh_sweep_moves_no_verdict() {
        let remaining: Vec<(u32, u32)> =
            (0..12u32).flat_map(|a| (a + 1..12).map(move |b| (a, b))).collect();
        // Near-strict rule (99.9 %: a 0.1 % margin): cheap instances are
        // provably in (earned verdicts), the tied cluster stays undecided
        // forever — only the plateau criterion can ever fire.
        let near_strict = || CandidatePruneRule::new(4, CandidateConfig::fixed(6));
        let stop = near_strict().with_confidence(0.999);
        let stats = tied_boundary_stats(2);
        assert!(!stop.stable(&stats, &remaining), "stable with no checkpoint to compare against");
        assert!(!stop.stable(&stats, &remaining), "stable without any fresh evidence");
        // A sweep-equivalent of fresh samples that moves no verdict is a
        // plateau: the rest of the schedule is information-free.
        let more = tied_boundary_stats(3);
        assert!(stop.stable(&more, &remaining), "plateau after an unchanged sweep missed");

        // A verdict flip between checkpoints re-arms the rule instead.
        let stop = near_strict().with_confidence(0.999);
        assert!(!stop.stable(&stats, &remaining));
        let mut flipped = tied_boundary_stats(3);
        for j in 0..11usize {
            for _ in 0..30 {
                record_both(&mut flipped, j, 11, 50.0);
            }
        }
        assert!(!stop.stable(&flipped, &remaining), "changed verdicts accepted as a plateau");

        // `with_must_keep` narrows the post-stop survivors away from the
        // prune protections.
        let mut rule = CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_confidence(0.95);
        rule.protect_pair(0, 1);
        assert!(rule.must_keep(0, 1), "default keeps lost the protections");
        let stop = rule.with_must_keep([(2u32, 3u32)]);
        assert!(stop.must_keep(2, 3) && stop.must_keep(3, 2));
        assert!(!stop.must_keep(0, 1), "prune protection leaked into the stop keeps");
    }

    /// A window over `model` (sorted) filled around `rank`.
    fn window_over(model: &[f64], rank: usize) -> Window {
        let mut window = Window::STALE;
        window.fill(&mut model.iter().map(|&p| order_key(p)).collect::<Vec<_>>(), rank);
        window
    }

    /// The window holds exactly the entries a sort of `model` puts at its
    /// ranks.
    fn assert_window_matches(window: &Window, model: &[f64]) {
        let held = &model[window.below..window.below + window.len];
        assert_eq!(
            window.run().iter().map(|&k| from_order_key(k).to_bits()).collect::<Vec<_>>(),
            held.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
            "window at {} over {model:?}",
            window.below
        );
    }

    #[test]
    fn a_window_fills_with_the_ranks_around_the_centre() {
        let model: Vec<f64> = (0..100).map(f64::from).collect();
        for (rank, below) in [(0, 0), (10, 0), (16, 0), (50, 34), (90, 68), (99, 68)] {
            let window = window_over(&model, rank);
            assert_eq!((window.below, window.len, window.centre), (below, WINDOW, rank));
            assert!(window.covers(rank));
            assert_window_matches(&window, &model);
        }
        let short = [3.0, 1.0, 2.0];
        let window = window_over(&short, 1);
        assert_eq!(window.run(), &[1.0, 2.0, 3.0].map(order_key));
    }

    #[test]
    fn window_edits_at_the_run_edges_keep_the_ranks() {
        let mut model: Vec<f64> = (0..100).map(|x| f64::from(x) * 2.0).collect();
        let mut window = window_over(&model, 50);
        let (first, last) = (window.at(window.below), window.at(window.below + WINDOW - 1));
        let edit = |window: &mut Window, model: &mut Vec<f64>, insert: bool, price: f64| {
            if insert {
                window.insert(order_key(price), model.len());
                let at = model.partition_point(|p| p.total_cmp(&price).is_lt());
                model.insert(at, price);
            } else {
                window.remove(order_key(price));
                let at = model.iter().position(|p| p.to_bits() == price.to_bits()).unwrap();
                model.remove(at);
            }
            assert_window_matches(window, model);
        };
        // Just past either end: below the run moves it up a rank, above
        // it leaves it alone.
        edit(&mut window, &mut model, true, first - 1.0);
        assert_eq!((window.below, window.len), (35, WINDOW));
        edit(&mut window, &mut model, true, last + 1.0);
        assert_eq!((window.below, window.len), (35, WINDOW));
        // Equal to either end: joins the run, overflowing it; the end
        // farther from the centre (50) goes.
        edit(&mut window, &mut model, true, first);
        edit(&mut window, &mut model, true, last);
        assert_eq!(window.len, WINDOW);
        // Removing the run's first and last entries shrinks it from the
        // edges; removing outside it moves only the count below.
        let (first, last) = (window.at(window.below), window.at(window.below + window.len - 1));
        edit(&mut window, &mut model, false, first);
        edit(&mut window, &mut model, false, last);
        assert_eq!(window.len, WINDOW - 2);
        let below = window.below;
        let (lowest, highest) = (model[0], model[model.len() - 1]);
        edit(&mut window, &mut model, false, lowest);
        assert_eq!(window.below, below - 1);
        edit(&mut window, &mut model, false, highest);
        assert_eq!(window.below, below - 1);
        // Drained: the run goes stale and edits stop reaching it.
        while window.len > 0 {
            let price = window.at(window.below + window.len / 2);
            edit(&mut window, &mut model, false, price);
        }
        window.insert(order_key(model[40]), model.len());
        window.remove(order_key(model[0]));
        assert_eq!((window.len, window.covers(window.below)), (0, false));
    }

    #[test]
    fn a_window_reaching_an_end_of_the_multiset_grows_past_it() {
        let mut model = vec![1.0, 2.0, 3.0];
        let mut window = window_over(&model, 1);
        for price in [0.5, 4.0, 0.25, f64::INFINITY, -0.0, 0.0] {
            window.insert(order_key(price), model.len());
            let at = model.partition_point(|p| p.total_cmp(&price).is_lt());
            model.insert(at, price);
            assert_eq!(window.below, 0, "the run starts the multiset");
            assert_window_matches(&window, &model);
        }
        assert_eq!(window.len, model.len());
    }

    #[test]
    fn random_window_edits_and_replacements_match_a_sorted_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let palette = [0.0, 1.0, 1.0, 2.0, f64::INFINITY];
        for _ in 0..200 {
            let mut model: Vec<f64> = (0..rng.random_range(1..80))
                .map(|_| palette[rng.random_range(0..5usize)])
                .collect();
            model.sort_by(f64::total_cmp);
            let mut window = window_over(&model, rng.random_range(0..model.len()));
            for _ in 0..200 {
                let draw = |rng: &mut StdRng| {
                    if rng.random::<bool>() {
                        palette[rng.random_range(0..5usize)]
                    } else {
                        rng.random_range(0.0..3.0)
                    }
                };
                let (old, new) = match rng.random_range(0..3u32) {
                    0 if !model.is_empty() => (Some(model[rng.random_range(0..model.len())]), None),
                    1 if !model.is_empty() => {
                        (Some(model[rng.random_range(0..model.len())]), Some(draw(&mut rng)))
                    }
                    _ => (None, Some(draw(&mut rng))),
                };
                if let Some(old) = old {
                    let at = model.iter().position(|p| p.to_bits() == old.to_bits()).unwrap();
                    model.remove(at);
                }
                match (old, new) {
                    (Some(old), Some(new)) => {
                        window.replace(order_key(old), order_key(new), model.len())
                    }
                    (Some(old), None) => window.remove(order_key(old)),
                    (None, Some(new)) => window.insert(order_key(new), model.len()),
                    (None, None) => {}
                }
                if let Some(new) = new {
                    let at = model.partition_point(|p| p.total_cmp(&new).is_lt());
                    model.insert(at, new);
                }
                if window.len > 0 {
                    assert_window_matches(&window, &model);
                }
            }
        }
    }

    #[test]
    fn the_critical_value_memo_answers_with_t_critical_bits() {
        for confidence in [0.5, 0.9, 0.95, 0.99] {
            let mut memo = CriticalValues::default();
            // Descending, then ascending: the second pass reads what the
            // first filled in.
            for df in (1..=5000u64).rev().chain(1..=5000) {
                let want = cloudia_measure::t_critical(confidence, df);
                assert_eq!(memo.get(confidence, df).to_bits(), want.to_bits(), "df {df}");
            }
            assert_eq!(memo.0.len(), 5001);
        }
    }

    #[test]
    fn memo_priced_interval_lanes_equal_the_statistics_bounds() {
        // Links with 0–40 samples (dark, one-sample unbounded, clamped
        // lower bounds) and lossy ledgers, priced at four levels through
        // one index: each lane's bits are `stats.ci`'s.
        let m = 9;
        let mut stats = PairwiseStats::new(m);
        for src in 0..m {
            for dst in (0..m).filter(|&dst| dst != src) {
                let samples = (src * 7 + dst * 3) % 41;
                let rtts: Vec<f64> = (0..samples).map(|k| 0.5 + ((k * 13) % 7) as f64).collect();
                let attempts = samples as u64 + (src % 3) as u64;
                stats.record_link(src, dst, attempts, (dst % 2) as u64, &rtts);
            }
        }
        let mut index = PoolIndex::default();
        for confidence in [0.5, 0.9, 0.95, 0.99, 0.5] {
            index.sync_intervals(&stats, confidence);
            for src in 0..m {
                for dst in (0..m).filter(|&dst| dst != src) {
                    let want = if stats.link(src, dst).count() > 0 {
                        let ci = stats.ci(src, dst, confidence);
                        [ci.lower(), ci.upper()]
                    } else {
                        [f64::INFINITY; 2]
                    };
                    let got = index.price.get(src * m + dst).expect("every link has evidence");
                    assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn adaptive_effective_projects_current_k() {
        let pool = AdaptivePool::new(
            AdaptivePoolConfig { initial: 17, ..AdaptivePoolConfig::default() },
            4,
            100,
        );
        assert_eq!(pool.effective().pool, PoolPolicy::Fixed(17));
    }
}

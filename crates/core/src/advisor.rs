//! The ClouDiA pipeline (paper §2.2, Fig. 3): allocate → measure → search
//! → terminate.
//!
//! A tenant supplies a communication graph, an objective, and a maximum
//! instance count; the advisor over-allocates instances, measures pairwise
//! latencies with the staged scheme, searches for a deployment plan, and
//! terminates the leftover instances. The outcome reports both the default
//! deployment's cost (the allocation-order mapping a tenant would otherwise
//! use) and the optimized plan's cost, evaluated on *ground-truth* mean
//! latencies — the measured estimates are only used for searching, exactly
//! as in a real cloud where the application's future traffic, not the
//! probes, is what matters.

use cloudia_measure::{MeasureConfig, MeasurementReport, Scheme, Staged};
use cloudia_netsim::{Cloud, InstanceId, Network, Provider};
use cloudia_solver::{CandidateConfig, Objective, SolveOutcome};

use crate::metrics::LatencyMetric;
use crate::problem::{CommGraph, CostError, CostMatrix, Deployment};
use crate::search::SearchStrategy;

/// How the advisor runs the staged measurement.
#[derive(Debug, Clone)]
pub struct MeasurementPlan {
    /// Consecutive probes per pair per stage (paper Ks = 10).
    pub ks: usize,
    /// Tournament sweeps (2 covers both directions of every pair).
    pub sweeps: usize,
    /// Engine/probe configuration.
    pub config: MeasureConfig,
}

impl Default for MeasurementPlan {
    fn default() -> Self {
        Self { ks: 10, sweeps: 2, config: MeasureConfig::default() }
    }
}

/// Advisor configuration.
#[derive(Debug, Clone)]
pub struct AdvisorConfig {
    /// Deployment cost function to minimize.
    pub objective: Objective,
    /// Latency metric used as communication cost (paper default: mean).
    pub metric: LatencyMetric,
    /// Fraction of extra instances to allocate (0.1 = 10 %, the paper's
    /// default; Fig. 13 sweeps this).
    pub over_allocation: f64,
    /// Search technique; `None` picks the paper's recommendation for the
    /// objective with `search_time_s` (or the parallel portfolio when
    /// `search_threads != 1`).
    pub strategy: Option<SearchStrategy>,
    /// Time budget for the recommended strategy when `strategy` is `None`.
    pub search_time_s: f64,
    /// Worker threads for the default strategy: 1 (default) runs the
    /// paper's single-threaded recommendation, any other value races the
    /// solver portfolio on that many threads (0 = all cores).
    pub search_threads: usize,
    /// Candidate pruning (the scaling knob): `Some` routes every search
    /// through [`SearchStrategy::run_pruned`], cutting the instance pool
    /// to the per-node candidate lists before the solver starts. `None`
    /// (default) keeps the dense paper behaviour.
    pub candidates: Option<CandidateConfig>,
    /// Measurement plan.
    pub measurement: MeasurementPlan,
}

impl AdvisorConfig {
    /// A configuration sized for tests and examples: short search budget,
    /// light measurement.
    pub fn fast() -> Self {
        Self {
            objective: Objective::LongestLink,
            metric: LatencyMetric::Mean,
            over_allocation: 0.1,
            strategy: None,
            search_time_s: 1.0,
            search_threads: 1,
            candidates: None,
            measurement: MeasurementPlan { ks: 3, sweeps: 2, config: MeasureConfig::default() },
        }
    }
}

impl Default for AdvisorConfig {
    fn default() -> Self {
        Self {
            objective: Objective::LongestLink,
            metric: LatencyMetric::Mean,
            over_allocation: 0.1,
            strategy: None,
            search_time_s: 10.0,
            search_threads: 1,
            candidates: None,
            measurement: MeasurementPlan::default(),
        }
    }
}

/// Everything the pipeline produced.
#[derive(Debug, Clone)]
pub struct AdvisorOutcome {
    /// The optimized deployment plan (`node → instance` in the
    /// over-allocated instance set).
    pub deployment: Deployment,
    /// Ground-truth cost of the default deployment (node k → instance k).
    pub default_cost: f64,
    /// Ground-truth cost of the optimized deployment.
    pub optimized_cost: f64,
    /// Simulated milliseconds spent measuring.
    pub measurement_ms: f64,
    /// Round trips the measurement collected.
    pub measurement_round_trips: u64,
    /// The raw search result (curve, optimality proof, ...).
    pub search: SolveOutcome,
    /// Instances terminated after deployment (over-allocation leftovers).
    pub terminated: Vec<InstanceId>,
    /// The network over the full (over-allocated) instance set.
    pub network: Network,
}

impl AdvisorOutcome {
    /// Relative cost reduction of the optimized plan vs the default
    /// (0.25 = 25 % lower).
    pub fn improvement(&self) -> f64 {
        crate::cost::relative_improvement(self.default_cost, self.optimized_cost)
    }
}

/// The deployment advisor.
#[derive(Debug, Clone)]
pub struct Advisor {
    config: AdvisorConfig,
}

impl Advisor {
    /// Creates an advisor with the given configuration.
    pub fn new(config: AdvisorConfig) -> Self {
        assert!(
            config.over_allocation >= 0.0,
            "over_allocation must be >= 0, got {}",
            config.over_allocation
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &AdvisorConfig {
        &self.config
    }

    /// Runs the full pipeline against a fresh cloud: boot, allocate
    /// (over-allocated), measure, search, terminate extras.
    ///
    /// # Panics
    /// Panics if the measurement produces an invalid cost matrix; use
    /// [`Advisor::try_run`] to handle that as an error.
    pub fn run(&self, provider: Provider, graph: &CommGraph, seed: u64) -> AdvisorOutcome {
        self.try_run(provider, graph, seed).expect("measurement produced an invalid cost matrix")
    }

    /// [`Advisor::run`], reporting corrupt measurement data as an error
    /// instead of aborting.
    pub fn try_run(
        &self,
        provider: Provider,
        graph: &CommGraph,
        seed: u64,
    ) -> Result<AdvisorOutcome, CostError> {
        let n = graph.num_nodes();
        let extra = (n as f64 * self.config.over_allocation).ceil() as usize;
        let mut cloud = Cloud::boot(provider, seed);
        let allocation = cloud.allocate(n + extra);
        let network = cloud.network(&allocation);

        let mut outcome = self.try_run_on_network(&network, graph, seed)?;

        // Step 4: terminate the extra instances the plan does not use.
        let used: std::collections::HashSet<u32> = outcome.deployment.iter().copied().collect();
        let victims: Vec<InstanceId> =
            (0..allocation.len() as u32).filter(|i| !used.contains(i)).map(InstanceId).collect();
        cloud.terminate(&allocation, &victims);
        outcome.terminated = victims;
        Ok(outcome)
    }

    /// Runs measurement + search over an existing network (no allocation
    /// or termination) — the harness entry point when the caller manages
    /// the cloud itself.
    ///
    /// # Panics
    /// Panics if the measurement produces an invalid cost matrix; use
    /// [`Advisor::try_run_on_network`] to handle that as an error.
    pub fn run_on_network(
        &self,
        network: &Network,
        graph: &CommGraph,
        seed: u64,
    ) -> AdvisorOutcome {
        self.try_run_on_network(network, graph, seed)
            .expect("measurement produced an invalid cost matrix")
    }

    /// [`Advisor::run_on_network`], reporting corrupt measurement data as
    /// an error instead of aborting.
    pub fn try_run_on_network(
        &self,
        network: &Network,
        graph: &CommGraph,
        seed: u64,
    ) -> Result<AdvisorOutcome, CostError> {
        // Step 2: measure.
        let report = self.measure(network, seed);

        // Step 3: search on the measured costs.
        let costs = self.config.metric.try_cost_matrix(&report.stats)?;
        let mut outcome =
            self.search_with_costs(network, graph, costs, &crate::search::SolveHint::Cold);
        outcome.measurement_ms = report.elapsed_ms;
        outcome.measurement_round_trips = report.round_trips;
        Ok(outcome)
    }

    /// Runs only the search step against caller-supplied cost estimates —
    /// the entry point for re-deployment rounds that blend fresh
    /// measurements with accumulated link history, and for the online
    /// advisor's incremental re-solves. The outcome's measurement fields
    /// are zero (the caller owns measurement accounting).
    pub fn search_with_costs(
        &self,
        network: &Network,
        graph: &CommGraph,
        costs: CostMatrix,
        hint: &crate::search::SolveHint,
    ) -> AdvisorOutcome {
        let n = graph.num_nodes();
        assert!(
            n <= network.len(),
            "{n} application nodes need at least {n} instances, have {}",
            network.len()
        );

        let problem = graph.problem(costs);
        let strategy = self.config.strategy.clone().unwrap_or_else(|| {
            if self.config.search_threads == 1 {
                SearchStrategy::recommended(self.config.objective, self.config.search_time_s)
            } else {
                SearchStrategy::portfolio(self.config.search_time_s, self.config.search_threads)
            }
        });
        let mut span = cloudia_obs::span!("advisor.search", nodes = n, instances = network.len());
        let search = match &self.config.candidates {
            Some(cand) => strategy.run_pruned(&problem, self.config.objective, hint, cand).outcome,
            None => strategy.run_with_hint(&problem, self.config.objective, hint),
        };
        if cloudia_obs::enabled() {
            span.attr("explored", search.explored);
            span.attr("cost", search.cost);
            span.attr("proven", u64::from(search.proven_optimal));
            cloudia_obs::counter("advisor.searches", 1);
            cloudia_obs::observe("advisor.search_explored", search.explored as f64);
        }
        drop(span);

        // Evaluate default vs optimized on ground truth.
        let truth = |deployment: &[u32]| self.true_cost(network, graph, deployment);
        let default_deployment: Vec<u32> = (0..n as u32).collect();
        let default_cost = truth(&default_deployment);
        let optimized_cost = truth(&search.deployment);

        AdvisorOutcome {
            deployment: search.deployment.clone(),
            default_cost,
            optimized_cost,
            measurement_ms: 0.0,
            measurement_round_trips: 0,
            search,
            terminated: Vec::new(),
            network: network.clone(),
        }
    }

    /// Ground-truth cost of `deployment` on `network` under the configured
    /// objective ([`crate::cost::ground_truth_cost`], loss priced at the
    /// measurement timeout; the plain means on a lossless network).
    pub(crate) fn true_cost(
        &self,
        network: &Network,
        graph: &CommGraph,
        deployment: &[u32],
    ) -> f64 {
        let timeout_ms = self.config.measurement.config.timeout_ms;
        crate::cost::ground_truth_cost(
            network,
            graph,
            self.config.objective,
            deployment,
            timeout_ms,
        )
    }

    /// Runs only the measurement step (staged scheme), into statistics
    /// that keep p99 sketches only when the configured metric reads them.
    pub fn measure(&self, network: &Network, seed: u64) -> MeasurementReport {
        let plan = &self.config.measurement;
        let mut cfg = plan.config.clone();
        cfg.seed ^= seed;
        let mut span = cloudia_obs::span!("advisor.measure", instances = network.len());
        let stats = self.config.metric.empty_stats(network.len());
        let report = Staged::new(plan.ks, plan.sweeps).run_onto(network, &cfg, stats);
        if cloudia_obs::enabled() {
            span.attr("round_trips", report.round_trips);
            span.attr("sim_ms", report.elapsed_ms);
            cloudia_obs::counter("advisor.measurements", 1);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudia_solver::Budget;

    #[test]
    fn pipeline_end_to_end_improves_over_default() {
        let graph = CommGraph::mesh_2d(3, 3);
        let advisor = Advisor::new(AdvisorConfig { search_time_s: 2.0, ..AdvisorConfig::fast() });
        let out = advisor.run(Provider::ec2_like(), &graph, 11);
        assert!(
            out.optimized_cost <= out.default_cost * 1.001,
            "optimized {} worse than default {}",
            out.optimized_cost,
            out.default_cost
        );
        assert!(out.improvement() >= -0.001);
        assert!(out.measurement_ms > 0.0);
        assert!(out.measurement_round_trips > 0);
    }

    #[test]
    fn over_allocation_terminates_extras() {
        let graph = CommGraph::ring(10);
        let advisor = Advisor::new(AdvisorConfig { over_allocation: 0.5, ..AdvisorConfig::fast() });
        let out = advisor.run(Provider::test_quiet(), &graph, 3);
        // 10 nodes, 15 allocated, 5 terminated.
        assert_eq!(out.deployment.len(), 10);
        assert_eq!(out.terminated.len(), 5);
        assert_eq!(out.network.len(), 15);
        // No terminated instance appears in the plan.
        for t in &out.terminated {
            assert!(!out.deployment.contains(&t.0));
        }
    }

    #[test]
    fn zero_over_allocation_still_optimizes_injection() {
        // Paper Fig. 13: even with 0 % extra instances, picking a good
        // injection helps.
        let graph = CommGraph::mesh_2d(2, 3);
        let advisor = Advisor::new(AdvisorConfig { over_allocation: 0.0, ..AdvisorConfig::fast() });
        let out = advisor.run(Provider::ec2_like(), &graph, 7);
        assert_eq!(out.terminated.len(), 0);
        assert!(out.optimized_cost <= out.default_cost * 1.001);
    }

    #[test]
    fn longest_path_pipeline() {
        let graph = CommGraph::aggregation_tree(2, 2);
        let advisor = Advisor::new(AdvisorConfig {
            objective: Objective::LongestPath,
            strategy: Some(SearchStrategy::RandomBudget {
                budget: Budget::nodes(3000),
                threads: 2,
                seed: 5,
            }),
            ..AdvisorConfig::fast()
        });
        let out = advisor.run(Provider::ec2_like(), &graph, 13);
        assert!(out.optimized_cost <= out.default_cost * 1.001);
    }

    #[test]
    fn deterministic_given_seed() {
        let graph = CommGraph::ring(6);
        let advisor = Advisor::new(AdvisorConfig {
            strategy: Some(SearchStrategy::RandomCount { count: 300, seed: 9 }),
            ..AdvisorConfig::fast()
        });
        let a = advisor.run(Provider::test_quiet(), &graph, 21);
        let b = advisor.run(Provider::test_quiet(), &graph, 21);
        assert_eq!(a.deployment, b.deployment);
        assert_eq!(a.optimized_cost, b.optimized_cost);
    }

    #[test]
    fn portfolio_pipeline_improves_over_default() {
        let graph = CommGraph::mesh_2d(3, 3);
        let advisor = Advisor::new(AdvisorConfig {
            search_threads: 2,
            search_time_s: 2.0,
            ..AdvisorConfig::fast()
        });
        let out = advisor.run(Provider::ec2_like(), &graph, 17);
        assert!(
            out.optimized_cost <= out.default_cost * 1.001,
            "portfolio {} worse than default {}",
            out.optimized_cost,
            out.default_cost
        );
        assert!(out.search.explored > 0);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn run_on_network_checks_capacity() {
        let graph = CommGraph::ring(20);
        let mut cloud = Cloud::boot(Provider::test_quiet(), 1);
        let alloc = cloud.allocate(5);
        let net = cloud.network(&alloc);
        Advisor::new(AdvisorConfig::fast()).run_on_network(&net, &graph, 1);
    }
}

//! Iterative re-deployment under changing network conditions (paper
//! §2.2.1).
//!
//! The base architecture assumes stable mean latencies; if conditions
//! drift, the paper envisions re-deployment "via iterations of the
//! architecture above: getting new measurements, searching for a new
//! optimal plan, and re-deploying the application." Two caveats the paper
//! raises are modeled here:
//!
//! * the paper's iterations carry no information about unused links, so
//!   every round re-measures from scratch. [`redeploy`] reproduces that
//!   batch behaviour; cross-round memory lives in the online loop
//!   (`cloudia-online`'s store), not here;
//! * moving an application node carries a migration cost, so the advisor
//!   only recommends switching when the expected gain clears a
//!   user-supplied threshold — without VM live migration, switching plans
//!   means application-level state transfer for every moved node.

use cloudia_netsim::Network;

use crate::advisor::{Advisor, AdvisorOutcome};
use crate::problem::{CommGraph, Deployment};
use crate::search::SolveHint;

/// Policy for deciding whether a new plan is worth a migration.
#[derive(Debug, Clone, Copy)]
pub struct RedeployPolicy {
    /// Minimum relative cost improvement (e.g. 0.1 = 10 %) before a
    /// migration is recommended.
    pub min_gain: f64,
    /// Per-moved-node migration cost in the same unit as the deployment
    /// cost (ms); folded into the decision as an amortized penalty.
    pub migration_cost_per_node: f64,
}

impl Default for RedeployPolicy {
    fn default() -> Self {
        Self { min_gain: 0.05, migration_cost_per_node: 0.0 }
    }
}

/// One re-deployment decision.
#[derive(Debug, Clone)]
pub struct RedeployDecision {
    /// The freshly computed outcome on the current network.
    pub outcome: AdvisorOutcome,
    /// Ground-truth cost of *keeping* the old plan on the new network.
    pub keep_cost: f64,
    /// How many nodes the new plan moves relative to the old one.
    pub moved_nodes: usize,
    /// Whether migrating to the new plan is recommended under the policy.
    pub migrate: bool,
}

impl RedeployDecision {
    /// The plan the tenant should run after this decision.
    pub fn plan<'a>(&'a self, old: &'a Deployment) -> &'a Deployment {
        if self.migrate {
            &self.outcome.deployment
        } else {
            old
        }
    }
}

/// Re-runs measurement + search on the (possibly drifted) network and
/// decides whether migrating from `current` is worthwhile. The paper's
/// batch iteration: fresh measurements only, no cross-round history.
///
/// # Panics
/// Panics if the measurement produces an invalid cost matrix; use
/// [`try_redeploy`] to handle that as an error.
pub fn redeploy(
    advisor: &Advisor,
    network: &Network,
    graph: &CommGraph,
    current: &Deployment,
    policy: RedeployPolicy,
    seed: u64,
) -> RedeployDecision {
    try_redeploy(advisor, network, graph, current, policy, seed)
        .expect("measurement produced an invalid cost matrix")
}

/// [`redeploy`], reporting corrupt measurement data as an error instead
/// of aborting — the redeployment counterpart of
/// [`Advisor::try_run_on_network`]. The search always warm-starts from the
/// incumbent plan and never returns a worse one.
pub fn try_redeploy(
    advisor: &Advisor,
    network: &Network,
    graph: &CommGraph,
    current: &Deployment,
    policy: RedeployPolicy,
    seed: u64,
) -> Result<RedeployDecision, crate::problem::CostError> {
    let report = advisor.measure(network, seed);
    let costs = advisor.config().metric.try_cost_matrix(&report.stats)?;
    let hint = SolveHint::warm(current.clone());
    let mut outcome = advisor.search_with_costs(network, graph, costs, &hint);
    outcome.measurement_ms = report.elapsed_ms;
    outcome.measurement_round_trips = report.round_trips;

    let keep_cost = advisor.true_cost(network, graph, current);

    let moved_nodes =
        current.iter().zip(&outcome.deployment).filter(|(old, new)| old != new).count();
    let gain = (keep_cost - outcome.optimized_cost) / keep_cost.max(f64::MIN_POSITIVE);
    let amortized_migration = policy.migration_cost_per_node * moved_nodes as f64;
    let migrate =
        gain >= policy.min_gain && (keep_cost - outcome.optimized_cost) > amortized_migration;

    Ok(RedeployDecision { outcome, keep_cost, moved_nodes, migrate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::AdvisorConfig;
    use cloudia_netsim::{Cloud, Provider};
    use rand::{rngs::StdRng, SeedableRng};

    fn setup() -> (Network, CommGraph, Advisor) {
        let graph = CommGraph::mesh_2d(3, 3);
        let mut cloud = Cloud::boot(Provider::ec2_like(), 31);
        let alloc = cloud.allocate(10);
        let net = cloud.network(&alloc);
        let advisor = Advisor::new(AdvisorConfig { search_time_s: 2.0, ..AdvisorConfig::fast() });
        (net, graph, advisor)
    }

    #[test]
    fn redeploy_on_unchanged_network_keeps_plan() {
        let (net, graph, advisor) = setup();
        let first = advisor.run_on_network(&net, &graph, 1);
        let decision = redeploy(
            &advisor,
            &net,
            &graph,
            &first.deployment,
            RedeployPolicy { min_gain: 0.05, migration_cost_per_node: 0.0 },
            2,
        );
        // The old plan is near-optimal on the same network: no migration.
        assert!(
            !decision.migrate || decision.moved_nodes == 0,
            "spurious migration of {} nodes for {:.1} % gain",
            decision.moved_nodes,
            (decision.keep_cost - decision.outcome.optimized_cost) / decision.keep_cost * 100.0
        );
        assert_eq!(decision.plan(&first.deployment), &first.deployment);
    }

    #[test]
    fn redeploy_after_drift_never_recommends_a_worse_plan() {
        let (net, graph, advisor) = setup();
        let first = advisor.run_on_network(&net, &graph, 1);
        let mut rng = StdRng::seed_from_u64(3);
        // Strong drift: several days.
        let drifted = net.drifted(96.0, &mut rng);
        let decision =
            redeploy(&advisor, &drifted, &graph, &first.deployment, RedeployPolicy::default(), 4);
        if decision.migrate {
            assert!(decision.outcome.optimized_cost < decision.keep_cost);
            assert!(decision.moved_nodes > 0);
        }
        // Whatever the decision, the chosen plan is valid and no worse than
        // keeping the old one.
        let problem = graph.problem(drifted.mean_matrix());
        let chosen_cost =
            problem.cost(advisor.config().objective, decision.plan(&first.deployment));
        assert!(chosen_cost <= decision.keep_cost + 1e-9);
    }

    #[test]
    fn migration_cost_vetoes_marginal_moves() {
        let (net, graph, advisor) = setup();
        let first = advisor.run_on_network(&net, &graph, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let drifted = net.drifted(24.0, &mut rng);
        // Prohibitive migration cost: never migrate.
        let decision = redeploy(
            &advisor,
            &drifted,
            &graph,
            &first.deployment,
            RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 1e9 },
            6,
        );
        assert!(!decision.migrate);
    }

    #[test]
    fn drifted_network_changes_means_but_not_wildly() {
        let (net, _, _) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let drifted = net.drifted(48.0, &mut rng);
        let a = cloudia_netsim::InstanceId(0);
        let b = cloudia_netsim::InstanceId(1);
        let before = net.mean_rtt(a, b);
        let after = drifted.mean_rtt(a, b);
        assert_ne!(before, after);
        assert!((after / before - 1.0).abs() < 0.5, "drift too violent: {before} -> {after}");
    }
}

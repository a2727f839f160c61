//! Integration tests for the extension features: placement groups
//! (paper footnote 1), network drift + re-deployment (§2.2.1).

use cloudia::core::{redeploy, RedeployPolicy};
use cloudia::netsim::{Cloud, DriftingNetwork, InstanceId, Provider};
use cloudia::prelude::*;

#[test]
fn placement_group_has_uniformly_low_latency() {
    let mut cloud = Cloud::boot(Provider::ec2_like(), 3);
    let scattered = cloud.allocate(20);
    let group = cloud.allocate_placement_group(20).expect("pod capacity");
    let net_s = cloud.network(&scattered);
    let net_g = cloud.network(&group);

    let worst = |net: &cloudia::netsim::Network| {
        let mut w = 0.0f64;
        for i in 0..20u32 {
            for j in 0..20u32 {
                if i != j {
                    w = w.max(net.mean_rtt(InstanceId(i), InstanceId(j)));
                }
            }
        }
        w
    };
    // The contiguous group never crosses the core, so its worst link beats
    // the scattered allocation's worst link.
    assert!(
        worst(&net_g) < worst(&net_s),
        "group worst {} vs scattered worst {}",
        worst(&net_g),
        worst(&net_s)
    );
}

#[test]
fn placement_group_size_is_limited() {
    // A group larger than any pod's free capacity must be refused.
    let mut cloud = Cloud::boot(Provider::ec2_like(), 4);
    let huge = cloud.topology().config().total_slots();
    assert!(cloud.allocate_placement_group(huge).is_none());
}

#[test]
fn drift_preserves_rough_link_order() {
    // The §2.2.1 premise: drift perturbs means without completely
    // reshuffling them, so re-deployment is an optimization, not a reset.
    let mut cloud = Cloud::boot(Provider::ec2_like(), 5);
    let alloc = cloud.allocate(20);
    let net = cloud.network(&alloc);
    let mut drifting = DriftingNetwork::new(net.clone(), 1);
    drifting.step(24.0);
    drifting.advance_all();
    let drifted = drifting.network();

    let mut before = Vec::new();
    let mut after = Vec::new();
    for i in 0..20u32 {
        for j in 0..20u32 {
            if i != j {
                before.push(net.mean_rtt(InstanceId(i), InstanceId(j)));
                after.push(drifted.mean_rtt(InstanceId(i), InstanceId(j)));
            }
        }
    }
    let corr = cloudia::measure::error::pearson(&before, &after);
    assert!(corr > 0.95, "drift destroyed link order: correlation {corr}");
}

#[test]
fn redeploy_loop_tracks_drift() {
    let graph = CommGraph::mesh_2d(3, 3);
    let mut cloud = Cloud::boot(Provider::ec2_like(), 6);
    let alloc = cloud.allocate(10);
    let net = cloud.network(&alloc);
    let advisor = Advisor::new(AdvisorConfig { search_time_s: 1.5, ..AdvisorConfig::fast() });

    let initial = advisor.run_on_network(&net, &graph, 1);
    let static_plan = initial.deployment.clone();
    let mut adaptive = initial.deployment.clone();

    // One continuous drift path across the epochs.
    let mut drifting = DriftingNetwork::new(net, 2);
    let mut static_total = 0.0;
    let mut adaptive_total = 0.0;
    for epoch in 0..4 {
        drifting.step(48.0);
        drifting.advance_all();
        let net = drifting.network();
        let decision =
            redeploy(&advisor, net, &graph, &adaptive, RedeployPolicy::default(), 10 + epoch);
        if decision.migrate {
            adaptive = decision.outcome.deployment.clone();
        }
        let problem = graph.problem(net.mean_matrix());
        static_total += problem.longest_link(&static_plan);
        adaptive_total += problem.longest_link(&adaptive);
    }
    assert!(
        adaptive_total <= static_total + 1e-9,
        "adaptive {adaptive_total} worse than static {static_total}"
    );
}

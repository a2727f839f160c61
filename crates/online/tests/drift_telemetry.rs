//! Lazy drift, seen from the telemetry plane: a steady focused epoch
//! replays the drift of the links it probes and prices, not of every link.
//!
//! Its own test binary: the link-step counter is process-global, so no
//! other stream may run next to it.

use cloudia_core::CommGraph;
use cloudia_measure::{MeasureConfig, Staged};
use cloudia_netsim::{Cloud, Provider};
use cloudia_online::{DetectorConfig, OnlineAdvisor, OnlineAdvisorConfig, ProbePolicy, SimStream};
use cloudia_solver::CandidateConfig;

#[test]
fn a_steady_focused_epoch_replays_only_plan_and_deployed_links() {
    cloudia_obs::set_enabled(true);
    let link_steps = || cloudia_obs::metrics().counter_value("netsim.drift_link_steps");
    let m = 30;
    let mut cloud = Cloud::boot(Provider::ec2_like(), 4);
    let allocation = cloud.allocate(m);
    let net = cloud.network(&allocation);
    let config = OnlineAdvisorConfig {
        solve_seconds: 0.1,
        threads: 1,
        spot_check_probes: 4,
        probe_policy: ProbePolicy::Focused { max_flagged: 8, refresh_every: 1000 },
        candidates: Some(CandidateConfig::fixed(3)),
        detector: DetectorConfig { warmup: 3, threshold: 1e18 },
        ..Default::default()
    };
    let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), config);
    let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);

    // The bootstrap is a full sweep: every link replays its one step.
    let before = link_steps();
    advisor.step_stream(&mut stream);
    assert_eq!(link_steps() - before, (m * (m - 1)) as u64);
    cloudia_obs::take_spans();

    for _ in 0..3 {
        let plan = advisor.next_probe_plan().expect("a focused advisor plans");
        assert!(!plan.is_full(), "a steady epoch should be focused");
        // The deployment sits inside the plan's clique (the pool
        // force-includes it), so pricing it replays nothing more.
        let deployed = advisor.deployment().clone();
        for (x, &a) in deployed.iter().enumerate() {
            assert!(deployed[x + 1..].iter().all(|&b| plan.contains(a, b)));
        }
        let before = link_steps();
        advisor.step_stream(&mut stream);
        // A quiet loop repeats its plan, so every planned link, both
        // directions, lags exactly one step.
        assert_eq!(link_steps() - before, 2 * plan.len() as u64);
        assert!(2 * plan.len() < m * (m - 1) / 4, "the plan covers most links");
    }
    let advances = cloudia_obs::take_spans().into_iter().filter(|s| s.name == "netsim.advance");
    assert!(advances.count() >= 3, "no netsim.advance span per epoch");
}

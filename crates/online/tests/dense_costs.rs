//! Where the online loop still builds an m×m cost matrix, read off the
//! `online.step` spans: a loop with candidates configured prices its
//! quiet epochs over the deployment's links and its repairs over the
//! pool's, so no epoch builds one; a loop without candidates builds one
//! per triggered epoch, for the dense repair, and none on quiet epochs.
//!
//! Its own test binary: tracing is process-global, so no other loop may
//! run next to it.

use cloudia_core::{CommGraph, RedeployPolicy};
use cloudia_measure::{MeasureConfig, Staged};
use cloudia_netsim::{Cloud, FaultParams, Network, Provider};
use cloudia_obs::AttrValue;
use cloudia_online::{
    DetectorConfig, OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent, ProbePolicy, SimStream,
};
use cloudia_solver::CandidateConfig;

fn network(m: usize, seed: u64) -> Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
    let allocation = cloud.allocate(m);
    cloud.network(&allocation)
}

/// Each traced `online.step`'s `(triggered, dense_costs, repair_pool)`.
fn steps() -> Vec<(f64, f64, f64)> {
    let num =
        |span: &cloudia_obs::SpanRecord, key: &str| match span.attrs.iter().find(|a| a.0 == key) {
            Some((_, AttrValue::Num(x))) => *x,
            other => panic!("online.step carries no numeric {key}: {other:?}"),
        };
    let spans = cloudia_obs::take_spans().into_iter().filter(|s| s.name == "online.step");
    spans.map(|s| (num(&s, "triggered"), num(&s, "dense_costs"), num(&s, "repair_pool"))).collect()
}

#[test]
fn only_a_loop_without_candidates_builds_a_dense_matrix() {
    cloudia_obs::set_enabled(true);
    cloudia_obs::take_spans();
    let m = 30;
    let config = OnlineAdvisorConfig {
        solve_seconds: 0.05,
        threads: 1,
        migration_budget: 2,
        policy: RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 },
        detector: DetectorConfig { warmup: 3, threshold: 3.0 },
        ..Default::default()
    };

    // A focused loop with a candidate pool, refreshing every 4 epochs.
    let focused = OnlineAdvisorConfig {
        candidates: Some(CandidateConfig::fixed(6)),
        probe_policy: ProbePolicy::Focused { max_flagged: 40, refresh_every: 4 },
        prune_during_sweep: true,
        ..config.clone()
    };
    let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), focused);
    let mut stream =
        SimStream::new(network(m, 4), Staged::new(2, 2), MeasureConfig::default(), 4.0, 7);
    advisor.run(&mut stream, 14);
    let focused = steps();
    assert_eq!(focused.len(), 14);
    for &(triggered, dense, pool) in &focused {
        assert_eq!(dense, 0.0, "a focused epoch built a dense matrix: {focused:?}");
        if triggered == 0.0 {
            assert_eq!(pool, 0.0, "a quiet epoch built a repair pool: {focused:?}");
        } else {
            assert!(0.0 < pool && pool < m as f64, "a repair searched {pool} instances");
        }
    }
    assert!(focused.iter().any(|s| s.0 == 1.0), "the focused loop never repaired");

    // A lossy uniform loop whose deployed instance blacks out for good;
    // latency repairs never pay, so the evacuation moves it.
    let lossy = OnlineAdvisorConfig {
        candidates: Some(CandidateConfig::fixed(6)),
        policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 0.0 },
        ..config.clone()
    };
    let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), lossy);
    let mut stream = SimStream::with_faults(
        network(m, 5),
        Staged::new(2, 2),
        MeasureConfig::default(),
        2.0,
        9,
        FaultParams::drifting_loss(0.05),
        0xfa11,
    );
    advisor.run(&mut stream, 3);
    stream.force_instance_dark(advisor.deployment()[0], 1e9);
    advisor.run(&mut stream, 5);
    let lossy = steps();
    assert!(lossy.iter().all(|s| s.1 == 0.0), "a lossy epoch built a dense matrix: {lossy:?}");
    let evacuated = advisor.events().iter().any(|e| matches!(e, OnlineEvent::Evacuate { .. }));
    assert!(evacuated, "the blackout was never evacuated");

    // Without candidates the repair is dense: one matrix per triggered
    // epoch, none on a quiet one.
    let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), config);
    let mut stream =
        SimStream::new(network(m, 4), Staged::new(2, 2), MeasureConfig::default(), 4.0, 7);
    advisor.run(&mut stream, 10);
    let dense = steps();
    for &(triggered, built, pool) in &dense {
        assert_eq!((built, pool), (triggered, triggered * m as f64), "{dense:?}");
    }
    assert!(dense.iter().any(|s| s.0 == 1.0), "the dense loop never repaired");
    cloudia_obs::set_enabled(false);
}

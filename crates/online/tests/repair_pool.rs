//! What each online repair searches, read off the `online.step` spans'
//! `repair_pool` attribute: every repair solves a pool ranked off the
//! kept search-cost index, and a loop without candidates solves the pool
//! of every instance. A quiet epoch builds no pool.
//!
//! Its own test binary: tracing is process-global, so no loop outside it
//! may run next to these, and its tests take turns through `TRACING`.

use std::sync::Mutex;

use cloudia_core::{CommGraph, RedeployPolicy};
use cloudia_measure::{MeasureConfig, Staged};
use cloudia_netsim::{Cloud, FaultParams, Network, Provider};
use cloudia_obs::AttrValue;
use cloudia_online::{
    DetectorConfig, OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent, ProbePolicy, SimStream,
};
use cloudia_solver::CandidateConfig;

/// Held by each test for its whole run: spans and counters are global.
static TRACING: Mutex<()> = Mutex::new(());

fn network(m: usize, seed: u64) -> Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
    let allocation = cloud.allocate(m);
    cloud.network(&allocation)
}

fn config() -> OnlineAdvisorConfig {
    OnlineAdvisorConfig {
        solve_seconds: 0.05,
        threads: 1,
        migration_budget: 2,
        policy: RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 },
        detector: DetectorConfig { warmup: 3, threshold: 3.0 },
        ..Default::default()
    }
}

/// Bulk builds of the search-cost index so far.
fn cost_index_rebuilds() -> u64 {
    cloudia_obs::metrics().counter_value("online.cost_index_rebuilds")
}

/// Each traced `online.step`'s `(triggered, repair_pool)`.
fn steps() -> Vec<(f64, f64)> {
    let num =
        |span: &cloudia_obs::SpanRecord, key: &str| match span.attrs.iter().find(|a| a.0 == key) {
            Some((_, AttrValue::Num(x))) => *x,
            other => panic!("online.step carries no numeric {key}: {other:?}"),
        };
    let spans = cloudia_obs::take_spans().into_iter().filter(|s| s.name == "online.step");
    spans.map(|s| (num(&s, "triggered"), num(&s, "repair_pool"))).collect()
}

#[test]
fn repairs_search_their_pool_and_quiet_epochs_none() {
    let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    cloudia_obs::set_enabled(true);
    cloudia_obs::take_spans();
    let m = 30;

    // A focused loop with a candidate pool, refreshing every 4 epochs.
    let focused = OnlineAdvisorConfig {
        candidates: Some(CandidateConfig::fixed(6)),
        probe_policy: ProbePolicy::Focused { max_flagged: 40, refresh_every: 4 },
        prune_during_sweep: true,
        ..config()
    };
    let built = cost_index_rebuilds();
    let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), focused);
    let mut stream =
        SimStream::new(network(m, 4), Staged::new(2, 2), MeasureConfig::default(), 4.0, 7);
    advisor.run(&mut stream, 14);
    let focused = steps();
    assert_eq!(focused.len(), 14);
    for &(triggered, pool) in &focused {
        if triggered == 0.0 {
            assert_eq!(pool, 0.0, "a quiet epoch built a repair pool: {focused:?}");
        } else {
            assert!(0.0 < pool && pool < m as f64, "a repair searched {pool} instances");
        }
    }
    assert!(focused.iter().any(|s| s.0 == 1.0), "the focused loop never repaired");
    assert!(cost_index_rebuilds() > built, "a ranked pool never built the search-cost index");

    // A lossy uniform loop whose deployed instance blacks out for good;
    // latency repairs never pay, so the evacuation moves it.
    let lossy = OnlineAdvisorConfig {
        candidates: Some(CandidateConfig::fixed(6)),
        policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 0.0 },
        ..config()
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
    steps();
    let evacuated = advisor.events().iter().any(|e| matches!(e, OnlineEvent::Evacuate { .. }));
    assert!(evacuated, "the blackout was never evacuated");

    // Without candidates a repair searches every instance, and a quiet
    // epoch nothing.
    let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), config());
    let mut stream =
        SimStream::new(network(m, 4), Staged::new(2, 2), MeasureConfig::default(), 4.0, 7);
    advisor.run(&mut stream, 10);
    let every = steps();
    for &(triggered, pool) in &every {
        assert_eq!(pool, triggered * m as f64, "{every:?}");
    }
    assert!(every.iter().any(|s| s.0 == 1.0), "the loop without candidates never repaired");
    cloudia_obs::set_enabled(false);
}

#[test]
fn no_candidates_repairs_exactly_like_the_pool_of_every_instance() {
    let _tracing = TRACING.lock().unwrap_or_else(|e| e.into_inner());
    cloudia_obs::set_enabled(true);
    let m = 16;
    // A drifting lossy loop whose deployed instance blacks out midway:
    // alarm repairs that never pay, and an evacuation that migrates.
    let run = |candidates: Option<CandidateConfig>| {
        let config = OnlineAdvisorConfig {
            candidates,
            solve_seconds: 0.5,
            policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 0.0 },
            ..config()
        };
        let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), m, (0..4).collect(), config);
        let mut stream = SimStream::with_faults(
            network(m, 6),
            Staged::new(2, 2),
            MeasureConfig::default(),
            3.0,
            11,
            FaultParams::drifting_loss(0.05),
            0xfa11,
        );
        let built = cost_index_rebuilds();
        let mut epochs = Vec::new();
        for epoch in 0..14 {
            if epoch == 7 {
                stream.force_instance_dark(advisor.deployment()[0], 1e9);
            }
            let summary = advisor.step_stream(&mut stream);
            epochs.push((format!("{summary:?}"), advisor.deployment().clone()));
        }
        // Repair solve times are wall-clock: everything else must match.
        let events: Vec<String> = advisor
            .events()
            .iter()
            .map(|e| {
                let mut e = e.clone();
                if let OnlineEvent::Resolve { solve_seconds, .. } = &mut e {
                    *solve_seconds = 0.0;
                }
                format!("{e:?}")
            })
            .collect();
        (epochs, events, cost_index_rebuilds() - built)
    };
    let (none, every) = (run(None), run(Some(CandidateConfig::fixed(m))));
    assert_eq!(none.0, every.0, "epoch summaries and deployments");
    assert_eq!(none.1, every.1, "event logs");
    assert_eq!((none.2, every.2), (0, 0), "a pool of every instance built the search-cost index");
    let logged = |kind: &str| none.1.iter().filter(|e| e.starts_with(kind)).count();
    assert!(logged("Resolve") > logged("Evacuate"), "no alarm repair ran");
    assert!(logged("Evacuate") > 0 && logged("Migrate") > 0, "the blackout was never evacuated");
    cloudia_obs::set_enabled(false);
}

//! The staleness scan, seen from the telemetry plane: a focused loop
//! scans its links for stale estimates only when one can be stale.
//!
//! Its own test binary: the scan counter is process-global, so no other
//! advisor may run next to it.

use cloudia_core::{CommGraph, Objective, RedeployPolicy};
use cloudia_measure::{MeasureConfig, Staged};
use cloudia_netsim::{Cloud, Provider};
use cloudia_online::{DetectorConfig, OnlineAdvisor, OnlineAdvisorConfig, ProbePolicy, SimStream};
use cloudia_solver::{AdaptivePoolConfig, CandidateConfig};

#[test]
fn a_focused_loop_scans_for_stale_links_only_on_the_bootstrap_and_the_refresh() {
    cloudia_obs::set_enabled(true);
    let scans = || cloudia_obs::metrics().counter_value("online.stale_scans");
    // The `online_focused` benchmark loop at m = 40: a 3×4 mesh, a
    // 20-instance adaptive pool, focused probing with a 10-epoch staleness
    // horizon and mid-sweep pruning, which reads the stale pairs too.
    let (m, refresh_every) = (40, 10);
    let mut cloud = Cloud::boot(Provider::ec2_like(), 42);
    let allocation = cloud.allocate(m);
    let net = cloud.network(&allocation);
    let config = OnlineAdvisorConfig {
        objective: Objective::LongestLink,
        policy: RedeployPolicy { min_gain: 0.02, migration_cost_per_node: 0.05 },
        migration_budget: 3,
        solve_seconds: 0.2,
        threads: 1,
        seed: 42,
        candidates: Some(CandidateConfig::adaptive(AdaptivePoolConfig { initial: 20, alpha: 0.1 })),
        probe_policy: ProbePolicy::Focused { refresh_every, max_flagged: m * (m - 1) / 8 },
        probe_ks: 3,
        probe_sweeps: 2,
        prune_during_sweep: true,
        ewma_alpha: 0.5,
        detector: DetectorConfig { warmup: 3, threshold: 6.0 },
        ..OnlineAdvisorConfig::default()
    };
    let graph = CommGraph::mesh_2d(3, 4);
    let mut advisor = OnlineAdvisor::new(graph, m, (0..12).collect(), config);
    let mcfg = MeasureConfig { seed: 42, ..MeasureConfig::default() };
    let mut stream = SimStream::new(net, Staged::new(3, 2), mcfg, 6.0, 42 ^ 0xf0c5);
    let mut scanned = Vec::new();
    for _ in 0..=refresh_every + 1 {
        let before = scans();
        advisor.step_stream(&mut stream);
        scanned.push(scans() - before);
    }
    // Epoch 0: nothing sampled, every pair stale. Epochs 1–10: every link
    // sampled within the horizon, nothing to scan. Epoch 11: the bootstrap's
    // samples age out, and the plan is the full refresh.
    let scanned_at: Vec<usize> = (0..scanned.len()).filter(|&e| scanned[e] > 0).collect();
    assert_eq!(scanned_at, [0, 11], "scans per epoch {scanned:?}");
}

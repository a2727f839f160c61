//! Integration: the stage-streaming measurement plane through the
//! `cloudia` facade — driver stepping and mid-sweep pruning end to end
//! (driver → prune rule → stream → advisor), plus the differential
//! budget/quality contract on the shared recorded-trajectory scenario.

use cloudia::core::CommGraph;
use cloudia::measure::{MeasureConfig, PairwiseStats, PruneRule, Scheme, Staged, StopRule};
use cloudia::netsim::{Cloud, Provider};
use cloudia::online::{
    ArmOptions, FocusArm, FocusScenario, MeasurementStream, OnlineAdvisor, OnlineAdvisorConfig,
    OnlineEvent, ProbePolicy, SimStream, CONTRACT_SEEDS, MEDIAN_COST_GAP_BOUND,
};
use cloudia::solver::{CandidateConfig, CandidatePruneRule};

fn network(n: usize, seed: u64) -> cloudia::netsim::Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

#[test]
fn pruned_sweep_converges_on_the_candidate_clique() {
    // One staged sweep over a cold start, then a second sweep pruned by
    // the candidate rule built from the first sweep's statistics: the
    // second sweep only probes the union clique (plus protected pairs).
    let m = 16;
    let net = network(m, 3);
    let cfg = MeasureConfig::default();
    let scheme = Staged::new(2, 2);

    let first = scheme.run(&net, &cfg);
    let incumbent: Vec<u32> = (0..4).collect();
    let rule = CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_incumbent(&incumbent);

    let pruned = cloudia::measure::run_pruned(&scheme, &net, &cfg, first.stats.clone(), &rule);
    assert!(pruned.saved_round_trips > 0, "warm statistics must enable pruning");
    assert!(pruned.dropped_pairs > 0);
    assert!(
        pruned.report.round_trips < first.round_trips / 2,
        "pruned sweep {} vs full {}",
        pruned.report.round_trips,
        first.round_trips
    );
    // Per-link: pairs whose remaining probes were dropped gained nothing
    // over the first sweep; incumbent links always gained.
    let survivors = rule.prune(
        &first.stats,
        &(0..m as u32).flat_map(|a| (a + 1..m as u32).map(move |b| (a, b))).collect::<Vec<_>>(),
    );
    for &(a, b) in &survivors {
        let before = first.stats.link(a as usize, b as usize).count()
            + first.stats.link(b as usize, a as usize).count();
        let after = pruned.report.stats.link(a as usize, b as usize).count()
            + pruned.report.stats.link(b as usize, a as usize).count();
        assert_eq!(after, before, "condemned pair ({a},{b}) was still probed");
    }
    for w in 0..3u32 {
        let (a, b) = (incumbent[w as usize] as usize, incumbent[w as usize + 1] as usize);
        assert!(
            pruned.report.stats.link(a, b).count() > first.stats.link(a, b).count(),
            "incumbent link ({a},{b}) starved by pruning"
        );
    }
}

#[test]
fn online_loop_prunes_sweeps_and_stays_consistent() {
    // Closed loop through the facade: uniform probing with mid-sweep
    // pruning on a SimStream. Epoch 0 must be a full sweep (nothing
    // provable), later epochs must save and log it.
    let graph = CommGraph::ring(5);
    let m = 18usize;
    let net = network(m, 11);
    let config = OnlineAdvisorConfig {
        solve_seconds: 0.1,
        candidates: Some(CandidateConfig::fixed(6)),
        prune_during_sweep: true,
        prune_refresh_every: 4,
        ..Default::default()
    };
    let mut advisor = OnlineAdvisor::new(graph, m, (0..5).collect(), config);
    let mut stream = SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 7);
    let summaries = advisor.run(&mut stream, 6);

    let full_round_trips = (m * (m - 1) / 2 * 3 * 2) as u64;
    assert_eq!(summaries[0].round_trips, full_round_trips, "cold epoch must sweep fully");
    assert_eq!(summaries[0].saved_round_trips, 0);
    for s in &summaries[1..] {
        assert!(
            s.round_trips < full_round_trips,
            "epoch {}: nothing pruned ({} round trips)",
            s.epoch,
            s.round_trips
        );
        assert!(s.true_cost > 0.0);
    }
    assert!(advisor.sweep_saved_round_trips() > 0);
    assert!(advisor
        .events()
        .iter()
        .any(|e| matches!(e, OnlineEvent::SweepPruned { saved_round_trips, .. } if *saved_round_trips > 0)));
    assert_eq!(advisor.probe_round_trips(), summaries.iter().map(|s| s.round_trips).sum::<u64>());
}

/// A rule that condemns nothing and a stop that never fires: the pruned
/// and anytime entry points must then be bit-identical to the plain batch
/// path, epoch for epoch.
struct KeepEverything;
impl PruneRule for KeepEverything {
    fn prune(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> Vec<(u32, u32)> {
        Vec::new()
    }
}
impl StopRule for KeepEverything {
    fn stable(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> bool {
        false
    }
}

#[test]
fn no_op_rule_keeps_streams_bit_identical() {
    let m = 10;
    let run = |entry: &str| {
        let mut stream =
            SimStream::new(network(m, 5), Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        let mut means = Vec::new();
        for _ in 0..3 {
            let e = match entry {
                "pruned" => stream.next_epoch_pruned(None, &KeepEverything),
                "anytime" => stream.next_epoch_anytime(None, &KeepEverything, &KeepEverything),
                _ => stream.next_epoch(),
            };
            means.extend(e.deltas.iter().map(|d| d.mean));
            assert_eq!(e.saved_round_trips, 0);
        }
        means
    };
    assert_eq!(run("plain"), run("pruned"));
    assert_eq!(run("plain"), run("anytime"));
}

/// The differential contract, driven through the public facade on the
/// shared [`FocusScenario`] over the seed set [`CONTRACT_SEEDS`] (same
/// helper as the `ext_sweep` CI smoke): mid-sweep pruning saves ≥ 30 %
/// of uniform's probe round trips on every seed, with a median
/// time-averaged ground-truth cost gap within [`MEDIAN_COST_GAP_BOUND`].
///
/// Beside the contract, the seed-42 arms' probe ledgers are pinned as
/// golden values (re-recorded when the drift moved to counter-keyed
/// draws, which changed the trajectory, and the anytime arm's again when
/// unanswered repairs stopped growing the pool on in-pool alarms, which
/// kept its pool from running away to every instance): repairs here end
/// by proof in
/// milliseconds, far inside their wall-clock cap, so the counts are a
/// function of the seed, and any refactor of the decision path is held
/// to seeded identity in-tree.
#[test]
#[cfg_attr(debug_assertions, ignore = "full differential run; slow in debug — run with --release")]
fn pruned_vs_uniform_differential_through_the_facade() {
    let scenario = FocusScenario { solve_seconds: 0.1, ..FocusScenario::default() };
    let pruned_opts =
        ArmOptions { prune_during_sweep: true, ..ArmOptions::plain(ProbePolicy::Uniform) };
    let cmp = scenario.against_uniform(CONTRACT_SEEDS, pruned_opts);
    for (seed, ratio) in cmp.probe_ratios() {
        assert!(ratio <= 0.70, "seed {seed}: pruning saved only {:.1}%", (1.0 - ratio) * 100.0);
    }
    assert!(cmp.runs.iter().all(|(_, _, pruned)| pruned.saved_round_trips > 0));
    let gap = cmp.median_cost_gap();
    assert!(
        gap <= MEDIAN_COST_GAP_BOUND,
        "pruned median cost gap {:+.2}% above the {:.0}% bound",
        gap * 100.0,
        MEDIAN_COST_GAP_BOUND * 100.0
    );

    let built = scenario.build();
    let uniform = built.run_arm(ProbePolicy::Uniform);
    let pruned = built.run_arm_with(pruned_opts);
    let anytime =
        built.run_arm_with(ArmOptions { confidence: Some(0.95), anytime: true, ..pruned_opts });
    let ledger = |arm: &FocusArm| (arm.probes, arm.saved_round_trips);
    assert_eq!(ledger(&uniform), (295_680, 0), "uniform arm left its seeded trajectory");
    assert_eq!(ledger(&pruned), (85_806, 209_874), "pruned arm left its seeded trajectory");
    assert_eq!(ledger(&anytime), (74_448, 221_232), "CI + anytime arm left its seeded trajectory");
}

//! Integration: trigger-driven focused measurement through the `cloudia`
//! facade — the focused probe loop end to end (plan → focused round →
//! store → detectors → repair), plus the differential budget/quality
//! contract on the shared recorded-trajectory scenario.

use cloudia::core::CommGraph;
use cloudia::measure::{MeasureConfig, Staged};
use cloudia::netsim::{Cloud, Provider};
use cloudia::online::{
    ArmOptions, FocusScenario, OnlineAdvisor, OnlineAdvisorConfig, ProbePolicy, SimStream,
    CONTRACT_SEEDS, MEDIAN_COST_GAP_BOUND,
};
use cloudia::solver::CandidateConfig;

#[test]
fn focused_loop_runs_end_to_end_with_bounded_probe_budget() {
    // A closed-loop SimStream run under the focused policy: epochs
    // proceed, the bootstrap epoch is a full sweep, later epochs probe
    // only the plan, and the advisor stays consistent throughout.
    let graph = CommGraph::ring(5);
    let m = 24usize;
    let mut cloud = Cloud::boot(Provider::ec2_like(), 11);
    let alloc = cloud.allocate(m);
    let net = cloud.network(&alloc);

    let config = OnlineAdvisorConfig {
        solve_seconds: 0.1,
        candidates: Some(CandidateConfig::fixed(6)),
        probe_policy: ProbePolicy::Focused { refresh_every: 12, max_flagged: 60 },
        ..Default::default()
    };
    let mut advisor = OnlineAdvisor::new(graph, m, (0..5).collect(), config);
    let mut stream = SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 3);
    let summaries = advisor.run(&mut stream, 6);

    let full_round_trips = (m * (m - 1) / 2 * 3 * 2) as u64;
    assert_eq!(summaries[0].round_trips, full_round_trips, "bootstrap epoch must sweep fully");
    for s in &summaries[1..] {
        assert!(
            s.round_trips < full_round_trips / 2,
            "epoch {}: focused round spent {} of a full sweep's {}",
            s.epoch,
            s.round_trips,
            full_round_trips
        );
        assert!(s.true_cost > 0.0);
    }
    assert_eq!(advisor.probe_round_trips(), summaries.iter().map(|s| s.round_trips).sum::<u64>());
    // The next plan covers every deployed link (incumbent is always in
    // the candidate pool).
    let plan = advisor.next_probe_plan().expect("focused policy plans probes");
    let d = advisor.deployment().clone();
    for w in 0..5usize {
        assert!(plan.contains(d[w], d[(w + 1) % 5]), "deployed link left unprobed");
    }
}

/// The differential contract, driven through the public facade on the
/// shared [`FocusScenario`] over the seed set [`CONTRACT_SEEDS`] (same
/// helper as the `ext_focus` CI smoke and
/// `crates/online/tests/focused.rs`): on every seed at most 25 % of
/// uniform's probe round trips and the adaptive `k` shrinking on the
/// quiet tail, and a median time-averaged ground-truth cost gap within
/// [`MEDIAN_COST_GAP_BOUND`].
#[test]
#[cfg_attr(debug_assertions, ignore = "full differential run; slow in debug — run with --release")]
fn focused_vs_uniform_differential_through_the_facade() {
    let scenario = FocusScenario { solve_seconds: 0.1, ..FocusScenario::default() };
    let cmp =
        scenario.against_uniform(CONTRACT_SEEDS, ArmOptions::plain(scenario.focused_policy()));

    for (seed, ratio) in cmp.probe_ratios() {
        assert!(
            ratio <= 0.25,
            "seed {seed}: focused spent {:.1}% of uniform's probes",
            ratio * 100.0
        );
    }
    let gap = cmp.median_cost_gap();
    assert!(
        gap <= MEDIAN_COST_GAP_BOUND,
        "focused median cost gap {:+.2}% above the {:.0}% bound",
        gap * 100.0,
        MEDIAN_COST_GAP_BOUND * 100.0
    );
    let held = cmp.seeds_where_k_held();
    assert!(held.is_empty(), "adaptive k never shrank on seeds {held:?}");
}

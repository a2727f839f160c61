//! The focused, pruned loop keeps its sweep rule's pool index for the
//! whole run. One test, in a process of its own: it reads the rebuild
//! counter of the global registry, which a concurrently evaluated rule
//! would move.

use cloudia_measure::{PruneRule, Staged};
use cloudia_online::{
    BuiltFocusScenario, FocusScenario, MeasurementStream, OnlineAdvisor, OnlineAdvisorConfig,
    ReplayStream,
};
use cloudia_solver::CandidateConfig;

fn rebuilds() -> u64 {
    cloudia_obs::metrics().counter_value("sweep.rule.index_rebuilds")
}

/// What one run of the loop left behind, epoch by epoch.
#[derive(Debug, PartialEq)]
struct Run {
    /// Round trips, saved round trips, ground-truth cost bits, plan.
    epochs: Vec<(u64, u64, u64, Vec<u32>)>,
    /// Rule-index rebuilds during each epoch's step.
    rebuilt: Vec<u64>,
    /// The epoch's plan probed most pairs (bootstrap or refresh).
    sweeping: Vec<bool>,
}

/// Runs the scenario's focused, pruned loop. Before epoch `shadow_at` it
/// also evaluates the advisor's own rule between epochs, the way
/// loopbench's shadow does: on the stream's statistics, then on a clone
/// of them — and checks that the kept index agrees with the rebuild the
/// clone forces, and that only the clone rebuilds.
fn run(built: &BuiltFocusScenario, shadow_at: Option<u64>) -> Run {
    let s = &built.scenario;
    let config = OnlineAdvisorConfig {
        solve_seconds: s.solve_seconds,
        seed: s.seed,
        candidates: Some(CandidateConfig::fixed(s.initial_k)),
        probe_policy: s.focused_policy(),
        probe_ks: s.probe_ks,
        probe_sweeps: s.probe_sweeps,
        prune_during_sweep: true,
        ewma_alpha: 0.5,
        ..OnlineAdvisorConfig::default()
    };
    let mut advisor =
        OnlineAdvisor::new(built.graph.clone(), s.instances, built.initial.clone(), config);
    let mut stream = ReplayStream::new(
        built.snapshots.clone(),
        Staged::new(s.probe_ks, s.probe_sweeps),
        built.measure_cfg.clone(),
        s.epoch_hours,
    );
    let pairs: Vec<(u32, u32)> = (0..s.instances as u32)
        .flat_map(|a| (a + 1..s.instances as u32).map(move |b| (a, b)))
        .collect();
    let mut out = Run { epochs: Vec::new(), rebuilt: Vec::new(), sweeping: Vec::new() };
    for epoch in 0..s.epochs() {
        if shadow_at == Some(epoch) {
            let rule = advisor.sweep_prune_rule().expect("a pruned loop has a rule");
            let before = rebuilds();
            let kept = rule.prune(stream.cumulative(), &pairs);
            assert_eq!(rebuilds(), before, "the kept index rebuilt on its own statistics");
            let rebuilt = rule.prune(&stream.cumulative().clone(), &pairs);
            assert_eq!(rebuilds(), before + 1, "a clone is another history: one rebuild");
            assert_eq!(kept, rebuilt, "the kept index and a rebuild reached different verdicts");
            assert!(!kept.is_empty(), "nothing condemned mid-run: a vacuous comparison");
        }
        let plan = advisor.next_probe_plan().expect("focused policy plans probes");
        out.sweeping.push(plan.coverage() > 0.5);
        let before = rebuilds();
        let summary = advisor.step_stream(&mut stream);
        out.rebuilt.push(rebuilds() - before);
        out.epochs.push((
            summary.round_trips,
            summary.saved_round_trips,
            summary.true_cost.to_bits(),
            advisor.deployment().clone(),
        ));
    }
    out
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scenario run; slow in debug — run with --release")]
fn the_focused_loop_rebuilds_its_rule_index_only_after_sweeping_epochs() {
    let built = FocusScenario { solve_seconds: 0.1, ..FocusScenario::default() }.build();
    let plain = run(&built, None);
    assert_eq!(plain.rebuilt[0], 1, "the bootstrap builds the index once");
    for e in 1..plain.rebuilt.len() {
        assert!(
            plain.rebuilt[e] == 0 || plain.sweeping[e] || plain.sweeping[e - 1],
            "epoch {e} rebuilt the index without a bootstrap or refresh behind it: {:?}",
            plain.rebuilt
        );
    }

    // A foreign evaluation between two epochs costs the next epoch one
    // rebuild and changes nothing the loop decides.
    let shadow_at = 5;
    let shadowed = run(&built, Some(shadow_at));
    assert_eq!(shadowed.epochs, plain.epochs, "the shadow evaluation moved the loop");
    let mut expected = plain.rebuilt.clone();
    expected[shadow_at as usize] += 1;
    assert_eq!(shadowed.rebuilt, expected);
}

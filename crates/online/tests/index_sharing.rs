//! A pruned loop keeps its sweep rule's pool index for the whole run,
//! point or interval evidence alike. One test, in a process of its own: it
//! reads the rebuild counter of the global registry, which a concurrently
//! evaluated rule would move.

use cloudia_measure::{PairwiseStats, ProbePlan, PruneRule, StopRule};
use cloudia_online::{
    BuiltFocusScenario, FocusScenario, MeasurementStream, OnlineAdvisor, OnlineAdvisorConfig,
    ProbePolicy,
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
    /// The epoch's focused plan probed most pairs (bootstrap or refresh).
    sweeping: Vec<bool>,
}

/// Runs the scenario's pruned loop: focused on point evidence, or —
/// `anytime` — uniform with CI pruning and the anytime stop. Before epoch
/// `shadow_at` it also evaluates the advisor's own rules between epochs,
/// the way loopbench's shadow does: on the stream's statistics, then on a
/// clone of them — and checks that the kept index agrees with the rebuild
/// the clone forces, and that only the clone rebuilds.
fn run(built: &BuiltFocusScenario, anytime: bool, shadow_at: Option<u64>) -> Run {
    let s = &built.scenario;
    let config = OnlineAdvisorConfig {
        solve_seconds: s.solve_seconds,
        seed: s.seed,
        candidates: Some(CandidateConfig::fixed(s.initial_k)),
        probe_policy: if anytime { ProbePolicy::Uniform } else { s.focused_policy() },
        probe_ks: s.probe_ks,
        probe_sweeps: s.probe_sweeps,
        prune_during_sweep: true,
        prune_refresh_every: s.prune_refresh_every,
        confidence: anytime.then_some(0.95),
        anytime,
        ewma_alpha: 0.5,
        ..OnlineAdvisorConfig::default()
    };
    let mut advisor =
        OnlineAdvisor::new(built.graph.clone(), s.instances, built.initial.clone(), config);
    let mut stream = built.stream();
    let pairs: Vec<(u32, u32)> = (0..s.instances as u32)
        .flat_map(|a| (a + 1..s.instances as u32).map(move |b| (a, b)))
        .collect();
    let mut out = Run { epochs: Vec::new(), rebuilt: Vec::new(), sweeping: Vec::new() };
    for epoch in 0..s.epochs() {
        built.script(&mut stream, epoch);
        if shadow_at == Some(epoch) {
            let rule =
                if anytime { advisor.sweep_ci_prune_rule() } else { advisor.sweep_prune_rule() }
                    .expect("a pruned loop has a rule");
            let stop = advisor.sweep_stop_rule();
            assert_eq!(stop.is_some(), anytime);
            let verdicts = |stats: &PairwiseStats| {
                (rule.prune(stats, &pairs), stop.as_ref().map(|stop| stop.stable(stats, &pairs)))
            };
            let before = rebuilds();
            let kept = verdicts(stream.cumulative());
            assert_eq!(rebuilds(), before, "the kept index rebuilt on its own statistics");
            let rebuilt = verdicts(&stream.cumulative().clone());
            assert_eq!(rebuilds(), before + 1, "a clone is another history: one rebuild");
            assert_eq!(kept, rebuilt, "the kept index and a rebuild reached different verdicts");
            assert!(!kept.0.is_empty(), "nothing condemned mid-run: a vacuous comparison");
        }
        let plan = advisor.next_probe_plan();
        out.sweeping.push(plan.as_ref().is_some_and(|plan: &ProbePlan| plan.coverage() > 0.5));
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

/// A foreign evaluation before epoch `shadow_at` costs that epoch one
/// rebuild and changes nothing the loop decides.
fn check_shadow(built: &BuiltFocusScenario, anytime: bool, plain: &Run, shadow_at: u64) {
    let shadowed = run(built, anytime, Some(shadow_at));
    assert_eq!(shadowed.epochs, plain.epochs, "the shadow evaluation moved the loop");
    let mut expected = plain.rebuilt.clone();
    expected[shadow_at as usize] += 1;
    assert_eq!(shadowed.rebuilt, expected);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full scenario run; slow in debug — run with --release")]
fn a_pruned_loop_keeps_its_rule_index_for_the_run() {
    let built = FocusScenario { solve_seconds: 0.1, ..FocusScenario::default() }.build();

    // Focused on point evidence: a refresh epoch touches more links than
    // the touch log holds, so only an epoch after a sweeping plan may
    // rebuild.
    let focused = run(&built, false, None);
    assert_eq!(focused.rebuilt[0], 1, "the bootstrap builds the index once");
    for e in 1..focused.rebuilt.len() {
        assert!(
            focused.rebuilt[e] == 0 || focused.sweeping[e] || focused.sweeping[e - 1],
            "epoch {e} rebuilt the index without a bootstrap or refresh behind it: {:?}",
            focused.rebuilt
        );
    }
    check_shadow(&built, false, &focused, 5);

    // Uniform with CI pruning and the anytime stop: between one epoch's
    // last rule look and the next epoch's first only a few links move, so
    // the interval index is built once, at bootstrap.
    let anytime = run(&built, true, None);
    assert_eq!(anytime.rebuilt[0], 1, "the bootstrap builds the index once");
    assert!(
        anytime.rebuilt[1..].iter().all(|&r| r == 0),
        "a later epoch rebuilt the interval index: {:?}",
        anytime.rebuilt
    );
    check_shadow(&built, true, &anytime, 3);
}

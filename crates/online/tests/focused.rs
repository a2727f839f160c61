//! Focused-measurement satellites: the differential quality/budget
//! contract (focused vs uniform probing on one keyed trajectory), the
//! detector→probe-plan soundness properties, and the kept plan pool's
//! equality with a build over the dense search costs.

use cloudia_core::{CommGraph, CostMatrix, RedeployPolicy};
use cloudia_netsim::{loss_priced_mean, Cloud, Provider};
use cloudia_online::{
    ArmOptions, DetectorConfig, EpochMeasurement, FocusScenario, LinkDelta, OnlineAdvisor,
    OnlineAdvisorConfig, OnlineEvent, OnlineStore, ProbePolicy, CONTRACT_SEEDS,
    MEDIAN_COST_GAP_BOUND,
};
use cloudia_solver::{CandidateConfig, CandidateSet};
use proptest::prelude::*;

/// Differential contract: on each scenario seed's keyed trajectory,
/// focused probing runs against uniform probing. Over the seed set, the
/// median time-averaged ground-truth cost gap stays within
/// [`MEDIAN_COST_GAP_BOUND`] (whose comment derives it from the one-seed
/// spread), and on every seed focused probing spends at most 25 % of
/// uniform's probe round trips.
///
/// The scenario is the shared [`FocusScenario`] — the same one the
/// `ext_focus` CI smoke and the root `tests/focused.rs` case assert.
#[test]
#[cfg_attr(debug_assertions, ignore = "full differential run; slow in debug — run with --release")]
fn focused_probing_matches_uniform_cost_at_a_quarter_of_the_probes() {
    let scenario = FocusScenario { solve_seconds: 0.1, ..FocusScenario::default() };
    let cmp =
        scenario.against_uniform(CONTRACT_SEEDS, ArmOptions::plain(scenario.focused_policy()));
    let gap = cmp.median_cost_gap();
    eprintln!("focused: median cost gap {:+.2}%", gap * 100.0);
    assert!(
        gap <= MEDIAN_COST_GAP_BOUND,
        "focused median cost gap {:+.2}% above the {:.0}% bound",
        gap * 100.0,
        MEDIAN_COST_GAP_BOUND * 100.0
    );
    for (seed, ratio) in cmp.probe_ratios() {
        assert!(
            ratio <= 0.25,
            "seed {seed}: focused probing spent {:.1}% of uniform's round trips",
            ratio * 100.0
        );
    }
}

// ---------------------------------------------------------------------
// Detector → probe-plan soundness, driven by synthetic epochs fed
// straight through `OnlineAdvisor::step` (the plan is never executed, so
// the deltas are free to describe any measurement pattern).
// ---------------------------------------------------------------------

const M: usize = 8;

fn synthetic_net() -> cloudia_netsim::Network {
    let mut cloud = Cloud::boot(Provider::test_quiet(), 1);
    let alloc = cloud.allocate(M);
    cloud.network(&alloc)
}

fn focused_advisor(refresh_every: u64, max_flagged: usize) -> OnlineAdvisor {
    let graph = CommGraph::ring(4);
    let config = OnlineAdvisorConfig {
        // Repairs are irrelevant here; keep them cheap and rare.
        solve_seconds: 0.05,
        policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 1e9 },
        detector: DetectorConfig { warmup: 3, ..Default::default() },
        candidates: Some(CandidateConfig::fixed(4)),
        probe_policy: ProbePolicy::Focused { refresh_every, max_flagged },
        ..Default::default()
    };
    OnlineAdvisor::new(graph, M, (0..4).collect(), config)
}

/// An epoch whose deltas cover `links` with the given means.
fn epoch_of(epoch: u64, links: &[(u32, u32, f64)]) -> EpochMeasurement {
    EpochMeasurement {
        epoch,
        at_hours: epoch as f64,
        elapsed_ms: 1.0,
        round_trips: 5 * links.len() as u64,
        deltas: links
            .iter()
            .map(|&(src, dst, mean)| LinkDelta {
                src,
                dst,
                mean,
                count: 5,
                attempts: 5,
                timeouts: 0,
            })
            .collect(),
        pruned_pairs: 0,
        saved_round_trips: 0,
    }
}

/// All directed links of the M-instance pool at a base level, with the
/// links in `shifted` raised by `shift`.
fn full_epoch(epoch: u64, shifted: &[(u32, u32)], shift: f64) -> EpochMeasurement {
    let mut links = Vec::new();
    for i in 0..M as u32 {
        for j in 0..M as u32 {
            if i != j {
                let base = 1.0 + 0.1 * ((i * M as u32 + j) % 5) as f64;
                let s = if shifted.contains(&(i, j)) { 1.0 + shift } else { 1.0 };
                links.push((i, j, base * s));
            }
        }
    }
    epoch_of(epoch, &links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Every link flagged by the detectors during `step` appears in the
    // next probe plan — whether the plan stays focused (flags are added
    // pair-by-pair) or escalates to a full sweep (flags exceed
    // `max_flagged`).
    #[test]
    fn every_flagged_link_reenters_the_next_plan(
        seed in 0u64..400,
        shift in 0.5f64..1.5,
        max_flagged in 0usize..8,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n_shift = rng.random_range(1..5usize);
        let shifted: Vec<(u32, u32)> = (0..n_shift)
            .map(|_| {
                let a = rng.random_range(0..M as u32);
                let b = (a + 1 + rng.random_range(0..M as u32 - 1)) % M as u32;
                (a, b)
            })
            .collect();
        let net = synthetic_net();
        let mut advisor = focused_advisor(4, max_flagged);
        let mut flagged_any = false;
        for e in 0..20u64 {
            // Stable baseline for 10 epochs, then the sustained shift.
            let m = full_epoch(e, if e < 10 { &[] } else { &shifted }, shift);
            advisor.step(&m, &net);
            let flagged: Vec<(u32, u32)> = advisor
                .events()
                .iter()
                .filter_map(|ev| match ev {
                    OnlineEvent::Change { epoch, change, .. } if *epoch == e => {
                        Some((change.src, change.dst))
                    }
                    _ => None,
                })
                .collect();
            flagged_any |= !flagged.is_empty();
            let plan = advisor.next_probe_plan().expect("focused policy always plans");
            for (src, dst) in flagged {
                prop_assert!(
                    plan.contains(src, dst),
                    "flagged link ({src}, {dst}) missing from the next plan"
                );
            }
        }
        prop_assert!(flagged_any, "the shift never fired any detector — vacuous case");
    }

    // Stale links always re-enter the plan: a link unobserved for more
    // than `refresh_every` epochs is planned, whatever else is going on.
    #[test]
    fn stale_links_always_reenter_the_plan(
        refresh_every in 1u64..6,
        skip_a in 0u32..8,
        skip_off in 1u32..8,
    ) {
        let skip_b = (skip_a + skip_off) % M as u32;
        let net = synthetic_net();
        let mut advisor = focused_advisor(refresh_every, 1000);
        // One full epoch so every link has an observation...
        advisor.step(&full_epoch(0, &[], 0.0), &net);
        // ...then epochs that keep everything fresh except the skipped
        // pair (both directions omitted).
        for e in 1..=(refresh_every + 3) {
            let links: Vec<(u32, u32, f64)> = (0..M as u32)
                .flat_map(|i| (0..M as u32).map(move |j| (i, j)))
                .filter(|&(i, j)| {
                    i != j
                        && !(i == skip_a && j == skip_b)
                        && !(i == skip_b && j == skip_a)
                })
                .map(|(i, j)| (i, j, 1.0))
                .collect();
            advisor.step(&epoch_of(e, &links), &net);
            let plan = advisor.next_probe_plan().expect("focused policy always plans");
            // The skipped pair was last observed at epoch 0; the next
            // epoch to run is e + 1.
            let age = e + 1;
            if age > refresh_every {
                prop_assert!(
                    plan.contains(skip_a, skip_b),
                    "pair ({skip_a}, {skip_b}) stale for {age} > {refresh_every} epochs \
                     missing from the plan"
                );
            }
        }
    }
}

/// One link's delta of a random epoch: sampled (a finite mean, now and
/// then a signed zero), attempted but never answered (dark), or answered
/// with a mean that is not finite (ingested as sampleless).
fn random_delta(rng: &mut rand::rngs::StdRng, src: u32, dst: u32) -> LinkDelta {
    use rand::Rng;
    let attempts = rng.random_range(1..6u64);
    let (mean, count) = match rng.random_range(0..8) {
        0 => (0.0, 0),
        1 => (f64::NAN, attempts),
        2 => (if rng.random::<bool>() { 0.0 } else { -0.0 }, attempts),
        _ => (rng.random_range(0.5..3.0), rng.random_range(1..=attempts)),
    };
    LinkDelta { src, dst, mean, count, attempts, timeouts: attempts - count }
}

/// The search costs a repair prices the store at, as a dense matrix
/// transcribed from the store's public view: a link's EWMA mean once
/// sampled, else the worst mean any sampled link holds (folded from 0),
/// loss-priced ([`loss_priced_mean`]) when `timeout_ms` is given.
fn dense_search_costs(store: &OnlineStore, timeout_ms: Option<f64>) -> CostMatrix {
    let m = store.len();
    let links = || (0..m).flat_map(|i| (0..m).filter(move |&j| j != i).map(move |j| (i, j)));
    let sampled = |i, j| store.link(i, j).last_epoch.is_some();
    let worst = links()
        .filter(|&(i, j)| sampled(i, j))
        .fold(0.0f64, |worst, (i, j)| worst.max(store.link(i, j).ewma.mean()));
    let mut b = CostMatrix::builder(m);
    for (i, j) in links() {
        let base = if sampled(i, j) { store.link(i, j).ewma.mean() } else { worst };
        let (fwd, rev) = (store.link(i, j).loss_rate, store.link(j, i).loss_rate);
        b.set(i, j, timeout_ms.map_or(base, |t| loss_priced_mean(base, fwd, rev, t)));
    }
    b.freeze().expect("the random deltas price no link below 0 or at NaN")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A focused loop, pruned or not, loss-aware or not, ranks its plan
    // pool off the one index it keeps over its search costs, re-priced
    // from the links each epoch touched (a full epoch's bulk-builds it).
    // Whatever the deltas, the pool equals `CandidateSet::build` over the
    // dense search costs — the union and every node's list.
    #[test]
    fn the_kept_plan_pool_equals_a_build_over_the_dense_search_costs(
        seed in 0u64..1_000,
        prune_during_sweep in (0u8..2).prop_map(|b| b == 1),
        loss_aware in (0u8..2).prop_map(|b| b == 1),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = CandidateConfig::fixed(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.05,
            policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 1e9 },
            // No alarms: the deltas alone move the pool (and, loss-aware,
            // an evacuation off an instance they darken).
            detector: DetectorConfig { threshold: 1e9, ..Default::default() },
            loss_aware,
            candidates: Some(pool),
            probe_policy: ProbePolicy::Focused { refresh_every: 4, max_flagged: 1000 },
            prune_during_sweep,
            ..Default::default()
        };
        let timeout_ms = loss_aware.then_some(config.timeout_ms);
        let net = synthetic_net();
        let graph = CommGraph::ring(4);
        let mut advisor = OnlineAdvisor::new(graph.clone(), M, (0..4).collect(), config);
        let links: Vec<(u32, u32)> = (0..M as u32)
            .flat_map(|i| (0..M as u32).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        for e in 0..12u64 {
            // A full epoch now and then, else up to 40 random links. Each
            // touches both directions of at most 56 links, inside the
            // 40·M = 320 re-price budget: the index re-prices after the
            // first read's build.
            let touched: Vec<(u32, u32)> = if rng.random_range(0..5) == 0 {
                links.clone()
            } else {
                (0..rng.random_range(1..=40usize))
                    .map(|_| links[rng.random_range(0..links.len())])
                    .collect()
            };
            let deltas = touched.iter().map(|&(src, dst)| random_delta(&mut rng, src, dst));
            let m = EpochMeasurement { deltas: deltas.collect(), ..epoch_of(e, &[]) };
            advisor.step(&m, &net);
            let kept = advisor.probe_pool().expect("focused policy has a pool");
            let costs = dense_search_costs(advisor.store(), timeout_ms);
            let dense =
                CandidateSet::build(&graph.problem(costs), &pool, Some(advisor.deployment()), None);
            prop_assert_eq!(kept.union(), dense.union(), "union at epoch {}", e);
            for v in 0..4 {
                prop_assert_eq!(kept.node_candidates(v), dense.node_candidates(v));
            }
        }
    }
}

#[test]
fn escalation_turns_the_next_plan_into_a_full_sweep() {
    let net = synthetic_net();
    // max_flagged 0: any flag escalates.
    let mut advisor = focused_advisor(50, 0);
    for e in 0..10u64 {
        advisor.step(&full_epoch(e, &[], 0.0), &net);
    }
    // Pre-escalation: the plan is focused (pool clique only, everything
    // fresh, nothing flagged).
    let before = advisor.next_probe_plan().unwrap();
    assert!(!before.is_full(), "quiet steady state must not plan a full sweep");
    // A broad sustained shift flags links on the next steps.
    let shifted: Vec<(u32, u32)> = vec![(0, 1), (2, 3), (4, 5), (6, 7)];
    let mut escalated = false;
    for e in 10..16u64 {
        advisor.step(&full_epoch(e, &shifted, 1.5), &net);
        let flagged = advisor
            .events()
            .iter()
            .any(|ev| matches!(ev, OnlineEvent::Change { epoch, .. } if *epoch == e));
        if flagged {
            assert!(advisor.next_probe_plan().unwrap().is_full(), "flags must escalate");
            escalated = true;
            break;
        }
    }
    assert!(escalated, "the shift never fired a detector");
}

#[test]
fn deployed_links_are_always_in_a_focused_plan() {
    // The incumbent is force-included in the candidate pool, so every
    // deployed link is in the clique — degradation watch never lapses.
    let net = synthetic_net();
    let mut advisor = focused_advisor(50, 1000);
    for e in 0..6u64 {
        advisor.step(&full_epoch(e, &[], 0.0), &net);
        let plan = advisor.next_probe_plan().unwrap();
        let deployment = advisor.deployment().clone();
        // ring(4): consecutive nodes communicate.
        for w in 0..4usize {
            let (a, b) = (deployment[w], deployment[(w + 1) % 4]);
            assert!(plan.contains(a, b), "deployed link ({a}, {b}) missing from plan");
        }
    }
}

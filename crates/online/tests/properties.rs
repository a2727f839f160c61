//! Property-based tests for the online subsystem: the incremental-repair
//! contract and the change-point detector's operating characteristics.

use cloudia_core::Objective;
use cloudia_netsim::{DriftParams, LinkProfile, LinkTrace};
use cloudia_online::{
    incremental_resolve, standardized_residual, ChangeDetector, DetectorConfig, Drift, EwmaVar,
    RepairConfig,
};
use cloudia_solver::candidates::PrunedProblem;
use cloudia_solver::{Costs, NodeDeployment};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn random_problem(n: usize, m: usize, seed: u64) -> NodeDeployment {
    let edges = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    NodeDeployment::new(n, edges, Costs::random_uniform(m, seed))
}

/// Runs one synthetic per-epoch mean stream through an EWMA + detector
/// pair exactly as `OnlineStore::observe_epoch` wires them, and returns
/// whether any alarm fired.
fn stream_fires(means: &[f64], config: DetectorConfig) -> bool {
    let mut ewma = EwmaVar::new(0.3);
    let mut detector = ChangeDetector::new(config);
    let mut fired = false;
    for &x in means {
        let z = standardized_residual(x, &ewma);
        ewma.observe(x);
        if detector.observe(z) != Drift::None {
            fired = true;
        }
    }
    fired
}

/// A stationary OU epoch-mean trace with sampling noise: a
/// [`LinkTrace`] over 4 h epochs of 400 probes each (~0.5% probe-averaging
/// noise on top of the drifted mean).
fn stationary_trace(epochs: usize, rng: &mut StdRng) -> Vec<f64> {
    let base_mean = 0.5 + rng.random::<f64>();
    let profile = LinkProfile { base_mean, jitter_sigma: 0.1, spike_prob: 0.0, spike_scale: 0.0 };
    LinkTrace::simulate(&profile, DriftParams::default(), 4.0, epochs, 400, rng).mean_rtt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Satellite (a): an incremental re-solve with migration budget k
    // never recommends a plan worse than the incumbent net of migration
    // cost — for any instance, incumbent, and budget.
    #[test]
    fn repair_never_worse_than_incumbent_net_of_migration(
        seed in 0u64..500,
        k in 0usize..5,
        cost_per_node in 0.0f64..0.2,
    ) {
        let p = random_problem(6, 9, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead_beef);
        let incumbent = p.random_deployment(&mut rng);
        let config = RepairConfig { migration_budget: k, solve_seconds: 0.5, threads: 1, seed };
        let dense = PrunedProblem::dense(p.clone());
        let out = incremental_resolve(&dense, Objective::LongestLink, &incumbent, &config);
        prop_assert!(p.is_valid(&out.deployment));
        prop_assert!(out.moved <= k);
        // The plan itself is never worse than the incumbent...
        prop_assert!(out.cost <= out.incumbent_cost + 1e-12,
            "repaired {} worse than incumbent {}", out.cost, out.incumbent_cost);
        // ...and whenever it moves nodes, accepting it under the policy
        // accounting (gain vs migration cost) can only be done when the
        // gain covers the migration, so net cost never increases.
        let gain = out.incumbent_cost - out.cost;
        let migration = cost_per_node * out.moved as f64;
        let accepted = out.moved > 0 && gain > migration;
        let net_cost = if accepted { out.cost + migration } else { out.incumbent_cost };
        prop_assert!(net_cost <= out.incumbent_cost + 1e-12);
    }

    // Satellite (b), part 1: injected step shifts fire the detector.
    #[test]
    fn detector_fires_on_step_shifts(seed in 0u64..300, shift in 0.3f64..0.8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let config = DetectorConfig::default();
        let mut means = stationary_trace(60, &mut rng);
        // A sustained relative shift of 30..80% from epoch 30 on.
        for x in means.iter_mut().skip(30) {
            *x *= 1.0 + shift;
        }
        prop_assert!(stream_fires(&means, config),
            "a {:.0}% step went undetected", shift * 100.0);
    }
}

// Satellite (b), part 2: the false-positive rate under stationary OU
// drift stays at the configured level. This is a rate assertion, so it
// runs over a fixed trace population rather than per-case.
#[test]
fn detector_false_positive_rate_under_stationary_ou() {
    let config = DetectorConfig::default();
    let traces = 200;
    let mut fired = 0usize;
    for seed in 0..traces {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let means = stationary_trace(60, &mut rng);
        if stream_fires(&means, config) {
            fired += 1;
        }
    }
    // Configured operating point: <= 10% of 60-epoch stationary traces
    // may raise any alarm (the OU wiggle is autocorrelated, so z-scores
    // are not iid; the threshold is budgeted for that).
    let rate = fired as f64 / traces as f64;
    assert!(rate <= 0.10, "false-positive rate {rate} over {traces} stationary traces");
}

#[test]
fn detector_detection_rate_on_large_steps() {
    let config = DetectorConfig::default();
    let traces = 100;
    let mut detected = 0usize;
    for seed in 0..traces {
        let mut rng = StdRng::seed_from_u64(1_000 + seed as u64);
        let mut means = stationary_trace(60, &mut rng);
        for x in means.iter_mut().skip(30) {
            *x *= 1.5;
        }
        if stream_fires(&means, config) {
            detected += 1;
        }
    }
    let rate = detected as f64 / traces as f64;
    assert!(rate >= 0.95, "detection rate {rate} on 50% steps");
}

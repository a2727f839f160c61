//! The pool index reports how it kept up with a sweep: its looks tally
//! locally, and each sweep reports them once. One test, in a process of
//! its own: the counters and spans live in the global registry, where a
//! concurrently evaluated rule would move them.

use cloudia_measure::{run_anytime, MeasureConfig, PairwiseStats, Staged};
use cloudia_netsim::{Cloud, Provider};
use cloudia_solver::{CandidateConfig, CandidatePruneRule};

#[test]
fn a_healthy_sweep_rebuilds_each_index_once_and_syncs_the_rest() {
    let m = 12;
    let mut cloud = Cloud::boot(Provider::ec2_like(), 3);
    let alloc = cloud.allocate(m);
    let net = cloud.network(&alloc);
    let cfg = MeasureConfig::default();
    let scheme = Staged::new(3, 2);
    let counter = |name: &str| cloudia_obs::metrics().counter_value(name);
    let rule = || CandidatePruneRule::new(4, CandidateConfig::fixed(6)).with_confidence(0.95);

    // The advisor's anytime epoch: one rule object is both the prune and
    // the stop rule, over one index.
    let both = rule();
    cloudia_obs::take_spans();
    run_anytime(&scheme, &net, &cfg, PairwiseStats::new(m), &both, &both);
    // Reported when the sweep ends, so an index that outlives it — the
    // online advisor keeps one for a whole run — shows up sweep by sweep.
    assert_eq!(counter("sweep.rule.index_rebuilds"), 1);
    let synced = counter("sweep.rule.synced_links");
    assert!(synced > 0, "every stage after the first evaluation is a delta sync");
    // The bulk build leaves every window stale: the first look that can
    // rank an instance fills its windows.
    let filled = counter("sweep.rule.window_rebuilds");
    assert!(filled > 0, "no look filled a window");
    // The sweep's span carries the time its looks took.
    let spans = cloudia_obs::take_spans();
    let sweep = spans.iter().find(|span| span.name == "sweep.run").expect("a sweep span");
    let looks = sweep.attrs.iter().find(|(key, _)| *key == "looks_ms").map(|&(_, v)| v);
    assert!(
        matches!(looks, Some(cloudia_obs::AttrValue::Num(ms)) if ms > 0.0 && ms <= sweep.wall_ms),
        "looks_ms {looks:?} of a {} ms sweep",
        sweep.wall_ms
    );
    drop(both);
    assert_eq!(counter("sweep.rule.index_rebuilds"), 1, "dropping the index reports nothing");

    // Separately built rules keep an index each.
    let (prune, stop) = (rule(), rule());
    run_anytime(&scheme, &net, &cfg, PairwiseStats::new(m), &prune, &stop);
    assert_eq!(counter("sweep.rule.index_rebuilds"), 3);
    assert!(counter("sweep.rule.synced_links") > synced);

    // A stage logs one entry per link whatever its Ks: at the batch
    // workload's Ks = 10 a per-sample log (over 10 · m/2 entries a stage
    // against a 4 m tail) would overrun between evaluations and rebuild
    // every stage.
    let both = rule();
    run_anytime(&Staged::new(10, 2), &net, &cfg, PairwiseStats::new(m), &both, &both);
    assert_eq!(counter("sweep.rule.index_rebuilds"), 4);
}

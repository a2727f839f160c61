//! Property-based tests for the measurement schemes: coverage, positivity,
//! exactness on jitter-free networks, and the stage-streaming driver
//! contracts — a pruning-disabled [`cloudia_measure::StageDriver`] is
//! bit-identical to the pre-refactor batch loops (kept below as the
//! differential oracle), and a resumed driver equals an uninterrupted
//! one.

use cloudia_measure::{FocusedScheme, MeasureConfig, PairwiseStats, ProbePlan, Scheme, Staged};
use cloudia_netsim::{Cloud, InstanceId, Provider};
use proptest::prelude::*;
use std::collections::HashSet;

fn quiet_network(n: usize, seed: u64) -> cloudia_netsim::Network {
    let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

fn ec2_network(n: usize, seed: u64) -> cloudia_netsim::Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

/// The batch measurement loops the drivers are differentially pinned
/// against, transcribed from the pre-driver sweep code (PR 5) and — for
/// the stage-scheduled schemes — re-anchored on the per-pair substream
/// discipline the parallel stage executor introduced: each scheduled
/// pair runs its whole stage timeline alone on a **fresh real
/// discrete-event engine** seeded with the pair's substream seed, which
/// pins the production path's closed-form pair simulation (including
/// loss, retransmits, and dark-pair handling) against the actual engine
/// arithmetic. Uses only public engine APIs; message kinds are the
/// probe protocol's wire constants (0 = probe, 1 = reply).
mod reference {
    use cloudia_measure::{MeasureConfig, PairwiseStats, COORD_OVERHEAD_MS, PROBE_SIZE_KB};
    use cloudia_netsim::{InstanceId, MessageSpec, Network, NicParams};
    use std::collections::HashSet;

    /// (stats, round_trips, elapsed_ms) of one batch run.
    pub type BatchResult = (PairwiseStats, u64, f64);

    /// One pair's stage timeline, replayed on its own engine: the old
    /// stage event loop (probe out, reply back, retransmit on timeout
    /// within budget) specialised to a single in-flight pair, starting
    /// at simulated time `t0`. Returns (round_trips, went_dark,
    /// end_time).
    #[allow(clippy::too_many_arguments)]
    fn run_pair_on_engine(
        net: &Network,
        cfg: &MeasureConfig,
        seed: u64,
        t0: f64,
        src: usize,
        dst: usize,
        k: usize,
        stats: &mut PairwiseStats,
    ) -> (u64, bool, f64) {
        let limit = cfg.max_duration_ms.unwrap_or(f64::INFINITY);
        let mut engine = net.engine(NicParams::default(), seed);
        engine.set_timeout_ms(cfg.timeout_ms);
        engine.advance_to(t0);
        let probe = MessageSpec {
            src: InstanceId::from_index(src),
            dst: InstanceId::from_index(dst),
            size_kb: PROBE_SIZE_KB,
            kind: 0,
            token: 0,
        };
        let mut remaining = k;
        let mut budget = cfg.retries_per_pair;
        let mut successes = 0u64;
        let mut dark = false;
        stats.record_attempt(src, dst);
        let mut sent_at = engine.send(probe);
        remaining -= 1;
        while let Some(msg) = engine.next_delivery() {
            match msg.spec.kind {
                0 if !msg.lost => {
                    engine.send(MessageSpec {
                        src: msg.spec.dst,
                        dst: msg.spec.src,
                        size_kb: PROBE_SIZE_KB,
                        kind: 1,
                        token: 0,
                    });
                }
                0 | 1 => {
                    if msg.lost {
                        stats.record_timeout(src, dst);
                        if budget > 0 && engine.now() < limit {
                            budget -= 1;
                            stats.record_attempt(src, dst);
                            sent_at = engine.send(probe);
                        } else if budget == 0 && successes == 0 {
                            dark = true;
                        }
                        continue;
                    }
                    stats.record(src, dst, msg.delivered_at - sent_at);
                    successes += 1;
                    if remaining > 0 && engine.now() < limit {
                        remaining -= 1;
                        stats.record_attempt(src, dst);
                        sent_at = engine.send(probe);
                    }
                }
                other => unreachable!("unexpected message kind {other}"),
            }
        }
        (successes, dark, engine.now())
    }

    /// The per-pair substream seed derivation, transcribed from
    /// `cloudia_measure`'s schedule-identity keying (SplitMix64 folded
    /// over `(run seed, sweep, stage, src, dst)`) — duplicated here so a
    /// silent change to the production derivation breaks the pin.
    fn substream_seed(seed: u64, sweep: usize, stage: usize, src: usize, dst: usize) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        let mut z = mix(seed);
        for v in [sweep as u64, stage as u64, src as u64, dst as u64] {
            z = mix(z ^ v);
        }
        z
    }

    /// Executes a per-sweep stage schedule of unordered pairs with the
    /// staged discipline — the shared shape of the `Staged` and
    /// `FocusedScheme` drivers: per-pair substream seeds keyed on each
    /// pair's schedule identity, each pair's timeline independent,
    /// stage end = latest pair end, one coordination round after every
    /// executed stage, dark pairs struck from all future stages.
    fn run_stage_schedule(
        net: &Network,
        cfg: &MeasureConfig,
        mut stats: PairwiseStats,
        stages: &[Vec<(u32, u32)>],
        ks: usize,
        sweeps: usize,
        coord_overhead_ms: f64,
    ) -> BatchResult {
        let mut now = 0.0f64;
        let mut round_trips = 0u64;
        let mut struck: HashSet<(u32, u32)> = HashSet::new();
        'outer: for sweep in 0..sweeps {
            for (stage, pairs) in stages.iter().enumerate() {
                let pairs: Vec<(u32, u32)> = pairs
                    .iter()
                    .copied()
                    .filter(|&(a, b)| !struck.contains(&(a.min(b), a.max(b))))
                    .collect();
                // A stage emptied by dark strikes is skipped without a
                // coordination round.
                if pairs.is_empty() {
                    continue;
                }
                if let Some(limit) = cfg.max_duration_ms {
                    if now >= limit {
                        break 'outer;
                    }
                }
                let mut stage_end = now;
                for &(a, b) in &pairs {
                    let (src, dst) = if sweep % 2 == 0 {
                        (a as usize, b as usize)
                    } else {
                        (b as usize, a as usize)
                    };
                    let pair_seed = substream_seed(cfg.seed, sweep, stage, src, dst);
                    let (successes, dark, end) =
                        run_pair_on_engine(net, cfg, pair_seed, now, src, dst, ks, &mut stats);
                    round_trips += successes;
                    stage_end = stage_end.max(end);
                    if dark {
                        struck.insert((a.min(b), a.max(b)));
                    }
                }
                now = stage_end + coord_overhead_ms;
            }
        }
        (stats, round_trips, now)
    }

    pub fn staged(
        net: &Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
        ks: usize,
        sweeps: usize,
    ) -> BatchResult {
        let n = net.len();
        let rounds = (n + (n % 2)) - 1;
        let stages: Vec<Vec<(u32, u32)>> = (0..rounds)
            .map(|r| {
                cloudia_measure::Staged::circle_pairs(n, r)
                    .into_iter()
                    .map(|(a, b)| (a as u32, b as u32))
                    .collect()
            })
            .collect();
        run_stage_schedule(net, cfg, stats, &stages, ks, sweeps, COORD_OVERHEAD_MS)
    }

    pub fn focused(
        net: &Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
        plan: &cloudia_measure::ProbePlan,
        ks: usize,
        sweeps: usize,
    ) -> BatchResult {
        run_stage_schedule(net, cfg, stats, &plan.stages(), ks, sweeps, COORD_OVERHEAD_MS)
    }
}

/// Bit-exact comparison of a driver-produced report against an oracle
/// batch result: per-link means, standard deviations, counts, total
/// round trips, and elapsed simulated time all equal exactly.
fn assert_bit_identical(
    label: &str,
    report: &cloudia_measure::MeasurementReport,
    (stats, round_trips, elapsed_ms): &reference::BatchResult,
) {
    assert_eq!(report.round_trips, *round_trips, "{label}: round trips diverged");
    assert_eq!(report.elapsed_ms, *elapsed_ms, "{label}: elapsed time diverged");
    let n = stats.len();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (a, b) = (report.stats.link(i, j), stats.link(i, j));
            assert_eq!(a.count(), b.count(), "{label}: ({i},{j}) count");
            assert_eq!(a.mean(), b.mean(), "{label}: ({i},{j}) mean");
            assert_eq!(a.sd(), b.sd(), "{label}: ({i},{j}) sd");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn t_intervals_cover_the_true_mean_on_at_least_90pct_of_links(
        m in 10usize..13,
        seed in 0u64..1000,
        samples in 8usize..40,
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};

        // Every directed link gets `samples` Gaussian observations
        // around its own true mean; the 95% t-interval must cover that
        // frozen truth on at least 90% of links (the exact rate is 95%,
        // so 90% leaves room for sampling noise across 100+ links).
        let mut rng = StdRng::seed_from_u64(seed);
        let mut truth = vec![0.0f64; m * m];
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    truth[i * m + j] = rng.random_range(0.5..3.0);
                }
            }
        }
        let mut stats = PairwiseStats::new(m);
        for _ in 0..samples {
            for i in 0..m {
                for j in 0..m {
                    if i != j {
                        let (u1, u2): (f64, f64) = (rng.random::<f64>().max(1e-12), rng.random());
                        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                        stats.record(i, j, truth[i * m + j] + 0.1 * z);
                    }
                }
            }
        }
        let links = m * (m - 1);
        let mut covered = 0usize;
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    let ci = stats.ci(i, j, 0.95);
                    prop_assert!(ci.bounded());
                    if ci.covers(truth[i * m + j]) {
                        covered += 1;
                    }
                }
            }
        }
        prop_assert!(
            covered as f64 >= 0.90 * links as f64,
            "95% intervals covered the frozen truth on only {covered}/{links} links"
        );
    }

    #[test]
    fn all_schemes_cover_links_and_stay_positive(n in 3usize..8, seed in 0u64..100) {
        let net = quiet_network(n, seed);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        // The engine baselines' arms live with them in `cloudia-bench`.
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(1, 2)),
            Box::new(FocusedScheme::new(ProbePlan::full(n), 1, 2)),
        ];
        for scheme in &schemes {
            let report = scheme.run(&net, &cfg);
            prop_assert!(report.round_trips > 0);
            prop_assert!(report.elapsed_ms > 0.0);
            // Both guarantee full coverage, every mean positive.
            prop_assert_eq!(report.stats.covered_links(), n * (n - 1), "{}", scheme.name());
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        let mean = report.stats.link(i, j).mean();
                        prop_assert!(mean > 0.0, "{}: link ({i},{j})", scheme.name());
                    }
                }
            }
        }
    }

    #[test]
    fn driver_run_onto_is_bit_identical_to_the_batch_loops(
        n in 4usize..10,
        seed in 0u64..200,
        ks in 1usize..4,
        sweeps in 1usize..3,
    ) {
        // The acceptance contract: with pruning disabled, every scheme's
        // driver-based `run_onto` reproduces the pre-refactor batch path
        // bit for bit — per-link means/sds/counts, round trips, and
        // simulated elapsed time — on jittery (ec2-like) networks whose
        // RNG consumption would expose any reordering.
        let net = ec2_network(n, seed);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };

        let report = Staged::new(ks, sweeps).run(&net, &cfg);
        let oracle = reference::staged(&net, &cfg, PairwiseStats::new(n), ks, sweeps);
        assert_bit_identical("staged", &report, &oracle);

        let mut plan = ProbePlan::new(n);
        // A deterministic, seed-dependent partial plan: a clique over a
        // prefix plus one far pair.
        let clique: Vec<u32> = (0..(3 + (seed as usize % (n - 3))) as u32).collect();
        plan.add_clique(&clique);
        plan.add_pair(0, n as u32 - 1);
        let report = FocusedScheme::new(plan.clone(), ks, sweeps.max(2)).run(&net, &cfg);
        let oracle = reference::focused(&net, &cfg, PairwiseStats::new(n), &plan, ks, sweeps.max(2));
        assert_bit_identical("focused", &report, &oracle);
    }

    #[test]
    fn driver_honours_duration_limits_like_the_batch_loops(
        n in 4usize..8,
        seed in 0u64..50,
        limit in 2.0f64..20.0,
    ) {
        let net = ec2_network(n, seed);
        let cfg = MeasureConfig { seed, max_duration_ms: Some(limit), ..MeasureConfig::default() };
        let report = Staged::new(3, 50).run(&net, &cfg);
        let oracle = reference::staged(&net, &cfg, PairwiseStats::new(n), 3, 50);
        assert_bit_identical("staged+limit", &report, &oracle);
    }

    #[test]
    fn resumed_driver_equals_uninterrupted_driver(
        n in 4usize..10,
        seed in 0u64..200,
        pause_after in 1usize..6,
    ) {
        // Stepping a driver, pausing to inspect its partial state, and
        // resuming must not change the measurement.
        let net = ec2_network(n, seed);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(2, 2)),
            Box::new(FocusedScheme::new(ProbePlan::full(n), 2, 2)),
        ];
        for scheme in &schemes {
            let uninterrupted = scheme.run(&net, &cfg);
            let mut driver = scheme.driver(&cfg, PairwiseStats::new(n));
            let mut paused = 0;
            while driver.step(&net) {
                paused += 1;
                if paused == pause_after {
                    // The pause: read every piece of partial state.
                    let _ = driver.stats().total_samples();
                    let _ = driver.remaining_pairs();
                    let _ = driver.planned_remaining();
                    let _ = driver.elapsed_ms();
                }
            }
            let resumed = driver.finish();
            assert_eq!(
                resumed.round_trips, uninterrupted.round_trips,
                "{}: resumed round trips diverged", scheme.name()
            );
            assert_eq!(
                resumed.elapsed_ms, uninterrupted.elapsed_ms,
                "{}: resumed elapsed diverged", scheme.name()
            );
            assert_eq!(
                resumed.stats.mean_vector(), uninterrupted.stats.mean_vector(),
                "{}: resumed means diverged", scheme.name()
            );
        }
    }

    #[test]
    fn pair_set_matches_a_hash_set_model(
        ops in proptest::collection::vec((0u32..400, 0u32..400, 0u8..4), 1..300),
        span in 2u32..400,
    ) {
        // Small spans collide densely; large ones grow the triangle (an
        // empty set holds no words) up to 79 800 bits.
        let mut set = cloudia_measure::PairSet::new();
        let mut model: HashSet<(u32, u32)> = HashSet::new();
        let in_order = |model: &HashSet<(u32, u32)>| {
            let mut pairs: Vec<(u32, u32)> = model.iter().copied().collect();
            pairs.sort_unstable_by_key(|&(lo, hi)| (hi, lo));
            pairs
        };
        for (a, b, op) in ops {
            let (a, b) = (a % span, b % span);
            let key = (a.min(b), a.max(b));
            match op {
                0 | 1 => {
                    prop_assert_eq!(set.insert(a, b), a != b && model.insert(key), "insert {key:?}")
                }
                2 => {
                    prop_assert_eq!(set.contains(a, b), model.contains(&key), "contains {key:?}");
                    prop_assert_eq!(set.contains(b, a), model.contains(&key), "flipped {key:?}");
                }
                _ => prop_assert_eq!(set.iter().collect::<Vec<_>>(), in_order(&model)),
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), in_order(&model));
        let rebuilt: cloudia_measure::PairSet = model.iter().map(|&(lo, hi)| (hi, lo)).collect();
        prop_assert_eq!(rebuilt.iter().collect::<Vec<_>>(), in_order(&model));
    }

    #[test]
    fn probe_plan_matches_a_btree_set_oracle(
        ops in proptest::collection::vec((0u32..300, 0u32..300, 0u8..3), 0..400),
        n in 2usize..300,
        full in 0u8..8,
    ) {
        // The plan's contract as an ordered set of normalized pairs, and
        // first-fit staging over that order: each pair takes the lowest
        // stage neither endpoint plays in yet.
        let mut plan = if full == 0 { ProbePlan::full(n) } else { ProbePlan::new(n) };
        let mut oracle: std::collections::BTreeSet<(u32, u32)> = std::collections::BTreeSet::new();
        if full == 0 {
            oracle.extend((0..n as u32).flat_map(|a| (a + 1..n as u32).map(move |b| (a, b))));
        }
        for (a, b, op) in ops {
            let (a, b) = (a % n as u32, b % n as u32);
            match op {
                0 | 1 => {
                    plan.add_pair(a, b);
                    if a != b {
                        oracle.insert((a.min(b), a.max(b)));
                    }
                }
                _ => {
                    let key = (a.min(b), a.max(b));
                    prop_assert_eq!(plan.contains(a, b), a != b && oracle.contains(&key));
                    prop_assert_eq!(plan.contains(b, a), a != b && oracle.contains(&key));
                }
            }
        }
        prop_assert_eq!(plan.len(), oracle.len());
        prop_assert_eq!(plan.is_empty(), oracle.is_empty());
        prop_assert_eq!(plan.is_full(), oracle.len() == n * (n - 1) / 2);
        prop_assert_eq!(plan.pairs().collect::<Vec<_>>(), oracle.iter().copied().collect::<Vec<_>>());
        if !plan.is_full() {
            let mut stages: Vec<Vec<(u32, u32)>> = Vec::new();
            let mut playing: Vec<HashSet<u32>> = Vec::new();
            for &(a, b) in &oracle {
                let stage = (0..)
                    .find(|&s| playing.get(s).is_none_or(|p| !p.contains(&a) && !p.contains(&b)))
                    .expect("a free stage");
                if stage == stages.len() {
                    stages.push(Vec::new());
                    playing.push(HashSet::new());
                }
                stages[stage].push((a, b));
                playing[stage].extend([a, b]);
            }
            prop_assert_eq!(plan.stages(), stages);
        }
    }

    #[test]
    fn pruning_ledger_counts_like_the_set_based_loop_under_overlapping_verdicts(
        n in 5usize..10,
        seed in 0u64..200,
        share in 0.05f64..0.5,
    ) {
        use cloudia_measure::{run_pruned, PruneRule};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// Condemns a fresh random `share` of *all* pairs at every
        /// evaluation — still scheduled or not, in either orientation —
        /// so verdicts overlap from one evaluation to the next.
        struct Scatter {
            n: u32,
            share: f64,
            rng: std::cell::RefCell<StdRng>,
        }
        impl PruneRule for Scatter {
            fn prune(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> Vec<(u32, u32)> {
                let mut rng = self.rng.borrow_mut();
                (0..self.n)
                    .flat_map(|a| (a + 1..self.n).map(move |b| (a, b)))
                    .filter_map(|(a, b)| {
                        let flip = rng.random::<bool>();
                        (rng.random::<f64>() < self.share).then_some(if flip { (b, a) } else { (a, b) })
                    })
                    .collect()
            }
        }
        let scatter = || Scatter {
            n: n as u32,
            share,
            rng: std::cell::RefCell::new(StdRng::seed_from_u64(seed)),
        };

        let net = ec2_network(n, seed);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let mut plan = ProbePlan::new(n);
        plan.add_clique(&[0, 1, 2, 3]);
        plan.add_pair(1, n as u32 - 1);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(2, 3)),
            Box::new(FocusedScheme::new(plan, 2, 3)),
        ];
        for scheme in &schemes {
            // The ledger `run_with_rules` kept before `PairSet`: a hash
            // set of normalized condemned pairs per evaluation, and the
            // size of a per-run hash set of dropped ones.
            let rule = scatter();
            let mut driver = scheme.driver(&cfg, PairwiseStats::new(n));
            let mut dropped: HashSet<(u32, u32)> = HashSet::new();
            let mut saved = 0u64;
            loop {
                if driver.stats().total_samples() > 0 {
                    let remaining = driver.remaining_pairs();
                    if !remaining.is_empty() {
                        let condemned: HashSet<(u32, u32)> = rule
                            .prune(driver.stats(), &remaining)
                            .into_iter()
                            .map(|(a, b)| (a.min(b), a.max(b)))
                            .collect();
                        if !condemned.is_empty() {
                            saved += driver
                                .retain_pairs(&mut |a, b| !condemned.contains(&(a.min(b), a.max(b))));
                            dropped.extend(
                                remaining
                                    .iter()
                                    .map(|&(a, b)| (a.min(b), a.max(b)))
                                    .filter(|key| condemned.contains(key)),
                            );
                        }
                    }
                }
                if !driver.step(&net) {
                    break;
                }
            }
            let oracle = driver.finish();

            let pruned = run_pruned(scheme.as_ref(), &net, &cfg, PairwiseStats::new(n), &scatter());
            prop_assert_eq!(pruned.dropped_pairs, dropped.len(), "{}: dropped pairs", scheme.name());
            prop_assert_eq!(pruned.saved_round_trips, saved, "{}: saved round trips", scheme.name());
            prop_assert_eq!(pruned.report.round_trips, oracle.round_trips, "{}", scheme.name());
            prop_assert_eq!(pruned.report.elapsed_ms, oracle.elapsed_ms, "{}", scheme.name());
            prop_assert_eq!(
                pruned.report.stats.mean_vector(), oracle.stats.mean_vector(), "{}", scheme.name()
            );
        }
    }

    #[test]
    fn instance_strikes_equal_the_pair_slice_verdict(
        n in 5usize..11,
        seed in 0u64..200,
        share in 0.05f64..0.4,
        protected_share in 0.0f64..0.8,
        dark in 0u32..8,
    ) {
        use cloudia_measure::{run_pruned, PairSet, PruneRule};
        use rand::{rngs::StdRng, Rng, SeedableRng};

        /// Condemns a fresh random `share` of the instances at every look,
        /// so instances go out, come back in and go out again, and spares
        /// a fixed random set of pairs.
        struct Flicker {
            share: f64,
            rng: std::cell::RefCell<StdRng>,
            protected: PairSet,
        }
        impl PruneRule for Flicker {
            fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
                let mut out = Vec::new();
                assert!(self.condemned_instances(stats, &mut out));
                remaining
                    .iter()
                    .copied()
                    .filter(|&(a, b)| (out[a as usize] || out[b as usize]) && !self.protects(a, b))
                    .collect()
            }
            fn condemned_instances(&self, stats: &PairwiseStats, out: &mut Vec<bool>) -> bool {
                let mut rng = self.rng.borrow_mut();
                out.clear();
                out.extend((0..stats.len()).map(|_| rng.random::<f64>() < self.share));
                true
            }
            fn protects(&self, a: u32, b: u32) -> bool {
                self.protected.contains(a, b)
            }
        }
        /// The same rule seen through `prune` alone, as a pair rule.
        struct PairsOnly<'a>(&'a dyn PruneRule);
        impl PruneRule for PairsOnly<'_> {
            fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
                self.0.prune(stats, remaining)
            }
        }

        let mut pick = StdRng::seed_from_u64(seed ^ 0x5eed);
        let protected: PairSet = (0..n as u32)
            .flat_map(|a| (a + 1..n as u32).map(move |b| (a, b)))
            .filter(|_| pick.random::<f64>() < protected_share)
            .collect();
        let flicker = || Flicker {
            share,
            rng: std::cell::RefCell::new(StdRng::seed_from_u64(seed)),
            protected: protected.clone(),
        };
        let mut net = ec2_network(n, seed);
        // Instance `dark` is forced dark in five cases of eight.
        if let Some(dark) = (dark < 5).then_some(dark) {
            let mut loss = cloudia_netsim::LossPlane::clear(n);
            for j in (0..n as u32).filter(|&j| j != dark) {
                loss.set_drop_prob(InstanceId(dark), InstanceId(j), 1.0);
                loss.set_drop_prob(InstanceId(j), InstanceId(dark), 1.0);
            }
            net.set_loss(loss);
        }
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        // Warm statistics, so the first look comes before the first stage.
        let warm = Staged::new(1, 1).run(&net, &cfg).stats;
        let mut plan = ProbePlan::new(n);
        plan.add_clique(&[0, 1, 2, 3]);
        plan.add_pair(1, n as u32 - 1);
        plan.add_pair(2, n as u32 - 2);
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(2, 3)),
            Box::new(FocusedScheme::new(plan, 2, 3)),
        ];
        for scheme in &schemes {
            let name = scheme.name();
            let strikes = run_pruned(scheme.as_ref(), &net, &cfg, warm.clone(), &flicker());
            let walked =
                run_pruned(scheme.as_ref(), &net, &cfg, warm.clone(), &PairsOnly(&flicker()));
            prop_assert_eq!(strikes.dropped_pairs, walked.dropped_pairs, "{}: dropped pairs", name);
            prop_assert_eq!(strikes.saved_round_trips, walked.saved_round_trips, "{}", name);
            prop_assert_eq!(strikes.report.round_trips, walked.report.round_trips, "{}", name);
            prop_assert_eq!(
                strikes.report.elapsed_ms.to_bits(), walked.report.elapsed_ms.to_bits(), "{}", name
            );
            let bits = |r: &cloudia_measure::AnytimeReport| -> Vec<u64> {
                r.report.stats.mean_vector().iter().map(|x| x.to_bits()).collect()
            };
            prop_assert_eq!(bits(&strikes), bits(&walked), "{}: means", name);
        }
    }

    #[test]
    fn no_probe_is_issued_at_or_after_the_deadline(
        n in 4usize..8,
        seed in 0u64..50,
        limit in 2.0f64..12.0,
    ) {
        // The shared duration-limit contract of `MeasureConfig::max_duration_ms`:
        // no scheme issues a probe (initial, continuation, or retransmit)
        // at or after the deadline. Only work already in flight may
        // drain, so the overhang past the deadline is bounded by a few
        // round-trip times — never by a stage's or sweep's remaining
        // quota, which is what the pre-fix staged path would burn.
        let net = quiet_network(n, seed);
        let cfg = MeasureConfig { seed, max_duration_ms: Some(limit), ..MeasureConfig::default() };
        let overhead = cloudia_measure::probe_overhead_ms();
        let max_rtt = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| net.mean_rtt(InstanceId::from_index(i), InstanceId::from_index(j)))
            .fold(0.0f64, f64::max);
        // At the cutoff each instance has at most one exchange in
        // flight; replies may queue behind each other at an endpoint.
        let overhang = (n as f64) * (max_rtt + overhead) + 1.0;
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(50, 50)),
            Box::new(FocusedScheme::new(ProbePlan::full(n), 50, 50)),
        ];
        for scheme in &schemes {
            let report = scheme.run(&net, &cfg);
            prop_assert!(
                report.elapsed_ms < limit + overhang,
                "{}: elapsed {} vs limit {} (overhang allowance {})",
                scheme.name(), report.elapsed_ms, limit, overhang
            );
        }
    }

    #[test]
    fn clear_loss_plane_is_bit_identical_to_no_plane(n in 4usize..9, seed in 0u64..100) {
        // Loss-awareness is free on a clean network: an installed
        // all-zero loss plane never consults the fault RNG, so every
        // scheme reproduces its no-plane run bit for bit.
        let net = ec2_network(n, seed);
        let mut clear = net.clone();
        clear.set_loss(cloudia_netsim::LossPlane::clear(n));
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(2, 2)),
            Box::new(FocusedScheme::new(ProbePlan::full(n), 2, 2)),
        ];
        for scheme in &schemes {
            let a = scheme.run(&net, &cfg);
            let b = scheme.run(&clear, &cfg);
            prop_assert_eq!(a.round_trips, b.round_trips, "{}: round trips", scheme.name());
            prop_assert_eq!(a.elapsed_ms, b.elapsed_ms, "{}: elapsed", scheme.name());
            prop_assert_eq!(a.mean_vector(), b.mean_vector(), "{}: means", scheme.name());
        }
    }

    #[test]
    fn schemes_converge_under_uniform_loss(n in 4usize..8, seed in 0u64..50) {
        // Acceptance contract: under 5% per-link loss every scheme
        // terminates with every planned pair either measured or recorded
        // as attempted (retry budget exhausted), so coverage accounting
        // stays truthful.
        let mut net = ec2_network(n, seed);
        net.set_loss(cloudia_netsim::LossPlane::uniform(n, 0.05));
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let full_coverage: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(2, 2)),
            Box::new(FocusedScheme::new(ProbePlan::full(n), 2, 2)),
        ];
        for scheme in &full_coverage {
            let report = scheme.run(&net, &cfg);
            prop_assert!(report.round_trips > 0, "{}: no round trips", scheme.name());
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        prop_assert!(
                            report.stats.link(i, j).attempts() > 0,
                            "{}: pair ({i},{j}) never attempted", scheme.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn estimates_preserve_link_ordering_on_quiet_networks(n in 4usize..9, seed in 0u64..100) {
        // With zero jitter and the constant handling offset, measured order
        // equals true order.
        let net = quiet_network(n, seed);
        let report = Staged::new(1, 2).run(&net, &MeasureConfig::default());
        let mut pairs: Vec<((usize, usize), f64, f64)> = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let truth = net.mean_rtt(InstanceId::from_index(i), InstanceId::from_index(j));
                    pairs.push(((i, j), truth, report.stats.link(i, j).mean()));
                }
            }
        }
        for a in &pairs {
            for b in &pairs {
                if a.1 < b.1 - 1e-9 {
                    prop_assert!(a.2 < b.2 + 1e-9, "order violated: {:?} vs {:?}", a.0, b.0);
                }
            }
        }
    }

    #[test]
    fn columnar_stats_match_the_aos_oracle_bit_for_bit(
        n in 2usize..7,
        ops in proptest::collection::vec(
            (0usize..6, 0usize..6, 0u8..3, 0.1f64..50.0),
            1..400,
        ),
    ) {
        // The SoA refactor contract: the columnar stats plane is an
        // exact drop-in for the retained array-of-structs estimator —
        // every per-link statistic and every aggregate is bit-identical
        // under an arbitrary interleaving of records, attempts, and
        // timeouts.
        use cloudia_measure::stats::aos;
        let mut soa = PairwiseStats::with_p99(n);
        let mut oracle = aos::PairwiseStats::new(n);
        for &(src, dst, kind, rtt) in &ops {
            let (src, dst) = (src % n, dst % n);
            if src == dst {
                continue;
            }
            match kind {
                0 => {
                    soa.record(src, dst, rtt);
                    oracle.record(src, dst, rtt);
                }
                1 => {
                    soa.record_attempt(src, dst);
                    oracle.record_attempt(src, dst);
                }
                _ => {
                    soa.record_timeout(src, dst);
                    oracle.record_timeout(src, dst);
                }
            }
        }
        let (mut samples, mut attempts, mut timeouts) = (0u64, 0u64, 0u64);
        let mut covered = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (a, b) = (soa.link(i, j), oracle.link(i, j));
                prop_assert_eq!(a.count(), b.count(), "({},{}) count", i, j);
                prop_assert_eq!(a.mean(), b.mean(), "({},{}) mean", i, j);
                prop_assert_eq!(a.sd(), b.sd(), "({},{}) sd", i, j);
                prop_assert_eq!(a.mean_plus_sd(), b.mean_plus_sd(), "({},{}) mean+sd", i, j);
                // A link without samples has no sketch to read.
                prop_assert_eq!(a.p99(), (b.count() > 0).then(|| b.p99()), "({},{}) p99", i, j);
                prop_assert_eq!(a.attempts(), b.attempts(), "({},{}) attempts", i, j);
                prop_assert_eq!(a.timeouts(), b.timeouts(), "({},{}) timeouts", i, j);
                samples += b.count();
                attempts += b.attempts();
                timeouts += b.timeouts();
                covered += usize::from(b.count() > 0);
            }
        }
        // The running aggregates (satellite of the same refactor) agree
        // with a full scan of the oracle.
        prop_assert_eq!(soa.total_samples(), samples);
        prop_assert_eq!(soa.total_attempts(), attempts);
        prop_assert_eq!(soa.total_timeouts(), timeouts);
        prop_assert_eq!(soa.covered_links(), covered);
    }

    #[test]
    fn parallel_stage_execution_is_bit_identical_to_serial(
        n in 4usize..10,
        seed in 0u64..100,
        workers in 2usize..5,
    ) {
        // The fan-out contract: per-pair RNG substreams plus the
        // deterministic completion-order merge make the worker count
        // invisible in the results — a seeded run is byte-identical at
        // every `stage_workers` value, including under loss (dark-pair
        // strikes must replay identically too), with and without the
        // P² sketches.
        let mut net = ec2_network(n, seed);
        net.set_loss(cloudia_netsim::LossPlane::uniform(n, 0.02));
        let serial = MeasureConfig { seed, stage_workers: 1, ..MeasureConfig::default() };
        let fanned = MeasureConfig { seed, stage_workers: workers, ..MeasureConfig::default() };
        let schemes: Vec<Box<dyn Scheme>> = vec![
            Box::new(Staged::new(2, 2)),
            Box::new(FocusedScheme::new(ProbePlan::full(n), 2, 2)),
        ];
        for scheme in &schemes {
            for sketched in [false, true] {
                let stats =
                    || if sketched { PairwiseStats::with_p99(n) } else { PairwiseStats::new(n) };
                let a = scheme.run_onto(&net, &serial, stats());
                let b = scheme.run_onto(&net, &fanned, stats());
                prop_assert_eq!(a.round_trips, b.round_trips, "{}: round trips", scheme.name());
                prop_assert_eq!(a.elapsed_ms, b.elapsed_ms, "{}: elapsed", scheme.name());
                for i in 0..n {
                    for j in 0..n {
                        if i == j {
                            continue;
                        }
                        let (x, y) = (a.stats.link(i, j), b.stats.link(i, j));
                        let name = scheme.name();
                        prop_assert_eq!(x.count(), y.count(), "{}: ({},{}) count", name, i, j);
                        prop_assert_eq!(x.mean(), y.mean(), "{}: ({},{}) mean", name, i, j);
                        prop_assert_eq!(x.sd(), y.sd(), "{}: ({},{}) sd", name, i, j);
                        prop_assert_eq!(
                            x.p99().is_some(), sketched && x.count() > 0,
                            "{}: ({},{}) p99 presence", name, i, j
                        );
                        prop_assert_eq!(
                            x.p99().map(f64::to_bits), y.p99().map(f64::to_bits),
                            "{}: ({},{}) p99", name, i, j
                        );
                        prop_assert_eq!(
                            x.attempts(), y.attempts(),
                            "{}: ({},{}) attempts", name, i, j
                        );
                        prop_assert_eq!(
                            x.timeouts(), y.timeouts(),
                            "{}: ({},{}) timeouts", name, i, j
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn record_link_is_bit_identical_to_serial_records(
        n in 2usize..8,
        stages in proptest::collection::vec(
            proptest::collection::vec(
                (0usize..8, 0usize..8, 0u64..5, 0u64..3, proptest::collection::vec(0.1f64..50.0, 0..12)),
                1..20,
            ),
            1..5,
        ),
    ) {
        // The `record_link` contract: over an arbitrary schedule of
        // stages (a link may recur, within a stage or across them), one
        // call per (link, stage) leaves every column — count, mean, M2,
        // attempts, timeouts — and every P² sketch bit-identical to
        // replaying the same stages through the per-sample record APIs.
        let mut serial = PairwiseStats::with_p99(n);
        let mut merged = PairwiseStats::with_p99(n);
        for stage in &stages {
            for &(src, dst, attempts, timeouts, ref rtts) in stage {
                let (src, dst) = (src % n, dst % n);
                if src == dst {
                    continue;
                }
                let timeouts = timeouts.min(attempts);
                for _ in 0..attempts {
                    serial.record_attempt(src, dst);
                }
                for _ in 0..timeouts {
                    serial.record_timeout(src, dst);
                }
                for &rtt in rtts {
                    serial.record(src, dst, rtt);
                }
                merged.record_link(src, dst, attempts, timeouts, rtts);
            }
        }
        prop_assert_eq!(merged.total_samples(), serial.total_samples());
        prop_assert_eq!(merged.total_attempts(), serial.total_attempts());
        prop_assert_eq!(merged.total_timeouts(), serial.total_timeouts());
        prop_assert_eq!(merged.covered_links(), serial.covered_links());
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (a, b) = (merged.link(i, j), serial.link(i, j));
                prop_assert_eq!(a.count(), b.count(), "({},{}) count", i, j);
                prop_assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "({},{}) mean", i, j);
                prop_assert_eq!(a.sd().to_bits(), b.sd().to_bits(), "({},{}) m2/sd", i, j);
                prop_assert_eq!(
                    a.p99().map(f64::to_bits), b.p99().map(f64::to_bits), "({},{}) p99", i, j
                );
                prop_assert_eq!(a.attempts(), b.attempts(), "({},{}) attempts", i, j);
                prop_assert_eq!(a.timeouts(), b.timeouts(), "({},{}) timeouts", i, j);
            }
        }
    }

    #[test]
    fn sketches_never_perturb_the_columns(
        n in 2usize..7,
        ops in proptest::collection::vec(
            (0usize..6, 0usize..6, 0u8..3, 0.1f64..50.0),
            1..300,
        ),
    ) {
        // The p99 sketches are a side group: one random schedule recorded
        // into a sketched and a sketchless store leaves every column
        // (count/mean/M2/attempts/timeouts), every running total and the
        // touch log bit-identical.
        let mut sketched = PairwiseStats::with_p99(n);
        let mut plain = PairwiseStats::new(n);
        let (c_sketched, c_plain) = (sketched.touch_cursor(), plain.touch_cursor());
        for &(src, dst, kind, rtt) in &ops {
            let (src, dst) = (src % n, dst % n);
            if src == dst {
                continue;
            }
            for s in [&mut sketched, &mut plain] {
                match kind {
                    0 => s.record(src, dst, rtt),
                    1 => s.record_attempt(src, dst),
                    _ => s.record_timeout(src, dst),
                }
            }
        }
        prop_assert_eq!(sketched.total_samples(), plain.total_samples());
        prop_assert_eq!(sketched.total_attempts(), plain.total_attempts());
        prop_assert_eq!(sketched.total_timeouts(), plain.total_timeouts());
        prop_assert_eq!(sketched.covered_links(), plain.covered_links());
        prop_assert_eq!(sketched.count_column(), plain.count_column());
        prop_assert_eq!(sketched.attempts_column(), plain.attempts_column());
        let touched = |s: &PairwiseStats, c| s.touched_since(c).map(Iterator::collect::<Vec<_>>);
        prop_assert_eq!(touched(&sketched, c_sketched), touched(&plain, c_plain));
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let (a, b) = (sketched.link(i, j), plain.link(i, j));
                prop_assert_eq!(a.count(), b.count(), "({},{}) count", i, j);
                prop_assert_eq!(a.mean().to_bits(), b.mean().to_bits(), "({},{}) mean", i, j);
                prop_assert_eq!(a.sd().to_bits(), b.sd().to_bits(), "({},{}) M2", i, j);
                prop_assert_eq!(a.attempts(), b.attempts(), "({},{}) attempts", i, j);
                prop_assert_eq!(a.timeouts(), b.timeouts(), "({},{}) timeouts", i, j);
                // Only the sketched store has a p99, on covered links.
                prop_assert_eq!(a.p99().is_some(), a.count() > 0, "({},{}) p99", i, j);
                prop_assert_eq!(b.p99(), None, "({},{}) sketchless p99", i, j);
            }
        }
    }
}

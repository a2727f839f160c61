//! The §5 measurement baselines (token passing, uncoordinated probing):
//! coverage, accuracy and speed against the staged scheme, the
//! duration-limit and loss contracts, a recorded loss-path golden, and
//! bit-exact differential proptests against transcribed reference loops.

use cloudia_bench::baselines::{token_passing, uncoordinated};
use cloudia_measure::{
    probe_overhead_ms, MeasureConfig, MeasurementReport, PairwiseStats, Scheme, Staged,
};
use cloudia_netsim::{Cloud, InstanceId, LossPlane, Network, Provider};
use proptest::prelude::*;

fn quiet_network(n: usize, seed: u64) -> Network {
    let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

fn ec2_network(n: usize, seed: u64) -> Network {
    let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
    let alloc = cloud.allocate(n);
    cloud.network(&alloc)
}

fn token(net: &Network, cfg: &MeasureConfig, samples_per_pair: usize) -> MeasurementReport {
    token_passing(net, cfg, PairwiseStats::new(net.len()), samples_per_pair)
}

fn unc(net: &Network, cfg: &MeasureConfig, probes_per_instance: usize) -> MeasurementReport {
    uncoordinated(net, cfg, PairwiseStats::new(net.len()), probes_per_instance)
}

#[test]
fn covers_every_ordered_pair() {
    let net = quiet_network(5, 1);
    let report = token(&net, &MeasureConfig::default(), 3);
    assert_eq!(report.stats.covered_links(), 5 * 4);
    for i in 0..5 {
        for j in 0..5 {
            if i != j {
                assert_eq!(report.stats.link(i, j).count(), 3, "pair ({i},{j})");
            }
        }
    }
    assert_eq!(report.round_trips, 5 * 4 * 3);
}

#[test]
fn estimates_match_truth_without_jitter() {
    // test_quiet has zero jitter, so every sample is the true mean plus
    // the constant handling overhead.
    let net = quiet_network(4, 2);
    let cfg = MeasureConfig::default();
    let report = token(&net, &cfg, 2);
    for i in 0..4u32 {
        for j in 0..4u32 {
            if i != j {
                let est = report.stats.link(i as usize, j as usize).mean();
                let truth = net.mean_rtt(InstanceId(i), InstanceId(j)) + probe_overhead_ms();
                assert!((est - truth).abs() < 1e-9, "({i},{j}): est {est}, truth {truth}");
            }
        }
    }
}

#[test]
fn elapsed_grows_with_samples() {
    let net = quiet_network(4, 3);
    let r1 = token(&net, &MeasureConfig::default(), 1);
    let r2 = token(&net, &MeasureConfig::default(), 4);
    assert!(r2.elapsed_ms > r1.elapsed_ms * 3.0);
}

#[test]
fn duration_limit_stops_early() {
    let net = quiet_network(6, 4);
    let cfg = MeasureConfig { max_duration_ms: Some(5.0), ..Default::default() };
    let report = token(&net, &cfg, 100);
    assert!(report.round_trips < 6 * 5 * 100);
    assert!(report.elapsed_ms < 10.0);
}

#[test]
fn issues_requested_probe_count() {
    let net = quiet_network(6, 1);
    let report = unc(&net, &MeasureConfig::default(), 50);
    assert_eq!(report.round_trips, 6 * 50);
}

#[test]
fn is_much_faster_than_token_for_same_sample_count() {
    let net = quiet_network(10, 2);
    let samples = 20;
    let u = unc(&net, &MeasureConfig::default(), samples * 9);
    let t = token(&net, &MeasureConfig::default(), samples);
    // Same total round trips, but uncoordinated runs ~n probes in
    // parallel.
    assert_eq!(u.round_trips, t.round_trips);
    assert!(
        u.elapsed_ms < t.elapsed_ms / 3.0,
        "uncoordinated {} vs token {}",
        u.elapsed_ms,
        t.elapsed_ms
    );
}

#[test]
fn interference_inflates_estimates() {
    // With zero jitter, any deviation of an estimate above
    // truth + constant overhead is queueing delay. Uncoordinated must
    // show some; token never does.
    let net = quiet_network(12, 3);
    let cfg = MeasureConfig::default();
    let report = unc(&net, &cfg, 200);
    let mut inflated = 0usize;
    let mut measured = 0usize;
    for i in 0..12u32 {
        for j in 0..12u32 {
            if i == j {
                continue;
            }
            let link = report.stats.link(i as usize, j as usize);
            if link.count() == 0 {
                continue;
            }
            measured += 1;
            let truth = net.mean_rtt(InstanceId(i), InstanceId(j)) + probe_overhead_ms();
            if link.mean() > truth + 1e-9 {
                inflated += 1;
            }
        }
    }
    assert!(measured > 100);
    assert!(inflated > measured / 10, "only {inflated}/{measured} links inflated");
}

#[test]
fn duration_limit_respected() {
    let net = quiet_network(8, 4);
    let cfg = MeasureConfig { max_duration_ms: Some(3.0), ..Default::default() };
    let report = unc(&net, &cfg, 10_000);
    assert!(report.round_trips < 8 * 10_000);
    // In-flight probes at the cutoff still complete, so allow slack.
    assert!(report.elapsed_ms < 6.0);
}

#[test]
fn deterministic_per_seed() {
    let net = quiet_network(5, 5);
    let cfg = MeasureConfig { seed: 77, ..Default::default() };
    assert_eq!(unc(&net, &cfg, 30).mean_vector(), unc(&net, &cfg, 30).mean_vector());
}

#[test]
fn faster_than_token_for_same_coverage() {
    let net = quiet_network(10, 3);
    let staged = Staged::new(4, 2).run(&net, &MeasureConfig::default());
    let token = token(&net, &MeasureConfig::default(), 4);
    assert!(
        staged.elapsed_ms < token.elapsed_ms,
        "staged {} vs token {}",
        staged.elapsed_ms,
        token.elapsed_ms
    );
}

/// `(round trips, elapsed-time bits, FNV-1a digest)` of a report, the
/// digest folding every directed link's mean bits, attempts and timeouts
/// in row-major order.
fn loss_path_digest(report: &MeasurementReport) -> (u64, u64, u64) {
    let n = report.stats.len();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let l = report.stats.link(i, j);
                for v in [l.mean().to_bits(), l.attempts(), l.timeouts()] {
                    h = (h ^ v).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
    (report.round_trips, report.elapsed_ms.to_bits(), h)
}

#[test]
fn engine_schemes_replay_the_recorded_loss_path() {
    // Recorded from the stepping engine-scheme drivers these loops
    // replaced: the retransmit and timeout accounting under 5 % loss is
    // the part the loss-free reference loops below cannot pin.
    let n = 8;
    let mut net = ec2_network(n, 8);
    net.set_loss(LossPlane::uniform(n, 0.05));
    let cfg = MeasureConfig { seed: 21, ..MeasureConfig::default() };
    let t = token(&net, &cfg, 3);
    let u = unc(&net, &cfg, 10 * (n - 1));
    assert_eq!((t.stats.total_timeouts(), u.stats.total_timeouts()), (18, 54));
    assert_eq!(loss_path_digest(&t), (168, 0x4098_3a69_6d7a_bc29, 0x1bc8_96a6_5a2f_e1a9));
    assert_eq!(loss_path_digest(&u), (560, 0x4082_80aa_979d_4517, 0x4b23_0b88_941d_2df5));
}

/// The batch measurement loops the baselines are differentially pinned
/// against, transcribed from the original sweep code: loss-free, on the
/// network's discrete-event engine through its public API only. Message
/// kinds are the baselines' wire constants (0 = probe, 1 = reply,
/// 2 = token).
mod reference {
    use cloudia_measure::{MeasureConfig, PairwiseStats, PROBE_SIZE_KB};
    use cloudia_netsim::{InstanceId, MessageSpec, Network, NicParams};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// (stats, round_trips, elapsed_ms) of one batch run.
    pub type BatchResult = (PairwiseStats, u64, f64);

    pub fn token(
        net: &Network,
        cfg: &MeasureConfig,
        mut stats: PairwiseStats,
        samples_per_pair: usize,
    ) -> BatchResult {
        let n = net.len();
        let mut engine = net.engine(NicParams::default(), cfg.seed);
        let mut round_trips = 0u64;
        let mut cursor = vec![0usize; n];
        let total_visits = n * (n - 1) * samples_per_pair;
        'outer: for visit in 0..total_visits {
            let holder = visit % n;
            let c = cursor[holder];
            cursor[holder] += 1;
            let dst = (holder + 1 + (c % (n - 1))) % n;
            if let Some(limit) = cfg.max_duration_ms {
                if engine.now() >= limit {
                    break 'outer;
                }
            }
            let sent = engine.send(MessageSpec {
                src: InstanceId::from_index(holder),
                dst: InstanceId::from_index(dst),
                size_kb: PROBE_SIZE_KB,
                kind: 0,
                token: visit as u64,
            });
            let probe = engine.next_delivery().expect("probe in flight");
            engine.send(MessageSpec {
                src: probe.spec.dst,
                dst: probe.spec.src,
                size_kb: PROBE_SIZE_KB,
                kind: 1,
                token: probe.spec.token,
            });
            let reply = engine.next_delivery().expect("reply in flight");
            stats.record(holder, dst, reply.delivered_at - sent);
            round_trips += 1;
            let next = (holder + 1) % n;
            engine.send(MessageSpec {
                src: InstanceId::from_index(holder),
                dst: InstanceId::from_index(next),
                size_kb: 0.1,
                kind: 2,
                token: visit as u64,
            });
            engine.next_delivery();
        }
        (stats, round_trips, engine.now())
    }

    pub fn uncoordinated(
        net: &Network,
        cfg: &MeasureConfig,
        mut stats: PairwiseStats,
        probes_per_instance: usize,
    ) -> BatchResult {
        let n = net.len();
        let mut engine = net.engine(NicParams::default(), cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut round_trips = 0u64;
        let mut probe_sent_at = vec![0.0f64; n];
        let mut probe_dst = vec![0usize; n];
        let mut issued = vec![0usize; n];

        let launch = |src: usize,
                      engine: &mut cloudia_netsim::Engine<'_>,
                      rng: &mut StdRng,
                      probe_sent_at: &mut [f64],
                      probe_dst: &mut [usize],
                      issued: &mut [usize]| {
            let dst = loop {
                let d = rng.random_range(0..n);
                if d != src {
                    break d;
                }
            };
            let sent = engine.send(MessageSpec {
                src: InstanceId::from_index(src),
                dst: InstanceId::from_index(dst),
                size_kb: PROBE_SIZE_KB,
                kind: 0,
                token: src as u64,
            });
            probe_sent_at[src] = sent;
            probe_dst[src] = dst;
            issued[src] += 1;
        };

        for src in 0..n {
            launch(src, &mut engine, &mut rng, &mut probe_sent_at, &mut probe_dst, &mut issued);
        }
        while let Some(msg) = engine.next_delivery() {
            match msg.spec.kind {
                0 => {
                    engine.send(MessageSpec {
                        src: msg.spec.dst,
                        dst: msg.spec.src,
                        size_kb: PROBE_SIZE_KB,
                        kind: 1,
                        token: msg.spec.token,
                    });
                }
                1 => {
                    let src = msg.spec.token as usize;
                    stats.record(src, probe_dst[src], msg.delivered_at - probe_sent_at[src]);
                    round_trips += 1;
                    let under_limit = cfg.max_duration_ms.is_none_or(|limit| engine.now() < limit);
                    if issued[src] < probes_per_instance && under_limit {
                        launch(
                            src,
                            &mut engine,
                            &mut rng,
                            &mut probe_sent_at,
                            &mut probe_dst,
                            &mut issued,
                        );
                    }
                }
                other => unreachable!("unexpected message kind {other}"),
            }
        }
        (stats, round_trips, engine.now())
    }
}

/// Bit-exact comparison of a baseline's report against an oracle batch
/// result: per-link means, standard deviations, counts, total round
/// trips, and elapsed simulated time all equal exactly.
fn assert_bit_identical(
    label: &str,
    report: &MeasurementReport,
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

/// Both baselines at the given sizes, labelled.
fn both(
    net: &Network,
    cfg: &MeasureConfig,
    samples_per_pair: usize,
    probes_per_instance: usize,
) -> [(&'static str, MeasurementReport); 2] {
    [
        ("token", token(net, cfg, samples_per_pair)),
        ("uncoordinated", unc(net, cfg, probes_per_instance)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn token_and_staged_agree_exactly_without_jitter(n in 3usize..9, seed in 0u64..200) {
        // On a jitter-free network both clean schemes measure
        // truth + constant overhead on every link.
        let net = quiet_network(n, seed);
        let cfg = MeasureConfig::default();
        let token = token(&net, &cfg, 2);
        let staged = Staged::new(2, 2).run(&net, &cfg);
        for i in 0..n {
            for j in 0..n {
                if i != j && staged.stats.link(i, j).count() > 0 {
                    prop_assert!(
                        (token.stats.link(i, j).mean() - staged.stats.link(i, j).mean()).abs() < 1e-9,
                        "link ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn all_schemes_cover_links_and_stay_positive(n in 3usize..8, seed in 0u64..100) {
        let net = quiet_network(n, seed);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let reports = both(&net, &cfg, 1, 30 * (n - 1));
        for (scheme, report) in &reports {
            prop_assert!(report.round_trips > 0);
            prop_assert!(report.elapsed_ms > 0.0);
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        let l = report.stats.link(i, j);
                        if l.count() > 0 {
                            prop_assert!(l.mean() > 0.0, "{scheme}: link ({i},{j})");
                        }
                    }
                }
            }
        }
        // Token passing guarantees full coverage.
        prop_assert_eq!(reports[0].1.stats.covered_links(), n * (n - 1));
    }

    #[test]
    fn baselines_are_bit_identical_to_the_reference_loops(
        n in 4usize..10,
        seed in 0u64..200,
        ks in 1usize..4,
    ) {
        // Per-link means/sds/counts, round trips, and simulated elapsed
        // time equal the reference loops' bit for bit, on jittery
        // (ec2-like) networks whose RNG consumption would expose any
        // reordering.
        let net = ec2_network(n, seed);
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let oracle = reference::token(&net, &cfg, PairwiseStats::new(n), ks);
        assert_bit_identical("token", &token(&net, &cfg, ks), &oracle);
        let probes = 10 * (n - 1);
        let oracle = reference::uncoordinated(&net, &cfg, PairwiseStats::new(n), probes);
        assert_bit_identical("uncoordinated", &unc(&net, &cfg, probes), &oracle);
    }

    #[test]
    fn baselines_honour_duration_limits_like_the_reference_loops(
        n in 4usize..8,
        seed in 0u64..50,
        limit in 2.0f64..20.0,
    ) {
        let net = ec2_network(n, seed);
        let cfg = MeasureConfig { seed, max_duration_ms: Some(limit), ..MeasureConfig::default() };
        let oracle = reference::token(&net, &cfg, PairwiseStats::new(n), 20);
        assert_bit_identical("token+limit", &token(&net, &cfg, 20), &oracle);
        let oracle = reference::uncoordinated(&net, &cfg, PairwiseStats::new(n), 500);
        assert_bit_identical("uncoordinated+limit", &unc(&net, &cfg, 500), &oracle);
    }

    #[test]
    fn no_probe_is_issued_at_or_after_the_deadline(
        n in 4usize..8,
        seed in 0u64..50,
        limit in 2.0f64..12.0,
    ) {
        // The shared duration-limit contract of `MeasureConfig::max_duration_ms`:
        // no probe (initial, continuation, or retransmit) is issued at or
        // after the deadline. Only work already in flight may drain, so
        // the overhang past the deadline is bounded by a few round-trip
        // times.
        let net = quiet_network(n, seed);
        let cfg = MeasureConfig { seed, max_duration_ms: Some(limit), ..MeasureConfig::default() };
        let max_rtt = (0..n)
            .flat_map(|i| (0..n).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .map(|(i, j)| net.mean_rtt(InstanceId::from_index(i), InstanceId::from_index(j)))
            .fold(0.0f64, f64::max);
        // At the cutoff each instance has at most one exchange in
        // flight; replies may queue behind each other at an endpoint.
        let overhang = (n as f64) * (max_rtt + probe_overhead_ms()) + 1.0;
        for (scheme, report) in both(&net, &cfg, 200, 100_000) {
            prop_assert!(
                report.elapsed_ms < limit + overhang,
                "{}: elapsed {} vs limit {} (overhang allowance {})",
                scheme, report.elapsed_ms, limit, overhang
            );
        }
    }

    #[test]
    fn clear_loss_plane_is_bit_identical_to_no_plane(n in 4usize..9, seed in 0u64..100) {
        // Loss-awareness is free on a clean network: an installed
        // all-zero loss plane never consults the fault RNG, so both
        // baselines reproduce their no-plane runs bit for bit.
        let net = ec2_network(n, seed);
        let mut clear = net.clone();
        clear.set_loss(LossPlane::clear(n));
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let plain = both(&net, &cfg, 2, 10 * (n - 1));
        for ((scheme, a), (_, b)) in plain.iter().zip(both(&clear, &cfg, 2, 10 * (n - 1))) {
            prop_assert_eq!(a.round_trips, b.round_trips, "{}: round trips", scheme);
            prop_assert_eq!(a.elapsed_ms, b.elapsed_ms, "{}: elapsed", scheme);
            prop_assert_eq!(a.mean_vector(), b.mean_vector(), "{}: means", scheme);
        }
    }

    #[test]
    fn schemes_converge_under_uniform_loss(n in 4usize..8, seed in 0u64..50) {
        // Under 5% per-link loss both baselines terminate; token passing
        // leaves every pair measured or recorded as attempted (retry
        // budget exhausted), so coverage accounting stays truthful.
        let mut net = ec2_network(n, seed);
        net.set_loss(LossPlane::uniform(n, 0.05));
        let cfg = MeasureConfig { seed, ..MeasureConfig::default() };
        let report = token(&net, &cfg, 2);
        prop_assert!(report.round_trips > 0, "token: no round trips");
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    prop_assert!(
                        report.stats.link(i, j).attempts() > 0,
                        "token: pair ({i},{j}) never attempted"
                    );
                }
            }
        }
        let u = unc(&net, &cfg, 20 * (n - 1));
        prop_assert!(u.round_trips > 0, "uncoordinated: no round trips");
        prop_assert!(u.stats.total_attempts() >= u.round_trips, "attempts undercounted");
    }

}

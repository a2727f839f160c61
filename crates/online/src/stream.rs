//! Streaming measurement: epoch-by-epoch latency sampling with
//! cross-round accumulation.
//!
//! The batch pipeline measures once and forgets; the online advisor
//! instead consumes a [`MeasurementStream`]: every epoch it runs a
//! (budget-limited) measurement round *into* the cumulative
//! [`PairwiseStats`] ([`cloudia_measure::run_with_rules`]) and forwards
//! the per-epoch deltas the sweep added up as it recorded — the mean of
//! exactly the samples this epoch contributed per link. Beyond those
//! statistics a stream keeps no per-link state. The deltas feed the
//! EWMA/change-point store ([`crate::OnlineStore`]), the loop's
//! cross-round memory.
//!
//! [`SimStream`] is the one implementation: it owns a
//! [`DriftingNetwork`], steps it between epochs and replays a link's
//! drift only when the sweep (or a spot check, or a truth read) reaches
//! it — the closed-loop simulation the control loop runs against. Its drift is a pure function
//! of the network and the stream's seeds, so competing policies (online
//! vs batch vs never-migrate, focused vs uniform) are compared on the
//! *identical* drift trajectory and measurement randomness by giving each
//! arm its own stream built from the same seeds: a simulated trajectory
//! is its seeds.

use rand::{rngs::StdRng, SeedableRng};

pub use cloudia_measure::LinkDelta;
use cloudia_measure::{
    probe_overhead_ms, run_with_rules, MeasureConfig, PairwiseStats, PruneRule, Scheme, StopRule,
    PROBE_SIZE_KB,
};
use cloudia_netsim::{DriftParams, DriftingNetwork, FaultParams, InstanceId, Network};

/// What one measurement epoch produced.
#[derive(Debug, Clone)]
pub struct EpochMeasurement {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Simulated hours since the stream started, at the end of this epoch.
    pub at_hours: f64,
    /// Simulated milliseconds this epoch's measurement occupied.
    pub elapsed_ms: f64,
    /// Round trips this epoch collected.
    pub round_trips: u64,
    /// One delta per link *attempted* this epoch: links that got samples
    /// carry their epoch mean, attempted-but-sampleless (dark) links are
    /// emitted too, with `count == 0` (see [`LinkDelta::mean`]).
    pub deltas: Vec<LinkDelta>,
    /// Distinct pairs dropped by mid-sweep pruning (0 on unpruned
    /// epochs).
    pub pruned_pairs: usize,
    /// Estimated round trips mid-sweep pruning saved this epoch (0 on
    /// unpruned epochs).
    pub saved_round_trips: u64,
}

/// A source of per-epoch latency measurements over a (possibly drifting)
/// instance set.
pub trait MeasurementStream {
    /// Number of instances covered.
    fn len(&self) -> usize;

    /// True if the stream covers no instances.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The current ground-truth network (for cost evaluation/logging; a
    /// real deployment would not have this, the simulation does).
    ///
    /// A simulated stream drifts lazily ([`DriftingNetwork`]), so only
    /// some links are current: the links the last epoch brought up to
    /// date (see [`MeasurementStream::epoch`]), the links spot-checked
    /// since, and every link among the instances last asked for through
    /// [`MeasurementStream::truth`]. Any other link reads as of the last
    /// time one of those brought it up to date. Read ground truth through
    /// [`MeasurementStream::truth`].
    fn network(&self) -> &Network;

    /// The ground-truth network with every link among `instances`
    /// current — what pricing a deployment on them reads. The default is
    /// [`MeasurementStream::network`], for streams whose every link is
    /// always current.
    fn truth(&mut self, instances: &[u32]) -> &Network {
        let _ = instances;
        self.network()
    }

    /// The statistics accumulated over every epoch so far.
    fn cumulative(&self) -> &PairwiseStats;

    /// Advances time and runs one measurement epoch — the one entry
    /// point every stream implements; the `next_epoch*` methods below
    /// are its named special cases.
    ///
    /// * `scheme` overrides the stream's own scheme (the uniform full
    ///   sweep) for this epoch — the focused-probing path: the online
    ///   advisor passes a [`cloudia_measure::FocusedScheme`] built from
    ///   its current probe plan, and the round accumulates into the same
    ///   cumulative statistics as every uniform round;
    /// * `rule` is evaluated between stages on the stage-streaming
    ///   driver (mid-sweep tournament pruning; see
    ///   [`cloudia_measure::run_pruned`]), and the returned measurement
    ///   carries the pruning ledger in `pruned_pairs`/`saved_round_trips`;
    /// * `stop` additionally ends the sweep early once it declares every
    ///   remaining prune/pool decision CI-stable (the anytime mode; see
    ///   [`cloudia_measure::run_anytime`]); round trips it saves are
    ///   folded into `saved_round_trips` alongside pruning's.
    ///
    /// A stream without stage streaming may ignore `rule` and `stop` — it
    /// loses only the savings, never correctness.
    ///
    /// A lazily drifting stream brings up to date only what the epoch
    /// probes. Without `stop`, that is the whole schedule of the epoch's
    /// scheme, both directions of every scheduled pair (every link for a
    /// full sweep), before the first stage runs. With `stop`, it is the
    /// pairs each stage still holds when it runs, in both directions:
    /// pairs the prune rule or the stop drop first stay as they were.
    fn epoch(
        &mut self,
        scheme: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement;

    /// One epoch with the stream's own scheme (the uniform full sweep).
    fn next_epoch(&mut self) -> EpochMeasurement {
        self.epoch(None, None, None)
    }

    /// One epoch with a caller-chosen scheme instead of the stream's own.
    fn next_epoch_with(&mut self, scheme: &dyn Scheme) -> EpochMeasurement {
        self.epoch(Some(scheme), None, None)
    }

    /// One epoch with `rule` evaluated between stages; `scheme: None`
    /// prunes the stream's own sweep.
    fn next_epoch_pruned(
        &mut self,
        scheme: Option<&dyn Scheme>,
        rule: &dyn PruneRule,
    ) -> EpochMeasurement {
        self.epoch(scheme, Some(rule), None)
    }

    /// Like [`MeasurementStream::next_epoch_pruned`], additionally
    /// ending the epoch's sweep early once `stop` fires.
    fn next_epoch_anytime(
        &mut self,
        scheme: Option<&dyn Scheme>,
        rule: &dyn PruneRule,
        stop: &dyn StopRule,
    ) -> EpochMeasurement {
        self.epoch(scheme, Some(rule), Some(stop))
    }

    /// Draws `probes` fresh RTT samples of the directed link
    /// `src → dst` from the stream's *current* ground truth and returns
    /// their mean, made comparable to scheme-measured RTTs (the constant
    /// endpoint-handling overhead is included; queueing never is, since
    /// a spot check is one lone probe at a time). This is the
    /// cheap single-link confirmation path for suspicious links —
    /// no measurement round is scheduled. Returns `None` if the stream
    /// cannot probe single links (the default) or `probes` is 0.
    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        let _ = (src, dst, probes);
        None
    }

    /// Loss-aware spot check: issues `probes` fresh single-probe
    /// exchanges on the directed link `src → dst` against the current
    /// ground truth and returns `(successes, attempts)` — the darkness
    /// confirmation path. A link alarmed as dark is confirmed by
    /// attempting it again *now*, not by asking how fast it was. Returns
    /// `None` if the stream cannot probe single links (the default) or
    /// `probes` is 0.
    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        let _ = (src, dst, probes);
        None
    }
}

/// A closed-loop stream: drifts a simulated network between epochs and
/// measures the drifted state into cumulative statistics.
#[derive(Debug)]
pub struct SimStream<S: Scheme> {
    drifting: DriftingNetwork,
    /// Hours of drift applied before each epoch's measurement.
    epoch_hours: f64,
    scheme: S,
    config: MeasureConfig,
    cumulative: PairwiseStats,
    epoch: u64,
    /// RNG of the spot-check probes. Deliberately separate from the
    /// measurement and drift RNGs: spot checks must not perturb the
    /// trajectory, or arms with and without spot checking would diverge
    /// onto different ground truths.
    spot_rng: StdRng,
}

impl<S: Scheme> SimStream<S> {
    /// Wraps a network in a drift process and measures it with `scheme`
    /// every `epoch_hours` of simulated time. The drift is keyed by
    /// `drift_seed` alone, so two streams built from the same network and
    /// seeds walk the identical trajectory whatever they measure.
    pub fn new(
        net: Network,
        scheme: S,
        config: MeasureConfig,
        epoch_hours: f64,
        drift_seed: u64,
    ) -> Self {
        assert!(epoch_hours > 0.0, "epoch_hours must be positive");
        let spot_rng = StdRng::seed_from_u64(config.seed ^ drift_seed ^ 0x5b07_c4ec);
        Self {
            cumulative: PairwiseStats::new(net.len()),
            drifting: DriftingNetwork::new(net, drift_seed),
            epoch_hours,
            scheme,
            config,
            epoch: 0,
            spot_rng,
        }
    }

    /// Like [`SimStream::new`], but the drifting network also carries a
    /// fault process: per-link loss drifting around `faults.base_loss`;
    /// instances go dark only through [`SimStream::force_instance_dark`].
    /// The fault schedule draws on its own key (`fault_seed`), so two
    /// streams differing only in faults share the latency trajectory.
    pub fn with_faults(
        net: Network,
        scheme: S,
        config: MeasureConfig,
        epoch_hours: f64,
        drift_seed: u64,
        faults: FaultParams,
        fault_seed: u64,
    ) -> Self {
        let plain = Self::new(net, scheme, config, epoch_hours, drift_seed);
        Self { drifting: plain.drifting.with_faults(faults, fault_seed), ..plain }
    }

    /// Scripted fault injection: blacks out every link of `instance` for
    /// `hours` of simulated time starting now (see
    /// [`DriftingNetwork::force_instance_dark`]).
    ///
    /// # Panics
    /// Panics if the stream was built without faults
    /// ([`SimStream::with_faults`]).
    pub fn force_instance_dark(&mut self, instance: u32, hours: f64) {
        self.drifting.force_instance_dark(InstanceId(instance), hours);
    }

    /// Scripted regime change: brings every link up to date and restarts
    /// the drift on the current network under `params` and the key
    /// `drift_seed`, carrying the simulated hours over (see
    /// [`DriftingNetwork::rebase`]) — e.g. a drifting head followed by a
    /// quiet tail.
    ///
    /// # Panics
    /// Panics if the stream was built with faults.
    pub fn rebase_drift(&mut self, params: DriftParams, drift_seed: u64) {
        self.drifting.rebase(params, drift_seed);
    }

    /// Runs the next epoch's measurement round into the cumulative
    /// statistics on the stage-streaming driver — with `scheme` in place
    /// of the stream's own when given, and `rule` and `stop` (when given)
    /// evaluated between stages — bringing up to date the links it probes
    /// before it reads them, and forwards the round's per-link deltas.
    fn measure(
        &mut self,
        scheme: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement {
        let epoch = self.epoch;
        self.epoch += 1;
        // Per-epoch probe randomness: decorrelate epochs without touching
        // the caller's base seed.
        let mut epoch_cfg = self.config.clone();
        epoch_cfg.seed = self.config.seed ^ (epoch + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let taken = std::mem::replace(&mut self.cumulative, PairwiseStats::new(0));
        let scheme = scheme.unwrap_or(&self.scheme);
        let swept = run_with_rules(scheme, &mut self.drifting, &epoch_cfg, taken, rule, stop);
        self.cumulative = swept.report.stats;
        EpochMeasurement {
            epoch,
            at_hours: self.drifting.hours(),
            elapsed_ms: swept.report.elapsed_ms,
            round_trips: swept.report.round_trips,
            deltas: swept.deltas,
            pruned_pairs: swept.dropped_pairs,
            saved_round_trips: swept.saved_round_trips,
        }
    }
}

impl<S: Scheme> MeasurementStream for SimStream<S> {
    fn len(&self) -> usize {
        self.cumulative.len()
    }

    fn network(&self) -> &Network {
        self.drifting.network()
    }

    fn cumulative(&self) -> &PairwiseStats {
        &self.cumulative
    }

    /// Advances the drift, then measures the drifted state, replaying the
    /// drift of the links the sweep probes as it goes.
    fn epoch(
        &mut self,
        external: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement {
        self.drifting.step(self.epoch_hours);
        self.measure(external, rule, stop)
    }

    fn truth(&mut self, instances: &[u32]) -> &Network {
        self.drifting.advance_instances(instances);
        self.drifting.network()
    }

    /// The mean of `probes` fresh single-link RTT samples plus the
    /// constant endpoint-handling overhead schemes add.
    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        self.drifting.advance([(src, dst)]);
        if probes == 0 {
            return None;
        }
        let (net, rng) = (self.drifting.network(), &mut self.spot_rng);
        let (src, dst) = (InstanceId(src), InstanceId(dst));
        let sum: f64 =
            (0..probes).map(|_| net.sample_rtt_sized(src, dst, PROBE_SIZE_KB, rng)).sum();
        Some(sum / probes as f64 + probe_overhead_ms())
    }

    /// Brings both directions up to date: the reply crosses `dst → src`.
    /// An exchange succeeds when neither the probe (`src → dst`) nor the
    /// reply is dropped; the loss RNG is only consulted on links with
    /// nonzero drop probability, mirroring the engine's draw discipline.
    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        use rand::Rng;
        self.drifting.advance([(src, dst), (dst, src)]);
        if probes == 0 {
            return None;
        }
        let (src, dst, net) = (InstanceId(src), InstanceId(dst), self.drifting.network());
        let (fwd, rev) = (net.drop_prob(src, dst), net.drop_prob(dst, src));
        let mut successes = 0u64;
        for _ in 0..probes {
            let probe_lost = fwd > 0.0 && self.spot_rng.random::<f64>() < fwd;
            let reply_lost = !probe_lost && rev > 0.0 && self.spot_rng.random::<f64>() < rev;
            if !probe_lost && !reply_lost {
                successes += 1;
            }
        }
        Some((successes, probes as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudia_measure::Staged;
    use cloudia_netsim::{Cloud, InstanceId, Provider};

    fn network(n: usize, seed: u64) -> Network {
        let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
        let alloc = cloud.allocate(n);
        cloud.network(&alloc)
    }

    /// The full walk the sweep's own deltas replaced: difference every
    /// link of `after` against a snapshot of `before`, in row-major order.
    fn full_walk_deltas(before: &PairwiseStats, after: &PairwiseStats) -> Vec<LinkDelta> {
        let n = after.len();
        let mut deltas = Vec::new();
        for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|(i, j)| i != j) {
            let (b, a) = (before.link(i, j), after.link(i, j));
            let (dcount, dattempts) = (a.count() - b.count(), a.attempts() - b.attempts());
            if dcount > 0 || dattempts > 0 {
                let dsum = a.mean() * a.count() as f64 - b.mean() * b.count() as f64;
                deltas.push(LinkDelta {
                    src: i as u32,
                    dst: j as u32,
                    mean: if dcount > 0 { dsum / dcount as f64 } else { 0.0 },
                    count: dcount,
                    attempts: dattempts,
                    timeouts: a.timeouts() - b.timeouts(),
                });
            }
        }
        deltas
    }

    /// Each delta's `(src, dst, count, attempts, timeouts)`.
    fn delta_keys(deltas: &[LinkDelta]) -> Vec<(u32, u32, u64, u64, u64)> {
        deltas.iter().map(|d| (d.src, d.dst, d.count, d.attempts, d.timeouts)).collect()
    }

    /// Drops every remaining pair with an endpoint at or past `from`.
    struct PruneFrom(u32);

    impl PruneRule for PruneFrom {
        fn prune(&self, _: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
            remaining.iter().copied().filter(|&(a, b)| a.max(b) >= self.0).collect()
        }
    }

    /// Stable once any link has samples; keeps only pairs below `keep`.
    struct StopAtOnce(u32);

    impl StopRule for StopAtOnce {
        fn stable(&self, stats: &PairwiseStats, _: &[(u32, u32)]) -> bool {
            stats.total_samples() > 0
        }

        fn must_keep(&self, a: u32, b: u32) -> bool {
            a.max(b) < self.0
        }
    }

    /// Runs nine epochs on `stream` — uniform sweeps, focused plans,
    /// pruned and anytime sweeps, and a three-sweep epoch whose third
    /// sweep repeats every directed link of its first — checking each
    /// against the full walk of the cumulative statistics.
    fn check_against_the_full_walk<M: MeasurementStream>(stream: &mut M) {
        use cloudia_measure::{FocusedScheme, ProbePlan};
        let n = stream.len() as u32;
        for e in 0..9 {
            let mut plan = ProbePlan::new(n as usize);
            plan.add_clique(&[0, 2, 5]);
            plan.add_pair(e % n, (e + 3) % n);
            let focused = FocusedScheme::new(plan, 2, 2);
            let before = stream.cumulative().clone();
            let m = match e {
                0 | 5 => stream.next_epoch(),
                1 | 3 | 7 => stream.next_epoch_with(&focused),
                2 => stream.next_epoch_pruned(Some(&focused), &PruneFrom(4)),
                4 => stream.next_epoch_pruned(None, &PruneFrom(6)),
                6 => stream.next_epoch_anytime(None, &PruneFrom(9), &StopAtOnce(5)),
                _ => {
                    let m = stream.next_epoch_with(&Staged::new(2, 3));
                    assert!(m.deltas.iter().any(|d| d.count > 2), "no link sampled by two sweeps");
                    m
                }
            };
            let oracle = full_walk_deltas(&before, stream.cumulative());
            assert_eq!(delta_keys(&m.deltas), delta_keys(&oracle), "epoch {e}");
            for (d, o) in m.deltas.iter().zip(&oracle) {
                assert!(
                    (d.mean - o.mean).abs() <= 1e-12 * o.mean,
                    "epoch {e} ({}, {}): mean {} vs the walk's {}",
                    d.src,
                    d.dst,
                    d.mean,
                    o.mean
                );
            }
        }
    }

    #[test]
    fn epoch_deltas_equal_the_full_walk() {
        use cloudia_netsim::FaultParams;
        let mcfg = MeasureConfig::default();
        let mut sim = SimStream::new(network(10, 4), Staged::new(2, 2), mcfg.clone(), 2.0, 7);
        check_against_the_full_walk(&mut sim);
        let mut lossy = SimStream::with_faults(
            network(10, 5),
            Staged::new(3, 2),
            mcfg,
            2.0,
            7,
            FaultParams::drifting_loss(0.2),
            0xfa11,
        );
        lossy.force_instance_dark(3, 1e6);
        check_against_the_full_walk(&mut lossy);
    }

    #[test]
    fn long_horizons_keep_epoch_means_exact() {
        // 10^5 six-sample epochs on a network that never drifts: however
        // long the links' histories grow, an epoch's means are its own
        // samples', as a rerun of the same epoch into fresh statistics
        // measures them.
        let still = DriftParams { reversion_per_hour: 1.0, sigma_per_sqrt_hour: 0.0 };
        let stream = || {
            let net = network(2, 3).with_drift_params(still);
            SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 1.0, 0)
        };
        let mut long = stream();
        let epochs = 100_000;
        for epoch in 0..epochs {
            let m = long.next_epoch();
            if epoch < epochs - 10 {
                continue;
            }
            let rerun = SimStream { epoch, ..stream() }.next_epoch();
            assert_eq!(delta_keys(&m.deltas), delta_keys(&rerun.deltas));
            for (d, f) in m.deltas.iter().zip(&rerun.deltas) {
                let rel = (d.mean - f.mean).abs() / f.mean;
                assert!(
                    rel <= 1e-14,
                    "epoch {epoch} ({}, {}): relative error {rel:e}",
                    d.src,
                    d.dst
                );
            }
        }
        assert_eq!(long.cumulative.link(0, 1).count(), 3 * epochs);
    }

    #[test]
    fn sim_stream_accumulates_and_reports_deltas() {
        let mut stream =
            SimStream::new(network(6, 1), Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);
        let m0 = stream.next_epoch();
        assert_eq!(m0.epoch, 0);
        assert!((m0.at_hours - 2.0).abs() < 1e-12);
        assert!(m0.round_trips > 0);
        // Two sweeps cover both directions of every pair.
        assert_eq!(m0.deltas.len(), 6 * 5);
        let total0 = stream.cumulative().total_samples();
        let m1 = stream.next_epoch();
        assert_eq!(m1.epoch, 1);
        assert_eq!(stream.cumulative().total_samples(), 2 * total0);
        // Delta counts are per-epoch, not cumulative.
        assert_eq!(m1.deltas[0].count, m0.deltas[0].count);
    }

    #[test]
    fn the_online_loops_statistics_keep_no_p99_sketches() {
        // After a bootstrap sweep over every link at m = 200, the
        // cumulative statistics are the five 8-byte columns and the
        // bookkeeping around them: no sketch slot, no P² sketch.
        let m = 200;
        let mut stream =
            SimStream::new(network(m, 2), Staged::new(1, 2), MeasureConfig::default(), 2.0, 5);
        stream.next_epoch();
        let stats = stream.cumulative();
        assert_eq!(stats.covered_links(), m * (m - 1));
        let per_link = stats.memory_bytes() as f64 / (m * m) as f64;
        assert!(per_link <= 41.0, "{per_link:.2} B per directed link");
        assert_eq!(stats.link(0, 1).p99(), None);
    }

    #[test]
    fn planned_epochs_accumulate_into_the_same_cumulative_store() {
        use cloudia_measure::{FocusedScheme, ProbePlan};
        let mut stream =
            SimStream::new(network(6, 6), Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);
        stream.next_epoch();
        let full_samples = stream.cumulative().total_samples();
        let mut plan = ProbePlan::new(6);
        plan.add_clique(&[0, 1, 2]);
        let m = stream.next_epoch_with(&FocusedScheme::new(plan, 2, 2));
        assert_eq!(m.epoch, 1);
        // Two sweeps cover both directions of the 3 planned pairs only.
        assert_eq!(m.deltas.len(), 6);
        assert!(m.deltas.iter().all(|d| d.src < 3 && d.dst < 3));
        assert_eq!(m.round_trips, 2 * 2 * 3);
        // The focused round accumulated on top of the uniform round.
        assert_eq!(stream.cumulative().total_samples(), full_samples + m.round_trips);
        // And the next uniform epoch keeps counting from there.
        let m2 = stream.next_epoch();
        assert_eq!(m2.epoch, 2);
        assert_eq!(m2.deltas.len(), 6 * 5);
    }

    #[test]
    fn epoch_deltas_track_the_drifted_truth() {
        // With many samples, the epoch mean should sit near the *current*
        // drifted mean of the link, not the hour-0 mean.
        let mut stream =
            SimStream::new(network(4, 2), Staged::new(30, 2), MeasureConfig::default(), 12.0, 3);
        for _ in 0..3 {
            stream.next_epoch();
        }
        let m = stream.next_epoch();
        let net = stream.truth(&[0, 1, 2, 3]);
        for d in &m.deltas {
            let truth = net.mean_rtt(InstanceId(d.src), InstanceId(d.dst));
            // Probe overhead adds a constant; just sanity-band the ratio.
            assert!(
                d.mean > 0.5 * truth && d.mean < 3.0 * truth + 1.0,
                "({}, {}): epoch mean {} vs truth {truth}",
                d.src,
                d.dst,
                d.mean
            );
        }
    }

    /// Every directed link among `instances` in `net`, as `(mean, drop)`
    /// bits.
    fn truth_bits(net: &Network, instances: &[u32]) -> Vec<(u64, u64)> {
        let pairs = instances.iter().flat_map(|&a| instances.iter().map(move |&b| (a, b)));
        pairs
            .filter(|(a, b)| a != b)
            .map(|(a, b)| {
                let (a, b) = (InstanceId(a), InstanceId(b));
                (net.mean_rtt(a, b).to_bits(), net.drop_prob(a, b).to_bits())
            })
            .collect()
    }

    #[test]
    fn streams_from_the_same_seeds_price_a_deployment_identically() {
        // One arm sweeps uniformly, the other probes a focused plan and
        // spot-checks heavily; with and without faults (and a scripted
        // blackout), both read the deployment at the same truth every
        // epoch: the trajectory is the seeds', not the measurements'.
        use cloudia_measure::{FocusedScheme, ProbePlan};
        use cloudia_netsim::FaultParams;
        let deployment = [0u32, 3, 5, 6];
        let build = |faulty: bool| {
            let (net, mcfg) = (network(8, 3), MeasureConfig::default());
            if faulty {
                let faults = FaultParams::drifting_loss(0.1);
                SimStream::with_faults(net, Staged::new(2, 2), mcfg, 4.0, 11, faults, 0xfa11)
            } else {
                SimStream::new(net, Staged::new(2, 2), mcfg, 4.0, 11)
            }
        };
        let mut plan = ProbePlan::new(8);
        plan.add_clique(&[1, 2, 4]);
        let focused_scheme = FocusedScheme::new(plan, 2, 2);
        for faulty in [false, true] {
            let (mut uniform, mut focused) = (build(faulty), build(faulty));
            for e in 0..6 {
                if faulty && e == 3 {
                    uniform.force_instance_dark(5, 8.0);
                    focused.force_instance_dark(5, 8.0);
                }
                uniform.next_epoch();
                for _ in 0..5 {
                    focused.spot_check(0, 7, 3);
                    focused.spot_check_loss(2, 6, 3);
                }
                focused.next_epoch_with(&focused_scheme);
                assert_eq!(
                    truth_bits(uniform.truth(&deployment), &deployment),
                    truth_bits(focused.truth(&deployment), &deployment),
                    "epoch {e}, faults {faulty}"
                );
            }
        }
    }

    #[test]
    fn a_scripted_rebase_is_a_fresh_drift_on_the_advanced_network() {
        use cloudia_measure::{FocusedScheme, ProbePlan};
        let quiet = DriftParams { reversion_per_hour: 1.0, sigma_per_sqrt_hour: 1e-3 };
        let mcfg = MeasureConfig::default();
        let mut stream = SimStream::new(network(6, 4), Staged::new(2, 2), mcfg, 3.0, 9);
        let mut plan = ProbePlan::new(6);
        plan.add_clique(&[0, 1, 2]);
        let focused = FocusedScheme::new(plan, 2, 2);
        // Focused epochs leave most links lagging before the re-base.
        for _ in 0..3 {
            stream.next_epoch_with(&focused);
        }
        stream.rebase_drift(quiet, 0x7a11);
        // The oracle: the head advanced in full, re-wrapped and re-keyed.
        let mut head = DriftingNetwork::new(network(6, 4), 9);
        for _ in 0..3 {
            head.step(3.0);
        }
        head.advance_all();
        let mut tail =
            DriftingNetwork::new(head.network().clone().with_drift_params(quiet), 0x7a11);
        for _ in 0..4 {
            stream.next_epoch_with(&focused);
            tail.step(3.0);
        }
        tail.advance_all();
        let all: Vec<u32> = (0..6).collect();
        let net = stream.truth(&all);
        assert_eq!(net.drift_params(), quiet);
        assert_eq!(truth_bits(net, &all), truth_bits(tail.network(), &all));
        // The simulated clock ran on through the re-base.
        assert_eq!(stream.next_epoch().at_hours, 8.0 * 3.0);
    }

    #[test]
    fn spot_checks_return_fresh_means_near_truth() {
        let mut stream =
            SimStream::new(network(5, 8), Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);
        stream.next_epoch();
        let truth = stream.truth(&[0, 1]).mean_rtt(InstanceId(0), InstanceId(1));
        let overhead = probe_overhead_ms();
        let spot = stream.spot_check(0, 1, 400).expect("sim streams support spot checks");
        assert!(
            (spot - (truth + overhead)).abs() / (truth + overhead) < 0.2,
            "spot {spot} vs truth + overhead {}",
            truth + overhead
        );
        assert!(stream.spot_check(0, 1, 0).is_none(), "zero probes draw nothing");
    }

    #[test]
    fn spot_checks_never_perturb_the_drift_trajectory() {
        // Two arms from identical seeds, one spot-checking heavily: the
        // measured epochs (and hence the drifted ground truth) must stay
        // bit-identical — spot probes draw from a dedicated RNG.
        let run = |spots: bool| {
            let mut stream =
                SimStream::new(network(5, 6), Staged::new(2, 2), MeasureConfig::default(), 4.0, 3);
            let mut means = Vec::new();
            for _ in 0..4 {
                if spots {
                    for _ in 0..50 {
                        stream.spot_check(0, 1, 7);
                    }
                }
                let m = stream.next_epoch();
                means.extend(m.deltas.iter().map(|d| d.mean));
            }
            means
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn zero_loss_faulty_stream_is_bit_identical_to_the_plain_stream() {
        use cloudia_netsim::FaultParams;
        let run = |faulty: bool| {
            let mut stream = if faulty {
                SimStream::with_faults(
                    network(5, 9),
                    Staged::new(2, 2),
                    MeasureConfig::default(),
                    2.0,
                    7,
                    FaultParams::drifting_loss(0.0),
                    0xfa11,
                )
            } else {
                SimStream::new(network(5, 9), Staged::new(2, 2), MeasureConfig::default(), 2.0, 7)
            };
            let mut means = Vec::new();
            for _ in 0..3 {
                let m = stream.next_epoch();
                assert!(m.deltas.iter().all(|d| d.timeouts == 0));
                means.extend(m.deltas.iter().map(|d| d.mean));
            }
            means
        };
        assert_eq!(run(false), run(true));
    }

    /// A [`SimStream`] that keeps each epoch's deltas and counts its spot
    /// checks. `eager` is the oracle of lazy drift: its network advances
    /// every link right after every step, so what the stream brings up to
    /// date on a read has nothing left to replay.
    struct Recording<S: Scheme> {
        sim: SimStream<S>,
        eager: bool,
        deltas: Vec<Vec<LinkDelta>>,
        spot_checks: usize,
    }

    impl<S: Scheme> MeasurementStream for Recording<S> {
        fn len(&self) -> usize {
            self.sim.len()
        }

        fn network(&self) -> &Network {
            self.sim.network()
        }

        fn cumulative(&self) -> &PairwiseStats {
            self.sim.cumulative()
        }

        fn epoch(
            &mut self,
            scheme: Option<&dyn Scheme>,
            rule: Option<&dyn PruneRule>,
            stop: Option<&dyn StopRule>,
        ) -> EpochMeasurement {
            let m = if self.eager {
                let sim = &mut self.sim;
                sim.drifting.step(sim.epoch_hours);
                sim.drifting.advance_all();
                sim.measure(scheme, rule, stop)
            } else {
                self.sim.epoch(scheme, rule, stop)
            };
            self.deltas.push(m.deltas.clone());
            m
        }

        fn truth(&mut self, instances: &[u32]) -> &Network {
            self.sim.truth(instances)
        }

        fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
            self.spot_checks += 1;
            self.sim.spot_check(src, dst, probes)
        }

        fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
            self.spot_checks += 1;
            self.sim.spot_check_loss(src, dst, probes)
        }
    }

    #[test]
    fn lazy_drift_runs_the_focused_loop_exactly_like_eager_drift() {
        // A focused, loss-aware advisor over fast drift: a bootstrap sweep,
        // staleness refreshes, focused epochs, spot checks, a deployed
        // instance forced dark mid-run and a full sweep after the flags it
        // raises escalate (`max_flagged` 6). Whatever links the lazy
        // stream brings up to date, the loop must see exactly what it sees
        // when every link advances on every step.
        use crate::{OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent, ProbePolicy};
        use cloudia_core::CommGraph;
        use cloudia_netsim::DriftParams;
        use cloudia_solver::CandidateConfig;
        let run = |eager: bool| {
            let net = network(14, 21).with_drift_params(DriftParams {
                reversion_per_hour: 0.05,
                sigma_per_sqrt_hour: 0.2,
            });
            let config = OnlineAdvisorConfig {
                solve_seconds: 0.2,
                threads: 1,
                migration_budget: 2,
                spot_check_probes: 4,
                probe_policy: ProbePolicy::Focused { max_flagged: 6, refresh_every: 6 },
                candidates: Some(CandidateConfig::fixed(3)),
                detector: crate::DetectorConfig { warmup: 3, threshold: 5.0 },
                ..Default::default()
            };
            let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), 14, (0..4).collect(), config);
            let sim = SimStream::with_faults(
                net,
                Staged::new(2, 2),
                MeasureConfig::default(),
                2.0,
                5,
                FaultParams::drifting_loss(0.03),
                0xfa11,
            );
            let mut stream = Recording { sim, eager, deltas: Vec::new(), spot_checks: 0 };
            let (mut full, mut summaries) = (0, Vec::new());
            for epoch in 0..18 {
                if epoch == 9 {
                    let victim = advisor.deployment()[0];
                    stream.sim.force_instance_dark(victim, 1e6);
                }
                full += usize::from(advisor.next_probe_plan().is_some_and(|p| p.is_full()));
                summaries.push(format!("{:?}", advisor.step_stream(&mut stream)));
            }
            // Repair solve times are wall-clock: everything else must match.
            let events: Vec<String> = advisor
                .events()
                .iter()
                .map(|e| match e {
                    OnlineEvent::Resolve { .. } => {
                        let mut e = e.clone();
                        if let OnlineEvent::Resolve { solve_seconds, .. } = &mut e {
                            *solve_seconds = 0.0;
                        }
                        format!("{e:?}")
                    }
                    e => format!("{e:?}"),
                })
                .collect();
            // Each epoch's deltas, means as bits.
            let deltas: Vec<String> = stream
                .deltas
                .iter()
                .map(|ds| {
                    let key = |d: &LinkDelta| (d.src, d.dst, d.count, d.attempts, d.timeouts);
                    ds.iter().map(|d| format!("{:?} {:x};", key(d), d.mean.to_bits())).collect()
                })
                .collect();
            (full, stream.spot_checks, summaries, events, deltas)
        };
        let (lazy, eager) = (run(false), run(true));
        let (full, spot_checks, _, events, _) = &lazy;
        assert!(*full >= 2, "no full sweep after the bootstrap ({full} full epochs)");
        assert!(*full < 18, "no focused epoch");
        assert!(*spot_checks > 0, "no spot check ran");
        assert!(events.iter().any(|e| e.starts_with("LinkDark")), "the blackout went unseen");
        assert_eq!(lazy.1, eager.1, "spot checks");
        assert_eq!(lazy.2, eager.2, "epoch summaries");
        assert_eq!(lazy.3, eager.3, "event logs");
        assert_eq!(lazy.4, eager.4, "epoch deltas");
    }

    /// Stable from its `at`-th look of an epoch on (a fresh rule per
    /// epoch); keeps the pairs below `keep` probing after it fires.
    struct StopAt {
        at: usize,
        looks: std::cell::Cell<usize>,
        keep: u32,
    }

    impl StopRule for StopAt {
        fn stable(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> bool {
            let looks = self.looks.get();
            self.looks.set(looks + 1);
            looks >= self.at
        }

        fn must_keep(&self, a: u32, b: u32) -> bool {
            a.max(b) < self.keep
        }
    }

    /// A stream built like `build(faulty)` and its eager twin's epochs:
    /// `lazy` replays drift as its sweeps reach links, `eager` replays
    /// every link before each epoch.
    fn lazy_and_eager(n: usize, faulty: bool, seed: u64) -> (SimStream<Staged>, SimStream<Staged>) {
        let build = || {
            let (net, mcfg) =
                (network(n, seed), MeasureConfig { seed, ..MeasureConfig::default() });
            let net = net.with_drift_params(DriftParams {
                reversion_per_hour: 0.05,
                sigma_per_sqrt_hour: 0.2,
            });
            if faulty {
                let faults = FaultParams::drifting_loss(0.1);
                SimStream::with_faults(net, Staged::new(2, 2), mcfg, 3.0, seed ^ 1, faults, 0xfa11)
            } else {
                SimStream::new(net, Staged::new(2, 2), mcfg, 3.0, seed ^ 1)
            }
        };
        (build(), build())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        /// Per-stage drift replay against replaying every link before each
        /// epoch: uniform and focused epochs, with and without mid-sweep
        /// pruning (at random instances) and an anytime stop (at random
        /// looks, keeping random pairs), with faults and a deployed-style
        /// instance forced dark at a random epoch. Every epoch's deltas and
        /// round trips match bit for bit, every link the epoch attempted
        /// reads current, and after `advance_all` every link's truth does.
        #[test]
        fn per_stage_drift_replay_measures_like_replaying_every_link_first(
            setup in (5usize..10, 0u8..2, 0u64..6, 0u64..500),
            epochs in proptest::collection::vec((0u8..4, 2u32..10, 0usize..14, 0u32..5), 1..7),
        ) {
            use cloudia_measure::{FocusedScheme, ProbePlan};
            let (n, faulty, dark_at, seed) = setup;
            let (mut lazy, mut eager) = lazy_and_eager(n, faulty == 1, seed);
            let all: Vec<u32> = (0..n as u32).collect();
            let mut plan = ProbePlan::new(n);
            plan.add_clique(&[0, 1, 3]);
            plan.add_pair(2, n as u32 - 1);
            let focused = FocusedScheme::new(plan, 3, 2);
            for (e, (kind, prune_from, stop_at, keep)) in epochs.into_iter().enumerate() {
                if faulty == 1 && e as u64 == dark_at {
                    lazy.force_instance_dark(1, 1e6);
                    eager.force_instance_dark(1, 1e6);
                }
                let prune = PruneFrom(prune_from);
                let stop = || StopAt { at: stop_at, looks: Default::default(), keep };
                let scheme = (kind == 3).then_some(&focused as &dyn Scheme);
                let rule = (kind >= 1).then_some(&prune as &dyn PruneRule);
                let (lazy_stop, eager_stop) = (stop(), stop());
                let stops = (kind >= 2).then_some((&lazy_stop, &eager_stop));
                let m = lazy.epoch(scheme, rule, stops.map(|s| s.0 as &dyn StopRule));
                eager.drifting.step(eager.epoch_hours);
                eager.drifting.advance_all();
                let want = eager.measure(scheme, rule, stops.map(|s| s.1 as &dyn StopRule));
                let bits = |m: &EpochMeasurement| {
                    let deltas = m.deltas.iter().map(|d| {
                        (d.src, d.dst, d.mean.to_bits(), d.count, d.attempts, d.timeouts)
                    });
                    (m.round_trips, m.saved_round_trips, deltas.collect::<Vec<_>>())
                };
                proptest::prop_assert_eq!(bits(&m), bits(&want), "epoch {}", e);
                for d in &m.deltas {
                    let pair = [d.src, d.dst];
                    proptest::prop_assert_eq!(
                        truth_bits(lazy.network(), &pair),
                        truth_bits(eager.network(), &pair),
                        "epoch {} left ({}, {}) behind", e, d.src, d.dst
                    );
                }
            }
            lazy.drifting.advance_all();
            proptest::prop_assert_eq!(truth_bits(lazy.network(), &all), truth_bits(eager.network(), &all));
        }
    }

    #[test]
    fn an_epoch_that_stops_early_leaves_the_pairs_it_dropped_unreplayed() {
        let (mut lazy, mut eager) = lazy_and_eager(12, false, 3);
        for e in 0..2 {
            let stop = StopAt { at: 2, looks: Default::default(), keep: 4 };
            let m = lazy.next_epoch_anytime(None, &PruneFrom(12), &stop);
            assert!(m.saved_round_trips > 0, "epoch {e}: the stop never fired");
            eager.next_epoch();
        }
        // The uniform twin replayed every link; the lazy stream only the
        // pairs its first stages and the kept pairs reached.
        let all: Vec<u32> = (0..12).collect();
        let (lazy_bits, eager_bits) =
            (truth_bits(lazy.network(), &all), truth_bits(eager.network(), &all));
        let lagging = lazy_bits.iter().zip(&eager_bits).filter(|(l, e)| l != e).count();
        assert!(lagging > 0 && lagging < lazy_bits.len(), "{lagging} links lag");
        assert_eq!(truth_bits(lazy.truth(&all), &all), eager_bits);
    }

    #[test]
    fn lossy_epochs_charge_timeouts_and_dark_instances_answer_nothing() {
        use cloudia_netsim::FaultParams;
        let mut stream = SimStream::with_faults(
            network(5, 9),
            Staged::new(4, 2),
            MeasureConfig::default(),
            2.0,
            7,
            FaultParams::drifting_loss(0.3),
            0xfa11,
        );
        let m = stream.next_epoch();
        assert!(m.deltas.iter().any(|d| d.timeouts > 0), "30% loss produced no timeouts");
        assert!(m.deltas.iter().all(|d| d.attempts >= d.count + d.timeouts));

        stream.force_instance_dark(0, 1e6);
        let m = stream.next_epoch();
        for d in m.deltas.iter().filter(|d| d.src == 0 || d.dst == 0) {
            assert_eq!(d.count, 0, "({}, {}) answered while dark", d.src, d.dst);
            assert!(d.attempts > 0, "({}, {}) was never attempted", d.src, d.dst);
        }
        // Spot loss probes see the darkness (and a healthy pair's health).
        let (ok, tries) = stream.spot_check_loss(1, 0, 8).unwrap();
        assert_eq!((ok, tries), (0, 8));
        let (ok, tries) = stream.spot_check_loss(1, 2, 8).unwrap();
        assert_eq!(tries, 8);
        assert!(ok > 0, "healthy pair lost all 8 probes at 30% loss");
    }
}

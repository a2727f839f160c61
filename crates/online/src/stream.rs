//! Streaming measurement: epoch-by-epoch latency sampling with
//! cross-round accumulation.
//!
//! The batch pipeline measures once and forgets; the online advisor
//! instead consumes a [`MeasurementStream`]: every epoch it runs a
//! (budget-limited) measurement round *into* the cumulative
//! [`PairwiseStats`] ([`cloudia_measure::run_with_rules`]) and forwards
//! the per-epoch deltas the sweep journaled as it recorded — the mean of
//! exactly the samples this epoch contributed per link. Beyond those
//! statistics a stream keeps no per-link state. The deltas feed the
//! EWMA/change-point store ([`crate::OnlineStore`]), the loop's
//! cross-round memory.
//!
//! Two implementations:
//!
//! * [`SimStream`] — owns a [`DriftingNetwork`] and advances it between
//!   epochs: the closed-loop simulation the control loop runs against;
//! * [`ReplayStream`] — walks a pre-recorded sequence of network
//!   snapshots, so competing policies (online vs batch vs never-migrate)
//!   can be compared on the *identical* drift trajectory and measurement
//!   randomness.

use rand::{rngs::StdRng, SeedableRng};

pub use cloudia_measure::LinkDelta;
use cloudia_measure::{
    probe_overhead_ms, run_with_rules, MeasureConfig, PairwiseStats, PruneRule, Scheme, StopRule,
    PROBE_SIZE_KB,
};
use cloudia_netsim::{DriftingNetwork, FaultParams, InstanceId, Network};

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
    /// some links are current: the links the last epoch's scheme could
    /// probe (every link after a full sweep), the links spot-checked
    /// since, and every link among the instances last asked for through
    /// [`MeasurementStream::truth`]. Any other link reads as of the last
    /// time one of those brought it up to date.
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

/// What both streams measure with: the scheme, the cumulative statistics,
/// the epoch counter and the spot-check RNG.
#[derive(Debug)]
struct Prober<S> {
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

impl<S: Scheme> Prober<S> {
    fn new(n: usize, scheme: S, config: MeasureConfig, spot_seed: u64) -> Self {
        let spot_rng = StdRng::seed_from_u64(config.seed ^ spot_seed ^ 0x5b07_c4ec);
        Self { scheme, config, cumulative: PairwiseStats::new(n), epoch: 0, spot_rng }
    }

    /// Runs the next epoch's measurement round over `net` into the
    /// cumulative statistics on the stage-streaming driver — with `scheme`
    /// in place of the prober's own when given, and `rule` and `stop`
    /// (when given) evaluated between stages — and forwards the round's
    /// per-link deltas.
    fn measure(
        &mut self,
        net: &Network,
        scheme: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
        at_hours: f64,
    ) -> EpochMeasurement {
        let epoch = self.epoch;
        self.epoch += 1;
        // Per-epoch probe randomness: decorrelate epochs without touching
        // the caller's base seed.
        let mut epoch_cfg = self.config.clone();
        epoch_cfg.seed = self.config.seed ^ (epoch + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let taken = std::mem::replace(&mut self.cumulative, PairwiseStats::new(0));
        let scheme = scheme.unwrap_or(&self.scheme);
        let swept = run_with_rules(scheme, net, &epoch_cfg, taken, rule, stop);
        self.cumulative = swept.report.stats;
        EpochMeasurement {
            epoch,
            at_hours,
            elapsed_ms: swept.report.elapsed_ms,
            round_trips: swept.report.round_trips,
            deltas: swept.deltas,
            pruned_pairs: swept.dropped_pairs,
            saved_round_trips: swept.saved_round_trips,
        }
    }

    /// [`MeasurementStream::spot_check`] against `net`: the mean of
    /// `probes` fresh single-link RTT samples plus the constant
    /// endpoint-handling overhead schemes add.
    fn spot_check(&mut self, net: &Network, src: u32, dst: u32, probes: usize) -> Option<f64> {
        if probes == 0 {
            return None;
        }
        let (src, dst, rng) = (InstanceId(src), InstanceId(dst), &mut self.spot_rng);
        let sum: f64 =
            (0..probes).map(|_| net.sample_rtt_sized(src, dst, PROBE_SIZE_KB, rng)).sum();
        Some(sum / probes as f64 + probe_overhead_ms())
    }

    /// [`MeasurementStream::spot_check_loss`] against `net`'s loss plane:
    /// an exchange succeeds when neither the probe (`src → dst`) nor the
    /// reply (`dst → src`) is dropped; the loss RNG is only consulted on
    /// links with nonzero drop probability, mirroring the engine's draw
    /// discipline.
    fn spot_check_loss(
        &mut self,
        net: &Network,
        src: u32,
        dst: u32,
        probes: usize,
    ) -> Option<(u64, u64)> {
        use rand::Rng;
        if probes == 0 {
            return None;
        }
        let (src, dst) = (InstanceId(src), InstanceId(dst));
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

/// A closed-loop stream: drifts a simulated network between epochs and
/// measures the drifted state.
#[derive(Debug)]
pub struct SimStream<S: Scheme> {
    drifting: DriftingNetwork,
    /// Hours of drift applied before each epoch's measurement.
    epoch_hours: f64,
    probe: Prober<S>,
}

impl<S: Scheme> SimStream<S> {
    /// Wraps a network in a drift process and measures it with `scheme`
    /// every `epoch_hours` of simulated time.
    pub fn new(
        net: Network,
        scheme: S,
        config: MeasureConfig,
        epoch_hours: f64,
        drift_seed: u64,
    ) -> Self {
        assert!(epoch_hours > 0.0, "epoch_hours must be positive");
        let probe = Prober::new(net.len(), scheme, config, drift_seed);
        Self { drifting: DriftingNetwork::new(net, drift_seed), epoch_hours, probe }
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
}

impl<S: Scheme> MeasurementStream for SimStream<S> {
    fn len(&self) -> usize {
        self.probe.cumulative.len()
    }

    fn network(&self) -> &Network {
        self.drifting.network()
    }

    fn cumulative(&self) -> &PairwiseStats {
        &self.probe.cumulative
    }

    /// Advances the drift, brings the links the epoch's scheme can probe
    /// up to date (pruning only drops pairs from that set), then measures
    /// the drifted state.
    fn epoch(
        &mut self,
        external: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement {
        self.drifting.step(self.epoch_hours);
        match external.unwrap_or(&self.probe.scheme).probed_links() {
            Some(links) => self.drifting.advance(links),
            None => self.drifting.advance_all(),
        }
        let at_hours = self.drifting.hours();
        self.probe.measure(self.drifting.network(), external, rule, stop, at_hours)
    }

    fn truth(&mut self, instances: &[u32]) -> &Network {
        self.drifting.advance_instances(instances);
        self.drifting.network()
    }

    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        self.drifting.advance([(src, dst)]);
        self.probe.spot_check(self.drifting.network(), src, dst, probes)
    }

    /// Brings both directions up to date: the reply crosses `dst → src`.
    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        self.drifting.advance([(src, dst), (dst, src)]);
        self.probe.spot_check_loss(self.drifting.network(), src, dst, probes)
    }
}

/// Records `epochs` snapshots of a drifting network — the shared
/// trajectory every arm of a policy comparison replays.
pub fn record_trajectory(
    net: Network,
    drift_seed: u64,
    epoch_hours: f64,
    epochs: usize,
) -> Vec<Network> {
    record_trajectory_with(DriftingNetwork::new(net, drift_seed), epoch_hours, epochs, |_, _| {})
}

/// Records `epochs` snapshots of a caller-built [`DriftingNetwork`]
/// (typically one carrying a fault process), invoking `on_epoch` before
/// each step — the hook a scenario uses to script fault injection (e.g.
/// [`DriftingNetwork::force_instance_dark`] at a known epoch). Snapshots
/// carry the loss plane, so a [`ReplayStream`] over them replays losses
/// and latencies alike.
pub fn record_trajectory_with(
    mut drifting: DriftingNetwork,
    epoch_hours: f64,
    epochs: usize,
    mut on_epoch: impl FnMut(usize, &mut DriftingNetwork),
) -> Vec<Network> {
    (0..epochs)
        .map(|e| {
            on_epoch(e, &mut drifting);
            drifting.step(epoch_hours);
            drifting.advance_all();
            drifting.network().clone()
        })
        .collect()
}

/// A replayed stream over pre-recorded network snapshots: every arm of a
/// policy comparison sees the identical trajectory and (seeded) probe
/// randomness.
#[derive(Debug)]
pub struct ReplayStream<S: Scheme> {
    snapshots: Vec<Network>,
    epoch_hours: f64,
    probe: Prober<S>,
}

impl<S: Scheme> ReplayStream<S> {
    /// Builds a stream replaying `snapshots` (one per epoch, in order).
    ///
    /// # Panics
    /// Panics if `snapshots` is empty.
    pub fn new(
        snapshots: Vec<Network>,
        scheme: S,
        config: MeasureConfig,
        epoch_hours: f64,
    ) -> Self {
        assert!(!snapshots.is_empty(), "replay needs at least one snapshot");
        let probe = Prober::new(snapshots[0].len(), scheme, config, 0);
        Self { snapshots, epoch_hours, probe }
    }

    /// Total epochs available.
    pub fn epochs(&self) -> usize {
        self.snapshots.len()
    }

    /// True if every snapshot has been consumed.
    pub fn exhausted(&self) -> bool {
        self.probe.epoch as usize >= self.snapshots.len()
    }

    /// Index of the snapshot the last epoch measured (the first before
    /// any).
    fn last(&self) -> usize {
        (self.probe.epoch as usize).min(self.snapshots.len()).saturating_sub(1)
    }
}

impl<S: Scheme> MeasurementStream for ReplayStream<S> {
    fn len(&self) -> usize {
        self.probe.cumulative.len()
    }

    fn network(&self) -> &Network {
        &self.snapshots[self.last()]
    }

    fn cumulative(&self) -> &PairwiseStats {
        &self.probe.cumulative
    }

    /// Consumes the next snapshot and measures it.
    fn epoch(
        &mut self,
        external: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement {
        assert!(!self.exhausted(), "replay stream exhausted after {} epochs", self.epochs());
        let epoch = self.probe.epoch as usize;
        let at_hours = (epoch + 1) as f64 * self.epoch_hours;
        self.probe.measure(&self.snapshots[epoch], external, rule, stop, at_hours)
    }

    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        let last = self.last();
        self.probe.spot_check(&self.snapshots[last], src, dst, probes)
    }

    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        let last = self.last();
        self.probe.spot_check_loss(&self.snapshots[last], src, dst, probes)
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

    /// The full walk the journal replaced: difference every link of
    /// `after` against a snapshot of `before`, in row-major order.
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
    fn journaled_deltas_equal_the_full_walk() {
        use cloudia_netsim::FaultParams;
        let mcfg = MeasureConfig::default();
        let mut sim = SimStream::new(network(10, 4), Staged::new(2, 2), mcfg.clone(), 2.0, 7);
        check_against_the_full_walk(&mut sim);
        let mut lossy = SimStream::with_faults(
            network(10, 5),
            Staged::new(3, 2),
            mcfg.clone(),
            2.0,
            7,
            FaultParams::drifting_loss(0.2),
            0xfa11,
        );
        lossy.force_instance_dark(3, 1e6);
        check_against_the_full_walk(&mut lossy);
        let snapshots = record_trajectory(network(10, 6), 11, 4.0, 9);
        let mut replay = ReplayStream::new(snapshots, Staged::new(2, 2), mcfg, 4.0);
        check_against_the_full_walk(&mut replay);
    }

    #[test]
    fn long_horizons_keep_epoch_means_exact() {
        // 10^5 six-sample epochs on one fixed network: however long the
        // links' histories grow, an epoch's means are its own samples',
        // as a rerun of the same epoch into fresh statistics measures them.
        let net = network(2, 3);
        let prober = || Prober::new(2, Staged::new(3, 2), MeasureConfig::default(), 0);
        let mut long = prober();
        let epochs = 100_000;
        for epoch in 0..epochs {
            let m = long.measure(&net, None, None, None, 0.0);
            if epoch < epochs - 10 {
                continue;
            }
            let rerun = Prober { epoch, ..prober() }.measure(&net, None, None, None, 0.0);
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
        let net = stream.network();
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

    #[test]
    fn replay_streams_are_identical_across_arms() {
        let snapshots = record_trajectory(network(5, 3), 11, 4.0, 3);
        let run = || {
            let mut s = ReplayStream::new(
                snapshots.clone(),
                Staged::new(2, 2),
                MeasureConfig::default(),
                4.0,
            );
            let mut means = Vec::new();
            while !s.exhausted() {
                let m = s.next_epoch();
                means.extend(m.deltas.iter().map(|d| d.mean));
            }
            means
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn spot_checks_return_fresh_means_near_truth() {
        let mut stream =
            SimStream::new(network(5, 8), Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);
        stream.next_epoch();
        let truth = stream.network().mean_rtt(InstanceId(0), InstanceId(1));
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
    /// every link right after every step, and it never asks the stream to
    /// bring a link up to date.
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
                let at_hours = sim.drifting.hours();
                sim.probe.measure(sim.drifting.network(), scheme, rule, stop, at_hours)
            } else {
                self.sim.epoch(scheme, rule, stop)
            };
            self.deltas.push(m.deltas.clone());
            m
        }

        fn truth(&mut self, instances: &[u32]) -> &Network {
            if self.eager {
                self.sim.network()
            } else {
                self.sim.truth(instances)
            }
        }

        fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
            self.spot_checks += 1;
            if self.eager {
                self.sim.probe.spot_check(self.sim.drifting.network(), src, dst, probes)
            } else {
                self.sim.spot_check(src, dst, probes)
            }
        }

        fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
            self.spot_checks += 1;
            if self.eager {
                self.sim.probe.spot_check_loss(self.sim.drifting.network(), src, dst, probes)
            } else {
                self.sim.spot_check_loss(src, dst, probes)
            }
        }
    }

    #[test]
    fn lazy_drift_runs_the_focused_loop_exactly_like_eager_drift() {
        // A focused, loss-aware advisor over fast drift: bootstrap and
        // periodic refresh sweeps, focused epochs, spot checks, and a
        // deployed instance forced dark mid-run. Whatever links the lazy
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
                probe_policy: ProbePolicy::Focused { max_flagged: 8, refresh_every: 6 },
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
        assert!(*full >= 2, "no refresh sweep after the bootstrap ({full} full epochs)");
        assert!(*full < 18, "no focused epoch");
        assert!(*spot_checks > 0, "no spot check ran");
        assert!(events.iter().any(|e| e.starts_with("LinkDark")), "the blackout went unseen");
        assert_eq!(lazy.1, eager.1, "spot checks");
        assert_eq!(lazy.2, eager.2, "epoch summaries");
        assert_eq!(lazy.3, eager.3, "event logs");
        assert_eq!(lazy.4, eager.4, "epoch deltas");
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

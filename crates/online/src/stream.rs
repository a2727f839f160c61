//! Streaming measurement: epoch-by-epoch latency sampling with
//! cross-round accumulation.
//!
//! The batch pipeline measures once and forgets; the online advisor
//! instead consumes a [`MeasurementStream`]: every epoch it runs a
//! (budget-limited) measurement round *into* the cumulative
//! [`PairwiseStats`] via the incremental [`Scheme::run_onto`] API, and
//! reports the per-epoch deltas — the mean of exactly the samples this
//! epoch contributed per link. The deltas feed the EWMA/change-point
//! store ([`crate::OnlineStore`]), the loop's cross-round memory.
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

use cloudia_measure::{run_with_rules, MeasureConfig, PairwiseStats, PruneRule, Scheme, StopRule};
use cloudia_netsim::{DriftingNetwork, FaultParams, InstanceId, Network};

/// One link's contribution from a single epoch: the mean of the samples
/// recorded this epoch only.
#[derive(Debug, Clone, Copy)]
pub struct LinkDelta {
    /// Source instance index.
    pub src: u32,
    /// Destination instance index.
    pub dst: u32,
    /// Mean RTT over this epoch's samples (ms). Meaningless (0) when
    /// `count` is 0 — a delta whose every probe timed out still gets
    /// emitted so the loss triage sees the attempts; latency consumers
    /// must check `count > 0` first.
    pub mean: f64,
    /// Number of samples this epoch contributed.
    pub count: u64,
    /// Probes issued on this link this epoch (successes + timeouts).
    pub attempts: u64,
    /// Probes that timed out on this link this epoch.
    pub timeouts: u64,
}

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
    fn network(&self) -> &Network;

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

/// One link's cumulative `(sum, count, attempts, timeouts)` — the sum as
/// `mean · count` — in the ledger a stream keeps of where each link stood
/// at the end of its last epoch.
type LinkTotals = (f64, u64, u64, u64);

/// Runs one incremental measurement round and extracts the per-epoch
/// deltas by differencing the cumulative statistics against `ledger`, the
/// per-link totals the previous epoch left behind (all zero before the
/// first). The round runs on the stage-streaming driver, with `rule` and
/// `stop` (when given) evaluated between stages.
///
/// Only the links the round touched are differenced and re-ledgered: the
/// statistics' touch log names them
/// ([`PairwiseStats::touched_since`]), sorted and deduplicated so the
/// deltas keep their row-major order. When the log cannot answer — the
/// round touched more links than it keeps, as a bootstrap, refresh,
/// anytime or lossy sweep does — every link is walked instead, with the
/// same deltas.
#[allow(clippy::too_many_arguments)]
fn measure_epoch<S: Scheme + ?Sized>(
    net: &Network,
    scheme: &S,
    rule: Option<&dyn PruneRule>,
    stop: Option<&dyn StopRule>,
    cfg: &MeasureConfig,
    epoch: u64,
    at_hours: f64,
    cumulative: &mut PairwiseStats,
    ledger: &mut [LinkTotals],
) -> EpochMeasurement {
    let n = net.len();
    let cursor = cumulative.touch_cursor();

    // Per-epoch probe randomness: decorrelate epochs without touching the
    // caller's base seed.
    let mut epoch_cfg = cfg.clone();
    epoch_cfg.seed = cfg.seed ^ (epoch + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let taken = std::mem::replace(cumulative, PairwiseStats::new(0));
    let swept = run_with_rules(scheme, net, &epoch_cfg, taken, rule, stop);
    let report = swept.report;

    let stats = &report.stats;
    let deltas = match stats.touched_since(cursor) {
        Some(touched) => {
            let mut links: Vec<usize> = touched.collect();
            links.sort_unstable();
            links.dedup();
            links.into_iter().filter_map(|idx| link_delta(stats, ledger, idx)).collect()
        }
        None => (0..n * n)
            .filter(|idx| idx / n != idx % n)
            .filter_map(|idx| link_delta(stats, ledger, idx))
            .collect(),
    };
    *cumulative = report.stats;
    EpochMeasurement {
        epoch,
        at_hours,
        elapsed_ms: report.elapsed_ms,
        round_trips: report.round_trips,
        deltas,
        pruned_pairs: swept.dropped_pairs,
        saved_round_trips: swept.saved_round_trips,
    }
}

/// Moves link `idx`'s ledger entry up to `stats` and returns what the
/// epoch added to it, or `None` when the link was not touched. A delta is
/// emitted whenever the link was touched: samples update the latency
/// EWMAs, attempts/timeouts feed the loss triage. A fully-dark link
/// (attempts, zero samples) must not vanish from the epoch, or darkness
/// would be indistinguishable from "not scheduled".
fn link_delta(stats: &PairwiseStats, ledger: &mut [LinkTotals], idx: usize) -> Option<LinkDelta> {
    let n = stats.len();
    let link = stats.link(idx / n, idx % n);
    let now = (link.mean() * link.count() as f64, link.count(), link.attempts(), link.timeouts());
    let (sum0, count0, attempts0, timeouts0) = std::mem::replace(&mut ledger[idx], now);
    let (dcount, dattempts) = (now.1 - count0, now.2 - attempts0);
    (dcount > 0 || dattempts > 0).then(|| LinkDelta {
        src: (idx / n) as u32,
        dst: (idx % n) as u32,
        mean: if dcount > 0 { (now.0 - sum0) / dcount as f64 } else { 0.0 },
        count: dcount,
        attempts: dattempts,
        timeouts: now.3 - timeouts0,
    })
}

/// Mean of `probes` fresh single-link RTT samples plus the constant
/// endpoint-handling overhead schemes add — shared by both streams'
/// [`MeasurementStream::spot_check`] implementations.
fn spot_mean(probes: usize, cfg: &MeasureConfig, mut draw: impl FnMut() -> f64) -> Option<f64> {
    if probes == 0 {
        return None;
    }
    let overhead = 4.0 * (cfg.nic.handle_ms + cfg.nic.serialize_ms_per_kb * cfg.probe_size_kb);
    let sum: f64 = (0..probes).map(|_| draw()).sum();
    Some(sum / probes as f64 + overhead)
}

/// `(successes, attempts)` of `probes` single-probe exchanges on
/// `src → dst` under `net`'s loss plane — shared by both streams'
/// [`MeasurementStream::spot_check_loss`] implementations. An exchange
/// succeeds when neither the probe (`src → dst`) nor the reply
/// (`dst → src`) is dropped; the loss RNG is only consulted on links
/// with nonzero drop probability, mirroring the engine's draw
/// discipline.
fn spot_loss(
    probes: usize,
    net: &Network,
    src: u32,
    dst: u32,
    rng: &mut StdRng,
) -> Option<(u64, u64)> {
    use rand::Rng;
    if probes == 0 {
        return None;
    }
    let (src, dst) = (InstanceId(src), InstanceId(dst));
    let (fwd, rev) = (net.drop_prob(src, dst), net.drop_prob(dst, src));
    let mut successes = 0u64;
    for _ in 0..probes {
        let probe_lost = fwd > 0.0 && rng.random::<f64>() < fwd;
        let reply_lost = !probe_lost && rev > 0.0 && rng.random::<f64>() < rev;
        if !probe_lost && !reply_lost {
            successes += 1;
        }
    }
    Some((successes, probes as u64))
}

/// A closed-loop stream: drifts a simulated network between epochs and
/// measures the drifted state.
#[derive(Debug)]
pub struct SimStream<S: Scheme> {
    drifting: DriftingNetwork,
    scheme: S,
    config: MeasureConfig,
    /// Hours of drift applied before each epoch's measurement.
    epoch_hours: f64,
    cumulative: PairwiseStats,
    /// Every link's totals as the last epoch left them.
    ledger: Vec<LinkTotals>,
    epoch: u64,
    /// RNG of the spot-check probes. Deliberately separate from the
    /// drifting network's own RNG: spot checks must not perturb the
    /// drift trajectory, or arms with and without spot checking would
    /// diverge onto different ground truths.
    spot_rng: StdRng,
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
        let n = net.len();
        let spot_rng = StdRng::seed_from_u64(config.seed ^ drift_seed ^ 0x5b07_c4ec);
        Self {
            drifting: DriftingNetwork::new(net, drift_seed),
            scheme,
            config,
            epoch_hours,
            cumulative: PairwiseStats::new(n),
            ledger: vec![(0.0, 0, 0, 0); n * n],
            epoch: 0,
            spot_rng,
        }
    }

    /// Like [`SimStream::new`], but the drifting network also carries a
    /// fault process: per-link loss drifting around `faults.base_loss`,
    /// plus whatever blackout/dark-instance rates the params specify.
    /// The fault schedule runs on its own RNG (`fault_seed`), so two
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
        self.cumulative.len()
    }

    fn network(&self) -> &Network {
        self.drifting.network()
    }

    fn cumulative(&self) -> &PairwiseStats {
        &self.cumulative
    }

    /// Advances the drift, then measures the drifted state.
    fn epoch(
        &mut self,
        external: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement {
        self.drifting.step(self.epoch_hours);
        let epoch = self.epoch;
        self.epoch += 1;
        let at_hours = self.drifting.hours();
        // Borrow dance: measure against a clone-free reference by
        // splitting the struct fields.
        let Self { drifting, scheme, config, cumulative, ledger, .. } = self;
        let chosen: &dyn Scheme = external.unwrap_or(scheme);
        let net = drifting.network();
        measure_epoch(net, chosen, rule, stop, config, epoch, at_hours, cumulative, ledger)
    }

    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        let Self { drifting, config, spot_rng, .. } = self;
        let net = drifting.network();
        spot_mean(probes, config, || {
            net.sample_rtt_sized(InstanceId(src), InstanceId(dst), config.probe_size_kb, spot_rng)
        })
    }

    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        let Self { drifting, spot_rng, .. } = self;
        spot_loss(probes, drifting.network(), src, dst, spot_rng)
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
    let mut drifting = DriftingNetwork::new(net, drift_seed);
    (0..epochs).map(|_| drifting.step(epoch_hours).clone()).collect()
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
            drifting.step(epoch_hours).clone()
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
    scheme: S,
    config: MeasureConfig,
    cumulative: PairwiseStats,
    /// Every link's totals as the last epoch left them.
    ledger: Vec<LinkTotals>,
    epoch: u64,
    /// RNG of the spot-check probes (separate stream so spot checks never
    /// perturb the recorded measurement randomness).
    spot_rng: StdRng,
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
        let n = snapshots[0].len();
        let spot_rng = StdRng::seed_from_u64(config.seed ^ 0x5b07_c4ec);
        Self {
            snapshots,
            epoch_hours,
            scheme,
            config,
            cumulative: PairwiseStats::new(n),
            ledger: vec![(0.0, 0, 0, 0); n * n],
            epoch: 0,
            spot_rng,
        }
    }

    /// Total epochs available.
    pub fn epochs(&self) -> usize {
        self.snapshots.len()
    }

    /// True if every snapshot has been consumed.
    pub fn exhausted(&self) -> bool {
        self.epoch as usize >= self.snapshots.len()
    }
}

impl<S: Scheme> MeasurementStream for ReplayStream<S> {
    fn len(&self) -> usize {
        self.cumulative.len()
    }

    fn network(&self) -> &Network {
        let last = (self.epoch as usize).min(self.snapshots.len()).saturating_sub(1);
        &self.snapshots[last]
    }

    fn cumulative(&self) -> &PairwiseStats {
        &self.cumulative
    }

    /// Consumes the next snapshot and measures it.
    fn epoch(
        &mut self,
        external: Option<&dyn Scheme>,
        rule: Option<&dyn PruneRule>,
        stop: Option<&dyn StopRule>,
    ) -> EpochMeasurement {
        assert!(!self.exhausted(), "replay stream exhausted after {} epochs", self.epochs());
        let epoch = self.epoch;
        self.epoch += 1;
        let at_hours = self.epoch as f64 * self.epoch_hours;
        let Self { snapshots, scheme, config, cumulative, ledger, .. } = self;
        let chosen: &dyn Scheme = external.unwrap_or(scheme);
        let net = &snapshots[epoch as usize];
        measure_epoch(net, chosen, rule, stop, config, epoch, at_hours, cumulative, ledger)
    }

    fn spot_check(&mut self, src: u32, dst: u32, probes: usize) -> Option<f64> {
        let last = (self.epoch as usize).min(self.snapshots.len()).saturating_sub(1);
        let Self { snapshots, config, spot_rng, .. } = self;
        let net = &snapshots[last];
        spot_mean(probes, config, || {
            net.sample_rtt_sized(InstanceId(src), InstanceId(dst), config.probe_size_kb, spot_rng)
        })
    }

    fn spot_check_loss(&mut self, src: u32, dst: u32, probes: usize) -> Option<(u64, u64)> {
        let last = (self.epoch as usize).min(self.snapshots.len()).saturating_sub(1);
        let Self { snapshots, spot_rng, .. } = self;
        spot_loss(probes, &snapshots[last], src, dst, spot_rng)
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

    /// The full walk the ledger replaced: difference every link of `after`
    /// against a snapshot of `before`.
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

    fn delta_bits(deltas: &[LinkDelta]) -> Vec<(u32, u32, u64, u64, u64, u64)> {
        deltas
            .iter()
            .map(|d| (d.src, d.dst, d.mean.to_bits(), d.count, d.attempts, d.timeouts))
            .collect()
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

    /// Runs `epochs` on `stream` (bootstrap sweep, focused plans, pruned
    /// and anytime sweeps), checking each against the full walk, and
    /// returns how many epochs the touch log answered and how many
    /// overran it.
    fn check_against_the_full_walk<M: MeasurementStream>(stream: &mut M) -> (usize, usize) {
        use cloudia_measure::{FocusedScheme, ProbePlan};
        let n = stream.len() as u32;
        let (mut sparse, mut overrun) = (0, 0);
        for e in 0..8 {
            let mut plan = ProbePlan::new(n as usize);
            plan.add_clique(&[0, 2, 5]);
            plan.add_pair(e % n, (e + 3) % n);
            let focused = FocusedScheme::new(plan, 2, 2);
            let before = stream.cumulative().clone();
            let cursor = stream.cumulative().touch_cursor();
            let m = match e {
                0 | 5 => stream.next_epoch(),
                1 | 3 | 7 => stream.next_epoch_with(&focused),
                2 => stream.next_epoch_pruned(Some(&focused), &PruneFrom(4)),
                4 => stream.next_epoch_pruned(None, &PruneFrom(6)),
                _ => stream.next_epoch_anytime(None, &PruneFrom(9), &StopAtOnce(5)),
            };
            let answered = stream.cumulative().touched_since(cursor).is_some();
            *if answered { &mut sparse } else { &mut overrun } += 1;
            let oracle = full_walk_deltas(&before, stream.cumulative());
            assert_eq!(delta_bits(&m.deltas), delta_bits(&oracle), "epoch {e}");
        }
        (sparse, overrun)
    }

    #[test]
    fn ledger_deltas_equal_the_full_walk_bit_for_bit() {
        use cloudia_netsim::FaultParams;
        let mcfg = MeasureConfig::default();
        let mut sim = SimStream::new(network(10, 4), Staged::new(2, 2), mcfg.clone(), 2.0, 7);
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
        let snapshots = record_trajectory(network(10, 6), 11, 4.0, 8);
        let mut replay = ReplayStream::new(snapshots, Staged::new(2, 2), mcfg, 4.0);
        for (name, (sparse, overrun)) in [
            ("sim", check_against_the_full_walk(&mut sim)),
            ("lossy", check_against_the_full_walk(&mut lossy)),
            ("replay", check_against_the_full_walk(&mut replay)),
        ] {
            assert!(sparse > 0 && overrun > 0, "{name}: {sparse} sparse, {overrun} overrun epochs");
        }
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
        use cloudia_netsim::NicParams;
        let mut stream =
            SimStream::new(network(5, 8), Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);
        stream.next_epoch();
        let truth = stream.network().mean_rtt(InstanceId(0), InstanceId(1));
        let nic = NicParams::default();
        let overhead = 4.0 * (nic.handle_ms + nic.serialize_ms_per_kb);
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

//! The measurement scheme interface and the stage protocol behind it
//! (paper §5's staged scheme).
//!
//! A scheme probes pairs of instances of a [`Network`] with small
//! TCP-like messages and records round-trip times into
//! [`PairwiseStats`]. Every scheme here runs coordinator-chosen stages of
//! endpoint-disjoint pairs, so no two probes of a stage contend for an
//! endpoint; the schemes differ only in which pairs they schedule (the
//! full tournament of [`crate::Staged`], or the explicit plan of
//! [`crate::FocusedScheme`]) and how deeply each pair is sampled.

use cloudia_netsim::dist::mix64;
use cloudia_netsim::{Network, NicParams};

use crate::driver::{DeltaSlots, StageDriver};
use crate::stats::PairwiseStats;

/// Probe payload size in KB (paper: 1 KB).
pub const PROBE_SIZE_KB: f64 = 1.0;

/// Milliseconds an endpoint is busy with one probe or reply message.
fn probe_busy_ms() -> f64 {
    let nic = NicParams::default();
    nic.handle_ms + nic.serialize_ms_per_kb * PROBE_SIZE_KB
}

/// The fixed endpoint overhead one probe round trip adds to the network's
/// RTT, `4·(handle + serialize·size)`: two endpoints busy per message.
pub fn probe_overhead_ms() -> f64 {
    4.0 * probe_busy_ms()
}

/// Configuration shared by all measurement schemes.
#[derive(Debug, Clone)]
pub struct MeasureConfig {
    /// RNG seed (probe jitter and loss draws).
    pub seed: u64,
    /// Ignored: every stage is simulated serially on the calling thread
    /// (README *Scale* has the race that decided it). Kept only because
    /// `loopbench` sets it; goes when a benchmark PR stops doing so.
    pub stage_workers: usize,
    /// If set, stop issuing new probes after this much simulated time.
    /// The contract (shared by every scheme, pinned by proptest): no
    /// probe is *issued* at or after the deadline; probes already in
    /// flight complete and are recorded.
    pub max_duration_ms: Option<f64>,
    /// Sender timeout (ms) after which a lost probe or reply is
    /// discovered and a retransmit may be issued.
    pub timeout_ms: f64,
    /// Retransmit budget per scheduled pair and stage: after this many
    /// timeouts the pair's remaining quota is forfeited and its coverage
    /// recorded as attempted. On a lossless network the budget is never
    /// consulted, so loss-awareness is free when the network is clean.
    pub retries_per_pair: u32,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            max_duration_ms: None,
            timeout_ms: cloudia_netsim::DEFAULT_TIMEOUT_MS,
            retries_per_pair: 3,
            stage_workers: 0,
        }
    }
}

/// The result of one measurement run.
#[derive(Debug, Clone)]
pub struct MeasurementReport {
    /// Per-link online summaries.
    pub stats: PairwiseStats,
    /// Total simulated time the measurement occupied (ms).
    pub elapsed_ms: f64,
    /// Number of completed round-trip observations.
    pub round_trips: u64,
}

impl MeasurementReport {
    /// Flattened mean vector at the end of the run.
    pub fn mean_vector(&self) -> Vec<f64> {
        self.stats.mean_vector()
    }
}

/// A pairwise latency measurement scheme.
pub trait Scheme {
    /// Short identifier ("staged", "focused"), as the `sweep.run` span
    /// reports it.
    fn name(&self) -> &'static str;

    /// Builds a resumable stage-granular driver of this scheme, recording
    /// into the given (possibly pre-accumulated) statistics, which are
    /// sized for the network its steps measure — the streaming entry
    /// point (see [`StageDriver`]). Driving a fresh driver to exhaustion
    /// is bit-identical to [`Scheme::run_onto`].
    ///
    /// # Panics
    /// Panics if the scheme cannot measure `stats`' instance count.
    fn driver(&self, cfg: &MeasureConfig, stats: PairwiseStats) -> StageDriver;

    /// Runs the scheme over `net` from empty statistics and returns the
    /// collected estimates.
    fn run(&self, net: &Network, cfg: &MeasureConfig) -> MeasurementReport {
        self.run_onto(net, cfg, PairwiseStats::new(net.len()))
    }

    /// Incremental entry point: runs the scheme over `net` and records new
    /// samples *into* pre-accumulated statistics, so repeated measurement
    /// rounds build per-link history instead of starting from scratch
    /// (the online advisor's streaming measurement path). The returned
    /// report's `round_trips`/`elapsed_ms` cover this run only; its `stats`
    /// carry the full accumulated history.
    ///
    /// This is a thin drive-to-completion wrapper over [`Scheme::driver`].
    ///
    /// # Panics
    /// Panics if `stats` was sized for a different instance count.
    fn run_onto(
        &self,
        net: &Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
    ) -> MeasurementReport {
        let mut driver = self.driver(cfg, stats);
        while driver.step(net) {}
        driver.finish()
    }
}

/// Derives one scheduled pair's RNG substream seed from its schedule
/// identity `(run seed, sweep, stage, src, dst)` — the SplitMix64
/// finalizer ([`mix64`]) folded over the components.
///
/// Keying on identity instead of drawing sequentially from a master
/// stream means a pair's seed does not depend on which *other* pairs the
/// stage still holds: mid-sweep pruning and dark-pair strikes leave a
/// surviving pair's measured timeline untouched (common random numbers
/// across pruned and unpruned arms — cost differentials measure the
/// probes actually forgone, not a noise re-roll).
/// The property suite pins the derivation via a transcribed copy.
pub(crate) fn substream_seed(seed: u64, sweep: usize, stage: usize, src: usize, dst: usize) -> u64 {
    let mut z = mix64(seed);
    for v in [sweep as u64, stage as u64, src as u64, dst as u64] {
        z = mix64(z ^ v);
    }
    z
}

/// What one stage execution produced: completed round trips plus the
/// pairs that went dark (retry budget exhausted without a single
/// success this stage) — the driver drops those from later stages so
/// `remaining_pairs`/`planned_remaining` stay truthful under loss.
#[derive(Debug, Default)]
pub(crate) struct StageOutcome {
    /// Round trips completed this stage.
    pub(crate) round_trips: u64,
    /// Pair ids (indices into the stage's `pairs` slice) that exhausted
    /// their retry budget with zero successes.
    pub(crate) dark: Vec<usize>,
    /// Simulated time the stage finished (the latest pair's last event;
    /// `t0` if the stage issued nothing).
    pub(crate) end: f64,
    /// Messages sent / delivered / dropped across all pairs.
    pub(crate) sent: u64,
    pub(crate) delivered: u64,
    pub(crate) lost: u64,
}

/// One pair's probe ledger within a stage, simulated in isolation (see
/// [`simulate_pair`], which hands the round-trip times back separately).
#[derive(Debug, Default)]
pub(crate) struct PairOutcome {
    pub(crate) attempts: u64,
    pub(crate) timeouts: u64,
    sent: u64,
    delivered: u64,
    lost: u64,
    dark: bool,
    /// Simulated time of the pair's last event.
    end: f64,
}

/// Simulates one directed pair's whole stage timeline analytically.
///
/// Within a stage the pairs are endpoint-disjoint, so a pair's endpoints
/// are provably idle at each of its send moments and the discrete-event
/// engine's behaviour collapses to closed form: a message sent at `s`
/// either drops (the sender's timeout fires at `s + busy + timeout`) or
/// is delivered at `s + 2·busy + one_way` (serialize at the source,
/// propagate, handle at the destination). Each pair draws jitter and
/// fault decisions from its own seeded substreams, which is what makes
/// stage execution order irrelevant to the result.
///
/// Loss handling matches the engine protocol: every probe issuance is an
/// attempt; a lost probe or reply counts a timeout and triggers a
/// retransmit while the `cfg.retries_per_pair` budget lasts; a pair that
/// exhausts the budget without one success is dark. No probe (initial,
/// follow-up, or retransmit) is issued at or after the
/// `cfg.max_duration_ms` deadline.
///
/// `rtts` — the caller's reused buffer — is overwritten with the completed
/// round-trip times in completion order.
///
/// Always inlined into its one caller, the stage loop: left to the
/// inliner, the loop's skip of struck pairs tipped it out of line, which
/// cost ~10 % of a 5 %-loss m = 300 sweep.
#[inline(always)]
pub(crate) fn simulate_pair(
    net: &Network,
    cfg: &MeasureConfig,
    t0: f64,
    (src, dst): (usize, usize),
    k: usize,
    seed: u64,
    rtts: &mut Vec<f64>,
) -> PairOutcome {
    use cloudia_netsim::InstanceId;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    debug_assert!(k > 0, "every scheduled pair needs a positive quota");
    let (src_id, dst_id) = (InstanceId::from_index(src), InstanceId::from_index(dst));
    let limit = cfg.max_duration_ms.unwrap_or(f64::INFINITY);
    let busy = probe_busy_ms();
    let (drop_fwd, drop_rev) = (net.drop_prob(src_id, dst_id), net.drop_prob(dst_id, src_id));
    // The same latency/fault RNG split an `Engine` seeded with `seed`
    // would use — a pair's timeline here is bit-identical to running it
    // alone on a fresh engine (the property suite pins exactly that).
    let mut lat = StdRng::seed_from_u64(seed);
    let mut fault = StdRng::seed_from_u64(seed ^ 0x10_55_10_55_10_55_10_55);

    rtts.clear();
    let mut out = PairOutcome { end: t0, ..PairOutcome::default() };
    let mut remaining = k - 1;
    let mut budget = cfg.retries_per_pair;
    let mut successes = 0u64;
    let mut send = t0;
    out.attempts += 1;
    loop {
        // Probe leg. The fault RNG is only consulted on links with a
        // positive drop probability (zero-loss runs never touch it).
        out.sent += 1;
        if drop_fwd > 0.0 && fault.random::<f64>() < drop_fwd {
            out.lost += 1;
            out.timeouts += 1;
            out.end = send + busy + cfg.timeout_ms;
            if budget > 0 && out.end < limit {
                budget -= 1;
                out.attempts += 1;
                send = out.end;
                continue;
            }
            if budget == 0 && successes == 0 {
                out.dark = true;
            }
            break;
        }
        // Summed in the engine's exact association order (serialize,
        // propagate, then handle) so the timeline is bit-identical, not
        // merely equal to rounding: `send + 2·busy + ow` differs from
        // `((send + busy) + ow) + busy` in the last ULP.
        let probe_delivered = send
            + busy
            + net.model().sample_one_way(src_id, dst_id, PROBE_SIZE_KB, &mut lat)
            + busy;
        out.delivered += 1;
        // Reply leg, issued by the destination the moment the probe
        // lands.
        out.sent += 1;
        if drop_rev > 0.0 && fault.random::<f64>() < drop_rev {
            out.lost += 1;
            out.timeouts += 1;
            out.end = probe_delivered + busy + cfg.timeout_ms;
            if budget > 0 && out.end < limit {
                budget -= 1;
                out.attempts += 1;
                send = out.end;
                continue;
            }
            if budget == 0 && successes == 0 {
                out.dark = true;
            }
            break;
        }
        let reply_delivered = probe_delivered
            + busy
            + net.model().sample_one_way(dst_id, src_id, PROBE_SIZE_KB, &mut lat)
            + busy;
        out.delivered += 1;
        out.end = reply_delivered;
        rtts.push(reply_delivered - send);
        successes += 1;
        if remaining > 0 && reply_delivered < limit {
            remaining -= 1;
            out.attempts += 1;
            send = reply_delivered;
        } else {
            break;
        }
    }
    out
}

/// Executes one stage — `pairs` is the stage's endpoint-disjoint
/// `(a, b, round trips)` schedule at position `(sweep, stage)`, where a
/// quota of 0 marks a struck pair that is skipped — as one loop over its
/// pairs, in schedule order: probe `a → b` on even sweeps and
/// `b → a` on odd ones (so both directions of every link get measured),
/// derive the pair's RNG substream seed from its schedule identity
/// ([`substream_seed`]), simulate its whole timeline ([`simulate_pair`]:
/// one outstanding probe, a reply triggers the next until the quota is
/// done), and write the result into `stats` with one
/// [`PairwiseStats::record_link`], added into the link's delta slot when
/// the driver keeps them. Shared by the staged and focused
/// schemes — the stage protocol is identical, only the pair schedule (and
/// per-pair sampling depth) differs.
///
/// Keying the seed on identity rather than drawing from a shared stream
/// means a surviving pair's timeline is the same no matter which *other*
/// pairs a prune rule or dark strike removed from the stage — common
/// random numbers across pruned and unpruned arms.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_stage(
    net: &Network,
    cfg: &MeasureConfig,
    t0: f64,
    (sweep, stage): (usize, usize),
    pairs: &[(u32, u32, usize)],
    stats: &mut PairwiseStats,
    rtts: &mut Vec<f64>,
    mut deltas: Option<&mut DeltaSlots>,
) -> StageOutcome {
    let forward = sweep.is_multiple_of(2);
    let mut outcome = StageOutcome { end: t0, ..StageOutcome::default() };
    for (pid, &(a, b, k)) in pairs.iter().enumerate() {
        if k == 0 {
            continue;
        }
        let (src, dst) = if forward { (a as usize, b as usize) } else { (b as usize, a as usize) };
        let seed = substream_seed(cfg.seed, sweep, stage, src, dst);
        let o = simulate_pair(net, cfg, t0, (src, dst), k, seed, rtts);
        stats.record_link(src, dst, o.attempts, o.timeouts, rtts);
        if let Some(deltas) = deltas.as_deref_mut() {
            deltas.add((src, dst), rtts, o.attempts, o.timeouts);
        }
        outcome.round_trips += rtts.len() as u64;
        outcome.sent += o.sent;
        outcome.delivered += o.delivered;
        outcome.lost += o.lost;
        outcome.end = outcome.end.max(o.end);
        if o.dark {
            outcome.dark.push(pid);
        }
    }
    outcome
}

//! Stage-granular streaming execution of the stage schedules.
//!
//! Every [`Scheme`] ([`crate::Staged`], [`crate::FocusedScheme`]) runs a
//! fixed per-sweep schedule of endpoint-disjoint stages, and
//! [`Scheme::driver`] hands that schedule out as a [`StageDriver`]: a
//! **resumable iterator of stages**. Each [`StageDriver::step`] executes
//! one stage, and the partial [`PairwiseStats`] are inspectable between
//! steps. [`Scheme::run_onto`] is the thin drive-to-completion wrapper,
//! so callers that do not care about streaming see a batch run.
//!
//! Streaming exists for one reason: **mid-sweep pruning**. A caller that
//! can already tell from the partial quantiles that a pair will never
//! matter (its endpoints sit outside every node's candidate pool) can
//! drop that pair's remaining probes while the sweep is still in flight
//! via [`StageDriver::retain_pairs`]. The [`PruneRule`] trait packages
//! that decision, and [`run_pruned`] is the standard loop: evaluate the
//! rule between stages, drop what it condemns, keep stepping
//! ([`run_anytime`] adds a [`StopRule`] to the same loop). Rules must
//! never condemn incumbent/pinned/deployed pairs — the concrete rule in
//! `cloudia-solver` (`CandidatePruneRule`) enforces this with an explicit
//! protected set.
//!
//! Nothing between two stages walks the remaining pairs for a rule that
//! judges instances ([`PruneRule::condemned_instances`]): the driver keeps
//! each instance's scheduled slots and per-stage live counters, so a look
//! costs the rule's verdict plus one pass over the slots of each instance
//! condemned for the first time this sweep, and the stop look reads the
//! remaining pair count ([`StopRule::stable_by_count`]). Struck pairs are
//! tombstoned in place, so every stage keeps its pair order.
//!
//! Under [`run_with_rules`] the driver journals each
//! [`PairwiseStats::record_link`] call it makes into a row per source
//! instance, and the journal is folded into the run's row-major
//! [`LinkDelta`]s: what the run added, with no snapshot to difference.

use cloudia_netsim::Network;

use crate::pairset::PairSet;
use crate::scheme::{MeasureConfig, MeasurementReport, Scheme};
use crate::stats::PairwiseStats;

/// Coordination overhead (ms) the coordinator's notify/ack round adds
/// after every executed stage, for both schedules.
pub const COORD_OVERHEAD_MS: f64 = 0.3;

/// A mid-sweep pruning policy, evaluated between stages by [`run_pruned`].
///
/// Implementations decide from the *partial* statistics which scheduled
/// pairs have already been proven irrelevant. A rule must never condemn a
/// pair the caller still depends on (incumbent, pinned, or deployed
/// links, links under active suspicion, links owed a staleness refresh) —
/// the driver applies the verdict verbatim.
///
/// A rule judges either pairs or instances. A pair rule implements
/// [`PruneRule::prune`] alone and is handed every remaining pair at every
/// look. An instance rule also answers [`PruneRule::condemned_instances`]
/// and [`PruneRule::protects`], and the driver strikes the unprotected
/// pairs of each instance the first time it is condemned in a sweep. The
/// two are the same verdict when `prune` condemns exactly the remaining
/// pairs with a condemned endpoint that `protects` does not exempt, and
/// the protected set is fixed for the sweep: a struck pair never returns,
/// so an instance condemned again (or still) at a later look has nothing
/// left to strike.
pub trait PruneRule {
    /// Given the statistics measured so far and the unordered pairs still
    /// scheduled, returns the subset whose remaining probes may be
    /// dropped. An empty vector leaves the schedule untouched.
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)>;

    /// The per-instance verdict: `out[j]` where every unprotected pair of
    /// instance `j` may be dropped. `None` (the default): the rule judges
    /// pairs, and the driver asks [`PruneRule::prune`] instead.
    fn condemned_instances(&self, stats: &PairwiseStats) -> Option<Vec<bool>> {
        let _ = stats;
        None
    }

    /// Whether the unordered pair `{a, b}` survives a condemned endpoint.
    /// Read only for rules that answer
    /// [`PruneRule::condemned_instances`]. Default: none.
    fn protects(&self, a: u32, b: u32) -> bool {
        let _ = (a, b);
        false
    }
}

/// Drives `scheme` to completion over `net`, evaluating `rule` between
/// stages and dropping whatever it condemns. With a rule that never
/// condemns anything this is bit-identical to [`Scheme::run_onto`]. The
/// report's `stopped_early` is always false.
pub fn run_pruned<S: Scheme + ?Sized>(
    scheme: &S,
    net: &Network,
    cfg: &MeasureConfig,
    stats: PairwiseStats,
    rule: &dyn PruneRule,
) -> AnytimeReport {
    run_with_rules(scheme, net, cfg, stats, Some(rule), None)
}

/// An anytime stopping policy, evaluated between stages by
/// [`run_anytime`].
///
/// Where a [`PruneRule`] condemns individual pairs, a `StopRule` ends the
/// *whole stage schedule* early: once the partial statistics prove that
/// every remaining prune/pool decision is already settled — every
/// candidate confidence interval separated from every non-candidate's —
/// further probing cannot change any downstream verdict, so the sweep may
/// stop and bank the remaining round trips. The concrete rule in
/// `cloudia-solver` (`CandidatePruneRule` with a confidence level, the
/// same object as the sweep's prune rule) demands CI separation at a
/// stated confidence, which is what bounds the realized error of acting
/// on the truncated measurement.
pub trait StopRule {
    /// True once the partial statistics make every remaining decision
    /// stable — additional samples can no longer flip a verdict at the
    /// rule's confidence level.
    fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool;

    /// [`StopRule::stable`] for a rule that reads only how many distinct
    /// pairs remain, so the driver need not list them. `None` (the
    /// default): the rule reads the pairs, and the driver asks
    /// [`StopRule::stable`] instead.
    fn stable_by_count(&self, stats: &PairwiseStats, remaining: usize) -> Option<bool> {
        let _ = (stats, remaining);
        None
    }

    /// Whether the unordered pair `{a, b}` must keep probing even after
    /// stability fires (e.g. deployed links that feed change detectors).
    /// Default: none.
    fn must_keep(&self, a: u32, b: u32) -> bool {
        let _ = (a, b);
        false
    }
}

/// One link's contribution from a single run: what the run's
/// [`PairwiseStats::record_link`] calls on that directed link added.
#[derive(Debug, Clone, Copy)]
pub struct LinkDelta {
    /// Source instance index.
    pub src: u32,
    /// Destination instance index.
    pub dst: u32,
    /// Mean RTT over this run's samples (ms). Meaningless (0) when
    /// `count` is 0 — a delta whose every probe timed out still gets
    /// emitted so the loss triage sees the attempts; latency consumers
    /// must check `count > 0` first.
    pub mean: f64,
    /// Number of samples this run contributed.
    pub count: u64,
    /// Probes issued on this link this run (successes + timeouts).
    pub attempts: u64,
    /// Probes that timed out on this link this run.
    pub timeouts: u64,
}

/// What [`run_pruned`], [`run_anytime`] and [`run_with_rules`] produced:
/// the measurement, its per-link deltas, the pruning ledger and whether
/// the stop rule fired before the schedule ran dry.
#[derive(Debug, Clone)]
pub struct AnytimeReport {
    /// The measurement report (identical in shape to a batch run's).
    pub report: MeasurementReport,
    /// One delta per link the run attempted, in row-major order; a link
    /// that only timed out carries `count == 0` (see [`LinkDelta::mean`]).
    pub deltas: Vec<LinkDelta>,
    /// Distinct unordered pairs dropped mid-sweep (pruned or stopped).
    pub dropped_pairs: usize,
    /// Estimated round trips saved by pruning plus the early stop.
    pub saved_round_trips: u64,
    /// True if the stop rule declared stability before the schedule was
    /// exhausted.
    pub stopped_early: bool,
}

/// Drives `scheme` like [`run_pruned`], additionally ending the sweep as
/// soon as `stop` declares every remaining decision stable. On stop, all
/// remaining pairs except [`StopRule::must_keep`] ones are dropped and
/// the driver runs out the (now skeletal) schedule. With a stop rule that
/// never fires this is bit-identical to [`run_pruned`]; with a rule that
/// never fires *and* a prune rule that never condemns, bit-identical to
/// [`crate::Scheme::run_onto`].
pub fn run_anytime<S: Scheme + ?Sized>(
    scheme: &S,
    net: &Network,
    cfg: &MeasureConfig,
    stats: PairwiseStats,
    rule: &dyn PruneRule,
    stop: &dyn StopRule,
) -> AnytimeReport {
    run_with_rules(scheme, net, cfg, stats, Some(rule), Some(stop))
}

/// The one between-stage loop behind [`run_pruned`] and [`run_anytime`]
/// (and, with neither rule, [`Scheme::run_onto`] — the driver is stepped
/// to completion and the schedule is never inspected). Before every stage
/// with samples on record and pairs still scheduled, `stop` is consulted
/// first — once it fires, all remaining pairs except its
/// [`StopRule::must_keep`] ones are dropped and no rule is evaluated
/// again — and otherwise `rule`'s condemned pairs are dropped: the
/// unprotected pairs of each instance it condemns for the first time, or
/// the pairs it names. Callers holding the rules as options (the online
/// stream's epoch entry) call this directly.
///
/// The report's deltas are the driver's journal of what each
/// [`PairwiseStats::record_link`] call added, folded: in row-major order,
/// the repeats of sweeps ≥ 3 merged, and each link's RTT sum divided by
/// its sample count.
pub fn run_with_rules<S: Scheme + ?Sized>(
    scheme: &S,
    net: &Network,
    cfg: &MeasureConfig,
    stats: PairwiseStats,
    rule: Option<&dyn PruneRule>,
    stop: Option<&dyn StopRule>,
) -> AnytimeReport {
    let mut driver = scheme.driver(net, cfg, stats);
    driver.journal = Some(reserve_journal(net.len(), &driver.stages, driver.sweeps));
    // A struck pair leaves the schedule, so no pair is counted twice.
    let mut dropped_pairs = 0usize;
    let mut saved_round_trips = 0u64;
    let mut stopped_early = false;
    // Instances an instance verdict condemned at an earlier look: their
    // unprotected pairs are gone already.
    let mut condemned = Vec::new();
    let ruled = rule.is_some() || stop.is_some();
    loop {
        if ruled
            && !stopped_early
            && driver.stats().total_samples() > 0
            && driver.remaining_len() > 0
        {
            stopped_early = stop.is_some_and(|stop| {
                stop.stable_by_count(driver.stats(), driver.remaining_len())
                    .unwrap_or_else(|| stop.stable(driver.stats(), &driver.remaining_pairs()))
            });
            let struck = match (stop, rule) {
                // Stability: every verdict is settled. Drop all
                // non-essential probing and run out the skeleton.
                (Some(stop), _) if stopped_early => {
                    Some(driver.strike_pairs(&mut |a, b| stop.must_keep(a, b)))
                }
                (_, Some(rule)) => prune_look(&mut driver, rule, &mut condemned),
                (_, None) => None,
            };
            if let Some((pairs, saved)) = struck {
                dropped_pairs += pairs;
                saved_round_trips += saved;
                if stopped_early {
                    cloudia_obs::counters(&[
                        ("sweep.anytime.stopped_early", 1),
                        ("sweep.anytime.dropped_pairs", pairs as u64),
                        ("sweep.anytime.saved_round_trips", saved),
                    ]);
                } else {
                    cloudia_obs::counters(&[
                        ("sweep.prune.dropped_pairs", pairs as u64),
                        ("sweep.prune.saved_round_trips", saved),
                    ]);
                }
            }
        }
        if !driver.step() {
            break;
        }
    }
    let deltas = fold_journal(driver.journal.take().unwrap_or_default());
    let report = driver.finish();
    AnytimeReport { report, deltas, dropped_pairs, saved_round_trips, stopped_early }
}

/// What a run's `record_link` calls added: one row per source instance,
/// each in call order with the RTT sum in `mean`.
pub(crate) type Journal = Vec<Vec<LinkDelta>>;

/// An empty journal with room for every entry `sweeps` passes over
/// `stages` write — pair `(a, b)` is recorded `a → b` on even sweeps and
/// `b → a` on odd ones — so a push never reallocates.
fn reserve_journal(n: usize, stages: &[Vec<(u32, u32, usize)>], sweeps: usize) -> Journal {
    let mut sizes = vec![0usize; n];
    for &(a, b, _) in stages.iter().flatten() {
        sizes[a as usize] += sweeps.div_ceil(2);
        sizes[b as usize] += sweeps / 2;
    }
    sizes.into_iter().map(Vec::with_capacity).collect()
}

/// Folds a journal into row-major deltas: each row walked in destination
/// order through compact `(destination, position)` keys (its 40-byte
/// entries move once, and repeats are summed in call order), each RTT sum
/// divided by its sample count.
fn fold_journal(journal: Journal) -> Vec<LinkDelta> {
    let mut deltas: Vec<LinkDelta> = Vec::with_capacity(journal.iter().map(Vec::len).sum());
    let mut keys = Vec::new();
    for row in journal {
        keys.clear();
        keys.extend(row.iter().enumerate().map(|(at, d)| (u64::from(d.dst) << 32) | at as u64));
        keys.sort_unstable();
        for &key in &keys {
            let d = row[key as u32 as usize];
            match deltas.last_mut() {
                Some(kept) if (kept.src, kept.dst) == (d.src, d.dst) => {
                    (kept.mean, kept.count) = (kept.mean + d.mean, kept.count + d.count);
                    (kept.attempts, kept.timeouts) =
                        (kept.attempts + d.attempts, kept.timeouts + d.timeouts);
                }
                _ => deltas.push(d),
            }
        }
    }
    for d in &mut deltas {
        d.mean = if d.count > 0 { d.mean / d.count as f64 } else { 0.0 };
    }
    deltas
}

/// One between-stage look of `rule`: strikes what it condemns and returns
/// `(pairs, round trips)` dropped, or `None` when it condemned nothing.
/// `condemned` carries the instances struck at earlier looks of this
/// sweep, which are never walked again.
fn prune_look(
    driver: &mut StageDriver<'_>,
    rule: &dyn PruneRule,
    condemned: &mut Vec<bool>,
) -> Option<(usize, u64)> {
    let Some(out) = rule.condemned_instances(driver.stats()) else {
        let named: PairSet =
            rule.prune(driver.stats(), &driver.remaining_pairs()).into_iter().collect();
        return (!named.is_empty()).then(|| driver.strike_pairs(&mut |a, b| !named.contains(a, b)));
    };
    condemned.resize(out.len(), false);
    let (mut pairs, mut saved) = (0usize, 0u64);
    for (j, (&out, seen)) in out.iter().zip(condemned.iter_mut()).enumerate() {
        if out && !*seen {
            *seen = true;
            let (p, s) = driver.strike_instance(j as u32, &|a, b| rule.protects(a, b));
            (pairs, saved) = (pairs + p, saved + s);
        }
    }
    (pairs > 0).then_some((pairs, saved))
}

/// A resumable, stage-granular execution of one measurement run, and the
/// one driver of every [`Scheme`].
///
/// Obtained from [`Scheme::driver`]: a fixed per-sweep schedule of
/// endpoint-disjoint stages, executed with the common stage protocol
/// (every pair keeps one probe outstanding until its per-pair round-trip
/// quota is met), directions alternating across sweeps, one coordinator
/// round between stages. [`StageDriver::step`] executes the next stage
/// and the accessors expose the partial state between stages. Stepping a
/// driver to exhaustion and then calling [`StageDriver::finish`] produces
/// the same [`MeasurementReport`] as [`Scheme::run_onto`] —
/// interrupting, inspecting, and resuming never changes the measurement.
pub struct StageDriver<'n> {
    /// The scheme's name, as the `sweep.run` span reports it.
    name: &'static str,
    net: &'n Network,
    cfg: MeasureConfig,
    stats: PairwiseStats,
    /// One pair's round-trip times, reused by every pair of every stage.
    rtts: Vec<f64>,
    /// What each `record_link` call added — kept only under
    /// [`run_with_rules`], which folds it into the run's deltas.
    journal: Option<Journal>,
    /// One sweep's schedule: unordered pairs with per-pair round trips,
    /// each pair in exactly one stage. A struck pair stays in place with
    /// a quota of 0, so every pair keeps its position and every stage its
    /// order.
    stages: Vec<Vec<(u32, u32, usize)>>,
    /// Per stage: its live pairs, and the round trips one run of it spends.
    live: Vec<(usize, u64)>,
    /// Each instance's slots, built at the first instance strike.
    slots: Option<Slots>,
    sweeps: usize,
    sweep: usize,
    stage: usize,
    round_trips: u64,
    /// Simulated clock (ms); stages start here and leave it at their end
    /// plus the coordination round.
    now: f64,
    done: bool,
    tally: StageTally,
}

/// Every instance's scheduled slots as `(stage, position)`: instance `j`'s
/// are `at[start[j]..start[j + 1]]`. Stages are matchings, so an instance
/// has at most one slot per stage.
struct Slots {
    start: Vec<usize>,
    at: Vec<(u32, u32)>,
}

impl Slots {
    fn build(n: usize, stages: &[Vec<(u32, u32, usize)>]) -> Self {
        let mut start = vec![0usize; n + 1];
        for &(a, b, _) in stages.iter().flatten() {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for j in 0..n {
            start[j + 1] += start[j];
        }
        let mut next = start.clone();
        let mut at = vec![(0, 0); start[n]];
        for (s, stage) in stages.iter().enumerate() {
            for (p, &(a, b, _)) in stage.iter().enumerate() {
                for j in [a as usize, b as usize] {
                    at[next[j]] = (s as u32, p as u32);
                    next[j] += 1;
                }
            }
        }
        Self { start, at }
    }

    fn of(&self, j: usize) -> &[(u32, u32)] {
        &self.at[self.start[j]..self.start[j + 1]]
    }
}

/// Local telemetry accumulator for one driver run. Stages add plain
/// integers here; the global plane is touched exactly once, when the
/// tally drops with the driver — `sweeps × stages` lock acquisitions
/// (and per-stage span allocations) collapse to one counter batch and
/// one `sweep.run` span, keeping the instrumented hot path within the
/// workspace's overhead budget even on small networks where a stage is
/// only a few simulated round trips of work.
#[derive(Debug, Default)]
struct StageTally {
    stages: u64,
    round_trips: u64,
    sent: u64,
    delivered: u64,
    lost: u64,
    dark: u64,
    /// P² sketches spilled by the quiet-link horizon this run.
    spilled: u64,
    /// Wall-time span from the first executed stage to driver drop;
    /// `None` until a stage runs (or while telemetry is disabled).
    span: Option<cloudia_obs::SpanGuard>,
}

impl Drop for StageTally {
    fn drop(&mut self) {
        if let Some(span) = &mut self.span {
            span.attr("stages", self.stages);
            span.attr("round_trips", self.round_trips);
            span.attr("sent", self.sent);
            span.attr("lost", self.lost);
            span.attr("dark_pairs", self.dark);
        }
        if self.stages > 0 {
            cloudia_obs::counters(&[
                ("sweep.stages", self.stages),
                ("sweep.round_trips", self.round_trips),
                ("sweep.messages_sent", self.sent),
                ("sweep.messages_delivered", self.delivered),
                ("sweep.messages_lost", self.lost),
                ("sweep.dark_pairs", self.dark),
                ("sweep.sketch_spills", self.spilled),
            ]);
        }
    }
}

impl<'n> StageDriver<'n> {
    pub(crate) fn new(
        name: &'static str,
        net: &'n Network,
        cfg: &MeasureConfig,
        stats: PairwiseStats,
        stages: Vec<Vec<(u32, u32, usize)>>,
        sweeps: usize,
    ) -> Self {
        let n = net.len();
        assert!(n >= 2, "need at least two instances to measure");
        assert_eq!(stats.len(), n, "stats sized for {} instances, network has {n}", stats.len());
        // One pass per driver, release builds included: the live counters,
        // `remaining_pairs` and every strike rely on it, and a quota of 0
        // is how a struck pair is marked.
        let mut seen = PairSet::new();
        assert!(
            stages.iter().flatten().all(|&(a, b, k)| k > 0 && seen.insert(a, b)),
            "a pair sits in two stages (or pairs an instance with itself, or has no quota)"
        );
        let live = stages
            .iter()
            .map(|stage| (stage.len(), stage.iter().map(|&(_, _, k)| k as u64).sum()))
            .collect();
        Self {
            name,
            net,
            cfg: cfg.clone(),
            stats,
            rtts: Vec::new(),
            journal: None,
            stages,
            live,
            slots: None,
            sweeps,
            sweep: 0,
            stage: 0,
            round_trips: 0,
            now: 0.0,
            done: false,
            tally: StageTally::default(),
        }
    }

    fn advance_position(&mut self) {
        self.stage += 1;
        if self.stage >= self.stages.len() {
            self.stage = 0;
            self.sweep += 1;
        }
    }

    /// The sweep index the remaining schedule ends before.
    fn end_sweep(&self) -> usize {
        if self.done {
            self.sweep
        } else {
            self.sweeps
        }
    }

    /// How many more times the stage at index `stage` of `stages` runs:
    /// once per remaining sweep, minus the current sweep's pass if that
    /// already went by it.
    fn runs_left(&self, stage: usize) -> u64 {
        let sweeps = self.end_sweep() - self.sweep;
        (sweeps - usize::from(sweeps > 0 && stage < self.stage)) as u64
    }

    /// Executes the next stage. Returns `false` once the schedule is
    /// exhausted or the configured duration limit has been reached (the
    /// driver is then permanently done; further calls keep returning
    /// `false`).
    pub fn step(&mut self) -> bool {
        if self.done {
            return false;
        }
        // Stages emptied by pruning are skipped entirely: no probes, no
        // coordination round.
        while self.sweep < self.sweeps && self.live.get(self.stage).is_some_and(|l| l.0 == 0) {
            self.advance_position();
        }
        if self.stages.is_empty() || self.sweep >= self.sweeps {
            self.done = true;
            return false;
        }
        if let Some(limit) = self.cfg.max_duration_ms {
            if self.now >= limit {
                self.done = true;
                return false;
            }
        }
        if cloudia_obs::enabled() && self.tally.span.is_none() {
            self.tally.span = Some(cloudia_obs::span!("sweep.run", scheme = self.name));
        }
        let outcome = crate::scheme::run_stage(
            self.net,
            &self.cfg,
            self.now,
            (self.sweep, self.stage),
            &self.stages[self.stage],
            &mut self.stats,
            &mut self.rtts,
            self.journal.as_mut(),
        );
        self.round_trips += outcome.round_trips;
        self.now = outcome.end;
        // Telemetry stays local at stage grain: the stage outcome's
        // tallies accumulate in `self.tally` (plain integer adds — no
        // locks, no allocations) and hit the global plane once, when
        // the driver drops.
        if cloudia_obs::enabled() {
            self.tally.stages += 1;
            self.tally.round_trips += outcome.round_trips;
            self.tally.sent += outcome.sent;
            self.tally.delivered += outcome.delivered;
            self.tally.lost += outcome.lost;
            self.tally.dark += outcome.dark.len() as u64;
        }
        // Age the stats plane's quiet-time clock — one tick per completed
        // stage — and spill idle sketches if a horizon is configured.
        self.stats.advance_tick();
        if let Some(horizon) = self.cfg.sketch_spill_horizon {
            let spilled = self.stats.spill_quiet(horizon);
            if cloudia_obs::enabled() {
                self.tally.spilled += spilled as u64;
            }
        }
        // Pairs that went dark (retry budget exhausted without one
        // success) are struck from the schedule: re-probing a dead link
        // each sweep would burn the whole retry budget again for nothing,
        // and `remaining_pairs`/`planned_remaining` must report only work
        // that can still complete. A pair sits in exactly one stage — the
        // one that just ran — so the strike is by position (as `run_stage`
        // reports them) and touches no other stage. A fresh driver (the
        // next epoch) re-attempts them.
        for &pid in &outcome.dark {
            self.tombstone(self.stage, pid);
        }
        // Coordinator round before the next stage.
        self.now += COORD_OVERHEAD_MS;
        self.advance_position();
        true
    }

    /// The statistics accumulated so far (partial while stages remain).
    pub fn stats(&self) -> &PairwiseStats {
        &self.stats
    }

    /// Round trips completed so far by this driver.
    pub fn round_trips(&self) -> u64 {
        self.round_trips
    }

    /// Simulated milliseconds elapsed so far.
    pub fn elapsed_ms(&self) -> f64 {
        self.now
    }

    /// The distinct unordered pairs still scheduled for future stages
    /// (pairs already dropped by [`StageDriver::retain_pairs`] or struck
    /// dark excluded).
    pub fn remaining_pairs(&self) -> Vec<(u32, u32)> {
        // Every sweep re-walks the same `stages` and a pair sits in
        // exactly one stage of it, so the distinct pairs of the remaining
        // schedule, in first-seen order, are the current sweep's tail
        // followed — if another sweep remains — by its head.
        let end = self.end_sweep();
        let tail = if self.sweep < end { &self.stages[self.stage..] } else { &[] };
        let head = if self.sweep + 1 < end { &self.stages[..self.stage] } else { &[] };
        tail.iter().chain(head).flatten().filter(|e| e.2 > 0).map(|&(a, b, _)| (a, b)).collect()
    }

    /// How many distinct unordered pairs [`StageDriver::remaining_pairs`]
    /// would list, read off the per-stage counters.
    pub fn remaining_len(&self) -> usize {
        self.live.iter().enumerate().filter(|&(s, _)| self.runs_left(s) > 0).map(|(_, l)| l.0).sum()
    }

    /// Round trips the remaining schedule will spend, ignoring any
    /// duration limit.
    pub fn planned_remaining(&self) -> u64 {
        self.live.iter().enumerate().map(|(s, l)| self.runs_left(s) * l.1).sum()
    }

    /// Drops the future probes of every remaining pair for which `keep`
    /// returns `false`. Stages already executed are unaffected; a stage
    /// emptied entirely is skipped without paying its coordination
    /// round. Returns the round trips saved (`planned_remaining` before −
    /// after).
    pub fn retain_pairs(&mut self, keep: &mut dyn FnMut(u32, u32) -> bool) -> u64 {
        self.strike_pairs(keep).1
    }

    /// [`StageDriver::retain_pairs`], also returning how many remaining
    /// pairs it struck: `(pairs, round trips saved)`.
    fn strike_pairs(&mut self, keep: &mut dyn FnMut(u32, u32) -> bool) -> (usize, u64) {
        let (mut pairs, mut saved) = (0usize, 0u64);
        for s in 0..self.stages.len() {
            let runs = self.runs_left(s);
            if runs == 0 {
                continue;
            }
            for p in 0..self.stages[s].len() {
                let (a, b, k) = self.stages[s][p];
                if k > 0 && !keep(a, b) {
                    self.tombstone(s, p);
                    (pairs, saved) = (pairs + 1, saved + runs * k as u64);
                }
            }
        }
        (pairs, saved)
    }

    /// Strikes every remaining pair of instance `j` that `protects` does
    /// not exempt, walking only `j`'s slots: `(pairs, round trips saved)`.
    fn strike_instance(&mut self, j: u32, protects: &dyn Fn(u32, u32) -> bool) -> (usize, u64) {
        let slots = self.slots.take().unwrap_or_else(|| Slots::build(self.net.len(), &self.stages));
        let (mut pairs, mut saved) = (0usize, 0u64);
        for &(s, p) in slots.of(j as usize) {
            let (s, p) = (s as usize, p as usize);
            let (a, b, k) = self.stages[s][p];
            let runs = self.runs_left(s);
            if k > 0 && runs > 0 && !protects(a, b) {
                self.tombstone(s, p);
                (pairs, saved) = (pairs + 1, saved + runs * k as u64);
            }
        }
        self.slots = Some(slots);
        (pairs, saved)
    }

    /// Takes the live pair at position `p` of stage `s` off the schedule.
    fn tombstone(&mut self, s: usize, p: usize) {
        let k = std::mem::take(&mut self.stages[s][p].2);
        debug_assert!(k > 0, "pair struck twice");
        self.live[s].0 -= 1;
        self.live[s].1 -= k as u64;
    }

    /// Consumes the driver into the final report. Valid at any point —
    /// an interrupted run reports whatever it measured.
    pub fn finish(self) -> MeasurementReport {
        MeasurementReport { elapsed_ms: self.now, round_trips: self.round_trips, stats: self.stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FocusedScheme, ProbePlan, Staged};
    use cloudia_netsim::{Cloud, Provider};
    use std::collections::HashSet;

    fn network(n: usize, seed: u64) -> Network {
        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(n);
        cloud.network(&alloc)
    }

    /// `net` with every link of instance 0 dropping every message.
    fn with_instance_zero_dark(mut net: Network) -> Network {
        use cloudia_netsim::{InstanceId, LossPlane};
        let n = net.len();
        let mut loss = LossPlane::clear(n);
        for j in 1..n as u32 {
            loss.set_drop_prob(InstanceId(0), InstanceId(j), 1.0);
            loss.set_drop_prob(InstanceId(j), InstanceId(0), 1.0);
        }
        net.set_loss(loss);
        net
    }

    struct DropAll;
    impl PruneRule for DropAll {
        fn prune(&self, _: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
            remaining.to_vec()
        }
    }

    struct KeepAll;
    impl PruneRule for KeepAll {
        fn prune(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> Vec<(u32, u32)> {
            Vec::new()
        }
    }

    #[test]
    fn stepped_driver_equals_batch_run() {
        let net = network(8, 1);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(3, 2);
        let batch = scheme.run(&net, &cfg);
        let mut driver = scheme.driver(&net, &cfg, PairwiseStats::new(8));
        let mut steps = 0;
        while driver.step() {
            steps += 1;
            assert!(driver.round_trips() > 0);
        }
        assert_eq!(steps, 7 * 2, "one step per stage per sweep");
        let report = driver.finish();
        assert_eq!(report.round_trips, batch.round_trips);
        assert_eq!(report.elapsed_ms, batch.elapsed_ms);
        assert_eq!(report.stats.mean_vector(), batch.stats.mean_vector());
    }

    #[test]
    fn keep_all_rule_is_bit_identical_to_run_onto() {
        let net = network(7, 2);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let batch = scheme.run(&net, &cfg);
        let pruned = run_pruned(&scheme, &net, &cfg, PairwiseStats::new(7), &KeepAll);
        assert_eq!(pruned.dropped_pairs, 0);
        assert_eq!(pruned.saved_round_trips, 0);
        assert_eq!(pruned.report.round_trips, batch.round_trips);
        assert_eq!(pruned.report.elapsed_ms, batch.elapsed_ms);
        assert_eq!(pruned.report.stats.mean_vector(), batch.stats.mean_vector());
    }

    #[test]
    fn drop_all_rule_stops_after_the_first_prunable_moment() {
        // The rule only sees stats once samples exist, so stage one runs;
        // everything after it is dropped.
        let net = network(6, 3);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let full = scheme.run(&net, &cfg);
        let pruned = run_pruned(&scheme, &net, &cfg, PairwiseStats::new(6), &DropAll);
        assert!(pruned.report.round_trips < full.round_trips);
        assert!(pruned.saved_round_trips > 0);
        assert!(pruned.dropped_pairs > 0);
        // Only the first stage's pairs were measured: 3 disjoint pairs,
        // one direction, ks = 2.
        assert_eq!(pruned.report.round_trips, 3 * 2);
    }

    #[test]
    fn retain_pairs_reports_savings_and_remaining_shrinks() {
        let net = network(6, 4);
        let cfg = MeasureConfig::default();
        let mut plan = ProbePlan::new(6);
        plan.add_clique(&[0, 1, 2, 3]);
        let scheme = FocusedScheme::new(plan, 2, 2);
        let mut driver = scheme.driver(&net, &cfg, PairwiseStats::new(6));
        let before = driver.planned_remaining();
        assert_eq!(before, 6 * 2 * 2);
        let saved = driver.retain_pairs(&mut |a, b| !(a == 0 && b == 1));
        assert_eq!(saved, 2 * 2, "pair (0,1): ks 2 over 2 sweeps");
        assert_eq!(driver.planned_remaining(), before - saved);
        assert!(!driver.remaining_pairs().contains(&(0, 1)));
        while driver.step() {}
        let report = driver.finish();
        assert_eq!(report.stats.link(0, 1).count() + report.stats.link(1, 0).count(), 0);
        assert!(report.stats.link(0, 2).count() > 0);
    }

    /// The walk `remaining_pairs`/`planned_remaining` replaced: every
    /// remaining `(sweep, stage)` position, live pairs deduplicated in
    /// first-seen order through a hash set.
    fn hashed_remaining(d: &StageDriver<'_>) -> (Vec<(u32, u32)>, u64) {
        let end = if d.done { d.sweep } else { d.sweeps };
        let (mut seen, mut pairs, mut planned) = (HashSet::new(), Vec::new(), 0u64);
        for sweep in d.sweep..end {
            let start = if sweep == d.sweep { d.stage } else { 0 };
            for &(a, b, k) in d.stages[start..].iter().flatten().filter(|e| e.2 > 0) {
                planned += k as u64;
                if seen.insert((a, b)) {
                    pairs.push((a, b));
                }
            }
        }
        (pairs, planned)
    }

    /// Steps `d` to exhaustion, comparing the schedule accessors with the
    /// hashed walk at every position. Once `retain_at` stages have run it
    /// drops the pairs `drop` selects, then strikes instance 1 twice (the
    /// second strike finds nothing) and instance 2, sparing the pairs whose
    /// endpoints sum to a multiple of 3; one stage later it strikes
    /// instance 3 the same way.
    fn walk_against_hashed(mut d: StageDriver<'_>, retain_at: usize, drop: fn(u32, u32) -> bool) {
        let check = |d: &StageDriver<'_>| {
            let (pairs, planned) = hashed_remaining(d);
            assert_eq!(d.remaining_pairs(), pairs, "sweep {} stage {}", d.sweep, d.stage);
            assert_eq!(d.remaining_len(), pairs.len(), "sweep {} stage {}", d.sweep, d.stage);
            assert_eq!(d.planned_remaining(), planned, "sweep {} stage {}", d.sweep, d.stage);
            (pairs, planned)
        };
        let spared = |a: u32, b: u32| (a + b).is_multiple_of(3);
        let strike = |d: &mut StageDriver<'_>, j: u32| {
            let (pairs, planned) = check(d);
            let struck = d.strike_instance(j, &spared);
            let (left, left_planned) = check(d);
            let of_j = |pairs: &[(u32, u32)]| {
                pairs.iter().filter(|&&(a, b)| (a == j || b == j) && !spared(a, b)).count()
            };
            assert_eq!(of_j(&left), 0, "instance {j} kept an unspared pair");
            assert_eq!(struck, (of_j(&pairs), planned - left_planned), "instance {j}'s ledger");
            assert_eq!(pairs.len() - left.len(), struck.0);
            struck.0
        };
        let (mut steps, mut struck) = (0, 0);
        loop {
            let before = check(&d).1;
            if steps == retain_at {
                let saved = d.retain_pairs(&mut |a, b| !drop(a, b));
                assert_eq!(saved, before - check(&d).1, "retain_pairs miscounted its saving");
                struck += strike(&mut d, 1);
                assert_eq!(strike(&mut d, 1), 0, "a second strike found pairs left");
                struck += strike(&mut d, 2);
            }
            if steps == retain_at + 1 {
                struck += strike(&mut d, 3);
            }
            if !d.step() {
                break;
            }
            steps += 1;
        }
        assert!(steps > retain_at, "schedule too short to exercise retain_pairs");
        assert!(struck > 0, "no instance strike found a pair");
        assert_eq!(check(&d).1, 0);
        assert!(d.remaining_pairs().is_empty());
    }

    #[test]
    fn schedule_accessors_match_the_hashed_walk_at_every_position() {
        let cfg = MeasureConfig::default();
        for (n, sweeps) in [(6usize, 1usize), (7, 2), (8, 3)] {
            let net = network(n, n as u64);
            let staged = Staged::tournament(n, |a, b| (a, b, 2));
            let mut plan = ProbePlan::new(n);
            plan.add_clique(&[0, 1, 2, 4]);
            plan.add_pair(3, 5);
            plan.add_pair(1, 5);
            let focused: Vec<Vec<(u32, u32, usize)>> = plan
                .stages()
                .into_iter()
                .map(|stage| {
                    stage.into_iter().map(|(a, b)| (a, b, 1 + (a + b) as usize % 3)).collect()
                })
                .collect();
            for stages in [staged, focused] {
                // A retain on the first sweep, on the last sweep, and —
                // dropping whole stages — one that leaves empty stages to skip.
                for retain_at in [0, 1, stages.len() * (sweeps - 1) + 1] {
                    for drop in [(|a, _| a == 1) as fn(u32, u32) -> bool, |a, b| (a + b) % 2 == 1] {
                        let stats = PairwiseStats::new(n);
                        let d = StageDriver::new("t", &net, &cfg, stats, stages.clone(), sweeps);
                        walk_against_hashed(d, retain_at, drop);
                    }
                }
            }
        }
    }

    #[test]
    fn schedule_accessors_match_the_hashed_walk_after_a_dark_strike() {
        let n = 6;
        let net = with_instance_zero_dark(network(n, 9));
        let cfg = MeasureConfig::default();
        let stages = Staged::tournament(n, |a, b| (a, b, 2));
        let driver = || StageDriver::new("t", &net, &cfg, PairwiseStats::new(n), stages.clone(), 3);
        // The strike happens: instance 0's first-stage pair leaves the
        // schedule although two more sweeps would have repeated it.
        let mut d = driver();
        let struck = *d.stages[0].iter().find(|&&(a, b, _)| a == 0 || b == 0).unwrap();
        assert!(d.step());
        assert!(!d.remaining_pairs().contains(&(struck.0, struck.1)));
        walk_against_hashed(driver(), 2, |a, b| a + b == 7);
    }

    #[test]
    #[should_panic(expected = "a pair sits in two stages")]
    fn a_schedule_that_repeats_a_pair_is_rejected_in_every_build() {
        let net = network(4, 1);
        let stages = vec![vec![(0, 1, 2), (2, 3, 2)], vec![(1, 0, 2)]];
        StageDriver::new("t", &net, &MeasureConfig::default(), PairwiseStats::new(4), stages, 2);
    }

    #[test]
    fn a_dark_instance_is_struck_stage_by_stage_and_never_re_probed() {
        let (n, ks, sweeps) = (8usize, 2usize, 3usize);
        let mut cloud = Cloud::boot(Provider::ec2_like(), 17);
        let alloc = cloud.allocate(n);
        let net = with_instance_zero_dark(cloud.network(&alloc));
        let cfg = MeasureConfig { seed: 5, ..MeasureConfig::default() };
        let mut d = Staged::new(ks, sweeps).driver(&net, &cfg, PairwiseStats::new(n));
        let of_zero = |d: &StageDriver<'_>| {
            d.remaining_pairs().iter().filter(|&&(a, b)| a == 0 || b == 0).count()
        };
        let pairs = (n * (n - 1) / 2) as u64;
        assert_eq!(d.planned_remaining(), pairs * (ks * sweeps) as u64);
        // Instance 0 meets one partner per stage of the first sweep: that
        // pair is gone — from the pair list and from the plan, its two
        // later sweeps included — the moment its stage returns.
        for stage in 1..n {
            assert!(d.step());
            assert_eq!(of_zero(&d), n - 1 - stage, "after stage {stage}");
            let run = (stage * (n / 2) * ks) as u64;
            let struck = (stage * ks * (sweeps - 1)) as u64;
            assert_eq!(d.planned_remaining(), pairs * (ks * sweeps) as u64 - run - struck);
        }
        while d.step() {}
        let report = d.finish();
        for j in 1..n {
            let (out, back) = (report.stats.link(0, j), report.stats.link(j, 0));
            assert_eq!(out.count() + back.count(), 0, "dark link (0,{j}) answered");
            assert_eq!(
                out.attempts() + back.attempts(),
                u64::from(cfg.retries_per_pair) + 1,
                "dark pair (0,{j}) was probed again after its strike"
            );
        }
        // Bookkeeping only: round trips, clock and every mean are the
        // parent commit's (the set-based strike over all stages), bit for bit.
        let digest = report.stats.mean_vector().iter().fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(report.round_trips, (pairs - (n as u64 - 1)) * (ks * sweeps) as u64);
        assert_eq!(
            (report.elapsed_ms.to_bits(), digest),
            (0x4096_8794_ef18_caa0, 0x7172_8b8f_df40_933f),
            "elapsed {:#x} digest {digest:#x}",
            report.elapsed_ms.to_bits()
        );
    }

    struct NeverStable;
    impl StopRule for NeverStable {
        fn stable(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> bool {
            false
        }
    }

    /// Declares stability as soon as any samples exist, keeping one pair.
    struct StopKeeping(u32, u32);
    impl StopRule for StopKeeping {
        fn stable(&self, _: &PairwiseStats, _: &[(u32, u32)]) -> bool {
            true
        }
        fn must_keep(&self, a: u32, b: u32) -> bool {
            (a, b) == (self.0, self.1) || (b, a) == (self.0, self.1)
        }
    }

    #[test]
    fn anytime_with_inert_rules_is_bit_identical_to_run_onto() {
        let net = network(7, 2);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let batch = scheme.run(&net, &cfg);
        let anytime =
            run_anytime(&scheme, &net, &cfg, PairwiseStats::new(7), &KeepAll, &NeverStable);
        assert!(!anytime.stopped_early);
        assert_eq!(anytime.dropped_pairs, 0);
        assert_eq!(anytime.saved_round_trips, 0);
        assert_eq!(anytime.report.round_trips, batch.round_trips);
        assert_eq!(anytime.report.elapsed_ms, batch.elapsed_ms);
        assert_eq!(anytime.report.stats.mean_vector(), batch.stats.mean_vector());
    }

    #[test]
    fn anytime_stop_drops_everything_but_must_keep_pairs() {
        let net = network(6, 3);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(3, 2);
        let full = scheme.run(&net, &cfg);
        let anytime =
            run_anytime(&scheme, &net, &cfg, PairwiseStats::new(6), &KeepAll, &StopKeeping(0, 1));
        assert!(anytime.stopped_early);
        assert!(anytime.saved_round_trips > 0);
        assert!(anytime.report.round_trips < full.round_trips);
        // The kept pair still completed its full probe quota: 3 round
        // trips per sweep over 2 sweeps (minus any that ran before the
        // stop fired — so at least the post-stop sweeps' worth).
        let kept =
            anytime.report.stats.link(0, 1).count() + anytime.report.stats.link(1, 0).count();
        assert!(kept > 0, "must_keep pair was dropped");
        assert_eq!(kept, full.stats.link(0, 1).count() + full.stats.link(1, 0).count());
    }

    #[test]
    fn finish_mid_run_reports_partial_measurements() {
        let net = network(8, 5);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let mut driver = scheme.driver(&net, &cfg, PairwiseStats::new(8));
        assert!(driver.step());
        assert!(driver.step());
        let partial = driver.round_trips();
        let report = driver.finish();
        assert_eq!(report.round_trips, partial);
        assert!(report.stats.total_samples() > 0);
        let full = scheme.run(&net, &cfg);
        assert!(report.round_trips < full.round_trips);
    }
}

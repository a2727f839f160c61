//! The online deployment advisor control loop.
//!
//! Where the batch pipeline runs *allocate → measure → search → deploy*
//! once, [`OnlineAdvisor`] runs continuously against a
//! [`MeasurementStream`]: every epoch it ingests the stream's per-link
//! deltas into the [`OnlineStore`], lets the change-point detectors vote,
//! and — when a detected shift actually touches the tenant's interests
//! (degradation on a deployed link, or an improvement opportunity on an
//! unused one) — triggers a **budgeted incremental re-solve** around the
//! incumbent plan. A repair is only applied when its estimated gain
//! clears the [`RedeployPolicy`] economics net of the per-node migration
//! cost; every epoch, trigger, re-solve, and migration lands in the event
//! log, and the ground-truth cost of the active plan is booked every
//! epoch ([`EpochSummary::true_cost`]).

use std::cell::OnceCell;

use cloudia_core::{
    ground_truth_cost, CommGraph, CostError, Deployment, Objective, RedeployPolicy,
};
use cloudia_measure::{FocusedScheme, ProbePlan, PruneRule, Scheme, StopRule};
use cloudia_netsim::Network;
use cloudia_obs::{RingLog, RunRecorder};
use cloudia_solver::candidates::{PoolIndex, PrunedProblem, SharedIndex};
use cloudia_solver::{AdaptivePool, CandidateConfig, CandidatePruneRule, CandidateSet, PoolPolicy};

use crate::detect::{DetectorConfig, Drift};
use crate::repair::{evacuate_resolve, incremental_resolve, RepairConfig};
use crate::stats::{LinkChange, OnlineStore, Pricing, SearchCosts};
use crate::stream::{EpochMeasurement, MeasurementStream};
use crate::trace;

/// Default capacity of the advisor's in-memory event ring
/// ([`OnlineAdvisorConfig::event_capacity`]): generous enough that every
/// in-repo consumer sees its full history, small enough that a
/// weeks-long loop cannot grow without bound.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// How the advisor spends its per-epoch probe budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbePolicy {
    /// The stream's own full tournament sweep every epoch — O(m²) probe
    /// pairs (the PR 2 behaviour).
    Uniform,
    /// Trigger-driven focusing: probe only the candidate-pool clique,
    /// the links the detectors flagged last epoch, and links whose
    /// estimate has gone stale — O(K² + flagged) pairs — and fall back to
    /// a full tournament sweep on escalation or staleness.
    ///
    /// The probe pool comes from the advisor's candidates config (the
    /// adaptive controller's current `k` when one is live); without a
    /// candidates config — repairs then search every instance — the probe
    /// pool is a default `2·n` instances. When
    /// the pool covers every instance — small allocations, or `k` near
    /// `m` — the plan degenerates to a full sweep: still correct, just
    /// not cheaper than [`ProbePolicy::Uniform`].
    Focused {
        /// Staleness horizon in epochs: a link unobserved for more than
        /// this many epochs re-enters the probe plan. Because focused
        /// rounds skip non-candidate links together, they also go stale
        /// together, so the plan escalates to a periodic full refresh
        /// roughly every `refresh_every` epochs.
        refresh_every: u64,
        /// Escalation threshold: when the detectors flag more links than
        /// this in one epoch, the shift is not local — the next round runs
        /// a full tournament sweep instead of a focused one.
        max_flagged: usize,
    },
}

/// Configuration of the online control loop.
#[derive(Debug, Clone)]
pub struct OnlineAdvisorConfig {
    /// Deployment cost function to watch and optimize.
    pub objective: Objective,
    /// EWMA smoothing factor for per-link epoch means.
    pub ewma_alpha: f64,
    /// Change-point detector settings (shared by all links).
    pub detector: DetectorConfig,
    /// Migration economics: minimum relative gain and per-node cost.
    pub policy: RedeployPolicy,
    /// Migration budget `k` per re-solve: at most `k` nodes move.
    pub migration_budget: usize,
    /// Wall-clock budget per incremental re-solve (seconds).
    pub solve_seconds: f64,
    /// Worker threads per re-solve (0 = all cores).
    pub threads: usize,
    /// Base RNG seed for re-solves.
    pub seed: u64,
    /// Candidate pruning for the incremental re-solves (see
    /// [`cloudia_solver::candidates`]): keeps repairs cheap when the spare
    /// pool is large. A [`PoolPolicy::Adaptive`] policy here instantiates
    /// a live [`AdaptivePool`] controller: `k` grows when escalations are
    /// frequent (full-sweep probe escalations, triggered repairs that find
    /// nothing inside the pool while an opportunity alarm points outside
    /// it) and shrinks on stationary stretches, and the focused probe
    /// plan shrinks with it. `None` repairs over every instance (the exact
    /// pool, [`CandidateConfig::fixed`] at the instance count) while
    /// focused probing and mid-sweep pruning still rank a `2·n` pool.
    pub candidates: Option<CandidateConfig>,
    /// Probe budget policy: uniform full sweeps or trigger-driven
    /// focusing. Focusing only takes effect through
    /// [`OnlineAdvisor::run`]/[`OnlineAdvisor::step_stream`] — a caller
    /// that measures epochs itself and calls [`OnlineAdvisor::step`]
    /// directly owns its probe scheduling (consult
    /// [`OnlineAdvisor::next_probe_plan`]).
    pub probe_policy: ProbePolicy,
    /// Consecutive round trips per pair within one focused stage
    /// (staged's Ks); match the uniform stream's scheme for fair budget
    /// comparisons.
    pub probe_ks: usize,
    /// Sweeps per focused round. Directions alternate between sweeps, so
    /// a [`ProbePolicy::Focused`] advisor requires at least 2 — with a
    /// single sweep the reverse direction of every pair would stay
    /// unobserved forever (and hence permanently stale).
    pub probe_sweeps: usize,
    /// Mid-sweep tournament pruning: epochs measured through
    /// [`OnlineAdvisor::step_stream`]/[`OnlineAdvisor::run`] execute
    /// stage by stage on the streaming driver
    /// ([`cloudia_measure::StageDriver`]), and between stages a
    /// [`CandidatePruneRule`] drops pairs with an endpoint the partial
    /// statistics already place outside every node's candidate pool — by
    /// point quantiles, or by interval separation when `confidence` is
    /// set.
    /// Deployed links, detector-flagged links, and links owed a
    /// staleness refresh are never pruned; under-measured instances
    /// cannot be proven out. Works under both probe policies. Round
    /// trips saved are re-invested into deeper sampling of flagged links
    /// (`probe_ks` escalation) rather than banked.
    pub prune_during_sweep: bool,
    /// Staleness horizon (epochs) protecting pairs from mid-sweep
    /// pruning under [`ProbePolicy::Uniform`]: a pair unobserved longer
    /// than this re-enters the sweep un-prunable, bounding every link's
    /// estimate age exactly like focused probing's refresh. Under
    /// [`ProbePolicy::Focused`] the policy's own `refresh_every` is used
    /// instead.
    pub prune_refresh_every: u64,
    /// Spot-check confirmation: when > 0 and the stream supports
    /// per-link probing ([`MeasurementStream::spot_check`]), a
    /// degradation alarm on a deployed link is confirmed with this many
    /// fresh single-link RTT samples *before* it may trigger a repair —
    /// a measurement glitch is cheaper to refute with a handful of
    /// probes now than with a wasted re-solve (or by waiting a full
    /// epoch for the next sweep). The alarm is confirmed when the spot
    /// mean still sits at least halfway between the pre-alarm baseline
    /// and the alarm level. Spot probes are charged to the probe budget;
    /// once one alarm confirms, later alarms in the same epoch skip the
    /// probes (the trigger verdict is already settled). 0 disables the
    /// path; [`OnlineAdvisor::step`] (no stream access) always behaves
    /// as if it were 0.
    pub spot_check_probes: usize,
    /// Record every trigger's (pool, incumbent) so a harness can replay
    /// the same instances against a cold solver (timing comparisons).
    pub record_triggers: bool,
    /// Sender timeout (ms) used to price packet loss into costs: both
    /// the ground-truth cost curve and the re-solve's search costs charge
    /// a lossy link its *expected completion time* — mean plus expected
    /// timeouts (see [`cloudia_netsim::Network::effective_mean_matrix`]).
    /// On a loss-free network this changes nothing. Match the measurement
    /// plane's [`cloudia_measure::MeasureConfig::timeout_ms`].
    pub timeout_ms: f64,
    /// Loss awareness of the control loop (default on). When off, the
    /// advisor behaves like the pre-loss loop: darkness alarms are logged
    /// as plain changes but never confirmed, never trigger an
    /// evacuation, and the search costs ignore the loss EWMAs. Exists so
    /// the `ext_loss` bench can run an honest loss-*blind* baseline arm
    /// against the same lossy ground truth (the cost curve still prices
    /// loss — the world is lossy whether or not the advisor believes it).
    pub loss_aware: bool,
    /// Confidence level in (0, 1) for the error-bounded decision layer
    /// (`None` disables it — the default, preserving the point-estimate
    /// loop bit for bit). When set, three decision sites start consuming
    /// confidence intervals instead of point estimates:
    /// the mid-sweep [`CandidatePruneRule`] runs at this confidence
    /// ([`CandidatePruneRule::with_confidence`], indifference margin
    /// `1 − confidence`) and condemns a pair only when an endpoint's CI
    /// *lower*-bound score sits provably outside every candidate pool;
    /// detector alarms must clear the
    /// link's CI half-width ([`OnlineStore::mean_half_width`]) before
    /// they count as degradations/opportunities (unseparated alarms are
    /// still logged and still focus probes — they just cannot trigger
    /// redeployment economics); and a repair must clear the min-gain bar
    /// *plus* the widest deployed-link half-width, so a migration is
    /// never bought with a gain the measurement error could explain.
    pub confidence: Option<f64>,
    /// Anytime sweeps (requires `confidence` and `prune_during_sweep`, or
    /// [`OnlineAdvisor::new`] panics):
    /// epoch sweeps stop a stage early once every remaining prune/pool
    /// decision is CI-stable — each instance provably in or provably out
    /// of every pool at the configured confidence (the epoch's
    /// [`CandidatePruneRule`] is its stop rule too; see
    /// [`cloudia_measure::run_anytime`]). Rounds saved land in the same
    /// `saved_round_trips` ledger pruning uses. Off by default.
    pub anytime: bool,
    /// Capacity of the in-memory event ring ([`OnlineAdvisor::events`]):
    /// once full, the oldest events are evicted (the ring reports how
    /// many). 0 keeps every event forever — the pre-telemetry behaviour,
    /// unbounded on a long-running loop. Attach a
    /// [`cloudia_obs::RunRecorder`] via
    /// [`OnlineAdvisor::attach_recorder`] to stream the *full* history
    /// to disk regardless of the cap.
    pub event_capacity: usize,
}

impl Default for OnlineAdvisorConfig {
    fn default() -> Self {
        Self {
            objective: Objective::LongestLink,
            ewma_alpha: 0.3,
            detector: DetectorConfig::default(),
            policy: RedeployPolicy::default(),
            migration_budget: 3,
            solve_seconds: 1.0,
            threads: 1,
            seed: 0,
            candidates: None,
            probe_policy: ProbePolicy::Uniform,
            probe_ks: 3,
            probe_sweeps: 2,
            prune_during_sweep: false,
            prune_refresh_every: 8,
            spot_check_probes: 0,
            record_triggers: false,
            timeout_ms: cloudia_netsim::DEFAULT_TIMEOUT_MS,
            loss_aware: true,
            confidence: None,
            anytime: false,
            event_capacity: DEFAULT_EVENT_CAPACITY,
        }
    }
}

/// One entry of the online advisor's event log.
#[derive(Debug, Clone)]
pub enum OnlineEvent {
    /// An epoch was ingested.
    Epoch {
        /// Epoch index.
        epoch: u64,
        /// Simulated hours at the end of the epoch.
        at_hours: f64,
        /// Round trips the epoch's measurement collected.
        round_trips: u64,
        /// Estimated (EWMA) cost of the active plan.
        est_cost: f64,
        /// Ground-truth cost of the active plan.
        true_cost: f64,
    },
    /// A link's change detector fired.
    Change {
        /// Epoch index.
        epoch: u64,
        /// The changed link.
        change: LinkChange,
        /// True if the link is used by the active plan.
        on_deployed_link: bool,
    },
    /// An incremental re-solve ran.
    Resolve {
        /// Epoch index.
        epoch: u64,
        /// Nodes the repair freed.
        freed: Vec<u32>,
        /// Nodes the repaired plan would move.
        moved: usize,
        /// Estimated absolute gain (old est − new est).
        est_gain: f64,
        /// Wall-clock seconds the re-solve took.
        solve_seconds: f64,
        /// Whether the repair was applied.
        accepted: bool,
    },
    /// The active plan migrated to a repaired one.
    Migrate {
        /// Epoch index.
        epoch: u64,
        /// Nodes that moved.
        moved: usize,
        /// Ground-truth cost before/after the migration.
        true_cost_before: f64,
        /// Ground-truth cost after the migration.
        true_cost_after: f64,
    },
    /// The adaptive candidate pool changed size.
    PoolResize {
        /// Epoch index.
        epoch: u64,
        /// Pool size before the adjustment.
        from: usize,
        /// Pool size after the adjustment.
        to: usize,
        /// The escalation-rate EWMA that drove it.
        rate: f64,
    },
    /// Mid-sweep pruning dropped pairs from the epoch's measurement.
    SweepPruned {
        /// Epoch index.
        epoch: u64,
        /// Distinct pairs dropped mid-sweep.
        dropped_pairs: usize,
        /// Estimated round trips saved.
        saved_round_trips: u64,
    },
    /// A link went dark: its loss triage crossed the darkness level (all
    /// probes swallowed), distinct from a latency shift — the repair for
    /// darkness is evacuating the instance, not weighing a migration on
    /// latency economics.
    LinkDark {
        /// Epoch index.
        epoch: u64,
        /// Source instance of the dark link.
        src: u32,
        /// Destination instance of the dark link.
        dst: u32,
        /// The link's smoothed loss rate at alarm time.
        loss_rate: f64,
        /// Whether fresh spot probes confirmed the darkness (always true
        /// when the stream cannot spot-probe or spot checking is off).
        confirmed: bool,
    },
    /// Dark-instance evacuation: every node hosted on the presumed-dark
    /// instances was freed and re-placed elsewhere.
    Evacuate {
        /// Epoch index.
        epoch: u64,
        /// The instances presumed dark.
        instances: Vec<u32>,
        /// Nodes that moved off them.
        moved: usize,
    },
    /// A spot check confirmed or refuted a degradation alarm before any
    /// repair was considered.
    SpotCheck {
        /// Epoch index.
        epoch: u64,
        /// Source instance of the suspicious link.
        src: u32,
        /// Destination instance of the suspicious link.
        dst: u32,
        /// Mean of the fresh spot probes (ms).
        mean: f64,
        /// Whether the shift was confirmed (unconfirmed alarms cannot
        /// trigger a repair).
        confirmed: bool,
    },
    /// Round trips saved by pruning were re-invested into deeper
    /// sampling of flagged links.
    DeepProbe {
        /// Epoch index the deepened round will measure.
        epoch: u64,
        /// Flagged pairs deepened.
        pairs: usize,
        /// The per-pair round-trip quota they were raised to.
        ks: usize,
    },
    /// The epoch was held: the store's estimates could not be turned into
    /// search costs (a non-finite sample poisoned a link's EWMA), so no
    /// repair was decided on them and the plan stayed as it was.
    Held {
        /// Epoch index.
        epoch: u64,
        /// What the cost plane rejected.
        error: CostError,
    },
}

/// One trigger's search instance, for offline replay (cold-vs-incremental
/// timing comparisons).
#[derive(Debug, Clone)]
pub struct TriggerInstance {
    /// Epoch index of the trigger.
    pub epoch: u64,
    /// The sub-problem the re-solve searched: the repair pool, priced
    /// at the estimated costs.
    pub pool: PrunedProblem,
    /// The incumbent at trigger time.
    pub incumbent: Deployment,
}

/// Per-epoch summary returned by [`OnlineAdvisor::step`].
#[derive(Debug, Clone, Copy)]
pub struct EpochSummary {
    /// Epoch index.
    pub epoch: u64,
    /// Simulated hours at the end of the epoch.
    pub at_hours: f64,
    /// Estimated (EWMA) cost of the active plan.
    pub est_cost: f64,
    /// Ground-truth cost of the active plan (after any migration).
    pub true_cost: f64,
    /// Whether a re-solve was triggered this epoch.
    pub triggered: bool,
    /// Nodes migrated this epoch (0 if none).
    pub moved: usize,
    /// Probe round trips the epoch's measurement spent.
    pub round_trips: u64,
    /// Round trips mid-sweep pruning saved this epoch (0 without
    /// `prune_during_sweep`).
    pub saved_round_trips: u64,
}

/// What the triage phase concluded from one epoch's alarms.
#[derive(Debug, Clone, Default)]
struct Alarms {
    /// A confirmed, CI-separated upward shift on a deployed link.
    degradation: bool,
    /// The unused links with a CI-separated downward shift.
    opportunities: Vec<(u32, u32)>,
}

/// Why the repair phase runs.
#[derive(Debug)]
enum Trigger {
    /// Free and re-place the nodes on these presumed-dark instances.
    Evacuate(Vec<u32>),
    /// A degradation or opportunity alarm (at most one re-solve per
    /// epoch), with the epoch's opportunity links.
    Alarm(Vec<(u32, u32)>),
}

/// What the repair phase did.
#[derive(Debug, Default)]
struct Repaired {
    /// A re-solve ran (alarm-triggered or evacuation).
    triggered: bool,
    /// The re-solve was an evacuation.
    evacuated: bool,
    /// Nodes migrated (0 when nothing ran or the repair was declined).
    moved: usize,
    /// The re-solve found no improving move inside the candidate pool,
    /// though an opportunity alarm pointed outside it (or an evacuation
    /// found nowhere to go).
    unanswered: bool,
    /// Instances in the re-solve's sub-problem (0 when nothing ran).
    pool: usize,
}

/// Where the accounting phases read ground truth: a network the caller
/// passed in, or a stream that first brings the priced instances' links
/// up to date ([`MeasurementStream::truth`]).
enum Truth<'a> {
    Network(&'a Network),
    Stream(&'a mut dyn MeasurementStream),
}

impl Truth<'_> {
    /// The ground truth with every link among `instances` current.
    fn over(&mut self, instances: &[u32]) -> &Network {
        match self {
            Truth::Network(net) => net,
            Truth::Stream(stream) => stream.truth(instances),
        }
    }
}

/// The continuous deployment advisor.
#[derive(Debug)]
pub struct OnlineAdvisor {
    graph: CommGraph,
    config: OnlineAdvisorConfig,
    store: OnlineStore,
    deployment: Deployment,
    epoch: u64,
    last_resolve: Option<u64>,
    /// Bounded in-memory event ring; the full history survives only in
    /// an attached recorder's trace file.
    events: RingLog<OnlineEvent>,
    /// Optional JSONL sink streaming every event and epoch summary.
    recorder: Option<RunRecorder>,
    total_true_cost: f64,
    migration_cost_paid: f64,
    moved_total: u64,
    triggers: Vec<TriggerInstance>,
    /// Directed links flagged by the detectors during the most recent
    /// step — the next probe plan's must-probe set.
    recent_flags: Vec<(u32, u32)>,
    /// The epoch number the *next* measurement will carry, in the
    /// stream's numbering (`last ingested m.epoch + 1`) — the reference
    /// point for staleness ages. Kept separate from the local step count
    /// so callers whose streams start at a nonzero epoch still age links
    /// correctly.
    planning_epoch: u64,
    /// Live adaptive-pool controller (only with a
    /// [`PoolPolicy::Adaptive`] candidates config).
    adaptive: Option<AdaptivePool>,
    probe_round_trips: u64,
    /// Round trips the most recent epoch's mid-sweep pruning saved — the
    /// budget the next focused round may re-invest into deeper flagged
    /// sampling.
    last_saved_round_trips: u64,
    /// Total round trips saved by mid-sweep pruning across all epochs.
    saved_round_trips_total: u64,
    /// Total extra round trips spent deepening flagged links.
    deep_probe_rounds: u64,
    /// Focused loops only (no other setting plans a pool): the focused
    /// plan's pool evidence over the store, re-priced in `ingest` from
    /// each epoch's deltas instead of rebuilt per plan.
    plan_index: Option<PoolIndex<1>>,
    /// The repair's search costs over the store, kept from each epoch's
    /// deltas: what the epoch's hold verdict, estimated cost and repair
    /// pool read, without a dense matrix per epoch.
    costs: SearchCosts,
    /// Pruned loops only: the sweep rule's evidence over the stream's
    /// cumulative statistics, point or interval, handed to every epoch's
    /// rule. It syncs from the statistics' touch log across epochs and
    /// rebuilds only where the log overran or the statistics are another
    /// history (a clone).
    rule_index: Option<SharedIndex>,
}

/// Whether any of `links` has an endpoint outside `pool`, the sorted
/// candidate union a repair searched: an opportunity the repair could not
/// use. A pool of every instance has no outside.
fn outside_pool(pool: &[u32], links: &[(u32, u32)]) -> bool {
    let inside = |j: u32| pool.binary_search(&j).is_ok();
    links.iter().any(|&(a, b)| !inside(a) || !inside(b))
}

impl OnlineAdvisor {
    /// Starts the loop with an already-deployed plan over `instances`
    /// instances.
    ///
    /// # Panics
    /// Panics if the initial plan does not cover the graph, references
    /// instances beyond the allocation, a [`ProbePolicy::Focused`] policy
    /// has `refresh_every == 0`, `anytime` is set without both
    /// `confidence` and `prune_during_sweep` (a sweep that can never stop
    /// early), or `timeout_ms` is negative or not finite.
    pub fn new(
        graph: CommGraph,
        instances: usize,
        initial: Deployment,
        config: OnlineAdvisorConfig,
    ) -> Self {
        assert_eq!(initial.len(), graph.num_nodes(), "initial plan must cover every node");
        assert!(
            initial.iter().all(|&j| (j as usize) < instances),
            "initial plan references instances beyond the allocation"
        );
        if let ProbePolicy::Focused { refresh_every, .. } = config.probe_policy {
            assert!(refresh_every > 0, "refresh_every must be at least 1 epoch");
            assert!(
                config.probe_sweeps >= 2,
                "focused probing needs probe_sweeps >= 2: directions alternate between sweeps, \
                 so a single sweep never observes the reverse direction of any pair"
            );
        }
        assert!(
            config.probe_ks > 0 && config.probe_sweeps > 0,
            "probe_ks and probe_sweeps must be positive"
        );
        assert!(
            !config.anytime || (config.confidence.is_some() && config.prune_during_sweep),
            "anytime needs both confidence and prune_during_sweep, or it never stops early"
        );
        assert!(
            (0.0..f64::INFINITY).contains(&config.timeout_ms),
            "timeout_ms must be finite and non-negative"
        );
        let store = OnlineStore::new(instances, config.ewma_alpha, config.detector);
        let adaptive = match &config.candidates {
            Some(CandidateConfig { pool: PoolPolicy::Adaptive(acfg) }) => {
                Some(AdaptivePool::new(*acfg, graph.num_nodes(), instances))
            }
            _ => None,
        };
        let events = RingLog::new(config.event_capacity);
        let plan_index = matches!(config.probe_policy, ProbePolicy::Focused { .. }).then(|| {
            let mut index = PoolIndex::default();
            store.sync_pool_index(&mut index, std::iter::empty());
            index
        });
        let rule_index = config.prune_during_sweep.then(SharedIndex::default);
        let pricing = Pricing { loss_aware: config.loss_aware, timeout_ms: config.timeout_ms };
        let costs = SearchCosts::new(pricing);
        Self {
            graph,
            config,
            store,
            deployment: initial,
            epoch: 0,
            last_resolve: None,
            events,
            recorder: None,
            total_true_cost: 0.0,
            migration_cost_paid: 0.0,
            moved_total: 0,
            triggers: Vec::new(),
            recent_flags: Vec::new(),
            planning_epoch: 0,
            adaptive,
            probe_round_trips: 0,
            last_saved_round_trips: 0,
            saved_round_trips_total: 0,
            deep_probe_rounds: 0,
            plan_index,
            costs,
            rule_index,
        }
    }

    /// The currently active plan.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The online statistics store.
    pub fn store(&self) -> &OnlineStore {
        &self.store
    }

    /// The in-memory event log: a ring bounded by
    /// [`OnlineAdvisorConfig::event_capacity`] (its
    /// [`dropped`](RingLog::dropped) count says how many older events
    /// were evicted). Attach a recorder for the full history.
    pub fn events(&self) -> &RingLog<OnlineEvent> {
        &self.events
    }

    /// Attaches a [`RunRecorder`]: from now on every [`OnlineEvent`] is
    /// streamed to it as a `"event"` record and every
    /// [`EpochSummary`] as an `"epoch"` record, the moment they happen —
    /// the full history survives on disk even after the in-memory ring
    /// evicts. Replaces (and returns) any previously attached recorder.
    pub fn attach_recorder(&mut self, recorder: RunRecorder) -> Option<RunRecorder> {
        self.recorder.replace(recorder)
    }

    /// Detaches the recorder, if any, so the caller can
    /// [`finish`](RunRecorder::finish) it.
    pub fn take_recorder(&mut self) -> Option<RunRecorder> {
        self.recorder.take()
    }

    /// The attached recorder, if any — for interleaving extra records
    /// (notes, metrics snapshots) with the advisor's own stream.
    pub fn recorder_mut(&mut self) -> Option<&mut RunRecorder> {
        self.recorder.as_mut()
    }

    /// Logs an event: stream to the attached recorder first (full
    /// history), then into the bounded in-memory ring.
    fn push_event(&mut self, event: OnlineEvent) {
        if let Some(rec) = &mut self.recorder {
            rec.record("event", trace::event_to_json(&event));
        }
        self.events.push(event);
    }

    /// Recorded trigger instances (only with `record_triggers`).
    pub fn trigger_instances(&self) -> &[TriggerInstance] {
        &self.triggers
    }

    /// Total migration cost paid so far (policy units).
    pub fn migration_cost_paid(&self) -> f64 {
        self.migration_cost_paid
    }

    /// Total probe round trips ingested across all epochs — the
    /// measurement budget actually spent, for uniform-vs-focused
    /// comparisons.
    pub fn probe_round_trips(&self) -> u64 {
        self.probe_round_trips
    }

    /// Total round trips mid-sweep pruning saved across all epochs (0
    /// unless `prune_during_sweep` is on).
    pub fn sweep_saved_round_trips(&self) -> u64 {
        self.saved_round_trips_total
    }

    /// Total extra round trips re-invested into deeper sampling of
    /// flagged links (the `probe_ks` escalation; 0 unless pruning saved
    /// budget while links were flagged).
    pub fn deep_probe_round_trips(&self) -> u64 {
        self.deep_probe_rounds
    }

    /// The adaptive pool's current `k` (None without an adaptive
    /// candidates config).
    pub fn adaptive_k(&self) -> Option<usize> {
        self.adaptive.as_ref().map(AdaptivePool::k)
    }

    /// The adaptive pool's escalation-rate EWMA (None without an adaptive
    /// candidates config).
    pub fn escalation_rate(&self) -> Option<f64> {
        self.adaptive.as_ref().map(AdaptivePool::escalation_rate)
    }

    /// The candidate configuration the next re-solve will run with: the
    /// adaptive controller's current `k`, the configured pool, or — with
    /// none configured — every instance.
    fn effective_candidates(&self) -> CandidateConfig {
        match &self.adaptive {
            Some(pool) => pool.effective(),
            None => self.config.candidates.unwrap_or(CandidateConfig::fixed(self.store.len())),
        }
    }

    /// The pool size focused probing and mid-sweep pruning rank: the
    /// repair's, or a default `2n` without a candidates config.
    fn probe_candidates(&self) -> CandidateConfig {
        match self.config.candidates {
            Some(_) => self.effective_candidates(),
            None => CandidateConfig::fixed(2 * self.graph.num_nodes()),
        }
    }

    /// The probe plan the next focused epoch would execute, given
    /// everything the advisor currently knows: the candidate-pool clique,
    /// every link the detectors flagged in the most recent step, and every
    /// link whose estimate has gone stale. Returns `None` under
    /// [`ProbePolicy::Uniform`] (the stream's own full sweep runs
    /// instead).
    ///
    /// Escalation: when the last step flagged more links than
    /// `max_flagged`, the shift is not local and the plan is the full
    /// tournament sweep. Staleness subsumes bootstrap: before the first
    /// sweep every link is unobserved, hence infinitely stale, hence the
    /// first plan is always full.
    pub fn next_probe_plan(&self) -> Option<ProbePlan> {
        self.probe_plan_with(&OnceCell::new())
    }

    /// [`OnlineAdvisor::next_probe_plan`], reading the stale pairs from
    /// `stale` (filled on first use).
    fn probe_plan_with(&self, stale: &OnceCell<Vec<(u32, u32)>>) -> Option<ProbePlan> {
        let ProbePolicy::Focused { max_flagged, .. } = self.config.probe_policy else {
            return None;
        };
        let m = self.store.len();
        if self.recent_flags.len() > max_flagged {
            return Some(ProbePlan::full(m));
        }
        let mut plan = ProbePlan::new(m);
        plan.add_clique(self.probe_pool()?.union());
        // Detector-flagged links always re-enter the plan.
        for &(src, dst) in &self.recent_flags {
            plan.add_pair(src, dst);
        }
        // Stale links re-enter too; skipped links age out together, so
        // this escalates to a periodic full refresh on its own.
        for &(a, b) in self.stale_pairs(stale) {
            plan.add_pair(a, b);
        }
        Some(plan)
    }

    /// The pairs owed a staleness refresh this epoch, scanned from the
    /// store into `stale` on first use: the focused plan re-enters them
    /// and the prune rule protects them, at one horizon.
    fn stale_pairs<'a>(&self, stale: &'a OnceCell<Vec<(u32, u32)>>) -> &'a [(u32, u32)] {
        let horizon = match self.config.probe_policy {
            ProbePolicy::Focused { refresh_every, .. } => refresh_every,
            ProbePolicy::Uniform => self.config.prune_refresh_every.max(1),
        };
        stale.get_or_init(|| self.store.stale_pairs(self.planning_epoch, horizon))
    }

    /// The candidate pool whose clique the next focused plan probes:
    /// where any repair could ever land, so probing it keeps every
    /// potential destination's costs fresh. The incumbent is
    /// force-included, so all deployed links stay covered. `None` under
    /// [`ProbePolicy::Uniform`].
    ///
    /// The pool comes from the measured quantiles alone (unobserved links
    /// exert no pull; a dark link prices at +∞; an instance below
    /// [`CandidatePruneRule::DEFAULT_MIN_COVERAGE`] is kept), ranked off
    /// the index `ingest` keeps up to date from each epoch's deltas
    /// ([`CandidateSet::from_index`]) — with or without mid-sweep pruning,
    /// and on an epoch held for want of search costs alike.
    ///
    /// Without a candidates config the pool is a default `2n` — the auto
    /// solver pool (max(4n, 48)) is sized for thousand-instance solves
    /// and would cover every instance at typical allocations, silently
    /// degrading focused probing to uniform sweeps.
    pub fn probe_pool(&self) -> Option<CandidateSet> {
        let index = self.plan_index.as_ref()?;
        Some(CandidateSet::from_index(
            self.graph.num_nodes(),
            index,
            &self.probe_candidates(),
            Some(&self.deployment),
            None,
            CandidatePruneRule::DEFAULT_MIN_COVERAGE,
        ))
    }

    /// The scheme the next [`OnlineAdvisor::step_stream`] epoch will
    /// measure with, or `None` for the stream's own uniform sweep.
    pub fn next_probe_scheme(&self) -> Option<FocusedScheme> {
        self.probe_scheme_with(&OnceCell::new())
    }

    /// [`OnlineAdvisor::next_probe_scheme`] over `stale`.
    fn probe_scheme_with(&self, stale: &OnceCell<Vec<(u32, u32)>>) -> Option<FocusedScheme> {
        self.probe_plan_with(stale)
            .map(|plan| FocusedScheme::new(plan, self.config.probe_ks, self.config.probe_sweeps))
    }

    /// The instance links the active plan occupies, one `(src, dst)` per
    /// communication edge.
    fn deployed_links(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.graph
            .edges()
            .iter()
            .map(|&(a, b)| (self.deployment[a as usize], self.deployment[b as usize]))
    }

    /// The prune rule the next [`OnlineAdvisor::step_stream`] epoch will
    /// evaluate between measurement stages, or `None` when
    /// `prune_during_sweep` is off. The rule condemns pairs with an
    /// endpoint outside every node's candidate pool — on the partial
    /// quantiles, or, with a `confidence` level configured, only on CI
    /// separation at that level (a one-sample or dark link has an
    /// unbounded interval and can never be condemned) — and protects the
    /// deployed links, everything the detectors just flagged, and every
    /// pair owed a staleness refresh. With `anytime` on, the same rule is
    /// the epoch's stop rule ([`OnlineAdvisor::sweep_stop_rule`]), and
    /// only deployed and flagged pairs keep probing after it fires. Every
    /// such rule reads the evidence index the advisor keeps for the whole
    /// run; evaluated on other statistics (a clone) it rebuilds that
    /// index, with the same verdicts.
    pub fn sweep_prune_rule(&self) -> Option<CandidatePruneRule> {
        self.prune_rule_with(&OnceCell::new())
    }

    /// [`OnlineAdvisor::sweep_prune_rule`] over `stale`.
    fn prune_rule_with(&self, stale: &OnceCell<Vec<(u32, u32)>>) -> Option<CandidatePruneRule> {
        if !self.config.prune_during_sweep {
            return None;
        }
        let mut rule = CandidatePruneRule::new(self.graph.num_nodes(), self.probe_candidates())
            .with_incumbent(&self.deployment);
        if let Some(confidence) = self.config.confidence {
            // Its `1 − confidence` indifference margin mirrors the anytime
            // error bound: an ε-tie at the pool boundary costs at most what
            // the contract already concedes, so it may be settled rather
            // than probed forever.
            rule = rule.with_confidence(confidence);
        }
        if let Some(index) = &self.rule_index {
            rule = rule.with_index(index);
        }
        if self.config.anytime {
            // Stale pairs are not kept at depth after the stop: the
            // plateau cannot fire before a sweep-equivalent of fresh
            // samples — their refresh included — has landed.
            let keep = self.deployed_links().chain(self.recent_flags.iter().copied());
            rule = rule.with_must_keep(keep);
        }
        // Deployed links are candidates by force-inclusion already, but
        // the never-pruned guarantee should not hinge on that.
        for (a, b) in self.deployed_links() {
            rule.protect_pair(a, b);
        }
        for &(src, dst) in &self.recent_flags {
            rule.protect_pair(src, dst);
        }
        for &(a, b) in self.stale_pairs(stale) {
            rule.protect_pair(a, b);
        }
        Some(rule)
    }

    /// [`OnlineAdvisor::sweep_prune_rule`] when it demands CI evidence —
    /// `None` unless both `prune_during_sweep` and `confidence` are set.
    pub fn sweep_ci_prune_rule(&self) -> Option<CandidatePruneRule> {
        self.config.confidence?;
        self.sweep_prune_rule()
    }

    /// The anytime stop rule for the next epoch, or `None` unless
    /// `anytime` is set (which implies `confidence` and
    /// `prune_during_sweep`): the epoch's
    /// [`OnlineAdvisor::sweep_prune_rule`], which as a [`StopRule`] lets
    /// the sweep end a stage early only once every instance is provably
    /// inside or outside every candidate pool at the configured confidence
    /// — or a sweep-equivalent of fresh samples moved no verdict. After the
    /// stop fires, only deployed and recently flagged links keep probing
    /// (they feed the change detectors every epoch).
    pub fn sweep_stop_rule(&self) -> Option<CandidatePruneRule> {
        self.sweep_prune_rule().filter(|_| self.config.anytime)
    }

    /// The widest *finite* CI half-width across the links the current
    /// deployment actually uses (both directions), at the configured
    /// confidence — the uncertainty floor a repair's estimated gain must
    /// clear on top of the relative min-gain bar. 0 when `confidence` is
    /// unset (the legacy point-estimate economics) or when no deployed
    /// link has a bounded interval yet (nothing quantified, nothing to
    /// charge: the min-gain bar still applies).
    fn deployed_ci_margin(&self) -> f64 {
        let Some(conf) = self.config.confidence else {
            return 0.0;
        };
        let mut margin: f64 = 0.0;
        for &(a, b) in self.graph.edges() {
            let i = self.deployment[a as usize] as usize;
            let j = self.deployment[b as usize] as usize;
            for (s, d) in [(i, j), (j, i)] {
                let hw = self.store.mean_half_width(s, d, conf);
                if hw.is_finite() {
                    margin = margin.max(hw);
                }
            }
        }
        margin
    }

    /// `probe_ks` escalation: raises the flagged links' per-pair quota in
    /// `scheme` so the extra round trips consume (up to) what the last
    /// epoch's pruning saved, instead of banking the savings. Skipped
    /// when nothing was saved, nothing is flagged, or the plan is full
    /// (a full plan delegates to the stream's sweep).
    fn deepen_flagged(&mut self, scheme: &mut FocusedScheme) {
        if self.last_saved_round_trips == 0 || self.recent_flags.is_empty() {
            return;
        }
        let mut flagged: Vec<(u32, u32)> = self
            .recent_flags
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .filter(|&(a, b)| scheme.plan.contains(a, b))
            .collect();
        flagged.sort_unstable();
        flagged.dedup();
        if flagged.is_empty() {
            return;
        }
        // Spend savings evenly across sweeps and flagged pairs, capped
        // so one quiet link cannot be probed absurdly deep.
        let per_pair = self.last_saved_round_trips as usize
            / (self.config.probe_sweeps * flagged.len()).max(1);
        let extra = per_pair.min(3 * self.config.probe_ks);
        if extra == 0 {
            return;
        }
        let deep_ks = self.config.probe_ks + extra;
        scheme.deepen(&flagged, deep_ks);
        self.deep_probe_rounds += scheme.deep_extra_round_trips();
        self.push_event(OnlineEvent::DeepProbe {
            epoch: self.planning_epoch,
            pairs: flagged.len(),
            ks: deep_ks,
        });
    }

    /// Total nodes moved across all migrations.
    pub fn moved_total(&self) -> u64 {
        self.moved_total
    }

    /// Time-averaged deployment cost including amortized migrations:
    /// `(Σ per-epoch true cost + migration cost paid) / epochs`.
    pub fn time_averaged_cost(&self) -> f64 {
        if self.epoch == 0 {
            return 0.0;
        }
        (self.total_true_cost + self.migration_cost_paid) / self.epoch as f64
    }

    /// The estimated cost of the active plan: the objective over the
    /// search costs of the deployment's own links.
    ///
    /// The search costs price a link at its EWMA mean, never-observed
    /// links at the worst observed mean (pessimism keeps the solver away
    /// from links it knows nothing about), and packet loss in as
    /// *expected completion time*: a link with loss-rate EWMAs `p` (per
    /// direction) costs its mean plus the expected timeouts
    /// ([`cloudia_netsim::loss_priced_mean`]) — the rule
    /// [`Network::effective_mean`] prices the ground truth by, fed the
    /// store's own estimates. A dark link (loss → 1, success floored at
    /// 1%) prices at ~99 timeouts, so ranking-based consumers
    /// ([`select_free_nodes`](crate::repair::select_free_nodes), candidate
    /// pools, the evacuation re-solve) push away from dark instances on
    /// cost alone. Loss-free links are priced exactly as before. The
    /// store ingests a non-finite sample as sampleless, so its means stay
    /// finite; the means are still measurement values, though, and a
    /// negative one (or an EWMA that overflowed) is a cost the cost plane
    /// rejects — an epoch the caller holds ([`SearchCosts::held`]), not a
    /// panic.
    fn deployment_cost(&self) -> f64 {
        let costs = self.costs.matrix(&self.store, &self.deployment);
        let identity: Vec<u32> = (0..self.deployment.len() as u32).collect();
        self.graph.problem(costs).cost(self.config.objective, &identity)
    }

    /// Instances presumed dark: unreachable (a dark link in either
    /// direction) from **two or more distinct neighbours**, and from **a
    /// majority of the neighbours ever attempted**. A single dark pair
    /// only proves a link blackout — either endpoint could be at fault,
    /// and evacuating on it would guess; two distinct unreachable
    /// neighbours localize the fault to the shared instance. The majority
    /// clause keeps a healthy instance that merely *borders* several dark
    /// instances from being condemned by association.
    fn dark_instances(&self) -> Vec<u32> {
        (0..self.store.len() as u32).filter(|&i| self.instance_dark(i)).collect()
    }

    /// Whether instance `i` is presumed dark (see
    /// [`OnlineAdvisor::dark_instances`]): one O(m) walk over two columns.
    fn instance_dark(&self, i: u32) -> bool {
        let (n, i) = (self.store.len(), i as usize);
        let (tried, dark) = (&self.store.attempted, &self.store.dark);
        let (attempted, unreachable) = (0..n)
            .filter(|&j| j != i)
            .map(|j| (i * n + j, j * n + i))
            .filter(|&(fwd, rev)| tried[fwd] > 0 || tried[rev] > 0)
            .fold((0, 0), |(a, u), (fwd, rev)| (a + 1, u + usize::from(dark[fwd] || dark[rev])));
        unreachable >= 2 && 2 * unreachable >= attempted
    }

    /// Ground-truth cost of `deployment` on `net`, priced as expected
    /// completion time under the configured timeout over the deployment's
    /// own links ([`ground_truth_cost`]).
    fn true_cost(&self, net: &Network, deployment: &[u32]) -> f64 {
        let (objective, timeout_ms) = (self.config.objective, self.config.timeout_ms);
        ground_truth_cost(net, &self.graph, objective, deployment, timeout_ms)
    }

    /// Ingests one epoch and runs the control loop. `net` is the current
    /// ground-truth network, used only for the cost curve and event log —
    /// the deployment priced as expected completion time under the
    /// configured timeout ([`Network::effective_mean`]; plain means on a
    /// loss-free network). Spot-check confirmation needs stream access
    /// and therefore only runs through [`OnlineAdvisor::step_stream`].
    ///
    /// A simulated stream drifts lazily, so its
    /// [`MeasurementStream::network`] is current only on the links the
    /// epoch could probe (every link after a full sweep) and those
    /// brought up to date through [`MeasurementStream::truth`]. A
    /// migration can land the deployment on links neither covers, and
    /// its target is unknown until this call returns, so `net` prices
    /// exactly only after a full sweep. Otherwise drive a lazy stream
    /// through [`OnlineAdvisor::step_stream`], which asks for the truth
    /// over the deployment before and after a migration, once the
    /// repair solve has picked it.
    pub fn step(&mut self, m: &EpochMeasurement, net: &Network) -> EpochSummary {
        let span = cloudia_obs::span!("online.step", epoch = m.epoch);
        let (changes, alarms) = self.sense(m, None);
        self.act(m, &changes, alarms, Truth::Network(net), span)
    }

    /// The control loop's first phases, ingest → triage. `spot` is the
    /// stream to draw single-link confirmation probes (RTT and loss
    /// trials) from, if spot checks are on; it is released before
    /// [`Self::act`] reads the stream's ground truth.
    fn sense(
        &mut self,
        m: &EpochMeasurement,
        spot: Option<&mut dyn MeasurementStream>,
    ) -> (Vec<LinkChange>, Alarms) {
        let changes = self.ingest(m);
        let alarms = self.triage(m.epoch, &changes, spot);
        (changes, alarms)
    }

    /// The rest of the control loop, decide → repair → account, closing
    /// the epoch's `online.step` span. `truth` is the ground truth (cost
    /// curve and event log only), asked for once the repair solve has
    /// settled which deployments it prices.
    fn act(
        &mut self,
        m: &EpochMeasurement,
        changes: &[LinkChange],
        alarms: Alarms,
        mut truth: Truth<'_>,
        mut span: cloudia_obs::SpanGuard,
    ) -> EpochSummary {
        let epoch = m.epoch;
        let probe_escalated = matches!(
            self.config.probe_policy,
            ProbePolicy::Focused { max_flagged, .. } if changes.len() > max_flagged
        );

        let held = self.costs.held(&self.store);
        let repaired = match &held {
            Ok(()) => {
                let trigger = self.decide(epoch, alarms);
                self.repair(epoch, trigger, &mut truth)
            }
            // Nothing to decide or repair on: hold the plan and say why.
            Err(error) => {
                self.push_event(OnlineEvent::Held { epoch, error: error.clone() });
                Repaired::default()
            }
        };
        let summary = self.account(m, probe_escalated, &repaired, held.is_ok(), &mut truth);

        // Control-loop telemetry at epoch grain: one span plus a handful
        // of counter bumps per step, nothing in the per-link loops.
        if cloudia_obs::enabled() {
            cloudia_obs::counter("online.steps", 1);
            cloudia_obs::counter("online.detector_fires", changes.len() as u64);
            cloudia_obs::counter("online.resolves", u64::from(summary.triggered));
            cloudia_obs::counter("online.migrations", u64::from(summary.moved > 0));
            cloudia_obs::counter("online.evacuations", u64::from(repaired.evacuated));
            cloudia_obs::counter("online.nodes_moved", summary.moved as u64);
            span.attr("fires", changes.len());
            span.attr("triggered", u64::from(summary.triggered));
            span.attr("moved", summary.moved);
            span.attr("true_cost", summary.true_cost);
            span.attr("repair_pool", repaired.pool);
        }
        drop(span);
        if let Some(rec) = &mut self.recorder {
            rec.record("epoch", trace::epoch_summary_to_json(&summary));
        }
        summary
    }

    /// Ingest: charge the epoch's probe budget, log the pruning ledger,
    /// fold the deltas into the store, and re-price the links they touched
    /// in the plan pool's index and the search costs. Returns the links
    /// whose detectors or dark triage fired.
    fn ingest(&mut self, m: &EpochMeasurement) -> Vec<LinkChange> {
        self.probe_round_trips += m.round_trips;
        self.planning_epoch = m.epoch + 1;
        self.last_saved_round_trips = m.saved_round_trips;
        self.saved_round_trips_total += m.saved_round_trips;
        if m.pruned_pairs > 0 || m.saved_round_trips > 0 {
            self.push_event(OnlineEvent::SweepPruned {
                epoch: m.epoch,
                dropped_pairs: m.pruned_pairs,
                saved_round_trips: m.saved_round_trips,
            });
        }
        let changes = self.store.observe_epoch(m);
        if let Some(index) = &mut self.plan_index {
            let n = self.store.len();
            let touched = m.deltas.iter().map(|d| d.src as usize * n + d.dst as usize);
            let built = index.rebuilds();
            self.store.sync_pool_index(index, touched);
            cloudia_obs::counter("online.plan_index_rebuilds", index.rebuilds() - built);
        }
        self.costs.ingest(&self.store, &m.deltas);
        changes
    }

    /// Triage: sort the epoch's alarms into darkness (confirmed with
    /// fresh loss trials; the repair decision is left to the
    /// dark-instance evacuation in [`Self::decide`]), degradations on
    /// deployed links (spot-checked before they may trigger) and
    /// opportunities on unused ones, log every one of them, and make
    /// them next epoch's must-probe set.
    fn triage(
        &mut self,
        epoch: u64,
        changes: &[LinkChange],
        mut spot: Option<&mut dyn MeasurementStream>,
    ) -> Alarms {
        let deployed: std::collections::HashSet<(u32, u32)> = self.deployed_links().collect();
        let mut alarms = Alarms::default();
        for c in changes {
            let on_deployed_link = deployed.contains(&(c.src, c.dst));
            if c.dark {
                // Darkness triage: the link swallowed every probe, so the
                // latency economics below do not apply. A refuted alarm
                // clears the store's flag, re-arming the triage for the
                // next sampleless epoch. The loss-blind baseline has no
                // darkness concept — it logs the change and moves on.
                if self.config.loss_aware {
                    let confirmed = self.confirm(epoch, c, spot.as_deref_mut());
                    if !confirmed {
                        self.store.clear_dark(c.src as usize, c.dst as usize);
                    }
                    self.push_event(OnlineEvent::LinkDark {
                        epoch,
                        src: c.src,
                        dst: c.dst,
                        loss_rate: c.loss_rate,
                        confirmed,
                    });
                }
            } else {
                // CI gating: with a confidence level set, an alarm whose
                // shift sits inside the link's own interval is
                // indistinguishable from sampling noise — log it (and let
                // it focus next epoch's probes via `recent_flags`), but
                // do not let it reach the redeployment economics. More
                // data either separates the shift (a later alarm fires
                // gated-through) or the EWMA absorbs it.
                let separated = self.config.confidence.is_none_or(|conf| {
                    (c.mean - c.baseline).abs()
                        > self.store.mean_half_width(c.src as usize, c.dst as usize, conf)
                });
                match c.drift {
                    // Once one alarm has confirmed, the epoch's trigger
                    // verdict is settled — further alarms skip the spot
                    // probes instead of spending budget on a question
                    // already answered.
                    Drift::Up if on_deployed_link && separated => {
                        alarms.degradation =
                            alarms.degradation || self.confirm(epoch, c, spot.as_deref_mut());
                    }
                    Drift::Down if !on_deployed_link && separated => {
                        alarms.opportunities.push((c.src, c.dst));
                    }
                    _ => {}
                }
            }
            self.push_event(OnlineEvent::Change { epoch, change: *c, on_deployed_link });
        }
        // Everything flagged this step must be probed next epoch.
        self.recent_flags = changes.iter().map(|c| (c.src, c.dst)).collect();
        alarms
    }

    /// Spot-check confirmation of one alarm with a handful of fresh
    /// single-link probes, charged to the probe budget: a darkness alarm
    /// is re-attempted *now* (a transient may have lifted already) and
    /// confirmed when at most half the trials get through; a degradation
    /// alarm is confirmed (and logged as a [`OnlineEvent::SpotCheck`])
    /// when the fresh mean still sits at least halfway from the
    /// pre-alarm baseline to the alarm level. Without a stream (spot
    /// checks off: `spot_check_probes == 0`, or no stream access), or on
    /// a stream that cannot probe single links, the detector/store
    /// verdict is trusted.
    fn confirm(
        &mut self,
        epoch: u64,
        c: &LinkChange,
        spot: Option<&mut (dyn MeasurementStream + '_)>,
    ) -> bool {
        let Some(stream) = spot else {
            return true;
        };
        let probes = self.config.spot_check_probes;
        if c.dark {
            let Some((successes, attempts)) = stream.spot_check_loss(c.src, c.dst, probes) else {
                return true;
            };
            self.probe_round_trips += attempts;
            successes * 2 <= attempts
        } else {
            let Some(mean) = stream.spot_check(c.src, c.dst, probes) else {
                return true;
            };
            self.probe_round_trips += probes as u64;
            let confirmed = mean >= 0.5 * (c.baseline + c.mean);
            self.push_event(OnlineEvent::SpotCheck {
                epoch,
                src: c.src,
                dst: c.dst,
                mean,
                confirmed,
            });
            confirmed
        }
    }

    /// Decide: which repair, if any, this epoch runs.
    ///
    /// Dark-instance evacuation comes first: when the triage localizes a
    /// fault to an instance the plan occupies, exactly its nodes are
    /// freed and re-placed — no cooldown, no gain threshold. Darkness is
    /// an availability event: waiting an epoch or demanding a margin
    /// over a plan whose links already price at ~99 timeouts would be
    /// pretending the economics still apply. The ordinary latency repair
    /// is skipped on such an epoch (its trigger verdicts were formed on
    /// the same, now-evacuated plan); otherwise it runs when an alarm
    /// triggered and no re-solve ran this epoch yet.
    ///
    /// Only the deployed instances are tested for darkness; the full
    /// [`Self::dark_instances`] list is built when one of them is dark.
    fn decide(&self, epoch: u64, alarms: Alarms) -> Option<Trigger> {
        if self.config.loss_aware && self.deployment.iter().any(|&j| self.instance_dark(j)) {
            return Some(Trigger::Evacuate(self.dark_instances()));
        }
        let cooled = self.last_resolve.is_none_or(|last| epoch > last);
        let alarmed = alarms.degradation || !alarms.opportunities.is_empty();
        (alarmed && cooled).then_some(Trigger::Alarm(alarms.opportunities))
    }

    /// The sub-problem a repair searches: the pool ranked off the kept
    /// search-cost index around the incumbent (every instance without a
    /// candidates config), priced over the pool's links alone.
    fn repair_pool(&mut self) -> PrunedProblem {
        let (candidates, nodes) = (self.effective_candidates(), self.graph.num_nodes());
        let set = self.costs.pool(&self.store, nodes, &candidates, &self.deployment);
        let costs = self.costs.matrix(&self.store, set.union());
        set.restrict_to(self.graph.problem(costs))
    }

    /// Repair: run the triggered re-solve, log it, and migrate when it is
    /// accepted — always for an evacuation that moved anything, on the
    /// [`RedeployPolicy`] economics for an alarm-triggered repair.
    fn repair(&mut self, epoch: u64, trigger: Option<Trigger>, truth: &mut Truth<'_>) -> Repaired {
        let Some(trigger) = trigger else {
            return Repaired::default();
        };
        self.last_resolve = Some(epoch);
        let repair_config = RepairConfig {
            migration_budget: self.config.migration_budget,
            solve_seconds: self.config.solve_seconds,
            threads: self.config.threads,
            seed: self.config.seed ^ epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        };
        let objective = self.config.objective;
        let pool = self.repair_pool();
        let repair = match &trigger {
            Trigger::Evacuate(dark) => {
                evacuate_resolve(&pool, objective, &self.deployment, dark, &repair_config)
            }
            Trigger::Alarm(_) => {
                if self.config.record_triggers {
                    let incumbent = self.deployment.clone();
                    self.triggers.push(TriggerInstance { epoch, pool: pool.clone(), incumbent });
                }
                incremental_resolve(&pool, objective, &self.deployment, &repair_config)
            }
        };
        cloudia_obs::observe("online.resolve_seconds", repair.solve_seconds);
        // A repair that found no improving move says the pool was too
        // tight only when a better destination was seen outside it: an
        // opportunity on a link the pool-restricted search could not
        // use. Otherwise the incumbent is simply locally optimal, and
        // counting the detectors' noise fires as escalations would grow
        // the pool, and with it the focused probe plan, on a quiet
        // network. Repairs that found a gain but were declined by the
        // migration economics are answered: the pool did its job.
        let unanswered = repair.moved == 0
            && match &trigger {
                Trigger::Evacuate(_) => true,
                Trigger::Alarm(opportunities) => outside_pool(&repair.pool, opportunities),
            };
        let est_gain = repair.incumbent_cost - repair.cost;
        let amortized = self.config.policy.migration_cost(repair.moved);
        let accepted = match trigger {
            Trigger::Evacuate(_) => repair.moved > 0,
            // With a confidence level set, the estimated gain must also
            // clear the widest deployed-link CI half-width: a migration
            // is never bought with a gain the measurement error on the
            // links being abandoned could explain. 0 when disabled.
            Trigger::Alarm(_) => self.config.policy.accepts(
                repair.incumbent_cost,
                est_gain,
                repair.moved,
                self.deployed_ci_margin(),
            ),
        };
        self.push_event(OnlineEvent::Resolve {
            epoch,
            freed: repair.freed.clone(),
            moved: repair.moved,
            est_gain,
            solve_seconds: repair.solve_seconds,
            accepted,
        });
        let mut moved = 0;
        if accepted {
            let net = truth.over(&[&self.deployment[..], &repair.deployment[..]].concat());
            let before = self.true_cost(net, &self.deployment);
            let after = self.true_cost(net, &repair.deployment);
            self.deployment = repair.deployment;
            moved = repair.moved;
            self.moved_total += moved as u64;
            self.migration_cost_paid += amortized;
            self.push_event(OnlineEvent::Migrate {
                epoch,
                moved,
                true_cost_before: before,
                true_cost_after: after,
            });
        }
        let evacuated = matches!(trigger, Trigger::Evacuate(_));
        if let Trigger::Evacuate(instances) = trigger {
            self.push_event(OnlineEvent::Evacuate { epoch, instances, moved });
        }
        let pool = pool.to_original.len();
        Repaired { triggered: true, evacuated, moved, unanswered, pool }
    }

    /// Account: feed the adaptive pool controller, then book the epoch
    /// under the plan that is active *after* any migration this epoch.
    /// A held epoch (`priced` false) has a NaN estimated cost.
    fn account(
        &mut self,
        m: &EpochMeasurement,
        probe_escalated: bool,
        repaired: &Repaired,
        priced: bool,
        truth: &mut Truth<'_>,
    ) -> EpochSummary {
        let epoch = m.epoch;
        // An epoch counts as an escalation when the probe plan had to
        // fall back to a full sweep (the detectors fired too broadly for
        // the pool to contain the shift) or a triggered repair went
        // unanswered inside the pool while an opportunity lay outside it;
        // every other epoch is evidence the pool suffices.
        if let Some(pool) = &mut self.adaptive {
            let before = pool.k();
            let after = pool.observe(probe_escalated || repaired.unanswered);
            let rate = pool.escalation_rate();
            if after != before {
                self.push_event(OnlineEvent::PoolResize { epoch, from: before, to: after, rate });
            }
        }
        let est_cost = if priced { self.deployment_cost() } else { f64::NAN };
        let true_cost = self.true_cost(truth.over(&self.deployment), &self.deployment);
        self.total_true_cost += true_cost;
        self.push_event(OnlineEvent::Epoch {
            epoch,
            at_hours: m.at_hours,
            round_trips: m.round_trips,
            est_cost,
            true_cost,
        });
        self.epoch += 1;
        EpochSummary {
            epoch,
            at_hours: m.at_hours,
            est_cost,
            true_cost,
            triggered: repaired.triggered,
            moved: repaired.moved,
            round_trips: m.round_trips,
            saved_round_trips: m.saved_round_trips,
        }
    }

    /// Runs one epoch against a stream, measuring under the configured
    /// [`ProbePolicy`]: uniform epochs run the stream's own full sweep,
    /// focused epochs run the advisor's current probe plan through the
    /// stream's cumulative statistics. A focused plan that covers every
    /// pair (bootstrap, escalation, mass staleness) delegates to the
    /// stream's own sweep — the measurement is the same tournament, minus
    /// the O(m²) plan materialization.
    ///
    /// With `prune_during_sweep` the epoch executes on the streaming
    /// driver with [`OnlineAdvisor::sweep_prune_rule`] evaluated between
    /// stages (at the configured `confidence`, if any), the same object
    /// doubling as the anytime stop rule when `anytime` is on; with
    /// `spot_check_probes > 0` degradation alarms are confirmed against
    /// fresh single-link probes before they may trigger.
    pub fn step_stream<S: MeasurementStream>(&mut self, stream: &mut S) -> EpochSummary {
        let stale = OnceCell::new();
        let rule = self.prune_rule_with(&stale);
        let stop = rule.as_ref().filter(|_| self.config.anytime);
        let mut scheme = self.probe_scheme_with(&stale);
        if let (Some(s), true) = (scheme.as_mut(), self.config.prune_during_sweep) {
            if !s.plan.is_full() {
                self.deepen_flagged(s);
            }
        }
        // A full plan without deepened pairs measures exactly what the
        // stream's own sweep measures.
        let scheme_ref: Option<&dyn Scheme> = match &scheme {
            Some(s) if s.plan.is_full() && s.deep_extra_round_trips() == 0 => None,
            other => other.as_ref().map(|s| s as &dyn Scheme),
        };
        let m = stream.epoch(
            scheme_ref,
            rule.as_ref().map(|r| r as &dyn PruneRule),
            stop.map(|s| s as &dyn StopRule),
        );
        let span = cloudia_obs::span!("online.step", epoch = m.epoch);
        let spot =
            (self.config.spot_check_probes > 0).then_some(stream as &mut dyn MeasurementStream);
        let (changes, alarms) = self.sense(&m, spot);
        self.act(&m, &changes, alarms, Truth::Stream(stream), span)
    }

    /// Drives the loop for `epochs` epochs of a stream.
    pub fn run<S: MeasurementStream>(&mut self, stream: &mut S, epochs: u64) -> Vec<EpochSummary> {
        (0..epochs).map(|_| self.step_stream(stream)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{LinkDelta, SimStream};
    use cloudia_core::CostMatrix;
    use cloudia_measure::{MeasureConfig, Staged};
    use cloudia_netsim::{Cloud, InstanceId, Provider};
    use cloudia_solver::candidates::REPRICE_PER_INSTANCE;

    fn setup(n_nodes: usize, instances: usize, seed: u64) -> (CommGraph, Network, Deployment) {
        let graph = CommGraph::ring(n_nodes);
        let mut cloud = Cloud::boot(Provider::ec2_like(), seed);
        let alloc = cloud.allocate(instances);
        let net = cloud.network(&alloc);
        let initial: Deployment = (0..n_nodes as u32).collect();
        (graph, net, initial)
    }

    fn fast_config() -> OnlineAdvisorConfig {
        OnlineAdvisorConfig {
            solve_seconds: 0.3,
            migration_budget: 2,
            detector: DetectorConfig { warmup: 3, threshold: 6.0 },
            ..Default::default()
        }
    }

    #[test]
    fn loop_runs_and_logs_epochs() {
        let (graph, net, initial) = setup(5, 7, 1);
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, fast_config());
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        let summaries = advisor.run(&mut stream, 6);
        assert_eq!(summaries.len(), 6);
        let epochs =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Epoch { .. })).count();
        assert_eq!(epochs, 6);
        assert!(summaries.iter().all(|s| s.true_cost > 0.0));
        assert!(advisor.time_averaged_cost() > 0.0);
    }

    #[test]
    fn migrations_never_exceed_the_budget_per_epoch() {
        let (graph, net, initial) = setup(6, 9, 2);
        let mut config = fast_config();
        config.policy = RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 };
        let mut advisor = OnlineAdvisor::new(graph, 9, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 6.0, 13);
        let summaries = advisor.run(&mut stream, 10);
        for s in &summaries {
            assert!(s.moved <= 2, "epoch {}: moved {}", s.epoch, s.moved);
        }
        assert_eq!(advisor.moved_total(), summaries.iter().map(|s| s.moved as u64).sum::<u64>());
    }

    #[test]
    fn prohibitive_migration_cost_freezes_the_plan() {
        let (graph, net, initial) = setup(5, 7, 3);
        let mut config = fast_config();
        config.policy = RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 1e9 };
        let mut advisor = OnlineAdvisor::new(graph, 7, initial.clone(), config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 6.0, 17);
        advisor.run(&mut stream, 8);
        assert_eq!(advisor.deployment(), &initial);
        assert_eq!(advisor.migration_cost_paid(), 0.0);
        assert!(advisor.events().iter().all(|e| !matches!(e, OnlineEvent::Migrate { .. })));
    }

    #[test]
    fn focused_probing_spends_less_and_first_epoch_is_a_full_sweep() {
        let run = |policy: ProbePolicy| {
            let (graph, net, initial) = setup(4, 20, 6);
            let mut config = fast_config();
            config.probe_policy = policy;
            config.candidates = Some(cloudia_solver::CandidateConfig::fixed(5));
            let mut advisor = OnlineAdvisor::new(graph, 20, initial, config);
            let mut stream =
                SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 9);
            let summaries = advisor.run(&mut stream, 8);
            (advisor.probe_round_trips(), summaries)
        };
        let (uniform_probes, _) = run(ProbePolicy::Uniform);
        let (focused_probes, summaries) =
            run(ProbePolicy::Focused { refresh_every: 10, max_flagged: 8 });
        // Epoch 0: everything is unobserved, hence stale, hence full.
        assert_eq!(summaries[0].round_trips, uniform_probes / 8);
        // Later epochs focus on the candidate clique and spend less.
        assert!(
            focused_probes * 2 < uniform_probes,
            "focused {focused_probes} vs uniform {uniform_probes}"
        );
        assert!(summaries.iter().all(|s| s.true_cost > 0.0));
    }

    #[test]
    fn uniform_policy_has_no_probe_plan_and_focused_does() {
        let (graph, _, initial) = setup(5, 10, 7);
        let advisor = OnlineAdvisor::new(graph.clone(), 10, initial.clone(), fast_config());
        assert!(advisor.next_probe_plan().is_none());
        let mut config = fast_config();
        config.probe_policy = ProbePolicy::Focused { refresh_every: 4, max_flagged: 5 };
        let advisor = OnlineAdvisor::new(graph, 10, initial, config);
        let plan = advisor.next_probe_plan().expect("focused policy plans probes");
        assert!(plan.is_full(), "the bootstrap plan must be a full sweep");
        assert!(advisor.next_probe_scheme().is_some());
    }

    #[test]
    fn adaptive_pool_shrinks_and_logs_resizes_on_a_quiet_loop() {
        let (graph, net, initial) = setup(5, 14, 8);
        let mut config = fast_config();
        // A high threshold keeps detectors quiet: pure stationary tail.
        config.detector = DetectorConfig { warmup: 3, threshold: 50.0 };
        config.candidates =
            Some(cloudia_solver::CandidateConfig::adaptive(cloudia_solver::AdaptivePoolConfig {
                initial: 12,
                ..Default::default()
            }));
        let mut advisor = OnlineAdvisor::new(graph, 14, initial, config);
        assert_eq!(advisor.adaptive_k(), Some(12));
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 1.0, 11);
        advisor.run(&mut stream, 12);
        let k = advisor.adaptive_k().expect("adaptive controller is live");
        assert!(k < 12, "k {k} did not shrink on a quiet loop");
        assert!(advisor
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::PoolResize { from, to, .. } if to < from)));
        assert!(advisor.escalation_rate().unwrap() < 0.15);
    }

    #[test]
    fn only_an_opportunity_outside_the_pool_makes_an_unanswered_repair_count() {
        let (graph, net, initial) = setup(4, 14, 8);
        let mut config = fast_config();
        config.candidates = Some(CandidateConfig::fixed(6));
        let mut advisor = OnlineAdvisor::new(graph, 14, initial, config);
        // The incumbent's instances 0..4 are one cheap cluster, so no
        // repair improves on it; instance 13 ranks last, outside the pool.
        let costs = CostMatrix::from_fn(14, |i, j| match (i.max(j), i < 4 && j < 4) {
            (_, true) => 1.0,
            (13, _) => 9.0,
            _ => 5.0,
        });
        let deltas = (0..14u32)
            .flat_map(|src| (0..14u32).filter(move |&dst| dst != src).map(move |dst| (src, dst)))
            .map(|(src, dst)| {
                let mean = costs.get(src as usize, dst as usize);
                LinkDelta { src, dst, mean, count: 1, attempts: 1, timeouts: 0 }
            })
            .collect();
        advisor.ingest(&EpochMeasurement {
            epoch: 0,
            at_hours: 0.0,
            elapsed_ms: 1.0,
            round_trips: 182,
            deltas,
            pruned_pairs: 0,
            saved_round_trips: 0,
        });
        let mut unanswered = |epoch, opportunities| {
            let trigger = Some(Trigger::Alarm(opportunities));
            let repaired = advisor.repair(epoch, trigger, &mut Truth::Network(&net));
            assert_eq!((repaired.triggered, repaired.moved), (true, 0));
            repaired.unanswered
        };
        assert!(!unanswered(0, vec![]), "a degradation alone says nothing about the pool");
        assert!(!unanswered(1, vec![(0, 2), (3, 1)]), "the repair could use these links");
        assert!(unanswered(2, vec![(0, 2), (13, 1)]), "instance 13 lies outside the pool");
    }

    #[test]
    fn pruned_uniform_loop_spends_less_after_the_first_epoch() {
        let run = |prune: bool| {
            let (graph, net, initial) = setup(4, 20, 21);
            let mut config = fast_config();
            config.candidates = Some(cloudia_solver::CandidateConfig::fixed(6));
            config.prune_during_sweep = prune;
            config.prune_refresh_every = 50; // beyond the horizon: staleness never protects
            let mut advisor = OnlineAdvisor::new(graph, 20, initial, config);
            let mut stream =
                SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 9);
            let summaries = advisor.run(&mut stream, 6);
            (advisor, summaries)
        };
        let (plain, plain_summaries) = run(false);
        let (pruned, summaries) = run(true);
        // Epoch 0: no samples yet, nothing provable, full sweep.
        assert_eq!(summaries[0].round_trips, plain_summaries[0].round_trips);
        assert_eq!(summaries[0].saved_round_trips, 0);
        // Later epochs prune the sweep down to (roughly) the pool clique.
        for s in &summaries[1..] {
            assert!(
                s.round_trips < plain_summaries[0].round_trips / 2,
                "epoch {}: pruned sweep spent {} of a full sweep's {}",
                s.epoch,
                s.round_trips,
                plain_summaries[0].round_trips
            );
            assert!(s.saved_round_trips > 0, "epoch {}: nothing saved", s.epoch);
        }
        assert!(pruned.probe_round_trips() * 2 < plain.probe_round_trips());
        assert_eq!(
            pruned.sweep_saved_round_trips(),
            summaries.iter().map(|s| s.saved_round_trips).sum::<u64>()
        );
        assert!(pruned
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::SweepPruned { saved_round_trips, .. } if *saved_round_trips > 0)));
        // The unpruned loop never reports pruning.
        assert_eq!(plain.sweep_saved_round_trips(), 0);
    }

    #[test]
    fn pruning_never_starves_deployed_links() {
        let (graph, net, initial) = setup(5, 16, 23);
        let deployed: Vec<(u32, u32)> = graph
            .edges()
            .iter()
            .map(|&(a, b)| (initial[a as usize], initial[b as usize]))
            .collect();
        let mut config = fast_config();
        config.candidates = Some(cloudia_solver::CandidateConfig::fixed(5));
        config.prune_during_sweep = true;
        let mut advisor = OnlineAdvisor::new(graph, 16, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 3);
        advisor.run(&mut stream, 5);
        // Every deployed link kept getting samples on every epoch: each
        // direction is covered once per epoch (one of the two sweeps) at
        // ks 2, so 5 epochs x 2 = 10 per direction.
        for &(a, b) in &deployed {
            let forward = stream.cumulative().link(a as usize, b as usize).count();
            let reverse = stream.cumulative().link(b as usize, a as usize).count();
            assert_eq!(forward, 10, "deployed link ({a},{b}) was pruned");
            assert_eq!(reverse, 10, "deployed link ({b},{a}) was pruned");
        }
    }

    #[test]
    fn ci_rules_require_confidence_pruning_and_anytime() {
        let (graph, _, initial) = setup(4, 10, 31);
        let mut config = fast_config();
        config.prune_during_sweep = true;
        let advisor = OnlineAdvisor::new(graph.clone(), 10, initial.clone(), config.clone());
        let quantile = advisor.sweep_prune_rule().expect("pruning is on");
        assert_eq!(quantile.confidence(), None, "no confidence: point quantiles");
        assert!(advisor.sweep_ci_prune_rule().is_none(), "no confidence: quantile rule only");
        assert!(advisor.sweep_stop_rule().is_none());

        config.confidence = Some(0.95);
        let advisor = OnlineAdvisor::new(graph.clone(), 10, initial.clone(), config.clone());
        let rule = advisor.sweep_ci_prune_rule().expect("confidence + pruning yields the CI rule");
        assert_eq!(rule.confidence(), Some(0.95));
        // Confidence changes the evidence the rule demands, not what it
        // protects (deployed links, flags, staleness refreshes) — and it
        // is the rule the epoch evaluates.
        assert_eq!(rule.protected_pairs(), quantile.protected_pairs());
        assert!(rule.protected_pairs() >= graph.edges().len());
        assert_eq!(advisor.sweep_prune_rule().unwrap().confidence(), Some(0.95));
        assert!(advisor.sweep_stop_rule().is_none(), "anytime off: no stop rule");

        config.anytime = true;
        let advisor = OnlineAdvisor::new(graph, 10, initial, config);
        assert!(advisor.sweep_stop_rule().is_some());
    }

    /// `fast_config` with `anytime` on and everything it needs except
    /// what `strip` takes away.
    fn anytime_advisor(strip: fn(&mut OnlineAdvisorConfig)) -> OnlineAdvisor {
        let (graph, _, initial) = setup(4, 10, 31);
        let mut config = OnlineAdvisorConfig {
            prune_during_sweep: true,
            confidence: Some(0.95),
            anytime: true,
            ..fast_config()
        };
        strip(&mut config);
        OnlineAdvisor::new(graph, 10, initial, config)
    }

    #[test]
    #[should_panic(expected = "anytime needs both confidence and prune_during_sweep")]
    fn anytime_without_confidence_is_rejected() {
        anytime_advisor(|c| c.confidence = None);
    }

    #[test]
    #[should_panic(expected = "anytime needs both confidence and prune_during_sweep")]
    fn anytime_without_sweep_pruning_is_rejected() {
        anytime_advisor(|c| c.prune_during_sweep = false);
    }

    #[test]
    fn a_timeout_that_is_negative_or_not_finite_is_rejected() {
        for timeout_ms in [-1.0, f64::NAN, f64::INFINITY] {
            let (graph, _, initial) = setup(4, 6, 1);
            let config = OnlineAdvisorConfig { timeout_ms, ..fast_config() };
            let built = std::panic::catch_unwind(|| OnlineAdvisor::new(graph, 6, initial, config));
            assert!(built.is_err(), "timeout_ms {timeout_ms} was accepted");
        }
    }

    #[test]
    fn ci_anytime_loop_stays_green_and_never_spends_more_than_ci_pruning() {
        let run = |confidence: Option<f64>, anytime: bool| {
            let (graph, net, initial) = setup(4, 20, 21);
            let mut config = fast_config();
            config.candidates = Some(cloudia_solver::CandidateConfig::fixed(6));
            config.prune_during_sweep = true;
            config.prune_refresh_every = 50;
            config.confidence = confidence;
            config.anytime = anytime;
            let mut advisor = OnlineAdvisor::new(graph, 20, initial, config);
            let mut stream =
                SimStream::new(net, Staged::new(3, 2), MeasureConfig::default(), 2.0, 9);
            let summaries = advisor.run(&mut stream, 8);
            (advisor, summaries)
        };
        let (ci, ci_summaries) = run(Some(0.95), false);
        let (any, any_summaries) = run(Some(0.95), true);
        for s in ci_summaries.iter().chain(&any_summaries) {
            assert!(s.true_cost > 0.0);
        }
        // CI pruning condemns pairs once their intervals separate.
        assert!(ci.sweep_saved_round_trips() > 0, "CI pruning never condemned anything");
        // The anytime stop can only drop *more* of a sweep than the CI
        // rule alone: same rule between stages, plus the early stop.
        assert!(any.probe_round_trips() <= ci.probe_round_trips());
        assert!(any.sweep_saved_round_trips() >= ci.sweep_saved_round_trips());
    }

    fn gated_advisor(confidence: Option<f64>) -> OnlineAdvisor {
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.05,
            policy: RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 },
            detector: DetectorConfig { warmup: 3, threshold: 4.0 },
            confidence,
            ..Default::default()
        };
        OnlineAdvisor::new(graph, 6, (0..4).collect(), config)
    }

    #[test]
    fn ci_gate_passes_separated_shifts_and_blocks_unseparated_ones() {
        let epochs = 12;
        let run = |confidence: Option<f64>| {
            let (_, net, _) = setup(4, 6, 31);
            let mut stream = ScriptedStream::new(net, spike_script(6, epochs), None);
            let mut advisor = gated_advisor(confidence);
            for _ in 0..epochs {
                advisor.step_stream(&mut stream);
            }
            let resolves = advisor
                .events()
                .iter()
                .filter(|e| matches!(e, OnlineEvent::Resolve { .. }))
                .count();
            let changes =
                advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Change { .. })).count();
            (resolves, changes)
        };
        let (plain, _) = run(None);
        assert!(plain > 0, "the baseline spike scenario must trigger");
        // A 60% regime change on a near-zero-variance link is separated
        // at 95%: the gate must not swallow genuine shifts.
        let (gated, _) = run(Some(0.95));
        assert!(gated > 0, "a clearly separated shift must still trigger at 95% confidence");
        // At near-certainty confidence every interval out-widens the
        // shift: alarms are logged (and keep focusing probes) but can
        // never reach the redeployment economics.
        let (strict, strict_changes) = run(Some(0.999_999));
        assert_eq!(strict, 0, "an unseparated alarm triggered a repair");
        assert!(strict_changes > 0, "gated alarms must still be logged");
    }

    /// A scripted stream for the spot-check tests: epochs are handed in
    /// verbatim, and single-link spot probes return a scripted value.
    struct ScriptedStream {
        net: Network,
        cumulative: cloudia_measure::PairwiseStats,
        epochs: std::collections::VecDeque<EpochMeasurement>,
        spot_value: Option<f64>,
        spot_calls: usize,
        /// Scripted result of loss spot probes: `None` = the stream
        /// cannot loss-probe, `Some((successes, attempts))` otherwise.
        spot_loss_value: Option<(u64, u64)>,
        spot_loss_calls: usize,
    }

    impl ScriptedStream {
        fn new(net: Network, epochs: Vec<EpochMeasurement>, spot_value: Option<f64>) -> Self {
            let n = net.len();
            Self {
                net,
                cumulative: cloudia_measure::PairwiseStats::new(n),
                epochs: epochs.into(),
                spot_value,
                spot_calls: 0,
                spot_loss_value: None,
                spot_loss_calls: 0,
            }
        }
    }

    impl MeasurementStream for ScriptedStream {
        fn len(&self) -> usize {
            self.net.len()
        }
        fn network(&self) -> &Network {
            &self.net
        }
        fn cumulative(&self) -> &cloudia_measure::PairwiseStats {
            &self.cumulative
        }
        // The one required entry point: pruned and anytime epochs reach
        // the script through the trait's provided `next_epoch*` wrappers
        // and `step_stream` alike.
        fn epoch(
            &mut self,
            _: Option<&dyn Scheme>,
            _: Option<&dyn PruneRule>,
            _: Option<&dyn StopRule>,
        ) -> EpochMeasurement {
            self.epochs.pop_front().expect("script exhausted")
        }
        fn spot_check(&mut self, _src: u32, _dst: u32, _probes: usize) -> Option<f64> {
            self.spot_calls += 1;
            self.spot_value
        }
        fn spot_check_loss(&mut self, _src: u32, _dst: u32, _probes: usize) -> Option<(u64, u64)> {
            self.spot_loss_calls += 1;
            self.spot_loss_value
        }
    }

    /// Stable full-coverage epochs; from epoch `epochs - 4` onward the
    /// deployed link `0 → 1` sits 60% above its baseline (a persistent
    /// regime change), and instances 4+ are uniformly expensive (so a
    /// small candidate pool provably excludes them).
    fn spike_script(m: usize, epochs: u64) -> Vec<EpochMeasurement> {
        (0..epochs)
            .map(|e| {
                let deltas: Vec<crate::stream::LinkDelta> = (0..m as u32)
                    .flat_map(|i| (0..m as u32).filter(move |&j| j != i).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        let far = if i >= 4 || j >= 4 { 2.0 } else { 0.0 };
                        let base = 1.0 + far + 0.05 * ((i + 2 * j) % 4) as f64;
                        let level = if e + 4 >= epochs && i == 0 && j == 1 { 1.6 } else { 1.0 };
                        crate::stream::LinkDelta {
                            src: i,
                            dst: j,
                            mean: base * level,
                            count: 5,
                            attempts: 5,
                            timeouts: 0,
                        }
                    })
                    .collect();
                EpochMeasurement {
                    epoch: e,
                    at_hours: e as f64,
                    elapsed_ms: 1.0,
                    round_trips: deltas.iter().map(|d| d.count).sum(),
                    deltas,
                    pruned_pairs: 0,
                    saved_round_trips: 0,
                }
            })
            .collect()
    }

    fn spot_check_advisor(probes: usize) -> OnlineAdvisor {
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.05,
            spot_check_probes: probes,
            policy: RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 },
            detector: DetectorConfig { warmup: 3, threshold: 4.0 },
            ..Default::default()
        };
        OnlineAdvisor::new(graph, 6, (0..4).collect(), config)
    }

    #[test]
    fn refuted_spot_check_suppresses_the_repair() {
        let epochs = 12;
        let (_, net, _) = setup(4, 6, 31);
        // Spot probes report the old baseline: the alarm was a glitch.
        let mut stream = ScriptedStream::new(net, spike_script(6, epochs), Some(1.0));
        let mut advisor = spot_check_advisor(8);
        let probes_before_spots = (0..epochs).map(|_| advisor.step_stream(&mut stream)).count();
        assert!(probes_before_spots > 0);
        assert!(stream.spot_calls > 0, "the degradation alarm was never spot-checked");
        let spot_events: Vec<bool> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::SpotCheck { confirmed, .. } => Some(*confirmed),
                _ => None,
            })
            .collect();
        assert!(!spot_events.is_empty());
        assert!(spot_events.iter().all(|&c| !c), "glitch alarms must be refuted");
        assert!(
            advisor.events().iter().all(|e| !matches!(e, OnlineEvent::Resolve { .. })),
            "a refuted alarm still triggered a repair"
        );
    }

    #[test]
    fn confirmed_spot_check_lets_the_repair_through() {
        let epochs = 12;
        let (_, net, _) = setup(4, 6, 31);
        // Spot probes agree with the alarm level: genuine degradation.
        let mut stream = ScriptedStream::new(net, spike_script(6, epochs), Some(1.6));
        let mut advisor = spot_check_advisor(8);
        for _ in 0..epochs {
            advisor.step_stream(&mut stream);
        }
        let confirmed = advisor
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::SpotCheck { confirmed: true, .. }));
        assert!(confirmed, "a genuine shift must be confirmed");
        assert!(
            advisor.events().iter().any(|e| matches!(e, OnlineEvent::Resolve { .. })),
            "a confirmed degradation must trigger a repair"
        );
        // Spot probes are charged to the probe budget.
        let measured: u64 = (0..epochs).map(|_| 6u64 * 5 * 5).sum();
        assert!(advisor.probe_round_trips() > measured);
    }

    #[test]
    fn streams_without_spot_support_fall_back_to_trusting_the_detector() {
        let epochs = 12;
        let (_, net, _) = setup(4, 6, 31);
        // spot_value None: the stream cannot probe single links.
        let mut stream = ScriptedStream::new(net, spike_script(6, epochs), None);
        let mut advisor = spot_check_advisor(8);
        for _ in 0..epochs {
            advisor.step_stream(&mut stream);
        }
        assert!(
            advisor.events().iter().any(|e| matches!(e, OnlineEvent::Resolve { .. })),
            "without spot support the alarm must trigger as before"
        );
        assert!(
            advisor.events().iter().all(|e| !matches!(e, OnlineEvent::SpotCheck { .. })),
            "no spot event without a spot result"
        );
    }

    #[test]
    fn a_non_finite_sample_is_skipped_and_a_negative_one_holds_the_epoch() {
        let epochs = 8;
        let run = |script: Vec<EpochMeasurement>| {
            let (_, net, _) = setup(4, 6, 31);
            let mut stream = ScriptedStream::new(net, script, None);
            let mut advisor = spot_check_advisor(0);
            let summaries: Vec<_> = (0..epochs).map(|_| advisor.step_stream(&mut stream)).collect();
            (advisor, summaries)
        };
        // The script's spike starts at epoch 12: the 8 epochs run are
        // flat but for one bad mean on the deployed link 0 → 1.
        let poisoned = |bad: f64| {
            let mut script = spike_script(6, 16);
            script[4].deltas.iter_mut().find(|d| (d.src, d.dst) == (0, 1)).unwrap().mean = bad;
            script
        };
        let held = |advisor: &OnlineAdvisor| -> Vec<(u64, CostError)> {
            advisor
                .events()
                .iter()
                .filter_map(|e| match e {
                    OnlineEvent::Held { epoch, error } => Some((*epoch, error.clone())),
                    _ => None,
                })
                .collect()
        };
        let before = spot_check_advisor(0).deployment().clone();

        // A NaN is ingested as sampleless: nothing is held, nothing moves,
        // and every estimate is the one of a run that never saw the delta.
        let (advisor, summaries) = run(poisoned(f64::NAN));
        assert!(summaries.iter().all(|s| s.est_cost.is_finite()));
        assert!(held(&advisor).is_empty());
        assert_eq!(advisor.deployment(), &before);
        let mut dropped = spike_script(6, 16);
        dropped[4].deltas.retain(|d| (d.src, d.dst) != (0, 1));
        let (_, reference) = run(dropped);
        for (s, r) in summaries.iter().zip(&reference) {
            assert_eq!(s.est_cost.to_bits(), r.est_cost.to_bits(), "epoch {}", s.epoch);
        }

        // A negative mean is finite, so ingest keeps it and the cost
        // plane rejects it: that epoch is held instead of panicking.
        let (advisor, summaries) = run(poisoned(-10.0));
        assert!(summaries[..4].iter().all(|s| s.est_cost.is_finite()));
        let s = &summaries[4];
        assert!(s.est_cost.is_nan() && !s.triggered && s.moved == 0);
        assert!(s.true_cost.is_finite(), "the ground-truth booking is unaffected");
        let held = held(&advisor);
        assert_eq!(held[0].0, 4);
        assert!(matches!(held[0].1, CostError::Value { i: 0, j: 1, .. }), "{:?}", held[0].1);
    }

    #[test]
    fn pruning_savings_fund_deeper_flagged_sampling() {
        // Scripted epochs with full coverage (so the plan is never full),
        // reported savings, and a detector-flagging jump: the next
        // focused round must deepen the flagged pair — on the pruned
        // entry point and on the anytime one alike.
        for (confidence, anytime) in [(None, false), (Some(0.95), true)] {
            let m = 8;
            let (_, net, _) = setup(4, m, 33);
            let mut script = spike_script(m, 12);
            for e in &mut script {
                e.saved_round_trips = 60;
                e.pruned_pairs = 4;
            }
            let mut stream = ScriptedStream::new(net, script, None);
            let graph = CommGraph::ring(4);
            let config = OnlineAdvisorConfig {
                solve_seconds: 0.05,
                candidates: Some(cloudia_solver::CandidateConfig::fixed(4)),
                probe_policy: ProbePolicy::Focused { refresh_every: 40, max_flagged: 50 },
                prune_during_sweep: true,
                confidence,
                anytime,
                policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 1e9 },
                detector: DetectorConfig { warmup: 3, threshold: 4.0 },
                ..Default::default()
            };
            let mut advisor = OnlineAdvisor::new(graph, m, (0..4).collect(), config);
            assert_eq!(advisor.sweep_stop_rule().is_some(), anytime);
            for _ in 0..12 {
                advisor.step_stream(&mut stream);
            }
            assert!(
                advisor.deep_probe_round_trips() > 0,
                "savings were banked instead of deepening flagged links"
            );
            assert!(advisor.events().iter().any(
                |e| matches!(e, OnlineEvent::DeepProbe { pairs, ks, .. } if *pairs > 0 && *ks > 3)
            ));
        }
    }

    /// Full-coverage healthy epochs, then instance `dark` goes silent
    /// from `dark_from` on: every link touching it keeps being attempted
    /// but answers nothing.
    fn blackout_script(m: usize, epochs: u64, dark_from: u64, dark: u32) -> Vec<EpochMeasurement> {
        (0..epochs)
            .map(|e| {
                let deltas: Vec<crate::stream::LinkDelta> = (0..m as u32)
                    .flat_map(|i| (0..m as u32).filter(move |&j| j != i).map(move |j| (i, j)))
                    .map(|(i, j)| {
                        let base = 1.0 + 0.05 * ((i + 2 * j) % 4) as f64;
                        if e >= dark_from && (i == dark || j == dark) {
                            crate::stream::LinkDelta {
                                src: i,
                                dst: j,
                                mean: 0.0,
                                count: 0,
                                attempts: 5,
                                timeouts: 5,
                            }
                        } else {
                            crate::stream::LinkDelta {
                                src: i,
                                dst: j,
                                mean: base,
                                count: 5,
                                attempts: 5,
                                timeouts: 0,
                            }
                        }
                    })
                    .collect();
                EpochMeasurement {
                    epoch: e,
                    at_hours: e as f64,
                    elapsed_ms: 1.0,
                    round_trips: deltas.iter().map(|d| d.count).sum(),
                    deltas,
                    pruned_pairs: 0,
                    saved_round_trips: 0,
                }
            })
            .collect()
    }

    /// Prohibitive latency economics: only a forced evacuation may move
    /// the plan, which is exactly what the blackout tests must prove.
    fn blackout_advisor(spot_probes: usize) -> OnlineAdvisor {
        let graph = CommGraph::ring(4);
        let config = OnlineAdvisorConfig {
            solve_seconds: 0.1,
            spot_check_probes: spot_probes,
            policy: RedeployPolicy { min_gain: 1e9, migration_cost_per_node: 0.0 },
            detector: DetectorConfig { warmup: 3, ..Default::default() },
            ..Default::default()
        };
        OnlineAdvisor::new(graph, 6, (0..4).collect(), config)
    }

    #[test]
    fn blackout_raises_link_dark_and_evacuates_the_instance() {
        let (_, net, _) = setup(4, 6, 41);
        let mut stream = ScriptedStream::new(net, blackout_script(6, 12, 6, 1), None);
        let mut advisor = blackout_advisor(0);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        let darks: Vec<bool> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::LinkDark { confirmed, .. } => Some(*confirmed),
                _ => None,
            })
            .collect();
        assert!(!darks.is_empty(), "the blackout never raised a LinkDark");
        assert!(darks.iter().all(|&c| c), "without spot probing the triage is trusted");
        assert!(
            advisor.events().iter().any(|e| matches!(
                e,
                OnlineEvent::Evacuate { instances, moved, .. }
                    if instances == &vec![1] && *moved >= 1
            )),
            "the dark instance was never evacuated"
        );
        assert!(
            advisor.deployment().iter().all(|&j| j != 1),
            "a node remained on the dark instance: {:?}",
            advisor.deployment()
        );
        // Under min_gain 1e9 a latency alarm could never migrate: the
        // move must have come from the triage path, not the economics.
        assert!(advisor.events().iter().any(|e| matches!(e, OnlineEvent::Migrate { .. })));
    }

    #[test]
    fn refuted_dark_spot_check_suppresses_evacuation_and_rearms() {
        let (_, net, _) = setup(4, 6, 41);
        let mut stream = ScriptedStream::new(net, blackout_script(6, 12, 6, 1), None);
        // Every fresh loss trial gets through: the blackout (as far as
        // spot probes can tell) already lifted.
        stream.spot_loss_value = Some((8, 8));
        let mut advisor = blackout_advisor(8);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        assert!(stream.spot_loss_calls > 0, "darkness was never spot-checked");
        let darks: Vec<bool> = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::LinkDark { confirmed, .. } => Some(*confirmed),
                _ => None,
            })
            .collect();
        assert!(darks.iter().all(|&c| !c), "refuted alarms must not read as confirmed");
        // Refutation clears the store flag, so the next sampleless epoch
        // re-raises the alarm instead of going silent forever.
        assert!(darks.len() > 10, "refuted darkness did not re-arm across epochs");
        assert!(
            advisor.events().iter().all(|e| !matches!(e, OnlineEvent::Evacuate { .. })),
            "a refuted blackout still evacuated"
        );
        assert_eq!(advisor.deployment(), &(0..4).collect::<Vec<u32>>());
    }

    #[test]
    fn confirmed_dark_spot_check_lets_the_evacuation_through() {
        let (_, net, _) = setup(4, 6, 41);
        let mut stream = ScriptedStream::new(net, blackout_script(6, 12, 6, 1), None);
        // Fresh loss trials agree: still swallowing everything.
        stream.spot_loss_value = Some((0, 8));
        let mut advisor = blackout_advisor(8);
        for _ in 0..12 {
            advisor.step_stream(&mut stream);
        }
        assert!(advisor
            .events()
            .iter()
            .any(|e| matches!(e, OnlineEvent::LinkDark { confirmed: true, .. })));
        assert!(advisor.events().iter().any(|e| matches!(e, OnlineEvent::Evacuate { .. })));
        assert!(advisor.deployment().iter().all(|&j| j != 1));
    }

    /// The search costs as the dense matrix the loop once filled every
    /// epoch, in one pass over three of the store's columns: the oracle
    /// the kept costs are pinned to.
    fn search_costs(advisor: &OnlineAdvisor) -> Result<CostMatrix, CostError> {
        let n = advisor.store.len();
        let (mean, loss, sampled) =
            (&advisor.store.mean, &advisor.store.loss_rate, &advisor.store.sampled);
        let price = |base: f64, i: usize, j: usize| {
            if advisor.config.loss_aware {
                cloudia_netsim::loss_priced_mean(
                    base,
                    loss[i * n + j],
                    loss[j * n + i],
                    advisor.config.timeout_ms,
                )
            } else {
                base
            }
        };
        let mut worst = 0.0f64;
        let mut unobserved = Vec::new();
        let mut b = CostMatrix::builder(n);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                let idx = i * n + j;
                if sampled[idx] == 0 {
                    unobserved.push((i, j));
                } else {
                    worst = worst.max(mean[idx]);
                    b.set(i, j, price(mean[idx], i, j));
                }
            }
        }
        for (i, j) in unobserved {
            b.set(i, j, price(worst, i, j));
        }
        b.freeze()
    }

    /// The search costs as a two-pass walk over the store's link views.
    fn search_costs_from_views(advisor: &OnlineAdvisor) -> Result<CostMatrix, CostError> {
        let (store, n) = (&advisor.store, advisor.store.len());
        let mut worst = 0.0f64;
        for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|(i, j)| i != j) {
            if store.link(i, j).ewma.count() > 0 {
                worst = worst.max(store.link(i, j).ewma.mean());
            }
        }
        let mut b = CostMatrix::builder(n);
        for (i, j) in (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).filter(|(i, j)| i != j) {
            let link = store.link(i, j);
            let base = if link.ewma.count() > 0 { link.ewma.mean() } else { worst };
            let (fwd, rev) = if advisor.config.loss_aware {
                (link.loss_rate, store.link(j, i).loss_rate)
            } else {
                (0.0, 0.0)
            };
            let cost = if fwd > 0.0 || rev > 0.0 {
                let success = ((1.0 - fwd) * (1.0 - rev)).max(0.01);
                base + (1.0 / success - 1.0) * advisor.config.timeout_ms
            } else {
                base
            };
            b.set(i, j, cost);
        }
        b.freeze()
    }

    /// The evacuation trigger as a full scan: every instance's darkness
    /// from its link views, then a test of the deployment against the
    /// list.
    fn dark_trigger_by_full_scan(advisor: &OnlineAdvisor) -> Option<Vec<u32>> {
        let (store, m) = (&advisor.store, advisor.store.len());
        let dark: Vec<u32> = (0..m)
            .filter(|&i| {
                let (mut attempted, mut unreachable) = (0, 0);
                for j in (0..m).filter(|&j| j != i) {
                    let (fwd, rev) = (store.link(i, j), store.link(j, i));
                    if fwd.attempted_epochs > 0 || rev.attempted_epochs > 0 {
                        attempted += 1;
                        unreachable += usize::from(fwd.dark || rev.dark);
                    }
                }
                unreachable >= 2 && 2 * unreachable >= attempted
            })
            .map(|i| i as u32)
            .collect();
        let deployed_dark = advisor.deployment.iter().any(|j| dark.contains(j));
        (advisor.config.loss_aware && deployed_dark).then_some(dark)
    }

    /// Checks the column-built search costs and the deployed-only dark
    /// trigger against their view-walking oracles.
    fn assert_the_view_oracles_agree(advisor: &OnlineAdvisor) {
        let bits = |costs: Result<CostMatrix, CostError>| {
            costs.map(|c| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
        };
        let oracle = bits(search_costs(advisor));
        assert_eq!(oracle, bits(search_costs_from_views(advisor)));
        let kept = advisor.costs.held(&advisor.store);
        let every: Vec<u32> = (0..advisor.store.len() as u32).collect();
        assert_eq!(oracle, bits(kept.map(|()| advisor.costs.matrix(&advisor.store, &every))));
        let trigger = match advisor.decide(advisor.epoch, Alarms::default()) {
            Some(Trigger::Evacuate(dark)) => Some(dark),
            _ => None,
        };
        assert_eq!(trigger, dark_trigger_by_full_scan(advisor));
    }

    #[test]
    fn column_costs_and_the_deployed_dark_trigger_match_the_record_walks() {
        let mut evacuations = 0;
        for (dark_from, loss_aware) in [(6, true), (0, true), (6, false), (0, false)] {
            let (_, net, _) = setup(4, 6, 41);
            // From epoch 0 the dark instance's links are never sampled:
            // unobserved links that still carry loss take the worst fill.
            let mut script = blackout_script(6, 12, dark_from, 1);
            // A negative sample drives one EWMA negative: an `Err` epoch.
            script[9].deltas[3].mean = -50.0;
            let mut stream = ScriptedStream::new(net, script, None);
            let mut config = blackout_advisor(0).config;
            config.loss_aware = loss_aware;
            let mut advisor = OnlineAdvisor::new(CommGraph::ring(4), 6, (0..4).collect(), config);
            assert_the_view_oracles_agree(&advisor);
            for _ in 0..12 {
                advisor.step_stream(&mut stream);
                assert_the_view_oracles_agree(&advisor);
            }
            let held = advisor.events().iter().any(|e| matches!(e, OnlineEvent::Held { .. }));
            assert!(held, "the negative sample never held an epoch");
            evacuations += advisor
                .events()
                .iter()
                .filter(|e| matches!(e, OnlineEvent::Evacuate { .. }))
                .count();
        }
        assert!(evacuations > 0, "no scenario ever triggered an evacuation");
        // A focused run over a drifting lossy network, loss-blind and not.
        for loss_aware in [true, false] {
            let (graph, net, initial) = setup(4, 12, 8);
            let mut config = fast_config();
            config.loss_aware = loss_aware;
            config.probe_policy = ProbePolicy::Focused { max_flagged: 3, refresh_every: 4 };
            config.candidates = Some(CandidateConfig::fixed(3));
            let mut advisor = OnlineAdvisor::new(graph, 12, initial, config);
            let mut stream = SimStream::with_faults(
                net,
                Staged::new(2, 2),
                MeasureConfig::default(),
                2.0,
                9,
                cloudia_netsim::FaultParams::drifting_loss(0.05),
                0xfa11,
            );
            stream.force_instance_dark(2, 1e6);
            for _ in 0..8 {
                advisor.step_stream(&mut stream);
                assert_the_view_oracles_agree(&advisor);
            }
        }
    }

    /// One random epoch over `m` instances: each link is measured with
    /// probability `touch` (never, for the links in `never`), as a lossy
    /// sample or a dark attempt, and with probability `bad` as a negative
    /// mean, an EWMA-overflowing mean, or a non-finite one, and apart from
    /// that as a malformed delta with more timeouts than attempts (a loss
    /// rate past 1).
    fn random_epoch(
        rng: &mut rand::rngs::StdRng,
        m: u32,
        epoch: u64,
        (touch, bad): (f64, f64),
        never: &[(u32, u32)],
    ) -> EpochMeasurement {
        use rand::Rng;
        let mut deltas = Vec::new();
        for (src, dst) in (0..m).flat_map(|i| (0..m).filter(move |&j| j != i).map(move |j| (i, j)))
        {
            if never.contains(&(src, dst)) || rng.random::<f64>() >= touch {
                continue;
            }
            let attempts = rng.random_range(1..6u64);
            let lost = if rng.random::<f64>() < 0.3 { rng.random_range(0..=attempts) } else { 0 };
            let mean = if rng.random::<f64>() < bad {
                [-rng.random::<f64>(), 1e308, -1e308, f64::NAN][rng.random_range(0..4usize)]
            } else {
                1.0 + rng.random::<f64>()
            };
            let count = attempts - lost;
            let timeouts = if rng.random::<f64>() < bad { 40 * attempts } else { lost };
            deltas.push(LinkDelta { src, dst, mean, count, attempts, timeouts });
        }
        EpochMeasurement {
            epoch,
            at_hours: epoch as f64,
            elapsed_ms: 1.0,
            round_trips: deltas.iter().map(|d| d.attempts).sum(),
            deltas,
            pruned_pairs: 0,
            saved_round_trips: 0,
        }
    }

    #[test]
    fn kept_search_costs_equal_the_dense_matrix_under_random_deltas() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let value = |held: Result<(), CostError>| {
            held.map_err(|e| match e {
                CostError::Value { i, j, value } => (i, j, value.to_bits()),
                other => panic!("unexpected {other:?}"),
            })
        };
        let bits = |c: &CostMatrix| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (mut held_epochs, mut reads, mut exact_reads, mut repairs) = (0, 0, 0, 0);
        for case in 0..42u64 {
            let mut rng = StdRng::seed_from_u64(case);
            // The last cases sweep past the re-price budget in one epoch.
            let m = if case < 36 { rng.random_range(5..14usize) } else { 70 };
            let (graph, net, initial) = setup(4, m, case);
            let config = OnlineAdvisorConfig {
                loss_aware: case % 4 != 3,
                timeout_ms: [40.0, 250.0][case as usize % 2],
                candidates: Some(CandidateConfig::fixed(rng.random_range(4..=m))),
                solve_seconds: 0.02,
                threads: 1,
                ..fast_config()
            };
            let objective = config.objective;
            let mut advisor = OnlineAdvisor::new(graph.clone(), m, initial, config);
            let rates = match case {
                0..36 => {
                    ([0.15, 0.5, 1.0][case as usize % 3], [0.0, 1e-3, 1e-2][case as usize / 12])
                }
                _ => (1.0, [0.0, 1e-4, 3e-5, 1e-5, 3e-4, 1e-5][case as usize - 36]),
            };
            let never: Vec<(u32, u32)> = (0..rng.random_range(0..4))
                .map(|_| (rng.random_range(0..m as u32), rng.random_range(0..m as u32)))
                .collect();
            for epoch in 0..16 {
                let measured = random_epoch(&mut rng, m as u32, epoch, rates, &never);
                let summary = advisor.step(&measured, &net);
                repairs += usize::from(summary.triggered);
                let oracle = search_costs(&advisor);
                let kept = advisor.costs.held(&advisor.store);
                assert_eq!(
                    value(kept),
                    value(oracle.clone().map(|_| ())),
                    "case {case} epoch {epoch}"
                );
                let Ok(dense) = oracle else {
                    assert!(summary.est_cost.is_nan());
                    held_epochs += 1;
                    continue;
                };
                let problem = graph.problem(dense);
                let est = problem.cost(objective, &advisor.deployment);
                assert_eq!(summary.est_cost.to_bits(), est.to_bits(), "case {case} epoch {epoch}");
                // The index syncs lazily: read it on some epochs only.
                if rng.random::<f64>() < 0.5 {
                    continue;
                }
                let cand = advisor.effective_candidates();
                let incumbent = advisor.deployment.clone();
                let pool = advisor.costs.pool(&advisor.store, 4, &cand, &incumbent);
                let built = CandidateSet::build(&problem, &cand, Some(&incumbent), None);
                assert_eq!(pool.union(), built.union(), "case {case} epoch {epoch}");
                for v in 0..4 {
                    assert_eq!(pool.node_candidates(v), built.node_candidates(v));
                }
                let sub = advisor.costs.matrix(&advisor.store, pool.union());
                assert_eq!(bits(&sub), bits(&built.restrict(&problem).sub.costs));
                reads += 1;
                exact_reads += usize::from(pool.is_exact());
            }
        }
        assert!(held_epochs > 0 && repairs > 0, "{held_epochs} held epochs, {repairs} repairs");
        assert!(reads > exact_reads && exact_reads > 0, "{reads} reads, {exact_reads} exact");
    }

    #[test]
    fn the_deployment_priced_truth_equals_the_dense_truth_matrix() {
        use cloudia_netsim::LossPlane;
        let (_, clean, _) = setup(6, 10, 13);
        let mut lossy = clean.clone();
        let mut plane = LossPlane::uniform(10, 0.07);
        plane.set_drop_prob(InstanceId(4), InstanceId(2), 1.0);
        lossy.set_loss(plane);
        // A DAG, so both objectives apply.
        let graph = CommGraph::aggregation_tree(2, 2);
        let nodes = graph.num_nodes();
        for net in [&clean, &lossy] {
            for objective in [Objective::LongestLink, Objective::LongestPath] {
                let config = OnlineAdvisorConfig { objective, timeout_ms: 40.0, ..fast_config() };
                let advisor =
                    OnlineAdvisor::new(graph.clone(), 10, (0..nodes as u32).collect(), config);
                let dense = graph.problem(net.effective_mean_matrix(40.0));
                for deployment in [vec![0, 1, 2, 3, 4, 5, 6], vec![9, 4, 2, 7, 0, 3, 8]] {
                    assert_eq!(
                        advisor.true_cost(net, &deployment).to_bits(),
                        dense.cost(objective, &deployment).to_bits(),
                        "{objective:?} on {deployment:?}"
                    );
                }
            }
        }

        // The batch advisor prices its plans the same way: a batch network
        // carries no loss plane, so there the truth is the dense mean
        // matrix, bit for bit — for the default and optimized plans of an
        // advise and for the keep cost of a redeployment round.
        let greedy = cloudia_core::SearchStrategy::Greedy(cloudia_solver::GreedyVariant::G2);
        let batch = cloudia_core::AdvisorConfig { strategy: Some(greedy), ..Default::default() };
        let advisor = cloudia_core::Advisor::new(batch);
        let objective = advisor.config().objective;
        let costs = clean.mean_matrix();
        let dense = graph.problem(clean.mean_matrix());
        let out = advisor.search_with_costs(&clean, &graph, costs, &cloudia_core::SolveHint::Cold);
        let identity: Vec<u32> = (0..nodes as u32).collect();
        assert_eq!(out.default_cost.to_bits(), dense.cost(objective, &identity).to_bits());
        assert_eq!(out.optimized_cost.to_bits(), dense.cost(objective, &out.deployment).to_bits());
        let current = vec![9, 4, 2, 7, 0, 3, 8];
        let policy = RedeployPolicy::default();
        let round = cloudia_core::try_redeploy(&advisor, &clean, &graph, &current, policy, 3)
            .expect("a lossless sweep prices every link");
        assert_eq!(round.keep_cost.to_bits(), dense.cost(objective, &current).to_bits());
    }

    #[test]
    fn trigger_instances_are_recorded_when_asked() {
        let (graph, net, initial) = setup(5, 7, 4);
        let mut config = fast_config();
        config.record_triggers = true;
        config.policy = RedeployPolicy { min_gain: 0.0, migration_cost_per_node: 0.0 };
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 8.0, 19);
        advisor.run(&mut stream, 12);
        let resolves =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Resolve { .. })).count();
        assert_eq!(advisor.trigger_instances().len(), resolves);
        // Without candidates each recorded pool is every instance.
        assert!(advisor.trigger_instances().iter().all(|t| t.pool.is_exact()));
    }

    #[test]
    fn event_ring_caps_memory_but_recorder_keeps_the_full_history() {
        let (graph, net, initial) = setup(5, 7, 1);
        let mut config = fast_config();
        config.event_capacity = 3;
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, config);
        let (recorder, buf) = cloudia_obs::RunRecorder::to_vec(cloudia_obs::Json::obj());
        advisor.attach_recorder(recorder);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        let epochs = 6;
        advisor.run(&mut stream, epochs);
        // The ring held on to only the 3 newest events...
        assert_eq!(advisor.events().len(), 3);
        assert!(advisor.events().dropped() > 0, "older events must have been evicted");
        // ...while the recorder streamed every event and epoch summary.
        advisor.take_recorder().expect("recorder attached").finish().unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let records = cloudia_obs::parse_trace(&text).expect("valid trace");
        let events = records.iter().filter(|r| r.kind == "event").count();
        let summaries = records.iter().filter(|r| r.kind == "epoch").count();
        assert_eq!(summaries, epochs as usize);
        assert!(
            events as u64 >= epochs,
            "at least one event per epoch must have been streamed, got {events}"
        );
        let epoch_events = records
            .iter()
            .filter(|r| {
                r.kind == "event"
                    && r.payload.get("kind").and_then(cloudia_obs::Json::as_str) == Some("epoch")
            })
            .count();
        assert_eq!(epoch_events as u64, epochs, "one Epoch event per step in the stream");
    }

    #[test]
    fn zero_event_capacity_keeps_every_event() {
        let (graph, net, initial) = setup(5, 7, 1);
        let mut config = fast_config();
        config.event_capacity = 0;
        let mut advisor = OnlineAdvisor::new(graph, 7, initial, config);
        let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 9);
        advisor.run(&mut stream, 6);
        assert_eq!(advisor.events().dropped(), 0);
        assert!(advisor.events().len() >= 6);
    }

    #[test]
    fn a_focused_loop_keeps_a_plan_index_and_a_pruned_loop_a_rule_index() {
        let kept = |probe_policy, prune_during_sweep, confidence| {
            let (graph, _, initial) = setup(4, 10, 3);
            let config = OnlineAdvisorConfig {
                probe_policy,
                prune_during_sweep,
                confidence,
                ..fast_config()
            };
            let advisor = OnlineAdvisor::new(graph, 10, initial, config);
            (advisor.plan_index.is_some(), advisor.rule_index.is_some())
        };
        let focused = ProbePolicy::Focused { refresh_every: 4, max_flagged: 100 };
        for confidence in [None, Some(0.95)] {
            for (policy, is_focused) in [(focused, true), (ProbePolicy::Uniform, false)] {
                for pruned in [true, false] {
                    assert_eq!(
                        kept(policy, pruned, confidence),
                        (is_focused, pruned),
                        "{policy:?}, pruned {pruned}, confidence {confidence:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_plan_pool_reprices_small_epochs_and_bulk_builds_past_the_budget() {
        // Past the measured re-price/bulk-build crossover, which only an
        // allocation above 64 instances can touch in one epoch.
        let m = 80;
        let (graph, net, initial) = setup(4, m, 5);
        let config = OnlineAdvisorConfig {
            probe_policy: ProbePolicy::Focused { refresh_every: 50, max_flagged: 1000 },
            prune_during_sweep: true,
            ..fast_config()
        };
        let mut advisor = OnlineAdvisor::new(graph, m, initial, config);
        let links: Vec<(u32, u32)> = (0..m as u32)
            .flat_map(|i| (0..m as u32).filter(move |&j| j != i).map(move |j| (i, j)))
            .collect();
        let mut epoch = 0;
        let mut step = |advisor: &mut OnlineAdvisor, touched: &[(u32, u32)]| {
            let deltas = touched
                .iter()
                .map(|&(src, dst)| LinkDelta {
                    src,
                    dst,
                    mean: 1.0 + f64::from(src * 7 + dst) / 50.0 + epoch as f64 / 100.0,
                    count: 3,
                    attempts: 3,
                    timeouts: 0,
                })
                .collect();
            let measured = EpochMeasurement {
                epoch,
                at_hours: epoch as f64,
                elapsed_ms: 1.0,
                round_trips: 3 * touched.len() as u64,
                deltas,
                pruned_pairs: 0,
                saved_round_trips: 0,
            };
            advisor.step(&measured, &net);
            epoch += 1;
            advisor.plan_index.as_ref().expect("kept").rebuilds()
        };
        assert_eq!(advisor.plan_index.as_ref().unwrap().rebuilds(), 1, "built at construction");
        // The budget is `REPRICE_PER_INSTANCE · m` = 3200 of 6320 links.
        let budget = PoolIndex::<1>::reprice_budget(m);
        assert_eq!(budget, REPRICE_PER_INSTANCE * m);
        assert!(budget < links.len());
        assert_eq!(step(&mut advisor, &links), 2, "a full epoch bulk-builds");
        assert_eq!(step(&mut advisor, &links[..10]), 2, "a small epoch re-prices");
        assert_eq!(step(&mut advisor, &links[..budget]), 2, "the budget itself re-prices");
        assert_eq!(step(&mut advisor, &links[..budget + 1]), 3, "one link past it bulk-builds");
    }
}

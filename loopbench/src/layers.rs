//! Every call into the product crates.
//!
//! The rest of the benchmark sees only plain numbers and the opaque state
//! types defined here, so an API refactor of the product needs a correction
//! in this one file. The product is measured from outside, through public
//! functions only; configs are built with `..Default::default()` so new
//! options keep their shipped defaults, and telemetry stays on.
//!
//! Sections follow the layers (= crates): netsim, measure, solver, core,
//! online, obs. Inner layers are timed on clones and shadows of the loop's
//! state, never on the loop itself, so the measured trajectory is the one an
//! untraced run walks.

use std::cell::RefCell;
use std::time::Instant;

use cloudia_core::{
    Advisor, AdvisorConfig, CommGraph, CostMatrix, LatencyMetric, MeasurementPlan, Objective,
    RedeployPolicy, SearchStrategy, SolveHint,
};
use cloudia_measure::{
    run_anytime, run_pruned, FocusedScheme, MeasureConfig, PairwiseStats, ProbePlan, PruneRule,
    Scheme, Staged, StopRule, SweepPool,
};
use cloudia_netsim::{
    Cloud, DriftParams, DriftingNetwork, FaultParams, InstanceId, Network, Provider,
};
use cloudia_online::{
    DetectorConfig, LinkOnline, MeasurementStream, OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent,
    OnlineStore, ProbePolicy, SimStream,
};
use cloudia_solver::{
    AdaptivePoolConfig, Budget, CandidateConfig, CandidatePruneRule, CandidateSet, CpConfig,
    PortfolioConfig,
};

pub use cloudia_obs::Json;

use crate::trace::Tracer;
use crate::workloads::{BatchSpec, OnlineSpec, Probing, REFRESH_EVERY};

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- netsim --

/// `netsim.boot_alloc_ms`: boot a region, allocate `instances`, and build
/// their network. `head_drift` selects the `FocusScenario` head drift the
/// online workloads run under.
fn netsim_boot_alloc(seed: u64, instances: usize, head_drift: bool) -> (Network, f64) {
    let t0 = Instant::now();
    let mut provider = Provider::ec2_like();
    if head_drift {
        provider.drift = DriftParams { reversion_per_hour: 0.04, sigma_per_sqrt_hour: 0.04 };
    }
    let mut cloud = Cloud::boot(provider, seed);
    let allocation = cloud.allocate(instances);
    let net = cloud.network(&allocation);
    (net, ms_since(t0))
}

/// `netsim.truth_matrix_ms`: the ground-truth cost matrix the loop rebuilds
/// every step.
fn netsim_truth_matrix_ms(net: &Network, timeout_ms: f64) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(net.effective_mean_matrix(timeout_ms));
    ms_since(t0)
}

// ----------------------------------------------------------- batch advise --

/// SplitMix64 of `(seed, i)`: the `i`-th cloud of a run shares nothing with
/// the clouds of the neighbouring `--seed` values.
fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add((i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Inputs of the batch workload, one of each per advise: the network, the
/// advisor, and the bare CP strategy for the solver shadow.
pub struct BatchInputs {
    graph: CommGraph,
    advisors: Vec<Advisor>,
    strategies: Vec<SearchStrategy>,
    nets: Vec<Network>,
    seeds: Vec<u64>,
    /// `netsim.boot_alloc_ms`, one per cloud.
    pub boot_alloc_ms: Vec<f64>,
}

pub fn batch_setup(spec: &BatchSpec, seed: u64) -> BatchInputs {
    let graph = CommGraph::mesh_2d(spec.mesh.0, spec.mesh.1);
    let seeds: Vec<u64> = (0..spec.advises as u64).map(|i| sub_seed(seed, i)).collect();
    // Each advise searches under its own solver seed: a seed shared by the
    // whole pass moves every advise's cost per node the same way, and no
    // number of clouds averages that out.
    let strategies: Vec<SearchStrategy> = seeds
        .iter()
        .map(|&seed| {
            SearchStrategy::Cp(CpConfig {
                budget: Budget::nodes(spec.cp_nodes),
                clusters: Some(spec.cp_clusters),
                seed,
                ..CpConfig::default()
            })
        })
        .collect();
    let advisors = strategies
        .iter()
        .map(|strategy| {
            Advisor::new(AdvisorConfig {
                objective: Objective::LongestLink,
                strategy: Some(strategy.clone()),
                measurement: MeasurementPlan {
                    ks: spec.ks,
                    sweeps: spec.sweeps,
                    config: MeasureConfig::default(),
                },
                ..AdvisorConfig::default()
            })
        })
        .collect();
    let (nets, boot_alloc_ms) =
        seeds.iter().map(|&s| netsim_boot_alloc(s, spec.instances, false)).unzip();
    BatchInputs { graph, advisors, strategies, nets, seeds, boot_alloc_ms }
}

/// What one advise produced, as plain numbers plus the plan.
pub struct AdviseOut {
    pub deployment: Vec<u32>,
    pub instances: usize,
    pub default_cost: f64,
    pub optimized_cost: f64,
    pub round_trips: u64,
    /// `core.measure_ms`, `core.extract_ms`, `core.search_ms`.
    pub measure_ms: f64,
    pub extract_ms: f64,
    pub search_ms: f64,
    costs: CostMatrix,
}

impl BatchInputs {
    pub fn advises(&self) -> usize {
        self.nets.len()
    }

    /// One advise through the public pipeline steps: measure → extract →
    /// search. A cost-extraction error is an operation failure.
    pub fn advise(&self, i: usize, tracer: &mut Tracer) -> Result<AdviseOut, String> {
        let (net, seed, advisor) = (&self.nets[i], self.seeds[i], &self.advisors[i]);
        let (report, measure_ms) = tracer.time("core.measure", |_| advisor.measure(net, seed));
        let (costs, extract_ms) =
            tracer.time("core.extract", |_| LatencyMetric::Mean.try_cost_matrix(&report.stats));
        let costs = costs.map_err(|e| format!("cost extraction failed: {e:?}"))?;
        let kept = costs.clone();
        let (outcome, search_ms) = tracer.time("core.search", |_| {
            advisor.search_with_costs(net, &self.graph, costs, &SolveHint::Cold)
        });
        Ok(AdviseOut {
            deployment: outcome.deployment,
            instances: net.len(),
            default_cost: outcome.default_cost,
            optimized_cost: outcome.optimized_cost,
            round_trips: report.round_trips,
            measure_ms,
            extract_ms,
            search_ms,
            costs: kept,
        })
    }

    /// `solver.cp_search_ms` / `solver.cp_nodes_per_s`: the bare CP solve on
    /// the costs advise `i` searched, without the advisor's ground-truth
    /// evaluation around it. Returns `(ms, nodes explored)`.
    pub fn solver_cp_search(&self, i: usize, out: &AdviseOut, tracer: &mut Tracer) -> (f64, u64) {
        let problem = self.graph.problem(out.costs.clone());
        let (solve, ms) = tracer
            .time("solver.cp_search", |_| self.strategies[i].run(&problem, Objective::LongestLink));
        (ms, solve.explored)
    }

    /// `netsim.truth_matrix_ms` for advise `i`.
    pub fn netsim_truth_matrix(&self, i: usize, tracer: &mut Tracer) -> f64 {
        let timeout = MeasureConfig::default().timeout_ms;
        tracer.time("netsim.truth_matrix", |_| netsim_truth_matrix_ms(&self.nets[i], timeout)).1
    }
}

// ------------------------------------------------------------ online loop --

const EPOCH_HOURS: f64 = 6.0;
const PROBE_KS: usize = 3;
const PROBE_SWEEPS: usize = 2;
/// Wall-clock cap of one repair; a repair that runs to 90 % of it was cut
/// off by the clock, not by a proof, and counts as a failed operation.
pub const SOLVE_SECONDS: f64 = 1.0;
pub const MIGRATION_BUDGET: usize = 3;

/// Everything set-up produces for an online workload.
pub struct OnlineInputs {
    spec: OnlineSpec,
    seed: u64,
    graph: CommGraph,
    net: Network,
    initial: Vec<u32>,
    mcfg: MeasureConfig,
    config: OnlineAdvisorConfig,
    pub boot_alloc_ms: f64,
}

/// Boots the cloud, measures it once, and solves the initial plan with a
/// node-budgeted deterministic portfolio — work-bounded, so the plan is a
/// pure function of the seed.
pub fn online_setup(spec: &OnlineSpec, seed: u64) -> OnlineInputs {
    let graph = CommGraph::mesh_2d(spec.mesh.0, spec.mesh.1);
    let (net, boot_alloc_ms) = netsim_boot_alloc(seed, spec.instances, true);
    let mcfg = MeasureConfig {
        seed,
        stage_workers: spec.stage_workers,
        retries_per_pair: 3,
        ..MeasureConfig::default()
    };
    let report = Staged::new(PROBE_KS, PROBE_SWEEPS).run(&net, &mcfg);
    let initial = SearchStrategy::Portfolio(PortfolioConfig {
        threads: 1,
        ..PortfolioConfig::deterministic(spec.initial_nodes, seed)
    })
    .run(&graph.problem(LatencyMetric::Mean.cost_matrix(&report.stats)), Objective::LongestLink)
    .deployment;

    let m = spec.instances;
    let config = OnlineAdvisorConfig {
        objective: Objective::LongestLink,
        policy: RedeployPolicy { min_gain: 0.02, migration_cost_per_node: 0.05 },
        migration_budget: MIGRATION_BUDGET,
        solve_seconds: SOLVE_SECONDS,
        threads: 1,
        seed,
        candidates: Some(CandidateConfig::adaptive(AdaptivePoolConfig {
            initial: 20,
            alpha: 0.1,
            ..AdaptivePoolConfig::default()
        })),
        probe_policy: match spec.probing {
            Probing::Focused => {
                ProbePolicy::Focused { refresh_every: REFRESH_EVERY, max_flagged: m * (m - 1) / 8 }
            }
            Probing::Uniform | Probing::Anytime => ProbePolicy::Uniform,
        },
        probe_ks: PROBE_KS,
        probe_sweeps: PROBE_SWEEPS,
        prune_during_sweep: spec.probing != Probing::Uniform,
        prune_refresh_every: 4,
        spot_check_probes: if spec.lossy { 8 } else { 0 },
        confidence: (spec.probing == Probing::Anytime).then_some(0.95),
        anytime: spec.probing == Probing::Anytime,
        ewma_alpha: 0.5,
        detector: DetectorConfig { warmup: 3, threshold: 6.0, ..DetectorConfig::default() },
        // The default ring evicts `Resolve` events on long runs; the run
        // reads every event exactly once.
        event_capacity: 0,
        ..OnlineAdvisorConfig::default()
    };
    OnlineInputs { spec: *spec, seed, graph, net, initial, mcfg, config, boot_alloc_ms }
}

impl OnlineInputs {
    fn stream(&self) -> SimStream<Staged> {
        let scheme = Staged::new(PROBE_KS, PROBE_SWEEPS);
        let drift_seed = self.seed ^ 0xf0c5;
        if self.spec.lossy {
            SimStream::with_faults(
                self.net.clone(),
                scheme,
                self.mcfg.clone(),
                EPOCH_HOURS,
                drift_seed,
                FaultParams::drifting_loss(0.05),
                self.seed ^ 0xfa11,
            )
        } else {
            SimStream::new(self.net.clone(), scheme, self.mcfg.clone(), EPOCH_HOURS, drift_seed)
        }
    }

    /// The loop itself: advisor + stream, nothing measured yet.
    pub fn start(&self) -> OnlineLoop {
        let advisor = OnlineAdvisor::new(
            self.graph.clone(),
            self.spec.instances,
            self.initial.clone(),
            self.config.clone(),
        );
        OnlineLoop { advisor, stream: self.stream(), spec: self.spec, events_seen: 0, victim: None }
    }

    /// The traced pass's shadow of the loop's inputs: an identically seeded
    /// stream, drift process, and link store that the inner layers are
    /// timed on.
    pub fn shadow(&self) -> Shadow {
        let mut drift = DriftingNetwork::new(self.net.clone(), self.seed ^ 0xf0c5);
        if self.spec.lossy {
            drift = drift.with_faults(FaultParams::drifting_loss(0.05), self.seed ^ 0xfa11);
        }
        Shadow {
            stream: self.stream(),
            idle: self.stream(),
            drift,
            store: OnlineStore::new(
                self.spec.instances,
                self.config.ewma_alpha,
                self.config.detector,
            ),
            spec: self.spec,
            mcfg: self.mcfg.clone(),
            nodes: self.graph.num_nodes(),
            timeout_ms: self.config.timeout_ms,
            epoch: 0,
        }
    }
}

/// One epoch's observable outputs.
#[derive(Debug, Clone, Default)]
pub struct EpochOut {
    pub epoch: u64,
    pub round_trips: u64,
    pub true_cost: f64,
    pub est_cost: f64,
    pub moved: usize,
    pub deployment: Vec<u32>,
    /// Events the epoch logged.
    pub fires: u64,
    pub resolves: u64,
    pub migrations: u64,
    pub evacuated: bool,
    /// A `LinkDark` event touching the forced-dark instance.
    pub victim_link_dark: bool,
    /// In-loop wall time of each repair (s).
    pub resolve_seconds: Vec<f64>,
    /// The harness spans of the public sweep/step split (0 when the epoch
    /// went through `step_stream`).
    pub sweep_ms: f64,
    pub step_ms: f64,
}

pub struct OnlineLoop {
    advisor: OnlineAdvisor,
    stream: SimStream<Staged>,
    spec: OnlineSpec,
    events_seen: usize,
    victim: Option<u32>,
}

/// End-of-run readings off the loop's own state.
#[derive(Debug, Clone, Default)]
pub struct LoopFinals {
    pub time_averaged_cost: f64,
    pub probe_round_trips: u64,
    pub saved_round_trips: u64,
    /// `measure.stats_resident_mb`.
    pub stats_resident_mb: f64,
    /// `measure.timeout_ratio`.
    pub timeout_ratio: f64,
    /// `online.store_mb`: m² × `size_of::<LinkOnline>()`.
    pub store_mb: f64,
}

impl OnlineLoop {
    /// The instance forced dark, once the blackout has happened.
    pub fn victim(&self) -> Option<u32> {
        self.victim
    }

    /// Scripted fault: at the blackout epoch the instance hosting node 0
    /// goes dark for good. Call before stepping each epoch; returns the
    /// instance on the epoch it is struck.
    pub fn inject_faults(&mut self, epoch: u64) -> Option<u32> {
        if self.spec.blackout_epoch != Some(epoch) {
            return None;
        }
        let victim = self.advisor.deployment()[0];
        self.stream.force_instance_dark(victim, 1e9);
        self.victim = Some(victim);
        self.victim
    }

    /// One epoch the way a user drives it.
    pub fn step_stream(&mut self, tracer: &mut Tracer) -> EpochOut {
        let (summary, _) =
            tracer.time("online.step_stream", |_| self.advisor.step_stream(&mut self.stream));
        self.collect(summary, 0.0, 0.0)
    }

    /// The same epoch through the public `next_epoch` / `step` split. Exact
    /// only where `OnlineSpec::splittable` holds.
    pub fn step_split(&mut self, tracer: &mut Tracer) -> EpochOut {
        let (m, sweep_ms) = tracer.time("online.sweep", |_| self.stream.next_epoch());
        let (summary, step_ms) =
            tracer.time("online.step", |_| self.advisor.step(&m, self.stream.network()));
        self.collect(summary, sweep_ms, step_ms)
    }

    fn collect(
        &mut self,
        summary: cloudia_online::EpochSummary,
        sweep_ms: f64,
        step_ms: f64,
    ) -> EpochOut {
        let mut out = EpochOut {
            epoch: summary.epoch,
            round_trips: summary.round_trips,
            true_cost: summary.true_cost,
            est_cost: summary.est_cost,
            moved: summary.moved,
            deployment: self.advisor.deployment().clone(),
            sweep_ms,
            step_ms,
            ..EpochOut::default()
        };
        for event in self.advisor.events().iter().skip(self.events_seen) {
            match event {
                OnlineEvent::Change { .. } => out.fires += 1,
                OnlineEvent::Resolve { solve_seconds, .. } => {
                    out.resolves += 1;
                    out.resolve_seconds.push(*solve_seconds);
                }
                OnlineEvent::Migrate { .. } => out.migrations += 1,
                OnlineEvent::Evacuate { .. } => out.evacuated = true,
                OnlineEvent::LinkDark { src, dst, .. }
                    if self.victim.is_some_and(|v| v == *src || v == *dst) =>
                {
                    out.victim_link_dark = true;
                }
                _ => {}
            }
        }
        self.events_seen = self.advisor.events().len();
        out
    }

    pub fn finals(&self) -> LoopFinals {
        let stats = self.stream.cumulative();
        let m = self.spec.instances as f64;
        let probes = self.advisor.probe_round_trips();
        LoopFinals {
            time_averaged_cost: self.advisor.time_averaged_cost(),
            probe_round_trips: probes,
            saved_round_trips: self.advisor.sweep_saved_round_trips(),
            stats_resident_mb: stats.resident_bytes() as f64 / 1e6,
            timeout_ratio: stats.total_timeouts() as f64 / stats.total_attempts().max(1) as f64,
            store_mb: m * m * std::mem::size_of::<LinkOnline>() as f64 / 1e6,
        }
    }
}

// ------------------------------------------------- shadows of inner layers --

/// Delegates to the advisor's prune rule and logs each evaluation's interval.
struct TimedPrune<'a> {
    inner: &'a dyn PruneRule,
    log: RefCell<Vec<(Instant, Instant)>>,
}

impl PruneRule for TimedPrune<'_> {
    fn prune(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> Vec<(u32, u32)> {
        let t0 = Instant::now();
        let out = self.inner.prune(stats, remaining);
        self.log.borrow_mut().push((t0, Instant::now()));
        out
    }
}

/// Same for the anytime stop rule.
struct TimedStop<'a> {
    inner: &'a dyn StopRule,
    log: RefCell<Vec<(Instant, Instant)>>,
}

impl StopRule for TimedStop<'_> {
    fn stable(&self, stats: &PairwiseStats, remaining: &[(u32, u32)]) -> bool {
        let t0 = Instant::now();
        let out = self.inner.stable(stats, remaining);
        self.log.borrow_mut().push((t0, Instant::now()));
        out
    }

    fn must_keep(&self, a: u32, b: u32) -> bool {
        self.inner.must_keep(a, b)
    }
}

fn drain_log(
    log: &RefCell<Vec<(Instant, Instant)>>,
    name: &'static str,
    tracer: &mut Tracer,
) -> (f64, u64) {
    let log = log.take();
    let mut ms = 0.0;
    for &(t0, t1) in &log {
        tracer.record(name, t0, t1);
        ms += t1.duration_since(t0).as_secs_f64() * 1e3;
    }
    (ms, log.len() as u64)
}

/// Per-epoch layer timings measured on the shadow state (all ms).
#[derive(Debug, Clone, Default)]
pub struct ShadowOut {
    /// The epoch ran the stream's own full sweep (bootstrap, refresh, or a
    /// uniform workload) rather than a focused plan.
    pub full_sweep: bool,
    /// `netsim.drift_step_ms`, `netsim.truth_matrix_ms`.
    pub drift_step_ms: f64,
    pub truth_matrix_ms: f64,
    /// `online.plan_build_ms`: rule builders + `next_probe_scheme`.
    pub plan_build_ms: f64,
    /// `online.partial_stats_ms` + `solver.build_partial_ms`.
    pub partial_stats_ms: f64,
    pub build_partial_ms: f64,
    /// The shadow stream's `next_epoch*`, rule evaluations excluded.
    pub stream_ms: f64,
    /// An epoch of the idle stream with an empty probe plan: drift step plus
    /// hand-off, no sweep (0 on epoch 0, which fills its statistics).
    pub idle_epoch_ms: f64,
    /// `measure.sweep_ms`: the same sweep through `Scheme::run_onto` /
    /// `run_pruned` / `run_anytime` on a clone of the statistics, rule
    /// evaluations excluded.
    pub sweep_ms: f64,
    /// The same sweep with `stage_workers = 1` (only where the workload
    /// runs another setting).
    pub serial_sweep_ms: Option<f64>,
    pub sweep_round_trips: u64,
    /// `solver.prune_eval_ms` / `solver.stop_eval_ms` per sweep, with counts.
    pub prune_eval_ms: f64,
    pub prune_evals: u64,
    pub stop_eval_ms: f64,
    pub stop_evals: u64,
    /// `online.observe_epoch_ms`, `online.deltas_per_epoch`.
    pub observe_epoch_ms: f64,
    pub deltas: u64,
}

impl ShadowOut {
    /// `online.stream_handoff_ms`: what `next_epoch*` costs beyond the
    /// drift step and the sweep it wraps — the dense snapshot of the
    /// cumulative statistics and the delta walk over all m² links.
    pub fn handoff_ms(&self) -> f64 {
        (self.idle_epoch_ms - self.drift_step_ms).max(0.0)
    }
}

pub struct Shadow {
    stream: SimStream<Staged>,
    /// A third stream that sweeps once and then measures nothing: what its
    /// epochs still cost is the hand-off.
    idle: SimStream<Staged>,
    drift: DriftingNetwork,
    store: OnlineStore,
    spec: OnlineSpec,
    mcfg: MeasureConfig,
    nodes: usize,
    timeout_ms: f64,
    epoch: u64,
}

impl Shadow {
    /// Mirrors the loop's scripted blackout onto the shadow stream.
    pub fn force_dark(&mut self, instance: u32) {
        self.stream.force_instance_dark(instance, 1e9);
        self.idle.force_instance_dark(instance, 1e9);
        self.drift.force_instance_dark(InstanceId(instance), 1e9);
    }

    /// Runs the next epoch's layers on the shadow state, driven by the
    /// rules and probe scheme the loop's advisor would use for it. Call
    /// before the loop steps that epoch.
    pub fn epoch(&mut self, lp: &OnlineLoop, tracer: &mut Tracer) -> ShadowOut {
        let mut out = ShadowOut::default();
        let advisor = &lp.advisor;

        // online.plan_build_ms: what step_stream builds before it measures.
        let ((rule, stop, scheme), plan_build_ms) = tracer.time("online.plan_build", |_| {
            let rule: Option<Box<dyn PruneRule>> = if self.spec.probing == Probing::Anytime {
                advisor.sweep_ci_prune_rule().map(|r| Box::new(r) as Box<dyn PruneRule>)
            } else {
                advisor.sweep_prune_rule().map(|r| Box::new(r) as Box<dyn PruneRule>)
            };
            (rule, advisor.sweep_stop_rule(), advisor.next_probe_scheme())
        });
        out.plan_build_ms = plan_build_ms;
        let scheme_ref: Option<&dyn Scheme> = match &scheme {
            Some(s) if s.plan.is_full() => None,
            other => other.as_ref().map(|s| s as &dyn Scheme),
        };
        out.full_sweep = scheme_ref.is_none();

        (out.partial_stats_ms, out.build_partial_ms) = self.solver_build_partial(advisor, tracer);
        out.drift_step_ms = tracer
            .time("netsim.drift_step", |_| {
                self.drift.step(EPOCH_HOURS);
            })
            .1;

        // online.sweep_ms (shadow) and solver.*_eval_ms: the stream's epoch,
        // with the advisor's rules behind timing wrappers.
        let before = self.stream.cumulative().clone();
        let log = || RefCell::new(Vec::new());
        let timed_rule = rule.as_deref().map(|inner| TimedPrune { inner, log: log() });
        let timed_stop = stop.as_ref().map(|inner| TimedStop { inner, log: log() });
        let (m, stream_ms) = tracer.time("online.stream_epoch", |tracer| {
            let m = match (&timed_rule, &timed_stop) {
                (None, _) => match scheme_ref {
                    None => self.stream.next_epoch(),
                    Some(s) => self.stream.next_epoch_with(s),
                },
                (Some(rule), None) => self.stream.next_epoch_pruned(scheme_ref, rule),
                (Some(rule), Some(stop)) => self.stream.next_epoch_anytime(scheme_ref, rule, stop),
            };
            if let Some(rule) = &timed_rule {
                (out.prune_eval_ms, out.prune_evals) =
                    drain_log(&rule.log, "solver.prune_eval", tracer);
            }
            if let Some(stop) = &timed_stop {
                (out.stop_eval_ms, out.stop_evals) =
                    drain_log(&stop.log, "solver.stop_eval", tracer);
            }
            m
        });
        out.stream_ms = stream_ms - out.prune_eval_ms - out.stop_eval_ms;

        // measure.sweep_ms: the bare sweep on a clone of the statistics the
        // stream's epoch started from.
        let net = self.stream.network();
        let own = Staged::new(PROBE_KS, PROBE_SWEEPS);
        let chosen: &dyn Scheme = scheme_ref.unwrap_or(&own);
        // The stream derives its per-epoch probe seed this way; mirroring it
        // makes the bare sweep draw the samples the stream drew.
        let mut cfg = self.mcfg.clone();
        cfg.seed ^= (self.epoch + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let sweep = |cfg: &MeasureConfig, stats: PairwiseStats, tracer: &mut Tracer| {
            let (round_trips, ms) =
                tracer.time("measure.sweep", |_| match (&timed_rule, &timed_stop) {
                    (None, _) => chosen.run_onto(net, cfg, stats).round_trips,
                    (Some(rule), None) => {
                        run_pruned(chosen, net, cfg, stats, rule).report.round_trips
                    }
                    (Some(rule), Some(stop)) => {
                        run_anytime(chosen, net, cfg, stats, rule, stop).report.round_trips
                    }
                });
            let rules: f64 =
                [timed_rule.as_ref().map(|r| &r.log), timed_stop.as_ref().map(|s| &s.log)]
                    .into_iter()
                    .flatten()
                    .flat_map(RefCell::take)
                    .map(|(t0, t1)| t1.duration_since(t0).as_secs_f64() * 1e3)
                    .sum();
            (round_trips, ms - rules)
        };
        if self.spec.stage_workers != 1 {
            let serial = MeasureConfig { stage_workers: 1, ..cfg.clone() };
            out.serial_sweep_ms = Some(sweep(&serial, before.clone(), tracer).1);
        }
        (out.sweep_round_trips, out.sweep_ms) = sweep(&cfg, before, tracer);

        out.truth_matrix_ms =
            tracer.time("netsim.truth_matrix", |_| netsim_truth_matrix_ms(net, self.timeout_ms)).1;
        out.idle_epoch_ms = self.online_idle_epoch(tracer);

        // online.observe_epoch_ms: ingest the epoch's deltas into the shadow
        // link store.
        out.deltas = m.deltas.len() as u64;
        out.observe_epoch_ms = tracer
            .time("online.observe_epoch", |_| {
                drop(std::hint::black_box(self.store.observe_epoch(&m)))
            })
            .1;
        self.epoch += 1;
        out
    }

    /// `online.partial_stats_ms` and `solver.build_partial_ms`: the candidate
    /// pool a focused plan or a prune rule builds from the store's partial
    /// statistics.
    fn solver_build_partial(&self, advisor: &OnlineAdvisor, tracer: &mut Tracer) -> (f64, f64) {
        let (partial, partial_stats_ms) =
            tracer.time("online.partial_stats", |_| advisor.store().partial_stats());
        let pool = CandidateConfig::fixed(advisor.adaptive_k().unwrap_or(2 * self.nodes));
        let ((), build_partial_ms) = tracer.time("solver.build_partial", |_| {
            std::hint::black_box(CandidateSet::build_partial(
                self.nodes,
                &partial,
                &pool,
                Some(advisor.deployment()),
                None,
                CandidatePruneRule::DEFAULT_MIN_COVERAGE,
            ));
        });
        (partial_stats_ms, build_partial_ms)
    }

    /// One epoch of the idle stream under an empty probe plan: drift step plus
    /// hand-off, no sweep. Its first epoch is a full sweep instead (returns
    /// 0), so that later snapshots walk populated statistics.
    fn online_idle_epoch(&mut self, tracer: &mut Tracer) -> f64 {
        if self.epoch == 0 {
            self.idle.next_epoch();
            return 0.0;
        }
        let nothing =
            FocusedScheme::new(ProbePlan::new(self.spec.instances), PROBE_KS, PROBE_SWEEPS);
        tracer.time("online.idle_epoch", |_| drop(self.idle.next_epoch_with(&nothing))).1
    }
}

// ---------------------------------------------------------- measure + obs --

/// `measure.pool_tasks` / `measure.pool_parks`: lifetime counters of the
/// process-wide sweep pool.
pub fn measure_pool_counters() -> (u64, u64) {
    let stats = SweepPool::global().stats();
    (stats.tasks, stats.parks)
}

/// Reads the product's own telemetry registry — the exact event counts the
/// loop publishes (`online.detector_fires`, `online.resolves`, …).
pub fn obs_counter(name: &str) -> u64 {
    cloudia_obs::metrics().counter_value(name)
}

/// Drains the product's span ring and returns the wall time (ms) of the
/// latest span called `name` — `online.step` is the control loop proper
/// (ingest → detect → repair → account), on every workload.
pub fn obs_take_span_ms(name: &str) -> Option<f64> {
    cloudia_obs::take_spans().iter().rev().find(|s| s.name == name).map(|s| s.wall_ms)
}

//! The shared focused-vs-uniform differential scenario.
//!
//! The focused-probing contract — focused probing spends ≤ 25 % of
//! uniform's probe round trips while staying within 2 % of its
//! time-averaged ground-truth cost, and the adaptive pool `k` shrinks on
//! a stationary tail — and its mid-sweep pruning sibling (≥ 30 % of the
//! round trips saved, cost within 2 %) are asserted by the `ext_focus`
//! and `ext_sweep` bench smokes (CI), `crates/online/tests/focused.rs`,
//! and the root `tests/focused.rs` and `tests/sweep.rs` cases. All of
//! them build the *same* scenario through this module, so the contract
//! cannot silently fork: a drifting **active head** (strong enough that
//! triggers fire and plans go stale, mild enough that link order mostly
//! persists — the paper's stability premise, and the regime where
//! focusing is sound) followed by a **quiet tail** of near-zero
//! volatility. Every arm runs its own [`SimStream`] from the scenario's
//! seeds, so all of them walk the identical trajectory.
//!
//! One trajectory decides nothing about a 2 % cost contract: a single
//! seed's focused−uniform gap spreads with a standard deviation near
//! 10 %. So the cost contract is judged by [`FocusScenario::against_uniform`]
//! as a median over the scenario seeds [`CONTRACT_SEEDS`], fixed before
//! any run, against [`MEDIAN_COST_GAP_BOUND`].

use cloudia_core::{CommGraph, LatencyMetric, Objective, RedeployPolicy, SearchStrategy};
use cloudia_measure::{MeasureConfig, Scheme, Staged};
use cloudia_netsim::{Cloud, DriftParams, FaultParams, Network, Provider};
use cloudia_solver::{AdaptivePoolConfig, Budget, CandidateConfig, PortfolioConfig};

use crate::advisor::{OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent, ProbePolicy};
use crate::detect::DetectorConfig;
use crate::stream::SimStream;

/// Parameters of the differential scenario. [`FocusScenario::default`]
/// is the CI smoke configuration.
#[derive(Debug, Clone)]
pub struct FocusScenario {
    /// Application graph rows × cols (2-D mesh).
    pub mesh: (usize, usize),
    /// Allocated instances (nodes + spares).
    pub instances: usize,
    /// Epochs of drifting head.
    pub head_epochs: u64,
    /// Epochs of near-zero-volatility tail.
    pub tail_epochs: u64,
    /// Simulated hours per epoch.
    pub epoch_hours: f64,
    /// Wall-clock budget per incremental re-solve (seconds).
    pub solve_seconds: f64,
    /// Base seed (cloud, probes, trajectory).
    pub seed: u64,
    /// Staged/focused Ks per pair per stage.
    pub probe_ks: usize,
    /// Sweeps per round (2 covers both directions).
    pub probe_sweeps: usize,
    /// OU drift of the active head.
    pub head_drift: DriftParams,
    /// Adaptive pool starting `k`.
    pub initial_k: usize,
    /// Adaptive pool escalation-rate EWMA smoothing. Slow (0.1) so the
    /// head's unanswered triggers hold the rate near neutral and only
    /// the sustained quiet tail pulls it below the shrink threshold —
    /// the `k` decline is then visible *during* the tail.
    pub pool_alpha: f64,
    /// Focused staleness horizon (epochs).
    pub refresh_every: u64,
    /// Staleness horizon protecting pairs from mid-sweep pruning under
    /// uniform probing. Tighter than `refresh_every`: a pruned uniform
    /// sweep is the only opportunity off-pool links ever get, so they
    /// must rejoin more often for the detectors to keep seeing
    /// off-pool opportunities — the refreshes are amortized across
    /// epochs (1/horizon of the off-pool pairs per epoch), so the
    /// savings stay far above the 30 % contract.
    pub prune_refresh_every: u64,
}

impl Default for FocusScenario {
    fn default() -> Self {
        Self {
            mesh: (3, 4),
            instances: 56,
            head_epochs: 16,
            tail_epochs: 16,
            epoch_hours: 6.0,
            solve_seconds: 0.2,
            seed: 42,
            probe_ks: 3,
            probe_sweeps: 2,
            // ~14% stationary wiggle on a ~25 h timescale: plans go
            // stale without the global storm that would demand full
            // sweeps anyway.
            head_drift: DriftParams { reversion_per_hour: 0.04, sigma_per_sqrt_hour: 0.04 },
            initial_k: 20,
            pool_alpha: 0.1,
            refresh_every: 10,
            prune_refresh_every: 4,
        }
    }
}

impl FocusScenario {
    /// Total epochs (head + tail).
    pub fn epochs(&self) -> u64 {
        self.head_epochs + self.tail_epochs
    }

    /// The probe-plan escalation threshold: a genuinely global shift
    /// flags a sizable fraction of all pairs at once, while the
    /// detectors' noise-fire baseline under this drift regime (a few
    /// percent of measured links per epoch) must stay well below it or
    /// every epoch degenerates to a full sweep. A quarter of all
    /// unordered pairs separates the two.
    pub fn max_flagged(&self) -> usize {
        self.instances * (self.instances - 1) / 8
    }

    /// The focused probe policy of this scenario.
    pub fn focused_policy(&self) -> ProbePolicy {
        ProbePolicy::Focused { refresh_every: self.refresh_every, max_flagged: self.max_flagged() }
    }

    /// Builds this scenario at each of `seeds` and runs uniform probing
    /// and the arm `opts` on it — the input of the statistical contracts
    /// (see [`MEDIAN_COST_GAP_BOUND`]).
    pub fn against_uniform(
        &self,
        seeds: impl IntoIterator<Item = u64>,
        opts: ArmOptions,
    ) -> SeedComparison {
        let runs = seeds
            .into_iter()
            .map(|seed| {
                let built = FocusScenario { seed, ..self.clone() }.build();
                (seed, built.run_arm(ProbePolicy::Uniform), built.run_arm_with(opts))
            })
            .collect();
        SeedComparison { runs }
    }

    /// Boots the cloud and solves the initial plan on hour-0
    /// measurements; every arm then drifts the hour-0 network from the
    /// scenario's seeds.
    pub fn build(&self) -> BuiltFocusScenario {
        let graph = CommGraph::mesh_2d(self.mesh.0, self.mesh.1);
        let mut provider = Provider::ec2_like();
        provider.drift = self.head_drift;
        let mut cloud = Cloud::boot(provider, self.seed);
        let alloc = cloud.allocate(self.instances);
        let net = cloud.network(&alloc);

        let measure_cfg = MeasureConfig { seed: self.seed, ..MeasureConfig::default() };
        let initial_report = Staged::new(self.probe_ks, self.probe_sweeps).run(&net, &measure_cfg);
        let initial = SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(self.solve_seconds.max(1.0)),
            threads: 1,
            seed: self.seed,
            ..PortfolioConfig::default()
        })
        .run(
            &graph.problem(LatencyMetric::Mean.cost_matrix(&initial_report.stats)),
            Objective::LongestLink,
        )
        .deployment;

        BuiltFocusScenario { scenario: self.clone(), graph, initial, net, measure_cfg }
    }
}

/// The scenario seeds the statistical contracts are judged over, fixed
/// before any run.
pub const CONTRACT_SEEDS: std::ops::RangeInclusive<u64> = 1..=64;

/// The bound on the median, over [`CONTRACT_SEEDS`], of an arm's relative
/// time-averaged cost gap to uniform probing.
///
/// The per-arm contract is "within 2 % of uniform". Over scenario seeds
/// 1–200 one seed's gap has a standard deviation of 9.6 % for focused
/// probing and 6.5 % for pruned sweeps (medians +0.8 % and +0.2 %). The
/// median of 64 seeds then has a standard error of about
/// 1.25 · 9.6 % / √64 ≈ 1.5 % (resampling the 200 seeds gives 1.6 % and
/// 0.8 %). The bound is the contract plus two standard errors of the
/// noisier arm, 2 % + 2 · 1.5 % = 5 %: code whose true median gap sits
/// at the 2 % contract fails about one trajectory re-draw in forty, and
/// code at the measured ~1 % almost never.
pub const MEDIAN_COST_GAP_BOUND: f64 = 0.05;

/// One arm run against uniform probing on each of a set of scenario
/// seeds — see [`FocusScenario::against_uniform`].
#[derive(Debug, Clone)]
pub struct SeedComparison {
    /// Per seed, in order: the seed, the uniform arm, the compared arm.
    pub runs: Vec<(u64, FocusArm, FocusArm)>,
}

impl SeedComparison {
    /// The median over seeds of `arm.avg_cost / uniform.avg_cost − 1`
    /// (the mean of the two middle values for an even count).
    pub fn median_cost_gap(&self) -> f64 {
        median(
            self.runs
                .iter()
                .map(|(_, uniform, arm)| {
                    arm.avg_cost / uniform.avg_cost.max(f64::MIN_POSITIVE) - 1.0
                })
                .collect(),
        )
    }

    /// Each seed's probe round trips as a fraction of uniform's.
    pub fn probe_ratios(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.runs
            .iter()
            .map(|(seed, uniform, arm)| (*seed, arm.probes as f64 / uniform.probes.max(1) as f64))
    }

    /// Seeds whose compared arm ended the quiet tail with its adaptive
    /// `k` still at its peak (or with no adaptive `k` at all).
    pub fn seeds_where_k_held(&self) -> Vec<u64> {
        self.runs
            .iter()
            .filter(|(_, _, arm)| {
                let peak = arm.k_trace.iter().map(|&(_, k)| k).max();
                arm.k_trace.last().is_none_or(|&(_, k)| Some(k) >= peak)
            })
            .map(|&(seed, _, _)| seed)
            .collect()
    }
}

/// The median of `values` (the mean of the two middle values for an even
/// count).
///
/// # Panics
/// Panics if `values` is empty.
pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// A built scenario: everything an arm needs to run the shared trajectory.
#[derive(Debug, Clone)]
pub struct BuiltFocusScenario {
    /// The parameters this scenario was built from.
    pub scenario: FocusScenario,
    /// The application graph.
    pub graph: CommGraph,
    /// The hour-0 deployment every arm starts from.
    pub initial: Vec<u32>,
    /// The hour-0 network every arm drifts.
    pub net: Network,
    /// Probe configuration shared by every arm.
    pub measure_cfg: MeasureConfig,
}

/// What one arm of the comparison produced.
#[derive(Debug, Clone)]
pub struct FocusArm {
    /// Time-averaged ground-truth cost (incl. amortized migrations).
    pub avg_cost: f64,
    /// Probe round trips spent across all epochs.
    pub probes: u64,
    /// Incremental re-solves run.
    pub resolves: usize,
    /// Migrations applied.
    pub migrations: usize,
    /// Adaptive `k` after each epoch.
    pub k_trace: Vec<(u64, usize)>,
    /// Round trips saved by mid-sweep pruning (0 without pruning).
    pub saved_round_trips: u64,
    /// Extra round trips re-invested into deeper flagged-link sampling.
    pub deep_probe_round_trips: u64,
}

/// Per-arm switches of the comparison: the probe policy plus the
/// stage-streaming knobs (mid-sweep pruning, spot-check confirmation).
#[derive(Debug, Clone, Copy)]
pub struct ArmOptions {
    /// How the arm spends its per-epoch probe budget.
    pub probe_policy: ProbePolicy,
    /// Mid-sweep tournament pruning on the measurement sweeps.
    pub prune_during_sweep: bool,
    /// Spot-check probes confirming degradation alarms (0 = off).
    pub spot_check_probes: usize,
    /// Confidence level for the error-bounded decision layer (`None` =
    /// the point-estimate loop; see
    /// [`OnlineAdvisorConfig::confidence`]).
    pub confidence: Option<f64>,
    /// Anytime sweeps: stop a stage early once every prune/pool decision
    /// is CI-stable (requires `confidence` and `prune_during_sweep`).
    pub anytime: bool,
}

impl ArmOptions {
    /// `probe_policy` with pruning, spot checks, intervals and anytime
    /// stops off.
    pub fn plain(probe_policy: ProbePolicy) -> Self {
        Self {
            probe_policy,
            prune_during_sweep: false,
            spot_check_probes: 0,
            confidence: None,
            anytime: false,
        }
    }
}

/// The drift of [`FocusScenario`]'s quiet tail: near-zero volatility.
const QUIET_TAIL: DriftParams = DriftParams { reversion_per_hour: 1.0, sigma_per_sqrt_hour: 1e-5 };

impl BuiltFocusScenario {
    /// A fresh stream over the scenario's trajectory: the hour-0 network
    /// under the head drift, keyed by the scenario seed, measured by the
    /// uniform staged sweep. Run [`BuiltFocusScenario::script`] before
    /// each epoch.
    pub fn stream(&self) -> SimStream<Staged> {
        let s = &self.scenario;
        SimStream::new(
            self.net.clone(),
            Staged::new(s.probe_ks, s.probe_sweeps),
            self.measure_cfg.clone(),
            s.epoch_hours,
            s.seed ^ 0xf0c5,
        )
    }

    /// The scripted event due before epoch `epoch`: the first tail epoch
    /// re-bases the drift onto the quiet tail, keyed afresh.
    pub fn script(&self, stream: &mut SimStream<Staged>, epoch: u64) {
        let s = &self.scenario;
        if epoch == s.head_epochs {
            stream.rebase_drift(QUIET_TAIL, s.seed ^ 0x7a11);
        }
    }

    /// Runs one arm over the scenario's trajectory under `probe_policy`
    /// with pruning and spot checks off. All arms share the adaptive
    /// candidates config, the detector settings, and the migration
    /// economics — only the probe policy differs.
    pub fn run_arm(&self, probe_policy: ProbePolicy) -> FocusArm {
        self.run_arm_with(ArmOptions::plain(probe_policy))
    }

    /// Runs one arm over the scenario's trajectory under the full option
    /// set, streaming every advisor event and epoch summary into
    /// `recorder` (which is returned, un-finished, so the caller can
    /// append metrics snapshots before closing the trace).
    pub fn run_arm_traced(
        &self,
        opts: ArmOptions,
        recorder: cloudia_obs::RunRecorder,
    ) -> (FocusArm, cloudia_obs::RunRecorder) {
        let (arm, rec) = self.run_arm_inner(opts, Some(recorder));
        (arm, rec.expect("recorder attached above"))
    }

    /// Runs one arm over the scenario's trajectory under the full option
    /// set.
    pub fn run_arm_with(&self, opts: ArmOptions) -> FocusArm {
        self.run_arm_inner(opts, None).0
    }

    fn run_arm_inner(
        &self,
        opts: ArmOptions,
        recorder: Option<cloudia_obs::RunRecorder>,
    ) -> (FocusArm, Option<cloudia_obs::RunRecorder>) {
        let s = &self.scenario;
        let config = OnlineAdvisorConfig {
            objective: Objective::LongestLink,
            policy: RedeployPolicy { min_gain: 0.02, migration_cost_per_node: 0.05 },
            migration_budget: 3,
            solve_seconds: s.solve_seconds,
            threads: 1,
            seed: s.seed,
            candidates: Some(CandidateConfig::adaptive(AdaptivePoolConfig {
                initial: s.initial_k,
                alpha: s.pool_alpha,
            })),
            probe_policy: opts.probe_policy,
            probe_ks: s.probe_ks,
            probe_sweeps: s.probe_sweeps,
            prune_during_sweep: opts.prune_during_sweep,
            prune_refresh_every: s.prune_refresh_every,
            spot_check_probes: opts.spot_check_probes,
            confidence: opts.confidence,
            anytime: opts.anytime,
            ewma_alpha: 0.5,
            detector: DetectorConfig { warmup: 3, threshold: 6.0 },
            ..Default::default()
        };
        let mut advisor =
            OnlineAdvisor::new(self.graph.clone(), s.instances, self.initial.clone(), config);
        if let Some(rec) = recorder {
            advisor.attach_recorder(rec);
        }
        let mut stream = self.stream();
        let mut k_trace = Vec::new();
        for epoch in 0..s.epochs() {
            self.script(&mut stream, epoch);
            let summary = advisor.step_stream(&mut stream);
            if let Some(k) = advisor.adaptive_k() {
                k_trace.push((summary.epoch, k));
            }
        }
        let resolves =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Resolve { .. })).count();
        let migrations =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Migrate { .. })).count();
        let arm = FocusArm {
            avg_cost: advisor.time_averaged_cost(),
            probes: advisor.probe_round_trips(),
            resolves,
            migrations,
            k_trace,
            saved_round_trips: advisor.sweep_saved_round_trips(),
            deep_probe_round_trips: advisor.deep_probe_round_trips(),
        };
        (arm, advisor.take_recorder())
    }
}

/// The shared loss-aware-vs-loss-blind differential scenario: ~5%
/// per-link drifting packet loss throughout, plus a scripted permanent
/// blackout of one *deployed* instance partway through. Both arms walk
/// the identical trajectory (latencies, loss planes, and the blackout);
/// they differ only in whether the measurement plane retransmits and the
/// advisor believes in loss ([`OnlineAdvisorConfig::loss_aware`]). The
/// ground-truth cost curve prices loss for both — the world is lossy
/// either way — so the comparison isolates what loss awareness buys.
#[derive(Debug, Clone)]
pub struct LossScenario {
    /// Application graph rows × cols (2-D mesh).
    pub mesh: (usize, usize),
    /// Allocated instances (nodes + spares).
    pub instances: usize,
    /// Total epochs.
    pub epochs: u64,
    /// Simulated hours per epoch.
    pub epoch_hours: f64,
    /// Wall-clock budget per incremental re-solve (seconds).
    pub solve_seconds: f64,
    /// Base seed (cloud, probes, trajectory, faults).
    pub seed: u64,
    /// Staged Ks per pair per stage.
    pub probe_ks: usize,
    /// Sweeps per round (2 covers both directions).
    pub probe_sweeps: usize,
    /// Long-run per-link drop probability the loss OU reverts towards.
    pub base_loss: f64,
    /// Epoch at which one deployed instance goes permanently dark.
    pub blackout_epoch: u64,
    /// Retransmit budget of the loss-aware arm's measurement plane (the
    /// blind arm always runs with 0).
    pub retries_per_pair: u32,
}

impl Default for LossScenario {
    fn default() -> Self {
        Self {
            mesh: (3, 4),
            instances: 20,
            epochs: 20,
            epoch_hours: 2.0,
            solve_seconds: 0.2,
            seed: 42,
            probe_ks: 2,
            probe_sweeps: 2,
            base_loss: 0.05,
            blackout_epoch: 10,
            retries_per_pair: 3,
        }
    }
}

impl LossScenario {
    /// Boots the cloud, solves the hour-0 plan, and picks a deployed
    /// instance as the blackout victim; every arm then drifts the hour-0
    /// network, its loss plane and the scripted permanent blackout from
    /// the scenario's seeds.
    pub fn build(&self) -> BuiltLossScenario {
        let graph = CommGraph::mesh_2d(self.mesh.0, self.mesh.1);
        let mut cloud = Cloud::boot(Provider::ec2_like(), self.seed);
        let alloc = cloud.allocate(self.instances);
        let net = cloud.network(&alloc);

        let measure_cfg = MeasureConfig { seed: self.seed, ..MeasureConfig::default() };
        let initial_report = Staged::new(self.probe_ks, self.probe_sweeps).run(&net, &measure_cfg);
        let initial = SearchStrategy::Portfolio(PortfolioConfig {
            budget: Budget::seconds(self.solve_seconds.max(1.0)),
            threads: 1,
            seed: self.seed,
            ..PortfolioConfig::default()
        })
        .run(
            &graph.problem(LatencyMetric::Mean.cost_matrix(&initial_report.stats)),
            Objective::LongestLink,
        )
        .deployment;
        let dark_instance = initial[0];

        BuiltLossScenario {
            scenario: self.clone(),
            graph,
            initial,
            dark_instance,
            net,
            measure_cfg,
        }
    }
}

/// A built loss scenario: everything an arm needs to run the shared lossy
/// trajectory.
#[derive(Debug, Clone)]
pub struct BuiltLossScenario {
    /// The parameters this scenario was built from.
    pub scenario: LossScenario,
    /// The application graph.
    pub graph: CommGraph,
    /// The hour-0 deployment both arms start from.
    pub initial: Vec<u32>,
    /// The deployed instance the script blacks out.
    pub dark_instance: u32,
    /// The hour-0 network every arm drifts.
    pub net: Network,
    /// Probe configuration shared by both arms (retries overridden
    /// per-arm).
    pub measure_cfg: MeasureConfig,
}

/// What one arm of the loss comparison produced.
#[derive(Debug, Clone)]
pub struct LossArm {
    /// Time-averaged ground-truth *effective* cost (expected completion
    /// time under loss, incl. amortized migrations).
    pub avg_cost: f64,
    /// Probe round trips spent across all epochs.
    pub probes: u64,
    /// Migrations applied.
    pub migrations: usize,
    /// `LinkDark` events raised.
    pub link_dark_events: usize,
    /// Dark-instance evacuations run.
    pub evacuations: usize,
    /// Epoch of the first `LinkDark` event, if any.
    pub first_dark_epoch: Option<u64>,
    /// Whether the final plan still occupies the blacked-out instance.
    pub final_plan_on_dark: bool,
}

impl BuiltLossScenario {
    /// Runs one arm over the scenario's trajectory. `loss_aware` selects
    /// the whole bundle: retransmit-budgeted sweeps, loss-priced search
    /// costs, darkness triage, and evacuation — versus the zero-retry,
    /// loss-blind baseline.
    pub fn run_arm(&self, loss_aware: bool) -> LossArm {
        let s = &self.scenario;
        let mut measure_cfg = self.measure_cfg.clone();
        measure_cfg.retries_per_pair = if loss_aware { s.retries_per_pair } else { 0 };
        let config = OnlineAdvisorConfig {
            objective: Objective::LongestLink,
            policy: RedeployPolicy { min_gain: 0.02, migration_cost_per_node: 0.05 },
            migration_budget: 3,
            solve_seconds: s.solve_seconds,
            threads: 1,
            seed: s.seed,
            spot_check_probes: 8,
            loss_aware,
            ewma_alpha: 0.5,
            detector: DetectorConfig { warmup: 3, threshold: 6.0 },
            ..Default::default()
        };
        let mut advisor =
            OnlineAdvisor::new(self.graph.clone(), s.instances, self.initial.clone(), config);
        let mut stream = SimStream::with_faults(
            self.net.clone(),
            Staged::new(s.probe_ks, s.probe_sweeps),
            measure_cfg,
            s.epoch_hours,
            s.seed ^ 0x10f5,
            FaultParams::drifting_loss(s.base_loss),
            s.seed ^ 0xfa11,
        );
        // The blackout outlives the run: a died-for-good instance, whose
        // only repair is evacuation.
        let forever = (s.epochs - s.blackout_epoch + 1) as f64 * s.epoch_hours;
        for epoch in 0..s.epochs {
            if epoch == s.blackout_epoch {
                stream.force_instance_dark(self.dark_instance, forever);
            }
            advisor.step_stream(&mut stream);
        }
        let link_dark_events =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::LinkDark { .. })).count();
        let first_dark_epoch = advisor
            .events()
            .iter()
            .filter_map(|e| match e {
                OnlineEvent::LinkDark { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .min();
        let evacuations =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Evacuate { .. })).count();
        let migrations =
            advisor.events().iter().filter(|e| matches!(e, OnlineEvent::Migrate { .. })).count();
        LossArm {
            avg_cost: advisor.time_averaged_cost(),
            probes: advisor.probe_round_trips(),
            migrations,
            link_dark_events,
            evacuations,
            first_dark_epoch,
            final_plan_on_dark: advisor.deployment().contains(&self.dark_instance),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_solves_the_hour_0_plan() {
        let scenario = FocusScenario {
            instances: 10,
            mesh: (2, 2),
            head_epochs: 2,
            tail_epochs: 3,
            solve_seconds: 0.05,
            ..Default::default()
        };
        let built = scenario.build();
        assert_eq!(built.net.len(), 10);
        assert_eq!(built.initial.len(), 4);
        assert!(built.graph.num_nodes() == 4);
        assert_eq!(scenario.epochs(), 5);
        assert!(scenario.max_flagged() > 0);
    }

    #[test]
    fn seed_comparison_reads_medians_and_ratios() {
        let arm = |avg_cost, probes| FocusArm {
            avg_cost,
            probes,
            resolves: 0,
            migrations: 0,
            k_trace: Vec::new(),
            saved_round_trips: 0,
            deep_probe_round_trips: 0,
        };
        let mut cmp = SeedComparison {
            runs: vec![
                (1, arm(1.0, 100), arm(1.10, 10)),
                (2, arm(2.0, 100), arm(1.90, 30)),
                (3, arm(1.0, 200), arm(1.02, 20)),
            ],
        };
        assert!((cmp.median_cost_gap() - 0.02).abs() < 1e-12);
        assert_eq!(cmp.probe_ratios().map(|(_, r)| r).collect::<Vec<_>>(), [0.1, 0.3, 0.1]);
        assert_eq!(cmp.seeds_where_k_held(), [1, 2, 3], "no k trace: nothing shrank");
        cmp.runs[0].2.k_trace = vec![(0, 20), (1, 16)];
        cmp.runs[1].2.k_trace = vec![(0, 20), (1, 30), (2, 30)];
        assert_eq!(cmp.seeds_where_k_held(), [2, 3]);
        cmp.runs.pop();
        assert!((cmp.median_cost_gap() - 0.025).abs() < 1e-12, "even count: mean of the middle");
    }

    #[test]
    fn loss_arms_diverge_on_the_blackout() {
        let scenario = LossScenario {
            mesh: (2, 2),
            instances: 8,
            epochs: 8,
            blackout_epoch: 4,
            solve_seconds: 0.05,
            ..Default::default()
        };
        let built = scenario.build();
        assert!(built.initial.contains(&built.dark_instance), "victim must be deployed");
        let aware = built.run_arm(true);
        let blind = built.run_arm(false);
        // The aware arm triages the blackout within a couple of epochs
        // and evacuates; the blind arm has no darkness concept at all.
        assert!(aware.link_dark_events > 0, "blackout raised no LinkDark");
        assert!(
            aware.first_dark_epoch.unwrap() <= scenario.blackout_epoch + 2,
            "darkness detected late: epoch {:?}",
            aware.first_dark_epoch
        );
        assert!(aware.evacuations >= 1, "the dark instance was never evacuated");
        assert!(!aware.final_plan_on_dark, "aware arm still deployed on the dark instance");
        assert_eq!(blind.link_dark_events, 0, "the blind arm must not raise LinkDark");
        assert_eq!(blind.evacuations, 0, "the blind arm must not evacuate");
        // Both arms are judged on the same lossy ground truth; stranding
        // the plan on a dead instance prices at ~99 timeouts per link.
        assert!(
            aware.avg_cost < blind.avg_cost,
            "loss awareness did not pay: aware {} vs blind {}",
            aware.avg_cost,
            blind.avg_cost
        );
    }
}

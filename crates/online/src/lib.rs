//! # cloudia-online — continuous deployment advisement
//!
//! The paper's architecture (§2.2.1) treats re-deployment as batch
//! "iterations of the architecture": re-measure everything, re-search
//! from scratch, re-deploy. This crate replaces that loop with a
//! **streaming control loop** for a production setting where the
//! application keeps serving traffic while conditions drift:
//!
//! * [`stream`] — [`MeasurementStream`]: per-epoch incremental
//!   measurement rounds (staged or focused schemes via
//!   `Scheme::run_onto`) against a time-stepped drifting network, with
//!   cumulative per-link statistics that survive across rounds;
//! * [`stats`] — [`OnlineStore`]: EWMA mean/variance per link, so even
//!   links the current plan does not use accumulate usable history;
//! * [`detect`] — CUSUM change-point detector on
//!   standardized residuals, separating the benign hour-scale OU wiggle
//!   (paper Figs. 2/19/21) from genuine regime changes;
//! * [`repair`] — budgeted incremental re-solve: free the worst `k`
//!   nodes, pin the rest, warm-start the solver portfolio with the
//!   incumbent as a bound;
//! * [`advisor`] — [`OnlineAdvisor`]: the loop itself, with migration
//!   economics ([`cloudia_core::RedeployPolicy`]), an event log, and a
//!   ground-truth cost booked every epoch. Its [`ProbePolicy`] decides how each
//!   epoch's probe budget is spent: uniform O(m²) sweeps, or
//!   trigger-driven **focused** rounds
//!   ([`cloudia_measure::FocusedScheme`]) that probe only the candidate
//!   pool, the detector-flagged links, and whatever has gone stale —
//!   escalating back to a full sweep when the detectors fire broadly.
//!   With an adaptive candidates config
//!   ([`cloudia_solver::PoolPolicy::Adaptive`]) the probe set and the
//!   repair search domain shrink together on stationary stretches. With
//!   `prune_during_sweep` epochs run on the stage-streaming measurement
//!   driver ([`cloudia_measure::StageDriver`]) and a
//!   [`cloudia_solver::CandidatePruneRule`] drops pairs **mid-sweep**
//!   once the measured quantiles (with `confidence`, the measured
//!   intervals) prove them outside every node's candidate pool; saved
//!   round trips fund deeper sampling of flagged links, and
//!   `spot_check_probes` confirms degradation alarms with a handful of
//!   fresh single-link probes before any repair runs.
//!
//! ```
//! use cloudia_core::CommGraph;
//! use cloudia_measure::{MeasureConfig, Staged};
//! use cloudia_netsim::{Cloud, Provider};
//! use cloudia_online::{OnlineAdvisor, OnlineAdvisorConfig, SimStream};
//!
//! let graph = CommGraph::ring(5);
//! let mut cloud = Cloud::boot(Provider::ec2_like(), 1);
//! let alloc = cloud.allocate(7);
//! let net = cloud.network(&alloc);
//!
//! let mut stream = SimStream::new(net, Staged::new(2, 2), MeasureConfig::default(), 2.0, 7);
//! let mut advisor = OnlineAdvisor::new(
//!     graph,
//!     7,
//!     (0..5).collect(),
//!     OnlineAdvisorConfig { solve_seconds: 0.2, ..Default::default() },
//! );
//! let summaries = advisor.run(&mut stream, 3);
//! assert_eq!(summaries.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod advisor;
pub mod detect;
pub mod repair;
pub mod scenario;
pub mod stats;
pub mod stream;
pub mod trace;

pub use advisor::{
    EpochSummary, OnlineAdvisor, OnlineAdvisorConfig, OnlineEvent, ProbePolicy, TriggerInstance,
    DEFAULT_EVENT_CAPACITY,
};
pub use detect::{ChangeDetector, DetectorConfig, Drift};
pub use repair::{
    evacuate_resolve, incremental_resolve, select_free_nodes, RepairConfig, RepairOutcome,
};
pub use scenario::{
    ArmOptions, BuiltFocusScenario, BuiltLossScenario, FocusArm, FocusScenario, LossArm,
    LossScenario, SeedComparison, CONTRACT_SEEDS, MEDIAN_COST_GAP_BOUND,
};
pub use stats::{
    standardized_residual, EwmaVar, LinkChange, LinkOnline, OnlineStore, DARK_LOSS_LEVEL,
};
pub use stream::{EpochMeasurement, LinkDelta, MeasurementStream, SimStream};
pub use trace::{drift_name, epoch_summary_to_json, event_to_json, link_change_to_json};

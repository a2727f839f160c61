//! # cloudia-measure — pairwise latency measurement
//!
//! Implements §5 of the ClouDiA paper: before searching for a deployment,
//! ClouDiA must estimate the mean round-trip latency of every ordered pair
//! of allocated instances, quickly and without introducing measurement
//! artifacts. It does so with coordinator-scheduled stages of disjoint
//! pairs, in two schedules:
//!
//! * [`Staged`] — the paper's staged scheme: a round-robin tournament of
//!   disjoint pairs per stage, giving token-passing-level accuracy at
//!   uncoordinated-level parallelism (the two §5 baselines it is compared
//!   against in Fig. 4 live in the `cloudia-bench` crate);
//! * [`FocusedScheme`] — executes an explicit [`ProbePlan`] (candidate
//!   cliques, detector-flagged links, staleness refreshes) with the staged
//!   discipline: O(K² + flagged) probe pairs instead of O(m²), for callers
//!   — like the online advisor — that already know where to look.
//!
//! Both run through one driver type ([`driver`]): [`Scheme::driver`]
//! returns a resumable [`StageDriver`] whose stages can be stepped one at
//! a time with the partial statistics inspectable in between, and
//! [`Scheme::run_onto`] is a thin drive-to-completion wrapper over it. A
//! [`PruneRule`] evaluated between stages ([`run_pruned`]) can drop pairs
//! mid-sweep once their measured quantiles prove them irrelevant — the
//! tournament shrinks while it is still in flight.
//!
//! Per-link summaries (mean via Welford, p99 via the P² algorithm) feed the
//! three cost metrics of §3.2, and [`error`] holds the vector comparison
//! used to score scheme accuracy.
//!
//! ```
//! use cloudia_netsim::{Cloud, Provider};
//! use cloudia_measure::{MeasureConfig, Scheme, Staged};
//!
//! let mut cloud = Cloud::boot(Provider::ec2_like(), 1);
//! let alloc = cloud.allocate(10);
//! let net = cloud.network(&alloc);
//! let report = Staged::new(5, 2).run(&net, &MeasureConfig::default());
//! assert_eq!(report.stats.covered_links(), 10 * 9);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ci;
pub mod driver;
pub mod error;
pub mod focused;
pub mod pairset;
pub mod pool;
pub mod scheme;
pub mod staged;
pub mod stats;

pub use ci::{t_critical, LinkCi};
pub use driver::{
    run_anytime, run_pruned, run_with_rules, AnytimeReport, LinkDelta, PruneRule, StageDriver,
    StopRule, COORD_OVERHEAD_MS,
};
pub use focused::{FocusedScheme, ProbePlan};
pub use pairset::PairSet;
pub use pool::{PoolStats, SweepPool};
pub use scheme::{probe_overhead_ms, MeasureConfig, MeasurementReport, Scheme, PROBE_SIZE_KB};
pub use staged::Staged;
pub use stats::{LinkEstimate, P2Quantile, PairwiseStats, TouchCursor, Welford};

//! # cloudia-core — the deployment advisor
//!
//! The tenant-facing heart of the ClouDiA reproduction: problem types
//! ([`problem::CommGraph`], cost matrices), the two deployment cost
//! functions (longest link / longest path, [`cost::Objective`]), latency
//! metrics ([`metrics::LatencyMetric`]), unified search dispatch
//! ([`search::SearchStrategy`]), and the four-step advisor pipeline
//! ([`advisor::Advisor`]): allocate → measure → search → terminate
//! (paper §2.2, Fig. 3).
//!
//! ```
//! use cloudia_core::advisor::{Advisor, AdvisorConfig};
//! use cloudia_core::problem::CommGraph;
//! use cloudia_netsim::Provider;
//!
//! let graph = CommGraph::mesh_2d(3, 3);
//! let outcome = Advisor::new(AdvisorConfig::fast()).run(Provider::ec2_like(), &graph, 42);
//! println!(
//!     "default {:.3} ms -> optimized {:.3} ms ({:.0}% better)",
//!     outcome.default_cost,
//!     outcome.optimized_cost,
//!     100.0 * outcome.improvement()
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod advisor;
pub mod cost;
pub mod metrics;
pub mod problem;
pub mod redeploy;
pub mod search;

pub use advisor::{Advisor, AdvisorConfig, AdvisorOutcome, MeasurementPlan};
pub use cost::{ground_truth_cost, relative_improvement, Objective};
pub use metrics::LatencyMetric;
pub use problem::{
    CommGraph, CostBuilder, CostError, CostMatrix, Deployment, NodeDeployment, NodeId,
};
pub use redeploy::{redeploy, try_redeploy, RedeployDecision, RedeployPolicy};
pub use search::{PrunedSolve, SearchStrategy, SolveHint};

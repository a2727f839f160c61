//! # ClouDiA — a deployment advisor for public clouds
//!
//! Umbrella crate re-exporting the whole ClouDiA workspace. This is a
//! from-scratch Rust reproduction of
//!
//! > Tao Zou, Ronan Le Bras, Marcos Vaz Salles, Alan Demers, Johannes
//! > Gehrke. *ClouDiA: a deployment advisor for public clouds.* PVLDB 6(2),
//! > 2012; extended version in the VLDB Journal, 2015.
//!
//! ClouDiA tunes the deployment of latency-sensitive distributed
//! applications on public clouds: it over-allocates instances, measures
//! pairwise latencies, searches for a mapping of application nodes to
//! instances that minimizes either the **longest link** or the **longest
//! path**, and terminates the leftover instances. See the crate-level
//! documentation of the sub-crates for details:
//!
//! * [`netsim`] — the datacenter/network simulator substrate (stands in for
//!   EC2/GCE/Rackspace);
//! * [`measure`] — latency measurement schemes (token passing,
//!   uncoordinated, staged) and estimators;
//! * [`solver`] — the optimization stack: trail-based CP
//!   subgraph-isomorphism search, simplex + branch-and-bound MIP, greedy
//!   and randomized methods, 1-D k-means cost clustering, and a parallel
//!   solver portfolio racing all of them behind one anytime API
//!   (`--search portfolio --threads N` from the CLI);
//! * [`core`] — problem definitions, deployment cost functions, latency
//!   metrics, communication-graph templates, and the advisor pipeline;
//! * [`online`] — the continuous deployment advisor: streaming
//!   measurement, EWMA link statistics with CUSUM drift detection, and
//!   budgeted incremental re-solves
//!   (`--online --epochs N --migration-budget k` from the CLI);
//! * [`workloads`] — the evaluation applications: behavioral simulation,
//!   aggregation query, key-value store.
//!
//! ## Quickstart
//!
//! ```
//! use cloudia::prelude::*;
//!
//! // Boot an EC2-like region and run the full ClouDiA pipeline for a
//! // 5x5-mesh HPC application with 10% over-allocation.
//! let provider = Provider::ec2_like();
//! let graph = CommGraph::mesh_2d(5, 5);
//! let config = AdvisorConfig {
//!     objective: Objective::LongestLink,
//!     over_allocation: 0.1,
//!     ..AdvisorConfig::fast()
//! };
//! let outcome = Advisor::new(config).run(provider, &graph, 42);
//! println!(
//!     "default cost {:.3} ms -> optimized {:.3} ms",
//!     outcome.default_cost, outcome.optimized_cost
//! );
//! assert!(outcome.optimized_cost <= outcome.default_cost);
//! ```

#![forbid(unsafe_code)]

pub use cloudia_core as core;
pub use cloudia_measure as measure;
pub use cloudia_netsim as netsim;
pub use cloudia_obs as obs;
pub use cloudia_online as online;
pub use cloudia_solver as solver;
pub use cloudia_workloads as workloads;

/// Convenient glob-import surface for examples and applications.
pub mod prelude {
    pub use cloudia_core::advisor::{Advisor, AdvisorConfig, AdvisorOutcome};
    pub use cloudia_core::cost::Objective;
    pub use cloudia_core::metrics::LatencyMetric;
    pub use cloudia_core::problem::{CommGraph, CostMatrix, Deployment, NodeId};
    pub use cloudia_core::search::SearchStrategy;
    pub use cloudia_netsim::{Cloud, InstanceId, Network, Provider};
    pub use cloudia_solver::{solve_portfolio, PortfolioConfig, SolveHint, SolveOutcome};
}

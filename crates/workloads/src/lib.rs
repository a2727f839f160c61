//! # cloudia-workloads — the evaluation applications
//!
//! The three representative latency-sensitive workloads of paper §6.1,
//! each with a different communication pattern and performance goal:
//!
//! | Workload | Pattern | Goal | Natural cost function |
//! |---|---|---|---|
//! | [`BehavioralSim`] | 2D mesh | time-to-solution | longest link |
//! | [`AggregationQuery`] | aggregation tree | response time | longest path |
//! | [`KvStore`] | bipartite | response time | (imperfect) longest link |
//!
//! Each workload exposes its communication graph (what the tenant hands to
//! ClouDiA) and an executable model that samples per-message latencies from
//! the network simulator under a given deployment plan — so the benefit of
//! an optimized deployment is measured the same way the paper measures it:
//! by *running the application*, not by comparing objective values.
//!
//! ```
//! use cloudia_netsim::{Cloud, Provider};
//! use cloudia_workloads::{BehavioralSim, Workload};
//!
//! let mut cloud = Cloud::boot(Provider::ec2_like(), 7);
//! let alloc = cloud.allocate(9);
//! let net = cloud.network(&alloc);
//! let sim = BehavioralSim { sample_ticks: 50, ..BehavioralSim::new(3, 3) };
//! let t = sim.run(&net, &(0..9).collect::<Vec<_>>(), 1);
//! assert!(t.value_ms > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregation;
pub mod behavioral;
pub mod common;
pub mod kvstore;

pub use aggregation::AggregationQuery;
pub use behavioral::BehavioralSim;
pub use common::{Workload, WorkloadResult};
pub use kvstore::KvStore;

//! # cloudia-netsim — datacenter network simulator
//!
//! This crate is the substrate that stands in for the public clouds (Amazon
//! EC2, Google Compute Engine, Rackspace Cloud Server) used in the ClouDiA
//! paper's evaluation. It provides:
//!
//! * a parameterized **tree-structured datacenter topology** (hosts → racks →
//!   pods → core), the structure the paper cites as typical of current
//!   clouds (Benson et al., IMC 2010);
//! * a **multi-tenant occupancy and allocation model** that scatters a
//!   tenant's instances non-contiguously across the datacenter, the root
//!   cause of the latency heterogeneity ClouDiA exploits;
//! * a **per-link latency model** with stable-but-heterogeneous means,
//!   lognormal jitter, occasional latency spikes, and slow mean drift —
//!   calibrated so the CDFs and stability traces match the shapes of paper
//!   Figs. 1–2 (EC2) and 18–21 (GCE, Rackspace);
//! * a **discrete-event message engine** with per-NIC send/receive
//!   serialization, used by `cloudia-measure` to reproduce the accuracy
//!   differences between the token-passing, uncoordinated, and staged
//!   measurement schemes (paper §5);
//! * **provider presets** (`Provider`) bundling calibrated parameters.
//!
//! All randomness is driven by explicitly seeded [`rand::rngs::StdRng`]
//! instances, so every experiment in the benchmark harness is reproducible.
//!
//! ## Quick example
//!
//! ```
//! use cloudia_netsim::{Provider, Cloud};
//!
//! // Boot an EC2-like region and allocate 100 instances for a tenant.
//! let mut cloud = Cloud::boot(Provider::ec2_like(), 7);
//! let tenant = cloud.allocate(100);
//! let net = cloud.network(&tenant);
//!
//! // Pairwise mean round-trip latencies are heterogeneous but stable.
//! let a = tenant.instances()[0];
//! let b = tenant.instances()[1];
//! let rtt = net.mean_rtt(a, b);
//! assert!(rtt > 0.0 && rtt < 5.0, "mean RTT {rtt} ms out of range");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// The shared flat cost plane (re-export of the `cloudia-cost` base
/// crate): ground-truth mean matrices are produced in this type.
pub use cloudia_cost as cost;

pub mod dist;
pub mod drift;
pub mod engine;
pub mod ids;
pub mod latency;
pub mod loss;
pub mod network;
pub mod provider;
pub mod tenancy;
pub mod topology;

pub use cost::{CostBuilder, CostError, CostMatrix};
pub use drift::{DriftParams, DriftingNetwork, LinkTrace};
pub use engine::{DeliveredMessage, Engine, MessageSpec, NicParams, DEFAULT_TIMEOUT_MS};
pub use ids::{HostId, InstanceId, PodId, RackId};
pub use latency::{LatencyModel, LinkProfile};
pub use loss::{loss_priced_mean, FaultParams, LossPlane, DARK_DROP};
pub use network::{Cloud, Network};
pub use provider::{Provider, ProviderKind};
pub use tenancy::{Allocation, Occupancy};
pub use topology::{Locality, Topology, TopologyConfig};

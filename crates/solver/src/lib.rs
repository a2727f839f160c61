//! # cloudia-solver — the ClouDiA optimization stack
//!
//! Implements every search technique from paper §4, all from scratch (no
//! LP/MIP/CP libraries exist in the offline dependency set):
//!
//! * [`cp`] — the winning approach for LLNDP: iterated subgraph-isomorphism
//!   satisfaction with bitset domains, degree filtering, and forward
//!   checking (§4.2);
//! * [`lp`] + [`mip`] + [`encodings`] — a dense two-phase simplex, a
//!   branch-and-bound engine with lazy constraint generation, and the MIP
//!   encodings of LLNDP (§4.1) and LPNDP (§4.4);
//! * [`greedy`] — Algorithms 1 (G1) and 2 (G2) (§4.3.2);
//! * [`random`] — R1 (fixed draw count) and R2 (parallel wall-clock budget)
//!   (§4.3.1, §4.5.1);
//! * [`portfolio`] + [`control`] — a parallel portfolio racing all of the
//!   above on worker threads behind one anytime API, with a shared
//!   incumbent, cross-thread bound injection into the CP prover, and
//!   early cancellation on optimality;
//! * [`cluster`] — exact 1-D k-means cost clustering (§4.2, §6.3);
//! * [`candidates`] — candidate-pruned solver domains: per-node candidate
//!   instance lists derived from the latency clustering, so searches over
//!   thousands of instances only ever touch the competitive few;
//! * [`problem`] — the node deployment problem and its two cost functions
//!   (§3.3), over the shared flat [`cloudia_cost::CostMatrix`] cost
//!   plane.
//!
//! ```
//! use cloudia_solver::{
//!     cp::{solve_llndp_cp, CpConfig},
//!     problem::{Costs, NodeDeployment},
//! };
//!
//! // A 3-node chain on 4 instances with one expensive link (row-major).
//! let costs = Costs::from_flat(
//!     4,
//!     vec![
//!         0.0, 0.3, 0.9, 0.4, //
//!         0.3, 0.0, 0.5, 0.35, //
//!         0.9, 0.5, 0.0, 0.6, //
//!         0.4, 0.35, 0.6, 0.0,
//!     ],
//! );
//! let problem = NodeDeployment::new(3, vec![(0, 1), (1, 2)], costs);
//! let out = solve_llndp_cp(&problem, &CpConfig::default());
//! assert!(out.cost <= 0.4 + 1e-9); // avoids the 0.9 and 0.5+ links
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
pub mod cluster;
pub mod control;
pub mod cp;
pub mod encodings;
pub mod greedy;
pub mod kernels;
pub mod lp;
pub mod mip;
pub mod outcome;
pub mod portfolio;
pub mod problem;
pub mod random;

pub use candidates::{
    AdaptivePool, AdaptivePoolConfig, CandidateConfig, CandidatePruneRule, CandidateSet,
    PoolPolicy, PrunedProblem,
};
pub use cluster::CostClusters;
pub use control::SearchControl;
pub use cp::{solve_llndp_cp, solve_llndp_cp_with, CpConfig, Propagation};
pub use encodings::{
    solve_llndp_mip, solve_llndp_mip_with, solve_lpndp_mip, solve_lpndp_mip_with, MipConfig,
};
pub use greedy::{solve_greedy, solve_greedy_fixed, GreedyVariant};
pub use mip::{solve_mip, solve_mip_with, MipHooks};
pub use outcome::{Budget, Objective, SolveHint, SolveOutcome};
pub use portfolio::{solve_portfolio, PortfolioConfig};
pub use problem::{CostBuilder, CostError, CostMatrix, Costs, NodeDeployment};
pub use random::{solve_random_budget, solve_random_count};

//! Deployment cost functions (paper §3.3) — re-exported from the solver
//! plus tenant-facing helpers.

pub use cloudia_solver::Objective;

use cloudia_netsim::{InstanceId, Network};

use crate::problem::{CommGraph, CostMatrix};

/// Ground-truth cost of `deployment` on `network`: each link priced at its
/// expected completion time under a `timeout_ms` sender timeout
/// ([`Network::effective_mean`]; the plain mean on a lossless network),
/// over the deployment's own links — a |D|×|D| matrix among the deployed
/// instances, not the m×m one. The same bits as pricing it over
/// [`Network::effective_mean_matrix`]: every objective reads only the
/// deployment's links, in edge order either way.
pub fn ground_truth_cost(
    network: &Network,
    graph: &CommGraph,
    objective: Objective,
    deployment: &[u32],
    timeout_ms: f64,
) -> f64 {
    let among = CostMatrix::from_fn(deployment.len(), |x, y| {
        let (a, b) = (InstanceId(deployment[x]), InstanceId(deployment[y]));
        network.effective_mean(a, b, timeout_ms)
    });
    let local: Vec<u32> = (0..deployment.len() as u32).collect();
    graph.problem(among).cost(objective, &local)
}

/// Relative improvement of `optimized` over `baseline` (e.g. 0.25 = 25 %
/// lower cost). Negative if the optimized deployment is worse.
pub fn relative_improvement(baseline: f64, optimized: f64) -> f64 {
    assert!(baseline > 0.0, "baseline cost must be positive, got {baseline}");
    (baseline - optimized) / baseline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn improvement_math() {
        assert!((relative_improvement(2.0, 1.0) - 0.5).abs() < 1e-12);
        assert!(relative_improvement(1.0, 1.5) < 0.0);
        assert_eq!(relative_improvement(1.0, 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline cost must be positive")]
    fn zero_baseline_rejected() {
        relative_improvement(0.0, 1.0);
    }
}

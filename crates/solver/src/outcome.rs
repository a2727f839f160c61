//! Common input and result types shared by all search techniques.

/// Which deployment cost function is being minimized (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Class 1: minimize the maximum link cost over communication edges
    /// (LLNDP) — barrier-synchronized HPC applications.
    LongestLink,
    /// Class 2: minimize the maximum path cost in the acyclic communication
    /// graph (LPNDP) — service-call critical paths.
    LongestPath,
}

impl Objective {
    /// Short identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Objective::LongestLink => "longest-link",
            Objective::LongestPath => "longest-path",
        }
    }
}

/// The result of one solver run.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Best deployment found (`node → instance`).
    pub deployment: Vec<u32>,
    /// Its deployment cost under the *original* (uncluttered) costs.
    pub cost: f64,
    /// Anytime convergence curve: `(elapsed_seconds, best_cost_so_far)`,
    /// one entry per improvement (first entry is the initial solution).
    pub curve: Vec<(f64, f64)>,
    /// True if the solver proved this deployment optimal (under whatever
    /// cost rounding it was given).
    pub proven_optimal: bool,
    /// Work measure: CP/MIP nodes explored, or random candidates drawn.
    pub explored: u64,
}

impl SolveOutcome {
    /// Builds an outcome from a single heuristic answer.
    pub fn heuristic(deployment: Vec<u32>, cost: f64, elapsed_s: f64, explored: u64) -> Self {
        Self { deployment, cost, curve: vec![(elapsed_s, cost)], proven_optimal: false, explored }
    }
}

/// What a solve starts from beyond the problem itself.
///
/// A cold run starts from nothing; an incremental run (the online
/// advisor's budgeted re-solve, or any re-deployment round) carries the
/// incumbent plan as a warm start and, optionally, per-node pins that
/// restrict the search to a repair neighbourhood. The CP and MIP provers
/// and the portfolio take it as an argument: the incumbent replaces or
/// joins their bootstrap, and the pins bind every worker.
#[derive(Debug, Clone, Default)]
pub enum SolveHint {
    /// No prior context: solve from scratch.
    #[default]
    Cold,
    /// Re-solve starting from a known-good incumbent.
    Incremental {
        /// The currently deployed plan; the run warm-starts from it.
        incumbent: Vec<u32>,
        /// Per-node pins: `fixed[v] = Some(j)` keeps node `v` on instance
        /// `j`. An empty vector (or all `None`) means every node may move.
        fixed: Vec<Option<u32>>,
    },
}

impl SolveHint {
    /// An incremental hint with no pins (pure warm start).
    pub fn warm(incumbent: Vec<u32>) -> Self {
        SolveHint::Incremental { fixed: vec![None; incumbent.len()], incumbent }
    }

    /// The warm-start incumbent, if any.
    pub fn incumbent(&self) -> Option<&[u32]> {
        match self {
            SolveHint::Cold => None,
            SolveHint::Incremental { incumbent, .. } => Some(incumbent),
        }
    }

    /// The pins, if the hint pins at least one node: a search treats an
    /// empty or all-`None` pin vector exactly like no pins.
    pub fn pins(&self) -> Option<&[Option<u32>]> {
        match self {
            SolveHint::Incremental { fixed, .. } if fixed.iter().any(Option::is_some) => {
                Some(fixed)
            }
            _ => None,
        }
    }
}

/// Wall-clock budget and termination settings shared by the search
/// techniques.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum wall-clock seconds to spend.
    pub time_limit_s: f64,
    /// Maximum nodes/candidates to explore (u64::MAX = unlimited).
    pub node_limit: u64,
}

impl Budget {
    /// A budget with only a time limit.
    pub fn seconds(s: f64) -> Self {
        Self { time_limit_s: s, node_limit: u64::MAX }
    }

    /// A budget with only a node/candidate limit.
    pub fn nodes(n: u64) -> Self {
        Self { time_limit_s: f64::INFINITY, node_limit: n }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_names() {
        assert_eq!(Objective::LongestLink.name(), "longest-link");
        assert_eq!(Objective::LongestPath.name(), "longest-path");
    }

    #[test]
    fn budget_constructors() {
        let b = Budget::seconds(2.0);
        assert_eq!(b.time_limit_s, 2.0);
        assert_eq!(b.node_limit, u64::MAX);
        let n = Budget::nodes(100);
        assert_eq!(n.node_limit, 100);
    }
}

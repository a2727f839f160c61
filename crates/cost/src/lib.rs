//! The shared cost plane: one flat, arena-backed pairwise cost matrix.
//!
//! Every layer of the pipeline — ground-truth means from the simulator,
//! measured estimates from `cloudia-measure`, search costs inside
//! `cloudia-solver`, blended histories in `cloudia-core`, EWMA stores in
//! `cloudia-online` — speaks this one type. Storage is a row-major
//! `Arc<[f64]>`, so handing a matrix across a crate boundary is a
//! reference-count bump, not an O(m²) copy; at the thousand-instance
//! scales the candidate-pruned solvers open up, that difference is the
//! whole memory budget.
//!
//! Construction validates once (square, non-NaN, non-negative off the
//! diagonal — `+∞` is legal and means "measurably unreachable", the
//! price a dark link carries; the diagonal is forced to zero) and the
//! result is immutable;
//! mutation happens through [`CostBuilder`] before freezing or through
//! [`CostMatrix::map`], which allocates a fresh arena.
//!
//! This crate sits at the bottom of the workspace on purpose: the
//! simulator (`cloudia-netsim`) produces cost planes and the solver
//! (`cloudia-solver`) consumes them, and neither should depend on the
//! other just to agree on the type.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Arc;

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Why a cost matrix failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum CostError {
    /// The flat buffer does not hold `m × m` entries.
    Size {
        /// Entries required (`m * m`).
        expected: usize,
        /// Entries supplied.
        got: usize,
    },
    /// An off-diagonal cost is negative or NaN.
    Value {
        /// Row (source instance).
        i: usize,
        /// Column (destination instance).
        j: usize,
        /// The offending value.
        value: f64,
    },
    /// A link was never attempted, so no cost — not even `+∞` — can
    /// honestly be assigned to it. Raised by partial-statistics
    /// extractors (`LatencyMetric::try_cost_matrix` over focused or
    /// pruned sweeps), never by the builder itself: the builder cannot
    /// distinguish "never attempted" from "measured at zero".
    Unmeasured {
        /// Row (source instance).
        i: usize,
        /// Column (destination instance).
        j: usize,
    },
    /// The statistics do not track the requested metric at all — e.g.
    /// p99 from statistics built without quantile sketches. Raised by
    /// extractors instead of substituting another metric.
    Untracked {
        /// The metric asked for (`"p99"`).
        metric: &'static str,
    },
}

impl std::fmt::Display for CostError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CostError::Size { expected, got } => {
                write!(f, "cost matrix needs {expected} entries, got {got}")
            }
            CostError::Value { i, j, value } => {
                write!(f, "cost[{i}][{j}] = {value} is not a non-negative latency")
            }
            CostError::Unmeasured { i, j } => {
                write!(f, "cost[{i}][{j}] was never attempted; no estimate exists")
            }
            CostError::Untracked { metric } => {
                write!(f, "the statistics keep no {metric} estimates; build them for {metric}")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// Dense row-major cost matrix over `m` instances. `get(i, j)` is the
/// communication cost (mean RTT, ms) of the directed link from instance
/// `i` to instance `j`; the diagonal is always zero.
///
/// Cloning is O(1): the storage is a shared `Arc<[f64]>` arena, so the
/// same plane can back the simulator's ground truth, the solver's search
/// problem, and the online store's snapshots without ever being copied.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    m: usize,
    data: Arc<[f64]>,
}

impl CostMatrix {
    /// Validates and freezes a flat row-major buffer of `m × m` entries.
    /// Diagonal entries are forced to zero; off-diagonal entries must be
    /// non-NaN and non-negative. `+∞` is accepted: it prices a link that
    /// was attempted and never answered (the dark-link rule), which every
    /// ranking consumer naturally pushes away from.
    pub fn try_from_flat(m: usize, mut data: Vec<f64>) -> Result<Self, CostError> {
        if data.len() != m * m {
            return Err(CostError::Size { expected: m * m, got: data.len() });
        }
        for i in 0..m {
            data[i * m + i] = 0.0;
            for j in 0..m {
                let c = data[i * m + j];
                if i != j && (c.is_nan() || c < 0.0) {
                    return Err(CostError::Value { i, j, value: c });
                }
            }
        }
        Ok(Self { m, data: data.into() })
    }

    /// [`CostMatrix::try_from_flat`] for trusted inputs.
    ///
    /// # Panics
    /// Panics on the conditions `try_from_flat` reports as errors.
    pub fn from_flat(m: usize, data: Vec<f64>) -> Self {
        Self::try_from_flat(m, data).expect("invalid cost matrix")
    }

    /// Builds an `m × m` matrix by evaluating `f(i, j)` on every ordered
    /// pair (`f` is never called on the diagonal, which stays zero).
    ///
    /// # Panics
    /// Panics if `f` produces a negative or NaN cost.
    pub fn from_fn(m: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = vec![0.0; m * m];
        for i in 0..m {
            for j in 0..m {
                if i != j {
                    data[i * m + j] = f(i, j);
                }
            }
        }
        Self::try_from_flat(m, data).expect("invalid cost matrix from closure")
    }

    /// The all-zero matrix over `m` instances.
    pub fn zeros(m: usize) -> Self {
        Self { m, data: vec![0.0; m * m].into() }
    }

    /// An incremental writer over a zeroed `m × m` buffer.
    pub fn builder(m: usize) -> CostBuilder {
        CostBuilder { m, data: vec![0.0; m * m] }
    }

    /// The shared test/bench constructor: off-diagonal costs drawn
    /// uniformly from `[0.2, 1.2)`, deterministic in `seed`. This is the
    /// one random-instance generator every test suite and benchmark uses.
    pub fn random_uniform(m: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::from_fn(m, |_, _| 0.2 + rng.random::<f64>())
    }

    /// A clustered random instance mimicking the EC2 phenomenon the paper
    /// exploits: most instances sit in a well-connected cluster while
    /// `bad_frac` of them are congested, with every incident link paying a
    /// multiplicative penalty. Candidate pruning thrives on exactly this
    /// shape — most of the `m` instances are never competitive.
    pub fn random_clustered(m: usize, bad_frac: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&bad_frac), "bad_frac must be in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let factor: Vec<f64> = (0..m)
            .map(|_| {
                if rng.random::<f64>() < bad_frac {
                    2.0 + 2.0 * rng.random::<f64>()
                } else {
                    1.0 + 0.2 * rng.random::<f64>()
                }
            })
            .collect();
        Self::from_fn(m, |i, j| {
            let base = 0.3 * factor[i].max(factor[j]);
            base * (0.85 + 0.3 * rng.random::<f64>())
        })
    }

    /// Number of instances (`m`).
    pub fn len(&self) -> usize {
        self.m
    }

    /// True if the matrix covers zero instances.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Cost of the directed link `i → j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.m + j]
    }

    /// Row `i` as a contiguous slice (costs from instance `i` to every
    /// instance, including the zero self-entry).
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.m..(i + 1) * self.m]
    }

    /// The whole arena, row-major.
    pub fn values(&self) -> &[f64] {
        &self.data
    }

    /// All off-diagonal cost values, row-major.
    pub fn off_diagonal(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.m * self.m.saturating_sub(1));
        for i in 0..self.m {
            for j in 0..self.m {
                if i != j {
                    out.push(self.get(i, j));
                }
            }
        }
        out
    }

    /// Returns a copy with every off-diagonal cost replaced by `f(cost)`
    /// (used for cluster rounding). Allocates a fresh arena.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> CostMatrix {
        let mut data = self.data.to_vec();
        for i in 0..self.m {
            for j in 0..self.m {
                if i != j {
                    data[i * self.m + j] = f(self.data[i * self.m + j]);
                }
            }
        }
        CostMatrix { m: self.m, data: data.into() }
    }

    /// The submatrix over the given instance subset: entry `(a, b)` of the
    /// result is `get(idx[a], idx[b])`. This is the candidate-pruning
    /// primitive — an O(K²) slice of an m² plane.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn submatrix(&self, idx: &[u32]) -> CostMatrix {
        let k = idx.len();
        let mut data = vec![0.0; k * k];
        for (a, &i) in idx.iter().enumerate() {
            let row = self.row(i as usize);
            for (b, &j) in idx.iter().enumerate() {
                if a != b {
                    data[a * k + b] = row[j as usize];
                }
            }
        }
        CostMatrix { m: k, data: data.into() }
    }
}

/// Mutable staging buffer for a [`CostMatrix`]: write costs link by link,
/// then validate once with [`CostBuilder::freeze`].
#[derive(Debug, Clone)]
pub struct CostBuilder {
    m: usize,
    data: Vec<f64>,
}

impl CostBuilder {
    /// Number of instances the buffer covers.
    pub fn len(&self) -> usize {
        self.m
    }

    /// True if sized for zero instances.
    pub fn is_empty(&self) -> bool {
        self.m == 0
    }

    /// Sets the cost of the directed link `i → j` (diagonal writes are
    /// ignored; the diagonal stays zero).
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, cost: f64) {
        if i != j {
            self.data[i * self.m + j] = cost;
        }
    }

    /// The current value of the directed link `i → j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.m + j]
    }

    /// Validates the staged costs and freezes them into an immutable,
    /// shareable [`CostMatrix`].
    pub fn freeze(self) -> Result<CostMatrix, CostError> {
        CostMatrix::try_from_flat(self.m, self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_roundtrip_and_access() {
        let c = CostMatrix::from_flat(2, vec![0.0, 1.5, 2.5, 0.0]);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0, 1), 1.5);
        assert_eq!(c.get(1, 0), 2.5);
        assert_eq!(c.row(0), &[0.0, 1.5]);
        assert_eq!(c.off_diagonal(), vec![1.5, 2.5]);
    }

    #[test]
    fn diagonal_is_forced_to_zero() {
        let c = CostMatrix::from_flat(2, vec![9.0, 1.0, 1.0, -3.0]);
        assert_eq!(c.get(0, 0), 0.0);
        assert_eq!(c.get(1, 1), 0.0);
    }

    #[test]
    fn invalid_inputs_are_reported_not_panicked() {
        assert_eq!(
            CostMatrix::try_from_flat(2, vec![0.0; 3]),
            Err(CostError::Size { expected: 4, got: 3 })
        );
        let nan = CostMatrix::try_from_flat(2, vec![0.0, f64::NAN, 1.0, 0.0]);
        assert!(matches!(nan, Err(CostError::Value { i: 0, j: 1, .. })));
        let neg = CostMatrix::try_from_flat(2, vec![0.0, 1.0, -0.5, 0.0]);
        assert!(matches!(neg, Err(CostError::Value { i: 1, j: 0, .. })));
        assert!(format!("{}", neg.unwrap_err()).contains("cost[1][0]"));
    }

    #[test]
    fn clone_shares_the_arena() {
        let a = CostMatrix::random_uniform(16, 1);
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.data, &b.data));
        assert_eq!(a, b);
    }

    #[test]
    fn map_preserves_diagonal_and_allocates_fresh() {
        let a = CostMatrix::random_uniform(4, 2);
        let b = a.map(|c| c * 2.0);
        assert!(!Arc::ptr_eq(&a.data, &b.data));
        for i in 0..4 {
            assert_eq!(b.get(i, i), 0.0);
            for j in 0..4 {
                if i != j {
                    assert!((b.get(i, j) - 2.0 * a.get(i, j)).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn builder_stages_and_freezes() {
        let mut b = CostMatrix::builder(3);
        b.set(0, 1, 2.0);
        b.set(1, 0, 3.0);
        b.set(2, 2, 99.0); // ignored: diagonal
        let c = b.freeze().unwrap();
        assert_eq!(c.get(0, 1), 2.0);
        assert_eq!(c.get(1, 0), 3.0);
        assert_eq!(c.get(2, 2), 0.0);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn builder_freeze_reports_bad_values() {
        let mut b = CostMatrix::builder(2);
        b.set(0, 1, f64::NAN);
        assert!(matches!(b.freeze(), Err(CostError::Value { i: 0, j: 1, .. })));
    }

    #[test]
    fn infinite_costs_are_legal_dark_link_prices() {
        // +∞ prices an attempted-but-unanswered link; the plane must
        // carry it so partial extractors can push solvers away from
        // darkness instead of rejecting the whole matrix.
        let mut b = CostMatrix::builder(3);
        b.set(0, 1, f64::INFINITY);
        b.set(1, 0, 2.0);
        let c = b.freeze().expect("+inf must validate");
        assert_eq!(c.get(0, 1), f64::INFINITY);
        assert_eq!(c.get(1, 0), 2.0);
        // Negative infinity stays rejected.
        let mut b = CostMatrix::builder(2);
        b.set(1, 0, f64::NEG_INFINITY);
        assert!(matches!(b.freeze(), Err(CostError::Value { i: 1, j: 0, .. })));
    }

    #[test]
    fn submatrix_slices_by_original_ids() {
        let c = CostMatrix::from_fn(5, |i, j| (10 * i + j) as f64);
        let s = c.submatrix(&[4, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0, 1), c.get(4, 1));
        assert_eq!(s.get(1, 0), c.get(1, 4));
        assert_eq!(s.get(0, 0), 0.0);
    }

    #[test]
    fn random_generators_are_deterministic_and_valid() {
        let a = CostMatrix::random_uniform(6, 9);
        assert_eq!(a, CostMatrix::random_uniform(6, 9));
        assert!(a.off_diagonal().iter().all(|&c| (0.2..1.2).contains(&c)));
        let b = CostMatrix::random_clustered(20, 0.3, 7);
        assert_eq!(b, CostMatrix::random_clustered(20, 0.3, 7));
        assert!(b.off_diagonal().iter().all(|&c| c.is_finite() && c > 0.0));
    }

    #[test]
    fn clustered_instances_separate_good_from_bad() {
        // With a clustered instance population, the cheapest links are far
        // cheaper than the most expensive ones (the pruning premise).
        let c = CostMatrix::random_clustered(40, 0.25, 3);
        let mut v = c.off_diagonal();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(v[v.len() - 1] > 2.0 * v[0], "no spread: {} vs {}", v[0], v[v.len() - 1]);
    }
}

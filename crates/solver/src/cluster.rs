//! Optimal one-dimensional k-means for cost clustering (paper §4.2, §6.3).
//!
//! The CP approach iterates over *distinct* cost values, so rounding the
//! measured costs to `k` cluster means directly bounds the number of
//! iterations. Because link costs are one-dimensional, k-means can be
//! solved *exactly* by dynamic programming over the sorted values (the
//! paper cites an O(kN) DP; this implementation is the classic O(kN²)
//! Ckmeans DP with prefix sums, which is exact and instantaneous at the
//! paper's N ≲ a few hundred distinct values).
//!
//! Values are first rounded to a fixed quantum (the paper rounds to
//! 0.01 ms) to deduplicate near-identical measurements.

use crate::problem::Costs;

/// Result of clustering: boundaries and means of each cluster, plus a
/// mapping function.
#[derive(Debug, Clone)]
pub struct CostClusters {
    /// Sorted distinct finite input values.
    values: Vec<f64>,
    /// `assignment[i]` = cluster index of `values[i]`.
    assignment: Vec<usize>,
    /// Mean of each cluster, ascending.
    means: Vec<f64>,
}

impl CostClusters {
    /// Clusters the finite `costs` into at most `k` clusters after rounding
    /// values to multiples of `quantum` (pass 0.0 to skip rounding). Exact
    /// 1-D k-means via DP. A +∞ (dark-link) cost joins no cluster; if
    /// every cost is +∞ there are no clusters.
    ///
    /// # Panics
    /// Panics if `k == 0` or `costs` is empty.
    pub fn compute(costs: &[f64], k: usize, quantum: f64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(!costs.is_empty(), "cannot cluster zero costs");

        // Distinct (rounded) finite values with multiplicities.
        let mut rounded: Vec<f64> = costs
            .iter()
            .filter(|c| c.is_finite())
            .map(|&c| if quantum > 0.0 { (c / quantum).round() * quantum } else { c })
            .collect();
        rounded.sort_by(f64::total_cmp);
        let mut values: Vec<f64> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        for &v in &rounded {
            if values.last().is_some_and(|&last| (last - v) == 0.0) {
                *weights.last_mut().unwrap() += 1.0;
            } else {
                values.push(v);
                weights.push(1.0);
            }
        }
        let n = values.len();
        if n == 0 {
            return Self { values, assignment: Vec::new(), means: Vec::new() };
        }
        let k = k.min(n);

        // Weighted prefix sums for O(1) within-cluster SSE queries.
        let mut pw = vec![0.0; n + 1]; // sum of weights
        let mut ps = vec![0.0; n + 1]; // sum of w*x
        let mut pq = vec![0.0; n + 1]; // sum of w*x^2
        for i in 0..n {
            pw[i + 1] = pw[i] + weights[i];
            ps[i + 1] = ps[i] + weights[i] * values[i];
            pq[i + 1] = pq[i] + weights[i] * values[i] * values[i];
        }
        // SSE of values[a..=b] around their weighted mean.
        let sse = |a: usize, b: usize| -> f64 {
            let w = pw[b + 1] - pw[a];
            let s = ps[b + 1] - ps[a];
            let q = pq[b + 1] - pq[a];
            (q - s * s / w).max(0.0)
        };

        // dp[c][i] = min SSE of clustering values[0..=i] into c+1 clusters.
        let mut dp = vec![vec![f64::INFINITY; n]; k];
        let mut cut = vec![vec![0usize; n]; k];
        for i in 0..n {
            dp[0][i] = sse(0, i);
        }
        for c in 1..k {
            for i in c..n {
                // First index of the last cluster is j in [c, i].
                for j in c..=i {
                    let cand = dp[c - 1][j - 1] + sse(j, i);
                    if cand < dp[c][i] {
                        dp[c][i] = cand;
                        cut[c][i] = j;
                    }
                }
            }
        }

        // Recover assignment by walking cuts back from the full range.
        let mut assignment = vec![0usize; n];
        let mut c = k - 1;
        let mut hi = n - 1;
        let mut bounds = Vec::new(); // (lo, hi) per cluster, reversed
        loop {
            let lo = if c == 0 { 0 } else { cut[c][hi] };
            bounds.push((lo, hi));
            if c == 0 {
                break;
            }
            hi = lo - 1;
            c -= 1;
        }
        bounds.reverse();
        let mut means = Vec::with_capacity(bounds.len());
        for (ci, &(lo, hi)) in bounds.iter().enumerate() {
            let w = pw[hi + 1] - pw[lo];
            let s = ps[hi + 1] - ps[lo];
            means.push(s / w);
            for a in assignment.iter_mut().take(hi + 1).skip(lo) {
                *a = ci;
            }
        }

        Self { values, assignment, means }
    }

    /// Number of clusters actually produced.
    pub fn len(&self) -> usize {
        self.means.len()
    }

    /// True if there are no clusters (every input cost was +∞).
    pub fn is_empty(&self) -> bool {
        self.means.is_empty()
    }

    /// The ascending cluster means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Maps an arbitrary cost to its cluster's mean (nearest cluster by
    /// value-range membership; values outside the seen range snap to the
    /// closest end). A non-finite cost — a +∞ dark link — stays as it is.
    pub fn round(&self, cost: f64) -> f64 {
        if !cost.is_finite() || self.values.is_empty() {
            return cost;
        }
        // Binary search the distinct values for the insertion point.
        let idx = match self.values.binary_search_by(|v| v.total_cmp(&cost)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) if i >= self.values.len() => self.values.len() - 1,
            Err(i) => {
                // Choose the closer neighbour.
                if (cost - self.values[i - 1]).abs() <= (self.values[i] - cost).abs() {
                    i - 1
                } else {
                    i
                }
            }
        };
        self.means[self.assignment[idx]]
    }

    /// Total within-cluster sum of squared errors for the input values.
    pub fn within_sse(&self) -> f64 {
        self.values.iter().zip(&self.assignment).map(|(&v, &a)| (v - self.means[a]).powi(2)).sum()
    }
}

/// The costs a prover searches on: every cost rounded to its mean over
/// `clusters` k-means clusters, or — unclustered — to a multiple of
/// `quantum` (a `quantum` of 0 keeps the measured costs).
pub(crate) fn search_costs(costs: &Costs, clusters: Option<usize>, quantum: f64) -> Costs {
    match clusters {
        Some(k) => {
            let clusters = CostClusters::compute(&costs.off_diagonal(), k, quantum);
            costs.map(|c| clusters.round(c))
        }
        None if quantum > 0.0 => costs.map(|c| (c / quantum).round() * quantum),
        None => costs.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_obvious_clusters() {
        let costs = [1.0, 1.1, 0.9, 10.0, 10.2, 9.8];
        let c = CostClusters::compute(&costs, 2, 0.0);
        assert_eq!(c.len(), 2);
        assert!((c.means()[0] - 1.0).abs() < 1e-9);
        assert!((c.means()[1] - 10.0).abs() < 1e-9);
        assert!((c.round(1.05) - 1.0).abs() < 1e-9);
        assert!((c.round(9.9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_costs_join_no_cluster() {
        let inf = f64::INFINITY;
        let c = CostClusters::compute(&[1.0, 1.1, inf, 10.0, inf], 2, 0.01);
        assert_eq!(c.len(), 2);
        assert!((c.means()[0] - 1.05).abs() < 1e-9 && (c.means()[1] - 10.0).abs() < 1e-9);
        assert_eq!(c.round(inf), inf);
        assert!(c.within_sse().is_finite());
        let dark = CostClusters::compute(&[inf, inf], 3, 0.0);
        assert!(dark.is_empty());
        assert_eq!(dark.round(inf), inf);
    }

    #[test]
    fn k_one_is_global_mean() {
        let costs = [1.0, 2.0, 3.0, 4.0];
        let c = CostClusters::compute(&costs, 1, 0.0);
        assert_eq!(c.len(), 1);
        assert!((c.means()[0] - 2.5).abs() < 1e-12);
        assert_eq!(c.round(100.0), 2.5);
    }

    #[test]
    fn k_at_least_n_gives_identity() {
        let costs = [3.0, 1.0, 2.0];
        let c = CostClusters::compute(&costs, 10, 0.0);
        assert_eq!(c.len(), 3);
        for &v in &costs {
            assert_eq!(c.round(v), v);
        }
    }

    #[test]
    fn quantum_rounds_before_clustering() {
        let costs = [0.101, 0.099, 0.102, 0.5];
        let c = CostClusters::compute(&costs, 10, 0.01);
        // First three collapse to 0.10.
        assert_eq!(c.len(), 2);
        assert!((c.means()[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn dp_is_optimal_vs_brute_force() {
        // Exhaustive check of all 2-cluster splits on a small instance.
        let costs = [0.2, 0.5, 0.9, 1.4, 2.0, 2.1];
        let c = CostClusters::compute(&costs, 2, 0.0);
        let mut best = f64::INFINITY;
        for split in 1..costs.len() {
            let (a, b) = costs.split_at(split);
            let sse = |xs: &[f64]| {
                let m = xs.iter().sum::<f64>() / xs.len() as f64;
                xs.iter().map(|x| (x - m).powi(2)).sum::<f64>()
            };
            best = best.min(sse(a) + sse(b));
        }
        assert!((c.within_sse() - best).abs() < 1e-9, "dp {} brute {best}", c.within_sse());
    }

    #[test]
    fn means_are_ascending() {
        let costs: Vec<f64> = (0..100).map(|i| ((i * 37) % 100) as f64 / 10.0).collect();
        let c = CostClusters::compute(&costs, 7, 0.0);
        assert!(c.means().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn round_monotone_in_cost() {
        let costs: Vec<f64> = (0..50).map(|i| i as f64 * 0.13).collect();
        let c = CostClusters::compute(&costs, 5, 0.0);
        let mut last = f64::NEG_INFINITY;
        for i in 0..100 {
            let r = c.round(i as f64 * 0.065);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn reduces_distinct_value_count() {
        let costs: Vec<f64> = (0..500).map(|i| 0.2 + (i % 97) as f64 * 0.011).collect();
        let c = CostClusters::compute(&costs, 20, 0.01);
        assert_eq!(c.len(), 20);
        let distinct: std::collections::BTreeSet<u64> =
            costs.iter().map(|&v| c.round(v).to_bits()).collect();
        assert!(distinct.len() <= 20);
    }
}

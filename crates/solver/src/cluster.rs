//! Optimal one-dimensional k-means for cost clustering (paper §4.2, §6.3).
//!
//! The CP approach iterates over *distinct* cost values, so rounding the
//! measured costs to `k` cluster means directly bounds the number of
//! iterations. Because link costs are one-dimensional, k-means can be
//! solved *exactly* by dynamic programming over the sorted values: the
//! Ckmeans DP with prefix sums, filled in O(k·N·log N) by divide and
//! conquer over the monotone optimal cut (Grønlund et al., "Fast Exact
//! k-Means, k-Medians and Bregman Divergence Clustering in 1D",
//! arXiv:1701.07204). The plain O(k·N²) fill was thought instantaneous
//! at the paper's N ≲ a few hundred distinct values, but loss-priced
//! repair problems (pools of 23–32 instances, k = 20) hold N = 400–700,
//! where it took 3–17 ms of a prover whose search explores a handful of
//! nodes; this fill takes 0.3–0.9 ms there. The quadratic fill survives
//! only as the bench crate's reference
//! (`cloudia_bench::baselines::ckmeans_quadratic`), which this one
//! matches bit for bit (see [`CostClusters::compute`] for the one regime
//! where it cannot).
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
    /// values to multiples of `quantum` (pass 0.0 to skip rounding). A +∞
    /// (dark-link) cost joins no cluster; if every cost is +∞ there are no
    /// clusters.
    ///
    /// Exact 1-D k-means over the N distinct values in O(k·N·log N) time
    /// and O(k·N) space. Layer `c` of the DP prices clustering the first
    /// `i + 1` values into `c + 1` clusters by the first index `j` of the
    /// last cluster. Within-cluster SSE obeys the quadrangle inequality,
    /// so the smallest optimal `j` never decreases as `i` grows. Each
    /// layer therefore solves its middle `i` by a full scan of the
    /// admissible `j`, then the left half with `j` at most that cut and
    /// the right half with `j` at least it: every `j` range holds the
    /// smallest argmin, so each entry is the one a scan over all `j`
    /// finds, and each of the log N recursion levels scans O(N)
    /// candidates.
    ///
    /// That holds for the SSE as computed, `q − s²/w` over prefix sums,
    /// while its rounding error stays below the gaps between cuts. Values
    /// that agree to ~1e-5 of their magnitude, with no quantum to merge
    /// them, cancel every digit of that difference: a full scan's optimal
    /// cuts then stop being monotone, and the two fills may return
    /// different clusterings whose SSEs agree to within ~10·ε·Σx². The
    /// solvers cluster at the 0.01 ms quantum, where values stay at least
    /// 2e-6 of their magnitude apart up to 5 s costs; on every clustering
    /// of loopbench's four workloads (seeds 1–10) both fills agree on
    /// every DP entry and cut.
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

        // dp[c * n + i] = min SSE of clustering values[0..=i] into c+1
        // clusters; cut[c * n + i] = first index of its last cluster.
        let mut dp = vec![f64::INFINITY; k * n];
        let mut cut = vec![0usize; k * n];
        for i in 0..n {
            dp[i] = sse(0, i);
        }
        for c in 1..k {
            let (done, rest) = dp.split_at_mut(c * n);
            let (prev, row) = (&done[(c - 1) * n..], &mut rest[..n]);
            fill_layer(prev, &sse, row, &mut cut[c * n..(c + 1) * n], (c, n - 1), (c, n - 1));
        }

        // Recover assignment by walking cuts back from the full range.
        let mut assignment = vec![0usize; n];
        let mut c = k - 1;
        let mut hi = n - 1;
        let mut bounds = Vec::new(); // (lo, hi) per cluster, reversed
        loop {
            let lo = if c == 0 { 0 } else { cut[c * n + hi] };
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
        self.cluster_of(cost).map_or(cost, |a| self.means[a])
    }

    /// The cluster [`round`](Self::round) maps `cost` to, or `None` for a
    /// non-finite cost or when there are no clusters.
    fn cluster_of(&self, cost: f64) -> Option<usize> {
        if !cost.is_finite() || self.values.is_empty() {
            return None;
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
        Some(self.assignment[idx])
    }

    /// Total within-cluster sum of squared errors for the input values.
    pub fn within_sse(&self) -> f64 {
        self.values.iter().zip(&self.assignment).map(|(&v, &a)| (v - self.means[a]).powi(2)).sum()
    }
}

/// Fills `row[i]` and `cut[i]` of one DP layer for `i` in `lo..=hi` from
/// the previous layer's optima `prev`, knowing that each smallest optimal
/// cut lies in `j_lo..=j_hi`: solves the middle `i` by scanning its
/// admissible cuts upward with a strict `<` (the smallest argmin), then
/// each half inside the cut it found.
fn fill_layer(
    prev: &[f64],
    sse: &impl Fn(usize, usize) -> f64,
    row: &mut [f64],
    cut: &mut [usize],
    (lo, hi): (usize, usize),
    (j_lo, j_hi): (usize, usize),
) {
    let i = lo + (hi - lo) / 2;
    let (mut best, mut best_j) = (f64::INFINITY, j_lo);
    for j in j_lo..=j_hi.min(i) {
        let cand = prev[j - 1] + sse(j, i);
        if cand < best {
            best = cand;
            best_j = j;
        }
    }
    row[i] = best;
    cut[i] = best_j;
    if i > lo {
        fill_layer(prev, sse, row, cut, (lo, i - 1), (j_lo, best_j));
    }
    if i < hi {
        fill_layer(prev, sse, row, cut, (i + 1, hi), (best_j, j_hi));
    }
}

/// The costs a prover searches on: every cost rounded to its mean over
/// `clusters` k-means clusters, or — unclustered — to a multiple of
/// `quantum` (a `quantum` of 0 keeps the measured costs).
///
/// A clustered call also returns its thresholds: the ascending distinct
/// cluster means the rounding wrote, which are exactly the distinct
/// finite off-diagonal search costs, found without sorting the m(m−1)
/// of them again. Unclustered, there are none to offer.
pub(crate) fn search_costs(
    costs: &Costs,
    clusters: Option<usize>,
    quantum: f64,
) -> (Costs, Option<Vec<f64>>) {
    match clusters {
        Some(k) => {
            let mut span = cloudia_obs::span!("solver.cluster");
            let clusters = CostClusters::compute(&costs.off_diagonal(), k, quantum);
            span.attr("values", clusters.values.len());
            span.attr("clusters", clusters.len());
            let mut written = vec![false; clusters.len()];
            let rounded = costs.map(|c| match clusters.cluster_of(c) {
                Some(a) => {
                    written[a] = true;
                    clusters.means[a]
                }
                None => c,
            });
            let mut thresholds: Vec<f64> =
                clusters.means.iter().zip(&written).filter(|(_, &w)| w).map(|(&m, _)| m).collect();
            // Means of adjacent clusters ascend, but each is a quotient of
            // prefix-sum differences: order and deduplicate as a sort of
            // the rounded costs would.
            thresholds.sort_by(f64::total_cmp);
            thresholds.dedup();
            (rounded, Some(thresholds))
        }
        None if quantum > 0.0 => (costs.map(|c| (c / quantum).round() * quantum), None),
        None => (costs.clone(), None),
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

    #[test]
    fn clustered_thresholds_are_the_sorted_distinct_search_costs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        for case in 0..60u64 {
            let m = rng.random_range(2..40usize);
            let costs = match case % 3 {
                0 => Costs::random_uniform(m, case),
                1 => Costs::random_clustered(m, 0.3, case),
                // Dark links and a coarse grid of exact duplicates.
                _ => Costs::from_fn(m, |_, _| match rng.random_range(0..10u32) {
                    0 => f64::INFINITY,
                    v => f64::from(v) * 0.25,
                }),
            };
            let k = rng.random_range(1..25usize);
            let quantum = if case % 2 == 0 { 0.01 } else { 0.0 };
            let (rounded, thresholds) = search_costs(&costs, Some(k), quantum);
            let mut expected = rounded.off_diagonal();
            expected.retain(|c| c.is_finite());
            expected.sort_by(f64::total_cmp);
            expected.dedup();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let thresholds = thresholds.expect("a clustered call knows its thresholds");
            assert_eq!(bits(&thresholds), bits(&expected), "case {case}: m = {m}, k = {k}");
            assert!(search_costs(&costs, None, quantum).1.is_none());
        }
    }
}

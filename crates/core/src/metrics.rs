//! Latency metrics for communication cost (paper §3.2, §6.4).
//!
//! Mean latency is the natural cost metric, but jitter-sensitive
//! applications might prefer **mean + SD**, and tail-latency SLOs suggest
//! the **99th percentile**. The paper studies all three and finds mean to
//! be robust (Fig. 11); this module turns one measurement pass into a cost
//! matrix under any of them, plus the correlation analysis behind Fig. 10.

use cloudia_measure::PairwiseStats;

use crate::problem::{CostError, CostMatrix};

/// Which per-link statistic to use as the communication cost `C_L`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyMetric {
    /// Mean RTT — the paper's default and most robust choice.
    #[default]
    Mean,
    /// Mean plus one standard deviation (jitter-sensitive applications).
    MeanPlusSd,
    /// 99th-percentile RTT (tail-latency guarantees).
    P99,
}

impl LatencyMetric {
    /// Short identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            LatencyMetric::Mean => "mean",
            LatencyMetric::MeanPlusSd => "mean+sd",
            LatencyMetric::P99 => "p99",
        }
    }

    /// All metrics, in the order the paper presents them.
    pub fn all() -> [LatencyMetric; 3] {
        [LatencyMetric::Mean, LatencyMetric::MeanPlusSd, LatencyMetric::P99]
    }

    /// Empty statistics for `n` instances that can answer this metric:
    /// with P² sketches for p99, without them for the mean and mean+SD
    /// (40 bytes per link, against 44 plus a 176-byte sketch per covered
    /// link).
    pub fn empty_stats(self, n: usize) -> PairwiseStats {
        match self {
            LatencyMetric::P99 => PairwiseStats::with_p99(n),
            LatencyMetric::Mean | LatencyMetric::MeanPlusSd => PairwiseStats::new(n),
        }
    }

    /// Extracts the cost matrix under this metric from measurement
    /// statistics, reporting corrupt estimates (NaN/negative) as an error
    /// instead of aborting. An attempted-but-never-answered link prices
    /// as `+∞` (a legal cost every ranking pushes away from); a link that
    /// was never even attempted has no honest price at all and surfaces
    /// as [`CostError::Unmeasured`]. P99 from statistics built without
    /// sketches (see [`LatencyMetric::empty_stats`]) is
    /// [`CostError::Untracked`], never a proxy.
    pub fn try_cost_matrix(self, stats: &PairwiseStats) -> Result<CostMatrix, CostError> {
        match self {
            LatencyMetric::Mean => stats.mean_matrix(),
            LatencyMetric::MeanPlusSd => stats.mean_plus_sd_matrix(),
            LatencyMetric::P99 => stats.p99_matrix(),
        }
    }

    /// [`LatencyMetric::try_cost_matrix`] for trusted statistics —
    /// i.e. a sweep known to have attempted every pair, so
    /// [`CostError::Unmeasured`] cannot legitimately occur.
    ///
    /// # Panics
    /// Panics if an estimate is NaN or negative, or if a link was never
    /// attempted.
    pub fn cost_matrix(self, stats: &PairwiseStats) -> CostMatrix {
        self.try_cost_matrix(stats).expect("measurement produced an invalid cost matrix")
    }

    /// Flattened off-diagonal vector of this metric's values, row-major —
    /// for correlation scatter plots (Fig. 10).
    pub fn vector(self, stats: &PairwiseStats) -> Vec<f64> {
        self.cost_matrix(stats).off_diagonal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with_jitter() -> PairwiseStats {
        let mut s = PairwiseStats::with_p99(3);
        // Link (0,1): stable around 1.0; link (0,2): jittery around 1.0.
        for i in 0..200 {
            s.record(0, 1, 1.0 + 0.01 * ((i % 3) as f64));
            s.record(0, 2, if i % 10 == 0 { 3.0 } else { 0.9 });
            s.record(1, 0, 0.5);
            s.record(1, 2, 0.7);
            s.record(2, 0, 0.6);
            s.record(2, 1, 0.8);
        }
        s
    }

    #[test]
    fn metric_names_and_all() {
        assert_eq!(LatencyMetric::Mean.name(), "mean");
        assert_eq!(LatencyMetric::all().len(), 3);
        assert_eq!(LatencyMetric::default(), LatencyMetric::Mean);
    }

    #[test]
    fn mean_plus_sd_dominates_mean() {
        let s = stats_with_jitter();
        let mean = LatencyMetric::Mean.cost_matrix(&s);
        let msd = LatencyMetric::MeanPlusSd.cost_matrix(&s);
        for i in 0..3 {
            for j in 0..3 {
                if i != j {
                    assert!(msd.get(i, j) >= mean.get(i, j), "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn jittery_link_ranks_differently_under_metrics() {
        let s = stats_with_jitter();
        // Under mean, links (0,1) and (0,2) are close; under mean+SD and
        // p99 the jittery link must look much worse.
        let mean = LatencyMetric::Mean.cost_matrix(&s);
        let msd = LatencyMetric::MeanPlusSd.cost_matrix(&s);
        let p99 = LatencyMetric::P99.cost_matrix(&s);
        assert!((mean.get(0, 1) - mean.get(0, 2)).abs() < 0.15);
        assert!(msd.get(0, 2) > msd.get(0, 1) + 0.3);
        assert!(p99.get(0, 2) > p99.get(0, 1) + 1.0);
    }

    #[test]
    fn p99_of_sketchless_stats_is_an_error() {
        let mut s = LatencyMetric::Mean.empty_stats(2);
        s.record(0, 1, 1.0);
        s.record(1, 0, 2.0);
        assert!(LatencyMetric::Mean.try_cost_matrix(&s).is_ok());
        assert!(LatencyMetric::MeanPlusSd.try_cost_matrix(&s).is_ok());
        assert_eq!(
            LatencyMetric::P99.try_cost_matrix(&s),
            Err(CostError::Untracked { metric: "p99" })
        );
        // Each metric's own empty statistics answer it.
        for metric in LatencyMetric::all() {
            let mut s = metric.empty_stats(2);
            s.record(0, 1, 1.0);
            s.record(1, 0, 2.0);
            assert_eq!(metric.cost_matrix(&s).get(0, 1), 1.0, "{}", metric.name());
        }
    }

    #[test]
    fn vector_matches_matrix() {
        let s = stats_with_jitter();
        let v = LatencyMetric::Mean.vector(&s);
        assert_eq!(v.len(), 6);
        let m = LatencyMetric::Mean.cost_matrix(&s);
        assert_eq!(v[0], m.get(0, 1));
        assert_eq!(v[5], m.get(2, 1));
    }
}

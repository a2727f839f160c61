//! Staged measurement (paper §5, approach 3).
//!
//! A coordinator divides measurement into stages. In each stage it picks
//! ⌊n/2⌋ *disjoint* instance pairs — no instance appears twice — so up to
//! n/2 probes are in flight with zero endpoint contention. Within a stage
//! each pair performs `Ks` consecutive round trips (the paper's
//! amortization of coordination cost). Across stages, the pairings follow
//! the classic round-robin tournament (circle method), which covers every
//! unordered pair exactly once per sweep; alternating the probing direction
//! between sweeps covers both directions of every link.
//!
//! Staged therefore combines token-passing's accuracy with uncoordinated's
//! parallelism, at the cost of a per-stage coordination overhead.

use crate::driver::StageDriver;
use crate::scheme::{MeasureConfig, Scheme};
use crate::stats::PairwiseStats;

/// The staged scheme.
#[derive(Debug, Clone)]
pub struct Staged {
    /// Consecutive round trips per pair within one stage (the paper's Ks).
    pub ks: usize,
    /// Number of full tournament sweeps (each sweep measures every
    /// unordered pair once; direction alternates between sweeps).
    pub sweeps: usize,
}

impl Staged {
    /// Creates a staged scheme with `Ks = ks` and the given sweep count.
    pub fn new(ks: usize, sweeps: usize) -> Self {
        assert!(ks > 0 && sweeps > 0, "ks and sweeps must be positive");
        Self { ks, sweeps }
    }

    /// Round-robin tournament pairing (circle method) for `n` players,
    /// round `r` of `n_eff − 1`, where `n_eff` is `n` rounded up to even.
    /// Returns disjoint pairs; if `n` is odd, one instance sits out.
    pub fn circle_pairs(n: usize, r: usize) -> Vec<(usize, usize)> {
        let n_eff = n + (n % 2); // add a bye slot when odd
        let rounds = n_eff - 1;
        let r = r % rounds;
        let mut pairs = Vec::with_capacity(n_eff / 2);
        // Fixed player n_eff-1; others rotate.
        let pos = |k: usize| -> usize {
            if k == n_eff - 1 {
                n_eff - 1
            } else {
                (k + r) % (n_eff - 1)
            }
        };
        // In the standard schedule, slot layout pairs index i with
        // n_eff-1-i after rotation.
        let mut slots = vec![0usize; n_eff];
        for k in 0..n_eff {
            slots[if k == n_eff - 1 { n_eff - 1 } else { pos(k) }] = k;
        }
        for i in 0..n_eff / 2 {
            let (a, b) = (slots[i], slots[n_eff - 1 - i]);
            // Drop pairs involving the bye slot.
            if a < n && b < n {
                pairs.push((a.min(b), a.max(b)));
            }
        }
        pairs
    }

    /// The full round-robin tournament over `n` instances: one stage per
    /// circle-method round ([`Staged::circle_pairs`]), each pair `(a, b)`
    /// (`a < b`) mapped through `pair`. The circle method meets every
    /// unordered pair in exactly one round, which is the
    /// one-stage-per-pair invariant the stage driver checks.
    pub(crate) fn tournament<T>(n: usize, pair: impl Fn(u32, u32) -> T) -> Vec<Vec<T>> {
        let rounds = (n + n % 2) - 1;
        (0..rounds)
            .map(|r| {
                let round = Self::circle_pairs(n, r).into_iter();
                round.map(|(a, b)| pair(a as u32, b as u32)).collect()
            })
            .collect()
    }
}

impl Scheme for Staged {
    fn name(&self) -> &'static str {
        "staged"
    }

    fn driver(&self, cfg: &MeasureConfig, stats: PairwiseStats) -> StageDriver {
        let n = stats.len();
        assert!(n >= 2, "need at least two instances to measure");
        // The round-robin tournament, every pair sampled `ks` times per
        // stage.
        let stages = Self::tournament(n, |a, b| (a, b, self.ks));
        StageDriver::new("staged", cfg, stats, stages, self.sweeps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudia_netsim::{Cloud, InstanceId, Network, Provider};
    use std::collections::HashSet;

    fn network(n: usize, seed: u64) -> Network {
        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(n);
        cloud.network(&alloc)
    }

    #[test]
    fn circle_pairs_are_disjoint() {
        for n in [2usize, 5, 8, 13, 50] {
            let rounds = (n + n % 2) - 1;
            for r in 0..rounds {
                let pairs = Staged::circle_pairs(n, r);
                let mut seen = HashSet::new();
                for &(a, b) in &pairs {
                    assert_ne!(a, b);
                    assert!(seen.insert(a), "n={n} r={r}: {a} repeated");
                    assert!(seen.insert(b), "n={n} r={r}: {b} repeated");
                }
            }
        }
    }

    #[test]
    fn circle_pairs_cover_all_unordered_pairs() {
        for n in [4usize, 7, 10] {
            let rounds = (n + n % 2) - 1;
            let mut seen = HashSet::new();
            for r in 0..rounds {
                for (a, b) in Staged::circle_pairs(n, r) {
                    assert!(seen.insert((a, b)), "n={n}: pair ({a},{b}) repeated");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn two_sweeps_cover_both_directions() {
        let net = network(6, 1);
        let report = Staged::new(2, 2).run(&net, &MeasureConfig::default());
        assert_eq!(report.stats.covered_links(), 6 * 5);
    }

    #[test]
    fn estimates_clean_without_jitter() {
        // Disjoint pairs never queue: estimates equal truth + overhead,
        // like token passing.
        let net = network(8, 2);
        let cfg = MeasureConfig::default();
        let report = Staged::new(3, 2).run(&net, &cfg);
        let overhead = crate::probe_overhead_ms();
        for i in 0..8u32 {
            for j in 0..8u32 {
                if i == j {
                    continue;
                }
                let link = report.stats.link(i as usize, j as usize);
                if link.count() == 0 {
                    continue;
                }
                let truth = net.mean_rtt(InstanceId(i), InstanceId(j)) + overhead;
                assert!(
                    (link.mean() - truth).abs() < 1e-9,
                    "({i},{j}): est {} truth {truth}",
                    link.mean()
                );
            }
        }
    }

    #[test]
    fn ks_multiplies_samples() {
        let net = network(6, 4);
        let r = Staged::new(5, 2).run(&net, &MeasureConfig::default());
        // 2 sweeps × 5 rounds × 3 pairs × 5 ks.
        assert_eq!(r.round_trips, 2 * 5 * 3 * 5);
    }

    #[test]
    fn run_onto_accumulates_across_rounds() {
        let net = network(6, 7);
        let cfg = MeasureConfig::default();
        let scheme = Staged::new(2, 2);
        let first = scheme.run(&net, &cfg);
        let first_total = first.stats.total_samples();
        let second = scheme.run_onto(&net, &cfg, first.stats);
        // Second round's report covers one run, stats cover both.
        assert_eq!(second.round_trips, first.round_trips);
        assert_eq!(second.stats.total_samples(), 2 * first_total);
        // Per-link counts doubled (deterministic schedule).
        assert_eq!(second.stats.link(0, 1).count(), 2 * 2);
    }

    #[test]
    #[should_panic(expected = "sized for")]
    fn run_onto_rejects_mismatched_stats() {
        let net = network(6, 8);
        Staged::new(1, 1).run_onto(&net, &MeasureConfig::default(), PairwiseStats::new(4));
    }

    #[test]
    fn duration_limit_stops_sweeps() {
        let net = network(6, 5);
        let cfg = MeasureConfig { max_duration_ms: Some(10.0), ..Default::default() };
        let r = Staged::new(5, 1000).run(&net, &cfg);
        assert!(r.round_trips < 1000 * 5 * 3 * 5);
    }
}

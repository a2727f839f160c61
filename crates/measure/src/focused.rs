//! Focused measurement: spend the probe budget where the signal is.
//!
//! The paper's staged scheme ([`crate::Staged`]) sweeps every ordered
//! pair — O(m²) probe pairs per round — even when the caller already knows
//! which links matter. The online advisor knows a lot: the solver's
//! candidate pool bounds where any deployment will ever land, the
//! change-point detectors name the links that just shifted, and the
//! online store tracks how stale every other link's estimate is.
//! [`ProbePlan`] turns that knowledge into an explicit set of
//! unordered instance pairs, and [`FocusedScheme`] executes it with the
//! staged discipline — disjoint pairs per stage, `Ks` consecutive round
//! trips per pair, directions alternating across sweeps — so a focused
//! round has staged-level accuracy at O(K² + flagged) probe pairs.
//!
//! A plan that covers every pair ([`ProbePlan::full`]) is the fallback
//! full tournament sweep, so one scheme serves both the focused rounds and
//! the periodic refresh.

use crate::driver::StageDriver;
use crate::scheme::{MeasureConfig, Scheme};
use crate::staged::Staged;
use crate::stats::PairwiseStats;

use std::collections::BTreeMap;

/// A set of unordered instance pairs to probe in one measurement round.
///
/// Pairs are stored deduplicated and ordered — one bit per unordered
/// pair `(low, high)`, row-major over the upper triangle — so plans built
/// from the same ingredients are identical, adding a pair is O(1), and
/// the resulting probe schedule is deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePlan {
    n: usize,
    /// Bit `slot(a, b)` is set when the pair `{a, b}` is scheduled.
    bits: Vec<u64>,
    len: usize,
}

impl ProbePlan {
    /// An empty plan over `n` instances.
    pub fn new(n: usize) -> Self {
        Self { n, bits: vec![0; Self::pair_count(n).div_ceil(64)], len: 0 }
    }

    /// The full plan: every unordered pair (the fallback tournament
    /// sweep).
    pub fn full(n: usize) -> Self {
        let all = Self::pair_count(n);
        let mut bits = vec![u64::MAX; all / 64];
        if !all.is_multiple_of(64) {
            bits.push((1 << (all % 64)) - 1);
        }
        Self { n, bits, len: all }
    }

    /// Unordered pairs among `n` instances.
    fn pair_count(n: usize) -> usize {
        n * n.saturating_sub(1) / 2
    }

    /// The bit of the pair `(a, b)`, `a < b`: row `a` of the upper
    /// triangle starts after the `n − 1 + … + n − a` pairs of the rows
    /// above it.
    fn slot(&self, a: usize, b: usize) -> usize {
        a * (2 * self.n - a - 1) / 2 + (b - a - 1)
    }

    /// Number of instances the plan covers.
    pub fn num_instances(&self) -> usize {
        self.n
    }

    /// Number of unordered pairs in the plan.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the plan schedules no pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when every unordered pair is scheduled — the plan degenerates
    /// to a full tournament sweep.
    pub fn is_full(&self) -> bool {
        self.len == Self::pair_count(self.n)
    }

    /// Fraction of all unordered pairs the plan schedules (0 when `n < 2`).
    pub fn coverage(&self) -> f64 {
        let all = Self::pair_count(self.n);
        if all == 0 {
            0.0
        } else {
            self.len as f64 / all as f64
        }
    }

    /// Adds the unordered pair `{a, b}` (direction is irrelevant: the
    /// scheme probes both directions across alternating sweeps). Self
    /// pairs are ignored.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn add_pair(&mut self, a: u32, b: u32) {
        assert!((a as usize) < self.n && (b as usize) < self.n, "pair ({a}, {b}) out of range");
        if a != b {
            let slot = self.slot(a.min(b) as usize, a.max(b) as usize);
            let (word, bit) = (&mut self.bits[slot / 64], 1u64 << (slot % 64));
            self.len += usize::from(*word & bit == 0);
            *word |= bit;
        }
    }

    /// Adds every unordered pair among `ids` — the candidate-pool clique,
    /// O(K²) pairs for K ids.
    pub fn add_clique(&mut self, ids: &[u32]) {
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                self.add_pair(a, b);
            }
        }
    }

    /// True if the unordered pair `{a, b}` is scheduled.
    pub fn contains(&self, a: u32, b: u32) -> bool {
        let (lo, hi) = (a.min(b) as usize, a.max(b) as usize);
        if a == b || hi >= self.n {
            return false;
        }
        let slot = self.slot(lo, hi);
        self.bits[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// The scheduled pairs, ordered `(low, high)` ascending: the set bits
    /// in slot order, walked one row of the triangle at a time.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let n = self.n;
        // The row the walk is in and the slot its first pair takes.
        let (mut row, mut start) = (0usize, 0usize);
        let slots = self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                let bit = (word != 0).then(|| w * 64 + word.trailing_zeros() as usize)?;
                word &= word - 1;
                Some(bit)
            })
        });
        slots.map(move |slot| {
            while slot >= start + (n - 1 - row) {
                start += n - 1 - row;
                row += 1;
            }
            (row as u32, (row + 1 + slot - start) as u32)
        })
    }

    /// Partitions the plan into stages of endpoint-disjoint pairs. Within
    /// one stage every pair probes concurrently with zero endpoint
    /// contention, exactly as in the staged tournament. Every planned
    /// pair lands in exactly one stage — the plan is a set of normalized
    /// pairs ([`ProbePlan::add_pair`] dedupes), and both partitions below
    /// place each member once — which the stage driver's dark strike and
    /// schedule accessors rely on, and check once per driver.
    ///
    /// A full plan uses the round-robin tournament (circle method) —
    /// `n_eff − 1` optimal stages computed in O(n²), matching
    /// [`Staged`]'s schedule — so the periodic full-refresh epochs pay
    /// neither extra coordination rounds nor a matcher. Partial plans are
    /// matched first-fit over the deterministic pair order: each pair
    /// takes the lowest stage in which neither endpoint plays yet, found
    /// from per-instance stage bitsets in O(stages / 64) per pair. That is
    /// the schedule of greedy matching run one stage at a time over the
    /// pairs left (each pair meets the same earlier pairs in both), at
    /// O(pairs) instead of O(pairs × stages): `O(K)` stages for a
    /// K-clique.
    pub fn stages(&self) -> Vec<Vec<(u32, u32)>> {
        if self.is_full() && self.n >= 2 {
            return Staged::tournament(self.n, |a, b| (a, b));
        }
        // A pair meets at most n − 2 earlier pairs through each endpoint,
        // so its stage index stays below 2n − 3 and `words` bits suffice.
        let words = (2 * self.n).div_ceil(64).max(1);
        let mut playing = vec![0u64; self.n * words];
        let mut stages: Vec<Vec<(u32, u32)>> = Vec::new();
        for (a, b) in self.pairs() {
            let (ra, rb) = (a as usize * words, b as usize * words);
            let stage = (0..words)
                .find_map(|w| {
                    let free = !(playing[ra + w] | playing[rb + w]);
                    (free != 0).then(|| w * 64 + free.trailing_zeros() as usize)
                })
                .expect("a pair's stage index is below 2n");
            let bit = 1u64 << (stage % 64);
            playing[ra + stage / 64] |= bit;
            playing[rb + stage / 64] |= bit;
            if stage == stages.len() {
                stages.push(Vec::new());
            }
            stages[stage].push((a, b));
        }
        stages
    }
}

/// The focused scheme: executes a [`ProbePlan`] with staged discipline.
#[derive(Debug, Clone)]
pub struct FocusedScheme {
    /// The pairs to probe this round.
    pub plan: ProbePlan,
    /// Consecutive round trips per pair within one stage (staged's Ks).
    pub ks: usize,
    /// Sweeps over the plan; directions alternate between sweeps, so two
    /// sweeps cover both directions of every planned link.
    pub sweeps: usize,
    /// Per-pair Ks overrides (unordered, normalized `(low, high)` keys):
    /// pairs the caller wants sampled deeper than the base `ks` — e.g.
    /// detector-flagged links funded by round trips saved through
    /// mid-sweep pruning. Set via [`FocusedScheme::deepen`].
    deep: BTreeMap<(u32, u32), usize>,
}

impl FocusedScheme {
    /// Creates a focused scheme over `plan` with `Ks = ks` and the given
    /// sweep count.
    pub fn new(plan: ProbePlan, ks: usize, sweeps: usize) -> Self {
        assert!(ks > 0 && sweeps > 0, "ks and sweeps must be positive");
        Self { plan, ks, sweeps, deep: BTreeMap::new() }
    }

    /// Raises the per-pair round-trip quota of the given planned pairs to
    /// `ks` (never lowers an existing override; pairs outside the plan
    /// are ignored). The deepened pairs spend `ks − base_ks` extra round
    /// trips per sweep — the `probe_ks` escalation that re-invests
    /// round trips saved by mid-sweep pruning into the links under
    /// suspicion.
    pub fn deepen(&mut self, pairs: &[(u32, u32)], ks: usize) {
        assert!(ks > 0, "deepened ks must be positive");
        for &(a, b) in pairs {
            if a != b && self.plan.contains(a, b) {
                let key = (a.min(b), a.max(b));
                let slot = self.deep.entry(key).or_insert(self.ks);
                *slot = (*slot).max(ks);
            }
        }
    }

    /// The round-trip quota of one planned pair per stage: the base `ks`,
    /// or its deepened override.
    pub fn pair_ks(&self, a: u32, b: u32) -> usize {
        self.deep.get(&(a.min(b), a.max(b))).copied().unwrap_or(self.ks)
    }

    /// Round trips the deepened overrides add beyond a uniform-`ks` run:
    /// `sweeps × Σ (pair_ks − ks)` over the deepened pairs.
    pub fn deep_extra_round_trips(&self) -> u64 {
        self.sweeps as u64 * self.deep.values().map(|&k| (k - self.ks.min(k)) as u64).sum::<u64>()
    }
}

impl Scheme for FocusedScheme {
    fn name(&self) -> &'static str {
        "focused"
    }

    fn driver(&self, cfg: &MeasureConfig, stats: PairwiseStats) -> StageDriver {
        let n = stats.len();
        assert!(n >= 2, "need at least two instances to measure");
        assert_eq!(
            self.plan.num_instances(),
            n,
            "plan sized for {} instances, statistics for {n}",
            self.plan.num_instances()
        );
        // Same stage protocol as `Staged` (one shared driver); only the
        // pair schedule and per-pair sampling depth differ.
        let stages = self
            .plan
            .stages()
            .into_iter()
            .map(|stage| stage.into_iter().map(|(a, b)| (a, b, self.pair_ks(a, b))).collect())
            .collect();
        StageDriver::new("focused", cfg, stats, stages, self.sweeps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::staged::Staged;
    use cloudia_netsim::{Cloud, Network, Provider};
    use std::collections::HashSet;

    fn network(n: usize, seed: u64) -> Network {
        let mut cloud = Cloud::boot(Provider::test_quiet(), seed);
        let alloc = cloud.allocate(n);
        cloud.network(&alloc)
    }

    #[test]
    fn plan_dedups_and_normalizes_pairs() {
        let mut plan = ProbePlan::new(6);
        plan.add_pair(3, 1);
        plan.add_pair(1, 3);
        plan.add_pair(2, 2); // ignored
        assert_eq!(plan.len(), 1);
        assert!(plan.contains(1, 3));
        assert!(plan.contains(3, 1));
        assert!(!plan.contains(2, 2));
    }

    #[test]
    fn clique_covers_all_pairs_of_the_pool() {
        let mut plan = ProbePlan::new(10);
        plan.add_clique(&[0, 3, 7, 9]);
        assert_eq!(plan.len(), 6);
        for &(a, b) in &[(0, 3), (0, 7), (0, 9), (3, 7), (3, 9), (7, 9)] {
            assert!(plan.contains(a, b));
        }
    }

    #[test]
    fn full_plan_is_full() {
        let plan = ProbePlan::full(7);
        assert_eq!(plan.len(), 7 * 6 / 2);
        assert!(plan.is_full());
        assert!((plan.coverage() - 1.0).abs() < 1e-12);
        let mut partial = ProbePlan::new(7);
        partial.add_pair(0, 1);
        assert!(!partial.is_full());
    }

    #[test]
    fn stages_are_disjoint_and_cover_the_plan() {
        let mut plan = ProbePlan::new(9);
        plan.add_clique(&[0, 1, 2, 3, 4]);
        plan.add_pair(7, 8);
        let stages = plan.stages();
        let mut seen = HashSet::new();
        for stage in &stages {
            let mut busy = HashSet::new();
            for &(a, b) in stage {
                assert!(busy.insert(a), "endpoint {a} repeated in stage");
                assert!(busy.insert(b), "endpoint {b} repeated in stage");
                assert!(seen.insert((a, b)), "pair ({a},{b}) repeated across stages");
            }
        }
        assert_eq!(seen.len(), plan.len());
    }

    /// The per-stage greedy matcher first-fit replaced: one pass over the
    /// pairs left per stage, in plan order.
    fn greedy_stages(plan: &ProbePlan) -> Vec<Vec<(u32, u32)>> {
        let mut remaining: Vec<(u32, u32)> = plan.pairs().collect();
        let mut stages = Vec::new();
        while !remaining.is_empty() {
            let mut busy = vec![false; plan.num_instances()];
            let (stage, rest): (Vec<_>, Vec<_>) = remaining.into_iter().partition(|&(a, b)| {
                let free = !busy[a as usize] && !busy[b as usize];
                if free {
                    busy[a as usize] = true;
                    busy[b as usize] = true;
                }
                free
            });
            stages.push(stage);
            remaining = rest;
        }
        stages
    }

    /// `plan` less one of its pairs.
    fn without(plan: &ProbePlan, pair: (u32, u32)) -> ProbePlan {
        let mut rest = ProbePlan::new(plan.num_instances());
        for (a, b) in plan.pairs().filter(|&p| p != pair) {
            rest.add_pair(a, b);
        }
        rest
    }

    #[test]
    fn first_fit_stages_equal_the_per_stage_greedy() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(27);
        for case in 0..300 {
            let n = rng.random_range(2..70usize);
            // Sparse plans through near-full ones (one pair short of the
            // tournament path).
            let density = [0.02, 0.2, 0.6, 0.95, 0.99][case % 5];
            let mut plan = ProbePlan::new(n);
            for a in 0..n as u32 {
                for b in a + 1..n as u32 {
                    if rng.random::<f64>() < density {
                        plan.add_pair(a, b);
                    }
                }
            }
            if plan.is_full() {
                let first = plan.pairs().next().expect("a full plan over n >= 2 has pairs");
                plan = without(&plan, first);
            }
            assert_eq!(plan.stages(), greedy_stages(&plan), "case {case}: n = {n}");
        }
        // A near-full plan with a wide instance set: stage indices past 64.
        let plan = without(&ProbePlan::full(150), (3, 77));
        assert!(plan.stages().len() > 64);
        assert_eq!(plan.stages(), greedy_stages(&plan));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn plan_rejects_out_of_range_pairs() {
        ProbePlan::new(4).add_pair(0, 4);
    }

    #[test]
    fn full_plan_stages_use_the_tournament_schedule() {
        // A full plan must pay the circle method's n_eff - 1 stages, not
        // the greedy matcher's ~2x count — and still cover every pair
        // disjointly.
        for n in [6usize, 7, 12] {
            let stages = ProbePlan::full(n).stages();
            assert_eq!(stages.len(), (n + n % 2) - 1, "n={n}");
            let mut seen = HashSet::new();
            for stage in &stages {
                let mut busy = HashSet::new();
                for &(a, b) in stage {
                    assert!(busy.insert(a) && busy.insert(b), "n={n}: endpoint reused");
                    assert!(seen.insert((a.min(b), a.max(b))), "n={n}: pair repeated");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn focused_full_plan_matches_staged_estimates() {
        // On a quiet network both schemes see truth + constant overhead on
        // every link, so a full-plan focused run and a staged run agree.
        let net = network(8, 1);
        let cfg = MeasureConfig::default();
        let focused = FocusedScheme::new(ProbePlan::full(8), 3, 2).run(&net, &cfg);
        let staged = Staged::new(3, 2).run(&net, &cfg);
        assert_eq!(focused.stats.covered_links(), 8 * 7);
        assert_eq!(focused.round_trips, staged.round_trips);
        for i in 0..8 {
            for j in 0..8 {
                if i != j {
                    assert!(
                        (focused.stats.link(i, j).mean() - staged.stats.link(i, j).mean()).abs()
                            < 1e-9,
                        "({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn focused_probes_only_planned_links() {
        let net = network(10, 2);
        let mut plan = ProbePlan::new(10);
        plan.add_clique(&[0, 2, 4]);
        plan.add_pair(8, 9);
        let report = FocusedScheme::new(plan.clone(), 2, 2).run(&net, &MeasureConfig::default());
        assert_eq!(report.round_trips, 2 * 2 * plan.len() as u64);
        for i in 0..10u32 {
            for j in 0..10u32 {
                if i == j {
                    continue;
                }
                let count = report.stats.link(i as usize, j as usize).count();
                if plan.contains(i, j) {
                    assert_eq!(count, 2, "({i},{j}) planned link undersampled");
                } else {
                    assert_eq!(count, 0, "({i},{j}) unplanned link probed");
                }
            }
        }
    }

    #[test]
    fn focused_cost_scales_with_plan_size_not_network_size() {
        let net = network(24, 3);
        let cfg = MeasureConfig::default();
        let mut small = ProbePlan::new(24);
        small.add_clique(&[0, 1, 2, 3, 4, 5]);
        let focused = FocusedScheme::new(small, 3, 2).run(&net, &cfg);
        let full = FocusedScheme::new(ProbePlan::full(24), 3, 2).run(&net, &cfg);
        assert!(focused.round_trips * 10 < full.round_trips);
        assert!(
            focused.elapsed_ms < full.elapsed_ms / 2.0,
            "focused {} vs full {}",
            focused.elapsed_ms,
            full.elapsed_ms
        );
    }

    #[test]
    fn run_onto_accumulates_for_focused_rounds() {
        let net = network(6, 4);
        let cfg = MeasureConfig::default();
        let mut plan = ProbePlan::new(6);
        plan.add_clique(&[0, 1, 2]);
        let scheme = FocusedScheme::new(plan, 2, 2);
        let first = scheme.run(&net, &cfg);
        let second = scheme.run_onto(&net, &cfg, first.stats.clone());
        assert_eq!(second.round_trips, first.round_trips);
        assert_eq!(second.stats.total_samples(), 2 * first.stats.total_samples());
        assert_eq!(second.stats.link(0, 1).count(), 2 * first.stats.link(0, 1).count());
    }

    #[test]
    fn empty_plan_is_a_noop_round() {
        let net = network(4, 5);
        let report =
            FocusedScheme::new(ProbePlan::new(4), 2, 2).run(&net, &MeasureConfig::default());
        assert_eq!(report.round_trips, 0);
        assert_eq!(report.stats.covered_links(), 0);
    }

    /// Round trips one run of `scheme` collects barring a duration
    /// limit: `sweeps × Σ pair_ks`.
    fn planned_round_trips(scheme: &FocusedScheme) -> u64 {
        let per_sweep = scheme.plan.pairs().map(|(a, b)| scheme.pair_ks(a, b) as u64).sum::<u64>();
        scheme.sweeps as u64 * per_sweep
    }

    #[test]
    fn duration_limit_stops_sweeps() {
        let net = network(8, 6);
        let cfg = MeasureConfig { max_duration_ms: Some(5.0), ..Default::default() };
        let scheme = FocusedScheme::new(ProbePlan::full(8), 5, 1000);
        let report = scheme.run(&net, &cfg);
        assert!(report.round_trips < planned_round_trips(&scheme));
    }

    #[test]
    fn deepened_pairs_get_extra_samples() {
        let net = network(8, 7);
        let mut plan = ProbePlan::new(8);
        plan.add_clique(&[0, 1, 2, 3]);
        let mut scheme = FocusedScheme::new(plan, 2, 2);
        let base_planned = planned_round_trips(&scheme);
        scheme.deepen(&[(0, 1), (2, 3)], 5);
        assert_eq!(scheme.pair_ks(1, 0), 5, "deepening is direction-agnostic");
        assert_eq!(scheme.pair_ks(0, 2), 2);
        assert_eq!(scheme.deep_extra_round_trips(), 2 * 2 * 3);
        assert_eq!(planned_round_trips(&scheme), base_planned + scheme.deep_extra_round_trips());
        let report = scheme.run(&net, &MeasureConfig::default());
        assert_eq!(report.round_trips, planned_round_trips(&scheme));
        // Two sweeps: each direction of a deepened pair sampled once at
        // the deepened quota.
        assert_eq!(report.stats.link(0, 1).count(), 5);
        assert_eq!(report.stats.link(1, 0).count(), 5);
        assert_eq!(report.stats.link(0, 2).count(), 2);
    }

    #[test]
    fn deepen_ignores_unplanned_pairs_and_never_lowers() {
        let mut plan = ProbePlan::new(6);
        plan.add_pair(0, 1);
        let mut scheme = FocusedScheme::new(plan, 3, 2);
        scheme.deepen(&[(0, 1)], 6);
        scheme.deepen(&[(0, 1)], 4); // lower request: no effect
        scheme.deepen(&[(2, 3)], 9); // not planned: ignored
        assert_eq!(scheme.pair_ks(0, 1), 6);
        assert_eq!(scheme.pair_ks(2, 3), 3, "unplanned pair keeps the base ks");
        assert_eq!(scheme.deep_extra_round_trips(), 2 * 3);
    }
}

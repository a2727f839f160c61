//! Per-link online statistics: EWMA mean/variance plus change detection.
//!
//! Every link keeps an exponentially weighted moving average of its
//! per-epoch mean latency and an EWMA of the squared residuals (variance),
//! so the store always has a current estimate for **every link ever
//! measured** — the cross-round memory the paper's batch iteration lacks.
//! Each observation is also standardized against the pre-update baseline
//! and fed to the link's [`ChangeDetector`].

use crate::detect::{ChangeDetector, DetectorConfig, Drift};
use crate::stream::EpochMeasurement;
use cloudia_measure::{t_critical, PairwiseStats};
use cloudia_solver::candidates::PoolIndex;

/// Exponentially weighted mean/variance of a scalar stream.
#[derive(Debug, Clone, Copy)]
pub struct EwmaVar {
    alpha: f64,
    mean: f64,
    var: f64,
    count: u64,
}

impl EwmaVar {
    /// New accumulator with smoothing factor `alpha` in (0, 1]; larger
    /// alpha weights recent epochs more.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1], got {alpha}");
        Self { alpha, mean: 0.0, var: 0.0, count: 0 }
    }

    /// Adds one observation.
    pub fn observe(&mut self, x: f64) {
        if self.count == 0 {
            self.mean = x;
            self.var = 0.0;
        } else {
            let delta = x - self.mean;
            // West (1979) incremental EWMA variance.
            self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta);
            self.mean += self.alpha * delta;
        }
        self.count += 1;
    }

    /// Observations consumed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current smoothed mean (0 before any observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Current smoothed variance.
    pub fn variance(&self) -> f64 {
        self.var
    }

    /// Current smoothed standard deviation.
    pub fn sd(&self) -> f64 {
        self.var.sqrt()
    }

    /// Half-width of a two-sided `confidence` t-interval around the
    /// smoothed mean. An EWMA weights observations geometrically, so its
    /// mean carries variance `σ² · α/(2 − α)` in steady state — the
    /// standard error is `sd · sqrt(α/(2 − α))`, not `sd/√n`. Degrees of
    /// freedom come from the observation count (a conservative choice:
    /// the effective sample size `(2 − α)/α` is usually smaller, but the
    /// extra width from fewer df only makes decisions more cautious).
    /// Unbounded ([`f64::INFINITY`]) below two observations: a
    /// single-sample estimate carries no dispersion information and must
    /// never win a separation argument.
    pub fn half_width(&self, confidence: f64) -> f64 {
        if self.count < 2 {
            return f64::INFINITY;
        }
        let se = self.sd() * (self.alpha / (2.0 - self.alpha)).sqrt();
        t_critical(confidence, self.count - 1) * se
    }
}

/// Loss-rate EWMA level above which an attempted-but-sampleless link is
/// declared dark (see [`OnlineStore::observe_epoch`]). The flag clears
/// once the level decays below half this.
pub const DARK_LOSS_LEVEL: f64 = 0.5;

/// Standardizes an observation against a pre-update EWMA baseline:
/// `z = (x − μ̂)/σ̂`, with the divisor floored at
/// `max(2% of |μ̂|, 1e-6)`. The relative floor keeps early near-zero
/// variances from manufacturing huge z-scores out of sampling noise; the
/// absolute epsilon keeps the division finite when the baseline mean
/// itself sits at zero (a loss-rate stream on a clean link), where the
/// relative floor collapses and `z = x/0` would feed ±inf/NaN into the
/// detectors. Returns 0 for an unseeded baseline.
pub fn standardized_residual(x: f64, baseline: &EwmaVar) -> f64 {
    if baseline.count() == 0 {
        return 0.0;
    }
    let floor = (0.02 * baseline.mean().abs()).max(1e-6);
    (x - baseline.mean()) / baseline.sd().max(floor)
}

/// One link's online state.
#[derive(Debug, Clone)]
pub struct LinkOnline {
    /// EWMA of per-epoch means.
    pub ewma: EwmaVar,
    detector: ChangeDetector,
    /// EWMA of per-epoch loss rates (timeouts / attempts); only epochs
    /// that attempted the link contribute, so `loss.count() > 0` is "this
    /// link was ever attempted". Cumulative attempt, timeout and sample
    /// counts live in the stream's [`PairwiseStats`].
    pub loss: EwmaVar,
    /// The last epoch that contributed samples to this link (`None` until
    /// the first observation) — the staleness input of focused probing.
    /// Deliberately *not* advanced by sampleless (dark) epochs, so a dark
    /// link keeps re-entering focused plans and its recovery is noticed.
    pub last_epoch: Option<u64>,
    dark_flagged: bool,
}

impl LinkOnline {
    /// True while the link is flagged dark: its loss-rate EWMA crossed
    /// [`DARK_LOSS_LEVEL`] on an epoch with attempts but no successes,
    /// and has not yet decayed below half that level.
    pub fn is_dark(&self) -> bool {
        self.dark_flagged
    }

    /// Smoothed loss rate (0 until the link is first attempted).
    pub fn loss_rate(&self) -> f64 {
        self.loss.mean()
    }
}

/// A change detected on one link during an epoch.
#[derive(Debug, Clone, Copy)]
pub struct LinkChange {
    /// Source instance index.
    pub src: u32,
    /// Destination instance index.
    pub dst: u32,
    /// Direction of the shift.
    pub drift: Drift,
    /// The epoch mean that triggered the alarm (ms; 0 for a dark alarm —
    /// a dark epoch produces no samples to average).
    pub mean: f64,
    /// The link's EWMA mean *before* the alarming epoch was folded in
    /// (ms) — the reference level a spot check confirms the shift
    /// against.
    pub baseline: f64,
    /// True when the alarm is a *darkness* alarm (the link swallowed
    /// every probe) rather than a latency shift — the triage bit: a dark
    /// link wants its instance evacuated, a slow link wants a migration
    /// weighed on economics.
    pub dark: bool,
    /// The link's smoothed loss rate at alarm time.
    pub loss_rate: f64,
}

/// Per-link online statistics over `n` instances.
///
/// The full state of a link is its [`LinkOnline`] record. The values the
/// advisor reads for every link each epoch are also kept in three
/// contiguous row-major columns, so its per-epoch passes (search costs,
/// staleness) stream 8 bytes a link instead of walking the records:
/// the latency-EWMA mean (0 while the link is unobserved), the loss-rate
/// EWMA (0 until the link is first attempted) and the last epoch that
/// contributed samples, stored `+ 1` so that 0 marks a never-sampled
/// link and every column starts zeroed. [`OnlineStore::observe_epoch`] is
/// the one writer of these values, records and columns alike.
#[derive(Debug, Clone)]
pub struct OnlineStore {
    n: usize,
    links: Vec<LinkOnline>,
    /// `links[idx].ewma.mean()`.
    mean: Vec<f64>,
    /// `links[idx].loss_rate()`.
    loss_rate: Vec<f64>,
    /// `links[idx].last_epoch`, as `epoch + 1`, or 0 for `None`.
    sampled: Vec<u64>,
}

impl OnlineStore {
    /// Empty store for `n` instances.
    pub fn new(n: usize, alpha: f64, detector: DetectorConfig) -> Self {
        let proto = LinkOnline {
            ewma: EwmaVar::new(alpha),
            detector: ChangeDetector::new(detector),
            loss: EwmaVar::new(alpha),
            last_epoch: None,
            dark_flagged: false,
        };
        Self {
            n,
            links: vec![proto; n * n],
            mean: vec![0.0; n * n],
            loss_rate: vec![0.0; n * n],
            sampled: vec![0; n * n],
        }
    }

    /// Number of instances covered.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if sized for zero instances.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One link's online state.
    pub fn link(&self, src: usize, dst: usize) -> &LinkOnline {
        &self.links[src * self.n + dst]
    }

    /// Ingests one epoch's deltas. Every attempted link updates its
    /// loss-rate EWMA; a link whose epoch had attempts but no successes
    /// and whose smoothed loss has crossed [`DARK_LOSS_LEVEL`] raises a
    /// *dark* change (once — the flag re-arms after the loss decays).
    /// Every sampled link updates its latency EWMA and runs its change
    /// detector on the standardized residual
    /// ([`standardized_residual`]). A delta whose mean is not finite is
    /// ingested as sampleless: one bad sample must not poison the EWMA
    /// for good. Returns the links whose detectors or dark triage fired.
    pub fn observe_epoch(&mut self, m: &EpochMeasurement) -> Vec<LinkChange> {
        let mut changes = Vec::new();
        for d in &m.deltas {
            let idx = d.src as usize * self.n + d.dst as usize;
            let link = &mut self.links[idx];
            let sampleless = d.count == 0 || !d.mean.is_finite();
            if d.attempts > 0 {
                link.loss.observe(d.timeouts as f64 / d.attempts as f64);
                self.loss_rate[idx] = link.loss.mean();
                if !link.dark_flagged && d.count == 0 && link.loss.mean() > DARK_LOSS_LEVEL {
                    link.dark_flagged = true;
                    changes.push(LinkChange {
                        src: d.src,
                        dst: d.dst,
                        drift: Drift::Up,
                        mean: 0.0,
                        baseline: link.ewma.mean(),
                        dark: true,
                        loss_rate: link.loss.mean(),
                    });
                } else if link.dark_flagged && link.loss.mean() < DARK_LOSS_LEVEL / 2.0 {
                    // Recovered: successes are flowing again and the
                    // smoothed loss has decayed — re-arm the triage.
                    link.dark_flagged = false;
                }
            }
            if sampleless {
                // A sampleless delta carries no latency information:
                // leave the EWMA, detector, and staleness age untouched
                // (the link stays stale, so it keeps being re-attempted).
                continue;
            }
            // Standardize against the *pre-update* baseline.
            let baseline = if link.ewma.count() > 0 { link.ewma.mean() } else { d.mean };
            let z = standardized_residual(d.mean, &link.ewma);
            link.ewma.observe(d.mean);
            link.last_epoch = Some(m.epoch);
            self.mean[idx] = link.ewma.mean();
            self.sampled[idx] = m.epoch + 1;
            let drift = link.detector.observe(z);
            if drift != Drift::None {
                changes.push(LinkChange {
                    src: d.src,
                    dst: d.dst,
                    drift,
                    mean: d.mean,
                    baseline,
                    dark: false,
                    loss_rate: link.loss.mean(),
                });
            }
        }
        changes
    }

    /// Number of links with at least one observation.
    pub fn covered_links(&self) -> usize {
        self.links.iter().filter(|l| l.ewma.count() > 0).count()
    }

    /// The unordered instance pairs whose estimate (in either direction)
    /// is older than `max_age` epochs as of `now_epoch` — the links a
    /// focused probe plan must re-enter. A link's age is
    /// `now_epoch − last_epoch`; a never-observed link is infinitely stale
    /// (age `u64::MAX`), so before the first full sweep this is every
    /// pair. Reads the last-sampled column only.
    pub fn stale_pairs(&self, now_epoch: u64, max_age: u64) -> Vec<(u32, u32)> {
        let age = |idx: usize| match self.sampled[idx] {
            0 => u64::MAX,
            at => now_epoch.saturating_sub(at - 1),
        };
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in i + 1..self.n {
                if age(i * self.n + j) > max_age || age(j * self.n + i) > max_age {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// The latency-EWMA mean column, row-major (see [`OnlineStore`]).
    pub(crate) fn mean_column(&self) -> &[f64] {
        &self.mean
    }

    /// The loss-rate EWMA column, row-major.
    pub(crate) fn loss_rate_column(&self) -> &[f64] {
        &self.loss_rate
    }

    /// The last-sampled column, row-major: `epoch + 1`, 0 = never.
    pub(crate) fn sampled_column(&self) -> &[u64] {
        &self.sampled
    }

    /// Exports the store as partial [`PairwiseStats`]: one synthetic
    /// sample per *observed* link carrying its EWMA mean, never-observed
    /// links left empty. This is the shape
    /// [`cloudia_solver::CandidateSet::build_partial`] consumes — candidate
    /// pools from measured quantiles alone, without the worst-seen-mean
    /// fill the advisor's repair search costs give never-observed links.
    /// An export and a test oracle: the advisor's own loop keeps its plan
    /// pool in a [`PoolIndex`] instead ([`OnlineStore::sync_pool_index`]),
    /// which holds exactly this evidence without an O(m²) rebuild per
    /// plan.
    pub fn partial_stats(&self) -> PairwiseStats {
        let mut stats = PairwiseStats::new(self.n);
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    let l = self.link(i, j);
                    if l.ewma.count() > 0 {
                        stats.record(i, j, l.ewma.mean());
                    } else if l.loss.count() > 0 {
                        // Attempted but never answered (a dark link):
                        // surface the attempt so coverage-based consumers
                        // (candidate building) see "observed and dark",
                        // not "never measured" — a dark link must not be
                        // force-included into candidate pools out of
                        // caution.
                        stats.record_attempt(i, j);
                    }
                }
            }
        }
        stats
    }

    /// Brings `index` up to this store after an epoch whose deltas touched
    /// `touched` (directed links `src * n + dst`): every link carries the
    /// evidence [`OnlineStore::partial_stats`] would export for it — its
    /// EWMA mean when sampled, `+∞` when only ever attempted (dark), none
    /// otherwise — so a pool ranked off the index equals
    /// [`cloudia_solver::CandidateSet::build_partial`] over the export.
    /// Re-prices the touched links, or bulk-builds on the first call and
    /// past the touch budget of [`PoolIndex::sync_touched`].
    pub fn sync_pool_index(
        &self,
        index: &mut PoolIndex<1>,
        touched: impl ExactSizeIterator<Item = usize>,
    ) {
        index.sync_touched(self.n, touched, |src, dst| {
            let link = self.link(src, dst);
            if link.ewma.count() > 0 {
                // The export's one-sample Welford mean, `0 + (x − 0)/1`,
                // which folds −0 into +0.
                Some([link.ewma.mean() + 0.0])
            } else if link.loss.count() > 0 {
                Some([f64::INFINITY])
            } else {
                None
            }
        });
    }

    /// Half-width of the `confidence` CI around the link's smoothed
    /// mean (see [`EwmaVar::half_width`]) — [`f64::INFINITY`] until the
    /// link has two observations. The advisor's CI-gated detector path
    /// compares an alarm's `mean − baseline` shift against this: a shift
    /// inside the interval is indistinguishable from sampling noise and
    /// must not trigger redeployment economics.
    pub fn mean_half_width(&self, src: usize, dst: usize, confidence: f64) -> f64 {
        self.link(src, dst).ewma.half_width(confidence)
    }

    /// Clears a link's dark flag without waiting for the loss EWMA to
    /// decay — the advisor calls this when fresh spot probes *refute* a
    /// darkness alarm (the blackout already lifted). The triage re-arms
    /// immediately: another sampleless epoch above [`DARK_LOSS_LEVEL`]
    /// fires again.
    pub fn clear_dark(&mut self, src: usize, dst: usize) {
        self.links[src * self.n + dst].dark_flagged = false;
    }

    /// Directed links currently flagged dark.
    pub fn dark_links(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j && self.link(i, j).is_dark() {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::LinkDelta;

    fn epoch(deltas: Vec<LinkDelta>, e: u64) -> EpochMeasurement {
        EpochMeasurement {
            epoch: e,
            at_hours: e as f64,
            elapsed_ms: 1.0,
            round_trips: deltas.iter().map(|d| d.count).sum(),
            deltas,
            pruned_pairs: 0,
            saved_round_trips: 0,
        }
    }

    fn delta(src: u32, dst: u32, mean: f64) -> LinkDelta {
        LinkDelta { src, dst, mean, count: 10, attempts: 10, timeouts: 0 }
    }

    /// A fully-dark epoch delta: attempts, no successes.
    fn dark_delta(src: u32, dst: u32, attempts: u64) -> LinkDelta {
        LinkDelta { src, dst, mean: 0.0, count: 0, attempts, timeouts: attempts }
    }

    #[test]
    fn ewma_tracks_level_shifts() {
        let mut e = EwmaVar::new(0.3);
        for _ in 0..50 {
            e.observe(1.0);
        }
        assert!((e.mean() - 1.0).abs() < 1e-9);
        assert!(e.sd() < 1e-6);
        for _ in 0..50 {
            e.observe(2.0);
        }
        assert!((e.mean() - 2.0).abs() < 1e-3, "mean {}", e.mean());
    }

    #[test]
    fn ewma_half_width_is_unbounded_then_tightens() {
        let mut e = EwmaVar::new(0.3);
        assert_eq!(e.half_width(0.95), f64::INFINITY, "no observations: unbounded");
        e.observe(1.0);
        assert_eq!(e.half_width(0.95), f64::INFINITY, "one observation: unbounded");
        e.observe(1.2);
        let wide = e.half_width(0.95);
        assert!(wide.is_finite() && wide > 0.0);
        for k in 0..100 {
            e.observe(if k % 2 == 0 { 1.0 } else { 1.2 });
        }
        let narrow = e.half_width(0.95);
        assert!(narrow < wide, "interval must tighten with data: {narrow} !< {wide}");
        // A constant stream collapses the interval entirely.
        let mut c = EwmaVar::new(0.3);
        for _ in 0..20 {
            c.observe(2.0);
        }
        assert!(c.half_width(0.95) < 1e-9);
    }

    #[test]
    fn store_half_width_gates_on_observation_count() {
        let mut store = OnlineStore::new(3, 0.3, DetectorConfig::default());
        store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], 0));
        assert_eq!(store.mean_half_width(0, 1, 0.95), f64::INFINITY);
        assert_eq!(store.mean_half_width(1, 2, 0.95), f64::INFINITY, "never observed");
        for e in 1..10 {
            store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], e));
        }
        assert!(store.mean_half_width(0, 1, 0.95).is_finite());
        assert!(store.mean_half_width(0, 1, 0.99) >= store.mean_half_width(0, 1, 0.9));
    }

    #[test]
    fn store_accumulates_across_epochs() {
        let mut store = OnlineStore::new(3, 0.3, DetectorConfig::default());
        for e in 0..5 {
            store.observe_epoch(&epoch(vec![delta(0, 1, 2.0), delta(1, 0, 3.0)], e));
        }
        assert_eq!(store.covered_links(), 2);
        assert!((store.link(0, 1).ewma.mean() - 2.0).abs() < 1e-9);
        assert!((store.link(1, 0).ewma.mean() - 3.0).abs() < 1e-9);
        assert_eq!(store.link(0, 1).ewma.count(), 5);
        assert_eq!(store.link(2, 0).ewma.count(), 0);
    }

    #[test]
    fn link_ages_track_last_observation() {
        let mut store = OnlineStore::new(3, 0.3, DetectorConfig::default());
        let both = |a: u32, b: u32| vec![delta(a, b, 2.0), delta(b, a, 2.0)];
        store.observe_epoch(&epoch(both(0, 1), 0));
        store.observe_epoch(&epoch([both(0, 1), both(1, 2)].concat(), 1));
        assert_eq!(store.link(0, 1).last_epoch, Some(1));
        assert_eq!(store.link(1, 2).last_epoch, Some(1));
        assert_eq!(store.link(2, 0).last_epoch, None);
        // Age 3 is fresh under max_age 3; (0,2) was never observed at all.
        assert_eq!(store.stale_pairs(4, 3), vec![(0, 2)]);
        // Under max_age 2 every pair is stale.
        assert_eq!(store.stale_pairs(4, 2), vec![(0, 1), (0, 2), (1, 2)]);
        // A pair with only one direction observed stays stale: direction
        // ages are tracked independently.
        store.observe_epoch(&epoch(vec![delta(2, 0, 2.0)], 4));
        assert!(store.stale_pairs(5, 3).contains(&(0, 2)));
    }

    /// Staleness read off the records, as before the last-sampled column.
    fn stale_pairs_from_records(store: &OnlineStore, now: u64, max_age: u64) -> Vec<(u32, u32)> {
        let age = |i: usize, j: usize| {
            store.link(i, j).last_epoch.map_or(u64::MAX, |last| now.saturating_sub(last))
        };
        let n = store.len();
        (0..n)
            .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
            .filter(|&(i, j)| age(i, j) > max_age || age(j, i) > max_age)
            .map(|(i, j)| (i as u32, j as u32))
            .collect()
    }

    #[test]
    fn the_columns_match_the_records_after_random_deltas() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = 6;
        let mut rng = StdRng::seed_from_u64(27);
        let mut store = OnlineStore::new(n, 0.3, DetectorConfig::default());
        for e in 0..80u64 {
            let mut deltas = Vec::new();
            for (src, dst) in (0..n as u32).flat_map(|i| (0..n as u32).map(move |j| (i, j))) {
                if src == dst || rng.random::<f64>() < 0.5 {
                    continue;
                }
                let attempts = rng.random_range(1..6u64);
                deltas.push(match rng.random_range(0..5) {
                    0 => dark_delta(src, dst, attempts),
                    1 => LinkDelta { count: 0, timeouts: 0, ..delta(src, dst, 0.0) },
                    2 => LinkDelta {
                        count: 2,
                        ..delta(src, dst, [f64::NAN, f64::INFINITY][e as usize % 2])
                    },
                    _ => LinkDelta {
                        count: attempts,
                        attempts,
                        ..delta(src, dst, 1.0 + rng.random::<f64>())
                    },
                });
            }
            store.observe_epoch(&epoch(deltas, e));
            if rng.random::<f64>() < 0.2 {
                store.clear_dark(rng.random_range(0..n), rng.random_range(0..n));
            }
            for idx in 0..n * n {
                let link = &store.links[idx];
                assert_eq!(store.mean_column()[idx].to_bits(), link.ewma.mean().to_bits());
                assert_eq!(store.loss_rate_column()[idx].to_bits(), link.loss_rate().to_bits());
                assert_eq!(store.sampled_column()[idx], link.last_epoch.map_or(0, |at| at + 1));
            }
            for max_age in [0, 1, 3, u64::MAX] {
                let now = e + 1;
                assert_eq!(
                    store.stale_pairs(now, max_age),
                    stale_pairs_from_records(&store, now, max_age)
                );
            }
        }
    }

    #[test]
    fn partial_stats_export_only_observed_links() {
        let mut store = OnlineStore::new(3, 0.3, DetectorConfig::default());
        for e in 0..4 {
            store.observe_epoch(&epoch(vec![delta(0, 1, 2.0), delta(1, 0, 3.0)], e));
        }
        let stats = store.partial_stats();
        assert_eq!(stats.len(), 3);
        assert_eq!(stats.covered_links(), 2);
        assert_eq!(stats.link(0, 1).count(), 1, "one synthetic sample per observed link");
        assert!((stats.link(0, 1).mean() - store.link(0, 1).ewma.mean()).abs() < 1e-12);
        assert_eq!(stats.link(2, 0).count(), 0);
    }

    #[test]
    fn changes_carry_the_pre_alarm_baseline() {
        let cfg = DetectorConfig { warmup: 3, ..Default::default() };
        let mut store = OnlineStore::new(2, 0.2, cfg);
        let mut fired = Vec::new();
        for e in 0..30 {
            let level = if e < 15 { 1.0 } else { 1.5 };
            let noise = if e % 2 == 0 { 0.01 } else { -0.01 };
            fired.extend(store.observe_epoch(&epoch(vec![delta(0, 1, level + noise)], e)));
        }
        assert!(!fired.is_empty());
        for c in &fired {
            assert!(c.baseline < c.mean, "upward alarm baseline {} !< mean {}", c.baseline, c.mean);
            assert!(
                c.baseline > 0.9,
                "baseline {} should sit near the pre-shift level",
                c.baseline
            );
        }
    }

    #[test]
    fn step_shift_raises_a_change() {
        let cfg = DetectorConfig { warmup: 4, ..Default::default() };
        let mut store = OnlineStore::new(2, 0.2, cfg);
        let mut fired = Vec::new();
        for e in 0..40 {
            // Mild noise, then a 40% step at epoch 20.
            let noise = if e % 2 == 0 { 0.01 } else { -0.01 };
            let level = if e < 20 { 1.0 } else { 1.4 };
            fired.extend(store.observe_epoch(&epoch(vec![delta(0, 1, level + noise)], e)));
        }
        assert!(!fired.is_empty(), "step shift went undetected");
        assert!(fired.iter().all(|c| c.drift == Drift::Up));
        assert!(fired.iter().all(|c| c.src == 0 && c.dst == 1));
    }

    #[test]
    fn dark_link_raises_one_dark_change_then_rearms_after_recovery() {
        let mut store = OnlineStore::new(3, 0.3, DetectorConfig::default());
        // Healthy epochs first, then the link goes fully dark.
        for e in 0..5 {
            store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], e));
        }
        let mut dark_changes = Vec::new();
        for e in 5..12 {
            dark_changes.extend(
                store
                    .observe_epoch(&epoch(vec![dark_delta(0, 1, 4)], e))
                    .into_iter()
                    .filter(|c| c.dark),
            );
        }
        assert_eq!(dark_changes.len(), 1, "darkness must fire exactly once while flagged");
        let c = dark_changes[0];
        assert_eq!((c.src, c.dst), (0, 1));
        assert!(c.loss_rate > DARK_LOSS_LEVEL);
        assert!(c.baseline > 0.0, "baseline carries the pre-darkness latency level");
        assert!(store.link(0, 1).is_dark());
        assert_eq!(store.dark_links(), vec![(0, 1)]);
        // The latency EWMA never ingested the dark epochs.
        assert!((store.link(0, 1).ewma.mean() - 2.0).abs() < 1e-9);
        // Recovery: clean epochs decay the loss EWMA and clear the flag.
        for e in 12..30 {
            store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], e));
        }
        assert!(!store.link(0, 1).is_dark(), "flag must clear after recovery");
        assert!(store.dark_links().is_empty());
        // Re-arm: going dark again fires again.
        let mut refired = Vec::new();
        for e in 30..40 {
            refired.extend(store.observe_epoch(&epoch(vec![dark_delta(0, 1, 4)], e)));
        }
        assert!(refired.iter().any(|c| c.dark), "triage did not re-arm after recovery");
    }

    #[test]
    fn zero_variance_stream_keeps_residuals_finite_and_detectors_alive() {
        // Regression: a bit-identical stream has EWMA sd exactly 0. The
        // standardized residual must stay finite (the old relative-only
        // floor collapsed when the baseline mean was ~0), and a later
        // genuine shift must still fire.
        let mut e = EwmaVar::new(0.3);
        for _ in 0..10 {
            e.observe(0.0);
        }
        assert_eq!(e.sd(), 0.0);
        let z = standardized_residual(1.0, &e);
        assert!(z.is_finite(), "zero-mean zero-variance baseline produced z = {z}");

        let cfg = DetectorConfig { warmup: 3, ..Default::default() };
        let mut store = OnlineStore::new(2, 0.2, cfg);
        // A perfectly constant stream, then a step: no NaN may wedge the
        // detector before the step arrives.
        let mut fired = Vec::new();
        for ep in 0..40 {
            let level = if ep < 20 { 1.0 } else { 1.6 };
            fired.extend(store.observe_epoch(&epoch(vec![delta(0, 1, level)], ep)));
        }
        assert!(
            fired.iter().any(|c| c.drift == Drift::Up && !c.dark),
            "detector wedged by the zero-variance prefix"
        );
    }

    #[test]
    fn partial_stats_surface_attempted_dark_links() {
        let mut store = OnlineStore::new(3, 0.3, DetectorConfig::default());
        store.observe_epoch(&epoch(vec![delta(0, 1, 2.0), dark_delta(1, 2, 5)], 0));
        let stats = store.partial_stats();
        assert_eq!(stats.link(0, 1).count(), 1);
        assert_eq!(stats.link(1, 2).count(), 0);
        assert!(stats.link(1, 2).attempts() > 0, "dark link lost its attempted-ness");
        assert_eq!(stats.link(2, 0).attempts(), 0, "untouched link stays unattempted");
    }

    #[test]
    fn the_pool_index_holds_the_exported_evidence_bit_for_bit() {
        let n = 5;
        let mut store = OnlineStore::new(n, 0.3, DetectorConfig::default());
        let mut kept = PoolIndex::default();
        store.sync_pool_index(&mut kept, std::iter::empty());
        let epochs = [
            vec![delta(0, 1, -0.0), delta(1, 0, 0.0), dark_delta(2, 3, 4), delta(3, 4, 2.5)],
            vec![LinkDelta { count: 3, ..delta(0, 2, f64::NAN) }, delta(4, 0, -0.0)],
            vec![delta(3, 4, 1.5), delta(2, 3, 0.5), dark_delta(1, 4, 2)],
        ];
        for (e, deltas) in epochs.into_iter().enumerate() {
            let touched: Vec<usize> =
                deltas.iter().map(|d| d.src as usize * n + d.dst as usize).collect();
            store.observe_epoch(&epoch(deltas, e as u64));
            store.sync_pool_index(&mut kept, touched.into_iter());
            let mut export = PoolIndex::default();
            export.sync_means(&store.partial_stats());
            for j in 0..n {
                for q in [0.0, 0.5, 1.0] {
                    let bits =
                        |index: &PoolIndex<1>| index.scores(j, q, 0.0).map(|[s]| s.to_bits());
                    assert_eq!(bits(&kept), bits(&export), "instance {j}, quantile {q}, epoch {e}");
                }
            }
        }
    }

    #[test]
    fn a_non_finite_mean_is_ingested_as_sampleless() {
        let mut store = OnlineStore::new(2, 0.3, DetectorConfig::default());
        store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], 0));
        for (e, bad) in [(1, f64::NAN), (2, f64::INFINITY)] {
            let poisoned = LinkDelta { timeouts: 4, ..delta(0, 1, bad) };
            assert!(store.observe_epoch(&epoch(vec![poisoned], e)).is_empty());
        }
        let link = store.link(0, 1);
        assert_eq!((link.ewma.count(), link.ewma.mean()), (1, 2.0), "latency EWMA untouched");
        assert_eq!(link.last_epoch, Some(0), "staleness age untouched");
        assert_eq!(link.loss.count(), 3, "the attempts still count: the loss EWMA still learns");
        // Loss rates 0, 0.4, 0.4 folded at α = 0.3: 0 → 0.12 → 0.204.
        assert!((link.loss.mean() - 0.204).abs() < 1e-12, "loss {}", link.loss.mean());
        // The next finite sample folds in as if the bad ones never came.
        store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], 3));
        assert_eq!(store.link(0, 1).ewma.mean(), 2.0);
        // A lossy link that still returns successes is not dark, even
        // when the successes' mean is unusable.
        let mut store = OnlineStore::new(2, 0.3, DetectorConfig::default());
        for e in 0..8 {
            let lossy = LinkDelta { count: 1, timeouts: 9, ..delta(0, 1, f64::NAN) };
            assert!(store.observe_epoch(&epoch(vec![lossy], e)).is_empty());
        }
        assert!(store.link(0, 1).loss.mean() > DARK_LOSS_LEVEL);
    }

    #[test]
    fn stationary_noise_stays_quiet() {
        let mut store = OnlineStore::new(2, 0.2, DetectorConfig::default());
        let mut fired = 0usize;
        for e in 0..200 {
            // Bounded deterministic wiggle around a stable level.
            let x = 1.0 + 0.03 * ((e as f64) * 0.7).sin();
            fired += store.observe_epoch(&epoch(vec![delta(0, 1, x)], e)).len();
        }
        assert_eq!(fired, 0, "false positives under stationary wiggle");
    }
}

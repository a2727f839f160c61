//! Per-link online statistics: EWMA mean/variance plus change detection.
//!
//! Every link keeps an exponentially weighted moving average of its
//! per-epoch mean latency and an EWMA of the squared residuals (variance),
//! so the store always has a current estimate for **every link ever
//! measured** — the cross-round memory the paper's batch iteration lacks.
//! Each observation is also standardized against the pre-update baseline
//! and fed to the link's [`ChangeDetector`].
//!
//! [`OnlineStore`] is struct-of-arrays, like [`PairwiseStats`]: one
//! row-major column per per-link value, indexed `src * n + dst`, and α and
//! the [`DetectorConfig`] held once. [`OnlineStore::observe_epoch`], the
//! one writer, loads a link's [`EwmaVar`] and [`ChangeDetector`] from the
//! columns, runs their `observe` and writes the state back. [`LinkOnline`]
//! is a by-value view. A link costs 73 bytes; the advisor's per-epoch
//! passes (staleness, the dark trigger) stream only the columns they
//! need, and its repair search costs are kept from each epoch's deltas
//! (`SearchCosts`) rather than rebuilt as a dense matrix.

use crate::detect::{ChangeDetector, DetectorConfig, Drift};
use crate::stream::{EpochMeasurement, LinkDelta};
use cloudia_core::{CostError, CostMatrix};
use cloudia_measure::{t_critical, PairwiseStats};
use cloudia_netsim::loss_priced_mean;
use cloudia_solver::candidates::PoolIndex;
use cloudia_solver::{CandidateConfig, CandidateSet};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::mem::size_of_val;

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

/// One link's online state: a copyable view of its columns in an
/// [`OnlineStore`], materialised by [`OnlineStore::link`].
#[derive(Debug, Clone, Copy)]
pub struct LinkOnline {
    /// EWMA of per-epoch means.
    pub ewma: EwmaVar,
    /// EWMA of per-epoch loss rates (timeouts / attempts), over the
    /// `attempted_epochs` epochs that attempted the link (0 before the
    /// first). Cumulative attempt, timeout and sample counts live in the
    /// stream's [`PairwiseStats`].
    pub loss_rate: f64,
    /// Epochs that attempted this link.
    pub attempted_epochs: u64,
    /// The last epoch that contributed samples to this link (`None` until
    /// the first observation) — the staleness input of focused probing.
    /// Deliberately *not* advanced by sampleless (dark) epochs, so a dark
    /// link keeps re-entering focused plans and its recovery is noticed.
    pub last_epoch: Option<u64>,
    /// True while the link is flagged dark: its loss-rate EWMA crossed
    /// [`DARK_LOSS_LEVEL`] on an epoch with attempts but no successes,
    /// and has not yet decayed below half that level.
    pub dark: bool,
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

/// Per-link online statistics over `n` instances, one row-major column
/// per value (see the [module docs](self)). Never-observed links read 0
/// everywhere, so every column starts zeroed.
#[derive(Debug, Clone)]
pub struct OnlineStore {
    n: usize,
    alpha: f64,
    detector: DetectorConfig,
    // The latency EWMA: mean (0 while the link is unobserved), variance
    // and observation count.
    pub(crate) mean: Vec<f64>,
    var: Vec<f64>,
    count: Vec<u64>,
    // The loss-rate EWMA: mean (0 until the link is first attempted) and
    // observation count, the epochs that attempted the link. Nothing reads
    // the loss stream's variance, so it is not kept.
    pub(crate) loss_rate: Vec<f64>,
    pub(crate) attempted: Vec<u64>,
    /// The last epoch that contributed samples, as `epoch + 1`; 0 = never.
    pub(crate) sampled: Vec<u64>,
    // The CUSUM state (see [`ChangeDetector`]).
    cusum_seen: Vec<u64>,
    cusum_pos: Vec<f64>,
    cusum_neg: Vec<f64>,
    /// The dark flag (see [`LinkOnline::dark`]).
    pub(crate) dark: Vec<bool>,
    /// Directed links (self links aside) that never contributed a sample.
    pub(crate) unsampled: usize,
    /// Directed links (self links aside) that are not
    /// [regular](OnlineStore::regular).
    pub(crate) irregular: BTreeSet<usize>,
}

impl OnlineStore {
    /// Empty store for `n` instances.
    ///
    /// # Panics
    /// Panics if `alpha` is outside (0, 1] (see [`EwmaVar::new`]).
    pub fn new(n: usize, alpha: f64, detector: DetectorConfig) -> Self {
        EwmaVar::new(alpha);
        let links = n * n;
        Self {
            n,
            alpha,
            detector,
            mean: vec![0.0; links],
            var: vec![0.0; links],
            count: vec![0; links],
            loss_rate: vec![0.0; links],
            attempted: vec![0; links],
            sampled: vec![0; links],
            cusum_seen: vec![0; links],
            cusum_pos: vec![0.0; links],
            cusum_neg: vec![0.0; links],
            dark: vec![false; links],
            unsampled: n * n.saturating_sub(1),
            irregular: BTreeSet::new(),
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

    /// Bytes held by the columns: 73 per directed link.
    pub fn memory_bytes(&self) -> usize {
        let floats = [&self.mean, &self.var, &self.loss_rate, &self.cusum_pos, &self.cusum_neg];
        let counts = [&self.count, &self.attempted, &self.sampled, &self.cusum_seen];
        floats.map(|c| size_of_val(&c[..])).iter().sum::<usize>()
            + counts.map(|c| size_of_val(&c[..])).iter().sum::<usize>()
            + size_of_val(&self.dark[..])
    }

    /// One link's online state.
    pub fn link(&self, src: usize, dst: usize) -> LinkOnline {
        let idx = src * self.n + dst;
        LinkOnline {
            ewma: self.ewma(idx),
            loss_rate: self.loss_rate[idx],
            attempted_epochs: self.attempted[idx],
            last_epoch: self.sampled[idx].checked_sub(1),
            dark: self.dark[idx],
        }
    }

    fn ewma(&self, idx: usize) -> EwmaVar {
        let (mean, var, count) = (self.mean[idx], self.var[idx], self.count[idx]);
        EwmaVar { alpha: self.alpha, mean, var, count }
    }

    fn detector(&self, idx: usize) -> ChangeDetector {
        let (seen, pos, neg) = (self.cusum_seen[idx], self.cusum_pos[idx], self.cusum_neg[idx]);
        ChangeDetector { config: self.detector, seen, pos, neg }
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
            let sampleless = d.count == 0 || !d.mean.is_finite();
            if d.attempts > 0 {
                let (mean, count) = (self.loss_rate[idx], self.attempted[idx]);
                let mut loss = EwmaVar { alpha: self.alpha, mean, var: 0.0, count };
                loss.observe(d.timeouts as f64 / d.attempts as f64);
                (self.loss_rate[idx], self.attempted[idx]) = (loss.mean, loss.count);
                if !self.dark[idx] && d.count == 0 && loss.mean > DARK_LOSS_LEVEL {
                    self.dark[idx] = true;
                    changes.push(LinkChange {
                        src: d.src,
                        dst: d.dst,
                        drift: Drift::Up,
                        mean: 0.0,
                        baseline: self.mean[idx],
                        dark: true,
                        loss_rate: loss.mean,
                    });
                } else if self.dark[idx] && loss.mean < DARK_LOSS_LEVEL / 2.0 {
                    // Recovered: successes are flowing again and the
                    // smoothed loss has decayed — re-arm the triage.
                    self.dark[idx] = false;
                }
            }
            // A sampleless delta carries no latency information: it leaves
            // the EWMA, detector, and staleness age untouched (the link
            // stays stale, so it keeps being re-attempted).
            if !sampleless {
                // Standardize against the *pre-update* baseline.
                let mut ewma = self.ewma(idx);
                let baseline = if ewma.count > 0 { ewma.mean } else { d.mean };
                let z = standardized_residual(d.mean, &ewma);
                ewma.observe(d.mean);
                (self.mean[idx], self.var[idx], self.count[idx]) =
                    (ewma.mean, ewma.var, ewma.count);
                if self.sampled[idx] == 0 && d.src != d.dst {
                    self.unsampled -= 1;
                }
                self.sampled[idx] = m.epoch + 1;
                let mut detector = self.detector(idx);
                let drift = detector.observe(z);
                (self.cusum_seen[idx], self.cusum_pos[idx], self.cusum_neg[idx]) =
                    (detector.seen, detector.pos, detector.neg);
                if drift != Drift::None {
                    changes.push(LinkChange {
                        src: d.src,
                        dst: d.dst,
                        drift,
                        mean: d.mean,
                        baseline,
                        dark: false,
                        loss_rate: self.loss_rate[idx],
                    });
                }
            }
            if d.src == d.dst {
                continue;
            }
            if !self.regular(idx) {
                self.irregular.insert(idx);
            } else if !self.irregular.is_empty() {
                self.irregular.remove(&idx);
            }
        }
        changes
    }

    /// Whether link `idx`'s search cost is valid (≥ 0, not NaN; see
    /// `SearchCosts`) whatever the other links' estimates: its mean is ≥ 0
    /// — a never-sampled link is priced at the worst-seen mean, ≥ 0 — and
    /// its loss rate is at most 1. Every loss rate is ≥ 0 (an EWMA of
    /// timeout fractions), so the success probability `(1 − p)(1 − p′)`
    /// is then at most 1, and the loss surcharge finite and ≥ 0 under a
    /// finite timeout ≥ 0.
    fn regular(&self, idx: usize) -> bool {
        (self.sampled[idx] == 0 || self.mean[idx] >= 0.0)
            && (0.0..=1.0).contains(&self.loss_rate[idx])
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
            for j in (0..self.n).filter(|&j| j != i) {
                let idx = i * self.n + j;
                if self.count[idx] > 0 {
                    stats.record(i, j, self.mean[idx]);
                } else if self.attempted[idx] > 0 {
                    // Attempted but never answered (a dark link): surface
                    // the attempt so coverage-based consumers (candidate
                    // building) see "observed and dark", not "never
                    // measured" — a dark link must not be force-included
                    // into candidate pools out of caution.
                    stats.record_attempt(i, j);
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
            let idx = src * self.n + dst;
            if self.count[idx] > 0 {
                // The export's one-sample Welford mean, `0 + (x − 0)/1`,
                // which folds −0 into +0.
                Some([self.mean[idx] + 0.0])
            } else if self.attempted[idx] > 0 {
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
        self.ewma(src * self.n + dst).half_width(confidence)
    }

    /// Clears a link's dark flag without waiting for the loss EWMA to
    /// decay — the advisor calls this when fresh spot probes *refute* a
    /// darkness alarm (the blackout already lifted). The triage re-arms
    /// immediately: another sampleless epoch above [`DARK_LOSS_LEVEL`]
    /// fires again.
    pub fn clear_dark(&mut self, src: usize, dst: usize) {
        self.dark[src * self.n + dst] = false;
    }
}

/// How the advisor prices a link for its repair search: its EWMA mean
/// (the worst-seen mean for a never-sampled link), loss-priced as expected
/// completion time ([`loss_priced_mean`]) when the advisor is loss-aware.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pricing {
    /// Price the loss EWMAs in.
    pub(crate) loss_aware: bool,
    /// Sender timeout of the loss pricing (ms).
    pub(crate) timeout_ms: f64,
}

impl Pricing {
    /// Link `i → j`'s search cost, reading the worst-seen mean from
    /// `worst` (filled on first use) only for a never-sampled link.
    fn cost(self, store: &OnlineStore, worst: &OnceCell<f64>, i: usize, j: usize) -> f64 {
        let (n, idx) = (store.n, i * store.n + j);
        let base = match store.sampled[idx] {
            0 => *worst.get_or_init(|| worst_seen_mean(store)),
            _ => store.mean[idx],
        };
        if !self.loss_aware {
            return base;
        }
        let loss = &store.loss_rate;
        loss_priced_mean(base, loss[idx], loss[j * n + i], self.timeout_ms)
    }
}

/// The largest mean over every sampled link, folded in row-major order
/// from 0 (a NaN mean never wins).
fn worst_seen_mean(store: &OnlineStore) -> f64 {
    let n = store.n;
    let mut worst = 0.0f64;
    for i in 0..n {
        for idx in (i * n..(i + 1) * n).filter(|&idx| idx != i * n + i) {
            if store.sampled[idx] != 0 {
                worst = worst.max(store.mean[idx]);
            }
        }
    }
    worst
}

/// The repair's search costs over an [`OnlineStore`], kept from each
/// epoch's deltas instead of filled as a dense m×m matrix every epoch
/// (the [`Pricing`] rule). A quiet epoch reads only the deployment's
/// links; a repair ranks its pool off a kept index and prices only the
/// pool's links. Everything that spans every link stays exact:
///
/// - validity: the cost plane rejects a NaN or negative cost, reporting
///   the first in row-major order. Only a link that is not
///   [regular](OnlineStore::regular) can have such a cost: the store
///   lists the irregular links in row-major order as it ingests, and a
///   read checks them.
/// - the worst-seen mean: one fold over the mean column, on the first read
///   after an ingest — on an epoch that prices a never-sampled link.
#[derive(Debug)]
pub(crate) struct SearchCosts {
    pricing: Pricing,
    /// The worst-seen mean as of the last ingest, once read.
    worst: OnceCell<f64>,
    /// The repair pool's evidence: every directed link at its search
    /// cost, so an instance's score is the median of all its incident
    /// costs, as [`CandidateSet::build`] ranks the dense matrix. Built on
    /// the first read of a pool smaller than every instance.
    index: PoolIndex<1>,
    /// Links whose cost moved since `index` last synced, while re-pricing
    /// them is cheaper than a bulk build ([`PoolIndex::reprice_budget`]).
    touched: Option<Vec<usize>>,
    /// The worst-seen mean `index` prices never-sampled links at (bits).
    index_worst: u64,
    /// A superset of the never-sampled links, listed when the worst-seen
    /// mean first moves under the index and trimmed on each later move: a
    /// link never returns to never-sampled.
    never: Option<Vec<usize>>,
}

impl SearchCosts {
    /// Search costs over an empty store under `pricing`.
    pub(crate) fn new(pricing: Pricing) -> Self {
        Self {
            pricing,
            worst: OnceCell::new(),
            index: PoolIndex::default(),
            touched: Some(Vec::new()),
            index_worst: 0,
            never: None,
        }
    }

    /// Brings the costs up to `store` after it ingested `deltas`.
    pub(crate) fn ingest(&mut self, store: &OnlineStore, deltas: &[LinkDelta]) {
        self.worst = OnceCell::new();
        let n = store.n;
        if let Some(touched) = &mut self.touched {
            if touched.len() + 2 * deltas.len() > PoolIndex::<1>::reprice_budget(n) {
                self.touched = None;
            } else {
                // A delta moves its link's mean and loss EWMA: both
                // directions' costs read the loss.
                let links = deltas.iter().filter(|d| d.src != d.dst);
                let links = links.map(|d| (d.src as usize, d.dst as usize));
                touched.extend(links.flat_map(|(i, j)| [i * n + j, j * n + i]));
            }
        }
    }

    /// The error the cost plane reports on the full matrix, if any.
    pub(crate) fn held(&self, store: &OnlineStore) -> Result<(), CostError> {
        let n = store.n;
        for (i, j) in store.irregular.iter().map(|&idx| (idx / n, idx % n)) {
            let value = self.pricing.cost(store, &self.worst, i, j);
            if value.is_nan() || value < 0.0 {
                return Err(CostError::Value { i, j, value });
            }
        }
        Ok(())
    }

    /// The costs among `instances`: entry `(a, b)` is the cost of link
    /// `instances[a] → instances[b]`.
    ///
    /// # Panics
    /// Panics on an epoch [`SearchCosts::held`] rejects.
    pub(crate) fn matrix(&self, store: &OnlineStore, instances: &[u32]) -> CostMatrix {
        let mut b = CostMatrix::builder(instances.len());
        for (a, &i) in instances.iter().enumerate() {
            for (c, &j) in instances.iter().enumerate().filter(|&(c, _)| c != a) {
                b.set(a, c, self.pricing.cost(store, &self.worst, i as usize, j as usize));
            }
        }
        b.freeze().expect("only a held epoch has costs the plane rejects")
    }

    /// The repair pool ranked off the kept index, synced first from the
    /// links touched since the last read: the pool [`CandidateSet::build`]
    /// ranks over the dense matrix of these costs with `incumbent`. A
    /// pool of every instance ranks nothing, so it leaves the index as
    /// it is.
    pub(crate) fn pool(
        &mut self,
        store: &OnlineStore,
        num_nodes: usize,
        config: &CandidateConfig,
        incumbent: &[u32],
    ) -> CandidateSet {
        let n = store.n;
        if config.pool_size(num_nodes, n) >= n {
            return CandidateSet::every_instance(num_nodes, n, incumbent);
        }
        let (index, worst) = (&mut self.index, &self.worst);
        let built = index.rebuilds();
        let mut touched = self.touched.take();
        if store.unsampled > 0 {
            // Every never-sampled link's cost moves with the worst-seen mean.
            let bits = worst.get_or_init(|| worst_seen_mean(store)).to_bits();
            if bits != std::mem::replace(&mut self.index_worst, bits) {
                if let Some(list) = &mut touched {
                    let never = self.never.get_or_insert_with(|| {
                        let links = (0..n * n).filter(|&idx| idx / n != idx % n);
                        links.filter(|&idx| store.sampled[idx] == 0).collect()
                    });
                    never.retain(|&idx| store.sampled[idx] == 0);
                    list.extend_from_slice(never);
                }
            }
        }
        let pricing = self.pricing;
        let price = |i: usize, j: usize| Some([pricing.cost(store, worst, i, j)]);
        match touched {
            Some(mut list) => {
                index.sync_touched(n, list.drain(..), price);
                self.touched = Some(list);
            }
            None => {
                index.rebuild(n, price);
                self.touched = Some(Vec::new());
            }
        }
        cloudia_obs::counter("online.cost_index_rebuilds", index.rebuilds() - built);
        CandidateSet::from_index(num_nodes, index, config, Some(incumbent), None, 0.0)
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
        let covered = (0..9).filter(|&idx| store.link(idx / 3, idx % 3).ewma.count() > 0).count();
        assert_eq!(covered, 2);
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

    /// One link as standalone values: the store's per-link model.
    #[derive(Debug, Clone)]
    struct ModelLink {
        ewma: EwmaVar,
        detector: ChangeDetector,
        loss: EwmaVar,
        last_epoch: Option<u64>,
        dark: bool,
    }

    /// The store's contract, one link at a time: `observe_epoch` on a
    /// map of standalone `EwmaVar`/`ChangeDetector` values.
    fn model_epoch(links: &mut [ModelLink], n: usize, m: &EpochMeasurement) -> Vec<LinkChange> {
        let mut changes = Vec::new();
        for d in &m.deltas {
            let link = &mut links[d.src as usize * n + d.dst as usize];
            if d.attempts > 0 {
                link.loss.observe(d.timeouts as f64 / d.attempts as f64);
                let loss_rate = link.loss.mean();
                if !link.dark && d.count == 0 && loss_rate > DARK_LOSS_LEVEL {
                    link.dark = true;
                    let baseline = link.ewma.mean();
                    let (src, dst, drift) = (d.src, d.dst, Drift::Up);
                    changes.push(LinkChange {
                        src,
                        dst,
                        drift,
                        mean: 0.0,
                        baseline,
                        dark: true,
                        loss_rate,
                    });
                } else if link.dark && loss_rate < DARK_LOSS_LEVEL / 2.0 {
                    link.dark = false;
                }
            }
            if d.count == 0 || !d.mean.is_finite() {
                continue;
            }
            let baseline = if link.ewma.count() > 0 { link.ewma.mean() } else { d.mean };
            let z = standardized_residual(d.mean, &link.ewma);
            link.ewma.observe(d.mean);
            link.last_epoch = Some(m.epoch);
            let drift = link.detector.observe(z);
            if drift != Drift::None {
                let (src, dst, mean, loss_rate) = (d.src, d.dst, d.mean, link.loss.mean());
                changes.push(LinkChange {
                    src,
                    dst,
                    drift,
                    mean,
                    baseline,
                    dark: false,
                    loss_rate,
                });
            }
        }
        changes
    }

    fn ewma_bits(e: &EwmaVar) -> [u64; 4] {
        [e.alpha.to_bits(), e.mean.to_bits(), e.var.to_bits(), e.count]
    }

    fn change_bits(c: &LinkChange) -> (u32, u32, Drift, [u64; 3], bool) {
        let bits = [c.mean.to_bits(), c.baseline.to_bits(), c.loss_rate.to_bits()];
        (c.src, c.dst, c.drift, bits, c.dark)
    }

    #[test]
    fn the_store_matches_a_per_link_model_under_random_deltas() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let (n, alpha) = (6, 0.3);
        let cfg = DetectorConfig { warmup: 2, threshold: 3.0 };
        let mut rng = StdRng::seed_from_u64(27);
        let mut store = OnlineStore::new(n, alpha, cfg);
        let fresh = ModelLink {
            ewma: EwmaVar::new(alpha),
            detector: ChangeDetector::new(cfg),
            loss: EwmaVar::new(alpha),
            last_epoch: None,
            dark: false,
        };
        let mut model = vec![fresh; n * n];
        let (mut fired, mut darkened) = (0, 0);
        for e in 0..120u64 {
            let mut deltas = Vec::new();
            for (src, dst) in (0..n as u32).flat_map(|i| (0..n as u32).map(move |j| (i, j))) {
                if src == dst || rng.random::<f64>() < 0.5 {
                    continue;
                }
                let attempts = rng.random_range(1..6u64);
                // A level shift at epoch 60 gives the detectors work.
                let level = if e < 60 { 1.0 } else { 3.0 };
                deltas.push(match rng.random_range(0..6) {
                    0 => dark_delta(src, dst, attempts),
                    1 => LinkDelta { count: 0, timeouts: 0, ..delta(src, dst, 0.0) },
                    2 => LinkDelta {
                        count: 2,
                        ..delta(src, dst, [f64::NAN, f64::INFINITY][e as usize % 2])
                    },
                    3 if e % 7 == 0 => delta(src, dst, -rng.random::<f64>()),
                    _ => LinkDelta {
                        count: attempts,
                        attempts,
                        ..delta(src, dst, level + rng.random::<f64>())
                    },
                });
            }
            let m = epoch(deltas, e);
            let got = store.observe_epoch(&m);
            let want = model_epoch(&mut model, n, &m);
            assert_eq!(
                got.iter().map(change_bits).collect::<Vec<_>>(),
                want.iter().map(change_bits).collect::<Vec<_>>(),
                "epoch {e}"
            );
            fired += got.iter().filter(|c| !c.dark).count();
            darkened += got.iter().filter(|c| c.dark).count();
            if rng.random::<f64>() < 0.2 {
                let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
                store.clear_dark(src, dst);
                model[src * n + dst].dark = false;
            }
            for (idx, want) in model.iter().enumerate() {
                let got = store.link(idx / n, idx % n);
                assert_eq!(ewma_bits(&got.ewma), ewma_bits(&want.ewma), "link {idx}");
                let cusum = |d: &ChangeDetector| (d.seen, d.pos.to_bits(), d.neg.to_bits());
                assert_eq!(cusum(&store.detector(idx)), cusum(&want.detector), "link {idx}");
                assert_eq!(got.loss_rate.to_bits(), want.loss.mean().to_bits(), "link {idx}");
                assert_eq!(got.attempted_epochs, want.loss.count(), "link {idx}");
                assert_eq!((got.last_epoch, got.dark), (want.last_epoch, want.dark), "link {idx}");
            }
            for max_age in [0, 1, 3, u64::MAX] {
                let now = e + 1;
                let age = |idx: usize| {
                    model[idx].last_epoch.map_or(u64::MAX, |last| now.saturating_sub(last))
                };
                let stale: Vec<(u32, u32)> = (0..n)
                    .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
                    .filter(|&(i, j)| age(i * n + j) > max_age || age(j * n + i) > max_age)
                    .map(|(i, j)| (i as u32, j as u32))
                    .collect();
                assert_eq!(store.stale_pairs(now, max_age), stale, "epoch {e}, max age {max_age}");
            }
        }
        assert!(fired > 0 && darkened > 0, "the run must exercise both alarms");
    }

    #[test]
    fn a_link_costs_at_most_88_bytes() {
        for n in [0, 1, 7, 300] {
            let store = OnlineStore::new(n, 0.3, DetectorConfig::default());
            assert!(store.memory_bytes() <= 88 * n * n, "{} B at n = {n}", store.memory_bytes());
        }
        assert_eq!(OnlineStore::new(10, 0.3, DetectorConfig::default()).memory_bytes(), 7300);
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
        let dark = |store: &OnlineStore| {
            let links = (0..3).flat_map(|i| (0..3).map(move |j| (i, j)));
            links.filter(|&(i, j)| store.link(i, j).dark).collect::<Vec<_>>()
        };
        assert_eq!(dark(&store), vec![(0, 1)]);
        // The latency EWMA never ingested the dark epochs.
        assert!((store.link(0, 1).ewma.mean() - 2.0).abs() < 1e-9);
        // Recovery: clean epochs decay the loss EWMA and clear the flag.
        for e in 12..30 {
            store.observe_epoch(&epoch(vec![delta(0, 1, 2.0)], e));
        }
        assert!(dark(&store).is_empty(), "flag must clear after recovery");
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
        assert_eq!(
            link.attempted_epochs, 3,
            "the attempts still count: the loss EWMA still learns"
        );
        // Loss rates 0, 0.4, 0.4 folded at α = 0.3: 0 → 0.12 → 0.204.
        assert!((link.loss_rate - 0.204).abs() < 1e-12, "loss {}", link.loss_rate);
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
        assert!(store.link(0, 1).loss_rate > DARK_LOSS_LEVEL);
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

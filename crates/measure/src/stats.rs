//! Online per-link statistics: mean, variance, and tail quantiles.
//!
//! A measurement run produces millions of probe samples; storing them all
//! would dwarf the latency matrices themselves. Each link therefore keeps a
//! compact online summary: Welford's algorithm for mean/variance and a P²
//! estimator (Jain & Chlamtac, CACM 1985) for the 99th percentile — the
//! three latency metrics the paper studies in §3.2/§6.4 (mean, mean+SD,
//! p99) all come out of one pass.
//!
//! ## Columnar layout
//!
//! [`PairwiseStats`] is struct-of-arrays: one flat column per statistic
//! (count/mean/M2/attempts/timeouts), indexed `src * n + dst`, plus a P²
//! sketch side table allocated lazily only for links that ever record a
//! sample. An empty link costs 44 bytes (five 8-byte columns plus a 4-byte
//! sketch slot) instead of the ~200 of the old array-of-`LinkEstimate`
//! layout, the hot score/matrix loops stream over contiguous slices, and
//! the zero-initialised columns stay in untouched (lazily mapped) pages
//! until a link is actually probed — at m = 10k the plane budgets ~4.4 GB
//! logical instead of ~20 GB resident. [`LinkEstimate`] survives as a
//! lightweight copyable view so per-link callers don't churn.
//!
//! The pre-refactor array-of-structs implementation is retained verbatim
//! in [`aos`] as a differential-test oracle and bench baseline.
//!
//! ## Adaptive sketch spilling
//!
//! The Welford columns are dense and cheap; the P² sketches are the
//! expensive part of a covered link (176 bytes each). Links often go
//! quiet mid-run — pruned pairs, converged candidates, cold corners of a
//! focused plan — so the store keeps a per-sketch last-seen tick and
//! [`PairwiseStats::spill_quiet`] drops sketches idle past a horizon,
//! recycling their slots through a free list (the side table stops
//! growing once the working set stabilises). A spilled link's Welford
//! columns are untouched — mean/SD/CI answers are exact forever — and
//! its p99 falls back to the mean+SD proxy until a fresh sample
//! re-allocates a sketch. [`PairwiseStats::resident_bytes`] reports the
//! materialised footprint (touched column pages + live sketch table)
//! that spilling actually bounds; `memory_bytes` stays the logical
//! capacity view.
//!
//! ## Touch log
//!
//! Readers that maintain state derived from the columns (the solver's
//! pool index) do not rescan them: [`PairwiseStats::record_link`] — the one
//! write into the columns — appends the index of the link it changes, once
//! per call, to a bounded, append-only log, and a reader holding a
//! [`TouchCursor`] asks [`PairwiseStats::touched_since`] for exactly the
//! links that moved since its last look. The log keeps only its last
//! [`TOUCH_LOG_PER_INSTANCE`]` · n` entries — a few stages' worth — and
//! answers `None`, "rebuild from the columns", to a cursor that fell off
//! that tail or that was taken on another history: a `Clone` starts a new
//! lineage (the clone and its source diverge from there), a move keeps it.

use cloudia_netsim::cost::{CostError, CostMatrix};

use crate::ci::{t_critical, LinkCi};

// The Welford and P² sketches moved to `cloudia-obs` (the telemetry
// plane reuses them for histogram snapshots); re-exported here so the
// measurement plane's original users keep their import paths.
pub use cloudia_obs::{P2Quantile, Welford};

/// Copyable read-only view of one directed link's online summary,
/// materialised from the columnar [`PairwiseStats`] store on access.
#[derive(Debug, Clone, Copy)]
pub struct LinkEstimate<'a> {
    count: u64,
    mean: f64,
    m2: f64,
    attempts: u64,
    timeouts: u64,
    p99: Option<&'a P2Quantile>,
}

impl LinkEstimate<'_> {
    /// Probes issued on this link (0 for schemes predating loss
    /// awareness or synthetic stats that only called `record`).
    pub fn attempts(&self) -> u64 {
        self.attempts
    }

    /// Probes that timed out on this link.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Observed loss rate, `timeouts / attempts` (0 without attempts).
    pub fn loss_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.timeouts as f64 / self.attempts as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean RTT estimate.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// RTT standard deviation estimate.
    pub fn sd(&self) -> f64 {
        Welford::from_parts(self.count, self.mean, self.m2).sd()
    }

    /// Mean plus one standard deviation (paper's "Mean+SD" metric).
    pub fn mean_plus_sd(&self) -> f64 {
        self.mean() + self.sd()
    }

    /// 99th-percentile estimate (paper's "99%" metric); 0 before the
    /// first sample, like an empty sketch. A covered link whose sketch
    /// was spilled ([`PairwiseStats::spill_quiet`]) reports the mean+SD
    /// proxy until a fresh sample re-allocates its sketch.
    pub fn p99(&self) -> f64 {
        match self.p99 {
            Some(sketch) => sketch.value(),
            None if self.count > 0 => self.mean_plus_sd(),
            None => 0.0,
        }
    }
}

/// Touch-log entries retained per instance: the log holds the last
/// `TOUCH_LOG_PER_INSTANCE · n` touched link indices. A stage of an
/// endpoint-disjoint schedule touches at most `n / 2` links, so a reader
/// that looks once per stage stays on the tail with room to spare, while
/// the log stays O(n) however long the sweep runs.
pub const TOUCH_LOG_PER_INSTANCE: usize = 4;

/// Source of touch-log lineage ids, one per [`PairwiseStats`] history.
static NEXT_LINEAGE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A reader's position in one [`PairwiseStats`] history's touch log —
/// see [`PairwiseStats::touch_cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TouchCursor {
    lineage: u64,
    at: u64,
}

/// The bounded tail of link indices `record_link` changed, in order.
#[derive(Debug)]
struct TouchLog {
    /// Identifies this history; cursors of another lineage are rejected.
    lineage: u64,
    /// Entry `p` (counted from the start of the history) lives at
    /// `p % cap` while `head - p <= cap`. Allocated on first touch.
    ring: Vec<usize>,
    cap: usize,
    /// Entries appended over the whole history.
    head: u64,
}

impl TouchLog {
    /// An empty log of a new lineage holding at most `cap` entries.
    fn with_capacity(cap: usize) -> Self {
        // Relaxed: the id is only ever compared for equality.
        let lineage = NEXT_LINEAGE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Self { lineage, ring: Vec::new(), cap, head: 0 }
    }

    #[inline]
    fn push(&mut self, idx: usize) {
        if self.ring.len() < self.cap {
            if self.ring.is_empty() {
                self.ring.reserve_exact(self.cap);
            }
            self.ring.push(idx);
        } else {
            self.ring[(self.head % self.cap as u64) as usize] = idx;
        }
        self.head += 1;
    }
}

/// A clone diverges from its source, so it starts a history of its own:
/// a fresh lineage and an empty log. Every cursor taken on the source is
/// thereby invalid on the clone (and the other way round).
impl Clone for TouchLog {
    fn clone(&self) -> Self {
        Self::with_capacity(self.cap)
    }
}

/// Links per 4 KB page of an 8-byte column — the granularity of the
/// touched-page ledger behind [`PairwiseStats::resident_bytes`].
const LINKS_PER_PAGE: usize = 512;

/// Pairwise link summaries for `n` instances (diagonal unused), stored
/// as flat per-statistic columns indexed `src * n + dst`.
#[derive(Debug, Clone)]
pub struct PairwiseStats {
    n: usize,
    count: Vec<u64>,
    mean: Vec<f64>,
    m2: Vec<f64>,
    attempts: Vec<u64>,
    timeouts: Vec<u64>,
    /// `slot + 1` into `sketches`, 0 = no sketch (never sampled, or
    /// spilled). The +1 bias keeps the column all-zeroes at
    /// construction, so the allocator's lazily mapped pages stay
    /// untouched until a link records.
    sketch_slot: Vec<u32>,
    /// Lazily allocated P² p99 sketches, one per link that recorded a
    /// sample since its last spill.
    sketches: Vec<P2Quantile>,
    /// Link index that owns each sketch slot (`u64::MAX` = freed by
    /// spilling, awaiting reuse through `free_slots`).
    sketch_link: Vec<u64>,
    /// Quiet-time tick at which each slot last recorded a sample.
    sketch_seen: Vec<u64>,
    /// Spilled slots available for reuse, LIFO.
    free_slots: Vec<u32>,
    /// Quiet-time clock for spilling, advanced by `advance_tick` (one
    /// tick per measurement stage when driven by `StageDriver`).
    tick: u64,
    /// Bitmap over [`LINKS_PER_PAGE`]-link column pages: a set bit means
    /// some link in that page was probed or sampled, i.e. its column
    /// pages are materialised. Feeds `resident_bytes`.
    touched_pages: Vec<u64>,
    touched_page_count: usize,
    // Running aggregates, maintained on record so the totals below are
    // O(1) instead of an O(n²) column scan per call.
    samples_total: u64,
    attempts_total: u64,
    timeouts_total: u64,
    covered: usize,
    touch_log: TouchLog,
}

impl PairwiseStats {
    /// Creates empty statistics for `n` instances.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            count: vec![0; n * n],
            mean: vec![0.0; n * n],
            m2: vec![0.0; n * n],
            attempts: vec![0; n * n],
            timeouts: vec![0; n * n],
            sketch_slot: vec![0; n * n],
            sketches: Vec::new(),
            sketch_link: Vec::new(),
            sketch_seen: Vec::new(),
            free_slots: Vec::new(),
            tick: 0,
            touched_pages: vec![0; (n * n).div_ceil(LINKS_PER_PAGE).div_ceil(64)],
            touched_page_count: 0,
            samples_total: 0,
            attempts_total: 0,
            timeouts_total: 0,
            covered: 0,
            touch_log: TouchLog::with_capacity(TOUCH_LOG_PER_INSTANCE * n),
        }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if tracking zero instances.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    #[inline]
    fn idx(&self, src: usize, dst: usize) -> usize {
        debug_assert_ne!(src, dst);
        src * self.n + dst
    }

    /// Marks the column page holding `idx` as materialised.
    #[inline]
    fn touch_page(&mut self, idx: usize) {
        let page = idx / LINKS_PER_PAGE;
        let mask = 1u64 << (page % 64);
        let word = &mut self.touched_pages[page / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.touched_page_count += 1;
        }
    }

    /// Allocates (or reuses, via the spill free list) a sketch slot for
    /// `idx`, records its ownership and last-seen tick, and writes the
    /// `+1`-biased id into the slot column. Returns the unbiased slot.
    fn alloc_sketch(&mut self, idx: usize) -> usize {
        let slot = if let Some(free) = self.free_slots.pop() {
            let slot = free as usize;
            self.sketches[slot] = P2Quantile::new(0.99);
            slot
        } else {
            self.sketches.push(P2Quantile::new(0.99));
            self.sketch_link.push(0);
            self.sketch_seen.push(0);
            self.sketches.len() - 1
        };
        self.sketch_link[slot] = idx as u64;
        self.sketch_seen[slot] = self.tick;
        self.sketch_slot[idx] =
            u32::try_from(slot + 1).expect("more than u32::MAX - 1 covered links");
        slot
    }

    /// The one write into the columns: adds `attempts` issued probes,
    /// `timeouts` timed-out probes and the completed round trips `rtts`
    /// (in completion order) to the directed link `src → dst`. Every other
    /// mutator is a call into this one. All-empty arguments are a no-op
    /// (in particular the link is neither marked attempted nor logged);
    /// otherwise the link gets exactly one touch-log entry however many
    /// samples `rtts` carries.
    ///
    /// # Panics
    /// Panics if `src` or `dst` is out of range or `src == dst`, with the
    /// statistics unchanged.
    pub fn record_link(
        &mut self,
        src: usize,
        dst: usize,
        attempts: u64,
        timeouts: u64,
        rtts: &[f64],
    ) {
        let n = self.n;
        assert!(src < n && dst < n && src != dst, "bad link {src}→{dst}");
        if attempts == 0 && timeouts == 0 && rtts.is_empty() {
            return;
        }
        let idx = src * n + dst;
        self.touch_page(idx);
        self.touch_log.push(idx);
        self.attempts[idx] += attempts;
        self.timeouts[idx] += timeouts;
        self.attempts_total += attempts;
        self.timeouts_total += timeouts;
        if rtts.is_empty() {
            return;
        }
        if self.count[idx] == 0 {
            self.covered += 1;
        }
        self.samples_total += rtts.len() as u64;
        let slot = match self.sketch_slot[idx] {
            0 => self.alloc_sketch(idx),
            s => s as usize - 1,
        };
        self.sketch_seen[slot] = self.tick;
        let sketch = &mut self.sketches[slot];
        // Same update arithmetic as the struct form, bit for bit.
        let mut w = Welford::from_parts(self.count[idx], self.mean[idx], self.m2[idx]);
        for &rtt in rtts {
            w.record(rtt);
            sketch.record(rtt);
        }
        (self.count[idx], self.mean[idx], self.m2[idx]) = w.parts();
    }

    /// Records one RTT observation for the directed link `src → dst`
    /// (raw indices).
    pub fn record(&mut self, src: usize, dst: usize, rtt: f64) {
        self.record_link(src, dst, 0, 0, &[rtt]);
    }

    /// Counts one probe issued on the directed link `src → dst`.
    pub fn record_attempt(&mut self, src: usize, dst: usize) {
        self.record_link(src, dst, 1, 0, &[]);
    }

    /// Counts one timed-out probe on the directed link `src → dst`.
    pub fn record_timeout(&mut self, src: usize, dst: usize) {
        self.record_link(src, dst, 0, 1, &[]);
    }

    /// Current quiet-time tick (the stage counter spilling ages against).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Advances the quiet-time clock by one tick. Drivers call this once
    /// per completed stage so sketch idleness is measured in stages.
    pub fn advance_tick(&mut self) {
        self.tick += 1;
    }

    /// The current end of this history's touch log: hand it back to
    /// [`PairwiseStats::touched_since`] later to learn which links
    /// changed in between.
    pub fn touch_cursor(&self) -> TouchCursor {
        TouchCursor { lineage: self.touch_log.lineage, at: self.touch_log.head }
    }

    /// The link indices (`src * n + dst`, oldest first, repeats
    /// included) whose count/mean/M2/attempt/timeout cells changed since
    /// `cursor` was taken — or `None` when that cannot be answered and
    /// the reader must rebuild from the columns: the cursor belongs to
    /// another history (a different store, or the other side of a
    /// `clone`), or more than [`TOUCH_LOG_PER_INSTANCE`]` · n` touches
    /// have been logged since and the oldest fell off the tail.
    pub fn touched_since(&self, cursor: TouchCursor) -> Option<impl Iterator<Item = usize> + '_> {
        let log = &self.touch_log;
        let cap = log.cap as u64;
        // Within one lineage `head` only grows, so `at <= head`.
        if cursor.lineage != log.lineage || log.head - cursor.at > cap {
            return None;
        }
        Some((cursor.at..log.head).map(move |p| log.ring[(p % cap) as usize]))
    }

    /// Spills every P² sketch whose link has not recorded a sample for
    /// at least `horizon` ticks (clamped to ≥ 1, so a sketch touched
    /// this tick never spills), returning the number spilled. Spilled
    /// slots go on a free list for reuse, which is what bounds the
    /// sketch table: it stops growing once the per-tick working set
    /// stabilises, instead of accumulating one 176-byte sketch per link
    /// ever covered. The Welford columns are untouched — mean/SD/CI
    /// answers stay exact — and only the link's p99 degrades, to the
    /// mean+SD proxy, until a fresh sample re-allocates a sketch.
    pub fn spill_quiet(&mut self, horizon: u64) -> usize {
        let horizon = horizon.max(1);
        let mut spilled = 0;
        for slot in 0..self.sketches.len() {
            let link = self.sketch_link[slot];
            if link == u64::MAX {
                continue; // already on the free list
            }
            if self.tick.saturating_sub(self.sketch_seen[slot]) >= horizon {
                self.sketch_slot[link as usize] = 0;
                self.sketch_link[slot] = u64::MAX;
                self.free_slots.push(slot as u32);
                spilled += 1;
            }
        }
        spilled
    }

    /// Number of live (unspilled) P² sketches.
    pub fn live_sketches(&self) -> usize {
        self.sketches.len() - self.free_slots.len()
    }

    /// Total probes issued across all links.
    pub fn total_attempts(&self) -> u64 {
        debug_assert_eq!(self.attempts_total, self.attempts.iter().sum::<u64>());
        self.attempts_total
    }

    /// Total timed-out probes across all links.
    pub fn total_timeouts(&self) -> u64 {
        debug_assert_eq!(self.timeouts_total, self.timeouts.iter().sum::<u64>());
        self.timeouts_total
    }

    /// The summary of one directed link, as a copyable view.
    pub fn link(&self, src: usize, dst: usize) -> LinkEstimate<'_> {
        let idx = src * self.n + dst;
        let slot = self.sketch_slot[idx];
        LinkEstimate {
            count: self.count[idx],
            mean: self.mean[idx],
            m2: self.m2[idx],
            attempts: self.attempts[idx],
            timeouts: self.timeouts[idx],
            p99: (slot != 0).then(|| &self.sketches[slot as usize - 1]),
        }
    }

    /// Total number of recorded samples.
    pub fn total_samples(&self) -> u64 {
        debug_assert_eq!(self.samples_total, self.count.iter().sum::<u64>());
        self.samples_total
    }

    /// Number of off-diagonal links with at least one sample.
    pub fn covered_links(&self) -> usize {
        debug_assert_eq!(self.covered, self.count.iter().filter(|&&c| c > 0).count());
        self.covered
    }

    /// The per-link sample-count column, indexed `src * n + dst`
    /// (diagonal entries always 0).
    pub fn count_column(&self) -> &[u64] {
        &self.count
    }

    /// The per-link mean-RTT column, indexed `src * n + dst`.
    pub fn mean_column(&self) -> &[f64] {
        &self.mean
    }

    /// The per-link probe-attempt column, indexed `src * n + dst`.
    pub fn attempts_column(&self) -> &[u64] {
        &self.attempts
    }

    /// Bytes of heap + inline memory held by this store (capacity
    /// accounting, i.e. the logical footprint; zero-filled pages the OS
    /// has not materialised count too). The `ext_scale` smoke gate
    /// asserts this stays within budget at m = 10k.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.count.capacity() * size_of::<u64>()
            + self.mean.capacity() * size_of::<f64>()
            + self.m2.capacity() * size_of::<f64>()
            + self.attempts.capacity() * size_of::<u64>()
            + self.timeouts.capacity() * size_of::<u64>()
            + self.sketch_slot.capacity() * size_of::<u32>()
            + self.sketches.capacity() * size_of::<P2Quantile>()
            + self.sketch_link.capacity() * size_of::<u64>()
            + self.sketch_seen.capacity() * size_of::<u64>()
            + self.free_slots.capacity() * size_of::<u32>()
            + self.touched_pages.capacity() * size_of::<u64>()
            + self.touch_log.ring.capacity() * size_of::<usize>()
    }

    /// Estimated bytes actually *materialised* by this store: column
    /// pages holding at least one touched link (five 8-byte columns — a
    /// full 4 KB page each — plus half a page for the 4-byte sketch-slot
    /// column) plus the sketch side tables. Untouched links cost nothing
    /// because the zero-filled columns stay in lazily-mapped pages, so
    /// this — unlike the capacity view of
    /// [`PairwiseStats::memory_bytes`] — is the footprint that sketch
    /// spilling bounds: the `ext_scale` m = 20k arm asserts it stays
    /// under 5 GB with spilling on.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        let page = 4096;
        size_of::<Self>()
            + self.touched_page_count * (5 * page + page / 2)
            + self.sketches.len() * size_of::<P2Quantile>()
            + self.sketch_link.len() * size_of::<u64>()
            + self.sketch_seen.len() * size_of::<u64>()
            + self.free_slots.capacity() * size_of::<u32>()
            + self.touched_pages.capacity() * size_of::<u64>()
            + self.touch_log.ring.len() * size_of::<usize>()
    }

    /// Flattened vector of mean estimates over all ordered pairs (i ≠ j),
    /// in row-major order — the "latency vector" of paper §6.2.
    pub fn mean_vector(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n * self.n.saturating_sub(1));
        for i in 0..self.n {
            let row = &self.mean[i * self.n..(i + 1) * self.n];
            for (j, &v) in row.iter().enumerate() {
                if j != i {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Matrix of mean estimates (diagonal 0), streamed straight from the
    /// mean column into the shared flat [`CostMatrix`] arena.
    ///
    /// Unmeasured links never price as free: a link probed but never
    /// answered (`attempts > 0`, `count == 0`) prices as `+∞` — the same
    /// dark-link rule `build_partial` applies — and a link never even
    /// attempted surfaces as [`CostError::Unmeasured`] instead of a
    /// silent `0.0` the solver would actively prefer. Full-sweep callers
    /// (every link covered) are unaffected. Also errors if any estimate
    /// is NaN or negative (corrupt measurement data).
    pub fn mean_matrix(&self) -> Result<CostMatrix, CostError> {
        self.matrix_from(|idx| self.mean[idx])
    }

    /// Matrix of mean+SD estimates (diagonal 0).
    pub fn mean_plus_sd_matrix(&self) -> Result<CostMatrix, CostError> {
        self.matrix_from(|idx| {
            self.mean[idx] + Welford::from_parts(self.count[idx], self.mean[idx], self.m2[idx]).sd()
        })
    }

    /// Matrix of p99 estimates (diagonal 0). A covered link whose sketch
    /// was spilled prices as the mean+SD proxy, never a free `0.0`.
    pub fn p99_matrix(&self) -> Result<CostMatrix, CostError> {
        self.matrix_from(|idx| {
            let slot = self.sketch_slot[idx];
            if slot == 0 {
                // Only reachable for a covered link whose sketch was
                // spilled: matrix_from consults us only when count > 0.
                self.mean[idx]
                    + Welford::from_parts(self.count[idx], self.mean[idx], self.m2[idx]).sd()
            } else {
                self.sketches[slot as usize - 1].value()
            }
        })
    }

    /// The t-interval confidence bound on the mean of the directed link
    /// `src → dst`, built from the Welford columns with censored-data
    /// widening from the probe ledger. Fewer than two samples yield an
    /// unbounded interval — see [`LinkCi`].
    pub fn ci(&self, src: usize, dst: usize, confidence: f64) -> LinkCi {
        self.ci_with_critical(src, dst, confidence, |df| t_critical(confidence, df))
    }

    /// [`PairwiseStats::ci`] with the Student-t critical value supplied by
    /// `critical(df)` (see [`LinkCi::with_critical`]): the same interval,
    /// for a caller that keeps the values of its one level at hand.
    pub fn ci_with_critical(
        &self,
        src: usize,
        dst: usize,
        confidence: f64,
        critical: impl FnOnce(u64) -> f64,
    ) -> LinkCi {
        let idx = self.idx(src, dst);
        LinkCi::with_critical(
            self.count[idx],
            self.mean[idx],
            self.m2[idx],
            self.attempts[idx],
            self.timeouts[idx],
            confidence,
            critical,
        )
    }

    /// Builds a cost matrix by streaming a per-link-index function over
    /// the columns row by row — no `LinkEstimate` view per cell. The
    /// estimate function is only consulted for links with at least one
    /// sample; unmeasured links take the dark-link price (`+∞`) when
    /// probed and error out when never attempted.
    fn matrix_from(&self, f: impl Fn(usize) -> f64) -> Result<CostMatrix, CostError> {
        let mut b = CostMatrix::builder(self.n);
        for i in 0..self.n {
            let row = i * self.n;
            for j in 0..self.n {
                if i != j {
                    let idx = row + j;
                    let cost = if self.count[idx] > 0 {
                        f(idx)
                    } else if self.attempts[idx] > 0 {
                        f64::INFINITY
                    } else {
                        return Err(CostError::Unmeasured { i, j });
                    };
                    b.set(i, j, cost);
                }
            }
        }
        b.freeze()
    }
}

/// The pre-refactor array-of-structs stats plane, retained as the
/// differential-test oracle for the columnar [`PairwiseStats`] and as the
/// bench baseline `ext_scale` races `build_partial` against. Not for
/// production use: an empty link costs ~200 bytes here.
#[doc(hidden)]
pub mod aos {
    use super::{P2Quantile, Welford};

    /// Full online summary of one directed link (owning form).
    #[derive(Debug, Clone)]
    pub struct LinkEstimate {
        welford: Welford,
        p99: P2Quantile,
        attempts: u64,
        timeouts: u64,
    }

    impl Default for LinkEstimate {
        fn default() -> Self {
            Self { welford: Welford::new(), p99: P2Quantile::new(0.99), attempts: 0, timeouts: 0 }
        }
    }

    impl LinkEstimate {
        /// Adds one RTT observation.
        pub fn record(&mut self, rtt: f64) {
            self.welford.record(rtt);
            self.p99.record(rtt);
        }

        /// Counts one probe issued on this link.
        pub fn record_attempt(&mut self) {
            self.attempts += 1;
        }

        /// Counts one probe that timed out on this link.
        pub fn record_timeout(&mut self) {
            self.timeouts += 1;
        }

        /// Probes issued on this link.
        pub fn attempts(&self) -> u64 {
            self.attempts
        }

        /// Probes that timed out on this link.
        pub fn timeouts(&self) -> u64 {
            self.timeouts
        }

        /// Number of observations.
        pub fn count(&self) -> u64 {
            self.welford.count()
        }

        /// Mean RTT estimate.
        pub fn mean(&self) -> f64 {
            self.welford.mean()
        }

        /// RTT standard deviation estimate.
        pub fn sd(&self) -> f64 {
            self.welford.sd()
        }

        /// Mean plus one standard deviation.
        pub fn mean_plus_sd(&self) -> f64 {
            self.mean() + self.sd()
        }

        /// 99th-percentile estimate.
        pub fn p99(&self) -> f64 {
            self.p99.value()
        }
    }

    /// Array-of-structs pairwise summaries (oracle form).
    #[derive(Debug, Clone)]
    pub struct PairwiseStats {
        n: usize,
        links: Vec<LinkEstimate>,
    }

    impl PairwiseStats {
        /// Creates empty statistics for `n` instances.
        pub fn new(n: usize) -> Self {
            Self { n, links: vec![LinkEstimate::default(); n * n] }
        }

        /// Number of instances.
        #[allow(clippy::len_without_is_empty)]
        pub fn len(&self) -> usize {
            self.n
        }

        /// Records one RTT observation for `src → dst`.
        pub fn record(&mut self, src: usize, dst: usize, rtt: f64) {
            debug_assert_ne!(src, dst);
            self.links[src * self.n + dst].record(rtt);
        }

        /// Counts one probe issued on `src → dst`.
        pub fn record_attempt(&mut self, src: usize, dst: usize) {
            debug_assert_ne!(src, dst);
            self.links[src * self.n + dst].record_attempt();
        }

        /// Counts one timed-out probe on `src → dst`.
        pub fn record_timeout(&mut self, src: usize, dst: usize) {
            debug_assert_ne!(src, dst);
            self.links[src * self.n + dst].record_timeout();
        }

        /// The summary of one directed link.
        pub fn link(&self, src: usize, dst: usize) -> &LinkEstimate {
            &self.links[src * self.n + dst]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn welford_matches_naive() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.record(x);
        }
        let mean = xs.iter().sum::<f64>() / 5.0;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 4.0;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn welford_variance_is_bessel_corrected() {
        let mut w = Welford::new();
        w.record(1.0);
        w.record(3.0);
        // Sample variance of {1, 3} is 2, not the population 1.
        assert!((w.variance() - 2.0).abs() < 1e-12);
        assert!((w.sd() - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn welford_empty_and_single() {
        let mut w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        w.record(3.5);
        assert_eq!(w.mean(), 3.5);
        assert_eq!(w.variance(), 0.0);
    }

    #[test]
    fn p2_tracks_uniform_p99() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut q = P2Quantile::new(0.99);
        for _ in 0..100_000 {
            q.record(rng.random::<f64>());
        }
        assert!((q.value() - 0.99).abs() < 0.01, "p99 {}", q.value());
    }

    #[test]
    fn p2_tracks_median_of_normal() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut q = P2Quantile::new(0.5);
        for _ in 0..100_000 {
            q.record(5.0 + cloudia_netsim::dist::standard_normal(&mut rng));
        }
        assert!((q.value() - 5.0).abs() < 0.05, "median {}", q.value());
    }

    #[test]
    fn p2_exact_for_few_samples() {
        let mut q = P2Quantile::new(0.99);
        q.record(3.0);
        q.record(1.0);
        assert_eq!(q.value(), 3.0);
        let mut qm = P2Quantile::new(0.5);
        for x in [5.0, 1.0, 3.0] {
            qm.record(x);
        }
        assert_eq!(qm.value(), 3.0);
    }

    #[test]
    fn p2_against_exact_on_lognormal() {
        // Compare against the exact empirical quantile on a skewed
        // distribution — the realistic shape of RTT samples.
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = P2Quantile::new(0.99);
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            let x = (0.3 * cloudia_netsim::dist::standard_normal(&mut rng)).exp();
            q.record(x);
            xs.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let exact = xs[(0.99 * xs.len() as f64) as usize];
        assert!((q.value() - exact).abs() / exact < 0.05, "p2 {} exact {exact}", q.value());
    }

    #[test]
    fn p2_small_count_path_matches_sorted_ground_truth() {
        // Property check over the exact path (count <= 5): for every
        // count 1..=5 and q in {0.01, 0.5, 0.99}, the estimate equals
        // the ceil(count·q)-th order statistic of the sorted samples.
        let mut rng = StdRng::seed_from_u64(17);
        for _case in 0..200 {
            for count in 1..=5usize {
                let xs: Vec<f64> = (0..count).map(|_| rng.random::<f64>() * 10.0).collect();
                for q in [0.01, 0.5, 0.99] {
                    let mut p2 = P2Quantile::new(q);
                    for &x in &xs {
                        p2.record(x);
                    }
                    let mut sorted = xs.clone();
                    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let idx = ((count as f64 * q).ceil() as usize).clamp(1, count) - 1;
                    assert_eq!(p2.value(), sorted[idx], "count {count} q {q} samples {xs:?}");
                    assert_eq!(p2.count(), count);
                }
            }
        }
    }

    #[test]
    fn p2_marker_path_agrees_with_exact_at_larger_counts() {
        // Just past the exact/marker boundary the estimator must stay
        // within tolerance of the true quantile.
        let mut rng = StdRng::seed_from_u64(23);
        for q in [0.5, 0.99] {
            let mut p2 = P2Quantile::new(q);
            let mut xs = Vec::new();
            for _ in 0..5000 {
                let x = rng.random::<f64>();
                p2.record(x);
                xs.push(x);
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact = xs[((xs.len() as f64 * q) as usize).min(xs.len() - 1)];
            assert!(
                (p2.value() - exact).abs() < 0.05,
                "q {q}: marker {} vs exact {exact}",
                p2.value()
            );
        }
    }

    #[test]
    fn attempts_and_timeouts_track_loss() {
        let mut s = PairwiseStats::new(3);
        s.record_attempt(0, 1);
        s.record_attempt(0, 1);
        s.record_timeout(0, 1);
        s.record(0, 1, 2.0);
        assert_eq!(s.link(0, 1).attempts(), 2);
        assert_eq!(s.link(0, 1).timeouts(), 1);
        assert_eq!(s.link(0, 1).loss_rate(), 0.5);
        assert_eq!(s.link(1, 0).loss_rate(), 0.0);
        assert_eq!(s.total_attempts(), 2);
        assert_eq!(s.total_timeouts(), 1);
        // A fully dark link is attempted but never covered.
        s.record_attempt(1, 2);
        s.record_timeout(1, 2);
        assert_eq!(s.attempts_column().iter().filter(|&&a| a > 0).count(), 2);
        assert_eq!(s.covered_links(), 1);
    }

    #[test]
    fn link_estimate_combines_metrics() {
        let mut s = PairwiseStats::new(2);
        for i in 0..1000 {
            s.record(0, 1, if i % 100 == 0 { 10.0 } else { 1.0 });
        }
        let l = s.link(0, 1);
        assert!(l.mean() > 1.0 && l.mean() < 1.2);
        assert!(l.mean_plus_sd() > l.mean());
        assert!(l.p99() >= 1.0);
        assert_eq!(l.count(), 1000);
    }

    #[test]
    fn pairwise_records_directed() {
        let mut s = PairwiseStats::new(3);
        s.record(0, 1, 2.0);
        s.record(0, 1, 4.0);
        s.record(1, 0, 10.0);
        assert_eq!(s.link(0, 1).mean(), 3.0);
        assert_eq!(s.link(1, 0).mean(), 10.0);
        assert_eq!(s.link(2, 0).count(), 0);
        assert_eq!(s.total_samples(), 3);
        assert_eq!(s.covered_links(), 2);
    }

    #[test]
    fn mean_vector_is_row_major_off_diagonal() {
        let mut s = PairwiseStats::new(3);
        for (i, j, v) in
            [(0, 1, 1.0), (0, 2, 2.0), (1, 0, 3.0), (1, 2, 4.0), (2, 0, 5.0), (2, 1, 6.0)]
        {
            s.record(i, j, v);
        }
        assert_eq!(s.mean_vector(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let m = s.mean_matrix().unwrap();
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(2, 1), 6.0);
    }

    #[test]
    fn unmeasured_links_never_price_cheaper_than_measured_ones() {
        // Focused/partial stats: links (0,1) and (1,0) measured, link
        // (0,2)/(2,0) probed but dark, everything else never attempted.
        let mut s = PairwiseStats::new(3);
        s.record(0, 1, 7.5);
        s.record(0, 1, 8.5);
        s.record(1, 0, 9.0);
        s.record_attempt(0, 2);
        s.record_timeout(0, 2);
        s.record_attempt(2, 0);
        s.record_timeout(2, 0);
        // A never-attempted link is an error, not a silent 0.0.
        assert!(matches!(s.mean_matrix(), Err(CostError::Unmeasured { i: 1, j: 2 })));
        // Complete the probe ledger: every remaining link attempted-dark.
        s.record_attempt(1, 2);
        s.record_attempt(2, 1);
        let m = s.mean_matrix().unwrap();
        let cheapest_measured = m.get(0, 1).min(m.get(1, 0));
        for (i, j) in [(0, 2), (2, 0), (1, 2), (2, 1)] {
            assert_eq!(m.get(i, j), f64::INFINITY);
            assert!(m.get(i, j) > cheapest_measured, "unmeasured ({i},{j}) priced cheaper");
        }
        // Same rule under the other metrics.
        assert_eq!(s.mean_plus_sd_matrix().unwrap().get(0, 2), f64::INFINITY);
        assert_eq!(s.p99_matrix().unwrap().get(2, 1), f64::INFINITY);
    }

    #[test]
    fn ci_accessor_matches_columns() {
        let mut s = PairwiseStats::new(3);
        for x in [4.0, 5.0, 6.0, 5.0, 4.5, 5.5] {
            s.record(0, 1, x);
            s.record_attempt(0, 1);
        }
        s.record(1, 0, 3.0);
        let ci = s.ci(0, 1, 0.95);
        assert_eq!(ci.count(), 6);
        assert!(ci.bounded());
        assert!(ci.covers(5.0));
        assert!(ci.lower() > 0.0 && ci.upper() < 50.0);
        // One sample: unbounded, per the count < 2 rule.
        assert!(!s.ci(1, 0, 0.95).bounded());
        // Unprobed: unbounded with zero mean.
        assert!(!s.ci(2, 1, 0.95).bounded());
        // The interval is the one the Welford and probe columns give.
        let (c, mean, m2, a, t) = (s.count[1], s.mean[1], s.m2[1], s.attempts[1], s.timeouts[1]);
        assert_eq!(ci, crate::ci::LinkCi::from_parts(c, mean, m2, a, t, 0.95));
    }

    #[test]
    fn empty_link_view_reads_like_an_empty_estimate() {
        let s = PairwiseStats::new(4);
        let l = s.link(2, 3);
        assert_eq!(l.count(), 0);
        assert_eq!(l.mean(), 0.0);
        assert_eq!(l.sd(), 0.0);
        assert_eq!(l.p99(), 0.0);
        assert_eq!(l.attempts(), 0);
        assert_eq!(l.loss_rate(), 0.0);
        // No sketch has been allocated for any link yet.
        assert_eq!(s.sketches.len(), 0);
    }

    #[test]
    fn sketches_allocate_lazily_per_covered_link() {
        let mut s = PairwiseStats::new(10);
        assert_eq!(s.sketches.len(), 0);
        s.record(0, 1, 1.0);
        s.record(0, 1, 2.0);
        s.record(3, 4, 5.0);
        // One sketch per covered link, not per sample or per link slot.
        assert_eq!(s.sketches.len(), 2);
        assert_eq!(s.covered_links(), 2);
        // Attempts alone never allocate a sketch.
        s.record_attempt(5, 6);
        s.record_timeout(5, 6);
        assert_eq!(s.sketches.len(), 2);
    }

    #[test]
    fn running_counters_match_a_full_scan() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 12;
        let mut s = PairwiseStats::new(n);
        for _ in 0..2000 {
            let i = rng.random_range(0..n);
            let j = (i + 1 + rng.random_range(0..n - 1)) % n;
            match rng.random_range(0..3u32) {
                0 => s.record(i, j, rng.random::<f64>() * 10.0),
                1 => s.record_attempt(i, j),
                _ => s.record_timeout(i, j),
            }
        }
        // The getters carry debug assertions against the scan; cross-check
        // explicitly so the release profile is covered too.
        assert_eq!(s.total_samples(), s.count.iter().sum::<u64>());
        assert_eq!(s.total_attempts(), s.attempts.iter().sum::<u64>());
        assert_eq!(s.total_timeouts(), s.timeouts.iter().sum::<u64>());
        assert_eq!(s.covered_links(), s.count.iter().filter(|&&c| c > 0).count());
    }

    // `record(0, n, x)` used to land in link 1→0's cells in release builds.
    #[test]
    #[should_panic(expected = "bad link 0→4")]
    fn record_rejects_an_out_of_range_destination() {
        PairwiseStats::new(4).record(0, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "bad link 2→2")]
    fn record_attempt_rejects_the_diagonal() {
        PairwiseStats::new(4).record_attempt(2, 2);
    }

    #[test]
    #[should_panic(expected = "bad link 4→0")]
    fn record_link_rejects_an_out_of_range_source() {
        PairwiseStats::new(4).record_link(4, 0, 1, 0, &[1.0]);
    }

    #[test]
    fn record_link_matches_serial_replay() {
        let n = 8;
        let mut rng = StdRng::seed_from_u64(42);
        let mut serial = PairwiseStats::new(n);
        let mut merged = PairwiseStats::new(n);
        for src in 0..n {
            for dst in 0..n {
                if src == dst || rng.random::<f64>() < 0.3 {
                    continue;
                }
                let attempts = rng.random_range(0..6u64);
                let timeouts = rng.random_range(0..=attempts.min(2));
                let rtts: Vec<f64> =
                    (0..rng.random_range(0..20usize)).map(|_| rng.random::<f64>() * 10.0).collect();
                // Serial oracle replays in the per-link order `record_link`
                // promises: attempts, timeouts, samples.
                for _ in 0..attempts {
                    serial.record_attempt(src, dst);
                }
                for _ in 0..timeouts {
                    serial.record_timeout(src, dst);
                }
                for &r in &rtts {
                    serial.record(src, dst, r);
                }
                merged.record_link(src, dst, attempts, timeouts, &rtts);
            }
        }
        // Every column bit-for-bit, plus the running aggregates
        // (whose getters debug-assert against a full column scan).
        assert_eq!(merged.count, serial.count);
        assert_eq!(merged.attempts, serial.attempts);
        assert_eq!(merged.timeouts, serial.timeouts);
        for idx in 0..n * n {
            assert_eq!(merged.mean[idx].to_bits(), serial.mean[idx].to_bits());
            assert_eq!(merged.m2[idx].to_bits(), serial.m2[idx].to_bits());
        }
        assert_eq!(merged.total_samples(), serial.total_samples());
        assert_eq!(merged.total_attempts(), serial.total_attempts());
        assert_eq!(merged.total_timeouts(), serial.total_timeouts());
        assert_eq!(merged.covered_links(), serial.covered_links());
        for src in 0..n {
            for dst in 0..n {
                if src != dst {
                    assert_eq!(
                        merged.link(src, dst).p99().to_bits(),
                        serial.link(src, dst).p99().to_bits(),
                        "p99 {src}→{dst}"
                    );
                }
            }
        }
    }

    fn touched(s: &PairwiseStats, cursor: TouchCursor) -> Option<Vec<usize>> {
        s.touched_since(cursor).map(Iterator::collect)
    }

    #[test]
    fn touch_log_reports_the_links_every_mutator_changed_since_the_cursor() {
        let mut s = PairwiseStats::new(4);
        let c0 = s.touch_cursor();
        s.record(0, 1, 1.0);
        s.record_link(2, 3, 2, 0, &[]);
        s.record_link(2, 3, 0, 1, &[]);
        s.record_link(1, 0, 0, 0, &[]); // all-empty changes nothing, logs nothing
        let c1 = s.touch_cursor();
        s.record_link(0, 2, 0, 0, &[]); // all-empty changes nothing, logs nothing
        s.record_link(1, 2, 1, 0, &[]);
        s.record_link(3, 0, 1, 0, &[2.0, 3.0]);
        // One entry per call, whatever it carried.
        assert_eq!(touched(&s, c0).unwrap(), [1, 11, 11, 6, 12]);
        assert_eq!(touched(&s, c1).unwrap(), [6, 12]);
        assert_eq!(touched(&s, s.touch_cursor()).unwrap(), []);
    }

    #[test]
    fn touch_log_is_bounded_and_rejects_overrun_or_foreign_cursors() {
        let n = 5;
        let cap = TOUCH_LOG_PER_INSTANCE * n;
        let mut s = PairwiseStats::new(n);
        let start = s.touch_cursor();
        for i in 0..cap {
            s.record(0, 1 + i % 4, 1.0);
        }
        assert_eq!(touched(&s, start).unwrap().len(), cap, "the whole tail is still on the log");
        let mid = s.touch_cursor();
        s.record(1, 0, 1.0);
        assert!(touched(&s, start).is_none(), "the oldest entry fell off: rebuild");
        assert_eq!(touched(&s, mid).unwrap(), [n]);
        // O(n) entries however long the history grows.
        let bytes = s.memory_bytes();
        for _ in 0..10 * cap {
            s.record(1, 0, 1.0);
        }
        assert_eq!(s.memory_bytes(), bytes);
        // A clone starts a history of its own; a move keeps the old one.
        let cursor = s.touch_cursor();
        let clone = s.clone();
        assert!(touched(&clone, cursor).is_none());
        assert!(touched(&s, clone.touch_cursor()).is_none());
        assert!(touched(&PairwiseStats::new(n), cursor).is_none());
        let moved = s;
        assert_eq!(touched(&moved, cursor).unwrap(), []);
    }

    #[test]
    fn spilling_frees_slots_and_preserves_welford_columns() {
        let mut s = PairwiseStats::new(6);
        for i in 0..200 {
            s.record(0, 1, 1.0 + (i % 7) as f64);
        }
        s.record(2, 3, 5.0);
        let mean_before = s.link(0, 1).mean();
        let count_before = s.link(0, 1).count();
        assert_eq!(s.live_sketches(), 2);
        s.advance_tick();
        // Horizon 2: one tick of quiet is not old enough yet.
        assert_eq!(s.spill_quiet(2), 0);
        s.advance_tick();
        assert_eq!(s.spill_quiet(2), 2);
        assert_eq!(s.live_sketches(), 0);
        // Welford answers unchanged; p99 degrades to the mean+SD proxy.
        assert_eq!(s.link(0, 1).mean(), mean_before);
        assert_eq!(s.link(0, 1).count(), count_before);
        assert_eq!(s.link(0, 1).p99(), s.link(0, 1).mean_plus_sd());
        assert!(s.link(0, 1).p99() > 0.0);
        let m = s.p99_matrix();
        // (0,1) is covered, so the matrix prices it as the proxy — the
        // other links were never attempted, hence the Unmeasured error.
        assert!(m.is_err());
        // A fresh sample re-allocates through the free list: the table
        // does not grow, and the new sketch starts from scratch.
        let table = s.sketches.len();
        s.record(0, 1, 3.0);
        assert_eq!(s.sketches.len(), table);
        assert_eq!(s.live_sketches(), 1);
        assert_eq!(s.link(0, 1).p99(), 3.0);
        assert_eq!(s.link(0, 1).count(), count_before + 1);
    }

    #[test]
    fn resident_bytes_counts_touched_pages_not_capacity() {
        let mut s = PairwiseStats::new(64);
        let empty = s.resident_bytes();
        assert!(empty < 4096, "empty plane should be near-free, got {empty}");
        // The logical view is the full columns regardless.
        assert!(s.memory_bytes() >= 64 * 64 * 44);
        s.record(0, 1, 1.0);
        let one = s.resident_bytes();
        assert!(one >= empty + 5 * 4096 + 2048, "first touch materialises the page");
        // A second link in the same 512-link page costs only its sketch.
        s.record(0, 2, 1.0);
        assert!(s.resident_bytes() - one < 1024);
    }

    #[test]
    fn memory_accounting_stays_within_the_per_link_budget() {
        let n = 64;
        let s = PairwiseStats::new(n);
        // 5 × 8-byte columns + the 4-byte sketch slot = 44 bytes per link.
        let per_link = 44;
        assert!(s.memory_bytes() >= n * n * per_link);
        assert!(s.memory_bytes() < n * n * per_link + 512, "unexpected overhead");
        // The old AoS layout pays ~4x more for the same empty plane.
        let aos_per_link = std::mem::size_of::<aos::LinkEstimate>();
        assert!(aos_per_link > 3 * per_link, "aos link is {aos_per_link} bytes");
    }
}

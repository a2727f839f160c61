//! # cloudia-obs — workspace-wide telemetry plane
//!
//! The paper's argument is quantitative — probe budgets, tournament
//! costs, time-averaged deployment cost — so the reproduction needs a
//! machine-readable account of what every plane spent and where. This
//! crate is that account, in three layers:
//!
//! * a **[`MetricsRegistry`]** of named counters, gauges, and
//!   fixed-bucket [`Histogram`]s whose p50/p99 come from the same
//!   [`P2Quantile`]/[`Welford`] sketches the measurement plane uses for
//!   per-link RTTs (they live here now; `cloudia-measure` re-exports);
//! * **span tracing**: [`span!`] guards record wall time + attributes
//!   for hot paths (measurement sweep runs, portfolio workers, advisor
//!   steps)
//!   into a bounded global ring;
//! * a **[`RunRecorder`]** that streams events, epoch summaries,
//!   metrics snapshots, and spans as schema-versioned JSONL
//!   ([`TRACE_SCHEMA`]), validated by [`parse_trace`].
//!
//! ## Cost discipline
//!
//! Telemetry is always-on but must stay out of inner loops: hot code
//! accumulates plain local counters and flushes deltas to the global
//! registry at a coarse grain. Everything global is additionally
//! guarded twice — a runtime switch ([`set_enabled`], the CLI's
//! `--no-metrics`) and the `telemetry` cargo feature, without which
//! [`enabled`] is `const false` and the optimizer deletes every global
//! operation. The explicit types (registries, recorders, the [`Json`]
//! plane) work regardless of the feature; only the *global* plumbing
//! compiles out.
//!
//! This crate is deliberately dependency-free: it sits at the root of
//! the workspace graph, next to `cloudia-cost`, so every other crate
//! can instrument through it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod json;
mod metrics;
mod record;
mod ring;
mod sketch;
mod span;

pub use json::{Json, JsonError};
pub use metrics::{Histogram, MetricValue, MetricsRegistry, BUCKET_BOUNDS};
pub use record::{parse_trace, RunRecorder, TraceError, TraceRecord, TRACE_KINDS, TRACE_SCHEMA};
pub use ring::RingLog;
pub use sketch::{P2Quantile, Welford};
pub use span::{AttrValue, SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// Default capacity of the global span ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

struct Telemetry {
    registry: MetricsRegistry,
    spans: Mutex<RingLog<SpanRecord>>,
}

fn telemetry() -> &'static Telemetry {
    static TELEMETRY: OnceLock<Telemetry> = OnceLock::new();
    TELEMETRY.get_or_init(|| Telemetry {
        registry: MetricsRegistry::new(),
        spans: Mutex::new(RingLog::new(DEFAULT_SPAN_CAPACITY)),
    })
}

static ENABLED: AtomicBool = AtomicBool::new(true);

/// True if global telemetry is live. Without the `telemetry` feature
/// this is `const false`, so callers' instrumentation folds away.
#[cfg(feature = "telemetry")]
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// True if global telemetry is live. Without the `telemetry` feature
/// this is `const false`, so callers' instrumentation folds away.
#[cfg(not(feature = "telemetry"))]
#[inline]
pub const fn enabled() -> bool {
    false
}

/// Turns global telemetry on or off at runtime (the CLI's
/// `--no-metrics`). A no-op without the `telemetry` feature.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The global metrics registry (created on first use).
pub fn metrics() -> &'static MetricsRegistry {
    &telemetry().registry
}

/// Adds `delta` to a global counter (no-op while disabled).
#[inline]
pub fn counter(name: &str, delta: u64) {
    if enabled() && delta > 0 {
        metrics().counter_add(name, delta);
    }
}

/// Adds several global counter deltas under one registry lock (no-op
/// while disabled; zero deltas are skipped). This is the flush half of
/// the local-accumulation convention — hot loops tally plain integers
/// and hand the batch here once.
#[inline]
pub fn counters(entries: &[(&str, u64)]) {
    if enabled() && entries.iter().any(|&(_, d)| d > 0) {
        metrics().counter_add_many(entries);
    }
}

/// Sets a global gauge (no-op while disabled).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if enabled() {
        metrics().gauge_set(name, value);
    }
}

/// Records into a global histogram (no-op while disabled).
#[inline]
pub fn observe(name: &str, x: f64) {
    if enabled() {
        metrics().observe(name, x);
    }
}

/// Records a batch into a global histogram under one registry lock
/// (no-op while disabled or empty) — the histogram counterpart of
/// [`counters`]: hot loops buffer observations locally and flush the
/// batch here once.
#[inline]
pub fn observe_many(name: &str, xs: &[f64]) {
    if enabled() && !xs.is_empty() {
        metrics().observe_many(name, xs);
    }
}

/// Drains the global span ring, returning spans oldest → newest.
pub fn take_spans() -> Vec<SpanRecord> {
    telemetry().spans.lock().unwrap().drain()
}

/// Spans evicted from the global ring since the last capacity change.
pub fn spans_dropped() -> u64 {
    telemetry().spans.lock().unwrap().dropped()
}

/// Resizes the global span ring (drops retained spans; 0 = unbounded).
pub fn set_span_capacity(capacity: usize) {
    *telemetry().spans.lock().unwrap() = RingLog::new(capacity);
}

pub(crate) fn push_span(record: SpanRecord) {
    if enabled() {
        telemetry().spans.lock().unwrap().push(record);
    }
}

/// Serializes the tests that toggle the global enabled flag or drain
/// the global span ring, so they don't race under the parallel runner.
#[cfg(all(test, feature = "telemetry"))]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

// These exercise the live global plane; without the feature the frees
// are no-ops by design, so there is nothing to assert.
#[cfg(all(test, feature = "telemetry"))]
mod tests {
    use super::*;

    #[test]
    fn global_counters_respect_the_switch() {
        let _guard = test_lock();
        set_enabled(true);
        metrics().reset();
        counter("lib.test.counter", 2);
        set_enabled(false);
        counter("lib.test.counter", 5);
        gauge("lib.test.gauge", 9.0);
        set_enabled(true);
        assert_eq!(metrics().counter_value("lib.test.counter"), 2);
        assert_eq!(metrics().gauge_value("lib.test.gauge"), None);
    }

    #[test]
    fn span_ring_is_bounded_and_resizable() {
        let _guard = test_lock();
        set_enabled(true);
        set_span_capacity(2);
        for _ in 0..5 {
            let _s = span!("lib.test.span");
        }
        assert_eq!(take_spans().len(), 2);
        assert_eq!(spans_dropped(), 3);
        set_span_capacity(DEFAULT_SPAN_CAPACITY);
    }
}

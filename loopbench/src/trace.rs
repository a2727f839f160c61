//! In-memory span recorder for the traced pass.
//!
//! Spans are opened around each public call into a layer, kept in memory
//! while the benchmark runs, and written out as JSONL when it ends. A span
//! carries its name, start, end, the span that caused it, and the id of the
//! operation (advise or epoch) it belongs to. With tracing off the recorder
//! still times the call — the end-to-end pass needs the durations — but
//! stores nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Advise or epoch index the span belongs to.
    pub op: u64,
    pub start_us: f64,
    pub end_us: f64,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    op: u64,
    spans: Vec<Span>,
    /// Ids of the spans currently open, outermost first.
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { origin: Instant::now(), enabled, op: 0, spans: Vec::new(), open: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Operation id stamped on the spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span named `name` (a child of whatever span is
    /// open) and returns its result with the wall time in milliseconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let id = self.spans.len();
            let start_us = self.us(start);
            self.spans.push(Span {
                id,
                parent: self.open.last().copied(),
                name,
                op: self.op,
                start_us,
                end_us: start_us,
            });
            self.open.push(id);
            id
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(id) = id {
            self.spans[id].end_us = self.us(end);
            self.open.pop();
        }
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Records an interval measured elsewhere (a rule evaluation timed by a
    /// wrapper the product called back into) as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op: self.op,
            start_us: self.us(start),
            end_us: self.us(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: `(count, total self ms)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let selfs = self_times_ms(&self.spans);
        let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (span, self_ms) in self.spans.iter().zip(selfs) {
            let entry = by_name.entry(span.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += self_ms;
        }
        by_name
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.id, parent, s.name, s.op, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// A span's self time is its duration minus the part of that interval its
/// child spans cover. Children of one parent never overlap here (one
/// thread records them in sequence), so the covered part is the sum of the
/// children's durations clipped to the parent's interval.
pub fn self_times_ms(spans: &[Span]) -> Vec<f64> {
    let mut covered = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_us.max(parent.start_us);
            let hi = s.end_us.min(parent.end_us);
            covered[p] += (hi - lo).max(0.0);
        }
    }
    spans.iter().zip(covered).map(|(s, c)| ((s.end_us - s.start_us - c) / 1e3).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { id, parent, name: "s", op: 0, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_children_and_clips_to_the_parent() {
        let spans = vec![
            span(0, None, 0.0, 10_000.0),
            span(1, Some(0), 1_000.0, 4_000.0),
            span(2, Some(0), 5_000.0, 7_000.0),
            span(3, Some(1), 1_500.0, 2_000.0),
            // Sticks out past its parent: only the inside part counts.
            span(4, Some(2), 6_500.0, 8_000.0),
        ];
        let selfs = self_times_ms(&spans);
        assert!((selfs[0] - 5.0).abs() < 1e-9);
        assert!((selfs[1] - 2.5).abs() < 1e-9);
        assert!((selfs[2] - 1.5).abs() < 1e-9);
        assert!((selfs[3] - 0.5).abs() < 1e-9);
        assert!((selfs[4] - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nested_time_calls_record_parents_and_ops() {
        let mut t = Tracer::new(true);
        t.set_op(7);
        let ((), outer_ms) = t.time("outer", |t| {
            t.time("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            let now = Instant::now();
            t.record("rule", now, now);
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let inner_ms = (spans[1].end_us - spans[1].start_us) / 1e3;
        assert!(outer_ms >= inner_ms && inner_ms >= 2.0);
        let selfs = t.self_times();
        assert_eq!(selfs["outer"].0, 1);
        assert!(selfs["outer"].1 <= outer_ms);
    }

    #[test]
    fn disabled_tracer_times_but_stores_nothing() {
        let mut t = Tracer::new(false);
        let (v, ms) = t.time("x", |_| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}

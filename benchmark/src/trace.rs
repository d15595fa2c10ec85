//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around its calls into
//! each layer's public functions (tracing inside the crates is a later
//! change), kept in memory and written out when the repetition ends. A
//! span carries its name (`<layer>.<what>`), start, end, the span that
//! caused it and the operation it belongs to. With tracing off every call
//! is a branch on one bool, so the untraced run measures the program.
//!
//! A layer's *self time* is its span's duration minus the part its child
//! spans cover. Everything runs on one thread, so children never overlap.

use crate::json::Json;
use crate::stats::percentile_u64;
use std::collections::BTreeMap;
use std::time::Instant;

/// Prefix of the spans that belong to the benchmark itself (blocks, input
/// generation) rather than to a layer of the program.
const BENCH_PREFIX: &str = "bench.";
/// The span wrapped around every measured block.
pub const BLOCK_SPAN: &str = "bench.block";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The operation (instance, run, agreement) this span belongs to;
    /// spans of one operation share it.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans recorded from here on with operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            op: self.op,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `span`, which must be the innermost open one.
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Records a span around `f`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name: count, total and self time, and the
    /// nearest-rank p50/p99/max of the individual durations.
    pub fn aggregate(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.duration_ns();
            }
        }
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
        for span in &self.spans {
            let stats = out.entry(span.name).or_default();
            stats.count += 1;
            stats.total_ns += span.duration_ns();
            stats.self_ns += span
                .duration_ns()
                .saturating_sub(child_ns[span.id as usize]);
            durations
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
        }
        for (name, mut sample) in durations {
            let stats = out.get_mut(name).expect("same key set");
            stats.p50_ns = percentile_u64(&mut sample, 50.0);
            stats.p99_ns = percentile_u64(&mut sample, 99.0);
            stats.max_ns = *sample.last().expect("non-empty");
        }
        out
    }

    /// The share of the measured blocks' wall time that no layer span
    /// covers: block time minus every outermost non-`bench.*` span inside
    /// a block, over block time. What is left is the benchmark's own work
    /// (input generation, loop bookkeeping) — it must stay small or the
    /// per-layer shares do not add up to the whole.
    pub fn unaccounted_share(&self) -> f64 {
        let mut block_ns = 0u64;
        let mut covered_ns = 0u64;
        for span in &self.spans {
            if span.name == BLOCK_SPAN {
                block_ns += span.duration_ns();
                continue;
            }
            if span.name.starts_with(BENCH_PREFIX) {
                continue;
            }
            // Outermost layer span inside a block: the ancestor chain holds
            // only bench spans and reaches a block.
            let mut in_block = false;
            let mut outermost = true;
            let mut up = span.parent;
            while let Some(id) = up {
                let ancestor = &self.spans[id as usize];
                if ancestor.name == BLOCK_SPAN {
                    in_block = true;
                } else if !ancestor.name.starts_with(BENCH_PREFIX) {
                    outermost = false;
                    break;
                }
                up = ancestor.parent;
            }
            if in_block && outermost {
                covered_ns += span.duration_ns();
            }
        }
        if block_ns == 0 {
            return 0.0;
        }
        1.0 - covered_ns as f64 / block_ns as f64
    }

    /// The trace document: per-name aggregates over the whole repetition
    /// plus the raw spans of the first measured block (a full repetition
    /// is ~10⁵ spans; one block shows the structure).
    pub fn to_json(&self) -> Json {
        let aggregate = Json::obj(self.aggregate().into_iter().map(|(name, s)| {
            (
                name,
                Json::obj([
                    ("count", Json::from(s.count)),
                    ("total_ms", Json::from(s.total_ns as f64 / 1e6)),
                    ("self_ms", Json::from(s.self_ns as f64 / 1e6)),
                    ("p50_us", Json::from(s.p50_ns as f64 / 1e3)),
                    ("p99_us", Json::from(s.p99_ns as f64 / 1e3)),
                    ("max_us", Json::from(s.max_ns as f64 / 1e3)),
                ]),
            )
        }));
        let first_block = self.spans.iter().find(|s| s.name == BLOCK_SPAN);
        let written: Vec<Json> = first_block
            .map(|block| {
                self.spans
                    .iter()
                    .filter(|s| s.start_ns >= block.start_ns && s.end_ns <= block.end_ns)
                    .map(|s| {
                        Json::obj([
                            ("id", Json::from(u64::from(s.id))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::from(u64::from(p))),
                            ),
                            ("name", Json::str(s.name)),
                            ("op", Json::from(s.op)),
                            ("start_ns", Json::from(s.start_ns)),
                            ("end_ns", Json::from(s.end_ns)),
                        ])
                    })
                    .collect()
            })
            .unwrap_or_default();
        Json::obj([
            ("spans_recorded", Json::from(self.spans.len())),
            ("spans_written", Json::from(written.len())),
            ("unaccounted_share", Json::from(self.unaccounted_share())),
            ("aggregate", aggregate),
            ("spans", Json::Arr(written)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a tracer with hand-placed timestamps.
    fn tracer_with(spans: &[(&'static str, Option<u32>, u64, u64)]) -> Tracer {
        let mut tracer = Tracer::new(true);
        for (i, (name, parent, start, end)) in spans.iter().enumerate() {
            tracer.spans.push(Span {
                id: i as u32,
                parent: *parent,
                name,
                op: 0,
                start_ns: *start,
                end_ns: *end,
            });
        }
        tracer
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let outer = tracer.begin("svc.tick");
        assert_eq!(tracer.span("algos.build", || 7), 7);
        tracer.end(outer);
        assert!(tracer.spans().is_empty());
        assert_eq!(tracer.unaccounted_share(), 0.0);
    }

    #[test]
    fn nesting_follows_begin_end_order() {
        let mut tracer = Tracer::new(true);
        let block = tracer.begin(BLOCK_SPAN);
        tracer.set_op(3);
        tracer.span("svc.tick", || ());
        tracer.end(block);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 3);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let tracer = tracer_with(&[
            (BLOCK_SPAN, None, 0, 1000),
            ("sim.run", Some(0), 100, 900),
            ("crypto.verify", Some(1), 200, 500),
            ("crypto.verify", Some(1), 600, 700),
        ]);
        let agg = tracer.aggregate();
        assert_eq!(agg["sim.run"].total_ns, 800);
        assert_eq!(agg["sim.run"].self_ns, 400);
        assert_eq!(agg["crypto.verify"].count, 2);
        assert_eq!(agg["crypto.verify"].total_ns, 400);
        assert_eq!(agg["crypto.verify"].p50_ns, 100);
        assert_eq!(agg["crypto.verify"].max_ns, 300);
        assert_eq!(agg[BLOCK_SPAN].self_ns, 200);
        // Only the outermost layer span counts toward coverage.
        assert!((tracer.unaccounted_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn bench_spans_and_spans_outside_blocks_cover_nothing() {
        let tracer = tracer_with(&[
            ("ext.run", None, 0, 500),
            (BLOCK_SPAN, None, 1000, 2000),
            ("bench.generate", Some(1), 1000, 1100),
            ("ext.run", Some(2), 1000, 1050),
            ("ext.run", Some(1), 1100, 1900),
        ]);
        // Covered: 50 (under a bench span, still outermost) + 800.
        assert!((tracer.unaccounted_share() - 0.15).abs() < 1e-12);
    }
}

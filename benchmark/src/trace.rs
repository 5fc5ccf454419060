//! The traced run's span recorder.
//!
//! Spans are taken from outside the program under test: the harness opens
//! one around each public call it makes (a `run_until` segment, a query, an
//! analytics call, a render) and around each station batch of the ladder.
//! They live in memory while the workload runs and are written out once it
//! has ended. A disabled tracer records nothing and reads no clock, so the
//! untraced run pays one branch per call site.

use crate::json::Json;
use crate::stats::{percentile, sorted};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. `parent` is the id of the span that was open when this
/// one began (0 for a root); ids start at 1 and follow begin order.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// 1-based id, in begin order.
    pub id: u32,
    /// Enclosing span's id, 0 for none.
    pub parent: u32,
    /// What was called, e.g. `pipeline.run_until`.
    pub name: &'static str,
    /// The repo module that did the work, e.g. `pipeline`.
    pub layer: &'static str,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Units of work the span covered (uplinks, points, queries, bytes…).
    pub units: u64,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Tracer::begin`]; give it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended is never recorded"]
pub struct Open(u32);

/// Totals for all spans of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// The layer the spans were filed under.
    pub layer: &'static str,
    /// How many spans.
    pub spans: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus the part child spans cover).
    pub self_ns: u64,
    /// Summed units.
    pub units: u64,
}

impl NameTotals {
    /// Busy time per unit of work.
    pub fn ns_per_unit(&self) -> f64 {
        self.total_ns as f64 / self.units.max(1) as f64
    }
}

/// Span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (between epochs, never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span under whichever span is currently open.
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> Open {
        if !self.enabled {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            units: 0,
        });
        Open(id)
    }

    /// Close a span, recording how many units of work it covered. Spans
    /// close innermost-first; anything opened inside and left open is
    /// closed with it.
    pub fn end(&mut self, open: Open, units: u64) {
        if open.0 == 0 {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        while let Some(id) = self.open.pop() {
            if let Some(span) = self.spans.get_mut(id as usize - 1) {
                span.end_ns = end_ns;
                if id == open.0 {
                    span.units = units;
                }
            }
            if id == open.0 {
                break;
            }
        }
    }

    /// Record a span whose duration was accumulated elsewhere (the ladder's
    /// interleaved radio/server station times each call and files the sum).
    /// It is placed at the current instant, under the open span.
    pub fn record(&mut self, name: &'static str, layer: &'static str, busy_ns: u64, units: u64) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            name,
            layer,
            start_ns: end_ns.saturating_sub(busy_ns),
            end_ns,
            units,
        });
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let selfs = self.self_times();
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(span.name).or_default();
            t.layer = span.layer;
            t.spans += 1;
            t.total_ns += span.duration_ns();
            t.self_ns += self_ns;
            t.units += span.units;
        }
        out
    }

    /// Ascending durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration_ns() as f64)
                .collect(),
        )
    }

    /// Percentile `p` of the durations of spans named `name`, in ns.
    pub fn percentile_ns(&self, name: &str, p: f64) -> f64 {
        percentile(&self.durations(name), p)
    }

    /// The trace file: per-name totals, then the first `max_spans` spans.
    pub fn to_json(&self, max_spans: usize) -> Json {
        let totals = self
            .totals()
            .into_iter()
            .map(|(name, t)| {
                (
                    name,
                    Json::obj([
                        ("layer", Json::str(t.layer)),
                        ("spans", Json::Num(t.spans as f64)),
                        ("total_ns", Json::Num(t.total_ns as f64)),
                        ("self_ns", Json::Num(t.self_ns as f64)),
                        ("units", Json::Num(t.units as f64)),
                    ]),
                )
            })
            .collect::<Vec<_>>();
        let spans = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(f64::from(s.id))),
                    ("parent", Json::Num(f64::from(s.parent))),
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("units", Json::Num(s.units as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("recorded", Json::Num(self.spans.len() as f64)),
            ("written", Json::Num(self.spans.len().min(max_spans) as f64)),
            ("totals", Json::obj(totals)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of each span: its duration minus the part of it its direct
/// children cover. Children of one parent never overlap (one harness thread
/// opens and closes them in order), so the covered part is their summed
/// duration, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = (s.parent as usize).checked_sub(1) {
            if let (Some(c), Some(p)) = (covered.get_mut(parent), spans.get(parent)) {
                let start = s.start_ns.max(p.start_ns);
                let end = s.end_ns.min(p.end_ns);
                *c += end.saturating_sub(start);
            }
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 ⊃ a 10..40 ⊃ a1 20..30, and root ⊃ b 50..90.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 20, 30),
            span(4, 1, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn child_time_outside_the_parent_is_not_subtracted() {
        // A filed span (`record`) may start before its parent: clip it.
        let spans = [span(1, 0, 100, 200), span(2, 1, 50, 150)];
        assert_eq!(self_times(&spans), vec![50, 100]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let o = t.begin("a", "l");
        t.end(o, 5);
        t.record("b", "l", 10, 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_follows_begin_and_end_order() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", "l");
        let inner = t.begin("inner", "l");
        t.end(inner, 3);
        t.record("filed", "l", 0, 2);
        t.end(outer, 7);
        let after = t.begin("after", "l");
        t.end(after, 1);
        let parents: Vec<(&str, u32, u64)> = t
            .spans()
            .iter()
            .map(|s| (s.name, s.parent, s.units))
            .collect();
        assert_eq!(
            parents,
            vec![
                ("outer", 0, 7),
                ("inner", 1, 3),
                ("filed", 1, 2),
                ("after", 0, 1)
            ]
        );
        let totals = t.totals();
        assert_eq!(totals["outer"].units, 7);
        let written = t.to_json(2);
        assert_eq!(written.get("recorded").and_then(Json::as_f64), Some(4.0));
        assert_eq!(
            written
                .get("spans")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}

//! The flight recorder: a fixed-capacity ring of recent span events.
//!
//! Post-mortems need *recent context*, not a full log: when the chaos soak
//! trips on a ledger imbalance or an alarm mismatch, the last few hundred
//! stage enter/exit events (with logical timestamps) show what the
//! pipeline was dispatching leading up to the failure. The ring overwrites
//! the oldest events, so a week-long soak costs the same memory as a
//! minute-long one.

use ctt_core::time::Timestamp;
use std::fmt::Write as _;

/// Span edge: a stage was entered or exited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Stage entered.
    Enter,
    /// Stage exited.
    Exit,
}

impl SpanKind {
    fn label(self) -> &'static str {
        match self {
            SpanKind::Enter => "enter",
            SpanKind::Exit => "exit",
        }
    }
}

/// One recorded span edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Logical time of the edge.
    pub time: Timestamp,
    /// Stage name (static: stage taxonomy is fixed at compile time).
    pub stage: &'static str,
    /// Enter or exit.
    pub kind: SpanKind,
}

/// A fixed-capacity ring buffer of [`SpanEvent`]s.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    ring: Vec<SpanEvent>,
    capacity: usize,
    /// Index the next event is written to once the ring is full.
    next: usize,
    /// Total events ever recorded (≥ `ring.len()`).
    total: u64,
}

impl FlightRecorder {
    /// A recorder keeping the most recent `capacity` events (≥ 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
            total: 0,
        }
    }

    /// Record a span edge.
    pub fn record(&mut self, time: Timestamp, stage: &'static str, kind: SpanKind) {
        let event = SpanEvent { time, stage, kind };
        if self.ring.len() < self.capacity {
            self.ring.push(event);
        } else {
            if let Some(slot) = self.ring.get_mut(self.next) {
                *slot = event;
            }
            self.next = (self.next + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Record a stage entry.
    pub fn enter(&mut self, time: Timestamp, stage: &'static str) {
        self.record(time, stage, SpanKind::Enter);
    }

    /// Record a stage exit.
    pub fn exit(&mut self, time: Timestamp, stage: &'static str) {
        self.record(time, stage, SpanKind::Exit);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events currently held, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        if self.ring.len() == self.capacity {
            out.extend_from_slice(self.ring.get(self.next..).unwrap_or_default());
            out.extend_from_slice(self.ring.get(..self.next).unwrap_or_default());
        } else {
            out.extend_from_slice(&self.ring);
        }
        out
    }

    /// Canonical post-mortem dump: a header, then one line per kept
    /// event oldest-to-newest. Byte-identical across replays.
    pub fn dump(&self) -> String {
        let events = self.events();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: last {} of {} span events",
            events.len(),
            self.total
        );
        for e in events {
            let _ = writeln!(
                out,
                "t={} {} {}",
                e.time.as_seconds(),
                e.kind.label(),
                e.stage
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let mut r = FlightRecorder::new(3);
        for i in 0..5 {
            r.record(Timestamp(i), "s", SpanKind::Enter);
        }
        let times: Vec<i64> = r.events().iter().map(|e| e.time.as_seconds()).collect();
        assert_eq!(times, vec![2, 3, 4]);
        assert_eq!(r.total(), 5);
    }

    #[test]
    fn dump_is_canonical() {
        let mut r = FlightRecorder::new(8);
        r.enter(Timestamp(10), "node-tx");
        r.exit(Timestamp(10), "node-tx");
        assert_eq!(
            r.dump(),
            "flight recorder: last 2 of 2 span events\nt=10 enter node-tx\nt=10 exit node-tx\n"
        );
    }

    #[test]
    fn partial_ring_dumps_in_insertion_order() {
        let mut r = FlightRecorder::new(100);
        r.enter(Timestamp(1), "a");
        r.enter(Timestamp(2), "b");
        let stages: Vec<&str> = r.events().iter().map(|e| e.stage).collect();
        assert_eq!(stages, vec!["a", "b"]);
    }
}

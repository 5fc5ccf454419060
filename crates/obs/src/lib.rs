//! # ctt-obs — deterministic observability
//!
//! The paper's dataport exists to *monitor* the sensor network; this crate
//! is the uniform substrate the rest of the workspace publishes its health
//! into. Three pieces:
//!
//! * a [`Snapshot`]: named integer counters and gauges with a stable
//!   (sorted) order, so a snapshot of a deterministic run is
//!   byte-identical across replays. There is no shared registry: each
//!   layer counts its events once, in plain integers it owns, and writes
//!   them into a snapshot through one method of its own;
//! * dispatch-tracing building blocks — a fixed-bucket [`FixedHistogram`]
//!   and a bounded [`TraceSink`] — used by `ctt-sim`'s event queue to emit
//!   a scheduling profile without instrumenting each subsystem;
//! * a [`FlightRecorder`]: a fixed-capacity ring of recent stage
//!   enter/exit span events, dumped on post-mortems (ledger imbalance,
//!   alarm mismatch) by the chaos soak.
//!
//! **Determinism rules.** Only logical [`Timestamp`]s (the `SimClock`) ever
//! enter a metric, span, or trace record — never the wall clock. Every
//! value is an integer (no float formatting ambiguity). Snapshot order is
//! the sorted metric name, not insertion order, so refactorings that move
//! an export cannot reorder it.
//!
//! [`Timestamp`]: ctt_core::time::Timestamp

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

mod recorder;
mod snapshot;
mod trace;

pub use recorder::{FlightRecorder, SpanEvent, SpanKind};
pub use snapshot::{Snapshot, SnapshotDiff};
pub use trace::{FixedHistogram, PercentileEstimate, TraceEvent, TraceSink};

/// A marker with nothing in it, kept for the frozen `benchmark/` harness
/// (which builds one and hands it to `Broker::with_registry`,
/// `ShardedTsdb::attach_registry` and `IngestRuntime::new`) until ROADMAP
/// item 1. Counts live in the layers that make them.
#[derive(Debug, Clone, Default)]
pub struct Registry {}

impl Registry {
    /// The marker.
    pub fn new() -> Self {
        Registry {}
    }
}

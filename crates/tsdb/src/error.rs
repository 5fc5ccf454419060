//! Typed errors for the storage and query layers.
//!
//! The hot path is panic-free (enforced by `ctt-lint` rule R1): corrupt
//! chunks, unknown series, and malformed queries surface as [`TsdbError`]
//! values instead of unwinding the ingest thread.

use crate::store::SeriesId;
use std::fmt;

/// Failures surfaced by chunk decoding, series reads, and query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsdbError {
    /// A Gorilla bitstream ended before all advertised points were decoded.
    TruncatedChunk {
        /// Points successfully decoded before the stream ran out.
        decoded: u32,
        /// Points the chunk header advertised.
        expected: u32,
    },
    /// A Gorilla value header encoded an impossible bit window
    /// (`leading + significant > 64`).
    InvalidValueWindow {
        /// Leading-zero count from the 5-bit header field.
        leading: u8,
        /// Significant-bit count from the 6-bit header field.
        significant: u8,
    },
    /// A series id that does not exist in this store.
    UnknownSeries(SeriesId),
    /// A query referenced a metric with no series at all.
    NoSuchMetric(String),
    /// A chunk decodes, but into points no chunk can hold: neighbouring
    /// timestamps run backwards or lie 2²⁶ s or more apart. Only a
    /// corrupted chunk decodes like that, so it is kept, not re-encoded.
    UnencodableChunk {
        /// The first such gap between neighbouring timestamps, in seconds
        /// (negative when they run backwards).
        gap: i64,
    },
}

impl fmt::Display for TsdbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TsdbError::TruncatedChunk { decoded, expected } => write!(
                f,
                "gorilla chunk truncated: decoded {decoded} of {expected} points"
            ),
            TsdbError::InvalidValueWindow {
                leading,
                significant,
            } => write!(
                f,
                "gorilla value window invalid: leading {leading} + significant {significant} > 64"
            ),
            TsdbError::UnknownSeries(id) => write!(f, "unknown series id {}", id.0),
            TsdbError::NoSuchMetric(m) => write!(f, "no series recorded for metric {m:?}"),
            TsdbError::UnencodableChunk { gap } => write!(
                f,
                "gorilla chunk decodes to a {gap} s timestamp gap no chunk can hold"
            ),
        }
    }
}

impl std::error::Error for TsdbError {}

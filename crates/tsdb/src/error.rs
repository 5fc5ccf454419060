//! Typed errors for the storage and query layers.
//!
//! The hot path is panic-free (enforced by `ctt-lint` rule R1): corrupt
//! chunks and malformed queries surface as [`TsdbError`] values instead
//! of unwinding the ingest thread.

use std::fmt;

/// Failures surfaced by chunk decoding and query execution.
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
    /// A value column's header byte names no coding: neither a decimal
    /// exponent nor the XOR marker.
    UnknownValueCoding {
        /// The header byte read.
        header: u8,
    },
    /// A query referenced a metric with no series at all.
    NoSuchMetric(String),
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
            TsdbError::UnknownValueCoding { header } => {
                write!(f, "value column header {header:#04x} names no coding")
            }
            TsdbError::NoSuchMetric(m) => write!(f, "no series recorded for metric {m:?}"),
        }
    }
}

impl std::error::Error for TsdbError {}

//! # ctt-tsdb — OpenTSDB-style time-series database
//!
//! The CTT dashboards "access the data from the OpenTSDB time series
//! database" (§2.4). This crate reproduces that storage layer:
//!
//! * [`model`] — metric + tag data model with OpenTSDB naming rules.
//! * [`bits`] / [`gorilla`] — bit-packed chunk compression: Gorilla's
//!   delta-of-delta timestamps, values as decimal integers or XOR floats.
//! * `intern` — the identity tables behind [`Tsdb`]: each metric name and
//!   tag set held once, named by a dense id.
//! * [`store`] — interned series, append-only chunked storage, a
//!   per-series time-range block index, stats.
//! * [`rollup`] — seal-time materialized rollups (pre-downsampled
//!   per-bucket summaries, one encoded block per sealed chunk) serving
//!   dashboard queries without a chunk decode.
//! * [`shard`] — a city's one store: a [`Tsdb`], its mutation epoch and
//!   the query cache behind one lock, written by [`SeriesId`] or by
//!   [`DataPoint`], with served queries.
//! * [`query`] — tag filters, group-by, downsampling (`1h-avg`),
//!   cross-series aggregation, rate.
//! * [`cache`] — seal-aware query result cache with deterministic
//!   epoch-based invalidation (no wall clock).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod bits;
pub mod cache;
pub mod error;
pub mod gorilla;
mod intern;
pub mod model;
pub mod query;
pub mod rollup;
pub mod shard;
pub mod store;

pub use cache::CacheStats;
pub use error::TsdbError;
pub use gorilla::CompressedChunk;
pub use model::{DataPoint, ModelError, TagFilter, TagSet};
pub use query::{execute_raw, Aggregator, Downsample, FillPolicy, Query, QueryResult};
pub use rollup::ColumnBytes;
pub use shard::{ServePolicy, ShardedTsdb, DEFAULT_SHARDS};
pub use store::{
    BitFlipOutcome, IntegrityReport, QuarantineReport, ScanCounts, SeriesId, StoreStats, Tsdb,
};

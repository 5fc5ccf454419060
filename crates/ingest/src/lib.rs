//! # ctt-ingest — the string-keyed write surface the frozen benchmark
//! harness compiles against
//!
//! The pipeline writes to its store directly: it registers each series once
//! ([`ShardedTsdb::register`]) and appends by the store's own
//! [`ctt_tsdb::SeriesId`] ([`ShardedTsdb::append`]). Nothing in the
//! workspace uses this crate. It remains only because `benchmark/` names
//! [`IngestRuntime`] and [`IngestConfig`], and it goes when the harness
//! moves onto the pipeline's own surface (ROADMAP item 1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

use ctt_obs::Registry;
use ctt_tsdb::{DataPoint, ShardedTsdb};

/// Ingest settings. There are none left; the type stays for the harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct IngestConfig {}

/// String-keyed writes into one store: [`ShardedTsdb::put_batch`] under the
/// name the harness uses.
#[derive(Debug)]
pub struct IngestRuntime<'a> {
    db: &'a ShardedTsdb,
}

impl<'a> IngestRuntime<'a> {
    /// A runtime writing into `db`. It registers no metrics: the store's
    /// own `tsdb.shard0.puts` counts every point.
    pub fn new(db: &'a ShardedTsdb, _registry: &Registry, _config: IngestConfig) -> Self {
        IngestRuntime { db }
    }

    /// Write `points` through [`ShardedTsdb::put_batch`]; returns the
    /// number written.
    pub fn submit(&mut self, points: &[DataPoint]) -> u64 {
        self.db.put_batch(points)
    }

    /// Nothing is staged, so there is nothing to apply.
    pub fn flush(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Timestamp;

    #[test]
    fn submit_is_put_batch() {
        let db = ShardedTsdb::with_chunk_size(16);
        let mut rt = IngestRuntime::new(&db, &Registry::new(), IngestConfig::default());
        let points: Vec<DataPoint> = (0..40)
            .map(|i| {
                let tags = [("device".to_string(), format!("n{}", i % 4))];
                DataPoint::new("m", tags, Timestamp(i * 300), i as f64).expect("valid point")
            })
            .collect();
        assert_eq!(rt.submit(&points), 40);
        rt.flush();
        assert_eq!((db.stats().series, db.stats().points), (4, 40));
    }
}

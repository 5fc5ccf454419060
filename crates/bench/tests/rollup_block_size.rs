//! Rollup size gate: the bytes a Trondheim city's rollup blocks take per
//! bucket after two days of traffic and a full seal.
//!
//! Each sealed chunk keeps its rollups as one encoded block (run-length
//! offsets and counts, XOR-coded `sum`/`min`/`max`/`last`). Block sizes
//! are a pure function of the seed, so the figure is exact and the gate
//! cannot flap; its margin is headroom for future change, not noise.
//!
//! Run: `cargo test --offline -p ctt-bench --test rollup_block_size -- --nocapture`
//! prints the measured figure.

use ctt::prelude::*;

/// What one bucket took before rollups were encoded: a flat `offset`,
/// `count` and four `f64` folds.
const FLAT_BUCKET_BYTES: usize = 40;

/// Bytes per bucket, seed 42: measured 23.34, plus 10 % headroom.
const BOUND_BYTES_PER_BUCKET: f64 = 25.7;

#[test]
fn trondheim_rollup_blocks_hold_their_measured_size() {
    let mut p = Pipeline::new(Deployment::trondheim(), 42);
    let start = p.now();
    p.run_until(start + Span::days(2));
    p.tsdb.seal_all();
    let blocks = p.tsdb.rollup_blocks();
    let buckets: u64 = blocks.iter().map(|&(n, _)| n).sum();
    let bytes: usize = blocks.iter().map(|&(_, b)| b).sum();
    assert_eq!(bytes, p.tsdb.stats().rollup_bytes, "every block counted");
    assert!(buckets > 0, "two days seal some rollups");
    let per_bucket = bytes as f64 / buckets as f64;
    eprintln!(
        "rollup blocks after 2 d + seal_all: {} blocks, {buckets} buckets, {bytes} B, \
         {per_bucket:.2} B per bucket (bound {BOUND_BYTES_PER_BUCKET})",
        blocks.len()
    );
    assert!(
        per_bucket <= BOUND_BYTES_PER_BUCKET,
        "{per_bucket:.2} B per bucket exceeds the {BOUND_BYTES_PER_BUCKET} B bound"
    );
    // Short chunks never lose: a block is never larger than the flat
    // buckets it replaces.
    for &(n, b) in &blocks {
        assert!(
            b <= FLAT_BUCKET_BYTES * n as usize,
            "a {n}-bucket block takes {b} B"
        );
    }
}

//! Storage size gates: the bytes a Trondheim city's sealed chunks take per
//! point, and its rollup blocks per bucket, after two days of traffic and
//! a full seal.
//!
//! Each sealed chunk holds Gorilla timestamps and its values as decimal
//! integers (the payload's fixed-point grid) or XOR floats; it keeps its
//! rollups as one encoded block (run-length offsets and counts, then the
//! `sum`/`min`/`max`/`last` columns coded the same two ways). Sizes are a
//! pure function of the seed, so the figures are exact and the gates
//! cannot flap; their margins are headroom for future change, not noise.
//! That the store's totals count every block, and that no block outgrows
//! the flat buckets it replaced, is `ctt-tsdb`'s
//! `rollup::tests::stats_count_every_sealed_block`.
//!
//! Run: `cargo test --offline -p ctt-bench --test rollup_block_size -- --nocapture`
//! prints the measured figures.

use ctt::prelude::*;

/// Bytes per bucket, seed 42: measured 10.23, plus 10 % headroom.
const BOUND_BYTES_PER_BUCKET: f64 = 11.25;

/// Chunk bytes per point, seed 42: measured 1.218, plus 10 % headroom.
const BOUND_CHUNK_BYTES_PER_POINT: f64 = 1.34;

#[test]
fn trondheim_chunks_hold_their_measured_size() {
    let mut p = Pipeline::new(Deployment::trondheim(), 42);
    let start = p.now();
    p.run_until(start + Span::days(2));
    p.seal_all();
    let st = p.store_stats();
    assert!(st.points > 0 && st.chunks > 0, "two days seal some chunks");
    let per_point = st.bytes as f64 / st.points as f64;
    eprintln!(
        "chunks after 2 d + seal_all: {} chunks, {} points, {} B, {per_point:.3} B per point \
         (bound {BOUND_CHUNK_BYTES_PER_POINT})",
        st.chunks, st.points, st.bytes
    );
    assert!(
        per_point <= BOUND_CHUNK_BYTES_PER_POINT,
        "{per_point:.3} B per point exceeds the {BOUND_CHUNK_BYTES_PER_POINT} B bound"
    );
}

#[test]
fn trondheim_rollup_blocks_hold_their_measured_size() {
    let mut p = Pipeline::new(Deployment::trondheim(), 42);
    let start = p.now();
    p.run_until(start + Span::days(2));
    p.seal_all();
    let st = p.store_stats();
    let (buckets, bytes) = (st.rollup_buckets, st.rollup_bytes);
    assert!(buckets > 0, "two days seal some rollups");
    let per_bucket = bytes as f64 / buckets as f64;
    eprintln!(
        "rollup blocks after 2 d + seal_all: {} chunks, {buckets} buckets, {bytes} B, \
         {per_bucket:.2} B per bucket (bound {BOUND_BYTES_PER_BUCKET})",
        st.chunks
    );
    assert!(
        per_bucket <= BOUND_BYTES_PER_BUCKET,
        "{per_bucket:.2} B per bucket exceeds the {BOUND_BYTES_PER_BUCKET} B bound"
    );
}

//! Concurrent-writer stress: many threads hammer a shared [`ShardedTsdb`]
//! through `put_batch` while readers run queries and integrity scans. The
//! store's one lock must neither lose writes nor deadlock, and the final
//! contents must equal a serial reference ingest of the same points.

use ctt_core::time::Timestamp;
use ctt_tsdb::{DataPoint, Query, ShardedTsdb, TagSet};
use std::sync::Arc;

fn writer_points(writer: usize, points: i64) -> Vec<DataPoint> {
    (0..points)
        .map(|i| {
            DataPoint::new(
                "stress.metric",
                vec![("device".to_string(), format!("w{writer}"))],
                Timestamp(i * 60),
                writer as f64 * 1000.0 + i as f64,
            )
            .expect("valid point")
        })
        .collect()
}

#[test]
fn concurrent_writers_do_not_lose_or_duplicate_points() {
    const WRITERS: usize = 8;
    const POINTS: i64 = 500;
    const BATCH: usize = 50;

    let db = Arc::new(ShardedTsdb::with_chunk_size(32));
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let db = Arc::clone(&db);
            std::thread::spawn(move || {
                let pts = writer_points(w, POINTS);
                let mut written = 0u64;
                for chunk in pts.chunks(BATCH) {
                    written += db.put_batch(chunk);
                }
                written
            })
        })
        .collect();

    // Concurrent readers: queries and scans while writes are in flight
    // must not deadlock or observe torn state (each sees some consistent
    // prefix of the writes).
    let reader = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            for _ in 0..50 {
                // Scan before stats: points only grow in this test, so a
                // scan snapshot never exceeds a later stats snapshot (the
                // two calls take the lock separately).
                let scan = db.integrity_scan();
                let st = db.stats();
                assert!(scan.readable_points + scan.quarantined_points <= st.points);
                let q = Query::range("stress.metric", Timestamp(0), Timestamp(i64::MAX));
                let _ = db.execute(&q);
                std::thread::yield_now();
            }
        })
    };

    let mut total = 0u64;
    for h in handles {
        total += h.join().expect("writer panicked");
    }
    reader.join().expect("reader panicked");

    assert_eq!(total, (WRITERS as u64) * (POINTS as u64));
    let st = db.stats();
    assert_eq!(st.points, total, "store lost or duplicated points");
    assert_eq!(st.series, WRITERS, "one series per writer expected");

    // Contents match a serial reference ingest exactly.
    let reference = ShardedTsdb::with_chunk_size(32);
    for w in 0..WRITERS {
        reference.put_batch(&writer_points(w, POINTS));
    }
    for w in 0..WRITERS {
        let tags: TagSet = [("device".to_string(), format!("w{w}"))].into();
        let got = db.read_series("stress.metric", &tags, Timestamp(0), Timestamp(i64::MAX));
        let want = reference.read_series("stress.metric", &tags, Timestamp(0), Timestamp(i64::MAX));
        assert_eq!(got, want, "writer {w} series diverged from serial ingest");
    }
}

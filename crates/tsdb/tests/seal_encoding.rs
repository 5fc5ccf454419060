//! Properties of the seal path: a series' open buffer is encoded once,
//! when it seals, from its sorted, last-write-wins content.
//!
//! The first property pins what that buys: arrival order and duplicate
//! timestamps leave no trace in the sealed bytes. Whatever order points
//! arrive in, and however often a timestamp is rewritten, the chunk is
//! byte for byte the chunk of the sorted, deduplicated input, and decodes
//! to it bit for bit (NaN payloads and `-0.0` included). The workload
//! covers the encoder's awkward corners: NaN and `-0.0` (an XOR-coded
//! column), fixed-point readings (a decimal column), duplicate timestamps
//! and negative timestamps (raw 64-bit first sample).
//!
//! The last property is the store's half of the bargain: the encoder holds a
//! chunk's first delta in 27 bits and escapes a delta-of-delta through
//! `i32`, so the store must never hand it two neighbours ≥ 2²⁶ s apart —
//! whatever the gaps and arrival order, what was put is what is read.

use ctt_core::time::Timestamp;
use ctt_tsdb::{CompressedChunk, DataPoint, SeriesId, TagSet, Tsdb};
use proptest::prelude::*;

/// One generated series: a start instant (possibly negative), then a run
/// of (delta-seconds, value) steps. Delta 0 produces duplicate timestamps.
/// Readings on a ×10 grid keep the column decimal unless a NaN, `-0.0` or
/// an off-grid value joins them.
fn series_strategy() -> impl Strategy<Value = (i64, Vec<(i64, f64)>)> {
    let value = prop_oneof![
        8 => (-10_000i64..10_000).prop_map(|n| n as f64 / 10.0),
        2 => -1e9f64..1e9,
        1 => Just(f64::NAN),
        1 => Just(-0.0f64),
    ];
    (
        -50_000i64..50_000,
        proptest::collection::vec((0i64..600, value), 1..40),
    )
}

/// Materialize a series spec into non-decreasing (timestamp, value) points.
fn points_of(start: i64, steps: &[(i64, f64)]) -> Vec<(i64, f64)> {
    let mut t = start;
    steps
        .iter()
        .map(|&(dt, v)| {
            t += dt;
            (t, v)
        })
        .collect()
}

/// The logical content after last-write-wins on duplicate timestamps.
fn dedup_lww(points: &[(i64, f64)]) -> Vec<(i64, f64)> {
    let mut out: Vec<(i64, f64)> = Vec::new();
    for &(t, v) in points {
        match out.last_mut() {
            Some(last) if last.0 == t => last.1 = v,
            _ => out.push((t, v)),
        }
    }
    out
}

proptest! {
    /// Any arrival order and any duplicate pattern seal the bytes of the
    /// sorted, last-write-wins input, which decode back to it bit for bit.
    #[test]
    fn any_arrival_order_seals_the_sorted_deduplicated_chunk(
        spec in series_strategy(),
        keys in proptest::collection::vec(any::<u16>(), 40..41),
        shuffle in any::<bool>(),
    ) {
        let (start, steps) = spec;
        let points = points_of(start, &steps);
        let mut arrivals: Vec<(u16, i64, f64)> =
            points.iter().zip(&keys).map(|(&(t, v), &k)| (k, t, v)).collect();
        if shuffle {
            arrivals.sort_by_key(|a| a.0);
        }
        // The input sorted by time, stably, so the copies of a duplicated
        // timestamp keep their arrival order and the last write wins.
        let mut sorted: Vec<(i64, f64)> = arrivals.iter().map(|&(_, t, v)| (t, v)).collect();
        sorted.sort_by_key(|p| p.0);
        let logical: Vec<(Timestamp, f64)> = dedup_lww(&sorted)
            .into_iter()
            .map(|(t, v)| (Timestamp(t), v))
            .collect();
        let mut db = Tsdb::with_chunk_size(64);
        let id = db.intern("m", &TagSet::new());
        for &(_, t, v) in &arrivals {
            db.append(id, Timestamp(t), v);
        }
        db.seal_all();
        let sealed: Vec<&CompressedChunk> = db.chunks(id).collect();
        prop_assert_eq!(sealed.len(), 1);
        let reference = CompressedChunk::encode(&logical);
        prop_assert_eq!(sealed[0].to_bytes(), reference.to_bytes());
        let decoded = sealed[0].decode();
        prop_assert!(decoded.is_ok(), "sealed chunk failed to decode");
        let decoded = decoded.unwrap_or_default();
        prop_assert_eq!(decoded.len(), logical.len());
        for (d, l) in decoded.iter().zip(&logical) {
            prop_assert_eq!(d.0, l.0);
            prop_assert_eq!(d.1.to_bits(), l.1.to_bits(), "value bits diverged");
        }
    }

    /// Timestamps across ±2⁴⁰ s with gaps from seconds to millennia, in
    /// arbitrary arrival order, through `put` → `seal_all` → `read`: the
    /// store answers the sorted, last-write-wins input.
    #[test]
    fn any_gaps_in_any_arrival_order_read_back(
        start in -(1i64 << 40)..0,
        steps in proptest::collection::vec(
            (
                prop_oneof![0i64..600, 0i64..(1 << 27), 0i64..(1 << 38)],
                -1e9f64..1e9,
                any::<u16>(),
            ),
            1..60,
        ),
        shuffle in any::<bool>(),
    ) {
        let mut t: i64 = start;
        let mut arrivals: Vec<(u16, i64, f64)> = steps
            .iter()
            .map(|&(gap, v, key): &(i64, f64, u16)| {
                t = (t + gap).min(1 << 40);
                (key, t, v)
            })
            .collect();
        if shuffle {
            arrivals.sort_by_key(|a| a.0);
        }
        let mut db = Tsdb::with_chunk_size(8);
        for &(_, t, v) in &arrivals {
            db.put(&DataPoint::new("m", Vec::new(), Timestamp(t), v).expect("valid point"));
        }
        db.seal_all();
        let mut sorted: Vec<(i64, f64)> = arrivals.iter().map(|&(_, t, v)| (t, v)).collect();
        sorted.sort_by_key(|p| p.0);
        let expected: Vec<(Timestamp, f64)> = dedup_lww(&sorted)
            .into_iter()
            .map(|(t, v)| (Timestamp(t), v))
            .collect();
        let stored = db.read(SeriesId(0), Timestamp(i64::MIN), Timestamp(i64::MAX));
        prop_assert_eq!(stored, Ok(expected));
    }
}

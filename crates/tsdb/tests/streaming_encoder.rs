//! Property: the streaming Gorilla appender — incremental `append` with
//! checkpoint/restore for last-write-wins duplicates and chunk cuts — emits
//! *exactly* the bytes a whole-chunk re-encode of the same logical points
//! would. This is the invariant that lets the store's seal path skip the
//! bitstream re-walk: if it ever drifted, sealed chunks (and everything
//! hashed or golden-pinned downstream) would silently change shape.
//!
//! The workload deliberately covers the encoder's awkward corners: NaN
//! values (bit-exact XOR round-trip), duplicate timestamps (rewind +
//! re-append), and negative timestamps (raw 64-bit first sample).
//!
//! The last property is the store's half of the bargain: the encoder holds a
//! chunk's first delta in 27 bits and escapes a delta-of-delta through
//! `i32`, so the store must never hand it two neighbours ≥ 2²⁶ s apart —
//! whatever the gaps and arrival order, what was put is what is read.

use ctt_core::time::Timestamp;
use ctt_tsdb::{CompressedChunk, DataPoint, GorillaEncoder, SeriesId, Tsdb};
use proptest::prelude::*;

/// One generated series: a start instant (possibly negative), then a run
/// of (delta-seconds, value) steps. Delta 0 produces duplicate timestamps.
fn series_strategy() -> impl Strategy<Value = (i64, Vec<(i64, f64)>)> {
    let value = prop_oneof![
        8 => -1e9f64..1e9,
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

/// Encode a point slice in one pass — the re-encode reference.
fn encode_whole(points: &[(i64, f64)]) -> CompressedChunk {
    let mut enc = GorillaEncoder::new();
    for &(t, v) in points {
        enc.append(Timestamp(t), v);
    }
    enc.finish()
}

proptest! {
    /// ~100 series per case: streaming bytes == whole-chunk re-encode of
    /// the deduplicated content, and NaN round-trips bit-exactly.
    #[test]
    fn streaming_appender_matches_whole_chunk_reencode(
        specs in proptest::collection::vec(series_strategy(), 100..101),
    ) {
        for (start, steps) in &specs {
            let points = points_of(*start, steps);
            let logical = dedup_lww(&points);
            let streamed = {
                let mut enc = GorillaEncoder::new();
                let mut before_last = enc.checkpoint();
                let mut last_ts: Option<i64> = None;
                for &(t, v) in &points {
                    if last_ts == Some(t) {
                        enc.restore(&before_last);
                    } else {
                        before_last = enc.checkpoint();
                        last_ts = Some(t);
                    }
                    enc.append(Timestamp(t), v);
                }
                enc.finish()
            };
            let reference = encode_whole(&logical);
            prop_assert_eq!(
                streamed.to_bytes(),
                reference.to_bytes(),
                "streaming bytes diverged from re-encode (start={}, {} raw / {} logical points)",
                start, points.len(), logical.len()
            );
            // And the bytes decode back to the logical content, NaN
            // bit-patterns included.
            let decoded = streamed.decode();
            prop_assert!(decoded.is_ok(), "streamed chunk failed to decode");
            let decoded = decoded.unwrap_or_default();
            prop_assert_eq!(decoded.len(), logical.len());
            for (d, l) in decoded.iter().zip(&logical) {
                prop_assert_eq!(d.0, Timestamp(l.0));
                prop_assert_eq!(d.1.to_bits(), l.1.to_bits(), "value bits diverged");
            }
        }
    }

    /// A cut checkpoint taken mid-stream seals to exactly the bytes of
    /// whole-encoding the prefix — the seal path's "no re-walk" guarantee.
    #[test]
    fn cut_checkpoint_seals_prefix_byte_identically(
        spec in series_strategy(),
        cut_seed in 0usize..40,
    ) {
        let (start, steps) = spec;
        let points = points_of(start, &steps);
        let logical = dedup_lww(&points);
        let cut = cut_seed % logical.len().max(1);
        // Stream with the cut checkpoint captured at logical index `cut`.
        let mut enc = GorillaEncoder::new();
        let mut before_last = enc.checkpoint();
        let mut last_ts: Option<i64> = None;
        let mut cut_ck = None;
        for &(t, v) in &points {
            if last_ts == Some(t) {
                enc.restore(&before_last);
            } else {
                if enc.count() as usize == cut && cut_ck.is_none() {
                    cut_ck = Some(enc.checkpoint());
                }
                before_last = enc.checkpoint();
                last_ts = Some(t);
            }
            enc.append(Timestamp(t), v);
        }
        if let Some(ck) = cut_ck {
            enc.restore(&ck);
            let prefix = enc.finish();
            let reference = encode_whole(logical.get(..cut).unwrap_or_default());
            prop_assert_eq!(
                prefix.to_bytes(),
                reference.to_bytes(),
                "cut at {} diverged from prefix re-encode", cut
            );
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

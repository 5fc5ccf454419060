//! Seal-time materialized rollups: pre-downsampled per-bucket summaries
//! written alongside each sealed chunk (OpenTSDB-style), so dashboard
//! downsample queries over sealed data are served without re-decoding the
//! Gorilla bitstream.
//!
//! The non-negotiable property is **byte-identity with the raw path**: a
//! rollup-served value must be bit-for-bit the value `Aggregator::apply`
//! would produce over the bucket's decoded points. f64 addition is not
//! associative, so every accumulator here replays the *exact* fold the raw
//! aggregators use — `sum` starts at `-0.0` (std's `Sum<f64>` identity:
//! `-0.0 + x == x` for every `x`, including `-0.0`, where `0.0 + -0.0`
//! would flip the sign) and adds points in time order, `min`/`max` fold from
//! `±INFINITY` through the raw path's own `min_step`/`max_step` (a NaN
//! never wins; of equal zeros the first stays). Aggregators that need the full sample
//! (`Median`, `P95`, `Dev`) and `First`, which no dashboard asks for, are
//! never rollup-served.
//!
//! A bucket ([`RollupBucket`]) is its start as a `u32` count of intervals
//! from the chunk's *base* (the first point's bucket start,
//! `align_down(interval)`), its point count, and the four folds. A chunk
//! spans less than 2²⁶ seconds and the interval is at least one second, so
//! the offset fits; where it would not, [`seal_chunk`] builds no block
//! and the chunk is served raw.
//!
//! **Block layout.** A sealed chunk keeps its buckets as one
//! [`RollupBlock`], folded in the walk that encodes the chunk
//! ([`seal_chunk`]):
//!
//! * header — five LEB128 varints: the bucket count `n`, then the byte
//!   lengths of the `sum`, `min`, `max` and `last` columns;
//! * integer section, bit-packed and padded with zeros to a byte — the
//!   offsets as runs of equal deltas (the first from 0), then the counts as
//!   runs of equal values, each run an Elias-gamma `value + 1` and an
//!   Elias-gamma length; the runs of a column add up to `n`;
//! * four float columns, `sum`, `min`, `max`, `last`, each coded as a
//!   chunk's value column is (`gorilla::Coding`): one header byte, the
//!   column's decimal exponent or the XOR marker, then a zero-padded
//!   bitstream. A bucket's `min`, `max` and `last` are readings, so they
//!   sit on the payload's grid; a `sum` rarely does and stays XOR.
//!
//! The integer section takes the bytes the header leaves, so a block's
//! length is fixed by its header: a truncated block never parses.
//!
//! A query decodes a block at most once per chunk, into `BlockColumns`:
//! the offsets plus the columns its aggregator reads (`Avg`: counts and
//! `sum`; `Max`: `max`). A block whose header, runs or columns do not add
//! up — a short or garbled block — decodes to nothing, and its buckets are
//! served raw. A block carries no checksum: a flipped significand bit
//! decodes to a wrong value unseen, which is why a flipped chunk drops its
//! block rather than keep it. The open buffer's per-query fold stays plain
//! [`RollupBucket`]s.

use crate::bits::{BitReader, BitWriter};
use crate::gorilla::{
    ChunkEncoder, Coding, CompressedChunk, DecimalDecoder, ValueDecoder, ValueEncoder, XorDecoder,
};
use crate::query::{max_step, min_step, Aggregator};
use ctt_core::time::{Span, Timestamp};

/// Pre-aggregated summary of one rollup bucket.
///
/// Folded from a chunk's sorted, deduplicated points at seal time (and
/// then encoded into the chunk's [`RollupBlock`]), or from the open
/// buffer at query time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RollupBucket {
    /// Bucket start as a count of rollup intervals from the chunk's base.
    pub offset: u32,
    /// Points in the bucket.
    pub count: u32,
    /// Sum folded from `-0.0` in time order (bit-identical to `iter().sum()`).
    pub sum: f64,
    /// Minimum folded from `+∞` through `min_step`.
    pub min: f64,
    /// Maximum folded from `-∞` through `max_step`.
    pub max: f64,
    /// Last value in time order.
    pub last: f64,
}

impl RollupBucket {
    /// The empty bucket at `offset`: every fold at its identity element
    /// (`-0.0 + v`, not `v` and not `0.0 + v`: std's `iter().sum()` folds
    /// from `-0.0`, so the raw sum of `[-0.0]` is `-0.0`, and Avg divides
    /// this sum, so the sign of zero is observable).
    fn empty(offset: u32) -> RollupBucket {
        RollupBucket {
            offset,
            count: 0,
            sum: -0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: f64::NAN,
        }
    }

    /// Fold the bucket's next point (time order).
    #[inline]
    fn add(&mut self, v: f64) {
        self.count = self.count.saturating_add(1);
        self.sum += v;
        self.min = min_step(self.min, v);
        self.max = max_step(self.max, v);
        self.last = v;
    }

    /// The value [`Aggregator::apply`] would produce over this bucket's
    /// points, or `None` for aggregators rollups do not serve.
    pub fn value_for(&self, agg: Aggregator) -> Option<f64> {
        Some(match agg {
            Aggregator::Avg => self.sum / f64::from(self.count),
            Aggregator::Sum => self.sum,
            Aggregator::Min => self.min,
            Aggregator::Max => self.max,
            Aggregator::Count => f64::from(self.count),
            Aggregator::Last => self.last,
            Aggregator::First | Aggregator::Median | Aggregator::P95 | Aggregator::Dev => {
                return None
            }
        })
    }
}

/// Whether an aggregator can ever be served from rollups.
pub fn rollup_servable(agg: Aggregator) -> bool {
    !matches!(
        agg,
        Aggregator::First | Aggregator::Median | Aggregator::P95 | Aggregator::Dev
    )
}

/// Fold the time-sorted `points` into one bucket per occupied interval, in
/// time order, handing each to `emit` as it closes — one walk, one
/// division per bucket and one compare per point — and every point to
/// `each` first. Offsets count from the first point's
/// `align_down(interval)`; empty buckets are not materialized. `None`
/// when an offset does not fit in `u32`: the fold stops there (after
/// emitting the buckets before it), the walk does not.
fn fold_buckets(
    points: &[(Timestamp, f64)],
    interval: Span,
    mut each: impl FnMut(Timestamp, f64),
    mut emit: impl FnMut(&RollupBucket),
) -> Option<()> {
    let Some(&(first, _)) = points.first() else {
        return Some(());
    };
    let base = first.align_down(interval);
    // The bucket being folded and its end (`None`: past `i64`, so every
    // later point falls in it).
    let mut open: Option<(Option<i64>, RollupBucket)> = None;
    let mut fits = true;
    for &(t, v) in points {
        each(t, v);
        if !fits {
            continue;
        }
        match &mut open {
            Some((end, bucket)) if end.is_none_or(|end| t.0 < end) => bucket.add(v),
            _ => {
                if let Some((_, done)) = open.take() {
                    emit(&done);
                }
                let start = t.align_down(interval);
                match offset_of(base, interval, start).and_then(|o| u32::try_from(o).ok()) {
                    Some(offset) => {
                        let mut bucket = RollupBucket::empty(offset);
                        bucket.add(v);
                        open = Some((start.0.checked_add(interval.as_seconds()), bucket));
                    }
                    None => fits = false,
                }
            }
        }
    }
    if let Some((_, done)) = &open {
        emit(done);
    }
    fits.then_some(())
}

/// Seal a chunk's points (time-sorted and deduplicated, neighbours less
/// than 2²⁶ s apart): encode the chunk and fold its rollup buckets in one
/// walk, then encode the block. The block is `None` when an offset does
/// not fit in `u32`: such a chunk is served raw.
pub(crate) fn seal_chunk(
    points: &[(Timestamp, f64)],
    interval: Span,
) -> (CompressedChunk, Option<RollupBlock>) {
    let mut chunk = ChunkEncoder::for_points(points);
    // One bucket per interval the points span, at most one per point.
    let spanned = match (points.first(), points.last()) {
        (Some(&(first, _)), Some(&(last, _))) => {
            last.0.saturating_sub(first.align_down(interval).0) / interval.as_seconds().max(1) + 1
        }
        _ => 0,
    };
    let mut buckets = Vec::with_capacity(points.len().min(usize::try_from(spanned).unwrap_or(0)));
    let fits = fold_buckets(
        points,
        interval,
        |t, v| chunk.push(t, v),
        |b| buckets.push(*b),
    );
    (chunk.finish(), fits.map(|()| encode_block(&buckets)))
}

/// The fold [`seal_chunk`] encodes, kept as plain buckets: the open
/// buffer's per-query fold.
pub(crate) fn fold_rollups(
    points: &[(Timestamp, f64)],
    interval: Span,
) -> Option<Vec<RollupBucket>> {
    let mut out = Vec::new();
    fold_buckets(points, interval, |_, _| {}, |b| out.push(*b))?;
    Some(out)
}

/// How many `interval`s `start` lies after `base`: in a rollup vector
/// based at `base`, the offset of the bucket starting at `start`. `None`
/// when `start` is off the interval grid `base` sits on, or so far from it
/// that the difference overflows.
pub fn offset_of(base: Timestamp, interval: Span, start: Timestamp) -> Option<i64> {
    let width = interval.as_seconds();
    let diff = start.0.checked_sub(base.0)?;
    (width > 0 && diff % width == 0).then(|| diff / width)
}

/// The rollup bucket at `offset`, if materialized. The vector is sorted by
/// offset, so this is a binary search. A negative offset (a bucket before
/// the base) or one past `u32` finds nothing.
pub fn find_bucket(rollups: &[RollupBucket], offset: i64) -> Option<&RollupBucket> {
    let offset = u32::try_from(offset).ok()?;
    rollups
        .binary_search_by_key(&offset, |b| b.offset)
        .ok()
        .and_then(|i| rollups.get(i))
}

/// One sealed chunk's rollup buckets, encoded (layout in the module doc).
/// Immutable once built: corruption of its chunk drops the whole block
/// rather than patching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupBlock {
    bytes: Box<[u8]>,
}

impl RollupBlock {
    /// Heap bytes the block holds: it is built at its exact length.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Buckets the block holds, read from its header (0 if it has none).
    pub fn buckets(&self) -> u64 {
        read_varint(&mut self.bytes.as_ref()).unwrap_or(0)
    }
}

/// Write a column of `n` integers as runs of equal values, each run an
/// Elias-gamma `value + 1` and an Elias-gamma length.
fn write_runs(w: &mut BitWriter, values: impl Iterator<Item = u32>) {
    let mut run: Option<(u32, u64)> = None;
    for v in values {
        run = match run {
            Some((same, len)) if same == v => Some((same, len + 1)),
            Some((done, len)) => {
                write_gamma(w, u64::from(done) + 1);
                write_gamma(w, len);
                Some((v, 1))
            }
            None => Some((v, 1)),
        };
    }
    if let Some((done, len)) = run {
        write_gamma(w, u64::from(done) + 1);
        write_gamma(w, len);
    }
}

/// Write one float column: its [`Coding`]'s header byte, then its codes,
/// padded to a byte.
fn write_column<I: Iterator<Item = f64> + Clone>(w: &mut BitWriter, values: I) {
    let coding = Coding::choose(values.clone());
    w.write_bits(u64::from(coding.header()), 8);
    let mut enc = ValueEncoder::new(coding);
    for (i, v) in values.enumerate() {
        if i == 0 {
            enc.first(w, v);
        } else {
            enc.push(w, v);
        }
    }
    w.pad_to_byte();
}

/// Encode buckets (sorted by offset) as one [`RollupBlock`].
fn encode_block(buckets: &[RollupBucket]) -> RollupBlock {
    let mut ints = BitWriter::with_capacity(16);
    let mut prev = 0u32;
    write_runs(
        &mut ints,
        buckets.iter().map(|b| {
            let delta = b.offset.wrapping_sub(prev);
            prev = b.offset;
            delta
        }),
    );
    write_runs(&mut ints, buckets.iter().map(|b| b.count));
    let mut floats = BitWriter::with_capacity(16 + buckets.len() * 8);
    let mut lens = [0u64; 4];
    let columns: [fn(&RollupBucket) -> f64; 4] = [|b| b.sum, |b| b.min, |b| b.max, |b| b.last];
    for (len, column) in lens.iter_mut().zip(columns) {
        let before = floats.len_bytes();
        write_column(&mut floats, buckets.iter().map(column));
        *len = (floats.len_bytes() - before) as u64;
    }
    let (ints, floats) = (ints.as_bytes(), floats.as_bytes());
    let [sum, min, max, last] = lens;
    let header = [buckets.len() as u64, sum, min, max, last];
    let len = header.iter().map(|&v| varint_len(v)).sum::<usize>() + ints.len() + floats.len();
    let mut bytes = Vec::with_capacity(len);
    for v in header {
        push_varint(&mut bytes, v);
    }
    bytes.extend_from_slice(ints);
    bytes.extend_from_slice(floats);
    RollupBlock {
        bytes: bytes.into_boxed_slice(),
    }
}

/// The columns of one [`RollupBlock`] an aggregator reads, decoded into
/// buffers a query reuses from chunk to chunk.
#[derive(Debug, Default)]
pub(crate) struct BlockColumns {
    offsets: Vec<u32>,
    /// Filled for `Avg` and `Count` only.
    counts: Vec<u32>,
    /// The one float column the aggregator reads (`sum` for `Avg`).
    values: Vec<f64>,
}

impl BlockColumns {
    /// Decode `block`'s offsets and the columns `agg` reads. `false`, with
    /// nothing held, when the block does not parse or `agg` is not
    /// rollup-servable.
    pub(crate) fn load(&mut self, block: &RollupBlock, agg: Aggregator) -> bool {
        self.clear();
        let ok = self.decode(&block.bytes, agg).is_some();
        if !ok {
            self.clear();
        }
        ok
    }

    fn clear(&mut self) {
        self.offsets.clear();
        self.counts.clear();
        self.values.clear();
    }

    fn decode(&mut self, bytes: &[u8], agg: Aggregator) -> Option<()> {
        let mut rest = bytes;
        let n = read_varint(&mut rest)?;
        let mut lens = [0usize; 4];
        for len in &mut lens {
            *len = usize::try_from(read_varint(&mut rest)?).ok()?;
        }
        let [sum, min, max, last] = lens;
        let floats = sum.checked_add(min)?.checked_add(max)?.checked_add(last)?;
        let (ints, rest) = rest.split_at_checked(rest.len().checked_sub(floats)?)?;
        // Every bucket after the first takes at least one bit of each float
        // column, so a count past their bits is garbage: refuse it before it
        // sizes a buffer.
        let n = usize::try_from(n)
            .ok()
            .filter(|&n| n <= rest.len().saturating_mul(8))?;
        let mut r = BitReader::new(ints);
        let mut prev = 0u32;
        read_runs(&mut r, n, |delta, run| {
            for _ in 0..run {
                // Offsets strictly increase after the first.
                prev = if self.offsets.is_empty() {
                    delta
                } else {
                    prev.checked_add(delta).filter(|_| delta > 0)?
                };
                self.offsets.push(prev);
            }
            Some(())
        })?;
        let keep_counts = matches!(agg, Aggregator::Avg | Aggregator::Count);
        read_runs(&mut r, n, |count, run| {
            if keep_counts {
                self.counts.extend(std::iter::repeat_n(count, run as usize));
            }
            Some(())
        })?;
        if skip_padding(&mut r)? != ints.len() {
            return None;
        }
        let (sum_col, rest) = rest.split_at_checked(sum)?;
        let (min_col, rest) = rest.split_at_checked(min)?;
        let (max_col, last_col) = rest.split_at_checked(max)?;
        let column = match agg {
            Aggregator::Avg | Aggregator::Sum => sum_col,
            Aggregator::Min => min_col,
            Aggregator::Max => max_col,
            Aggregator::Last => last_col,
            Aggregator::Count => return Some(()),
            Aggregator::First | Aggregator::Median | Aggregator::P95 | Aggregator::Dev => {
                return None
            }
        };
        decode_floats(column, n, &mut self.values)
    }

    /// The value [`RollupBucket::value_for`] gives for the bucket at
    /// `offset`, or `None` when no bucket sits there (or the loaded
    /// columns are not `agg`'s).
    pub(crate) fn value_at(&self, offset: i64, agg: Aggregator) -> Option<f64> {
        let offset = u32::try_from(offset).ok()?;
        let i = self.offsets.binary_search(&offset).ok()?;
        Some(match agg {
            Aggregator::Avg => self.values.get(i)? / f64::from(*self.counts.get(i)?),
            Aggregator::Count => f64::from(*self.counts.get(i)?),
            Aggregator::Sum | Aggregator::Min | Aggregator::Max | Aggregator::Last => {
                *self.values.get(i)?
            }
            Aggregator::First | Aggregator::Median | Aggregator::P95 | Aggregator::Dev => {
                return None
            }
        })
    }
}

/// Read a run-length-encoded column of `n` values, handing each run to
/// `f`. `None` on a short stream, a value or run past `u32`, or runs that
/// overshoot `n`.
fn read_runs(r: &mut BitReader, n: usize, mut f: impl FnMut(u32, u32) -> Option<()>) -> Option<()> {
    let mut left = n;
    while left > 0 {
        let value = u32::try_from(read_gamma(r)? - 1).ok()?;
        let run = u32::try_from(read_gamma(r)?).ok()?;
        left = left.checked_sub(run as usize)?;
        f(value, run)?;
    }
    Some(())
}

/// Decode a float column of `n` values into `out`: its header byte names
/// the coding. The column must end in its last byte, padded with zeros:
/// anything else is not what the encoder wrote.
fn decode_floats(column: &[u8], n: usize, out: &mut Vec<f64>) -> Option<()> {
    let (&header, codes) = column.split_first()?;
    let mut r = BitReader::new(codes);
    match Coding::from_header(header)? {
        Coding::Decimal(e) => read_values(&mut r, n, DecimalDecoder::new(e), out)?,
        Coding::Xor => read_values(&mut r, n, XorDecoder::default(), out)?,
    }
    (skip_padding(&mut r)? == codes.len()).then_some(())
}

/// Read `n` values with `dec` into `out`.
fn read_values(
    r: &mut BitReader,
    n: usize,
    mut dec: impl ValueDecoder,
    out: &mut Vec<f64>,
) -> Option<()> {
    if n > 0 {
        out.reserve(n);
        out.push(dec.first(r)?);
        for _ in 1..n {
            out.push(dec.next(r).ok()?);
        }
    }
    Some(())
}

/// Consume the zero bits that pad `r` to a byte boundary and return the
/// byte position reached; `None` if a padding bit is set.
fn skip_padding(r: &mut BitReader) -> Option<usize> {
    let pad = (r.remaining_bits() % 8) as u8;
    (r.read_bits(pad)? == 0).then(|| r.position_bytes())
}

/// Elias gamma code of `x ≥ 1` (at most 2³²): ⌊log₂ x⌋ zeros, then `x`.
fn write_gamma(w: &mut BitWriter, x: u64) {
    let z = (63 - x.leading_zeros()) as u8;
    w.write_bits(0, z);
    w.write_bits(x, z + 1);
}

fn read_gamma(r: &mut BitReader) -> Option<u64> {
    let mut z = 0u8;
    while !r.read_bit()? {
        z += 1;
        if z > 32 {
            return None;
        }
    }
    Some((1 << z) | r.read_bits(z)?)
}

fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// LEB128: seven bits a byte, low group first, high bit set on all but
/// the last byte.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn read_varint(bytes: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = bytes.split_first()?;
        *bytes = rest;
        v |= u64::from(b & 0x7f).checked_shl(shift)?;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::tests::{bits, palette, ALL_AGGREGATORS};
    use crate::query::{execute_counted, Downsample, FillPolicy, Query};
    use crate::store::{Tsdb, MAX_OPEN_SPAN_SECS};
    use crate::TagSet;
    use proptest::prelude::*;

    const SERVABLE: [Aggregator; 6] = [
        Aggregator::Avg,
        Aggregator::Sum,
        Aggregator::Min,
        Aggregator::Max,
        Aggregator::Count,
        Aggregator::Last,
    ];

    fn pts(raw: &[(i64, f64)]) -> Vec<(Timestamp, f64)> {
        raw.iter().map(|&(t, v)| (Timestamp(t), v)).collect()
    }

    fn rollups(points: &[(Timestamp, f64)], interval: Span) -> Vec<RollupBucket> {
        fold_rollups(points, interval).expect("offsets fit")
    }

    /// Every bucket of a block, all six columns decoded: `None` when any
    /// column does not.
    fn decode_all(block: &RollupBlock) -> Option<Vec<RollupBucket>> {
        let mut cols = BlockColumns::default();
        let mut column = |agg| cols.load(block, agg).then(|| cols.values.clone());
        let (sum, min, max, last) = (
            column(Aggregator::Sum)?,
            column(Aggregator::Min)?,
            column(Aggregator::Max)?,
            column(Aggregator::Last)?,
        );
        cols.load(block, Aggregator::Count).then_some(())?;
        let buckets = (0..cols.offsets.len())
            .map(|i| RollupBucket {
                offset: cols.offsets[i],
                count: cols.counts[i],
                sum: sum[i],
                min: min[i],
                max: max[i],
                last: last[i],
            })
            .collect();
        Some(buckets)
    }

    /// A bucket as bits, so NaN payloads and zero signs compare exactly.
    fn bucket_bits(b: &RollupBucket) -> (u32, u32, [u64; 4]) {
        (
            b.offset,
            b.count,
            [b.sum, b.min, b.max, b.last].map(f64::to_bits),
        )
    }

    fn all_bits(buckets: &[RollupBucket]) -> Vec<(u32, u32, [u64; 4])> {
        buckets.iter().map(bucket_bits).collect()
    }

    fn encode(buckets: &[RollupBucket]) -> RollupBlock {
        encode_block(buckets)
    }

    /// The block of `points` alone, no chunk encoded: the fold, encoded.
    fn build_rollups(points: &[(Timestamp, f64)], interval: Span) -> Option<RollupBlock> {
        fold_rollups(points, interval).map(|b| encode_block(&b))
    }

    /// Values a fold must carry bit for bit: signed zeros, infinities,
    /// NaN payloads of both signs, subnormals, extremes, plain readings.
    fn special(k: u8) -> f64 {
        match k {
            0 => 0.0,
            1 => -0.0,
            2 => f64::INFINITY,
            3 => f64::NEG_INFINITY,
            4 => f64::NAN,
            5 => f64::from_bits(0x7ff0_0000_0000_0001), // signaling NaN
            6 => f64::from_bits(0xfff8_dead_beef_0001), // negative NaN, payload
            7 => f64::from_bits(1),                     // smallest subnormal
            8 => -f64::MIN_POSITIVE / 3.0,              // negative subnormal
            9 => f64::MAX,
            10 => 1.5,
            11 => -2.25,
            _ => 412.7,
        }
    }

    #[test]
    fn empty_and_single_bucket_blocks_roundtrip() {
        let empty = build_rollups(&[], Span::hours(1)).expect("no offsets to overflow");
        assert_eq!(empty.buckets(), 0);
        assert_eq!(decode_all(&empty), Some(Vec::new()));
        assert_eq!(decode_all(&encode(&[])), Some(Vec::new()));
        let one = pts(&[(7_200, 3.5)]);
        let block = build_rollups(&one, Span::hours(1)).expect("fits");
        assert_eq!(block.buckets(), 1);
        let folded = rollups(&one, Span::hours(1));
        assert_eq!(
            decode_all(&block).map(|b| all_bits(&b)),
            Some(all_bits(&folded))
        );
        // Four raw first values (32 B), the header and the runs: a lone
        // bucket still fits in the 40 B a flat bucket takes.
        assert!(block.size_bytes() <= 40, "{}", block.size_bytes());
    }

    #[test]
    fn buckets_match_raw_aggregator_folds() {
        let points = pts(&[
            (0, 3.0),
            (100, 1.0),
            (200, 2.0),
            (3600, 10.0),
            (3700, -4.0),
            (7300, 5.5),
        ]);
        let hour = Span::hours(1);
        let rollups = rollups(&points, hour);
        assert_eq!(rollups.len(), 3);
        let block = build_rollups(&points, hour).expect("fits");
        let mut cols = BlockColumns::default();
        for rb in &rollups {
            let start = Timestamp(i64::from(rb.offset) * 3600);
            let offset = offset_of(Timestamp(0), hour, start).expect("on the grid");
            assert_eq!(find_bucket(&rollups, offset), Some(rb));
            let vals: Vec<f64> = points
                .iter()
                .filter(|&&(t, _)| t.align_down(hour) == start)
                .map(|&(_, v)| v)
                .collect();
            for agg in SERVABLE {
                let served = rb.value_for(agg).expect("servable");
                assert!(cols.load(&block, agg));
                let decoded = cols.value_at(offset, agg).expect("decoded bucket");
                assert_eq!(decoded.to_bits(), served.to_bits(), "{agg} {start:?}");
                let raw = agg.apply(&vals);
                assert_eq!(
                    served.to_bits(),
                    raw.to_bits(),
                    "{agg} bucket {start:?}: served {served} vs raw {raw}"
                );
            }
        }
    }

    #[test]
    fn negative_zero_sum_matches_raw_fold() {
        let points = pts(&[(0, -0.0)]);
        let rollups = rollups(&points, Span::hours(1));
        let served = rollups[0].value_for(Aggregator::Sum).unwrap();
        let raw = Aggregator::Sum.apply(&[-0.0]);
        assert_eq!(
            served.to_bits(),
            raw.to_bits(),
            "sum must replay std's -0.0 fold identity bit-for-bit"
        );
        assert_eq!(
            rollups[0].value_for(Aggregator::Avg).unwrap().to_bits(),
            Aggregator::Avg.apply(&[-0.0]).to_bits()
        );
    }

    #[test]
    fn negative_timestamps_align_into_pre_epoch_buckets() {
        // The base is the first point's bucket, -7200; offsets count from it.
        let points = pts(&[(-7199, 1.0), (-3599, 2.0), (-1, 3.0), (0, 4.0)]);
        let rollups = rollups(&points, Span::hours(1));
        let offsets: Vec<u32> = rollups.iter().map(|b| b.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2]);
        assert_eq!(
            rollups[1].count, 2,
            "-3599 and -1 share the [-3600,0) bucket"
        );
    }

    #[test]
    fn first_and_order_sensitive_aggregators_not_servable() {
        for agg in [
            Aggregator::First,
            Aggregator::Median,
            Aggregator::P95,
            Aggregator::Dev,
        ] {
            assert!(!rollup_servable(agg));
            assert_eq!(
                rollups(&pts(&[(0, 1.0)]), Span::hours(1))[0].value_for(agg),
                None
            );
        }
        assert!(SERVABLE.into_iter().all(rollup_servable));
    }

    #[test]
    fn lookups_are_total() {
        let hour = Span::hours(1);
        let base = Timestamp(3600);
        let rollups = rollups(&pts(&[(3601, 1.0), (7200, 2.0), (14400, 3.0)]), hour);
        let find = |start: i64| {
            offset_of(base, hour, Timestamp(start)).and_then(|o| find_bucket(&rollups, o))
        };
        assert_eq!(find(7200).map(|b| b.last), Some(2.0));
        // An empty bucket, a start before the base, one off the interval
        // grid, one past `u32` offsets and the extremes all find nothing.
        for start in [10_800, 0, -3600, 7201, 3600 * (1 << 33), i64::MIN, i64::MAX] {
            assert!(find(start).is_none(), "{start}");
        }
        assert_eq!(offset_of(base, hour, Timestamp(-3600)), Some(-2));
        assert_eq!(
            offset_of(Timestamp(i64::MAX), hour, Timestamp(i64::MIN)),
            None
        );
        assert_eq!(offset_of(base, Span::seconds(0), base), None);
        assert_eq!(offset_of(base, Span::seconds(-60), base), None);
        for offset in [-1, i64::from(u32::MAX) + 1, i64::MIN, i64::MAX] {
            assert!(find_bucket(&rollups, offset).is_none());
        }
    }

    #[test]
    fn offsets_past_u32_build_no_rollups() {
        let points = pts(&[(0, 1.0), (1 << 33, 2.0)]);
        assert_eq!(build_rollups(&points, Span::seconds(1)), None);
        assert_eq!(fold_rollups(&points, Span::seconds(1)), None);
        assert_eq!(
            build_rollups(&[], Span::seconds(1)).map(|r| r.buckets()),
            Some(0)
        );
    }

    /// Whether a sealed chunk's block decodes to the fold of the points
    /// its chunk decodes to, bit for bit.
    fn block_matches_its_chunk(sc: &crate::store::SealedChunk, interval: Span) -> bool {
        let (Some(block), Ok(points)) = (sc.rollups.as_ref(), sc.chunk.decode()) else {
            return false;
        };
        let folded = fold_rollups(&points, interval).map(|b| all_bits(&b));
        folded.is_some() && decode_all(block).map(|b| all_bits(&b)) == folded
    }

    #[test]
    fn sealed_blocks_decode_to_the_fold_of_their_chunk() {
        let mut db = Tsdb::with_layout(64, Span::minutes(10));
        let id = db.intern("m", &TagSet::new());
        let run: Vec<(Timestamp, f64)> =
            (0..1_000).map(|i| (Timestamp(i * 97), i as f64)).collect();
        for &(t, v) in &run {
            db.append(id, t, v);
        }
        db.seal_all();
        let sealed = &db.series[0].sealed;
        assert!(sealed.len() > 1);
        for c in sealed {
            assert!(block_matches_its_chunk(c, Span::minutes(10)));
        }
    }

    #[test]
    fn stats_count_every_sealed_block() {
        let interval = Span::minutes(10);
        let mut db = Tsdb::with_layout(64, interval);
        for s in 0..3i64 {
            let id = db.intern(&format!("m{s}"), &TagSet::new());
            // Readings on a 0.1 grid, as payloads store them.
            for i in 0..500 + 37 * s {
                db.append(id, Timestamp(i * 97), (i % 400) as f64 / 10.0);
            }
        }
        db.seal_all();
        // A flipped chunk drops its block, which then counts nowhere.
        db.flip_chunk_bit(1, 300);
        let sealed: Vec<_> = db.series.iter().flat_map(|s| &s.sealed).collect();
        let blocks: Vec<&RollupBlock> = sealed.iter().filter_map(|c| c.rollups.as_ref()).collect();
        assert_eq!(blocks.len(), sealed.len() - 1);
        let folded: usize = sealed
            .iter()
            .filter(|c| c.rollups.is_some())
            .filter_map(|c| c.chunk.decode().ok())
            .map(|pts| rollups(&pts, interval).len())
            .sum();
        let st = db.stats();
        assert_eq!(st.rollup_buckets, folded as u64);
        assert_eq!(
            blocks.iter().map(|b| b.buckets()).sum::<u64>(),
            st.rollup_buckets
        );
        assert_eq!(
            blocks.iter().map(|b| b.size_bytes()).sum::<usize>(),
            st.rollup_bytes
        );
        // A block is never larger than the flat `offset`, `count` and four
        // `f64` folds (40 B a bucket) it replaces.
        for b in blocks {
            assert!(b.size_bytes() <= 40 * b.buckets() as usize, "{b:?}");
        }
    }

    /// One series written through `append` (which takes NaNs), every
    /// aggregator asked over `[lo, hi)` served and raw.
    fn assert_served_matches_raw(
        db: &Tsdb,
        width: i64,
        lo: i64,
        hi: i64,
    ) -> Result<(), TestCaseError> {
        for agg in ALL_AGGREGATORS {
            let q = Query::range("m", Timestamp(lo), Timestamp(hi)).downsample(Downsample {
                interval: Span::seconds(width),
                aggregator: agg,
                fill: FillPolicy::None,
            });
            let (served, counts) = execute_counted(db, &q, true);
            let (raw, _) = execute_counted(db, &q, false);
            let points = |rs: &[crate::query::QueryResult]| -> Vec<(i64, u64)> {
                rs.iter().flat_map(|r| bits(&r.series.points)).collect()
            };
            prop_assert_eq!(
                points(&served),
                points(&raw),
                "{} over [{}, {})",
                agg,
                lo,
                hi
            );
            if !rollup_servable(agg) {
                prop_assert_eq!(counts.rollup_buckets, 0, "{} is never rollup-served", agg);
            }
        }
        Ok(())
    }

    proptest! {
        /// Served ≡ raw under the offset layout, for all ten aggregators:
        /// one chunk starting anywhere (pre-epoch included), optionally
        /// stretched to `MAX_OPEN_SPAN_SECS - 1` at a 1 s interval, and an
        /// in-order open head folded per query. Windows sit around the
        /// chunk's base (their first buckets lie before it), its end and
        /// the head.
        #[test]
        fn served_matches_raw_on_the_offset_layout(
            origin in -(1i64 << 40)..(1i64 << 40),
            width in prop_oneof![Just(1i64), 1i64..4_000],
            gaps in proptest::collection::vec(1i64..5_000, 1..40),
            stretch in any::<bool>(),
            head in proptest::collection::vec(1i64..900, 0..24),
            kinds in proptest::collection::vec(0u8..9, 1..64),
        ) {
            let mut times = vec![origin];
            for g in gaps {
                times.push(times.last().copied().unwrap_or(origin) + g);
            }
            let far = origin + MAX_OPEN_SPAN_SECS - 1;
            if stretch && times.last().is_some_and(|&t| t < far) {
                times.push(far);
            }
            let mut value = kinds.iter().cycle().map(|&k| palette(k));
            let chunk: Vec<(Timestamp, f64)> =
                times.iter().map(|&t| (Timestamp(t), value.next().unwrap_or(0.0))).collect();
            let mut db = Tsdb::with_layout(4096, Span::seconds(width));
            let id = db.intern("m", &TagSet::new());
            for &(t, v) in &chunk {
                db.append(id, t, v);
            }
            db.seal_all();
            prop_assert_eq!(db.series[0].sealed.len(), 1);
            let end = times.last().copied().unwrap_or(origin);
            let mut t = end;
            let open: Vec<(Timestamp, f64)> = head
                .iter()
                .map(|&g| {
                    t += g;
                    (Timestamp(t), value.next().unwrap_or(0.0))
                })
                .collect();
            for &(t, v) in &open {
                db.append(id, t, v);
            }
            for sealed in &db.series[0].sealed {
                prop_assert!(block_matches_its_chunk(sealed, Span::seconds(width)));
            }
            for anchor in [origin, end, end + 1, t] {
                let a = anchor.div_euclid(width) * width;
                assert_served_matches_raw(&db, width, a - 3 * width, a + 4 * width)?;
                assert_served_matches_raw(&db, width, a - 2 * width + 1, a + 2 * width - 1)?;
            }
        }
    }

    proptest! {
        /// Blocks built from points decode to exactly the buckets the fold
        /// builds: one bucket or many, gaps of empty buckets between them,
        /// any start, and values that keep their bits only if every column
        /// does (signed zeros, infinities, NaN payloads, subnormals).
        #[test]
        fn blocks_decode_to_the_fold_bit_for_bit(
            origin in -(1i64 << 40)..(1i64 << 40),
            width in prop_oneof![Just(1i64), Just(3_600i64), 1i64..4_000],
            gaps in proptest::collection::vec(prop_oneof![1i64..600, 1i64..50_000], 0..200),
            kinds in proptest::collection::vec(0u8..13, 1..64),
        ) {
            let mut t = origin;
            let mut value = kinds.iter().cycle().map(|&k| special(k));
            let mut points = vec![(Timestamp(t), value.next().unwrap_or(0.0))];
            for g in gaps {
                t += g;
                points.push((Timestamp(t), value.next().unwrap_or(0.0)));
            }
            let interval = Span::seconds(width);
            let folded = rollups(&points, interval);
            let block = build_rollups(&points, interval).expect("fits");
            prop_assert_eq!(block.buckets(), folded.len() as u64);
            prop_assert_eq!(decode_all(&block).map(|b| all_bits(&b)), Some(all_bits(&folded)));
        }

        /// Any bucket sequence the encoder can be handed round-trips: offsets
        /// with gaps up to the top of `u32`, counts up to `u32::MAX` (and 0),
        /// and special values in every float column.
        #[test]
        fn encoded_buckets_roundtrip(
            first in any::<u32>(),
            steps in proptest::collection::vec(prop_oneof![Just(1u32), 1u32..1_000, 1u32..u32::MAX], 0..120),
            counts in proptest::collection::vec(prop_oneof![Just(7u32), 0u32..20, Just(u32::MAX), any::<u32>()], 1..40),
            kinds in proptest::collection::vec(0u8..13, 4..64),
        ) {
            let mut offsets = vec![first];
            for step in steps {
                match offsets.last().and_then(|o| o.checked_add(step)) {
                    Some(next) => offsets.push(next),
                    None => break,
                }
            }
            let mut value = kinds.iter().cycle().map(|&k| special(k));
            let mut next = || value.next().unwrap_or(0.0);
            let buckets: Vec<RollupBucket> = offsets
                .iter()
                .zip(counts.iter().cycle())
                .map(|(&offset, &count)| RollupBucket {
                    offset,
                    count,
                    sum: next(),
                    min: next(),
                    max: next(),
                    last: next(),
                })
                .collect();
            let block = encode(&buckets);
            prop_assert_eq!(decode_all(&block).map(|b| all_bits(&b)), Some(all_bits(&buckets)));
            let mut cols = BlockColumns::default();
            for agg in SERVABLE {
                prop_assert!(cols.load(&block, agg));
                for b in &buckets {
                    let served = cols.value_at(i64::from(b.offset), agg).map(f64::to_bits);
                    prop_assert_eq!(served, b.value_for(agg).map(f64::to_bits));
                }
            }
        }

        /// Float columns on one exponent's grid are stored decimal at that
        /// exponent or a smaller one, and a column holding one value off
        /// every grid (a special, or a raw bit pattern) goes XOR, while the
        /// other columns keep their grid. Every column round-trips bit for
        /// bit either way.
        #[test]
        fn grid_and_mixed_columns_roundtrip(
            e in 0u8..19,
            ns in proptest::collection::vec(prop_oneof![-5_000i64..5_000, -(1i64 << 50)..(1i64 << 50)], 4..160),
            poisoned in 0usize..5,
            poison in prop_oneof![(0u8..10).prop_map(special), any::<u64>().prop_map(f64::from_bits)],
            at in any::<usize>(),
        ) {
            let scale = 10f64.powi(i32::from(e));
            let mut grid = ns.iter().map(|&n| n as f64 / scale);
            let mut buckets: Vec<RollupBucket> = (0..ns.len() / 4)
                .map(|i| RollupBucket {
                    offset: i as u32 * 2,
                    count: 1,
                    sum: grid.next().unwrap_or(0.0),
                    min: grid.next().unwrap_or(0.0),
                    max: grid.next().unwrap_or(0.0),
                    last: grid.next().unwrap_or(0.0),
                })
                .collect();
            let off_grid = Coding::choose(std::iter::once(poison)) == Coding::Xor;
            let hit = at % buckets.len();
            if let Some(b) = buckets.get_mut(hit) {
                match poisoned {
                    0 => b.sum = poison,
                    1 => b.min = poison,
                    2 => b.max = poison,
                    3 => b.last = poison,
                    _ => {}
                }
            }
            let block = encode(&buckets);
            prop_assert_eq!(decode_all(&block).map(|b| all_bits(&b)), Some(all_bits(&buckets)));
            // A poison on some grid of its own may or may not share one
            // with the column, so only the clean and the off-grid columns
            // have a coding to check.
            for (column, coding) in column_codings(&block).into_iter().enumerate() {
                prop_assert!(coding.is_some(), "column {} has no coding", column);
                if column != poisoned {
                    prop_assert!(matches!(coding, Some(Coding::Decimal(got)) if got <= e), "column {}: {:?}", column, coding);
                } else if off_grid {
                    prop_assert_eq!(coding, Some(Coding::Xor));
                }
            }
        }
    }

    /// The coding each of a block's four float columns names in its header
    /// byte.
    fn column_codings(block: &RollupBlock) -> [Option<Coding>; 4] {
        let mut rest: &[u8] = &block.bytes;
        let _buckets = read_varint(&mut rest);
        let lens: Vec<usize> = (0..4)
            .map(|_| read_varint(&mut rest).unwrap_or(0) as usize)
            .collect();
        let mut at = rest.len() - lens.iter().sum::<usize>();
        lens.iter()
            .map(|&len| {
                let coding = rest.get(at).and_then(|&h| Coding::from_header(h));
                at += len;
                coding
            })
            .collect::<Vec<_>>()
            .try_into()
            .unwrap_or([None; 4])
    }

    proptest! {
        /// Arbitrary bytes as a block: the decoder refuses them or yields
        /// columns whose lookups are total. It never panics or hangs.
        fn arbitrary_bytes_decode_or_refuse(
            bytes in proptest::collection::vec(any::<u8>(), 0..320),
            agg in 0usize..10,
            probes in proptest::collection::vec(any::<i64>(), 1..8),
        ) {
            let agg = ALL_AGGREGATORS[agg];
            let block = RollupBlock { bytes: bytes.into_boxed_slice() };
            let mut cols = BlockColumns::default();
            if cols.load(&block, agg) {
                prop_assert!(rollup_servable(agg));
                for p in probes.into_iter().chain(cols.offsets.first().map(|&o| i64::from(o))) {
                    let _ = cols.value_at(p, agg);
                }
            } else {
                prop_assert!(cols.offsets.is_empty() && cols.values.is_empty());
            }
            let _ = block.buckets();
        }

        /// A real block cut short refuses every aggregator; one with a
        /// flipped bit or a replaced byte decodes or refuses, never panics.
        fn damaged_blocks_refuse_or_decode(
            gaps in proptest::collection::vec(1i64..2_000, 0..120),
            kinds in proptest::collection::vec(0u8..13, 1..16),
            flip in any::<u64>(),
            byte in any::<u8>(),
        ) {
            let mut t = 0i64;
            let mut value = kinds.iter().cycle().map(|&k| special(k));
            let mut points = vec![(Timestamp(t), value.next().unwrap_or(0.0))];
            for g in gaps {
                t += g;
                points.push((Timestamp(t), value.next().unwrap_or(0.0)));
            }
            let block = build_rollups(&points, Span::seconds(600)).expect("fits");
            let mut cols = BlockColumns::default();
            for len in 0..block.bytes.len() {
                let short = RollupBlock { bytes: block.bytes[..len].into() };
                for agg in SERVABLE {
                    prop_assert!(!cols.load(&short, agg), "{} bytes of {} parsed for {}", len, block.bytes.len(), agg);
                }
            }
            let bit = (flip % (block.bytes.len() as u64 * 8)) as usize;
            let mut flipped = block.bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let mut replaced = block.bytes.clone();
            replaced[bit / 8] = byte;
            for bytes in [flipped, replaced] {
                let garbled = RollupBlock { bytes };
                for agg in SERVABLE {
                    if cols.load(&garbled, agg) {
                        prop_assert_eq!(cols.offsets.len() as u64, garbled.buckets());
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_blocks_never_panic_or_hang() {
        // Each property runs on its own thread under a watchdog: a decoder
        // that loops on a crafted length fails here instead of hanging.
        for property in [
            arbitrary_bytes_decode_or_refuse,
            damaged_blocks_refuse_or_decode,
        ] {
            let (done, watchdog) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                property();
                let _ = done.send(());
            });
            watchdog
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a hostile block hung the decoder");
            runner.join().expect("a hostile block panicked the decoder");
        }
    }

    #[test]
    fn a_garbled_block_is_served_raw() {
        let hour = Span::hours(1);
        let mut db = Tsdb::with_layout(64, hour);
        let id = db.intern("m", &TagSet::new());
        for i in 0..200i64 {
            db.append(id, Timestamp(i * 600), (i % 17) as f64 - 3.0);
        }
        db.seal_all();
        let q = Query::range("m", Timestamp(3_600), Timestamp(100_000)).downsample(Downsample {
            interval: hour,
            aggregator: Aggregator::Avg,
            fill: FillPolicy::None,
        });
        let (intact, intact_counts) = execute_counted(&db, &q, true);
        assert!(intact_counts.rollup_buckets > 20);
        // Cut every block short by one byte: none decodes, so every bucket
        // is answered from the chunks, with the same bits.
        for sc in &mut db.series[0].sealed {
            let block = sc.rollups.as_mut().expect("rollups");
            block.bytes = block.bytes[..block.bytes.len() - 1].into();
        }
        let (served, counts) = execute_counted(&db, &q, true);
        let (raw, _) = execute_counted(&db, &q, false);
        let points = |rs: &[crate::query::QueryResult]| -> Vec<(i64, u64)> {
            rs.iter().flat_map(|r| bits(&r.series.points)).collect()
        };
        assert_eq!(points(&served), points(&raw));
        assert_eq!(points(&served), points(&intact));
        assert_eq!(counts.rollup_buckets, 0);
        assert_eq!(
            counts.raw_buckets,
            intact_counts.raw_buckets + intact_counts.rollup_buckets
        );
    }

    #[test]
    fn a_flipped_chunk_drops_its_block_and_serves_raw() {
        let hour = Span::hours(1);
        let mut db = Tsdb::with_layout(64, hour);
        let id = db.intern("m", &TagSet::new());
        for i in 0..200i64 {
            db.append(id, Timestamp(i * 600), i as f64 * 0.5);
        }
        db.seal_all();
        let blocks = |db: &Tsdb| {
            db.series[0]
                .sealed
                .iter()
                .filter(|c| c.rollups.is_some())
                .count()
        };
        let before = blocks(&db);
        let rollup_bytes = db.stats().rollup_bytes;
        db.flip_chunk_bit(0, 300);
        assert_eq!(blocks(&db), before - 1);
        assert!(db.stats().rollup_bytes < rollup_bytes);
        for lo in [0, 3_600, 7_200] {
            assert_served_matches_raw(&db, 3_600, lo, 120_000).expect("served == raw");
        }
    }
}

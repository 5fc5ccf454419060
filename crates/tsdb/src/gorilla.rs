//! Gorilla compression for time-series chunks (Facebook's in-memory TSDB,
//! VLDB 2015) — delta-of-delta timestamps and XOR-encoded float values.
//!
//! Sensor uplinks arrive on a nearly regular cadence (5 minutes) with
//! slowly-varying values, which is exactly the regime Gorilla exploits: a
//! stable cadence makes almost every timestamp a single `0` bit, and small
//! value changes share exponent/mantissa prefixes so XORs have long
//! zero runs.
//!
//! Encoding details (as in the paper, with 64-bit timestamps):
//! * first timestamp: 64 bits raw; first delta: 27-bit signed
//! * delta-of-delta: `0` | `10`+7 bit | `110`+9 bit | `1110`+12 bit |
//!   `1111`+32 bit (signed, zigzag-free, offset encoded)
//! * first value: 64 bits raw
//! * value XOR: `0` (same) | `10` (within previous leading/trailing window)
//!   | `11` + 5-bit leading + 6-bit length + meaningful bits

use crate::bits::{BitMark, BitReader, BitWriter};
use crate::error::TsdbError;
use ctt_core::time::Timestamp;

/// Streaming Gorilla encoder for one chunk.
#[derive(Debug, Clone)]
pub struct GorillaEncoder {
    w: BitWriter,
    count: u32,
    prev_ts: i64,
    prev_delta: i64,
    prev_value_bits: u64,
    prev_leading: u8,
    prev_trailing: u8,
}

impl Default for GorillaEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GorillaEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        GorillaEncoder {
            w: BitWriter::new(),
            count: 0,
            prev_ts: 0,
            prev_delta: 0,
            prev_value_bits: 0,
            prev_leading: u8::MAX, // "no window yet"
            prev_trailing: 0,
        }
    }

    /// Number of points appended.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Compressed size so far, in bytes.
    pub fn size_bytes(&self) -> usize {
        self.w.len_bytes()
    }

    /// Append one point. Timestamps must be non-decreasing.
    #[inline]
    pub fn append(&mut self, t: Timestamp, value: f64) {
        let ts = t.as_seconds();
        let vbits = value.to_bits();
        if self.count == 0 {
            self.w.write_bits(ts as u64, 64);
            self.w.write_bits(vbits, 64);
        } else {
            // lint:allow(panic): a series seals its sorted buffer, so appends are in time order
            assert!(ts >= self.prev_ts, "out-of-order append to chunk");
            let delta = ts - self.prev_ts;
            if self.count == 1 {
                // First delta: 27-bit offset-encoded (supports up to ~2 years).
                debug_assert!(delta < (1 << 26));
                self.w.write_bits((delta + (1 << 26)) as u64, 27);
            } else {
                let dod = delta - self.prev_delta;
                match dod {
                    0 => self.w.write_bit(false),
                    -63..=64 => {
                        self.w.write_bits(0b10, 2);
                        self.w.write_bits((dod + 63) as u64, 7);
                    }
                    -255..=256 => {
                        self.w.write_bits(0b110, 3);
                        self.w.write_bits((dod + 255) as u64, 9);
                    }
                    -2047..=2048 => {
                        self.w.write_bits(0b1110, 4);
                        self.w.write_bits((dod + 2047) as u64, 12);
                    }
                    _ => {
                        self.w.write_bits(0b1111, 4);
                        self.w.write_bits((dod as i32) as u32 as u64, 32);
                    }
                }
            }
            self.prev_delta = delta;
            // Value XOR encoding.
            let xor = vbits ^ self.prev_value_bits;
            if xor == 0 {
                self.w.write_bit(false);
            } else {
                let leading = (xor.leading_zeros() as u8).min(31);
                let trailing = xor.trailing_zeros() as u8;
                if self.prev_leading != u8::MAX
                    && leading >= self.prev_leading
                    && trailing >= self.prev_trailing
                {
                    // Fits the previous window: control bits `10`, then the
                    // significand — fused into one write when they fit a
                    // u64 together (xor >> prev_trailing has at most `sig`
                    // significant bits here, so the OR never collides).
                    let sig = 64 - self.prev_leading - self.prev_trailing;
                    if sig <= 62 {
                        self.w
                            .write_bits((0b10 << sig) | (xor >> self.prev_trailing), sig + 2);
                    } else {
                        self.w.write_bits(0b10, 2);
                        self.w.write_bits(xor >> self.prev_trailing, sig);
                    }
                } else {
                    // New window: control bits `11`, the 5-bit leading
                    // count, and the 6-bit `sig-1` (sig is 1..=64) — one
                    // 13-bit header — then the significand.
                    let sig = 64 - leading - trailing;
                    let header = (0b11 << 11) | (u64::from(leading) << 6) | u64::from(sig - 1);
                    self.w.write_bits(header, 13);
                    self.w.write_bits(xor >> trailing, sig);
                    self.prev_leading = leading;
                    self.prev_trailing = trailing;
                }
            }
        }
        self.prev_ts = ts;
        self.prev_value_bits = vbits;
        self.count += 1;
    }

    /// Finish, producing the sealed chunk bytes (header + bitstream).
    pub fn finish(self) -> CompressedChunk {
        CompressedChunk {
            count: self.count,
            data: self.w.into_bytes(),
        }
    }

    /// Capture the full encoder state — bitstream position plus the
    /// delta/XOR prediction context — so a later [`Self::restore`] rewinds
    /// to exactly this instant. This is what lets a streaming appender
    /// re-encode the final point (last-write-wins on duplicate timestamps)
    /// or cut a chunk at a bucket boundary without re-walking the stream.
    pub fn checkpoint(&self) -> EncCheckpoint {
        EncCheckpoint {
            mark: self.w.mark(),
            count: self.count,
            prev_ts: self.prev_ts,
            prev_delta: self.prev_delta,
            prev_value_bits: self.prev_value_bits,
            prev_leading: self.prev_leading,
            prev_trailing: self.prev_trailing,
        }
    }

    /// Rewind to a previously captured checkpoint, discarding every point
    /// appended since. The checkpoint must come from this encoder.
    pub fn restore(&mut self, ck: &EncCheckpoint) {
        self.w.truncate_to(&ck.mark);
        self.count = ck.count;
        self.prev_ts = ck.prev_ts;
        self.prev_delta = ck.prev_delta;
        self.prev_value_bits = ck.prev_value_bits;
        self.prev_leading = ck.prev_leading;
        self.prev_trailing = ck.prev_trailing;
    }
}

/// A saved [`GorillaEncoder`] position: the bitstream mark plus the
/// prediction context (previous timestamp, delta, value bits, XOR window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncCheckpoint {
    mark: BitMark,
    count: u32,
    prev_ts: i64,
    prev_delta: i64,
    prev_value_bits: u64,
    prev_leading: u8,
    prev_trailing: u8,
}

/// A sealed compressed chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedChunk {
    count: u32,
    data: Vec<u8>,
}

impl CompressedChunk {
    /// Number of points in the chunk.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Compressed byte size.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Fault injection: flip one bit of the compressed bitstream (index
    /// taken modulo the stream length). Returns `false` when the chunk has
    /// no data bytes to corrupt.
    pub fn flip_bit(&mut self, bit: u64) -> bool {
        if self.data.is_empty() {
            return false;
        }
        let b = bit % (self.data.len() as u64 * 8);
        if let Some(byte) = self.data.get_mut((b / 8) as usize) {
            *byte ^= 1 << (b % 8);
            true
        } else {
            false
        }
    }

    /// Decode all points. A truncated or corrupt bitstream yields a typed
    /// error rather than a panic — chunks can arrive from disk or the wire.
    pub fn decode(&self) -> Result<Vec<(Timestamp, f64)>, TsdbError> {
        let mut out = Vec::with_capacity(self.count as usize);
        if self.count == 0 {
            return Ok(out);
        }
        let truncated = |decoded: usize| TsdbError::TruncatedChunk {
            decoded: decoded as u32,
            expected: self.count,
        };
        let mut r = BitReader::new(&self.data);
        let mut ts = r.read_bits(64).ok_or_else(|| truncated(0))? as i64;
        let mut vbits = r.read_bits(64).ok_or_else(|| truncated(0))?;
        out.push((Timestamp(ts), f64::from_bits(vbits)));
        let mut delta: i64 = 0;
        let mut leading: u8 = 0;
        let mut trailing: u8 = 0;
        for i in 1..self.count {
            let short = truncated(i as usize);
            if i == 1 {
                delta = r.read_bits(27).ok_or(short.clone())? as i64 - (1 << 26);
            } else {
                let dod = if !r.read_bit().ok_or(short.clone())? {
                    0
                } else if !r.read_bit().ok_or(short.clone())? {
                    r.read_bits(7).ok_or(short.clone())? as i64 - 63
                } else if !r.read_bit().ok_or(short.clone())? {
                    r.read_bits(9).ok_or(short.clone())? as i64 - 255
                } else if !r.read_bit().ok_or(short.clone())? {
                    r.read_bits(12).ok_or(short.clone())? as i64 - 2047
                } else {
                    i64::from(r.read_bits(32).ok_or(short.clone())? as u32 as i32)
                };
                delta = delta.wrapping_add(dod);
            }
            ts = ts.wrapping_add(delta);
            // Value.
            if r.read_bit().ok_or(short.clone())? {
                if r.read_bit().ok_or(short.clone())? {
                    leading = r.read_bits(5).ok_or(short.clone())? as u8;
                    let sig = r.read_bits(6).ok_or(short.clone())? as u8 + 1;
                    // A corrupt header can claim leading + sig > 64, which
                    // would underflow `trailing` below. Reject it.
                    if leading + sig > 64 {
                        return Err(TsdbError::InvalidValueWindow {
                            leading,
                            significant: sig,
                        });
                    }
                    trailing = 64 - leading - sig;
                    let bits = r.read_bits(sig).ok_or(short.clone())?;
                    vbits ^= bits << trailing;
                } else {
                    let sig = 64 - leading - trailing;
                    let bits = r.read_bits(sig).ok_or(short.clone())?;
                    vbits ^= bits << trailing;
                }
            }
            out.push((Timestamp(ts), f64::from_bits(vbits)));
        }
        Ok(out)
    }

    /// Serialize to bytes (length-prefixed) for export.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.data.len());
        out.extend_from_slice(&self.count.to_be_bytes());
        out.extend_from_slice(&(self.data.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.data);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctt_core::time::Span;

    fn roundtrip(points: &[(Timestamp, f64)]) {
        let mut enc = GorillaEncoder::new();
        for &(t, v) in points {
            enc.append(t, v);
        }
        let chunk = enc.finish();
        assert_eq!(chunk.count() as usize, points.len());
        let decoded = chunk.decode().expect("roundtrip chunk decodes");
        assert_eq!(decoded.len(), points.len());
        for (i, (&(t, v), &(dt, dv))) in points.iter().zip(&decoded).enumerate() {
            assert_eq!(t, dt, "timestamp {i}");
            assert!(
                v == dv || (v.is_nan() && dv.is_nan()),
                "value {i}: {v} != {dv}"
            );
        }
    }

    #[test]
    fn empty_chunk() {
        let chunk = GorillaEncoder::new().finish();
        assert_eq!(chunk.count(), 0);
        assert!(chunk.decode().expect("empty chunk decodes").is_empty());
    }

    #[test]
    fn single_point() {
        roundtrip(&[(Timestamp(1_483_228_800), 412.5)]);
    }

    #[test]
    fn two_points() {
        roundtrip(&[(Timestamp(100), 1.0), (Timestamp(400), 2.0)]);
    }

    #[test]
    fn regular_cadence_roundtrip() {
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let pts: Vec<_> = (0..500)
            .map(|i| {
                (
                    start + Span::minutes(5 * i),
                    400.0 + (i as f64 * 0.1).sin() * 20.0,
                )
            })
            .collect();
        roundtrip(&pts);
    }

    #[test]
    fn irregular_cadence_roundtrip() {
        // Adaptive sampling: cadence switches 5 → 15 → 60 minutes.
        let start = Timestamp::from_civil(2017, 1, 1, 0, 0, 0);
        let mut t = start;
        let mut pts = Vec::new();
        for i in 0..300i64 {
            let step = if i < 100 {
                5
            } else if i < 200 {
                15
            } else {
                60
            };
            t += Span::minutes(step);
            pts.push((t, f64::from(i as i32) * 0.25 - 3.0));
        }
        roundtrip(&pts);
    }

    #[test]
    fn large_time_jumps() {
        roundtrip(&[
            (Timestamp(0), 1.0),
            (Timestamp(5), 2.0),
            (Timestamp(1_000_000), 3.0), // huge delta-of-delta → 32-bit path
            (Timestamp(1_000_005), 4.0),
        ]);
    }

    #[test]
    fn constant_values_compress_to_single_bits() {
        let start = Timestamp(0);
        let mut enc = GorillaEncoder::new();
        for i in 0..1000i64 {
            enc.append(start + Span::seconds(300 * i), 42.0);
        }
        let chunk = enc.finish();
        // 1000 points × 16 B raw = 16 kB; constant series ≈ 2 bits/point.
        assert!(
            chunk.size_bytes() < 450,
            "constant series took {} bytes",
            chunk.size_bytes()
        );
        roundtrip(
            &(0..1000i64)
                .map(|i| (start + Span::seconds(300 * i), 42.0))
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn sensor_like_series_compresses_well() {
        // Realistic CO2 series: regular cadence, smooth value changes.
        let start = Timestamp::from_civil(2017, 3, 1, 0, 0, 0);
        let mut enc = GorillaEncoder::new();
        let n = 2016; // one week at 5 min
        for i in 0..n {
            let v = 410.0 + 25.0 * ((i as f64) * 0.02).sin() + ((i * 7919) % 13) as f64 * 0.1;
            enc.append(start + Span::minutes(5 * i), v);
        }
        let chunk = enc.finish();
        let raw = n as usize * 16;
        let ratio = raw as f64 / chunk.size_bytes() as f64;
        assert!(ratio > 1.8, "compression ratio {ratio:.2} too low");
    }

    #[test]
    fn special_values() {
        roundtrip(&[
            (Timestamp(0), 0.0),
            (Timestamp(10), -0.0),
            (Timestamp(20), f64::INFINITY),
            (Timestamp(30), f64::NEG_INFINITY),
            (Timestamp(40), f64::NAN),
            (Timestamp(50), f64::MIN_POSITIVE),
            (Timestamp(60), f64::MAX),
        ]);
    }

    #[test]
    fn equal_timestamps_allowed() {
        roundtrip(&[
            (Timestamp(5), 1.0),
            (Timestamp(5), 2.0),
            (Timestamp(5), 3.0),
        ]);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_panics() {
        let mut enc = GorillaEncoder::new();
        enc.append(Timestamp(100), 1.0);
        enc.append(Timestamp(50), 2.0);
    }

    #[test]
    fn checkpoint_restore_yields_identical_bytes() {
        // Rewinding N points and re-appending the same tail must produce a
        // chunk byte-identical to never having rewound — including when the
        // rewind crosses XOR-window renegotiations.
        let pts: Vec<(Timestamp, f64)> = (0..40i64)
            .map(|i| {
                let v = if i % 7 == 0 {
                    f64::NAN
                } else {
                    400.0 + (i as f64) * 1.5
                };
                (Timestamp(i * 300), v)
            })
            .collect();
        let mut straight = GorillaEncoder::new();
        for &(t, v) in &pts {
            straight.append(t, v);
        }
        for cut in [1usize, 13, 25, 39] {
            let mut enc = GorillaEncoder::new();
            for &(t, v) in &pts[..cut] {
                enc.append(t, v);
            }
            let ck = enc.checkpoint();
            // Scribble extra points, then rewind them all.
            for i in 0..5i64 {
                enc.append(Timestamp(pts[cut - 1].0 .0 + 1 + i), 9e9);
            }
            enc.restore(&ck);
            assert_eq!(enc.count() as usize, cut);
            for &(t, v) in &pts[cut..] {
                enc.append(t, v);
            }
            assert_eq!(enc.clone().finish(), straight.clone().finish(), "cut {cut}");
        }
    }

    #[test]
    fn truncated_bitstream_is_an_error_not_a_panic() {
        // Regression: decode() used to .expect() on every read, so a chunk
        // whose bitstream was cut short (disk corruption, partial write)
        // panicked the ingest thread. It must return TruncatedChunk instead.
        let mut enc = GorillaEncoder::new();
        for i in 0..50i64 {
            enc.append(Timestamp(i * 300), 400.0 + i as f64);
        }
        let chunk = enc.finish();
        // Drop trailing payload bytes but keep the point count.
        for cut in 1..chunk.data.len().min(24) {
            let short = CompressedChunk {
                count: chunk.count,
                data: chunk.data[..chunk.data.len() - cut].to_vec(),
            };
            match short.decode() {
                Err(TsdbError::TruncatedChunk { decoded, expected }) => {
                    assert_eq!(expected, 50);
                    assert!(decoded < 50);
                }
                other => panic!("cut {cut}: expected TruncatedChunk, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_value_window_is_an_error_not_a_panic() {
        // Regression: a value header claiming leading + significant > 64
        // underflowed `64 - leading - sig` (u8) and panicked in debug
        // builds. Craft that header by hand: 2 points, second value takes
        // the "new window" path with leading=31, sig=64.
        let mut w = BitWriter::new();
        w.write_bits(0, 64); // first timestamp
        w.write_bits(42.0f64.to_bits(), 64); // first value
        w.write_bits(300 + (1 << 26), 27); // first delta (offset-encoded)
        w.write_bit(true); // value differs
        w.write_bit(true); // new window
        w.write_bits(31, 5); // leading = 31
        w.write_bits(63, 6); // sig - 1 = 63 → sig = 64 → 31 + 64 > 64
        w.write_bits(0, 64);
        let chunk = CompressedChunk {
            count: 2,
            data: w.into_bytes(),
        };
        assert_eq!(
            chunk.decode(),
            Err(TsdbError::InvalidValueWindow {
                leading: 31,
                significant: 64
            })
        );
    }

    #[test]
    fn random_garbage_never_panics() {
        // Any byte soup must decode to Ok or a typed error — never unwind.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..200 {
            let len = (next() % 96) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let chunk = CompressedChunk {
                count: (next() % 64) as u32,
                data,
            };
            let _ = chunk.decode(); // must not panic
            let _ = trial;
        }
    }

    #[test]
    fn a_finished_chunk_holds_exactly_its_bytes() {
        let mut enc = GorillaEncoder::new();
        for i in 0..300i64 {
            enc.append(Timestamp(i * 300), (i as f64).sin());
        }
        let ck = enc.checkpoint();
        enc.append(Timestamp(300 * 300), 1.0);
        let mut rewound = enc.clone();
        rewound.restore(&ck);
        for chunk in [enc.finish(), rewound.finish()] {
            assert_eq!(chunk.data.capacity(), chunk.size_bytes());
        }
    }
}

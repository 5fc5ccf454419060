//! Sealed-chunk compression: Gorilla's timestamp stream (Facebook's
//! in-memory TSDB, VLDB 2015) interleaved with a value column coded one of
//! two ways, chosen once per column when it is sealed.
//!
//! Every value the pipeline stores comes from a fixed-point payload (×10,
//! ×100 or ×2 integers), so it sits on a decimal grid. A **decimal**
//! column stores each value `v` as the integer `n` with
//! `v == (n as f64) / 10^e` bit for bit, for the smallest `e` at which every
//! value of the column round-trips (ALP, Afroozeh, Kuffó and Boncz,
//! SIGMOD 2023): the first `n` as a zigzag integer behind its 6-bit bit
//! length, each later one as its delta in the prefix code the timestamps
//! use. A column with any value off every grid — `-0.0`, NaN, ±∞,
//! `|n| ≥ 2^53`, or readings no fixed point produced — keeps Gorilla's
//! **XOR** coder. The rule has no knob: decimal if every value fits, XOR
//! otherwise, and the encoder checks each value with the expression the
//! decoder uses.
//!
//! A chunk is one header byte — the value column's `e`, or
//! [`XOR_HEADER`] — then one stream, decoded in one pass:
//! * first timestamp: 64 bits raw; first delta: 27 bits, offset-encoded;
//! * each later timestamp's delta-of-delta: `0` | `10`+7 | `110`+9 |
//!   `1110`+12 | `1111`+32 bits;
//! * each value after its timestamp: a decimal delta in the same classes
//!   with a 64-bit escape, or an XOR code — `0` (same) | `10` + the
//!   significand in the previous leading/trailing window | `11` + 5-bit
//!   leading + 6-bit `sig - 1` + the significand (the first value raw).
//!
//! The rollup blocks code their float columns with the same pair of
//! coders ([`Coding`], [`ValueEncoder`], [`ValueDecoder`]), and a block's
//! `sum` column, when its chunk is decimal, with a third one on the
//! chunk's grid ([`GridSumEncoder`]). Decoding only ever wraps integer
//! arithmetic or checks it, so corrupt bytes decode or refuse with a
//! [`TsdbError`]; they never panic.

use crate::bits::{BitReader, BitWriter};
use crate::error::TsdbError;
use ctt_core::time::Timestamp;

/// Largest decimal exponent a column is tried at: ALP's bound for doubles.
/// Every `10^e` up to it is exact in an `f64`.
const MAX_EXPONENT: u8 = 18;

/// Header byte of a column kept by the XOR coder; `0..=MAX_EXPONENT`
/// name a decimal column's exponent, and every other byte is refused.
const XOR_HEADER: u8 = 0xff;

/// Header byte of a rollup block's `sum` column on its chunk's grid:
/// `GRID_SUM_HEADER | e`. [`Coding::from_header`] refuses it, so no value
/// column parses as one.
const GRID_SUM_HEADER: u8 = 0x80;

/// `10^e` for every exponent a column can carry.
const POW10: [f64; MAX_EXPONENT as usize + 1] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18,
];

/// How one value column is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Coding {
    /// Integers `n` with `v == (n as f64) / 10^e`, bit for bit.
    Decimal(u8),
    /// Gorilla's XOR coder.
    Xor,
}

/// `10^e`, or 1 past the table (no column header names such an `e`).
fn scale(e: u8) -> f64 {
    POW10.get(usize::from(e)).copied().unwrap_or(1.0)
}

/// The integer nearest `v · scale`. A value fits only if this integer
/// round-trips.
#[inline]
fn to_grid(v: f64, scale: f64) -> i64 {
    (v * scale).round() as i64
}

/// Whether `v` round-trips bit for bit through the grid of `scale`. The
/// cast saturates, so ±∞ and NaN land far off the grid or on `0`, and
/// `0 / scale` is `+0.0`: neither they nor `-0.0` ever fit.
#[inline]
fn fits(v: f64, scale: f64) -> bool {
    let n = to_grid(v, scale);
    n.unsigned_abs() < 1 << 53 && (n as f64 / scale).to_bits() == v.to_bits()
}

impl Coding {
    /// The coding of a column: the smallest exponent at which every value
    /// fits, else XOR. An exponent below the one a value needs is never
    /// retried, so the search stays near one pass over the values.
    pub(crate) fn choose<I: Iterator<Item = f64> + Clone>(values: I) -> Coding {
        let mut e = 0u8;
        'search: loop {
            for v in values.clone() {
                if fits(v, scale(e)) {
                    continue;
                }
                match (e + 1..=MAX_EXPONENT).find(|&up| fits(v, scale(up))) {
                    Some(up) => {
                        e = up;
                        continue 'search;
                    }
                    None => return Coding::Xor,
                }
            }
            return Coding::Decimal(e);
        }
    }

    /// The column's header byte.
    pub(crate) fn header(self) -> u8 {
        match self {
            Coding::Decimal(e) => e,
            Coding::Xor => XOR_HEADER,
        }
    }

    /// The coding a header byte names, or `None` for a byte no encoder
    /// writes.
    pub(crate) fn from_header(byte: u8) -> Option<Coding> {
        match byte {
            XOR_HEADER => Some(Coding::Xor),
            e if e <= MAX_EXPONENT => Some(Coding::Decimal(e)),
            _ => None,
        }
    }
}

/// Write `d` in Gorilla's delta-of-delta classes: `0` | `10`+7 | `110`+9 |
/// `1110`+12 | `1111` + the low `wide` bits of `d`'s two's complement.
#[inline]
fn write_class(w: &mut BitWriter, d: i64, wide: u8) {
    match d {
        0 => w.write_bit(false),
        -63..=64 => w.write_bits((0b10 << 7) | (d + 63) as u64, 9),
        -255..=256 => w.write_bits((0b110 << 9) | (d + 255) as u64, 12),
        -2047..=2048 => w.write_bits((0b1110 << 12) | (d + 2047) as u64, 16),
        _ => {
            w.write_bits(0b1111, 4);
            w.write_bits(d as u64, wide);
        }
    }
}

/// Read what [`write_class`] wrote (`wide` in `1..=64`); `None` when the
/// stream ends first.
#[inline]
fn read_class(r: &mut BitReader, wide: u8) -> Option<i64> {
    Some(if !r.read_bit()? {
        0
    } else if !r.read_bit()? {
        r.read_bits(7)? as i64 - 63
    } else if !r.read_bit()? {
        r.read_bits(9)? as i64 - 255
    } else if !r.read_bit()? {
        r.read_bits(12)? as i64 - 2047
    } else {
        // Sign-extend the low `wide` bits.
        let shift = 64 - u32::from(wide);
        ((r.read_bits(wide)? << shift) as i64) >> shift
    })
}

/// Writes one value column in its [`Coding`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ValueEncoder {
    /// The grid's scale and the previous integer.
    Decimal { scale: f64, prev: i64 },
    /// Gorilla's XOR coder.
    Xor(XorEncoder),
}

impl ValueEncoder {
    /// An encoder for a column of `coding`; it writes no header.
    pub(crate) fn new(coding: Coding) -> Self {
        match coding {
            Coding::Decimal(e) => ValueEncoder::Decimal {
                scale: scale(e),
                prev: 0,
            },
            Coding::Xor => ValueEncoder::Xor(XorEncoder::default()),
        }
    }

    /// Write the column's first value: a decimal column's integer as its
    /// zigzag code's 6-bit bit length and then the code, an XOR column's
    /// bits raw.
    #[inline]
    pub(crate) fn first(&mut self, w: &mut BitWriter, v: f64) {
        match self {
            ValueEncoder::Decimal { scale, prev } => {
                *prev = to_grid(v, *scale);
                write_first_int(w, *prev);
            }
            ValueEncoder::Xor(xor) => *xor = XorEncoder::start(w, v.to_bits()),
        }
    }

    /// Write a value after the first.
    #[inline]
    pub(crate) fn push(&mut self, w: &mut BitWriter, v: f64) {
        match self {
            ValueEncoder::Decimal { scale, prev } => {
                let n = to_grid(v, *scale);
                write_class(w, n.wrapping_sub(*prev), 64);
                *prev = n;
            }
            ValueEncoder::Xor(xor) => xor.push(w, v.to_bits()),
        }
    }
}

/// Write a decimal column's first integer: its zigzag code's 6-bit bit
/// length, then the code.
#[inline]
fn write_first_int(w: &mut BitWriter, n: i64) {
    let zigzag = ((n << 1) ^ (n >> 63)) as u64;
    let len = 64 - zigzag.leading_zeros() as u8;
    w.write_bits(u64::from(len), 6);
    w.write_bits(zigzag, len);
}

/// Read what [`write_first_int`] wrote.
#[inline]
fn read_first_int(r: &mut BitReader) -> Option<i64> {
    let len = r.read_bits(6)? as u8;
    let zigzag = r.read_bits(len)?;
    Some((zigzag >> 1) as i64 ^ -((zigzag & 1) as i64))
}

/// Reads one value column's codes. `next` gives `Err(None)` when the
/// stream ends first and `Err(Some(_))` on a code no encoder writes.
pub(crate) trait ValueDecoder {
    /// Read the column's first value; `None` when the stream is too short.
    fn first(&mut self, r: &mut BitReader) -> Option<f64>;
    /// Read the next value.
    fn next(&mut self, r: &mut BitReader) -> Result<f64, Option<TsdbError>>;
}

/// Reads a decimal column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecimalDecoder {
    scale: f64,
    prev: i64,
}

impl DecimalDecoder {
    /// A decoder for the grid of exponent `e`.
    pub(crate) fn new(e: u8) -> Self {
        DecimalDecoder {
            scale: scale(e),
            prev: 0,
        }
    }
}

impl ValueDecoder for DecimalDecoder {
    #[inline]
    fn first(&mut self, r: &mut BitReader) -> Option<f64> {
        self.prev = read_first_int(r)?;
        Some(self.prev as f64 / self.scale)
    }

    #[inline]
    fn next(&mut self, r: &mut BitReader) -> Result<f64, Option<TsdbError>> {
        self.prev = self.prev.wrapping_add(read_class(r, 64).ok_or(None)?);
        Ok(self.prev as f64 / self.scale)
    }
}

/// A bucket's grid sum predicted from the last one stored: that grid sum
/// when the two counts agree (or the one before is 0), else that sum
/// scaled by `count / prev_count`, rounded half away from zero. `None`
/// when the product overflows.
#[inline]
fn predict_sum(prev: i64, prev_count: u32, count: u32) -> Option<i64> {
    if count == prev_count {
        return Some(prev);
    }
    let den = i64::from(prev_count);
    if den == 0 {
        return Some(prev);
    }
    let num = prev.checked_mul(i64::from(count))?;
    Some(num.checked_add(num.signum() * (den / 2))? / den)
}

/// The ulp residual `bits(sum) - bits(s / 10^e)`, or `None` (the escape)
/// when it lies past ±2, the two signs differ (`-0.0`, or a sum the grid
/// rounds to `+0.0` from below) or `s` is off the exact range (`|s| ≥
/// 2^53`, as NaN and ±∞ land).
#[inline]
fn grid_residual(sum: f64, s: i64, scale: f64) -> Option<i64> {
    let (bits, grid) = (sum.to_bits(), (s as f64 / scale).to_bits());
    // Of one sign, the two bit patterns are less than 2^63 apart.
    let r = bits.wrapping_sub(grid) as i64;
    (s.unsigned_abs() < 1 << 53 && (bits ^ grid) >> 63 == 0 && (-2..=2).contains(&r)).then_some(r)
}

/// Writes a rollup block's `sum` column on its chunk's grid, exponent `e`,
/// one bucket at a time. A sum whose bits are those of `S as f64 / 10^e`,
/// `S = round(sum · 10^e)`, give or take 2 ulp, is its residual — `0` |
/// `10s` (±1 ulp) | `110s` (±2), `s` the sign — then `S`: the first as a
/// decimal column's first value, each later one less its prediction
/// ([`predict_sum`] from the last `S` stored) in the timestamps' classes.
/// Any other sum — and one whose prediction overflows or misses by 2^31 or
/// more — escapes: `111`, then its 64 bits raw, and it leaves the
/// prediction as it was. So every fold encodes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridSumEncoder {
    e: u8,
    scale: f64,
    /// The last `S` stored and its bucket's count.
    prev: Option<(i64, u32)>,
}

impl GridSumEncoder {
    /// An encoder for the grid of exponent `e` (at most `MAX_EXPONENT`).
    pub(crate) fn new(e: u8) -> Self {
        GridSumEncoder {
            e,
            scale: scale(e),
            prev: None,
        }
    }

    /// The column's header byte.
    pub(crate) fn header(&self) -> u8 {
        GRID_SUM_HEADER | self.e
    }

    /// Write the next bucket's sum.
    #[inline]
    pub(crate) fn push(&mut self, w: &mut BitWriter, count: u32, sum: f64) {
        let s = to_grid(sum, self.scale);
        let coded = grid_residual(sum, s, self.scale).and_then(|r| match self.prev {
            Some((prev, prev_count)) => {
                let delta = s.checked_sub(predict_sum(prev, prev_count, count)?)?;
                Some((r, Some(i32::try_from(delta).ok()?)))
            }
            None => Some((r, None)),
        });
        let Some((r, delta)) = coded else {
            w.write_bits(0b111, 3);
            w.write_bits(sum.to_bits(), 64);
            return;
        };
        match r {
            0 => w.write_bit(false),
            -1 | 1 => w.write_bits(0b100 | u64::from(r < 0), 3),
            _ => w.write_bits(0b1100 | u64::from(r < 0), 4),
        }
        match delta {
            Some(d) => write_class(w, i64::from(d), 32),
            None => write_first_int(w, s),
        }
        self.prev = Some((s, count));
    }
}

/// Reads what [`GridSumEncoder`] wrote, given each bucket's count. Every
/// overflow a corrupt column can reach — the prediction, `S`, a residual
/// below `+0.0` — refuses, and so does an `S` past `2^53`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GridSumDecoder {
    scale: f64,
}

impl GridSumDecoder {
    /// A decoder for the column a header byte names; `None` when it names
    /// no grid sum.
    pub(crate) fn from_header(byte: u8) -> Option<Self> {
        let e = byte
            .checked_sub(GRID_SUM_HEADER)
            .filter(|&e| e <= MAX_EXPONENT)?;
        Some(GridSumDecoder { scale: scale(e) })
    }

    /// Decode one sum per count from `r` onto the end of `out`. Every
    /// bucket after the first `S` but an escape is a residual and a delta,
    /// both named by the first byte of its codes ([`GRID_CODES`]): a run
    /// of them is read from one peeked word, a table lookup each.
    pub(crate) fn decode(
        self,
        r: &mut BitReader,
        counts: &[u32],
        out: &mut Vec<f64>,
    ) -> Option<()> {
        let start = out.len();
        out.resize(start + counts.len(), 0.0);
        let mut buckets = out.get_mut(start..)?.iter_mut().zip(counts.iter().copied());
        // Up to the first `S` stored, a bucket at a time.
        let (mut prev, mut prev_count) = loop {
            let Some((slot, count)) = buckets.next() else {
                return Some(());
            };
            let (sum, first) = self.first(r, count)?;
            *slot = sum;
            if let Some(first) = first {
                break first;
            }
        };
        let mut word = r.peek();
        let mut used = 0;
        for (slot, count) in buckets {
            let [mut code, mut payload] = grid_code(word);
            // A peek holds at least 57 bits: past them, peek again. An
            // escape never fits, so it is read here.
            if used + usize::from((code >> 8) as u8) > 57 {
                r.skip(used)?;
                (word, used) = (r.peek(), 0);
                [code, payload] = grid_code(word);
                if code & GRID_ESCAPE != 0 {
                    // On a copy, so that the reader stays in registers.
                    let mut raw = r.clone();
                    raw.skip(3)?;
                    *slot = f64::from_bits(raw.read_bits(64)?);
                    *r = raw;
                    word = r.peek();
                    continue;
                }
            }
            let bits = (word >> ((code >> 16) as u8)) & u64::from(payload as u32);
            let delta = if code & GRID_WIDE != 0 {
                i64::from(bits as u32 as i32)
            } else {
                bits as i64 - (payload >> 32) as i64
            };
            prev = predict_sum(prev, prev_count, count)?.checked_add(delta)?;
            prev_count = count;
            *slot = grid_sum(prev, self.scale, i64::from((code >> 24) as u8 as i8))?;
            let len = usize::from(code as u8);
            word <<= len;
            used += len;
        }
        r.skip(used)
    }

    /// A bucket before any `S` is stored: its sum, and its `S` and count
    /// unless it escaped.
    #[inline]
    fn first(&self, r: &mut BitReader, count: u32) -> Option<(f64, Option<(i64, u32)>)> {
        let [code, _] = grid_code(r.peek());
        if code & GRID_ESCAPE != 0 {
            r.skip(3)?;
            return Some((f64::from_bits(r.read_bits(64)?), None));
        }
        r.skip(usize::from((code >> 32) as u8))?;
        let s = read_first_int(r)?;
        let sum = grid_sum(s, self.scale, i64::from((code >> 24) as u8 as i8))?;
        Some((sum, Some((s, count))))
    }
}

/// The sum a grid integer `s` and its residual rebuild; `None` for an `s`
/// past `2^53` or a residual below `+0.0`.
#[inline]
fn grid_sum(s: i64, scale: f64, residual: i64) -> Option<f64> {
    // `|s| < 2^53` in one compare.
    if s.wrapping_add((1 << 53) - 1) as u64 >= (1 << 54) - 1 {
        return None;
    }
    // Within 2 of a grid value's bits, only `+0.0 - r` wraps, and a wrap
    // leaves the sign.
    let grid = (s as f64 / scale).to_bits();
    let bits = grid.wrapping_add_signed(residual);
    ((bits ^ grid) >> 63 == 0).then_some(f64::from_bits(bits))
}

/// How [`GridSumDecoder::decode`] reads a bucket whose codes start with a
/// given byte, in two words. The first: bits 0–7 the codes' length, 8–15
/// the bits a peek must hold to read them (past any peek for an escape),
/// 16–23 the right shift that leaves the delta's payload in the low bits,
/// 24–31 the residual as an `i8`, 32–39 the residual's length, and the
/// flags [`GRID_WIDE`] (a delta in the widest class, its payload
/// sign-extended) and [`GRID_ESCAPE`]. The second: the payload's mask in
/// bits 0–31 and its bias in 32–63.
const GRID_CODES: [[u64; 2]; 256] = grid_codes();

/// A [`GRID_CODES`] entry's flag for a delta in the widest class.
const GRID_WIDE: u64 = 1 << 40;

/// A [`GRID_CODES`] entry's flag for an escape.
const GRID_ESCAPE: u64 = 1 << 41;

/// The [`GRID_CODES`] entry for the codes at the top of `word`.
#[inline]
fn grid_code(word: u64) -> [u64; 2] {
    GRID_CODES
        .get((word >> 56) as usize)
        .copied()
        .unwrap_or([GRID_ESCAPE | 0xff << 8, 0])
}

const fn grid_codes() -> [[u64; 2]; 256] {
    let mut codes = [[0u64; 2]; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let b = byte as u8;
        // The residual: `0` | `10s` | `110s`; three ones escape.
        let (residual, residual_len) = match b.leading_ones() {
            0 => (0, 1),
            1 => (1, 3),
            2 => (2, 4),
            _ => (0, 0),
        };
        let residual = if residual != 0 && (b >> (8 - residual_len)) & 1 == 1 {
            -residual
        } else {
            residual
        };
        // `write_class`'s classes at 32 bits wide, by the prefix's ones:
        // the code's length, the payload's bits and its bias.
        let ones = (b << residual_len).leading_ones();
        let (class_len, payload, bias) = match ones {
            0 => (1, 0, 0),
            1 => (9, 7, 63),
            2 => (12, 9, 255),
            3 => (16, 12, 2047),
            _ => (36, 32, 0),
        };
        let code = if residual_len == 0 {
            [GRID_ESCAPE | 0xff << 8, 0]
        } else {
            let len = residual_len + class_len;
            // The next code's first byte must be in the peek too.
            let need = if len < 8 { 8 } else { len };
            [
                len as u64
                    | (need as u64) << 8
                    | ((64 - len) as u64) << 16
                    | (residual as u8 as u64) << 24
                    | (residual_len as u64) << 32
                    | if ones > 3 { GRID_WIDE } else { 0 },
                ((1u64 << payload) - 1) | (bias as u64) << 32,
            ]
        };
        let (_, rest) = codes.split_at_mut(byte);
        if let Some(slot) = rest.first_mut() {
            *slot = code;
        }
        byte += 1;
    }
    codes
}

/// Gorilla's XOR float coder. The first value is written raw (64 bits);
/// each later one as its XOR with the value before: `0` (same) | `10` +
/// the significand in the previous leading/trailing window | `11` + 5-bit
/// leading + 6-bit `sig - 1` + the significand.
#[derive(Debug, Clone, Copy)]
pub(crate) struct XorEncoder {
    prev_bits: u64,
    prev_leading: u8,
    prev_trailing: u8,
}

impl Default for XorEncoder {
    fn default() -> Self {
        XorEncoder {
            prev_bits: 0,
            prev_leading: u8::MAX, // "no window yet"
            prev_trailing: 0,
        }
    }
}

impl XorEncoder {
    /// Start a stream: write its first value raw.
    #[inline]
    fn start(w: &mut BitWriter, vbits: u64) -> Self {
        w.write_bits(vbits, 64);
        XorEncoder {
            prev_bits: vbits,
            ..XorEncoder::default()
        }
    }

    /// Write one value after the first.
    #[inline]
    fn push(&mut self, w: &mut BitWriter, vbits: u64) {
        let xor = vbits ^ self.prev_bits;
        self.prev_bits = vbits;
        if xor == 0 {
            w.write_bit(false);
            return;
        }
        let leading = (xor.leading_zeros() as u8).min(31);
        let trailing = xor.trailing_zeros() as u8;
        if self.prev_leading != u8::MAX
            && leading >= self.prev_leading
            && trailing >= self.prev_trailing
        {
            // Fits the previous window: control bits `10`, then the
            // significand — fused into one write when they fit a u64
            // together (xor >> prev_trailing has at most `sig` significant
            // bits here, so the OR never collides).
            let sig = 64 - self.prev_leading - self.prev_trailing;
            if sig <= 62 {
                w.write_bits((0b10 << sig) | (xor >> self.prev_trailing), sig + 2);
            } else {
                w.write_bits(0b10, 2);
                w.write_bits(xor >> self.prev_trailing, sig);
            }
        } else {
            // New window: control bits `11`, the 5-bit leading count, and
            // the 6-bit `sig-1` (sig is 1..=64) — one 13-bit header — then
            // the significand, fused into one write when they fit a u64.
            let sig = 64 - leading - trailing;
            let header = (0b11 << 11) | (u64::from(leading) << 6) | u64::from(sig - 1);
            if sig <= 51 {
                w.write_bits((header << sig) | (xor >> trailing), sig + 13);
            } else {
                w.write_bits(header, 13);
                w.write_bits(xor >> trailing, sig);
            }
            self.prev_leading = leading;
            self.prev_trailing = trailing;
        }
    }
}

/// Reads what [`XorEncoder`] wrote.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct XorDecoder {
    bits: u64,
    leading: u8,
    trailing: u8,
}

impl ValueDecoder for XorDecoder {
    #[inline]
    fn first(&mut self, r: &mut BitReader) -> Option<f64> {
        self.bits = r.read_bits(64)?;
        Some(f64::from_bits(self.bits))
    }

    #[inline]
    fn next(&mut self, r: &mut BitReader) -> Result<f64, Option<TsdbError>> {
        if r.read_bit().ok_or(None)? {
            if r.read_bit().ok_or(None)? {
                let leading = r.read_bits(5).ok_or(None)? as u8;
                let sig = r.read_bits(6).ok_or(None)? as u8 + 1;
                // A corrupt header can claim leading + sig > 64, which
                // would underflow `trailing` below. Reject it.
                if leading + sig > 64 {
                    return Err(Some(TsdbError::InvalidValueWindow {
                        leading,
                        significant: sig,
                    }));
                }
                self.leading = leading;
                self.trailing = 64 - leading - sig;
            }
            let sig = 64 - self.leading - self.trailing;
            self.bits ^= r.read_bits(sig).ok_or(None)? << self.trailing;
        }
        Ok(f64::from_bits(self.bits))
    }
}

/// Encodes one chunk, a point at a time, in the value coding fixed at
/// construction. The seal walk drives it alongside the rollup fold.
#[derive(Debug)]
pub(crate) struct ChunkEncoder {
    w: BitWriter,
    coding: Coding,
    count: u32,
    prev_ts: i64,
    prev_delta: i64,
    values: ValueEncoder,
}

impl ChunkEncoder {
    /// An encoder for exactly `points`, its value coding chosen from all
    /// of their values. Push them next, in order.
    pub(crate) fn for_points(points: &[(Timestamp, f64)]) -> Self {
        let coding = Coding::choose(points.iter().map(|&(_, v)| v));
        // Room for the usual case; a noisier column grows the buffer.
        let per_point = if coding == Coding::Xor { 8 } else { 2 };
        ChunkEncoder {
            w: BitWriter::with_capacity(24 + points.len() * per_point),
            coding,
            count: 0,
            prev_ts: 0,
            prev_delta: 0,
            values: ValueEncoder::new(coding),
        }
    }

    /// The chunk's value coding.
    pub(crate) fn coding(&self) -> Coding {
        self.coding
    }

    /// Append one point. Timestamps must be non-decreasing, each less than
    /// 2²⁶ s after the one before.
    #[inline]
    pub(crate) fn push(&mut self, t: Timestamp, value: f64) {
        let ts = t.as_seconds();
        if self.count == 0 {
            self.w.write_bits(u64::from(self.coding.header()), 8);
            self.w.write_bits(ts as u64, 64);
            self.values.first(&mut self.w, value);
        } else {
            // lint:allow(panic): a series seals its sorted buffer, so points arrive in time order
            assert!(ts >= self.prev_ts, "out-of-order append to chunk");
            let delta = ts - self.prev_ts;
            if self.count == 1 {
                // First delta: 27-bit offset-encoded (supports up to ~2 years).
                debug_assert!(delta < (1 << 26));
                self.w.write_bits((delta + (1 << 26)) as u64, 27);
            } else {
                write_class(&mut self.w, delta - self.prev_delta, 32);
            }
            self.prev_delta = delta;
            self.values.push(&mut self.w, value);
        }
        self.prev_ts = ts;
        self.count += 1;
    }

    /// The sealed chunk, held at its exact length.
    pub(crate) fn finish(self) -> CompressedChunk {
        CompressedChunk {
            count: self.count,
            data: self.w.into_bytes(),
        }
    }
}

/// A sealed compressed chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedChunk {
    count: u32,
    data: Vec<u8>,
}

impl CompressedChunk {
    /// Encode time-sorted points (non-decreasing timestamps, neighbours
    /// less than 2²⁶ s apart) as one chunk. Panics on an out-of-order
    /// point.
    pub fn encode(points: &[(Timestamp, f64)]) -> CompressedChunk {
        let mut enc = ChunkEncoder::for_points(points);
        for &(t, v) in points {
            enc.push(t, v);
        }
        enc.finish()
    }

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
        // Every point after the first takes at least two bits, so a count
        // past that is corrupt and must not size the buffer.
        let mut out = Vec::with_capacity((self.count as usize).min(self.data.len() * 4 + 1));
        if self.count == 0 {
            return Ok(out);
        }
        let (&header, stream) = self.data.split_first().ok_or(TsdbError::TruncatedChunk {
            decoded: 0,
            expected: self.count,
        })?;
        let r = BitReader::new(stream);
        match Coding::from_header(header) {
            Some(Coding::Decimal(e)) => self.decode_into(r, DecimalDecoder::new(e), &mut out)?,
            Some(Coding::Xor) => self.decode_into(r, XorDecoder::default(), &mut out)?,
            None => return Err(TsdbError::UnknownValueCoding { header }),
        }
        Ok(out)
    }

    /// The decode loop, one copy per value decoder.
    #[inline]
    fn decode_into(
        &self,
        mut r: BitReader,
        mut values: impl ValueDecoder,
        out: &mut Vec<(Timestamp, f64)>,
    ) -> Result<(), TsdbError> {
        let truncated = |decoded: usize| TsdbError::TruncatedChunk {
            decoded: decoded as u32,
            expected: self.count,
        };
        let mut ts = r.read_bits(64).ok_or_else(|| truncated(0))? as i64;
        let first = values.first(&mut r).ok_or_else(|| truncated(0))?;
        out.push((Timestamp(ts), first));
        let mut delta: i64 = 0;
        for i in 1..self.count {
            delta = if i == 1 {
                r.read_bits(27).map(|d| d as i64 - (1 << 26))
            } else {
                read_class(&mut r, 32).map(|dod| delta.wrapping_add(dod))
            }
            .ok_or_else(|| truncated(i as usize))?;
            ts = ts.wrapping_add(delta);
            let v = values
                .next(&mut r)
                .map_err(|e| e.unwrap_or_else(|| truncated(i as usize)))?;
            out.push((Timestamp(ts), v));
        }
        Ok(())
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
    use proptest::prelude::*;

    /// Encode, decode, and compare every point bit for bit.
    fn roundtrip(points: &[(Timestamp, f64)]) -> CompressedChunk {
        let chunk = CompressedChunk::encode(points);
        assert_eq!(chunk.count() as usize, points.len());
        let decoded = chunk.decode().expect("roundtrip chunk decodes");
        assert_eq!(decoded.len(), points.len());
        for (i, (&(t, v), &(dt, dv))) in points.iter().zip(&decoded).enumerate() {
            assert_eq!(t, dt, "timestamp {i}");
            assert_eq!(v.to_bits(), dv.to_bits(), "value {i}: {v} != {dv}");
        }
        chunk
    }

    fn header(chunk: &CompressedChunk) -> Option<Coding> {
        Coding::from_header(*chunk.data.first()?)
    }

    #[test]
    fn empty_chunk() {
        let chunk = CompressedChunk::encode(&[]);
        assert_eq!(chunk.count(), 0);
        assert_eq!(chunk.size_bytes(), 0);
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
        let pts: Vec<_> = (0..1000i64)
            .map(|i| (start + Span::seconds(300 * i), 42.0))
            .collect();
        let chunk = roundtrip(&pts);
        // 1000 points × 16 B raw = 16 kB; constant series ≈ 2 bits/point.
        assert!(
            chunk.size_bytes() < 450,
            "constant series took {} bytes",
            chunk.size_bytes()
        );
    }

    #[test]
    fn sensor_like_series_compresses_well() {
        // Realistic CO2 series: regular cadence, smooth value changes.
        let start = Timestamp::from_civil(2017, 3, 1, 0, 0, 0);
        let n = 2016; // one week at 5 min
        let pts: Vec<_> = (0..n)
            .map(|i| {
                let v = 410.0 + 25.0 * ((i as f64) * 0.02).sin() + ((i * 7919) % 13) as f64 * 0.1;
                (start + Span::minutes(5 * i), v)
            })
            .collect();
        let chunk = roundtrip(&pts);
        assert_eq!(header(&chunk), Some(Coding::Xor), "a sine is off the grid");
        let raw = n as usize * 16;
        let ratio = raw as f64 / chunk.size_bytes() as f64;
        assert!(ratio > 1.8, "compression ratio {ratio:.2} too low");
    }

    #[test]
    fn payload_readings_take_about_a_byte_a_point() {
        // A ×10 fixed-point CO2 reading at a 5-minute cadence: one decimal
        // per value, so the column is stored as integers at e = 1.
        let start = Timestamp::from_civil(2017, 3, 1, 0, 0, 0);
        let pts: Vec<_> = (0..512i64)
            .map(|i| {
                let tenths = 4100 + ((i * 7919) % 97) - 48;
                (start + Span::minutes(5 * i), tenths as f64 / 10.0)
            })
            .collect();
        let chunk = roundtrip(&pts);
        assert_eq!(header(&chunk), Some(Coding::Decimal(1)));
        let per_point = chunk.size_bytes() as f64 / 512.0;
        assert!(per_point < 1.5, "{per_point:.2} B per point");
    }

    #[test]
    fn special_values() {
        let chunk = roundtrip(&[
            (Timestamp(0), 0.0),
            (Timestamp(10), -0.0),
            (Timestamp(20), f64::INFINITY),
            (Timestamp(30), f64::NEG_INFINITY),
            (Timestamp(40), f64::NAN),
            (Timestamp(50), f64::MIN_POSITIVE),
            (Timestamp(60), f64::MAX),
        ]);
        assert_eq!(header(&chunk), Some(Coding::Xor));
    }

    #[test]
    fn off_grid_values_never_fit() {
        for v in [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            9_007_199_254_740_992.0, // 2^53
            -9_007_199_254_740_992.0,
            f64::from_bits(1),
            0.1 + 0.2,
        ] {
            assert_eq!(Coding::choose([v].into_iter()), Coding::Xor, "{v:e}");
        }
        assert_eq!(
            Coding::choose([9_007_199_254_740_991.0].into_iter()),
            Coding::Decimal(0)
        );
        assert_eq!(
            Coding::choose([0.0, 1.5, -2.25].into_iter()),
            Coding::Decimal(2)
        );
        assert_eq!(Coding::choose(std::iter::empty()), Coding::Decimal(0));
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
        CompressedChunk::encode(&[(Timestamp(100), 1.0), (Timestamp(50), 2.0)]);
    }

    #[test]
    fn truncated_bitstream_is_an_error_not_a_panic() {
        // Regression: decode() used to .expect() on every read, so a chunk
        // whose bitstream was cut short (disk corruption, partial write)
        // panicked the ingest thread. It must return TruncatedChunk instead,
        // in either value coding.
        for scale in [1.0, 1.1] {
            let pts: Vec<_> = (0..50i64)
                .map(|i| (Timestamp(i * 300), (400.0 + i as f64) * scale))
                .collect();
            let chunk = CompressedChunk::encode(&pts);
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
    }

    #[test]
    fn corrupt_value_window_is_an_error_not_a_panic() {
        // Regression: a value header claiming leading + significant > 64
        // underflowed `64 - leading - sig` (u8) and panicked in debug
        // builds. Craft that header by hand: 2 points, second value takes
        // the "new window" path with leading=31, sig=64.
        let mut w = BitWriter::new();
        w.write_bits(u64::from(XOR_HEADER), 8);
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
    fn an_unknown_header_is_refused() {
        let mut chunk = CompressedChunk::encode(&[(Timestamp(0), 1.5), (Timestamp(300), 2.5)]);
        let grid_sums = (0..=MAX_EXPONENT).map(|e| GridSumEncoder::new(e).header());
        for header in [MAX_EXPONENT + 1, XOR_HEADER - 1]
            .into_iter()
            .chain(grid_sums)
        {
            chunk.data[0] = header;
            assert_eq!(
                chunk.decode(),
                Err(TsdbError::UnknownValueCoding { header })
            );
        }
    }

    /// Decode a grid-sum column written by `write`, one bucket per count.
    fn grid_sums(e: u8, counts: &[u32], write: impl Fn(&mut BitWriter)) -> Option<Vec<f64>> {
        let mut w = BitWriter::new();
        write(&mut w);
        let dec = GridSumDecoder::from_header(GridSumEncoder::new(e).header())?;
        let mut out = Vec::new();
        dec.decode(&mut BitReader::new(w.as_bytes()), counts, &mut out)?;
        Some(out)
    }

    #[test]
    fn grid_sums_that_overflow_refuse() {
        let exact = |w: &mut BitWriter| w.write_bit(false);
        // A stored `S` of 2^52 - 1, then an exact sum at its prediction.
        let near = |w: &mut BitWriter| {
            exact(w);
            write_first_int(w, (1 << 52) - 1);
            exact(w);
            write_class(w, 0, 32);
        };
        let same = grid_sums(0, &[3, 3], near).expect("no overflow");
        assert_eq!(same, [4_503_599_627_370_495.0; 2]);
        // The prediction's product overflows.
        assert_eq!(grid_sums(0, &[1, u32::MAX], near), None);
        // The prediction plus the delta overflows.
        let far = |w: &mut BitWriter| {
            exact(w);
            write_first_int(w, (i64::MAX - 1_000) / 2_047);
            exact(w);
            write_class(w, i64::from(i32::MAX), 32);
        };
        assert_eq!(grid_sums(0, &[1, 2_047], far), None);
        assert!(grid_sums(0, &[1], far).is_some());
        // An `S` of 2^53, which no grid sum stores.
        let wide = |w: &mut BitWriter| {
            exact(w);
            write_first_int(w, 1 << 53);
        };
        assert_eq!(grid_sums(0, &[1], wide), None);
        // A residual of -1 ulp on `+0.0`.
        let below = |w: &mut BitWriter| {
            w.write_bits(0b101, 3);
            write_first_int(w, 0);
        };
        assert_eq!(grid_sums(2, &[1], below), None);
        // Past the end of the column.
        assert_eq!(grid_sums(2, &[1, 1], |w| exact(w)), None);
        for header in [0x7f, 0x80 + MAX_EXPONENT + 1, XOR_HEADER, 0, MAX_EXPONENT] {
            assert!(GridSumDecoder::from_header(header).is_none(), "{header:#x}");
        }
    }

    #[test]
    fn a_finished_chunk_holds_exactly_its_bytes() {
        for scale in [1.0, 0.1, std::f64::consts::PI] {
            let pts: Vec<_> = (0..300i64)
                .map(|i| (Timestamp(i * 300), (i % 50) as f64 * scale))
                .collect();
            let chunk = CompressedChunk::encode(&pts);
            assert_eq!(chunk.data.capacity(), chunk.size_bytes());
        }
    }

    /// Values no grid holds: NaN payloads, ±0.0, ±∞, subnormals, extremes.
    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(0xfff8_dead_beef_0001),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from_bits(1),
        f64::MAX,
    ];

    /// Values a column must carry bit for bit, off the grid or on it:
    /// arbitrary bit patterns, the specials, `n` near 2^53 at every
    /// exponent, and grid values at every exponent.
    fn value() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            (0usize..SPECIALS.len()).prop_map(|i| SPECIALS[i]),
            (0u8..=MAX_EXPONENT, -3i64..=3).prop_map(|(e, d)| ((1i64 << 53) + d) as f64 / scale(e)),
            (0u8..=MAX_EXPONENT, -5_000i64..5_000).prop_map(|(e, n)| n as f64 / scale(e)),
        ]
    }

    /// Points at non-decreasing timestamps, gaps small and large.
    fn with_times(origin: i64, gaps: &[i64], values: &[f64]) -> Vec<(Timestamp, f64)> {
        let mut t = origin;
        values
            .iter()
            .zip(gaps.iter().cycle())
            .map(|(&v, &g)| {
                let p = (Timestamp(t), v);
                t += g;
                p
            })
            .collect()
    }

    proptest! {
        /// Chunks round-trip bit for bit whatever their values hold, and a
        /// chunk's coding is the smallest grid every value fits, else XOR.
        #[test]
        fn chunks_roundtrip_bit_for_bit(
            origin in -(1i64 << 40)..(1i64 << 40),
            gaps in proptest::collection::vec(prop_oneof![0i64..600, 0i64..(1 << 25)], 1..16),
            values in proptest::collection::vec(value(), 1..120),
        ) {
            let points = with_times(origin, &gaps, &values);
            let chunk = roundtrip(&points);
            let coding = Coding::choose(values.iter().copied());
            prop_assert_eq!(header(&chunk), Some(coding));
            match coding {
                Coding::Decimal(e) => {
                    prop_assert!(values.iter().all(|&v| fits(v, scale(e))));
                    for below in 0..e {
                        prop_assert!(!values.iter().all(|&v| fits(v, scale(below))));
                    }
                }
                Coding::Xor => {
                    for e in 0..=MAX_EXPONENT {
                        prop_assert!(!values.iter().all(|&v| fits(v, scale(e))));
                    }
                }
            }
        }

        /// A column on one exponent's grid is stored decimal at that
        /// exponent or a smaller one; one off-grid value anywhere in it
        /// sends the whole column to XOR. Both round-trip bit for bit.
        #[test]
        fn grid_and_mixed_columns_roundtrip(
            e in 0u8..=MAX_EXPONENT,
            ns in proptest::collection::vec(
                prop_oneof![-5_000i64..5_000, -(1i64 << 50)..(1i64 << 50)],
                1..80,
            ),
            poison in 0usize..5,
            at in any::<usize>(),
        ) {
            // |n| < 2^50 keeps `n / 10^e · 10^e` within a quarter of `n`.
            let column: Vec<f64> = ns.iter().map(|&n| n as f64 / scale(e)).collect();
            let poison = [-0.0, f64::NAN, f64::INFINITY, 0.1 + 0.2, 1e300][poison];
            let gaps = [300i64];
            let chunk = roundtrip(&with_times(0, &gaps, &column));
            prop_assert!(matches!(header(&chunk), Some(Coding::Decimal(got)) if got <= e));
            let mut mixed = column.clone();
            mixed.insert(at % (column.len() + 1), poison);
            let chunk = roundtrip(&with_times(0, &gaps, &mixed));
            prop_assert_eq!(header(&chunk), Some(Coding::Xor));
        }
    }

    proptest! {
        /// Arbitrary bytes under any point count: the decoder returns
        /// points or a typed error, never panics or hangs.
        fn arbitrary_chunks_decode_or_refuse(
            data in proptest::collection::vec(any::<u8>(), 0..160),
            header in prop_oneof![Just(XOR_HEADER), 0u8..=MAX_EXPONENT, any::<u8>()],
            count in prop_oneof![0u32..64, any::<u32>()],
        ) {
            let mut data = data;
            if let Some(first) = data.first_mut() {
                *first = header;
            }
            let chunk = CompressedChunk { count, data };
            if let Ok(points) = chunk.decode() {
                prop_assert_eq!(points.len() as u64, u64::from(count));
            }
        }

        /// A real chunk, either coding, with a flipped bit or a replaced
        /// byte decodes or refuses; cut short, it refuses.
        fn damaged_chunks_decode_or_refuse(
            values in proptest::collection::vec(value(), 1..60),
            gaps in proptest::collection::vec(0i64..4_000, 1..8),
            flip in any::<u64>(),
            byte in any::<u8>(),
        ) {
            let chunk = CompressedChunk::encode(&with_times(0, &gaps, &values));
            let bit = (flip % (chunk.data.len() as u64 * 8)) as usize;
            let mut flipped = chunk.clone();
            prop_assert!(flipped.flip_bit(bit as u64));
            let mut replaced = chunk.clone();
            replaced.data[bit / 8] = byte;
            for damaged in [flipped, replaced] {
                if let Ok(points) = damaged.decode() {
                    prop_assert_eq!(points.len(), values.len());
                }
            }
            let short = CompressedChunk {
                count: chunk.count,
                data: chunk.data[..bit / 8].to_vec(),
            };
            prop_assert!(short.decode().is_err());
        }
    }

    #[test]
    fn hostile_chunks_never_panic_or_hang() {
        // Each property runs on its own thread under a watchdog: a decoder
        // that loops on a crafted count fails here instead of hanging.
        for property in [
            arbitrary_chunks_decode_or_refuse,
            damaged_chunks_decode_or_refuse,
        ] {
            let (done, watchdog) = std::sync::mpsc::channel();
            let runner = std::thread::spawn(move || {
                property();
                let _ = done.send(());
            });
            watchdog
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("a hostile chunk hung the decoder");
            runner.join().expect("a hostile chunk panicked the decoder");
        }
    }
}

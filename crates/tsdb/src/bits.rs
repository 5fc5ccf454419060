//! Bit-level reader/writer used by the Gorilla codec and the rollup blocks.

/// Append-only bit writer over a byte vector (MSB-first within bytes).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits used in the final byte (0..8; 0 means byte-aligned).
    used: u8,
}

impl BitWriter {
    /// New empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// New empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            used: 0,
        }
    }

    /// The bytes written so far (the final one possibly partial).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total bits written.
    #[cfg(test)]
    fn len_bits(&self) -> usize {
        if self.used == 0 {
            self.bytes.len() * 8
        } else {
            (self.bytes.len() - 1) * 8 + usize::from(self.used)
        }
    }

    /// Write a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        if self.used == 0 || self.used == 8 {
            self.bytes.push(0);
            self.used = 0;
        }
        if bit {
            if let Some(last) = self.bytes.last_mut() {
                *last |= 1 << (7 - self.used);
            }
        }
        self.used += 1;
    }

    /// Write the lowest `n` bits of `value`, most significant first: the
    /// final byte's free bits first, then the rest as whole big-endian
    /// bytes in one copy. This sits under every Gorilla value encode, where
    /// a noisy double emits 50+ significand bits per point.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        let mut left = u32::from(n);
        // Bits above `n` are ignored, matching the bit-at-a-time contract.
        let value = value & u64::MAX.checked_shr(64 - left).unwrap_or(0);
        if left == 0 {
            return;
        }
        if self.used != 0 && self.used != 8 {
            let free = 8 - u32::from(self.used);
            let take = free.min(left);
            left -= take;
            let chunk = (value >> left) as u8 & ((1u16 << take) - 1) as u8;
            if let Some(last) = self.bytes.last_mut() {
                *last |= chunk << (free - take);
            }
            self.used += take as u8;
            if left == 0 {
                return;
            }
        }
        // Byte-aligned: the remaining `left` bits, top-aligned in a word,
        // are its first `left.div_ceil(8)` big-endian bytes (zero-padded).
        let word = (value << (64 - left)).to_be_bytes();
        self.bytes
            .extend_from_slice(word.get(..left.div_ceil(8) as usize).unwrap_or(&[]));
        self.used = match left % 8 {
            0 => 8,
            rest => rest as u8,
        };
    }

    /// Finish, returning the underlying bytes at their exact length: the
    /// slack that growth by doubling left is released once, here, so a
    /// sealed chunk holds what it counts.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.bytes.shrink_to_fit();
        self.bytes
    }

    /// Byte length so far (including the partial final byte).
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Pad the final byte with zeros, so the next write starts a byte.
    pub fn pad_to_byte(&mut self) {
        if self.used != 0 {
            self.used = 8;
        }
    }
}

/// Bit reader over a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Read from the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos_bits: 0 }
    }

    /// Bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos_bits
    }

    /// Bytes consumed so far, a partly read byte counted whole.
    pub fn position_bytes(&self) -> usize {
        self.pos_bits.div_ceil(8)
    }

    /// Read one bit; `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos_bits / 8)?;
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1 == 1;
        self.pos_bits += 1;
        Some(bit)
    }

    /// The next bits at the top of a word, without consuming them: at
    /// least 57 of them, zeros past the end of the stream.
    #[inline(always)]
    pub fn peek(&self) -> u64 {
        let (at, skip) = (self.pos_bits / 8, self.pos_bits % 8);
        let word = match self.bytes.get(at..at + 8) {
            Some(bytes) => u64::from_be_bytes(<[u8; 8]>::try_from(bytes).unwrap_or_default()),
            // Fewer than eight bytes left: they, then zeros.
            None => self
                .bytes
                .get(at..)
                .unwrap_or(&[])
                .iter()
                .rev()
                .fold(0, |w, &b| (w >> 8) | u64::from(b) << 56),
        };
        word << skip
    }

    /// Consume `n` bits; `None`, consuming nothing, past the end.
    #[inline]
    pub fn skip(&mut self, n: usize) -> Option<()> {
        (n <= self.remaining_bits()).then(|| self.pos_bits += n)
    }

    /// Read `n` bits into the low bits of a u64. Consumes whole bytes per
    /// step (the mirror of [`BitWriter::write_bits`]), so seal-time and
    /// query-time decodes don't pay a call per bit.
    pub fn read_bits(&mut self, n: u8) -> Option<u64> {
        debug_assert!(n <= 64);
        let mut left = usize::from(n);
        if self.remaining_bits() < left {
            return None;
        }
        // Fast path: the bits lie inside one big-endian 8-byte window.
        let (at, skip) = (self.pos_bits / 8, self.pos_bits % 8);
        if left > 0 && left + skip <= 64 {
            if let Some(window) = self.bytes.get(at..at + 8) {
                let word = u64::from_be_bytes(<[u8; 8]>::try_from(window).ok()?);
                self.pos_bits += left;
                return Some((word << skip) >> (64 - left));
            }
        }
        let mut v = 0u64;
        while left > 0 {
            let byte = *self.bytes.get(self.pos_bits / 8)?;
            let offset = self.pos_bits % 8;
            let avail = 8 - offset;
            let take = avail.min(left);
            let chunk = (byte >> (avail - take)) & ((1u16 << take) - 1) as u8;
            v = (v << take) | u64::from(chunk);
            self.pos_bits += take;
            left -= take;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_bits_roundtrip() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.len_bits(), 9);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn multi_bit_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEAD_BEEF, 32);
        w.write_bits(1, 1);
        w.write_bits(u64::MAX, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4), Some(0b1011));
        assert_eq!(r.read_bits(32), Some(0xDEAD_BEEF));
        assert_eq!(r.read_bits(1), Some(1));
        assert_eq!(r.read_bits(64), Some(u64::MAX));
    }

    #[test]
    fn write_bits_matches_bit_by_bit_writes() {
        // Every width at every alignment, with bits above `n` set.
        let mut fast = BitWriter::new();
        let mut slow = BitWriter::new();
        for i in 0..400u64 {
            let n = (i * 7 % 65) as u8;
            let value = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | (u64::MAX << n.min(63));
            fast.write_bits(value, n);
            for bit in (0..n).rev() {
                slow.write_bit((value >> bit) & 1 == 1);
            }
            assert_eq!(fast.len_bits(), slow.len_bits(), "{i}");
            assert_eq!(fast.bytes, slow.bytes, "{i}");
        }
    }

    #[test]
    fn window_reads_match_bit_by_bit_reads() {
        // `read_bits` takes its bits from one 8-byte window wherever one
        // fits, and byte by byte near the end of the stream.
        let mut w = BitWriter::new();
        for i in 0..40u64 {
            w.write_bits(
                i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
                (i % 64 + 1) as u8,
            );
        }
        let bytes = w.into_bytes();
        for start in 0..bytes.len() * 8 {
            for n in 0..=64u8 {
                let mut fast = BitReader::new(&bytes);
                let mut slow = BitReader::new(&bytes);
                for _ in 0..start {
                    fast.read_bit();
                    slow.read_bit();
                }
                let expected =
                    (0..n).try_fold(0u64, |v, _| Some((v << 1) | u64::from(slow.read_bit()?)));
                assert_eq!(fast.read_bits(n), expected, "{n} bits at {start}");
                if expected.is_some() {
                    assert_eq!(fast.remaining_bits(), slow.remaining_bits());
                }
            }
        }
    }

    #[test]
    fn peeks_match_reads_and_skips_stop_at_the_end() {
        // At every position, a peek's top 57 bits are the next 57 read
        // bit by bit, zeros past the end; a skip past the end moves
        // nothing.
        let bytes: Vec<u8> = (0..23u8).map(|i| i.wrapping_mul(0x9d) ^ 0x5a).collect();
        for start in 0..=bytes.len() * 8 {
            let mut r = BitReader::new(&bytes);
            assert_eq!(r.skip(start), Some(()));
            let mut slow = r.clone();
            let expected = (0..57).fold(0u64, |v, _| {
                (v << 1) | u64::from(slow.read_bit().unwrap_or(false))
            });
            assert_eq!(r.peek() >> 7, expected, "at {start}");
            assert_eq!(r.skip(r.remaining_bits() + 1), None);
            assert_eq!(r.position_bytes(), start.div_ceil(8));
        }
    }

    #[test]
    fn read_past_end_is_none() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        // The padding bits of the final byte are readable zeros...
        assert_eq!(r.remaining_bits(), 5);
        assert_eq!(r.read_bits(5), Some(0));
        // ...but beyond that, end of stream.
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(1), None);
    }

    #[test]
    fn zero_bit_write_is_noop() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 0);
        assert_eq!(w.len_bits(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn padding_starts_the_next_byte() {
        let mut w = BitWriter::new();
        w.pad_to_byte();
        assert_eq!(w.len_bits(), 0, "an empty writer needs no padding");
        w.write_bits(0b101, 3);
        w.pad_to_byte();
        assert_eq!(w.len_bits(), 8);
        w.pad_to_byte();
        assert_eq!(w.len_bits(), 8, "an aligned writer stays put");
        w.write_bits(0xAB, 8);
        assert_eq!(w.into_bytes(), vec![0b1010_0000, 0xAB]);
    }

    #[test]
    fn len_bytes_tracks_partial() {
        let mut w = BitWriter::new();
        assert_eq!(w.len_bytes(), 0);
        w.write_bit(true);
        assert_eq!(w.len_bytes(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.len_bytes(), 1);
        w.write_bit(false);
        assert_eq!(w.len_bytes(), 2);
    }
}

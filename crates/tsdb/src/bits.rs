//! Bit-level reader/writer used by the Gorilla codec.

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

    /// Write the lowest `n` bits of `value`, most significant first.
    /// Fills the final byte's free bits in one OR per byte rather than one
    /// call per bit — this sits under every Gorilla value encode, where a
    /// noisy double emits 50+ significand bits per point.
    #[inline]
    pub fn write_bits(&mut self, value: u64, n: u8) {
        debug_assert!(n <= 64);
        let mut left = usize::from(n);
        // Bits above `n` are ignored, matching the bit-at-a-time contract.
        let mut value = if left == 64 {
            value
        } else {
            value & (1u64 << left).wrapping_sub(1)
        };
        while left > 0 {
            if self.used == 0 || self.used == 8 {
                self.bytes.push(0);
                self.used = 0;
            }
            let free = 8 - usize::from(self.used);
            let take = free.min(left);
            let rest = left - take;
            let chunk = (value >> rest) as u8 & ((1u16 << take) - 1) as u8;
            if let Some(last) = self.bytes.last_mut() {
                *last |= chunk << (free - take);
            }
            self.used += take as u8;
            left = rest;
            if rest < 64 {
                value &= (1u64 << rest).wrapping_sub(1);
            }
        }
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

    /// Capture the current write position so a later [`Self::truncate_to`]
    /// can rewind every bit written after this instant. The partial final
    /// byte is saved by value: bits ORed into it after the mark are erased
    /// on rewind, not merely masked.
    pub fn mark(&self) -> BitMark {
        BitMark {
            len: self.bytes.len(),
            used: self.used,
            last: self.bytes.last().copied().unwrap_or(0),
        }
    }

    /// Rewind to a previously captured [`BitMark`], discarding everything
    /// written since. The mark must come from this writer at a position at
    /// or before the current one; a stale longer mark is ignored.
    pub fn truncate_to(&mut self, mark: &BitMark) {
        if mark.len > self.bytes.len() {
            return;
        }
        self.bytes.truncate(mark.len);
        if let Some(last) = self.bytes.last_mut() {
            *last = mark.last;
        }
        self.used = mark.used;
    }
}

/// A saved [`BitWriter`] position: byte length, bits used in the final
/// byte, and the final byte's value at capture time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitMark {
    len: usize,
    used: u8,
    last: u8,
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

    /// Read one bit; `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        let byte = self.bytes.get(self.pos_bits / 8)?;
        let bit = (byte >> (7 - (self.pos_bits % 8))) & 1 == 1;
        self.pos_bits += 1;
        Some(bit)
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
    fn mark_and_truncate_restore_exact_state() {
        let mut w = BitWriter::new();
        w.write_bits(0b101_1011_0101, 11);
        let mark = w.mark();
        let before = w.clone();
        w.write_bits(0xFFFF_FFFF, 32);
        w.write_bit(true);
        w.truncate_to(&mark);
        assert_eq!(w.len_bits(), before.len_bits());
        assert_eq!(w.len_bytes(), before.len_bytes());
        // Continue writing on both and compare the final streams.
        let mut a = w;
        let mut b = before;
        for wtr in [&mut a, &mut b] {
            wtr.write_bits(0b10, 2);
            wtr.write_bits(0xDEAD, 16);
        }
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn truncate_at_byte_boundary_and_empty() {
        // Mark at an exact byte boundary: `used == 8` on the live writer.
        let mut w = BitWriter::new();
        w.write_bits(0xAB, 8);
        let mark = w.mark();
        w.write_bits(0xCD, 8);
        w.truncate_to(&mark);
        assert_eq!(w.len_bits(), 8);
        w.write_bits(0xEF, 8);
        assert_eq!(w.into_bytes(), vec![0xAB, 0xEF]);
        // Mark on an empty writer rewinds to empty.
        let mut w = BitWriter::new();
        let mark = w.mark();
        w.write_bits(0x1234, 16);
        w.truncate_to(&mark);
        assert_eq!(w.len_bits(), 0);
        assert!(w.into_bytes().is_empty());
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

//! The nodes' deterministic noise source: SplitMix64.
//!
//! Each node draws its power-on phase, per-unit calibration errors, noise
//! and glitches from its own stream, seeded from the run seed and its
//! EUI. SplitMix64 is statistically fine for simulation jitter and fixed
//! under a fixed seed; it is not a cryptographic generator. Every stream
//! reaches the `results/` goldens, so the algorithm and the way each draw
//! maps bits to a value must not change.

use std::ops::Range;

/// One SplitMix64 stream.
#[derive(Debug, Clone)]
pub(crate) struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub(crate) fn seed_from_u64(state: u64) -> Self {
        SplitMix64 { state }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `range`; an empty range yields its start. The modulo
    /// bias is negligible for the spans the nodes draw (far below 2^64).
    pub(crate) fn range_i64(&mut self, range: Range<i64>) -> i64 {
        if range.start >= range.end {
            return range.start;
        }
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add((self.next_u64() % span) as i64)
    }

    /// Uniform in `range`, never its excluded end (a draw that rounds up
    /// to it yields the start).
    pub(crate) fn range_f64(&mut self, range: Range<f64>) -> f64 {
        let v = range.start + (range.end - range.start) * self.unit();
        if v >= range.end {
            range.start
        } else {
            v
        }
    }

    /// A Bernoulli trial with success probability `p`.
    pub(crate) fn gen_bool(&mut self, p: f64) -> bool {
        self.unit() < p
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    #[test]
    fn streams_are_pinned() {
        let mut r = SplitMix64::seed_from_u64(42);
        let raw: Vec<u64> = (0..3).map(|_| r.next_u64()).collect();
        assert_eq!(
            raw,
            [
                13_679_457_532_755_275_413,
                2_949_826_092_126_892_291,
                5_139_283_748_462_763_858
            ]
        );
        let mut r = SplitMix64::seed_from_u64(42);
        assert_eq!(r.range_i64(0..300), 13);
        assert_eq!(r.range_f64(-15.0..15.0), -10.202688213692397);
        assert_eq!(r.range_f64(f64::EPSILON..1.0), 0.27860113025513883);
        assert!(r.gen_bool(0.5));
        assert_eq!(r.range_i64(0..1), 0);
    }

    #[test]
    fn draws_respect_their_bounds() {
        let mut r = SplitMix64::seed_from_u64(1);
        for _ in 0..10_000 {
            assert!((-5..7).contains(&r.range_i64(-5..7)));
            assert!((0.25..0.75).contains(&r.range_f64(0.25..0.75)));
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&hits), "hits {hits}");
    }
}

//! Deterministic randomness for every seeded synthetic source: SplitMix64.
//!
//! One finalizer, [`mix64`], backs two kinds of draw. Keyed hashes
//! ([`unit()`], [`channel_hash`], [`value_noise`], [`gauss`]) give weather,
//! traffic, radio shadowing and fading, the NILU station, OCO-2 soundings
//! and the procedural city a value that depends only on its key. The
//! [`SplitMix64`] stream gives each node (power-on phase, calibration
//! errors, noise, glitches) and the chaos engine a sequence from one seed.
//! A new source takes its own salt or channel id, not a copy of the mixer.
//!
//! SplitMix64 is statistically fine for simulation jitter and fixed under a
//! fixed seed; it is not a cryptographic generator. Every draw reaches the
//! `results/` goldens, so the algorithm and the way each draw maps bits to
//! a value must not change.

use std::ops::Range;

/// SplitMix64's increment, the golden-ratio gamma.
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for state `x`: its finalizer applied to `x + γ`.
#[inline]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits of `bits` as a value in `[0, 1)`.
#[inline]
fn to_unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// `key` hashed to a uniform value in `[0, 1)` with 53 bits of precision.
#[inline]
pub fn unit(key: u64) -> f64 {
    to_unit(mix64(key))
}

/// A `(seed, channel, bucket)` triple hashed to a uniform value in
/// `[-1, 1]`.
#[inline]
pub fn channel_hash(seed: u64, channel: u64, bucket: i64) -> f64 {
    unit(seed ^ mix64(channel) ^ mix64(bucket as u64)) * 2.0 - 1.0
}

/// Smooth value noise in `[-1, 1]` at time `t` with period `period_s`: the
/// channel hashes of the two buckets around `t`, smoothstep-interpolated.
#[inline]
pub fn value_noise(seed: u64, channel: u64, t: i64, period_s: i64) -> f64 {
    let bucket = t.div_euclid(period_s);
    let frac = t.rem_euclid(period_s) as f64 / period_s as f64;
    let a = channel_hash(seed, channel, bucket);
    let b = channel_hash(seed, channel, bucket + 1);
    let s = frac * frac * (3.0 - 2.0 * frac);
    a + (b - a) * s
}

/// A standard normal deviate from a hash key: Box–Muller on the units of
/// `key` and `key ^ salt`.
#[inline]
pub fn gauss(key: u64, salt: u64) -> f64 {
    box_muller(unit(key).max(f64::EPSILON), unit(key ^ salt))
}

/// Box–Muller's cosine branch; `u1` must be positive.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A stream whose first draw is `mix64(state)`.
    pub fn seed_from_u64(state: u64) -> Self {
        SplitMix64 { state }
    }

    /// The next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = mix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        to_unit(self.next_u64())
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

    /// A standard normal deviate: Box–Muller on two draws, the first from
    /// `[ε, 1)`.
    pub(crate) fn gauss(&mut self) -> f64 {
        let u1 = self.range_f64(f64::EPSILON..1.0);
        let u2 = self.range_f64(0.0..1.0);
        box_muller(u1, u2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Reference values of the keyed hashes, taken from the per-crate
    /// copies they replace.
    #[test]
    fn keyed_hashes_are_pinned() {
        assert_eq!(mix64(0), 16_294_208_416_658_607_535);
        assert_eq!(mix64(42), 13_679_457_532_755_275_413);
        assert_eq!(mix64(u64::MAX), 16_490_336_266_968_443_936);
        assert_eq!(unit(0), 0.8833108082136426);
        assert_eq!(unit(42), 0.7415648787718233);
        assert_eq!(unit(u64::MAX), 0.8939429202831845);
        assert_eq!(channel_hash(42, 11, 0), -0.40742587702639455);
        assert_eq!(channel_hash(7, 23, -3), -0.4806317020791535);
        assert_eq!(channel_hash(u64::MAX, 29, i64::MAX), -0.7112677257573479);
        assert_eq!(value_noise(42, 11, 450, 900), 0.16327650413642236);
        assert_eq!(value_noise(7, 1, -1_000, 3600), -0.36832906619069533);
        assert_eq!(value_noise(42, 11, 0, 900), channel_hash(42, 11, 0));
        // OCO-2's retrieval noise salt, then propagation's fading salt.
        assert_eq!(gauss(0, 0x5555_AAAA), -0.2273966707190329);
        assert_eq!(gauss(42, 0x5555_AAAA), -0.38187782376649965);
        assert_eq!(gauss(0x60, 0x5555_AAAA), -0.3837711590751988);
        assert_eq!(gauss(0, 0xABCD_EF12), 0.32354927150102164);
        assert_eq!(gauss(42, 0xABCD_EF12), -0.7610589091641378);
        assert_eq!(gauss(0x60, 0xABCD_EF12), -0.18303671430832572);
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

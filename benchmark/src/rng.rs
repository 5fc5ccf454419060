//! Harness-local randomness. Every random choice the benchmark makes —
//! city seeds, query mixes, historic dashboard instants — comes from a
//! SplitMix64 stream derived from `--seed`; the program under test receives
//! only the generated deployments and `Query` values.

/// SplitMix64 (Steele, Lea & Flood): tiny, fast, and every state is valid.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` ≥ 1) by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n.max(1))) >> 64) as u64
    }
}

/// An independent sub-seed for `(seed, a, b)` — epoch and city streams never
/// share state, so adding a draw in one place cannot shift another.
pub fn derive(seed: u64, a: u64, b: u64) -> u64 {
    let mut r = SplitMix64::new(seed ^ a.wrapping_mul(0xA076_1D64_78BD_642F));
    let x = r.next_u64();
    let mut r = SplitMix64::new(x ^ b.wrapping_mul(0xE703_7ED1_A0B4_28DB));
    r.next_u64()
}

/// Zipfian pick over ranks `0..n` with weight `1 / (rank + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Precompute the cumulative weights for `n` ranks (`n` ≥ 1).
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let cdf = (0..n.max(1))
            .map(|i| {
                acc += 1.0 / (i as f64 + 1.0);
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn pick(&self, rng: &mut SplitMix64) -> usize {
        let total = self.cdf.last().copied().unwrap_or(1.0);
        let r = rng.next_f64() * total;
        self.cdf
            .partition_point(|&c| c <= r)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let zipf = Zipf::new(16);
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            let z: Vec<usize> = (0..64).map(|_| zipf.pick(&mut r)).collect();
            let u: Vec<u64> = (0..64).map(|_| r.below(4096)).collect();
            (z, u)
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(16);
        let mut r = SplitMix64::new(7);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[zipf.pick(&mut r)] += 1;
        }
        // Rank 0 carries 1/H(16) ≈ 29.6 % of the mass; rank 15 ≈ 1.8 %.
        assert!(counts[0] > 5_000 && counts[0] < 7_000, "{counts:?}");
        assert!(counts[15] > 200 && counts[15] < 600, "{counts:?}");
        assert!(counts.windows(2).all(|w| w[0] + 300 > w[1]), "{counts:?}");
    }

    #[test]
    fn below_is_uniform_enough_and_bounded() {
        let mut r = SplitMix64::new(1);
        let mut seen = [0usize; 8];
        for _ in 0..8_000 {
            seen[r.below(8) as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800 && c < 1_200), "{seen:?}");
        assert_eq!(r.below(1), 0);
    }

    #[test]
    fn derived_seeds_differ_by_each_argument() {
        let base = derive(42, 0, 0);
        assert_ne!(base, derive(42, 1, 0));
        assert_ne!(base, derive(42, 0, 1));
        assert_ne!(base, derive(43, 0, 0));
        assert_eq!(base, derive(42, 0, 0));
    }
}

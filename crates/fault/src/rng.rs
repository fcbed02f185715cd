/// Seeded random source for fault injection.
///
/// A SplitMix64 generator exposing exactly the primitives the injectors
/// need. Unlike the PRNG tensors of `milr-tensor` (whose stream is part
/// of MILR's *storage format* and must be stable forever), injection
/// randomness only needs to be reproducible per seed; the stream is
/// pinned by a test so campaign and figure runs stay comparable.
#[derive(Debug, Clone)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        // One scramble round so nearby seeds diverge immediately.
        let mut rng = FaultRng {
            state: seed ^ 0x5DEE_CE66_D1CE_4E5B,
        };
        rng.next_u64();
        rng
    }

    /// Advances the state and returns the next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[0, 1)`: the top 53 bits over 2^53.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, bound)` by multiply-shift (Lemire); the
    /// bias is negligible for the spans the injectors draw from.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0): empty range");
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform `u32` over the full range (used to synthesize corrupted
    /// weight bit patterns): the top 32 bits.
    pub fn bits32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Draws the gap to the next Bernoulli success in a stream of trials
    /// with probability `p` (geometric distribution, zero-based).
    ///
    /// Used to skip-sample RBER injection over billions of bits without
    /// testing each bit individually. Below about 1.1e-16, `1 - p`
    /// rounds to `1` and its log to `0`; there `ln(1 - p) ≈ -p` keeps
    /// the gap huge (saturating at `usize::MAX`) instead of zero.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn geometric_gap(&mut self, p: f64) -> usize {
        assert!(p > 0.0 && p <= 1.0, "probability {p} out of range");
        if p >= 1.0 {
            return 0;
        }
        let u = self.unit().max(f64::MIN_POSITIVE);
        let log_q = if 1.0 - p == 1.0 { -p } else { (1.0 - p).ln() };
        (u.ln() / log_q).floor() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = FaultRng::seed(1);
        let mut b = FaultRng::seed(1);
        for _ in 0..32 {
            assert_eq!(a.bits32(), b.bits32());
        }
        let mut c = FaultRng::seed(2);
        assert_ne!(a.bits32(), c.bits32());
    }

    #[test]
    fn stream_is_pinned() {
        // Every seeded campaign, figure and golden run draws from this
        // stream, so changing it must be a deliberate act.
        let mut rng = FaultRng::seed(0xBE7C);
        let bits: Vec<u32> = (0..8).map(|_| rng.bits32()).collect();
        assert_eq!(
            bits,
            [
                0x567b_d363,
                0xa106_31eb,
                0x4231_0132,
                0x4662_9917,
                0x33f1_d360,
                0xce96_d8d4,
                0x6d9e_2b37,
                0xd360_e3dc,
            ]
        );
        assert_eq!(rng.unit().to_bits(), 0x3fe8_cd8f_5fd7_e1aa);
        assert_eq!(rng.below(17), 12);
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let mut rng = FaultRng::seed(3);
        let n = 10_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = FaultRng::seed(4);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "every bucket hit: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn below_zero_panics() {
        FaultRng::seed(8).below(0);
    }

    #[test]
    fn geometric_gap_mean_matches_distribution() {
        let mut rng = FaultRng::seed(5);
        let p = 0.01f64;
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.geometric_gap(p) as f64).sum::<f64>() / n as f64;
        // Expected gap = (1-p)/p ≈ 99.
        let expect = (1.0 - p) / p;
        assert!(
            (mean - expect).abs() < expect * 0.1,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn geometric_gap_p_one_is_zero() {
        let mut rng = FaultRng::seed(6);
        assert_eq!(rng.geometric_gap(1.0), 0);
    }

    #[test]
    fn geometric_gap_below_f64_resolution_is_huge() {
        // 1 - 1e-17 rounds to 1, whose log is 0: the gap must not
        // collapse to zero (which would select every trial).
        for seed in 0..8 {
            let gap = FaultRng::seed(seed).geometric_gap(1e-17);
            assert!(gap > 1_000_000_000_000, "seed {seed}: gap {gap}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn geometric_gap_rejects_zero() {
        FaultRng::seed(7).geometric_gap(0.0);
    }
}

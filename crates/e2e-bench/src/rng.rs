//! The benchmark's own seeded stream (SplitMix64): arrival schedules,
//! input pools, fault targets and disk flips all derive from `--seed`
//! through it, so the program under test never sees the seed.

/// SplitMix64 (Steele, Lea & Flood 2014).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream seeded with `seed`; `salt` separates the independent
    /// streams one seed feeds (arrivals, inputs, faults, ...).
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix64(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
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

    /// Uniform in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_salts_separate() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix64::new(11, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut b = SplitMix64::new(11, 1);
        assert_eq!(a, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], SplitMix64::new(11, 2).next_u64());
    }

    #[test]
    fn uniform_draws_stay_in_range_and_shuffle_permutes() {
        let mut r = SplitMix64::new(3, 0);
        assert!((0..10_000).all(|_| (0.0..1.0).contains(&r.next_f64())));
        assert!((0..10_000).all(|_| r.below(7) < 7));
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}

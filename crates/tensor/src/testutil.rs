//! Value strategies shared by the kernel bit-identity proptests.

use proptest::prelude::*;

/// `f32` draws with the values that break careless kernels
/// over-represented: signed zeros, subnormals, arbitrary finite bit
/// patterns, small multiples of `2^-40`, `1` and `2^40` (whose products
/// span more than f64's 53 bits, so a sum taken in any other order
/// rounds differently) and, with `non_finite`, infinities and NaN.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Awkward {
    pub non_finite: bool,
}

impl Strategy for Awkward {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        let sign = (rng.below(2) as u32) << 31;
        match rng.below(if self.non_finite { 15 } else { 12 }) {
            0..=2 => 0.0,
            3 => -0.0,
            4..=6 => (rng.unit() * 20.0 - 10.0) as f32,
            7 => f32::from_bits(sign | (1 + rng.below(0x007F_FFFF) as u32)),
            8 => loop {
                let x = f32::from_bits(rng.next_u64() as u32);
                if x.is_finite() {
                    break x;
                }
            },
            9..=11 => {
                let scale = [2f32.powi(-40), 1.0, 2f32.powi(40)][rng.below(3) as usize];
                let x = scale * (1 + rng.below(4)) as f32;
                if sign == 0 {
                    x
                } else {
                    -x
                }
            }
            12 => f32::INFINITY,
            13 => f32::NEG_INFINITY,
            _ => f32::NAN,
        }
    }
}

/// A uniform pick from a fixed list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OneOf<T: 'static>(pub &'static [T]);

impl<T: Copy> Strategy for OneOf<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        self.0[rng.below(self.0.len() as u64) as usize]
    }
}

/// ReLU-like activations: every other value is exactly zero, the rest
/// non-negative.
pub(crate) fn relu_like(values: &[f32]) -> Vec<f32> {
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| if i % 2 == 0 { 0.0 } else { v.abs() })
        .collect()
}

/// Bit patterns for exact comparison, with every NaN mapped to one
/// canonical pattern.
///
/// Rust leaves the sign and payload of a NaN produced by arithmetic
/// unspecified, and LLVM may commute an `f64` add, so when two NaNs
/// meet in an accumulator even two inlined copies of the *same* scalar
/// loop can return different NaN bits. Every non-NaN result — zeros'
/// signs, subnormals, infinities — is compared bit for bit.
pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

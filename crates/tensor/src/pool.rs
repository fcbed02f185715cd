use crate::{Result, Tensor, TensorError};

/// Pooling geometry: square window and stride.
///
/// The paper's networks use non-overlapping 2×2 max pooling; the substrate
/// supports arbitrary window/stride combinations with valid semantics
/// (windows that fall entirely inside the input).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolSpec {
    /// Window side length.
    pub window: usize,
    /// Stride along both spatial axes.
    pub stride: usize,
}

impl PoolSpec {
    /// Creates a pool spec.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if window or stride is
    /// zero.
    pub fn new(window: usize, stride: usize) -> Result<Self> {
        if window == 0 || stride == 0 {
            return Err(TensorError::InvalidGeometry(
                "pool window and stride must be positive".into(),
            ));
        }
        Ok(PoolSpec { window, stride })
    }

    /// Output spatial length for an input length.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the window does not
    /// fit.
    pub fn output_dim(&self, input: usize) -> Result<usize> {
        if input < self.window {
            return Err(TensorError::InvalidGeometry(format!(
                "pool window {} larger than input {}",
                self.window, input
            )));
        }
        Ok((input - self.window) / self.stride + 1)
    }
}

/// The pooling geometry of a `(B, H, W, C)` input: `[B, H, W, C, G_h,
/// G_w]`.
pub(crate) fn pool_dims(input: &Tensor, spec: &PoolSpec) -> Result<[usize; 6]> {
    if input.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            op: "pool2d",
            expected: 4,
            actual: input.ndim(),
        });
    }
    let &[b, h, w, c] = input.shape().dims() else {
        unreachable!("rank checked")
    };
    Ok([b, h, w, c, spec.output_dim(h)?, spec.output_dim(w)?])
}

/// Folds every window's channel vectors elementwise into a per-channel
/// accumulator row, visiting the window's pixels in `(dy, dx)` order —
/// per channel the same fold, in the same order, as the scalar
/// reference's per-window reduction.
fn fold_windows<A: Copy>(
    input: &Tensor,
    spec: &PoolSpec,
    init: A,
    step: impl Fn(A, f32) -> A,
    finish: impl Fn(A) -> f32,
) -> Result<Tensor> {
    let [b, h, w, c, gh, gw] = pool_dims(input, spec)?;
    let data = input.data();
    let mut out = vec![0.0f32; b * gh * gw * c];
    if out.is_empty() {
        return Tensor::from_vec(out, &[b, gh, gw, c]);
    }
    let mut acc = vec![init; c];
    let mut rows = out.chunks_exact_mut(c);
    for img in 0..b {
        for i in 0..gh {
            for j in 0..gw {
                acc.fill(init);
                for dy in 0..spec.window {
                    let y = i * spec.stride + dy;
                    for dx in 0..spec.window {
                        let x = j * spec.stride + dx;
                        let px = &data[((img * h + y) * w + x) * c..][..c];
                        for (a, &v) in acc.iter_mut().zip(px) {
                            *a = step(*a, v);
                        }
                    }
                }
                let dst = rows.next().expect("one row per location");
                for (d, &a) in dst.iter_mut().zip(&acc) {
                    *d = finish(a);
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, gh, gw, c])
}

/// `m.max(v)` with its NaN and tie rules spelled out, so the result
/// does not depend on how the fold is vectorized: a NaN running maximum
/// takes `v`, a NaN `v` is skipped, and on a `±0` tie — whose sign
/// `f32::max` leaves unspecified — the earlier value stays.
#[inline(always)]
fn max_step(m: f32, v: f32) -> f32 {
    if v > m || m.is_nan() {
        v
    } else {
        m
    }
}

/// Max pooling over a `(B, H, W, C)` batch.
///
/// Pooling layers are not invertible, so MILR stores an input checkpoint
/// before each one (paper §IV-C); this function only provides the forward
/// semantics. Bit-identical to
/// [`scalar::max_pool2d`](crate::scalar::max_pool2d), up to the sign of
/// a `±0` tie, which `f32::max` leaves unspecified (DESIGN.md §16).
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or non-fitting geometry.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    fold_windows(input, spec, f32::NEG_INFINITY, max_step, |m| m)
}

/// Average pooling over a `(B, H, W, C)` batch: the window sum in
/// `f64`, divided by the window size. Bit-identical to
/// [`scalar::avg_pool2d`](crate::scalar::avg_pool2d).
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or non-fitting geometry.
pub fn avg_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    let len = (spec.window * spec.window) as f64;
    // `-0.0` is the identity `Iterator::sum` starts from, so an all-`-0`
    // window averages to `-0` in both kernels.
    fold_windows(
        input,
        spec,
        -0.0f64,
        |s, v| s + v as f64,
        |s| (s / len) as f32,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar;
    use crate::testutil::{bits, Awkward};
    use proptest::prelude::*;

    fn seq_tensor(dims: &[usize]) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|x| x as f32).collect(), dims).unwrap()
    }

    #[test]
    fn spec_validates() {
        assert!(PoolSpec::new(0, 2).is_err());
        assert!(PoolSpec::new(2, 0).is_err());
        assert_eq!(PoolSpec::new(2, 2).unwrap().output_dim(12).unwrap(), 6);
        assert!(PoolSpec::new(5, 1).unwrap().output_dim(4).is_err());
    }

    #[test]
    fn max_pool_takes_window_maximum() {
        let input = seq_tensor(&[1, 4, 4, 1]);
        let spec = PoolSpec::new(2, 2).unwrap();
        let out = max_pool2d(&input, &spec).unwrap();
        assert_eq!(out.shape().dims(), &[1, 2, 2, 1]);
        assert_eq!(out.data(), &[5.0, 7.0, 13.0, 15.0]);
    }

    #[test]
    fn avg_pool_takes_window_mean() {
        let input = seq_tensor(&[1, 2, 2, 1]);
        let spec = PoolSpec::new(2, 2).unwrap();
        let out = avg_pool2d(&input, &spec).unwrap();
        assert_eq!(out.data(), &[1.5]);
    }

    #[test]
    fn pooling_is_per_channel() {
        // Channel 1 = channel 0 + 100; maxima must stay separated.
        let mut input = Tensor::zeros(&[1, 2, 2, 2]);
        for y in 0..2 {
            for x in 0..2 {
                let v = (y * 2 + x) as f32;
                input.set(&[0, y, x, 0], v).unwrap();
                input.set(&[0, y, x, 1], v + 100.0).unwrap();
            }
        }
        let out = max_pool2d(&input, &PoolSpec::new(2, 2).unwrap()).unwrap();
        assert_eq!(out.at(&[0, 0, 0, 0]).unwrap(), 3.0);
        assert_eq!(out.at(&[0, 0, 0, 1]).unwrap(), 103.0);
    }

    #[test]
    fn pooling_handles_negative_values() {
        let input = Tensor::full(&[1, 2, 2, 1], -3.0);
        let out = max_pool2d(&input, &PoolSpec::new(2, 2).unwrap()).unwrap();
        assert_eq!(out.data(), &[-3.0]);
    }

    #[test]
    fn rejects_wrong_rank() {
        let input = Tensor::zeros(&[4, 4, 1]);
        assert!(max_pool2d(&input, &PoolSpec::new(2, 2).unwrap()).is_err());
    }

    /// [`bits`] with `-0` read as `+0`. `f32::max` leaves the sign of a
    /// `±0` tie unspecified, and the reference's compiled fold returns
    /// either, depending on how LLVM unrolls it for the window length;
    /// every other max-pool output is compared bit for bit.
    fn zero_blind(values: &[f32]) -> Vec<u32> {
        bits(values)
            .into_iter()
            .map(|b| if b == (-0.0f32).to_bits() { 0 } else { b })
            .collect()
    }

    #[test]
    fn max_pool_keeps_the_earlier_zero_and_skips_nan() {
        let spec = PoolSpec::new(2, 1).unwrap();
        for (window, want) in [
            ([0.0f32, -0.0, -1.0, -2.0], 0.0f32),
            ([-4.0, 0.0, f32::NEG_INFINITY, -0.0], 0.0),
            ([-0.0, 0.0, -1.0, -2.0], -0.0),
            ([f32::NAN, -1.0, f32::NAN, -2.0], -1.0),
            ([f32::NAN; 4], f32::NEG_INFINITY),
        ] {
            let input = Tensor::from_vec(window.to_vec(), &[1, 2, 2, 1]).unwrap();
            let got = max_pool2d(&input, &spec).unwrap().data()[0];
            assert_eq!(got.to_bits(), want.to_bits(), "{window:?}");
            let reference = scalar::max_pool2d(&input, &spec).unwrap().data()[0];
            assert_eq!(zero_blind(&[reference]), zero_blind(&[want]), "{window:?}");
        }
    }

    #[test]
    fn avg_pool_of_negative_zeros_is_negative_zero() {
        let input = Tensor::full(&[1, 2, 2, 1], -0.0);
        let spec = PoolSpec::new(2, 2).unwrap();
        for out in [
            avg_pool2d(&input, &spec).unwrap(),
            scalar::avg_pool2d(&input, &spec).unwrap(),
        ] {
            assert_eq!(out.data()[0].to_bits(), (-0.0f32).to_bits());
        }
    }

    const MAX_HW: usize = 9;
    const MAX_C: usize = 17;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pools_match_reference_bits(
            batch in 1usize..4,
            h in 1usize..MAX_HW + 1,
            w in 1usize..MAX_HW + 1,
            c in 1usize..MAX_C + 1,
            window in 1usize..4,
            stride in 1usize..4,
            x in proptest::collection::vec(Awkward { non_finite: true }, 3 * MAX_HW * MAX_HW * MAX_C),
        ) {
            prop_assume!(window <= h && window <= w);
            let input =
                Tensor::from_vec(x[..batch * h * w * c].to_vec(), &[batch, h, w, c]).unwrap();
            let spec = PoolSpec::new(window, stride).unwrap();
            let (got, want) = (max_pool2d(&input, &spec).unwrap(), scalar::max_pool2d(&input, &spec).unwrap());
            prop_assert_eq!(got.shape(), want.shape());
            prop_assert_eq!(zero_blind(got.data()), zero_blind(want.data()));
            let (got, want) = (avg_pool2d(&input, &spec).unwrap(), scalar::avg_pool2d(&input, &spec).unwrap());
            prop_assert_eq!(bits(got.data()), bits(want.data()));
        }
    }

    proptest! {
        #[test]
        fn max_pool_dominates_avg_pool(
            vals in proptest::collection::vec(-10.0f32..10.0, 16),
        ) {
            let input = Tensor::from_vec(vals, &[1, 4, 4, 1]).unwrap();
            let spec = PoolSpec::new(2, 2).unwrap();
            let mx = max_pool2d(&input, &spec).unwrap();
            let av = avg_pool2d(&input, &spec).unwrap();
            for (m, a) in mx.data().iter().zip(av.data().iter()) {
                prop_assert!(m >= a);
            }
        }

        #[test]
        fn pool_output_bounded_by_input_extremes(
            vals in proptest::collection::vec(-5.0f32..5.0, 36),
        ) {
            let input = Tensor::from_vec(vals.clone(), &[1, 6, 6, 1]).unwrap();
            let spec = PoolSpec::new(3, 3).unwrap();
            let out = max_pool2d(&input, &spec).unwrap();
            let max = vals.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            for &o in out.data() {
                prop_assert!(o <= max);
            }
        }
    }
}

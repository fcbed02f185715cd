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

fn pool2d(
    input: &Tensor,
    spec: &PoolSpec,
    mut reduce: impl FnMut(&[f32]) -> f32,
) -> Result<Tensor> {
    if input.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            op: "pool2d",
            expected: 4,
            actual: input.ndim(),
        });
    }
    let (b, h, w, c) = (
        input.shape().dim(0),
        input.shape().dim(1),
        input.shape().dim(2),
        input.shape().dim(3),
    );
    let gh = spec.output_dim(h)?;
    let gw = spec.output_dim(w)?;
    let data = input.data();
    let mut out = Vec::with_capacity(b * gh * gw * c);
    let mut window = Vec::with_capacity(spec.window * spec.window);
    for img in 0..b {
        let base = img * h * w * c;
        for i in 0..gh {
            for j in 0..gw {
                for z in 0..c {
                    window.clear();
                    for dy in 0..spec.window {
                        for dx in 0..spec.window {
                            let y = i * spec.stride + dy;
                            let x = j * spec.stride + dx;
                            window.push(data[base + (y * w + x) * c + z]);
                        }
                    }
                    out.push(reduce(&window));
                }
            }
        }
    }
    Tensor::from_vec(out, &[b, gh, gw, c])
}

/// Max pooling over a `(B, H, W, C)` batch.
///
/// Pooling layers are not invertible, so MILR stores an input checkpoint
/// before each one (paper §IV-C); this function only provides the forward
/// semantics.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or non-fitting geometry.
pub fn max_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    pool2d(input, spec, |w| {
        w.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    })
}

/// Average pooling over a `(B, H, W, C)` batch.
///
/// # Errors
///
/// Returns an error for non-rank-4 inputs or non-fitting geometry.
pub fn avg_pool2d(input: &Tensor, spec: &PoolSpec) -> Result<Tensor> {
    pool2d(input, spec, |w| {
        (w.iter().map(|&x| x as f64).sum::<f64>() / w.len() as f64) as f32
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

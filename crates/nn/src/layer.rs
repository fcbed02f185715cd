use crate::{NnError, Result};
use milr_tensor::{avg_pool2d, conv2d, max_pool2d, ConvSpec, PoolSpec, Tensor, TensorRng};
use std::fmt;

/// Activation functions supported by the substrate.
///
/// The paper's networks use ReLU after every convolution/dense layer and
/// (implicitly) softmax at the head; the remaining variants exist because
/// "other activation functions can be used throughout the network"
/// (§IV-D) and exercise MILR's treat-as-identity recovery path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Rectified linear unit, `max(0, x)`.
    Relu,
    /// Numerically-stable softmax over the last axis.
    Softmax,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Identity (linear) activation.
    Identity,
}

impl Activation {
    /// Applies the activation to a tensor.
    pub fn apply(&self, input: &Tensor) -> Tensor {
        match self {
            Activation::Relu => input.map(|x| x.max(0.0)),
            Activation::Sigmoid => input.map(|x| 1.0 / (1.0 + (-x).exp())),
            Activation::Tanh => input.map(|x| x.tanh()),
            Activation::Identity => input.clone(),
            Activation::Softmax => softmax_last_axis(input),
        }
    }
}

fn softmax_last_axis(input: &Tensor) -> Tensor {
    let dims = input.shape().dims();
    if dims.is_empty() {
        return Tensor::ones(&[]);
    }
    let last = dims[dims.len() - 1];
    let rows = input.numel() / last.max(1);
    let mut out = vec![0.0f32; input.numel()];
    let data = input.data();
    for r in 0..rows {
        let row = &data[r * last..(r + 1) * last];
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
        let mut sum = 0.0f64;
        for (i, &x) in row.iter().enumerate() {
            let e = ((x - max) as f64).exp();
            out[r * last + i] = e as f32;
            sum += e;
        }
        for o in &mut out[r * last..(r + 1) * last] {
            *o = (*o as f64 / sum) as f32;
        }
    }
    Tensor::from_vec(out, dims).expect("same shape")
}

/// One layer of a [`Sequential`](crate::Sequential) network.
///
/// Bias is deliberately **not** folded into `Conv2D`/`Dense`: the paper
/// treats the bias as "its own layer, as it has its own mathematical
/// operation, and its own relationship between its input, output and
/// parameters" (§IV-E), and MILR's per-layer detection/recovery depends
/// on that separation.
///
/// Fields are public: layers are passive compound data that `milr-core`
/// introspects to build checkpoints, invert passes and re-solve
/// parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum Layer {
    /// 2-D convolution with filter tensor `(F, F, Z, Y)`.
    Conv2D {
        /// Filter bank, shape `(F, F, Z, Y)`.
        filters: Tensor,
        /// Geometry (filter size, stride, padding).
        spec: ConvSpec,
    },
    /// Fully-connected layer with weights `(N, P)`; input `(B, N)`.
    Dense {
        /// Weight matrix, shape `(N, P)`.
        weights: Tensor,
    },
    /// Bias addition along the last axis (`Y` per-filter values after a
    /// convolution, `P` per-column values after a dense layer — §IV-E).
    Bias {
        /// Bias vector, length = size of the input's last axis.
        bias: Tensor,
    },
    /// Parameterless activation layer.
    Activation(Activation),
    /// Max pooling (not invertible; MILR checkpoints its input).
    MaxPool2D(PoolSpec),
    /// Average pooling.
    AvgPool2D(PoolSpec),
    /// Flattens `(B, …)` to `(B, N)` (shape-only; inverted by reshaping
    /// on MILR's backward pass).
    Flatten,
    /// Dropout. Inactive during inference — "essentially ignored"
    /// (§IV-D-d) — and applied stochastically only inside the trainer.
    Dropout {
        /// Fraction of activations dropped during training.
        rate: f32,
    },
    /// Symmetric spatial zero-padding of a `(B, H, W, C)` tensor.
    ZeroPad2D {
        /// Cells added on each spatial side.
        pad: usize,
    },
}

impl Layer {
    /// A convolution layer with He-style random initialization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero-sized dimensions.
    pub fn conv2d_random(
        filter: usize,
        in_channels: usize,
        out_filters: usize,
        spec: ConvSpec,
        rng: &mut TensorRng,
    ) -> Result<Self> {
        if filter == 0 || in_channels == 0 || out_filters == 0 {
            return Err(NnError::BadConfig(
                "convolution dimensions must be positive".into(),
            ));
        }
        if filter != spec.filter {
            return Err(NnError::BadConfig(format!(
                "filter size {filter} disagrees with spec {}",
                spec.filter
            )));
        }
        let fan_in = (filter * filter * in_channels) as f32;
        let scale = (2.0 / fan_in).sqrt();
        let filters = rng
            .uniform_tensor(&[filter, filter, in_channels, out_filters])
            .scale(scale);
        Ok(Layer::Conv2D { filters, spec })
    }

    /// A dense layer with He-style random initialization.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for zero-sized dimensions.
    pub fn dense_random(inputs: usize, outputs: usize, rng: &mut TensorRng) -> Result<Self> {
        if inputs == 0 || outputs == 0 {
            return Err(NnError::BadConfig(
                "dense dimensions must be positive".into(),
            ));
        }
        let scale = (2.0 / inputs as f32).sqrt();
        let weights = rng.uniform_tensor(&[inputs, outputs]).scale(scale);
        Ok(Layer::Dense { weights })
    }

    /// A zero-initialized bias layer for `channels` last-axis features.
    pub fn bias_zero(channels: usize) -> Self {
        Layer::Bias {
            bias: Tensor::zeros(&[channels]),
        }
    }

    /// Short human-readable kind name (used in reports and tables).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Layer::Conv2D { .. } => "Conv2D",
            Layer::Dense { .. } => "Dense",
            Layer::Bias { .. } => "Bias",
            Layer::Activation(_) => "Activation",
            Layer::MaxPool2D(_) => "MaxPool2D",
            Layer::AvgPool2D(_) => "AvgPool2D",
            Layer::Flatten => "Flatten",
            Layer::Dropout { .. } => "Dropout",
            Layer::ZeroPad2D { .. } => "ZeroPad2D",
        }
    }

    /// The layer's parameter tensor, if it has one.
    pub fn params(&self) -> Option<&Tensor> {
        match self {
            Layer::Conv2D { filters, .. } => Some(filters),
            Layer::Dense { weights } => Some(weights),
            Layer::Bias { bias } => Some(bias),
            _ => None,
        }
    }

    /// Mutable access to the parameter tensor, if any. Fault injectors
    /// and MILR's recovery both write through this.
    pub fn params_mut(&mut self) -> Option<&mut Tensor> {
        match self {
            Layer::Conv2D { filters, .. } => Some(filters),
            Layer::Dense { weights } => Some(weights),
            Layer::Bias { bias } => Some(bias),
            _ => None,
        }
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params().map_or(0, Tensor::numel)
    }

    /// Computes the per-image output shape for a per-image input shape
    /// (batch dimension excluded).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the layer cannot process the
    /// shape and [`NnError::Tensor`] for geometry failures.
    pub fn output_shape(&self, input: &[usize]) -> Result<Vec<usize>> {
        let bad = |reason: &str| -> NnError {
            NnError::BadInput {
                layer: self.kind_name().to_string(),
                input: input.to_vec(),
                reason: reason.to_string(),
            }
        };
        match self {
            Layer::Conv2D { filters, spec } => {
                if input.len() != 3 {
                    return Err(bad("expected (H, W, C)"));
                }
                if input[2] != filters.shape().dim(2) {
                    return Err(bad("channel count does not match filters"));
                }
                let (gh, _) = spec.output_dim(input[0])?;
                let (gw, _) = spec.output_dim(input[1])?;
                Ok(vec![gh, gw, filters.shape().dim(3)])
            }
            Layer::Dense { weights } => {
                if input.len() != 1 {
                    return Err(bad("expected flat (N,)"));
                }
                if input[0] != weights.shape().dim(0) {
                    return Err(bad("feature count does not match weight rows"));
                }
                Ok(vec![weights.shape().dim(1)])
            }
            Layer::Bias { bias } => {
                if input.is_empty() || input[input.len() - 1] != bias.numel() {
                    return Err(bad("last axis does not match bias length"));
                }
                Ok(input.to_vec())
            }
            Layer::Activation(_) | Layer::Dropout { .. } => Ok(input.to_vec()),
            Layer::MaxPool2D(spec) | Layer::AvgPool2D(spec) => {
                if input.len() != 3 {
                    return Err(bad("expected (H, W, C)"));
                }
                let gh = spec.output_dim(input[0])?;
                let gw = spec.output_dim(input[1])?;
                Ok(vec![gh, gw, input[2]])
            }
            Layer::Flatten => Ok(vec![input.iter().product()]),
            Layer::ZeroPad2D { pad } => {
                if input.len() != 3 {
                    return Err(bad("expected (H, W, C)"));
                }
                Ok(vec![input[0] + 2 * pad, input[1] + 2 * pad, input[2]])
            }
        }
    }

    /// Runs the layer forward over a batch (first dimension = batch).
    ///
    /// Dropout behaves as identity here; stochastic masking happens only
    /// inside the trainer.
    ///
    /// # Errors
    ///
    /// Returns shape/geometry errors for incompatible inputs.
    pub fn forward(&self, batch: &Tensor) -> Result<Tensor> {
        match self {
            Layer::Conv2D { filters, spec } => Ok(conv2d(batch, filters, spec)?),
            Layer::Dense { weights } => Ok(batch.matmul(weights)?),
            Layer::Bias { bias } => add_bias(batch, bias),
            Layer::Activation(a) => Ok(a.apply(batch)),
            Layer::MaxPool2D(spec) => Ok(max_pool2d(batch, spec)?),
            Layer::AvgPool2D(spec) => Ok(avg_pool2d(batch, spec)?),
            Layer::Flatten => {
                let b = batch.shape().dim(0);
                let rest: usize = batch.shape().dims()[1..].iter().product();
                Ok(batch.reshape(&[b, rest])?)
            }
            Layer::Dropout { .. } => Ok(batch.clone()),
            Layer::ZeroPad2D { pad } => zero_pad(batch, *pad),
        }
    }

    /// [`forward`](Layer::forward) with `params` substituted for the
    /// layer's own parameter tensor — the fused decode-forward entry
    /// point: a serving host keeps a zeroed structural template and
    /// supplies freshly decoded (or cached) plaintext per call, so no
    /// mutable model copy is ever materialized. `None` (and any value
    /// for a parameterless layer) falls back to the layer's own params.
    ///
    /// # Errors
    ///
    /// Returns shape/geometry errors for incompatible inputs or a
    /// `params` tensor whose shape does not fit the layer.
    pub fn forward_with_params(&self, batch: &Tensor, params: Option<&Tensor>) -> Result<Tensor> {
        match (self, params) {
            (Layer::Conv2D { spec, .. }, Some(p)) => Ok(conv2d(batch, p, spec)?),
            (Layer::Dense { .. }, Some(p)) => Ok(batch.matmul(p)?),
            (Layer::Bias { .. }, Some(p)) => add_bias(batch, p),
            _ => self.forward(batch),
        }
    }

    /// [`forward_with_params`](Layer::forward_with_params) taking the
    /// batch by value: shape-preserving layers (bias, element-wise
    /// activations, flatten, dropout) mutate the buffer in place with
    /// bit-identical arithmetic, so a stacked forward reuses one
    /// scratch allocation across those layers instead of allocating an
    /// output tensor per layer. Layers that genuinely change the
    /// element count (conv, dense, pools, padding) still allocate.
    ///
    /// # Errors
    ///
    /// Same as [`forward_with_params`](Layer::forward_with_params).
    pub fn forward_owned_with_params(
        &self,
        mut batch: Tensor,
        params: Option<&Tensor>,
    ) -> Result<Tensor> {
        match self {
            Layer::Bias { bias } => {
                add_bias_in_place(&mut batch, params.unwrap_or(bias))?;
                Ok(batch)
            }
            Layer::Activation(a) => match a {
                // Softmax needs row scratch anyway; reuse the allocating path.
                Activation::Softmax => Ok(softmax_last_axis(&batch)),
                Activation::Relu => {
                    batch.map_in_place(|x| x.max(0.0));
                    Ok(batch)
                }
                Activation::Sigmoid => {
                    batch.map_in_place(|x| 1.0 / (1.0 + (-x).exp()));
                    Ok(batch)
                }
                Activation::Tanh => {
                    batch.map_in_place(|x| x.tanh());
                    Ok(batch)
                }
                Activation::Identity => Ok(batch),
            },
            Layer::Flatten => {
                let b = batch.shape().dim(0);
                let rest: usize = batch.shape().dims()[1..].iter().product();
                batch.reshape_in_place(&[b, rest])?;
                Ok(batch)
            }
            Layer::Dropout { .. } => Ok(batch),
            _ => self.forward_with_params(&batch, params),
        }
    }

    /// [`forward`](Layer::forward) taking the batch by value; see
    /// [`forward_owned_with_params`](Layer::forward_owned_with_params).
    ///
    /// # Errors
    ///
    /// Same as [`forward`](Layer::forward).
    pub fn forward_owned(&self, batch: Tensor) -> Result<Tensor> {
        self.forward_owned_with_params(batch, None)
    }
}

/// Adds `bias[c]` to every element whose last-axis coordinate is `c`.
pub(crate) fn add_bias(batch: &Tensor, bias: &Tensor) -> Result<Tensor> {
    let dims = batch.shape().dims();
    if dims.is_empty() || dims[dims.len() - 1] != bias.numel() {
        return Err(NnError::BadInput {
            layer: "Bias".into(),
            input: dims.to_vec(),
            reason: format!("last axis must equal bias length {}", bias.numel()),
        });
    }
    let mut out = batch.data().to_vec();
    add_rows(&mut out, bias.data());
    Ok(Tensor::from_vec(out, dims)?)
}

/// [`add_bias`] without the output allocation: the exact same `+=` per
/// element, applied to the batch buffer directly.
pub(crate) fn add_bias_in_place(batch: &mut Tensor, bias: &Tensor) -> Result<()> {
    if batch.shape().dims().last().copied() != Some(bias.numel()) {
        return Err(NnError::BadInput {
            layer: "Bias".into(),
            input: batch.shape().dims().to_vec(),
            reason: format!("last axis must equal bias length {}", bias.numel()),
        });
    }
    add_rows(batch.data_mut(), bias.data());
    Ok(())
}

/// `values[i] += bias[i % c]`, one last-axis row of `c = bias.len()`
/// at a time: the same `+=` per element, without a division per
/// element.
fn add_rows(values: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    for row in values.chunks_exact_mut(bias.len()) {
        for (v, &b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

fn zero_pad(batch: &Tensor, pad: usize) -> Result<Tensor> {
    if batch.ndim() != 4 {
        return Err(NnError::BadInput {
            layer: "ZeroPad2D".into(),
            input: batch.shape().dims().to_vec(),
            reason: "expected (B, H, W, C)".into(),
        });
    }
    let (b, h, w, c) = (
        batch.shape().dim(0),
        batch.shape().dim(1),
        batch.shape().dim(2),
        batch.shape().dim(3),
    );
    let (nh, nw) = (h + 2 * pad, w + 2 * pad);
    let mut out = Tensor::zeros(&[b, nh, nw, c]);
    let src = batch.data();
    let dst = out.data_mut();
    for img in 0..b {
        for y in 0..h {
            let src_off = (img * h * w + y * w) * c;
            let dst_off = (img * nh * nw + (y + pad) * nw + pad) * c;
            dst[dst_off..dst_off + w * c].copy_from_slice(&src[src_off..src_off + w * c]);
        }
    }
    Ok(out)
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Layer::Conv2D { filters, spec } => write!(
                f,
                "Conv2D(filters={}, stride={}, {:?})",
                filters.shape(),
                spec.stride,
                spec.padding
            ),
            Layer::Dense { weights } => write!(f, "Dense(weights={})", weights.shape()),
            Layer::Bias { bias } => write!(f, "Bias({})", bias.numel()),
            Layer::Activation(a) => write!(f, "Activation({a:?})"),
            Layer::MaxPool2D(s) => write!(f, "MaxPool2D(window={}, stride={})", s.window, s.stride),
            Layer::AvgPool2D(s) => write!(f, "AvgPool2D(window={}, stride={})", s.window, s.stride),
            Layer::Flatten => write!(f, "Flatten"),
            Layer::Dropout { rate } => write!(f, "Dropout({rate})"),
            Layer::ZeroPad2D { pad } => write!(f, "ZeroPad2D({pad})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_tensor::Padding;
    use proptest::prelude::*;

    fn rng() -> TensorRng {
        TensorRng::new(42)
    }

    #[test]
    fn activations_behave() {
        let t = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(Activation::Relu.apply(&t).data(), &[0.0, 0.0, 2.0]);
        assert_eq!(Activation::Identity.apply(&t), t);
        let s = Activation::Sigmoid.apply(&t);
        assert!((s.data()[1] - 0.5).abs() < 1e-6);
        let th = Activation::Tanh.apply(&t);
        assert!(th.data()[0] < 0.0 && th.data()[2] > 0.0);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0], &[2, 3]).unwrap();
        let s = Activation::Softmax.apply(&t);
        for r in 0..2 {
            let sum: f32 = s.row(r).unwrap().iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Monotone: bigger logit, bigger probability.
        assert!(s.at(&[0, 2]).unwrap() > s.at(&[0, 0]).unwrap());
        // Uniform logits give uniform probabilities.
        assert!((s.at(&[1, 0]).unwrap() - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let t = Tensor::from_vec(vec![1000.0, 1001.0], &[1, 2]).unwrap();
        let s = Activation::Softmax.apply(&t);
        assert!(s.data().iter().all(|x| x.is_finite()));
        let sum: f32 = s.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn constructors_validate() {
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        assert!(Layer::conv2d_random(3, 0, 4, spec, &mut rng()).is_err());
        assert!(Layer::conv2d_random(5, 1, 4, spec, &mut rng()).is_err());
        assert!(Layer::dense_random(0, 4, &mut rng()).is_err());
        let conv = Layer::conv2d_random(3, 2, 4, spec, &mut rng()).unwrap();
        assert_eq!(conv.param_count(), 3 * 3 * 2 * 4);
        assert_eq!(Layer::bias_zero(7).param_count(), 7);
    }

    #[test]
    fn param_access_matches_kind() {
        let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
        let mut layers = vec![
            Layer::conv2d_random(3, 1, 2, spec, &mut rng()).unwrap(),
            Layer::dense_random(4, 2, &mut rng()).unwrap(),
            Layer::bias_zero(3),
        ];
        for l in &mut layers {
            assert!(l.params().is_some());
            assert!(l.params_mut().is_some());
        }
        let mut passive = vec![
            Layer::Activation(Activation::Relu),
            Layer::Flatten,
            Layer::Dropout { rate: 0.5 },
            Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()),
            Layer::ZeroPad2D { pad: 1 },
        ];
        for l in &mut passive {
            assert!(l.params().is_none());
            assert_eq!(l.param_count(), 0);
        }
    }

    #[test]
    fn output_shapes_follow_paper_tables() {
        // Table I first rows: 28x28x1 --3x3 valid--> 26x26x32.
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        let conv = Layer::conv2d_random(3, 1, 32, spec, &mut rng()).unwrap();
        assert_eq!(conv.output_shape(&[28, 28, 1]).unwrap(), vec![26, 26, 32]);
        // Max pooling halves: 24x24x32 -> 12x12x32.
        let pool = Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap());
        assert_eq!(pool.output_shape(&[24, 24, 32]).unwrap(), vec![12, 12, 32]);
        // Dense (6400 -> 256) after flatten of 10x10x64.
        let flat = Layer::Flatten;
        assert_eq!(flat.output_shape(&[10, 10, 64]).unwrap(), vec![6400]);
        let dense = Layer::dense_random(6400, 256, &mut rng()).unwrap();
        assert_eq!(dense.output_shape(&[6400]).unwrap(), vec![256]);
    }

    #[test]
    fn output_shape_rejects_mismatches() {
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        let conv = Layer::conv2d_random(3, 3, 8, spec, &mut rng()).unwrap();
        assert!(conv.output_shape(&[28, 28, 1]).is_err());
        assert!(conv.output_shape(&[28, 28]).is_err());
        let dense = Layer::dense_random(10, 4, &mut rng()).unwrap();
        assert!(dense.output_shape(&[11]).is_err());
        let bias = Layer::bias_zero(5);
        assert!(bias.output_shape(&[4]).is_err());
    }

    #[test]
    fn bias_forward_adds_along_last_axis() {
        let batch = Tensor::zeros(&[2, 2, 2, 3]);
        let bias = Layer::Bias {
            bias: Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap(),
        };
        let out = bias.forward(&batch).unwrap();
        for i in 0..out.numel() {
            assert_eq!(out.data()[i], (i % 3) as f32 + 1.0);
        }
    }

    #[test]
    fn flatten_forward_preserves_batch() {
        let batch = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 2, 3, 2]).unwrap();
        let out = Layer::Flatten.forward(&batch).unwrap();
        assert_eq!(out.shape().dims(), &[2, 12]);
        assert_eq!(out.data(), batch.data());
    }

    #[test]
    fn zero_pad_forward() {
        let batch = Tensor::ones(&[1, 2, 2, 1]);
        let out = Layer::ZeroPad2D { pad: 1 }.forward(&batch).unwrap();
        assert_eq!(out.shape().dims(), &[1, 4, 4, 1]);
        assert_eq!(out.at(&[0, 0, 0, 0]).unwrap(), 0.0);
        assert_eq!(out.at(&[0, 1, 1, 0]).unwrap(), 1.0);
        assert_eq!(out.sum(), 4.0);
    }

    #[test]
    fn dropout_is_identity_at_inference() {
        let batch = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        let out = Layer::Dropout { rate: 0.9 }.forward(&batch).unwrap();
        assert_eq!(out, batch);
    }

    #[test]
    fn display_is_informative() {
        let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
        let conv = Layer::conv2d_random(3, 1, 2, spec, &mut rng()).unwrap();
        assert!(conv.to_string().contains("Conv2D"));
        assert!(Layer::Flatten.to_string().contains("Flatten"));
    }

    /// An `f32` from a bit pattern, with `±0`, NaN, `±inf` and
    /// subnormals over-represented by `pick`.
    fn awkward(pick: u32, raw: u32) -> f32 {
        match pick {
            0 => 0.0,
            1 => -0.0,
            2 => f32::NAN,
            3 => f32::INFINITY,
            4 => f32::NEG_INFINITY,
            5 => f32::from_bits(raw & 0x807F_FFFF),
            _ => f32::from_bits(raw),
        }
    }

    /// Bit patterns with every NaN made one canonical pattern: Rust
    /// leaves an arithmetic NaN's sign and payload unspecified.
    fn bits(values: &[f32]) -> Vec<u32> {
        values
            .iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    const MAX_ROWS: usize = 8;
    const MAX_C: usize = 17;
    /// Draws for a `MAX_ROWS × MAX_C` batch, then a bias of `MAX_C`.
    const DRAWS: usize = (MAX_ROWS + 1) * MAX_C;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn bias_rows_match_the_modulo_loop(
            rows in 0usize..MAX_ROWS + 1,
            c in 1usize..MAX_C + 1,
            picks in proptest::collection::vec(0u32..10, DRAWS),
            raws in proptest::collection::vec(proptest::num::u32::ANY, DRAWS),
        ) {
            let draw = |i: usize| awkward(picks[i], raws[i]);
            let values: Vec<f32> = (0..rows * c).map(draw).collect();
            let bias: Vec<f32> = (0..c).map(|i| draw(MAX_ROWS * MAX_C + i)).collect();
            // The loop `add_bias` ran before: one `i % c` per element.
            let want: Vec<f32> = values
                .iter()
                .enumerate()
                .map(|(i, &v)| v + bias[i % c])
                .collect();
            let batch = Tensor::from_vec(values, &[rows, c]).unwrap();
            let layer = Layer::Bias {
                bias: Tensor::from_vec(bias, &[c]).unwrap(),
            };
            let copied = layer.forward(&batch).unwrap();
            prop_assert_eq!(bits(copied.data()), bits(&want));
            let in_place = layer.forward_owned(batch).unwrap();
            prop_assert_eq!(bits(in_place.data()), bits(&want));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn forward_shape_agrees_with_output_shape(
            h in 4usize..8, c in 1usize..3, y in 1usize..4,
        ) {
            let spec = ConvSpec::new(3, 1, Padding::Same).unwrap();
            let conv = Layer::conv2d_random(3, c, y, spec, &mut rng()).unwrap();
            let batch = TensorRng::new(1).uniform_tensor(&[2, h, h, c]);
            let out = conv.forward(&batch).unwrap();
            let expect = conv.output_shape(&[h, h, c]).unwrap();
            prop_assert_eq!(&out.shape().dims()[1..], &expect[..]);
        }

        #[test]
        fn relu_output_nonnegative(v in proptest::collection::vec(-5.0f32..5.0, 1..32)) {
            let n = v.len();
            let t = Tensor::from_vec(v, &[n]).unwrap();
            let out = Activation::Relu.apply(&t);
            prop_assert!(out.data().iter().all(|&x| x >= 0.0));
        }
    }
}

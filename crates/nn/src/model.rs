use crate::{Layer, NnError, Result};
use milr_tensor::{argmax, Tensor};
use std::fmt;

/// A feed-forward stack of [`Layer`]s — the substrate's equivalent of a
/// Keras `Sequential` model.
///
/// The model records the per-image input shape and validates every layer
/// against the running shape when it is pushed, so a constructed model
/// can always run forward. MILR walks [`layers`](Sequential::layers) to
/// plan checkpoints and [`layers_mut`](Sequential::layers_mut) to heal
/// parameters in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequential {
    input_shape: Vec<usize>,
    /// Per-image input shape of each layer: `shapes[i]` feeds layer `i`;
    /// `shapes[len]` is the output shape.
    shapes: Vec<Vec<usize>>,
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates an empty model accepting per-image inputs of the given
    /// shape (batch dimension excluded).
    pub fn new(input_shape: Vec<usize>) -> Self {
        Sequential {
            shapes: vec![input_shape.clone()],
            input_shape,
            layers: Vec::new(),
        }
    }

    /// Appends a layer, validating it against the current output shape.
    ///
    /// # Errors
    ///
    /// Returns the layer's shape error if it cannot accept the running
    /// output shape.
    pub fn push(&mut self, layer: Layer) -> Result<()> {
        let current = self.shapes.last().expect("at least the input shape");
        let next = layer.output_shape(current)?;
        self.shapes.push(next);
        self.layers.push(layer);
        Ok(())
    }

    /// Per-image model input shape.
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// Per-image output shape.
    pub fn output_shape(&self) -> &[usize] {
        self.shapes.last().expect("at least the input shape")
    }

    /// Per-image input shape of layer `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index > len()`.
    pub fn shape_at(&self, index: usize) -> &[usize] {
        &self.shapes[index]
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True for a model with no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layer stack (parameter corruption and
    /// recovery go through here). Layout-changing mutation is the
    /// caller's responsibility — shapes were validated at `push` time.
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Bytes occupied by parameters (4 per `f32`) — the "Backup Weights"
    /// column of the paper's storage tables.
    pub fn param_bytes(&self) -> usize {
        self.param_count() * 4
    }

    /// Runs the full network over a batch (first dimension = batch).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors (possible when parameters were
    /// mutated to incompatible shapes after construction).
    pub fn forward(&self, batch: &Tensor) -> Result<Tensor> {
        let mut x = batch.clone();
        for layer in &self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Runs layers `from..to` (half-open) over a batch — the building
    /// block of MILR's checkpoint propagation.
    ///
    /// # Errors
    ///
    /// Propagates layer errors; `from > to` or `to > len()` is a
    /// [`NnError::BadConfig`].
    pub fn forward_range(&self, batch: &Tensor, from: usize, to: usize) -> Result<Tensor> {
        if from > to || to > self.layers.len() {
            return Err(NnError::BadConfig(format!(
                "invalid layer range {from}..{to} for {} layers",
                self.layers.len()
            )));
        }
        let mut x = batch.clone();
        for layer in &self.layers[from..to] {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Stacks independent per-image examples (each shaped like
    /// [`input_shape`](Sequential::input_shape)) into one `(B, …)`
    /// batch tensor — the request-coalescing step of batched serving.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadData`] for an empty list or an example
    /// whose shape differs from the model input shape.
    pub fn stack_batch(&self, examples: &[Tensor]) -> Result<Tensor> {
        if examples.is_empty() {
            return Err(NnError::BadData("cannot stack an empty batch".into()));
        }
        let per_image: usize = self.input_shape.iter().product();
        let mut data = Vec::with_capacity(examples.len() * per_image);
        for (i, ex) in examples.iter().enumerate() {
            if ex.shape().dims() != self.input_shape.as_slice() {
                return Err(NnError::BadData(format!(
                    "example {i} has shape {} but the model takes ({})",
                    ex.shape(),
                    self.input_shape
                        .iter()
                        .map(|d| d.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                )));
            }
            data.extend_from_slice(ex.data());
        }
        let mut dims = vec![examples.len()];
        dims.extend_from_slice(&self.input_shape);
        Ok(Tensor::from_vec(data, &dims)?)
    }

    /// Runs a batch of independent per-image examples through the
    /// network and returns one output tensor per example (batch
    /// dimension stripped). Results are identical to running each
    /// example alone: every layer treats the batch dimension as
    /// independent rows/images.
    ///
    /// # Errors
    ///
    /// Propagates [`stack_batch`](Sequential::stack_batch) and forward
    /// errors.
    pub fn forward_batch(&self, examples: &[Tensor]) -> Result<Vec<Tensor>> {
        // The stacked batch is owned scratch: shape-preserving layers
        // (bias, activations, flatten, dropout) mutate it in place, so
        // the chain reuses one allocation instead of one per layer.
        let mut x = self.stack_batch(examples)?;
        for layer in &self.layers {
            x = layer.forward_owned(x)?;
        }
        Self::split_batch(&x, examples.len())
    }

    /// Splits a `(B, …)` batch output into one tensor per example
    /// (batch dimension stripped).
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (cannot occur for well-formed
    /// batch outputs).
    pub fn split_batch(out: &Tensor, batch: usize) -> Result<Vec<Tensor>> {
        let per_example: usize = out.shape().dims()[1..].iter().product();
        let out_dims = out.shape().dims()[1..].to_vec();
        let data = out.data();
        (0..batch)
            .map(|r| {
                Ok(Tensor::from_vec(
                    data[r * per_example..(r + 1) * per_example].to_vec(),
                    &out_dims,
                )?)
            })
            .collect()
    }

    /// Class predictions (argmax over the last axis) for a batch.
    ///
    /// # Errors
    ///
    /// Propagates forward errors; output must be rank 2 `(B, classes)`.
    pub fn predict(&self, batch: &Tensor) -> Result<Vec<usize>> {
        let out = self.forward(batch)?;
        if out.ndim() != 2 {
            return Err(NnError::BadConfig(format!(
                "predict requires (B, classes) output, got {}",
                out.shape()
            )));
        }
        let classes = out.shape().dim(1);
        Ok((0..out.shape().dim(0))
            .map(|r| argmax(&out.data()[r * classes..(r + 1) * classes]).expect("classes > 0"))
            .collect())
    }

    /// Fraction of `labels` predicted correctly.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadData`] when the label count differs from
    /// the batch size.
    pub fn accuracy(&self, batch: &Tensor, labels: &[usize]) -> Result<f64> {
        let preds = self.predict(batch)?;
        if preds.len() != labels.len() {
            return Err(NnError::BadData(format!(
                "{} labels for a batch of {}",
                labels.len(),
                preds.len()
            )));
        }
        if labels.is_empty() {
            return Ok(0.0);
        }
        let correct = preds
            .iter()
            .zip(labels.iter())
            .filter(|(p, l)| p == l)
            .count();
        Ok(correct as f64 / labels.len() as f64)
    }

    /// A Keras-style textual summary (layer kinds, output shapes,
    /// parameter counts) matching the layout of the paper's Tables
    /// I–III.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<14} {:<18} {:>12}",
            "Layer", "Output Shape", "Trainable"
        );
        for (i, layer) in self.layers.iter().enumerate() {
            let shape = &self.shapes[i + 1];
            let shape_str = format!(
                "({})",
                shape
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            );
            let _ = writeln!(
                s,
                "{:<14} {:<18} {:>12}",
                layer.kind_name(),
                shape_str,
                layer.param_count()
            );
        }
        let _ = writeln!(s, "Total trainable parameters: {}", self.param_count());
        s
    }
}

impl fmt::Display for Sequential {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use milr_tensor::{ConvSpec, Padding, PoolSpec, TensorRng};

    fn tiny_model() -> Sequential {
        let mut rng = TensorRng::new(5);
        let mut m = Sequential::new(vec![8, 8, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(3 * 3 * 4, 10, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(10)).unwrap();
        m
    }

    #[test]
    fn shapes_tracked_through_stack() {
        let m = tiny_model();
        assert_eq!(m.shape_at(0), &[8, 8, 1]);
        assert_eq!(m.shape_at(1), &[6, 6, 4]);
        assert_eq!(m.shape_at(4), &[3, 3, 4]);
        assert_eq!(m.shape_at(5), &[36]);
        assert_eq!(m.output_shape(), &[10]);
        assert_eq!(m.len(), 7);
        assert!(!m.is_empty());
    }

    #[test]
    fn push_rejects_incompatible_layer() {
        let mut m = tiny_model();
        let mut rng = TensorRng::new(1);
        // Dense expecting the wrong width cannot attach.
        let bad = Layer::dense_random(11, 2, &mut rng).unwrap();
        assert!(m.push(bad).is_err());
        // Model unchanged after the failed push.
        assert_eq!(m.len(), 7);
    }

    #[test]
    fn forward_produces_logits() {
        let m = tiny_model();
        let batch = TensorRng::new(9).uniform_tensor(&[3, 8, 8, 1]);
        let out = m.forward(&batch).unwrap();
        assert_eq!(out.shape().dims(), &[3, 10]);
        let preds = m.predict(&batch).unwrap();
        assert_eq!(preds.len(), 3);
        assert!(preds.iter().all(|&p| p < 10));
    }

    #[test]
    fn forward_range_composes() {
        let m = tiny_model();
        let batch = TensorRng::new(2).uniform_tensor(&[2, 8, 8, 1]);
        let mid = m.forward_range(&batch, 0, 4).unwrap();
        let out = m.forward_range(&mid, 4, m.len()).unwrap();
        let full = m.forward(&batch).unwrap();
        assert_eq!(out, full);
        assert!(m.forward_range(&batch, 3, 2).is_err());
        assert!(m.forward_range(&batch, 0, 99).is_err());
    }

    #[test]
    fn forward_batch_matches_single_example_runs_bitwise() {
        let m = tiny_model();
        let mut rng = TensorRng::new(11);
        let examples: Vec<Tensor> = (0..5).map(|_| rng.uniform_tensor(&[8, 8, 1])).collect();
        let batched = m.forward_batch(&examples).unwrap();
        assert_eq!(batched.len(), 5);
        for (ex, out) in examples.iter().zip(batched.iter()) {
            assert_eq!(out.shape().dims(), &[10]);
            let alone = m.forward_batch(std::slice::from_ref(ex)).unwrap();
            let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            let alone_bits: Vec<u32> = alone[0].data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, alone_bits);
        }
    }

    #[test]
    fn stack_batch_validates_shapes() {
        let m = tiny_model();
        assert!(m.stack_batch(&[]).is_err());
        let bad = Tensor::zeros(&[7, 8, 1]);
        assert!(m.stack_batch(&[bad]).is_err());
        let good = Tensor::zeros(&[8, 8, 1]);
        let stacked = m.stack_batch(&[good.clone(), good]).unwrap();
        assert_eq!(stacked.shape().dims(), &[2, 8, 8, 1]);
    }

    #[test]
    fn accuracy_counts_matches() {
        let m = tiny_model();
        let batch = TensorRng::new(3).uniform_tensor(&[4, 8, 8, 1]);
        let preds = m.predict(&batch).unwrap();
        let acc = m.accuracy(&batch, &preds).unwrap();
        assert_eq!(acc, 1.0);
        let wrong: Vec<usize> = preds.iter().map(|&p| (p + 1) % 10).collect();
        assert_eq!(m.accuracy(&batch, &wrong).unwrap(), 0.0);
        assert!(m.accuracy(&batch, &[0]).is_err());
    }

    #[test]
    fn param_accounting() {
        let m = tiny_model();
        let expect = 3 * 3 * 4 + 4 + 36 * 10 + 10;
        assert_eq!(m.param_count(), expect);
        assert_eq!(m.param_bytes(), expect * 4);
    }

    #[test]
    fn summary_lists_layers() {
        let s = tiny_model().summary();
        assert!(s.contains("Conv2D"));
        assert!(s.contains("Dense"));
        assert!(s.contains("Total trainable parameters"));
    }

    #[test]
    fn clone_preserves_equality() {
        let m = tiny_model();
        let copy = m.clone();
        assert_eq!(m, copy);
    }
}

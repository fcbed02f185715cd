//! MILR's recovery-pass layer semantics.
//!
//! During initialization, detection and recovery, "all activation
//! functions are treated as linear activation functions. Allowing forward
//! and backward passes through the layer without any changes to the
//! tensor" (paper §IV-D); dropout and other pass-through layers are
//! "essentially ignored". Every MILR pass therefore flows through this
//! module instead of the inference-time [`Layer::forward`], keeping the
//! golden artifacts and the replayed passes bit-identical and the layer
//! algebra exactly invertible.

use crate::Result;
use milr_nn::{Layer, Sequential};
use milr_tensor::Tensor;

/// Forward pass of one layer under MILR semantics: activations and
/// dropout are identity, everything else is the normal layer math.
pub(crate) fn milr_forward(layer: &Layer, x: &Tensor) -> Result<Tensor> {
    match layer {
        Layer::Activation(_) | Layer::Dropout { .. } => Ok(x.clone()),
        other => Ok(other.forward(x)?),
    }
}

/// A contiguous window `[start, end)` of a model's layers plus their
/// input shapes — the complete working set of one checkpoint-segment
/// recovery.
///
/// Propagation during recovery never reads outside the segment's layer
/// range, so a segment heal that clones only this window (instead of
/// the whole model) sees exactly what a whole-model pass would; memory
/// per segment is bounded by the segment, not the model
/// (the first deferred trade-off of DESIGN.md §4). Indices stay
/// *global*: `layer(i)` and `shape_at(i)` take the same indices the
/// plan and artifacts use.
#[derive(Debug, Clone)]
pub(crate) struct SegmentView {
    offset: usize,
    layers: Vec<Layer>,
    /// `shapes[i]` is the per-image input shape of layer `offset + i`;
    /// one extra entry holds the window's output shape.
    shapes: Vec<Vec<usize>>,
}

impl SegmentView {
    /// Clones layers `start..end` (and their shapes) out of the model.
    pub fn from_model(model: &Sequential, start: usize, end: usize) -> Self {
        SegmentView {
            offset: start,
            layers: model.layers()[start..end].to_vec(),
            shapes: (start..=end).map(|i| model.shape_at(i).to_vec()).collect(),
        }
    }

    /// The layer at *global* index `index`.
    pub fn layer(&self, index: usize) -> &Layer {
        &self.layers[index - self.offset]
    }

    /// Mutable access to the layer at *global* index `index`.
    pub fn layer_mut(&mut self, index: usize) -> &mut Layer {
        &mut self.layers[index - self.offset]
    }

    /// Per-image input shape of the layer at *global* index `index`.
    pub fn shape_at(&self, index: usize) -> &[usize] {
        &self.shapes[index - self.offset]
    }

    /// Consumes the view, moving the parameter tensors of the given
    /// (distinct) global indices out without cloning — the write-back
    /// hand-off after a segment recovery. Parameterless layers yield
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-window or repeated indices.
    pub fn extract_params(self, indices: &[usize]) -> Vec<(usize, Option<Tensor>)> {
        let offset = self.offset;
        let mut layers: Vec<Option<Layer>> = self.layers.into_iter().map(Some).collect();
        indices
            .iter()
            .map(|&i| {
                let layer = layers[i - offset].take().expect("indices are distinct");
                let params = match layer {
                    Layer::Dense { weights } => Some(weights),
                    Layer::Conv2D { filters, .. } => Some(filters),
                    Layer::Bias { bias } => Some(bias),
                    _ => None,
                };
                (i, params)
            })
            .collect()
    }
}

/// Runs layers `from..to` (global indices) of the window under MILR
/// semantics.
pub(crate) fn milr_forward_range(
    view: &SegmentView,
    x: &Tensor,
    from: usize,
    to: usize,
) -> Result<Tensor> {
    let mut cur = x.clone();
    for layer in &view.layers[from - view.offset..to - view.offset] {
        cur = milr_forward(layer, &cur)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Activation;
    use milr_tensor::TensorRng;

    #[test]
    fn activations_and_dropout_pass_through() {
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[1, 2]).unwrap();
        let relu = Layer::Activation(Activation::Relu);
        assert_eq!(milr_forward(&relu, &x).unwrap(), x);
        let drop = Layer::Dropout { rate: 0.9 };
        assert_eq!(milr_forward(&drop, &x).unwrap(), x);
        // Inference semantics would have clamped the negative.
        assert_ne!(relu.forward(&x).unwrap(), x);
    }

    #[test]
    fn parameterized_layers_keep_their_math() {
        let mut rng = TensorRng::new(1);
        let dense = Layer::dense_random(4, 3, &mut rng).unwrap();
        let x = rng.uniform_tensor(&[2, 4]);
        assert_eq!(
            milr_forward(&dense, &x).unwrap(),
            dense.forward(&x).unwrap()
        );
    }

    #[test]
    fn range_composition() {
        let mut rng = TensorRng::new(2);
        let mut m = Sequential::new(vec![4]);
        m.push(Layer::dense_random(4, 4, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        let x = rng.uniform_tensor(&[1, 4]);
        let view = SegmentView::from_model(&m, 0, m.len());
        let ab = milr_forward_range(&view, &x, 0, 2).unwrap();
        let full = milr_forward_range(&view, &ab, 2, 3).unwrap();
        assert_eq!(full, milr_forward_range(&view, &x, 0, 3).unwrap());
    }

    #[test]
    fn segment_view_window_matches_full_model() {
        let mut rng = TensorRng::new(4);
        let mut m = Sequential::new(vec![6]);
        m.push(Layer::dense_random(6, 5, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(5)).unwrap();
        m.push(Layer::dense_random(5, 3, &mut rng).unwrap())
            .unwrap();
        let window = SegmentView::from_model(&m, 1, 3);
        assert_eq!(window.shape_at(1), m.shape_at(1));
        assert_eq!(window.shape_at(3), m.shape_at(3));
        assert_eq!(window.layer(2), &m.layers()[2]);
        let x = rng.uniform_tensor(&[1, 5]);
        let full = SegmentView::from_model(&m, 0, m.len());
        assert_eq!(
            milr_forward_range(&window, &x, 1, 3).unwrap(),
            milr_forward_range(&full, &x, 1, 3).unwrap()
        );
    }
}

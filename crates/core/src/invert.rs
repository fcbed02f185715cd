//! Layer inversion — MILR's backward pass `f⁻¹(y, p) = x` (paper §IV).
//!
//! Recovery propagates the *succeeding* checkpoint backwards to the
//! faulty layer. Each crossing inverts one layer using its (presumed
//! good) parameters, augmented with regenerated PRNG dummy parameters
//! where the plan called for them.

use crate::artifacts::inversion_dummy_params;
use crate::plan::InversionPlan;
use crate::semantics::SegmentView;
use crate::{Milr, MilrError, Result};
use milr_linalg::{Mat, Qr};
use milr_nn::Layer;
use milr_tensor::{col2im_accumulate, Tensor};

/// Inverts layer `index`: given its output `y` (from backward
/// propagation), reconstructs its input.
///
/// # Errors
///
/// Returns [`MilrError::NotInvertible`] for pooling layers (the planner
/// never routes backward passes through them) and solver errors when the
/// augmented system is singular.
pub(crate) fn invert_layer(
    milr: &Milr,
    view: &SegmentView,
    index: usize,
    y: &Tensor,
) -> Result<Tensor> {
    let layer = view.layer(index);
    match layer {
        Layer::Activation(_) | Layer::Dropout { .. } => Ok(y.clone()),
        Layer::Bias { bias } => {
            // x = y − b along the last axis.
            let c = bias.numel();
            let b = bias.data();
            let data: Vec<f32> = y
                .data()
                .iter()
                .enumerate()
                .map(|(i, &v)| v - b[i % c])
                .collect();
            Ok(Tensor::from_vec(data, y.shape().dims())?)
        }
        Layer::Flatten => {
            let mut dims = vec![y.shape().dim(0)];
            dims.extend_from_slice(view.shape_at(index));
            Ok(y.reshape(&dims)?)
        }
        Layer::ZeroPad2D { pad } => {
            let input = view.shape_at(index);
            crop(y, *pad, input)
        }
        Layer::Dense { weights } => invert_dense(milr, weights, index, y),
        Layer::Conv2D { filters, spec } => invert_conv(milr, view, filters, spec, index, y),
        Layer::MaxPool2D(_) | Layer::AvgPool2D(_) => Err(MilrError::NotInvertible {
            layer: index,
            kind: layer.kind_name().to_string(),
        }),
    }
}

fn crop(y: &Tensor, pad: usize, input: &[usize]) -> Result<Tensor> {
    let (b, h, w, c) = (y.shape().dim(0), input[0], input[1], input[2]);
    let nw = w + 2 * pad;
    let nh = h + 2 * pad;
    let mut out = Tensor::zeros(&[b, h, w, c]);
    let src = y.data();
    let dst = out.data_mut();
    for img in 0..b {
        for row in 0..h {
            let s = (img * nh * nw + (row + pad) * nw + pad) * c;
            let d = (img * h * w + row * w) * c;
            dst[d..d + w * c].copy_from_slice(&src[s..s + w * c]);
        }
    }
    Ok(out)
}

/// Dense backward pass: solve `x · W_aug = y_aug` row by row
/// (§IV-A-a). `W_aug` appends regenerated dummy columns when the plan
/// requires them; `y_aug` appends their stored golden outputs. The
/// factor of `W_augᵀ` comes from the instance's factor cache, so only
/// the first heal after a weight change builds and factors it.
fn invert_dense(milr: &Milr, weights: &Tensor, index: usize, y: &Tensor) -> Result<Tensor> {
    let (n, p) = (weights.shape().dim(0), weights.shape().dim(1));
    let inversion = milr.plan().layers[index].inversion;
    let y_aug = match inversion {
        InversionPlan::DummyData { .. } => {
            let stored = milr
                .artifacts()
                .dense_dummy_col_outputs
                .get(&index)
                .ok_or_else(|| {
                    MilrError::CorruptArtifacts(format!("missing dense dummy outputs {index}"))
                })?;
            Tensor::hstack(&[y, stored])?
        }
        _ => y.clone(),
    };
    let factor = milr
        .inversion_factors()
        .get(index, weights, inversion, || {
            let dummies = match inversion {
                InversionPlan::DummyData { extra } => {
                    inversion_dummy_params(milr.config(), index, &[n, extra])
                }
                _ => Tensor::zeros(&[n, 0]),
            };
            // Solve W_augᵀ xᵀ = y_augᵀ with W_aug = [W | dummy
            // columns]; fill W_augᵀ straight from both banks.
            let (w, d, extra) = (weights.data(), dummies.data(), dummies.shape().dim(1));
            let wt = Mat::from_fn(p + extra, n, |r, i| {
                (if r < p {
                    w[i * p + r]
                } else {
                    d[i * extra + r - p]
                }) as f64
            });
            Ok(Qr::factor(&wt)?)
        })?;
    let b = y.shape().dim(0);
    let mut out = Vec::with_capacity(b * n);
    for r in 0..b {
        let rhs: Vec<f64> = y_aug.row(r)?.iter().map(|&v| v as f64).collect();
        let x = factor.qr().solve(&rhs)?;
        out.extend(x.iter().map(|&v| v as f32));
    }
    Ok(Tensor::from_vec(out, &[b, n])?)
}

/// Convolution backward pass (§IV-B-a): every output location gives `Y`
/// (+ dummy) equations over its `F²Z`-element receptive field; the patch
/// solutions are merged by averaging overlaps. The equation matrix's
/// factor comes from the instance's factor cache, as in
/// [`invert_dense`].
fn invert_conv(
    milr: &Milr,
    view: &SegmentView,
    filters: &Tensor,
    spec: &milr_tensor::ConvSpec,
    index: usize,
    y: &Tensor,
) -> Result<Tensor> {
    let input = view.shape_at(index);
    let (h, w, c) = (input[0], input[1], input[2]);
    let f = filters.shape().dim(0);
    let ny = filters.shape().dim(3);
    let unknowns = f * f * c;
    let inversion = milr.plan().layers[index].inversion;
    let (extra, dummy_out): (usize, Option<&Tensor>) = match inversion {
        InversionPlan::DummyData { extra } => {
            let stored = milr
                .artifacts()
                .conv_dummy_outputs
                .get(&index)
                .ok_or_else(|| {
                    MilrError::CorruptArtifacts(format!("missing conv dummy outputs {index}"))
                })?;
            (extra, Some(stored))
        }
        _ => (0, None),
    };
    let total_eqs = ny + extra;
    if total_eqs < unknowns {
        return Err(MilrError::NotInvertible {
            layer: index,
            kind: format!("Conv2D with {total_eqs} equations for {unknowns} unknowns"),
        });
    }
    let factor = milr
        .inversion_factors()
        .get(index, filters, inversion, || {
            // Stack real and dummy filter banks into the equation
            // matrix (Y+extra, F²Z).
            let real = filters.reshape(&[unknowns, ny])?;
            let eqs = match inversion {
                InversionPlan::DummyData { extra } => {
                    let dummies = inversion_dummy_params(milr.config(), index, &[f, f, c, extra]);
                    let dum = dummies.reshape(&[unknowns, extra])?;
                    Tensor::hstack(&[&real, &dum])?.transpose()?
                }
                _ => real.transpose()?,
            };
            let a = Mat::from_vec(eqs.to_f64_vec(), total_eqs, unknowns)?;
            Ok(Qr::factor(&a)?)
        })?;
    let b = y.shape().dim(0);
    let (gh, gw) = (y.shape().dim(1), y.shape().dim(2));
    let mut images = Vec::with_capacity(b * h * w * c);
    for img in 0..b {
        let mut patches = Vec::with_capacity(gh * gw * unknowns);
        for i in 0..gh {
            for j in 0..gw {
                let mut rhs = Vec::with_capacity(total_eqs);
                for k in 0..ny {
                    rhs.push(y.at(&[img, i, j, k])? as f64);
                }
                if let Some(d) = dummy_out {
                    let extra = d.shape().dim(3);
                    for k in 0..extra {
                        rhs.push(d.at(&[img, i, j, k])? as f64);
                    }
                }
                let patch = factor.qr().solve(&rhs)?;
                patches.extend(patch.iter().map(|&v| v as f32));
            }
        }
        let patches = Tensor::from_vec(patches, &[gh * gw, unknowns])?;
        let image = col2im_accumulate(&patches, h, w, c, spec)?;
        images.extend_from_slice(image.data());
    }
    Ok(Tensor::from_vec(images, &[b, h, w, c])?)
}

/// Backward-propagates `y` from checkpoint position `to` down to become
/// the output of layer `target`, inverting layers `to-1 .. target+1`.
pub(crate) fn backward_to(
    milr: &Milr,
    view: &SegmentView,
    y: &Tensor,
    to: usize,
    target: usize,
) -> Result<Tensor> {
    let mut cur = y.clone();
    for j in ((target + 1)..to).rev() {
        cur = invert_layer(milr, view, j, &cur)?;
    }
    Ok(cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::golden_input;
    use crate::semantics::{milr_forward, milr_forward_range};
    use crate::MilrConfig;
    use milr_nn::{Activation, Sequential};
    use milr_tensor::{ConvSpec, Padding, TensorRng};

    fn view(m: &Sequential) -> SegmentView {
        SegmentView::from_model(m, 0, m.len())
    }

    fn protected(
        build: impl FnOnce(&mut Sequential, &mut TensorRng),
        input_shape: Vec<usize>,
    ) -> (Sequential, Milr) {
        let mut rng = TensorRng::new(17);
        let mut m = Sequential::new(input_shape);
        build(&mut m, &mut rng);
        let milr = Milr::protect(&m, MilrConfig::default()).unwrap();
        (m, milr)
    }

    #[test]
    fn bias_and_shape_layers_invert_exactly() {
        let (m, milr) = protected(
            |m, rng| {
                m.push(
                    Layer::conv2d_random(
                        1,
                        1,
                        2,
                        ConvSpec::new(1, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
                m.push(Layer::Bias {
                    bias: Tensor::from_vec(vec![0.5, -1.5], &[2]).unwrap(),
                })
                .unwrap();
                m.push(Layer::Activation(Activation::Relu)).unwrap();
                m.push(Layer::Flatten).unwrap();
            },
            vec![3, 3, 1],
        );
        let x0 = golden_input(&m, milr.config());
        // Forward to the end, then invert back to the conv output.
        let out = milr_forward_range(&view(&m), &x0, 0, 4).unwrap();
        let back = backward_to(&milr, &view(&m), &out, 4, 0).unwrap();
        let conv_out = milr_forward(&m.layers()[0], &x0).unwrap();
        assert!(back.approx_eq(&conv_out, 1e-6, 1e-6));
    }

    #[test]
    fn wide_dense_inverts_natively() {
        let (m, milr) = protected(
            |m, rng| {
                m.push(Layer::dense_random(4, 6, rng).unwrap()).unwrap();
            },
            vec![4],
        );
        let x0 = golden_input(&m, milr.config());
        let y = milr_forward(&m.layers()[0], &x0).unwrap();
        let back = invert_layer(&milr, &view(&m), 0, &y).unwrap();
        assert!(back.approx_eq(&x0, 1e-5, 1e-6), "{back} vs {x0}");
    }

    #[test]
    fn narrow_dense_inverts_with_dummy_columns() {
        // Second dense is narrow (P < N) and needs dummy columns.
        let (m, milr) = protected(
            |m, rng| {
                m.push(Layer::dense_random(6, 6, rng).unwrap()).unwrap();
                m.push(Layer::dense_random(6, 2, rng).unwrap()).unwrap();
            },
            vec![6],
        );
        assert_eq!(
            milr.plan().layers[1].inversion,
            InversionPlan::DummyData { extra: 4 }
        );
        let x0 = golden_input(&m, milr.config());
        let mid = milr_forward(&m.layers()[0], &x0).unwrap();
        let y = milr_forward(&m.layers()[1], &mid).unwrap();
        let back = invert_layer(&milr, &view(&m), 1, &y).unwrap();
        assert!(back.approx_eq(&mid, 1e-4, 1e-5));
    }

    #[test]
    fn conv_with_enough_filters_inverts_natively() {
        // 1-channel 2x2 filters (F²Z = 4) with 6 filters: Y >= F²Z.
        let (m, milr) = protected(
            |m, rng| {
                m.push(
                    Layer::conv2d_random(
                        2,
                        1,
                        6,
                        ConvSpec::new(2, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
                m.push(
                    Layer::conv2d_random(
                        2,
                        6,
                        24,
                        ConvSpec::new(2, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
            },
            vec![5, 5, 1],
        );
        // Layer 1 has 24 filters >= F²Z = 24: native.
        assert_eq!(milr.plan().layers[1].inversion, InversionPlan::Native);
        let x0 = golden_input(&m, milr.config());
        let mid = milr_forward(&m.layers()[0], &x0).unwrap();
        let y = milr_forward(&m.layers()[1], &mid).unwrap();
        let back = invert_layer(&milr, &view(&m), 1, &y).unwrap();
        assert!(
            back.approx_eq(&mid, 1e-3, 1e-4),
            "max diff {:?}",
            back.max_abs_diff(&mid)
        );
    }

    #[test]
    fn conv_with_few_filters_inverts_with_dummy_filters() {
        // Second conv has 3 filters < F²Z = 2*2*4 = 16 -> dummy filters
        // (output 4x4x? -> dummy cost 16·13=208 vs ckpt 5·5·4=100 ->
        // checkpointed instead; force dummy by making input bigger).
        let (m, milr) = protected(
            |m, rng| {
                m.push(
                    Layer::conv2d_random(
                        2,
                        1,
                        4,
                        ConvSpec::new(2, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
                m.push(
                    Layer::conv2d_random(
                        2,
                        4,
                        14,
                        ConvSpec::new(2, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
            },
            vec![4, 4, 1],
        );
        // Layer 1: F²Z = 16 > Y = 14 -> extra 2; dummy cost 2·G²=8 < ckpt 36.
        assert_eq!(
            milr.plan().layers[1].inversion,
            InversionPlan::DummyData { extra: 2 }
        );
        let x0 = golden_input(&m, milr.config());
        let mid = milr_forward(&m.layers()[0], &x0).unwrap();
        let y = milr_forward(&m.layers()[1], &mid).unwrap();
        let back = invert_layer(&milr, &view(&m), 1, &y).unwrap();
        assert!(
            back.approx_eq(&mid, 1e-3, 1e-4),
            "max diff {:?}",
            back.max_abs_diff(&mid)
        );
    }

    #[test]
    fn pooling_refuses_inversion() {
        let (m, milr) = protected(
            |m, rng| {
                m.push(
                    Layer::conv2d_random(
                        1,
                        1,
                        1,
                        ConvSpec::new(1, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
                m.push(Layer::MaxPool2D(milr_tensor::PoolSpec::new(2, 2).unwrap()))
                    .unwrap();
            },
            vec![4, 4, 1],
        );
        let y = Tensor::zeros(&[1, 2, 2, 1]);
        let err = invert_layer(&milr, &view(&m), 1, &y).unwrap_err();
        assert!(matches!(err, MilrError::NotInvertible { layer: 1, .. }));
    }

    #[test]
    fn zero_pad_inverts_by_cropping() {
        let (m, milr) = protected(
            |m, rng| {
                m.push(
                    Layer::conv2d_random(
                        1,
                        1,
                        1,
                        ConvSpec::new(1, 1, Padding::Valid).unwrap(),
                        rng,
                    )
                    .unwrap(),
                )
                .unwrap();
                m.push(Layer::ZeroPad2D { pad: 2 }).unwrap();
            },
            vec![3, 3, 1],
        );
        let x0 = golden_input(&m, milr.config());
        let mid = milr_forward(&m.layers()[0], &x0).unwrap();
        let y = milr_forward(&m.layers()[1], &mid).unwrap();
        let back = invert_layer(&milr, &view(&m), 1, &y).unwrap();
        assert_eq!(back, mid);
    }
}

//! Initialization-phase artifacts — everything MILR keeps in
//! error-resistant storage (paper §III: SSD/HDD/persistent memory).

use crate::plan::{InversionPlan, ProtectionPlan, SolvingPlan};
use crate::semantics::milr_forward;
use crate::{MilrConfig, MilrError, Result};
use milr_ecc::{Crc2d, Crc2dCodes};
use milr_nn::{Layer, Sequential};
use milr_tensor::{conv2d, conv2d_at, ConvSpec, Tensor, TensorRng};
use std::collections::BTreeMap;

/// All stored recovery/detection data for one protected network.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Artifacts {
    /// Full checkpoints: position → tensor flowing into that position
    /// (always includes the network-output position).
    pub full_checkpoints: BTreeMap<usize, Tensor>,
    /// Partial checkpoints: layer → one stored output element per
    /// parameter-reuse group (per filter for conv, per column for
    /// dense), from the layer's private PRNG detection input.
    pub partial_checkpoints: BTreeMap<usize, Vec<f32>>,
    /// Bias layers: stored parameter sums (§IV-E-c).
    pub bias_sums: BTreeMap<usize, f64>,
    /// Partial-recovery conv layers: `F²` CRC grids over the `(Z, Y)`
    /// slices of the filter tensor (§IV-B-c).
    pub crc_grids: BTreeMap<usize, Vec<Crc2dCodes>>,
    /// Dense layers: golden outputs of the PRNG dummy input rows used to
    /// complete the solving system, shape `(dummy_rows, P)`.
    pub dense_dummy_outputs: BTreeMap<usize, Tensor>,
    /// Dense layers with `DummyData` inversion: golden-flow outputs
    /// through the PRNG dummy columns, shape `(B, extra)`.
    pub dense_dummy_col_outputs: BTreeMap<usize, Tensor>,
    /// Conv layers with `DummyData` inversion: golden-flow outputs of
    /// the PRNG dummy filters, shape `(B, G, G, extra)`.
    pub conv_dummy_outputs: BTreeMap<usize, Tensor>,
}

/// Regenerates the golden-flow network input from its seed.
pub(crate) fn golden_input(model: &Sequential, config: &MilrConfig) -> Tensor {
    let mut dims = vec![config.flow_batch.max(1)];
    dims.extend_from_slice(model.input_shape());
    TensorRng::new(config.flow_seed()).uniform_tensor(&dims)
}

/// Regenerates layer `i`'s private detection input from its seed.
pub(crate) fn detection_input(model: &Sequential, config: &MilrConfig, layer: usize) -> Tensor {
    let mut dims = vec![1usize];
    dims.extend_from_slice(model.shape_at(layer));
    TensorRng::new(config.detect_seed(layer)).uniform_tensor(&dims)
}

/// Regenerates the PRNG dummy input rows for a dense layer's solving
/// system, shape `(dummy_rows, N)`.
pub(crate) fn dense_dummy_rows(
    config: &MilrConfig,
    layer: usize,
    dummy_rows: usize,
    n: usize,
) -> Tensor {
    TensorRng::new(config.dummy_seed(2 * layer)).uniform_tensor(&[dummy_rows, n])
}

/// Regenerates the PRNG dummy parameters used for inversion: dense
/// columns `(N, extra)` or conv filters `(F, F, Z, extra)`.
pub(crate) fn inversion_dummy_params(config: &MilrConfig, layer: usize, dims: &[usize]) -> Tensor {
    TensorRng::new(config.dummy_seed(2 * layer + 1)).uniform_tensor(dims)
}

/// The stored element position of a convolution partial checkpoint: the
/// center output location, whose receptive field avoids the zero-padded
/// border so every filter weight influences the stored value.
pub(crate) fn conv_probe_location(gh: usize, gw: usize) -> (usize, usize) {
    (gh / 2, gw / 2)
}

/// Conv layer `i`'s probe: its `Y` outputs at [`conv_probe_location`]
/// on its private detection input. Only that pixel's receptive field is
/// computed ([`conv2d_at`]), bit-identical to the full forward there.
pub(crate) fn conv_probe(
    model: &Sequential,
    config: &MilrConfig,
    i: usize,
    filters: &Tensor,
    spec: &ConvSpec,
) -> Result<Vec<f32>> {
    let det = detection_input(model, config, i);
    let (gh, _) = spec.output_dim(det.shape().dim(1))?;
    let (gw, _) = spec.output_dim(det.shape().dim(2))?;
    let (ci, cj) = conv_probe_location(gh, gw);
    Ok(conv2d_at(&det, filters, spec, [0, ci, cj])?)
}

impl Artifacts {
    /// Runs the initialization phase: one golden flow plus one private
    /// detection pass per layer, computing every stored artifact.
    pub fn build(model: &Sequential, plan: &ProtectionPlan, config: &MilrConfig) -> Result<Self> {
        let mut artifacts = Artifacts {
            full_checkpoints: BTreeMap::new(),
            partial_checkpoints: BTreeMap::new(),
            bias_sums: BTreeMap::new(),
            crc_grids: BTreeMap::new(),
            dense_dummy_outputs: BTreeMap::new(),
            dense_dummy_col_outputs: BTreeMap::new(),
            conv_dummy_outputs: BTreeMap::new(),
        };
        let mut x = golden_input(model, config);
        for (i, layer) in model.layers().iter().enumerate() {
            if plan.checkpoints.contains(&i) {
                artifacts.full_checkpoints.insert(i, x.clone());
            }
            let layer_plan = &plan.layers[i];
            match layer {
                Layer::Dense { weights } => {
                    let n = weights.shape().dim(0);
                    if let Some(SolvingPlan::DenseFull { dummy_rows }) = layer_plan.solving {
                        if dummy_rows > 0 {
                            let dummy = dense_dummy_rows(config, i, dummy_rows, n);
                            let out = dummy.matmul(weights)?;
                            artifacts.dense_dummy_outputs.insert(i, out);
                        }
                    }
                    if let InversionPlan::DummyData { extra } = layer_plan.inversion {
                        let cols = inversion_dummy_params(config, i, &[n, extra]);
                        let out = x.matmul(&cols)?;
                        artifacts.dense_dummy_col_outputs.insert(i, out);
                    }
                    // Partial checkpoint: the detection output row.
                    let det = detection_input(model, config, i);
                    let out = milr_forward(layer, &det)?;
                    artifacts.partial_checkpoints.insert(i, out.row(0)?);
                }
                Layer::Conv2D { filters, spec } => {
                    // CRC grids are stored for every convolution layer:
                    // they localize erroneous weights (the partial
                    // recoverability path, §IV-B-c) and also verify
                    // recovered weights bit-exactly. Even layers whose
                    // geometry admits full solving (`G² ≥ F²Z`) need the
                    // localization when their golden input is produced
                    // by an upstream convolution and therefore spans a
                    // low-rank patch subspace.
                    {
                        let f = filters.shape().dim(0);
                        let z = filters.shape().dim(2);
                        let y = filters.shape().dim(3);
                        let grid_cfg = Crc2d::with_group(z, y, config.crc_group);
                        let mut grids = Vec::with_capacity(f * f);
                        for f1 in 0..f {
                            for f2 in 0..f {
                                let slice = filter_zy_slice(filters, f1, f2);
                                grids.push(grid_cfg.encode(&slice));
                            }
                        }
                        artifacts.crc_grids.insert(i, grids);
                    }
                    if let InversionPlan::DummyData { extra } = layer_plan.inversion {
                        let f = filters.shape().dim(0);
                        let z = filters.shape().dim(2);
                        let dummies = inversion_dummy_params(config, i, &[f, f, z, extra]);
                        let out = conv2d(&x, &dummies, spec)?;
                        artifacts.conv_dummy_outputs.insert(i, out);
                    }
                    // Partial checkpoint: center output per filter.
                    let probe = conv_probe(model, config, i, filters, spec)?;
                    artifacts.partial_checkpoints.insert(i, probe);
                }
                Layer::Bias { bias } => {
                    artifacts.bias_sums.insert(i, bias.sum());
                }
                _ => {}
            }
            x = milr_forward(layer, &x)?;
        }
        // Network output checkpoint (position = len).
        if plan.checkpoints.contains(&model.len()) {
            artifacts.full_checkpoints.insert(model.len(), x);
        } else {
            return Err(MilrError::CorruptArtifacts(
                "plan is missing the network-output checkpoint".into(),
            ));
        }
        Ok(artifacts)
    }
}

/// Extracts the `(Z, Y)` slice of a `(F, F, Z, Y)` filter tensor at
/// kernel offset `(f1, f2)`, row-major over `(z, y)`.
pub(crate) fn filter_zy_slice(filters: &Tensor, f1: usize, f2: usize) -> Vec<f32> {
    let z = filters.shape().dim(2);
    let y = filters.shape().dim(3);
    let base = (f1 * filters.shape().dim(1) + f2) * z * y;
    filters.data()[base..base + z * y].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Activation;
    use milr_tensor::{ConvSpec, Padding, PoolSpec};

    fn model() -> Sequential {
        let mut rng = TensorRng::new(7);
        let mut m = Sequential::new(vec![10, 10, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 6, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(6)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::conv2d_random(3, 6, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(2 * 2 * 4, 5, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(5)).unwrap();
        m
    }

    fn build_all() -> (Sequential, ProtectionPlan, MilrConfig, Artifacts) {
        let m = model();
        let cfg = MilrConfig::default();
        let plan = ProtectionPlan::build(&m, &cfg).unwrap();
        let art = Artifacts::build(&m, &plan, &cfg).unwrap();
        (m, plan, cfg, art)
    }

    #[test]
    fn checkpoints_match_plan_positions() {
        let (m, plan, _, art) = build_all();
        for &c in &plan.checkpoints {
            assert!(art.full_checkpoints.contains_key(&c), "missing ckpt {c}");
        }
        assert!(art.full_checkpoints.contains_key(&m.len()));
        // No unplanned checkpoints.
        assert_eq!(art.full_checkpoints.len(), plan.checkpoints.len());
    }

    #[test]
    fn checkpoint_tensors_are_the_golden_flow() {
        let (m, plan, cfg, art) = build_all();
        // Recompute the golden flow manually and compare at a stored
        // position.
        let mut x = golden_input(&m, &cfg);
        for (i, layer) in m.layers().iter().enumerate() {
            if let Some(stored) = art.full_checkpoints.get(&i) {
                assert_eq!(stored, &x, "checkpoint {i} diverges");
            }
            x = milr_forward(layer, &x).unwrap();
        }
        assert_eq!(art.full_checkpoints.get(&m.len()).unwrap(), &x);
        let _ = plan;
    }

    #[test]
    fn partial_checkpoints_cover_param_layers() {
        let (m, _, _, art) = build_all();
        // Conv layers 0 and 4: one value per filter.
        assert_eq!(art.partial_checkpoints[&0].len(), 6);
        assert_eq!(art.partial_checkpoints[&4].len(), 4);
        // Dense layer 6: one value per column.
        assert_eq!(art.partial_checkpoints[&6].len(), 5);
        // Bias layers use sums instead.
        assert!(art.bias_sums.contains_key(&1));
        assert!(art.bias_sums.contains_key(&7));
        assert!(!art.partial_checkpoints.contains_key(&1));
        let _ = m;
    }

    #[test]
    fn dense_dummy_outputs_match_weights() {
        let (m, plan, cfg, art) = build_all();
        let Some(SolvingPlan::DenseFull { dummy_rows }) = plan.layers[6].solving else {
            panic!("dense plan missing")
        };
        assert_eq!(dummy_rows, 16 - 1);
        let dummy = dense_dummy_rows(&cfg, 6, dummy_rows, 16);
        let Layer::Dense { weights } = &m.layers()[6] else {
            panic!()
        };
        let expect = dummy.matmul(weights).unwrap();
        assert_eq!(art.dense_dummy_outputs[&6], expect);
    }

    #[test]
    fn every_conv_layer_gets_crc_grids() {
        let (_, plan, _, art) = build_all();
        // Conv 4: G²=4 < F²Z=54 -> partial recoverability plan.
        assert_eq!(plan.layers[4].solving, Some(SolvingPlan::ConvPartial));
        assert_eq!(art.crc_grids[&4].len(), 9);
        // Conv 0 is geometrically fully solvable but still carries
        // grids: they localize errors and verify recovered banks.
        assert_eq!(plan.layers[0].solving, Some(SolvingPlan::ConvFull));
        assert_eq!(art.crc_grids[&0].len(), 9);
    }

    #[test]
    fn filter_slice_layout() {
        let filters = Tensor::from_fn(&[2, 2, 3, 4], |idx| {
            (idx[0] * 1000 + idx[1] * 100 + idx[2] * 10 + idx[3]) as f32
        });
        let slice = filter_zy_slice(&filters, 1, 0);
        assert_eq!(slice.len(), 12);
        assert_eq!(slice[0], 1000.0); // (1,0,0,0)
        assert_eq!(slice[11], 1023.0); // (1,0,2,3)
    }

    #[test]
    fn regenerated_inputs_are_stable() {
        let (m, _, cfg, _) = build_all();
        assert_eq!(golden_input(&m, &cfg), golden_input(&m, &cfg));
        assert_eq!(detection_input(&m, &cfg, 3), detection_input(&m, &cfg, 3));
        assert_ne!(
            detection_input(&m, &cfg, 0).data(),
            detection_input(&m, &cfg, 4).data()
        );
    }
}

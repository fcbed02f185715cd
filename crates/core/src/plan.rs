use crate::{MilrConfig, MilrError, Result};
use milr_nn::{Layer, Sequential};

/// How a layer's parameters will be solved during recovery (the paper's
/// function `R(x, y) = p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolvingPlan {
    /// Dense layer: factor the (dummy-padded) input, one solve per output
    /// column. `dummy_rows` PRNG rows are appended so the system has at
    /// least N equations (§IV-A-b); their outputs are stored at init.
    DenseFull {
        /// PRNG input rows appended to reach `M ≥ N`.
        dummy_rows: usize,
    },
    /// Convolution with `B·G² ≥ F²Z`: the full filter bank is exactly
    /// recoverable from the im2col system (§IV-B-b).
    ConvFull,
    /// Convolution with `B·G² < F²Z`: *partial recoverability* — 2-D CRC
    /// pinpoints erroneous weights, shrinking the unknown set to at most
    /// `G²` per filter; whole-layer corruption falls back to
    /// minimum-norm least squares (§IV-B-b, §V-B).
    ConvPartial,
    /// Bias layer: parameters are `y − x`, deduplicated (§IV-E-b).
    Bias,
}

/// How backward passes (`f⁻¹`) will cross this layer when recovering
/// layers that precede it in the same checkpoint segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InversionPlan {
    /// Invertible as-is (dense `P ≥ N`, conv `Y ≥ F²Z`, bias, flatten,
    /// padding, activations under MILR semantics).
    Native,
    /// Made invertible by `extra` PRNG dummy parameters (dense columns
    /// or conv filters); only their outputs are stored (§III,
    /// opportunity 3).
    DummyData {
        /// Dummy columns/filters appended for inversion.
        extra: usize,
    },
    /// No parameterized layer precedes it in its segment, so no backward
    /// pass ever crosses it (§III, opportunity 2).
    NotNeeded,
    /// Not invertible (pooling, or dummy data costlier than a
    /// checkpoint): a full input checkpoint is stored at this layer's
    /// position instead, ending the segment (§III, opportunity 1 in
    /// reverse).
    Checkpointed,
}

/// Planning record for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerPlan {
    /// Layer index in the model.
    pub index: usize,
    /// Layer kind name.
    pub kind: String,
    /// Trainable parameter count.
    pub param_count: usize,
    /// Solving strategy (`None` for parameterless layers).
    pub solving: Option<SolvingPlan>,
    /// Inversion strategy.
    pub inversion: InversionPlan,
}

/// The initialization-phase output: checkpoint positions and per-layer
/// strategies.
///
/// Position `p` denotes the tensor flowing *into* layer `p` (equals the
/// output of layer `p − 1`); position `len` is the network output.
/// Position 0 is never stored — the golden input is regenerated from its
/// seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtectionPlan {
    /// Per-layer plans, indexed by layer.
    pub layers: Vec<LayerPlan>,
    /// Stored full-checkpoint positions, ascending; always ends with the
    /// network-output position `layers.len()`.
    pub checkpoints: Vec<usize>,
}

impl ProtectionPlan {
    /// Builds the plan for a model (the paper's initialization-phase
    /// placement logic).
    ///
    /// # Errors
    ///
    /// Returns [`MilrError::ModelMismatch`] for an empty model.
    pub fn build(model: &Sequential, config: &MilrConfig) -> Result<Self> {
        if model.is_empty() {
            return Err(MilrError::ModelMismatch("model has no layers".into()));
        }
        let b = config.flow_batch.max(1);
        let mut layers = Vec::with_capacity(model.len());
        let mut checkpoints = Vec::new();
        // True when a parameterized layer exists in the current segment
        // before the layer being examined — only then do backward passes
        // ever cross it.
        let mut has_param_before = false;
        for (i, layer) in model.layers().iter().enumerate() {
            let input = model.shape_at(i);
            let (solving, inversion) = match layer {
                Layer::Dense { weights } => {
                    let n = weights.shape().dim(0);
                    let p = weights.shape().dim(1);
                    // Paper: pad to M ≥ N with N − B dummy rows. The
                    // self-recovery extension stores N rows so the dense
                    // system is solvable without any propagated values.
                    let dummy_rows = if config.dense_self_recovery {
                        n
                    } else {
                        n.saturating_sub(b)
                    };
                    let solving = SolvingPlan::DenseFull { dummy_rows };
                    let inversion = if !has_param_before {
                        InversionPlan::NotNeeded
                    } else if p >= n {
                        InversionPlan::Native
                    } else {
                        // Dummy outputs cost B·(N−P) floats; an input
                        // checkpoint costs B·N floats — dummy data always
                        // wins for dense, but keep the comparison
                        // explicit in case of degenerate shapes.
                        let extra = n - p;
                        let dummy_cost = b * extra;
                        let ckpt_cost = b * n;
                        if dummy_cost <= ckpt_cost {
                            InversionPlan::DummyData { extra }
                        } else {
                            InversionPlan::Checkpointed
                        }
                    };
                    (Some(solving), inversion)
                }
                Layer::Conv2D { filters, spec } => {
                    let f = filters.shape().dim(0);
                    let z = filters.shape().dim(2);
                    let y = filters.shape().dim(3);
                    let unknowns = f * f * z;
                    let (gh, _) = spec.output_dim(input[0])?;
                    let (gw, _) = spec.output_dim(input[1])?;
                    let equations = b * gh * gw;
                    let solving = if equations >= unknowns {
                        SolvingPlan::ConvFull
                    } else {
                        SolvingPlan::ConvPartial
                    };
                    let inversion = if !has_param_before {
                        InversionPlan::NotNeeded
                    } else if y >= unknowns {
                        InversionPlan::Native
                    } else {
                        let extra = unknowns - y;
                        // Dummy filters store (B, G, G, extra) outputs;
                        // the checkpoint alternative stores the layer
                        // input (B, M, M, Z). Choose the cheaper (§III).
                        let dummy_cost = b * gh * gw * extra;
                        let ckpt_cost = b * input.iter().product::<usize>();
                        if dummy_cost <= ckpt_cost {
                            InversionPlan::DummyData { extra }
                        } else {
                            InversionPlan::Checkpointed
                        }
                    };
                    (Some(solving), inversion)
                }
                Layer::Bias { .. } => (Some(SolvingPlan::Bias), InversionPlan::Native),
                Layer::MaxPool2D(_) | Layer::AvgPool2D(_) => {
                    // Pooling destroys information (§IV-C). If backward
                    // passes would need to cross it, anchor them with a
                    // checkpoint of its input instead.
                    let inv = if has_param_before {
                        InversionPlan::Checkpointed
                    } else {
                        InversionPlan::NotNeeded
                    };
                    (None, inv)
                }
                Layer::Activation(_)
                | Layer::Dropout { .. }
                | Layer::Flatten
                | Layer::ZeroPad2D { .. } => (None, InversionPlan::Native),
            };
            if inversion == InversionPlan::Checkpointed {
                checkpoints.push(i);
                has_param_before = false;
            }
            if layer.param_count() > 0 {
                has_param_before = true;
            }
            layers.push(LayerPlan {
                index: i,
                kind: layer.kind_name().to_string(),
                param_count: layer.param_count(),
                solving,
                inversion,
            });
        }
        // The golden network output is always checkpointed.
        checkpoints.push(model.len());
        Ok(ProtectionPlan {
            layers,
            checkpoints,
        })
    }

    /// The checkpoint segments `(start, end)` (positions, half-open over
    /// layers `start..end`), covering the whole network.
    pub fn segments(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.checkpoints.len());
        let mut start = 0usize;
        for &c in &self.checkpoints {
            if c > start {
                out.push((start, c));
            }
            start = c;
        }
        out
    }

    /// The segment containing layer `index`.
    pub fn segment_of(&self, index: usize) -> (usize, usize) {
        for (s, e) in self.segments() {
            if index >= s && index < e {
                return (s, e);
            }
        }
        // Only reachable for out-of-range indices; the final segment
        // always ends at len().
        (0, self.layers.len())
    }

    /// Maximum number of simultaneously erroneous layers MILR can fully
    /// recover: one per segment ("the system can only recover at most one
    /// layer in between two checkpoints", §III).
    pub fn recoverable_layer_budget(&self) -> usize {
        self.segments().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Activation;
    use milr_tensor::{ConvSpec, Padding, PoolSpec, TensorRng};

    fn conv_model() -> Sequential {
        // conv(8ch) -> bias -> relu -> pool -> conv(4ch wide) -> bias
        //   -> flatten -> dense -> bias
        let mut rng = TensorRng::new(1);
        let mut m = Sequential::new(vec![12, 12, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 8, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(8)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::conv2d_random(3, 8, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(3 * 3 * 4, 6, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(6)).unwrap();
        m
    }

    #[test]
    fn rejects_empty_model() {
        let m = Sequential::new(vec![4]);
        assert!(ProtectionPlan::build(&m, &MilrConfig::default()).is_err());
    }

    #[test]
    fn pool_after_params_forces_checkpoint() {
        let m = conv_model();
        let plan = ProtectionPlan::build(&m, &MilrConfig::default()).unwrap();
        // Pool is layer 3 and conv/bias precede it.
        assert_eq!(plan.layers[3].inversion, InversionPlan::Checkpointed);
        assert!(plan.checkpoints.contains(&3));
        // Final output always checkpointed.
        assert!(plan.checkpoints.contains(&m.len()));
    }

    #[test]
    fn first_layer_inversion_not_needed() {
        let m = conv_model();
        let plan = ProtectionPlan::build(&m, &MilrConfig::default()).unwrap();
        // Layer 0 has nothing before it to recover.
        assert_eq!(plan.layers[0].inversion, InversionPlan::NotNeeded);
        // Conv at layer 4 follows the pool checkpoint, so it is the
        // first parameterized layer of its segment.
        assert_eq!(plan.layers[4].inversion, InversionPlan::NotNeeded);
    }

    #[test]
    fn dense_solving_pads_to_n_rows() {
        let m = conv_model();
        let plan = ProtectionPlan::build(&m, &MilrConfig::default()).unwrap();
        match plan.layers[7].solving {
            Some(SolvingPlan::DenseFull { dummy_rows }) => {
                assert_eq!(dummy_rows, 36 - 1);
            }
            other => panic!("expected DenseFull, got {other:?}"),
        }
    }

    #[test]
    fn conv_solving_strategy_follows_geometry() {
        let m = conv_model();
        let plan = ProtectionPlan::build(&m, &MilrConfig::default()).unwrap();
        // Conv 0: G² = 100 ≥ F²Z = 9 -> full.
        assert_eq!(plan.layers[0].solving, Some(SolvingPlan::ConvFull));
        // Conv 4: G² = 9 < F²Z = 72 -> partial.
        assert_eq!(plan.layers[4].solving, Some(SolvingPlan::ConvPartial));
    }

    #[test]
    fn dense_inversion_uses_dummy_columns_when_narrow() {
        // dense 8 -> 3 (P < N) following another dense: needs dummies.
        let mut rng = TensorRng::new(2);
        let mut m = Sequential::new(vec![8]);
        m.push(Layer::dense_random(8, 8, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::dense_random(8, 3, &mut rng).unwrap())
            .unwrap();
        let plan = ProtectionPlan::build(&m, &MilrConfig::default()).unwrap();
        assert_eq!(
            plan.layers[1].inversion,
            InversionPlan::DummyData { extra: 5 }
        );
        // The first dense is wide enough but is also first in segment.
        assert_eq!(plan.layers[0].inversion, InversionPlan::NotNeeded);
    }

    #[test]
    fn segments_partition_the_network() {
        let m = conv_model();
        let plan = ProtectionPlan::build(&m, &MilrConfig::default()).unwrap();
        let segs = plan.segments();
        // Continuous cover from 0 to len.
        assert_eq!(segs.first().unwrap().0, 0);
        assert_eq!(segs.last().unwrap().1, m.len());
        for w in segs.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // segment_of agrees.
        for i in 0..m.len() {
            let (s, e) = plan.segment_of(i);
            assert!(i >= s && i < e);
        }
        assert_eq!(plan.recoverable_layer_budget(), segs.len());
    }

    #[test]
    fn flow_batch_affects_dense_dummies() {
        let mut rng = TensorRng::new(3);
        let mut m = Sequential::new(vec![8]);
        m.push(Layer::dense_random(8, 4, &mut rng).unwrap())
            .unwrap();
        let cfg = MilrConfig {
            flow_batch: 8,
            ..MilrConfig::default()
        };
        let plan = ProtectionPlan::build(&m, &cfg).unwrap();
        assert_eq!(
            plan.layers[0].solving,
            Some(SolvingPlan::DenseFull { dummy_rows: 0 })
        );
    }
}

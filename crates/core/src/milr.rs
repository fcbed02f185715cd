use crate::artifacts::{golden_input, Artifacts};
use crate::detect::{run_detection, run_detection_subset, DetectionReport};
use crate::invert::backward_to;
use crate::plan::{ProtectionPlan, SolvingPlan};
use crate::semantics::{milr_forward_range, SegmentView};
use crate::solve::{solve_bias, solve_conv_partial, solve_dense, SolveOutcome};
use crate::storage::StorageReport;
use crate::{MilrConfig, MilrError, Result};
use milr_nn::{Layer, Sequential};
use milr_tensor::Tensor;
use std::time::Duration;

/// How one flagged layer fared during recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryOutcome {
    /// Parameters fully re-solved (exact up to `f32` rounding).
    Full,
    /// CRC-guided partial recovery: only the flagged weights were
    /// re-solved.
    Partial {
        /// Number of weights re-solved.
        solved: usize,
    },
    /// Minimum-norm least-squares approximation — the under-determined
    /// whole-layer case of partial-recoverability conv layers (the
    /// paper's "N/A — convolution partial recoverable" rows).
    MinNorm {
        /// Number of approximated unknowns.
        unknowns: usize,
    },
    /// Recovery failed (propagation or solve error); parameters left
    /// unchanged.
    Failed {
        /// Human-readable reason.
        reason: String,
    },
}

impl RecoveryOutcome {
    /// True when the heal re-solved the layer's parameters themselves —
    /// fully or CRC-guided partially — rather than approximating them.
    /// [`RecoveryOutcome::MinNorm`] and [`RecoveryOutcome::Failed`] are
    /// *not* exact: the layer is beyond MILR's recoverable set (the
    /// paper's partial-recoverability limit, §V-B), and a replicated
    /// deployment should restore it from a peer's certified store
    /// instead of accepting the approximation.
    pub fn is_exact(&self) -> bool {
        matches!(
            self,
            RecoveryOutcome::Full | RecoveryOutcome::Partial { .. }
        )
    }
}

impl From<SolveOutcome> for RecoveryOutcome {
    fn from(o: SolveOutcome) -> Self {
        match o {
            SolveOutcome::Full => RecoveryOutcome::Full,
            SolveOutcome::Partial { solved } => RecoveryOutcome::Partial { solved },
            SolveOutcome::MinNorm { unknowns } => RecoveryOutcome::MinNorm { unknowns },
        }
    }
}

/// Output of the recovery phase.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Per-flagged-layer outcomes, in recovery order.
    pub outcomes: Vec<(usize, RecoveryOutcome)>,
    /// Wall-clock duration of the recovery pass (Figure 11's quantity).
    pub elapsed: Duration,
}

impl RecoveryReport {
    /// True when every flagged layer recovered fully.
    pub fn all_full(&self) -> bool {
        self.outcomes
            .iter()
            .all(|(_, o)| matches!(o, RecoveryOutcome::Full))
    }

    /// True when every flagged layer's heal was exact
    /// ([`RecoveryOutcome::is_exact`]).
    pub fn all_exact(&self) -> bool {
        self.outcomes.iter().all(|(_, o)| o.is_exact())
    }

    /// Indices of the layers whose heal was **not** exact — the
    /// irrecoverable set a replicated deployment hands to peer repair.
    pub fn irrecoverable(&self) -> Vec<usize> {
        self.outcomes
            .iter()
            .filter(|(_, o)| !o.is_exact())
            .map(|(i, _)| *i)
            .collect()
    }
}

/// A MILR protection instance: the plan plus every artifact of the
/// initialization phase, ready to run detection and recovery against
/// the live model.
///
/// See the [crate docs](crate) for the end-to-end flow.
#[derive(Debug, Clone)]
pub struct Milr {
    config: MilrConfig,
    plan: ProtectionPlan,
    artifacts: Artifacts,
    /// Structural fingerprint of the protected model, used to reject
    /// detection/recovery against a different architecture.
    fingerprint: Vec<(String, usize)>,
}

impl Milr {
    /// Runs the initialization phase on a (presumed golden) model:
    /// plans checkpoints and dummy data, then computes and stores all
    /// artifacts.
    ///
    /// # Errors
    ///
    /// Returns [`MilrError::ModelMismatch`] for empty models and
    /// propagates tensor/geometry failures.
    pub fn protect(model: &Sequential, config: MilrConfig) -> Result<Self> {
        let plan = ProtectionPlan::build(model, &config)?;
        let artifacts = Artifacts::build(model, &plan, &config)?;
        Ok(Milr {
            config,
            plan,
            artifacts,
            fingerprint: fingerprint(model),
        })
    }

    /// Reassembles an instance from deserialized parts (the
    /// persistence path; see `serialize.rs`).
    pub(crate) fn from_parts(
        config: MilrConfig,
        plan: ProtectionPlan,
        artifacts: Artifacts,
        fingerprint: Vec<(String, usize)>,
    ) -> Self {
        Milr {
            config,
            plan,
            artifacts,
            fingerprint,
        }
    }

    /// The stored artifacts (serialization access).
    pub(crate) fn artifacts(&self) -> &Artifacts {
        &self.artifacts
    }

    /// The structural fingerprint (serialization access).
    pub(crate) fn fingerprint_data(&self) -> &[(String, usize)] {
        &self.fingerprint
    }

    /// The protection plan.
    pub fn plan(&self) -> &ProtectionPlan {
        &self.plan
    }

    /// The configuration.
    pub fn config(&self) -> &MilrConfig {
        &self.config
    }

    /// Storage accounting for the stored artifacts (Tables V/VII/IX).
    pub fn storage_report(&self, model: &Sequential) -> StorageReport {
        StorageReport::compute(model, &self.plan, &self.artifacts)
    }

    /// Runs the error-detection phase against the live model.
    ///
    /// # Errors
    ///
    /// Returns [`MilrError::ModelMismatch`] when the model's structure
    /// differs from the protected one.
    pub fn detect(&self, model: &Sequential) -> Result<DetectionReport> {
        self.check_structure(model)?;
        run_detection(model, &self.artifacts, &self.config)
    }

    /// Indices of the layers that carry a detection check (convolution,
    /// dense and bias layers), ascending — the index space
    /// [`Milr::detect_layers`] accepts.
    pub fn checkable_layers(&self) -> Vec<usize> {
        self.plan
            .layers
            .iter()
            .filter(|l| l.solving.is_some())
            .map(|l| l.index)
            .collect()
    }

    /// Number of layers carrying a detection check, without
    /// materializing the index list — the denominator of the integrity
    /// engine's fast-path accounting (how many layers a subset verify
    /// skipped relative to a full re-detect).
    pub fn checkable_count(&self) -> usize {
        self.plan
            .layers
            .iter()
            .filter(|l| l.solving.is_some())
            .count()
    }

    /// Runs the error-detection phase on a subset of layers — the
    /// online-scrubbing entry point: a background scrubber can sweep
    /// the model incrementally, checking a few layers per tick instead
    /// of the whole model, because every layer's check is independent
    /// (private seeded input vs stored probes). A full pass over
    /// [`Milr::checkable_layers`] in any chunking flags exactly what
    /// one [`Milr::detect`] call would.
    ///
    /// # Errors
    ///
    /// Returns [`MilrError::ModelMismatch`] for structural mismatches
    /// or when `layers` contains an index without a detection check.
    pub fn detect_layers(&self, model: &Sequential, layers: &[usize]) -> Result<DetectionReport> {
        self.check_structure(model)?;
        run_detection_subset(model, &self.artifacts, &self.config, layers)
    }

    /// Runs the recovery phase: heals every layer flagged in `report`,
    /// writing recovered parameters into `model` in place.
    ///
    /// Layers are processed in ascending order within each checkpoint
    /// segment; with multiple erroneous layers in one segment the
    /// propagated golden values degrade and recovery becomes
    /// best-effort, exactly as the paper describes (§V-A).
    ///
    /// # Errors
    ///
    /// Returns [`MilrError::ModelMismatch`] for structural mismatches.
    /// Per-layer failures do not abort the pass; they are recorded as
    /// [`RecoveryOutcome::Failed`].
    pub fn recover(
        &self,
        model: &mut Sequential,
        report: &DetectionReport,
    ) -> Result<RecoveryReport> {
        self.recover_layers(model, &report.flagged)
    }

    /// Iterative refinement (an extension beyond the paper): re-runs
    /// recovery over the same flagged set up to `iterations` times.
    ///
    /// When two erroneous layers share one checkpoint segment, each
    /// one's golden input/output propagates through the other's corrupt
    /// parameters, so a single pass is only best-effort (§V-A). Because
    /// every pass replaces each flagged layer with the exact solution
    /// *given its neighbours' current state*, alternating passes
    /// contract toward the golden fixed point; iteration stops early
    /// once all outcomes are `Full` and parameters stop moving.
    ///
    /// # Errors
    ///
    /// See [`Milr::recover`].
    pub fn recover_iterative(
        &self,
        model: &mut Sequential,
        flagged: &[usize],
        iterations: usize,
    ) -> Result<RecoveryReport> {
        let start = std::time::Instant::now();
        let mut last = RecoveryReport {
            outcomes: Vec::new(),
            elapsed: Duration::ZERO,
        };
        let mut previous: Option<Vec<Tensor>> = None;
        for _ in 0..iterations.max(1) {
            last = self.recover_layers(model, flagged)?;
            let snapshot: Vec<Tensor> = flagged
                .iter()
                .filter_map(|&i| model.layers()[i].params().cloned())
                .collect();
            if let Some(prev) = &previous {
                let converged = prev
                    .iter()
                    .zip(snapshot.iter())
                    .all(|(a, b)| a.approx_eq(b, 1e-7, 1e-9));
                if converged {
                    break;
                }
            }
            previous = Some(snapshot);
        }
        Ok(RecoveryReport {
            outcomes: last.outcomes,
            elapsed: start.elapsed(),
        })
    }

    /// Recovers an explicit list of layer indices (useful for targeted
    /// healing, e.g. the whole-layer-corruption experiment where the
    /// corrupted layer is known).
    ///
    /// Independent checkpoint **segments** heal from their own anchors
    /// (§V-A), so the flagged segments are the only parallelism:
    /// one flagged segment heals inline on the calling thread, several
    /// heal on one scoped thread each. Every segment works on a clone
    /// of just its `[seg_start, seg_end)` layer window (propagation
    /// never reads outside that range, so transient memory is
    /// `O(largest segment)` per segment, not `O(model)`), and the
    /// healed parameters are written back in segment order once all
    /// segments are done. Within a segment the solve order stays
    /// serial, because same-segment layers propagate through one
    /// another. Outcomes and parameters are therefore bit-identical to
    /// healing each segment with its own call.
    ///
    /// # Errors
    ///
    /// See [`Milr::recover`].
    pub fn recover_layers(
        &self,
        model: &mut Sequential,
        flagged: &[usize],
    ) -> Result<RecoveryReport> {
        self.check_structure(model)?;
        let start = std::time::Instant::now();
        let mut flagged: Vec<usize> = flagged.to_vec();
        flagged.sort_unstable();
        flagged.dedup();
        let work: Vec<(usize, usize, Vec<usize>)> = self
            .plan
            .segments()
            .into_iter()
            .filter_map(|(seg_start, seg_end)| {
                let in_segment: Vec<usize> = flagged
                    .iter()
                    .copied()
                    .filter(|&i| i >= seg_start && i < seg_end)
                    .collect();
                (!in_segment.is_empty()).then_some((seg_start, seg_end, in_segment))
            })
            .collect();
        type SegmentResult = Result<Vec<(usize, RecoveryOutcome, Option<Tensor>)>>;
        let base: &Sequential = model;
        let heal =
            |(seg_start, seg_end, in_segment): &(usize, usize, Vec<usize>)| -> SegmentResult {
                let mut view = SegmentView::from_model(base, *seg_start, *seg_end);
                let outs =
                    self.recover_segment(base, &mut view, *seg_start, *seg_end, in_segment)?;
                let indices: Vec<usize> = outs.iter().map(|(i, _)| *i).collect();
                Ok(outs
                    .into_iter()
                    .zip(view.extract_params(&indices))
                    .map(|((i, outcome), (_, params))| (i, outcome, params))
                    .collect())
            };
        let results: Vec<SegmentResult> = if work.len() > 1 {
            // One scoped thread per segment, joined in segment order; a
            // thread's panic resumes on this thread.
            std::thread::scope(|scope| {
                let workers: Vec<_> = work
                    .iter()
                    .map(|segment| scope.spawn(move || heal(segment)))
                    .collect();
                workers
                    .into_iter()
                    .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                    .collect()
            })
        } else {
            work.iter().map(heal).collect()
        };
        let mut outcomes = Vec::new();
        for result in results {
            for (i, outcome, params) in result? {
                if let (Some(healed), Some(dst)) = (params, model.layers_mut()[i].params_mut()) {
                    *dst = healed;
                }
                outcomes.push((i, outcome));
            }
        }
        Ok(RecoveryReport {
            outcomes,
            elapsed: start.elapsed(),
        })
    }

    /// Heals every flagged layer of one checkpoint segment, in
    /// ascending order, inside the segment's layer window. The serial
    /// core of [`Milr::recover_layers`]; `model` is only consulted for
    /// the segment-start anchor (the golden input when the segment
    /// opens the network).
    fn recover_segment(
        &self,
        model: &Sequential,
        view: &mut SegmentView,
        seg_start: usize,
        seg_end: usize,
        in_segment: &[usize],
    ) -> Result<Vec<(usize, RecoveryOutcome)>> {
        let input_anchor = self.anchor(model, seg_start)?;
        let output_anchor = self
            .artifacts
            .full_checkpoints
            .get(&seg_end)
            .ok_or_else(|| MilrError::CorruptArtifacts(format!("missing checkpoint {seg_end}")))?
            .clone();
        let mut outcomes = Vec::new();
        for &f in in_segment {
            let outcome =
                self.recover_one(view, f, &input_anchor, seg_start, &output_anchor, seg_end);
            outcomes.push((
                f,
                match outcome {
                    Ok(o) => o.into(),
                    Err(e) => RecoveryOutcome::Failed {
                        reason: e.to_string(),
                    },
                },
            ));
        }
        Ok(outcomes)
    }

    fn anchor(&self, model: &Sequential, position: usize) -> Result<Tensor> {
        if position == 0 {
            Ok(golden_input(model, &self.config))
        } else {
            self.artifacts
                .full_checkpoints
                .get(&position)
                .cloned()
                .ok_or_else(|| {
                    MilrError::CorruptArtifacts(format!("missing checkpoint {position}"))
                })
        }
    }

    fn recover_one(
        &self,
        view: &mut SegmentView,
        index: usize,
        input_anchor: &Tensor,
        seg_start: usize,
        output_anchor: &Tensor,
        seg_end: usize,
    ) -> Result<SolveOutcome> {
        // Golden input: forward from the segment-start anchor.
        let x = milr_forward_range(view, input_anchor, seg_start, index)?;
        // Golden output: inverse passes from the segment-end anchor.
        let y = backward_to(
            view,
            &self.plan,
            &self.artifacts,
            &self.config,
            output_anchor,
            seg_end,
            index,
        )?;
        let solving = self.plan.layers[index].solving.ok_or_else(|| {
            MilrError::ModelMismatch(format!("layer {index} has no parameters to recover"))
        })?;
        let (recovered, outcome) = match (view.layer(index), solving) {
            (Layer::Dense { weights }, plan @ SolvingPlan::DenseFull { .. }) => {
                let n = weights.shape().dim(0);
                let p = weights.shape().dim(1);
                solve_dense(&x, &y, plan, &self.artifacts, &self.config, index, n, p)?
            }
            // Both conv plans route through the CRC-guided solver: it
            // degrades to a full solve when every weight is flagged, and
            // the stored grids verify the healed bank bit-exactly. This
            // matters even for `ConvFull` geometry — a conv fed by
            // another conv has a rank-deficient im2col system, where a
            // blind full solve returns consistent-but-wrong weights.
            (Layer::Conv2D { filters, spec }, SolvingPlan::ConvFull | SolvingPlan::ConvPartial) => {
                solve_conv_partial(&x, &y, filters, spec, &self.artifacts, &self.config, index)?
            }
            (Layer::Bias { bias }, SolvingPlan::Bias) => {
                solve_bias(&x, &y, bias.numel(), self.config.weight_grid)?
            }
            (layer, plan) => {
                return Err(MilrError::ModelMismatch(format!(
                    "layer {index} ({}) does not match its solving plan {plan:?}",
                    layer.kind_name()
                )))
            }
        };
        let params = view
            .layer_mut(index)
            .params_mut()
            .ok_or_else(|| MilrError::ModelMismatch(format!("layer {index} lost its params")))?;
        *params = recovered;
        Ok(outcome)
    }

    fn check_structure(&self, model: &Sequential) -> Result<()> {
        let fp = fingerprint(model);
        if fp != self.fingerprint {
            return Err(MilrError::ModelMismatch(format!(
                "model structure changed since protection ({} vs {} layers)",
                fp.len(),
                self.fingerprint.len()
            )));
        }
        Ok(())
    }
}

fn fingerprint(model: &Sequential) -> Vec<(String, usize)> {
    model
        .layers()
        .iter()
        .map(|l| (l.kind_name().to_string(), l.param_count()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_fault::{corrupt_layer, inject_rber, inject_whole_weight, FaultRng};
    use milr_nn::Activation;
    use milr_tensor::{ConvSpec, Padding, PoolSpec, TensorRng};

    /// A miniature network exercising every layer type MILR handles.
    ///
    /// Sized so that the second convolution (partial recoverability,
    /// F²Z = 54 > G² = 16) still has enough equations per filter to
    /// re-solve CRC-flagged weights exactly for small error counts.
    fn test_model(seed: u64) -> Sequential {
        let mut rng = TensorRng::new(seed);
        let mut m = Sequential::new(vec![14, 14, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 6, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(6)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
            .unwrap();
        m.push(Layer::conv2d_random(3, 6, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Activation(Activation::Relu)).unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(4 * 4 * 4, 8, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(8)).unwrap();
        m.push(Layer::Activation(Activation::Softmax)).unwrap();
        m
    }

    fn protect(m: &Sequential) -> Milr {
        Milr::protect(m, MilrConfig::default()).unwrap()
    }

    fn params_eq(a: &Sequential, b: &Sequential, rtol: f32, atol: f32) -> bool {
        a.layers()
            .iter()
            .zip(b.layers().iter())
            .all(|(x, y)| match (x.params(), y.params()) {
                (Some(p), Some(q)) => p.approx_eq(q, rtol, atol),
                (None, None) => true,
                _ => false,
            })
    }

    #[test]
    fn clean_network_detects_clean_and_recovers_nothing() {
        let mut m = test_model(1);
        let milr = protect(&m);
        let report = milr.detect(&m).unwrap();
        assert!(report.is_clean());
        let rec = milr.recover(&mut m, &report).unwrap();
        assert!(rec.outcomes.is_empty());
    }

    #[test]
    fn heals_single_corrupted_conv_layer() {
        let mut m = test_model(2);
        let golden = m.clone();
        let milr = protect(&m);
        m.layers_mut()[0].params_mut().unwrap().data_mut()[10] = 47.0;
        let report = milr.detect(&m).unwrap();
        assert_eq!(report.flagged, vec![0]);
        let rec = milr.recover(&mut m, &report).unwrap();
        // CRC localizes the single bad weight: exact partial recovery.
        assert!(
            matches!(rec.outcomes[0].1, RecoveryOutcome::Partial { solved } if solved >= 1),
            "{:?}",
            rec.outcomes
        );
        assert!(params_eq(&m, &golden, 1e-4, 1e-5));
    }

    #[test]
    fn heals_corrupted_dense_layer() {
        let mut m = test_model(3);
        let golden = m.clone();
        let milr = protect(&m);
        let w = m.layers_mut()[8].params_mut().unwrap().data_mut();
        inject_whole_weight(w, 0.2, &mut FaultRng::seed(5));
        let report = milr.detect(&m).unwrap();
        assert_eq!(report.flagged, vec![8]);
        milr.recover(&mut m, &report).unwrap();
        assert!(params_eq(&m, &golden, 1e-4, 1e-5));
    }

    #[test]
    fn heals_corrupted_bias_layer() {
        let mut m = test_model(4);
        let golden = m.clone();
        let milr = protect(&m);
        m.layers_mut()[5].params_mut().unwrap().data_mut()[1] = -3.5;
        let report = milr.detect(&m).unwrap();
        assert_eq!(report.flagged, vec![5]);
        milr.recover(&mut m, &report).unwrap();
        assert!(params_eq(&m, &golden, 1e-4, 1e-5));
    }

    #[test]
    fn heals_whole_layer_corruption_of_recoverable_layers() {
        // Layer 8 (dense) fully randomized -> exact recovery expected.
        let mut m = test_model(5);
        let golden = m.clone();
        let milr = protect(&m);
        corrupt_layer(
            m.layers_mut()[8].params_mut().unwrap().data_mut(),
            &mut FaultRng::seed(9),
        );
        let report = milr.detect(&m).unwrap();
        assert!(report.flagged.contains(&8));
        let rec = milr.recover(&mut m, &report).unwrap();
        assert!(rec.all_full(), "{:?}", rec.outcomes);
        assert!(params_eq(&m, &golden, 1e-4, 1e-5));
    }

    #[test]
    fn heals_multiple_layers_in_different_segments() {
        let mut m = test_model(6);
        let golden = m.clone();
        let milr = protect(&m);
        // Conv 0 (segment before the pool checkpoint) and dense 8
        // (after it).
        m.layers_mut()[0].params_mut().unwrap().data_mut()[3] += 5.0;
        m.layers_mut()[8].params_mut().unwrap().data_mut()[7] -= 4.0;
        let report = milr.detect(&m).unwrap();
        assert_eq!(report.flagged, vec![0, 8]);
        let rec = milr.recover(&mut m, &report).unwrap();
        for (_, outcome) in &rec.outcomes {
            assert!(
                matches!(
                    outcome,
                    RecoveryOutcome::Full | RecoveryOutcome::Partial { .. }
                ),
                "{:?}",
                rec.outcomes
            );
        }
        assert!(params_eq(&m, &golden, 1e-4, 1e-5));
    }

    #[test]
    fn heals_rber_injection_with_self_recovery_extension() {
        // With the dense self-recovery extension, the dense layer heals
        // independently of its segment-mates, so iterative recovery
        // converges to the golden parameters even with several
        // erroneous layers in one checkpoint segment.
        let mut m = test_model(7);
        let golden = m.clone();
        let milr = Milr::protect(
            &m,
            MilrConfig {
                dense_self_recovery: true,
                ..MilrConfig::default()
            },
        )
        .unwrap();
        let mut rng = FaultRng::seed(11);
        for layer in m.layers_mut() {
            if let Some(p) = layer.params_mut() {
                inject_rber(p.data_mut(), 1e-3, &mut rng);
            }
        }
        let report = milr.detect(&m).unwrap();
        assert!(!report.is_clean());
        milr.recover_iterative(&mut m, &report.flagged, 4).unwrap();
        assert!(
            params_eq(&m, &golden, 1e-3, 1e-4),
            "parameters did not converge to golden"
        );
    }

    #[test]
    fn paper_mode_multi_error_segment_is_best_effort() {
        // Paper-faithful configuration: several erroneous layers inside
        // one checkpoint segment recover approximately, not exactly
        // (§V-A: "full self-healing cannot be guaranteed. However,
        // error recovery is invoked regardless"). What IS guaranteed:
        // layers that are alone in their segment heal exactly.
        let mut m = test_model(7);
        let golden = m.clone();
        let milr = protect(&m);
        let mut rng = FaultRng::seed(18);
        for layer in m.layers_mut() {
            if let Some(p) = layer.params_mut() {
                inject_rber(p.data_mut(), 1e-3, &mut rng);
            }
        }
        let report = milr.detect(&m).unwrap();
        // Seed 18 flags conv 0 (alone among checkpoints 0..3) plus conv
        // 4 and dense 8, which share segment 3..11.
        assert_eq!(report.flagged, vec![0, 4, 8]);
        let rec = milr.recover(&mut m, &report).unwrap();
        assert_eq!(rec.outcomes.len(), 3);
        // Singleton-segment layer healed exactly.
        assert!(m.layers()[0].params().unwrap().approx_eq(
            golden.layers()[0].params().unwrap(),
            1e-4,
            1e-5
        ));
        // Shared-segment layers were re-solved (parameters moved toward
        // reproducing the golden flow) — recovery reports them, and the
        // recovered network still reproduces the stored golden output
        // checkpoint reasonably (best-effort contract).
        for (_, outcome) in &rec.outcomes {
            assert!(!matches!(outcome, RecoveryOutcome::Failed { .. }));
        }
    }

    #[test]
    fn rejects_structurally_different_model() {
        let m = test_model(8);
        let milr = protect(&m);
        let other = test_model(9); // same structure, different weights: OK
        assert!(milr.detect(&other).is_ok());
        let mut rng = TensorRng::new(1);
        let mut different = Sequential::new(vec![4]);
        different
            .push(Layer::dense_random(4, 2, &mut rng).unwrap())
            .unwrap();
        assert!(matches!(
            milr.detect(&different),
            Err(MilrError::ModelMismatch(_))
        ));
    }

    #[test]
    fn recover_layers_accepts_explicit_targets() {
        let mut m = test_model(10);
        let golden = m.clone();
        let milr = protect(&m);
        corrupt_layer(
            m.layers_mut()[9].params_mut().unwrap().data_mut(),
            &mut FaultRng::seed(3),
        );
        // Heal without running detection (targeted recovery).
        let rec = milr.recover_layers(&mut m, &[9]).unwrap();
        assert!(rec.all_full());
        assert!(params_eq(&m, &golden, 1e-4, 1e-5));
    }

    #[test]
    fn reports_failed_recovery_without_aborting() {
        let mut m = test_model(11);
        let milr = protect(&m);
        // Ask to recover a parameterless layer: Failed outcome, no
        // panic, other layers unaffected.
        let rec = milr.recover_layers(&mut m, &[2]).unwrap();
        assert_eq!(rec.outcomes.len(), 1);
        assert!(matches!(rec.outcomes[0].1, RecoveryOutcome::Failed { .. }));
    }

    #[test]
    fn incremental_detection_covers_the_model() {
        let mut m = test_model(13);
        let milr = protect(&m);
        let checkable = milr.checkable_layers();
        // Conv 0/4, bias 1/5/9, dense 8.
        assert_eq!(checkable, vec![0, 1, 4, 5, 8, 9]);
        m.layers_mut()[4].params_mut().unwrap().data_mut()[2] = 31.0;
        // Sweep two layers per tick, as an online scrubber would.
        let mut flagged = Vec::new();
        for chunk in checkable.chunks(2) {
            flagged.extend(milr.detect_layers(&m, chunk).unwrap().flagged);
        }
        flagged.sort_unstable();
        assert_eq!(flagged, milr.detect(&m).unwrap().flagged);
        assert_eq!(flagged, vec![4]);
    }

    #[test]
    fn storage_report_is_consistent() {
        let m = test_model(12);
        let milr = protect(&m);
        let report = milr.storage_report(&m);
        assert!(report.milr_bytes() > 0);
        assert_eq!(report.backup_bytes, m.param_count() * 4);
        assert_eq!(report.ecc_bytes, m.param_count() * 7 / 8);
    }
}

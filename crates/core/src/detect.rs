//! MILR error-detection phase (paper §III, Figure 2).
//!
//! Each parameterized layer is replayed on its private seeded
//! pseudo-random input and the output is compared against the stored
//! partial checkpoint. The per-layer inputs are independent, so an
//! erroneous layer cannot cascade mismatches into other layers' checks.
//! Bias layers use the stored parameter-sum scheme (§IV-E-c).
//!
//! Detection is deliberately lightweight and therefore imperfect: "they
//! are only detected when they have a meaningful impact on the output of
//! the layer" (§V-B). The tolerance lives in
//! [`MilrConfig`](crate::MilrConfig).

use crate::artifacts::{conv_probe, detection_input, Artifacts};
use crate::semantics::milr_forward;
use crate::{MilrConfig, MilrError, Result};
use milr_nn::{Layer, Sequential};
use std::time::Duration;

/// Result of checking one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCheck {
    /// Layer index.
    pub layer: usize,
    /// Layer kind name.
    pub kind: String,
    /// True when the layer's check mismatched (errors present).
    pub flagged: bool,
    /// Worst relative deviation observed (0 for clean layers).
    pub max_deviation: f32,
}

/// Output of the detection phase.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Indices of layers flagged as erroneous, ascending.
    pub flagged: Vec<usize>,
    /// Every per-layer check performed.
    pub checks: Vec<LayerCheck>,
    /// Wall-clock duration of the detection pass (the paper's
    /// "identification time", Table X).
    pub elapsed: Duration,
}

impl DetectionReport {
    /// True when no layer was flagged.
    pub fn is_clean(&self) -> bool {
        self.flagged.is_empty()
    }
}

/// Checks one parameterized layer against its stored artifact.
///
/// Pure in the model: reads only layer `i`'s parameters, its private
/// seeded detection input, and the stored artifacts, so any chunking of
/// the checks flags what one full pass would.
fn check_layer(
    model: &Sequential,
    artifacts: &Artifacts,
    config: &MilrConfig,
    i: usize,
) -> Result<LayerCheck> {
    let layer = &model.layers()[i];
    match layer {
        Layer::Conv2D { filters, spec } => {
            let stored = artifacts.partial_checkpoints.get(&i).ok_or_else(|| {
                MilrError::CorruptArtifacts(format!("missing partial checkpoint {i}"))
            })?;
            let probe = conv_probe(model, config, i, filters, spec)?;
            if probe.len() != stored.len() {
                return Err(MilrError::ModelMismatch(format!(
                    "layer {i}: {} filters but {} stored probes",
                    probe.len(),
                    stored.len()
                )));
            }
            let mut dev = 0.0f32;
            for (&now, &golden) in probe.iter().zip(stored.iter()) {
                dev = dev.max(relative_deviation(now, golden));
            }
            Ok(make_check(i, layer, dev, config))
        }
        Layer::Dense { .. } => {
            let stored = artifacts.partial_checkpoints.get(&i).ok_or_else(|| {
                MilrError::CorruptArtifacts(format!("missing partial checkpoint {i}"))
            })?;
            let det = detection_input(model, config, i);
            let out = milr_forward(layer, &det)?;
            let row = out.row(0)?;
            if row.len() != stored.len() {
                return Err(MilrError::ModelMismatch(format!(
                    "layer {i}: {} columns but {} stored probes",
                    row.len(),
                    stored.len()
                )));
            }
            let mut dev = 0.0f32;
            for (now, &golden) in row.iter().zip(stored.iter()) {
                dev = dev.max(relative_deviation(*now, golden));
            }
            Ok(make_check(i, layer, dev, config))
        }
        Layer::Bias { bias } => {
            let stored = artifacts
                .bias_sums
                .get(&i)
                .ok_or_else(|| MilrError::CorruptArtifacts(format!("missing bias sum {i}")))?;
            let now = bias.sum();
            let dev = relative_deviation(now as f32, *stored as f32);
            Ok(make_check(i, layer, dev, config))
        }
        other => Err(MilrError::ModelMismatch(format!(
            "layer {i} ({}) has no detection check",
            other.kind_name()
        ))),
    }
}

/// Runs the detection phase against the (possibly corrupted) model.
///
/// Checks run serially in ascending layer order: a probe-only conv
/// check costs a few microseconds, less than handing it to another
/// thread. Only recovery spawns threads, one per flagged checkpoint
/// segment.
pub(crate) fn run_detection(
    model: &Sequential,
    artifacts: &Artifacts,
    config: &MilrConfig,
) -> Result<DetectionReport> {
    let checked: Vec<usize> = model
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            matches!(
                l,
                Layer::Conv2D { .. } | Layer::Dense { .. } | Layer::Bias { .. }
            )
        })
        .map(|(i, _)| i)
        .collect();
    run_detection_subset(model, artifacts, config, &checked)
}

/// Detection over an explicit layer subset — the incremental/online
/// entry point behind [`Milr::detect_layers`](crate::Milr::detect_layers).
/// Per-layer checks are independent, so any chunking of the checkable
/// layers flags the union of what one full pass would.
pub(crate) fn run_detection_subset(
    model: &Sequential,
    artifacts: &Artifacts,
    config: &MilrConfig,
    layers: &[usize],
) -> Result<DetectionReport> {
    let start = std::time::Instant::now();
    let mut checked: Vec<usize> = layers.to_vec();
    checked.sort_unstable();
    checked.dedup();
    if let Some(&out_of_range) = checked.iter().find(|&&i| i >= model.len()) {
        return Err(MilrError::ModelMismatch(format!(
            "detection subset index {out_of_range} out of range for {} layers",
            model.len()
        )));
    }
    let mut checks = Vec::with_capacity(checked.len());
    let mut flagged = Vec::new();
    for &i in &checked {
        let check = check_layer(model, artifacts, config, i)?;
        if check.flagged {
            flagged.push(check.layer);
        }
        checks.push(check);
    }
    Ok(DetectionReport {
        flagged,
        checks,
        elapsed: start.elapsed(),
    })
}

fn relative_deviation(now: f32, golden: f32) -> f32 {
    let diff = (now - golden).abs();
    if !diff.is_finite() {
        return f32::INFINITY;
    }
    diff / golden.abs().max(1e-12)
}

fn make_check(i: usize, layer: &Layer, dev: f32, config: &MilrConfig) -> LayerCheck {
    // Flagged when the relative deviation exceeds the tolerance (the
    // absolute floor is folded into relative_deviation's denominator).
    let flagged = !dev.is_finite() || dev > config.rtol.max(config.atol);
    LayerCheck {
        layer: i,
        kind: layer.kind_name().to_string(),
        flagged,
        max_deviation: dev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::Artifacts;
    use crate::plan::ProtectionPlan;
    use milr_tensor::{ConvSpec, Padding, TensorRng};

    fn setup() -> (Sequential, Artifacts, MilrConfig) {
        let mut rng = TensorRng::new(3);
        let mut m = Sequential::new(vec![8, 8, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(6 * 6 * 4, 5, &mut rng).unwrap())
            .unwrap();
        let cfg = MilrConfig::default();
        let plan = ProtectionPlan::build(&m, &cfg).unwrap();
        let art = Artifacts::build(&m, &plan, &cfg).unwrap();
        (m, art, cfg)
    }

    #[test]
    fn clean_model_is_clean() {
        let (m, art, cfg) = setup();
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert!(report.is_clean(), "{:?}", report.flagged);
        // One check per parameterized layer (conv, bias, dense).
        assert_eq!(report.checks.len(), 3);
        assert!(report.checks.iter().all(|c| c.max_deviation == 0.0));
    }

    #[test]
    fn corrupted_conv_is_flagged() {
        let (mut m, art, cfg) = setup();
        m.layers_mut()[0].params_mut().unwrap().data_mut()[7] += 3.0;
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert_eq!(report.flagged, vec![0]);
    }

    #[test]
    fn corrupted_dense_is_flagged() {
        let (mut m, art, cfg) = setup();
        let w = m.layers_mut()[3].params_mut().unwrap().data_mut();
        w[0] = -w[0] - 5.0;
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert_eq!(report.flagged, vec![3]);
    }

    #[test]
    fn corrupted_bias_is_flagged_by_sum() {
        let (mut m, art, cfg) = setup();
        m.layers_mut()[1].params_mut().unwrap().data_mut()[2] = 0.5;
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert_eq!(report.flagged, vec![1]);
    }

    #[test]
    fn multiple_layers_flagged_independently() {
        let (mut m, art, cfg) = setup();
        m.layers_mut()[0].params_mut().unwrap().data_mut()[0] = 9.0;
        m.layers_mut()[3].params_mut().unwrap().data_mut()[10] = -9.0;
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert_eq!(report.flagged, vec![0, 3]);
    }

    #[test]
    fn nan_corruption_is_flagged() {
        let (mut m, art, cfg) = setup();
        m.layers_mut()[3].params_mut().unwrap().data_mut()[4] = f32::NAN;
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert!(report.flagged.contains(&3));
    }

    #[test]
    fn tiny_lsb_error_may_escape_detection() {
        // The paper's lightweight-detection caveat: flipping the lowest
        // mantissa bit of one weight moves the probe by ~1e-7 relative,
        // below the tolerance.
        let (mut m, art, cfg) = setup();
        let w = m.layers_mut()[3].params_mut().unwrap().data_mut();
        w[0] = f32::from_bits(w[0].to_bits() ^ 1);
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn subset_detection_matches_full_pass_chunkwise() {
        let (mut m, art, cfg) = setup();
        m.layers_mut()[0].params_mut().unwrap().data_mut()[7] += 3.0;
        m.layers_mut()[3].params_mut().unwrap().data_mut()[0] = 42.0;
        let full = run_detection(&m, &art, &cfg).unwrap();
        // Sweep the checkable layers in chunks of one; the union of
        // flags must equal the full pass, with bit-identical checks.
        let mut flagged = Vec::new();
        let mut checks = Vec::new();
        for &i in &[0usize, 1, 3] {
            let part = run_detection_subset(&m, &art, &cfg, &[i]).unwrap();
            flagged.extend(part.flagged);
            checks.extend(part.checks);
        }
        assert_eq!(flagged, full.flagged);
        for (a, b) in checks.iter().zip(full.checks.iter()) {
            assert_eq!(a.layer, b.layer);
            assert_eq!(a.flagged, b.flagged);
            assert_eq!(a.max_deviation.to_bits(), b.max_deviation.to_bits());
        }
    }

    #[test]
    fn subset_detection_dedups_and_validates_indices() {
        let (m, art, cfg) = setup();
        let rep = run_detection_subset(&m, &art, &cfg, &[3, 0, 3, 0]).unwrap();
        assert_eq!(rep.checks.len(), 2);
        assert!(run_detection_subset(&m, &art, &cfg, &[99]).is_err());
        // Parameterless layers carry no check.
        assert!(run_detection_subset(&m, &art, &cfg, &[2]).is_err());
    }

    #[test]
    fn detection_reports_duration() {
        let (m, art, cfg) = setup();
        let report = run_detection(&m, &art, &cfg).unwrap();
        assert!(report.elapsed.as_nanos() > 0);
    }
}

//! Injection-and-recovery arms as a **substrate × recovery** matrix.
//!
//! The paper compares four protection configurations over DRAM (no
//! recovery, ECC, MILR, ECC + MILR) and motivates three more for
//! encrypted VMs (XTS, XTS + MILR, XTS + ECC + MILR). Each arm is the
//! product of a memory substrate ([`SubstrateKind`]) and a recovery
//! scheme ([`Recovery`]); every combination runs through the single
//! generic [`run_trial`] path — injection flips bits in the substrate's
//! raw representation, the substrate scrubs like its memory controller
//! would, and MILR (when armed) heals what survives in plaintext space.

use crate::nets::PreparedNet;
use crate::stats::normalized_accuracy;
use milr_core::SolvingPlan;
use milr_fault::{corrupt_layer, inject_rber, inject_whole_weight, FaultRng};
use milr_nn::Sequential;
pub use milr_substrate::SubstrateKind;

/// Recovery scheme applied after injection and scrubbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Recovery {
    /// No plaintext-space recovery (substrate scrub only).
    None,
    /// MILR detection + recovery on the plaintext weights.
    Milr,
}

/// One protection arm: a memory substrate combined with a recovery
/// scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arm {
    /// Where the weights live and what the raw fault surface is.
    pub substrate: SubstrateKind,
    /// What heals plaintext-space damage afterwards.
    pub recovery: Recovery,
}

impl Arm {
    /// Raw DRAM, no recovery (panel (a) of Figures 5/7/9).
    pub const NONE: Arm = Arm {
        substrate: SubstrateKind::Plain,
        recovery: Recovery::None,
    };
    /// Per-word SECDED in DRAM: inject into code words, scrub (panel (b)).
    pub const ECC: Arm = Arm {
        substrate: SubstrateKind::Secded,
        recovery: Recovery::None,
    };
    /// MILR detection + recovery on plaintext weights (panel (c)).
    pub const MILR: Arm = Arm {
        substrate: SubstrateKind::Plain,
        recovery: Recovery::Milr,
    };
    /// ECC scrub first, MILR on the residual multi-bit errors (panel (d)).
    pub const ECC_MILR: Arm = Arm {
        substrate: SubstrateKind::Secded,
        recovery: Recovery::Milr,
    };
    /// Encrypted VM, no recovery: ciphertext faults garble whole blocks.
    pub const XTS: Arm = Arm {
        substrate: SubstrateKind::Xts,
        recovery: Recovery::None,
    };
    /// Encrypted VM healed by MILR — the paper's PSEC configuration.
    pub const XTS_MILR: Arm = Arm {
        substrate: SubstrateKind::Xts,
        recovery: Recovery::Milr,
    };
    /// ECC over ciphertext, no plaintext recovery: corrects single raw
    /// flips, passes garbled blocks through.
    pub const XTS_ECC: Arm = Arm {
        substrate: SubstrateKind::XtsSecded,
        recovery: Recovery::None,
    };
    /// ECC over ciphertext plus MILR: the full encrypted-VM stack.
    pub const XTS_ECC_MILR: Arm = Arm {
        substrate: SubstrateKind::XtsSecded,
        recovery: Recovery::Milr,
    };

    /// The paper's four DRAM panels, in figure order.
    pub const PAPER: [Arm; 4] = [Arm::NONE, Arm::ECC, Arm::MILR, Arm::ECC_MILR];

    /// The encrypted-VM arms.
    pub const ENCRYPTED: [Arm; 3] = [Arm::XTS, Arm::XTS_MILR, Arm::XTS_ECC_MILR];

    /// Every arm of the full matrix.
    pub const ALL: [Arm; 8] = [
        Arm::NONE,
        Arm::ECC,
        Arm::MILR,
        Arm::ECC_MILR,
        Arm::XTS,
        Arm::XTS_MILR,
        Arm::XTS_ECC,
        Arm::XTS_ECC_MILR,
    ];
}

impl std::fmt::Display for Arm {
    /// Panel label used in report headers; the paper arms keep the
    /// paper's wording.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let label = match (self.substrate, self.recovery) {
            (SubstrateKind::Plain, Recovery::None) => "No recovery",
            (SubstrateKind::Secded, Recovery::None) => "ECC",
            (SubstrateKind::Plain, Recovery::Milr) => "MILR",
            (SubstrateKind::Secded, Recovery::Milr) => "ECC + MILR",
            (SubstrateKind::Xts, Recovery::None) => "XTS",
            (SubstrateKind::Xts, Recovery::Milr) => "XTS + MILR",
            (SubstrateKind::XtsSecded, Recovery::None) => "XTS + ECC",
            (SubstrateKind::XtsSecded, Recovery::Milr) => "XTS + ECC + MILR",
            (kind, Recovery::None) => return write!(f, "{kind}"),
            (kind, Recovery::Milr) => return write!(f, "{kind} + MILR"),
        };
        f.write_str(label)
    }
}

/// The error process a trial injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Injection {
    /// Random raw-bit flips at the given RBER over the substrate's raw
    /// representation (experiment 1).
    Rber(f64),
    /// Whole-weight errors at the given per-weight probability, defined
    /// in plaintext space (experiment 2).
    WholeWeight(f64),
}

/// Outcome of one injection trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// Absolute post-trial accuracy on the held-out set.
    pub accuracy: f64,
    /// Accuracy normalized to the error-free network (the paper's
    /// y-axis).
    pub normalized: f64,
    /// Layers MILR flagged (0 for arms without MILR).
    pub flagged_layers: usize,
}

/// Runs one injection trial of any arm: the single generic path behind
/// every figure panel.
///
/// Per parameterized layer, the weights are encoded into the arm's
/// substrate, the injection flips bits in the substrate's raw
/// representation (plaintext words, ECC code words, or ciphertext), the
/// substrate scrubs like its memory controller would, and the decoded
/// plaintext is written back to the model. MILR arms then run
/// detection + recovery. For the four paper arms this draws exactly the
/// per-layer flip sequences of the original per-arm implementations
/// (same RNG consumption order), so figure numbers are reproduced
/// seed-for-seed.
pub fn run_trial(prep: &PreparedNet, arm: Arm, injection: Injection, seed: u64) -> TrialResult {
    let mut model = injected(prep, arm.substrate, injection, seed);
    let mut flagged_layers = 0usize;
    if arm.recovery == Recovery::Milr {
        if let Ok(report) = prep.milr.detect(&model) {
            flagged_layers = report.flagged.len();
            let _ = prep.milr.recover(&mut model, &report);
        }
    }
    let (accuracy, normalized) = normalized_accuracy(prep, &model);
    TrialResult {
        accuracy,
        normalized,
        flagged_layers,
    }
}

/// The model after one trial's injection and substrate scrub, before
/// any plaintext-space recovery.
fn injected(
    prep: &PreparedNet,
    substrate: SubstrateKind,
    injection: Injection,
    seed: u64,
) -> Sequential {
    let mut model = prep.model.clone();
    let mut rng = FaultRng::seed(seed);
    for layer in model.layers_mut() {
        if let Some(p) = layer.params_mut() {
            match injection {
                Injection::Rber(rber) => {
                    let mut mem = substrate.store(p.data());
                    inject_rber(&mut *mem, rber, &mut rng);
                    mem.scrub();
                    p.data_mut().copy_from_slice(&mem.read_weights());
                }
                Injection::WholeWeight(q) => {
                    // Whole-weight errors are plaintext-space by
                    // definition; the substrate's scrub cannot touch
                    // them, so inject directly.
                    inject_whole_weight(p.data_mut(), q, &mut rng);
                }
            }
        }
    }
    model
}

/// One random-bit-flip trial (experiment 1, Figures 5/7/9).
pub fn run_rber_trial(prep: &PreparedNet, arm: Arm, rber: f64, seed: u64) -> TrialResult {
    run_trial(prep, arm, Injection::Rber(rber), seed)
}

/// One whole-weight-error trial (experiment 2, Figures 6/8/10). The
/// paper evaluates only the `NONE` and `MILR` arms here: "ECC and ECC +
/// MILR were not tested with this scheme as ECC can only correct 1 bit
/// errors and all errors injected would be 32 bit errors" (§V-B).
pub fn run_whole_weight_trial(prep: &PreparedNet, arm: Arm, q: f64, seed: u64) -> TrialResult {
    run_trial(prep, arm, Injection::WholeWeight(q), seed)
}

/// One row of the whole-layer-corruption tables (IV/VI/VIII).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCorruptionRow {
    /// Layer index in the model.
    pub index: usize,
    /// Layer kind ("Conv2D", "Bias", "Dense").
    pub kind: String,
    /// Normalized accuracy with the corrupted layer left in place.
    pub none_normalized: f64,
    /// Normalized accuracy after MILR recovery.
    pub milr_normalized: f64,
    /// True for a convolution on the partial-recoverability path
    /// ([`SolvingPlan::ConvPartial`]), whose whole-layer corruption is
    /// beyond exact recovery (the paper's "N/A — convolution partial
    /// recoverable" marker, §V-B).
    pub partial_marker: bool,
}

/// Experiment 3: corrupts every parameterized layer in turn, measuring
/// accuracy without and with MILR recovery (Tables IV/VI/VIII).
pub fn run_layer_corruption(prep: &PreparedNet, seed: u64) -> Vec<LayerCorruptionRow> {
    let mut rows = Vec::new();
    for (i, layer) in prep.model.layers().iter().enumerate() {
        if layer.param_count() == 0 {
            continue;
        }
        let mut model = prep.model.clone();
        let mut rng = FaultRng::seed(seed ^ (i as u64) << 8);
        corrupt_layer(
            model.layers_mut()[i]
                .params_mut()
                .expect("param layer")
                .data_mut(),
            &mut rng,
        );
        let (_, none_normalized) = normalized_accuracy(prep, &model);
        prep.milr
            .recover_layers(&mut model, &[i])
            .expect("structure matches");
        let (_, milr_normalized) = normalized_accuracy(prep, &model);
        rows.push(LayerCorruptionRow {
            index: i,
            kind: layer.kind_name().to_string(),
            none_normalized,
            milr_normalized,
            partial_marker: prep.milr.plan().layers[i].solving == Some(SolvingPlan::ConvPartial),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nets::{prepare, NetChoice, Scale};
    use milr_nn::Sequential;

    fn prep() -> PreparedNet {
        prepare(NetChoice::Mnist, Scale::Reduced, 11)
    }

    #[test]
    fn zero_rate_trials_are_clean() {
        let p = prep();
        for arm in Arm::ALL {
            let r = run_rber_trial(&p, arm, 0.0, 1);
            assert!((r.normalized - 1.0).abs() < 1e-9, "{arm}: {r:?}");
        }
    }

    #[test]
    fn milr_beats_none_at_high_rate() {
        // 5e-4 on the reduced net is where the paper-shape gap is
        // widest: the unprotected network collapses while MILR still
        // recovers most trials (cf. Figure 5 panels a/c).
        let p = prep();
        let mut none_sum = 0.0;
        let mut milr_sum = 0.0;
        for t in 0..10 {
            none_sum += run_rber_trial(&p, Arm::NONE, 5e-4, t).normalized;
            milr_sum += run_rber_trial(&p, Arm::MILR, 5e-4, t).normalized;
        }
        assert!(
            milr_sum > none_sum,
            "MILR {milr_sum} not better than none {none_sum}"
        );
    }

    #[test]
    fn ecc_corrects_everything_at_low_rate() {
        let p = prep();
        let r = run_rber_trial(&p, Arm::ECC, 1e-5, 3);
        assert!((r.normalized - 1.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn whole_weight_milr_recovers() {
        let p = prep();
        let none = run_whole_weight_trial(&p, Arm::NONE, 5e-3, 4);
        let milr = run_whole_weight_trial(&p, Arm::MILR, 5e-3, 4);
        assert!(milr.normalized >= none.normalized, "{milr:?} vs {none:?}");
        assert!(milr.flagged_layers > 0);
    }

    /// The acceptance contract of the refactor: the generic trial path
    /// reproduces the seed's hand-written per-arm logic seed-for-seed,
    /// for all four original paper arms.
    #[test]
    fn generic_path_matches_legacy_per_arm_logic() {
        fn legacy_rber_trial(
            prep: &PreparedNet,
            arm: Arm,
            rber: f64,
            seed: u64,
        ) -> (Vec<Vec<u32>>, usize) {
            // Verbatim re-expression of the pre-refactor per-arm
            // branches from the seed implementation.
            fn inject_raw(model: &mut Sequential, rber: f64, rng: &mut FaultRng) {
                for layer in model.layers_mut() {
                    if let Some(p) = layer.params_mut() {
                        inject_rber(p.data_mut(), rber, rng);
                    }
                }
            }
            fn inject_through_ecc(model: &mut Sequential, rber: f64, rng: &mut FaultRng) {
                for layer in model.layers_mut() {
                    if let Some(p) = layer.params_mut() {
                        let mut mem = SubstrateKind::Secded.store(p.data());
                        inject_rber(&mut *mem, rber, rng);
                        mem.scrub();
                        p.data_mut().copy_from_slice(&mem.read_weights());
                    }
                }
            }
            let mut model = prep.model.clone();
            let mut rng = FaultRng::seed(seed);
            let mut flagged_layers = 0usize;
            match (arm.substrate, arm.recovery) {
                (SubstrateKind::Plain, Recovery::None) => inject_raw(&mut model, rber, &mut rng),
                (SubstrateKind::Secded, Recovery::None) => {
                    inject_through_ecc(&mut model, rber, &mut rng)
                }
                (SubstrateKind::Plain, Recovery::Milr) => {
                    inject_raw(&mut model, rber, &mut rng);
                    if let Ok(report) = prep.milr.detect(&model) {
                        flagged_layers = report.flagged.len();
                        let _ = prep.milr.recover(&mut model, &report);
                    }
                }
                (SubstrateKind::Secded, Recovery::Milr) => {
                    inject_through_ecc(&mut model, rber, &mut rng);
                    if let Ok(report) = prep.milr.detect(&model) {
                        flagged_layers = report.flagged.len();
                        let _ = prep.milr.recover(&mut model, &report);
                    }
                }
                _ => unreachable!("legacy logic covers the paper arms only"),
            }
            let bits = model
                .layers()
                .iter()
                .filter_map(|l| l.params())
                .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
                .collect();
            (bits, flagged_layers)
        }

        let p = prep();
        for arm in Arm::PAPER {
            for (t, &rate) in [1e-4f64, 5e-4].iter().enumerate() {
                let seed = 0xBE7C ^ (t as u64) << 20;
                let (legacy_bits, legacy_flagged) = legacy_rber_trial(&p, arm, rate, seed);
                // Replay the generic path and capture the final model
                // bits the same way.
                let mut model = p.model.clone();
                let mut rng = FaultRng::seed(seed);
                for layer in model.layers_mut() {
                    if let Some(params) = layer.params_mut() {
                        let mut mem = arm.substrate.store(params.data());
                        inject_rber(&mut *mem, rate, &mut rng);
                        mem.scrub();
                        params.data_mut().copy_from_slice(&mem.read_weights());
                    }
                }
                let mut generic_flagged = 0usize;
                if arm.recovery == Recovery::Milr {
                    if let Ok(report) = p.milr.detect(&model) {
                        generic_flagged = report.flagged.len();
                        let _ = p.milr.recover(&mut model, &report);
                    }
                }
                let generic_bits: Vec<Vec<u32>> = model
                    .layers()
                    .iter()
                    .filter_map(|l| l.params())
                    .map(|params| params.data().iter().map(|x| x.to_bits()).collect())
                    .collect();
                assert_eq!(generic_flagged, legacy_flagged, "{arm} at {rate}");
                assert_eq!(generic_bits, legacy_bits, "{arm} at {rate}");
            }
        }
    }

    #[test]
    fn encrypted_arms_run_through_generic_path() {
        let p = prep();
        for arm in Arm::ENCRYPTED {
            let clean = run_rber_trial(&p, arm, 0.0, 2);
            assert!((clean.normalized - 1.0).abs() < 1e-9, "{arm}: {clean:?}");
        }
        // At 2e-4 both XTS arms sit near chance: every trial corrupts
        // both dense layers of one checkpoint segment, which MILR cannot
        // heal (§V-A), so accuracy cannot rank the arms. What MILR must
        // do is heal some flagged layers and break none: the layers
        // flagged after recovery are a strict subset of those before.
        for seed in 100..105 {
            let mut model = injected(&p, Arm::XTS_MILR.substrate, Injection::Rber(2e-4), seed);
            let before = p.milr.detect(&model).unwrap();
            p.milr.recover(&mut model, &before).unwrap();
            let after = p.milr.detect(&model).unwrap().flagged;
            assert!(
                after.len() < before.flagged.len()
                    && after.iter().all(|l| before.flagged.contains(l)),
                "seed {seed}: flagged {:?} before recovery, {after:?} after",
                before.flagged
            );
        }
    }

    #[test]
    fn display_labels_match_paper_wording() {
        assert_eq!(Arm::NONE.to_string(), "No recovery");
        assert_eq!(Arm::ECC.to_string(), "ECC");
        assert_eq!(Arm::MILR.to_string(), "MILR");
        assert_eq!(Arm::ECC_MILR.to_string(), "ECC + MILR");
        assert_eq!(Arm::XTS_ECC_MILR.to_string(), "XTS + ECC + MILR");
    }

    #[test]
    fn layer_corruption_rows_cover_param_layers() {
        let p = prep();
        let rows = run_layer_corruption(&p, 5);
        let param_layers = p
            .model
            .layers()
            .iter()
            .filter(|l| l.param_count() > 0)
            .count();
        assert_eq!(rows.len(), param_layers);
        // Fully-recoverable layers restore ~100% normalized accuracy.
        for row in &rows {
            if !row.partial_marker {
                assert!(
                    row.milr_normalized > 0.95,
                    "layer {} ({}) only {}",
                    row.index,
                    row.kind,
                    row.milr_normalized
                );
            }
            assert!(row.milr_normalized + 1e-9 >= row.none_normalized * 0.5);
        }
    }
}

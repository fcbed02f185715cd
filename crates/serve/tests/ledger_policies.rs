//! `CertificationLedger` quarantine semantics, observed through the
//! seeded simulation, plus the re-protect rebaseline property the
//! recovery path depends on.
//!
//! * **Re-execution**: a flagged scrub voids everything uncertified and
//!   re-queues it — clients eventually get certified outputs for every
//!   request (`rejected == 0`, `reexecuted > 0`), and whatever is
//!   released went through a bracketing clean scrub cycle, so it is
//!   bit-identical to the fault-free model.
//! * **Re-protect rebaselines the CRC grid**: after an approximate
//!   (min-norm) heal, the *old* artifacts' CRC grids disagree with the
//!   healed weights forever — running recovery against them would
//!   re-flag and mutate the layer every time. Re-protecting anchors a
//!   new grid to the healed bits, making recovery a bit-exact no-op.

use milr_core::{Milr, MilrConfig, RecoveryOutcome};
use milr_models::serving_probe as model;
use milr_serve::sim::{simulate, SimConfig};
use milr_serve::RequestStatus;
use milr_tensor::TensorRng;

#[test]
fn drain_reexecutes_voided_work_and_releases_only_certified_outputs() {
    let golden = model(0x1ED6E);
    let cfg = SimConfig {
        seed: 41,
        requests: 200,
        faults: 2,
        ..SimConfig::default()
    };
    let result = simulate(&golden, MilrConfig::default(), &cfg).unwrap();
    let r = &result.report;
    assert!(r.quarantines >= 1, "campaign must quarantine");
    assert_eq!(r.rejected, 0, "drain never rejects");
    assert_eq!(r.completed, cfg.requests, "drain completes everything");
    assert!(r.reexecuted > 0, "voided suspect work must re-execute");
    // Certified-then-released: every output equals the fault-free
    // model's bits even though faults were live during serving.
    for o in &result.outcomes {
        let RequestStatus::Completed(out) = &o.status else {
            panic!("request {} not completed under drain", o.id)
        };
        let expect = &golden
            .forward_batch(std::slice::from_ref(&o.input))
            .unwrap()[0];
        let ob: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
        let eb: Vec<u32> = expect.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(ob, eb, "request {} released uncertified bits", o.id);
    }
}

#[test]
fn reprotect_rebaselines_the_crc_grid_after_an_approximate_heal() {
    // Whole-layer corruption of the partial-recoverability conv (layer
    // 4: F²Z = 54 unknowns vs G² = 4 equations) heals approximately.
    let golden = model(0xCAC);
    let old_milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let mut healed = golden.clone();
    {
        let params = healed.layers_mut()[4].params_mut().unwrap().data_mut();
        let mut rng = TensorRng::new(99);
        for v in params.iter_mut() {
            *v = rng.uniform();
        }
    }
    let check = old_milr.detect(&healed).unwrap();
    assert_eq!(check.flagged, vec![4]);
    let rec = old_milr.recover_layers(&mut healed, &[4]).unwrap();
    assert!(
        matches!(rec.outcomes[0].1, RecoveryOutcome::Approx { .. }),
        "whole-layer corruption of a partial layer must be approximate: {:?}",
        rec.outcomes
    );
    assert!(!rec.all_exact());
    assert_eq!(rec.irrecoverable(), vec![4]);
    // The approximate heal reproduces the golden flow, but the weights
    // are NOT the golden bits.
    let golden_bits: Vec<u32> = golden.layers()[4]
        .params()
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let healed_bits: Vec<u32> = healed.layers()[4]
        .params()
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_ne!(golden_bits, healed_bits);

    // WITHOUT re-protection: the old CRC grids disagree with the healed
    // weights, so recovery keeps flagging suspects and re-solving —
    // the grid is poisoned for every future localization.
    let mut again = healed.clone();
    let rec_old = old_milr.recover_layers(&mut again, &[4]).unwrap();
    assert!(
        matches!(rec_old.outcomes[0].1, RecoveryOutcome::Approx { .. }),
        "stale grids must keep flagging the approximate heal: {:?}",
        rec_old.outcomes
    );

    // WITH re-protection: the healed state is the new baseline — its
    // grids match bit-for-bit, detection is clean, and recovery is a
    // bit-exact no-op ("every CRC matches: leave them be").
    let new_milr = Milr::protect(&healed, MilrConfig::default()).unwrap();
    assert!(new_milr.detect(&healed).unwrap().is_clean());
    let mut noop = healed.clone();
    let rec_new = new_milr.recover_layers(&mut noop, &[4]).unwrap();
    assert!(
        matches!(rec_new.outcomes[0].1, RecoveryOutcome::Full),
        "{:?}",
        rec_new.outcomes
    );
    let noop_bits: Vec<u32> = noop.layers()[4]
        .params()
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        noop_bits, healed_bits,
        "rebaselined recovery must not move bits"
    );
}

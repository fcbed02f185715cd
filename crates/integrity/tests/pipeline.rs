//! Pipeline contract tests: the strict no-op on clean hosts (across
//! every substrate kind, volatile and store-backed), the heal ladder's
//! fast-path verification, escalation classification, the budget
//! policies, and healing from a tick's carried decode.

use milr_core::DetectionReport;
use milr_core::{Milr, MilrConfig};
use milr_integrity::{
    Budget, EscalationPolicy, IntegrityError, IntegrityPipeline, Journaled, ModelHost,
    RoundOutcome, Volatile,
};
use milr_nn::Sequential;
use milr_store::{Store, StoreOptions};
use milr_substrate::SubstrateKind;
use std::path::PathBuf;

fn model() -> milr_nn::Sequential {
    // Conv 0 is fully recoverable (exact heals); conv 4 has
    // partial-recoverability geometry (whole-layer corruption exceeds
    // MILR's recoverable set) — the escalation target.
    milr_models::serving_probe(77)
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("milr-integrity-{}-{name}.milr", std::process::id()))
}

#[test]
fn clean_host_is_a_strict_noop_on_every_substrate() {
    let golden = model();
    for kind in SubstrateKind::ALL {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let artifacts_before = milr.to_bytes();
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Fail, Budget::default());
        let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
        assert_eq!(
            outcome,
            RoundOutcome::Clean { reanchored: false },
            "{kind}: a clean host must not re-anchor"
        );
        let report = pipeline.report();
        assert!(report.is_noop(), "{kind}: {report:?}");
        assert_eq!(report.full_detects, 1, "{kind}");
        assert_eq!(report.heal_rounds, 0, "{kind}");
        // Idempotent: a second run is another strict no-op, and the
        // protection instance was never replaced.
        let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
        assert_eq!(outcome, RoundOutcome::Clean { reanchored: false });
        assert!(pipeline.report().is_noop(), "{kind}");
        assert_eq!(milr.to_bytes(), artifacts_before, "{kind}: milr replaced");
    }
}

#[test]
fn clean_store_backed_host_leaves_the_container_untouched() {
    let golden = model();
    for kind in SubstrateKind::ALL {
        let path = temp(&format!("noop-{kind:?}"));
        Store::create(
            &path,
            &golden,
            MilrConfig::default(),
            StoreOptions {
                kind,
                page_weights: 32,
            },
        )
        .unwrap();
        let bytes_before = std::fs::read(&path).unwrap();
        let mut store = Store::open(&path).unwrap();
        let host = ModelHost::from_parts(store.template().clone(), store.open_substrates(8));
        let mut milr = store.milr().clone();
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Fail, Budget::default());
        let (scrub, outcome) = {
            let mut durability = Journaled::strict(&mut store);
            let scrub = pipeline.scrub_full(&host, &mut durability).unwrap();
            let outcome = pipeline.run(&host, &mut milr, &mut durability).unwrap();
            (scrub, outcome)
        };
        assert!(scrub.is_clean(), "{kind}");
        assert_eq!(outcome, RoundOutcome::Clean { reanchored: false }, "{kind}");
        assert!(
            pipeline.report().is_noop(),
            "{kind}: {:?}",
            pipeline.report()
        );
        drop(host);
        drop(store);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes_before,
            "{kind}: a no-op must not rewrite the container"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn heal_reprotects_and_verifies_only_the_flagged_layer() {
    let golden = model();
    let host = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
    let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let checkable = milr.checkable_count();
    host.corrupt_weight(0, 13);
    let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
    let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
    assert_eq!(outcome, RoundOutcome::Clean { reanchored: false });
    assert_eq!(pipeline.last_flagged(), &[0]);
    let report = pipeline.report();
    assert_eq!(report.heal_rounds, 1);
    assert_eq!(report.layers_healed, 1);
    assert_eq!(report.reprotects, 1, "healed episodes re-protect");
    assert_eq!(report.anchors, 0, "volatile: nothing durable to anchor");
    // Fast path: the verify re-checked 1 layer and skipped the rest.
    assert_eq!(report.fast_verifies, 1);
    assert_eq!(report.layers_skipped, checkable - 1);
    // The heal restored golden bits and the new baseline detects clean.
    let live = host.materialize();
    assert!(milr.detect(&live).unwrap().is_clean());
    let golden_bits: Vec<u32> = golden.layers()[0]
        .params()
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let live_bits: Vec<u32> = live.layers()[0]
        .params()
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(golden_bits, live_bits);
}

#[test]
fn peer_repair_policy_escalates_beyond_capacity_damage() {
    let golden = model();
    let host = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
    let healthy = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
    let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    // Whole-layer corruption of the partial-recoverability conv: MILR's
    // recovery comes back min-norm, which PeerRepair refuses to serve.
    host.corrupt_layer(4);
    let mut pipeline = IntegrityPipeline::new(EscalationPolicy::PeerRepair, Budget::default());
    let outcome = pipeline
        .heal_round(&host, &mut milr, &mut Volatile)
        .unwrap();
    let RoundOutcome::Escalate { escalated, .. } = outcome else {
        panic!("whole-layer damage must escalate, got {outcome:?}");
    };
    assert_eq!(escalated, vec![4]);
    assert_eq!(pipeline.report().layers_escalated, 1);
    // The escalated layer's shard was left untouched (still corrupt).
    assert!(!milr.detect(&host.materialize()).unwrap().is_clean());
    // Mini peer repair: import the healthy twin's raw image, then run
    // the engine's re-admission tail.
    host.import_layer_raw(4, &healthy.store().export_shard_raw(2))
        .unwrap();
    assert!(milr.detect(&host.materialize()).unwrap().is_clean());
    pipeline
        .reprotect_and_anchor(&host, &mut milr, &mut Volatile)
        .unwrap();
    assert_eq!(pipeline.report().reprotects, 1);
    // Bit-exact after import: the healed model equals the golden one.
    let live = host.materialize();
    for (a, b) in golden.layers().iter().zip(live.layers().iter()) {
        if let (Some(p), Some(q)) = (a.params(), b.params()) {
            let pa: Vec<u32> = p.data().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = q.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(pa, pb);
        }
    }
}

#[test]
fn gave_up_episode_grants_the_next_one_a_fresh_budget() {
    // Regression: the threaded server drives one long-lived pipeline;
    // a budget-exhausted episode must not leave the engine permanently
    // exhausted or later quarantines would give up instantly without
    // ever detecting or healing.
    let golden = model();
    let host = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
    let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    // Wreck every parameterized layer: recovery cannot converge.
    for &layer in host.param_layers() {
        host.corrupt_layer(layer);
    }
    let mut pipeline = IntegrityPipeline::new(
        EscalationPolicy::Quarantine,
        Budget {
            max_heal_rounds: 2,
            ..Budget::default()
        },
    );
    let mut gave_up = false;
    for _ in 0..4 {
        match pipeline
            .heal_round(&host, &mut milr, &mut Volatile)
            .unwrap()
        {
            RoundOutcome::Retry { .. } => {}
            RoundOutcome::GaveUp { flagged } => {
                assert!(!flagged.is_empty());
                gave_up = true;
                break;
            }
            other => panic!("unconvergent damage cannot end {other:?}"),
        }
    }
    assert!(gave_up, "two-round budget must exhaust on total corruption");
    assert!(
        !pipeline.budget_exhausted(),
        "giving up must re-arm the budget for the next episode"
    );
    // The next episode works normally: restore the host (as a peer
    // repair or later scrub would) and the pipeline heals fresh damage
    // within its budget instead of giving up on sight.
    let healthy = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
    for (shard, &layer) in healthy.param_layers().iter().enumerate() {
        host.import_layer_raw(layer, &healthy.store().export_shard_raw(shard))
            .unwrap();
    }
    host.corrupt_weight(0, 3);
    let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
    assert_eq!(outcome, RoundOutcome::Clean { reanchored: false });
    assert!(milr.detect(&host.materialize()).unwrap().is_clean());
}

#[test]
fn reprotect_gate_runs_a_full_detect_before_rebaselining() {
    // A gated pipeline (threaded hosts) must certify the exact
    // snapshot it re-protects with a full detection pass — observable
    // as a second full detect on a healed single-round episode.
    let golden = model();
    let host = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
    let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    host.corrupt_weight(0, 13);
    let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
        .with_reprotect_gate();
    let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
    assert_eq!(outcome, RoundOutcome::Clean { reanchored: false });
    let report = pipeline.report();
    assert_eq!(
        report.full_detects, 2,
        "opening detect + the closing Reprotect gate"
    );
    // The gate is the Verify stage: no suspect-only verify before it.
    assert_eq!(report.fast_verifies, 0);
    assert_eq!(report.reprotects, 1);
    assert!(milr.detect(&host.materialize()).unwrap().is_clean());
    // An ungated clean no-op stays a single detect either way.
    let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
    assert_eq!(outcome, RoundOutcome::Clean { reanchored: false });
    assert_eq!(pipeline.report().full_detects, 3);
}

#[test]
fn exhausted_budget_fails_or_gives_up_by_policy() {
    let golden = model();
    for (policy, expect_gave_up) in [
        (EscalationPolicy::Fail, false),
        (EscalationPolicy::Quarantine, true),
    ] {
        let host = ModelHost::new(&golden, &|c| SubstrateKind::Plain.store(c));
        let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        host.corrupt_weight(0, 7);
        // A zero-round budget makes any flagged detection exhaust
        // immediately.
        let mut pipeline = IntegrityPipeline::new(
            policy,
            Budget {
                max_heal_rounds: 0,
                ..Budget::default()
            },
        );
        let result = pipeline.heal_round(&host, &mut milr, &mut Volatile);
        if expect_gave_up {
            let outcome = result.unwrap();
            assert_eq!(outcome, RoundOutcome::GaveUp { flagged: vec![0] });
            // Nothing was healed: giving up leaves the damage for the
            // next scrub cycle.
            assert_eq!(pipeline.report().layers_healed, 0);
        } else {
            match result {
                Err(IntegrityError::BudgetExhausted { rounds, flagged }) => {
                    assert_eq!(rounds, 0);
                    assert_eq!(flagged, vec![0]);
                }
                other => panic!("Fail policy must error on exhaustion, got {other:?}"),
            }
        }
    }
}

fn param_bits(model: &Sequential) -> Vec<Vec<u32>> {
    model
        .layers()
        .iter()
        .filter_map(|l| l.params())
        .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

fn layer_bits(model: &Sequential, layer: usize) -> Vec<u32> {
    let params = model.layers()[layer].params().unwrap();
    params.data().iter().map(|v| v.to_bits()).collect()
}

/// Per-layer checks, with deviations compared bit for bit (a wrecked
/// weight can make one NaN). A report's flags are its flagged checks.
fn check_bits(report: &DetectionReport) -> Vec<(usize, String, bool, u32)> {
    report
        .checks
        .iter()
        .map(|c| {
            (
                c.layer,
                c.kind.clone(),
                c.flagged,
                c.max_deviation.to_bits(),
            )
        })
        .collect()
}

fn pipeline(gated: bool) -> IntegrityPipeline {
    let p = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
    if gated {
        p.with_reprotect_gate()
    } else {
        p
    }
}

const TICK_KINDS: [SubstrateKind; 2] = [SubstrateKind::Plain, SubstrateKind::XtsSecded];

#[test]
fn detect_layers_over_every_checkable_layer_is_detect() {
    let golden = model();
    for kind in TICK_KINDS {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let all = milr.checkable_layers();
        let clean = host.materialize();
        assert_eq!(
            check_bits(&milr.detect_layers(&clean, &all).unwrap()),
            check_bits(&milr.detect(&clean).unwrap()),
            "{kind}: clean"
        );
        host.corrupt_weight(0, 5);
        host.corrupt_weight(7, 2);
        let faulted = host.materialize();
        let full = milr.detect(&faulted).unwrap();
        assert_eq!(full.flagged, vec![0, 7], "{kind}");
        assert_eq!(
            check_bits(&milr.detect_layers(&faulted, &all).unwrap()),
            check_bits(&full),
            "{kind}: faulted"
        );
    }
}

#[test]
fn heal_tick_matches_run_for_a_fault_on_each_checkable_layer() {
    let golden = model();
    for kind in TICK_KINDS {
        for gated in [false, true] {
            let probe = Milr::protect(&golden, MilrConfig::default()).unwrap();
            for layer in probe.checkable_layers() {
                let ticked = ModelHost::new(&golden, &|c| kind.store(c));
                let twin = ModelHost::new(&golden, &|c| kind.store(c));
                ticked.corrupt_weight(layer, 1);
                twin.corrupt_weight(layer, 1);
                let mut milr_tick = Milr::protect(&golden, MilrConfig::default()).unwrap();
                let mut milr_run = milr_tick.clone();
                let all = milr_tick.checkable_layers();

                let mut by_tick = pipeline(gated);
                let tick = by_tick
                    .tick(&ticked, &milr_tick, &all, &mut Volatile)
                    .unwrap();
                assert_eq!(tick.detection.flagged, vec![layer], "{kind} layer {layer}");
                assert!(
                    tick.snapshot.is_some(),
                    "a whole-model tick keeps its decode"
                );
                let healed = by_tick
                    .heal_tick(&ticked, &mut milr_tick, tick, &mut Volatile)
                    .unwrap();

                let mut by_run = pipeline(gated);
                by_run.tick(&twin, &milr_run, &all, &mut Volatile).unwrap();
                let ran = by_run.run(&twin, &mut milr_run, &mut Volatile).unwrap();

                let what = format!("{kind} gated={gated} layer {layer}");
                assert_eq!(healed, ran, "{what}");
                assert_eq!(by_tick.last_flagged(), by_run.last_flagged(), "{what}");
                let (a, b) = (by_tick.report(), by_run.report());
                assert_eq!(a.heals_exact, b.heals_exact, "{what}");
                assert_eq!(a.heals_approx, b.heals_approx, "{what}");
                assert_eq!(a.heal_rounds, b.heal_rounds, "{what}");
                // The carried tick replaced exactly the opening detect.
                assert_eq!(a.full_detects + 1, b.full_detects, "{what}");
                assert_eq!(
                    param_bits(&ticked.materialize()),
                    param_bits(&twin.materialize()),
                    "{what}"
                );
                assert_eq!(milr_tick.to_bytes(), milr_run.to_bytes(), "{what}");
            }
        }
    }
}

#[test]
fn the_gate_catches_a_fault_landing_between_the_tick_and_its_heal() {
    let golden = model();
    for kind in TICK_KINDS {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let all = milr.checkable_layers();
        let mut pipeline = pipeline(true);
        host.corrupt_weight(0, 13);
        let tick = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
        assert_eq!(tick.detection.flagged, vec![0], "{kind}");
        // Lands after the tick decoded: the carried snapshot never saw it.
        host.corrupt_weight(4, 3);
        let outcome = pipeline
            .heal_tick(&host, &mut milr, tick, &mut Volatile)
            .unwrap();
        assert_eq!(outcome, RoundOutcome::Clean { reanchored: false }, "{kind}");
        assert_eq!(pipeline.last_flagged(), &[0], "{kind}");
        let report = pipeline.report();
        assert_eq!(report.heal_rounds, 2, "{kind}: one heal per layer");
        assert_eq!(
            report.full_detects, 2,
            "{kind}: two gates, no opening detect"
        );
        assert_eq!(report.fast_verifies, 0, "{kind}");
        assert_eq!(report.reprotects, 1, "{kind}");
        let live = host.materialize();
        for layer in [0, 4] {
            assert_eq!(
                layer_bits(&live, layer),
                layer_bits(&golden, layer),
                "{kind} {layer}"
            );
        }
        assert!(milr.detect(&live).unwrap().is_clean(), "{kind}");
    }
}

#[test]
fn only_a_flagged_whole_model_tick_carries_its_decode() {
    let golden = model();
    for kind in TICK_KINDS {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
        let all = milr.checkable_layers();
        let mut pipeline = pipeline(true);
        let clean = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
        assert!(clean.detection.is_clean(), "{kind}");
        assert!(
            clean.snapshot.is_none(),
            "{kind}: a clean tick carries nothing"
        );
        host.corrupt_weight(0, 13);
        let partial = pipeline.tick(&host, &milr, &[0, 1], &mut Volatile).unwrap();
        assert_eq!(partial.detection.flagged, vec![0], "{kind}");
        assert!(
            partial.snapshot.is_none(),
            "{kind}: a partial chunk carries nothing"
        );
        let whole = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
        let snapshot = whole.snapshot.expect("flagged whole-model tick");
        assert_eq!(
            param_bits(&snapshot),
            param_bits(&host.materialize()),
            "{kind}: the carried decode is the stored model"
        );
    }
}

#[test]
fn ticks_after_a_carried_decode_still_scrub_and_detect() {
    let golden = model();
    let kind = SubstrateKind::XtsSecded;
    let host = ModelHost::new(&golden, &|c| kind.store(c));
    let mut milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let all = milr.checkable_layers();
    let mut pipeline = pipeline(true);
    host.corrupt_weight(0, 13);
    let tick = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
    pipeline
        .heal_tick(&host, &mut milr, tick, &mut Volatile)
        .unwrap();
    // The host lent its skeleton out with the snapshot; the next tick
    // builds a fresh one and reads real storage into it.
    let tick = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
    assert!(tick.detection.is_clean());
    assert!(tick.scrub.is_clean());
    // One raw bit in layer 4's shard: the tick's scrub corrects it.
    let (r_lo, _) = host.store().shard_raw_range(2);
    host.store().flip_raw_bit(r_lo + 9);
    let tick = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
    assert_eq!(tick.scrub.corrected, 1);
    assert!(tick.detection.is_clean());
    // A whole-weight fault shows in the next tick.
    host.corrupt_weight(7, 4);
    let tick = pipeline.tick(&host, &milr, &all, &mut Volatile).unwrap();
    assert_eq!(tick.detection.flagged, vec![7]);
    assert!(tick.snapshot.is_some());
}

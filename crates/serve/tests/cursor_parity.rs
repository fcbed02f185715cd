//! `ScrubCursor` parity: a chunked incremental `detect_layers` sweep
//! over one full cursor cycle flags **exactly** the layer set a
//! one-shot full detection reports — for every substrate kind and
//! every chunk size. This is the property the certification protocol
//! stands on: if incremental sweeping could miss (or invent) a flag,
//! a clean cycle would certify batches computed on dirty weights.
//! The same holds for the integrity pipeline's tick, which scrubs and
//! decodes each chunk in one pass into a skeleton reused across ticks.

use milr_core::{Milr, MilrConfig};
use milr_integrity::{Budget, EscalationPolicy, IntegrityPipeline, Volatile};
use milr_models::serving_probe as model;
use milr_serve::{ModelHost, ScrubCursor};
use milr_substrate::SubstrateKind;

/// Every chunk size from one layer per tick to one past the whole
/// set, plus `usize::MAX`: the live server's default sweeps the whole
/// model per tick.
fn chunk_sizes(layers: usize) -> impl Iterator<Item = usize> {
    (1..=layers + 1).chain([usize::MAX])
}

/// Drives the cursor through exactly one full cycle, detecting each
/// tick's chunk against the host's decoded weights, and returns the
/// union of flags plus the certification watermark (if the cycle came
/// back clean).
fn sweep_once(
    host: &ModelHost,
    milr: &Milr,
    cursor: &mut ScrubCursor,
    start: u64,
) -> (Vec<usize>, Option<u64>) {
    let mut flagged = Vec::new();
    let mut watermark = None;
    for tick in 0..cursor.ticks_per_cycle() {
        let now = start + tick as u64;
        let chunk = cursor.begin_tick(now);
        let live = host.materialize_layers(&chunk);
        let report = milr.detect_layers(&live, &chunk).unwrap();
        flagged.extend(report.flagged.iter().copied());
        if let Some(cycle_start) = cursor.finish_tick(!report.is_clean()) {
            watermark = Some(cycle_start);
        }
    }
    flagged.sort_unstable();
    flagged.dedup();
    (flagged, watermark)
}

/// [`sweep_once`] through [`IntegrityPipeline::tick`]: one full cursor
/// cycle of pipeline ticks, returning the union of their flags and the
/// certification watermark.
fn tick_sweep_once(
    host: &ModelHost,
    milr: &Milr,
    pipeline: &mut IntegrityPipeline,
    cursor: &mut ScrubCursor,
    start: u64,
) -> (Vec<usize>, Option<u64>) {
    let mut flagged = Vec::new();
    let mut watermark = None;
    for tick in 0..cursor.ticks_per_cycle() {
        let now = start + tick as u64;
        let chunk = cursor.begin_tick(now);
        let outcome = pipeline.tick(host, milr, &chunk, &mut Volatile).unwrap();
        flagged.extend(outcome.detection.flagged.iter().copied());
        if let Some(cycle_start) = cursor.finish_tick(!outcome.detection.is_clean()) {
            watermark = Some(cycle_start);
        }
    }
    flagged.sort_unstable();
    flagged.dedup();
    (flagged, watermark)
}

#[test]
fn pipeline_tick_cycle_flags_exactly_the_full_detection_set_per_kind() {
    let golden = model(0xC2C2);
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let checkable = milr.checkable_layers();
    for kind in SubstrateKind::ALL {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
        for chunk in chunk_sizes(checkable.len()) {
            let mut cursor = ScrubCursor::new(checkable.clone(), chunk);
            let (flags, watermark) = tick_sweep_once(&host, &milr, &mut pipeline, &mut cursor, 100);
            assert!(flags.is_empty(), "{kind} chunk {chunk}: phantom flags");
            assert_eq!(watermark, Some(100), "{kind} chunk {chunk}");
        }
        // The same faults as the detect_layers sweep. A tick scrubs
        // before it detects, so the one-shot detection runs on the
        // storage a first full cycle left behind, and every chunking
        // after that must agree with it.
        host.corrupt_weight(0, 7);
        host.corrupt_weight(7, 3);
        host.corrupt_weight(5, 1);
        let mut cursor = ScrubCursor::new(checkable.clone(), checkable.len());
        tick_sweep_once(&host, &milr, &mut pipeline, &mut cursor, 150);
        let full = milr.detect(&host.materialize()).unwrap();
        assert!(!full.is_clean(), "{kind}: corruption must be visible");
        for chunk in chunk_sizes(checkable.len()) {
            let mut cursor = ScrubCursor::new(checkable.clone(), chunk);
            let (flags, watermark) = tick_sweep_once(&host, &milr, &mut pipeline, &mut cursor, 200);
            assert_eq!(
                flags, full.flagged,
                "{kind} chunk {chunk}: pipeline ticks diverged from one-shot detection"
            );
            assert_eq!(watermark, None, "{kind} chunk {chunk}");
        }
        // A heal between cycles shows in the very next one: the reused
        // skeleton never carries a layer's old decode forward.
        host.write_back(&golden, &full.flagged);
        let mut cursor = ScrubCursor::new(checkable.clone(), 2);
        let (flags, watermark) = tick_sweep_once(&host, &milr, &mut pipeline, &mut cursor, 300);
        assert!(flags.is_empty(), "{kind}: healed host still flagged");
        assert_eq!(watermark, Some(300), "{kind}");
    }
}

#[test]
fn chunked_sweep_flags_exactly_the_full_detection_set_per_kind() {
    let golden = model(0xC0C0);
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let checkable = milr.checkable_layers();
    assert_eq!(checkable, vec![0, 1, 4, 5, 7]);
    for kind in SubstrateKind::ALL {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        // Clean host: every chunking certifies with no flags.
        for chunk in chunk_sizes(checkable.len()) {
            let mut cursor = ScrubCursor::new(checkable.clone(), chunk);
            let (flags, watermark) = sweep_once(&host, &milr, &mut cursor, 100);
            assert!(flags.is_empty(), "{kind} chunk {chunk}: phantom flags");
            assert_eq!(watermark, Some(100), "{kind} chunk {chunk}");
        }
        // Corrupt two layers in different segments plus a bias word.
        host.corrupt_weight(0, 7);
        host.corrupt_weight(7, 3);
        host.corrupt_weight(5, 1);
        let full = milr.detect(&host.materialize()).unwrap();
        assert!(!full.is_clean(), "{kind}: corruption must be visible");
        for chunk in chunk_sizes(checkable.len()) {
            let mut cursor = ScrubCursor::new(checkable.clone(), chunk);
            let (flags, watermark) = sweep_once(&host, &milr, &mut cursor, 200);
            assert_eq!(
                flags, full.flagged,
                "{kind} chunk {chunk}: incremental sweep diverged from one-shot detection"
            );
            assert_eq!(
                watermark, None,
                "{kind} chunk {chunk}: a flagged cycle must not certify"
            );
        }
    }
}

#[test]
fn parity_survives_mid_cycle_reset() {
    // A quarantine abandons the in-progress sweep; the next full cycle
    // must still match one-shot detection exactly.
    let golden = model(0xC1C1);
    let milr = Milr::protect(&golden, MilrConfig::default()).unwrap();
    let checkable = milr.checkable_layers();
    for kind in SubstrateKind::ALL {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        host.corrupt_weight(4, 11);
        let full = milr.detect(&host.materialize()).unwrap();
        let mut cursor = ScrubCursor::new(checkable.clone(), 2);
        // Partial sweep, then reset (as the quarantine path does).
        let chunk = cursor.begin_tick(10);
        let live = host.materialize_layers(&chunk);
        let _ = milr.detect_layers(&live, &chunk).unwrap();
        cursor.finish_tick(false);
        cursor.reset();
        let (flags, _) = sweep_once(&host, &milr, &mut cursor, 20);
        assert_eq!(flags, full.flagged, "{kind}: reset broke sweep parity");
    }
}

//! Fleet trace determinism: the multi-replica simulation stamps events
//! with the shared virtual clock and sources them by replica index, so
//! a fixed seed must reproduce the interleaved JSONL stream
//! byte-for-byte — including the fleet-level router events.

use milr_core::MilrConfig;
use milr_fleet::{simulate_observed, FleetConfig};
use milr_obs::{Observer, RingRecorder, SpanRing, FLEET_SRC};
use milr_substrate::SubstrateKind;
use std::sync::Arc;

fn traced_run(cfg: &FleetConfig) -> String {
    let model = milr_models::serving_probe(11);
    let recorder = Arc::new(RingRecorder::new(262_144));
    let obs = Observer::with_trace(recorder.clone());
    simulate_observed(&model, MilrConfig::default(), cfg, &obs)
        .expect("seeded fleet simulation is deterministic");
    assert_eq!(recorder.dropped(), 0);
    recorder.to_jsonl()
}

#[test]
fn fleet_sim_trace_is_byte_identical_across_runs() {
    let cfg = FleetConfig {
        requests: 100,
        faults: 2,
        heavy_faults: 1,
        kind: SubstrateKind::Plain,
        ..FleetConfig::default()
    };
    let trace_a = traced_run(&cfg);
    let trace_b = traced_run(&cfg);
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same seed must replay the same trace");

    let other = FleetConfig {
        seed: cfg.seed ^ 0x5EED,
        ..cfg
    };
    assert_ne!(trace_a, traced_run(&other));
}

#[test]
fn fleet_trace_sources_span_replicas() {
    let cfg = FleetConfig {
        requests: 100,
        faults: 2,
        heavy_faults: 1,
        kind: SubstrateKind::Plain,
        ..FleetConfig::default()
    };
    let jsonl = traced_run(&cfg);
    // Every replica shows up as an event source at least once (batches
    // dispatch on all of them under round-robin).
    for r in 0..cfg.replicas {
        let tag = format!("\"src\":{r},");
        assert!(jsonl.contains(&tag), "no events from replica {r}");
    }
    // The heavy fault forces a peer repair, which is stamped with the
    // receiving replica, and the per-replica quarantine/rejoin cycle
    // brackets it.
    assert!(jsonl.contains("\"event\":\"PeerRepair\""));
    assert!(jsonl.contains("\"event\":\"Quarantine\",\"entered\":true"));
    assert!(jsonl.contains("\"event\":\"Quarantine\",\"entered\":false"));
    // The fleet-level source is reserved for router-scope events; the
    // only such events today are fleet SLO burn-rate alerts, so any
    // line sourced there must be an `AlertFired`.
    let fleet_tag = format!("\"src\":{FLEET_SRC},");
    for line in jsonl.lines().filter(|l| l.contains(&fleet_tag)) {
        assert!(
            line.contains("\"event\":\"AlertFired\""),
            "unexpected fleet-scope event: {line}"
        );
    }
}

fn span_run(cfg: &FleetConfig) -> String {
    let model = milr_models::serving_probe(11);
    let ring = Arc::new(SpanRing::new(65_536));
    let obs = Observer::default().and_spans(ring.clone());
    simulate_observed(&model, MilrConfig::default(), cfg, &obs)
        .expect("seeded fleet simulation is deterministic");
    assert_eq!(ring.dropped(), 0);
    ring.to_jsonl()
}

#[test]
fn fleet_sim_span_jsonl_is_byte_identical_across_runs() {
    let cfg = FleetConfig {
        requests: 100,
        faults: 2,
        heavy_faults: 1,
        kind: SubstrateKind::Plain,
        ..FleetConfig::default()
    };
    let spans_a = span_run(&cfg);
    let spans_b = span_run(&cfg);
    assert!(!spans_a.is_empty(), "the campaign must emit span trees");
    assert_eq!(
        spans_a, spans_b,
        "same seed must replay the same span stream"
    );
    // Every replica engine contributes stage-timed trees: scrub ticks
    // everywhere, heal rounds on the quarantined replicas.
    assert!(spans_a.contains("\"name\":\"tick\""));
    assert!(spans_a.contains("\"name\":\"heal_round\""));

    let other = FleetConfig {
        seed: cfg.seed ^ 0x5EED,
        ..cfg
    };
    assert_ne!(spans_a, span_run(&other));
}

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// FNV-1a digests of one run's trace JSONL and span JSONL.
fn stream_digests(cfg: &FleetConfig) -> (u64, u64) {
    let model = milr_models::serving_probe(11);
    let recorder = Arc::new(RingRecorder::new(262_144));
    let ring = Arc::new(SpanRing::new(65_536));
    let obs = Observer::with_trace(recorder.clone()).and_spans(ring.clone());
    simulate_observed(&model, MilrConfig::default(), cfg, &obs)
        .expect("seeded fleet simulation is deterministic");
    assert_eq!(recorder.dropped(), 0);
    assert_eq!(ring.dropped(), 0);
    (
        fnv1a(recorder.to_jsonl().as_bytes()),
        fnv1a(ring.to_jsonl().as_bytes()),
    )
}

/// The `skewed-storm` builtin campaign's overlay on the fleet:
/// double-sided row bursts, stuck-at cells, a torn write at the Verify
/// seam, and skewed arrivals and scrub cadence.
fn storm() -> FleetConfig {
    use milr_fault::{BurstPattern, BurstSpec, ChaosSpec, SkewSpec, StuckAtSpec, TornWriteSpec};
    FleetConfig {
        seed: 0xCA11_0005,
        requests: 120,
        faults: 1,
        chaos: Some(ChaosSpec {
            bursts: Some(BurstSpec {
                pattern: BurstPattern::DoubleSidedRow,
                bursts: 2,
                flip_prob_milli: 400,
            }),
            stuck_at: Some(StuckAtSpec {
                bits: 6,
                from_milli: 100,
                until_milli: 600,
            }),
            torn_write: Some(TornWriteSpec {
                stage: "Verify".to_string(),
                fires: 1,
                flips: 4,
            }),
            skew: Some(SkewSpec {
                arrival_milli: 900,
                scrub_milli: 1200,
            }),
            ..ChaosSpec::default()
        }),
        ..FleetConfig::default()
    }
}

/// The interleaved event order itself, pinned across builds: the
/// equality tests above compare two runs of one build, which agree
/// even when a reordered tie in the event queue leaves the report
/// intact. Captured before the serving core dropped its effect outbox.
#[test]
fn fleet_sim_event_order_is_pinned() {
    let heavy = FleetConfig {
        requests: 100,
        faults: 2,
        heavy_faults: 1,
        kind: SubstrateKind::Plain,
        ..FleetConfig::default()
    };
    assert_eq!(
        stream_digests(&heavy),
        (2314150511320441459, 5361665799791480521),
        "heavy-fault campaign"
    );
    assert_eq!(
        stream_digests(&storm()),
        (16968244125512858603, 5879021699543420611),
        "chaos storm"
    );
}

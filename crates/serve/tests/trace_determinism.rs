//! Trace determinism: simulation traces are stamped with the virtual
//! clock, so a fixed seed must reproduce the JSONL event stream
//! byte-for-byte — and attaching the recorder must not perturb the run
//! itself (same report bytes, same digest).

use milr_core::MilrConfig;
use milr_obs::{EventKind, MetricsRegistry, Observer, RingRecorder, SpanRing, TraceSink};
use milr_serve::sim::SimConfig;
use milr_serve::{simulate, simulate_observed};
use std::sync::Arc;

fn traced_run(cfg: &SimConfig) -> (String, String) {
    let model = milr_models::serving_probe(11);
    let recorder = Arc::new(RingRecorder::new(65_536));
    let obs = Observer::with_trace(recorder.clone());
    let result = simulate_observed(&model, MilrConfig::default(), cfg, &obs)
        .expect("seeded simulation is deterministic");
    assert_eq!(recorder.dropped(), 0);
    (recorder.to_jsonl(), result.report.to_json())
}

#[test]
fn serve_sim_trace_is_byte_identical_across_runs() {
    let cfg = SimConfig::default();
    let (trace_a, report_a) = traced_run(&cfg);
    let (trace_b, report_b) = traced_run(&cfg);
    assert!(!trace_a.is_empty(), "the default campaign must emit events");
    assert_eq!(trace_a, trace_b, "same seed must replay the same trace");
    assert_eq!(report_a, report_b);

    // A different seed must actually change the stream (the equality
    // above is not vacuous).
    let other = SimConfig {
        seed: cfg.seed ^ 0x5EED,
        ..cfg
    };
    let (trace_c, _) = traced_run(&other);
    assert_ne!(trace_a, trace_c);
}

#[test]
fn serve_sim_observed_report_matches_unobserved() {
    let model = milr_models::serving_probe(11);
    let cfg = SimConfig {
        seed: 0xD00D,
        requests: 120,
        faults: 1,
        ..SimConfig::default()
    };
    let plain = simulate(&model, MilrConfig::default(), &cfg).unwrap();
    let recorder = Arc::new(RingRecorder::new(65_536));
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = Observer::with_trace(recorder.clone()).and_metrics(metrics.clone());
    let observed = simulate_observed(&model, MilrConfig::default(), &cfg, &obs).unwrap();

    assert_eq!(plain.report.to_json(), observed.report.to_json());
    assert_eq!(plain.report.digest, observed.report.digest);

    // Metrics agree with the report's own accounting.
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter_value("serve_faults_injected_total"),
        Some(observed.report.faults_injected as u64)
    );
    assert_eq!(
        snap.counter_value("serve_quarantines_total"),
        Some(observed.report.quarantines as u64)
    );
    let lat = snap.histogram_named("serve_latency_ns").expect("latency");
    assert_eq!(lat.count(), observed.report.completed as u64);
}

/// The same agreement under a chaos campaign — two row bursts and a
/// torn write at the Heal seam on top of one whole-weight fault. Every
/// injection that lands counts once, in the counter and the report
/// alike.
#[test]
fn serve_sim_chaos_metrics_agree_with_the_report() {
    use milr_fault::{BurstPattern, BurstSpec, ChaosSpec, TornWriteSpec};
    let model = milr_models::serving_probe(11);
    let cfg = SimConfig {
        faults: 1,
        chaos: Some(ChaosSpec {
            bursts: Some(BurstSpec {
                pattern: BurstPattern::Row,
                bursts: 2,
                flip_prob_milli: 300,
            }),
            torn_write: Some(TornWriteSpec {
                stage: "Heal".to_string(),
                fires: 1,
                flips: 8,
            }),
            ..ChaosSpec::default()
        }),
        ..SimConfig::default()
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = Observer::default().and_metrics(metrics.clone());
    let result = simulate_observed(&model, MilrConfig::default(), &cfg, &obs).unwrap();
    let report = &result.report;
    let chaos = result.chaos.expect("campaign stats");
    assert!(chaos.burst_bits > 0 && chaos.torn_fires > 0, "{chaos:?}");
    assert!(
        report.faults_injected > cfg.faults,
        "chaos landings are faults"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter_value("serve_faults_injected_total"),
        Some(report.faults_injected as u64)
    );
    assert_eq!(
        snap.counter_value("serve_quarantines_total"),
        Some(report.quarantines as u64)
    );
}

fn span_run(cfg: &SimConfig) -> String {
    let model = milr_models::serving_probe(11);
    let ring = Arc::new(SpanRing::new(65_536));
    let obs = Observer::default().and_spans(ring.clone());
    simulate_observed(&model, MilrConfig::default(), cfg, &obs)
        .expect("seeded simulation is deterministic");
    assert_eq!(ring.dropped(), 0);
    ring.to_jsonl()
}

#[test]
fn serve_sim_span_jsonl_is_byte_identical_across_runs() {
    let cfg = SimConfig::default();
    let spans_a = span_run(&cfg);
    let spans_b = span_run(&cfg);
    assert!(
        !spans_a.is_empty(),
        "the default campaign must emit span trees"
    );
    assert_eq!(
        spans_a, spans_b,
        "same seed must replay the same span stream"
    );
    // The stream carries both the modeled serving trees and the
    // integrity engine's stage-timed trees.
    assert!(spans_a.contains("\"name\":\"batch\""));
    assert!(spans_a.contains("\"name\":\"tick\""));
    assert!(spans_a.contains("\"name\":\"heal_round\""));

    // Not vacuous: a different seed reshuffles the virtual timeline.
    let other = SimConfig {
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
fn stream_digests(cfg: &SimConfig) -> (u64, u64) {
    let model = milr_models::serving_probe(11);
    let recorder = Arc::new(RingRecorder::new(65_536));
    let ring = Arc::new(SpanRing::new(65_536));
    let obs = Observer::with_trace(recorder.clone()).and_spans(ring.clone());
    simulate_observed(&model, MilrConfig::default(), cfg, &obs)
        .expect("seeded simulation is deterministic");
    assert_eq!(recorder.dropped(), 0);
    assert_eq!(ring.dropped(), 0);
    (
        fnv1a(recorder.to_jsonl().as_bytes()),
        fnv1a(ring.to_jsonl().as_bytes()),
    )
}

/// A chaos campaign with every raw-image regime the sim drives:
/// double-sided row bursts, stuck-at cells re-asserted before each
/// tick, a torn write at the Verify seam, and skewed arrivals and
/// scrub cadence (the `skewed-storm` builtin campaign's overlay).
fn storm() -> SimConfig {
    use milr_fault::{BurstPattern, BurstSpec, ChaosSpec, SkewSpec, StuckAtSpec, TornWriteSpec};
    SimConfig {
        seed: 0xCA11_0005,
        requests: 120,
        faults: 1,
        kind: milr_substrate::SubstrateKind::Secded,
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
        ..SimConfig::default()
    }
}

/// The event order itself, pinned across builds: two runs of one build
/// can agree while a reordered tie in the event queue leaves the report
/// intact, so the trace and span streams are digested against values
/// captured before the serving core dropped its effect outbox.
#[test]
fn serve_sim_event_order_is_pinned() {
    assert_eq!(
        stream_digests(&SimConfig::default()),
        (4066057147233527292, 17707425371672071496),
        "default campaign"
    );
    assert_eq!(
        stream_digests(&storm()),
        (4937585230268463396, 3666910986309437742),
        "chaos storm"
    );
}

#[test]
fn trace_events_are_well_formed_jsonl() {
    let model = milr_models::serving_probe(11);
    let recorder = Arc::new(RingRecorder::new(65_536));
    let obs = Observer::with_trace(recorder.clone());
    simulate_observed(&model, MilrConfig::default(), &SimConfig::default(), &obs).unwrap();

    let jsonl = recorder.to_jsonl();
    assert!(jsonl.ends_with('\n'));
    let mut last_ns = 0u64;
    for line in jsonl.lines() {
        assert!(line.starts_with("{\"ns\":"), "bad line: {line}");
        assert!(line.ends_with('}'), "bad line: {line}");
        assert!(line.contains("\"event\":\""), "bad line: {line}");
        // The virtual clock never runs backwards.
        let ns: u64 = line["{\"ns\":".len()..line.find(',').unwrap()]
            .parse()
            .expect("ns field is a bare integer");
        assert!(ns >= last_ns, "clock went backwards: {line}");
        last_ns = ns;
    }
    // The default fault campaign exercises the full episode shape.
    for needle in [
        "\"event\":\"FaultInjected\"",
        "\"event\":\"ScrubFlagged\"",
        "\"event\":\"Quarantine\"",
        "\"event\":\"StageEntered\"",
        "\"event\":\"HealOutcome\"",
        "\"event\":\"BatchDispatched\"",
    ] {
        assert!(jsonl.contains(needle), "missing {needle}");
    }
}

#[test]
fn ring_recorder_overwrites_oldest_and_counts_drops() {
    let recorder = RingRecorder::new(4);
    for i in 0..10u64 {
        recorder.record(milr_obs::TraceEvent {
            ns: i,
            src: 0,
            kind: EventKind::BatchDispatched {
                occupancy: i as u32,
            },
        });
    }
    assert_eq!(recorder.dropped(), 6);
    let jsonl = recorder.to_jsonl();
    assert_eq!(jsonl.lines().count(), 4);
    assert!(jsonl.starts_with("{\"ns\":6,"), "oldest kept must be #6");
}

//! Golden-seed parity: the unified integrity engine must be an exact
//! behavioural refactor of the five loops it replaced. These fixed-seed
//! runs were captured **before** the `crates/integrity` extraction;
//! every legacy report field (and the outcome digest, which hashes
//! every request's output bits) must stay byte-identical forever.
//!
//! The only additive change is the `pipeline` block appended to the
//! report JSON — asserted here by prefix-matching the pre-refactor
//! byte string.

use milr_core::MilrConfig;
use milr_fleet::FleetConfig;
use milr_serve::sim::SimConfig;
use milr_serve::ServeReport;
use milr_substrate::SubstrateKind;

/// `serving_probe(11)`, `SimConfig::default()` — captured at PR 4.
const SERVE_DEFAULT: &str = "{\"seed\":6165246,\"policy\":\"drain\",\"submitted\":200,\
\"completed\":200,\"rejected\":0,\"reexecuted\":76,\"faults_injected\":2,\
\"scrub_corrected\":0,\"scrub_ticks\":23,\"quarantines\":2,\"layers_recovered\":2,\
\"durability_errors\":0,\"total_ns\":115000000,\"downtime_ns\":23000000,\
\"availability\":0.800000000,\"latency_mean_us\":30162.986,\"latency_p50_us\":31513.914,\
\"latency_p95_us\":48861.030,\"latency_max_us\":52346.619,\"digest\":12855914172184449660}";

/// The fleet view of `serving_probe(11)`, `FleetConfig::default()` with
/// 100 requests, 2 faults + 1 heavy fault, plain substrate — captured
/// at PR 4.
const FLEET_HEAVY_FLEET: &str = "{\"seed\":990951,\"policy\":\"drain\",\"submitted\":100,\
\"completed\":100,\"rejected\":0,\"reexecuted\":18,\"faults_injected\":3,\
\"scrub_corrected\":0,\"scrub_ticks\":34,\"quarantines\":2,\"layers_recovered\":2,\
\"durability_errors\":0,\"total_ns\":60000000,\"downtime_ns\":0,\
\"availability\":1.000000000,\"latency_mean_us\":20202.411,\"latency_p50_us\":20355.248,\
\"latency_p95_us\":28576.373,\"latency_max_us\":31472.190,\"digest\":260079948217714707}";

/// Same run, the capacity aggregate — captured at PR 4, percentiles
/// re-captured at PR 7 when `ServeReport::aggregate` switched from
/// count-weighted percentile averaging (wrong for multimodal mixes) to
/// merging the per-replica latency histograms. Mean, max, digest, and
/// every count are bit-identical to the PR 4 capture; only p50/p95 moved
/// (and only within the histogram's ≤3.2% bucket width).
const FLEET_HEAVY_CAPACITY: &str = "{\"seed\":990951,\"policy\":\"drain\",\"submitted\":118,\
\"completed\":100,\"rejected\":0,\"reexecuted\":18,\"faults_injected\":3,\
\"scrub_corrected\":0,\"scrub_ticks\":34,\"quarantines\":2,\"layers_recovered\":2,\
\"durability_errors\":0,\"total_ns\":60000000,\"downtime_ns\":13666666,\
\"availability\":0.772222222,\"latency_mean_us\":20202.411,\"latency_p50_us\":20447.231,\
\"latency_p95_us\":28835.839,\"latency_max_us\":31472.190,\"digest\":14796408015967164088}";

/// Same run, the three per-replica digests in replica order.
const FLEET_HEAVY_REPLICA_DIGESTS: [u64; 3] = [
    17718110661062355280,
    7640538247473438064,
    1737466879885898915,
];

/// Asserts `report`'s legacy fields serialize byte-identically to the
/// pre-refactor `golden` JSON, with only the pipeline block appended.
fn assert_legacy_prefix(report: &ServeReport, golden: &str, what: &str) {
    let json = report.to_json();
    let prefix = &golden[..golden.len() - 1]; // drop the closing brace
    assert!(
        json.starts_with(prefix),
        "{what}: legacy report fields diverged from the pre-refactor capture\n  got: {json}\n  want prefix: {prefix}"
    );
    assert!(
        json[prefix.len()..].starts_with(",\"pipeline\":{"),
        "{what}: expected only the pipeline block appended, got: {}",
        &json[prefix.len()..]
    );
}

#[test]
fn serve_sim_default_seed_is_byte_identical_to_pre_refactor() {
    let model = milr_models::serving_probe(11);
    let result = milr_serve::simulate(&model, MilrConfig::default(), &SimConfig::default())
        .expect("seeded simulation is deterministic");
    assert_legacy_prefix(&result.report, SERVE_DEFAULT, "serve default");
    assert_eq!(result.report.digest, 12855914172184449660);
    // The engine's own accounting is deterministic too: two
    // quarantines, each healing one layer in one round, each verify
    // re-checking only the flagged layer.
    assert_eq!(result.report.pipeline.heal_rounds, 2);
    assert_eq!(result.report.pipeline.layers_healed, 2);
    assert_eq!(result.report.pipeline.fast_verifies, 2);
    assert!(result.report.pipeline.layers_skipped > 0);
    assert_eq!(result.report.pipeline.stage_ns.heal, 0, "virtual clock");
}

#[test]
fn fleet_sim_heavy_seed_is_byte_identical_to_pre_refactor() {
    let model = milr_models::serving_probe(11);
    let cfg = FleetConfig {
        requests: 100,
        faults: 2,
        heavy_faults: 1,
        kind: SubstrateKind::Plain,
        ..FleetConfig::default()
    };
    let result = milr_fleet::simulate(&model, MilrConfig::default(), &cfg)
        .expect("seeded fleet simulation is deterministic");
    let r = &result.report;
    assert_legacy_prefix(&r.fleet, FLEET_HEAVY_FLEET, "fleet aggregate");
    assert_legacy_prefix(&r.capacity, FLEET_HEAVY_CAPACITY, "capacity aggregate");
    assert_eq!(r.peer_repairs(), 1);
    assert_eq!(r.repair_pages(), 4);
    assert_eq!(r.repair_bytes(), 864);
    for (rep, &digest) in r.per_replica.iter().zip(&FLEET_HEAVY_REPLICA_DIGESTS) {
        assert_eq!(
            rep.report.digest, digest,
            "replica {} digest diverged",
            rep.replica
        );
    }
    // The heavy fault escalated exactly one layer to peer repair.
    assert_eq!(r.fleet.pipeline.layers_escalated, 1);
    // Exact heals were re-anchored durably on the replicas; the peer
    // repair added one more anchor through its re-admission.
    assert_eq!(r.fleet.pipeline.anchors, r.fleet.pipeline.reprotects);
}

/// Observation must be provably non-perturbing: the same golden-seed
/// run with a trace recorder, a metrics registry, *and* a span ring
/// attached must reproduce every report byte and every digest of the
/// unobserved run. The SLO engines always run (they feed off the same
/// deterministic streams), so the `slo` block is part of the golden
/// bytes either way; only span collection and `AlertFired` emission
/// are observer-gated, and neither may perturb anything.
#[test]
fn fleet_sim_observed_run_is_byte_identical_to_unobserved() {
    use milr_obs::{MetricsRegistry, Observer, RingRecorder, SpanRing};
    use std::sync::Arc;

    let model = milr_models::serving_probe(11);
    let cfg = FleetConfig {
        requests: 100,
        faults: 2,
        heavy_faults: 1,
        kind: SubstrateKind::Plain,
        ..FleetConfig::default()
    };
    let recorder = Arc::new(RingRecorder::new(65_536));
    let metrics = Arc::new(MetricsRegistry::new());
    let spans = Arc::new(SpanRing::new(65_536));
    let obs = Observer::with_trace(recorder.clone())
        .and_metrics(metrics.clone())
        .and_spans(spans.clone());
    let observed = milr_fleet::simulate_observed(&model, MilrConfig::default(), &cfg, &obs)
        .expect("seeded fleet simulation is deterministic");
    let r = &observed.report;

    // Same pre-refactor legacy bytes and digests as the unobserved run.
    assert_legacy_prefix(&r.fleet, FLEET_HEAVY_FLEET, "observed fleet aggregate");
    assert_legacy_prefix(
        &r.capacity,
        FLEET_HEAVY_CAPACITY,
        "observed capacity aggregate",
    );
    assert_eq!(r.fleet.digest, 260079948217714707);
    for (rep, &digest) in r.per_replica.iter().zip(&FLEET_HEAVY_REPLICA_DIGESTS) {
        assert_eq!(
            rep.report.digest, digest,
            "observed replica {} digest diverged",
            rep.replica
        );
    }

    // And the observer actually observed: the fault campaign, the
    // quarantines, and the peer repair all landed in trace + metrics.
    let jsonl = recorder.to_jsonl();
    assert!(jsonl.contains("\"event\":\"FaultInjected\""));
    assert!(jsonl.contains("\"event\":\"Quarantine\""));
    assert!(jsonl.contains("\"event\":\"PeerRepair\""));
    assert_eq!(recorder.dropped(), 0, "ring must not overflow at this size");
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter_value("serve_faults_injected_total"),
        Some(r.fleet.faults_injected as u64)
    );
    assert_eq!(
        snap.counter_value("serve_quarantines_total"),
        Some(r.fleet.quarantines as u64)
    );
    assert_eq!(snap.counter_value("fleet_peer_repairs_total"), Some(1));

    // Span collection observed too: every replica engine pushed timed
    // trees (scrub ticks, heal episodes) without touching a single
    // report byte above.
    assert!(!spans.is_empty(), "span ring must have collected trees");
    assert_eq!(spans.dropped(), 0, "span ring must not overflow");
    let span_jsonl = spans.to_jsonl();
    assert!(span_jsonl.contains("\"name\":\"tick\""));
    assert!(span_jsonl.contains("\"name\":\"heal_round\""));
}

/// The fleet's fault counter and report agree under a chaos campaign —
/// two row bursts and a torn write at the Heal seam on top of one
/// whole-weight fault: every injection that lands counts once in both.
#[test]
fn fleet_sim_chaos_metrics_agree_with_the_report() {
    use milr_fault::{BurstPattern, BurstSpec, ChaosSpec, TornWriteSpec};
    use milr_obs::{MetricsRegistry, Observer};
    use std::sync::Arc;

    let model = milr_models::serving_probe(11);
    let cfg = FleetConfig {
        requests: 100,
        faults: 1,
        kind: SubstrateKind::Plain,
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
        ..FleetConfig::default()
    };
    let metrics = Arc::new(MetricsRegistry::new());
    let obs = Observer::default().and_metrics(metrics.clone());
    let result = milr_fleet::simulate_observed(&model, MilrConfig::default(), &cfg, &obs)
        .expect("seeded fleet simulation is deterministic");
    let fleet = &result.report.fleet;
    let chaos = result.chaos.expect("campaign stats");
    assert!(chaos.burst_bits > 0 && chaos.torn_fires > 0, "{chaos:?}");
    assert!(
        fleet.faults_injected > cfg.faults,
        "chaos landings are faults"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.counter_value("serve_faults_injected_total"),
        Some(fleet.faults_injected as u64)
    );
    assert_eq!(
        snap.counter_value("serve_quarantines_total"),
        Some(fleet.quarantines as u64)
    );
}

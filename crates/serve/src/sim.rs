//! Deterministic serving simulation on a virtual clock.
//!
//! The simulation is the [`ServeCore`] driven by a single-threaded
//! discrete-event loop ([`EventQueue`]) over virtual nanoseconds. Every
//! source of nondeterminism is seeded (the shared [`Workload`], fault
//! schedule, and [`ChaosOverlay`]) or fixed ([`VirtualCosts`]), so a run
//! is a pure function of `(model, MilrConfig, SimConfig)`: two runs with
//! the same seed produce bit-identical outcomes and the same
//! [`ServeReport::digest`](crate::ServeReport::digest). This is the path
//! the end-to-end test and `serve_load`/`fig12 --measured` benchmarks
//! use; the live [`Server`](crate::Server) runs the same core from its
//! scrubber thread on the wall clock.
//!
//! The driver owns only what the core leaves out: the model host and
//! the integrity pipeline, the scrub cadence, the virtual cost of each
//! batch and heal, the fault campaign, and the cold redeploy a chaos
//! campaign can force when a heal episode exceeds single-instance
//! recovery capacity.

use crate::report::{outcome_digest, ServeReport};
use crate::request::RequestOutcome;
use crate::serve_core::{CoreConfig, RequestQueue, ServeCore, ServeObs};
use crate::workload::{campaign_time, conv_layers, ChaosOverlay, ChaosStats, EventQueue, Workload};
use milr_core::{Milr, MilrConfig, SolvingPlan};
use milr_fault::{ChaosSpec, FaultRng};
use milr_integrity::{
    Budget, EscalationPolicy, IntegrityPipeline, ModelHost, RoundOutcome, Volatile,
};
use milr_nn::Sequential;
use milr_obs::{Observer, SloEngine, SloSpec, SpanHandle, SpanTree};
use milr_substrate::SubstrateKind;
use milr_tensor::Tensor;

/// Virtual durations of the service's operations, in nanoseconds.
///
/// Fixed constants keep the simulation a pure function of the seed;
/// calibrate them from real measurements when comparing against a
/// particular machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualCosts {
    /// Fixed dispatch overhead per batch.
    pub batch_base_ns: u64,
    /// Marginal cost per request inside a batch.
    pub per_request_ns: u64,
    /// Detection replay of one layer.
    pub detect_layer_ns: u64,
    /// MILR recovery of one quarantine episode (propagate + solve).
    pub recover_ns: u64,
}

impl Default for VirtualCosts {
    fn default() -> Self {
        VirtualCosts {
            batch_base_ns: 1_000_000, // 1 ms
            per_request_ns: 500_000,  // 0.5 ms
            detect_layer_ns: 300_000, // 0.3 ms
            recover_ns: 10_000_000,   // 10 ms
        }
    }
}

impl VirtualCosts {
    /// Service time of a batch of `n` requests.
    pub fn batch_ns(&self, n: usize) -> u64 {
        self.batch_base_ns + self.per_request_ns * n as u64
    }

    /// One full detection pass over `layers` checkable layers.
    pub fn full_detect_ns(&self, layers: usize) -> u64 {
        self.detect_layer_ns * layers as u64
    }

    /// From quarantine to the first heal round's verdict: a full
    /// detection pass over `layers` checkable layers plus one recovery.
    pub fn quarantine_ns(&self, layers: usize) -> u64 {
        self.full_detect_ns(layers) + self.recover_ns
    }
}

/// Configuration of one simulated serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed for arrivals, inputs and fault schedule.
    pub seed: u64,
    /// Requests in the workload.
    pub requests: usize,
    /// Mean inter-arrival gap, nanoseconds (exponential arrivals).
    pub mean_arrival_ns: u64,
    /// Worker pool size.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// Scrubber cadence, nanoseconds between ticks.
    pub scrub_interval_ns: u64,
    /// Checkable layers examined per scrub tick.
    pub layers_per_tick: usize,
    /// Whole-weight faults injected over the run.
    pub faults: usize,
    /// Substrate kind backing the model host. Chaos campaigns sweep
    /// this; the default ([`SubstrateKind::Plain`]) is the legacy
    /// configuration the golden-seed parity suite locks.
    pub kind: SubstrateKind,
    /// Chaos campaign overlay: correlated bursts, stuck-at cells, torn
    /// writes at pipeline seams, schedule skew. `None` (and
    /// `Some(quiet)`) leave the run byte-identical to the legacy
    /// simulation. Byzantine donors are fleet-only and ignored here.
    pub chaos: Option<ChaosSpec>,
    /// SLO suite override for campaign runs; `None` uses
    /// [`SloEngine::serving_defaults`].
    pub slo_specs: Option<Vec<SloSpec>>,
    /// Virtual operation costs.
    pub costs: VirtualCosts,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x5E12FE,
            requests: 200,
            mean_arrival_ns: 400_000,
            workers: 4,
            queue_capacity: 256,
            batch_max: 8,
            scrub_interval_ns: 4_000_000,
            layers_per_tick: 2,
            faults: 2,
            kind: SubstrateKind::Plain,
            chaos: None,
            slo_specs: None,
            costs: VirtualCosts::default(),
        }
    }
}

/// Everything a simulated run produced.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Aggregate counters and distributions.
    pub report: ServeReport,
    /// Every request's terminal state, by submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Chaos injection tallies; `None` when no campaign was active.
    pub chaos: Option<ChaosStats>,
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    WorkerDone(usize),
    ScrubTick,
    Fault {
        layer: usize,
        weight: usize,
    },
    /// One correlated chaos burst over the raw image.
    ChaosBurst,
    RecoveryDone,
}

/// Runs one deterministic serving simulation.
///
/// # Errors
///
/// Propagates MILR protection/detection/recovery failures.
///
/// # Panics
///
/// Panics on zero-sized pools/queues/batches, when the model has no
/// layers eligible for fault injection, or if the event budget (a
/// runaway-loop backstop) is exhausted.
pub fn simulate(
    golden: &Sequential,
    milr_config: MilrConfig,
    cfg: &SimConfig,
) -> milr_core::Result<SimResult> {
    simulate_observed(golden, milr_config, cfg, &Observer::default())
}

/// The run state the event loop mutates: the core, its queue, and the
/// virtual worker pool's pending outputs.
struct Sim<'a> {
    cfg: &'a SimConfig,
    host: &'a ModelHost,
    spans: Option<&'a SpanHandle>,
    timeline: EventQueue<Event>,
    work: Workload,
    core: ServeCore<()>,
    queue: RequestQueue<()>,
    /// Outputs of each worker's batch, computed at dispatch (the
    /// weights as they were then) and handed to the core at completion.
    outputs: Vec<Option<Vec<Tensor>>>,
    /// Nanoseconds between scrub ticks, chaos skew applied.
    scrub_interval_ns: u64,
}

impl Sim<'_> {
    /// Fills every free worker slot: each dispatched batch runs its
    /// forward pass now and completes after its virtual cost.
    fn dispatch(&mut self, now: u64) {
        while let Some(worker) = self.core.dispatch(&mut self.queue, now) {
            let batch = self.core.batch(worker).expect("dispatched batch");
            let n = batch.len();
            let outputs = self
                .host
                .forward_batch(&self.work.inputs(batch))
                .expect("batch inputs validated at submission");
            self.outputs[worker] = Some(outputs);
            let costs = &self.cfg.costs;
            if let Some(sp) = self.spans {
                // Span tree from the modeled costs: the virtual clock
                // does not advance inside the host call.
                let decode_done = now + costs.batch_base_ns;
                let span_done = now + costs.batch_ns(n);
                let mut tree = SpanTree::new();
                tree.open(now, "batch", n as u64);
                tree.open(now, "decode", n as u64);
                tree.close(decode_done);
                tree.open(decode_done, "forward", n as u64);
                tree.close(span_done);
                sp.push_all(tree.finish(span_done));
            }
            self.timeline
                .schedule(now + costs.batch_ns(n), Event::WorkerDone(worker));
        }
    }

    /// Arms the next scrub tick, one interval after `now`. Ticks are
    /// armed at start, after a clean tick, and on resume, so at most
    /// one is ever pending and none outlives a quarantine.
    fn arm_scrub(&mut self, now: u64) {
        self.timeline
            .schedule(now + self.scrub_interval_ns, Event::ScrubTick);
    }
}

/// [`simulate`] with an observability context: trace events are
/// stamped with the **virtual clock**, so a fixed seed reproduces the
/// JSONL stream byte-for-byte, and metrics handles are registered once
/// up front (recording is atomics only). Observation is provably
/// non-perturbing: the returned result — digest included — is
/// byte-identical with or without an observer attached (the golden
/// parity suite asserts this).
///
/// # Errors
///
/// # Panics
///
/// See [`simulate`].
pub fn simulate_observed(
    golden: &Sequential,
    milr_config: MilrConfig,
    cfg: &SimConfig,
    obs: &Observer,
) -> milr_core::Result<SimResult> {
    assert!(cfg.requests > 0, "need a workload");
    let mut milr = Milr::protect(golden, milr_config)?;
    let host = ModelHost::new(golden, &|c| cfg.kind.store(c));
    let checkable = milr.checkable_layers();
    let spec = ChaosOverlay::active(cfg.chaos.as_ref());
    let work = Workload::generate(
        cfg.seed,
        cfg.requests,
        cfg.mean_arrival_ns,
        golden.input_shape(),
        spec.and_then(|c| c.skew.as_ref()),
    );
    let horizon = work.horizon();
    let mut chaos = ChaosOverlay::plan(spec, cfg.seed, horizon, &[host.store().clone()], false);

    // The shared integrity engine, untimed (virtual clock) and
    // volatile: the simulation's weights live only in memory, and the
    // Quarantine policy matches the online server's give-up-and-resume
    // contract (the round budget itself is asserted below).
    let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
    if let Some(trace) = &obs.trace {
        pipeline.attach_trace(trace.clone(), 0);
    }
    if let Some(spans) = &obs.spans {
        pipeline.attach_spans(spans.clone());
    }
    if let Some(hook) = chaos
        .as_ref()
        .and_then(|c| c.torn_hook(0, host.store().clone(), cfg.seed))
    {
        pipeline.attach_stage_hook(hook);
    }
    // The SLO engine runs unconditionally inside the core, fed from the
    // run's own deterministic streams, so the report's budget verdict
    // is part of the seeded contract whether or not observers attach.
    let serve_obs = ServeObs::new(obs.trace.clone(), 0, obs.metrics.as_deref());
    let queue = RequestQueue::new(cfg.queue_capacity, serve_obs.queue_depth.clone());
    let slo = match &cfg.slo_specs {
        Some(specs) => SloEngine::new(specs.clone()),
        None => SloEngine::serving_defaults(),
    };
    let core_cfg = CoreConfig {
        workers: cfg.workers,
        batch_max: cfg.batch_max,
        layers_per_tick: cfg.layers_per_tick,
    };
    let core = ServeCore::new(core_cfg, checkable.clone(), slo, serve_obs);

    // Seeded fault schedule over the bulk of the workload window, on
    // the fully recoverable conv layers: their CRC-certified heals
    // restore the exact golden bits, so certified outputs stay
    // bit-equal to the original model.
    let targets = conv_layers(golden, &milr, SolvingPlan::ConvFull);
    assert!(
        cfg.faults == 0 || !targets.is_empty(),
        "no layers eligible for fault injection"
    );
    let mut fault_rng = FaultRng::seed(cfg.seed ^ 0xFA117);
    let mut faults: Vec<(u64, usize, usize)> = (0..cfg.faults)
        .map(|_| {
            let time = campaign_time(&mut fault_rng, horizon);
            let layer = targets[fault_rng.below(targets.len())];
            let weight = fault_rng.below(host.layer_weight_count(layer));
            (time, layer, weight)
        })
        .collect();
    faults.sort_unstable();

    let mut timeline = EventQueue::new();
    for i in 0..cfg.requests {
        timeline.schedule(work.arrival(i), Event::Arrival(i));
    }
    for &(time, layer, weight) in &faults {
        timeline.schedule(time, Event::Fault { layer, weight });
    }
    for &(time, _) in chaos.iter().flat_map(|c| c.bursts()) {
        timeline.schedule(time, Event::ChaosBurst);
    }
    let mut sim = Sim {
        cfg,
        host: &host,
        spans: obs.spans.as_ref(),
        timeline,
        work,
        core,
        queue,
        outputs: vec![None; cfg.workers],
        scrub_interval_ns: ChaosOverlay::scrub_interval(spec, cfg.scrub_interval_ns),
    };
    sim.arm_scrub(0);

    let mut clock = 0u64;
    let mut events = 0u64;
    while let Some((time, event)) = sim.timeline.pop() {
        events += 1;
        assert!(events < 50_000_000, "simulation event budget exhausted");
        debug_assert!(time >= clock, "virtual time must be monotone");
        clock = time;
        match event {
            Event::Arrival(i) => {
                let req = sim.work.request(i);
                // A rejection is already resolved by the core.
                if sim.core.arrive(&mut sim.queue, req, clock).is_ok() {
                    sim.dispatch(clock);
                }
            }
            Event::WorkerDone(worker) => {
                let outputs = sim.outputs[worker].take().expect("worker was busy");
                sim.core.worker_done(&mut sim.queue, worker, outputs, clock);
                sim.dispatch(clock);
            }
            Event::ScrubTick => {
                debug_assert!(!sim.core.is_quarantined(), "tick outlived a quarantine");
                if let Some(c) = &mut chaos {
                    c.assert_stuck(0, host.store(), &mut sim.core, clock);
                }
                let chunk = sim.core.begin_scrub(clock);
                pipeline.set_now(clock);
                let tick = pipeline
                    .tick(&host, &milr, &chunk, &mut Volatile)
                    .map_err(into_milr_err)?;
                if let Some(c) = &mut chaos {
                    c.fold_torn(0, &mut sim.core, clock);
                }
                let flagged = !tick.detection.is_clean();
                if sim.core.finish_scrub(&mut sim.queue, flagged, clock) {
                    let cost = cfg.costs.quarantine_ns(checkable.len());
                    sim.timeline.schedule(clock + cost, Event::RecoveryDone);
                } else {
                    sim.arm_scrub(clock);
                }
            }
            Event::Fault { layer, weight } => {
                host.corrupt_weight(layer, weight);
                sim.core.fault_landed(clock, layer as u32, weight as u64);
            }
            Event::ChaosBurst => {
                let c = chaos.as_mut().expect("burst event without a campaign");
                c.burst(host.store(), &mut sim.core, clock);
            }
            Event::RecoveryDone => {
                debug_assert!(sim.core.is_quarantined(), "recovery outside a quarantine");
                // One heal round of the shared engine: detect → heal →
                // fast-path verify, and — once clean — the re-protect
                // that keeps an approximate heal (partial-
                // recoverability geometry, §V-B) from leaving stored
                // CRC grids out of sync with storage.
                pipeline.set_now(clock);
                let round = pipeline
                    .heal_round(&host, &mut milr, &mut Volatile)
                    .map_err(into_milr_err)?;
                if let Some(c) = &mut chaos {
                    c.fold_torn(0, &mut sim.core, clock);
                }
                sim.core.observe_heals(clock, pipeline.report());
                match round {
                    RoundOutcome::Clean { .. } => {
                        // Chaos campaigns run many quarantine episodes
                        // (stuck cells re-flag after every heal); the
                        // budget is per-episode there. Legacy runs keep
                        // the cumulative budget byte-for-byte.
                        if chaos.is_some() {
                            pipeline.reset_budget();
                        }
                        sim.core.resume(clock);
                        sim.arm_scrub(clock);
                        sim.dispatch(clock);
                    }
                    RoundOutcome::Retry { flagged } => {
                        let mut cost = cfg.costs.recover_ns;
                        if pipeline.budget_exhausted() {
                            // Legacy workloads inject only recoverable
                            // faults: a non-converging heal there is a
                            // harness bug, not an outcome.
                            let Some(c) = &mut chaos else {
                                panic!("recovery failed to converge: {flagged:?}");
                            };
                            // A chaos campaign exceeded single-instance
                            // capacity. Model the operator's answer: a
                            // cold redeploy from the golden artifact —
                            // full-model rewrite, re-protect, re-anchor
                            // — priced at one recovery per checkable
                            // layer of extra downtime. The SLO suite
                            // judges the availability burn.
                            host.write_back(golden, &checkable);
                            pipeline
                                .reprotect_and_anchor(&host, &mut milr, &mut Volatile)
                                .map_err(into_milr_err)?;
                            c.fold_torn(0, &mut sim.core, clock);
                            pipeline.reset_budget();
                            c.stats.redeploys += 1;
                            cost *= checkable.len() as u64;
                        }
                        sim.timeline.schedule(clock + cost, Event::RecoveryDone);
                    }
                    outcome => unreachable!(
                        "volatile quarantine serving neither escalates nor gives up before \
                         the budget assert: {outcome:?}"
                    ),
                }
            }
        }
        for r in sim.core.take_resolved() {
            sim.work.resolve(r);
        }
        if sim.work.drained() && !sim.core.is_quarantined() && sim.core.certified_since_last_fault()
        {
            break;
        }
    }
    assert!(sim.work.drained(), "workload did not drain");
    if let Some(m) = &obs.metrics {
        // Substrate-plane export: total raw-bit mutation epochs
        // (write-backs, fault injections, scrub corrections).
        m.gauge("substrate_epoch_total")
            .set(host.store().epoch_total() as i64);
    }
    let outcomes = sim.work.into_outcomes();
    let report = sim.core.report(
        clock,
        cfg.seed,
        cfg.requests,
        outcome_digest(&outcomes),
        pipeline.into_report(),
    );
    Ok(SimResult {
        report,
        outcomes,
        chaos: chaos.map(|c| c.stats),
    })
}

/// The volatile simulation can only fail inside MILR itself — its
/// durability policy never touches storage — so the engine's error
/// narrows back to the crate's `milr_core::Result` contract.
fn into_milr_err(e: milr_integrity::IntegrityError) -> milr_core::MilrError {
    match e {
        milr_integrity::IntegrityError::Milr(e) => e,
        other => unreachable!("volatile pipeline cannot fail on durability: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{RejectReason, RequestStatus};
    use crate::testutil::serving_model;
    use milr_fault::{SkewSpec, StuckAtSpec};

    #[test]
    fn fault_free_run_completes_everything() {
        let model = serving_model(3);
        let cfg = SimConfig {
            requests: 60,
            faults: 0,
            ..SimConfig::default()
        };
        let result = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(result.report.completed, 60);
        assert_eq!(result.report.rejected, 0);
        assert_eq!(result.report.quarantines, 0);
        assert_eq!(result.report.availability, 1.0);
        // Every output equals the golden model's forward pass, bitwise.
        for o in &result.outcomes {
            let RequestStatus::Completed(out) = &o.status else {
                panic!("unexpected rejection")
            };
            let golden_out = &model.forward_batch(std::slice::from_ref(&o.input)).unwrap()[0];
            assert_eq!(
                out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                golden_out
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn chaos_campaign_is_deterministic_and_drains() {
        use milr_fault::{BurstPattern, BurstSpec, TornWriteSpec};
        let model = serving_model(6);
        let chaos = ChaosSpec {
            bursts: Some(BurstSpec {
                pattern: BurstPattern::Row,
                bursts: 2,
                flip_prob_milli: 300,
            }),
            stuck_at: Some(StuckAtSpec {
                bits: 8,
                from_milli: 100,
                until_milli: 700,
            }),
            torn_write: Some(TornWriteSpec {
                stage: "Heal".to_string(),
                fires: 1,
                flips: 8,
            }),
            byzantine: None,
            skew: Some(SkewSpec {
                arrival_milli: 800,
                scrub_milli: 1200,
            }),
        };
        let cfg = SimConfig {
            requests: 80,
            faults: 1,
            kind: SubstrateKind::Secded,
            chaos: Some(chaos),
            ..SimConfig::default()
        };
        let a = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let b = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(a.report.digest, b.report.digest, "seeded chaos diverged");
        let stats = a.chaos.expect("campaign stats");
        assert_eq!(stats, b.chaos.unwrap());
        assert_eq!(stats.bursts_fired, 2);
        assert!(stats.burst_bits > 0, "bursts flipped nothing");
        assert!(stats.stuck_asserts > 0, "stuck cells never re-asserted");
        assert_eq!(
            a.report.completed + a.report.rejected,
            cfg.requests,
            "workload did not drain under chaos"
        );
    }

    #[test]
    fn quiet_chaos_spec_is_byte_identical_to_none() {
        let model = serving_model(3);
        let base = SimConfig {
            requests: 60,
            faults: 1,
            ..SimConfig::default()
        };
        let quiet = SimConfig {
            chaos: Some(ChaosSpec::default()),
            ..base.clone()
        };
        let a = simulate(&model, MilrConfig::default(), &base).unwrap();
        let b = simulate(&model, MilrConfig::default(), &quiet).unwrap();
        assert_eq!(a.report.digest, b.report.digest);
        assert!(b.chaos.is_none(), "quiet spec must not report stats");
    }

    #[test]
    fn queue_overflow_rejects_at_admission() {
        let model = serving_model(5);
        let cfg = SimConfig {
            requests: 80,
            faults: 0,
            workers: 1,
            batch_max: 1,
            queue_capacity: 2,
            mean_arrival_ns: 10_000, // far faster than service
            ..SimConfig::default()
        };
        let result = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let queue_full = result
            .outcomes
            .iter()
            .filter(|o| matches!(o.status, RequestStatus::Rejected(RejectReason::QueueFull)))
            .count();
        assert!(queue_full > 0, "tiny queue must overflow");
        assert_eq!(
            result.report.completed + result.report.rejected,
            result.report.submitted
        );
    }
}

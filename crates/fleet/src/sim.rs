//! Deterministic multi-replica fault-campaign simulation.
//!
//! One single-threaded discrete-event loop drives N full replicas —
//! each a substrate-backed host paging against its own on-disk `.milr`
//! store, each serving through its own [`ServeCore`] — behind one
//! shared fleet queue and the fleet [`Router`], on a virtual clock. The
//! cores own the serving policy (certification, quarantine, resume,
//! accounting); this driver adds what only a fleet has: routing, the
//! client-facing fleet view, and peer repair. Every source of
//! nondeterminism is seeded (the shared [`Workload`], the per-replica
//! fault campaign, the [`ChaosOverlay`]) or fixed ([`VirtualCosts`],
//! the peer-fetch cost), so a run is a pure function of
//! `(model, MilrConfig, FleetConfig)`: two runs with the same seed
//! produce byte-identical [`FleetReport`]s, outcome for outcome.
//!
//! The fleet dispatches immediately: the router hands queued work to a
//! serving replica with a free worker slot the moment one exists, and
//! that slot takes up to `batch_max` requests at once.
//!
//! ## The failure ladder
//!
//! * A **recoverable** fault (whole-weight corruption of a fully
//!   recoverable conv layer) rides the `milr-serve` path: flagged
//!   scrub → quarantine → failover → exact MILR heal → durable
//!   re-anchor → rejoin.
//! * A **beyond-capacity** fault (`heavy_faults`: a whole
//!   partial-recoverability conv layer corrupted at once) makes MILR's
//!   recovery come back min-norm — on a single instance that is the
//!   paper's accept-an-approximation cliff. Here the replica instead
//!   enters `Repairing`, fetches the affected layers' certified pages
//!   from a healthy peer, imports them bit-for-bit, re-verifies,
//!   re-protects, re-anchors, and rejoins serving the **exact** golden
//!   weights.
//!
//! Throughout both, a quarantined replica's voided work goes back onto
//! the fleet queue where healthy peers absorb it: no request is lost
//! during failover.

use crate::repair::{apply_repair, fetch_certified, PageImage};
use crate::replica::{Replica, ReplicaState};
use crate::report::{FleetReport, ReplicaReport};
use crate::router::Router;
use crate::FleetError;
use milr_core::{Milr, MilrConfig, SolvingPlan};
use milr_fault::{ChaosSpec, FaultRng};
use milr_integrity::{PipelineReport, RoundOutcome};
use milr_nn::Sequential;
use milr_obs::{Counter, EventKind, Observer, SloEngine, SloSpec, FLEET_SRC};
use milr_serve::workload::{campaign_time, conv_layers, ChaosOverlay, EventQueue, Workload};
use milr_serve::{
    outcome_digest, ChaosStats, CoreConfig, OutcomeDigest, RejectReason, RequestOutcome,
    RequestQueue, RequestStatus, Resolution, ServeCore, ServeCounts, ServeObs, ServeReport,
    ServeTally, VirtualCosts,
};
use milr_store::{Store, StoreOptions};
use milr_substrate::SubstrateKind;
use milr_tensor::Tensor;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual cost of fetching and certifying one page from a peer.
const PEER_PAGE_COST_NS: u64 = 2_000_000;
/// Weights per on-disk page of every replica's store.
const PAGE_WEIGHTS: usize = 64;
/// Page-cache budget of each replica's file substrates.
const CACHE_PAGES: usize = 16;

/// Configuration of one simulated fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Master seed for arrivals, inputs, and the fault campaign.
    pub seed: u64,
    /// Replicas in the fleet.
    pub replicas: usize,
    /// Substrate kind encoding every replica's weight pages.
    pub kind: SubstrateKind,
    /// Requests in the workload.
    pub requests: usize,
    /// Mean inter-arrival gap, nanoseconds (exponential arrivals).
    pub mean_arrival_ns: u64,
    /// Worker pool size per replica.
    pub workers_per_replica: usize,
    /// Fleet-level bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// Per-replica scrubber cadence, nanoseconds between ticks.
    pub scrub_interval_ns: u64,
    /// Checkable layers examined per scrub tick.
    pub layers_per_tick: usize,
    /// Recoverable whole-weight faults, spread over the replicas.
    pub faults: usize,
    /// Beyond-MILR-capacity faults: each corrupts **every** weight of
    /// one partial-recoverability conv layer of one replica, forcing
    /// the peer-repair path.
    pub heavy_faults: usize,
    /// Virtual operation costs (shared with the single-instance sim).
    pub costs: VirtualCosts,
    /// Directory for the replica containers. `None` uses a private
    /// temp directory that is removed when the run finishes (the
    /// returned store paths then point at removed files); give a
    /// directory to inspect the containers afterwards.
    pub dir: Option<PathBuf>,
    /// Optional chaos campaign layered over the fault campaign:
    /// correlated bursts, stuck-at cells, torn writes at stage seams,
    /// byzantine donors during peer repair, and schedule skew. `None`
    /// — or a quiet [`ChaosSpec::default`] — is byte-identical to the
    /// legacy run.
    pub chaos: Option<ChaosSpec>,
    /// SLO suite override for the fleet-view engine (chaos campaigns
    /// declare their own objectives). `None` keeps
    /// [`SloEngine::fleet_defaults`]; per-replica engines always use
    /// [`SloEngine::serving_defaults`].
    pub slo_specs: Option<Vec<SloSpec>>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 0xF1EE7,
            replicas: 3,
            kind: SubstrateKind::Secded,
            requests: 150,
            mean_arrival_ns: 400_000,
            workers_per_replica: 2,
            queue_capacity: 512,
            batch_max: 8,
            scrub_interval_ns: 4_000_000,
            layers_per_tick: 2,
            faults: 2,
            heavy_faults: 0,
            costs: VirtualCosts::default(),
            dir: None,
            chaos: None,
            slo_specs: None,
        }
    }
}

/// Everything a simulated fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetSimResult {
    /// Aggregated counters, three ways (fleet / capacity / per-replica).
    pub report: FleetReport,
    /// Every request's terminal state, by submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// The replica container paths, by replica index (still on disk
    /// only when [`FleetConfig::dir`] was given).
    pub store_paths: Vec<PathBuf>,
    /// Chaos-injection tallies summed over the fleet; `None` when the
    /// run had no active [`FleetConfig::chaos`] spec. Byzantine
    /// donations live in the report's `rejected_donations` counters.
    pub chaos: Option<ChaosStats>,
}

#[derive(Debug)]
enum Event {
    Arrival(usize),
    WorkerDone {
        replica: usize,
        worker: usize,
    },
    ScrubTick {
        replica: usize,
    },
    /// A whole-weight fault, or with no `weight` a heavy fault that
    /// corrupts the whole layer.
    Fault {
        replica: usize,
        layer: usize,
        weight: Option<usize>,
    },
    RecoveryDone {
        replica: usize,
    },
    RepairDone {
        replica: usize,
    },
    ChaosBurst {
        replica: usize,
    },
}

/// One fleet member: the replica, the core serving from it, and its
/// peer-repair state.
struct Member {
    replica: Replica,
    core: ServeCore<()>,
    /// Outputs of each worker's batch, computed at dispatch and handed
    /// to the core at completion.
    outputs: Vec<Option<Vec<Tensor>>>,
    repair_attempts: u32,
    /// Irrecoverable layers awaiting peer repair.
    pending_repair: Vec<usize>,
    /// Donors whose donation to *this* replica was corrupted by the
    /// byzantine campaign and rejected — skipped on every later donor
    /// pick, so a retry reaches an honest peer instead of refetching
    /// the same poisoned pages forever.
    distrusted: BTreeSet<usize>,
    repairs: Repairs,
}

/// Peer-repair tallies of one replica, for its [`ReplicaReport`].
#[derive(Debug, Default)]
struct Repairs {
    peer_repairs: usize,
    repair_pages: usize,
    repair_bytes: usize,
    repairs_donated: usize,
    rejected_donations: usize,
}

/// The run state the event loop mutates.
struct Fleet<'a> {
    cfg: &'a FleetConfig,
    timeline: EventQueue<Event>,
    work: Workload,
    /// Which replica resolved each request (`None`: the full fleet
    /// queue refused it at admission).
    resolved_by: Vec<Option<usize>>,
    queue: RequestQueue<()>,
    router: Router,
    members: Vec<Member>,
    /// The client-facing view: down only while no replica serves.
    view: ServeTally,
    chaos: Option<ChaosOverlay>,
    /// Nanoseconds between a replica's scrub ticks, chaos skew applied.
    scrub_interval_ns: u64,
    failovers: Option<Arc<Counter>>,
    repairs: Option<Arc<Counter>>,
}

impl Fleet<'_> {
    /// Hands replica `r`'s resolutions to the workload and the fleet
    /// view.
    fn settle(&mut self, r: usize, now: u64) {
        for res in self.members[r].core.take_resolved() {
            self.view.resolved(&res.status, res.request.arrival_ns, now);
            let id = self.work.resolve(res);
            self.resolved_by[id] = Some(r);
        }
    }

    /// Arms replica `r`'s next scrub tick, one interval after `now`.
    /// Ticks are armed at start, after a clean tick, and on rejoin, so
    /// each replica has at most one pending and none outlives a
    /// quarantine.
    fn arm_scrub(&mut self, r: usize, now: u64) {
        self.timeline.schedule(
            now + self.scrub_interval_ns,
            Event::ScrubTick { replica: r },
        );
    }

    /// Routes queued work round-robin over the replicas that are
    /// serving with a free worker — the failover hand-off: re-queued
    /// work from a quarantined replica goes to its peers. Each batch
    /// runs its forward pass now and completes after its virtual cost.
    fn dispatch(&mut self, now: u64) {
        while !self.queue.is_empty() {
            let eligible: Vec<bool> = self.members.iter().map(|m| m.core.can_dispatch()).collect();
            let Some(r) = self.router.route(&eligible) else {
                break;
            };
            let m = &mut self.members[r];
            let worker = m
                .core
                .dispatch(&mut self.queue, now)
                .expect("the router picks a replica that can dispatch");
            let batch = m.core.batch(worker).expect("dispatched batch");
            let n = batch.len();
            // Fused decode-forward: each shard decodes through the
            // host's epoch-tagged cache, so the expensive whole-model
            // decode happens only after a simulator-visible data change
            // bumps a shard's epoch.
            let outputs = m
                .replica
                .host()
                .forward_batch(&self.work.inputs(batch))
                .expect("batch inputs validated at submission");
            m.outputs[worker] = Some(outputs);
            self.timeline.schedule(
                now + self.cfg.costs.batch_ns(n),
                Event::WorkerDone { replica: r, worker },
            );
        }
    }

    fn any_serving(&self) -> bool {
        self.members.iter().any(|m| !m.core.is_quarantined())
    }

    /// Re-evaluates the fleet view after a replica changed state.
    fn gate(&mut self, now: u64) {
        let serving = self.any_serving();
        self.view.set_serving(now, serving);
    }

    /// Replica `r` passed verification: back into rotation.
    fn rejoin(&mut self, r: usize, now: u64) {
        let m = &mut self.members[r];
        // Chaos campaigns quarantine the same replica repeatedly
        // (stuck cells, repeated bursts); each episode deserves a fresh
        // heal-round budget. Legacy runs keep the cumulative budget.
        if self.chaos.is_some() {
            m.replica.reset_heal_budget();
        }
        m.replica.set_state(ReplicaState::Serving);
        m.core.resume(now);
        m.pending_repair.clear();
        self.gate(now);
        self.arm_scrub(r, now);
        self.dispatch(now);
    }

    /// Folds torn writes that fired inside replica `r`'s last engine
    /// call into its core.
    fn fold_torn(&mut self, r: usize, now: u64) {
        if let Some(c) = &mut self.chaos {
            c.fold_torn(r, &mut self.members[r].core, now);
        }
    }
}

/// Distinguishes concurrently running simulations' temp directories.
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Removes the run's private temp directory on every exit path (the
/// replica containers are multi-megabyte; error returns must not
/// strand them). Declared before the replicas so their store handles
/// close first.
struct DirCleanup {
    dir: PathBuf,
    enabled: bool,
}

impl Drop for DirCleanup {
    fn drop(&mut self) {
        if self.enabled {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }
}

/// Flips one contiguous run of `flips` bits in a donated page image —
/// the byzantine donor's in-flight corruption. A run (rather than
/// scattered bits) guarantees some codeword takes a multi-bit error,
/// so ECC substrates cannot silently correct the corruption away
/// before the apply-side verification sees it.
fn corrupt_image(img: &mut PageImage, flips: usize, rng: &mut FaultRng) {
    let nbits = img.bytes.len() * 8;
    if nbits == 0 {
        return;
    }
    let flips = flips.clamp(1, nbits);
    let start = rng.below(nbits - flips + 1);
    for bit in start..start + flips {
        img.bytes[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Runs one deterministic fleet simulation.
///
/// # Errors
///
/// Propagates MILR protection/detection/recovery failures and replica
/// store I/O errors, and returns [`FleetError::NoHealthyPeer`] when a
/// repairing replica exhausts its donor retries — a campaign that takes
/// every replica's copy of a layer beyond repair at once, which
/// replication cannot fix.
///
/// # Panics
///
/// Panics on zero-sized pools/queues/batches/fleets, when the model
/// lacks layers eligible for the requested fault kinds, when MILR
/// recovery fails to converge within its retry budget, or if the event
/// budget is exhausted.
pub fn simulate(
    golden: &Sequential,
    milr_config: MilrConfig,
    cfg: &FleetConfig,
) -> Result<FleetSimResult, FleetError> {
    simulate_observed(golden, milr_config, cfg, &Observer::default())
}

/// [`simulate`] with an [`Observer`] attached: trace events are
/// stamped with the virtual clock (so a fixed seed reproduces the
/// stream byte-for-byte) and sourced by replica index
/// ([`milr_obs::FLEET_SRC`] is reserved for future router-level
/// events). The observer changes nothing about the run: reports and
/// digests are identical with or without it.
///
/// # Errors
///
/// As [`simulate`].
///
/// # Panics
///
/// As [`simulate`].
pub fn simulate_observed(
    golden: &Sequential,
    milr_config: MilrConfig,
    cfg: &FleetConfig,
    obs: &Observer,
) -> Result<FleetSimResult, FleetError> {
    assert!(cfg.replicas > 0, "need at least one replica");
    assert!(cfg.requests > 0, "need a workload");

    // ---------------------------------------------------------- fleet
    let milr = Milr::protect(golden, milr_config)?;
    let checkable = milr.checkable_layers();
    let (dir, private_dir) = match &cfg.dir {
        Some(dir) => (dir.clone(), false),
        None => {
            let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("milr-fleet-sim-{}-{seq}", std::process::id()));
            (dir, true)
        }
    };
    std::fs::create_dir_all(&dir).map_err(milr_store::StoreError::Io)?;
    let _cleanup = DirCleanup {
        dir: dir.clone(),
        enabled: private_dir,
    };
    let mut store_paths = Vec::with_capacity(cfg.replicas);
    let mut replicas = Vec::with_capacity(cfg.replicas);
    for r in 0..cfg.replicas {
        let path = dir.join(format!("replica-{r}.milr"));
        Store::create_protected(
            &path,
            golden,
            &milr,
            StoreOptions {
                kind: cfg.kind,
                page_weights: PAGE_WEIGHTS,
            },
        )?;
        // Cold → Serving through the full scrub-on-load admission path.
        let (mut replica, _) = Replica::cold_start(r, &path, CACHE_PAGES)?;
        if let Some(trace) = &obs.trace {
            replica.attach_trace(trace.clone());
        }
        if let Some(spans) = &obs.spans {
            replica.attach_spans(spans.clone());
        }
        store_paths.push(path);
        replicas.push(replica);
    }

    // ------------------------------------------- workload and chaos
    let spec = ChaosOverlay::active(cfg.chaos.as_ref());
    let work = Workload::generate(
        cfg.seed,
        cfg.requests,
        cfg.mean_arrival_ns,
        golden.input_shape(),
        spec.and_then(|c| c.skew.as_ref()),
    );
    let horizon = work.horizon();
    let stores: Vec<_> = replicas.iter().map(|r| r.host().store().clone()).collect();
    let chaos = ChaosOverlay::plan(spec, cfg.seed, horizon, &stores, true);
    // Torn writes: every replica gets its own seeded hook with its own
    // fire budget.
    for (r, replica) in replicas.iter_mut().enumerate() {
        if let Some(hook) = chaos
            .as_ref()
            .and_then(|c| c.torn_hook(r, stores[r].clone(), cfg.seed))
        {
            replica.attach_stage_hook(hook);
        }
    }
    let byz = spec.and_then(|c| c.byzantine.clone());
    let mut byz_rng = FaultRng::seed(cfg.seed ^ 0xB12A);

    // ------------------------------------------------ serving cores
    // Per-replica engines judge each replica's own serving view; the
    // fleet view below records latency once per request.
    let m = obs.metrics.as_deref();
    let scrub_interval_ns = ChaosOverlay::scrub_interval(spec, cfg.scrub_interval_ns);
    let core_cfg = CoreConfig {
        workers: cfg.workers_per_replica,
        batch_max: cfg.batch_max,
        layers_per_tick: cfg.layers_per_tick,
    };
    let members: Vec<Member> = replicas
        .into_iter()
        .enumerate()
        .map(|(r, replica)| Member {
            core: ServeCore::new(
                core_cfg.clone(),
                checkable.clone(),
                SloEngine::serving_defaults(),
                ServeObs {
                    latency: None,
                    ..ServeObs::new(obs.trace.clone(), r as u32, m)
                },
            ),
            outputs: vec![None; cfg.workers_per_replica],
            repairs: Repairs::default(),
            replica,
            repair_attempts: 0,
            pending_repair: Vec::new(),
            distrusted: BTreeSet::new(),
        })
        .collect();
    let view_obs = ServeObs::new(obs.trace.clone(), FLEET_SRC, m);
    let mut fleet = Fleet {
        cfg,
        timeline: EventQueue::new(),
        resolved_by: vec![None; cfg.requests],
        work,
        queue: RequestQueue::new(cfg.queue_capacity, view_obs.queue_depth.clone()),
        router: Router::new(cfg.replicas),
        members,
        view: ServeTally::new(
            match &cfg.slo_specs {
                Some(specs) => SloEngine::new(specs.clone()),
                None => SloEngine::fleet_defaults(),
            },
            view_obs,
        ),
        chaos,
        scrub_interval_ns,
        failovers: m.map(|m| m.counter("fleet_failovers_total")),
        repairs: m.map(|m| m.counter("fleet_peer_repairs_total")),
    };

    // -------------------------------------------------- fault campaign
    let full_layers = conv_layers(golden, &milr, SolvingPlan::ConvFull);
    let partial_layers = conv_layers(golden, &milr, SolvingPlan::ConvPartial);
    assert!(
        cfg.faults == 0 || !full_layers.is_empty(),
        "no fully recoverable conv layer to fault"
    );
    assert!(
        cfg.heavy_faults == 0 || !partial_layers.is_empty(),
        "no partial-recoverability conv layer for heavy faults"
    );
    let mut fault_rng = FaultRng::seed(cfg.seed ^ 0xFA117);
    for i in 0..cfg.requests {
        fleet
            .timeline
            .schedule(fleet.work.arrival(i), Event::Arrival(i));
    }
    for _ in 0..cfg.faults {
        let time = campaign_time(&mut fault_rng, horizon);
        let replica = fault_rng.below(cfg.replicas);
        let layer = full_layers[fault_rng.below(full_layers.len())];
        let host = fleet.members[replica].replica.host();
        let weight = fault_rng.below(host.layer_weight_count(layer));
        let weight = Some(weight);
        let fault = Event::Fault {
            replica,
            layer,
            weight,
        };
        fleet.timeline.schedule(time, fault);
    }
    for _ in 0..cfg.heavy_faults {
        let time = campaign_time(&mut fault_rng, horizon);
        let replica = fault_rng.below(cfg.replicas);
        let layer = partial_layers[fault_rng.below(partial_layers.len())];
        let fault = Event::Fault {
            replica,
            layer,
            weight: None,
        };
        fleet.timeline.schedule(time, fault);
    }
    for r in 0..cfg.replicas {
        fleet.arm_scrub(r, 0);
    }
    let bursts: Vec<(u64, usize)> = fleet
        .chaos
        .iter()
        .flat_map(|c| c.bursts().to_vec())
        .collect();
    for (time, replica) in bursts {
        fleet.timeline.schedule(time, Event::ChaosBurst { replica });
    }

    // ---------------------------------------------------- event loop
    let mut clock = 0u64;
    let mut events = 0u64;
    while let Some((time, event)) = fleet.timeline.pop() {
        events += 1;
        assert!(events < 50_000_000, "fleet event budget exhausted");
        debug_assert!(time >= clock, "virtual time must be monotone");
        clock = time;
        match event {
            Event::Arrival(i) => {
                // Arrivals queue even while no replica serves; only a
                // full fleet queue refuses one.
                match fleet.queue.admit(fleet.work.request(i)) {
                    Ok(()) => fleet.dispatch(clock),
                    Err(request) => {
                        let status = RequestStatus::Rejected(RejectReason::QueueFull);
                        fleet.view.resolved(&status, request.arrival_ns, clock);
                        fleet.work.resolve(Resolution {
                            request,
                            status,
                            at_ns: clock,
                        });
                    }
                }
            }
            Event::WorkerDone { replica: r, worker } => {
                let m = &mut fleet.members[r];
                let outputs = m.outputs[worker].take().expect("worker was busy");
                m.core.worker_done(&mut fleet.queue, worker, outputs, clock);
                fleet.settle(r, clock);
                fleet.dispatch(clock);
            }
            Event::ScrubTick { replica: r } => {
                let m = &mut fleet.members[r];
                debug_assert!(!m.core.is_quarantined(), "tick outlived a quarantine");
                if let Some(c) = &mut fleet.chaos {
                    c.assert_stuck(r, &stores[r], &mut m.core, clock);
                }
                let chunk = m.core.begin_scrub(clock);
                m.replica.set_now(clock);
                let tick = m.replica.tick(&chunk)?;
                fleet.fold_torn(r, clock);
                let m = &mut fleet.members[r];
                let flagged = !tick.detection.is_clean();
                let quarantined = m.core.finish_scrub(&mut fleet.queue, flagged, clock);
                fleet.settle(r, clock);
                if quarantined {
                    // Quarantine: fail traffic over to the peers and
                    // schedule recovery.
                    fleet.members[r]
                        .replica
                        .set_state(ReplicaState::Quarantined);
                    fleet.gate(clock);
                    if fleet.any_serving() {
                        if let Some(c) = &fleet.failovers {
                            c.inc();
                        }
                    }
                    fleet.timeline.schedule(
                        clock + cfg.costs.quarantine_ns(checkable.len()),
                        Event::RecoveryDone { replica: r },
                    );
                    fleet.dispatch(clock);
                } else {
                    fleet.arm_scrub(r, clock);
                }
            }
            Event::Fault {
                replica: r,
                layer,
                weight,
            } => {
                let m = &mut fleet.members[r];
                let host = m.replica.host();
                match weight {
                    Some(w) => host.corrupt_weight(layer, w),
                    None => host.corrupt_layer(layer),
                }
                // A whole-layer corruption has no single weight index:
                // `u64::MAX` marks the beyond-capacity campaign.
                let weight = weight.map_or(u64::MAX, |w| w as u64);
                m.core.fault_landed(clock, layer as u32, weight);
            }
            Event::RecoveryDone { replica: r } => {
                let m = &mut fleet.members[r];
                debug_assert_eq!(m.replica.state(), ReplicaState::Quarantined);
                // One heal round of the replica's engine: exact heals
                // are written back and journal-flushed, min-norm /
                // failed layers escalate to peer repair, and a clean
                // verify re-protects + re-anchors durably.
                m.replica.set_now(clock);
                let round = m.replica.try_heal()?;
                fleet.fold_torn(r, clock);
                let m = &mut fleet.members[r];
                let (exact, approx) = m.core.observe_heals(clock, m.replica.pipeline_report());
                fleet.view.heals(clock, exact, approx);
                match round {
                    RoundOutcome::Clean { .. } => fleet.rejoin(r, clock),
                    RoundOutcome::Escalate { escalated, .. } => {
                        // Beyond MILR's recoverable set: fetch the
                        // layers from a healthy peer instead of serving
                        // the min-norm approximation.
                        m.replica.set_state(ReplicaState::Repairing);
                        m.repair_attempts = 0;
                        let pages: usize = escalated
                            .iter()
                            .map(|&l| m.replica.store().layer_page_count(l))
                            .sum();
                        m.pending_repair = escalated;
                        fleet.timeline.schedule(
                            clock + pages as u64 * PEER_PAGE_COST_NS + cfg.costs.recover_ns,
                            Event::RepairDone { replica: r },
                        );
                    }
                    RoundOutcome::Retry { flagged } => {
                        assert!(
                            !m.replica.heal_budget_exhausted(),
                            "replica {r} recovery failed to converge: {flagged:?}"
                        );
                        fleet.timeline.schedule(
                            clock + cfg.costs.recover_ns,
                            Event::RecoveryDone { replica: r },
                        );
                    }
                    outcome @ RoundOutcome::GaveUp { .. } => {
                        unreachable!("peer-repair policy never gives up: {outcome:?}")
                    }
                }
            }
            Event::RepairDone { replica: r } => {
                let m = &fleet.members[r];
                debug_assert_eq!(m.replica.state(), ReplicaState::Repairing);
                // Deterministic donor choice: the lowest-index serving
                // peer whose pages certify — skipping donors this
                // replica already caught shipping corrupted pages.
                let layers = m.pending_repair.clone();
                let fetched = fleet.members.iter().enumerate().find_map(|(p, peer)| {
                    let eligible =
                        p != r && peer.replica.state().is_serving() && !m.distrusted.contains(&p);
                    eligible
                        .then(|| fetch_certified(peer.replica.store(), &layers).ok())
                        .flatten()
                        .map(|images| (p, images))
                });
                let Some((donor, mut images)) = fetched else {
                    // No healthy donor right now (peers quarantined or
                    // their disks dirty): wait a scrub interval and
                    // retry. A campaign that takes every replica's copy
                    // of a layer beyond repair exhausts the budget —
                    // replication cannot help then, and the run reports
                    // it rather than serving an approximation.
                    let m = &mut fleet.members[r];
                    m.repair_attempts += 1;
                    if m.repair_attempts as usize >= m.replica.budget().max_donor_retries {
                        return Err(FleetError::NoHealthyPeer { replica: r, layers });
                    }
                    fleet
                        .timeline
                        .schedule(clock + scrub_interval_ns, Event::RepairDone { replica: r });
                    continue;
                };
                // Byzantine donors corrupt the pages in flight — after
                // their own store certified them, so the fetch-side
                // check cannot see it. The flips are one contiguous run
                // per page image: coded substrates (SECDED) silently
                // correct isolated single-bit flips, and a donation the
                // ECC can launder back to golden is not an attack the
                // apply-side check should be expected to flag.
                let byzantine_donation = byz.as_ref().is_some_and(|b| b.donors.contains(&donor));
                if let Some(b) = byz.as_ref().filter(|_| byzantine_donation) {
                    for img in images.iter_mut() {
                        corrupt_image(img, b.flips, &mut byz_rng);
                    }
                }
                // The fetch itself is repair traffic, whether or not
                // this episode's verification succeeds (a rejected
                // import still moved — and applied — the donor's
                // pages), so account it here.
                fleet.members[donor].repairs.repairs_donated += 1;
                let m = &mut fleet.members[r];
                m.repairs.repair_pages += images.len();
                m.repairs.repair_bytes += images.iter().map(|i| i.bytes.len()).sum::<usize>();
                if let Some(trace) = &obs.trace {
                    trace.emit(
                        clock,
                        r as u32,
                        EventKind::PeerRepair {
                            donor: donor as u32,
                        },
                    );
                }
                m.replica.set_now(clock);
                let applied = apply_repair(&mut m.replica, &images);
                fleet.fold_torn(r, clock);
                let m = &mut fleet.members[r];
                match applied {
                    Ok(_stats) => {
                        m.repairs.peer_repairs += 1;
                        if let Some(c) = &fleet.repairs {
                            c.inc();
                        }
                        // apply_repair already re-anchored durably.
                        fleet.rejoin(r, clock);
                    }
                    Err(FleetError::RepairRejected { .. }) => {
                        // The post-import verification caught bad pages:
                        // either a byzantine donation or new damage that
                        // landed mid-repair. Count the rejection, stop
                        // trusting a donor that was actually byzantine
                        // (re-fetching its poisoned pages can never
                        // converge), and go back through the
                        // heal-classify-repair ladder with a fresh
                        // round budget.
                        m.repairs.rejected_donations += 1;
                        if byzantine_donation {
                            m.distrusted.insert(donor);
                        }
                        m.replica.set_state(ReplicaState::Quarantined);
                        m.replica.reset_heal_budget();
                        fleet.timeline.schedule(
                            clock + cfg.costs.recover_ns,
                            Event::RecoveryDone { replica: r },
                        );
                    }
                    Err(other) => return Err(other),
                }
            }
            Event::ChaosBurst { replica: r } => {
                // A correlated burst over the victim replica's raw
                // image. Bursts land regardless of health state —
                // hammering a quarantined replica mid-heal is exactly
                // the nasty case.
                let c = fleet
                    .chaos
                    .as_mut()
                    .expect("burst event without a campaign");
                c.burst(&stores[r], &mut fleet.members[r].core, clock);
            }
        }
        if fleet.work.drained()
            && fleet
                .members
                .iter()
                .all(|m| !m.core.is_quarantined() && m.core.certified_since_last_fault())
        {
            break;
        }
    }
    assert!(fleet.work.drained(), "workload did not drain");

    // ---------------------------------------------------- reporting
    let Fleet {
        work,
        resolved_by,
        members,
        mut view,
        chaos,
        ..
    } = fleet;
    let outcomes = work.into_outcomes();
    let counts: ServeCounts = members.iter().map(|m| m.core.counts()).sum();
    let per_replica: Vec<ReplicaReport> = members
        .into_iter()
        .enumerate()
        .map(|(r, mut m)| {
            let mut mine = OutcomeDigest::default();
            for (o, _) in outcomes
                .iter()
                .zip(&resolved_by)
                .filter(|(_, by)| **by == Some(r))
            {
                mine.push(o.id, &o.status);
            }
            // A replica's submissions are the requests dispatched to it,
            // re-executions included.
            let submitted = m.core.counts().batched_requests;
            let pipeline = m.replica.pipeline_report().clone();
            let report = m
                .core
                .report(clock, cfg.seed, submitted, mine.finish(), pipeline);
            ReplicaReport {
                replica: r,
                peer_repairs: m.repairs.peer_repairs,
                repair_pages: m.repairs.repair_pages,
                repair_bytes: m.repairs.repair_bytes,
                repairs_donated: m.repairs.repairs_donated,
                rejected_donations: m.repairs.rejected_donations,
                report,
            }
        })
        .collect();
    let mut pipeline = PipelineReport::default();
    for rep in &per_replica {
        pipeline.merge(&rep.report.pipeline);
    }
    // The fleet view resolves every request itself; the work counters
    // are the replicas' sums.
    view.counts = ServeCounts {
        completed: view.counts.completed,
        rejected: view.counts.rejected,
        ..counts
    };
    let fleet_report = view.report(
        clock,
        cfg.seed,
        cfg.requests,
        outcome_digest(&outcomes),
        pipeline,
    );
    let capacity = ServeReport::aggregate(
        &per_replica
            .iter()
            .map(|r| r.report.clone())
            .collect::<Vec<_>>(),
    );
    Ok(FleetSimResult {
        report: FleetReport {
            replicas: cfg.replicas,
            fleet: fleet_report,
            capacity,
            per_replica,
        },
        outcomes,
        store_paths,
        chaos: chaos.map(|c| c.stats),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    // Conv-heavy fleet model: conv 0 is fully recoverable, conv 4 is
    // partial-recoverability (F²Z = 54 > G² = 4) — the heavy-fault
    // target.
    use milr_models::serving_probe as fleet_model;

    #[test]
    fn fault_free_fleet_completes_everything() {
        let model = fleet_model(3);
        let cfg = FleetConfig {
            requests: 60,
            faults: 0,
            kind: SubstrateKind::Plain,
            ..FleetConfig::default()
        };
        let result = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let r = &result.report;
        assert_eq!(r.fleet.completed, 60);
        assert_eq!(r.fleet.rejected, 0);
        assert_eq!(r.fleet.quarantines, 0);
        assert_eq!(r.fleet.availability, 1.0);
        assert_eq!(r.peer_repairs(), 0);
        // All three replicas took traffic (round-robin routing).
        for rep in &r.per_replica {
            assert!(rep.report.submitted > 0, "replica {} idle", rep.replica);
        }
        assert_eq!(
            r.per_replica
                .iter()
                .map(|p| p.report.completed)
                .sum::<usize>(),
            60
        );
    }

    #[test]
    fn recoverable_faults_fail_over_and_heal_in_place() {
        let model = fleet_model(4);
        let cfg = FleetConfig {
            requests: 120,
            faults: 2,
            kind: SubstrateKind::Plain,
            ..FleetConfig::default()
        };
        let result = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let r = &result.report;
        assert_eq!(r.fleet.faults_injected, 2);
        assert!(r.fleet.quarantines >= 1, "no quarantine triggered");
        assert!(r.fleet.layers_recovered >= 1, "nothing recovered");
        assert_eq!(r.peer_repairs(), 0, "recoverable faults need no peer");
        // Drain: every request completes despite the quarantines.
        assert_eq!(r.fleet.completed, 120);
        // The fleet stayed up: some replica was always serving.
        assert_eq!(r.fleet.downtime_ns, 0);
        // The quarantined replicas individually lost capacity.
        assert!(r.capacity.availability < 1.0);
    }

    #[test]
    fn heavy_fault_forces_peer_repair() {
        let model = fleet_model(5);
        let cfg = FleetConfig {
            requests: 100,
            faults: 0,
            heavy_faults: 1,
            kind: SubstrateKind::Plain,
            ..FleetConfig::default()
        };
        let result = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let r = &result.report;
        assert_eq!(r.peer_repairs(), 1, "heavy fault must be peer-repaired");
        assert!(r.repair_pages() > 0 && r.repair_bytes() > 0);
        assert_eq!(
            r.per_replica
                .iter()
                .map(|p| p.repairs_donated)
                .sum::<usize>(),
            1
        );
        assert_eq!(r.fleet.completed, 100);
        // Certified outputs are bit-exact golden even though one
        // replica's layer was beyond MILR's recoverable set.
        for o in &result.outcomes {
            let RequestStatus::Completed(out) = &o.status else {
                panic!("request {} not completed under drain", o.id)
            };
            let expect = &model.forward_batch(std::slice::from_ref(&o.input)).unwrap()[0];
            let ob: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, eb, "request {}", o.id);
        }
    }

    #[test]
    fn byzantine_donor_is_caught_and_outputs_stay_golden() {
        use milr_fault::ByzantineSpec;
        // Four replicas, donors 0 and 1 byzantine: whichever replica
        // the heavy fault lands on, its first donor pick is byzantine
        // (lowest-index serving peer) and an honest peer still exists
        // after both cheats are distrusted.
        let model = fleet_model(5);
        let cfg = FleetConfig {
            replicas: 4,
            requests: 100,
            faults: 0,
            heavy_faults: 1,
            kind: SubstrateKind::Plain,
            chaos: Some(ChaosSpec {
                byzantine: Some(ByzantineSpec {
                    donors: vec![0, 1],
                    flips: 24,
                }),
                ..ChaosSpec::default()
            }),
            ..FleetConfig::default()
        };
        let result = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let r = &result.report;
        assert!(
            r.rejected_donations() >= 1,
            "certified-donor check never caught the byzantine donation"
        );
        // Pages moved even though the byzantine import was rejected;
        // the residue the poisoned pages left behind is then healed in
        // place or repaired from an honest peer — either way the fleet
        // converges without trusting the cheat again.
        assert!(r.repair_pages() > 0 && r.repair_bytes() > 0);
        assert!(
            r.per_replica
                .iter()
                .map(|p| p.repairs_donated)
                .sum::<usize>()
                >= 1
        );
        assert_eq!(r.fleet.completed, 100);
        // Every certified output is bit-equal to the fault-free model
        // even though corrupted pages were shipped mid-repair.
        for o in &result.outcomes {
            let RequestStatus::Completed(out) = &o.status else {
                panic!("request {} not completed under drain", o.id)
            };
            let expect = &model.forward_batch(std::slice::from_ref(&o.input)).unwrap()[0];
            let ob: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, eb, "request {}", o.id);
        }
    }

    #[test]
    fn fleet_chaos_campaign_is_deterministic_and_drains() {
        use milr_fault::{BurstPattern, BurstSpec, SkewSpec, StuckAtSpec, TornWriteSpec};
        let model = fleet_model(7);
        let chaos = ChaosSpec {
            bursts: Some(BurstSpec {
                pattern: BurstPattern::Row,
                bursts: 2,
                flip_prob_milli: 300,
            }),
            stuck_at: Some(StuckAtSpec {
                bits: 6,
                from_milli: 100,
                until_milli: 600,
            }),
            torn_write: Some(TornWriteSpec {
                stage: "Heal".to_string(),
                fires: 1,
                flips: 6,
            }),
            byzantine: None,
            skew: Some(SkewSpec {
                arrival_milli: 900,
                scrub_milli: 1100,
            }),
        };
        let cfg = FleetConfig {
            requests: 80,
            faults: 1,
            kind: SubstrateKind::Plain,
            chaos: Some(chaos),
            ..FleetConfig::default()
        };
        let a = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        let b = simulate(&model, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(a.report.fleet.digest, b.report.fleet.digest);
        assert_eq!(a.report.to_json(), b.report.to_json(), "report not stable");
        assert_eq!(a.chaos, b.chaos);
        let stats = a.chaos.expect("chaos stats present");
        assert_eq!(stats.bursts_fired, 2);
        assert!(stats.burst_bits > 0, "bursts flipped nothing");
        assert_eq!(
            a.report.fleet.completed + a.report.fleet.rejected,
            80,
            "workload did not drain"
        );
    }

    #[test]
    fn quiet_fleet_chaos_matches_none() {
        let model = fleet_model(8);
        let base = FleetConfig {
            requests: 40,
            faults: 1,
            kind: SubstrateKind::Plain,
            ..FleetConfig::default()
        };
        let quiet = FleetConfig {
            chaos: Some(ChaosSpec::default()),
            ..base.clone()
        };
        let a = simulate(&model, MilrConfig::default(), &base).unwrap();
        let b = simulate(&model, MilrConfig::default(), &quiet).unwrap();
        assert_eq!(a.report.to_json(), b.report.to_json());
        assert!(b.chaos.is_none(), "quiet spec must report no chaos");
    }
}

//! The live inference server: the [`ServeCore`] under a mutex, driven
//! by one scrubber thread and the wall clock.
//!
//! A [`Server`] owns a [`ModelHost`] (weights in substrate shards), the
//! integrity engine, and one core with its admission queue. Every
//! serving decision — admission, batching, the epoch check,
//! certification, quarantine, resume, accounting — is the core's, made
//! under the `inner` lock with the wall clock passed in. The scrubber
//! wakes once per `scrub_interval` and does the work the core hands
//! out, outside that lock, in two steps:
//!
//! * it *drains*: it forwards every request queued at wake-up, at most
//!   `batch_max` per batch. Each batch is one turn of a pull loop:
//!   dispatch under `inner`, the forward pass unlocked, the outputs back
//!   under `inner`. The scrubber runs the loop itself; when more than
//!   one batch is owed, scoped helper threads run it alongside, so up
//!   to `workers` forward passes are in flight;
//! * it *certifies*: it runs the engine's scrub + detect tick unlocked
//!   over every checkable layer (by default), so a clean verdict
//!   releases the whole drained set at once. On a quarantine it runs
//!   the heal episode unlocked before resuming.
//!
//! An output is released only after a clean tick that started after it
//! was computed, so a request gains nothing from running the moment it
//! arrives. `submit` therefore wakes no thread, and each batch carries
//! about one interval's arrivals.
//!
//! No thread holds `inner` together with `engine`.

use crate::report::{OutcomeDigest, ServeReport};
use crate::request::{RejectReason, RequestStatus};
use crate::serve_core::{CoreConfig, Pending, RequestQueue, ServeCore, ServeObs};
use milr_core::{Milr, MilrConfig};
use milr_integrity::{
    Budget, DurabilityPolicy, EscalationPolicy, IntegrityPipeline, Journaled, ModelHost,
    RoundOutcome, Volatile,
};
use milr_nn::Sequential;
use milr_obs::json::{array, JsonObject};
use milr_obs::{MetricsRegistry, MetricsSnapshot, SloEngine, SpanHandle, SpanTree, TraceHandle};
use milr_store::StoreError;
use milr_substrate::{SubstrateKind, WeightSubstrate};
use milr_tensor::Tensor;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Live-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Forward passes in flight at once while the scrubber drains.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// Scrubber cadence: the wait from the end of one tick to the next
    /// wake-up, which drains the queue and then certifies it.
    pub scrub_interval: Duration,
    /// Checkable layers examined per scrub tick. The default,
    /// `usize::MAX`, sweeps the whole model every tick, so each clean
    /// tick certifies everything drained before it.
    pub layers_per_tick: usize,
    /// Substrate kind backing each layer shard.
    pub substrate: SubstrateKind,
    /// Optional structured trace sink. Live-server events are stamped
    /// with wall time since server start (the sim stamps virtual time
    /// instead — same event schema, different clock domain).
    pub trace: Option<TraceHandle>,
    /// Optional span sink: batch trees (batch → decode →
    /// forward → layer×N), engine stage trees from the scrubber, and —
    /// for store-backed servers — journal commit and re-anchor trees
    /// all land here, stamped with wall time since server start.
    pub spans: Option<SpanHandle>,
    /// Optional live-introspection bind address (e.g. `"127.0.0.1:0"`
    /// for an ephemeral port). When set, a zero-dependency HTTP
    /// listener ([`crate::http`]) answers `GET /metrics`, `/health`,
    /// `/slo`, and `/spans` for the server's lifetime;
    /// [`Server::http_addr`] reports the bound port.
    pub http_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 2,
            queue_capacity: 256,
            batch_max: 8,
            scrub_interval: Duration::from_millis(12),
            layers_per_tick: usize::MAX,
            substrate: SubstrateKind::Plain,
            trace: None,
            spans: None,
            http_addr: None,
        }
    }
}

/// Why a submission or wait failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The request was completed without an output.
    Rejected(RejectReason),
    /// The server was already shut down at submission.
    Stopped,
    /// The input's shape is not the model's per-example input shape;
    /// the request was refused before it was queued.
    BadShape {
        /// The model's per-example input shape.
        expected: Vec<usize>,
        /// The submitted input's shape.
        got: Vec<usize>,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(reason) => write!(f, "request rejected: {}", reason.name()),
            ServeError::Stopped => write!(f, "server stopped"),
            ServeError::BadShape { expected, got } => {
                write!(f, "input shape {got:?} is not the model's {expected:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Client-side handle to one submitted request.
#[derive(Debug)]
pub struct ResponseHandle {
    id: u64,
    rx: Receiver<Result<Tensor, ServeError>>,
}

impl ResponseHandle {
    /// The request's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the request is certified (or rejected).
    ///
    /// # Errors
    ///
    /// Returns the rejection reason, or [`ServeError::Stopped`] when
    /// the server dropped the request without resolving it.
    pub fn wait(self) -> Result<Tensor, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Stopped))
    }
}

/// What the server keeps with each request: the input for the forward
/// pass and the client's reply channel.
struct Client {
    input: Tensor,
    tx: Sender<Result<Tensor, ServeError>>,
}

/// The state under the `inner` lock.
struct Inner {
    core: ServeCore<Client>,
    queue: RequestQueue<Client>,
    next_id: u64,
    /// The report's outcome digest, folded as requests resolve: no
    /// input or output outlives its request.
    digest: OutcomeDigest,
}

impl Inner {
    /// Answers every client the core resolved.
    fn settle(&mut self) {
        for r in self.core.take_resolved() {
            let Pending {
                id,
                payload: Client { tx, .. },
                ..
            } = r.request;
            self.digest.push(id, &r.status);
            let _ = tx.send(match r.status {
                RequestStatus::Completed(out) => Ok(out),
                RequestStatus::Rejected(reason) => Err(ServeError::Rejected(reason)),
            });
        }
    }
}

/// What the scrubber drives and shutdown reads, under one lock.
struct Engine {
    /// The protection instance. Mutable because recovery re-anchors it
    /// to the healed state.
    milr: Milr,
    /// The shared integrity engine: scrub/detect ticks and heal
    /// episodes.
    pipeline: IntegrityPipeline,
    /// Present for store-backed servers: heals are flushed through its
    /// journal and re-anchors committed atomically to its container.
    store: Option<milr_store::Store>,
}

struct Shared {
    host: ModelHost,
    engine: Mutex<Engine>,
    config: ServerConfig,
    start: Instant,
    inner: Mutex<Inner>,
    /// The scrubber waits out each tick's interval here, paired with
    /// `inner`; only shutdown notifies it.
    scrub_cv: Condvar,
    stop: AtomicBool,
    metrics: Arc<MetricsRegistry>,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("lock poisoned")
    }

    fn engine(&self) -> MutexGuard<'_, Engine> {
        self.engine.lock().expect("engine lock poisoned")
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Sets `substrate_epoch_total` from the store, and the
    /// `core_inversion_factor_{hits,misses}_total` and
    /// `core_reprotect_{rebuilt,skipped}_total` pairs from the
    /// protection instance, before a metrics read: those counts live in
    /// the substrate and in `Milr`, not in the registry. The factor
    /// counts tell a warm heal (cached backward-pass factors) from a
    /// cold one that re-factored a layer; the re-protect counts tell a
    /// heal that restored the protected bits from one that moved them.
    fn refresh_gauges(&self) {
        self.metrics
            .gauge("substrate_epoch_total")
            .set(self.host.store().epoch_total() as i64);
        let (factors, reprotects) = {
            let engine = self.engine();
            (
                engine.milr.inversion_factor_stats(),
                engine.milr.reprotect_stats(),
            )
        };
        self.metrics
            .gauge("core_inversion_factor_hits_total")
            .set(factors.hits as i64);
        self.metrics
            .gauge("core_inversion_factor_misses_total")
            .set(factors.misses as i64);
        self.metrics
            .gauge("core_reprotect_rebuilt_total")
            .set(reprotects.rebuilt as i64);
        self.metrics
            .gauge("core_reprotect_skipped_total")
            .set(reprotects.skipped as i64);
    }

    /// Raises the stop flag under the state lock, so the scrubber either
    /// sees it before waiting or is waiting when the wake-up comes.
    fn signal_stop(&self) {
        let _guard = self.inner.lock();
        self.stop.store(true, Ordering::Release);
        self.scrub_cv.notify_all();
    }

    /// One batch's forward pass, outside the state lock. Parameterized
    /// layers decode their shard through the host's epoch-tagged cache
    /// (a clean steady-state batch takes no shard lock at all); shard
    /// reads are per-shard atomic, and certification handles
    /// cross-shard races.
    fn forward(&self, inputs: &[Tensor]) -> Vec<Tensor> {
        match &self.config.spans {
            // One wall-clock span tree per batch (batch → decode →
            // forward → layer×N) into the ring.
            Some(spans) => {
                let mut clock = || self.now_ns();
                let mut tree = SpanTree::default();
                tree.open(clock(), "batch", inputs.len() as u64);
                let out = self
                    .host
                    .forward_batch_traced(inputs, &mut clock, &mut tree);
                spans.push_all(tree.finish(self.now_ns()));
                out
            }
            None => self.host.forward_batch(inputs),
        }
        .expect("inputs validated against the model shape at submission")
    }
}

/// A running inference server. Dropping it without
/// [`Server::shutdown`] aborts outstanding requests with
/// [`ServeError::Stopped`].
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    http_addr: Option<SocketAddr>,
}

impl Server {
    /// Protects `golden`, moves its weights into substrate shards, and
    /// starts the scrubber.
    ///
    /// # Errors
    ///
    /// Propagates MILR protection failures, and the I/O error when the
    /// introspection listener ([`ServerConfig::http_addr`]) cannot bind.
    pub fn start(
        golden: &Sequential,
        milr_config: MilrConfig,
        config: ServerConfig,
    ) -> Result<Self, StoreError> {
        let substrate = config.substrate;
        let build = move |c: &[f32]| -> Box<dyn WeightSubstrate> { substrate.store(c) };
        let milr = Milr::protect(golden, milr_config)?;
        let host = ModelHost::new(golden, &build);
        Self::start_with(host, milr, None, config)
    }

    /// Cold-starts from a persistent `.milr` container: opens the
    /// store (running its crash recovery), scrubs on load, heals any
    /// disk faults and durably re-anchors protection
    /// ([`crate::cold_start`]) — only then starts the scrubber and
    /// admits traffic. The scrubber flushes subsequent heals
    /// through the store's journal and commits every re-anchor
    /// atomically. `config.substrate` is ignored — the substrate kind
    /// comes from the container.
    ///
    /// # Errors
    ///
    /// Propagates store open/commit and MILR failures and introspection
    /// bind failures; refuses to serve a container whose faults cannot
    /// be healed.
    pub fn start_from_store(
        path: &std::path::Path,
        cache_pages: usize,
        config: ServerConfig,
    ) -> Result<(Self, crate::ColdStartReport), StoreError> {
        let mut store = milr_store::Store::open(path)?;
        let (host, milr, report) = crate::cold_start(&mut store, cache_pages)?;
        Ok((Self::start_with(host, milr, Some(store), config)?, report))
    }

    /// Shared tail of both constructors: binds the introspection
    /// listener (before any thread exists, so a bad address leaks
    /// nothing), assembles the core, and spawns the scrubber (plus the
    /// listener's thread).
    fn start_with(
        host: ModelHost,
        milr: Milr,
        store: Option<milr_store::Store>,
        config: ServerConfig,
    ) -> Result<Self, StoreError> {
        let listener = config
            .http_addr
            .as_deref()
            .map(TcpListener::bind)
            .transpose()?;
        let http_addr = listener.as_ref().map(TcpListener::local_addr).transpose()?;
        // Give-up-and-resume on budget exhaustion (the next scrub
        // cycle re-quarantines); durability is best-effort per episode.
        // The Reprotect gate is mandatory here: faults can land
        // concurrently with recovery, so only a snapshot that passed a
        // full detection may become the new protection baseline.
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
            .with_wall_timing()
            .with_reprotect_gate();
        if let Some(trace) = &config.trace {
            pipeline.attach_trace(trace.clone(), 0);
        }
        if let Some(spans) = &config.spans {
            pipeline.attach_spans(spans.clone());
        }
        let start = Instant::now();
        // Store-backed servers also time every journal commit step
        // (write → fsync → apply → retire) into the same ring.
        if let (Some(store), Some(spans)) = (&store, &config.spans) {
            store.journal().set_spans(spans.clone(), start);
        }
        let metrics = Arc::new(MetricsRegistry::new());
        // Live events are stamped with wall time since server start.
        let obs = ServeObs::new(config.trace.clone(), 0, Some(&metrics));
        let queue = RequestQueue::new(config.queue_capacity, obs.queue_depth.clone());
        let core_cfg = CoreConfig {
            workers: config.workers,
            batch_max: config.batch_max,
            layers_per_tick: config.layers_per_tick,
        };
        let core = ServeCore::new(
            core_cfg,
            milr.checkable_layers(),
            SloEngine::serving_defaults(),
            obs,
        );
        let shared = Arc::new(Shared {
            host,
            engine: Mutex::new(Engine {
                milr,
                pipeline,
                store,
            }),
            config,
            start,
            inner: Mutex::new(Inner {
                core,
                queue,
                next_id: 0,
                digest: OutcomeDigest::default(),
            }),
            scrub_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics,
        });
        let scrubber = Arc::clone(&shared);
        let mut threads = vec![std::thread::spawn(move || scrubber_loop(&scrubber))];
        if let Some(listener) = listener {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                let stop = {
                    let shared = Arc::clone(&shared);
                    move || shared.stopping()
                };
                crate::http::serve_until(listener, stop, move |method, path| {
                    introspect(&shared, method, path)
                });
            }));
        }
        Ok(Server {
            shared,
            threads,
            http_addr,
        })
    }

    /// The bound address of the live introspection listener, when
    /// [`ServerConfig::http_addr`] was set (port 0 requests resolve to
    /// the actual ephemeral port here).
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Submits one request (input in the model's per-image shape).
    /// Resolution is asynchronous: the request waits in the queue for
    /// the next scrubber wake, which runs it and certifies its output.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the queue is full;
    /// [`ServeError::Stopped`] after shutdown; [`ServeError::BadShape`] when `input` is not in
    /// the model's input shape (checked before the request gets an id).
    pub fn submit(&self, input: Tensor) -> Result<ResponseHandle, ServeError> {
        if self.shared.stopping() {
            return Err(ServeError::Stopped);
        }
        let expected = self.shared.host.input_shape();
        if input.shape().dims() != expected {
            return Err(ServeError::BadShape {
                expected: expected.to_vec(),
                got: input.shape().dims().to_vec(),
            });
        }
        let now = self.shared.now_ns();
        let (tx, rx) = channel();
        let mut inner = self.shared.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        let req = Pending {
            id,
            arrival_ns: now,
            payload: Client { input, tx },
        };
        let Inner { core, queue, .. } = &mut *inner;
        let admitted = core.arrive(queue, req, now);
        inner.settle();
        drop(inner);
        admitted.map_err(ServeError::Rejected)?;
        Ok(ResponseHandle { id, rx })
    }

    /// Injects a whole-weight fault into the live substrate (testing /
    /// demonstration hook; the scrubber must find and heal it).
    ///
    /// # Panics
    ///
    /// Panics when `layer` is not substrate-backed or `weight` is out
    /// of range.
    pub fn inject_weight_fault(&self, layer: usize, weight: usize) {
        self.shared.host.corrupt_weight(layer, weight);
        let mut inner = self.shared.lock();
        let now = self.shared.now_ns();
        inner.core.fault_landed(now, layer as u32, weight as u64);
    }

    /// A point-in-time snapshot of the server's metrics registry —
    /// latency/batch histograms, queue-depth gauge, fault and
    /// quarantine counters. Exportable as JSON or Prometheus text via
    /// [`MetricsSnapshot`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.refresh_gauges();
        self.shared.metrics.snapshot()
    }

    /// True while a quarantine is in progress.
    pub fn is_quarantined(&self) -> bool {
        self.shared.lock().core.is_quarantined()
    }

    /// Quarantine episodes so far.
    pub fn quarantines(&self) -> usize {
        self.shared.lock().core.counts().quarantines
    }

    /// Stops every thread and waits for it.
    fn stop_threads(&mut self) {
        self.shared.signal_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops accepting work, drains certification, joins all threads,
    /// and returns the run report. Requests still unresolved after the
    /// final certification flush are rejected with
    /// [`RejectReason::Shutdown`].
    pub fn shutdown(mut self) -> ServeReport {
        self.stop_threads();
        // What arrived since the last tick is still queued: forward it
        // through the scrubber's drain, so the final flush can certify
        // it.
        drain(&self.shared);
        let now = self.shared.now_ns();
        // Final certification flush: one full detection pass at `now`
        // brackets everything that already finished.
        let live = self.shared.host.materialize();
        let (clean, pipeline) = {
            let engine = self.shared.engine();
            let clean = engine.milr.detect(&live).is_ok_and(|r| r.is_clean());
            (clean, engine.pipeline.report().clone())
        };
        let mut inner = self.shared.lock();
        let Inner { core, queue, .. } = &mut *inner;
        core.shutdown(queue, clean, now);
        inner.settle();
        let submitted = inner.next_id as usize;
        let digest = std::mem::take(&mut inner.digest).finish();
        inner.core.report(now, 0, submitted, digest, pipeline)
    }
}

/// Runs one engine call with the server's durability policy: journaled
/// best-effort when a store backs the host (failed flushes/commits are
/// logged and counted, serving continues), volatile otherwise.
fn with_durability<T>(
    shared: &Shared,
    engine: &mut Engine,
    f: impl FnOnce(&mut Milr, &mut IntegrityPipeline, &mut dyn DurabilityPolicy) -> T,
) -> T {
    let Engine {
        milr,
        pipeline,
        store,
    } = engine;
    match store {
        Some(store) => {
            let mut policy = Journaled::best_effort(store);
            if let Some(spans) = &shared.config.spans {
                let start = shared.start;
                policy = policy.with_spans(
                    spans.clone(),
                    Box::new(move || start.elapsed().as_nanos() as u64),
                );
            }
            f(milr, pipeline, &mut policy)
        }
        None => f(milr, pipeline, &mut Volatile),
    }
}

/// The drain half of a scrubber wake (and of shutdown): forwards the
/// requests queued now, at most `batch_max` per batch, and returns once
/// every batch it dispatched is back in the ledger. The calling thread
/// pulls batches itself; when more than one batch is owed,
/// `min(workers, batches owed) − 1` scoped helpers pull alongside it.
/// Only the count queued now is owed, so arrivals during the drain wait
/// for the next tick (the last batch may carry up to `batch_max − 1` of
/// them). A quarantined core dispatches nothing.
fn drain(shared: &Shared) {
    let (owed, target) = {
        let inner = shared.lock();
        let owed = inner.queue.len();
        (owed, inner.core.counts().batched_requests + owed)
    };
    let batches = owed.div_ceil(shared.config.batch_max.max(1));
    let helpers = shared.config.workers.min(batches).saturating_sub(1);
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| pull(shared, target));
        }
        pull(shared, target);
    });
}

/// One puller of a drain: until the core has batched `target` requests
/// in all, dispatches one batch under `inner`, runs its forward pass
/// unlocked, and hands the outputs back under `inner`. The finish is
/// stamped under the lock: acquisition order keeps ledger stamps
/// monotone across pullers. Each puller holds at most one slot, and at
/// most `workers` pull, so a dispatch always finds a free slot.
fn pull(shared: &Shared, target: usize) {
    let mut inner = shared.lock();
    while inner.core.counts().batched_requests < target {
        let now = shared.now_ns();
        let Inner { core, queue, .. } = &mut *inner;
        let Some(slot) = core.dispatch(queue, now) else {
            return;
        };
        let inputs: Vec<Tensor> = core
            .batch(slot)
            .expect("dispatched batch")
            .iter()
            .map(|r| r.payload.input.clone())
            .collect();
        drop(inner);
        let outputs = shared.forward(&inputs);
        inner = shared.lock();
        let now = shared.now_ns();
        let Inner { core, queue, .. } = &mut *inner;
        core.worker_done(queue, slot, outputs, now);
        inner.settle();
    }
}

/// The scrubber thread. Each wake drains the queue, then ticks the
/// engine over the cursor chunk (the whole model by default). A clean
/// tick certifies what the drain finished; a flagged one quarantines,
/// and the episode heals from the [`TickOutcome`] itself
/// ([`IntegrityPipeline::heal_tick`]): the tick's decode and flags are
/// the first round's input, so a quarantine decodes and fully detects
/// the model once — in the Reprotect gate after the write-back —
/// besides the tick.
///
/// [`TickOutcome`]: milr_integrity::TickOutcome
fn scrubber_loop(shared: &Shared) {
    loop {
        // One wait per tick for what is left of the interval; only
        // shutdown notifies, and a spurious wake-up waits out the rest.
        let due = Instant::now() + shared.config.scrub_interval;
        let mut inner = shared.lock();
        loop {
            if shared.stopping() {
                return;
            }
            let left = due.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            inner = shared
                .scrub_cv
                .wait_timeout(inner, left)
                .expect("lock poisoned")
                .0;
        }
        drop(inner);
        drain(shared);
        // Everything drained finished before this stamp, so a clean
        // tick certifies all of it.
        let mut inner = shared.lock();
        let now = shared.now_ns();
        let chunk = inner.core.begin_scrub(now);
        drop(inner);
        // Scrub + Detect stages of the shared engine: ECC corrections
        // are heals — journaled before anything certifies on top.
        let tick = {
            let mut engine = shared.engine();
            engine.pipeline.set_now(now);
            with_durability(shared, &mut engine, |milr, pipeline, dur| {
                pipeline.tick(&shared.host, milr, &chunk, dur)
            })
            .expect("materialized model matches the protected structure")
        };
        let mut inner = shared.lock();
        // The verdict is stamped after the tick, under the lock as
        // `worker_done` stamps: released latencies and the quarantine
        // edge include the tick's own scan time.
        let now = shared.now_ns();
        let Inner { core, queue, .. } = &mut *inner;
        let quarantined = core.finish_scrub(queue, !tick.detection.is_clean(), now);
        inner.settle();
        if !quarantined {
            continue;
        }
        drop(inner);

        // Recover outside the state lock (dispatch is stopped); the
        // scrubber is the only engine user while serving. The engine
        // heals from the tick's own decode and flags (the tick covered
        // every shard; a partial chunk detects afresh) and runs heal
        // rounds to completion: write-backs reach disk through the
        // journal, and after each one the Reprotect gate decodes and
        // detects the whole model — a flag heals again from that
        // snapshot, a clean one is re-protected (so an approximate heal
        // cannot leave the stored CRC grids out of sync with storage)
        // and re-anchored atomically. On budget exhaustion it gives up
        // (Quarantine policy) and the next tick re-quarantines.
        let healed = {
            let mut engine = shared.engine();
            engine.pipeline.set_now(shared.now_ns());
            let outcome = with_durability(shared, &mut engine, |milr, pipeline, dur| {
                pipeline.heal_tick(&shared.host, milr, tick, dur)
            })
            .expect("recovery propagates only solver errors");
            debug_assert!(matches!(
                outcome,
                RoundOutcome::Clean { .. } | RoundOutcome::GaveUp { .. }
            ));
            engine.pipeline.report().clone()
        };

        let now = shared.now_ns();
        let mut inner = shared.lock();
        inner.core.observe_heals(now, &healed);
        inner.core.resume(now);
        inner.settle();
        // The work the quarantine sent back to the queue drains at the
        // next tick.
    }
}

/// Answers one live-introspection request against the control plane.
/// Read-only: every endpoint snapshots state under short-lived locks,
/// so probing never stalls serving.
fn introspect(shared: &Shared, method: &str, path: &str) -> crate::http::HttpResponse {
    use crate::http::HttpResponse;
    if method != "GET" {
        return HttpResponse::new(405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    let now = shared.now_ns();
    match path {
        "/metrics" => {
            shared.refresh_gauges();
            shared.metrics.export_self_stats(None);
            HttpResponse::new(
                200,
                "text/plain; version=0.0.4",
                shared.metrics.snapshot().to_prometheus(),
            )
        }
        "/health" => {
            let (serving, quarantines, pass) = {
                let mut inner = shared.lock();
                let core = &mut inner.core;
                (
                    !core.is_quarantined(),
                    core.counts().quarantines,
                    core.slo().report(now).pass,
                )
            };
            let body = JsonObject::new()
                .string("status", if serving { "serving" } else { "quarantined" })
                .raw("slo_pass", pass)
                .raw("quarantines", quarantines)
                .raw("uptime_ns", now)
                .finish()
                + "\n";
            // Readiness: quarantined replicas answer 503 so a probe
            // can route around them; a blown budget alone stays 200
            // (still serving) but reports `slo_pass:false`.
            HttpResponse::new(if serving { 200 } else { 503 }, "application/json", body)
        }
        "/slo" => {
            let (report, burns, names) = {
                let mut inner = shared.lock();
                let slo = inner.core.slo();
                let names: Vec<&'static str> = slo.specs().iter().map(|s| s.name).collect();
                (slo.report(now), slo.burn_rates(now), names)
            };
            let burn_rates = burns.iter().zip(&names).map(|((fast, slow), name)| {
                JsonObject::new()
                    .string("slo", name)
                    .float("fast", *fast, 6)
                    .float("slow", *slow, 6)
                    .finish()
            });
            let body = JsonObject::new()
                .raw("report", report.to_json())
                .raw("burn_rates", array(burn_rates))
                .finish()
                + "\n";
            HttpResponse::new(200, "application/json", body)
        }
        "/spans" => {
            let body = match &shared.config.spans {
                Some(spans) => spans.ring().to_jsonl(),
                None => String::new(),
            };
            HttpResponse::new(200, "application/x-ndjson", body)
        }
        _ => HttpResponse::not_found(),
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::serving_model;
    use milr_tensor::TensorRng;

    #[test]
    fn serves_certified_golden_outputs() {
        let golden = serving_model(21);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                scrub_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(77);
        let inputs: Vec<Tensor> = (0..20).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (input, handle) in inputs.iter().zip(handles) {
            let out = handle.wait().unwrap();
            let expect = &golden.forward_batch(std::slice::from_ref(input)).unwrap()[0];
            assert_eq!(
                out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 20);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.quarantines, 0);
    }

    /// Asserts `out` is bit-equal to the fault-free model's output.
    fn assert_golden(golden: &Sequential, input: &Tensor, out: &Tensor) {
        let expect = &golden.forward_batch(std::slice::from_ref(input)).unwrap()[0];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out), bits(expect), "served output is off golden");
    }

    #[test]
    fn one_tick_forwards_what_queued_as_one_batch() {
        let golden = serving_model(27);
        let k = 5;
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                batch_max: 8,
                // Every submission queues well before the first wake.
                scrub_interval: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(81);
        let inputs: Vec<Tensor> = (0..k).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        // Released by the tick, not by the shutdown flush.
        for (input, handle) in inputs.iter().zip(handles) {
            assert_golden(&golden, input, &handle.wait().unwrap());
        }
        let report = server.shutdown();
        assert_eq!(report.completed, k);
        assert_eq!(report.batches, 1);
        assert_eq!(report.batch_occupancy, k as f64);
    }

    #[test]
    fn helpers_pull_a_backlog_of_one_request_batches_in_one_tick() {
        let golden = serving_model(29);
        let k = 7;
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 3,
                batch_max: 1,
                // Every submission queues well before the first wake.
                scrub_interval: Duration::from_millis(500),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(83);
        let inputs: Vec<Tensor> = (0..k).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        let handles: Vec<ResponseHandle> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        // Seven batches owed, three pullers: each pulls more than once.
        // Released by the tick, not by the shutdown flush.
        for (input, handle) in inputs.iter().zip(handles) {
            assert_golden(&golden, input, &handle.wait().unwrap());
        }
        let report = server.shutdown();
        assert_eq!(report.completed, k);
        assert_eq!(report.batches, k);
    }

    #[test]
    fn a_mis_shaped_submission_is_refused_and_certification_continues() {
        let golden = serving_model(29);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                scrub_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let refused = server.submit(Tensor::zeros(&[3]));
        assert_eq!(
            refused.map(|h| h.id()),
            Err(ServeError::BadShape {
                expected: vec![10, 10, 1],
                got: vec![3],
            })
        );
        let input = TensorRng::new(84).uniform_tensor(&[10, 10, 1]);
        let handle = server.submit(input.clone()).unwrap();
        assert_eq!(handle.id(), 0, "the refused input took no id");
        // Certified by a tick before shutdown, not by its flush.
        let out = handle
            .rx
            .recv_timeout(Duration::from_secs(10))
            .expect("certified within 10 s")
            .unwrap();
        assert_golden(&golden, &input, &out);
        let report = server.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1);
        assert!(report.scrub_ticks >= 1);
    }

    #[test]
    fn a_flood_drains_through_refilled_slots_across_ticks() {
        let golden = serving_model(28);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 1,
                batch_max: 2,
                scrub_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(82);
        let inputs: Vec<Tensor> = (0..40).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        // Four bursts, so the flood spans ticks; each burst is more than
        // one slot's batch, so a drain must refill the slot.
        let mut handles = Vec::new();
        for burst in inputs.chunks(10) {
            handles.extend(burst.iter().map(|x| server.submit(x.clone()).unwrap()));
            std::thread::sleep(Duration::from_millis(3));
        }
        for (input, handle) in inputs.iter().zip(handles) {
            assert_golden(&golden, input, &handle.wait().unwrap());
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 40);
        assert_eq!(report.rejected, 0);
        assert!(report.batches >= 20, "{} batches", report.batches);
        assert!(report.scrub_ticks >= 1);
    }

    #[test]
    fn report_digest_folds_what_the_clients_saw() {
        use crate::report::outcome_digest;
        use crate::request::RequestOutcome;
        let golden = serving_model(23);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                queue_capacity: 4,
                scrub_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(79);
        // One submitting thread, so the k-th submission is request k —
        // also when admission turns it away without a handle.
        let mut seen = Vec::new();
        let mut handles = Vec::new();
        for id in 0..40u64 {
            let input = rng.uniform_tensor(&[10, 10, 1]);
            match server.submit(input.clone()) {
                Ok(handle) => {
                    assert_eq!(handle.id(), id);
                    handles.push((input, handle));
                }
                Err(ServeError::Rejected(reason)) => seen.push(RequestOutcome {
                    id,
                    input,
                    status: RequestStatus::Rejected(reason),
                    arrival_ns: 0,
                    resolved_ns: 0,
                }),
                Err(other) => unreachable!("the server is running: {other:?}"),
            }
        }
        for (input, handle) in handles {
            let id = handle.id();
            let status = match handle.wait() {
                Ok(out) => RequestStatus::Completed(out),
                Err(ServeError::Rejected(reason)) => RequestStatus::Rejected(reason),
                Err(other) => unreachable!("the server is running: {other:?}"),
            };
            seen.push(RequestOutcome {
                id,
                input,
                status,
                arrival_ns: 0,
                resolved_ns: 0,
            });
        }
        let report = server.shutdown();
        assert_eq!(report.submitted, 40);
        assert_eq!(report.completed + report.rejected, 40);
        assert!(report.completed > 0);
        assert_eq!(report.digest, outcome_digest(&seen));
    }

    #[test]
    fn heals_a_live_fault_and_keeps_outputs_golden() {
        let golden = serving_model(22);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                scrub_interval: Duration::from_millis(1),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(78);
        // Warm traffic, then a fault, then more traffic.
        let first: Vec<Tensor> = (0..6).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        let h1: Vec<_> = first
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        server.inject_weight_fault(0, 13);
        // Wait for the scrubber to notice and heal.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.quarantines() == 0 || server.is_quarantined() {
            assert!(Instant::now() < deadline, "scrubber never healed the fault");
            std::thread::sleep(Duration::from_millis(1));
        }
        let second: Vec<Tensor> = (0..6).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        let h2: Vec<_> = second
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        for (input, handle) in first
            .iter()
            .chain(second.iter())
            .zip(h1.into_iter().chain(h2))
        {
            let out = handle.wait().unwrap();
            let expect = &golden.forward_batch(std::slice::from_ref(input)).unwrap()[0];
            assert_eq!(
                out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "served output diverged from the fault-free model"
            );
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 12);
        assert!(report.quarantines >= 1);
        assert!(report.downtime_ns > 0);
        assert!(report.availability < 1.0);
    }

    #[test]
    fn shutdown_rejects_unresolved_work() {
        let golden = serving_model(23);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 1,
                // Slow scrubber: nothing certifies before shutdown.
                scrub_interval: Duration::from_secs(60),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let x = TensorRng::new(5).uniform_tensor(&[10, 10, 1]);
        let h = server.submit(x).unwrap();
        // Give the server a moment before shutting it down.
        std::thread::sleep(Duration::from_millis(50));
        let report = server.shutdown();
        // The final flush certifies it (weights are clean), or rejects
        // it with Shutdown — either way the handle resolves.
        match h.wait() {
            Ok(_) => assert_eq!(report.completed, 1),
            Err(ServeError::Rejected(RejectReason::Shutdown)) => {
                assert_eq!(report.rejected, 1)
            }
            other => panic!("unexpected resolution: {other:?}"),
        }
    }

    #[test]
    fn shutdown_does_not_wait_out_the_scrub_interval() {
        let golden = serving_model(24);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                scrub_interval: Duration::from_secs(10),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let input = TensorRng::new(5).uniform_tensor(&[10, 10, 1]);
        let handle = server.submit(input).unwrap();
        // Let the scrubber settle into its wait for the first tick.
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        let report = server.shutdown();
        let took = started.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
        // No tick came due; the final flush certified the request.
        assert!(handle.wait().is_ok());
        assert_eq!(report.completed, 1);
    }

    #[test]
    fn an_unbindable_introspection_address_is_an_error() {
        let golden = serving_model(26);
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = taken.local_addr().unwrap().to_string();
        let started = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                http_addr: Some(addr),
                ..ServerConfig::default()
            },
        );
        match started {
            Err(StoreError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::AddrInUse),
            Err(other) => panic!("unexpected error: {other}"),
            Ok(_) => panic!("bound an address that is already taken"),
        }
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect introspection");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn live_introspection_answers_under_a_fault_campaign() {
        let golden = serving_model(24);
        let spans = SpanHandle::new(Arc::new(milr_obs::SpanRing::new(64)));
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                scrub_interval: Duration::from_millis(1),
                spans: Some(spans.clone()),
                http_addr: Some("127.0.0.1:0".to_string()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.http_addr().expect("listener bound");
        let mut rng = TensorRng::new(79);
        let inputs: Vec<Tensor> = (0..8).map(|_| rng.uniform_tensor(&[10, 10, 1])).collect();
        let handles: Vec<_> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        server.inject_weight_fault(0, 7);
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.quarantines() == 0 || server.is_quarantined() {
            assert!(Instant::now() < deadline, "scrubber never healed the fault");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Probe every endpoint while the campaign is live.
        let metrics = http_get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("serve_quarantines_total"), "{metrics}");
        assert!(metrics.contains("obs_series"), "{metrics}");
        assert!(
            metrics.contains("core_inversion_factor_hits_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("core_inversion_factor_misses_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("core_reprotect_rebuilt_total"),
            "{metrics}"
        );
        assert!(
            metrics.contains("core_reprotect_skipped_total"),
            "{metrics}"
        );
        let health = http_get(addr, "/health");
        assert!(health.starts_with("HTTP/1.1 200 OK\r\n"), "{health}");
        assert!(health.contains("\"status\":\"serving\""), "{health}");
        let slo = http_get(addr, "/slo");
        assert!(slo.starts_with("HTTP/1.1 200 OK\r\n"), "{slo}");
        assert!(slo.contains("\"name\":\"availability\""), "{slo}");
        assert!(slo.contains("\"burn_rates\":["), "{slo}");
        let spans_resp = http_get(addr, "/spans");
        assert!(
            spans_resp.starts_with("HTTP/1.1 200 OK\r\n"),
            "{spans_resp}"
        );
        assert!(
            http_get(addr, "/nope").starts_with("HTTP/1.1 404"),
            "404 fallback"
        );
        for h in handles {
            h.wait().unwrap();
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 8);
        assert!(report.to_json().contains("\"slo\":{\"pass\":"));
        let slo = report.slo.expect("live report carries an SLO verdict");
        let avail = slo.budget("availability").expect("availability budget");
        assert!(avail.good > 0, "availability window saw serving time");
        assert!(avail.bad > 0, "availability window saw the quarantine");
        // The batch trees and the scrubber's engine trees both landed in
        // the ring.
        let trees = spans.ring().trees();
        assert!(
            trees.iter().any(|t| t.name == "batch"),
            "no batch span: {trees:?}"
        );
        assert!(
            trees.iter().any(|t| t.name != "batch"),
            "no engine span: {trees:?}"
        );
    }

    #[test]
    fn a_client_that_stops_reading_spans_does_not_hang_shutdown() {
        use std::io::{Read, Write};
        // A full ring of batch-sized trees: a body of about 11 MB, far
        // more than the loopback socket buffers hold.
        let spans = SpanHandle::new(Arc::new(milr_obs::SpanRing::new(8192)));
        let mut tree = SpanTree::new();
        for i in 0..8192u64 {
            tree.open(i, "batch", i);
            for layer in 0..16 {
                tree.open(i, "layer", layer);
                tree.close(i + 1);
            }
            spans.push_all(tree.finish(i + 1));
        }
        let server = Server::start(
            &serving_model(27),
            MilrConfig::default(),
            ServerConfig {
                spans: Some(spans),
                http_addr: Some("127.0.0.1:0".to_string()),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.http_addr().expect("listener bound");
        let mut stalled = std::net::TcpStream::connect(addr).unwrap();
        stalled
            .write_all(b"GET /spans HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        // One byte of the response: the listener is now writing the
        // body, and it fills the socket buffers long before the end.
        stalled.read_exact(&mut [0u8; 1]).unwrap();
        let (tx, rx) = channel();
        let stopper = std::thread::spawn(move || tx.send(server.shutdown().submitted).unwrap());
        let done = rx.recv_timeout(Duration::from_secs(10));
        drop(stalled);
        stopper.join().unwrap();
        assert_eq!(done, Ok(0), "shutdown hung behind a stalled reader");
    }
}

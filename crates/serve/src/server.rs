//! The live multi-threaded inference server: the [`ServeCore`] under a
//! mutex, driven by worker threads, a scrubber daemon, and the wall
//! clock.
//!
//! A [`Server`] owns a [`ModelHost`] (weights in substrate shards), the
//! integrity pipeline, and one core with its admission queue. Every
//! serving decision — admission, batching, the epoch check,
//! certification, quarantine, resume, accounting — is the core's, made
//! under the `inner` lock with the wall clock passed in. The threads
//! only do the work the core hands out, outside that lock:
//!
//! * a **worker** polls the core for a batch for its own slot, runs the
//!   forward pass unlocked, and hands the outputs back;
//! * the **scrubber** asks the core for the next chunk, runs the
//!   pipeline's scrub + detect tick unlocked, reports the verdict, and
//!   on a quarantine runs the heal episode unlocked before resuming.
//!
//! No thread holds `inner` together with `milr` or `pipeline`; among
//! those the order is `milr` → `pipeline` → `store`.

use crate::report::{outcome_digest, ServeReport};
use crate::request::{RejectReason, RequestOutcome, RequestStatus};
use crate::serve_core::{CoreConfig, Pending, RequestQueue, ServeCore, ServeObs};
use crate::QuarantinePolicy;
use milr_core::{Milr, MilrConfig};
use milr_integrity::{
    Budget, DurabilityPolicy, EscalationPolicy, IntegrityPipeline, Journaled, ModelHost,
    RoundOutcome, TickOutcome, Volatile,
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
    /// Worker pool size.
    pub workers: usize,
    /// Bounded admission-queue capacity.
    pub queue_capacity: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// Continuous-batching admission deadline: a worker holds a partial
    /// batch for up to this long waiting for more arrivals before
    /// dispatching (full batches always go out at once). `ZERO`
    /// disables coalescing — workers dispatch whatever is queued the
    /// moment they wake, the legacy behavior.
    pub batch_wait: Duration,
    /// Scrubber cadence.
    pub scrub_interval: Duration,
    /// Checkable layers examined per scrub tick.
    pub layers_per_tick: usize,
    /// Quarantine policy.
    pub policy: QuarantinePolicy,
    /// Substrate kind backing each layer shard.
    pub substrate: SubstrateKind,
    /// Optional structured trace sink. Live-server events are stamped
    /// with wall time since server start (the sim stamps virtual time
    /// instead — same event schema, different clock domain).
    pub trace: Option<TraceHandle>,
    /// Optional span sink: worker batch trees (batch → decode →
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
            batch_wait: Duration::ZERO,
            scrub_interval: Duration::from_millis(2),
            layers_per_tick: 2,
            policy: QuarantinePolicy::Drain,
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
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Rejected(reason) => write!(f, "request rejected: {}", reason.name()),
            ServeError::Stopped => write!(f, "server stopped"),
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
    outcomes: Vec<RequestOutcome>,
}

impl Inner {
    /// Answers every client the core resolved. The core's effects need
    /// no action here: workers pull their own batches and fire lapsed
    /// deadlines while polling, and the scrubber keeps its own cadence.
    fn settle(&mut self) {
        for r in self.core.take_resolved() {
            let Pending {
                id,
                arrival_ns,
                payload: Client { input, tx },
            } = r.request;
            let _ = tx.send(match &r.status {
                RequestStatus::Completed(out) => Ok(out.clone()),
                RequestStatus::Rejected(reason) => Err(ServeError::Rejected(*reason)),
            });
            self.outcomes.push(RequestOutcome {
                id,
                input,
                status: r.status,
                arrival_ns,
                resolved_ns: r.at_ns,
            });
        }
        self.core.discard_effects();
    }
}

struct Shared {
    host: ModelHost,
    /// The protection instance. Mutable because recovery re-anchors it
    /// to the healed state; only the scrubber and shutdown touch it.
    milr: Mutex<Milr>,
    /// The shared integrity engine (scrub/detect ticks and heal
    /// episodes); only the scrubber drives it, shutdown reads its
    /// report.
    pipeline: Mutex<IntegrityPipeline>,
    /// Present for store-backed servers: heals are flushed through its
    /// journal and re-anchors committed atomically to its container.
    store: Option<Mutex<milr_store::Store>>,
    config: ServerConfig,
    start: Instant,
    inner: Mutex<Inner>,
    work_cv: Condvar,
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

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Sets `substrate_epoch_total` from the store before a metrics
    /// read: the epochs live in the substrate, not the registry.
    fn refresh_epoch_gauge(&self) {
        self.metrics
            .gauge("substrate_epoch_total")
            .set(self.host.store().epoch_total() as i64);
    }

    /// Raises the stop flag under the state lock, so a worker either
    /// sees it before parking or is parked when the wake-up comes.
    fn signal_stop(&self) {
        let _guard = self.inner.lock();
        self.stop.store(true, Ordering::Release);
        self.work_cv.notify_all();
    }

    /// Parks an idle worker until the state changes, or until an armed
    /// batch deadline lapses.
    fn idle<'a>(&self, inner: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        let Some(at) = inner.core.pending_deadline() else {
            return self.work_cv.wait(inner).expect("lock poisoned");
        };
        let wait = Duration::from_nanos(at.saturating_sub(self.now_ns()));
        self.work_cv
            .wait_timeout(inner, wait)
            .expect("lock poisoned")
            .0
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
    /// starts the worker pool plus the scrubber daemon.
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
    /// ([`crate::cold_start`]) — only then starts the worker pool and
    /// admits traffic. The scrubber daemon flushes subsequent heals
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
    /// nothing), assembles the core, and spawns the threads.
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
            batch_wait_ns: config.batch_wait.as_nanos() as u64,
            scrub_interval_ns: config.scrub_interval.as_nanos() as u64,
            layers_per_tick: config.layers_per_tick,
            policy: config.policy,
        };
        let core = ServeCore::new(
            core_cfg,
            milr.checkable_layers(),
            SloEngine::serving_defaults(),
            obs,
        );
        let shared = Arc::new(Shared {
            host,
            milr: Mutex::new(milr),
            pipeline: Mutex::new(pipeline),
            store: store.map(Mutex::new),
            config,
            start,
            inner: Mutex::new(Inner {
                core,
                queue,
                next_id: 0,
                outcomes: Vec::new(),
            }),
            work_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            metrics,
        });
        let mut threads: Vec<JoinHandle<()>> = (0..shared.config.workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();
        let scrubber = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || scrubber_loop(&scrubber)));
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
    /// Resolution is asynchronous: outputs are released only once
    /// certified.
    ///
    /// # Errors
    ///
    /// [`ServeError::Rejected`] when the queue is full or a
    /// reject-policy quarantine is shedding; [`ServeError::Stopped`]
    /// after shutdown.
    pub fn submit(&self, input: Tensor) -> Result<ResponseHandle, ServeError> {
        if self.shared.stopping() {
            return Err(ServeError::Stopped);
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
        self.shared.work_cv.notify_one();
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
        self.shared.refresh_epoch_gauge();
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
        let now = self.shared.now_ns();
        // Final certification flush: one full detection pass at `now`
        // brackets everything that already finished.
        let live = self.shared.host.materialize();
        let clean = self
            .shared
            .milr
            .lock()
            .expect("lock poisoned")
            .detect(&live)
            .map(|r| r.is_clean())
            .unwrap_or(false);
        let pipeline = self
            .shared
            .pipeline
            .lock()
            .expect("pipeline lock poisoned")
            .report()
            .clone();
        let mut inner = self.shared.lock();
        let Inner { core, queue, .. } = &mut *inner;
        core.shutdown(queue, clean, now);
        inner.settle();
        let submitted = inner.next_id as usize;
        let digest = outcome_digest(&inner.outcomes);
        inner.core.report(now, 0, submitted, digest, pipeline)
    }
}

fn worker_loop(shared: &Shared, worker: usize) {
    let mut inner = shared.lock();
    loop {
        if shared.stopping() {
            return;
        }
        // Continuous batching, pulled: the core hands this worker a
        // batch when its policy allows (a partial batch waits for the
        // deadline so later arrivals coalesce into it).
        let now = shared.now_ns();
        let Inner { core, queue, .. } = &mut *inner;
        if !core.poll(worker, queue, now) {
            inner = shared.idle(inner);
            continue;
        }
        let batch = inner.core.batch(worker).expect("polled batch");
        let inputs: Vec<Tensor> = batch.iter().map(|r| r.payload.input.clone()).collect();
        drop(inner);
        let outputs = shared.forward(&inputs);
        inner = shared.lock();
        // Stamp under the lock: acquisition order keeps ledger stamps
        // monotone across workers.
        let now = shared.now_ns();
        let Inner { core, queue, .. } = &mut *inner;
        core.worker_done(queue, worker, outputs, now);
        inner.settle();
        // A voided batch may have gone back on the queue.
        shared.work_cv.notify_all();
    }
}

/// Runs one engine call with the server's durability policy: journaled
/// best-effort when a store backs the host (failed flushes/commits are
/// logged and counted, serving continues), volatile otherwise.
/// Lock order: `milr` (held by the caller where needed) → `pipeline`
/// (held by the caller) → `store` (taken here).
fn with_durability<T>(shared: &Shared, f: impl FnOnce(&mut dyn DurabilityPolicy) -> T) -> T {
    match &shared.store {
        Some(store) => {
            let mut store = store.lock().expect("store lock poisoned");
            let mut policy = Journaled::best_effort(&mut store);
            if let Some(spans) = &shared.config.spans {
                let start = shared.start;
                policy = policy.with_spans(
                    spans.clone(),
                    Box::new(move || start.elapsed().as_nanos() as u64),
                );
            }
            f(&mut policy)
        }
        None => f(&mut Volatile),
    }
}

fn scrubber_loop(shared: &Shared) {
    while !shared.stopping() {
        // Sleep in short slices so shutdown never waits a full tick.
        let mut slept = Duration::ZERO;
        while slept < shared.config.scrub_interval {
            if shared.stopping() {
                return;
            }
            let step = (shared.config.scrub_interval - slept).min(Duration::from_millis(1));
            std::thread::sleep(step);
            slept += step;
        }
        let now = shared.now_ns();
        let chunk = shared.lock().core.begin_scrub(now);
        // Scrub + Detect stages of the shared engine: ECC corrections
        // are heals — journaled before anything certifies on top.
        let TickOutcome { detection, .. } = {
            let milr = shared.milr.lock().expect("lock poisoned");
            let mut pipeline = shared.pipeline.lock().expect("pipeline lock poisoned");
            pipeline.set_now(now);
            with_durability(shared, |dur| {
                pipeline.tick(&shared.host, &milr, &chunk, dur)
            })
            .expect("materialized model matches the protected structure")
        };
        let mut inner = shared.lock();
        let Inner { core, queue, .. } = &mut *inner;
        let quarantined = core.finish_scrub(queue, !detection.is_clean(), now);
        inner.settle();
        if !quarantined {
            continue;
        }
        drop(inner);

        // Recover outside the state lock (dispatch is stopped); the
        // scrubber is the only milr user while serving. The engine runs
        // heal rounds to completion: write-backs reach disk through the
        // journal, a clean verify re-protects so an approximate heal
        // cannot leave the stored CRC grids out of sync with storage,
        // and the re-anchor commits atomically. On budget exhaustion it
        // gives up (Quarantine policy) and the next tick re-quarantines.
        let healed = {
            let mut milr = shared.milr.lock().expect("lock poisoned");
            let mut pipeline = shared.pipeline.lock().expect("pipeline lock poisoned");
            pipeline.set_now(shared.now_ns());
            let outcome = with_durability(shared, |dur| pipeline.run(&shared.host, &mut milr, dur))
                .expect("recovery propagates only solver errors");
            debug_assert!(matches!(
                outcome,
                RoundOutcome::Clean { .. } | RoundOutcome::GaveUp { .. }
            ));
            pipeline.report().clone()
        };

        let now = shared.now_ns();
        let mut inner = shared.lock();
        inner.core.observe_heals(now, &healed);
        inner.core.resume(now);
        inner.settle();
        drop(inner);
        shared.work_cv.notify_all();
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
            shared.refresh_epoch_gauge();
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

    #[test]
    fn heals_a_live_fault_and_keeps_outputs_golden() {
        let golden = serving_model(22);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                scrub_interval: Duration::from_millis(1),
                policy: QuarantinePolicy::Drain,
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
        // Give the worker a moment to compute the batch.
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
    fn reject_policy_sheds_instead_of_reexecuting_and_stays_golden() {
        let golden = serving_model(25);
        let server = Server::start(
            &golden,
            MilrConfig::default(),
            ServerConfig {
                workers: 2,
                scrub_interval: Duration::from_millis(1),
                policy: QuarantinePolicy::Reject,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut rng = TensorRng::new(80);
        let mut submitted = Vec::new();
        let mut shed_at_submit = 0usize;
        let mut submit = |server: &Server, rng: &mut TensorRng| {
            let x = rng.uniform_tensor(&[10, 10, 1]);
            match server.submit(x.clone()) {
                Ok(h) => submitted.push((x, h)),
                Err(ServeError::Rejected(RejectReason::Quarantined)) => shed_at_submit += 1,
                Err(other) => panic!("unexpected refusal: {other:?}"),
            }
        };
        for _ in 0..6 {
            submit(&server, &mut rng);
        }
        server.inject_weight_fault(0, 11);
        // Keep traffic flowing through the quarantine and the heal.
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.quarantines() == 0 || server.is_quarantined() {
            assert!(Instant::now() < deadline, "scrubber never healed the fault");
            submit(&server, &mut rng);
            std::thread::sleep(Duration::from_micros(200));
        }
        for _ in 0..6 {
            submit(&server, &mut rng);
        }
        let mut answered = 0usize;
        for (input, handle) in submitted {
            match handle.wait() {
                Ok(out) => {
                    answered += 1;
                    let expect = &golden.forward_batch(std::slice::from_ref(&input)).unwrap()[0];
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
                Err(e) => assert_eq!(e, ServeError::Rejected(RejectReason::Quarantined)),
            }
        }
        let report = server.shutdown();
        assert!(report.quarantines >= 1);
        assert_eq!(report.reexecuted, 0, "reject never re-queues");
        assert_eq!(report.completed, answered);
        assert_eq!(report.completed + report.rejected, report.submitted);
        assert!(report.rejected >= shed_at_submit);
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
                policy: QuarantinePolicy::Drain,
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
        // The worker batch trees and the scrubber's engine trees both
        // landed in the ring.
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
}

//! The sans-IO serving core: one instance's serving policy as a state
//! machine over injected time.
//!
//! [`ServeCore`] owns every decision that keeps the paper's contract —
//! a released output is bit-equal to the fault-free model, or the fault
//! is detected and reported — and nothing else:
//!
//! * **admission**: queue capacity;
//! * **batch formation**: one rule — a free worker slot takes up to
//!   `batch_max` queued requests at once;
//! * **the epoch check on completion**: a batch dispatched before a
//!   quarantine comes back suspect and is re-queued for re-execution;
//! * **certification**: finished batches wait in the
//!   [`CertificationLedger`] until a clean [`ScrubCursor`] cycle that
//!   started after they finished releases them;
//! * **quarantine and resume**: a flagged scrub voids everything
//!   uncertified back onto the queue and stops dispatch until the heal
//!   ends;
//! * **accounting**: downtime, the SLO streams (availability segments,
//!   latency, heal exactness, durability), the serving counters, and
//!   [`ServeReport`] assembly.
//!
//! The core never touches threads, clocks, the model host, or the
//! integrity pipeline, and it schedules nothing. Every call takes `now`
//! as an argument; the core answers by return value —
//! [`ServeCore::dispatch`] names the worker slot whose batch to run,
//! [`ServeCore::finish_scrub`] says whether the tick quarantined — and
//! with [`Resolution`]s (requests reaching a terminal state), which the
//! driver drains after each call. Forward passes, the scrub cadence,
//! and heals belong to the driver.

use crate::ledger::CertificationLedger;
use crate::metrics::{DowntimeLog, LatencyStats};
use crate::report::ServeReport;
use crate::request::{RejectReason, RequestStatus};
use crate::scrubber::ScrubCursor;
use milr_integrity::PipelineReport;
use milr_obs::{
    AtomicHistogram, Counter, EventKind, Gauge, MetricsRegistry, SloAlert, SloEngine, SloKind,
    TraceHandle,
};
use milr_tensor::Tensor;
use std::collections::VecDeque;
use std::sync::Arc;

/// One admitted request as the core tracks it; `payload` is whatever
/// the driver needs to answer the client (nothing for the simulators,
/// the input and reply channel for the live server).
#[derive(Debug)]
pub struct Pending<P> {
    /// Request id; re-queued work goes back in id order.
    pub id: u64,
    /// Arrival time on the driver's clock, nanoseconds.
    pub arrival_ns: u64,
    /// Driver data carried with the request.
    pub payload: P,
}

/// A request that reached its terminal state.
#[derive(Debug)]
pub struct Resolution<P> {
    /// The request.
    pub request: Pending<P>,
    /// Its certified output or the rejection reason.
    pub status: RequestStatus,
    /// When it resolved, on the driver's clock.
    pub at_ns: u64,
}

/// The policy knobs of one serving instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Worker slots (batches in flight at once).
    pub workers: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// Checkable layers examined per scrub tick.
    pub layers_per_tick: usize,
}

/// The bounded FIFO an instance draws batches from: a single instance
/// owns one, a fleet's replicas draw from one between them.
#[derive(Debug)]
pub struct RequestQueue<P> {
    items: VecDeque<Pending<P>>,
    capacity: usize,
    depth: Option<Arc<Gauge>>,
}

impl<P> RequestQueue<P> {
    /// An empty queue, publishing its depth to `depth`.
    ///
    /// # Panics
    ///
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize, depth: Option<Arc<Gauge>>) -> Self {
        assert!(capacity > 0, "need a non-empty queue");
        RequestQueue {
            items: VecDeque::new(),
            capacity,
            depth,
        }
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Admission control: appends `req`, or hands it back when the
    /// queue is full.
    ///
    /// # Errors
    ///
    /// The refused request.
    pub fn admit(&mut self, req: Pending<P>) -> Result<(), Pending<P>> {
        if self.items.len() >= self.capacity {
            return Err(req);
        }
        self.items.push_back(req);
        self.publish();
        Ok(())
    }

    /// Puts invalidated work back at the head, in id order, ahead of
    /// everything that arrived later.
    fn requeue(&mut self, mut reqs: Vec<Pending<P>>) {
        reqs.sort_by_key(|r| r.id);
        for req in reqs.into_iter().rev() {
            self.items.push_front(req);
        }
        self.publish();
    }

    fn take(&mut self, n: usize) -> Vec<Pending<P>> {
        let out = self.items.drain(..n).collect();
        self.publish();
        out
    }

    fn publish(&self) {
        if let Some(g) = &self.depth {
            g.set(self.items.len() as i64);
        }
    }
}

/// Observability handles of one instance, registered once up front so
/// recording is lock-free atomics. Every handle is optional: a driver
/// without a registry (or a fleet replica whose latency the fleet view
/// records instead) leaves it `None`.
#[derive(Clone, Default)]
pub struct ServeObs {
    /// Trace sink for the instance's events.
    pub trace: Option<TraceHandle>,
    /// Source index stamped on those events.
    pub src: u32,
    /// `serve_latency_ns`: arrival → certified release.
    pub latency: Option<Arc<AtomicHistogram>>,
    /// `serve_batch_wait_ns`: arrival → dispatch.
    pub batch_wait: Option<Arc<AtomicHistogram>>,
    /// `serve_batch_occupancy`: requests per dispatched batch.
    pub occupancy: Option<Arc<AtomicHistogram>>,
    /// `serve_ledger_hold_ns`: batch finish → certification.
    pub ledger_hold: Option<Arc<AtomicHistogram>>,
    /// `serve_queue_depth`, for the [`RequestQueue`].
    pub queue_depth: Option<Arc<Gauge>>,
    /// `serve_faults_injected_total`.
    pub faults: Option<Arc<Counter>>,
    /// `serve_quarantines_total`.
    pub quarantines: Option<Arc<Counter>>,
}

impl ServeObs {
    /// Registers the serving series on `metrics` (when given) and
    /// stamps events with `src`.
    pub fn new(trace: Option<TraceHandle>, src: u32, metrics: Option<&MetricsRegistry>) -> Self {
        ServeObs {
            trace,
            src,
            latency: metrics.map(|m| m.histogram("serve_latency_ns")),
            batch_wait: metrics.map(|m| m.histogram("serve_batch_wait_ns")),
            occupancy: metrics.map(|m| m.histogram("serve_batch_occupancy")),
            ledger_hold: metrics.map(|m| m.histogram("serve_ledger_hold_ns")),
            queue_depth: metrics.map(|m| m.gauge("serve_queue_depth")),
            faults: metrics.map(|m| m.counter("serve_faults_injected_total")),
            quarantines: metrics.map(|m| m.counter("serve_quarantines_total")),
        }
    }

    fn emit(&self, now: u64, kind: EventKind) {
        if let Some(trace) = &self.trace {
            trace.emit(now, self.src, kind);
        }
    }
}

/// The serving counters behind one [`ServeReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeCounts {
    /// Requests released with certified outputs.
    pub completed: usize,
    /// Requests rejected.
    pub rejected: usize,
    /// Request executions voided and queued again.
    pub reexecuted: usize,
    /// Injections that landed on the weights.
    pub faults_injected: usize,
    /// Scrub ticks run.
    pub scrub_ticks: usize,
    /// Quarantine episodes.
    pub quarantines: usize,
    /// Batches dispatched.
    pub batches: usize,
    /// Batches dispatched at `batch_max`.
    pub full_batches: usize,
    /// Requests summed over dispatched batches.
    pub batched_requests: usize,
}

impl std::iter::Sum for ServeCounts {
    fn sum<I: Iterator<Item = ServeCounts>>(iter: I) -> Self {
        iter.fold(ServeCounts::default(), |a, b| ServeCounts {
            completed: a.completed + b.completed,
            rejected: a.rejected + b.rejected,
            reexecuted: a.reexecuted + b.reexecuted,
            faults_injected: a.faults_injected + b.faults_injected,
            scrub_ticks: a.scrub_ticks + b.scrub_ticks,
            quarantines: a.quarantines + b.quarantines,
            batches: a.batches + b.batches,
            full_batches: a.full_batches + b.full_batches,
            batched_requests: a.batched_requests + b.batched_requests,
        })
    }
}

/// Accounting of one service view: counters, latencies, downtime, and
/// the SLO engine fed from them. Each [`ServeCore`] keeps one; a fleet
/// keeps one more for the client-facing view over all replicas.
pub struct ServeTally {
    /// The counters so far.
    pub counts: ServeCounts,
    latencies: Vec<u64>,
    downtime: DowntimeLog,
    slo: SloEngine,
    serving: bool,
    /// Start of the current availability segment: the last instant the
    /// serving state flipped (or the start of the run).
    avail_mark: u64,
    obs: ServeObs,
}

impl ServeTally {
    /// A serving view starting at time 0, judged by `slo`.
    pub fn new(slo: SloEngine, obs: ServeObs) -> Self {
        ServeTally {
            counts: ServeCounts::default(),
            latencies: Vec::new(),
            downtime: DowntimeLog::default(),
            slo,
            serving: true,
            avail_mark: 0,
            obs,
        }
    }

    fn alerts(&self, alerts: Vec<SloAlert>) {
        for a in alerts {
            self.obs.emit(
                a.ns,
                EventKind::AlertFired {
                    slo: a.spec,
                    burn_milli: a.burn_milli,
                },
            );
        }
    }

    /// Counts one resolution; completions feed the latency streams.
    pub fn resolved(&mut self, status: &RequestStatus, arrival_ns: u64, now: u64) {
        match status {
            RequestStatus::Completed(_) => {
                self.counts.completed += 1;
                let latency = now.saturating_sub(arrival_ns);
                if let Some(h) = &self.obs.latency {
                    h.record(latency);
                }
                self.latencies.push(latency);
                let alerts = self.slo.observe_latency(now, latency);
                self.alerts(alerts);
            }
            RequestStatus::Rejected(_) => self.counts.rejected += 1,
        }
    }

    /// Flips the view up or down at `now`: closes the elapsed
    /// availability segment into the SLO windows and opens or closes a
    /// downtime window. A no-op when the state does not change.
    pub fn set_serving(&mut self, now: u64, serving: bool) {
        if serving == self.serving {
            return;
        }
        self.close_segment(now);
        if serving {
            self.downtime.close_at(now);
        } else {
            self.downtime.open_at(now);
        }
        self.serving = serving;
    }

    fn close_segment(&mut self, now: u64) {
        let segment = now.saturating_sub(self.avail_mark);
        self.avail_mark = now;
        let (good, bad) = if self.serving {
            (segment, 0)
        } else {
            (0, segment)
        };
        let alerts = self.slo.observe(now, SloKind::Availability, good, bad);
        self.alerts(alerts);
    }

    /// Feeds one heal episode's exact/approximate layer heals.
    pub fn heals(&mut self, now: u64, exact: usize, approx: usize) {
        if exact + approx > 0 {
            let alerts = self
                .slo
                .observe(now, SloKind::HealExactness, exact as u64, approx as u64);
            self.alerts(alerts);
        }
    }

    /// Closes the run at `now` — the trailing availability segment and
    /// the lifetime durability tally go into the SLO windows — and
    /// assembles the report. `submitted` and `digest` come from the
    /// driver, which owns the requests; `pipeline` is the integrity
    /// engine's report behind the view.
    pub fn report(
        &mut self,
        now: u64,
        seed: u64,
        submitted: usize,
        digest: u64,
        pipeline: PipelineReport,
    ) -> ServeReport {
        self.close_segment(now);
        let alerts = self.slo.observe(
            now,
            SloKind::Durability,
            pipeline.anchors as u64,
            pipeline.durability_errors as u64,
        );
        self.alerts(alerts);
        let c = self.counts;
        ServeReport {
            seed,
            submitted,
            completed: c.completed,
            rejected: c.rejected,
            reexecuted: c.reexecuted,
            faults_injected: c.faults_injected,
            scrub_corrected: pipeline.scrub_corrected,
            scrub_ticks: c.scrub_ticks,
            quarantines: c.quarantines,
            layers_recovered: pipeline.layers_healed,
            durability_errors: pipeline.durability_errors,
            total_ns: now,
            downtime_ns: self.downtime.total_ns(now),
            availability: self.downtime.availability(now),
            latency: LatencyStats::from_ns(&self.latencies),
            batches: c.batches,
            full_batches: c.full_batches,
            batch_occupancy: if c.batches == 0 {
                0.0
            } else {
                c.batched_requests as f64 / c.batches as f64
            },
            digest,
            pipeline,
            slo: Some(self.slo.report(now)),
        }
    }
}

struct InFlight<P> {
    reqs: Vec<Pending<P>>,
    epoch: u64,
}

/// One serving instance's policy state machine. See the module docs.
pub struct ServeCore<P> {
    cfg: CoreConfig,
    cursor: ScrubCursor,
    /// Bumped by every quarantine; work stamped with an older epoch is
    /// suspect.
    epoch: u64,
    quarantined: bool,
    slots: Vec<Option<InFlight<P>>>,
    ledger: CertificationLedger<(Vec<Pending<P>>, Vec<Tensor>)>,
    last_fault_ns: u64,
    last_clean_cycle: Option<u64>,
    /// Heal tallies of the pipeline report already fed to the SLO.
    heals_seen: (usize, usize),
    tally: ServeTally,
    resolved: Vec<Resolution<P>>,
}

impl<P> ServeCore<P> {
    /// A serving instance scrubbing `checkable` layers, judged by
    /// `slo`, observed through `obs`. Its clock starts at 0.
    ///
    /// # Panics
    ///
    /// Panics on zero workers or batch size, or an empty scrub set.
    pub fn new(cfg: CoreConfig, checkable: Vec<usize>, slo: SloEngine, obs: ServeObs) -> Self {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(cfg.batch_max > 0, "need a non-empty batch");
        ServeCore {
            cursor: ScrubCursor::new(checkable, cfg.layers_per_tick),
            slots: (0..cfg.workers).map(|_| None).collect(),
            cfg,
            epoch: 0,
            quarantined: false,
            ledger: CertificationLedger::default(),
            last_fault_ns: 0,
            last_clean_cycle: None,
            heals_seen: (0, 0),
            tally: ServeTally::new(slo, obs),
            resolved: Vec::new(),
        }
    }

    /// True while a quarantine is in progress.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The counters so far.
    pub fn counts(&self) -> ServeCounts {
        self.tally.counts
    }

    /// The instance's SLO engine (the live server's introspection
    /// reads it).
    pub fn slo(&mut self) -> &mut SloEngine {
        &mut self.tally.slo
    }

    /// The requests in flight on worker slot `worker`.
    pub fn batch(&self, worker: usize) -> Option<&[Pending<P>]> {
        self.slots[worker].as_ref().map(|b| b.reqs.as_slice())
    }

    /// True when the instance could take a batch right now: serving,
    /// with a free worker slot (the fleet router's eligibility test).
    pub fn can_dispatch(&self) -> bool {
        !self.quarantined && self.free_worker().is_some()
    }

    /// True when no injection is outstanding: nothing landed, or a
    /// clean scrub cycle started after the last one that did.
    pub fn certified_since_last_fault(&self) -> bool {
        self.tally.counts.faults_injected == 0
            || self
                .last_clean_cycle
                .is_some_and(|c| c > self.last_fault_ns)
    }

    /// Drains the requests resolved since the last call, in order. The
    /// outbox keeps its buffer: the live server drains it on every scrub
    /// tick, and a fresh allocation per tick measurably fragments its
    /// heap.
    pub fn take_resolved(&mut self) -> std::vec::Drain<'_, Resolution<P>> {
        self.resolved.drain(..)
    }

    fn free_worker(&self) -> Option<usize> {
        self.slots.iter().position(Option::is_none)
    }

    fn resolve(&mut self, request: Pending<P>, status: RequestStatus, now: u64) {
        self.tally.resolved(&status, request.arrival_ns, now);
        self.resolved.push(Resolution {
            request,
            status,
            at_ns: now,
        });
    }

    /// Admission control for one arrival into the instance's own
    /// `queue`: a full queue refuses it, quarantined or not. Dispatch is
    /// a separate step ([`ServeCore::dispatch`]).
    ///
    /// # Errors
    ///
    /// [`RejectReason::QueueFull`] (the rejection is also resolved).
    pub fn arrive(
        &mut self,
        queue: &mut RequestQueue<P>,
        req: Pending<P>,
        now: u64,
    ) -> Result<(), RejectReason> {
        queue.admit(req).map_err(|req| {
            let reason = RejectReason::QueueFull;
            self.resolve(req, RequestStatus::Rejected(reason), now);
            reason
        })
    }

    /// Dispatches one batch of up to `batch_max` queued requests into
    /// the lowest free worker slot and returns that slot; `None` when
    /// quarantined, out of work, or out of workers. The driver runs the
    /// slot's forward pass ([`ServeCore::batch`] lists the requests) and
    /// reports back with [`ServeCore::worker_done`].
    pub fn dispatch(&mut self, queue: &mut RequestQueue<P>, now: u64) -> Option<usize> {
        if self.quarantined || queue.is_empty() {
            return None;
        }
        let worker = self.free_worker()?;
        let n = queue.len().min(self.cfg.batch_max);
        let reqs = queue.take(n);
        let obs = &self.tally.obs;
        obs.emit(
            now,
            EventKind::BatchDispatched {
                occupancy: n as u32,
            },
        );
        if let Some(h) = &obs.occupancy {
            h.record(n as u64);
        }
        if let Some(h) = &obs.batch_wait {
            for r in &reqs {
                h.record(now.saturating_sub(r.arrival_ns));
            }
        }
        let counts = &mut self.tally.counts;
        counts.batches += 1;
        counts.batched_requests += n;
        if n == self.cfg.batch_max {
            counts.full_batches += 1;
        }
        self.slots[worker] = Some(InFlight {
            reqs,
            epoch: self.epoch,
        });
        Some(worker)
    }

    /// Worker `worker` finished its batch with `outputs` at `now`. A
    /// batch from before the current epoch ran on suspect weights and
    /// is re-queued; otherwise it waits in the ledger for certification.
    ///
    /// # Panics
    ///
    /// Panics when the worker slot is idle.
    pub fn worker_done(
        &mut self,
        queue: &mut RequestQueue<P>,
        worker: usize,
        outputs: Vec<Tensor>,
        now: u64,
    ) {
        let batch = self.slots[worker].take().expect("worker was busy");
        if batch.epoch != self.epoch {
            self.void(queue, batch.reqs);
        } else {
            self.ledger.record(now, (batch.reqs, outputs));
        }
    }

    /// Suspect work goes back onto the queue for re-execution.
    fn void(&mut self, queue: &mut RequestQueue<P>, reqs: Vec<Pending<P>>) {
        self.tally.counts.reexecuted += reqs.len();
        queue.requeue(reqs);
    }

    /// Starts a scrub tick at `now`: the layers the driver should scrub
    /// and detect.
    pub fn begin_scrub(&mut self, now: u64) -> Vec<usize> {
        self.tally.counts.scrub_ticks += 1;
        self.cursor.begin_tick(now)
    }

    /// Finishes the tick begun by [`ServeCore::begin_scrub`]. A cycle
    /// that completes clean certifies every batch that finished before
    /// it started. A flagged tick quarantines the instance: everything
    /// uncertified goes back onto the queue and dispatch stops until
    /// [`ServeCore::resume`]. Returns true when the tick quarantined; a
    /// driver with a scrub cadence arms its next tick only on false.
    pub fn finish_scrub(&mut self, queue: &mut RequestQueue<P>, flagged: bool, now: u64) -> bool {
        if let Some(cycle_start) = self.cursor.finish_tick(flagged) {
            self.last_clean_cycle = Some(cycle_start);
            for (finish, (reqs, outputs)) in self.ledger.certify_before(cycle_start) {
                if let Some(h) = &self.tally.obs.ledger_hold {
                    h.record(now.saturating_sub(finish));
                }
                for (req, out) in reqs.into_iter().zip(outputs) {
                    self.resolve(req, RequestStatus::Completed(out), now);
                }
            }
        }
        if !flagged {
            return false;
        }
        self.tally.counts.quarantines += 1;
        self.quarantined = true;
        self.epoch += 1;
        self.tally.set_serving(now, false);
        self.tally
            .obs
            .emit(now, EventKind::Quarantine { entered: true });
        if let Some(c) = &self.tally.obs.quarantines {
            c.inc();
        }
        let voided: Vec<Pending<P>> = self
            .ledger
            .invalidate()
            .into_iter()
            .flat_map(|(reqs, _)| reqs)
            .collect();
        self.void(queue, voided);
        true
    }

    /// Feeds the heals `pipeline` counted since the last call into the
    /// heal-exactness SLO and returns them as `(exact, approximate)`.
    pub fn observe_heals(&mut self, now: u64, pipeline: &PipelineReport) -> (usize, usize) {
        let seen = self.heals_seen;
        self.heals_seen = (pipeline.heals_exact, pipeline.heals_approx);
        let delta = (
            pipeline.heals_exact - seen.0,
            pipeline.heals_approx - seen.1,
        );
        self.tally.heals(now, delta.0, delta.1);
        delta
    }

    /// Ends the quarantine: the instance serves again and restarts its
    /// scrub sweep. A driver with a scrub cadence arms its next tick,
    /// then calls [`ServeCore::dispatch`] for what waited.
    pub fn resume(&mut self, now: u64) {
        self.quarantined = false;
        self.tally.set_serving(now, true);
        self.tally
            .obs
            .emit(now, EventKind::Quarantine { entered: false });
        self.cursor.reset();
    }

    /// An injection landed on the weights at `now`: it counts as a
    /// fault, and certification must now see a clean cycle that starts
    /// after it. Chaos injections pass `layer = u32::MAX` and the raw
    /// bits they flipped as `weight`.
    pub fn fault_landed(&mut self, now: u64, layer: u32, weight: u64) {
        self.tally.counts.faults_injected += 1;
        self.last_fault_ns = now;
        if let Some(c) = &self.tally.obs.faults {
            c.inc();
        }
        self.tally
            .obs
            .emit(now, EventKind::FaultInjected { layer, weight });
    }

    /// [`ServeCore::fault_landed`] for a chaos injection that flipped
    /// `bits` raw bits; nothing happens when it flipped none.
    pub fn chaos_landed(&mut self, now: u64, bits: usize) {
        if bits > 0 {
            self.fault_landed(now, u32::MAX, bits as u64);
        }
    }

    /// The shutdown flush: when a final detection pass at `now` came
    /// back `clean`, every finished batch certifies; everything else —
    /// uncertified, in flight, queued — is rejected with
    /// [`RejectReason::Shutdown`].
    pub fn shutdown(&mut self, queue: &mut RequestQueue<P>, clean: bool, now: u64) {
        if clean {
            for (_, (reqs, outputs)) in self.ledger.certify_before(now) {
                for (req, out) in reqs.into_iter().zip(outputs) {
                    self.resolve(req, RequestStatus::Completed(out), now);
                }
            }
        }
        let stranded: Vec<Pending<P>> = self
            .ledger
            .invalidate()
            .into_iter()
            .flat_map(|(reqs, _)| reqs)
            .chain(
                self.slots
                    .iter_mut()
                    .filter_map(Option::take)
                    .flat_map(|b| b.reqs),
            )
            .chain(queue.take(queue.len()))
            .collect();
        for req in stranded {
            self.resolve(req, RequestStatus::Rejected(RejectReason::Shutdown), now);
        }
    }

    /// Closes the run at `now` and assembles the instance's report
    /// (see [`ServeTally::report`]).
    pub fn report(
        &mut self,
        now: u64,
        seed: u64,
        submitted: usize,
        digest: u64,
        pipeline: PipelineReport,
    ) -> ServeReport {
        self.tally.report(now, seed, submitted, digest, pipeline)
    }
}

#[cfg(test)]
mod tests {
    //! Scripted runs of the core alone: no model, no threads, time
    //! passed in by hand.
    use super::*;

    /// One worker slot per `workers`, two checkable layers scrubbed one
    /// per tick (a scrub cycle is two ticks).
    fn core(workers: usize, batch_max: usize) -> (ServeCore<()>, RequestQueue<()>) {
        let cfg = CoreConfig {
            workers,
            batch_max,
            layers_per_tick: 1,
        };
        let core = ServeCore::new(
            cfg,
            vec![0, 1],
            SloEngine::serving_defaults(),
            ServeObs::default(),
        );
        (core, RequestQueue::new(16, None))
    }

    fn req(id: u64, at: u64) -> Pending<()> {
        Pending {
            id,
            arrival_ns: at,
            payload: (),
        }
    }

    /// Dispatches into every free worker slot; returns the slots filled.
    fn fill(c: &mut ServeCore<()>, q: &mut RequestQueue<()>, now: u64) -> Vec<usize> {
        std::iter::from_fn(|| c.dispatch(q, now)).collect()
    }

    /// An arrival at `now` that is admitted and pushed to free workers;
    /// returns the slots filled.
    fn push(c: &mut ServeCore<()>, q: &mut RequestQueue<()>, id: u64, now: u64) -> Vec<usize> {
        c.arrive(q, req(id, now), now).unwrap();
        fill(c, q, now)
    }

    fn out() -> Vec<Tensor> {
        vec![Tensor::zeros(&[1])]
    }

    /// One full clean scrub cycle: two ticks at `at` and `at + 1`.
    fn clean_cycle(c: &mut ServeCore<()>, q: &mut RequestQueue<()>, at: u64) {
        for now in [at, at + 1] {
            c.begin_scrub(now);
            assert!(!c.finish_scrub(q, false, now));
        }
    }

    /// A flagged tick at `at`; returns true when it quarantined.
    fn flag(c: &mut ServeCore<()>, q: &mut RequestQueue<()>, at: u64) -> bool {
        c.begin_scrub(at);
        c.finish_scrub(q, true, at)
    }

    /// `(id, status)` of everything resolved since the last call.
    fn resolved(c: &mut ServeCore<()>) -> Vec<(u64, RequestStatus)> {
        c.take_resolved()
            .map(|r| (r.request.id, r.status))
            .collect()
    }

    fn queued_ids(q: &RequestQueue<()>) -> Vec<u64> {
        q.items.iter().map(|r| r.id).collect()
    }

    const SHUTDOWN: RequestStatus = RequestStatus::Rejected(RejectReason::Shutdown);

    #[test]
    fn a_batch_finishing_after_a_quarantine_is_requeued() {
        let (mut c, mut q) = core(1, 4);
        assert_eq!(push(&mut c, &mut q, 0, 0), vec![0]);
        // The weights go bad while the batch is in flight.
        assert!(flag(&mut c, &mut q, 1));
        c.worker_done(&mut q, 0, out(), 2);
        assert!(resolved(&mut c).is_empty());
        assert_eq!(queued_ids(&q), vec![0]);
        assert_eq!(c.counts().reexecuted, 1);
        // Not dispatched until the quarantine ends.
        assert!(fill(&mut c, &mut q, 3).is_empty());
        assert!(c.batch(0).is_none());
        c.resume(4);
        fill(&mut c, &mut q, 4);
        assert_eq!(c.batch(0).map(<[_]>::len), Some(1));
    }

    #[test]
    fn quarantine_requeues_uncertified_work_ahead_of_the_queue() {
        let (mut c, mut q) = core(1, 1);
        for id in 0..3 {
            push(&mut c, &mut q, id, id);
        }
        // Request 0 finishes and waits for certification; 1 and 2 are
        // still queued behind the single worker.
        c.worker_done(&mut q, 0, out(), 5);
        assert_eq!(queued_ids(&q), vec![1, 2]);
        assert!(flag(&mut c, &mut q, 6));
        assert!(c.is_quarantined());
        assert_eq!(c.counts().quarantines, 1);
        // The voided batch goes back ahead of later arrivals.
        assert!(resolved(&mut c).is_empty());
        assert_eq!(queued_ids(&q), vec![0, 1, 2]);
        assert_eq!(c.counts().reexecuted, 1);
        // Arrivals still queue during a quarantine.
        assert_eq!(c.arrive(&mut q, req(3, 7), 7), Ok(()));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn release_waits_for_a_clean_cycle_that_starts_after_the_finish() {
        let (mut c, mut q) = core(1, 4);
        push(&mut c, &mut q, 0, 0);
        // A cycle that started before the batch finished proves nothing.
        c.begin_scrub(1);
        assert!(!c.finish_scrub(&mut q, false, 1));
        c.worker_done(&mut q, 0, out(), 2);
        c.begin_scrub(3);
        assert!(!c.finish_scrub(&mut q, false, 3));
        assert!(resolved(&mut c).is_empty(), "cycle started at 1 < finish 2");
        // A clean cycle starting after the finish releases it.
        clean_cycle(&mut c, &mut q, 4);
        let released: Vec<_> = c.take_resolved().collect();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].at_ns, 5);
        assert_eq!(
            released[0].status,
            RequestStatus::Completed(Tensor::zeros(&[1]))
        );
        assert_eq!(c.counts().completed, 1);
        assert!(c.certified_since_last_fault());
    }

    #[test]
    fn an_injection_needs_a_later_clean_cycle() {
        let (mut c, mut q) = core(1, 4);
        assert!(c.certified_since_last_fault());
        c.fault_landed(10, 0, 3);
        clean_cycle(&mut c, &mut q, 5);
        assert!(
            !c.certified_since_last_fault(),
            "cycle began before the fault"
        );
        clean_cycle(&mut c, &mut q, 11);
        assert!(c.certified_since_last_fault());
        // A chaos injection that flipped nothing did not land.
        c.chaos_landed(20, 0);
        assert!(c.certified_since_last_fault());
        assert_eq!(c.counts().faults_injected, 1);
    }

    #[test]
    fn a_full_batch_dispatches_at_once() {
        let (mut c, mut q) = core(1, 2);
        c.arrive(&mut q, req(0, 0), 0).unwrap();
        c.arrive(&mut q, req(1, 1), 1).unwrap();
        assert_eq!(fill(&mut c, &mut q, 1), vec![0]);
        assert_eq!(c.batch(0).map(<[_]>::len), Some(2));
        assert_eq!(c.counts().batches, 1);
        assert_eq!(c.counts().full_batches, 1);
    }

    #[test]
    fn dispatch_fills_the_lowest_free_slot() {
        let (mut c, mut q) = core(2, 1);
        // Out of work.
        assert_eq!(c.dispatch(&mut q, 0), None);
        for id in 0..4 {
            c.arrive(&mut q, req(id, 0), 0).unwrap();
        }
        assert_eq!(c.dispatch(&mut q, 1), Some(0));
        assert_eq!(c.dispatch(&mut q, 1), Some(1));
        // Every slot is busy: the queued work stays put.
        assert_eq!(c.dispatch(&mut q, 2), None);
        assert_eq!(queued_ids(&q), vec![2, 3]);
        // A freed slot is the lowest free one again.
        c.worker_done(&mut q, 0, out(), 3);
        assert_eq!(c.dispatch(&mut q, 3), Some(0));
        assert_eq!(c.batch(0).map(|b| b[0].id), Some(2));
        c.worker_done(&mut q, 1, out(), 4);
        // Quarantined: a free slot and queued work, but no dispatch.
        assert!(flag(&mut c, &mut q, 5));
        assert_eq!(c.dispatch(&mut q, 6), None);
        c.resume(7);
        assert_eq!(c.dispatch(&mut q, 7), Some(1));
    }

    #[test]
    fn shutdown_certifies_finished_work_and_rejects_the_rest() {
        for clean in [true, false] {
            let (mut c, mut q) = core(2, 1);
            for id in 0..3 {
                push(&mut c, &mut q, id, 0);
            }
            // 0 finished, 1 is still in flight, 2 is queued.
            c.worker_done(&mut q, 0, out(), 3);
            c.shutdown(&mut q, clean, 10);
            let finished = if clean {
                RequestStatus::Completed(Tensor::zeros(&[1]))
            } else {
                SHUTDOWN
            };
            assert_eq!(
                resolved(&mut c),
                vec![(0, finished), (1, SHUTDOWN), (2, SHUTDOWN)]
            );
            assert!(q.is_empty());
            assert!(c.batch(1).is_none());
            let report = c.report(10, 0, 3, 0, PipelineReport::default());
            assert_eq!(report.completed + report.rejected, 3);
            assert_eq!(report.completed, usize::from(clean));
        }
    }
}

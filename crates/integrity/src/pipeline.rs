//! The integrity state machine: one explicit
//! `Scrub → Detect → Heal → Classify → Escalate → Verify → Reprotect →
//! Anchor` loop, shared by every driver that used to hand-roll it.
//!
//! A pipeline lives as long as its host: recurring **ticks**
//! ([`IntegrityPipeline::tick`]) run the Scrub and Detect stages over a
//! cursor chunk, and a flagged detection starts a **heal episode** —
//! one or more [`IntegrityPipeline::heal_round`] calls, each running
//! Heal → Classify → Escalate → Verify, ending in Reprotect → Anchor
//! once verification comes back clean. Drivers that own the clock
//! (the discrete-event simulators) call `heal_round` once per
//! scheduled event; wall-clock drivers loop with
//! [`IntegrityPipeline::run`], or — when the tick that flagged decoded
//! every shard — with [`IntegrityPipeline::heal_tick`], which heals
//! from that tick's decode and detection instead of repeating both.
//!
//! ## The steady-state fast path
//!
//! The engine tracks which layers each episode actually touched (the
//! *suspect set*: layers flagged by detection or rewritten by a heal).
//! Post-heal verification replays only those layers through
//! [`Milr::detect_layers`] instead of re-detecting the whole model.
//! On an `N`-layer model with one flagged layer this turns the hot
//! recovery path's verification from `O(N)` layer replays into `O(1)`;
//! the `integrity_bench` binary measures the win per substrate.
//!
//! The subset check is sound exactly when nothing outside the suspect
//! set can change during the engine call — true for **atomic**
//! drivers: a single-threaded boot (cold start) or a discrete-event
//! simulator whose faults land only between events. A threaded host
//! is different: a fault can land in an unverified layer between the
//! subset verify and the re-protect, and re-protection would bake it
//! into the new CRC baseline where no future scrub could ever see it.
//! Such drivers construct the pipeline
//! [`with_reprotect_gate`](IntegrityPipeline::with_reprotect_gate):
//! after every write-back the engine decodes and detects the **whole**
//! model, loops back into healing from that snapshot if anything is
//! flagged, and otherwise re-protects exactly that snapshot — the old
//! loops' protect-only-a-fully-verified-snapshot contract. On a gated
//! pipeline that gate *is* the Verify stage: a suspect-only fast verify
//! in front of it would re-check a subset of what the gate checks next.

use crate::host::ModelHost;
use crate::policy::{Anchored, Budget, DurabilityPolicy, EscalationPolicy, Flushed};
use crate::report::PipelineReport;
use crate::IntegrityError;
use milr_core::{DetectionReport, Milr};
use milr_nn::Sequential;
use milr_obs::{EventKind, SpanHandle, SpanTree, TraceHandle};
use milr_substrate::ScrubSummary;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A callable stage seam: invoked with the stage's name every time the
/// pipeline enters a stage — the store's kill-point observers
/// generalized to any pipeline driver. Chaos campaigns attach one to
/// fire torn writes mid-heal (the hook runs *before* the stage body);
/// crash-consistency suites snapshot backing files from it. Cloning
/// shares the underlying callback.
#[derive(Clone)]
pub struct StageHook(Arc<Mutex<dyn FnMut(&'static str) + Send>>);

impl StageHook {
    /// Wraps a callback.
    pub fn new(f: impl FnMut(&'static str) + Send + 'static) -> Self {
        StageHook(Arc::new(Mutex::new(f)))
    }

    /// Invokes the callback with a stage name.
    pub fn fire(&self, stage: &'static str) {
        (self.0.lock().expect("stage hook poisoned"))(stage);
    }
}

impl std::fmt::Debug for StageHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("StageHook")
    }
}

/// The explicit stages of the integrity loop, in order. Carried on
/// timing counters and useful for logging; the pipeline itself
/// advances through them structurally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Substrate-level repair pass (ECC scrub).
    Scrub,
    /// MILR detection (full pass or cursor chunk).
    Detect,
    /// MILR recovery of the flagged layers.
    Heal,
    /// Partition recovery outcomes into accepted and escalated.
    Classify,
    /// Hand irrecoverable layers to the escalation policy.
    Escalate,
    /// Re-check after a write-back: the suspect layers (fast path), or
    /// the whole model on gated pipelines (the Reprotect gate).
    Verify,
    /// Re-protect against the healed state.
    Reprotect,
    /// Durably commit the new (weights, artifacts) pair.
    Anchor,
}

impl Stage {
    /// The stage's static name, as carried on `StageEntered` trace
    /// events.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Scrub => "Scrub",
            Stage::Detect => "Detect",
            Stage::Heal => "Heal",
            Stage::Classify => "Classify",
            Stage::Escalate => "Escalate",
            Stage::Verify => "Verify",
            Stage::Reprotect => "Reprotect",
            Stage::Anchor => "Anchor",
        }
    }
}

/// What one tick's Scrub + Detect stages found.
#[derive(Debug, Clone)]
pub struct TickOutcome {
    /// Substrate scrub counts over the chunk.
    pub scrub: ScrubSummary,
    /// Detection over the chunk.
    pub detection: DetectionReport,
    /// The chunk's decode, kept when detection flagged and the chunk
    /// covered every shard: then the decode is a whole model and the
    /// detection is a full one, so
    /// [`heal_tick`](IntegrityPipeline::heal_tick) heals from them
    /// without decoding or detecting again. `None` on a clean tick or
    /// a partial chunk.
    pub snapshot: Option<Sequential>,
}

/// How one heal round ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Verification came back clean. If the episode healed anything,
    /// protection was re-anchored to the healed state;
    /// `reanchored` is true when that re-anchor was committed durably.
    Clean {
        /// True when a durable anchor commit succeeded this episode.
        reanchored: bool,
    },
    /// Verification still flags layers and budget remains: call
    /// [`IntegrityPipeline::heal_round`] again (simulators charge
    /// virtual time in between).
    Retry {
        /// The layers still flagged.
        flagged: Vec<usize>,
    },
    /// The round budget is exhausted under
    /// [`EscalationPolicy::Quarantine`]: resume serving; the next
    /// scrub cycle re-quarantines.
    GaveUp {
        /// The layers still flagged.
        flagged: Vec<usize>,
    },
    /// Recovery classified layers beyond exact healing under
    /// [`EscalationPolicy::PeerRepair`]: exact heals (if any) are
    /// written back, the rest await certified pages from a peer.
    Escalate {
        /// Layers healed exactly and written back this round.
        healed: Vec<usize>,
        /// Layers whose recovery came back min-norm or failed; their
        /// substrate shards are left untouched.
        escalated: Vec<usize>,
    },
}

/// The shared integrity engine. See the module docs for the stage
/// walk; construct one per host (policies fixed at construction) and
/// drive it with [`tick`](IntegrityPipeline::tick),
/// [`heal_round`](IntegrityPipeline::heal_round) /
/// [`run`](IntegrityPipeline::run), and — after a peer repair import —
/// [`reprotect_and_anchor`](IntegrityPipeline::reprotect_and_anchor).
#[derive(Debug, Clone)]
pub struct IntegrityPipeline {
    escalation: EscalationPolicy,
    budget: Budget,
    timed: bool,
    /// Concurrent-host mode: re-detect the whole snapshot immediately
    /// before every Reprotect (see the module docs).
    gated: bool,
    /// Heal rounds spent in the current episode.
    rounds: usize,
    /// Layers flagged or rewritten this episode — the fast-path verify
    /// set. Everything outside it kept its clean epoch.
    suspect: Vec<usize>,
    /// Whether this episode changed stored state (gates Reprotect +
    /// Anchor; scrub corrections count as heals).
    healed: bool,
    /// The flag set of the episode's opening full detection.
    last_flagged: Vec<usize>,
    report: PipelineReport,
    /// Structured event sink, when a driver attached one.
    trace: Option<TraceHandle>,
    /// Stage seam callback, when a driver attached one. Fired with the
    /// stage name on every stage entry, before the stage body runs.
    hook: Option<StageHook>,
    /// Completed-span ring, when a driver attached one. Each engine
    /// call (tick, heal round, re-anchor) builds one span tree —
    /// entry → stage → layer — stamped with the driver clock (plus
    /// wall offsets on timed pipelines) and pushes it here.
    spans: Option<SpanHandle>,
    /// In-flight span tree of the current engine call.
    tree: SpanTree,
    /// Wall anchor of the current engine call on timed pipelines, so
    /// span stamps carry intra-call offsets on top of `now`.
    call_started: Option<Instant>,
    /// Source id stamped on emitted events (replica index, or 0).
    src: u32,
    /// The driver's clock, in nanoseconds: virtual time in simulators,
    /// wall time since start in live drivers. Events are stamped with
    /// this value — the pipeline never reads a clock of its own, which
    /// is what keeps sim traces seed-reproducible.
    now: u64,
}

/// Ascending, deduplicated union of two layer sets.
fn union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out: Vec<usize> = a.iter().chain(b.iter()).copied().collect();
    out.sort_unstable();
    out.dedup();
    out
}

impl IntegrityPipeline {
    /// A pipeline with the given escalation policy and budget, without
    /// stage timing (virtual-clock drivers: keeps embedded reports
    /// seed-deterministic).
    pub fn new(escalation: EscalationPolicy, budget: Budget) -> Self {
        IntegrityPipeline {
            escalation,
            budget,
            timed: false,
            gated: false,
            rounds: 0,
            suspect: Vec::new(),
            healed: false,
            last_flagged: Vec::new(),
            report: PipelineReport::default(),
            trace: None,
            hook: None,
            spans: None,
            tree: SpanTree::new(),
            call_started: None,
            src: 0,
            now: 0,
        }
    }

    /// Attaches a structured trace sink; emitted events carry `src` as
    /// their source id. Tracing never changes pipeline behaviour or
    /// its report — attaching a recorder to a seeded simulation leaves
    /// every golden digest byte-identical.
    pub fn attach_trace(&mut self, trace: TraceHandle, src: u32) {
        self.trace = Some(trace);
        self.src = src;
    }

    /// Attaches a span ring: every subsequent engine call (tick, heal
    /// round, re-anchor) pushes one completed span tree — entry →
    /// stage → layer. Spans are stamped with the driver clock
    /// ([`set_now`](IntegrityPipeline::set_now)), so simulator span
    /// streams are byte-identical per seed; timed pipelines add the
    /// intra-call wall offset on top. Like tracing, attaching spans
    /// never changes behaviour or a report byte.
    pub fn attach_spans(&mut self, spans: SpanHandle) {
        self.spans = Some(spans);
    }

    /// Attaches a stage seam hook, fired with the stage name on every
    /// stage entry (before the stage body). The hook observes — and,
    /// for chaos campaigns, corrupts — storage at exactly the seams
    /// the store's kill-point observers expose for the journal, so
    /// torn-write-mid-heal scenarios run against serve and fleet too.
    pub fn attach_stage_hook(&mut self, hook: StageHook) {
        self.hook = Some(hook);
    }

    /// Sets the driver clock used to stamp subsequently emitted
    /// events. Simulators pass their virtual clock before each engine
    /// call; wall-clock drivers pass elapsed time since start.
    pub fn set_now(&mut self, ns: u64) {
        self.now = ns;
    }

    #[inline]
    fn emit(&self, kind: EventKind) {
        if let Some(trace) = &self.trace {
            trace.emit(self.now, self.src, kind);
        }
    }

    #[inline]
    fn enter(&mut self, stage: Stage) {
        if let Some(hook) = &self.hook {
            hook.fire(stage.name());
        }
        self.emit(EventKind::StageEntered {
            stage: stage.name(),
        });
        if self.spans.is_some() && self.tree.depth() > 0 {
            // Stage children sit flat under the engine-call root:
            // close whatever stage (and its layer children) is open,
            // then open the new one.
            let ns = self.span_now();
            while self.tree.depth() > 1 {
                self.tree.close(ns);
            }
            self.tree.open(ns, stage.name(), 0);
        }
    }

    /// The span stamp for "now": the driver clock, plus the wall
    /// offset into the current engine call on timed pipelines (the
    /// virtual clock never advances mid-call, the wall clock does).
    #[inline]
    fn span_now(&self) -> u64 {
        match &self.call_started {
            Some(t0) => self.now + t0.elapsed().as_nanos() as u64,
            None => self.now,
        }
    }

    /// Opens the root span of one engine call. Any tree left open by
    /// an errored-out previous call is sealed first, so the stream
    /// stays well formed.
    fn span_root(&mut self, name: &'static str, tag: u64) {
        let Some(spans) = self.spans.clone() else {
            return;
        };
        spans.push_all(self.tree.finish(self.span_now()));
        self.call_started = self.timed.then(Instant::now);
        self.tree.open(self.now, name, tag);
    }

    /// Closes the engine call's root span (and any open stage under
    /// it) and pushes the completed tree into the ring.
    fn span_seal(&mut self) {
        let Some(spans) = self.spans.clone() else {
            return;
        };
        spans.push_all(self.tree.finish(self.span_now()));
        self.call_started = None;
    }

    /// Records a zero-width layer child under the currently open
    /// stage span (per-layer wall timing is not observable — the
    /// engine heals and verifies layers in batches — but which layers
    /// a stage touched is).
    fn span_layer(&mut self, layer: usize) {
        if self.spans.is_some() && self.tree.depth() > 1 {
            let ns = self.span_now();
            self.tree.open(ns, "layer", layer as u64);
            self.tree.close(ns);
        }
    }

    /// Enables wall-clock stage timing (live servers, cold starts,
    /// benches).
    pub fn with_wall_timing(mut self) -> Self {
        self.timed = true;
        self
    }

    /// Enables the Reprotect gate for hosts where faults can land
    /// concurrently with the engine call (the threaded server): the
    /// engine re-detects the **whole** snapshot it is about to
    /// re-protect and loops back into healing if anything new is
    /// flagged. Atomic drivers (boot-time cold starts, discrete-event
    /// simulators) omit this and keep the pure fast path.
    pub fn with_reprotect_gate(mut self) -> Self {
        self.gated = true;
        self
    }

    /// The accumulated per-stage report.
    pub fn report(&self) -> &PipelineReport {
        &self.report
    }

    /// Consumes the pipeline, yielding its report.
    pub fn into_report(self) -> PipelineReport {
        self.report
    }

    /// The flag set of the current (or most recent) episode's opening
    /// detection pass.
    pub fn last_flagged(&self) -> &[usize] {
        &self.last_flagged
    }

    /// True when the episode has spent its whole heal-round budget.
    pub fn budget_exhausted(&self) -> bool {
        self.rounds >= self.budget.max_heal_rounds
    }

    /// The budget policy this pipeline runs under.
    pub fn budget(&self) -> Budget {
        self.budget
    }

    /// Whether the current episode has changed stored state.
    pub fn healed(&self) -> bool {
        self.healed
    }

    /// Grants a fresh heal-round budget mid-episode (a fleet replica
    /// re-enters the heal ladder after a rejected peer import). The
    /// next round re-detects from scratch; anything already healed
    /// still gates the eventual re-anchor.
    pub fn reset_budget(&mut self) {
        self.rounds = 0;
        self.suspect.clear();
    }

    fn stamp(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn lap(&mut self, t0: Option<Instant>, stage: Stage) {
        let Some(t0) = t0 else { return };
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &mut self.report.stage_ns;
        match stage {
            Stage::Scrub => s.scrub += ns,
            Stage::Detect => s.detect += ns,
            Stage::Heal | Stage::Classify | Stage::Escalate => s.heal += ns,
            Stage::Verify => s.verify += ns,
            Stage::Reprotect => s.reprotect += ns,
            Stage::Anchor => s.anchor += ns,
        }
    }

    /// Scrub-stage bookkeeping shared by full and chunk scrubs: ECC
    /// corrections are heals — they are flushed through the journal and
    /// make the episode's eventual re-anchor mandatory.
    fn note_scrub(
        &mut self,
        summary: &ScrubSummary,
        host: &ModelHost,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<(), IntegrityError> {
        self.report.scrub_corrected += summary.corrected;
        self.report.scrub_uncorrectable += summary.uncorrectable;
        if summary.corrected > 0 {
            self.healed = true;
            if durability.flush(host)? == Flushed::Failed {
                self.report.durability_errors += 1;
            }
        }
        Ok(())
    }

    /// The Scrub stage over **every** shard — the cold-start entry:
    /// run the substrate's own repair pass and persist its corrections
    /// before the first detection.
    ///
    /// # Errors
    ///
    /// Propagates strict durability failures.
    pub fn scrub_full(
        &mut self,
        host: &ModelHost,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<ScrubSummary, IntegrityError> {
        self.span_root("scrub_full", 0);
        self.enter(Stage::Scrub);
        let t = self.stamp();
        let summary = host.store().scrub();
        self.lap(t, Stage::Scrub);
        let noted = self.note_scrub(&summary, host, durability);
        self.span_seal();
        noted?;
        Ok(summary)
    }

    /// One recurring tick: the Scrub and Detect stages over a cursor
    /// chunk. A flagged [`TickOutcome::detection`] is the driver's cue
    /// to quarantine and start calling
    /// [`heal_round`](IntegrityPipeline::heal_round), or to hand the
    /// outcome to [`heal_tick`](IntegrityPipeline::heal_tick): a flagged
    /// tick whose chunk covered every shard keeps its decode as
    /// [`TickOutcome::snapshot`] (the host clones a fresh skeleton at
    /// the next tick).
    ///
    /// # Errors
    ///
    /// Propagates detection and strict durability failures.
    pub fn tick(
        &mut self,
        host: &ModelHost,
        milr: &Milr,
        chunk: &[usize],
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<TickOutcome, IntegrityError> {
        self.span_root("tick", chunk.len() as u64);
        let outcome = self.tick_inner(host, milr, chunk, durability);
        self.span_seal();
        outcome
    }

    fn tick_inner(
        &mut self,
        host: &ModelHost,
        milr: &Milr,
        chunk: &[usize],
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<TickOutcome, IntegrityError> {
        // The Scrub stage repairs and decodes the chunk in one pass; the
        // Detect stage checks that decode. A write landing after the
        // pass (at the Detect seam) is seen by the next cycle.
        self.enter(Stage::Scrub);
        let t = self.stamp();
        let (scrub, live) = host.scrub_read_layers(chunk);
        self.lap(t, Stage::Scrub);
        self.note_scrub(&scrub, host, durability)?;
        self.enter(Stage::Detect);
        let t = self.stamp();
        let detection = milr.detect_layers(&live, chunk)?;
        let whole = host.param_layers().iter().all(|l| chunk.contains(l));
        let snapshot = (whole && !detection.is_clean()).then(|| live.into_model());
        self.lap(t, Stage::Detect);
        self.report.chunk_detects += 1;
        self.report.layers_checked += detection.checks.len();
        for &layer in &detection.flagged {
            self.span_layer(layer);
            self.emit(EventKind::ScrubFlagged {
                layer: layer as u32,
            });
        }
        Ok(TickOutcome {
            scrub,
            detection,
            snapshot,
        })
    }

    /// One heal round: a full Detect pass, then Heal → Classify →
    /// Escalate → Verify, closing with Reprotect → Anchor when
    /// verification is clean. Each call re-detects from scratch, so
    /// event-driven drivers that let virtual time pass between rounds
    /// (the simulators) start every round from the host's current
    /// state — exactly like the loops this engine replaced.
    ///
    /// Running this on an already-clean host is a strict no-op: no
    /// write-back, no re-protect, no anchor, and a report whose
    /// mutation counters stay zero.
    ///
    /// # Errors
    ///
    /// Propagates detection/recovery/protection failures and strict
    /// durability failures; returns
    /// [`IntegrityError::BudgetExhausted`] when the round budget runs
    /// out under [`EscalationPolicy::Fail`] or
    /// [`EscalationPolicy::PeerRepair`].
    pub fn heal_round(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        self.span_root("heal_round", self.rounds as u64);
        let outcome = self.heal_round_inner(host, milr, durability);
        self.span_seal();
        outcome
    }

    fn heal_round_inner(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        // ---- Detect ----------------------------------------------
        self.enter(Stage::Detect);
        let t = self.stamp();
        let live = host.materialize();
        let detection = milr.detect(&live)?;
        self.lap(t, Stage::Detect);
        self.report.full_detects += 1;
        self.report.layers_checked += detection.checks.len();
        if self.rounds == 0 {
            self.last_flagged = detection.flagged.clone();
        }
        self.round_with(detection.flagged, Some(live), host, milr, durability)
    }

    /// The round body past Detect: `flagged` is this round's flag set,
    /// `live` the snapshot it was observed on (when available — a tick's
    /// carried decode, or the Reprotect gate's; a failed fast verify
    /// inside [`run`](IntegrityPipeline::run) carries only its flags).
    fn round_with(
        &mut self,
        flagged: Vec<usize>,
        live: Option<Sequential>,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        if flagged.is_empty() {
            return self.finish_clean(host, milr, durability);
        }
        if self.budget_exhausted() {
            return match self.escalation {
                EscalationPolicy::Fail | EscalationPolicy::PeerRepair => {
                    Err(IntegrityError::BudgetExhausted {
                        rounds: self.rounds,
                        flagged,
                    })
                }
                EscalationPolicy::Quarantine => {
                    // Give the damage back to the scrubber with a fresh
                    // budget: the next quarantine episode must get its
                    // full complement of rounds (layers already healed
                    // this episode still gate the eventual re-anchor).
                    self.rounds = 0;
                    Ok(RoundOutcome::GaveUp { flagged })
                }
            };
        }
        self.rounds += 1;
        self.report.heal_rounds += 1;

        // ---- Heal ------------------------------------------------
        self.enter(Stage::Heal);
        let t = self.stamp();
        let mut live = match live {
            Some(live) => live,
            None => host.materialize(),
        };
        let recovery = milr.recover_layers(&mut live, &flagged)?;
        self.lap(t, Stage::Heal);
        for (layer, outcome) in &recovery.outcomes {
            self.span_layer(*layer);
            if outcome.is_exact() {
                self.report.heals_exact += 1;
            } else {
                self.report.heals_approx += 1;
            }
            self.emit(EventKind::HealOutcome {
                layer: *layer as u32,
                exact: outcome.is_exact(),
            });
        }

        // ---- Classify --------------------------------------------
        self.enter(Stage::Classify);
        let (accepted, escalated): (Vec<usize>, Vec<usize>) = match self.escalation {
            // Never serve an approximation: only bit-exact outcomes
            // are written back, the rest go to a peer.
            EscalationPolicy::PeerRepair => (
                recovery
                    .outcomes
                    .iter()
                    .filter(|(_, o)| o.is_exact())
                    .map(|(i, _)| *i)
                    .collect(),
                recovery.irrecoverable(),
            ),
            // Single-instance policies accept whatever recovery
            // produced; verification (and re-protection) decides.
            _ => (flagged.clone(), Vec::new()),
        };
        if !accepted.is_empty() {
            let t = self.stamp();
            host.write_back(&live, &accepted);
            self.healed = true;
            self.report.layers_healed += accepted.len();
            let flushed = durability.flush(host);
            self.lap(t, Stage::Heal);
            if flushed? == Flushed::Failed {
                self.report.durability_errors += 1;
            }
        }

        // ---- Escalate --------------------------------------------
        if !escalated.is_empty() {
            self.enter(Stage::Escalate);
            self.report.layers_escalated += escalated.len();
            self.suspect = union(&self.suspect, &accepted);
            return Ok(RoundOutcome::Escalate {
                healed: accepted,
                escalated,
            });
        }

        // ---- Verify ----------------------------------------------
        self.suspect = union(&self.suspect, &flagged);
        if self.gated {
            // The Reprotect gate's full detection is this round's
            // verification.
            return self.gate(host, milr, durability);
        }
        self.enter(Stage::Verify);
        let t = self.stamp();
        let live = host.materialize_layers(&self.suspect);
        let verify = milr.detect_layers(&live, &self.suspect)?;
        self.lap(t, Stage::Verify);
        self.report.fast_verifies += 1;
        self.report.layers_checked += verify.checks.len();
        self.report.layers_skipped += milr.checkable_count().saturating_sub(self.suspect.len());
        if verify.is_clean() {
            self.finish_clean(host, milr, durability)
        } else {
            Ok(RoundOutcome::Retry {
                flagged: verify.flagged,
            })
        }
    }

    /// Runs heal rounds back to back until the episode resolves — the
    /// wall-clock drivers' loop (cold start, benches). Never returns
    /// [`RoundOutcome::Retry`]. The episode opens with a full Detect
    /// pass; inside the loop a failed verify's flags feed the next
    /// round directly (no redundant re-detect); the rounds are back to
    /// back, so nothing the opening detect certified can have changed
    /// meanwhile that the closing verification (or, on gated
    /// pipelines, the Reprotect gate) would not catch.
    ///
    /// # Errors
    ///
    /// See [`heal_round`](IntegrityPipeline::heal_round).
    pub fn run(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        self.heal_loop(None, host, milr, durability)
    }

    /// [`run`](IntegrityPipeline::run) for the episode a tick just
    /// flagged — the threaded server's recovery entry. When the tick
    /// carried a [`TickOutcome::snapshot`], the first round heals from
    /// that decode with the tick's flags: no opening decode, no opening
    /// detect. Without one (a clean tick, or a partial chunk whose flags
    /// are not a full detection) this is exactly `run`.
    ///
    /// Sound on concurrent hosts only with the Reprotect gate: a fault
    /// landing between the tick and this call outside the tick's flags
    /// is caught by the gate's full detection after the write-back.
    ///
    /// # Errors
    ///
    /// See [`heal_round`](IntegrityPipeline::heal_round).
    pub fn heal_tick(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        tick: TickOutcome,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        let opening = tick.snapshot.map(|live| {
            if self.rounds == 0 {
                self.last_flagged = tick.detection.flagged.clone();
            }
            (tick.detection.flagged, Some(live))
        });
        self.heal_loop(opening, host, milr, durability)
    }

    /// The loop behind [`run`](IntegrityPipeline::run) and
    /// [`heal_tick`](IntegrityPipeline::heal_tick): `carried` is the
    /// next round's flags, with the decode they were observed on when
    /// there is one; without it the round detects for itself.
    fn heal_loop(
        &mut self,
        mut carried: Option<(Vec<usize>, Option<Sequential>)>,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        loop {
            let outcome = match carried.take() {
                Some((flagged, live)) => {
                    self.span_root("heal_round", self.rounds as u64);
                    let outcome = self.round_with(flagged, live, host, milr, durability);
                    self.span_seal();
                    outcome?
                }
                None => self.heal_round(host, milr, durability)?,
            };
            match outcome {
                RoundOutcome::Retry { flagged } => carried = Some((flagged, None)),
                outcome => return Ok(outcome),
            }
        }
    }

    /// The Reprotect and Anchor stages, unconditionally: re-protects
    /// against the current live weights and durably commits the new
    /// (weights, artifacts) pair — the re-admission step after a
    /// peer-repair import, whose caller just ran its own full
    /// verification. Ends the episode.
    ///
    /// Returns true when the anchor was committed durably.
    ///
    /// # Errors
    ///
    /// Propagates protection failures and strict durability failures.
    pub fn reprotect_and_anchor(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<bool, IntegrityError> {
        self.span_root("reanchor", 0);
        let live = self.decode_for_reprotect(host);
        let anchored = self.reprotect_snapshot(live, host, milr, durability);
        self.span_seal();
        anchored
    }

    /// Re-protects and anchors exactly `live` — the snapshot the
    /// caller has verified. Ends the episode.
    fn reprotect_snapshot(
        &mut self,
        live: Sequential,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<bool, IntegrityError> {
        self.enter(Stage::Reprotect);
        let t = self.stamp();
        milr.reprotect(&live)?;
        self.lap(t, Stage::Reprotect);
        self.report.reprotects += 1;
        self.enter(Stage::Anchor);
        let t = self.stamp();
        let anchored = match durability.anchor(milr, &live, host)? {
            Anchored::Durable => {
                self.report.anchors += 1;
                true
            }
            Anchored::VolatileOnly => false,
            Anchored::Failed => {
                self.report.durability_errors += 1;
                false
            }
        };
        self.lap(t, Stage::Anchor);
        self.emit(EventKind::Reanchor { durable: anchored });
        self.end_episode();
        Ok(anchored)
    }

    fn finish_clean(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        if !self.healed {
            // Strict no-op: an already-clean episode neither
            // re-protects nor re-anchors.
            self.end_episode();
            return Ok(RoundOutcome::Clean { reanchored: false });
        }
        if self.gated {
            return self.gate(host, milr, durability);
        }
        let live = self.decode_for_reprotect(host);
        let reanchored = self.reprotect_snapshot(live, host, milr, durability)?;
        Ok(RoundOutcome::Clean { reanchored })
    }

    /// The Reprotect gate (concurrent hosts), run as the Verify stage:
    /// only a snapshot that passed a *full* detection may become the
    /// new baseline — a fault that landed outside the suspect set
    /// during this episode must heal now, not get certified forever.
    /// A flagged gate heals from its own snapshot; a clean one
    /// re-protects exactly that snapshot.
    fn gate(
        &mut self,
        host: &ModelHost,
        milr: &mut Milr,
        durability: &mut dyn DurabilityPolicy,
    ) -> Result<RoundOutcome, IntegrityError> {
        self.enter(Stage::Verify);
        let t = self.stamp();
        let live = host.materialize();
        let detection = milr.detect(&live)?;
        self.lap(t, Stage::Verify);
        self.report.full_detects += 1;
        self.report.layers_checked += detection.checks.len();
        if !detection.is_clean() {
            return self.round_with(detection.flagged, Some(live), host, milr, durability);
        }
        let reanchored = self.reprotect_snapshot(live, host, milr, durability)?;
        Ok(RoundOutcome::Clean { reanchored })
    }

    /// The whole-model decode an ungated re-protect runs on, timed
    /// into Reprotect.
    fn decode_for_reprotect(&mut self, host: &ModelHost) -> Sequential {
        let t = self.stamp();
        let live = host.materialize();
        self.lap(t, Stage::Reprotect);
        live
    }

    fn end_episode(&mut self) {
        self.rounds = 0;
        self.suspect.clear();
        self.healed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_sorts_and_dedups() {
        assert_eq!(union(&[4, 0], &[0, 2]), vec![0, 2, 4]);
        assert_eq!(union(&[], &[]), Vec::<usize>::new());
    }
}

//! The seeded workload and chaos overlay both simulators draw from.
//!
//! The single-instance simulation ([`crate::sim`]) and the fleet
//! simulation (`milr-fleet`) replay the same seeded streams: exponential
//! arrivals with uniform inputs, a fault campaign over the middle of the
//! workload window, and an optional [`ChaosSpec`] overlay — correlated
//! bursts, stuck-at cells, torn writes fired at pipeline seams. Each
//! stream has its own RNG keyed off the run seed, so enabling one never
//! perturbs another. The discrete-event [`EventQueue`] both simulations
//! run on lives here too.

use crate::request::{RequestOutcome, RequestStatus};
use crate::serve_core::{Pending, Resolution, ServeCore};
use milr_core::{Milr, SolvingPlan};
use milr_fault::{
    milli, plan_burst, plan_stuck_at, ChaosSpec, FaultRng, SkewSpec, StuckAtPlan, StuckAtSpec,
};
use milr_integrity::StageHook;
use milr_nn::{Layer, Sequential};
use milr_substrate::SharedSubstrate;
use milr_tensor::{Tensor, TensorRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A deterministic discrete-event queue over virtual time.
///
/// Events pop earliest-first; equal timestamps break ties by schedule
/// order (a monotone sequence number), so the pop order is a pure
/// function of the schedule history — the property every seeded
/// simulation's bit-reproducibility contract rests on.
#[derive(Debug)]
pub struct EventQueue<E> {
    events: BTreeMap<(u64, u64), E>,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: BTreeMap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at virtual time `time`.
    pub fn schedule(&mut self, time: u64, event: E) {
        self.seq += 1;
        self.events.insert((time, self.seq), event);
    }

    /// Pops the earliest event (schedule order breaking ties).
    pub fn pop(&mut self) -> Option<(u64, E)> {
        self.events
            .pop_first()
            .map(|((time, _), event)| (time, event))
    }
}

/// A seeded open-loop workload and the terminal state of each request.
#[derive(Debug, Clone)]
pub struct Workload {
    inputs: Vec<Tensor>,
    arrivals: Vec<u64>,
    resolved: Vec<Option<(u64, RequestStatus)>>,
    open: usize,
}

impl Workload {
    /// `requests` exponential arrivals with mean gap `mean_arrival_ns`
    /// (scaled by a chaos `skew`) carrying uniform inputs of `shape`.
    pub fn generate(
        seed: u64,
        requests: usize,
        mean_arrival_ns: u64,
        shape: &[usize],
        skew: Option<&SkewSpec>,
    ) -> Self {
        let mut input_rng = TensorRng::new(seed ^ 0x1A7E57);
        let mut arrival_rng = FaultRng::seed(seed ^ 0xA441);
        let mut inputs = Vec::with_capacity(requests);
        let mut arrivals = Vec::with_capacity(requests);
        let mut t = 0u64;
        for _ in 0..requests {
            let gap = -arrival_rng.unit().max(f64::MIN_POSITIVE).ln() * mean_arrival_ns as f64;
            let mut gap_ns = (gap as u64).max(1);
            if let Some(sk) = skew {
                gap_ns = SkewSpec::scale(gap_ns, sk.arrival_milli);
            }
            t += gap_ns;
            arrivals.push(t);
            inputs.push(input_rng.uniform_tensor(shape));
        }
        Workload {
            inputs,
            arrivals,
            resolved: vec![None; requests],
            open: requests,
        }
    }

    /// The last arrival: the end of the workload window.
    pub fn horizon(&self) -> u64 {
        self.arrivals.last().copied().unwrap_or(0)
    }

    /// Arrival time of request `id`.
    pub fn arrival(&self, id: usize) -> u64 {
        self.arrivals[id]
    }

    /// Request `id` as the serving core admits it.
    pub fn request(&self, id: usize) -> Pending<()> {
        Pending {
            id: id as u64,
            arrival_ns: self.arrivals[id],
            payload: (),
        }
    }

    /// The inputs of a dispatched batch, in batch order.
    pub fn inputs(&self, batch: &[Pending<()>]) -> Vec<Tensor> {
        batch
            .iter()
            .map(|r| self.inputs[r.id as usize].clone())
            .collect()
    }

    /// Records a request's terminal state; returns its id.
    pub fn resolve(&mut self, r: Resolution<()>) -> usize {
        let id = r.request.id as usize;
        debug_assert!(self.resolved[id].is_none(), "request {id} resolved twice");
        self.resolved[id] = Some((r.at_ns, r.status));
        self.open -= 1;
        id
    }

    /// True once every request has resolved.
    pub fn drained(&self) -> bool {
        self.open == 0
    }

    /// Every request's outcome, by submission order.
    ///
    /// # Panics
    ///
    /// Panics when a request never resolved.
    pub fn into_outcomes(self) -> Vec<RequestOutcome> {
        self.inputs
            .into_iter()
            .zip(self.arrivals)
            .zip(self.resolved)
            .enumerate()
            .map(|(i, ((input, arrival_ns), resolved))| {
                let (resolved_ns, status) = resolved.expect("all requests resolved");
                RequestOutcome {
                    id: i as u64,
                    input,
                    status,
                    arrival_ns,
                    resolved_ns,
                }
            })
            .collect()
    }
}

/// Fault-campaign time draw: uniform over the middle 80% of the
/// workload window `[0, horizon]`.
pub fn campaign_time(rng: &mut FaultRng, horizon: u64) -> u64 {
    horizon / 10 + (rng.unit() * 0.8 * horizon as f64) as u64
}

/// The convolution layers of `golden` whose solving plan is `plan`:
/// [`SolvingPlan::ConvFull`] layers recover exactly (the default fault
/// targets), [`SolvingPlan::ConvPartial`] ones only approximately.
pub fn conv_layers(golden: &Sequential, milr: &Milr, plan: SolvingPlan) -> Vec<usize> {
    golden
        .layers()
        .iter()
        .enumerate()
        .filter(|(i, l)| {
            matches!(l, Layer::Conv2D { .. }) && milr.plan().layers[*i].solving == Some(plan)
        })
        .map(|(i, _)| i)
        .collect()
}

/// What a chaos campaign actually injected over one run — the
/// ground-truth side of a [`ChaosSpec`], for campaign reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChaosStats {
    /// Correlated bursts fired.
    pub bursts_fired: usize,
    /// Raw bits flipped by bursts.
    pub burst_bits: usize,
    /// Stuck-at cell re-assertions (flips that pinned a corrected
    /// cell back to its stuck value).
    pub stuck_asserts: usize,
    /// Torn writes fired at pipeline stage seams.
    pub torn_fires: u64,
    /// Cold redeploys from the golden artifact: heal episodes whose
    /// damage exceeded single-instance recovery capacity (correlated
    /// bursts spanning adjacent layers defeat layer-local recovery),
    /// answered the way an operator would — a full-model rewrite,
    /// re-protect, and re-anchor, priced as extra downtime.
    pub redeploys: usize,
}

/// A torn-write hook's firing counter and how much of it the overlay
/// has already folded into the tallies.
#[derive(Debug, Default)]
struct TornTap {
    fired: Arc<AtomicU64>,
    seen: u64,
}

/// A live chaos overlay over one run's instances (one for the single
/// instance, one per fleet replica).
///
/// The planning RNG stream (`seed ^ 0xC4A05`, never drawn from without
/// a campaign) schedules the bursts over the fault window and plants
/// the stuck-at cells; bursts draw their shapes from it when they fire.
#[derive(Debug)]
pub struct ChaosOverlay {
    spec: ChaosSpec,
    rng: FaultRng,
    horizon: u64,
    bursts: Vec<(u64, usize)>,
    stuck: Option<(usize, StuckAtSpec, StuckAtPlan)>,
    torn: Vec<TornTap>,
    /// What landed so far.
    pub stats: ChaosStats,
}

impl ChaosOverlay {
    /// The spec's active part: `None` for no spec and for a quiet one,
    /// which must leave a run byte-identical to a run without chaos.
    pub fn active(spec: Option<&ChaosSpec>) -> Option<&ChaosSpec> {
        spec.filter(|c| !c.is_quiet())
    }

    /// The scrub cadence under the spec's schedule skew.
    pub fn scrub_interval(spec: Option<&ChaosSpec>, interval_ns: u64) -> u64 {
        match Self::active(spec).and_then(|c| c.skew.as_ref()) {
            Some(sk) => SkewSpec::scale(interval_ns, sk.scrub_milli),
            None => interval_ns,
        }
    }

    /// Plans the overlay for instances whose raw images are `stores`.
    /// With `draw_victims` each burst and the stuck-at plan also draw a
    /// victim instance (the fleet); without, everything lands on
    /// instance 0 and no victim is drawn (the single instance, whose
    /// RNG stream predates the fleet). `None` when the spec is absent
    /// or quiet.
    pub fn plan(
        spec: Option<&ChaosSpec>,
        seed: u64,
        horizon: u64,
        stores: &[SharedSubstrate],
        draw_victims: bool,
    ) -> Option<Self> {
        let spec = Self::active(spec)?.clone();
        let mut rng = FaultRng::seed(seed ^ 0xC4A05);
        let victim = |rng: &mut FaultRng| {
            if draw_victims {
                rng.below(stores.len())
            } else {
                0
            }
        };
        let mut bursts: Vec<(u64, usize)> = match &spec.bursts {
            Some(b) => (0..b.bursts)
                .map(|_| {
                    let time = campaign_time(&mut rng, horizon);
                    (time, victim(&mut rng))
                })
                .collect(),
            None => Vec::new(),
        };
        bursts.sort_unstable();
        let stuck = spec.stuck_at.clone().map(|s| {
            let v = victim(&mut rng);
            let plan = plan_stuck_at(stores[v].raw_bits(), s.bits, &mut rng);
            (v, s, plan)
        });
        Some(ChaosOverlay {
            spec,
            rng,
            horizon,
            bursts,
            stuck,
            torn: stores.iter().map(|_| TornTap::default()).collect(),
            stats: ChaosStats::default(),
        })
    }

    /// The planned bursts as `(time, victim)`, in time order.
    pub fn bursts(&self) -> &[(u64, usize)] {
        &self.bursts
    }

    /// The torn-write stage hook for `instance`, whose raw image is
    /// `store`: it fires raw corruption the moment the pipeline enters
    /// the named seam — mid-heal, between Verify and Reprotect,
    /// wherever the campaign aims it — a bounded number of times.
    /// `None` without a torn-write spec.
    pub fn torn_hook(
        &self,
        instance: usize,
        store: SharedSubstrate,
        seed: u64,
    ) -> Option<StageHook> {
        let tw = self.spec.torn_write.clone()?;
        let fired = Arc::clone(&self.torn[instance].fired);
        let mut rng = FaultRng::seed(seed ^ 0x70A2 ^ instance as u64);
        let mut remaining = tw.fires;
        Some(StageHook::new(move |stage| {
            if remaining > 0 && stage.eq_ignore_ascii_case(&tw.stage) {
                remaining -= 1;
                let raw = store.raw_bits();
                for _ in 0..tw.flips {
                    store.flip_raw_bit(rng.below(raw));
                }
                fired.fetch_add(1, Ordering::Relaxed);
            }
        }))
    }

    /// Folds torn writes that fired on `instance` since the last call
    /// into the tallies and lands them on its `core`. Hooks fire inside
    /// pipeline calls, where no clock is in hand; the driver folds them
    /// in right after each call.
    pub fn fold_torn<P>(&mut self, instance: usize, core: &mut ServeCore<P>, now: u64) {
        let tap = &mut self.torn[instance];
        let fired = tap.fired.load(Ordering::Relaxed);
        let new = fired - tap.seen;
        tap.seen = fired;
        self.stats.torn_fires += new;
        let flips = self.spec.torn_write.as_ref().map_or(0, |tw| tw.flips);
        core.chaos_landed(now, new as usize * flips);
    }

    /// Fires one correlated burst over `store`'s raw image and lands
    /// it on `core`.
    ///
    /// # Panics
    ///
    /// Panics without a burst spec.
    pub fn burst<P>(&mut self, store: &SharedSubstrate, core: &mut ServeCore<P>, now: u64) {
        let spec = self.spec.bursts.as_ref().expect("burst without a spec");
        let bits = plan_burst(
            store.raw_geometry(),
            store.raw_bits(),
            spec.pattern,
            milli(spec.flip_prob_milli),
            &mut self.rng,
        );
        for &bit in &bits {
            store.flip_raw_bit(bit);
        }
        self.stats.bursts_fired += 1;
        self.stats.burst_bits += bits.len();
        core.chaos_landed(now, bits.len());
    }

    /// Re-asserts the stuck-at cells of `instance` inside their
    /// activity window, just before a scrub looks: whatever a previous
    /// pass corrected is pinned back to its stuck value — the pattern
    /// iid flips cannot produce. Lands the re-flips on `core`.
    pub fn assert_stuck<P>(
        &mut self,
        instance: usize,
        store: &SharedSubstrate,
        core: &mut ServeCore<P>,
        now: u64,
    ) {
        let Some((victim, spec, plan)) = &self.stuck else {
            return;
        };
        if *victim != instance || !spec.active(now, self.horizon) {
            return;
        }
        let mut asserted = 0;
        for &(bit, value) in &plan.cells {
            if store.raw_bit(bit) != value {
                store.flip_raw_bit(bit);
                asserted += 1;
            }
        }
        self.stats.stuck_asserts += asserted;
        core.chaos_landed(now, asserted);
    }
}

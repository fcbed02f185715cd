//! Declarative SLOs with multi-window burn-rate alerting.
//!
//! An [`SloSpec`] names an objective over a good/bad event stream —
//! availability (time-weighted up/down nanoseconds), p99 latency
//! (request under/over a threshold), heal exactness (bit-exact vs
//! approximate heal outcomes), durability (certified re-anchor
//! commits vs durability errors). The [`SloEngine`] accumulates each
//! stream into cumulative totals *and* into two bucketed sliding
//! windows (fast and slow), and fires an alert when **both** windows'
//! burn rates exceed the spec's threshold — the standard multi-window
//! guard: the slow window keeps one transient spike from paging, the
//! fast window keeps the alert from staying red long after the burn
//! stopped.
//!
//! **Burn rate** is budget consumption speed: with objective `o` the
//! error budget is `1 − o`, and a window whose bad fraction is `b`
//! burns at `b / (1 − o)` — burn 1.0 spends the budget exactly at the
//! rate it was provisioned, burn 10 spends a month of budget in three
//! days.
//!
//! Everything here is integer-count in, fixed-arithmetic out: fed
//! from a deterministic simulation the engine's verdicts, burn rates,
//! and alert stamps are byte-reproducible, which is what lets the
//! [`SloReport`] embed into the golden-parity-checked campaign
//! reports.

use crate::json::{array, JsonObject};

/// What a spec measures. Determines which driver stream feeds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// Time-weighted availability: good = uptime ns, bad = downtime ns.
    Availability,
    /// Latency objective: good = requests at or under the spec's
    /// threshold, bad = requests over it.
    LatencyP99,
    /// Heal exactness: good = bit-exact heals, bad = approximate ones.
    HealExactness,
    /// Durability: good = committed re-anchors/flushes, bad =
    /// durability errors.
    Durability,
}

impl SloKind {
    /// Stable lowercase name (JSON, logs).
    pub fn name(&self) -> &'static str {
        match self {
            SloKind::Availability => "availability",
            SloKind::LatencyP99 => "latency_p99",
            SloKind::HealExactness => "heal_exactness",
            SloKind::Durability => "durability",
        }
    }
}

/// One declarative objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Display name (`"availability"`, `"latency_p99"`, ...).
    pub name: &'static str,
    /// The measured stream.
    pub kind: SloKind,
    /// Target good fraction in `(0, 1)`; error budget is `1 − objective`.
    pub objective: f64,
    /// Latency threshold (ns) a request must beat to count good.
    /// Only consulted by [`SloKind::LatencyP99`] drivers.
    pub latency_threshold_ns: u64,
    /// Fast alert window (ns).
    pub fast_window_ns: u64,
    /// Slow alert window (ns).
    pub slow_window_ns: u64,
    /// Burn rate both windows must exceed to fire.
    pub burn_threshold: f64,
}

/// Default fast window: 50 ms of driver time (sim campaigns run
/// tens-to-hundreds of milliseconds of virtual time; the live server
/// sees the same scale in wall time).
pub const DEFAULT_FAST_WINDOW_NS: u64 = 50_000_000;
/// Default slow window: 10× the fast one.
pub const DEFAULT_SLOW_WINDOW_NS: u64 = 500_000_000;
/// Default burn-rate threshold: budget spent at twice the provisioned
/// rate in both windows.
pub const DEFAULT_BURN_THRESHOLD: f64 = 2.0;

impl SloSpec {
    fn with_defaults(name: &'static str, kind: SloKind, objective: f64) -> Self {
        SloSpec {
            name,
            kind,
            objective,
            latency_threshold_ns: 0,
            fast_window_ns: DEFAULT_FAST_WINDOW_NS,
            slow_window_ns: DEFAULT_SLOW_WINDOW_NS,
            burn_threshold: DEFAULT_BURN_THRESHOLD,
        }
    }

    /// A time-weighted availability objective.
    pub fn availability(objective: f64) -> Self {
        Self::with_defaults("availability", SloKind::Availability, objective)
    }

    /// A latency objective: `objective` of requests at or under
    /// `threshold_ns`.
    pub fn latency_p99(threshold_ns: u64, objective: f64) -> Self {
        SloSpec {
            latency_threshold_ns: threshold_ns,
            ..Self::with_defaults("latency_p99", SloKind::LatencyP99, objective)
        }
    }

    /// A heal-exactness objective.
    pub fn heal_exactness(objective: f64) -> Self {
        Self::with_defaults("heal_exactness", SloKind::HealExactness, objective)
    }

    /// A durability (certified re-anchor success) objective.
    pub fn durability(objective: f64) -> Self {
        Self::with_defaults("durability", SloKind::Durability, objective)
    }
}

/// Bucketed sliding-window good/bad accumulator.
#[derive(Debug, Clone)]
struct WindowRing {
    bucket_ns: u64,
    /// `(good, bad)` per bucket.
    buckets: Vec<(u64, u64)>,
    /// Absolute index of the newest bucket written.
    current: u64,
}

const WINDOW_BUCKETS: usize = 8;

impl WindowRing {
    fn new(window_ns: u64) -> Self {
        WindowRing {
            bucket_ns: (window_ns / WINDOW_BUCKETS as u64).max(1),
            buckets: vec![(0, 0); WINDOW_BUCKETS],
            current: 0,
        }
    }

    /// Zeroes buckets the clock skipped past, then returns the live
    /// bucket for `ns`.
    fn advance(&mut self, ns: u64) -> &mut (u64, u64) {
        let idx = ns / self.bucket_ns;
        if idx > self.current {
            let skipped = (idx - self.current).min(WINDOW_BUCKETS as u64);
            for k in 1..=skipped {
                let slot = ((self.current + k) % WINDOW_BUCKETS as u64) as usize;
                self.buckets[slot] = (0, 0);
            }
            self.current = idx;
        }
        &mut self.buckets[(self.current % WINDOW_BUCKETS as u64) as usize]
    }

    fn observe(&mut self, ns: u64, good: u64, bad: u64) {
        let bucket = self.advance(ns);
        bucket.0 += good;
        bucket.1 += bad;
    }

    /// `(good, bad)` over the retained window as of `ns`.
    fn totals(&mut self, ns: u64) -> (u64, u64) {
        self.advance(ns);
        self.buckets
            .iter()
            .fold((0, 0), |(g, b), &(bg, bb)| (g + bg, b + bb))
    }
}

fn burn_rate(good: u64, bad: u64, objective: f64) -> f64 {
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    let bad_fraction = bad as f64 / total as f64;
    let budget = (1.0 - objective).max(f64::EPSILON);
    bad_fraction / budget
}

/// One alert transition returned by [`SloEngine::observe`]: the spec
/// index, its name, and the fast-window burn in milli-units (so the
/// driver can emit it as a fixed-payload
/// [`EventKind::AlertFired`](crate::EventKind::AlertFired)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloAlert {
    /// Driver clock when the alert fired.
    pub ns: u64,
    /// Index into the engine's spec list.
    pub spec: u32,
    /// The spec's display name.
    pub name: &'static str,
    /// Fast-window burn rate × 1000, saturating.
    pub burn_milli: u32,
}

#[derive(Debug, Clone)]
struct SpecState {
    fast: WindowRing,
    slow: WindowRing,
    total_good: u64,
    total_bad: u64,
    firing: bool,
    alerts: u64,
}

/// Evaluates a set of [`SloSpec`]s over good/bad event streams.
#[derive(Debug)]
pub struct SloEngine {
    specs: Vec<SloSpec>,
    states: Vec<SpecState>,
}

impl SloEngine {
    /// An engine over the given specs.
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let states = specs
            .iter()
            .map(|s| SpecState {
                fast: WindowRing::new(s.fast_window_ns),
                slow: WindowRing::new(s.slow_window_ns),
                total_good: 0,
                total_bad: 0,
                firing: false,
                alerts: 0,
            })
            .collect();
        SloEngine { specs, states }
    }

    /// The default single-server serving suite. The availability
    /// objective is campaign-scaled: the simulated fault campaigns
    /// deliberately hammer a ~100 ms run with multi-millisecond
    /// quarantines, so "three nines" would just mean "always red".
    pub fn serving_defaults() -> Self {
        SloEngine::new(vec![
            SloSpec::availability(0.70),
            SloSpec::latency_p99(50_000_000, 0.95),
            SloSpec::heal_exactness(0.50),
            SloSpec::durability(0.999),
        ])
    }

    /// The default fleet suite, judged on the client-facing fleet view
    /// (the fleet is only *down* when every replica is), so the
    /// availability bar is much higher than a single replica's.
    pub fn fleet_defaults() -> Self {
        SloEngine::new(vec![
            SloSpec::availability(0.995),
            SloSpec::latency_p99(50_000_000, 0.95),
            SloSpec::heal_exactness(0.25),
            SloSpec::durability(0.999),
        ])
    }

    /// The configured specs.
    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    /// Feeds `good`/`bad` weight into every spec of `kind` at `ns` and
    /// returns the alerts that **newly** fired (rising edges only; a
    /// spec keeps burning without re-alerting until both windows cool
    /// below threshold).
    pub fn observe(&mut self, ns: u64, kind: SloKind, good: u64, bad: u64) -> Vec<SloAlert> {
        let mut fired = Vec::new();
        for (idx, (spec, state)) in self.specs.iter().zip(self.states.iter_mut()).enumerate() {
            if spec.kind != kind {
                continue;
            }
            state.total_good += good;
            state.total_bad += bad;
            state.fast.observe(ns, good, bad);
            state.slow.observe(ns, good, bad);
            let (fg, fb) = state.fast.totals(ns);
            let (sg, sb) = state.slow.totals(ns);
            let fast_burn = burn_rate(fg, fb, spec.objective);
            let slow_burn = burn_rate(sg, sb, spec.objective);
            let hot = fast_burn >= spec.burn_threshold && slow_burn >= spec.burn_threshold;
            if hot && !state.firing {
                state.firing = true;
                state.alerts += 1;
                fired.push(SloAlert {
                    ns,
                    spec: idx as u32,
                    name: spec.name,
                    burn_milli: (fast_burn * 1000.0).min(u32::MAX as f64) as u32,
                });
            } else if !hot && state.firing {
                state.firing = false;
            }
        }
        fired
    }

    /// Convenience for request-shaped streams: one latency sample,
    /// judged against each latency spec's own threshold.
    pub fn observe_latency(&mut self, ns: u64, latency_ns: u64) -> Vec<SloAlert> {
        let mut fired = Vec::new();
        for (idx, (spec, state)) in self.specs.iter().zip(self.states.iter_mut()).enumerate() {
            if spec.kind != SloKind::LatencyP99 {
                continue;
            }
            let (good, bad) = if latency_ns <= spec.latency_threshold_ns {
                (1, 0)
            } else {
                (0, 1)
            };
            state.total_good += good;
            state.total_bad += bad;
            state.fast.observe(ns, good, bad);
            state.slow.observe(ns, good, bad);
            let (fg, fb) = state.fast.totals(ns);
            let (sg, sb) = state.slow.totals(ns);
            let fast_burn = burn_rate(fg, fb, spec.objective);
            let slow_burn = burn_rate(sg, sb, spec.objective);
            let hot = fast_burn >= spec.burn_threshold && slow_burn >= spec.burn_threshold;
            if hot && !state.firing {
                state.firing = true;
                state.alerts += 1;
                fired.push(SloAlert {
                    ns,
                    spec: idx as u32,
                    name: spec.name,
                    burn_milli: (fast_burn * 1000.0).min(u32::MAX as f64) as u32,
                });
            } else if !hot && state.firing {
                state.firing = false;
            }
        }
        fired
    }

    /// Current burn rates `(fast, slow)` per spec as of `ns`.
    pub fn burn_rates(&mut self, ns: u64) -> Vec<(f64, f64)> {
        self.specs
            .iter()
            .zip(self.states.iter_mut())
            .map(|(spec, state)| {
                let (fg, fb) = state.fast.totals(ns);
                let (sg, sb) = state.slow.totals(ns);
                (
                    burn_rate(fg, fb, spec.objective),
                    burn_rate(sg, sb, spec.objective),
                )
            })
            .collect()
    }

    /// Folds the cumulative totals into the end-of-run report.
    pub fn report(&mut self, end_ns: u64) -> SloReport {
        let burns = self.burn_rates(end_ns);
        let budgets: Vec<SloBudget> = self
            .specs
            .iter()
            .zip(self.states.iter())
            .zip(burns)
            .map(|((spec, state), (fast_burn, slow_burn))| {
                let total = state.total_good + state.total_bad;
                let compliance = if total == 0 {
                    1.0
                } else {
                    state.total_good as f64 / total as f64
                };
                SloBudget {
                    name: spec.name,
                    kind: spec.kind,
                    objective: spec.objective,
                    good: state.total_good,
                    bad: state.total_bad,
                    compliance,
                    budget_spent: burn_rate(state.total_good, state.total_bad, spec.objective),
                    fast_burn,
                    slow_burn,
                    alerts: state.alerts,
                    pass: compliance >= spec.objective,
                }
            })
            .collect();
        SloReport {
            pass: budgets.iter().all(|b| b.pass),
            alerts: budgets.iter().map(|b| b.alerts).sum(),
            budgets,
        }
    }
}

/// One spec's end-of-run verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SloBudget {
    /// The spec's display name.
    pub name: &'static str,
    /// The measured stream.
    pub kind: SloKind,
    /// The target good fraction.
    pub objective: f64,
    /// Cumulative good weight.
    pub good: u64,
    /// Cumulative bad weight.
    pub bad: u64,
    /// Achieved good fraction (1.0 when nothing was observed).
    pub compliance: f64,
    /// Whole-run burn: error-budget fraction consumed per unit
    /// provisioned (1.0 = spent exactly the budget).
    pub budget_spent: f64,
    /// Fast-window burn rate at end of run.
    pub fast_burn: f64,
    /// Slow-window burn rate at end of run.
    pub slow_burn: f64,
    /// Alert rising edges during the run.
    pub alerts: u64,
    /// True when compliance met the objective.
    pub pass: bool,
}

impl SloBudget {
    /// Renders the budget as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .string("name", self.name)
            .string("kind", self.kind.name())
            .float("objective", self.objective, 6)
            .raw("good", self.good)
            .raw("bad", self.bad)
            .float("compliance", self.compliance, 9)
            .float("budget_spent", self.budget_spent, 6)
            .float("fast_burn", self.fast_burn, 6)
            .float("slow_burn", self.slow_burn, 6)
            .raw("alerts", self.alerts)
            .raw("pass", self.pass)
            .finish()
    }
}

/// The end-of-run SLO verdict embedded in campaign reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// True when every budget passed.
    pub pass: bool,
    /// Total alert rising edges across all specs.
    pub alerts: u64,
    /// Per-spec verdicts, in spec order.
    pub budgets: Vec<SloBudget>,
}

impl SloReport {
    /// The named budget, if configured.
    pub fn budget(&self, name: &str) -> Option<&SloBudget> {
        self.budgets.iter().find(|b| b.name == name)
    }

    /// Renders the report as one deterministic JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("pass", self.pass)
            .raw("alerts", self.alerts)
            .raw(
                "budgets",
                array(self.budgets.iter().map(SloBudget::to_json)),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        // 2% bad against a 1% budget burns at 2×.
        assert!((burn_rate(98, 2, 0.99) - 2.0).abs() < 1e-12);
        assert_eq!(burn_rate(0, 0, 0.99), 0.0);
        // All-bad saturates at 1/budget.
        assert!((burn_rate(0, 10, 0.9) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn alert_needs_both_windows_hot_and_fires_once_per_episode() {
        let mut engine = SloEngine::new(vec![SloSpec {
            fast_window_ns: 8_000,
            slow_window_ns: 80_000,
            burn_threshold: 2.0,
            ..SloSpec::availability(0.9)
        }]);
        // A short bad burst: the fast window runs hot immediately, and
        // because the slow window has seen nothing else yet, it is hot
        // too — the alert fires exactly once while the burn persists.
        let mut alerts = engine.observe(1_000, SloKind::Availability, 0, 500);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].name, "availability");
        assert!(alerts[0].burn_milli >= 2_000);
        alerts = engine.observe(2_000, SloKind::Availability, 0, 500);
        assert!(alerts.is_empty(), "no re-fire while still burning");

        // A long good stretch cools both windows (the fast one decays
        // first); the next burst is a fresh rising edge.
        for t in 0..40u64 {
            assert!(engine
                .observe(10_000 + t * 4_000, SloKind::Availability, 1_000, 0)
                .is_empty());
        }
        let again = engine.observe(200_000, SloKind::Availability, 0, 900_000);
        assert_eq!(again.len(), 1, "cooled alert re-arms");
        assert_eq!(engine.report(200_000).alerts, 2);
    }

    #[test]
    fn slow_window_guards_against_transient_spikes() {
        let mut engine = SloEngine::new(vec![SloSpec {
            fast_window_ns: 1_000,
            slow_window_ns: 1_000_000,
            burn_threshold: 2.0,
            ..SloSpec::availability(0.9)
        }]);
        // A long healthy history fills the slow window with good time.
        for t in 0..100u64 {
            engine.observe(t * 10_000, SloKind::Availability, 10_000, 0);
        }
        // One small spike: fast window is hot, slow window is not.
        let alerts = engine.observe(1_000_500, SloKind::Availability, 0, 400);
        assert!(alerts.is_empty(), "one spike must not page");
    }

    #[test]
    fn latency_samples_are_judged_against_the_spec_threshold() {
        let mut engine = SloEngine::new(vec![SloSpec::latency_p99(1_000_000, 0.5)]);
        engine.observe_latency(10, 900_000);
        engine.observe_latency(20, 1_100_000);
        engine.observe_latency(30, 500_000);
        let report = engine.report(40);
        let b = report.budget("latency_p99").unwrap();
        assert_eq!((b.good, b.bad), (2, 1));
        assert!(b.pass);
    }

    #[test]
    fn report_json_is_deterministic_and_verdicts_fold() {
        let mut engine =
            SloEngine::new(vec![SloSpec::availability(0.9), SloSpec::durability(0.999)]);
        engine.observe(100, SloKind::Availability, 95, 5);
        engine.observe(100, SloKind::Durability, 3, 0);
        let report = engine.report(200);
        assert!(report.pass);
        let json = report.to_json();
        assert_eq!(json, engine.report(200).to_json(), "report is idempotent");
        assert_eq!(
            json,
            "{\"pass\":true,\"alerts\":0,\"budgets\":[{\"name\":\"availability\",\
            \"kind\":\"availability\",\"objective\":0.900000,\"good\":95,\"bad\":5,\
            \"compliance\":0.950000000,\"budget_spent\":0.500000,\"fast_burn\":0.500000,\
            \"slow_burn\":0.500000,\"alerts\":0,\"pass\":true},{\"name\":\"durability\",\
            \"kind\":\"durability\",\"objective\":0.999000,\"good\":3,\"bad\":0,\
            \"compliance\":1.000000000,\"budget_spent\":0.000000,\"fast_burn\":0.000000,\
            \"slow_burn\":0.000000,\"alerts\":0,\"pass\":true}]}"
        );

        // Blowing the availability budget flips both verdicts.
        engine.observe(300, SloKind::Availability, 0, 50);
        let blown = engine.report(300);
        assert!(!blown.pass);
        assert!(!blown.budget("availability").unwrap().pass);
        assert!(blown.budget("durability").unwrap().pass);
    }

    #[test]
    fn empty_engine_passes_trivially() {
        let mut engine = SloEngine::serving_defaults();
        let report = engine.report(0);
        assert!(report.pass, "no data, no violation");
        assert_eq!(report.budgets.len(), 4);
        assert!(report.budgets.iter().all(|b| b.compliance == 1.0));
    }
}

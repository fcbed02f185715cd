//! The structured trace layer: typed events, sinks, and a bounded
//! ring-buffer recorder.
//!
//! Events are stamped with the **driver's** clock, not the recorder's:
//! the deterministic simulators pass their virtual clock (so a fixed
//! seed reproduces the trace byte-for-byte), while the threaded server
//! passes wall time since start. The recorder never reads a clock of
//! its own.

use crate::json::JsonObject;
use std::fmt;
use std::sync::{Arc, Mutex};

/// What happened. Fixed-size payloads only — emitting an event never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A fault was injected into `layer`. `weight` is the flattened
    /// weight index, or `u64::MAX` for a whole-layer corruption.
    FaultInjected {
        /// Target layer index.
        layer: u32,
        /// Flattened weight index (`u64::MAX` = whole layer).
        weight: u64,
    },
    /// A scrub pass flagged `layer` as corrupted.
    ScrubFlagged {
        /// Flagged layer index.
        layer: u32,
    },
    /// The integrity pipeline entered a stage.
    StageEntered {
        /// Static stage name (`"Scrub"`, `"Detect"`, `"Heal"`, ...).
        stage: &'static str,
    },
    /// A heal attempt on `layer` finished.
    HealOutcome {
        /// Healed layer index.
        layer: u32,
        /// True when the reconstruction was bit-exact.
        exact: bool,
    },
    /// Quarantine state changed.
    Quarantine {
        /// True on entering quarantine, false on leaving it.
        entered: bool,
    },
    /// A peer-repair transfer completed from `donor`.
    PeerRepair {
        /// Donor replica index.
        donor: u32,
    },
    /// A batch was dispatched to a worker.
    BatchDispatched {
        /// Number of requests in the batch.
        occupancy: u32,
    },
    /// The store was re-anchored after re-protection.
    Reanchor {
        /// True when the anchor reached durable storage.
        durable: bool,
    },
    /// An SLO burn-rate alert fired (rising edge): both the fast and
    /// slow windows of spec `slo` exceeded the burn threshold.
    AlertFired {
        /// Index of the spec in the run's SLO engine.
        slo: u32,
        /// Fast-window burn rate × 1000 at the firing instant.
        burn_milli: u32,
    },
}

impl EventKind {
    /// The event's type name as it appears in the JSONL `event` field.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FaultInjected { .. } => "FaultInjected",
            EventKind::ScrubFlagged { .. } => "ScrubFlagged",
            EventKind::StageEntered { .. } => "StageEntered",
            EventKind::HealOutcome { .. } => "HealOutcome",
            EventKind::Quarantine { .. } => "Quarantine",
            EventKind::PeerRepair { .. } => "PeerRepair",
            EventKind::BatchDispatched { .. } => "BatchDispatched",
            EventKind::Reanchor { .. } => "Reanchor",
            EventKind::AlertFired { .. } => "AlertFired",
        }
    }
}

/// One trace event: driver clock stamp, source id, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Driver clock at emission, in nanoseconds (virtual in sims, wall
    /// since start in the live server).
    pub ns: u64,
    /// Source id: replica index in the fleet, 0 in single-server runs,
    /// [`FLEET_SRC`] for fleet-level (router) events.
    pub src: u32,
    /// The payload.
    pub kind: EventKind,
}

/// `src` value for fleet-level events not tied to one replica.
pub const FLEET_SRC: u32 = u32::MAX;

impl TraceEvent {
    /// Renders the event as one deterministic JSON line (no trailing
    /// newline). Field order is fixed, so identical event streams
    /// render to byte-identical JSONL.
    pub fn to_json(&self) -> String {
        let TraceEvent { ns, src, kind } = *self;
        let head = JsonObject::new()
            .raw("ns", ns)
            .raw("src", src)
            .string("event", kind.name());
        match kind {
            EventKind::FaultInjected { layer, weight } => {
                head.raw("layer", layer).raw("weight", weight)
            }
            EventKind::ScrubFlagged { layer } => head.raw("layer", layer),
            EventKind::StageEntered { stage } => head.string("stage", stage),
            EventKind::HealOutcome { layer, exact } => head.raw("layer", layer).raw("exact", exact),
            EventKind::Quarantine { entered } => head.raw("entered", entered),
            EventKind::PeerRepair { donor } => head.raw("donor", donor),
            EventKind::BatchDispatched { occupancy } => head.raw("occupancy", occupancy),
            EventKind::Reanchor { durable } => head.raw("durable", durable),
            EventKind::AlertFired { slo, burn_milli } => {
                head.raw("slo", slo).raw("burn_milli", burn_milli)
            }
        }
        .finish()
    }
}

/// Where events go. Implementations must tolerate concurrent `record`
/// calls.
pub trait TraceSink: Send + Sync {
    /// Accepts one event.
    fn record(&self, event: TraceEvent);
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&self, _event: TraceEvent) {}
}

#[derive(Debug, Default)]
struct RingState {
    events: Vec<TraceEvent>,
    /// Events discarded because the ring was full (oldest first).
    dropped: u64,
    head: usize,
}

/// A bounded ring-buffer recorder: keeps the most recent `capacity`
/// events, counting (not silently losing) overwrites.
#[derive(Debug)]
pub struct RingRecorder {
    capacity: usize,
    state: Mutex<RingState>,
}

impl RingRecorder {
    /// A recorder holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            capacity: capacity.max(1),
            state: Mutex::new(RingState::default()),
        }
    }

    /// Number of events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap().dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let state = self.state.lock().unwrap();
        if state.events.len() < self.capacity {
            state.events.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&state.events[state.head..]);
            out.extend_from_slice(&state.events[..state.head]);
            out
        }
    }

    /// Renders the retained events as JSONL, one event per line, each
    /// line newline-terminated.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.events() {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingRecorder {
    fn record(&self, event: TraceEvent) {
        let mut state = self.state.lock().unwrap();
        if state.events.len() < self.capacity {
            state.events.push(event);
        } else {
            let head = state.head;
            state.events[head] = event;
            state.head = (head + 1) % self.capacity;
            state.dropped += 1;
        }
    }
}

/// A cloneable handle over a shared [`TraceSink`]. The handle carries
/// no clock — callers stamp events with their own `ns`.
#[derive(Clone)]
pub struct TraceHandle(Arc<dyn TraceSink>);

impl fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceHandle(..)")
    }
}

impl TraceHandle {
    /// Wraps a shared sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        TraceHandle(sink)
    }

    /// Emits one event stamped with the caller's clock.
    #[inline]
    pub fn emit(&self, ns: u64, src: u32, kind: EventKind) {
        self.0.record(TraceEvent { ns, src, kind });
    }
}

/// The observability context threaded through drivers: an optional
/// trace sink, an optional metrics registry, and an optional span
/// ring. `Observer::default()` observes nothing and is the cost-free
/// common case.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    /// Structured event sink, if any.
    pub trace: Option<TraceHandle>,
    /// Metrics registry, if any.
    pub metrics: Option<Arc<crate::metrics::MetricsRegistry>>,
    /// Completed-span-tree ring, if any.
    pub spans: Option<crate::span::SpanHandle>,
}

impl Observer {
    /// An observer that records events into the given sink.
    pub fn with_trace(sink: Arc<dyn TraceSink>) -> Self {
        Observer {
            trace: Some(TraceHandle::new(sink)),
            metrics: None,
            spans: None,
        }
    }

    /// Adds a metrics registry.
    pub fn and_metrics(mut self, metrics: Arc<crate::metrics::MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Adds a span ring.
    pub fn and_spans(mut self, ring: Arc<crate::span::SpanRing>) -> Self {
        self.spans = Some(crate::span::SpanHandle::new(ring));
        self
    }

    /// Emits `kind` if a trace sink is attached.
    #[inline]
    pub fn emit(&self, ns: u64, src: u32, kind: EventKind) {
        if let Some(trace) = &self.trace {
            trace.emit(ns, src, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_field_order_is_fixed() {
        let ev = TraceEvent {
            ns: 12,
            src: 3,
            kind: EventKind::HealOutcome {
                layer: 1,
                exact: true,
            },
        };
        assert_eq!(
            ev.to_json(),
            "{\"ns\":12,\"src\":3,\"event\":\"HealOutcome\",\"layer\":1,\"exact\":true}"
        );
        let alert = TraceEvent {
            ns: 99,
            src: 1,
            kind: EventKind::AlertFired {
                slo: 0,
                burn_milli: 2500,
            },
        };
        assert_eq!(
            alert.to_json(),
            "{\"ns\":99,\"src\":1,\"event\":\"AlertFired\",\"slo\":0,\"burn_milli\":2500}"
        );
        let ring = RingRecorder::new(16);
        let every_kind = [
            EventKind::FaultInjected {
                layer: 2,
                weight: u64::MAX,
            },
            EventKind::ScrubFlagged { layer: 4 },
            EventKind::StageEntered { stage: "Heal" },
            EventKind::HealOutcome {
                layer: 1,
                exact: false,
            },
            EventKind::Quarantine { entered: true },
            EventKind::PeerRepair { donor: 3 },
            EventKind::BatchDispatched { occupancy: 8 },
            EventKind::Reanchor { durable: false },
            EventKind::AlertFired {
                slo: 2,
                burn_milli: 14_400,
            },
        ];
        for (ns, kind) in (0..).zip(every_kind) {
            ring.record(TraceEvent {
                ns,
                src: FLEET_SRC,
                kind,
            });
        }
        assert_eq!(
            ring.to_jsonl(),
            "{\"ns\":0,\"src\":4294967295,\"event\":\"FaultInjected\",\"layer\":2,\"weight\":18446744073709551615}\n\
            {\"ns\":1,\"src\":4294967295,\"event\":\"ScrubFlagged\",\"layer\":4}\n\
            {\"ns\":2,\"src\":4294967295,\"event\":\"StageEntered\",\"stage\":\"Heal\"}\n\
            {\"ns\":3,\"src\":4294967295,\"event\":\"HealOutcome\",\"layer\":1,\"exact\":false}\n\
            {\"ns\":4,\"src\":4294967295,\"event\":\"Quarantine\",\"entered\":true}\n\
            {\"ns\":5,\"src\":4294967295,\"event\":\"PeerRepair\",\"donor\":3}\n\
            {\"ns\":6,\"src\":4294967295,\"event\":\"BatchDispatched\",\"occupancy\":8}\n\
            {\"ns\":7,\"src\":4294967295,\"event\":\"Reanchor\",\"durable\":false}\n\
            {\"ns\":8,\"src\":4294967295,\"event\":\"AlertFired\",\"slo\":2,\"burn_milli\":14400}\n"
        );
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let ring = RingRecorder::new(3);
        for i in 0..5u64 {
            ring.record(TraceEvent {
                ns: i,
                src: 0,
                kind: EventKind::Quarantine { entered: true },
            });
        }
        let events = ring.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.ns).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest events are overwritten first"
        );
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn observer_default_is_inert() {
        let obs = Observer::default();
        obs.emit(1, 0, EventKind::Reanchor { durable: true });
        assert!(obs.trace.is_none() && obs.metrics.is_none() && obs.spans.is_none());
    }
}

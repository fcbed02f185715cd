//! `milr-obs`: deterministic tracing, mergeable metrics, and
//! integrity-episode forensics for the MILR stack.
//!
//! Three pieces, zero external dependencies:
//!
//! - [`metrics`]: a registry of named atomic counters, gauges, and
//!   log-bucketed mergeable histograms ([`hist`]), snapshot-exportable
//!   as JSON and Prometheus text exposition format. Recording through
//!   a registered handle is lock-free atomics on preallocated storage
//!   — safe on the fused clean-path forward.
//! - [`trace`]: typed events ([`TraceEvent`]) through a [`TraceSink`]
//!   into a bounded [`RingRecorder`], stamped with the *driver's*
//!   clock: virtual time in the deterministic simulators (fixed seed ⇒
//!   byte-identical JSONL), wall time in the threaded server.
//! - [`forensics`]: folds the event stream into per-incident
//!   [`Episode`] timelines — fault→detect→heal→certify latencies,
//!   exact-vs-approximate heal mix, escalation paths.
//! - [`span`]: hierarchical timed spans ([`SpanTree`]) with
//!   self-overhead accounting, flame-style JSON export, an ASCII
//!   renderer, and a bounded [`SpanRing`] of completed trees.
//! - [`slo`]: declarative [`SloSpec`]s evaluated by an [`SloEngine`]
//!   with fast/slow multi-window burn-rate alerting, folded into an
//!   [`SloReport`] budget verdict.
//! - [`json`]: the workspace's one JSON writer
//!   ([`JsonObject`](json::JsonObject)), which every report and export
//!   above renders through.

#![deny(missing_docs)]

pub mod forensics;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod slo;
pub mod span;
pub mod trace;

pub use forensics::{fold_episodes, render_timeline, Episode};
pub use hist::{AtomicHistogram, Histogram};
pub use metrics::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use slo::{SloAlert, SloBudget, SloEngine, SloKind, SloReport, SloSpec};
pub use span::{render_flame, SpanHandle, SpanNode, SpanRing, SpanTree};
pub use trace::{
    EventKind, NullSink, Observer, RingRecorder, TraceEvent, TraceHandle, TraceSink, FLEET_SRC,
};

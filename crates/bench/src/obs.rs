//! Shared `--trace-out` / `--metrics-out` / `--spans-out` /
//! `--slo-out` plumbing for the load benches: builds an [`Observer`]
//! from the CLI flags and flushes its outputs — a JSONL event trace, a
//! Prometheus text-exposition metrics snapshot, a span-tree JSONL
//! stream, and the run's SLO verdict — to the requested files after
//! the run.

use milr_obs::{MetricsRegistry, Observer, RingRecorder, SloReport, SpanHandle, SpanRing};
use std::sync::Arc;

/// Events the ring recorder retains (oldest overwritten past this).
/// Sized for the load benches: a default run emits a few thousand
/// events, so nothing is dropped unless the workload is scaled far up.
const TRACE_CAPACITY: usize = 262_144;

/// Span trees the span ring retains. Each engine call and batch
/// produces one tree, so this comfortably covers a default run.
const SPAN_CAPACITY: usize = 65_536;

/// The observability outputs one bench run was asked to produce.
#[derive(Debug, Default)]
pub struct ObsOutputs {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    spans_out: Option<String>,
    slo_out: Option<String>,
    recorder: Option<Arc<RingRecorder>>,
    metrics: Option<Arc<MetricsRegistry>>,
    spans: Option<Arc<SpanRing>>,
}

impl ObsOutputs {
    /// Builds the outputs from the parsed flag values. With neither
    /// flag set the observer is inert and the run is exactly the
    /// unobserved run.
    pub fn from_flags(trace_out: Option<String>, metrics_out: Option<String>) -> Self {
        ObsOutputs {
            recorder: trace_out
                .as_ref()
                .map(|_| Arc::new(RingRecorder::new(TRACE_CAPACITY))),
            metrics: metrics_out
                .as_ref()
                .map(|_| Arc::new(MetricsRegistry::new())),
            trace_out,
            metrics_out,
            spans_out: None,
            slo_out: None,
            spans: None,
        }
    }

    /// Adds a `--spans-out` destination: the observer carries a span
    /// ring and the collected trees are written as JSONL on
    /// [`ObsOutputs::flush`].
    pub fn with_spans(mut self, spans_out: Option<String>) -> Self {
        self.spans = spans_out
            .as_ref()
            .map(|_| Arc::new(SpanRing::new(SPAN_CAPACITY)));
        self.spans_out = spans_out;
        self
    }

    /// Adds a `--slo-out` destination for
    /// [`ObsOutputs::write_slo`].
    pub fn with_slo(mut self, slo_out: Option<String>) -> Self {
        self.slo_out = slo_out;
        self
    }

    /// The observer to thread through the run.
    pub fn observer(&self) -> Observer {
        Observer {
            trace: self
                .recorder
                .clone()
                .map(|r| milr_obs::TraceHandle::new(r as Arc<dyn milr_obs::TraceSink>)),
            metrics: self.metrics.clone(),
            spans: self.spans.clone().map(SpanHandle::new),
        }
    }

    /// The shared metrics registry, when `--metrics-out` was given
    /// (so a bench can pre-set gauges before flushing).
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Writes the requested files. Exits the process on I/O failure —
    /// a bench asked to produce an artifact must not silently not.
    pub fn flush(&self) {
        if let (Some(path), Some(recorder)) = (&self.trace_out, &self.recorder) {
            if recorder.dropped() > 0 {
                eprintln!(
                    "warning: trace ring overflowed, {} oldest events dropped",
                    recorder.dropped()
                );
            }
            if let Err(e) = std::fs::write(path, recorder.to_jsonl()) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            println!("trace:    {} ({} events)", path, recorder.events().len());
            let episodes = milr_obs::fold_episodes(&recorder.events());
            if !episodes.is_empty() {
                println!("forensics ({} episode(s)):", episodes.len());
                print!("{}", milr_obs::render_timeline(&episodes));
            }
        }
        if let (Some(path), Some(spans)) = (&self.spans_out, &self.spans) {
            if spans.dropped() > 0 {
                eprintln!(
                    "warning: span ring overflowed, {} oldest trees dropped",
                    spans.dropped()
                );
            }
            if let Err(e) = std::fs::write(path, spans.to_jsonl()) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            println!("spans:    {} ({} trees)", path, spans.len());
        }
        if let (Some(path), Some(metrics)) = (&self.metrics_out, &self.metrics) {
            // Fold the observability plane's self-stats (series count,
            // snapshot cost, trace drops) into the exposition.
            metrics.export_self_stats(self.recorder.as_ref().map(|r| r.dropped()));
            if let Err(e) = std::fs::write(path, metrics.snapshot().to_prometheus()) {
                eprintln!("error: write {path}: {e}");
                std::process::exit(1);
            }
            println!("metrics:  {path}");
        }
    }

    /// Writes the run's SLO verdict when `--slo-out` was given. Exits
    /// on I/O failure, or when the run produced no verdict to write.
    pub fn write_slo(&self, slo: Option<&SloReport>) {
        let Some(path) = &self.slo_out else {
            return;
        };
        let Some(slo) = slo else {
            eprintln!("error: --slo-out requested but the run carries no SLO report");
            std::process::exit(1);
        };
        if let Err(e) = std::fs::write(path, slo.to_json()) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "slo:      {path} (pass={}, {} alert(s))",
            slo.pass, slo.alerts
        );
    }
}

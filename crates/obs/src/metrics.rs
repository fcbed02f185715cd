//! The metrics registry: named atomic counters, gauges, and
//! [`AtomicHistogram`]s, snapshot-exportable as JSON and Prometheus
//! text exposition format.
//!
//! Registration (`counter`/`gauge`/`histogram`) takes a short mutex to
//! get-or-create the named instrument and hands back an `Arc` handle;
//! all *recording* through the handle is lock-free atomics, so hot
//! paths register once up front and never touch the registry lock
//! again.

use crate::hist::{AtomicHistogram, Histogram};
use crate::json::JsonObject;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed atomic gauge (queue depths, in-flight counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via `dec`).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts one.
    #[inline]
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<AtomicHistogram>>,
}

/// A named-instrument registry. Cheap to share (`Arc<MetricsRegistry>`);
/// instruments live for the registry's lifetime.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Instruments>,
    /// Wall cost of the most recent [`MetricsRegistry::snapshot`].
    last_snapshot_ns: AtomicU64,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram named `name`. All buckets are
    /// preallocated here, so recording through the handle never
    /// allocates.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// A point-in-time copy of every instrument, sorted by name. The
    /// wall cost of building the copy is tracked for
    /// [`MetricsRegistry::export_self_stats`] — snapshotting is the
    /// registry's only non-constant operation, so its cost *is* the
    /// registry's overhead story.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let started = std::time::Instant::now();
        let inner = self.inner.lock().unwrap();
        let snap = MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        };
        drop(inner);
        self.last_snapshot_ns
            .store(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        snap
    }

    /// Number of registered series across all instrument kinds.
    pub fn series_count(&self) -> usize {
        let inner = self.inner.lock().unwrap();
        inner.counters.len() + inner.gauges.len() + inner.histograms.len()
    }

    /// Wall cost (ns) of the most recent snapshot, 0 before the first.
    pub fn last_snapshot_cost_ns(&self) -> u64 {
        self.last_snapshot_ns.load(Ordering::Relaxed)
    }

    /// Surfaces the observability plane's own health as first-class
    /// metrics, so observability loss is itself observable:
    /// `obs_series` (registered series), `obs_snapshot_cost_ns` (wall
    /// cost of the last snapshot), and — when the caller passes its
    /// trace recorder's drop count — `obs_trace_dropped_total`
    /// (monotone; the counter is advanced by the delta since the last
    /// export). Call right before exporting a snapshot.
    pub fn export_self_stats(&self, trace_dropped: Option<u64>) {
        if let Some(dropped) = trace_dropped {
            let c = self.counter("obs_trace_dropped_total");
            c.add(dropped.saturating_sub(c.get()));
        }
        let series = self.gauge("obs_series");
        let cost = self.gauge("obs_snapshot_cost_ns");
        series.set(self.series_count() as i64);
        cost.set(self.last_snapshot_cost_ns() as i64);
    }
}

/// An immutable snapshot of a [`MetricsRegistry`], ready to export.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// The value of the named counter, if it was registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of the named gauge, if it was registered.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The named histogram, if it was registered.
    pub fn histogram_named(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a single JSON object. Histograms export
    /// their count, exact sum/max/mean, and the standard quantiles.
    pub fn to_json(&self) -> String {
        let counters = self
            .counters
            .iter()
            .fold(JsonObject::new(), |o, (name, v)| o.raw(name, v));
        let gauges = self
            .gauges
            .iter()
            .fold(JsonObject::new(), |o, (name, v)| o.raw(name, v));
        let histograms = self
            .histograms
            .iter()
            .fold(JsonObject::new(), |o, (name, h)| {
                let hist = JsonObject::new()
                    .raw("count", h.count())
                    .raw("sum", h.sum())
                    .raw("max", h.max())
                    .float("mean", h.mean(), 3)
                    .raw("p50", h.quantile(0.50))
                    .raw("p95", h.quantile(0.95))
                    .raw("p99", h.quantile(0.99));
                o.raw(name, hist.finish())
            });
        JsonObject::new()
            .raw("counters", counters.finish())
            .raw("gauges", gauges.finish())
            .raw("histograms", histograms.finish())
            .finish()
    }

    /// Renders the snapshot in Prometheus text exposition format.
    /// Histogram buckets are cumulative over the non-empty buckets,
    /// closed by the conventional `+Inf` bucket, `_sum`, and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (upper, n) in h.nonzero_buckets() {
                cumulative += n;
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                h.count(),
                h.sum(),
                h.count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_and_lock_free_after_registration() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("requests_total");
        let c2 = reg.counter("requests_total");
        c1.inc();
        c2.add(2);
        assert_eq!(reg.counter("requests_total").get(), 3);

        let g = reg.gauge("queue_depth");
        g.set(5);
        g.dec();
        assert_eq!(g.get(), 4);

        let h = reg.histogram("latency_ns");
        h.record(1000);
        h.record(2000);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn snapshot_exports_json_and_prometheus() {
        let reg = MetricsRegistry::new();
        reg.counter("b_total").add(7);
        reg.counter("a_total").add(3);
        reg.gauge("depth").set(-2);
        let h = reg.histogram("lat");
        h.record(10);
        h.record(100);

        let snap = reg.snapshot();
        // BTreeMap ordering: names are sorted.
        assert_eq!(snap.counters[0].0, "a_total");
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{\"a_total\":3,\"b_total\":7},\"gauges\":{\"depth\":-2},\
            \"histograms\":{\"lat\":{\"count\":2,\"sum\":110,\"max\":100,\"mean\":55.000,\
            \"p50\":10,\"p95\":100,\"p99\":100}}}"
        );

        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE a_total counter\na_total 3\n"));
        assert!(prom.contains("# TYPE depth gauge\ndepth -2\n"));
        assert!(prom.contains("# TYPE lat histogram\n"));
        assert!(prom.contains("lat_bucket{le=\"10\"} 1\n"));
        assert!(prom.contains("lat_bucket{le=\"+Inf\"} 2\nlat_sum 110\nlat_count 2\n"));
    }

    #[test]
    fn self_stats_surface_series_count_snapshot_cost_and_trace_drops() {
        let reg = MetricsRegistry::new();
        reg.counter("requests_total").inc();
        reg.gauge("depth").set(1);
        assert_eq!(reg.series_count(), 2);
        assert_eq!(reg.last_snapshot_cost_ns(), 0, "no snapshot yet");

        let _ = reg.snapshot();
        reg.export_self_stats(Some(7));
        let snap = reg.snapshot();
        assert_eq!(snap.counter_value("obs_trace_dropped_total"), Some(7));
        // 2 user series + obs_trace_dropped_total + obs_series +
        // obs_snapshot_cost_ns.
        assert_eq!(snap.gauge_value("obs_series"), Some(5));
        assert!(snap.gauge_value("obs_snapshot_cost_ns").is_some());

        // The drop counter is monotone and delta-advanced: exporting a
        // larger cumulative count adds only the difference, exporting
        // the same count is a no-op.
        reg.export_self_stats(Some(9));
        reg.export_self_stats(Some(9));
        assert_eq!(
            reg.snapshot().counter_value("obs_trace_dropped_total"),
            Some(9)
        );
    }
}

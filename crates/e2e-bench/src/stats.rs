//! Window statistics: client-side latency quantiles over sub-windows,
//! failure accounting, and window-only views of the server's
//! cumulative histograms.

use crate::live::{Fate, Record, WindowRun};
use milr_obs::{Histogram, MetricsSnapshot};

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a small sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Client-side summary of one measured window. The latency, CPU and
/// availability figures are medians over the window's sub-windows.
#[derive(Debug, Clone)]
pub struct WindowStats {
    /// p50 due→received latency, ms.
    pub p50_ms: f64,
    /// p99 latency, ms.
    pub p99_ms: f64,
    /// Bit-correct outputs the collector received while the window
    /// ran, per second of window.
    pub goodput_rps: f64,
    /// `1 − downtime / length` of a sub-window.
    pub availability: f64,
    /// Process CPU time per request due in the sub-window, ms.
    pub cpu_ms_per_req: f64,
    /// Requests due inside the window.
    pub attempted: usize,
    /// Rejected, or unresolved at the drain deadline.
    pub failed: usize,
    /// Released with outputs that differ from golden.
    pub mismatched: usize,
    /// p99 of generator lateness over window arrivals, ms.
    pub gen_late_p99_ms: f64,
    /// Mean downtime per quarantine over the server's life, ms (0
    /// without quarantines).
    pub quarantine_mean_ms: f64,
    /// Mean due→received latency of completed window requests, ns.
    pub mean_latency_ns: f64,
    /// Mean generator lateness of window arrivals, ns.
    pub mean_late_ns: f64,
    /// Median wall time inside `Server::submit`, µs.
    pub submit_us_p50: f64,
    /// Per-sub-window values behind the medians: p50, p99, CPU per
    /// request, availability, and host steal ticks.
    pub subs: [Vec<f64>; 5],
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, s) = xs.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        s / n as f64
    }
}

/// The values, ascending.
pub fn sorted(xs: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = xs.collect();
    v.sort_by(f64::total_cmp);
    v
}

impl WindowStats {
    /// Summarizes a window run.
    pub fn of(run: &WindowRun) -> WindowStats {
        let lo = run.warmup_ns;
        let window: Vec<&Record> = run
            .records
            .iter()
            .filter(|r| r.due_ns >= lo && r.due_ns < lo + run.window_ns())
            .collect();
        let completed: Vec<&Record> = window
            .iter()
            .copied()
            .filter(|r| r.fate != Fate::Rejected && r.received_ns <= run.deadline_ns)
            .collect();
        let mut p50 = Vec::new();
        let mut p99 = Vec::new();
        let mut cpu = Vec::new();
        let mut avail = Vec::new();
        let mut steal = Vec::new();
        for k in 0..run.subs {
            let (a, b) = (lo + k as u64 * run.sub_ns, lo + (k as u64 + 1) * run.sub_ns);
            let lat = sorted(
                completed
                    .iter()
                    .filter(|r| r.due_ns >= a && r.due_ns < b)
                    .map(|r| (r.received_ns - r.due_ns) as f64 / 1e6),
            );
            p50.push(quantile(&lat, 0.50));
            p99.push(quantile(&lat, 0.99));
            let sent = window
                .iter()
                .filter(|r| r.due_ns >= a && r.due_ns < b)
                .count();
            let cpu_ns = run.cpu_marks[k + 1].saturating_sub(run.cpu_marks[k]);
            cpu.push(cpu_ns as f64 / 1e6 / sent.max(1) as f64);
            let down: u64 = run
                .quarantines
                .iter()
                .map(|&(q0, q1)| q1.min(b).saturating_sub(q0.max(a)))
                .sum();
            avail.push(1.0 - down as f64 / run.sub_ns as f64);
            steal.push(run.steal_marks[k + 1].saturating_sub(run.steal_marks[k]) as f64);
        }
        let correct = completed.iter().filter(|r| r.fate == Fate::Correct).count();
        let received_in_window = run
            .records
            .iter()
            .filter(|r| r.fate == Fate::Correct)
            .filter(|r| r.received_ns >= lo && r.received_ns < lo + run.window_ns())
            .count();
        let late = sorted(window.iter().map(|r| r.late_ns as f64 / 1e6));
        let submit = sorted(window.iter().map(|r| r.submit_ns as f64 / 1e3));
        let report = &run.report;
        WindowStats {
            p50_ms: median(&p50),
            p99_ms: median(&p99),
            goodput_rps: received_in_window as f64 / (run.window_ns() as f64 / 1e9),
            availability: median(&avail),
            cpu_ms_per_req: median(&cpu),
            attempted: window.len(),
            failed: window.len() - completed.len(),
            mismatched: completed.len() - correct,
            gen_late_p99_ms: quantile(&late, 0.99),
            quarantine_mean_ms: if report.quarantines == 0 {
                0.0
            } else {
                report.downtime_ns as f64 / 1e6 / report.quarantines as f64
            },
            mean_latency_ns: mean(completed.iter().map(|r| (r.received_ns - r.due_ns) as f64)),
            mean_late_ns: mean(window.iter().map(|r| r.late_ns as f64)),
            submit_us_p50: quantile(&submit, 0.5),
            subs: [p50, p99, cpu, avail, steal],
        }
    }
}

/// The part of a cumulative server histogram recorded between two
/// snapshots: bucket-wise difference, exact count and sum.
#[derive(Debug, Clone, Default)]
pub struct WindowHist {
    buckets: Vec<(u64, u64)>,
    count: u64,
    sum: u128,
}

impl WindowHist {
    /// `end − start` of the histogram named `name` (empty when the
    /// server never registered it).
    pub fn between(start: &MetricsSnapshot, end: &MetricsSnapshot, name: &str) -> WindowHist {
        let empty = Histogram::new();
        let a = start.histogram_named(name).unwrap_or(&empty);
        let Some(b) = end.histogram_named(name) else {
            return WindowHist::default();
        };
        let before: std::collections::BTreeMap<u64, u64> = a.nonzero_buckets().collect();
        let buckets: Vec<(u64, u64)> = b
            .nonzero_buckets()
            .map(|(upper, n)| (upper, n - before.get(&upper).copied().unwrap_or(0)))
            .filter(|&(_, n)| n > 0)
            .collect();
        WindowHist {
            buckets,
            count: b.count() - a.count(),
            sum: b.sum() - a.sum(),
        }
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile at bucket resolution (≤3.1% error).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut seen = 0;
        for &(upper, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return upper as f64;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_and_median() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn window_hist_subtracts_the_warmup() {
        let reg = milr_obs::MetricsRegistry::new();
        let h = reg.histogram("x");
        h.record(1000);
        let start = reg.snapshot();
        for v in [10, 20, 30] {
            h.record(v);
        }
        let w = WindowHist::between(&start, &reg.snapshot(), "x");
        assert_eq!(w.mean(), 20.0);
        assert_eq!(w.quantile(0.5), 20.0);
        assert_eq!(w.quantile(1.0), 30.0);
    }
}

//! Span bookkeeping: the benchmark's own spans around every call it
//! times, and the folds that turn the program's existing span trees
//! into per-request and per-heal self times.

use milr_obs::{SpanNode, SpanTree};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Calls per measurement are capped so a very fast call cannot grow
/// the in-memory span list without bound.
const MAX_CALLS: usize = 20_000;
/// Fewest timed calls per measurement, whatever the budget.
const MIN_CALLS: usize = 3;

/// The benchmark's own span tree, on one wall clock. Every timed call
/// is one span, so the per-layer numbers *are* span durations, and
/// `--spans-out` writes exactly what was measured.
#[derive(Debug)]
pub struct BenchSpans {
    origin: Instant,
    tree: SpanTree,
    roots: Vec<SpanNode>,
}

impl Default for BenchSpans {
    fn default() -> Self {
        BenchSpans {
            origin: Instant::now(),
            tree: SpanTree::new(),
            roots: Vec::new(),
        }
    }
}

impl BenchSpans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a grouping span (a phase, a layer's replay set).
    pub fn open(&mut self, name: &'static str, tag: u64) {
        let now = self.now();
        self.tree.open(now, name, tag);
    }

    /// Closes the innermost open span; completed roots are kept.
    pub fn close(&mut self) {
        let now = self.now();
        self.tree.close(now);
        if self.tree.depth() == 0 {
            self.roots.extend(self.tree.finish(now));
        }
    }

    /// Runs `f` once inside a span; returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, tag: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let t0 = self.now();
        self.tree.open(t0, name, tag);
        let out = black_box(f());
        let t1 = self.now();
        self.tree.close(t1);
        if self.tree.depth() == 0 {
            self.roots.extend(self.tree.finish(t1));
        }
        (out, t1 - t0)
    }

    /// Times `f` on a fresh `prep()` value, once untimed to warm
    /// caches and then for at least `MIN_CALLS` calls and `budget` of
    /// timed work. Returns each timed call's duration, ns.
    pub fn measure<T, R>(
        &mut self,
        name: &'static str,
        tag: u64,
        budget: Duration,
        mut prep: impl FnMut() -> T,
        mut f: impl FnMut(T) -> R,
    ) -> Vec<u64> {
        black_box(f(prep()));
        let budget = budget.as_nanos() as u64;
        let mut spent = 0;
        let mut out = Vec::new();
        while out.len() < MIN_CALLS || (spent < budget && out.len() < MAX_CALLS) {
            let input = prep();
            let ((), ns) = self.time(name, tag, || {
                black_box(f(input));
            });
            spent += ns;
            out.push(ns);
        }
        out
    }

    /// The completed roots as JSONL.
    pub fn to_jsonl(&self) -> String {
        self.roots.iter().map(|r| r.to_json() + "\n").collect()
    }
}

/// Median of durations, ns.
pub fn median_ns(samples: &[u64]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
    crate::stats::median(&v)
}

fn child_ns(node: &SpanNode, name: &str) -> u64 {
    node.children
        .iter()
        .filter(|c| c.name == name)
        .map(SpanNode::duration_ns)
        .sum()
}

/// Per-request folds of the server's `batch → decode → forward →
/// layer×N` trees whose batch started inside `[lo, hi)` (server clock).
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchFold {
    /// Requests served by the folded batches (sum of batch tags).
    pub requests: u64,
    /// Batch self time: batch duration minus its decode and forward.
    pub batch_ns: u64,
    /// Decode (batch stacking) time.
    pub decode_ns: u64,
    /// Forward time, layer spans folded in.
    pub forward_ns: u64,
    /// Σ batch duration × occupancy: the per-request compute time.
    pub weighted_ns: u128,
}

impl BatchFold {
    /// Folds the retained trees.
    pub fn of(trees: &[SpanNode], lo: u64, hi: u64) -> BatchFold {
        let mut f = BatchFold::default();
        for t in trees
            .iter()
            .filter(|t| t.name == "batch" && t.start_ns >= lo && t.start_ns < hi)
        {
            let (decode, forward) = (child_ns(t, "decode"), child_ns(t, "forward"));
            f.requests += t.tag;
            f.batch_ns += t.duration_ns().saturating_sub(decode + forward);
            f.decode_ns += decode;
            f.forward_ns += forward;
            f.weighted_ns += t.duration_ns() as u128 * t.tag as u128;
        }
        f
    }
}

/// Per-heal folds of the integrity engine's and the store's span trees
/// into one partition of heal-episode time: `tick` and `heal_round`
/// roots minus the `journal_commit` / `reanchor_commit` roots pushed
/// from inside them, `reanchor_commit` whole, `journal_commit` minus
/// its `fsync` child, and `fsync` itself. Nanosecond totals in
/// [`crate::workload::HEAL_SPANS`] order.
pub fn fold_heal(trees: &[SpanNode]) -> [u64; 5] {
    let store_roots: Vec<&SpanNode> = trees
        .iter()
        .filter(|t| t.name == "journal_commit" || t.name == "reanchor_commit")
        .collect();
    let nested = |outer: &SpanNode| -> u64 {
        store_roots
            .iter()
            .filter(|s| s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns)
            .map(|s| s.duration_ns())
            .sum()
    };
    let mut out = [0u64; 5];
    for t in trees {
        match t.name {
            "tick" => out[0] += t.duration_ns().saturating_sub(nested(t)),
            "heal_round" => out[1] += t.duration_ns().saturating_sub(nested(t)),
            "reanchor_commit" => out[2] += t.duration_ns(),
            "journal_commit" => {
                let fsync = child_ns(t, "fsync");
                out[3] += t.duration_ns().saturating_sub(fsync);
                out[4] += fsync;
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &'static str, tag: u64, a: u64, b: u64, children: Vec<SpanNode>) -> SpanNode {
        SpanNode {
            name,
            tag,
            start_ns: a,
            end_ns: b,
            children,
        }
    }

    #[test]
    fn batch_fold_partitions_batch_time() {
        let t = node(
            "batch",
            4,
            10,
            110,
            vec![
                node("decode", 4, 12, 20, vec![]),
                node(
                    "forward",
                    4,
                    20,
                    100,
                    vec![node("layer", 0, 20, 90, vec![])],
                ),
            ],
        );
        let f = BatchFold::of(std::slice::from_ref(&t), 0, 50);
        assert_eq!(
            (f.requests, f.batch_ns, f.decode_ns, f.forward_ns),
            (4, 12, 8, 80)
        );
        assert_eq!(f.weighted_ns, 400);
        assert_eq!(BatchFold::of(&[t], 11, 50).requests, 0, "window filter");
    }

    #[test]
    fn heal_fold_subtracts_store_roots_nested_in_time() {
        let trees = vec![
            node("tick", 0, 0, 10, vec![]),
            node(
                "heal_round",
                0,
                20,
                120,
                vec![node("Heal", 0, 20, 50, vec![])],
            ),
            node(
                "journal_commit",
                1,
                60,
                80,
                vec![node("fsync", 0, 65, 75, vec![])],
            ),
            node("reanchor_commit", 0, 90, 110, vec![]),
        ];
        assert_eq!(fold_heal(&trees), [10, 60, 20, 10, 10]);
    }

    #[test]
    fn measure_times_at_least_the_minimum_calls() {
        let mut spans = BenchSpans::default();
        spans.open("group", 0);
        let mut calls = 0;
        let samples = spans.measure("op", 7, Duration::ZERO, || 2, |x| calls += x);
        spans.close();
        assert_eq!(samples.len(), MIN_CALLS);
        assert_eq!(calls, 2 * (MIN_CALLS + 1), "one untimed warm-up call");
        let jsonl = spans.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1, "one root");
        assert!(jsonl.starts_with("{\"name\":\"group\""));
        assert_eq!(jsonl.matches("\"name\":\"op\"").count(), MIN_CALLS);
    }
}

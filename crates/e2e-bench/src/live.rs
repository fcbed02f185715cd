//! The open-loop load generator over the real threaded [`Server`].
//!
//! Two client threads: the calling thread is the generator — it sleeps
//! until each scheduled due time, then submits (or injects a fault) —
//! and one collector thread waits on the [`ResponseHandle`]s in
//! submission order and bit-checks every released output against its
//! golden. Every request is timed from its *due* time, so a generator
//! or server stall is charged to the requests it delayed.

use crate::rng::SplitMix64;
use crate::workload::{salt, Workload, CACHE_PAGES, SUB_WINDOW};
use milr_core::MilrConfig;
use milr_nn::Sequential;
use milr_obs::{EventKind, MetricsSnapshot, TraceEvent, TraceHandle, TraceSink};
use milr_serve::{ResponseHandle, ServeError, ServeReport, Server, ServerConfig};
use milr_tensor::Tensor;
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long unresolved requests may take after the window closes
/// before they count as failed and the server is shut down.
pub const DRAIN: Duration = Duration::from_secs(5);

/// One scheduled generator action.
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// Submit pool input `input`.
    Arrival {
        /// Due time, ns after the generator's origin.
        due_ns: u64,
        /// Index into the input pool.
        input: usize,
    },
    /// `Server::inject_weight_fault(layer, weight)`.
    Fault {
        /// Due time, ns after the generator's origin.
        due_ns: u64,
        /// Conv layer index.
        layer: usize,
        /// Weight index within the layer.
        weight: usize,
    },
}

impl Event {
    fn due_ns(&self) -> u64 {
        match *self {
            Event::Arrival { due_ns, .. } | Event::Fault { due_ns, .. } => due_ns,
        }
    }
}

/// One window's schedule: a warm-up (discarded), then the measured
/// window cut into equal sub-windows; faults fall only inside the
/// window, the same number in every sub-window.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Warm-up length, ns.
    pub warmup_ns: u64,
    /// Sub-window length, ns.
    pub sub_ns: u64,
    /// Number of sub-windows in the measured window.
    pub subs: usize,
    /// Arrivals and faults, by due time.
    pub events: Vec<Event>,
}

impl Plan {
    /// Sub-windows of [`SUB_WINDOW`] (at least one) tiling `window`.
    pub fn sub_windows(window: Duration) -> (usize, u64) {
        let subs = ((window.as_nanos() / SUB_WINDOW.as_nanos()) as usize).max(1);
        (subs, window.as_nanos() as u64 / subs as u64)
    }

    /// Arrivals of a Poisson process at `rate` req/s conditioned on its
    /// count — `round(rate × length)` arrivals at seeded uniform times
    /// in the warm-up and in every sub-window — so the requests sent
    /// per sub-window do not vary with the seed. `faults` (a whole
    /// number per sub-window) are spread evenly through the window.
    pub fn new(
        rate: f64,
        warmup: Duration,
        window: Duration,
        faults: &[(usize, usize)],
        seed: u64,
    ) -> Plan {
        let warmup_ns = warmup.as_nanos() as u64;
        let (subs, sub_ns) = Self::sub_windows(window);
        let mut rng = SplitMix64::new(seed, salt::ARRIVALS);
        let mut events = Vec::new();
        let spans = std::iter::once((0, warmup_ns))
            .chain((0..subs as u64).map(|k| (warmup_ns + k * sub_ns, sub_ns)));
        for (from, len) in spans {
            let n = (rate * len as f64 / 1e9).round() as usize;
            for _ in 0..n {
                events.push(Event::Arrival {
                    due_ns: from + (rng.next_f64() * len as f64) as u64,
                    input: rng.below(crate::workload::POOL),
                });
            }
        }
        let per_sub = faults.len() / subs;
        for (k, &(layer, weight)) in faults.iter().enumerate() {
            let (sub, j) = ((k / per_sub) as u64, (k % per_sub) as u64);
            let every = sub_ns / per_sub as u64;
            events.push(Event::Fault {
                due_ns: warmup_ns + sub * sub_ns + j * every + every / 2,
                layer,
                weight,
            });
        }
        events.sort_by_key(Event::due_ns);
        Plan {
            warmup_ns,
            sub_ns,
            subs,
            events,
        }
    }

    /// Measured window length, ns.
    pub fn window_ns(&self) -> u64 {
        self.sub_ns * self.subs as u64
    }
}

/// Records the server's quarantine edges (its only trace events this
/// benchmark keeps), so downtime can be cut per sub-window. Every
/// other event is dropped without taking a lock.
#[derive(Debug, Default)]
pub struct QuarantineEdges(Mutex<Vec<(u64, bool)>>);

impl TraceSink for QuarantineEdges {
    fn record(&self, event: TraceEvent) {
        if let EventKind::Quarantine { entered } = event.kind {
            self.0
                .lock()
                .expect("quarantine log poisoned")
                .push((event.ns, entered));
        }
    }
}

impl QuarantineEdges {
    /// Quarantine intervals `[enter, exit)` on the server clock; one
    /// still open closes at `end`.
    pub fn intervals(&self, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut open = None;
        for &(ns, entered) in self.0.lock().expect("quarantine log poisoned").iter() {
            match (entered, open) {
                (true, None) => open = Some(ns),
                (false, Some(at)) => {
                    out.push((at, ns));
                    open = None;
                }
                _ => {}
            }
        }
        out.extend(open.map(|at| (at, end)));
        out
    }
}

/// How a submitted request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// Released with an output bit-equal to golden.
    Correct,
    /// Released with an output that differs from golden.
    Mismatched,
    /// Rejected by the server (queue full, quarantine, shutdown).
    Rejected,
}

/// One request, as the clients saw it.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Due time, ns after origin.
    pub due_ns: u64,
    /// How late the generator submitted it, ns.
    pub late_ns: u64,
    /// Wall time inside `Server::submit`, ns.
    pub submit_ns: u64,
    /// Receipt by the collector, ns after origin.
    pub received_ns: u64,
    /// Outcome.
    pub fate: Fate,
}

/// Everything one window produced.
#[derive(Debug)]
pub struct WindowRun {
    /// Every request of warm-up and window, in submission order.
    pub records: Vec<Record>,
    /// The server's end-of-run report.
    pub report: ServeReport,
    /// Server metrics at the window start and after the drain.
    pub snapshots: (MetricsSnapshot, MetricsSnapshot),
    /// Process CPU time (user + system) at each sub-window boundary,
    /// ns: `subs + 1` samples.
    pub cpu_marks: Vec<u64>,
    /// Host steal time at each sub-window boundary, 100-Hz ticks:
    /// `subs + 1` samples.
    pub steal_marks: Vec<u64>,
    /// Quarantine intervals on the generator's clock.
    pub quarantines: Vec<(u64, u64)>,
    /// Faults injected while the server ran.
    pub faults_landed: usize,
    /// Drain deadline, ns after origin: later receipts are failures.
    pub deadline_ns: u64,
    /// Generator origin minus server start, ns (maps the server's
    /// clock onto the generator's).
    pub origin_offset_ns: u64,
    /// Warm-up length, ns.
    pub warmup_ns: u64,
    /// Sub-window length, ns.
    pub sub_ns: u64,
    /// Number of sub-windows.
    pub subs: usize,
}

impl WindowRun {
    /// Measured window length, ns.
    pub fn window_ns(&self) -> u64 {
        self.sub_ns * self.subs as u64
    }
}

fn sleep_until(origin: Instant, due_ns: u64) {
    let due = origin + Duration::from_nanos(due_ns);
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// A started server with the handles a window reads back.
pub struct Started {
    /// The server.
    pub server: Server,
    /// When `start` returned: the server's clock origin, to within the
    /// start call's tail.
    pub at: Instant,
    /// The server's quarantine edges.
    pub edges: Arc<QuarantineEdges>,
}

/// Drives a started server through `plan` and shuts it down.
pub fn run_window(
    started: Started,
    plan: &Plan,
    pool: &[Tensor],
    golden: Arc<Vec<Vec<u32>>>,
) -> WindowRun {
    struct Sent {
        due_ns: u64,
        late_ns: u64,
        submit_ns: u64,
        input: usize,
    }
    let Started { server, at, edges } = started;
    let (tx, rx) = mpsc::channel::<(Sent, Result<ResponseHandle, ServeError>)>();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let origin = Instant::now();
    let collector = std::thread::spawn(move || {
        let mut records = Vec::new();
        for (sent, submitted) in rx {
            let fate = match submitted.and_then(ResponseHandle::wait) {
                Ok(out) => {
                    let want = &golden[sent.input];
                    let same = out.data().len() == want.len()
                        && out.data().iter().zip(want).all(|(v, g)| v.to_bits() == *g);
                    if same {
                        Fate::Correct
                    } else {
                        Fate::Mismatched
                    }
                }
                Err(_) => Fate::Rejected,
            };
            records.push(Record {
                due_ns: sent.due_ns,
                late_ns: sent.late_ns,
                submit_ns: sent.submit_ns,
                received_ns: origin.elapsed().as_nanos() as u64,
                fate,
            });
        }
        let _ = done_tx.send(());
        records
    });

    // Samples CPU and host steal (and, at the window start, the
    // server's metrics) on every sub-window boundary up to `until`.
    let boundary = |k: usize| plan.warmup_ns + k as u64 * plan.sub_ns;
    let sample = |until: u64, marks: &mut Vec<(u64, u64)>, snap: &mut Option<MetricsSnapshot>| {
        while marks.len() <= plan.subs && until >= boundary(marks.len()) {
            sleep_until(origin, boundary(marks.len()));
            if marks.is_empty() {
                *snap = Some(server.metrics_snapshot());
            }
            marks.push((process_cpu_ns(), host_steal_ticks()));
        }
    };
    let mut marks = Vec::with_capacity(plan.subs + 1);
    let mut snap_start = None;
    let mut faults_landed = 0;
    for event in &plan.events {
        sample(event.due_ns(), &mut marks, &mut snap_start);
        sleep_until(origin, event.due_ns());
        match *event {
            Event::Arrival { due_ns, input } => {
                let x = pool[input].clone();
                let late_ns = (origin.elapsed().as_nanos() as u64).saturating_sub(due_ns);
                let t = Instant::now();
                let submitted = server.submit(x);
                let submit_ns = t.elapsed().as_nanos() as u64;
                let sent = Sent {
                    due_ns,
                    late_ns,
                    submit_ns,
                    input,
                };
                tx.send((sent, submitted))
                    .expect("collector outlives the generator");
            }
            Event::Fault { layer, weight, .. } => {
                server.inject_weight_fault(layer, weight);
                faults_landed += 1;
            }
        }
    }
    sample(u64::MAX, &mut marks, &mut snap_start);
    let (cpu_marks, steal_marks) = marks.into_iter().unzip();
    drop(tx);
    let deadline_ns = plan.warmup_ns + plan.window_ns() + DRAIN.as_nanos() as u64;
    let left = Duration::from_nanos(deadline_ns.saturating_sub(origin.elapsed().as_nanos() as u64));
    // A livelocked server never resolves its requests: past the
    // deadline they count as failed, and shutdown rejects them, which
    // unblocks the collector.
    let _ = done_rx.recv_timeout(left);
    let snap_end = server.metrics_snapshot();
    let report = server.shutdown();
    let records = collector.join().expect("collector thread panicked");
    let offset = origin.saturating_duration_since(at).as_nanos() as u64;
    let quarantines = edges
        .intervals(offset + origin.elapsed().as_nanos() as u64)
        .into_iter()
        .map(|(a, b)| (a.saturating_sub(offset), b.saturating_sub(offset)))
        .collect();
    WindowRun {
        records,
        report,
        snapshots: (snap_start.expect("sampled at the window start"), snap_end),
        cpu_marks,
        steal_marks,
        quarantines,
        faults_landed,
        deadline_ns,
        origin_offset_ns: offset,
        warmup_ns: plan.warmup_ns,
        sub_ns: plan.sub_ns,
        subs: plan.subs,
    }
}

/// Process user + system CPU time, dead threads included, from
/// `/proc/self/stat` (utime and stime, fields 14 and 15, in 100-Hz
/// ticks), ns; 0 without procfs.
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Time the hypervisor ran other guests while this VM's vCPUs wanted
/// to run, summed over vCPUs (`steal` of `/proc/stat`'s `cpu` line), in
/// 100-Hz ticks; 0 without procfs. Client latency follows it on a
/// shared host (see the README), so the detail line carries it.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a workload's servers come from: the golden model, or a
/// pristine container (clean, or with seeded disk flips) copied afresh
/// for every start.
pub enum Source<'a> {
    /// `Server::start(golden, ..)`.
    Model(&'a Sequential),
    /// `fs::copy(pristine, ..)` then `Server::start_from_store`.
    Container {
        /// The container every start copies.
        pristine: &'a Path,
        /// Directory the copies live in.
        dir: &'a Path,
    },
}

/// One timed start. Returns the started server and the start's wall
/// time (container copy included).
pub fn start(
    w: &Workload,
    source: &Source<'_>,
    spans: Option<milr_obs::SpanHandle>,
    seq: usize,
) -> (Started, Duration) {
    let edges = Arc::new(QuarantineEdges::default());
    // Defaults, except two workers and the workload's substrate, plus
    // the quarantine-edge sink and an optional span ring.
    let config = ServerConfig {
        workers: 2,
        substrate: w.substrate,
        trace: Some(TraceHandle::new(edges.clone())),
        spans,
        ..ServerConfig::default()
    };
    let t = Instant::now();
    let server = match source {
        Source::Model(golden) => Server::start(golden, MilrConfig::default(), config)
            .expect("protecting the golden model cannot fail"),
        Source::Container { pristine, dir } => {
            let path = dir.join(format!("serve-{seq}.milr"));
            std::fs::copy(pristine, &path).expect("copying the pristine container");
            Server::start_from_store(&path, CACHE_PAGES, config)
                .expect("cold start heals any seeded disk flips")
                .0
        }
    };
    let at = Instant::now();
    (Started { server, at, edges }, at - t)
}

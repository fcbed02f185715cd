//! One workload, end to end: set-up timing, the untraced measured
//! window, and — for traced runs — a traced window plus the per-layer
//! replays. Prints every metric by name and unit, and returns the
//! result line.

use crate::json::Json;
use crate::layers::{make_container, replay};
use crate::live::{peak_rss_mb, run_window, start, Plan, Source, Started, WindowRun};
use crate::spans::{BatchFold, BenchSpans};
use crate::speed::{at_nominal, SpeedRef};
use crate::stats::{median, quantile, sorted, WindowHist, WindowStats};
use crate::workload::{
    fault_targets, golden_outputs, input_pool, per_layer_specs, salt, Workload, END_TO_END,
    REQ_SPANS,
};
use milr_core::{Milr, MilrConfig};
use milr_obs::{SpanHandle, SpanRing};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Starts timed per untraced run, half before the window and half
/// after it, so one stretch of co-tenant CPU noise cannot cover them
/// all; `setup_s` is the lower quartile of their times at nominal host
/// speed. A start is a few milliseconds, so a single preemption or a
/// slow file copy can double it: the noise only ever adds time, and the
/// lower quartile of twenty ignores the worst fifteen.
pub const SETUP_STARTS: usize = 20;
/// Pause between timed starts.
pub const SETUP_GAP: Duration = Duration::from_millis(50);
/// Warm-up is discarded; it is this share of the window, at most 2 s.
pub const MAX_WARMUP: Duration = Duration::from_secs(2);
/// A window whose generator ran later than this at p99 is marked
/// invalid on the detail line.
pub const MAX_GEN_LATE_P99_MS: f64 = 5.0;
/// Completed span trees the traced server keeps (enough for a whole
/// traced run at the highest workload rate).
const SPAN_RING: usize = 1 << 17;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: &'static Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured window length.
    pub window: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Multiplies the workload's arrival rate (smoke tests).
    pub rate_scale: f64,
    /// Where to write the benchmark's own spans, if anywhere.
    pub spans_out: Option<PathBuf>,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Json,
    /// Validity fields and ungated ratios, printed but not gated.
    pub detail: Json,
    /// False when a clean workload mismatched or failed a request.
    pub ok: bool,
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// Scratch directory beside the executable, in Cargo's target
/// directory, unique per process.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("locating the executable");
    let dir = exe
        .parent()
        .expect("the executable lives in a directory")
        .join("e2e_bench_work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&dir).expect("creating the work directory");
    dir
}

/// The set-up times of one run.
#[derive(Debug, Default)]
struct Starts {
    /// Each start's wall time, s.
    wall_s: Vec<f64>,
    /// The mean of the host speed readings just before and just after
    /// each start, µs.
    reading_us: Vec<f64>,
    /// Each start's wall time at the nominal host speed, s.
    nominal_s: Vec<f64>,
}

/// Times one start per `seq`, each between two host speed readings,
/// and shuts each down; `SETUP_GAP` follows every start.
fn timed_starts(
    w: &Workload,
    source: &Source<'_>,
    seqs: std::ops::Range<usize>,
    speed: &SpeedRef,
    starts: &mut Starts,
) {
    for seq in seqs {
        let before = speed.read();
        let (started, took) = start(w, source, None, seq);
        let reading = (before + speed.read()) / 2;
        starts.wall_s.push(took.as_secs_f64());
        starts.reading_us.push(reading.as_secs_f64() * 1e6);
        starts.nominal_s.push(at_nominal(took, reading));
        drop(started.server.shutdown());
        std::thread::sleep(SETUP_GAP);
    }
}

/// Runs one workload.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let work = work_dir();
    let outcome = run_in(opts, w, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    outcome
}

fn run_in(opts: &Options, w: &'static Workload, work: &std::path::Path) -> Outcome {
    let mut spans = BenchSpans::default();
    let model = w.net.model();
    let pool = input_pool(&model, opts.seed);
    let golden = Arc::new(golden_outputs(&model, &pool));
    let milr = Milr::protect(&model, MilrConfig::default()).expect("golden protects");
    let window = opts.window;
    let warmup = (window / 5).min(MAX_WARMUP);
    let (subs, _) = Plan::sub_windows(window);
    let count = subs * w.faults_per_sub;
    let targets = spans
        .time("fault_targets", count as u64, || {
            fault_targets(&model, w.substrate, opts.seed, salt::FAULTS, count)
        })
        .0;
    let rate = w.rate_rps * opts.rate_scale;
    let plan = Plan::new(rate, warmup, window, &targets, opts.seed);
    // A store-backed server serves from a container with the seeded
    // disk flips, so its cold start heals them through the journal and
    // a re-anchor. Its timed starts use a clean container instead: a
    // healing boot is mostly fsync waits, which drifted 2–3× within
    // minutes on the shared disk the benchmark was built on. The
    // healing boot is timed per layer, as `store.cold_start_ms`.
    let clean = work.join("clean.milr");
    let flipped = work.join("flipped.milr");
    let (timed, serving) = if w.store {
        make_container(&model, w.substrate, opts.seed, &clean, false);
        make_container(&model, w.substrate, opts.seed, &flipped, true);
        (
            Source::Container {
                pristine: &clean,
                dir: work,
            },
            Source::Container {
                pristine: &flipped,
                dir: work,
            },
        )
    } else {
        (Source::Model(&model), Source::Model(&model))
    };

    println!(
        "workload {} seed {} window {:.1} s ({subs} sub-windows) warm-up {:.1} s rate {rate} req/s faults {}",
        w.name,
        opts.seed,
        window.as_secs_f64(),
        warmup.as_secs_f64(),
        targets.len()
    );

    // Set-up: the lower quartile of several timed starts, some before
    // the window and the rest after it, so one stretch of co-tenant CPU
    // noise cannot cover them all. The window gets a server of its own.
    let speed = SpeedRef::default();
    let before = SETUP_STARTS - SETUP_STARTS / 2;
    let mut starts = Starts::default();
    spans.open("setup", before as u64);
    timed_starts(w, &timed, 0..before, &speed, &mut starts);
    spans.close();

    // One window per server. An invalid window is flagged, not measured
    // again: a second window would double the run's length.
    let measure = |spans: &mut BenchSpans, started: Started| -> (WindowRun, WindowStats, bool) {
        let run = spans
            .time("window", 0, || {
                run_window(started, &plan, &pool, Arc::clone(&golden))
            })
            .0;
        let stats = WindowStats::of(&run);
        let valid = stats.gen_late_p99_ms <= MAX_GEN_LATE_P99_MS;
        if !valid {
            println!(
                "  generator p99 lateness {:.3} ms > {MAX_GEN_LATE_P99_MS} ms: window invalid",
                stats.gen_late_p99_ms
            );
        }
        (run, stats, valid)
    };

    let served = start(w, &serving, None, SETUP_STARTS).0;
    let (run, stats, valid) = measure(&mut spans, served);
    let rss = peak_rss_mb();
    if !opts.trace {
        spans.open("setup", (SETUP_STARTS - before) as u64);
        timed_starts(w, &timed, before..SETUP_STARTS, &speed, &mut starts);
        spans.close();
    }
    let setup_s = quantile(&sorted(starts.nominal_s.iter().copied()), 0.25);
    let completed = stats.attempted - stats.failed;
    let e2e = [
        stats.goodput_rps,
        completed as f64 / stats.attempted.max(1) as f64,
        (completed - stats.mismatched) as f64 / completed.max(1) as f64,
        stats.availability,
        stats.cpu_ms_per_req,
        rss,
        setup_s,
    ];
    let mut attempted = stats.attempted;
    let mut failed = stats.failed;
    let mut mismatched = stats.mismatched;
    let mut correct = stats.mismatched == 0;
    let mut detail = Json::obj()
        .with("workload", w.name)
        .with("seed", opts.seed)
        .with("valid", valid)
        .with("latency_p50_ms", stats.p50_ms)
        .with("latency_p99_ms", stats.p99_ms)
        .with("faults_landed", run.faults_landed)
        .with("quarantines", run.report.quarantines)
        .with("gen_late_p99_ms", stats.gen_late_p99_ms)
        .with("quarantine_mean_ms", stats.quarantine_mean_ms)
        .with("heals_exact", run.report.pipeline.heals_exact)
        .with("heals_approx", run.report.pipeline.heals_approx)
        .with("setup_wall_s", nums(&starts.wall_s))
        .with("setup_speed_us", nums(&starts.reading_us))
        .with(
            "sub_windows",
            Json::obj()
                .with("latency_p50_ms", nums(&stats.subs[0]))
                .with("latency_p99_ms", nums(&stats.subs[1]))
                .with("cpu_ms_per_req", nums(&stats.subs[2]))
                .with("availability", nums(&stats.subs[3]))
                .with("steal_ticks", nums(&stats.subs[4])),
        );
    let silent = |mismatched: usize, approx: usize| {
        if mismatched > 0 && approx == 0 {
            println!(
                "  SILENT: {mismatched} released outputs differ from golden while every heal reported exact"
            );
        }
    };
    silent(stats.mismatched, run.report.pipeline.heals_approx);

    let mut metrics = Json::obj();
    if !opts.trace {
        for ((name, unit), value) in END_TO_END.iter().zip(e2e) {
            metrics.push(name, metric(value, unit));
        }
    } else {
        let ring = SpanHandle::new(Arc::new(SpanRing::new(SPAN_RING)));
        let traced = start(w, &serving, Some(ring.clone()), SETUP_STARTS + 1).0;
        let (trun, tstats, tvalid) = measure(&mut spans, traced);
        silent(tstats.mismatched, trun.report.pipeline.heals_approx);
        attempted += tstats.attempted;
        failed += tstats.failed;
        mismatched += tstats.mismatched;
        correct &= tstats.mismatched == 0;
        detail.push("trace_valid", tvalid);
        detail.push("trace_spans_dropped", ring.ring().dropped());
        let replays = replay(opts, &model, &milr, &pool, work, &mut spans);
        correct &= replays.exact;
        let live = live_layer_metrics(&trun, &tstats, &stats, &ring);
        let mut values: std::collections::BTreeMap<String, f64> =
            live.into_iter().chain(replays.metrics).collect();
        for (name, unit) in per_layer_specs() {
            let value = values.remove(&name).unwrap_or(f64::NAN);
            metrics.push(&name, metric(value, unit));
        }
        debug_assert!(values.is_empty(), "unlisted per-layer metrics: {values:?}");
    }

    for (name, m) in metrics.fields() {
        println!(
            "  {name:<40} = {:>14.6} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
    println!(
        "  latency (not gated): p50 {:.3} ms, p99 {:.3} ms; host steal {:.0} ticks per sub-window (median)",
        stats.p50_ms,
        stats.p99_ms,
        median(&stats.subs[4])
    );
    println!(
        "  validity: valid={valid} faults_landed={} quarantines={} gen_late_p99_ms={:.3} failed={failed}/{attempted} mismatched={mismatched}",
        run.faults_landed, run.report.quarantines, stats.gen_late_p99_ms
    );
    if let Some(path) = &opts.spans_out {
        std::fs::write(path, spans.to_jsonl()).expect("writing --spans-out");
    }
    let ok = !(w.is_clean() && (mismatched > 0 || failed > 0));
    Outcome {
        result: Json::obj()
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics),
        detail,
        ok,
    }
}

/// Per-layer metrics read off the live traced window: the server's
/// metrics snapshot and report, benchmark-timed submits, the span
/// ring folded per request, and the two harness checks.
fn live_layer_metrics(
    run: &WindowRun,
    stats: &WindowStats,
    untraced: &WindowStats,
    ring: &SpanHandle,
) -> Vec<(String, f64)> {
    let (a, b) = &run.snapshots;
    let hold = WindowHist::between(a, b, "serve_ledger_hold_ns");
    let wait = WindowHist::between(a, b, "serve_batch_wait_ns");
    let occupancy = WindowHist::between(a, b, "serve_batch_occupancy");
    let lo = run.warmup_ns + run.origin_offset_ns;
    let fold = BatchFold::of(&ring.ring().trees(), lo, lo + run.window_ns());
    let per_req = |ns: u64| ns as f64 / 1e6 / fold.requests.max(1) as f64;
    let batch_mean_ns = fold.weighted_ns as f64 / fold.requests.max(1) as f64;
    let parts = stats.mean_late_ns + wait.mean() + batch_mean_ns + hold.mean();
    let report = &run.report;
    let mut out: Vec<(String, f64)> = vec![
        ("serve.submit_us_p50".into(), stats.submit_us_p50),
        ("serve.ledger_hold_ms_p50".into(), hold.quantile(0.5) / 1e6),
        ("serve.batch_wait_ms_p99".into(), wait.quantile(0.99) / 1e6),
        ("serve.batch_occupancy".into(), occupancy.mean()),
        (
            "serve.reexecuted_ratio".into(),
            report.reexecuted as f64 / report.submitted.max(1) as f64,
        ),
        (
            "trace.overhead_ratio".into(),
            stats.p50_ms / untraced.p50_ms,
        ),
        (
            "reconcile.gap_ratio".into(),
            (stats.mean_latency_ns - parts).abs() / stats.mean_latency_ns,
        ),
    ];
    for (span, ns) in REQ_SPANS
        .iter()
        .zip([fold.batch_ns, fold.decode_ns, fold.forward_ns])
    {
        out.push((format!("span.self_ms_per_req.{span}"), per_req(ns)));
    }
    out
}

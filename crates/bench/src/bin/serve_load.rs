//! `serve_load`: drives a seeded synthetic request workload through the
//! `milr-serve` virtual-clock simulation — batched inference under
//! continuous background fault injection, with online detection,
//! quarantine and recovery — and emits a JSON summary whose measured
//! availability is directly comparable to Equation 6's prediction.
//!
//! ```text
//! cargo run --release -p milr-bench --bin serve_load
//! cargo run --release -p milr-bench --bin serve_load -- \
//!     --requests 400 --faults 3 --policy reject --json BENCH_serve.json
//! ```
//!
//! The run is deterministic under `--seed`: re-running prints the same
//! digest and availability bit-for-bit.
//!
//! `--live` instead runs the real multi-threaded server under a
//! wall-clock fault campaign and reports its sustained QPS.
//!
//! `--check-report-against FILE` requires this run's `report` JSON to
//! equal the `report` of a previously recorded summary byte for byte —
//! the CI behaviour gate. The simulation is a pure function of its
//! flags, so any change in scheduling, certification, quarantine, or
//! accounting shows up as a diff.

use milr_bench::json::{write_summary, JsonObject};
use milr_bench::live::{run_live, LiveConfig};
use milr_bench::obs::ObsOutputs;
use milr_bench::serve::run_measured_observed;
use milr_core::MilrConfig;
use milr_serve::sim::SimConfig;
use milr_serve::QuarantinePolicy;
use milr_substrate::SubstrateKind;
use std::time::Duration;

struct Cli {
    sim: SimConfig,
    json: Option<String>,
    model_seed: u64,
    live: bool,
    substrate: SubstrateKind,
    fault_every_ms: u64,
    check_report_against: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    spans_out: Option<String>,
    slo_out: Option<String>,
    live_http: Option<String>,
    live_http_hold_ms: u64,
}

fn parse_cli() -> Result<Cli, String> {
    let mut sim = SimConfig::default();
    let mut json = None;
    let mut model_seed = 42u64;
    let mut live = false;
    let mut substrate = SubstrateKind::XtsSecded;
    let mut fault_every_ms = 40u64;
    let mut check_report_against = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut spans_out = None;
    let mut slo_out = None;
    let mut live_http = None;
    let mut live_http_hold_ms = 0u64;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--requests" => {
                sim.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--seed" => {
                sim.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--model-seed" => {
                model_seed = value("--model-seed")?
                    .parse()
                    .map_err(|e| format!("bad --model-seed: {e}"))?
            }
            "--workers" => {
                sim.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--faults" => {
                sim.faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("bad --faults: {e}"))?
            }
            "--batch-max" => {
                sim.batch_max = value("--batch-max")?
                    .parse()
                    .map_err(|e| format!("bad --batch-max: {e}"))?
            }
            "--scrub-interval-us" => {
                let us: u64 = value("--scrub-interval-us")?
                    .parse()
                    .map_err(|e| format!("bad --scrub-interval-us: {e}"))?;
                sim.scrub_interval_ns = us * 1_000;
            }
            "--policy" => {
                sim.policy = match value("--policy")?.as_str() {
                    "drain" => QuarantinePolicy::Drain,
                    "reject" => QuarantinePolicy::Reject,
                    other => return Err(format!("unknown policy {other}")),
                }
            }
            "--batch-wait-us" => {
                let us: u64 = value("--batch-wait-us")?
                    .parse()
                    .map_err(|e| format!("bad --batch-wait-us: {e}"))?;
                sim.batch_wait_ns = us * 1_000;
            }
            "--live" => live = true,
            "--substrate" => {
                substrate = match value("--substrate")?.as_str() {
                    "plain" => SubstrateKind::Plain,
                    "secded" => SubstrateKind::Secded,
                    "xts" => SubstrateKind::Xts,
                    "xts-secded" => SubstrateKind::XtsSecded,
                    other => return Err(format!("unknown substrate {other}")),
                }
            }
            "--fault-every-ms" => {
                fault_every_ms = value("--fault-every-ms")?
                    .parse()
                    .map_err(|e| format!("bad --fault-every-ms: {e}"))?
            }
            "--check-report-against" => {
                check_report_against = Some(value("--check-report-against")?)
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--spans-out" => spans_out = Some(value("--spans-out")?),
            "--slo-out" => slo_out = Some(value("--slo-out")?),
            "--live-http" => live_http = Some(value("--live-http")?),
            "--live-http-hold-ms" => {
                live_http_hold_ms = value("--live-http-hold-ms")?
                    .parse()
                    .map_err(|e| format!("bad --live-http-hold-ms: {e}"))?
            }
            "--json" => json = Some(value("--json")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        sim,
        json,
        model_seed,
        live,
        substrate,
        fault_every_ms,
        check_report_against,
        trace_out,
        metrics_out,
        spans_out,
        slo_out,
        live_http,
        live_http_hold_ms,
    })
}

/// The `"report"` object of a summary this binary wrote: the balanced
/// `{…}` after the first `"report":` key (our own serializer, so a scan
/// is exact — no string in it contains a brace).
fn report_json(text: &str) -> Option<&str> {
    let key = "\"report\":";
    let start = text.find(key)? + key.len();
    let mut depth = 0usize;
    for (i, c) in text[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some(&text[start..=start + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// The CI behaviour gate: the run's report must equal the recorded
/// baseline's byte for byte.
fn enforce_report_gate(current: &str, baseline_path: &str) {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: report gate could not read {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let Some(baseline) = report_json(&text) else {
        eprintln!("error: {baseline_path} has no \"report\" object");
        std::process::exit(1);
    };
    if current != baseline {
        eprintln!(
            "error: the report diverged from the recorded baseline\n  got:  {current}\n  want: {baseline}"
        );
        std::process::exit(1);
    }
    println!("report gate: byte-identical to {baseline_path}");
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: [--requests N] [--seed N] [--model-seed N] [--workers N] [--faults N] \
                 [--batch-max N] [--batch-wait-us N] [--scrub-interval-us N] \
                 [--policy drain|reject] [--live] [--substrate plain|secded|xts|xts-secded] \
                 [--fault-every-ms N] [--check-report-against FILE] [--trace-out FILE] \
                 [--metrics-out FILE] [--spans-out FILE] [--slo-out FILE] \
                 [--live-http ADDR] [--live-http-hold-ms N] [--json FILE]"
            );
            std::process::exit(2);
        }
    };
    let net = milr_models::reduced_mnist(cli.model_seed);
    if cli.live {
        if cli.check_report_against.is_some() {
            eprintln!(
                "error: --check-report-against gates the deterministic simulation, not --live"
            );
            std::process::exit(2);
        }
        run_live_once(&cli, &net.model);
        return;
    }
    let obs_out = ObsOutputs::from_flags(cli.trace_out.clone(), cli.metrics_out.clone())
        .with_spans(cli.spans_out.clone())
        .with_slo(cli.slo_out.clone());
    let (result, cmp, storage) = run_measured_observed(
        &net.model,
        MilrConfig::default(),
        &cli.sim,
        &obs_out.observer(),
    )
    .expect("serving simulation cannot fail structurally");
    let r = &result.report;

    println!("# serve_load — online serving with live fault scrubbing [reduced MNIST twin]");
    println!(
        "workload: {} requests, {} workers, batch ≤ {}, policy {}, seed {:#x}",
        r.submitted, cli.sim.workers, cli.sim.batch_max, r.policy, r.seed
    );
    println!(
        "outcome:  {} completed, {} rejected, {} re-executed after flagged scrubs",
        r.completed, r.rejected, r.reexecuted
    );
    println!(
        "faults:   {} injected -> {} quarantines, {} layer recoveries, {} scrub ticks",
        r.faults_injected, r.quarantines, r.layers_recovered, r.scrub_ticks
    );
    println!(
        "latency:  mean {:.1} us, p50 {:.1} us, p95 {:.1} us, p99 {:.1} us, max {:.1} us",
        r.latency.mean_us, r.latency.p50_us, r.latency.p95_us, r.latency.p99_us, r.latency.max_us
    );
    println!(
        "batching: {} batches ({} full), mean occupancy {:.2} of {} max",
        r.batches, r.full_batches, r.batch_occupancy, cli.sim.batch_max
    );
    println!(
        "clock:    {:.3} ms total, {:.3} ms quarantined",
        r.total_ns as f64 / 1e6,
        r.downtime_ns as f64 / 1e6
    );
    println!(
        "availability (measured):          {:.9}",
        cmp.measured_availability
    );
    println!(
        "availability (Eq.6 @ cadence):    {:.9}   <- every cycle pays Td+Tr",
        cmp.modeled_eq6_availability
    );
    println!(
        "availability (modeled per fault): {:.9}   <- downtime only on faults",
        cmp.modeled_per_fault_availability
    );
    println!("digest:   {:#x} (seed-reproducible)", r.digest);
    if let Some(slo) = &r.slo {
        println!(
            "slo:      {} ({} alert(s) fired)",
            if slo.pass { "PASS" } else { "FAIL" },
            slo.alerts
        );
    }

    obs_out.flush();
    obs_out.write_slo(r.slo.as_ref());
    let json = JsonObject::new()
        .raw("report", &r.to_json())
        .raw("comparison", &cmp.to_json())
        .raw("storage", &storage.to_json())
        .finish();
    write_summary(&json, cli.json.as_deref());
    if let Some(baseline) = &cli.check_report_against {
        enforce_report_gate(&r.to_json(), baseline);
    }
}

/// The `--live` mode: one wall-clock campaign through the real server.
fn run_live_once(cli: &Cli, model: &milr_nn::Sequential) {
    // The live server keeps its own metrics registry (snapshotted at
    // shutdown), so only the trace and spans ride through ObsOutputs.
    let obs_out = ObsOutputs::from_flags(cli.trace_out.clone(), None)
        .with_spans(cli.spans_out.clone())
        .with_slo(cli.slo_out.clone());
    let live_cfg = LiveConfig {
        requests: cli.sim.requests,
        seed: cli.sim.seed,
        workers: cli.sim.workers,
        batch_max: cli.sim.batch_max,
        batch_wait: Duration::from_nanos(cli.sim.batch_wait_ns),
        substrate: cli.substrate,
        fault_every: (cli.fault_every_ms > 0).then(|| Duration::from_millis(cli.fault_every_ms)),
        // Termination guarantee on starved machines: a fault-free tail
        // always exists, so certification cannot livelock.
        max_faults: Some(cli.sim.requests),
        trace: obs_out.observer().trace,
        spans: obs_out.span_handle(),
        http_addr: cli.live_http.clone(),
        http_hold: Duration::from_millis(cli.live_http_hold_ms),
        ..LiveConfig::default()
    };
    println!("# serve_load --live — real server under a fault campaign [reduced MNIST twin]");
    println!(
        "workload: {} requests, {} workers, batch <= {} (wait {} us), {:?} substrate, \
         fault every {} ms",
        live_cfg.requests,
        live_cfg.workers,
        live_cfg.batch_max,
        live_cfg.batch_wait.as_micros(),
        live_cfg.substrate,
        cli.fault_every_ms
    );
    let out = run_live(model, MilrConfig::default(), &live_cfg)
        .expect("live server cannot fail structurally");
    println!(
        "live: {:.1} qps ({} completed in {:.3} s), p50 {:.1} us, p99 {:.1} us, \
         {} faults -> {} quarantines",
        out.qps,
        out.report.completed,
        out.elapsed.as_secs_f64(),
        out.report.latency.p50_us,
        out.report.latency.p99_us,
        out.faults_injected,
        out.report.quarantines
    );
    if let Some(slo) = &out.report.slo {
        println!(
            "slo:      {} ({} alert(s) fired)",
            if slo.pass { "PASS" } else { "FAIL" },
            slo.alerts
        );
    }
    obs_out.flush();
    obs_out.write_slo(out.report.slo.as_ref());
    if let Some(path) = &cli.metrics_out {
        if let Err(e) = std::fs::write(path, out.metrics.to_prometheus()) {
            eprintln!("error: write {path}: {e}");
            std::process::exit(1);
        }
        println!("metrics:  {path}");
    }
    write_summary(&out.to_json(), cli.json.as_deref());
}

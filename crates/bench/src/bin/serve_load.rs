//! `serve_load`: drives a seeded synthetic request workload through the
//! `milr-serve` virtual-clock simulation — batched inference under
//! continuous background fault injection, with online detection,
//! quarantine and recovery — and emits a JSON summary whose measured
//! availability is directly comparable to Equation 6's prediction.
//!
//! ```text
//! cargo run --release -p milr-bench --bin serve_load
//! cargo run --release -p milr-bench --bin serve_load -- \
//!     --requests 400 --faults 3 --json BENCH_serve.json
//! ```
//!
//! The run is deterministic under `--seed`: re-running prints the same
//! digest and availability bit-for-bit.
//!
//! `--check-report-against FILE` requires this run's `report` JSON to
//! equal the `report` of a previously recorded summary byte for byte —
//! the CI behaviour gate. The simulation is a pure function of its
//! flags, so any change in scheduling, certification, quarantine, or
//! accounting shows up as a diff.

use milr_bench::json::{report_json, write_summary};
use milr_bench::obs::ObsOutputs;
use milr_bench::serve::run_measured_observed;
use milr_core::MilrConfig;
use milr_obs::json::JsonObject;
use milr_serve::sim::SimConfig;

struct Cli {
    sim: SimConfig,
    json: Option<String>,
    model_seed: u64,
    check_report_against: Option<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    spans_out: Option<String>,
    slo_out: Option<String>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut sim = SimConfig::default();
    let mut json = None;
    let mut model_seed = 42u64;
    let mut check_report_against = None;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut spans_out = None;
    let mut slo_out = None;
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
            "--check-report-against" => {
                check_report_against = Some(value("--check-report-against")?)
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--spans-out" => spans_out = Some(value("--spans-out")?),
            "--slo-out" => slo_out = Some(value("--slo-out")?),
            "--json" => json = Some(value("--json")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        sim,
        json,
        model_seed,
        check_report_against,
        trace_out,
        metrics_out,
        spans_out,
        slo_out,
    })
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
                 [--batch-max N] [--scrub-interval-us N] \
                 [--check-report-against FILE] [--trace-out FILE] [--metrics-out FILE] \
                 [--spans-out FILE] [--slo-out FILE] [--json FILE]"
            );
            std::process::exit(2);
        }
    };
    let net = milr_models::reduced_mnist(cli.model_seed);
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
        "workload: {} requests, {} workers, batch ≤ {}, seed {:#x}",
        r.submitted, cli.sim.workers, cli.sim.batch_max, r.seed
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
        .raw("report", r.to_json())
        .raw("comparison", cmp.to_json())
        .raw("storage", storage.to_json())
        .finish();
    write_summary(&json, cli.json.as_deref());
    if let Some(baseline) = &cli.check_report_against {
        enforce_report_gate(&r.to_json(), baseline);
    }
}

//! `fleet_load`: drives a seeded synthetic workload through the
//! `milr-fleet` virtual-clock simulation — three (by default) replicas
//! behind the round-robin router, under a fault campaign that includes
//! both recoverable whole-weight faults and beyond-MILR-capacity heavy
//! faults that force peer repair — and emits a JSON summary comparing
//! the measured fleet availability against the paper's Equation 6
//! extended to N replicas (`1 − (1 − A₁)^N`).
//!
//! ```text
//! cargo run --release -p milr-bench --bin fleet_load
//! cargo run --release -p milr-bench --bin fleet_load -- \
//!     --replicas 3 --requests 200 --faults 2 --heavy-faults 1 \
//!     --json BENCH_fleet.json
//! ```
//!
//! The run is deterministic under `--seed`: re-running prints the same
//! digest and availability bit-for-bit.

use milr_bench::fleet::run_fleet_measured_observed;
use milr_bench::json::write_summary;
use milr_bench::obs::ObsOutputs;
use milr_core::MilrConfig;
use milr_fleet::FleetConfig;
use milr_obs::json::JsonObject;
use milr_substrate::SubstrateKind;

struct Cli {
    fleet: FleetConfig,
    json: Option<String>,
    model_seed: u64,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    spans_out: Option<String>,
    slo_out: Option<String>,
    slo_gate: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut fleet = FleetConfig {
        requests: 200,
        faults: 2,
        heavy_faults: 1,
        ..FleetConfig::default()
    };
    let mut json = None;
    let mut model_seed = 42u64;
    let mut trace_out = None;
    let mut metrics_out = None;
    let mut spans_out = None;
    let mut slo_out = None;
    let mut slo_gate = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--replicas" => {
                fleet.replicas = value("--replicas")?
                    .parse()
                    .map_err(|e| format!("bad --replicas: {e}"))?
            }
            "--requests" => {
                fleet.requests = value("--requests")?
                    .parse()
                    .map_err(|e| format!("bad --requests: {e}"))?
            }
            "--seed" => {
                fleet.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--model-seed" => {
                model_seed = value("--model-seed")?
                    .parse()
                    .map_err(|e| format!("bad --model-seed: {e}"))?
            }
            "--workers" => {
                fleet.workers_per_replica = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?
            }
            "--faults" => {
                fleet.faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("bad --faults: {e}"))?
            }
            "--heavy-faults" => {
                fleet.heavy_faults = value("--heavy-faults")?
                    .parse()
                    .map_err(|e| format!("bad --heavy-faults: {e}"))?
            }
            "--substrate" => {
                fleet.kind = match value("--substrate")?.as_str() {
                    "plain" => SubstrateKind::Plain,
                    "secded" => SubstrateKind::Secded,
                    "xts" => SubstrateKind::Xts,
                    "xts+secded" => SubstrateKind::XtsSecded,
                    other => return Err(format!("unknown substrate {other}")),
                }
            }
            "--trace-out" => trace_out = Some(value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(value("--metrics-out")?),
            "--spans-out" => spans_out = Some(value("--spans-out")?),
            "--slo-out" => slo_out = Some(value("--slo-out")?),
            "--slo-gate" => slo_gate = true,
            "--json" => json = Some(value("--json")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        fleet,
        json,
        model_seed,
        trace_out,
        metrics_out,
        spans_out,
        slo_out,
        slo_gate,
    })
}

fn main() {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage: [--replicas N] [--requests N] [--seed N] [--model-seed N] [--workers N] \
                 [--faults N] [--heavy-faults N] [--substrate plain|secded|xts|xts+secded] \
                 [--trace-out FILE] [--metrics-out FILE] \
                 [--spans-out FILE] [--slo-out FILE] [--slo-gate] [--json FILE]"
            );
            std::process::exit(2);
        }
    };
    let net = milr_models::reduced_mnist(cli.model_seed);
    let obs_out = ObsOutputs::from_flags(cli.trace_out.clone(), cli.metrics_out.clone())
        .with_spans(cli.spans_out.clone())
        .with_slo(cli.slo_out.clone());
    let (result, cmp, storage) = run_fleet_measured_observed(
        &net.model,
        MilrConfig::default(),
        &cli.fleet,
        &obs_out.observer(),
    )
    .expect("fleet simulation cannot fail structurally");
    let r = &result.report;

    println!("# fleet_load — replicated serving with peer repair [reduced MNIST twin]");
    println!(
        "fleet:    {} replicas × {} workers, {} substrate, seed {:#x}",
        r.replicas,
        cli.fleet.workers_per_replica,
        cli.fleet.kind.name(),
        r.fleet.seed
    );
    println!(
        "workload: {} requests -> {} completed, {} rejected, {} re-executed on failover",
        r.fleet.submitted, r.fleet.completed, r.fleet.rejected, r.fleet.reexecuted
    );
    println!(
        "faults:   {} injected ({} heavy) -> {} quarantines, {} MILR layer heals, {} peer repairs ({} pages, {} bytes)",
        r.fleet.faults_injected,
        cli.fleet.heavy_faults,
        r.fleet.quarantines,
        r.fleet.layers_recovered,
        r.peer_repairs(),
        r.repair_pages(),
        r.repair_bytes()
    );
    println!(
        "latency:  mean {:.1} us, p50 {:.1} us, p95 {:.1} us, max {:.1} us",
        r.fleet.latency.mean_us,
        r.fleet.latency.p50_us,
        r.fleet.latency.p95_us,
        r.fleet.latency.max_us
    );
    for rep in &r.per_replica {
        println!(
            "replica {}: {} dispatched, {} completed, {} quarantines, availability {:.9}{}",
            rep.replica,
            rep.report.submitted,
            rep.report.completed,
            rep.report.quarantines,
            rep.report.availability,
            if rep.peer_repairs > 0 {
                format!(", {} peer repair(s)", rep.peer_repairs)
            } else if rep.repairs_donated > 0 {
                format!(", donated {} repair(s)", rep.repairs_donated)
            } else {
                String::new()
            }
        );
    }
    println!(
        "availability (fleet, measured):    {:.9}   <- down only when all replicas are",
        cmp.measured_fleet
    );
    println!(
        "availability (capacity, measured): {:.9}   <- mean replica uptime",
        cmp.measured_capacity
    );
    println!(
        "availability (Eq.6, 1 replica):    {:.9}",
        cmp.single_modeled_eq6
    );
    println!(
        "availability (Eq.6, fleet):        {:.9}   <- 1 - (1 - A1)^{}",
        cmp.fleet_modeled_eq6, r.replicas
    );
    println!("digest:   {:#x} (seed-reproducible)", r.fleet.digest);
    if let Some(slo) = &r.fleet.slo {
        println!(
            "slo:      {} ({} alert(s) fired)",
            if slo.pass { "PASS" } else { "FAIL" },
            slo.alerts
        );
    }

    obs_out.flush();
    obs_out.write_slo(r.fleet.slo.as_ref());
    let json = JsonObject::new()
        .raw("fleet", r.to_json())
        .raw("comparison", cmp.to_json())
        .raw("storage", storage.to_json())
        .finish();
    write_summary(&json, cli.json.as_deref());

    if cli.slo_gate {
        // CI gate: the campaign must leave the fleet-level availability
        // error budget intact. Latency/heal budgets can legitimately be
        // spent by a heavy-fault campaign, so only availability gates.
        let avail_ok = r
            .fleet
            .slo
            .as_ref()
            .and_then(|slo| slo.budget("availability"))
            .map(|b| b.pass);
        match avail_ok {
            Some(true) => println!("slo-gate: PASS (fleet availability budget intact)"),
            Some(false) => {
                eprintln!("slo-gate: FAIL (fleet availability error budget blown)");
                std::process::exit(1);
            }
            None => {
                eprintln!("slo-gate: FAIL (run carried no fleet availability SLO)");
                std::process::exit(1);
            }
        }
    }
}

//! The CI report gate under `cargo test`: the deterministic serve sim
//! at CI's settings (`serve_load --requests 120 --faults 2`, model
//! seed 42) must reproduce the recorded baseline's `report` byte for
//! byte — legacy prefix, `pipeline`, `stage_ns` and `slo` blocks alike.

use milr_bench::json::report_json;
use milr_bench::serve::run_measured;
use milr_core::MilrConfig;
use milr_serve::sim::SimConfig;

#[test]
fn serve_report_matches_the_ci_baseline() {
    let baseline = include_str!("../../../ci/BENCH_serve_baseline.json");
    let want = report_json(baseline).expect("baseline carries a report object");
    let net = milr_models::reduced_mnist(42);
    let sim = SimConfig {
        requests: 120,
        faults: 2,
        ..SimConfig::default()
    };
    let (result, _, _) = run_measured(&net.model, MilrConfig::default(), &sim).unwrap();
    assert_eq!(result.report.to_json(), want);
}

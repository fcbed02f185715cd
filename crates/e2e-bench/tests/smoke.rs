//! Smoke runs of every workload (a tenth of the rate for one second,
//! outputs checked) and a drift guard: the binary must emit exactly the
//! workloads and metrics the repository's `BENCHMARK.json` declares.

use milr_e2e_bench::Json;
use std::path::PathBuf;
use std::process::Command;

/// Debug builds run the model ~20× slower; keep them well below
/// saturation so the smoke checks correctness, not capacity.
const RATE_SCALE: &str = if cfg!(debug_assertions) {
    "0.01"
} else {
    "0.1"
};

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
fn declared(doc: &Json, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .expect("metric list present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs of a result line's metrics.
fn emitted(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .expect("metrics object")
        .fields()
        .iter()
        .map(|(name, m)| {
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .expect("unit")
                .to_string();
            let value = m.get("value").and_then(Json::as_f64);
            assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
            (name.clone(), unit)
        })
        .collect()
}

/// Runs the binary for one workload; returns the parsed result line.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_e2e_bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--rate-scale", RATE_SCALE])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("running e2e_bench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last).expect("the result line is JSON");
    let keys: Vec<&str> = result.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {stdout}"
    );
    assert!(
        result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            >= 1.0
    );
    result
}

#[test]
fn every_workload_runs_clean_and_emits_the_declared_end_to_end_metrics() {
    let doc = benchmark_json();
    let end_to_end = declared(&doc, "end_to_end");
    let declared_workloads: Vec<(String, String)> = doc
        .get("workloads")
        .expect("workloads")
        .as_arr()
        .iter()
        .map(|w| {
            let field = |k| {
                w.get(k)
                    .and_then(Json::as_str)
                    .expect("name and why")
                    .to_string()
            };
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = milr_e2e_bench::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(declared_workloads, ours, "BENCHMARK.json workloads drifted");
    for w in &milr_e2e_bench::WORKLOADS {
        let result = smoke(w.name, false);
        assert_eq!(
            emitted(&result),
            end_to_end,
            "{}: end-to-end metrics drifted",
            w.name
        );
        if w.is_clean() {
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{}", w.name);
        }
    }
}

#[test]
fn traced_run_emits_every_declared_per_layer_metric() {
    let per_layer = declared(&benchmark_json(), "per_layer");
    let result = smoke("mnist-plain-clean", true);
    assert_eq!(emitted(&result), per_layer, "per-layer metrics drifted");
}

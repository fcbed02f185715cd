//! `store_cold_start`: persistence benchmarks for the `.milr` weight
//! store — per-substrate cold-start latency and scrub-on-load
//! throughput, with and without disk faults, as a JSON summary
//! (`BENCH_store.json` in CI).
//!
//! ```text
//! cargo run --release -p milr-bench --bin store_cold_start
//! cargo run --release -p milr-bench --bin store_cold_start -- \
//!     --net mnist --seed 42 --json BENCH_store.json
//! ```
//!
//! Per substrate kind the run measures:
//!
//! * `save_ms` — protect + container write (shadow + rename);
//! * `open_ms` — crash recovery + checksummed section parse;
//! * `cold_clean_ms` — scrub-on-load over a clean container
//!   (substrate scrub + full MILR detection);
//! * `cold_faulty_ms` — the same with a whole-weight disk fault to
//!   scrub, heal, and durably re-anchor;
//! * `scrub_mw_s` — clean scrub-on-load throughput in million
//!   weights/second.

use milr_bench::json::write_summary;
use milr_bench::obs::ObsOutputs;
use milr_bench::{prepare, Args};
use milr_obs::json::{array, JsonObject};
use milr_serve::cold_start_observed;
use milr_store::{ContainerFootprint, Store, StoreOptions};
use milr_substrate::SubstrateKind;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let obs_out = ObsOutputs::from_flags(args.trace_out.clone(), args.metrics_out.clone());
    let obs = obs_out.observer();
    let prep = prepare(args.net, args.scale, args.seed);
    let params = prep.model.param_count();
    println!(
        "# store_cold_start — persistent weight store [{}]",
        prep.label
    );
    println!("params: {params}");
    println!(
        "{:>12} {:>12} {:>9} {:>9} {:>15} {:>15} {:>10}",
        "substrate",
        "container_kb",
        "save_ms",
        "open_ms",
        "cold_clean_ms",
        "cold_faulty_ms",
        "scrub_mw/s"
    );

    let mut arms = Vec::new();
    for kind in SubstrateKind::ALL {
        let path = std::env::temp_dir().join(format!(
            "milr-bench-store-{}-{kind:?}.milr",
            std::process::id()
        ));
        let opts = StoreOptions {
            kind,
            page_weights: 1024,
        };
        let t = Instant::now();
        let store =
            Store::create_protected(&path, &prep.model, &prep.milr, opts).expect("create store");
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let footprint = ContainerFootprint::measure(&store).expect("measure");
        drop(store);

        let t = Instant::now();
        let store = Store::open(&path).expect("open store");
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(store);

        // Clean cold start: scrub + full detection, no healing.
        let mut store = Store::open(&path).expect("open store");
        let t = Instant::now();
        let (_, _, report) = cold_start_observed(&mut store, 64, &obs).expect("clean cold start");
        let cold_clean_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(report.was_clean(), "{kind}: fresh store must be clean");
        drop(store);

        // Faulty cold start: a whole stored weight corrupted on disk.
        {
            let store = Store::open(&path).expect("open store");
            let stride = store.layer_raw_bits(0)
                / prep.model.layers()[store.layers()[0].layer]
                    .params()
                    .expect("first table entry is a param layer")
                    .numel();
            for bit in 5 * stride..6 * stride {
                store.flip_raw_bit(0, bit).expect("inject disk fault");
            }
        }
        let mut store = Store::open(&path).expect("open store");
        let t = Instant::now();
        let (_, _, report) = cold_start_observed(&mut store, 64, &obs).expect("faulty cold start");
        let cold_faulty_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            !report.was_clean(),
            "{kind}: the injected disk fault must be visible"
        );
        let faulty_pipeline = report.pipeline.to_json();
        drop(store);
        let _ = std::fs::remove_file(&path);

        if let Some(m) = obs_out.metrics() {
            m.histogram("store_cold_clean_ns")
                .record((cold_clean_ms * 1e6) as u64);
            m.histogram("store_cold_faulty_ns")
                .record((cold_faulty_ms * 1e6) as u64);
            m.counter("store_cold_starts_total").add(2);
        }
        let scrub_mw_s = params as f64 / (cold_clean_ms / 1e3) / 1e6;
        println!(
            "{:>12} {:>12.1} {:>9.2} {:>9.2} {:>15.2} {:>15.2} {:>10.2}",
            kind.name(),
            (footprint.weight_bytes + footprint.resistant_bytes) as f64 / 1e3,
            save_ms,
            open_ms,
            cold_clean_ms,
            cold_faulty_ms,
            scrub_mw_s
        );
        arms.push(
            JsonObject::new()
                .string("substrate", kind.name())
                .raw("weight_bytes", footprint.weight_bytes)
                .raw("resistant_bytes", footprint.resistant_bytes)
                .float("save_ms", save_ms, 3)
                .float("open_ms", open_ms, 3)
                .float("cold_clean_ms", cold_clean_ms, 3)
                .float("cold_faulty_ms", cold_faulty_ms, 3)
                .float("scrub_mw_s", scrub_mw_s, 3)
                .raw("faulty_pipeline", faulty_pipeline)
                .finish(),
        );
    }

    obs_out.flush();
    let storage = prep.milr.storage_report(&prep.model);
    let json = JsonObject::new()
        .string("net", &prep.label)
        .raw("params", params)
        .raw("storage", storage.to_json())
        .raw("arms", array(arms))
        .finish();
    write_summary(&json, args.json.as_deref());
}

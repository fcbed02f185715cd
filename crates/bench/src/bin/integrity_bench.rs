//! `integrity_bench`: measures the unified integrity engine's hot
//! recovery path per substrate kind — full pipeline heal latency
//! (detect → heal → fast-path verify → re-protect) and the verification
//! fast path's win: re-checking only the flagged layers via
//! `Milr::detect_layers` versus the full re-detect the old loops ran.
//! A second table times every substrate kind's encode, decode and
//! inject+scrub over a 4096-weight buffer (the `substrates` array).
//!
//! ```text
//! cargo run --release -p milr-bench --bin integrity_bench
//! cargo run --release -p milr-bench --bin integrity_bench -- \
//!     --net mnist --trials 5 --json BENCH_integrity.json
//! ```

use milr_bench::json::{array, write_summary, JsonObject};
use milr_bench::{best_ns, prepare, Args};
use milr_fault::{inject_rber, FaultRng};
use milr_integrity::{
    Budget, EscalationPolicy, IntegrityPipeline, ModelHost, RoundOutcome, Volatile,
};
use milr_substrate::SubstrateKind;
use std::hint::black_box;
use std::time::Instant;

/// Weights per substrate encode / decode / inject+scrub measurement.
const SUBSTRATE_WEIGHTS: usize = 4096;
/// Best-of samples per substrate row: the rows take microseconds, so
/// they get more samples than the heal trials.
const SUBSTRATE_SAMPLES: usize = 10;

fn main() {
    let args = Args::from_env();
    let prep = prepare(args.net, args.scale, args.seed);
    let trials = args.trials.max(1);
    println!(
        "# integrity_bench — unified integrity engine [{}]",
        prep.label
    );
    println!(
        "params: {}, checkable layers: {}, trials: {trials}",
        prep.model.param_count(),
        prep.milr.checkable_count()
    );
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>12} {:>13} {:>13} {:>9}",
        "substrate",
        "detect_ms",
        "heal_ms",
        "verify_ms",
        "reprotect_ms",
        "full_chk_ms",
        "fast_chk_ms",
        "speedup"
    );

    let mut arms = Vec::new();
    for kind in SubstrateKind::ALL {
        let mut pipe_ns = milr_integrity::StageNanos::default();
        let mut full_check_ns = 0u64;
        let mut fast_check_ns = 0u64;
        for t in 0..trials {
            let host = ModelHost::new(&prep.model, &|c| kind.store(c));
            let mut milr = prep.milr.clone();
            let victim = host.param_layers()[0];
            host.corrupt_weight(victim, 13 + t % 3);

            // Full pipeline episode, wall-timed per stage.
            let mut pipeline =
                IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
                    .with_wall_timing();
            let outcome = pipeline
                .run(&host, &mut milr, &mut Volatile)
                .expect("single whole-weight fault heals");
            assert!(matches!(outcome, RoundOutcome::Clean { .. }));
            pipe_ns.merge(&pipeline.report().stage_ns);

            // The fast path's win in isolation: post-heal verification
            // as a full re-detect (the old loops) vs the flagged-only
            // subset check (the engine).
            let live = host.materialize();
            let start = Instant::now();
            assert!(milr.detect(&live).expect("detect").is_clean());
            full_check_ns += start.elapsed().as_nanos() as u64;
            let subset = host.materialize_layers(&[victim]);
            let start = Instant::now();
            assert!(milr
                .detect_layers(&subset, &[victim])
                .expect("detect subset")
                .is_clean());
            fast_check_ns += start.elapsed().as_nanos() as u64;
        }
        let ms = |ns: u64| ns as f64 / trials as f64 / 1e6;
        let speedup = full_check_ns as f64 / fast_check_ns.max(1) as f64;
        println!(
            "{:>12} {:>10.3} {:>10.3} {:>10.3} {:>12.3} {:>13.3} {:>13.3} {:>8.1}x",
            kind.name(),
            ms(pipe_ns.detect),
            ms(pipe_ns.heal),
            ms(pipe_ns.verify),
            ms(pipe_ns.reprotect),
            ms(full_check_ns),
            ms(fast_check_ns),
            speedup
        );
        arms.push(
            JsonObject::new()
                .string("substrate", kind.name())
                .float("detect_ms", ms(pipe_ns.detect), 4)
                .float("heal_ms", ms(pipe_ns.heal), 4)
                .float("verify_ms", ms(pipe_ns.verify), 4)
                .float("reprotect_ms", ms(pipe_ns.reprotect), 4)
                .float("full_check_ms", ms(full_check_ns), 4)
                .float("fast_check_ms", ms(fast_check_ns), 4)
                .float("verify_speedup", speedup, 2)
                .finish(),
        );
    }

    // Substrate matrix: raw encode / decode / scrub cost per kind. The
    // quantized kinds ride along; their pages are 2–4× smaller, so they
    // should track well under the f32 kinds.
    println!();
    println!(
        "{:>12} {:>10} {:>10} {:>16}",
        "substrate", "encode_us", "decode_us", "inject_scrub_us"
    );
    let weights: Vec<f32> = (0..SUBSTRATE_WEIGHTS).map(|i| i as f32 * 0.01).collect();
    let mut substrates = Vec::new();
    for kind in SubstrateKind::ALL
        .into_iter()
        .chain(SubstrateKind::QUANTIZED)
    {
        let encode_ns = best_ns(SUBSTRATE_SAMPLES, || {
            black_box(kind.store(black_box(&weights)));
        });
        let mem = kind.store(&weights);
        let decode_ns = best_ns(SUBSTRATE_SAMPLES, || {
            black_box(mem.read_weights());
        });
        let scrub_ns = best_ns(SUBSTRATE_SAMPLES, || {
            let mut mem = kind.store(&weights);
            inject_rber(&mut *mem, 1e-4, &mut FaultRng::seed(7));
            black_box(mem.scrub());
        });
        let us = |ns: u64| ns as f64 / 1e3;
        println!(
            "{:>12} {:>10.1} {:>10.1} {:>16.1}",
            kind.name(),
            us(encode_ns),
            us(decode_ns),
            us(scrub_ns)
        );
        substrates.push(
            JsonObject::new()
                .string("substrate", kind.name())
                .float("encode_us", us(encode_ns), 2)
                .float("decode_us", us(decode_ns), 2)
                .float("inject_scrub_us", us(scrub_ns), 2)
                .finish(),
        );
    }

    let json = JsonObject::new()
        .string("net", &prep.label)
        .uint("params", prep.model.param_count() as u64)
        .uint("checkable_layers", prep.milr.checkable_count() as u64)
        .uint("trials", trials as u64)
        .raw("arms", &array(arms))
        .uint("substrate_weights", SUBSTRATE_WEIGHTS as u64)
        .raw("substrates", &array(substrates))
        .finish();
    write_summary(&json, args.json.as_deref());
}

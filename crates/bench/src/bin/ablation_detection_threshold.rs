//! Ablation: detection-tolerance sensitivity. The paper's lightweight
//! detection misses errors whose impact on the probe output is below
//! the comparison tolerance (§V-B reports 78.6% of MNIST trials
//! detecting all erroneous layers). This sweep measures detection rate
//! vs `rtol` under single-bit corruption of random weights. `--json
//! FILE` writes the rows as a machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin ablation_detection_threshold
//! ```

use milr_bench::json::write_summary;
use milr_bench::{Args, NetChoice, Scale};
use milr_core::{Milr, MilrConfig};
use milr_fault::FaultRng;
use milr_obs::json::{array, JsonObject};

fn main() {
    let args = Args::from_env();
    let prep = milr_bench::prepare(args.net, Scale::Reduced, args.seed);
    let _ = NetChoice::Mnist;
    println!("# Ablation — detection rate vs tolerance ({})", prep.label);
    println!(
        "{:>10} {:>10} {:>12} {:>14}",
        "rtol", "trials", "detected", "detect-rate"
    );
    let mut rows = Vec::new();
    for rtol in [1e-1f32, 1e-2, 1e-3, 1e-4, 1e-6] {
        let milr = Milr::protect(
            &prep.model,
            MilrConfig {
                rtol,
                atol: rtol * 0.1,
                ..MilrConfig::default()
            },
        )
        .expect("protect");
        let mut rng = FaultRng::seed(args.seed);
        let mut detected = 0usize;
        let trials = args.trials.max(20);
        for _ in 0..trials {
            let mut model = prep.model.clone();
            // Flip one random mid-significance mantissa/exponent bit of
            // one random weight in one random parameterized layer.
            let param_layers: Vec<usize> = model
                .layers()
                .iter()
                .enumerate()
                .filter(|(_, l)| l.param_count() > 0)
                .map(|(i, _)| i)
                .collect();
            let li = param_layers[rng.below(param_layers.len())];
            let params = model.layers_mut()[li].params_mut().expect("params");
            let wi = rng.below(params.numel());
            let bit = 16 + rng.below(12) as u32; // upper mantissa / exponent
            let d = params.data_mut();
            d[wi] = f32::from_bits(d[wi].to_bits() ^ (1 << bit));
            let report = milr.detect(&model).expect("detect");
            if report.flagged.contains(&li) {
                detected += 1;
            }
        }
        let rate = detected as f64 / trials as f64;
        println!(
            "{:>10.0e} {:>10} {:>12} {:>13.1}%",
            rtol,
            trials,
            detected,
            100.0 * rate
        );
        rows.push(
            JsonObject::new()
                .raw("rtol", rtol)
                .raw("trials", trials)
                .raw("detected", detected)
                .float("detect_rate", rate, 6)
                .finish(),
        );
    }
    let json = JsonObject::new()
        .string("table", "ablation_detection_threshold")
        .string("net", &prep.label)
        .raw("seed", args.seed)
        .raw("rows", array(rows))
        .finish();
    write_summary(&json, args.json.as_deref());
}

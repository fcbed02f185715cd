//! Table X: MILR prediction and identification time in seconds —
//! single prediction, per-image batch prediction, and error
//! identification (detection pass). `--json FILE` writes the rows as a
//! machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin table10_timing [-- --paper-scale]
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, Args, NetChoice};
use milr_obs::json::{array, JsonObject};
use milr_tensor::TensorRng;
use std::time::Instant;

fn time_runs(mut f: impl FnMut(), runs: usize) -> f64 {
    // One warm-up, then the mean of `runs` measurements.
    f();
    let start = Instant::now();
    for _ in 0..runs {
        f();
    }
    start.elapsed().as_secs_f64() / runs as f64
}

fn main() {
    let args = Args::from_env();
    println!("# Table X — prediction and identification time (seconds)");
    println!(
        "{:<22} {:>12} {:>14} {:>14}",
        "Network", "Single", "Batch(/img)", "Identification"
    );
    let mut rows = Vec::new();
    for net in [
        NetChoice::Mnist,
        NetChoice::CifarSmall,
        NetChoice::CifarLarge,
    ] {
        let prep = prepare(net, args.scale, args.seed);
        let mut single_dims = vec![1usize];
        single_dims.extend_from_slice(prep.model.input_shape());
        let single_img = TensorRng::new(1).uniform_tensor(&single_dims);
        let batch_n = 64usize;
        let mut batch_dims = vec![batch_n];
        batch_dims.extend_from_slice(prep.model.input_shape());
        let batch_img = TensorRng::new(2).uniform_tensor(&batch_dims);

        let single = time_runs(
            || {
                prep.model.forward(&single_img).expect("forward");
            },
            10,
        );
        let batch = time_runs(
            || {
                prep.model.forward(&batch_img).expect("forward");
            },
            5,
        ) / batch_n as f64;
        let ident = time_runs(
            || {
                prep.milr.detect(&prep.model).expect("detect");
            },
            10,
        );
        println!(
            "{:<22} {:>12.6} {:>14.3e} {:>14.6}",
            prep.label, single, batch, ident
        );
        rows.push(
            JsonObject::new()
                .string("net", &prep.label)
                .float("single_s", single, 9)
                .float("batch_per_image_s", batch, 9)
                .float("identification_s", ident, 9)
                .finish(),
        );
    }
    let json = JsonObject::new()
        .string("table", "table10_timing")
        .raw("seed", args.seed)
        .raw("rows", array(rows))
        .finish();
    write_summary(&json, args.json.as_deref());
}

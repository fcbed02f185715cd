//! Figure 11: recovery time as a function of the number of injected
//! (whole-weight) errors — grows superlinearly as more layers need
//! solving and partial-recovery systems grow. `--json FILE` writes the
//! per-network rows as a machine-readable summary.
//!
//! `recovery_s` is the paper's cold recovery time: each row heals on a
//! freshly protected instance (protected outside the timer), so no
//! backward-pass factor carries over from an earlier row.
//! `recovery_warm_s` heals the same fault again on that instance, now
//! holding the factors of every layer the first heal inverted.
//!
//! ```text
//! cargo run --release -p milr-bench --bin fig11_recovery_time [-- --net mnist]
//! ```

use milr_bench::json::write_summary;
use milr_bench::{prepare, Args, NetChoice};
use milr_core::Milr;
use milr_fault::{inject_whole_weight, FaultRng};
use milr_obs::json::{array, JsonObject};
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    println!("# Figure 11 — recovery time vs error count");
    println!(
        "{:<22} {:>8} {:>10} {:>12} {:>12}",
        "Network", "Errors", "Flagged", "Recovery(s)", "Warm(s)"
    );
    let mut nets = Vec::new();
    for net in [
        NetChoice::Mnist,
        NetChoice::CifarSmall,
        NetChoice::CifarLarge,
    ] {
        let prep = prepare(net, args.scale, args.seed);
        let total_params: usize = prep.model.param_count();
        let mut rows = Vec::new();
        for &target_errors in &[1usize, 10, 50, 100, 500, 1000] {
            let q = (target_errors as f64 / total_params as f64).min(1.0);
            let mut model = prep.model.clone();
            let mut rng = FaultRng::seed(args.seed ^ target_errors as u64);
            let mut injected = 0usize;
            for layer in model.layers_mut() {
                if let Some(p) = layer.params_mut() {
                    injected += inject_whole_weight(p.data_mut(), q, &mut rng).affected_words;
                }
            }
            let report = prep.milr.detect(&model).expect("detect");
            let milr = Milr::protect(&prep.model, *prep.milr.config()).expect("golden protects");
            let timed_heal = |mut faulty| {
                let start = Instant::now();
                let _ = milr.recover(&mut faulty, &report);
                start.elapsed().as_secs_f64()
            };
            let secs = timed_heal(model.clone());
            let warm_secs = timed_heal(model);
            println!(
                "{:<22} {:>8} {:>10} {:>12.4} {:>12.4}",
                prep.label,
                injected,
                report.flagged.len(),
                secs,
                warm_secs
            );
            rows.push(
                JsonObject::new()
                    .raw("errors", injected)
                    .raw("flagged_layers", report.flagged.len())
                    .float("recovery_s", secs, 6)
                    .float("recovery_warm_s", warm_secs, 6)
                    .finish(),
            );
        }
        nets.push(
            JsonObject::new()
                .string("net", &prep.label)
                .raw("params", total_params)
                .raw("rows", array(rows))
                .finish(),
        );
    }
    let json = JsonObject::new()
        .string("figure", "fig11_recovery_time")
        .raw("nets", array(nets))
        .finish();
    write_summary(&json, args.json.as_deref());
}

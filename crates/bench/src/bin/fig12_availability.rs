//! Figure 12: the availability vs minimum-accuracy trade-off (Equation
//! 6) for the three networks, with the paper's two example users:
//! (A) minimum accuracy 99.999%, (B) availability 99.9%.
//!
//! Timings (`T_d`, `T_r`) are measured live on the prepared networks;
//! the error-rate assumption is the paper's 75,000 errors per 10⁹
//! device-hours per Mbit.
//!
//! With `--measured`, each network additionally drives the
//! `milr-serve` virtual-clock simulation — live serving under seeded
//! fault injection — and reports the *empirical* availability next to
//! the Eq. 6 prediction for the same `T_d`/`T_r`/`T_be` constants.
//!
//! `--json FILE` writes the modeled curves (and, with `--measured`,
//! the measured comparison) as a machine-readable summary.
//!
//! ```text
//! cargo run --release -p milr-bench --bin fig12_availability
//! cargo run --release -p milr-bench --bin fig12_availability -- --measured
//! ```

use milr_bench::json::write_summary;
use milr_bench::serve::run_measured;
use milr_bench::{prepare, Args, NetChoice};
use milr_core::availability::AvailabilityModel;
use milr_core::MilrConfig;
use milr_obs::json::{array, JsonObject};
use milr_serve::sim::SimConfig;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    println!("# Figure 12 — availability vs minimum accuracy (Eq. 6)");
    let mut nets = Vec::new();
    for net in [
        NetChoice::Mnist,
        NetChoice::CifarSmall,
        NetChoice::CifarLarge,
    ] {
        let prep = prepare(net, args.scale, args.seed);
        // Measure detection time live.
        let start = Instant::now();
        for _ in 0..5 {
            prep.milr.detect(&prep.model).expect("detect");
        }
        let td = start.elapsed().as_secs_f64() / 5.0;
        // Recovery time for a representative single-layer heal.
        let mut model = prep.model.clone();
        let target = prep
            .model
            .layers()
            .iter()
            .position(|l| l.param_count() > 0)
            .expect("has params");
        let start = Instant::now();
        let _ = prep.milr.recover_layers(&mut model, &[target]);
        let tr = start.elapsed().as_secs_f64();
        // The error-arrival rate uses the *paper architecture's* memory
        // footprint (Tables I–III); a reduced twin's few hundred
        // kilobits would see one error per ~50 years and the curve
        // would sit entirely in its flat region.
        let paper_params = match net {
            NetChoice::Mnist => milr_models::mnist(0).model.param_count(),
            NetChoice::CifarSmall => milr_models::cifar_small(0).model.param_count(),
            NetChoice::CifarLarge => milr_models::cifar_large(0).model.param_count(),
        };
        let mbits = paper_params as f64 * 32.0 / 1e6;
        let model = AvailabilityModel::from_network(mbits, td, tr, prep.clean_accuracy, 1e-4);
        println!(
            "\n## {} (Td {:.4}s, Tr {:.4}s, {:.1} Mbit, Tbe {:.0}s)",
            prep.label, td, tr, mbits, model.time_between_errors
        );
        println!(
            "{:>16} {:>16} {:>14}",
            "Availability", "Downtime", "MinAccuracy"
        );
        let mut curve = Vec::new();
        for (a, acc) in model.curve(12) {
            println!("{a:>16.12} {:>16.3e} {acc:>14.6}", 1.0 - a);
            curve.push(
                JsonObject::new()
                    .float("availability", a, 12)
                    .float("min_accuracy", acc, 6)
                    .finish(),
            );
        }
        // The paper's example users.
        let user_a = model.availability_for_accuracy(0.99999 * prep.clean_accuracy);
        println!(
            "user A (min accuracy 99.999% of clean): availability {user_a:.12} (downtime {:.3e})",
            1.0 - user_a
        );
        let user_b = model.min_accuracy(0.999);
        println!("user B (availability 99.9%): min accuracy {user_b:.6}");

        let mut net_json = JsonObject::new()
            .string("net", &prep.label)
            .float("td_s", td, 6)
            .float("tr_s", tr, 6)
            .float("mbits", mbits, 3)
            .float("tbe_s", model.time_between_errors, 3)
            .float("user_a_availability", user_a, 12)
            .float("user_b_min_accuracy", user_b, 6)
            .raw("curve", array(curve));

        if args.measured {
            // Measured counterpart: serve the reduced twin live under
            // seeded fault injection and compare the empirical
            // availability against Eq. 6 built from the same virtual
            // constants.
            let sim = SimConfig {
                seed: args.seed,
                requests: 200,
                faults: 2,
                ..SimConfig::default()
            };
            let (result, cmp, _storage) = run_measured(&prep.model, MilrConfig::default(), &sim)
                .expect("serving simulation cannot fail structurally");
            println!("modeled vs measured (serving simulation, reduced twin):");
            println!(
                "  {:<28} {:>14}",
                "Eq.6 @ scrub cadence",
                format!("{:.9}", cmp.modeled_eq6_availability)
            );
            println!(
                "  {:<28} {:>14}",
                "modeled per fault",
                format!("{:.9}", cmp.modeled_per_fault_availability)
            );
            println!(
                "  {:<28} {:>14}",
                "measured (empirical)",
                format!("{:.9}", cmp.measured_availability)
            );
            println!(
                "  ({} requests, {} faults, {} quarantines, {} re-executions, digest {:#x})",
                result.report.submitted,
                result.report.faults_injected,
                result.report.quarantines,
                result.report.reexecuted,
                result.report.digest
            );
            net_json = net_json
                .raw("measured", cmp.to_json())
                .raw("measured_report", result.report.to_json());
        }
        nets.push(net_json.finish());
    }
    let json = JsonObject::new()
        .string("figure", "fig12_availability")
        .raw("nets", array(nets))
        .finish();
    write_summary(&json, args.json.as_deref());
}

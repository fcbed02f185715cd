//! Measured availability: driving the `milr-serve` simulation and
//! comparing its empirical availability against the closed-form
//! Equation 6 model (`milr_core::availability`).
//!
//! Two modeled numbers bracket the measurement:
//!
//! * **Eq. 6 at the scrub cadence** — the paper's pessimistic model,
//!   where every detect+recover cycle is downtime: `A = 1 − (T_d +
//!   T_r) / P` with `P` the full-sweep period. The serving architecture
//!   beats this because detection runs *concurrently* with serving.
//! * **Per-fault recovery** — only quarantines cost downtime: `A = 1 −
//!   (T_d + T_r) / T_be`. The measured figure lands near this bound;
//!   the gap to Eq. 6 is the overlap dividend of the scrubber-daemon
//!   design.

use milr_core::{Milr, MilrConfig, StorageReport};
use milr_nn::Sequential;
use milr_obs::json::JsonObject;
use milr_obs::Observer;
use milr_serve::sim::{simulate_observed, SimConfig, SimResult};

/// Modeled-vs-measured availability for one simulated serving run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeComparison {
    /// Detection time of one full sweep, seconds (virtual).
    pub td_s: f64,
    /// Recovery time of one quarantine, seconds (virtual).
    pub tr_s: f64,
    /// Mean time between injected faults, seconds (infinite when no
    /// faults are configured).
    pub tbe_s: f64,
    /// Full scrub-sweep period, seconds.
    pub cycle_period_s: f64,
    /// Equation 6 at the scrub cadence (every cycle pays `T_d + T_r`).
    pub modeled_eq6_availability: f64,
    /// Downtime only per fault interval (`1 − (T_d + T_r)/T_be`).
    pub modeled_per_fault_availability: f64,
    /// The simulation's empirical availability.
    pub measured_availability: f64,
}

impl ServeComparison {
    /// Renders the comparison as a flat JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .float("td_s", self.td_s, 6)
            .float("tr_s", self.tr_s, 6)
            .float("tbe_s", finite_or_minus_one(self.tbe_s), 6)
            .float("cycle_period_s", self.cycle_period_s, 6)
            .float("modeled_eq6_availability", self.modeled_eq6_availability, 9)
            .float(
                "modeled_per_fault_availability",
                self.modeled_per_fault_availability,
                9,
            )
            .float("measured_availability", self.measured_availability, 9)
            .finish()
    }
}

/// JSON has no infinity: a fault-free run's infinite `T_be` renders
/// as `-1`.
pub(crate) fn finite_or_minus_one(seconds: f64) -> f64 {
    if seconds.is_finite() {
        seconds
    } else {
        -1.0
    }
}

/// Runs the deterministic serving simulation and derives the
/// modeled-vs-measured availability comparison from the same virtual
/// constants the run used, plus the storage-overhead report of the
/// protection instance the comparison was sized from (so callers
/// don't re-protect the model just for Table-style numbers).
///
/// # Errors
///
/// Propagates MILR protection/detection/recovery failures.
pub fn run_measured(
    model: &Sequential,
    milr_config: MilrConfig,
    sim_config: &SimConfig,
) -> milr_core::Result<(SimResult, ServeComparison, StorageReport)> {
    run_measured_observed(model, milr_config, sim_config, &Observer::default())
}

/// [`run_measured`] with an [`Observer`] threaded through the
/// simulation: trace events stamp the virtual clock and metrics land
/// in the observer's registry. The observer never changes the run.
///
/// # Errors
///
/// As [`run_measured`].
pub fn run_measured_observed(
    model: &Sequential,
    milr_config: MilrConfig,
    sim_config: &SimConfig,
    obs: &Observer,
) -> milr_core::Result<(SimResult, ServeComparison, StorageReport)> {
    let milr = Milr::protect(model, milr_config)?;
    let storage = milr.storage_report(model);
    let checkable = milr.checkable_layers().len();
    let result = simulate_observed(model, milr_config, sim_config, obs)?;
    let td_s = sim_config.costs.full_detect_ns(checkable) as f64 / 1e9;
    let tr_s = sim_config.costs.recover_ns as f64 / 1e9;
    let ticks_per_cycle = checkable.div_ceil(sim_config.layers_per_tick);
    let cycle_period_s = ticks_per_cycle as f64 * sim_config.scrub_interval_ns as f64 / 1e9;
    let tbe_s = if sim_config.faults == 0 {
        f64::INFINITY
    } else {
        sim_config.requests as f64 * sim_config.mean_arrival_ns as f64
            / 1e9
            / sim_config.faults as f64
    };
    let overhead = td_s + tr_s;
    let comparison = ServeComparison {
        td_s,
        tr_s,
        tbe_s,
        cycle_period_s,
        modeled_eq6_availability: (1.0 - overhead / cycle_period_s.max(overhead)).max(0.0),
        modeled_per_fault_availability: if tbe_s.is_finite() {
            (1.0 - overhead / tbe_s.max(overhead)).max(0.0)
        } else {
            1.0
        },
        measured_availability: result.report.availability,
    };
    Ok((result, comparison, storage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Layer;
    use milr_tensor::{ConvSpec, Padding, TensorRng};

    fn model() -> Sequential {
        let mut rng = TensorRng::new(9);
        let mut m = Sequential::new(vec![8, 8, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(6 * 6 * 4, 5, &mut rng).unwrap())
            .unwrap();
        m
    }

    #[test]
    fn measured_run_brackets_availability() {
        let m = model();
        let cfg = SimConfig {
            requests: 80,
            faults: 1,
            ..SimConfig::default()
        };
        let (result, cmp, storage) = run_measured(&m, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(result.report.submitted, 80);
        assert!(storage.milr_bytes() > 0);
        assert!(cmp.modeled_eq6_availability <= cmp.modeled_per_fault_availability);
        assert!(cmp.measured_availability > 0.0 && cmp.measured_availability <= 1.0);
        assert_eq!(
            cmp.to_json(),
            "{\"td_s\":0.000900,\"tr_s\":0.010000,\"tbe_s\":0.032000,\
            \"cycle_period_s\":0.008000,\"modeled_eq6_availability\":0.000000000,\
            \"modeled_per_fault_availability\":0.659375000,\
            \"measured_availability\":0.767590618}"
        );
    }

    #[test]
    fn fault_free_comparison_is_unity() {
        let m = model();
        let cfg = SimConfig {
            requests: 40,
            faults: 0,
            ..SimConfig::default()
        };
        let (result, cmp, _) = run_measured(&m, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(cmp.modeled_per_fault_availability, 1.0);
        assert_eq!(result.report.availability, 1.0);
        assert!(cmp.tbe_s.is_infinite());
        assert_eq!(
            cmp.to_json(),
            "{\"td_s\":0.000900,\"tr_s\":0.010000,\"tbe_s\":-1.000000,\
            \"cycle_period_s\":0.008000,\"modeled_eq6_availability\":0.000000000,\
            \"modeled_per_fault_availability\":1.000000000,\
            \"measured_availability\":1.000000000}"
        );
    }
}

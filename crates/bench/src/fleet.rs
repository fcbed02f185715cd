//! Fleet-extended availability: driving the `milr-fleet` simulation
//! and comparing its measured availability against the paper's
//! Equation 6 model extended to N replicas.
//!
//! Equation 6 prices one instance: every detect+recover cycle costs
//! `T_d + T_r` of downtime, so `A₁ = 1 − (T_d + T_r)/P`. A fleet of N
//! independent replicas is (to first order, faults being independent)
//! down only when **all** replicas are down simultaneously:
//!
//! ```text
//! A_fleet = 1 − (1 − A₁)^N
//! ```
//!
//! The simulation measures both sides of that prediction on the same
//! run: the **fleet** availability (zero replicas serving) and the
//! **capacity** availability (mean replica uptime, which tracks the
//! single-instance `A₁`).

use crate::serve::finite_or_minus_one;
use milr_core::{Milr, MilrConfig, StorageReport};
use milr_fleet::sim::{simulate_observed, FleetConfig, FleetSimResult};
use milr_nn::Sequential;
use milr_obs::json::JsonObject;
use milr_obs::Observer;

/// Modeled-vs-measured availability for one simulated fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetComparison {
    /// Replicas in the fleet.
    pub replicas: usize,
    /// Detection time of one full sweep, seconds (virtual).
    pub td_s: f64,
    /// Recovery time of one quarantine, seconds (virtual).
    pub tr_s: f64,
    /// Mean time between injected faults **per replica**, seconds
    /// (infinite when no faults are configured).
    pub tbe_s: f64,
    /// Full scrub-sweep period, seconds.
    pub cycle_period_s: f64,
    /// Equation 6 for one replica at the scrub cadence.
    pub single_modeled_eq6: f64,
    /// The fleet extension `1 − (1 − A₁)^N` of the Eq. 6 figure.
    pub fleet_modeled_eq6: f64,
    /// Measured mean replica availability (the capacity view) — the
    /// empirical counterpart of `A₁`.
    pub measured_capacity: f64,
    /// Measured fleet availability (down only when all replicas are).
    pub measured_fleet: f64,
}

impl FleetComparison {
    /// Renders the comparison as a flat JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("replicas", self.replicas)
            .float("td_s", self.td_s, 6)
            .float("tr_s", self.tr_s, 6)
            .float("tbe_s", finite_or_minus_one(self.tbe_s), 6)
            .float("cycle_period_s", self.cycle_period_s, 6)
            .float("single_modeled_eq6", self.single_modeled_eq6, 9)
            .float("fleet_modeled_eq6", self.fleet_modeled_eq6, 9)
            .float("measured_capacity", self.measured_capacity, 9)
            .float("measured_fleet", self.measured_fleet, 9)
            .finish()
    }
}

/// Runs the deterministic fleet simulation and derives the
/// fleet-extended Eq. 6 comparison from the same virtual constants the
/// run used, plus the storage report of the protection instance.
///
/// # Errors
///
/// Propagates MILR protection and fleet simulation failures.
pub fn run_fleet_measured(
    model: &Sequential,
    milr_config: MilrConfig,
    fleet_config: &FleetConfig,
) -> Result<(FleetSimResult, FleetComparison, StorageReport), milr_fleet::FleetError> {
    run_fleet_measured_observed(model, milr_config, fleet_config, &Observer::default())
}

/// [`run_fleet_measured`] with an [`Observer`] threaded through the
/// fleet simulation: per-replica events carry the replica index as
/// their trace source. The observer never changes the run.
///
/// # Errors
///
/// As [`run_fleet_measured`].
pub fn run_fleet_measured_observed(
    model: &Sequential,
    milr_config: MilrConfig,
    fleet_config: &FleetConfig,
    obs: &Observer,
) -> Result<(FleetSimResult, FleetComparison, StorageReport), milr_fleet::FleetError> {
    let milr = Milr::protect(model, milr_config)?;
    let storage = milr.storage_report(model);
    let checkable = milr.checkable_layers().len();
    let result = simulate_observed(model, milr_config, fleet_config, obs)?;
    let td_s = fleet_config.costs.full_detect_ns(checkable) as f64 / 1e9;
    let tr_s = fleet_config.costs.recover_ns as f64 / 1e9;
    let ticks_per_cycle = checkable.div_ceil(fleet_config.layers_per_tick);
    let cycle_period_s = ticks_per_cycle as f64 * fleet_config.scrub_interval_ns as f64 / 1e9;
    let total_faults = fleet_config.faults + fleet_config.heavy_faults;
    let tbe_s = if total_faults == 0 {
        f64::INFINITY
    } else {
        fleet_config.requests as f64 * fleet_config.mean_arrival_ns as f64 / 1e9
            * fleet_config.replicas as f64
            / total_faults as f64
    };
    let overhead = td_s + tr_s;
    let single = (1.0 - overhead / cycle_period_s.max(overhead)).max(0.0);
    let comparison = FleetComparison {
        replicas: fleet_config.replicas,
        td_s,
        tr_s,
        tbe_s,
        cycle_period_s,
        single_modeled_eq6: single,
        fleet_modeled_eq6: 1.0 - (1.0 - single).powi(fleet_config.replicas as i32),
        measured_capacity: result.report.capacity.availability,
        measured_fleet: result.report.fleet.availability,
    };
    Ok((result, comparison, storage))
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Layer;
    use milr_substrate::SubstrateKind;
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
    fn fleet_run_brackets_availability() {
        let m = model();
        let cfg = FleetConfig {
            requests: 60,
            faults: 1,
            replicas: 2,
            kind: SubstrateKind::Plain,
            ..FleetConfig::default()
        };
        let (result, cmp, storage) = run_fleet_measured(&m, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(result.report.fleet.submitted, 60);
        assert!(storage.milr_bytes() > 0);
        // The fleet model strictly improves on the single-instance one.
        assert!(cmp.fleet_modeled_eq6 >= cmp.single_modeled_eq6);
        // Measured fleet availability dominates the capacity view: the
        // fleet is only down when every replica is.
        assert!(cmp.measured_fleet >= cmp.measured_capacity);
        assert_eq!(
            cmp.to_json(),
            "{\"replicas\":2,\"td_s\":0.000900,\"tr_s\":0.010000,\"tbe_s\":0.048000,\
            \"cycle_period_s\":0.008000,\"single_modeled_eq6\":0.000000000,\
            \"fleet_modeled_eq6\":0.000000000,\"measured_capacity\":0.829687500,\
            \"measured_fleet\":1.000000000}"
        );
    }

    #[test]
    fn fault_free_fleet_is_fully_available() {
        let m = model();
        let cfg = FleetConfig {
            requests: 40,
            faults: 0,
            replicas: 2,
            kind: SubstrateKind::Plain,
            ..FleetConfig::default()
        };
        let (result, cmp, _) = run_fleet_measured(&m, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(result.report.fleet.availability, 1.0);
        assert_eq!(cmp.measured_fleet, 1.0);
        assert!(cmp.tbe_s.is_infinite());
        assert_eq!(
            cmp.to_json(),
            "{\"replicas\":2,\"td_s\":0.000900,\"tr_s\":0.010000,\"tbe_s\":-1.000000,\
            \"cycle_period_s\":0.008000,\"single_modeled_eq6\":0.000000000,\
            \"fleet_modeled_eq6\":0.000000000,\"measured_capacity\":1.000000000,\
            \"measured_fleet\":1.000000000}"
        );
    }
}

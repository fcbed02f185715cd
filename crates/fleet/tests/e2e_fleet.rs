//! End-to-end fleet serving under a seeded fault campaign (the PR's
//! acceptance scenario), on **all four substrate kinds**: three
//! replicas serve a batched workload while the campaign injects both
//! recoverable whole-weight faults and one beyond-MILR-capacity fault
//! (a whole partial-recoverability conv layer corrupted at once) into
//! the fleet. Asserts:
//!
//! 1. the damaged replica is **peer-repaired**: its on-disk weight
//!    pages end the run bit-identical to the healthy peers' certified
//!    stores (raw page equality, layer by layer);
//! 2. every completed request's output is bit-identical to the
//!    fault-free model's forward pass;
//! 3. **no request is lost during failover**: every request completes,
//!    and completed + rejected == submitted always;
//! 4. the run is **deterministic**: the same seed yields a
//!    byte-identical `ServeReport` aggregate (and full `FleetReport`)
//!    twice in a row; a different seed diverges.

use milr_core::MilrConfig;
use milr_fleet::{simulate, FleetConfig};
// Conv 0 is fully recoverable (exact MILR heals); conv 4 has
// partial-recoverability geometry (F²Z = 54 > G² = 4) — whole-layer
// corruption of it is beyond MILR's recoverable set and must take the
// peer-repair path.
use milr_models::serving_probe as fleet_model;
use milr_serve::RequestStatus;
use milr_store::Store;
use milr_substrate::SubstrateKind;
use std::path::PathBuf;

fn campaign(seed: u64, kind: SubstrateKind, dir: Option<PathBuf>) -> FleetConfig {
    FleetConfig {
        seed,
        replicas: 3,
        kind,
        requests: 120,
        faults: 2,
        heavy_faults: 1,
        dir,
        ..FleetConfig::default()
    }
}

fn temp_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("milr-e2e-fleet-{}-{name}", std::process::id()))
}

#[test]
fn beyond_capacity_damage_is_peer_repaired_bit_exactly_on_every_substrate() {
    let golden = fleet_model(0xF1E & 0xFFFF);
    for kind in SubstrateKind::ALL {
        let dir = temp_dir(&format!("repair-{kind:?}"));
        let result = simulate(
            &golden,
            MilrConfig::default(),
            &campaign(71, kind, Some(dir.clone())),
        )
        .unwrap();
        let r = &result.report;
        // The campaign actually exercised the ladder.
        assert_eq!(r.fleet.faults_injected, 3, "{kind}");
        assert!(r.fleet.quarantines >= 1, "{kind}: no quarantine");
        assert_eq!(r.peer_repairs(), 1, "{kind}: heavy fault must use a peer");
        assert!(r.repair_pages() > 0 && r.repair_bytes() > 0, "{kind}");

        // (3) No request lost during failover: drain completes all.
        assert_eq!(r.fleet.completed, 120, "{kind}");
        assert_eq!(r.fleet.rejected, 0, "{kind}");
        assert!(r.fleet.reexecuted > 0, "{kind}: no failover hand-off");

        // (2) Completed outputs bit-equal the fault-free model.
        for o in &result.outcomes {
            let RequestStatus::Completed(out) = &o.status else {
                panic!("{kind}: request {} not completed under drain", o.id)
            };
            let expect = &golden
                .forward_batch(std::slice::from_ref(&o.input))
                .unwrap()[0];
            let ob: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
            let eb: Vec<u32> = expect.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(ob, eb, "{kind}: request {} diverged", o.id);
        }

        // (1) The repaired replica's on-disk pages are bit-identical to
        // the healthy peers' certified stores, layer run by layer run.
        let stores: Vec<Store> = result
            .store_paths
            .iter()
            .map(|p| Store::open(p).unwrap())
            .collect();
        let layers: Vec<usize> = stores[0].layers().iter().map(|e| e.layer).collect();
        for &layer in &layers {
            let reference: Vec<Vec<u8>> = (0..stores[0].layer_page_count(layer))
                .map(|p| stores[0].read_layer_page_raw(layer, p).unwrap())
                .collect();
            for (i, store) in stores.iter().enumerate().skip(1) {
                for (p, want) in reference.iter().enumerate() {
                    let got = store.read_layer_page_raw(layer, p).unwrap();
                    assert_eq!(
                        &got, want,
                        "{kind}: layer {layer} page {p} of replica {i} diverged"
                    );
                }
            }
            // And every replica certifies the layer it now holds.
            for store in &stores {
                store.certified_layer_pages(layer).unwrap();
            }
        }
        drop(stores);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn same_seed_yields_byte_identical_fleet_aggregate() {
    let golden = fleet_model(0xD5D);
    let cfg = campaign(77, SubstrateKind::Secded, None);
    let a = simulate(&golden, MilrConfig::default(), &cfg).unwrap();
    let b = simulate(&golden, MilrConfig::default(), &cfg).unwrap();
    // Byte-identical ServeReport aggregate (availability included)
    // and full fleet report, twice in a row.
    assert_eq!(
        a.report.fleet.availability.to_bits(),
        b.report.fleet.availability.to_bits()
    );
    assert_eq!(a.report.fleet, b.report.fleet);
    assert_eq!(a.report, b.report);
    assert_eq!(a.report.to_json(), b.report.to_json());
    assert_eq!(a.outcomes.len(), b.outcomes.len());
    for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
        assert_eq!(x, y);
    }
    // A different seed steers the campaign elsewhere.
    let c = simulate(
        &golden,
        MilrConfig::default(),
        &campaign(78, SubstrateKind::Secded, None),
    )
    .unwrap();
    assert_ne!(a.report.fleet.digest, c.report.fleet.digest);
}

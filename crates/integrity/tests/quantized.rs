//! Quantized-substrate end-to-end contracts: weights stored on the
//! int8/fp16 grid survive the full store → inject → scrub → heal
//! journey **bit-exactly**.

use milr_core::{Milr, MilrConfig, WeightGrid};
use milr_integrity::{
    Budget, EscalationPolicy, IntegrityPipeline, Journaled, ModelHost, RoundOutcome, Volatile,
};
use milr_store::{Store, StoreOptions};
use milr_substrate::SubstrateKind;

/// The pipeline probe model with every parameter snapped onto `grid`,
/// so a quantized substrate stores the golden bits exactly.
fn snapped_model(grid: WeightGrid) -> milr_nn::Sequential {
    let mut m = milr_models::serving_probe(77);
    for layer in m.layers_mut() {
        if let Some(p) = layer.params_mut() {
            for v in p.data_mut() {
                *v = grid.snap(*v);
            }
        }
    }
    m
}

fn config(grid: WeightGrid) -> MilrConfig {
    MilrConfig {
        weight_grid: grid,
        ..MilrConfig::default()
    }
}

fn assert_bits_equal(golden: &milr_nn::Sequential, live: &milr_nn::Sequential, tag: &str) {
    for (i, (a, b)) in golden.layers().iter().zip(live.layers().iter()).enumerate() {
        if let (Some(p), Some(q)) = (a.params(), b.params()) {
            let pa: Vec<u32> = p.data().iter().map(|v| v.to_bits()).collect();
            let pb: Vec<u32> = q.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(pa, pb, "{tag}: layer {i} diverged from golden bits");
        }
    }
}

#[test]
fn int8_store_inject_scrub_heal_is_bit_exact_without_ulp_walk() {
    let golden = snapped_model(WeightGrid::Int8);
    for kind in [SubstrateKind::Int8, SubstrateKind::Int8Secded] {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut milr = Milr::protect(&golden, config(WeightGrid::Int8)).unwrap();
        // Clean round trip first: the quantized store holds the golden
        // bits exactly.
        assert_bits_equal(&golden, &host.materialize(), kind.name());

        // Inject: a raw burst inside one weight of conv layer 0 —
        // beyond single-bit for the SECDED arm, so it survives scrub
        // and forces a MILR heal.
        let layer = host.param_layers()[0];
        host.corrupt_weight(layer, 5);
        let summary = host.store().scrub();
        if kind == SubstrateKind::Int8Secded {
            assert!(
                summary.uncorrectable >= 1,
                "{kind}: a multi-bit burst must defeat SECDED"
            );
        } else {
            assert!(
                summary.is_clean(),
                "{kind}: no code layer, scrub is a no-op"
            );
        }
        assert_ne!(
            host.materialize().layers()[layer].params().unwrap().data()[5],
            golden.layers()[layer].params().unwrap().data()[5],
            "{kind}: injection did not corrupt the weight"
        );

        // Heal: detection flags the layer; the integer-ring solve lands
        // on the golden grid points exactly.
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
        let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
        assert_eq!(outcome, RoundOutcome::Clean { reanchored: false }, "{kind}");
        assert_eq!(pipeline.last_flagged(), &[layer], "{kind}");
        assert!(pipeline.report().layers_healed >= 1, "{kind}");
        assert_bits_equal(&golden, &host.materialize(), kind.name());
        assert!(
            milr.detect(&host.materialize()).unwrap().is_clean(),
            "{kind}"
        );
    }
}

#[test]
fn fp16_heal_is_bit_exact_without_ulp_walk() {
    let golden = snapped_model(WeightGrid::Fp16);
    for kind in [SubstrateKind::Fp16, SubstrateKind::Fp16Secded] {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut milr = Milr::protect(&golden, config(WeightGrid::Fp16)).unwrap();
        assert_bits_equal(&golden, &host.materialize(), kind.name());
        let layer = host.param_layers()[0];
        host.corrupt_weight(layer, 2);
        host.store().scrub();
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
        let outcome = pipeline.run(&host, &mut milr, &mut Volatile).unwrap();
        assert_eq!(outcome, RoundOutcome::Clean { reanchored: false }, "{kind}");
        assert_bits_equal(&golden, &host.materialize(), kind.name());
    }
}

#[test]
fn secded_scrub_alone_repairs_single_bit_faults_in_quantized_pages() {
    let golden = snapped_model(WeightGrid::Int8);
    let host = ModelHost::new(&golden, &|c| SubstrateKind::Int8Secded.store(c));
    // One bit per code word across three different words: all within
    // SECDED's per-word budget.
    let (r_lo, r_hi) = host.store().shard_raw_range(0);
    for word in 0..3 {
        let bit = r_lo + word * 39 + 7 + word;
        assert!(bit < r_hi);
        host.store().flip_raw_bit(bit);
    }
    let summary = host.store().scrub();
    assert_eq!(summary.corrected, 3);
    assert_eq!(summary.uncorrectable, 0);
    assert_bits_equal(&golden, &host.materialize(), "int8+secded scrub");
    assert!(host.store().scrub().is_clean(), "correction must persist");
}

#[test]
fn quantized_store_container_roundtrips_grid_and_weights() {
    let golden = snapped_model(WeightGrid::Int8);
    let cfg = config(WeightGrid::Int8);
    for kind in [SubstrateKind::Int8, SubstrateKind::Int8Secded] {
        let path = std::env::temp_dir().join(format!(
            "milr-integrity-quant-{}-{kind:?}.milr",
            std::process::id()
        ));
        Store::create(
            &path,
            &golden,
            cfg,
            StoreOptions {
                kind,
                page_weights: 32,
            },
        )
        .unwrap();
        let mut store = Store::open(&path).unwrap();
        assert_eq!(
            store.milr().config().weight_grid,
            WeightGrid::Int8,
            "{kind}"
        );
        let host = ModelHost::from_parts(store.template().clone(), store.open_substrates(8));
        assert_bits_equal(&golden, &host.materialize(), kind.name());
        // A clean pipeline round over the container is a strict no-op.
        let mut milr = store.milr().clone();
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Fail, Budget::default());
        let outcome = {
            let mut durability = Journaled::strict(&mut store);
            pipeline.run(&host, &mut milr, &mut durability).unwrap()
        };
        assert_eq!(outcome, RoundOutcome::Clean { reanchored: false }, "{kind}");
        assert!(pipeline.report().is_noop(), "{kind}");
        drop(host);
        drop(store);
        let _ = std::fs::remove_file(&path);
    }
}

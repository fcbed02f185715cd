//! Serial-vs-parallel determinism: the segment-parallel recovery path
//! (one scoped thread per checkpoint segment) must return
//! **bit-identical** results to the serial reference path —
//! same outcomes, same healed parameter bits. Detection runs serially
//! whatever `MilrConfig::parallel` says (DESIGN.md §16); its half of
//! this suite pins that the flag still leaves flags and deviations
//! bit-identical, so reintroducing a detection fan-out stays safe.

use milr_core::{Milr, MilrConfig};
use milr_fault::{corrupt_layer, inject_rber, inject_whole_weight, FaultRng};
use milr_nn::{Activation, Layer, Sequential};
use milr_tensor::{ConvSpec, Padding, PoolSpec, TensorRng};

/// A model with several checkpoint segments and every layer kind, so
/// both parallel axes (layers for detect, segments for recover) are
/// exercised.
fn test_model(seed: u64) -> Sequential {
    let mut rng = TensorRng::new(seed);
    let mut m = Sequential::new(vec![14, 14, 1]);
    let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
    m.push(Layer::conv2d_random(3, 1, 6, spec, &mut rng).unwrap())
        .unwrap();
    m.push(Layer::bias_zero(6)).unwrap();
    m.push(Layer::Activation(Activation::Relu)).unwrap();
    m.push(Layer::MaxPool2D(PoolSpec::new(2, 2).unwrap()))
        .unwrap();
    m.push(Layer::conv2d_random(3, 6, 4, spec, &mut rng).unwrap())
        .unwrap();
    m.push(Layer::bias_zero(4)).unwrap();
    m.push(Layer::Activation(Activation::Relu)).unwrap();
    m.push(Layer::Flatten).unwrap();
    m.push(Layer::dense_random(4 * 4 * 4, 8, &mut rng).unwrap())
        .unwrap();
    m.push(Layer::bias_zero(8)).unwrap();
    m.push(Layer::Activation(Activation::Softmax)).unwrap();
    m
}

fn configs() -> (MilrConfig, MilrConfig) {
    let parallel = MilrConfig {
        parallel: true,
        ..MilrConfig::default()
    };
    let serial = MilrConfig {
        parallel: false,
        ..MilrConfig::default()
    };
    (parallel, serial)
}

fn param_bits(model: &Sequential) -> Vec<Vec<u32>> {
    model
        .layers()
        .iter()
        .filter_map(|l| l.params())
        .map(|p| p.data().iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn corrupt(model: &mut Sequential, seed: u64) {
    let mut rng = FaultRng::seed(seed);
    for layer in model.layers_mut() {
        if let Some(p) = layer.params_mut() {
            inject_rber(p.data_mut(), 1e-3, &mut rng);
        }
    }
}

#[test]
fn detection_reports_are_bit_identical() {
    for model_seed in [1u64, 7, 42] {
        let golden = test_model(model_seed);
        let (par_cfg, ser_cfg) = configs();
        let par = Milr::protect(&golden, par_cfg).unwrap();
        let ser = Milr::protect(&golden, ser_cfg).unwrap();
        for fault_seed in 0u64..6 {
            let mut m = golden.clone();
            corrupt(&mut m, fault_seed);
            let rp = par.detect(&m).unwrap();
            let rs = ser.detect(&m).unwrap();
            assert_eq!(rp.flagged, rs.flagged, "seed {fault_seed}");
            // Compare checks field-by-field with bit-exact deviations
            // (elapsed legitimately differs).
            assert_eq!(rp.checks.len(), rs.checks.len());
            for (a, b) in rp.checks.iter().zip(rs.checks.iter()) {
                assert_eq!(a.layer, b.layer);
                assert_eq!(a.kind, b.kind);
                assert_eq!(a.flagged, b.flagged);
                assert_eq!(
                    a.max_deviation.to_bits(),
                    b.max_deviation.to_bits(),
                    "layer {} deviation differs",
                    a.layer
                );
            }
        }
    }
}

#[test]
fn recovery_is_bit_identical_across_segments() {
    // Corrupt layers in *different* checkpoint segments so the parallel
    // path actually fans out.
    let golden = test_model(3);
    let (par_cfg, ser_cfg) = configs();
    let par = Milr::protect(&golden, par_cfg).unwrap();
    let ser = Milr::protect(&golden, ser_cfg).unwrap();
    for fault_seed in 0u64..6 {
        let mut mp = golden.clone();
        corrupt(&mut mp, fault_seed);
        let mut ms = mp.clone();

        let report_p = par.detect(&mp).unwrap();
        let report_s = ser.detect(&ms).unwrap();
        assert_eq!(report_p.flagged, report_s.flagged);

        let rec_p = par.recover(&mut mp, &report_p).unwrap();
        let rec_s = ser.recover(&mut ms, &report_s).unwrap();
        let outcomes_p: Vec<_> = rec_p
            .outcomes
            .iter()
            .map(|(i, o)| (*i, o.clone()))
            .collect();
        let outcomes_s: Vec<_> = rec_s
            .outcomes
            .iter()
            .map(|(i, o)| (*i, o.clone()))
            .collect();
        assert_eq!(outcomes_p, outcomes_s, "seed {fault_seed}");
        assert_eq!(
            param_bits(&mp),
            param_bits(&ms),
            "healed parameters differ for seed {fault_seed}"
        );
    }
}

#[test]
fn whole_weight_and_layer_corruption_recover_identically() {
    let golden = test_model(9);
    let (par_cfg, ser_cfg) = configs();
    let par = Milr::protect(&golden, par_cfg).unwrap();
    let ser = Milr::protect(&golden, ser_cfg).unwrap();

    // Whole-weight errors across all layers.
    let mut mp = golden.clone();
    let mut rng = FaultRng::seed(5);
    for layer in mp.layers_mut() {
        if let Some(p) = layer.params_mut() {
            inject_whole_weight(p.data_mut(), 5e-3, &mut rng);
        }
    }
    let mut ms = mp.clone();
    let report_p = par.detect(&mp).unwrap();
    par.recover(&mut mp, &report_p).unwrap();
    let report_s = ser.detect(&ms).unwrap();
    ser.recover(&mut ms, &report_s).unwrap();
    assert_eq!(param_bits(&mp), param_bits(&ms));

    // Explicit multi-segment target list (conv 0 and dense 8).
    let mut mp = golden.clone();
    corrupt_layer(
        mp.layers_mut()[0].params_mut().unwrap().data_mut(),
        &mut FaultRng::seed(8),
    );
    corrupt_layer(
        mp.layers_mut()[8].params_mut().unwrap().data_mut(),
        &mut FaultRng::seed(9),
    );
    let mut ms = mp.clone();
    let rp = par.recover_layers(&mut mp, &[0, 8]).unwrap();
    let rs = ser.recover_layers(&mut ms, &[0, 8]).unwrap();
    assert_eq!(rp.outcomes, rs.outcomes);
    assert_eq!(param_bits(&mp), param_bits(&ms));
}

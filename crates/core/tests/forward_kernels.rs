//! The register-tiled forward kernels against the scalar reference, at
//! the level MILR depends on: the single-location conv entry equals the
//! full convolution at every pixel (the detection probe included), and
//! artifacts built through either kernel serialize to the same bytes as
//! recorded before the kernels changed — so containers written then
//! still detect clean.

use milr_core::{Milr, MilrConfig};
use milr_models::{reduced_cifar_small, reduced_mnist, serving_probe};
use milr_nn::{Layer, Sequential};
use milr_tensor::{conv2d, conv2d_at, scalar, Tensor, TensorRng};

fn models() -> Vec<(&'static str, Sequential)> {
    vec![
        ("reduced_mnist(42)", reduced_mnist(42).model),
        ("reduced_cifar_small(42)", reduced_cifar_small(42).model),
        ("serving_probe(11)", serving_probe(11)),
    ]
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Asserts `conv2d_at` equals `conv2d` (and the scalar reference) at
/// every output location of `input`.
fn check_every_location(name: &str, i: usize, layer: &Layer, input: &Tensor) {
    let Layer::Conv2D { filters, spec } = layer else {
        unreachable!()
    };
    let full = conv2d(input, filters, spec).unwrap();
    let reference = scalar::conv2d(input, filters, spec).unwrap();
    assert_eq!(
        bits(full.data()),
        bits(reference.data()),
        "{name} layer {i}"
    );
    let &[b, gh, gw, y] = full.shape().dims() else {
        unreachable!()
    };
    for img in 0..b {
        for r in 0..gh {
            for c in 0..gw {
                let probe = conv2d_at(input, filters, spec, [img, r, c]).unwrap();
                let off = ((img * gh + r) * gw + c) * y;
                assert_eq!(
                    bits(&probe),
                    bits(&full.data()[off..off + y]),
                    "{name} layer {i} at [{img}, {r}, {c}]"
                );
            }
        }
    }
}

#[test]
fn conv_probe_entry_matches_full_conv_on_every_model_layer() {
    for (name, model) in models() {
        let mut convs = 0;
        // A batch of real activations flowing through the model (ReLU
        // zeros included), and each layer's own uniform probe input.
        let mut dims = vec![8];
        dims.extend_from_slice(model.input_shape());
        let mut flow = TensorRng::new(5).uniform_tensor(&dims);
        for (i, layer) in model.layers().iter().enumerate() {
            if matches!(layer, Layer::Conv2D { .. }) {
                convs += 1;
                check_every_location(name, i, layer, &flow);
                let mut probe_dims = vec![1];
                probe_dims.extend_from_slice(model.shape_at(i));
                let probe_input = TensorRng::new(i as u64).uniform_tensor(&probe_dims);
                check_every_location(name, i, layer, &probe_input);
            }
            flow = layer.forward(&flow).unwrap();
        }
        assert!(convs >= 2, "{name} has {convs} conv layers");
    }
}

/// `(length, CRC-32)` of each model's serialized `Milr` under each
/// config in [`configs`], recorded from the full-map scalar `conv2d` and
/// `matmul` before the tiled kernels and probe-only checks replaced
/// them.
const RECORDED: [[(usize, u32); 2]; 3] = [
    [(34757, 0x4f86_3e2e), (51693, 0x1396_890e)],
    [(96365, 0xe9d1_251e), (148757, 0xc1e9_885b)],
    [(4411, 0x0da8_1dbc), (7631, 0xcb45_2a91)],
];

fn configs() -> [MilrConfig; 2] {
    [
        MilrConfig::default(),
        MilrConfig {
            flow_batch: 3,
            dense_self_recovery: true,
            ..MilrConfig::default()
        },
    ]
}

#[test]
fn artifacts_serialize_identically_through_either_kernel() {
    for ((name, model), recorded) in models().into_iter().zip(RECORDED) {
        for (config, (len, crc)) in configs().into_iter().zip(recorded) {
            let fast = Milr::protect(&model, config).unwrap().to_bytes();
            let reference = scalar::with_reference_kernels(|| {
                Milr::protect(&model, config).unwrap().to_bytes()
            });
            assert!(fast == reference, "{name}: serialized artifacts differ");
            assert_eq!(
                (fast.len(), milr_ecc::crc32(&fast)),
                (len, crc),
                "{name}: bytes differ from the recorded container"
            );
            // And a container written by the reference detects clean
            // through the tiled kernels.
            let restored = Milr::from_bytes(&reference).unwrap();
            assert!(restored.detect(&model).unwrap().is_clean(), "{name}");
        }
    }
}

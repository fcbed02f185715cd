//! Micro-benchmarks of the substrates MILR is built on: conv/matmul
//! forward, LU/QR solving, plus — per [`WeightSubstrate`] — encode,
//! scrub, and decode throughput, and one full detection pass.
//!
//! The harness prints a JSON summary after the human-readable rows; set
//! `CRITERION_JSON=BENCH_substrates.json` to also write it to a file.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use milr_bench::{prepare, NetChoice, Scale};
use milr_core::{Milr, MilrConfig};
use milr_ecc::Secded;
use milr_fault::{inject_rber, FaultRng};
use milr_linalg::{lstsq, Mat};
use milr_substrate::SubstrateKind;
use milr_tensor::{conv2d, ConvSpec, Padding, TensorRng};

fn bench_kernels(c: &mut Criterion) {
    let mut rng = TensorRng::new(3);

    let input = rng.uniform_tensor(&[1, 28, 28, 8]);
    let filters = rng.uniform_tensor(&[3, 3, 8, 16]);
    let spec = ConvSpec::new(3, 1, Padding::Same).expect("static");
    c.bench_function("conv2d_28x28x8_to_16", |b| {
        b.iter(|| conv2d(&input, &filters, &spec).expect("conv"))
    });

    let a = rng.uniform_tensor(&[128, 128]);
    let bmat = rng.uniform_tensor(&[128, 128]);
    c.bench_function("matmul_128", |b| {
        b.iter(|| a.matmul(&bmat).expect("matmul"))
    });

    let sys = Mat::from_fn(96, 96, |i, j| {
        if i == j {
            50.0
        } else {
            ((i * 31 + j * 7) % 11) as f64 / 11.0
        }
    });
    let rhs: Vec<f64> = (0..96).map(|i| i as f64 * 0.25).collect();
    c.bench_function("lu_solve_96", |b| {
        b.iter(|| sys.solve(&rhs).expect("solve"))
    });
    c.bench_function("qr_lstsq_96", |b| {
        b.iter(|| lstsq(&sys, &rhs).expect("lstsq"))
    });

    c.bench_function("secded_encode_word", |b| {
        b.iter(|| Secded::encode(0xDEAD_BEEF))
    });
}

/// Per-substrate encode / scrub / decode throughput over a 4096-weight
/// buffer — the substrate columns of the storage/latency story. The
/// quantized arms ride along: their pages are 2–4× smaller, so encode /
/// scrub / decode should track well under the f32 arms.
fn bench_substrate_matrix(c: &mut Criterion) {
    let weights: Vec<f32> = (0..4096).map(|i| i as f32 * 0.01).collect();
    let mut group = c.benchmark_group("substrate_4096");
    group.sample_size(10);
    for kind in SubstrateKind::ALL
        .into_iter()
        .chain(SubstrateKind::QUANTIZED)
    {
        group.bench_with_input(BenchmarkId::new("encode", kind), &weights, |b, w| {
            b.iter(|| kind.store(w))
        });
        group.bench_with_input(BenchmarkId::new("decode", kind), &weights, |b, w| {
            let mem = kind.store(w);
            b.iter(|| mem.read_weights())
        });
        group.bench_with_input(
            BenchmarkId::new("inject_scrub_rber_1e-4", kind),
            &weights,
            |b, w| {
                b.iter(|| {
                    let mut mem = kind.store(w);
                    inject_rber(&mut *mem, 1e-4, &mut FaultRng::seed(7));
                    mem.scrub()
                })
            },
        );
    }
    group.finish();
}

/// One full detection pass over the reduced MNIST twin (probe-only
/// conv checks, serial by design).
fn bench_detection(c: &mut Criterion) {
    let prep = prepare(NetChoice::Mnist, Scale::Reduced, 0xBE7C);
    let milr = Milr::protect(&prep.model, MilrConfig::default()).expect("protect");
    let mut group = c.benchmark_group("detection");
    group.sample_size(10);
    group.bench_function(BenchmarkId::from_parameter("full"), |b| {
        b.iter(|| milr.detect(&prep.model).expect("detect"))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_substrate_matrix,
    bench_detection
);
criterion_main!(benches);

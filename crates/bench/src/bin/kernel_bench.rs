//! `kernel_bench`: measures the optimized raw-space and forward kernels
//! against their scalar reference implementations — the proof that the
//! chunked rewrites (slice-by-8 CRC32, word-parallel SECDED, T-table AES, single-pass CRC2D, register-tiled
//! GEMM, patch-walker conv2d and row-major Householder QR) actually buy
//! throughput on the machine at hand, not just in theory.
//!
//! Every optimized kernel is proptested bit-equivalent to its scalar
//! twin in its home crate; this binary only measures. With `--check`
//! it exits non-zero when any optimized kernel fails its speedup floor
//! (1× for all, 3× for the SECDED scrub and the QR factor, 2× for the
//! CRC2D full-grid encode and for conv2d) — the CI regression gate.
//!
//! ```text
//! cargo run --release -p milr-bench --bin kernel_bench -- \
//!     --trials 5 --json BENCH_kernels.json --check
//! ```

use milr_bench::best_ns;
use milr_bench::json::write_summary;
use milr_ecc::{crc32, scalar, Crc2d, DecodeOutcome, Secded, SecdedMemory};
use milr_linalg::{scalar as linalg_scalar, Mat, Qr};
use milr_obs::json::{array, JsonObject};
use milr_tensor::scalar as tensor_scalar;
use milr_tensor::{conv2d, matmul, ConvSpec, Padding, Tensor};
use milr_xts::Aes128;
use std::hint::black_box;

/// Bytes hashed per CRC measurement.
const CRC_BYTES: usize = 64 * 1024;
/// Words per SECDED encode/decode/scrub measurement.
const SECDED_WORDS: usize = 8 * 1024;
/// Blocks per AES measurement.
const AES_BLOCKS: usize = 4 * 1024;
/// Side of the square CRC2D grid (a large conv layer's z×y bank).
const CRC2D_SIDE: usize = 256;
/// Side of the QR system: `W_augᵀ` of CIFAR-small's dense layer 18
/// (32 weight columns plus 352 dummy columns over 384 inputs), which
/// every heal of its last conv layer inverts.
const QR_SIDE: usize = 384;

struct BenchArgs {
    trials: usize,
    json: Option<String>,
    check: bool,
}

impl BenchArgs {
    fn from_env() -> Self {
        let mut out = BenchArgs {
            trials: 5,
            json: None,
            check: false,
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--trials" => {
                    let v = iter.next().unwrap_or_default();
                    out.trials = v.parse().unwrap_or_else(|e| {
                        eprintln!("bad --trials: {e}");
                        std::process::exit(2);
                    });
                }
                "--json" => {
                    out.json = Some(iter.next().unwrap_or_else(|| {
                        eprintln!("--json needs a value");
                        std::process::exit(2);
                    }));
                }
                "--check" => out.check = true,
                other => {
                    eprintln!("unknown flag {other}");
                    eprintln!("usage: [--trials N] [--json FILE] [--check]");
                    std::process::exit(2);
                }
            }
        }
        out.trials = out.trials.max(1);
        out
    }
}

struct Kernel {
    name: &'static str,
    /// Work items per measurement (bytes, words, blocks, cells) — for
    /// the derived per-item throughput column.
    items: u64,
    scalar_ns: u64,
    optimized_ns: u64,
    /// Speedup floor enforced by `--check`.
    floor: f64,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        self.scalar_ns as f64 / self.optimized_ns.max(1) as f64
    }
}

fn deterministic_bytes(n: usize) -> Vec<u8> {
    let mut state = 0x243F_6A88_85A3_08D3u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

fn deterministic_f32(n: usize) -> Vec<f32> {
    deterministic_bytes(n)
        .into_iter()
        .map(|b| b as f32 * 0.01 - 1.28)
        .collect()
}

/// `max(0, x)` over [`deterministic_f32`]: about half exact zeros.
fn relu_f32(n: usize) -> Vec<f32> {
    deterministic_f32(n)
        .into_iter()
        .map(|x| x.max(0.0))
        .collect()
}

fn main() {
    let args = BenchArgs::from_env();
    let trials = args.trials;
    let mut kernels = Vec::new();

    // ---- CRC-32 over one buffer. ----
    let buf = deterministic_bytes(CRC_BYTES);
    assert_eq!(crc32(&buf), scalar::crc32(&buf));
    kernels.push(Kernel {
        name: "crc32",
        items: CRC_BYTES as u64,
        scalar_ns: best_ns(trials, || {
            black_box(scalar::crc32(black_box(&buf)));
        }),
        optimized_ns: best_ns(trials, || {
            black_box(crc32(black_box(&buf)));
        }),
        floor: 1.0,
    });

    // ---- SECDED encode / decode over a word batch. ----
    let data: Vec<u32> = deterministic_bytes(SECDED_WORDS * 4)
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    kernels.push(Kernel {
        name: "secded_encode",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            let mut acc = 0u64;
            for &d in &data {
                acc ^= scalar::secded_encode(black_box(d));
            }
            black_box(acc);
        }),
        optimized_ns: best_ns(trials, || {
            let mut acc = 0u64;
            for &d in &data {
                acc ^= Secded::encode(black_box(d));
            }
            black_box(acc);
        }),
        floor: 1.0,
    });
    let words: Vec<u64> = data.iter().map(|&d| Secded::encode(d)).collect();
    kernels.push(Kernel {
        name: "secded_decode",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            let mut acc = 0u32;
            for &w in &words {
                acc ^= scalar::secded_decode(black_box(w)).data();
            }
            black_box(acc);
        }),
        optimized_ns: best_ns(trials, || {
            let mut acc = 0u32;
            for &w in &words {
                acc ^= Secded::decode(black_box(w)).data();
            }
            black_box(acc);
        }),
        floor: 1.0,
    });

    // ---- SECDED scrub: the serving loop's hottest kernel. ----
    // Mostly-clean memory with a sprinkle of single-bit faults — the
    // realistic scrub profile (clean words dominate; the optimized path
    // screens them with fused popcounts before any decode).
    let weights = deterministic_f32(SECDED_WORDS);
    let mut template = SecdedMemory::protect(&weights);
    for i in (0..SECDED_WORDS).step_by(257) {
        template.flip_bit(i, (i % 39) as u32);
    }
    let faulty = template.words().to_vec();
    let mut scratch = SecdedMemory::protect(&weights);
    kernels.push(Kernel {
        name: "secded_scrub",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            // The pre-optimization scrub: scalar-decode every word,
            // re-encode the corrected ones.
            scratch.words_mut().copy_from_slice(&faulty);
            let mut corrected = 0usize;
            for w in scratch.words_mut() {
                match scalar::secded_decode(*w) {
                    DecodeOutcome::Clean { .. } => {}
                    DecodeOutcome::Corrected { data, .. } => {
                        corrected += 1;
                        *w = scalar::secded_encode(data);
                    }
                    DecodeOutcome::DoubleError { .. } => {}
                }
            }
            black_box(corrected);
        }),
        optimized_ns: best_ns(trials, || {
            scratch.words_mut().copy_from_slice(&faulty);
            black_box(scratch.scrub_in_place());
        }),
        floor: 3.0,
    });

    // ---- AES-128 block cipher (the XTS substrate's inner loop). ----
    let key = *b"kernel-bench-key";
    let fused = Aes128::new(&key);
    let slow = milr_xts::scalar::Aes128::new(&key);
    let blocks = deterministic_bytes(AES_BLOCKS * 16);
    let mut buf_a = blocks.clone();
    let mut buf_b = blocks.clone();
    kernels.push(Kernel {
        name: "aes_encrypt",
        items: AES_BLOCKS as u64,
        scalar_ns: best_ns(trials, || {
            for chunk in buf_a.chunks_exact_mut(16) {
                slow.encrypt_block(chunk.try_into().unwrap());
            }
            black_box(&buf_a);
        }),
        optimized_ns: best_ns(trials, || {
            for chunk in buf_b.chunks_exact_mut(16) {
                fused.encrypt_block(chunk.try_into().unwrap());
            }
            black_box(&buf_b);
        }),
        floor: 1.0,
    });
    kernels.push(Kernel {
        name: "aes_decrypt",
        items: AES_BLOCKS as u64,
        scalar_ns: best_ns(trials, || {
            for chunk in buf_a.chunks_exact_mut(16) {
                slow.decrypt_block(chunk.try_into().unwrap());
            }
            black_box(&buf_a);
        }),
        optimized_ns: best_ns(trials, || {
            for chunk in buf_b.chunks_exact_mut(16) {
                fused.decrypt_block(chunk.try_into().unwrap());
            }
            black_box(&buf_b);
        }),
        floor: 1.0,
    });
    assert_eq!(buf_a, buf_b, "fused AES diverged from scalar");
    assert_eq!(buf_a, blocks, "decrypt did not invert encrypt");

    // ---- CRC2D full-grid encode (protection-time fingerprinting). ----
    let grid = deterministic_f32(CRC2D_SIDE * CRC2D_SIDE);
    let crc2d = Crc2d::new(CRC2D_SIDE, CRC2D_SIDE);
    assert_eq!(
        crc2d.encode(&grid).row_codes(),
        crc2d.encode_scalar(&grid).row_codes()
    );
    kernels.push(Kernel {
        name: "crc2d_encode",
        items: (CRC2D_SIDE * CRC2D_SIDE) as u64,
        scalar_ns: best_ns(trials, || {
            black_box(crc2d.encode_scalar(black_box(&grid)));
        }),
        optimized_ns: best_ns(trials, || {
            black_box(crc2d.encode(black_box(&grid)));
        }),
        floor: 2.0,
    });

    // ---- Forward kernels: register-tiled GEMM and conv2d. ----
    // Left operands are ReLU-like (about half exact zeros), as they are
    // in a served forward; the reference loop skips those terms.
    for (name, m, n, p) in [
        ("gemm_dense1", 8usize, 384usize, 32usize),
        ("gemm_conv2", 256, 72, 8),
    ] {
        let a = Tensor::from_vec(relu_f32(m * n), &[m, n]).expect("shape");
        let b = Tensor::from_vec(deterministic_f32(n * p), &[n, p]).expect("shape");
        assert_eq!(
            matmul(&a, &b).expect("gemm"),
            tensor_scalar::matmul(&a, &b).expect("gemm"),
            "{name}: tiled GEMM diverged from the reference"
        );
        kernels.push(Kernel {
            name,
            items: (m * n * p) as u64,
            scalar_ns: best_ns(trials, || {
                black_box(tensor_scalar::matmul(black_box(&a), black_box(&b)).expect("gemm"));
            }),
            optimized_ns: best_ns(trials, || {
                black_box(matmul(black_box(&a), black_box(&b)).expect("gemm"));
            }),
            floor: 1.0,
        });
    }
    let input = Tensor::from_vec(relu_f32(8 * 16 * 16 * 8), &[8, 16, 16, 8]).expect("shape");
    let filters = Tensor::from_vec(deterministic_f32(3 * 3 * 8 * 8), &[3, 3, 8, 8]).expect("shape");
    let spec = ConvSpec::new(3, 1, Padding::Same).expect("spec");
    assert_eq!(
        conv2d(&input, &filters, &spec).expect("conv"),
        tensor_scalar::conv2d(&input, &filters, &spec).expect("conv"),
        "conv2d diverged from the reference"
    );
    kernels.push(Kernel {
        name: "conv2d",
        items: (8 * 16 * 16 * 8 * 3 * 3 * 8) as u64,
        scalar_ns: best_ns(trials, || {
            black_box(tensor_scalar::conv2d(black_box(&input), &filters, &spec).expect("conv"));
        }),
        optimized_ns: best_ns(trials, || {
            black_box(conv2d(black_box(&input), &filters, &spec).expect("conv"));
        }),
        floor: 2.0,
    });

    // ---- Heal-path QR: the dense-layer inversion a conv heal crosses. ----
    let real = deterministic_f32(32 * QR_SIDE);
    let dummy = deterministic_f32(QR_SIDE * QR_SIDE);
    let w_aug_t = Mat::from_fn(QR_SIDE, QR_SIDE, |r, i| {
        if r < 32 {
            real[i * 32 + r] as f64 * 0.1
        } else {
            dummy[(r - 32) * QR_SIDE + i] as f64
        }
    });
    let rhs: Vec<f64> = deterministic_f32(QR_SIDE)
        .iter()
        .map(|&v| v as f64)
        .collect();
    let solve = |qr: Qr| qr.solve(&rhs).expect("solve");
    assert_eq!(
        solve(Qr::factor(&w_aug_t).expect("full rank")),
        solve(linalg_scalar::qr_factor(&w_aug_t).expect("full rank")),
        "row-major QR diverged from the reference"
    );
    kernels.push(Kernel {
        name: "qr_factor_384",
        items: (QR_SIDE * QR_SIDE) as u64,
        scalar_ns: best_ns(trials, || {
            black_box(linalg_scalar::qr_factor(black_box(&w_aug_t)).expect("factor"));
        }),
        optimized_ns: best_ns(trials, || {
            black_box(Qr::factor(black_box(&w_aug_t)).expect("factor"));
        }),
        floor: 3.0,
    });

    // ---- Report. ----
    println!("# kernel_bench — optimized vs scalar raw-space and forward kernels");
    println!("trials: {trials} (best-of)");
    println!(
        "{:>14} {:>12} {:>12} {:>9} {:>12} {:>7}",
        "kernel", "scalar_ns", "opt_ns", "speedup", "ns_per_item", "floor"
    );
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for k in &kernels {
        let per_item = k.optimized_ns as f64 / k.items as f64;
        println!(
            "{:>14} {:>12} {:>12} {:>8.2}x {:>12.3} {:>6.1}x",
            k.name,
            k.scalar_ns,
            k.optimized_ns,
            k.speedup(),
            per_item,
            k.floor
        );
        if k.speedup() < k.floor {
            failures.push(format!(
                "{}: {:.2}x < required {:.1}x",
                k.name,
                k.speedup(),
                k.floor
            ));
        }
        rows.push(
            JsonObject::new()
                .string("name", k.name)
                .raw("items", k.items)
                .raw("scalar_ns", k.scalar_ns)
                .raw("optimized_ns", k.optimized_ns)
                .float("speedup", k.speedup(), 2)
                .float("ns_per_item", per_item, 4)
                .float("required_speedup", k.floor, 1)
                .finish(),
        );
    }
    let json = JsonObject::new()
        .raw("trials", trials)
        .raw("kernels", array(rows))
        .finish();
    write_summary(&json, args.json.as_deref());

    if args.check && !failures.is_empty() {
        eprintln!("kernel speedup floors violated:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}

//! `kernel_bench`: measures the optimized raw-space and forward kernels
//! against their scalar reference implementations — the proof that the
//! rewrites (slice-by-8 CRC32, word-parallel SECDED slice kernels and
//! their vector tiers, batched AES-NI and VAES XTS, single-pass CRC2D,
//! register-tiled FMA GEMM, implicit-GEMM conv2d, single-pass max-pool
//! and row-major Householder QR) actually buy throughput on the machine
//! at hand, not just in theory. Two arms time whole heals instead of
//! kernels: a 2×2 square fault in the last conv layer of CIFAR-small,
//! which the CRC cannot pin, healed on a fresh instance against one
//! whose backward-pass factors are cached; and a live quarantine's heal
//! of a conv whole-weight fault on XTS+SECDED, run from a fresh decode
//! and detection against one run from the flagging tick's.
//!
//! Every optimized kernel is proptested bit-equivalent to its scalar
//! twin in its home crate; this binary only measures. With `--check`
//! it exits non-zero when any optimized kernel fails its speedup floor
//! (1× for all, 10× for reprotect_unchanged, 8× for conv2d, 5× for the
//! warm heal_conv_last, 4× for the batched XTS decrypt and for
//! conv2d_conv1, 3× for the SECDED scrub and the QR factor, 2× for the
//! CRC2D full-grid encode and for max_pool2d, 1.2× for the fused SECDED
//! scrub-decode against its two separate passes and for heal_from_tick;
//! 2× for the dispatched
//! SECDED tier against the popcnt tier and for the dispatched XTS body
//! against the 8-lane AES-NI body, but only on hosts where the AVX-512
//! tier and the VAES body run, 1× elsewhere) — the CI regression gate.
//!
//! ```text
//! cargo run --release -p milr-bench --bin kernel_bench -- \
//!     --trials 5 --json BENCH_kernels.json --check
//! ```

use milr_bench::best_ns;
use milr_bench::json::write_summary;
use milr_core::{Milr, MilrConfig};
use milr_ecc::{crc32, scalar, Crc2d, DecodeOutcome, Secded, SecdedTier};
use milr_integrity::{
    Budget, EscalationPolicy, IntegrityPipeline, ModelHost, RoundOutcome, Volatile,
};
use milr_linalg::{scalar as linalg_scalar, Mat, Qr};
use milr_models::reduced_cifar_small;
use milr_nn::Sequential;
use milr_obs::json::{array, JsonObject};
use milr_substrate::SubstrateKind;
use milr_tensor::scalar as tensor_scalar;
use milr_tensor::{conv2d, matmul, max_pool2d, ConvSpec, Padding, PoolSpec, Tensor};
use milr_xts::{XtsBody, XtsCipher};
use std::hint::black_box;
use std::time::Instant;

/// Bytes hashed per CRC measurement.
const CRC_BYTES: usize = 64 * 1024;
/// Words per SECDED encode/decode/scrub measurement.
const SECDED_WORDS: usize = 8 * 1024;
/// Blocks (each its own XTS data unit) per XTS measurement.
const XTS_BLOCKS: usize = 4 * 1024;
/// Side of the square CRC2D grid (a large conv layer's z×y bank).
const CRC2D_SIDE: usize = 256;
/// Side of the QR system: `W_augᵀ` of CIFAR-small's dense layer 18
/// (32 weight columns plus 352 dummy columns over 384 inputs), which
/// a heal of its last conv layer inverts whenever the CRC leaves cells.
const QR_SIDE: usize = 384;
/// CIFAR-small's last conv layer; heals that propagate its golden
/// output invert dense layer 18.
const CONV_LAST: usize = 14;
/// Weights `(z, y)`, `(z, y + 1)`, `(z + 1, y)` and `(z + 1, y + 1)` of
/// one `(Z, Y)` slice of layer 14 (24 output channels).
const SQUARE: [usize; 4] = [0, 1, 24, 25];
/// CIFAR-small's second conv layer, the heal_from_tick fault's layer.
const CONV2: usize = 3;
/// Smallest golden magnitude the heal_from_tick fault may garble:
/// smaller conv weights heal only approximately.
const MIN_TARGET_MAGNITUDE: f32 = 0.01;

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

/// Best-of-`trials` time of one `recover_layers` heal of `layer` in a
/// copy of `faulty`, on the instance `milr` returns for that sample.
/// The instance and the copy are made outside the timer.
fn best_heal_ns(
    trials: usize,
    faulty: &Sequential,
    layer: usize,
    mut milr: impl FnMut() -> Milr,
) -> u64 {
    (0..trials)
        .map(|_| {
            let milr = milr();
            let mut model = faulty.clone();
            let start = Instant::now();
            black_box(
                milr.recover_layers(&mut model, &[layer])
                    .expect("heal runs"),
            );
            start.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(u64::MAX)
}

/// The first weight of `layer` whose whole-weight fault on `kind`
/// garbles only weights of magnitude at least [`MIN_TARGET_MAGNITUDE`]
/// (under XTS a fault garbles its whole cipher block).
fn exact_heal_target(golden: &Sequential, kind: SubstrateKind, layer: usize) -> usize {
    let host = ModelHost::new(golden, &|c| kind.store(c));
    let params = golden.layers()[layer].params().expect("conv has params");
    (0..params.numel())
        .find(|&weight| {
            host.corrupt_weight(layer, weight);
            let read = host.materialize_layers(&[layer]);
            host.corrupt_weight(layer, weight);
            let read = read.layers()[layer].params().expect("conv has params");
            read.data()
                .iter()
                .zip(params.data())
                .all(|(a, b)| a.to_bits() == b.to_bits() || b.abs() >= MIN_TARGET_MAGNITUDE)
        })
        .expect("some weight heals exactly")
}

/// One live quarantine's heal on a fresh XTS+SECDED host: a gated
/// pipeline (the threaded server's) ticks over the whole model and
/// flags the whole-weight fault at `(layer, weight)`; then the timed
/// call heals it — [`IntegrityPipeline::heal_tick`] from the tick's
/// decode and flags, or [`IntegrityPipeline::run`] from a fresh decode
/// and detection. Returns the heal's time and the healed host.
fn quarantine_heal(
    golden: &Sequential,
    protected: &Milr,
    (layer, weight): (usize, usize),
    from_tick: bool,
) -> (u64, ModelHost) {
    let host = ModelHost::new(golden, &|c| SubstrateKind::XtsSecded.store(c));
    host.corrupt_weight(layer, weight);
    let mut milr = protected.clone();
    let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
        .with_reprotect_gate();
    let tick = pipeline
        .tick(&host, &milr, &milr.checkable_layers(), &mut Volatile)
        .expect("tick runs");
    assert_eq!(
        tick.detection.flagged,
        vec![layer],
        "the tick flags the fault"
    );
    let tick = from_tick.then_some(tick);
    let start = Instant::now();
    let outcome = match tick {
        Some(tick) => pipeline.heal_tick(&host, &mut milr, tick, &mut Volatile),
        None => pipeline.run(&host, &mut milr, &mut Volatile),
    }
    .expect("heal runs");
    let ns = start.elapsed().as_nanos() as u64;
    assert_eq!(outcome, RoundOutcome::Clean { reanchored: false });
    (ns, host)
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
    let mut encoded = vec![0u64; SECDED_WORDS];
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
            Secded::encode_words(black_box(&data), &mut encoded);
            black_box(&encoded);
        }),
        floor: 1.0,
    });
    let words: Vec<u64> = data.iter().map(|&d| Secded::encode(d)).collect();
    assert_eq!(encoded, words, "slice encode diverged from the word encode");
    let mut decoded = vec![0u32; SECDED_WORDS];
    kernels.push(Kernel {
        name: "secded_decode",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            for (slot, &w) in decoded.iter_mut().zip(&words) {
                *slot = scalar::secded_decode(black_box(w)).data();
            }
            black_box(&decoded);
        }),
        optimized_ns: best_ns(trials, || {
            Secded::decode_words(black_box(&words), &mut decoded);
            black_box(&decoded);
        }),
        floor: 1.0,
    });
    assert_eq!(decoded, data, "slice decode diverged from the data");

    // ---- SECDED scrub: the serving loop's hottest kernel. ----
    // Mostly-clean memory with a sprinkle of single-bit faults — the
    // realistic scrub profile (clean words dominate; the optimized path
    // screens them with fused popcounts before any decode).
    let mut faulty: Vec<u64> = deterministic_f32(SECDED_WORDS)
        .iter()
        .map(|w| Secded::encode(w.to_bits()))
        .collect();
    for i in (0..SECDED_WORDS).step_by(257) {
        faulty[i] ^= 1 << (i % 39);
    }
    let mut scratch = faulty.clone();
    kernels.push(Kernel {
        name: "secded_scrub",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            // The pre-optimization scrub: scalar-decode every word,
            // re-encode the corrected ones.
            scratch.copy_from_slice(&faulty);
            let mut corrected = 0usize;
            for w in scratch.iter_mut() {
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
            scratch.copy_from_slice(&faulty);
            black_box(Secded::scrub_words(&mut scratch));
        }),
        floor: 3.0,
    });

    // ---- Fused SECDED scrub + decode: the scrub tick's read. ----
    // The same faulty memory; the reference is the two slice kernels the
    // fused one replaces, each reading every word.
    let mut twice = (faulty.clone(), vec![0u32; SECDED_WORDS]);
    let mut fused = (faulty.clone(), vec![0u32; SECDED_WORDS]);
    kernels.push(Kernel {
        name: "secded_scrub_decode",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            let (words, out) = &mut twice;
            words.copy_from_slice(&faulty);
            black_box(Secded::scrub_words(words));
            Secded::decode_words(words, out);
            black_box(out);
        }),
        optimized_ns: best_ns(trials, || {
            let (words, out) = &mut fused;
            words.copy_from_slice(&faulty);
            black_box(Secded::scrub_decode_words(words, out));
            black_box(out);
        }),
        floor: 1.2,
    });
    assert_eq!(
        fused, twice,
        "fused scrub-decode diverged from the two calls"
    );

    // ---- The dispatched SECDED tier against the popcnt body. ----
    // The scrub tick's read again; the reference is the one-word-at-a-
    // time popcnt tier (the portable body on hosts without popcnt).
    let secded_tier = SecdedTier::dispatched();
    let reference_tier = [SecdedTier::Popcnt, SecdedTier::Portable]
        .into_iter()
        .find(|t| t.supported())
        .expect("the portable tier runs anywhere");
    let mut reference = (faulty.clone(), vec![0u32; SECDED_WORDS]);
    kernels.push(Kernel {
        name: "secded_scrub_decode_simd",
        items: SECDED_WORDS as u64,
        scalar_ns: best_ns(trials, || {
            let (words, out) = &mut reference;
            words.copy_from_slice(&faulty);
            black_box(reference_tier.scrub_decode_words(words, out));
            black_box(out);
        }),
        optimized_ns: best_ns(trials, || {
            let (words, out) = &mut fused;
            words.copy_from_slice(&faulty);
            black_box(Secded::scrub_decode_words(words, out));
            black_box(out);
        }),
        floor: if secded_tier == SecdedTier::Avx512 {
            2.0
        } else {
            1.0
        },
    });
    assert_eq!(
        reference,
        fused,
        "the {} tier diverged from the {} tier",
        secded_tier.name(),
        reference_tier.name()
    );

    // ---- XTS over per-block data units (every weight memory's layout). ----
    // Reference: one IEEE 1619 `*_unit` call per block on the FIPS-197
    // per-byte cipher; optimized: the batched blocks API (VAES or
    // AES-NI where the host has them).
    let cipher = XtsCipher::new(b"kernel-bench-key", b"kernel-bench-twk");
    let blocks = deterministic_bytes(XTS_BLOCKS * 16);
    let mut buf_a = blocks.clone();
    let mut buf_b = blocks.clone();
    kernels.push(Kernel {
        name: "xts_encrypt_blocks",
        items: XTS_BLOCKS as u64,
        scalar_ns: best_ns(trials, || {
            for (unit, block) in buf_a.chunks_exact_mut(16).enumerate() {
                cipher
                    .encrypt_unit(block, unit as u64)
                    .expect("whole block");
            }
            black_box(&buf_a);
        }),
        optimized_ns: best_ns(trials, || {
            cipher.encrypt_blocks(black_box(&mut buf_b), 0);
            black_box(&buf_b);
        }),
        floor: 1.0,
    });
    kernels.push(Kernel {
        name: "xts_decrypt_blocks",
        items: XTS_BLOCKS as u64,
        scalar_ns: best_ns(trials, || {
            for (unit, block) in buf_a.chunks_exact_mut(16).enumerate() {
                cipher
                    .decrypt_unit(block, unit as u64)
                    .expect("whole block");
            }
            black_box(&buf_a);
        }),
        optimized_ns: best_ns(trials, || {
            cipher.decrypt_blocks(black_box(&mut buf_b), 0);
            black_box(&buf_b);
        }),
        floor: 4.0,
    });
    assert_eq!(
        buf_a, buf_b,
        "batched XTS diverged from the per-unit reference"
    );
    assert_eq!(buf_a, blocks, "decrypt did not invert encrypt");

    // ---- The dispatched XTS body against the 8-lane AES-NI body. ----
    // The reference is the portable body on hosts without AES-NI.
    let xts_body = cipher.body();
    let reference_body = if cipher.decrypt_blocks_on(XtsBody::AesNi, &mut [], 0) {
        XtsBody::AesNi
    } else {
        XtsBody::Portable
    };
    kernels.push(Kernel {
        name: "xts_decrypt_vaes",
        items: XTS_BLOCKS as u64,
        scalar_ns: best_ns(trials, || {
            cipher.decrypt_blocks_on(reference_body, black_box(&mut buf_a), 0);
            black_box(&buf_a);
        }),
        optimized_ns: best_ns(trials, || {
            cipher.decrypt_blocks(black_box(&mut buf_b), 0);
            black_box(&buf_b);
        }),
        floor: if xts_body == XtsBody::Vaes { 2.0 } else { 1.0 },
    });
    assert_eq!(
        buf_a,
        buf_b,
        "the {} body diverged from the {} body",
        xts_body.name(),
        reference_body.name()
    );

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

    // ---- Forward kernels: register-tiled GEMM, conv2d, max-pool. ----
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
    // conv2d: CIFAR-small's second layer (batch 8, 16×16×8 → 8);
    // conv2d_conv1: its first (16×16×3 → 8), where the reference's
    // im2col fill dominates.
    let spec = ConvSpec::new(3, 1, Padding::Same).expect("spec");
    for (name, c, floor) in [("conv2d", 8usize, 8.0), ("conv2d_conv1", 3, 4.0)] {
        let input = Tensor::from_vec(relu_f32(8 * 16 * 16 * c), &[8, 16, 16, c]).expect("shape");
        let filters =
            Tensor::from_vec(deterministic_f32(3 * 3 * c * 8), &[3, 3, c, 8]).expect("shape");
        assert_eq!(
            conv2d(&input, &filters, &spec).expect("conv"),
            tensor_scalar::conv2d(&input, &filters, &spec).expect("conv"),
            "{name} diverged from the reference"
        );
        kernels.push(Kernel {
            name,
            items: (8 * 16 * 16 * 8 * 3 * 3 * c) as u64,
            scalar_ns: best_ns(trials, || {
                black_box(tensor_scalar::conv2d(black_box(&input), &filters, &spec).expect("conv"));
            }),
            optimized_ns: best_ns(trials, || {
                black_box(conv2d(black_box(&input), &filters, &spec).expect("conv"));
            }),
            floor,
        });
    }

    // ---- 2×2 max-pool after CIFAR-small's second conv block. ----
    let pooled = Tensor::from_vec(relu_f32(8 * 16 * 16 * 8), &[8, 16, 16, 8]).expect("shape");
    let pool = PoolSpec::new(2, 2).expect("spec");
    assert_eq!(
        max_pool2d(&pooled, &pool).expect("pool"),
        tensor_scalar::max_pool2d(&pooled, &pool).expect("pool"),
        "max_pool2d diverged from the reference"
    );
    kernels.push(Kernel {
        name: "max_pool2d",
        items: pooled.numel() as u64,
        scalar_ns: best_ns(trials, || {
            black_box(tensor_scalar::max_pool2d(black_box(&pooled), &pool).expect("pool"));
        }),
        optimized_ns: best_ns(trials, || {
            black_box(max_pool2d(black_box(&pooled), &pool).expect("pool"));
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

    // ---- Heal of the last conv layer: fresh instance vs cached factors. ----
    // The fault is a 2×2 square of one (Z, Y) slice, which the CRC
    // cannot pin, so the heal propagates the checkpoints. Cold protects
    // a new instance per sample, so every heal factors dense 18's
    // W_augᵀ; warm reuses one instance whose factors a first heal
    // cached, so only the solves run.
    let golden = reduced_cifar_small(42).model;
    let mut faulty = golden.clone();
    let p = faulty.layers_mut()[CONV_LAST]
        .params_mut()
        .expect("conv has params");
    for w in SQUARE {
        p.data_mut()[w] = f32::from_bits(!p.data()[w].to_bits());
    }
    let protect = || Milr::protect(&golden, MilrConfig::default()).expect("golden protects");
    let warm = protect();
    let healed = |milr: &Milr| {
        let mut m = faulty.clone();
        milr.recover_layers(&mut m, &[CONV_LAST])
            .expect("heal runs");
        m.layers()[CONV_LAST]
            .params()
            .expect("conv has params")
            .clone()
    };
    assert_eq!(
        healed(&protect()),
        healed(&warm),
        "a warm heal diverged from a cold one"
    );
    kernels.push(Kernel {
        name: "heal_conv_last",
        items: 1,
        scalar_ns: best_heal_ns(trials, &faulty, CONV_LAST, protect),
        optimized_ns: best_heal_ns(trials, &faulty, CONV_LAST, || warm.clone()),
        floor: 5.0,
    });

    // ---- Re-protect of an unchanged model: full rebuild vs skip. ----
    // The re-anchor after a heal that restored the protected bits.
    // Scalar runs the initialization phase again; optimized reprotects
    // the same model on a warm instance, which compares the bits and
    // keeps the artifacts.
    let mut warm = protect();
    warm.reprotect(&golden).expect("golden reprotects");
    assert_eq!(
        warm.to_bytes(),
        protect().to_bytes(),
        "a skipped reprotect diverged from a fresh protect"
    );
    kernels.push(Kernel {
        name: "reprotect_unchanged",
        items: 1,
        scalar_ns: best_ns(trials, || {
            black_box(protect());
        }),
        optimized_ns: best_ns(trials, || {
            warm.reprotect(black_box(&golden))
                .expect("golden reprotects");
        }),
        floor: 10.0,
    });

    // ---- A live quarantine's heal: fresh decode vs the tick's. ----
    // The fault garbles only weights large enough to heal exactly, so
    // both arms must end on golden bits. Host, protection clone and
    // tick are built outside the timer.
    let target = (
        CONV2,
        exact_heal_target(&golden, SubstrateKind::XtsSecded, CONV2),
    );
    let protected = protect();
    let param_bits = |model: &Sequential| -> Vec<u32> {
        model
            .layers()
            .iter()
            .filter_map(|l| l.params())
            .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
            .collect()
    };
    let golden_bits = param_bits(&golden);
    let best_quarantine_ns = |from_tick: bool| {
        (0..trials)
            .map(|_| {
                let (ns, host) = quarantine_heal(&golden, &protected, target, from_tick);
                assert!(
                    param_bits(&host.materialize()) == golden_bits,
                    "heal_from_tick left a weight off golden"
                );
                ns
            })
            .min()
            .unwrap_or(u64::MAX)
    };
    kernels.push(Kernel {
        name: "heal_from_tick",
        items: 1,
        scalar_ns: best_quarantine_ns(false),
        optimized_ns: best_quarantine_ns(true),
        floor: 1.2,
    });

    // ---- Report. ----
    println!("# kernel_bench — optimized vs scalar raw-space and forward kernels");
    println!("trials: {trials} (best-of)");
    println!(
        "secded tier: {} (secded_scrub_decode_simd reference: {})",
        secded_tier.name(),
        reference_tier.name()
    );
    println!(
        "xts body: {} (xts_decrypt_vaes reference: {})",
        xts_body.name(),
        reference_body.name()
    );
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
        .string("secded_tier", secded_tier.name())
        .string("secded_reference_tier", reference_tier.name())
        .string("xts_body", xts_body.name())
        .string("xts_reference_body", reference_body.name())
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

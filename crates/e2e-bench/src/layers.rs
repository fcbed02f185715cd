//! Per-layer replays: each layer timed from outside through its public
//! functions, single-threaded, on the workload's model and substrate.
//! Every timed call is one benchmark span (see [`BenchSpans`]).

use crate::bench::Options;
use crate::spans::{fold_heal, median_ns, BenchSpans};
use crate::workload::{
    conv_slots, dense_slots, disk_flips, fault_targets, layers_of, param_bits, salt, Workload,
    CACHE_PAGES, CONV_SLOTS, DENSE_SLOTS, HEAL_SPANS, PAGE_WEIGHTS, STAGES,
};
use milr_core::{Milr, MilrConfig};
use milr_integrity::{
    Budget, DurabilityPolicy, EscalationPolicy, IntegrityPipeline, Journaled, ModelHost, Volatile,
};
use milr_nn::{Layer, Sequential};
use milr_obs::{SpanHandle, SpanRing};
use milr_store::{Store, StoreOptions};
use milr_substrate::SubstrateKind;
use milr_tensor::Tensor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Named per-layer values, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// Writes a fresh container of `model` at `path`, optionally with the
/// seeded [`disk_flips`] applied straight to the file.
pub fn make_container(
    model: &Sequential,
    kind: SubstrateKind,
    seed: u64,
    path: &Path,
    flips: bool,
) {
    let store = Store::create(
        path,
        model,
        MilrConfig::default(),
        StoreOptions {
            kind,
            page_weights: PAGE_WEIGHTS,
        },
    )
    .expect("writing a container into the work directory");
    if flips {
        for (layer, bit) in disk_flips(&store, seed) {
            store
                .flip_raw_bit(layer, bit)
                .expect("flipping a raw bit on disk");
        }
    }
}

/// Removes a container and its journal/shadow droppings.
fn remove_container(path: &Path) {
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(milr_store::journal_path(path));
    let _ = std::fs::remove_file(milr_store::shadow_path(path));
}

/// Scrub-cursor chunks of the checkable layers, as the server's
/// default `layers_per_tick` cuts them.
fn tick_chunks(milr: &Milr) -> Vec<Vec<usize>> {
    let per_tick = milr_serve::ServerConfig::default().layers_per_tick;
    milr.checkable_layers()
        .chunks(per_tick)
        .map(<[usize]>::to_vec)
        .collect()
}

/// Multiply-accumulates of one layer on a `(B, …)` input.
fn macs(layer: &Layer, input: &Tensor, output: &Tensor) -> u64 {
    match layer {
        Layer::Conv2D { filters, .. } => {
            let d = filters.shape().dims();
            (output.numel() * d[0] * d[1] * d[2]) as u64
        }
        Layer::Dense { weights } => (input.shape().dim(0) * weights.numel()) as u64,
        _ => 0,
    }
}

/// f32 bytes a layer reads and writes: input, parameters, output.
fn bytes(layer: &Layer, input: &Tensor, output: &Tensor) -> u64 {
    4 * (input.numel() + layer.param_count() + output.numel()) as u64
}

/// What the replays measured.
pub struct Replays {
    /// Per-layer values.
    pub metrics: Metrics,
    /// Every heal replay restored the golden parameter bits.
    pub exact: bool,
}

/// All per-layer replays of one workload. Each measurement times at
/// least `window / 50` of calls (20–400 ms); `work` is a scratch
/// directory.
pub fn replay(
    opts: &Options,
    model: &Sequential,
    milr: &Milr,
    pool: &[Tensor],
    work: &Path,
    spans: &mut BenchSpans,
) -> Replays {
    let (w, seed) = (opts.workload, opts.seed);
    let budget = (opts.window / 50).clamp(Duration::from_millis(20), Duration::from_millis(400));
    let mut out = Metrics::new();
    let kind = w.substrate;
    let host = ModelHost::new(model, &|c| kind.store(c));
    let chunks = tick_chunks(milr);
    let b1 = &pool[..1];
    let b8 = &pool[..8];

    // milr-integrity: the fused forward, hit and miss, and one tick.
    spans.open("replay.integrity", 0);
    for (name, batch) in [
        ("integrity.forward_hit_us.b1", b1),
        ("integrity.forward_hit_us.b8", b8),
    ] {
        let s = spans.measure(
            "ModelHost::forward_batch",
            batch.len() as u64,
            budget,
            || (),
            |()| host.forward_batch(batch).expect("pool matches the model"),
        );
        out.push((name.into(), median_ns(&s) / 1e3));
    }
    let s = spans.measure(
        "ModelHost::forward_batch.miss",
        1,
        budget,
        || host.invalidate_cache(),
        |()| host.forward_batch(b1).expect("pool matches the model"),
    );
    out.push(("integrity.forward_miss_us.b1".into(), median_ns(&s) / 1e3));
    let mut ticker = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default());
    let s = spans.measure(
        "IntegrityPipeline::tick.cycle",
        chunks.len() as u64,
        budget,
        || (),
        |()| {
            for chunk in &chunks {
                ticker
                    .tick(&host, milr, chunk, &mut Volatile)
                    .expect("clean host ticks");
            }
        },
    );
    out.push((
        "integrity.tick_us".into(),
        median_ns(&s) / 1e3 / chunks.len() as f64,
    ));
    spans.close();

    // The heal replay: a store-backed engine on the workload's
    // substrate, faults found by ticks and healed by `run`.
    spans.open("replay.heal", 0);
    let heal = heal_replay(w, model, milr, seed, work, spans);
    spans.close();
    out.push(("integrity.heal_run_ms".into(), heal.run_ms));
    for (stage, ms) in STAGES.iter().zip(heal.stage_ms) {
        out.push((format!("integrity.stage_ms_per_heal.{stage}"), ms));
    }

    // milr-core: protect, detect, recover per conv slot.
    spans.open("replay.core", 0);
    let s = spans.measure(
        "Milr::protect",
        0,
        budget,
        || (),
        |()| Milr::protect(model, MilrConfig::default()).expect("golden protects"),
    );
    out.push(("core.protect_ms".into(), median_ns(&s) / 1e6));
    let s = spans.measure("Milr::detect", 0, budget, || (), |()| milr.detect(model));
    out.push(("core.detect_full_ms".into(), median_ns(&s) / 1e6));
    let s = spans.measure(
        "Milr::detect_layers.cycle",
        chunks.len() as u64,
        budget,
        || (),
        |()| {
            for chunk in &chunks {
                milr.detect_layers(model, chunk).expect("checkable chunk");
            }
        },
    );
    out.push((
        "core.detect_chunk_us".into(),
        median_ns(&s) / 1e3 / chunks.len() as f64,
    ));
    let mut rng = crate::rng::SplitMix64::new(seed, salt::RECOVER);
    for (slot, layer) in CONV_SLOTS.iter().zip(conv_slots(model)) {
        let weight = rng.below(model.layers()[layer].param_count());
        let s = spans.measure(
            "Milr::recover_layers",
            layer as u64,
            budget,
            || {
                let mut bad = model.clone();
                let p = bad.layers_mut()[layer]
                    .params_mut()
                    .expect("conv has params");
                p.data_mut()[weight] = f32::from_bits(!p.data()[weight].to_bits());
                bad
            },
            |mut bad| {
                milr.recover_layers(&mut bad, &[layer])
                    .expect("recovery runs")
            },
        );
        out.push((format!("core.recover_ms.{slot}"), median_ns(&s) / 1e6));
    }
    spans.close();

    // milr-nn and milr-tensor at batch 8 on each layer's real input.
    spans.open("replay.nn", 0);
    let stacked = model.stack_batch(b8).expect("pool matches the model");
    let (mut flops, mut moved) = (0u64, 0u64);
    let mut x = stacked.clone();
    let mut inputs = Vec::with_capacity(model.len());
    for layer in model.layers() {
        let y = layer.forward(&x).expect("layer runs");
        flops += 2 * macs(layer, &x, &y);
        moved += bytes(layer, &x, &y);
        inputs.push(x);
        x = y;
    }
    let s = spans.measure(
        "Sequential::forward",
        8,
        budget,
        || (),
        |()| model.forward(&stacked).expect("pool matches the model"),
    );
    let ns = median_ns(&s);
    out.push(("nn.forward_us.b8".into(), ns / 1e3));
    out.push(("nn.forward_gflops.b8".into(), flops as f64 / ns));
    out.push(("nn.forward_bytes.b8".into(), moved as f64));
    spans.close();
    spans.open("replay.tensor", 0);
    let slots: Vec<(&str, &str, usize)> = CONV_SLOTS
        .iter()
        .zip(conv_slots(model))
        .map(|(s, l)| ("conv2d", *s, l))
        .chain(
            DENSE_SLOTS
                .iter()
                .zip(dense_slots(model))
                .map(|(s, l)| ("matmul", *s, l)),
        )
        .collect();
    for (op, slot, layer) in slots {
        let input = &inputs[layer];
        let l = &model.layers()[layer];
        let kernel = || -> Tensor {
            match l {
                Layer::Conv2D { filters, spec } => {
                    milr_tensor::conv2d(input, filters, spec).expect("conv geometry")
                }
                Layer::Dense { weights } => {
                    milr_tensor::matmul(input, weights).expect("dense geometry")
                }
                _ => unreachable!("slots name conv and dense layers"),
            }
        };
        let y = kernel();
        let name = if op == "conv2d" {
            "tensor::conv2d"
        } else {
            "tensor::matmul"
        };
        let s = spans.measure(name, layer as u64, budget, || (), |()| kernel());
        let ns = median_ns(&s);
        out.push((format!("tensor.{op}_us.{slot}"), ns / 1e3));
        out.push((
            format!("tensor.{op}_gflops.{slot}"),
            2.0 * macs(l, input, &y) as f64 / ns,
        ));
        out.push((
            format!("tensor.{op}_bytes.{slot}"),
            bytes(l, input, &y) as f64,
        ));
    }
    spans.close();

    // milr-substrate: decode and scrub every shard.
    spans.open("replay.substrate", 0);
    let s = spans.measure(
        "SharedSubstrate::read_weights",
        0,
        budget,
        || (),
        |()| host.store().read_weights(),
    );
    out.push(("substrate.decode_all_us".into(), median_ns(&s) / 1e3));
    let s = spans.measure(
        "SharedSubstrate::scrub",
        0,
        budget,
        || (),
        |()| host.store().scrub(),
    );
    out.push(("substrate.scrub_all_us".into(), median_ns(&s) / 1e3));
    spans.close();

    // milr-store: the store workload's container format on this model.
    spans.open("replay.store", 0);
    out.extend(store_replay(model, seed, budget, work, spans));
    spans.close();

    for (span, ns) in HEAL_SPANS.iter().zip(heal.span_ns) {
        out.push((
            format!("span.self_ms_per_heal.{span}"),
            ns as f64 / 1e6 / heal.heals as f64,
        ));
    }
    Replays {
        metrics: out,
        exact: heal.exact,
    }
}

struct HealReplay {
    heals: usize,
    run_ms: f64,
    stage_ms: [f64; 5],
    span_ns: [u64; 5],
    exact: bool,
}

/// Two seeded conv faults per conv layer against a store-backed host
/// of the workload's substrate: ticks (scrub + chunk detect) until the
/// fault is flagged, then `IntegrityPipeline::run` with journaled
/// durability — the server's scrubber loop, single-threaded.
fn heal_replay(
    w: &Workload,
    model: &Sequential,
    milr: &Milr,
    seed: u64,
    work: &Path,
    spans: &mut BenchSpans,
) -> HealReplay {
    let path = work.join("replay-heal.milr");
    make_container(model, w.substrate, seed, &path, false);
    let mut store = Store::open(&path).expect("opening a fresh container");
    let (host, mut protection, _) =
        milr_serve::cold_start(&mut store, CACHE_PAGES).expect("a clean container cold-starts");
    let ring = SpanHandle::new(Arc::new(SpanRing::new(1 << 16)));
    let origin = Instant::now();
    store.journal().set_spans(ring.clone(), origin);
    let now = move || origin.elapsed().as_nanos() as u64;
    let mut ticker =
        IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default()).with_wall_timing();
    ticker.attach_spans(ring.clone());
    let mut healer = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
        .with_wall_timing()
        .with_reprotect_gate();
    healer.attach_spans(ring.clone());
    let convs = layers_of(model, "Conv2D").len();
    let targets = fault_targets(model, w.substrate, seed, salt::REPLAY, 2 * convs);
    let chunks = tick_chunks(milr);
    let golden = param_bits(model);
    let mut run_ns = 0u64;
    let mut exact = true;
    let mut pos = 0;
    for &(layer, weight) in &targets {
        host.corrupt_weight(layer, weight);
        for _ in 0..2 * chunks.len() {
            ticker.set_now(now());
            let chunk = &chunks[pos % chunks.len()];
            pos += 1;
            let mut dur =
                Journaled::best_effort(&mut store).with_spans(ring.clone(), Box::new(now));
            let tick = ticker
                .tick(&host, &protection, chunk, &mut dur)
                .expect("ticks replay");
            if !tick.detection.is_clean() {
                break;
            }
        }
        pos = 0;
        healer.set_now(now());
        let mut dur = Journaled::best_effort(&mut store).with_spans(ring.clone(), Box::new(now));
        let ((), ns) = spans.time("IntegrityPipeline::run", layer as u64, || {
            healer
                .run(&host, &mut protection, &mut dur)
                .expect("the pipeline runs");
        });
        run_ns += ns;
        exact &= param_bits(&host.materialize()) == golden;
    }
    let heals = targets.len();
    let st = healer.report().stage_ns;
    let per = |ns: u64| ns as f64 / 1e6 / heals as f64;
    let result = HealReplay {
        heals,
        run_ms: run_ns as f64 / 1e6 / heals as f64,
        stage_ms: [
            per(st.detect),
            per(st.heal),
            per(st.verify),
            per(st.reprotect),
            per(st.anchor),
        ],
        span_ns: fold_heal(&ring.ring().trees()),
        exact,
    };
    drop(host);
    drop(store);
    remove_container(&path);
    result
}

/// Store operations on an XTS+SECDED container of `model` (the store
/// workload's format) carrying the seeded disk flips.
fn store_replay(
    model: &Sequential,
    seed: u64,
    budget: Duration,
    work: &Path,
    spans: &mut BenchSpans,
) -> Metrics {
    let pristine = work.join("replay-pristine.milr");
    let path = work.join("replay-store.milr");
    make_container(model, SubstrateKind::XtsSecded, seed, &pristine, true);
    let fresh = || {
        remove_container(&path);
        std::fs::copy(&pristine, &path).expect("copying the pristine container");
    };
    let mut out = Metrics::new();
    let s = spans.measure("Store::open", 0, budget, fresh, |()| {
        Store::open(&path).expect("opening the container")
    });
    out.push(("store.open_ms".into(), median_ns(&s) / 1e6));
    let s = spans.measure(
        "cold_start",
        0,
        budget,
        || {
            fresh();
            Store::open(&path).expect("opening the container")
        },
        |mut store| milr_serve::cold_start(&mut store, CACHE_PAGES).expect("flips heal"),
    );
    out.push(("store.cold_start_ms".into(), median_ns(&s) / 1e6));

    fresh();
    let mut store = Store::open(&path).expect("opening the container");
    let (host, protection, _) =
        milr_serve::cold_start(&mut store, CACHE_PAGES).expect("flips heal");
    let layer = conv_slots(model)[3];
    let s = spans.measure(
        "Journaled::flush",
        layer as u64,
        budget,
        || host.write_back(model, &[layer]),
        |()| {
            Journaled::best_effort(&mut store)
                .flush(&host)
                .expect("best-effort flush never errors")
        },
    );
    out.push(("store.flush_ms".into(), median_ns(&s) / 1e6));
    let live = host.materialize();
    let s = spans.measure(
        "Store::commit_reanchor",
        0,
        budget,
        || (),
        |()| {
            store
                .commit_reanchor(&protection, &live, host.store())
                .expect("re-anchoring into the work directory")
        },
    );
    out.push(("store.reanchor_ms".into(), median_ns(&s) / 1e6));
    drop(host);
    drop(store);
    remove_container(&path);
    remove_container(&pristine);
    out
}

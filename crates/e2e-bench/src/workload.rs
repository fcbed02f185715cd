//! The four workloads, their seeded inputs, and the metric names the
//! benchmark promises to emit (mirrored in the repository's
//! `BENCHMARK.json`; a test keeps the two in step).

use crate::rng::SplitMix64;
use milr_integrity::ModelHost;
use milr_nn::Sequential;
use milr_substrate::SubstrateKind;
use milr_tensor::Tensor;
use std::time::Duration;

/// Length of one sub-window of the measured window. Every per-window
/// metric is computed per sub-window and reported as the median over
/// them, which keeps a burst of co-tenant CPU noise in one sub-window
/// from moving the result; fault workloads place a whole number of
/// fault rounds (each conv layer equally often) in every sub-window,
/// so all sub-windows carry the same heal mix.
pub const SUB_WINDOW: Duration = Duration::from_secs(2);

/// Which reduced paper network a workload serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// `milr_models::reduced_mnist(42)`.
    Mnist,
    /// `milr_models::reduced_cifar_small(42)`.
    CifarSmall,
}

impl Net {
    /// The served model (fixed weights: the seed varies inputs and
    /// faults, never the network).
    pub fn model(self) -> Sequential {
        match self {
            Net::Mnist => milr_models::reduced_mnist(42).model,
            Net::CifarSmall => milr_models::reduced_cifar_small(42).model,
        }
    }
}

/// One traffic mix against the live server.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Served network.
    pub net: Net,
    /// Substrate backing the weights (the container's page encoding
    /// for store-backed workloads).
    pub substrate: SubstrateKind,
    /// Mean Poisson arrival rate, requests per second.
    pub rate_rps: f64,
    /// Whole-weight conv faults per sub-window (a multiple of the
    /// net's conv-layer count; 0 for clean workloads), evenly spaced.
    pub faults_per_sub: usize,
    /// Cold-started from a `.milr` container (heals journaled and
    /// re-anchored on disk) instead of `Server::start`.
    pub store: bool,
    /// Why the workload exists: the layers it stresses.
    pub why: &'static str,
}

impl Workload {
    /// True when no faults are injected: any mismatched or failed
    /// request is then a bug, and the run exits non-zero.
    pub fn is_clean(&self) -> bool {
        self.faults_per_sub == 0
    }
}

/// Weights per page of every container the benchmark writes.
pub const PAGE_WEIGHTS: usize = 1024;
/// Page-cache budget per layer substrate of store-backed servers.
pub const CACHE_PAGES: usize = 4;
/// Raw bits flipped on disk before each cold start.
pub const DISK_FLIPS: usize = 16;
/// Size of the seeded input pool.
pub const POOL: usize = 256;

/// Every workload, in reporting order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "mnist-plain-clean",
        net: Net::Mnist,
        substrate: SubstrateKind::Plain,
        rate_rps: 500.0,
        faults_per_sub: 0,
        store: false,
        why: "MNIST on Plain at 500 req/s, no faults: cheapest forward, nothing decoded or healed; latency is queueing plus the certification hold the scrub cadence sets",
    },
    Workload {
        name: "cifar-xts-clean",
        net: Net::CifarSmall,
        substrate: SubstrateKind::XtsSecded,
        rate_rps: 500.0,
        faults_per_sub: 0,
        store: false,
        why: "CIFAR-small on XTS+SECDED at 500 req/s, no faults: conv-heavy forward and a decode every scrub tick; forward kernels, detection and decode show here",
    },
    Workload {
        name: "cifar-xts-faults",
        net: Net::CifarSmall,
        substrate: SubstrateKind::XtsSecded,
        rate_rps: 200.0,
        faults_per_sub: 5,
        store: false,
        why: "CIFAR-small on XTS+SECDED at 200 req/s, a conv whole-weight fault every 400 ms: detect, recover_layers, verify, re-protect and Drain re-execution dominate",
    },
    Workload {
        name: "mnist-store-faults",
        net: Net::Mnist,
        substrate: SubstrateKind::XtsSecded,
        rate_rps: 250.0,
        faults_per_sub: 12,
        store: true,
        why: "MNIST cold-started from a disk-faulted XTS+SECDED container, 250 req/s, a conv fault every 167 ms: journal fsync and atomic re-anchor dominate heals",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Stream salts: one independent SplitMix64 stream per use of the seed.
pub(crate) mod salt {
    pub const INPUTS: u64 = 1;
    pub const ARRIVALS: u64 = 2;
    pub const FAULTS: u64 = 3;
    pub const DISK: u64 = 4;
    pub const REPLAY: u64 = 5;
    pub const RECOVER: u64 = 6;
}

/// Layer indices of the model's layers of one kind (`"Conv2D"`,
/// `"Dense"`), ascending.
pub fn layers_of(model: &Sequential, kind: &str) -> Vec<usize> {
    model
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.kind_name() == kind)
        .map(|(i, _)| i)
        .collect()
}

/// The seeded input pool: `POOL` images in the model's input shape,
/// pixels uniform in `[0, 1)`.
pub fn input_pool(model: &Sequential, seed: u64) -> Vec<Tensor> {
    let mut rng = SplitMix64::new(seed, salt::INPUTS);
    let dims = model.input_shape().to_vec();
    let len: usize = dims.iter().product();
    (0..POOL)
        .map(|_| {
            let data = (0..len).map(|_| rng.next_f64() as f32).collect();
            Tensor::from_vec(data, &dims).expect("pool image matches the input shape")
        })
        .collect()
}

/// Output bits of the fault-free model for each pool input, computed
/// one image at a time (per-image arithmetic does not depend on batch
/// composition, so these are what every certified output must equal).
pub fn golden_outputs(model: &Sequential, pool: &[Tensor]) -> Vec<Vec<u32>> {
    pool.iter()
        .map(|x| {
            let out = model
                .forward_batch(std::slice::from_ref(x))
                .expect("pool image matches the model");
            out[0].data().iter().map(|v| v.to_bits()).collect()
        })
        .collect()
}

/// Every parameter bit of a model, in layer order.
pub fn param_bits(model: &Sequential) -> Vec<u32> {
    model
        .layers()
        .iter()
        .filter_map(|l| l.params())
        .flat_map(|p| p.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Smallest golden magnitude a fault may garble. Recovery restores
/// smaller conv weights only approximately while reporting an exact
/// heal (finding b in the README); an exhaustive scan of both
/// networks' conv layers found every such weight below 0.0044, and
/// every fault garbling only weights at least this large healing to
/// golden bits on `Plain` and `XtsSecded`.
pub const MIN_TARGET_MAGNITUDE: f32 = 0.01;
/// Draws per target before the benchmark gives up: with at most a
/// third of any conv layer's XTS blocks holding a small weight, 64
/// misses in a row mean the model's weights changed, not bad luck.
const MAX_DRAWS: usize = 64;

/// Seeded whole-weight fault targets `(layer, weight)` on conv layers.
///
/// Layers come in seeded permutations of the conv layers, so every run
/// of `convs` consecutive faults hits each conv layer once whatever the
/// seed — heal cost differs by 100× between layers, and an
/// unstratified draw would move the fault workloads' medians with the
/// seed. A weight is redrawn when its fault garbles a weight below
/// [`MIN_TARGET_MAGNITUDE`] — the weight alone on `Plain`, its whole
/// 16-byte cipher block under XTS. The rule reads only the golden
/// weights and the substrate's blast radius, never a heal, so a heal
/// that goes wrong shows as mismatched outputs.
///
/// # Panics
///
/// Panics when [`MAX_DRAWS`] draws in a row find no eligible weight.
pub fn fault_targets(
    model: &Sequential,
    kind: SubstrateKind,
    seed: u64,
    salt: u64,
    count: usize,
) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed, salt);
    let convs = layers_of(model, "Conv2D");
    let host = ModelHost::new(model, &|c| kind.store(c));
    let mut order: Vec<usize> = Vec::new();
    let mut targets = Vec::with_capacity(count);
    while targets.len() < count {
        if order.is_empty() {
            order = convs.clone();
            rng.shuffle(&mut order);
        }
        let layer = order.pop().expect("refilled above");
        let golden = model.layers()[layer].params().expect("conv has params");
        let eligible = |weight: usize| {
            garbled(&host, golden.data(), layer, weight)
                .iter()
                .all(|&i| golden.data()[i].abs() >= MIN_TARGET_MAGNITUDE)
        };
        let weight = (0..MAX_DRAWS)
            .map(|_| rng.below(golden.numel()))
            .find(|&w| eligible(w))
            .unwrap_or_else(|| {
                panic!("no conv weight of layer {layer} eligible in {MAX_DRAWS} draws")
            });
        targets.push((layer, weight));
    }
    targets
}

/// Indices of the weights of `layer` that a whole-weight fault in
/// `weight` garbles on `host`. Flipping the same raw bits twice
/// restores them, so `host` is left as it was.
fn garbled(host: &ModelHost, golden: &[f32], layer: usize, weight: usize) -> Vec<usize> {
    host.corrupt_weight(layer, weight);
    let faulty = host.materialize_layers(&[layer]);
    host.corrupt_weight(layer, weight);
    let read = faulty.layers()[layer].params().expect("conv has params");
    read.data()
        .iter()
        .zip(golden)
        .enumerate()
        .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
        .map(|(i, _)| i)
        .collect()
}

/// Seeded raw-bit flips for a container: `(layer, bit)` pairs in
/// pairwise distinct raw words, so the substrate's own ECC corrects
/// every one (a scrub-on-load heal, journaled and re-anchored).
pub fn disk_flips(store: &milr_store::Store, seed: u64) -> Vec<(usize, usize)> {
    let mut rng = SplitMix64::new(seed, salt::DISK);
    let word_bits = store.kind().raw_geometry().word_bits;
    let layers: Vec<(usize, usize)> = store
        .layers()
        .iter()
        .map(|e| (e.layer, store.layer_raw_bits(e.layer)))
        .collect();
    let total: usize = layers.iter().map(|(_, bits)| bits).sum();
    let mut flips: Vec<(usize, usize)> = Vec::with_capacity(DISK_FLIPS);
    while flips.len() < DISK_FLIPS {
        let mut bit = rng.below(total);
        let &(layer, _) = layers
            .iter()
            .find(|(_, bits)| {
                let hit = bit < *bits;
                if !hit {
                    bit -= bits;
                }
                hit
            })
            .expect("bit is below the total");
        if !flips
            .iter()
            .any(|&(l, b)| l == layer && b / word_bits == bit / word_bits)
        {
            flips.push((layer, bit));
        }
    }
    flips
}

/// End-to-end metrics (untraced runs) as `(name, unit)`, in reporting
/// order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("goodput_rps", "1/s"),
    ("answered_ratio", "ratio"),
    ("bit_exact_ratio", "ratio"),
    ("availability", "ratio"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Conv layers named by ordinal: the first three exist in both
/// networks, `conv_last` is the deepest (layer 7 on MNIST, 14 on
/// CIFAR-small), so every workload reports the same names.
pub const CONV_SLOTS: [&str; 4] = ["conv1", "conv2", "conv3", "conv_last"];
/// Dense layers by ordinal (both networks have two).
pub const DENSE_SLOTS: [&str; 2] = ["dense1", "dense2"];

/// Layer index behind each [`CONV_SLOTS`] name.
pub fn conv_slots(model: &Sequential) -> [usize; 4] {
    let convs = layers_of(model, "Conv2D");
    [convs[0], convs[1], convs[2], convs[convs.len() - 1]]
}

/// Layer index behind each [`DENSE_SLOTS`] name.
pub fn dense_slots(model: &Sequential) -> [usize; 2] {
    let dense = layers_of(model, "Dense");
    [dense[0], dense[1]]
}

/// Per-layer metrics (traced runs), in reporting order.
pub fn per_layer_specs() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = [
        ("serve.submit_us_p50", "us"),
        ("serve.ledger_hold_ms_p50", "ms"),
        ("serve.batch_wait_ms_p99", "ms"),
        ("serve.batch_occupancy", "count"),
        ("serve.reexecuted_ratio", "ratio"),
        ("integrity.forward_hit_us.b1", "us"),
        ("integrity.forward_hit_us.b8", "us"),
        ("integrity.forward_miss_us.b1", "us"),
        ("integrity.tick_us", "us"),
        ("integrity.heal_run_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for stage in STAGES {
        out.push((format!("integrity.stage_ms_per_heal.{stage}"), "ms"));
    }
    out.push(("core.protect_ms".into(), "ms"));
    out.push(("core.detect_full_ms".into(), "ms"));
    out.push(("core.detect_chunk_us".into(), "us"));
    for slot in CONV_SLOTS {
        out.push((format!("core.recover_ms.{slot}"), "ms"));
    }
    out.push(("nn.forward_us.b8".into(), "us"));
    out.push(("nn.forward_gflops.b8".into(), "GFLOP/s"));
    out.push(("nn.forward_bytes.b8".into(), "bytes"));
    for (op, slots) in [("conv2d", &CONV_SLOTS[..]), ("matmul", &DENSE_SLOTS[..])] {
        for slot in slots {
            out.push((format!("tensor.{op}_us.{slot}"), "us"));
            out.push((format!("tensor.{op}_gflops.{slot}"), "GFLOP/s"));
            out.push((format!("tensor.{op}_bytes.{slot}"), "bytes"));
        }
    }
    for (n, u) in [
        ("substrate.decode_all_us", "us"),
        ("substrate.scrub_all_us", "us"),
        ("store.open_ms", "ms"),
        ("store.cold_start_ms", "ms"),
        ("store.flush_ms", "ms"),
        ("store.reanchor_ms", "ms"),
    ] {
        out.push((n.into(), u));
    }
    for span in REQ_SPANS {
        out.push((format!("span.self_ms_per_req.{span}"), "ms"));
    }
    for span in HEAL_SPANS {
        out.push((format!("span.self_ms_per_heal.{span}"), "ms"));
    }
    out.push(("trace.overhead_ratio".into(), "ratio"));
    out.push(("reconcile.gap_ratio".into(), "ratio"));
    out
}

/// Pipeline stages reported per heal (`StageNanos` fields).
pub const STAGES: [&str; 5] = ["detect", "heal", "verify", "reprotect", "anchor"];
/// Per-request span folds of the server's batch trees.
pub const REQ_SPANS: [&str; 3] = ["batch", "decode", "forward"];
/// Per-heal span folds of the engine and store trees.
pub const HEAL_SPANS: [&str; 5] = ["tick", "heal_round", "reanchor", "journal_commit", "fsync"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_targets_are_seeded_stratified_and_skip_small_weights() {
        let model = Net::Mnist.model();
        let convs = layers_of(&model, "Conv2D");
        for (kind, radius) in [(SubstrateKind::Plain, 1), (SubstrateKind::XtsSecded, 4)] {
            let count = 4 * convs.len();
            let targets = fault_targets(&model, kind, 5, salt::FAULTS, count);
            assert_eq!(targets, fault_targets(&model, kind, 5, salt::FAULTS, count));
            assert_ne!(targets, fault_targets(&model, kind, 6, salt::FAULTS, count));
            for round in targets.chunks(convs.len()) {
                let mut layers: Vec<usize> = round.iter().map(|&(l, _)| l).collect();
                layers.sort_unstable();
                assert_eq!(
                    layers, convs,
                    "{kind}: every round hits each conv layer once"
                );
            }
            let host = ModelHost::new(&model, &|c| kind.store(c));
            for &(layer, weight) in &targets {
                let golden = model.layers()[layer].params().expect("conv has params");
                let hit = garbled(&host, golden.data(), layer, weight);
                assert_eq!(
                    hit.len(),
                    radius,
                    "{kind}: blast radius of ({layer}, {weight})"
                );
                assert!(hit.contains(&weight));
                assert!(hit
                    .iter()
                    .all(|&i| golden.data()[i].abs() >= MIN_TARGET_MAGNITUDE));
            }
            assert_eq!(param_bits(&host.materialize()), param_bits(&model));
        }
    }
}

//! Persistence: save a protected CNN into a `.milr` container, corrupt
//! it **on disk** while nothing is running, and cold-start a second
//! "process" that scrubs on load, heals with MILR, durably re-anchors
//! protection, and serves outputs bit-identical to the fault-free
//! model.
//!
//! ```text
//! cargo run --release --example persistence
//! ```
//!
//! Three acts (mirrors `examples/serving.rs`):
//!
//! 1. **Build → protect → save**: the container carries the
//!    substrate-encoded weight pages plus the checksummed protection
//!    artifacts — the paper's "error-resistant storage" made real.
//! 2. **Disk faults + cold start**: raw-space bit flips land directly
//!    in the file; `Server::start_from_store` scrubs on load, heals,
//!    and commits before admitting traffic.
//! 3. **Restart**: a third open proves the heal was durable — the
//!    container is certified again without any recovery work.

use milr_core::MilrConfig;
use milr_models::reduced_mnist;
use milr_serve::{Server, ServerConfig};
use milr_store::{ContainerFootprint, Store, StoreOptions};
use milr_substrate::SubstrateKind;
use milr_tensor::TensorRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let golden = reduced_mnist(42).model;
    let path = std::env::temp_dir().join(format!("milr-example-{}.milr", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // ---- Act 1: build → protect → save --------------------------------
    let store = Store::create(
        &path,
        &golden,
        MilrConfig::default(),
        StoreOptions {
            kind: SubstrateKind::Secded,
            page_weights: 1024,
        },
    )?;
    let footprint = ContainerFootprint::measure(&store)?;
    println!(
        "[save] {} parameters -> {} ({} KB weights pages + {} KB error-resistant sections)",
        golden.param_count(),
        path.display(),
        footprint.weight_bytes / 1000,
        footprint.resistant_bytes / 1000,
    );
    println!(
        "[save] substrate {}, {} stored layers, storage report: MILR/backup = {:.3}",
        store.kind(),
        store.layers().len(),
        store.report().fraction_of_backup()
    );
    drop(store); // "process 1" exits

    // ---- Act 2: disk corruption, then cold-start serving --------------
    {
        let store = Store::open(&path)?;
        // A whole stored weight of conv layer 0 is wiped (every raw bit
        // of its SECDED code word flipped), plus one stray bit in conv
        // layer 4 — both directly in the file, as a dying disk would.
        let stride = store.layer_raw_bits(0) / store.layers()[0].weights;
        for bit in 29 * stride..30 * stride {
            store.flip_raw_bit(0, bit)?;
        }
        store.flip_raw_bit(4, 30)?;
        println!(
            "\n[fault] flipped {} raw bits on disk while no process ran",
            stride + 1
        );
    }

    let (server, cold) = Server::start_from_store(&path, 64, ServerConfig::default())?;
    println!(
        "[cold-start] scrub corrected {} word(s); MILR flagged layers {:?}; {} heal round(s); re-anchored: {}",
        cold.scrub.corrected, cold.flagged, cold.heal_rounds, cold.reanchored
    );
    let mut rng = TensorRng::new(99);
    let inputs: Vec<_> = (0..16).map(|_| rng.uniform_tensor(&[14, 14, 1])).collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| server.submit(x.clone()).expect("admission"))
        .collect();
    for (input, handle) in inputs.iter().zip(handles) {
        let out = handle.wait()?;
        let expect = &golden.forward_batch(std::slice::from_ref(input))?[0];
        assert_eq!(
            out.data(),
            expect.data(),
            "served output diverged from the fault-free model"
        );
    }
    let report = server.shutdown();
    println!(
        "[serve] {} / {} requests completed; every output bit-equal to the fault-free model",
        report.completed, report.submitted
    );

    // ---- Act 3: the heal outlived the process --------------------------
    let (server, cold) = Server::start_from_store(&path, 64, ServerConfig::default())?;
    assert!(
        cold.was_clean(),
        "the durable re-anchor must leave a certified container"
    );
    println!("\n[restart] container is certified clean — the heal was durable");
    drop(server.shutdown());
    let _ = std::fs::remove_file(&path);
    Ok(())
}

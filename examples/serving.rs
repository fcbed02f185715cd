//! Serving: run a CNN behind the `milr-serve` inference service while
//! faults land in the weight substrate — watch the scrubber daemon
//! detect, quarantine, recover, and keep every delivered output
//! faithful to the fault-free model.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Two acts:
//!
//! 1. **Deterministic simulation** (virtual clock): a seeded workload
//!    with background fault injection, reproducible bit-for-bit —
//!    the path the benchmarks and the end-to-end test use.
//! 2. **Live threaded server** (wall clock): a real scrubber thread
//!    that forwards each tick's queued requests and then checks the
//!    weights; we inject a fault mid-traffic and verify every certified
//!    response against the golden model.

use milr_core::MilrConfig;
use milr_models::reduced_mnist;
use milr_serve::sim::{simulate, SimConfig};
use milr_serve::{RequestStatus, Server, ServerConfig};
use milr_tensor::TensorRng;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let golden = reduced_mnist(42).model;
    println!(
        "model: reduced MNIST twin, {} parameters",
        golden.param_count()
    );

    // ---- Act 1: deterministic virtual-clock simulation ----------------
    let sim_cfg = SimConfig {
        seed: 7,
        requests: 150,
        faults: 2,
        ..SimConfig::default()
    };
    let result = simulate(&golden, MilrConfig::default(), &sim_cfg)?;
    let r = &result.report;
    println!(
        "\n[sim] {} requests, {} faults injected",
        r.submitted, r.faults_injected
    );
    println!(
        "[sim] {} completed, {} re-executed after flagged scrubs, {} quarantines",
        r.completed, r.reexecuted, r.quarantines
    );
    println!(
        "[sim] measured availability {:.6} ({:.1} ms downtime of {:.1} ms), p95 latency {:.1} us",
        r.availability,
        r.downtime_ns as f64 / 1e6,
        r.total_ns as f64 / 1e6,
        r.latency.p95_us
    );
    let mut verified = 0;
    for o in &result.outcomes {
        if let RequestStatus::Completed(out) = &o.status {
            let expect = &golden.forward_batch(std::slice::from_ref(&o.input))?[0];
            assert_eq!(out.data(), expect.data(), "output diverged from golden");
            verified += 1;
        }
    }
    println!("[sim] {verified} outputs verified bit-for-bit against the fault-free model");
    println!(
        "[sim] digest {:#x} — rerun to see the same number",
        r.digest
    );

    // ---- Act 2: live threaded server ----------------------------------
    let server = Server::start(
        &golden,
        MilrConfig::default(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )?;
    let mut rng = TensorRng::new(99);
    let inputs: Vec<_> = (0..24).map(|_| rng.uniform_tensor(&[14, 14, 1])).collect();
    let first: Vec<_> = inputs[..12]
        .iter()
        .map(|x| server.submit(x.clone()).expect("admission"))
        .collect();
    // A whole-weight fault lands in conv layer 0 mid-traffic.
    server.inject_weight_fault(0, 17);
    println!("\n[live] injected a whole-weight fault into conv layer 0");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.quarantines() == 0 || server.is_quarantined() {
        assert!(Instant::now() < deadline, "scrubber never healed the fault");
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("[live] scrubber quarantined and recovered; serving resumed");
    let second: Vec<_> = inputs[12..]
        .iter()
        .map(|x| server.submit(x.clone()).expect("admission"))
        .collect();
    for (input, handle) in inputs.iter().zip(first.into_iter().chain(second)) {
        let out = handle.wait()?;
        let expect = &golden.forward_batch(std::slice::from_ref(input))?[0];
        assert_eq!(
            out.data(),
            expect.data(),
            "live output diverged from golden"
        );
    }
    let report = server.shutdown();
    println!(
        "[live] {} completed / {} submitted, {} quarantine(s), availability {:.6}",
        report.completed, report.submitted, report.quarantines, report.availability
    );
    println!("[live] every delivered output matched the fault-free model bit-for-bit");
    Ok(())
}

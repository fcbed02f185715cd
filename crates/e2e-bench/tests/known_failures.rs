//! Known failures the end-to-end benchmark found. Each test asserts the
//! *correct* behaviour and is ignored because it fails today, exactly
//! as its finding describes; the change that fixes a finding
//! un-ignores its test. Run them with `cargo test -p milr-e2e-bench
//! --release --test known_failures -- --ignored`.

use milr_core::{Milr, MilrConfig};
use milr_e2e_bench::workload::{golden_outputs, input_pool, param_bits};
use milr_integrity::{Budget, EscalationPolicy, IntegrityPipeline, ModelHost, Volatile};
use milr_models::{reduced_cifar_small, reduced_mnist};
use milr_serve::{Server, ServerConfig};
use milr_substrate::SubstrateKind;
use std::sync::mpsc;
use std::time::Duration;

/// Finding (a): one whole-weight fault in bias layer 8 of reduced MNIST
/// livelocks the live server. Recovery reports success, detection
/// still flags the layer, and the scrubber re-quarantines every cycle,
/// so nothing submitted afterwards is ever certified.
#[test]
#[ignore = "finding (a): a bias-layer fault livelocks the server"]
fn bias_layer_fault_lets_later_requests_certify() {
    let golden = reduced_mnist(42).model;
    let pool = input_pool(&golden, 11);
    let expect = golden_outputs(&golden, &pool[..1]);
    let server = Server::start(
        &golden,
        MilrConfig::default(),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("golden protects");
    server.inject_weight_fault(8, 0);
    std::thread::sleep(Duration::from_millis(50));
    let handle = server.submit(pool[0].clone()).expect("admitted");
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let _ = tx.send(handle.wait());
    });
    let within = rx.recv_timeout(Duration::from_secs(5));
    // Shutdown resolves the request either way, ending the waiter.
    let report = server.shutdown();
    waiter.join().expect("waiter thread");
    let out = within
        .unwrap_or_else(|_| {
            panic!(
                "not certified within 5 s; {} quarantines",
                report.quarantines
            )
        })
        .expect("certified, not rejected");
    let bits: Vec<u32> = out.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits, expect[0]);
}

/// Finding (a), offline: `recover_layers` returns `Ok` for a
/// whole-weight fault in these bias layers, yet detection still flags
/// the layer — the loop the live server cannot leave.
#[test]
#[ignore = "finding (a): bias-layer recovery leaves the layer flagged"]
fn bias_layer_recovery_clears_detection() {
    let mut still_flagged = Vec::new();
    for (net, model, layers) in [
        ("mnist", reduced_mnist(42).model, [8usize, 12]),
        ("cifar-small", reduced_cifar_small(42).model, [15, 19]),
    ] {
        let milr = Milr::protect(&model, MilrConfig::default()).expect("golden protects");
        for layer in layers {
            let host = ModelHost::new(&model, &|c| SubstrateKind::Plain.store(c));
            host.corrupt_weight(layer, 0);
            let mut live = host.materialize();
            milr.recover_layers(&mut live, &[layer])
                .expect("recovery runs");
            let flagged = milr.detect(&live).expect("detection runs").flagged;
            if !flagged.is_empty() {
                still_flagged.push(format!("{net} bias layer {layer}: flagged {flagged:?}"));
            }
        }
    }
    assert!(still_flagged.is_empty(), "{still_flagged:#?}");
}

/// Finding (b): a conv fault the pipeline reports as one exact heal
/// with a clean verify leaves different weights behind. Under XTS the
/// fault garbles the whole 16-byte block holding weights 252..=255 of
/// layer 7, and weight 255 is one that recovery restores to other
/// bits; on `Plain` the same weight fails alone. The live server then
/// certifies wrong outputs (about a third of them under XTS).
#[test]
#[ignore = "finding (b): an exact-reported heal leaves non-golden weights"]
fn exact_heal_restores_golden_bits() {
    let golden = reduced_mnist(42).model;
    let milr = Milr::protect(&golden, MilrConfig::default()).expect("golden protects");
    let mut wrong = Vec::new();
    for (kind, weight) in [
        (SubstrateKind::Xts, 254),
        (SubstrateKind::XtsSecded, 254),
        (SubstrateKind::Plain, 255),
    ] {
        let host = ModelHost::new(&golden, &|c| kind.store(c));
        let mut protection = milr.clone();
        host.corrupt_weight(7, weight);
        let mut pipeline = IntegrityPipeline::new(EscalationPolicy::Quarantine, Budget::default())
            .with_reprotect_gate();
        pipeline
            .run(&host, &mut protection, &mut Volatile)
            .expect("the heal runs");
        let report = pipeline.report();
        assert_eq!((report.heals_exact, report.heals_approx), (1, 0), "{kind}");
        if param_bits(&host.materialize()) != param_bits(&golden) {
            wrong.push(format!(
                "{kind} weight {weight}: reported exact, weights differ"
            ));
        }
    }
    assert!(wrong.is_empty(), "{wrong:#?}");
}

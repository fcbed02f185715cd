//! Live-server load driver: the real multi-threaded [`Server`] under a
//! wall-clock fault campaign, measured for sustained throughput.
//!
//! Where [`crate::serve`] runs the deterministic virtual-clock twin,
//! this module actually spins up the worker pool and scrubber daemon,
//! pushes a seeded workload through it while a campaign thread keeps
//! injecting weight faults, and reports end-to-end QPS.

use milr_core::MilrConfig;
use milr_nn::Sequential;
use milr_serve::{ServeError, ServeReport, Server, ServerConfig};
use milr_substrate::SubstrateKind;
use milr_tensor::{Tensor, TensorRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One live load run's knobs.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Requests pushed through the server.
    pub requests: usize,
    /// Input-generation seed (shared across compared runs).
    pub seed: u64,
    /// Worker pool size.
    pub workers: usize,
    /// Maximum requests coalesced into one batch.
    pub batch_max: usize,
    /// Continuous-batching admission deadline (`ZERO` = legacy
    /// immediate dispatch).
    pub batch_wait: Duration,
    /// Scrubber cadence.
    pub scrub_interval: Duration,
    /// Substrate kind backing the weight shards. The encrypted kinds
    /// make the legacy path's per-batch whole-model decode visible.
    pub substrate: SubstrateKind,
    /// Fault-campaign cadence; `None` disables injection.
    pub fault_every: Option<Duration>,
    /// Campaign injection cap; `None` keeps injecting until the
    /// workload drains. A cap guarantees a fault-free tail, so every
    /// request eventually certifies even when a scrub cycle is slower
    /// than the fault cadence (debug builds, starved boxes).
    pub max_faults: Option<usize>,
    /// Optional structured trace sink handed to the server. Live
    /// events stamp wall time since server start.
    pub trace: Option<milr_obs::TraceHandle>,
    /// Optional span sink handed to the server (batch, engine, and
    /// journal trees stamped with wall time since server start).
    pub spans: Option<milr_obs::SpanHandle>,
    /// Optional live-introspection bind address forwarded to
    /// [`ServerConfig::http_addr`]; the bound address is printed so a
    /// probe can curl `/metrics`, `/health`, `/slo`, and `/spans`
    /// while the campaign runs.
    pub http_addr: Option<String>,
    /// How long to keep the server (and its introspection listener)
    /// up after the workload drains. A release-mode fused run can
    /// finish in tens of milliseconds — too narrow a window for an
    /// external probe — so CI smoke runs hold the served endpoints
    /// open briefly. Ignored when no listener is bound; does not
    /// affect the measured elapsed time or QPS.
    pub http_hold: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            requests: 200,
            seed: 0x11FE,
            workers: 2,
            batch_max: 8,
            batch_wait: Duration::ZERO,
            scrub_interval: Duration::from_millis(2),
            substrate: SubstrateKind::XtsSecded,
            fault_every: Some(Duration::from_millis(40)),
            max_faults: None,
            trace: None,
            spans: None,
            http_addr: None,
            http_hold: Duration::ZERO,
        }
    }
}

/// What one live run measured.
#[derive(Debug, Clone)]
pub struct LiveOutcome {
    /// The server's own shutdown report.
    pub report: ServeReport,
    /// Wall time from first submission to last certified response.
    pub elapsed: Duration,
    /// Sustained completed-requests-per-second over `elapsed`.
    pub qps: f64,
    /// Weight faults the campaign injected.
    pub faults_injected: usize,
    /// The server's metrics snapshot, taken just before shutdown.
    pub metrics: milr_obs::MetricsSnapshot,
}

impl LiveOutcome {
    /// Renders the outcome as a JSON object embedding the full report.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"qps\":{:.3},\"elapsed_s\":{:.6},\"faults_injected\":{},\"report\":{}}}",
            self.qps,
            self.elapsed.as_secs_f64(),
            self.faults_injected,
            self.report.to_json()
        )
    }
}

/// Runs the live server once. The submitter retries on queue-full
/// backpressure, so every request eventually resolves; the campaign
/// thread keeps flipping one weight of the first parameterized layer
/// until the workload drains.
///
/// # Errors
///
/// Propagates server start-up failures (MILR protection, the
/// introspection bind).
///
/// # Panics
///
/// Panics when `model` has no parameterized layer to inject into while
/// a campaign cadence is configured.
pub fn run_live(
    model: &Sequential,
    milr_config: MilrConfig,
    cfg: &LiveConfig,
) -> Result<LiveOutcome, milr_store::StoreError> {
    let server = Server::start(
        model,
        milr_config,
        ServerConfig {
            workers: cfg.workers,
            batch_max: cfg.batch_max,
            batch_wait: cfg.batch_wait,
            scrub_interval: cfg.scrub_interval,
            substrate: cfg.substrate,
            trace: cfg.trace.clone(),
            spans: cfg.spans.clone(),
            http_addr: cfg.http_addr.clone(),
            ..ServerConfig::default()
        },
    )?;
    if let Some(addr) = server.http_addr() {
        println!("live introspection: http://{addr}");
    }
    let (fault_layer, fault_weights) = model
        .layers()
        .iter()
        .enumerate()
        .find_map(|(i, l)| l.params().map(|p| (i, p.numel())))
        .expect("model has a parameterized layer");

    let mut rng = TensorRng::new(cfg.seed);
    let inputs: Vec<Tensor> = (0..cfg.requests)
        .map(|_| rng.uniform_tensor(model.input_shape()))
        .collect();

    let done = AtomicBool::new(false);
    let start = Instant::now();
    let (completed, faults, elapsed) = std::thread::scope(|s| {
        let campaign = cfg.fault_every.map(|every| {
            let server = &server;
            let done = &done;
            let cap = cfg.max_faults.unwrap_or(usize::MAX);
            s.spawn(move || {
                let mut injected = 0usize;
                let mut weight = 0usize;
                while injected < cap && !done.load(Ordering::Acquire) {
                    std::thread::sleep(every);
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    server.inject_weight_fault(fault_layer, weight % fault_weights);
                    weight = weight.wrapping_add(97);
                    injected += 1;
                }
                injected
            })
        });
        let mut handles = Vec::with_capacity(inputs.len());
        for input in &inputs {
            loop {
                match server.submit(input.clone()) {
                    Ok(h) => {
                        handles.push(h);
                        break;
                    }
                    // Backpressure (queue full) or reject-policy
                    // shedding: retry until admitted.
                    Err(ServeError::Rejected(_)) => std::thread::sleep(Duration::from_micros(200)),
                    Err(ServeError::Stopped) => unreachable!("server is still running"),
                }
            }
        }
        let mut completed = 0usize;
        for h in handles {
            completed += usize::from(h.wait().is_ok());
        }
        let elapsed = start.elapsed();
        done.store(true, Ordering::Release);
        let faults = campaign.map(|c| c.join().expect("campaign panicked"));
        (completed, faults.unwrap_or(0), elapsed)
    });
    if server.http_addr().is_some() && !cfg.http_hold.is_zero() {
        std::thread::sleep(cfg.http_hold);
    }
    let metrics = server.metrics_snapshot();
    let report = server.shutdown();
    Ok(LiveOutcome {
        qps: completed as f64 / elapsed.as_secs_f64().max(f64::MIN_POSITIVE),
        elapsed,
        faults_injected: faults,
        report,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use milr_nn::Layer;
    use milr_tensor::{ConvSpec, Padding};

    fn model() -> Sequential {
        let mut rng = TensorRng::new(31);
        let mut m = Sequential::new(vec![8, 8, 1]);
        let spec = ConvSpec::new(3, 1, Padding::Valid).unwrap();
        m.push(Layer::conv2d_random(3, 1, 4, spec, &mut rng).unwrap())
            .unwrap();
        m.push(Layer::bias_zero(4)).unwrap();
        m.push(Layer::Flatten).unwrap();
        m.push(Layer::dense_random(6 * 6 * 4, 5, &mut rng).unwrap())
            .unwrap();
        m
    }

    #[test]
    fn live_run_completes_the_workload() {
        let m = model();
        let cfg = LiveConfig {
            requests: 24,
            scrub_interval: Duration::from_millis(1),
            substrate: SubstrateKind::Secded,
            fault_every: Some(Duration::from_millis(10)),
            // Bounded campaign: without a cap, a debug-mode scrub cycle
            // can outlast the 10 ms fault gap and no request ever
            // certifies (livelock).
            max_faults: Some(2),
            ..LiveConfig::default()
        };
        let out = run_live(&m, MilrConfig::default(), &cfg).unwrap();
        assert_eq!(out.report.completed, 24, "lost requests");
        assert!(out.qps > 0.0);
        let json = out.to_json();
        assert!(json.starts_with("{\"qps\":"));
        assert!(json.contains("\"report\":{\"seed\":"));
    }
}

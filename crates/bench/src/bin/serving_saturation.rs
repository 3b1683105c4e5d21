//! `serving_saturation` — the admission-control ablation: offered-load
//! sweep against the TF-Serving analog in its two I/O shapes.
//!
//! * `thread_per_connection_batch1` — the paper-original blocking server:
//!   one thread per connection, every request scored alone. No admission
//!   control, so nothing is ever shed; overload shows up as latency.
//! * `reactor_batch16` — the readiness-driven reactor feeding the
//!   `crayfish-admission` continuous-batching queue (`max_batch` 16):
//!   requests from all connections stack into cross-connection batches,
//!   and a full queue sheds with a typed `Overloaded { retry_after }`.
//!
//! Load is closed-loop: `C` concurrent client connections, each issuing
//! the paper's FFNN (28×28 → 3×32 ReLU → 10) as fast as the server
//! answers. Sweeping `C` walks the latency/throughput curve past the knee
//! where p99 crosses the SLO; *goodput* counts only within-SLO responses.
//! A shed request (`Overloaded`) is not an error and not goodput — the
//! client honours `retry_after` and tries again; any other failure counts
//! as a drop, and the bench asserts there are none.
//!
//! The raw FFNN applies in microseconds on this hardware, which would put
//! the experiment in the wrong regime (the host saturates on protocol CPU
//! long before the scoring replicas do). Real external servers spend
//! milliseconds per invocation — the repo's own calibration puts
//! TF-Serving at ~2.25 ms per single-record request — so each deployed
//! replica wraps the real FFNN executor in a [`TimedModel`] that spends a
//! modelled `PER_CALL + rows × PER_ROW` service time (via [`Cost::spend`],
//! i.e. off-CPU, like every foreign-runtime cost in this repo) while the
//! replica is held. That is exactly the structure continuous batching
//! exploits: the per-invocation fixed cost is paid once per *batch*
//! instead of once per *request*.
//!
//! ```sh
//! cargo run --release -p crayfish-bench --bin serving_saturation            # full
//! cargo run --release -p crayfish-bench --bin serving_saturation -- --quick # CI
//! ```
//!
//! Writes `bench_results/serving_saturation.json` (in both modes — CI
//! archives the quick run as an artifact) and prints the table. Timing
//! goes through `crayfish_sim::Stopwatch` (the repo's clock authority).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use crayfish_admission::AdmissionMetrics;
use crayfish_models::ffnn;
use crayfish_obs::ObsHandle;
use crayfish_runtime::{EmbeddedRuntime, LoadedModel, OnnxRuntime};
use crayfish_serving::{
    AdmissionConfig, GrpcClient, IoModel, ModelRegistry, ScoringClient, ServingConfig, ServingError,
};
use crayfish_sim::{Cost, NetworkModel, Stopwatch};
use crayfish_tensor::Tensor;

/// Latency SLO the goodput and the knee are defined against.
const SLO_MS: f64 = 25.0;
/// Scoring replicas for both server shapes (model pool size / dispatcher
/// workers).
const REPLICAS: usize = 2;
/// Batch cap for the reactor mode.
const MAX_BATCH: usize = 16;
/// Modelled fixed cost of one scoring invocation (session dispatch, op
/// scheduling, server-side stack) and marginal cost per batched row.
/// `2 ms + 1 × 250 µs` reproduces the repo's calibrated ~2.25 ms
/// TF-Serving single-record latency.
const PER_CALL_US: f64 = 2_000.0;
const PER_ROW_US: f64 = 250.0;
/// Bounded admission queue for the reactor mode — small enough that the
/// top of the sweep actually sheds, demonstrating the backpressure path.
const QUEUE_CAPACITY: usize = 48;

const SWEEP: &[usize] = &[1, 2, 4, 8, 16, 32, 64, 128];
const QUICK_SWEEP: &[usize] = &[2, 8];

/// The real FFNN executor behind a modelled service time: `apply` spends
/// `PER_CALL + rows × PER_ROW` while the caller holds the pool replica,
/// then scores for real. `Cost`'s per-byte term is reinterpreted as
/// per-row (the affine shape is identical).
struct TimedModel {
    inner: Box<dyn LoadedModel>,
    service: Cost,
}

impl LoadedModel for TimedModel {
    fn runtime_name(&self) -> &'static str {
        "timed-onnx"
    }

    fn apply(&mut self, input: &Tensor) -> crayfish_runtime::Result<Tensor> {
        let rows = input.shape().dims().first().copied().unwrap_or(1);
        self.service.spend(rows);
        self.inner.apply(input)
    }
}

struct Mode {
    name: &'static str,
    io: IoModel,
    admission: AdmissionConfig,
}

#[derive(Debug)]
struct Point {
    clients: usize,
    secs: f64,
    ok: u64,
    within_slo: u64,
    shed: u64,
    errors: u64,
    p50_ms: f64,
    p99_ms: f64,
    mean_batch: f64,
}

impl Point {
    fn throughput_rps(&self) -> f64 {
        self.ok as f64 / self.secs
    }
    fn goodput_rps(&self) -> f64 {
        self.within_slo as f64 / self.secs
    }
}

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * q).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

/// Drive one (mode, client-count) point against a fresh server.
fn run_point(mode: &Mode, clients: usize, window: Duration) -> Point {
    let obs = ObsHandle::enabled();
    let registry = ModelRegistry::new(ServingConfig {
        replicas: REPLICAS,
        io: mode.io,
        admission: mode.admission,
        obs: obs.clone(),
        ..Default::default()
    });
    let graph = ffnn::build(1);
    let loader = OnnxRuntime::new();
    let service = Cost::new(PER_CALL_US * 1e3, PER_ROW_US * 1e3);
    registry
        .deploy_with("ffnn", move || {
            let inner = loader.load_graph(&graph, crayfish_runtime::Device::Cpu)?;
            Ok(Box::new(TimedModel { inner, service }) as Box<dyn LoadedModel>)
        })
        .expect("deploy timed FFNN");
    let server = crayfish_serving::tf_serving::start_with_registry(registry).expect("start server");
    let addr = server.addr();

    let mut handles = Vec::new();
    for t in 0..clients {
        handles.push(std::thread::spawn(move || {
            let mut latencies_ms: Vec<f64> = Vec::new();
            let mut shed = 0u64;
            let mut errors = 0u64;
            let mut client = match GrpcClient::connect(addr, NetworkModel::zero()) {
                Ok(c) => c,
                Err(_) => return (latencies_ms, shed, 1u64),
            };
            let input = Tensor::seeded_uniform([1, 28, 28], t as u64 + 1, 0.0, 1.0);
            // Warm up the connection and the server's caches off the record.
            for _ in 0..3 {
                let _ = client.infer(&input);
            }
            let window_sw = Stopwatch::start();
            while window_sw.elapsed() < window {
                let sw = Stopwatch::start();
                match client.infer(&input) {
                    Ok(_) => latencies_ms.push(sw.elapsed_millis()),
                    Err(ServingError::Overloaded { retry_after }) => {
                        shed += 1;
                        std::thread::sleep(retry_after.min(Duration::from_millis(10)));
                    }
                    Err(_) => {
                        errors += 1;
                        break;
                    }
                }
            }
            (latencies_ms, shed, errors)
        }));
    }
    let run_sw = Stopwatch::start();
    let mut all_ms: Vec<f64> = Vec::new();
    let (mut shed, mut errors) = (0u64, 0u64);
    for h in handles {
        let (ms, s, e) = h.join().expect("client thread");
        all_ms.extend(ms);
        shed += s;
        errors += e;
    }
    let secs = run_sw.elapsed().as_secs_f64().max(1e-9);
    server.shutdown();

    let sizes = AdmissionMetrics::new(&obs).batch_size_snapshot();
    let mean_batch = if sizes.count() > 0 {
        sizes.sum() as f64 / sizes.count() as f64
    } else {
        1.0
    };
    all_ms.sort_by(|a, b| a.total_cmp(b));
    let within_slo = all_ms.iter().filter(|&&ms| ms <= SLO_MS).count() as u64;
    Point {
        clients,
        secs,
        ok: all_ms.len() as u64,
        within_slo,
        shed,
        errors,
        p50_ms: percentile(&all_ms, 0.50),
        p99_ms: percentile(&all_ms, 0.99),
        mean_batch,
    }
}

/// The knee: the sweep point with the highest goodput whose p99 still
/// meets the SLO; if every point violates it, the lowest-load point.
fn knee(points: &[Point]) -> &Point {
    points
        .iter()
        .filter(|p| p.p99_ms <= SLO_MS)
        .max_by(|a, b| a.goodput_rps().total_cmp(&b.goodput_rps()))
        .unwrap_or(&points[0])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick {
        Duration::from_millis(300)
    } else {
        Duration::from_millis(1500)
    };
    let sweep = if quick { QUICK_SWEEP } else { SWEEP };
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = crayfish_bench::cpu_model();

    let modes = [
        Mode {
            name: "thread_per_connection_batch1",
            io: IoModel::ThreadPerConnection,
            admission: AdmissionConfig::batch1(),
        },
        Mode {
            name: "reactor_batch16",
            io: IoModel::Reactor,
            admission: AdmissionConfig {
                max_batch: MAX_BATCH,
                max_wait: Duration::from_micros(500),
                queue_capacity: QUEUE_CAPACITY,
            },
        },
    ];

    let mut results: Vec<(&'static str, Vec<Point>)> = Vec::new();
    for mode in &modes {
        println!("{} (replicas {REPLICAS}, SLO {SLO_MS} ms):", mode.name);
        let mut points = Vec::new();
        for &clients in sweep {
            let p = run_point(mode, clients, window);
            println!(
                "  C={:<3} {:>8.0} rps  goodput {:>8.0} rps  p50 {:>7.2} ms  p99 {:>7.2} ms  \
                 shed {:>6}  errors {}  batch {:.1}",
                p.clients,
                p.throughput_rps(),
                p.goodput_rps(),
                p.p50_ms,
                p.p99_ms,
                p.shed,
                p.errors,
                p.mean_batch
            );
            assert_eq!(p.errors, 0, "non-shed requests dropped at C={clients}");
            points.push(p);
        }
        results.push((mode.name, points));
    }

    let baseline = knee(&results[0].1);
    let batched = knee(&results[1].1);
    let ratio = batched.goodput_rps() / baseline.goodput_rps().max(1e-9);
    println!(
        "knee goodput: {} {:.0} rps (C={}) vs {} {:.0} rps (C={}) — ratio {:.2}x",
        results[0].0,
        baseline.goodput_rps(),
        baseline.clients,
        results[1].0,
        batched.goodput_rps(),
        batched.clients,
        ratio
    );

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"serving_saturation\",\n  \"quick\": {quick},\n  \"slo_ms\": {SLO_MS},\n  \"replicas\": {REPLICAS},\n  \"max_batch\": {MAX_BATCH},\n  \"queue_capacity\": {QUEUE_CAPACITY},\n  \"service_per_call_us\": {PER_CALL_US},\n  \"service_per_row_us\": {PER_ROW_US},\n  \"host\": {{\n    \"cpu\": {cpu:?},\n    \"threads_available\": {threads_available},\n    \"note\": \"closed-loop sweep; goodput counts within-SLO responses only; shed requests answered with Overloaded+retry_after are neither goodput nor errors; each replica pays a modelled per_call + rows*per_row service time while held\"\n  }},"
    );
    json.push_str("  \"modes\": [\n");
    for (i, (name, points)) in results.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\n      \"mode\": \"{name}\",\n      \"points\": ["
        );
        for (j, p) in points.iter().enumerate() {
            let comma = if j + 1 == points.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "        {{ \"clients\": {}, \"throughput_rps\": {:.1}, \"goodput_rps\": {:.1}, \
                 \"p50_ms\": {:.3}, \"p99_ms\": {:.3}, \"ok\": {}, \"shed\": {}, \"errors\": {}, \
                 \"mean_batch\": {:.2} }}{comma}",
                p.clients,
                p.throughput_rps(),
                p.goodput_rps(),
                p.p50_ms,
                p.p99_ms,
                p.ok,
                p.shed,
                p.errors,
                p.mean_batch
            );
        }
        json.push_str("      ]\n");
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"summary\": {{\n    \"baseline_knee\": {{ \"clients\": {}, \"goodput_rps\": {:.1}, \"p99_ms\": {:.3} }},\n    \"batched_knee\": {{ \"clients\": {}, \"goodput_rps\": {:.1}, \"p99_ms\": {:.3} }},\n    \"goodput_ratio\": {:.3}\n  }}",
        baseline.clients,
        baseline.goodput_rps(),
        baseline.p99_ms,
        batched.clients,
        batched.goodput_rps(),
        batched.p99_ms,
        ratio
    );
    json.push_str("}\n");

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let path = dir.join("serving_saturation.json");
    std::fs::create_dir_all(&dir).expect("create bench_results/");
    std::fs::write(&path, json).expect("write serving_saturation.json");
    println!("wrote {}", path.display());
}

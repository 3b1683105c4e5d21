//! Shared machinery for the Crayfish benchmark harness.
//!
//! Every table and figure of the paper's evaluation (§5–§6) has a
//! `harness = false` bench target in this crate that regenerates it. The
//! helpers here provide:
//!
//! * the **profile** — `CRAYFISH_BENCH_PROFILE=quick` (default) runs each
//!   configuration for a few seconds; `paper` stretches windows toward the
//!   paper's per-experiment budgets. `CRAYFISH_BENCH_SECS=<f64>` scales all
//!   windows directly.
//! * experiment-spec builders matching the paper's parameterisation
//!   (Table 1);
//! * a results-table printer that places the paper's reported value next to
//!   the measured one;
//! * JSON dumps of every run under `bench_results/` for EXPERIMENTS.md.

#![forbid(unsafe_code)]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use serde::Serialize;

use crayfish::framework::{ExperimentResult, ExperimentSpec, ServingChoice};
use crayfish::prelude::*;
use crayfish_tensor::NnGraph;

/// Execution profile for the harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Profile {
    /// Short windows: the whole suite finishes in tens of minutes.
    Quick,
    /// Longer windows approaching the paper's measurement budgets.
    Paper,
}

/// The active profile from `CRAYFISH_BENCH_PROFILE`.
pub fn profile() -> Profile {
    match std::env::var("CRAYFISH_BENCH_PROFILE").as_deref() {
        Ok("paper") => Profile::Paper,
        _ => Profile::Quick,
    }
}

/// Global window scale from `CRAYFISH_BENCH_SECS` (1.0 = profile default).
fn window_scale() -> f64 {
    std::env::var("CRAYFISH_BENCH_SECS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|v| *v > 0.0)
        .unwrap_or(1.0)
}

/// Measurement window for FFNN-scale experiments.
pub fn ffnn_window() -> Duration {
    let base = match profile() {
        Profile::Quick => 5.0,
        Profile::Paper => 60.0,
    };
    Duration::from_secs_f64(base * window_scale())
}

/// Measurement window for ResNet50-scale experiments (inference is ~0.7 s
/// per image on the evaluation host, so windows must admit enough events).
pub fn resnet_window() -> Duration {
    let base = match profile() {
        Profile::Quick => 30.0,
        Profile::Paper => 180.0,
    };
    Duration::from_secs_f64(base * window_scale())
}

/// The parallelism sweep for FFNN scaling figures.
pub fn mp_sweep() -> Vec<usize> {
    vec![1, 2, 4, 8, 16]
}

/// The reduced parallelism sweep for ResNet-scale scaling figures.
pub fn mp_sweep_resnet() -> Vec<usize> {
    match profile() {
        Profile::Quick => vec![1, 4],
        Profile::Paper => vec![1, 2, 4, 8, 16],
    }
}

/// [`resnet_window`] with a floor: ResNet events take seconds each on this
/// host, so scaled-down windows must still admit a handful of events.
pub fn resnet_window_at_least(min_secs: u64) -> Duration {
    resnet_window().max(Duration::from_secs(min_secs))
}

/// An offered load far above any configuration's capacity, used to measure
/// sustainable throughput in the open-loop scenario (the paper offers up to
/// 30 k events/s).
pub const OVERLOAD_FFNN: f64 = 30_000.0;
/// Paper's offered rate for ResNet50 throughput experiments.
pub const OVERLOAD_RESNET: f64 = 256.0;

/// One cached ResNet50 (building it materialises ~25 M weights).
pub fn resnet_graph() -> Arc<NnGraph> {
    static G: OnceLock<Arc<NnGraph>> = OnceLock::new();
    G.get_or_init(|| Arc::new(ModelSpec::Resnet50.build(42)))
        .clone()
}

/// Base spec with the paper's structural defaults (32 partitions, 25 %
/// warmup discard, calibrated LAN).
pub fn base_spec(model: ModelSpec, serving: ServingChoice) -> ExperimentSpec {
    let mut spec = ExperimentSpec::quick(model, serving);
    spec.partitions = 32;
    spec.warmup_fraction = 0.25;
    spec.network = NetworkModel::lan_1gbps();
    spec.duration = ffnn_window();
    spec
}

/// All five serving tools of Table 4, in the paper's column order.
pub fn ffnn_tools() -> Vec<(&'static str, ServingChoice)> {
    vec![
        (
            "dl4j (e)",
            ServingChoice::Embedded {
                lib: EmbeddedLib::Dl4j,
                device: Device::Cpu,
            },
        ),
        (
            "onnx (e)",
            ServingChoice::Embedded {
                lib: EmbeddedLib::Onnx,
                device: Device::Cpu,
            },
        ),
        (
            "saved_model (e)",
            ServingChoice::Embedded {
                lib: EmbeddedLib::SavedModel,
                device: Device::Cpu,
            },
        ),
        (
            "torchserve (x)",
            ServingChoice::External {
                kind: ExternalKind::TorchServe,
                device: Device::Cpu,
            },
        ),
        (
            "tf-serving (x)",
            ServingChoice::External {
                kind: ExternalKind::TfServing,
                device: Device::Cpu,
            },
        ),
    ]
}

/// The ResNet50 serving tools of Table 4 / Fig. 7.
pub fn resnet_tools() -> Vec<(&'static str, ServingChoice)> {
    vec![
        (
            "onnx (e)",
            ServingChoice::Embedded {
                lib: EmbeddedLib::Onnx,
                device: Device::Cpu,
            },
        ),
        (
            "torchserve (x)",
            ServingChoice::External {
                kind: ExternalKind::TorchServe,
                device: Device::Cpu,
            },
        ),
        (
            "tf-serving (x)",
            ServingChoice::External {
                kind: ExternalKind::TfServing,
                device: Device::Cpu,
            },
        ),
    ]
}

/// Run one experiment, logging progress to stderr.
pub fn run(
    label: &str,
    processor: &dyn crayfish::framework::DataProcessor,
    spec: &ExperimentSpec,
) -> ExperimentResult {
    eprintln!(
        "  running {label} [{} | {} | bsz={} mp={} {:?}] ...",
        processor.name(),
        spec.serving.label(),
        spec.bsz,
        spec.mp,
        spec.duration
    );
    let result = if spec.model == ModelSpec::Resnet50 {
        crayfish::framework::runner::run_experiment_with_graph(processor, spec, resnet_graph())
    } else {
        run_experiment(processor, spec)
    }
    .unwrap_or_else(|e| panic!("{label}: {e}"));
    eprintln!(
        "    -> {:.1} events/s, p50 {:.1} ms, mean {:.1} ms ({} samples)",
        result.throughput_eps, result.latency.p50, result.latency.mean, result.latency.count
    );
    result
}

/// A printable comparison table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Render to stdout.
    pub fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let line = |cells: &[String]| {
            let mut out = String::new();
            for (i, cell) in cells.iter().enumerate() {
                let width = widths.get(i).copied().unwrap_or(8);
                out.push_str(&format!("{cell:<width$}  "));
            }
            println!("{}", out.trim_end());
        };
        line(&self.headers);
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            line(row);
        }
    }
}

/// Serializable record of one measured configuration.
#[derive(Debug, Serialize)]
pub struct Measurement {
    /// Configuration label.
    pub config: String,
    /// Post-warmup throughput (events/s).
    pub throughput_eps: f64,
    /// Latency summary (ms).
    pub latency: crayfish::framework::metrics::Summary,
    /// Events produced.
    pub produced: u64,
    /// Events scored.
    pub consumed: usize,
}

impl Measurement {
    /// Build from an experiment result.
    pub fn of(config: impl Into<String>, r: &ExperimentResult) -> Measurement {
        Measurement {
            config: config.into(),
            throughput_eps: r.throughput_eps,
            latency: r.latency,
            produced: r.produced,
            consumed: r.consumed,
        }
    }
}

/// Persist a bench's measurements to `<repo root>/bench_results/<name>.json`.
pub fn save_json<T: Serialize>(name: &str, value: &T) {
    // Anchor at the workspace root regardless of the invoking directory.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let dir = dir.as_path();
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let path = dir.join(format!("{name}.json"));
    if let Ok(json) = serde_json::to_string_pretty(value) {
        let _ = std::fs::write(&path, json);
        eprintln!("  saved {}", path.display());
    }
}

/// The checked-out git revision, read straight from `.git` (no `git`
/// subprocess): `HEAD` either holds a hash or points at a ref file.
pub fn git_revision() -> String {
    let find_git = || {
        let mut dir = std::env::current_dir().ok()?;
        loop {
            let git = dir.join(".git");
            if git.is_dir() {
                return Some(git);
            }
            if !dir.pop() {
                return None;
            }
        }
    };
    let Some(git) = find_git() else {
        return "unknown".into();
    };
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        if let Ok(hash) = std::fs::read_to_string(git.join(refname)) {
            return hash.trim().to_string();
        }
        // Packed refs: scan for the ref name.
        if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
            for line in packed.lines() {
                if let Some(hash) = line.strip_suffix(refname) {
                    return hash.trim().to_string();
                }
            }
        }
        return "unknown".into();
    }
    head.to_string()
}

/// `rustc -V`, or "unknown" when the toolchain is not on PATH.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The CPU's model name from `/proc/cpuinfo`, or "unknown".
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Format a throughput cell.
pub fn eps(v: f64) -> String {
    format!("{v:.1}")
}

/// Format a latency cell as `mean ± std`.
pub fn ms_pm(summary: &crayfish::framework::metrics::Summary) -> String {
    format!("{:.1} ± {:.1}", summary.mean, summary.std)
}

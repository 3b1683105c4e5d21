//! What a run prints: the one-line result the driver reads, the
//! human-readable table, and the host the numbers were taken on.

use std::collections::BTreeMap;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::run::Outcome;
use crate::workloads::Workload;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Value {
    pub value: f64,
    pub unit: String,
}

/// The last line of standard output: exactly these four keys.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultLine {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Value>,
}

impl ResultLine {
    pub fn from_outcome(outcome: &Outcome) -> ResultLine {
        ResultLine {
            correct: outcome.correct(),
            attempted: outcome.tally.attempted.max(1),
            failed: outcome.tally.failed(),
            metrics: outcome
                .metrics
                .iter()
                .map(|m| {
                    let value = Value {
                        // JSON has no NaN; a layer that could not be read
                        // (no /proc, say) reports 0.
                        value: if m.value.is_finite() { m.value } else { 0.0 },
                        unit: m.unit.to_string(),
                    };
                    (m.name.to_string(), value)
                })
                .collect(),
        }
    }
}

/// Where the numbers were taken: a result without this is not comparable
/// with anything.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Processors this process may run on (one, once pinned).
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_revision: String,
    pub crayfish_threads: String,
    pub rustflags: String,
    /// What the workspace's registry dependencies were built from, as
    /// `run.sh` says: `registry` (the published crates) or `stubs` (the
    /// stand-ins under `stubs/`). Numbers do not compare across the two.
    pub deps: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn read() -> Host {
        let unknown = || "unknown".to_string();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(unknown);
        Host {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            git_revision: command_line("git", &["rev-parse", "--short", "HEAD"])
                .unwrap_or_else(unknown),
            crayfish_threads: std::env::var("CRAYFISH_THREADS").unwrap_or_else(|_| "unset".into()),
            // The flags in force come from .cargo/config.toml unless the
            // environment overrides them; only the override is visible here.
            rustflags: std::env::var("RUSTFLAGS")
                .unwrap_or_else(|_| "(from .cargo/config.toml)".into()),
            deps: std::env::var("PERF_DEPS").unwrap_or_else(|_| unknown()),
        }
    }
}

/// The table for people: every metric by name with its unit, the
/// attempted / succeeded / failed counts, and the run's remarks.
pub fn print_human(workload: &Workload, outcome: &Outcome) {
    println!("== {} — {}", workload.name, workload.why);
    for m in &outcome.metrics {
        println!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    let t = outcome.tally;
    println!(
        "  attempted {} succeeded {} failed {} (lost {} duplicated {} wrong {} late {}); golden: {:?}{}",
        t.attempted,
        t.attempted.saturating_sub(t.failed()),
        t.failed(),
        t.lost,
        t.duplicated,
        t.wrong,
        t.late,
        outcome.golden,
        if outcome.disturbed { "; DISTURBED" } else { "" }
    );
    for note in &outcome.notes {
        println!("  note: {note}");
    }
}

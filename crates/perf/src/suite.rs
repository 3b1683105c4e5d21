//! Running the whole suite: every workload in a fresh child process of this
//! binary, and the noise calibration built on that.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use serde::{Deserialize, Serialize};

use crate::report::{Host, ResultLine};
use crate::stats::{max_deviation, quartile_spread, quartiles};
use crate::workloads::WORKLOADS;
use crate::Result;

/// One child run: the result line and everything it printed before it.
pub struct ChildRun {
    pub result: ResultLine,
    pub disturbed: bool,
    pub printed: String,
}

/// Run one workload alone in a fresh process and parse its last line.
pub fn run_child(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
) -> Result<ChildRun> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output()?;
    let printed = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )
        .into());
    }
    let last = printed.lines().last().ok_or("child printed nothing")?;
    Ok(ChildRun {
        result: serde_json::from_str(last)?,
        disturbed: printed.contains("DISTURBED"),
        printed,
    })
}

/// An end-to-end run, repeated once if the host's speed moved under it.
fn run_quiet(workload: &str, seed: u64, seconds: u64, quick: bool) -> Result<ChildRun> {
    let first = run_child(workload, seed, seconds, false, quick)?;
    if !first.disturbed {
        return Ok(first);
    }
    eprintln!("{workload}: host disturbed during the run, running it once more");
    run_child(workload, seed, seconds, false, quick)
}

/// Every workload, end to end and traced, printed for people. True when
/// every run was correct.
pub fn run_all(seed: u64, seconds: u64, quick: bool) -> Result<bool> {
    println!("host: {}", serde_json::to_string(&Host::read())?);
    let mut all_correct = true;
    for w in &WORKLOADS {
        let e2e = run_quiet(w.name, seed, seconds, quick)?;
        let traced = run_child(w.name, seed, seconds, true, quick)?;
        print!("{}{}", e2e.printed, traced.printed);
        all_correct &= e2e.result.correct && traced.result.correct;
    }
    Ok(all_correct)
}

/// Run-to-run behaviour of one metric on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Noise {
    pub unit: String,
    pub values: Vec<f64>,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// `(q3 - q1) / median`, the spread the acceptance check computes.
    pub quartile_spread: f64,
    /// Largest distance of any run from the median, as a share of it.
    pub max_deviation: f64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseFile {
    pub host: Host,
    pub runs: usize,
    pub seconds: u64,
    pub failed_events: u64,
    /// workload → metric → noise.
    pub workloads: BTreeMap<String, BTreeMap<String, Noise>>,
}

/// Run the suite end to end `runs` times, each run on another seed, and
/// write how far every metric moved between them to `out`.
pub fn calibrate(runs: usize, seconds: u64, out: &Path) -> Result<NoiseFile> {
    let mut values: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>> = BTreeMap::new();
    let mut failed_events = 0;
    for run in 0..runs {
        for w in &WORKLOADS {
            let child = run_quiet(w.name, 42 + run as u64, seconds, false)?;
            failed_events += child.result.failed;
            let shown = if child.result.failed > 0 || !child.result.correct {
                child.printed.as_str()
            } else {
                child.printed.lines().last().unwrap_or("")
            };
            eprintln!("calibrate {}/{runs} {}: {shown}", run + 1, w.name);
            let per_metric = values.entry(w.name.to_string()).or_default();
            for (name, v) in child.result.metrics {
                per_metric
                    .entry(name)
                    .or_insert_with(|| (v.unit.clone(), Vec::new()))
                    .1
                    .push(v.value);
            }
        }
    }
    let workloads = values
        .into_iter()
        .map(|(w, metrics)| {
            let noise = metrics
                .into_iter()
                .map(|(name, (unit, values))| {
                    let (q1, median, q3) =
                        quartiles(&values).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
                    let noise = Noise {
                        unit,
                        q1,
                        median,
                        q3,
                        quartile_spread: quartile_spread(&values),
                        max_deviation: max_deviation(&values),
                        values,
                    };
                    (name, noise)
                })
                .collect();
            (w, noise)
        })
        .collect();
    let file = NoiseFile {
        host: Host::read(),
        runs,
        seconds,
        failed_events,
        workloads,
    };
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(out, serde_json::to_string_pretty(&file)? + "\n")?;
    Ok(file)
}

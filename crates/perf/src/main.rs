//! `perf_suite` — the repository's benchmark.
//!
//! Drives the real record trip (producer → broker append → fetch → decode →
//! inference or serving RPC → encode → append) in the native profile, fixed
//! work per run, one workload per process, and reports four end-to-end
//! metrics or — in a separate traced run — what each layer contributes to
//! them. See `README.md` beside this crate.
//!
//! ```text
//! perf_suite --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! perf_suite --all [--seed N] [--seconds S] [--quick]
//! perf_suite --calibrate RUNS [--seconds S]
//! perf_suite --write-golden
//! ```

#![forbid(unsafe_code)]

mod load;
mod phases;
mod quiet;
mod report;
mod rig;
mod run;
mod stats;
mod suite;
mod trace;
mod verify;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use crayfish::sim::now_millis_f64;

use crate::workloads::{Scale, REFERENCE_SECONDS, WORKLOADS};

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Where the noise calibration is committed, relative to the repository.
const NOISE_FILE: &str = "crates/perf/noise/seed.json";
const GOLDEN_FILE: &str = "crates/perf/golden/seed42.json";

enum Mode {
    One { workload: String, trace: bool },
    All,
    Calibrate { runs: usize },
    WriteGolden,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: u64,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perf_suite --workload <{}> --seed N --seconds S --trace 0|1 [--quick]\n       \
         perf_suite --all [--seed N] [--seconds S] [--quick]\n       \
         perf_suite --calibrate RUNS [--seconds S]\n       \
         perf_suite --write-golden",
        names.join("|")
    )
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args> {
    let mut workload = None;
    let mut trace = false;
    let mut all = false;
    let mut calibrate = None;
    let mut write_golden = false;
    let mut args = Args {
        mode: Mode::All,
        seed: 42,
        seconds: REFERENCE_SECONDS,
        quick: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => trace = value()?.parse::<u8>()? != 0,
            "--calibrate" => calibrate = Some(value()?.parse()?),
            "--quick" => args.quick = true,
            "--all" => all = true,
            "--write-golden" => write_golden = true,
            other => return Err(format!("unknown argument {other}\n{}", usage()).into()),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    args.mode = match (workload, calibrate, write_golden, all) {
        (Some(workload), None, false, false) => Mode::One { workload, trace },
        (None, Some(runs), false, false) => Mode::Calibrate { runs },
        (None, None, true, false) => Mode::WriteGolden,
        (None, None, false, true) => Mode::All,
        _ => return Err(usage().into()),
    };
    Ok(args)
}

/// Traces land beside the build: `$CARGO_TARGET_DIR/perf`, else `target/perf`.
fn trace_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("perf")
}

fn run(args: Args, process_start_ms: f64) -> Result<bool> {
    let scale = Scale::new(args.seconds, args.quick);
    match args.mode {
        Mode::One { workload, trace } => {
            let w = workloads::by_name(&workload)
                .ok_or_else(|| format!("unknown workload {workload}\n{}", usage()))?;
            let outcome = if trace {
                run::run_traced(w, args.seed, scale, process_start_ms, &trace_dir())?
            } else {
                let budget = (!args.quick).then(|| Duration::from_secs(args.seconds));
                run::run_end_to_end(w, args.seed, scale, process_start_ms, budget)?
            };
            println!("host: {}", serde_json::to_string(&report::Host::read())?);
            report::print_human(w, &outcome);
            println!(
                "{}",
                serde_json::to_string(&report::ResultLine::from_outcome(&outcome))?
            );
            // An incorrect run still prints its result; the result says so.
            Ok(true)
        }
        Mode::All => suite::run_all(args.seed, args.seconds, args.quick),
        Mode::Calibrate { runs } => {
            let file = suite::calibrate(runs, args.seconds, NOISE_FILE.as_ref())?;
            println!(
                "wrote {NOISE_FILE}: {runs} runs, {} failed events",
                file.failed_events
            );
            Ok(file.failed_events == 0)
        }
        Mode::WriteGolden => {
            // One workload a line: the arg-max lists are long and flat.
            let lines = verify::golden_for_all()?
                .iter()
                .map(|(name, golden)| {
                    Ok(format!(
                        "  {}: {}",
                        serde_json::to_string(name)?,
                        serde_json::to_string(golden)?
                    ))
                })
                .collect::<Result<Vec<String>>>()?;
            std::fs::write(GOLDEN_FILE, format!("{{\n{}\n}}\n", lines.join(",\n")))?;
            println!("wrote {GOLDEN_FILE}");
            Ok(true)
        }
    }
}

/// The processors this process may run on (`Cpus_allowed_list`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("");
    list.trim()
        .split(',')
        .filter_map(|range| {
            let (lo, hi) = range.split_once('-').unwrap_or((range, range));
            Some(lo.trim().parse::<usize>().ok()?..=hi.trim().parse::<usize>().ok()?)
        })
        .flatten()
        .collect()
}

/// Run this same command again confined to one processor (the last one it
/// is allowed) through `taskset` and return its exit code; `None` when it
/// is confined already. The broker node child inherits the confinement.
///
/// Left alone, the guest scheduler sometimes stacks the engine, its sender
/// thread and the generator on one virtual processor and sometimes spreads
/// them over two; the spread costs a cross-processor wake-up per hand-off
/// (−17 % capacity, +40 % median latency when the benchmark was written)
/// and which one a run gets is luck. On one processor every hand-off is a
/// local context switch, every run the same.
///
/// There is no unconfined fallback: numbers taken on two processors do not
/// compare with numbers taken on one.
fn rerun_confined() -> Result<Option<ExitCode>> {
    let cpus = allowed_cpus();
    let Some(cpu) = cpus.last() else {
        return Err(
            "cannot read the processors this process may run on from /proc/self/status".into(),
        );
    };
    if cpus.len() == 1 {
        return Ok(None);
    }
    let status = std::process::Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(std::env::current_exe()?)
        .args(std::env::args_os().skip(1))
        .status()
        .map_err(|e| format!("cannot confine the run to one processor with taskset: {e}"))?;
    // 126/127: taskset could not start the benchmark.
    match status.code() {
        Some(code @ 0..=125) => Ok(Some(ExitCode::from(code as u8))),
        other => Err(format!("the confined run ended abnormally ({other:?})").into()),
    }
}

fn main() -> ExitCode {
    match rerun_confined() {
        Ok(Some(code)) => return code,
        Ok(None) => {}
        Err(e) => {
            eprintln!("perf_suite: {e}");
            return ExitCode::from(2);
        }
    }
    let process_start_ms = now_millis_f64();
    // One compute thread: the engine thread is the unit under test, and a
    // GEMM pool beside it would put a third runnable thread on two cores.
    // Set before the first kernel call reads it.
    if std::env::var_os("CRAYFISH_THREADS").is_none() {
        std::env::set_var("CRAYFISH_THREADS", "1");
    }
    let outcome = parse_args(std::env::args().skip(1)).and_then(|args| run(args, process_start_ms));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perf_suite: {e}");
            ExitCode::from(2)
        }
    }
}

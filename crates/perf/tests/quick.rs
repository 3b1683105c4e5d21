//! Smoke test: `perf_suite --quick` (every count divided by 20, one
//! repetition of everything, no waiting for a quiet host, no latency limit)
//! emits, for every workload, every metric `BENCHMARK.json` names — once,
//! finite, with its unit — and scores every event right. Nothing in it
//! depends on how fast the host or the build is.

use std::path::Path;
use std::process::Command;

use serde_json::Value;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn names_and_units(spec: &Value, key: &str) -> Vec<(String, String)> {
    spec[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["unit"].as_str().expect("metric unit").to_string(),
            )
        })
        .collect()
}

fn run_quick(workload: &str, trace: bool) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_perf_suite"))
        .args([
            "--workload",
            workload,
            "--seed",
            "42",
            "--seconds",
            "16",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("CRAYFISH_THREADS", "1")
        .output()
        .expect("perf_suite runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).unwrap_or_else(|e| panic!("result line {last:?}: {e}"))
}

#[test]
fn quick_suite_emits_every_declared_metric() {
    let spec = benchmark_json();
    let node_beside = Path::new(env!("CARGO_BIN_EXE_perf_suite"))
        .with_file_name(format!("crayfish-node{}", std::env::consts::EXE_SUFFIX))
        .is_file();
    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(workloads.len(), 4);

    for workload in workloads {
        if workload == "ffnn_b1_tcpbroker"
            && !node_beside
            && std::env::var_os("CRAYFISH_NODE_BIN").is_none()
        {
            eprintln!("skipping {workload}: crayfish-node is not built beside perf_suite (cargo build -p crayfish --bin crayfish-node)");
            continue;
        }
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run_quick(workload, trace);
            let keys: Vec<&String> = result.as_object().expect("an object").keys().collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{workload}"
            );
            assert_eq!(result["correct"].as_bool(), Some(true), "{workload} {key}");
            assert_eq!(result["failed"].as_u64(), Some(0), "{workload} {key}");
            assert!(result["attempted"].as_u64().expect("attempted") >= 1);

            let emitted = result["metrics"].as_object().expect("metrics object");
            let declared = names_and_units(&spec, key);
            // A JSON object cannot hold a name twice, so equal counts mean
            // every declared metric exactly once and nothing else.
            assert_eq!(
                emitted.len(),
                declared.len(),
                "{workload} {key}: {emitted:?}"
            );
            for (name, unit) in declared {
                let m = emitted
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload}: {name} not emitted"));
                let value = m["value"]
                    .as_f64()
                    .unwrap_or_else(|| panic!("{workload}: {name} has no number"));
                assert!(value.is_finite(), "{workload}: {name} = {value}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                }
                assert_eq!(
                    m["unit"].as_str(),
                    Some(unit.as_str()),
                    "{workload}: {name}"
                );
            }
        }
    }
}

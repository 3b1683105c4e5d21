//! `resnet_layers` — where a ResNet50 forward pass goes, step by step.
//!
//! Runs the fused executor's compiled plan with the per-step hook
//! (`FusedExec::run_with`) and prints, for every step, its kind, GEMM shape
//! `(m, k, n)` or extents, FLOPs, in-situ time (median over the passes, so
//! each layer is timed with the caches in the state the previous layer left
//! them), GFLOP/s and computed bytes moved (weights + activations + packing
//! scratch). Beside every convolution sits the bare `gemm_prepacked_a` rate
//! at the same `(m, k, n)`: the blocked GEMM with `B` handed over as a
//! finished row-major matrix, i.e. what the layer would cost if unfolding
//! the image, the bias, the residual and the ReLU were free. Totals by kind
//! and the headline ratio — `score GFLOP/s ÷ FLOP-weighted bare-GEMM
//! GFLOP/s` — follow; ROADMAP item 7 tracks that ratio.
//!
//! The full run adds the same layers compiled at f16 and int8 (calibration
//! gate open, so every layer runs at the requested precision).
//!
//! ```sh
//! taskset -c 0 cargo run --release -p crayfish-bench --bin resnet_layers            # full
//! taskset -c 0 cargo run --release -p crayfish-bench --bin resnet_layers -- --quick # CI
//! ```
//!
//! One compute thread (`CRAYFISH_THREADS=1` unless set), and pin it: the
//! table compares kernels, and a migrating thread loses its L2 between
//! layers. Writes `bench_results/resnet_layers.json` (`--quick`:
//! `resnet_layers_quick.json`, never the committed run). Timing goes
//! through `crayfish_sim::Stopwatch` (the repo's clock authority).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;

use serde::Serialize;

use crayfish_bench::{cpu_model, git_revision, resnet_graph, rustc_version, save_json};
use crayfish_runtime::exec::{FusedExec, StepInfo};
use crayfish_runtime::{Precision, QuantConfig};
use crayfish_sim::Stopwatch;
use crayfish_tensor::kernels::gemm::gemm_prepacked_a;
use crayfish_tensor::kernels::microkernel::NR;
use crayfish_tensor::{GemmScratch, PackedA, Tensor};

#[derive(Serialize)]
struct Host {
    cpu: String,
    threads_available: usize,
    crayfish_threads: String,
    git_revision: String,
    rustc: String,
    note: &'static str,
}

#[derive(Serialize)]
struct Row {
    step: usize,
    name: String,
    /// `conv1x1s1`, `conv1x1s2`, `conv3x3s1`, `conv3x3s2`, `conv7x7`,
    /// `pool`, `add`, `dense` or `other`.
    kind: String,
    /// `(m, k, n)` of the GEMM behind a conv or dense step.
    mkn: Option<(usize, usize, usize)>,
    /// Per-item input → output extents.
    extents: String,
    /// Fused into the step: `+res` (a folded `Add`), `+relu`.
    fused: String,
    flops: u64,
    /// Median over the passes.
    us: f64,
    /// Fastest pass: how far a noisy neighbour pushed the median.
    us_min: f64,
    gflops: f64,
    bytes: u64,
    /// The bare blocked GEMM at `mkn`, convolutions only.
    gemm_us: Option<f64>,
    gemm_gflops: Option<f64>,
    /// The same step on the f16 / int8 arms (full run only).
    f16_us: Option<f64>,
    int8_us: Option<f64>,
}

#[derive(Serialize)]
struct KindTotal {
    kind: String,
    steps: usize,
    flops: u64,
    us: f64,
    gflops: f64,
    bytes: u64,
    gemm_us: Option<f64>,
}

#[derive(Serialize)]
struct Report {
    bench: &'static str,
    quick: bool,
    host: Host,
    passes: usize,
    /// Median of un-hooked `run` calls.
    forward_us: f64,
    /// Sum of the per-step medians (the hook's own cost is the difference).
    steps_us: f64,
    score_gflops: f64,
    /// Σ conv FLOPs ÷ Σ bare-GEMM time at the conv shapes.
    bare_gemm_gflops: f64,
    ratio_to_bare_gemm: f64,
    totals: Vec<KindTotal>,
    rows: Vec<Row>,
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Per-step times (µs) of one hooked forward pass.
fn lap_pass(exec: &mut FusedExec, input: &Tensor, laps: &mut [f64]) {
    let sw = Stopwatch::start();
    let mut last = 0.0f64;
    exec.run_with(input, |i| {
        let now = sw.elapsed().as_secs_f64() * 1e6;
        laps[i] = now - last;
        last = now;
    })
    .expect("forward pass");
}

/// Per-step `(median, min)` times over `passes` hooked passes (after two
/// warm-ups).
fn step_times(exec: &mut FusedExec, input: &Tensor, passes: usize) -> Vec<(f64, f64)> {
    let steps = exec.step_count();
    let mut laps = vec![0.0f64; steps];
    let mut samples = vec![Vec::with_capacity(passes); steps];
    for pass in 0..passes + 2 {
        lap_pass(exec, input, &mut laps);
        if pass >= 2 {
            for (s, &l) in samples.iter_mut().zip(&laps) {
                s.push(l);
            }
        }
    }
    samples.iter_mut().map(|s| (median(s), s[0])).collect()
}

/// The kind label, GEMM shape, FLOPs and computed bytes moved of one step.
fn describe(info: &StepInfo) -> (String, Option<(usize, usize, usize)>, u64, u64) {
    let out = info.out_shape.numel();
    let inputs: usize = info.in_shapes.iter().map(|s| s.numel()).sum();
    // Every step reads its inputs and weights and writes its output once.
    let io = 4 * (inputs + out + info.weight_elems) as u64;
    match (info.kind, &info.conv) {
        ("conv", Some((p, _))) => {
            let s = &info.in_shapes[0];
            let (oh, ow) = p.out_hw(s.dim(1), s.dim(2));
            let (m, k, n) = (p.out_c, p.krows(), oh * ow);
            let kind = if p.kernel == 7 {
                "conv7x7".to_string()
            } else {
                format!("conv{0}x{0}s{1}", p.kernel, p.stride)
            };
            // Packing scratch: every element of the packed `B` is written
            // once and read back at least once.
            let scratch = 2 * 4 * (k * n.div_ceil(NR) * NR) as u64;
            (
                kind,
                Some((m, k, n)),
                p.flops(s.dim(1), s.dim(2)),
                io + scratch,
            )
        }
        ("dense", _) => {
            let (inf, outf) = (info.in_shapes[0].numel(), out);
            (
                "dense".into(),
                Some((1, inf, outf)),
                2 * (inf * outf) as u64,
                io,
            )
        }
        ("maxpool", _) => ("pool".into(), None, 9 * out as u64, io),
        ("gap", _) => ("pool".into(), None, inputs as u64, io),
        ("add", _) => ("add".into(), None, out as u64, io),
        _ => ("other".into(), None, 0, io),
    }
}

/// Median time (µs) of the bare blocked GEMM at `(m, k, n)`.
fn bare_gemm_us(m: usize, k: usize, n: usize, window_ms: f64, scratch: &mut GemmScratch) -> f64 {
    let a = Tensor::seeded_uniform([m, k], 11, -1.0, 1.0);
    let b = Tensor::seeded_uniform([k, n], 13, -1.0, 1.0);
    let pa = PackedA::pack(a.data(), m, k);
    let mut c = vec![0.0f32; m * n];
    let mut once = || {
        let sw = Stopwatch::start();
        gemm_prepacked_a(&pa, std::hint::black_box(b.data()), &mut c, n, scratch);
        std::hint::black_box(&mut c);
        sw.elapsed().as_secs_f64() * 1e6
    };
    let warm = once();
    let reps = ((window_ms * 1e3 / warm.max(1.0)).ceil() as usize).clamp(5, 200);
    let mut times: Vec<f64> = (0..reps).map(|_| once()).collect();
    median(&mut times)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    if std::env::var_os("CRAYFISH_THREADS").is_none() {
        // Before the first large GEMM reads it.
        std::env::set_var("CRAYFISH_THREADS", "1");
    }
    let passes = if quick { 8 } else { 16 };
    let window_ms = if quick { 10.0 } else { 60.0 };

    let graph = resnet_graph();
    let input = Tensor::seeded_uniform([1, 3, 224, 224], 7, 0.0, 1.0);
    let mut exec = FusedExec::new(&graph).expect("compile ResNet50");
    let infos = exec.step_infos();
    let times = step_times(&mut exec, &input, passes);
    let mut plain: Vec<f64> = (0..passes)
        .map(|_| {
            let sw = Stopwatch::start();
            std::hint::black_box(exec.run(&input).expect("forward pass"));
            sw.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let forward_us = median(&mut plain);

    // The same plan at the reduced precisions, gate open.
    let arm = |precision| {
        let mut cfg = QuantConfig::with_precision(precision);
        cfg.max_rel_err = f32::INFINITY;
        let mut exec = FusedExec::with_precision(&graph, cfg).expect("compile reduced plan");
        assert_eq!(exec.step_count(), infos.len(), "plans differ in shape");
        let times = step_times(&mut exec, &input, passes / 2);
        times.into_iter().map(|(med, _)| med).collect::<Vec<f64>>()
    };
    let (f16_us, int8_us) = if quick {
        (None, None)
    } else {
        (Some(arm(Precision::F16)), Some(arm(Precision::Int8)))
    };

    let mut scratch = GemmScratch::new();
    let mut gemm_cache: BTreeMap<(usize, usize, usize), f64> = BTreeMap::new();
    let mut rows = Vec::with_capacity(infos.len());
    for (i, info) in infos.iter().enumerate() {
        let (kind, mkn, flops, bytes) = describe(info);
        let gemm_us = mkn.filter(|_| info.kind == "conv").map(|(m, k, n)| {
            *gemm_cache
                .entry((m, k, n))
                .or_insert_with(|| bare_gemm_us(m, k, n, window_ms, &mut scratch))
        });
        let mut fused = String::new();
        if info.residual {
            fused.push_str("+res");
        }
        if info.relu {
            fused.push_str("+relu");
        }
        let extents = format!(
            "{} -> {}",
            info.in_shapes
                .first()
                .map_or_else(String::new, |s| s.to_string()),
            info.out_shape
        );
        let reduced = info.kind == "conv" || info.kind == "dense";
        rows.push(Row {
            step: i,
            name: info.name.clone(),
            kind,
            mkn,
            extents,
            fused,
            flops,
            us: times[i].0,
            us_min: times[i].1,
            gflops: flops as f64 / (times[i].0 * 1e3),
            bytes,
            gemm_us,
            gemm_gflops: gemm_us.map(|g| flops as f64 / (g * 1e3)),
            f16_us: f16_us.as_ref().filter(|_| reduced).map(|v| v[i]),
            int8_us: int8_us.as_ref().filter(|_| reduced).map(|v| v[i]),
        });
    }

    println!(
        "{:>3} {:<24} {:<10} {:>17} {:>9} {:>9} {:>9} {:>8} {:>8} {:>9} {:>8} {:>9} {:>9}  fused",
        "#",
        "step",
        "kind",
        "m x k x n",
        "MFLOP",
        "us",
        "min us",
        "GFLOP/s",
        "MB",
        "gemm us",
        "gemm GF",
        "f16 us",
        "int8 us"
    );
    let opt = |v: Option<f64>, prec: usize| v.map_or_else(|| "-".into(), |x| format!("{x:.prec$}"));
    for r in &rows {
        if r.kind == "other" {
            continue;
        }
        let mkn = r
            .mkn
            .map_or_else(|| r.extents.clone(), |(m, k, n)| format!("{m}x{k}x{n}"));
        println!(
            "{:>3} {:<24} {:<10} {:>17} {:>9.1} {:>9.0} {:>9.0} {:>8.1} {:>8.2} {:>9} {:>8} {:>9} {:>9}  {}",
            r.step,
            r.name,
            r.kind,
            mkn,
            r.flops as f64 / 1e6,
            r.us,
            r.us_min,
            r.gflops,
            r.bytes as f64 / 1e6,
            opt(r.gemm_us, 0),
            opt(r.gemm_gflops, 1),
            opt(r.f16_us, 0),
            opt(r.int8_us, 0),
            r.fused
        );
    }

    let mut by_kind: BTreeMap<&str, KindTotal> = BTreeMap::new();
    for r in &rows {
        let t = by_kind.entry(&r.kind).or_insert_with(|| KindTotal {
            kind: r.kind.clone(),
            steps: 0,
            flops: 0,
            us: 0.0,
            gflops: 0.0,
            bytes: 0,
            gemm_us: None,
        });
        t.steps += 1;
        t.flops += r.flops;
        t.us += r.us;
        t.bytes += r.bytes;
        if let Some(g) = r.gemm_us {
            *t.gemm_us.get_or_insert(0.0) += g;
        }
    }
    let mut totals: Vec<KindTotal> = by_kind.into_values().collect();
    for t in &mut totals {
        t.gflops = t.flops as f64 / (t.us * 1e3);
    }
    println!("\ntotals by kind:");
    for t in &totals {
        println!(
            "  {:<10} {:>3} steps {:>9.1} MFLOP {:>9.0} us {:>7.1} GFLOP/s {:>8.1} MB  bare gemm {:>8} us",
            t.kind,
            t.steps,
            t.flops as f64 / 1e6,
            t.us,
            t.gflops,
            t.bytes as f64 / 1e6,
            opt(t.gemm_us, 0)
        );
    }

    let steps_us: f64 = rows.iter().map(|r| r.us).sum();
    let conv_flops: u64 = rows
        .iter()
        .filter(|r| r.gemm_us.is_some())
        .map(|r| r.flops)
        .sum();
    let conv_us: f64 = rows
        .iter()
        .filter(|r| r.gemm_us.is_some())
        .map(|r| r.us)
        .sum();
    let gemm_us: f64 = rows.iter().filter_map(|r| r.gemm_us).sum();
    let score_gflops = exec.per_item_flops() as f64 / (forward_us * 1e3);
    let bare_gemm_gflops = conv_flops as f64 / (gemm_us * 1e3);
    let steps_min_us: f64 = rows.iter().map(|r| r.us_min).sum();
    println!(
        "\nforward {forward_us:.0} us ({steps_us:.0} us as the sum of step medians, {steps_min_us:.0} us of step minima); convolutions {conv_us:.0} us in situ vs {gemm_us:.0} us of bare GEMM"
    );
    println!(
        "score {score_gflops:.1} GFLOP/s / bare GEMM {bare_gemm_gflops:.1} GFLOP/s = {:.2}",
        score_gflops / bare_gemm_gflops
    );

    let report = Report {
        bench: "resnet_layers",
        quick,
        host: Host {
            cpu: cpu_model(),
            threads_available: std::thread::available_parallelism().map_or(1, |n| n.get()),
            crayfish_threads: std::env::var("CRAYFISH_THREADS").unwrap_or_else(|_| "unset".into()),
            git_revision: git_revision(),
            rustc: rustc_version(),
            note: "per-step times are medians over the passes, taken in situ (caches as the previous step left them); run under `taskset -c <cpu>`",
        },
        passes,
        forward_us,
        steps_us,
        score_gflops,
        bare_gemm_gflops,
        ratio_to_bare_gemm: score_gflops / bare_gemm_gflops,
        totals,
        rows,
    };
    save_json(
        if quick {
            "resnet_layers_quick"
        } else {
            "resnet_layers"
        },
        &report,
    );
}

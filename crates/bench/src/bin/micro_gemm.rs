//! `micro_gemm` — the kernel-layer ablation: how much each rung of the
//! packed GEMM rewrite buys over the seed kernel, per layer shape.
//!
//! Variants, in the order the optimisations were stacked:
//!
//! * `naive`        — `matmul_naive`, the i-j-p oracle (allocates its output).
//! * `seed_ipj`     — `gemm_ipj`, the seed kernel this PR replaced (i-p-j
//!   with a row broadcast; already ~memory-friendly).
//! * `tiled`        — `gemm_tiled_unpacked`, KC/MC cache blocking only.
//! * `tiled_packed` — `gemm_st`, the full packed path (panel packing +
//!   MR×NR register-tiled microkernel), forced single-thread.
//! * `prepacked_weights` — `gemm_prepacked_b` with `B` packed once outside
//!   the loop: the executor steady state, where `Dense`/`Conv` weights are
//!   packed at plan-compile time and only the activations pack per call.
//! * `tiled_packed_mt2` / `mt4` — the packed path on a persistent worker
//!   pool with 2 / 4 participants.
//! * `q8_prepacked`  — `gemm_prepacked_qb`: weights per-channel int8 at
//!   pack time, activations quantized per call, i8×i8→i32 microkernel with
//!   dequant-on-store. Eighth the weight bytes of f32.
//! * `f16_prepacked` — `gemm_prepacked_b16`: f16 weight storage expanded to
//!   f32 panels per block, f32 arithmetic. Half the weight bytes.
//!
//! Shapes cover dense cubes plus the GEMMs behind the paper's two models:
//! ResNet50 conv layers after im2col (stem, layer2, layer4, the final FC)
//! and the FFNN's three dense layers at batch 128.
//!
//! ```sh
//! cargo run --release -p crayfish-bench --bin micro_gemm            # full
//! cargo run --release -p crayfish-bench --bin micro_gemm -- --quick # CI
//! ```
//!
//! Writes `bench_results/micro_gemm.json` and prints the table. Timing
//! goes through `crayfish_sim::Stopwatch` (the repo's clock authority).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::path::Path;

use crayfish_bench::{cpu_model, git_revision, rustc_version};
use crayfish_sim::Stopwatch;
use crayfish_tensor::kernels::gemm::{
    gemm_ipj, gemm_prepacked_b, gemm_prepacked_b16, gemm_prepacked_qb, gemm_st,
    gemm_tiled_unpacked, gemm_with_pool, matmul_naive,
};
use crayfish_tensor::{GemmScratch, PackedB, PackedB16, QuantizedB, Tensor, ThreadPool};

struct Shape {
    label: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

const SHAPES: &[Shape] = &[
    Shape {
        label: "cube64",
        m: 64,
        k: 64,
        n: 64,
    },
    Shape {
        label: "cube256",
        m: 256,
        k: 256,
        n: 256,
    },
    Shape {
        label: "cube512",
        m: 512,
        k: 512,
        n: 512,
    },
    Shape {
        label: "cube1024",
        m: 1024,
        k: 1024,
        n: 1024,
    },
    // ResNet50 conv layers as im2col GEMMs: out_c × (in_c·kh·kw) × (oh·ow).
    Shape {
        label: "resnet_stem_7x7",
        m: 64,
        k: 147,
        n: 12544,
    },
    Shape {
        label: "resnet_l2_3x3",
        m: 128,
        k: 1152,
        n: 784,
    },
    Shape {
        label: "resnet_l4_3x3",
        m: 512,
        k: 4608,
        n: 49,
    },
    Shape {
        label: "resnet_fc",
        m: 1,
        k: 2048,
        n: 1000,
    },
    // FFNN dense layers at batch 128: batch × in_features × out_features.
    Shape {
        label: "ffnn_l1_b128",
        m: 128,
        k: 784,
        n: 32,
    },
    Shape {
        label: "ffnn_l2_b128",
        m: 128,
        k: 32,
        n: 32,
    },
    Shape {
        label: "ffnn_l3_b128",
        m: 128,
        k: 32,
        n: 10,
    },
];

/// Quick mode (CI): small shapes only, short windows.
const QUICK_SHAPES: &[&str] = &["cube64", "cube256", "resnet_l4_3x3", "ffnn_l1_b128"];

struct Measured {
    variant: &'static str,
    ms: f64,
    gflops: f64,
    max_abs_err: f64,
}

/// Time `run` adaptively: one warmup, then enough reps to fill the
/// window, split into batches; report the *minimum* batch mean. The
/// minimum is the standard low-noise estimator for microbenchmarks — on a
/// shared host it discards the batches a noisy neighbour stole cycles
/// from, and it is applied identically to every variant.
fn time_variant(window_secs: f64, mut run: impl FnMut()) -> f64 {
    let warm = Stopwatch::start();
    run();
    let warm_ms = warm.elapsed_millis().max(1e-3);
    let reps = ((window_secs * 1e3 / warm_ms).ceil() as usize).clamp(1, 200);
    let batches = reps.min(4);
    let per_batch = reps.div_ceil(batches);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let sw = Stopwatch::start();
        for _ in 0..per_batch {
            run();
        }
        best = best.min(sw.elapsed_millis() / per_batch as f64);
    }
    best
}

fn max_abs_err(got: &[f32], want: &[f32]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs() as f64)
        .fold(0.0, f64::max)
}

fn json_escape_free(s: &str) -> &str {
    // Labels and variant names are ASCII identifiers; assert rather than escape.
    assert!(s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'));
    s
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let window = if quick { 0.05 } else { 0.5 };
    let threads_available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let crayfish_threads = std::env::var("CRAYFISH_THREADS").unwrap_or_else(|_| "unset".into());
    let git_rev = git_revision();
    let rustc = rustc_version();
    let cpu = cpu_model();
    let pool2 = ThreadPool::new(2);
    let pool4 = ThreadPool::new(4);

    let mut rows = Vec::new();
    for shape in SHAPES {
        if quick && !QUICK_SHAPES.contains(&shape.label) {
            continue;
        }
        let &Shape { label, m, k, n } = shape;
        let flops = 2.0 * (m * k * n) as f64;
        let a = Tensor::seeded_uniform([m, k], 11, -1.0, 1.0);
        let b = Tensor::seeded_uniform([k, n], 13, -1.0, 1.0);
        let (a, b) = (a.data(), b.data());
        let oracle = matmul_naive(a, b, m, k, n);
        let mut c = vec![0.0f32; m * n];
        let mut scratch = GemmScratch::new();

        let mut measured: Vec<Measured> = Vec::new();
        let mut push = |variant, ms: f64, err: f64| {
            let gflops = flops / (ms * 1e6);
            measured.push(Measured {
                variant,
                ms,
                gflops,
                max_abs_err: err,
            });
        };

        // The naive oracle allocates its output; that is part of what the
        // rewrite removes, so it is timed as-is.
        let ms = time_variant(window, || {
            std::hint::black_box(matmul_naive(a, b, m, k, n));
        });
        push("naive", ms, 0.0);

        c.fill(0.0);
        gemm_ipj(a, b, &mut c, m, k, n);
        let err = max_abs_err(&c, &oracle);
        let ms = time_variant(window, || {
            c.fill(0.0);
            gemm_ipj(a, b, std::hint::black_box(&mut c), m, k, n);
        });
        push("seed_ipj", ms, err);

        c.fill(0.0);
        gemm_tiled_unpacked(a, b, &mut c, m, k, n);
        let err = max_abs_err(&c, &oracle);
        let ms = time_variant(window, || {
            c.fill(0.0);
            gemm_tiled_unpacked(a, b, std::hint::black_box(&mut c), m, k, n);
        });
        push("tiled", ms, err);

        c.fill(0.0);
        gemm_st(a, b, &mut c, m, k, n, &mut scratch);
        let err = max_abs_err(&c, &oracle);
        let ms = time_variant(window, || {
            c.fill(0.0);
            gemm_st(a, b, std::hint::black_box(&mut c), m, k, n, &mut scratch);
        });
        push("tiled_packed", ms, err);

        let pb = PackedB::pack(b, k, n);
        c.fill(0.0);
        gemm_prepacked_b(a, &pb, &mut c, m, &mut scratch);
        let err = max_abs_err(&c, &oracle);
        let ms = time_variant(window, || {
            c.fill(0.0);
            gemm_prepacked_b(a, std::hint::black_box(&pb), &mut c, m, &mut scratch);
        });
        push("prepacked_weights", ms, err);

        let qb = QuantizedB::from_f32(b, k, n);
        c.fill(0.0);
        gemm_prepacked_qb(a, &qb, &mut c, m, &mut scratch);
        let err = max_abs_err(&c, &oracle);
        let ms = time_variant(window, || {
            c.fill(0.0);
            gemm_prepacked_qb(a, std::hint::black_box(&qb), &mut c, m, &mut scratch);
        });
        push("q8_prepacked", ms, err);

        let pb16 = PackedB16::pack(b, k, n);
        c.fill(0.0);
        gemm_prepacked_b16(a, &pb16, &mut c, m, &mut scratch);
        let err = max_abs_err(&c, &oracle);
        let ms = time_variant(window, || {
            c.fill(0.0);
            gemm_prepacked_b16(a, std::hint::black_box(&pb16), &mut c, m, &mut scratch);
        });
        push("f16_prepacked", ms, err);

        for (variant, pool) in [("tiled_packed_mt2", &pool2), ("tiled_packed_mt4", &pool4)] {
            c.fill(0.0);
            gemm_with_pool(a, b, &mut c, m, k, n, &mut scratch, pool);
            let err = max_abs_err(&c, &oracle);
            let ms = time_variant(window, || {
                c.fill(0.0);
                gemm_with_pool(
                    a,
                    b,
                    std::hint::black_box(&mut c),
                    m,
                    k,
                    n,
                    &mut scratch,
                    pool,
                );
            });
            push(variant, ms, err);
        }

        println!("{label} ({m}x{k}x{n}):");
        let naive_ms = measured[0].ms;
        let seed_ms = measured[1].ms;
        for v in &measured {
            println!(
                "  {:<18} {:>9.3} ms  {:>7.2} GFLOP/s  {:>6.2}x vs naive  {:>6.2}x vs seed  err {:.2e}",
                v.variant,
                v.ms,
                v.gflops,
                naive_ms / v.ms,
                seed_ms / v.ms,
                v.max_abs_err
            );
        }
        rows.push((shape, measured));
    }

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(
        json,
        "  \"bench\": \"micro_gemm\",\n  \"quick\": {quick},\n  \"host\": {{\n    \"cpu\": {:?},\n    \"threads_available\": {threads_available},\n    \"crayfish_threads\": {:?},\n    \"git_revision\": {:?},\n    \"rustc\": {:?},\n    \"note\": \"timings are best-of-batches means; mt variants share one core when threads_available < pool size, so their speedups reflect pool overhead, not scaling\"\n  }},",
        cpu, crayfish_threads, git_rev, rustc
    );
    json.push_str("  \"results\": [\n");
    for (i, (shape, measured)) in rows.iter().enumerate() {
        let &Shape { label, m, k, n } = *shape;
        let _ = writeln!(
            json,
            "    {{\n      \"shape\": \"{}\", \"m\": {m}, \"k\": {k}, \"n\": {n},",
            json_escape_free(label)
        );
        json.push_str("      \"variants\": {\n");
        let naive_ms = measured[0].ms;
        let seed_ms = measured[1].ms;
        for (j, v) in measured.iter().enumerate() {
            let comma = if j + 1 == measured.len() { "" } else { "," };
            let _ = writeln!(
                json,
                "        \"{}\": {{ \"ms\": {:.4}, \"gflops\": {:.3}, \"speedup_vs_naive\": {:.3}, \"speedup_vs_seed\": {:.3}, \"max_abs_err\": {:.3e} }}{comma}",
                json_escape_free(v.variant),
                v.ms,
                v.gflops,
                naive_ms / v.ms,
                seed_ms / v.ms,
                v.max_abs_err
            );
        }
        json.push_str("      }\n");
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    }}{comma}");
    }
    json.push_str("  ]\n}\n");

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let path = dir.join("micro_gemm.json");
    if quick {
        // CI smoke run: print, but never clobber the committed full run.
        println!("--quick: skipping write of {}", path.display());
        return;
    }
    std::fs::create_dir_all(&dir).expect("create bench_results/");
    std::fs::write(&path, json).expect("write micro_gemm.json");
    println!("wrote {}", path.display());
}

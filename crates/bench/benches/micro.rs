//! Criterion microbenchmarks of the substrates: the GEMM and convolution
//! kernels, the JSON wire codec, the binary serving protocol, broker
//! produce/fetch round trips, and the broker's RPC frames and round trips.
//! These are the primitives whose costs compose into every table and figure.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::borrow::Cow;
use std::hint::black_box;
use std::sync::Arc;

use bytes::Bytes;
use crayfish::chaos::ChaosHandle;
use crayfish::net::InProcTransport;
use crayfish_broker::wire::{self, Request, Response};
use crayfish_broker::{
    rpc, Broker, BrokerApi, FetchedRecord, PartitionConsumer, Producer, ProducerConfig,
    RemoteBroker,
};
use crayfish_core::batch::{CrayfishDataBatch, ScoredBatch};
use crayfish_models::{ffnn, tiny};
use crayfish_runtime::exec::FusedExec;
use crayfish_serving::protocol::{decode_tensor_binary, encode_tensor_binary};
use crayfish_sim::NetworkModel;
use crayfish_tensor::kernels::conv::{
    conv2d_im2col_into, conv2d_prepacked_into, Conv2dParams, ConvEpilogue,
};
use crayfish_tensor::kernels::gemm::{gemm, gemm_ipj, gemm_prepacked_b, gemm_st};
use crayfish_tensor::{GemmScratch, PackedA, PackedB, Tensor};

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    group.sample_size(20);
    for n in [64usize, 256] {
        let a = Tensor::seeded_uniform([n, n], 1, -1.0, 1.0);
        let b = Tensor::seeded_uniform([n, n], 2, -1.0, 1.0);
        group.bench_function(format!("{n}x{n}x{n}"), |bench| {
            bench.iter(|| {
                let mut out = vec![0.0f32; n * n];
                gemm(black_box(a.data()), black_box(b.data()), &mut out, n, n, n);
                black_box(out);
            })
        });
    }
    group.finish();
}

/// The kernel-ablation rungs side by side at one shape (the full sweep
/// lives in `cargo run -p crayfish-bench --bin micro_gemm`).
fn bench_gemm_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm_variants_256");
    group.sample_size(20);
    let n = 256usize;
    let a = Tensor::seeded_uniform([n, n], 1, -1.0, 1.0);
    let b = Tensor::seeded_uniform([n, n], 2, -1.0, 1.0);
    let mut out = vec![0.0f32; n * n];
    group.bench_function("seed_ipj", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            gemm_ipj(black_box(a.data()), black_box(b.data()), &mut out, n, n, n);
        })
    });
    let mut scratch = GemmScratch::new();
    group.bench_function("tiled_packed_st", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            gemm_st(
                black_box(a.data()),
                black_box(b.data()),
                &mut out,
                n,
                n,
                n,
                &mut scratch,
            );
        })
    });
    let pb = PackedB::pack(b.data(), n, n);
    group.bench_function("prepacked_weights", |bench| {
        bench.iter(|| {
            out.fill(0.0);
            gemm_prepacked_b(
                black_box(a.data()),
                black_box(&pb),
                &mut out,
                n,
                &mut scratch,
            );
        })
    });
    group.finish();
}

fn bench_conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("conv2d");
    group.sample_size(20);
    // A ResNet50 layer-2 shape: 128 channels, 28x28, 3x3.
    let p = Conv2dParams {
        in_c: 128,
        out_c: 128,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let input = Tensor::seeded_uniform([1, 128, 28, 28], 1, -1.0, 1.0);
    let weight = Tensor::seeded_uniform([128, 128, 3, 3], 2, -0.1, 0.1);
    let mut out = vec![0.0f32; 128 * 28 * 28];
    // The materialised-`im2col` oracle (unpacked weights, `col` matrix)...
    group.bench_function("resnet_layer2_3x3", |bench| {
        let mut col = Vec::new();
        bench.iter(|| {
            conv2d_im2col_into(
                black_box(input.data()),
                1,
                28,
                28,
                weight.data(),
                &[],
                &p,
                &mut col,
                &mut out,
            );
            black_box(&mut out);
        })
    });
    // ...and the production path: prepacked weights, `B` blocks packed from
    // the image.
    group.bench_function("resnet_layer2_3x3_implicit", |bench| {
        let packed = PackedA::pack(weight.data(), p.out_c, p.krows());
        let mut scratch = GemmScratch::new();
        bench.iter(|| {
            conv2d_prepacked_into(
                black_box(input.data()),
                1,
                28,
                28,
                &packed,
                &[],
                &p,
                ConvEpilogue::default(),
                &mut out,
                &mut scratch,
            );
            black_box(&mut out);
        })
    });
    group.finish();
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group.sample_size(30);
    let g = ffnn::build(1);
    let mut exec = FusedExec::new(&g).unwrap();
    for bsz in [1usize, 128] {
        let input = Tensor::seeded_uniform([bsz, 28, 28], 1, 0.0, 1.0);
        group.bench_function(format!("ffnn_fused_bsz{bsz}"), |bench| {
            bench.iter(|| black_box(exec.run(black_box(&input)).unwrap()))
        });
    }
    group.finish();
}

/// A wire payload whose values are six-decimal fractions, as `perf_suite`
/// renders them: every token takes the scanner's exact path.
fn six_decimal_payload(bsz: usize, item: &[usize]) -> Vec<u8> {
    let dims: Vec<String> = item.iter().map(usize::to_string).collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let values: Vec<String> = (0..bsz * item.iter().product::<usize>())
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            format!("0.{:06}", (state >> 33) % 1_000_000)
        })
        .collect();
    format!(
        "{{\"id\":1,\"created_ms\":1727445623123.5,\"shape\":[{}],\"bsz\":{bsz},\"data\":[{}]}}",
        dims.join(","),
        values.join(",")
    )
    .into_bytes()
}

/// The record codec per byte, at the three record sizes of the benchmark
/// (FFNN b1 ~7 KB, FFNN b64 ~450 KB, ResNet50 b1 ~1.35 MB): `six_decimal`
/// is what `perf_suite` sends, `shortest` is this program's own encoder
/// output over `[0, 255)` — 8–9 significant digits in tokens of varying
/// length.
fn bench_json_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("json_codec");
    group.sample_size(30);
    for (name, bsz, item) in [
        ("ffnn_b1", 1usize, &[28usize, 28][..]),
        ("ffnn_b64", 64, &[28, 28]),
        ("resnet50_b1", 1, &[3, 224, 224]),
    ] {
        let mut dims = vec![bsz];
        dims.extend_from_slice(item);
        let t = Tensor::seeded_uniform(dims, 1, 0.0, 255.0);
        let batch = CrayfishDataBatch::from_tensor(1, 0.0, &t);
        let shortest = batch.encode().unwrap();
        let six_decimal = six_decimal_payload(bsz, item);

        for (digits, bytes) in [
            ("six_decimal", &six_decimal[..]),
            ("shortest", &shortest[..]),
        ] {
            group.throughput(Throughput::Bytes(bytes.len() as u64));
            group.bench_function(format!("decode_{digits}_{name}"), |bench| {
                bench.iter(|| black_box(CrayfishDataBatch::decode(black_box(bytes)).unwrap()))
            });
        }
        // The engine's input half: decode, then the tensor takes the vector.
        group.throughput(Throughput::Bytes(six_decimal.len() as u64));
        group.bench_function(format!("decode_into_tensor_{name}"), |bench| {
            bench.iter(|| {
                let batch = CrayfishDataBatch::decode(black_box(&six_decimal)).unwrap();
                black_box(batch.into_tensor().unwrap())
            })
        });
        group.throughput(Throughput::Bytes(shortest.len() as u64));
        group.bench_function(format!("encode_{name}"), |bench| {
            bench.iter(|| black_box(batch.encode().unwrap()))
        });
    }

    // The engine's output half on one FFNN b64 result.
    let input = CrayfishDataBatch::from_tensor(1, 0.0, &Tensor::zeros([64, 1]));
    let scores = Tensor::seeded_uniform([64, 10], 2, 0.0, 1.0);
    group.throughput(Throughput::Elements(scores.numel() as u64));
    group.bench_function("encode_scored_ffnn_b64", |bench| {
        bench.iter(|| black_box(ScoredBatch::from_output(&input, &scores).encode().unwrap()))
    });
    group.finish();
}

fn bench_binary_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("binary_protocol");
    group.sample_size(30);
    let t = Tensor::seeded_uniform([1, 28, 28], 1, 0.0, 1.0);
    let enc = encode_tensor_binary(&t);
    group.bench_function("encode", |bench| {
        bench.iter(|| black_box(encode_tensor_binary(&t)))
    });
    group.bench_function("decode", |bench| {
        bench.iter(|| black_box(decode_tensor_binary(black_box(&enc)).unwrap()))
    });
    group.finish();
}

fn bench_broker(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker");
    group.sample_size(20);
    let broker = Broker::new(NetworkModel::zero());
    broker.create_topic("bench", 4).unwrap();
    let payload = Bytes::from(vec![0u8; 3 * 1024]);
    group.bench_function("append_3kb", |bench| {
        bench.iter(|| {
            black_box(
                broker
                    .append("bench", 0, vec![(payload.clone(), 0.0)])
                    .unwrap(),
            )
        })
    });
    group.bench_function("produce_fetch_roundtrip_3kb", |bench| {
        broker.create_topic("rt", 1).ok();
        let mut producer = Producer::new(broker.clone(), "rt", ProducerConfig::default()).unwrap();
        let mut consumer = PartitionConsumer::new(broker.clone(), "rt", "g", vec![0]).unwrap();
        bench.iter(|| {
            producer.send(Some(0), payload.clone()).unwrap();
            producer.flush();
            let recs = consumer
                .poll(std::time::Duration::from_millis(100))
                .unwrap();
            black_box(recs);
        })
    });
    group.finish();
}

/// The broker's wire path, one layer at a time: what it costs to put a
/// record batch into a frame and take it out again (the `Append` request an
/// engine's producer sends, the `Records` reply its consumer receives), and
/// what one RPC costs end to end with and without a socket under it.
fn bench_broker_rpc(c: &mut Criterion) {
    let mut group = c.benchmark_group("broker_rpc");
    group.sample_size(20);
    for (shape, count, size) in [
        ("1x7kb", 1usize, 7 * 1024usize),
        ("500x7kb", 500, 7 * 1024),
        ("1x450kb", 1, 450 * 1024),
    ] {
        let records: Vec<(Bytes, f64)> = (0..count)
            .map(|i| (Bytes::from(vec![i as u8; size]), i as f64))
            .collect();
        let append = Request::Append {
            topic: "bench",
            partition: 0,
            dedup: Some((1, 0)),
            records: Cow::Borrowed(&records),
        };
        group.bench_function(format!("append_encode_{shape}"), |bench| {
            bench.iter(|| black_box(append.encode()))
        });
        let frame = Bytes::from(append.encode());
        group.bench_function(format!("append_decode_{shape}"), |bench| {
            bench.iter(|| black_box(Request::decode(black_box(&frame)).unwrap()))
        });

        let fetched = Ok(Response::Records(
            records
                .iter()
                .enumerate()
                .map(|(i, (value, produce_time_ms))| FetchedRecord {
                    partition: 0,
                    offset: i as u64,
                    value: value.clone(),
                    produce_time_ms: *produce_time_ms,
                    append_time_ms: *produce_time_ms + 1.0,
                })
                .collect(),
        ));
        group.bench_function(format!("records_encode_{shape}"), |bench| {
            bench.iter(|| {
                let mut out = Vec::new();
                wire::encode_reply(black_box(&fetched), &mut out);
                black_box(out)
            })
        });
        let mut reply = Vec::new();
        wire::encode_reply(&fetched, &mut reply);
        let reply = Bytes::from(reply);
        group.bench_function(format!("records_decode_{shape}"), |bench| {
            bench.iter(|| black_box(wire::decode_reply(black_box(reply.clone())).unwrap()))
        });
    }

    let broker = Broker::new(NetworkModel::zero());
    broker.create_topic("rt", 1).unwrap();
    let served: Arc<dyn BrokerApi> = broker.clone();
    let inproc = RemoteBroker::with_parts(
        Box::new(InProcTransport::new(Arc::new(
            move |frame, out: &mut Vec<u8>| rpc::handle_frame(served.as_ref(), frame, out),
        ))),
        crayfish_obs::ObsHandle::disabled(),
        ChaosHandle::disabled(),
    );
    let server = rpc::serve(broker, ([127, 0, 0, 1], 0).into(), 2).unwrap();
    let tcp = RemoteBroker::connect(server.addr());
    let payload = Bytes::from(vec![0u8; 7 * 1024]);
    for (transport, remote) in [("inproc", inproc), ("tcp", tcp)] {
        group.bench_function(format!("roundtrip_end_offset_{transport}"), |bench| {
            bench.iter(|| black_box(remote.end_offset("rt", 0).unwrap()))
        });
        group.bench_function(format!("roundtrip_append_read_7kb_{transport}"), |bench| {
            bench.iter(|| {
                let (offset, _) = remote
                    .append("rt", 0, vec![(payload.clone(), 0.0)])
                    .unwrap();
                black_box(remote.read("rt", 0, offset, 1, usize::MAX).unwrap())
            })
        });
    }
    server.shutdown();
    group.finish();
}

fn bench_tiny_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiny_models");
    group.sample_size(30);
    let g = tiny::tiny_cnn(1);
    let mut exec = FusedExec::new(&g).unwrap();
    let input = Tensor::seeded_uniform([4, 3, 8, 8], 1, 0.0, 1.0);
    group.bench_function("tiny_cnn_fused_bsz4", |bench| {
        bench.iter(|| black_box(exec.run(black_box(&input)).unwrap()))
    });
    group.finish();
}

fn bench_obs(c: &mut Criterion) {
    use crayfish_obs::{ObsHandle, Stage};
    let mut group = c.benchmark_group("obs");
    group.sample_size(30);
    let g = tiny::tiny_cnn(1);
    let mut exec = FusedExec::new(&g).unwrap();
    let input = Tensor::seeded_uniform([4, 3, 8, 8], 1, 0.0, 1.0);

    // The pre-PR hot path: inference with no instrumentation at all.
    group.bench_function("inference_bare", |bench| {
        bench.iter(|| black_box(exec.run(black_box(&input)).unwrap()))
    });
    // The zero-cost-when-disabled claim: the same path behind a disabled
    // span must be within measurement noise of `inference_bare`.
    let disabled = ObsHandle::disabled();
    group.bench_function("inference_disabled_span", |bench| {
        bench.iter(|| {
            let span = disabled.timer(Stage::Inference);
            let out = exec.run(black_box(&input)).unwrap();
            span.stop();
            black_box(out)
        })
    });
    // Live-telemetry cost: two clock reads plus one sharded histogram add.
    let enabled = ObsHandle::enabled();
    group.bench_function("inference_enabled_span", |bench| {
        bench.iter(|| {
            let span = enabled.timer(Stage::Inference);
            let out = exec.run(black_box(&input)).unwrap();
            span.stop();
            black_box(out)
        })
    });
    group.bench_function("record_stage_ns", |bench| {
        bench.iter(|| enabled.observe_stage_ns(Stage::Inference, black_box(42_000)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gemm,
    bench_gemm_variants,
    bench_conv,
    bench_inference,
    bench_json_codec,
    bench_binary_protocol,
    bench_broker,
    bench_broker_rpc,
    bench_tiny_models,
    bench_obs
);
criterion_main!(benches);

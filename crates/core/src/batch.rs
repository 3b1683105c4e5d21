//! The `CrayfishDataBatch` unit of computation and its JSON wire form.
//!
//! §3.1 of the paper: "A CrayfishDataBatch contains a batch of data points
//! alongside the creation timestamp, which is used in computing end-to-end
//! latencies. Crayfish uses JSON serialization throughout the data pipeline
//! for simplicity and flexibility." The JSON cost is real and intentional —
//! it dominates transfer sizes for large inputs, which is why the paper's
//! GPU gains are modest. The wire is that JSON; how the engine reads it is
//! this crate's own business: the `scan` module.

mod scan;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crayfish_tensor::{Shape, Tensor};

use crate::error::CoreError;
use crate::obs::{ObsHandle, Stage};
use crate::Result;

/// A batch of `bsz` data points travelling through the pipeline as one
/// event. `Deserialize` is derived for tests only, as the oracle the
/// decoder is compared against.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[cfg_attr(test, derive(Deserialize))]
pub struct CrayfishDataBatch {
    /// Monotonic batch id assigned by the producer.
    pub id: u64,
    /// Producer-side creation timestamp (UNIX ms) — the *start* time of the
    /// end-to-end latency measurement (§3.3, step 1).
    pub created_ms: f64,
    /// Per-item shape (e.g. `[28, 28]`).
    pub shape: Vec<usize>,
    /// Number of data points in the batch (`bsz`).
    pub bsz: usize,
    /// Row-major data of all `bsz` items.
    pub data: Vec<f32>,
}

/// What a scored record carries over from its input: the batch without its
/// data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchHeader {
    /// The batch id.
    pub id: u64,
    /// The batch's creation timestamp (UNIX ms).
    pub created_ms: f64,
}

/// `bsz × Π shape`, or `None` where that overflows. Multiplies in the order
/// `Shape::numel` does on `[bsz, ..shape]`, so a count that fits here fits
/// there.
fn element_count(bsz: usize, shape: &[usize]) -> Option<usize> {
    shape.iter().try_fold(bsz, |n, &d| n.checked_mul(d))
}

impl CrayfishDataBatch {
    /// Build a batch from a `[bsz, ..item]` tensor.
    pub fn from_tensor(id: u64, created_ms: f64, t: &Tensor) -> CrayfishDataBatch {
        CrayfishDataBatch {
            id,
            created_ms,
            shape: t.shape().per_item().dims().to_vec(),
            bsz: t.batch(),
            data: t.data().to_vec(),
        }
    }

    /// The id and timestamp, for the output record.
    pub fn header(&self) -> BatchHeader {
        BatchHeader {
            id: self.id,
            created_ms: self.created_ms,
        }
    }

    /// Refuse a batch whose `data` is not `bsz × Π shape` values long.
    fn check_count(&self) -> Result<()> {
        let holds = element_count(self.bsz, &self.shape);
        if holds == Some(self.data.len()) {
            return Ok(());
        }
        Err(CoreError::Codec(match holds {
            Some(n) => format!(
                "batch {}: {} values where bsz × shape holds {n}",
                self.id,
                self.data.len()
            ),
            None => format!("batch {}: bsz × shape overflows", self.id),
        }))
    }

    /// Reassemble the `[bsz, ..item]` tensor around this batch's own data
    /// vector: nothing is copied.
    pub fn into_tensor(self) -> Result<Tensor> {
        self.check_count()?;
        let mut dims = Vec::with_capacity(self.shape.len() + 1);
        dims.push(self.bsz);
        dims.extend_from_slice(&self.shape);
        Tensor::from_vec(Shape::new(dims), self.data)
            .map_err(|e| CoreError::Codec(format!("batch {}: {e}", self.id)))
    }

    /// [`CrayfishDataBatch::into_tensor`] on a copy of the batch.
    pub fn to_tensor(&self) -> Result<Tensor> {
        self.clone().into_tensor()
    }

    /// JSON-encode for the wire.
    pub fn encode(&self) -> Result<Bytes> {
        serde_json::to_vec(self)
            .map(Bytes::from)
            .map_err(|e| CoreError::Codec(format!("batch encode: {e}")))
    }

    /// Parse from the wire.
    pub fn decode(bytes: &[u8]) -> Result<CrayfishDataBatch> {
        scan::decode_batch(bytes)
    }
}

/// A scored batch on its way to the output topic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredBatch {
    /// The originating batch id.
    pub id: u64,
    /// Creation timestamp carried through from the input batch.
    pub created_ms: f64,
    /// Number of scored data points.
    pub bsz: usize,
    /// Classes per prediction.
    pub classes: usize,
    /// `bsz × classes` probabilities, row-major.
    pub scores: Vec<f32>,
}

impl ScoredBatch {
    /// Build from the scoring operator's output tensor.
    pub fn from_output(input: &CrayfishDataBatch, output: &Tensor) -> ScoredBatch {
        ScoredBatch::from_scores(input.header(), output.clone())
    }

    /// Build from the input's header and the output tensor, whose data
    /// becomes `scores` without a copy.
    pub fn from_scores(input: BatchHeader, output: Tensor) -> ScoredBatch {
        ScoredBatch {
            id: input.id,
            created_ms: input.created_ms,
            bsz: output.batch(),
            classes: output.shape().per_item().numel(),
            scores: output.into_data(),
        }
    }

    /// JSON-encode for the wire.
    pub fn encode(&self) -> Result<Bytes> {
        serde_json::to_vec(self)
            .map(Bytes::from)
            .map_err(|e| CoreError::Codec(format!("scored encode: {e}")))
    }

    /// Parse from the wire.
    pub fn decode(bytes: &[u8]) -> Result<ScoredBatch> {
        serde_json::from_slice(bytes).map_err(|e| CoreError::Codec(format!("scored decode: {e}")))
    }
}

/// Decode one wire payload into its header and `[bsz, ..item]` input tensor
/// inside a `decode` span; the tensor owns the vector the values were
/// parsed into. This is the input half of every engine's scoring operator;
/// the engine kernel (via [`crate::scoring::score_payload_obs`]) is its only
/// caller on the data path, so the wire format and its span accounting
/// cannot drift between engines.
pub fn decode_input_obs(payload: &[u8], obs: &ObsHandle) -> Result<(BatchHeader, Tensor)> {
    let span = obs.timer(Stage::Decode);
    let batch = CrayfishDataBatch::decode(payload)?;
    let header = batch.header();
    let input = batch.into_tensor()?;
    span.stop();
    Ok((header, input))
}

/// Encode the scoring output (consumed: its data becomes the record's
/// `scores`) against its input's header inside an `encode` span — the
/// output half of every engine's scoring operator.
pub fn encode_output_obs(input: BatchHeader, output: Tensor, obs: &ObsHandle) -> Result<Bytes> {
    let span = obs.timer(Stage::Encode);
    let encoded = ScoredBatch::from_scores(input, output).encode();
    span.stop();
    encoded
}

/// Shared wire-format helpers for engine and conformance tests: every suite
/// feeds seeded `CrayfishDataBatch` payloads in and reads distinct
/// `ScoredBatch` ids out, so the helpers live here once instead of being
/// copied into each engine crate.
pub mod testkit {
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use std::time::Duration;

    use bytes::Bytes;

    use crayfish_broker::BrokerApi;
    use crayfish_models::tiny;
    use crayfish_runtime::{Device, EmbeddedLib};
    use crayfish_sim::now_millis_f64;
    use crayfish_tensor::Tensor;

    use super::{CrayfishDataBatch, ScoredBatch};
    use crate::processor::ProcessorContext;
    use crate::scoring::ScorerSpec;

    /// The standard engine-test cell: fresh `partitions`-way `in`/`out`
    /// topics on `broker` and a context scoring with the embedded ONNX tiny
    /// MLP. Tests that need a different scorer overwrite `ctx.scorer`.
    pub fn onnx_ctx(broker: Arc<dyn BrokerApi>, partitions: u32, mp: usize) -> ProcessorContext {
        broker.create_topic("in", partitions).unwrap();
        broker.create_topic("out", partitions).unwrap();
        ProcessorContext {
            broker,
            input_topic: "in".into(),
            output_topic: "out".into(),
            group: "sut".into(),
            scorer: ScorerSpec::Embedded {
                lib: EmbeddedLib::Onnx,
                graph: Arc::new(tiny::tiny_mlp(1)),
                device: Device::Cpu,
            },
            mp,
        }
    }

    /// A deterministic `[1, 8, 8]` input payload with `id` as the seed.
    pub fn seeded_payload(id: u64) -> Bytes {
        let t = Tensor::seeded_uniform([1, 8, 8], id, 0.0, 1.0);
        CrayfishDataBatch::from_tensor(id, now_millis_f64(), &t)
            .encode()
            .expect("encode seeded payload")
    }

    /// Append seeded payloads with ids `from..to`, spread round-robin over
    /// `topic`'s `partitions`.
    pub fn feed_range(broker: &dyn BrokerApi, topic: &str, partitions: u32, from: u64, to: u64) {
        for id in from..to {
            broker
                .append(
                    topic,
                    (id % u64::from(partitions.max(1))) as u32,
                    vec![(seeded_payload(id), now_millis_f64())],
                )
                .expect("append input payload");
        }
    }

    /// [`feed_range`] from 0.
    pub fn feed(broker: &dyn BrokerApi, topic: &str, partitions: u32, n: u64) {
        feed_range(broker, topic, partitions, 0, n);
    }

    /// Read `topic` from the beginning until `done` says the batches read
    /// so far suffice (or `timeout` elapses) and return them in read order.
    fn drain_until(
        broker: &dyn BrokerApi,
        topic: &str,
        partitions: u32,
        timeout: Duration,
        done: impl Fn(&[ScoredBatch]) -> bool,
    ) -> Vec<ScoredBatch> {
        let deadline = crayfish_sim::now() + timeout;
        let mut out = Vec::new();
        let mut offsets = vec![0u64; partitions as usize];
        while !done(&out) && crayfish_sim::now() < deadline {
            for p in 0..partitions {
                let recs = broker
                    .read(topic, p, offsets[p as usize], 10_000, usize::MAX)
                    .expect("read output topic");
                if let Some(last) = recs.last() {
                    offsets[p as usize] = last.offset + 1;
                }
                for r in recs {
                    out.push(ScoredBatch::decode(&r.value).expect("decode scored batch"));
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        out
    }

    /// Drain until `expect` scored batches have appeared; duplicates —
    /// legal under at-least-once delivery — are included and counted.
    pub fn drain_scored(
        broker: &dyn BrokerApi,
        topic: &str,
        partitions: u32,
        expect: usize,
        timeout: Duration,
    ) -> Vec<ScoredBatch> {
        drain_until(broker, topic, partitions, timeout, |out| {
            out.len() >= expect
        })
    }

    /// The set of distinct batch ids in `scored`.
    pub fn distinct_ids(scored: &[ScoredBatch]) -> BTreeSet<u64> {
        scored.iter().map(|s| s.id).collect()
    }

    /// Drain until `expect` *distinct* ids have appeared, tolerant of the
    /// duplicates a crash-recovery replay produces.
    pub fn drain_distinct(
        broker: &dyn BrokerApi,
        topic: &str,
        partitions: u32,
        expect: usize,
        timeout: Duration,
    ) -> Vec<ScoredBatch> {
        drain_until(broker, topic, partitions, timeout, |out| {
            distinct_ids(out).len() >= expect
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn batch_json_roundtrip() {
        let t = Tensor::seeded_uniform([4, 3, 3], 1, 0.0, 1.0);
        let batch = CrayfishDataBatch::from_tensor(7, 123.5, &t);
        let bytes = batch.encode().unwrap();
        let back = CrayfishDataBatch::decode(&bytes).unwrap();
        assert_eq!(back.id, 7);
        assert_eq!(back.bsz, 4);
        assert_eq!(back.to_tensor().unwrap(), t);
    }

    #[test]
    fn decode_rejects_inconsistent_sizes() {
        let json = br#"{"id":1,"created_ms":0.0,"shape":[2,2],"bsz":2,"data":[1.0,2.0]}"#;
        assert!(CrayfishDataBatch::decode(json).is_err());
        assert!(CrayfishDataBatch::decode(b"not json").is_err());
    }

    /// `bsz × Π shape` used to be an unchecked product: this payload
    /// panicked a debug build and, wrapping to 0 in a release build, was
    /// accepted as a `[1, 2^32, 2^32]` tensor without data.
    #[test]
    fn decode_refuses_a_count_that_overflows() {
        let json =
            br#"{"id":1,"created_ms":0.0,"shape":[4294967296,4294967296],"bsz":1,"data":[]}"#;
        assert!(matches!(
            CrayfishDataBatch::decode(json),
            Err(CoreError::Codec(_))
        ));
        // The same claim with `data` first, so that it is judged at the end.
        let json =
            br#"{"data":[],"id":1,"created_ms":0.0,"bsz":1,"shape":[4294967296,4294967296]}"#;
        assert!(CrayfishDataBatch::decode(json).is_err());
        let batch = CrayfishDataBatch {
            id: 1,
            created_ms: 0.0,
            shape: vec![usize::MAX, 2],
            bsz: 1,
            data: Vec::new(),
        };
        assert!(batch.to_tensor().is_err());
    }

    /// A batch of no points, or of points with a zero extent, holds no
    /// values and says so consistently; with values it is refused.
    #[test]
    fn decode_takes_zero_extents_at_their_word() {
        for (shape, bsz) in [("[28,28]", 0), ("[0,28]", 1), ("[28,0]", 3), ("[0]", 0)] {
            let json =
                format!(r#"{{"id":1,"created_ms":0.0,"shape":{shape},"bsz":{bsz},"data":[]}}"#);
            let batch = CrayfishDataBatch::decode(json.as_bytes()).unwrap();
            assert_eq!(batch.to_tensor().unwrap().numel(), 0, "{json}");
            let json =
                format!(r#"{{"id":1,"created_ms":0.0,"shape":{shape},"bsz":{bsz},"data":[1]}}"#);
            assert!(
                CrayfishDataBatch::decode(json.as_bytes()).is_err(),
                "{json}"
            );
        }
    }

    #[test]
    fn scored_batch_carries_timestamps() {
        let t = Tensor::seeded_uniform([2, 4], 1, 0.0, 1.0);
        let input = CrayfishDataBatch::from_tensor(3, 55.5, &Tensor::zeros([2, 8, 8]));
        let scored = ScoredBatch::from_output(&input, &t);
        assert_eq!(scored.id, 3);
        assert_eq!(scored.created_ms, 55.5);
        assert_eq!(scored.classes, 4);
        let back = ScoredBatch::decode(&scored.encode().unwrap()).unwrap();
        assert_eq!(back, scored);
    }

    #[test]
    fn json_payload_sizes_are_realistic() {
        // One FFNN input point is ~3 KB on the paper's wire; our JSON is the
        // same order of magnitude.
        let t = Tensor::seeded_uniform([1, 28, 28], 1, 0.0, 1.0);
        let bytes = CrayfishDataBatch::from_tensor(1, 0.0, &t).encode().unwrap();
        assert!(
            bytes.len() > 2_000 && bytes.len() < 15_000,
            "{} bytes",
            bytes.len()
        );
    }

    /// The wire is the paper's JSON, byte for byte what the encoders wrote
    /// before the decoder was replaced.
    #[test]
    fn encoders_write_the_golden_bytes() {
        let t = Tensor::from_vec([1, 2, 2], vec![0.5, 1.0, 255.0, -0.1]).unwrap();
        let batch = CrayfishDataBatch::from_tensor(7, 1727445623123.5, &t);
        assert_eq!(
            batch.encode().unwrap().as_ref(),
            br#"{"id":7,"created_ms":1727445623123.5,"shape":[2,2],"bsz":1,"data":[0.5,1.0,255.0,-0.1]}"#
        );
        let output = Tensor::from_vec([2, 2], vec![0.25, 0.75, 1.0, 0.0]).unwrap();
        let golden =
            br#"{"id":7,"created_ms":1727445623123.5,"bsz":2,"classes":2,"scores":[0.25,0.75,1.0,0.0]}"#;
        let copied = ScoredBatch::from_output(&batch, &output).encode().unwrap();
        assert_eq!(copied.as_ref(), golden);
        let moved = encode_output_obs(batch.header(), output, &ObsHandle::disabled()).unwrap();
        assert_eq!(moved.as_ref(), golden);
    }

    /// After the parse the engine path copies no input value: the tensor
    /// owns the very vector the scanner filled.
    #[test]
    fn the_tensor_takes_the_decoded_vector() {
        let t = Tensor::seeded_uniform([2, 28, 28], 3, 0.0, 255.0);
        let payload = CrayfishDataBatch::from_tensor(1, 0.0, &t).encode().unwrap();
        let batch = CrayfishDataBatch::decode(&payload).unwrap();
        let (parsed, capacity) = (batch.data.as_ptr(), batch.data.capacity());
        assert_eq!(capacity, t.numel(), "sized once from bsz × shape");
        let tensor = batch.into_tensor().unwrap();
        assert_eq!(tensor.data().as_ptr(), parsed);
        assert_eq!(tensor, t);

        let output = Tensor::seeded_uniform([2, 10], 4, 0.0, 1.0);
        let scores = output.data().as_ptr();
        let header = BatchHeader {
            id: 1,
            created_ms: 0.0,
        };
        assert_eq!(
            ScoredBatch::from_scores(header, output).scores.as_ptr(),
            scores
        );
    }

    // The derived `Deserialize` (what `decode` was until the scanner) as
    // oracle. Integration tests do not see `cfg(test)` items of the library,
    // so this differential lives here; the allocation-counting properties
    // are in `tests/batch_properties.rs`.

    fn oracle(bytes: &[u8]) -> Option<CrayfishDataBatch> {
        let batch: CrayfishDataBatch = serde_json::from_slice(bytes).ok()?;
        batch.check_count().ok().map(|()| batch)
    }

    /// The offline benchmark build links a stand-in for `serde_json`
    /// (`crates/perf/stubs`) that keeps the last of two equal keys and reads
    /// numbers with `str::parse`. Against that oracle, refusing what it
    /// accepts is not a disagreement; against `serde_json` it is.
    fn oracle_is_lenient() -> bool {
        serde_json::from_str::<f32>("+1").is_ok()
    }

    /// Both accept and agree, or both refuse. `created_ms` and `data` may
    /// differ in the last place: `serde_json` reads a float by its own
    /// algorithm, which (without its `float_roundtrip` feature) is not
    /// always correctly rounded, and reads an `f32` as that `f64` narrowed,
    /// a second rounding. The scanner returns what `str::parse` does.
    fn assert_agrees(bytes: &[u8]) {
        let text = String::from_utf8_lossy(bytes);
        match (CrayfishDataBatch::decode(bytes), oracle(bytes)) {
            (Ok(ours), Some(theirs)) => {
                assert_eq!(
                    (ours.id, &ours.shape, ours.bsz),
                    (theirs.id, &theirs.shape, theirs.bsz),
                    "{text}"
                );
                let ulps = |a: f32, b: f32| (i64::from(a.to_bits()) - i64::from(b.to_bits())).abs();
                assert!(
                    (ours.created_ms.to_bits() as i64 - theirs.created_ms.to_bits() as i64).abs()
                        <= 1,
                    "{text}"
                );
                assert_eq!(ours.data.len(), theirs.data.len(), "{text}");
                for (a, b) in ours.data.iter().zip(&theirs.data) {
                    assert!(ulps(*a, *b) <= 1, "{a} vs {b} in {text}");
                }
            }
            (Err(_), None) => {}
            (Err(_), Some(_)) if oracle_is_lenient() => {}
            (ours, theirs) => panic!("scanner {ours:?}, derive {theirs:?} on {text}"),
        }
    }

    #[test]
    fn decode_agrees_with_the_derive_on_handwritten_cases() {
        let cases: &[&str] = &[
            r#"{"id":1,"created_ms":2.5,"shape":[2],"bsz":1,"data":[1,2]}"#,
            r#" { "data" : [ 1e0 , -2.5E-1 ] , "bsz" : 1 , "shape" : [ 2 ] , "created_ms" : 3 , "id" : 0 } "#,
            "{\"id\":1,\n\"created_ms\":0,\t\"shape\":[],\r\"bsz\":2,\"data\":[0,-0]}",
            r#"{"id":1,"extra":{"a":[1,{"b":null}],"c":"x\"\u00e9\\"},"created_ms":0,"shape":[1],"bsz":1,"data":[7],"z":[]}"#,
            r#"{"id":18446744073709551615,"created_ms":-1.5e3,"shape":[1],"bsz":1,"data":[3.4028235e38]}"#,
            // Refused by both.
            r#"{"id":18446744073709551616,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1],"data":[1]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1}"#,
            r#"{"created_ms":0,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}x"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1],}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1,]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[,1]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1 2]}"#,
            r#"{"id":-1,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1.0,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":01,"created_ms":0,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":"0","shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":null,"shape":[1],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1.5],"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":0,"shape":1,"bsz":1,"data":[1]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[true]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":["1"]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[null]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[[1]]}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1],"x":tru}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1],"x":"a\qb"}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1],"x":[1}"#,
            r#"{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[1]"#,
            r#"["id",1]"#,
            "",
        ];
        for case in cases {
            assert_agrees(case.as_bytes());
        }
    }

    /// Numbers the JSON grammar has no place for. `serde_json` refuses them
    /// too; the stand-in codec of the offline benchmark build reads some of
    /// them with `str::parse`, so this is not left to the differential.
    #[test]
    fn decode_refuses_what_is_not_a_json_number() {
        for token in [
            "nan", "NaN", "inf", "-inf", "Infinity", ".5", "1.", "+1", "01", "-01", "1e", "1e+",
            "-", "1.e2", "0x10", "1_000", "--1", "1..2", "1e1.5",
        ] {
            let json = format!(r#"{{"id":1,"created_ms":0,"shape":[1],"bsz":1,"data":[{token}]}}"#);
            assert!(
                CrayfishDataBatch::decode(json.as_bytes()).is_err(),
                "{token}"
            );
            let json = format!(r#"{{"id":1,"created_ms":{token},"shape":[1],"bsz":1,"data":[1]}}"#);
            assert!(
                CrayfishDataBatch::decode(json.as_bytes()).is_err(),
                "{token}"
            );
        }
    }

    /// Where narrowing the `f64` quotient cannot be trusted — it sits
    /// exactly halfway between two `f32`s — `str::parse` decides; a hair
    /// to either side the exact path does.
    #[test]
    fn decode_rounds_halfway_decimals_as_parse_does() {
        for token in [
            "16777217",
            "16777217.0",
            "16777217.00000001",
            "16777216.99999999",
            "16777219",
            "1.00000005960464477539",
            "0.1",
            "8.5e-22",
            "9007199254740991e22",
            "-0.0",
            "-0",
            "1e-45",
            "3.4028235e38",
            "1e39",
            "123456789012345678901234567890",
            "0.000000000000000000000000000001",
            "1e0000000000000000000005",
            "1e-0000000000000000000005",
        ] {
            let json =
                format!(r#"{{"id":1,"created_ms":{token},"shape":[1],"bsz":1,"data":[{token}]}}"#);
            let batch = CrayfishDataBatch::decode(json.as_bytes()).unwrap();
            let (want32, want64) = (token.parse::<f32>().unwrap(), token.parse::<f64>().unwrap());
            assert_eq!(batch.data[0].to_bits(), want32.to_bits(), "{token}");
            assert_eq!(batch.created_ms.to_bits(), want64.to_bits(), "{token}");
        }
    }

    /// One `data` element: integers, exponent forms, and the shortest
    /// round-trip text of arbitrary finite bit patterns.
    fn element(v: u32) -> String {
        match v % 5 {
            0 => format!("{}", v % 1000),
            1 => format!("{}e-{}", v % 100_000, v % 12),
            2 => format!("-{}.{:03}E+{}", v % 50, v % 997, v % 9),
            _ if f32::from_bits(v).is_finite() => format!("{:?}", f32::from_bits(v)),
            _ => "0.5".to_string(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 512 }))]

        /// A valid object — its five members in any order, unknown members
        /// between them, whitespace or none — and the same with one fault:
        /// a member missing or twice, a count that does not match, a `data`
        /// element that is not a number.
        #[test]
        fn decode_agrees_with_the_derive(
            order in proptest::collection::vec(any::<u32>(), 5),
            unknown in proptest::collection::vec((0usize..6, any::<u32>()), 0..3),
            values in proptest::collection::vec(any::<u32>(), 6),
            (bsz, item) in (1usize..3, 0usize..4),
            (fault, at) in (0u8..8, 0usize..5),
            spaced in any::<bool>(),
        ) {
            let gap = if spaced { " \n\t" } else { "" };
            let sep = format!("{gap},{gap}");
            let count = bsz * item + usize::from(fault == 4);
            let mut data: Vec<String> = (0..count).map(|i| element(values[i % 6] ^ i as u32)).collect();
            let mut faulty = matches!(fault, 4 | 6 | 7);
            if let (5, Some(slot)) = (fault, data.get_mut(at)) {
                *slot = ["null", "\"1\"", "[1]", "true"][values[0] as usize % 4].to_string();
                faulty = true;
            }
            let mut members = vec![
                format!("\"id\":{gap}{}", values[0]),
                // Eighths: exact in every float parser.
                format!("\"created_ms\":{gap}{:?}", f64::from(values[1]) / 8.0),
                format!("\"bsz\":{bsz}"),
                format!("\"shape\":{gap}[{gap}{item}{gap}]"),
                format!("\"data\":[{gap}{}{gap}]", data.join(&sep)),
            ];
            let mut keys = order.clone();
            match fault {
                6 => drop((members.remove(at), keys.remove(at))),
                7 => {
                    members.push(members[at].clone());
                    keys.push(values[2]);
                }
                _ => {}
            }
            for (slot, n) in unknown {
                let member = match n % 3 {
                    0 => format!("\"note{n}\":{gap}{{\"k\":[{gap}],\"s\":\"\\n\\u00e9 {n}\",\"f\":false}}"),
                    1 => format!("\"n\":{gap}-{}.5e{}", n % 1000, n % 30),
                    _ => format!("\"\":[null,{gap}[{{}}],\"\"]"),
                };
                members.insert(slot.min(members.len()), member);
                keys.insert(slot.min(keys.len()), n);
            }
            let mut shuffled: Vec<(u32, String)> = keys.into_iter().zip(members).collect();
            shuffled.sort();
            let members: Vec<String> = shuffled.into_iter().map(|(_, m)| m).collect();
            let text = format!("{gap}{{{gap}{}{gap}}}{gap}", members.join(&sep));

            let accepted = CrayfishDataBatch::decode(text.as_bytes()).is_ok();
            prop_assert_eq!(accepted, !faulty, "{}", text);
            assert_agrees(text.as_bytes());
        }
    }
}

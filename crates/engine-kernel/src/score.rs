//! The scoring stage, the emitting sink, and the `ingest` span helpers.
//!
//! These are the pieces every engine topology is assembled from once the
//! commit-owning loop is split out: [`ScoreStage`] funnels payloads through
//! the shared scoring body with the right failure discipline for its
//! position relative to the offset commit, and [`ProducerSink`] owns the
//! `emit` span, the producer, and the `records_out` counter.

use bytes::Bytes;

use crayfish_broker::Producer;
use crayfish_core::chaos::{RetryPolicy, WorkerExit};
use crayfish_core::obs::Counter;
use crayfish_core::scoring::{score_payload_obs, Scorer};
use crayfish_core::{CoreError, ObsHandle, Stage};
use crayfish_sim::{precise_sleep, Cost};

use crate::source::SinkClosed;

/// The scoring operator: decode → score → encode with the engine-agnostic
/// counters, in one of two failure disciplines.
///
/// * [`ScoreStage::replay`] — for commit-owning loops (Kafka Streams
///   threads, chained Flink subtasks): a transient failure fails the
///   incarnation *before* the commit, so the restarted worker refetches
///   and rescores the batch.
/// * [`ScoreStage::in_place`] — for stages past the commit scope (Spark
///   executors, Flink scoring/async tasks, Ray scoring actors): the input
///   offset is already committed, so transient failures retry in place
///   with a patient backoff rather than dropping the record.
///
/// Terminal failures (malformed payloads, model errors) are counted as
/// `score_errors` and skipped in both disciplines.
pub struct ScoreStage {
    scorer: Box<dyn Scorer>,
    obs: ObsHandle,
    batches_scored: Counter,
    score_errors: Counter,
    retries: Counter,
    retry: Option<RetryPolicy>,
}

impl ScoreStage {
    /// Scoring inside commit scope: transient failures exit the
    /// incarnation for an offset replay.
    pub fn replay(scorer: Box<dyn Scorer>, obs: &ObsHandle) -> Self {
        Self::with_policy(scorer, obs, None)
    }

    /// Scoring past commit scope: transient failures retry in place.
    pub fn in_place(scorer: Box<dyn Scorer>, obs: &ObsHandle) -> Self {
        Self::with_policy(scorer, obs, Some(RetryPolicy::patient()))
    }

    fn with_policy(scorer: Box<dyn Scorer>, obs: &ObsHandle, retry: Option<RetryPolicy>) -> Self {
        ScoreStage {
            scorer,
            obs: obs.clone(),
            batches_scored: obs.counter("batches_scored"),
            score_errors: obs.counter("score_errors"),
            retries: obs.counter("retries"),
            retry,
        }
    }

    /// Score one payload. `Ok(Some(out))` is the encoded `ScoredBatch`;
    /// `Ok(None)` means the record was counted and skipped (terminal
    /// failure, or a retry budget exhausted past commit scope);
    /// `Err(exit)` ends the incarnation (replay discipline only).
    pub fn score(&mut self, payload: &[u8]) -> std::result::Result<Option<Bytes>, WorkerExit> {
        let outcome = match &self.retry {
            Some(policy) => policy.run(
                CoreError::is_transient,
                |_| self.retries.inc(),
                || score_payload_obs(self.scorer.as_mut(), payload, &self.obs),
            ),
            None => score_payload_obs(self.scorer.as_mut(), payload, &self.obs),
        };
        match outcome {
            Ok(out) => {
                self.batches_scored.inc();
                Ok(Some(out))
            }
            Err(e) if self.retry.is_none() && e.is_transient() => {
                self.score_errors.inc();
                Err(WorkerExit::Failed(format!("score: {e}")))
            }
            Err(_) => {
                self.score_errors.inc();
                Ok(None)
            }
        }
    }
}

/// The output operator: the `emit` span around an optional per-record
/// framework cost plus the producer send, and the `records_out` counter.
pub struct ProducerSink {
    producer: Producer,
    obs: ObsHandle,
    records_out: Counter,
    emit_cost: Cost,
    /// Emit with [`Producer::send_deferred`]: the owner flushes every cycle.
    flushed_per_cycle: bool,
}

impl ProducerSink {
    /// A sink with no modelled per-record emit cost.
    pub fn new(producer: Producer, obs: &ObsHandle) -> Self {
        Self::with_cost(producer, obs, Cost::ZERO)
    }

    /// A sink charging `emit_cost` per record inside the `emit` span
    /// (e.g. the sink operator's share of Flink's chain cost, or Ray's
    /// object-store dispatch on the output hop).
    pub fn with_cost(producer: Producer, obs: &ObsHandle, emit_cost: Cost) -> Self {
        ProducerSink {
            producer,
            obs: obs.clone(),
            records_out: obs.counter("records_out"),
            emit_cost,
            flushed_per_cycle: false,
        }
    }

    /// For an owner that calls [`ProducerSink::flush`] after every poll
    /// cycle: over a remote broker the emitted records wait in the producer
    /// and go out together at the flush, one request per output partition
    /// and cycle ([`Producer::send_deferred`]).
    pub fn flushed_per_cycle(mut self) -> Self {
        self.flushed_per_cycle = true;
        self
    }

    /// Emit one scored payload. [`SinkClosed`] means the output topic is
    /// gone: the caller winds down.
    pub fn emit(&mut self, payload: Bytes) -> std::result::Result<(), SinkClosed> {
        let bytes = payload.len();
        let span = self.obs.timer(Stage::Emit);
        self.emit_cost.spend(bytes);
        let sent = if self.flushed_per_cycle {
            self.producer.send_deferred(None, payload)
        } else {
            self.producer.send(None, payload)
        };
        span.stop();
        if sent.is_err() {
            return Err(SinkClosed);
        }
        self.records_out.inc();
        Ok(())
    }

    /// Flush buffered sends (engines with a flush-before-commit cycle).
    pub fn flush(&self) {
        self.producer.flush();
    }
}

/// Run `f` inside an `ingest` span. For personality-owned ingestion work
/// that is not a plain [`Cost`] (e.g. Ray's object-store copy).
pub fn ingest_span<T>(obs: &ObsHandle, f: impl FnOnce() -> T) -> T {
    let span = obs.timer(Stage::Ingest);
    let out = f();
    span.stop();
    out
}

/// Charge a per-record framework cost inside an `ingest` span.
pub fn charge_ingest(obs: &ObsHandle, cost: Cost, bytes: usize) {
    let span = obs.timer(Stage::Ingest);
    cost.spend(bytes);
    span.stop();
}

/// Charge a per-record cost amortised over a whole chunk, as one aggregate
/// sleep in one `ingest` span (Spark's whole-stage codegen charges
/// framework cost per chunk, not per record).
pub fn charge_ingest_chunk(obs: &ObsHandle, cost: Cost, total_bytes: usize, n_records: usize) {
    let span = obs.timer(Stage::Ingest);
    let per_chunk = cost
        .duration(total_bytes / n_records.max(1))
        .mul_f64(n_records as f64);
    precise_sleep(per_chunk);
    span.stop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use crayfish_core::batch::{CrayfishDataBatch, ScoredBatch};
    use crayfish_core::scoring::ScorerSpec;
    use crayfish_core::Result;
    use crayfish_models::tiny;
    use crayfish_runtime::{Device, EmbeddedLib};
    use crayfish_sim::now_millis_f64;
    use crayfish_tensor::Tensor;

    fn embedded_scorer() -> Box<dyn Scorer> {
        ScorerSpec::Embedded {
            lib: EmbeddedLib::Onnx,
            graph: Arc::new(tiny::tiny_mlp(1)),
            device: Device::Cpu,
        }
        .build()
        .unwrap()
    }

    fn payload(id: u64) -> Bytes {
        let t = Tensor::seeded_uniform([1, 8, 8], id, 0.0, 1.0);
        CrayfishDataBatch::from_tensor(id, now_millis_f64(), &t)
            .encode()
            .unwrap()
    }

    #[test]
    fn replay_stage_scores_and_counts() {
        let obs = ObsHandle::enabled();
        let mut stage = ScoreStage::replay(embedded_scorer(), &obs);
        let out = stage.score(&payload(7)).unwrap().unwrap();
        assert_eq!(ScoredBatch::decode(&out).unwrap().id, 7);
        assert_eq!(obs.counter("batches_scored").get(), 1);
        assert_eq!(obs.counter("score_errors").get(), 0);
    }

    #[test]
    fn terminal_errors_are_skipped_in_both_disciplines() {
        let obs = ObsHandle::enabled();
        let mut replay = ScoreStage::replay(embedded_scorer(), &obs);
        assert!(matches!(replay.score(b"not json"), Ok(None)));
        let mut in_place = ScoreStage::in_place(embedded_scorer(), &obs);
        assert!(matches!(in_place.score(b"not json"), Ok(None)));
        assert_eq!(obs.counter("score_errors").get(), 2);
    }

    struct FlakyScorer {
        failures_left: u32,
    }

    impl Scorer for FlakyScorer {
        fn name(&self) -> String {
            "flaky".into()
        }
        fn score(&mut self, input: &Tensor) -> Result<Tensor> {
            if self.failures_left > 0 {
                self.failures_left -= 1;
                return Err(CoreError::Serving(crayfish_serving::ServingError::Closed));
            }
            Ok(input.clone())
        }
    }

    #[test]
    fn replay_discipline_fails_the_incarnation_on_transient_errors() {
        let obs = ObsHandle::enabled();
        let mut stage =
            ScoreStage::with_policy(Box::new(FlakyScorer { failures_left: 1 }), &obs, None);
        assert!(matches!(
            stage.score(&payload(1)),
            Err(WorkerExit::Failed(_))
        ));
    }

    #[test]
    fn in_place_discipline_retries_transient_errors() {
        let obs = ObsHandle::enabled();
        let mut stage = ScoreStage::with_policy(
            Box::new(FlakyScorer { failures_left: 2 }),
            &obs,
            Some(RetryPolicy {
                base: std::time::Duration::from_millis(1),
                ..RetryPolicy::patient()
            }),
        );
        assert!(matches!(stage.score(&payload(1)), Ok(Some(_))));
        assert_eq!(obs.counter("retries").get(), 2);
        assert_eq!(obs.counter("score_errors").get(), 0);
    }

    #[test]
    fn chunk_ingest_records_one_span() {
        let obs = ObsHandle::enabled();
        charge_ingest_chunk(&obs, Cost::ZERO, 4096, 8);
        assert_eq!(obs.stage_snapshot(Stage::Ingest).count(), 1);
    }
}

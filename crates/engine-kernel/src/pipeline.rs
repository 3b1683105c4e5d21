//! The full-chain pipeline worker: the whole record lifecycle in one
//! supervised, commit-owning loop.
//!
//! This is what the paper's §3.2 data processor looks like when the input,
//! scoring, and output operators share one thread: poll a fetch from the
//! assigned partitions, charge the engine's per-record framework cost,
//! funnel every record through decode → score → encode, emit the results,
//! then commit the offsets — with the obs spans, chaos checkpoints, and
//! restart semantics built in once. Kafka Streams' stream threads and
//! Flink's chained subtasks are both exactly this loop; their remaining
//! differences fit in [`PipelineSettings`].

use std::time::Duration;

use crayfish_broker::{Broker, PartitionConsumer, Producer, ProducerConfig};
use crayfish_core::chaos::WorkerExit;
use crayfish_core::obs::Counter;
use crayfish_core::{ObsHandle, ProcessorContext, Result};
use crayfish_sim::Cost;

use crate::score::{charge_ingest, ProducerSink, ScoreStage};
use crate::worker::{Ctl, Rebuild, WorkerSet};

/// What still differs between full-chain engines.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSettings {
    /// Cap on records per fetch (`max.poll.records`); `None` keeps the
    /// consumer default.
    pub max_poll_records: Option<usize>,
    /// Poll timeout per cycle.
    pub poll_timeout: Duration,
    /// Calibrated per-record framework cost, charged inside the `ingest`
    /// span.
    pub ingest_cost: Cost,
    /// Flush the producer before committing (Kafka Streams finishes the
    /// whole cycle — sink flush included — before requesting new input;
    /// Flink's chained subtask commits without a sink flush).
    pub flush_before_commit: bool,
}

impl Default for PipelineSettings {
    fn default() -> Self {
        PipelineSettings {
            max_poll_records: None,
            poll_timeout: Duration::from_millis(50),
            ingest_cost: Cost::ZERO,
            flush_before_commit: false,
        }
    }
}

/// One worker's resources: rebuilt per incarnation, so restarts resume
/// from the committed offsets with a fresh producer and scorer.
pub struct PipelineWorker {
    consumer: PartitionConsumer,
    score: ScoreStage,
    sink: ProducerSink,
}

impl PipelineWorker {
    /// Run the consume → score → commit cycle until stop, crash, or a
    /// terminal fabric error.
    pub fn run(
        &mut self,
        ctl: &Ctl,
        settings: &PipelineSettings,
        obs: &ObsHandle,
        commits: &Counter,
    ) -> WorkerExit {
        loop {
            if let Some(exit) = ctl.checkpoint() {
                return exit;
            }
            let records = match self.consumer.poll(settings.poll_timeout) {
                Ok(r) => r,
                Err(e) if e.is_transient() => return WorkerExit::Failed(format!("poll: {e}")),
                Err(_) => return WorkerExit::Stopped,
            };
            if records.is_empty() {
                continue;
            }
            for rec in records {
                charge_ingest(obs, settings.ingest_cost, rec.value.len());
                match self.score.score(&rec.value) {
                    Ok(Some(out)) => {
                        if self.sink.emit(out).is_err() {
                            return WorkerExit::Stopped;
                        }
                    }
                    // Terminal score failure: counted and skipped.
                    Ok(None) => {}
                    // Transient score failure: exit *before* the commit so
                    // the restarted incarnation refetches this batch.
                    Err(exit) => return exit,
                }
            }
            if settings.flush_before_commit {
                self.sink.flush();
            }
            self.consumer.commit();
            commits.inc();
        }
    }
}

/// Register `ctx.mp` supervised pipeline workers, one per slice of the
/// input topic's partitions.
pub fn pipeline_workers(
    set: &mut WorkerSet,
    ctx: &ProcessorContext,
    name_prefix: &str,
    settings: PipelineSettings,
) -> Result<()> {
    let partitions = ctx.broker.partitions(&ctx.input_topic)?;
    let assignment = Broker::range_assignment(partitions, ctx.mp);
    for (i, assigned) in assignment.into_iter().enumerate() {
        let broker = ctx.broker.clone();
        let input = ctx.input_topic.clone();
        let output = ctx.output_topic.clone();
        let group = ctx.group.clone();
        let spec = ctx.scorer.clone();
        let obs = ctx.obs().clone();
        let resources = Rebuild::eager(move || {
            let mut consumer =
                PartitionConsumer::new(broker.clone(), &input, &group, assigned.clone())?;
            if let Some(n) = settings.max_poll_records {
                consumer.max_poll_records = n;
            }
            let producer = Producer::new(broker.clone(), &output, ProducerConfig::default())?;
            let scorer = spec.build()?;
            let sink = ProducerSink::new(producer, &obs);
            Ok(PipelineWorker {
                consumer,
                score: ScoreStage::replay(scorer, &obs),
                // A cycle that ends in a flush hands its output over once.
                sink: if settings.flush_before_commit {
                    sink.flushed_per_cycle()
                } else {
                    sink
                },
            })
        })?;
        let obs = ctx.obs().clone();
        let commits = obs.counter("engine_commits");
        set.supervised(
            ctx,
            format!("{name_prefix}-{i}"),
            resources,
            move |worker, ctl| worker.run(ctl, &settings, &obs, &commits),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    use bytes::Bytes;
    use crayfish_core::batch::testkit::onnx_ctx;
    use crayfish_core::batch::ScoredBatch;
    use crayfish_core::chaos::testkit::poll_until;
    use crayfish_core::scoring::ScorerSpec;
    use crayfish_sim::NetworkModel;

    fn make_ctx(mp: usize) -> ProcessorContext {
        onnx_ctx(Broker::new(NetworkModel::zero()), 4, mp)
    }

    fn feed(broker: &dyn crayfish_broker::BrokerApi, n: u64) {
        crayfish_core::batch::testkit::feed(broker, "in", 4, n);
    }

    #[test]
    fn pipeline_scores_everything_and_drains_lag() {
        let ctx = make_ctx(2);
        let broker = ctx.broker.clone();
        let mut set = WorkerSet::new();
        pipeline_workers(&mut set, &ctx, "pipe", PipelineSettings::default()).unwrap();
        let job = set.into_job();
        feed(broker.as_ref(), 30);
        assert!(poll_until(Duration::from_secs(10), || {
            broker.total_records("out").unwrap() >= 30
        }));
        let mut ids = Vec::new();
        for p in 0..4u32 {
            for r in broker.read("out", p, 0, 10_000, usize::MAX).unwrap() {
                ids.push(ScoredBatch::decode(&r.value).unwrap().id);
            }
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 30);
        assert!(poll_until(Duration::from_secs(5), || {
            broker.group_lag("sut", "in").unwrap() == 0
        }));
        job.stop();
    }

    #[test]
    fn malformed_records_are_skipped_and_counted() {
        let broker = Broker::with_parts(
            NetworkModel::zero(),
            ObsHandle::enabled(),
            crayfish_core::chaos::ChaosHandle::disabled(),
        );
        broker.create_topic("in", 4).unwrap();
        broker.create_topic("out", 4).unwrap();
        let ctx = ProcessorContext {
            broker: broker.clone(),
            ..make_ctx(1)
        };
        let obs = ctx.obs().clone();
        let mut set = WorkerSet::new();
        pipeline_workers(&mut set, &ctx, "pipe", PipelineSettings::default()).unwrap();
        let job = set.into_job();
        broker
            .append("in", 0, vec![(Bytes::from_static(b"not json"), 0.0)])
            .unwrap();
        feed(broker.as_ref(), 3);
        assert!(poll_until(Duration::from_secs(10), || {
            broker.total_records("out").unwrap() >= 3
        }));
        job.stop();
        assert_eq!(obs.counter("score_errors").get(), 1);
        assert_eq!(obs.counter("batches_scored").get(), 3);
    }

    #[test]
    fn startup_errors_surface_eagerly() {
        let mut ctx = make_ctx(1);
        ctx.scorer = ScorerSpec::External {
            kind: crayfish_serving::ExternalKind::TfServing,
            addr: "127.0.0.1:1".parse().unwrap(),
            network: NetworkModel::zero(),
        };
        let mut set = WorkerSet::new();
        let r = pipeline_workers(&mut set, &ctx, "pipe", PipelineSettings::default());
        assert!(r.is_err(), "bad scorer address must fail deploy");
        set.into_job().stop();
    }
}

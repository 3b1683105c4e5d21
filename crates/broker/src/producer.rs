//! The batching producer client.
//!
//! Reproduces the behaviour of Kafka's producer that matters for the
//! paper's measurements: `send` never blocks on the network; a dedicated
//! sender thread ships *everything that accumulated while the previous
//! request was in flight* as one request, paying one modelled network hop
//! per request. Under load this batches aggressively (high throughput); at
//! low rates each record ships almost immediately (low latency) — exactly
//! the adaptive behaviour of `linger.ms = 0` Kafka.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;
use crayfish_sync::thread::{self, JoinHandle};
use crayfish_sync::{Arc, Condvar, Mutex};

use crayfish_chaos::RetryPolicy;
use crayfish_sim::{now_millis_f64, precise_sleep};

use crate::api::BrokerApi;
use crate::error::BrokerError;
use crate::Result;

/// Producer tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ProducerConfig {
    /// Extra time the sender waits after waking to accumulate a batch
    /// (Kafka's `linger.ms`). Zero ships as fast as the network allows.
    pub linger: Duration,
    /// Maximum records per request.
    pub max_batch_records: usize,
    /// Maximum request payload (the paper raises Kafka's to 50 MB).
    pub max_request_bytes: usize,
    /// Retry schedule for transient append failures (partition outages,
    /// lost acks). Sequence-number dedup on the broker keeps the retries
    /// at-least-once *without duplicates*; once the budget is exhausted the
    /// batch is dropped and counted in `producer_records_dropped`.
    pub retry: RetryPolicy,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            linger: Duration::ZERO,
            max_batch_records: 10_000,
            max_request_bytes: 50 * 1024 * 1024,
            retry: RetryPolicy::default(),
        }
    }
}

/// Source of unique producer ids for the broker's idempotence windows.
static NEXT_PRODUCER_ID: AtomicU64 = AtomicU64::new(1);

#[derive(Debug, Default)]
struct AccState {
    queue: Vec<(u32, Bytes, f64)>,
    queued_bytes: usize,
    /// Something asked for the queue to be shipped (`send`, `flush`);
    /// records queued by `send_deferred` alone leave it unset.
    ship: bool,
    in_flight: bool,
    closed: bool,
}

#[derive(Debug)]
struct Inner {
    broker: Arc<dyn BrokerApi>,
    topic: String,
    partitions: u32,
    config: ProducerConfig,
    producer_id: u64,
    state: Mutex<AccState>,
    wake: Condvar,
    drained: Condvar,
}

/// A producer bound to one topic.
#[derive(Debug)]
pub struct Producer {
    inner: Arc<Inner>,
    sender: Option<JoinHandle<()>>,
    rr: u32,
}

impl Producer {
    /// Create a producer for `topic`, spawning its sender thread. The
    /// broker may be in-process or remote ([`crate::rpc::RemoteBroker`]);
    /// the batching, retry, and dedup behaviour is identical either way.
    pub fn new(
        broker: Arc<dyn BrokerApi>,
        topic: &str,
        config: ProducerConfig,
    ) -> Result<Producer> {
        let partitions = broker.partitions(topic)?;
        let inner = Arc::new(Inner {
            broker,
            topic: topic.to_string(),
            partitions,
            config,
            producer_id: NEXT_PRODUCER_ID.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(AccState::default()),
            wake: Condvar::new(),
            drained: Condvar::new(),
        });
        let sender_inner = inner.clone();
        let sender = thread::spawn_named(&format!("producer-{topic}"), move || {
            sender_loop(&sender_inner)
        })
        .map_err(|e| BrokerError::Fabric(format!("spawn producer sender thread: {e}")))?;
        Ok(Producer {
            inner,
            sender: Some(sender),
            rr: 0,
        })
    }

    /// Queue one record. `partition = None` round-robins across partitions.
    /// The record's produce timestamp is taken now.
    pub fn send(&mut self, partition: Option<u32>, value: Bytes) -> Result<()> {
        self.enqueue(partition, value, true)
    }

    /// Queue one record like [`Producer::send`] but, where a request is a
    /// round trip ([`BrokerApi::is_remote`]), do not ask for it to be
    /// shipped: it goes out with whatever asks next — a `send`, the
    /// [`Producer::flush`] that ends the caller's cycle, or the close. For
    /// callers that flush after every bounded cycle anyway: the cycle's
    /// output goes out as one request per partition, where waking the
    /// sender per record cuts it into however many requests the scheduler
    /// happens to interleave (one to twenty for 500 records, each a round
    /// trip per partition, and a different number on every run). In process
    /// an append is a function call: handing each record over at once costs
    /// nothing per request and lets the sender append while the caller
    /// scores, so there this is `send`.
    pub fn send_deferred(&mut self, partition: Option<u32>, value: Bytes) -> Result<()> {
        let wake = !self.inner.broker.is_remote();
        self.enqueue(partition, value, wake)
    }

    fn enqueue(&mut self, partition: Option<u32>, value: Bytes, wake: bool) -> Result<()> {
        let partition = match partition {
            Some(p) if p < self.inner.partitions => p,
            Some(p) => {
                return Err(BrokerError::UnknownPartition {
                    topic: self.inner.topic.clone(),
                    partition: p,
                })
            }
            None => {
                let p = self.rr % self.inner.partitions;
                self.rr = self.rr.wrapping_add(1);
                p
            }
        };
        let mut state = self.inner.state.lock();
        if state.closed {
            return Err(BrokerError::ProducerClosed);
        }
        state.queued_bytes += value.len();
        state.queue.push((partition, value, now_millis_f64()));
        if wake {
            state.ship = true;
            self.inner.wake.notify_one();
        }
        Ok(())
    }

    /// Block until everything queued so far has been appended to the broker.
    pub fn flush(&self) {
        let mut state = self.inner.state.lock();
        if !state.queue.is_empty() {
            // Deferred records wait for this.
            state.ship = true;
            self.inner.wake.notify_one();
        }
        while !state.queue.is_empty() || state.in_flight {
            state = self.inner.drained.wait(state);
        }
    }

    /// Flush and shut the sender thread down. Called automatically on drop
    /// (where a failure is ignored); call explicitly to observe a sender
    /// thread that died with queued records.
    pub fn close(&mut self) -> Result<()> {
        {
            let mut state = self.inner.state.lock();
            if state.closed {
                return Ok(());
            }
            state.closed = true;
            self.inner.wake.notify_all();
        }
        if let Some(h) = self.sender.take() {
            h.join()
                .map_err(|_| BrokerError::Fabric("producer sender thread panicked".into()))?;
        }
        Ok(())
    }
}

impl Drop for Producer {
    fn drop(&mut self) {
        let _ = self.close();
    }
}

fn sender_loop(inner: &Inner) {
    let obs = inner.broker.obs().clone();
    let requests = obs.counter("broker_append_requests");
    let retries = obs.counter("retries");
    let append_errors = obs.counter_with("errors", "stage", "broker_append");
    let records_dropped = obs.counter("producer_records_dropped");
    // Per-partition sequence numbers for the broker's idempotence window.
    let mut next_seqs: std::collections::HashMap<u32, u64> = std::collections::HashMap::new();
    loop {
        let batch = {
            let mut state = inner.state.lock();
            while (state.queue.is_empty() || !state.ship) && !state.closed {
                state = inner.wake.wait(state);
            }
            if state.queue.is_empty() && state.closed {
                return;
            }
            if !inner.config.linger.is_zero() {
                // Release the lock while lingering so senders can continue
                // to accumulate.
                drop(state);
                precise_sleep(inner.config.linger);
                state = inner.state.lock();
            }
            let take = state.queue.len().min(inner.config.max_batch_records).max(1);
            // Respect the request size cap (always ship at least one).
            let mut bytes = 0usize;
            let mut n = 0usize;
            for (_, v, _) in state.queue.iter().take(take) {
                if n > 0 && bytes + v.len() > inner.config.max_request_bytes {
                    break;
                }
                bytes += v.len();
                n += 1;
            }
            let batch: Vec<(u32, Bytes, f64)> = state.queue.drain(..n).collect();
            state.queued_bytes = state.queued_bytes.saturating_sub(bytes);
            // What a request cap left behind still has to go.
            state.ship = !state.queue.is_empty();
            state.in_flight = true;
            batch
        };

        // One request on the wire: client → broker hop for the whole batch.
        // The span covers the modelled transfer plus the log append — the
        // full client-side cost of the produce request.
        let span = obs.timer(crayfish_obs::Stage::BrokerAppend);
        requests.inc();
        let total_bytes: usize = batch.iter().map(|(_, v, _)| v.len()).sum();
        inner.broker.network().transfer(total_bytes);

        // Group by partition, preserving per-partition order.
        let mut groups: Vec<(u32, Vec<(Bytes, f64)>)> = Vec::new();
        for (p, v, ts) in batch {
            match groups.iter_mut().find(|(gp, _)| *gp == p) {
                Some((_, g)) => g.push((v, ts)),
                None => groups.push((p, vec![(v, ts)])),
            }
        }
        for (p, values) in groups {
            let first_seq = next_seqs.get(&p).copied().unwrap_or(0);
            let n = values.len() as u64;
            // Transient failures (outage windows, lost acks) are retried
            // with backoff; the sequence numbers let the broker drop any
            // records a lost-ack attempt already appended. Terminal
            // failures (the topic can be deleted mid-run in failure tests)
            // drop the batch like a real producer whose delivery fails
            // terminally.
            let outcome = inner.config.retry.run(
                BrokerError::is_transient,
                |_| retries.inc(),
                || {
                    inner.broker.append_dedup(
                        &inner.topic,
                        p,
                        inner.producer_id,
                        first_seq,
                        values.clone(),
                    )
                },
            );
            if outcome.is_err() {
                append_errors.inc();
                records_dropped.add(n);
            }
            // The sequence window advances even over dropped batches so a
            // later batch is never mistaken for a retry of this one.
            next_seqs.insert(p, first_seq + n);
        }
        span.stop();

        let mut state = inner.state.lock();
        state.in_flight = false;
        inner.drained.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crayfish_sim::NetworkModel;

    fn setup(partitions: u32) -> (Arc<Broker>, Producer) {
        let b = Broker::new(NetworkModel::zero());
        b.create_topic("t", partitions).unwrap();
        let p = Producer::new(b.clone(), "t", ProducerConfig::default()).unwrap();
        (b, p)
    }

    #[test]
    fn sends_reach_the_log() {
        let (b, mut p) = setup(1);
        for i in 0..10u8 {
            p.send(Some(0), Bytes::from(vec![i])).unwrap();
        }
        p.flush();
        assert_eq!(b.end_offset("t", 0).unwrap(), 10);
        let recs = b.read("t", 0, 0, 100, usize::MAX).unwrap();
        assert_eq!(recs[3].value[0], 3);
    }

    #[test]
    fn deferred_sends_are_plain_sends_in_process() {
        let (b, mut p) = setup(2);
        for i in 0..10u8 {
            p.send_deferred(None, Bytes::from(vec![i])).unwrap();
        }
        // No flush: an append here is a function call, nothing to save.
        assert!(crayfish_chaos::testkit::poll_until(
            Duration::from_secs(5),
            || b.total_records("t").unwrap() == 10
        ));
    }

    #[test]
    fn round_robin_spreads_partitions() {
        let (b, mut p) = setup(4);
        for _ in 0..8 {
            p.send(None, Bytes::from_static(b"x")).unwrap();
        }
        p.flush();
        for part in 0..4 {
            assert_eq!(b.end_offset("t", part).unwrap(), 2, "partition {part}");
        }
    }

    #[test]
    fn per_partition_order_is_preserved() {
        let (b, mut p) = setup(2);
        for i in 0..100u8 {
            p.send(Some((i % 2) as u32), Bytes::from(vec![i])).unwrap();
        }
        p.flush();
        let recs = b.read("t", 0, 0, 100, usize::MAX).unwrap();
        let vals: Vec<u8> = recs.iter().map(|r| r.value[0]).collect();
        let expect: Vec<u8> = (0..100).filter(|i| i % 2 == 0).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn send_after_close_fails() {
        let (_b, mut p) = setup(1);
        p.close().unwrap();
        assert!(matches!(
            p.send(Some(0), Bytes::from_static(b"x")),
            Err(BrokerError::ProducerClosed)
        ));
    }

    #[test]
    fn rejects_out_of_range_partition() {
        let (_b, mut p) = setup(2);
        assert!(p.send(Some(7), Bytes::from_static(b"x")).is_err());
    }

    #[test]
    fn network_cost_is_paid_per_request_not_per_record() {
        // With a 2 ms/request network, 100 records must ship in far less
        // than 100 * 2 ms thanks to in-flight batching.
        let b = Broker::new(NetworkModel {
            base_latency_s: 0.002,
            bandwidth_bytes_per_s: f64::INFINITY,
        });
        b.create_topic("t", 1).unwrap();
        let mut p = Producer::new(b.clone(), "t", ProducerConfig::default()).unwrap();
        let sw = crayfish_sim::Stopwatch::start();
        for _ in 0..100 {
            p.send(Some(0), Bytes::from_static(b"x")).unwrap();
        }
        p.flush();
        let ms = sw.elapsed_millis();
        assert_eq!(b.end_offset("t", 0).unwrap(), 100);
        assert!(ms < 100.0, "took {ms} ms; batching broken");
        assert!(ms >= 2.0, "took {ms} ms; network model not applied");
    }

    #[test]
    fn drop_flushes_pending_records() {
        let b = Broker::new(NetworkModel::zero());
        b.create_topic("t", 1).unwrap();
        {
            let mut p = Producer::new(b.clone(), "t", ProducerConfig::default()).unwrap();
            for _ in 0..5 {
                p.send(Some(0), Bytes::from_static(b"x")).unwrap();
            }
        } // dropped here
        assert_eq!(b.end_offset("t", 0).unwrap(), 5);
    }

    #[test]
    fn surviving_topic_deletion() {
        let (b, mut p) = setup(1);
        p.send(Some(0), Bytes::from_static(b"x")).unwrap();
        p.flush();
        b.delete_topic("t").unwrap();
        // Further sends are accepted and silently dropped at delivery, like
        // a real producer with terminal delivery errors.
        p.send(Some(0), Bytes::from_static(b"y")).unwrap();
        p.flush();
    }

    fn chaos_setup() -> (Arc<Broker>, Producer, crayfish_chaos::ChaosHandle) {
        let chaos = crayfish_chaos::ChaosHandle::enabled();
        let b = Broker::with_parts(
            NetworkModel::zero(),
            crayfish_obs::ObsHandle::disabled(),
            chaos.clone(),
        );
        b.create_topic("t", 1).unwrap();
        let p = Producer::new(
            b.clone(),
            "t",
            ProducerConfig {
                retry: RetryPolicy::patient(),
                ..Default::default()
            },
        )
        .unwrap();
        (b, p, chaos)
    }

    #[test]
    fn retries_ride_out_an_outage_window() {
        let (b, mut p, chaos) = chaos_setup();
        chaos.set_topic_outage("t", true);
        p.send(Some(0), Bytes::from_static(b"x")).unwrap();
        let c2 = chaos.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            c2.set_topic_outage("t", false);
        });
        p.flush();
        assert_eq!(b.end_offset("t", 0).unwrap(), 1, "record lost to outage");
    }

    #[test]
    fn lost_acks_do_not_duplicate_records() {
        let (b, mut p, chaos) = chaos_setup();
        // Every second append loses its ack: the records land but the
        // producer retries, and the broker's sequence window must swallow
        // every resend.
        chaos.set_net_degrade(Duration::ZERO, 0, 2);
        for i in 0..6u8 {
            p.send(Some(0), Bytes::from(vec![i])).unwrap();
            p.flush();
        }
        chaos.clear_net_degrade();
        assert_eq!(b.end_offset("t", 0).unwrap(), 6, "dedup window broken");
        assert!(chaos.duplicates_dropped() > 0, "no ack was ever lost");
    }
}

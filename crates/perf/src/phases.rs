//! The measured phases: a saturation drain and an open-loop run in slices,
//! both read back from the log after the fact.
//!
//! Nothing but the system under test (and, in the open-loop phase, the one
//! generator thread) runs while a phase is measured: the output topic is
//! read only once the phase is over. Both timestamps a latency needs are
//! already in the log by then — the intended send time inside the payload,
//! the broker's `LogAppendTime` on the output record.

use std::time::Duration;

use bytes::Bytes;

use crayfish::broker::{BrokerApi, Producer, ProducerConfig};
use crayfish::framework::{RunningJob, ScoredBatch};
use crayfish::prelude::ObsHandle;
use crayfish::sim::{now, now_millis_f64};

use crate::load::{run_open_loop, GeneratorReport};
use crate::rig::{fresh_topics, Links, Rig, GROUP};
use crate::verify::Scored;
use crate::workloads::PARTITIONS;
use crate::Result;

/// How long a phase may take before the run gives up on it.
const PHASE_TIMEOUT: Duration = Duration::from_secs(60);

/// Byte cap of one read: large enough for any 500 records of any workload.
pub const READ_MAX_BYTES: usize = 64 << 20;

/// Preloaded appends are cut at this many records or bytes.
const PRELOAD_BATCH_RECORDS: usize = 256;
const PRELOAD_BATCH_BYTES: usize = 1 << 20;

/// One saturation drain.
#[derive(Debug)]
pub struct Drain {
    pub events: u64,
    pub first_id: u64,
    /// `LogAppendTime` of the last output record.
    pub last_append_ms: f64,
    /// `events` over the time from the engine's start (the backlog already
    /// in place) to `last_append_ms`.
    pub eps: f64,
    /// CPU time of this process over the drain, all threads.
    pub cpu_ms: f64,
    pub outputs: Vec<Scored>,
}

/// Append events `first_id .. first_id + count` to `topic`, round-robin by
/// id, in large batches.
fn preload(
    broker: &dyn BrokerApi,
    rig: &Rig,
    topic: &str,
    first_id: u64,
    count: u64,
) -> Result<()> {
    let mut pending: Vec<(Vec<(Bytes, f64)>, usize)> =
        (0..PARTITIONS).map(|_| (Vec::new(), 0)).collect();
    let flush = |p: usize, batch: &mut (Vec<(Bytes, f64)>, usize)| -> Result<()> {
        if !batch.0.is_empty() {
            broker.append(topic, p as u32, std::mem::take(&mut batch.0))?;
            batch.1 = 0;
        }
        Ok(())
    };
    for id in first_id..first_id + count {
        let created_ms = now_millis_f64();
        let payload = rig.payloads.event(id, created_ms);
        let p = (id % u64::from(PARTITIONS)) as usize;
        pending[p].1 += payload.len();
        pending[p].0.push((payload, created_ms));
        if pending[p].0.len() >= PRELOAD_BATCH_RECORDS || pending[p].1 >= PRELOAD_BATCH_BYTES {
            flush(p, &mut pending[p])?;
        }
    }
    for (p, batch) in pending.iter_mut().enumerate() {
        flush(p, batch)?;
    }
    Ok(())
}

/// Wait until `topic` holds `count` records, or [`PHASE_TIMEOUT`] passes:
/// what is missing by then is counted as lost when the topic is read back.
fn await_outputs(broker: &dyn BrokerApi, topic: &str, count: u64) -> Result<()> {
    let deadline = now() + PHASE_TIMEOUT;
    while broker.total_records(topic)? < count && now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// Read a whole topic back, every partition from offset 0.
pub fn read_back(broker: &dyn BrokerApi, topic: &str) -> Result<Vec<Scored>> {
    let mut out = Vec::new();
    for p in 0..PARTITIONS {
        let mut offset = 0;
        loop {
            let records = broker.read(topic, p, offset, 10_000, READ_MAX_BYTES)?;
            let Some(last) = records.last() else { break };
            offset = last.offset + 1;
            for r in &records {
                out.push(Scored {
                    batch: ScoredBatch::decode(&r.value)?,
                    append_ms: r.append_time_ms,
                });
            }
        }
    }
    Ok(out)
}

/// CPU time this process has used so far, all live threads, in ms.
fn process_cpu_ms() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return f64::NAN;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e6
}

/// Saturation service rate: put `count` events into a fresh input topic,
/// start the engine on the backlog, and time it to the last output append.
pub fn drain(rig: &Rig, obs: &ObsHandle, first_id: u64, count: u64) -> Result<Drain> {
    let links = rig.links(obs);
    let (input, output) = fresh_topics();
    rig.create_topics(&links, &input, &output)?;
    preload(links.load.as_ref(), rig, &input, first_id, count)?;

    let cpu_before = process_cpu_ms();
    let job = rig.start_engine(&links, &input, &output)?;
    let started_ms = now_millis_f64();
    let waited = await_outputs(links.load.as_ref(), &output, count);
    let cpu_ms = process_cpu_ms() - cpu_before;
    job.stop();
    waited?;

    let outputs = read_back(links.load.as_ref(), &output)?;
    let last_append_ms = outputs
        .iter()
        .map(|o| o.append_ms)
        .fold(started_ms, f64::max);
    links.load.delete_topic(&input)?;
    links.load.delete_topic(&output)?;
    Ok(Drain {
        events: count,
        first_id,
        last_append_ms,
        eps: count as f64 / ((last_append_ms - started_ms).max(1e-3) / 1e3),
        cpu_ms,
        outputs,
    })
}

/// One slice of an open-loop phase: a fixed number of events on schedule.
#[derive(Debug)]
pub struct Slice {
    pub first_id: u64,
    pub events: u64,
    pub generator: GeneratorReport,
    /// Consumer lag of the engine right after the slice's last send.
    pub backlog_end: u64,
}

/// An open-loop phase in progress: the engine runs, one generator thread
/// (the caller's) offers events slice by slice, and between two slices
/// nothing is due, so the caller can take a reading of the host there.
pub struct OpenLoop<'a> {
    rig: &'a Rig,
    links: Links,
    input: String,
    output: String,
    /// `None` once stopped.
    job: Option<Box<dyn RunningJob>>,
    producer: Producer,
    sent: u64,
}

impl Drop for OpenLoop<'_> {
    /// An error between two slices must not leave the engine running.
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            job.stop();
        }
    }
}

impl<'a> OpenLoop<'a> {
    /// Fresh topics, the engine started on them, a producer connected.
    pub fn start(rig: &'a Rig, obs: &ObsHandle) -> Result<OpenLoop<'a>> {
        let links = rig.links(obs);
        let (input, output) = fresh_topics();
        rig.create_topics(&links, &input, &output)?;
        let producer = Producer::new(links.load.clone(), &input, ProducerConfig::default())?;
        let job = Some(rig.start_engine(&links, &input, &output)?);
        Ok(OpenLoop {
            rig,
            links,
            input,
            output,
            job,
            producer,
            sent: 0,
        })
    }

    /// Offer `count` events at `rate_eps` and wait until every event sent
    /// so far has its output in the log (counted, not read).
    pub fn slice(&mut self, first_id: u64, count: u64, rate_eps: f64) -> Result<Slice> {
        let generator = run_open_loop(
            &mut self.producer,
            &self.rig.payloads,
            PARTITIONS,
            first_id,
            count,
            rate_eps,
        )?;
        self.sent += generator.sent;
        let backlog_end = self.links.load.group_lag(GROUP, &self.input)?;
        await_outputs(self.links.load.as_ref(), &self.output, self.sent)?;
        Ok(Slice {
            first_id,
            events: count,
            generator,
            backlog_end,
        })
    }

    /// Stop the engine and read the whole output topic back.
    pub fn finish(mut self) -> Result<Vec<Scored>> {
        self.producer.flush();
        if let Some(job) = self.job.take() {
            job.stop();
        }
        let outputs = read_back(self.links.load.as_ref(), &self.output)?;
        self.links.load.delete_topic(&self.input)?;
        self.links.load.delete_topic(&self.output)?;
        Ok(outputs)
    }
}

/// Output `LogAppendTime` minus intended send time of the events
/// `first_id .. first_id + events`, in the order they were due.
pub fn latencies_ms(outputs: &[Scored], first_id: u64, events: u64) -> Vec<f64> {
    let mut of_slice: Vec<&Scored> = outputs
        .iter()
        .filter(|o| (first_id..first_id + events).contains(&o.batch.id))
        .collect();
    of_slice.sort_by_key(|o| o.batch.id);
    of_slice
        .iter()
        .map(|o| o.append_ms - o.batch.created_ms)
        .collect()
}

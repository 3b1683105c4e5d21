//! Topics: a fixed set of replicated partition logs plus the long-poll
//! notifier and per-partition replication gauges.
//!
//! The log mechanics (offsets, retention, dedup, replication, elections)
//! live in [`crate::replication`]; this module groups partitions into a
//! named topic and layers the version/condvar handshake long-polling
//! consumers block on.

use bytes::Bytes;
use crayfish_chaos::ChaosHandle;
use crayfish_sync::{Condvar, Mutex};

use crate::cluster::ClusterConfig;
use crate::replication::{ReplError, ReplicatedPartition, ReplicationStatus};

/// Default per-partition retention. Old records are evicted once a
/// partition exceeds this many bytes — the analog of Kafka's size-based log
/// retention, and what keeps hours of offered load from exhausting memory.
pub const DEFAULT_RETENTION_BYTES: usize = 32 * 1024 * 1024;

/// One record as stored in a partition log.
#[derive(Debug, Clone)]
pub(crate) struct StoredRecord {
    pub value: Bytes,
    /// Client-side send time (informational).
    pub produce_time_ms: f64,
    /// Broker-side `LogAppendTime` — the paper's *end* timestamp authority.
    pub append_time_ms: f64,
}

/// One record as returned by a fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchedRecord {
    /// Partition the record came from.
    pub partition: u32,
    /// Offset within the partition.
    pub offset: u64,
    /// Record payload.
    pub value: Bytes,
    /// Client-side send time.
    pub produce_time_ms: f64,
    /// Broker-side `LogAppendTime`.
    pub append_time_ms: f64,
}

/// Per-partition replication gauges, exported when the broker has a live
/// obs handle (all no-op handles otherwise).
#[derive(Debug)]
pub(crate) struct ReplGauges {
    pub isr: crayfish_obs::Gauge,
    pub hw_lag: crayfish_obs::Gauge,
    pub epoch: crayfish_obs::Gauge,
    pub leader: crayfish_obs::Gauge,
}

impl ReplGauges {
    pub fn update(&self, st: &ReplicationStatus) {
        self.isr.set(st.isr as i64);
        self.hw_lag.set(st.max_follower_lag as i64);
        self.epoch.set(st.epoch as i64);
        self.leader.set(st.leader as i64);
    }
}

/// A topic: a fixed set of replicated partitions plus a notifier for
/// long-polls.
#[derive(Debug)]
pub(crate) struct Topic {
    pub partitions: Vec<ReplicatedPartition>,
    /// Bumped on every append; long-polling fetches wait on it.
    pub version: Mutex<u64>,
    pub data_cond: Condvar,
    /// One gauge set per partition when obs is live; empty otherwise.
    pub gauges: Vec<ReplGauges>,
}

impl Topic {
    /// Default-retention single-node constructor (test convenience; the
    /// broker always passes an explicit retention and cluster).
    #[cfg(test)]
    pub fn new(partitions: u32) -> Self {
        Self::with_cluster(
            partitions,
            DEFAULT_RETENTION_BYTES,
            &ClusterConfig::default(),
        )
    }

    pub fn with_cluster(partitions: u32, retention_bytes: usize, cluster: &ClusterConfig) -> Self {
        Topic {
            partitions: (0..partitions)
                .map(|p| {
                    ReplicatedPartition::new(
                        &cluster.replica_set(p),
                        cluster.min_insync_replicas,
                        retention_bytes.max(1),
                    )
                })
                .collect(),
            version: Mutex::new(0),
            data_cond: Condvar::new(),
            gauges: Vec::new(),
        }
    }

    /// Append records to one partition, stamping `LogAppendTime` under the
    /// replication lock and waking long-pollers on success. `fence` and
    /// `dedup` pass through to [`ReplicatedPartition::append`]. Returns
    /// `(first_offset, append_time_ms, duplicates_dropped)`.
    pub fn append(
        &self,
        chaos: &ChaosHandle,
        partition: usize,
        fence: Option<u64>,
        dedup: Option<(u64, u64)>,
        values: Vec<(Bytes, f64)>,
    ) -> Result<(u64, f64, u64), ReplError> {
        let out = self.partitions[partition].append(chaos, fence, dedup, values)?;
        // Wake long-polling fetchers.
        let mut v = self.version.lock();
        *v += 1;
        self.data_cond.notify_all();
        drop(v);
        if let Some(g) = self.gauges.get(partition) {
            g.update(&self.partitions[partition].status());
        }
        Ok(out)
    }

    /// Visible end of a partition: its high watermark. Records past it
    /// (none, under synchronous replication) would be uncommitted.
    pub fn end_offset(&self, partition: usize) -> u64 {
        self.partitions[partition].high_watermark()
    }

    /// Offset of the earliest retained record.
    pub fn start_offset(&self, partition: usize) -> u64 {
        self.partitions[partition].start_offset()
    }

    /// Read up to `max_records`/`max_bytes` committed records from
    /// `partition` starting at `offset`. Returns an empty vector when
    /// nothing is available (including a leaderless partition, which reads
    /// as "no data yet").
    pub fn read(
        &self,
        chaos: &ChaosHandle,
        partition: usize,
        offset: u64,
        max_records: usize,
        max_bytes: usize,
    ) -> Vec<FetchedRecord> {
        self.partitions[partition].read(chaos, partition as u32, offset, max_records, max_bytes)
    }

    /// Block until the topic's version exceeds `seen` or the deadline
    /// passes; returns the current version.
    ///
    /// The predicate is re-checked in a loop: a wakeup only counts once the
    /// version has actually moved past `seen`, so spurious wakeups and
    /// notifications for appends the caller already observed cannot end the
    /// long-poll early. The loom model in `tests/loom.rs` checks the
    /// append/wait handshake for lost wakeups.
    pub fn wait_for_data(&self, seen: u64, timeout: std::time::Duration) -> u64 {
        let deadline = crayfish_sim::now() + timeout;
        let mut v = self.version.lock();
        while *v <= seen {
            let remaining = deadline.saturating_duration_since(crayfish_sim::now());
            if remaining.is_zero() {
                break;
            }
            let (guard, timed_out) = self.data_cond.wait_timeout(v, remaining);
            v = guard;
            if timed_out {
                break;
            }
        }
        *v
    }

    /// Current version counter.
    pub fn current_version(&self) -> u64 {
        *self.version.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Plain append on a healthy single-node topic (the pre-replication
    /// call shape most tests want).
    fn append(t: &Topic, partition: usize, values: Vec<(Bytes, f64)>) -> (u64, f64) {
        let (off, ts, _) = t
            .append(&ChaosHandle::disabled(), partition, None, None, values)
            .unwrap();
        (off, ts)
    }

    fn append_dedup(
        t: &Topic,
        partition: usize,
        producer_id: u64,
        first_seq: u64,
        values: Vec<(Bytes, f64)>,
    ) -> (u64, f64, u64) {
        t.append(
            &ChaosHandle::disabled(),
            partition,
            None,
            Some((producer_id, first_seq)),
            values,
        )
        .unwrap()
    }

    fn read(
        t: &Topic,
        partition: usize,
        offset: u64,
        max_r: usize,
        max_b: usize,
    ) -> Vec<FetchedRecord> {
        t.read(&ChaosHandle::disabled(), partition, offset, max_r, max_b)
    }

    #[test]
    fn append_assigns_contiguous_offsets() {
        let t = Topic::new(2);
        let (o1, _) = append(&t, 0, vec![(Bytes::from_static(b"a"), 1.0)]);
        let (o2, _) = append(
            &t,
            0,
            vec![
                (Bytes::from_static(b"b"), 2.0),
                (Bytes::from_static(b"c"), 3.0),
            ],
        );
        assert_eq!(o1, 0);
        assert_eq!(o2, 1);
        assert_eq!(t.end_offset(0), 3);
        assert_eq!(t.end_offset(1), 0);
    }

    #[test]
    fn append_time_is_monotonic_per_partition() {
        let t = Topic::new(1);
        let (_, t1) = append(&t, 0, vec![(Bytes::from_static(b"a"), 0.0)]);
        let (_, t2) = append(&t, 0, vec![(Bytes::from_static(b"b"), 0.0)]);
        assert!(t2 >= t1);
    }

    #[test]
    fn read_respects_limits_but_always_progresses() {
        let t = Topic::new(1);
        let big = Bytes::from(vec![0u8; 1000]);
        append(
            &t,
            0,
            vec![(big.clone(), 0.0), (big.clone(), 0.0), (big, 0.0)],
        );
        // max_bytes smaller than one record: still returns one.
        let r = read(&t, 0, 0, 10, 10);
        assert_eq!(r.len(), 1);
        // max_bytes fits two.
        let r = read(&t, 0, 0, 10, 2000);
        assert_eq!(r.len(), 2);
        // max_records caps.
        let r = read(&t, 0, 0, 1, usize::MAX);
        assert_eq!(r.len(), 1);
        // Reading past the end yields nothing.
        assert!(read(&t, 0, 3, 10, usize::MAX).is_empty());
    }

    #[test]
    fn offsets_in_fetched_records_are_correct() {
        let t = Topic::new(1);
        append(
            &t,
            0,
            vec![
                (Bytes::from_static(b"a"), 0.0),
                (Bytes::from_static(b"b"), 0.0),
            ],
        );
        let r = read(&t, 0, 1, 10, usize::MAX);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].offset, 1);
        assert_eq!(&r[0].value[..], b"b");
    }

    #[test]
    fn wait_for_data_wakes_on_append() {
        use std::sync::Arc;
        let t = Arc::new(Topic::new(1));
        let seen = t.current_version();
        let t2 = t.clone();
        let h =
            std::thread::spawn(move || t2.wait_for_data(seen, std::time::Duration::from_secs(5)));
        std::thread::sleep(std::time::Duration::from_millis(20));
        append(&t, 0, vec![(Bytes::from_static(b"x"), 0.0)]);
        let v = h.join().unwrap();
        assert!(v > seen);
    }

    #[test]
    fn retention_evicts_old_records_and_offsets_survive() {
        let t = Topic::with_cluster(1, 2500, &ClusterConfig::default());
        let rec = Bytes::from(vec![0u8; 1000]);
        for _ in 0..5 {
            append(&t, 0, vec![(rec.clone(), 0.0)]);
        }
        // Cap is 2500 bytes -> at most 2 retained records.
        assert_eq!(t.end_offset(0), 5);
        assert_eq!(t.start_offset(0), 3);
        // Reading from an evicted offset resumes at the horizon.
        let r = read(&t, 0, 0, 10, usize::MAX);
        assert_eq!(r.first().unwrap().offset, 3);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn retention_never_evicts_the_last_record() {
        let t = Topic::with_cluster(1, 10, &ClusterConfig::default());
        append(&t, 0, vec![(Bytes::from(vec![0u8; 1000]), 0.0)]);
        assert_eq!(t.end_offset(0), 1);
        assert_eq!(t.start_offset(0), 0);
        let r = read(&t, 0, 0, 10, usize::MAX);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn dedup_drops_resent_prefix() {
        let t = Topic::new(1);
        let batch = vec![
            (Bytes::from_static(b"a"), 0.0),
            (Bytes::from_static(b"b"), 0.0),
        ];
        let (o1, _, d1) = append_dedup(&t, 0, 7, 0, batch.clone());
        assert_eq!((o1, d1), (0, 0));
        // Full re-send (lost ack): everything is a duplicate.
        let (_, _, d2) = append_dedup(&t, 0, 7, 0, batch.clone());
        assert_eq!(d2, 2);
        assert_eq!(t.end_offset(0), 2);
        // Partial overlap: one duplicate, one new.
        let (_, _, d3) = append_dedup(
            &t,
            0,
            7,
            1,
            vec![
                (Bytes::from_static(b"b"), 0.0),
                (Bytes::from_static(b"c"), 0.0),
            ],
        );
        assert_eq!(d3, 1);
        assert_eq!(t.end_offset(0), 3);
        let vals: Vec<u8> = read(&t, 0, 0, 10, usize::MAX)
            .iter()
            .map(|r| r.value[0])
            .collect();
        assert_eq!(vals, b"abc".to_vec());
    }

    #[test]
    fn dedup_windows_are_per_producer_and_partition() {
        let t = Topic::new(2);
        let rec = vec![(Bytes::from_static(b"x"), 0.0)];
        append_dedup(&t, 0, 1, 0, rec.clone());
        // Different producer, same sequence range: not a duplicate.
        let (_, _, d) = append_dedup(&t, 0, 2, 0, rec.clone());
        assert_eq!(d, 0);
        // Same producer, different partition: independent window.
        let (_, _, d) = append_dedup(&t, 1, 1, 0, rec.clone());
        assert_eq!(d, 0);
        assert_eq!(t.end_offset(0), 2);
        assert_eq!(t.end_offset(1), 1);
    }

    #[test]
    fn dedup_accepts_gaps_after_dropped_batches() {
        let t = Topic::new(1);
        let rec = vec![(Bytes::from_static(b"x"), 0.0)];
        append_dedup(&t, 0, 1, 0, rec.clone());
        // The producer dropped sequences 1..3 (retry budget exhausted) and
        // moved on; the gap is accepted.
        let (_, _, d) = append_dedup(&t, 0, 1, 3, rec.clone());
        assert_eq!(d, 0);
        assert_eq!(t.end_offset(0), 2);
        // Re-sending the gap region now IS a duplicate (window advanced).
        let (_, _, d) = append_dedup(&t, 0, 1, 2, rec.clone());
        assert_eq!(d, 1);
    }

    #[test]
    fn wait_for_data_times_out() {
        let t = Topic::new(1);
        let v0 = t.current_version();
        let sw = crayfish_sim::Stopwatch::start();
        let v = t.wait_for_data(v0, std::time::Duration::from_millis(30));
        assert_eq!(v, v0);
        assert!(sw.elapsed_millis() >= 25.0);
    }

    #[test]
    fn replicated_topic_places_partitions_round_robin() {
        let t = Topic::with_cluster(4, DEFAULT_RETENTION_BYTES, &ClusterConfig::replicated());
        assert_eq!(t.partitions[0].status().leader, 0);
        assert_eq!(t.partitions[1].status().leader, 1);
        assert_eq!(t.partitions[2].status().leader, 2);
        assert_eq!(t.partitions[3].status().leader, 0);
        assert_eq!(t.partitions[0].status().replicas, 3);
    }
}

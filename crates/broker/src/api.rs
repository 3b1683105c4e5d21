//! The broker API seam: one trait covering every operation the client
//! abstractions ([`crate::Producer`], [`crate::PartitionConsumer`],
//! [`crate::GroupConsumer`]) need from a broker.
//!
//! Two implementations exist: the in-process [`Broker`] (this crate's
//! original single-process cluster model) and [`crate::rpc::RemoteBroker`],
//! which speaks the same operations as typed RPCs over a
//! [`crayfish_net::Transport`]. Clients are written against
//! `Arc<dyn BrokerApi>`, so the same producer/consumer code runs unchanged
//! whether the broker lives in the same process or across a socket —
//! the in-proc/TCP equivalence the transport drills assert.
//!
//! Every method returns [`crate::Result`], including operations that are
//! infallible in-process (`commit_offset`, `join_group`, …): over a wire
//! they can fail with [`crate::BrokerError::Transport`], and the error
//! taxonomy must be identical on both sides of the seam.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;

use crayfish_sim::NetworkModel;

use crate::broker::Broker;
use crate::replication::ReplicationStatus;
use crate::topic::FetchedRecord;
use crate::Result;

/// Everything a broker client can ask of a broker, local or remote.
pub trait BrokerApi: Send + Sync + std::fmt::Debug {
    /// Create a topic with `partitions` partitions and default retention.
    fn create_topic(&self, name: &str, partitions: u32) -> Result<()>;

    /// Create a topic with an explicit per-partition retention cap.
    fn create_topic_with_retention(
        &self,
        name: &str,
        partitions: u32,
        retention_bytes: usize,
    ) -> Result<()>;

    /// Delete a topic.
    fn delete_topic(&self, name: &str) -> Result<()>;

    /// Number of partitions of a topic.
    fn partitions(&self, topic: &str) -> Result<u32>;

    /// Offset of the earliest retained record of a partition.
    fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64>;

    /// Visible (committed) end offset of one partition.
    fn end_offset(&self, topic: &str, partition: u32) -> Result<u64>;

    /// Sum of committed end offsets across all partitions.
    fn total_records(&self, topic: &str) -> Result<u64>;

    /// Append records; returns the first assigned offset and the
    /// `LogAppendTime` stamp.
    fn append(&self, topic: &str, partition: u32, values: Vec<(Bytes, f64)>) -> Result<(u64, f64)>;

    /// Idempotent append fenced by producer id + sequence number.
    fn append_dedup(
        &self,
        topic: &str,
        partition: u32,
        producer_id: u64,
        first_seq: u64,
        values: Vec<(Bytes, f64)>,
    ) -> Result<(u64, f64)>;

    /// Read committed records from one partition.
    fn read(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        max_bytes: usize,
    ) -> Result<Vec<FetchedRecord>>;

    /// Replication status of every partition of a topic.
    fn replication_status(&self, topic: &str) -> Result<Vec<ReplicationStatus>>;

    /// Commit a consumer group's next-offset for a partition (monotonic).
    fn commit_offset(&self, group: &str, topic: &str, partition: u32, next: u64) -> Result<()>;

    /// The committed next-offset for a group/partition (0 if none).
    fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Result<u64>;

    /// Total consumer lag of a group over a topic.
    fn group_lag(&self, group: &str, topic: &str) -> Result<u64>;

    /// Join a consumer group; returns the generation joined at.
    fn join_group(&self, group: &str, member: &str) -> Result<u64>;

    /// Leave a consumer group.
    fn leave_group(&self, group: &str, member: &str) -> Result<()>;

    /// Current generation of a group (0 if never joined).
    fn group_generation(&self, group: &str) -> Result<u64>;

    /// The partitions of `topic` assigned to `member` under the group's
    /// current generation.
    fn group_assignment(&self, group: &str, topic: &str, member: &str) -> Result<Vec<u32>>;

    /// Commit a member's offsets, fenced by its generation.
    fn commit_offsets_fenced(
        &self,
        group: &str,
        topic: &str,
        member: &str,
        generation: u64,
        offsets: &HashMap<u32, u64>,
    ) -> Result<()>;

    /// Current long-poll version counter of a topic (bumped per append).
    fn topic_version(&self, topic: &str) -> Result<u64>;

    /// Block until the topic's version exceeds `seen` or the timeout
    /// passes; returns the version last observed.
    fn wait_for_data(&self, topic: &str, seen: u64, timeout: Duration) -> Result<u64>;

    /// The observability handle clients of this broker record into.
    fn obs(&self) -> &crayfish_obs::ObsHandle;

    /// The chaos handle clients of this broker consult for fault windows.
    fn chaos(&self) -> &crayfish_chaos::ChaosHandle;

    /// The modelled network clients of this broker should apply per
    /// request. Remote brokers return [`NetworkModel::zero`]: their cost is
    /// the real wire.
    fn network(&self) -> NetworkModel;

    /// Whether a request to this broker is a round trip over a transport
    /// rather than a function call. Clients use it to decide what is worth
    /// saving requests for ([`crate::Producer::send_deferred`]).
    fn is_remote(&self) -> bool {
        false
    }
}

impl BrokerApi for Broker {
    fn create_topic(&self, name: &str, partitions: u32) -> Result<()> {
        Broker::create_topic(self, name, partitions)
    }

    fn create_topic_with_retention(
        &self,
        name: &str,
        partitions: u32,
        retention_bytes: usize,
    ) -> Result<()> {
        Broker::create_topic_with_retention(self, name, partitions, retention_bytes)
    }

    fn delete_topic(&self, name: &str) -> Result<()> {
        Broker::delete_topic(self, name)
    }

    fn partitions(&self, topic: &str) -> Result<u32> {
        Broker::partitions(self, topic)
    }

    fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        Broker::earliest_offset(self, topic, partition)
    }

    fn end_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        Broker::end_offset(self, topic, partition)
    }

    fn total_records(&self, topic: &str) -> Result<u64> {
        Broker::total_records(self, topic)
    }

    fn append(&self, topic: &str, partition: u32, values: Vec<(Bytes, f64)>) -> Result<(u64, f64)> {
        Broker::append(self, topic, partition, values)
    }

    fn append_dedup(
        &self,
        topic: &str,
        partition: u32,
        producer_id: u64,
        first_seq: u64,
        values: Vec<(Bytes, f64)>,
    ) -> Result<(u64, f64)> {
        Broker::append_dedup(self, topic, partition, producer_id, first_seq, values)
    }

    fn read(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        max_bytes: usize,
    ) -> Result<Vec<FetchedRecord>> {
        Broker::read(self, topic, partition, offset, max_records, max_bytes)
    }

    fn replication_status(&self, topic: &str) -> Result<Vec<ReplicationStatus>> {
        Broker::replication_status(self, topic)
    }

    fn commit_offset(&self, group: &str, topic: &str, partition: u32, next: u64) -> Result<()> {
        Broker::commit_offset(self, group, topic, partition, next);
        Ok(())
    }

    fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Result<u64> {
        Ok(Broker::committed_offset(self, group, topic, partition))
    }

    fn group_lag(&self, group: &str, topic: &str) -> Result<u64> {
        Broker::group_lag(self, group, topic)
    }

    fn join_group(&self, group: &str, member: &str) -> Result<u64> {
        Ok(Broker::join_group(self, group, member))
    }

    fn leave_group(&self, group: &str, member: &str) -> Result<()> {
        Broker::leave_group(self, group, member);
        Ok(())
    }

    fn group_generation(&self, group: &str) -> Result<u64> {
        Ok(Broker::group_generation(self, group))
    }

    fn group_assignment(&self, group: &str, topic: &str, member: &str) -> Result<Vec<u32>> {
        Broker::group_assignment(self, group, topic, member)
    }

    fn commit_offsets_fenced(
        &self,
        group: &str,
        topic: &str,
        member: &str,
        generation: u64,
        offsets: &HashMap<u32, u64>,
    ) -> Result<()> {
        Broker::commit_offsets_fenced(self, group, topic, member, generation, offsets)
    }

    fn topic_version(&self, topic: &str) -> Result<u64> {
        Ok(self.topic(topic)?.current_version())
    }

    fn wait_for_data(&self, topic: &str, seen: u64, timeout: Duration) -> Result<u64> {
        Ok(self.topic(topic)?.wait_for_data(seen, timeout))
    }

    fn obs(&self) -> &crayfish_obs::ObsHandle {
        Broker::obs(self)
    }

    fn chaos(&self) -> &crayfish_chaos::ChaosHandle {
        Broker::chaos(self)
    }

    fn network(&self) -> NetworkModel {
        Broker::network(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn broker_coerces_to_the_api_object() {
        let b: Arc<dyn BrokerApi> = Broker::new(NetworkModel::zero());
        b.create_topic("t", 2).unwrap();
        assert_eq!(b.partitions("t").unwrap(), 2);
        let (off, _) = b
            .append("t", 0, vec![(Bytes::from_static(b"x"), 0.0)])
            .unwrap();
        assert_eq!(off, 0);
        assert_eq!(b.topic_version("t").unwrap(), 1);
        assert_eq!(b.read("t", 0, 0, 10, usize::MAX).unwrap().len(), 1);
        assert_eq!(b.wait_for_data("t", 0, Duration::ZERO).unwrap(), 1);
    }
}

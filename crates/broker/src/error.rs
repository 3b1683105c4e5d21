//! Broker error type.

use std::fmt;

/// Errors returned by broker operations.
///
/// A broker-side failure round-trips *typed* through the RPC layer
/// ([`crate::wire`] gives every variant an error code and encodes its
/// fields): a remote client matching on [`BrokerError::FencedLeaderEpoch`]
/// or [`BrokerError::NotEnoughReplicas`] sees exactly the variant (and
/// fields) the broker produced, never a stringified copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrokerError {
    /// The topic does not exist.
    UnknownTopic(String),
    /// The partition index is out of range for the topic.
    UnknownPartition {
        /// Topic name.
        topic: String,
        /// Requested partition.
        partition: u32,
    },
    /// A topic with this name already exists.
    TopicExists(String),
    /// The producer has been closed.
    ProducerClosed,
    /// A fetch referenced an offset beyond the log end (only possible with
    /// explicit seeks).
    OffsetOutOfRange {
        /// Topic name.
        topic: String,
        /// Partition.
        partition: u32,
        /// Requested offset.
        offset: u64,
        /// Current log end.
        end: u64,
    },
    /// The topic's partitions are temporarily unavailable (fault injection:
    /// a partition-outage window, or a lost append ack). Transient — safe
    /// to retry.
    Unavailable {
        /// Topic name.
        topic: String,
        /// Partition.
        partition: u32,
    },
    /// A client-side fabric failure: a producer sender thread could not be
    /// spawned or panicked. Terminal for the client that hit it.
    Fabric(String),
    /// The append carried a stale leader epoch: an election happened after
    /// the producer fetched metadata. Transient — refresh and retry lands
    /// on the new leader (where the replicated dedup window still applies).
    FencedLeaderEpoch {
        /// Topic name.
        topic: String,
        /// Partition.
        partition: u32,
        /// The epoch currently in force.
        current: u64,
    },
    /// Fewer in-sync replicas than `min.insync.replicas`: the append was
    /// refused rather than risk losing it on the next failover. Transient —
    /// retried once a replica node returns and catches up.
    NotEnoughReplicas {
        /// Topic name.
        topic: String,
        /// Partition.
        partition: u32,
        /// Current ISR size.
        isr: u32,
        /// Required minimum.
        min_isr: u32,
    },
    /// A replication configuration that cannot be laid out (for example a
    /// replication factor above the broker count).
    InvalidCluster(String),
    /// A group operation raced a membership change: the caller's generation
    /// is stale. Rejoin/re-fetch the assignment and retry.
    RebalanceInProgress {
        /// Consumer group.
        group: String,
    },
    /// The caller is not (or no longer) a member of the consumer group.
    NotGroupMember {
        /// Consumer group.
        group: String,
        /// Member id.
        member: String,
    },
    /// The node that received the request is not the cluster leader
    /// (multi-process deployment). Transient — the client re-discovers the
    /// leader and retries.
    NotLeader {
        /// The epoch the node last observed.
        epoch: u64,
    },
    /// The RPC transport failed before a broker-side answer arrived
    /// (connection refused/reset, malformed frame). Transient — clients
    /// retry, and the broker's dedup window absorbs any append whose first
    /// attempt actually landed.
    Transport(String),
}

impl BrokerError {
    /// Whether retrying the operation can succeed. Producers retry
    /// transient errors with backoff; everything else is terminal.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            BrokerError::Unavailable { .. }
                | BrokerError::FencedLeaderEpoch { .. }
                | BrokerError::NotEnoughReplicas { .. }
                | BrokerError::NotLeader { .. }
                | BrokerError::Transport(_)
        )
    }
}

impl fmt::Display for BrokerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BrokerError::UnknownTopic(t) => write!(f, "unknown topic: {t}"),
            BrokerError::UnknownPartition { topic, partition } => {
                write!(f, "unknown partition {partition} of topic {topic}")
            }
            BrokerError::TopicExists(t) => write!(f, "topic already exists: {t}"),
            BrokerError::ProducerClosed => write!(f, "producer closed"),
            BrokerError::OffsetOutOfRange {
                topic,
                partition,
                offset,
                end,
            } => write!(
                f,
                "offset {offset} out of range for {topic}/{partition} (log end {end})"
            ),
            BrokerError::Unavailable { topic, partition } => {
                write!(f, "partition {partition} of topic {topic} unavailable")
            }
            BrokerError::Fabric(msg) => write!(f, "client fabric failure: {msg}"),
            BrokerError::FencedLeaderEpoch {
                topic,
                partition,
                current,
            } => write!(
                f,
                "stale leader epoch for {topic}/{partition} (current epoch {current})"
            ),
            BrokerError::NotEnoughReplicas {
                topic,
                partition,
                isr,
                min_isr,
            } => write!(
                f,
                "{topic}/{partition} has {isr} in-sync replicas, {min_isr} required"
            ),
            BrokerError::InvalidCluster(msg) => write!(f, "invalid cluster config: {msg}"),
            BrokerError::RebalanceInProgress { group } => {
                write!(f, "group {group} is rebalancing; generation is stale")
            }
            BrokerError::NotGroupMember { group, member } => {
                write!(f, "{member} is not a member of group {group}")
            }
            BrokerError::NotLeader { epoch } => {
                write!(f, "node is not the cluster leader (epoch {epoch})")
            }
            BrokerError::Transport(msg) => write!(f, "broker transport failure: {msg}"),
        }
    }
}

impl std::error::Error for BrokerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_topic() {
        assert!(BrokerError::UnknownTopic("in".into())
            .to_string()
            .contains("in"));
    }

    #[test]
    fn replication_rejections_are_transient_membership_is_not() {
        assert!(BrokerError::Unavailable {
            topic: "in".into(),
            partition: 0
        }
        .is_transient());
        assert!(BrokerError::FencedLeaderEpoch {
            topic: "in".into(),
            partition: 0,
            current: 3
        }
        .is_transient());
        assert!(BrokerError::NotEnoughReplicas {
            topic: "in".into(),
            partition: 0,
            isr: 1,
            min_isr: 2
        }
        .is_transient());
        assert!(BrokerError::NotLeader { epoch: 1 }.is_transient());
        assert!(BrokerError::Transport("reset".into()).is_transient());
        assert!(!BrokerError::UnknownTopic("in".into()).is_transient());
        assert!(!BrokerError::ProducerClosed.is_transient());
        assert!(!BrokerError::RebalanceInProgress { group: "g".into() }.is_transient());
        assert!(!BrokerError::NotGroupMember {
            group: "g".into(),
            member: "m".into()
        }
        .is_transient());
    }
}

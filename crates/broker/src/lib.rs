//! # crayfish-broker
//!
//! An in-process analog of the paper's Apache Kafka cluster.
//!
//! Crayfish (§3.5 "Message Brokers") decouples the input generator and the
//! metrics pipeline from the system under test with a persistent
//! publish-subscribe broker, and uses the broker's **LogAppendTime** as the
//! authoritative *end* timestamp of every scored batch. This crate
//! reproduces the parts of Kafka that shape those measurements:
//!
//! * topics split into partitions, each an ordered append log with
//!   monotonically increasing offsets;
//! * `LogAppendTime` stamping under the partition lock;
//! * a [`producer::Producer`] that accumulates records and ships them in
//!   batches (Kafka's sender-thread behaviour: requests in flight batch
//!   whatever accumulated meanwhile), paying one modelled network hop per
//!   request;
//! * a [`consumer::PartitionConsumer`] with long-poll fetches, fetch-size
//!   limits, and committed offsets per consumer group;
//! * per-partition **replicated logs** across a modelled node cluster —
//!   leader/follower replicas, ISR tracking, a high watermark gating
//!   visibility, leader-epoch fencing, and deterministic failover (see
//!   [`replication`] and [`cluster`]);
//! * a broker-side consumer-group coordinator with generation-fenced
//!   commits and rebalancing ([`consumer::GroupConsumer`]).
//!
//! The network between clients and the broker is the calibrated
//! [`crayfish_sim::NetworkModel`] (the paper's 1 Gbps GCP LAN); pass
//! [`crayfish_sim::NetworkModel::zero`] to place a client "inside" the
//! broker machine.

#![forbid(unsafe_code)]

pub mod api;
pub mod broker;
pub mod cluster;
pub mod consumer;
pub mod error;
pub mod node;
pub mod producer;
pub mod replication;
pub mod rpc;
pub mod topic;
pub mod wire;

pub use api::BrokerApi;
pub use broker::Broker;
pub use cluster::{BrokerId, ClusterConfig};
pub use consumer::{GroupConsumer, PartitionConsumer};
pub use error::BrokerError;
pub use node::{connect_cluster, probe_node, BrokerNode, ClusterTransport, NodeStatus};
pub use producer::{Producer, ProducerConfig};
pub use replication::{ReplicatedPartition, ReplicationStatus};
pub use rpc::RemoteBroker;
pub use topic::FetchedRecord;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BrokerError>;

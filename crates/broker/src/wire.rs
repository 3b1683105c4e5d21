//! The broker's wire format: one binary layout for every frame a broker
//! process sends or receives.
//!
//! A frame is the payload of one `crayfish-net` length-prefixed message.
//! Client operations and the inter-node replication protocol share one
//! opcode space, so a node decodes whatever arrives exactly once:
//!
//! ```text
//! request = opcode:u8 ++ fields            (see `Request`, field order = wire order)
//! reply   = 0:u8 ++ kind:u8 ++ fields      (success, see `Response`)
//!         | 1:u8 ++ code:u8 ++ fields      (failure: the typed `BrokerError`)
//!
//! scalars   fixed-width little-endian; f64 as its IEEE-754 bits; bool as 0/1
//! str       len:u32 ++ utf-8
//! opt<T>    flag:u8 (0/1) ++ T             (T zeroed when absent: the layout is fixed)
//! pairs     count:u32 ++ (partition:u32 ++ offset:u64)*
//! records   count:u32 ++ (produce_time_ms:f64 ++ len:u32 ++ bytes)*
//! fetched   count:u32 ++ (partition:u32 ++ offset:u64 ++ produce_time_ms:f64
//!                         ++ append_time_ms:f64 ++ len:u32 ++ bytes)*
//! ```
//!
//! Record bytes are copied into a frame once, by the side that sends it,
//! and never again: [`Request::decode`] and [`decode_reply`] hand out
//! [`Bytes::slice`]s of the frame they were given. A decoder is total —
//! any byte string either decodes or yields a typed
//! [`BrokerError::Transport`] — and checks every count against the bytes
//! that remain before it allocates for it.

use std::borrow::Cow;

use bytes::Bytes;

use crate::error::BrokerError;
use crate::node::NodeStatus;
use crate::replication::ReplicationStatus;
use crate::topic::FetchedRecord;
use crate::Result;

/// Largest frame the transport carries.
pub use crayfish_net::MAX_FRAME_BYTES;

/// One record of an append: payload and client-side send time.
pub type Record = (Bytes, f64);

mod op {
    pub const CREATE_TOPIC: u8 = 1;
    pub const DELETE_TOPIC: u8 = 2;
    pub const PARTITIONS: u8 = 3;
    pub const EARLIEST_OFFSET: u8 = 4;
    pub const END_OFFSET: u8 = 5;
    pub const TOTAL_RECORDS: u8 = 6;
    pub const APPEND: u8 = 7;
    pub const READ: u8 = 8;
    pub const REPLICATION_STATUS: u8 = 9;
    pub const COMMIT_OFFSET: u8 = 10;
    pub const COMMITTED_OFFSET: u8 = 11;
    pub const GROUP_LAG: u8 = 12;
    pub const JOIN_GROUP: u8 = 13;
    pub const LEAVE_GROUP: u8 = 14;
    pub const GROUP_GENERATION: u8 = 15;
    pub const GROUP_ASSIGNMENT: u8 = 16;
    pub const COMMIT_OFFSETS_FENCED: u8 = 17;
    pub const TOPIC_VERSION: u8 = 18;
    pub const WAIT_FOR_DATA: u8 = 19;
    pub const PING: u8 = 20;
    pub const REPLICATE: u8 = 0x40;
    pub const REPLICATE_CREATE_TOPIC: u8 = 0x41;
    pub const REPLICATE_DELETE_TOPIC: u8 = 0x42;
    pub const REPLICATE_COMMITS: u8 = 0x43;
    pub const PROMOTE: u8 = 0x44;
    pub const STATUS: u8 = 0x45;
}

mod kind {
    pub const UNIT: u8 = 1;
    pub const COUNT: u8 = 2;
    pub const OFFSET: u8 = 3;
    pub const APPENDED: u8 = 4;
    pub const RECORDS: u8 = 5;
    pub const STATUS: u8 = 6;
    pub const ASSIGNMENT: u8 = 7;
    pub const PONG: u8 = 8;
    pub const ACK: u8 = 0x40;
    pub const MISMATCH: u8 = 0x41;
    pub const FENCED: u8 = 0x42;
    pub const PROMOTED: u8 = 0x43;
    pub const NODE: u8 = 0x44;
}

mod code {
    pub const UNKNOWN_TOPIC: u8 = 1;
    pub const UNKNOWN_PARTITION: u8 = 2;
    pub const TOPIC_EXISTS: u8 = 3;
    pub const PRODUCER_CLOSED: u8 = 4;
    pub const OFFSET_OUT_OF_RANGE: u8 = 5;
    pub const UNAVAILABLE: u8 = 6;
    pub const FABRIC: u8 = 7;
    pub const FENCED_LEADER_EPOCH: u8 = 8;
    pub const NOT_ENOUGH_REPLICAS: u8 = 9;
    pub const INVALID_CLUSTER: u8 = 10;
    pub const REBALANCE_IN_PROGRESS: u8 = 11;
    pub const NOT_GROUP_MEMBER: u8 = 12;
    pub const NOT_LEADER: u8 = 13;
    pub const TRANSPORT: u8 = 14;
}

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Encoded size of an empty record of each section: what a decoder holds a
/// count against before it allocates.
const RECORD_HEADER: usize = 8 + 4;
const FETCHED_HEADER: usize = 4 + 8 + 8 + 8 + 4;
const PAIR_BYTES: usize = 4 + 8;
const REPLICATION_STATUS_BYTES: usize = 4 + 8 + 8 + 4 + 4 + 8 + 8 + 8 + 8;

/// Every operation a broker process answers: the [`crate::BrokerApi`]
/// operations a client sends, then the replication protocol a leader
/// speaks to its followers. Strings borrow from the caller (encoding) or
/// from the frame (decoding).
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// `create_topic` / `create_topic_with_retention`.
    CreateTopic {
        /// Topic name.
        name: &'a str,
        /// Partition count.
        partitions: u32,
        /// Retention override (`None` = default).
        retention_bytes: Option<u64>,
    },
    /// `delete_topic`.
    DeleteTopic {
        /// Topic name.
        name: &'a str,
    },
    /// `partitions`.
    Partitions {
        /// Topic name.
        topic: &'a str,
    },
    /// `earliest_offset`.
    EarliestOffset {
        /// Topic name.
        topic: &'a str,
        /// Partition.
        partition: u32,
    },
    /// `end_offset`.
    EndOffset {
        /// Topic name.
        topic: &'a str,
        /// Partition.
        partition: u32,
    },
    /// `total_records`.
    TotalRecords {
        /// Topic name.
        topic: &'a str,
    },
    /// `append` (`dedup` absent) / `append_dedup`.
    Append {
        /// Topic name.
        topic: &'a str,
        /// Partition.
        partition: u32,
        /// `(producer_id, first_seq)` of the producer's dedup window.
        dedup: Option<(u64, u64)>,
        /// The batch.
        records: Cow<'a, [Record]>,
    },
    /// `read`.
    Read {
        /// Topic name.
        topic: &'a str,
        /// Partition.
        partition: u32,
        /// Start offset.
        offset: u64,
        /// Record cap.
        max_records: u64,
        /// Byte cap.
        max_bytes: u64,
    },
    /// `replication_status`.
    ReplicationStatus {
        /// Topic name.
        topic: &'a str,
    },
    /// `commit_offset`.
    CommitOffset {
        /// Consumer group.
        group: &'a str,
        /// Topic name.
        topic: &'a str,
        /// Partition.
        partition: u32,
        /// Next offset to read.
        next: u64,
    },
    /// `committed_offset`.
    CommittedOffset {
        /// Consumer group.
        group: &'a str,
        /// Topic name.
        topic: &'a str,
        /// Partition.
        partition: u32,
    },
    /// `group_lag`.
    GroupLag {
        /// Consumer group.
        group: &'a str,
        /// Topic name.
        topic: &'a str,
    },
    /// `join_group`.
    JoinGroup {
        /// Consumer group.
        group: &'a str,
        /// Member id.
        member: &'a str,
    },
    /// `leave_group`.
    LeaveGroup {
        /// Consumer group.
        group: &'a str,
        /// Member id.
        member: &'a str,
    },
    /// `group_generation`.
    GroupGeneration {
        /// Consumer group.
        group: &'a str,
    },
    /// `group_assignment`.
    GroupAssignment {
        /// Consumer group.
        group: &'a str,
        /// Topic name.
        topic: &'a str,
        /// Member id.
        member: &'a str,
    },
    /// `commit_offsets_fenced`.
    CommitOffsetsFenced {
        /// Consumer group.
        group: &'a str,
        /// Topic name.
        topic: &'a str,
        /// Member id.
        member: &'a str,
        /// The member's generation.
        generation: u64,
        /// `(partition, next_offset)` pairs.
        offsets: Cow<'a, [(u32, u64)]>,
    },
    /// `topic_version`.
    TopicVersion {
        /// Topic name.
        topic: &'a str,
    },
    /// `wait_for_data` (the server clamps the wait).
    WaitForData {
        /// Topic name.
        topic: &'a str,
        /// Version already observed.
        seen: u64,
        /// Long-poll budget in milliseconds.
        timeout_ms: u64,
    },
    /// Liveness probe.
    Ping,
    /// Leader → follower: append `records` at `base`. Carries the
    /// producer's dedup-window identity so retries stay idempotent on
    /// every replica.
    Replicate {
        /// Leader epoch of the sender.
        epoch: u64,
        /// Topic name.
        topic: &'a str,
        /// Topic partition count (lets a follower that missed the
        /// `CreateTopic` materialise the topic before appending).
        partitions: u32,
        /// Partition.
        partition: u32,
        /// Leader's log end before this batch — the offset the first
        /// record must land at.
        base: u64,
        /// `(producer_id, first_seq)`; absent for non-idempotent appends
        /// and catch-up traffic.
        dedup: Option<(u64, u64)>,
        /// The batch.
        records: Cow<'a, [Record]>,
    },
    /// Leader → follower: replicated topic creation.
    ReplicateCreateTopic {
        /// Leader epoch of the sender.
        epoch: u64,
        /// Topic name.
        name: &'a str,
        /// Partition count.
        partitions: u32,
        /// Retention override.
        retention_bytes: Option<u64>,
    },
    /// Leader → follower: replicated topic deletion.
    ReplicateDeleteTopic {
        /// Leader epoch of the sender.
        epoch: u64,
        /// Topic name.
        name: &'a str,
    },
    /// Leader → follower: replicated consumer-group commit positions
    /// (best-effort — a missed commit re-reads, never loses).
    ReplicateCommits {
        /// Leader epoch of the sender.
        epoch: u64,
        /// Consumer group.
        group: &'a str,
        /// Topic name.
        topic: &'a str,
        /// `(partition, next_offset)` pairs.
        offsets: Cow<'a, [(u32, u64)]>,
    },
    /// Failover: become leader at `epoch` (must exceed every epoch the
    /// node has seen).
    Promote {
        /// The new epoch.
        epoch: u64,
    },
    /// Liveness + election probe.
    Status,
}

/// The success arm of a reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Operation with no payload.
    Unit,
    /// A partition count.
    Count(u32),
    /// An offset, lag, generation, or version.
    Offset(u64),
    /// An append acknowledgement.
    Appended {
        /// First assigned offset.
        offset: u64,
        /// Broker-side `LogAppendTime`.
        append_time_ms: f64,
    },
    /// A read response.
    Records(Vec<FetchedRecord>),
    /// A replication-status snapshot.
    Status(Vec<ReplicationStatus>),
    /// A group assignment.
    Assignment(Vec<u32>),
    /// Liveness acknowledgement.
    Pong,
    /// Replication (or replicated admin/commit) applied; the follower's
    /// new log end for the partition.
    Ack {
        /// Follower log end after applying.
        end: u64,
    },
    /// The follower's log does not line up with `base`; its actual end.
    /// The leader responds with catch-up traffic.
    Mismatch {
        /// Follower's current log end.
        end: u64,
    },
    /// The sender's epoch is stale; the receiver has seen `current`.
    Fenced {
        /// Highest epoch the receiver has observed.
        current: u64,
    },
    /// The node accepted leadership at `epoch`.
    Promoted {
        /// The adopted epoch.
        epoch: u64,
    },
    /// Status-probe answer.
    Node(NodeStatus),
}

/// Where encoded bytes go: a buffer, or a count of them, so a frame is
/// sized exactly before it is written once.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    fn u8(&mut self, v: u8) {
        self.put(&[v]);
    }
    fn u32(&mut self, v: u32) {
        self.put(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.put(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.put(&v.to_bits().to_le_bytes());
    }
    /// Lengths and counts. One frame holds at most [`MAX_FRAME_BYTES`], so
    /// a value that does not fit `u32` belongs to a frame the transport
    /// refuses anyway; saturating keeps the encoder total.
    fn length(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }
    fn str(&mut self, s: &str) {
        self.length(s.len());
        self.put(s.as_bytes());
    }
    fn opt_u64(&mut self, v: Option<u64>) {
        self.u8(u8::from(v.is_some()));
        self.u64(v.unwrap_or(0));
    }
    fn dedup(&mut self, v: Option<(u64, u64)>) {
        let (producer_id, first_seq) = v.unwrap_or((0, 0));
        self.u8(u8::from(v.is_some()));
        self.u64(producer_id);
        self.u64(first_seq);
    }
    fn pairs(&mut self, pairs: &[(u32, u64)]) {
        self.length(pairs.len());
        for &(partition, offset) in pairs {
            self.u32(partition);
            self.u64(offset);
        }
    }
    fn records(&mut self, records: &[Record]) {
        self.length(records.len());
        for (value, produce_time_ms) in records {
            self.f64(*produce_time_ms);
            self.length(value.len());
            self.put(value);
        }
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Request<'_> {
    /// The request as one frame, sized exactly and written once.
    pub fn encode(&self) -> Vec<u8> {
        let mut size = ByteCount(0);
        self.write(&mut size);
        let mut frame = Vec::with_capacity(size.0);
        self.write(&mut frame);
        frame
    }

    fn write(&self, s: &mut impl Sink) {
        match self {
            Request::CreateTopic {
                name,
                partitions,
                retention_bytes,
            } => {
                s.u8(op::CREATE_TOPIC);
                s.str(name);
                s.u32(*partitions);
                s.opt_u64(*retention_bytes);
            }
            Request::DeleteTopic { name } => {
                s.u8(op::DELETE_TOPIC);
                s.str(name);
            }
            Request::Partitions { topic } => {
                s.u8(op::PARTITIONS);
                s.str(topic);
            }
            Request::EarliestOffset { topic, partition } => {
                s.u8(op::EARLIEST_OFFSET);
                s.str(topic);
                s.u32(*partition);
            }
            Request::EndOffset { topic, partition } => {
                s.u8(op::END_OFFSET);
                s.str(topic);
                s.u32(*partition);
            }
            Request::TotalRecords { topic } => {
                s.u8(op::TOTAL_RECORDS);
                s.str(topic);
            }
            Request::Append {
                topic,
                partition,
                dedup,
                records,
            } => {
                s.u8(op::APPEND);
                s.str(topic);
                s.u32(*partition);
                s.dedup(*dedup);
                s.records(records);
            }
            Request::Read {
                topic,
                partition,
                offset,
                max_records,
                max_bytes,
            } => {
                s.u8(op::READ);
                s.str(topic);
                s.u32(*partition);
                s.u64(*offset);
                s.u64(*max_records);
                s.u64(*max_bytes);
            }
            Request::ReplicationStatus { topic } => {
                s.u8(op::REPLICATION_STATUS);
                s.str(topic);
            }
            Request::CommitOffset {
                group,
                topic,
                partition,
                next,
            } => {
                s.u8(op::COMMIT_OFFSET);
                s.str(group);
                s.str(topic);
                s.u32(*partition);
                s.u64(*next);
            }
            Request::CommittedOffset {
                group,
                topic,
                partition,
            } => {
                s.u8(op::COMMITTED_OFFSET);
                s.str(group);
                s.str(topic);
                s.u32(*partition);
            }
            Request::GroupLag { group, topic } => {
                s.u8(op::GROUP_LAG);
                s.str(group);
                s.str(topic);
            }
            Request::JoinGroup { group, member } => {
                s.u8(op::JOIN_GROUP);
                s.str(group);
                s.str(member);
            }
            Request::LeaveGroup { group, member } => {
                s.u8(op::LEAVE_GROUP);
                s.str(group);
                s.str(member);
            }
            Request::GroupGeneration { group } => {
                s.u8(op::GROUP_GENERATION);
                s.str(group);
            }
            Request::GroupAssignment {
                group,
                topic,
                member,
            } => {
                s.u8(op::GROUP_ASSIGNMENT);
                s.str(group);
                s.str(topic);
                s.str(member);
            }
            Request::CommitOffsetsFenced {
                group,
                topic,
                member,
                generation,
                offsets,
            } => {
                s.u8(op::COMMIT_OFFSETS_FENCED);
                s.str(group);
                s.str(topic);
                s.str(member);
                s.u64(*generation);
                s.pairs(offsets);
            }
            Request::TopicVersion { topic } => {
                s.u8(op::TOPIC_VERSION);
                s.str(topic);
            }
            Request::WaitForData {
                topic,
                seen,
                timeout_ms,
            } => {
                s.u8(op::WAIT_FOR_DATA);
                s.str(topic);
                s.u64(*seen);
                s.u64(*timeout_ms);
            }
            Request::Ping => s.u8(op::PING),
            Request::Replicate {
                epoch,
                topic,
                partitions,
                partition,
                base,
                dedup,
                records,
            } => {
                s.u8(op::REPLICATE);
                s.u64(*epoch);
                s.str(topic);
                s.u32(*partitions);
                s.u32(*partition);
                s.u64(*base);
                s.dedup(*dedup);
                s.records(records);
            }
            Request::ReplicateCreateTopic {
                epoch,
                name,
                partitions,
                retention_bytes,
            } => {
                s.u8(op::REPLICATE_CREATE_TOPIC);
                s.u64(*epoch);
                s.str(name);
                s.u32(*partitions);
                s.opt_u64(*retention_bytes);
            }
            Request::ReplicateDeleteTopic { epoch, name } => {
                s.u8(op::REPLICATE_DELETE_TOPIC);
                s.u64(*epoch);
                s.str(name);
            }
            Request::ReplicateCommits {
                epoch,
                group,
                topic,
                offsets,
            } => {
                s.u8(op::REPLICATE_COMMITS);
                s.u64(*epoch);
                s.str(group);
                s.str(topic);
                s.pairs(offsets);
            }
            Request::Promote { epoch } => {
                s.u8(op::PROMOTE);
                s.u64(*epoch);
            }
            Request::Status => s.u8(op::STATUS),
        }
    }
}

impl<'a> Request<'a> {
    /// Decode one request frame. Strings borrow from `frame` and record
    /// values are slices of it. Anything that is not exactly one
    /// well-formed request is a [`BrokerError::Transport`].
    pub fn decode(frame: &'a Bytes) -> Result<Request<'a>> {
        let mut r = Reader { frame, pos: 0 };
        Request::read(&mut r)
            .and_then(|request| r.finish().map(|()| request))
            .map_err(|Malformed(what)| BrokerError::Transport(format!("bad request: {what}")))
    }

    fn read(r: &mut Reader<'a>) -> Decoded<Request<'a>> {
        Ok(match r.u8()? {
            op::CREATE_TOPIC => Request::CreateTopic {
                name: r.str()?,
                partitions: r.u32()?,
                retention_bytes: r.opt_u64()?,
            },
            op::DELETE_TOPIC => Request::DeleteTopic { name: r.str()? },
            op::PARTITIONS => Request::Partitions { topic: r.str()? },
            op::EARLIEST_OFFSET => Request::EarliestOffset {
                topic: r.str()?,
                partition: r.u32()?,
            },
            op::END_OFFSET => Request::EndOffset {
                topic: r.str()?,
                partition: r.u32()?,
            },
            op::TOTAL_RECORDS => Request::TotalRecords { topic: r.str()? },
            op::APPEND => Request::Append {
                topic: r.str()?,
                partition: r.u32()?,
                dedup: r.dedup()?,
                records: Cow::Owned(r.records()?),
            },
            op::READ => Request::Read {
                topic: r.str()?,
                partition: r.u32()?,
                offset: r.u64()?,
                max_records: r.u64()?,
                max_bytes: r.u64()?,
            },
            op::REPLICATION_STATUS => Request::ReplicationStatus { topic: r.str()? },
            op::COMMIT_OFFSET => Request::CommitOffset {
                group: r.str()?,
                topic: r.str()?,
                partition: r.u32()?,
                next: r.u64()?,
            },
            op::COMMITTED_OFFSET => Request::CommittedOffset {
                group: r.str()?,
                topic: r.str()?,
                partition: r.u32()?,
            },
            op::GROUP_LAG => Request::GroupLag {
                group: r.str()?,
                topic: r.str()?,
            },
            op::JOIN_GROUP => Request::JoinGroup {
                group: r.str()?,
                member: r.str()?,
            },
            op::LEAVE_GROUP => Request::LeaveGroup {
                group: r.str()?,
                member: r.str()?,
            },
            op::GROUP_GENERATION => Request::GroupGeneration { group: r.str()? },
            op::GROUP_ASSIGNMENT => Request::GroupAssignment {
                group: r.str()?,
                topic: r.str()?,
                member: r.str()?,
            },
            op::COMMIT_OFFSETS_FENCED => Request::CommitOffsetsFenced {
                group: r.str()?,
                topic: r.str()?,
                member: r.str()?,
                generation: r.u64()?,
                offsets: Cow::Owned(r.pairs()?),
            },
            op::TOPIC_VERSION => Request::TopicVersion { topic: r.str()? },
            op::WAIT_FOR_DATA => Request::WaitForData {
                topic: r.str()?,
                seen: r.u64()?,
                timeout_ms: r.u64()?,
            },
            op::PING => Request::Ping,
            op::REPLICATE => Request::Replicate {
                epoch: r.u64()?,
                topic: r.str()?,
                partitions: r.u32()?,
                partition: r.u32()?,
                base: r.u64()?,
                dedup: r.dedup()?,
                records: Cow::Owned(r.records()?),
            },
            op::REPLICATE_CREATE_TOPIC => Request::ReplicateCreateTopic {
                epoch: r.u64()?,
                name: r.str()?,
                partitions: r.u32()?,
                retention_bytes: r.opt_u64()?,
            },
            op::REPLICATE_DELETE_TOPIC => Request::ReplicateDeleteTopic {
                epoch: r.u64()?,
                name: r.str()?,
            },
            op::REPLICATE_COMMITS => Request::ReplicateCommits {
                epoch: r.u64()?,
                group: r.str()?,
                topic: r.str()?,
                offsets: Cow::Owned(r.pairs()?),
            },
            op::PROMOTE => Request::Promote { epoch: r.u64()? },
            op::STATUS => Request::Status,
            _ => return Err(Malformed("unknown opcode")),
        })
    }
}

/// Append one reply to `out`: a status byte, then the response or the
/// typed error. `out` grows once, by the reply's exact size.
pub fn encode_reply(reply: &Result<Response>, out: &mut Vec<u8>) {
    let mut size = ByteCount(0);
    write_reply(reply, &mut size);
    out.reserve(size.0);
    write_reply(reply, out);
}

fn write_reply(reply: &Result<Response>, s: &mut impl Sink) {
    match reply {
        Ok(response) => {
            s.u8(STATUS_OK);
            write_response(response, s);
        }
        Err(error) => {
            s.u8(STATUS_ERR);
            write_error(error, s);
        }
    }
}

fn write_response(response: &Response, s: &mut impl Sink) {
    match response {
        Response::Unit => s.u8(kind::UNIT),
        Response::Count(n) => {
            s.u8(kind::COUNT);
            s.u32(*n);
        }
        Response::Offset(n) => {
            s.u8(kind::OFFSET);
            s.u64(*n);
        }
        Response::Appended {
            offset,
            append_time_ms,
        } => {
            s.u8(kind::APPENDED);
            s.u64(*offset);
            s.f64(*append_time_ms);
        }
        Response::Records(records) => {
            s.u8(kind::RECORDS);
            s.length(records.len());
            for r in records {
                s.u32(r.partition);
                s.u64(r.offset);
                s.f64(r.produce_time_ms);
                s.f64(r.append_time_ms);
                s.length(r.value.len());
                s.put(&r.value);
            }
        }
        Response::Status(partitions) => {
            s.u8(kind::STATUS);
            s.length(partitions.len());
            for p in partitions {
                s.u32(p.leader);
                s.u64(p.epoch);
                s.u64(p.elections);
                s.u32(p.isr);
                s.u32(p.replicas);
                s.u64(p.high_watermark);
                s.u64(p.log_end);
                s.u64(p.min_isr_end);
                s.u64(p.max_follower_lag);
            }
        }
        Response::Assignment(partitions) => {
            s.u8(kind::ASSIGNMENT);
            s.length(partitions.len());
            for &p in partitions {
                s.u32(p);
            }
        }
        Response::Pong => s.u8(kind::PONG),
        Response::Ack { end } => {
            s.u8(kind::ACK);
            s.u64(*end);
        }
        Response::Mismatch { end } => {
            s.u8(kind::MISMATCH);
            s.u64(*end);
        }
        Response::Fenced { current } => {
            s.u8(kind::FENCED);
            s.u64(*current);
        }
        Response::Promoted { epoch } => {
            s.u8(kind::PROMOTED);
            s.u64(*epoch);
        }
        Response::Node(status) => {
            s.u8(kind::NODE);
            s.u32(status.id);
            s.u64(status.epoch);
            s.u8(u8::from(status.is_leader));
            s.u64(status.log_end_total);
        }
    }
}

fn write_error(error: &BrokerError, s: &mut impl Sink) {
    match error {
        BrokerError::UnknownTopic(topic) => {
            s.u8(code::UNKNOWN_TOPIC);
            s.str(topic);
        }
        BrokerError::UnknownPartition { topic, partition } => {
            s.u8(code::UNKNOWN_PARTITION);
            s.str(topic);
            s.u32(*partition);
        }
        BrokerError::TopicExists(topic) => {
            s.u8(code::TOPIC_EXISTS);
            s.str(topic);
        }
        BrokerError::ProducerClosed => s.u8(code::PRODUCER_CLOSED),
        BrokerError::OffsetOutOfRange {
            topic,
            partition,
            offset,
            end,
        } => {
            s.u8(code::OFFSET_OUT_OF_RANGE);
            s.str(topic);
            s.u32(*partition);
            s.u64(*offset);
            s.u64(*end);
        }
        BrokerError::Unavailable { topic, partition } => {
            s.u8(code::UNAVAILABLE);
            s.str(topic);
            s.u32(*partition);
        }
        BrokerError::Fabric(msg) => {
            s.u8(code::FABRIC);
            s.str(msg);
        }
        BrokerError::FencedLeaderEpoch {
            topic,
            partition,
            current,
        } => {
            s.u8(code::FENCED_LEADER_EPOCH);
            s.str(topic);
            s.u32(*partition);
            s.u64(*current);
        }
        BrokerError::NotEnoughReplicas {
            topic,
            partition,
            isr,
            min_isr,
        } => {
            s.u8(code::NOT_ENOUGH_REPLICAS);
            s.str(topic);
            s.u32(*partition);
            s.u32(*isr);
            s.u32(*min_isr);
        }
        BrokerError::InvalidCluster(msg) => {
            s.u8(code::INVALID_CLUSTER);
            s.str(msg);
        }
        BrokerError::RebalanceInProgress { group } => {
            s.u8(code::REBALANCE_IN_PROGRESS);
            s.str(group);
        }
        BrokerError::NotGroupMember { group, member } => {
            s.u8(code::NOT_GROUP_MEMBER);
            s.str(group);
            s.str(member);
        }
        BrokerError::NotLeader { epoch } => {
            s.u8(code::NOT_LEADER);
            s.u64(*epoch);
        }
        BrokerError::Transport(msg) => {
            s.u8(code::TRANSPORT);
            s.str(msg);
        }
    }
}

/// Decode one reply frame into the result the serving side encoded.
/// Fetched values are slices of `frame`. A frame that is not exactly one
/// well-formed reply is itself a [`BrokerError::Transport`].
pub fn decode_reply(frame: Bytes) -> Result<Response> {
    let mut r = Reader {
        frame: &frame,
        pos: 0,
    };
    read_reply(&mut r)
        .and_then(|reply| r.finish().map(|()| reply))
        .unwrap_or_else(|Malformed(what)| Err(BrokerError::Transport(format!("bad reply: {what}"))))
}

/// Whether an encoded reply says its sender does not lead the cluster
/// (any more): the two errors a failover-aware client answers with an
/// election. Reads the status byte and the error code, nothing else.
pub fn is_leadership_error(reply: &[u8]) -> bool {
    matches!(
        reply,
        [STATUS_ERR, code::NOT_LEADER | code::FENCED_LEADER_EPOCH, ..]
    )
}

/// Shorten a fetched batch to the longest prefix whose reply fits one
/// frame. The first record always stays: a fetch must make progress, and
/// one record cannot exceed a frame since it arrived in one.
pub fn fit_records_to_frame(records: &mut Vec<FetchedRecord>) {
    let mut size = 2 + 4; // status, kind, count
    let fitting = records
        .iter()
        .take_while(|r| {
            size += FETCHED_HEADER + r.value.len();
            size <= MAX_FRAME_BYTES
        })
        .count();
    records.truncate(fitting.max(1));
}

fn read_reply(r: &mut Reader<'_>) -> Decoded<Result<Response>> {
    match r.u8()? {
        STATUS_OK => read_response(r).map(Ok),
        STATUS_ERR => read_error(r).map(Err),
        _ => Err(Malformed("unknown reply status")),
    }
}

fn read_response(r: &mut Reader<'_>) -> Decoded<Response> {
    Ok(match r.u8()? {
        kind::UNIT => Response::Unit,
        kind::COUNT => Response::Count(r.u32()?),
        kind::OFFSET => Response::Offset(r.u64()?),
        kind::APPENDED => Response::Appended {
            offset: r.u64()?,
            append_time_ms: r.f64()?,
        },
        kind::RECORDS => {
            let count = r.count(FETCHED_HEADER)?;
            let mut records = Vec::with_capacity(count);
            for _ in 0..count {
                records.push(FetchedRecord {
                    partition: r.u32()?,
                    offset: r.u64()?,
                    produce_time_ms: r.f64()?,
                    append_time_ms: r.f64()?,
                    value: r.bytes()?,
                });
            }
            Response::Records(records)
        }
        kind::STATUS => {
            let count = r.count(REPLICATION_STATUS_BYTES)?;
            let mut partitions = Vec::with_capacity(count);
            for _ in 0..count {
                partitions.push(ReplicationStatus {
                    leader: r.u32()?,
                    epoch: r.u64()?,
                    elections: r.u64()?,
                    isr: r.u32()?,
                    replicas: r.u32()?,
                    high_watermark: r.u64()?,
                    log_end: r.u64()?,
                    min_isr_end: r.u64()?,
                    max_follower_lag: r.u64()?,
                });
            }
            Response::Status(partitions)
        }
        kind::ASSIGNMENT => {
            let count = r.count(4)?;
            let mut partitions = Vec::with_capacity(count);
            for _ in 0..count {
                partitions.push(r.u32()?);
            }
            Response::Assignment(partitions)
        }
        kind::PONG => Response::Pong,
        kind::ACK => Response::Ack { end: r.u64()? },
        kind::MISMATCH => Response::Mismatch { end: r.u64()? },
        kind::FENCED => Response::Fenced { current: r.u64()? },
        kind::PROMOTED => Response::Promoted { epoch: r.u64()? },
        kind::NODE => Response::Node(NodeStatus {
            id: r.u32()?,
            epoch: r.u64()?,
            is_leader: r.bool()?,
            log_end_total: r.u64()?,
        }),
        _ => return Err(Malformed("unknown response kind")),
    })
}

fn read_error(r: &mut Reader<'_>) -> Decoded<BrokerError> {
    Ok(match r.u8()? {
        code::UNKNOWN_TOPIC => BrokerError::UnknownTopic(r.string()?),
        code::UNKNOWN_PARTITION => BrokerError::UnknownPartition {
            topic: r.string()?,
            partition: r.u32()?,
        },
        code::TOPIC_EXISTS => BrokerError::TopicExists(r.string()?),
        code::PRODUCER_CLOSED => BrokerError::ProducerClosed,
        code::OFFSET_OUT_OF_RANGE => BrokerError::OffsetOutOfRange {
            topic: r.string()?,
            partition: r.u32()?,
            offset: r.u64()?,
            end: r.u64()?,
        },
        code::UNAVAILABLE => BrokerError::Unavailable {
            topic: r.string()?,
            partition: r.u32()?,
        },
        code::FABRIC => BrokerError::Fabric(r.string()?),
        code::FENCED_LEADER_EPOCH => BrokerError::FencedLeaderEpoch {
            topic: r.string()?,
            partition: r.u32()?,
            current: r.u64()?,
        },
        code::NOT_ENOUGH_REPLICAS => BrokerError::NotEnoughReplicas {
            topic: r.string()?,
            partition: r.u32()?,
            isr: r.u32()?,
            min_isr: r.u32()?,
        },
        code::INVALID_CLUSTER => BrokerError::InvalidCluster(r.string()?),
        code::REBALANCE_IN_PROGRESS => BrokerError::RebalanceInProgress { group: r.string()? },
        code::NOT_GROUP_MEMBER => BrokerError::NotGroupMember {
            group: r.string()?,
            member: r.string()?,
        },
        code::NOT_LEADER => BrokerError::NotLeader { epoch: r.u64()? },
        code::TRANSPORT => BrokerError::Transport(r.string()?),
        _ => return Err(Malformed("unknown error code")),
    })
}

/// Why a frame did not decode.
struct Malformed(&'static str);

type Decoded<T> = std::result::Result<T, Malformed>;

const TRUNCATED: Malformed = Malformed("frame ends inside a field");

/// A cursor over one frame. Every read is bounds-checked; nothing indexes.
struct Reader<'a> {
    frame: &'a Bytes,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Decoded<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or(TRUNCATED)?;
        let frame: &'a [u8] = self.frame;
        let taken = frame.get(self.pos..end).ok_or(TRUNCATED)?;
        self.pos = end;
        Ok(taken)
    }

    fn array<const N: usize>(&mut self) -> Decoded<[u8; N]> {
        self.take(N)?.first_chunk::<N>().copied().ok_or(TRUNCATED)
    }

    fn u8(&mut self) -> Decoded<u8> {
        self.array::<1>().map(|[b]| b)
    }

    fn u32(&mut self) -> Decoded<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Decoded<u64> {
        self.array().map(u64::from_le_bytes)
    }

    fn f64(&mut self) -> Decoded<f64> {
        self.u64().map(f64::from_bits)
    }

    fn bool(&mut self) -> Decoded<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(Malformed("flag is neither 0 nor 1")),
        }
    }

    fn str(&mut self) -> Decoded<&'a str> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| Malformed("string is not utf-8"))
    }

    fn string(&mut self) -> Decoded<String> {
        self.str().map(str::to_string)
    }

    fn opt_u64(&mut self) -> Decoded<Option<u64>> {
        let present = self.bool()?;
        let value = self.u64()?;
        Ok(present.then_some(value))
    }

    fn dedup(&mut self) -> Decoded<Option<(u64, u64)>> {
        let present = self.bool()?;
        let window = (self.u64()?, self.u64()?);
        Ok(present.then_some(window))
    }

    /// A length-prefixed byte string, as a slice of the frame.
    fn bytes(&mut self) -> Decoded<Bytes> {
        let len = self.u32()? as usize;
        let start = self.pos;
        self.take(len)?;
        Ok(self.frame.slice(start..self.pos))
    }

    /// An element count, refused unless the rest of the frame can hold that
    /// many elements of at least `min_bytes` each — so what a decoder
    /// allocates for a count is bounded by the frame it was given.
    fn count(&mut self, min_bytes: usize) -> Decoded<usize> {
        let count = self.u32()? as usize;
        let remaining = self.frame.len() - self.pos;
        match count.checked_mul(min_bytes) {
            Some(needed) if needed <= remaining => Ok(count),
            _ => Err(Malformed("count exceeds the frame")),
        }
    }

    fn pairs(&mut self) -> Decoded<Vec<(u32, u64)>> {
        let count = self.count(PAIR_BYTES)?;
        let mut pairs = Vec::with_capacity(count);
        for _ in 0..count {
            pairs.push((self.u32()?, self.u64()?));
        }
        Ok(pairs)
    }

    fn records(&mut self) -> Decoded<Vec<Record>> {
        let count = self.count(RECORD_HEADER)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let produce_time_ms = self.f64()?;
            records.push((self.bytes()?, produce_time_ms));
        }
        Ok(records)
    }

    /// A frame is exactly one message: bytes left over mean the sender and
    /// this decoder disagree about the layout.
    fn finish(&self) -> Decoded<()> {
        if self.pos == self.frame.len() {
            Ok(())
        } else {
            Err(Malformed("bytes after the last field"))
        }
    }
}

//! Multi-process broker nodes: the replication protocol over a real wire.
//!
//! [`crate::replication`] models a replicated partition *inside* one
//! process. This module puts each replica in its own process: a
//! [`BrokerNode`] owns a plain local [`Broker`] (its log) and talks to its
//! peers over [`Transport`]s, so leader-epoch fencing, `acks=all`
//! replication, and producer dedup windows travel as wire frames instead
//! of method calls.
//!
//! The protocol keeps the single invariant the in-process model proves:
//! **the committed log is a prefix of every in-sync follower's log.** The
//! leader replicates a batch to its followers *before* appending locally,
//! and only acknowledges once `min_insync_replicas` copies (itself
//! included) exist. A leader that cannot reach quorum fails the append
//! with [`BrokerError::NotEnoughReplicas`] *without* appending locally —
//! any follower that did take the batch holds a superset, and the
//! producer's dedup window (replicated with the batch) makes the retry
//! idempotent everywhere.
//!
//! Failover is client-driven and deterministic: [`ClusterTransport`]
//! status-polls every node, picks the reachable replica with the longest
//! log (ties to the lowest node id), and promotes it with a fresh epoch.
//! Replication requests carry the leader's epoch; a node that has seen a
//! higher one answers [`Response::Fenced`], which demotes the stale
//! leader — the split-brain story is the same as the in-process
//! [`crate::replication::ReplicatedPartition`], just over TCP.
//!
//! Client operations and replication traffic are frames of the one layout
//! in [`crate::wire`]: a node decodes each arriving frame once, and a
//! client frame travels from the producer to the leader's log without
//! being re-encoded on the way.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crayfish_net::{spawn_rpc_server, RpcHandler, ServerHandle, TcpTransport, Transport};
use crayfish_sim::NetworkModel;
use crayfish_sync::Mutex;

use crate::broker::Broker;
use crate::error::BrokerError;
use crate::rpc::{self, RemoteBroker};
use crate::wire::{self, Record, Request, Response};
use crate::Result;

/// Upper bound on catch-up rounds per follower per append: each round
/// moves the follower's log end forward, so this only trips on a
/// pathologically diverged replica (which is then dropped from the ack
/// count, not retried forever).
const MAX_CATCH_UP_ROUNDS: u32 = 64;

/// One node's view of itself, as answered to a `Status` probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStatus {
    /// Node id.
    pub id: u32,
    /// Highest leader epoch this node has observed.
    pub epoch: u64,
    /// Whether this node currently believes it is the leader.
    pub is_leader: bool,
    /// Sum of log-end offsets across all topic partitions — the
    /// "caught-up-ness" metric failover elects on.
    pub log_end_total: u64,
}

#[derive(Debug)]
struct LeaderState {
    epoch: u64,
    is_leader: bool,
}

/// One broker process in a replicated cluster: a local log plus the
/// replication protocol against its peers.
pub struct BrokerNode {
    id: u32,
    min_isr: u32,
    local: Arc<Broker>,
    peers: Vec<(u32, Box<dyn Transport>)>,
    state: Mutex<LeaderState>,
    /// Serialises replicate-then-append so concurrent producers cannot
    /// interleave between quorum and local apply.
    append_gate: Mutex<()>,
    obs: crayfish_obs::ObsHandle,
    replications: crayfish_obs::Counter,
    fencings: crayfish_obs::Counter,
}

impl std::fmt::Debug for BrokerNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrokerNode")
            .field("id", &self.id)
            .field("min_isr", &self.min_isr)
            .finish_non_exhaustive()
    }
}

impl BrokerNode {
    /// A node with an empty local log and no peers. Node 0 conventionally
    /// starts as leader at epoch 0 (see [`BrokerNode::make_leader`]).
    pub fn new(
        id: u32,
        min_isr: u32,
        obs: crayfish_obs::ObsHandle,
        chaos: crayfish_chaos::ChaosHandle,
    ) -> BrokerNode {
        let local = Broker::with_parts(NetworkModel::zero(), obs.clone(), chaos);
        BrokerNode {
            id,
            min_isr: min_isr.max(1),
            local,
            peers: Vec::new(),
            state: Mutex::new(LeaderState {
                epoch: 0,
                is_leader: false,
            }),
            append_gate: Mutex::new(()),
            replications: obs.counter("node_replications"),
            fencings: obs.counter("node_fencings"),
            obs,
        }
    }

    /// Register a peer replica this node replicates to when leading.
    pub fn add_peer(&mut self, id: u32, transport: Box<dyn Transport>) {
        self.peers.push((id, transport));
    }

    /// Convenience: a TCP peer, tagged for chaos dead/isolated windows.
    pub fn add_tcp_peer(&mut self, id: u32, addr: SocketAddr, chaos: crayfish_chaos::ChaosHandle) {
        let transport = TcpTransport::with_instruments(addr, &self.obs, chaos)
            .with_peer(id)
            .with_read_timeout(Duration::from_secs(2));
        self.add_peer(id, Box::new(transport));
    }

    /// Assume leadership at `epoch` without an election (bootstrap).
    pub fn make_leader(&self, epoch: u64) {
        let mut st = self.state.lock();
        st.epoch = st.epoch.max(epoch);
        st.is_leader = true;
    }

    /// This node's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The node's local broker (its replica log). Tests and the node
    /// binary use it for direct inspection; clients go through the wire.
    pub fn local(&self) -> &Arc<Broker> {
        &self.local
    }

    /// Current status snapshot.
    pub fn status(&self) -> NodeStatus {
        let (epoch, is_leader) = {
            let st = self.state.lock();
            (st.epoch, st.is_leader)
        };
        let mut total = 0u64;
        for topic in self.local.topic_names() {
            if let Ok(parts) = self.local.partitions(&topic) {
                for p in 0..parts {
                    total += self.local.end_offset(&topic, p).unwrap_or(0);
                }
            }
        }
        NodeStatus {
            id: self.id,
            epoch,
            is_leader,
            log_end_total: total,
        }
    }

    /// Serve this node's protocol endpoint. Long-polls and replication
    /// fan-out both park worker threads, so `workers` should comfortably
    /// exceed the expected concurrent client count.
    pub fn serve(self: Arc<Self>, addr: SocketAddr, workers: usize) -> Result<ServerHandle> {
        let node = self.clone();
        let handler: RpcHandler = Arc::new(move |frame, out: &mut Vec<u8>| node.handle(frame, out));
        spawn_rpc_server("broker-node", addr, workers, handler, rpc::oversize_reply)
            .map_err(|e| BrokerError::Transport(format!("node serve: {e}")))
    }

    /// Decode one request frame, run it, append the encoded reply to
    /// `out`. The frame is taken by value: the log keeps slices of it.
    pub fn handle(&self, frame: Vec<u8>, out: &mut Vec<u8>) {
        let frame = Bytes::from(frame);
        let reply = Request::decode(&frame).and_then(|req| self.dispatch(req));
        wire::encode_reply(&reply, out);
    }

    fn dispatch(&self, req: Request<'_>) -> Result<Response> {
        match req {
            Request::Replicate {
                epoch,
                topic,
                partitions,
                partition,
                base,
                dedup,
                records,
            } => self.apply_replicate(
                epoch,
                topic,
                partitions,
                partition,
                base,
                dedup,
                records.into_owned(),
            ),
            Request::ReplicateCreateTopic {
                epoch,
                name,
                partitions,
                retention_bytes,
            } => self.fenced(epoch, |node| {
                let create = Request::CreateTopic {
                    name,
                    partitions,
                    retention_bytes,
                };
                match rpc::dispatch(node.local.as_ref(), create) {
                    Ok(_) | Err(BrokerError::TopicExists(_)) => Ok(Response::Ack { end: 0 }),
                    Err(e) => Err(e),
                }
            }),
            Request::ReplicateDeleteTopic { epoch, name } => {
                self.fenced(epoch, |node| match node.local.delete_topic(name) {
                    Ok(()) | Err(BrokerError::UnknownTopic(_)) => Ok(Response::Ack { end: 0 }),
                    Err(e) => Err(e),
                })
            }
            Request::ReplicateCommits {
                epoch,
                group,
                topic,
                offsets,
            } => self.fenced(epoch, |node| {
                // Best-effort by design: a missed group commit means a
                // re-read after failover, never a lost record.
                for &(partition, next) in offsets.iter() {
                    node.local.commit_offset(group, topic, partition, next);
                }
                Ok(Response::Ack { end: 0 })
            }),
            Request::Promote { epoch } => Ok(self.promote(epoch)),
            Request::Status => Ok(Response::Node(self.status())),
            client_op => self.client(client_op),
        }
    }

    /// Epoch-gate a replicated mutation: adopt newer epochs (demoting
    /// ourselves if we led), fence older ones.
    fn fenced(
        &self,
        epoch: u64,
        apply: impl FnOnce(&BrokerNode) -> Result<Response>,
    ) -> Result<Response> {
        {
            let mut st = self.state.lock();
            if epoch < st.epoch {
                self.fencings.inc();
                return Ok(Response::Fenced { current: st.epoch });
            }
            if epoch > st.epoch {
                st.epoch = epoch;
                st.is_leader = false;
            } else if st.is_leader {
                // Same epoch from another claimed leader: split brain.
                // Refuse — one of us will be promoted past the other.
                self.fencings.inc();
                return Ok(Response::Fenced { current: st.epoch });
            }
        }
        apply(self)
    }

    #[allow(clippy::too_many_arguments)]
    fn apply_replicate(
        &self,
        epoch: u64,
        topic: &str,
        partitions: u32,
        partition: u32,
        base: u64,
        dedup: Option<(u64, u64)>,
        records: Vec<Record>,
    ) -> Result<Response> {
        self.fenced(epoch, |node| {
            // A follower that missed the CreateTopic materialises it now;
            // its log starts empty and the Mismatch path backfills.
            if node.local.partitions(topic).is_err() {
                let _ = node.local.create_topic(topic, partitions);
            }
            let end = node.local.end_offset(topic, partition)?;
            // With a dedup window, base <= end is enough: the window
            // decides. A batch this replica already holds (it acked one
            // the leader then failed) dedups to its original offsets; a
            // genuinely new batch lands at `end`, which equals `base` once
            // the in-order producer has replayed the gap.
            let lines_up = match dedup {
                Some(_) => base <= end,
                None => base == end,
            };
            if !lines_up {
                return Ok(Response::Mismatch { end });
            }
            let append = Request::Append {
                topic,
                partition,
                dedup,
                records: Cow::Owned(records),
            };
            rpc::dispatch(node.local.as_ref(), append)?;
            let end = node.local.end_offset(topic, partition)?;
            Ok(Response::Ack { end })
        })
    }

    fn promote(&self, epoch: u64) -> Response {
        let mut st = self.state.lock();
        if epoch <= st.epoch {
            self.fencings.inc();
            return Response::Fenced { current: st.epoch };
        }
        st.epoch = epoch;
        st.is_leader = true;
        Response::Promoted { epoch }
    }

    /// Serve one client operation. Leader-only: every other node answers
    /// [`BrokerError::NotLeader`] so clients fail over.
    fn client(&self, req: Request<'_>) -> Result<Response> {
        let epoch = {
            let st = self.state.lock();
            if !st.is_leader {
                return Err(BrokerError::NotLeader { epoch: st.epoch });
            }
            st.epoch
        };
        if let Request::Append {
            topic,
            partition,
            dedup,
            records,
        } = req
        {
            return self.leader_append(epoch, topic, partition, dedup, records.into_owned());
        }
        // Admin and commit mutations are applied locally, then fanned out
        // best-effort; the follower's copy of the request is encoded before
        // the local dispatch consumes it.
        let replicated = match &req {
            _ if self.peers.is_empty() => None,
            Request::CreateTopic {
                name,
                partitions,
                retention_bytes,
            } => Some(Request::ReplicateCreateTopic {
                epoch,
                name,
                partitions: *partitions,
                retention_bytes: *retention_bytes,
            }),
            Request::DeleteTopic { name } => Some(Request::ReplicateDeleteTopic { epoch, name }),
            Request::CommitOffset {
                group,
                topic,
                partition,
                next,
            } => Some(Request::ReplicateCommits {
                epoch,
                group,
                topic,
                offsets: Cow::Owned(vec![(*partition, *next)]),
            }),
            Request::CommitOffsetsFenced {
                group,
                topic,
                offsets,
                ..
            } => Some(Request::ReplicateCommits {
                epoch,
                group,
                topic,
                offsets: Cow::Borrowed(&offsets[..]),
            }),
            _ => None,
        }
        .map(|msg| msg.encode());
        let reply = rpc::dispatch(self.local.as_ref(), req);
        if let (Ok(_), Some(frame)) = (&reply, replicated) {
            for (_, transport) in &self.peers {
                let _ = Self::send_peer(transport.as_ref(), &frame);
            }
        }
        reply
    }

    fn send_peer(transport: &dyn Transport, frame: &[u8]) -> Result<Response> {
        let raw = transport
            .call(frame)
            .map_err(|e| BrokerError::Transport(e.to_string()))?;
        wire::decode_reply(Bytes::from(raw))
    }

    /// The quorum append: replicate to every reachable follower first,
    /// then apply locally, then acknowledge. Failing quorum leaves the
    /// local log untouched.
    fn leader_append(
        &self,
        epoch: u64,
        topic: &str,
        partition: u32,
        dedup: Option<(u64, u64)>,
        records: Vec<Record>,
    ) -> Result<Response> {
        let _gate = self.append_gate.lock();
        let partitions = self.local.partitions(topic)?;
        if partition >= partitions {
            return Err(BrokerError::UnknownPartition {
                topic: topic.to_string(),
                partition,
            });
        }
        let base = self.local.end_offset(topic, partition)?;
        let mut acks = 1u32; // self
        if !self.peers.is_empty() {
            // Every follower is sent the same frame, encoded once.
            let batch = Replication {
                epoch,
                topic,
                partitions,
                partition,
            };
            let frame = batch.frame(base, dedup, Cow::Borrowed(&records));
            for (_, transport) in &self.peers {
                // Unreachable or diverged followers stay out of the ack
                // set; a fencing reply means we are not the leader.
                if self.replicate_one(transport.as_ref(), &batch, base, &frame)? {
                    acks += 1;
                }
            }
        }
        if acks < self.min_isr {
            return Err(BrokerError::NotEnoughReplicas {
                topic: topic.to_string(),
                partition,
                isr: acks,
                min_isr: self.min_isr,
            });
        }
        let append = Request::Append {
            topic,
            partition,
            dedup,
            records: Cow::Owned(records),
        };
        rpc::dispatch(self.local.as_ref(), append)
    }

    /// Replicate one batch (already encoded as `frame`, landing at `base`)
    /// to one follower, backfilling any gap between its log and ours.
    /// `Ok(true)` = acked, `Ok(false)` = unreachable or unrecoverable
    /// (excluded from quorum), `Err` = we were fenced.
    fn replicate_one(
        &self,
        transport: &dyn Transport,
        batch: &Replication<'_>,
        base: u64,
        frame: &[u8],
    ) -> Result<bool> {
        let mut rounds = 0u32;
        loop {
            self.replications.inc();
            let reply = match Self::send_peer(transport, frame) {
                Ok(reply) => reply,
                Err(_) => return Ok(false),
            };
            match reply {
                Response::Ack { .. } => return Ok(true),
                Response::Fenced { current } => return Err(self.fence(batch, current)),
                Response::Mismatch { end } if end < base && rounds < MAX_CATCH_UP_ROUNDS => {
                    rounds += 1;
                    // Backfill [end, base) from our own log (all of it is
                    // below `base`, hence already durable locally), then
                    // retry the original batch.
                    let missing = self.local.read(
                        batch.topic,
                        batch.partition,
                        end,
                        (base - end) as usize,
                        usize::MAX,
                    )?;
                    // Retention may already have dropped (the start of)
                    // the gap; the follower cannot be made contiguous.
                    // Exclude it.
                    if missing.first().map(|r| r.offset) != Some(end) {
                        return Ok(false);
                    }
                    let records: Vec<Record> = missing
                        .into_iter()
                        .map(|r| (r.value, r.produce_time_ms))
                        .collect();
                    let catch_up = batch.frame(end, None, Cow::Owned(records));
                    match Self::send_peer(transport, &catch_up) {
                        Ok(Response::Ack { .. }) => continue,
                        Ok(Response::Fenced { current }) => return Err(self.fence(batch, current)),
                        _ => return Ok(false),
                    }
                }
                _ => return Ok(false),
            }
        }
    }

    /// A follower told us our epoch is stale: demote and surface the
    /// fencing error (transient — the producer retries against the new
    /// leader via client failover).
    fn fence(&self, batch: &Replication<'_>, current: u64) -> BrokerError {
        self.fencings.inc();
        let mut st = self.state.lock();
        st.epoch = st.epoch.max(current);
        st.is_leader = false;
        BrokerError::FencedLeaderEpoch {
            topic: batch.topic.to_string(),
            partition: batch.partition,
            current,
        }
    }
}

/// What every `Replicate` frame of one quorum append has in common: the
/// batch itself and any catch-up traffic ahead of it.
struct Replication<'a> {
    epoch: u64,
    topic: &'a str,
    partitions: u32,
    partition: u32,
}

impl Replication<'_> {
    fn frame(&self, base: u64, dedup: Option<(u64, u64)>, records: Cow<'_, [Record]>) -> Vec<u8> {
        Request::Replicate {
            epoch: self.epoch,
            topic: self.topic,
            partitions: self.partitions,
            partition: self.partition,
            base,
            dedup,
            records,
        }
        .encode()
    }
}

/// A [`Transport`] that fronts a whole node cluster: routes to the
/// current leader, and on transport failure or a
/// `NotLeader`/`FencedLeaderEpoch` answer performs the election — poll
/// every node's status, pick the most caught-up reachable replica (ties
/// to the lowest id), promote it with a fresh epoch, retry.
///
/// Wrapping it in a [`RemoteBroker`] (see [`connect_cluster`]) gives
/// producers and consumers transparent leader failover.
pub struct ClusterTransport {
    nodes: Vec<(u32, Box<dyn Transport>)>,
    leader: Mutex<usize>,
    failovers: crayfish_obs::Counter,
}

impl std::fmt::Debug for ClusterTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterTransport")
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl ClusterTransport {
    /// Front a set of `(node_id, transport)` endpoints. The first entry is
    /// tried as leader until the cluster says otherwise.
    pub fn new(
        nodes: Vec<(u32, Box<dyn Transport>)>,
        obs: &crayfish_obs::ObsHandle,
    ) -> ClusterTransport {
        ClusterTransport {
            nodes,
            leader: Mutex::new(0),
            failovers: obs.counter("net_failovers"),
        }
    }

    /// An encoded error reply, so the wrapping [`RemoteBroker`] surfaces a
    /// typed broker error.
    fn error_reply(e: BrokerError) -> Vec<u8> {
        let mut out = Vec::new();
        wire::encode_reply(&Err(e), &mut out);
        out
    }

    /// Elect: status-poll everyone, adopt an existing max-epoch leader if
    /// one answers, otherwise promote the longest log. Returns false if no
    /// node was reachable.
    fn failover(&self) -> bool {
        self.failovers.inc();
        let probe = Request::Status.encode();
        let mut statuses: Vec<(usize, NodeStatus)> = Vec::new();
        for (idx, (_, transport)) in self.nodes.iter().enumerate() {
            if let Ok(raw) = transport.call(&probe) {
                if let Ok(Response::Node(status)) = wire::decode_reply(Bytes::from(raw)) {
                    statuses.push((idx, status));
                }
            }
        }
        let Some(max_epoch) = statuses.iter().map(|(_, s)| s.epoch).max() else {
            return false;
        };
        // An incumbent at the max epoch wins without an election (our
        // failure may have been a blip, or another client already
        // promoted).
        if let Some(&(idx, _)) = statuses
            .iter()
            .filter(|(_, s)| s.is_leader && s.epoch == max_epoch)
            .min_by_key(|(_, s)| s.id)
        {
            *self.leader.lock() = idx;
            return true;
        }
        // Otherwise promote the most caught-up replica, ties to the
        // lowest id — deterministic across racing clients.
        let Some(&(idx, _)) = statuses
            .iter()
            .max_by_key(|(_, s)| (s.log_end_total, std::cmp::Reverse(s.id)))
        else {
            return false;
        };
        let promote = Request::Promote {
            epoch: max_epoch + 1,
        }
        .encode();
        if let Ok(raw) = self.nodes[idx].1.call(&promote) {
            // Any other reply is a fence: someone promoted past us
            // mid-election; the next attempt's status poll adopts them.
            if let Ok(Response::Promoted { .. }) = wire::decode_reply(Bytes::from(raw)) {
                *self.leader.lock() = idx;
                return true;
            }
        }
        false
    }
}

impl Transport for ClusterTransport {
    /// Forward a client frame, as it is, to the node believed to lead.
    fn call(&self, request: &[u8]) -> crayfish_net::Result<Vec<u8>> {
        let attempts = self.nodes.len().max(1) * 2;
        for attempt in 0..attempts {
            let idx = *self.leader.lock();
            let reply = match self.nodes[idx].1.call(request) {
                Ok(reply) => reply,
                Err(e) if e.is_transient() => {
                    if !self.failover() && attempt + 1 == attempts {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                    continue;
                }
                Err(e) => return Err(e),
            };
            // Leadership errors trigger the election; everything else
            // flows through to the caller undecoded.
            if wire::is_leadership_error(&reply) {
                self.failover();
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
            return Ok(reply);
        }
        Ok(Self::error_reply(BrokerError::Transport(
            "no leader reachable after failover attempts".to_string(),
        )))
    }
}

/// One-shot liveness/status probe of a node endpoint. `None` until the
/// node's listener is up and answering the protocol — deployment code
/// polls this before letting an experiment proceed.
pub fn probe_node(addr: SocketAddr) -> Option<NodeStatus> {
    let transport = TcpTransport::new(addr).with_read_timeout(Duration::from_secs(1));
    let raw = transport.call(&Request::Status.encode()).ok()?;
    match wire::decode_reply(Bytes::from(raw)) {
        Ok(Response::Node(status)) => Some(status),
        _ => None,
    }
}

/// A failover-aware [`BrokerApi`] client over TCP to a node cluster.
pub fn connect_cluster(
    addrs: &[(u32, SocketAddr)],
    obs: crayfish_obs::ObsHandle,
    chaos: crayfish_chaos::ChaosHandle,
) -> Arc<RemoteBroker> {
    let nodes: Vec<(u32, Box<dyn Transport>)> = addrs
        .iter()
        .map(|&(id, addr)| {
            let t = TcpTransport::with_instruments(addr, &obs, chaos.clone())
                .with_peer(id)
                .with_read_timeout(Duration::from_secs(3));
            (id, Box::new(t) as Box<dyn Transport>)
        })
        .collect();
    let transport = ClusterTransport::new(nodes, &obs);
    RemoteBroker::with_parts(Box::new(transport), obs, chaos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::BrokerApi;
    use crayfish_net::NetError;

    /// Shared node registry: transports resolve their peer at call time,
    /// so a slot set to `None` behaves exactly like a SIGKILLed process
    /// (connection refused) without any sockets.
    type Registry = Arc<Mutex<Vec<Option<Arc<BrokerNode>>>>>;

    struct RegistryTransport {
        registry: Registry,
        peer: u32,
    }

    impl Transport for RegistryTransport {
        fn call(&self, request: &[u8]) -> crayfish_net::Result<Vec<u8>> {
            let node = self.registry.lock()[self.peer as usize].clone();
            match node {
                Some(node) => {
                    let mut reply = Vec::new();
                    node.handle(request.to_vec(), &mut reply);
                    Ok(reply)
                }
                None => Err(NetError::Closed),
            }
        }
    }

    /// A 3-node cluster (min_isr = 2) with node 0 leading, plus a
    /// failover-aware client — the full protocol, no sockets.
    fn cluster() -> (Registry, Arc<RemoteBroker>) {
        let obs = crayfish_obs::ObsHandle::disabled();
        let chaos = crayfish_chaos::ChaosHandle::disabled();
        let registry: Registry = Arc::new(Mutex::new(vec![None, None, None]));
        for id in 0..3u32 {
            let mut node = BrokerNode::new(id, 2, obs.clone(), chaos.clone());
            for peer in 0..3u32 {
                if peer != id {
                    node.add_peer(
                        peer,
                        Box::new(RegistryTransport {
                            registry: registry.clone(),
                            peer,
                        }),
                    );
                }
            }
            registry.lock()[id as usize] = Some(Arc::new(node));
        }
        node_at(&registry, 0).make_leader(0);
        let fronts: Vec<(u32, Box<dyn Transport>)> = (0..3u32)
            .map(|id| {
                (
                    id,
                    Box::new(RegistryTransport {
                        registry: registry.clone(),
                        peer: id,
                    }) as Box<dyn Transport>,
                )
            })
            .collect();
        let client =
            RemoteBroker::with_parts(Box::new(ClusterTransport::new(fronts, &obs)), obs, chaos);
        (registry, client)
    }

    fn node_at(registry: &Registry, id: u32) -> Arc<BrokerNode> {
        registry.lock()[id as usize].clone().expect("node offline")
    }

    fn value(i: u8) -> Vec<(Bytes, f64)> {
        vec![(Bytes::from(vec![i]), f64::from(i))]
    }

    #[test]
    fn leader_replicates_before_acking() {
        let (registry, client) = cluster();
        client.create_topic("t", 1).expect("create");
        client.append("t", 0, value(1)).expect("append");
        // All three replicas hold the record — replication happened
        // before the ack, not after.
        for id in 0..3u32 {
            let node = node_at(&registry, id);
            assert_eq!(
                node.local().end_offset("t", 0).expect("end"),
                1,
                "node {id} missing the committed record"
            );
        }
    }

    #[test]
    fn quorum_failure_leaves_leader_log_untouched() {
        let (registry, client) = cluster();
        client.create_topic("t", 1).expect("create");
        // Kill both followers: quorum (2) is unreachable.
        registry.lock()[1] = None;
        registry.lock()[2] = None;
        match client.append("t", 0, value(1)) {
            Err(BrokerError::NotEnoughReplicas { isr, min_isr, .. }) => {
                assert_eq!((isr, min_isr), (1, 2));
            }
            other => panic!("expected NotEnoughReplicas, got {other:?}"),
        }
        // Nothing landed locally: a failed acks=all append is all-or-
        // nothing on the leader.
        assert_eq!(
            node_at(&registry, 0)
                .local()
                .end_offset("t", 0)
                .expect("end"),
            0
        );
    }

    #[test]
    fn failover_promotes_a_caught_up_replica_with_zero_loss() {
        let (registry, client) = cluster();
        client.create_topic("t", 1).expect("create");
        for i in 0..5u8 {
            client
                .append_dedup("t", 0, 7, u64::from(i), value(i))
                .expect("append before failover");
        }
        // SIGKILL the leader.
        registry.lock()[0] = None;
        // The next append elects a new leader and lands there.
        for i in 5..10u8 {
            client
                .append_dedup("t", 0, 7, u64::from(i), value(i))
                .expect("append after failover");
        }
        let records =
            BrokerApi::read(client.as_ref(), "t", 0, 0, 100, usize::MAX).expect("read back");
        let ids: Vec<u8> = records.iter().map(|r| r.value[0]).collect();
        assert_eq!(
            ids,
            (0..10u8).collect::<Vec<_>>(),
            "loss or duplication across failover"
        );
        // Exactly one survivor claims leadership, at a bumped epoch.
        let statuses: Vec<NodeStatus> = (1..3).map(|id| node_at(&registry, id).status()).collect();
        assert_eq!(statuses.iter().filter(|s| s.is_leader).count(), 1);
        assert!(statuses.iter().all(|s| s.epoch >= 1));
    }

    #[test]
    fn retried_batch_dedups_across_failover() {
        let (registry, client) = cluster();
        client.create_topic("t", 1).expect("create");
        client.append_dedup("t", 0, 9, 0, value(1)).expect("first");
        // Leader dies; the producer (never having seen the ack, say)
        // retries the same (producer_id, seq) batch against the new
        // leader — which already holds it via replication.
        registry.lock()[0] = None;
        client.append_dedup("t", 0, 9, 0, value(1)).expect("retry");
        let records =
            BrokerApi::read(client.as_ref(), "t", 0, 0, 100, usize::MAX).expect("read back");
        assert_eq!(records.len(), 1, "dedup window lost across failover");
    }

    #[test]
    fn stale_leader_is_fenced_and_demotes() {
        let (registry, client) = cluster();
        client.create_topic("t", 1).expect("create");
        client.append("t", 0, value(1)).expect("seed");
        let old_leader = node_at(&registry, 0);
        // Fail over while the old leader is merely unreachable, not dead.
        registry.lock()[0] = None;
        client
            .append("t", 0, value(2))
            .expect("append via new leader");
        // The old leader comes back, still believing it leads at epoch 0.
        registry.lock()[0] = Some(old_leader.clone());
        assert!(old_leader.status().is_leader);
        let reply = old_leader.client(Request::Append {
            topic: "t",
            partition: 0,
            dedup: None,
            records: Cow::Owned(value(9)),
        });
        match reply {
            Err(BrokerError::FencedLeaderEpoch { current, .. }) => {
                assert!(current >= 1);
            }
            other => panic!("expected fencing, got {other:?}"),
        }
        // Fencing demoted it; its zombie write never landed anywhere.
        assert!(!old_leader.status().is_leader);
        let records =
            BrokerApi::read(client.as_ref(), "t", 0, 0, 100, usize::MAX).expect("read back");
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn rejoining_follower_is_backfilled_on_next_append() {
        let (registry, client) = cluster();
        client.create_topic("t", 1).expect("create");
        client.append("t", 0, value(0)).expect("seed");
        // Follower 2 misses a batch...
        let away = node_at(&registry, 2);
        registry.lock()[2] = None;
        client.append("t", 0, value(1)).expect("append while away");
        assert_eq!(away.local().end_offset("t", 0).expect("end"), 1);
        // ...rejoins, and the next replicated append backfills the gap.
        registry.lock()[2] = Some(away.clone());
        client
            .append("t", 0, value(2))
            .expect("append after rejoin");
        assert_eq!(away.local().end_offset("t", 0).expect("end"), 3);
        let caught_up = away
            .local()
            .read("t", 0, 0, 100, usize::MAX)
            .expect("follower read");
        let ids: Vec<u8> = caught_up.iter().map(|r| r.value[0]).collect();
        assert_eq!(ids, vec![0, 1, 2], "backfill out of order");
    }

    #[test]
    fn status_reports_caught_up_ness() {
        let (registry, client) = cluster();
        client.create_topic("t", 2).expect("create");
        client.append("t", 0, value(1)).expect("a");
        client.append("t", 1, value(2)).expect("b");
        let status = node_at(&registry, 0).status();
        assert_eq!(status.log_end_total, 2);
        assert!(status.is_leader);
        assert_eq!(status.id, 0);
    }
}

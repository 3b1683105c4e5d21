//! Typed broker RPC: [`BrokerApi`] over a [`crayfish_net::Transport`].
//!
//! One request frame out, one reply frame back, both in the binary layout
//! of [`crate::wire`] on the shared `crayfish-net` length-prefixed codec
//! (the same framing the serving tier's gRPC analog uses). The reply's
//! error arm is the *full typed* [`BrokerError`] — `FencedLeaderEpoch {
//! current }`, `NotEnoughReplicas { isr, min_isr }` and friends round-trip
//! with their fields intact, so a remote producer's retry/fence logic
//! matches the in-process one exactly (no lossy `to_string()` anywhere on
//! the path).
//!
//! [`serve`] exposes any `BrokerApi` on a TCP address via the shared
//! reactor; [`RemoteBroker`] is the client side, itself a `BrokerApi`, so
//! producers and consumers cannot tell the difference.

use std::borrow::Cow;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crayfish_net::{spawn_rpc_server, RpcHandler, ServerHandle, Transport};
use crayfish_sim::NetworkModel;

use crate::api::BrokerApi;
use crate::error::BrokerError;
use crate::replication::ReplicationStatus;
use crate::topic::FetchedRecord;
use crate::wire::{self, Request, Response};
use crate::Result;

/// Longest long-poll the server honours per `WaitForData` RPC. Kept safely
/// below the client transport's read timeout so a quiet topic never reads
/// as a dead connection.
const MAX_SERVER_POLL: Duration = Duration::from_secs(8);

/// Long-poll slice a [`RemoteBroker`] asks for per RPC; the client loops
/// slices until its caller's deadline so a mid-poll failover is noticed
/// within one slice.
const CLIENT_POLL_SLICE: Duration = Duration::from_secs(1);

fn appended((offset, append_time_ms): (u64, f64)) -> Response {
    Response::Appended {
        offset,
        append_time_ms,
    }
}

/// Execute one decoded client request against a broker. Shared by
/// [`serve`] and the multi-process node's client path, so both speak
/// byte-identical protocol.
pub fn dispatch(broker: &dyn BrokerApi, req: Request<'_>) -> Result<Response> {
    use Request as Req;
    use Response as Resp;
    match req {
        Req::CreateTopic {
            name,
            partitions,
            retention_bytes,
        } => match retention_bytes {
            Some(bytes) => broker.create_topic_with_retention(name, partitions, saturate(bytes)),
            None => broker.create_topic(name, partitions),
        }
        .map(|()| Resp::Unit),
        Req::DeleteTopic { name } => broker.delete_topic(name).map(|()| Resp::Unit),
        Req::Partitions { topic } => broker.partitions(topic).map(Resp::Count),
        Req::EarliestOffset { topic, partition } => {
            broker.earliest_offset(topic, partition).map(Resp::Offset)
        }
        Req::EndOffset { topic, partition } => {
            broker.end_offset(topic, partition).map(Resp::Offset)
        }
        Req::TotalRecords { topic } => broker.total_records(topic).map(Resp::Offset),
        Req::Append {
            topic,
            partition,
            dedup,
            records,
        } => match dedup {
            Some((producer_id, first_seq)) => broker.append_dedup(
                topic,
                partition,
                producer_id,
                first_seq,
                records.into_owned(),
            ),
            None => broker.append(topic, partition, records.into_owned()),
        }
        .map(appended),
        Req::Read {
            topic,
            partition,
            offset,
            max_records,
            max_bytes,
        } => broker
            .read(
                topic,
                partition,
                offset,
                saturate(max_records),
                // The reply has to fit one frame, whatever the client asks
                // for: collect no more than that, then cut to what fits
                // with the per-record headers counted.
                saturate(max_bytes).min(wire::MAX_FRAME_BYTES),
            )
            .map(|mut records| {
                wire::fit_records_to_frame(&mut records);
                Resp::Records(records)
            }),
        Req::ReplicationStatus { topic } => broker.replication_status(topic).map(Resp::Status),
        Req::CommitOffset {
            group,
            topic,
            partition,
            next,
        } => broker
            .commit_offset(group, topic, partition, next)
            .map(|()| Resp::Unit),
        Req::CommittedOffset {
            group,
            topic,
            partition,
        } => broker
            .committed_offset(group, topic, partition)
            .map(Resp::Offset),
        Req::GroupLag { group, topic } => broker.group_lag(group, topic).map(Resp::Offset),
        Req::JoinGroup { group, member } => broker.join_group(group, member).map(Resp::Offset),
        Req::LeaveGroup { group, member } => broker.leave_group(group, member).map(|()| Resp::Unit),
        Req::GroupGeneration { group } => broker.group_generation(group).map(Resp::Offset),
        Req::GroupAssignment {
            group,
            topic,
            member,
        } => broker
            .group_assignment(group, topic, member)
            .map(Resp::Assignment),
        Req::CommitOffsetsFenced {
            group,
            topic,
            member,
            generation,
            offsets,
        } => {
            let offsets = offsets.iter().copied().collect();
            broker
                .commit_offsets_fenced(group, topic, member, generation, &offsets)
                .map(|()| Resp::Unit)
        }
        Req::TopicVersion { topic } => broker.topic_version(topic).map(Resp::Offset),
        Req::WaitForData {
            topic,
            seen,
            timeout_ms,
        } => broker
            .wait_for_data(
                topic,
                seen,
                Duration::from_millis(timeout_ms).min(MAX_SERVER_POLL),
            )
            .map(Resp::Offset),
        Req::Ping => Ok(Resp::Pong),
        Req::Replicate { .. }
        | Req::ReplicateCreateTopic { .. }
        | Req::ReplicateDeleteTopic { .. }
        | Req::ReplicateCommits { .. }
        | Req::Promote { .. }
        | Req::Status => Err(BrokerError::Transport(
            "replication request sent to an endpoint that is not a cluster node".to_string(),
        )),
    }
}

/// A wire `u64` as a local size: a cap larger than this host can count is
/// no cap.
fn saturate(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// Decode one request frame, dispatch it against `broker`, and append the
/// encoded reply to `out`. The frame is taken by value: appended records
/// are stored as slices of it, not copied out. Malformed requests answer
/// with a typed `Transport` error rather than killing the connection — the
/// framing layer already dropped anything unframeable.
pub fn handle_frame(broker: &dyn BrokerApi, frame: Vec<u8>, out: &mut Vec<u8>) {
    let frame = Bytes::from(frame);
    let reply = Request::decode(&frame).and_then(|req| dispatch(broker, req));
    wire::encode_reply(&reply, out);
}

/// The reply a served endpoint gives in place of one that does not fit a
/// frame (see [`crayfish_net::spawn_rpc_server`]).
pub(crate) fn oversize_reply(len: usize, out: &mut Vec<u8>) {
    let error = BrokerError::Transport(format!("reply of {len} bytes exceeds the frame cap"));
    wire::encode_reply(&Err(error), out);
}

/// Expose `broker` on `addr` over the shared reactor, decoding requests on
/// `workers` dispatcher threads (long-polls park a worker, so size this to
/// the expected concurrent client count). Returns the listener handle;
/// dropping it stops the server.
pub fn serve(broker: Arc<dyn BrokerApi>, addr: SocketAddr, workers: usize) -> Result<ServerHandle> {
    let handler: RpcHandler =
        Arc::new(move |frame, out: &mut Vec<u8>| handle_frame(broker.as_ref(), frame, out));
    spawn_rpc_server("broker-rpc", addr, workers, handler, oversize_reply)
        .map_err(|e| BrokerError::Transport(format!("serve: {e}")))
}

/// A [`BrokerApi`] client over a [`Transport`]: the remote half of the
/// broker seam. Producers/consumers built on it behave exactly as against
/// an in-process [`crate::Broker`] — transient transport failures surface
/// as [`BrokerError::Transport`], which the retry policies already treat
/// like any other transient broker fault.
pub struct RemoteBroker {
    transport: Box<dyn Transport>,
    obs: crayfish_obs::ObsHandle,
    chaos: crayfish_chaos::ChaosHandle,
    rpc_append: crayfish_obs::HistHandle,
    rpc_read: crayfish_obs::HistHandle,
    rpc_poll: crayfish_obs::HistHandle,
    rpc_commit: crayfish_obs::HistHandle,
    rpc_admin: crayfish_obs::HistHandle,
}

impl std::fmt::Debug for RemoteBroker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteBroker").finish_non_exhaustive()
    }
}

impl RemoteBroker {
    /// Connect to a broker served at `addr` (lazy dial — the first RPC
    /// opens the connection).
    pub fn connect(addr: SocketAddr) -> Arc<RemoteBroker> {
        RemoteBroker::with_parts(
            Box::new(crayfish_net::TcpTransport::new(addr)),
            crayfish_obs::ObsHandle::disabled(),
            crayfish_chaos::ChaosHandle::disabled(),
        )
    }

    /// Connect with live observability (RPC latency histograms, byte
    /// counters on the transport) and chaos handles.
    pub fn connect_with(
        addr: SocketAddr,
        obs: crayfish_obs::ObsHandle,
        chaos: crayfish_chaos::ChaosHandle,
    ) -> Arc<RemoteBroker> {
        RemoteBroker::with_parts(
            Box::new(crayfish_net::TcpTransport::with_instruments(
                addr,
                &obs,
                chaos.clone(),
            )),
            obs,
            chaos,
        )
    }

    /// Build over an arbitrary transport (in-proc transports make the
    /// equivalence tests exact: same client code, no socket).
    pub fn with_parts(
        transport: Box<dyn Transport>,
        obs: crayfish_obs::ObsHandle,
        chaos: crayfish_chaos::ChaosHandle,
    ) -> Arc<RemoteBroker> {
        Arc::new(RemoteBroker {
            rpc_append: obs.histogram_ns("rpc_append_ns"),
            rpc_read: obs.histogram_ns("rpc_read_ns"),
            rpc_poll: obs.histogram_ns("rpc_poll_ns"),
            rpc_commit: obs.histogram_ns("rpc_commit_ns"),
            rpc_admin: obs.histogram_ns("rpc_admin_ns"),
            transport,
            obs,
            chaos,
        })
    }

    /// One RPC round-trip: encode, call, decode. The reply frame becomes
    /// one `Bytes`; fetched values are slices of it.
    fn call(&self, req: &Request<'_>, hist: &crayfish_obs::HistHandle) -> Result<Response> {
        let started = hist.start();
        let raw = self
            .transport
            .call(&req.encode())
            .map_err(|e| BrokerError::Transport(e.to_string()))?;
        let reply = wire::decode_reply(Bytes::from(raw));
        hist.observe_since(started);
        reply
    }

    fn unexpected(resp: Response) -> BrokerError {
        BrokerError::Transport(format!("unexpected response shape: {resp:?}"))
    }

    fn expect_unit(&self, req: &Request<'_>, hist: &crayfish_obs::HistHandle) -> Result<()> {
        match self.call(req, hist)? {
            Response::Unit => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    fn expect_offset(&self, req: &Request<'_>, hist: &crayfish_obs::HistHandle) -> Result<u64> {
        match self.call(req, hist)? {
            Response::Offset(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    fn expect_appended(&self, req: &Request<'_>) -> Result<(u64, f64)> {
        match self.call(req, &self.rpc_append)? {
            Response::Appended {
                offset,
                append_time_ms,
            } => Ok((offset, append_time_ms)),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Liveness probe: true once the served broker answers a `Ping`.
    pub fn ping(&self) -> bool {
        matches!(
            self.call(&Request::Ping, &self.rpc_admin),
            Ok(Response::Pong)
        )
    }
}

impl BrokerApi for RemoteBroker {
    fn create_topic(&self, name: &str, partitions: u32) -> Result<()> {
        self.expect_unit(
            &Request::CreateTopic {
                name,
                partitions,
                retention_bytes: None,
            },
            &self.rpc_admin,
        )
    }

    fn create_topic_with_retention(
        &self,
        name: &str,
        partitions: u32,
        retention_bytes: usize,
    ) -> Result<()> {
        self.expect_unit(
            &Request::CreateTopic {
                name,
                partitions,
                retention_bytes: Some(retention_bytes as u64),
            },
            &self.rpc_admin,
        )
    }

    fn delete_topic(&self, name: &str) -> Result<()> {
        self.expect_unit(&Request::DeleteTopic { name }, &self.rpc_admin)
    }

    fn partitions(&self, topic: &str) -> Result<u32> {
        match self.call(&Request::Partitions { topic }, &self.rpc_admin)? {
            Response::Count(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    fn earliest_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        self.expect_offset(
            &Request::EarliestOffset { topic, partition },
            &self.rpc_admin,
        )
    }

    fn end_offset(&self, topic: &str, partition: u32) -> Result<u64> {
        self.expect_offset(&Request::EndOffset { topic, partition }, &self.rpc_admin)
    }

    fn total_records(&self, topic: &str) -> Result<u64> {
        self.expect_offset(&Request::TotalRecords { topic }, &self.rpc_admin)
    }

    fn append(&self, topic: &str, partition: u32, values: Vec<(Bytes, f64)>) -> Result<(u64, f64)> {
        self.expect_appended(&Request::Append {
            topic,
            partition,
            dedup: None,
            records: Cow::Owned(values),
        })
    }

    fn append_dedup(
        &self,
        topic: &str,
        partition: u32,
        producer_id: u64,
        first_seq: u64,
        values: Vec<(Bytes, f64)>,
    ) -> Result<(u64, f64)> {
        self.expect_appended(&Request::Append {
            topic,
            partition,
            dedup: Some((producer_id, first_seq)),
            records: Cow::Owned(values),
        })
    }

    fn read(
        &self,
        topic: &str,
        partition: u32,
        offset: u64,
        max_records: usize,
        max_bytes: usize,
    ) -> Result<Vec<FetchedRecord>> {
        match self.call(
            &Request::Read {
                topic,
                partition,
                offset,
                max_records: max_records as u64,
                max_bytes: max_bytes as u64,
            },
            &self.rpc_read,
        )? {
            Response::Records(records) => Ok(records),
            other => Err(Self::unexpected(other)),
        }
    }

    fn replication_status(&self, topic: &str) -> Result<Vec<ReplicationStatus>> {
        match self.call(&Request::ReplicationStatus { topic }, &self.rpc_admin)? {
            Response::Status(status) => Ok(status),
            other => Err(Self::unexpected(other)),
        }
    }

    fn commit_offset(&self, group: &str, topic: &str, partition: u32, next: u64) -> Result<()> {
        self.expect_unit(
            &Request::CommitOffset {
                group,
                topic,
                partition,
                next,
            },
            &self.rpc_commit,
        )
    }

    fn committed_offset(&self, group: &str, topic: &str, partition: u32) -> Result<u64> {
        self.expect_offset(
            &Request::CommittedOffset {
                group,
                topic,
                partition,
            },
            &self.rpc_commit,
        )
    }

    fn group_lag(&self, group: &str, topic: &str) -> Result<u64> {
        self.expect_offset(&Request::GroupLag { group, topic }, &self.rpc_admin)
    }

    fn join_group(&self, group: &str, member: &str) -> Result<u64> {
        self.expect_offset(&Request::JoinGroup { group, member }, &self.rpc_admin)
    }

    fn leave_group(&self, group: &str, member: &str) -> Result<()> {
        self.expect_unit(&Request::LeaveGroup { group, member }, &self.rpc_admin)
    }

    fn group_generation(&self, group: &str) -> Result<u64> {
        self.expect_offset(&Request::GroupGeneration { group }, &self.rpc_admin)
    }

    fn group_assignment(&self, group: &str, topic: &str, member: &str) -> Result<Vec<u32>> {
        match self.call(
            &Request::GroupAssignment {
                group,
                topic,
                member,
            },
            &self.rpc_admin,
        )? {
            Response::Assignment(parts) => Ok(parts),
            other => Err(Self::unexpected(other)),
        }
    }

    fn commit_offsets_fenced(
        &self,
        group: &str,
        topic: &str,
        member: &str,
        generation: u64,
        offsets: &std::collections::HashMap<u32, u64>,
    ) -> Result<()> {
        let mut pairs: Vec<(u32, u64)> = offsets.iter().map(|(&p, &n)| (p, n)).collect();
        pairs.sort_unstable();
        self.expect_unit(
            &Request::CommitOffsetsFenced {
                group,
                topic,
                member,
                generation,
                offsets: Cow::Owned(pairs),
            },
            &self.rpc_commit,
        )
    }

    fn topic_version(&self, topic: &str) -> Result<u64> {
        self.expect_offset(&Request::TopicVersion { topic }, &self.rpc_poll)
    }

    fn wait_for_data(&self, topic: &str, seen: u64, timeout: Duration) -> Result<u64> {
        // Loop short server-side slices up to the caller's deadline: a
        // leader that dies mid-long-poll is noticed within one slice, and
        // each slice stays far below the transport's read timeout.
        let deadline = crayfish_sim::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(crayfish_sim::now());
            let slice = remaining.min(CLIENT_POLL_SLICE);
            let req = Request::WaitForData {
                topic,
                seen,
                timeout_ms: slice.as_millis() as u64,
            };
            match self.call(&req, &self.rpc_poll) {
                Ok(Response::Offset(version)) => {
                    if version > seen || remaining <= slice {
                        return Ok(version);
                    }
                }
                Ok(other) => return Err(Self::unexpected(other)),
                Err(e) if e.is_transient() => {
                    if remaining <= slice {
                        // Deadline reached with the link down: report "no
                        // progress observed", like a timed-out long-poll.
                        return Ok(seen);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn obs(&self) -> &crayfish_obs::ObsHandle {
        &self.obs
    }

    fn chaos(&self) -> &crayfish_chaos::ChaosHandle {
        &self.chaos
    }

    fn network(&self) -> NetworkModel {
        // The wire is real; no modelled hop on top.
        NetworkModel::zero()
    }

    fn is_remote(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::Broker;
    use crate::consumer::PartitionConsumer;
    use crate::producer::{Producer, ProducerConfig};

    fn local() -> Arc<Broker> {
        Broker::new(NetworkModel::zero())
    }

    fn remote_over_inproc(broker: Arc<Broker>) -> Arc<RemoteBroker> {
        let server: Arc<dyn BrokerApi> = broker;
        let transport =
            crayfish_net::InProcTransport::new(Arc::new(move |frame, out: &mut Vec<u8>| {
                handle_frame(server.as_ref(), frame, out)
            }));
        RemoteBroker::with_parts(
            Box::new(transport),
            crayfish_obs::ObsHandle::disabled(),
            crayfish_chaos::ChaosHandle::disabled(),
        )
    }

    #[test]
    fn remote_broker_over_inproc_transport_matches_local_semantics() {
        let local = local();
        let remote = remote_over_inproc(local.clone());
        remote.create_topic("t", 2).unwrap();
        let (off, ts) = remote
            .append("t", 1, vec![(Bytes::from_static(b"hello"), 4.0)])
            .unwrap();
        assert_eq!(off, 0);
        assert!(ts > 0.0);
        // Visible through the local handle too: same broker.
        assert_eq!(local.end_offset("t", 1).unwrap(), 1);
        let recs = BrokerApi::read(remote.as_ref(), "t", 1, 0, 10, usize::MAX).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(&recs[0].value[..], b"hello");
        assert_eq!(recs[0].produce_time_ms, 4.0);
        assert!(matches!(
            remote.append("nope", 0, vec![]),
            Err(BrokerError::UnknownTopic(_))
        ));
    }

    #[test]
    fn producer_and_consumer_run_unchanged_over_rpc() {
        let local = local();
        local.create_topic("t", 2).unwrap();
        let remote = remote_over_inproc(local.clone());
        let mut producer = Producer::new(remote.clone(), "t", ProducerConfig::default()).unwrap();
        for i in 0..10u8 {
            producer
                .send(Some(u32::from(i % 2)), Bytes::from(vec![i]))
                .unwrap();
        }
        producer.flush();
        let mut consumer = PartitionConsumer::new(remote, "t", "g", vec![0, 1]).unwrap();
        let mut got = Vec::new();
        while got.len() < 10 {
            let recs = consumer.poll(Duration::from_millis(200)).unwrap();
            assert!(!recs.is_empty(), "timed out with {} records", got.len());
            got.extend(recs);
        }
        consumer.commit();
        assert_eq!(local.group_lag("g", "t").unwrap(), 0);
    }

    #[test]
    fn deferred_sends_ship_as_one_request_at_the_flush() {
        let local = local();
        local.create_topic("t", 4).unwrap();
        let obs = crayfish_obs::ObsHandle::enabled();
        let server: Arc<dyn BrokerApi> = local.clone();
        let transport =
            crayfish_net::InProcTransport::new(Arc::new(move |frame, out: &mut Vec<u8>| {
                handle_frame(server.as_ref(), frame, out)
            }));
        let remote = RemoteBroker::with_parts(
            Box::new(transport),
            obs.clone(),
            crayfish_chaos::ChaosHandle::disabled(),
        );
        let mut p = Producer::new(remote, "t", ProducerConfig::default()).unwrap();
        for i in 0..100u8 {
            p.send_deferred(None, Bytes::from(vec![i])).unwrap();
        }
        // Nothing asked for them yet: the records are still queued.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(local.total_records("t").unwrap(), 0);
        p.flush();
        assert_eq!(local.total_records("t").unwrap(), 100);
        assert_eq!(obs.counter("broker_append_requests").get(), 1);
        // A close ships what a caller deferred and never flushed.
        p.send_deferred(Some(0), Bytes::from_static(b"x")).unwrap();
        p.close().unwrap();
        assert_eq!(local.total_records("t").unwrap(), 101);
    }

    #[test]
    fn served_broker_answers_over_real_tcp() {
        let local: Arc<dyn BrokerApi> = local();
        let server = serve(local.clone(), SocketAddr::from(([127, 0, 0, 1], 0)), 2).unwrap();
        let remote = RemoteBroker::connect(server.addr());
        assert!(remote.ping());
        remote.create_topic("t", 1).unwrap();
        remote
            .append("t", 0, vec![(Bytes::from_static(b"x"), 0.0)])
            .unwrap();
        assert_eq!(remote.end_offset("t", 0).unwrap(), 1);
        assert_eq!(local.end_offset("t", 0).unwrap(), 1);
        // Typed error over the real socket.
        assert!(matches!(
            remote.partitions("missing"),
            Err(BrokerError::UnknownTopic(_))
        ));
        server.shutdown();
        // Transport errors surface as the transient Transport variant.
        match remote.end_offset("t", 0) {
            Err(BrokerError::Transport(_)) => {}
            other => panic!("expected transport error, got {other:?}"),
        }
    }

    #[test]
    fn long_poll_wakes_remote_consumers() {
        let local = local();
        local.create_topic("t", 1).unwrap();
        let server = serve(
            local.clone() as Arc<dyn BrokerApi>,
            SocketAddr::from(([127, 0, 0, 1], 0)),
            // Two workers: one parks in the long-poll, the other serves the
            // append that wakes it.
            2,
        )
        .unwrap();
        let remote = RemoteBroker::connect(server.addr());
        let waiter = remote.clone();
        let handle = std::thread::spawn(move || {
            BrokerApi::wait_for_data(waiter.as_ref(), "t", 0, Duration::from_secs(5))
        });
        std::thread::sleep(Duration::from_millis(30));
        local
            .append("t", 0, vec![(Bytes::from_static(b"x"), 0.0)])
            .unwrap();
        let version = handle.join().expect("waiter panicked").unwrap();
        assert!(
            version > 0,
            "long-poll returned without observing the append"
        );
        server.shutdown();
    }
}

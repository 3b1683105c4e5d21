//! Property tests of the wire format (`crayfish_broker::wire`).
//!
//! * every request, response and error variant round-trips with its fields
//!   (and an error's transience) intact;
//! * the decoders are total: arbitrary bytes, truncations of valid frames
//!   and valid frames with a corrupted length or count either decode or
//!   yield a typed `BrokerError::Transport` — they never panic, and what
//!   they allocate is bounded by the frame they were given, whatever a
//!   count inside it claims.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;

use bytes::Bytes;
use crayfish_broker::wire::{self, Request, Response};
use crayfish_broker::{rpc, Broker, BrokerError, FetchedRecord, NodeStatus, ReplicationStatus};
use crayfish_net::{TcpTransport, Transport};
use crayfish_sim::NetworkModel;
use proptest::collection::vec;
use proptest::prelude::*;

thread_local! {
    /// Bytes this thread has asked the allocator for.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, tallying requested bytes per thread.
struct Tally;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tally only reads and writes a thread-local
// `Cell<usize>` that has no destructor and never allocates.
unsafe impl GlobalAlloc for Tally {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + new_size));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Tally = Tally;

/// Run `f`; return its result and the bytes it allocated on this thread.
fn allocating<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A decoded element is at most this many times larger in memory than on
/// the wire (an empty record: 12 bytes encoded, a `(Bytes, f64)` decoded),
/// plus the `Bytes` handle of the frame and one error message.
fn allocation_bound(frame_len: usize) -> usize {
    4 * frame_len + 256
}

/// Field values for one variant of everything.
#[derive(Debug)]
struct Fields {
    strs: Vec<String>,
    nums: Vec<u64>,
    present: bool,
    records: Vec<(Bytes, f64)>,
    pairs: Vec<(u32, u64)>,
}

fn text() -> impl Strategy<Value = String> {
    vec(any::<char>(), 0..6).prop_map(|chars| chars.into_iter().collect())
}

fn fields() -> impl Strategy<Value = Fields> {
    (
        vec(text(), 3),
        vec(any::<u64>(), 9),
        any::<bool>(),
        vec((vec(any::<u8>(), 0..40), -100_000i32..100_000), 0..5),
        vec((any::<u32>(), any::<u64>()), 0..6),
    )
        .prop_map(|(strs, nums, present, records, pairs)| Fields {
            strs,
            nums,
            present,
            records: records
                .into_iter()
                .map(|(value, t)| (Bytes::from(value), f64::from(t) / 8.0))
                .collect(),
            pairs,
        })
}

const REQUESTS: usize = 26;

fn request(variant: usize, f: &Fields) -> Request<'_> {
    let (a, b, c) = (f.strs[0].as_str(), f.strs[1].as_str(), f.strs[2].as_str());
    let n = &f.nums;
    let small = |i: usize| n[i] as u32;
    let dedup = f.present.then_some((n[3], n[4]));
    match variant {
        0 => Request::CreateTopic {
            name: a,
            partitions: small(0),
            retention_bytes: f.present.then_some(n[1]),
        },
        1 => Request::DeleteTopic { name: a },
        2 => Request::Partitions { topic: a },
        3 => Request::EarliestOffset {
            topic: a,
            partition: small(0),
        },
        4 => Request::EndOffset {
            topic: a,
            partition: small(0),
        },
        5 => Request::TotalRecords { topic: a },
        6 => Request::Append {
            topic: a,
            partition: small(0),
            dedup,
            records: Cow::Borrowed(&f.records),
        },
        7 => Request::Read {
            topic: a,
            partition: small(0),
            offset: n[1],
            max_records: n[2],
            max_bytes: n[3],
        },
        8 => Request::ReplicationStatus { topic: a },
        9 => Request::CommitOffset {
            group: a,
            topic: b,
            partition: small(0),
            next: n[1],
        },
        10 => Request::CommittedOffset {
            group: a,
            topic: b,
            partition: small(0),
        },
        11 => Request::GroupLag { group: a, topic: b },
        12 => Request::JoinGroup {
            group: a,
            member: b,
        },
        13 => Request::LeaveGroup {
            group: a,
            member: b,
        },
        14 => Request::GroupGeneration { group: a },
        15 => Request::GroupAssignment {
            group: a,
            topic: b,
            member: c,
        },
        16 => Request::CommitOffsetsFenced {
            group: a,
            topic: b,
            member: c,
            generation: n[0],
            offsets: Cow::Borrowed(&f.pairs),
        },
        17 => Request::TopicVersion { topic: a },
        18 => Request::WaitForData {
            topic: a,
            seen: n[0],
            timeout_ms: n[1],
        },
        19 => Request::Ping,
        20 => Request::Replicate {
            epoch: n[0],
            topic: a,
            partitions: small(1),
            partition: small(2),
            base: n[5],
            dedup,
            records: Cow::Borrowed(&f.records),
        },
        21 => Request::ReplicateCreateTopic {
            epoch: n[0],
            name: a,
            partitions: small(1),
            retention_bytes: f.present.then_some(n[2]),
        },
        22 => Request::ReplicateDeleteTopic {
            epoch: n[0],
            name: a,
        },
        23 => Request::ReplicateCommits {
            epoch: n[0],
            group: a,
            topic: b,
            offsets: Cow::Borrowed(&f.pairs),
        },
        24 => Request::Promote { epoch: n[0] },
        _ => Request::Status,
    }
}

/// No wildcard: a new variant fails to compile here until `request` (and
/// `REQUESTS`) cover it.
fn request_variant(req: &Request<'_>) -> usize {
    match req {
        Request::CreateTopic { .. } => 0,
        Request::DeleteTopic { .. } => 1,
        Request::Partitions { .. } => 2,
        Request::EarliestOffset { .. } => 3,
        Request::EndOffset { .. } => 4,
        Request::TotalRecords { .. } => 5,
        Request::Append { .. } => 6,
        Request::Read { .. } => 7,
        Request::ReplicationStatus { .. } => 8,
        Request::CommitOffset { .. } => 9,
        Request::CommittedOffset { .. } => 10,
        Request::GroupLag { .. } => 11,
        Request::JoinGroup { .. } => 12,
        Request::LeaveGroup { .. } => 13,
        Request::GroupGeneration { .. } => 14,
        Request::GroupAssignment { .. } => 15,
        Request::CommitOffsetsFenced { .. } => 16,
        Request::TopicVersion { .. } => 17,
        Request::WaitForData { .. } => 18,
        Request::Ping => 19,
        Request::Replicate { .. } => 20,
        Request::ReplicateCreateTopic { .. } => 21,
        Request::ReplicateDeleteTopic { .. } => 22,
        Request::ReplicateCommits { .. } => 23,
        Request::Promote { .. } => 24,
        Request::Status => 25,
    }
}

const RESPONSES: usize = 13;

fn response(variant: usize, f: &Fields) -> Response {
    let n = &f.nums;
    match variant {
        0 => Response::Unit,
        1 => Response::Count(n[0] as u32),
        2 => Response::Offset(n[0]),
        3 => Response::Appended {
            offset: n[0],
            append_time_ms: n[1] as f64 / 16.0,
        },
        4 => Response::Records(
            f.records
                .iter()
                .zip(n.iter().cycle())
                .map(|((value, produce_time_ms), &k)| FetchedRecord {
                    partition: k as u32,
                    offset: k.rotate_left(17),
                    value: value.clone(),
                    produce_time_ms: *produce_time_ms,
                    append_time_ms: produce_time_ms + 0.5,
                })
                .collect(),
        ),
        5 => Response::Status(
            f.pairs
                .iter()
                .map(|&(p, o)| ReplicationStatus {
                    leader: p,
                    epoch: o,
                    elections: n[0],
                    isr: n[1] as u32,
                    replicas: n[2] as u32,
                    high_watermark: n[3],
                    log_end: n[4],
                    min_isr_end: n[5],
                    max_follower_lag: n[6],
                })
                .collect(),
        ),
        6 => Response::Assignment(f.pairs.iter().map(|&(p, _)| p).collect()),
        7 => Response::Pong,
        8 => Response::Ack { end: n[0] },
        9 => Response::Mismatch { end: n[0] },
        10 => Response::Fenced { current: n[0] },
        11 => Response::Promoted { epoch: n[0] },
        _ => Response::Node(NodeStatus {
            id: n[0] as u32,
            epoch: n[1],
            is_leader: f.present,
            log_end_total: n[2],
        }),
    }
}

fn response_variant(resp: &Response) -> usize {
    match resp {
        Response::Unit => 0,
        Response::Count(_) => 1,
        Response::Offset(_) => 2,
        Response::Appended { .. } => 3,
        Response::Records(_) => 4,
        Response::Status(_) => 5,
        Response::Assignment(_) => 6,
        Response::Pong => 7,
        Response::Ack { .. } => 8,
        Response::Mismatch { .. } => 9,
        Response::Fenced { .. } => 10,
        Response::Promoted { .. } => 11,
        Response::Node(_) => 12,
    }
}

const ERRORS: usize = 14;

fn error(variant: usize, f: &Fields) -> BrokerError {
    let (a, b) = (f.strs[0].clone(), f.strs[1].clone());
    let n = &f.nums;
    let partition = n[0] as u32;
    match variant {
        0 => BrokerError::UnknownTopic(a),
        1 => BrokerError::UnknownPartition {
            topic: a,
            partition,
        },
        2 => BrokerError::TopicExists(a),
        3 => BrokerError::ProducerClosed,
        4 => BrokerError::OffsetOutOfRange {
            topic: a,
            partition,
            offset: n[1],
            end: n[2],
        },
        5 => BrokerError::Unavailable {
            topic: a,
            partition,
        },
        6 => BrokerError::Fabric(a),
        7 => BrokerError::FencedLeaderEpoch {
            topic: a,
            partition,
            current: n[1],
        },
        8 => BrokerError::NotEnoughReplicas {
            topic: a,
            partition,
            isr: n[1] as u32,
            min_isr: n[2] as u32,
        },
        9 => BrokerError::InvalidCluster(a),
        10 => BrokerError::RebalanceInProgress { group: a },
        11 => BrokerError::NotGroupMember {
            group: a,
            member: b,
        },
        12 => BrokerError::NotLeader { epoch: n[1] },
        _ => BrokerError::Transport(a),
    }
}

fn error_variant(e: &BrokerError) -> usize {
    match e {
        BrokerError::UnknownTopic(_) => 0,
        BrokerError::UnknownPartition { .. } => 1,
        BrokerError::TopicExists(_) => 2,
        BrokerError::ProducerClosed => 3,
        BrokerError::OffsetOutOfRange { .. } => 4,
        BrokerError::Unavailable { .. } => 5,
        BrokerError::Fabric(_) => 6,
        BrokerError::FencedLeaderEpoch { .. } => 7,
        BrokerError::NotEnoughReplicas { .. } => 8,
        BrokerError::InvalidCluster(_) => 9,
        BrokerError::RebalanceInProgress { .. } => 10,
        BrokerError::NotGroupMember { .. } => 11,
        BrokerError::NotLeader { .. } => 12,
        BrokerError::Transport(_) => 13,
    }
}

fn encoded_reply(reply: &Result<Response, BrokerError>) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode_reply(reply, &mut out);
    out
}

/// One valid frame of every request variant, then of every reply.
fn valid_frames(f: &Fields) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let requests = (0..REQUESTS).map(|v| request(v, f).encode()).collect();
    let replies = (0..RESPONSES)
        .map(|v| Ok(response(v, f)))
        .chain((0..ERRORS).map(|v| Err(error(v, f))))
        .map(|reply| encoded_reply(&reply))
        .collect();
    (requests, replies)
}

fn is_transport(e: &BrokerError) -> bool {
    matches!(e, BrokerError::Transport(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_request_variant_roundtrips(f in fields()) {
        for variant in 0..REQUESTS {
            let req = request(variant, &f);
            prop_assert_eq!(request_variant(&req), variant);
            let frame = Bytes::from(req.encode());
            let back = Request::decode(&frame);
            prop_assert_eq!(back, Ok(req));
        }
    }

    #[test]
    fn every_response_and_error_variant_roundtrips(f in fields()) {
        for variant in 0..RESPONSES {
            let resp = response(variant, &f);
            prop_assert_eq!(response_variant(&resp), variant);
            let frame = encoded_reply(&Ok(resp.clone()));
            prop_assert!(!wire::is_leadership_error(&frame));
            prop_assert_eq!(wire::decode_reply(Bytes::from(frame)), Ok(resp));
        }
        for variant in 0..ERRORS {
            let err = error(variant, &f);
            prop_assert_eq!(error_variant(&err), variant);
            let frame = encoded_reply(&Err(err.clone()));
            prop_assert_eq!(
                wire::is_leadership_error(&frame),
                matches!(
                    err,
                    BrokerError::NotLeader { .. } | BrokerError::FencedLeaderEpoch { .. }
                )
            );
            let back = wire::decode_reply(Bytes::from(frame));
            // Remote retry policies key off the decoded variant.
            prop_assert_eq!(back.as_ref().map_err(BrokerError::is_transient), Err(err.is_transient()));
            prop_assert_eq!(back, Err(err));
        }
    }

    #[test]
    fn truncated_frames_are_refused(f in fields()) {
        let (requests, replies) = valid_frames(&f);
        for frame in &requests {
            for cut in 0..frame.len() {
                let prefix = Bytes::copy_from_slice(&frame[..cut]);
                let back = Request::decode(&prefix);
                prop_assert!(matches!(&back, Err(e) if is_transport(e)), "cut {}: {:?}", cut, back);
            }
        }
        for frame in &replies {
            for cut in 0..frame.len() {
                let back = wire::decode_reply(Bytes::copy_from_slice(&frame[..cut]));
                prop_assert!(matches!(&back, Err(e) if is_transport(e)), "cut {}: {:?}", cut, back);
            }
        }
    }

    #[test]
    fn corrupted_lengths_and_counts_are_bounded_by_the_frame(
        f in fields(),
        at in any::<usize>(),
        value in any::<u32>(),
    ) {
        let (requests, replies) = valid_frames(&f);
        let corrupt = |frame: &[u8]| {
            let mut frame = frame.to_vec();
            if frame.len() >= 4 {
                let at = at % (frame.len() - 3);
                frame[at..at + 4].copy_from_slice(&value.to_le_bytes());
            }
            Bytes::from(frame)
        };
        for frame in &requests {
            let frame = corrupt(frame);
            let (back, allocated) = allocating(|| Request::decode(&frame).map(drop));
            prop_assert!(allocated <= allocation_bound(frame.len()), "{} bytes for a frame of {}", allocated, frame.len());
            prop_assert!(matches!(&back, Ok(()) | Err(BrokerError::Transport(_))), "{:?}", back);
        }
        for frame in &replies {
            let frame = corrupt(frame);
            let len = frame.len();
            // A corrupted reply may still be a well-formed one (of another
            // error, say): what is required is no panic and no more memory
            // than the frame accounts for.
            let ((), allocated) = allocating(|| drop(wire::decode_reply(frame)));
            prop_assert!(allocated <= allocation_bound(len), "{} bytes for a frame of {}", allocated, len);
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_decode_or_answer_a_typed_error(bytes in vec(any::<u8>(), 0..300)) {
        let len = bytes.len();
        let frame = Bytes::from(bytes.clone());
        let (request, allocated) = allocating(|| Request::decode(&frame).map(drop));
        prop_assert!(allocated <= allocation_bound(len));
        let (reply, allocated) = allocating(|| wire::decode_reply(frame.clone()).map(drop));
        prop_assert!(allocated <= allocation_bound(len));
        // Not a reply: the client reports a transport failure. (Bytes that
        // do form a reply decode to whatever they say.)
        if let Err(e) = &reply {
            let reencoded = encoded_reply(&Err(e.clone()));
            prop_assert!(is_transport(e) || reencoded == bytes, "{:?}", e);
        }
        // Not a request: the server answers the typed error, and goes on
        // serving.
        if let Err(e) = request {
            prop_assert!(is_transport(&e));
            let broker = Broker::new(NetworkModel::zero());
            let mut out = Vec::new();
            rpc::handle_frame(broker.as_ref(), bytes, &mut out);
            prop_assert_eq!(wire::decode_reply(Bytes::from(out)), Err(e));
            let mut out = Vec::new();
            rpc::handle_frame(broker.as_ref(), Request::Ping.encode(), &mut out);
            prop_assert_eq!(wire::decode_reply(Bytes::from(out)), Ok(Response::Pong));
        }
    }
}

#[test]
fn malformed_frames_are_answered_on_the_same_connection() {
    let broker = Broker::new(NetworkModel::zero());
    let server = rpc::serve(broker, ([127, 0, 0, 1], 0).into(), 1).expect("serve");
    let obs = crayfish_obs::ObsHandle::enabled();
    let transport = TcpTransport::with_instruments(
        server.addr(),
        &obs,
        crayfish_chaos::ChaosHandle::disabled(),
    );
    let mut truncated = Request::Partitions { topic: "topic" }.encode();
    truncated.pop();
    let mut overcounted = Request::Append {
        topic: "t",
        partition: 0,
        dedup: None,
        records: Cow::Owned(Vec::new()),
    }
    .encode();
    let count_at = overcounted.len() - 4;
    overcounted[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
    for garbage in [
        Vec::new(),
        vec![0xFF],
        vec![0x07; 64],
        truncated,
        overcounted,
    ] {
        let reply = transport.call(&garbage).expect("the server answers");
        match wire::decode_reply(Bytes::from(reply)) {
            Err(BrokerError::Transport(msg)) => assert!(msg.contains("bad request"), "{msg}"),
            other => panic!("expected a typed transport error, got {other:?}"),
        }
    }
    let reply = transport.call(&Request::Ping.encode()).expect("ping");
    assert_eq!(wire::decode_reply(Bytes::from(reply)), Ok(Response::Pong));
    assert_eq!(
        obs.counter("net_reconnects").get(),
        0,
        "connection was dropped"
    );
    server.shutdown();
}

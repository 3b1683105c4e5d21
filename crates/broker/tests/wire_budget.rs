//! What the broker's wire path costs, checked without the benchmark: bytes
//! on the socket per payload byte, which allocation record values live in
//! on either side of a hop, and that a fetch larger than a frame still
//! makes progress.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crayfish_broker::wire::{self, Request, Response};
use crayfish_broker::{rpc, Broker, BrokerApi, FetchedRecord, RemoteBroker};
use crayfish_chaos::ChaosHandle;
use crayfish_net::MAX_FRAME_BYTES;
use crayfish_obs::ObsHandle;
use crayfish_sim::NetworkModel;

const RECORD_BYTES: usize = 7 * 1024;

fn batch(n: usize) -> Vec<(Bytes, f64)> {
    (0..n)
        .map(|i| (Bytes::from(vec![i as u8; RECORD_BYTES]), i as f64))
        .collect()
}

fn addresses(value: &[u8]) -> Range<usize> {
    let start = value.as_ptr() as usize;
    start..start + value.len()
}

#[test]
fn a_record_batch_costs_its_payload_plus_five_percent_each_way() {
    let broker = Broker::new(NetworkModel::zero());
    let server = rpc::serve(broker, ([127, 0, 0, 1], 0).into(), 1).expect("serve");
    let obs = ObsHandle::enabled();
    let remote = RemoteBroker::connect_with(server.addr(), obs.clone(), ChaosHandle::disabled());
    remote.create_topic("t", 1).expect("create");
    remote.append("t", 0, batch(100)).expect("append");
    let back = remote.read("t", 0, 0, 100, usize::MAX).expect("read");
    assert_eq!(back.len(), 100);
    let payload = (100 * RECORD_BYTES) as f64;
    for counter in ["net_bytes_out", "net_bytes_in"] {
        let moved = obs.counter(counter).get() as f64;
        assert!(
            moved >= payload,
            "{counter}: {moved} bytes cannot hold the payload"
        );
        assert!(
            moved <= 1.05 * payload,
            "{counter}: {moved} bytes for {payload} bytes of records"
        );
    }
    server.shutdown();
}

#[test]
fn fetched_values_are_slices_of_the_one_reply_frame() {
    let broker = Broker::new(NetworkModel::zero());
    let server = rpc::serve(broker, ([127, 0, 0, 1], 0).into(), 1).expect("serve");
    let remote = RemoteBroker::connect(server.addr());
    remote.create_topic("t", 1).expect("create");
    remote.append("t", 0, batch(50)).expect("append");
    let back = remote.read("t", 0, 0, 50, usize::MAX).expect("read");
    assert_eq!(back.len(), 50);
    // Consecutive values are one fetched-record header apart: they lie in
    // the order they were sent, inside a single allocation.
    let header = 4 + 8 + 8 + 8 + 4;
    for pair in back.windows(2) {
        let (this, next) = (addresses(&pair[0].value), addresses(&pair[1].value));
        assert_eq!(next.start, this.end + header, "values are not in one frame");
    }
    server.shutdown();
}

#[test]
fn the_log_stores_slices_of_the_request_frame() {
    let broker = Broker::new(NetworkModel::zero());
    broker.create_topic("t", 1).expect("create");
    let frame = Request::Append {
        topic: "t",
        partition: 0,
        dedup: Some((7, 0)),
        records: Cow::Owned(batch(20)),
    }
    .encode();
    let frame_addresses = addresses(&frame);
    let mut reply = Vec::new();
    rpc::handle_frame(broker.as_ref(), frame, &mut reply);
    assert!(matches!(
        wire::decode_reply(Bytes::from(reply)),
        Ok(Response::Appended { offset: 0, .. })
    ));
    let stored = broker.read("t", 0, 0, 100, usize::MAX).expect("read");
    assert_eq!(stored.len(), 20);
    for record in &stored {
        let value = addresses(&record.value);
        assert!(
            frame_addresses.start <= value.start && value.end <= frame_addresses.end,
            "a stored value was copied out of its request frame"
        );
    }
}

/// Regression: a partition holding more than one frame's worth of records,
/// read with no byte cap, used to produce a reply the server could not
/// frame; the responder was dropped and the consumer retried the same read
/// after every read timeout, forever.
#[test]
fn a_fetch_larger_than_a_frame_returns_a_prefix_and_continues() {
    const RECORD: usize = 1 << 20;
    let records = MAX_FRAME_BYTES / RECORD + 6;
    let broker = Broker::new(NetworkModel::zero());
    let server = rpc::serve(broker, ([127, 0, 0, 1], 0).into(), 1).expect("serve");
    let remote: Arc<dyn BrokerApi> = RemoteBroker::connect(server.addr());
    remote
        .create_topic_with_retention("big", 1, 4 * MAX_FRAME_BYTES)
        .expect("create");
    for i in 0..records {
        let value = Bytes::from(vec![i as u8; RECORD]);
        remote.append("big", 0, vec![(value, 0.0)]).expect("append");
    }

    let started = Instant::now();
    let first = remote
        .read("big", 0, 0, usize::MAX, usize::MAX)
        .expect("first read");
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "the read waited out a timeout"
    );
    assert!(
        !first.is_empty() && first.len() < records,
        "{}",
        first.len()
    );
    let next = first.last().map_or(0, |r| r.offset + 1);
    let rest = remote
        .read("big", 0, next, usize::MAX, usize::MAX)
        .expect("second read");
    let all: Vec<&FetchedRecord> = first.iter().chain(&rest).collect();
    assert_eq!(all.len(), records, "the second read did not finish the log");
    for (i, record) in all.iter().enumerate() {
        assert_eq!(record.offset, i as u64);
        assert_eq!(record.value.len(), RECORD);
        assert_eq!(record.value[0], i as u8);
    }
    server.shutdown();
}

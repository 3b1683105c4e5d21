//! Transport equivalence: the leader-failover drill must behave
//! identically whether the broker is reached directly, through a
//! `RemoteBroker` over the in-process transport, or through a
//! `RemoteBroker` over real TCP sockets.
//!
//! The drill is the chaos-matrix LeaderKill case: records flow while
//! partition 0's leader node dies mid-stream; the cluster fails over, the
//! producer's patient retries ride out the window, and every record must
//! arrive exactly once (the broker's idempotence window absorbs retries).
//! `CHAOS_SEED` varies the flush cadence like the in-proc drill.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use crayfish::broker::{
    rpc, Broker, BrokerApi, PartitionConsumer, Producer, ProducerConfig, RemoteBroker,
};
use crayfish::chaos::poll_until;
use crayfish::net::{InProcTransport, RpcHandler};
use crayfish::prelude::*;

const TOTAL: u64 = 120;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// A replicated in-process cluster the transports will front.
fn backing_cluster(chaos: &ChaosHandle) -> Arc<Broker> {
    let broker = Broker::with_cluster(
        NetworkModel::zero(),
        ObsHandle::disabled(),
        chaos.clone(),
        ClusterConfig::replicated(),
    )
    .unwrap();
    broker.create_topic("t", 4).unwrap();
    broker
}

/// Run the LeaderKill drill through `client`, asserting zero loss, zero
/// duplicates, failover, and a measured MTTR on `chaos`.
fn drill(client: Arc<dyn BrokerApi>, chaos: &ChaosHandle, label: &str) {
    let seed = chaos_seed();
    let mut producer = Producer::new(
        client.clone(),
        "t",
        ProducerConfig {
            retry: RetryPolicy::patient(),
            ..Default::default()
        },
    )
    .unwrap();

    // The drain side goes through the same transport; its lag-zero probe
    // is also what closes the incident and yields the MTTR.
    let mut consumer =
        PartitionConsumer::new(client.clone(), "t", "drill", (0..4).collect()).unwrap();
    let mut all: Vec<u64> = Vec::new();
    let mut drain = |all: &mut Vec<u64>| {
        for r in consumer.poll(Duration::from_millis(20)).unwrap_or_default() {
            all.push(u64::from_le_bytes(r.value[..8].try_into().unwrap()));
        }
        consumer.commit();
    };

    let mut incident = None;
    for id in 0..TOTAL {
        producer
            .send(None, id.to_le_bytes().to_vec().into())
            .unwrap();
        if id % 8 == seed % 8 {
            producer.flush();
        }
        if id == TOTAL / 3 {
            incident = chaos.open_incident(FaultKind::LeaderKill);
            chaos.set_broker_dead(0, true);
        }
        if id == 2 * TOTAL / 3 {
            chaos.set_broker_dead(0, false);
            chaos.end_fault(incident.take());
        }
        drain(&mut all);
    }
    producer.flush();

    let drained = poll_until(Duration::from_secs(20), || {
        drain(&mut all);
        all.iter().copied().collect::<HashSet<_>>().len() as u64 >= TOTAL
    });
    let seen: HashSet<u64> = all.iter().copied().collect();
    assert!(
        drained,
        "{label}: only {} of {TOTAL} ids arrived",
        seen.len()
    );
    assert_eq!(seen.len() as u64, TOTAL, "{label}: lost records");
    assert_eq!(
        all.len() as u64,
        TOTAL,
        "{label}: duplicates past the idempotence window"
    );

    // Partition 0 really failed over while node 0 was dead.
    let status = client.replication_status("t").unwrap();
    assert_eq!(
        status[0].leader, 1,
        "{label}: partition 0 never failed over"
    );
    assert!(status[0].epoch >= 1, "{label}");

    let report = chaos.report();
    assert_eq!(report.incidents.len(), 1, "{label}: {report}");
    assert!(
        report.incidents[0].mttr_ms.unwrap_or(-1.0) > 0.0,
        "{label}: MTTR not measured: {report}"
    );
}

#[test]
fn leader_failover_drill_over_inproc_transport() {
    let chaos = ChaosHandle::enabled();
    let backing = backing_cluster(&chaos);
    let server: Arc<dyn BrokerApi> = backing;
    let handler: RpcHandler = {
        let b = server.clone();
        Arc::new(move |frame, out: &mut Vec<u8>| rpc::handle_frame(b.as_ref(), frame, out))
    };
    let client = RemoteBroker::with_parts(
        Box::new(InProcTransport::new(handler)),
        ObsHandle::disabled(),
        chaos.clone(),
    );
    drill(client, &chaos, "inproc");
}

#[test]
fn leader_failover_drill_over_tcp_transport() {
    let chaos = ChaosHandle::enabled();
    let backing = backing_cluster(&chaos);
    let server = rpc::serve(backing, "127.0.0.1:0".parse().unwrap(), 8).unwrap();
    let client = RemoteBroker::connect_with(server.addr(), ObsHandle::disabled(), chaos.clone());
    drill(client, &chaos, "tcp");
    server.shutdown();
}

//! Per-partition replicated logs: leader/follower replicas, ISR tracking,
//! a high watermark, leader-epoch fencing, and deterministic elections.
//!
//! Each partition is a [`ReplicatedPartition`]: `replication_factor` copies
//! of the log placed on distinct broker nodes, one of which is the leader.
//! Appends go to the leader and are synchronously replicated to every
//! in-sync follower before the ack (Kafka's `acks=all`); the **high
//! watermark** — the minimum log end across the ISR — is the commit point,
//! and fetches never return records above it. When chaos kills or isolates
//! the leader's node, a deterministic election promotes the alive ISR
//! member with the lowest broker id and bumps the **leader epoch**; an
//! append fenced with a stale epoch is rejected, so a demoted leader can
//! never accept a late write.
//!
//! Node death and isolation are modelled through
//! [`crayfish_chaos::ChaosHandle`] switches (`broker_dead` /
//! `broker_isolated`): with the default disabled handle every liveness
//! check is a single branch and a replication-factor-1 partition behaves
//! exactly like the original unreplicated log.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use crayfish_chaos::ChaosHandle;
use crayfish_sim::now_millis_f64;
use crayfish_sync::Mutex;

use crate::cluster::BrokerId;
use crate::topic::{FetchedRecord, StoredRecord};

/// Replication-protocol rejections. The broker maps these onto
/// [`crate::BrokerError`] variants carrying topic/partition context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplError {
    /// No alive ISR member is electable: the partition is leaderless until
    /// a replica node returns.
    NoLeader,
    /// The caller's leader epoch is stale — an election happened since it
    /// fetched metadata. Refresh and retry.
    Fenced {
        /// The epoch currently in force.
        current: u64,
    },
    /// Fewer in-sync replicas than `min.insync.replicas`: accepting the
    /// append could lose it on the next failover, so it is refused.
    NotEnoughReplicas {
        /// Current ISR size.
        isr: u32,
        /// Required minimum.
        min_isr: u32,
    },
}

/// One replica's copy of the partition log, placed on a broker node.
#[derive(Debug)]
struct ReplicaLog {
    broker: BrokerId,
    /// Offset of the first retained record.
    base: u64,
    bytes: usize,
    records: VecDeque<StoredRecord>,
    /// Idempotent-producer dedup window: producer id → next expected
    /// sequence. Replicated with the records so the window survives
    /// failover: a retry that lands on the new leader is still recognised.
    next_seq: HashMap<u64, u64>,
}

impl ReplicaLog {
    fn new(broker: BrokerId) -> Self {
        ReplicaLog {
            broker,
            base: 0,
            bytes: 0,
            records: VecDeque::new(),
            next_seq: HashMap::new(),
        }
    }

    fn end(&self) -> u64 {
        self.base + self.records.len() as u64
    }
}

/// Everything guarded by the partition's replication lock.
#[derive(Debug)]
struct ReplState {
    /// Leader epoch: bumped by every election, checked by fenced appends.
    epoch: u64,
    /// Total elections held (epoch minus its starting value; kept separate
    /// for observability).
    elections: u64,
    /// Index into `replicas` of the current leader.
    leader: usize,
    /// Per-slot ISR membership. A follower leaves the ISR when its node is
    /// dead or isolated and rejoins once it has caught up to the leader's
    /// log end — membership tracked by fetch position, as in Kafka.
    isr: Vec<bool>,
    /// The commit point: minimum ISR log end, monotonically non-decreasing.
    /// Fetches never return records at or above it.
    high_watermark: u64,
    replicas: Vec<ReplicaLog>,
}

/// Observer snapshot of one partition's replication state. Travels the
/// wire field by field ([`crate::wire`]), so a remote client's
/// `replication_status` sees the same typed snapshot an in-process
/// observer gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationStatus {
    /// Broker id of the current leader (which may be unreachable if no
    /// election has been triggered since it died).
    pub leader: BrokerId,
    /// Current leader epoch.
    pub epoch: u64,
    /// Elections held so far.
    pub elections: u64,
    /// In-sync replica count (leader included).
    pub isr: u32,
    /// Total replicas.
    pub replicas: u32,
    /// The commit point.
    pub high_watermark: u64,
    /// Leader log end.
    pub log_end: u64,
    /// Minimum log end across current ISR members. The protocol invariant
    /// `high_watermark <= min_isr_end` is what makes a committed record
    /// durable: it exists on every replica the next leader can come from.
    /// Reported as 0 while the partition is leaderless with an empty ISR.
    pub min_isr_end: u64,
    /// How far the most-behind replica trails the high watermark — nonzero
    /// while a dead or isolated node is missing committed records.
    pub max_follower_lag: u64,
}

/// A partition as a set of replicated logs. See the module docs for the
/// protocol.
#[derive(Debug)]
pub struct ReplicatedPartition {
    min_isr: u32,
    retention_bytes: usize,
    repl: Mutex<ReplState>,
}

impl ReplicatedPartition {
    /// Create a partition replicated across `replicas` (leader first —
    /// typically [`crate::ClusterConfig::replica_set`]).
    pub fn new(replicas: &[BrokerId], min_isr: u32, retention_bytes: usize) -> Self {
        let logs: Vec<ReplicaLog> = replicas.iter().map(|&b| ReplicaLog::new(b)).collect();
        let n = logs.len().max(1);
        let logs = if logs.is_empty() {
            vec![ReplicaLog::new(0)]
        } else {
            logs
        };
        ReplicatedPartition {
            min_isr: min_isr.max(1),
            retention_bytes: retention_bytes.max(1),
            repl: Mutex::new(ReplState {
                epoch: 0,
                elections: 0,
                leader: 0,
                isr: vec![true; n],
                high_watermark: 0,
                replicas: logs,
            }),
        }
    }

    /// Current leader and epoch, running an election first if the recorded
    /// leader's node is dead or isolated. This is the producer's metadata
    /// fetch: the returned epoch fences a subsequent [`append`](Self::append)
    /// — if another election intervenes, that append is rejected.
    pub fn leader(&self, chaos: &ChaosHandle) -> Result<(BrokerId, u64), ReplError> {
        let mut s = self.repl.lock();
        if !Self::ensure_leader(&mut s, chaos) {
            return Err(ReplError::NoLeader);
        }
        Ok((s.replicas[s.leader].broker, s.epoch))
    }

    /// Append a batch. `fence`, if given, must equal the current leader
    /// epoch; `dedup` is the idempotent producer's `(producer_id,
    /// first_seq)` window. Returns `(first_offset, append_time_ms,
    /// duplicates_dropped)`.
    ///
    /// The append is `acks=all`: it is refused (`NotEnoughReplicas`) unless
    /// at least `min.insync.replicas` replicas are in sync, and it returns
    /// only after every ISR member holds the records — at which point the
    /// high watermark advances past them and they are committed.
    pub fn append(
        &self,
        chaos: &ChaosHandle,
        fence: Option<u64>,
        dedup: Option<(u64, u64)>,
        mut values: Vec<(Bytes, f64)>,
    ) -> Result<(u64, f64, u64), ReplError> {
        let mut guard = self.repl.lock();
        let s = &mut *guard;
        if !Self::ensure_leader(s, chaos) {
            return Err(ReplError::NoLeader);
        }
        if let Some(epoch) = fence {
            if epoch != s.epoch {
                // A demoted leader's in-flight append: fenced out.
                return Err(ReplError::Fenced { current: s.epoch });
            }
        }
        // Follower fetch round: drop unreachable nodes from the ISR, let
        // reachable laggards catch up and rejoin.
        Self::sync_followers(s, chaos);
        let in_sync = s.isr.iter().filter(|&&m| m).count() as u32;
        if in_sync < self.min_isr {
            return Err(ReplError::NotEnoughReplicas {
                isr: in_sync,
                min_isr: self.min_isr,
            });
        }
        // Dedup against the leader's window, under the replication lock.
        let leader_idx = s.leader;
        let mut duplicates = 0u64;
        if let Some((producer_id, first_seq)) = dedup {
            let expected = s.replicas[leader_idx]
                .next_seq
                .get(&producer_id)
                .copied()
                .unwrap_or(0);
            let n = values.len() as u64;
            if first_seq < expected {
                // Leading records were already appended by an earlier
                // attempt whose ack was lost.
                duplicates = (expected - first_seq).min(n);
                values.drain(..duplicates as usize);
            }
            // A first_seq above `expected` means the producer gave up on an
            // earlier batch; accept the gap and move the window forward.
            s.replicas[leader_idx]
                .next_seq
                .insert(producer_id, expected.max(first_seq + n));
        }
        let first_offset = s.replicas[leader_idx].end();
        let append_time_ms = now_millis_f64();
        for (value, produce_time_ms) in values {
            s.replicas[leader_idx].bytes += value.len();
            s.replicas[leader_idx].records.push_back(StoredRecord {
                value,
                produce_time_ms,
                append_time_ms,
            });
        }
        let new_end = s.replicas[leader_idx].end();
        // Synchronous replication: every ISR follower receives the new
        // suffix (and the dedup window) before the ack.
        for i in 0..s.replicas.len() {
            if i != leader_idx && s.isr[i] {
                Self::catch_up(&mut s.replicas, leader_idx, i);
            }
        }
        // Commit point: every ISR member now ends at `new_end`.
        s.high_watermark = s.high_watermark.max(new_end);
        let hw = s.high_watermark;
        for r in &mut s.replicas {
            Self::enforce_retention(r, self.retention_bytes, hw);
        }
        Ok((first_offset, append_time_ms, duplicates))
    }

    /// Read up to `max_records`/`max_bytes` committed records starting at
    /// `offset`, from the leader (electing first if needed). Returns empty
    /// when nothing is committed past `offset` — or when the partition is
    /// leaderless, which consumers treat as "no data yet" and retry.
    pub fn read(
        &self,
        chaos: &ChaosHandle,
        partition: u32,
        offset: u64,
        max_records: usize,
        max_bytes: usize,
    ) -> Vec<FetchedRecord> {
        let mut guard = self.repl.lock();
        let s = &mut *guard;
        if !Self::ensure_leader(s, chaos) {
            return Vec::new();
        }
        let hw = s.high_watermark;
        let log = &s.replicas[s.leader];
        // Offsets below the retention horizon resume at the earliest
        // retained record (Kafka's earliest-offset reset).
        let from = offset.max(log.base);
        if from >= hw {
            return Vec::new();
        }
        let start = (from - log.base) as usize;
        // Only committed records are visible.
        let visible = (hw - log.base) as usize;
        let mut out = Vec::new();
        let mut bytes = 0usize;
        for (i, rec) in log.records.iter().enumerate().skip(start) {
            if i >= visible || out.len() >= max_records {
                break;
            }
            // Always deliver at least one record, as Kafka does even when a
            // single record exceeds the fetch size.
            if !out.is_empty() && bytes + rec.value.len() > max_bytes {
                break;
            }
            bytes += rec.value.len();
            out.push(FetchedRecord {
                partition,
                offset: log.base + i as u64,
                value: rec.value.clone(),
                produce_time_ms: rec.produce_time_ms,
                append_time_ms: rec.append_time_ms,
            });
        }
        out
    }

    /// The commit point — the visible end of the partition.
    pub fn high_watermark(&self) -> u64 {
        self.repl.lock().high_watermark
    }

    /// Offset of the earliest retained record on the current leader.
    pub fn start_offset(&self) -> u64 {
        let s = self.repl.lock();
        s.replicas[s.leader].base
    }

    /// Observer snapshot (never triggers an election).
    pub fn status(&self) -> ReplicationStatus {
        let s = self.repl.lock();
        let hw = s.high_watermark;
        ReplicationStatus {
            leader: s.replicas[s.leader].broker,
            epoch: s.epoch,
            elections: s.elections,
            isr: s.isr.iter().filter(|&&m| m).count() as u32,
            replicas: s.replicas.len() as u32,
            high_watermark: hw,
            log_end: s.replicas[s.leader].end(),
            min_isr_end: s
                .replicas
                .iter()
                .zip(s.isr.iter())
                .filter(|(_, &m)| m)
                .map(|(r, _)| r.end())
                .min()
                .unwrap_or(0),
            max_follower_lag: s
                .replicas
                .iter()
                .map(|r| hw.saturating_sub(r.end()))
                .max()
                .unwrap_or(0),
        }
    }

    /// If the recorded leader's node is unreachable, demote it and elect
    /// the alive ISR member with the lowest broker id (deterministic: every
    /// observer of the same liveness picks the same node). Returns whether
    /// the partition has a reachable leader.
    ///
    /// Elections are clean only — a replica outside the ISR may be missing
    /// committed records and is never electable, even if that leaves the
    /// partition leaderless (Kafka with unclean leader election disabled).
    fn ensure_leader(s: &mut ReplState, chaos: &ChaosHandle) -> bool {
        let current = s.replicas[s.leader].broker;
        if !chaos.broker_dead(current) && !chaos.broker_isolated(current) {
            return true;
        }
        s.isr[s.leader] = false;
        let candidate = (0..s.replicas.len())
            .filter(|&i| {
                let b = s.replicas[i].broker;
                s.isr[i] && !chaos.broker_dead(b) && !chaos.broker_isolated(b)
            })
            .min_by_key(|&i| s.replicas[i].broker);
        match candidate {
            Some(i) => {
                s.leader = i;
                s.epoch += 1;
                s.elections += 1;
                true
            }
            None => false,
        }
    }

    /// One follower-fetch round: unreachable followers leave the ISR;
    /// reachable ones catch up to the leader's log end and (re)join. ISR
    /// membership is by fetch position — a follower is in sync exactly when
    /// it holds everything the leader does.
    fn sync_followers(s: &mut ReplState, chaos: &ChaosHandle) {
        let leader_idx = s.leader;
        s.isr[leader_idx] = true;
        for i in 0..s.replicas.len() {
            if i == leader_idx {
                continue;
            }
            let b = s.replicas[i].broker;
            if chaos.broker_dead(b) || chaos.broker_isolated(b) {
                s.isr[i] = false;
                continue;
            }
            Self::catch_up(&mut s.replicas, leader_idx, i);
            s.isr[i] = true;
        }
    }

    /// Bring `replicas[follower]` to byte-for-byte parity with
    /// `replicas[leader]`: truncate any divergent suffix, adopt the
    /// leader's retention horizon if the follower fell behind it, copy the
    /// missing records, and clone the dedup window.
    fn catch_up(replicas: &mut [ReplicaLog], leader: usize, follower: usize) {
        let leader_base = replicas[leader].base;
        let leader_end = replicas[leader].end();
        // Truncate a longer follower back to the leader's end. Synchronous
        // replication never actually produces an uncommitted suffix, but
        // handling it keeps the prefix property a local invariant rather
        // than a global argument.
        while replicas[follower].end() > leader_end {
            if let Some(dropped) = replicas[follower].records.pop_back() {
                replicas[follower].bytes -= dropped.value.len();
            } else {
                break;
            }
        }
        if replicas[follower].end() < leader_base {
            // The leader's retention already evicted records this follower
            // never saw: restart from the leader's horizon.
            replicas[follower].records.clear();
            replicas[follower].bytes = 0;
            replicas[follower].base = leader_base;
        }
        let from = (replicas[follower].end() - leader_base) as usize;
        let missing: Vec<StoredRecord> = replicas[leader]
            .records
            .iter()
            .skip(from)
            .cloned()
            .collect();
        for rec in missing {
            replicas[follower].bytes += rec.value.len();
            replicas[follower].records.push_back(rec);
        }
        replicas[follower].next_seq = replicas[leader].next_seq.clone();
    }

    /// Size-based retention: evict from the head, but never the last record
    /// and never a record at or above the high watermark's predecessor —
    /// committed data stays readable until newer committed data displaces
    /// it.
    fn enforce_retention(r: &mut ReplicaLog, retention_bytes: usize, hw: u64) {
        while r.bytes > retention_bytes && r.records.len() > 1 && r.base + 1 < hw {
            if let Some(evicted) = r.records.pop_front() {
                r.bytes -= evicted.value.len();
                r.base += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(vals: &[&'static [u8]]) -> Vec<(Bytes, f64)> {
        vals.iter().map(|v| (Bytes::from_static(v), 0.0)).collect()
    }

    fn part(replicas: &[BrokerId], min_isr: u32) -> ReplicatedPartition {
        ReplicatedPartition::new(replicas, min_isr, usize::MAX)
    }

    #[test]
    fn rf1_behaves_like_the_unreplicated_log() {
        let chaos = ChaosHandle::disabled();
        let p = part(&[0], 1);
        let (o1, _, _) = p.append(&chaos, None, None, batch(&[b"a"])).unwrap();
        let (o2, _, _) = p.append(&chaos, None, None, batch(&[b"b", b"c"])).unwrap();
        assert_eq!((o1, o2), (0, 1));
        assert_eq!(p.high_watermark(), 3);
        let r = p.read(&chaos, 0, 0, 10, usize::MAX);
        assert_eq!(r.len(), 3);
        assert_eq!(r[2].offset, 2);
        let st = p.status();
        assert_eq!((st.isr, st.replicas, st.epoch), (1, 1, 0));
    }

    #[test]
    fn appends_replicate_and_survive_leader_kill() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        p.append(&chaos, None, None, batch(&[b"a", b"b"])).unwrap();
        chaos.set_broker_dead(0, true);
        // Reads elect broker 1 (lowest alive ISR id) and still see
        // everything committed.
        let r = p.read(&chaos, 0, 0, 10, usize::MAX);
        assert_eq!(r.len(), 2);
        let st = p.status();
        assert_eq!(st.leader, 1);
        assert_eq!(st.epoch, 1);
        assert_eq!(st.elections, 1);
        // Appends keep working with the surviving majority.
        p.append(&chaos, None, None, batch(&[b"c"])).unwrap();
        assert_eq!(p.high_watermark(), 3);
        assert_eq!(p.status().isr, 2);
    }

    #[test]
    fn dead_node_catches_up_and_rejoins_the_isr() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        chaos.set_broker_dead(2, true);
        p.append(&chaos, None, None, batch(&[b"a"])).unwrap();
        assert_eq!(p.status().isr, 2);
        assert_eq!(p.status().max_follower_lag, 1);
        chaos.set_broker_dead(2, false);
        p.append(&chaos, None, None, batch(&[b"b"])).unwrap();
        let st = p.status();
        assert_eq!(st.isr, 3);
        assert_eq!(st.max_follower_lag, 0);
    }

    #[test]
    fn isolation_of_the_leader_forces_failover_and_heals() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        p.append(&chaos, None, None, batch(&[b"a"])).unwrap();
        chaos.set_broker_isolated(0, true);
        p.append(&chaos, None, None, batch(&[b"b"])).unwrap();
        let st = p.status();
        assert_eq!((st.leader, st.epoch, st.isr), (1, 1, 2));
        chaos.set_broker_isolated(0, false);
        p.append(&chaos, None, None, batch(&[b"c"])).unwrap();
        // The ex-leader rejoined as a follower; leadership does not revert.
        let st = p.status();
        assert_eq!((st.leader, st.isr), (1, 3));
        assert_eq!(p.read(&chaos, 0, 0, 10, usize::MAX).len(), 3);
    }

    #[test]
    fn too_few_replicas_refuses_appends_without_losing_reads() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        p.append(&chaos, None, None, batch(&[b"a"])).unwrap();
        chaos.set_broker_dead(1, true);
        chaos.set_broker_isolated(2, true);
        assert_eq!(
            p.append(&chaos, None, None, batch(&[b"b"])),
            Err(ReplError::NotEnoughReplicas { isr: 1, min_isr: 2 })
        );
        // Committed data is still readable from the (alive) leader.
        assert_eq!(p.read(&chaos, 0, 0, 10, usize::MAX).len(), 1);
        chaos.set_broker_dead(1, false);
        p.append(&chaos, None, None, batch(&[b"b"])).unwrap();
        assert_eq!(p.high_watermark(), 2);
    }

    #[test]
    fn leaderless_partition_refuses_appends_until_a_node_returns() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1], 1);
        p.append(&chaos, None, None, batch(&[b"a"])).unwrap();
        chaos.set_broker_dead(0, true);
        chaos.set_broker_dead(1, true);
        assert_eq!(
            p.append(&chaos, None, None, batch(&[b"b"])),
            Err(ReplError::NoLeader)
        );
        assert!(p.read(&chaos, 0, 0, 10, usize::MAX).is_empty());
        assert!(p.leader(&chaos).is_err());
        chaos.set_broker_dead(1, false);
        // Broker 1 was still in the ISR when 0 died: clean election.
        assert_eq!(p.leader(&chaos).unwrap(), (1, 1));
        assert_eq!(p.read(&chaos, 0, 0, 10, usize::MAX).len(), 1);
    }

    #[test]
    fn out_of_sync_replica_is_never_elected() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1], 1);
        chaos.set_broker_dead(1, true);
        // This append drops node 1 from the ISR.
        p.append(&chaos, None, None, batch(&[b"a"])).unwrap();
        chaos.set_broker_dead(1, false);
        chaos.set_broker_dead(0, true);
        // Node 1 is alive but out of sync: electing it could lose "a".
        assert_eq!(p.leader(&chaos), Err(ReplError::NoLeader));
        chaos.set_broker_dead(0, false);
        // The old leader returns with its epoch intact.
        assert_eq!(p.leader(&chaos).unwrap(), (0, 0));
        // An append re-syncs node 1 into the ISR.
        p.append(&chaos, None, None, batch(&[b"b"])).unwrap();
        assert_eq!(p.status().isr, 2);
    }

    #[test]
    fn stale_epoch_append_is_fenced() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        let (leader, epoch) = p.leader(&chaos).unwrap();
        assert_eq!((leader, epoch), (0, 0));
        chaos.set_broker_dead(0, true);
        // Election happens on the next operation; the old metadata's epoch
        // is then stale.
        assert_eq!(
            p.append(&chaos, Some(epoch), None, batch(&[b"a"])),
            Err(ReplError::Fenced { current: 1 })
        );
        assert_eq!(p.high_watermark(), 0);
        // Refreshing metadata and retrying succeeds.
        let (leader, epoch) = p.leader(&chaos).unwrap();
        assert_eq!(leader, 1);
        p.append(&chaos, Some(epoch), None, batch(&[b"a"])).unwrap();
        assert_eq!(p.high_watermark(), 1);
    }

    #[test]
    fn dedup_window_survives_failover() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        let (_, _, d) = p
            .append(&chaos, None, Some((7, 0)), batch(&[b"a", b"b"]))
            .unwrap();
        assert_eq!(d, 0);
        chaos.set_broker_dead(0, true);
        // The producer's retry (lost ack) lands on the new leader, whose
        // replicated dedup window recognises it.
        let (_, _, d) = p
            .append(&chaos, None, Some((7, 0)), batch(&[b"a", b"b"]))
            .unwrap();
        assert_eq!(d, 2);
        assert_eq!(p.high_watermark(), 2);
        let vals: Vec<u8> = p
            .read(&chaos, 0, 0, 10, usize::MAX)
            .iter()
            .map(|r| r.value[0])
            .collect();
        assert_eq!(vals, b"ab".to_vec());
    }

    #[test]
    fn hw_never_exceeds_min_isr_end_in_mixed_faults() {
        let chaos = ChaosHandle::enabled();
        let p = part(&[0, 1, 2], 2);
        for step in 0u32..40 {
            match step % 8 {
                3 => chaos.set_broker_dead(step % 3, true),
                5 => chaos.set_broker_isolated((step + 1) % 3, true),
                6 => {
                    chaos.set_broker_dead(step % 3, false);
                    chaos.set_broker_isolated((step + 1) % 3, false);
                }
                _ => {}
            }
            let _ = p.append(&chaos, None, None, batch(&[b"x"]));
            let st = p.status();
            assert!(
                st.high_watermark <= st.log_end,
                "hw {} ran past leader end {}",
                st.high_watermark,
                st.log_end
            );
        }
    }

    #[test]
    fn retention_keeps_committed_tail_readable() {
        let chaos = ChaosHandle::disabled();
        let p = ReplicatedPartition::new(&[0], 1, 2500);
        let rec = Bytes::from(vec![0u8; 1000]);
        for _ in 0..5 {
            p.append(&chaos, None, None, vec![(rec.clone(), 0.0)])
                .unwrap();
        }
        assert_eq!(p.high_watermark(), 5);
        assert_eq!(p.start_offset(), 3);
        let r = p.read(&chaos, 0, 0, 10, usize::MAX);
        assert_eq!(r.first().map(|f| f.offset), Some(3));
        assert_eq!(r.len(), 2);
    }
}

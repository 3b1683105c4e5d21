//! The load: payload bytes, the send schedule, and the generator that
//! follows it.
//!
//! The program under test receives bytes and nothing else. Payloads are the
//! paper's JSON wire format rendered here, not by the program's encoder:
//! a few variants of input values are drawn from `--seed` once, and every
//! event is its `{"id":..,"created_ms":..,` head followed by the shared tail
//! of the variant its id selects.

use std::io::Write;
use std::time::Duration;

use bytes::Bytes;

use crayfish::broker::Producer;
use crayfish::sim::{now, now_millis_f64};

use crate::Result;

/// xoshiro-free and dependency-free: splitmix64, enough to draw inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// The pre-rendered input variants of one workload.
#[derive(Debug, Clone)]
pub struct Payloads {
    /// Per variant: the values, `bsz × item` row-major.
    pub inputs: Vec<Vec<f32>>,
    /// Per variant: `"shape":[..],"bsz":..,"data":[..]}`.
    tails: Vec<Vec<u8>>,
    pub bsz: usize,
    pub item_shape: Vec<usize>,
}

impl Payloads {
    pub fn render(seed: u64, variants: usize, bsz: usize, item_shape: &[usize]) -> Payloads {
        let mut rng = SplitMix::new(seed);
        let numel = bsz * item_shape.iter().product::<usize>();
        let mut inputs = Vec::with_capacity(variants);
        let mut tails = Vec::with_capacity(variants);
        for _ in 0..variants {
            // Six decimals each: every payload of a workload has the same
            // length and digit count whatever the seed, so seeds differ in
            // what the program computes, not in how much it parses.
            let texts: Vec<String> = (0..numel)
                .map(|_| format!("0.{:06}", rng.below(1_000_000)))
                .collect();
            let values: Vec<f32> = texts.iter().map(|t| t.parse().unwrap_or(0.0)).collect();
            let mut tail = Vec::with_capacity(numel * 9 + 64);
            tail.extend_from_slice(b"\"shape\":[");
            for (i, d) in item_shape.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(tail, "{sep}{d}");
            }
            let _ = write!(tail, "],\"bsz\":{bsz},\"data\":[");
            for (i, text) in texts.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(tail, "{sep}{text}");
            }
            tail.extend_from_slice(b"]}");
            inputs.push(values);
            tails.push(tail);
        }
        Payloads {
            inputs,
            tails,
            bsz,
            item_shape: item_shape.to_vec(),
        }
    }

    pub fn variants(&self) -> usize {
        self.tails.len()
    }

    pub fn variant_of(&self, id: u64) -> usize {
        (id % self.tails.len() as u64) as usize
    }

    /// The wire bytes of event `id`, stamped with its intended send time.
    pub fn event(&self, id: u64, created_ms: f64) -> Bytes {
        let tail = &self.tails[self.variant_of(id)];
        let mut buf = Vec::with_capacity(tail.len() + 64);
        let _ = write!(buf, "{{\"id\":{id},\"created_ms\":{created_ms:?},");
        buf.extend_from_slice(tail);
        Bytes::from(buf)
    }

    /// Bytes of one event (head included), for sizing topics and reports.
    pub fn event_bytes(&self) -> usize {
        self.event(0, now_millis_f64()).len()
    }
}

/// Offsets from the start of an open-loop phase at which event `i` is due.
pub fn schedule(count: u64, rate_eps: f64) -> impl Iterator<Item = Duration> {
    (0..count).map(move |i| Duration::from_secs_f64(i as f64 / rate_eps))
}

/// How the generator kept to its schedule.
#[derive(Debug, Clone, Default)]
pub struct GeneratorReport {
    pub sent: u64,
    /// Per event: how long after its due time `send` was called.
    pub late_us: Vec<f64>,
}

/// A send this late was not the program's doing: the generator yields in a
/// loop on a processor the engine leaves idle four fifths of the time.
const HELD_UP_US: f64 = 1_000.0;

impl GeneratorReport {
    /// The host took the processor away while the generator ran: more than
    /// one send in a hundred (and more than one at all) was over a
    /// millisecond late. A lone hiccup of a few milliseconds, which this
    /// host has about once a second, stays below that.
    pub fn held_up(&self) -> bool {
        let late = self.late_us.iter().filter(|&&us| us > HELD_UP_US).count();
        late > 1 + self.late_us.len() / 100
    }
}

/// How late `at` is for something due `due` after `started`.
pub fn lateness(started: std::time::Instant, due: Duration, at: std::time::Instant) -> Duration {
    at.saturating_duration_since(started + due)
}

/// Send `count` events with ids from `first_id` at `rate_eps`, one thread,
/// open loop: each event is stamped with the time it was *due*, whether or
/// not the generator got there on time, so a stall shows as latency of the
/// events it delayed.
pub fn run_open_loop(
    producer: &mut Producer,
    payloads: &Payloads,
    partitions: u32,
    first_id: u64,
    count: u64,
    rate_eps: f64,
) -> Result<GeneratorReport> {
    // Pair the monotonic clock that paces with the wall clock that stamps.
    let started = now() + Duration::from_millis(2);
    let started_ms = now_millis_f64() + 2.0;
    let mut report = GeneratorReport {
        sent: 0,
        late_us: Vec::with_capacity(count as usize),
    };
    for (i, due) in schedule(count, rate_eps).enumerate() {
        let id = first_id + i as u64;
        let payload = payloads.event(id, started_ms + due.as_secs_f64() * 1e3);
        // Wait by yielding, never by sleeping: the generator is on a
        // running processor when the event is due, whatever the send wakes
        // runs at once, and the (virtual) processor never goes idle during
        // the phase — so neither timer slack nor the host's wake-up of a
        // halted processor, here or inside the program's own timed waits,
        // lands in the latency.
        let due_at = started + due;
        while now() < due_at {
            std::thread::yield_now();
        }
        report
            .late_us
            .push(lateness(started, due, now()).as_secs_f64() * 1e6);
        producer.send(Some((id % u64::from(partitions)) as u32), payload)?;
        report.sent += 1;
    }
    producer.flush();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_bytes_and_schedule() {
        let a = Payloads::render(42, 4, 2, &[3, 3]);
        let b = Payloads::render(42, 4, 2, &[3, 3]);
        for id in 0..8 {
            assert_eq!(a.event(id, 1234.5), b.event(id, 1234.5));
        }
        assert_eq!(a.inputs, b.inputs);
        let s1: Vec<_> = schedule(100, 250.0).collect();
        let s2: Vec<_> = schedule(100, 250.0).collect();
        assert_eq!(s1, s2);
        assert_eq!(s1[0], Duration::ZERO);
        assert_eq!(s1[50], Duration::from_millis(200));
    }

    #[test]
    fn another_seed_gives_other_bytes() {
        let a = Payloads::render(42, 4, 1, &[4]);
        let b = Payloads::render(43, 4, 1, &[4]);
        assert_ne!(a.event(0, 0.0), b.event(0, 0.0));
    }

    #[test]
    fn events_are_the_paper_wire_format() {
        let p = Payloads::render(7, 3, 2, &[2, 2]);
        let bytes = p.event(5, 99.25);
        let batch = crayfish::framework::CrayfishDataBatch::decode(&bytes).unwrap();
        assert_eq!(batch.id, 5);
        assert_eq!(batch.created_ms, 99.25);
        assert_eq!(batch.shape, vec![2, 2]);
        assert_eq!(batch.bsz, 2);
        assert_eq!(batch.data, p.inputs[p.variant_of(5)]);
        assert_eq!(p.variant_of(5), 2);
        assert_eq!(p.variants(), 3);
    }

    #[test]
    fn a_generator_is_held_up_by_more_than_a_lone_hiccup() {
        let mut report = GeneratorReport {
            sent: 400,
            late_us: vec![5.0; 400],
        };
        assert!(!report.held_up());
        // One stall of 4 ms at 4 000 events/s delays 16 events of 4 000;
        // here five of 400: at the limit, not over it.
        for us in report.late_us.iter_mut().take(5) {
            *us = 3_000.0;
        }
        assert!(!report.held_up());
        report.late_us[5] = 1_500.0;
        assert!(report.held_up());
        // Eight events: one late send is a hiccup, two are not.
        let mut few = GeneratorReport {
            sent: 8,
            late_us: vec![5.0; 8],
        };
        few.late_us[0] = 2_000.0;
        assert!(!few.held_up());
        few.late_us[1] = 2_000.0;
        assert!(few.held_up());
    }

    #[test]
    fn lateness_counts_only_time_past_due() {
        let t0 = now();
        let due = Duration::from_millis(10);
        assert_eq!(
            lateness(t0, due, t0 + Duration::from_millis(4)),
            Duration::ZERO
        );
        assert_eq!(
            lateness(t0, due, t0 + Duration::from_millis(13)),
            Duration::from_millis(3)
        );
    }
}

//! The four workloads and their fixed work.
//!
//! Every count and rate is a constant of this file — nothing is derived
//! from a speed measured at run time, so two commits always do the same
//! work. Counts are stated for [`REFERENCE_SECONDS`] of measuring (the
//! `run_seconds` of `BENCHMARK.json`) and scale linearly with `--seconds`;
//! rates and limits never scale.

use crayfish::prelude::ModelSpec;

/// The `run_seconds` the counts below are sized for.
pub const REFERENCE_SECONDS: u64 = 16;

/// Seed of the model weights on every workload; `--seed` only draws inputs.
pub const WEIGHT_SEED: u64 = 42;

/// Partitions of every input and output topic.
pub const PARTITIONS: u32 = 8;

/// Where the engine's model runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Serving {
    /// Embedded ONNX analog, inside the engine thread.
    Embedded,
    /// TF-Serving analog (reactor + admission, one replica) over loopback.
    External,
}

/// Where the broker runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrokerKind {
    /// In this process, unreplicated.
    InProcess,
    /// One `crayfish-node` child process reached over TCP.
    TcpNode,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub model: ModelSpec,
    pub bsz: usize,
    pub serving: Serving,
    pub broker: BrokerKind,
    /// Input variants rendered from the seed.
    pub variants: usize,
    /// How many times set-up is repeated; `setup_s` is their median.
    pub setup_reps: usize,
    /// Events of the warm-up drain that ends each set-up.
    pub warmup_events: u64,
    /// Saturation drains; `capacity_eps` is the median of them.
    pub drains: usize,
    pub drain_events: u64,
    /// Open-loop phase: `slices` slices of `slice_events` events at
    /// `rate_eps`, after `slice_warmup_events` unmeasured ones that see the
    /// engine through its start. The latency percentiles are the medians,
    /// over the slices, of each slice's percentile.
    pub slices: usize,
    pub slice_events: u64,
    pub slice_warmup_events: u64,
    /// About a fifth of the capacity measured when the benchmark was
    /// written (more than half for ResNet50, see README); a constant ever
    /// since. Never a rate whose interval divides the kernel's 4 ms timer
    /// tick or is a multiple of it (4 000, 200 events/s): the events of a
    /// slice would all meet the tick at the same few phases, another few in
    /// the next slice, and the slices' p90 would differ by 10 % for it.
    pub rate_eps: f64,
    /// An event that completes later than this counts as failed. Far above
    /// any latency the workload shows (hundreds of medians): it is there to
    /// catch an engine that stalls, not a neighbour that steals the
    /// processor for a moment.
    pub latency_limit_ms: f64,
    /// Events of the single-threaded traced walk.
    pub walk_events: u64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "ffnn_b1_embedded",
        why: "small records, in-process: per-operation cost of codec, broker and engine loop; the kernel is a few us",
        model: ModelSpec::Ffnn,
        bsz: 1,
        serving: Serving::Embedded,
        broker: BrokerKind::InProcess,
        variants: 16,
        setup_reps: 5,
        warmup_events: 8_000,
        drains: 10,
        drain_events: 10_000,
        slices: 16,
        slice_events: 2_000,
        slice_warmup_events: 400,
        rate_eps: 3_937.0,
        latency_limit_ms: 1_000.0,
        walk_events: 2_000,
    },
    Workload {
        name: "resnet_b1_embedded",
        why: "ResNet50 in the engine thread: over 95% of the trip is runtime and tensor kernels; codec and broker must not show",
        model: ModelSpec::Resnet50,
        bsz: 1,
        serving: Serving::Embedded,
        broker: BrokerKind::InProcess,
        variants: 4,
        setup_reps: 3,
        warmup_events: 2,
        drains: 5,
        drain_events: 4,
        slices: 3,
        slice_events: 8,
        slice_warmup_events: 1,
        rate_eps: 3.2,
        latency_limit_ms: 5_000.0,
        walk_events: 4,
    },
    Workload {
        name: "ffnn_b64_external",
        why: "450 KB records through a TF-Serving analog: the same codec and broker code bound per byte, batch-64 GEMM, serving and net on the path",
        model: ModelSpec::Ffnn,
        bsz: 64,
        serving: Serving::External,
        broker: BrokerKind::InProcess,
        variants: 16,
        setup_reps: 5,
        warmup_events: 100,
        drains: 9,
        drain_events: 120,
        slices: 6,
        slice_events: 104,
        slice_warmup_events: 8,
        rate_eps: 63.0,
        latency_limit_ms: 1_000.0,
        walk_events: 100,
    },
    Workload {
        name: "ffnn_b1_tcpbroker",
        why: "ffnn_b1_embedded against one crayfish-node child over TCP: broker RPC envelopes and the net codec dominate the trip",
        model: ModelSpec::Ffnn,
        bsz: 1,
        serving: Serving::Embedded,
        broker: BrokerKind::TcpNode,
        variants: 16,
        setup_reps: 3,
        warmup_events: 500,
        drains: 6,
        drain_events: 600,
        slices: 12,
        slice_events: 120,
        slice_warmup_events: 20,
        rate_eps: 197.0,
        latency_limit_ms: 1_000.0,
        walk_events: 300,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How a run's counts relate to the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// `--seconds` over [`REFERENCE_SECONDS`].
    pub seconds: f64,
    /// `--quick` divides every count by 20.
    pub quick: bool,
}

impl Scale {
    pub fn new(seconds: u64, quick: bool) -> Scale {
        Scale {
            seconds: seconds as f64 / REFERENCE_SECONDS as f64,
            quick,
        }
    }

    /// A count scaled to this run, never below `floor`.
    pub fn count(&self, reference: u64, floor: u64) -> u64 {
        let quick = if self.quick { 20.0 } else { 1.0 };
        ((reference as f64 * self.seconds / quick).round() as u64).max(floor)
    }

    /// The limit an open-loop event may take before it counts as failed;
    /// none under `--quick`, which must pass on any build and any host.
    pub fn latency_limit_ms(&self, w: &Workload) -> Option<f64> {
        (!self.quick).then_some(w.latency_limit_ms)
    }

    /// A repetition count: `--quick` keeps one, otherwise all.
    pub fn reps(&self, reference: usize) -> usize {
        if self.quick {
            reference.min(1)
        } else {
            reference
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_seconds_reproduce_the_constants() {
        let s = Scale::new(REFERENCE_SECONDS, false);
        for w in &WORKLOADS {
            assert_eq!(s.count(w.drain_events, 1), w.drain_events);
            assert_eq!(s.count(w.slice_events, 1), w.slice_events);
        }
    }

    #[test]
    fn quick_divides_by_twenty_with_a_floor() {
        let s = Scale::new(REFERENCE_SECONDS, true);
        assert_eq!(s.count(20_000, 1), 1_000);
        assert_eq!(s.count(8, 2), 2);
        assert_eq!(s.reps(7), 1);
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(by_name(w.name).map(|x| x.name), Some(w.name));
            assert!(w.why.len() <= 200, "{}", w.name);
        }
        assert!(by_name("nope").is_none());
    }
}

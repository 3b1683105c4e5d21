//! # crayfish-core
//!
//! The Crayfish benchmarking framework itself (§3 of the paper): the
//! measurement fabric around any system under test.
//!
//! * [`batch`] — the `CrayfishDataBatch` unit of computation and its JSON
//!   wire form (the paper uses JSON serialization throughout).
//! * [`workload`] — the input producer: constant-rate and periodic-burst
//!   generation (Table 1's `isz`/`bsz`/`ir`/`bd`/`tbb` parameters).
//! * [`consumer`] — the output consumer extracting end-to-end latencies
//!   from the broker's `LogAppendTime` (§3.3).
//! * [`metrics`] — summaries, percentiles, time series, sustainable
//!   throughput, and burst-recovery analysis.
//! * [`processor`] — the `DataProcessor` abstraction engines implement
//!   (input operator, scoring operator, output operator; §3.2).
//! * [`scoring`] — the serving-tool abstraction: embedded libraries and
//!   external serving clients behind one `Scorer` interface.
//! * [`runner`] — orchestrates one experiment end to end and produces an
//!   [`runner::ExperimentResult`]; also hosts the sustainable-throughput
//!   search.
//! * [`config`] — declarative JSON experiment configs resolving names into
//!   specs.
//! * [`dataset`] — file-backed real-dataset inputs for the producer.

#![forbid(unsafe_code)]

pub mod batch;
pub mod config;
pub mod consumer;
pub mod dataset;
pub mod deploy;
pub mod error;
pub mod metrics;
pub mod processor;
pub mod runner;
pub mod scoring;
pub mod workload;

/// Re-export of the observability crate so engines reach the recorder
/// through their existing `crayfish-core` dependency.
pub use crayfish_obs as obs;

/// Re-export of the chaos crate: fault plans, injectors, retry policies,
/// and the worker supervisor engines build their resilience on.
pub use crayfish_chaos as chaos;

/// Re-export of the synchronisation shim. Pipeline crates take their
/// locks, condvars, atomics, and thread helpers from here so the same code
/// runs under parking_lot/std normally and under loom's model checker with
/// `RUSTFLAGS="--cfg loom"`.
pub use crayfish_sync as sync;

pub use batch::{BatchHeader, CrayfishDataBatch, ScoredBatch};
pub use config::ExperimentConfig;
pub use crayfish_broker::ClusterConfig;
pub use crayfish_obs::{ObsHandle, Stage};
pub use deploy::DeploymentTopology;
pub use error::CoreError;
pub use processor::{DataProcessor, ProcessorContext, RunningJob};
pub use runner::{run_experiment, ExperimentResult, ExperimentSpec, ServingChoice};
pub use scoring::{Scorer, ScorerSpec};
pub use workload::Workload;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;

//! Set-up and tear-down of what a workload runs on: the model, the broker
//! (in-process, or one `crayfish-node` child), the serving process analog,
//! the payloads — assembled by hand in the native profile, every modelled
//! cost zeroed, instead of through `run_experiment`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crayfish::broker::{Broker, BrokerApi};
use crayfish::chaos::ChaosHandle;
use crayfish::framework::deploy::{spawn_broker_cluster, BrokerCluster};
use crayfish::framework::scoring::ScorerSpec;
use crayfish::framework::{DataProcessor, ProcessorContext, RunningJob};
use crayfish::kstreams::{KStreamsOptions, KStreamsProcessor};
use crayfish::net::ServerHandle;
use crayfish::prelude::{Device, EmbeddedLib, ExternalKind, NetworkModel, ObsHandle};
use crayfish::serving::ServingConfig;
use crayfish::sim::{Cost, OverheadModel};
use crayfish::tensor::NnGraph;

use crate::load::Payloads;
use crate::trace::Tracer;
use crate::workloads::{BrokerKind, Serving, Workload, PARTITIONS, WEIGHT_SEED};
use crate::Result;

/// Consumer group of the engine under test.
pub const GROUP: &str = "perf-sut";

/// Per-partition retention of every benchmark topic: large enough that no
/// phase ever evicts a record it still has to read back.
const RETENTION_BYTES: usize = 1 << 40;

enum BrokerRig {
    InProcess,
    /// Kills and reaps the node when dropped.
    Tcp(BrokerCluster),
}

/// The broker clients of one phase: the engine's, and the one the load
/// generator and the read-back share. In process they are one broker; over
/// TCP each is its own connection, as each would be its own process.
pub struct Links {
    pub engine: Arc<dyn BrokerApi>,
    pub load: Arc<dyn BrokerApi>,
}

pub struct Rig {
    pub workload: &'static Workload,
    pub graph: Arc<NnGraph>,
    pub payloads: Payloads,
    pub scorer: ScorerSpec,
    broker: BrokerRig,
    server: Option<ServerHandle>,
}

static TOPIC_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A pair of fresh topic names; no phase ever reuses a topic.
pub fn fresh_topics() -> (String, String) {
    let n = TOPIC_SERIAL.fetch_add(1, Ordering::Relaxed);
    (format!("perf-in-{n}"), format!("perf-out-{n}"))
}

impl Rig {
    /// Build the model, start what the workload needs beside the engine, and
    /// render the payloads. Each step is a span of `tracer`.
    pub fn build(workload: &'static Workload, seed: u64, tracer: &mut Tracer) -> Result<Rig> {
        let graph = Arc::new(tracer.time("models.build", None, 0, || {
            workload.model.build(WEIGHT_SEED)
        }));

        let (scorer, server) = match workload.serving {
            Serving::Embedded => (
                ScorerSpec::Embedded {
                    lib: EmbeddedLib::Onnx,
                    graph: graph.clone(),
                    device: Device::Cpu,
                },
                None,
            ),
            Serving::External => {
                let server = tracer.time("serving.start", None, 0, || start_server(&graph))?;
                let scorer = ScorerSpec::External {
                    kind: ExternalKind::TfServing,
                    addr: server.addr(),
                    network: NetworkModel::zero(),
                };
                (scorer, Some(server))
            }
        };

        let shape = workload.model.input_shape();
        let payloads = Payloads::render(seed, workload.variants, workload.bsz, shape.dims());
        let mut rig = Rig {
            workload,
            graph,
            payloads,
            scorer,
            broker: BrokerRig::InProcess,
            server,
        };

        // The broker counts as up once a client has created (and dropped)
        // a first pair of topics on it.
        tracer.time("broker.cluster_spawn", None, 0, || {
            if workload.broker == BrokerKind::TcpNode {
                rig.broker = BrokerRig::Tcp(spawn_broker_cluster(1, 1)?);
            }
            let links = rig.links(&ObsHandle::disabled());
            let (input, output) = fresh_topics();
            rig.create_topics(&links, &input, &output)?;
            links.load.delete_topic(&input)?;
            links.load.delete_topic(&output)?;
            Ok::<_, crate::Error>(())
        })?;
        Ok(rig)
    }

    /// Broker clients for one phase, recording into `obs`.
    pub fn links(&self, obs: &ObsHandle) -> Links {
        match &self.broker {
            BrokerRig::InProcess => {
                let broker: Arc<dyn BrokerApi> =
                    Broker::with_parts(NetworkModel::zero(), obs.clone(), ChaosHandle::disabled());
                Links {
                    engine: broker.clone(),
                    load: broker,
                }
            }
            BrokerRig::Tcp(cluster) => Links {
                engine: cluster.client(obs.clone(), ChaosHandle::disabled()),
                load: cluster.client(ObsHandle::disabled(), ChaosHandle::disabled()),
            },
        }
    }

    /// Create a phase's topics, with a retention that evicts nothing.
    pub fn create_topics(&self, links: &Links, input: &str, output: &str) -> Result<()> {
        for topic in [input, output] {
            links
                .load
                .create_topic_with_retention(topic, PARTITIONS, RETENTION_BYTES)?;
        }
        Ok(())
    }

    /// Start the engine under test: the kstreams personality with its
    /// calibrated per-record JVM cost zeroed, one stream thread.
    pub fn start_engine(
        &self,
        links: &Links,
        input: &str,
        output: &str,
    ) -> Result<Box<dyn RunningJob>> {
        let engine = KStreamsProcessor::with_options(KStreamsOptions {
            record_overhead: Cost::ZERO,
            ..KStreamsOptions::default()
        });
        Ok(engine.start(ProcessorContext {
            broker: links.engine.clone(),
            input_topic: input.to_string(),
            output_topic: output.to_string(),
            group: GROUP.to_string(),
            scorer: self.scorer.clone(),
            mp: 1,
        })?)
    }

    /// Stop the server and the broker node, and wait for both to end.
    pub fn teardown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
        if let BrokerRig::Tcp(mut cluster) = self.broker {
            cluster.shutdown();
        }
    }
}

/// A TF-Serving analog for `graph` with every calibrated overhead zeroed.
pub fn start_server(graph: &NnGraph) -> Result<ServerHandle> {
    Ok(ExternalKind::TfServing.start(
        graph,
        ServingConfig {
            replicas: 1,
            overheads: OverheadModel::zero(),
            ..ServingConfig::default()
        },
    )?)
}

//! The serving-tool abstraction used by every engine's scoring operator.
//!
//! A [`ScorerSpec`] describes *which* serving alternative an experiment
//! uses; each parallel scoring task calls [`ScorerSpec::build`] to obtain
//! its own [`Scorer`] — an embedded model instance loaded into the
//! operator, or a dedicated blocking connection to an external server —
//! matching the paper's deployment (every task loads the model / owns a
//! connection).

use std::net::SocketAddr;
use std::sync::Arc;

use crayfish_runtime::{Device, EmbeddedLib, LoadedModel};
use crayfish_serving::{ExternalKind, ScoringClient};
use crayfish_sim::NetworkModel;
use crayfish_tensor::{NnGraph, Tensor};

use crate::Result;

/// Something that can score a batched tensor.
pub trait Scorer: Send {
    /// Serving tool name (for diagnostics).
    fn name(&self) -> String;
    /// Score `[batch, ..input]` → `[batch, classes]`.
    fn score(&mut self, input: &Tensor) -> Result<Tensor>;
    /// Which observability stage the time spent in [`Scorer::score`]
    /// belongs to: in-operator model execution for embedded serving, a
    /// blocking RPC for external serving.
    fn obs_stage(&self) -> crate::obs::Stage {
        crate::obs::Stage::Inference
    }
}

/// Description of the serving alternative; cheap to clone across workers.
#[derive(Clone)]
pub enum ScorerSpec {
    /// Embedded serving: the operator loads the model via an
    /// interoperability library (§2.1).
    Embedded {
        /// Which library.
        lib: EmbeddedLib,
        /// The model graph (weights shared via `Arc` until load).
        graph: Arc<NnGraph>,
        /// CPU or simulated GPU.
        device: Device,
    },
    /// External serving: the operator sends blocking requests to a
    /// dedicated inference service (§2.1).
    External {
        /// Which framework (decides the protocol).
        kind: ExternalKind,
        /// Server address.
        addr: SocketAddr,
        /// The modelled LAN between the engine and the server.
        network: NetworkModel,
    },
    /// External serving wrapped in the resilience layer: per-call
    /// deadlines, bounded retries with backoff, reconnect after resets or
    /// server crashes, and a circuit breaker. Used by chaos experiments;
    /// with a disabled chaos handle in `config` the wrapper costs one
    /// branch per call.
    ResilientExternal {
        /// Which framework (decides the protocol).
        kind: ExternalKind,
        /// Server address (stable across crash/restore).
        addr: SocketAddr,
        /// The modelled LAN between the engine and the server.
        network: NetworkModel,
        /// Retry/breaker/deadline tuning plus chaos and obs handles.
        config: crayfish_serving::ResilienceConfig,
    },
}

impl std::fmt::Debug for ScorerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScorerSpec::Embedded { lib, device, .. } => {
                write!(f, "Embedded({}, {})", lib.name(), device.name())
            }
            ScorerSpec::External { kind, addr, .. } => {
                write!(f, "External({}, {addr})", kind.name())
            }
            ScorerSpec::ResilientExternal { kind, addr, .. } => {
                write!(f, "ResilientExternal({}, {addr})", kind.name())
            }
        }
    }
}

impl ScorerSpec {
    /// Human-readable serving-tool name ("onnx (e)", "tf_serving (x)").
    pub fn tool_name(&self) -> String {
        match self {
            ScorerSpec::Embedded { lib, .. } => format!("{} (e)", lib.name()),
            ScorerSpec::External { kind, .. } | ScorerSpec::ResilientExternal { kind, .. } => {
                format!("{} (x)", kind.name())
            }
        }
    }

    /// Build a per-worker scorer (loads the model or opens a connection).
    pub fn build(&self) -> Result<Box<dyn Scorer>> {
        match self {
            ScorerSpec::Embedded { lib, graph, device } => {
                let model = lib.runtime().load_graph(graph, *device)?;
                Ok(Box::new(EmbeddedScorer { model }))
            }
            ScorerSpec::External {
                kind,
                addr,
                network,
            } => {
                let client = kind.connect(*addr, *network)?;
                Ok(Box::new(ExternalScorer { client }))
            }
            ScorerSpec::ResilientExternal {
                kind,
                addr,
                network,
                config,
            } => {
                let client = crayfish_serving::ResilientClient::connect(
                    *kind,
                    *addr,
                    *network,
                    config.clone(),
                )?;
                Ok(Box::new(ExternalScorer {
                    client: Box::new(client),
                }))
            }
        }
    }
}

struct EmbeddedScorer {
    model: Box<dyn LoadedModel>,
}

impl Scorer for EmbeddedScorer {
    fn name(&self) -> String {
        format!("{} (e)", self.model.runtime_name())
    }
    fn score(&mut self, input: &Tensor) -> Result<Tensor> {
        Ok(self.model.apply(input)?)
    }
}

struct ExternalScorer {
    client: Box<dyn ScoringClient>,
}

impl Scorer for ExternalScorer {
    fn name(&self) -> String {
        format!("external/{}", self.client.protocol())
    }
    fn score(&mut self, input: &Tensor) -> Result<Tensor> {
        Ok(self.client.infer(input)?)
    }
    fn obs_stage(&self) -> crate::obs::Stage {
        crate::obs::Stage::ServingRpc
    }
}

/// The shared scoring-operator body: decode a `CrayfishDataBatch` payload,
/// score it, and encode the `ScoredBatch` payload. Every engine's scoring
/// operator funnels through this (the paper's flatmap-like `scoringOp`).
pub fn score_payload(scorer: &mut dyn Scorer, payload: &[u8]) -> Result<bytes::Bytes> {
    score_payload_obs(scorer, payload, &crate::obs::ObsHandle::disabled())
}

/// [`score_payload`] with per-stage spans: `decode` around the wire-format
/// parse + tensor rebuild, `inference`/`serving_rpc` (per
/// [`Scorer::obs_stage`]) around the score call, and `encode` around the
/// result serialisation. With a disabled handle this compiles down to the
/// plain path — timers never read the clock.
pub fn score_payload_obs(
    scorer: &mut dyn Scorer,
    payload: &[u8],
    obs: &crate::obs::ObsHandle,
) -> Result<bytes::Bytes> {
    let (header, input) = crate::batch::decode_input_obs(payload, obs)?;

    let span = obs.timer(scorer.obs_stage());
    let output = scorer.score(&input)?;
    span.stop();

    crate::batch::encode_output_obs(header, output, obs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{CrayfishDataBatch, ScoredBatch};
    use crayfish_models::tiny;
    use crayfish_sim::now_millis_f64;

    fn spec_embedded() -> ScorerSpec {
        ScorerSpec::Embedded {
            lib: EmbeddedLib::Onnx,
            graph: Arc::new(tiny::tiny_mlp(1)),
            device: Device::Cpu,
        }
    }

    #[test]
    fn embedded_scorer_scores() {
        let mut s = spec_embedded().build().unwrap();
        let out = s
            .score(&Tensor::seeded_uniform([2, 8, 8], 1, 0.0, 1.0))
            .unwrap();
        assert_eq!(out.shape().dims(), &[2, 4]);
        assert!(s.name().contains("(e)"));
    }

    #[test]
    fn external_scorer_roundtrips() {
        let server = crayfish_serving::tf_serving::start(
            &tiny::tiny_mlp(1),
            crayfish_serving::ServingConfig::default(),
        )
        .unwrap();
        let spec = ScorerSpec::External {
            kind: ExternalKind::TfServing,
            addr: server.addr(),
            network: NetworkModel::zero(),
        };
        let mut s = spec.build().unwrap();
        let out = s
            .score(&Tensor::seeded_uniform([3, 8, 8], 1, 0.0, 1.0))
            .unwrap();
        assert_eq!(out.shape().dims(), &[3, 4]);
        server.shutdown();
    }

    #[test]
    fn score_payload_end_to_end() {
        let t = Tensor::seeded_uniform([2, 8, 8], 5, 0.0, 1.0);
        let payload = CrayfishDataBatch::from_tensor(9, now_millis_f64(), &t)
            .encode()
            .unwrap();
        let mut s = spec_embedded().build().unwrap();
        let out_bytes = score_payload(s.as_mut(), &payload).unwrap();
        let scored = ScoredBatch::decode(&out_bytes).unwrap();
        assert_eq!(scored.id, 9);
        assert_eq!(scored.bsz, 2);
        assert_eq!(scored.classes, 4);
    }

    #[test]
    fn score_payload_propagates_codec_errors() {
        let mut s = spec_embedded().build().unwrap();
        assert!(score_payload(s.as_mut(), b"garbage").is_err());
    }

    #[test]
    fn tool_names_match_paper_notation() {
        assert_eq!(spec_embedded().tool_name(), "onnx (e)");
    }
}

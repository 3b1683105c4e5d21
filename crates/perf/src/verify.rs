//! Output checking: every event scored exactly once, and scored right.
//!
//! The reference does not come from the code under test. For a graph of
//! dense layers it is the textbook forward pass written out below; for
//! anything else (ResNet50) it is the program's slow, unfused f32 executor,
//! whose only shared code with the fused plan the engine runs is the GEMM.
//! The reference's own arg-maxes for seed 42 are committed under `golden/`,
//! so a reference that drifts is caught as well.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crayfish::framework::ScoredBatch;
use crayfish::runtime::exec::UnfusedExec;
use crayfish::tensor::{NnGraph, Op, Tensor};

use crate::load::Payloads;
use crate::workloads::{WEIGHT_SEED, WORKLOADS};
use crate::Result;

/// One output record as read back from the log.
#[derive(Debug, Clone)]
pub struct Scored {
    pub batch: ScoredBatch,
    /// The broker's `LogAppendTime` of the output record.
    pub append_ms: f64,
}

/// Expected scores per input variant.
#[derive(Debug, Clone)]
pub struct Reference {
    pub classes: usize,
    /// Per variant: `bsz × classes` probabilities, row-major.
    pub scores: Vec<Vec<f32>>,
    /// Absolute and relative tolerance on each probability.
    pub tolerance: (f32, f32),
}

impl Reference {
    /// Arg-max of every row of every variant, variants in order.
    pub fn argmaxes(&self) -> Vec<usize> {
        self.scores
            .iter()
            .flat_map(|s| s.chunks(self.classes).map(argmax))
            .collect()
    }
}

pub fn argmax(row: &[f32]) -> usize {
    let mut best = 0;
    for (i, v) in row.iter().enumerate() {
        if *v > row[best] {
            best = i;
        }
    }
    best
}

/// The textbook forward pass of a chain of dense layers: `None` as soon as
/// the graph holds anything else.
fn naive_dense_forward(graph: &NnGraph, rows: usize, input: &[f32]) -> Option<Vec<f32>> {
    let mut x = input.to_vec();
    let mut width = input.len() / rows.max(1);
    for node in graph.nodes() {
        match &node.op {
            Op::Input { .. } | Op::Flatten => {}
            Op::Dense { w, b } => {
                let (inf, outf) = (w.shape().dim(0), w.shape().dim(1));
                if inf != width {
                    return None;
                }
                let mut y = vec![0f32; rows * outf];
                for r in 0..rows {
                    for o in 0..outf {
                        let mut acc = b.data()[o];
                        for i in 0..inf {
                            acc += x[r * inf + i] * w.data()[i * outf + o];
                        }
                        y[r * outf + o] = acc;
                    }
                }
                x = y;
                width = outf;
            }
            Op::Relu => x.iter_mut().for_each(|v| *v = v.max(0.0)),
            Op::Softmax => {
                for row in x.chunks_mut(width) {
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for v in row.iter_mut() {
                        *v = (*v - max).exp();
                        sum += *v;
                    }
                    row.iter_mut().for_each(|v| *v /= sum);
                }
            }
            _ => return None,
        }
    }
    Some(x)
}

/// Score every variant with the reference implementation.
pub fn reference(graph: &NnGraph, payloads: &Payloads) -> Result<Reference> {
    let classes = graph.output_shape(1)?.dims().last().copied().unwrap_or(1);
    let mut dims = vec![payloads.bsz];
    dims.extend_from_slice(&payloads.item_shape);
    let mut unfused: Option<UnfusedExec> = None;
    let mut scores = Vec::with_capacity(payloads.variants());
    for input in &payloads.inputs {
        match naive_dense_forward(graph, payloads.bsz, input) {
            Some(out) => scores.push(out),
            None => {
                let exec = match &mut unfused {
                    Some(e) => e,
                    slot => slot.insert(UnfusedExec::new(graph.clone(), true, None)?),
                };
                let t = Tensor::from_vec(dims.clone(), input.clone())?;
                scores.push(exec.run(&t)?.into_data());
            }
        }
    }
    // The fused plan folds batch-norm into the weights before the GEMM, so
    // a deep network's probabilities agree with the unfused ones less
    // tightly than a dense chain agrees with its textbook form.
    let tolerance = if unfused.is_some() {
        (1e-5, 1e-2)
    } else {
        (1e-6, 1e-4)
    };
    Ok(Reference {
        classes,
        scores,
        tolerance,
    })
}

/// What happened to the events of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    /// Ids that never reached the output topic.
    pub lost: u64,
    /// Output records beyond the first for an id, or for an id never sent.
    pub duplicated: u64,
    /// Wrong row or class count, non-finite values, or scores (arg-max or
    /// values) off the reference.
    pub wrong: u64,
    /// Completed, but later than the workload's latency limit.
    pub late: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.lost + self.duplicated + self.wrong + self.late
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.lost += other.lost;
        self.duplicated += other.duplicated;
        self.wrong += other.wrong;
        self.late += other.late;
    }
}

fn scores_match(got: &[f32], want: &[f32], classes: usize, (abs, rel): (f32, f32)) -> bool {
    got.len() == want.len()
        && got.iter().all(|v| v.is_finite())
        && got
            .chunks(classes)
            .zip(want.chunks(classes))
            .all(|(g, w)| argmax(g) == argmax(w))
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= abs + rel * w.abs())
}

/// Check one phase's output against what was sent: ids `first_id ..
/// first_id + count`, each exactly once, each scored as the reference
/// scores its variant, and — when `limit_ms` is given — each appended within
/// the limit of the send time stamped into it.
pub fn check(
    outputs: &[Scored],
    first_id: u64,
    count: u64,
    payloads: &Payloads,
    reference: &Reference,
    limit_ms: Option<f64>,
) -> Tally {
    let mut tally = Tally {
        attempted: count,
        ..Tally::default()
    };
    let mut seen = vec![false; count as usize];
    for out in outputs {
        let slot = out
            .batch
            .id
            .checked_sub(first_id)
            .filter(|i| *i < count)
            .map(|i| i as usize);
        match slot {
            Some(i) if !seen[i] => seen[i] = true,
            _ => {
                tally.duplicated += 1;
                continue;
            }
        }
        let want = &reference.scores[payloads.variant_of(out.batch.id)];
        let right = out.batch.bsz == payloads.bsz
            && out.batch.classes == reference.classes
            && scores_match(
                &out.batch.scores,
                want,
                reference.classes,
                reference.tolerance,
            );
        if !right {
            tally.wrong += 1;
        } else if limit_ms.is_some_and(|limit| out.append_ms - out.batch.created_ms > limit) {
            tally.late += 1;
        }
    }
    tally.lost = seen.iter().filter(|s| !**s).count() as u64;
    tally
}

/// FNV-1a over the leading weights of the first weighted layer: tells a
/// build whose random stream differs (another `rand`) from a drifted
/// reference.
pub fn weights_fingerprint(graph: &NnGraph) -> u64 {
    let weights = graph.nodes().iter().find_map(|n| match &n.op {
        Op::Dense { w, .. } | Op::Conv2d { w, .. } => Some(w.clone()),
        _ => None,
    });
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in weights.iter().flat_map(|w| w.data().iter().take(1024)) {
        for byte in v.to_bits().to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The committed reference arg-maxes of one workload for seed 42.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Golden {
    /// [`weights_fingerprint`] of the model the arg-maxes were taken with,
    /// in hex (JSON numbers cannot hold 64 bits).
    pub weights: String,
    pub argmaxes: Vec<usize>,
}

pub type GoldenFile = BTreeMap<String, Golden>;

pub const GOLDEN_SEED: u64 = 42;

/// The committed golden file, compiled in so the benchmark reads nothing
/// outside its own binary for it.
pub fn golden_file() -> Result<GoldenFile> {
    Ok(serde_json::from_str(include_str!("../golden/seed42.json"))?)
}

/// How the reference compares with the committed golden values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenVerdict {
    Match,
    /// Same weights, other arg-maxes: the reference drifted.
    Drifted,
    /// Not seed 42, no entry, or weights from another random stream.
    NotApplicable,
}

pub fn golden_verdict(
    golden: Option<&Golden>,
    seed: u64,
    graph: &NnGraph,
    reference: &Reference,
) -> GoldenVerdict {
    match golden {
        Some(g)
            if seed == GOLDEN_SEED
                && g.weights == format!("{:016x}", weights_fingerprint(graph)) =>
        {
            if g.argmaxes == reference.argmaxes() {
                GoldenVerdict::Match
            } else {
                GoldenVerdict::Drifted
            }
        }
        _ => GoldenVerdict::NotApplicable,
    }
}

/// The golden file as this build would write it: every workload's
/// reference arg-maxes for the golden seed.
pub fn golden_for_all() -> Result<GoldenFile> {
    let mut file = GoldenFile::new();
    for w in &WORKLOADS {
        let graph = w.model.build(WEIGHT_SEED);
        let shape = w.model.input_shape();
        let payloads = Payloads::render(GOLDEN_SEED, w.variants, w.bsz, shape.dims());
        let reference = reference(&graph, &payloads)?;
        file.insert(
            w.name.to_string(),
            Golden {
                weights: format!("{:016x}", weights_fingerprint(&graph)),
                argmaxes: reference.argmaxes(),
            },
        );
    }
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crayfish::prelude::ModelSpec;

    fn scored(id: u64, created_ms: f64, append_ms: f64, scores: Vec<f32>) -> Scored {
        Scored {
            batch: ScoredBatch {
                id,
                created_ms,
                bsz: 1,
                classes: scores.len(),
                scores,
            },
            append_ms,
        }
    }

    fn fixture() -> (Payloads, Reference) {
        let payloads = Payloads::render(1, 2, 1, &[2]);
        let reference = Reference {
            classes: 2,
            scores: vec![vec![0.25, 0.75], vec![0.9, 0.1]],
            tolerance: (1e-6, 1e-4),
        };
        (payloads, reference)
    }

    #[test]
    fn clean_phase_has_no_failures() {
        let (p, r) = fixture();
        let outs = vec![
            scored(10, 0.0, 1.0, vec![0.25, 0.75]),
            scored(11, 0.0, 1.0, vec![0.9, 0.1]),
        ];
        let t = check(&outs, 10, 2, &p, &r, Some(5.0));
        assert_eq!(t.attempted, 2);
        assert_eq!(t.failed(), 0);
    }

    #[test]
    fn lost_duplicated_wrong_and_late_are_each_counted() {
        let (p, r) = fixture();
        let outs = vec![
            scored(10, 0.0, 1.0, vec![0.25, 0.75]),
            scored(10, 0.0, 1.0, vec![0.25, 0.75]), // duplicate
            scored(11, 0.0, 1.0, vec![0.1, 0.9]),   // wrong arg-max
            scored(12, 0.0, 9.0, vec![0.25, 0.75]), // late
            scored(99, 0.0, 1.0, vec![0.25, 0.75]), // never sent
        ];
        let t = check(&outs, 10, 4, &p, &r, Some(5.0));
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                lost: 1,
                duplicated: 2,
                wrong: 1,
                late: 1
            }
        );
        assert_eq!(t.failed(), 5);
    }

    #[test]
    fn values_off_the_reference_or_not_finite_are_wrong() {
        let (p, r) = fixture();
        let off = check(&[scored(0, 0.0, 0.0, vec![0.26, 0.74])], 0, 1, &p, &r, None);
        assert_eq!(off.wrong, 1);
        let nan = check(
            &[scored(0, 0.0, 0.0, vec![f32::NAN, 0.75])],
            0,
            1,
            &p,
            &r,
            None,
        );
        assert_eq!(nan.wrong, 1);
        let short = check(&[scored(0, 0.0, 0.0, vec![1.0])], 0, 1, &p, &r, None);
        assert_eq!(short.wrong, 1);
    }

    #[test]
    fn naive_forward_agrees_with_the_program_on_the_ffnn() {
        let graph = ModelSpec::Ffnn.build(42);
        let payloads = Payloads::render(42, 3, 2, &[28, 28]);
        let reference = reference(&graph, &payloads).unwrap();
        assert_eq!(reference.classes, 10);
        let mut exec = UnfusedExec::new(graph.clone(), true, None).unwrap();
        for (input, want) in payloads.inputs.iter().zip(&reference.scores) {
            let t = Tensor::from_vec([2, 28, 28], input.clone()).unwrap();
            let got = exec.run(&t).unwrap().into_data();
            assert!(scores_match(&got, want, 10, reference.tolerance));
            let sum: f32 = want[..10].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn golden_tells_drift_from_another_weight_stream() {
        let graph = ModelSpec::Ffnn.build(42);
        let payloads = Payloads::render(GOLDEN_SEED, 2, 1, &[28, 28]);
        let reference = reference(&graph, &payloads).unwrap();
        let good = Golden {
            weights: format!("{:016x}", weights_fingerprint(&graph)),
            argmaxes: reference.argmaxes(),
        };
        assert_eq!(
            golden_verdict(Some(&good), GOLDEN_SEED, &graph, &reference),
            GoldenVerdict::Match
        );
        let mut drifted = good.clone();
        drifted.argmaxes[0] = (drifted.argmaxes[0] + 1) % 10;
        assert_eq!(
            golden_verdict(Some(&drifted), GOLDEN_SEED, &graph, &reference),
            GoldenVerdict::Drifted
        );
        let other_stream = Golden {
            weights: "0".repeat(16),
            ..good.clone()
        };
        assert_eq!(
            golden_verdict(Some(&other_stream), GOLDEN_SEED, &graph, &reference),
            GoldenVerdict::NotApplicable
        );
        assert_eq!(
            golden_verdict(Some(&good), 7, &graph, &reference),
            GoldenVerdict::NotApplicable
        );
    }
}

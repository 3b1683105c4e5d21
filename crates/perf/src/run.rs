//! One run of one workload: the untraced end-to-end run, or the traced run
//! that attributes the trip to layers.

use std::path::Path;
use std::time::Duration;

use crayfish::broker::{BrokerApi, Producer, ProducerConfig};
use crayfish::framework::scoring::ScorerSpec;
use crayfish::framework::{CrayfishDataBatch, ScoredBatch};
use crayfish::obs::Stage;
use crayfish::prelude::{Device, EmbeddedLib, ExternalKind, NetworkModel, ObsHandle};
use crayfish::runtime::LoadedModel;
use crayfish::serving::ScoringClient;
use crayfish::sim::calibration::GRPC_STACK;
use crayfish::sim::{now, now_millis_f64};
use crayfish::tensor::Tensor;

use crate::phases::{drain, latencies_ms, read_back, Drain, OpenLoop, READ_MAX_BYTES};
use crate::quiet::{probe_ms, probe_wall_ms, Gate, Unit, QUIET_FACTOR};
use crate::rig::{fresh_topics, start_server, Rig, GROUP};
use crate::stats::{
    highest_supported_percentile, maximum, median, minimum, quantile, quantile_sorted, sorted,
};
use crate::trace::{self_times_ns, Tracer};
use crate::verify::{
    check, golden_file, golden_verdict, reference, GoldenVerdict, Reference, Scored, Tally,
};
use crate::workloads::{Scale, Workload, PARTITIONS};
use crate::Result;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    pub golden: GoldenVerdict,
    /// Some of what the run reports was measured on a disturbed host (see
    /// `quiet.rs`): the budget for waiting and repeating ran out.
    pub disturbed: bool,
    /// Human-readable remarks (sample counts, percentile support, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The program's outputs were right: nothing lost, duplicated or
    /// scored wrongly, and the reference still agrees with its golden
    /// values. A late event is a failed one, but not a wrong one.
    pub fn correct(&self) -> bool {
        let t = self.tally;
        t.lost + t.duplicated + t.wrong == 0 && self.golden != GoldenVerdict::Drifted
    }
}

/// Two readings of the host probe that a quiet host would not give.
fn readings_differ(a_ms: f64, b_ms: f64) -> bool {
    a_ms.max(b_ms) > QUIET_FACTOR * a_ms.min(b_ms)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hands out id ranges: ids are unique across a run, so a record that
/// strays into another phase's topic cannot pass for one of its own.
#[derive(Debug, Default)]
struct Ids(u64);

impl Ids {
    fn take(&mut self, count: u64) -> u64 {
        let first = self.0;
        self.0 += count;
        first
    }
}

/// Build the rig and run the warm-up drain. Returns the rig, the warm-up,
/// and the seconds from `since_ms` to the last warm-up record's append.
fn set_up(
    w: &'static Workload,
    seed: u64,
    scale: Scale,
    since_ms: f64,
    ids: &mut Ids,
    tracer: &mut Tracer,
) -> Result<(Rig, Drain, f64)> {
    let rig = Rig::build(w, seed, tracer)?;
    let count = scale.count(w.warmup_events, 2);
    let warm = drain(&rig, &ObsHandle::disabled(), ids.take(count), count)?;
    let seconds = (warm.last_append_ms - since_ms) / 1e3;
    Ok((rig, warm, seconds))
}

struct Checker<'a> {
    rig: &'a Rig,
    reference: Reference,
    tally: Tally,
}

impl Checker<'_> {
    fn check(&mut self, outputs: &[Scored], first_id: u64, count: u64, limit_ms: Option<f64>) {
        self.tally.add(check(
            outputs,
            first_id,
            count,
            &self.rig.payloads,
            &self.reference,
            limit_ms,
        ));
    }

    fn check_drain(&mut self, d: &Drain) {
        self.check(&d.outputs, d.first_id, d.events, None);
    }
}

impl<'a> Checker<'a> {
    /// Score the reference for `rig`'s payloads, compare it with the golden
    /// file, and check the warm-up drain as the first phase.
    fn start(rig: &'a Rig, seed: u64, warm: Drain) -> Result<(Checker<'a>, GoldenVerdict)> {
        let reference = reference(&rig.graph, &rig.payloads)?;
        let golden = golden_verdict(
            golden_file()?.get(rig.workload.name),
            seed,
            &rig.graph,
            &reference,
        );
        let mut checker = Checker {
            rig,
            reference,
            tally: Tally::default(),
        };
        checker.check_drain(&warm);
        Ok((checker, golden))
    }
}

/// One mark per unit in run order: `q` quiet and reported, `d` disturbed
/// but reported for want of quiet ones, `-` run and thrown away.
fn marks<T>(gate: &Gate, units: &[Unit<T>], reported: &[usize]) -> String {
    (0..units.len())
        .map(
            |i| match (reported.contains(&i), gate.unit_is_quiet(&units[i])) {
                (true, true) => 'q',
                (true, false) => 'd',
                (false, _) => '-',
            },
        )
        .collect()
}

/// Shares of `--seconds` by which the gated phases of an end-to-end run
/// stop waiting and repeating. Undisturbed, the drains are over at about
/// 0.6 and the open-loop phase at about 1.1.
const DRAINS_BY: f64 = 1.0;
const SLICES_BY: f64 = 1.65;

/// The untraced run: set-up (several times), saturation drains, one
/// open-loop phase in slices, every drain and slice between two readings of
/// a [`Gate`]. Reports the four end-to-end metrics.
pub fn run_end_to_end(
    w: &'static Workload,
    seed: u64,
    scale: Scale,
    process_start_ms: f64,
    seconds: Option<Duration>,
) -> Result<Outcome> {
    // Waiting for a quiet host and repeating what a disturbed one spoiled
    // may stretch the drains to `DRAINS_BY` times `--seconds` after the
    // start of the run and the open-loop phase to `SLICES_BY` times, no
    // further; without `seconds` (`--quick`) nothing waits.
    let started = now();
    let by = |share: f64| started + seconds.unwrap_or_default().mul_f64(share);
    let mut gate = seconds.map_or_else(Gate::off, |_| Gate::until(by(DRAINS_BY)));
    let mut ids = Ids::default();
    let mut tracer = Tracer::new();
    let mut notes = Vec::new();

    // Set up `setup_reps` times; measure on the last rig.
    let reps = scale.reps(w.setup_reps).max(1);
    let mut setup_s = Vec::with_capacity(reps);
    let mut kept: Option<(Rig, Drain)> = None;
    for rep in 0..reps {
        if let Some((rig, _)) = kept.take() {
            rig.teardown();
        }
        let since_ms = if rep == 0 {
            process_start_ms
        } else {
            now_millis_f64()
        };
        let (rig, warm, secs) = set_up(w, seed, scale, since_ms, &mut ids, &mut tracer)?;
        setup_s.push(secs);
        kept = Some((rig, warm));
    }
    let Some((rig, warm)) = kept else {
        return Err("no set-up ran".into());
    };

    let setups_took = now().duration_since(started);
    let (mut checker, golden) = Checker::start(&rig, seed, warm)?;

    let per_drain = scale.count(w.drain_events, 2);
    let want_drains = scale.reps(w.drains).max(1);
    let drains = gate.collect(want_drains, || {
        let d = drain(&rig, &ObsHandle::disabled(), ids.take(per_drain), per_drain)?;
        checker.check_drain(&d);
        Ok((d.eps, false))
    })?;
    let drains_by = now().duration_since(started);
    // Judge every drain by the readings taken beside the idle rig ...
    let (drains_used, drains_filled) = gate.choose(&drains, want_drains);
    let drain_marks = marks(&gate, &drains, &drains_used);
    let idle_rig_quiet_ms = gate.quiet_ms();

    let per_slice = scale.count(w.slice_events, 2);
    let want_slices = scale.reps(w.slices).max(1);
    let warm_events = scale.count(w.slice_warmup_events, 1);
    let phase_first_id = ids.take(warm_events);
    let mut phase = OpenLoop::start(&rig, &ObsHandle::disabled())?;
    phase.slice(phase_first_id, warm_events, w.rate_eps)?;
    // ... and every slice by the readings taken beside an idle engine.
    gate.rebase();
    gate.extend_until(by(SLICES_BY));
    let slices = gate.collect(want_slices, || {
        let slice = phase.slice(ids.take(per_slice), per_slice, w.rate_eps)?;
        let held_up = slice.generator.held_up();
        Ok((slice, held_up))
    })?;
    let outputs = phase.finish()?;
    let slices_by = now().duration_since(started);
    checker.check(
        &outputs,
        phase_first_id,
        warm_events + per_slice * slices.len() as u64,
        scale.latency_limit_ms(w),
    );

    let (slices_used, slices_filled) = gate.choose(&slices, want_slices);
    let capacities: Vec<f64> = drains_used.iter().map(|&i| drains[i].value).collect();
    // Each slice is one open-loop phase; the run reports the best of them.
    let percentiles: Vec<(f64, f64)> = slices
        .iter()
        .map(|u| {
            let of_slice = sorted(&latencies_ms(&outputs, u.value.first_id, u.value.events));
            (
                quantile_sorted(&of_slice, 0.50),
                quantile_sorted(&of_slice, 0.90),
            )
        })
        .collect();
    let p50s: Vec<f64> = slices_used.iter().map(|&i| percentiles[i].0).collect();
    let p90s: Vec<f64> = slices_used.iter().map(|&i| percentiles[i].1).collect();
    let (mut pooled, mut late_us, mut backlog_end) = (Vec::new(), Vec::new(), 0);
    for slice in slices_used.iter().map(|&i| &slices[i].value) {
        pooled.extend(latencies_ms(&outputs, slice.first_id, slice.events));
        late_us.extend_from_slice(&slice.generator.late_us);
        backlog_end = backlog_end.max(slice.backlog_end);
    }
    let pooled = sorted(&pooled);

    notes.push(format!("setup_s: median of {reps} set-ups {setup_s:.3?}"));
    notes.push(format!(
        "capacity_eps: best of {} drains of {per_drain} events [{drain_marks}] {:.1?}; their median {:.1}",
        capacities.len(),
        drains.iter().map(|u| u.value).collect::<Vec<f64>>(),
        median(&capacities),
    ));
    notes.push(format!(
        "latency_p50_ms, latency_p90_ms: lowest over {} slices of {per_slice} events at {} events/s [{}] of each slice's (p50, p90) {percentiles:.4?}; {}",
        slices_used.len(),
        w.rate_eps,
        marks(&gate, &slices, &slices_used),
        match highest_supported_percentile(per_slice as usize, 10) {
            Some(p) => format!("a slice has ten samples beyond its p{p}"),
            None => "a slice is too short to have ten samples beyond even its median".into(),
        },
    ));
    notes.push(format!(
        "the slices' medians ({:.4}, {:.4}); their {} samples together: p50 {:.4} p90 {:.4} p99 {:.4} max {:.4} ms; generator late p99 {:.0} us, backlog at a slice's end at most {backlog_end}",
        median(&p50s),
        median(&p90s),
        pooled.len(),
        quantile_sorted(&pooled, 0.50),
        quantile_sorted(&pooled, 0.90),
        quantile_sorted(&pooled, 0.99),
        quantile_sorted(&pooled, 1.0),
        quantile(&late_us, 0.99),
    ));
    notes.push(format!(
        "set-ups over {:.1} s into the run, drains {:.1} s, open loop {:.1} s; waited {:.1} s for a quiet host, threw away {} drains and {} slices; the host probe reads {idle_rig_quiet_ms:.2} ms beside the idle rig, {:.2} ms beside the idle engine",
        setups_took.as_secs_f64(),
        drains_by.as_secs_f64(),
        slices_by.as_secs_f64(),
        gate.waited.as_secs_f64(),
        drains.len() - drains_used.len(),
        slices.len() - slices_used.len(),
        gate.quiet_ms(),
    ));

    let metrics = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("capacity_eps", maximum(&capacities), "events/s"),
        metric("latency_p50_ms", minimum(&p50s), "ms"),
        metric("latency_p90_ms", minimum(&p90s), "ms"),
    ];
    let tally = checker.tally;
    rig.teardown();
    Ok(Outcome {
        metrics,
        tally,
        golden,
        disturbed: drains_filled || slices_filled,
        notes,
    })
}

/// Untraced/obs-enabled drain pairs of the traced run.
const TRACED_DRAIN_PAIRS: usize = 3;

/// Rounds of each off-path probe.
fn probe_rounds(w: &Workload, scale: Scale) -> u64 {
    scale.count(w.walk_events, 3).clamp(3, 200)
}

/// The model the walk scores with: loaded in-process, or reached over RPC.
enum WalkScorer {
    Embedded(Box<dyn LoadedModel>),
    External(Box<dyn ScoringClient>),
}

fn load_model(rig: &Rig, tracer: &mut Tracer) -> Result<Box<dyn LoadedModel>> {
    Ok(tracer.time("runtime.load", None, 0, || {
        EmbeddedLib::Onnx
            .runtime()
            .load_graph(&rig.graph, Device::Cpu)
    })?)
}

struct Walked {
    outputs: Vec<Scored>,
    /// Per batched read of the walked input topic: microseconds per record.
    read_us_per_record: Vec<f64>,
}

/// Walk `count` events through the record trip on this thread, one at a
/// time, a span around every call into a layer; read the output back.
fn walk(rig: &Rig, tracer: &mut Tracer, first_id: u64, count: u64) -> Result<Walked> {
    let links = rig.links(&ObsHandle::disabled());
    let (input, output) = fresh_topics();
    rig.create_topics(&links, &input, &output)?;
    let mut producer = Producer::new(links.load.clone(), &input, ProducerConfig::default())?;
    let mut scorer = match &rig.scorer {
        ScorerSpec::External {
            kind,
            addr,
            network,
        } => WalkScorer::External(kind.connect(*addr, *network)?),
        _ => WalkScorer::Embedded(load_model(rig, tracer)?),
    };
    let broker: &dyn BrokerApi = links.engine.as_ref();
    let mut offsets = [0u64; PARTITIONS as usize];

    for id in first_id..first_id + count {
        let p = (id % u64::from(PARTITIONS)) as u32;
        let payload = rig.payloads.event(id, now_millis_f64());
        let trip = tracer.begin("trip", None, id);
        let on = Some(trip);

        tracer.time("broker.produce_flush", on, id, || {
            producer.send(Some(p), payload).map(|()| producer.flush())
        })?;
        let records = tracer.time("broker.read", on, id, || {
            broker.read(&input, p, offsets[p as usize], 500, READ_MAX_BYTES)
        })?;
        for rec in &records {
            let (batch, tensor) = tracer.time("core.decode", on, id, || {
                CrayfishDataBatch::decode(&rec.value).and_then(|b| b.to_tensor().map(|t| (b, t)))
            })?;
            let scored = match &mut scorer {
                WalkScorer::Embedded(m) => {
                    tracer.time("runtime.score", on, id, || m.apply(&tensor))?
                }
                WalkScorer::External(c) => {
                    tracer.time("serving.rpc", on, id, || c.infer(&tensor))?
                }
            };
            let encoded = tracer.time("core.encode", on, id, || {
                ScoredBatch::from_output(&batch, &scored).encode()
            })?;
            tracer.time("broker.append", on, id, || {
                broker.append(&output, p, vec![(encoded, now_millis_f64())])
            })?;
            offsets[p as usize] = rec.offset + 1;
        }
        tracer.time("broker.commit", on, id, || {
            broker.commit_offset(GROUP, &input, p, offsets[p as usize])
        })?;
        tracer.end(trip);
    }
    drop(producer);

    // The walk left `count / PARTITIONS` records in every input partition:
    // read them the way the engine does, up to 500 a call.
    let mut read_us_per_record = Vec::new();
    for p in 0..PARTITIONS {
        let span = tracer.begin("broker.read_batch", None, u64::from(p));
        let n = broker.read(&input, p, 0, 500, READ_MAX_BYTES)?.len();
        tracer.end(span);
        if n > 0 {
            read_us_per_record.push(tracer.spans()[span].duration_ns() as f64 / 1e3 / n as f64);
        }
    }
    for round in 0..8u64 {
        tracer.time("broker.rtt", None, round, || broker.end_offset(&input, 0))?;
    }

    let outputs = read_back(links.load.as_ref(), &output)?;
    links.load.delete_topic(&input)?;
    links.load.delete_topic(&output)?;
    Ok(Walked {
        outputs,
        read_us_per_record,
    })
}

/// Time the layers the workload's trip does not touch, so every layer has
/// a number on every workload: the in-process model where the trip goes
/// through the server, the server where the trip scores in-process.
fn probe_off_path(rig: &Rig, tracer: &mut Tracer, rounds: u64) -> Result<()> {
    let mut dims = vec![rig.payloads.bsz];
    dims.extend_from_slice(&rig.payloads.item_shape);
    let input = Tensor::from_vec(dims, rig.payloads.inputs[0].clone())?;
    match &rig.scorer {
        ScorerSpec::External { .. } => {
            let mut model = load_model(rig, tracer)?;
            for round in 0..rounds {
                tracer.time("runtime.score", None, round, || model.apply(&input))?;
            }
        }
        _ => {
            let (server, mut client) = tracer.time("serving.start", None, 0, || {
                let server = start_server(&rig.graph)?;
                let client =
                    ExternalKind::TfServing.connect(server.addr(), NetworkModel::zero())?;
                Ok::<_, crate::Error>((server, client))
            })?;
            for round in 0..rounds {
                tracer.time("serving.rpc", None, round, || client.infer(&input))?;
            }
            drop(client);
            server.shutdown();
        }
    }
    Ok(())
}

fn median_us(tracer: &Tracer, name: &str) -> f64 {
    median(&tracer.durations_us(name))
}

fn span_seconds(tracer: &Tracer, name: &str) -> f64 {
    median_us(tracer, name) / 1e6
}

/// Per trip: its span, the sum of its layer spans, and the sum of the
/// engine-side ones (everything but the generator's produce).
fn trip_sums(tracer: &Tracer) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let spans = tracer.spans();
    let own = self_times_ns(spans);
    let mut produce = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.name == "broker.produce_flush") {
        if let Some(p) = s.parent {
            produce[p] += s.duration_ns();
        }
    }
    let (mut trips, mut sums, mut engine) = (Vec::new(), Vec::new(), Vec::new());
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == "trip") {
        let covered = s.duration_ns() - own[i];
        trips.push(s.duration_ns() as f64 / 1e3);
        sums.push(covered as f64 / 1e3);
        engine.push(covered.saturating_sub(produce[i]) as f64 / 1e3);
    }
    (trips, sums, engine)
}

fn stage_mean_us(obs: &ObsHandle, stage: Stage) -> f64 {
    obs.stage_snapshot(stage).mean() / 1e3
}

fn counter(obs: &ObsHandle, name: &str) -> f64 {
    obs.counter(name).get() as f64
}

/// The traced run: one set-up, three pairs of untraced and obs-enabled
/// drains, the single-threaded walk, the off-path probes, a short open-loop
/// phase. Reports the per-layer metrics and writes the Chrome trace to `trace_dir`.
pub fn run_traced(
    w: &'static Workload,
    seed: u64,
    scale: Scale,
    process_start_ms: f64,
    trace_dir: &Path,
) -> Result<Outcome> {
    let mut ids = Ids::default();
    let mut tracer = Tracer::new();
    let mut notes = Vec::new();
    let (spin_bare, wall_bare) = (probe_ms(), probe_wall_ms());

    let (rig, warm, setup_s) = set_up(w, seed, scale, process_start_ms, &mut ids, &mut tracer)?;
    // Same loop, now beside whatever the rig keeps running while idle (a
    // server's or the broker node's reactor thread, on this same processor).
    let (spin_before, wall_beside_rig) = (probe_ms(), probe_wall_ms());
    let (mut checker, golden) = Checker::start(&rig, seed, warm)?;

    // Untraced and obs-enabled drains, half size, alternating; one obs
    // recorder collects all of its side's drains.
    let per_drain = scale.count(w.drain_events / 2, 2);
    let obs = ObsHandle::enabled();
    let (mut plain_eps, mut observed_eps, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let pairs = scale.reps(TRACED_DRAIN_PAIRS) as u64;
    for _ in 0..pairs {
        let plain = drain(&rig, &ObsHandle::disabled(), ids.take(per_drain), per_drain)?;
        checker.check_drain(&plain);
        plain_eps.push(plain.eps);
        cpu_ms.push(plain.cpu_ms / per_drain as f64);
        let observed = drain(&rig, &obs, ids.take(per_drain), per_drain)?;
        checker.check_drain(&observed);
        observed_eps.push(observed.eps);
    }
    let (plain_eps, observed_eps) = (median(&plain_eps), median(&observed_eps));
    let observed_events = (per_drain * pairs) as f64;

    // The walk and the probes.
    let walked = scale.count(w.walk_events, 2);
    let first = ids.take(walked);
    let walk = walk(&rig, &mut tracer, first, walked)?;
    checker.check(&walk.outputs, first, walked, None);
    probe_off_path(&rig, &mut tracer, probe_rounds(w, scale))?;

    // A short open-loop phase for the tail and the generator's own numbers.
    let offered = 2 * scale.count(w.slice_events, 2);
    let warm_events = scale.count(w.slice_warmup_events, 1);
    let phase_first_id = ids.take(warm_events + offered);
    let mut phase = OpenLoop::start(&rig, &ObsHandle::disabled())?;
    phase.slice(phase_first_id, warm_events, w.rate_eps)?;
    let slice = phase.slice(phase_first_id + warm_events, offered, w.rate_eps)?;
    let outputs = phase.finish()?;
    checker.check(
        &outputs,
        phase_first_id,
        warm_events + offered,
        scale.latency_limit_ms(w),
    );
    let latencies = sorted(&latencies_ms(&outputs, slice.first_id, slice.events));
    let spin_after = probe_ms();

    let event_bytes = rig.payloads.event_bytes() as f64;
    let decode_us = median_us(&tracer, "core.decode");
    let score_us = median_us(&tracer, "runtime.score");
    let rpc_us = median_us(&tracer, "serving.rpc");
    let tensor_bytes =
        rig.payloads.inputs[0].len() * 4 + 2 + 4 * (1 + rig.payloads.item_shape.len());
    let modelled_sleep_us = GRPC_STACK.duration(tensor_bytes).as_secs_f64() * 1e6;
    let flops = rig.graph.flops(rig.payloads.bsz)? as f64;
    let (trips, sums, engine) = trip_sums(&tracer);
    let (trip_us, sum_us, engine_us) = (median(&trips), median(&sums), median(&engine));
    let polls = counter(&obs, "broker_fetch_requests").max(1.0);
    let wire_bytes = counter(&obs, "net_bytes_in") + counter(&obs, "net_bytes_out");

    notes.push(format!(
        "walk: {walked} trips; serving.modelled_sleep_us = {modelled_sleep_us:.1} (constant, subtracted in serving.rpc_overhead_us); score FLOPs are computed, not counted: {flops:.0} per call"
    ));
    notes.push(format!(
        "set-up of this traced run {setup_s:.3} s; disturbed: {}",
        readings_differ(spin_before, spin_after)
    ));

    let metrics = vec![
        metric("models.build_s", span_seconds(&tracer, "models.build"), "s"),
        metric("runtime.load_s", span_seconds(&tracer, "runtime.load"), "s"),
        metric(
            "serving.start_s",
            span_seconds(&tracer, "serving.start"),
            "s",
        ),
        metric(
            "broker.cluster_spawn_s",
            span_seconds(&tracer, "broker.cluster_spawn"),
            "s",
        ),
        metric("core.decode_us", decode_us, "us"),
        metric("core.decode_mb_s", event_bytes / decode_us, "MB/s"),
        metric("core.encode_us", median_us(&tracer, "core.encode"), "us"),
        metric(
            "broker.append_us",
            median_us(&tracer, "broker.append"),
            "us",
        ),
        metric("broker.read_us", median_us(&tracer, "broker.read"), "us"),
        metric(
            "broker.read_us_per_record",
            median(&walk.read_us_per_record),
            "us",
        ),
        metric(
            "broker.commit_us",
            median_us(&tracer, "broker.commit"),
            "us",
        ),
        metric("broker.rtt_us", median_us(&tracer, "broker.rtt"), "us"),
        metric(
            "broker.produce_flush_us",
            median_us(&tracer, "broker.produce_flush"),
            "us",
        ),
        metric("broker.records_per_poll", observed_events / polls, "count"),
        metric(
            "broker.wire_bytes_per_event",
            wire_bytes / observed_events,
            "bytes",
        ),
        metric("net.reconnects", counter(&obs, "net_reconnects"), "count"),
        metric(
            "broker.records_dropped",
            counter(&obs, "producer_records_dropped"),
            "count",
        ),
        metric("runtime.score_us", score_us, "us"),
        metric("runtime.score_gflops", flops / score_us / 1e3, "GFLOP/s"),
        metric("serving.rpc_us", rpc_us, "us"),
        metric(
            "serving.rpc_overhead_us",
            rpc_us - score_us - modelled_sleep_us,
            "us",
        ),
        metric("walk.trip_us", trip_us, "us"),
        metric("walk.sum_us", sum_us, "us"),
        metric("walk.engine_us", engine_us, "us"),
        metric(
            "walk.unattributed_share",
            (trip_us - sum_us) / trip_us,
            "share",
        ),
        metric(
            "engine-kernel.residual_us",
            1e6 / plain_eps - engine_us,
            "us",
        ),
        metric("obs.ingest_us", stage_mean_us(&obs, Stage::Ingest), "us"),
        metric("obs.decode_us", stage_mean_us(&obs, Stage::Decode), "us"),
        metric(
            "obs.score_us",
            stage_mean_us(&obs, Stage::Inference) + stage_mean_us(&obs, Stage::ServingRpc),
            "us",
        ),
        metric("obs.encode_us", stage_mean_us(&obs, Stage::Encode), "us"),
        metric("obs.emit_us", stage_mean_us(&obs, Stage::Emit), "us"),
        metric(
            "obs.broker_append_us",
            stage_mean_us(&obs, Stage::BrokerAppend),
            "us",
        ),
        metric(
            "obs.broker_fetch_us",
            stage_mean_us(&obs, Stage::BrokerFetch),
            "us",
        ),
        metric(
            "trace.overhead_share",
            1.0 - observed_eps / plain_eps,
            "share",
        ),
        metric("e2e.capacity_eps", plain_eps, "events/s"),
        metric(
            "e2e.latency_p50_ms",
            quantile_sorted(&latencies, 0.50),
            "ms",
        ),
        metric(
            "e2e.latency_p90_ms",
            quantile_sorted(&latencies, 0.90),
            "ms",
        ),
        metric(
            "e2e.latency_p99_ms",
            quantile_sorted(&latencies, 0.99),
            "ms",
        ),
        metric("e2e.latency_max_ms", quantile_sorted(&latencies, 1.0), "ms"),
        metric("e2e.backlog_end", slice.backlog_end as f64, "count"),
        metric("e2e.samples", latencies.len() as f64, "count"),
        metric(
            "generator.late_p99_us",
            quantile(&slice.generator.late_us, 0.99),
            "us",
        ),
        metric("process.cpu_ms_per_event", median(&cpu_ms), "ms"),
        metric("process.peak_rss_mb", peak_rss_mb(), "MB"),
        metric(
            "process.idle_rig_cpu_share",
            1.0 - wall_bare / wall_beside_rig,
            "share",
        ),
        metric("host.spin_calib_ms", spin_bare, "ms"),
    ];

    let path = trace_dir.join(format!("trace_{}.json", w.name));
    match tracer.write_chrome(&path) {
        Ok(()) => notes.push(format!("trace written to {}", path.display())),
        Err(e) => notes.push(format!("trace not written to {}: {e}", path.display())),
    }
    let tally = checker.tally;
    rig.teardown();
    Ok(Outcome {
        metrics,
        tally,
        golden,
        disturbed: readings_differ(spin_before, spin_after),
        notes,
    })
}

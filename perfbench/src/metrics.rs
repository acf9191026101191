//! The benchmark's metrics, computed from measured instances.

use std::collections::BTreeMap;

use crate::measure::{high, median, peak_rss_mb};
use crate::trace::Span;
use crate::workload::Instance;

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run of a scenario decided and sent. On the simulator these
/// are a pure function of the input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counts {
    /// Tick of the last correct decision.
    pub decide_vt: f64,
    /// Time of the first correct decision on the run's clock (virtual
    /// ticks on the simulator, milliseconds on a real-time substrate).
    pub first_decide: f64,
    /// Messages sent per decided correct node.
    pub msgs_per_decided: f64,
    /// Certificate payload units delivered per decided correct node.
    pub cert_units_per_decided: f64,
}

impl Counts {
    fn of(run: &Instance) -> Self {
        let outcome = &run.outcome;
        let first = outcome.decided_times.values().flatten().min();
        Counts {
            decide_vt: outcome.last_decision_time().unwrap_or(0) as f64,
            first_decide: first.map_or(0.0, |&t| t as f64),
            msgs_per_decided: run.per_decided(outcome.stats.messages_sent),
            cert_units_per_decided: run.per_decided(outcome.stats.payload_delivered_units),
        }
    }
}

/// The figures of one untraced instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Which input of the run's input set the instance ran.
    pub input: usize,
    /// See [`Instance::setup_s`].
    pub setup_s: f64,
    /// See [`Instance::wall_s`].
    pub wall_s: f64,
    /// See [`Instance::cpu_s`].
    pub cpu_s: f64,
    /// The instance's own counts.
    pub measured: Counts,
    /// The counts of the scenario on the simulator: the twin's for a
    /// real-time instance, the instance's own on the simulator.
    pub reference: Counts,
    /// Whether every correct node decided with Agreement and Validity,
    /// and, on a real-time substrate, decided what the simulator decided.
    pub passed: bool,
}

impl Sample {
    /// Summarizes `measured`; `twin` is the same scenario on the
    /// simulator for a real-time instance.
    pub fn new(input: usize, measured: &Instance, twin: Option<&Instance>) -> Self {
        Sample {
            input,
            setup_s: measured.setup_s,
            wall_s: measured.wall_s,
            cpu_s: measured.cpu_s,
            measured: Counts::of(measured),
            reference: Counts::of(twin.unwrap_or(measured)),
            passed: solved_alike(&[Some(measured), twin]),
        }
    }
}

/// Whether every run solved consensus and all decided the same values.
fn solved_alike(runs: &[Option<&Instance>]) -> bool {
    let mut runs = runs.iter().flatten();
    let first = runs.next().expect("at least one run");
    first.outcome.check().consensus_solved()
        && runs.all(|run| {
            run.outcome.check().consensus_solved()
                && run.outcome.decisions == first.outcome.decisions
        })
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(sum, n), v| (sum + v, n + 1));
    sum / n as f64
}

/// The population a per-instance figure is summarized over.
///
/// On the simulator an input's work is fixed, so repeats of it differ only
/// by interference from the rest of a shared host, which only ever adds
/// time and comes and goes over seconds (one input's timings differ up to
/// twofold between phases): each input contributes its fastest repeat.
/// On a real-time substrate the work itself changes from repeat to repeat
/// (timing feeds back into gossip), so every instance is a sample.
fn population(samples: &[Sample], deterministic: bool, f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    if !deterministic {
        return samples.iter().map(f).collect();
    }
    let mut best: BTreeMap<usize, f64> = BTreeMap::new();
    for sample in samples {
        let value = f(sample);
        best.entry(sample.input)
            .and_modify(|b| *b = b.min(value))
            .or_insert(value);
    }
    best.into_values().collect()
}

/// The typical value of a population: on the simulator the mean over the
/// input set (inputs differ widely, often bimodally, in cost with the
/// graph and the schedule, and the mean is what stays steady from seed to
/// seed), on a real-time substrate the median instance.
fn typical(population: &[f64], deterministic: bool) -> f64 {
    if deterministic {
        mean(population.iter().copied())
    } else {
        median(population)
    }
}

/// The end-to-end metrics of an untraced run.
///
/// Apart from `setup_s` and `peak_rss_mb`, they are simulator figures, a
/// pure function of the seed: on the simulator workloads from the measured
/// instances, on the real-time ones from their simulator twins. The
/// real-time runs still count through `solved_frac` (including decision
/// parity with the simulator), memory and set-up; their own timings and
/// counts are reported by the traced run (see [`substrate_figures`]).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn end_to_end(samples: &[Sample]) -> Vec<Metric> {
    let figure =
        |f: fn(&Counts) -> f64| typical(&population(samples, true, |s| f(&s.reference)), true);
    let setups: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
    let solved = samples.iter().filter(|s| s.passed).count();
    vec![
        metric("setup_s", "s", median(&setups)),
        metric("decide_vt", "tick", figure(|c| c.decide_vt)),
        metric("first_decide_ms", "ms", figure(|c| c.first_decide)),
        metric("msgs_per_decided", "msg", figure(|c| c.msgs_per_decided)),
        metric(
            "cert_units_per_decided",
            "cert",
            figure(|c| c.cert_units_per_decided),
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
        metric("solved_frac", "frac", solved as f64 / samples.len() as f64),
    ]
}

/// What the workload's own substrate measured in untraced instances: the
/// time until every correct node decided, its tail, the CPU spent, and on
/// a real-time substrate its own first-decision time and message count.
///
/// These are not end-to-end metrics of the benchmark, because they do not
/// repeat closely enough on a shared host: over ten seeds their
/// inter-quartile range reached 0.30 of the median on `er64-known-sim`
/// and 0.44 (`decide_wall_s`) to 1.40 (`first_decide_ms`) on
/// `kd300-socket`, beyond the largest regression bound allowed (0.25).
fn substrate_figures(samples: &[Sample], deterministic: bool) -> Vec<Metric> {
    let summary =
        |f: fn(&Sample) -> f64| typical(&population(samples, deterministic, f), deterministic);
    let walls = population(samples, deterministic, |s| s.wall_s);
    vec![
        metric(
            "untraced.decide_wall_s",
            "s",
            typical(&walls, deterministic),
        ),
        metric("untraced.decide_wall_s.hi", "s", high(&walls)),
        metric("untraced.cpu_s", "s", summary(|s| s.cpu_s)),
        metric(
            "untraced.first_decide_ms",
            "ms",
            summary(|s| s.measured.first_decide),
        ),
        metric(
            "untraced.msgs_per_decided",
            "msg",
            summary(|s| s.measured.msgs_per_decided),
        ),
    ]
}

/// One instance pair of a traced run.
#[derive(Debug, Clone)]
pub struct TracedSample {
    /// Which input of the run's input set the pair ran.
    pub input: usize,
    /// The scenario untraced: the wall-clock figures, and the baseline of
    /// the tracing overhead.
    pub untraced: Instance,
    /// The same scenario traced on the workload's substrate.
    pub traced: Instance,
    /// For a real-time workload, the same scenario traced on the
    /// simulator with the shadow codec: the reference for decisions and
    /// the source of the wire figures. On the simulator the traced run
    /// carries the codec itself.
    pub twin: Option<Instance>,
}

impl TracedSample {
    /// Whether the untraced, traced and twin runs all solved consensus
    /// with the same decisions.
    pub fn passed(&self) -> bool {
        solved_alike(&[Some(&self.untraced), Some(&self.traced), self.twin.as_ref()])
    }

    fn codec_run(&self) -> &Instance {
        self.twin.as_ref().unwrap_or(&self.traced)
    }
}

fn label(run: &Instance, name: &str) -> u64 {
    run.outcome.stats.label_count(name)
}

fn obs_counter(run: &Instance, name: &str) -> u64 {
    run.outcome.obs.as_ref().map_or(0, |obs| obs.counter(name))
}

fn obs_gauge(run: &Instance, name: &str) -> u64 {
    run.outcome
        .obs
        .as_ref()
        .and_then(|obs| obs.gauges.get(name).copied())
        .unwrap_or(0)
}

/// The per-layer metrics of a traced run; `deterministic` says whether it
/// ran on the simulator. Layer figures are means over the traced
/// instances: means (unlike medians) add up, so on the simulator the layer
/// times plus `net.self_s` account for `trace.wall_s`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn per_layer(samples: &[TracedSample], deterministic: bool) -> Vec<Metric> {
    let t = |f: fn(&Instance) -> f64| mean(samples.iter().map(|s| f(&s.traced)));
    let codec = |f: fn(&Instance) -> f64| mean(samples.iter().map(|s| f(s.codec_run())));
    let traced_wall = t(|r| r.wall_s);
    let untraced_wall = mean(samples.iter().map(|s| s.untraced.wall_s));
    let mut metrics = vec![
        metric("graph.generate_s", "s", t(|r| r.graph_s)),
        metric("detector.setup_s", "s", t(|r| r.detector_setup_s)),
        metric(
            "discovery.handle_s",
            "s",
            t(|r| r.spans.seconds(Span::Discovery)),
        ),
        metric(
            "discovery.handle_calls",
            "count",
            t(|r| r.spans.calls(Span::Discovery) as f64),
        ),
        metric(
            "discovery.setpds_per_decided",
            "msg",
            t(|r| r.per_decided(label(r, "SETPDS"))),
        ),
        metric(
            "discovery.getpds_per_decided",
            "msg",
            t(|r| r.per_decided(label(r, "GETPDS"))),
        ),
        metric(
            "discovery.cert_redundancy",
            "ratio",
            t(|r| {
                let held: usize = r.outcome.final_views.values().map(|v| v.len()).sum();
                r.outcome.stats.payload_delivered_units as f64 / held.max(1) as f64
            }),
        ),
        metric("crypto.verify_s", "s", t(|r| r.verify_s)),
        metric("crypto.verify_calls", "count", t(|r| r.verify_calls as f64)),
        metric(
            "detector.cert_memo_hits_per_decided",
            "count",
            t(|r| r.per_decided(obs_gauge(r, "cert_memo_hits"))),
        ),
        metric(
            "detector.cert_memo_misses_per_decided",
            "count",
            t(|r| r.per_decided(obs_gauge(r, "cert_memo_misses"))),
        ),
        metric(
            "detector.tick_s",
            "s",
            t(|r| r.spans.seconds(Span::DetectorTick)),
        ),
        metric(
            "detector.attempts",
            "count",
            t(|r| obs_counter(r, "detect_attempts") as f64),
        ),
        metric("detector.check_ms", "ms", t(|r| r.check_ms)),
        metric(
            "committee.handle_s",
            "s",
            t(|r| r.spans.seconds(Span::Committee)),
        ),
        metric(
            "committee.timeout_calls",
            "count",
            t(|r| r.spans.timeout_calls as f64),
        ),
        metric(
            "committee.viewchanges",
            "msg",
            t(|r| label(r, "VIEWCHANGE") as f64),
        ),
        metric(
            "committee.msgs_per_decision",
            "msg",
            t(|r| {
                ["PREPREPARE", "PREPARE", "COMMIT", "VIEWCHANGE"]
                    .iter()
                    .map(|l| label(r, l))
                    .sum::<u64>() as f64
            }),
        ),
        metric(
            "core.learning_s",
            "s",
            t(|r| r.spans.seconds(Span::Learning)),
        ),
        metric(
            "core.learning_msgs_per_decided",
            "msg",
            t(|r| r.per_decided(label(r, "GETDECIDEDVAL") + label(r, "DECIDEDVAL"))),
        ),
        metric(
            "wire.bytes_per_decided",
            "B",
            codec(|r| r.per_decided(r.spans.wire_bytes)),
        ),
        metric(
            "wire.codec_s",
            "s",
            codec(|r| r.spans.seconds(Span::WireEncode) + r.spans.seconds(Span::WireDecode)),
        ),
        metric(
            "wire.encode_us_per_msg",
            "us",
            codec(|r| {
                r.spans.seconds(Span::WireEncode) * 1e6
                    / r.spans.calls(Span::WireEncode).max(1) as f64
            }),
        ),
        metric(
            "wire.decode_us_per_msg",
            "us",
            codec(|r| {
                r.spans.seconds(Span::WireDecode) * 1e6
                    / r.spans.calls(Span::WireDecode).max(1) as f64
            }),
        ),
        metric(
            "net.self_s",
            "s",
            t(|r| (r.wall_s - r.spans.total_seconds() - r.verify_s).max(0.0)),
        ),
        metric(
            "net.events_per_decided",
            "count",
            t(|r| r.per_decided(r.report.events)),
        ),
        metric(
            "net.timers_fired_per_decided",
            "count",
            t(|r| r.per_decided(r.outcome.stats.timers_fired)),
        ),
        metric(
            "net.msgs_dropped",
            "msg",
            t(|r| r.outcome.stats.messages_dropped as f64),
        ),
        metric("trace.wall_s", "s", traced_wall),
        metric(
            "trace.overhead_frac",
            "frac",
            traced_wall / untraced_wall - 1.0,
        ),
    ];
    let untraced: Vec<Sample> = samples
        .iter()
        .map(|s| Sample::new(s.input, &s.untraced, s.twin.as_ref()))
        .collect();
    metrics.extend(substrate_figures(&untraced, deterministic));
    metrics
}

/// The result line: one JSON object with the run's verdict and metrics.
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

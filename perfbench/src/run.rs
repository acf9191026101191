//! One benchmark run: the workload's seeded input set, instance after
//! instance on one thread, in whole cycles.

use std::time::{Duration, Instant};

use cupft_core::RuntimeKind;

use crate::metrics::{end_to_end, per_layer, Metric, Sample, TracedSample};
use crate::trace::Tracing;
use crate::workload::{input_seed, Instance, Spec};

/// What a run reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Instances run.
    pub attempted: usize,
    /// Instances that failed their output checks.
    pub failed: usize,
    /// The run's metrics.
    pub metrics: Vec<Metric>,
}

/// Runs whole cycles over the run's input set, one instance after the
/// other: at least [`Spec::cycles`], then more for as long as another
/// still fits in the budget. Whole cycles weigh every input equally, so on
/// the simulator the count metrics are a pure function of the seed.
fn cycles<T>(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    mut one: impl FnMut(usize, u64) -> T,
) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    for done in 1.. {
        let cycle = Instant::now();
        for index in 0..spec.inputs {
            out.push(one(index as usize, input_seed(seed, index)));
        }
        if done >= spec.cycles && started.elapsed() + cycle.elapsed() > budget {
            break;
        }
    }
    out
}

/// The simulator twin of each input of a real-time workload, run once per
/// input with `tracing` and reused by later cycles.
struct Twins {
    spec: Spec,
    tracing: Tracing,
    runs: Vec<Option<Instance>>,
}

impl Twins {
    fn new(spec: &Spec, tracing: Tracing) -> Self {
        Twins {
            spec: *spec,
            tracing,
            runs: vec![None; spec.inputs as usize],
        }
    }

    fn get(&mut self, index: usize, seed: u64) -> Option<&Instance> {
        if self.spec.substrate == RuntimeKind::Sim {
            return None;
        }
        let (spec, tracing) = (self.spec, self.tracing);
        Some(self.runs[index].get_or_insert_with(|| spec.run(seed, RuntimeKind::Sim, tracing)))
    }
}

/// An untraced run: the end-to-end metrics.
pub fn untraced(spec: &Spec, seed: u64, budget: Duration) -> RunResult {
    let mut twins = Twins::new(spec, Tracing::Off);
    let samples = cycles(spec, seed, budget, |index, seed| {
        let measured = spec.run(seed, spec.substrate, Tracing::Off);
        let sample = Sample::new(index, &measured, twins.get(index, seed));
        eprintln!(
            "  input {index} seed={seed} setup={:.4}s wall={:.4}s cpu={:.4}s msgs={} {}",
            sample.setup_s,
            sample.wall_s,
            sample.cpu_s,
            measured.outcome.stats.messages_sent,
            if sample.passed { "ok" } else { "FAILED" },
        );
        sample
    });
    RunResult {
        attempted: samples.len(),
        failed: samples.iter().filter(|s| !s.passed).count(),
        metrics: end_to_end(&samples),
    }
}

/// A traced run: each instance untraced, then traced; the per-layer
/// metrics.
pub fn traced(spec: &Spec, seed: u64, budget: Duration) -> RunResult {
    // The shadow codec runs on the simulator only: on a real-time
    // substrate it would slow the actors and so change the work itself.
    let (on_substrate, on_twin) = if spec.substrate == RuntimeKind::Sim {
        (Tracing::SpansAndCodec, Tracing::Off)
    } else {
        (Tracing::Spans, Tracing::SpansAndCodec)
    };
    let mut twins = Twins::new(spec, on_twin);
    let samples = cycles(spec, seed, budget, |index, seed| {
        let sample = TracedSample {
            input: index,
            untraced: spec.run(seed, spec.substrate, Tracing::Off),
            traced: spec.run(seed, spec.substrate, on_substrate),
            twin: twins.get(index, seed).cloned(),
        };
        eprintln!(
            "  input {index} seed={seed} untraced={:.4}s traced={:.4}s {}",
            sample.untraced.wall_s,
            sample.traced.wall_s,
            if sample.passed() { "ok" } else { "FAILED" },
        );
        sample
    });
    RunResult {
        attempted: samples.len(),
        failed: samples.iter().filter(|s| !s.passed()).count(),
        metrics: per_layer(&samples, spec.substrate == RuntimeKind::Sim),
    }
}

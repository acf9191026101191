//! The benchmark's workloads and the runner for one seeded instance.

use std::time::Instant;

use cupft_core::{
    run_scenario_on, ByzantineStrategy, CoreDetector, Node, NodeMsg, ProtocolMode, RuntimeKind,
    Scenario, ScenarioOutcome, SinkDetector,
};
use cupft_graph::{GraphFamily, ProcessId};
use cupft_net::sim::Simulation;
use cupft_net::socket::SocketRuntime;
use cupft_net::threaded::ThreadedRuntime;
use cupft_net::{DelayPolicy, Runtime, RuntimeReport};

use crate::measure::median;
use crate::trace::{SpanTotals, Traced, Tracing};

/// What one workload runs: a topology family, an identification mode, a
/// substrate, and whether the committee's view-0 leader is faulty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// The topology family; the run's seed picks the sample.
    pub family: GraphFamily,
    /// The identification algorithm every correct node runs.
    pub mode: ProtocolMode,
    /// The substrate the measured instances run on.
    pub substrate: RuntimeKind,
    /// Make the lowest-ID planted sink member — the committee's view-0
    /// leader — a silent Byzantine process, forcing a view change.
    pub silent_leader: bool,
    /// Seeded inputs (graph plus schedule) in one run's input set.
    pub inputs: u64,
    /// Least number of cycles over the input set in a run; on the
    /// simulator the wall-clock figures keep each input's fastest repeat.
    pub cycles: u64,
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Erdős–Rényi n=64, known threshold, simulator.
    ErKnownSim,
    /// Erdős–Rényi n=16, unknown threshold (BFT-CUPFT), simulator.
    ErUnknownSim,
    /// k-diamond n≈300, known threshold, loopback TCP.
    KdSocket,
    /// Bridged partition with a silent view-0 leader, threaded runtime.
    LeaderfailThreaded,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::ErKnownSim,
        Workload::ErUnknownSim,
        Workload::KdSocket,
        Workload::LeaderfailThreaded,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ErKnownSim => "er64-known-sim",
            Workload::ErUnknownSim => "er16-unknown-sim",
            Workload::KdSocket => "kd300-socket",
            Workload::LeaderfailThreaded => "leaderfail-threaded",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What the workload runs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::ErKnownSim => Spec {
                family: GraphFamily::erdos_renyi(64, 1),
                mode: ProtocolMode::KnownThreshold(1),
                substrate: RuntimeKind::Sim,
                silent_leader: false,
                inputs: 30,
                cycles: 3,
            },
            Workload::ErUnknownSim => Spec {
                family: GraphFamily::erdos_renyi(16, 1),
                mode: ProtocolMode::UnknownThreshold,
                substrate: RuntimeKind::Sim,
                silent_leader: false,
                inputs: 100,
                cycles: 3,
            },
            Workload::KdSocket => Spec {
                family: GraphFamily::k_diamond(300, 1),
                mode: ProtocolMode::KnownThreshold(1),
                substrate: RuntimeKind::Socket,
                silent_leader: false,
                inputs: 24,
                cycles: 2,
            },
            Workload::LeaderfailThreaded => Spec {
                family: GraphFamily::BridgedPartition {
                    a_size: 8,
                    sink_size: 10,
                    bridge_width: 4,
                    fault_threshold: 3,
                },
                mode: ProtocolMode::KnownThreshold(3),
                substrate: RuntimeKind::Threaded,
                silent_leader: true,
                inputs: 12,
                cycles: 3,
            },
        }
    }
}

/// Seed of input `index` of the input set of a run seeded with `seed`.
/// It seeds both the graph sample and the scenario's schedule.
pub fn input_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(index)
}

/// Wall-clock budget of one real-time instance; one that has not decided
/// by then counts as failed.
const WALL_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// The delay policy of every workload (the same as `discovery_scale`).
fn policy() -> DelayPolicy {
    DelayPolicy::PartialSynchrony {
        gst: 200,
        delta: 10,
        pre_gst_max: 120,
    }
}

/// Measurements of one instance.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Graph generation seconds.
    pub graph_s: f64,
    /// Seconds from the start of graph generation to the runtime's
    /// `run_until_stopped`: graph, `SystemSetup`, actor population.
    pub setup_s: f64,
    /// Seconds from entering `run_scenario_on` to the first actor
    /// registration: `SystemSetup` key generation and certificate signing.
    pub detector_setup_s: f64,
    /// Wall seconds of `run_until_stopped` (every correct node decided, or
    /// the runtime's bound).
    pub wall_s: f64,
    /// Process CPU seconds inside `run_until_stopped`.
    pub cpu_s: f64,
    /// What the scenario runner read back out.
    pub outcome: ScenarioOutcome,
    /// The runtime's report of the run.
    pub report: RuntimeReport,
    /// Per-layer spans (all zero when untraced).
    pub spans: SpanTotals,
    /// Seconds in the certificate-verification stage (traced only).
    pub verify_s: f64,
    /// Verification-stage calls on discovery traffic (traced only).
    pub verify_calls: u64,
    /// Median milliseconds of one detector check on a converged view
    /// (traced only).
    pub check_ms: f64,
}

impl Instance {
    /// Correct nodes that decided.
    pub fn decided(&self) -> usize {
        self.outcome.decisions.values().flatten().count()
    }

    /// `count` per decided correct node (per node of the run when none
    /// decided, so a failed instance still yields a finite figure).
    pub fn per_decided(&self, count: u64) -> f64 {
        count as f64 / self.decided().max(1) as f64
    }
}

impl Spec {
    /// The scenario of one instance over `graph`.
    pub fn scenario(&self, system: cupft_graph::GeneratedSystem, seed: u64) -> Scenario {
        let leader = system.sink.first().copied();
        let mut scenario = Scenario::new(system.graph, self.mode)
            .with_seed(seed)
            .with_policy(policy())
            .with_horizon(2_000_000)
            .with_threaded_wall_timeout(WALL_TIMEOUT);
        if self.silent_leader {
            let leader: ProcessId = leader.expect("a planted sink has members");
            scenario = scenario.with_byzantine(leader.raw(), ByzantineStrategy::Silent);
        }
        scenario
    }

    /// Generates the instance's input from `seed` and runs it on
    /// `substrate`.
    ///
    /// # Panics
    ///
    /// Panics if the family rejects its parameters or the socket runtime
    /// cannot bind a loopback listener.
    pub fn run(&self, seed: u64, substrate: RuntimeKind, tracing: Tracing) -> Instance {
        let started = Instant::now();
        let system = self
            .family
            .generate(seed)
            .unwrap_or_else(|e| panic!("{}: {e}", self.family.label()))
            .system;
        let graph_s = started.elapsed().as_secs_f64();
        let scenario = self
            .scenario(system, seed)
            .with_observe(tracing != Tracing::Off);
        match substrate {
            RuntimeKind::Sim => {
                let sim: Simulation<NodeMsg> = Simulation::new(scenario.sim.clone());
                self.drive(&scenario, sim, tracing, started, graph_s)
            }
            RuntimeKind::Threaded => {
                let rt: ThreadedRuntime<NodeMsg> = ThreadedRuntime::new(scenario.threaded_config());
                self.drive(&scenario, rt, tracing, started, graph_s)
            }
            RuntimeKind::Socket => {
                let rt: SocketRuntime<NodeMsg> =
                    SocketRuntime::new(scenario.socket_config()).expect("bind a loopback listener");
                self.drive(&scenario, rt, tracing, started, graph_s)
            }
        }
    }

    fn drive<R: Runtime<NodeMsg>>(
        &self,
        scenario: &Scenario,
        runtime: R,
        tracing: Tracing,
        started: Instant,
        graph_s: f64,
    ) -> Instance {
        let mut traced = Traced::new(runtime, tracing);
        let entered = Instant::now();
        let outcome = run_scenario_on(scenario, &mut traced);
        let stamps = traced.stamps().clone();
        let first_actor = stamps.first_actor.expect("scenario registers actors");
        let run_start = stamps.run_start.expect("scenario runs the runtime");
        let run_end = stamps.run_end.expect("run returned");
        let check_ms = if tracing == Tracing::Off {
            0.0
        } else {
            self.check_ms(scenario, traced.inner())
        };
        Instance {
            graph_s,
            setup_s: (run_start - started).as_secs_f64(),
            detector_setup_s: (first_actor - entered).as_secs_f64(),
            wall_s: (run_end - run_start).as_secs_f64(),
            cpu_s: stamps.run_cpu_s,
            outcome,
            report: stamps.report.expect("run returned"),
            spans: traced.span_totals(),
            verify_s: traced.verify_totals().seconds(),
            verify_calls: traced.verify_totals().calls(),
            check_ms,
        }
    }

    /// Times the node's own detector on the final views of a few correct
    /// nodes (spread over the ID range) and returns the median
    /// milliseconds per check.
    fn check_ms<R: Runtime<NodeMsg>>(&self, scenario: &Scenario, runtime: &R) -> f64 {
        const SAMPLES: usize = 3;
        let correct: Vec<ProcessId> = scenario.correct().iter().copied().collect();
        let step = (correct.len() / SAMPLES).max(1);
        let times: Vec<f64> = correct
            .iter()
            .step_by(step)
            .take(SAMPLES)
            .map(|&id| {
                let node: &Node = runtime.actor_as(id).expect("correct actors are Nodes");
                let view = node.discovery().view();
                let started = Instant::now();
                let found = match self.mode {
                    ProtocolMode::KnownThreshold(f) => SinkDetector::new(f).check(view),
                    _ => CoreDetector::default().check(view),
                };
                let ms = started.elapsed().as_secs_f64() * 1e3;
                std::hint::black_box(found);
                ms
            })
            .collect();
        median(&times)
    }
}

//! Acceptance tests for the real-socket runtime.
//!
//! Three claims:
//!
//! 1. **In-process parity** — a `SocketRuntime` hosting every node of a
//!    scenario (all traffic over loopback TCP through its own listener)
//!    reaches exactly the decisions the deterministic simulator reaches,
//!    across three generated graph families.
//! 2. **Multi-process parity** — the `socket_cell` driver binary spawns
//!    one OS process per vertex, runs consensus over genuine inter-process
//!    TCP, and asserts decision parity against the simulator itself
//!    (printing the `SOCKET PARITY OK` line this test greps, same as CI).
//! 3. **Tamper order** — a serialized [`Tamper`] installed on the socket
//!    runtime sees each sender's emissions in program order, mirroring
//!    `realtime_runtime::tamper_sees_per_sender_emission_order`
//!    for the TCP substrate: encode/enqueue happens at send time on the
//!    sending actor's thread, so the order-asserting tamper must never
//!    trip even though deliveries fan out across connections.

use std::process::Command;
use std::time::Duration;

use bft_cupft::core::{ProtocolMode, RuntimeKind, Scenario};
use bft_cupft::graph::{GraphFamily, ProcessId};
use bft_cupft::net::{Actor, Context, Fate, Labeled, Runtime, SocketConfig, SocketRuntime, Tamper};
use bft_cupft::wire::{Decode, Encode, Reader, WireError};

/// Retunes tick-denominated knobs for the socket substrate (read as
/// milliseconds there, same as the threaded retuning).
fn socket_variant(scenario: &Scenario) -> Scenario {
    let mut s = scenario
        .clone()
        .with_threaded_wall_timeout(Duration::from_secs(60));
    s.discovery_period = 100;
    s.view_timeout_base = 4_000;
    s
}

#[test]
fn socket_decisions_match_sim_on_three_families() {
    let families = [
        GraphFamily::erdos_renyi(12, 1),
        GraphFamily::k_diamond(12, 1),
        GraphFamily::ring_of_cliques(12, 1),
    ];
    for family in families {
        let label = family.label();
        let sample = family.generate(11).expect("valid family parameterization");
        let scenario =
            Scenario::new(sample.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(5);
        let sim = scenario.run_on(RuntimeKind::Sim);
        assert!(sim.check().consensus_solved(), "{label} on sim: {sim:?}");
        let socket = socket_variant(&scenario).run_on(RuntimeKind::Socket);
        assert!(
            socket.check().consensus_solved(),
            "{label} on socket: {:?}",
            socket.decisions
        );
        assert_eq!(
            sim.decisions, socket.decisions,
            "{label}: socket decisions must equal sim"
        );
        // Socket runs deliver what they send (no tamper, no loss) —
        // whatever was still in flight at shutdown is the only slack.
        assert!(
            socket.stats.messages_delivered <= socket.stats.messages_sent,
            "{label}: delivered > sent"
        );
    }
}

/// Runs the `socket_cell` coordinator (which spawns one OS process per
/// vertex) and asserts it reports parity — a real distributed deployment
/// of the full stack, exercised from the test suite exactly as CI runs it.
fn cell_reports_parity(family: &str, n: usize) {
    let out = Command::new(env!("CARGO_BIN_EXE_socket_cell"))
        .args(["--family", family, "--n", &n.to_string(), "--f", "1"])
        .output()
        .expect("run socket_cell");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "socket_cell {family} n={n} failed: {stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("SOCKET PARITY OK"),
        "missing parity line: {stdout}\n{stderr}"
    );
}

#[test]
fn multiprocess_cell_matches_sim_on_k_diamond() {
    cell_reports_parity("k-diamond", 10);
}

#[test]
fn multiprocess_cell_matches_sim_on_erdos_renyi() {
    cell_reports_parity("erdos-renyi", 10);
}

// ---- tamper order over TCP (mirrors tests/realtime_runtime.rs) ----

const FLOOD_N: u64 = 9;
const FLOOD_R: u64 = 5;

#[derive(Debug, Clone, PartialEq, Eq)]
enum FloodMsg {
    Flood,
    Done,
}

impl Labeled for FloodMsg {
    fn label(&self) -> &'static str {
        match self {
            FloodMsg::Flood => "FLOOD",
            FloodMsg::Done => "DONE",
        }
    }
}

impl Encode for FloodMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            FloodMsg::Flood => 0,
            FloodMsg::Done => 1,
        });
    }
}

impl Decode for FloodMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(FloodMsg::Flood),
            1 => Ok(FloodMsg::Done),
            tag => Err(WireError::BadTag {
                ty: "FloodMsg",
                tag,
            }),
        }
    }
}

/// Sends `FLOOD_R` flood rounds plus one `Done` to every peer at startup,
/// halts after receiving a preset count (same shape as the threaded
/// runtime's stats-conservation flood).
struct FloodActor {
    id: ProcessId,
    peers: Vec<ProcessId>,
    expect: u64,
    got: u64,
}

impl Actor<FloodMsg> for FloodActor {
    fn id(&self) -> ProcessId {
        self.id
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn on_start(&mut self, ctx: &mut Context<FloodMsg>) {
        for _ in 0..FLOOD_R {
            for &peer in &self.peers {
                ctx.send(peer, FloodMsg::Flood);
            }
        }
        for &peer in &self.peers {
            ctx.send(peer, FloodMsg::Done);
        }
    }
    fn on_message(&mut self, _: ProcessId, _: FloodMsg, ctx: &mut Context<FloodMsg>) {
        self.got += 1;
        if self.got >= self.expect {
            ctx.halt();
        }
    }
}

fn flood_actors() -> Vec<Box<dyn Actor<FloodMsg>>> {
    let ids: Vec<ProcessId> = (1..=FLOOD_N).map(ProcessId::new).collect();
    ids.iter()
        .map(|&id| {
            Box::new(FloodActor {
                id,
                peers: ids.iter().copied().filter(|&p| p != id).collect(),
                expect: (FLOOD_N - 1) * (FLOOD_R + 1),
                got: 0,
            }) as Box<dyn Actor<FloodMsg>>
        })
        .collect()
}

/// Asserts the per-sender monotone round structure the flood emits
/// (`FLOOD_R` batches of peers in ID order, then the `Done` batch) — any
/// reordering before the tamper point would trip it. Same checker as the
/// threaded-transport mirror test.
struct OrderAssertingTamper {
    last_to: std::collections::BTreeMap<ProcessId, (u64, u64)>,
}

impl Tamper<FloodMsg> for OrderAssertingTamper {
    fn disposition(&mut self, from: ProcessId, to: ProcessId, _: &'static str, _: u64) -> Fate {
        let entry = self.last_to.entry(from).or_insert((0, 0));
        let to_idx = to.raw();
        if to_idx <= entry.1 {
            entry.0 += 1; // new round wrapped past the sender's peer list
            assert!(
                entry.0 < FLOOD_R + 1,
                "sender {from} emitted more rounds than it floods"
            );
        }
        entry.1 = to_idx;
        Fate::Deliver
    }
}

#[test]
fn socket_tamper_sees_per_sender_emission_order() {
    let mut rt: SocketRuntime<FloodMsg> = SocketRuntime::new(SocketConfig {
        wall_timeout: Duration::from_secs(30),
        ..SocketConfig::default()
    })
    .expect("bind");
    for actor in flood_actors() {
        rt.add_actor(actor);
    }
    Runtime::set_tamper(
        &mut rt,
        Box::new(OrderAssertingTamper {
            last_to: std::collections::BTreeMap::new(),
        }),
    );
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{report:?}");
    // Every actor received everything it expected before halting, so the
    // drop-free TCP run conserves the totals exactly.
    let total = FLOOD_N * (FLOOD_N - 1) * (FLOOD_R + 1);
    assert_eq!(report.stats.messages_sent, total);
    assert_eq!(report.stats.messages_delivered, total);
    assert_eq!(report.stats.messages_dropped, 0);
}

//! Acceptance tests for the wall-clock runtime, run on both of its
//! transports: the in-process channel transport (`ThreadedRuntime`) and
//! the TCP transport (`SocketRuntime`).
//!
//! Five claims:
//!
//! 1. **Decision parity** — each transport reaches exactly the decisions
//!    the deterministic simulator reaches, with and without a
//!    `TamperSpec` (the `adversary_sweep` grid's within-model drop chained
//!    behind a reorder window).
//! 2. **Stats conservation** — with a protocol whose traffic is
//!    timing-independent, `NetStats` counts every message and payload
//!    unit exactly once, at send and at delivery.
//! 3. **Exact tamper accounting** — drops are decided once, at the send
//!    gate, and counted exactly.
//! 4. **Per-sender emission order** — the tamper sees each sender's
//!    emissions in program order, also with a preflight installed in
//!    front of it.
//! 5. **Staging moves work, never accounting** — stats with a preflight
//!    installed equal the unstaged stats exactly.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bft_cupft::core::{ByzantineStrategy, ProtocolMode, RuntimeKind, Scenario, TamperSpec};
use bft_cupft::graph::{fig1b, process_set, GraphFamily, ProcessId};
use bft_cupft::net::{
    Actor, Context, Fate, Labeled, NetStats, Preflight, Runtime, RuntimeReport, SocketConfig,
    SocketRuntime, Tamper, ThreadedConfig, ThreadedRuntime,
};
use bft_cupft::wire::{Decode, Encode, Reader, WireError};

/// The two wall-clock substrates.
const SUBSTRATES: [RuntimeKind; 2] = [RuntimeKind::Threaded, RuntimeKind::Socket];

/// Retunes tick-denominated knobs for a wall-clock substrate (they are
/// read as milliseconds there); the socket substrate polls slower since
/// every message pays the codec and a socket round trip.
fn wall_clock_variant(scenario: &Scenario, kind: RuntimeKind) -> Scenario {
    let mut s = scenario
        .clone()
        .with_threaded_wall_timeout(Duration::from_secs(60));
    if kind == RuntimeKind::Socket {
        s.discovery_period = 100;
        s.view_timeout_base = 4_000;
    } else {
        s.discovery_period = 10;
        s.view_timeout_base = 2_000;
    }
    s
}

/// The parity workloads: the Fig. 1(b) witness graph and a generated
/// Erdős–Rényi planted-sink topology.
fn parity_scenarios() -> Vec<(String, Scenario)> {
    let er = GraphFamily::erdos_renyi(16, 1)
        .generate(11)
        .expect("valid family parameterization");
    vec![
        (
            "fig1b/silent4".into(),
            Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
                .with_byzantine(4, ByzantineStrategy::Silent)
                .with_seed(3),
        ),
        (
            "erdos-renyi@n16".into(),
            Scenario::new(er.system.graph, ProtocolMode::KnownThreshold(1)).with_seed(5),
        ),
    ]
}

#[test]
fn decisions_match_sim_on_both_transports() {
    for (label, scenario) in parity_scenarios() {
        let sim = scenario.run_on(RuntimeKind::Sim);
        assert!(sim.check().consensus_solved(), "{label} on sim: {sim:?}");
        for kind in SUBSTRATES {
            let outcome = wall_clock_variant(&scenario, kind).run_on(kind);
            assert!(
                outcome.check().consensus_solved(),
                "{label} on {}: {:?}",
                kind.label(),
                outcome.decisions
            );
            assert_eq!(
                sim.decisions,
                outcome.decisions,
                "{label}: {} decisions must equal sim",
                kind.label()
            );
        }
    }
}

/// The `adversary_sweep` within-model cell (Byzantine process 4 forging a
/// PD while the network drops its output, chained behind a reorder
/// window) keeps its verdict and its drop accounting on both transports.
#[test]
fn adversary_sweep_tamper_cell_solves_on_both_transports() {
    let scenario = Scenario::new(fig1b().graph().clone(), ProtocolMode::KnownThreshold(1))
        .with_byzantine(
            4,
            ByzantineStrategy::FakePd {
                claimed: process_set([1, 2, 3]),
            },
        )
        .with_tamper(TamperSpec::Chain(vec![
            TamperSpec::ReorderWindow { window: 5, seed: 9 },
            TamperSpec::DropFrom {
                senders: process_set([4]),
            },
        ]))
        .with_seed(2);
    let sim = scenario.run_on(RuntimeKind::Sim);
    assert!(sim.check().consensus_solved(), "sim: {:?}", sim.decisions);
    for kind in SUBSTRATES {
        let outcome = wall_clock_variant(&scenario, kind).run_on(kind);
        let name = kind.label();
        assert!(
            outcome.check().consensus_solved(),
            "{name}: {:?}",
            outcome.decisions
        );
        assert!(
            outcome.stats.messages_dropped > 0,
            "{name}: the drop tamper must keep biting"
        );
        assert_eq!(
            sim.decisions, outcome.decisions,
            "{name}: tampered decisions must equal sim"
        );
    }
}

// ---- exact accounting with a timing-independent workload ----

/// Number of flood actors.
const FLOOD_N: u64 = 9;
/// Rounds each actor floods at startup.
const FLOOD_R: u64 = 5;
/// Payload units per flood message.
const FLOOD_PAYLOAD: u64 = 3;
/// Flood messages sent in one run.
const FLOODS: u64 = FLOOD_N * (FLOOD_N - 1) * FLOOD_R;
/// `Done` messages sent in one run.
const DONES: u64 = FLOOD_N * (FLOOD_N - 1);

#[derive(Debug, Clone, PartialEq, Eq)]
enum FloodMsg {
    /// A payload-bearing round message.
    Flood,
    /// The sender's final message, emitted after all its floods — so a
    /// receiver that has counted every expected message knows the send
    /// gate has already ruled on everything sent before it by the same
    /// sender.
    Done,
}

impl Labeled for FloodMsg {
    fn label(&self) -> &'static str {
        match self {
            FloodMsg::Flood => "FLOOD",
            FloodMsg::Done => "DONE",
        }
    }
    fn payload_units(&self) -> u64 {
        match self {
            FloodMsg::Flood => FLOOD_PAYLOAD,
            FloodMsg::Done => 0,
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

/// Sends `FLOOD_R` flood rounds plus one `Done` to every peer at
/// startup, halts after receiving a preset count. Traffic totals are
/// exact functions of the topology — independent of delivery timing —
/// and the trailing per-sender `Done` makes the halt condition causally
/// later than every drop decision, so the final stats are exact, not
/// racy.
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

/// A fresh runtime of `kind` hosting the all-to-all flood;
/// `expect_floods_from` counts the senders whose floods each actor waits
/// for (all peers, or all peers minus tamper-silenced ones); every actor
/// additionally waits for one `Done` per peer.
fn flood_runtime(
    kind: RuntimeKind,
    expect_floods_from: impl Fn(ProcessId) -> u64,
) -> Box<dyn Runtime<FloodMsg>> {
    let mut rt: Box<dyn Runtime<FloodMsg>> = match kind {
        RuntimeKind::Threaded => Box::new(ThreadedRuntime::new(ThreadedConfig {
            wall_timeout: Duration::from_secs(20),
            seed: 7,
            ..ThreadedConfig::default()
        })),
        RuntimeKind::Socket => Box::new(
            SocketRuntime::new(SocketConfig {
                wall_timeout: Duration::from_secs(30),
                ..SocketConfig::default()
            })
            .expect("bind"),
        ),
        RuntimeKind::Sim => unreachable!("the flood checks wall-clock substrates"),
    };
    let ids: Vec<ProcessId> = (1..=FLOOD_N).map(ProcessId::new).collect();
    for &id in &ids {
        rt.add_actor(Box::new(FloodActor {
            id,
            peers: ids.iter().copied().filter(|&p| p != id).collect(),
            expect: expect_floods_from(id) * FLOOD_R + (FLOOD_N - 1),
            got: 0,
        }));
    }
    rt
}

/// Runs the drop-free flood and checks every counter, returning the
/// stats for further comparison.
fn run_full_flood(mut rt: Box<dyn Runtime<FloodMsg>>, what: &str) -> NetStats {
    let report = rt.run_to_completion();
    assert!(report.all_halted, "{what}: {report:?}");
    let stats = report.stats;
    assert_eq!(stats.messages_sent, FLOODS + DONES, "{what}");
    assert_eq!(stats.messages_delivered, FLOODS + DONES, "{what}");
    assert_eq!(stats.messages_dropped, 0, "{what}");
    assert_eq!(stats.payload_units, FLOODS * FLOOD_PAYLOAD, "{what}");
    assert_eq!(stats.label_count("FLOOD"), FLOODS, "{what}");
    assert_eq!(stats.label_count("DONE"), DONES, "{what}");
    assert_eq!(
        stats.label_payload("FLOOD"),
        FLOODS * FLOOD_PAYLOAD,
        "{what}"
    );
    // Payload is counted again at actual delivery — once per delivered
    // message — and the fully-delivered run conserves it exactly.
    assert_eq!(
        stats.payload_delivered_units,
        FLOODS * FLOOD_PAYLOAD,
        "{what}"
    );
    assert_eq!(
        stats.payload_delivered_units,
        stats.payload_delivered(),
        "{what}"
    );
    stats
}

#[test]
fn netstats_totals_are_conserved_on_both_transports() {
    for kind in SUBSTRATES {
        run_full_flood(flood_runtime(kind, |_| FLOOD_N - 1), kind.label());
    }
}

/// Drops only the payload-bearing floods of one sender; its trailing
/// `Done` messages still flow, so every receiver's halt stays causally
/// behind the drop decisions.
struct DropFloodsFrom {
    sender: ProcessId,
}

impl Tamper<FloodMsg> for DropFloodsFrom {
    fn disposition(&mut self, from: ProcessId, _: ProcessId, label: &'static str, _: u64) -> Fate {
        if from == self.sender && label == "FLOOD" {
            Fate::Drop
        } else {
            Fate::Deliver
        }
    }
}

#[test]
fn tamper_drop_accounting_is_exact_on_both_transports() {
    let silenced = ProcessId::new(1);
    let dropped = (FLOOD_N - 1) * FLOOD_R;
    for kind in SUBSTRATES {
        let name = kind.label();
        let mut rt = flood_runtime(kind, |id| {
            if id == silenced {
                FLOOD_N - 1 // still hears everyone's floods
            } else {
                FLOOD_N - 2 // everyone's floods except the silenced sender's
            }
        });
        rt.set_tamper(Box::new(DropFloodsFrom { sender: silenced }));
        let report = rt.run_to_completion();
        assert!(report.all_halted, "{name}: {report:?}");
        let stats = &report.stats;
        assert_eq!(stats.messages_sent, FLOODS + DONES, "{name}");
        assert_eq!(stats.messages_dropped, dropped, "{name}");
        assert_eq!(stats.messages_delivered, FLOODS + DONES - dropped, "{name}");
        assert_eq!(stats.payload_dropped, dropped * FLOOD_PAYLOAD, "{name}");
        assert_eq!(
            stats.payload_delivered(),
            (FLOODS - dropped) * FLOOD_PAYLOAD,
            "{name}"
        );
        // Delivery-side accounting agrees: everything the tamper spared
        // was delivered, and only counted once.
        assert_eq!(
            stats.payload_delivered_units,
            (FLOODS - dropped) * FLOOD_PAYLOAD,
            "{name}"
        );
    }
}

/// A no-op verification stage that counts its calls: the stats must not
/// care what the stage computes.
struct CountStage(Arc<AtomicU64>);

impl Preflight<FloodMsg> for CountStage {
    fn preflight(&self, _: ProcessId, _: ProcessId, _: &FloodMsg) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

/// Running the flood through an installed preflight leaves the whole
/// `NetStats` surface identical to the unstaged run of the same
/// transport, and the stage sees every message once.
#[test]
fn staged_delivery_conserves_netstats_exactly() {
    for kind in SUBSTRATES {
        let name = kind.label();
        let reference = run_full_flood(flood_runtime(kind, |_| FLOOD_N - 1), name);
        let seen = Arc::new(AtomicU64::new(0));
        let mut rt = flood_runtime(kind, |_| FLOOD_N - 1);
        rt.set_preflight(Arc::new(CountStage(seen.clone())));
        let staged = run_full_flood(rt, name);
        assert_eq!(
            staged, reference,
            "{name}: staged stats must equal unstaged"
        );
        assert_eq!(seen.load(Ordering::Relaxed), FLOODS + DONES, "{name}");
    }
}

/// Asserts the per-sender monotone round structure the flood emits
/// (`FLOOD_R` batches of peers in ID order, then the `Done` batch) — any
/// reordering before the tamper would trip it.
#[derive(Default)]
struct OrderAssertingTamper {
    last_to: BTreeMap<ProcessId, (u64, u64)>, // sender -> (round, last peer idx)
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
fn tamper_sees_per_sender_emission_order() {
    for kind in SUBSTRATES {
        for staged in [false, true] {
            let name = format!("{} staged={staged}", kind.label());
            let mut rt = flood_runtime(kind, |_| FLOOD_N - 1);
            rt.set_tamper(Box::new(OrderAssertingTamper::default()));
            let seen = Arc::new(AtomicU64::new(0));
            if staged {
                rt.set_preflight(Arc::new(CountStage(seen.clone())));
            }
            let report: RuntimeReport = rt.run_to_completion();
            assert!(report.all_halted, "{name}: {report:?}");
            assert_eq!(report.stats.messages_delivered, FLOODS + DONES, "{name}");
            if staged {
                assert_eq!(seen.load(Ordering::Relaxed), FLOODS + DONES, "{name}");
            }
        }
    }
}

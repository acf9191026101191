//! OS-thread runtime: the same actors on real threads and channels.
//!
//! [`ThreadedRuntime`] is the shared wall-clock runtime (`realtime.rs`)
//! over the in-process channel transport: each actor runs on its own
//! thread with a bounded inbox, and every message reaches its
//! destination's inbox after a uniform random delay in
//! `[1 ms, max_delay]` (plus any [`crate::Tamper`] extra), applied by the
//! runtime's delay wheel.
//!
//! Real-time interleaving is inherently nondeterministic — use
//! [`crate::sim::Simulation`] for reproducible experiments and this
//! runtime for wall-clock validation that the protocols are not simulator
//! artifacts.

use std::collections::BTreeMap;
use std::ops::RangeInclusive;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use cupft_graph::ProcessId;
use parking_lot::Mutex;

use crate::actor::{Actor, Labeled};
use crate::realtime::{Bounds, Link, Realtime, Sink, Transport};
use crate::runtime::{PeerAddr, Runtime};
use crate::stats::NetStats;

/// Shortest artificial delivery delay of the channel transport.
pub const MIN_DELAY: Duration = Duration::from_millis(1);

/// Configuration for the threaded runtime.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Maximum artificial delivery delay (the minimum is [`MIN_DELAY`]).
    pub max_delay: Duration,
    /// Wall-clock budget for the run.
    pub wall_timeout: Duration,
    /// Seed for the delay sampler.
    pub seed: u64,
    /// External stop signal: when some supervisor sets this flag the run
    /// winds down early (useful for protocols whose actors never halt,
    /// where the caller detects goal completion out of band, e.g. via a
    /// [`Board`]).
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            max_delay: Duration::from_millis(10),
            wall_timeout: Duration::from_secs(10),
            seed: 0,
            stop: None,
        }
    }
}

/// The in-process channel transport: cleared messages go straight into
/// the destination actor's inbox.
#[derive(Debug, Clone)]
pub struct Channel {
    max_delay: Duration,
}

impl<M: Labeled + Send + 'static> Transport<M> for Channel {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn jitter_ms(&self) -> RangeInclusive<u64> {
        let lo = MIN_DELAY.as_millis() as u64;
        lo..=(self.max_delay.as_millis() as u64).max(lo)
    }

    fn open(&mut self, sink: Arc<Sink<M>>, _: Arc<AtomicBool>) -> Arc<dyn Link<M>> {
        sink
    }

    /// Channel substrates cannot host external peers: a (redundant)
    /// local address for a registered actor is accepted, anything else
    /// panics, so a driver wiring a distributed topology against this
    /// substrate fails loudly instead of silently black-holing sends.
    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr, local: bool) {
        match addr {
            PeerAddr::Local(peer) if peer == id && local => {}
            _ => panic!("threaded runtime cannot register external peer {id} at {addr}"),
        }
    }

    fn addr_of(&self, id: ProcessId, local: bool) -> Option<PeerAddr> {
        local.then_some(PeerAddr::Local(id))
    }
}

/// The OS-thread [`Runtime`]: each actor on its own thread, every message
/// delayed by a uniform random `[1 ms, max_delay]` on its way to the
/// destination inbox. See `realtime.rs` for the shared loop and
/// send path.
pub type ThreadedRuntime<M> = Realtime<M, Channel>;

impl<M> Realtime<M, Channel> {
    /// Creates a runtime with no actors.
    pub fn new(config: ThreadedConfig) -> Self {
        Realtime::with_transport(
            Channel {
                max_delay: config.max_delay,
            },
            Bounds {
                wall_timeout: config.wall_timeout,
                stop: config.stop,
                seed: config.seed,
            },
        )
    }
}

/// Result of a threaded run: the actors (for state inspection) and stats.
pub struct ThreadedReport<M> {
    /// The actors, keyed by ID, in their final states.
    pub actors: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    /// Network statistics of the run.
    pub stats: NetStats,
    /// Whether every actor halted before the wall timeout.
    pub all_halted: bool,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl<M> std::fmt::Debug for ThreadedReport<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadedReport")
            .field("actors", &self.actors.keys().collect::<Vec<_>>())
            .field("stats", &self.stats)
            .field("all_halted", &self.all_halted)
            .field("elapsed", &self.elapsed)
            .finish()
    }
}

/// Runs `actors` on OS threads until all halt or the wall timeout expires.
///
/// Thin wrapper over [`ThreadedRuntime`] retained for callers that want
/// the actors back by value.
pub fn run_threaded<M>(actors: Vec<Box<dyn Actor<M>>>, config: ThreadedConfig) -> ThreadedReport<M>
where
    M: Send + Labeled + 'static,
{
    let mut runtime = ThreadedRuntime::new(config);
    for actor in actors {
        runtime.add_actor(actor);
    }
    let report = runtime.run_to_completion();
    let elapsed = runtime.elapsed();
    ThreadedReport {
        actors: runtime.into_actors(),
        stats: report.stats,
        all_halted: report.all_halted,
        elapsed,
    }
}

/// Shared decision board: a tiny utility actors can use (via `Arc`) to
/// publish values for cross-thread assertions in tests and examples.
#[derive(Debug, Default, Clone)]
pub struct Board<T> {
    inner: Arc<Mutex<BTreeMap<ProcessId, T>>>,
}

impl<T: Clone> Board<T> {
    /// Creates an empty board.
    pub fn new() -> Self {
        Board {
            inner: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    /// Publishes `value` for process `id`.
    pub fn publish(&self, id: ProcessId, value: T) {
        self.inner.lock().insert(id, value);
    }

    /// Snapshot of all published values.
    pub fn snapshot(&self) -> BTreeMap<ProcessId, T> {
        self.inner.lock().clone()
    }

    /// Number of published entries.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether nothing has been published.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Context, TimerKind};
    use crate::stage::Preflight;
    use crate::tamper::{Fate, Tamper};
    use crate::Time;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Clone)]
    enum Msg {
        Ping,
        Pong,
    }
    impl Labeled for Msg {
        fn label(&self) -> &'static str {
            match self {
                Msg::Ping => "PING",
                Msg::Pong => "PONG",
            }
        }
        fn payload_units(&self) -> u64 {
            match self {
                Msg::Ping => 3,
                Msg::Pong => 1,
            }
        }
    }

    struct Node {
        id: ProcessId,
        peer: ProcessId,
        initiator: bool,
        board: Board<bool>,
    }

    impl Actor<Msg> for Node {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Msg>) {
            if self.initiator {
                ctx.send(self.peer, Msg::Ping);
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg>) {
            match msg {
                Msg::Ping => {
                    ctx.send(from, Msg::Pong);
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
                Msg::Pong => {
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
            }
        }
    }

    fn pingpong_actors(board: &Board<bool>) -> Vec<Box<dyn Actor<Msg>>> {
        vec![
            Box::new(Node {
                id: ProcessId::new(1),
                peer: ProcessId::new(2),
                initiator: true,
                board: board.clone(),
            }),
            Box::new(Node {
                id: ProcessId::new(2),
                peer: ProcessId::new(1),
                initiator: false,
                board: board.clone(),
            }),
        ]
    }

    fn config(wall_timeout: Duration) -> ThreadedConfig {
        ThreadedConfig {
            wall_timeout,
            ..ThreadedConfig::default()
        }
    }

    #[test]
    fn threaded_pingpong() {
        let board = Board::new();
        let report = run_threaded(pingpong_actors(&board), config(Duration::from_secs(5)));
        assert!(report.all_halted, "{report:?}");
        assert_eq!(board.len(), 2);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
        assert_eq!(report.stats.messages_sent, 2);
        assert_eq!(report.stats.messages_delivered, 2);
        // Delivered payload is counted once per delivery.
        assert_eq!(report.stats.payload_delivered_units, 4);
    }

    #[test]
    fn staged_pingpong_runs_preflight_and_preserves_stats() {
        struct CountStage(Arc<AtomicU64>);
        impl Preflight<Msg> for CountStage {
            fn preflight(&self, _from: ProcessId, _to: ProcessId, _msg: &Msg) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }

        let seen = Arc::new(AtomicU64::new(0));
        let board = Board::new();
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(config(Duration::from_secs(5)));
        for actor in pingpong_actors(&board) {
            rt.add_actor(actor);
        }
        rt.set_preflight(Arc::new(CountStage(seen.clone())));
        let report = rt.run_to_completion();
        assert!(report.all_halted, "{report:?}");
        // The stage saw every send exactly once, and the stats are
        // unchanged by staging.
        assert_eq!(seen.load(Ordering::Relaxed), 2);
        assert_eq!(report.stats.messages_sent, 2);
        assert_eq!(report.stats.messages_delivered, 2);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
        assert_eq!(report.stats.payload_delivered_units, 4);
    }

    #[test]
    fn selective_stage_bypasses_unwanted_messages() {
        // Wants only PING: the PONG reply must skip the stage and still
        // deliver, with the stats unchanged.
        struct PingStage(Arc<AtomicU64>);
        impl Preflight<Msg> for PingStage {
            fn preflight(&self, _from: ProcessId, _to: ProcessId, msg: &Msg) {
                assert!(matches!(msg, Msg::Ping), "bypassed message reached stage");
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            fn wants(&self, msg: &Msg) -> bool {
                matches!(msg, Msg::Ping)
            }
        }

        let seen = Arc::new(AtomicU64::new(0));
        let board = Board::new();
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(config(Duration::from_secs(5)));
        for actor in pingpong_actors(&board) {
            rt.add_actor(actor);
        }
        rt.set_preflight(Arc::new(PingStage(seen.clone())));
        let report = rt.run_to_completion();
        assert!(report.all_halted, "{report:?}");
        assert_eq!(seen.load(Ordering::Relaxed), 1, "stage saw only the PING");
        assert_eq!(report.stats.messages_sent, 2);
        assert_eq!(report.stats.messages_delivered, 2);
        assert_eq!(report.stats.payload_delivered_units, 4);
    }

    #[test]
    fn tamper_drop_is_counted_once() {
        struct DropPings;
        impl Tamper<Msg> for DropPings {
            fn disposition(
                &mut self,
                _: ProcessId,
                _: ProcessId,
                label: &'static str,
                _: Time,
            ) -> Fate {
                if label == "PING" {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }
        }
        let board = Board::new();
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(config(Duration::from_millis(300)));
        for actor in pingpong_actors(&board) {
            rt.add_actor(actor);
        }
        rt.set_tamper(Box::new(DropPings));
        let report = rt.run_to_completion();
        // The PING is swallowed at the send gate, so nobody ever replies
        // or halts; the run ends at the wall timeout.
        assert!(!report.all_halted);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.messages_dropped, 1);
        assert_eq!(report.stats.messages_delivered, 0);
    }

    #[test]
    fn wall_timeout_terminates_stuck_actors() {
        struct Stuck {
            id: ProcessId,
        }
        impl Actor<Msg> for Stuck {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<Msg>) {}
        }
        let report = run_threaded(
            vec![Box::new(Stuck {
                id: ProcessId::new(1),
            }) as Box<dyn Actor<Msg>>],
            config(Duration::from_millis(200)),
        );
        assert!(!report.all_halted);
        assert!(report.elapsed >= Duration::from_millis(200));
    }

    #[test]
    fn timers_fire_in_threaded_runtime() {
        struct TimerNode {
            id: ProcessId,
            fired: u32,
        }
        impl Actor<Msg> for TimerNode {
            fn id(&self) -> ProcessId {
                self.id
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn on_start(&mut self, ctx: &mut Context<Msg>) {
                ctx.set_timer(1, 10);
            }
            fn on_message(&mut self, _: ProcessId, _: Msg, _: &mut Context<Msg>) {}
            fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<Msg>) {
                self.fired += 1;
                if self.fired >= 3 {
                    ctx.halt();
                } else {
                    ctx.set_timer(1, 10);
                }
            }
        }
        let report = run_threaded(
            vec![Box::new(TimerNode {
                id: ProcessId::new(1),
                fired: 0,
            }) as Box<dyn Actor<Msg>>],
            config(Duration::from_secs(5)),
        );
        assert!(report.all_halted);
        assert_eq!(report.stats.timers_fired, 3);
    }

    #[test]
    fn runtime_second_run_returns_recorded_report() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(config(Duration::from_secs(5)));
        for actor in pingpong_actors(&Board::new()) {
            rt.add_actor(actor);
        }
        let first = rt.run_to_completion();
        let second = rt.run_to_completion();
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "before the run")]
    fn runtime_rejects_actor_registration_after_run() {
        let mut rt: ThreadedRuntime<Msg> = ThreadedRuntime::new(config(Duration::from_millis(50)));
        let mut actors = pingpong_actors(&Board::new());
        rt.add_actor(actors.remove(1));
        rt.run_to_completion();
        rt.add_actor(actors.remove(0));
    }

    #[test]
    fn board_snapshot() {
        let board: Board<u32> = Board::new();
        assert!(board.is_empty());
        board.publish(ProcessId::new(1), 10);
        board.publish(ProcessId::new(2), 20);
        let snap = board.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&ProcessId::new(1)], 10);
    }
}

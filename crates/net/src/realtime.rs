//! The wall-clock runtime: one actor loop and one send path over any
//! [`Transport`].
//!
//! The paper's system model (§II-A) needs only reliable, authenticated
//! point-to-point channels, so a wall-clock substrate is a transport and
//! nothing more. [`Realtime`] owns everything that is not the transport:
//!
//! * actor registration and post-run inspection;
//! * one actor loop per OS thread — due timers first, then a bounded batch
//!   of queued messages between firings so neither can starve the other;
//! * one coordinator on the driving thread for halts, the caller's stop
//!   condition, the configured stop flag, and the wall deadline;
//! * one **send path**, run on the sending actor's thread:
//!   1. the installed [`Preflight`], inline;
//!   2. one gate lock covering [`NetStats`] send accounting, the
//!      [`Tamper`] disposition, and the delay sample — so the tamper sees
//!      each message exactly once, with one `&mut` state, in each
//!      sender's program order;
//!   3. immediate hand-off to the transport, or one delay-wheel thread
//!      that hands the message over when due (re-queueing it while the
//!      destination inbox is full: channels are reliable, never lossy).
//!
//! Two transports plug in: the in-process channel transport behind
//! [`crate::ThreadedRuntime`] (uniform `[1 ms, max_delay]` delivery
//! jitter) and the TCP transport behind [`crate::SocketRuntime`] (every
//! send framed and carried over a real socket, zero artificial delay).
//!
//! Real-time interleaving is inherently nondeterministic — use
//! [`crate::sim::Simulation`] for reproducible experiments and this
//! runtime for wall-clock validation that the protocols are not simulator
//! artifacts.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use cupft_graph::ProcessId;
use cupft_obs::{Histogram, Recorder};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::actor::{Actor, Context, Labeled, TimerKind};
use crate::runtime::{PeerAddr, Runtime, RuntimeReport};
use crate::stage::Preflight;
use crate::stats::NetStats;
use crate::tamper::{Fate, Tamper};
use crate::Time;

/// Capacity of each actor's inbox.
const INBOX_CAPACITY: usize = 4096;
/// Retry delay for a delivery whose destination inbox was full.
const RETRY: Duration = Duration::from_millis(1);
/// Longest the delay wheel and the coordinator block before re-checking
/// their exit conditions.
const WHEEL_IDLE: Duration = Duration::from_millis(5);
/// Longest an idle actor blocks before re-checking its timers and the
/// shutdown flag.
const ACTOR_IDLE: Duration = Duration::from_millis(20);
/// Messages an actor drains between two timer firings.
const DRAIN_BATCH: usize = 64;

/// How a wall-clock substrate carries messages between processes.
pub trait Transport<M>: Send + 'static {
    /// Substrate name reported by [`Runtime::name`].
    fn name(&self) -> &'static str;

    /// The artificial delay range, in milliseconds, sampled for every
    /// send before the tamper's extra delay is added (`0..=0` for none).
    fn jitter_ms(&self) -> RangeInclusive<u64>;

    /// Opens the transport for one run. Inbound messages for the local
    /// actors go into `sink`; `shutdown` is raised when the run ends.
    fn open(&mut self, sink: Arc<Sink<M>>, shutdown: Arc<AtomicBool>) -> Arc<dyn Link<M>>;

    /// Registers a peer hosted outside this runtime (see
    /// [`Runtime::register_peer`]); `local` says whether `id` is one of
    /// this runtime's own actors.
    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr, local: bool);

    /// The address at which `id` is reached (see [`Runtime::addr_of`]);
    /// `local` says whether `id` is one of this runtime's own actors.
    fn addr_of(&self, id: ProcessId, local: bool) -> Option<PeerAddr>;
}

/// One run's open transport, shared by every sending thread and the delay
/// wheel.
pub trait Link<M>: Send + Sync {
    /// Carries one message that the gate has cleared. `Err` hands the
    /// message back when the destination cannot take it yet (a full
    /// inbox); the runtime retries it later.
    fn carry(&self, from: ProcessId, to: ProcessId, msg: M) -> Result<(), M>;

    /// Closes the transport once the actors and the delay wheel have
    /// stopped.
    fn close(&self) {}
}

/// The local actors' inboxes, counting every delivery.
///
/// A message counts as delivered the moment it enters its destination's
/// inbox — once per message, whichever transport carried it.
pub struct Sink<M> {
    inboxes: RwLock<HashMap<ProcessId, Sender<(ProcessId, M)>>>,
    delivered: AtomicU64,
    delivered_payload: AtomicU64,
}

impl<M: Labeled> Sink<M> {
    /// The local actors' IDs.
    pub fn ids(&self) -> Vec<ProcessId> {
        self.inboxes.read().keys().copied().collect()
    }

    /// Drops every inbox sender: later deliveries are discarded, and an
    /// idle actor sees its inbox disconnect and exits at once instead of
    /// at its next poll.
    fn close(&self) {
        self.inboxes.write().clear();
    }

    /// Delivers without blocking. A full inbox hands the message back;
    /// a message for an unknown or halted actor is discarded, as the
    /// simulator discards events for halted actors.
    pub fn try_deliver(&self, from: ProcessId, to: ProcessId, msg: M) -> Result<(), M> {
        let inboxes = self.inboxes.read();
        let Some(tx) = inboxes.get(&to) else {
            return Ok(());
        };
        let payload = msg.payload_units();
        match tx.try_send((from, msg)) {
            Ok(()) => {
                self.count(payload);
                Ok(())
            }
            Err(TrySendError::Full((_, msg))) => Err(msg),
            Err(TrySendError::Disconnected(_)) => Ok(()),
        }
    }

    /// Delivers, waiting while the destination inbox is full.
    pub fn deliver(&self, from: ProcessId, to: ProcessId, msg: M) {
        if let Some(tx) = self.inboxes.read().get(&to) {
            let payload = msg.payload_units();
            if tx.send((from, msg)).is_ok() {
                self.count(payload);
            }
        }
    }

    fn count(&self, payload: u64) {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.delivered_payload.fetch_add(payload, Ordering::Relaxed);
    }
}

/// The in-process link: a cleared message goes straight into its
/// destination's inbox.
impl<M: Labeled + Send> Link<M> for Sink<M> {
    fn carry(&self, from: ProcessId, to: ProcessId, msg: M) -> Result<(), M> {
        self.try_deliver(from, to, msg)
    }
}

/// Run bounds shared by both substrates' configurations.
pub(crate) struct Bounds {
    pub(crate) wall_timeout: Duration,
    pub(crate) stop: Option<Arc<AtomicBool>>,
    pub(crate) seed: u64,
}

/// The wall-clock [`Runtime`] over a transport: one actor thread per
/// actor, one coordinator, and one send path (the [`Preflight`] inline on
/// the sending thread, then [`NetStats`] accounting, the [`Tamper`]
/// disposition and the delay sample under one lock, then hand-off or the
/// delay wheel). Use it as [`crate::ThreadedRuntime`] (in-process
/// channels) or [`crate::SocketRuntime`] (framed TCP).
///
/// Lifecycle mirrors the trait contract: [`Runtime::add_actor`] before the
/// run, one [`Runtime::run_until_stopped`] (actors are consumed by their
/// threads and collected back at shutdown), then post-run inspection via
/// [`Runtime::actor_as`]. A second run request returns the recorded report
/// unchanged.
pub struct Realtime<M, T> {
    pub(crate) transport: T,
    bounds: Bounds,
    pending: Vec<Box<dyn Actor<M>>>,
    finished: BTreeMap<ProcessId, Box<dyn Actor<M>>>,
    stats: NetStats,
    last_report: Option<RuntimeReport>,
    elapsed: Duration,
    tamper: Option<Box<dyn Tamper<M>>>,
    preflight: Option<Arc<dyn Preflight<M>>>,
    recorder: Option<Arc<Recorder>>,
}

impl<M, T> Realtime<M, T> {
    pub(crate) fn with_transport(transport: T, bounds: Bounds) -> Self {
        Realtime {
            transport,
            bounds,
            pending: Vec::new(),
            finished: BTreeMap::new(),
            stats: NetStats::default(),
            last_report: None,
            elapsed: Duration::ZERO,
            tamper: None,
            preflight: None,
            recorder: None,
        }
    }

    fn assert_before_run(&self, what: &str) {
        assert!(
            self.last_report.is_none(),
            "{what} must happen before the run"
        );
    }

    /// Installs a message-interception layer (see [`crate::tamper`]),
    /// consulted on the sending thread under the send gate; `now` is
    /// elapsed milliseconds.
    pub fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        self.assert_before_run("installing a tamper");
        self.tamper = Some(tamper);
    }

    /// Installs a stateless pre-delivery stage (see [`crate::stage`]), run
    /// inline on the sending thread for every message it
    /// [`Preflight::wants`].
    pub fn set_preflight(&mut self, preflight: Arc<dyn Preflight<M>>) {
        self.assert_before_run("installing a preflight");
        self.preflight = Some(preflight);
    }

    /// Installs an observability recorder (see [`cupft_obs`]). The
    /// recorder stays in the **wall** clock domain: stage and router
    /// metrics are wall microseconds and raw depths, so the report is a
    /// profile, not a deterministic trace — use the simulator for
    /// byte-reproducible observation.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.assert_before_run("installing a recorder");
        self.recorder = Some(recorder);
    }

    /// Wall-clock duration of the completed run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Consumes the runtime, returning the actors in their final states.
    pub fn into_actors(self) -> BTreeMap<ProcessId, Box<dyn Actor<M>>> {
        self.finished
    }

    fn is_local(&self, id: ProcessId) -> bool {
        self.pending.iter().any(|a| a.id() == id) || self.finished.contains_key(&id)
    }
}

impl<M, T> Runtime<M> for Realtime<M, T>
where
    M: Send + Labeled + 'static,
    T: Transport<M>,
{
    fn name(&self) -> &'static str {
        self.transport.name()
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<M>>) {
        self.assert_before_run("registering an actor");
        let id = actor.id();
        assert!(
            self.pending.iter().all(|a| a.id() != id),
            "duplicate actor {id}"
        );
        assert!(
            self.transport.addr_of(id, false).is_none(),
            "actor {id} already registered as a remote peer"
        );
        self.pending.push(actor);
    }

    fn set_tamper(&mut self, tamper: Box<dyn Tamper<M>>) {
        Realtime::set_tamper(self, tamper);
    }

    fn set_preflight(&mut self, preflight: Arc<dyn Preflight<M>>) {
        Realtime::set_preflight(self, preflight);
    }

    fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        Realtime::set_recorder(self, recorder);
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr) {
        self.assert_before_run("registering a peer");
        let local = self.is_local(id);
        self.transport.register_peer(id, addr, local);
    }

    fn addr_of(&self, id: ProcessId) -> Option<PeerAddr> {
        self.transport.addr_of(id, self.is_local(id))
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        // Already ran: report the recorded outcome unchanged.
        if let Some(report) = &self.last_report {
            return report.clone();
        }
        let actors = std::mem::take(&mut self.pending);
        let run = run(
            actors,
            &mut self.transport,
            &self.bounds,
            stop,
            self.tamper.take(),
            self.preflight.take(),
            self.recorder.clone(),
        );
        self.finished
            .extend(run.actors.into_iter().map(|a| (a.id(), a)));
        self.stats = run.stats;
        self.elapsed = run.elapsed;
        let report = RuntimeReport {
            all_halted: run.all_halted,
            stopped: run.stopped,
            end_time: run.elapsed.as_millis() as Time,
            events: self.stats.messages_delivered,
            stats: self.stats.clone(),
            obs: self.recorder.as_ref().map(|rec| rec.snapshot()),
        };
        self.last_report = Some(report.clone());
        report
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn actor_ids(&self) -> Vec<ProcessId> {
        let mut ids: Vec<ProcessId> = self.finished.keys().copied().collect();
        ids.extend(self.pending.iter().map(|a| a.id()));
        ids.sort_unstable();
        ids
    }

    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<M>> {
        self.finished.get(&id).map(|b| b.as_ref())
    }
}

/// Send-side shared state under one lock, so a send's accounting, its
/// tamper disposition and its delay sample are atomic and the tamper keeps
/// single-`&mut` semantics across all sending threads.
struct Gate<M> {
    tamper: Option<Box<dyn Tamper<M>>>,
    stats: NetStats,
    rng: StdRng,
}

/// A cleared message waiting for its due time.
struct Pending<M> {
    due: Instant,
    from: ProcessId,
    to: ProcessId,
    msg: M,
}

/// A delay-wheel entry; `seq` keeps equal due times in arrival order.
struct Queued<M> {
    seq: u64,
    pending: Pending<M>,
}

impl<M> PartialEq for Queued<M> {
    fn eq(&self, other: &Self) -> bool {
        self.pending.due == other.pending.due && self.seq == other.seq
    }
}
impl<M> Eq for Queued<M> {}
impl<M> PartialOrd for Queued<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Queued<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed: BinaryHeap is a max-heap, we want earliest due first
        (other.pending.due, other.seq).cmp(&(self.pending.due, self.seq))
    }
}

/// Everything the send path needs, shared by every actor thread.
struct Plane<M> {
    link: Arc<dyn Link<M>>,
    gate: Mutex<Gate<M>>,
    jitter_ms: RangeInclusive<u64>,
    wheel: Sender<Pending<M>>,
    halts: Sender<ProcessId>,
    preflight: Option<Arc<dyn Preflight<M>>>,
    recorder: Option<Arc<Recorder>>,
    start: Instant,
}

impl<M: Labeled> Plane<M> {
    /// The send path (see the [module docs](self)).
    fn send(&self, from: ProcessId, to: ProcessId, msg: M) {
        if let Some(stage) = &self.preflight {
            if stage.wants(&msg) {
                self.run_preflight(stage.as_ref(), from, to, &msg);
            }
        }
        let label = msg.label();
        let payload = msg.payload_units();
        let delay_ms = {
            let mut guard = self.gate.lock();
            let gate = &mut *guard;
            gate.stats.record_send(label, payload);
            let extra =
                match gate.tamper.as_mut().map(|t| {
                    t.disposition(from, to, label, self.start.elapsed().as_millis() as Time)
                }) {
                    None | Some(Fate::Deliver) => 0,
                    Some(Fate::Delay(ms)) => ms,
                    Some(Fate::Drop) => {
                        gate.stats.record_drop(payload);
                        return;
                    }
                };
            gate.rng.random_range(self.jitter_ms.clone()) + extra
        };
        if delay_ms == 0 {
            if let Err(msg) = self.link.carry(from, to, msg) {
                self.schedule(RETRY, from, to, msg);
            }
        } else {
            self.schedule(Duration::from_millis(delay_ms), from, to, msg);
        }
    }

    fn schedule(&self, delay: Duration, from: ProcessId, to: ProcessId, msg: M) {
        let _ = self.wheel.send(Pending {
            due: Instant::now() + delay,
            from,
            to,
            msg,
        });
    }

    /// Runs the preflight once, recording the stage histograms (wall
    /// microseconds) when a recorder is installed. The stage runs inline,
    /// so its queue wait is zero by construction.
    fn run_preflight(&self, stage: &dyn Preflight<M>, from: ProcessId, to: ProcessId, msg: &M) {
        match &self.recorder {
            Some(rec) => {
                rec.hist_record("stage_queue_wait_us", 0);
                let served = Instant::now();
                stage.preflight(from, to, msg);
                rec.hist_record("stage_service_us", served.elapsed().as_micros() as u64);
                rec.counter_add("stage_bundles", 1);
            }
            None => stage.preflight(from, to, msg),
        }
    }
}

/// Delay-wheel observability, merged into the run's [`Recorder`] after
/// the wheel exits.
#[derive(Default)]
struct RouterObs {
    /// Wheel channel depth, sampled once per loop iteration.
    inbox_depth: Histogram,
    /// Delay-wheel (pending heap) size, sampled once per loop iteration.
    wheel_depth: Histogram,
    /// Deliveries re-queued because the destination inbox was full.
    deferrals: u64,
}

impl RouterObs {
    fn merge_into(&self, recorder: &Recorder) {
        recorder.merge_hist("router_inbox_depth", &self.inbox_depth);
        recorder.merge_hist("router_wheel_depth", &self.wheel_depth);
        recorder.counter_add("router_deferrals", self.deferrals);
    }
}

/// The delay wheel: holds cleared messages until due, then hands them to
/// the link. A full destination inbox defers the delivery — re-queued
/// strictly later than `now`, so the pass terminates; the wall deadline
/// bounds total retrying. Pending messages are discarded at shutdown.
fn wheel_loop<M>(
    rx: Receiver<Pending<M>>,
    link: Arc<dyn Link<M>>,
    shutdown: Arc<AtomicBool>,
    observe: bool,
) -> RouterObs {
    let mut heap: BinaryHeap<Queued<M>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut obs = RouterObs::default();
    while !shutdown.load(Ordering::SeqCst) {
        let now = Instant::now();
        if observe {
            obs.inbox_depth.record(rx.len() as u64);
            obs.wheel_depth.record(heap.len() as u64);
        }
        while heap.peek().is_some_and(|q| q.pending.due <= now) {
            let Pending { from, to, msg, .. } = heap.pop().expect("peeked").pending;
            if let Err(msg) = link.carry(from, to, msg) {
                obs.deferrals += 1;
                seq += 1;
                heap.push(Queued {
                    seq,
                    pending: Pending {
                        due: now + RETRY,
                        from,
                        to,
                        msg,
                    },
                });
            }
        }
        let wait = heap
            .peek()
            .map_or(WHEEL_IDLE, |q| q.pending.due.saturating_duration_since(now))
            .min(WHEEL_IDLE);
        match rx.recv_timeout(wait) {
            Ok(pending) => {
                seq += 1;
                heap.push(Queued { seq, pending });
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    obs
}

struct Run<M> {
    actors: Vec<Box<dyn Actor<M>>>,
    stats: NetStats,
    all_halted: bool,
    stopped: bool,
    elapsed: Duration,
}

/// Spawns the actor threads and the delay wheel over an opened transport,
/// coordinates until every local actor halts, `stop` (or the configured
/// stop flag) fires, or the wall deadline passes, then shuts down in
/// order: actors (no new sends), the wheel, the transport.
fn run<M, T>(
    actors: Vec<Box<dyn Actor<M>>>,
    transport: &mut T,
    bounds: &Bounds,
    stop: &mut dyn FnMut() -> bool,
    tamper: Option<Box<dyn Tamper<M>>>,
    preflight: Option<Arc<dyn Preflight<M>>>,
    recorder: Option<Arc<Recorder>>,
) -> Run<M>
where
    M: Send + Labeled + 'static,
    T: Transport<M>,
{
    let start = Instant::now();
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut inboxes = HashMap::new();
    let mut actor_rxs = Vec::with_capacity(actors.len());
    for actor in &actors {
        let (tx, rx) = bounded::<(ProcessId, M)>(INBOX_CAPACITY);
        inboxes.insert(actor.id(), tx);
        actor_rxs.push(rx);
    }
    let sink = Arc::new(Sink {
        inboxes: RwLock::new(inboxes),
        delivered: AtomicU64::new(0),
        delivered_payload: AtomicU64::new(0),
    });
    let link = transport.open(sink.clone(), shutdown.clone());
    let (wheel_tx, wheel_rx) = unbounded::<Pending<M>>();
    let (halt_tx, halt_rx) = unbounded::<ProcessId>();
    let wheel = {
        let link = link.clone();
        let shutdown = shutdown.clone();
        let observe = recorder.is_some();
        thread::spawn(move || wheel_loop(wheel_rx, link, shutdown, observe))
    };
    let plane = Arc::new(Plane {
        link: link.clone(),
        gate: Mutex::new(Gate {
            tamper,
            stats: NetStats::default(),
            rng: StdRng::seed_from_u64(bounds.seed),
        }),
        jitter_ms: transport.jitter_ms(),
        wheel: wheel_tx,
        halts: halt_tx,
        preflight,
        recorder: recorder.clone(),
        start,
    });

    let ids: Vec<ProcessId> = actors.iter().map(|a| a.id()).collect();
    let handles: Vec<_> = actors
        .into_iter()
        .zip(actor_rxs)
        .map(|(actor, rx)| {
            let plane = plane.clone();
            let shutdown = shutdown.clone();
            thread::spawn(move || actor_loop(actor, rx, &plane, &shutdown))
        })
        .collect();

    // Coordinator. Zero local actors is not "all halted": a runtime that
    // only hosts the network side of a distributed run ends on its stop
    // condition or deadline, never immediately.
    let mut halted = BTreeSet::new();
    let deadline = start + bounds.wall_timeout;
    let mut stopped = false;
    loop {
        if !ids.is_empty() && halted.len() == ids.len() {
            break;
        }
        if stop()
            || bounds
                .stop
                .as_ref()
                .is_some_and(|s| s.load(Ordering::SeqCst))
        {
            stopped = true;
            break;
        }
        if Instant::now() >= deadline {
            break;
        }
        if let Ok(id) = halt_rx.recv_timeout(WHEEL_IDLE) {
            halted.insert(id);
        }
    }
    let all_halted = !ids.is_empty() && halted.len() == ids.len();

    shutdown.store(true, Ordering::SeqCst);
    sink.close();
    let mut timers_fired = 0;
    let mut finished = Vec::with_capacity(handles.len());
    for handle in handles {
        let (actor, fired) = handle.join().expect("actor thread panicked");
        timers_fired += fired;
        finished.push(actor);
    }
    let obs = wheel.join().expect("delay wheel panicked");
    link.close();

    // Every send was accounted on its sending thread before that actor
    // halted or stopped, so the gate's counters are final here.
    let mut stats = std::mem::take(&mut plane.gate.lock().stats);
    stats.messages_delivered = sink.delivered.load(Ordering::Relaxed);
    stats.payload_delivered_units = sink.delivered_payload.load(Ordering::Relaxed);
    stats.timers_fired = timers_fired;
    if let Some(rec) = &recorder {
        obs.merge_into(rec);
    }
    Run {
        actors: finished,
        stats,
        all_halted,
        stopped,
        elapsed: start.elapsed(),
    }
}

type Timers = BinaryHeap<(Reverse<Time>, TimerKind)>;

/// One actor's thread: fire due timers, drain messages, report the halt.
/// Returns the actor and the number of timers it fired.
fn actor_loop<M: Labeled>(
    mut actor: Box<dyn Actor<M>>,
    inbox: Receiver<(ProcessId, M)>,
    plane: &Plane<M>,
    shutdown: &AtomicBool,
) -> (Box<dyn Actor<M>>, u64) {
    let id = actor.id();
    let now_ms = || plane.start.elapsed().as_millis() as Time;
    let mut timers = Timers::new();
    let mut fired = 0u64;

    let mut ctx = Context::new(now_ms(), id);
    actor.on_start(&mut ctx);
    let mut halted = apply(&mut timers, plane, id, ctx);

    while !halted && !shutdown.load(Ordering::SeqCst) {
        let now = now_ms();
        let mut any_fired = false;
        while !halted && timers.peek().is_some_and(|&(Reverse(at), _)| at <= now) {
            let (_, kind) = timers.pop().expect("peeked");
            let mut ctx = Context::new(now, id);
            actor.on_timer(kind, &mut ctx);
            halted = apply(&mut timers, plane, id, ctx);
            fired += 1;
            any_fired = true;
        }
        if halted {
            break;
        }
        if any_fired {
            // Fairness: an actor whose per-tick work exceeds its own timer
            // period would otherwise loop on due timers forever and never
            // drain its inbox — sends keep flowing out while every reply
            // rots undelivered. Drain a bounded batch of queued messages
            // between firings so neither timers nor messages can starve
            // the other.
            for _ in 0..DRAIN_BATCH {
                let Ok((from, msg)) = inbox.try_recv() else {
                    break;
                };
                let mut ctx = Context::new(now_ms(), id);
                actor.on_message(from, msg, &mut ctx);
                halted = apply(&mut timers, plane, id, ctx);
                if halted {
                    break;
                }
            }
            continue;
        }
        let wait = timers
            .peek()
            .map_or(ACTOR_IDLE, |&(Reverse(at), _)| {
                Duration::from_millis(at.saturating_sub(now))
            })
            .min(ACTOR_IDLE);
        match inbox.recv_timeout(wait) {
            Ok((from, msg)) => {
                let mut ctx = Context::new(now_ms(), id);
                actor.on_message(from, msg, &mut ctx);
                halted = apply(&mut timers, plane, id, ctx);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    if halted {
        // Every send this actor emitted was accounted before this point.
        let _ = plane.halts.send(id);
    }
    (actor, fired)
}

/// Applies buffered context effects; returns whether the actor halted.
fn apply<M: Labeled>(
    timers: &mut Timers,
    plane: &Plane<M>,
    id: ProcessId,
    ctx: Context<M>,
) -> bool {
    let now = ctx.now();
    let (sends, new_timers, halted) = ctx.into_effects();
    for (to, msg) in sends {
        plane.send(id, to, msg);
    }
    for (kind, delay) in new_timers {
        timers.push((Reverse(now + delay), kind));
    }
    halted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{ThreadedConfig, ThreadedRuntime};

    #[derive(Clone)]
    struct Ping;
    impl Labeled for Ping {
        fn label(&self) -> &'static str {
            "PING"
        }
    }

    const PINGS: u32 = 200;

    /// Sends `PINGS` messages at start, then idles.
    struct Pinger {
        id: ProcessId,
        to: ProcessId,
    }
    impl Actor<Ping> for Pinger {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            for _ in 0..PINGS {
                ctx.send(self.to, Ping);
            }
            ctx.halt();
        }
        fn on_message(&mut self, _: ProcessId, _: Ping, _: &mut Context<Ping>) {}
    }

    /// Re-arms a 1 ms timer whose handler takes 3 ms: its timers are
    /// always overdue. Halts once every ping has arrived.
    struct Busy {
        id: ProcessId,
        got: u32,
    }
    impl Actor<Ping> for Busy {
        fn id(&self) -> ProcessId {
            self.id
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn on_start(&mut self, ctx: &mut Context<Ping>) {
            ctx.set_timer(1, 1);
        }
        fn on_message(&mut self, _: ProcessId, _: Ping, ctx: &mut Context<Ping>) {
            self.got += 1;
            if self.got == PINGS {
                ctx.halt();
            }
        }
        fn on_timer(&mut self, _: TimerKind, ctx: &mut Context<Ping>) {
            thread::sleep(Duration::from_millis(3));
            ctx.set_timer(1, 1);
        }
    }

    #[test]
    fn overdue_timers_do_not_starve_the_inbox() {
        let mut rt: ThreadedRuntime<Ping> = ThreadedRuntime::new(ThreadedConfig {
            wall_timeout: Duration::from_secs(20),
            ..ThreadedConfig::default()
        });
        rt.add_actor(Box::new(Pinger {
            id: ProcessId::new(1),
            to: ProcessId::new(2),
        }));
        rt.add_actor(Box::new(Busy {
            id: ProcessId::new(2),
            got: 0,
        }));
        let report = rt.run_to_completion();
        assert!(report.all_halted, "{report:?}");
        let busy: &Busy = rt.actor_as(ProcessId::new(2)).expect("inspectable");
        assert_eq!(busy.got, PINGS);
        assert!(report.stats.timers_fired > 0);
    }
}

//! Measurement from outside the program: a [`Runtime`] adapter that goes
//! around any substrate and is handed to the public
//! [`cupft_core::run_scenario_on`].
//!
//! Untraced, the adapter only timestamps: the first actor registration
//! (the end of `SystemSetup`), and the entry to and exit from
//! `run_until_stopped`. Traced, it also wraps every actor and the
//! verification [`Preflight`] so each call into a layer is timed and
//! counted by the layer it enters. The wrappers delegate `as_any`, so the
//! scenario runner still reads the concrete `Node`s back out, and they
//! never change what the wrapped code sees or sends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cupft_committee::view_of_timer;
use cupft_core::{Node, NodeMsg};
use cupft_discovery::DISCOVERY_TICK;
use cupft_graph::ProcessId;
use cupft_net::{Actor, Context, NetStats, PeerAddr, Preflight, Runtime, RuntimeReport, Tamper};
use cupft_wire::frame::{frame, unframe};
use cupft_wire::{Decode, Encode, Reader};

use crate::measure::cpu_seconds;

/// The layer a timed call enters. Every call into an actor lands in
/// exactly one span, so on the single-threaded simulator the spans plus
/// the event loop's own time add up to the run's wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// A discovery message (`GETPDS` / `SETPDS`) handled by Algorithm 1.
    Discovery,
    /// A discovery tick (or the start event) while the node has no
    /// detection: the gossip round plus the sink/core detector.
    DetectorTick,
    /// A committee message or a committee view timer.
    Committee,
    /// Learning and everything else a node does outside the layers above:
    /// `GETDECIDEDVAL` / `DECIDEDVAL`, and discovery ticks after detection.
    Learning,
    /// The shadow encode of a delivered message through the wire codec.
    WireEncode,
    /// The shadow decode of that frame.
    WireDecode,
}

impl Span {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        self as usize
    }
}

/// Busy time and call count per [`Span`] for one actor.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    ns: [u64; Span::COUNT],
    calls: [u64; Span::COUNT],
    /// Framed bytes the shadow codec produced.
    pub wire_bytes: u64,
    /// Committee view-timer firings seen.
    pub timeout_calls: u64,
}

impl SpanTotals {
    fn add(&mut self, span: Span, started: Instant, ended: Instant) {
        self.ns[span.index()] += (ended - started).as_nanos() as u64;
        self.calls[span.index()] += 1;
    }

    fn merge(&mut self, other: &SpanTotals) {
        for i in 0..Span::COUNT {
            self.ns[i] += other.ns[i];
            self.calls[i] += other.calls[i];
        }
        self.wire_bytes += other.wire_bytes;
        self.timeout_calls += other.timeout_calls;
    }

    /// Seconds spent in `span`.
    pub fn seconds(&self, span: Span) -> f64 {
        self.ns[span.index()] as f64 / 1e9
    }

    /// Calls that entered `span`.
    pub fn calls(&self, span: Span) -> u64 {
        self.calls[span.index()]
    }

    /// Seconds spent in all spans together.
    pub fn total_seconds(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 / 1e9
    }
}

/// An actor wrapper that times each call by the layer it enters.
struct TimedActor {
    inner: Box<dyn Actor<NodeMsg>>,
    totals: Arc<Mutex<SpanTotals>>,
    shadow_codec: bool,
}

impl TimedActor {
    /// Whether the wrapped actor is a protocol node still without a
    /// detection (its discovery ticks then run the detector).
    fn detecting(&self) -> bool {
        self.inner
            .as_any()
            .downcast_ref::<Node>()
            .is_some_and(|node| node.detection().is_none())
    }

    fn record(&self, span: Span, started: Instant) {
        let ended = Instant::now();
        self.totals
            .lock()
            .expect("span totals are only updated by their actor")
            .add(span, started, ended);
    }

    /// Encodes and decodes `msg` the way the socket runtime frames it,
    /// timing both halves. Only the timing and the byte count are kept:
    /// the actor still receives the original message.
    fn shadow_codec(&self, from: ProcessId, msg: &NodeMsg) {
        let started = Instant::now();
        let mut payload = Vec::new();
        from.encode(&mut payload);
        self.inner.id().encode(&mut payload);
        msg.encode(&mut payload);
        let bytes = frame(&payload);
        let encoded = Instant::now();
        let decoded = decode_frame(&bytes);
        let ended = Instant::now();
        std::hint::black_box(decoded);
        let mut totals = self
            .totals
            .lock()
            .expect("span totals are only updated by their actor");
        totals.add(Span::WireEncode, started, encoded);
        totals.add(Span::WireDecode, encoded, ended);
        totals.wire_bytes += bytes.len() as u64;
    }
}

/// Decodes one socket-runtime frame back into `(from, to, msg)`.
fn decode_frame(bytes: &[u8]) -> (ProcessId, ProcessId, NodeMsg) {
    let payload = unframe(bytes).expect("a frame the codec just produced is well formed");
    let mut r = Reader::new(payload);
    let from = ProcessId::decode(&mut r).expect("sender decodes");
    let to = ProcessId::decode(&mut r).expect("receiver decodes");
    let msg = NodeMsg::decode(&mut r).expect("message decodes");
    r.finish().expect("no trailing bytes");
    (from, to, msg)
}

impl Actor<NodeMsg> for TimedActor {
    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn on_start(&mut self, ctx: &mut Context<NodeMsg>) {
        // Starting runs the opening gossip round and the first detector
        // attempt: the same work as an undetected discovery tick.
        let started = Instant::now();
        self.inner.on_start(ctx);
        self.record(Span::DetectorTick, started);
    }

    fn on_message(&mut self, from: ProcessId, msg: NodeMsg, ctx: &mut Context<NodeMsg>) {
        if self.shadow_codec {
            self.shadow_codec(from, &msg);
        }
        let span = match &msg {
            NodeMsg::Discovery(_) => Span::Discovery,
            NodeMsg::Committee(_) => Span::Committee,
            NodeMsg::GetDecidedVal | NodeMsg::DecidedVal(_) => Span::Learning,
        };
        let started = Instant::now();
        self.inner.on_message(from, msg, ctx);
        self.record(span, started);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Context<NodeMsg>) {
        let span = if timer == DISCOVERY_TICK {
            if self.detecting() {
                Span::DetectorTick
            } else {
                Span::Learning
            }
        } else if view_of_timer(timer).is_some() {
            self.totals
                .lock()
                .expect("span totals are only updated by their actor")
                .timeout_calls += 1;
            Span::Committee
        } else {
            Span::Learning
        };
        let started = Instant::now();
        self.inner.on_timer(timer, ctx);
        self.record(span, started);
    }
}

/// Busy time and call count of the certificate-verification stage.
#[derive(Debug, Default)]
pub struct VerifyTotals {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl VerifyTotals {
    /// Seconds spent in the stage.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Stage calls on messages the stage wants (discovery traffic).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A [`Preflight`] wrapper that times the installed verification stage.
struct TimedPreflight {
    inner: Arc<dyn Preflight<NodeMsg>>,
    totals: Arc<VerifyTotals>,
}

impl Preflight<NodeMsg> for TimedPreflight {
    fn preflight(&self, from: ProcessId, to: ProcessId, msg: &NodeMsg) {
        let started = Instant::now();
        self.inner.preflight(from, to, msg);
        let ns = started.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        self.totals.ns.fetch_add(ns, Ordering::Relaxed);
        if self.inner.wants(msg) {
            self.totals.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn wants(&self, msg: &NodeMsg) -> bool {
        self.inner.wants(msg)
    }
}

/// What a traced run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Timestamps only.
    Off,
    /// Per-layer spans around every actor call and the verify stage.
    Spans,
    /// Spans plus a shadow encode/decode of every delivered message.
    SpansAndCodec,
}

/// The timestamps and totals one run left behind.
#[derive(Debug, Clone)]
pub struct Stamps {
    /// When the first actor was registered (`SystemSetup` is done).
    pub first_actor: Option<Instant>,
    /// When `run_until_stopped` was entered.
    pub run_start: Option<Instant>,
    /// When it returned.
    pub run_end: Option<Instant>,
    /// Process CPU seconds spent inside `run_until_stopped`.
    pub run_cpu_s: f64,
    /// The runtime's own report of the run.
    pub report: Option<RuntimeReport>,
}

/// The pass-through [`Runtime`] adapter. See the module docs.
pub struct Traced<R> {
    inner: R,
    tracing: Tracing,
    actors: Vec<Arc<Mutex<SpanTotals>>>,
    verify: Arc<VerifyTotals>,
    stamps: Stamps,
}

impl<R: Runtime<NodeMsg>> Traced<R> {
    /// Wraps `inner`.
    pub fn new(inner: R, tracing: Tracing) -> Self {
        Traced {
            inner,
            tracing,
            actors: Vec::new(),
            verify: Arc::new(VerifyTotals::default()),
            stamps: Stamps {
                first_actor: None,
                run_start: None,
                run_end: None,
                run_cpu_s: 0.0,
                report: None,
            },
        }
    }

    /// The wrapped runtime (for post-run inspection).
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Timestamps of the run.
    pub fn stamps(&self) -> &Stamps {
        &self.stamps
    }

    /// Span totals summed over all actors.
    pub fn span_totals(&self) -> SpanTotals {
        let mut sum = SpanTotals::default();
        for totals in &self.actors {
            sum.merge(&totals.lock().expect("run has ended"));
        }
        sum
    }

    /// Totals of the verification stage.
    pub fn verify_totals(&self) -> &VerifyTotals {
        &self.verify
    }
}

impl<R: Runtime<NodeMsg>> Runtime<NodeMsg> for Traced<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn add_actor(&mut self, actor: Box<dyn Actor<NodeMsg>>) {
        self.stamps.first_actor.get_or_insert_with(Instant::now);
        if self.tracing == Tracing::Off {
            self.inner.add_actor(actor);
            return;
        }
        let totals = Arc::new(Mutex::new(SpanTotals::default()));
        self.actors.push(totals.clone());
        self.inner.add_actor(Box::new(TimedActor {
            inner: actor,
            totals,
            shadow_codec: self.tracing == Tracing::SpansAndCodec,
        }));
    }

    fn set_tamper(&mut self, tamper: Box<dyn Tamper<NodeMsg>>) {
        self.inner.set_tamper(tamper);
    }

    fn set_preflight(&mut self, preflight: Arc<dyn Preflight<NodeMsg>>) {
        if self.tracing == Tracing::Off {
            self.inner.set_preflight(preflight);
        } else {
            self.inner.set_preflight(Arc::new(TimedPreflight {
                inner: preflight,
                totals: self.verify.clone(),
            }));
        }
    }

    fn set_recorder(&mut self, recorder: Arc<cupft_obs::Recorder>) {
        self.inner.set_recorder(recorder);
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr) {
        self.inner.register_peer(id, addr);
    }

    fn addr_of(&self, id: ProcessId) -> Option<PeerAddr> {
        self.inner.addr_of(id)
    }

    fn run_until_stopped(&mut self, stop: &mut dyn FnMut() -> bool) -> RuntimeReport {
        let cpu = cpu_seconds();
        self.stamps.run_start = Some(Instant::now());
        let report = self.inner.run_until_stopped(stop);
        self.stamps.run_end = Some(Instant::now());
        self.stamps.run_cpu_s = cpu_seconds() - cpu;
        self.stamps.report = Some(report.clone());
        report
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn actor_ids(&self) -> Vec<ProcessId> {
        self.inner.actor_ids()
    }

    fn actor_dyn(&self, id: ProcessId) -> Option<&dyn Actor<NodeMsg>> {
        self.inner.actor_dyn(id)
    }
}

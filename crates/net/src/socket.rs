//! Real-socket runtime: the same actors over loopback (or LAN) TCP.
//!
//! [`SocketRuntime`] is the shared wall-clock runtime (`realtime.rs`)
//! over a TCP transport speaking the versioned wire format of
//! [`cupft_wire`]: every send — including sends between two actors hosted
//! by the *same* runtime — is encoded, framed ([`cupft_wire::frame`]),
//! written to a socket, read back, and decoded before delivery. A
//! single-process socket run therefore exercises the full codec path end
//! to end, and a multi-process run (one runtime per OS process, peers
//! registered via [`crate::Runtime::register_peer`] with [`PeerAddr::Tcp`]
//! addresses) is a real distributed deployment of the protocol stack.
//!
//! # Topology
//!
//! Each runtime owns one [`TcpListener`], bound at construction so the
//! address can be published *before* the run starts (the multi-process
//! driver collects every node's address, then distributes the complete
//! peer book). Outbound traffic runs through a per-destination-address
//! connection pool: one writer thread per remote address, owning the
//! `TcpStream` and reconnecting with bounded retries on failure. Inbound
//! traffic runs through an accept loop spawning one reader thread per
//! connection; readers decode `from ‖ to ‖ msg` frames and deliver into
//! the destination actor's inbox.
//!
//! The transport adds no artificial delay — real TCP latency is the
//! network. The shared send path runs the preflight, the tamper and the
//! accounting on the sending actor's thread; a `Fate::Delay` holds the
//! message on the runtime's delay wheel before it is framed and written.

use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, Sender};
use cupft_graph::ProcessId;
use cupft_wire::frame::{frame, read_frame};
use cupft_wire::{Decode, Encode, Reader};
use parking_lot::Mutex;

use crate::actor::Labeled;
use crate::realtime::{Bounds, Link, Realtime, Sink, Transport};
use crate::runtime::PeerAddr;

/// Reconnect attempts a writer makes per frame before giving the frame up
/// (connections are retried afresh for the next frame).
const CONNECT_RETRIES: u32 = 20;
/// Base backoff between reconnect attempts (scaled linearly by the
/// attempt number).
const RETRY_BACKOFF: Duration = Duration::from_millis(10);

/// Configuration for the socket runtime.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// Address the runtime's listener binds to. Port 0 (the default,
    /// `127.0.0.1:0`) asks the OS for an ephemeral port; read the actual
    /// address back with [`SocketRuntime::local_addr`].
    pub bind: SocketAddr,
    /// Wall-clock budget for the run.
    pub wall_timeout: Duration,
    /// External stop signal, same contract as
    /// [`crate::ThreadedConfig::stop`].
    pub stop: Option<Arc<AtomicBool>>,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            bind: SocketAddr::from(([127, 0, 0, 1], 0)),
            wall_timeout: Duration::from_secs(10),
            stop: None,
        }
    }
}

/// Per-destination-address writer pool. One writer thread per remote
/// address owns the `TcpStream`, writes pre-framed bytes, and reconnects
/// with bounded linear backoff when a write fails.
struct ConnPool {
    conns: Mutex<HashMap<SocketAddr, Sender<Vec<u8>>>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
}

impl ConnPool {
    fn new(shutdown: Arc<AtomicBool>) -> Self {
        ConnPool {
            conns: Mutex::new(HashMap::new()),
            handles: Mutex::new(Vec::new()),
            shutdown,
        }
    }

    /// Enqueues a pre-framed message for `addr`, spawning the writer on
    /// first use.
    fn send_to(&self, addr: SocketAddr, bytes: Vec<u8>) {
        let tx = {
            let mut conns = self.conns.lock();
            match conns.get(&addr) {
                Some(tx) => tx.clone(),
                None => {
                    let (tx, rx) = unbounded::<Vec<u8>>();
                    let shutdown = self.shutdown.clone();
                    self.handles
                        .lock()
                        .push(thread::spawn(move || writer_loop(addr, rx, shutdown)));
                    conns.insert(addr, tx.clone());
                    tx
                }
            }
        };
        let _ = tx.send(bytes);
    }

    /// Closes every connection: drops the writer senders (each writer
    /// drains its queue, then exits and closes its stream) and joins the
    /// writer threads.
    fn close(&self) {
        self.conns.lock().clear();
        let handles = std::mem::take(&mut *self.handles.lock());
        for handle in handles {
            handle.join().expect("socket writer panicked");
        }
    }
}

/// One writer thread's loop: write each queued frame, reconnecting with
/// bounded linear backoff on failure. A frame whose retries are exhausted
/// is discarded — the wall timeout bounds how long a run can spend
/// retrying, and messages still in flight at shutdown are discarded
/// anyway. Exits (flushing the queue) when the pool drops its sender.
fn writer_loop(addr: SocketAddr, rx: Receiver<Vec<u8>>, shutdown: Arc<AtomicBool>) {
    let mut stream: Option<TcpStream> = None;
    while let Ok(bytes) = rx.recv() {
        let mut attempt = 0u32;
        loop {
            if stream.is_none() {
                if let Ok(s) = TcpStream::connect(addr) {
                    let _ = s.set_nodelay(true);
                    stream = Some(s);
                }
            }
            if let Some(s) = stream.as_mut() {
                if s.write_all(&bytes).is_ok() {
                    break;
                }
                stream = None;
            }
            if attempt >= CONNECT_RETRIES || shutdown.load(Ordering::SeqCst) {
                break;
            }
            attempt += 1;
            thread::sleep(RETRY_BACKOFF * attempt);
        }
    }
    if let Some(s) = stream {
        let _ = s.shutdown(Shutdown::Both);
    }
}

/// Receive-side dispatch: decodes a frame's `from ‖ to ‖ msg` payload and
/// delivers it into the destination inbox. `Err` on a malformed payload
/// drops the connection — a peer that desyncs the stream cannot be
/// resynchronized.
fn dispatch<M: Labeled + Decode>(
    sink: &Sink<M>,
    payload: &[u8],
) -> Result<(), cupft_wire::WireError> {
    let mut r = Reader::new(payload);
    let from = ProcessId::decode(&mut r)?;
    let to = ProcessId::decode(&mut r)?;
    let msg = M::decode(&mut r)?;
    r.finish()?;
    sink.deliver(from, to, msg);
    Ok(())
}

/// One reader thread's loop: framed reads until clean EOF, a stream
/// error, or a malformed frame.
fn reader_loop<M: Labeled + Decode>(stream: TcpStream, sink: Arc<Sink<M>>) {
    let mut reader = BufReader::new(stream);
    while let Ok(Some(payload)) = read_frame(&mut reader) {
        if dispatch(&sink, &payload).is_err() {
            break;
        }
    }
}

/// The accept loop: polls the (nonblocking) listener, spawning a reader
/// thread per inbound connection; keeps a clone of every accepted stream
/// so shutdown can force-close them and join the readers even if a peer
/// never closes its end.
fn accept_loop<M: Labeled + Decode + Send + 'static>(
    listener: TcpListener,
    sink: Arc<Sink<M>>,
    shutdown: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
) -> Vec<thread::JoinHandle<()>> {
    let mut readers = Vec::new();
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).expect("stream blocking");
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    accepted.lock().push(clone);
                }
                let sink = sink.clone();
                readers.push(thread::spawn(move || reader_loop(stream, sink)));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    readers
}

/// The TCP transport: the runtime's listener plus the book of peers
/// hosted by other runtimes.
#[derive(Debug)]
pub struct Tcp {
    listener: TcpListener,
    local_addr: SocketAddr,
    book: HashMap<ProcessId, SocketAddr>,
}

/// One run's open TCP transport: routes, writers, and the accept side.
struct TcpLink {
    routes: HashMap<ProcessId, SocketAddr>,
    pool: ConnPool,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    accept: Mutex<Option<thread::JoinHandle<Vec<thread::JoinHandle<()>>>>>,
}

impl<M: Encode> Link<M> for TcpLink {
    fn carry(&self, from: ProcessId, to: ProcessId, msg: M) -> Result<(), M> {
        // Sends to processes the route table does not know go nowhere —
        // the socket analogue of the simulator discarding events for
        // unknown actors.
        if let Some(&addr) = self.routes.get(&to) {
            let mut inner = Vec::new();
            from.encode(&mut inner);
            to.encode(&mut inner);
            msg.encode(&mut inner);
            self.pool.send_to(addr, frame(&inner));
        }
        Ok(())
    }

    /// Closes outbound connections, then force-closes accepted streams so
    /// readers unblock even if a remote never closes its end, and joins
    /// every thread.
    fn close(&self) {
        self.pool.close();
        for stream in self.accepted.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(accept) = self.accept.lock().take() {
            for reader in accept.join().expect("accept loop panicked") {
                reader.join().expect("socket reader panicked");
            }
        }
    }
}

impl<M: Labeled + Encode + Decode + Send + 'static> Transport<M> for Tcp {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn jitter_ms(&self) -> RangeInclusive<u64> {
        0..=0
    }

    /// Routes local actors through our own listener (every send rides
    /// TCP, so the codec is always exercised) and remote peers through
    /// the registered book.
    fn open(&mut self, sink: Arc<Sink<M>>, shutdown: Arc<AtomicBool>) -> Arc<dyn Link<M>> {
        let mut routes = self.book.clone();
        routes.extend(sink.ids().into_iter().map(|id| (id, self.local_addr)));
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let listener = self.listener.try_clone().expect("listener clone");
            let shutdown = shutdown.clone();
            let accepted = accepted.clone();
            thread::spawn(move || accept_loop(listener, sink, shutdown, accepted))
        };
        Arc::new(TcpLink {
            routes,
            pool: ConnPool::new(shutdown),
            accepted,
            accept: Mutex::new(Some(accept)),
        })
    }

    fn register_peer(&mut self, id: ProcessId, addr: PeerAddr, local: bool) {
        let PeerAddr::Tcp(addr) = addr else {
            panic!("socket runtime peers need TCP addresses, got {addr}");
        };
        assert!(!local, "process {id} is a local actor, not a remote peer");
        self.book.insert(id, addr);
    }

    fn addr_of(&self, id: ProcessId, local: bool) -> Option<PeerAddr> {
        if local {
            return Some(PeerAddr::Tcp(self.local_addr));
        }
        self.book.get(&id).map(|&addr| PeerAddr::Tcp(addr))
    }
}

/// The real-socket [`crate::Runtime`]: each actor on its own thread, every send
/// encoded and carried over TCP — loopback within one OS process, real
/// peers across processes via [`crate::Runtime::register_peer`]. See
/// `realtime.rs` for the shared loop and send path.
pub type SocketRuntime<M> = Realtime<M, Tcp>;

impl<M> Realtime<M, Tcp> {
    /// Creates a runtime and binds its listener, so
    /// [`Self::local_addr`] is publishable before the run starts.
    pub fn new(config: SocketConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(config.bind)?;
        let local_addr = listener.local_addr()?;
        Ok(Realtime::with_transport(
            Tcp {
                listener,
                local_addr,
                book: HashMap::new(),
            },
            Bounds {
                wall_timeout: config.wall_timeout,
                stop: config.stop,
                seed: 0,
            },
        ))
    }

    /// The actual bound address of this runtime's listener (resolves the
    /// ephemeral port when [`SocketConfig::bind`] used port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.transport.local_addr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::{Actor, Context, TimerKind};
    use crate::runtime::Runtime;
    use crate::tamper::{Fate, Tamper};
    use crate::threaded::Board;
    use crate::Time;
    use cupft_wire::WireError;
    use std::time::Instant;

    #[derive(Debug, Clone, PartialEq, Eq)]
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
    }
    impl Encode for Msg {
        fn encode(&self, out: &mut Vec<u8>) {
            out.push(match self {
                Msg::Ping => 0,
                Msg::Pong => 1,
            });
        }
    }
    impl Decode for Msg {
        fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
            match r.u8()? {
                0 => Ok(Msg::Ping),
                1 => Ok(Msg::Pong),
                tag => Err(WireError::BadTag { ty: "Msg", tag }),
            }
        }
    }

    struct Node {
        id: ProcessId,
        peer: ProcessId,
        initiator: bool,
        board: Board<bool>,
        got_reply: bool,
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
            } else {
                // Replier never halts on its own; poll a long timer so the
                // loop stays responsive to shutdown.
                ctx.set_timer(1, 10_000);
            }
        }
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<Msg>) {
            match msg {
                Msg::Ping => ctx.send(from, Msg::Pong),
                Msg::Pong => {
                    self.got_reply = true;
                    self.board.publish(self.id, true);
                    ctx.halt();
                }
            }
        }
    }

    fn pingpong_runtime() -> (SocketRuntime<Msg>, Board<bool>) {
        pingpong_runtime_with(SocketConfig::default())
    }

    fn pingpong_runtime_with(config: SocketConfig) -> (SocketRuntime<Msg>, Board<bool>) {
        let board = Board::new();
        let mut rt: SocketRuntime<Msg> = SocketRuntime::new(config).expect("bind");
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: board.clone(),
            got_reply: false,
        }));
        rt.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: board.clone(),
            got_reply: false,
        }));
        (rt, board)
    }

    #[test]
    fn pingpong_over_loopback_tcp() {
        let (mut rt, board) = pingpong_runtime();
        assert_eq!(Runtime::<Msg>::name(&rt), "socket");
        let report = rt.run_until_stopped(&mut || !board.is_empty());
        assert!(report.stopped || report.all_halted);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.label_count("PONG"), 1);
        let initiator: &Node = rt.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(initiator.got_reply);
        // Second run request returns the recorded report unchanged.
        let again = rt.run_to_completion();
        assert_eq!(again, report);
    }

    #[test]
    fn tamper_drop_starves_the_exchange() {
        struct DropPings;
        impl Tamper<Msg> for DropPings {
            fn disposition(
                &mut self,
                _from: ProcessId,
                _to: ProcessId,
                label: &'static str,
                _now: Time,
            ) -> Fate {
                if label == "PING" {
                    Fate::Drop
                } else {
                    Fate::Deliver
                }
            }
        }
        let (mut rt, board) = pingpong_runtime_with(SocketConfig {
            wall_timeout: Duration::from_millis(400),
            ..SocketConfig::default()
        });
        rt.set_tamper(Box::new(DropPings));
        let report = rt.run_until_stopped(&mut || !board.is_empty());
        assert!(!report.stopped);
        assert_eq!(report.stats.label_count("PING"), 1);
        assert_eq!(report.stats.messages_dropped, 1);
        assert_eq!(report.stats.label_count("PONG"), 0);
        let initiator: &Node = rt.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(!initiator.got_reply);
    }

    #[test]
    fn tamper_delay_defers_but_delivers() {
        struct DelayPings;
        impl Tamper<Msg> for DelayPings {
            fn disposition(
                &mut self,
                _from: ProcessId,
                _to: ProcessId,
                label: &'static str,
                _now: Time,
            ) -> Fate {
                if label == "PING" {
                    Fate::Delay(120)
                } else {
                    Fate::Deliver
                }
            }
        }
        let (mut rt, board) = pingpong_runtime();
        rt.set_tamper(Box::new(DelayPings));
        let started = Instant::now();
        let report = rt.run_until_stopped(&mut || !board.is_empty());
        assert!(report.stopped || report.all_halted);
        assert!(started.elapsed() >= Duration::from_millis(120));
        assert_eq!(report.stats.label_count("PONG"), 1);
    }

    #[test]
    fn addressing_reports_tcp_for_local_and_registered_peers() {
        let (mut rt, _board) = pingpong_runtime();
        let own = rt.local_addr();
        assert_eq!(
            rt.addr_of(ProcessId::new(1)),
            Some(PeerAddr::Tcp(own)),
            "local actors are reachable at our listener"
        );
        let remote: SocketAddr = "127.0.0.1:45678".parse().unwrap();
        rt.register_peer(ProcessId::new(9), PeerAddr::Tcp(remote));
        assert_eq!(rt.addr_of(ProcessId::new(9)), Some(PeerAddr::Tcp(remote)));
        assert_eq!(rt.addr_of(ProcessId::new(77)), None);
    }

    #[test]
    #[should_panic(expected = "socket runtime peers need TCP addresses")]
    fn registering_a_local_addr_panics() {
        let (mut rt, _board) = pingpong_runtime();
        rt.register_peer(ProcessId::new(9), PeerAddr::Local(ProcessId::new(9)));
    }

    #[test]
    fn two_runtimes_in_one_process_talk_over_registered_peers() {
        // The multi-process shape, in-process: two SocketRuntimes, each
        // hosting one actor, cross-registered by TCP address.
        let board = Board::new();
        let mut a: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        let mut b: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        a.add_actor(Box::new(Node {
            id: ProcessId::new(1),
            peer: ProcessId::new(2),
            initiator: true,
            board: board.clone(),
            got_reply: false,
        }));
        b.add_actor(Box::new(Node {
            id: ProcessId::new(2),
            peer: ProcessId::new(1),
            initiator: false,
            board: board.clone(),
            got_reply: false,
        }));
        a.register_peer(ProcessId::new(2), PeerAddr::Tcp(b.local_addr()));
        b.register_peer(ProcessId::new(1), PeerAddr::Tcp(a.local_addr()));
        let board_b = board.clone();
        let handle = thread::spawn(move || {
            b.run_until_stopped(&mut || !board_b.is_empty());
        });
        let report = a.run_until_stopped(&mut || !board.is_empty());
        handle.join().expect("runtime b panicked");
        assert!(report.stopped || report.all_halted);
        let initiator: &Node = a.actor_as(ProcessId::new(1)).expect("inspectable");
        assert!(initiator.got_reply);
    }

    #[test]
    fn timers_fire_in_socket_runtime() {
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
        let mut rt: SocketRuntime<Msg> = SocketRuntime::new(SocketConfig::default()).expect("bind");
        rt.add_actor(Box::new(TimerNode {
            id: ProcessId::new(1),
            fired: 0,
        }));
        let report = rt.run_to_completion();
        assert!(report.all_halted);
        assert_eq!(report.stats.timers_fired, 3);
    }
}

//! The TCP transport: one readiness-driven [`Endpoint`] per node, owned
//! by the thread that steps the node's state machine.
//!
//! The endpoint keeps the listener, every connection, and a wake pipe
//! in one `poll(2)` set. Its owner loops: [`Endpoint::poll`] (until a
//! socket is ready, a [`Waker`] fires, a fault-delayed frame falls due,
//! or the owner's next timer passes), step over the returned payloads,
//! [`Endpoint::send`] each frame into its connection's byte backlog, and
//! [`Endpoint::flush`] with one `write` per connection. [`Transport`] is
//! the same endpoint hosted on a thread of its own.
//!
//! * **The owner never blocks on the network.** Sockets are
//!   non-blocking and a backlog holds at most [`BACKLOG_BYTES`]; a frame
//!   that does not fit, or has no route, is dropped and counted — the
//!   loss PBFT tolerates (§2.2; status retransmission recovers). TCP
//!   connects run on one dialer thread per endpoint (jittered
//!   exponential backoff, idle while every peer is connected).
//! * **Messages never cross threads.** Protocol messages share `Rc`
//!   bodies; the endpoint deals in bytes only.
//! * **Connections carry an identity greeting.** A dialed connection
//!   opens with the dialer's [`NodeId`]s (many for a multiplexed client
//!   driver); the accepting side registers a return route per identity.
//! * **Fault injection sits at send time.** With a [`FaultPlane`], each
//!   frame gets a verdict in [`Endpoint::send`]; delayed and duplicated
//!   frames wait in a deadline heap that bounds the poll timeout.
//! * **Network bytes never panic.** A malformed greeting, a bad frame
//!   header or checksum, or EOF inside a frame closes that connection
//!   and bumps `framing_errors`; the endpoint serves everyone else.
//!
//! **Trust model caveat:** the greeting is *not* authenticated — any
//! TCP peer can claim any [`NodeId`] and capture that node's dynamic
//! return route until the real node's next (re)connection replaces it.
//! Protocol *safety* is unaffected (every protocol message is MACed
//! end-to-end, and misrouted replies are just lost frames), but an
//! active network attacker can suppress replies to a chosen client — a
//! liveness attack outside PBFT's fault model, which assumes the
//! network cannot be impersonated, only delayed/dropped. Like the
//! topology's derived `key_seed`, this is a development/test trust
//! level; a hardened deployment would authenticate the greeting (MAC
//! over a connection nonce) before registering a route.

use crate::inject::{FaultPlane, SendVerdict};
use bft_fxhash::FastMap;
use bft_types::framing::{frame_bytes, FrameDecoder};
use bft_types::wire::Wire;
use bft_types::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasher;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One encoded frame, as the hosted [`Transport`] takes it.
pub type FrameBuf = Arc<Vec<u8>>;

/// Unwritten bytes one connection may hold; beyond this, frames drop.
pub const BACKLOG_BYTES: usize = 4 << 20;
/// Bytes per socket read (one buffer per endpoint).
const READ_CHUNK: usize = 64 * 1024;
/// Reads per connection per poll, so one flooding peer cannot starve
/// the others or the owner's timers.
const READS_PER_ROUND: usize = 4;
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// Pause after a failed `accept` (EMFILE, ...): the listener stays
/// readable, so polling it again at once would spin.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);
/// Poll timeout of an idle hosted [`Transport`].
const HOST_IDLE: Duration = Duration::from_millis(100);

/// First reconnect delay; the per-attempt cap doubles per failure up to
/// [`BACKOFF_MAX`].
const BACKOFF_INITIAL: Duration = Duration::from_millis(20);
/// Reconnect backoff ceiling.
const BACKOFF_MAX: Duration = Duration::from_secs(2);

/// Reconnect delay for the `attempt`-th consecutive failure (0-based):
/// exponential cap with *equal jitter*. The cap doubles per attempt up
/// to [`BACKOFF_MAX`]; the delay is the cap's lower half plus a random
/// slice of the upper half, so retries never collapse below half the
/// cap yet never line up either. Without jitter, a healed partition has
/// every peer's dialer retrying in lockstep — each node's reconnect
/// burst lands on the same instant, exactly when the cluster is trying
/// to catch up.
fn backoff_delay(attempt: u32, rng: &mut StdRng) -> Duration {
    let cap = backoff_cap(attempt);
    let half = cap / 2;
    half + half.mul_f64(rng.random::<f64>())
}

/// The deterministic per-attempt backoff ceiling (exposed for the
/// schedule's unit test).
fn backoff_cap(attempt: u32) -> Duration {
    BACKOFF_INITIAL
        .saturating_mul(1u32 << attempt.min(16))
        .min(BACKOFF_MAX)
}

/// Declares the monotonic counters once, as atomics ([`TransportStats`])
/// and as a plain-value copy ([`StatsSnapshot`]).
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Transport counters (monotonic; read with [`TransportStats::snapshot`]).
        #[derive(Default)]
        pub struct TransportStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A plain-value copy of [`TransportStats`].
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl TransportStats {
            /// Reads every counter.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }
        }
    };
}

counters! {
    /// Frames appended to a connection backlog — one per frame, however
    /// many frames one write carries.
    frames_sent,
    /// Frames dropped: no route, a full backlog, or a dead connection.
    frames_dropped,
    /// Checksum-clean payloads handed to the owner.
    frames_received,
    /// Connections closed on bad bytes: a malformed greeting, a bad
    /// frame header or checksum, or EOF inside a frame.
    framing_errors,
    /// Successful outbound connects (including reconnects).
    connects,
    /// Accepted inbound connections.
    accepts,
    /// Frames held back by the fault-injection shim before delivery.
    injected_delayed,
    /// Frames dropped by the fault-injection shim (never sent).
    injected_dropped,
    /// Duplicate frame copies created by the fault-injection shim.
    injected_duplicated,
    /// Socket `write` calls that moved bytes.
    writes,
}

fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed);
}

/// `poll(2)` through a minimal FFI shim: the build is offline with no
/// `libc` crate, and `std` has no readiness API.
mod sys {
    use std::os::raw::{c_int, c_short};
    use std::time::Duration;

    #[cfg(target_os = "linux")]
    type Nfds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type Nfds = std::os::raw::c_uint;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;

    /// `struct pollfd`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until a descriptor in `fds` is ready or `timeout` passes.
    /// Sub-millisecond timeouts round *up*, so a near deadline sleeps
    /// instead of spinning. Returns false on failure (EINTR included).
    pub fn wait(fds: &mut [PollFd], timeout: Duration) -> bool {
        let ms = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
        // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
        // pollfd records that outlives the call; `nfds` is its length.
        unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) >= 0 }
    }
}

/// Wakes an [`Endpoint`] blocked in [`Endpoint::poll`] from another
/// thread. Wakes coalesce: at most one byte waits in the pipe.
#[derive(Clone)]
pub struct Waker(Arc<WakePipe>);

struct WakePipe {
    tx: UnixStream,
    /// Set by the first wake after a drain and cleared by the loop only
    /// *after* draining, so a producer that finds it set knows the loop
    /// will check its channels before sleeping again.
    armed: AtomicBool,
}

impl Waker {
    /// Makes the endpoint's current or next `poll` return promptly.
    pub fn wake(&self) {
        if !self.0.armed.swap(true, Ordering::AcqRel) {
            // A full pipe already holds a wake-up.
            let _ = (&self.0.tx).write(&[1]);
        }
    }
}

/// An endpoint's counters and leak gauges, readable from any thread
/// and after the endpoint has shut down.
#[derive(Default)]
pub struct Probe {
    stats: TransportStats,
    /// Helper threads not yet joined (the dialer).
    live_threads: AtomicU64,
    sockets: AtomicUsize,
    routes: AtomicUsize,
}

impl Probe {
    /// Live counter values.
    pub fn stats(&self) -> StatsSnapshot {
        self.stats.snapshot()
    }

    /// `(helper threads, open sockets, return routes)`; all zero once
    /// the endpoint has shut down.
    pub fn residual_state(&self) -> (u64, usize, usize) {
        let threads = self.live_threads.load(Ordering::SeqCst);
        let sockets = self.sockets.load(Ordering::SeqCst);
        (threads, sockets, self.routes.load(Ordering::SeqCst))
    }
}

/// Bytes queued for one connection, bounded by [`BACKLOG_BYTES`].
#[derive(Default)]
struct Backlog {
    bytes: Vec<u8>,
    /// Frames appended since the backlog was last empty.
    frames: u64,
}

impl Backlog {
    fn push(&mut self, frame: &[u8]) -> bool {
        if self.bytes.len() + frame.len() > BACKLOG_BYTES {
            return false;
        }
        self.bytes.extend_from_slice(frame);
        self.frames += 1;
        true
    }

    /// Empties the backlog; returns the frames lost.
    fn discard(&mut self) -> u64 {
        self.bytes = Vec::new();
        std::mem::take(&mut self.frames)
    }
}

enum Role {
    /// Dialed to this topology peer. The connection outlives its sockets:
    /// it buffers frames while unconnected and is redialed when lost.
    Dialed(SocketAddr),
    /// Accepted; the identities its greeting named (empty until then —
    /// a valid greeting names at least one).
    Accepted(Vec<NodeId>),
}

struct Conn {
    /// `None` while a dialed peer is unconnected.
    stream: Option<TcpStream>,
    decoder: FrameDecoder,
    out: Backlog,
    /// The kernel took only part of the backlog; wait for `POLLOUT`.
    blocked: bool,
    role: Role,
}

impl Conn {
    /// Connected, with bytes to write and room in the kernel for them.
    fn writable(&self) -> bool {
        self.stream.is_some() && !self.blocked && !self.out.bytes.is_empty()
    }

    /// One `write` of the backlog; false when the connection is dead.
    fn write_out(&mut self, stats: &TransportStats) -> bool {
        let Some(stream) = &mut self.stream else {
            return true;
        };
        match stream.write(&self.out.bytes) {
            Ok(n) => {
                bump(&stats.writes, 1);
                self.out.bytes.drain(..n);
                self.blocked = !self.out.bytes.is_empty();
                if !self.blocked {
                    self.out.frames = 0;
                    // Give back what a long stall grew.
                    if self.out.bytes.capacity() > 4 * READ_CHUNK {
                        self.out.bytes.shrink_to(READ_CHUNK);
                    }
                }
                true
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                self.blocked = true;
                true
            }
            Err(e) => e.kind() == ErrorKind::Interrupted,
        }
    }
}

/// A frame the fault plane held back: `(due, FIFO tiebreak, to, frame)`.
type HeldFrame = Reverse<(Instant, u64, NodeId, Vec<u8>)>;

/// What the dialer reports, by connection id.
enum DialEvent {
    Connected(u64, TcpStream),
    Failed(u64),
}

/// One node's sockets, driven by its owning thread. See the module docs.
pub struct Endpoint {
    me: NodeId,
    /// Names this endpoint's threads: the listening port, else `me`.
    label: String,
    greeting: Vec<u8>,
    listener: Option<TcpListener>,
    accept_paused_until: Option<Instant>,
    /// Connections by id. Ids are never reused, so a route never names
    /// a newer connection by mistake.
    conns: FastMap<u64, Conn>,
    next_id: u64,
    /// The dialed connection of each topology peer.
    peers: FastMap<NodeId, u64>,
    /// Return routes from greetings on accepted connections. Keyed by
    /// what peers claim, so it keeps the default collision-resistant hasher.
    routes: HashMap<NodeId, u64>,
    faults: Option<Arc<FaultPlane>>,
    held: BinaryHeap<HeldFrame>,
    wake_rx: UnixStream,
    waker: Waker,
    /// Dial requests and results; see [`dialer_loop`].
    dial_tx: Option<Sender<(u64, SocketAddr)>>,
    dial_rx: Receiver<DialEvent>,
    dialer: Option<JoinHandle<()>>,
    probe: Arc<Probe>,
    /// The poll set, and the connection behind each entry past the
    /// wake pipe and listener.
    fds: Vec<sys::PollFd>,
    fd_conns: Vec<u64>,
    scratch: Vec<u8>,
}

impl Endpoint {
    /// Opens an endpoint that greets as `identities` (`identities[0]` is
    /// its primary name). `listener` accepts inbound connections
    /// (replicas listen; clients pass `None`); `peers` are dialed
    /// persistently with reconnect backoff.
    pub fn new(
        identities: Vec<NodeId>,
        listener: Option<TcpListener>,
        peers: Vec<(NodeId, SocketAddr)>,
        faults: Option<Arc<FaultPlane>>,
    ) -> io::Result<Endpoint> {
        assert!(!identities.is_empty(), "transport needs an identity");
        let me = identities[0];
        let label = match &listener {
            Some(l) => {
                l.set_nonblocking(true)?;
                l.local_addr()?.port().to_string()
            }
            None => me.to_string(),
        };
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let armed = AtomicBool::new(false);
        let waker = Waker(Arc::new(WakePipe { tx: wake_tx, armed }));
        let probe = Arc::new(Probe::default());
        let (dial_tx, request_rx) = mpsc::channel();
        let (event_tx, dial_rx) = mpsc::channel();
        let dialer = if peers.is_empty() {
            None
        } else {
            let waker = waker.clone();
            // RandomState keys are random, so jitter differs per endpoint
            // and a healed partition's reconnect wave spreads out.
            let seed = std::collections::hash_map::RandomState::new().hash_one(&label);
            let thread = std::thread::Builder::new().name(format!("pbft-{label}-dial"));
            let join = thread.spawn(move || dialer_loop(request_rx, event_tx, waker, seed))?;
            probe.live_threads.store(1, Ordering::SeqCst);
            Some(join)
        };
        let mut ep = Endpoint {
            me,
            label,
            greeting: frame_bytes(&identities),
            listener,
            accept_paused_until: None,
            conns: FastMap::default(),
            next_id: 0,
            peers: FastMap::default(),
            routes: HashMap::new(),
            faults,
            held: BinaryHeap::new(),
            wake_rx,
            waker,
            dial_tx: Some(dial_tx),
            dial_rx,
            dialer,
            probe,
            fds: Vec::new(),
            fd_conns: Vec::new(),
            scratch: vec![0; READ_CHUNK],
        };
        for (peer, addr) in peers {
            let id = ep.insert_conn(None, Role::Dialed(addr));
            ep.peers.insert(peer, id);
            ep.redial(id);
        }
        Ok(ep)
    }

    /// The name of a thread serving this endpoint in `role`:
    /// `pbft-<listening port or identity>-<role>`.
    pub fn thread_name(&self, role: &str) -> String {
        format!("pbft-{}-{role}", self.label)
    }

    /// A handle that wakes this endpoint's `poll` from any thread.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// The counters, for other threads.
    pub fn probe(&self) -> Arc<Probe> {
        Arc::clone(&self.probe)
    }

    /// Queues one frame toward `to`: the topology peer's connection, else
    /// a greeting's return route. No route or a full backlog drops the
    /// frame. A fault plane may instead drop, delay, or duplicate it;
    /// frames sent later without delay overtake delayed ones, as jitter
    /// does on a real network.
    pub fn send(&mut self, to: NodeId, frame: &[u8]) {
        let Some(plane) = &self.faults else {
            return self.route(to, frame);
        };
        let (delay_us, duplicate_us) = match plane.decide(self.me, to) {
            SendVerdict::Drop => return bump(&self.probe.stats.injected_dropped, 1),
            SendVerdict::Deliver {
                delay_us,
                duplicate_us,
            } => (delay_us, duplicate_us),
        };
        if let Some(dup_us) = duplicate_us {
            bump(&self.probe.stats.injected_duplicated, 1);
            self.send_after(to, frame, dup_us);
        }
        self.send_after(to, frame, delay_us);
    }

    fn send_after(&mut self, to: NodeId, frame: &[u8], delay_us: u64) {
        if delay_us == 0 {
            return self.route(to, frame);
        }
        bump(&self.probe.stats.injected_delayed, 1);
        let due = Instant::now() + Duration::from_micros(delay_us);
        // The running count doubles as the FIFO tiebreak.
        let seq = self.probe.stats.injected_delayed.load(Ordering::Relaxed);
        self.held.push(Reverse((due, seq, to, frame.to_vec())));
    }

    /// Appends to the right backlog, counting the frame sent or dropped.
    fn route(&mut self, to: NodeId, frame: &[u8]) {
        let id = self.peers.get(&to).or_else(|| self.routes.get(&to));
        let conn = id.and_then(|id| self.conns.get_mut(id));
        let stats = &self.probe.stats;
        if conn.is_some_and(|c| c.out.push(frame)) {
            bump(&stats.frames_sent, 1);
        } else {
            bump(&stats.frames_dropped, 1);
        }
    }

    /// Writes every non-empty backlog, one `write` per connection; what
    /// the kernel does not take waits for `POLLOUT`.
    pub fn flush(&mut self) {
        let stats = &self.probe.stats;
        let dead: Vec<u64> = (self.conns.iter_mut())
            .filter(|(_, c)| c.writable())
            .filter_map(|(&id, c)| (!c.write_out(stats)).then_some(id))
            .collect();
        for id in dead {
            self.close(id);
        }
    }

    /// Waits up to `timeout` (less when a delayed frame falls due), then
    /// accepts, reads, and appends every checksum-verified payload to
    /// `inbound`, in arrival order per connection. Returns early, with or
    /// without input, when woken.
    pub fn poll(&mut self, timeout: Duration, inbound: &mut Vec<Vec<u8>>) {
        let now = Instant::now();
        let mut timeout = timeout;
        if let Some(Reverse((due, ..))) = self.held.peek() {
            timeout = timeout.min(due.saturating_duration_since(now));
        }
        let listening = match (&self.listener, self.accept_paused_until) {
            (Some(_), Some(until)) if until > now => {
                timeout = timeout.min(until - now);
                false
            }
            (listener, _) => listener.is_some(),
        };
        self.fds.clear();
        self.fd_conns.clear();
        self.fds.push(poll_fd(&self.wake_rx, sys::POLLIN));
        if let (true, Some(l)) = (listening, &self.listener) {
            self.fds.push(poll_fd(l, sys::POLLIN));
        }
        let base = self.fds.len();
        for (&id, c) in &self.conns {
            if let Some(stream) = &c.stream {
                let events = sys::POLLIN | if c.blocked { sys::POLLOUT } else { 0 };
                self.fds.push(poll_fd(stream, events));
                self.fd_conns.push(id);
            }
        }
        if !sys::wait(&mut self.fds, timeout) {
            // EINTR, or a failure that would repeat at once: never spin.
            return std::thread::sleep(Duration::from_millis(1));
        }
        if self.fds[0].revents != 0 {
            let mut buf = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut buf), Ok(n) if n > 0) {}
            // Disarm only after draining: see `WakePipe::armed`. The swap
            // acquires what the producer's wake released, so every message
            // it sent before waking is visible to the loop from here on.
            self.waker.0.armed.swap(false, Ordering::AcqRel);
        }
        self.drain_dial_events();
        if listening && self.fds[1].revents != 0 {
            self.accept_all();
        }
        for i in 0..self.fd_conns.len() {
            let (revents, id) = (self.fds[base + i].revents, self.fd_conns[i]);
            if revents & sys::POLLOUT != 0 {
                let stats = &self.probe.stats;
                if self.conns.get_mut(&id).is_some_and(|c| !c.write_out(stats)) {
                    self.close(id);
                }
            }
            // POLLIN, POLLHUP and POLLERR all mean: read to learn more.
            if revents & !sys::POLLOUT != 0 {
                self.read_conn(id, inbound);
            }
        }
        let now = Instant::now();
        while self.held.peek().is_some_and(|Reverse(h)| h.0 <= now) {
            if let Some(Reverse((_, _, to, frame))) = self.held.pop() {
                self.route(to, &frame);
            }
        }
    }

    /// Closes every socket and stops the dialer. Idempotent; when it
    /// returns, no helper thread runs and no socket or route remains.
    pub fn shutdown(&mut self) {
        for stream in self.conns.drain().filter_map(|(_, c)| c.stream) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.peers.clear();
        self.routes.clear();
        self.listener = None;
        self.dial_tx = None; // Ends the dialer's wait.
        if let Some(join) = self.dialer.take() {
            let _ = join.join();
        }
        self.probe.live_threads.store(0, Ordering::SeqCst);
        self.update_gauges();
    }

    /// Installs what the dialer reports. A connected stream sends the
    /// greeting ahead of whatever queued while the peer was unconnected;
    /// a failed attempt drops the queue.
    fn drain_dial_events(&mut self) {
        while let Ok(event) = self.dial_rx.try_recv() {
            let (id, stream) = match event {
                DialEvent::Connected(id, stream) => (id, stream),
                DialEvent::Failed(id) => {
                    if let Some(c) = self.conns.get_mut(&id) {
                        bump(&self.probe.stats.frames_dropped, c.out.discard());
                    }
                    continue;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                self.redial(id);
                continue;
            }
            let _ = stream.set_nodelay(true);
            if let Some(conn) = self.conns.get_mut(&id) {
                bump(&self.probe.stats.connects, 1);
                conn.out.bytes.splice(0..0, self.greeting.iter().copied());
                conn.stream = Some(stream);
            }
            self.update_gauges();
        }
    }

    fn accept_all(&mut self) {
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _)) => {
                    bump(&self.probe.stats.accepts, 1);
                    if stream.set_nonblocking(true).is_ok() {
                        let _ = stream.set_nodelay(true);
                        self.insert_conn(Some(stream), Role::Accepted(Vec::new()));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    // EMFILE, ECONNABORTED, ...: transient, keep accepting.
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            }
        }
    }

    fn insert_conn(&mut self, stream: Option<TcpStream>, role: Role) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let (decoder, out, blocked) = (FrameDecoder::new(), Backlog::default(), false);
        let conn = Conn {
            stream,
            decoder,
            out,
            blocked,
            role,
        };
        self.conns.insert(id, conn);
        self.update_gauges();
        id
    }

    /// Reads what the socket has (bounded per round) into `inbound`. EOF,
    /// a socket error, or bad bytes close the connection.
    fn read_conn(&mut self, id: u64, inbound: &mut Vec<Vec<u8>>) {
        for _ in 0..READS_PER_ROUND {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let Some(stream) = &mut conn.stream else {
                return;
            };
            let n = match stream.read(&mut self.scratch) {
                Ok(0) if conn.decoder.pending() > 0 => 0, // Hung up inside a frame.
                Ok(0) => return self.close(id),
                Ok(n) => n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.close(id),
            };
            conn.decoder.extend(&self.scratch[..n]);
            if n == 0 || !self.drain_frames(id, inbound) {
                bump(&self.probe.stats.framing_errors, 1);
                return self.close(id);
            }
            if n < READ_CHUNK {
                return;
            }
        }
    }

    /// Pops every complete payload off a connection's decoder; the first
    /// on an accepted connection is the greeting. False on bytes the
    /// connection cannot survive (a length-prefixed stream cannot resync
    /// past corruption).
    fn drain_frames(&mut self, id: u64, inbound: &mut Vec<Vec<u8>>) -> bool {
        let Some(conn) = self.conns.get_mut(&id) else {
            return true;
        };
        loop {
            let payload = match conn.decoder.next_payload() {
                Ok(Some(payload)) => payload,
                Ok(None) => return true,
                Err(_) => return false,
            };
            match &mut conn.role {
                Role::Accepted(ids) if ids.is_empty() => {
                    let Some(greeted) = parse_greeting(&payload) else {
                        return false;
                    };
                    for &node in &greeted {
                        self.routes.insert(node, id);
                    }
                    *ids = greeted;
                }
                _ => {
                    bump(&self.probe.stats.frames_received, 1);
                    inbound.push(payload);
                }
            }
        }
    }

    /// Closes a connection's socket; its unwritten frames count as
    /// dropped. A dialed connection is redialed; an accepted one goes
    /// with its return routes (unless a newer connection replaced them).
    fn close(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if let Some(stream) = conn.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        bump(&self.probe.stats.frames_dropped, conn.out.discard());
        (conn.decoder, conn.blocked) = (FrameDecoder::new(), false);
        if let Role::Dialed(_) = conn.role {
            self.redial(id);
        } else if let Some(Conn {
            role: Role::Accepted(nodes),
            ..
        }) = self.conns.remove(&id)
        {
            for node in nodes {
                if self.routes.get(&node) == Some(&id) {
                    self.routes.remove(&node);
                }
            }
        }
        self.update_gauges();
    }

    fn redial(&self, id: u64) {
        if let (Some(dial_tx), Some(conn)) = (&self.dial_tx, self.conns.get(&id)) {
            if let Role::Dialed(addr) = conn.role {
                let _ = dial_tx.send((id, addr));
            }
        }
    }

    /// Leak gauges for [`Probe::residual_state`], refreshed as
    /// connections open and close.
    fn update_gauges(&self) {
        let open = self.conns.values().filter(|c| c.stream.is_some()).count();
        self.probe.sockets.store(open, Ordering::SeqCst);
        self.probe.routes.store(self.routes.len(), Ordering::SeqCst);
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn poll_fd(fd: &impl AsRawFd, events: i16) -> sys::PollFd {
    let fd = fd.as_raw_fd();
    sys::PollFd {
        fd,
        events,
        revents: 0,
    }
}

/// A greeting is a non-empty identity list and nothing else.
fn parse_greeting(payload: &[u8]) -> Option<Vec<NodeId>> {
    let mut slice = payload;
    let ids = Vec::<NodeId>::decode(&mut slice).ok()?;
    (slice.is_empty() && !ids.is_empty()).then_some(ids)
}

/// The dialer: connects to requested peers, retrying failures after
/// [`backoff_delay`], and hands connected streams to the loop. Blocks on
/// its request channel while nothing is due; exits when it closes.
fn dialer_loop(
    requests: Receiver<(u64, SocketAddr)>,
    events: Sender<DialEvent>,
    waker: Waker,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    // (due, connection id, address, consecutive failures)
    let mut due: Vec<(Instant, u64, SocketAddr, u32)> = Vec::new();
    loop {
        let request = match due.iter().map(|d| d.0).min() {
            None => requests.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(at) => requests.recv_timeout(at.saturating_duration_since(Instant::now())),
        };
        match request {
            Ok((id, addr)) => due.push((Instant::now(), id, addr, 0)),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let now = Instant::now();
        while let Some(i) = due.iter().position(|d| d.0 <= now) {
            let (_, id, addr, failures) = due.swap_remove(i);
            let event = match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
                Ok(stream) => DialEvent::Connected(id, stream),
                Err(_) => {
                    let retry = Instant::now() + backoff_delay(failures, &mut rng);
                    due.push((retry, id, addr, failures.saturating_add(1)));
                    DialEvent::Failed(id)
                }
            };
            if events.send(event).is_err() {
                return;
            }
            waker.wake();
        }
    }
}

enum Cmd {
    Send(NodeId, FrameBuf),
    /// Answered once every earlier command has been applied.
    Sync(Sender<()>),
    Stop,
}

/// An [`Endpoint`] hosted on a thread of its own: [`Transport::send`]
/// works from any thread and payloads arrive on a channel. Nodes and
/// client drivers own their endpoint directly; micro-benchmarks and
/// tests use this form.
pub struct Transport {
    cmds: Sender<Cmd>,
    waker: Waker,
    probe: Arc<Probe>,
    host: Mutex<Option<JoinHandle<()>>>,
}

impl Transport {
    /// Starts a hosted endpoint (see [`Endpoint::new`]); checksum-verified
    /// inbound payloads arrive on `inbound` in arrival order.
    pub fn start(
        me: NodeId,
        listener: Option<TcpListener>,
        peers: Vec<(NodeId, SocketAddr)>,
        inbound: Sender<Vec<u8>>,
    ) -> Transport {
        Self::start_as(vec![me], listener, peers, inbound)
    }

    /// [`Transport::start`] greeting as several identities;
    /// `identities[0]` is the primary name.
    pub fn start_as(
        identities: Vec<NodeId>,
        listener: Option<TcpListener>,
        peers: Vec<(NodeId, SocketAddr)>,
        inbound: Sender<Vec<u8>>,
    ) -> Transport {
        Self::start_faulted(identities, listener, peers, inbound, None)
    }

    /// [`Transport::start_as`] with an optional fault-injection plane.
    pub fn start_faulted(
        identities: Vec<NodeId>,
        listener: Option<TcpListener>,
        peers: Vec<(NodeId, SocketAddr)>,
        inbound: Sender<Vec<u8>>,
        faults: Option<Arc<FaultPlane>>,
    ) -> Transport {
        let endpoint =
            Endpoint::new(identities, listener, peers, faults).expect("open transport endpoint");
        let (cmds, cmd_rx) = mpsc::channel();
        let (waker, probe) = (endpoint.waker(), endpoint.probe());
        let host = std::thread::Builder::new().name(endpoint.thread_name("host"));
        let host = host.spawn(move || host_loop(endpoint, cmd_rx, inbound));
        let host = Mutex::new(Some(host.expect("spawn transport host")));
        Transport {
            cmds,
            waker,
            probe,
            host,
        }
    }

    /// Queues one frame toward `to` (see [`Endpoint::send`]).
    pub fn send(&self, to: NodeId, frame: FrameBuf) {
        if self.cmds.send(Cmd::Send(to, frame)).is_ok() {
            self.waker.wake();
        }
    }

    /// Counter values, including the effect of every earlier `send`.
    pub fn stats(&self) -> StatsSnapshot {
        let (ack, done) = mpsc::channel();
        if self.cmds.send(Cmd::Sync(ack)).is_ok() {
            self.waker.wake();
            let _ = done.recv_timeout(Duration::from_secs(5));
        }
        self.probe.stats()
    }

    /// Stops the host thread, which closes every socket and joins the
    /// dialer: when this returns no transport thread runs. Idempotent.
    pub fn shutdown(&self) {
        let _ = self.cmds.send(Cmd::Stop);
        self.waker.wake();
        if let Some(host) = self.host().take() {
            let _ = host.join();
        }
    }

    /// `(live transport threads, open sockets, return routes)`, for
    /// leak regression tests.
    pub fn residual_state(&self) -> (u64, usize, usize) {
        let (threads, sockets, routes) = self.probe.residual_state();
        (threads + u64::from(self.host().is_some()), sockets, routes)
    }

    fn host(&self) -> std::sync::MutexGuard<'_, Option<JoinHandle<()>>> {
        self.host.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl Drop for Transport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn host_loop(mut endpoint: Endpoint, cmds: Receiver<Cmd>, inbound: Sender<Vec<u8>>) {
    let mut batch = Vec::new();
    'run: loop {
        endpoint.poll(HOST_IDLE, &mut batch);
        for payload in batch.drain(..) {
            let _ = inbound.send(payload);
        }
        loop {
            match cmds.try_recv() {
                Ok(Cmd::Send(to, frame)) => endpoint.send(to, &frame),
                Ok(Cmd::Sync(ack)) => drop(ack.send(())),
                Ok(Cmd::Stop) | Err(TryRecvError::Disconnected) => break 'run,
                Err(TryRecvError::Empty) => break,
            }
        }
        endpoint.flush();
    }
    endpoint.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use bft_types::{ClientId, ReplicaId};

    fn recv_payload(rx: &Receiver<Vec<u8>>) -> Vec<u8> {
        rx.recv_timeout(Duration::from_secs(5)).expect("payload")
    }

    #[test]
    fn two_endpoints_exchange_frames() {
        let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
        let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
        let (a0, a1) = (l0.local_addr().unwrap(), l1.local_addr().unwrap());
        let r0 = NodeId::Replica(ReplicaId(0));
        let r1 = NodeId::Replica(ReplicaId(1));
        let (tx0, rx0) = mpsc::channel();
        let (tx1, rx1) = mpsc::channel();
        let t0 = Transport::start(r0, Some(l0), vec![(r1, a1)], tx0);
        let t1 = Transport::start(r1, Some(l1), vec![(r0, a0)], tx1);

        // Payloads are arbitrary bytes at the transport layer.
        let hello = Arc::new(frame_bytes(&42u64));
        // Queue before/while the dialer connects: the backlog buffers.
        t0.send(r1, Arc::clone(&hello));
        let got = recv_payload(&rx1);
        let mut slice = got.as_slice();
        assert_eq!(bft_types::wire::Wire::decode(&mut slice), Ok(42u64));

        t1.send(r0, Arc::new(frame_bytes(&7u64)));
        let got = recv_payload(&rx0);
        let mut slice = got.as_slice();
        assert_eq!(bft_types::wire::Wire::decode(&mut slice), Ok(7u64));

        t0.shutdown();
        t1.shutdown();
    }

    #[test]
    fn accepted_connection_registers_return_route() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let server = NodeId::Replica(ReplicaId(0));
        let client = NodeId::Client(ClientId(3));
        let (stx, srx) = mpsc::channel();
        let (ctx, crx) = mpsc::channel();
        let ts = Transport::start(server, Some(l), vec![], stx);
        let tc = Transport::start(client, None, vec![(server, addr)], ctx);

        // Client → server establishes the connection (greeting + frame).
        tc.send(server, Arc::new(frame_bytes(&1u64)));
        let _ = recv_payload(&srx);
        // Server → client goes over the dynamic return route.
        ts.send(client, Arc::new(frame_bytes(&2u64)));
        let got = recv_payload(&crx);
        let mut slice = got.as_slice();
        assert_eq!(bft_types::wire::Wire::decode(&mut slice), Ok(2u64));

        ts.shutdown();
        tc.shutdown();
    }

    #[test]
    fn send_without_route_drops() {
        let (tx, _rx) = mpsc::channel();
        let t = Transport::start(NodeId::Client(ClientId(0)), None, vec![], tx);
        t.send(NodeId::Client(ClientId(9)), Arc::new(vec![1, 2, 3]));
        assert_eq!(t.stats().frames_dropped, 1);
        t.shutdown();
    }

    /// Regression for the shutdown race: `stop()` used to drain `socks`
    /// and clear `dynamic` while dialers could still reconnect and
    /// readers could still register routes, leaking threads and sockets.
    /// After `shutdown()` returns, every worker thread must have exited
    /// and no socket or route may remain registered.
    #[test]
    fn shutdown_leaves_no_threads_or_sockets() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let server = NodeId::Replica(ReplicaId(0));
        let client = NodeId::Client(ClientId(5));
        // A dead peer address keeps the dialer mid-backoff/reconnect for
        // the whole test — the thread most likely to race `stop()`.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = probe.local_addr().unwrap();
        drop(probe);
        let (stx, srx) = mpsc::channel();
        let (ctx, _crx) = mpsc::channel();
        let ts = Transport::start(
            server,
            Some(l),
            vec![(NodeId::Replica(ReplicaId(9)), dead_addr)],
            stx,
        );
        let tc = Transport::start(client, None, vec![(server, addr)], ctx);
        // Establish the accepted connection + dynamic return route.
        tc.send(server, Arc::new(frame_bytes(&1u64)));
        let _ = recv_payload(&srx);

        ts.shutdown();
        assert_eq!(
            ts.residual_state(),
            (0, 0, 0),
            "server: no threads, sockets, or routes after stop()"
        );
        tc.shutdown();
        assert_eq!(
            tc.residual_state(),
            (0, 0, 0),
            "client: no threads, sockets, or routes after stop()"
        );
        // Idempotent: a second stop (e.g. from Drop) is a no-op.
        ts.shutdown();
        assert_eq!(ts.residual_state(), (0, 0, 0));
    }

    #[test]
    fn backoff_schedule_is_bounded_with_jitter() {
        // Caps double from BACKOFF_INITIAL to BACKOFF_MAX and saturate.
        assert_eq!(backoff_cap(0), BACKOFF_INITIAL);
        assert_eq!(backoff_cap(1), BACKOFF_INITIAL * 2);
        assert_eq!(backoff_cap(7), BACKOFF_MAX); // 20ms * 128 = 2.56s, capped.
        assert_eq!(backoff_cap(30), BACKOFF_MAX); // Shift saturates too.
        let mut rng = StdRng::seed_from_u64(42);
        for attempt in 0..20 {
            let cap = backoff_cap(attempt);
            for _ in 0..50 {
                let d = backoff_delay(attempt, &mut rng);
                // Equal jitter: within [cap/2, cap], never zero, never
                // above the ceiling.
                assert!(d >= cap / 2, "attempt {attempt}: {d:?} < {:?}", cap / 2);
                assert!(d <= cap, "attempt {attempt}: {d:?} > {cap:?}");
                assert!(d <= BACKOFF_MAX);
            }
        }
        // The jitter actually varies: two streams disagree somewhere.
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert!(
            (0..10).any(|_| backoff_delay(5, &mut a) != backoff_delay(5, &mut b)),
            "jittered delays must differ between rng streams"
        );
    }

    #[test]
    fn injection_shim_drops_and_counts() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let r0 = NodeId::Replica(ReplicaId(0));
        let r1 = NodeId::Replica(ReplicaId(1));
        let (stx, srx) = mpsc::channel();
        let (ctx, _crx) = mpsc::channel();
        let ts = Transport::start(r1, Some(l), vec![], stx);
        let plane = crate::inject::FaultPlane::new(9);
        let tc =
            Transport::start_faulted(vec![r0], None, vec![(r1, addr)], ctx, Some(plane.clone()));

        // Clean plane: frames flow.
        tc.send(r1, Arc::new(frame_bytes(&1u64)));
        let _ = recv_payload(&srx);

        // Total loss on r0 -> r1: nothing arrives, the drops are counted
        // on the transport and tallied per link on the plane.
        plane.set_link(
            r0,
            r1,
            bft_net::LinkProfile {
                drop_prob: 1.0,
                duplicate_prob: 0.0,
                jitter_us: 0,
                extra_latency_us: 0,
            },
        );
        for _ in 0..10 {
            tc.send(r1, Arc::new(frame_bytes(&2u64)));
        }
        assert!(srx.recv_timeout(Duration::from_millis(200)).is_err());
        assert_eq!(tc.stats().injected_dropped, 10);
        assert_eq!(plane.link_tally(r0, r1).dropped, 10);

        // Partition blocks without a profile; heal restores.
        plane.clear_link(r0, r1);
        plane.partition(&[vec![r0], vec![r1]]);
        tc.send(r1, Arc::new(frame_bytes(&3u64)));
        assert!(srx.recv_timeout(Duration::from_millis(200)).is_err());
        assert_eq!(tc.stats().injected_dropped, 11);
        plane.heal_partition();
        tc.send(r1, Arc::new(frame_bytes(&4u64)));
        let _ = recv_payload(&srx);

        ts.shutdown();
        tc.shutdown();
    }

    #[test]
    fn injection_shim_delays_and_duplicates() {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = l.local_addr().unwrap();
        let r0 = NodeId::Replica(ReplicaId(0));
        let r1 = NodeId::Replica(ReplicaId(1));
        let (stx, srx) = mpsc::channel();
        let (ctx, _crx) = mpsc::channel();
        let ts = Transport::start(r1, Some(l), vec![], stx);
        let plane = crate::inject::FaultPlane::new(10);
        let tc =
            Transport::start_faulted(vec![r0], None, vec![(r1, addr)], ctx, Some(plane.clone()));
        // Establish the connection before measuring latency.
        tc.send(r1, Arc::new(frame_bytes(&0u64)));
        let _ = recv_payload(&srx);

        // Every frame duplicated and held back ~200ms: two copies arrive,
        // neither immediately.
        plane.set_link(
            r0,
            r1,
            bft_net::LinkProfile {
                drop_prob: 0.0,
                duplicate_prob: 1.0,
                jitter_us: 1_000,
                extra_latency_us: 200_000,
            },
        );
        let started = std::time::Instant::now();
        tc.send(r1, Arc::new(frame_bytes(&5u64)));
        let first = recv_payload(&srx);
        assert!(
            started.elapsed() >= Duration::from_millis(150),
            "frame must be held back by the injected latency"
        );
        let second = recv_payload(&srx);
        assert_eq!(first, second, "the duplicate is a bit-identical copy");
        let stats = tc.stats();
        assert_eq!(stats.injected_duplicated, 1);
        assert_eq!(stats.injected_delayed, 2, "original + duplicate both held");
        let tally = plane.link_tally(r0, r1);
        assert_eq!((tally.delayed, tally.duplicated), (1, 1));

        ts.shutdown();
        tc.shutdown();
    }

    #[test]
    fn dialer_backs_off_until_server_appears() {
        // Learn a free port, then free it: the dialer starts against a
        // dead address and must connect once a listener appears there.
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = probe.local_addr().unwrap();
        drop(probe);
        let server = NodeId::Replica(ReplicaId(0));
        let client = NodeId::Client(ClientId(1));
        let (ctx, _crx) = mpsc::channel();
        let tc = Transport::start(client, None, vec![(server, addr)], ctx);
        // Let a few connect attempts fail and back off.
        std::thread::sleep(Duration::from_millis(150));
        let l = TcpListener::bind(addr).expect("bind the probed port");
        let (stx, srx) = mpsc::channel();
        let ts = Transport::start(server, Some(l), vec![], stx);
        // Frames sent during the outage drop; eventually one arrives.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut delivered = false;
        while std::time::Instant::now() < deadline {
            tc.send(server, Arc::new(frame_bytes(&99u64)));
            if srx.recv_timeout(Duration::from_millis(100)).is_ok() {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "reconnect with backoff restores delivery");
        ts.shutdown();
        tc.shutdown();
    }
}

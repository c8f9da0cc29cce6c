//! Drives the BFS Andrew benchmark (§8.6) against the live runtime.
//!
//! Two ways to run the same [`bfs::ScriptedOp`] script, both producing
//! the same per-phase report so the benchmark can set one against the
//! other:
//!
//! * [`run_andrew_mux`] — N logical clients over the multiplexed
//!   [`crate::client::run_mux_sources`] driver against a replicated
//!   cluster, pulling ops from one shared [`bfs::ScriptScheduler`] so
//!   dependency order and phase barriers hold across clients. Read-only
//!   ops ride the §5.1.3 quorum-reply fast path unless disabled.
//! * [`run_andrew_unreplicated_tcp`] — the paper's NFS-std analogue: one
//!   unreplicated server ([`UnreplicatedServer`]) speaking plain
//!   length-prefixed frames over TCP, N closed-loop connections sharing
//!   the same scheduler. Same syscalls, same wire hops, no protocol.

use crate::client::{run_mux_sources, NextOp, OpSource};
use crate::config::Topology;
use bfs::{BfsService, NfsReply, Phase, ScriptScheduler, ScriptedOp, PHASES};
use bft_core::CompletedOp;
use bft_statemachine::Service;
use bft_types::{ClientId, Requester};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-phase results of one Andrew run.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Display name of the phase (matches the thesis's tables).
    pub phase: &'static str,
    /// Operations completed in this phase.
    pub ops: u64,
    /// Wall clock from first invocation to last completion of the phase.
    pub wall: Duration,
    /// Per-operation latency in microseconds, completion order.
    pub latencies_us: Vec<u64>,
}

/// One full Andrew run in any configuration.
#[derive(Debug, Clone)]
pub struct AndrewRun {
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseReport>,
    /// Wall clock for the whole script.
    pub total_wall: Duration,
    /// Total operations completed.
    pub completed: u64,
    /// Operations that needed at least one client retransmission
    /// (always 0 for the unreplicated configurations).
    pub retransmitted: u64,
}

impl AndrewRun {
    /// Aggregate throughput over the whole run.
    pub fn ops_per_sec(&self) -> f64 {
        if self.total_wall.is_zero() {
            return 0.0;
        }
        self.completed as f64 / self.total_wall.as_secs_f64()
    }
}

/// Accumulates per-phase first-invoke/last-complete instants and
/// latencies. Phases are barriers in the scheduler, so "first invoke"
/// and "last complete" bracket the phase exactly.
#[derive(Default)]
struct Tally {
    started: [Option<Instant>; PHASES.len()],
    ended: [Option<Instant>; PHASES.len()],
    latencies_us: Vec<Vec<u64>>,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            latencies_us: vec![Vec::new(); PHASES.len()],
            ..Tally::default()
        }
    }

    fn index(phase: Phase) -> usize {
        PHASES
            .iter()
            .position(|p| *p == phase)
            .expect("known phase")
    }

    fn issue(&mut self, phase: Phase, now: Instant) {
        let i = Self::index(phase);
        self.started[i].get_or_insert(now);
    }

    fn finish(&mut self, phase: Phase, latency: Duration, now: Instant) {
        let i = Self::index(phase);
        self.ended[i] = Some(now);
        self.latencies_us[i].push(latency.as_micros() as u64);
    }

    fn into_run(self, fallback_wall: Duration, retransmitted: u64) -> AndrewRun {
        // Total wall is first invocation to last completion — the span
        // the paper's tables measure — so transport setup and teardown
        // outside the benchmark do not pollute the overhead ratios.
        let first = self.started.iter().flatten().min().copied();
        let last = self.ended.iter().flatten().max().copied();
        let total_wall = match (first, last) {
            (Some(s), Some(e)) => e.duration_since(s),
            _ => fallback_wall,
        };
        let mut phases = Vec::with_capacity(PHASES.len());
        let mut completed = 0u64;
        for (i, phase) in PHASES.iter().enumerate() {
            let ops = self.latencies_us[i].len() as u64;
            completed += ops;
            let wall = match (self.started[i], self.ended[i]) {
                (Some(s), Some(e)) => e.duration_since(s),
                _ => Duration::ZERO,
            };
            phases.push(PhaseReport {
                phase: phase.name(),
                ops,
                wall,
                latencies_us: self.latencies_us[i].clone(),
            });
        }
        AndrewRun {
            phases,
            total_wall,
            completed,
            retransmitted,
        }
    }
}

/// [`OpSource`] adapter: every idle logical client pulls the next ready
/// op from one shared [`ScriptScheduler`].
struct AndrewSource {
    sched: ScriptScheduler,
    tally: Tally,
    /// When false, read-only script ops are submitted as normal writes —
    /// the "fast paths disabled" benchmark configuration.
    mark_read_only: bool,
}

impl OpSource for AndrewSource {
    fn next(&mut self, _slot: usize, now: Instant) -> NextOp {
        if self.sched.is_finished() {
            return NextOp::Finished;
        }
        match self.sched.next_ready() {
            Some((idx, op, read_only)) => {
                self.tally.issue(self.sched.phase_of(idx), now);
                NextOp::Invoke {
                    op: op.encode(),
                    read_only: read_only && self.mark_read_only,
                    tag: idx as u64,
                }
            }
            None => NextOp::Wait,
        }
    }

    fn done(&mut self, _slot: usize, tag: u64, op: &CompletedOp, latency: Duration) -> Instant {
        let idx = tag as usize;
        let reply = NfsReply::decode(&op.result).expect("well-formed BFS reply");
        self.sched.complete(idx, &reply);
        self.tally
            .finish(self.sched.phase_of(idx), latency, Instant::now());
        Instant::now()
    }

    fn finished(&self) -> bool {
        self.sched.is_finished()
    }
}

/// Builds the scheduler in RPC-replay or application mode.
fn scheduler(script: Vec<ScriptedOp>, app_work: bool) -> ScriptScheduler {
    if app_work {
        ScriptScheduler::with_app_work(script)
    } else {
        ScriptScheduler::new(script)
    }
}

/// Runs the Andrew script against a replicated cluster with `ids.len()`
/// concurrent logical clients on the multiplexed driver. Read-only
/// script ops use the §5.1.3 fast path unless `mark_read_only` is
/// false; `app_work` charges the benchmark's client-side compute on
/// every completion (see [`bfs::app_work`]).
///
/// # Panics
///
/// Panics if the script does not complete before `deadline`, or if any
/// op returns an NFS error (the script is constructed to succeed).
pub fn run_andrew_mux(
    ids: &[ClientId],
    topo: &Topology,
    script: Vec<ScriptedOp>,
    mark_read_only: bool,
    app_work: bool,
    deadline: Duration,
) -> AndrewRun {
    let total = script.len();
    let mut source = AndrewSource {
        sched: scheduler(script, app_work),
        tally: Tally::new(),
        mark_read_only,
    };
    let started = Instant::now();
    let reports = run_mux_sources(ids, topo, &mut source, None, deadline);
    let total_wall = started.elapsed();
    assert!(
        source.sched.is_finished(),
        "Andrew run incomplete at the {deadline:?} deadline: {}/{total} ops",
        source.sched.completed(),
    );
    let retransmitted = reports.iter().map(|r| r.retransmitted).sum();
    source.tally.into_run(total_wall, retransmitted)
}

// ---------------------------------------------------------------------
// Unreplicated-over-TCP baseline (the paper's NFS-std analogue).
// ---------------------------------------------------------------------

/// Wire format of the unreplicated baseline: `u32` LE body length, `u64`
/// LE tag, then the encoded op/reply. No MACs, no protocol — the
/// baseline is *supposed* to be cheaper than BFS on everything but the
/// syscalls and the socket hops.
fn write_frame(w: &mut impl Write, tag: u64, body: &[u8]) -> std::io::Result<()> {
    let len = (8 + body.len()) as u32;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

fn read_frame(r: &mut impl Read) -> std::io::Result<(u64, Vec<u8>)> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if !(8..=1 << 24).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "bad frame length",
        ));
    }
    let mut tag = [0u8; 8];
    r.read_exact(&mut tag)?;
    let mut body = vec![0u8; len - 8];
    r.read_exact(&mut body)?;
    Ok((u64::from_le_bytes(tag), body))
}

/// A single unreplicated [`BfsService`] served over TCP: the baseline
/// file server the replicated configurations are measured against.
pub struct UnreplicatedServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl UnreplicatedServer {
    /// Binds an ephemeral localhost port and starts serving.
    pub fn start(buckets: u64) -> UnreplicatedServer {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind baseline server");
        let addr = listener.local_addr().expect("local addr");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let shutdown = Arc::new(AtomicBool::new(false));
        // Service plus its op timestamp: the baseline still feeds the
        // service a monotonically increasing nondet clock, like a
        // primary would, so mtimes advance the same way.
        let service = Arc::new(Mutex::new((BfsService::new_realtime(buckets), 0u64)));
        let stop = Arc::clone(&shutdown);
        let accept = std::thread::spawn(move || {
            let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nodelay(true).ok();
                        let service = Arc::clone(&service);
                        conns.push(std::thread::spawn(move || serve_conn(stream, &service)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
            for c in conns {
                c.join().ok();
            }
        });
        UnreplicatedServer {
            addr,
            shutdown,
            accept: Some(accept),
        }
    }

    /// The server's listen address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for UnreplicatedServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

/// One baseline connection: read an op frame, execute, reply. Exits on
/// any socket error (client closed).
fn serve_conn(stream: TcpStream, service: &Mutex<(BfsService, u64)>) {
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = std::io::BufWriter::new(stream);
    let client = Requester::Client(ClientId(0));
    loop {
        let Ok((tag, body)) = read_frame(&mut reader) else {
            return;
        };
        let reply = {
            let mut guard = service.lock().expect("service lock");
            let (svc, t) = &mut *guard;
            *t += 1;
            let nondet = t.to_le_bytes();
            svc.execute(client, &body, &nondet)
        };
        if write_frame(&mut writer, tag, &reply).is_err() {
            return;
        }
    }
}

/// Runs the Andrew script against an [`UnreplicatedServer`] with
/// `conns` closed-loop TCP connections sharing one scheduler — the same
/// concurrency structure as [`run_andrew_mux`], minus replication.
///
/// # Panics
///
/// Panics if the script does not complete before `deadline` or a
/// connection dies mid-run.
pub fn run_andrew_unreplicated_tcp(
    addr: SocketAddr,
    conns: usize,
    script: Vec<ScriptedOp>,
    app_work: bool,
    deadline: Duration,
) -> AndrewRun {
    let total = script.len();
    let shared = Mutex::new((scheduler(script, app_work), Tally::new()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..conns.max(1) {
            scope.spawn(|| {
                let stream = TcpStream::connect(addr).expect("connect baseline server");
                stream.set_nodelay(true).ok();
                let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = std::io::BufWriter::new(stream);
                loop {
                    assert!(
                        started.elapsed() < deadline,
                        "baseline run incomplete at the {deadline:?} deadline"
                    );
                    let issued = {
                        let mut guard = shared.lock().expect("scheduler lock");
                        let (sched, tally) = &mut *guard;
                        if sched.is_finished() {
                            return;
                        }
                        match sched.next_ready() {
                            Some((idx, op, _read_only)) => {
                                let now = Instant::now();
                                tally.issue(sched.phase_of(idx), now);
                                Some((idx, op.encode(), now))
                            }
                            None => None,
                        }
                    };
                    let Some((idx, op, invoked)) = issued else {
                        // Dependencies in flight on other connections.
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    };
                    write_frame(&mut writer, idx as u64, &op).expect("baseline send");
                    let (tag, body) = read_frame(&mut reader).expect("baseline recv");
                    assert_eq!(tag, idx as u64, "baseline reply out of order");
                    let latency = invoked.elapsed();
                    let reply = NfsReply::decode(&body).expect("well-formed baseline reply");
                    let mut guard = shared.lock().expect("scheduler lock");
                    let (sched, tally) = &mut *guard;
                    sched.complete(idx, &reply);
                    tally.finish(sched.phase_of(idx), latency, Instant::now());
                }
            });
        }
    });
    let total_wall = started.elapsed();
    let (sched, tally) = shared.into_inner().expect("scheduler lock");
    assert!(
        sched.is_finished(),
        "baseline run incomplete: {}/{total} ops",
        sched.completed(),
    );
    tally.into_run(total_wall, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfs::{generate_script, AndrewConfig};

    #[test]
    fn unreplicated_tcp_baseline_completes_and_matches_direct_counts() {
        let script = generate_script(&AndrewConfig::tiny());
        let total = script.len() as u64;
        let server = UnreplicatedServer::start(8);
        let run = run_andrew_unreplicated_tcp(
            server.addr(),
            3,
            script.clone(),
            false,
            Duration::from_secs(30),
        );
        assert_eq!(run.completed, total);
        assert_eq!(run.retransmitted, 0);
        assert_eq!(run.phases.len(), PHASES.len());
        for (report, phase) in run.phases.iter().zip(PHASES) {
            assert_eq!(report.phase, phase.name());
            let scripted = script.iter().filter(|op| op.phase == phase).count() as u64;
            assert_eq!(
                report.ops, scripted,
                "phase {} op count differs",
                report.phase
            );
            assert_eq!(report.latencies_us.len() as u64, scripted);
        }
        assert!(run.ops_per_sec() > 0.0);
    }

    #[test]
    fn baseline_frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, b"hello").expect("write");
        let (tag, body) = read_frame(&mut buf.as_slice()).expect("read");
        assert_eq!(tag, 42);
        assert_eq!(body, b"hello");
        // Truncated frame errors instead of blocking forever.
        assert!(read_frame(&mut buf[..6].as_ref()).is_err());
    }
}

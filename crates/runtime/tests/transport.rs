//! The transport endpoint against misbehaving peers, through its public
//! API only.
//!
//! Hostile bytes on the accept path — a garbage greeting, an empty
//! identity list, an oversize length header, EOF in the middle of a
//! frame — must each close only the connection that sent them, bump
//! `framing_errors` once, and leave the endpoint serving its other
//! peers. A peer that never reads and a peer that cannot be reached
//! must never block the owning thread.

use bft_runtime::transport::BACKLOG_BYTES;
use bft_runtime::{Endpoint, Transport};
use bft_types::framing::{frame_bytes, frame_payload, FRAME_MAGIC, MAX_FRAME_PAYLOAD};
use bft_types::{ClientId, NodeId, ReplicaId, Wire};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WAIT: Duration = Duration::from_secs(5);

fn expect_u64(rx: &Receiver<Vec<u8>>, want: u64) {
    let payload = rx.recv_timeout(WAIT).expect("payload");
    let mut slice = payload.as_slice();
    assert_eq!(u64::decode(&mut slice), Ok(want));
}

/// Boots a listening endpoint and a well-behaved client with a working
/// return route, throws `hostile` at the listener from a raw socket, and
/// checks the three properties.
fn hostile_connection_is_isolated(hostile: &[u8], half_close: bool) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server_id = NodeId::Replica(ReplicaId(0));
    let client_id = NodeId::Client(ClientId(1));
    let (stx, srx) = mpsc::channel();
    let (ctx, crx) = mpsc::channel();
    let server = Transport::start(server_id, Some(listener), vec![], stx);
    let client = Transport::start(client_id, None, vec![(server_id, addr)], ctx);
    client.send(server_id, Arc::new(frame_bytes(&1u64)));
    expect_u64(&srx, 1);
    server.send(client_id, Arc::new(frame_bytes(&2u64)));
    expect_u64(&crx, 2);

    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(hostile).unwrap();
    if half_close {
        raw.shutdown(Shutdown::Write).unwrap();
    }
    // The endpoint hangs up on the hostile connection.
    raw.set_read_timeout(Some(WAIT)).unwrap();
    let mut buf = [0u8; 64];
    match raw.read(&mut buf) {
        Ok(0) => {}
        Err(e) if !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("hostile connection still open: {other:?}"),
    }
    let deadline = Instant::now() + WAIT;
    while server.stats().framing_errors == 0 {
        assert!(Instant::now() < deadline, "framing error not counted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Everyone else is still served, both ways.
    client.send(server_id, Arc::new(frame_bytes(&3u64)));
    expect_u64(&srx, 3);
    server.send(client_id, Arc::new(frame_bytes(&4u64)));
    expect_u64(&crx, 4);
    let stats = server.stats();
    assert_eq!(stats.framing_errors, 1, "{stats:?}");
    assert_eq!(stats.accepts, 2, "{stats:?}");
    assert!(srx.try_recv().is_err(), "no hostile payload was delivered");
    client.shutdown();
    server.shutdown();
}

#[test]
fn garbage_greeting_closes_only_its_connection() {
    // A checksum-clean frame whose payload is no identity list.
    hostile_connection_is_isolated(&frame_payload(&[0xde, 0xad, 0xbe, 0xef, 7]), false);
}

#[test]
fn empty_identity_list_closes_only_its_connection() {
    hostile_connection_is_isolated(&frame_bytes(&Vec::<NodeId>::new()), false);
}

#[test]
fn oversize_length_header_closes_only_its_connection() {
    let mut header = FRAME_MAGIC.to_vec();
    header.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    hostile_connection_is_isolated(&header, false);
}

#[test]
fn eof_inside_a_frame_closes_only_its_connection() {
    // A valid greeting, then half a frame, then the peer hangs up.
    let mut bytes = frame_bytes(&vec![NodeId::Client(ClientId(7))]);
    let frame = frame_bytes(&99u64);
    bytes.extend_from_slice(&frame[..frame.len() / 2]);
    hostile_connection_is_isolated(&bytes, true);
}

/// A peer that accepts but never reads: the kernel buffers fill, then
/// the backlog, then frames drop and are counted — and no call on the
/// owning thread ever blocks.
#[test]
fn full_backlog_drops_and_counts_without_blocking() {
    let sink = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer = NodeId::Replica(ReplicaId(1));
    let mut ep = Endpoint::new(
        vec![NodeId::Replica(ReplicaId(0))],
        None,
        vec![(peer, sink.local_addr().unwrap())],
        None,
    )
    .unwrap();
    let mut inbox = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(5);
    while ep.probe().stats().connects == 0 {
        assert!(Instant::now() < deadline, "never connected");
        ep.poll(Duration::from_millis(10), &mut inbox);
    }
    let (_held_open, _) = sink.accept().unwrap();

    let frame = vec![0x5a; 64 * 1024];
    // Far more than the backlog plus any loopback socket buffers.
    let total = 4 * (BACKLOG_BYTES / frame.len()) + 512;
    let mut slowest = Duration::ZERO;
    for _ in 0..total {
        let started = Instant::now();
        ep.send(peer, &frame);
        ep.flush();
        ep.poll(Duration::ZERO, &mut inbox);
        slowest = slowest.max(started.elapsed());
    }
    let stats = ep.probe().stats();
    assert!(
        slowest < Duration::from_millis(500),
        "a send/flush/poll round blocked for {slowest:?}"
    );
    assert!(
        stats.frames_dropped > 0,
        "the backlog overflowed: {stats:?}"
    );
    assert_eq!(stats.frames_sent + stats.frames_dropped, total as u64);
    assert!(
        (stats.frames_sent as usize) * frame.len() > BACKLOG_BYTES,
        "the backlog filled before dropping: {stats:?}"
    );
    ep.shutdown();
    assert_eq!(ep.probe().residual_state(), (0, 0, 0));
}

/// The dialer makes connects off the loop: while it keeps failing and
/// backing off against a dead address, the endpoint still honours
/// its poll timeouts and serves a live peer.
#[test]
fn unreachable_peer_delays_neither_timers_nor_other_peers() {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let live_addr = l.local_addr().unwrap();
    let probe = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead_addr = probe.local_addr().unwrap();
    drop(probe);
    let (r0, r1, r9) = (
        NodeId::Replica(ReplicaId(0)),
        NodeId::Replica(ReplicaId(1)),
        NodeId::Replica(ReplicaId(9)),
    );
    let (stx, srx) = mpsc::channel();
    let server = Transport::start(r1, Some(l), vec![], stx);
    let mut ep =
        Endpoint::new(vec![r0], None, vec![(r9, dead_addr), (r1, live_addr)], None).unwrap();
    let mut inbox = Vec::new();
    let tick = Duration::from_millis(10);
    let started = Instant::now();
    let mut received = 0;
    for k in 0..60u64 {
        ep.send(r9, &frame_bytes(&k));
        ep.send(r1, &frame_bytes(&k));
        ep.flush();
        let before = Instant::now();
        ep.poll(tick, &mut inbox);
        assert!(
            before.elapsed() < tick + Duration::from_millis(250),
            "poll overran its timeout: {:?}",
            before.elapsed()
        );
        while srx.try_recv().is_ok() {
            received += 1;
        }
    }
    // 60 ticks of 10 ms: about 0.6 s, several failed dial attempts.
    assert!(started.elapsed() < Duration::from_secs(3));
    while received < 60 {
        srx.recv_timeout(WAIT).expect("payload");
        received += 1;
    }
    let stats = ep.probe().stats();
    assert_eq!(stats.connects, 1, "only the live peer connected");
    assert!(stats.frames_dropped > 0, "frames to the dead peer drop");
    ep.shutdown();
    server.shutdown();
}

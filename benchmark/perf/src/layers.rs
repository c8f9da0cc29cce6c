//! Single layers timed through their public functions, on the
//! workload's own message shapes: `types` (encode, decode, framing),
//! `crypto` (digest, MAC, authenticator), `runtime.transport` (one hop,
//! streaming rate), and the Chapter 7 model fed with what was measured.
//!
//! Each measurement repeats a short pass many times, records every pass
//! as a span, and reports the median pass, so one descheduled pass does
//! not move the number.

use crate::replay::Sent;
use crate::spans::Recorder;
use crate::stats::percentile;
use bft_crypto::{Authenticator, SessionKey};
use bft_model::{Component, ModelParams};
use bft_runtime::Transport;
use bft_types::framing::{frame_payload, FrameDecoder};
use bft_types::{ClientId, Message, NodeId, ReplicaId, Wire};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runs `pass` as one span per call until at least `passes` calls and
/// `budget` of wall time are spent; returns the median pass, ns.
fn median_pass_ns(
    rec: &Recorder,
    name: &'static str,
    passes: usize,
    budget: Duration,
    mut pass: impl FnMut(),
) -> f64 {
    pass(); // Warm caches and lazy buffers outside the record.
    let started = Instant::now();
    let mut durations = Vec::new();
    while durations.len() < passes || started.elapsed() < budget {
        let before = rec.now_ns();
        rec.time(name, 0, 0, &mut pass);
        durations.push((rec.now_ns() - before) as f64);
    }
    durations.sort_by(f64::total_cmp);
    percentile(&durations, 0.5)
}

/// Cost of the `types` layer on one committed op's share of messages.
pub struct TypesCost {
    pub encode_ns_per_op: f64,
    pub decode_ns_per_op: f64,
    pub frame_ns_per_kb: f64,
    /// Mean encoded size of a client request, bytes.
    pub request_bytes: usize,
    /// Mean operation and result sizes in requests and replies, bytes.
    pub arg_bytes: usize,
    pub result_bytes: usize,
}

/// Encodes every captured message once (as its sender does), decodes it
/// once per destination (as each receiver does), and frames/unframes the
/// encoded payloads the same way; divides by the ops the capture holds.
pub fn types_replay(rec: &Recorder, sends: &[Sent], ops: u64) -> TypesCost {
    let payloads: Vec<(Vec<u8>, u32)> = sends
        .iter()
        .map(|s| {
            let mut buf = Vec::new();
            s.msg.encode(&mut buf);
            (buf, s.dests)
        })
        .collect();
    let ops = ops.max(1) as f64;
    let budget = Duration::from_millis(150);

    let mut buf = Vec::new();
    let encode = median_pass_ns(rec, "types.encode", 5, budget, || {
        for s in sends {
            buf.clear();
            s.msg.encode(&mut buf);
            black_box(&buf);
        }
    });
    let decode = median_pass_ns(rec, "types.decode", 5, budget, || {
        for (payload, dests) in &payloads {
            for _ in 0..*dests {
                let mut slice = payload.as_slice();
                black_box(Message::decode(&mut slice).expect("own encoding decodes"));
            }
        }
    });
    let mut decoder = FrameDecoder::new();
    let frame = median_pass_ns(rec, "types.frame", 5, budget, || {
        for (payload, dests) in &payloads {
            let framed = frame_payload(payload);
            for _ in 0..*dests {
                decoder.extend(&framed);
                black_box(decoder.next_payload().expect("own frame parses"));
            }
        }
    });
    let framed_kb: f64 = payloads
        .iter()
        .map(|(p, d)| p.len() as f64 * (1.0 + *d as f64))
        .sum::<f64>()
        / 1024.0;

    let mean = |sizes: Vec<usize>| sizes.iter().sum::<usize>() / sizes.len().max(1);
    let requests: Vec<&bft_types::Request> = sends
        .iter()
        .filter_map(|s| match &s.msg {
            Message::Request(r) => Some(r),
            _ => None,
        })
        .collect();
    TypesCost {
        encode_ns_per_op: encode / ops,
        decode_ns_per_op: decode / ops,
        frame_ns_per_kb: frame / framed_kb.max(1e-9),
        request_bytes: mean(
            sends
                .iter()
                .filter(|s| matches!(s.msg, Message::Request(_)))
                .map(|s| s.msg.wire_size())
                .collect(),
        ),
        arg_bytes: mean(requests.iter().map(|r| r.operation.len()).collect()),
        result_bytes: mean(
            sends
                .iter()
                .filter_map(|s| match &s.msg {
                    Message::Reply(r) => match &r.body {
                        bft_types::ReplyBody::Full(result) => Some(result.len()),
                        bft_types::ReplyBody::DigestOnly(_) => None,
                    },
                    _ => None,
                })
                .collect(),
        ),
    }
}

/// Cost of the `crypto` layer's primitives.
pub struct CryptoCost {
    pub digest_ns_per_kb: f64,
    /// Digest of a 64-byte input, ns (the fixed term).
    pub digest_small_ns: f64,
    pub mac_ns: f64,
    pub auth_gen_ns: f64,
    pub auth_verify_ns: f64,
}

/// Times the digest over a 4 KiB and a 64-byte input, one MAC over a
/// header-sized input, and generating and verifying a four-entry
/// authenticator (one entry per replica, as every multicast carries).
pub fn crypto_replay(rec: &Recorder, seed: u64) -> CryptoCost {
    const CALLS: usize = 64;
    let budget = Duration::from_millis(60);
    let per_call = |ns: f64| ns / CALLS as f64;
    let big = vec![0xa5u8; 4096];
    let header = vec![0x5au8; 64];
    let keys: Vec<SessionKey> = (0..4).map(|i| SessionKey::from_seed(seed ^ i)).collect();

    let digest_big = median_pass_ns(rec, "crypto.digest_4k", 5, budget, || {
        for _ in 0..CALLS {
            black_box(bft_crypto::digest(black_box(&big)));
        }
    });
    let digest_small = median_pass_ns(rec, "crypto.digest_64", 5, budget, || {
        for _ in 0..CALLS {
            black_box(bft_crypto::digest(black_box(&header)));
        }
    });
    let mac = median_pass_ns(rec, "crypto.mac", 5, budget, || {
        for _ in 0..CALLS {
            black_box(bft_crypto::hmac::mac(&keys[1], black_box(&header)));
        }
    });
    let auth_gen = median_pass_ns(rec, "crypto.auth_gen", 5, budget, || {
        for nonce in 0..CALLS as u64 {
            black_box(Authenticator::generate(&keys, nonce, black_box(&header)));
        }
    });
    let auth = Authenticator::generate(&keys, 9, &header);
    let auth_verify = median_pass_ns(rec, "crypto.auth_verify", 5, budget, || {
        for _ in 0..CALLS {
            assert!(black_box(&auth).verify(2, &keys[2], black_box(&header)));
        }
    });
    CryptoCost {
        digest_ns_per_kb: per_call(digest_big) / 4.0,
        digest_small_ns: per_call(digest_small),
        mac_ns: per_call(mac),
        auth_gen_ns: per_call(auth_gen),
        auth_verify_ns: per_call(auth_verify),
    }
}

/// `crypto.us_per_op`, derived from the replayed message mix: every
/// message is authenticated once by its sender (an authenticator when it
/// goes to several replicas, one MAC otherwise) and verified once by
/// each receiver, and its bytes are digested once at the sender and once
/// at each receiver.
pub const CRYPTO_FORMULA: &str = "crypto.us_per_op = [sum over sent messages of (auth_gen_ns if dests > 1 else mac_ns) + dests * auth_verify_ns + (1 + dests) * bytes/1024 * digest_ns_per_kb] / ops / 1000";

pub fn crypto_us_per_op(cost: &CryptoCost, sends: &[Sent], ops: u64) -> f64 {
    let ns: f64 = sends
        .iter()
        .map(|s| {
            let dests = s.dests as f64;
            let kb = s.msg.wire_size() as f64 / 1024.0;
            (if s.dests > 1 {
                cost.auth_gen_ns
            } else {
                cost.mac_ns
            }) + dests * cost.auth_verify_ns
                + (1.0 + dests) * kb * cost.digest_ns_per_kb
        })
        .sum();
    ns / ops.max(1) as f64 / 1e3
}

/// Cost of the `runtime.transport` layer.
pub struct TransportCost {
    pub hop_us_p50: f64,
    pub stream_frames_per_s: f64,
}

/// Two transports on loopback: a listener and a dialer, as a replica and
/// a client are. Ping-pongs one frame of `frame_bytes` to time a hop
/// (half a round trip: queue, writer thread, socket, reader thread,
/// channel), then streams frames one way to time the sustained rate.
pub fn transport_replay(rec: &Recorder, frame_bytes: usize) -> Result<TransportCost, String> {
    const PINGS: usize = 1500;
    const STREAM: usize = 40_000;
    const WINDOW: usize = 256;
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("addr: {e}"))?;
    let server_id = NodeId::Replica(ReplicaId(0));
    let client_id = NodeId::Client(ClientId(0));
    let (server_tx, server_rx) = mpsc::channel::<Vec<u8>>();
    let (client_tx, client_rx) = mpsc::channel::<Vec<u8>>();
    let server = Transport::start(server_id, Some(listener), Vec::new(), server_tx);
    let client = Transport::start(client_id, None, vec![(server_id, addr)], client_tx);
    let frame = Arc::new(frame_payload(&vec![0x42u8; frame_bytes.max(1)]));
    let wait = Duration::from_secs(5);

    let result = (|| {
        let mut hops = Vec::with_capacity(PINGS);
        for i in 0..PINGS + 50 {
            let before = rec.now_ns();
            client.send(server_id, Arc::clone(&frame));
            server_rx
                .recv_timeout(wait)
                .map_err(|_| "transport ping lost".to_string())?;
            server.send(client_id, Arc::clone(&frame));
            client_rx
                .recv_timeout(wait)
                .map_err(|_| "transport pong lost".to_string())?;
            let after = rec.now_ns();
            // The first round trips include connecting and greeting.
            if i >= 50 {
                rec.push(crate::spans::Span {
                    id: rec.fresh_id(),
                    parent: 0,
                    name: "runtime.transport.round_trip",
                    op: 0,
                    start_ns: before,
                    end_ns: after,
                });
                hops.push((after - before) as f64 / 2.0 / 1e3);
            }
        }
        hops.sort_by(f64::total_cmp);

        // A bounded window in flight: the outbound queue drops on
        // overflow, and a dropped frame would never be counted.
        let started = Instant::now();
        let (mut sent, mut received) = (0usize, 0usize);
        while received < STREAM {
            while sent < STREAM && sent - received < WINDOW {
                client.send(server_id, Arc::clone(&frame));
                sent += 1;
            }
            server_rx
                .recv_timeout(wait)
                .map_err(|_| format!("transport stream stalled at {received}/{STREAM}"))?;
            received += 1;
            while server_rx.try_recv().is_ok() {
                received += 1;
            }
        }
        Ok(TransportCost {
            hop_us_p50: percentile(&hops, 0.5),
            stream_frames_per_s: STREAM as f64 / started.elapsed().as_secs_f64(),
        })
    })();
    client.shutdown();
    server.shutdown();
    result
}

/// The Chapter 7 model with this host's measured components in place of
/// the thesis testbed's, as §8.3 calibrates it.
pub fn measured_model(
    crypto: &CryptoCost,
    transport: &TransportCost,
    execute_us: f64,
) -> ModelParams {
    let digest_per_byte_us = crypto.digest_ns_per_kb / 1024.0 / 1e3;
    // Per-message CPU at each end: half of what one streamed frame costs
    // the sender-to-receiver pipeline.
    let end_us = 0.5e6 / transport.stream_frames_per_s;
    ModelParams {
        n: 4,
        f: 1,
        digest: Component {
            fixed_us: (crypto.digest_small_ns / 1e3 - 64.0 * digest_per_byte_us).max(0.0),
            per_byte_us: digest_per_byte_us,
        },
        mac: Component {
            fixed_us: crypto.mac_ns / 1e3,
            per_byte_us: 0.0,
        },
        send: Component {
            fixed_us: end_us,
            per_byte_us: 0.0,
        },
        recv: Component {
            fixed_us: end_us,
            per_byte_us: 0.0,
        },
        // What a hop takes beyond the CPU at its two ends: hand-offs
        // between threads and the socket.
        wire: Component {
            fixed_us: (transport.hop_us_p50 - 2.0 * end_us).max(0.0),
            per_byte_us: 0.0,
        },
        execute_us,
        ..ModelParams::thesis(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_formula_counts_each_role_once() {
        let cost = CryptoCost {
            digest_ns_per_kb: 1024.0,
            digest_small_ns: 0.0,
            mac_ns: 10.0,
            auth_gen_ns: 40.0,
            auth_verify_ns: 12.0,
        };
        let request = bft_types::Request {
            requester: bft_types::Requester::Client(ClientId(0)),
            timestamp: bft_types::Timestamp(1),
            operation: bytes::Bytes::from_static(b"op"),
            read_only: false,
            replier: None,
            auth: bft_types::Auth::None,
            digest_memo: bft_types::DigestMemo::new(),
        };
        let msg = Message::Request(request);
        let size = msg.wire_size() as f64;
        let sends = vec![
            Sent {
                msg: msg.clone(),
                dests: 1,
            },
            Sent { msg, dests: 3 },
        ];
        let expect = ((10.0 + 12.0 + 2.0 * size) + (40.0 + 36.0 + 4.0 * size)) / 2.0 / 1e3;
        assert!((crypto_us_per_op(&cost, &sends, 2) - expect).abs() < 1e-9);
    }

    #[test]
    fn median_pass_records_one_span_per_pass() {
        let rec = Recorder::new();
        let mut calls = 0;
        let ns = median_pass_ns(&rec, "t", 7, Duration::ZERO, || calls += 1);
        assert!(ns >= 0.0);
        assert_eq!(calls, 8, "one warm-up pass plus seven recorded");
        assert_eq!(rec.snapshot().len(), 7);
    }
}

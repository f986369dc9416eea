//! Fault injection for the networked serving tier.
//!
//! Every failure mode must surface as a **typed error** and leave the
//! tier serviceable — never a panic, never a hang:
//!
//! * a shard worker process killed with SIGKILL mid-workload fails the
//!   in-flight request with [`ServeError::Shard`] naming the affected
//!   user, is respawned under supervision, and the next request replays
//!   **bit-identically** from the supervisor's surviving stores;
//! * an oversized or torn frame gets a typed `Transport` reply and a
//!   closed connection, with the server still serving others;
//! * admission-queue overflow sheds with [`ServeError::Overloaded`],
//!   deterministically (the test controls queue occupancy exactly; no
//!   timing assumptions);
//! * loopback round trips never wait on a delayed ACK, whether they run
//!   one after another or two at a time on one connection.
//!
//! No sleep-based correctness anywhere: tests poll observable state
//! ([`NetServer::stats`], [`ProcessShardBackend::health`]) with a
//! deadline. The one elapsed-time bound is the delayed-ACK test's: a
//! median round trip under 20 ms, half Linux's 40 ms minimum
//! delayed-ACK timeout and ~360× the ~55 µs the stall-free path takes,
//! so only a stall, not a slow machine, can fail it.

// Test code: assertion-style unwraps are the point.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use justintime::jit_service::wire::{self, Message};
use justintime::prelude::*;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Polls `cond` until it holds or `deadline` passes (correctness never
/// depends on the sleep length — it only paces the polling).
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    loop {
        if cond() {
            return true;
        }
        if start.elapsed() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

const DEADLINE: Duration = Duration::from_secs(30);

// ---------------------------------------------------------------------
// Shard process killed mid-workload
// ---------------------------------------------------------------------

fn small_spec() -> TrainSpec {
    TrainSpec {
        data: DataSpec { records_per_year: 60, n_years: 3, ..Default::default() },
        config: AdminConfig {
            horizon: 1,
            future: FutureModelsParams {
                n_landmarks: 10,
                pool_slices: 2,
                forest: RandomForestParams { n_trees: 4, ..Default::default() },
                ..Default::default()
            },
            candidates: CandidateParams {
                beam_width: 3,
                max_iters: 2,
                top_k: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    }
}

#[test]
fn killed_shard_fails_typed_then_recovers_bit_identically() {
    let shardd = env!("CARGO_BIN_EXE_jit-shardd");
    let spec = small_spec();
    let schema = spec.schema();
    let backend = Arc::new(
        ProcessShardBackend::spawn(spec, ProcessShardConfig::new(shardd, 2), |_| {
            Arc::new(MemorySnapshotStore::new())
        })
        .expect("spawn shard processes"),
    );
    let server = NetServer::bind(
        Arc::clone(&backend) as Arc<dyn ServeBackend>,
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");
    let mut client =
        NetClient::connect(server.addr(), schema.clone()).expect("connect");

    // Cold-serve 8 users through the full stack, then capture the
    // canonical refresh bytes — the recovery bar.
    let members: Vec<CohortMember> = (0..8)
        .map(|i| {
            CohortMember::new(
                format!("nf-{i}"),
                UserRequest::new(justintime::jit_service::loadgen::synthetic_profile(
                    &schema, 0, 0, i,
                )),
            )
        })
        .collect();
    let ids: Vec<String> = members.iter().map(|m| m.user_id.clone()).collect();
    client.serve(ServeRequest::Batch(members)).expect("cold serve");
    let reference = wire::response_bytes(
        &client.serve(ServeRequest::refresh(ids.clone())).expect("reference refresh"),
    );

    // SIGKILL the shard that owns nf-0, behind the supervisor's back.
    let victim_shard = backend.shard_of(&ids[0]);
    let killed_pid = backend.kill_shard(victim_shard).expect("a live worker to kill");
    assert!(killed_pid > 0);

    // The in-flight request discovers the corpse: typed Shard error
    // naming the earliest affected user on that shard, through TCP.
    let victims: Vec<String> =
        ids.iter().filter(|id| backend.shard_of(id) == victim_shard).cloned().collect();
    let err = client.serve(ServeRequest::refresh(victims.clone())).unwrap_err();
    match &err {
        ServeError::Shard { shard, user_id, .. } => {
            assert_eq!(*shard, victim_shard);
            assert_eq!(user_id, &victims[0], "earliest affected user in request order");
        }
        other => panic!("expected a Shard error, got {other}"),
    }

    // Supervised restart: the next request respawns the worker (which
    // retrains deterministically) and succeeds; nothing was lost —
    // the refresh replays bit-for-bit from the supervisor's store.
    let recovered = wire::response_bytes(
        &client.serve(ServeRequest::refresh(ids.clone())).expect("recovered refresh"),
    );
    assert_eq!(recovered, reference, "replay after restart must be bit-identical");
    assert!(
        recovered.len() > 8 * 16,
        "refresh must carry real snapshots, not an empty response"
    );
    let health = backend.health();
    assert!(health[victim_shard].alive);
    assert_eq!(health[victim_shard].restarts, 1, "exactly one supervised restart");
    assert_ne!(health[victim_shard].pid, Some(killed_pid));
    let other = 1 - victim_shard;
    assert_eq!(health[other].restarts, 0, "the surviving shard was not touched");

    server.shutdown();
    backend.shutdown();
}

// ---------------------------------------------------------------------
// Protocol abuse: oversized and torn frames
// ---------------------------------------------------------------------

/// A backend whose serving blocks until released — lets tests pin the
/// worker and fill the admission queue with exact, deterministic
/// occupancy. Ships a real schema so request frames decode.
#[derive(Debug)]
struct GatedBackend {
    schema: FeatureSchema,
    released: Mutex<bool>,
    gate: Condvar,
}

impl GatedBackend {
    fn new() -> Self {
        GatedBackend {
            schema: FeatureSchema::lending_club(),
            released: Mutex::new(false),
            gate: Condvar::new(),
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.gate.notify_all();
    }
}

impl ServeBackend for GatedBackend {
    fn schema(&self) -> &FeatureSchema {
        &self.schema
    }

    fn serve_wire(&self, _: ServeRequest) -> Result<WireResponse, ServeError> {
        let mut released = self.released.lock().unwrap();
        while !*released {
            released = self.gate.wait(released).unwrap();
        }
        Ok(WireResponse::default())
    }
}

fn probe_request(id: u64) -> Vec<u8> {
    wire::encode_message(&Message::Serve {
        id,
        request: ServeRequest::new_user(
            format!("probe-{id}"),
            UserRequest::new(vec![1.0]),
        ),
    })
}

#[test]
fn oversized_frame_gets_a_typed_reply_and_a_closed_connection() {
    let backend = Arc::new(GatedBackend::new());
    backend.release();
    let server = NetServer::bind(
        Arc::clone(&backend) as Arc<dyn ServeBackend>,
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");

    // Claim a frame bigger than the cap; send only the length prefix.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let huge = (wire::MAX_FRAME_LEN as u32 + 1).to_le_bytes();
    raw.write_all(&huge).expect("write length");
    raw.flush().unwrap();

    // Typed Transport reply, no allocation of the claimed size, then the
    // server closes the connection.
    let body = wire::read_frame(&mut raw, wire::MAX_FRAME_LEN).expect("typed reply");
    match wire::decode_message(&body, None).expect("decodable reply") {
        Message::Failed { id: 0, error: ServeError::Transport(detail) } => {
            assert!(detail.contains("oversized"), "{detail}");
        }
        other => panic!("expected a transport failure reply, got {other:?}"),
    }
    assert!(
        matches!(
            wire::read_frame(&mut raw, wire::MAX_FRAME_LEN),
            Err(wire::WireError::Closed)
        ),
        "desynchronized connection must be closed"
    );

    // The server itself survives and serves others.
    let mut client =
        NetClient::connect(server.addr(), backend.schema.clone()).expect("connect");
    client.ping().expect("server still serviceable");
    server.shutdown();
}

#[test]
fn torn_connection_leaves_the_server_serviceable() {
    let backend = Arc::new(GatedBackend::new());
    backend.release();
    let server = NetServer::bind(
        Arc::clone(&backend) as Arc<dyn ServeBackend>,
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");

    // Half a length prefix, then vanish.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("connect");
        raw.write_all(&[0x02, 0x00]).expect("partial write");
    } // dropped here

    let mut client =
        NetClient::connect(server.addr(), backend.schema.clone()).expect("connect");
    client.ping().expect("ping after torn peer");
    // A real request also still works end to end.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    wire::write_frame(&mut raw, &probe_request(7), wire::MAX_FRAME_LEN).unwrap();
    let body = wire::read_frame(&mut raw, wire::MAX_FRAME_LEN).expect("reply");
    assert!(matches!(
        wire::decode_message(&body, Some(&backend.schema)).expect("decodes"),
        Message::Served { id: 7, .. }
    ));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Admission-queue overflow
// ---------------------------------------------------------------------

#[test]
fn queue_overflow_sheds_with_a_typed_overloaded_error() {
    let backend = Arc::new(GatedBackend::new());
    let server = NetServer::bind(
        Arc::clone(&backend) as Arc<dyn ServeBackend>,
        "127.0.0.1:0",
        NetServerConfig { workers: 1, queue_capacity: 1, ..Default::default() },
    )
    .expect("bind");

    // One connection, three pipelined requests. The single worker blocks
    // on the gated backend; occupancy is confirmed via stats before each
    // send, so the shed decision is fully deterministic.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");

    // Request 1: picked up by the worker, which blocks inside serve.
    wire::write_frame(&mut raw, &probe_request(1), wire::MAX_FRAME_LEN).unwrap();
    assert!(
        wait_until(DEADLINE, || server.stats().in_flight == 1),
        "worker must be pinned inside the gated backend"
    );

    // Request 2: sits in the (capacity-1) queue.
    wire::write_frame(&mut raw, &probe_request(2), wire::MAX_FRAME_LEN).unwrap();
    assert!(
        wait_until(DEADLINE, || server.stats().queued == 1),
        "second request must occupy the only queue slot"
    );

    // Request 3: the queue is provably full — must be shed, immediately
    // and typed, while requests 1 and 2 are still pending.
    wire::write_frame(&mut raw, &probe_request(3), wire::MAX_FRAME_LEN).unwrap();
    let body = wire::read_frame(&mut raw, wire::MAX_FRAME_LEN).expect("shed reply");
    match wire::decode_message(&body, Some(&backend.schema)).expect("decodes") {
        Message::Failed { id: 3, error: ServeError::Overloaded { capacity } } => {
            assert_eq!(capacity, 1);
        }
        other => panic!("expected an Overloaded reply for id 3, got {other:?}"),
    }
    assert_eq!(server.stats().shed, 1);

    // Release the gate: the two admitted requests complete normally.
    backend.release();
    for _ in 0..2 {
        let body = wire::read_frame(&mut raw, wire::MAX_FRAME_LEN).expect("reply");
        assert!(matches!(
            wire::decode_message(&body, Some(&backend.schema)).expect("decodes"),
            Message::Served { id: 1 | 2, .. }
        ));
    }
    assert!(wait_until(DEADLINE, || server.stats().served == 2));
    server.shutdown();
}

// ---------------------------------------------------------------------
// Transport latency: no delayed-ACK stall
// ---------------------------------------------------------------------

/// Half Linux's 40 ms minimum delayed-ACK timeout: a round trip that
/// waits on a delayed ACK cannot come in under it.
const STALL_FLOOR: Duration = Duration::from_millis(20);

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
fn loopback_round_trips_stay_under_the_delayed_ack_floor() {
    let backend = Arc::new(GatedBackend::new());
    backend.release();
    let server = NetServer::bind(
        Arc::clone(&backend) as Arc<dyn ServeBackend>,
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");

    // (a) Sequential round trips: a frame split into two writes waits
    // for the peer's delayed ACK before its body leaves.
    let mut client =
        NetClient::connect(server.addr(), backend.schema.clone()).expect("connect");
    let pings: Vec<Duration> = (0..32)
        .map(|_| {
            let start = Instant::now();
            client.ping().expect("ping");
            start.elapsed()
        })
        .collect();
    let serves: Vec<Duration> = (0..32)
        .map(|i| {
            let request =
                ServeRequest::new_user(format!("rt-{i}"), UserRequest::new(vec![1.0]));
            let start = Instant::now();
            client.serve(request).expect("serve");
            start.elapsed()
        })
        .collect();
    let (ping, serve) = (median(pings), median(serves));
    assert!(ping < STALL_FLOOR, "median ping {ping:?} waited on a delayed ACK");
    assert!(serve < STALL_FLOOR, "median serve {serve:?} waited on a delayed ACK");

    // (b) Two requests in flight on one connection: the second reply is
    // written while the first is unacknowledged, which Nagle holds back
    // unless the server sets TCP_NODELAY.
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let pairs: Vec<Duration> = (0..16u64)
        .map(|round| {
            let (a, b) = (2 * round + 1, 2 * round + 2);
            let mut frames = Vec::new();
            for id in [a, b] {
                wire::write_frame(&mut frames, &probe_request(id), wire::MAX_FRAME_LEN)
                    .unwrap();
            }
            let start = Instant::now();
            raw.write_all(&frames).expect("write both frames");
            let mut ids: Vec<u64> = (0..2)
                .map(|_| {
                    let body =
                        wire::read_frame(&mut raw, wire::MAX_FRAME_LEN).expect("reply");
                    match wire::decode_message(&body, Some(&backend.schema)) {
                        Ok(Message::Served { id, .. }) => id,
                        other => panic!("expected a Served reply, got {other:?}"),
                    }
                })
                .collect();
            let elapsed = start.elapsed();
            ids.sort_unstable();
            assert_eq!(ids, [a, b], "both requests answered");
            elapsed
        })
        .collect();
    let pair = median(pairs);
    assert!(
        pair < STALL_FLOOR,
        "median pipelined pair {pair:?} waited on a delayed ACK"
    );
    server.shutdown();
}

//! The TCP serving front end.
//!
//! [`NetServer`] accepts connections on a loopback (or any) TCP address
//! and speaks the [`crate::wire`] protocol: one length-prefixed frame
//! per message, requests correlated to replies by id. It fronts any
//! [`ServeBackend`] — a single [`crate::JitService`], the in-process
//! [`crate::ShardedService`], or the OS-process
//! [`crate::ProcessShardBackend`] — so the network tier adds transport
//! and admission control without touching serving semantics: responses
//! through the wire are **bit-identical** to in-process serving (locked
//! by `tests/determinism.rs`).
//!
//! ## Transport
//!
//! Every frame leaves in one `write` ([`wire::write_frame`]) and both
//! ends set `TCP_NODELAY`: the server on each accepted stream, the
//! [`NetClient`] on connect. With the length prefix and the body as two
//! writes, Nagle's algorithm holds the body until the peer's delayed
//! ACK of the prefix arrives, ~44 ms in each direction on Linux
//! loopback: a sequential ping measured 88 ms, against ~23 µs now.
//! One write per frame is not enough on its own. With two requests in
//! flight on one connection, the second reply is a small segment sent
//! while the first is still unacknowledged, and without the server's
//! `TCP_NODELAY` it waited 44 ms for the client's delayed ACK (~55 µs
//! with it). `tests/net_failures.rs` bounds both cases below half
//! Linux's 40 ms minimum delayed-ACK timeout.
//!
//! ## Admission control
//!
//! Between the connection readers and the serving workers sits a
//! **bounded queue**. A request that arrives while the queue is full is
//! **shed immediately**: the client gets a typed
//! [`ServeError::Overloaded`] reply frame, never a hang and never an
//! unbounded backlog. Shedding happens on the connection thread (no
//! queue slot is consumed), so an overloaded server stays responsive to
//! every connected client.
//!
//! ## Failure semantics
//!
//! Protocol failures are typed, never panics: a malformed, truncated or
//! oversized frame gets a best-effort [`Message::Failed`] reply carrying
//! [`ServeError::Transport`], then the connection is closed (a
//! desynchronized peer cannot be re-synchronized safely). A dropped
//! connection simply ends its reader thread; jobs already admitted still
//! run, and their replies fail silently into the closed socket —
//! serving state (the backend's snapshot stores) is owned behind the
//! backend and unaffected.
//!
//! ## Shutdown
//!
//! [`NetServer::shutdown`] (also run on drop) is orderly and
//! deadlock-free: the queue closes (new requests shed), workers drain
//! every admitted job, then connections and the acceptor are woken and
//! joined. No sleeps anywhere — tests poll [`NetServer::stats`] with a
//! deadline.

// Decode/serve path: panics are denied outright here (tests and the
// few fn-level reasoned allows excepted) — hostile bytes and worker
// failures must surface as typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::api::{ServeError, ServeRequest};
use crate::service::JitService;
use crate::sharded::ShardedService;
use crate::wire::{self, Message, WireError, WireResponse, MAX_FRAME_LEN};
use jit_data::FeatureSchema;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// What the network tier serves: a schema (to decode request frames)
/// plus owned-value serving. Implemented by [`JitService`],
/// [`ShardedService`] and [`crate::ProcessShardBackend`].
pub trait ServeBackend: Send + Sync {
    /// The feature schema requests are decoded against.
    fn schema(&self) -> &FeatureSchema;

    /// Serves one request, returning the owned wire-level response
    /// (shard-count-invariant bytes — see [`crate::wire`]).
    ///
    /// # Errors
    /// The typed [`ServeError`].
    fn serve_wire(&self, request: ServeRequest) -> Result<WireResponse, ServeError>;
}

impl ServeBackend for JitService {
    fn schema(&self) -> &FeatureSchema {
        self.system().schema()
    }

    fn serve_wire(&self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        self.serve(request).map(|r| WireResponse::from_response(&r))
    }
}

impl ServeBackend for ShardedService {
    fn schema(&self) -> &FeatureSchema {
        self.system().schema()
    }

    fn serve_wire(&self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        self.serve(request).map(|r| WireResponse::from_response(&r))
    }
}

/// Configuration of the TCP front end.
#[derive(Clone, Copy, Debug)]
pub struct NetServerConfig {
    /// Serving worker threads draining the admission queue.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are shed with
    /// [`ServeError::Overloaded`].
    pub queue_capacity: usize,
    /// Frame cap for reads and writes.
    pub max_frame_len: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig { workers: 2, queue_capacity: 64, max_frame_len: MAX_FRAME_LEN }
    }
}

/// A point-in-time snapshot of server counters (tests poll this with a
/// deadline instead of sleeping).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted so far.
    pub connections: u64,
    /// Requests served to completion (ok or typed serving error).
    pub served: u64,
    /// Requests shed with [`ServeError::Overloaded`].
    pub shed: u64,
    /// Requests currently waiting in the admission queue.
    pub queued: usize,
    /// Requests currently executing on a worker.
    pub in_flight: usize,
}

/// One admitted request: reply frames go back through the originating
/// connection's shared write half.
struct Job {
    id: u64,
    request: ServeRequest,
    reply: Arc<Mutex<TcpStream>>,
}

/// Queue state under the mutex: jobs plus the open flag (closed on
/// shutdown so workers can drain and exit).
struct QueueState {
    jobs: VecDeque<Job>,
    open: bool,
}

struct Shared {
    backend: Arc<dyn ServeBackend>,
    config: NetServerConfig,
    queue: Mutex<QueueState>,
    available: Condvar,
    shutdown: AtomicBool,
    connections: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    in_flight: AtomicUsize,
    /// Write halves of live connections, so shutdown can unblock their
    /// reader threads.
    streams: Mutex<Vec<Arc<Mutex<TcpStream>>>>,
}

// The std mutexes here guard plain data; a poisoned lock (a panicking
// worker) must not wedge shutdown, so recover the inner state.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Shared {
    /// Admits a job or sheds it; `Err(capacity)` means the queue was
    /// full (or closing) and nothing was enqueued.
    fn try_push(&self, job: Job) -> Result<(), usize> {
        let mut queue = lock(&self.queue);
        if !queue.open || queue.jobs.len() >= self.config.queue_capacity {
            return Err(self.config.queue_capacity);
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` when the queue is closed *and*
    /// drained (workers finish every admitted job before exiting).
    fn pop(&self) -> Option<Job> {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.jobs.pop_front() {
                self.in_flight.fetch_add(1, Ordering::SeqCst);
                return Some(job);
            }
            if !queue.open {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Best-effort reply frame (the peer may already be gone).
    fn send(&self, reply: &Mutex<TcpStream>, message: &Message) {
        let body = wire::encode_message(message);
        let mut stream = lock(reply);
        let _ = wire::write_frame(&mut *stream, &body, self.config.max_frame_len);
    }
}

/// The TCP front end (see the module docs).
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port), spawns the acceptor and `config.workers` serving workers,
    /// and starts serving `backend`.
    ///
    /// # Errors
    /// The bind error, verbatim.
    pub fn bind(
        backend: Arc<dyn ServeBackend>,
        addr: &str,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            backend,
            config,
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), open: true }),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            streams: Mutex::new(Vec::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(NetServer { addr, shared, acceptor: Some(acceptor), workers })
    }

    /// The bound address (the actual port for `"…:0"` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.shared.connections.load(Ordering::SeqCst),
            served: self.shared.served.load(Ordering::SeqCst),
            shed: self.shared.shed.load(Ordering::SeqCst),
            queued: lock(&self.shared.queue).jobs.len(),
            in_flight: self.shared.in_flight.load(Ordering::SeqCst),
        }
    }

    /// Orderly shutdown: close the queue, drain the workers, then wake
    /// and join the acceptor and every connection. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        // 1. No new admissions; workers drain what was admitted.
        lock(&self.shared.queue).open = false;
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // 2. Unblock connection readers and the acceptor.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for stream in lock(&self.shared.streams).drain(..) {
            let _ = lock(&stream).shutdown(std::net::Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr); // wake `accept`
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Replies go out without waiting for the client's delayed ACK
        // (see "Transport" in the module docs).
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let Ok(write_half) = stream.try_clone() else { continue };
        shared.connections.fetch_add(1, Ordering::SeqCst);
        let reply = Arc::new(Mutex::new(write_half));
        lock(&shared.streams).push(Arc::clone(&reply));
        let shared = Arc::clone(shared);
        conns.push(std::thread::spawn(move || connection_loop(stream, reply, &shared)));
    }
    for conn in conns {
        let _ = conn.join();
    }
}

/// Reads frames off one connection, answering pings inline, admitting
/// serve requests, and shedding what the queue rejects.
fn connection_loop(stream: TcpStream, reply: Arc<Mutex<TcpStream>>, shared: &Shared) {
    let max = shared.config.max_frame_len;
    let mut reader = BufReader::new(stream);
    loop {
        let body = match wire::read_frame(&mut reader, max) {
            Ok(body) => body,
            Err(WireError::Closed) => return,
            Err(error) => {
                // Malformed length prefix, oversized frame, torn read:
                // reply typed, then drop the (desynchronized) peer.
                shared.send(
                    &reply,
                    &Message::Failed {
                        id: 0,
                        error: ServeError::Transport(error.to_string()),
                    },
                );
                let _ = lock(&reply).shutdown(std::net::Shutdown::Both);
                return;
            }
        };
        match wire::decode_message(&body, Some(shared.backend.schema())) {
            Ok(Message::Serve { id, request }) => {
                if let Err(capacity) =
                    shared.try_push(Job { id, request, reply: Arc::clone(&reply) })
                {
                    shared.shed.fetch_add(1, Ordering::SeqCst);
                    shared.send(
                        &reply,
                        &Message::Failed {
                            id,
                            error: ServeError::Overloaded { capacity },
                        },
                    );
                }
            }
            Ok(Message::Ping { id }) => shared.send(&reply, &Message::Pong { id }),
            Ok(Message::Shutdown) => return,
            Ok(other) => {
                shared.send(
                    &reply,
                    &Message::Failed {
                        id: 0,
                        error: ServeError::Transport(format!(
                            "unexpected client message {other:?}"
                        )),
                    },
                );
                let _ = lock(&reply).shutdown(std::net::Shutdown::Both);
                return;
            }
            Err(error) => {
                shared.send(
                    &reply,
                    &Message::Failed {
                        id: 0,
                        error: ServeError::Transport(error.to_string()),
                    },
                );
                let _ = lock(&reply).shutdown(std::net::Shutdown::Both);
                return;
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.pop() {
        let reply = match shared.backend.serve_wire(job.request) {
            Ok(response) => Message::Served { id: job.id, response },
            Err(error) => Message::Failed { id: job.id, error },
        };
        shared.send(&job.reply, &reply);
        shared.served.fetch_add(1, Ordering::SeqCst);
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Bounded retry policy for [`NetClient::connect_with_retry`]: how many
/// connection attempts to make and how the pause between them grows.
///
/// Only `ECONNREFUSED` is retried — it is the one failure that a server
/// still binding its listener produces, and the one that waiting can
/// cure. Every other error (unreachable host, reset, bad address)
/// surfaces immediately.
#[derive(Clone, Copy, Debug)]
pub struct ConnectRetry {
    /// Total connection attempts (≥ 1; the first attempt counts).
    pub attempts: u32,
    /// Pause before the second attempt; doubles each retry.
    pub initial_backoff: std::time::Duration,
    /// Cap on the doubling backoff.
    pub max_backoff: std::time::Duration,
}

impl Default for ConnectRetry {
    fn default() -> Self {
        ConnectRetry {
            attempts: 8,
            initial_backoff: std::time::Duration::from_millis(5),
            max_backoff: std::time::Duration::from_millis(250),
        }
    }
}

impl ConnectRetry {
    /// A single attempt: [`NetClient::connect`]'s behavior.
    pub fn none() -> Self {
        ConnectRetry { attempts: 1, ..ConnectRetry::default() }
    }
}

/// A blocking client for the TCP front end: one request in flight at a
/// time, replies correlated by id. Concurrency comes from opening more
/// clients (each is its own connection).
pub struct NetClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    schema: FeatureSchema,
    max_frame_len: usize,
    next_id: u64,
}

impl NetClient {
    /// Connects to `addr`; `schema` must match the server's (responses
    /// are decoded against it — the process backend's handshake digest
    /// check guards the cross-process variant of this invariant).
    ///
    /// # Errors
    /// [`ServeError::Transport`] on connect failure.
    pub fn connect(
        addr: impl std::net::ToSocketAddrs,
        schema: FeatureSchema,
    ) -> Result<NetClient, ServeError> {
        NetClient::connect_with_retry(addr, schema, ConnectRetry::none())
    }

    /// Connects like [`NetClient::connect`], but rides out a server that
    /// has not finished binding yet: `ECONNREFUSED` is retried up to
    /// `retry.attempts` times with doubling backoff.
    ///
    /// # Errors
    /// [`ServeError::Transport`] when the final attempt fails or the
    /// failure is not a refused connection.
    pub fn connect_with_retry(
        addr: impl std::net::ToSocketAddrs,
        schema: FeatureSchema,
        retry: ConnectRetry,
    ) -> Result<NetClient, ServeError> {
        let attempts = retry.attempts.max(1);
        let mut backoff = retry.initial_backoff;
        let mut attempt = 0;
        let writer = loop {
            match TcpStream::connect(&addr) {
                Ok(stream) => break stream,
                Err(e)
                    if e.kind() == std::io::ErrorKind::ConnectionRefused
                        && attempt + 1 < attempts =>
                {
                    // jit-analyze: allow(no-wall-clock) — client connect backoff; pacing only, never feeds output
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(retry.max_backoff);
                    attempt += 1;
                }
                Err(e) => {
                    return Err(ServeError::Transport(format!(
                        "connect failed after {} attempt(s): {e}",
                        attempt + 1
                    )))
                }
            }
        };
        writer
            .set_nodelay(true)
            .map_err(|e| ServeError::Transport(format!("set_nodelay failed: {e}")))?;
        let reader = writer
            .try_clone()
            .map_err(|e| ServeError::Transport(format!("clone failed: {e}")))?;
        Ok(NetClient {
            writer,
            reader: BufReader::new(reader),
            schema,
            max_frame_len: MAX_FRAME_LEN,
            next_id: 1,
        })
    }

    /// Overrides the frame cap (tests exercise small caps).
    pub fn set_max_frame_len(&mut self, max: usize) {
        self.max_frame_len = max;
    }

    /// Serves one request over the connection.
    ///
    /// # Errors
    /// The server's typed [`ServeError`] (shed requests come back as
    /// [`ServeError::Overloaded`]), or [`ServeError::Transport`] when
    /// the connection itself fails.
    pub fn serve(&mut self, request: ServeRequest) -> Result<WireResponse, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let body = wire::encode_message(&Message::Serve { id, request });
        wire::write_frame(&mut self.writer, &body, self.max_frame_len)?;
        match self.read_reply(id)? {
            Message::Served { response, .. } => Ok(response),
            Message::Failed { error, .. } => Err(error),
            other => {
                Err(ServeError::Transport(format!("unexpected server reply {other:?}")))
            }
        }
    }

    /// Round-trips a ping (health probe).
    ///
    /// # Errors
    /// [`ServeError::Transport`] when the connection fails or the reply
    /// does not correlate.
    pub fn ping(&mut self) -> Result<(), ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let body = wire::encode_message(&Message::Ping { id });
        wire::write_frame(&mut self.writer, &body, self.max_frame_len)?;
        match self.read_reply(id)? {
            Message::Pong { .. } => Ok(()),
            Message::Failed { error, .. } => Err(error),
            other => {
                Err(ServeError::Transport(format!("unexpected ping reply {other:?}")))
            }
        }
    }

    /// Reads the reply for `id`. A `Failed { id: 0, … }` frame is a
    /// connection-level protocol error report and matches any request.
    fn read_reply(&mut self, id: u64) -> Result<Message, ServeError> {
        let body = wire::read_frame(&mut self.reader, self.max_frame_len)?;
        let message = wire::decode_message(&body, Some(&self.schema))?;
        let reply_id = match &message {
            Message::Served { id, .. }
            | Message::Failed { id, .. }
            | Message::Pong { id } => *id,
            other => {
                return Err(ServeError::Transport(format!(
                    "unexpected server message {other:?}"
                )))
            }
        };
        if reply_id == id || reply_id == 0 {
            Ok(message)
        } else {
            Err(ServeError::Transport(format!(
                "reply id {reply_id} does not match request id {id}"
            )))
        }
    }
}

//! The socket front end of the plan server: `pdw serve --listen`.
//!
//! [`SocketServer`] exposes a [`PlanServer`] over TCP or Unix-domain
//! sockets speaking the canonical codec's framed wire protocol
//! ([`NetRequest`]/[`NetResponse`], DESIGN.md §13); [`PlanClient`] is the
//! retrying client. The design goals, in order:
//!
//! - **every failure is typed** — transport faults surface as
//!   [`TransportError`], serve-side refusals as [`WireError`]; a network
//!   problem is never a panic and never a silently wrong plan;
//! - **retries are safe by construction** — only idempotent solves ride
//!   the wire (repairs stay in-process), and the server keys each solve by
//!   its memo key, so a retry can only hit the memo or re-lead the same
//!   single-flight solve;
//! - **deadlines propagate** — the client subtracts its observed transit
//!   estimate (half the handshake/heartbeat RTT) from the remaining budget
//!   before sending, and the server maps the received budget onto
//!   [`PlanServer::submit_with_budget`], so a deadline that expires in
//!   transit comes back as a typed [`WireError::DeadlineExpired`];
//! - **drain is graceful** — a [`NetRequest::Drain`] (or
//!   [`SocketServer::drain`]) stops the accept loop, finishes every
//!   in-flight solve, answers everything else [`WireError::ShuttingDown`],
//!   and releases the listener so the same address can be rebound;
//! - **plans are re-verified at the edge** — the server ships certified
//!   [`PlanArtifact`]s and the client re-runs the verification certificate
//!   against its own copy of the instance before accepting one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pathdriver_wash::codec::DEFAULT_MAX_FRAME_LEN;
use pathdriver_wash::transport::{hello, recv_response, send_request, send_response, FrameReader};
use pathdriver_wash::{
    config_fingerprint, NetAddr, NetListener, NetRequest, NetResponse, NetStream, PdwConfig,
    PlanArtifact, SolveRequest, TransportError, WireError, SCHEMA_VERSION,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;

use crate::harness::percentile;
use crate::server::{Instance, PlanServer, Rejected, ServeError, ServeRequest};

/// Socket-side configuration of a [`SocketServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// The largest frame accepted or produced (guards allocation on both
    /// sides; advertised in the `HelloAck`).
    pub max_frame_len: usize,
    /// Granularity of the per-connection read poll (drain and idle checks
    /// happen between polls).
    pub read_tick: Duration,
    /// Deadline for writing one response frame.
    pub write_timeout: Duration,
    /// How long a fresh connection gets to send its `Hello`.
    pub handshake_timeout: Duration,
    /// Connections with no traffic and no in-flight work for this long
    /// are evicted.
    pub idle_timeout: Duration,
    /// Heartbeat cadence advertised to clients (the idle timeout should
    /// be several multiples of this).
    pub heartbeat_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_tick: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            heartbeat_ms: 1000,
        }
    }
}

/// A point-in-time snapshot of the socket layer's counters (the plan
/// server underneath keeps its own [`crate::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct NetServeStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections dropped during the handshake (no/invalid `Hello`,
    /// version skew, torn frame).
    pub handshake_failures: u64,
    /// Heartbeat pings answered.
    pub pings: u64,
    /// Solve requests admitted to the plan server.
    pub solves: u64,
    /// Protocol-level refusals answered ([`WireError::BadRequest`]).
    pub bad_requests: u64,
    /// Connections evicted for idling past the timeout.
    pub idle_evicted: u64,
    /// Solves refused because the server was draining.
    pub drain_refused: u64,
}

#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    active: AtomicU64,
    handshake_failures: AtomicU64,
    pings: AtomicU64,
    solves: AtomicU64,
    bad_requests: AtomicU64,
    idle_evicted: AtomicU64,
    drain_refused: AtomicU64,
}

struct NetShared {
    plan: Arc<PlanServer>,
    cfg: NetConfig,
    config_fp: u64,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    next_conn_id: AtomicU64,
    conns: Mutex<HashMap<u64, NetStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Waiter-thread handles held across all connections.
    waiter_backlog: AtomicUsize,
    counters: NetCounters,
}

impl NetShared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

/// The socket front end: an accept loop plus one reader thread per
/// connection, all feeding the shared [`PlanServer`]. Solves run on the
/// plan server's worker pool; each in-flight request parks a small waiter
/// thread that writes the response (or its typed error) back under the
/// connection's write lock, so heartbeats and pipelined requests keep
/// flowing while a solve is in progress.
pub struct SocketServer {
    shared: Arc<NetShared>,
    local: NetAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl SocketServer {
    /// Binds `listener`'s address and starts serving `plan` on it.
    pub fn start(plan: Arc<PlanServer>, listener: NetListener, cfg: NetConfig) -> Self {
        let local = listener.local_addr();
        let config_fp = plan.config_fingerprint();
        let shared = Arc::new(NetShared {
            plan,
            cfg,
            config_fp,
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            waiter_backlog: AtomicUsize::new(0),
            counters: NetCounters::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pdw-net-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, listener))
            .expect("spawn accept thread");
        SocketServer {
            shared,
            local,
            accept_thread: Mutex::new(Some(accept_thread)),
            stopped: AtomicBool::new(false),
        }
    }

    /// The concrete bound address (the real port when TCP bound port 0).
    pub fn local_addr(&self) -> NetAddr {
        self.local.clone()
    }

    /// `true` once a drain has begun (locally or via a wire `Drain`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests admitted over sockets and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Connection-thread handles currently held (live connections plus
    /// any finished ones not yet reaped — the accept loop joins finished
    /// handles opportunistically, so this stays bounded by the number of
    /// concurrently live connections, not by connections ever accepted).
    pub fn conn_thread_backlog(&self) -> usize {
        self.shared.conn_threads.lock().unwrap().len()
    }

    /// Solve-waiter thread handles currently held across all connections
    /// (in-flight solves plus finished waiters not yet reaped — each
    /// connection reaps its finished waiters on every pass of its read
    /// loop, so this stays bounded by the solves in flight, not by the
    /// solves ever served).
    pub fn waiter_backlog(&self) -> usize {
        self.shared.waiter_backlog.load(Ordering::SeqCst)
    }

    /// A snapshot of the socket layer's counters.
    pub fn stats(&self) -> NetServeStats {
        let c = &self.shared.counters;
        NetServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            active: c.active.load(Ordering::Relaxed),
            handshake_failures: c.handshake_failures.load(Ordering::Relaxed),
            pings: c.pings.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            idle_evicted: c.idle_evicted.load(Ordering::Relaxed),
            drain_refused: c.drain_refused.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stop accepting, finish every in-flight request
    /// (new solves are answered [`WireError::ShuttingDown`]), then close
    /// every connection, join every thread, and release the listener so
    /// the address can be rebound. Blocks until complete. Idempotent.
    ///
    /// The [`PlanServer`] underneath is *not* shut down — it may have
    /// other (in-process) users; the owner shuts it down separately.
    pub fn drain(&self) {
        self.shared.begin_drain();
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop_threads();
    }

    /// Abrupt stop: begin draining and close every connection *now*,
    /// without waiting for in-flight requests' responses to be written
    /// (the plan server still completes them internally). Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
        self.stop_threads();
    }

    fn stop_threads(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            conn.shutdown();
        }
        if let Some(h) = self.accept_thread.lock().unwrap().take() {
            let _ = h.join();
        }
        let threads: Vec<_> = self.shared.conn_threads.lock().unwrap().drain(..).collect();
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins every finished thread handle, keeping only live ones, and returns
/// how many it joined: a long-running server must not accumulate one handle
/// per connection it ever accepted, nor one per solve it ever served.
fn reap_finished(threads: &mut Vec<JoinHandle<()>>) -> usize {
    let before = threads.len();
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            let _ = threads.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
    before - threads.len()
}

fn accept_loop(shared: &Arc<NetShared>, listener: NetListener) {
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            // Dropping the listener here unlinks a Unix socket path, so a
            // post-drain rebind of the same address succeeds.
            return;
        }
        reap_finished(&mut shared.conn_threads.lock().unwrap());
        match listener.accept() {
            Ok(stream) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                shared.counters.active.fetch_add(1, Ordering::Relaxed);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().insert(conn_id, clone);
                }
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(format!("pdw-net-conn-{conn_id}"))
                    .spawn(move || {
                        conn_loop(&conn_shared, conn_id, stream);
                        conn_shared.conns.lock().unwrap().remove(&conn_id);
                        conn_shared.counters.active.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn connection thread");
                shared.conn_threads.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Answers one connection until EOF, a protocol fault, idle eviction, or
/// shutdown. The first frame must be a `Hello`.
fn conn_loop(shared: &Arc<NetShared>, _conn_id: u64, mut stream: NetStream) {
    let cfg = &shared.cfg;
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    // One resumable frame reader for the connection's whole life:
    // partially received bytes survive read ticks, so a frame trickling
    // in across many ticks is assembled, never torn.
    let mut reader = FrameReader::new(cfg.max_frame_len);
    // Handshake: require Hello, answer HelloAck with this build's
    // parameters. A peer speaking a different codec version fails frame
    // decode right here — typed, before any work is admitted.
    let refusal = match reader.poll_request(&mut stream, cfg.handshake_timeout) {
        Ok(Some(NetRequest::Hello { codec_version })) if codec_version == SCHEMA_VERSION => {
            let ack = NetResponse::HelloAck {
                codec_version: SCHEMA_VERSION,
                max_frame_len: cfg.max_frame_len as u64,
                heartbeat_ms: cfg.heartbeat_ms,
            };
            let mut w = writer.lock().unwrap();
            if send_response(&mut w, &ack, cfg.write_timeout).is_err() {
                shared
                    .counters
                    .handshake_failures
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
            None
        }
        Ok(Some(NetRequest::Hello { codec_version })) => Some(format!(
            "codec version mismatch: client v{codec_version}, server v{SCHEMA_VERSION}"
        )),
        Ok(Some(_)) => Some("first frame must be Hello".to_string()),
        // Envelope-level skew: answer typed before closing. The skewed
        // peer's decode of this frame fails as its own (non-retryable)
        // `VersionSkew`, so it fails fast instead of burning its whole
        // retry budget on "server closed during handshake".
        Err(TransportError::VersionSkew { found, expected }) => Some(format!(
            "codec version skew: client frame v{found}, server v{expected}"
        )),
        Ok(None) | Err(_) => {
            shared
                .counters
                .handshake_failures
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
    };
    if let Some(msg) = refusal {
        // Counted before the refusal goes out, so a peer that has read it
        // already finds it in the server's stats.
        shared
            .counters
            .handshake_failures
            .fetch_add(1, Ordering::Relaxed);
        reply_error(&writer, cfg, 0, WireError::BadRequest(msg));
        return;
    }

    let conn_in_flight = Arc::new(AtomicUsize::new(0));
    let mut waiters: Vec<JoinHandle<()>> = Vec::new();
    // Shared so waiter threads refresh it when they write a response: a
    // connection whose solve outlived the idle timeout gets a full idle
    // window to send its next request, not an instant eviction.
    let last_activity = Arc::new(Mutex::new(Instant::now()));
    loop {
        let reaped = reap_finished(&mut waiters);
        shared.waiter_backlog.fetch_sub(reaped, Ordering::SeqCst);
        let buffered_before = reader.buffered();
        match reader.poll_request(&mut stream, cfg.read_tick) {
            Err(TransportError::Timeout { .. }) => {
                // A tick that delivered part of a frame is a slow peer
                // still talking, not an idle one.
                if reader.buffered() > buffered_before {
                    *last_activity.lock().unwrap() = Instant::now();
                }
                // Quiet tick: check idle eviction (never while work is in
                // flight — a client silently awaiting a long solve is not
                // idle) and drain progress.
                if conn_in_flight.load(Ordering::SeqCst) == 0
                    && last_activity.lock().unwrap().elapsed() > cfg.idle_timeout
                {
                    shared.counters.idle_evicted.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Ok(None) => break,
            Err(TransportError::VersionSkew { found, expected }) => {
                reply_error(
                    &writer,
                    cfg,
                    0,
                    WireError::BadRequest(format!(
                        "codec version skew: frame v{found}, server v{expected}"
                    )),
                );
                break;
            }
            Err(TransportError::TornFrame(e)) => {
                reply_error(
                    &writer,
                    cfg,
                    0,
                    WireError::BadRequest(format!("torn frame: {e}")),
                );
                break;
            }
            Err(_) => break,
            Ok(Some(req)) => {
                *last_activity.lock().unwrap() = Instant::now();
                match req {
                    NetRequest::Hello { .. } => {
                        shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                        reply_error(
                            &writer,
                            cfg,
                            0,
                            WireError::BadRequest("duplicate Hello".to_string()),
                        );
                    }
                    NetRequest::Ping { nonce } => {
                        shared.counters.pings.fetch_add(1, Ordering::Relaxed);
                        let mut w = writer.lock().unwrap();
                        if send_response(&mut w, &NetResponse::Pong { nonce }, cfg.write_timeout)
                            .is_err()
                        {
                            break;
                        }
                    }
                    NetRequest::Drain => {
                        shared.begin_drain();
                        let ack = NetResponse::DrainAck {
                            in_flight: shared.in_flight.load(Ordering::SeqCst) as u64,
                        };
                        let mut w = writer.lock().unwrap();
                        let _ = send_response(&mut w, &ack, cfg.write_timeout);
                    }
                    NetRequest::Solve {
                        id,
                        budget_us,
                        solve,
                    } => {
                        handle_solve(
                            shared,
                            &writer,
                            &conn_in_flight,
                            &last_activity,
                            &mut waiters,
                            id,
                            budget_us,
                            *solve,
                        );
                    }
                }
            }
        }
    }
    let held = waiters.len();
    for h in waiters {
        let _ = h.join();
    }
    shared.waiter_backlog.fetch_sub(held, Ordering::SeqCst);
    stream.shutdown();
}

/// Admits one solve to the plan server and parks a waiter thread on its
/// ticket; refusals are answered inline.
#[allow(clippy::too_many_arguments)]
fn handle_solve(
    shared: &Arc<NetShared>,
    writer: &Arc<Mutex<NetStream>>,
    conn_in_flight: &Arc<AtomicUsize>,
    last_activity: &Arc<Mutex<Instant>>,
    waiters: &mut Vec<JoinHandle<()>>,
    id: u64,
    budget_us: Option<u64>,
    solve: SolveRequest,
) {
    let cfg = &shared.cfg;
    if shared.draining.load(Ordering::SeqCst) {
        shared
            .counters
            .drain_refused
            .fetch_add(1, Ordering::Relaxed);
        reply_error(writer, cfg, id, WireError::ShuttingDown);
        return;
    }
    // The memo key is (instance_hash, server config fingerprint): serving
    // a request that asked for a *different* planner config would be a
    // silently wrong plan, so a mismatch is a typed refusal instead.
    let req_fp = config_fingerprint(&solve.config);
    if req_fp != shared.config_fp {
        shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        reply_error(
            writer,
            cfg,
            id,
            WireError::BadRequest(format!(
                "planner config fingerprint {req_fp:#x} does not match the server's {:#x}",
                shared.config_fp
            )),
        );
        return;
    }
    let instance = Arc::new(Instance::new(solve.bench, solve.synthesis));
    let budget = budget_us.map(Duration::from_micros);
    let submitted = shared.plan.submit_with_budget(
        ServeRequest::Solve {
            instance: Arc::clone(&instance),
        },
        budget,
    );
    let ticket = match submitted {
        Ok(ticket) => ticket,
        Err(Rejected::ShuttingDown) => {
            shared
                .counters
                .drain_refused
                .fetch_add(1, Ordering::Relaxed);
            reply_error(writer, cfg, id, WireError::ShuttingDown);
            return;
        }
        Err(Rejected::Saturated {
            queued_cost,
            cost,
            budget,
        }) => {
            reply_error(
                writer,
                cfg,
                id,
                WireError::Saturated {
                    queued_cost,
                    cost,
                    budget,
                },
            );
            return;
        }
    };
    shared.counters.solves.fetch_add(1, Ordering::Relaxed);
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    conn_in_flight.fetch_add(1, Ordering::SeqCst);
    let waiter_shared = Arc::clone(shared);
    let waiter_writer = Arc::clone(writer);
    let waiter_conn_in_flight = Arc::clone(conn_in_flight);
    let waiter_last_activity = Arc::clone(last_activity);
    let handle = std::thread::Builder::new()
        .name(format!("pdw-net-wait-{id}"))
        .spawn(move || {
            let response = ticket.wait();
            let resp = match response {
                Ok(served) => {
                    let artifact = PlanArtifact::certified(
                        instance.instance_hash(),
                        waiter_shared.config_fp,
                        served.plan.rung,
                        instance.bench(),
                        instance.synthesis(),
                        served.plan.result.clone(),
                    );
                    NetResponse::Plan {
                        id,
                        memo_hit: served.memo_hit,
                        degraded: served.degraded,
                        artifact: Box::new(artifact),
                    }
                }
                Err(e) => NetResponse::Error {
                    id,
                    error: wire_error(e),
                },
            };
            {
                let mut w = waiter_writer.lock().unwrap();
                let _ = send_response(&mut w, &resp, waiter_shared.cfg.write_timeout);
            }
            // The idle clock restarts when the answer goes out: a client
            // whose solve outlived the idle timeout still gets a full
            // window to send its next request.
            *waiter_last_activity.lock().unwrap() = Instant::now();
            waiter_conn_in_flight.fetch_sub(1, Ordering::SeqCst);
            waiter_shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        })
        .expect("spawn waiter thread");
    waiters.push(handle);
    shared.waiter_backlog.fetch_add(1, Ordering::SeqCst);
}

fn reply_error(writer: &Arc<Mutex<NetStream>>, cfg: &NetConfig, id: u64, error: WireError) {
    let mut w = writer.lock().unwrap();
    let _ = send_response(&mut w, &NetResponse::Error { id, error }, cfg.write_timeout);
}

/// Maps an admitted request's serve-side failure onto the wire.
fn wire_error(e: ServeError) -> WireError {
    match e {
        ServeError::DeadlineExpired { waited } => WireError::DeadlineExpired {
            waited_us: waited.as_micros() as u64,
        },
        ServeError::WorkerPanic(msg) => WireError::WorkerPanic(msg),
        ServeError::Unservable(msg) => WireError::Unservable(msg),
        // Repairs never ride the wire; a session refusal here would mean a
        // protocol bug, and BadRequest is its honest spelling.
        ServeError::RejectedDelta(msg) => WireError::BadRequest(msg),
    }
}

// ---------------------------------------------------------------------------
// PlanClient
// ---------------------------------------------------------------------------

/// Client-side configuration of a [`PlanClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for dialing the server.
    pub connect_timeout: Duration,
    /// Deadline for one response read (covers the whole solve).
    pub request_timeout: Duration,
    /// Deadline for writing one request frame.
    pub write_timeout: Duration,
    /// Bounded retry budget for retryable transport faults (0 = one
    /// attempt, no retries).
    pub retries: u32,
    /// First retry backoff; doubles per consecutive retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed of the deterministic retry jitter (vary per client to
    /// de-synchronize a fleet without losing reproducibility).
    pub jitter_seed: u64,
    /// The largest frame accepted.
    pub max_frame_len: usize,
    /// Re-verify each served artifact's certificate against the local
    /// copy of the instance before accepting it.
    pub verify: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(10),
            retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x5eed_cafe,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            verify: true,
        }
    }
}

/// A typed client-side failure: either the transport broke (possibly
/// after exhausting retries) or the server answered with a typed refusal.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport failed.
    Transport(TransportError),
    /// The server refused or failed the request, typed.
    Serve(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A successfully served remote plan.
#[derive(Debug, Clone)]
pub struct RemotePlan {
    /// The certified artifact (verified locally when
    /// [`ClientConfig::verify`] is on).
    pub artifact: PlanArtifact,
    /// `true` when the server served it from its memo cache.
    pub memo_hit: bool,
    /// `true` when the plan was deadline-degraded.
    pub degraded: bool,
    /// Transport retries this request burned before succeeding.
    pub retries: u32,
}

/// A retrying plan client. One connection, lazily dialed and re-dialed:
/// a retryable transport fault drops the connection, backs off
/// (exponential with deterministic seeded jitter), reconnects, and
/// re-sends — safe because solves are idempotent under their memo key.
pub struct PlanClient {
    addr: NetAddr,
    cfg: ClientConfig,
    conn: Option<NetStream>,
    rtt: Option<Duration>,
    next_id: u64,
    rng: u64,
    retries_total: u64,
}

impl PlanClient {
    /// A client for `addr` (no connection is made until the first call).
    pub fn new(addr: NetAddr, cfg: ClientConfig) -> Self {
        PlanClient {
            addr,
            cfg,
            conn: None,
            rtt: None,
            next_id: 1,
            rng: cfg.jitter_seed | 1,
            retries_total: 0,
        }
    }

    /// The last observed round-trip estimate (handshake or ping).
    pub fn rtt(&self) -> Option<Duration> {
        self.rtt
    }

    /// Total transport retries burned over this client's lifetime.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Drops the connection; the next call re-dials.
    pub fn disconnect(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Backoff for the `attempt`-th retry (0-based): exponential from
    /// `backoff_base`, capped, times a deterministic jitter in [1, 1.5).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.backoff_max);
        base + Duration::from_nanos(
            (base.as_nanos() as u64 / 2).wrapping_mul(self.xorshift() % 1024) / 1024,
        )
    }

    /// Dials and handshakes, measuring the round trip as the RTT estimate.
    fn ensure_connected(&mut self) -> Result<(), TransportError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = self.addr.connect(self.cfg.connect_timeout)?;
        let t = Instant::now();
        send_request(&mut stream, &hello(), self.cfg.write_timeout)?;
        match recv_response(
            &mut stream,
            self.cfg.max_frame_len,
            self.cfg.connect_timeout,
        )? {
            Some(NetResponse::HelloAck { codec_version, .. }) => {
                if codec_version != SCHEMA_VERSION {
                    return Err(TransportError::VersionSkew {
                        found: codec_version,
                        expected: SCHEMA_VERSION,
                    });
                }
                self.rtt = Some(t.elapsed());
                self.conn = Some(stream);
                Ok(())
            }
            Some(NetResponse::Error { error, .. }) => Err(TransportError::Protocol(format!(
                "handshake refused: {error}"
            ))),
            Some(_) => Err(TransportError::Protocol("expected HelloAck".to_string())),
            None => Err(TransportError::Io(
                "server closed during handshake".to_string(),
            )),
        }
    }

    /// One heartbeat round trip; refreshes the RTT estimate.
    pub fn ping(&mut self) -> Result<Duration, TransportError> {
        self.ensure_connected()?;
        let nonce = self.xorshift();
        let conn = self.conn.as_mut().expect("connected above");
        let t = Instant::now();
        let sent = send_request(conn, &NetRequest::Ping { nonce }, self.cfg.write_timeout);
        if let Err(e) = sent {
            self.disconnect();
            return Err(e);
        }
        match recv_response(conn, self.cfg.max_frame_len, self.cfg.connect_timeout) {
            Ok(Some(NetResponse::Pong { nonce: echoed })) if echoed == nonce => {
                let rtt = t.elapsed();
                self.rtt = Some(rtt);
                Ok(rtt)
            }
            Ok(_) => {
                self.disconnect();
                Err(TransportError::Protocol(
                    "expected matching Pong".to_string(),
                ))
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Asks the server to begin a graceful drain; returns how many
    /// requests were still in flight.
    pub fn drain(&mut self) -> Result<u64, TransportError> {
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("connected above");
        if let Err(e) = send_request(conn, &NetRequest::Drain, self.cfg.write_timeout) {
            self.disconnect();
            return Err(e);
        }
        match recv_response(conn, self.cfg.max_frame_len, self.cfg.request_timeout) {
            Ok(Some(NetResponse::DrainAck { in_flight })) => Ok(in_flight),
            Ok(_) => {
                self.disconnect();
                Err(TransportError::Protocol("expected DrainAck".to_string()))
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Solves an instance remotely under an optional deadline budget,
    /// with bounded retries on retryable transport faults.
    ///
    /// Deadline propagation: the client subtracts half its observed RTT
    /// (the forward-transit estimate) from the budget before sending, so
    /// the server sees the time that is genuinely left. A budget smaller
    /// than the transit time is sent as zero and comes back as a typed
    /// [`WireError::DeadlineExpired`] — expired in transit, not wasted on
    /// a solve nobody can use.
    ///
    /// The budget is a *per-call* deadline, not a per-attempt one: each
    /// retry's budget is the time genuinely left after the attempts and
    /// backoff sleeps already spent, backoff sleeps never run past the
    /// deadline, and a deadline that expires between attempts fails
    /// locally with a typed [`WireError::DeadlineExpired`] instead of
    /// burning the rest of the retry budget.
    pub fn solve(
        &mut self,
        bench: &Benchmark,
        synthesis: &Synthesis,
        config: &PdwConfig,
        budget: Option<Duration>,
    ) -> Result<RemotePlan, ClientError> {
        let start = Instant::now();
        let deadline = budget.map(|b| start + b);
        let mut attempt = 0u32;
        loop {
            let remaining = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(ClientError::Serve(WireError::DeadlineExpired {
                            waited_us: start.elapsed().as_micros() as u64,
                        }));
                    }
                    Some(left)
                }
                None => None,
            };
            match self.solve_once(bench, synthesis, config, remaining) {
                Ok(mut plan) => {
                    plan.retries = attempt;
                    return Ok(plan);
                }
                Err(ClientError::Transport(e)) if e.retryable() && attempt < self.cfg.retries => {
                    self.disconnect();
                    self.retries_total += 1;
                    let mut pause = self.backoff(attempt);
                    if let Some(d) = deadline {
                        pause = pause.min(d.saturating_duration_since(Instant::now()));
                    }
                    std::thread::sleep(pause);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn solve_once(
        &mut self,
        bench: &Benchmark,
        synthesis: &Synthesis,
        config: &PdwConfig,
        budget: Option<Duration>,
    ) -> Result<RemotePlan, ClientError> {
        self.ensure_connected().map_err(ClientError::Transport)?;
        let transit = self.rtt.unwrap_or_default() / 2;
        let budget_us = budget.map(|b| b.saturating_sub(transit).as_micros() as u64);
        // Bound the response wait by the budget (plus the return transit
        // and a small grace for the server's typed expiry to arrive): a
        // dead transport must not hold the caller past its deadline.
        let read_timeout = match budget {
            Some(b) => self
                .cfg
                .request_timeout
                .min(b + transit + Duration::from_millis(100)),
            None => self.cfg.request_timeout,
        };
        let id = self.next_id;
        self.next_id += 1;
        let req = NetRequest::Solve {
            id,
            budget_us,
            solve: Box::new(SolveRequest {
                bench: bench.clone(),
                synthesis: synthesis.clone(),
                config: config.clone(),
            }),
        };
        let conn = self.conn.as_mut().expect("connected above");
        if let Err(e) = send_request(conn, &req, self.cfg.write_timeout) {
            self.disconnect();
            return Err(ClientError::Transport(e));
        }
        loop {
            match recv_response(conn, self.cfg.max_frame_len, read_timeout) {
                // A stale Pong from an earlier ping is not this answer.
                Ok(Some(NetResponse::Pong { .. })) => continue,
                Ok(Some(NetResponse::Plan {
                    id: rid,
                    memo_hit,
                    degraded,
                    artifact,
                })) if rid == id => {
                    if self.cfg.verify {
                        if let Err(msg) = artifact.verify(bench, synthesis) {
                            self.disconnect();
                            return Err(ClientError::Transport(TransportError::Protocol(format!(
                                "served artifact failed its certificate: {msg}"
                            ))));
                        }
                    }
                    return Ok(RemotePlan {
                        artifact: *artifact,
                        memo_hit,
                        degraded,
                        retries: 0,
                    });
                }
                Ok(Some(NetResponse::Error { id: rid, error })) if rid == id || rid == 0 => {
                    // A draining server is typed at the transport level so
                    // the retry loop knows to stop.
                    if error == WireError::ShuttingDown {
                        self.disconnect();
                        return Err(ClientError::Transport(TransportError::ServerDraining));
                    }
                    return Err(ClientError::Serve(error));
                }
                Ok(Some(_)) => {
                    self.disconnect();
                    return Err(ClientError::Transport(TransportError::Protocol(
                        "response for a different request id".to_string(),
                    )));
                }
                Ok(None) => {
                    self.disconnect();
                    return Err(ClientError::Transport(TransportError::Io(
                        "server closed mid-request".to_string(),
                    )));
                }
                Err(e) => {
                    self.disconnect();
                    return Err(ClientError::Transport(e));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Socket load driver (soak tests, bench_serve --socket)
// ---------------------------------------------------------------------------

/// One socket-load request: a pool index that arrives `at_us` after
/// stream start.
#[derive(Debug, Clone, Copy)]
pub struct SocketJob {
    /// Arrival time, microseconds after run start (ignored unpaced).
    pub at_us: u64,
    /// Which `(bench, synthesis)` pool entry to solve.
    pub pool_index: usize,
    /// Per-request deadline budget.
    pub budget: Option<Duration>,
}

/// Aggregate results of one socket load run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SocketLoadReport {
    /// Requests attempted.
    pub requests: usize,
    /// Requests served a verified plan.
    pub served: usize,
    /// Served responses that hit the server's memo cache.
    pub memo_hits: usize,
    /// Served responses that were deadline-degraded.
    pub degraded: usize,
    /// Requests that ended in a typed transport error.
    pub transport_errors: usize,
    /// Requests that ended in a typed serve error.
    pub serve_errors: usize,
    /// Transport retries burned across all clients.
    pub retries: u64,
    /// One line per failed request: `"<kind>: <display>"` — every entry
    /// here is typed by construction; an untyped failure is a panic.
    pub errors: Vec<String>,
    /// Median end-to-end latency of served requests, ms.
    pub p50_ms: f64,
    /// 99th-percentile latency of served requests, ms.
    pub p99_ms: f64,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
}

/// Drives `jobs` against a socket endpoint from `clients` concurrent
/// [`PlanClient`]s (job *i* goes to client *i* mod `clients`; each client
/// gets a distinct jitter seed). With `pace`, submissions honor their
/// `at_us` arrival times against real wall time. Every job's outcome is
/// typed: served plans are certificate-verified, failures are collected
/// as [`ClientError`] strings.
pub fn run_socket_load(
    addr: &NetAddr,
    pool: &[(Benchmark, Synthesis)],
    config: &PdwConfig,
    jobs: &[SocketJob],
    clients: usize,
    client_cfg: ClientConfig,
    pace: bool,
) -> SocketLoadReport {
    assert!(!pool.is_empty(), "socket load needs a non-empty pool");
    let clients = clients.max(1);
    let wall0 = Instant::now();
    struct LaneOut {
        served: usize,
        memo_hits: usize,
        degraded: usize,
        transport_errors: usize,
        serve_errors: usize,
        retries: u64,
        errors: Vec<String>,
        latencies_ms: Vec<f64>,
    }
    let lanes: Vec<LaneOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|lane| {
                scope.spawn(move || {
                    let mut cfg = client_cfg;
                    cfg.jitter_seed = client_cfg.jitter_seed.wrapping_add(lane as u64);
                    let mut client = PlanClient::new(addr.clone(), cfg);
                    let mut out = LaneOut {
                        served: 0,
                        memo_hits: 0,
                        degraded: 0,
                        transport_errors: 0,
                        serve_errors: 0,
                        retries: 0,
                        errors: Vec::new(),
                        latencies_ms: Vec::new(),
                    };
                    for job in jobs.iter().skip(lane).step_by(clients) {
                        if pace {
                            let target = Duration::from_micros(job.at_us);
                            let elapsed = wall0.elapsed();
                            if target > elapsed {
                                std::thread::sleep(target - elapsed);
                            }
                        }
                        let (bench, synthesis) = &pool[job.pool_index % pool.len()];
                        let t = Instant::now();
                        match client.solve(bench, synthesis, config, job.budget) {
                            Ok(plan) => {
                                out.served += 1;
                                out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                if plan.memo_hit {
                                    out.memo_hits += 1;
                                }
                                if plan.degraded {
                                    out.degraded += 1;
                                }
                            }
                            Err(e) => {
                                match &e {
                                    ClientError::Transport(_) => out.transport_errors += 1,
                                    ClientError::Serve(_) => out.serve_errors += 1,
                                }
                                out.errors.push(e.to_string());
                            }
                        }
                    }
                    out.retries = client.retries_total();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let wall_s = wall0.elapsed().as_secs_f64();
    let mut report = SocketLoadReport {
        requests: jobs.len(),
        served: 0,
        memo_hits: 0,
        degraded: 0,
        transport_errors: 0,
        serve_errors: 0,
        retries: 0,
        errors: Vec::new(),
        p50_ms: 0.0,
        p99_ms: 0.0,
        wall_s,
    };
    let mut latencies: Vec<f64> = Vec::new();
    for lane in lanes {
        report.served += lane.served;
        report.memo_hits += lane.memo_hits;
        report.degraded += lane.degraded;
        report.transport_errors += lane.transport_errors;
        report.serve_errors += lane.serve_errors;
        report.retries += lane.retries;
        report.errors.extend(lane.errors);
        latencies.extend(lane.latencies_ms);
    }
    report.p50_ms = percentile(&mut latencies, 0.50);
    report.p99_ms = percentile(&mut latencies, 0.99);
    report
}

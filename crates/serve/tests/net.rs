//! Integration tests of the socket transport: TCP and Unix round trips
//! bit-identical to in-process solves, typed version skew and frame-cap
//! refusals, deadline expiry in transit, graceful drain under load with
//! post-drain address reuse, and the chaos-proxy sweep — every fault mode
//! must end in a typed outcome, never a panic, a hang, or a wrong plan.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathdriver_wash::codec::{encode_frame, FrameType};
use pathdriver_wash::transport::{hello, recv_response, send_request};
use pathdriver_wash::{
    plan_resilient, NetAddr, NetListener, NetRequest, NetResponse, TransportError, WireError,
    SCHEMA_VERSION,
};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_serve::{
    run_socket_load, ChaosMode, ChaosProxy, ChaosSpec, ClientConfig, ClientError, NetConfig,
    PlanClient, PlanServer, ServeConfig, SocketJob, SocketServer,
};
use pdw_synth::{synthesize, Synthesis};

/// A pool of `n` instances on distinct chips (pristine demo + faulted
/// variants), as plain pairs for the wire.
fn wire_pool(n: usize) -> Vec<(Benchmark, Synthesis)> {
    let bench = benchmarks::demo();
    let base = synthesize(&bench).unwrap();
    let mut pool = vec![(bench.clone(), base.clone())];
    let mut seed = 0u64;
    while pool.len() < n {
        seed += 1;
        // Some seeds fault nothing; only chips distinct from every pool
        // member count (distinct chip ⇒ distinct memo key).
        let variant = pdw_gen::inject_faults(&base, seed);
        let hash = |s: &Synthesis| pdw_serve::Instance::new(bench.clone(), s.clone()).chip_hash();
        if pool.iter().all(|(_, s)| hash(s) != hash(&variant)) {
            pool.push((bench.clone(), variant));
        }
    }
    pool
}

/// The planner config every networked client must send: the listening
/// server's own ([`ServeConfig::default`]'s) — anything else is refused.
fn wire_config() -> pathdriver_wash::PdwConfig {
    ServeConfig::default().planner
}

fn start_server(listener: NetListener, net: NetConfig) -> (Arc<PlanServer>, SocketServer) {
    let plan = Arc::new(PlanServer::start(ServeConfig::default()));
    let sock = SocketServer::start(Arc::clone(&plan), listener, net);
    (plan, sock)
}

fn tcp_server() -> (Arc<PlanServer>, SocketServer) {
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    start_server(listener, NetConfig::default())
}

/// A fast-failing client config for fault tests: short timeouts, short
/// backoff, so a chaos sweep finishes in seconds instead of minutes.
fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(30),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        ..ClientConfig::default()
    }
}

#[test]
fn tcp_and_unix_roundtrips_are_bit_identical_to_in_process() {
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let reference = plan_resilient(&bench, &synthesis, &wire_config())
        .served
        .expect("demo instance solves");

    let unix_path = std::env::temp_dir().join(format!("pdw-net-rt-{}.sock", std::process::id()));
    let listeners = [
        NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap(),
        NetListener::bind(&NetAddr::Unix(unix_path)).unwrap(),
    ];
    for listener in listeners {
        let (plan, sock) = start_server(listener, NetConfig::default());
        let addr = sock.local_addr();
        let mut client = PlanClient::new(addr.clone(), ClientConfig::default());
        let first = client
            .solve(&bench, &synthesis, &wire_config(), None)
            .unwrap_or_else(|e| panic!("{addr}: remote solve failed: {e}"));
        // The client already re-verified the certificate (verify: true);
        // the schedule must be byte-for-byte the in-process plan.
        assert_eq!(
            first.artifact.result.schedule, reference.schedule,
            "{addr}: remote plan differs from in-process"
        );
        assert_eq!(first.artifact.result.metrics, reference.metrics);
        assert!(!first.memo_hit, "{addr}: first solve is cold");
        assert_eq!(first.retries, 0);
        assert!(client.rtt().is_some(), "{addr}: handshake measured an RTT");

        let second = client
            .solve(&bench, &synthesis, &wire_config(), None)
            .expect("second solve");
        assert!(second.memo_hit, "{addr}: identical instance hits the memo");
        assert_eq!(second.artifact.result.schedule, reference.schedule);

        let ping = client.ping().expect("heartbeat answers");
        assert!(ping < Duration::from_secs(1));

        assert_eq!(plan.stats().solves, 1, "{addr}: one ladder run for both");
        let ns = sock.stats();
        assert_eq!(ns.solves, 2);
        assert_eq!(ns.handshake_failures, 0);
        sock.drain();
        plan.shutdown();
    }
}

#[test]
fn version_skew_and_config_mismatch_are_typed_refusals() {
    let (plan, sock) = tcp_server();
    let addr = sock.local_addr();

    // Field-level version skew: a well-framed Hello announcing the wrong
    // protocol version (byte-level skew is caught by the frame envelope).
    let mut raw = addr.connect(Duration::from_secs(2)).unwrap();
    send_request(
        &mut raw,
        &NetRequest::Hello {
            codec_version: SCHEMA_VERSION + 1,
        },
        Duration::from_secs(2),
    )
    .unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Error {
            error: WireError::BadRequest(msg),
            ..
        })) => {
            assert!(msg.contains("version mismatch"), "got: {msg}");
        }
        other => panic!("expected a typed version refusal, got {other:?}"),
    }

    // Config-fingerprint mismatch: a well-versioned Solve asking for a
    // different planner config than the one the server runs.
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(addr, ClientConfig::default());
    let foreign = pathdriver_wash::PdwConfig {
        candidates: wire_config().candidates + 1,
        ..wire_config()
    };
    match client.solve(&bench, &synthesis, &foreign, None) {
        Err(ClientError::Serve(WireError::BadRequest(msg))) => {
            assert!(msg.contains("fingerprint"), "got: {msg}");
        }
        other => panic!("expected a typed config refusal, got {other:?}"),
    }
    assert!(sock.stats().handshake_failures >= 1);
    assert!(sock.stats().bad_requests >= 1);
    sock.drain();
    plan.shutdown();
}

#[test]
fn oversized_frames_are_refused_before_allocation() {
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    let (plan, sock) = start_server(
        listener,
        NetConfig {
            // Big enough for the handshake, far too small for a Solve.
            max_frame_len: 2048,
            ..NetConfig::default()
        },
    );
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    match client.solve(&bench, &synthesis, &wire_config(), None) {
        Err(ClientError::Serve(WireError::BadRequest(msg))) => {
            assert!(
                msg.contains("frame"),
                "refusal names the frame guard: {msg}"
            );
        }
        other => panic!("expected a typed frame-cap refusal, got {other:?}"),
    }
    sock.drain();
    plan.shutdown();
}

#[test]
fn deadline_smaller_than_transit_expires_typed_without_a_solve() {
    let (plan, sock) = tcp_server();
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    // 1ns budget: after subtracting the transit estimate the server sees
    // zero — the deadline expired in transit and must come back typed.
    match client.solve(
        &bench,
        &synthesis,
        &wire_config(),
        Some(Duration::from_nanos(1)),
    ) {
        Err(ClientError::Serve(WireError::DeadlineExpired { .. })) => {}
        other => panic!("expected a typed in-transit expiry, got {other:?}"),
    }
    assert_eq!(plan.stats().solves, 0, "no ladder run was wasted on it");
    sock.drain();
    plan.shutdown();
}

/// The chaos sweep: every fault mode against the first proxied connection,
/// with retries on. Every request must end typed — served (verified,
/// bit-identical) or a typed error — and the server must do exactly one
/// ladder run per unique instance regardless of retries (retry safety via
/// the memo key).
#[test]
fn chaos_sweep_has_zero_untyped_errors_and_no_duplicate_solves() {
    let pool = wire_pool(2);
    let jobs: Vec<SocketJob> = (0..6)
        .map(|i| SocketJob {
            at_us: 0,
            pool_index: i % pool.len(),
            budget: None,
        })
        .collect();
    for spec in ChaosSpec::all_modes(1) {
        let (plan, sock) = tcp_server();
        let mut proxy = ChaosProxy::start(sock.local_addr(), Some(spec));
        let report = run_socket_load(
            &proxy.local_addr(),
            &pool,
            &wire_config(),
            &jobs,
            2,
            fast_client(),
            false,
        );
        // Typed everywhere: served + typed errors account for every job.
        assert_eq!(
            report.served + report.transport_errors + report.serve_errors,
            report.requests,
            "{spec}: some request ended untyped"
        );
        for line in &report.errors {
            assert!(
                line.starts_with("transport: ") || line.starts_with("serve: "),
                "{spec}: untyped error line: {line}"
            );
        }
        // With retries on, a single faulted connection never costs a plan.
        assert_eq!(
            report.served, report.requests,
            "{spec}: retries absorb the fault; errors: {:?}",
            report.errors
        );
        if !matches!(spec.mode, ChaosMode::Delay(_)) {
            assert!(
                report.retries >= 1,
                "{spec}: the faulted connection forced a retry"
            );
        }
        // Retry safety: solves == unique memo keys, retries included.
        assert_eq!(
            plan.stats().solves,
            pool.len() as u64,
            "{spec}: duplicate ladder runs under retry"
        );
        assert!(proxy.accepted() >= 1, "{spec}: traffic went via the proxy");
        proxy.stop();
        sock.shutdown();
        plan.shutdown();
    }
}

/// The 1k-request open-loop soak through a chaos proxy (first connection
/// torn mid-handshake) at client counts {1, 8}: all served, all verified,
/// solve count still equals the unique-instance count.
#[test]
fn socket_soak_1k_requests_through_the_chaos_proxy() {
    let pool = wire_pool(4);
    let jobs: Vec<SocketJob> = (0..1000)
        .map(|i| SocketJob {
            at_us: (i as u64) * 200,
            pool_index: (i * 7 + 3) % pool.len(),
            budget: None,
        })
        .collect();
    for clients in [1usize, 8] {
        let (plan, sock) = tcp_server();
        let mut proxy = ChaosProxy::start(
            sock.local_addr(),
            Some(ChaosSpec {
                mode: ChaosMode::Disconnect,
                nth: 1,
            }),
        );
        let report = run_socket_load(
            &proxy.local_addr(),
            &pool,
            &wire_config(),
            &jobs,
            clients,
            fast_client(),
            true,
        );
        assert_eq!(
            report.served, 1000,
            "clients={clients}: all soak requests serve; errors: {:?}",
            report.errors
        );
        assert_eq!(report.transport_errors + report.serve_errors, 0);
        assert!(
            report.memo_hits >= 1000 - pool.len(),
            "clients={clients}: everything after the cold solves hits the memo"
        );
        assert!(
            report.retries >= 1,
            "clients={clients}: the torn first connection was retried"
        );
        assert_eq!(
            plan.stats().solves,
            pool.len() as u64,
            "clients={clients}: one ladder run per unique instance"
        );
        assert!(report.p99_ms >= report.p50_ms);
        proxy.stop();
        sock.shutdown();
        plan.shutdown();
    }
}

/// Graceful drain under load: in-flight solves finish, late arrivals are
/// answered `ShuttingDown` (surfaced as a non-retryable transport error),
/// and after the drain the same Unix address rebinds — where a batch
/// client mid-stream reconnects and keeps going against the new server.
#[test]
fn drain_under_load_finishes_in_flight_then_frees_the_address() {
    let unix_path = std::env::temp_dir().join(format!("pdw-net-drain-{}.sock", std::process::id()));
    let addr = NetAddr::Unix(unix_path.clone());
    let listener = NetListener::bind(&addr).unwrap();
    let (plan, sock) = start_server(listener, NetConfig::default());
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let reference = plan_resilient(&bench, &synthesis, &wire_config())
        .served
        .expect("solves");

    // Hold the queue so a submitted solve stays in flight across the drain.
    plan.pause();
    let in_flight_client = {
        let addr = addr.clone();
        let (bench, synthesis) = (bench.clone(), synthesis.clone());
        std::thread::spawn(move || {
            let mut client = PlanClient::new(addr, ClientConfig::default());
            client.solve(&bench, &synthesis, &wire_config(), None)
        })
    };
    while sock.in_flight() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Two more connections open *before* the drain, so they outlive the
    // accept loop: one to observe the post-drain refusal, one to carry a
    // stale connection into the post-rebind reconnect check.
    let mut admin = PlanClient::new(addr.clone(), ClientConfig::default());
    admin.ping().expect("admin connection is up pre-drain");
    let mut batch = PlanClient::new(addr.clone(), ClientConfig::default());
    batch.ping().expect("batch connection is up pre-drain");

    // Drain arrives over the wire while that solve is still queued.
    let pending = admin.drain().expect("drain acknowledged");
    assert_eq!(pending, 1, "the held solve is reported in flight");
    assert!(sock.is_draining());

    // A late solve on the surviving connection is refused typed — and the
    // client does not retry it (draining is not a retryable fault).
    match admin.solve(&bench, &synthesis, &wire_config(), None) {
        Err(ClientError::Transport(TransportError::ServerDraining)) => {}
        other => panic!("expected a typed draining refusal, got {other:?}"),
    }
    assert_eq!(admin.retries_total(), 0, "draining is not retryable");
    assert!(sock.stats().drain_refused >= 1);

    // Release the queue: the in-flight solve completes and is served.
    plan.resume();
    let served = in_flight_client
        .join()
        .expect("client thread")
        .expect("in-flight solve survives the drain");
    assert_eq!(served.artifact.result.schedule, reference.schedule);
    sock.drain();
    assert_eq!(sock.in_flight(), 0);

    // The drained listener released the Unix path: the same address
    // rebinds, and a client that served against the old server reconnects
    // mid-batch against the new one after its dead connection surfaces as
    // a retryable fault.
    let listener = NetListener::bind(&addr).expect("post-drain rebind of the same path");
    let (plan2, sock2) = start_server(listener, NetConfig::default());
    // `batch` still holds the connection the old server tore down: its
    // next solve surfaces that as a typed, retryable fault and reconnects.
    let replan = batch
        .solve(&bench, &synthesis, &wire_config(), None)
        .expect("reconnect-mid-batch against the rebound address");
    assert_eq!(replan.artifact.result.schedule, reference.schedule);
    assert!(
        batch.retries_total() >= 1,
        "the dead connection cost a typed, retried fault"
    );
    sock2.drain();
    plan2.shutdown();
    plan.shutdown();
}

/// A frame whose delivery spans several read ticks (a slow link mid-
/// payload) must be assembled across ticks, not torn: the server's
/// 50ms poll may elapse many times inside one frame, and each quiet
/// tick must resume the partial frame instead of discarding it and
/// parsing the remaining bytes as a fresh header.
#[test]
fn slow_trickle_mid_frame_does_not_desync_the_stream() {
    let (plan, sock) = tcp_server(); // read_tick = 50ms
    let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    send_request(&mut raw, &hello(), Duration::from_secs(2)).unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::HelloAck { .. })) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Trickle a Ping frame in three pieces — split mid-header and
    // mid-payload — with gaps several read ticks wide.
    let frame = encode_frame(FrameType::NetRequest, &NetRequest::Ping { nonce: 0xf00d });
    assert!(frame.len() > 14, "frame long enough to split three ways");
    for piece in [&frame[..7], &frame[7..14], &frame[14..]] {
        raw.write_all(piece).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Pong { nonce })) => assert_eq!(nonce, 0xf00d),
        other => panic!("trickled frame was torn: {other:?}"),
    }

    // The stream is still in sync: a whole frame right after round-trips.
    send_request(
        &mut raw,
        &NetRequest::Ping { nonce: 0xbeef },
        Duration::from_secs(2),
    )
    .unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Pong { nonce })) => assert_eq!(nonce, 0xbeef),
        other => panic!("stream desynced after the trickled frame: {other:?}"),
    }
    assert_eq!(sock.stats().pings, 2);
    sock.drain();
    plan.shutdown();
}

/// Envelope-level version skew (the frame's version byte, not the Hello
/// field) must be answered with a typed error frame before the server
/// closes — a silent close reads as a retryable I/O fault and makes a
/// skewed client burn its whole retry budget instead of failing fast.
#[test]
fn envelope_version_skew_gets_a_typed_handshake_reply() {
    let (plan, sock) = tcp_server();
    let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    let mut frame = encode_frame(FrameType::NetRequest, &hello());
    frame[4] = SCHEMA_VERSION.wrapping_add(1); // version byte in the envelope
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Error {
            error: WireError::BadRequest(msg),
            ..
        })) => assert!(msg.contains("skew"), "refusal names the skew: {msg}"),
        other => panic!("expected a typed skew refusal, got {other:?}"),
    }
    assert!(sock.stats().handshake_failures >= 1);
    sock.drain();
    plan.shutdown();
}

/// A solve that outlives the idle timeout must not get its connection
/// evicted the moment the response is written: the idle clock restarts
/// when the answer goes out, so a sequential slow workload keeps its
/// connection between requests.
#[test]
fn slow_solve_completion_restarts_the_idle_clock() {
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    let (plan, sock) = start_server(
        listener,
        NetConfig {
            idle_timeout: Duration::from_millis(600),
            read_tick: Duration::from_millis(20),
            ..NetConfig::default()
        },
    );
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    // Hold the queue so the solve reliably outlives the idle timeout.
    plan.pause();
    let addr = sock.local_addr();
    let solver = {
        let (bench, synthesis) = (bench.clone(), synthesis.clone());
        std::thread::spawn(move || {
            let mut client = PlanClient::new(addr, ClientConfig::default());
            client
                .solve(&bench, &synthesis, &wire_config(), None)
                .expect("held solve serves once released");
            // Well inside the *restarted* idle window, far outside the
            // one measured from the request's arrival.
            std::thread::sleep(Duration::from_millis(300));
            client.ping().expect("connection survives a slow solve")
        })
    };
    while sock.in_flight() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(900)); // > idle_timeout
    plan.resume();
    solver.join().expect("solver thread");
    assert_eq!(sock.stats().idle_evicted, 0, "no spurious eviction");
    sock.drain();
    plan.shutdown();
}

/// The budget passed to [`PlanClient::solve`] is a per-call deadline:
/// retries and backoff sleeps spend it, and once it is gone the call
/// fails locally with a typed expiry instead of running the whole retry
/// ladder against a dead server.
#[test]
fn retry_loop_honors_the_per_call_deadline() {
    // A dead address: bind a port for its number, then free it.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = NetAddr::Tcp(format!("127.0.0.1:{}", dead.local_addr().unwrap().port()));
    drop(dead);
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(
        addr,
        ClientConfig {
            retries: 10,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    );
    let t = Instant::now();
    match client.solve(
        &bench,
        &synthesis,
        &wire_config(),
        Some(Duration::from_millis(250)),
    ) {
        Err(ClientError::Serve(WireError::DeadlineExpired { .. })) => {}
        other => panic!("expected a local deadline expiry, got {other:?}"),
    }
    // Ten 100ms-doubling backoffs would take many seconds; the deadline
    // bounds the call near its 250ms budget.
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "call returned near its deadline, not after the retry ladder: {elapsed:?}"
    );
    assert!(client.retries_total() >= 1, "the dead server was retried");
}

/// Finished connection threads are reaped while the server runs — a
/// long-running listener must not hold one JoinHandle per connection it
/// ever accepted until shutdown.
#[test]
fn finished_connection_threads_are_reaped() {
    let (plan, sock) = tcp_server();
    let addr = sock.local_addr();
    for _ in 0..8 {
        let mut client = PlanClient::new(addr.clone(), ClientConfig::default());
        client.ping().expect("connects");
        client.disconnect();
    }
    // The accept loop reaps finished handles on every pass; give the
    // closed connections a moment to unwind.
    let t = Instant::now();
    while (sock.stats().active > 0 || sock.conn_thread_backlog() > 0)
        && t.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sock.stats().accepted, 8);
    assert_eq!(sock.stats().active, 0);
    assert_eq!(
        sock.conn_thread_backlog(),
        0,
        "finished handles reaped before shutdown"
    );
    sock.drain();
    plan.shutdown();
}

/// Each socket solve parks a waiter thread; finished waiters are reaped
/// while the connection lives, so a long-lived connection does not hold
/// one un-joined thread per solve it was ever served.
#[test]
fn finished_solve_waiters_are_reaped_on_a_long_lived_connection() {
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let (plan, sock) = tcp_server();
    let mut client = PlanClient::new(
        sock.local_addr(),
        ClientConfig {
            verify: false,
            ..ClientConfig::default()
        },
    );
    let mut peak = 0;
    for _ in 0..500 {
        client
            .solve(&bench, &synthesis, &wire_config(), None)
            .expect("solve");
        peak = peak.max(sock.waiter_backlog());
    }
    assert_eq!(sock.stats().solves, 500);
    assert!(
        peak <= 8,
        "waiter backlog reached {peak} over 500 sequential solves"
    );
    // The read loop reaps on every tick, so the last waiter goes too.
    let t = Instant::now();
    while sock.waiter_backlog() > 0 && t.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sock.waiter_backlog(), 0, "idle connection holds no waiters");
    client.disconnect();
    sock.drain();
    plan.shutdown();
}

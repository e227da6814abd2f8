//! `socket-memo`: a `SocketServer` on loopback TCP with 2 closed-loop
//! `PlanClient`s (`verify: true`) over the 9 bundled instances. An untimed
//! warm-up pass first puts every instance in the memo, so every timed
//! request is a memo hit: the planner does no work, and latency is codec,
//! transport, net server, certification and client verification.

use std::time::{Duration, Instant};

use pathdriver_wash::codec::{
    canonical_bytes, config_fingerprint, decode_frame, encode_frame, instance_hash, FrameType,
};
use pathdriver_wash::{
    plan_resilient, NetAddr, NetListener, NetRequest, PdwConfig, PlanArtifact, RungKind,
    SolveRequest, VerificationCertificate, WashResult,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_serve::{
    ClientConfig, ClientError, Instance, NetConfig, PlanClient, PlanServer, ServeConfig,
    ServeRequest, SocketServer,
};
use pdw_synth::Synthesis;
use std::sync::Arc;

use crate::common::{
    bundled, check_plan, end_to_end, gate_layers, repeated_setup, segmented, synthesize, traces,
    Opts, Outcome, Phase,
};
use crate::speed::Speed;
use crate::stats::{mean, median, SplitMix};
use crate::trace::{span, Tracer};

const CLIENTS: usize = 2;
/// Repetitions of each replayed layer call per instance.
const REPLAYS: usize = 5;

/// How one timed request ended.
enum Reply {
    Served {
        objective: f64,
        memo_hit: bool,
    },
    /// Served, but the plan failed the gate.
    Wrong(String),
    /// A typed client error.
    Failed(String),
}

/// One instance with its in-process cold reference plan.
struct Case {
    bench: Benchmark,
    synthesis: Synthesis,
    reference: WashResult,
    rung: RungKind,
    certificate: VerificationCertificate,
    schedule_bytes: Vec<u8>,
}

/// Field order is drop order: clients hang up before the servers stop.
struct Setup {
    clients: Vec<PlanClient>,
    socket: SocketServer,
    plan: Arc<PlanServer>,
    cases: Vec<Case>,
}

fn planner() -> PdwConfig {
    ServeConfig::default().planner
}

fn typed(e: &ClientError) -> String {
    let detail = match e {
        ClientError::Transport(t) => format!("transport: {t:?}"),
        ClientError::Serve(w) => format!("serve: {w:?}"),
    };
    detail
        .split(['(', '{'])
        .next()
        .unwrap_or_default()
        .trim()
        .to_string()
}

/// The gate for one socket-served plan: equal to the cold reference, and
/// (on `full`) independently re-validated and compared byte for byte.
fn check(
    tracer: Option<&Tracer>,
    case: &Case,
    artifact: &PlanArtifact,
    full: bool,
) -> Result<(), String> {
    if artifact.certificate != case.certificate || artifact.result.metrics != case.reference.metrics
    {
        return Err(format!(
            "bit-identity: {} differs from its cold plan",
            case.bench.name
        ));
    }
    if full {
        check_plan(
            tracer,
            None,
            0,
            &case.synthesis.chip,
            &case.bench,
            &artifact.result,
        )?;
        if canonical_bytes(&artifact.result.schedule) != case.schedule_bytes {
            return Err(format!(
                "bit-identity: {} schedule bytes differ",
                case.bench.name
            ));
        }
    }
    Ok(())
}

fn setup(tracer: Option<&Tracer>, seed: u64, out: &mut Outcome) -> Setup {
    let config = planner();
    let cases: Vec<Case> = bundled()
        .into_iter()
        .map(|bench| {
            let synthesis = synthesize(tracer, &bench);
            let outcome = plan_resilient(&bench, &synthesis, &config);
            let reference = outcome.served.expect("the bundled corpus serves");
            let oracle = pdw_sim::propagate(&synthesis.chip, &bench.graph, &reference.schedule);
            Case {
                certificate: PlanArtifact::seal_digests(&synthesis.chip, &reference, &oracle),
                schedule_bytes: canonical_bytes(&reference.schedule),
                rung: outcome.rung.expect("served plans name their rung"),
                reference,
                bench,
                synthesis,
            }
        })
        .collect();
    let plan = Arc::new(PlanServer::start(ServeConfig::default()));
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").expect("loopback address"))
        .expect("bind loopback");
    let socket = SocketServer::start(Arc::clone(&plan), listener, NetConfig::default());
    let addr = socket.local_addr();
    let mut clients: Vec<PlanClient> = (0..CLIENTS as u64)
        .map(|c| {
            PlanClient::new(
                addr.clone(),
                ClientConfig {
                    jitter_seed: seed ^ (c + 1),
                    verify: true,
                    ..ClientConfig::default()
                },
            )
        })
        .collect();
    // The warm-up: one cold solve per instance over the socket.
    for case in &cases {
        let remote = clients[0]
            .solve(&case.bench, &case.synthesis, &config, None)
            .unwrap_or_else(|e| panic!("warm-up solve of {} failed: {e}", case.bench.name));
        if let Err(e) = check(tracer, case, &remote.artifact, true) {
            out.wrong(e);
        }
    }
    for client in &mut clients {
        client.ping().expect("loopback ping");
    }
    Setup {
        clients,
        socket,
        plan,
        cases,
    }
}

/// Closed-loop requests from every client until `seconds` have elapsed.
/// Returns the phase and `(instance, latency_ms)` of each untraced served
/// request.
fn timed(
    s: &mut Setup,
    rngs: &mut [SplitMix],
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> (Phase, Vec<(usize, f64)>) {
    let config = planner();
    let weights = config.weights;
    let cases = &s.cases;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client: Vec<Vec<(usize, Reply, f64, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(rngs.iter_mut())
            .enumerate()
            .map(|(c, (client, rng))| {
                let config = &config;
                scope.spawn(move || {
                    let mut rows = Vec::new();
                    let mut seen = vec![false; cases.len()];
                    let mut round: Vec<usize> = Vec::new();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        // Rounds of seeded shuffles: every instance is asked
                        // for equally often, in a seed-dependent order.
                        if round.is_empty() {
                            round = (0..cases.len()).collect();
                            rng.shuffle(&mut round);
                        }
                        let i = round.pop().expect("a round is never empty");
                        let case = &cases[i];
                        n += 1;
                        let req = (c as u64) << 32 | n;
                        let t = Instant::now();
                        let traced = traces(tracer, n);
                        let r = span(traced, "net.request", None, req, |_| {
                            client.solve(&case.bench, &case.synthesis, config, None)
                        });
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let reply = match r {
                            Ok(remote) => {
                                let full = !std::mem::replace(&mut seen[i], true);
                                match check(tracer, case, &remote.artifact, full) {
                                    Ok(()) => Reply::Served {
                                        objective: remote.artifact.result.objective(&weights),
                                        memo_hit: remote.memo_hit,
                                    },
                                    Err(e) => Reply::Wrong(e),
                                }
                            }
                            Err(e) => Reply::Failed(typed(&e)),
                        };
                        rows.push((i, reply, ms, traced.is_some()));
                    }
                    rows
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut phase = Phase {
        window_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let mut served = Vec::new();
    let mut misses = 0;
    for (i, reply, ms, traced) in per_client.into_iter().flatten() {
        out.attempted += 1;
        match reply {
            Reply::Served {
                objective,
                memo_hit,
            } => {
                misses += u64::from(!memo_hit);
                phase.push(ms, traced);
                phase.objectives.push(objective);
                if !traced {
                    served.push((i, ms));
                }
            }
            Reply::Wrong(e) => out.wrong(e),
            Reply::Failed(e) => out.fail(e),
        }
    }
    if misses > 0 {
        println!("note: {misses} timed requests were not memo hits");
    }
    (phase, served)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let tracer = opts.trace.then(Tracer::new);
    let mut warm = Outcome::default();
    let mut speed = Speed::new(CLIENTS);
    let (mut s, setup_s) =
        repeated_setup(&mut speed, || setup(tracer.as_ref(), opts.seed, &mut warm));
    out.wrong.append(&mut warm.wrong);
    out.failures.append(&mut warm.failures);
    let mut rngs: Vec<SplitMix> = (0..CLIENTS as u64)
        .map(|c| SplitMix::new(opts.seed, 10 + c))
        .collect();
    let mut served = Vec::new();
    let phase = segmented(opts.seconds, &mut speed, |seconds| {
        let (phase, more) = timed(&mut s, &mut rngs, seconds, tracer.as_ref(), &mut out);
        served.extend(more);
        phase
    });
    // p95, not p99: on a busy box the p99 of a hit over loopback spread
    // 0.23 from run to run (a few scheduler stalls a run set it).
    end_to_end(
        &mut out,
        &speed,
        &setup_s,
        &phase,
        true,
        "loopback memo-hit request",
        95,
    );
    if let Some(tr) = &tracer {
        layers(&mut out, tr, &mut s, &served);
    }
    s.socket.drain();
    s.plan.shutdown();
    out.tracer = tracer;
    out
}

fn layers(out: &mut Outcome, tr: &Tracer, s: &mut Setup, served: &[(usize, f64)]) {
    out.span_layer(tr, "synth.synthesize", "synth.synthesize_ms");
    gate_layers(out, tr);
    let config = planner();
    let fingerprint = config_fingerprint(&config);

    // Replay one memo hit's calls per instance, outside the socket path.
    let inproc = PlanServer::start(ServeConfig::default());
    let instances: Vec<Arc<Instance>> = s
        .cases
        .iter()
        .map(|c| Arc::new(Instance::new(c.bench.clone(), c.synthesis.clone())))
        .collect();
    for instance in &instances {
        let solve = ServeRequest::Solve {
            instance: Arc::clone(instance),
        };
        inproc
            .submit(solve)
            .expect("admitted")
            .wait()
            .expect("warm-up served");
    }
    let mut request_bytes = Vec::new();
    let mut artifact_bytes = Vec::new();
    for (i, case) in s.cases.iter().enumerate() {
        let req = i as u64;
        for _ in 0..REPLAYS {
            let hash = span(Some(tr), "core.codec.instance_hash", None, req, |_| {
                instance_hash(&case.bench, &case.synthesis)
            });
            let request = NetRequest::Solve {
                id: 1,
                budget_us: None,
                solve: Box::new(SolveRequest {
                    bench: case.bench.clone(),
                    synthesis: case.synthesis.clone(),
                    config: config.clone(),
                }),
            };
            let frame = span(Some(tr), "core.codec.request_encode", None, req, |_| {
                encode_frame(FrameType::NetRequest, &request)
            });
            let decoded = span(Some(tr), "core.codec.request_decode", None, req, |_| {
                decode_frame::<NetRequest>(FrameType::NetRequest, &frame)
            });
            decoded.expect("request frame round-trips");
            let artifact = span(Some(tr), "core.codec.certify", None, req, |_| {
                PlanArtifact::certified(
                    hash,
                    fingerprint,
                    case.rung,
                    &case.bench,
                    &case.synthesis,
                    case.reference.clone(),
                )
            });
            let bytes = span(Some(tr), "core.codec.artifact_encode", None, req, |_| {
                artifact.encode()
            });
            let back = span(Some(tr), "core.codec.artifact_decode", None, req, |_| {
                PlanArtifact::decode(&bytes)
            })
            .expect("artifact frame round-trips");
            span(Some(tr), "core.codec.verify", None, req, |_| {
                back.verify(&case.bench, &case.synthesis)
            })
            .expect("certified artifact verifies");
            let solve = ServeRequest::Solve {
                instance: Arc::clone(&instances[i]),
            };
            span(Some(tr), "serve.net.inproc_hit", None, req, |_| {
                inproc.submit(solve).expect("admitted").wait()
            })
            .expect("in-process hit served");
            request_bytes.push(frame.len() as f64);
            artifact_bytes.push(bytes.len() as f64);
        }
    }
    inproc.shutdown();

    // Per instance: the median of each replayed call; the layer metric is
    // their mean over the instances (the stream draws them uniformly).
    let layer_calls = [
        ("core.codec.instance_hash", "core.codec.instance_hash_ms"),
        ("core.codec.request_encode", "core.codec.request_encode_ms"),
        ("core.codec.request_decode", "core.codec.request_decode_ms"),
        ("core.codec.certify", "core.codec.certify_ms"),
        (
            "core.codec.artifact_encode",
            "core.codec.artifact_encode_ms",
        ),
        (
            "core.codec.artifact_decode",
            "core.codec.artifact_decode_ms",
        ),
        ("core.codec.verify", "core.codec.verify_ms"),
        ("serve.net.inproc_hit", "serve.net.inproc_hit_ms"),
    ];
    let n = s.cases.len();
    let mut layer_sum = vec![0.0; n];
    for (span_name, metric) in layer_calls {
        let per_instance: Vec<f64> = (0..n)
            .map(|i| median(&tr.durations_ms_req(span_name, i as u64)))
            .collect();
        for (sum, v) in layer_sum.iter_mut().zip(&per_instance) {
            *sum += v;
        }
        out.layer(metric, "ms", mean(&per_instance), n * REPLAYS);
    }
    out.layer(
        "core.codec.request_bytes",
        "bytes",
        mean(&request_bytes),
        request_bytes.len(),
    );
    out.layer(
        "core.codec.artifact_bytes",
        "bytes",
        mean(&artifact_bytes),
        artifact_bytes.len(),
    );

    let unattributed: Vec<f64> = (0..n)
        .filter_map(|i| {
            let lat: Vec<f64> = served.iter().filter(|r| r.0 == i).map(|r| r.1).collect();
            (!lat.is_empty()).then(|| median(&lat) - layer_sum[i])
        })
        .collect();
    out.layer(
        "serve.net.unattributed_ms",
        "ms",
        mean(&unattributed),
        served.len(),
    );

    for client in &mut s.clients {
        for _ in 0..10 {
            let id = tr.begin("core.transport.ping", None, 0);
            let pinged = client.ping();
            tr.end(id);
            pinged.expect("loopback ping");
        }
    }
    out.span_layer(tr, "core.transport.ping", "core.transport.rtt_ms");
    let retries: u64 = s.clients.iter().map(PlanClient::retries_total).sum();
    out.layer(
        "core.transport.retries",
        "count",
        retries as f64,
        s.clients.len(),
    );
}

//! `serve-mixed`: an in-process `PlanServer` with `ServeConfig::default()`
//! (2 workers, ILP off) and 2 closed-loop clients replaying
//! `pdw_gen::request_stream` (reuse 0.3, delta ratio 0.15) over a pool of
//! `spec_from_seed` instances. Each request is a cold greedy solve with
//! ladder verification, a memo hit, or a repair delta through the queue;
//! the ILP and the wire are bypassed.
//!
//! The stream touches fresh pool entries in pool order, so each pass runs
//! on a new server (its memo starts empty) and the pool covers every
//! fresh draw of a pass. Spec seeds 121 and 850 stay in the pool: every
//! ladder rung panics on them today, and those requests count as failed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pathdriver_wash::{plan_resilient, PlanDelta};
use pdw_biochip::routing_counters;
use pdw_gen::{request_stream, StreamOptions};
use pdw_serve::{
    materialize, Instance, PlanServer, Rejected, ServeConfig, ServeError, ServeRequest, Served,
};

use crate::common::{
    check_plan, end_to_end, gate_layers, repeated_setup, report_stages, segmented, share,
    stage_layers, traces, Opts, Outcome, Phase,
};
use crate::speed::Speed;
use crate::stats::{mean, quantile, SplitMix};
use crate::trace::{span, Tracer};

/// Spec seeds `0..POOL` form the pool; a pass draws at most ~980 fresh.
const POOL: u64 = 1000;
/// Requests per pass (one server lifetime).
const PASS: usize = 1300;
const CLIENTS: usize = 2;
/// Threads synthesizing the pool in set-up (one per core).
const SYNTH_THREADS: u64 = 2;
/// Instances whose cold plans the traced run replays single-threaded.
const REPLAYS: usize = 48;

/// One completed request.
struct Row {
    event: usize,
    pool_index: usize,
    response: Result<Served, String>,
}

fn synthesize_pool(tracer: Option<&Tracer>) -> Vec<Arc<Instance>> {
    let slots: Vec<Mutex<Option<Arc<Instance>>>> = (0..POOL).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for lane in 0..SYNTH_THREADS {
            let slots = &slots;
            scope.spawn(move || {
                for seed in (lane..POOL).step_by(SYNTH_THREADS as usize) {
                    let made = span(tracer, "synth.synthesize", None, 0, |_| {
                        pdw_gen::instance(&pdw_gen::spec_from_seed(seed))
                    });
                    if let Ok((bench, synthesis)) = made {
                        *slots[seed as usize].lock().expect("pool slot") =
                            Some(Arc::new(Instance::new(bench, synthesis)));
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .filter_map(|s| s.into_inner().expect("pool slot"))
        .collect()
}

fn typed(e: &ServeError) -> String {
    match e {
        ServeError::DeadlineExpired { .. } => "serve: deadline expired".into(),
        ServeError::WorkerPanic(_) => "serve: worker panic".into(),
        ServeError::Unservable(_) => "serve: unservable".into(),
        ServeError::RejectedDelta(_) => "serve: rejected delta".into(),
    }
}

/// One pass: a fresh server, a fresh stream, two closed-loop clients,
/// until the stream ends. A pass is never cut short: the share of memo
/// hits grows along a pass, so a cut would make the request mix depend
/// on the machine's speed.
fn pass(
    pool: &[Arc<Instance>],
    stream_seed: u64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
    traffic: &mut Traffic,
) -> Phase {
    let events = request_stream(&StreamOptions {
        seed: stream_seed,
        requests: PASS,
        pool: pool.len(),
        mean_gap_us: 1_000,
        reuse: 0.3,
        delta_ratio: 0.15,
    });
    let requests = materialize(&events, pool, None);
    let server = PlanServer::start(ServeConfig::default());
    let weights = ServeConfig::default().planner.weights;
    let next = AtomicUsize::new(0);
    let first_req = out.attempted;
    let rows: Mutex<Vec<(Row, f64)>> = Mutex::new(Vec::with_capacity(PASS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= requests.len() {
                    break;
                }
                let req = first_req + i as u64 + 1;
                let tracer = traces(tracer, i as u64);
                let root = tracer.map(|tr| tr.begin("serve.request", None, req));
                let t = Instant::now();
                let response = match span(tracer, "serve.submit", root, req, |_| {
                    server.submit(requests[i].request.clone())
                }) {
                    Ok(ticket) => span(tracer, "serve.wait", root, req, |_| ticket.wait())
                        .map_err(|e| typed(&e)),
                    Err(Rejected::Saturated { .. }) => Err("shed: saturated".into()),
                    Err(Rejected::ShuttingDown) => Err("shed: shutting down".into()),
                };
                let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                if let (Some(tr), Some(root)) = (tracer, root) {
                    tr.end(root);
                    if let Ok(s) = &response {
                        let kind = match (s.memo_hit, s.repaired) {
                            (true, _) => "serve.service.hit",
                            (_, true) => "serve.service.repair",
                            _ => "serve.service.cold",
                        };
                        let wait_s = (latency_ms / 1e3 - s.service_s).max(0.0);
                        let ids =
                            tr.reported(root, &[("serve.queue_wait", wait_s), (kind, s.service_s)]);
                        if kind == "serve.service.cold" {
                            report_stages(tr, ids[1], &s.plan.result.pipeline);
                        }
                    }
                }
                let row = Row {
                    event: i,
                    pool_index: events[i].pool_index,
                    response,
                };
                rows.lock().expect("rows").push((row, latency_ms));
            });
        }
    });
    let mut phase = Phase {
        window_s: start.elapsed().as_secs_f64(),
        ..Phase::default()
    };
    let stats = server.stats();
    traffic.lru_hits += stats.lru_warm_hits + stats.lru_pool_hits;
    traffic.lru_checkouts += stats.lru_warm_hits + stats.lru_pool_hits + stats.lru_misses;
    server.shutdown();

    let mut rows = rows.into_inner().expect("rows");
    rows.sort_by_key(|(r, _)| r.event);
    out.attempted += rows.len() as u64;
    // Repaired plans per instance, in the order the session applied them.
    let mut repaired: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    for (k, (row, latency_ms)) in rows.iter().enumerate() {
        let served = match &row.response {
            Ok(s) => s,
            Err(reason) => {
                out.fail(reason.clone());
                continue;
            }
        };
        phase.push(*latency_ms, traces(tracer, row.event as u64).is_some());
        phase
            .objectives
            .push(served.plan.result.objective(&weights));
        if served.repaired {
            repaired
                .entry(row.pool_index)
                .or_default()
                .push((served.plan.result.pipeline.repairs, k));
        } else {
            let instance = &pool[row.pool_index];
            let checked = check_plan(
                tracer,
                None,
                first_req + row.event as u64 + 1,
                &instance.synthesis().chip,
                instance.bench(),
                &served.plan.result,
            );
            if let Err(e) = checked {
                out.wrong(e);
            }
        }
    }
    traffic.unverified += check_repairs(pool, &requests, &rows, repaired, tracer, out);
    traffic.rows.extend(rows.into_iter().map(|(r, _)| r.into()));
    phase
}

/// Re-verifies each repaired plan on the chip its session held when it
/// was planned: the base chip with the session's fault deltas applied in
/// the order the session numbered them. A plan whose predecessor failed
/// (its delta's place in the order is unknown) is not checked; the count
/// of those is returned.
fn check_repairs(
    pool: &[Arc<Instance>],
    requests: &[pdw_serve::TimedRequest],
    rows: &[(Row, f64)],
    repaired: BTreeMap<usize, Vec<(usize, usize)>>,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> u64 {
    let mut unverified = 0;
    for (pool_index, mut plans) in repaired {
        plans.sort_unstable();
        let instance = &pool[pool_index];
        let base = &instance.synthesis().chip;
        let mut faults = base.faults().clone();
        for (expect, &(number, k)) in plans.iter().enumerate() {
            let row = &rows[k].0;
            if number != expect + 1 {
                unverified += (plans.len() - expect) as u64;
                break;
            }
            let ServeRequest::Repair {
                delta: PlanDelta::Fault(fd),
                ..
            } = &requests[row.event].request
            else {
                unreachable!("served repairs come from repair requests");
            };
            fd.apply(&mut faults);
            let chip = match base.with_faults(faults.clone()) {
                Ok(chip) => chip,
                Err(e) => {
                    out.wrong(format!("validation: repaired chip rejected ({e})"));
                    continue;
                }
            };
            let served = row.response.as_ref().expect("served rows only");
            if let Err(e) = check_plan(
                tracer,
                None,
                0,
                &chip,
                instance.bench(),
                &served.plan.result,
            ) {
                out.wrong(e);
            }
        }
    }
    unverified
}

/// What the passes of one phase leave for the report.
#[derive(Default)]
struct Traffic {
    rows: Vec<ServedRow>,
    lru_hits: u64,
    lru_checkouts: u64,
    unverified: u64,
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let tracer = opts.trace.then(Tracer::new);
    let mut speed = Speed::new(CLIENTS);
    let (pool, setup_s) = repeated_setup(&mut speed, || synthesize_pool(tracer.as_ref()));
    let mut seeds = SplitMix::new(opts.seed, 2);
    let mut traffic = Traffic::default();
    let phase = segmented(opts.seconds, &mut speed, |seconds| {
        let start = Instant::now();
        let mut phase = Phase::default();
        while start.elapsed().as_secs_f64() < seconds {
            let stream_seed = seeds.next_u64();
            let tracer = tracer.as_ref();
            let one = pass(&pool, stream_seed, tracer, &mut out, &mut traffic);
            phase.absorb(one);
        }
        phase
    });
    end_to_end(
        &mut out,
        &speed,
        &setup_s,
        &phase,
        true,
        "submit-to-response request",
        99,
    );
    if traffic.unverified > 0 {
        println!(
            "note: {} repaired plans not re-verified (a failed repair left their order unknown)",
            traffic.unverified
        );
    }
    if let Some(tr) = &tracer {
        layers(&mut out, tr, &pool, traffic);
    }
    out.tracer = tracer;
    out
}

fn layers(out: &mut Outcome, tr: &Tracer, pool: &[Arc<Instance>], traffic: Traffic) {
    out.span_layer(tr, "synth.synthesize", "synth.synthesize_ms");
    stage_layers(out, tr);
    gate_layers(out, tr);
    let wait = tr.durations_ms("serve.queue_wait");
    out.layer(
        "serve.queue_wait_ms_p50",
        "ms",
        quantile(&wait, 0.5),
        wait.len(),
    );
    out.layer(
        "serve.queue_wait_ms_p99",
        "ms",
        quantile(&wait, 0.99),
        wait.len(),
    );
    out.span_layer(tr, "serve.service.cold", "serve.cold_service_ms_p50");
    out.span_layer(tr, "serve.service.hit", "serve.hit_service_ms_p50");
    out.span_layer(tr, "serve.service.repair", "serve.repair_service_ms_p50");

    let rows = traffic.rows;
    let solves: Vec<&ServedRow> = rows.iter().filter(|r| !r.repaired).collect();
    let hits = solves.iter().filter(|r| r.memo_hit).count();
    out.layer(
        "serve.memo_hit_ratio",
        "frac",
        share(hits, solves.len()),
        solves.len(),
    );
    out.layer(
        "serve.lru_hit_ratio",
        "frac",
        share(traffic.lru_hits as usize, traffic.lru_checkouts as usize),
        traffic.lru_checkouts as usize,
    );
    let repairs: Vec<&ServedRow> = rows.iter().filter(|r| r.repaired).collect();
    let cached = repairs.iter().filter(|r| r.cache_served).count();
    out.layer(
        "core.repair.cache_served_ratio",
        "frac",
        share(cached, repairs.len()),
        repairs.len(),
    );

    // Replay single-threaded, so the process-wide routing counters see one
    // plan at a time: the first cold solves of the traced passes, plus
    // every instance a request failed on.
    let mut sample: Vec<usize> = Vec::new();
    for r in &rows {
        let cold = r.ok && !r.memo_hit && !r.repaired;
        if (cold && sample.len() < REPLAYS || !r.ok) && !sample.contains(&r.pool_index) {
            sample.push(r.pool_index);
        }
    }
    let config = ServeConfig::default().planner;
    for (n, &i) in sample.iter().enumerate() {
        let instance = &pool[i];
        let before = routing_counters();
        let id = tr.begin("core.resilient.plan", None, n as u64);
        let outcome = plan_resilient(instance.bench(), instance.synthesis(), &config);
        tr.end(id);
        let routed = routing_counters() - before;
        tr.count(id, "rungs", outcome.attempts.len() as f64);
        tr.count(id, "route_calls", routed.route_calls as f64);
        tr.count(id, "bfs_runs", routed.bfs_runs as f64);
    }
    let rungs = tr.counts("core.resilient.plan", "rungs");
    let route = tr.counts("core.resilient.plan", "route_calls");
    let bfs = tr.counts("core.resilient.plan", "bfs_runs");
    out.layer(
        "core.resilient.rungs_per_plan",
        "count",
        mean(&rungs),
        rungs.len(),
    );
    out.layer(
        "biochip.routing.route_calls",
        "count",
        mean(&route),
        route.len(),
    );
    out.layer("biochip.routing.bfs_runs", "count", mean(&bfs), bfs.len());
}

/// What the traced run keeps of each request after its pass.
struct ServedRow {
    pool_index: usize,
    ok: bool,
    memo_hit: bool,
    repaired: bool,
    cache_served: bool,
}

impl From<Row> for ServedRow {
    fn from(r: Row) -> Self {
        let s = r.response.as_ref().ok();
        ServedRow {
            pool_index: r.pool_index,
            ok: s.is_some(),
            memo_hit: s.is_some_and(|s| s.memo_hit),
            repaired: s.is_some_and(|s| s.repaired),
            cache_served: s.is_some_and(|s| s.plan.result.pipeline.repair_cache_served),
        }
    }
}

//! `mega-partitioned`: `plan_partitioned_with` on the pinned mega-grid
//! instance `pdw_gen::mega_spec(65, 16, 3)`, cut into K = 4 regions whose
//! front ends run in 2 out-of-process workers (this binary re-executed
//! with `--worker`), ILP off, one thread. The only workload on which
//! partitioning, the lane executor with its framed job protocol, and
//! large-grid BFS and merging run.

use std::time::{Duration, Instant};

use pathdriver_wash::codec::canonical_bytes;
use pathdriver_wash::{
    plan_partitioned_with, InProcessExecutor, PdwConfig, RegionExecutor, RegionJob,
    SubprocessExecutor, WashResult,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::routing_counters;
use pdw_synth::Synthesis;

use crate::common::{
    check_plan, end_to_end, gate_layers, repeated_setup, report_stages, segmented, stage_layers,
    traces, Opts, Outcome, Phase,
};
use crate::speed::Speed;
use crate::stats::mean;
use crate::trace::{span, Tracer};

const SIDE: u16 = 65;
const OPS: usize = 16;
const INSTANCE_SEED: u64 = 3;
const PARTITIONS: usize = 4;
const WORKERS: usize = 2;

fn config() -> PdwConfig {
    PdwConfig {
        ilp: false,
        threads: 1,
        ..PdwConfig::default()
    }
}

struct Setup {
    bench: Benchmark,
    synthesis: Synthesis,
    executor: SubprocessExecutor,
}

fn setup(tracer: Option<&Tracer>) -> Setup {
    let (bench, synthesis) = span(tracer, "synth.synthesize", None, 0, |_| {
        pdw_gen::mega_instance(&pdw_gen::mega_spec(SIDE, OPS, INSTANCE_SEED))
    })
    .expect("the pinned mega instance synthesizes");
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let executor = SubprocessExecutor::new(
        vec![exe.display().to_string(), "--worker".to_string()],
        WORKERS,
    );
    // Executor start to the first job answered: one empty region job.
    let job = RegionJob {
        chip: &synthesis.chip,
        requirements: &[],
    };
    let answered = span(tracer, "core.partition.worker_spawn", None, 0, |_| {
        executor.run(&[job], &synthesis.schedule, 3, true, 1)
    });
    assert!(
        answered.len() == 1 && answered[0].is_ok() && executor.subprocess_counters().0 == 1,
        "a region worker answered its first job"
    );
    Setup {
        bench,
        synthesis,
        executor,
    }
}

/// Partitioned plans until `seconds` have elapsed. After the window every
/// plan goes through the gate: it validates, replays clean, and is
/// bit-identical to `reference`, the in-process plan of the same instance
/// and config.
fn timed(
    s: &Setup,
    reference: &WashResult,
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> Phase {
    let config = config();
    let mut phase = Phase::default();
    let mut served = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let start = Instant::now();
    while Instant::now() < deadline {
        out.attempted += 1;
        let routing = routing_counters();
        let traced = traces(tracer, out.attempted);
        let id = traced.map(|tr| tr.begin("core.plan.partitioned", None, out.attempted));
        let t = Instant::now();
        let outcome =
            plan_partitioned_with(&s.bench, &s.synthesis, &config, PARTITIONS, &s.executor);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let routed = routing_counters() - routing;
        if let (Some(tr), Some(id)) = (traced, id) {
            tr.end(id);
        }
        let Some(result) = outcome.served else {
            let why = outcome
                .attempts
                .first()
                .and_then(|a| a.rejection.as_ref())
                .map_or("no rung attempted".to_string(), |r| format!("{r:?}"));
            out.fail(format!(
                "unservable: {}",
                why.split('(').next().unwrap_or("")
            ));
            continue;
        };
        // A plan the executor fell back to planning in-process is the same
        // plan, but it did not measure the workers: count it as failed.
        let p = &result.pipeline;
        if p.subprocess_fallbacks > 0 || p.subprocess_jobs == 0 {
            out.fail("executor: in-process fallback");
            served.push(result);
            continue;
        }
        if let (Some(tr), Some(id)) = (traced, id) {
            for (name, v) in [
                ("route_calls", routed.route_calls as f64),
                ("bfs_runs", routed.bfs_runs as f64),
                ("rungs", outcome.attempts.len() as f64),
                ("regions", p.partition_regions as f64),
                ("seam_groups", p.seam_groups as f64),
                ("region_jobs", p.subprocess_jobs as f64),
                ("fallbacks", p.subprocess_fallbacks as f64),
            ] {
                tr.count(id, name, v);
            }
            report_stages(tr, id, p);
        }
        phase.push(wall_ms, traced.is_some());
        phase.objectives.push(result.objective(&config.weights));
        served.push(result);
    }
    phase.window_s = start.elapsed().as_secs_f64();

    let reference_bytes = canonical_bytes(&reference.schedule);
    for result in &served {
        if let Err(e) = check_plan(tracer, None, 0, &s.synthesis.chip, &s.bench, result) {
            out.wrong(e);
        } else if result.metrics != reference.metrics
            || canonical_bytes(&result.schedule) != reference_bytes
        {
            out.wrong("bit-identity: subprocess plan differs from the in-process plan".into());
        }
    }
    phase
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let tracer = opts.trace.then(Tracer::new);
    let mut speed = Speed::new(WORKERS);
    let (s, setup_s) = repeated_setup(&mut speed, || setup(tracer.as_ref()));
    let reference = plan_partitioned_with(
        &s.bench,
        &s.synthesis,
        &config(),
        PARTITIONS,
        &InProcessExecutor,
    )
    .served
    .expect("the in-process reference plan serves");
    let phase = segmented(opts.seconds, &mut speed, |seconds| {
        timed(&s, &reference, seconds, tracer.as_ref(), &mut out)
    });
    // 20 to 30 plan calls a run: too few for a tail beyond the median, so
    // here the tail metric repeats the median.
    end_to_end(
        &mut out,
        &speed,
        &setup_s,
        &phase,
        true,
        "cold partitioned plan call",
        50,
    );
    if let Some(tr) = &tracer {
        layers(&mut out, tr);
    }
    out.tracer = tracer;
    out
}

fn layers(out: &mut Outcome, tr: &Tracer) {
    out.span_layer(tr, "synth.synthesize", "synth.synthesize_ms");
    stage_layers(out, tr);
    gate_layers(out, tr);
    out.span_layer(tr, "ilp.solve", "core.partition.seam_ilp_ms");
    out.span_layer(
        tr,
        "core.partition.worker_spawn",
        "core.partition.worker_spawn_ms",
    );
    for (count, metric) in [
        ("route_calls", "biochip.routing.route_calls"),
        ("bfs_runs", "biochip.routing.bfs_runs"),
        ("rungs", "core.resilient.rungs_per_plan"),
        ("regions", "core.partition.regions"),
        ("seam_groups", "core.partition.seam_groups"),
        ("region_jobs", "core.partition.region_jobs"),
        ("fallbacks", "core.partition.fallbacks"),
    ] {
        let v = tr.counts("core.plan.partitioned", count);
        out.layer(metric, "count", mean(&v), v.len());
    }
}

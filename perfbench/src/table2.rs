//! `table2-ilp`: one cold `PdwPlanner::plan` on a fresh `PlanContext` per
//! bundled instance (demo + the eight Table II benchmarks), one at a time,
//! with the full pipeline under a 500 ms ILP and pipeline budget on one
//! thread. The only workload on which the ILP model, the solver and the
//! deadline checks run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pathdriver_wash::{PdwConfig, PdwPlanner, PlanContext, Planner, SolverStats, WashResult};
use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::routing_counters;
use pdw_synth::Synthesis;

use crate::common::{
    bundled, check_plan, end_to_end, gate_layers, repeated_setup, report_stages, share,
    stage_layers, synthesize, traces, Opts, Outcome, Phase,
};
use crate::speed::Speed;
use crate::stats::{mean, median, ratio, SplitMix};
use crate::trace::{span, Tracer};

const BUDGET: Duration = Duration::from_millis(500);

fn config(ilp: bool) -> PdwConfig {
    PdwConfig {
        ilp,
        ilp_budget: BUDGET,
        pipeline_budget: Some(BUDGET),
        threads: 1,
        ..PdwConfig::default()
    }
}

/// One served plan with what the traced run reads from it.
struct Served {
    instance: usize,
    wall_s: f64,
    result: WashResult,
}

/// Whole passes over the corpus, each in a seeded order, until `seconds`
/// have elapsed (a pass is never cut, so every run plans each instance
/// equally often). The served plans go through the gate after the window.
fn timed(
    corpus: &[(Benchmark, Synthesis)],
    rng: &mut SplitMix,
    seconds: f64,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) -> (Phase, Vec<Served>) {
    let mut served = Vec::new();
    let planner = PdwPlanner::new(config(true));
    let weights = planner.config.weights;
    let mut phase = Phase::default();
    let start = Instant::now();
    let mut pass = 0;
    while start.elapsed().as_secs_f64() < seconds {
        // Whole passes are traced or not, so both sides plan every instance.
        pass += 1;
        let traced = traces(tracer, pass);
        let mut order: Vec<usize> = (0..corpus.len()).collect();
        rng.shuffle(&mut order);
        for i in order {
            let (bench, synthesis) = &corpus[i];
            out.attempted += 1;
            let req = out.attempted;
            let routing = routing_counters();
            let tracer = traced;
            let id = tracer.map(|tr| tr.begin("core.plan", None, req));
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                planner.plan(&mut PlanContext::new(bench, synthesis))
            }));
            let wall_s = t.elapsed().as_secs_f64();
            let routed = routing_counters() - routing;
            if let (Some(tr), Some(id)) = (tracer, id) {
                tr.end(id);
            }
            match result {
                Ok(Ok(result)) => {
                    if let (Some(tr), Some(id)) = (tracer, id) {
                        tr.count(id, "route_calls", routed.route_calls as f64);
                        tr.count(id, "bfs_runs", routed.bfs_runs as f64);
                        report_stages(tr, id, &result.pipeline);
                    }
                    phase.push(wall_s * 1e3, tracer.is_some());
                    phase.objectives.push(result.objective(&weights));
                    served.push(Served {
                        instance: i,
                        wall_s,
                        result,
                    });
                }
                Ok(Err(e)) => out.fail(format!("planner error: {e}")),
                Err(_) => out.fail("planner panic"),
            }
        }
    }
    phase.window_s = start.elapsed().as_secs_f64();
    for s in &served {
        let (bench, synthesis) = &corpus[s.instance];
        if let Err(e) = check_plan(tracer, None, 0, &synthesis.chip, bench, &s.result) {
            out.wrong(e);
        }
    }
    (phase, served)
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let tracer = opts.trace.then(Tracer::new);
    // Plan times here are set by the wall-clock budget, so only set-up is
    // scaled to the nominal speed.
    let mut speed = Speed::new(1);
    let (corpus, setup_s) = repeated_setup(&mut speed, || {
        bundled()
            .into_iter()
            .map(|b| {
                let s = synthesize(tracer.as_ref(), &b);
                (b, s)
            })
            .collect::<Vec<_>>()
    });
    let mut rng = SplitMix::new(opts.seed, 1);
    let (phase, served) = timed(&corpus, &mut rng, opts.seconds, tracer.as_ref(), &mut out);
    // 45 to 55 plan calls a run: p75 keeps at least ten beyond it, and
    // lands among the budget-bound plans, so it follows the overshoot.
    end_to_end(
        &mut out,
        &speed,
        &setup_s,
        &phase,
        false,
        "cold plan call",
        75,
    );
    if let Some(tr) = &tracer {
        layers(&mut out, tr, &corpus, &served);
    }
    out.tracer = tracer;
    out
}

fn layers(out: &mut Outcome, tr: &Tracer, corpus: &[(Benchmark, Synthesis)], served: &[Served]) {
    out.span_layer(tr, "synth.synthesize", "synth.synthesize_ms");
    stage_layers(out, tr);
    gate_layers(out, tr);
    let route = tr.counts("core.plan", "route_calls");
    let bfs = tr.counts("core.plan", "bfs_runs");
    out.layer(
        "biochip.routing.route_calls",
        "count",
        mean(&route),
        route.len(),
    );
    out.layer("biochip.routing.bfs_runs", "count", mean(&bfs), bfs.len());

    let stats: Vec<&SolverStats> = served
        .iter()
        .filter_map(|s| s.result.solver.stats.as_ref())
        .collect();
    let engaged = stats.len();
    out.layer(
        "core.model.ilp_engaged",
        "frac",
        share(engaged, served.len()),
        served.len(),
    );
    let ms = |f: fn(&SolverStats) -> Option<f64>| -> Vec<f64> {
        stats.iter().filter_map(|s| f(s)).map(|v| v * 1e3).collect()
    };
    let presolve = ms(|s| Some(s.presolve_time_s));
    let search = ms(|s| Some(s.search_time_s));
    let first = ms(|s| s.time_to_first_incumbent_s);
    let search_s: f64 = search.iter().sum::<f64>() / 1e3;
    let pivots: u64 = stats.iter().map(|s| s.lp_pivots).sum();
    let nodes: u64 = stats.iter().map(|s| s.nodes).sum();
    let fallbacks: Vec<f64> = stats
        .iter()
        .map(|s| s.warm_start_fallbacks as f64)
        .collect();
    out.layer("ilp.presolve_ms", "ms", median(&presolve), engaged);
    out.layer("ilp.search_ms", "ms", median(&search), engaged);
    out.layer(
        "ilp.pivots_per_s",
        "1/s",
        ratio(pivots as f64, search_s),
        engaged,
    );
    out.layer(
        "ilp.nodes_per_s",
        "1/s",
        ratio(nodes as f64, search_s),
        engaged,
    );
    out.layer("ilp.first_incumbent_ms", "ms", median(&first), first.len());
    out.layer(
        "ilp.warm_start_fallbacks",
        "count",
        mean(&fallbacks),
        engaged,
    );

    // The ILP's gain: each served plan against the same instance planned
    // with the ILP off (one greedy plan per instance, after the window).
    let greedy = PdwPlanner::new(config(false));
    let weights = greedy.config.weights;
    let off: Vec<Option<f64>> = corpus
        .iter()
        .map(|(b, s)| {
            span(Some(tr), "core.plan.ilp_off", None, 0, |_| {
                greedy.plan(&mut PlanContext::new(b, s)).ok()
            })
            .map(|r| r.objective(&weights))
        })
        .collect();
    let gains: Vec<f64> = served
        .iter()
        .filter_map(|s| off[s.instance].map(|o| ratio(o - s.result.objective(&weights), o) * 100.0))
        .collect();
    out.layer("ilp.gain_pct", "%", mean(&gains), gains.len());

    let overshoot: Vec<f64> = served
        .iter()
        .map(|s| (s.wall_s - BUDGET.as_secs_f64()).max(0.0) * 1e3)
        .collect();
    out.layer(
        "core.deadline.overshoot_ms_mean",
        "ms",
        mean(&overshoot),
        overshoot.len(),
    );
    out.layer(
        "core.deadline.overshoot_ms_max",
        "ms",
        overshoot.iter().copied().fold(0.0, f64::max),
        overshoot.len(),
    );
}

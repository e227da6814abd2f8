//! What every workload shares: the result record, the repeated set-up,
//! the output gate, and the end-to-end metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use pathdriver_wash::{PipelineStats, WashResult};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_biochip::Chip;
use pdw_synth::Synthesis;

use crate::speed::Speed;
use crate::stats::{geomean, median, quantile, ratio};
use crate::trace::{span, SpanId, Tracer};

/// Every run sets up at least `MIN_SETUPS` times, and a cheap set-up is
/// repeated until `SETUP_BUDGET_S` is spent (at most `MAX_SETUPS` times);
/// `setup_s` is the median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 2.0;
/// Segments of a timed window that is scaled to the nominal speed.
const SEGMENTS: usize = 4;

/// Command-line options of one run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &str, value: f64, samples: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Everything a run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (plan calls or requests, every phase).
    pub attempted: u64,
    /// Failed operations by typed reason.
    pub failures: BTreeMap<String, u64>,
    /// Wrong outputs: validation, oracle or bit-identity failures. Any
    /// entry makes the run incorrect.
    pub wrong: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
    /// The median kernel time of each speed burst, ms.
    pub speed_ms: Vec<f64>,
}

impl Outcome {
    pub fn fail(&mut self, reason: impl Into<String>) {
        *self.failures.entry(reason.into()).or_insert(0) += 1;
    }

    /// Records a wrong output: it fails its operation and the run.
    pub fn wrong(&mut self, what: String) {
        self.fail(format!("gate: {}", what.split(':').next().unwrap_or("")));
        if self.wrong.len() < 20 {
            self.wrong.push(what);
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    pub fn layer(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.layers.push(Metric::new(name, unit, value, samples));
    }

    /// A per-layer metric taken as the median duration of the spans
    /// called `name`.
    pub fn span_layer(&mut self, tracer: &Tracer, name: &'static str, metric: &'static str) {
        let d = tracer.durations_ms(name);
        self.layer(metric, "ms", median(&d), d.len());
    }
}

/// The timed phase of one workload.
#[derive(Default)]
pub struct Phase {
    /// Wall time of each completed operation, ms.
    pub latency_ms: Vec<f64>,
    /// Whether each completed operation was traced.
    pub traced: Vec<bool>,
    /// Eq. 26 objective of each served plan.
    pub objectives: Vec<f64>,
    /// Wall time of the timed window, s.
    pub window_s: f64,
}

impl Phase {
    pub fn push(&mut self, latency_ms: f64, traced: bool) {
        self.latency_ms.push(latency_ms);
        self.traced.push(traced);
    }

    pub fn absorb(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.traced.extend(other.traced);
        self.objectives.extend(other.objectives);
        self.window_s += other.window_s;
    }
}

/// The timed window of a CPU-bound workload: `seconds` split into
/// [`SEGMENTS`] calls of `window`, with a speed burst after each, so that
/// the run's speed is sampled across its whole window.
pub fn segmented(seconds: f64, speed: &mut Speed, mut window: impl FnMut(f64) -> Phase) -> Phase {
    let mut phase = Phase::default();
    for _ in 0..SEGMENTS {
        phase.absorb(window(seconds / SEGMENTS as f64));
        speed.burst();
    }
    phase
}

/// The tracer for operation `op`: a traced run traces every other
/// operation, so traced and untraced operations share the window (and the
/// machine's speed at the time) and their medians give the overhead.
pub fn traces(tracer: Option<&Tracer>, op: u64) -> Option<&Tracer> {
    tracer.filter(|_| op % 2 == 1)
}

/// Runs `setup` repeatedly (see [`MIN_SETUPS`]), dropping each state
/// before building the next, between two speed bursts. Returns the last
/// state with every set-up's wall time in seconds.
pub fn repeated_setup<S>(speed: &mut Speed, mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    speed.burst();
    let mut kept: Option<S> = None;
    let mut secs: Vec<f64> = Vec::new();
    while secs.len() < MIN_SETUPS
        || (secs.iter().sum::<f64>() < SETUP_BUDGET_S && secs.len() < MAX_SETUPS)
    {
        drop(kept.take());
        let t = Instant::now();
        let state = setup();
        secs.push(t.elapsed().as_secs_f64());
        kept = Some(state);
    }
    speed.burst();
    (kept.expect("at least one set-up"), secs)
}

/// The bundled corpus: demo plus the eight Table II instances.
pub fn bundled() -> Vec<Benchmark> {
    std::iter::once(benchmarks::demo())
        .chain(benchmarks::suite())
        .collect()
}

/// Synthesizes `bench`, recording a `synth.synthesize` span.
pub fn synthesize(tracer: Option<&Tracer>, bench: &Benchmark) -> Synthesis {
    span(tracer, "synth.synthesize", None, 0, |_| {
        pdw_synth::synthesize(bench).expect("bundled benchmarks synthesize")
    })
}

/// The output gate: the plan must pass the independent validator and
/// replay clean through the contamination oracle on `chip`.
pub fn check_plan(
    tracer: Option<&Tracer>,
    parent: Option<SpanId>,
    req: u64,
    chip: &Chip,
    bench: &Benchmark,
    result: &WashResult,
) -> Result<(), String> {
    span(tracer, "sim.validate", parent, req, |_| {
        pdw_sim::validate(chip, &bench.graph, &result.schedule)
    })
    .map_err(|e| format!("validation: {} ({e})", bench.name))?;
    let report = span(tracer, "sim.propagate", parent, req, |_| {
        pdw_sim::propagate(chip, &bench.graph, &result.schedule)
    });
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!("oracle: {} ({report})", bench.name))
    }
}

/// Adds a plan's own stage times as program-reported children of `parent`.
pub fn report_stages(tracer: &Tracer, parent: SpanId, p: &PipelineStats) {
    tracer.reported(
        parent,
        &[
            ("contam.necessity", p.necessity_s),
            ("core.groups.grouping", p.grouping_s),
            ("core.groups.merge", p.merge_s),
            ("core.greedy.insert", p.greedy_s),
            ("ilp.solve", p.ilp_s),
        ],
    );
}

/// The per-layer metrics of the front-end stages, from the spans
/// [`report_stages`] added.
pub fn stage_layers(out: &mut Outcome, tracer: &Tracer) {
    out.span_layer(tracer, "contam.necessity", "contam.necessity_ms");
    out.span_layer(tracer, "core.groups.grouping", "core.groups.grouping_ms");
    out.span_layer(tracer, "core.groups.merge", "core.groups.merge_ms");
    out.span_layer(tracer, "core.greedy.insert", "core.greedy.insert_ms");
}

/// The per-layer metrics of the output gate's validator and oracle calls.
pub fn gate_layers(out: &mut Outcome, tracer: &Tracer) {
    out.span_layer(tracer, "sim.validate", "sim.validate_ms");
    out.span_layer(tracer, "sim.propagate", "sim.propagate_ms");
}

/// `(plans where ILP ran) / plans` style ratio as a metric value.
pub fn share(num: usize, den: usize) -> f64 {
    ratio(num as f64, den as f64)
}

/// The end-to-end metrics every workload reports. `tail_pct` is the
/// workload's tail percentile, fixed so that a run of the benchmark's
/// length keeps at least ten samples beyond it.
///
/// Set-up times, and the window's times when `scale_window` is set, are
/// scaled to the nominal speed by the run's speed bursts (see
/// [`crate::speed`]); each note gives the wall time as measured.
pub fn end_to_end(
    out: &mut Outcome,
    speed: &Speed,
    setup_s: &[f64],
    phase: &Phase,
    scale_window: bool,
    op: &str,
    tail_pct: u32,
) {
    let scale = speed.scale();
    let window_scale = if scale_window { scale } else { 1.0 };
    let n = phase.latency_ms.len();
    let tail = f64::from(tail_pct) / 100.0;
    let (p50, tail_ms) = (median(&phase.latency_ms), quantile(&phase.latency_ms, tail));
    let wall = |v: f64, unit: &str| format!("(wall {v:.4} {unit})");
    out.speed_ms = speed.bursts_ms.clone();
    let attempted = out.attempted;
    let failed = out.failed();
    out.end_to_end = vec![
        Metric::new("setup_s", "s", median(setup_s) * scale, setup_s.len()).note(format!(
            "median of the run's set-ups {}",
            wall(median(setup_s), "s")
        )),
        Metric::new("latency_ms_p50", "ms", p50 * window_scale, n)
            .note(format!("median {op} {}", wall(p50, "ms"))),
        Metric::new("latency_ms_tail", "ms", tail_ms * window_scale, n)
            .note(format!("p{tail_pct} {op} {}", wall(tail_ms, "ms"))),
        Metric::new(
            "ops_per_s",
            "1/s",
            ratio(n as f64, phase.window_s * window_scale),
            n,
        )
        .note(format!(
            "completed over a {:.3} s window {}",
            phase.window_s,
            wall(ratio(n as f64, phase.window_s), "1/s")
        )),
        Metric::new(
            "objective",
            "eq26",
            geomean(&phase.objectives),
            phase.objectives.len(),
        )
        .note("geometric mean of Eq. 26 over served plans"),
        Metric::new(
            "served_frac",
            "frac",
            ratio(attempted.saturating_sub(failed) as f64, attempted as f64),
            attempted as usize,
        )
        .note(format!("{failed} of {attempted} failed")),
    ];
    if phase.traced.contains(&true) {
        let split = |traced: bool| -> Vec<f64> {
            let ops = phase.latency_ms.iter().zip(&phase.traced);
            ops.filter(|o| *o.1 == traced).map(|o| *o.0).collect()
        };
        let (on, off) = (split(true), split(false));
        let base = median(&off);
        out.layer(
            "trace.overhead_pct",
            "%",
            ratio(median(&on) - base, base) * 100.0,
            on.len(),
        );
    }
}

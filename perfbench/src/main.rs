//! The repository benchmark: four workloads run against the workspace's
//! public API, timed end to end, with a separate traced mode that reports
//! per-layer metrics. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --worker        # region worker on stdin/stdout (self re-exec)
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A wrong plan
//! (validation, oracle or bit-identity failure) makes the run exit 1.
//! `--workload all` runs every workload in turn, each with its own block
//! and JSON line.

mod common;
mod mega;
mod serve_mixed;
mod socket_memo;
mod speed;
mod stats;
mod table2;
mod trace;

use common::{Metric, Opts, Outcome};
use trace::json_number;

/// One entry of `BENCHMARK.json`'s `per_layer` list.
#[derive(serde::Deserialize)]
struct LayerSpec {
    name: String,
    unit: String,
}

#[derive(serde::Deserialize)]
struct Catalogue {
    per_layer: Vec<LayerSpec>,
}

/// Every per-layer metric, in report order: the `per_layer` list of the
/// `BENCHMARK.json` the benchmark is built with. A workload leaves out
/// the layers it bypasses; they are reported as 0.
fn layer_catalogue() -> Vec<LayerSpec> {
    serde_json::from_str::<Catalogue>(include_str!("../../BENCHMARK.json"))
        .expect("BENCHMARK.json lists the per-layer metrics")
        .per_layer
}

const WORKLOADS: &[&str] = &[
    "table2-ilp",
    "serve-mixed",
    "socket-memo",
    "mega-partitioned",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

/// The workloads to run (`all` runs each in turn) and the run options.
fn parse_args() -> (Vec<&'static str>, Opts) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        let i = args.iter().position(|a| a == flag)?;
        args.get(i + 1).map(String::as_str)
    };
    let workloads = match value("--workload") {
        Some("all") => WORKLOADS.to_vec(),
        Some(name) => match WORKLOADS.iter().find(|w| **w == name) {
            Some(w) => vec![*w],
            None => {
                eprintln!("unknown workload `{name}`");
                usage()
            }
        },
        None => usage(),
    };
    let seed = value("--seed").map_or(Some(1), |v| v.parse().ok());
    let seconds = value("--seconds").map_or(Some(20.0), |v| v.parse::<f64>().ok());
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    match (seed, seconds) {
        (Some(seed), Some(seconds)) if seconds > 0.0 => (
            workloads,
            Opts {
                seed,
                seconds,
                trace,
            },
        ),
        _ => usage(),
    }
}

fn print_metric(m: &Metric) {
    println!(
        "  {:<34} {:>16} {:<6} n={:<6} {}",
        m.name,
        format!("{:.6}", m.value),
        m.unit,
        m.samples,
        m.note
    );
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("--worker") {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = pathdriver_wash::run_worker(&mut stdin.lock(), &mut stdout.lock()) {
            eprintln!("perfbench worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let (workloads, opts) = parse_args();
    let mut correct = true;
    for workload in workloads {
        let out = match workload {
            "table2-ilp" => table2::run(&opts),
            "serve-mixed" => serve_mixed::run(&opts),
            "socket-memo" => socket_memo::run(&opts),
            "mega-partitioned" => mega::run(&opts),
            _ => unreachable!("workload names are checked in parse_args"),
        };
        correct &= report(workload, &opts, out);
    }
    if !correct {
        std::process::exit(1);
    }
}

/// Prints one workload's metrics, failures and final JSON line; returns
/// whether every plan passed the gate.
fn report(workload: &str, opts: &Opts, mut out: Outcome) -> bool {
    println!(
        "workload {workload} seed {} seconds {} trace {}",
        opts.seed, opts.seconds, opts.trace as u8
    );
    println!("end-to-end:");
    out.end_to_end.iter().for_each(print_metric);
    let bursts: Vec<String> = out.speed_ms.iter().map(|ms| format!("{ms:.3}")).collect();
    println!(
        "speed: reference kernel {} ms per burst (nominal {} ms)",
        bursts.join(" "),
        speed::NOMINAL_MS
    );
    println!(
        "operations: {} attempted, {} failed",
        out.attempted,
        out.failed()
    );
    for (reason, n) in &out.failures {
        println!("  failed {n:>6}  {reason}");
    }
    for w in &out.wrong {
        println!("  WRONG OUTPUT: {w}");
    }

    let metrics: Vec<Metric> = if opts.trace {
        let mut layers = Vec::new();
        for spec in layer_catalogue() {
            let found = out.layers.iter().position(|m| m.name == spec.name);
            layers.push(match found {
                Some(i) => out.layers.swap_remove(i),
                None => Metric::new(&spec.name, &spec.unit, 0.0, 0).note("layer bypassed"),
            });
            let m = layers.last().expect("just pushed");
            assert_eq!(m.unit, spec.unit, "unit of layer metric `{}`", m.name);
        }
        assert!(
            out.layers.is_empty(),
            "uncatalogued layer metric `{}`",
            out.layers[0].name
        );
        println!("per-layer:");
        layers.iter().for_each(print_metric);
        if let Some(tracer) = &out.tracer {
            let path = std::path::PathBuf::from(".bench_out")
                .join(format!("trace-{workload}-seed{}.json", opts.seed));
            match tracer.write_chrome(&path) {
                Ok(()) => println!("chrome trace: {}", path.display()),
                Err(e) => println!("chrome trace not written: {e}"),
            }
            print!("self time per span:\n{}", tracer.self_time_table());
        }
        layers
    } else {
        std::mem::take(&mut out.end_to_end)
    };

    let correct = out.wrong.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed(),
        body.join(", ")
    );
    correct
}

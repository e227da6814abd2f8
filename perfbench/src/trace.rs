//! The traced run's span recorder.
//!
//! The benchmark records one span around each call it makes into a layer:
//! name, start, end, parent span, and the id of the request the span
//! belongs to. Counts ride on the span that produced them. Where a layer
//! runs only inside one public call, the benchmark adds the stage times
//! that call returns (`PipelineStats`) as child spans laid end to end from
//! the parent's start and marked `program-reported`: their durations are
//! the program's, their placement inside the parent is not.
//!
//! Spans stay in memory until the run ends; then [`Tracer::write_chrome`]
//! writes Chrome trace-event JSON (viewable in Perfetto or
//! chrome://tracing) and [`Tracer::self_time_table`] prints each span
//! name's self time: its duration minus the part its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    req: u64,
    thread: u64,
    reported: bool,
    counts: Vec<(&'static str, f64)>,
}

/// An in-memory span recorder shared by the benchmark's threads.
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static THREAD: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
            thread: THREAD.with(|t| *t),
            reported: false,
            counts: Vec::new(),
        })
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&self, id: SpanId) {
        let now = self.now_ns();
        self.spans.lock().expect("span log poisoned")[id].end_ns = now;
    }

    /// Attaches a count to a span.
    pub fn count(&self, id: SpanId, name: &'static str, value: f64) {
        self.spans.lock().expect("span log poisoned")[id]
            .counts
            .push((name, value));
    }

    /// Adds program-reported stage times (seconds) as children of `parent`,
    /// laid end to end from its start and clipped to its end.
    pub fn reported(&self, parent: SpanId, stages: &[(&'static str, f64)]) -> Vec<SpanId> {
        let mut spans = self.spans.lock().expect("span log poisoned");
        let (mut at, end, req, thread) = {
            let p = &spans[parent];
            (p.start_ns, p.end_ns, p.req, p.thread)
        };
        let mut ids = Vec::with_capacity(stages.len());
        for &(name, secs) in stages {
            let stop = (at + (secs.max(0.0) * 1e9) as u64).min(end);
            ids.push(spans.len());
            spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                req,
                thread,
                reported: true,
                counts: Vec::new(),
            });
            at = stop;
        }
        ids
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Durations in milliseconds of the spans called `name` of request `req`.
    pub fn durations_ms_req(&self, name: &str, req: u64) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name && s.req == req)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Every value of count `count` recorded on spans called `span`.
    pub fn counts(&self, span: &str, count: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == span)
            .flat_map(|s| s.counts.iter().filter(|c| c.0 == count).map(|c| c.1))
            .collect()
    }

    /// Writes the spans as Chrome trace-event JSON.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let mut args = format!(
                "\"req\":{},\"span\":{i},\"source\":\"{}\"",
                s.req,
                if s.reported {
                    "program-reported"
                } else {
                    "benchmark"
                }
            );
            if let Some(p) = s.parent {
                args.push_str(&format!(",\"parent\":{p}"));
            }
            for (k, v) in &s.counts {
                args.push_str(&format!(",\"{k}\":{}", json_number(*v)));
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                s.name,
                s.thread,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    /// Per span name: count, total and self time in ms, and whether the
    /// times are program-reported. Self time is a span's duration minus
    /// the union of its children's intervals.
    pub fn self_time_table(&self) -> String {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        // name -> (spans, total ns, self ns, reported)
        let mut rows: BTreeMap<&str, (u64, u64, u64, bool)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let covered = union_len(&mut children[i], s.start_ns, s.end_ns);
            let row = rows.entry(s.name).or_insert((0, 0, 0, s.reported));
            row.0 += 1;
            row.1 += dur;
            row.2 += dur - covered;
        }
        let mut out = format!(
            "{:<34} {:>8} {:>12} {:>12} {:>12}  source\n",
            "span", "count", "total_ms", "self_ms", "self_ms/span"
        );
        for (name, (n, total, own, reported)) in rows {
            out.push_str(&format!(
                "{name:<34} {n:>8} {:>12.3} {:>12.3} {:>12.4}  {}\n",
                total as f64 / 1e6,
                own as f64 / 1e6,
                own as f64 / 1e6 / n as f64,
                if reported {
                    "program-reported"
                } else {
                    "benchmark"
                }
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

/// Formats a finite number for JSON with every digit (non-finite as 0).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Runs `f` inside a span when tracing, or bare when not. `f` receives its
/// own span id so it can parent child spans.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<SpanId>,
    req: u64,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> T {
    match tracer {
        None => f(None),
        Some(t) => {
            let id = t.begin(name, parent, req);
            let out = f(Some(id));
            t.end(id);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut kids = vec![(10, 20), (15, 30), (40, 50)];
        assert_eq!(union_len(&mut kids, 0, 45), 20 + 5);
    }

    #[test]
    fn reported_children_fill_the_parent_in_order() {
        let t = Tracer::new();
        let p = t.begin("op", None, 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(p);
        t.reported(p, &[("a", 0.0005), ("b", 10.0)]);
        let a = t.durations_ms("a")[0];
        let b = t.durations_ms("b")[0];
        let op = t.durations_ms("op")[0];
        assert!((a - 0.5).abs() < 1e-6);
        assert!(
            (a + b - op).abs() < 1e-6,
            "b is clipped to the parent's end"
        );
    }
}
